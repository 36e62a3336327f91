import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symlab import (
    build_symbol,
    critical_polynomial,
    critical_structure,
    eval_symbol,
    solve_branches,
)
from symlab.errors import ZeroLeadingCoefficient


def test_build_symbol_rejects_zero_leading():
    with pytest.raises(ZeroLeadingCoefficient):
        build_symbol(2, (0.0, 7.0, 0.0))


def test_build_symbol_rejects_length_mismatch():
    with pytest.raises(Exception):
        build_symbol(2, (0.0, 7.0))


def test_eval_symbol_laurent(can):
    # a(z) = 1/z + 7z + 3z^2 termwise, plus reflected r(z) = a(1/z) and both
    # derivatives
    z = 1.5 + 0.25j
    az, rz, daz, drz = eval_symbol(can, z)
    assert az == pytest.approx(1.0 / z + 7.0 * z + 3.0 * z * z)
    assert rz == pytest.approx(z + 7.0 / z + 3.0 / (z * z))
    assert daz == pytest.approx(-1.0 / z**2 + 7.0 + 6.0 * z)
    assert drz == pytest.approx(1.0 - 7.0 / z**2 - 6.0 / z**3)


def test_cut_distance(can_struct):
    interval, ray = can_struct.cut(1), can_struct.cut(2)  # [-4.75, 5.67], (-inf, -5]
    assert interval.distance(-7.75 + 4j) == pytest.approx(5.0)  # left of the cut
    assert interval.distance(interval.hi + 3 - 4j) == pytest.approx(5.0)  # right
    assert interval.distance(1.0 + 0.5j) == 0.5  # above
    assert interval.distance(1.0) == 0.0  # on it
    assert ray.distance(-2.0 + 4j) == pytest.approx(5.0)  # right of the end
    assert ray.distance(-100.0 - 2j) == 2.0  # below
    assert ray.distance(-8.0) == 0.0  # on it


def test_critical_polynomial_roots_are_critical_points(can):
    # ascending coefficients; for (0,7,3) this is x^3 - 7x - 6 = (x+2)(x+1)(x-3)
    q = critical_polynomial(can)
    np.testing.assert_allclose(q, [-6.0, -7.0, 0.0, 1.0], atol=1e-13)
    roots = np.sort(np.real(np.roots(q[::-1])))
    np.testing.assert_allclose(roots, [-2.0, -1.0, 3.0], atol=1e-12)


def test_critical_structure_canonical(can_struct):
    assert can_struct.x == pytest.approx((-2.0, -1.0, 3.0), abs=1e-13)
    assert can_struct.lam == pytest.approx((-4.75, -5.0, 17.0 / 3.0), abs=1e-13)
    assert can_struct.kinds == {2: "min"}
    g1 = can_struct.cut(1)
    g2 = can_struct.cut(2)
    assert (g1.lo, g1.hi) == pytest.approx((-4.75, 17.0 / 3.0))
    assert math.isinf(g2.lo) and g2.lo < 0
    assert g2.hi == pytest.approx(-5.0)
    assert g2.finite_end == pytest.approx(-5.0)


def test_critical_structure_chebyshev(cheb_struct):
    # r(z) = z + 1/(4z) has critical points +-1/2 with values -+1
    assert sorted(cheb_struct.x) == pytest.approx([-0.5, 0.5])
    assert sorted(cheb_struct.lam) == pytest.approx([-1.0, 1.0])
    g1 = cheb_struct.cut(1)
    assert (g1.lo, g1.hi) == pytest.approx((-1.0, 1.0))
    assert len(list(cheb_struct.cuts)) == 1


def test_cut_scale(can_struct):
    assert can_struct.cut(1).scale() == pytest.approx(17.0 / 3.0)


@settings(deadline=None, max_examples=40)
@given(
    a0=st.floats(-2.0, 2.0),
    ap=st.floats(0.3, 3.0),
    re=st.floats(-8.0, 8.0),
    im=st.floats(0.5, 6.0),
)
def test_branches_solve_the_symbol_equation(a0, ap, re, im):
    sym = build_symbol(1, (a0, ap))
    lam = complex(re, im)
    bv = solve_branches(sym, lam)
    assert len(bv.z) == 2
    for z in bv.z:
        az = eval_symbol(sym, z)[0]
        assert abs(az - lam) < 1e-9 * max(1.0, abs(lam))
    # modulus ordering is the branch definition
    assert abs(bv.z[0]) <= abs(bv.z[1]) + 1e-12


@settings(deadline=None, max_examples=40)
@given(
    a1=st.floats(1.0, 9.0),
    a2=st.floats(0.5, 4.0),
    re=st.floats(-10.0, 10.0),
    im=st.floats(0.5, 8.0),
)
def test_branch_product_identity(a1, a2, re, im):
    # a(z) = lam clears to a_p z^{p+1} + ... + (a0-lam) z + 1 = 0, so the
    # product of the branches is 1/a_p up to sign (-1)^{p+1}
    sym = build_symbol(2, (0.0, a1, a2))
    lam = complex(re, im)
    bv = solve_branches(sym, lam)
    prod = np.prod(np.asarray(bv.z))
    assert prod == pytest.approx(-1.0 / a2, rel=1e-9)
