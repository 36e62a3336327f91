import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symlab import (
    build_symbol,
    critical_polynomial,
    critical_structure,
    eval_symbol,
    solve_grid,
)
from symlab.errors import (
    ComplexCriticalPoints,
    DivisionAtZero,
    MultipleCriticalPoints,
    ZeroLeadingCoefficient,
)
from symlab.symbol import _eval_a


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


def test_contains_interior_elementwise(can_struct):
    for cut in can_struct.cuts:
        e = cut.finite_end if cut.is_ray else cut.lo
        xs = np.array([e, np.nextafter(e, 0.0), e - 1.0, e + 1.0, 0.0, -1e300, 1e300,
                       np.inf, -np.inf, np.nan, cut.scale()])
        for margin in (0.0, 0.5):
            # the scalar rule lo + margin < x < hi - margin, point by point
            want = [cut.lo + margin < float(x) < cut.hi - margin for x in xs]
            assert cut.contains_interior(xs, margin).tolist() == want
            assert [bool(cut.contains_interior(float(x), margin)) for x in xs] == want


def _eval_symbol_reference(sym, z):
    """eval_symbol as one function, a(z) Horner inline."""
    z = np.asarray(z)
    a = np.zeros_like(z, dtype=complex) if np.iscomplexobj(z) else np.zeros_like(z, dtype=float)
    for c in reversed(sym.a):
        a = a * z + c
    da = np.zeros_like(a)
    for k in range(sym.p, 0, -1):
        da = da * z + k * sym.a[k]
    az = a + 1.0 / z
    daz = da - 1.0 / z ** 2
    w = 1.0 / z
    r = np.zeros_like(a)
    dr = np.zeros_like(a)
    for c in reversed(sym.a):
        dr = dr * w + r
        r = r * w + c
    rz = r + z
    drz = 1.0 - dr / z ** 2
    if np.ndim(z) == 0:
        return az[()], rz[()], daz[()], drz[()]
    return az, rz, daz, drz


@pytest.mark.parametrize("coeffs", [(0.0, 0.25), (0.0, 7.0, 3.0), (0.0, 9.99, 6.545, 0.74)])
def test_eval_symbol_bits_with_a_helper(coeffs):
    sym = build_symbol(len(coeffs) - 1, coeffs)
    rng = np.random.default_rng(5)
    zc = rng.normal(size=(30, 3)) + 1j * rng.normal(size=(30, 3))
    zc *= 10.0 ** rng.uniform(-8, 8, (30, 3))
    for z in (zc, zc.real, zc[0, 0], float(zc[0, 0].real)):
        got, want = eval_symbol(sym, z), _eval_symbol_reference(sym, z)
        for g, w in zip(got, want):
            assert type(g) is type(w) and np.asarray(g).tobytes() == np.asarray(w).tobytes()
        assert np.asarray(_eval_a(sym, np.asarray(z))).tobytes() == np.asarray(want[0]).tobytes()
    with pytest.raises(DivisionAtZero):
        _eval_a(sym, np.array([1.0, 0.0]))


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


@pytest.mark.parametrize("coeffs, shown", [((0.0, 3.0, 1.0), "-1, -1, 2"),
                                           ((0.0, 3e-20, 1e-30), "-1e-10, -1e-10, 2e-10")])
def test_double_critical_point_refused(coeffs, shown):
    # r'(x) = 1 - 3/x^2 - 2/x^3 has the double root x = -1; the second
    # symbol is the first under z -> 1e10 z, its double point at -1e-10
    with pytest.raises(MultipleCriticalPoints) as err:
        critical_structure(build_symbol(2, coeffs))
    assert shown in str(err.value) and "-0." not in str(err.value)


def test_complex_critical_points_refused():
    # r'(x) = 1 + 1/x^2 - 1/x^3: x^3 + x - 1 has one real root and a pair
    with pytest.raises(ComplexCriticalPoints) as err:
        critical_structure(build_symbol(2, (0.0, -1.0, 0.5)))
    assert "-0.341+1.16j" in str(err.value)


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
    zs = solve_grid(sym, [lam])[0]
    assert len(zs) == 2
    for z in zs:
        az = eval_symbol(sym, z)[0]
        assert abs(az - lam) < 1e-9 * max(1.0, abs(lam))
    # modulus ordering is the branch definition
    assert abs(zs[0]) <= abs(zs[1]) + 1e-12


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
    prod = np.prod(solve_grid(sym, [lam])[0])
    assert prod == pytest.approx(-1.0 / a2, rel=1e-9)
