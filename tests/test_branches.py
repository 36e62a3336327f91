import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symlab import (
    boundary_values,
    build_symbol,
    conformal_map,
    critical_structure,
    pair_minus,
    rho_density,
    s_density,
    solve_grid,
)


def test_chebyshev_branches_at_two(cheb):
    """At lam=2 the small branch is 2(2 - sqrt(3))."""
    z = solve_grid(cheb, [2.0])[0]
    assert z[0] == pytest.approx(4.0 - 2.0 * math.sqrt(3.0), abs=1e-13)
    assert z[1] == pytest.approx(4.0 + 2.0 * math.sqrt(3.0), abs=1e-12)


def test_chebyshev_branches_at_zero(cheb):
    # dead center of the cut the branches collide in modulus: +-2i
    vals = sorted(solve_grid(cheb, [0.0])[0], key=lambda z: z.imag)
    assert vals[0] == pytest.approx(-2j, abs=1e-13)
    assert vals[1] == pytest.approx(2j, abs=1e-13)


def test_conformal_map_chebyshev(cheb_struct):
    g1 = cheb_struct.cut(1)
    assert conformal_map(g1, 2.0) == pytest.approx(2.0 - math.sqrt(3.0), abs=1e-13)
    # phi(inf) = 0
    assert abs(conformal_map(g1, 1e9)) < 1e-8
    # modulus < 1 off the cut
    assert abs(conformal_map(g1, 1.5 + 0.5j)) < 1.0


def test_rho1_chebyshev_is_semicircle(cheb):
    xs = np.linspace(-0.95, 0.95, 17)
    want = 2.0 / np.pi * np.sqrt(1.0 - xs**2)
    got = rho_density(cheb, 1, xs)
    np.testing.assert_allclose(got, want, rtol=1e-10)


def test_rho_density_positive_interior(can, can_struct):
    g1 = can_struct.cut(1)
    xs = np.linspace(g1.lo + 0.05, g1.hi - 0.05, 23)
    assert np.all(rho_density(can, 1, xs, can_struct) > 0)
    ray = np.linspace(-25.0, -5.3, 17)
    assert np.all(rho_density(can, 2, ray, can_struct) > 0)


def test_s_density_values_frozen(can, can_struct):
    # regression anchors on both cuts
    assert s_density(can, 1, 0.0, can_struct) == pytest.approx(
        0.05752211878186406, rel=1e-10
    )
    assert s_density(can, 2, -6.0, can_struct) == pytest.approx(
        0.06081720347395408, rel=1e-10
    )


def test_boundary_values_conjugate_on_cut(can, can_struct):
    # on Gamma_1 the two colliding branches are complex conjugates
    bs = boundary_values(can, 1, 0.5, can_struct)
    assert bs.z_plus == pytest.approx(np.conj(bs.z_minus), abs=1e-10)
    assert abs(bs.z_plus.imag) > 1e-3


def test_pair_minus_matches_boundary(can, can_struct):
    xs = np.array([-2.0, 0.5, 3.0])
    zm = pair_minus(can, 1, xs, can_struct)
    for x, z in zip(xs, zm):
        bs = boundary_values(can, 1, float(x), can_struct)
        assert z == pytest.approx(bs.z_minus, abs=1e-9)


def test_solve_grid_matches_pointwise(can):
    lams = np.array([10 + 5j, -20 + 1j, 3 - 2j])
    grid = solve_grid(can, lams)
    for i, lam in enumerate(lams):
        np.testing.assert_allclose(grid[i], solve_grid(can, [lam])[0], rtol=1e-12)


@settings(deadline=None, max_examples=30)
@given(x=st.floats(-0.98, 0.98))
def test_semicircle_pointwise(cheb, x):
    assert rho_density(cheb, 1, x) == pytest.approx(
        2.0 / math.pi * math.sqrt(1.0 - x * x), rel=1e-9
    )
