import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symlab import (
    CubicParams,
    cubic_build,
    cubic_rho1_density,
    cubic_rho2_density,
    cubic_z0,
    critical_structure,
    rho_density,
    solve_grid,
)
from symlab.errors import BranchPointHit

PARAMS = CubicParams(-2.0, -1.0)


def test_cubic_build_canonical(can):
    sym, lams = cubic_build(PARAMS)
    assert sym == can
    assert lams == pytest.approx((-4.75, -5.0, 17.0 / 3.0))


def test_cubic_z0_off_cut(can):
    # away from the cuts the closed form must track the generic solver
    rng = np.random.default_rng(11)
    for _ in range(50):
        lam = complex(rng.uniform(-12, 12), rng.uniform(0.4, 8.0))
        want = solve_grid(can, [lam])[0, 0]
        assert cubic_z0(PARAMS, lam) == pytest.approx(want, rel=1e-11)


def test_cubic_z0_real_outside_hull(can):
    for lam in (8.0, 40.0, -60.0):
        want = solve_grid(can, [lam])[0, 0]
        assert cubic_z0(PARAMS, lam) == pytest.approx(want, rel=1e-11)


def test_cubic_z0_refuses_branch_point():
    # lambda_1 = -4.75 is where z0 meets z1
    with pytest.raises(BranchPointHit):
        cubic_z0(PARAMS, -4.75)


def test_cubic_densities_match_generic(can, can_struct):
    g1 = can_struct.cut(1)
    xs = np.linspace(g1.lo + 0.02, g1.hi - 0.02, 31)
    want = rho_density(can, 1, xs)
    got = np.array([cubic_rho1_density(PARAMS, float(x)) for x in xs])
    np.testing.assert_allclose(got, want, atol=1e-10)

    ray = np.linspace(-40.0, -5.2, 25)
    want2 = rho_density(can, 2, ray)
    got2 = np.array([cubic_rho2_density(PARAMS, float(x)) for x in ray])
    np.testing.assert_allclose(got2, want2, atol=1e-10)


def test_cubic_density_spot_values():
    assert cubic_rho1_density(PARAMS, 0.5) == pytest.approx(
        0.11560859040442675, rel=1e-10
    )
    assert cubic_rho2_density(PARAMS, -6.0) == pytest.approx(
        0.2067279532721374, rel=1e-10
    )


@settings(deadline=None, max_examples=20)
@given(
    x1=st.floats(-3.0, -1.6),
    x2=st.floats(-1.4, -0.6),
)
def test_cubic_family_consistency(x1, x2):
    """Any admissible parameter pair reproduces its own critical data."""
    params = CubicParams(x1, x2)
    sym, lams = cubic_build(params)
    struct = critical_structure(sym)
    assert struct.lam == pytest.approx(lams, rel=1e-9)
    # x3 is pinned by the trace relation on the critical polynomial
    assert struct.x[0] == pytest.approx(x1, rel=1e-9)
    assert struct.x[1] == pytest.approx(x2, rel=1e-9)
