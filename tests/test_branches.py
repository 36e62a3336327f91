import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symlab import (
    boundary_values,
    branches,
    build_symbol,
    build_system,
    conformal_map,
    critical_structure,
    pair_minus,
    rho_density,
    s_density,
    solve_grid,
)
from symlab.errors import NotInCut


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
    assert np.all(rho_density(can, 1, xs) > 0)
    ray = np.linspace(-25.0, -5.3, 17)
    assert np.all(rho_density(can, 2, ray) > 0)


def test_s_density_values_frozen(can):
    # regression anchors on both cuts
    assert s_density(can, 1, 0.0) == pytest.approx(
        0.05752211878186406, rel=1e-10
    )
    assert s_density(can, 2, -6.0) == pytest.approx(
        0.06081720347395408, rel=1e-10
    )


def test_boundary_values_conjugate_on_cut(can):
    # on Gamma_1 the two colliding branches are complex conjugates
    bs = boundary_values(can, 1, 0.5)
    assert bs.z_plus == pytest.approx(np.conj(bs.z_minus), abs=1e-10)
    assert abs(bs.z_plus.imag) > 1e-3


P3 = (0.0, 9.99, 6.545, 0.74)


@pytest.mark.parametrize("coeffs, k, xs", [
    ((0.0, 7.0, 3.0), 1, [-2.0, 0.5, 3.0]),
    ((0.0, 7.0, 3.0), 2, [-6.0, -25.0, -400.0]),
    ((0.0, 0.25), 1, [-0.9, 0.0, 0.5]),
    (P3, 1, [-4.0, 0.0, 5.0]),
    (P3, 2, [-10.0, -50.0, -400.0]),
    (P3, 3, [30.0, 100.0, 400.0]),
], ids=["can-1", "can-2", "cheb-1", "p3-1", "p3-2", "p3-3"])
def test_pair_minus_matches_boundary(coeffs, k, xs):
    # the epsilon schedule is the independent oracle for the sign rule;
    # its extrapolation carries up to 1.2e-15 of its own (P3 at -10, against
    # a 40-digit solve that puts pair_minus within 1.2e-16), hence 2e-15
    sym = build_symbol(len(coeffs) - 1, coeffs)
    zm = pair_minus(sym, k, np.array(xs))
    for x, z in zip(xs, zm):
        want = boundary_values(sym, k, x).z_minus
        assert abs(z - want) <= 2e-15 * abs(want)


def _interior(cut, m=13):
    if not cut.is_ray:
        return np.linspace(cut.lo, cut.hi, m + 2)[1:-1]
    off = np.geomspace(1e-6, 1e6, m) * cut.scale()
    return cut.finite_end - off if math.isinf(cut.lo) else cut.finite_end + off


def test_densities_need_no_epsilon_schedule(monkeypatch):
    # every node of a desk symbol is picked by the sign rule alone; the
    # symbols are built here because a symbol holds its solved nodes, and
    # the session ones would answer from that memo without solving
    def refuse(*args, **kwargs):
        raise AssertionError("boundary_values called")

    monkeypatch.setattr(branches, "boundary_values", refuse)
    cheb, can = build_symbol(1, (0.0, 0.25)), build_symbol(2, (0.0, 7.0, 3.0))
    for sym in (cheb, can):
        struct = critical_structure(sym)
        for k in range(1, sym.p + 1):
            assert np.all(s_density(sym, k, _interior(struct.cut(k))) > 0.0)
    build_system(can)


@pytest.mark.parametrize("k", [-36, -32, -28, -24, -20, -8, 8, 16, 24])
def test_s_density_scale_covariant(k):
    # z -> cz divides every lambda by c and multiplies the density by c;
    # inside the cut the solve reads at most 2 ulps apart at any scale, and
    # next to the ends at +-1, where the pair sits by a square-root branch
    # point, the end's chart reads the same value at any scale
    c = 2.0 ** k
    base = build_symbol(1, (0.0, 0.25))
    sym = build_symbol(1, (0.0 / c, 0.25 / c ** 2))
    xs = np.linspace(-0.9, 0.9, 19)
    got = s_density(sym, 1, xs / c) / c
    np.testing.assert_array_max_ulp(got, s_density(base, 1, xs), maxulp=2)
    near = np.array([1 - 1e-4, 1 - 1e-7, 1 - 1e-10, -1 + 1e-12])
    got = s_density(sym, 1, near / c) / c
    np.testing.assert_allclose(got, s_density(base, 1, near), rtol=1e-14, atol=0)
    build_system(sym)


def _mp_s_density(sym, x):
    """|Im 1/(z a'(z))|/pi at the non-real pair of t(a(t) - x), in 60 digits."""
    with mp.workdps(60):
        a = [mp.mpf(v) for v in sym.a]
        coeffs = [*reversed(a[1:]), a[0] - mp.mpf(x), mp.mpf(1)]  # high to low
        roots = mp.polyroots(coeffs, maxsteps=200, extraprec=200)
        z = max(roots, key=lambda r: abs(mp.im(r)))
        da = sum(j * a[j] * z ** (j - 1) for j in range(1, sym.p + 1)) - 1 / z ** 2
        return float(abs(mp.im(1 / (z * da))) / mp.pi)


# the cut ends of the desk symbols that are exact floats, and the way in
ENDS = [((0.0, 7.0, 3.0), 1, -4.75, 1.0), ((0.0, 7.0, 3.0), 2, -5.0, -1.0),
        ((0.0, 0.25), 1, -1.0, 1.0), ((0.0, 0.25), 1, 1.0, -1.0)]


@pytest.mark.parametrize("coeffs, k, e, inward", ENDS)
def test_s_density_at_cut_ends_matches_mpmath(coeffs, k, e, inward):
    # the pair is a near-double root there, solved in the end's chart; the
    # stored end is the true one, so the density holds to about eps
    sym = build_symbol(len(coeffs) - 1, coeffs)
    assert e in critical_structure(sym).cut(k).endpoints()
    for d in (1e-2, 1e-5, 1e-8, 1e-11, 1e-13):
        x = e + inward * d * abs(e)
        want = _mp_s_density(sym, x)
        assert s_density(sym, k, x) == pytest.approx(want, rel=1e-13, abs=0)


def test_chart_rows_fall_through_to_the_full_solve(monkeypatch):
    # a row the end's chart does not settle takes the full solve, as if it
    # had never been charted
    xs = np.concatenate([1.0 - np.geomspace(1e-12, 1e-2, 6), [0.5, -0.999]])
    monkeypatch.setattr(branches, "_CHART_REACH", 0.0)
    uncharted = branches._solve_pair_minus(build_symbol(1, (0.0, 0.25)), 1, xs)
    monkeypatch.undo()
    monkeypatch.setattr(branches, "_CHART_ITER", 0)
    failed = branches._solve_pair_minus(build_symbol(1, (0.0, 0.25)), 1, xs)
    assert failed.tobytes() == uncharted.tobytes()
    monkeypatch.undo()
    # just outside the cut the pair is real: the chart refuses it, and so
    # does the full solve
    cheb = build_symbol(1, (0.0, 0.25))
    with pytest.raises(NotInCut):
        pair_minus(cheb, 1, np.array([1.0 + 1e-3]))
    assert critical_structure(cheb).pair_memo == {}


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
