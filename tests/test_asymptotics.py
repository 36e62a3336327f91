import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symlab import (
    build_symbol,
    conformal_map,
    counting_compare,
    critical_structure,
    eval_Q,
    gen_Q,
    gen_spectrum,
    hp_error_order,
    jacobi_perron,
    multi_index,
    orthogonality_second_kind,
    orthogonality_with_psi_zeros,
    psi_zeros,
    ratio_rate,
    widom_psi,
    zeros_Q,
    bnk,
)
from symlab import asymptotics
from symlab.asymptotics import (
    _LATTICE, ToeplitzSection, _prefactor, _psi_scaled, _scan_ray, _widom_terms,
)
from symlab.branches import solve_grid
from symlab.cubic import CubicParams, cubic_build
from symlab.errors import CountMismatch, DivisionBlowup, NearBranchPoint, OnCut, TailDivergence
from symlab.rootfind import newton_bracketed
from symlab.verify import _offcut_box

PROBES = [10 + 5j, -20 + 3j, 2 - 8j, -9 - 2j]


def test_widom_l0_is_Q(can, cheb):
    for sym in (can, cheb):
        for n in (0, 1, 5, 12, 20):
            for lam in PROBES:
                got = widom_psi(sym, n, 0, lam)
                want = eval_Q(sym, n, lam)
                assert got == pytest.approx(want, rel=1e-9)


def test_widom_top_level_closed_form(can):
    # at l = p the sum collapses to a single branch power
    for n in (2, 4, 8):
        for lam in PROBES:
            z2 = solve_grid(can, [lam])[0, 2]
            want = -1.0 / (3.0 * z2 ** (n + 1))
            assert widom_psi(can, n, 2, lam) == pytest.approx(want, rel=1e-12)


def _widom_terms_reference(z, l, powers):
    """One row's Widom sum by the scalar loop: np.delete, np.prod, +=."""
    sub = z[l:]
    total = 0.0 + 0.0j
    for j in range(sub.size):
        diff = np.delete(sub, j) - sub[j]
        total += powers[j] / np.prod(diff) if diff.size else powers[j]
    return total


@pytest.mark.parametrize("coeffs", [(0.0, 0.25), (0.0, 7.0, 3.0), (0.0, 9.99, 6.545, 0.74)])
def test_widom_terms_match_row_loop(coeffs):
    sym = build_symbol(len(coeffs) - 1, coeffs)
    lams = np.array([*PROBES, -31.5, -2.25, 0.375, 12.0, 80.0])
    z = solve_grid(sym, lams)
    for l in range(sym.p + 1):
        for n in (0, 1, 8, 40):
            for powers in (z[:, l:] ** (-(n + 1)),
                           (np.abs(z[:, l:l + 1]) / z[:, l:]) ** (n + 1)):
                got = _widom_terms(z, l, powers)
                want = np.array([_widom_terms_reference(z[i], l, powers[i])
                                 for i in range(len(lams))])
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            for lam in PROBES:
                zl = solve_grid(sym, [lam])[0]
                powers = zl[l:] ** (-(n + 1))
                want = _prefactor(sym) * _widom_terms_reference(zl, l, powers)
                assert np.complex128(widom_psi(sym, n, l, lam)).tobytes() == want.tobytes()


def test_hp_error_orders(can):
    grid = np.geomspace(1e3, 1e6, 10)
    for n in (4, 7):
        comps = multi_index(n, 2).components
        for j in (1, 2):
            slope = hp_error_order(can, n, j, grid)
            assert slope == pytest.approx(-(comps[j - 1] + 1), abs=0.05)


def test_ratio_rate_bounded_by_phi(can, can_struct):
    probe = 10 + 5j
    rate = ratio_rate(can, 2, [probe], 40)
    assert rate[0] <= abs(conformal_map(can_struct.cut(1), probe)) + 0.02


def test_hp_error_orders_at_depth(can, cheb):
    # the two terms cancel (n - j + n_j + 1) * 6 digits at lambda = 1e6,
    # more than (n + 2) * 6 + 40 digits hold
    grid = np.geomspace(1e3, 1e6, 10)
    assert hp_error_order(can, 30, 2, grid) == pytest.approx(-16, abs=0.1)
    assert hp_error_order(cheb, 40, 1, grid) == pytest.approx(-41, abs=0.05)


def test_hp_error_order_refuses_undefined_z0(cheb):
    # (0, 1e12) has Gamma_1 = [-2e6, 2e6], so z0 is one of a conjugate pair
    with pytest.raises(OnCut):
        hp_error_order(build_symbol(1, (0.0, 1e12)), 3, 1, np.geomspace(1e3, 1e6, 10))
    # lambda = 1 is the branch point of (0, 1/4): z0 = z1 = 2
    with pytest.raises(NearBranchPoint):
        hp_error_order(cheb, 2, 1, [1.0, 10.0, 100.0])


@pytest.mark.parametrize("grid", [[-5.0, -6.0, -7.0], [1e3], [1e3, 1e3],
                                  [1e3, math.inf], [1e3, math.nan], [0.0, 1e3]])
def test_hp_error_order_refuses_bad_grid(can, grid, capfd):
    # refused before any solve: a log fit over these would read nan logs
    # and end in LAPACK's own complaint on stderr
    with pytest.raises(ValueError, match="grid"):
        hp_error_order(can, 5, 1, grid)
    assert capfd.readouterr().err == ""


def test_ratio_rate_resolves_every_probe(can):
    # at 60 digits the difference at this desk probe is exactly 0; 120 and
    # 240 digits agree on rate 0.0853177...
    probe = _offcut_box(can, 10, 0.5)[3]
    rate = ratio_rate(can, 1, [probe], 40)[0]
    assert rate == pytest.approx(0.08531770502229279, rel=1e-12)


def _admissible_symbol(draw):
    if draw(st.booleans()):
        a0 = draw(st.floats(-3.0, 3.0))
        a1 = 10.0 ** draw(st.floats(-3.0, 3.0))
        return build_symbol(1, (a0, a1))
    s = 10.0 ** draw(st.floats(-1.0, 1.0))
    sym, _ = cubic_build(CubicParams(x1=-s * draw(st.floats(1.5, 8.0)), x2=-s))
    return sym


def _oracle_fits(sym, n, j, lams):
    """log10|Q_n z0^j - Q_{n-j}| and the ratio rate at each lambda, by mpmath:
    exact Q tables, z0 the smallest root of z (a(z) - lam) by polyroots."""
    seq = gen_Q(sym, n)
    nj = multi_index(n, sym.p).components[j - 1]

    def q(m, lam):
        acc = mp.mpf(0)
        for c in reversed(seq.poly(m)):
            acc = acc * lam + mp.mpf(c.numerator) / c.denominator
        return acc

    logs, rates = [], []
    with mp.workdps(400):
        for lam in lams:
            lam = mp.mpmathify(complex(lam))
            # z (a(z) - lam) = a_p z^{p+1} + ... + a_1 z^2 + (a_0 - lam) z + 1
            coeffs = [mp.mpf(sym.a[k]) for k in range(sym.p, 0, -1)]
            coeffs += [mp.mpf(sym.a[0]) - lam, mp.mpf(1)]
            z0 = min(mp.polyroots(coeffs, maxsteps=200, extraprec=200), key=abs)
            qn = q(n, lam)
            diff = abs(qn * z0 ** j - q(n - j, lam))
            logs.append(float(mp.log10(diff)))
            rates.append(float(mp.root(diff / abs(qn), n + nj)))
    return np.array(logs), np.array(rates)


@settings(deadline=None, max_examples=10, derandomize=True, database=None)
@given(data=st.data())
def test_fits_match_mpmath_oracle(data):
    sym = _admissible_symbol(data.draw)
    n = data.draw(st.integers(1, 8))
    grid = np.geomspace(1e3, 1e6, 10)
    probes = _offcut_box(sym, 4, 0.05 * critical_structure(sym).cut(1).scale())
    for j in range(1, min(n, sym.p) + 1):
        logs, _ = _oracle_fits(sym, n, j, grid)
        want = np.polyfit(np.log10(grid), logs, 1)[0]
        assert hp_error_order(sym, n, j, grid) == pytest.approx(want, abs=1e-3)
        _, want = _oracle_fits(sym, n, j, probes)
        np.testing.assert_allclose(ratio_rate(sym, j, probes, n), want, rtol=1e-12)


@pytest.mark.parametrize("n", [300, 1000])
def test_ratio_rate_at_depth(can, cheb, n):
    # verify's bound at depth, where 60-digit arithmetic on the Q tables
    # reads noise (rates up to 0.999 at n = 300)
    for sym in (can, cheb):
        probes = _offcut_box(sym, 10, 0.5)
        g1 = critical_structure(sym).cut(1)
        bound = np.abs([conformal_map(g1, lam) for lam in probes]) + 0.02
        for j in range(1, sym.p + 1):
            rates = ratio_rate(sym, j, probes, n)
            assert np.all(np.isfinite(rates)) and np.all(rates <= bound)


def test_psi_zeros_frozen(can):
    zs6 = psi_zeros(can, None, 6)
    np.testing.assert_allclose(
        zs6, [-81.68703885, -10.28337883, -5.57126475], atol=1e-6
    )
    zs10 = psi_zeros(can, None, 10)
    assert zs10.size == 5
    np.testing.assert_allclose(
        zs10,
        [-200.78601193, -23.081499, -9.36969971, -6.1145826, -5.18987352],
        atol=1e-6,
    )


def test_psi_zeros_count_matches_tail_index(can):
    for n in (6, 8, 12):
        want = sum(multi_index(n, 2).components[1:])
        assert psi_zeros(can, None, n).size == want


# ---- the psi_zeros scan against the doubling scan from the smallest radius ----

def _doubling_scan(f, fdf, cut, inner, want):
    """The ray scan from reach 0: radii 4 scale 2^j from j = 0, each one's
    lattice signed afresh, the brackets closed by the same refiner."""
    outer = 4.0 * cut.scale()
    toward = -1.0 if math.isinf(cut.lo) else 1.0
    for _ in range(24):
        j = np.arange(math.ceil(_LATTICE * math.log10(outer / inner)) + 1)
        xs = cut.finite_end + toward * (inner * 10.0 ** (j / _LATTICE))
        signs = np.sign(f(xs))
        idx = np.flatnonzero(signs[:-1] * signs[1:] < 0)
        assert idx.size <= want, f"found {idx.size} zeros, expected {want}"
        inside = idx.size > 0 and abs(xs[idx[-1] + 1] - cut.finite_end) < 0.8 * outer
        if inside and idx.size == want:
            return np.sort(newton_bracketed(fdf, xs[idx], xs[idx + 1], signs[idx]))
        outer *= 2.0
    pytest.fail("the doubling scan did not stabilize")


def _psi_zeros_reference(sym, n):
    cut = critical_structure(sym).cut(2)
    want = int(np.sum(multi_index(n, sym.p).components[1:]))
    if want == 0:
        return np.array([])
    value, value_step = _psi_scaled(sym, n)
    return _doubling_scan(value, value_step, cut, 1e-3 * cut.scale() / (n + 1) ** 2, want)


@pytest.fixture(scope="module")
def solve_memo():
    return {}


@pytest.fixture
def shared_solves(monkeypatch, solve_memo):
    """Branch solves memoised row by row, by symbol and lambda bytes.

    A row's roots do not depend on its batch, so a hit returns the bytes a
    fresh solve would; the reference scans, and later tests on the same
    symbols, pay only for the rows not yet solved.  Returns the list of
    every lambda array asked for.
    """
    solved = []

    def solve(sym, lams):
        lams = np.asarray(lams).ravel()
        solved.append(lams)
        keys = [(sym.a, lam.tobytes()) for lam in lams]
        miss = [i for i, key in enumerate(keys) if key not in solve_memo]
        if miss:
            for i, row in zip(miss, solve_grid(sym, lams[miss])):
                solve_memo[keys[i]] = row
        return np.array([solve_memo[key] for key in keys]).reshape(lams.size, sym.p + 1)

    monkeypatch.setattr(asymptotics, "solve_grid", solve)
    return solved


def _solved_once(solved):
    """The number of lambda solved, after checking that none was solved twice."""
    lams = np.concatenate(solved) if solved else np.empty(0)
    assert np.unique(lams).size == lams.size
    return lams.size


def _cubic16():
    # s in [0.1, 10] crossed with rho in [1.5, 8]: x = (-s rho, -s)
    return [cubic_build(CubicParams(-s * r, -s))[0].a
            for s in np.geomspace(0.1, 10.0, 4) for r in np.geomspace(1.5, 8.0, 4)]


P3_SYMBOLS = [(0.0, 9.99, 6.545, 0.74), (-14.1648, 446.5721, 58.0789, 0.1686)]
CERTIFIED = ([((0.0, 7.0, 3.0), range(1, 61))]
             + [(a, (4, 20, 60)) for a in _cubic16()]
             + [(a, (20,)) for a in P3_SYMBOLS])


@pytest.mark.parametrize("a, ns", CERTIFIED)
def test_psi_zeros_match_doubling_scan(a, ns, shared_solves):
    sym = build_symbol(len(a) - 1, a)
    for n in ns:
        got = psi_zeros(sym, None, n)
        want = _psi_zeros_reference(sym, n)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_psi_zeros_over_prediction_changes_no_bit(can, shared_solves, monkeypatch):
    # a reach 10-20 times the true one starts the scan past the outermost
    # zero: the lattice is the same, so are the brackets, and nothing rescans
    monkeypatch.setattr(asymptotics, "_PSI_REACH", 4.0)
    sym2 = build_symbol(2, _cubic16()[5])
    for sym, n in ((can, 6), (can, 20), (can, 60), (sym2, 20)):
        shared_solves.clear()
        got = psi_zeros(sym, None, n)
        _solved_once(shared_solves)
        assert got.tobytes() == _psi_zeros_reference(sym, n).tobytes()


@pytest.mark.parametrize("a, n, rows", [
    ((0.0, 7.0, 3.0), 20, 800),
    ((0.0, 7.0, 3.0), 21, 750),  # odd n: the outermost zero lies far inside the reach
    ((0.0, 7.0, 3.0), 40, 950),
    ((0.0, 7.0, 3.0), 60, 1075),
    # the reach falls three decades short: ten doublings, 27 new points each
    ((-14.1648, 446.5721, 58.0789, 0.1686), 20, 1075),
], ids=["can-20", "can-21", "can-40", "can-60", "p3-20"])
def test_psi_zeros_solves_each_point_once(a, n, rows, shared_solves):
    # scan and Newton rows together; a fresh grid per radius and bisection
    # solved 3,780, 3,690, 6,210, 8,550 and 12,555 rows here
    psi_zeros(build_symbol(len(a) - 1, a), None, n)
    assert _solved_once(shared_solves) <= rows


def _changes_sign_around(f, roots, ulps=8):
    """Per root r, whether f has opposite signs at r - k and r + k ulps for
    some k <= ulps: a sign change within `ulps` either side, which rounding
    noise in f cannot fake at every k at once."""
    left, right = [roots], [roots]
    for _ in range(ulps):
        left.append(np.nextafter(left[-1], -np.inf))
        right.append(np.nextafter(right[-1], np.inf))
    signs = np.sign(f(np.concatenate(left[1:] + right[1:]))).reshape(2, ulps, -1)
    return np.any(signs[0] * signs[1] < 0, axis=0)


@pytest.mark.parametrize("a, ns", CERTIFIED)
def test_roots_change_sign_within_8_ulps(a, ns, shared_solves):
    # every Psi_{n,1} zero and every P_{n,1} root between them; the worst
    # need 5 and 3 ulps, bisection's needed 4 and 2
    sym = build_symbol(len(a) - 1, a)
    for n in ns:
        value, _ = _psi_scaled(sym, n)
        zs = psi_zeros(sym, None, n)
        assert np.all(_changes_sign_around(value, zs)), n
        rep = gen_spectrum(sym, n, 1)
        sign = lambda x: ToeplitzSection(n=n - 1, k=1, sym=sym).det_step(x)[0]
        assert np.all(_changes_sign_around(sign, rep.roots)), n


def test_gen_spectrum_k1_where_determinants_overflow(can):
    # (0,7,3) with lambda scaled by 2^26: 7 of the 10 determinants at the
    # Psi_{20,1} zeros overflow, while the roots are those of (0,7,3) scaled
    c = 2.0 ** -26
    sym = build_symbol(2, (0.0, 7.0 / c**2, 3.0 / c**3))
    rep = gen_spectrum(sym, 20, 1)
    with np.errstate(over="ignore"):
        dets = ToeplitzSection(n=19, k=1, sym=sym).det(rep.psi_zeros)
    assert 0 < np.sum(np.isinf(dets)) < dets.size
    assert rep.roots.size == sum(multi_index(20, 2).components[1:]) - 1
    assert np.all((rep.psi_zeros[:-1] < rep.roots) & (rep.roots < rep.psi_zeros[1:]))
    np.testing.assert_allclose(rep.roots * c, gen_spectrum(can, 20, 1).roots, rtol=1e-14)


def test_det_step_is_the_jacobi_ratio(can):
    # P/P' against a central difference of log|P|, at points off the roots
    sec = ToeplitzSection(n=9, k=1, sym=can)
    lams = np.array([-80.0, -30.0, -9.0, -6.0])
    sign, step = sec.det_step(lams)
    h = 1e-6 * np.abs(lams)
    dlog = (np.log(np.abs(sec.det(lams + h))) - np.log(np.abs(sec.det(lams - h)))) / (2 * h)
    np.testing.assert_array_equal(sign, np.sign(sec.det(lams)))
    np.testing.assert_allclose(1.0 / step, dlog, rtol=1e-7)


# ---- the scan's refusals, on a synthetic f ----

def _line(roots):
    """f(x) = prod (x - r) on a real array, with its Newton step."""
    roots = np.asarray(roots)

    def f(x):
        return np.prod(x[:, None] - roots, axis=1)

    def fdf(x):
        with np.errstate(divide="ignore"):  # at a root: step 0
            return f(x), 1.0 / np.sum(1.0 / (x[:, None] - roots), axis=1)

    return f, fdf


def test_scan_ray_finds_the_synthetic_roots(can_struct):
    cut = can_struct.cut(2)  # the ray (-inf, -4.75]
    e = cut.finite_end
    want = np.array([e - 310.0, e - 2.1, e - 1.3e-3])  # none on the lattice
    f, fdf = _line(want)
    got = _scan_ray(f, fdf, cut, 1e-6, 3)
    np.testing.assert_allclose(got, want, rtol=1e-15)


def test_scan_ray_refuses_too_many_changes(can_struct):
    cut = can_struct.cut(2)
    f, fdf = _line(cut.finite_end - np.array([1.1, 2.1, 3.1]))
    with pytest.raises(CountMismatch, match="found 3 zeros, expected 2"):
        _scan_ray(f, fdf, cut, 1e-6, 2)


def test_scan_ray_refuses_a_count_that_never_settles(can_struct):
    # two zeros where three are wanted: no radius ever shows the count
    cut = can_struct.cut(2)
    f, fdf = _line(cut.finite_end - np.array([1.1, 2.1]))
    with pytest.raises(CountMismatch, match="did not stabilize"):
        _scan_ray(f, fdf, cut, 1e-6, 3)


def test_gen_spectrum_k0_is_zeros(can):
    rep = gen_spectrum(can, 6, 0)
    np.testing.assert_array_equal(rep.roots, zeros_Q(can, 6))
    assert rep.k == 0 and rep.n == 6 and rep.psi_zeros is None


def test_gen_spectrum_k1_frozen(can):
    rep = gen_spectrum(can, 10, 1)
    np.testing.assert_allclose(
        rep.roots, [-42.21537375, -11.6480291, -6.55574882, -5.25703881], atol=1e-6
    )
    assert rep.hausdorff_to_cut == pytest.approx(15.2606823, abs=1e-5)


def test_gen_spectrum_k1_count_and_interlace(can):
    for n in (10, 12):
        rep = gen_spectrum(can, n, 1)
        want = sum(multi_index(n, 2).components[1:]) - 1
        assert rep.roots.size == want
        zs = psi_zeros(can, None, n)
        assert rep.psi_zeros.tobytes() == zs.tobytes()  # the brackets it used
        # each root sits strictly between consecutive second-kind zeros
        for i, r in enumerate(rep.roots):
            assert zs[i] < r < zs[i + 1]


def test_gen_spectrum_k1_low_degree(can):
    # N_{n,1} - 1 <= 0: P_{n,1} has degree <= 0 for n <= 1, and P_{2,1} = a_1
    for n in (0, 1, 2):
        rep = gen_spectrum(can, n, 1)
        assert rep.roots.size == 0


def test_gen_spectrum_k2_ray_scan():
    # p = 3 from critical points (-2, -1.5, -0.2, 3.7): k = 2 scans cut 3
    sym = build_symbol(3, (0.0, 9.99, 6.545, 0.74))
    rep = gen_spectrum(sym, 12, 2)
    np.testing.assert_allclose(rep.roots, [31.77227539, 104.71317973], atol=1e-6)


def test_gen_spectrum_k2_constant_sections():
    # for n <= 2k no entry of the size n - k section holds lambda: P_{n,2}
    # is 1 on the empty sections (n <= 2), a_2 at n = 3 and a_2^2 - a_1 a_3
    # at n = 4, so there are no roots; P_{5,2} is linear, one root
    sym = build_symbol(3, (0.0, 9.99, 6.545, 0.74))
    for n in range(5):
        rep = gen_spectrum(sym, n, 2)
        assert (rep.k, rep.n) == (2, n) and rep.roots.shape == (0,)
        assert rep.hausdorff_to_cut == 0.0 and rep.psi_zeros is None
    sec = ToeplitzSection(n=2, k=2, sym=sym)
    assert sec.det(-7.0) == sec.det(300.0) == pytest.approx(6.545**2 - 9.99 * 0.74)
    assert gen_spectrum(sym, 5, 2).roots.size == 1


def test_first_shifted_section_is_constant(can):
    # the 1x1 shifted section is the entry a_1, so P_{2,1} has no roots
    sec = ToeplitzSection(n=1, k=1, sym=can)
    assert sec.det(-10.0) == pytest.approx(7.0)
    assert sec.det(-30.0) == pytest.approx(7.0)


@pytest.mark.parametrize("n", [0, 1, 19, 59])
@pytest.mark.parametrize("lam", [3.7, 2 + 0.5j])
def test_section_matrix_entries(can, n, lam):
    # entry (i, j) = a_{i+k-j} with a_{-1} = 1, minus lam where i + k = j
    k = 1
    coef = {-1: 1.0, **dict(enumerate(can.a))}
    want = np.zeros((n, n), dtype=np.result_type(float, lam))
    for i in range(n):
        for j in range(n):
            want[i, j] = coef.get(i + k - j, 0.0)
            if i + k == j:
                want[i, j] -= lam
    got = ToeplitzSection(n=n, k=k, sym=can).matrix(lam)
    assert got.dtype == want.dtype
    # byte equality also pins the sign of every zero imaginary part
    assert got.tobytes() == want.tobytes()


def test_section_determinant_complex(can):
    sec = ToeplitzSection(n=4, k=1, sym=can)
    v = sec.det(-12.0 + 1.0j)
    assert isinstance(v, complex) and abs(v.imag) > 0


def test_bnk_proportional_to_section(can, can_sys):
    # B_{n,1} = c * P_{n,1} with c = -integral of mu_1 = -1, fixed sign
    # convention checked through the ratio
    for n in (2, 4, 6):
        sec = ToeplitzSection(n=n - 1, k=1, sym=can)
        vals = []
        for lam in (-12.0, -30.0, -7.5):
            vals.append(bnk(can_sys, n, 1, lam) / sec.det(lam))
        vals = np.asarray(vals)
        np.testing.assert_allclose(vals, 1.0, rtol=1e-9)


def test_orthogonality_second_kind_small(can_sys):
    # integrals against the flat second-cut weight die for low powers
    resid, scale = orthogonality_second_kind(can_sys, 6, 1, 2, 1)
    assert resid.shape == scale.shape == (2,)
    assert np.all(resid < 1e-9 * scale)


def test_orthogonality_second_kind_tail_divergence(can_sys):
    # at the balanced index the nu = n_2 probe integrand genuinely
    # diverges at infinity; the error is the contract, not a fallback
    with pytest.raises(TailDivergence):
        orthogonality_second_kind(can_sys, 6, 1, 2, 3)


def test_orthogonality_with_psi_zeros(can, can_sys):
    zeros = psi_zeros(can, None, 6)
    for nu in range(3):
        resid, scale = orthogonality_with_psi_zeros(can_sys, 6, nu, zeros)
        assert resid < 1e-10 * scale


def test_counting_compare_frozen(cheb):
    roots = gen_spectrum(cheb, 60, 0).roots
    assert counting_compare(cheb, roots, 0) == pytest.approx(0.01642531, abs=1e-6)


def test_counting_compare_decreases(cheb):
    d20 = counting_compare(cheb, gen_spectrum(cheb, 20, 0).roots, 0)
    d60 = counting_compare(cheb, gen_spectrum(cheb, 60, 0).roots, 0)
    assert d60 < d20


def test_jacobi_perron_matches_branch_powers(can):
    for lam in (10 + 5j, -30 + 2j):
        z0 = solve_grid(can, [lam])[0, 0]
        got = jacobi_perron(can, lam, 80)
        assert got[0] == pytest.approx(z0, rel=1e-9)
        assert got[1] == pytest.approx(z0 * z0, rel=1e-9)


@pytest.mark.parametrize("name", ["cheb", "can"])
@pytest.mark.parametrize("depth", [1, 2, 5])
def test_jacobi_perron_at_a0_is_a_division_blowup(name, depth, request):
    # at lam = a_0 the innermost floor's trailing denominator lam - a_0 is
    # exactly zero, whether that floor is a leading one or a tail one
    sym = request.getfixturevalue(name)
    with pytest.raises(DivisionBlowup, match="trailing denominator 0"):
        jacobi_perron(sym, sym.a[0], depth)
