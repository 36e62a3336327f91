"""Batched calls are bit for bit the calls they replace.

Densities, Widom sums and section determinants are evaluated on every
point a caller already knows in one call.  That is exact because each
row of a root solve, and each stacked determinant, does not depend on
the rest of its batch.  Each test keeps the former one-call-per-piece
code as its reference and compares bytes.  The same independence makes
the `pair_minus` memo exact: its values are compared with direct solves
on an equal symbol built anew.
"""

import math

import numpy as np
import pytest

from symlab import (
    build_fixed_rule,
    build_symbol,
    build_system,
    critical_structure,
    integrate,
    mu_density,
    pair_minus,
    rho_density,
    rho_measure,
    s_density,
    s_measure,
    widom_psi,
)
from symlab import branches
from symlab.asymptotics import ToeplitzSection
from symlab.branches import _solve_pair_minus, solve_grid
from symlab.cubic import CubicParams
from symlab.errors import NoConvergence, NonIntegrable, NotInCut, SymlabError
from symlab.quadrature import _H0, _check_integrable, _pieces_for
from symlab.verify import (
    check_cubic,
    check_mass,
    check_mu_moments,
    check_orthogonality,
    check_psi_p_closed_form,
)

SYMBOLS = [(0.0, 0.25), (0.0, 7.0, 3.0), (0.0, 9.99, 6.545, 0.74)]
PROBES = [10 + 5j, -20 + 3j, 2 - 8j, -9 - 2j, 0.375 + 1e-9j, -31.5, 80.0]


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _nodes(sym, k, levels=4):
    """Tanh-sinh nodes of levels 0..levels-1 on cut k, as the densities meet them."""
    piece = _pieces_for(s_measure(sym, k))[0]
    scale = critical_structure(sym).cut(k).scale()
    return np.concatenate([piece.nodes(lv, scale)[0] for lv in range(levels)])


def _cut_nodes(sym, levels=4):
    """Tanh-sinh nodes of every cut plus probes."""
    xs = [_nodes(sym, k, levels) for k in range(1, sym.p + 1)]
    return np.concatenate([*xs, PROBES])


def _solve_alone(sym, lam):
    try:
        return solve_grid(sym, [lam])[0]
    except SymlabError:
        return None


@pytest.mark.parametrize("coeffs", SYMBOLS)
def test_solve_grid_rows_ignore_their_batch(coeffs):
    sym = build_symbol(len(coeffs) - 1, coeffs)
    lams = _cut_nodes(sym)
    alone = [_solve_alone(sym, lam) for lam in lams]
    ok = np.array([z is not None for z in alone])
    # a row that fails alone fails any batch it joins: on the p = 3 symbol,
    # the ray nodes past 1e49 (a known far-tail defect of the branch solve)
    for lam in lams[~ok]:
        with pytest.raises(SymlabError):
            solve_grid(sym, np.concatenate([lams[ok][:5], [lam]]))
    assert ok.sum() > 0.99 * lams.size
    lams = lams[ok]
    whole = solve_grid(sym, lams)
    _same_bits(np.array([z for z in alone if z is not None]), whole)
    perm = np.random.default_rng(3).permutation(lams.size)
    _same_bits(solve_grid(sym, lams[perm]), whole[perm])
    for size in (3, 7, 512):
        parts = [solve_grid(sym, lams[s:s + size]) for s in range(0, lams.size, size)]
        _same_bits(np.concatenate(parts), whole)


def _fixed_rule_reference(m, level):
    """build_fixed_rule with one density call per level."""
    piece = _pieces_for(m)[0]
    scale = m.cut.scale()
    xs, ws, marks = [], [], []
    for lv in range(0, level + 1):
        x, jac = piece.nodes(lv, scale)
        w = m.density(x) * jac
        w = np.where(np.isfinite(w), w, 0.0)
        h = _H0 / 2 ** level
        xs.append(x)
        ws.append(w * h)
        marks.append(np.full(x.shape, lv <= level - 1))
    x, w, coarse = np.concatenate(xs), np.concatenate(ws), np.concatenate(marks)
    keep = w != 0.0
    x, w, coarse = x[keep], w[keep], coarse[keep]
    with np.errstate(divide="ignore"):
        logw = np.log(np.abs(w))
    logx = np.log(np.maximum(np.abs(x), 1.0))
    return x, w, coarse, logw, logx


def _measures(can, can_sys):
    # rho_1 on the interval, sigma_2 a product measure, s_2 on the ray
    return [rho_measure(can, 1), can_sys.sigma[1], s_measure(can, 2)]


def test_fixed_rule_one_density_call(can, can_sys):
    for m in _measures(can, can_sys):
        for level in (0, 3, 7):
            rule = build_fixed_rule(m, level=level)
            want = _fixed_rule_reference(m, level)
            for got, ref in zip((rule.x, rule.w, rule.coarse, rule.logw, rule.logx), want):
                _same_bits(got, ref)


def _sum_piece_reference(piece, density, f, f_tail_degree, rel_tol, abs_tol,
                         max_level, scale):
    """The adaptive tanh-sinh sum with one density call per level."""
    total, evals, prev = 0.0 + 0.0j, 0, None
    log_floor = math.log(abs_tol) - 32.0
    for level in range(0, max_level + 1):
        x, jac = piece.nodes(level, scale)
        w = density(x) * jac
        w = np.where(np.isfinite(w), w, 0.0)
        if f is None:
            fv = np.ones_like(x)
        else:
            absw = np.abs(w)
            with np.errstate(divide="ignore"):
                logc = np.log(np.where(absw > 0, absw, 1e-320))
            logc = logc + f_tail_degree * np.log(np.maximum(np.abs(x), 1.0))
            keep = (absw > 0) & (logc > log_floor)
            fv = np.zeros(x.shape, dtype=complex)
            if keep.any():
                fv[keep] = f(x[keep])
            w = np.where(keep, w, 0.0)
        evals += x.size
        terms = w * fv
        terms = np.where(np.isfinite(terms), terms, 0.0)
        h = _H0 / 2 ** level
        total = h * terms.sum() if level == 0 else 0.5 * total + h * terms.sum()
        if level >= 2 and prev is not None:
            err = abs(total - prev)
            if err <= max(rel_tol * abs(total), abs_tol):
                return total, err, level, evals
        prev = total
    err = abs(total - prev) if prev is not None else math.inf
    if err <= max(10.0 * rel_tol * abs(total), 10.0 * abs_tol):
        return total, err, max_level, evals
    raise NoConvergence("reference stalled")


def _integrate_reference(m, f=None, f_tail_degree=0.0, max_level=10):
    _check_integrable(m, f_tail_degree)
    value, err, levels, evals = _sum_piece_reference(
        _pieces_for(m)[0], m.density, f, f_tail_degree, 1e-10, 1e-14,
        max_level, m.cut.scale())
    return (value.real if abs(value.imag) == 0.0 else value), err, levels, evals


def test_integrate_levels_0_to_2_in_one_call(can, can_sys):
    cases = [(None, 0.0), (lambda x: x * x, 2.0), (lambda x: 1.0 / (30.0 - x), -1.0)]
    for m in _measures(can, can_sys):
        for f, deg in cases:
            for max_level in (1, 2, 10):  # fewer than three levels, exactly three, more
                try:
                    want = _integrate_reference(m, f, deg, max_level)
                except (NoConvergence, NonIntegrable) as exc:
                    with pytest.raises(type(exc)):
                        integrate(m, f, f_tail_degree=deg, max_level=max_level)
                    continue
                got = integrate(m, f, f_tail_degree=deg, max_level=max_level)
                _same_bits(got.value, want[0])
                assert (got.error, got.levels, got.evals) == want[1:]


@pytest.mark.parametrize("coeffs", SYMBOLS)
def test_widom_psi_array_matches_points(coeffs):
    sym = build_symbol(len(coeffs) - 1, coeffs)
    lams = np.array(PROBES, dtype=complex)
    for l in range(sym.p + 1):
        for n in (0, 1, 8, 20):
            got = widom_psi(sym, n, l, lams)
            _same_bits(got, np.array([widom_psi(sym, n, l, lam) for lam in lams]))
            _same_bits(widom_psi(sym, n, l, lams.reshape(7, 1)), got.reshape(7, 1))
    assert np.ndim(widom_psi(sym, 3, 0, PROBES[0])) == 0
    assert widom_psi(sym, 3, 0, np.array([], dtype=complex)).shape == (0,)


def _det_reference(sec, lam):
    """ToeplitzSection.det of one lambda: one 2-d slogdet."""
    if sec.n == 0:
        return 1.0
    sign, logdet = np.linalg.slogdet(sec.matrix(lam))
    val = sign * np.exp(logdet)
    return float(val.real) if np.isrealobj(val) else complex(val)


@pytest.mark.parametrize("n", [0, 1, 2, 9, 30, 59])
def test_section_det_array_matches_points(can, n):
    rng = np.random.default_rng(n)
    real = rng.uniform(-40.0, 20.0, 997)  # 997 > one block of 59 x 59 matrices
    cplx = real[:50] + 1j * rng.uniform(-5.0, 5.0, 50)
    sec = ToeplitzSection(n=n, k=1, sym=can)
    for lams in (real, cplx):
        want = np.array([_det_reference(sec, v) for v in lams])
        _same_bits(sec.det(lams), want)
        _same_bits(sec.det(lams[:12].reshape(3, 4)), want[:12].reshape(3, 4))
        for v, w in zip(lams[:5], want):
            got = sec.det(v)
            assert type(got) is type(_det_reference(sec, v))
            _same_bits(got, w)
    assert sec.det(np.array([])).shape == (0,)


def test_section_det_degenerate_sizes(can):
    # P_{n,1} at n <= 1 runs on no brackets at all: size 0 or -1 sections
    assert ToeplitzSection(n=-1, k=1, sym=can).det(np.array([])).shape == (0,)
    assert ToeplitzSection(n=0, k=1, sym=can).det(-3.0 + 1j) == 1.0
    _same_bits(ToeplitzSection(n=0, k=1, sym=can).det(np.array([1.0, 2.0])), np.ones(2))


def test_check_cubic_reuses_the_suite_structure(can):
    # on the suite symbol, whose structure holds branch values, and on the
    # equal symbol that cubic_build makes anew
    params = CubicParams(-2.0, -1.0)
    assert check_cubic(params, can) == check_cubic(params)


# ---- the pair_minus memo: each cut node solved once per symbol ----

def _anew(sym):
    """An equal symbol built separately: its structure and memo start empty."""
    return build_symbol(sym.p, sym.a)


def _fresh(sym, k, xs):
    """z_{k-1,-}(x) solved directly on an equal symbol, no memo involved."""
    return _solve_pair_minus(_anew(sym), k, np.asarray(xs, dtype=float))


def _grid_rows(monkeypatch):
    """Count the real-lambda rows branches.solve_grid is asked to solve."""
    rows = []
    orig = branches.solve_grid

    def counted(sym, lams):
        if np.isrealobj(lams):  # boundary_values passes complex x - i eps
            rows.append(np.size(lams))
        return orig(sym, lams)

    monkeypatch.setattr(branches, "solve_grid", counted)
    return rows


@pytest.mark.parametrize("coeffs", SYMBOLS[:2])
def test_warm_memo_matches_fresh_solves(coeffs):
    sym = build_symbol(len(coeffs) - 1, coeffs)
    warm = critical_structure(sym)
    sys = build_system(sym)
    # every density the verify suite evaluates on a symbol's structure
    checks = [check_mass(sym), check_mu_moments(sys), check_orthogonality(sys)]
    if sym.p >= 2:
        checks.append(check_psi_p_closed_form(sys))
    assert all(c.passed for c in checks)
    assert sorted(warm.pair_memo) == list(range(1, sym.p + 1))
    fresh = critical_structure(_anew(sym))
    assert warm == fresh and repr(warm) == repr(fresh) and fresh is not warm
    for k in range(1, sym.p + 1):
        keys, vals = warm.pair_memo[k]
        assert keys.dtype == np.int64 and vals.dtype == complex
        assert np.all(np.diff(keys) > 0)
        _same_bits(vals, _fresh(sym, k, keys.view(float)))
        xs = _nodes(sym, k, levels=6)
        _same_bits(pair_minus(sym, k, xs), _fresh(sym, k, xs))
        _same_bits(s_density(sym, k, xs), s_density(_anew(sym), k, xs))
        _same_bits(rho_density(sym, k, xs), rho_density(_anew(sym), k, xs))
    xs = _nodes(sym, 1, levels=6)
    for m in range(1, sym.p + 1):
        _same_bits(mu_density(sym, m, xs), mu_density(_anew(sym), m, xs))


@pytest.mark.parametrize("coeffs, k", [((0.0, 7.0, 3.0), 1), ((0.0, 7.0, 3.0), 2),
                                       ((0.0, 0.25), 1)])
def test_pair_minus_memo_on_overlapping_calls(coeffs, k, monkeypatch):
    sym = build_symbol(len(coeffs) - 1, coeffs)
    struct = critical_structure(sym)
    xs = _nodes(sym, k)
    n = xs.size
    rng = np.random.default_rng(k)
    calls = [
        xs[: n // 2],                        # first half
        xs[n // 4:],                         # overlaps the first call
        rng.permutation(xs),                 # all known, permuted
        np.repeat(xs[::5], 3),               # repeats
        np.concatenate([xs[::-7], xs[:3]]),  # reversed, repeated across calls
    ]
    rows = _grid_rows(monkeypatch)
    seen = set()
    for x in calls:
        want = _fresh(sym, k, x)
        rows.clear()
        _same_bits(pair_minus(sym, k, x), want)
        new = set(x.view(np.int64)) - seen
        assert sum(rows) == len(new)  # only the unique misses are solved
        seen |= new
        keys, _ = struct.pair_memo[k]
        assert set(keys) == seen and keys.size == len(seen)
    assert pair_minus(sym, k, np.empty(0)).shape == (0,)


# Two level-5 tanh-sinh nodes on the ray cut 2 of a p = 3 symbol where the
# conjugate-pair shortcut fails and the boundary_values fallback succeeds.
P3 = (0.0, 9.99, 6.545, 0.74)
FALLBACK_X = np.array([-6.102356660690293e+56, -3.8777070819507954e+58])


def test_pair_minus_memo_keeps_fallback_rows(monkeypatch):
    sym = build_symbol(3, P3)
    xs = np.concatenate([_nodes(sym, 2, levels=2), FALLBACK_X])
    want = _fresh(sym, 2, xs)
    fallback = []
    orig = branches.boundary_values

    def recorded(sym, k, x):
        fallback.append(x)
        return orig(sym, k, x)

    monkeypatch.setattr(branches, "boundary_values", recorded)
    got = pair_minus(sym, 2, xs)
    _same_bits(got, want)
    # the two fallback rows and nothing else: the pair's member is picked per node
    assert sorted(fallback) == sorted(FALLBACK_X)
    fallback.clear()
    rows = _grid_rows(monkeypatch)
    _same_bits(pair_minus(sym, 2, xs[::-1]), got[::-1])
    assert fallback == [] and rows == []


def test_pair_minus_memo_is_per_cut():
    # a symbol of its own: the session symbol's held memo is shared
    can = build_symbol(2, (0.0, 7.0, 3.0))
    struct = critical_structure(can)
    x1, x2 = _nodes(can, 1, levels=3), _nodes(can, 2, levels=3)
    pair_minus(can, 1, x1)
    # cut 1's values must not answer for cut 2: its nodes are not in cut 2
    with pytest.raises(NotInCut):
        pair_minus(can, 2, x1[:4])
    assert sorted(struct.pair_memo) == [1]  # a failed solve stores nothing
    _same_bits(pair_minus(can, 2, x2), _fresh(can, 2, x2))
    for k, x in ((1, x1), (2, x2)):
        _same_bits(struct.pair_memo[k][0], np.unique(x.view(np.int64)))


def test_pair_minus_memo_keys_are_bit_patterns():
    cheb = build_symbol(1, (0.0, 0.25))
    struct = critical_structure(cheb)
    pos = pair_minus(cheb, 1, np.array([0.0]))
    neg = pair_minus(cheb, 1, np.array([-0.0]))
    assert struct.pair_memo[1][0].size == 2  # -0.0 is a key of its own
    _same_bits(pos, _fresh(cheb, 1, [0.0]))
    _same_bits(neg, _fresh(cheb, 1, [-0.0]))
    _same_bits(pair_minus(cheb, 1, np.array([-0.0, 0.0, -0.0])),
               np.concatenate([neg, pos, neg]))
    assert struct.pair_memo[1][0].size == 2


def test_default_structure_solves_each_node_once(monkeypatch):
    # build_system and s_1 reach the memo the symbol holds: every row
    # solved is a distinct node stored there
    sym = build_symbol(2, (0.0, 7.0, 3.0))
    rows = _grid_rows(monkeypatch)
    build_system(sym)
    before = sum(rows)
    assert integrate(s_measure(sym, 1)).value == pytest.approx(1.0, abs=1e-9)
    memo = critical_structure(sym).pair_memo
    assert before > 0
    assert sum(rows) == sum(keys.size for keys, _ in memo.values())
