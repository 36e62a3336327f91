"""Desk-scale verification suite.

Each check mirrors one acceptance criterion: it exercises the full
pipeline on the canonical symbols (or on a user symbol where the
statement is generic) and reports the worst measured quantity against
the stated bound.  `run_suite` collects the applicable checks for one
symbol; the test suite runs the canonical roster verbatim.
"""

from dataclasses import dataclass

import numpy as np

from .asymptotics import (
    ToeplitzSection,
    bnk,
    counting_compare,
    gen_spectrum,
    hp_error_order,
    psi_zeros,
    ratio_rate,
    widom_psi,
)
from .branches import (
    conformal_map,
    jacobi_perron,
    rho_density,
    s_measure,
    solve_grid,
)
from .cubic import CubicParams, cubic_build, cubic_rho1_density, cubic_rho2_density
from .nikishin import (NikishinSystem, build_system, orthogonality_residual,
                       orthogonality_second_kind, orthogonality_with_psi_zeros,
                       psi_values)
# zeros_Q stays bound here: perfbench's tracer test wraps and calls verify.zeros_Q
from .polyseq import eval_Q, gen_Q, moments, multi_index, zeros_Q, zeros_Q_levels  # noqa: F401
from .quadrature import MeasureHandle, cauchy_transform, integrate
from .symbol import (
    CriticalStructure,
    SymbolCoeffs,
    build_symbol,
    critical_structure,
    eval_symbol,
)

CHEB = (0.0, 0.25)
CAN = (0.0, 7.0, 3.0)
CAN_PARAMS = CubicParams(-2.0, -1.0)

_SEED = 7


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    bound: float
    detail: str = ""

    def __post_init__(self):
        # numpy scalars sneak in from comparisons; keep the record plain
        self.passed = bool(self.passed)
        self.measured = float(self.measured)
        self.bound = float(self.bound)


def _canonical(sym: SymbolCoeffs, coeffs) -> bool:
    return sym.p == len(coeffs) - 1 and np.allclose(sym.a, coeffs, rtol=0, atol=0)


def _offcut_box(struct: CriticalStructure, count: int, min_dist: float) -> np.ndarray:
    """Deterministic complex probes with dist(lam, Gamma_1) > min_dist."""
    g1 = struct.cut(1)
    s = g1.scale()
    rng = np.random.default_rng(_SEED)
    out = []
    while len(out) < count:
        lam = complex(
            rng.uniform(g1.lo - 2 * s, g1.hi + 2 * s),
            rng.uniform(-2 * s, 2 * s),
        )
        if g1.distance(lam) > min_dist:
            out.append(lam)
    return np.array(out)


def check_widom_l0(sym: SymbolCoeffs, struct: CriticalStructure) -> CheckResult:
    """Full-branch Widom sum reproduces Q_n itself (strongest stack check)."""
    probes = _offcut_box(struct, 50, 0.1)
    # Q_n stays a per-probe scalar: numpy's array complex arithmetic
    # rounds apart from its scalar arithmetic in the last bit
    widom = np.array([widom_psi(sym, n, 0, probes) for n in range(0, 21)])
    worst = 0.0
    for i, lam in enumerate(probes):
        for n in range(0, 21):
            w = widom[n, i]
            q = eval_Q(sym, n, lam)
            worst = max(worst, abs(w - q) / abs(q))
    return CheckResult("widom_l0", worst < 1e-9, worst, 1e-9,
                       "max rel err over 50 probes, n <= 20")


def _ray_safe_probes(struct: CriticalStructure, count: int) -> np.ndarray:
    """Probes at distance > 1 from every cut (deterministic)."""
    rng = np.random.default_rng(_SEED + 1)
    cuts = list(struct.cuts)
    s = struct.cut(1).scale()
    out = []
    while len(out) < count:
        lam = complex(rng.uniform(-3 * s, 3 * s), rng.uniform(-2 * s, 2 * s))
        if all(c.distance(lam) > 1.0 for c in cuts):
            out.append(lam)
    return np.array(out)


def check_psi_p_closed_form(sym: SymbolCoeffs, sys: NikishinSystem) -> CheckResult:
    """Nested quadrature Psi_{n,p} against the one-branch closed form."""
    p = sym.p
    probes = _ray_safe_probes(sys.struct, 10)
    closed = np.array([widom_psi(sym, n, p, probes) for n in range(9)])
    quad = np.array([psi_values(sys, n, p, probes) for n in range(9)])
    worst = float(np.max(np.abs(closed - quad) / np.abs(closed)))
    return CheckResult("psi_p_closed_form", worst < 1e-6, worst, 1e-6,
                       "n <= 8 at 10 probes")


def check_mass(sym: SymbolCoeffs, struct: CriticalStructure) -> CheckResult:
    """s_k masses: 1 on Gamma_1, (p-k+1)/p on the rays."""
    p = sym.p
    worst, bound = 0.0, 1e-8
    details = []
    for k in range(1, p + 1):
        want = (p - k + 1) / p
        got = float(np.real(integrate(s_measure(sym, k, struct)).value))
        err = abs(got - want)
        tol = 1e-8 if k == 1 else 1e-5
        if err / tol > worst / bound:
            worst, bound = err, tol
        details.append(f"s_{k}({'Gamma_' + str(k)}) = {got:.12g}")
    return CheckResult("mass_identities", worst < bound, worst, bound,
                       "; ".join(details))


def check_mu_moments(sym: SymbolCoeffs, sys: NikishinSystem) -> CheckResult:
    """Quadrature moments of mu_k against the exact band functionals."""
    p = sym.p
    mmax = 12
    exact = [[0] * (mmax + 1)] + [moments(sym, j, mmax) for j in range(1, p + 1)]
    worst = 0.0
    for k in range(1, p + 1):
        for m in range(mmax + 1):
            want = float(exact[k][m] - exact[k - 1][m])
            got = float(np.real(integrate(
                sys.mu[k - 1], (lambda x: x**m) if m else None,
                rel_tol=1e-12).value))
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    return CheckResult("mu_moments", worst < 1e-8, worst, 1e-8,
                       f"m <= {mmax}, all k; err relative to max(1, |exact|)")


def check_orthogonality(sym: SymbolCoeffs, sys: NikishinSystem) -> CheckResult:
    """Multiple orthogonality against the sigma chain, n <= 12."""
    seq = gen_Q(sym, 13)
    worst = 0.0
    weakest_probe = np.inf
    for n in range(1, 13):
        ndx = multi_index(n, sym.p)
        qn = seq.as_float(n)
        for j in range(1, sym.p + 1):
            nj = ndx.components[j - 1]
            if nj == 0:
                continue
            resids = []
            for k in range(nj):
                r, s = orthogonality_residual(sys, qn, j, k)
                resids.append(r / s)
            worst = max(worst, max(resids))
            probe, scale = orthogonality_residual(sys, qn, j, nj)
            weakest_probe = min(weakest_probe, (probe / scale) / max(resids))
    passed = worst < 1e-6 and weakest_probe >= 1e3
    return CheckResult("multiple_orthogonality", passed, worst, 1e-6,
                       f"first live moment >= {weakest_probe:.1e}x the residuals")


def check_zeros(sym: SymbolCoeffs, struct: CriticalStructure) -> CheckResult:
    """Zeros strictly interior, exact interlacing; closed form for (0,1/4)."""
    g1 = struct.cut(1)
    levels = zeros_Q_levels(sym, 41, struct)
    formula_err = 0.0
    for n in range(1, 41):
        zs, nxt = levels[n - 1], levels[n]
        if not (g1.lo < zs.min() and zs.max() < g1.hi):
            return CheckResult("qn_zeros", False, float(zs.max()), g1.hi,
                               f"zero escapes Gamma_1 at n={n}")
        merged = np.concatenate([nxt, zs])
        order = np.argsort(merged)
        # strict alternation: sorted merge must alternate next/current
        if not np.all((order >= n + 1)[1::2]) or np.any(np.diff(np.sort(merged)) <= 0):
            return CheckResult("qn_zeros", False, float(n), 0.0,
                               f"interlacing broken at n={n}")
        if _canonical(sym, CHEB):
            oracle = np.cos(np.arange(n, 0, -1) * np.pi / (n + 1))
            formula_err = max(formula_err, float(np.abs(zs - oracle).max()))
    if _canonical(sym, CHEB):
        return CheckResult("qn_zeros", formula_err < 1e-12, formula_err, 1e-12,
                           "second-kind closed form cos(k pi/(n+1)), n <= 40")
    return CheckResult("qn_zeros", True, 0.0, 1e-12,
                       "interior + interlacing, n <= 40")


def check_hp_order(sym: SymbolCoeffs) -> CheckResult:
    """Hermite-Pade error order: log-log slope = -(n_j + 1)."""
    grid = np.geomspace(1e3, 1e6, 10)
    worst = 0.0
    for n in range(1, 9):
        for j in range(1, sym.p + 1):
            if n < j:
                continue
            nj = multi_index(n, sym.p).components[j - 1]
            slope = hp_error_order(sym, n, j, grid)
            worst = max(worst, abs(slope + nj + 1))
    return CheckResult("hp_order", worst < 0.05, worst, 0.05,
                       "slope deviation over n <= 8, j <= p")


def check_ratio_rate(sym: SymbolCoeffs, struct: CriticalStructure) -> CheckResult:
    """(n + n_j)-th error root at n=40 versus the conformal bound."""
    probes = _offcut_box(struct, 10, 0.5)
    worst = -np.inf
    for j in range(1, sym.p + 1):
        rates = ratio_rate(sym, j, probes, 40)
        for lam, rate in zip(probes, rates):
            bound = abs(conformal_map(struct.cut(1), lam)) + 0.02
            worst = max(worst, float(rate) - bound)
    return CheckResult("ratio_rate", worst <= 0.0, worst, 0.0,
                       "max excess over |phi| + 0.02 at 10 probes, n = 40")


def check_spectrum(sym: SymbolCoeffs, sys: NikishinSystem,
                   struct: CriticalStructure) -> CheckResult:
    """P_{n,1} root counts, location, interlacing, and CDF convergence."""
    lam2 = struct.cut(2).finite_end
    reports = {}
    for n in (10, 20):
        rep = reports[n] = gen_spectrum(sym, n, 1, struct=struct, sys=sys)
        want = int(np.sum(multi_index(n, sym.p).components[1:])) - 1
        if rep.roots.size != want:
            return CheckResult("gen_spectrum_ray", False, float(rep.roots.size),
                               float(want), f"count off at n={n}")
        zs = rep.psi_zeros
        if not all(zs[i] < rep.roots[i] < zs[i + 1] for i in range(want)):
            return CheckResult("gen_spectrum_ray", False, float(n), 0.0,
                               f"interlacing broken at n={n}")
        if n == 20 and rep.roots.max() > lam2 + 0.5:
            return CheckResult("gen_spectrum_ray", False,
                               float(rep.roots.max()), lam2 + 0.5,
                               "root strays past the cut at n=20")
    dists = {}
    for n in (20, 40, 60):
        if n not in reports:
            reports[n] = gen_spectrum(sym, n, 1, struct=struct, sys=sys)
        dists[n] = counting_compare(sym, reports[n].roots, 1, struct=struct)
    passed = dists[60] < dists[20]
    return CheckResult("gen_spectrum_ray", passed, dists[60], dists[20],
                       f"CDF distance {dists[20]:.4f} -> {dists[40]:.4f} -> {dists[60]:.4f}")


def check_cubic(params: CubicParams,
                struct: CriticalStructure | None = None) -> CheckResult:
    """Closed-form cubic branch and densities against the generic pipeline.

    `struct`, when given, is the critical structure of cubic_build(params)'s
    symbol, whose memoised branch values are then reused.
    """
    from .cubic import cubic_z0

    sym, lams = cubic_build(params)
    struct = struct or critical_structure(sym)
    probes = _ray_safe_probes(struct, 100)
    worst_z = 0.0
    for lam, generic in zip(probes, solve_grid(sym, probes)[:, 0]):
        worst_z = max(worst_z, abs(cubic_z0(params, lam) - generic) / abs(generic))
    if worst_z >= 1e-10:
        return CheckResult("cubic_closed_forms", False, worst_z, 1e-10,
                           "z0 disagrees with the generic solver")

    l1, l2, l3 = lams
    s = struct.cut(1).scale()
    grid1 = np.linspace(l1 + 1e-3 * s, l3 - 1e-3 * s, 100)
    d1 = np.array([cubic_rho1_density(params, x) for x in grid1])
    g1 = rho_density(sym, 1, grid1, struct)
    grid2 = np.linspace(l2 - 3 * s, l2 - 1e-3 * s, 100)
    d2 = np.array([cubic_rho2_density(params, x) for x in grid2])
    g2 = rho_density(sym, 2, grid2, struct)
    worst_d = max(float(np.abs(d1 - g1).max()), float(np.abs(d2 - g2).max()))
    if worst_d >= 1e-8:
        return CheckResult("cubic_closed_forms", False, worst_d, 1e-8,
                           "density formulas disagree on interior grids")

    handle = MeasureHandle(
        cut=struct.cut(1),
        density=lambda xs: np.array([cubic_rho1_density(params, float(v))
                                     for v in np.atleast_1d(xs)]),
        endpoint_exponents=(0.5, 0.5), tail_exponent=None, name="cubic_rho1",
    )
    mass = float(np.real(integrate(handle).value))
    passed = abs(mass - 1.0) < 1e-8
    return CheckResult("cubic_closed_forms", passed, abs(mass - 1.0), 1e-8,
                       f"z0 {worst_z:.1e}, densities {worst_d:.1e}, mass {mass:.12f}")


def check_bp_ratio(sym: SymbolCoeffs, sys: NikishinSystem) -> CheckResult:
    """B_{n,1} proportional to the shifted section determinant, ratio +-1."""
    rng = np.random.default_rng(_SEED + 2)
    g1 = sys.struct.cut(1)
    probes = []
    while len(probes) < 20:
        lam = rng.uniform(g1.hi + 1.0, g1.hi + 5.0 * g1.scale())
        probes.append(lam)
    n = 6
    section = ToeplitzSection(n=n - 1, k=1, sym=sym)
    ratios = np.array([bnk(sym, sys, n, 1, lam) / section.det(lam)
                       for lam in probes])
    mean = ratios.mean()
    spread = float(np.abs(ratios - mean).max() / abs(mean))
    sign_err = abs(abs(float(np.real(mean))) - 1.0)
    passed = spread < 1e-6 and sign_err < 1e-5
    return CheckResult("bp_ratio", passed, spread, 1e-6,
                       f"ratio {float(np.real(mean)):+.8f}, |.|-1 = {sign_err:.1e}")


def check_jacobi_perron(sym: SymbolCoeffs, struct: CriticalStructure) -> CheckResult:
    """Depth-80 vector continued fraction against the branch powers."""
    probes = _ray_safe_probes(struct, 10)
    worst = 0.0
    for lam, z0 in zip(probes, solve_grid(sym, probes)[:, 0]):
        g = jacobi_perron(sym, lam, 80)
        for j in range(1, sym.p + 1):
            worst = max(worst, abs(g[j - 1] - z0**j) / abs(z0**j))
    return CheckResult("jacobi_perron", worst < 1e-8, worst, 1e-8,
                       "depth 80 vs (z0, ..., z0^p) at 10 probes")


def check_log_derivative(sym: SymbolCoeffs, struct: CriticalStructure) -> CheckResult:
    """z_k'/z_k + hat s_k - hat s_{k+1} = 0 for k = 0..p, hat s_0 = hat s_{p+1} = 0.

    hat s_i(lam) = int ds_i(x) / (x - lam), and z_k' = 1/a'(z_k).
    """
    probes = _ray_safe_probes(struct, 10)
    z = solve_grid(sym, probes)
    s_hat = np.zeros((sym.p + 2, probes.size), dtype=complex)
    for i in range(1, sym.p + 1):
        m = s_measure(sym, i, struct)
        s_hat[i] = [-cauchy_transform(m, lam) for lam in probes]
    log_deriv = (1.0 / eval_symbol(sym, z)[2] / z).T
    worst = float(np.abs(log_deriv + s_hat[:-1] - s_hat[1:]).max())
    return CheckResult("log_derivative", worst < 1e-9, worst, 1e-9,
                       "abs residual, k = 0..p at 10 probes")


def check_second_kind_orthogonality(sym: SymbolCoeffs, sys: NikishinSystem) -> CheckResult:
    """Psi_{7,j} against the flat chain weights (x - lam_{j+1}) drho_{j+1,k}, j < k."""
    n = 7
    ndx = multi_index(n, sym.p)
    worst = 0.0
    weakest_probe = np.inf
    for j in range(1, sym.p):
        for k in range(j + 1, sym.p + 1):
            live = ndx.components[k - 1] - (0 if j == 1 else 1)  # n_k - delta_j
            resid, scale = orthogonality_second_kind(sym, sys, n, j, k, live)
            rel = resid / scale
            worst = max(worst, float(rel[:-1].max()))
            weakest_probe = min(weakest_probe, rel[-1] / rel[:-1].max())
    passed = worst < 1e-9 and weakest_probe >= 1e3
    return CheckResult("second_kind_orthogonality", passed, worst, 1e-9,
                       f"n = {n}; first live moment >= {weakest_probe:.1e}x the residuals")


def check_psi_zero_orthogonality(sym: SymbolCoeffs, sys: NikishinSystem) -> CheckResult:
    """int x^nu Q_6 drho_1 / Q_{6,2} = 0 for nu < N_{6,1}, Q_{6,2} from the Psi_{6,1} zeros."""
    n = 6
    zeros = psi_zeros(sym, sys, n, struct=sys.struct)
    worst = 0.0
    for nu in range(zeros.size):
        resid, scale = orthogonality_with_psi_zeros(sym, sys, n, nu, zeros)
        worst = max(worst, resid / scale)
    return CheckResult("psi_zero_orthogonality", worst < 1e-10, worst, 1e-10,
                       f"n = {n}, nu < N_(n,1) = {zeros.size}")


def run_suite(sym: SymbolCoeffs | None = None, suite: str = "fast") -> list[CheckResult]:
    """All applicable checks for one symbol (default: canonical (0,7,3)).

    `fast` covers the identity/orthogonality/zero checks; `full` adds the
    ratio-asymptotics bound, the generalized-spectrum sweep to n=60, the
    log-derivative identity and the two second-type orthogonalities.
    """
    if suite not in ("fast", "full"):
        raise ValueError("suite must be 'fast' or 'full'")
    if sym is None:
        sym = build_symbol(2, list(CAN))
    struct = critical_structure(sym)
    sys = build_system(sym, struct)

    results = [
        check_widom_l0(sym, struct),
        check_mass(sym, struct),
        check_mu_moments(sym, sys),
        check_orthogonality(sym, sys),
        check_zeros(sym, struct),
        check_hp_order(sym),
        check_jacobi_perron(sym, struct),
    ]
    if sym.p >= 2:
        results.insert(1, check_psi_p_closed_form(sym, sys))
        results.append(check_bp_ratio(sym, sys))
    if _canonical(sym, CAN):
        same = cubic_build(CAN_PARAMS)[0] == sym
        results.append(check_cubic(CAN_PARAMS, struct if same else None))
    if suite == "full":
        results.append(check_ratio_rate(sym, struct))
        if sym.p >= 2:
            results.append(check_spectrum(sym, sys, struct))
        results.append(check_log_derivative(sym, struct))
        if sym.p >= 2:
            results.append(check_second_kind_orthogonality(sym, sys))
            results.append(check_psi_zero_orthogonality(sym, sys))
    return results
