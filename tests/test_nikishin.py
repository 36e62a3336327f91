import hashlib
import math
import tracemalloc
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from symlab import (
    build_symbol,
    build_system,
    critical_structure,
    eval_Q,
    gen_Q,
    integrate,
    moments,
    mu_density,
    multi_index,
    orthogonality_residual,
    orthogonality_second_kind,
    psi_values,
    s_measure,
    solve_grid,
    widom_psi,
)
from symlab.branches import rho_density, rho_measure
from symlab.errors import UnstableOrdering
from symlab import nikishin
from symlab.nikishin import _cauchy_sum, _flat_rule, _psi_far_coeffs, _psi_stage_values
from symlab.quadrature import FixedRule, MeasureHandle, build_fixed_rule

CAN_L1_MOMENTS = [1, 0, 7, 3, 98, 105, 1742, 3087]


def test_exact_moments_table(can):
    assert moments(can, 1, 7) == [Fraction(m) for m in CAN_L1_MOMENTS]
    assert moments(can, 2, 3) == [Fraction(1), Fraction(1), Fraction(7), Fraction(17)]


def test_chebyshev_moments_are_catalan(cheb):
    # (A^(2m) e0, e0) = C_m / 4^m for the (0, 1/4) symbol
    got = moments(cheb, 1, 6)
    assert got == [
        Fraction(1),
        Fraction(0),
        Fraction(1, 4),
        Fraction(0),
        Fraction(1, 8),
        Fraction(0),
        Fraction(5, 64),
    ]


def test_mu1_quadrature_matches_exact(can, can_sys):
    exact = moments(can, 1, 8)
    m = can_sys.mu[0]
    for k, want in enumerate(exact):
        got = integrate(m, lambda x, k=k: x**k, f_tail_degree=float(k))
        assert got.value == pytest.approx(float(want), rel=1e-9, abs=1e-9)


def test_mu2_low_moments(can_sys):
    m = can_sys.mu[1]
    assert integrate(m).value == pytest.approx(0.0, abs=1e-10)
    got = integrate(m, lambda x: x, f_tail_degree=1.0)
    assert got.value == pytest.approx(1.0, abs=1e-10)


def test_mu_density_is_imag_power(can):
    # mu_k density is Im(z_minus^k)/pi on the first cut
    from symlab import pair_minus

    xs = np.array([-1.0, 0.5, 2.0])
    zm = pair_minus(can, 1, xs)
    for k in (1, 2):
        np.testing.assert_allclose(
            mu_density(can, k, xs), np.imag(zm**k) / np.pi, rtol=1e-12
        )


def test_sigma_chain_masses(can_sys):
    assert integrate(can_sys.sigma[0]).value == pytest.approx(1.0, abs=1e-9)
    # the second chain measure carries mass 4/3 = |c_21|
    assert integrate(can_sys.sigma[1]).value == pytest.approx(4.0 / 3.0, abs=1e-7)
    assert can_sys.sigma[1].name == "<rho_1,rho_2>"


@pytest.mark.parametrize("name", ["cheb", "can"])
def test_build_system_reuses_given_structure(name, request):
    sym = request.getfixturevalue(name)
    struct = request.getfixturevalue(f"{name}_struct")
    own = request.getfixturevalue(f"{name}_sys")
    # a second system reads the structure the symbol holds, the fixture's
    shared = build_system(sym)
    assert shared is not own and critical_structure(shared.sym) is struct
    assert np.array_equal(shared.c, own.c)
    g1 = struct.cut(1)
    xs = np.linspace(g1.lo, g1.hi, 11)[1:-1]
    for a, b in zip(shared.sigma + shared.mu, own.sigma + own.mu):
        assert np.array_equal(a.density(xs), b.density(xs))


def test_build_system_p3_unstable_ordering():
    # far-tail ray nodes (lambda ~ 1e48) leave the conjugate-pair shortcut
    # for the epsilon schedule, whose branch labels flip there
    with pytest.raises(UnstableOrdering):
        build_system(build_symbol(3, (0.0, 9.99, 6.545, 0.74)))


def test_c_matrix(can_sys):
    np.testing.assert_allclose(
        can_sys.c, [[1.0, 0.0], [-4.0 / 3.0, 1.0]], atol=5e-8
    )


def test_s_masses(can, cheb):
    # counting measures have mass (p - k + 1)/p
    assert integrate(s_measure(cheb, 1)).value == pytest.approx(1.0, abs=1e-9)
    assert integrate(s_measure(can, 1)).value == pytest.approx(1.0, abs=1e-9)
    assert integrate(s_measure(can, 2)).value == pytest.approx(0.5, abs=1e-6)


def test_orthogonality_residuals_vanish(can, can_sys):
    seq = gen_Q(can, 6)
    qn = np.array([float(c) for c in seq.coeffs[6]])
    # n = 6 has components (3, 3): moments 0..2 die against both sigmas
    for j in (1, 2):
        for nu in range(3):
            resid, scale = orthogonality_residual(can_sys, qn, j, nu)
            assert resid < 1e-12 * scale
    # first live moment is far from zero
    live, _ = orthogonality_residual(can_sys, qn, 1, 3)
    assert live > 1e3 * max(
        orthogonality_residual(can_sys, qn, 1, nu)[0] for nu in range(3)
    )


def test_psi_values_rows_ignore_their_batch(can_sys):
    # more probes than one kernel block, near and far from the first cut
    rng = np.random.default_rng(5)
    lams = rng.uniform(-40, 40, 200) + 1j * rng.choice([-1, 1], 200) * rng.uniform(0.5, 20, 200)
    for j in (1, 2):
        batch = psi_values(can_sys, 4, j, lams)
        alone = np.concatenate([psi_values(can_sys, 4, j, lams[i : i + 1]) for i in range(200)])
        assert batch.tobytes() == alone.tobytes()


def _kernel_inputs(can_sys, path):
    """(lam, t, wf) of the real product-measure path or the complex Psi path."""
    if path == "real":  # sigma_2's density on Gamma_1 against the rho_2 rule
        rule = build_fixed_rule(can_sys.rho[1], level=8)
        g1 = critical_structure(can_sys.sym).cut(1)
        return np.linspace(g1.lo, g1.hi, 52)[1:-1], rule.x, rule.w
    t, w, psi = _psi_stage_values(can_sys, 4, 1)  # the stage of Psi_{4,2}
    rng = np.random.default_rng(7)
    lam = rng.uniform(-40, 40, 50) + 1j * rng.uniform(0.5, 20, 50)
    return lam, t, w * psi


@pytest.mark.parametrize("path", ["real", "complex"])
def test_cauchy_sum_ignores_its_blocking(can_sys, path, monkeypatch):
    # one row per block, 7 rows per block (the last block holds 1), and
    # every row in one block give the same bytes as the unblocked kernel
    lam, t, wf = _kernel_inputs(can_sys, path)
    want = (wf / (lam[:, None] - t)).sum(axis=1)
    for rows in (1, 7, lam.size):
        monkeypatch.setattr(nikishin, "_BLOCK_ENTRIES", rows * t.size)
        got = _cauchy_sum(lam, t, wf)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        empty = _cauchy_sum(lam[:0], t, wf)
        assert empty.shape == (0,) and empty.dtype == want.dtype


def test_product_density_points_ignore_their_batch(can_sys):
    # the real kernel path: more points than one kernel block, each
    # evaluated alone against all at once
    g1 = critical_structure(can_sys.sym).cut(1)
    xs = np.linspace(g1.lo, g1.hi, 1002)[1:-1]
    dens = can_sys.sigma[1].density
    alone = np.array([dens(x) for x in xs])
    assert dens(xs).tobytes() == alone.tobytes()


def test_product_rule_memory_is_bounded():
    # freezing the product-measure rule must not scale with the kernel:
    # two fresh (points, nodes) temporaries per 512-point block trace at
    # 35 MB here, the one bounded block buffer at about 3 MB.  A symbol of
    # its own, so the traced rule still solves its nodes: the session
    # symbol holds them from earlier tests
    sys_ = build_system(build_symbol(2, (0.0, 7.0, 3.0)))
    tracemalloc.start()
    try:
        sys_.sigma_rule(2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_psi_p_closed_form_spot(can, can_sys):
    # second-type function at the last level against the explicit branch form
    lam = 10 + 5j
    z2 = solve_grid(can, [lam])[0, 2]
    want = -1.0 / (3.0 * z2**5)
    got = psi_values(can_sys, 4, 2, np.array([lam]))[0]
    assert got == pytest.approx(want, rel=1e-8)
    assert widom_psi(can, 4, 2, lam) == pytest.approx(want, rel=1e-12)


def test_psi_far_field_decay(can_sys):
    # |Psi_{n,1}| ~ 1/lambda^(n_1 + 1): the log2 ratio across one octave
    # pins the decay order
    for n in (4, 6):
        n1 = multi_index(n, 2).components[0]
        v1 = abs(psi_values(can_sys, n, 1, np.array([200.0 + 0j]))[0])
        v2 = abs(psi_values(can_sys, n, 1, np.array([400.0 + 0j]))[0])
        assert math.log2(v1 / v2) == pytest.approx(n1 + 1, abs=0.5)


@pytest.mark.parametrize("name", ["cheb", "can"])
def test_psi_far_coeffs_match_a_50_digit_sum(name, request):
    # sum_i w_i x_i^m Q_n(x_i) over the same rule and the same double
    # Q_n values, summed at 50 digits; the terms with the largest powers
    # carry the most rounding, so the first two and the last two m are
    # checked
    sym = request.getfixturevalue(name)
    sys_ = request.getfixturevalue(name + "_sys")
    rule = sys_.sigma_rule(1)
    with mp.workdps(50):
        xs = [mp.mpf(float(v)) for v in rule.x]
        powers = {i: [x**i for x in xs] for i in (0, 1, 38, 39)}
        for n in range(9):
            m0, got = _psi_far_coeffs(sys_, n)
            q = eval_Q(sym, n, rule.x)
            u = [mp.mpf(float(w)) * mp.mpf(float(v)) * x**m0
                 for w, v, x in zip(rule.w, q, xs)]
            for i, xi in powers.items():
                err = abs(mp.mpf(float(got[i])) - mp.fdot(u, xi))
                assert err <= 1e-15 * np.abs(rule.w * rule.x ** (m0 + i) * q).sum()


def test_psi_values_level_range(can_sys):
    # level 0 is the polynomial itself, served by eval_Q, not the chain
    with pytest.raises(ValueError):
        psi_values(can_sys, 5, 0, np.array([2.5 + 0j]))
    with pytest.raises(ValueError):
        psi_values(can_sys, 5, 3, np.array([2.5 + 0j]))


def test_chain_pinned_bits(can_sys):
    # sha256 of values read off the frozen chain rules; a last-bit drift in
    # the sigma_1 (= rho_1), flat rho_2 or product-measure rules changes them.
    # The probes sit near and far from both cuts, so Psi_{n,1} takes both its
    # direct sum and its far-field moment expansion
    probes = np.array([0.5 + 1e-3j, -4.7 + 1e-2j, 3.0 - 2.0j, -8.0 + 1e-3j,
                       10.0 + 5.0j, 40.0 + 0.0j, -60.0 + 10.0j, 200.0j])
    h = hashlib.sha256()
    for n in range(9):
        for j in (1, 2):
            h.update(psi_values(can_sys, n, j, probes).tobytes())
    assert h.hexdigest() == "5591a9eaea3760d9a7d37aa9f05342dfdffc693c0961887c11e72acbb73766c8"
    resid, scale = orthogonality_second_kind(can_sys, 7, 1, 2, 1)
    assert hashlib.sha256(resid.tobytes() + scale.tobytes()).hexdigest() == (
        "4d066e3e58f91c30aad30f8c147b0d6c93ed3bd8d4b7bf69d2ff8a7b5bfe469f")
    g1 = critical_structure(can_sys.sym).cut(1)
    xs = np.linspace(g1.lo, g1.hi, 11)[1:-1]
    assert hashlib.sha256(can_sys.sigma[1].density(xs).tobytes()).hexdigest() == (
        "4b59354da303cdf221e5062204ee4d3fac73f2a1becec5646d24a8ea48ab6405")


def test_flat_rule_matches_rho2_times_linear_factor(can, can_sys):
    # oracle: the flat weight (x - lam_2) rho_2'(x) frozen straight from
    # rho_2's density, against the rule built from Im z_{1,-}/pi
    lam2 = critical_structure(can).lam[1]

    def dens(x):
        return (x - lam2) * rho_density(can, 2, x)

    oracle = build_fixed_rule(MeasureHandle(
        cut=critical_structure(can).cut(2), density=dens, endpoint_exponents=(0.5, 0.5),
        tail_exponent=0.5), level=7)
    rule, tail = _flat_rule(can_sys, 1, 2)
    assert tail == 0.5
    assert rule.x.tobytes() == oracle.x.tobytes()
    np.testing.assert_allclose(rule.w, oracle.w, rtol=1e-15, atol=0)


def test_rho1_vanishes_like_a_square_root(can, can_struct):
    assert rho_measure(can, 1).endpoint_exponents == (0.5, 0.5)
    assert rho_measure(can, 2).endpoint_exponents == (-0.5, -0.5)
    lam1 = can_struct.cut(1).lo
    es = np.array([1e-6, 1e-8, 1e-10])
    ratio = rho_density(can, 1, lam1 + es) / np.sqrt(es)
    # 0.142352 to six decimals at every offset: the density is sqrt-like
    np.testing.assert_allclose(ratio, 0.142352, rtol=0, atol=1e-6)


def test_memo_keeps_rules_and_far_moments_only(can):
    # Psi stage arrays are not kept: asking for 21 degrees leaves one rule
    # per weight and 40 far-field moments per degree
    sys_ = build_system(can)
    probes = np.array([10.0 + 5.0j, -60.0 + 10.0j, 200.0j])
    for n in range(21):
        psi_values(sys_, n, 2, probes)
    p = can.p
    rules = [k for k in sys_._memo if k[0] != "far"]
    assert len(rules) <= p + p * (p - 1) // 2
    for key, val in sys_._memo.items():
        if key[0] == "far":
            m0, moms = val
            assert isinstance(m0, int) and moms.shape == (40,)
        else:  # flat rules carry their tail degree alongside
            rule = val[0] if key[0] == "flat" else val
            assert isinstance(rule, FixedRule)
    assert sorted(k for k in sys_._memo if k[0] == "far") == [("far", n) for n in range(21)]
