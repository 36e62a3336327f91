import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from symlab import (
    build_system,
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


def test_mu_density_is_imag_power(can, can_struct):
    # mu_k density is Im(z_minus^k)/pi on the first cut
    from symlab import pair_minus

    xs = np.array([-1.0, 0.5, 2.0])
    zm = pair_minus(can, 1, xs, can_struct)
    for k in (1, 2):
        np.testing.assert_allclose(
            mu_density(can, k, xs, can_struct), np.imag(zm**k) / np.pi, rtol=1e-12
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
    shared = build_system(sym, struct)
    assert shared.struct is struct
    assert np.array_equal(shared.c, own.c)
    g1 = struct.cut(1)
    xs = np.linspace(g1.lo, g1.hi, 11)[1:-1]
    for a, b in zip(shared.sigma + shared.mu, own.sigma + own.mu):
        assert np.array_equal(a.density(xs), b.density(xs))


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


def test_psi_values_level_range(can_sys):
    # level 0 is the polynomial itself, served by eval_Q, not the chain
    with pytest.raises(ValueError):
        psi_values(can_sys, 5, 0, np.array([2.5 + 0j]))
    with pytest.raises(ValueError):
        psi_values(can_sys, 5, 3, np.array([2.5 + 0j]))


def test_chain_pinned_bits(can, can_sys):
    # sha256 of values read off the frozen chain rules; a last-bit drift in
    # the rho_1, flat rho_2, flat chain or product-measure rules changes them.
    # The probes sit near and far from both cuts, so Psi_{n,1} takes both its
    # direct sum and its far-field moment expansion
    probes = np.array([0.5 + 1e-3j, -4.7 + 1e-2j, 3.0 - 2.0j, -8.0 + 1e-3j,
                       10.0 + 5.0j, 40.0 + 0.0j, -60.0 + 10.0j, 200.0j])
    h = hashlib.sha256()
    for n in range(9):
        for j in (1, 2):
            h.update(psi_values(can_sys, n, j, probes).tobytes())
    assert h.hexdigest() == "0fc42918e5ea006266b8abc54bd2a9fd052d5cf37d073bd1b0ac484bf7545491"
    resid, scale = orthogonality_second_kind(can, can_sys, 7, 1, 2, 1)
    assert hashlib.sha256(resid.tobytes() + scale.tobytes()).hexdigest() == (
        "ba5a9b936cbcb1801865e7b2d843beb0bbf6a510c76fd01bb824f8c26d25637d")
    g1 = can_sys.struct.cut(1)
    xs = np.linspace(g1.lo, g1.hi, 11)[1:-1]
    assert hashlib.sha256(can_sys.sigma[1].density(xs).tobytes()).hexdigest() == (
        "4b59354da303cdf221e5062204ee4d3fac73f2a1becec5646d24a8ea48ab6405")
