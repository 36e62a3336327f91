"""Acceptance gate: the fifteen headline properties at their stated
tolerances, one pass/fail line per property.

Each test delegates to the corresponding check in symlab.verify, which
carries the tolerances, probe counts, and seeds.  Run with -v to get the
line-per-criterion report; the printed detail carries the measured
values for the record.
"""

import pytest

from symlab import CubicParams
from symlab.verify import (
    check_bp_ratio,
    check_cubic,
    check_hp_order,
    check_jacobi_perron,
    check_log_derivative,
    check_mass,
    check_mu_moments,
    check_orthogonality,
    check_psi_p_closed_form,
    check_psi_zero_orthogonality,
    check_ratio_rate,
    check_second_kind_orthogonality,
    check_spectrum,
    check_widom_l0,
    check_zeros,
)

CUBIC_PARAMS = CubicParams(-2.0, -1.0)


def report(results):
    lines = []
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{status} {r.name}: measured {r.measured:.3e} vs bound {r.bound:.3e} ({r.detail})"
        )
        ok = ok and r.passed
    text = "\n".join(lines)
    print(text)
    assert ok, text


def test_criterion_01_widom_identity(cheb, can):
    """widom_psi(n,0,lam) reproduces Q_n to 1e-9 at 50 off-cut probes."""
    report([check_widom_l0(cheb), check_widom_l0(can)])


def test_criterion_02_second_type_closed_form(can_sys):
    """Nested-quadrature Psi_{n,2} matches -1/(a_2 z_2^{n+1}) to 1e-6."""
    report([check_psi_p_closed_form(can_sys)])


def test_criterion_03_mass_identities(cheb, can):
    """s_1 has unit mass; the ray measure s_2 carries mass 1/2."""
    report([check_mass(cheb), check_mass(can)])


def test_criterion_04_moment_duality(cheb_sys, can_sys):
    """Quadrature moments of mu_1 equal the exact band-section moments
    through m = 12; mu_2 has mass 0 and first moment 1."""
    report([check_mu_moments(cheb_sys), check_mu_moments(can_sys)])


def test_criterion_05_multiple_orthogonality(can_sys):
    """All prescribed sigma-moments of Q_n vanish to 1e-6 relative scale
    for n <= 12, and the first live moment is at least 1e3 larger."""
    report([check_orthogonality(can_sys)])


def test_criterion_06_zero_location_interlacing(cheb, can):
    """Zeros stay strictly inside the first cut up to n = 40, interlace
    exactly, and hit the closed-form cosine grid in the scaled Chebyshev
    case to 1e-12."""
    report([check_zeros(cheb), check_zeros(can)])


def test_criterion_07_hermite_pade_order(cheb, can):
    """Fitted far-field slope of |Q_n z_0^j - Q_{n-j}| is -(n_j + 1)
    within 0.05 for n <= 8, j <= p."""
    report([check_hp_order(cheb), check_hp_order(can)])


def test_criterion_08_ratio_rate(can):
    """(n + n_j)-th root of the ratio error at n = 40 stays within 0.02
    of the conformal-map modulus at 10 probes."""
    report([check_ratio_rate(can)])


def test_criterion_09_generalized_spectrum(can):
    """P_{n,1} has exactly N_{n,1}-1 real roots interlacing the zeros of
    Psi_{n,1}, near the ray at n = 20, with shrinking CDF distance."""
    report([check_spectrum(can)])


def test_criterion_10_cubic_closed_forms():
    """Closed-form z_0 and densities in the cubic family match the
    generic machinery; the first spectral density has unit mass."""
    report([check_cubic(CUBIC_PARAMS)])


def test_criterion_11_bp_proportionality(can_sys):
    """B_{n,1}/P_{n,1} is constant across probes with value +-1."""
    report([check_bp_ratio(can_sys)])


def test_criterion_12_jacobi_perron(cheb, can):
    """Depth-80 continued-fraction truncation reproduces (z_0, ..., z_0^p)
    to 1e-8 outside the hull of the first cut."""
    report([check_jacobi_perron(cheb), check_jacobi_perron(can)])


def test_criterion_13_log_derivative(cheb, can):
    """z_k'/z_k + hat s_k - hat s_{k+1} = 0 for k = 0..p to 1e-9 at 10
    probes away from every cut."""
    report([check_log_derivative(cheb), check_log_derivative(can)])


def test_criterion_14_second_kind_orthogonality(can_sys):
    """Psi_{7,1} is orthogonal to x^nu against (x - lam_2) drho_2 for
    nu < n_2 to 1e-9 of the scale, and the first live moment is at least
    1e3 larger."""
    report([check_second_kind_orthogonality(can_sys)])


def test_criterion_15_psi_zero_orthogonality(can_sys):
    """Q_6 is orthogonal to x^nu against drho_1 / Q_{6,2} for nu < N_{6,1},
    Q_{6,2} vanishing at the zeros of Psi_{6,1}, to 1e-10 of the scale."""
    report([check_psi_zero_orthogonality(can_sys)])
