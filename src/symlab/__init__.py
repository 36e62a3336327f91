"""Numerical laboratory for banded Hessenberg/Toeplitz symbols.

Given the constant coefficients of the symbol a(z) = 1/z + a_0 + ... +
a_p z^p, the package computes the branch system of a(z) = lam, the
spectral cuts, the recurrence polynomials and their zeros, the Nikishin
chain of orthogonality measures, second-type functions with their Widom
closed forms, generalized spectra of the truncated sections, and the
closed-form cubic case, with a verification suite tying every piece to
an independent oracle.

Set SYMLAB_THREADS to cap the BLAS/OpenMP thread pools.  The cap is
applied here, before any submodule imports numpy, so it holds for
``import symlab``, ``python -m symlab`` and the ``symlab`` console
script alike; a *_NUM_THREADS variable set explicitly still wins.
"""

import os


def _cap_threads() -> None:
    t = os.environ.get("SYMLAB_THREADS")
    if t:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ.setdefault(var, t)


_cap_threads()  # must run before numpy spins up its thread pools

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
    boundary_values,
    conformal_map,
    jacobi_perron,
    pair_minus,
    rho_density,
    rho_measure,
    s_density,
    s_measure,
    solve_grid,
)
from .cubic import (
    CubicParams,
    cubic_build,
    cubic_rho1_density,
    cubic_rho2_density,
    cubic_z0,
)
from .nikishin import (
    build_system,
    mu_density,
    orthogonality_residual,
    orthogonality_second_kind,
    orthogonality_with_psi_zeros,
    psi_values,
)
from .polyseq import (
    eval_Q,
    eval_Q_with_derivative,
    gen_Q,
    moments,
    multi_index,
    zeros_Q,
    zeros_Q_levels,
)
from .quadrature import (
    MeasureHandle,
    build_fixed_rule,
    cauchy_transform,
    integrate,
    rule_apply,
)
from .symbol import (
    Cut,
    build_symbol,
    critical_polynomial,
    critical_structure,
    eval_symbol,
)
from .verify import CheckResult, run_suite

__version__ = "0.1.0"
