"""Exception types shared across the package.

Every failure mode that callers are expected to catch has a named class,
raised somewhere in the package (tests/test_errors.py checks each one);
anything else is a plain bug and surfaces as a standard exception.
"""


class SymlabError(Exception):
    """Base class for all package-specific errors."""


# ---- symbol validation ----

class ZeroLeadingCoefficient(SymlabError):
    """The top coefficient a_p vanishes, so the symbol degenerates."""


class NonFinite(SymlabError):
    """A coefficient, argument or computed value is NaN or infinite."""


class DivisionAtZero(SymlabError):
    """The symbol a(z) was evaluated at z = 0."""


# ---- critical structure ----

class ComplexCriticalPoints(SymlabError):
    """The critical polynomial has non-real roots."""


class MultipleCriticalPoints(SymlabError):
    """Critical points collide (or min/max classification is ambiguous)."""


class HypothesisViolated(SymlabError):
    """The critical points do not split p-vs-1 by sign."""


# ---- root finding / branches ----

class ConvergenceFailure(SymlabError):
    """Simultaneous root iteration did not reach the residual target."""


class NotInCut(SymlabError):
    """A point claimed to lie inside a cut does not."""


class UnstableOrdering(SymlabError):
    """Branch labels flipped along the boundary-value epsilon schedule."""


class OnCut(SymlabError):
    """Evaluation point lies on a cut where the quantity is discontinuous."""


class DivisionBlowup(SymlabError):
    """A vector continued-fraction denominator component vanished."""


# ---- polynomial sequence ----

class InterlacingViolation(SymlabError):
    """A zero bracket predicted by interlacing failed to change sign."""


# ---- quadrature ----

class NonIntegrable(SymlabError):
    """Declared exponents make the requested integral divergent."""


class NoConvergence(SymlabError):
    """Adaptive quadrature hit its maximum level before the tolerance."""


# ---- Nikishin construction ----

class SingularMomentSystem(SymlabError):
    """The moment-matching system for the mixing constants degenerated."""


class TailDivergence(SymlabError):
    """Decay bookkeeping says a nested tail integral does not converge."""


# ---- asymptotics ----

class NearBranchPoint(SymlabError):
    """Two branches are too close for a stable Widom denominator."""


class RootCountMismatch(SymlabError):
    """A generalized spectrum scan found the wrong number of roots."""


class CountMismatch(SymlabError):
    """A second-type function zero scan found the wrong number of zeros."""


# ---- cubic oracle ----

class BranchPointHit(SymlabError):
    """Cardano evaluation requested exactly at a branch point."""


class BadOrdering(SymlabError):
    """Cubic parameters must satisfy x1 < x2 < 0."""
