"""Exception taxonomy for loopoid-lab.

Every error raised by the library derives from LoopoidLabError so callers
(and the CLI) can catch one base class and emit machine-readable reports.
"""


class LoopoidLabError(Exception):
    """Base class for all loopoid-lab errors."""


# -- finite structures -------------------------------------------------------

class MalformedTable(LoopoidLabError):
    """Cayley table is non-square or has out-of-range entries."""


class NotSubgroup(LoopoidLabError):
    """Claimed subgroup is not closed under the group product."""


class NotTransversal(LoopoidLabError):
    """Claimed transversal misses a coset or hits one twice."""


class NotAutomorphism(LoopoidLabError):
    """A map fails the table homomorphism test, or the set of maps is not
    composition-closed / lacks the identity."""


# -- octonions ----------------------------------------------------------------

class DivisionByZero(LoopoidLabError):
    """Inversion of a (numerically) zero element refused."""


# -- smooth charts ------------------------------------------------------------

class NotAntisymmetric(LoopoidLabError):
    """Structure constants are not antisymmetric in their lower indices."""


class NumericalNoise(LoopoidLabError):
    """Finite differences disagree across step sizes, or a checked value is NaN."""


class NoConvergence(LoopoidLabError):
    """Newton iteration failed to reach the residual tolerance."""


class SingularJacobian(LoopoidLabError):
    """Newton Jacobian numerically singular and inconsistent.

    Carries a condition-number estimate in ``cond``.
    """

    def __init__(self, msg, cond=None):
        super().__init__(msg)
        self.cond = cond


# -- loopoid charts -----------------------------------------------------------

class NotComposable(LoopoidLabError):
    """Pair violates the composability tolerance ||beta(g) - alpha(h)||."""


class NotOdd(LoopoidLabError):
    """Scalar map fails the oddness check f(-x) = -f(x) on samples."""


class NotMonotone(LoopoidLabError):
    """Scalar map has a (numerically) vanishing derivative on samples."""


# -- frames and brackets ------------------------------------------------------

class RankDeficient(LoopoidLabError):
    """Jacobian rank below the submersion requirement at a unit point."""


class FrameSingular(LoopoidLabError):
    """Frame matrix too ill-conditioned to expand a vector in."""


class NotOnFiber(LoopoidLabError):
    """Finite-difference step left the composability slab."""


# -- tangent structure --------------------------------------------------------

class IncompatibleVelocities(LoopoidLabError):
    """Tangent vectors disagree on the shared base velocity beyond tolerance."""


class SectionFailure(LoopoidLabError):
    """Local section construction failed to converge."""


# -- I/O ------------------------------------------------------------------

class SchemaError(LoopoidLabError):
    """Structure spec failed validation; ``path`` locates the offender."""

    def __init__(self, msg, path="$"):
        super().__init__(f"{path}: {msg}")
        self.path = path
