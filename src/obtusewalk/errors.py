"""Exception hierarchy.

Every domain failure raises a subclass of :class:`ObtuseWalkError`, so callers
(and the CLI) can separate "the input is mathematically wrong" from I/O or
programming errors.
"""


class ObtuseWalkError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionMismatch(ObtuseWalkError):
    """Inputs have inconsistent shapes or counts."""


class NotObtuse(ObtuseWalkError):
    """A family of vectors fails the pairwise inner-product -1 requirement."""

    def __init__(self, message, pair=None, residual=None):
        super().__init__(message)
        self.pair = pair
        self.residual = residual


class ProbabilityMismatch(ObtuseWalkError):
    """Two random variables do not carry the same probabilities."""


class AmbiguousMatching(ObtuseWalkError):
    """No atom matching among tied probabilities produces a valid unitary."""


class MinimalSupport(ObtuseWalkError):
    """A centered normalized variable in C^d needs at least d+1 atoms."""


class SingularSystem(ObtuseWalkError):
    """A linear system that should be regular turned out singular."""


class NotSymmetric(ObtuseWalkError):
    """Matrix expected to be complex symmetric is not."""


class NotUnitary(ObtuseWalkError):
    """Matrix expected to be unitary is not."""


class NotCommuting(ObtuseWalkError):
    """The conjugate-product family of the input matrices does not commute."""


class NoConvergence(ObtuseWalkError):
    """An iterative or randomized routine exhausted its retry budget."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NotOrthogonal(ObtuseWalkError):
    """Vectors expected to be pairwise orthogonal and non-zero are not."""


class NotDoublySymmetric(ObtuseWalkError):
    """3-tensor fails one of the double-symmetry relations."""


class WrongCount(ObtuseWalkError):
    """Fixed-point family of a constant-coordinate tensor has the wrong size."""


class S0NotUnitary(ObtuseWalkError):
    """The time-zero slice of a tensor is not symmetric unitary."""


class NonPositiveStep(ObtuseWalkError):
    """Time step h must be strictly positive."""


class NoApparentLimit(ObtuseWalkError):
    """Sampled tensor entries show no numerically convergent trend."""

    def __init__(self, message, entry=None):
        super().__init__(message)
        self.entry = entry


class StructureViolation(ObtuseWalkError):
    """A limit tensor fails the structure relations of normal martingales."""


class InconsistentCount(ObtuseWalkError):
    """Jump directions are inconsistent with the Brownian decomposition."""


class ChainTooLarge(ObtuseWalkError):
    """Requested chain operator would exceed the dense-size cap."""


class TooManyJumps(ObtuseWalkError):
    """A limit path would draw more jumps than its jump-log budget admits."""


class TooFewIncrements(ObtuseWalkError):
    """Bracket estimation needs more path increments."""
