"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes (see cli.py): malformed or
inconsistent input, numerical non-stabilization, and violated
mathematical preconditions are kept apart so scripted harnesses can
tell them apart.
"""


class KoszulKitError(Exception):
    """Base class for all package-specific failures."""


class ModeMismatch(KoszulKitError):
    """Exact and float values were mixed in one computation."""


class ShapeError(KoszulKitError):
    """Matrix shapes do not compose, or a square matrix was required."""


class NonCommuting(KoszulKitError):
    """A tuple failed the pairwise commutation requirement."""

    def __init__(self, msg, pair=None, norm=None):
        super().__init__(msg)
        self.pair = pair
        self.norm = norm


class DegreeError(KoszulKitError):
    """Form degree outside the valid range for the complex."""


class FormatError(KoszulKitError):
    """Malformed operator/tuple/polynomial description."""


class DeflationFailure(KoszulKitError):
    """Joint-eigenvalue extraction failed or fell below conditioning."""


class NotStabilized(KoszulKitError):
    """Finite-section data kept changing up to the largest window."""


class InvarianceViolation(KoszulKitError):
    """A subspace expected to be invariant failed the projection test."""


class PreconditionError(KoszulKitError):
    """A documented mathematical precondition does not hold."""


class IndexSignError(PreconditionError):
    """Operation requires a strictly positive Fredholm index."""


class IndexZeroError(PreconditionError):
    """Operation requires a nonzero Fredholm index."""
