"""Exception hierarchy. Every error surfaced by the library is a LinswapError
subclass whose class name doubles as the machine-readable category used by the
CLI (`<Category>: message` on stderr, distinct exit codes)."""


class LinswapError(Exception):
    """Base class for all library errors."""

    exit_code = 1

    @property
    def category(self) -> str:
        return type(self).__name__


# --- tensor / autograd ---

class ShapeMismatch(LinswapError):
    pass


class EmptyReduction(LinswapError):
    pass


class NonFiniteResult(LinswapError):
    pass


class NotScalar(LinswapError):
    pass


class DetachedLoss(LinswapError):
    pass


class NonDeterministicF(LinswapError):
    pass


# --- attention ---

class OddHeadDim(LinswapError):
    pass


class StateDimMismatch(LinswapError):
    pass


class WindowTooSmall(LinswapError):
    pass


class OutOfOrderToken(LinswapError):
    pass


class NotStochastic(LinswapError):
    pass


# --- model ---

class InvalidConfig(LinswapError):
    pass


class AlreadyConverted(LinswapError):
    pass


class NotConverted(LinswapError):
    pass


class DuplicateAdapter(LinswapError):
    pass


class AdaptersMissing(LinswapError):
    pass


class UnknownId(LinswapError):
    pass


class PromptTooLong(LinswapError):
    pass


# --- checkpoint / corpus i/o ---

class IoFailure(LinswapError):
    pass


class FormatVersionMismatch(LinswapError):
    pass


class CorruptPayload(LinswapError):
    pass


# --- training ---

class IndivisibleBlocks(LinswapError):
    pass


class DivergedLoss(LinswapError):
    pass


# --- planner / bench / cli ---

class ConfigTooLarge(LinswapError):
    pass


class BadConfig(LinswapError):
    exit_code = 2


class MissingCheckpoint(LinswapError):
    exit_code = 3
