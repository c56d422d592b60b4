"""Exception types shared across the package."""


class DigitDriftError(Exception):
    """Base class for all digitdrift errors."""


class InvalidBase(DigitDriftError):
    """Base must be an integer >= 2."""


class ZeroHasNoBlocks(DigitDriftError):
    """Block operations are undefined for r = 0 (empty expansion)."""


class NotSingleBlock(DigitDriftError):
    """Closed-form variance requested for a value that is not a single block."""


class TailBoundUnavailable(DigitDriftError):
    """Certified tail bounds need the atom cutoff K >= digit count of r."""


class TailTooHeavy(DigitDriftError):
    """Distribution tail mass too large for the requested diagnostic."""


class PropagationCapExceeded(DigitDriftError):
    """Carry propagation ran past the configured depth cap."""


class InsufficientSamples(DigitDriftError):
    """No conditioning event reached the minimum hit count."""


class InvalidEpsilon(DigitDriftError):
    """Mollifier width must be strictly positive."""


class LevelTooSmall(DigitDriftError):
    """Tower level must be >= 0 and satisfy base**(level+1) > r."""


class Int64Overflow(DigitDriftError, OverflowError):
    """The vectorized sampler's digit sums would not fit in int64."""


class TableTooLarge(DigitDriftError, ValueError):
    """The oracle's digit-sum table would pass 2**30 entries.

    Counting over such a table peaks at 4 to 9 bytes of memory per entry,
    several GB from 2**30 entries on.
    """
