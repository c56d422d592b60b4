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


class CutoffTooLarge(DigitDriftError):
    """The exact engine's numerators for an atom cutoff would pass
    exactdist.MAX_NUMERATOR_BITS bits in total."""


class TailTooHeavy(DigitDriftError):
    """Distribution tail mass too large for the requested diagnostic."""


class CacheUnwritable(DigitDriftError):
    """The cache directory cannot be made or written into."""


class PropagationCapExceeded(DigitDriftError):
    """Carry propagation ran past the depth cap."""


class InsufficientSamples(DigitDriftError):
    """No conditioning event reached the minimum hit count."""


class InvalidEpsilon(DigitDriftError):
    """Mollifier width must be strictly positive."""


class LevelTooSmall(DigitDriftError):
    """Tower level must be >= 0 and satisfy base**(level+1) > r."""


class LevelTooLarge(DigitDriftError):
    """Tower level past oracle.MAX_LEVEL, where the count grows about
    quadratically in the level, or a level and base whose count would
    enumerate more than oracle.MAX_TOWER_VALUES chunk values."""


class TooManySamples(DigitDriftError):
    """A sampler batch past odometer.MAX_SAMPLES samples or past
    odometer.MAX_CELLS digit cells, refused before any per-sample array is
    allocated."""


class Int64Overflow(DigitDriftError, OverflowError):
    """The vectorized sampler's digit sums would not fit in int64."""


class TableTooLarge(DigitDriftError, ValueError):
    """The oracle's digit-sum table would pass 2**30 entries, or
    empirical_density would enumerate more than oracle.MAX_TOWER_VALUES
    chunk values.

    Counting over a digit-sum table peaks at 4 to 9 bytes of memory per
    entry, several GB from 2**30 entries on.
    """
