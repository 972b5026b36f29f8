"""Exception hierarchy shared across the package."""


class PoisonRidgeError(Exception):
    """Base class for all library errors."""


class InvalidShape(PoisonRidgeError, ValueError):
    """Aspect ratio or matrix size out of range (c must be positive and finite, p and n >= 1)."""


# --- Marchenko-Pastur transforms ---

class NonNegativeZ(PoisonRidgeError):
    """Evaluation point z must be strictly negative."""


class NumericalBranchFailure(PoisonRidgeError):
    """The square-root branch produced a non-positive transform value."""


class NonFiniteTransform(PoisonRidgeError):
    """A transform value overflows double precision: |z| (lambda) is too small."""


# --- closed-form predictions ---

class InvalidLambda(PoisonRidgeError):
    """Ridge penalty out of range: negative or not finite, or zero where lambda > 0 is needed."""


class NegativeVariance(PoisonRidgeError):
    """Computed variance is negative beyond floating-point tolerance."""


class InterpolationThreshold(PoisonRidgeError):
    """Ridgeless variance diverges for aspect ratio c >= 1."""


class ThetaOutOfRange(PoisonRidgeError):
    """Poison fraction must lie in [0, 1]."""


class InvalidTriggerNorm(PoisonRidgeError, ValueError):
    """Trigger norm must be nonnegative and finite, with a finite square for the closed form."""


# --- simulator ---

class SolveFailure(PoisonRidgeError):
    """A regularized Gram is not finite or not positive definite, or a residual is too large."""


class NoBundledOpenBLAS(PoisonRidgeError):
    """numpy does not link the OpenBLAS its wheel bundles, whose LAPACK the solves call."""


class InvalidTestCount(PoisonRidgeError, ValueError):
    """The Monte Carlo efficacy needs at least one test point (m_test >= 1)."""


class InvalidTrialCount(PoisonRidgeError, ValueError):
    """A run needs at least one trial per grid point (trials >= 1)."""


class InvalidWorkerCount(PoisonRidgeError, ValueError):
    """A run needs at least one worker process (workers >= 1)."""


class InvalidSeed(PoisonRidgeError, ValueError):
    """A master seed must be a nonnegative integer, as `numpy.random.SeedSequence` needs."""


# --- low-rank updates ---

class InnerSingular(PoisonRidgeError):
    """The small inner matrix of the low-rank update is numerically singular."""


class NonFiniteParameter(PoisonRidgeError, ValueError):
    """A resolvent check's spike strength tau or evaluation point z is infinite or NaN."""


# --- MNIST / IDX ---

class BadMagic(PoisonRidgeError):
    """IDX header magic does not match the expected value."""


class TruncatedFile(PoisonRidgeError):
    """IDX byte stream ends before the header or payload is complete."""


class CountMismatch(PoisonRidgeError):
    """Image and label files disagree on the sample count."""


class NoSamplesForDigit(PoisonRidgeError):
    """Requested digit is absent from the label file."""


class SameDigits(PoisonRidgeError, ValueError):
    """The binary task needs two different digits."""


class PatchOutOfBounds(PoisonRidgeError):
    """Trigger patch is empty or does not fit inside the image."""


class SubsampleTooLarge(PoisonRidgeError):
    """Requested subsample exceeds the available sample count."""


# --- sweep / report ---

class EmptyGroup(PoisonRidgeError):
    """Aggregation requires at least one valid record per grid point."""


class EmptyGrid(PoisonRidgeError, ValueError):
    """A run needs at least one grid point: a comma-separated list was empty."""


class SchemaMismatch(PoisonRidgeError):
    """Input CSV does not carry the expected sweep-record columns."""


class UnknownAxis(PoisonRidgeError, KeyError):
    """A report axis that is not one of the sweep's parameters."""


class InvalidManifest(PoisonRidgeError, ValueError):
    """A rerun input that is not a manifest.json written by a run."""
