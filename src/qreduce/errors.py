"""Exception types shared across the package."""


class QReduceError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(QReduceError):
    """Operands live in incompatible or unsupported dimensions."""


class NonHermitianError(QReduceError):
    """A matrix that must be Hermitian is not, beyond tolerance."""


class NonCommutingError(QReduceError):
    """A quantity set contains a pair with a non-negligible commutator."""


class NonRealExpectationError(QReduceError):
    """An expectation value carries an imaginary residue above tolerance.

    Signals operator corruption: expectations of Hermitian quantities on
    normalized states are real up to roundoff.
    """


class VanishingNormError(QReduceError):
    """A hitting annihilated the state (squared norm below 1e-300).

    The exact mixture sampler cannot produce such centres, so this marks a
    bug or an adversarial centre. Carries the trajectory seed when raised
    inside a simulation, for reproduction.
    """

    def __init__(self, message: str, seed: int | None = None):
        super().__init__(message)
        self.seed = seed


class StepRejectedError(QReduceError):
    """A single diffusive step changed the norm by more than 50%.

    The step size is too large for the chosen strength; reduce dt.
    """

    def __init__(self, message: str, seed: int | None = None):
        super().__init__(message)
        self.seed = seed


class ConfigError(QReduceError):
    """A scenario configuration is invalid. Names the offending key."""

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key
