"""Exception types shared across the simulator."""


class ConfigurationError(ValueError):
    """A configuration value is missing, malformed, or inconsistent."""


class NumericalError(RuntimeError):
    """A numerical routine left its validated regime (non-PSD matrix, singular solve, ...)."""


class SimulationError(RuntimeError):
    """An episode aborted; the message carries episode and step context."""
