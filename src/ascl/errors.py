"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Tensor shapes are incompatible for the requested operation."""


class DomainError(ValueError):
    """An input lies outside the mathematical domain of the operation."""


class ContractError(ValueError):
    """A documented precondition was violated by the caller."""


class ConfigError(ValueError):
    """Invalid model or run configuration."""


class FormatError(ValueError):
    """A serialized file is malformed; message carries the byte offset."""


class TrainingAborted(RuntimeError):
    """Training stopped early (non-finite loss); partial metrics were flushed."""
