"""Exception types and the checks that raise them."""

import numbers

import numpy as np


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


def check_integer(v, what, low=1):
    """``v`` as an int; ContractError unless it is an integer >= ``low``, bools excluded."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral) or v < low:
        kind = "positive" if low else "nonnegative"
        raise ContractError(f"{what} must be {kind} integers, got {v!r}")
    return int(v)


def check_real(v, what):
    """``v`` as a float; ContractError unless it is a real number, bools and strings
    excluded. NaN passes: callers bound the result with comparisons NaN fails."""
    # a float skips the slow abstract-class check
    if type(v) is not float and (isinstance(v, bool) or not isinstance(v, numbers.Real)):
        raise ContractError(f"{what} must be a real number, got {v!r}")
    return float(v)


def check_seed(v, what):
    """``v`` as an int; ContractError unless it is an integer in [0, 2**64)."""
    if (v := check_integer(v, what, low=0)) >= 2**64:
        raise ContractError(f"{what} must lie in [0, 2**64), got {v}")
    return v


def check_labels(labels, num_classes, n):
    """``labels`` as an intp array; ContractError unless it is (n,) integers, each in
    [0, num_classes) unless ``num_classes`` is None."""
    labels = (given := np.asarray(labels)).astype(np.intp, copy=False)
    if given.dtype.kind not in "iu" and np.any(labels != given):
        raise ContractError("labels must be integers")
    if labels.shape != (n,):
        raise ContractError(f"labels of shape {labels.shape} do not match {n} samples")
    # viewed as unsigned, a negative label lies above every class index
    if num_classes is not None and np.count_nonzero(labels.view(np.uintp) >= num_classes):
        raise ContractError("labels must lie in [0, number of classes)")
    return labels


def check_batch(x, width, what):
    """``x`` as a float64 array; DimensionError unless it is (N, width)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != width:
        raise DimensionError(f"{what} must be (N, {width}), got {x.shape}")
    return x
