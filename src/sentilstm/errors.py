"""Exception types shared across the package, the one rule for config options, and
the size check that numpy's own refusal would turn into a traceback."""

import dataclasses
import math
import numbers
import operator
import sys


class SentiError(Exception):
    """Base class for all errors raised by this package."""


class DatasetError(SentiError):
    """Malformed dataset file or invalid label."""


class FormatError(SentiError):
    """Corrupt, truncated, or incompatible on-disk artifact."""


class TrainingError(SentiError):
    """Training aborted (non-finite loss, inconsistent inputs)."""


class OptionError(SentiError, ValueError):
    """A config option of the wrong type, outside its choices or out of range."""


def option(default, help, *, choices=None, at_least=None, above=None, below=None,
           non_empty=False):
    """A config field with the help text, choices and bounds that every value
    it takes is held to; None passes only if the field defaults to None."""
    return dataclasses.field(default=default, metadata=dict(
        help=help, choices=choices, non_empty=non_empty, at_least=at_least, above=above, below=below))


_KINDS = {int: numbers.Integral, float: numbers.Real, str: str}
_BOUNDS = (("at_least", ">=", operator.ge), ("above", ">", operator.gt),
           ("below", "<", operator.lt))


def shown(value):
    """repr(value), or for an int too long for repr a description of it."""
    try:
        return repr(value)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        sign = "a negative" if value < 0 else "an"
        return f"{sign} int of more than {sys.get_int_max_str_digits()} digits"


def check_allocatable(shape, itemsize=8):
    """MemoryError, like numpy's for a request it cannot meet, for an array whose
    byte count overflows int64 (numpy refuses those with a ValueError)."""
    if math.prod(shape) * itemsize > sys.maxsize:
        raise MemoryError(f"Unable to allocate an array of shape ({', '.join(map(shown, shape))}): "
                          "its byte count overflows int64")


def check_options(config):
    """Hold each `option` field of a config dataclass to its declaration."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if not f.metadata or value is None and f.default is None:
            continue  # not an option, or unset: the consumer resolves it
        if isinstance(value, bool) or not isinstance(value, _KINDS[f.type]):
            raise OptionError(f"{f.name} must be of type {f.type.__name__}, got {shown(value)}")
        if f.type is float and (abs(value) > sys.float_info.max if isinstance(value, int)
                                else math.isinf(value)):  # an int past any float, or inf
            raise OptionError(f"{f.name} must be finite, got {shown(value)}")
        choices = f.metadata["choices"]
        if choices and value not in choices:
            raise OptionError(f"{f.name} must be one of {', '.join(choices)}, got {shown(value)}")
        if f.metadata["non_empty"] and not value:
            raise OptionError(f"{f.name} must not be empty")
        for key, symbol, holds in _BOUNDS:
            bound = f.metadata[key]
            # `not holds` also rejects NaN
            if bound is not None and not holds(value, bound):
                raise OptionError(f"{f.name} must be {symbol} {bound}, got {shown(value)}")
