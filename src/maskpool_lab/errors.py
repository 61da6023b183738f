"""Exception types shared across the package, the JSON file reader and the
config number checks that raise them, and the one JSON file writer."""

import json
import math
import numbers


class ConfigurationError(ValueError):
    """Invalid configuration or shape/argument mismatch caught before work starts."""


class ParseError(ValueError):
    """Malformed input file.  Carries the offending path and byte offset."""

    def __init__(self, path, offset, message):
        super().__init__(f"{path}: byte {offset}: {message}")
        self.path = str(path)
        self.offset = int(offset)


class TrainingDiverged(ArithmeticError):
    """Loss became non-finite during training."""

    def __init__(self, iteration, layer):
        super().__init__(f"non-finite loss at iteration {iteration}, first bad layer: {layer}")
        self.iteration = iteration
        self.layer = layer


def load_json(path, missing: str):
    """The parsed JSON file at ``path``.  No such file raises ConfigurationError
    with the message ``missing``; bytes that are not UTF-8 JSON raise ParseError
    at the byte where decoding stopped."""
    try:
        with open(path, "rb") as f:
            return json.loads(f.read())
    except FileNotFoundError:
        raise ConfigurationError(missing) from None
    except UnicodeDecodeError as e:
        raise ParseError(path, e.start, "not UTF-8 text") from None
    except json.JSONDecodeError as e:
        raise ParseError(path, len(e.doc[:e.pos].encode()), e.msg) from None


def check_number(value, key: str, integer: bool = False, minimum=None):
    """``value`` if it is a finite number (an integer when ``integer``) of at least ``minimum``;
    anything else, a bool or a numeric string included, raises ConfigurationError naming ``key``."""
    kind = numbers.Integral if integer else numbers.Real
    if (isinstance(value, bool) or not isinstance(value, kind)
            or not (integer or math.isfinite(value)) or (minimum is not None and value < minimum)):
        what = "an integer" if integer else "a finite number"
        raise ConfigurationError(f"{key} must be {what}{'' if minimum is None else f' >= {minimum}'}, "
                                 f"got {value!r}")
    return value


def check_numbers(values, key: str, **bounds) -> tuple:
    """``values``, a list of numbers that each pass ``check_number(..., **bounds)``, as a tuple."""
    if not isinstance(values, (list, tuple)):
        raise ConfigurationError(f"{key} must be a list of numbers, got {values!r}")
    return tuple(check_number(v, f"{key} entry", **bounds) for v in values)


def write_json(path, doc) -> None:
    """Every JSON file the package writes: sorted keys, one-space indent, final newline."""
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
