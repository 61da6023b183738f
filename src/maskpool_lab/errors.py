"""Exception types shared across the package, and the JSON file reader that raises them."""

import json


class ConfigurationError(ValueError):
    """Invalid configuration or shape/argument mismatch caught before work starts."""


class ParseError(ValueError):
    """Malformed input file.  Carries the offending path and byte offset."""

    def __init__(self, path, offset, message):
        super().__init__(f"{path}: byte {offset}: {message}")
        self.path = str(path)
        self.offset = int(offset)


class NumericError(ArithmeticError):
    """NaN or Inf appeared where only finite values are allowed."""


class TrainingDiverged(NumericError):
    """Loss became non-finite during training."""

    def __init__(self, iteration, layer, message=""):
        detail = f" ({message})" if message else ""
        super().__init__(f"non-finite loss at iteration {iteration}, first bad layer: {layer}{detail}")
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
