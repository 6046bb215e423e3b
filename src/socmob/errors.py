"""Exception hierarchy shared by all modules, and the checks that raise
ParseError for model dumps and input files that are not UTF-8."""

import json


class SocmobError(Exception):
    """Base class for all library errors."""


class NoData(SocmobError):
    """An operation received an empty history or dataset."""


class ParseError(SocmobError):
    """A malformed row in an input file.

    Attributes:
        line_no: 1-based line number of the offending row, when known.
    """

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


class IntegrityError(SocmobError):
    """Inconsistent references between loaded records."""


class InsufficientSpan(SocmobError):
    """The observation period is too short for the requested measure."""


class UnknownNode(SocmobError):
    """A graph query referenced a user that is not in the graph."""


class DegenerateInput(SocmobError):
    """A statistic is undefined for the given input (e.g. constant series)."""


class ModelEmpty(SocmobError):
    """A prediction was requested from an untrained model."""


class ConfigError(SocmobError):
    """A configuration parameter is out of its valid range."""


def dump_field(data, key: str, kind: type | tuple[type, ...], where: str):
    """``data[key]`` of a model dump, checked to be a ``kind``.

    A missing field, a ``data`` that is not an object, or a value of
    another type (booleans are not numbers here) raises ParseError naming
    ``where`` in the dump.
    """
    if not isinstance(data, dict):
        raise ParseError(f"{where}: expected an object, got {type(data).__name__}")
    if key not in data:
        raise ParseError(f"{where}: missing field {key!r}")
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ParseError(f"{where}: field {key!r} has type {type(value).__name__}")
    return value


def parse_dump(text: str):
    """The JSON value of a model dump; ParseError when it is not JSON."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"model dump is not JSON: {exc}") from None


def not_utf8(path) -> ParseError:
    """The ParseError of a file that is not UTF-8, naming the line of its
    first byte that is not.  That line is found in the raw bytes, as a
    text reader decodes ahead of the lines it has returned."""
    with open(path, "rb") as fh:
        raw = fh.read()
    line = None
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
    return ParseError("not UTF-8", line)
