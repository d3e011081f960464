"""Exception hierarchy shared across the toolkit, and the one way inputs are
read: text as UTF-8, JSON decoded in one place (a document or a JSON-lines
file), and each record checked against its type's ``field_table`` by
``read_fields``, so that every fault is one error naming where it is.  The
C scanner of ``json`` decodes alone when it takes the whole text; any other
text (whitespace or data around the value, a BOM, a fault) goes to
``json.loads``, so values and messages are exactly ``json.loads``'s.
"""

import json
from contextlib import contextmanager
from functools import cached_property

_scan_once = json.JSONDecoder().scan_once


def excerpt(value: str, limit: int = 40) -> str:
    """``value`` quoted for an error line, cut after ``limit`` characters
    (then ``...``), so that one bad input value cannot make the line long."""
    return f"{value[:limit]!r}{'...' * (len(value) > limit)}"


class CnametrackError(Exception):
    """Base class for all toolkit errors."""


class InvalidHostname(CnametrackError):
    """Hostname is syntactically invalid (bad label, too long, empty)."""


class HostIsPublicSuffix(CnametrackError):
    """Host equals a public suffix (or is an IP literal); no registrable domain exists."""


class CnameCycle(CnametrackError):
    """CNAME resolution revisited a hostname."""

    def __init__(self, host: str, path: list[str]):
        super().__init__(f"CNAME cycle at {host}: {' -> '.join(path)}")
        self.host = host
        self.path = path


class InvalidCidr(CnametrackError):
    """A CIDR block string could not be parsed."""


class MalformedHar(CnametrackError):
    """HAR file violates the expected 1.2 structure."""

    def __init__(self, message: str, entry_index: int | None = None, path: str | None = None):
        if entry_index is not None:
            message = f"entry {entry_index}: {message}"
        super().__init__(f"{path}: {message}" if path is not None else message)
        self.entry_index = entry_index


class SchemaViolation(CnametrackError):
    """Capture/DNS/signature file violates its schema."""

    def __init__(self, message: str, line: int | None = None, path: str | None = None):
        loc = ":".join(str(p) for p in (path, line) if p is not None)
        super().__init__(f"{loc}: {message}" if loc else message)
        self.line = line
        self.path = path


class NonContiguousMonths(CnametrackError):
    """Month datasets do not form a contiguous descending sequence."""


class StaleInputs(CnametrackError):
    """Report inputs no longer match the digests recorded in their manifest."""


@contextmanager
def open_text(path, **kwargs):
    """Open an input file as UTF-8 text.  Reading a byte sequence that does
    not decode, anywhere in the ``with`` body, raises SchemaViolation naming
    the file instead of a bare UnicodeDecodeError."""
    with open(path, encoding="utf-8", **kwargs) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise SchemaViolation(f"not UTF-8 text: {exc.reason}", path=str(path)) from None


def _decoded(text: str, error, loc, path: str):
    try:
        try:
            value, end = _scan_once(text, 0)
            if end == len(text):
                return value
        except (StopIteration, ValueError):
            pass
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # a fault, too many digits or too deep nesting
        raise error(f"bad JSON: {exc}", loc, path) from None


def read_json(path, error=SchemaViolation):
    """The JSON document in file ``path``; bad JSON raises ``error`` naming the file."""
    with open_text(path) as fh:
        text = fh.read()
    return _decoded(text, error, None, str(path))


def json_lines(path):
    """(line number, value) of each non-blank line of a JSON-lines file; bad
    JSON raises a SchemaViolation naming the path and line."""
    path = str(path)
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if line:
                yield lineno, _decoded(line, SchemaViolation, lineno, path)


class Default(str):
    """A default no JSON value equals: ``REQUIRED``, or one the loader fills in."""


REQUIRED = Default("required")
KEEP, DROP = True, False
_NULL = type(None)


def list_of(what: str, element, null: bool = False):
    """The kind of a JSON list whose every element passes ``element``."""
    def check(value):
        return not value or all(map(element, value))
    check.element = element  # applied inline by ``FieldTable.read``
    return (f"a list of {what}" + (", or null" if null else ""), (list, _NULL) if null else (list,), check)


def one_of(values):
    """The kind of a string among ``values``."""
    values = tuple(values)
    return ("one of " + ", ".join(map(repr, values)), (str,), values.__contains__)


# A kind: (what a value must be, its exact JSON types, a check once the type passed or None)
STRING = ("a string", (str,), None)
STRING_OR_NULL = ("a string or null", (str, _NULL), None)
INTEGER = ("an integer", (int,), None)
BOOLEAN = ("a boolean", (bool,), None)
OBJECT = ("an object", (dict,), None)
OBJECT_OR_NULL = ("an object or null", (dict, _NULL), None)
STRINGS = list_of("strings", lambda v: type(v) is str)
OBJECTS = list_of("objects", lambda v: type(v) is dict)


class FieldTable(tuple):
    """A record type's rows ``(key, types, check, default, kept, label, what)``."""

    @cached_property
    def read(self):
        """``read(record.get)``: the kept values of a dict record, or None if a
        field is not of its kind.  Straight-line code compiled on first use:
        one ``get`` per row, then each exact-type test and check in row order,
        a list's element test inline and skipped when the list is empty."""
        names, gets, tests = {}, [], []
        for i, (key, types, check, default, *_) in enumerate(self):
            one, element = len(set(types)) == 1, getattr(check, "element", None)
            names.update({f"d{i}": default, f"t{i}": types[0] if one else types, f"c{i}": element or check})
            gets.append(f" v{i} = get({key!r}, d{i})\n")
            tests.append(f"type(v{i}) {'is' if one else 'in'} t{i}" + ("" if check is None else (
                f" and (not v{i} or all(map(c{i}, v{i})))" if element else f" and c{i}(v{i})")))
        kept = ", ".join(f"v{i}" for i, row in enumerate(self) if row[4])
        exec(f"def read(get):\n{''.join(gets)} if {' and '.join(tests)}:\n  return [{kept}]", names)
        return names["read"]


def field_table(*rows, prefix: str = ""):
    """A record type's fields from ``(key, kind, default, kept)`` rows, each
    named ``prefix + key`` in messages and docs.  A default's own type is
    accepted too: JSON decodes to no ``()`` or ``Default``."""
    return FieldTable((key, types if default is REQUIRED else (*types, type(default)), check, default, kept,
                       prefix + key, what)
                      for key, (what, types, check), default, kept in rows)


def read_fields(obj, table, error, loc, path: str, at: str = "") -> list:
    """The kept fields of record ``obj`` in ``table`` order, each its value or
    its default.  A record that is not an object, or a field missing or not of
    its kind, raises ``error(at + message, loc, path)``."""
    if type(obj) is not dict:
        raise error(f"{at}not an object", loc, path)
    values = table.read(obj.get)
    if values is None:  # name the first field, in table order, not of its kind
        for key, types, check, default, _kept, label, what in table:
            value = obj.get(key, default)
            if type(value) not in types or (check is not None and not check(value)):
                message = f"missing {label}" if value is REQUIRED else f"{label} must be {what}"
                raise error(at + message, loc, path)
    return values
