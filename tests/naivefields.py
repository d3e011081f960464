"""The field-table reader as first written: one walk over a table's rows per
record, unpacking every 7-field row.  ``errors.read_fields`` must return the
same values, or raise the same message, for every record and table; the
Hypothesis test in ``test_fast_paths.py`` holds it to this."""

from cnametrack.errors import REQUIRED


def read_fields(obj, table, error, loc, path: str, at: str = "") -> list:
    """The kept fields of record ``obj`` in ``table`` order, each its value or
    its default.  A record that is not an object, or a field missing or not of
    its kind, raises ``error(at + message, loc, path)``."""
    if type(obj) is not dict:
        raise error(f"{at}not an object", loc, path)
    get = obj.get
    values = []
    for key, types, check, default, kept, label, what in table:
        value = get(key, default)
        if type(value) not in types or (check is not None and not check(value)):
            message = f"missing {label}" if value is REQUIRED else f"{label} must be {what}"
            raise error(at + message, loc, path)
        if kept:
            values.append(value)
    return values
