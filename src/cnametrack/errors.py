"""Exception hierarchy shared across the toolkit, and the one way inputs are
opened so that a byte that is not UTF-8 is an error naming the file."""

from contextlib import contextmanager


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
        self.reason = message
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
