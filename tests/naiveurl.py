"""Reference URL splitting: every URL through ``urlsplit``.

The bodies of ``__post_init__`` below are the transaction's and the page
visit's URL parsing as they were before ``model.split_url`` gave them a
memoized fast path, with the one hostname rule (lower-case, no trailing
dots); the differential tests compare the two on any string.
"""

from __future__ import annotations

import sys
from urllib.parse import urlsplit


class NaiveTransaction:
    def __init__(self, request_url: str):
        self.request_url = request_url
        self.__post_init__()

    def __post_init__(self):
        parts = urlsplit(self.request_url)
        self.host = sys.intern((parts.hostname or "").lower().rstrip("."))
        self.scheme = sys.intern(parts.scheme.lower())
        try:  # a netloc without ":" has no port; skip parsing it again
            self.port = parts.port if ":" in parts.netloc else None
        except ValueError:  # not a number, or out of range
            self.port = -1
        path = parts.path or "/"
        self.path_and_query = f"{path}?{parts.query}" if parts.query else path


class NaivePageVisit:
    def __init__(self, page_url: str):
        self.page_url = page_url
        self.__post_init__()

    def __post_init__(self):
        parts = urlsplit(self.page_url)
        self.page_host = sys.intern((parts.hostname or "").lower().rstrip("."))
        self.page_scheme = sys.intern(parts.scheme.lower())


def naive_script_origin(url: str) -> str:
    """``JsCookieSet.script_origin`` and the leak initiator host, as before."""
    return (urlsplit(url).hostname or "").lower().rstrip(".")
