"""Reference header and cookie derivation: the list-building loader code the
memoized ``ingest._LoadMemo`` replaced, kept verbatim as the oracle for
``test_headermemo``.  ``parse_set_cookie`` is the earlier parser of
``cnametrack.sitectx``, copied so a change there shows against this copy;
only its ``Expires`` and ``Max-Age`` branches are left, because expiry is the
one attribute a ``CookieAttributes`` keeps."""

from cnametrack.sitectx import CookieAttributes


def parse_set_cookie(header: str) -> CookieAttributes:
    """Parse a Set-Cookie header value (or document.cookie assignment string)."""
    parts = [p.strip() for p in header.split(";")]
    name, _, value = parts[0].partition("=")
    kwargs: dict = {"name": name.strip(), "value": value.strip()}
    for attr in parts[1:]:
        key, _, val = attr.partition("=")
        key = key.strip().lower()
        val = val.strip()
        if key == "expires" and val:
            kwargs["expires"] = val
        elif key == "max-age" and val:
            try:
                kwargs["max_age"] = int(val)
            except ValueError:
                pass
    return CookieAttributes(kwargs["name"], kwargs["value"],
                            is_session="expires" not in kwargs and "max_age" not in kwargs)


def _parse_cookie_header(value: str) -> list[tuple[str, str]]:
    cookies = []
    for part in value.split(";"):
        part = part.strip()
        if not part:
            continue
        name, _, val = part.partition("=")
        cookies.append((name.strip(), val.strip()))
    return cookies


def _read_headers(headers: list, response: bool, har: bool):
    """(pairs, derived, content_type) from a header list, or None when an
    element is not a string pair (HAR: an object with ``name`` and ``value``;
    JSONL: a two-element list).  The pass that validates the pairs derives
    the request's cookies and first Content-Type, or the response's
    Set-Cookie records (``content_type`` is then None)."""
    if not headers:
        return [], [], None
    pairs = []
    derived = []
    content_type = None
    for h in headers:
        if har:
            if not isinstance(h, dict):
                return None
            name, value = h.get("name"), h.get("value")
        elif isinstance(h, list) and len(h) == 2:
            name, value = h
        else:
            return None
        if not (isinstance(name, str) and isinstance(value, str)):
            return None
        pairs.append((name, value))
        key = name.lower()
        if response:
            if key == "set-cookie":
                derived.append(parse_set_cookie(value))
        elif key == "cookie":
            derived.extend(_parse_cookie_header(value))
        elif key == "content-type" and content_type is None:
            content_type = value
    return pairs, derived, content_type
