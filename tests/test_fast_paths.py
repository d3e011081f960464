"""Each fast path equals its simple reference.

- ``errors._decoded`` runs the C scanner alone before ``json.loads``: it
  must give ``json.loads``'s value, or ``bad JSON: `` and ``json.loads``'s
  message, for every text.
- ``errors.read_fields`` applies a table through code compiled from its
  rows: on every declared table it must give what ``naivefields`` (the
  row-by-row loop) gives, the same values or the same message.
- ``sitectx.is_ip_literal`` answers most hostnames without ``ipaddress``: it
  must agree with ``ipaddress.ip_address`` on every string.

Examples are derandomized with a fixed budget, so the run is the same every
time.
"""

import ipaddress
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import naivefields
from cnametrack import cli, ingest, reports
from cnametrack.detect import Context, Mechanism
from cnametrack.errors import FieldTable, SchemaViolation, _decoded, read_fields
from cnametrack.sitectx import is_ip_literal

EQUAL = settings(derandomize=True, max_examples=400, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def _outcome(decode, text):
    try:
        return "value", repr(decode(text))  # repr: NaN equals itself, 1 differs from 1.0 and True
    except SchemaViolation as exc:
        return "error", str(exc)


def _json_loads(text):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SchemaViolation(f"bad JSON: {exc}", 3, "p") from None


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)
SPECIAL = ["NaN", "-Infinity", '{"a": Infinity}', "[NaN, 1e999]", '"\\ud800"', '"\ud800"', '["\\udc00x"]',
           '{"\\ud83d": 1}', "1" * 5000, "", "[1,]", '{"a" 1}', "tru", "[]]", '"\\x"']
pads = (st.sampled_from(["", " ", "\t", "\n", "\r\n "])  # JSON whitespace
        | st.sampled_from(["\ufeff", "\u00a0", "x", ",", "]", "}", " 1", "0", "//"]))


def _nested(depth: int, opener: str, closed: bool) -> str:
    closer = "]" if opener == "[" else "}"
    return opener * depth + ("0" + closer * depth) * closed


documents = (json_values.map(json.dumps) | st.sampled_from(SPECIAL)
             | st.builds(_nested, st.integers(1, 40) | st.sampled_from([5000, 100_000]),
                         st.sampled_from(["[", '{"a":']), st.booleans()))
texts = documents | st.tuples(pads, documents, pads).map("".join) | st.text(max_size=12)


@EQUAL
@given(texts, st.data())
def test_decoded_equals_json_loads(text, data):
    if text and data.draw(st.integers(0, 3)) == 0:  # one character replaced, dropped or doubled
        i = data.draw(st.integers(0, len(text) - 1))
        text = text[:i] + data.draw(st.sampled_from(["", '"', ",", ":", "\\", " ", text[i] * 2])) + text[i + 1:]
    assert _outcome(lambda t: _decoded(t, SchemaViolation, 3, "p"), text) == _outcome(_json_loads, text)


TABLES = {f"{module.__name__.rpartition('.')[2]}.{name}": value
          for module in (ingest, cli, reports) for name, value in vars(module).items()
          if isinstance(value, FieldTable)}
CANDIDATES = [
    "", "x", "v1", "GET", "required", "https://a.com/x", "http://[::1", "2020-10", "A", "CNAME",
    *(c.value for c in Context), *(m.value for m in Mechanism),
    0, 1, -1, 7, 1.5, True, False, None, {}, {"a": 1}, {"stack": None}, {"answers": []},
    [], ["x"], [5], ["https://a.com/"], ["http://[::1"], ["https://a.com/", 5],
    [["a", "b"]], [["a", 5]], [["a", "b"], ["c"]], [{"name": "a", "value": "b"}], [{"name": 5, "value": "b"}],
    [{}], [{"url": None}], [{"url": "https://a.com/"}], [{"url": "http://[::1"}], [{"url": 5}],
    [{"location": "cookie", "name": "uid"}], [{"type": "A", "answer": "1.2.3.4"}], [{}, 5],
]
NON_OBJECTS = [None, 5, "x", [], [{}], True]
# each table's rows, with the candidates that pass the row, so most drawn records get far
GOOD = {name: [(key, [v for v in CANDIDATES if type(v) in types and (check is None or check(v))])
               for key, types, check, *_ in table]
        for name, table in TABLES.items()}


def _read(reader, obj, table):
    try:
        return "values", [id(v) for v in reader(obj, table, SchemaViolation, 3, "p", "record 1: ")]
    except SchemaViolation as exc:
        return "error", str(exc)


def test_every_table_is_drawn():
    assert len(TABLES) >= 19


@EQUAL
@given(st.data())
def test_read_fields_equals_the_row_by_row_loop(data):
    name = data.draw(st.sampled_from(sorted(TABLES)))
    if data.draw(st.integers(0, 19)) == 0:
        obj = data.draw(st.sampled_from(NON_OBJECTS))
    else:
        obj = {}
        for key, good in GOOD[name]:
            pick = data.draw(st.integers(0, 9))
            if pick < 7 and good:
                obj[key] = data.draw(st.sampled_from(good))
            elif pick < 9:
                obj[key] = data.draw(st.sampled_from(CANDIDATES))
            # else absent
    table = TABLES[name]
    assert _read(read_fields, obj, table) == _read(naivefields.read_fields, obj, table)


def _ip_literal(host: str) -> bool:
    try:
        ipaddress.ip_address(host.strip("[]"))
        return True
    except ValueError:
        return False


hosts = (st.text(alphabet="0123456789abcdefABCDEF.:[]%\u0663\u00b2 \t\nxg-", max_size=24)
         | st.tuples(st.sampled_from(["", "[", "[[", " ", "x", "0"]), st.ip_addresses().map(str),
                     st.sampled_from(["", "]", ".", " ", "%eth0", "%1]", "\u0663", "\n", "x", ":", "0"])).map("".join)
         | st.text(max_size=12))


@EQUAL
@given(hosts)
def test_is_ip_literal_equals_ipaddress(host):
    assert is_ip_literal(host) == _ip_literal(host)
