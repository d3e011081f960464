"""Run one cnametrack CLI command in-process with spans and counters.

    python perfbench/tracer.py TRACE_OUT.json <cli argv...>

Wrappers are installed from here; the package is not modified.  Stage-level
public functions get one span per call (name, start, end, parent).  Hot
public functions get an aggregated call count and inclusive time instead of
a span per call.  Every module namespace holding a wrapped function under
its own name (``detect.resolve_chain``, ``history.detect_publishers``, ...)
is patched, so no counter silently reads zero.  The trace is written as
JSON when the command returns; the exit code is the command's.
"""

from __future__ import annotations

import json
import sys
import time
from types import ModuleType

perf = time.perf_counter

SPANS = [
    ("ingest", "load_crawl_jsonl"), ("ingest", "load_har"), ("ingest", "load_dns"),
    ("ingest", "load_signatures"), ("ingest", "load_ranking"),
    ("filterlist", "load_filter_list"),
    ("detect", "detect_publishers"), ("detect", "candidate_scan"),
    ("leaks", "audit_leaks"), ("leaks", "build_inventory"), ("leaks", "build_value_site_index"),
    ("leaks", "filter_candidates"), ("leaks", "find_header_leaks"), ("leaks", "find_post_leaks"),
    ("leaks", "find_url_leaks"), ("leaks", "transport_audit"),
    ("defense", "compare_defenses"),
    ("history", "backward_iterate"), ("history", "adoption_windows"), ("history", "cross_validate"),
    ("reports", "write_json"), ("reports", "write_manifest"), ("reports", "write_detections"),
    ("reports", "write_leaks"), ("reports", "write_defense"), ("reports", "write_rank_bins"),
    ("reports", "cooccurrence_fraction"),
]

COUNTERS = [
    ("sitectx", "PublicSuffixTable.etld_plus_one_or_none"), ("sitectx", "Origin.from_url"),
    ("dnsgraph", "resolve_chain"), ("dnsgraph", "IpPool.contains"),
    ("dnsgraph", "IpPool.add_address"), ("dnsgraph", "IpPool.add_range"),
    ("detect", "signature_match_route"),
    ("defense", "match_plain"), ("defense", "match_sinkhole"), ("defense", "UncloakCache.get"),
    ("filterlist", "FilterRule.matches"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counters: dict[str, dict] = {}
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []

    def add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    # -- wrappers -------------------------------------------------------------

    def span(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            if before:
                before(args, kwargs)
            idx = len(spans)
            spans.append([name, perf(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf()
            if after:
                after(result)
            return result
        return wrapper

    def counter(self, name, fn, key=None, hit=None, on_error=None):
        c = self.counters[name] = {"calls": 0, "s": 0.0, "hits": 0, "distinct": set()}
        distinct = c["distinct"]

        def wrapper(*args, **kwargs):
            t = perf()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error:
                    on_error(exc)
                raise
            finally:
                c["s"] += perf() - t
                c["calls"] += 1
            if key:
                distinct.add(key(args))
            if hit and hit(result):
                c["hits"] += 1
            return result
        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self):
        import importlib
        modules = {name: importlib.import_module(f"cnametrack.{name}") for name, _ in SPANS + COUNTERS}
        namespaces = [m for n, m in sys.modules.items()
                      if isinstance(m, ModuleType) and (n == "cnametrack" or n.startswith("cnametrack."))]
        hooks = self._hooks()
        for mod, name in SPANS:
            before, after = hooks.get(name, (None, None))
            self._patch(modules[mod], name, namespaces,
                        lambda fn, n=name, b=before, a=after: self.span(n, fn, b, a))
        for mod, name in COUNTERS:
            opts = hooks.get(name, {})
            self._patch(modules[mod], name, namespaces, lambda fn, n=name, o=opts: self.counter(n, fn, **o))

    def _patch(self, module, dotted, namespaces, make):
        owner_name, _, attr = dotted.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(f"{module.__name__}.{dotted}")
                return
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(make(raw.__func__)))
            else:
                setattr(owner, attr, make(raw))
            return
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{dotted}")
            return
        wrapped = make(original)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapped)

    def _hooks(self):
        from cnametrack.errors import CnameCycle

        def evidence(detections, tracker_id):
            return len({(r.visit_id, r.index) for d in detections if d.tracker_id == tracker_id
                        for r in d.evidence})

        def pairs(args, kwargs):
            _corpus, filtered, detections, sig = args[:4]
            self.add("leaks.search_pairs", evidence(detections, sig.tracker_id) * len(filtered))

        def filter_stats(result):
            _rules, stats = result
            self.counts["filterlist.rules"] = stats.rules
            self.counts["filterlist.inert_rules"] = stats.inert

        def cycle(exc):
            if isinstance(exc, CnameCycle):
                self.add("dnsgraph.cycles", 1)

        return {
            "load_crawl_jsonl": (None, lambda r: self.add("ingest.transactions",
                                                          sum(len(v.transactions) for v in r))),
            "load_har": (None, lambda r: self.add("ingest.transactions", sum(len(v.transactions) for v in r))),
            "load_filter_list": (None, filter_stats),
            "detect_publishers": (None, lambda r: self.add("detect.detections", len(r))),
            "filter_candidates": (None, lambda r: self.add("leaks.candidates", len(r))),
            "find_header_leaks": (pairs, None),
            "find_post_leaks": (pairs, None),
            "find_url_leaks": (pairs, None),
            "audit_leaks": (None, lambda r: self.add("leaks.findings", len(r.findings))),
            "compare_defenses": (None, lambda r: self.add("defense.evidence_txns", len(r.verdicts))),
            "PublicSuffixTable.etld_plus_one_or_none": {"key": lambda a: a[1]},
            "resolve_chain": {"key": lambda a: (id(a[1]), a[0]), "hit": lambda r: r.truncated, "on_error": cycle},
            "signature_match_route": {"hit": lambda r: r is not None},
            "UncloakCache.get": {"hit": lambda r: r is not None},
            "FilterRule.matches": {"hit": bool},
        }

    def dump(self, path, rc, wall):
        counters = {n: {"calls": c["calls"], "s": c["s"], "hits": c["hits"], "distinct": len(c["distinct"])}
                    for n, c in self.counters.items()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"rc": rc, "wall": wall, "spans": self.spans, "counters": counters,
                       "counts": self.counts, "missing": self.missing}, fh)


def main(argv: list[str]) -> int:
    out, cli_argv = argv[0], argv[1:]
    start = perf()
    import cnametrack.cli as cli

    tracer = Tracer()
    tracer.install()
    for name in tracer.missing:
        print(f"tracer: {name} not found; its metric reads zero", file=sys.stderr)
    rc = cli.main(cli_argv)
    tracer.dump(out, rc, perf() - start)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
