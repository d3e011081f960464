"""Command-line entry point wiring all analysis stages.

Subcommands: detect, leaks, defense, history, features, validate, report;
each takes only the flags its row of ``COMMANDS`` names.  Data goes to files
under --out; diagnostics go to stderr.  Exit codes: 0 success, 1 input/config
error (a missing required flag included), 2 usage error (an unknown flag, a
flag the command does not take, or --corpus with --har) or internal
invariant violation.
"""

from __future__ import annotations

import argparse
import logging
import sys
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import NamedTuple

from .dnsgraph import DEFAULT_MAX_DEPTH
from .errors import (KEEP, REQUIRED, STRING, CnametrackError, SchemaViolation, StaleInputs, field_table,
                     read_fields, read_json)
from .ingest import load_crawl_jsonl, load_dns, load_har, load_ranking, load_signatures
from .model import UaLabel
from .sitectx import PublicSuffixTable

# Stage modules are imported in the commands that run them, so that start-up
# loads only what the command needs.
log = logging.getLogger("cnametrack")

INPUT, SETTING = "input", "setting"  # what manifest.json records a flag's value as

# Each flag: what the manifest records it as (None: nothing), and its argparse settings.
FLAGS = {
    "corpus": (INPUT, {"help": "capture JSONL corpus"}),
    "har": (INPUT, {"help": "HAR 1.2 capture (alternative corpus input)"}),
    "dns": (INPUT, {"help": "DNS snapshot JSONL"}),
    "external-dns": (INPUT, {"help": "external DNS month-manifest JSON"}),
    "psl": (INPUT, {"help": "public suffix list file (bundled snapshot by default)"}),
    "filters": (INPUT, {"help": "Adblock-style filter list"}),
    "signatures": (INPUT, {"help": "tracker signature JSON"}),
    "ranking": (INPUT, {"help": "rank,domain CSV"}),
    "months": (INPUT, {"help": "month-manifest JSON for historical runs"}),
    "min-sites": (SETTING, {"type": int, "default": 100}),
    "max-depth": (SETTING, {"type": int, "default": DEFAULT_MAX_DEPTH}),
    "rank-bins": (SETTING, {"type": int, "default": 10000}),
    "ua-label": (SETTING, {"choices": ["chrome", "safari", "other"],
                           "help": "restrict corpus to one user-agent label"}),
    "threads": (None, {"type": int, "default": 1,
                       "help": "accepted for compatibility and ignored; runs are single-threaded"}),
    "out": (None, {"default": ".", "help": "output directory"}),
}
SHARED = ("psl", "ua-label", "out")  # taken by every command


class Command(NamedTuple):
    """A row of ``COMMANDS``.  ``"corpus|har"`` stands for either of the two
    flags, never both."""
    func: Callable[[argparse.Namespace], int]
    required: tuple[str, ...]  # checked in this order, before the command runs
    takes: tuple[str, ...]  # optional, besides SHARED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cnametrack")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.func.__doc__, allow_abbrev=False)
        for entry in (*command.required, *command.takes, *SHARED):
            group = p.add_mutually_exclusive_group() if "|" in entry else p
            for flag in entry.split("|"):
                group.add_argument(f"--{flag}", **FLAGS[flag][1])
        p.set_defaults(func=command.func)
    return parser


def _check_flag_values(args):
    """Reject a --max-depth or --rank-bins below 1 before any input is read."""
    for name in ("max_depth", "rank_bins"):
        value = getattr(args, name, 1)
        if value < 1:
            raise CnametrackError(f"--{name.replace('_', '-')} must be at least 1, not {value}")


def _require(args, *entries):
    """Exit 1 naming the first of ``entries`` (table entries) not given."""
    for entry in entries:
        first, *others = entry.split("|")
        if not any(getattr(args, flag.replace("-", "_")) for flag in (first, *others)):
            raise CnametrackError(f"missing required flag --{first}" + "".join(f" (or --{o})" for o in others))


def _load_psl(args) -> PublicSuffixTable:
    return PublicSuffixTable.from_file(args.psl) if args.psl else PublicSuffixTable.bundled()


def _load_corpus(args, psl):
    visits = load_crawl_jsonl(args.corpus, psl) if args.corpus else load_har(args.har, psl)
    return _ua_filter(args, visits)


def _ua_filter(args, visits):
    """The visits of the --ua-label user agent; all of them without the flag."""
    if not args.ua_label:
        return visits
    wanted = UaLabel(args.ua_label)
    return [v for v in visits if v.user_agent_label is wanted]


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _recorded(args, role) -> dict:
    """The values of the flags the command took that the manifest records as ``role``."""
    names = (flag.replace("-", "_") for flag, (kind, _spec) in FLAGS.items() if kind == role)
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _detection_pipeline(args, psl):
    from .detect import detect_publishers
    sigs = load_signatures(args.signatures)  # first: a bad signature fails before a large input is read
    corpus = _load_corpus(args, psl)
    dns = load_dns(args.dns, args.max_depth)
    detections = detect_publishers(corpus, dns, sigs, None, psl)
    return corpus, dns, sigs, detections


def cmd_detect(args) -> int:
    """Detect CNAME-tracking publishers and write publishers.json + summary.csv."""
    from . import reports
    psl = _load_psl(args)
    corpus, dns, sigs, detections = _detection_pipeline(args, psl)
    out = _out_dir(args)
    reports.write_detections(detections, out)
    reports.write_manifest(out, _recorded(args, INPUT), _recorded(args, SETTING))
    log.info("wrote %d detections to %s", len(detections), out)
    return 0


def cmd_leaks(args) -> int:
    """Run the cookie-leak and transport audit over detected tracker traffic."""
    from . import reports
    from .leaks import audit_leaks
    psl = _load_psl(args)
    corpus, dns, sigs, detections = _detection_pipeline(args, psl)
    result = audit_leaks(corpus, detections, sigs, psl)
    out = _out_dir(args)
    reports.write_leaks(result, out)
    reports.write_manifest(out, _recorded(args, INPUT), _recorded(args, SETTING))
    log.info("wrote %d leak findings to %s", len(result.findings), out)
    return 0


def cmd_defense(args) -> int:
    """Compare plain / uncloaked / sinkhole blocking over tracker transactions."""
    from . import reports
    from .defense import compare_defenses
    from .filterlist import load_filter_list
    psl = _load_psl(args)
    corpus, dns, sigs, detections = _detection_pipeline(args, psl)
    rules, stats = load_filter_list(args.filters)
    report = compare_defenses(corpus, detections, rules, dns)
    out = _out_dir(args)
    reports.write_defense(report, out)
    reports.write_manifest(out, _recorded(args, INPUT), _recorded(args, SETTING))
    return 0


def _load_month_manifest(path, shape: type):
    """A month manifest: a JSON ``list`` (--months) or ``dict`` (--external-dns)."""
    doc = read_json(path)
    if type(doc) is not shape:
        kind = "array" if shape is list else "object"
        raise SchemaViolation(f"month manifest must be a JSON {kind}", path=str(path))
    return doc


MONTH_ENTRY = field_table(("month", STRING, REQUIRED, KEEP),
                          ("corpus", STRING, REQUIRED, KEEP),
                          ("dns", STRING, REQUIRED, KEEP))


def _month_entries(args) -> list[list[str]]:
    """The --months manifest's (month, corpus, dns) entries, newest first, all
    checked, and the months' contiguity, before any corpus or DNS file is opened."""
    from .history import check_descending_contiguous, is_month
    entries = [read_fields(entry, MONTH_ENTRY, SchemaViolation, None, args.months, f"entry {i}: ")
               for i, entry in enumerate(_load_month_manifest(args.months, list))]
    for i, (month, _corpus, _dns) in enumerate(entries):
        if not is_month(month):
            raise SchemaViolation(f"entry {i}: month {month!r} is not YYYY-MM", path=args.months)
    entries.sort(reverse=True)
    check_descending_contiguous([month for month, _corpus, _dns in entries], args.months)
    return entries


def _load_months(args, entries, psl, seen=None) -> Iterator[MonthDataset]:
    """The months of ``entries``, each read only when the consumer reaches
    it, so that one month is in memory at a time.  ``seen`` is called with
    each month as it is read."""
    from .history import MonthDataset

    def read(entry) -> MonthDataset:
        name, corpus, dns = entry
        month = MonthDataset(name, _ua_filter(args, load_crawl_jsonl(corpus, psl)),
                             load_dns(dns, args.max_depth))
        if seen is not None:
            seen(month)
        return month

    return map(read, entries)


def cmd_history(args) -> int:
    """Backward-iterating monthly detection with IP-pool accumulation."""
    import csv
    from . import reports
    from .history import adoption_windows, backward_iterate
    psl = _load_psl(args)
    sigs = load_signatures(args.signatures)
    monthly = backward_iterate(_load_months(args, _month_entries(args), psl), sigs, psl)
    out = _out_dir(args)
    with open(out / "timeline.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["month", "tracker", "same_site_count", "cross_site_count"])
        rows = {}
        for m in monthly:
            for pub, tracker, ctx in m.publishers:
                key = (m.month, tracker)
                rows.setdefault(key, [0, 0])
                rows[key][0 if ctx.value == "same-site" else 1] += 1
        for (month, tracker), (s, c) in sorted(rows.items()):
            w.writerow([month, tracker, s, c])
    for m in monthly:
        reports.write_json(
            {"month": m.month, "pool": m.pool_snapshot,
             "detections": [reports.detection_to_dict(d) for d in m.detections]},
            out / f"month_{m.month}.json",
        )
    adoptions = adoption_windows(monthly)
    reports.write_json({"adoptions": [
        {"publisher": p, "tracker": t, "month": mo} for p, t, mo in adoptions
    ]}, out / "adoptions.json")
    reports.write_manifest(out, _recorded(args, INPUT), _recorded(args, SETTING))
    return 0


def cmd_features(args) -> int:
    """Candidate discovery and assisted-detection feature extraction."""
    from . import reports
    from .detect import candidate_scan, extract_features, heuristic_flag
    psl = _load_psl(args)
    corpus = _load_corpus(args, psl)
    dns = load_dns(args.dns, args.max_depth)
    candidates = candidate_scan(corpus, dns, psl, min_sites=args.min_sites)
    rows = []
    for agg in candidates:
        fv = extract_features(agg)
        rows.append({
            "target": agg.target_etld1,
            "sites": fv.sites,
            "hostnames": fv.hostnames,
            "mean_unique_paths_per_site": fv.mean_unique_paths_per_site,
            "mean_requests_per_site": fv.mean_requests_per_site,
            "pct_responses_setting_cookie": fv.pct_responses_setting_cookie,
            "pct_requests_sending_cookie": fv.pct_requests_sending_cookie,
            "bucket_count": fv.bucket_count,
            "flag": heuristic_flag(fv).value,
        })
    out = _out_dir(args)
    reports.write_json({"candidates": rows}, out / "features.json")
    reports.write_manifest(out, _recorded(args, INPUT), _recorded(args, SETTING))
    return 0


def cmd_validate(args) -> int:
    """Cross-validate historical detections against external DNS data."""
    from . import reports
    from .dnsgraph import IpPool
    from .history import MonthDataset, backward_iterate, cross_validate, external_trackers, host_paths, is_month
    psl = _load_psl(args)
    sigs = load_signatures(args.signatures)
    ext_manifest = _load_month_manifest(args.external_dns, dict)
    for month, path in ext_manifest.items():
        if not is_month(month):
            raise SchemaViolation(f"month {month!r}: not YYYY-MM", path=args.external_dns)
        if not isinstance(path, str):
            raise SchemaViolation(f"month {month!r}: path must be a string", path=args.external_dns)
    entries = _month_entries(args)
    external = {month: load_dns(path, args.max_depth) for month, path in ext_manifest.items()}
    trackers = external_trackers(external, sigs)
    paths: dict[str, dict[str, set[str]]] = {}

    def keep_paths(month: MonthDataset):  # of the hosts cross_validate looks up
        if month.month in trackers:
            paths[month.month] = host_paths(month.corpus, trackers[month.month])

    pool = IpPool()
    monthly = backward_iterate(_load_months(args, entries, psl, keep_paths), sigs, psl, pool=pool)
    report = cross_validate(monthly, external, trackers, paths, sigs, pool)
    out = _out_dir(args)
    reports.write_json({"correctness": report.correctness,
                        "completeness": report.completeness},
                       out / "validation.json")
    reports.write_manifest(out, _recorded(args, INPUT), _recorded(args, SETTING))
    return 0


def cmd_report(args) -> int:
    """Write rank bins (--ranking) and the filter-list co-occurrence fraction (--corpus, --filters)."""
    from . import reports
    cooccurrence = bool(args.corpus or args.har or args.filters)
    if cooccurrence:  # a corpus and a filter list, or neither
        _require(args, "corpus|har", "filters")
    psl = _load_psl(args)
    out = _out_dir(args)
    if not reports.check_manifest(out):
        raise StaleInputs(f"inputs changed since the manifest in {out} was written")
    pubs_path = out / "publishers.json"
    if not pubs_path.exists():
        raise CnametrackError(f"no publishers.json in {out}; run detect first")
    detections = reports.load_detections(pubs_path)
    if args.ranking:
        ranking = load_ranking(args.ranking)
        bins = reports.rank_bins(detections, ranking, bin_size=args.rank_bins)
        reports.write_rank_bins(bins, out)
    if cooccurrence:
        from .filterlist import load_filter_list
        corpus = _load_corpus(args, psl)
        rules, _stats = load_filter_list(args.filters)
        frac = reports.cooccurrence_fraction(corpus, detections, rules, psl)
        reports.write_json({"third_party_cooccurrence_fraction": frac},
                           out / "cooccurrence.json")
    return 0


COMMANDS = {
    "detect": Command(cmd_detect, ("dns", "signatures", "corpus|har"), ("max-depth", "threads")),
    "leaks": Command(cmd_leaks, ("dns", "signatures", "corpus|har"), ("max-depth", "threads")),
    "defense": Command(cmd_defense, ("filters", "dns", "signatures", "corpus|har"), ("max-depth", "threads")),
    "history": Command(cmd_history, ("signatures", "months"), ("max-depth", "threads")),
    "features": Command(cmd_features, ("dns", "corpus|har"), ("min-sites", "max-depth", "threads")),
    "validate": Command(cmd_validate, ("signatures", "external-dns", "months"), ("max-depth", "threads")),
    "report": Command(cmd_report, (), ("corpus|har", "filters", "ranking", "rank-bins")),
}


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flag_values(args)
        _require(args, *COMMANDS[args.command].required)
        return args.func(args)
    except (CnametrackError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
