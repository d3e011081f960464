"""Seeded input generator for the cnametrack benchmark.

Each workload builder writes its input files into a directory and returns a
``Workload``: the command sequence to run, the corpus transaction count and
the planted ground truth that ``checks.py`` compares the outputs against.
The same seed gives byte-identical files.  This module imports neither the
package nor its tests, so editing either cannot silently change a workload.

Generation is benchmark set-up and is never timed.

Every share below (site kinds, the filler mix, rule kinds and options) is
an unverified assumption, chosen to put load on the layer each workload
measures.  None is taken from a measured crawl or a published filter list;
perfbench/README.md lists them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from urllib.parse import quote

PERSIST = "Expires=Wed, 01 Jan 2031 00:00:00 GMT"
TLDS = ("com", "com", "com", "net", "org", "de", "nl", "co.uk", "io", "com.fr")
SYLLABLES = ("ka", "lo", "mi", "ne", "ru", "ta", "vi", "so", "be", "da",
             "fe", "gu", "hi", "jo", "pa", "ri", "su", "to", "wa", "ye")
# Path tags shared by several trackers: a path match alone never decides
# which tracker a request belongs to; the CNAME hop or the address does.
TAGS = ("ea", "ss", "px", "tr", "mx")
LABELS = ("metrics", "smetrics", "stats", "data", "t", "analytics", "sa", "tk")
CDN_PROVIDERS = 8
LIB_HOSTS = 40
AD_NETWORKS = 30
PIXEL_HOSTS = 10
MAX_DEPTH = 10  # the CLI default; the deep chain is planted just past it


def tracker_id(i: int) -> str:
    return f"trk{i:02d}"


def tracker_suffix(i: int) -> str:
    return f"trk{i:02d}-metrics.net"


def tracker_tag(i: int) -> str:
    return TAGS[i % len(TAGS)]


def signatures(n: int) -> list[dict]:
    return [{
        "tracker_id": tracker_id(i),
        "cname_suffixes": [tracker_suffix(i)],
        "cidr_ranges": [f"100.64.{i}.0/24"],
        "path_patterns": [f"/{tracker_tag(i)}/*/c*"],
        "id_markers": [],
        "notes": "synthetic",
    } for i in range(n)]


def fp_ip(n: int) -> str:
    """Address for host number n, outside every tracker range."""
    return f"172.{16 + (n >> 16) % 16}.{(n >> 8) & 255}.{n & 255}"


def site_names(rng: random.Random, n: int, prefix: str = "") -> list[str]:
    names = []
    for j in range(n):
        word = "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(2, 3)))
        names.append(f"{prefix}{word}{j}.{rng.choice(TLDS)}")
    return names


def site_of(host: str) -> str:
    """eTLD+1 of a generated host; co.uk and com.fr are the only two-label
    suffixes the generator uses."""
    labels = host.split(".")
    width = 3 if ".".join(labels[-2:]) in ("co.uk", "com.fr") else 2
    return ".".join(labels[-width:])


def host_of(url: str) -> str:
    return url.split("/")[2]


# --- records ------------------------------------------------------------------

def visit_record(visit_id, page_url, month=None):
    return {"record_type": "visit", "version": 1, "visit_id": visit_id,
            "page_url": page_url, "user_agent": "chrome", "month": month}


def txn_record(visit_id, url, *, method="GET", size=43, content_type="image/gif",
               cookie_header=None, set_cookie=(), post_body=None,
               post_content_type=None, remote_ip=None, initiators=()):
    request_headers = []
    if cookie_header:
        request_headers.append(["Cookie", cookie_header])
    if post_content_type:
        request_headers.append(["Content-Type", post_content_type])
    return {
        "record_type": "transaction", "visit_id": visit_id, "url": url,
        "method": method, "request_headers": request_headers,
        "response_headers": [["Set-Cookie", sc] for sc in set_cookie],
        "status": 200, "response_size": size, "content_type": content_type,
        "remote_ip": remote_ip, "initiators": list(initiators),
        "post_body": post_body,
    }


class Dns:
    """Ordered owner -> answers map, written as DNS JSONL."""

    def __init__(self):
        self.answers: dict[str, list[tuple[str, str]]] = {}

    def cname(self, host, target):
        self.answers.setdefault(host, []).append(("CNAME", target))

    def a(self, host, ip):
        self.answers.setdefault(host, []).append(("A", ip))

    def chain(self, host, hops, ip):
        """host -> hops[0] -> ... -> hops[-1] -> A ip."""
        prev = host
        for hop in hops:
            self.cname(prev, hop)
            prev = hop
        self.a(prev, ip)

    def hops(self, host) -> list[str] | None:
        """CNAME hops as the CLI resolves them (None on a cycle)."""
        hops: list[str] = []
        seen = {host}
        cur = host
        while True:
            nxt = next((v for t, v in self.answers.get(cur, ()) if t == "CNAME"), None)
            if nxt is None or len(hops) >= MAX_DEPTH:
                return hops
            if nxt in seen:
                return None
            seen.add(nxt)
            hops.append(nxt)
            cur = nxt

    def write(self, path, month=None):
        with open(path, "w", encoding="utf-8") as fh:
            for name, answers in self.answers.items():
                obj = {"name": name, "status": "NOERROR",
                       "answers": [{"name": name, "type": t, "answer": v} for t, v in answers]}
                if month:
                    obj["month"] = month
                fh.write(json.dumps(obj, sort_keys=True) + "\n")


def write_jsonl(records, path):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def write_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)


# --- the crawl world --------------------------------------------------------------

@dataclass
class Knobs:
    """The ROADMAP scale knobs.  Each workload fixes its own values."""

    visits: int
    txns_per_visit: int
    signatures: int
    sites: int
    filter_rules: int = 0
    cookies_per_site: int = 4
    months: int = 0


@dataclass
class Workload:
    name: str
    commands: list[list[str]]  # argv after "python -m cnametrack.cli"
    outputs: list[list[str]]  # per command: the files it writes, relative to the workload dir
    transactions: int
    distinct_hosts: int
    static_inputs: dict[str, str]  # what setup_s loads: signatures, filters
    truth: dict = field(default_factory=dict)

    @property
    def host_ratio(self) -> float:
        return self.distinct_hosts / self.transactions


@dataclass
class TrackerTxn:
    visit_id: str
    index: int
    tracker: int
    page_site: str
    host: str
    same_site: bool
    cname: bool


@dataclass
class SitePlan:
    kind: str  # "cname", "direct" or "none"
    tracker: int
    label: str
    depth: int
    cdn: int | None
    img_dns: bool
    ip: str | None = None  # tracker-host address; default inside the tracker's range


def shares(rng: random.Random, n: int, **fractions: float) -> list[str]:
    """n labels in exact proportions (the remainder "none"), shuffled: the
    seed moves which items get a label, never how many."""
    labels = [name for name, f in fractions.items() for _ in range(round(f * n))]
    labels += ["none"] * (n - len(labels))
    rng.shuffle(labels)
    return labels


def make_plan(rng: random.Random, n_sites: int, n_sigs: int, depths=(1, 1, 2, 3)) -> list[SitePlan]:
    """40% of sites cloak a tracker behind a CNAME chain, 6% point a
    first-party label straight at the tracker's range, the rest load none.
    35% put their static host on a CDN (cloaked, but no signature); 20%
    have an image host without DNS.  The shares are assumptions, chosen so
    that detection has work on many sites, not measured prevalence."""
    kinds = shares(rng, n_sites, cname=0.40, direct=0.06)
    cdn = shares(rng, n_sites, cdn=0.35)
    img = shares(rng, n_sites, nodns=0.20)
    return [SitePlan(
        kind=kinds[j],
        tracker=rng.randrange(n_sigs),
        label=rng.choice(LABELS),
        depth=rng.choice(depths),
        cdn=rng.randrange(CDN_PROVIDERS) if cdn[j] == "cdn" else None,
        img_dns=img[j] == "none",
    ) for j in range(n_sites)]


THIRD_PARTY = (
    [(f"cdn{k}.libhost{k % LIB_HOSTS}.com", "lib") for k in range(LIB_HOSTS * 3)]
    + [(f"ads{k}.adnet{k % AD_NETWORKS}.com", "ad") for k in range(AD_NETWORKS * 4)]
    + [(f"px{k}.pixelhost{k % PIXEL_HOSTS}.net", "pixel") for k in range(PIXEL_HOSTS * 3)]
)


class CrawlWorld:
    """Visits over planned publisher sites, and the DNS behind every host.

    Each visit loads its page, the site's tracker (a pixel and a script) when
    it has one, first-party assets (one host often without DNS) and
    third-party libraries, ads and pixels from a shared pool.  A share of
    visits also loads another site's cloaked tracker host (cross-site);
    sites in no_cross neither load nor are loaded that way.
    Site 0 carries one host on a CNAME cycle and one chain deeper than the
    CLI's --max-depth whose tracker hop is never reached.
    """

    def __init__(self, rng: random.Random, knobs: Knobs, sites: list[str], plan: list[SitePlan],
                 month: str | None = None, cross_share: float = 0.1, no_cross=frozenset(),
                 ad_free=frozenset()):
        self.rng = rng
        # sites whose pages load no ads, pixels, polyfills or other sites' trackers
        self.ad_free = ad_free
        self.no_cross = no_cross  # sites taking no part in cross-site inclusions
        self.knobs = knobs
        self.sites = sites
        self.plan = plan
        self.month = month
        self.dns = Dns()
        self.records: list[dict] = []
        self.visits: dict[str, tuple[str, list[str]]] = {}  # visit id -> (site, urls)
        self.tracker_txns: list[TrackerTxn] = []
        self.hosts: set[str] = set()
        self.txn_count = 0
        self._build_dns()
        cross_ok = [j for j, p in enumerate(plan) if p.kind == "cname" and j not in no_cross]
        for v in range(knobs.visits):
            self._visit(v, cross_ok, cross_share)

    def tracker_host(self, j: int) -> str:
        return f"{self.plan[j].label}.{self.sites[j]}"

    def tracker_hops(self, j: int) -> list[str]:
        p = self.plan[j]
        hops = []
        if p.depth >= 2:
            hops.append(f"{p.label}-{j}.edgeproxy.net")
        if p.depth >= 3:
            hops.append(f"{p.label}-{j}.gslb-route.net")
        return hops + [f"s{j}.{tracker_suffix(p.tracker)}"]

    def tracker_ip(self, j: int) -> str:
        p = self.plan[j]
        return p.ip or f"100.64.{p.tracker}.{(10 if p.kind == 'cname' else 200) + j % 50}"

    def _build_dns(self):
        dns = self.dns
        for j, site in enumerate(self.sites):
            p = self.plan[j]
            dns.a(f"www.{site}", fp_ip(3 * j))
            if p.cdn is None:
                dns.a(f"static.{site}", fp_ip(3 * j + 1))
            else:
                dns.chain(f"static.{site}", [f"s{j}.cdnprov{p.cdn}.net"], fp_ip(3 * j + 1))
            if p.img_dns:
                dns.a(f"img.{site}", fp_ip(3 * j + 2))
            if p.kind == "cname":
                dns.chain(self.tracker_host(j), self.tracker_hops(j), self.tracker_ip(j))
            elif p.kind == "direct":
                dns.a(self.tracker_host(j), self.tracker_ip(j))
        base = 3 * len(self.sites)
        for k, (host, _kind) in enumerate(THIRD_PARTY):
            if k % 4 == 0:
                dns.chain(host, [f"tp{k}.cdnprov{k % CDN_PROVIDERS}.net"], fp_ip(base + k))
            else:
                dns.a(host, fp_ip(base + k))
        site0 = self.sites[0]
        dns.cname(f"cyc.{site0}", "cyc0.loopedge.net")
        dns.cname("cyc0.loopedge.net", f"cyc.{site0}")
        deep = [f"d{i}.chainhop.net" for i in range(1, MAX_DEPTH + 1)]
        dns.chain(f"deep.{site0}", deep + [f"deep.{tracker_suffix(0)}"], "100.64.0.99")

    def _tracker_txn(self, vid, k, path, **kw):
        host = self.tracker_host(k)
        return txn_record(vid, f"https://{host}/{tracker_tag(self.plan[k].tracker)}/v2/{path}",
                          remote_ip=self.tracker_ip(k), **kw)

    def _visit(self, v, cross_ok, cross_share):
        rng, site_count = self.rng, len(self.sites)
        j = v % site_count
        site, p = self.sites[j], self.plan[j]
        vid = f"{self.month}-v{v}" if self.month else f"v{v}"
        self.records.append(visit_record(vid, f"https://www.{site}/", self.month))
        body: list[tuple[dict, int | None]] = []  # (record, index of the tracker's site)
        if p.kind != "none":
            body.append((self._tracker_txn(vid, j, f"collect?cid={rng.getrandbits(40):x}"), j))
            body.append((self._tracker_txn(vid, j, "c.js", size=2100,
                                           content_type="application/javascript"), j))
        if j not in self.ad_free and j not in self.no_cross and cross_ok and rng.random() < cross_share:
            k = rng.choice(cross_ok)
            if k != j:
                body.append((self._tracker_txn(vid, k, f"collect?x={v}"), k))
        if j == 0:
            tag = tracker_tag(0)
            body.append((txn_record(vid, f"https://cyc.{site}/{tag}/v1/collect"), None))
            body.append((txn_record(vid, f"https://deep.{site}/{tag}/v1/collect"), None))
        while len(body) < self.knobs.txns_per_visit - 1:
            body.append((self._filler(vid, j, site), None))
        rng.shuffle(body)
        page = txn_record(vid, f"https://www.{site}/", content_type="text/html",
                          size=30000 + v % 997, remote_ip=fp_ip(3 * j))
        urls = []
        for index, (rec, k) in enumerate([(page, None)] + body):
            self.records.append(rec)
            urls.append(rec["url"])
            host = host_of(rec["url"])
            self.hosts.add(host)
            if k is not None:
                self.tracker_txns.append(TrackerTxn(
                    vid, index, self.plan[k].tracker, site, host,
                    same_site=(k == j), cname=self.plan[k].kind == "cname"))
        self.visits[vid] = (site, urls)
        self.txn_count += len(urls)

    def _filler(self, vid, j, site):
        rng = self.rng
        r = rng.random()
        if r < 0.22:
            return txn_record(vid, f"https://www.{site}/assets/app{rng.randrange(12)}.js",
                              content_type="application/javascript", size=5000 + rng.randrange(9000),
                              remote_ip=fp_ip(3 * j))
        if r < 0.36:
            return txn_record(vid, f"https://static.{site}/img/i{rng.randrange(40)}.png",
                              content_type="image/png", size=800 + rng.randrange(40000))
        if r < 0.46:
            return txn_record(vid, f"https://img.{site}/p/{rng.randrange(60)}.jpg",
                              content_type="image/jpeg", size=900 + rng.randrange(90000))
        ad_free = j in self.ad_free
        host, kind = rng.choice(THIRD_PARTY[:LIB_HOSTS * 3] if ad_free else THIRD_PARTY)
        if kind == "lib":
            lib = rng.choice(("jquery", "react", "vue") + (() if ad_free else ("polyfill",)))
            return txn_record(vid, f"https://{host}/lib/{lib}.{rng.randrange(30)}.min.js",
                              content_type="application/javascript", size=20000 + rng.randrange(60000))
        if kind == "ad":
            slot = rng.choice(("banner", "slot", "frame"))
            return txn_record(vid, f"https://{host}/ad/{slot}?p={rng.getrandbits(32):x}",
                              content_type="text/html", size=3000 + rng.randrange(5000))
        return txn_record(vid, f"https://{host}/pixel/track.gif?e={rng.getrandbits(32):x}")

    def detections(self) -> set[tuple[str, str, str, str]]:
        """Planted (publisher, tracker, context, mechanism) set."""
        groups: dict[tuple[str, str, str], bool] = {}
        for t in self.tracker_txns:
            key = (t.page_site, tracker_id(t.tracker), "same-site" if t.same_site else "cross-site")
            groups[key] = groups.get(key, False) or t.cname
        return {k + ("cname" if cname else "direct-a-record",) for k, cname in groups.items()}

    def candidates(self, min_sites: int) -> dict[str, list[str]]:
        """Uncloaked target -> sites, for same-site, non-same-origin requests
        (what `features` aggregates), keeping targets on >= min_sites sites."""
        targets: dict[str, set[str]] = {}
        for site, urls in self.visits.values():
            for url in urls:
                host = host_of(url)
                if site_of(host) != site or host == f"www.{site}":
                    continue
                hops = self.dns.hops(host)
                if not hops or site_of(hops[-1]) == site:
                    continue
                targets.setdefault(site_of(hops[-1]), set()).add(site)
        return {t: sorted(s) for t, s in sorted(targets.items()) if len(s) >= min_sites}


def _dir(path) -> Path:
    d = Path(path)
    d.mkdir(parents=True, exist_ok=True)
    return d


# --- crawl-detect -------------------------------------------------------------------

CRAWL_DETECT = Knobs(visits=300, txns_per_visit=40, signatures=50, sites=150)
FEATURE_MIN_SITES = 5


def build_crawl_detect(seed: int, path, knobs: Knobs = CRAWL_DETECT) -> Workload:
    rng = random.Random(seed)
    d = _dir(path)
    sites = site_names(rng, knobs.sites)
    world = CrawlWorld(rng, knobs, sites, make_plan(rng, knobs.sites, knobs.signatures))
    write_jsonl(world.records, d / "crawl.jsonl")
    world.dns.write(d / "dns.jsonl")
    write_json(signatures(knobs.signatures), d / "sigs.json")
    common = ["--corpus", "crawl.jsonl", "--dns", "dns.jsonl", "--threads", "1"]
    return Workload(
        name="crawl-detect",
        commands=[
            ["detect", *common, "--signatures", "sigs.json", "--out", "out"],
            ["features", *common, "--min-sites", str(FEATURE_MIN_SITES), "--out", "feat"],
        ],
        outputs=[["out/publishers.json", "out/summary.csv", "out/manifest.json"],
                 ["feat/features.json", "feat/manifest.json"]],
        transactions=world.txn_count,
        distinct_hosts=len(world.hosts),
        static_inputs={"signatures": "sigs.json"},
        truth={"detections": world.detections(), "candidates": world.candidates(FEATURE_MIN_SITES)},
    )


# --- leak-audit ---------------------------------------------------------------------

LEAK_AUDIT = Knobs(visits=900, txns_per_visit=6, signatures=10, sites=300, cookies_per_site=4)


def build_leak_audit(seed: int, path, knobs: Knobs = LEAK_AUDIT) -> Workload:
    """Every site cloaks one tracker behind a CNAME.  Each visit carries the
    site's first persistent first-party cookie in a Cookie header, the second
    (set by script) in a JSON POST body and the third in a URL parameter to
    that tracker; the rest are never sent to it.  The decoys of the leak
    fixture ride along on every site: a short value, a session cookie, a
    value shared with exactly one other site and a cookie the tracker set
    itself."""
    if knobs.cookies_per_site < 3:
        raise ValueError("leak-audit needs at least 3 cookies per site")
    rng = random.Random(seed)
    d = _dir(path)
    sites = site_names(rng, knobs.sites)
    dns = Dns()
    plan = []
    for j, site in enumerate(sites):
        t = j % knobs.signatures
        host = f"{rng.choice(LABELS)}.{site}"
        dns.a(f"www.{site}", fp_ip(j))
        dns.chain(host, [f"s{j}.{tracker_suffix(t)}"], f"100.64.{t}.{10 + j % 200}")
        values = [f"{rng.choice(('ga1.2', 'fb.1', 'id', 'uv'))}.{rng.getrandbits(64):016x}"
                  for _ in range(knobs.cookies_per_site)]
        if j % 8 == 0:
            values[2] = values[2].replace(".", " ", 1)  # percent-encoded in the URL carrier
        plan.append((t, host, values, f"tv.{rng.getrandbits(64):016x}", f"sess{rng.getrandbits(64):016x}"))
    records: list[dict] = []
    hosts: set[str] = set()
    expected: set[tuple[str, str, str]] = set()
    txn_count = transport = 0
    for v in range(knobs.visits):
        j = v % len(sites)
        site = sites[j]
        t, host, values, tracker_value, session_value = plan[j]
        tag = tracker_tag(t)
        names = [f"c{c}_{j}" for c in range(len(values))]
        # the same value on sites 2k and 2k+1 (and on the last one of an odd count)
        shared = f"sharedconsent{min(j, len(sites) - 2) // 2:06d}"
        decoys = f"s_{j}=yes{j % 10}; sid_{j}={session_value}; consent={shared}"
        vid = f"l{v}"
        records.append(visit_record(vid, f"https://www.{site}/"))
        records.append({"record_type": "js_cookie", "visit_id": vid,
                        "assigned": f"{names[1]}={values[1]}; domain=.{site}; path=/; {PERSIST}",
                        "stack": ["https://connect.social-widgets.com/sdk.js", f"https://www.{site}/"]})
        scheme = "http" if j % 10 == 0 else "https"
        txns = [
            txn_record(vid, f"https://www.{site}/", content_type="text/html", size=25000,
                       set_cookie=[f"{n}={val}; Domain={site}; Path=/; {PERSIST}"
                                   for c, (n, val) in enumerate(zip(names, values)) if c != 1]
                       + [f"s_{j}=yes{j % 10}; Domain={site}; {PERSIST}",
                          f"sid_{j}={session_value}; Domain={site}; Path=/",
                          f"consent={shared}; Domain={site}; {PERSIST}"]),
            txn_record(vid, f"https://www.{site}/page", content_type="text/html",
                       cookie_header="; ".join(f"{n}={val}" for n, val in zip(names, values)) + "; " + decoys),
            txn_record(vid, f"https://{host}/{tag}/v1/c.js", content_type="application/javascript",
                       size=4100, set_cookie=[f"tuid_{j}={tracker_value}; Domain={site}; {PERSIST}"]),
            txn_record(vid, f"https://{host}/{tag}/v1/collect",
                       cookie_header=f"{names[0]}={values[0]}; {decoys}; tuid_{j}={tracker_value}"),
            txn_record(vid, f"https://{host}/{tag}/v1/collect", method="POST",
                       post_body=json.dumps({"ev": "pageview", "cookies": {names[1]: values[1]}, "r": v}),
                       post_content_type="application/json",
                       initiators=[f"https://{host}/{tag}/v1/c.js"]),
            txn_record(vid, f"{scheme}://{host}/{tag}/v1/collect?vid={quote(values[2])}&r={v}"),
        ]
        transport += scheme == "http"
        expected |= {(site, names[0], "cookie-header"), (site, names[1], "post-body"),
                     (site, names[2], "url-param")}
        while len(txns) < knobs.txns_per_visit:
            txns.append(txn_record(vid, f"https://www.{site}/assets/a{len(txns)}.js",
                                   content_type="application/javascript", size=7000 + len(txns)))
        hosts.update(host_of(rec["url"]) for rec in txns)
        records.extend(txns)
        txn_count += len(txns)
    write_jsonl(records, d / "crawl.jsonl")
    dns.write(d / "dns.jsonl")
    write_json(signatures(knobs.signatures), d / "sigs.json")
    return Workload(
        name="leak-audit",
        commands=[["leaks", "--corpus", "crawl.jsonl", "--dns", "dns.jsonl", "--signatures", "sigs.json",
                   "--threads", "1", "--out", "out"]],
        outputs=[["out/leaks.jsonl", "out/leak_rollup.csv", "out/transport.csv", "out/manifest.json"]],
        transactions=txn_count,
        distinct_hosts=len(hosts),
        static_inputs={"signatures": "sigs.json"},
        truth={"findings": expected, "finding_count": 3 * knobs.visits, "transport_count": transport},
    )


# --- blocklist-eval -----------------------------------------------------------------

BLOCKLIST_EVAL = Knobs(visits=120, txns_per_visit=30, signatures=20, sites=60, filter_rules=2000)
RANK_BIN = 50


@dataclass(frozen=True)
class RuleSpec:
    """A generated network rule, as the checks' reference matcher reads it.

    kind: "domain" (||d^), "literal" (substring) or "wild" (a*b)."""

    raw: str
    kind: str
    text: str  # the domain, the substring, or "a*b"
    options: tuple[str, ...] = ()
    exception: bool = False
    inert: bool = False


def _rule(kind, text, options=(), exception=False, inert=False) -> RuleSpec:
    body = f"||{text}^" if kind == "domain" else text
    raw = ("@@" if exception else "") + body + ("$" + ",".join(options) if options else "")
    return RuleSpec(raw, kind, text, tuple(options), exception, inert)


def filter_list(rng: random.Random, world: CrawlWorld, n_rules: int) -> list[RuleSpec]:
    """Mostly ||domain^ and path patterns, with $third-party, $script,
    $image and domain= rules, a few exceptions and inert rules, in assumed
    shares (not the measured composition of any published list).  Live
    rules name trackers, ad networks, libraries and cloaked first-party
    hosts of the corpus; the rest name hosts and paths that never occur in
    it (the long tail every URL is matched against)."""
    options = {"pure": (), "third": ("third-party",), "script": ("script",)}
    rules: list[RuleSpec] = []
    tracker_kinds = shares(rng, world.knobs.signatures, pure=0.55, third=0.15, script=0.05)
    for i, kind in enumerate(tracker_kinds):
        if kind != "none":
            rules.append(_rule("domain", tracker_suffix(i), options[kind]))
    # an allowlisted tracker host: uncloaked matching blocks its tracker, then excepts it
    allowed = next((j for j, p in enumerate(world.plan)
                    if p.kind == "cname" and tracker_kinds[p.tracker] == "pure"), None)
    if allowed is not None:
        rules.append(_rule("domain", world.tracker_hops(allowed)[-1], exception=True))
    for j, kind in enumerate(shares(rng, AD_NETWORKS, pure=0.14, third=0.07, script=0.04, domain=0.04)):
        if kind == "domain":
            a, b = rng.sample(world.sites, 2)
            rules.append(_rule("domain", f"adnet{j}.com", (f"domain={a}|~{b}",)))
        elif kind != "none":
            rules.append(_rule("domain", f"adnet{j}.com", options[kind]))
    rules.append(_rule("domain", f"ads{rng.randrange(AD_NETWORKS * 4)}.adnet0.com", exception=True))
    rules.append(_rule("domain", f"pixelhost{rng.randrange(PIXEL_HOSTS)}.net", ("image",)))
    rules.append(_rule("wild", f"/{TAGS[0]}/*/collect"))
    rules.append(_rule("literal", f"/lib/polyfill.{rng.randrange(30)}.min.js"))
    tracking = [j for j, p in enumerate(world.plan) if p.kind != "none"]
    for j, listed in zip(tracking, shares(rng, len(tracking), listed=0.08)):
        if listed == "listed":
            rules.append(_rule("domain", world.tracker_host(j)))
    tlds = ("com", "net", "org", "de", "io", "co.uk")
    while len(rules) < n_rules:
        token = f"zq{rng.getrandbits(28):07x}"
        r = rng.random()
        if r < 0.64:
            rules.append(_rule("domain", f"{token}.{rng.choice(tlds)}"))
        elif r < 0.67:
            rules.append(_rule("domain", f"{token}.com", ("third-party",)))
        elif r < 0.69:
            rules.append(_rule("domain", f"{token}.net", ("script",)))
        elif r < 0.71:
            rules.append(_rule("domain", f"{token}.net", ("image",)))
        elif r < 0.73:
            rules.append(_rule("literal", f"/{token}/ads.", (f"domain={rng.choice(world.sites)}",)))
        elif r < 0.75:
            rules.append(_rule("domain", f"{token}.com", (rng.choice(("popup", "xmlhttprequest", "websocket")),),
                               inert=True))
        elif r < 0.76:
            rules.append(RuleSpec(f"/{token}[0-9]+/", "regex", token, inert=True))
        elif r < 0.90:
            rules.append(_rule("literal", f"/{token}/banner."))
        elif r < 0.96:
            rules.append(_rule("literal", f"-{token}-ad."))
        else:
            rules.append(_rule("wild", f"/{token}/*/banner"))
    rng.shuffle(rules)
    return rules


def write_filter_list(rules: list[RuleSpec], path, rng: random.Random):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[Adblock Plus 2.0]\n! Title: synthetic benchmark list\n")
        for k, rule in enumerate(rules):
            if k % 40 == 0:
                fh.write(f"! section {k // 40}\n")
            if k % 33 == 0:
                fh.write(f"zq{rng.getrandbits(20):05x}.com##.ad-slot\n")
            fh.write(rule.raw + "\n")


def build_blocklist_eval(seed: int, path, knobs: Knobs = BLOCKLIST_EVAL) -> Workload:
    rng = random.Random(seed)
    d = _dir(path)
    sites = site_names(rng, knobs.sites)
    plan = make_plan(rng, knobs.sites, knobs.signatures)
    # Ad-free is an exact share of the tracking sites and of the rest: each
    # ad-free publisher makes report's co-occurrence scan match every one of
    # its third-party URLs against the whole list, so a drawn count would make
    # the work depend on the seed.
    ad_free = set()
    for group in ([j for j, p in enumerate(plan) if p.kind != "none"],
                  [j for j, p in enumerate(plan) if p.kind == "none"]):
        ad_free |= {j for j, s in zip(group, shares(rng, len(group), adfree=0.2)) if s == "adfree"}
    world = CrawlWorld(rng, knobs, sites, plan, ad_free=ad_free)
    rules = filter_list(rng, world, knobs.filter_rules)
    write_jsonl(world.records, d / "crawl.jsonl")
    world.dns.write(d / "dns.jsonl")
    write_json(signatures(knobs.signatures), d / "sigs.json")
    write_filter_list(rules, d / "filters.txt", rng)
    ranked = sites + site_names(rng, knobs.sites // 2, prefix="x")
    rng.shuffle(ranked)
    ranking = {dom: r for r, dom in enumerate(ranked, 1)}
    with open(d / "ranking.csv", "w", encoding="utf-8") as fh:
        fh.write("rank,domain\n")
        fh.writelines(f"{r},{dom}\n" for dom, r in ranking.items())
    inputs = ["--corpus", "crawl.jsonl", "--dns", "dns.jsonl", "--signatures", "sigs.json", "--threads", "1"]
    return Workload(
        name="blocklist-eval",
        commands=[
            ["detect", *inputs, "--out", "out"],
            ["report", "--ranking", "ranking.csv", "--corpus", "crawl.jsonl", "--filters", "filters.txt",
             "--rank-bins", str(RANK_BIN), "--out", "out"],
            ["defense", *inputs, "--filters", "filters.txt", "--out", "def"],
        ],
        outputs=[["out/publishers.json", "out/summary.csv", "out/manifest.json"],
                 ["out/rank_bins.csv", "out/cooccurrence.json"],
                 ["def/defense_matrix.csv", "def/defense_verdicts.json", "def/manifest.json"]],
        transactions=world.txn_count,
        distinct_hosts=len(world.hosts),
        static_inputs={"signatures": "sigs.json", "filters": "filters.txt"},
        truth={"detections": world.detections(), "world": world, "rules": rules, "ranking": ranking},
    )


# --- history-months -----------------------------------------------------------------

HISTORY_MONTHS = Knobs(visits=40, txns_per_visit=15, signatures=20, sites=40, months=24)


def month_name(m: int, start_year: int = 2019) -> str:
    return f"{start_year + m // 12}-{m % 12 + 1:02d}"


def typo(suffix: str) -> str:
    """One-character misspelling inside the label (metrics -> metrlcs)."""
    return suffix.replace("metrics", "metrlcs")


def build_history_months(seed: int, path, knobs: Knobs = HISTORY_MONTHS) -> Workload:
    """A stable set of publishers over contiguous months.  Cloaked hosts
    resolve to a new tracker address every month (the IP pool grows); a few
    publishers adopt their tracker halfway; two reach theirs through a bare
    A record in the oldest months, found only through the pool the newer
    months built.  The external DNS mirrors every detected host except the
    three validation archetypes (timing gap, typo domain, stale CNAME) and
    four hosts planted for the completeness buckets."""
    n_months = knobs.months
    if n_months < 6:
        raise ValueError("history-months needs at least 6 months")
    rng = random.Random(seed)
    d = _dir(path)
    (d / "m").mkdir(exist_ok=True)
    (d / "ext").mkdir(exist_ok=True)
    sites = site_names(rng, knobs.sites)
    base = make_plan(rng, knobs.sites, knobs.signatures, depths=(1,))
    cname = [j for j, p in enumerate(base) if p.kind == "cname" and j != 0]
    rng.shuffle(cname)
    adopters, churn, (alpha, beta, gamma) = cname[:4], cname[4:6], cname[6:9]
    # three adopt halfway, one in the first month the 6-month window can see
    adopt_month = {j: 6 if k == 0 else n_months // 2 for k, j in enumerate(adopters)}
    churn_months, vm = 6, n_months - 6
    no_cross = set(adopters) | {alpha, beta, gamma}
    extras = site_names(rng, 4, prefix="v")  # completeness hosts, present in month vm only
    extra_trackers = [rng.randrange(knobs.signatures) for _ in extras]

    manifest, external, per_month, total_txns, hosts = [], {}, {}, 0, set()
    for m in range(n_months):
        month = month_name(m)
        plan = []
        for j, p in enumerate(base):
            q = replace(p, ip=f"100.127.{p.tracker}.{m}") if p.kind == "cname" else p
            if j in adopters and m < adopt_month[j]:
                q = replace(q, kind="none")
            if j in churn and m < churn_months:
                q = replace(q, kind="direct", ip=f"198.18.{j}.{m}")
            plan.append(q)
        world = CrawlWorld(rng, knobs, sites, plan, month=month, no_cross=no_cross)
        ext = Dns()
        detected_hosts = sorted({t.host for t in world.tracker_txns})
        for host in detected_hosts:
            j = sites.index(site_of(host))
            if m == vm and j == alpha:
                continue  # timing gap: the external data sees it a month later
            if m == vm and j == beta:
                ext.chain(host, [f"y{j}.{typo(tracker_suffix(plan[j].tracker))}"], "192.0.2.77")
            elif m == vm and j == gamma:
                ext.chain(host, [f"old{j}.cdn-park.com"], f"100.64.{plan[j].tracker}.10")
            else:
                ext.chain(host, [f"s{j}.{tracker_suffix(plan[j].tracker)}"], world.tracker_ip(j))
        buckets = {}
        if m == vm:
            buckets = _plant_completeness(world, ext, extras, extra_trackers, month)
        world.dns.write(d / "m" / f"{month}.dns.jsonl", month)
        write_jsonl(world.records, d / "m" / f"{month}.jsonl")
        ext.write(d / "ext" / f"{month}.jsonl", month)
        manifest.append({"month": month, "corpus": f"m/{month}.jsonl", "dns": f"m/{month}.dns.jsonl"})
        external[month] = f"ext/{month}.jsonl"
        per_month[month] = world.detections()
        total_txns += world.txn_count
        hosts |= world.hosts
        if m == vm:
            validation = {
                "correctness": {
                    (month, world.tracker_host(alpha), "timing-gap", None),
                    (month, world.tracker_host(beta), "typo-domain", tracker_suffix(plan[beta].tracker)),
                    (month, world.tracker_host(gamma), "stale-cname", None),
                },
                "completeness": buckets,
            }
    write_json(list(reversed(manifest)), d / "months.json")
    write_json(external, d / "external.json")
    write_json(signatures(knobs.signatures), d / "sigs.json")
    # adoption_windows needs 6 absent and 6 present months around the event
    planted = {(sites[j], tracker_id(base[j].tracker), month_name(adopt_month[j]))
               for j in adopters if n_months >= 12}
    return Workload(
        name="history-months",
        commands=[
            ["history", "--months", "months.json", "--signatures", "sigs.json", "--threads", "1",
             "--out", "hist"],
            ["validate", "--months", "months.json", "--signatures", "sigs.json",
             "--external-dns", "external.json", "--threads", "1", "--out", "val"],
        ],
        outputs=[["hist/timeline.csv", "hist/adoptions.json", "hist/manifest.json"]
                 + [f"hist/month_{month}.json" for month in per_month],
                 ["val/validation.json", "val/manifest.json"]],
        transactions=total_txns,
        distinct_hosts=len(hosts),
        static_inputs={"signatures": "sigs.json"},
        truth={"monthly": per_month, "planted_adoptions": planted, "validation": validation},
    )


def _plant_completeness(world: CrawlWorld, ext: Dns, extras, trackers, month) -> dict[str, set]:
    """Four sites only the external data ties to a tracker, one per bucket:
    absent from the corpus, requested without a tracking path, requested on
    a near-miss of the tracker's path, requested on its path from an address
    outside the pool."""
    buckets = {"absent-from-corpus": set(), "no-tracking-request": set(),
               "signature-mismatch": set(), "ip-outside-pool": set()}
    paths = {"no-tracking-request": "/img/logo.png", "signature-mismatch": "/{tag}/v1/other",
             "ip-outside-pool": "/{tag}/v1/collect"}
    for k, (site, t, bucket) in enumerate(zip(extras, trackers, buckets)):
        host = f"m.{site}"
        ext.chain(host, [f"z{k}.{tracker_suffix(t)}"], f"100.64.{t}.{20 + k}")
        buckets[bucket].add((month, host, tracker_id(t)))
        if bucket == "absent-from-corpus":
            continue
        vid = f"{month}-extra{k}"
        world.records.append(visit_record(vid, f"https://www.{site}/", month))
        url = f"https://{host}{paths[bucket].format(tag=tracker_tag(t))}"
        world.records.append(txn_record(vid, url))
        world.dns.a(host, fp_ip(60000 + k))
        world.txn_count += 1
        world.hosts.add(host)
    return buckets


BUILDERS = {
    "crawl-detect": build_crawl_detect,
    "leak-audit": build_leak_audit,
    "blocklist-eval": build_blocklist_eval,
    "history-months": build_history_months,
}
