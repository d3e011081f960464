"""``reports.rank_bins`` counts bin members in one pass over the ranking and
gives what a scan of the whole ranking per bin gives."""

from hypothesis import given, settings
from hypothesis import strategies as st

from cnametrack.detect import Context, Mechanism, PublisherDetection
from cnametrack.reports import rank_bins


def per_bin_rank_bins(detections, ranking, bin_size):
    """One scan of the ranking per bin."""
    same = {d.publisher_etld1 for d in detections if d.context is Context.SAME_SITE}
    cross = {d.publisher_etld1 for d in detections if d.context is Context.CROSS_SITE}
    if not ranking:
        return []
    bins = []
    for b in range((max(ranking.values()) - 1) // bin_size + 1):
        lo, hi = b * bin_size + 1, (b + 1) * bin_size
        members = [d for d, r in ranking.items() if lo <= r <= hi]
        n = len(members)
        n_same = sum(1 for d in members if d in same)
        n_cross = sum(1 for d in members if d in cross)
        bins.append({"bin_start": lo, "bin_end": hi, "sites": n,
                     "same_site_pct": 100.0 * n_same / n if n else 0.0,
                     "cross_site_pct": 100.0 * n_cross / n if n else 0.0})
    return bins


DOMAINS = [f"site{i}.com" for i in range(30)]


@settings(max_examples=300)
@given(ranking=st.dictionaries(st.sampled_from(DOMAINS), st.integers(-3, 80), max_size=30),
       tracked=st.lists(st.tuples(st.sampled_from(DOMAINS), st.sampled_from(list(Context))),
                        max_size=20),
       bin_size=st.integers(1, 25))
def test_one_pass_equals_per_bin_scan(ranking, tracked, bin_size):
    detections = [PublisherDetection(site, "trk", context, [], Mechanism.CNAME)
                  for site, context in tracked]
    assert rank_bins(detections, ranking, bin_size) == \
        per_bin_rank_bins(detections, ranking, bin_size)


def test_rank_below_one_is_in_no_bin():
    bins = rank_bins([], {"a.com": 0, "b.com": -4, "c.com": 3}, bin_size=2)
    assert [(b["bin_start"], b["sites"]) for b in bins] == [(1, 0), (3, 1)]
    assert rank_bins([], {"a.com": 0}, bin_size=2) == []
