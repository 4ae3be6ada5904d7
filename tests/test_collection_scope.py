"""Collection scope: ``search`` / ``search_partial`` score each query ONCE
over the collection's live segments laid end to end in one docid space.

The reference is the per-segment rule the scope replaces: score every
segment alone (its one-member scope), keep each segment's top-k and merge on
(score desc, url asc).  Over a 4-partition index with three generations of
upserts and deletes, the scope must give the same (url, score, docid) table
bit for bit, for every clause kind and under bm25, classic and lmdirichlet;
under bm25 it must also agree with ``OracleIndex``.  The block-max executors
(which keep their per-segment loop) must still equal TAAT, and a warm term
must sit in the postings LRU once, under the scope.  The vocabulary ops,
which read one term dictionary per (scope, field), must equal the oracle's
live dfs, and only they and multi-term expansion may build that
dictionary.
"""

import hashlib
import json

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from lucene_plugin_ray.config import IndexConfig
from lucene_plugin_ray.functions.queryparse import (
    MUST,
    TermClause,
    apply_fields,
    apply_synonyms,
    parse_query,
    scored_term_keys,
)
from lucene_plugin_ray.pipelines.fixtures import make_pages

SIMS = ("bm25", "classic", "lmdirichlet")
LIMIT = 40

# (query, search kwargs) — one or more per clause kind
QUERIES = [
    ("w00001 w00002 w00003", {}),  # term OR
    ("w00017", {}),
    ("+w00001 +w00002", {}),  # pure AND (galloping intersection)
    ("+w00001 +w00002 +w00004", {}),
    ("w00001 AND w00006", {}),
    ("w00001^2 w00002 w00005^0.5", {}),  # boosts
    ("w00001 w00002 w00003 w00004", {"min_should_match": 2}),
    ("w00001 -w00002", {}),  # MUST_NOT
    ("w00003 w00004 NOT w00001", {}),
    ("(w00001 w00002) AND (w00003 OR w00004)", {}),  # nested groups
    ("+(w00001 (w00002 -w00003)) w00005^3", {}),
    ("lamb w00001", {"fields": {"text": 1.0, "foo": 2.0}, "tie_breaker": 0.3}),
    ("w00002 w00009", {"fields": {"text": 1.5, "foo": 1.0}}),  # dismax
    ("w00001 w00007", {"synonyms": {"w00001": ["w00002", "w00003"]}}),
    ('"w00008 w00001" w00003', {}),  # phrase
    ('"upsertmarker w00001"', {}),
    ('"w00004 w00011"~3 w00001', {}),  # slop phrase
    ("w0001*", {}),  # prefix
    ("w000?3 w00001", {}),  # wildcard
    ("w00012~1", {}),  # fuzzy
    ("[w00010 TO w00020]", {}),  # range
    ("*:*", {}),
    ("*:* -w00001", {}),
    ("upsertmarker w00001", {}),  # upserted versions only
]
IDS = [q + (f" {sorted(kw)}" if kw else "") for q, kw in QUERIES]


@pytest.fixture(scope="module")
def engines(multigen):
    from lucene_plugin_ray.pipelines.query import SearchEngine

    cfg, _ = multigen
    out = {sim: SearchEngine(cfg.index_root, cfg=cfg, similarity=sim) for sim in SIMS}
    segs = out["bm25"]._segments["default"]
    assert len(segs) >= 9  # partitions × generations
    assert len({s.reader.generation for s in segs}) == 3
    assert not all(s.all_alive for s in segs)  # upserts and deletes mask docs
    return out


def _clauses(eng, q, kw) -> tuple:
    """The clauses ``search`` executes for (q, kw)."""
    clauses = parse_query(q, default_field=eng.cfg.text_column)
    if kw.get("synonyms"):
        clauses = list(apply_synonyms(tuple(clauses), kw["synonyms"]))
    if kw.get("fields"):
        clauses = list(
            apply_fields(
                tuple(clauses), kw["fields"], kw.get("tie_breaker", 0.0),
                eng.cfg.text_column,
            )
        )
    return tuple(clauses)


def _per_segment(eng, clauses, limit, min_should=0, stats=None, df=None, ttf=None):
    """The per-segment rule: each segment's top-k from its one-member scope,
    merged on (score desc, url asc)."""
    segs = eng._segments["default"]
    n_docs, avgdl = stats if stats is not None else eng._stats("default")
    from lucene_plugin_ray.pipelines.query import _Scope

    scopes = [_Scope([s]) for s in segs]
    cache, gdf, gttf = eng._phase1_df(list(clauses), scopes, df, ttf)
    pure_and = len(clauses) > 1 and all(
        isinstance(c, TermClause) and c.occur == MUST and c.boost == 1.0
        for c in clauses
    ) and min_should == 0
    parts = []
    for one in scopes:
        if pure_and:
            t = eng._score_segment_and(
                one, list(clauses), cache, gdf, n_docs, avgdl, limit,
                global_ttf=gttf,
            )
        else:
            t = eng._score_segment_taat(
                one, list(clauses), cache, gdf, n_docs, avgdl, limit,
                min_should=min_should, global_ttf=gttf,
            )
        parts.append(t)
    merged = pa.concat_tables(parts)
    order = np.lexsort(
        (merged["url"].to_numpy(zero_copy_only=False), -merged["score"].to_numpy())
    )[:limit]
    return merged.take(pa.array(order))


@pytest.mark.parametrize("sim", SIMS)
@pytest.mark.parametrize("q,kw", QUERIES, ids=IDS)
def test_search_equals_per_segment_merge(engines, sim, q, kw):
    eng = engines[sim]
    got = eng.search(q, limit=LIMIT, **kw)
    want = _per_segment(
        eng, _clauses(eng, q, kw), LIMIT, kw.get("min_should_match", 0)
    )
    assert got.schema.equals(want.schema)
    assert got.equals(want), (q, got.to_pylist()[:3], want.to_pylist()[:3])
    if sim == "bm25":
        assert got.num_rows, f"{q!r} must match something in the fixture"


@pytest.mark.parametrize("q,kw", QUERIES, ids=IDS)
def test_search_equals_oracle(engines, multigen, q, kw):
    _, oracle = multigen
    got = engines["bm25"].search(q, limit=LIMIT, **kw)
    want = oracle.search(q, limit=LIMIT, **kw)
    assert got["url"].to_pylist() == [u for u, _ in want], q
    np.testing.assert_allclose(
        got["score"].to_numpy(), [s for _, s in want], rtol=1e-12, atol=0
    )


@pytest.mark.parametrize("sim", SIMS)
@pytest.mark.parametrize("q,kw", QUERIES, ids=IDS)
def test_search_partial_equals_per_segment_merge(engines, multigen, sim, q, kw):
    """A partition-restricted engine scoring with injected corpus-global
    statistics (one sharded actor's view)."""
    from lucene_plugin_ray.pipelines.query import SearchEngine

    cfg, _ = multigen
    full = engines[sim]
    shard = SearchEngine(cfg.index_root, cfg=cfg, partitions={0, 2}, similarity=sim)
    clauses = _clauses(full, q, kw)
    keys = scored_term_keys(clauses)
    stats = full.local_collection_stats()
    gdf = full.local_term_dfs("default", keys)
    gttf = full.local_term_ttfs("default", keys) if full.sim.needs_ttf else None
    msm = kw.get("min_should_match", 0)
    got = shard.search_partial(
        clauses, limit=LIMIT, global_stats=stats, global_df=gdf,
        global_ttf=gttf, min_should_match=msm,
    )
    st = stats["default"]
    avgdl = {f: s / st["n_docs"] for f, s in st["sum_dl"].items()}
    want = _per_segment(
        shard, clauses, LIMIT, msm, stats=(st["n_docs"], avgdl), df=gdf, ttf=gttf
    )
    assert got.equals(want), q
    # and the shard's rows are exactly the full engine's rows it holds
    held = set(u for s in shard._segments["default"] for u in s.reader.urls)
    full_rows = full.search_partial(
        clauses, limit=10**6, global_stats=stats, global_df=gdf,
        global_ttf=gttf, min_should_match=msm,
    ).to_pylist()
    assert got.to_pylist() == [r for r in full_rows if r["url"] in held][:LIMIT]


@pytest.mark.parametrize("method", ["bmax", "bmw"])
@pytest.mark.parametrize(
    "q", ["w00001 w00002 w00003", "w00000", "w00017 w00040", "upsertmarker w00005"]
)
def test_block_max_equals_taat(engines, method, q):
    eng = engines["bm25"]
    for limit in (10, 255):
        a = eng.search(q, limit=limit, method=method)
        b = eng.search(q, limit=limit, method="taat")
        assert a["url"].to_pylist() == b["url"].to_pylist(), (q, method)
        assert a["docid"].to_pylist() == b["docid"].to_pylist()
        np.testing.assert_allclose(
            a["score"].to_numpy(), b["score"].to_numpy(), rtol=1e-12, atol=0
        )


def test_warm_term_cached_once_under_the_scope(multigen, monkeypatch):
    """The search path keeps ONE postings-LRU entry per term — the
    collection scope's, holding the live postings of every segment — and
    never a per-segment copy beside it; a warm term costs no dictionary
    lookup, and an aux op over the same collection reads the same entry."""
    from lucene_plugin_ray.pipelines.query import SearchEngine
    from lucene_plugin_ray.state.segment import SegmentReader

    cfg, oracle = multigen
    eng = SearchEngine(cfg.index_root, cfg=cfg)
    eng.search("w00001 w00002", limit=10)
    scope = eng._scope("default")
    assert len(scope.segs) > 1 and isinstance(scope.key, tuple)
    for term in ("w00001", "w00002"):
        entries = [k for k in eng._postings_cache if k[1:] == ("text", term)]
        assert entries == [(scope.key, "text", term)]
        ids, tfs = eng._postings_cache[entries[0]]
        assert ids.size == tfs.size == len(oracle.postings["text"][term])
        assert (np.diff(ids) > 0).all() and scope.alive[ids].all()

    calls = {"lookup": 0}
    orig = SegmentReader.lookup

    def counting(self, field, term):
        calls["lookup"] += 1
        return orig(self, field, term)

    monkeypatch.setattr(SegmentReader, "lookup", counting)
    eng._results_cache.clear()
    eng.search("w00001 w00002", limit=10)
    assert calls["lookup"] == 0

    assert eng.count("w00001") > 0  # aux op: reads the same scope entry
    assert calls["lookup"] == 0
    keys = [k for k in eng._postings_cache if k[1:] == ("text", "w00001")]
    assert keys == [(scope.key, "text", "w00001")]



def test_url_order_breaks_cross_segment_ties_by_url(engines):
    """``_url_order`` sorts scope ids by keys, then url: one numeric sort,
    with urls compared only among rows tied on every key — which, across
    segments, scope id order does not settle.  ``_top_hits`` compares urls
    only among each member's first rows of the tie its cut splits."""
    from lucene_plugin_ray.pipelines.query import _top_hits, _url_order

    scope = engines["bm25"]._scope("default")
    rng = np.random.default_rng(5)
    ids = np.sort(rng.choice(scope.n, 300, replace=False))
    k1, k2 = rng.integers(0, 3, ids.size), rng.integers(0, 4, ids.size)
    got = _url_order(scope, ids, (k2, k1))
    want = sorted(range(ids.size), key=lambda i: (k1[i], k2[i], scope.urls[ids[i]]))
    assert [scope.urls[ids[i]] for i in got] == [scope.urls[ids[i]] for i in want]
    # constant-score ties across members (a prefix or range clause scores its
    # whole match set alike), cut at a limit: the rows of the old full url
    # sort, from both _url_order and _top_hits
    assert len(scope.segs) >= 9
    live = np.flatnonzero(scope.alive)
    rng = np.random.default_rng(11)
    for n, levels in ((200, (1.0,)), (200, (2.0, 1.0, 1.0, 1.0)), (60, (3.0, 1.0)),
                      (live.size, (1.5, 1.0, 0.5))):
        ids = np.sort(rng.choice(live, n, replace=False))
        sc = np.asarray(levels)[rng.integers(0, len(levels), n)]
        full = np.lexsort((scope.urls[ids], -sc))  # the full url sort
        for limit in (1, 3, 10, 64, n - 1, n, n + 5):
            got = _url_order(scope, ids, (-sc,))[:limit]
            assert got.tolist() == full[:limit].tolist(), (n, levels, limit)
            t = _top_hits(scope, ids, sc, limit)
            assert t["url"].to_pylist() == scope.urls[ids[full[:limit]]].tolist()
            assert t["score"].to_pylist() == sc[full[:limit]].tolist()
            assert t["docid"].to_pylist() == scope.docids(ids[full[:limit]]).tolist()


# ---- aux read ops: pinned outputs ------------------------------------------
# sha256 of each aux op's canonical output under bm25 on the multigen index,
# on the full engine and on a partitions={0, 1} engine that is handed the
# full engine's statistics (the sharded contract: ``global_stats`` and
# ``global_df`` where the op takes them).  The digests were computed with the
# per-segment implementation of these ops (commit c0e24d4; the vocabulary
# ops, suggest to text_vocab_hashes, at commit a792ccf) and must not move
# when an op is rewritten.  The one tolerated difference is the float ``sum``
# of ``join_from_aggregates``: its summation order follows the evaluation
# order, so it is compared with rtol=1e-12 against the values pinned below,
# and every other column is pinned exactly.

AUX_Q = "w00001 w00002"
AUX_NOW_US = 1_800_000_000_000_000


def _aux_anchor(full, q, k):
    """(score, url) of row ``k`` of the full engine's ranking of ``q``."""
    row = full.search(q, limit=k + 1).to_pylist()[k]
    return row["score"], row["url"]


def _aux_calls(full):
    """(op name, call(eng, inj) → list of outputs); ``inj`` holds the
    injected statistics for ops that take them (empty on the full engine)."""
    s5, u5 = _aux_anchor(full, AUX_Q, 5)
    s3, u3 = _aux_anchor(full, "w00003 w00001", 3)
    sorted_rows = full.search_sorted(AUX_Q, limit=8).to_pylist()
    by_rows = full.search_sorted_by(
        AUX_Q, [("foo", "asc"), ("warc_ts", "desc")], limit=9
    ).to_pylist()
    probe_urls = full.search("w00004 w00005", limit=30)["url"].to_pylist()
    vote_urls = np.array(sorted(set(probe_urls) | {"http://not.live/x"}), dtype=object)
    votes = (np.arange(vote_urls.size, dtype=np.int64) * 37) % 11 + 1
    join_scores = {"20": 1.5, "21": 0.25, "23": 2.0, "25": 0.75, "29": 1.0}
    ranges = [("a", 0, 150), ("b", 150, None), ("c", None, 300, False, True),
              ("d", 200, 400, True, True)]
    ts_ranges = [("old", None, 1_500_000_000_000_000), ("new", 1_500_000_000_000_000, None)]
    return [
        ("search_after", lambda e, i: [
            e.search_after(AUX_Q, s5, u5, limit=10, **i),
            e.search_after("w00003 w00001", s3, u3, limit=7,
                           synonyms={"w00001": ["w00002"]}, **i),
            e.search_after("w00003 w00001 w00004", s3, u3, limit=7,
                           min_should_match=2, **i),
        ]),
        ("search_function", lambda e, i: [
            e.search_function(AUX_Q, AUX_NOW_US, 86_400_000_000 * 30, limit=12, **i),
        ]),
        ("search_boosting", lambda e, i: [
            e.search_boosting(AUX_Q, "w00003", demote=0.3, limit=12, **i),
        ]),
        ("search_diversified", lambda e, i: [
            e.search_diversified(AUX_Q, "foo", max_per_key=2, limit=12, **i),
            e.search_diversified("w00003", "age", max_per_key=1, limit=8, **i),
        ]),
        ("search_expression", lambda e, i: [
            e.search_expression(
                AUX_Q, "_score * 2 + doc_len / 1000 + warc_ts / 1e16",
                limit=12, **i),
            e.search_expression_range(
                AUX_Q, "_score + doc_len / 100", lo=3.0, hi=9.0, limit=12, **i),
        ]),
        ("search_filtered", lambda e, i: [
            e.search_filtered(AUX_Q, "foo:v1 foo:v2 foo:lamb", limit=12, **i),
        ]),
        ("rescore", lambda e, i: [
            e.rescore(AUX_Q, '"w00001 w00002"~3 w00003', window_size=30,
                      weight=1.5, limit=20, include_first=True, **i),
        ]),
        ("search_sorted", lambda e, i: [
            e.search_sorted(AUX_Q, limit=15),
            e.search_sorted(AUX_Q, limit=15, descending=False),
            e.search_sorted(AUX_Q, limit=10, after_ts=sorted_rows[-1]["warc_ts"],
                            after_url=sorted_rows[-1]["url"]),
        ]),
        ("search_sorted_by", lambda e, i: [
            e.search_sorted_by(AUX_Q, [("foo", "asc"), ("warc_ts", "desc")], limit=15),
            e.search_sorted_by(AUX_Q, [("doc_len", "desc"), ("age", "desc")], limit=15),
            e.search_sorted_by(
                AUX_Q, [("foo", "asc"), ("warc_ts", "desc")], limit=10,
                after_keys=[by_rows[-1]["foo"], by_rows[-1]["warc_ts"]],
                after_url=by_rows[-1]["url"]),
        ]),
        ("search_grouped", lambda e, i: [
            e.search_grouped(AUX_Q, "foo", group_limit=5, docs_per_group=3, **i),
            e.search_grouped("w00003 w00004", "age", group_limit=4, docs_per_group=2,
                             synonyms={"w00003": ["w00005"]}, **i),
        ]),
        ("count", lambda e, i: [
            e.count(AUX_Q),
            e.count("w00001 w00003 w00004", min_should_match=2),
            e.count("lamb w00001", fields={"text": 1.0, "foo": 2.0}),
            e.count("w00001", synonyms={"w00001": ["w00006"]}),
            e.count("5N(w00001, w00002)", syntax="surround"),
        ]),
        ("boolean_overlap_count", lambda e, i: [
            e.boolean_overlap_count("w00001", "w00002"),
            e.boolean_overlap_count("foo:v1", "w00003"),
        ]),
        ("facets", lambda e, i: [
            e.facets(AUX_Q, "foo"),
            e.facets("w00003", "age"),
            e.facets("5N(w00001, w00002)", "foo", syntax="surround"),
        ]),
        ("facets_taxonomy_counts", lambda e, i: [
            e.facets_taxonomy_counts(AUX_Q, ["foo", "age"]),
            e.facets_taxonomy_counts("w00003", ["age", "foo"]),
        ]),
        ("facets_stats", lambda e, i: [
            e.facets_stats(AUX_Q, "foo"),
            e.facets_stats("w00003", "age", value_source="warc_ts"),
        ]),
        ("facet_ranges", lambda e, i: [
            e.facet_ranges(AUX_Q, ranges),
            e.facet_ranges("w00003", ts_ranges, value_source="warc_ts"),
        ]),
        ("drill_sideways_counts", lambda e, i: [
            e.drill_sideways_counts(AUX_Q, {"foo": ["v1", "v2", "lamb"], "age": "25"}),
            e.drill_sideways_counts("w00003", {"age": ["21", "22"]}),
        ]),
        ("date_histogram", lambda e, i: [
            e.date_histogram(AUX_Q, interval_us=86_400_000_000),
            e.date_histogram("w00003", interval_us=3_600_000_000 * 7),
        ]),
        ("join_from_aggregates", lambda e, i: [
            e.join_from_aggregates(AUX_Q, "foo", **i),
            e.join_from_aggregates("w00003", "age", need_scores=False, **i),
            e.join_from_aggregates(AUX_Q, "age", restrict_query="foo:v1 foo:v3", **i),
        ]),
        ("join_to_hits", lambda e, i: [
            e.join_to_hits("age", join_scores, "max", limit=15),
            e.join_to_hits("age", join_scores, "total", limit=15,
                           restrict_query="w00001"),
            e.join_to_hits("foo", {"lamb": 1.0, "little": 2.5, "v3": 0.5}, "avg",
                           limit=15, exclude_query="w00002"),
            e.join_to_hits("foo", {"lamb": 1.0, "little": 2.5}, "min", limit=15),
        ]),
        ("classify_partials", lambda e, i: [
            e.classify_partials("w00001 w00002 lamb little w00003", "foo"),
            e.classify_partials("w00004 w00001 nosuchterm", "age"),
        ]),
        ("class_votes_for_urls", lambda e, i: [
            e.class_votes_for_urls(vote_urls, votes, "foo"),
            e.class_votes_for_urls(vote_urls, votes, "age"),
        ]),
        # vocabulary ops: "upsertmarker" lives only in upserted copies;
        # "lastword5", "lastword6" and "w01703" only in deleted or shadowed
        # docs (stored in a dictionary, live df 0)
        ("suggest", lambda e, i: [
            e.suggest("lastword5", max_edits=1, k=10),
            e.suggest("upsertmarkr", k=3),
            e.suggest("w01703", max_edits=2, k=12),
            e.suggest("lamp", field="foo", k=4),
            e.suggest("v9", field="foo", max_edits=1, k=10),
            e.suggest("w00001", collection="nosuch"),
        ]),
        ("complete", lambda e, i: [
            e.complete("lastword", k=30),
            e.complete("upsert"),
            e.complete("w017", k=40),
            e.complete("w", k=25),
            e.complete("v", field="foo", k=10),
            e.complete("l", field="foo"),
            e.complete("w0", collection="nosuch"),
        ]),
        ("complete_infix", lambda e, i: [
            e.complete_infix("word", k=50),
            e.complete_infix("marker", k=10),
            e.complete_infix("170", k=20),
            e.complete_infix("am", field="foo"),
            e.complete_infix("word", collection="nosuch"),
        ]),
        ("top_terms", lambda e, i: [
            e.top_terms(k=1),
            e.top_terms(k=10),
            e.top_terms(k=60),
            e.top_terms("foo", k=5),
            e.top_terms("age", k=20),
            e.top_terms(collection="nosuch"),
        ]),
        ("index_stats", lambda e, i: [
            e.index_stats(),
            e.index_stats("nosuch"),
        ]),
        ("text_vocab_size", lambda e, i: [
            e.text_vocab_size(),
            e.text_vocab_size("nosuch"),
        ]),
        ("text_vocab_hashes", lambda e, i: [
            e.text_vocab_hashes().tolist(),
            e.text_vocab_hashes("nosuch").tolist(),
        ]),
    ]


AUX_INJECTED = {
    "search_after", "search_function", "search_boosting", "search_diversified",
    "search_expression", "search_filtered", "rescore", "search_grouped",
    "join_from_aggregates",
}


def _canon(x):
    """A JSON-able, order-canonical form of an op output (floats by repr)."""
    if isinstance(x, pa.Table):
        return {
            "schema": [[f.name, str(f.type)] for f in x.schema],
            "rows": [[_canon(v) for v in r.values()] for r in x.to_pylist()],
        }
    if isinstance(x, dict):
        items = [[_canon(k), _canon(v)] for k, v in x.items()]
        return sorted(items, key=lambda kv: json.dumps(kv[0]))
    if isinstance(x, (list, tuple)):
        return [_canon(v) for v in x]
    if isinstance(x, np.generic):
        return x.item()
    return x


def _digest(outputs) -> str:
    return hashlib.sha256(
        json.dumps(_canon(outputs), sort_keys=True).encode()
    ).hexdigest()


def _aux_digests(multigen):
    """{op: (digest, join sums or None)} for the full and the shard engine."""
    from lucene_plugin_ray.pipelines.query import SearchEngine

    cfg, _ = multigen
    full = SearchEngine(cfg.index_root, cfg=cfg)
    shard = SearchEngine(cfg.index_root, cfg=cfg, partitions={0, 1})
    calls = _aux_calls(full)
    queries = [AUX_Q, "w00003 w00001 w00004", "w00003", "w00003 w00004",
               "w00003 w00005", '"w00001 w00002"~3 w00003']
    keys = sorted({k for q in queries for k in scored_term_keys(parse_query(q))})
    inj = {
        "global_stats": full.local_collection_stats(),
        "global_df": full.local_term_dfs("default", keys),
    }
    out = {}
    for label, eng in (("full", full), ("shard", shard)):
        for name, call in calls:
            got = call(eng, inj if label == "shard" and name in AUX_INJECTED else {})
            sums = None
            if name == "join_from_aggregates":
                sums = [{v: a[1] for v, a in agg.items()} for agg in got]
                got = [{v: [a[0], a[2], a[3]] for v, a in agg.items()} for agg in got]
            out[(label, name)] = (_digest(got), sums)
    return out


AUX_PINS = {
    ("full", "search_after"):
        "3ef023b5469e4f04be336f03e27cdeb6f7166a60adc27a1a7002615a15632975",
    ("full", "search_function"):
        "2ee920f7dc8afe9ddd71501cd4edad181f5f6981a695e708165f04b13a0931d7",
    ("full", "search_boosting"):
        "6a734211779dfc0335c9c76c8400f8c51b688d357d4040d5c2b01385da93a577",
    ("full", "search_diversified"):
        "f99713ff71bb9affd39c235ac04c297f4fd22897dc45f18057f005cf20ccd398",
    ("full", "search_expression"):
        "c77338ca3728fe6920161b71ccbd8f21df2983d018c70cf7ca7ba42b6a4a9147",
    ("full", "search_filtered"):
        "c848afa79c84a2a721d2e0f6a3b68cbf0010c599f8ba7f5878fbab9875e2d342",
    ("full", "rescore"):
        "6fd1dcc5952f6477fbeb76c6888ccd28782973e44c98ecf93ed429e4dcdd53ad",
    ("full", "search_sorted"):
        "9aaf16986d36949144c6c6710bbdb0ed1459c3cf1b682c954f84b5f407f3b9a5",
    ("full", "search_sorted_by"):
        "9a71517c16e7e60a731e2f0882f060bde1ac2ebf9bf80555d2b5444eab1fcf4e",
    ("full", "search_grouped"):
        "0eb6a2e3036a022fc90b3e8e0f787ef67b5f04c8e6a4b74c8b7503f90f90be35",
    ("full", "count"):
        "1dcafa48943d8f55f990d478341bb5b7379dd702ec109d2214cac4e890b66d0f",
    ("full", "boolean_overlap_count"):
        "b5a5bc33179f14b7b1d91dfceb5c0becc1e300cb0d7ce27911535b57669df0e6",
    ("full", "facets"):
        "9e8d5db9723201b35dde645b0221a70bd337f232501996006570b93ab1e793f4",
    ("full", "facets_taxonomy_counts"):
        "3e3eb1c6570bc54094285e02e54eec235f001af33a7b75ef51e3eeda971c1a5f",
    ("full", "facets_stats"):
        "0c5fb7a2c799bb6f3f98f5d70290f9e36ca2952c96f89b62bce3510afdfda844",
    ("full", "facet_ranges"):
        "a12ff139ac8fea35f6d9abaf1c77574b53b7a29cbc7c684a87ade8571be948b9",
    ("full", "drill_sideways_counts"):
        "439899dfd824f5753fff36b3a9a9af28eca2b2493ced1dca039d645d1c3d4fbd",
    ("full", "date_histogram"):
        "ad134c7fed106dcc55a9bdf726b0ad13623efa5c0f7fef5f3d01580b96f1ba6e",
    ("full", "join_from_aggregates"):
        "2ed383bb32b3bcd0a971b6c4ad1f2833cbc0e14ea71b677133d5d1fee7d289bd",
    ("full", "join_to_hits"):
        "2470c011259c9d955b6e26c6bdfddc32aea52d0df6bb5e4ebaa00ab753845b4c",
    ("full", "classify_partials"):
        "33298bf71506ee6e88e467ce3d9da2118b9ffb524195d91f5a6297eb59044f4d",
    ("full", "class_votes_for_urls"):
        "25eae83a1827131dc2e1e2f518fa73d9373dc834df8d81983673ce92202c09f2",
    ("full", "suggest"):
        "d538789250a66a7535e089b2ef621f413bbe1b3edf19e67ed23ba258c020dd53",
    ("full", "complete"):
        "271dca3cdf9751df3172aa2a8749b01c7331e432a88cab151c0eb66ef04fafc0",
    ("full", "complete_infix"):
        "13cd488b9f5793cfef7f5cdeaffb0a628626e7e1316b23e575832431f9e7f1dc",
    ("full", "top_terms"):
        "b2de5cdfd9cb534eb9c2baf1b9ce558341dea66d933b9b1d1ea05995f661896e",
    ("full", "index_stats"):
        "6a023aec71a48cd02fbbcbddffac6bba53b62300724059fba533737395b6cd6c",
    ("full", "text_vocab_size"):
        "fc104c645664c02655f689f9f430dea21bbedec98b79060a290973a9563ef974",
    ("full", "text_vocab_hashes"):
        "ed44c2a7a3c7506a9fccbe8a2a752b3dce296551b9b94de355c1098d21fbb0ab",
    ("shard", "search_after"):
        "692ce7dfd509d9a8cd2c19b67cee1eb39497d02b1c6d6f58384028328a434bdb",
    ("shard", "search_function"):
        "5eaeb4dc3ce846c95e710dae65a9d7144ec69137c50a8cdfc40b3254f42e69f7",
    ("shard", "search_boosting"):
        "f7138589a57458d167a84329674ddb04c4c491566f964dee6fd57b2a87d68c1e",
    ("shard", "search_diversified"):
        "eba9f3fece3f0f41825557b4b1417b9fd9482ea4cd9cd38d32dc86cb694b53fd",
    ("shard", "search_expression"):
        "52b4d1f18629551e8b0254d9842f2f2995442ad793e3dba4f0f4b3868567e3b6",
    ("shard", "search_filtered"):
        "67607c310013538a13b044b27902af74dec0df30a388b8b5cd354a2e589bb285",
    ("shard", "rescore"):
        "c4689323aedde388a0c99b3dfb8edbba60e5167a4ccdd8fc92476bbf176cade2",
    ("shard", "search_sorted"):
        "beadd53897b34fdccc423c827a62bcca5cc31e72557a295aa649d951dd379797",
    ("shard", "search_sorted_by"):
        "c7c9650e700f92189e3c5d4c473094ec2672083a26ad623406dbc2ca00fc736b",
    ("shard", "search_grouped"):
        "0aa9cf1f7230ccdad266edf362f759755765aa7c3b0f3d3e7ba72990a27f5e98",
    ("shard", "count"):
        "be2351b1000bdee2f0b7f1cdf348f394abe60bfafa25e083705c48c18cc4924b",
    ("shard", "boolean_overlap_count"):
        "efc9f0247c531b7141e7a4c4f61c4620036cf33e56041a04b8aaf0dd391c6587",
    ("shard", "facets"):
        "a4853bc8fa494c11b11784e5febf1cd5886bdb45424a59bf53ec4f93d00de80f",
    ("shard", "facets_taxonomy_counts"):
        "186ab67f20f8cafeb0a08e6359ebdac7ed100c6cf951b67db27354d1b4ba4833",
    ("shard", "facets_stats"):
        "313476327c92ef8b25445709bb6b96e27f32dcf690d247470b5da2a25a1770cc",
    ("shard", "facet_ranges"):
        "f7c38cefc4ddc390a5c53586a446069d9a72778aadb0d7ae0cbc544079a031b1",
    ("shard", "drill_sideways_counts"):
        "205cdfcb0f27d1d01ffd5e00a579716452f2ee768c859bd8525016a103e348c5",
    ("shard", "date_histogram"):
        "5452299003ca60be99b1d3a4a2ab106a9df9759f6ab576ba2e12c69a99286d76",
    ("shard", "join_from_aggregates"):
        "9f51d26c33f6b7580f9a2b851a6e7b0b96d2de433b507c6be22e6fb7285549a5",
    ("shard", "join_to_hits"):
        "e0ec171ec71bb054efca639a0b23e8b30b97eebd75ddc8fc263a936d64d20255",
    ("shard", "classify_partials"):
        "256b8eb4e089cdebed9a1e15ff9ca2d423dd15927e5e13e2a35254f263b5e0b7",
    ("shard", "class_votes_for_urls"):
        "ebc52459e0e58edc9516411e66b5a006e93bf3444258bcd6fb5d1b12e4253cfa",
    ("shard", "suggest"):
        "48aa64f0c9838b161610f8321debd3b21ad7409dccd4d622e0a5f5cbaa5ef609",
    ("shard", "complete"):
        "b28114b33c2d4b8132a5df4beea19a7b61fed46d33b6de99fb45acb733516022",
    ("shard", "complete_infix"):
        "975def01da49a20d2b6acad353a66ee5d3bd0f53b6a195da27ff565f31d44094",
    ("shard", "top_terms"):
        "ee9d3a5696cea0f760e2e809fb44b7d2eff8c337afbde56bc01d74033e967a9e",
    ("shard", "index_stats"):
        "93e0641a363233433b379e1e9247c2ac2f4821e927651780f3b6776b6e29a1b4",
    ("shard", "text_vocab_size"):
        "abc79b869bc4a77f569c45febffbcd23dcd566694b01ea5ffc65f8dc9c8cd808",
    ("shard", "text_vocab_hashes"):
        "c5ca847fbf08a1e7d690351ba9e68928bbe733e8a7dc8ce61f8b7a4679123bf6",
}

AUX_JOIN_SUMS = {
    "full": [
        {
            "lamb": 58.944654483192636,
            "little": 58.944654483192636,
            "v0": 29.75679225223991,
            "v1": 30.83164676191622,
            "v2": 35.19230522230607,
            "v3": 27.454520510993945,
            "v4": 33.52676180120602,
            "v5": 39.98498253076864,
            "v6": 26.786101476212092,
        },
        {
            "20": 0.0,
            "21": 0.0,
            "22": 0.0,
            "23": 0.0,
            "24": 0.0,
            "27": 0.0,
            "28": 0.0,
            "29": 0.0,
            "26": 0.0,
            "25": 0.0,
        },
        {
            "21": 5.056009934483223,
            "22": 8.479569960958798,
            "24": 7.723339568741173,
            "28": 9.864616450319218,
            "26": 7.304918395323993,
            "27": 6.883406467057635,
            "23": 5.857403841147996,
            "29": 7.116902654878122,
        },
    ],
    "shard": [
        {
            "lamb": 30.16540169125514,
            "little": 30.16540169125514,
            "v0": 15.985014984642818,
            "v1": 15.696703853384193,
            "v2": 21.27455323295763,
            "v3": 14.439954526821692,
            "v4": 17.44342021905149,
            "v5": 19.89237317787996,
            "v6": 12.792891995547489,
        },
        {
            "20": 0.0,
            "21": 0.0,
            "22": 0.0,
            "23": 0.0,
            "24": 0.0,
            "27": 0.0,
            "28": 0.0,
            "29": 0.0,
            "26": 0.0,
            "25": 0.0,
        },
        {
            "21": 1.7746657991832109,
            "22": 4.722192923945165,
            "24": 4.009180857869239,
            "28": 5.953929155995121,
            "26": 3.806104363380066,
            "27": 5.237034634993105,
            "23": 1.7551560309324823,
            "29": 2.878394613907493,
        },
    ],
}


def test_aux_ops_pinned(multigen):
    got = _aux_digests(multigen)
    assert {k: v[0] for k, v in got.items()} == {
        (label, name): d for (label, name), d in AUX_PINS.items()
    }
    for label in ("full", "shard"):
        sums = got[(label, "join_from_aggregates")][1]
        want = AUX_JOIN_SUMS[label]
        assert [sorted(s) for s in sums] == [sorted(w) for w in want]
        for s, w in zip(sums, want):
            np.testing.assert_allclose(
                [s[v] for v in sorted(w)], [w[v] for v in sorted(w)],
                rtol=1e-12, atol=0,
            )


def test_vocabulary_ops_equal_oracle(engines, multigen):
    """``complete``, ``complete_infix``, ``suggest`` and ``top_terms`` equal
    the shared ranking helpers applied to the oracle's live dfs, for 50
    seeded random prefixes, fragments, fuzzy probes and cut-offs on the
    text and ``foo`` fields."""
    from lucene_plugin_ray.functions.fuzzy import damerau_levenshtein
    from lucene_plugin_ray.pipelines.query import (
        rank_completions_table,
        rank_suggestions_table,
    )

    _, oracle = multigen
    eng = engines["bm25"]
    live = {
        f: {t: len(p) for t, p in oracle.postings[f].items() if p}
        for f in ("text", "foo")
    }
    vocab = {f: sorted(d) for f, d in live.items()}
    rng = np.random.default_rng(11)
    letters = "abcdefgilmnorstuvw0123456789"
    for trial in range(50):
        field = "foo" if trial % 5 == 4 else "text"
        dfs = live[field]
        term = vocab[field][rng.integers(len(vocab[field]))]
        k = int(rng.integers(1, 30))

        prefix = term[: rng.integers(1, len(term) + 1)]
        want = rank_completions_table(
            {t: d for t, d in dfs.items() if t.startswith(prefix)}, k)
        assert eng.complete(prefix, field=field, k=k).equals(want), prefix

        a = int(rng.integers(len(term)))
        frag = term[a: a + int(rng.integers(1, 4))]
        want = rank_completions_table(
            {t: d for t, d in dfs.items() if frag in t}, k)
        assert eng.complete_infix(frag, field=field, k=k).equals(want), frag

        chars = list(term)
        for _ in range(int(rng.integers(0, 3))):
            op, at = int(rng.integers(3)), int(rng.integers(len(chars) + 1))
            ch = letters[rng.integers(len(letters))]
            if op == 0:
                chars.insert(at, ch)
            elif chars:
                at = min(at, len(chars) - 1)
                if op == 1:
                    chars[at] = ch
                else:
                    del chars[at]
        probe = "".join(chars) or term
        edits = 1 + trial % 2
        dists = {
            t: damerau_levenshtein(probe, t) for t in dfs
            if abs(len(t) - len(probe)) <= edits
        }
        near = {t: dfs[t] for t, d in dists.items() if d <= edits}
        want = rank_suggestions_table(near, dists, k)
        got = eng.suggest(probe, field=field, max_edits=edits, k=k)
        assert got.equals(want), probe

        assert eng.top_terms(field, k=k).equals(
            rank_completions_table(dfs, k)), (field, k)


# ---- sharded read surface: pinned outputs and error parity ------------------
# sha256 of the canonical output of every public read method of
# ShardedSearcherService on the multigen index, for fleets of 1 and 3 shard
# actors (block joins are covered by test_block_join.py).  The digests were
# computed with the per-op actor methods of commit cb4a5f0 and must not move
# when the shard protocol is rewritten.

SH_Q = "w00001 w00002"


def _random_multiterm(rng, field: str, vocab: list[str]):
    """A random prefix / wildcard / regexp / fuzzy (~1, ~2) clause on
    ``field``, mostly built from a term of ``vocab``, sometimes from a term
    no member holds."""
    from lucene_plugin_ray.functions.queryparse import MultiTermClause

    letters = "abcdefgilmnorstuvwxz0123456789"
    if vocab and rng.random() < 0.85:
        base = vocab[rng.integers(len(vocab))]
    else:
        base = "zq" + "".join(letters[i] for i in rng.integers(len(letters), size=3))
    kind = ("prefix", "wildcard", "regexp", "fuzzy")[rng.integers(4)]
    max_edits = 0
    if kind == "prefix":
        pattern = base[: rng.integers(1, len(base) + 1)]
    elif kind == "wildcard":
        chars = list(base)
        for i in rng.integers(1, len(chars) + 1, size=2):  # never the first
            if i < len(chars):
                chars[i] = "?*"[rng.integers(2)]
            else:
                chars.append("*")
        pattern = "".join(chars)
    elif kind == "regexp":
        pieces = [".", ".*", "[a-z0-9]", "[^w]"]
        pattern = "".join(
            pieces[rng.integers(len(pieces))] if rng.random() < 0.3 else ch
            for ch in base
        )
    else:
        chars = list(base)
        for _ in range(int(rng.integers(0, 4))):
            op, at = int(rng.integers(3)), int(rng.integers(len(chars)))
            ch = letters[rng.integers(len(letters))]
            if op == 0:
                chars.insert(at, ch)
            elif op == 1:
                chars[at] = ch
            elif len(chars) > 1:
                del chars[at]
        pattern, max_edits = "".join(chars), 1 + int(rng.integers(2))
    return MultiTermClause(occur=MUST, field=field, kind=kind,
                           pattern=pattern, max_edits=max_edits)


def _term_matcher(c):
    """Brute-force predicate of one multi-term clause on one term."""
    import re

    from lucene_plugin_ray.functions.fuzzy import damerau_levenshtein

    if c.kind == "prefix":
        return lambda t: t.startswith(c.pattern)
    if c.kind == "fuzzy":
        return lambda t: damerau_levenshtein(c.pattern, t) <= c.max_edits
    src = c.pattern if c.kind == "regexp" else "".join(
        ".*" if ch == "*" else "." if ch == "?" else re.escape(ch)
        for ch in c.pattern
    )
    rx = re.compile(src, re.DOTALL)
    return lambda t: rx.fullmatch(t) is not None


def _assert_union_expansion_equals_scan(eng, scope, c) -> int:
    """The scope expansion of ``c`` (union codes), mapped to each member,
    equals a brute-force scan of that member's own field vocabulary;
    returns the number of matched distinct terms."""
    codes = eng._expand_rows(scope, c)
    d = scope.dictionary(c.field)
    assert (np.diff(codes) > 0).all(), c
    match, memo = _term_matcher(c), {}
    union: set[str] = set()
    for seg, (at, rows) in zip(scope.segs, d.member_rows(codes)):
        start, vocab = seg.reader.field_vocab(c.field)
        keep = [memo[t] if t in memo else memo.setdefault(t, match(t)) for t in vocab]
        want = start + np.flatnonzero(np.asarray(keep, dtype=bool))
        np.testing.assert_array_equal(rows, want, err_msg=str(c))
        np.testing.assert_array_equal(d.terms[codes[at]], vocab[want - start])
        union.update(vocab[want - start].tolist())
    assert d.terms[codes].tolist() == sorted(union), c
    return len(union)


@pytest.fixture(scope="module")
def evolved(ray_session, tmp_path_factory):
    """2 partitions × 2 generations whose first generation predates the
    ``age`` field, so its members lack it; the second generation also
    deletes first-generation docs."""
    from lucene_plugin_ray.pipelines.build import build_delta, build_index

    corpus = make_pages(120, seed=61, with_fields=True).drop_columns(["html"])
    urls = sorted(set(corpus["url"].to_pylist()))
    root = str(tmp_path_factory.mktemp("idx_evolved"))
    first = pc.is_in(corpus["url"], value_set=pa.array(urls[:70]))
    build_index(corpus.filter(first),
                IndexConfig(index_root=root, num_partitions=2, field_columns=("foo",)))
    cfg = IndexConfig(index_root=root, num_partitions=2, field_columns=("foo", "age"))
    later = corpus.filter(pc.is_in(corpus["url"], value_set=pa.array(urls[60:])))
    victims = urls[:60:9]
    build_delta(later, cfg, deletes=pa.table(
        {"collection": ["default"] * len(victims), "url": victims}))
    return cfg


def test_union_expansion_equals_member_scan(engines, multigen, evolved):
    """Random prefix / wildcard / regexp / fuzzy clauses — including ones
    that match nothing, a field some members lack and a field no member
    has — expand once over the scope dictionary to exactly the member
    rows a per-member brute-force scan (Python ``re.fullmatch`` /
    ``damerau_levenshtein``) finds, on indexes with upserts and deletes,
    over the collection scope and over one-member scopes (a collection of
    one segment)."""
    from lucene_plugin_ray.pipelines.query import SearchEngine, _Scope

    rng = np.random.default_rng(23)
    old = SearchEngine(evolved.index_root, cfg=evolved)
    lacking = [s for s in old._scope("default").segs if "age" not in s.reader.doc_len]
    assert lacking and not all(s.all_alive for s in old._scope("default").segs)
    plan = [(engines["bm25"], "text", 60), (engines["bm25"], "foo", 12),
            (engines["bm25"], "age", 12), (old, "age", 16), (old, "text", 12),
            (old, "nope", 4)]
    kinds, empty, matched = set(), 0, 0
    for eng, field, n in plan:
        scope = eng._scope("default")
        vocab = sorted({t for s in scope.segs for t in s.reader.field_vocab(field)[1]})
        for _ in range(n):
            c = _random_multiterm(rng, field, vocab)
            got = _assert_union_expansion_equals_scan(eng, scope, c)
            one = _Scope([scope.segs[rng.integers(len(scope.segs))]])
            _assert_union_expansion_equals_scan(eng, one, c)
            kinds.add((c.kind, c.max_edits))
            empty += got == 0
            matched += got
    assert kinds == {("prefix", 0), ("wildcard", 0), ("regexp", 0),
                     ("fuzzy", 1), ("fuzzy", 2)}
    assert empty >= 5 and matched > 100, (empty, matched)


def test_explain_on_expansion_clauses_equals_oracle(engines, multigen):
    """``explain`` reports a wildcard / fuzzy clause as matched exactly when
    the document holds a term the clause matches (oracle postings), with
    the clause's constant weight."""
    _, oracle = multigen
    eng = engines["bm25"]
    queries = ["w000?3", "w0*1", "w00012~1", "pagehti~2", "upsertmarkr~1", "zzzq*z"]
    urls = sorted(oracle.url_of.values())[::7]
    postings = oracle.postings["text"]
    for q in queries:
        (c,) = parse_query(q)
        match = _term_matcher(c)
        hit = {oracle.url_of[i] for t, p in postings.items() if match(t) for i in p}
        for url in urls:
            (row,) = eng.explain(q, url)["clauses"]
            assert (row["kind"], row["detail"]) == (c.kind, c.pattern)
            assert row["tf"] == int(url in hit), (q, url)
            assert row["weight"] == (1.0 if url in hit else 0.0), (q, url)
        assert hit or q.startswith("zzzq")


# sha256 of every explain dict test_explain_and_count_pinned draws, per sim
EXPLAIN_PINS = {
    "bm25": "588fb53a2007dc43a1f99da4c0cd13f51dbdd55a7ba2a60cf4d636106b822be0",
    "classic": "8d1f5ea4b249835d7d1635c5754aaec8b164dc90e3bf433c5c6f88f0e44ea49f",
    "lmdirichlet": "b9eb33c99cbc21294c0c61a3a93d1d365d9052e4605e7dabf396748aa9af2738",
}


def _explained(eng, q) -> list[dict]:
    """``explain`` of ``q`` for its top 5 hits (each equal to its search
    score bit for bit) and 2 live non-hits: among the first 60 in url
    order, those that fail a MUST clause while matching another clause —
    or, for a query without a MUST, that match any clause (a MUST_NOT
    hit) — before the others."""
    hits = eng.search(q, limit=10**9)
    out = []
    for url, score in zip(hits["url"].to_pylist()[:5], hits["score"].to_pylist()):
        ex = eng.explain(q, url)
        assert ex["matched"] and ex["score"] == score, (q, url)
        out.append(ex)
    scope = eng._scope("default")
    matched = set(hits["url"].to_pylist())
    has_must = any(c.occur == MUST for c in parse_query(q))
    misses = [u for u in sorted(scope.urls[scope.alive].tolist()) if u not in matched]
    picked, rest = [], []
    for url in misses[:60]:
        ex = eng.explain(q, url)
        assert not ex["matched"] and ex["score"] == 0.0, (q, url)
        rows = ex["clauses"]
        if any(r["tf"] for r in rows) and (not has_must or any(
            r["occur"] == MUST and not r["tf"] for r in rows
        )):
            picked.append(ex)
        else:
            rest.append(ex)
    return out + (picked + rest)[:2]


@pytest.mark.parametrize("sim", SIMS)
def test_explain_and_count_pinned(engines, sim):
    """``explain`` over every ``QUERIES`` entry it takes (MUST_NOT, nested
    groups, slop, prefix / wildcard / fuzzy, ranges, ``*:*``): the dicts of
    each query's top 5 hits and of 2 live non-hits are pinned by digest,
    and a hit's explained score is its search score bit for bit.  ``count``
    equals the size of ``search``'s full match set for every entry."""
    eng = engines[sim]
    dicts = [(q, _explained(eng, q)) for q, kw in QUERIES if not kw]
    assert sum(len(d) for _, d in dicts) == 138
    assert _digest(dicts) == EXPLAIN_PINS[sim]
    for q, kw in QUERIES:
        ckw = {k: v for k, v in kw.items() if k != "tie_breaker"}
        assert eng.count(q, **ckw) == eng.search(q, limit=10**9, **kw).num_rows, q


@pytest.fixture(scope="module")
def fleets(multigen):
    from lucene_plugin_ray.pipelines.sharded import ShardedSearcherService

    cfg, _ = multigen
    out = {n: ShardedSearcherService(cfg.index_root, cfg=cfg, num_shards=n) for n in (1, 3)}
    assert [len(s.actors) for s in out.values()] == [1, 3]
    yield out
    for s in out.values():
        s.shutdown()


def _texts():
    pages = make_pages(400, seed=53, with_fields=True)
    return pa.table({"url": pages["url"], "text": pages["text"]})


def _sharded_calls(full):
    """(public method, call(svc) → list of outputs) over the multigen index."""
    s5, u5 = _aux_anchor(full, SH_Q, 5)
    sorted_rows = full.search_sorted(SH_Q, limit=8).to_pylist()
    by_rows = full.search_sorted_by(
        SH_Q, [("foo", "asc"), ("warc_ts", "desc")], limit=9
    ).to_pylist()
    urls = full.search("w00003 w00004", limit=3)["url"].to_pylist()
    texts = _texts()
    batch = pa.table({
        "qid": pa.array([0, 1, 2, 3, 4], pa.int64()),
        "query": [SH_Q, "w00017", '"w00008 w00001" w00003', "w0001*", "zzznope"],
        "collection": ["default"] * 5,
        "k": pa.array([10, 5, 20, 15, 3], pa.int64()),
    })
    ranges = [("a", 0, 150), ("b", 150, None), ("c", None, 300, False, True)]
    return [
        ("facets", lambda s: [s.facets(SH_Q, "foo"), s.facets("w00003", "age"),
                              s.facets("5N(w00001, w00002)", "foo", syntax="surround")]),
        ("facets_taxonomy", lambda s: [s.facets_taxonomy(SH_Q, ["foo", "age"]),
                                       s.facets_taxonomy("w00003", ["age", "foo"], top_n=3)]),
        ("count", lambda s: [s.count(SH_Q), s.count("*:* -w00001"),
                             s.count("5N(w00001, w00002)", syntax="surround")]),
        ("search_sorted", lambda s: [
            s.search_sorted(SH_Q, limit=15), s.search_sorted(SH_Q, limit=15, descending=False),
            s.search_sorted(SH_Q, limit=10, after_ts=sorted_rows[-1]["warc_ts"],
                            after_url=sorted_rows[-1]["url"])]),
        ("suggest", lambda s: [s.suggest("w0001", k=8), s.suggest("lamm", field="foo", max_edits=1)]),
        ("facets_stats", lambda s: [s.facets_stats(SH_Q, "foo"),
                                    s.facets_stats("w00003", "age", value_source="warc_ts")]),
        ("search_grouped", lambda s: [s.search_grouped(SH_Q, "foo", group_limit=5, docs_per_group=3),
                                      s.search_grouped("w00003 w00004", "age", group_limit=4,
                                                       docs_per_group=2)]),
        ("top_terms", lambda s: [s.top_terms(k=12), s.top_terms(field="foo", k=3),
                                 s.top_terms(field="age", k=40)]),
        ("facet_ranges", lambda s: [s.facet_ranges(SH_Q, ranges)]),
        ("search_function", lambda s: [
            s.search_function(SH_Q, AUX_NOW_US, 86_400_000_000 * 30, limit=12)]),
        ("search_surround", lambda s: [s.search_surround("5N(w00001, w00002)", limit=12),
                                       s.search_surround("w00001 3W w00002 OR w00003")]),
        ("search_common", lambda s: [s.search_common("w00001 w00002 w00017", 0.05, limit=12),
                                     s.search_common("w00001 w00002", 0.9)]),
        ("search_boosting", lambda s: [s.search_boosting(SH_Q, "w00003", demote=0.3, limit=12)]),
        ("search_diversified", lambda s: [
            s.search_diversified(SH_Q, "foo", max_per_key=2, limit=12),
            s.search_diversified("w00003", "age", max_per_key=1, limit=8)]),
        ("search_expression", lambda s: [
            s.search_expression(SH_Q, "_score * k + doc_len / 1000", bindings={"k": 2.0},
                                limit=12)]),
        ("search_expression_range", lambda s: [
            s.search_expression_range(SH_Q, "_score + doc_len / 100", lo=3.0, hi=9.0,
                                      limit=12)]),
        ("search_filtered", lambda s: [s.search_filtered(SH_Q, "foo:v1 foo:v2 foo:lamb",
                                                         limit=12)]),
        ("span_near", lambda s: [s.span_near(["w00001", "w00002"], slop=3, limit=12),
                                 s.span_near(["w00002", "w00001"], slop=2, in_order=False)]),
        ("span_first", lambda s: [s.span_first("w00001", 5, limit=12)]),
        ("span_not", lambda s: [s.span_not("w00001", ["w00002"], pre=2, post=2, limit=12)]),
        ("search_join", lambda s: [s.search_join(SH_Q, "foo", "foo", limit=12),
                                   s.search_join("w00003", "age", "age", score_mode="none",
                                                 limit=12),
                                   s.search_join("w00003", "age", "age", score_mode="min")]),
        ("classify", lambda s: [s.classify("w00001 w00002 lamb little w00003", "foo"),
                                s.classify("w00004 w00001 nosuchterm", "age")]),
        ("term_vector", lambda s: [s.term_vector(u) for u in urls]
            + [s.term_vector(urls[0], field="foo", with_positions=False)]),
        ("explain", lambda s: [s.explain(SH_Q, u) for u in urls]),
        ("search_sorted_by", lambda s: [
            s.search_sorted_by(SH_Q, [("foo", "asc"), ("warc_ts", "desc")], limit=15),
            s.search_sorted_by(SH_Q, [("doc_len", "desc"), ("age", "desc")], limit=15),
            s.search_sorted_by(SH_Q, [("foo", "asc"), ("warc_ts", "desc")], limit=10,
                               after_keys=[by_rows[-1]["foo"], by_rows[-1]["warc_ts"]],
                               after_url=by_rows[-1]["url"])]),
        ("classify_knn", lambda s: [s.classify_knn("w00001 w00002 w00003", "foo", k=10),
                                    s.classify_knn("w00004 w00001", "age", k=7,
                                                   exclude_url=urls[0])]),
        ("drill_sideways", lambda s: [
            s.drill_sideways(SH_Q, {"foo": ["v1", "v2", "lamb"], "age": "25"}, limit=10)]),
        ("rescore", lambda s: [s.rescore(SH_Q, '"w00001 w00002"~3 w00003', window_size=30,
                                         weight=1.5, limit=20)]),
        ("search_after", lambda s: [s.search_after(SH_Q, s5, u5, limit=10)]),
        ("complete", lambda s: [s.complete("w000", k=7), s.complete("l", field="foo")]),
        ("complete_infix", lambda s: [s.complete_infix("001", k=7),
                                      s.complete_infix("am", field="foo")]),
        ("more_like_this", lambda s: [
            s.more_like_this("w00001 w00002 w00003 w00001", limit=10),
            s.more_like_this("w00004 w00005", limit=6, exclude_url=urls[0])]),
        ("more_like_this_url", lambda s: [
            s.more_like_this_url(urls[0], limit=8),
            s.more_like_this_url(urls[1], max_query_terms=5, limit=8, include_self=True)]),
        ("search_batch", lambda s: [s.search_batch(batch)]),
        ("search", lambda s: [
            s.search(SH_Q, limit=12), s.search("w00003 w0001*", limit=7),
            s.search("w00001 w00007", synonyms={"w00001": ["w00002", "w00003"]}),
            s.search("lamb w00001", fields={"text": 1.0, "foo": 2.0}, tie_breaker=0.3,
                     limit=12),
            s.search("w00001 w00002 w00003 w00004", min_should_match=2, limit=12,
                     method="taat"),
            s.search("zzznope")]),
        ("snippets", lambda s: [s.snippets(SH_Q, texts, k=6),
                                s.snippets("w00003", texts, k=4, window=4)]),
    ]


SHARDED_PINS = {
    "facets":
        "9e8d5db9723201b35dde645b0221a70bd337f232501996006570b93ab1e793f4",
    "facets_taxonomy":
        "0b033ae2c012b37fbd10266a14b884a2b47076b778e7b784844c9ffc087b2406",
    "count":
        "5fddb08b6dcf2abce383861d47f4a3a339b60e2d477b3a309a1b1dd3ac923a8c",
    "search_sorted":
        "9aaf16986d36949144c6c6710bbdb0ed1459c3cf1b682c954f84b5f407f3b9a5",
    "suggest":
        "2c31b6e312d5aed0f1fb76eaf3ed95ffbdec7266bfecf0b0de13d59715761356",
    "facets_stats":
        "0c5fb7a2c799bb6f3f98f5d70290f9e36ca2952c96f89b62bce3510afdfda844",
    "search_grouped":
        "b1780c8970ee04534ed3895dd1f564a4d9e00ec9fb03cbf2b1a0cd673c56bb26",
    "top_terms":
        "05cc7ab22479e7e11c6dfbe4f752f09c755c533d257b48ca7678e6adb934d2b6",
    "facet_ranges":
        "28114045b49f26b546a857aed97d2fbef8b459182a7855e28ed02c5f9ad617ac",
    "search_function":
        "2ee920f7dc8afe9ddd71501cd4edad181f5f6981a695e708165f04b13a0931d7",
    "search_surround":
        "526948763797e0985a3f777d5d983ba01c12afe079fefeb4c3aa4c4cb626ccdb",
    "search_common":
        "d31428fd321cc9bfebaa24a954d55ad3a2d576db229f89f0bcd62bd664c8a8cf",
    "search_boosting":
        "6a734211779dfc0335c9c76c8400f8c51b688d357d4040d5c2b01385da93a577",
    "search_diversified":
        "f99713ff71bb9affd39c235ac04c297f4fd22897dc45f18057f005cf20ccd398",
    "search_expression":
        "8a6be713b6bb31117c4a9dbcf0eada2aa744540535a9ed6c7b42069b18c9276a",
    "search_expression_range":
        "60322e62a3551a326347674f48b80e999545edf69cfa88dd8e4adbc35cc82ebf",
    "search_filtered":
        "c848afa79c84a2a721d2e0f6a3b68cbf0010c599f8ba7f5878fbab9875e2d342",
    "span_near":
        "aeececebd7f2156e5f0d8c8fd1c1347b805b5ce07739a49c18873e418ad0bed0",
    "span_first":
        "8f0120b1c7128a39a3a39f9f8af407d2c815a6fcd5045948f0df9503f2c1eb35",
    "span_not":
        "cbfcbddc0eeada4709e1c2f58b093a6a774cc4b115009fab8f0223bcbb8aa17e",
    "search_join":
        "f6ef5e2631e3876f5ad58b2995bae2feee38c4d143d1a9b17b0ac31e192bb902",
    "classify":
        "1436dbd1ee47e6b28ceda2cd1a2e043e939a9f23e5e95ad9812d8727ba343847",
    "term_vector":
        "120474a61dba732f24441c9b8c185aa732f7694712038d0fa305b5ce73ad9d40",
    "explain":
        "b6d3de335e07e84f10eeb51962a5b1e35f11f97f731f5b7a132786b1f1d2a751",
    "search_sorted_by":
        "9a71517c16e7e60a731e2f0882f060bde1ac2ebf9bf80555d2b5444eab1fcf4e",
    "classify_knn":
        "ffce647e959803dc45a817c95e40268c9801de632ec7b9912c4931d1ca72e72e",
    "drill_sideways":
        "95b1e6f57c708bd6656d9e0f004c64a9ddf136b64beb66e625bc3ee4e33196b0",
    "rescore":
        "a72dc54b0dee812354c1f7218905463e0f85b608a13db7af9defec5791fae5e6",
    "search_after":
        "bfc8d8328510c9f316cadabdb02e94dbe8e568bb1909b9f9d32d72eadda50e31",
    "complete":
        "0197e992e3b3fcb9de006e90599385cb984e7b8bb2f59d38964cdd5e5220430d",
    "complete_infix":
        "2f5315ad74b2824571eef8f6726fa7174b12f0bfefda2d14352e5787ce51aa89",
    "more_like_this":
        "7b1a5975979ef218625d89e37005ff3bda985b3df3073041da7718cdb078032e",
    "more_like_this_url":
        "db2706a86bd6794bbe04339119b771662338e56ebdd659ed32de98367a9dd3ef",
    "search_batch":
        "13b938fe0320bcaccef444ec9e24d77fa185ccc0b712938b6986f68a1c89d9e9",
    "snippets":
        "5d6a5bea48695969ec5341145396302bd42ceb0e1aaf75539385d7926ffc7ee0",
    # computed from SearchEngine.search on the same calls
    "search":
        "bac6ffde31ee0b167861c3e1ad098a3175fb154bc1eeeb6132ec6e5d6c2e9087",
}


def test_sharded_surface_pinned(multigen, fleets):
    """Every public read method of ShardedSearcherService gives the outputs
    pinned at commit cb4a5f0, on fleets of 1 and 3 actors."""
    from lucene_plugin_ray.pipelines.query import SearchEngine
    from lucene_plugin_ray.pipelines.sharded import ShardedSearcherService

    cfg, _ = multigen
    calls = _sharded_calls(SearchEngine(cfg.index_root, cfg=cfg))
    public = {n for n in vars(ShardedSearcherService) if not n.startswith("_")}
    block_joins = {"block_join_parents", "block_join_children"}
    assert {n for n, _ in calls} == public - block_joins - {"shutdown"}
    got = {(n, name): _digest(call(svc)) for n, svc in fleets.items() for name, call in calls}
    assert got == {(n, name): d for name, d in SHARDED_PINS.items() for n in (1, 3)}


# (method, args, kwargs): bad input the engine rejects; the service must raise
# the same exception class with the same message.  ``search_batch`` is
# compared with ``SearchEngine.search`` at ``limit=k``.
PARITY = [
    ("facets", (SH_Q, "foo"), {"syntax": "lucene"}),
    ("facets", ("w00001 AND", "foo"), {}),
    ("facets_taxonomy", (SH_Q, ["foo", "nope"]), {}),
    ("facets_taxonomy", (SH_Q, []), {}),
    ("count", ("a^b",), {}),
    ("count", (SH_Q,), {"syntax": "lucene"}),
    ("search_sorted", (SH_Q,), {"limit": 0}),
    ("search_sorted", (SH_Q,), {"limit": -1}),
    ("suggest", ("w0001",), {"k": -1}),
    ("suggest", ("w0001",), {"max_edits": 3}),
    ("facets_stats", (SH_Q, "foo"), {"value_source": "age"}),
    ("facets_stats", ("w00001 AND", "foo"), {}),
    ("search_grouped", (SH_Q, "foo"), {"group_limit": 0}),
    ("search_grouped", (SH_Q, "text"), {}),
    ("top_terms", (), {"k": 0}),
    ("top_terms", (), {"field": "nope"}),
    ("facet_ranges", (SH_Q, [("a", 5, 1)]), {}),
    ("facet_ranges", (SH_Q, [("a", 0, 9)]), {"value_source": "age"}),
    ("search_function", (SH_Q, AUX_NOW_US, 0), {}),
    ("search_function", (SH_Q, AUX_NOW_US, 10), {"limit": 0}),
    ("search_surround", ("w00001 3W",), {}),
    ("search_surround", ("w00001 3W w00002",), {"limit": 0}),
    ("search_common", (SH_Q, -1.0), {}),
    ("search_common", ('"w00001 w00002"',), {}),
    ("search_boosting", (SH_Q, "w00003"), {"demote": 1.5}),
    ("search_boosting", (SH_Q, ""), {}),
    ("search_diversified", (SH_Q, "foo"), {"max_per_key": 0}),
    ("search_diversified", (SH_Q, "text"), {}),
    ("search_expression", (SH_Q, "__import__('os')"), {}),
    ("search_expression", (SH_Q, "_score * k"), {}),
    ("search_expression_range", (SH_Q, "_score"), {"lo": 2.0, "hi": 1.0}),
    ("search_expression_range", (SH_Q, "_score"), {}),
    ("search_filtered", (SH_Q, ""), {}),
    ("search_filtered", (SH_Q, "foo:v1"), {"limit": 0}),
    ("span_near", (["w00001"],), {}),
    ("span_near", (["w00001", "w00002"],), {"slop": -1}),
    ("span_first", ("w00001", 0), {}),
    ("span_not", ("w00001", []), {}),
    ("search_join", (SH_Q, "foo", "foo"), {"score_mode": "sum"}),
    ("search_join", (SH_Q, "text", "foo"), {}),
    ("classify", ("the and of", "foo"), {}),
    ("classify", (SH_Q, "nope"), {}),
    ("term_vector", ("http://not.live/x",), {}),
    ("term_vector", ("http://not.live/x",), {"field": "nope"}),
    ("explain", (SH_Q, "http://not.live/x"), {}),
    ("explain", ("w00001 AND", "http://not.live/x"), {}),
    ("search_sorted_by", (SH_Q, []), {}),
    ("search_sorted_by", (SH_Q, [("text", "asc")]), {}),
    ("classify_knn", (SH_Q, "nope"), {}),
    ("classify_knn", (SH_Q, "foo"), {"k": 0}),
    ("drill_sideways", (SH_Q, {}), {}),
    ("drill_sideways", (SH_Q, {"foo": 5}), {}),
    ("rescore", (SH_Q, "w00003"), {"window_size": 0}),
    ("rescore", (SH_Q, "w00003"), {"weight": float("nan")}),
    ("search_after", (SH_Q, float("inf"), "u"), {}),
    ("search_after", (SH_Q, 1.0, 5), {}),
    ("complete", ("",), {}),
    ("complete", ("w0",), {"k": 0}),
    ("complete_infix", (" ",), {}),
    ("complete_infix", ("w0",), {"field": "nope"}),
    ("more_like_this", (SH_Q,), {"max_query_terms": 0}),
    ("more_like_this", (SH_Q,), {"limit": 0}),
    ("more_like_this_url", ("http://not.live/x",), {}),
    ("more_like_this_url", ("http://not.live/x",), {"limit": 0}),
    ("search_batch", (SH_Q,), {"k": 0}),
    ("search_batch", ("zzznope",), {"k": -3}),
    ("snippets", (SH_Q, None), {"window": 0}),
    ("facets", (SH_Q, "nope"), {}),
    ("facets_stats", (SH_Q, "nope"), {}),
    ("suggest", ("lamb",), {"field": "nope"}),
    ("search_grouped", ("w00001 AND", "text"), {}),
    ("classify_knn", (SH_Q, "nope"), {"max_query_terms": 0}),
    ("search", (SH_Q,), {"limit": 0}),
    ("search", (SH_Q,), {"fields": {"nope": 1.0}}),
    ("search", (SH_Q,), {"tie_breaker": 0.5}),
    ("search", (SH_Q,), {"min_should_match": -1}),
    ("search", ("w00001 AND",), {}),
    ("search_sorted", (SH_Q,), {"sort_field": "nope"}),
    ("block_join_parents", (SH_Q, "foo:v1", "nope"), {"limit": 0}),
    ("block_join_children", (SH_Q, "foo:v1", "nope"), {"limit": 0}),
]


def _call(obj, op, args, kw):
    from lucene_plugin_ray.pipelines.query import SearchEngine

    if op == "search_batch":
        if isinstance(obj, SearchEngine):
            return obj.search(args[0], limit=kw["k"])
        return obj.search_batch(pa.table({"qid": [0], "query": [args[0]], "k": [kw["k"]]}))
    if op == "snippets":
        args = (args[0], _texts())
    return getattr(obj, op)(*args, **kw)


@pytest.mark.parametrize(
    "op,args,kw", PARITY, ids=[f"{op}-{i}" for i, (op, _, _) in enumerate(PARITY)]
)
def test_sharded_error_parity(engines, fleets, op, args, kw):
    with pytest.raises(Exception) as want:
        _call(engines["bm25"], op, args, kw)
    with pytest.raises(Exception) as got:
        _call(fleets[3], op, args, kw)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


# Parameters of an engine op that its fleet method leaves out, each because
# the fleet's own protocol sets it.
FLEET_SETS = {
    # the driver asks every shard for its first-pass scores and re-derives
    # the global window from them
    "rescore": {"include_first"},
    # the hits come from the fleet's own two-phase search
    "snippets": {"hits"},
    # the fleet probes the contract once, summed over the shards
    "block_join_parents": {"check_contract"},
}


def test_sharded_methods_have_engine_signatures():
    """Every public fleet method but ``search_batch`` and ``shutdown`` has
    its engine op's parameters (names, kinds, defaults and annotations),
    without the injected statistics and ``_``-prefixed parameters, except
    for the ones ``FLEET_SETS`` lists."""
    import inspect

    from lucene_plugin_ray.pipelines.query import SearchEngine
    from lucene_plugin_ray.pipelines.sharded import ShardedSearcherService

    injected = {"global_stats", "global_df", "global_ttf"}
    public = sorted(
        n for n in vars(ShardedSearcherService)
        if not n.startswith("_") and n not in ("search_batch", "shutdown")
    )
    assert len(public) == 37 and set(FLEET_SETS) <= set(public)
    for name in public:
        leave_out = injected | FLEET_SETS.get(name, set())
        want = [
            p for p in inspect.signature(getattr(SearchEngine, name)).parameters.values()
            if p.name not in leave_out and not p.name.startswith("_")
        ]
        got = list(inspect.signature(getattr(ShardedSearcherService, name)).parameters.values())
        assert got == want, name


SYN = {"w00001": ["w00002", "w00017"]}


def _widened_calls(full):
    """(op, call(obj)) for parameters the fleet gained from the engine's
    signature: each must give the engine's answer."""
    s5, u5 = _aux_anchor(full, SH_Q, 5)
    syn5 = full.search(SH_Q, limit=6, synonyms=SYN).to_pylist()[5]
    dis = {"fields": {"text": 1.0, "foo": 2.0}, "tie_breaker": 0.3}
    dis5 = full.search("lamb w00001", limit=6, **dis).to_pylist()[5]
    return [
        ("search_after", lambda o: [
            o.search_after(SH_Q, syn5["score"], syn5["url"], limit=10, synonyms=SYN),
            o.search_after("lamb w00001", dis5["score"], dis5["url"], limit=10, **dis),
            o.search_after("w00001 w00002 w00003", s5, u5, limit=10, min_should_match=2)]),
        ("count", lambda o: [
            o.count("w00001 w00002 w00003 w00004", min_should_match=2),
            o.count(SH_Q, synonyms=SYN), o.count("lamb w00001", fields=dis["fields"])]),
        ("search_sorted", lambda o: [o.search_sorted(SH_Q, sort_field="warc_ts", limit=9)]),
        ("search_grouped", lambda o: [
            o.search_grouped(SH_Q, "foo", group_limit=5, docs_per_group=3, synonyms=SYN)]),
        ("search_join", lambda o: [
            o.search_join(SH_Q, "foo", "foo", limit=12, synonyms=SYN),
            o.search_join("w00003", "age", "age", score_mode="none", limit=12,
                          synonyms={"w00003": ["w00004"]})]),
        ("block_join_parents", lambda o: [
            o.block_join_parents("w00003", "age:25 -w00003", "foo", limit=12,
                                 synonyms={"w00003": ["w00004"]})]),
        ("block_join_children", lambda o: [
            o.block_join_children(SH_Q, "age:25", "foo", limit=12, synonyms=SYN)]),
    ]


def test_sharded_widened_parameters_equal_engine(multigen, fleets):
    """The parameters the fleet gained (synonyms, dismax fields,
    tie_breaker, min_should_match, sort_field) give the engine's answer
    on fleets of 1 and 3 actors."""
    from lucene_plugin_ray.pipelines.query import SearchEngine

    cfg, _ = multigen
    full = SearchEngine(cfg.index_root, cfg=cfg)
    for name, call in _widened_calls(full):
        out = call(full)
        assert all(t.num_rows if isinstance(t, pa.Table) else t for t in out), name
        want = _canon(out)
        for n, svc in fleets.items():
            assert _canon(call(svc)) == want, (name, n)


def test_scope_dictionary_built_lazily(multigen):
    """Engine open, term / phrase / range ``search``, the sharded phase-1
    df lookup and ``search_partial`` build no term dictionary; the first
    expansion query (prefix / wildcard / regexp / fuzzy) and the first
    vocabulary op each build exactly one, for their (scope, field)."""
    from lucene_plugin_ray.pipelines.query import SearchEngine

    cfg, _ = multigen

    def built(eng):
        return [(c, f) for c, sc in eng._scopes.items() for f in sc._dicts]

    eng = SearchEngine(cfg.index_root, cfg=cfg)
    q = 'w00001 +w00002 [w00010 TO w00020] "w00008 w00001"'
    eng.search(q, limit=10)
    keys = sorted(scored_term_keys(parse_query(q)))
    eng.search_partial(
        q, limit=10, global_stats=eng.local_collection_stats(),
        global_df=eng.local_term_dfs("default", keys),
    )
    assert list(eng._scopes) == ["default"]
    assert built(eng) == []
    eng.search("w00001 w0001* w000?3 w00012~1 /w00.*/", limit=10)
    assert built(eng) == [("default", "text")]

    eng = SearchEngine(cfg.index_root, cfg=cfg)
    eng.complete("w0001")
    assert built(eng) == [("default", "text")]
