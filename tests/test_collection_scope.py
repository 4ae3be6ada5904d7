"""Collection scope: ``search`` / ``search_partial`` score each query ONCE
over the collection's live segments laid end to end in one docid space.

The reference is the per-segment rule the scope replaces: score every
segment alone (its one-member scope), keep each segment's top-k and merge on
(score desc, url asc).  Over a 4-partition index with three generations of
upserts and deletes, the scope must give the same (url, score, docid) table
bit for bit, for every clause kind and under bm25, classic and lmdirichlet;
under bm25 it must also agree with ``OracleIndex``.  The block-max executors
(which keep their per-segment loop) must still equal TAAT, and a warm term
must sit in the postings LRU once, under the scope.
"""

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
def multigen(ray_session, tmp_path_factory):
    """4 partitions × 3 generations: gen 0 builds 60% of the urls; gen 1
    adds 20% more, upserts 40 gen-0 docs and deletes 15; gen 2 adds the rest,
    upserts 30 docs of gens 0/1 and deletes 15 more."""
    from lucene_plugin_ray.pipelines.build import build_delta, build_index
    from lucene_plugin_ray.pipelines.oracle import OracleIndex

    corpus = make_pages(400, seed=53, with_fields=True).drop_columns(["html"])
    urls = sorted(set(corpus["url"].to_pylist()))
    cut1, cut2 = int(len(urls) * 0.6), int(len(urls) * 0.8)

    def rows_of(us):
        return corpus.filter(pc.is_in(corpus["url"], value_set=pa.array(us)))

    def upserts(us, shift_s):
        t = rows_of(us)
        ts = pc.cast(t["warc_ts"], pa.int64())
        newer = pc.cast(pc.add(ts, shift_s * 1_000_000), pa.timestamp("us"))
        text = pc.binary_join_element_wise(t["text"], " upsertmarker w00001", "")
        t = t.set_column(t.schema.get_field_index("warc_ts"), "warc_ts", newer)
        return t.set_column(t.schema.get_field_index("text"), "text", text)

    def deletes(us):
        return pa.table({"collection": ["default"] * len(us), "url": us})

    root = str(tmp_path_factory.mktemp("idx_scope"))
    cfg = IndexConfig(index_root=root, num_partitions=4, field_columns=("foo",))
    build_index(rows_of(urls[:cut1]), cfg)
    up1, del1 = urls[0:cut1:6][:40], urls[3:cut1:11][:15]
    d1 = deletes(del1)
    build_delta(pa.concat_tables([rows_of(urls[cut1:cut2]), upserts(up1, 10**6)]), cfg, deletes=d1)
    up2 = [u for u in urls[1:cut2:9] if u not in del1][:30]
    del2 = [u for u in urls[5:cut2:13] if u not in del1 and u not in up2][:15]
    d2 = deletes(del2)
    build_delta(pa.concat_tables([rows_of(urls[cut2:]), upserts(up2, 2 * 10**6)]), cfg, deletes=d2)

    every = pa.concat_tables(
        [corpus, upserts(up1, 10**6), upserts(up2, 2 * 10**6)]
    )
    oracle = OracleIndex(every, cfg, deletes=pa.concat_tables([d1, d2]))
    return cfg, oracle


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
    cache, gdf, gttf = eng._phase1_df(
        list(clauses), [s.scope for s in segs], df, ttf
    )
    pure_and = len(clauses) > 1 and all(
        isinstance(c, TermClause) and c.occur == MUST and c.boost == 1.0
        for c in clauses
    ) and min_should == 0
    parts = []
    for seg in segs:
        if pure_and:
            t = eng._score_segment_and(
                seg.scope, list(clauses), cache, gdf, n_docs, avgdl, limit,
                global_ttf=gttf,
            )
        else:
            t = eng._score_segment_taat(
                seg.scope, list(clauses), cache, gdf, n_docs, avgdl, limit,
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
    lookup.  A one-segment aux op keeps its own per-segment entries."""
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

    eng.count("w00001")  # aux op: one-member scopes
    seg_keys = [k for k in eng._postings_cache if k[1:] == ("text", "w00001")]
    assert len(seg_keys) == len(set(seg_keys)) == 1 + sum(
        1 for s in scope.segs if s.reader.lookup("text", "w00001") >= 0
    )
