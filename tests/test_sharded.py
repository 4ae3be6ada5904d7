"""Partition-sharded query execution (T2 at cluster scale,
pipelines/sharded.py): each shard actor loads ONLY its assigned partitions;
two-phase df-then-score keeps BM25 corpus-global; shard merge is exact."""

import numpy as np
import pyarrow as pa
import pytest

from lucene_plugin_ray.config import IndexConfig
from lucene_plugin_ray.pipelines.fixtures import make_delete_set, make_pages

QUERIES = [
    (0, "pagehit", 255),
    (1, "w00000", 10),
    (2, "pagehit w00001 w00002", 50),       # OR
    (3, "+pagehit +lorem", 20),             # AND (may be empty)
    (4, "dupmarker0", 10),
    (5, "zzznope", 10),                     # miss
    (6, "*:*", 40),                         # MatchAllDocsQuery
    (7, "*:* AND w00000", 20),              # match-all as filter base
]


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    from lucene_plugin_ray.pipelines.build import build_delta, build_index, delete_docs
    from lucene_plugin_ray.pipelines.query import SearchEngine

    corpus = make_pages(300, seed=70)
    root = str(tmp_path_factory.mktemp("idx_shard"))
    cfg = IndexConfig(index_root=root, num_partitions=8)
    build_index(corpus, cfg)
    # exercise the chain: a delta generation + explicit tombstones, so the
    # sharded path must resolve cross-generation masking identically
    build_delta(make_pages(60, seed=71), cfg)
    delete_docs(cfg, make_delete_set(corpus, every=40))
    return root, cfg, SearchEngine(root, cfg=cfg)


def _query_table():
    return pa.table(
        {
            "qid": pa.array([q[0] for q in QUERIES], type=pa.int64()),
            "collection": ["default"] * len(QUERIES),
            "query": [q[1] for q in QUERIES],
            "k": pa.array([q[2] for q in QUERIES], type=pa.int32()),
        }
    )


def test_partition_restricted_engine_loads_only_assigned(built):
    """The VERDICT 'done' criterion: an engine given a partition subset
    touches only those partitions' segments."""
    from lucene_plugin_ray.pipelines.query import SearchEngine

    root, cfg, full = built
    sub = SearchEngine(root, cfg=cfg, partitions={1, 3, 5})
    seen = {
        ls.reader.partition for segs in sub._segments.values() for ls in segs
    }
    assert seen <= {1, 3, 5}
    assert seen  # fixture large enough that these partitions hold docs
    # disjoint engines partition the alive doc counts exactly
    other = SearchEngine(root, cfg=cfg, partitions={0, 2, 4, 6, 7})
    n_full, _ = full._stats("default")
    n_sub, _ = sub._stats("default")
    n_other, _ = other._stats("default")
    assert n_sub + n_other == n_full


@pytest.mark.parametrize("num_shards", [1, 3, 8])
def test_sharded_search_matches_full_engine(built, num_shards):
    from lucene_plugin_ray.pipelines.sharded import sharded_search

    root, cfg, engine = built
    out = sharded_search(
        root, _query_table(), cfg=cfg, num_shards=num_shards, concurrency=2
    )
    by_qid: dict[int, list] = {}
    for r in out.to_pylist():
        by_qid.setdefault(r["qid"], []).append((r["rank"], r["url"], r["score"]))
    for qid, q, k in QUERIES:
        exp = engine.search(q, limit=k)
        got = sorted(by_qid.get(qid, []))
        assert [u for _, u, _ in got] == exp["url"].to_pylist(), (q, num_shards)
        np.testing.assert_allclose(
            [s for _, _, s in got], exp["score"].to_numpy(), atol=1e-9
        )


def test_shard_workers_touch_only_assigned_partitions(built):
    """Drive the per-batch task functions directly: the engines they build
    hold only the assigned partitions (no whole-index load in any worker)."""
    from lucene_plugin_ray.pipelines import sharded
    from lucene_plugin_ray.pipelines.sharded import (
        _reduce_stats,
        _shard_score_batch,
        _shard_stats_batch,
        shard_assignment,
    )

    root, cfg, engine = built
    shards = shard_assignment(cfg.num_partitions, 4)
    gen = engine.generation
    terms = {"default": [("text", "pagehit"), ("text", "w00000")]}

    sharded._PROC_ENGINES.clear()
    stats_ctx = (root, gen, cfg, terms)
    batch = pa.Table.from_pylist(shards[:1])
    rows = _shard_stats_batch(batch, stats_ctx).to_pylist()
    cache = sharded._PROC_ENGINES[(root, gen, repr(cfg))]
    for parts, eng in cache._engines.items():
        owned = {
            ls.reader.partition for segs in eng._segments.values() for ls in segs
        }
        assert owned <= set(parts)

    # global df from ALL shards equals the full engine's df
    all_rows = []
    for s in shards:
        all_rows.extend(_shard_stats_batch(pa.Table.from_pylist([s]), stats_ctx).to_pylist())
    stats, df_by_coll = _reduce_stats(all_rows)
    full_df = engine.local_term_dfs("default", terms["default"])
    assert df_by_coll["default"] == full_df
    n_full, avg_full = engine._stats("default")
    assert stats["default"]["n_docs"] == n_full

    qlist = [{"qid": 0, "collection": "default", "query": "pagehit", "limit": 255}]
    score_ctx = (root, gen, cfg, qlist, "taat", stats, df_by_coll)
    _shard_score_batch(pa.Table.from_pylist(shards[:1]), score_ctx)
    for parts, eng in cache._engines.items():
        owned = {
            ls.reader.partition for segs in eng._segments.values() for ls in segs
        }
        assert owned <= set(parts)
    # engines persist per worker process (the warm path across calls): the
    # score pass over shard 0 reused the stats pass's engine object
    assert len(cache._engines) <= len(shards)


def test_sharded_range_and_field_queries(built):
    """Range (constant-score) and non-default-field clauses through the
    sharded path."""
    from lucene_plugin_ray.pipelines.sharded import sharded_search

    root, cfg, engine = built
    q = pa.table(
        {
            "qid": pa.array([0], type=pa.int64()),
            "collection": ["default"],
            "query": ["url:[u TO uzz]"],
            "k": pa.array([100], type=pa.int32()),
        }
    )
    # the fixture has no extra field columns; use a text range instead
    q = pa.table(
        {
            "qid": pa.array([0], type=pa.int64()),
            "collection": ["default"],
            "query": ["text:[pagehit TO pagehit]"],
            "k": pa.array([100], type=pa.int32()),
        }
    )
    out = sharded_search(root, q, cfg=cfg, num_shards=3, concurrency=2)
    exp = engine.search("text:[pagehit TO pagehit]", limit=100)
    assert sorted(out["url"].to_pylist()) == sorted(exp["url"].to_pylist())


def test_sharded_searcher_service(built):
    """Persistent serving mode (long-lived shard actors): identical results
    to the whole-index engine, across two batches on the same fleet."""
    from lucene_plugin_ray.pipelines.sharded import ShardedSearcherService

    root, cfg, engine = built
    svc = ShardedSearcherService(root, cfg=cfg, num_shards=4)
    try:
        for _ in range(2):  # repeated batches reuse the warm fleet
            out = svc.search_batch(_query_table())
            by_qid: dict[int, list] = {}
            for r in out.to_pylist():
                by_qid.setdefault(r["qid"], []).append(
                    (r["rank"], r["url"], r["score"])
                )
            for qid, q, k in QUERIES:
                exp = engine.search(q, limit=k)
                got = sorted(by_qid.get(qid, []))
                assert [u for _, u, _ in got] == exp["url"].to_pylist(), q
    finally:
        svc.shutdown()


def test_sharded_search_survives_actor_death(built, tmp_path):
    """VERDICT r2 #3: a score worker killed MID-BATCH (os._exit via the
    fault-injection sentinel) must not fail the query batch — Ray retries
    the task on another worker and results stay exact (no actor restart
    path exists to poison: the passes are task pools)."""
    from lucene_plugin_ray.pipelines.sharded import sharded_search

    root, cfg, engine = built
    fault = tmp_path / "kill_once"
    fault.write_text("x")
    out = sharded_search(
        root, _query_table(), cfg=cfg, num_shards=4, concurrency=2,
        _fault_path=str(fault),
    )
    assert not fault.exists()  # the fault actually fired
    by_qid: dict[int, list] = {}
    for r in out.to_pylist():
        by_qid.setdefault(r["qid"], []).append((r["rank"], r["url"], r["score"]))
    for qid, q, k in QUERIES:
        exp = engine.search(q, limit=k)
        got = sorted(by_qid.get(qid, []))
        assert [u for _, u, _ in got] == exp["url"].to_pylist(), q


def test_process_engine_cache_keys_on_cfg(built):
    """A warm worker process must not serve a call with a DIFFERENT
    IndexConfig from engines cached under the previous one: same root +
    generation, different BM25 b → different scores (cache keyed on cfg)."""
    from lucene_plugin_ray.pipelines.sharded import sharded_search

    root, cfg, _ = built
    qt = _query_table()
    a = sharded_search(root, qt, cfg=cfg, num_shards=2)
    import dataclasses

    cfg_b = dataclasses.replace(cfg, b=0.0)  # length norm off
    b = sharded_search(root, qt, cfg=cfg_b, num_shards=2)
    assert a.num_rows > 0 and b.num_rows > 0
    sa = {(q, u): s for q, u, s in zip(a["qid"].to_pylist(), a["url"].to_pylist(), a["score"].to_pylist())}
    sb = {(q, u): s for q, u, s in zip(b["qid"].to_pylist(), b["url"].to_pylist(), b["score"].to_pylist())}
    shared = set(sa) & set(sb)
    assert shared
    assert any(abs(sa[k] - sb[k]) > 1e-9 for k in shared)


def test_service_survives_shard_actor_kill(built):
    """Persistent-fleet fault tolerance: killing a shard actor between
    batches must not poison the service — the actor restarts (its
    constructor args are small by-value, the round-2 restart hazard fix)
    and re-pins its partition subset; results stay exact."""
    import ray as _ray

    from lucene_plugin_ray.pipelines.sharded import ShardedSearcherService

    root, cfg, engine = built
    svc = ShardedSearcherService(root, cfg=cfg, num_shards=3)
    try:
        before = svc.search_batch(_query_table())
        _ray.kill(svc.actors[1], no_restart=False)
        after = svc.search_batch(_query_table())
        assert after.equals(before)
        # the whole read surface still answers after the restart
        assert svc.count("pagehit") == engine.count("pagehit")
    finally:
        svc.shutdown()


@pytest.mark.parametrize("num_shards,actors", [(3, 3), (4, 4), (8, 4)])
def test_service_fleet_is_capped_at_cluster_cpus(built, caplog, num_shards, actors):
    """The session cluster has 4 CPUs: up to 4 shards start one actor each
    (the multi-actor protocol stays covered); 8 shards over the
    8-partition index start 4 actors whose round-robin subsets cover every
    partition exactly once, and the cap is logged."""
    import logging

    import ray as _ray

    from lucene_plugin_ray.pipelines.sharded import ShardedSearcherService

    root, cfg, engine = built
    assert int(_ray.cluster_resources()["CPU"]) == 4
    caplog.set_level(logging.INFO, logger="lucene_plugin_ray.pipelines.sharded")
    svc = ShardedSearcherService(root, cfg=cfg, num_shards=num_shards)
    try:
        assert len(svc.actors) == len(svc.shard_partitions) == actors
        flat = sorted(p for parts in svc.shard_partitions for p in parts)
        assert flat == list(range(8))
        assert svc.count("pagehit") == engine.count("pagehit")
        capped = [r.getMessage() for r in caplog.records if "shard actors" in r.getMessage()]
        if num_shards > actors:
            assert capped == ["ShardedSearcherService: 8 shards requested, the "
                              "cluster has 4 CPUs; starting 4 shard actors"]
        else:
            assert capped == []
    finally:
        svc.shutdown()


def test_one_cpu_fleet_answers_like_four_actors_and_engine(built, monkeypatch):
    """On a one-CPU cluster the service starts ONE actor pinning every
    partition; its whole read surface answers exactly like a 4-actor fleet
    and like the whole-index engine."""
    import ray as _ray

    from lucene_plugin_ray.pipelines.sharded import ShardedSearcherService

    root, cfg, engine = built
    four = ShardedSearcherService(root, cfg=cfg, num_shards=4)
    monkeypatch.setattr(_ray, "cluster_resources", lambda: {"CPU": 1.0})
    one = ShardedSearcherService(root, cfg=cfg, num_shards=4)
    try:
        assert len(four.actors) == 4
        assert len(one.actors) == 1 and one.shard_partitions == [list(range(8))]
        qt = _query_table()
        batch = one.search_batch(qt)
        assert batch.equals(four.search_batch(qt))
        for qid, q, k in QUERIES:
            got = batch.filter(pa.compute.equal(batch["qid"], qid))
            exp = engine.search(q, limit=k)
            assert got.select(["url", "score"]).equals(exp.select(["url", "score"])), q
        for q in ("pagehit", "w00000 w00001", "*:*", "zzznope"):
            assert one.count(q) == four.count(q) == engine.count(q), q
        facets = one.facets("w00000", "text")
        assert facets.num_rows > 0
        assert facets.equals(four.facets("w00000", "text"))
        assert facets.equals(engine.facets("w00000", "text"))
        for url in engine.search("w00001 w00002", limit=3)["url"].to_pylist():
            tv = one.term_vector(url)
            assert tv.equals(four.term_vector(url)) and tv.equals(engine.term_vector(url))
            ex = one.explain("w00001 w00002", url)
            assert ex == four.explain("w00001 w00002", url) == engine.explain("w00001 w00002", url)
    finally:
        one.shutdown()
        four.shutdown()


def test_sharded_snippets_match_local(built):
    """Snippet parity through the persistent service: identical (url, score,
    start, n_terms, snippet) rows to SearchEngine.snippets given the same
    texts table — the hits come from the exact two-phase sharded search,
    the window selection is index-free."""
    from lucene_plugin_ray.pipelines.sharded import ShardedSearcherService

    root, cfg, engine = built
    # same deterministic corpora the fixture indexed; last write wins the
    # map, but IDENTITY only needs both paths to see the SAME texts
    text_of: dict[str, str] = {}
    for t in (make_pages(300, seed=70), make_pages(60, seed=71)):
        text_of.update(zip(t["url"].to_pylist(), t["text"].to_pylist()))
    texts = pa.table(
        {"url": list(text_of.keys()), "text": list(text_of.values())}
    )
    svc = ShardedSearcherService(root, cfg=cfg, num_shards=4)
    try:
        for q, k in [("w00000 w00001 pagehit", 12), ("pagemiss", 3)]:
            exp = engine.snippets(q, texts, k=k, window=8)
            got = svc.snippets(q, texts, k=k, window=8)
            assert got.to_pydict() == exp.to_pydict(), q
        # no hits → empty table with the snippet schema
        empty = svc.snippets("zzznope", texts, k=5)
        assert empty.num_rows == 0 and "snippet" in empty.column_names
        with pytest.raises(ValueError):
            svc.snippets("pagehit", texts, window=0)
    finally:
        svc.shutdown()


def test_sharded_dismax_matches_full_engine(ray_session, tmp_path):
    """fields/tie_breaker on the sharded path: the dismax rewrite travels
    structured to the shards, the phase-1 df gather covers every per-field
    leg, and results equal the whole-index engine's dismax exactly."""
    from lucene_plugin_ray.pipelines.build import build_index
    from lucene_plugin_ray.pipelines.query import SearchEngine
    from lucene_plugin_ray.pipelines.sharded import sharded_search

    corpus = make_pages(200, seed=77, with_fields=True)
    root = str(tmp_path / "dmx_shard")
    cfg = IndexConfig(
        index_root=root, num_partitions=6, field_columns=("foo", "age")
    )
    build_index(corpus, cfg)
    engine = SearchEngine(root, cfg=cfg)
    fields = {"text": 1.0, "foo": 2.0}
    cases = [(0, "lamb", 20), (1, "w00000 lamb", 15), (2, "+w00000 +lamb", 25)]
    q = pa.table(
        {
            "qid": pa.array([c[0] for c in cases], type=pa.int64()),
            "collection": ["default"] * len(cases),
            "query": [c[1] for c in cases],
            "k": pa.array([c[2] for c in cases], type=pa.int32()),
        }
    )
    out = sharded_search(
        root, q, cfg=cfg, num_shards=3, concurrency=2,
        fields=fields, tie_breaker=0.4,
    )
    by_qid: dict[int, list] = {}
    for r in out.to_pylist():
        by_qid.setdefault(r["qid"], []).append((r["rank"], r["url"], r["score"]))
    for qid, query, k in cases:
        exp = engine.search(query, limit=k, fields=fields, tie_breaker=0.4)
        got = sorted(by_qid.get(qid, []))
        assert [u for _, u, _ in got] == exp["url"].to_pylist(), query
        np.testing.assert_allclose(
            [s for _, _, s in got], exp["score"].to_numpy(), atol=1e-9
        )
    # invalid fields rejected before any cluster work
    with pytest.raises(ValueError, match="unknown dismax field"):
        sharded_search(root, q, cfg=cfg, fields={"nope": 1.0})


def test_sharded_min_should_match_matches_full_engine(built):
    from lucene_plugin_ray.pipelines.sharded import sharded_search

    root, cfg, engine = built
    q = pa.table(
        {
            "qid": pa.array([0, 1], type=pa.int64()),
            "collection": ["default", "default"],
            "query": ["pagehit w00001 w00002", "w00000 w00001 w00002"],
            "k": pa.array([50, 50], type=pa.int32()),
        }
    )
    out = sharded_search(
        root, q, cfg=cfg, num_shards=3, concurrency=2, min_should_match=2
    )
    by_qid: dict[int, list] = {}
    for r in out.to_pylist():
        by_qid.setdefault(r["qid"], []).append((r["rank"], r["url"], r["score"]))
    for qid, query in [(0, "pagehit w00001 w00002"), (1, "w00000 w00001 w00002")]:
        exp = engine.search(query, limit=50, min_should_match=2)
        got = sorted(by_qid.get(qid, []))
        assert [u for _, u, _ in got] == exp["url"].to_pylist(), query
        np.testing.assert_allclose(
            [s for _, _, s in got], exp["score"].to_numpy(), atol=1e-9
        )
    with pytest.raises(ValueError):
        sharded_search(root, q, cfg=cfg, min_should_match=-2)


def test_sharded_explain_matches_single_engine(built):
    """ShardedSearcherService.explain routes to the url's owner shard with
    injected global stats — identical dict to the whole-index explain, and
    the clause weights still sum to the sharded search score."""
    from lucene_plugin_ray.pipelines.query import SearchEngine
    from lucene_plugin_ray.pipelines.sharded import ShardedSearcherService

    root, cfg, full = built
    svc = ShardedSearcherService(root, cfg=cfg, num_shards=3)
    try:
        hits = full.search("w00001 w00002", limit=3)
        assert hits.num_rows > 0
        for url in hits["url"].to_pylist():
            single = full.explain("w00001 w00002", url)
            fleet = svc.explain("w00001 w00002", url)
            assert fleet == single, url
        # weights sum to the sharded search score bit-for-bit
        url0 = hits["url"][0].as_py()
        ex = svc.explain("w00001 w00002", url0)
        assert ex["matched"] is True
        assert ex["score"] == hits["score"][0].as_py()
        with pytest.raises(KeyError):
            svc.explain("w00001", "https://nope.example/x")
    finally:
        svc.shutdown()
