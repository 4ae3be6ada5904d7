"""E2E: Ray Data build → segment files → query engine ≡ brute-force oracle
(SURVEY.md §5.2 layers 2-3)."""

import os

import numpy as np
import pyarrow as pa
import pytest

from lucene_plugin_ray.config import IndexConfig
from lucene_plugin_ray.pipelines.fixtures import make_delete_set, make_pages, make_query_set
from lucene_plugin_ray.pipelines.oracle import OracleIndex


N_DOCS = 400


@pytest.fixture(scope="module")
def corpus():
    return make_pages(N_DOCS, seed=42)


@pytest.fixture(scope="module")
def built(ray_session, corpus, tmp_path_factory):
    from lucene_plugin_ray.pipelines.build import build_index
    from lucene_plugin_ray.pipelines.query import SearchEngine

    root = str(tmp_path_factory.mktemp("idx"))
    cfg = IndexConfig(index_root=root, num_partitions=4)
    manifest = build_index(corpus, cfg)
    engine = SearchEngine(root, cfg=cfg)
    oracle = OracleIndex(corpus, cfg)
    return cfg, manifest, engine, oracle


def test_make_pages_large_corpus():
    """make_pages above ~12k docs: pa.array of the flat token array comes
    back chunked and must be combined before ListArray.from_arrays.  Smaller
    corpora stay byte-identical (pinned content digest)."""
    import hashlib
    import json

    big = make_pages(20_000, seed=3)
    assert big.num_rows >= 20_000
    assert len(set(big["url"].to_pylist())) == 20_000
    lens = [len(t.split()) for t in big["text"].to_pylist()]
    assert 50 < np.median(lens) < 500  # min_len..max_len tokens per page
    small = make_pages(10_000, seed=7, with_fields=True)
    digest = hashlib.sha256(
        json.dumps(small.to_pydict(), default=str).encode()
    ).hexdigest()
    assert digest == "5625ed8b67cc664ab1ed40cb6d92bd14acd64602525d839fc96e8fc75e99cfd3"


def _assert_rank_identical(engine, oracle, query, collection="default", limit=10, method="taat"):
    got = engine.search(query, collection=collection, limit=limit, method=method)
    exp = oracle.search(query, collection=collection, limit=limit)
    got_rows = list(zip(got["url"].to_pylist(), got["score"].to_pylist()))
    assert [u for u, _ in got_rows] == [u for u, _ in exp], (
        f"query={query!r} method={method}\n engine={got_rows}\n oracle={exp}"
    )
    for (u, s), (_, es) in zip(got_rows, exp):
        assert abs(s - es) < 1e-6, f"query={query!r} url={u}: {s} vs {es}"


def test_manifest_counts(built, corpus):
    cfg, manifest, engine, oracle = built
    n_unique = len(set(corpus["url"].to_pylist()))
    total = sum(r["n_docs"] for r in manifest.partitions)
    assert total == n_unique  # dup urls upserted away
    assert len({r["partition"] for r in manifest.partitions}) == cfg.num_partitions


def test_docids_match_oracle(built):
    cfg, manifest, engine, oracle = built
    # engine docs tables must reproduce the oracle's docid assignment exactly
    eng_map = {}
    for seg in engine._segments["default"]:
        r = seg.reader
        for i, u in enumerate(r.urls):
            eng_map[("default", u)] = r.doc_base + i
    assert eng_map == oracle.docids


def test_term_queries_rank_identical(built):
    cfg, manifest, engine, oracle = built
    for q in ["Firstword3", "lastword5", "pagehit", "scorecheck", "w00001",
              "w00010 w00200", "dupmarker1", "oldmarker1", "zzmissing"]:
        _assert_rank_identical(engine, oracle, q, limit=25)


def test_full_query_set(built):
    cfg, manifest, engine, oracle = built
    for spec in make_query_set(N_DOCS):
        if spec["kind"] in ("range", "field_term"):
            continue  # exercised in the fields variant test below
        _assert_rank_identical(
            engine, oracle, spec["query"], collection=spec["collection"], limit=spec["k"]
        )


def test_bmw_equals_taat(built):
    cfg, manifest, engine, oracle = built
    for q in ["pagehit", "scorecheck", "w00001 w00005 w00020", "w00034 w00100",
              "Firstword2 w00050"]:
        _assert_rank_identical(engine, oracle, q, limit=10, method="bmw")


def test_upsert_semantics(built):
    cfg, manifest, engine, oracle = built
    # ≙ TestSearchText.java:32-40 / TestSearchWithUpdate.java:32-42: only the
    # newest version of a dup url is visible
    for i in range(4):
        hits = engine.search(f"dupmarker{i}", limit=255)
        assert hits.num_rows == 1, f"dupmarker{i}"
        assert engine.search(f"oldmarker{i}", limit=255).num_rows == 0


def test_paging_group(built):
    cfg, manifest, engine, oracle = built
    # ≙ TestPaging.java:54-60: exactly the 10 'pagehit' docs match
    assert engine.search("pagehit", limit=255).num_rows == 10
    assert engine.search("pagemiss", limit=255).num_rows == 1


def test_stopword_queries_empty(built):
    cfg, manifest, engine, oracle = built
    for q in ["the", "a", "the a of to"]:
        assert engine.search(q, limit=255).num_rows == 0


def test_byte_identity(built, corpus):
    """§1.2 invariant: sha256(indexed text) == sha256(input text) per url."""
    import hashlib

    cfg, manifest, engine, oracle = built
    latest = {}
    for r in corpus.to_pylist():
        key = r["url"]
        if key not in latest or r["warc_ts"] > latest[key][0]:
            latest[key] = (r["warc_ts"], r["text"])
    expected = {
        u: hashlib.sha256((t or "").encode()).hexdigest() for u, (_, t) in latest.items()
    }
    got = {}
    for seg in engine._segments["default"]:
        for u, h in zip(seg.reader.urls, seg.reader.text_sha256):
            got[u] = h
    assert got == expected


def test_result_limit_default_255(built):
    cfg, manifest, engine, oracle = built
    # K1 parity: facade limit ignored by reference reader → effective cap 255
    res = engine.search("w00000")  # head term, matches many docs
    assert res.num_rows <= 255


def test_bmax_equals_taat(built):
    cfg, manifest, engine, oracle = built
    for q in ["pagehit", "scorecheck", "w00001 w00005 w00020", "w00034 w00100",
              "Firstword2 w00050", "w00000", "zzmiss"]:
        _assert_rank_identical(engine, oracle, q, limit=10, method="bmax")
        _assert_rank_identical(engine, oracle, q, limit=255, method="bmax")


def test_bmax_with_deletes(ray_session, tmp_path_factory):
    """bmax alive-filtering: deleted docs are excluded AFTER block scoring;
    results match the oracle on a tombstoned chain."""
    import pyarrow as pa

    from lucene_plugin_ray.pipelines.build import build_index, delete_docs
    from lucene_plugin_ray.pipelines.query import SearchEngine

    corpus = make_pages(200, seed=77)
    root = str(tmp_path_factory.mktemp("idx_bmaxdel"))
    cfg = IndexConfig(index_root=root, num_partitions=4)
    build_index(corpus, cfg)
    victims = sorted(set(corpus["url"].to_pylist()))[::9]
    delete_docs(cfg, pa.table({"collection": ["default"] * len(victims),
                               "url": victims}))
    engine = SearchEngine(root, cfg=cfg)
    oracle = OracleIndex(
        corpus, cfg,
        deletes=pa.table({"collection": ["default"] * len(victims), "url": victims}),
    )
    for q in ["w00000", "pagehit", "w00010 w00100", "w00001 w00005 w00020"]:
        _assert_rank_identical(engine, oracle, q, limit=25, method="bmax")
        _assert_rank_identical(engine, oracle, q, limit=25, method="bmw")


def test_auto_routes_head_disjunctions_to_bmax(built, monkeypatch):
    """method='auto' (the search() default, VERDICT r03 item 4): unboosted
    pure-SHOULD term disjunctions whose max global df clears
    IndexConfig.bmax_auto_df_threshold run on the block-max path;
    MUST/boost/low-df queries stay TAAT.  Results identical either way."""
    cfg, manifest, engine, oracle = built
    calls = {"bmax": 0}
    orig = engine._score_segment_bmax

    def spy(*a, **kw):
        calls["bmax"] += 1
        return orig(*a, **kw)

    monkeypatch.setattr(engine, "_score_segment_bmax", spy)
    monkeypatch.setattr(engine.cfg, "bmax_auto_df_threshold", 1)

    engine._results_cache.clear()
    _assert_rank_identical(engine, oracle, "pagehit w00001", limit=10,
                           method="auto")
    assert calls["bmax"] > 0  # head disjunction routed to block-max

    # MUST conjunction: never block-max under auto
    before = calls["bmax"]
    engine._results_cache.clear()
    _assert_rank_identical(engine, oracle, "+pagehit +w00001", limit=10,
                           method="auto")
    assert calls["bmax"] == before

    # boosted clause: stays TAAT (block-max bounds assume unboosted BM25)
    engine._results_cache.clear()
    engine.search("pagehit^2 w00001", limit=10, method="auto")
    assert calls["bmax"] == before

    # low-df query under the default threshold: stays TAAT
    monkeypatch.setattr(engine.cfg, "bmax_auto_df_threshold", 10**9)
    engine._results_cache.clear()
    _assert_rank_identical(engine, oracle, "pagehit w00001", limit=10,
                           method="auto")
    assert calls["bmax"] == before
