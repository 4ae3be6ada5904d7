"""Highest-df terms (Lucene misc HighFreqTerms analogue) — exact alive-
masked rank incl. the deleted-segment upper-bound pruning path, and the
sharded TPUT distributed top-k."""

import hashlib
from collections import Counter

import pytest

from lucene_plugin_ray.config import IndexConfig
from lucene_plugin_ray.pipelines.fixtures import make_delete_set, make_pages


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    from lucene_plugin_ray.pipelines.build import (
        build_delta,
        build_index,
        delete_docs,
    )
    from lucene_plugin_ray.pipelines.query import SearchEngine

    corpus = make_pages(400, seed=33)
    root = str(tmp_path_factory.mktemp("idx_tt"))
    cfg = IndexConfig(index_root=root, num_partitions=5)
    build_index(corpus, cfg)
    build_delta(make_pages(80, seed=34), cfg)
    delete_docs(cfg, make_delete_set(corpus, every=30))
    return root, cfg, SearchEngine(root, cfg=cfg), corpus


def _oracle_dfs(corpus):
    """Live-set dfs with the engine's own LWW rule: max (warc_ts,
    text_sha256) per url, then deletes."""
    from lucene_plugin_ray.functions.analysis import analyze

    import pandas as pd

    allp = pd.concat(
        [corpus.to_pandas(), make_pages(80, seed=34).to_pandas()]
    )
    allp["sha"] = allp["text"].map(
        lambda s: hashlib.sha256(s.encode()).hexdigest()
    )
    live = allp.sort_values(["warc_ts", "sha"]).groupby("url").tail(1)
    deleted = set(make_delete_set(corpus, every=30)["url"].to_pylist())
    live = live[~live["url"].isin(deleted)]
    dfs = Counter()
    for txt in live["text"]:
        dfs.update(set(analyze(txt)))
    return dfs


@pytest.mark.parametrize("k", [1, 5, 25, 200])
def test_top_terms_matches_live_set_oracle(built, k):
    """The fixture chain has deletes in every partition, so this exercises
    the upper-bound-pruned decode path, not just the vectorized slice."""
    _root, _cfg, eng, corpus = built
    dfs = _oracle_dfs(corpus)
    exp = sorted(dfs.items(), key=lambda x: (-x[1], x[0]))[:k]
    t = eng.top_terms(k=k)
    assert list(zip(t["term"].to_pylist(), t["df"].to_pylist())) == exp


def test_top_terms_validation(built):
    _root, _cfg, eng, _corpus = built
    with pytest.raises(ValueError):
        eng.top_terms(k=0)
    with pytest.raises(ValueError):
        eng.top_terms(field="nosuch")
    assert eng.top_terms(collection="ghost").num_rows == 0


def test_sharded_tput_identity(built):
    """TPUT must agree with the single engine at k values that force both
    the no-escalation and escalation branches."""
    from lucene_plugin_ray.pipelines.sharded import ShardedSearcherService

    root, cfg, eng, _corpus = built
    svc = ShardedSearcherService(root, cfg=cfg, num_shards=3)
    try:
        for k in (1, 5, 25, 200, 10_000):
            assert svc.top_terms(k=k).equals(eng.top_terms(k=k)), k
        with pytest.raises(ValueError):
            svc.top_terms(k=0)
        with pytest.raises(ValueError):
            svc.top_terms(field="nosuch")
    finally:
        svc.shutdown()


def test_top_terms_visits_bound_ties(ray_session, tmp_path):
    """A term whose stored df equals the k-th exact df must still be
    visited: "bbb" is stored 3 times but 2 copies are deleted, so "aaa"
    (stored once) ties it at df 1 and wins the tie on term order."""
    import pyarrow as pa

    from lucene_plugin_ray.pipelines.build import build_index, delete_docs
    from lucene_plugin_ray.pipelines.query import SearchEngine

    cfg = IndexConfig(index_root=str(tmp_path / "idx"), num_partitions=1)
    urls = ["u1", "u2", "u3"]
    build_index(pa.table({
        "url": urls,
        "warc_ts": pa.array([1, 2, 3], pa.timestamp("us")),
        "text": ["bbb", "bbb", "bbb aaa"],
    }), cfg)
    delete_docs(cfg, pa.table({"collection": ["default"] * 2, "url": urls[:2]}))
    eng = SearchEngine(cfg.index_root, cfg=cfg)
    assert eng.top_terms(k=1).to_pylist() == [{"term": "aaa", "df": 1}]
    assert eng.top_terms(k=2).to_pylist() == [
        {"term": "aaa", "df": 1}, {"term": "bbb", "df": 1}]
