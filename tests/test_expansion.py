"""Multi-term expansion: the per-segment fuzzy screen and the bulk docid
decode of constant-score clauses (prefix/wildcard/regexp/fuzzy/range).

* ``SegmentReader.docids_many(rows)`` (and ``field_postings``, which shares
  its bulk decode) must equal the concatenated per-row ``postings(row)`` on
  local and remote (``memory://``) roots, and on a remote root fetch only
  the chunks the rows live in.
* Expansion queries over a multi-generation index with deletes must equal
  ``OracleIndex``; ``suggest`` must rank exactly like a scalar
  Damerau-Levenshtein scan of the live vocabulary.
"""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from lucene_plugin_ray.config import IndexConfig
from lucene_plugin_ray.pipelines.fixtures import make_pages


def _write_segment(root: str, corpus: pa.Table) -> str:
    """One in-process single-partition segment under ``root``."""
    from lucene_plugin_ray.stages.segment_write import build_partition_segment
    from lucene_plugin_ray.stages.validate import ValidateAndPartition

    cfg = IndexConfig(index_root=root, num_partitions=1)
    marked = ValidateAndPartition(cfg)(corpus)
    rows = build_partition_segment(marked, 0, cfg, generation=0).to_pylist()
    return rows[0]["path"]


def _row_sets(r, rng) -> dict[str, np.ndarray]:
    s, e = r._field_ranges["text"]
    width = r._doff_end[s:e] - r._doff[s:e]
    multi = s + np.flatnonzero(width > r._df[s:e])  # some delta takes > 1 byte
    assert multi.size, "corpus has no multi-byte docid deltas"
    every = np.arange(s, e, dtype=np.int64)
    return {
        "empty": np.empty(0, np.int64),
        "single": np.array([s + (e - s) // 2]),
        "every": every,
        "multi_byte": multi,
        "random_unsorted": rng.choice(every, size=min(40, every.size), replace=False),
    }


def _assert_docids_many_equals_postings(r, rng) -> None:
    for name, rows in _row_sets(r, rng).items():
        want = (
            np.concatenate([r.postings(int(row))[0] for row in rows])
            if rows.size
            else np.empty(0, np.int64)
        )
        got = r.docids_many(rows)
        assert got.dtype == np.int64, name
        np.testing.assert_array_equal(got, want, err_msg=name)
    # the whole-field bulk decode shares the same path (tfs included)
    s, df, docids, tfs = r.field_postings("text")
    e = s + df.size
    np.testing.assert_array_equal(docids, r.docids_many(np.arange(s, e)))
    np.testing.assert_array_equal(
        tfs, np.concatenate([r.postings(row)[1] for row in range(s, e)])
    )


def test_docids_many_equals_postings_local(tmp_path):
    from lucene_plugin_ray.state.segment import SegmentReader

    path = _write_segment(str(tmp_path / "idx"), make_pages(600, seed=90))
    _assert_docids_many_equals_postings(
        SegmentReader(path), np.random.default_rng(0)
    )


def test_docids_many_equals_postings_memory_root(monkeypatch):
    from lucene_plugin_ray.state import segment as seg_mod
    from lucene_plugin_ray.state import storage

    root = "memory://docids_many"
    storage.rmtree(root)
    path = _write_segment(root, make_pages(600, seed=90))
    monkeypatch.setattr(seg_mod, "_LAZY_FETCH_THRESHOLD", 0)
    monkeypatch.setattr(seg_mod._LazyRegion, "CHUNK", 512)
    try:
        r = seg_mod.SegmentReader(path)
        assert isinstance(r.buf, seg_mod._LazyRegion)
        _assert_docids_many_equals_postings(r, np.random.default_rng(0))

        # a selective row set reads only the chunks its runs live in
        fresh = seg_mod.SegmentReader(path)
        s, e = fresh._field_ranges["text"]
        rows = np.array([s + 3, s + (e - s) // 2, e - 2])
        want = np.concatenate([r.postings(int(row))[0] for row in rows])
        np.testing.assert_array_equal(fresh.docids_many(rows), want)
        assert 0 < fresh.buf.bytes_fetched < fresh.buf.size, (
            fresh.buf.bytes_fetched, fresh.buf.size
        )
    finally:
        storage.rmtree(root)


# ---------------------------------------------------------------------------
# engine level: multi-generation index with deletes vs OracleIndex
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def multigen(ray_session, tmp_path_factory):
    from lucene_plugin_ray.pipelines.build import build_delta, build_index, delete_docs
    from lucene_plugin_ray.pipelines.oracle import OracleIndex
    from lucene_plugin_ray.pipelines.query import SearchEngine

    corpus = make_pages(300, seed=46)
    urls = sorted(set(corpus["url"].to_pylist()))
    first = pc.is_in(corpus["url"], value_set=pa.array(urls[:200]))
    root = str(tmp_path_factory.mktemp("idx_expand"))
    cfg = IndexConfig(index_root=root, num_partitions=2)
    build_index(corpus.filter(first), cfg)
    build_delta(corpus.filter(pc.invert(first)), cfg)
    victims = urls[::7]
    deletes = pa.table({"collection": ["default"] * len(victims), "url": victims})
    delete_docs(cfg, deletes)
    engine = SearchEngine(root, cfg=cfg)
    assert len({s.reader.generation for s in engine._segments["default"]}) > 1
    assert not all(s.all_alive for s in engine._segments["default"])
    return engine, OracleIndex(corpus, cfg, deletes=deletes)


EXPANSION_QUERIES = [
    "w0001*", "w001*", "page*", "w000?1", "w0*1", "/w000[0-2]3/",
    "w00012~1", "w00100~2", "w03001~1", "pagehti~1", "pagehit~2 w00001",
    "[w00010 TO w00020]", "{w00010 TO w00020}", "[w00990 TO *]",
    "+w0000* +pagehit", "pagehit -w030*", "w030*", "w0301?", "w00005 w0010~1",
]
# regexps with no literal prefix (a full-vocabulary range), alternation,
# negated and ']'-first classes, bounded repeats
REGEXP_PROBES = [
    "/w00.*/", "/.*hit/", "/(w0001|page)[a-z0-9]*/", "/[^w].*/",
    "/w0{2,3}1.?/", "/page\\.?hit/", "/[]w]00[0-9]+/", "/w00(1|2){2}[0-9]*/",
]


@pytest.mark.parametrize("q", EXPANSION_QUERIES + REGEXP_PROBES)
def test_expansion_queries_equal_oracle(multigen, q):
    engine, oracle = multigen
    got = engine.search(q, limit=1000)  # every match: the corpus is 300 docs
    exp = oracle.search(q, limit=1000)
    assert got.num_rows == len(exp), q
    g = sorted(zip(got["url"].to_pylist(), [round(s, 9) for s in got["score"].to_pylist()]))
    assert g == sorted((u, round(s, 9)) for u, s in exp), q


def test_vectorized_term_filter_equals_python_re(multigen):
    """Wildcard/regexp expansion filters each dictionary range in one RE2
    pass; on every segment it keeps exactly the rows a Python re.fullmatch
    scan of the field's whole vocabulary keeps."""
    import re

    from lucene_plugin_ray.functions.queryparse import MultiTermClause, parse_query

    engine, _ = multigen
    clauses = [
        c
        for q in EXPANSION_QUERIES + REGEXP_PROBES
        for c in parse_query(q)
        if isinstance(c, MultiTermClause) and c.kind in ("wildcard", "regexp")
    ]
    assert {c.kind for c in clauses} == {"wildcard", "regexp"}
    matched = 0
    for seg in engine._segments["default"]:
        r = seg.reader
        for c in clauses:
            src = c.pattern if c.kind == "regexp" else "".join(
                ".*" if ch == "*" else "." if ch == "?" else re.escape(ch)
                for ch in c.pattern
            )
            rx = re.compile(src, re.DOTALL)
            start, vocab = r.field_vocab(c.field)
            want = start + np.flatnonzero([rx.fullmatch(t) is not None for t in vocab])
            got = engine._expand_rows(seg, c)
            np.testing.assert_array_equal(got, want, err_msg=c.pattern)
            matched += got.size
    assert matched


@pytest.mark.parametrize("probe", ["pagehti", "w00012", "w0010", "zzzz"])
@pytest.mark.parametrize("max_edits", [1, 2])
def test_suggest_ranks_like_scalar_scan(multigen, probe, max_edits):
    from lucene_plugin_ray.functions.fuzzy import damerau_levenshtein

    engine, oracle = multigen
    want = sorted(
        (
            (t, damerau_levenshtein(probe, t), len(docs))
            for t, docs in oracle.postings["text"].items()
            if docs
        ),
        key=lambda x: (x[1], -x[2], x[0]),
    )
    want = [w for w in want if w[1] <= max_edits][:8]
    got = engine.suggest(probe, max_edits=max_edits, k=8)
    assert list(zip(*got.to_pydict().values())) == want


def test_segment_screens_are_lazy_and_exactly_sized(multigen):
    engine, _ = multigen
    from lucene_plugin_ray.pipelines.query import SearchEngine

    fresh = SearchEngine(engine.cfg.index_root, cfg=engine.cfg)
    segs = fresh._segments["default"]
    assert all(not s.reader._screens for s in segs)  # nothing built at open
    fresh.search("w00012~1", limit=5)
    for s in segs:
        r = s.reader
        screen = r._screens["text"]
        r.fuzzy_rows("text", "w00013", 2)
        assert r._screens["text"] is screen  # cached, not rebuilt
        _, vocab = r.field_vocab("text")
        assert screen.nbytes == 4 * sum(map(len, vocab)) + 8 * len(vocab)
