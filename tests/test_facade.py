"""Facade conformance: the reference's E2E service-test scenarios
(service/src/test/java/tests/*.java) restated over LuceneFacade — the
row-at-a-time API adapter over the batch engine (VERDICT Missing #3)."""

import asyncio

import pytest

from lucene_plugin_ray import IndexConfig
from lucene_plugin_ray.facade import (
    AsyncLuceneFacade,
    LuceneEntry,
    LuceneException,
    LuceneFacade,
)


def _cfg(tmp_path, **kw):
    return IndexConfig(index_root=str(tmp_path / "idx"), num_partitions=2, **kw)


def _ids(entries):
    return sorted(e.external_id for e in entries)


def test_search_text_and_update(ray_session, tmp_path):
    """≙ TestSearchText.java:28-40 + TestSearchWithUpdate.java:28-43:
    basic term search, then upsert — re-indexed doc's old content gone,
    new content found."""
    f = LuceneFacade(_cfg(tmp_path))
    assert f.index_text("coll", "0", "mary had a little lamb")
    assert f.index_text("coll", "1", "mary had a little lamb whose fleece")
    f.commit()
    hits = f.search("coll", "lamb")
    assert _ids(hits) == ["0", "1"]
    assert all(isinstance(e, LuceneEntry) and e.score > 0 for e in hits)
    # upsert id "0": old content invisible, new content findable
    f.index_text("coll", "0", "nothing here but zebras")
    f.commit()
    assert _ids(f.search("coll", "lamb")) == ["1"]
    assert _ids(f.search("coll", "zebras")) == ["0"]


def test_delete(ray_session, tmp_path):
    """≙ TestDelete.java:29-79: delete by id → 0 hits for that doc."""
    f = LuceneFacade(_cfg(tmp_path))
    f.index_text("coll", "a", "mary had a little lamb")
    f.index_text("coll", "b", "the quick brown fox")
    f.commit()
    assert _ids(f.search("coll", "lamb")) == ["a"]
    assert f.delete("coll", "a")
    assert f.search("coll", "lamb") == []
    assert _ids(f.search("coll", "fox")) == ["b"]  # others untouched


def test_collection_isolation_and_clear(ray_session, tmp_path):
    """≙ TestSearchCollection.java:28-53: same external id in two
    collections coexists; clearing one leaves the other intact."""
    f = LuceneFacade(_cfg(tmp_path))
    f.index_text("c1", "0", "mary had a little lamb")
    f.index_text("c2", "0", "mary had a little lamb")
    f.commit()
    assert _ids(f.search("c1", "lamb")) == ["0"]
    assert _ids(f.search("c2", "lamb")) == ["0"]
    assert f.clear("c1")
    assert f.search("c1", "lamb") == []
    assert _ids(f.search("c2", "lamb")) == ["0"]


def test_index_map_fields_and_ranges(ray_session, tmp_path):
    """≙ TestSearchMap.java:30-59: field-scoped query, string-lexicographic
    range, negative range; numbers stringified; first-value-only for
    multi-valued entries; empty map is a no-op."""
    f = LuceneFacade(_cfg(tmp_path, field_columns=("foo", "age", "count")))
    assert f.index_map("coll", "0", {}) is True  # M7 no-op
    f.index_map(
        "coll", "1",
        {"foo": "mary had a little lamb", "age": 23, "count": 32},
    )
    f.index_map("coll", "2", {"foo": ["lamb", "zebra"]})  # first value only
    f.commit()
    assert _ids(f.search("coll", "foo:lamb")) == ["1", "2"]
    assert f.search("coll", "foo:zebra") == []          # second value dropped
    assert _ids(f.search("coll", "age:[23 TO 23]")) == ["1"]
    assert f.search("coll", "count:[33 TO 34]") == []   # negative range
    # unknown field rejected loudly (documented divergence)
    with pytest.raises(LuceneException):
        f.index_map("coll", "3", {"bar": "x"})


def test_index_file_first_word(ray_session, tmp_path):
    """≙ TestSearchByFirstWord.java:29-70: file auto-detected and extracted;
    first word findable case-insensitively; external id is the path."""
    doc = tmp_path / "test-00.txt"
    doc.write_text("Lorem ipsum dolor sit amet across many versions")
    f = LuceneFacade(_cfg(tmp_path))
    assert f.index_file("coll", str(doc))
    f.commit()
    hits = f.search("coll", "Lorem")  # analyzer lowercases the query term
    assert [e.external_id for e in hits] == [str(doc)]
    assert _ids(f.search("coll", "versions")) == [str(doc)]


def test_soft_commit_auto_flush(ray_session, tmp_path):
    """≙ soft-commit policy (LuceneIndexBean.java:78): the Nth buffered
    write triggers an automatic flush; search then sees the docs without an
    explicit commit()."""
    f = LuceneFacade(_cfg(tmp_path), soft_commit_max_docs=4)
    for i in range(3):
        f.index_text("coll", str(i), f"pending doc {i} lamb")
    assert f.search("coll", "lamb") == []  # buffered, not yet visible
    f.index_text("coll", "3", "pending doc 3 lamb")  # 4th → auto-flush
    assert len(f.search("coll", "lamb")) == 4


def test_validation_errors(ray_session, tmp_path):
    """≙ LuceneFacadeImpl.java:97-130 null/empty input validation."""
    f = LuceneFacade(_cfg(tmp_path))
    with pytest.raises(LuceneException):
        f.index_text("", "0", "x")
    with pytest.raises(LuceneException):
        f.index_text("coll", "", "x")
    with pytest.raises(LuceneException):
        f.index_text("coll", "0", None)
    with pytest.raises(LuceneException):
        f.search("coll", "")
    with pytest.raises(LuceneException):
        f.search("", "lamb")
    with pytest.raises(LuceneException):
        f.index_file("coll", str(tmp_path / "missing.txt"))
    assert f.search("coll", "lamb") == []  # empty index → empty result


def test_async_facade(ray_session, tmp_path):
    """≙ the async LuceneFacade API (LuceneFacade.java:8-82)."""

    async def scenario():
        f = AsyncLuceneFacade(_cfg(tmp_path))
        assert await f.index_text("coll", "0", "mary had a little lamb")
        assert await f.index_text("coll", "1", "mary had a little lamb too")
        await f.commit()
        hits = await f.search("coll", "lamb")
        assert _ids(hits) == ["0", "1"]
        assert await f.delete("coll", "0")
        assert _ids(await f.search("coll", "lamb")) == ["1"]
        await f.clear("coll")
        assert await f.search("coll", "lamb") == []

    asyncio.run(scenario())


def test_async_facade_twins_every_public_method():
    """Every public LuceneFacade method has an awaitable twin on
    AsyncLuceneFacade with the same name, signature and docstring."""
    import inspect

    public = {
        n: f for n, f in vars(LuceneFacade).items()
        if inspect.isfunction(f) and not n.startswith("_")
    }
    assert "explain" in public
    for name, fn in public.items():
        twin = getattr(AsyncLuceneFacade, name)
        assert inspect.iscoroutinefunction(twin), name
        assert inspect.signature(twin) == inspect.signature(fn), name
        assert twin.__doc__ == fn.__doc__, name


def test_incremental_growth(ray_session, tmp_path):
    """≙ TestIndexFile.java:32-59: after indexing i docs one at a time,
    the query returns exactly i hits with the expected ids."""
    f = LuceneFacade(_cfg(tmp_path))
    expected = []
    for i in range(4):
        doc = tmp_path / f"file-{i}.txt"
        doc.write_text(f"common marker plus unique token u{i}")
        f.index_file("coll", str(doc))
        f.commit()
        expected.append(str(doc))
        assert _ids(f.search("coll", "marker")) == sorted(expected)
        assert _ids(f.search("coll", f"u{i}")) == [str(doc)]


def test_paging_limit(ray_session, tmp_path):
    """≙ TestPaging.java:31-60: 11 docs, 10 contain 'hit' — the query
    matches exactly those 10; limit truncates."""
    f = LuceneFacade(_cfg(tmp_path), soft_commit_max_docs=100)
    for i in range(10):
        f.index_text("coll", f"h{i}", f"document {i} with hit inside")
    f.index_text("coll", "miss", "document without the token")
    f.commit()
    assert len(f.search("coll", "hit")) == 10
    assert len(f.search("coll", "hit", limit=3)) == 3


def test_auto_compaction_tier(ray_session, tmp_path):
    """≙ TieredMergePolicy segmentsPerTier (LuceneIndexBean.java:97-98):
    once the live chain reaches the tier size, a commit triggers compaction
    — the chain collapses to one compacted generation and search results
    are unchanged."""
    from lucene_plugin_ray.state.manifest import load_manifest_chain

    cfg = _cfg(tmp_path, merge_fanin=4)  # small tier for the test
    f = LuceneFacade(cfg, soft_commit_max_docs=1)  # every write = a commit
    for i in range(6):
        f.index_text("coll", f"d{i}", f"shared lamb token plus unique u{i}")
    chain = load_manifest_chain(cfg.index_root)
    assert len(chain) < 4  # tier bound holds (compaction collapsed the chain)
    assert any(m.extra.get("compacted") for m in chain)
    assert len(f.search("coll", "lamb")) == 6  # results survive compaction
    assert _ids(f.search("coll", "u3")) == ["d3"]


def test_commit_failure_keeps_buffer(ray_session, tmp_path, monkeypatch):
    """ADVICE r2: a failed commit must NOT lose buffered documents — the
    buffer is cleared only after the build succeeds, so a retry commits
    them."""
    from lucene_plugin_ray.pipelines import build as build_mod

    f = LuceneFacade(_cfg(tmp_path), soft_commit_max_docs=100)
    f.index_text("default", "d1", "alpha beta gamma")
    f.index_text("default", "d2", "delta epsilon zeta")

    def _boom(*a, **k):
        raise RuntimeError("injected build failure")

    real = build_mod.build_index
    monkeypatch.setattr(build_mod, "build_index", _boom)
    with pytest.raises(RuntimeError):
        f.commit()
    assert len(f._pending) == 2  # nothing lost
    monkeypatch.setattr(build_mod, "build_index", real)
    f.commit()
    assert _ids(f.search("default", "alpha")) == ["d1"]
    assert _ids(f.search("default", "zeta")) == ["d2"]


def test_concurrent_facades_last_commit_wins(ray_session, tmp_path):
    """ADVICE r2: warc_ts is stamped from the generation read at COMMIT
    time, so an OLDER facade that stays open and commits later still
    outranks a newer facade's earlier commit (last message wins by commit
    order, not facade-open order)."""
    cfg = _cfg(tmp_path)
    old = LuceneFacade(cfg, soft_commit_max_docs=100)
    old.index_text("default", "seed", "seedword")
    old.commit()  # gen 0 exists; `old` was opened before `new`

    new = LuceneFacade(cfg, soft_commit_max_docs=100)
    new.index_text("default", "doc", "newfacade version")
    new.commit()

    # the older facade commits AFTER the newer one: its write must win
    old.index_text("default", "doc", "oldfacade version")
    old.commit()
    assert _ids(old.search("default", "oldfacade")) == ["doc"]
    assert _ids(old.search("default", "newfacade")) == []


def test_facade_snippets(ray_session, tmp_path):
    """snippets(): caller supplies hit bodies (the index stores no text —
    reference parity), gets back per-hit best-window spans; missing hit
    text and bad args are LuceneException (client errors)."""
    f = LuceneFacade(_cfg(tmp_path))
    f.index_text("coll", "a", "zebra stripes and zebra crossings everywhere")
    f.index_text("coll", "b", "one zebra walked past the fence")
    f.index_text("coll", "c", "no relevant animals in this text")
    f.commit()
    texts = {
        "a": "zebra stripes and zebra crossings everywhere",
        "b": "one zebra walked past the fence",
    }
    out = f.snippets("coll", "zebra", texts, k=5, window=3)
    assert [r["external_id"] for r in out] == ["a", "b"]  # rank order
    for r in out:
        assert r["n_terms"] == 1 and "zebra" in r["snippet"]
        assert r["start"] >= 1 and r["score"] > 0
    # a hit whose text was not supplied → client error, not a silent skip
    with pytest.raises(LuceneException, match="missing"):
        f.snippets("coll", "zebra", {"a": texts["a"]})
    with pytest.raises(LuceneException):
        f.snippets("coll", "zebra", texts, window=0)
    with pytest.raises(LuceneException):
        f.snippets("", "zebra", texts)
    # async twin
    async def _run():
        af = AsyncLuceneFacade(_cfg(tmp_path / "async"))
        await af.index_text("coll", "x", "zebra here")
        await af.commit()
        return await af.snippets("coll", "zebra", {"x": "zebra here"}, window=2)

    res = asyncio.run(_run())
    assert [r["external_id"] for r in res] == ["x"]
