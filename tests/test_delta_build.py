"""Delta builds: segment bytes and the prior-generation state they read.

* The segment-bytes pin hashes every non-JSON file of an index built with
  ``build_index``, two ``build_delta`` generations (upserts, new urls, a stale
  upsert, explicit deletes) and ``compact_index``, over a multi-field corpus
  whose ``foo`` column holds non-ASCII text — so the hashed ASCII tokenizer
  and the Unicode fallback both materialize term strings.  The digest is a
  format pin: any change to how terms are materialized, ordered or written
  must leave the segment files byte-identical.
* The prior-state test checks that ``live_prior_table`` (the small side of
  the delta build's last-write-wins join) equals the live rows the query
  engine resolves, and that it reads only meta.json + docs.parquet.
"""

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from lucene_plugin_ray.config import IndexConfig
from lucene_plugin_ray.pipelines.fixtures import make_pages

FIELDS = ("foo", "age")

# sha256 over (relative path, bytes) of every non-JSON file after
# build + 2 deltas + compaction (see _index_digest)
SEGMENT_BYTES_SHA256 = (
    "041d8d98420d9a3866a3d80826f1852fd2c6f3ba23666fd3cd0ad537b10ec901"
)


def _base_pages() -> pa.Table:
    pages = make_pages(240, seed=5, with_fields=True)
    foo = pages["foo"].to_pylist()
    foo = [
        f"Ärger Straße naïve{i % 5} KELVIN" if i % 4 == 0 else v
        for i, v in enumerate(foo)
    ]
    return pages.set_column(
        pages.schema.get_field_index("foo"), "foo", pa.array(foo, pa.string())
    )


def _delta(base: pa.Table, k: int) -> pa.Table:
    """Upserts of base urls (newer ts, new text), one stale upsert (older
    ts — must lose), and new urls — all with the base schema."""
    urls = sorted(set(base["url"].to_pylist()))
    ts0 = int(pc.max(pc.cast(base["warc_ts"], pa.int64())).as_py())
    up = urls[k :: 9][:25]
    new = [f"https://new-{k}.example/p/{j}" for j in range(12)]
    stale = urls[-(k + 1)]
    all_urls = up + new + [stale]
    n = len(all_urls)
    ts = [ts0 + (k + 1) * 10_000_000 + j for j in range(n - 1)] + [0]
    texts = [
        f"delta{k} upsert w{j % 13:05d} pagehit scorecheck"
        if j % 3 else f"Delta{k} Zürich façade {j}"
        for j in range(n)
    ]
    foo = [f"Größe{k} v{j % 7}" if j % 2 else f"v{j % 7} lamb" for j in range(n)]
    cols = {
        "url": pa.array(all_urls, pa.string()),
        "warc_ts": pa.array(ts, pa.timestamp("us")),
        "html": pa.array([t.encode() for t in texts], pa.binary()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * n, pa.string()),
        "foo": pa.array(foo, pa.string()),
        "age": pa.array([str(20 + j % 10) for j in range(n)], pa.string()),
        "count": pa.array([str(30 + j % 3) for j in range(n)], pa.string()),
    }
    return pa.table(cols).select(base.column_names)


def _deletes(urls: list[str]) -> pa.Table:
    return pa.table(
        {"collection": pa.array(["default"] * len(urls)), "url": pa.array(urls)}
    )


def _build_stack(root: str, compact: bool) -> None:
    from lucene_plugin_ray.pipelines.build import (
        build_delta,
        build_index,
        compact_index,
    )

    cfg = IndexConfig(
        index_root=root, num_partitions=2, field_columns=FIELDS,
        store_term_vectors=True,
    )
    base = _base_pages()
    build_index(base, cfg)
    urls = sorted(set(base["url"].to_pylist()))
    d1 = _delta(base, 0)
    build_delta(d1, cfg, deletes=_deletes(urls[3:40:6]))
    # second delta deletes a url the first delta upserted and one it added
    build_delta(
        _delta(base, 1), cfg,
        deletes=_deletes([d1["url"][0].as_py(), "https://new-0.example/p/3"]),
    )
    if compact:
        compact_index(cfg)


def _index_digest(root: str) -> str:
    h = hashlib.sha256()
    files = []
    for d, _, names in os.walk(root):
        files += [os.path.join(d, n) for n in names if not n.endswith(".json")]
    for f in sorted(files):
        h.update(os.path.relpath(f, root).encode() + b"\x00")
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def test_segment_bytes_pinned(ray_session, tmp_path):
    root = str(tmp_path / "idx")
    _build_stack(root, compact=True)
    # both tokenizer paths ran: non-ASCII foo terms are in the dictionary
    from lucene_plugin_ray.pipelines.query import SearchEngine

    eng = SearchEngine(root)
    assert eng.search("foo:straße").num_rows > 0
    assert eng.search("foo:größe1").num_rows > 0
    assert _index_digest(root) == SEGMENT_BYTES_SHA256


def _engine_live_rows(root: str) -> list[tuple[str, int, str]]:
    from lucene_plugin_ray.pipelines.query import SearchEngine

    eng = SearchEngine(root)
    rows = []
    for coll, segs in eng._segments.items():
        for s in segs:
            r = s.reader
            rows += [
                (coll + "\x00" + r.urls[i], int(r.warc_ts[i]), r.text_sha256[i])
                for i in np.flatnonzero(s.alive)
            ]
    return sorted(rows)


def _prior_tables(spec: dict, relocate=None) -> list[pa.Table]:
    from lucene_plugin_ray.state.segment import live_prior_table

    tomb = [(g, {c: set(u) for c, u in d.items()}) for g, d in spec["tombstones"]]
    return [
        live_prior_table([relocate(p) if relocate else p for p in paths], tomb)
        for _, paths in sorted(spec["groups"].items())
    ]


def test_live_prior_table_reads_docs_only(ray_session, tmp_path):
    from lucene_plugin_ray.pipelines.build import _prior_spec_from_chain
    from lucene_plugin_ray.state import storage
    from lucene_plugin_ray.state.manifest import load_manifest_chain

    root = str(tmp_path / "idx")
    _build_stack(root, compact=False)
    spec = _prior_spec_from_chain(load_manifest_chain(root))
    assert len({g for g, _ in spec["tombstones"]}) == 2

    tables = _prior_tables(spec)
    got = sorted(
        row for t in tables
        for row in zip(
            t["key"].to_pylist(), t["warc_ts"].to_pylist(),
            t["text_sha256"].to_pylist(),
        )
    )
    assert got == _engine_live_rows(root)
    assert len({k for k, _, _ in got}) == len(got)

    # copies of the prior segments without a term dictionary or postings
    # region, on a local root and on a memory:// root
    copy_root = str(tmp_path / "docs-only")
    mem_root = "memory://delta-prior"
    storage.rmtree(mem_root)
    for paths in spec["groups"].values():
        for p in paths:
            rel = os.path.relpath(p, root)
            for name in os.listdir(p):
                if name in ("terms.parquet", "postings.bin"):
                    continue
                with open(os.path.join(p, name), "rb") as fh:
                    raw = fh.read()
                os.makedirs(os.path.join(copy_root, rel), exist_ok=True)
                with open(os.path.join(copy_root, rel, name), "wb") as fh:
                    fh.write(raw)
                storage.write_bytes(storage.join(mem_root, rel, name), raw)
    try:
        for relocated in (
            _prior_tables(spec, lambda p: os.path.join(copy_root, os.path.relpath(p, root))),
            _prior_tables(spec, lambda p: storage.join(mem_root, os.path.relpath(p, root))),
        ):
            assert len(relocated) == len(tables)
            for a, b in zip(relocated, tables):
                assert a.equals(b)
    finally:
        storage.rmtree(mem_root)
