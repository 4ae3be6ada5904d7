"""Per-partition segment build (SURVEY.md §3.1 steps D1→A4→S5).

One call processes ONE document partition (all rows whose
fnv1a(collection\\x00url) % P == p) entirely locally — dedup (upsert), delete
anti-join, deterministic docid assignment, tokenization, posting-list
construction and segment write — and emits one small manifest row per
(collection) segment written.

This fusion is the engine's key scale decision: the ONLY all-to-all exchange
in the build is the sort-based ``groupby("_p")`` on the hash partition id of
the document key (uniform — urls are ~unique), after which everything is
partition-local and fully vectorized.
Term-keyed shuffles (Zipf-skewed) are avoided for posting construction; the
term dimension never leaves the partition.  (≙ reference behavior: Lucene
builds per-segment postings locally in IndexWriter's inversion buffer,
LuceneIndexBean.java:664-691 — here a segment is a document partition.)

Segment directory layout (atomic: written to .tmp, renamed):

    <index_root>/<collection>/gen-<g>/part-<p>/
        postings.bin    [all docid-delta varints][all tf varints]
        terms.parquet   field, term, df, doff, doff_end, toff, toff_end,
                        blk_doff, blk_toff, blk_maxdoc, blk_maxtf (lists)
        docs.parquet    docid, url, text_sha256, dl_<field>...
        meta.json       doc_base, n_docs, sum_dl per field, metrics, lineage

Docids: docid = p * DOCID_STRIDE + rank, rank = position in the partition's
(collection, url)-ascending order after dedup+delete.  A pure function of the
key set — independent of arrival order, block order and cluster size
(SURVEY.md §7.4 "Determinism end-to-end"); the oracle recomputes it
independently (functions/docid.py).
"""

from __future__ import annotations

import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from lucene_plugin_ray.config import IndexConfig
from lucene_plugin_ray.functions.analysis import tokenize_column
from lucene_plugin_ray.functions.codec import (
    encode_many_positions,
    encode_many_postings,
    positions_to_deltas,
)
from lucene_plugin_ray.functions.docid import DOCID_STRIDE
from lucene_plugin_ray.functions.hashing import fnv1a_bytes_column

MANIFEST_ROW_SCHEMA = pa.schema(
    [
        ("collection", pa.string()),
        ("partition", pa.int32()),
        ("generation", pa.int64()),
        ("path", pa.string()),
        ("doc_base", pa.int64()),
        ("n_docs", pa.int64()),
        ("n_terms", pa.int64()),
        ("n_postings", pa.int64()),
        ("bytes_postings", pa.int64()),
        ("sum_dl_json", pa.string()),
        ("input_digest", pa.string()),
        ("rows_in", pa.int64()),
        ("rows_deduped", pa.int64()),
        ("rows_deleted", pa.int64()),
        ("wall_s", pa.float64()),
        ("resumed", pa.bool_()),
    ]
)


def limit_intra_task_threads() -> None:
    """Pin pyarrow's internal thread pool to 1 inside data-parallel tasks.

    Ray schedules one task per CPU, but each task's pyarrow kernels (sort_by,
    group_by, take) otherwise spawn a pool sized to ALL cores — 32 concurrent
    tasks × 32-thread pools oversubscribes the node ~32× (measured: a 0.9 s
    partition build ballooning to ~50 s).  Parallelism belongs to Ray's task
    layer here, not inside the kernel."""
    try:
        if pa.cpu_count() != 1:
            pa.set_cpu_count(1)
            pa.set_io_thread_count(1)
    except Exception:
        pass


def _composite_key(colls: pa.Array, urls: pa.Array) -> pa.Array:
    return pc.binary_join_element_wise(colls, urls, "\x00")


def _partition_digest(keys: pa.Array, shas: pa.Array, ts_us: pa.Array) -> str:
    """Order-independent lineage digest of a partition's deduped content.

    Covers warc_ts too: the timestamp feeds the cross-generation
    last-write-wins comparison (drop_stale_vs_prior), so a rebuild where only
    warc_ts changed must NOT be skipped as 'resumed'."""
    ts_str = pc.cast(ts_us, pa.string())
    h = fnv1a_bytes_column(
        pc.binary_join_element_wise(keys, shas, ts_str, "\x00")
    )
    return f"{int(h.sum(dtype=np.uint64)):016x}-{len(h)}"


def dedup_latest(table: pa.Table, cfg: IndexConfig) -> pa.Table:
    """D1 upsert: last write per (collection, url) wins — max warc_ts,
    tiebreak max text_sha256 (deterministic, order-independent).
    ≙ writer.updateDocument(pkTerm, doc) delete-then-add semantics
    (LuceneIndexBean.java:256,343; TestSearchWithUpdate.java:32-42).

    Input must carry ``collection`` (sanitized) and ``text_sha256`` columns.
    Output is sorted by (collection, url) ascending — docid order.
    """
    table = table.sort_by(
        [
            ("collection", "ascending"),
            (cfg.url_column, "ascending"),
            (cfg.ts_column, "ascending"),
            ("text_sha256", "ascending"),
        ]
    )
    keys = _composite_key(
        table["collection"].combine_chunks(), table[cfg.url_column].combine_chunks()
    )
    n = len(keys)
    if n == 0:
        return table
    neq = pc.not_equal(keys.slice(0, n - 1), keys.slice(1, n)).to_numpy(
        zero_copy_only=False
    )
    mask = np.ones(n, dtype=bool)
    mask[:-1] = neq  # keep a row iff the next row has a different key → last wins
    return table.filter(pa.array(mask))


def apply_deletes(table: pa.Table, cfg: IndexConfig, delete_keys: pa.Array | None) -> tuple[pa.Table, int]:
    """D2 delete-by-id as an anti-join against the broadcast delete-key set
    ('collection\\x00url' strings).  ≙ writer.deleteDocuments(pkTerm)
    (LuceneIndexBean.java:462-488)."""
    if delete_keys is None or len(delete_keys) == 0:
        return table, 0
    keys = _composite_key(
        table["collection"].combine_chunks(), table[cfg.url_column].combine_chunks()
    )
    dead = pc.is_in(keys, value_set=delete_keys)
    n_dead = pc.sum(pc.cast(dead, pa.int64())).as_py() or 0
    return table.filter(pc.invert(dead)), int(n_dead)


def drop_stale_vs_prior(
    part: pa.Table, cfg: IndexConfig, prior: "pa.Table | None"
) -> pa.Table:
    """Last-write-wins ACROSS generations: drop delta rows whose
    (warc_ts, text_sha256) does not beat the live prior version of the same
    (collection, url) key (SURVEY.md §2.10 "late rows with older warc_ts lose
    the max-aggregate").  ``prior`` columns: key, warc_ts (int64 us),
    text_sha256 — the live docs of THIS partition from older generations
    (partition-local: partitioning is stable across generations, so no
    shuffle is needed for this join)."""
    if prior is None or prior.num_rows == 0 or part.num_rows == 0:
        return part
    keys = _composite_key(
        part["collection"].combine_chunks(), part[cfg.url_column].combine_chunks()
    )
    # Arrow-native lookup join: prior keys are unique (live docs per key), so
    # index_in gives each delta row its prior position (null = no prior) and
    # take fetches the prior's (warc_ts, sha) — no pandas conversion.
    pos = pc.index_in(keys, value_set=prior["key"].combine_chunks())
    prior_ts = pc.take(prior["warc_ts"].combine_chunks(), pos)
    prior_sha = pc.take(prior["text_sha256"].combine_chunks(), pos)
    ts = pc.cast(part[cfg.ts_column].combine_chunks(), pa.int64())
    sha = part["text_sha256"].combine_chunks()
    # Kleene logic keeps the pandas path's semantics exactly: no prior → keep;
    # with a prior, a null delta ts compares null → row dropped by filter's
    # default null_selection_behavior='drop' (same as NaN comparisons before).
    newer = pc.or_kleene(
        pc.is_null(pos),
        pc.or_kleene(
            pc.greater(ts, prior_ts),
            pc.and_kleene(pc.equal(ts, prior_ts), pc.greater(sha, prior_sha)),
        ),
    )
    if (pc.sum(pc.cast(pc.fill_null(newer, False), pa.int64())).as_py() or 0) == part.num_rows:
        return part
    return part.filter(newer)


def build_partition_segment(
    part: pa.Table,
    p: int,
    cfg: IndexConfig,
    generation: int,
    delete_keys: pa.Array | None = None,
    prior: "pa.Table | None" = None,
) -> pa.Table:
    """Build + persist all collection segments for document partition ``p``.

    Returns MANIFEST_ROW_SCHEMA rows (one per collection present).  Idempotent
    and resumable: if the final segment dir already holds a meta.json with the
    same input_digest, the write is skipped and the recorded row returned
    (lineage-based resume, SURVEY.md §4.2 "Checkpoint / resume").
    """
    limit_intra_task_threads()
    t0 = time.monotonic()
    rows_in = part.num_rows
    part = dedup_latest(part, cfg)
    rows_deduped = part.num_rows
    part, rows_deleted = apply_deletes(part, cfg, delete_keys)
    part = drop_stale_vs_prior(part, cfg, prior)

    doc_base = p * DOCID_STRIDE
    out_rows: list[dict] = []

    colls = part["collection"].combine_chunks()
    # contiguous runs per collection (table is collection-sorted)
    coll_np = colls.to_numpy(zero_copy_only=False)
    if part.num_rows == 0:
        return pa.table({f.name: pa.array([], type=f.type) for f in MANIFEST_ROW_SCHEMA})
    boundaries = np.flatnonzero(
        np.concatenate(([True], coll_np[1:] != coll_np[:-1], [True]))
    )
    for s, e in zip(boundaries[:-1], boundaries[1:]):
        coll = str(coll_np[s])
        seg = part.slice(s, e - s)
        row = _write_collection_segment(
            seg, coll, p, int(doc_base + s), cfg, generation, t0,
            rows_in=rows_in, rows_deduped=rows_deduped, rows_deleted=rows_deleted,
        )
        out_rows.append(row)
    return pa.Table.from_pylist(out_rows, schema=MANIFEST_ROW_SCHEMA)


def _empty_terms_table() -> pa.Table:
    return pa.table(
        {
            "field": pa.array([], type=pa.string()),
            "term": pa.array([], type=pa.string()),
            "df": pa.array([], type=pa.int64()),
            "doff": pa.array([], type=pa.int64()),
            "doff_end": pa.array([], type=pa.int64()),
            "toff": pa.array([], type=pa.int64()),
            "toff_end": pa.array([], type=pa.int64()),
            "blk_doff": pa.array([], type=pa.list_(pa.int64())),
            "blk_toff": pa.array([], type=pa.list_(pa.int64())),
            "blk_maxdoc": pa.array([], type=pa.list_(pa.int64())),
            "blk_maxtf": pa.array([], type=pa.list_(pa.int32())),
        }
    )


def encode_and_write_segment(
    coll: str,
    p: int,
    doc_base: int,
    cfg: IndexConfig,
    generation: int,
    urls: pa.Array,
    shas: pa.Array,
    ts_us: pa.Array,
    dl_arrays: dict[str, np.ndarray],
    post_table: pa.Table | None,
    t0: float,
    prepared: "PreparedPostings | None" = None,
    **metrics: int,
) -> dict:
    """Shared segment-file writer: encode posting runs + doc arrays into an
    atomic, content-addressed segment directory.  Two input forms: a
    ``PreparedPostings`` (numeric build path — already lex-ordered) or a
    (field, term, docid, tf) ``post_table`` (merge path, K3 — sorted here)."""
    n_docs = len(urls)
    keys = _composite_key(pa.array([coll] * n_docs, type=pa.string()), urls)
    digest = _partition_digest(keys, shas, ts_us)

    from lucene_plugin_ray.state import storage

    seg_dir = storage.join(cfg.index_root, coll, f"gen-{generation}", f"part-{p}")
    meta_path = storage.join(seg_dir, "meta.json")
    if storage.exists(meta_path):
        meta = storage.read_json(meta_path)
        if meta.get("input_digest") == digest:
            row = dict(meta["manifest_row"])
            row["resumed"] = True
            row["wall_s"] = time.monotonic() - t0
            return row
        storage.rmtree(seg_dir)  # stale partial/old content → rebuild

    # Commit protocol (storage.py): local roots write into a tmp dir and
    # publish with one atomic rename; URL roots (no atomic rename) write
    # payload files under the FINAL name with meta.json LAST — a segment
    # without meta.json is invisible (resume rebuilds it), and the index
    # only becomes visible at the manifest PUT.
    if storage.is_url(cfg.index_root):
        tmp_dir = seg_dir
        storage.makedirs(tmp_dir)
    else:
        tmp_dir = os.path.join(
            cfg.index_root, coll, f"gen-{generation}", f".tmp-part-{p}"
        )
        if os.path.exists(tmp_dir):
            shutil.rmtree(tmp_dir)
        os.makedirs(tmp_dir)

    # ---- posting construction (A4) ----
    n_terms = 0
    n_postings = 0
    buf = np.empty(0, np.uint8)
    pos_buf: np.ndarray | None = None
    tv_table: pa.Table | None = None
    if prepared is not None and len(prepared.starts) > 1:
        starts = prepared.starts
        n_postings = int(starts[-1])
        n_terms = starts.size - 1
        buf, tmeta, blk_counts = encode_many_postings(
            starts, prepared.docids, prepared.tfs, block_size=cfg.block_size
        )
        boff = np.concatenate([[0], np.cumsum(blk_counts)]).astype(np.int32)

        def _nest(flat: np.ndarray, typ) -> pa.ListArray:
            return pa.ListArray.from_arrays(
                pa.array(boff, type=pa.int32()), pa.array(flat, type=typ)
            )

        terms_cols = {
                "field": pa.array(prepared.field_names, type=pa.string()).take(
                    prepared.term_fields
                ),
                "term": prepared.terms,
                "df": pa.array(np.diff(starts), type=pa.int64()),
                "doff": pa.array(tmeta["doff"], type=pa.int64()),
                "doff_end": pa.array(tmeta["doff_end"], type=pa.int64()),
                "toff": pa.array(tmeta["toff"], type=pa.int64()),
                "toff_end": pa.array(tmeta["toff_end"], type=pa.int64()),
                "blk_doff": _nest(tmeta["blk_doff"], pa.int64()),
                "blk_toff": _nest(tmeta["blk_toff"], pa.int64()),
                "blk_maxdoc": _nest(tmeta["blk_maxdoc"], pa.int64()),
                "blk_maxtf": _nest(tmeta["blk_maxtf"], pa.int32()),
        }
        if prepared.pos_deltas is not None:
            # positional region (phrase queries): term t's deltas span the
            # cumulative-tf range of its postings
            tok_cum = np.concatenate([[0], np.cumsum(prepared.tfs)]).astype(np.int64)
            pos_buf, poff, poff_end = encode_many_positions(
                tok_cum[starts], prepared.pos_deltas
            )
            terms_cols["poff"] = pa.array(poff, type=pa.int64())
            terms_cols["poff_end"] = pa.array(poff_end, type=pa.int64())
        terms_table = pa.table(terms_cols)
        if cfg.store_term_vectors:
            tv_table = build_tv_table(
                starts, prepared.docids, prepared.tfs, prepared.pos_deltas
            )
    elif post_table is not None and post_table.num_rows:
        post = post_table.sort_by(
            [("field", "ascending"), ("term", "ascending"), ("docid", "ascending")]
        )
        n_postings = post.num_rows
        fkey = _composite_key(post["field"].combine_chunks(), post["term"].combine_chunks())
        neq = (
            pc.not_equal(fkey.slice(0, n_postings - 1), fkey.slice(1, n_postings)).to_numpy(
                zero_copy_only=False
            )
            if n_postings > 1
            else np.empty(0, bool)
        )
        is_start = np.concatenate(([True], neq))
        starts = np.concatenate([np.flatnonzero(is_start), [n_postings]]).astype(np.int64)
        n_terms = starts.size - 1
        docids = post["docid"].to_numpy(zero_copy_only=False)
        tfs = post["tf"].to_numpy(zero_copy_only=False).astype(np.int64)
        buf, tmeta, blk_counts = encode_many_postings(
            starts, docids, tfs, block_size=cfg.block_size
        )
        term_idx = starts[:-1]
        boff = np.concatenate([[0], np.cumsum(blk_counts)]).astype(np.int32)

        def _nest(flat: np.ndarray, typ) -> pa.ListArray:
            return pa.ListArray.from_arrays(
                pa.array(boff, type=pa.int32()), pa.array(flat, type=typ)
            )

        terms_table = pa.table(
            {
                "field": post["field"].take(pa.array(term_idx)).combine_chunks(),
                "term": post["term"].take(pa.array(term_idx)).combine_chunks(),
                "df": pa.array(np.diff(starts), type=pa.int64()),
                "doff": pa.array(tmeta["doff"], type=pa.int64()),
                "doff_end": pa.array(tmeta["doff_end"], type=pa.int64()),
                "toff": pa.array(tmeta["toff"], type=pa.int64()),
                "toff_end": pa.array(tmeta["toff_end"], type=pa.int64()),
                "blk_doff": _nest(tmeta["blk_doff"], pa.int64()),
                "blk_toff": _nest(tmeta["blk_toff"], pa.int64()),
                "blk_maxdoc": _nest(tmeta["blk_maxdoc"], pa.int64()),
                "blk_maxtf": _nest(tmeta["blk_maxtf"], pa.int32()),
            }
        )
        if cfg.store_term_vectors:
            tv_table = build_tv_table(starts, docids, tfs, None)
    else:
        terms_table = _empty_terms_table()

    storage.write_bytes(storage.join(tmp_dir, "postings.bin"), buf.tobytes())
    if pos_buf is not None:
        storage.write_bytes(storage.join(tmp_dir, "positions.bin"), pos_buf.tobytes())
    storage.write_parquet(terms_table, storage.join(tmp_dir, "terms.parquet"))
    if tv_table is not None:
        storage.write_parquet(tv_table, storage.join(tmp_dir, "tv.parquet"))

    docs_cols = {
        "docid": pa.array(doc_base + np.arange(n_docs, dtype=np.int64), type=pa.int64()),
        "url": urls,
        "text_sha256": shas,
        "warc_ts": pc.cast(ts_us, pa.int64()),
    }
    sum_dl: dict[str, int] = {}
    for name, arr in dl_arrays.items():
        docs_cols[f"dl_{name}"] = pa.array(arr, type=pa.int32())
        sum_dl[name] = int(arr.sum()) if len(arr) else 0
    storage.write_parquet(pa.table(docs_cols), storage.join(tmp_dir, "docs.parquet"))

    row = {
        "collection": coll,
        "partition": p,
        "generation": generation,
        "path": seg_dir,
        "doc_base": doc_base,
        "n_docs": int(n_docs),
        "n_terms": int(n_terms),
        "n_postings": int(n_postings),
        "bytes_postings": int(buf.size),
        "sum_dl_json": json.dumps(sum_dl, sort_keys=True),
        "input_digest": digest,
        "rows_in": int(metrics.get("rows_in", n_docs)),
        "rows_deduped": int(metrics.get("rows_deduped", n_docs)),
        "rows_deleted": int(metrics.get("rows_deleted", 0)),
        "wall_s": time.monotonic() - t0,
        "resumed": False,
    }
    # meta.json LAST — the segment's commit record on both backends
    storage.write_json(
        storage.join(tmp_dir, "meta.json"),
        {"input_digest": digest, "manifest_row": row},
    )
    if tmp_dir != seg_dir:
        os.rename(tmp_dir, seg_dir)
    return row


def build_tv_table(
    starts: np.ndarray,
    docids: np.ndarray,
    tfs: np.ndarray,
    pos_deltas: np.ndarray | None,
) -> pa.Table:
    """Invert term-major posting runs into the doc-major forward sidecar
    (tv.parquet): one row per doc that carries ≥1 posting, with

        docid  int64            absolute docid
        rows   list<int64>      dictionary row indices, ascending (= field
                                then term order — a field slice is a
                                contiguous sub-range)
        tfs    list<int32>      aligned term frequencies
        pos    list<int32>      flat absolute token positions, concatenated
                                per entry (split by cumsum(tfs)); omitted
                                when the index has no positions region

    Pure numpy: one lexsort over the postings plus run-length grouping —
    the same per-posting cost the postings encode already pays."""
    n_terms = starts.size - 1
    df = np.diff(starts).astype(np.int64)
    n_post = int(starts[-1])
    tok_total = int(tfs.sum()) if pos_deltas is not None else 0
    if n_post >= (1 << 31) or tok_total >= (1 << 31):
        # ListArray int32 offsets would wrap SILENTLY — refuse loudly (the
        # curation 2^42 / band-join overflow guard convention): a segment
        # this large needs a higher num_partitions, not a corrupt sidecar
        raise ValueError(
            f"term-vector sidecar exceeds int32 list offsets "
            f"({n_post} postings / {tok_total} positions in one segment) — "
            "raise IndexConfig.num_partitions"
        )
    row_of = np.repeat(np.arange(n_terms, dtype=np.int64), df)
    order = np.lexsort((row_of, docids))
    d_s = docids[order]
    r_s = row_of[order]
    tf_s = tfs[order].astype(np.int64)
    grp = np.flatnonzero(np.concatenate(([True], d_s[1:] != d_s[:-1])))
    offsets = np.concatenate([grp, [d_s.size]]).astype(np.int32)
    cols: dict[str, pa.Array] = {
        "docid": pa.array(d_s[grp], type=pa.int64()),
        "rows": pa.ListArray.from_arrays(
            pa.array(offsets, type=pa.int32()), pa.array(r_s, type=pa.int64())
        ),
        "tfs": pa.ListArray.from_arrays(
            pa.array(offsets, type=pa.int32()),
            pa.array(tf_s, type=pa.int32()),
        ),
    }
    if pos_deltas is not None:
        # delta stream → absolute positions (the decode_positions_region
        # formula), still in term-major posting order
        deltas = pos_deltas.astype(np.int64)
        tok_prefix = np.concatenate([[0], np.cumsum(tfs)]).astype(np.int64)
        cum = np.cumsum(deltas)
        first = tok_prefix[:-1]
        base = cum[first] - deltas[first]
        abspos = cum - np.repeat(base, tfs) - 1
        # gather each posting's token sub-stream into doc-major order
        p_starts = tok_prefix[:-1][order]
        tot = int(tf_s.sum())
        prefix = np.concatenate([[0], np.cumsum(tf_s)])
        gather = (
            np.repeat(p_starts - prefix[:-1], tf_s)
            + np.arange(tot, dtype=np.int64)
        )
        pos_s = abspos[gather]
        tok_offsets = prefix[offsets].astype(np.int32)
        cols["pos"] = pa.ListArray.from_arrays(
            pa.array(tok_offsets, type=pa.int32()),
            pa.array(pos_s, type=pa.int32()),
        )
    return pa.table(cols)


def _build_postings_numeric(
    seg: pa.Table, cfg: IndexConfig, doc_base: int
) -> tuple["PreparedPostings | None", dict[str, np.ndarray]]:
    """Tokenize all fields and build sorted posting runs NUMERICALLY.

    String-keyed group_by/sort over millions of token rows is memory-bandwidth
    bound (the dominant cost under 32-way task concurrency).  Instead: hash
    each token to u64 (mixed FNV-1a), lexsort the numeric (field_id, hash,
    docid) triples, derive tf as run lengths, then order the ~|vocab| term
    GROUPS lexicographically and gather posting rows by group — every
    per-token pass is numeric.  Term strings exist only at group level and
    only as Arrow arrays: the ASCII path gathers them from the token buffer
    in one pass (``HashedTokens.token_strings``), the Unicode path with an
    Arrow ``take``; ``pc.sort_indices`` orders (field id, term) and the
    sorted ``pa.string()`` array goes straight to terms.parquet.

    Hash collisions within a partition's per-field vocabulary would merge two
    terms (probability |V|²/2⁶⁵ ≈ 1e-10 at 100k terms); at 10¹²-doc scale
    move to a 128-bit hash or add a collision re-check.
    """
    from lucene_plugin_ray.functions.analysis import tokenize_column_hashed
    from lucene_plugin_ray.functions.hashing import fnv1a_bytes_column, mix64_np

    n_docs = seg.num_rows
    dl_arrays: dict[str, np.ndarray] = {}
    fid_parts, h_parts, did_parts, pos_parts, materializers = [], [], [], [], []
    field_names: list[str] = []

    for field in cfg.fields():
        if field not in seg.column_names:
            dl_arrays[field] = np.zeros(n_docs, np.int32)
            continue
        col = pc.cast(seg[field].combine_chunks(), pa.string())
        ht = tokenize_column_hashed(col)
        if ht is not None:
            # ASCII fast path: no per-token strings materialized
            dl_arrays[field] = ht.doc_len
            if len(ht.parents) == 0:
                continue
            parents, hashes, positions = ht.parents, ht.hashes, ht.positions
            materializers.append(ht.token_strings)
        else:
            # exact Unicode path (same spec, same hash formula)
            parents, terms, doc_len, positions = tokenize_column(
                col, with_positions=True
            )
            dl_arrays[field] = doc_len
            if len(parents) == 0:
                continue
            hashes = mix64_np(fnv1a_bytes_column(terms))
            materializers.append(terms.take)
        fid = len(field_names)
        field_names.append(field)
        fid_parts.append(np.full(len(parents), fid, dtype=np.int16))
        h_parts.append(hashes)
        did_parts.append(doc_base + parents)
        # PRE-stop-filter positions (StopFilter enablePositionIncrements
        # parity) — phrase gaps over removed stop words match Lucene 5.2.1
        pos_parts.append(positions)
    if not fid_parts:
        return None, dl_arrays

    fid = np.concatenate(fid_parts)
    h = np.concatenate(h_parts)
    did = np.concatenate(did_parts)
    posflat = np.concatenate(pos_parts)
    # token-index offsets so a flat index maps back into its field's tokens
    tok_offsets = np.concatenate([[0], np.cumsum([len(a) for a in fid_parts])])

    order = np.lexsort((did, h, fid))
    fid_s, h_s, did_s = fid[order], h[order], did[order]
    # run boundaries over (field, hash, docid) → tf = run length
    change = np.empty(fid_s.size, dtype=bool)
    change[0] = True
    np.not_equal(did_s[1:], did_s[:-1], out=change[1:])
    change[1:] |= h_s[1:] != h_s[:-1]
    change[1:] |= fid_s[1:] != fid_s[:-1]
    run_starts = np.flatnonzero(change)
    tf = np.diff(np.concatenate([run_starts, [fid_s.size]])).astype(np.int64)
    p_fid = fid_s[run_starts]
    p_h = h_s[run_starts]
    p_did = did_s[run_starts]

    # term groups over (field, hash) in the posting rows
    tchange = np.empty(p_fid.size, dtype=bool)
    tchange[0] = True
    np.not_equal(p_h[1:], p_h[:-1], out=tchange[1:])
    tchange[1:] |= p_fid[1:] != p_fid[:-1]
    g_starts = np.flatnonzero(tchange)
    g_ends = np.concatenate([g_starts[1:], [p_fid.size]])
    # term string for each group: first token of the group's first run
    first_tok = order[run_starts[g_starts]]
    g_field_id = p_fid[g_starts]
    # groups are field-major, so field f's groups are one contiguous run:
    # materialize each run's strings in bulk from its own field's tokens
    f_bounds = np.searchsorted(g_field_id, np.arange(len(field_names) + 1))
    term_strs = pa.concat_arrays([
        mat(first_tok[f_bounds[f] : f_bounds[f + 1]] - tok_offsets[f])
        for f, mat in enumerate(materializers)
    ])

    # lexicographic (field, term) order over the small group set: Arrow
    # sorts strings by UTF-8 bytes, which is codepoint order
    g_order = pc.sort_indices(
        pa.table({"f": g_field_id, "t": term_strs}),
        sort_keys=[("f", "ascending"), ("t", "ascending")],
    ).to_numpy()
    lens = g_ends - g_starts
    lens_o = lens[g_order]
    new_starts = np.concatenate([[0], np.cumsum(lens_o)]).astype(np.int64)
    total = int(new_starts[-1])
    g_of_out = np.repeat(np.arange(g_order.size, dtype=np.int64), lens_o)
    within = np.arange(total, dtype=np.int64) - np.repeat(new_starts[:-1], lens_o)
    row_idx = g_starts[g_order][g_of_out] + within

    out_tf = tf[row_idx]
    pos_deltas = None
    if cfg.index_positions:
        # token positions in final (term, doc) posting order: lexsort is
        # stable, so each (field, hash, doc) run keeps original token order
        # (ascending positions); gather each output posting's sub-stream
        pos_sorted = posflat[order]
        tot_tok = int(out_tf.sum())
        out_prefix = np.concatenate([[0], np.cumsum(out_tf)]).astype(np.int64)
        gather = (
            np.repeat(run_starts[row_idx] - out_prefix[:-1], out_tf)
            + np.arange(tot_tok, dtype=np.int64)
        )
        pos_deltas = positions_to_deltas(pos_sorted[gather], out_prefix[:-1])

    return (
        PreparedPostings(
            field_names=field_names,
            term_fields=g_field_id[g_order],
            terms=term_strs.take(g_order),
            starts=new_starts,
            docids=p_did[row_idx],
            tfs=out_tf,
            pos_deltas=pos_deltas,
        ),
        dl_arrays,
    )


class PreparedPostings:
    """Sorted posting runs ready for encode_many_postings (term groups in
    (field, term) lex order; docid-ascending within each term).  ``terms``
    is a ``pa.StringArray`` and ``term_fields`` an integer array of indices
    into ``field_names``.

    ``pos_deltas`` (optional): uint64 flat per-token position deltas grouped
    per posting in the same order (doc-local delta encoding, see
    functions/codec.py positional section) — None ⇒ the segment is written
    without a positions region (phrase queries unavailable on it)."""

    __slots__ = (
        "field_names", "term_fields", "terms", "starts", "docids", "tfs",
        "pos_deltas",
    )

    def __init__(
        self, field_names, term_fields, terms, starts, docids, tfs,
        pos_deltas=None,
    ):
        self.field_names = field_names
        self.term_fields = term_fields
        self.terms = terms
        self.starts = starts
        self.docids = docids
        self.tfs = tfs
        self.pos_deltas = pos_deltas


def _write_collection_segment(
    seg: pa.Table,
    coll: str,
    p: int,
    doc_base: int,
    cfg: IndexConfig,
    generation: int,
    t0: float,
    **metrics: int,
) -> dict:
    """Build path: tokenize every analyzed field of one collection run, then
    hand the prepared posting runs to the shared writer."""
    prepared, dl_arrays = _build_postings_numeric(seg, cfg, doc_base)
    return encode_and_write_segment(
        coll,
        p,
        doc_base,
        cfg,
        generation,
        seg[cfg.url_column].combine_chunks(),
        seg["text_sha256"].combine_chunks(),
        pc.cast(seg[cfg.ts_column].combine_chunks(), pa.int64()),
        dl_arrays,
        None,
        t0,
        prepared=prepared,
        **metrics,
    )
