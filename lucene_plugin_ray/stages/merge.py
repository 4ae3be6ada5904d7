"""K3 — segment merge / generation compaction (SURVEY.md §2.7).

≙ Lucene's TieredMergePolicy + ConcurrentMergeScheduler background merges
(LuceneIndexBean.java:671-686): multiple generations' segments for the same
(collection, document-partition) are merged into one segment of a new
generation, dropping tombstoned/cleared docs, and the new manifest is marked
``compacted`` so query engines ignore all older generations.

Execution is a task-pool stage over a small dataset of merge tasks (one row
per (collection, partition)):

    ray.data.from_items(tasks).map_batches(_merge_batch, batch_size=1)

(a task function, not an actor class — a worker killed mid-merge is a plain
retry against the idempotent segment writer; see build.py).

Each merge is partition-local: inputs are docid-disjoint, url-sorted doc
tables (upsert tombstones guarantee url-uniqueness across generations), so
the merged doc order is a k-way merge of sorted runs, docid remapping is
monotonic per input, and posting lists concatenate in docid order after
remap.  Merge fan-in respects ``cfg.merge_fanin`` (mirroring
maxMergeAtOnce=10, LuceneIndexBean.java:97): more than ``fanin`` generations
are compacted in waves by ``compact_index``.
"""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa

from lucene_plugin_ray.config import IndexConfig
from lucene_plugin_ray.functions.docid import DOCID_STRIDE
from lucene_plugin_ray.stages.segment_write import encode_and_write_segment
from lucene_plugin_ray.state.segment import SegmentReader


def merge_segments_for_partition(
    seg_paths: list[str],
    alive_masks: list[np.ndarray],
    coll: str,
    p: int,
    cfg: IndexConfig,
    generation: int,
) -> dict:
    """Merge k input segments (ascending generation) of one (collection,
    partition) into a single segment of ``generation``.  Returns the manifest
    row.  Idempotent via the same lineage-digest skip as the build path."""
    from lucene_plugin_ray.stages.segment_write import limit_intra_task_threads

    limit_intra_task_threads()
    t0 = time.monotonic()
    readers = [SegmentReader(path) for path in seg_paths]
    fields = cfg.fields()

    # ---- merged doc table: k-way merge of url-sorted alive doc runs ----
    urls_parts, sha_parts, ts_parts, seg_ids, local_ids = [], [], [], [], []
    dl_parts: dict[str, list[np.ndarray]] = {f: [] for f in fields}
    for si, (r, alive) in enumerate(zip(readers, alive_masks)):
        idx = np.flatnonzero(alive)
        urls_parts.append(r.urls[idx])
        sha_parts.append(r.text_sha256[idx])
        ts_parts.append(r.warc_ts[idx])
        for f in fields:
            dl_parts[f].append(r.doc_len.get(f, np.zeros(r.n_docs, np.int32))[idx])
        seg_ids.append(np.full(idx.size, si, dtype=np.int32))
        local_ids.append(idx)
    urls = np.concatenate(urls_parts) if urls_parts else np.empty(0, object)
    order = np.argsort(urls, kind="stable")  # urls unique across inputs
    urls = urls[order]
    shas = np.concatenate(sha_parts)[order] if urls.size else np.empty(0, object)
    tss = np.concatenate(ts_parts)[order] if urls.size else np.empty(0, np.int64)
    seg_of = np.concatenate(seg_ids)[order] if urls.size else np.empty(0, np.int32)
    loc_of = np.concatenate(local_ids)[order] if urls.size else np.empty(0, np.int64)
    n_docs = urls.size
    dl_arrays = {
        f: (np.concatenate(parts)[order] if n_docs else np.empty(0, np.int32))
        for f, parts in dl_parts.items()
    }

    # old (segment, local docid) → new rank (monotonic per input)
    remap: list[np.ndarray] = []
    new_rank = np.arange(n_docs, dtype=np.int64)
    for si, r in enumerate(readers):
        m = np.full(r.n_docs, -1, dtype=np.int64)
        sel = seg_of == si
        m[loc_of[sel]] = new_rank[sel]
        remap.append(m)

    doc_base = p * DOCID_STRIDE

    # ---- postings: ONE bulk varint decode per input, numeric remap, and a
    # run-length term index — no per-term Python loop, no per-posting object
    # arrays (same trick as the build side's _build_postings_numeric).  Each
    # input's regions are contiguous ([all docid varints][all tf varints],
    # encode_many_postings layout), so the whole segment decodes in one pass.
    vocab_f_parts, vocab_t_parts = [], []          # per-input term dicts
    post_vid_parts, post_did_parts, post_tf_parts = [], [], []
    pd_parts: list[np.ndarray] = []                # per-posting position deltas
    # positions survive a merge iff every input carries them (doc-local delta
    # sub-streams re-interleave without re-deriving absolute positions)
    have_pos = all(r.has_positions for r in readers)
    vocab_offset = 0
    for si, r in enumerate(readers):
        nt = len(r._terms)
        if nt == 0:
            continue
        df = r._df.astype(np.int64)
        starts = np.concatenate([[0], np.cumsum(df)])
        total = int(starts[-1])
        deltas, tfs_all = _bulk_decode_postings(r, df, total)
        # per-term cumsum reset: docid = cumsum(deltas) − cum@term_start − 1
        cum = np.cumsum(deltas.astype(np.int64))
        term_base = (
            np.concatenate(([0], cum[starts[1:-1] - 1]))
            if nt > 1
            else np.zeros(1, np.int64)
        )
        docids_abs = cum - np.repeat(term_base, df) - 1
        nid = remap[si][docids_abs - r.doc_base]
        ok = nid >= 0
        term_row = np.repeat(np.arange(nt, dtype=np.int64) + vocab_offset, df)
        post_vid_parts.append(term_row[ok])
        post_did_parts.append(doc_base + nid[ok])
        post_tf_parts.append(tfs_all[ok])
        if have_pos:
            pd_parts.append(_gather_pos_substreams(
                _bulk_decode_positions(r, int(tfs_all.sum())),
                tfs_all.astype(np.int64), ok,
            ))
        vocab_f_parts.append(r._fields)
        vocab_t_parts.append(r._terms)
        vocab_offset += nt

    prepared = prepare_postings_from_parts(
        vocab_f_parts, vocab_t_parts,
        post_vid_parts, post_did_parts, post_tf_parts,
        pd_parts, have_pos,
    )
    return encode_and_write_segment(
        coll,
        p,
        doc_base,
        cfg,
        generation,
        pa.array(urls, type=pa.string()),
        pa.array(shas, type=pa.string()),
        pa.array(tss, type=pa.int64()),
        dl_arrays,
        None,
        t0,
        prepared=prepared,
    )


def prepare_postings_from_parts(
    vocab_f_parts: list[np.ndarray],
    vocab_t_parts: list[np.ndarray],
    post_vid_parts: list[np.ndarray],
    post_did_parts: list[np.ndarray],
    post_tf_parts: list[np.ndarray],
    pd_parts: list[np.ndarray],
    have_pos: bool,
) -> "PreparedPostings | None":
    """k input part-lists → one lex-ordered :class:`PreparedPostings`.

    Inputs: per-input vocab (field, term) string arrays and posting arrays
    where each ``vid`` indexes into the CONCATENATION of the vocab parts
    (callers add the cumulative vocab offset), ``did`` carries FINAL
    docids, and ``pd_parts`` (when ``have_pos``) carries per-posting
    position-delta sub-streams in the same posting order.  Shared by the
    generation merge (K3) and the repartitioner — the vocab union is a
    VOCAB-sized string operation, the posting reorder one lexsort; no
    per-term Python.  Returns None when no live posting survives."""
    import pyarrow.compute as pc

    from lucene_plugin_ray.stages.segment_write import PreparedPostings

    if not post_vid_parts:
        return None
    # global vocab: unique (field, term) across inputs, key-lex order
    vf = np.concatenate(vocab_f_parts)
    vt = np.concatenate(vocab_t_parts)
    keys = pc.binary_join_element_wise(
        pa.array(vf, type=pa.string()), pa.array(vt, type=pa.string()), "\x00"
    ).to_numpy(zero_copy_only=False)
    _, uidx, inv = np.unique(keys, return_index=True, return_inverse=True)
    g_terms = vt[uidx]
    g_field_str = vf[uidx]
    field_names = sorted(set(g_field_str.tolist()))
    fmap = {f: i for i, f in enumerate(field_names)}
    g_field_id = np.array([fmap[f] for f in g_field_str], dtype=np.int16)

    gvid = inv[np.concatenate(post_vid_parts)]
    did = np.concatenate(post_did_parts)
    tf = np.concatenate(post_tf_parts).astype(np.int64)
    if not did.size:  # (all-tombstoned → no postings survive)
        return None
    order2 = np.lexsort((did, gvid))
    pos_deltas = None
    if have_pos:
        # reorder each posting's position sub-stream with order2
        pd_flat = (
            np.concatenate(pd_parts) if pd_parts else np.empty(0, np.uint64)
        )
        pos_deltas = _gather_pos_substreams(pd_flat, tf, order=order2)
    gvid, did, tf = gvid[order2], did[order2], tf[order2]
    run_start = np.flatnonzero(
        np.concatenate(([True], gvid[1:] != gvid[:-1]))
    )
    new_starts = np.concatenate([run_start, [gvid.size]]).astype(np.int64)
    live_v = gvid[run_start]  # vocab ids with live postings
    return PreparedPostings(
        field_names=field_names,
        term_fields=g_field_id[live_v],
        terms=pa.array(g_terms[live_v], type=pa.string()),
        starts=new_starts,
        docids=did,
        tfs=tf,
        pos_deltas=pos_deltas,
    )


def _gather_pos_substreams(
    pd: np.ndarray,
    widths: np.ndarray,
    keep: np.ndarray | None = None,
    order: np.ndarray | None = None,
) -> np.ndarray:
    """Gather per-posting position-delta sub-streams (widths[i] deltas per
    posting) — either the ``keep``-masked subset in place, or the full set
    re-ordered by ``order``.  Doc-local delta encoding makes sub-streams
    relocatable without decode."""
    starts = np.concatenate([[0], np.cumsum(widths)])[:-1]
    if keep is not None:
        widths, starts = widths[keep], starts[keep]
    if order is not None:
        widths, starts = widths[order], starts[order]
    tot = int(widths.sum())
    prefix = np.concatenate([[0], np.cumsum(widths)])[:-1]
    return pd[np.repeat(starts - prefix, widths) + np.arange(tot, dtype=np.int64)]


def _bulk_decode_positions(r: SegmentReader, total_tok: int) -> np.ndarray:
    """Decode ALL terms' position deltas of one segment (raw delta VALUES,
    not absolute positions — relocation-safe).  Fast path mirrors
    _bulk_decode_postings: one varint pass over the contiguous region."""
    from lucene_plugin_ray.functions.codec import varint_decode

    if len(r._poff) == 0 or total_tok == 0:
        return np.empty(0, np.uint64)
    contiguous = (r._poff[1:] == r._poff_end[:-1]).all()
    if contiguous:
        p0, p1 = int(r._poff[0]), int(r._poff_end[-1])
        return varint_decode(np.ascontiguousarray(r.pbuf[p0:p1]), count=total_tok)
    parts = [
        varint_decode(np.ascontiguousarray(r.pbuf[int(a):int(b)]))
        for a, b in zip(r._poff, r._poff_end)
    ]
    return np.concatenate(parts) if parts else np.empty(0, np.uint64)


def _bulk_decode_postings(r: SegmentReader, df: np.ndarray, total: int):
    """Decode ALL terms' (deltas, tfs) of one segment.  Fast path: one
    varint_decode over each contiguous region; falls back to per-term
    decode_region if regions are not contiguous (never true for segments
    written by encode_many_postings — defensive only)."""
    from lucene_plugin_ray.functions.codec import varint_decode

    contiguous = (
        len(r._doff) > 0
        and (r._doff[1:] == r._doff_end[:-1]).all()
        and (r._toff[1:] == r._toff_end[:-1]).all()
    )
    if contiguous:
        d0, d1 = int(r._doff[0]), int(r._doff_end[-1])
        t0_, t1 = int(r._toff[0]), int(r._toff_end[-1])
        deltas = varint_decode(np.ascontiguousarray(r.buf[d0:d1]), count=total)
        tfs = varint_decode(np.ascontiguousarray(r.buf[t0_:t1]), count=total)
        return deltas, tfs.astype(np.int32)
    deltas = np.empty(total, np.uint64)
    tfs = np.empty(total, np.int32)
    pos = 0
    for row in range(len(df)):
        docids, t = r.postings(row)
        n = docids.size
        d = np.empty(n, np.int64)
        d[0] = docids[0] + 1
        d[1:] = np.diff(docids)
        deltas[pos : pos + n] = d.astype(np.uint64)
        tfs[pos : pos + n] = t
        pos += n
    return deltas, tfs
