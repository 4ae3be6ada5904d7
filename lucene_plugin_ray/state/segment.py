"""Segment reader — the query-side state (SURVEY.md §2.3 T2/T5).

≙ the reference's SearcherManager + leased IndexSearcher + docid→extId cache
(LuceneIndexBean.java:620-637, 789-790; LuceneReaderImpl.java:90-98): a
SegmentReader memory-maps one collection-partition segment once (per query
actor) and serves term lookups / posting decodes from it.  docid→url is an
O(1) array take against docs.parquet — the reference's 8192-entry LRU (T5) is
unnecessary in columnar form.
"""

from __future__ import annotations

import json
import os

import numpy as np

from lucene_plugin_ray.functions.codec import decode_region, varint_decode


class _LazyRegion:
    """Chunked random-access byte view over a REMOTE region file — the
    page-granular fetch path for cold URL-rooted indexes (segment.py's
    former whole-file ``read_bytes`` pulled multi-GB postings.bin per
    segment open; a selective term query touches a few KB of it).

    Quacks like the uint8 ndarray the decode paths slice: ``region[a:b]``
    returns a contiguous uint8 array, ``.size`` is the file length.
    Slices are served from an LRU of fixed-size chunks fetched with
    ranged GETs (``storage.read_bytes_range``); a slice spanning chunks
    concatenates views — one ranged GET per cold 1-MiB chunk, zero
    re-fetch for query-locality (posting regions of one term are
    contiguous by construction).  ``fetches``/``bytes_fetched`` are
    exposed for tests and ops visibility."""

    CHUNK = 1 << 20
    __slots__ = ("path", "size", "fetches", "bytes_fetched", "_cache",
                 "_max_chunks")

    def __init__(self, path: str, size: int, max_chunks: int = 256):
        from collections import OrderedDict

        self.path = path
        self.size = int(size)
        self.fetches = 0
        self.bytes_fetched = 0
        self._cache: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._max_chunks = max_chunks

    def _chunk(self, c: int) -> np.ndarray:
        got = self._cache.get(c)
        if got is not None:
            self._cache.move_to_end(c)
            return got
        from lucene_plugin_ray.state import storage

        lo = c * self.CHUNK
        hi = min(self.size, lo + self.CHUNK)
        raw = storage.read_bytes_range(self.path, lo, hi)
        arr = np.frombuffer(raw, dtype=np.uint8)
        self.fetches += 1
        self.bytes_fetched += arr.size
        self._cache[c] = arr
        if len(self._cache) > self._max_chunks:
            self._cache.popitem(last=False)
        return arr

    def __getitem__(self, sl: slice) -> np.ndarray:
        start = 0 if sl.start is None else int(sl.start)
        stop = self.size if sl.stop is None else int(sl.stop)
        start, stop = max(0, start), min(self.size, stop)
        if stop <= start:
            return np.empty(0, np.uint8)
        c0, c1 = start // self.CHUNK, (stop - 1) // self.CHUNK
        if c0 == c1:
            ch = self._chunk(c0)
            return ch[start - c0 * self.CHUNK : stop - c0 * self.CHUNK]
        parts = []
        for c in range(c0, c1 + 1):
            ch = self._chunk(c)
            a = start - c * self.CHUNK if c == c0 else 0
            b = stop - c * self.CHUNK if c == c1 else self.CHUNK
            parts.append(ch[a:b])
        return np.concatenate(parts)


# remote region files at or below this are fetched whole (one GET beats
# chunk bookkeeping); above it, _LazyRegion pages on demand
_LAZY_FETCH_THRESHOLD = 4 << 20


class SegmentDocs:
    """The doc side of one segment: meta.json + docs.parquet only.

    Enough for live-doc resolution (:func:`resolve_live_partition`) and the
    delta build's prior-state read (:func:`live_prior_table`), which never
    touch a term dictionary or a postings region.
    :class:`SegmentReader` builds on it."""

    def __init__(self, path: str):
        from lucene_plugin_ray.state import storage

        self.path = path
        meta = storage.read_json(storage.join(path, "meta.json"))["manifest_row"]
        self.collection: str = meta["collection"]
        self.partition: int = meta["partition"]
        self.generation: int = meta["generation"]
        self.doc_base: int = meta["doc_base"]
        self.n_docs: int = meta["n_docs"]
        self.sum_dl: dict[str, int] = json.loads(meta["sum_dl_json"])

        d = storage.read_parquet(storage.join(path, "docs.parquet"))
        self.urls = d["url"].to_numpy(zero_copy_only=False)
        self.text_sha256 = d["text_sha256"].to_numpy(zero_copy_only=False)
        self.warc_ts = (
            d["warc_ts"].to_numpy(zero_copy_only=False)
            if "warc_ts" in d.column_names
            else np.zeros(self.n_docs, np.int64)
        )
        self.doc_len: dict[str, np.ndarray] = {}
        for name in d.column_names:
            if name.startswith("dl_"):
                self.doc_len[name[3:]] = d[name].to_numpy(zero_copy_only=False)


class SegmentReader(SegmentDocs):
    """Read-only view of one segment directory (immutable once renamed)."""

    def __init__(self, path: str):
        from lucene_plugin_ray.state import storage

        super().__init__(path)
        t = storage.read_parquet(storage.join(path, "terms.parquet"))
        self._fields = t["field"].to_numpy(zero_copy_only=False)
        self._terms = t["term"].to_numpy(zero_copy_only=False)
        self._df = t["df"].to_numpy(zero_copy_only=False)
        self._doff = t["doff"].to_numpy(zero_copy_only=False)
        self._doff_end = t["doff_end"].to_numpy(zero_copy_only=False)
        self._toff = t["toff"].to_numpy(zero_copy_only=False)
        self._toff_end = t["toff_end"].to_numpy(zero_copy_only=False)
        self._blk = {
            name: t[name].combine_chunks() for name in
            ("blk_doff", "blk_toff", "blk_maxdoc", "blk_maxtf")
        }
        # positional region (phrase queries): present iff the segment was
        # written with index_positions (empty segments are vacuously capable)
        self.has_positions = "poff" in t.column_names or len(self._terms) == 0
        if "poff" in t.column_names:
            self._poff = t["poff"].to_numpy(zero_copy_only=False)
            self._poff_end = t["poff_end"].to_numpy(zero_copy_only=False)
        else:
            self._poff = np.empty(0, np.int64)
            self._poff_end = np.empty(0, np.int64)
        # field → [start, end) row range in the term dictionary (sorted by
        # (field, term); term order is UTF-8 byte order == codepoint order)
        self._field_ranges: dict[str, tuple[int, int]] = {}
        if len(self._fields):
            change = np.flatnonzero(
                np.concatenate(([True], self._fields[1:] != self._fields[:-1]))
            )
            bounds = np.concatenate([change, [len(self._fields)]])
            for i, s in enumerate(change):
                self._field_ranges[str(self._fields[s])] = (int(s), int(bounds[i + 1]))

        # forward term-vector sidecar (IndexConfig.store_term_vectors):
        # presence probed lazily, table loaded on first doc_term_vector call
        self._tv_present: bool | None = None
        self._tv_loaded = False

        self.buf = self._map_region(path, "postings.bin", required=True)
        self.pbuf = (
            self._map_region(path, "positions.bin", required=False)
            if self._poff.size
            else np.empty(0, np.uint8)
        )

    @staticmethod
    def _map_region(path: str, name: str, required: bool) -> np.ndarray:
        from lucene_plugin_ray.state import storage

        if storage.is_url(path):
            # remote root (≙ BfsDirectory reads): small regions fetched
            # whole; large ones page on demand through _LazyRegion — a
            # segment open costs metadata only, and a selective query
            # fetches the few chunks its terms' posting runs live in
            # instead of the multi-GB region file
            url = storage.join(path, name)
            if not required and not storage.exists(url):
                return np.empty(0, np.uint8)
            size = storage.file_size(url)
            if size == 0:
                return np.empty(0, np.uint8)
            if size <= _LAZY_FETCH_THRESHOLD:
                raw = storage.read_bytes(url)
                return np.frombuffer(raw, dtype=np.uint8)
            return _LazyRegion(url, size)
        pfile = os.path.join(path, name)
        if not required and not os.path.exists(pfile):
            return np.empty(0, np.uint8)
        size = os.path.getsize(pfile)
        return (
            np.memmap(pfile, dtype=np.uint8, mode="r")
            if size
            else np.empty(0, np.uint8)
        )

    # ---- term dictionary -------------------------------------------------
    def lookup(self, field: str, term: str) -> int:
        """Row index of (field, term) in the dictionary, or -1."""
        rng = self._field_ranges.get(field)
        if rng is None:
            return -1
        s, e = rng
        i = s + int(np.searchsorted(self._terms[s:e], term))
        if i < e and self._terms[i] == term:
            return i
        return -1

    def term_range(
        self,
        field: str,
        lo: str | None,
        hi: str | None,
        lo_inc: bool = True,
        hi_inc: bool = True,
    ) -> np.ndarray:
        """Dictionary rows within the term range (Q3 string range — a
        term-sorted dictionary scan, SURVEY.md §7.4).  ``None`` bounds are
        open (classic QueryParser ``[* TO b]``); ``lo_inc``/``hi_inc``
        select inclusive ``[``/``]`` vs exclusive ``{``/``}`` endpoints."""
        rng = self._field_ranges.get(field)
        if rng is None:
            return np.empty(0, np.int64)
        s, e = rng
        a = (
            s
            + int(
                np.searchsorted(
                    self._terms[s:e], lo, side="left" if lo_inc else "right"
                )
            )
            if lo is not None
            else s
        )
        b = (
            s
            + int(
                np.searchsorted(
                    self._terms[s:e], hi, side="right" if hi_inc else "left"
                )
            )
            if hi is not None
            else e
        )
        return np.arange(a, b, dtype=np.int64)

    def field_vocab(self, field: str) -> tuple[int, np.ndarray]:
        """(start_row, object-dtype term slice) of one field's dictionary —
        what a scope's union term dictionary is merged from."""
        rng = self._field_ranges.get(field)
        if rng is None:
            return 0, np.empty(0, object)
        s, e = rng
        return s, self._terms[s:e]

    def df(self, row: int) -> int:
        return int(self._df[row])

    # ---- postings --------------------------------------------------------
    def postings(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        """Decode the full posting list of dictionary row → (docids, tfs).
        Docids are ABSOLUTE (doc_base + local)."""
        return decode_region(
            self.buf,
            int(self._doff[row]),
            int(self._doff_end[row]),
            int(self._toff[row]),
            int(self._toff_end[row]),
            int(self._df[row]),
        )

    def _varints_many(
        self, rows: np.ndarray, lo: np.ndarray, hi: np.ndarray, total: int
    ) -> np.ndarray:
        """The ``total`` varints stored in byte ranges ``[lo[r], hi[r])`` of
        ``rows``, concatenated in ``rows`` order.  Maximal runs of
        byte-adjacent ranges are read as one slice each (a contiguous row
        range is one slice) and everything decodes in ONE varint pass.  On
        a remote root each slice goes through ``_LazyRegion``, so only the
        chunks the rows live in are fetched."""
        lo, hi = lo[rows], hi[rows]
        cuts = np.flatnonzero(lo[1:] != hi[:-1]) + 1
        run_lo = lo[np.concatenate(([0], cuts))]
        run_hi = hi[np.concatenate((cuts - 1, [rows.size - 1]))]
        parts = [self.buf[int(a) : int(b)] for a, b in zip(run_lo, run_hi)]
        return varint_decode(
            parts[0] if len(parts) == 1 else np.concatenate(parts), count=total
        )

    def docids_many(self, rows: np.ndarray) -> np.ndarray:
        """ABSOLUTE docids of every dictionary row in ``rows``, concatenated
        in ``rows`` order — :meth:`postings` per row without the tfs: one
        bulk varint decode and one segmented cumsum."""
        rows = np.asarray(rows, dtype=np.int64)
        df = self._df[rows].astype(np.int64)
        total = int(df.sum())
        if total == 0:
            return np.empty(0, np.int64)
        deltas = self._varints_many(rows, self._doff, self._doff_end, total)
        # per-row cumsum reset: docid = cumsum(deltas) − cum@row_start − 1
        cum = np.cumsum(deltas.astype(np.int64))
        starts = np.cumsum(df) - df
        row_base = np.where(starts > 0, cum[starts - 1], 0)
        return cum - np.repeat(row_base, df) - 1

    def positions(self, row: int, tfs: np.ndarray) -> np.ndarray:
        """Decode dictionary row's token positions → flat int64 positions
        aligned with ``np.repeat(docids, tfs)`` (``tfs`` must be the term's
        UNFILTERED tf array from :meth:`postings`)."""
        if not self.has_positions:
            raise ValueError(
                f"segment {self.path} was written without positions "
                "(IndexConfig.index_positions=False) — phrase queries need "
                "a rebuild with positions on"
            )
        from lucene_plugin_ray.functions.codec import decode_positions_region

        return decode_positions_region(
            self.pbuf, int(self._poff[row]), int(self._poff_end[row]), tfs
        )

    def field_postings(
        self, field: str
    ) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        """Decode ONE field's entire postings — (start_row, df, docids, tfs)
        with docids ABSOLUTE and postings grouped by dictionary row (term
        asc, docid asc inside each run of ``df[j]``).  The write layout
        (encode_many_postings) stores a field's docid varints, then its tf
        varints, contiguously, so each region is one slice and one varint
        pass (:meth:`docids_many`).  The term-vector gather
        (pipelines/query.py::term_vector) is the consumer — cost bounded by
        this segment's field postings, never the corpus."""
        rng = self._field_ranges.get(field)
        empty = np.empty(0, np.int64)
        if rng is None:
            return 0, empty, empty, empty
        s, e = rng
        df = self._df[s:e].astype(np.int64)
        total = int(df.sum())
        if total == 0:
            return s, df, empty, empty
        rows = np.arange(s, e, dtype=np.int64)
        tfs = self._varints_many(rows, self._toff, self._toff_end, total)
        return s, df, self.docids_many(rows), tfs.astype(np.int64)

    # ---- forward term-vector sidecar (tv.parquet) ------------------------
    @property
    def has_tv(self) -> bool:
        """True iff this segment was written with
        ``IndexConfig.store_term_vectors`` (tv.parquet present).  Segments
        resumed from a pre-flag build lack the sidecar — consumers fall
        back to inverted-index reconstruction (pipelines/query.py
        term_vector), so the flag is a pure accelerator, never a
        correctness switch."""
        if self._tv_present is None:
            from lucene_plugin_ray.state import storage

            self._tv_present = storage.exists(storage.join(self.path, "tv.parquet"))
        return self._tv_present

    def _load_tv(self) -> None:
        from lucene_plugin_ray.state import storage

        t = storage.read_parquet(storage.join(self.path, "tv.parquet"))
        self._tv_docids = t["docid"].to_numpy(zero_copy_only=False)
        rows = t["rows"].combine_chunks()
        tfs = t["tfs"].combine_chunks()
        self._tv_offsets = rows.offsets.to_numpy(zero_copy_only=False)
        self._tv_rows = rows.values.to_numpy(zero_copy_only=False)
        self._tv_tfs = tfs.values.to_numpy(zero_copy_only=False).astype(np.int64)
        if "pos" in t.column_names:
            posl = t["pos"].combine_chunks()
            self._tv_pos_offsets = posl.offsets.to_numpy(zero_copy_only=False)
            self._tv_pos = posl.values.to_numpy(zero_copy_only=False).astype(np.int64)
        else:
            self._tv_pos_offsets = None
            self._tv_pos = None
        self._tv_loaded = True

    def doc_term_vector(
        self, docid: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """One doc's forward term vector from the sidecar — (dictionary
        rows asc, tfs, flat positions aligned per cumsum(tfs) or None).
        Cost: one binary search + one row slice (the whole point of the
        sidecar: no segment-wide postings decode).  Docs with zero
        postings return empty arrays."""
        if not self._tv_loaded:
            self._load_tv()
        i = int(np.searchsorted(self._tv_docids, docid))
        if i >= self._tv_docids.size or self._tv_docids[i] != docid:
            e = np.empty(0, np.int64)
            return e, e, (e if self._tv_pos is not None else None)
        a, b = int(self._tv_offsets[i]), int(self._tv_offsets[i + 1])
        rows = self._tv_rows[a:b]
        tfs = self._tv_tfs[a:b]
        if self._tv_pos is None:
            return rows, tfs, None
        pa_, pb = int(self._tv_pos_offsets[i]), int(self._tv_pos_offsets[i + 1])
        return rows, tfs, self._tv_pos[pa_:pb]

    def block_meta(self, row: int) -> dict[str, np.ndarray]:
        """Per-block arrays for block-max WAND (J2)."""
        return {
            name: self._blk[name][row].values.to_numpy(zero_copy_only=False)
            for name in self._blk
        }

    def local_ids(self, docids: np.ndarray) -> np.ndarray:
        return docids - self.doc_base


def resolve_live_partition(
    readers: list[SegmentDocs],
    tomb_by_gen: list[tuple[int, dict[str, set[str]]]],
) -> list[tuple[SegmentDocs, np.ndarray]]:
    """Alive masks for one (collection, partition)'s segment stack.

    Shared by the query engine, the delta build (stale-row filtering) and
    compaction.  Rules (SURVEY.md §2.6): a key present in a NEWER generation
    of the stack shadows older copies (upsert D1 — delta builds drop stale
    rows, so newer generation ⇒ newer warc_ts); explicit delete tombstones at
    gen h kill keys in segments of gen < h (D2).  Cleared collections (D3)
    are filtered before this call (their segments never enter the stack).

    Partition-local by construction: partitioning is stable across
    generations, so the key sets involved are bounded by the partition size.
    """
    readers = sorted(readers, key=lambda r: r.generation, reverse=True)
    out: list[tuple[SegmentDocs, np.ndarray]] = []
    newer_keys: set[str] = set()
    for r in readers:
        alive = np.ones(r.n_docs, dtype=bool)
        if newer_keys:
            alive &= ~np.isin(r.urls, list(newer_keys))
        for h, by_coll in tomb_by_gen:
            if h > r.generation and r.collection in by_coll:
                alive &= ~np.isin(r.urls, list(by_coll[r.collection]))
        newer_keys.update(r.urls)  # shadow ALL keys (even dead ones)
        out.append((r, alive))
    out.reverse()  # ascending generation order
    return out


def live_prior_table(
    paths: list[str],
    tomb_by_gen: list[tuple[int, dict[str, set[str]]]],
) -> "pa.Table":
    """Live (key='collection\\x00url', warc_ts, text_sha256) rows of one
    partition's existing segment stack — the small side of the delta build's
    partition-local last-write-wins join (stages/segment_write.py
    drop_stale_vs_prior).  Reads only meta.json + docs.parquet of each
    segment (:class:`SegmentDocs`)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    by_coll: dict[str, list[SegmentDocs]] = {}
    for p in paths:
        r = SegmentDocs(p)
        by_coll.setdefault(r.collection, []).append(r)
    keys, tss, shas = [], [], []
    for coll, group in by_coll.items():
        for r, alive in resolve_live_partition(group, tomb_by_gen):
            idx = np.flatnonzero(alive)
            keys.append(pc.binary_join_element_wise(
                coll, pa.array(r.urls[idx], type=pa.string()), "\x00"
            ))
            tss.append(r.warc_ts[idx])
            shas.append(r.text_sha256[idx])
    return pa.table(
        {
            "key": pa.concat_arrays(keys) if keys else pa.array([], pa.string()),
            "warc_ts": pa.array(
                np.concatenate(tss) if tss else np.empty(0, np.int64), type=pa.int64()
            ),
            "text_sha256": pa.array(
                np.concatenate(shas) if shas else np.empty(0, object), type=pa.string()
            ),
        }
    )
