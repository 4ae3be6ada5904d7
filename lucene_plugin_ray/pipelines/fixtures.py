"""Deterministic synthetic corpus generator (FIXTURES.md §1-§5).

Generates the ``pages`` table in the exact BASELINE.json input_hint shape
(url, warc_ts, html, text, lang [, collection, extra fields]) with planted
structure mirroring the reference test corpus behaviors
(/root/reference/service/src/test/java/tests/TestSearchText.java etc.):

* dup/upsert set — only the max-warc_ts version of a dup url carries its
  ``dupmarker{n}``; older versions carry ``oldmarker{n}``
  (≙ TestSearchText.java:32-39, TestSearchWithUpdate.java:32-42)
* ``Firstword{n}`` / ``lastword{n}`` markers (≙ TestSearchByFirstWord/LastWord)
* pagehit/pagemiss group: 10 hits + 1 miss (≙ TestPaging.java:31-60)
* ``scorecheck`` cluster with controlled tf 1..20 (hand-computable BM25 order)
* stopword-only and empty docs (doc_len 0 handling)
* Zipf(s≈1.1) vocabulary incl. the 33 stop words → head-term skew

Everything is a pure function of (n_docs, seed) — no wall clock, no I/O except
the optional parquet write.  Token text is ASCII ``[a-z0-9]+`` so the analyzer
spec matches Lucene StandardTokenizer exactly on this corpus.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

EPOCH_US = 1_600_000_000_000_000  # fixed base timestamp (us)

VOCAB_SIZE = 50_000
ZIPF_S = 1.1

_STOPS = [
    "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "if",
    "in", "into", "is", "it", "no", "not", "of", "on", "or", "such",
    "that", "the", "their", "then", "there", "these", "they", "this",
    "to", "was", "will", "with",
]


def _vocab() -> np.ndarray:
    words = list(_STOPS) + [f"w{i:05d}" for i in range(VOCAB_SIZE - len(_STOPS))]
    return np.array(words)


def make_pages(
    n_docs: int = 1000,
    seed: int = 42,
    with_collections: bool = False,
    with_fields: bool = False,
    min_len: int = 50,
    max_len: int = 500,
) -> pa.Table:
    """Generate the pages table.  Row count exceeds ``n_docs`` slightly because
    dup urls add extra (older) versions."""
    rng = np.random.default_rng(seed)
    vocab = _vocab()
    ranks = np.arange(1, VOCAB_SIZE + 1, dtype=np.float64)
    probs = 1.0 / ranks**ZIPF_S
    probs /= probs.sum()

    lens = rng.integers(min_len, max_len + 1, size=n_docs)
    total = int(lens.sum())
    draws = rng.choice(VOCAB_SIZE, size=total, p=probs)
    flat = vocab[draws]
    offsets = np.concatenate([[0], np.cumsum(lens)]).astype(np.int32)
    flat_arr = pa.array(flat, type=pa.string())
    if isinstance(flat_arr, pa.ChunkedArray):
        # large inputs come back chunked; ListArray.from_arrays needs one
        flat_arr = flat_arr.combine_chunks()
    list_arr = pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()), flat_arr)
    import pyarrow.compute as pc

    texts = pc.binary_join(list_arr, " ").to_pylist()

    urls = [f"https://site-{i % 1000:04d}.example/p/{i}" for i in range(n_docs)]
    ts = [EPOCH_US + i * 1_000_000 for i in range(n_docs)]

    # --- planted structure (deterministic doc slots) ---
    n_first = min(20, n_docs // 20)
    for i in range(n_first):
        slot = 7 + i * 13
        if slot >= n_docs:
            break
        texts[slot] = f"Firstword{i} " + texts[slot]
    n_last = min(20, n_docs // 20)
    for i in range(n_last):
        slot = 11 + i * 17
        if slot >= n_docs:
            break
        texts[slot] = texts[slot] + f" lastword{i}"
    # pagehit/pagemiss group: 11 consecutive docs starting at slot 31
    if n_docs >= 60:
        for j in range(10):
            texts[31 + j] = texts[31 + j] + " pagehit"
        texts[41] = texts[41] + " pagemiss"
    # scorecheck cluster with controlled tf (1..20) at slots 60..79
    n_score = min(20, max(0, n_docs - 60) // 3)
    for i in range(n_score):
        slot = 60 + i * 3
        texts[slot] = " ".join(["scorecheck"] * (i + 1)) + " " + texts[slot]
    # stopword-only and empty docs
    if n_docs > 100:
        texts[97] = "the and of to a"
        texts[98] = ""

    # --- dup/upsert set: 1% of urls appear again with older ts + oldmarker ---
    n_dup = max(2, n_docs // 100)
    dup_urls, dup_ts, dup_texts = [], [], []
    for i in range(n_dup):
        slot = (i * 37) % n_docs
        texts[slot] = texts[slot] + f" dupmarker{i}"
        n_old = 1 + (i % 2)  # 2-3 total versions
        for v in range(n_old):
            dup_urls.append(urls[slot])
            dup_ts.append(ts[slot] - (v + 1) * 500_000)  # strictly older
            dup_texts.append(f"oldmarker{i} old version {v} content here")

    all_urls = urls + dup_urls
    all_ts = ts + dup_ts
    all_texts = texts + dup_texts
    n_all = len(all_urls)

    langs = ["en" if i % 20 < 18 else ("de" if i % 20 == 18 else "fr") for i in range(n_all)]
    htmls = [b"<html><body><p>" + t.encode() + b"</p></body></html>" for t in all_texts]

    cols = {
        "url": pa.array(all_urls, type=pa.string()),
        "warc_ts": pa.array(all_ts, type=pa.timestamp("us")),
        "html": pa.array(htmls, type=pa.binary()),
        "text": pa.array(all_texts, type=pa.string()),
        "lang": pa.array(langs, type=pa.string()),
    }
    if with_collections:
        # collection is a function of url (not row position) so dup versions of
        # a url share a primary key (collection, url) — upsert semantics hold.
        from lucene_plugin_ray.functions.hashing import fnv1a_str

        def _coll(u: str) -> str:
            h = fnv1a_str(u) % 8
            return "default" if h < 6 else ("foo" if h == 6 else "bar")

        cols["collection"] = pa.array([_coll(u) for u in all_urls], type=pa.string())
    if with_fields:
        cols["foo"] = pa.array(
            ["lamb little" if i % 5 == 0 else f"v{i % 7}" for i in range(n_all)], type=pa.string()
        )
        cols["age"] = pa.array([str(20 + (i % 10)) for i in range(n_all)], type=pa.string())
        cols["count"] = pa.array([str(30 + (i % 3)) for i in range(n_all)], type=pa.string())
    # shuffle row order deterministically: engine must be order-independent
    perm = rng.permutation(n_all)
    table = pa.table(cols)
    return table.take(pa.array(perm))


def make_delete_set(pages: pa.Table, every: int = 50) -> pa.Table:
    """Delete set (FIXTURES.md §4): every ``every``-th distinct url."""
    urls = sorted(set(pages["url"].to_pylist()))
    chosen = urls[::every]
    coll = ["default"] * len(chosen)
    if "collection" in pages.column_names:
        m = dict(zip(pages["url"].to_pylist(), pages["collection"].to_pylist()))
        coll = [m[u] for u in chosen]
    return pa.table({"collection": pa.array(coll), "url": pa.array(chosen)})


def write_pages(table: pa.Table, out_dir: str, n_files: int = 4) -> list[str]:
    """Write the corpus as multiple parquet files (multiple read blocks)."""
    os.makedirs(out_dir, exist_ok=True)
    n = table.num_rows
    paths = []
    per = (n + n_files - 1) // n_files
    for f in range(n_files):
        chunk = table.slice(f * per, per)
        if chunk.num_rows == 0:
            break
        p = os.path.join(out_dir, f"pages-{f:03d}.parquet")
        pq.write_table(chunk, p)
        paths.append(p)
    return paths


def make_query_set(n_docs: int = 1000) -> list[dict]:
    """The reference query set (FIXTURES.md §5): ≥20 per kind where corpus
    size allows.  Returns [{qid, collection, query, k, kind}, ...]."""
    queries: list[dict] = []
    qid = 0

    def add(query: str, kind: str, k: int = 10, collection: str = "default"):
        nonlocal qid
        queries.append(
            {"qid": qid, "collection": collection, "query": query, "k": k, "kind": kind}
        )
        qid += 1

    for i in range(20):
        add(f"Firstword{i}", "term")        # capitalized → exercises analysis
        add(f"lastword{i}", "term")
        add(f"dupmarker{i % 10}", "term")
        add(f"oldmarker{i % 10}", "term")   # must be 0 hits after upsert
        add(f"w{(i * 211) % 2000:05d}", "term")
    add("pagehit", "term", k=255)
    add("pagemiss", "term")
    add("scorecheck", "term", k=25)
    for i in range(20):
        add(f"lang:en", "field_term") if i == 0 else add(f"w{i:05d} w{i+40:05d}", "or")
        add(f"+w{(i*7) % 100:05d} +w{(i*11) % 1000:05d}", "and")
        add(f"w{(i*3) % 50:05d} AND w{(i*5) % 500:05d}", "and")
        add(f"w{(i*13) % 300:05d} w{(i*17) % 3000:05d} w{(i*19) % 30000:05d}", "or")
    add("the", "stopword")
    add("a", "stopword")
    add("the a of", "stopword")
    for i in range(20):
        add(f"zz{i}notaword", "miss")
    return queries
