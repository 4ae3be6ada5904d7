"""Index configuration (SURVEY.md §2.11 "Config knobs").

The reference's knobs (soft-commit docs/age, merge fan-in, cache sizes;
/root/reference/service/src/main/java/com/caucho/lucene/LuceneIndexBean.java:94-98,
639-657) map onto batch-engine knobs: partition count, posting block size,
merge fan-in, actor-pool sizes, result cap.
"""

from __future__ import annotations

from dataclasses import dataclass, field


# Effective result cap: the reference reader hardcodes 255 and ignores the
# facade's limit (LuceneReaderImpl.java:104).  We replicate it as the default.
DEFAULT_RESULT_LIMIT = 255

# Posting-list block size (docids per block) for delta+varint encoding with
# per-block max-docid/max-tf metadata (block-max WAND, SURVEY.md §2.9/J2).
DEFAULT_BLOCK_SIZE = 128

# Merge fan-in mirrors TieredMergePolicy maxMergeAtOnce=10
# (LuceneIndexBean.java:97,683).
DEFAULT_MERGE_FANIN = 10


@dataclass
class IndexConfig:
    """All build/query knobs in one place.

    ``num_partitions`` is the document-partition count P.  It is a property of
    the INDEX, not of the cluster: docids, segment layout and score tiebreaks
    are pure functions of (corpus, P), so the same build at 8 or 32 CPUs (or on
    N vs 4N nodes) produces byte-identical segments.  Size P so one partition's
    postings fit a worker's heap (at 100 TB choose P in the tens of thousands;
    tests use 4-8).
    """

    index_root: str = "/tmp/lucene_plugin_ray_index"
    num_partitions: int = 8
    block_size: int = DEFAULT_BLOCK_SIZE
    merge_fanin: int = DEFAULT_MERGE_FANIN
    result_limit: int = DEFAULT_RESULT_LIMIT

    # BM25 parameters (BASELINE.json: k1=1.2 b=0.75 — authoritative).
    k1: float = 1.2
    b: float = 0.75

    # Index token positions (positions.bin region) — required for phrase
    # queries.  On by default, mirroring Lucene TextField's
    # DOCS_AND_FREQS_AND_POSITIONS (LuceneContentHandler.java:21-26); costs
    # ~1 varint per token occurrence at rest and nothing at query time for
    # non-phrase queries (separate region, never decoded).
    index_positions: bool = True

    # Forward term-vector sidecar (tv.parquet per segment): docid →
    # (dictionary rows, tfs, positions).  Lucene's
    # FieldType.setStoreTermVectors analogue (the reference never enables
    # it — LuceneContentHandler.java:21-26 stores postings only), so OFF by
    # default; when on, term_vector / more_like_this_url / classify_knn
    # read the doc-major sidecar instead of bulk-decoding the doc's whole
    # segment field region (the 100-TB aux-read hazard: a segment's text
    # postings are GBs, the sidecar row is one doc).  The reconstruction
    # path stays the oracle — outputs are pinned identical by
    # tests/test_term_vector.py.
    store_term_vectors: bool = False

    # Columns of the input table (input_hint shape).  ``text_column`` is the
    # default search field ("text", mirroring the reference's default field,
    # LuceneContentHandler.java:13).  ``field_columns`` are extra analyzed
    # fields (indexMap semantics, LuceneIndexBean.java:338-341).
    url_column: str = "url"
    ts_column: str = "warc_ts"
    text_column: str = "text"
    collection_column: str = "collection"  # absent → constant "default"
    field_columns: tuple[str, ...] = ()

    # Actor-pool sizing defaults (callers pass these to map_batches
    # ``concurrency=``; build tasks are sized by Ray's scheduler).
    query_concurrency: int = 4             # QueryExecutor pool default
    tokenize_batch_size: int = 2048

    # search(method='auto') routes unboosted pure-SHOULD BM25 term
    # disjunctions whose max global df is at least this to the vectorized
    # block-max path ('bmax').  Result-identical either way (bmax == taat
    # is test-pinned); the knob only moves the speed crossover.  DEFAULT IS
    # EFFECTIVELY OFF: measured on the flat synthetic corpus (uniform doc
    # lengths/tfs) the dl→0 block bounds never beat the k-th score, so
    # nothing prunes and bmax pays per-interval bookkeeping for taat's
    # work — head-term OR p50 9.8 ms (taat) vs 378 ms (bmax) at 200k docs,
    # 0.1 s vs 1.5 s at 1.2M (BENCH_r04 query_or_head_* rows;
    # _score_segment_bmax docstring).  Lower this only for heavy-tailed
    # serving corpora where k ≪ matches and score mass is skewed — the
    # regime where block-max WAND actually prunes.
    bmax_auto_df_threshold: int = 1 << 62

    # Query-side results cache (≙ reference T4 LRU, LuceneIndexBean.java:792)
    results_cache_size: int = 512

    def fields(self) -> tuple[str, ...]:
        """All analyzed field names, default field first."""
        return (self.text_column, *self.field_columns)
