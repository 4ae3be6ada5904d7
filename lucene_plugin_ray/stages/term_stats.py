"""A2 — global term statistics via a SALTED term-keyed aggregate.

The build pipeline itself never shuffles by term (posting construction is
partition-local, stages/segment_write.py), but global corpus statistics
(df, total tf per term — Zipf-skewed keys) are a genuine term-keyed
aggregate.  The skew treatment is the north rule's salted repartitioning
(SURVEY.md §7.3, cf. FP-Hadoop VLDB'15 in PAPERS.md):

1. per-batch PARTIAL aggregation inside map_batches (one row per distinct
   term per batch — the combiner; head terms shrink from millions of rows to
   #batches rows before any shuffle);
2. one vectorized keyed fold (functions/fold.py) on (field, term) — the
   reducer unit is a HASH BUCKET of keys, so a head term costs its bucket
   one vectorized group and the former explicit salt level is redundant
   (the combiner remains the skew treatment).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from lucene_plugin_ray.config import IndexConfig
from lucene_plugin_ray.functions.analysis import (
    term_frequencies,
    tokenize_column,
    tokenize_column_hashed,
)


def _vocab_stats_hashed(ht) -> tuple[pa.StringArray, np.ndarray, np.ndarray]:
    """(vocab terms, df, total_tf) from hashed tokens — string
    materialization only at VOCAB level (per distinct term per batch), every
    per-token pass numeric."""
    h, par = ht.hashes, ht.parents
    order = np.lexsort((par, h))
    h_s, p_s = h[order], par[order]
    new_pair = (h_s[1:] != h_s[:-1]) | (p_s[1:] != p_s[:-1])
    pair_start = np.flatnonzero(np.concatenate(([True], new_pair)))
    pair_h = h_s[pair_start]
    new_h = np.concatenate(([True], pair_h[1:] != pair_h[:-1]))
    h_start = np.flatnonzero(new_h)
    df = np.diff(np.concatenate([h_start, [pair_h.size]]))          # docs/term
    tok_h_start = pair_start[h_start]
    total_tf = np.diff(np.concatenate([tok_h_start, [h_s.size]]))   # tokens/term
    uniq_idx = order[tok_h_start]
    return ht.token_strings(uniq_idx), df.astype(np.int64), total_tf.astype(np.int64)


class _PartialTermStats:
    """map_batches combiner: batch → (field, term, df, total_tf)."""

    def __init__(self, cfg: IndexConfig):
        self.cfg = cfg

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        parts = []
        for field in cfg.fields():
            if field not in batch.column_names:
                continue
            col = pc.cast(batch[field].combine_chunks(), pa.string())
            ht = tokenize_column_hashed(col)
            if ht is not None:
                # ASCII fast path: numeric (hash, parent) grouping, vocab-
                # level strings only (same trick as the segment build)
                if len(ht.hashes) == 0:
                    continue
                term_arr, v_df, v_tf = _vocab_stats_hashed(ht)
                df_arr = pa.array(v_df, type=pa.int64())
                tf_arr = pa.array(v_tf, type=pa.int64())
            else:
                parents, terms, _ = tokenize_column(col)
                if len(parents) == 0:
                    continue
                rows, t_terms, tfs = term_frequencies(parents, terms)
                t = pa.table({"term": t_terms, "tf": pa.array(tfs, type=pa.int64())})
                agg = t.group_by(["term"]).aggregate([("tf", "sum"), ([], "count_all")])
                term_arr = agg["term"].combine_chunks()
                df_arr = pc.cast(agg["count_all"], pa.int64())
                tf_arr = pc.cast(agg["tf_sum"], pa.int64())
            n = len(term_arr)
            parts.append(
                pa.table(
                    {
                        "field": pa.array([field] * n, type=pa.string()),
                        "term": term_arr,
                        "df": df_arr,
                        "total_tf": tf_arr,
                    }
                )
            )
        if not parts:
            return pa.table(
                {
                    "field": pa.array([], type=pa.string()),
                    "term": pa.array([], type=pa.string()),
                    "df": pa.array([], type=pa.int64()),
                    "total_tf": pa.array([], type=pa.int64()),
                }
            )
        return pa.concat_tables(parts)


def term_stats(
    ds: "ray.data.Dataset", cfg: IndexConfig
) -> "ray.data.Dataset":
    """Corpus-global (field, term) → (df, total_tf) via per-batch
    combiner + one vectorized keyed fold; result is small
    (vocabulary-sized) and term-sorted."""
    from lucene_plugin_ray.functions.fold import _estimate_rows, keyed_fold

    src_rows = _estimate_rows(ds)
    partials = ds.map_batches(
        _PartialTermStats(cfg),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=cfg.tokenize_batch_size,
    )
    # Round 4: the two-level salted Ray Aggregate became ONE vectorized
    # keyed fold (functions/fold.py) — the reducer unit is a hash BUCKET,
    # not a key, so a head term's partials (≤ one row per batch, thanks to
    # the combiner above — still the skew treatment) cost its bucket one
    # vectorized group and the explicit salt level is no longer needed.
    # The salt column still rides along for lineage/debug of the combiner.
    # Fold input is ROW-EXPANDED vs the doc source: each doc contributes
    # ~one partial row per distinct (field, term) it holds — estimate 64
    # per doc (order-of-magnitude is all auto_buckets needs).
    folded = keyed_fold(
        partials,
        ["field", "term"],
        [("df", "sum", "df"), ("total_tf", "sum", "total_tf")],
        est_rows=(src_rows * 64 if src_rows else None),
    )
    return folded.sort(["field", "term"])
