"""Vectorized keyed aggregation — the engine's replacement for
``Dataset.groupby(keys).aggregate(Sum/Min/Max/Count...)`` at large group
counts.

Ray Data's built-in Aggregate evaluates its accumulators per GROUP with
Python-level overhead: measured on this host (32 cpus, Ray 2.49), a plain
``groupby("orderkey").aggregate(Max, Sum)`` over 300k rows / 130k groups
costs **15 s**, while the same fold expressed as a hash-bucket exchange +
per-bucket ``pyarrow.Table.group_by`` costs **0.3 s** (50×).  The shape:

1. ``map_batches``: append ``__bucket = mix64(fnv1a(keys)) % B`` (vectorized
   per key column, xor-combined across columns);
2. ``groupby("__bucket").map_groups``: B Python calls TOTAL (not per key
   group), each one vectorized Arrow ``group_by`` over ~rows/B rows.

Scale notes: the exchange is the same all-to-all a groupby costs; B bounds
reducer fan-in (raise it with cluster size; each bucket's rows must fit a
worker).  Key skew: a head key's rows all land in ONE bucket, so map-side
partial aggregation before the fold remains the skew treatment exactly as
before — after a combiner, a head key contributes ≤ one row per input
batch and its bucket stays uniform.  Output row order is whatever the
buckets emit — callers sort, as they already did after Ray's Aggregate.
Deterministic CONTENT requires order-independent aggregates: integer sums /
min / max / count (the repo's integer-units convention exists for this);
float sums would pick up association noise and must keep quantized inputs.
"""

from __future__ import annotations

import logging
import math
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from lucene_plugin_ray.functions.hashing import fnv1a_bytes_column, mix64_np

logger = logging.getLogger(__name__)

# Reducer fan-out for the bucket exchange.  SIZE IT TO THE DATA, not the
# cluster: each bucket's post-combiner rows must fit one worker's heap, so
# B ≳ fold_input_rows / target_rows_per_bucket.  The floor of 64 suits the
# sandbox corpora; beyond ~64 M fold-input rows the count is derived from
# the caller's ``est_rows`` hint (or the Dataset's metadata row count when
# one survives the upstream transforms) so a 10^12-row deployment gets B in
# the hundreds of thousands automatically.  ``LPR_FOLD_BUCKETS`` remains an
# absolute per-deployment override; ``num_buckets=`` a per-call one.
_MIN_BUCKETS = 64
# Post-combiner rows a single reducer bucket may hold: one bucket's Arrow
# group_by must fit a worker heap.  1 M rows × ~100 B/row keys ≈ 100 MB per
# bucket — comfortable against a multi-GB worker heap even with the
# group_by's own working set.  ``LPR_FOLD_TARGET_ROWS`` overrides it per
# deployment.
_TARGET_ROWS_PER_BUCKET = 1_000_000
# Backstop against absurd hints; at 2^20 buckets the exchange metadata
# itself (not the data) starts to dominate and the deployment should raise
# LPR_FOLD_TARGET_ROWS instead.
_MAX_BUCKETS = 1 << 20


def _estimate_rows(ds) -> "int | None":
    """Row-count estimate from plan metadata only — never triggers
    execution.  ``_meta_count`` survives only trivial plans, so as a
    fallback this walks the logical DAG to the leaf ops (Read /
    InputData), whose ``infer_metadata().num_rows`` Ray keeps from the
    parquet footers — a SOURCE-row estimate that per-row transforms
    (filters, per-doc maps) keep order-of-magnitude right.  Row-EXPANDING
    folds (ngram explosion) should pass ``est_rows`` with their own
    multiplier; underestimation only costs reducer fan-out, never
    correctness."""
    try:
        n = ds._meta_count()
        if n is not None:
            return n
    except Exception:
        pass
    try:
        total = 0
        seen_any = False
        stack = [ds._plan._logical_plan.dag]
        while stack:
            op = stack.pop()
            deps = list(op.input_dependencies)
            if deps:
                stack.extend(deps)
                continue
            meta = op.infer_metadata()
            if meta.num_rows is None:
                return None  # one unknown leaf poisons the estimate
            total += meta.num_rows
            seen_any = True
        return total if seen_any else None
    except Exception as e:
        # the walk reads Ray-private plan internals: say so when a Ray
        # upgrade breaks it, instead of silently folding at the floor
        logger.warning(
            "fold: row estimate unavailable (%s from Ray plan metadata); "
            "reducer fan-out falls back to est_rows or %d buckets",
            type(e).__name__, _MIN_BUCKETS,
        )
        return None


def _env_count(name: str) -> "int | None":
    """The integer >= 1 in environment variable ``name``, read at call
    time; None when unset or empty.  Anything else raises ``ValueError``
    naming the variable."""
    env = os.environ.get(name)
    if not env:
        return None
    try:
        v = int(env)
    except ValueError:
        v = 0
    if v < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {env!r}")
    return v


def auto_buckets(est_rows: "int | None") -> int:
    """Reducer fan-out for a fold over ``est_rows`` input rows.

    Precedence: the ``LPR_FOLD_BUCKETS`` env var (deployment override)
    wins; otherwise ``ceil(est_rows / target)`` clamped to [64, 2^20],
    where target is ``LPR_FOLD_TARGET_ROWS`` or 1 M rows per bucket; with
    no estimate at all, the floor (64).  Both variables are read on every
    call and must be integers >= 1 — anything else raises ``ValueError``.
    Estimates only need order-of-magnitude accuracy — B is a heap bound,
    not a semantic knob (bucket-count invariance is pinned by test)."""
    b = _env_count("LPR_FOLD_BUCKETS")
    if b is not None:
        return b
    target = _env_count("LPR_FOLD_TARGET_ROWS") or _TARGET_ROWS_PER_BUCKET
    if not est_rows or est_rows <= 0:
        return _MIN_BUCKETS
    b = math.ceil(est_rows / target)
    b = max(_MIN_BUCKETS, min(_MAX_BUCKETS, b))
    if b != _MIN_BUCKETS:
        logger.info(
            "fold: auto-sized %d reducer buckets for ~%d input rows", b, est_rows
        )
    return b


# (column, arrow_fn, alias) — arrow_fn is a pyarrow group_by aggregation
# name: "sum", "min", "max", "count", "count_all", "mean"
AggSpec = tuple


def _hash_key_columns(batch: pa.Table, keys: list[str]) -> np.ndarray:
    h = np.zeros(batch.num_rows, dtype=np.uint64)
    for k in keys:
        col = batch[k].combine_chunks()
        if pa.types.is_integer(col.type):
            if col.null_count:
                # bucket placement only needs determinism: null rows hash
                # like 0 here, while the per-bucket Arrow group_by still
                # groups on the ORIGINAL column, so null keeps its own
                # group (a null->NaN->uint64 cast would be C-undefined)
                col = pc.fill_null(col, 0)
            kh = mix64_np(col.to_numpy(zero_copy_only=False).astype(np.uint64))
        elif pa.types.is_string(col.type) or pa.types.is_large_string(col.type) \
                or pa.types.is_binary(col.type) or pa.types.is_large_binary(col.type):
            # string/binary hashed over raw bytes — no UTF-8 cast (sha
            # digests ride as raw binary in some ops)
            kh = mix64_np(fnv1a_bytes_column(col))
        else:
            kh = mix64_np(fnv1a_bytes_column(pc.cast(col, pa.string())))
        h = mix64_np(h ^ kh)
    return h


def bucketed_groups(
    ds,
    keys: "list[str] | str",
    fn,
    num_buckets: int | None = None,
    est_rows: int | None = None,
):
    """Hash-bucketed group processing: co-locate all rows of each key
    combination in one of ``num_buckets`` buckets and call ``fn`` once per
    BUCKET (a pyarrow Table holding many whole key groups), not once per
    key group — the companion to :func:`keyed_fold` for ops whose
    per-group logic doesn't fit a builtin aggregate (sessionization,
    rolling windows, per-key pair generation).  ``fn`` must handle multiple
    keys per call (sort by key first; a key's rows never split across
    buckets).  ``est_rows`` is the caller's fold-input row estimate used to
    auto-size the reducer fan-out (see :func:`auto_buckets`); when omitted,
    plan metadata is consulted, then the floor applies.  Same scale notes
    as keyed_fold."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    if num_buckets is None:
        num_buckets = auto_buckets(
            est_rows if est_rows is not None else _estimate_rows(ds)
        )

    def _bucket(batch: pa.Table) -> pa.Table:
        b = (
            (_hash_key_columns(batch, keys) % np.uint64(num_buckets))
            .astype(np.int64)
        )
        return batch.append_column("__bucket", pa.array(b, pa.int64()))

    def _call(group: pa.Table) -> pa.Table:
        return fn(group.drop_columns(["__bucket"]))

    return (
        ds.map_batches(_bucket, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__bucket")
        .map_groups(_call, batch_format="pyarrow")
    )


def keyed_fold(
    ds,
    keys: "list[str] | str",
    aggs: "list[AggSpec]",
    num_buckets: int | None = None,
    est_rows: int | None = None,
):
    """``ds.groupby(keys).aggregate(...)`` with vectorized reducers.

    ``aggs``: ``[(column, fn, alias), ...]`` with ``fn`` a pyarrow
    ``group_by`` aggregation name (``count_all`` passes column=None).
    Returns a Dataset of one row per distinct key combination with columns
    ``keys + aliases`` (unsorted — sort downstream if order matters).
    ``est_rows``: fold-input row estimate for reducer fan-out auto-sizing.
    """
    keys = [keys] if isinstance(keys, str) else list(keys)
    arrow_aggs = [
        (([] if fn == "count_all" else col), fn) for col, fn, _ in aggs
    ]
    out_names = [
        (f"{col}_{fn}" if fn != "count_all" else "count_all")
        for col, fn, _ in aggs
    ]
    aliases = [alias for _, _, alias in aggs]

    def _fold(group: pa.Table) -> pa.Table:
        agg = group.group_by(keys).aggregate(arrow_aggs)
        cols: dict[str, pa.Array] = {k: agg[k].combine_chunks() for k in keys}
        for name, alias in zip(out_names, aliases):
            cols[alias] = agg[name].combine_chunks()
        return pa.table(cols)

    return bucketed_groups(
        ds, keys, _fold, num_buckets=num_buckets, est_rows=est_rows
    )


def triangular_pairs(
    sizes: np.ndarray, starts: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """All within-group index pairs (i < j) for many groups at once:
    group g (size m_g, rows starting at starts[g]) contributes
    m_g·(m_g−1)/2 pairs; returns the two flat row-index arrays.  The
    triangular pair rank decodes arithmetically —
    i = ⌊(2m−1−√((2m−1)²−8k))/2⌋ — exact in float64 for m ≤ ~2^25, far
    above every caller's bucket cap (64).  Shared by dedup_minhash's LSH
    pair expansion and simhash_pairs' band buckets."""
    m = sizes.astype(np.int64)
    per = m * (m - 1) // 2
    total = int(per.sum())
    if total == 0:
        e = np.empty(0, np.int64)
        return e, e
    segp = np.repeat(np.arange(m.size), per)
    k = np.arange(total, dtype=np.int64) - np.repeat(np.cumsum(per) - per, per)
    mf = m[segp].astype(np.float64)
    i = np.floor((2 * mf - 1 - np.sqrt((2 * mf - 1) ** 2 - 8 * k)) / 2).astype(
        np.int64
    )
    j = k - i * (2 * m[segp] - i - 1) // 2 + i + 1
    b0 = starts.astype(np.int64)[segp]
    return b0 + i, b0 + j
