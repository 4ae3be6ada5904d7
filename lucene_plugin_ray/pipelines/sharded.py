"""Partition-sharded distributed query execution (SURVEY.md T2 at cluster
scale).

≙ the reference's SearcherManager lease per reader (LuceneReaderImpl.java:
90-98) generalized to a fixed-size cluster: no single query actor can hold a
100-TB index, so each shard pins an ASSIGNED subset of the index's document
partitions as a partition-restricted ``SearchEngine``, and the driver merges
what the shards return.  BM25 scores stay exactly corpus-global via a
two-phase plan (the classic distributed-search df-then-score protocol):

    PASS 1 = per shard, _shard_stats: local n_docs, sum_dl and term dfs
             → driver _reduce_stats sums them            (exact integers)
    PASS 2 = per shard, _shard_score: top-k per query (the driver's parsed
             clauses) with the INJECTED global statistics
             → (qid, url, score, docid)
    merge  = driver _rank_cut: (score desc, url asc) per qid, rank < k

:func:`sharded_search` runs both passes per call as Ray Data task pools
over plain functions (every shard row is processed once per pass, so
per-actor state gives no reuse; warm-path reuse comes from a
per-worker-process engine LRU).  :class:`ShardedSearcherService` runs them
on long-lived shard actors pinned to one generation, so PASS 1 is a
constant of the service: the first scored op sums every shard's whole
term→df table (``SearchEngine.local_df_table``) and collection statistics
once, the driver keeps the sums, and each later PASS 1 is a driver-side
lookup — one actor round trip per batch (Solr's ExactStatsCache).  Over
``DF_TABLE_MAX_BYTES`` the service gathers PASS 1 per call instead.

Every other read op of the service is one generic actor call: the driver
sends ``(op, kwargs)`` and the shard answers with
``getattr(engine, op)(**kwargs)`` unchanged, so argument validation, result
schemas and errors are the engine's own.  The driver then merges once per
result shape: hit tables concatenate and cut under their total order, and
counts fold by an exact per-key integer sum (shards are doc-disjoint).

The read ops that fan out once and merge once are DECLARED, not written: a
row of ``_DECLARED`` names the engine op, its merge (a plain function of the
shards' answers and the bound arguments, with its exactness argument beside
it) and the query arguments phase 1 scores, and ``_declared_ops`` generates
the method with the engine op's name, signature and docstring.  So the
fleet's signatures cannot drift from the engine's (a test compares every
fleet method's signature with the engine op's).  Ops that need more than
one fan-out or a driver-side protocol stay written by hand: ``search``
(``search_batch``'s score path for one query), ``top_terms`` (TPUT rounds), ``classify`` and ``classify_knn``,
``drill_sideways``, ``search_grouped`` (uncut groups), ``rescore`` (a
first-pass window), the joins and block joins (a from-side fold, then a
to-side cut), the ops that build their own clauses (surround, common
terms, spans, MoreLikeThis), ``search_batch`` and ``snippets``.

The shard merge is exact without tie closure: the (score desc, url asc)
comparator is a TOTAL order (url is the primary key within a collection), so
every document in the global top-k ranks within its own shard's top-k.

Memory per shard is 1/num_shards of the index (term dictionaries + doc
arrays of the assigned partitions; postings stay mmapped) — the property the
whole-index QueryExecutor lacks.  Shard count is an execution knob, not an
index property: any num_shards yields identical results (tested).  The
serving fleet starts at most one actor per cluster CPU, so on a cluster with
fewer CPUs than shards an actor pins the partitions of several shards and
holds correspondingly more of the index.
"""

from __future__ import annotations

import inspect
import logging
from collections import OrderedDict
from functools import partial
from typing import Callable, NamedTuple

import numpy as np
import pyarrow as pa

import ray
import ray.data

from lucene_plugin_ray.config import IndexConfig
from lucene_plugin_ray.functions.analysis import analyze, sanitize_collection
from lucene_plugin_ray.functions.hashing import partition_of_key
from lucene_plugin_ray.functions.queryparse import (
    QueryParseError,
    apply_fields,
    parse_query,
    scored_term_keys,
)
from lucene_plugin_ray.pipelines.query import (
    _JOIN_MODES,
    DF_TABLE_SCHEMA,
    RESULT_SCHEMA,
    SearchEngine,
    _diversify_hits,
    best_snippet_windows,
    build_dim_clauses,
    check_metadata_field,
    check_query_opts,
    common_terms_parse,
    common_terms_rewrite,
    drill_filter_query,
    exclude_source_url,
    facet_count_table,
    knn_vote_table,
    make_span_clause,
    mlt_select_clauses,
    naive_bayes_table,
    rank_completions_table,
    rank_grouped_table,
    rank_suggestions_table,
    rewrite_query,
    score_to_vote_units,
    sort_order_mixed,
    taxonomy_table,
)
from lucene_plugin_ray.state.manifest import load_manifest_chain

logger = logging.getLogger(__name__)

_STATS_SCHEMA = pa.schema(
    [
        ("kind", pa.string()),        # 'df' | 'n_docs' | 'sum_dl'
        ("collection", pa.string()),
        ("field", pa.string()),
        ("term", pa.string()),
        ("value", pa.int64()),
    ]
)

_HITS_SCHEMA = pa.schema(
    [
        ("qid", pa.int64()),
        ("url", pa.string()),
        ("score", pa.float64()),
        ("docid", pa.int64()),
    ]
)

_RANKED_SCHEMA = pa.schema(
    [
        ("qid", pa.int64()),
        ("rank", pa.int32()),
        ("url", pa.string()),
        ("score", pa.float64()),
        ("docid", pa.int64()),
    ]
)

_ALL = 2**31 - 1  # "no per-shard truncation": the driver ranks the union

# Bound on the fleet's df tables (SearchEngine.local_df_table), in IPC bytes
# summed over the actors, that ShardedSearcherService keeps on the driver.
# A key costs 20 IPC bytes plus its three strings (1.69 MB for the 45,660
# keys of the 5,000-doc benchmark index), and about twice that as the
# driver's Python strings and int64 dfs: 64 MiB is ~1.8M keys, ~130 MB of
# driver memory.  Over the bound the service gathers each phase 1's dfs
# from the fleet instead.
DF_TABLE_MAX_BYTES = 64 << 20


class _ShardEngineCache:
    """Per-process LRU of partition-restricted SearchEngines: a worker that
    serves several shards over time holds at most ``max_engines`` of them."""

    def __init__(self, index_root: str, generation: int, cfg: IndexConfig,
                 max_engines: int = 4):
        self.index_root = index_root
        self.generation = generation
        self.cfg = cfg
        self.max_engines = max_engines
        self._engines: OrderedDict[tuple[int, ...], SearchEngine] = OrderedDict()

    def get(self, partitions: tuple[int, ...]) -> SearchEngine:
        eng = self._engines.get(partitions)
        if eng is not None:
            self._engines.move_to_end(partitions)
            return eng
        eng = SearchEngine(
            self.index_root, generation=self.generation, cfg=self.cfg,
            partitions=set(partitions),
        )
        self._engines[partitions] = eng
        if len(self._engines) > self.max_engines:
            self._engines.popitem(last=False)
        return eng


# Per-WORKER-PROCESS engine cache: each shard row is processed exactly once
# per pass, so a per-actor cache never hits within a job — but Ray reuses
# idle worker processes across tasks AND across sharded_search calls, so a
# module-global LRU gives repeat queries warm mmapped engines without any
# actor pool.  Task-pool functions also sidestep Ray's 'constructor
# arguments in the object store + max_restarts' actor-restart hazard
# (github.com/ray-project/ray/issues/53727): a task killed mid-batch is
# simply retried on another worker.
_PROC_ENGINES: "OrderedDict[tuple[str, int, str], _ShardEngineCache]" = OrderedDict()
_PROC_ENGINES_MAX = 2


def _process_engine_cache(
    index_root: str, generation: int, cfg: IndexConfig
) -> _ShardEngineCache:
    # cfg is part of the key: a warm worker process must NOT serve a call
    # that passes a different IndexConfig (k1/b, field_columns, …) with
    # engines built under the previous one.  Dataclass repr is a stable
    # fingerprint of every knob.
    key = (index_root, int(generation), repr(cfg))
    c = _PROC_ENGINES.get(key)
    if c is None:
        c = _ShardEngineCache(index_root, generation, cfg)
        _PROC_ENGINES[key] = c
        if len(_PROC_ENGINES) > _PROC_ENGINES_MAX:
            _PROC_ENGINES.popitem(last=False)
    else:
        _PROC_ENGINES.move_to_end(key)
    return c


def _shard_stats(
    eng: SearchEngine, terms_by_coll: dict[str, list[tuple[str, str]]]
) -> pa.RecordBatch:
    """PASS 1 on one shard: its collections' n_docs and per-field sum_dl,
    and the local (alive-masked) df of every requested (field, term), as
    ``_STATS_SCHEMA`` rows."""
    rows = []
    for coll, st in eng.local_collection_stats().items():
        rows.append(("n_docs", coll, "", "", st["n_docs"]))
        rows.extend(("sum_dl", coll, f, "", s) for f, s in st["sum_dl"].items())
    for coll, keys in terms_by_coll.items():
        dfs = eng.local_term_dfs(coll, [tuple(k) for k in keys])
        rows.extend(("df", coll, f, t, df) for (f, t), df in dfs.items())
    cols = list(zip(*rows)) or [()] * len(_STATS_SCHEMA)
    return pa.RecordBatch.from_arrays(
        [pa.array(c, f.type) for c, f in zip(cols, _STATS_SCHEMA)],
        schema=_STATS_SCHEMA,
    )


def _reduce_stats(
    rows: "pa.Table | list[dict]",
) -> tuple[dict[str, dict], dict[str, dict[tuple[str, str], int]]]:
    """Sum the PASS-1 rows of every shard — a ``_STATS_SCHEMA`` table, or
    its rows as dicts — into (global_stats, global_df by collection):
    exact integer sums, order-independent."""
    if not isinstance(rows, pa.Table):
        rows = pa.Table.from_pylist(rows, schema=_STATS_SCHEMA)
    global_stats: dict[str, dict] = {}
    global_df: dict[str, dict[tuple[str, str], int]] = {}
    # to_numpy().tolist() builds the Python values ~20x faster than
    # to_pylist() on a string column
    cols = (c.to_numpy(zero_copy_only=False).tolist() for c in rows.columns)
    for kind, coll, f, term, v in zip(*cols):
        if kind == "df":
            d = global_df.setdefault(coll, {})
            d[(f, term)] = d.get((f, term), 0) + v
            continue
        st = global_stats.setdefault(coll, {"n_docs": 0, "sum_dl": {}})
        if kind == "n_docs":
            st["n_docs"] += v
        else:  # sum_dl
            st["sum_dl"][f] = st["sum_dl"].get(f, 0) + v
    return global_stats, global_df


def _df_index(
    tables: list[pa.Table],
) -> dict[str, dict[str, tuple[np.ndarray, np.ndarray]]]:
    """The fleet's df tables (``DF_TABLE_SCHEMA``) as {collection: {field:
    (ascending terms, int64 dfs)}}.  Actors are doc-disjoint, so a key's
    dfs add; one actor's table is already one row per key, in order."""
    t = pa.concat_tables(tables)
    if len(tables) > 1:
        keys = ["collection", "field", "term"]
        t = (
            t.group_by(keys).aggregate([("df", "sum")])
            .select([*keys, "df_sum"]).rename_columns([*keys, "df"])
            .sort_by([(k, "ascending") for k in keys])
        )
    if not t.num_rows:
        return {}
    coll, field, term = (
        t[c].to_numpy(zero_copy_only=False) for c in ("collection", "field", "term")
    )
    df = t["df"].to_numpy()
    cuts = np.flatnonzero((coll[1:] != coll[:-1]) | (field[1:] != field[:-1])) + 1
    out: dict[str, dict[str, tuple[np.ndarray, np.ndarray]]] = {}
    for a, b in zip([0, *cuts], [*cuts, len(term)]):
        out.setdefault(coll[a], {})[field[a]] = (term[a:b], df[a:b])
    return out


def _table_dfs(
    index: dict, terms_by_coll: dict[str, list[tuple[str, str]]]
) -> dict[str, dict[tuple[str, str], int]]:
    """Each requested (field, term)'s global df by collection, looked up in
    a :func:`_df_index` by one ``searchsorted`` per field: 0 for a term,
    field or collection the fleet does not hold — :func:`_reduce_stats`'
    ``global_df`` for the same keys."""
    none = (np.empty(0, object), np.empty(0, np.int64))
    out: dict[str, dict[tuple[str, str], int]] = {}
    for coll, keys in terms_by_coll.items():
        fields = index.get(coll, {})
        by_field: dict[str, list[str]] = {}
        for f, t in keys:
            by_field.setdefault(f, []).append(t)
        got = out[coll] = {}
        for f, ts in by_field.items():
            terms, df = fields.get(f, none)
            probe = np.array(ts, dtype=object)
            j = np.searchsorted(terms, probe)
            hit = j < terms.size
            hit[hit] = terms[j[hit]] == probe[hit]
            v = np.zeros(probe.size, dtype=np.int64)
            v[hit] = df[j[hit]]
            got.update(zip(((f, t) for t in ts), v.tolist()))
    return out


def _shard_score(
    eng: SearchEngine, qlist: list[dict], method: str, global_stats: dict,
    global_df_by_coll: dict,
) -> pa.RecordBatch:
    """PASS 2 on one shard: each query's top-``limit`` over the shard's
    partitions, scored with the INJECTED global statistics →
    (qid, url, score, docid)."""
    parts, qids = [RESULT_SCHEMA.empty_table()], [np.empty(0, np.int64)]
    for q in qlist:
        coll = q["collection"]
        res = eng.search_partial(
            q["query"], collection=coll, limit=q["limit"], method=method,
            global_stats=global_stats,
            global_df=global_df_by_coll.get(sanitize_collection(coll), {}),
            min_should_match=q.get("min_should_match", 0),
        )
        parts.append(res)
        qids.append(np.full(res.num_rows, q["qid"], dtype=np.int64))
    hits = pa.concat_tables(parts)
    return pa.RecordBatch.from_arrays(
        [pa.array(np.concatenate(qids))]
        + [hits[c].combine_chunks() for c in RESULT_SCHEMA.names],
        schema=_HITS_SCHEMA,
    )


def _rank_cut(hits: pa.Table, limits: dict[int, int]) -> pa.Table:
    """The exact driver merge of per-shard top-k hits: order each qid's rows
    by (score desc, url asc), number them from 0 and keep rank < the qid's
    limit → (qid, rank, url, score, docid)."""
    qid = hits["qid"].to_numpy()
    url = hits["url"].to_numpy(zero_copy_only=False)
    score = hits["score"].to_numpy()
    order = np.lexsort((url, -score, qid))
    qid_s = qid[order]
    first = np.ones(qid_s.size, dtype=bool)
    first[1:] = qid_s[1:] != qid_s[:-1]
    starts = np.flatnonzero(first)
    rank = np.arange(qid_s.size) - starts[np.cumsum(first) - 1]
    runs = np.diff(np.append(starts, qid_s.size))
    cap = np.repeat([limits[int(q)] for q in qid_s[starts]], runs)
    keep = rank < cap
    sel = order[keep]
    return pa.Table.from_arrays(
        [pa.array(qid[sel]), pa.array(rank[keep], pa.int32()),
         pa.array(url[sel], pa.string()), pa.array(score[sel]),
         pa.array(hits["docid"].to_numpy()[sel])],
        schema=_RANKED_SCHEMA,
    )


def _plan_batch(
    queries: pa.Table, cfg: IndexConfig, fields: dict[str, float] | None = None,
    tie_breaker: float = 0.0, min_should_match: int = 0,
) -> tuple[list[dict], dict[str, list[tuple[str, str]]]]:
    """Driver-side plan of a query batch (qid, query[, collection][, k]):
    the per-query scoring specs and, per collection, the sorted unique
    scored (field, term) keys the phase-1 gather needs.  A ``k`` below 1
    is rejected before any shard work."""
    qlist = []
    terms_by_coll: dict[str, set[tuple[str, str]]] = {}
    for q in queries.to_pylist():
        coll = q.get("collection") or "default"
        limit = int(q["k"]) if q.get("k") is not None else cfg.result_limit
        if limit < 1:
            raise ValueError("limit must be positive")
        clauses = parse_query(q["query"], default_field=cfg.text_column)
        if fields:
            clauses = apply_fields(
                tuple(clauses), fields, tie_breaker, cfg.text_column
            )
        qlist.append(
            {
                "qid": int(q["qid"]),
                "collection": coll,
                # the parsed (and dismax-rewritten) clauses travel
                # structured — search_partial accepts clause tuples — so
                # shards never parse a query again
                "query": tuple(clauses),
                "limit": limit,
                "min_should_match": min_should_match,
            }
        )
        terms_by_coll.setdefault(sanitize_collection(coll), set()).update(
            scored_term_keys(clauses)
        )
    return qlist, {c: sorted(v) for c, v in terms_by_coll.items()}


def _shard_stats_batch(batch: pa.Table, ctx: tuple) -> pa.Table:
    """PASS 1 task: :func:`_shard_stats` for the batch's shards."""
    index_root, generation, cfg, terms_by_coll = ctx
    cache = _process_engine_cache(index_root, generation, cfg)
    return pa.Table.from_batches(
        [_shard_stats(cache.get(tuple(p)), terms_by_coll)
         for p in batch["partitions"].to_pylist()],
        schema=_STATS_SCHEMA,
    )


def _shard_score_batch(
    batch: pa.Table, ctx: tuple, fault_path: str | None = None
) -> pa.Table:
    """PASS 2 task: :func:`_shard_score` for the batch's shards."""
    (index_root, generation, cfg, qlist, method, global_stats,
     global_df_by_coll) = ctx
    if fault_path is not None:
        # test-only fault injection: die mid-batch exactly once (the
        # sentinel file is consumed atomically), proving Ray retries the
        # task and results stay exact
        import os

        try:
            os.unlink(fault_path)
            os._exit(1)
        except FileNotFoundError:
            pass
    cache = _process_engine_cache(index_root, generation, cfg)
    return pa.Table.from_batches(
        [_shard_score(cache.get(tuple(p)), qlist, method, global_stats,
                      global_df_by_coll)
         for p in batch["partitions"].to_pylist()],
        schema=_HITS_SCHEMA,
    )


def shard_assignment(num_partitions: int, num_shards: int) -> list[dict]:
    """Round-robin partition→shard map.  Deterministic; any num_shards
    yields identical query results (it only changes the execution cut)."""
    return [
        {
            "shard": s,
            "partitions": [p for p in range(num_partitions) if p % num_shards == s],
        }
        for s in range(num_shards)
    ]


def sharded_search(
    index_root: str,
    queries: pa.Table,
    cfg: IndexConfig | None = None,
    generation: int | None = None,
    num_shards: int | None = None,
    method: str = "taat",
    concurrency: int | None = None,
    fields: dict[str, float] | None = None,
    tie_breaker: float = 0.0,
    min_should_match: int = 0,
    _fault_path: str | None = None,
) -> pa.Table:
    """Distributed batch search: ``queries`` (qid, query[, collection][, k])
    → (qid, rank, url, score), rank ordered by (score desc, url asc) per qid.

    Results are identical to a whole-index ``SearchEngine.search`` for every
    query (tested across shard counts, deltas and tombstones).  At 100 TB,
    keep per-query ``k`` bounded (the driver merge holds ≤ S·Q·k rows — with
    unbounded k it degrades to collecting every hit).

    ``fields``/``tie_breaker`` apply the dismax multi-field rewrite to every
    query in the batch (fleet-level config, like ``method``); the rewritten
    clause tuples travel structured to the shards (the MoreLikeThis
    pattern), and the phase-1 df gather covers every per-field leg — scores
    stay corpus-global-exact.  ``min_should_match`` applies
    BooleanQuery.setMinimumNumberShouldMatch to every query in the batch."""
    cfg = cfg or IndexConfig(index_root=index_root)
    check_query_opts(cfg, fields, tie_breaker, min_should_match)
    chain = load_manifest_chain(index_root, generation)
    gen = chain[-1].generation
    P = chain[-1].num_partitions
    num_shards = num_shards or min(P, 8)
    num_shards = max(1, min(num_shards, P))
    shards = shard_assignment(P, num_shards)
    concurrency = concurrency or min(num_shards, cfg.query_concurrency)
    qlist, terms = _plan_batch(queries, cfg, fields, tie_breaker, min_should_match)

    def run_pass(fn) -> list[dict]:
        # plain task-pool functions: the query context rides in the
        # (single, executor-held) transformer; a task killed mid-batch is
        # retried — no actor restart path to poison
        return (
            ray.data.from_items(shards)
            .map_batches(fn, batch_size=1, batch_format="pyarrow",
                         concurrency=concurrency)
            .take_all()
        )

    global_stats, global_df_by_coll = _reduce_stats(
        run_pass(partial(_shard_stats_batch, ctx=(index_root, gen, cfg, terms)))
    )
    hits = run_pass(
        partial(
            _shard_score_batch,
            ctx=(index_root, gen, cfg, qlist, method, global_stats,
                 global_df_by_coll),
            fault_path=_fault_path,
        )
    )
    return _rank_cut(
        pa.Table.from_pylist(hits, schema=_HITS_SCHEMA),
        {q["qid"]: q["limit"] for q in qlist},
    ).select(["qid", "rank", "url", "score"])


def _gather(refs: list) -> list:
    """``ray.get`` over shard calls.  When a call fails, every call is
    still collected (so no failure is logged as unhandled), and the first
    failure in shard order is raised as the engine raised it — its class
    and message, not a RayTaskError."""
    try:
        return ray.get(refs)
    except ray.exceptions.RayTaskError:
        pass
    errors = []
    for ref in refs:
        try:
            ray.get(ref)
        except ray.exceptions.RayTaskError as e:
            errors.append(e)
    if errors[0].cause is None:
        raise errors[0]
    raise errors[0].cause from None


def _read_batches(bufs: list, schema: pa.Schema) -> pa.Table:
    """The shards' IPC-encoded record batches (``_ShardActor.score``,
    ``stats_and_dfs`` and ``SearchEngine.local_df_table``) as one table."""
    return pa.Table.from_batches(
        [pa.ipc.read_record_batch(b, schema) for b in bufs], schema=schema
    )


def _cut(
    hits: pa.Table, limit: int, key: str = "score", descending: bool = True
) -> pa.Table:
    """The first ``limit`` rows of ``hits`` under (``key`` desc|asc,
    url asc) — the total order every per-shard top-``limit`` was cut under,
    so the cut of the union is the global answer."""
    k = hits[key].to_numpy()
    order = np.lexsort(
        (hits["url"].to_numpy(zero_copy_only=False), -k if descending else k)
    )
    return hits.take(order[:limit])


def _sum_by_key(parts, key: str | None = None, value: str | None = None) -> dict:
    """Per-key sum of the shards' integer partials — exact in any order,
    since shards are doc-disjoint.  A part is a dict, or a table read as
    (``key``, ``value``) column pairs; a value may be a numpy vector."""
    acc: dict = {}
    for p in parts:
        items = (p.items() if key is None
                 else zip(p[key].to_pylist(), p[value].to_pylist()))
        for k, v in items:
            acc[k] = acc[k] + v if k in acc else v
    return acc


def _fold_join(parts: list[dict]) -> dict[str, list]:
    """Fold the shards' join aggregates {value: [count, sum, max, min]}:
    count and sum add, max/min fold.  Actor order is fixed, so the float
    sums are deterministic (count/max/min are order-free)."""
    agg: dict[str, list] = {}
    for p in parts:
        for v, (c, s_, mx, mn) in p.items():
            a = agg.get(v)
            if a is None:
                agg[v] = [c, s_, mx, mn]
            else:
                agg[v] = [a[0] + c, a[1] + s_, max(a[2], mx), min(a[3], mn)]
    return agg


# ---- the declared read ops ---------------------------------------------------
# Each op below runs the engine op of the same name on every shard (or on the
# one shard that owns a url) and merges the answers once: the operator runs
# below the union of shards, one merge above it.  A merge is a plain function
# of the shards' answers and the call's bound arguments; its exactness
# argument is its docstring.


def _total(parts: list, a: dict) -> int:
    """Match counts add: the shards are doc-disjoint."""
    return sum(parts)


def _facet_counts(parts: list, a: dict) -> pa.Table:
    """Per-value counts add (an integer keyed sum over doc-disjoint
    shards), then the engine's (count desc, value asc) rank."""
    return facet_count_table(_sum_by_key(parts, "value", "count"))


def _taxonomy(parts: list, a: dict) -> pa.Table:
    """Per-path counts add, then the engine's formatter: ``top_n`` prunes
    the merged exact counts, never a shard's."""
    return taxonomy_table(_sum_by_key(parts), a["top_n"])


def _facet_stats(parts: list, a: dict) -> pa.Table:
    """Per value, count and sum add and min and max fold — all integers,
    so exact in any order."""
    g = pa.concat_tables(parts).group_by("value").aggregate(
        [("count", "sum"), ("vmin", "min"), ("vmax", "max"), ("vsum", "sum")]
    )
    return (
        g.select(["value", "count_sum", "vmin_min", "vmax_max", "vsum_sum"])
        .rename_columns(parts[0].column_names)
        .sort_by("value")
    )


def _range_counts(parts: list, a: dict) -> pa.Table:
    """Per-label counts add (labels are unique, so range order is kept)."""
    counts = _sum_by_key(parts, "label", "count")
    return pa.table(
        {"label": pa.array(list(counts), pa.string()),
         "count": pa.array(list(counts.values()), pa.int64())}
    )


def _suggestions(parts: list, a: dict) -> pa.Table:
    """Every shard's uncut candidates, df summed per term, then the
    engine's (distance, df desc, term) rank cut at ``k``: a term's global
    df rank can exceed its rank on any one shard, and the edit-distance
    ball keeps the candidate set small."""
    dists = {t: d for p in parts
             for t, d in zip(p["term"].to_pylist(), p["distance"].to_pylist())}
    return rank_suggestions_table(_sum_by_key(parts, "term", "df"), dists, a["k"])


def _completions(parts: list, a: dict) -> pa.Table:
    """Every shard's uncut (term, df) candidates, df summed, then the
    engine's (df desc, term asc) rank cut at ``k`` — the suggest merge
    over a prefix range or a substring scan."""
    return rank_completions_table(_sum_by_key(parts, "term", "df"), a["k"])


def _top_scored(parts: list, a: dict) -> pa.Table:
    """The shards' top-``limit`` under (score desc, url asc), cut once
    more over the union: a total order, so every global top-``limit`` doc
    is in its shard's top-``limit``.  A per-doc score function (recency,
    expression, demotion), a row predicate (filter, expression range) or
    a search-after anchor composes with that order."""
    return _cut(pa.concat_tables(parts), a["limit"])


def _top_sorted(parts: list, a: dict) -> pa.Table:
    """The shards' top-``limit`` under (warc_ts desc|asc, url asc), cut
    once more over the union — exact for the BM25 merge's reason, and
    with an anchor too (the anchor predicate composes with the order)."""
    return _cut(pa.concat_tables(parts), a["limit"], "warc_ts", a["descending"])


def _top_sorted_by(parts: list, a: dict) -> pa.Table:
    """The shards' top-``limit`` under the composite (keys…, url) total
    order, merged by the engine's mixed-key kernel (string keys are
    re-ranked over the union, so shard-local truncation merges exactly)."""
    t = pa.concat_tables(parts)
    fields = [tuple(p) for p in a["sort"]]
    order = sort_order_mixed(
        t["url"].to_numpy(zero_copy_only=False),
        [t[f].to_numpy(zero_copy_only=False) for f, _ in fields], fields,
    )
    return t.take(order[: a["limit"]])


def _diversified(parts: list, a: dict) -> pa.Table:
    """The shards' diversified top-``limit``, then one more
    cap-then-truncate pass over the union — exact because greedy
    selection under the total order is idempotent under recapping (see
    ``_diversify_hits``)."""
    return _diversify_hits(pa.concat_tables(parts), a["max_per_key"], a["limit"])


def _answer(answer, a: dict):
    """The owning shard's answer as it is: a live url lives on exactly one
    shard."""
    return answer


class _Op(NamedTuple):
    """One declared read op of the fleet."""

    merge: Callable
    # the query arguments phase 1 scores: their global statistics are
    # injected into the shards' op
    scores: tuple[str, ...] = ()
    # the service method that fans out: ``_fan`` (every shard) or ``_lookup``
    # (the shard owning ``url``)
    fan: str = "_fan"
    # the engine op the shards run, when it is not the op itself
    shard_op: str | None = None
    # an argument the merge cuts at: the driver checks it is positive and
    # the shards answer uncut
    uncut: str | None = None


_DECLARED = {
    "count": _Op(_total),
    "facets": _Op(_facet_counts),
    "facets_taxonomy": _Op(_taxonomy, shard_op="facets_taxonomy_counts"),
    "facets_stats": _Op(_facet_stats),
    "facet_ranges": _Op(_range_counts),
    "suggest": _Op(_suggestions, uncut="k"),
    "complete": _Op(_completions, uncut="k"),
    "complete_infix": _Op(_completions, uncut="k"),
    "search_sorted": _Op(_top_sorted),
    "search_sorted_by": _Op(_top_sorted_by),
    "search_diversified": _Op(_diversified, ("query",)),
    "search_after": _Op(_top_scored, ("query",)),
    "search_function": _Op(_top_scored, ("query",)),
    # the negative query is a mask, never a statistics contributor
    "search_boosting": _Op(_top_scored, ("positive_query",)),
    "search_expression": _Op(_top_scored, ("query",)),
    "search_expression_range": _Op(_top_scored, ("query",)),
    # the filter never touches statistics
    "search_filtered": _Op(_top_scored, ("query",)),
    "term_vector": _Op(_answer, fan="_lookup"),
    "explain": _Op(_answer, ("query",), fan="_lookup"),
}

def _declared_op(name: str, op: _Op):
    """The fleet method of ``SearchEngine.<name>``: its name, docstring
    and signature, less the parameters the fleet sets itself (the
    injected statistics and any ``_``-prefixed one).  It binds the call's
    arguments (a ``limit`` of None becomes the configured result limit),
    runs phase 1 over the declared query arguments with the call's
    synonym and dismax rewrite, fans out and applies the merge."""
    engine_fn = getattr(SearchEngine, name)
    sig = inspect.signature(engine_fn)
    sig = sig.replace(parameters=[
        p for p in sig.parameters.values()
        if p.name not in ("global_stats", "global_df", "global_ttf")
        and not p.name.startswith("_")
    ])
    shard_op = op.shard_op or name
    accepts = set(inspect.signature(getattr(SearchEngine, shard_op)).parameters)

    def method(self, *args, **kwargs):
        bound = sig.bind(self, *args, **kwargs)
        bound.apply_defaults()
        a = {k: v for k, v in bound.arguments.items() if k != "self"}
        if "limit" in a and a["limit"] is None:
            a["limit"] = self.cfg.result_limit
        send = {k: v for k, v in a.items() if k in accepts}
        if op.uncut is not None:
            if a[op.uncut] <= 0:
                raise ValueError(f"{op.uncut} must be positive")
            send[op.uncut] = _ALL
        if op.scores:
            send.update(self._phase1(
                a["collection"], *(a[q] for q in op.scores),
                synonyms=a.get("synonyms"), fields=a.get("fields"),
                tie_breaker=a.get("tie_breaker", 0.0),
            ))
        return op.merge(getattr(self, op.fan)(shard_op, **send), a)

    method.__name__ = name
    method.__doc__ = engine_fn.__doc__
    method.__signature__ = sig
    return method


def _declared_ops(table: dict[str, _Op]):
    """Class decorator: one generated method per row of ``table``."""

    def decorate(cls):
        for name, op in table.items():
            method = _declared_op(name, op)
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)
        return cls

    return decorate


@ray.remote(max_restarts=-1, max_task_retries=-1)
class _ShardActor:
    """Long-lived shard searcher: pins its partition subset ONCE as a
    partition-restricted ``SearchEngine`` (the 'searcher lease',
    LuceneReaderImpl.java:90-98).  Six methods: ``node_id``, the two
    passes of the search protocol (``stats_and_dfs``, ``score``), the
    fleet-load pair ``df_table_nbytes`` / ``take_df_table`` (the shard's
    df table is built once; its size is reported before the service
    decides to fetch it) and ``call(op, kwargs)``, which runs
    any engine method and returns its result unchanged — Arrow tables,
    ints, dicts, bytes or numpy arrays.  Each pass returns one Arrow record
    batch per call, as the bytes of an IPC message (:func:`_read_batches`
    decodes them): Ray pickles a small RecordBatch buffer by buffer and a
    Table column by column, ~170-350 µs per call against ~20 µs for the
    bytes.  ``score`` takes each query as the driver's parsed clauses, so
    a shard never parses.

    Restartable (constructor args are small by-value; calls are read-only /
    idempotent), so a node loss re-pins the shard instead of killing the
    serving fleet."""

    def __init__(self, index_root: str, generation: int | None,
                 cfg: IndexConfig, partitions: list[int]):
        self.engine = SearchEngine(
            index_root, generation=generation, cfg=cfg,
            partitions=set(partitions),
        )

    def node_id(self) -> str:
        """Which cluster node hosts this shard — deployment introspection
        (scripts/two_node_smoke.py asserts the fleet SPREADs across
        nodes; ops dashboards map shards to hosts with it)."""
        return ray.get_runtime_context().get_node_id()

    def stats_and_dfs(
        self, terms_by_coll: dict[str, list[tuple[str, str]]]
    ) -> bytes:
        return _shard_stats(self.engine, terms_by_coll).serialize().to_pybytes()

    def df_table_nbytes(self) -> int:
        """Build the shard's df table (``SearchEngine.local_df_table``) and
        keep it until :meth:`take_df_table`; its size in bytes."""
        self._df_table = self.engine.local_df_table()
        return len(self._df_table)

    def take_df_table(self, send: bool) -> bytes | None:
        """The kept df table when ``send``, else None; the actor drops its
        copy either way (a restarted actor builds it again)."""
        table, self._df_table = getattr(self, "_df_table", None), None
        if not send:
            return None
        return table if table is not None else self.engine.local_df_table()

    def score(self, qlist: list[dict], method: str, global_stats: dict,
              global_df_by_coll: dict) -> bytes:
        return _shard_score(
            self.engine, qlist, method, global_stats, global_df_by_coll
        ).serialize().to_pybytes()

    def call(self, op: str, kwargs: dict):
        return getattr(self.engine, op)(**kwargs)


@_declared_ops(_DECLARED)
class ShardedSearcherService:
    """Persistent distributed searcher: up to ``num_shards`` long-lived
    actors, each pinning one round-robin partition subset, behind the
    ``SearchEngine`` read surface.

    Every method sends its arguments to the shards' own engine methods
    (``_ShardActor.call``), so a bad argument raises the engine's own
    exception, with the engine's message, from the first shard that sees
    it.  The driver keeps only the work no single shard can do: the
    corpus-global statistics every scored op injects (:meth:`_phase1`),
    the merge of the shards' answers (``_cut`` for hit tables,
    ``_sum_by_key`` for counts), and the checks of arguments that no shard
    receives.  Each merge's exactness argument sits beside it.

    The ops with one fan-out and one merge (``count``, the facets, the completions, the sorted and scored hit ops,
    ``term_vector`` and ``explain``) are generated from ``_DECLARED`` with
    the signature and docstring of the ``SearchEngine`` op of the same
    name, less the injected statistics; the methods written out below
    each need more than one fan-out or a protocol of their own
    (``search`` runs ``search_batch``'s score path).

    The shards are doc-disjoint and pinned to one generation, so the
    fleet's statistics are a constant of the service: the first scored op
    loads every shard's n_docs, sum_dl and term→df table once and keeps
    their sums on the driver (:meth:`_gather_global`), and each later
    phase 1 is a driver-side lookup.  A ``search_batch`` then makes one
    actor call per shard (``score``), with the queries as parsed clauses.
    When the shards' df tables exceed ``DF_TABLE_MAX_BYTES``, phase 1
    gathers each call's dfs from the fleet instead (``stats_and_dfs``).

    ``num_shards`` is the largest fleet the service starts: it is capped at
    the partition count and at the cluster's CPU count (read once, at
    construction).  Actors beyond the CPU count would only time-share CPUs,
    and one engine scores its whole subset as one scope, so fewer, larger
    shards cost less CPU per batch for identical results.  ``len(actors)``
    is the fleet actually started; a cap is logged at INFO.

    This is the one place the engine drops below the Dataset API: a serving
    fleet with pinned in-memory state and sub-second per-batch latency is
    exactly what ``@ray.remote`` actors exist for.  Batch/ETL callers should
    use :func:`sharded_search` (Ray Data pipeline) instead.
    """

    def __init__(self, index_root: str, cfg: IndexConfig | None = None,
                 generation: int | None = None, num_shards: int | None = None):
        self.cfg = cfg or IndexConfig(index_root=index_root)
        chain = load_manifest_chain(index_root, generation)
        self.generation = chain[-1].generation
        P = chain[-1].num_partitions
        if not ray.is_initialized():
            ray.init()  # cluster_resources() needs a running Ray
        cpus = int(ray.cluster_resources().get("CPU", 1))
        requested = num_shards or min(P, 8)
        num_shards = max(1, min(requested, P, cpus))
        if num_shards < min(requested, P):
            logger.info(
                "ShardedSearcherService: %d shards requested, the cluster "
                "has %d CPUs; starting %d shard actors",
                requested, cpus, num_shards,
            )
        specs = shard_assignment(P, num_shards)
        self.num_partitions = P
        self.shard_partitions = [spec["partitions"] for spec in specs]
        # SPREAD: a serving fleet wants one shard's heap/postings per node
        # slot, not all shards packed onto the head node — balances memory
        # and fans query CPU across the cluster (verified on a real 2-node
        # cluster by scripts/two_node_smoke.py; no-op under address="local")
        self._init_fleet([
            _ShardActor.options(scheduling_strategy="SPREAD").remote(
                index_root, self.generation, self.cfg, spec["partitions"]
            )
            for spec in specs
        ])

    def _init_fleet(self, actors: list) -> None:
        """The per-service state of a started fleet, shared with
        :class:`MultiIndexSearcherService`."""
        self.actors = actors
        # classify's V (distinct text vocab) per collection and the BM25
        # statistics — properties of the generation-pinned fleet, gathered
        # once per service lifetime
        self._vocab_union_cache: dict[str, int] = {}
        self._fleet_stats: tuple[dict, dict | None] | None = None

    # ---- the shard protocol -----------------------------------------------
    def _submit(self, op: str, actors=None, **kwargs) -> list:
        return [a.call.remote(op, kwargs) for a in (actors or self.actors)]

    def _fan(self, op: str, actors=None, **kwargs) -> list:
        """``SearchEngine.op(**kwargs)`` on every shard (or on ``actors``)
        → the results in actor order."""
        return _gather(self._submit(op, actors, **kwargs))

    def _lookup(self, op: str, collection: str, url: str, **kwargs):
        """A per-document op, on the one shard that owns ``url``: partition
        assignment is a pure hash of (collection, url), so no broadcast
        probe is needed, and that shard's answer is the cluster's."""
        p = partition_of_key(
            sanitize_collection(collection), url, self.num_partitions
        )
        owner = next(
            a for a, parts in zip(self.actors, self.shard_partitions)
            if p in parts
        )
        return self._fan(op, [owner], url=url, collection=collection,
                         **kwargs)[0]

    def _gather_global(
        self, terms_by_coll: dict[str, list[tuple[str, str]]]
    ) -> tuple[dict, dict]:
        """Phase 1: the corpus-global BM25 statistics → (global_stats,
        global_df by collection for the keys of ``terms_by_coll``), the
        arguments every scoring call injects.  The first call loads the
        fleet's statistics (:meth:`_load_stats`); after that this is a
        driver-side lookup, or — when the df tables were over the bound —
        one parallel ``stats_and_dfs`` round summed on the driver."""
        if self._fleet_stats is None:
            self._fleet_stats = self._load_stats()
        stats, index = self._fleet_stats
        if index is None:
            parts = _gather(
                [a.stats_and_dfs.remote(terms_by_coll) for a in self.actors]
            )
            return _reduce_stats(_read_batches(parts, _STATS_SCHEMA))
        return stats, _table_dfs(index, terms_by_coll)

    def _load_stats(self) -> tuple[dict, dict | None]:
        """The fleet's summed collection statistics and its :func:`_df_index`
        — None when the shards' df tables, by the sizes they report first,
        exceed ``DF_TABLE_MAX_BYTES``.  Exact: shards are doc-disjoint, so
        every count adds."""
        refs = [a.stats_and_dfs.remote({}) for a in self.actors]
        refs += [a.df_table_nbytes.remote() for a in self.actors]
        got = _gather(refs)
        n = len(self.actors)
        stats, _ = _reduce_stats(_read_batches(got[:n], _STATS_SCHEMA))
        nbytes = sum(got[n:])
        fits = nbytes <= DF_TABLE_MAX_BYTES
        tables = _gather([a.take_df_table.remote(fits) for a in self.actors])
        if not fits:
            logger.info(
                "ShardedSearcherService: the shards' df tables hold %d bytes, "
                "over DF_TABLE_MAX_BYTES=%d; phase 1 gathers dfs per call",
                nbytes, DF_TABLE_MAX_BYTES,
            )
            return stats, None
        return stats, _df_index(
            [_read_batches([b], DF_TABLE_SCHEMA) for b in tables]
        )

    def _phase1(
        self, collection: str, *queries,
        synonyms: dict[str, list[str]] | None = None,
        fields: dict[str, float] | None = None, tie_breaker: float = 0.0,
    ) -> dict:
        """Phase 1 for queries over one collection: rewrite each query
        string as the engine does (:func:`rewrite_query`: parse, synonyms,
        dismax ``fields``; clauses already built pass as they are) and look
        up the global statistics of their scored terms → the
        ``global_stats`` / ``global_df`` arguments of the engine's scored
        ops.  When a query does not parse, no statistics are injected: the
        shards then parse it themselves and raise the engine's own first
        error."""
        sc = sanitize_collection(collection)
        keys: set[tuple[str, str]] = set()
        for q in queries:
            if isinstance(q, str):
                try:
                    q = rewrite_query(
                        q, self.cfg.text_column, synonyms, fields, tie_breaker
                    )
                except QueryParseError:
                    return {}
            keys.update(scored_term_keys(q))
        stats, dfs = self._gather_global({sc: sorted(keys)})
        return {"global_stats": stats, "global_df": dfs.get(sc, {})}

    def _hits(self, op: str, limit: int | None, **kwargs) -> pa.Table:
        """A scored op whose shards each return their top-``limit`` hits
        under (score desc, url asc), cut once more over the union: a total
        order, so every global top-``limit`` doc is in its shard's
        top-``limit`` (shards are doc-disjoint)."""
        limit = limit if limit is not None else self.cfg.result_limit
        return _cut(
            pa.concat_tables(self._fan(op, limit=limit, **kwargs)), limit
        )

    def _phase2_merge(
        self, qlist: list[dict], method: str, global_stats: dict,
        global_df: dict,
    ) -> pa.Table:
        """Phase 2: parallel shard scoring + the exact driver merge
        (:func:`_rank_cut`) → (qid, rank, url, score, docid).  Shared by
        search_batch (public wire drops docid) and every single-query
        op that builds its own clauses."""
        hits = _gather(
            [a.score.remote(qlist, method, global_stats, global_df)
             for a in self.actors]
        )
        return _rank_cut(
            _read_batches(hits, _HITS_SCHEMA),
            {q["qid"]: q["limit"] for q in qlist},
        )

    def _search_clauses(
        self, clauses: tuple, collection: str, limit: int | None,
        method: str = "taat", inj: dict | None = None,
        min_should_match: int = 0,
    ) -> pa.Table:
        """One query given as clauses through the two-phase protocol →
        (url, score, docid).  ``inj`` is phase-1 output already gathered."""
        inj = inj or self._phase1(collection, clauses)
        limit = limit if limit is not None else self.cfg.result_limit
        return self._phase2_merge(
            [{"qid": 0, "collection": collection, "query": tuple(clauses),
              "limit": limit, "min_should_match": min_should_match}],
            method, inj["global_stats"],
            {sanitize_collection(collection): inj["global_df"]},
        ).select(["url", "score", "docid"])

    # ---- ops written by hand: the score path, more than one fan-out, or a
    # driver-side protocol
    def search(
        self,
        query: str,
        collection: str = "default",
        limit: int | None = None,
        method: str = "auto",
        synonyms: dict[str, list[str]] | None = None,
        fields: dict[str, float] | None = None,
        tie_breaker: float = 0.0,
        min_should_match: int = 0,
    ) -> pa.Table:
        """``SearchEngine.search`` on the score path, ``search_batch``'s
        protocol for one query: the engine's checks in its order, then the
        rewritten clauses' phase 1 and one ``score`` call per shard
        (``search_partial`` with the injected statistics), merged by
        :func:`_rank_cut`.  The driver raises the engine's errors itself:
        the shards never see ``fields`` or the query string."""
        limit = limit if limit is not None else self.cfg.result_limit
        if limit < 1:
            raise ValueError("limit must be positive")
        check_query_opts(self.cfg, fields, tie_breaker, min_should_match)
        clauses = rewrite_query(
            query, self.cfg.text_column, synonyms, fields, tie_breaker
        )
        return self._search_clauses(
            tuple(clauses), collection, limit, method,
            min_should_match=min_should_match,
        )

    def top_terms(
        self,
        field: str | None = None,
        k: int = 10,
        collection: str = "default",
    ) -> pa.Table:
        """Cluster-wide highest-df terms — distributed exact top-k via the
        TPUT protocol (Cao & Wang, PODC'04), NOT vocabulary-sized
        partials: round 1 gathers each shard's local top-k' with its
        threshold τ_s (the shard's k'-th df; 0 when the shard enumerated
        its whole vocabulary), escalating k' until Σ τ_s < L (the k-th
        largest partial-sum lower bound) so no UNSEEN term can reach the
        top-k; round 2 fetches exact dfs only for the candidates whose
        upper bound (known partials + τ_s of the shards that did not
        report them) can still reach L.  Driver traffic is O(S·k' +
        S·|candidates|) rows — never the vocabulary.  Identical to
        SearchEngine.top_terms on the whole index (shards are
        doc-disjoint, dfs add)."""
        if k <= 0:  # shards receive the escalated k', never k
            raise ValueError("k must be positive")
        field = field or self.cfg.text_column
        kp = max(k, 16)
        while True:
            parts = self._fan("top_terms", field=field, k=kp,
                              collection=collection)
            taus = [(p["df"][-1].as_py() if p.num_rows >= kp else 0)
                    for p in parts]
            known = _sum_by_key(parts, "term", "df")
            lower = sorted(known.values(), reverse=True)
            L = lower[k - 1] if len(lower) >= k else 0
            # strict <: an unseen term's df can EQUAL Σ τ_s and would tie
            # into the (df desc, term asc) rank
            if sum(taus) < L or all(t == 0 for t in taus):
                break
            if kp >= _ALL:
                break  # full vocabularies fetched — nothing is unseen
            kp = min(kp * 4, _ALL)
        seen_by_shard = [set(p["term"].to_pylist()) for p in parts]
        cand = [
            t for t, lo in known.items()
            if lo + sum(
                tau for s_seen, tau in zip(seen_by_shard, taus)
                if t not in s_seen
            ) >= L
        ]
        exact: dict[str, int] = {t: 0 for t in cand}
        if cand:
            lookups = self._fan(
                "local_term_dfs", coll=sanitize_collection(collection),
                terms=[(field, t) for t in cand],
            )
            exact.update(
                (t, df) for (_f, t), df in _sum_by_key(lookups).items()
            )
        exact = {t: df for t, df in exact.items() if df > 0}
        return rank_completions_table(exact, k)

    def classify(
        self,
        text: str,
        class_field: str,
        collection: str = "default",
    ) -> pa.Table:
        """Cluster-wide naive-Bayes classification — bit-identical to
        SearchEngine.classify on the whole index up to 64-bit hash
        collisions in the vocabulary union: the (n_c, df) partials are
        exact integer sums over doc-disjoint shards, V is the union of
        per-shard term-hash sets (8 bytes/term driver traffic instead of
        the strings), and the scoring fold is the shared
        naive_bayes_table."""
        toks = analyze(text)
        if not toks:  # the shards' partials accept an empty token list
            raise ValueError("text analyzed to zero tokens")
        # the per-probe partials and (on the first call only) the
        # vocab-hash gather run as ONE parallel fleet round; V is a
        # property of the generation-pinned fleet, cached per collection
        refs = self._submit("classify_partials", text=text,
                            class_field=class_field, collection=collection)
        vocab = self._vocab_union_cache.get(collection)
        if vocab is None:
            hashes = [h for h in self._fan("text_vocab_hashes",
                                           collection=collection) if h.size]
            vocab = int(np.unique(np.concatenate(hashes)).size) if hashes else 0
            self._vocab_union_cache[collection] = vocab
        parts = _gather(refs)
        return naive_bayes_table(
            toks, _sum_by_key(p[0] for p in parts),
            _sum_by_key(p[1] for p in parts), vocab,
        )

    def classify_knn(
        self,
        text: str,
        class_field: str,
        collection: str = "default",
        k: int = 10,
        max_query_terms: int = 25,
        exclude_url: str | None = None,
    ) -> pa.Table:
        """Cluster-wide KNN classification — bit-identical to
        SearchEngine.classify_knn on the whole index: the hit list comes
        from the exact sharded MoreLikeThis, votes are integer 1e-4 score
        units, and the shards' per-class (vote sum, hit count) over their
        doc-disjoint alive docs are summed."""
        # the engine checks class_field before MoreLikeThis's arguments;
        # the shards see it only after the MoreLikeThis round
        check_metadata_field(self.cfg.field_columns, "class_field", class_field)
        hits = self.more_like_this(
            text, collection=collection,
            max_query_terms=max_query_terms, limit=k,
            exclude_url=exclude_url,
        )
        urls = hits["url"].to_numpy(zero_copy_only=False)
        votes = score_to_vote_units(hits["score"].to_numpy())
        order = np.argsort(urls)  # the membership probe wants sorted urls
        parts = self._fan("class_votes_for_urls", urls=urls[order],
                          votes=votes[order], class_field=class_field,
                          collection=collection)
        return knn_vote_table(
            _sum_by_key({c: np.asarray(a) for c, a in p.items()} for p in parts)
        )

    def drill_sideways(
        self,
        query: str,
        dims: dict,
        collection: str = "default",
        limit: int | None = None,
    ) -> tuple[pa.Table, dict[str, pa.Table]]:
        """Cluster-wide DrillSideways — identical to
        SearchEngine.drill_sideways on the whole index: each dim's
        sideways counts summed over the shards, drill-down hits via the
        exact sharded search_filtered.  Driver traffic is
        O(S·Σ|dim vocab| + S·limit) rows."""
        dim_clauses = build_dim_clauses(dims, self.cfg.field_columns)
        parts = self._fan("drill_sideways_counts", query=query, dims=dims,
                          collection=collection)
        hits = self.search_filtered(
            query, drill_filter_query(dim_clauses),
            collection=collection, limit=limit,
        )
        return hits, {
            f: facet_count_table(_sum_by_key(p.get(f, {}) for p in parts))
            for f in dim_clauses
        }

    def search_grouped(
        self,
        query: str,
        group_field: str,
        collection: str = "default",
        group_limit: int = 10,
        docs_per_group: int = 3,
        synonyms: dict[str, list[str]] | None = None,
    ) -> pa.Table:
        """Cluster-wide grouped top-k: the shards' untruncated groups, each
        with its top ``docs_per_group`` docs — a group's global head can
        live on any shard, but the global per-group top-n is within the
        union of the per-shard top-ns under (score desc, url asc) — then
        the engine's group rank."""
        if group_limit <= 0:  # shards never receive group_limit
            raise ValueError("group_limit and docs_per_group must be positive")
        parts = self._fan(
            "search_grouped", query=query, group_field=group_field,
            collection=collection, group_limit=_ALL,
            docs_per_group=docs_per_group, synonyms=synonyms,
            **self._phase1(collection, query, synonyms=synonyms),
        )
        groups: dict[str, list[tuple[str, float, int]]] = {}
        for p in parts:
            for g, u, s_, d in zip(*(p[c].to_pylist() for c in
                                     ("group", "url", "score", "docid"))):
                groups.setdefault(g, []).append((u, s_, d))
        return rank_grouped_table(groups, group_limit, docs_per_group)

    def rescore(
        self,
        query: str,
        rescore_query: str,
        collection: str = "default",
        window_size: int | None = None,
        weight: float = 1.0,
        limit: int | None = None,
    ) -> pa.Table:
        """Cluster-wide two-pass rescoring — QueryRescorer over the fleet:
        each shard rescores its own top-``window_size`` first-pass
        candidates, and the driver re-derives the GLOBAL window under
        (first desc, url asc) — exact, since that window ⊆ the union of
        the per-shard windows under the total order — and ranks it by
        (combined desc, url asc).  Driver traffic is O(S · window_size)."""
        window_size = (
            window_size if window_size is not None else self.cfg.result_limit
        )
        # the shards cut at window_size; ``limit`` is the driver's alone
        if window_size <= 0:
            raise ValueError("window_size must be positive")
        limit = limit if limit is not None else window_size
        if limit <= 0:
            raise ValueError("limit must be positive")
        parts = self._fan(
            "rescore", query=query, rescore_query=rescore_query,
            collection=collection, window_size=window_size, weight=weight,
            limit=window_size, include_first=True,
            **self._phase1(collection, query, rescore_query),
        )
        window = _cut(pa.concat_tables(parts), window_size, "first_score")
        return _cut(window, limit).select(["url", "score", "docid"])

    def search_join(
        self,
        from_query: str,
        from_field: str,
        to_field: str,
        score_mode: str = "max",
        collection: str = "default",
        limit: int | None = None,
        synonyms: dict[str, list[str]] | None = None,
    ) -> pa.Table:
        """Cluster-wide query-time join (JoinUtil analogue) — identical to
        SearchEngine.search_join on the whole index for score_mode
        none/max/min (order-free folds); total/avg sum float64 partials in
        shard order (the usual distributed-float-sum grouping caveat).
        Two fan-outs: the from-side (count, sum, max, min) aggregates are
        folded on the driver into the value→score map, which is broadcast
        to the to-side top-``limit`` calls and cut once more.  Driver
        traffic is O(S·|from vocab| + S·limit) rows."""
        agg = self._join_from(
            from_query, from_field, collection, score_mode != "none",
            synonyms, None,
        )
        return self._hits(
            "join_to_hits", limit, to_field=to_field,
            value_scores=SearchEngine.join_value_scores(agg, score_mode),
            score_mode=score_mode, collection=collection,
        )

    def _validate_block_join(
        self, parent_filter: str, block_field: str, limit: int | None
    ) -> int:
        """Block-join input validation.  The shards see ``block_field``
        only as a join from/to field and run after the cross-shard
        contract probe, so the engine's checks are repeated here, in the
        engine's order."""
        check_metadata_field(self.cfg.field_columns, "block_field", block_field)
        if not parse_query(parent_filter, default_field=self.cfg.text_column):
            raise ValueError("parent_filter must contain at least one clause")
        limit = limit if limit is not None else self.cfg.result_limit
        if limit <= 0:
            raise ValueError("limit must be positive")
        return limit

    def _join_from(
        self,
        query: str,
        field: str,
        collection: str,
        need_scores: bool,
        synonyms: dict[str, list[str]] | None,
        restrict_query: str | None,
    ) -> dict[str, list]:
        """The join from-side shared by ``search_join`` and the block
        joins: phase 1 for the scored query (none when scores are not
        needed) and the exact fold of the shards' aggregates."""
        inj = (
            self._phase1(collection, query, synonyms=synonyms)
            if need_scores else {}
        )
        return _fold_join(self._fan(
            "join_from_aggregates", from_query=query, from_field=field,
            collection=collection, synonyms=synonyms, need_scores=need_scores,
            restrict_query=restrict_query, **inj,
        ))

    def block_join_parents(
        self,
        child_query: str,
        parent_filter: str,
        block_field: str,
        score_mode: str = "max",
        collection: str = "default",
        limit: int | None = None,
        synonyms: dict[str, list[str]] | None = None,
    ) -> pa.Table:
        """Cluster-wide ToParentBlockJoinQuery (SearchEngine
        .block_join_parents semantics on the whole index).  Blocks are
        keyed by shared ``block_field`` value, NOT by co-location, so the
        from-side (count, sum, max, min) partials fold exactly across
        doc-disjoint shards even when a block's parent and children live
        on different shards; identical to the single engine for
        none/max/min, total/avg carry the distributed float-sum grouping
        caveat (search_join docstring).  Contract probe (child query must
        not match a parent) runs per shard and sums — one extra score-free
        fan-out; the to-side calls apply the parent filter as a
        non-scoring restriction before their exact per-shard truncation."""
        if score_mode not in _JOIN_MODES:
            raise ValueError(
                f"score_mode must be one of {_JOIN_MODES}, got {score_mode!r}"
            )
        limit = self._validate_block_join(parent_filter, block_field, limit)
        n_bad = sum(self._fan("boolean_overlap_count", query_a=child_query,
                              query_b=parent_filter, collection=collection))
        if n_bad:
            raise ValueError(
                f"child_query matches {n_bad} parent doc(s) — "
                "ToParentBlockJoinQuery requires the child query to match "
                "only non-parent docs"
            )
        agg = self._join_from(
            child_query, block_field, collection, score_mode != "none",
            synonyms, None,
        )
        return self._hits(
            "join_to_hits", limit, to_field=block_field,
            value_scores=SearchEngine.join_value_scores(agg, score_mode),
            score_mode=score_mode, collection=collection,
            restrict_query=parent_filter,
        )

    def block_join_children(
        self,
        parent_query: str,
        parent_filter: str,
        block_field: str,
        collection: str = "default",
        limit: int | None = None,
        score: bool = True,
        synonyms: dict[str, list[str]] | None = None,
    ) -> pa.Table:
        """Cluster-wide ToChildBlockJoinQuery (SearchEngine
        .block_join_children semantics): parent scores fold under max
        across shards (order-free — bit-identical to the single engine),
        children gathered with the parent filter as a non-scoring
        exclusion before exact per-shard truncation."""
        limit = self._validate_block_join(parent_filter, block_field, limit)
        agg = self._join_from(
            parent_query, block_field, collection, score, synonyms,
            parent_filter,
        )
        return self._hits(
            "join_to_hits", limit, to_field=block_field,
            value_scores=SearchEngine.join_value_scores(
                agg, "max" if score else "none"
            ),
            score_mode="max", collection=collection,
            exclude_query=parent_filter,
        )

    # ---- ops that build their own clauses: the search_batch path -----------
    def search_surround(
        self,
        query: str,
        collection: str = "default",
        limit: int | None = None,
    ) -> "pa.Table":
        """Cluster-wide surround-language search: the driver parses (phase
        1 needs the clauses), W/N clauses travel STRUCTURED through the
        score() path with injected global stats."""
        from lucene_plugin_ray.functions.surround import parse_surround

        clauses = parse_surround(query, self.cfg.text_column)
        return self._search_clauses(tuple(clauses), collection, limit)

    def search_common(
        self,
        query: str,
        max_term_frequency: float = 0.01,
        collection: str = "default",
        limit: int | None = None,
    ) -> "pa.Table":
        """Cluster-wide CommonTermsQuery: phase 1 gathers corpus-global dfs
        for ALL terms (the same dfs the scoring pass needs), the engine's
        rewrite classifies low/high against them, and the rewritten
        clauses go through the score() path — identical to
        SearchEngine.search_common because the cutoff sees the same
        global dfs."""
        term_clauses = common_terms_parse(
            query, max_term_frequency, self.cfg.text_column
        )
        inj = self._phase1(collection, term_clauses)
        n_docs = int(inj["global_stats"].get(
            sanitize_collection(collection), {}).get("n_docs", 0))
        clauses = common_terms_rewrite(
            term_clauses, max_term_frequency, inj["global_df"], n_docs
        )
        return self._search_clauses(tuple(clauses), collection, limit, inj=inj)

    def _span_search(self, clause, collection: str, limit: int | None) -> "pa.Table":
        """The sharded span path: the driver-built SpanClause travels
        structured to every shard, phase 1 gathers the INCLUDE terms only
        (exclude terms mask, never score — SpanWeight parity), and span
        scores are a pure function of (freq, dl, injected global stats),
        so the BM25 merge is exact."""
        return self._search_clauses((clause,), collection, limit)

    def span_near(
        self,
        terms,
        slop: int = 0,
        in_order: bool = True,
        collection: str = "default",
        field: str | None = None,
        limit: int | None = None,
    ) -> "pa.Table":
        """Cluster-wide SpanNearQuery — SearchEngine.span_near parity."""
        clause = make_span_clause(
            "near", terms, field or self.cfg.text_column, slop=slop,
            in_order=in_order,
        )
        return self._span_search(clause, collection, limit)

    def span_first(
        self,
        term: str,
        end: int,
        collection: str = "default",
        field: str | None = None,
        limit: int | None = None,
    ) -> "pa.Table":
        """Cluster-wide SpanFirstQuery — SearchEngine.span_first parity."""
        clause = make_span_clause(
            "first", (term,), field or self.cfg.text_column, end=end
        )
        return self._span_search(clause, collection, limit)

    def span_not(
        self,
        term: str,
        exclude,
        pre: int = 0,
        post: int = 0,
        collection: str = "default",
        field: str | None = None,
        limit: int | None = None,
    ) -> "pa.Table":
        """Cluster-wide SpanNotQuery — SearchEngine.span_not parity."""
        if isinstance(exclude, str):
            exclude = (exclude,)
        clause = make_span_clause(
            "not", (term,), field or self.cfg.text_column,
            exclude=tuple(exclude), pre=pre, post=post,
        )
        return self._span_search(clause, collection, limit)

    def _mlt(
        self, tf: dict, collection: str, max_query_terms: int, limit: int,
        method: str, drop_url: str | None,
    ) -> pa.Table:
        """Shared MoreLikeThis tail: term selection over the fleet's
        corpus-global df/n_docs (one phase-1 gather, which is also the
        scoring gather), the selected terms run as STRUCTURED TermClauses
        (they are already analyzed index terms), and ``drop_url`` is
        excluded from a limit+1 fetch."""
        coll = sanitize_collection(collection)
        field = self.cfg.text_column
        stats, dfs = self._gather_global({coll: sorted((field, t) for t in tf)})
        n_docs = stats.get(coll, {}).get("n_docs", 0)
        clauses = tuple(mlt_select_clauses(
            tf, dfs.get(coll, {}), n_docs, max_query_terms, field
        )) if n_docs else ()
        if not clauses:
            return RESULT_SCHEMA.empty_table()
        res = self._search_clauses(
            clauses, collection, limit + (drop_url is not None), method,
            {"global_stats": stats, "global_df": dfs.get(coll, {})},
        )
        return res if drop_url is None else exclude_source_url(res, drop_url, limit)

    def _mlt_args(self, max_query_terms: int, limit: int | None) -> int:
        """MoreLikeThis checks of arguments no shard receives (the shards
        score the selected terms at limit+1)."""
        if max_query_terms <= 0:
            raise ValueError(
                f"max_query_terms must be >= 1, got {max_query_terms}"
            )
        limit = limit if limit is not None else self.cfg.result_limit
        if limit < 1:
            raise ValueError("limit must be positive")
        return limit

    def more_like_this(
        self,
        text: str,
        collection: str = "default",
        max_query_terms: int = 25,
        limit: int | None = None,
        exclude_url: str | None = None,
        method: str = "taat",
    ) -> pa.Table:
        """Cluster-wide MoreLikeThis — identical (url, score, docid) output
        to SearchEngine.more_like_this on the whole index."""
        limit = self._mlt_args(max_query_terms, limit)
        tf: dict[str, int] = {}
        for t in analyze(text):
            tf[t] = tf.get(t, 0) + 1
        if not tf:
            return RESULT_SCHEMA.empty_table()
        return self._mlt(tf, collection, max_query_terms, limit, method,
                         exclude_url)

    def more_like_this_url(
        self,
        url: str,
        collection: str = "default",
        max_query_terms: int = 25,
        limit: int | None = None,
        method: str = "taat",
        include_self: bool = False,
    ) -> pa.Table:
        """Cluster-wide MoreLikeThis like(docId): the term vector comes
        from the OWNING shard, then the more_like_this contract —
        identical to SearchEngine.more_like_this_url on the whole index."""
        limit = self._mlt_args(max_query_terms, limit)
        tv = self.term_vector(url, collection=collection, with_positions=False)
        tf = dict(zip(tv["term"].to_pylist(), tv["tf"].to_pylist()))
        if not tf:
            return RESULT_SCHEMA.empty_table()
        return self._mlt(tf, collection, max_query_terms, limit, method,
                         None if include_self else url)

    def search_batch(self, queries: pa.Table, method: str = "taat") -> pa.Table:
        """(qid, query[, collection][, k]) → (qid, rank, url, score)."""
        qlist, terms = _plan_batch(queries, self.cfg)
        global_stats, global_df = self._gather_global(terms)
        return self._phase2_merge(
            qlist, method, global_stats, global_df
        ).select(["qid", "rank", "url", "score"])

    def snippets(
        self,
        query: str,
        texts: pa.Table,
        k: int = 10,
        window: int = 8,
        collection: str = "default",
    ) -> "pa.Table":
        """Fleet-global snippet highlighting — exact parity with
        :meth:`SearchEngine.snippets`: the top-k hits come from the
        two-phase sharded search, and window selection runs on the driver
        over the k supplied hit texts only (it is index-free: just the
        analyzed text and the scored query terms —
        ``best_snippet_windows``)."""
        if window < 1:  # window selection is the driver's alone
            raise ValueError(f"window must be >= 1, got {window}")
        hits = self.search_batch(
            pa.table({"qid": [0], "query": [query], "collection": [collection],
                      "k": [k]})
        )
        if hits.num_rows == 0:
            return SearchEngine.SNIPPET_SCHEMA.empty_table()
        clauses = parse_query(query, default_field=self.cfg.text_column)
        qterms = sorted(
            {t for f, t in scored_term_keys(clauses) if f == self.cfg.text_column}
        )
        text_of = dict(
            zip(texts["url"].to_pylist(),
                texts[self.cfg.text_column].to_pylist())
        )
        starts, n_terms, snips = best_snippet_windows(
            hits["url"].to_pylist(), text_of, qterms, window
        )
        return pa.table(
            {
                "url": hits["url"],
                "score": hits["score"],
                "start": pa.array(starts, pa.int64()),
                "n_terms": pa.array(n_terms, pa.int64()),
                "snippet": pa.array(snips, pa.string()),
            }
        )

    def shutdown(self) -> None:
        for a in self.actors:
            ray.kill(a)
        self.actors = []


class MultiIndexSearcherService(ShardedSearcherService):
    """Lucene ``MultiReader`` analogue (core,
    org.apache.lucene.index.MultiReader / IndexSearcher over several
    Directories): ONE searcher over SEVERAL independently built index
    roots — separately owned corpora, possibly at different generations —
    with corpus-global EXACT BM25 across the whole federation.

    The entire read surface of :class:`ShardedSearcherService` is
    inherited UNCHANGED with one actor per root instead of one per
    partition subset: every exactness argument in that class only requires
    that actors hold doc-DISJOINT subsets and score with injected
    federation-global stats — both hold here by the MultiReader contract
    (each doc lives in one sub-index; the phase-1 gather sums n_docs /
    sum_dl / df over roots exactly as it sums them over shards).  So a
    query against the federation is bit-identical to the same query
    against ONE index built over the union corpus — pinned by
    tests/test_multireader.py — for search/count/facets/taxonomy/joins/
    block joins/filtered/sorted/top_terms/classify/suggest/MLT/….

    Three deliberate contracts:

    * **urls should be disjoint across roots.**  A url present in several
      roots appears once per root in results — exactly MultiReader's
      concatenation of sub-readers (Lucene does not dedup either).
    * **``docid`` columns are SUB-INDEX-LOCAL** (Lucene's leaf docids,
      WITHOUT the MultiReader docBase rebase): the engine's docids are
      stable (partition, slot) route keys within one index, so rebasing
      would break every downstream lookup against the owning root.  The
      federation-wide key is the url, as everywhere else in this engine.
    * **one query schema (``cfg``) for all roots.**  ``cfg.text_column``
      must be indexed by EVERY root (checked loudly at construction — a
      root that analyzed a different text column would silently answer
      empty for every query).  A METADATA field missing from some root is
      fine and exact: that root's docs simply don't match the field —
      identical to the union index, where those docs carry "" (zero
      tokens), and to this engine's append-only field-evolution semantics
      (old segments answer empty for newer fields).

    The partition-hash-ROUTED per-document lookups (term_vector, explain,
    more_like_this_url's term vector) cannot route by hash across roots — a
    url's partition number only identifies a partition WITHIN its root — so
    they probe the roots in order and return the first live answer
    (MultiReader's first-sub-reader rule), KeyError when no root holds the
    doc."""

    def __init__(self, index_roots: list[str], cfg: IndexConfig | None = None,
                 generations: list[int | None] | None = None):
        if not index_roots or len(set(
            r.rstrip("/") for r in index_roots
        )) != len(index_roots):
            raise ValueError("index_roots must be non-empty and distinct")
        if generations is not None and len(generations) != len(index_roots):
            raise ValueError("generations must align with index_roots")
        self.cfg = cfg or IndexConfig(index_root=index_roots[0])
        self.index_roots = list(index_roots)
        self.generations: list[int] = []
        self.root_partitions: list[int] = []
        actors = []
        for i, root in enumerate(index_roots):
            chain = load_manifest_chain(
                root, generations[i] if generations else None
            )
            g = chain[-1].generation
            P = chain[-1].num_partitions
            if self.cfg.text_column not in chain[-1].fields:
                raise ValueError(
                    f"root {root} never indexed text column "
                    f"{self.cfg.text_column!r} (its fields: "
                    f"{chain[-1].fields}) — every query would silently "
                    "answer empty for this root"
                )
            self.generations.append(g)
            self.root_partitions.append(P)
            actors.append(_ShardActor.remote(root, g, self.cfg, list(range(P))))
        self._init_fleet(actors)
        # inherited APIs never consult these (per-document lookups probe
        # the roots instead), but keep them coherent for introspection
        self.generation = self.generations[-1]
        self.num_partitions = sum(self.root_partitions)
        self.shard_partitions = [
            list(range(P)) for P in self.root_partitions
        ]

    def _lookup(self, op: str, collection: str, url: str, **kwargs):
        """First-sub-reader rule: fire the lookup at every root in PARALLEL
        (one wave, not N round trips), then take the first live answer in
        root order — with disjoint urls exactly one root answers; with a
        duplicated url this picks the first root, Lucene's rule.  ALL
        answers are drained: a live answer wins even when another root
        errors (a broken sub-index must not fail lookups it never owned),
        but with NO live answer a real failure is raised in preference to
        the engine's not-live KeyError."""
        hits, errors = [], []
        for ref in self._submit(op, url=url, collection=collection, **kwargs):
            try:
                hits.append(ray.get(ref))
            except ray.exceptions.RayTaskError as e:
                errors.append(e if e.cause is None else e.cause)
        if hits:
            return hits[0]
        raise next((e for e in errors if not isinstance(e, KeyError)), errors[0])
