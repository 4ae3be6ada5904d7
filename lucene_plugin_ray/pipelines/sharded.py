"""Partition-sharded distributed query execution (SURVEY.md T2 at cluster
scale).

≙ the reference's SearcherManager lease per reader (LuceneReaderImpl.java:
90-98) generalized to a fixed-size cluster: no single query actor can hold a
100-TB index, so each actor pins an ASSIGNED subset of the index's document
partitions and the driver merges per-shard top-k.  BM25 scores stay exactly
corpus-global via a two-phase plan (the classic distributed-search
df-then-score protocol):

    shards_ds = from_items([{shard, partitions}, ...])      # S rows, tiny
    PASS 1    = shards_ds.map_batches(_shard_stats_batch)   # local df + stats
              → driver sums the (collection, field, term) rows  (exact ints)
    PASS 2    = shards_ds.map_batches(_shard_score_batch)   # score with
              → per-shard top-k (score desc, url asc)         injected globals
    merge     = driver lexsort over ≤ S·Q·k rows, rank < k per qid

Both passes are TASK pools over plain functions, not actor pools: every
shard row is processed exactly once per pass, so per-actor state gives no
reuse while paying actor spin-up latency and Ray's actor-restart
constructor-args hazard; warm-path reuse comes from a per-worker-process
engine LRU instead (Ray reuses idle workers across calls).  The persistent
serving mode (ShardedSearcherService below) is where long-lived actors earn
their keep.

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

import logging
from collections import OrderedDict

import numpy as np
import pyarrow as pa

import ray
import ray.data

from lucene_plugin_ray.config import IndexConfig
from lucene_plugin_ray.functions.analysis import sanitize_collection
from lucene_plugin_ray.functions.queryparse import (
    apply_fields,
    parse_query,
    scored_term_keys,
    validate_dismax_fields,
)
from lucene_plugin_ray.pipelines.query import (
    _JOIN_MODES,
    SearchEngine,
    build_dim_clauses,
    exclude_source_url,
    make_span_clause,
    mlt_select_clauses,
    drill_filter_query,
    facet_count_table,
    facet_stats_table,
    knn_vote_table,
    rank_completions_table,
    rank_grouped_table,
    score_to_vote_units,
    taxonomy_table,
    validate_taxonomy_fields,
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
        ("shard", pa.int32()),
        ("url", pa.string()),
        ("score", pa.float64()),
        ("docid", pa.int64()),
    ]
)


class _ShardEngineCache:
    """Per-actor LRU of partition-restricted SearchEngines: an actor that
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


def _shard_stats_batch(batch: pa.Table, ctx: tuple) -> pa.Table:
    """PASS 1 task: local (alive-masked) df per query term + collection
    stats for the batch's assigned partitions."""
    index_root, generation, cfg, terms_by_coll = ctx
    cache = _process_engine_cache(index_root, generation, cfg)
    kinds, colls, fields, terms, values = [], [], [], [], []
    for row in batch.to_pylist():
        eng = cache.get(tuple(row["partitions"]))
        for coll, st in eng.local_collection_stats().items():
            kinds.append("n_docs"); colls.append(coll)
            fields.append(""); terms.append("")
            values.append(int(st["n_docs"]))
            for f, s in st["sum_dl"].items():
                kinds.append("sum_dl"); colls.append(coll)
                fields.append(f); terms.append("")
                values.append(int(s))
        for coll, term_list in terms_by_coll.items():
            for (f, t), df in eng.local_term_dfs(
                coll, [tuple(x) for x in term_list]
            ).items():
                kinds.append("df"); colls.append(coll)
                fields.append(f); terms.append(t)
                values.append(int(df))
    return pa.table(
        {"kind": kinds, "collection": colls, "field": fields,
         "term": terms, "value": values},
        schema=_STATS_SCHEMA,
    )


def _shard_score_batch(
    batch: pa.Table, ctx: tuple, fault_path: str | None = None
) -> pa.Table:
    """PASS 2 task: score the query list against the batch's partitions with
    INJECTED global stats → per-shard top-k rows."""
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
    qids, shards, urls, scores, docids = [], [], [], [], []
    for row in batch.to_pylist():
        shard = int(row["shard"])
        eng = cache.get(tuple(row["partitions"]))
        for q in qlist:
            coll = q["collection"]
            res = eng.search_partial(
                q["query"], collection=coll, limit=q["limit"],
                method=method, global_stats=global_stats,
                global_df=global_df_by_coll.get(sanitize_collection(coll), {}),
                min_should_match=q.get("min_should_match", 0),
            )
            n = res.num_rows
            if not n:
                continue
            qids.extend([q["qid"]] * n)
            shards.extend([shard] * n)
            urls.extend(res["url"].to_pylist())
            scores.extend(res["score"].to_pylist())
            docids.extend(res["docid"].to_pylist())
    return pa.table(
        {"qid": qids, "shard": shards, "url": urls, "score": scores,
         "docid": docids},
        schema=_HITS_SCHEMA,
    )


def _reduce_stats(
    rows: list[dict],
) -> tuple[dict[str, dict], dict[str, dict[tuple[str, str], int]]]:
    """Sum the PASS-1 contributions (exact integer sums, order-independent)."""
    global_stats: dict[str, dict] = {}
    global_df: dict[str, dict[tuple[str, str], int]] = {}
    for r in rows:
        coll = r["collection"]
        if r["kind"] == "n_docs":
            st = global_stats.setdefault(coll, {"n_docs": 0, "sum_dl": {}})
            st["n_docs"] += r["value"]
        elif r["kind"] == "sum_dl":
            st = global_stats.setdefault(coll, {"n_docs": 0, "sum_dl": {}})
            st["sum_dl"][r["field"]] = (
                st["sum_dl"].get(r["field"], 0) + r["value"]
            )
        else:  # df
            d = global_df.setdefault(coll, {})
            key = (r["field"], r["term"])
            d[key] = d.get(key, 0) + r["value"]
    return global_stats, global_df


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
    if min_should_match < 0:
        raise ValueError("min_should_match must be >= 0")
    if fields is not None:
        validate_dismax_fields(
            fields, tie_breaker, {cfg.text_column, *cfg.field_columns}
        )
    chain = load_manifest_chain(index_root, generation)
    gen = chain[-1].generation
    P = chain[-1].num_partitions
    num_shards = num_shards or min(P, 8)
    num_shards = max(1, min(num_shards, P))
    shards = shard_assignment(P, num_shards)
    concurrency = concurrency or min(num_shards, cfg.query_concurrency)

    # driver-side query parse (queries are small by nature): unique analyzed
    # (field, term) per collection for the df gather
    qlist = []
    terms_by_coll: dict[str, set[tuple[str, str]]] = {}
    for q in queries.to_pylist():
        coll = q.get("collection") or "default"
        limit = q.get("k")
        clauses = parse_query(q["query"], default_field=cfg.text_column)
        if fields:
            clauses = list(
                apply_fields(tuple(clauses), fields, tie_breaker, cfg.text_column)
            )
        qlist.append(
            {
                "qid": int(q["qid"]),
                "collection": coll,
                # dismax rewrites travel structured (search_partial accepts
                # clause tuples) so shards never re-derive the field map
                "query": tuple(clauses) if fields else q["query"],
                "limit": int(limit) if limit is not None else cfg.result_limit,
                "min_should_match": min_should_match,
            }
        )
        sc = sanitize_collection(coll)
        terms_by_coll.setdefault(sc, set()).update(scored_term_keys(clauses))
    terms_sorted = {c: sorted(v) for c, v in terms_by_coll.items()}

    from functools import partial

    # PASS 1 — per-shard local stats (tiny result: S × (#terms + #colls·F)).
    # Plain task-pool functions: the query context rides in the (single,
    # executor-held) transformer put; a task killed mid-batch is retried —
    # no actor restart path to poison (tests/test_sharded.py kill test).
    stats_rows = (
        ray.data.from_items(shards)
        .map_batches(
            partial(_shard_stats_batch, ctx=(index_root, gen, cfg, terms_sorted)),
            batch_size=1,
            batch_format="pyarrow",
            concurrency=concurrency,
        )
        .take_all()
    )
    global_stats, global_df_by_coll = _reduce_stats(stats_rows)

    # PASS 2 — per-shard scoring with injected globals
    hits = (
        ray.data.from_items(shards)
        .map_batches(
            partial(
                _shard_score_batch,
                ctx=(index_root, gen, cfg, qlist, method, global_stats,
                     global_df_by_coll),
                fault_path=_fault_path,
            ),
            batch_size=1,
            batch_format="pyarrow",
            concurrency=concurrency,
        )
        .take_all()
    )

    # ---- driver merge: global (score desc, url asc) per qid, rank < k ----
    if not hits:
        return pa.table(
            {"qid": pa.array([], pa.int64()), "rank": pa.array([], pa.int32()),
             "url": pa.array([], pa.string()),
             "score": pa.array([], pa.float64())}
        )
    t = pa.Table.from_pylist(hits, schema=_HITS_SCHEMA)
    qid = t["qid"].to_numpy()
    score = t["score"].to_numpy()
    url = t["url"].to_numpy(zero_copy_only=False)
    order = np.lexsort((url, -score, qid))
    qid_s = qid[order]
    # rank within qid = position − first position of the qid run
    starts = np.flatnonzero(np.concatenate(([True], qid_s[1:] != qid_s[:-1])))
    run_id = np.cumsum(np.concatenate(([0], (qid_s[1:] != qid_s[:-1]).astype(np.int64))))
    rank = np.arange(qid_s.size, dtype=np.int64) - starts[run_id]
    limits = {q["qid"]: q["limit"] for q in qlist}
    lim_arr = np.array([limits[int(x)] for x in qid_s], dtype=np.int64)
    keep = rank < lim_arr
    sel = order[keep]
    return pa.table(
        {
            "qid": pa.array(qid[sel], type=pa.int64()),
            "rank": pa.array(rank[keep].astype(np.int32), type=pa.int32()),
            "url": pa.array(url[sel], type=pa.string()),
            "score": pa.array(score[sel], type=pa.float64()),
        }
    )


@ray.remote(max_restarts=-1, max_task_retries=-1)
class _ShardActor:
    """Long-lived shard searcher: pins its partition subset ONCE (the
    'searcher lease', LuceneReaderImpl.java:90-98) and answers df-gather and
    score calls for its shard.  Used by ShardedSearcherService — the serving
    mode, where per-call actor-pool spin-up would dominate latency.

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
    ) -> tuple[dict, dict]:
        stats = self.engine.local_collection_stats()
        dfs = {
            coll: self.engine.local_term_dfs(coll, [tuple(t) for t in ts])
            for coll, ts in terms_by_coll.items()
        }
        return stats, dfs

    def facet_partial(
        self, query: str, facet_field: str, collection: str,
        syntax: str = "classic",
    ) -> list[tuple[str, int]]:
        """This shard's facet counts — boolean matching is partition-local
        (no global stats needed) and docs are partition-disjoint, so the
        driver-side merge is a plain per-value sum."""
        t = self.engine.facets(query, facet_field, collection=collection,
                               syntax=syntax)
        return list(zip(t["value"].to_pylist(), t["count"].to_pylist()))

    def count_partial(
        self, query: str, collection: str, syntax: str = "classic"
    ) -> int:
        return self.engine.count(query, collection=collection, syntax=syntax)

    def facets_taxonomy_partial(
        self, query: str, dim_fields: list[str], collection: str
    ) -> list[tuple[list[str], int]]:
        """This shard's hierarchical facet counts as (path list, count)
        rows — boolean matching is partition-local and docs are
        partition-disjoint, so the driver merge is a plain per-path sum
        (pruning waits for the merged exact counts)."""
        counts = self.engine.facets_taxonomy_counts(
            query, dim_fields, collection=collection
        )
        return [(list(p), c) for p, c in counts.items()]

    def facet_stats_partial(
        self, query: str, facet_field: str, value_source: str, collection: str
    ) -> list[tuple[str, int, int, int, int]]:
        """This shard's (value, count, vmin, vmax, vsum) rows — integer
        partials that fold exactly on the driver (docs are
        partition-disjoint)."""
        t = self.engine.facets_stats(
            query, facet_field, value_source=value_source,
            collection=collection,
        )
        return list(zip(t["value"].to_pylist(), t["count"].to_pylist(),
                        t["vmin"].to_pylist(), t["vmax"].to_pylist(),
                        t["vsum"].to_pylist()))

    def sorted_partial(
        self, query: str, collection: str, limit: int, descending: bool,
        after_ts: int | None = None, after_url: str = "",
    ) -> list[tuple[str, int, int]]:
        """This shard's (url, warc_ts, docid) top-``limit`` under the
        recency total order — per-shard truncation merges exactly on the
        driver (same argument as the BM25 top-k merge; with an anchor the
        predicate composes with the total order, so post-anchor truncation
        stays lossless, the search_after argument)."""
        t = self.engine.search_sorted(
            query, collection=collection, limit=limit, descending=descending,
            after_ts=after_ts, after_url=after_url,
        )
        return list(zip(t["url"].to_pylist(), t["warc_ts"].to_pylist(),
                        t["docid"].to_pylist()))

    def suggest_partial(
        self, term: str, collection: str, field: str | None, max_edits: int
    ) -> list[tuple[str, int, int]]:
        """This shard's candidate (term, distance, df) rows.  df is the
        shard-local partial — the driver sums per term (shards are
        doc-disjoint) before the global (distance, df desc, term) rank, so
        per-shard k-truncation must NOT apply: a term's global df rank can
        exceed its rank on any one shard.  Candidate sets are vocabulary-
        bounded (edit-distance ball), so 'all candidates' is tiny."""
        t = self.engine.suggest(
            term, collection=collection, field=field,
            max_edits=max_edits, k=2**31 - 1,
        )
        return list(zip(t["term"].to_pylist(), t["distance"].to_pylist(),
                        t["df"].to_pylist()))

    def grouped_partial(
        self, query: str, group_field: str, collection: str,
        docs_per_group: int, global_stats: dict, global_df: dict,
    ) -> list[tuple[str, str, float, int]]:
        """This shard's per-group top ``docs_per_group`` docs with INJECTED
        corpus-global stats → (group, url, score, docid) rows.  Groups are
        NOT truncated (a group's global head can live on any shard); doc
        truncation per group IS safe — the global per-group top-n is a
        subset of the union of per-shard top-ns under the (score desc,
        url asc) total order."""
        t = self.engine.search_grouped(
            query, group_field, collection=collection,
            group_limit=2**31 - 1, docs_per_group=docs_per_group,
            global_stats=global_stats, global_df=global_df,
        )
        return list(zip(t["group"].to_pylist(), t["url"].to_pylist(),
                        t["score"].to_pylist(), t["docid"].to_pylist()))

    def complete_partial(
        self, prefix: str, collection: str, field: str | None
    ) -> list[tuple[str, int]]:
        """This shard's (term, df-partial) completion rows — same no-
        truncation contract as suggest_partial (the driver owns the global
        df rank); candidate sets are prefix-range-bounded, so tiny."""
        t = self.engine.complete(
            prefix, collection=collection, field=field, k=2**31 - 1
        )
        return list(zip(t["term"].to_pylist(), t["df"].to_pylist()))

    def complete_infix_partial(
        self, fragment: str, collection: str, field: str | None
    ) -> list[tuple[str, int]]:
        """This shard's (term, df-partial) infix rows — the
        complete_partial contract over the substring scan."""
        t = self.engine.complete_infix(
            fragment, collection=collection, field=field, k=2**31 - 1
        )
        return list(zip(t["term"].to_pylist(), t["df"].to_pylist()))

    def top_terms_partial(
        self, field: str, collection: str, k: int
    ) -> list[tuple[str, int]]:
        """This shard's top-``k`` (term, alive-df) rows under the
        (df desc, term asc) rank — one TPUT round-1 partial."""
        t = self.engine.top_terms(field=field, k=k, collection=collection)
        return list(zip(t["term"].to_pylist(), t["df"].to_pylist()))

    def dfs_for(
        self, field: str, terms: list[str], collection: str
    ) -> dict[str, int]:
        """Exact alive-masked shard-local dfs for the given terms — the
        TPUT round-2 lookup."""
        dfs = self.engine.local_term_dfs(
            sanitize_collection(collection), [(field, t) for t in terms]
        )
        return {t: df for (_f, t), df in dfs.items()}

    def facet_ranges_partial(
        self, query: str, ranges: list[tuple], value_source: str,
        collection: str,
    ) -> list[int]:
        """This shard's per-range match counts, aligned to ``ranges`` —
        integer partials over doc-disjoint partitions; the driver sums."""
        t = self.engine.facet_ranges(
            query, ranges, value_source=value_source, collection=collection
        )
        return t["count"].to_pylist()

    def search_function_partial(
        self, query: str, now_us: int, scale_us: int, collection: str,
        limit: int, global_stats: dict, global_df: dict,
    ) -> list[tuple[str, float, int]]:
        """This shard's function-scored top-``limit`` with INJECTED global
        stats → (url, score, docid); per-shard truncation under the
        (final desc, url asc) total order merges exactly."""
        t = self.engine.search_function(
            query, now_us, scale_us, collection=collection, limit=limit,
            global_stats=global_stats, global_df=global_df,
        )
        return list(zip(t["url"].to_pylist(), t["score"].to_pylist(),
                        t["docid"].to_pylist()))

    def search_boosting_partial(
        self, positive_query: str, negative_query: str, demote: float,
        collection: str, limit: int, global_stats: dict, global_df: dict,
    ) -> list[tuple[str, float, int]]:
        """This shard's boosting-scored top-``limit`` with INJECTED global
        stats — the search_function_partial shape for BoostingQuery."""
        t = self.engine.search_boosting(
            positive_query, negative_query, demote=demote,
            collection=collection, limit=limit,
            global_stats=global_stats, global_df=global_df,
        )
        return list(zip(t["url"].to_pylist(), t["score"].to_pylist(),
                        t["docid"].to_pylist()))

    def search_diversified_partial(
        self, query: str, key_field: str, max_per_key: int,
        collection: str, limit: int, global_stats: dict, global_df: dict,
    ) -> list[tuple[str, float, "str | None", int]]:
        """This shard's diversified top-``limit`` with INJECTED global
        stats → (url, score, key, docid); shard-local cap-then-truncate
        merges exactly (a doc capped out locally is capped out globally —
        the same-key docs beating it locally beat it globally too)."""
        t = self.engine.search_diversified(
            query, key_field, max_per_key=max_per_key,
            collection=collection, limit=limit,
            global_stats=global_stats, global_df=global_df,
        )
        return list(zip(t["url"].to_pylist(), t["score"].to_pylist(),
                        t["key"].to_pylist(), t["docid"].to_pylist()))

    def search_expression_partial(
        self, query: str, expression: str, bindings: dict, collection: str,
        limit: int, global_stats: dict, global_df: dict,
        rng: "tuple | None" = None,
    ) -> list[tuple[str, float, int]]:
        """This shard's expression-scored top-``limit`` with INJECTED
        global stats — the search_function_partial shape for the
        expressions module.  ``rng``: the FunctionRangeQuery [lo, hi]
        predicate, applied shard-side before truncation."""
        t = self.engine.search_expression(
            query, expression, bindings=bindings, collection=collection,
            limit=limit, global_stats=global_stats, global_df=global_df,
            _range=tuple(rng) if rng is not None else None,
        )
        return list(zip(t["url"].to_pylist(), t["score"].to_pylist(),
                        t["docid"].to_pylist()))

    def search_after_partial(
        self, query: str, after_score: float, after_url: str,
        collection: str, limit: int, global_stats: dict, global_df: dict,
    ) -> list[tuple[str, float, int]]:
        """This shard's next ``limit`` hits strictly after the anchor,
        scored with INJECTED corpus-global stats → (url, score, docid).
        Per-shard truncation merges exactly on the driver: the anchor
        predicate plus (score desc, url asc) is a total order, so every
        doc in the global post-anchor top-``limit`` is within its shard's
        post-anchor top-``limit``."""
        t = self.engine.search_after(
            query, after_score, after_url, collection=collection,
            limit=limit, global_stats=global_stats, global_df=global_df,
        )
        return list(zip(t["url"].to_pylist(), t["score"].to_pylist(),
                        t["docid"].to_pylist()))

    def filtered_partial(
        self, query: str, filter_query: str, collection: str, limit: int,
        global_stats: dict, global_df: dict,
    ) -> list[tuple[str, float, int]]:
        """This shard's top-``limit`` filtered hits scored with INJECTED
        global stats — per-shard truncation under the (score desc, url asc)
        total order merges exactly (shards are doc-disjoint; the filter is
        a per-doc predicate, so it commutes with sharding)."""
        t = self.engine.search_filtered(
            query, filter_query, collection=collection, limit=limit,
            global_stats=global_stats, global_df=global_df,
        )
        return list(zip(t["url"].to_pylist(), t["score"].to_pylist(),
                        t["docid"].to_pylist()))

    def join_from_partial(
        self, from_query: str, from_field: str, collection: str,
        global_stats: dict, global_df: dict, need_scores: bool = True,
        restrict_query: str | None = None,
    ) -> list[tuple[str, int, float, float, float]]:
        """This shard's from-side join aggregates with INJECTED global
        stats → (value, count, sum, max, min) rows; shards are
        doc-disjoint so the driver fold (count/sum add, max/min fold) is
        exact for every ScoreMode except the float-sum grouping caveat on
        total/avg (SearchEngine.search_join docstring).
        ``need_scores=False`` = ScoreMode.None (boolean matcher, counts
        only)."""
        agg = self.engine.join_from_aggregates(
            from_query, from_field, collection=collection,
            global_stats=global_stats, global_df=global_df,
            need_scores=need_scores, restrict_query=restrict_query,
        )
        return [(v, a[0], a[1], a[2], a[3]) for v, a in agg.items()]

    def boolean_overlap_partial(
        self, query_a: str, query_b: str, collection: str
    ) -> int:
        """This shard's count of docs matching BOTH queries (block-join
        contract probe) — doc-disjoint shards sum exactly."""
        return self.engine.boolean_overlap_count(
            query_a, query_b, collection=collection
        )

    def drill_sideways_partial(
        self, query: str, dims: dict, collection: str
    ) -> dict[str, list[tuple[str, int]]]:
        """This shard's sideways facet counts per dim — integer counts over
        doc-disjoint partitions, so the driver merge is a plain sum."""
        counts = self.engine.drill_sideways_counts(
            query, dims, collection=collection
        )
        return {f: list(acc.items()) for f, acc in counts.items()}

    def classify_partial(
        self, text: str, class_field: str, collection: str
    ) -> tuple[dict, list]:
        """This shard's integer classification statistics — ({class: n_c},
        [(token, class, df)]) — doc-disjoint shards sum exactly."""
        n_c, df = self.engine.classify_partials(
            text, class_field, collection=collection
        )
        return n_c, [(w, c, v) for (w, c), v in df.items()]

    def text_vocab_hashes(self, collection: str):
        """This shard's distinct text-dictionary term hashes (uint64) —
        the 8-bytes/term V-union exchange."""
        return self.engine.text_vocab_hashes(collection)

    def explain_for(
        self, query: str, url: str, collection: str,
        global_stats: dict, global_df: dict,
    ) -> dict:
        """Shard-local explain with INJECTED corpus-global stats — reports
        exactly the numbers the fleet-wide search scored with."""
        return self.engine.explain(
            query, url, collection=collection,
            global_stats=global_stats, global_df=global_df,
        )

    def term_vector_for(
        self, url: str, field: str | None, collection: str,
        with_positions: bool,
    ) -> pa.Table:
        """Shard-local term vector — the doc lives on exactly one shard
        (partition hash routing), so this IS the cluster answer."""
        return self.engine.term_vector(
            url, field=field, collection=collection,
            with_positions=with_positions,
        )

    def sorted_by_partial(
        self, query: str, sort: list, collection: str, limit: int,
        after_keys: "list | None" = None, after_url: str = "",
    ) -> list[tuple]:
        """This shard's top-``limit`` multi-key-sorted hits — per-shard
        truncation under the composite (keys…, url) total order merges
        exactly (doc-disjoint shards).  ``after_keys``/``after_url``:
        the searchAfter(FieldDoc) anchor, applied shard-side before
        truncation (the anchor predicate composes with the total order,
        so post-anchor per-shard top-limit stays lossless)."""
        t = self.engine.search_sorted_by(
            query, [tuple(p) for p in sort], collection=collection,
            limit=limit, after_keys=after_keys, after_url=after_url,
        )
        return [tuple(r.values()) for r in t.to_pylist()]

    def knn_vote_partial(
        self, urls: list, votes: list, class_field: str, collection: str
    ) -> list[tuple[str, int, int]]:
        """This shard's integer class-vote fold for the broadcast hit list
        — (class, vote sum, hit count) rows; alive docs are shard-disjoint
        so the driver merge is a plain sum."""
        u = np.asarray(urls, dtype=object)
        v = np.asarray(votes, dtype=np.int64)
        acc = self.engine.class_votes_for_urls(
            u, v, class_field, collection=collection
        )
        return [(c, a[0], a[1]) for c, a in acc.items()]

    def join_to_partial(
        self, to_field: str, value_scores: dict, score_mode: str,
        collection: str, limit: int,
        restrict_query: str | None = None,
        exclude_query: str | None = None,
    ) -> list[tuple[str, float, int]]:
        """This shard's top-``limit`` to-side join hits for the broadcast
        value→score map — per-shard truncation under the (score desc,
        url asc) total order merges exactly (doc-disjoint shards).
        ``restrict_query``/``exclude_query`` carry the block-join parent
        filter (non-scoring, SearchEngine.join_to_hits contract)."""
        t = self.engine.join_to_hits(
            to_field, value_scores, score_mode, collection=collection,
            limit=limit, restrict_query=restrict_query,
            exclude_query=exclude_query,
        )
        return list(zip(t["url"].to_pylist(), t["score"].to_pylist(),
                        t["docid"].to_pylist()))

    def rescore_partial(
        self, query: str, rescore_query: str, collection: str,
        window_size: int, weight: float, global_stats: dict,
        global_df: dict,
    ) -> list[tuple[str, float, int, float]]:
        """This shard's top-``window_size`` first-pass candidates with
        their combined rescored values, scored with INJECTED global stats
        → (url, combined, docid, first_score).  The GLOBAL first-pass
        window is a subset of the union of per-shard windows under the
        (first desc, url asc) total order, so the driver can re-derive it
        from the ``first_score`` column losslessly; combined values for
        docs outside the global window are simply discarded."""
        t = self.engine.rescore(
            query, rescore_query, collection=collection,
            window_size=window_size, weight=weight, limit=window_size,
            include_first=True, global_stats=global_stats,
            global_df=global_df,
        )
        return list(zip(t["url"].to_pylist(), t["score"].to_pylist(),
                        t["docid"].to_pylist(),
                        t["first_score"].to_pylist()))

    def score(self, qlist: list[dict], method: str, global_stats: dict,
              global_df_by_coll: dict) -> list[dict]:
        rows = []
        for q in qlist:
            res = self.engine.search_partial(
                q["query"], collection=q["collection"], limit=q["limit"],
                method=method, global_stats=global_stats,
                global_df=global_df_by_coll.get(
                    sanitize_collection(q["collection"]), {}
                ),
            )
            for u, s, d in zip(
                res["url"].to_pylist(),
                res["score"].to_pylist(),
                res["docid"].to_pylist(),
            ):
                rows.append({"qid": q["qid"], "url": u, "score": s,
                             "docid": d})
        return rows


class ShardedSearcherService:
    """Persistent distributed searcher: up to ``num_shards`` long-lived
    actors, each pinning one round-robin partition subset; ``search_batch``
    runs the two-phase df-then-score protocol against all of them and merges
    exactly.

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
        self._fields = list(chain[-1].fields)
        self.shard_partitions = [spec["partitions"] for spec in specs]
        # classify's V (distinct text vocab) per collection — a property of
        # the generation-pinned fleet, gathered once per service lifetime
        self._vocab_union_cache: dict[str, int] = {}
        # SPREAD: a serving fleet wants one shard's heap/postings per node
        # slot, not all shards packed onto the head node — balances memory
        # and fans query CPU across the cluster (verified on a real 2-node
        # cluster by scripts/two_node_smoke.py; no-op under address="local")
        self.actors = [
            _ShardActor.options(scheduling_strategy="SPREAD").remote(
                index_root, self.generation, self.cfg, spec["partitions"]
            )
            for spec in specs
        ]

    def facets(
        self, query: str, facet_field: str, collection: str = "default",
        syntax: str = "classic",
    ) -> pa.Table:
        """Cluster-wide facet counts: one parallel round to the fleet, each
        shard counting over its pinned partitions, then an exact per-value
        sum on the driver (docs never overlap across shards).  Same output
        contract as SearchEngine.facets: (value, count), (count desc,
        value asc).  ``syntax='surround'`` is driver-validated first."""
        if syntax == "surround":
            from lucene_plugin_ray.functions.surround import parse_surround

            parse_surround(query, self.cfg.text_column)
        elif syntax != "classic":
            raise ValueError(
                f"syntax must be 'classic' or 'surround', got {syntax!r}"
            )
        parts = ray.get(
            [a.facet_partial.remote(query, facet_field, collection, syntax)
             for a in self.actors]
        )
        counts: dict[str, int] = {}
        for rows in parts:
            for v, c in rows:
                counts[v] = counts.get(v, 0) + c
        items = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return pa.table(
            {
                "value": pa.array([k for k, _ in items], pa.string()),
                "count": pa.array([v for _, v in items], pa.int64()),
            }
        )

    def facets_taxonomy(
        self,
        query: str,
        dim_fields,
        collection: str = "default",
        top_n: int | None = None,
    ) -> pa.Table:
        """Cluster-wide hierarchical facets: per-shard (path, count)
        partials summed exactly on the driver (doc-disjoint shards), then
        the SAME taxonomy_table formatter the single engine uses — top_n
        pruning runs on the merged exact counts, so the result is
        identical to SearchEngine.facets_taxonomy by construction."""
        fields = validate_taxonomy_fields(
            dim_fields, self.cfg.field_columns
        )  # reject bad input before any fan-out
        parts = ray.get(
            [a.facets_taxonomy_partial.remote(query, fields, collection)
             for a in self.actors]
        )
        counts: dict[tuple[str, ...], int] = {}
        for rows in parts:
            for p, c in rows:
                key = tuple(p)
                counts[key] = counts.get(key, 0) + c
        return taxonomy_table(counts, top_n)

    def count(self, query: str, collection: str = "default",
              syntax: str = "classic") -> int:
        """Cluster-wide match count: per-shard boolean counts summed on the
        driver (shards are doc-disjoint).  ``syntax='surround'`` counts
        span matches (validated on the driver first — bad syntax costs
        zero remote work)."""
        if syntax == "surround":
            from lucene_plugin_ray.functions.surround import parse_surround

            parse_surround(query, self.cfg.text_column)
        elif syntax != "classic":
            raise ValueError(
                f"syntax must be 'classic' or 'surround', got {syntax!r}"
            )
        return sum(
            ray.get([a.count_partial.remote(query, collection, syntax)
                     for a in self.actors])
        )

    def search_sorted(
        self,
        query: str,
        collection: str = "default",
        limit: int | None = None,
        descending: bool = True,
        after_ts: int | None = None,
        after_url: str = "",
    ) -> pa.Table:
        """Cluster-wide recency-sorted search: per-shard top-``limit``
        under the (warc_ts, url) total order, exact driver merge — same
        contract as SearchEngine.search_sorted incl. the
        searchAfter(FieldDoc) anchor for sorted deep pagination."""
        limit = limit if limit is not None else self.cfg.result_limit
        if after_ts is not None:
            after_ts = int(after_ts)
            if not isinstance(after_url, str):
                raise ValueError("after_url must be a string")
        parts = ray.get(
            [a.sorted_partial.remote(query, collection, limit, descending,
                                     after_ts, after_url)
             for a in self.actors]
        )
        rows = [r for p in parts for r in p]
        rows.sort(key=lambda r: ((-r[1] if descending else r[1]), r[0]))
        rows = rows[:limit]
        return pa.table(
            {
                "url": pa.array([r[0] for r in rows], pa.string()),
                "warc_ts": pa.array([r[1] for r in rows], pa.int64()),
                "docid": pa.array([r[2] for r in rows], pa.int64()),
            }
        )

    def suggest(
        self,
        term: str,
        collection: str = "default",
        field: str | None = None,
        max_edits: int = 2,
        k: int = 5,
    ) -> pa.Table:
        """Cluster-wide spell suggestion: per-shard candidate (term,
        distance, df-partial) rows, driver sums df per term (doc-disjoint
        shards) then applies the global (distance asc, df desc, term asc)
        rank — identical to SearchEngine.suggest on the whole index."""
        parts = ray.get(
            [a.suggest_partial.remote(term, collection, field, max_edits)
             for a in self.actors]
        )
        dfs: dict[str, int] = {}
        dists: dict[str, int] = {}
        for p in parts:
            for t, d, df in p:
                dfs[t] = dfs.get(t, 0) + df
                dists[t] = d
        items = sorted(
            ((t, dists[t], df) for t, df in dfs.items()),
            key=lambda x: (x[1], -x[2], x[0]),
        )[:k]
        return pa.table(
            {
                "term": pa.array([t for t, _, _ in items], pa.string()),
                "distance": pa.array([d for _, d, _ in items], pa.int64()),
                "df": pa.array([f for _, _, f in items], pa.int64()),
            }
        )

    def facets_stats(
        self,
        query: str,
        facet_field: str,
        value_source: str = "doc_len",
        collection: str = "default",
    ) -> pa.Table:
        """Cluster-wide numeric facet aggregation: per-shard integer
        partials folded exactly on the driver (count/sum add, min/max
        fold) — identical to SearchEngine.facets_stats on the whole
        index."""
        if value_source not in ("doc_len", "warc_ts"):
            # validate BEFORE the cluster fan-out: a typo should be a
            # ValueError on the driver, not a RayTaskError from every shard
            raise ValueError(
                "value_source must be 'doc_len' or 'warc_ts', got "
                f"{value_source!r}"
            )
        parts = ray.get(
            [a.facet_stats_partial.remote(
                query, facet_field, value_source, collection)
             for a in self.actors]
        )
        acc: dict[str, list[int]] = {}
        for p in parts:
            for v, c, lo, hi, sm in p:
                a = acc.get(v)
                if a is None:
                    acc[v] = [c, lo, hi, sm]
                else:
                    a[0] += c
                    a[1] = min(a[1], lo)
                    a[2] = max(a[2], hi)
                    a[3] += sm
        return facet_stats_table(acc)

    def search_grouped(
        self,
        query: str,
        group_field: str,
        collection: str = "default",
        group_limit: int = 10,
        docs_per_group: int = 3,
    ) -> pa.Table:
        """Cluster-wide grouped top-k: phase-1 global df gather (the search
        protocol), per-shard untruncated-group partials, then the exact
        driver merge — per group, the global top docs_per_group from the
        union of per-shard tops; groups ranked by their merged head.
        Identical to SearchEngine.search_grouped on the whole index."""
        if group_limit <= 0 or docs_per_group <= 0:
            raise ValueError("group_limit and docs_per_group must be positive")
        if group_field not in self.cfg.field_columns:
            raise ValueError(
                f"group_field {group_field!r} is not an indexed metadata "
                f"field (have: {sorted(self.cfg.field_columns)})"
            )
        sc = sanitize_collection(collection)
        clauses = parse_query(query, default_field=self.cfg.text_column)
        terms = {sc: sorted(set(scored_term_keys(clauses)))}
        global_stats, global_df = self._gather_global(terms)
        parts = ray.get(
            [a.grouped_partial.remote(
                query, group_field, collection, docs_per_group,
                global_stats, global_df.get(sc, {}))
             for a in self.actors]
        )
        groups: dict[str, list[tuple[str, float, int]]] = {}
        for p in parts:
            for g, u, s_, d in p:
                groups.setdefault(g, []).append((u, s_, d))
        return rank_grouped_table(groups, group_limit, docs_per_group)

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
        if k <= 0:
            raise ValueError("k must be positive")
        field = field or self.cfg.text_column
        known_fields = {self.cfg.text_column, *self.cfg.field_columns}
        if field not in known_fields:
            raise ValueError(
                f"unknown field {field!r} (indexed: {sorted(known_fields)})"
            )
        kp = max(k, 16)
        while True:
            parts = ray.get(
                [a.top_terms_partial.remote(field, collection, kp)
                 for a in self.actors]
            )
            taus = [
                (p[-1][1] if len(p) >= kp else 0) for p in parts
            ]
            known: dict[str, int] = {}
            for p in parts:
                for t, df in p:
                    known[t] = known.get(t, 0) + df
            lower = sorted(known.values(), reverse=True)
            L = lower[k - 1] if len(lower) >= k else 0
            # strict <: an unseen term's df can EQUAL Σ τ_s and would tie
            # into the (df desc, term asc) rank
            if sum(taus) < L or all(t == 0 for t in taus):
                break
            if kp >= 2**31 - 1:
                break  # full vocabularies fetched — nothing is unseen
            kp = min(kp * 4, 2**31 - 1)
        seen_by_shard = [set(t for t, _ in p) for p in parts]
        cand = [
            t for t, lo in known.items()
            if lo + sum(
                tau for s_seen, tau in zip(seen_by_shard, taus)
                if t not in s_seen
            ) >= L
        ]
        exact: dict[str, int] = {t: 0 for t in cand}
        if cand:
            lookups = ray.get(
                [a.dfs_for.remote(field, cand, collection)
                 for a in self.actors]
            )
            for lk in lookups:
                for t, df in lk.items():
                    exact[t] += df
        exact = {t: df for t, df in exact.items() if df > 0}
        return rank_completions_table(exact, k)

    def facet_ranges(
        self,
        query: str,
        ranges: list[tuple],
        value_source: str = "doc_len",
        collection: str = "default",
    ) -> pa.Table:
        """Cluster-wide numeric range faceting: per-shard integer count
        partials over doc-disjoint partitions, driver sum — identical to
        SearchEngine.facet_ranges on the whole index.  Validation runs on
        the driver BEFORE the fan-out."""
        from lucene_plugin_ray.pipelines.query import _normalize_ranges

        if value_source not in ("doc_len", "warc_ts"):
            raise ValueError(
                "value_source must be 'doc_len' or 'warc_ts', got "
                f"{value_source!r}"
            )
        norm = _normalize_ranges(ranges)
        parts = ray.get(
            [a.facet_ranges_partial.remote(
                query, norm, value_source, collection)
             for a in self.actors]
        )
        counts = np.zeros(len(norm), dtype=np.int64)
        for p in parts:
            counts += np.asarray(p, dtype=np.int64)
        return pa.table(
            {
                "label": pa.array([r_[0] for r_ in norm], pa.string()),
                "count": pa.array(counts, pa.int64()),
            }
        )

    def search_function(
        self,
        query: str,
        now_us: int,
        scale_us: int,
        collection: str = "default",
        limit: int | None = None,
    ) -> pa.Table:
        """Cluster-wide function-scored search (recency decay): phase-1
        global df gather, per-shard post-weight top-``limit`` partials
        with injected global stats, exact driver merge under the
        (final desc, url asc) total order — identical to
        SearchEngine.search_function on the whole index."""
        if int(scale_us) <= 0:
            raise ValueError("scale_us must be positive")
        limit = limit if limit is not None else self.cfg.result_limit
        if limit <= 0:
            raise ValueError("limit must be positive")
        sc = sanitize_collection(collection)
        clauses = parse_query(query, default_field=self.cfg.text_column)
        terms = {sc: sorted(set(scored_term_keys(clauses)))}
        global_stats, global_df = self._gather_global(terms)
        parts = ray.get(
            [a.search_function_partial.remote(
                query, int(now_us), int(scale_us), collection, limit,
                global_stats, global_df.get(sc, {}))
             for a in self.actors]
        )
        rows = [r for p in parts for r in p]
        if not rows:
            return pa.table(
                {"url": pa.array([], pa.string()),
                 "score": pa.array([], pa.float64()),
                 "docid": pa.array([], pa.int64())}
            )
        url = np.array([r[0] for r in rows], dtype=object)
        score = np.array([r[1] for r in rows], dtype=np.float64)
        docid = np.array([r[2] for r in rows], dtype=np.int64)
        order = np.lexsort((url, -score))[:limit]
        return pa.table(
            {
                "url": pa.array(url[order], type=pa.string()),
                "score": pa.array(score[order], type=pa.float64()),
                "docid": pa.array(docid[order], type=pa.int64()),
            }
        )

    def search_surround(
        self,
        query: str,
        collection: str = "default",
        limit: int | None = None,
    ) -> "pa.Table":
        """Cluster-wide surround-language search: driver-side parse (bad
        syntax costs zero remote work), W/N clauses travel STRUCTURED
        through the generic score() path with injected global stats —
        identical to SearchEngine.search_surround on the whole index."""
        from lucene_plugin_ray.functions.surround import parse_surround

        limit = limit if limit is not None else self.cfg.result_limit
        if limit <= 0:
            raise ValueError("limit must be positive")
        sc = sanitize_collection(collection)
        clauses = parse_surround(query, self.cfg.text_column)
        terms = {sc: sorted(set(scored_term_keys(clauses)))}
        global_stats, global_df = self._gather_global(terms)
        return self._phase2_merge(
            [{"qid": 0, "collection": collection, "query": tuple(clauses),
              "limit": limit}],
            "taat", global_stats, global_df,
        ).select(["url", "score", "docid"])

    def search_common(
        self,
        query: str,
        max_term_frequency: float = 0.01,
        collection: str = "default",
        limit: int | None = None,
    ) -> "pa.Table":
        """Cluster-wide CommonTermsQuery: the driver validates, gathers
        corpus-global dfs for ALL terms (one fleet round — the same dfs
        the scoring pass needs), classifies low/high with the SHARED
        rewrite and ships the rewritten clause tuple structured through
        the generic score() path — identical to SearchEngine.search_common
        on the whole index because the cutoff sees the same global dfs."""
        from lucene_plugin_ray.pipelines.query import (
            common_terms_parse,
            common_terms_rewrite,
        )

        limit = limit if limit is not None else self.cfg.result_limit
        if limit <= 0:
            raise ValueError("limit must be positive")
        sc = sanitize_collection(collection)
        term_clauses = common_terms_parse(
            query, max_term_frequency, self.cfg.text_column
        )
        terms = {sc: sorted(set(scored_term_keys(term_clauses)))}
        global_stats, global_df = self._gather_global(terms)
        n_docs = int(global_stats.get(sc, {}).get("n_docs", 0))
        clauses = common_terms_rewrite(
            term_clauses, max_term_frequency, global_df.get(sc, {}), n_docs
        )
        if not clauses:
            return pa.table(
                {"url": pa.array([], pa.string()),
                 "score": pa.array([], pa.float64()),
                 "docid": pa.array([], pa.int64())}
            )
        return self._phase2_merge(
            [{"qid": 0, "collection": collection, "query": tuple(clauses),
              "limit": limit}],
            "taat", global_stats, global_df,
        ).select(["url", "score", "docid"])

    def search_boosting(
        self,
        positive_query: str,
        negative_query: str,
        demote: float = 0.2,
        collection: str = "default",
        limit: int | None = None,
    ) -> "pa.Table":
        """Cluster-wide BoostingQuery: driver validation, phase-1 global
        df gather over the POSITIVE query's scored terms only (the
        negative side is a mask, never a statistics contributor), exact
        per-shard post-demotion top-``limit`` merge — identical to
        SearchEngine.search_boosting on the whole index."""
        if not (0.0 < demote < 1.0):
            raise ValueError("demote must be in (0, 1)")
        limit = limit if limit is not None else self.cfg.result_limit
        if limit <= 0:
            raise ValueError("limit must be positive")
        sc = sanitize_collection(collection)
        clauses = parse_query(
            positive_query, default_field=self.cfg.text_column
        )
        if not parse_query(negative_query, default_field=self.cfg.text_column):
            raise ValueError(
                "negative_query must contain at least one clause"
            )
        terms = {sc: sorted(set(scored_term_keys(clauses)))}
        global_stats, global_df = self._gather_global(terms)
        parts = ray.get(
            [a.search_boosting_partial.remote(
                positive_query, negative_query, demote, collection, limit,
                global_stats, global_df.get(sc, {}))
             for a in self.actors]
        )
        return self._merge_hit_partials(parts, limit)

    def search_diversified(
        self,
        query: str,
        key_field: str,
        max_per_key: int = 1,
        collection: str = "default",
        limit: int | None = None,
    ) -> "pa.Table":
        """Cluster-wide diversified top-k (DiversifiedTopDocsCollector):
        driver validation, phase-1 global df gather, per-shard diversified
        top-``limit`` partials, then ONE more cap-then-truncate pass on
        the driver — exact because greedy selection under the total order
        is idempotent under recapping (see _diversify_hits)."""
        from lucene_plugin_ray.pipelines.query import _diversify_hits

        if max_per_key <= 0:
            raise ValueError("max_per_key must be positive")
        limit = limit if limit is not None else self.cfg.result_limit
        if limit <= 0:
            raise ValueError("limit must be positive")
        if key_field == self.cfg.text_column or key_field not in self._fields:
            raise ValueError(
                f"unsupported key field {key_field!r}: use an indexed "
                "metadata field of this index"
            )
        sc = sanitize_collection(collection)
        clauses = parse_query(query, default_field=self.cfg.text_column)
        terms = {sc: sorted(set(scored_term_keys(clauses)))}
        global_stats, global_df = self._gather_global(terms)
        parts = ray.get(
            [a.search_diversified_partial.remote(
                query, key_field, max_per_key, collection, limit,
                global_stats, global_df.get(sc, {}))
             for a in self.actors]
        )
        rows = [r for p in parts for r in p]
        merged = pa.table(
            {
                "url": pa.array([r[0] for r in rows], pa.string()),
                "score": pa.array([r[1] for r in rows], pa.float64()),
                "key": pa.array([r[2] for r in rows], pa.string()),
                "docid": pa.array([r[3] for r in rows], pa.int64()),
            }
        )
        return _diversify_hits(merged, max_per_key, limit)

    def search_expression(
        self,
        query: str,
        expression: str,
        bindings: dict | None = None,
        collection: str = "default",
        limit: int | None = None,
    ) -> pa.Table:
        """Cluster-wide expression-scored search (expressions module):
        driver-side compile/validation BEFORE fan-out (bad source or an
        unknown variable costs zero remote work), phase-1 global df
        gather, per-shard post-expression top-``limit`` partials with
        injected stats, exact driver merge — identical to
        SearchEngine.search_expression on the whole index."""
        from lucene_plugin_ray.functions.expressions import (
            _RESERVED_VARIABLES,
            compile_expression,
            validate_bindings,
        )

        bindings = validate_bindings(bindings)
        compile_expression(
            expression, set(_RESERVED_VARIABLES) | set(bindings)
        )
        limit = limit if limit is not None else self.cfg.result_limit
        if limit <= 0:
            raise ValueError("limit must be positive")
        sc = sanitize_collection(collection)
        clauses = parse_query(query, default_field=self.cfg.text_column)
        terms = {sc: sorted(set(scored_term_keys(clauses)))}
        global_stats, global_df = self._gather_global(terms)
        parts = ray.get(
            [a.search_expression_partial.remote(
                query, expression, bindings, collection, limit,
                global_stats, global_df.get(sc, {}))
             for a in self.actors]
        )
        return self._merge_hit_partials(parts, limit)

    def search_expression_range(
        self,
        query: str,
        expression: str,
        lo: float | None = None,
        hi: float | None = None,
        bindings: dict | None = None,
        collection: str = "default",
        limit: int | None = None,
    ) -> "pa.Table":
        """Cluster-wide FunctionRangeQuery: the search_expression protocol
        with the [lo, hi] predicate applied shard-side before truncation
        (a row predicate composes with the total order, so the merge is
        exact) — identical to SearchEngine.search_expression_range."""
        from lucene_plugin_ray.functions.expressions import (
            _RESERVED_VARIABLES,
            compile_expression,
            validate_bindings,
        )

        if lo is None and hi is None:
            raise ValueError("at least one of lo/hi must be given")
        if lo is not None and hi is not None and lo > hi:
            raise ValueError(f"empty range: lo {lo} > hi {hi}")
        bindings = validate_bindings(bindings)
        compile_expression(
            expression, set(_RESERVED_VARIABLES) | set(bindings)
        )
        limit = limit if limit is not None else self.cfg.result_limit
        if limit <= 0:
            raise ValueError("limit must be positive")
        sc = sanitize_collection(collection)
        clauses = parse_query(query, default_field=self.cfg.text_column)
        terms = {sc: sorted(set(scored_term_keys(clauses)))}
        global_stats, global_df = self._gather_global(terms)
        parts = ray.get(
            [a.search_expression_partial.remote(
                query, expression, bindings, collection, limit,
                global_stats, global_df.get(sc, {}), (lo, hi))
             for a in self.actors]
        )
        return self._merge_hit_partials(parts, limit)

    def search_filtered(
        self,
        query: str,
        filter_query: str,
        collection: str = "default",
        limit: int | None = None,
    ) -> pa.Table:
        """Cluster-wide filtered search — identical to
        SearchEngine.search_filtered on the whole index: phase-1 global df
        gather over the QUERY's scored terms only (the filter never touches
        statistics), per-shard filtered top-``limit`` with injected stats,
        exact driver merge under the (score desc, url asc) total order."""
        limit = limit if limit is not None else self.cfg.result_limit
        if limit <= 0:
            raise ValueError("limit must be positive")
        sc = sanitize_collection(collection)
        clauses = parse_query(query, default_field=self.cfg.text_column)
        fclauses = parse_query(
            filter_query, default_field=self.cfg.text_column
        )
        if not fclauses:
            raise ValueError("filter_query must contain at least one clause")
        terms = {sc: sorted(set(scored_term_keys(clauses)))}
        global_stats, global_df = self._gather_global(terms)
        parts = ray.get(
            [a.filtered_partial.remote(
                query, filter_query, collection, limit, global_stats,
                global_df.get(sc, {}))
             for a in self.actors]
        )
        return self._merge_hit_partials(parts, limit)

    # ---- span-query family --------------------------------------------
    def _span_search(self, clause, collection: str, limit: int | None) -> "pa.Table":
        """Shared sharded span execution: the driver-validated SpanClause
        travels structured to every shard (search_partial accepts clause
        tuples), phase-1 gathers global df over the INCLUDE terms only
        (exclude terms mask, never score — SpanWeight parity), and the
        per-shard top-``limit`` partials merge exactly under the
        (score desc, url asc) total order because span scores are a pure
        function of (freq, dl, injected global stats) — doc-disjoint
        shards cannot disagree."""
        limit = limit if limit is not None else self.cfg.result_limit
        if limit <= 0:
            raise ValueError("limit must be positive")
        sc = sanitize_collection(collection)
        terms = {sc: sorted({(clause.field, t) for t in clause.terms})}
        global_stats, global_df = self._gather_global(terms)
        return self._phase2_merge(
            [{"qid": 0, "collection": collection, "query": (clause,),
              "limit": limit}],
            "taat", global_stats, global_df,
        ).select(["url", "score", "docid"])

    def span_near(
        self,
        terms,
        slop: int = 0,
        in_order: bool = True,
        collection: str = "default",
        field: str | None = None,
        limit: int | None = None,
    ) -> "pa.Table":
        """Cluster-wide SpanNearQuery — identical to SearchEngine.span_near
        on the whole index (driver validation, injected global stats,
        exact merge)."""
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

    def search_join(
        self,
        from_query: str,
        from_field: str,
        to_field: str,
        score_mode: str = "max",
        collection: str = "default",
        limit: int | None = None,
    ) -> pa.Table:
        """Cluster-wide query-time join (JoinUtil analogue) — identical to
        SearchEngine.search_join on the whole index for score_mode
        none/max/min (order-free folds); total/avg sum float64 partials in
        shard order (the usual distributed-float-sum grouping caveat).
        Two fan-outs: from-side (value, count, sum, max, min) partials
        with injected global stats, driver fold → value→score map
        broadcast to the to-side top-``limit`` partials, exact driver
        merge under the (score desc, url asc) total order.  Driver traffic
        is O(S·|from vocab| + S·limit) rows — never corpus-sized."""
        limit = limit if limit is not None else self.cfg.result_limit
        if limit <= 0:
            raise ValueError("limit must be positive")
        if score_mode not in _JOIN_MODES:
            raise ValueError(
                f"score_mode must be one of {_JOIN_MODES}, got {score_mode!r}"
            )
        for name, f in (("from_field", from_field), ("to_field", to_field)):
            if f not in self.cfg.field_columns:
                raise ValueError(
                    f"{name} {f!r} is not an indexed metadata field "
                    f"(have: {sorted(self.cfg.field_columns)})"
                )
        sc = sanitize_collection(collection)
        need_scores = score_mode != "none"
        if need_scores:
            clauses = parse_query(
                from_query, default_field=self.cfg.text_column
            )
            terms = {sc: sorted(set(scored_term_keys(clauses)))}
            global_stats, global_df = self._gather_global(terms)
        else:  # ScoreMode.None: boolean matching, no stats round needed
            global_stats, global_df = {}, {}
        parts = ray.get(
            [a.join_from_partial.remote(
                from_query, from_field, collection, global_stats,
                global_df.get(sc, {}), need_scores)
             for a in self.actors]
        )
        value_scores = SearchEngine.join_value_scores(
            self._fold_join_partials(parts), score_mode
        )
        hit_parts = ray.get(
            [a.join_to_partial.remote(
                to_field, value_scores, score_mode, collection, limit)
             for a in self.actors]
        )
        return self._merge_hit_partials(hit_parts, limit)

    @staticmethod
    def _fold_join_partials(parts: list) -> dict[str, list]:
        """Exact driver fold of per-shard (value, count, sum, max, min)
        join partials (actor order — deterministic; count/max/min are
        order-free, float sums carry the documented grouping caveat)."""
        agg: dict[str, list] = {}
        for p in parts:
            for v, c, s_, mx, mn in p:
                a = agg.get(v)
                if a is None:
                    agg[v] = [c, s_, mx, mn]
                else:
                    a[0] += c
                    a[1] += s_
                    a[2] = max(a[2], mx)
                    a[3] = min(a[3], mn)
        return agg

    def _validate_block_join(
        self, parent_filter: str, block_field: str, limit: int | None
    ) -> int:
        """Block-join input validation — BEFORE any cluster fan-out, so bad
        input costs zero remote work and errors match the single engine."""
        limit = limit if limit is not None else self.cfg.result_limit
        if limit <= 0:
            raise ValueError("limit must be positive")
        if block_field not in self.cfg.field_columns:
            raise ValueError(
                f"block_field {block_field!r} is not an indexed metadata "
                f"field (have: {sorted(self.cfg.field_columns)})"
            )
        if not parse_query(parent_filter, default_field=self.cfg.text_column):
            raise ValueError("parent_filter must contain at least one clause")
        return limit

    def _block_join_common(
        self,
        query: str,
        block_field: str,
        collection: str,
        need_scores: bool,
        restrict_query: str | None,
    ) -> dict[str, list]:
        """Shared block-join plumbing: global-stats gather for the scored
        query and the exact from-side partial fold."""
        sc = sanitize_collection(collection)
        if need_scores:
            clauses = parse_query(query, default_field=self.cfg.text_column)
            terms = {sc: sorted(set(scored_term_keys(clauses)))}
            global_stats, global_df = self._gather_global(terms)
        else:
            global_stats, global_df = {}, {}
        parts = ray.get(
            [a.join_from_partial.remote(
                query, block_field, collection, global_stats,
                global_df.get(sc, {}), need_scores, restrict_query)
             for a in self.actors]
        )
        return self._fold_join_partials(parts)

    @staticmethod
    def _merge_hit_partials(hit_parts: list, limit: int) -> pa.Table:
        rows = [r for p in hit_parts for r in p]
        rows.sort(key=lambda r: (-r[1], r[0]))
        rows = rows[:limit]
        return pa.table(
            {
                "url": pa.array([r[0] for r in rows], pa.string()),
                "score": pa.array([r[1] for r in rows], pa.float64()),
                "docid": pa.array([r[2] for r in rows], pa.int64()),
            }
        )

    def block_join_parents(
        self,
        child_query: str,
        parent_filter: str,
        block_field: str,
        score_mode: str = "max",
        collection: str = "default",
        limit: int | None = None,
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
        fan-out; the to-side partials apply the parent filter as a
        non-scoring restriction before their exact per-shard truncation."""
        if score_mode not in _JOIN_MODES:
            raise ValueError(
                f"score_mode must be one of {_JOIN_MODES}, got {score_mode!r}"
            )
        limit = self._validate_block_join(parent_filter, block_field, limit)
        overlaps = ray.get(
            [a.boolean_overlap_partial.remote(
                child_query, parent_filter, collection)
             for a in self.actors]
        )
        n_bad = sum(overlaps)
        if n_bad:
            raise ValueError(
                f"child_query matches {n_bad} parent doc(s) — "
                "ToParentBlockJoinQuery requires the child query to match "
                "only non-parent docs"
            )
        agg = self._block_join_common(
            child_query, block_field, collection,
            need_scores=score_mode != "none", restrict_query=None,
        )
        value_scores = SearchEngine.join_value_scores(agg, score_mode)
        hit_parts = ray.get(
            [a.join_to_partial.remote(
                block_field, value_scores, score_mode, collection, limit,
                parent_filter, None)
             for a in self.actors]
        )
        return self._merge_hit_partials(hit_parts, limit)

    def block_join_children(
        self,
        parent_query: str,
        parent_filter: str,
        block_field: str,
        collection: str = "default",
        limit: int | None = None,
        score: bool = True,
    ) -> pa.Table:
        """Cluster-wide ToChildBlockJoinQuery (SearchEngine
        .block_join_children semantics): parent scores fold under max
        across shards (order-free — bit-identical to the single engine),
        children gathered with the parent filter as a non-scoring
        exclusion before exact per-shard truncation."""
        limit = self._validate_block_join(parent_filter, block_field, limit)
        agg = self._block_join_common(
            parent_query, block_field, collection,
            need_scores=score, restrict_query=parent_filter,
        )
        value_scores = SearchEngine.join_value_scores(
            agg, "max" if score else "none"
        )
        hit_parts = ray.get(
            [a.join_to_partial.remote(
                block_field, value_scores, "max", collection, limit,
                None, parent_filter)
             for a in self.actors]
        )
        return self._merge_hit_partials(hit_parts, limit)

    def classify(
        self,
        text: str,
        class_field: str,
        collection: str = "default",
    ) -> pa.Table:
        """Cluster-wide naive-Bayes classification (classification-module
        analogue) — bit-identical to SearchEngine.classify on the whole
        index up to 64-bit hash collisions in the vocabulary union: the
        (n_c, df) partials are exact integer sums over doc-disjoint
        shards, V is the union of per-shard term-hash sets (8 bytes/term
        driver traffic instead of the strings), and the scoring fold is
        the shared driver-side naive_bayes_table."""
        from lucene_plugin_ray.functions.analysis import analyze
        from lucene_plugin_ray.pipelines.query import naive_bayes_table

        toks = analyze(text)
        if not toks:
            raise ValueError("text analyzed to zero tokens")
        if class_field not in self.cfg.field_columns:
            raise ValueError(
                f"class_field {class_field!r} is not an indexed metadata "
                f"field (have: {sorted(self.cfg.field_columns)})"
            )
        # launch the per-probe partials and (on the first call only) the
        # vocab-hash gather as ONE parallel fleet round; V is a property of
        # the generation-pinned fleet, cached per collection thereafter —
        # the big per-shard hash arrays ship once per service lifetime
        part_refs = [
            a.classify_partial.remote(text, class_field, collection)
            for a in self.actors
        ]
        vocab = self._vocab_union_cache.get(collection)
        if vocab is None:
            hashes = ray.get(
                [a.text_vocab_hashes.remote(collection) for a in self.actors]
            )
            nonempty = [h for h in hashes if h.size]
            vocab = (
                int(np.unique(np.concatenate(nonempty)).size)
                if nonempty else 0
            )
            self._vocab_union_cache[collection] = vocab
        parts = ray.get(part_refs)
        n_c: dict[str, int] = {}
        df: dict[tuple[str, str], int] = {}
        for nc_p, df_p in parts:
            for c, v in nc_p.items():
                n_c[c] = n_c.get(c, 0) + v
            for w, c, v in df_p:
                df[(w, c)] = df.get((w, c), 0) + v
        return naive_bayes_table(toks, n_c, df, vocab)

    def _validate_tv_field(self, field: str | None) -> None:
        """Driver-side term-vector field validation — one definition so the
        sharded and federated error shapes cannot drift."""
        f = field if field is not None else self.cfg.text_column
        if f not in (self.cfg.text_column, *self.cfg.field_columns):
            raise ValueError(
                f"field {f!r} is not analyzed (have: "
                f"{sorted((self.cfg.text_column, *self.cfg.field_columns))})"
            )

    def term_vector(
        self,
        url: str,
        field: str | None = None,
        collection: str = "default",
        with_positions: bool = True,
    ) -> pa.Table:
        """Cluster-wide term vector: driver-side field validation, then ONE
        remote gather on the shard owning the url's partition (the explain
        routing — partition assignment is a pure hash of (collection, url),
        no broadcast probe).  The doc lives on exactly one shard, so the
        shard answer IS the cluster answer — identical to
        SearchEngine.term_vector by construction.  Raises KeyError when the
        url is not live."""
        sc = sanitize_collection(collection)
        self._validate_tv_field(field)
        from lucene_plugin_ray.functions.hashing import partition_of_key

        p = partition_of_key(sc, url, self.num_partitions)
        owner = next(
            i for i, parts in enumerate(self.shard_partitions) if p in parts
        )
        try:
            return ray.get(
                self.actors[owner].term_vector_for.remote(
                    url, field, collection, with_positions
                )
            )
        except ray.exceptions.RayTaskError as e:
            if isinstance(e.cause, KeyError):
                raise KeyError(
                    f"url {url!r} not live in collection {collection!r}"
                ) from None
            raise

    def explain(
        self, query: str, url: str, collection: str = "default"
    ) -> dict:
        """Cluster-wide explain — identical numbers to the sharded search:
        phase-1 global stats/df gather, then ONE remote explain on the
        shard owning the url's partition (partition assignment is a pure
        hash of (collection, url), stable across generations — no
        broadcast probe).  Raises KeyError when the url is not live."""
        sc = sanitize_collection(collection)
        clauses = parse_query(query, default_field=self.cfg.text_column)
        terms = {sc: sorted(set(scored_term_keys(clauses)))}
        global_stats, global_df = self._gather_global(terms)
        from lucene_plugin_ray.functions.hashing import partition_of_key

        p = partition_of_key(sc, url, self.num_partitions)
        owner = next(
            i for i, parts in enumerate(self.shard_partitions) if p in parts
        )
        try:
            return ray.get(
                self.actors[owner].explain_for.remote(
                    query, url, collection, global_stats,
                    global_df.get(sc, {}),
                )
            )
        except ray.exceptions.RayTaskError as e:
            if isinstance(e.cause, KeyError):
                raise KeyError(
                    f"url {url!r} not live in collection {collection!r}"
                ) from None
            raise

    def search_sorted_by(
        self,
        query: str,
        sort: list,
        collection: str = "default",
        limit: int | None = None,
        after_keys: "list | None" = None,
        after_url: str = "",
    ) -> pa.Table:
        """Cluster-wide multi-key sorted search — identical to
        SearchEngine.search_sorted_by on the whole index: per-shard
        top-``limit`` partials under the composite total order, exact
        driver merge (integer and STRING keys — strings merge on the
        actual terms via the shared mixed-key kernel, no float caveat)."""
        from lucene_plugin_ray.pipelines.query import (
            _NUMERIC_SORT_FIELDS,
            sort_order_mixed,
        )

        limit = limit if limit is not None else self.cfg.result_limit
        if limit <= 0:
            raise ValueError("limit must be positive")
        if not sort:
            raise ValueError("sort must name at least one (field, dir) pair")
        fields = [tuple(p) for p in sort]
        seen = set()
        for f, d in fields:  # driver-side validation before any fan-out
            if f not in _NUMERIC_SORT_FIELDS:
                # STRING sort over an indexed metadata field (the manifest
                # carries the authoritative field list); the text column
                # is rejected like Lucene's tokenized-field sort
                if f == self.cfg.text_column or f not in self._fields:
                    raise ValueError(
                        f"unsupported sort field {f!r}: sortable are "
                        f"'warc_ts', 'doc_len' or an indexed metadata "
                        f"field of this index"
                    )
            if d not in ("asc", "desc"):
                raise ValueError(f"sort direction must be asc|desc, got {d!r}")
            if f in seen:
                raise ValueError(f"duplicate sort field {f!r}")
            seen.add(f)
        if after_keys is not None and len(after_keys) != len(fields):
            raise ValueError(
                f"after_keys must carry one value per sort field "
                f"({len(fields)}), got {len(after_keys)}"
            )
        parts = ray.get(
            [a.sorted_by_partial.remote(query, fields, collection, limit,
                                        after_keys, after_url)
             for a in self.actors]
        )
        rows = [r for p in parts for r in p]
        # row shape: (url, key1, ..., keyN, docid) — the exact engine
        # order via the shared mixed-key kernel (string keys re-ranked
        # over the union, so shard-local truncation merges exactly)
        str_fields = {f for f, _ in fields if f not in _NUMERIC_SORT_FIELDS}
        if rows:
            urls = np.array([r[0] for r in rows], dtype=object)
            keys = [
                np.array([r[1 + i] for r in rows], dtype=object)
                if f in str_fields
                else np.array([r[1 + i] for r in rows], dtype=np.int64)
                for i, (f, _d) in enumerate(fields)
            ]
            order = sort_order_mixed(urls, keys, fields)[:limit]
            rows = [rows[int(j)] for j in order]
        return pa.table(
            {
                "url": pa.array([r[0] for r in rows], pa.string()),
                **{
                    f: pa.array(
                        [r[1 + i] for r in rows],
                        pa.string() if f in str_fields else pa.int64(),
                    )
                    for i, (f, _d) in enumerate(fields)
                },
                "docid": pa.array([r[-1] for r in rows], pa.int64()),
            }
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
        units, and per-shard vote partials (doc-disjoint alive docs) sum
        on the driver."""
        if class_field not in self.cfg.field_columns:
            raise ValueError(
                f"class_field {class_field!r} is not an indexed metadata "
                f"field (have: {sorted(self.cfg.field_columns)})"
            )
        hits = self.more_like_this(
            text, collection=collection,
            max_query_terms=max_query_terms, limit=k,
            exclude_url=exclude_url,
        )
        if hits.num_rows == 0:
            return knn_vote_table({})
        urls = hits["url"].to_numpy(zero_copy_only=False)
        votes = score_to_vote_units(hits["score"].to_numpy())
        order = np.argsort(urls)
        u = urls[order].tolist()
        v = votes[order].tolist()
        parts = ray.get(
            [a.knn_vote_partial.remote(u, v, class_field, collection)
             for a in self.actors]
        )
        acc: dict[str, list[int]] = {}
        for p in parts:
            for c, s_, n in p:
                a = acc.setdefault(c, [0, 0])
                a[0] += s_
                a[1] += n
        return knn_vote_table(acc)

    def drill_sideways(
        self,
        query: str,
        dims: dict,
        collection: str = "default",
        limit: int | None = None,
    ) -> tuple[pa.Table, dict[str, pa.Table]]:
        """Cluster-wide DrillSideways — identical to
        SearchEngine.drill_sideways on the whole index: per-shard sideways
        count partials summed on the driver (integer counts over
        doc-disjoint partitions), drill-down hits via the exact sharded
        search_filtered protocol.  Driver traffic is O(S·Σ|dim vocab| +
        S·limit) rows."""
        dim_clauses = build_dim_clauses(dims, self.cfg.field_columns)
        parts = ray.get(
            [a.drill_sideways_partial.remote(query, dims, collection)
             for a in self.actors]
        )
        counts: dict[str, dict[str, int]] = {f: {} for f in dim_clauses}
        for p in parts:
            for f, items in p.items():
                acc = counts[f]
                for v, c in items:
                    acc[v] = acc.get(v, 0) + c
        hits = self.search_filtered(
            query, drill_filter_query(dim_clauses),
            collection=collection, limit=limit,
        )
        return hits, {f: facet_count_table(acc) for f, acc in counts.items()}

    def rescore(
        self,
        query: str,
        rescore_query: str,
        collection: str = "default",
        window_size: int | None = None,
        weight: float = 1.0,
        limit: int | None = None,
    ) -> pa.Table:
        """Cluster-wide two-pass rescoring — QueryRescorer over the fleet,
        identical to SearchEngine.rescore on the whole index: phase-1
        global df gather covering BOTH queries' scored terms, per-shard
        top-``window_size`` first-pass candidates rescored shard-side with
        injected global stats, then the driver re-derives the GLOBAL
        first-pass window under (first desc, url asc) — exact, since that
        window ⊆ the union of per-shard windows under the total order —
        and ranks it by (combined desc, url asc).  Driver traffic is
        O(S · window_size) rows; the rescore query is never evaluated
        outside each shard's own candidate set."""
        import math as _math

        window_size = (
            window_size if window_size is not None else self.cfg.result_limit
        )
        if window_size <= 0:
            raise ValueError("window_size must be positive")
        limit = limit if limit is not None else window_size
        if limit <= 0:
            raise ValueError("limit must be positive")
        weight = float(weight)
        if not _math.isfinite(weight):
            raise ValueError("weight must be finite")
        sc = sanitize_collection(collection)
        clauses1 = parse_query(query, default_field=self.cfg.text_column)
        clauses2 = parse_query(
            rescore_query, default_field=self.cfg.text_column
        )
        terms = {sc: sorted(
            set(scored_term_keys(clauses1)) | set(scored_term_keys(clauses2))
        )}
        global_stats, global_df = self._gather_global(terms)
        parts = ray.get(
            [a.rescore_partial.remote(
                query, rescore_query, collection, window_size, weight,
                global_stats, global_df.get(sc, {}))
             for a in self.actors]
        )
        rows = [r for p in parts for r in p]
        if not rows:
            return pa.table(
                {"url": pa.array([], pa.string()),
                 "score": pa.array([], pa.float64()),
                 "docid": pa.array([], pa.int64())}
            )
        url = np.array([r[0] for r in rows], dtype=object)
        combined = np.array([r[1] for r in rows], dtype=np.float64)
        docid = np.array([r[2] for r in rows], dtype=np.int64)
        first = np.array([r[3] for r in rows], dtype=np.float64)
        window = np.lexsort((url, -first))[:window_size]
        order = np.lexsort((url[window], -combined[window]))[:limit]
        sel = window[order]
        return pa.table(
            {
                "url": pa.array(url[sel], type=pa.string()),
                "score": pa.array(combined[sel], type=pa.float64()),
                "docid": pa.array(docid[sel], type=pa.int64()),
            }
        )

    def search_after(
        self,
        query: str,
        after_score: float,
        after_url: str,
        collection: str = "default",
        limit: int | None = None,
    ) -> pa.Table:
        """Cluster-wide deep pagination — searchAfter over the fleet:
        phase-1 global df gather (the search protocol), per-shard
        post-anchor top-``limit`` partials scored with injected global
        stats, exact driver merge under (score desc, url asc).  Identical
        to SearchEngine.search_after on the whole index: the anchor
        predicate composed with the total order is itself a total order,
        so per-shard truncation is lossless."""
        import math

        if not isinstance(after_url, str):
            raise ValueError("after_url must be a str (previous page's url)")
        after_score = float(after_score)
        if not math.isfinite(after_score):
            raise ValueError("after_score must be finite")
        limit = limit if limit is not None else self.cfg.result_limit
        if limit <= 0:
            raise ValueError("limit must be positive")
        sc = sanitize_collection(collection)
        clauses = parse_query(query, default_field=self.cfg.text_column)
        terms = {sc: sorted(set(scored_term_keys(clauses)))}
        global_stats, global_df = self._gather_global(terms)
        parts = ray.get(
            [a.search_after_partial.remote(
                query, after_score, after_url, collection, limit,
                global_stats, global_df.get(sc, {}))
             for a in self.actors]
        )
        rows = [r for p in parts for r in p]
        if not rows:
            return pa.table(
                {"url": pa.array([], pa.string()),
                 "score": pa.array([], pa.float64()),
                 "docid": pa.array([], pa.int64())}
            )
        url = np.array([r[0] for r in rows], dtype=object)
        score = np.array([r[1] for r in rows], dtype=np.float64)
        docid = np.array([r[2] for r in rows], dtype=np.int64)
        order = np.lexsort((url, -score))[:limit]
        return pa.table(
            {
                "url": pa.array(url[order], type=pa.string()),
                "score": pa.array(score[order], type=pa.float64()),
                "docid": pa.array(docid[order], type=pa.int64()),
            }
        )

    def complete(
        self,
        prefix: str,
        collection: str = "default",
        field: str | None = None,
        k: int = 5,
    ) -> pa.Table:
        """Cluster-wide prefix autocompletion: per-shard (term, df-partial)
        rows, driver sums df per term (doc-disjoint shards) then applies
        the global (df desc, term asc) rank — identical to
        SearchEngine.complete on the whole index."""
        if k <= 0:
            raise ValueError("k must be positive")
        if not prefix.strip():
            raise ValueError("prefix must be non-empty")
        known = {self.cfg.text_column, *self.cfg.field_columns}
        if field is not None and field not in known:
            raise ValueError(
                f"unknown field {field!r} (indexed: {sorted(known)})"
            )
        parts = ray.get(
            [a.complete_partial.remote(prefix, collection, field)
             for a in self.actors]
        )
        dfs: dict[str, int] = {}
        for p in parts:
            for t, df in p:
                dfs[t] = dfs.get(t, 0) + df
        return rank_completions_table(dfs, k)

    def complete_infix(
        self,
        fragment: str,
        collection: str = "default",
        field: str | None = None,
        k: int = 5,
    ) -> pa.Table:
        """Cluster-wide infix autocompletion (AnalyzingInfixSuggester):
        the complete() merge shape over per-shard substring scans —
        identical to SearchEngine.complete_infix on the whole index."""
        if k <= 0:
            raise ValueError("k must be positive")
        if not fragment.strip():
            raise ValueError("fragment must be non-empty")
        known = {self.cfg.text_column, *self.cfg.field_columns}
        if field is not None and field not in known:
            raise ValueError(
                f"unknown field {field!r} (indexed: {sorted(known)})"
            )
        parts = ray.get(
            [a.complete_infix_partial.remote(fragment, collection, field)
             for a in self.actors]
        )
        dfs: dict[str, int] = {}
        for p in parts:
            for t, df in p:
                dfs[t] = dfs.get(t, 0) + df
        return rank_completions_table(dfs, k)

    def _gather_global(
        self, terms_by_coll: dict[str, list[tuple[str, str]]]
    ) -> tuple[dict, dict]:
        """Phase-1 df/stats gather: one parallel round to the fleet, summed
        on the driver (shards are doc-disjoint) → (global_stats,
        global_df) — the corpus-global BM25 statistics every scoring call
        injects."""
        parts = ray.get(
            [a.stats_and_dfs.remote(terms_by_coll) for a in self.actors]
        )
        global_stats: dict[str, dict] = {}
        global_df: dict[str, dict] = {}
        for stats, dfs in parts:
            for coll, st in stats.items():
                g = global_stats.setdefault(coll, {"n_docs": 0, "sum_dl": {}})
                g["n_docs"] += st["n_docs"]
                for f, s in st["sum_dl"].items():
                    g["sum_dl"][f] = g["sum_dl"].get(f, 0) + s
            for coll, d in dfs.items():
                g = global_df.setdefault(coll, {})
                for k, v in d.items():
                    g[k] = g.get(k, 0) + v
        return global_stats, global_df

    def more_like_this(
        self,
        text: str,
        collection: str = "default",
        max_query_terms: int = 25,
        limit: int | None = None,
        exclude_url: str | None = None,
        method: str = "taat",
    ) -> pa.Table:
        """Cluster-wide MoreLikeThis: term selection uses the fleet's
        corpus-global df/n_docs (one phase-1 gather), then the derived
        SHOULD clauses run through the same exact phase-2 merge as
        search_batch — identical (url, score, docid) output to
        SearchEngine.more_like_this on the whole index.  The selected
        terms are ALREADY analyzed index terms, so they travel to the
        shard actors as structured TermClauses (re-parsing a whitespace
        join would silently diverge if analyze() ever stopped being
        idempotent on its own output), and the phase-1 gather for term
        selection doubles as the scoring gather — one round-trip total."""
        from lucene_plugin_ray.functions.analysis import analyze
        from lucene_plugin_ray.functions.bm25 import idf
        from lucene_plugin_ray.functions.queryparse import TermClause

        if max_query_terms <= 0:
            raise ValueError(
                f"max_query_terms must be >= 1, got {max_query_terms}"
            )
        limit = limit if limit is not None else self.cfg.result_limit
        coll = sanitize_collection(collection)
        empty = pa.table(
            {"url": pa.array([], pa.string()),
             "score": pa.array([], pa.float64()),
             "docid": pa.array([], pa.int64())}
        )
        toks = analyze(text)
        if not toks:
            return empty
        tf: dict[str, int] = {}
        for t in toks:
            tf[t] = tf.get(t, 0) + 1
        field = self.cfg.text_column
        stats, dfs = self._gather_global(
            {coll: sorted((field, t) for t in tf)}
        )
        n_docs = stats.get(coll, {}).get("n_docs", 0)
        if n_docs == 0:
            return empty
        clauses = tuple(mlt_select_clauses(
            tf, dfs.get(coll, {}), n_docs, max_query_terms, field
        ))
        if not clauses:
            return empty
        fetch = limit + 1 if exclude_url is not None else limit
        res = self._phase2_merge(
            [{"qid": 0, "collection": collection, "query": clauses,
              "limit": fetch}],
            method, stats, dfs,
        ).select(["url", "score", "docid"])
        if exclude_url is not None:
            res = exclude_source_url(res, exclude_url, limit)
        return res

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
        from the OWNING shard (the explain partition-hash routing), term
        selection uses fleet-global df/n_docs, and the derived SHOULD
        clauses run the exact phase-2 merge — identical to
        SearchEngine.more_like_this_url on the whole index."""
        from lucene_plugin_ray.functions.bm25 import idf
        from lucene_plugin_ray.functions.queryparse import TermClause

        if max_query_terms <= 0:
            raise ValueError(
                f"max_query_terms must be >= 1, got {max_query_terms}"
            )
        limit = limit if limit is not None else self.cfg.result_limit
        tv = self.term_vector(url, collection=collection,
                              with_positions=False)
        empty = pa.table(
            {"url": pa.array([], pa.string()),
             "score": pa.array([], pa.float64()),
             "docid": pa.array([], pa.int64())}
        )
        coll = sanitize_collection(collection)
        field = self.cfg.text_column
        tf = dict(zip(tv["term"].to_pylist(), tv["tf"].to_pylist()))
        if not tf:
            return empty
        stats, dfs = self._gather_global(
            {coll: sorted((field, t) for t in tf)}
        )
        n_docs = stats.get(coll, {}).get("n_docs", 0)
        if n_docs == 0:
            return empty
        clauses = tuple(mlt_select_clauses(
            tf, dfs.get(coll, {}), n_docs, max_query_terms, field
        ))
        if not clauses:
            return empty
        fetch = limit if include_self else limit + 1
        res = self._phase2_merge(
            [{"qid": 0, "collection": collection, "query": clauses,
              "limit": fetch}],
            method, stats, dfs,
        ).select(["url", "score", "docid"])
        if not include_self:
            res = exclude_source_url(res, url, limit)
        return res

    def search_batch(self, queries: pa.Table, method: str = "taat") -> pa.Table:
        """(qid, query[, collection][, k]) → (qid, rank, url, score)."""
        qlist = []
        terms_by_coll: dict[str, set[tuple[str, str]]] = {}
        for q in queries.to_pylist():
            coll = q.get("collection") or "default"
            limit = q.get("k")
            qlist.append(
                {"qid": int(q["qid"]), "collection": coll, "query": q["query"],
                 "limit": int(limit) if limit is not None
                 else self.cfg.result_limit}
            )
            sc = sanitize_collection(coll)
            clauses = parse_query(
                q["query"], default_field=self.cfg.text_column
            )
            terms_by_coll.setdefault(sc, set()).update(scored_term_keys(clauses))
        terms_sorted = {c: sorted(v) for c, v in terms_by_coll.items()}
        global_stats, global_df = self._gather_global(terms_sorted)
        return self._phase2_merge(
            qlist, method, global_stats, global_df
        ).select(["qid", "rank", "url", "score"])

    def _phase2_merge(
        self, qlist: list[dict], method: str, global_stats: dict,
        global_df: dict,
    ) -> pa.Table:
        """Phase 2: parallel shard scoring + the exact driver merge
        (total-order (score desc, url asc) tiebreak, per-query limit
        truncation) → (qid, rank, url, score, docid).  Shared by
        search_batch (public wire drops docid) and more_like_this."""
        hit_lists = ray.get(
            [a.score.remote(qlist, method, global_stats, global_df)
             for a in self.actors]
        )
        rows = [r for lst in hit_lists for r in lst]
        if not rows:
            return pa.table(
                {"qid": pa.array([], pa.int64()),
                 "rank": pa.array([], pa.int32()),
                 "url": pa.array([], pa.string()),
                 "score": pa.array([], pa.float64()),
                 "docid": pa.array([], pa.int64())}
            )
        qid = np.array([r["qid"] for r in rows], dtype=np.int64)
        score = np.array([r["score"] for r in rows], dtype=np.float64)
        url = np.array([r["url"] for r in rows], dtype=object)
        docid = np.array([r["docid"] for r in rows], dtype=np.int64)
        order = np.lexsort((url, -score, qid))
        qid_s = qid[order]
        starts = np.flatnonzero(
            np.concatenate(([True], qid_s[1:] != qid_s[:-1]))
        )
        run_id = np.cumsum(
            np.concatenate(([0], (qid_s[1:] != qid_s[:-1]).astype(np.int64)))
        )
        rank = np.arange(qid_s.size, dtype=np.int64) - starts[run_id]
        limits = {q["qid"]: q["limit"] for q in qlist}
        lim = np.array([limits[int(x)] for x in qid_s], dtype=np.int64)
        keep = rank < lim
        sel = order[keep]
        return pa.table(
            {
                "qid": pa.array(qid[sel], type=pa.int64()),
                "rank": pa.array(rank[keep].astype(np.int32), type=pa.int32()),
                "url": pa.array(url[sel], type=pa.string()),
                "score": pa.array(score[sel], type=pa.float64()),
                "docid": pa.array(docid[sel], type=pa.int64()),
            }
        )

    def snippets(
        self,
        query: str,
        texts: "pa.Table",
        k: int = 10,
        window: int = 8,
        collection: str = "default",
    ) -> "pa.Table":
        """Fleet-global snippet highlighting — exact parity with
        :meth:`SearchEngine.snippets`: the top-k hits come from the
        two-phase sharded search (corpus-global BM25, total-order merge),
        and window selection runs on the driver over the k supplied hit
        texts only (it is index-free: just the analyzed text and the
        scored query terms — ``best_snippet_windows``)."""
        from lucene_plugin_ray.pipelines.query import best_snippet_windows

        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        hits = self.search_batch(
            pa.table(
                {
                    "qid": pa.array([0], pa.int64()),
                    "query": pa.array([query], pa.string()),
                    "collection": pa.array([collection], pa.string()),
                    "k": pa.array([k], pa.int64()),
                }
            )
        )
        if hits.num_rows == 0:
            return pa.table(
                {
                    f.name: pa.array([], type=f.type)
                    for f in SearchEngine.SNIPPET_SCHEMA
                }
            )
        clauses = parse_query(query, default_field=self.cfg.text_column)
        qterms = sorted(
            {
                t
                for f, t in scored_term_keys(clauses)
                if f == self.cfg.text_column
            }
        )
        text_of = dict(
            zip(
                texts["url"].to_pylist(),
                texts[self.cfg.text_column].to_pylist(),
            )
        )
        urls = hits["url"].to_pylist()
        starts, n_terms, snips = best_snippet_windows(
            urls, text_of, qterms, window
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

    The two partition-hash-ROUTED point lookups (term_vector, explain)
    cannot route by hash across roots — a url's partition number only
    identifies a partition WITHIN its root — so they probe the roots in
    order and return the first live answer (MultiReader's first-sub-reader
    rule), KeyError when no root holds the doc."""

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
        self.actors = []
        self._vocab_union_cache = {}
        # union of the roots' manifest field lists: a field indexed by
        # only SOME roots behaves exactly like append-only field
        # evolution (the other roots answer missing — string sorts last,
        # diversified keys unconstrained), so the union is the correct
        # validation universe for the inherited read surface
        self._fields: list[str] = []
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
            for f in chain[-1].fields:
                if f not in self._fields:
                    self._fields.append(f)
            self.actors.append(
                _ShardActor.remote(root, g, self.cfg, list(range(P)))
            )
        # inherited APIs never consult these beyond the two overridden
        # routed lookups, but keep them coherent for introspection
        self.generation = self.generations[-1]
        self.num_partitions = sum(self.root_partitions)
        self.shard_partitions = [
            list(range(P)) for P in self.root_partitions
        ]

    def _probe_roots(self, call_name: str, key_desc: str, *args):
        """First-sub-reader rule: fire the probe at every root in PARALLEL
        (one wave, not N round trips), then take the first live answer in
        root order — with disjoint urls exactly one root answers; with a
        duplicated url this picks the first root, Lucene's rule.  ALL refs
        are drained: a live answer wins even when another root errors (a
        broken sub-index must not fail lookups it never owned), but with
        NO live answer a real failure is re-raised in preference to the
        misleading not-live KeyError."""
        refs = [getattr(a, call_name).remote(*args) for a in self.actors]
        out, hard_err = None, None
        for ref in refs:
            try:
                hit = ray.get(ref)
                if out is None:
                    out = hit
            except ray.exceptions.RayTaskError as e:
                if not isinstance(e.cause, KeyError) and hard_err is None:
                    hard_err = e
        if out is not None:
            return out
        if hard_err is not None:
            raise hard_err
        raise KeyError(key_desc)

    def term_vector(
        self,
        url: str,
        field: str | None = None,
        collection: str = "default",
        with_positions: bool = True,
    ) -> pa.Table:
        self._validate_tv_field(field)
        return self._probe_roots(
            "term_vector_for",
            f"url {url!r} not live in collection {collection!r}",
            url, field, collection, with_positions,
        )

    def explain(
        self, query: str, url: str, collection: str = "default"
    ) -> dict:
        sc = sanitize_collection(collection)
        clauses = parse_query(query, default_field=self.cfg.text_column)
        terms = {sc: sorted(set(scored_term_keys(clauses)))}
        global_stats, global_df = self._gather_global(terms)
        return self._probe_roots(
            "explain_for",
            f"url {url!r} not live in collection {collection!r}",
            query, url, collection, global_stats, global_df.get(sc, {}),
        )
