"""Reference-parity service facade over the batch engine (VERDICT Missing #3).

The reference exposes an online row-at-a-time API — ``LuceneFacade``
(client/src/main/java/com/caucho/lucene/LuceneFacade.java:8-82, async
``Result<T>`` callbacks), ``LuceneFacadeSync.java:7-26`` (blocking) and
``LuceneFacadeImpl.java:21-152`` (validation + routing to the writer/reader
services).  This module re-expresses that surface over the batch engine:

* ``LuceneFacade`` — blocking facade (≙ ``LuceneFacadeSync``):
  ``index_text`` / ``index_map`` / ``index_file`` buffer one-document writes
  and flush them as **delta generations**; the reference's soft-commit policy
  (commit + searcher refresh after ≥16 buffered updates,
  ``LuceneIndexBean.java:78``, ``SearcherUpdateServiceImpl.java:101-115``)
  becomes "auto-flush every ``soft_commit_max_docs`` buffered docs".
* ``search`` leases a generation-pinned ``SearchEngine`` and re-acquires it
  when the manifest generation advances — the batch analogue of
  ``SearcherManager.maybeRefresh`` + the per-batch searcher lease
  (``LuceneReaderImpl.java:90-98``).
* ``delete`` / ``clear`` flush pending writes first (preserving the
  actor-inbox total order of the reference writer,
  ``LuceneWriterImpl.java:53-103``) and then publish a tombstone / clear
  generation.
* ``AsyncLuceneFacade`` — the async variant (≙ the callback-based
  ``LuceneFacade`` API): every method returns an awaitable.

Write ordering → data: each buffered document gets a strictly increasing
synthetic ``warc_ts``, so "last message wins" (``updateDocument``,
``LuceneIndexBean.java:256,343``) becomes last-write-wins by timestamp —
deterministic and order-independent once flushed (SURVEY.md §2.10).

Schema: by default a batch index has a fixed analyzed-field set per index
(``IndexConfig.fields()``) and ``index_map`` rejects keys outside it with
``LuceneException``.  ``LuceneFacade(dynamic_fields=True)`` restores the
reference's schema-less behavior (any ``indexMap`` key becomes a field,
``LuceneIndexBean.java:338-341``): unseen keys are APPENDED to the field
list in first-seen order — sound because the build layer accepts
append-only field evolution across generations — with the one restriction
that keys must be lowercase identifiers (``[a-z_][a-z0-9_]*``), since
field names participate in the query grammar (``field:term``).
"""

from __future__ import annotations

import asyncio
import functools
import inspect
from dataclasses import dataclass

import pyarrow as pa

from lucene_plugin_ray.config import IndexConfig

# ≙ reference soft-commit doc threshold (LuceneIndexBean.java:78)
SOFT_COMMIT_MAX_DOCS = 16


class LuceneException(ValueError):
    """≙ client LuceneException.java:33-36 — invalid input / engine error.
    A ``ValueError``, as the engine's own input errors are."""


@dataclass(frozen=True)
class LuceneEntry:
    """Search hit record (≙ client LuceneEntry.java:3-71)."""

    id: int            # engine docid (reference: Lucene docid)
    score: float       # BM25 score
    external_id: str   # ≙ __extKey__ (our url column)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise LuceneException(msg)


def _valid_str(v) -> bool:
    return isinstance(v, str) and len(v) > 0


def _entries(t: pa.Table) -> list[LuceneEntry]:
    """(docid, score, url) rows → entries in rank order."""
    return [
        LuceneEntry(id=int(d), score=float(s), external_id=u)
        for d, s, u in zip(
            t["docid"].to_pylist(), t["score"].to_pylist(), t["url"].to_pylist()
        )
    ]


def _rows(**names):
    """Converter: one dict per row, ``{key: row[column]}`` for each
    ``key=column`` pair."""

    def convert(t: pa.Table) -> list[dict]:
        cols = [t[c].to_pylist() for c in names.values()]
        return [dict(zip(names, r)) for r in zip(*cols)]

    return convert


def _tuples(*columns):
    """Converter: one tuple of ``columns`` per row."""
    return lambda t: list(zip(*(t[c].to_pylist() for c in columns)))


def _no_index(ext_id: str):
    """The answer of a per-document read before the first commit."""

    def missing():
        raise LuceneException(f"no index yet: nothing matches {ext_id!r}")

    return missing


class LuceneFacade:
    """Blocking row-at-a-time facade over the batch engine.

    Validation mirrors ``LuceneFacadeImpl.java:97-130``: null/empty
    collection, id or query raise ``LuceneException``; a null text/map does
    too; an EMPTY map is a successful no-op (M7,
    ``LuceneIndexBean.java:312-316``).
    """

    def __init__(
        self,
        cfg: IndexConfig,
        soft_commit_max_docs: int = SOFT_COMMIT_MAX_DOCS,
        auto_compact: bool = True,
        dynamic_fields: bool = False,
    ):
        self.cfg = cfg
        self.dynamic_fields = dynamic_fields
        self.soft_commit_max_docs = soft_commit_max_docs
        # ≙ TieredMergePolicy + ConcurrentMergeScheduler: commits trigger a
        # tiered compaction check (pipelines.build.maybe_compact)
        self.auto_compact = auto_compact
        self._pending: list[dict] = []
        self._engine = None
        self._engine_gen: int | None = None

    # ------------------------------------------------------------------
    def _current_generation(self) -> int:
        from lucene_plugin_ray.state.manifest import list_generations

        gens = list_generations(self.cfg.index_root)
        return max(gens) if gens else -1

    def _buffer(self, collection: str, ext_id: str, text: str, fields: dict) -> bool:
        # Buffered rows carry an ORDINAL; the real synthetic warc_ts is
        # stamped at commit time from the manifest generation read THEN, so
        # 'last message wins' holds even when an older facade stays open
        # while a newer one commits (ADVICE r2): whoever commits later reads
        # the higher generation and outranks earlier commits.
        row = {
            "collection": collection,
            self.cfg.url_column: ext_id,
            self.cfg.ts_column: len(self._pending),
            self.cfg.text_column: text,
        }
        for f in self.cfg.field_columns:
            row[f] = fields.get(f, "")
        # rows buffered BEFORE a dynamic-field extension lack the new
        # column; commit() backfills "" via r.get(name, "")
        self._pending.append(row)
        if len(self._pending) >= self.soft_commit_max_docs:
            self.commit()
        return True

    # ---- write path ---------------------------------------------------
    def index_text(self, collection: str, ext_id: str, text: str) -> bool:
        """≙ LuceneFacade.indexText (LuceneIndexBean.java:279-306)."""
        _require(_valid_str(collection), "collection must be a non-empty string")
        _require(_valid_str(ext_id), "id must be a non-empty string")
        _require(isinstance(text, str), "text must be a string")
        return self._buffer(collection, ext_id, text, {})

    def index_map(self, collection: str, ext_id: str, mapping: dict) -> bool:
        """≙ LuceneFacade.indexMap (LuceneIndexBean.java:308-356).

        Reference quirks preserved: an empty map is a no-op returning True
        (M7); only the FIRST value of a multi-valued entry is indexed
        (``LuceneIndexBean.java:737-750``); every value is stringified
        (``String.valueOf``).  Keys must be configured fields (see module
        docstring divergence note)."""
        _require(_valid_str(collection), "collection must be a non-empty string")
        _require(_valid_str(ext_id), "id must be a non-empty string")
        _require(isinstance(mapping, dict), "map must be a dict")
        if not mapping:
            return True  # M7 empty-map short-circuit
        fields: dict[str, str] = {}
        for k, v in mapping.items():
            if isinstance(v, (list, tuple)):
                v = v[0] if v else ""  # first value only
            sv = str(v)
            if k == self.cfg.text_column:
                fields[k] = sv
                continue
            if k not in self.cfg.field_columns:
                if not self.dynamic_fields:
                    raise LuceneException(
                        f"field '{k}' is not a configured field "
                        f"{self.cfg.fields()}; batch indexes have a fixed "
                        "analyzed-field set per index (open the facade "
                        "with dynamic_fields=True for indexMap's "
                        "schema-less behavior)"
                    )
                import re as _re
                from dataclasses import replace as _replace

                _require(
                    bool(_re.fullmatch(r"[a-z_][a-z0-9_]*", k))
                    and k not in (self.cfg.url_column, self.cfg.ts_column,
                                  "collection"),
                    f"dynamic field name {k!r} must be a lowercase "
                    "identifier and not a reserved column",
                )
                # append-only schema widening (the build layer validates
                # the same rule across generations)
                self.cfg = _replace(
                    self.cfg, field_columns=(*self.cfg.field_columns, k)
                )
            fields[k] = sv
        text = fields.pop(self.cfg.text_column, "")
        return self._buffer(collection, ext_id, text, fields)

    def index_file(self, collection: str, path: str) -> bool:
        """≙ LuceneFacade.indexFile (LuceneIndexBean.java:200-228): read the
        file, auto-detect its format and extract text (M1 — AutoExtract's
        magic-byte sniffing over txt/xml/json/html/pdf/docx), index under the
        path as external id (the reference uses the BFS path, :210)."""
        _require(_valid_str(collection), "collection must be a non-empty string")
        _require(_valid_str(path), "path must be a non-empty string")
        from lucene_plugin_ray.stages.extract import AutoExtract

        try:
            with open(path, "rb") as f:
                raw = f.read()
        except OSError as e:
            raise LuceneException(f"cannot read {path}: {e}") from e
        text, _kind = AutoExtract().extract_one(raw)
        _require(text is not None, f"no text extractable from {path}")
        return self._buffer(collection, path, text, {})

    # ---- commit / visibility ------------------------------------------
    def commit(self) -> int:
        """Flush buffered writes as one delta generation (≙ soft commit:
        writer.commit() + searcher refresh, LuceneIndexBean.java:490-509).
        Returns the new generation (or the current one if nothing pending)."""
        if not self._pending:
            return self._current_generation()
        from lucene_plugin_ray.pipelines.build import build_delta, build_index

        cols: dict[str, list] = {}
        for name in (
            "collection", self.cfg.url_column, self.cfg.ts_column,
            self.cfg.text_column, *self.cfg.field_columns,
        ):
            # .get backfill: rows buffered before a dynamic-field extension
            # lack the newer columns — "" analyzes to zero tokens
            cols[name] = [r.get(name, "") for r in self._pending]
        gen_now = self._current_generation()
        # stamp ordinals → warc_ts from the generation read at COMMIT time
        # (strictly increasing across commits AND across concurrently open
        # facades: each build advances the manifest generation).
        # CONTRACT: commits against one index root must not INTERLEAVE
        # (read-gen → build is not atomic; two facades reading the same
        # generation before either builds would tie their ts bases and LWW
        # for a shared key degrades to the deterministic sha256 tiebreak).
        # Sequential commits from any number of facades are safe.  This is
        # reference parity: the Java writer inbox is serial per index
        # (LuceneIndexBean processes one update queue); a multi-writer
        # deployment needs an external commit lock on the index root.
        base = (gen_now + 1) * 1_000_000_000
        ts_vals = [base + o + 1 for o in cols[self.cfg.ts_column]]
        table = pa.table(
            {
                **{
                    k: pa.array(v, type=pa.string())
                    for k, v in cols.items()
                    if k != self.cfg.ts_column
                },
                self.cfg.ts_column: pa.array(ts_vals, type=pa.timestamp("us")),
            }
        )
        # buffer is cleared only AFTER the build succeeds: a failed commit
        # keeps the documents and can simply be retried (ADVICE r2)
        if gen_now < 0:
            m = build_index(table, self.cfg)
        else:
            m = build_delta(table, self.cfg)
        self._pending.clear()
        if self.auto_compact:
            from lucene_plugin_ray.pipelines.build import maybe_compact

            compacted = maybe_compact(self.cfg)
            if compacted is not None:
                m = compacted
        return m.generation

    def _lease_engine(self):
        """Generation-pinned searcher lease: reopen only when the manifest
        advanced (≙ searcher.version < searcherSequence re-acquire,
        LuceneReaderImpl.java:90-98)."""
        gen = self._current_generation()
        if gen < 0:
            return None
        if self._engine is None or self._engine_gen != gen:
            from lucene_plugin_ray.pipelines.query import SearchEngine

            self._engine = SearchEngine(self.cfg.index_root, cfg=self.cfg)
            self._engine_gen = gen
        return self._engine

    # ---- read path -----------------------------------------------------
    def _read(self, call, convert=None, *checks, empty=list, **strings):
        """The steps every read op shares.  Each keyword in ``strings`` must
        be a non-empty string (it names the argument in the message), then
        each ``(condition, message)`` in ``checks`` must hold.  Before the
        first commit ``empty()`` answers; otherwise ``call(engine)`` runs on
        the leased engine, its ``ValueError``/``KeyError`` becomes a
        ``LuceneException`` with the same message, and ``convert`` turns
        its result into the facade's shape."""
        for name, v in strings.items():
            _require(_valid_str(v), f"{name} must be a non-empty string")
        for cond, msg in checks:
            _require(cond, msg)
        eng = self._lease_engine()
        if eng is None:
            return empty()
        try:
            out = call(eng)
        except KeyError as e:
            raise LuceneException(e.args[0] if e.args else str(e)) from e
        except ValueError as e:
            raise LuceneException(str(e)) from e
        return out if convert is None else convert(out)

    def search(
        self, collection: str, query: str, limit: int | None = None
    ) -> list[LuceneEntry]:
        """≙ LuceneFacade.search → List<LuceneEntry>.  NOTE the reference
        reader ignores the caller's limit and caps at 255
        (LuceneReaderImpl.java:100-104); we honor ``limit`` but default to
        the same 255 cap (IndexConfig.result_limit)."""
        return self._read(
            lambda e: e.search(query, collection=collection, limit=limit),
            _entries, collection=collection, query=query,
        )

    def search_after(
        self,
        collection: str,
        query: str,
        after_score: float,
        after_url: str,
        limit: int | None = None,
    ) -> list[LuceneEntry]:
        """Deep pagination — IndexSearcher.searchAfter(ScoreDoc) analogue:
        the next ``limit`` hits strictly after the anchor under the
        (score desc, external_id asc) total order.  Pass the previous
        page's last entry's (score, external_id) verbatim; concatenated
        pages reproduce :meth:`search` with the summed limit exactly."""
        return self._read(
            lambda e: e.search_after(
                query, after_score, after_url, collection=collection, limit=limit
            ),
            _entries,
            (isinstance(after_url, str), "after_url must be a string"),
            collection=collection, query=query,
        )

    def rescore(
        self,
        collection: str,
        query: str,
        rescore_query: str,
        window_size: int | None = None,
        weight: float = 1.0,
        limit: int | None = None,
    ) -> list[LuceneEntry]:
        """Two-pass rescoring — QueryRescorer analogue: the top
        ``window_size`` hits of ``query`` re-ranked by
        ``first + weight · second`` where second is ``rescore_query``'s
        score over the window only (0 outside its match set)."""
        return self._read(
            lambda e: e.rescore(
                query, rescore_query, collection=collection,
                window_size=window_size, weight=weight, limit=limit,
            ),
            _entries, collection=collection, query=query,
            rescore_query=rescore_query,
        )

    def search_filtered(
        self,
        collection: str,
        query: str,
        filter_query: str,
        limit: int | None = None,
    ) -> list[LuceneEntry]:
        """Filtered search — search(Query, Filter, n) / FILTER occur: the
        match set is query ∩ filter, scores from the query alone."""
        return self._read(
            lambda e: e.search_filtered(
                query, filter_query, collection=collection, limit=limit
            ),
            _entries, collection=collection, query=query,
            filter_query=filter_query,
        )

    def search_surround(
        self,
        collection: str,
        query: str,
        limit: int | None = None,
    ) -> list[LuceneEntry]:
        """Surround-language search (queryparser-surround module):
        W/N proximity + AND/OR/NOT; see SearchEngine.search_surround."""
        return self._read(
            lambda e: e.search_surround(query, collection=collection, limit=limit),
            _entries, collection=collection, query=query,
        )

    def search_diversified(
        self,
        collection: str,
        query: str,
        key_field: str,
        max_per_key: int = 1,
        limit: int | None = None,
    ) -> list[dict]:
        """Diversified top-k (DiversifiedTopDocsCollector): at most
        ``max_per_key`` hits per key-field value → [{externalId, score,
        key}] in rank order."""
        return self._read(
            lambda e: e.search_diversified(
                query, key_field, max_per_key=max_per_key,
                collection=collection, limit=limit,
            ),
            _rows(externalId="url", score="score", key="key"),
            collection=collection, query=query, key_field=key_field,
        )

    def search_expression_range(
        self,
        collection: str,
        query: str,
        expression: str,
        lo: float | None = None,
        hi: float | None = None,
        bindings: dict | None = None,
        limit: int | None = None,
    ) -> list[LuceneEntry]:
        """FunctionRangeQuery: expression-scored hits restricted to
        [lo, hi] (inclusive; open ends allowed)."""
        return self._read(
            lambda e: e.search_expression_range(
                query, expression, lo=lo, hi=hi, bindings=bindings,
                collection=collection, limit=limit,
            ),
            _entries, collection=collection, query=query, expression=expression,
        )

    def search_common(
        self,
        collection: str,
        query: str,
        max_term_frequency: float = 0.01,
        limit: int | None = None,
    ) -> list[LuceneEntry]:
        """CommonTermsQuery: low-df terms required, high-df (stop-word
        grade) terms score-only — the dynamic-stop-word query."""
        return self._read(
            lambda e: e.search_common(
                query, max_term_frequency=max_term_frequency,
                collection=collection, limit=limit,
            ),
            _entries, collection=collection, query=query,
        )

    def search_boosting(
        self,
        collection: str,
        positive_query: str,
        negative_query: str,
        demote: float = 0.2,
        limit: int | None = None,
    ) -> list[LuceneEntry]:
        """BoostingQuery: positive hits, scores demoted by ``demote``
        where the negative query also matches."""
        return self._read(
            lambda e: e.search_boosting(
                positive_query, negative_query, demote=demote,
                collection=collection, limit=limit,
            ),
            _entries, collection=collection, positive_query=positive_query,
            negative_query=negative_query,
        )

    def search_expression(
        self,
        collection: str,
        query: str,
        expression: str,
        bindings: dict | None = None,
        limit: int | None = None,
    ) -> list[LuceneEntry]:
        """Expression-scored search (expressions module /
        FunctionScoreQuery): final score = the compiled arithmetic
        ``expression`` over _score / doc_len / warc_ts / ``bindings``."""
        return self._read(
            lambda e: e.search_expression(
                query, expression, bindings=bindings, collection=collection,
                limit=limit,
            ),
            _entries, collection=collection, query=query, expression=expression,
        )

    def span_near(
        self,
        collection: str,
        terms: list,
        slop: int = 0,
        in_order: bool = True,
        limit: int | None = None,
    ) -> list[LuceneEntry]:
        """SpanNearQuery (queries.spans module): ``terms`` within ``slop``
        positions, ordered or not — SearchEngine.span_near over the leased
        generation."""
        return self._read(
            lambda e: e.span_near(
                list(terms), slop=slop, in_order=in_order,
                collection=collection, limit=limit,
            ),
            _entries,
            (bool(terms) and all(_valid_str(t) for t in terms),
             "terms must be a non-empty list of non-empty strings"),
            collection=collection,
        )

    def span_first(
        self,
        collection: str,
        term: str,
        end: int,
        limit: int | None = None,
    ) -> list[LuceneEntry]:
        """SpanFirstQuery: ``term`` within the first ``end`` positions."""
        return self._read(
            lambda e: e.span_first(term, end, collection=collection, limit=limit),
            _entries, collection=collection, term=term,
        )

    def span_not(
        self,
        collection: str,
        term: str,
        exclude: list,
        pre: int = 0,
        post: int = 0,
        limit: int | None = None,
    ) -> list[LuceneEntry]:
        """SpanNotQuery: ``term`` with no ``exclude`` occurrence within
        [p − pre, p + post]."""
        if isinstance(exclude, str):
            exclude = (exclude,)
        return self._read(
            lambda e: e.span_not(
                term, tuple(exclude), pre=pre, post=post,
                collection=collection, limit=limit,
            ),
            _entries,
            (bool(exclude) and all(_valid_str(t) for t in exclude),
             "exclude must be a non-empty list of non-empty strings"),
            collection=collection, term=term,
        )

    def search_join(
        self,
        collection: str,
        from_query: str,
        from_field: str,
        to_field: str,
        score_mode: str = "max",
        limit: int | None = None,
    ) -> list[LuceneEntry]:
        """Query-time join — JoinUtil.createJoinQuery analogue: docs
        carrying a ``to_field`` value joined from ``from_query``'s matches
        through ``from_field``, scored per ScoreMode
        (none/max/min/total/avg)."""
        return self._read(
            lambda e: e.search_join(
                from_query, from_field, to_field, score_mode=score_mode,
                collection=collection, limit=limit,
            ),
            _entries, collection=collection, from_query=from_query,
            from_field=from_field, to_field=to_field,
        )

    def block_join_parents(
        self,
        collection: str,
        child_query: str,
        parent_filter: str,
        block_field: str,
        score_mode: str = "max",
        limit: int | None = None,
    ) -> list[LuceneEntry]:
        """Block join, child→parent — ToParentBlockJoinQuery analogue:
        parent docs (``parent_filter`` matches) of blocks (shared
        ``block_field`` value) with ≥1 child matching ``child_query``,
        scored by the block's child-score aggregate under ScoreMode."""
        return self._read(
            lambda e: e.block_join_parents(
                child_query, parent_filter, block_field, score_mode=score_mode,
                collection=collection, limit=limit,
            ),
            _entries, collection=collection, child_query=child_query,
            parent_filter=parent_filter, block_field=block_field,
        )

    def block_join_children(
        self,
        collection: str,
        parent_query: str,
        parent_filter: str,
        block_field: str,
        score: bool = True,
        limit: int | None = None,
    ) -> list[LuceneEntry]:
        """Block join, parent→child — ToChildBlockJoinQuery analogue:
        child docs inheriting their parent's ``parent_query`` score
        (``score=False`` ≙ doScores=false → constant 1.0)."""
        return self._read(
            lambda e: e.block_join_children(
                parent_query, parent_filter, block_field, score=score,
                collection=collection, limit=limit,
            ),
            _entries, collection=collection, parent_query=parent_query,
            parent_filter=parent_filter, block_field=block_field,
        )

    def drill_sideways(
        self,
        collection: str,
        query: str,
        dims: dict,
        limit: int | None = None,
    ) -> tuple[list[LuceneEntry], dict[str, list[tuple[str, int]]]]:
        """DrillSideways — drill-down hits (query FILTERed by every dim)
        plus per-dim sideways facet counts (that dim's own filter
        removed).  ``dims`` maps indexed metadata fields to one value or
        a list of values."""
        counts = _tuples("value", "count")
        return self._read(
            lambda e: e.drill_sideways(
                query, dims, collection=collection, limit=limit
            ),
            lambda r: (_entries(r[0]), {f: counts(t) for f, t in r[1].items()}),
            (isinstance(dims, dict) and dims,
             "dims must be a non-empty {field: value | [values]} dict"),
            empty=lambda: ([], {f: [] for f in dims}),
            collection=collection, query=query,
        )

    def search_sorted_by(
        self,
        collection: str,
        query: str,
        sort: list,
        limit: int | None = None,
        after_keys: list | None = None,
        after_url: str = "",
    ) -> list[dict]:
        """Multi-key field sort (Sort(SortField, …) analogue) → one dict
        per hit: {externalId, <sort field values>}, ranked by the
        composite key."""
        bad = [
            p for p in (sort if isinstance(sort, list) else ())
            if not (isinstance(p, (list, tuple)) and len(p) == 2
                    and all(isinstance(x, str) for x in p))
        ]

        def rows(t):
            names = [n for n in t.column_names if n not in ("url", "docid")]
            return [
                {"externalId": r["url"], **{n: r[n] for n in names}}
                for r in t.to_pylist()
            ]

        return self._read(
            lambda e: e.search_sorted_by(
                query, [tuple(p) for p in sort], collection=collection,
                limit=limit, after_keys=after_keys, after_url=after_url,
            ),
            rows,
            (isinstance(sort, list) and sort,
             "sort must be a non-empty [(field, 'asc'|'desc')] list"),
            (not bad, "sort entries must be (field, 'asc'|'desc') string "
                      f"pairs, got {bad[0] if bad else None!r}"),
            collection=collection, query=query,
        )

    def classify(
        self, collection: str, text: str, class_field: str
    ) -> list[tuple[str, float]]:
        """Naive-Bayes classification (SimpleNaiveBayesClassifier analogue)
        → [(class, log-score)] ranked best-first."""
        return self._read(
            lambda e: e.classify(text, class_field, collection=collection),
            _tuples("class", "score"),
            collection=collection, text=text, class_field=class_field,
        )

    def classify_knn(
        self, collection: str, text: str, class_field: str, k: int = 10
    ) -> list[tuple[str, int, int]]:
        """KNN classification (KNearestNeighborClassifier analogue) →
        [(class, vote_units, hits)] ranked best-first."""
        return self._read(
            lambda e: e.classify_knn(text, class_field, collection=collection, k=k),
            _tuples("class", "vote_units", "hits"),
            (isinstance(k, int) and k > 0, "k must be a positive integer"),
            collection=collection, text=text, class_field=class_field,
        )

    def count(self, collection: str, query: str) -> int:
        """Total matching live docs (IndexSearcher.count analogue) — the
        boolean-match twin of :meth:`search` with no scoring work."""
        return self._read(
            lambda e: e.count(query, collection=collection),
            empty=lambda: 0, collection=collection, query=query,
        )

    def facets(
        self, collection: str, query: str, facet_field: str
    ) -> list[dict]:
        """Facet counts over ALL matching docs → [{value, count}], ordered
        (count desc, value asc).  See SearchEngine.facets."""
        return self._read(
            lambda e: e.facets(query, facet_field, collection=collection),
            _rows(value="value", count="count"),
            collection=collection, query=query, facet_field=facet_field,
        )

    def facets_taxonomy(
        self,
        collection: str,
        query: str,
        dim_fields: list,
        top_n: int | None = None,
    ) -> list[dict]:
        """Hierarchical facet counts (taxonomy rollup over an ordered
        field list, root level first) → [{path, count}], path ascending.
        See SearchEngine.facets_taxonomy."""
        return self._read(
            lambda e: e.facets_taxonomy(
                query, list(dim_fields), collection=collection, top_n=top_n
            ),
            _rows(path="path", count="count"),
            (isinstance(dim_fields, (list, tuple)) and dim_fields,
             "dim_fields must be a non-empty list of field names"),
            collection=collection, query=query,
        )

    def term_vector(
        self,
        collection: str,
        ext_id: str,
        field: str | None = None,
    ) -> list[dict]:
        """Per-document term vector → [{term, tf, positions}], term asc
        (IndexReader.getTermVector analogue reconstructed from the inverted
        index).  A not-live id raises LuceneException (the explain()
        convention — client error, HTTP 400).  See
        SearchEngine.term_vector."""
        return self._read(
            lambda e: e.term_vector(ext_id, field=field, collection=collection),
            pa.Table.to_pylist, empty=_no_index(ext_id),
            collection=collection, id=ext_id,
        )

    def more_like_this_id(
        self,
        collection: str,
        ext_id: str,
        max_query_terms: int = 25,
        limit: int | None = None,
    ) -> list[LuceneEntry]:
        """MoreLikeThis like(docId): similar documents to an INDEXED doc
        by its externalId (term frequencies from the index, source doc
        excluded); a non-live id is a client error."""
        return self._read(
            lambda e: e.more_like_this_url(
                ext_id, collection=collection,
                max_query_terms=max_query_terms, limit=limit,
            ),
            _entries,
            (int(max_query_terms) >= 1, "max_query_terms must be >= 1"),
            empty=_no_index(ext_id), collection=collection, id=ext_id,
        )

    def more_like_this(
        self,
        collection: str,
        text: str,
        max_query_terms: int = 25,
        limit: int | None = None,
        exclude_id: str | None = None,
    ) -> list[LuceneEntry]:
        """Documents similar to ``text`` (Lucene MoreLikeThis like-text
        form); ``exclude_id`` drops the source document.  Result shape
        matches :meth:`search`."""
        return self._read(
            lambda e: e.more_like_this(
                text, collection=collection, max_query_terms=max_query_terms,
                limit=limit, exclude_url=exclude_id,
            ),
            _entries,
            (isinstance(text, str), "text must be a string"),
            (int(max_query_terms) >= 1, "max_query_terms must be >= 1"),
            collection=collection,
        )

    def suggest(
        self, collection: str, term: str, k: int = 5, max_edits: int = 2
    ) -> list[dict]:
        """Spell-correction candidates (DirectSpellChecker analogue) →
        [{term, distance, df}], ranked (distance asc, df desc, term asc);
        see SearchEngine.suggest.  An empty probe term is a client error
        (it would 'match' every short vocabulary term at distance
        len(term))."""
        return self._read(
            lambda e: e.suggest(
                term, collection=collection, max_edits=max_edits, k=k
            ),
            pa.Table.to_pylist, collection=collection, term=term,
        )

    def complete(self, collection: str, prefix: str, k: int = 5) -> list[dict]:
        """Prefix autocompletion (Lucene suggest-module analogue) →
        [{term, df}], ranked (df desc, term asc); see
        SearchEngine.complete.  An empty prefix is a client error (it would
        rank the entire vocabulary)."""
        return self._read(
            lambda e: e.complete(prefix, collection=collection, k=k),
            pa.Table.to_pylist, collection=collection, prefix=prefix,
        )

    def complete_infix(
        self, collection: str, fragment: str, k: int = 5
    ) -> list[dict]:
        """Infix autocompletion (AnalyzingInfixSuggester analogue) →
        [{term, df}]; see SearchEngine.complete_infix."""
        return self._read(
            lambda e: e.complete_infix(fragment, collection=collection, k=k),
            pa.Table.to_pylist, collection=collection, fragment=fragment,
        )

    def explain(self, collection: str, query: str, ext_id: str) -> dict:
        """Per-clause score breakdown for one (query, doc) —
        IndexSearcher.explain analogue; see SearchEngine.explain."""
        return self._read(
            lambda e: e.explain(query, ext_id, collection=collection),
            empty=_no_index(ext_id), collection=collection, query=query,
            id=ext_id,
        )

    def snippets(
        self,
        collection: str,
        query: str,
        texts: dict[str, str],
        k: int = 10,
        window: int = 8,
    ) -> list[dict]:
        """Top-k hits each with its best ``window``-token snippet →
        [{external_id, score, start, n_terms, snippet}]; see
        SearchEngine.snippets.  The index does not store bodies (reference
        parity: the text field is indexed, not stored), so ``texts`` maps
        external_id → raw text for at least the hit documents — the usual
        flow is search() first, fetch those k bodies, then snippets()."""

        def call(eng):
            bodies = pa.table({
                "url": pa.array([str(u) for u in texts], pa.string()),
                self.cfg.text_column: pa.array(
                    ["" if v is None else str(v) for v in texts.values()],
                    pa.string(),
                ),
            })
            return eng.snippets(
                query, bodies, k=int(k), window=int(window), collection=collection
            )

        return self._read(
            call,
            _rows(external_id="url", score="score", start="start",
                  n_terms="n_terms", snippet="snippet"),
            (isinstance(texts, dict), "texts must map external_id -> text"),
            (int(k) >= 1, "k must be >= 1"),
            (int(window) >= 1, "window must be >= 1"),
            collection=collection, query=query,
        )

    def search_sorted(
        self,
        collection: str,
        query: str,
        limit: int | None = None,
        descending: bool = True,
        after_ts: int | None = None,
        after_url: str = "",
    ) -> list[dict]:
        """Sort-by-field search (warc_ts recency order) → [{id,
        external_id, ts_us}]; see SearchEngine.search_sorted.  The optional
        (after_ts, after_url) anchor pages strictly past the previous
        page's last row — searchAfter(FieldDoc)."""
        return self._read(
            lambda e: e.search_sorted(
                query, collection=collection, limit=limit,
                descending=descending, after_ts=after_ts, after_url=after_url,
            ),
            _rows(id="docid", external_id="url", ts_us="warc_ts"),
            collection=collection, query=query,
        )

    # ---- mutations ------------------------------------------------------
    def delete(self, collection: str, ext_id: str) -> bool:
        """≙ LuceneFacade.delete → tombstone generation (D2).  Pending
        writes flush first, preserving the writer-inbox order."""
        _require(_valid_str(collection), "collection must be a non-empty string")
        _require(_valid_str(ext_id), "id must be a non-empty string")
        self.commit()
        if self._current_generation() < 0:
            return True  # nothing indexed yet — reference delete is a no-op
        from lucene_plugin_ray.pipelines.build import delete_docs, maybe_compact

        delete_docs(
            self.cfg,
            pa.table(
                {
                    "collection": pa.array([collection], type=pa.string()),
                    "url": pa.array([ext_id], type=pa.string()),
                }
            ),
        )
        if self.auto_compact:
            # compaction also PURGES tombstoned docs from segments (≙ Lucene
            # merges reclaiming deletes)
            maybe_compact(self.cfg)
        return True

    def clear(self, collection: str) -> bool:
        """≙ LuceneFacade.clear — delete-by-collection (D3,
        LuceneIndexBean.java:511-540)."""
        _require(_valid_str(collection), "collection must be a non-empty string")
        self.commit()
        if self._current_generation() < 0:
            return True
        from lucene_plugin_ray.pipelines.build import clear_collection

        clear_collection(self.cfg, collection)
        return True


def _awaitable_twins(sync_cls):
    """Class decorator: give the class one coroutine per public method of
    ``sync_cls``, which runs ``self._sync.<method>`` in a worker thread.
    ``functools.wraps`` keeps each method's name, docstring and
    ``inspect.signature``."""

    def twin(name: str, fn):
        @functools.wraps(fn)
        async def method(self, *args, **kwargs):
            return await asyncio.to_thread(
                getattr(self._sync, name), *args, **kwargs
            )

        return method

    def decorate(cls):
        for name, fn in vars(sync_cls).items():
            if inspect.isfunction(fn) and not name.startswith("_"):
                setattr(cls, name, twin(name, fn))
        return cls

    return decorate


@_awaitable_twins(LuceneFacade)
class AsyncLuceneFacade:
    """Async variant (≙ the reference's callback-based ``LuceneFacade``
    API, LuceneFacade.java:8-82 — every method takes a ``Result<T>``).
    Every public ``LuceneFacade`` method has an awaitable twin of the same
    name and signature; the blocking engine call runs in a worker
    thread."""

    def __init__(self, cfg: IndexConfig, **kw):
        self._sync = LuceneFacade(cfg, **kw)
