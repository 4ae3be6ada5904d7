"""Query engine (SURVEY.md §3.2 read path).

Driver parses the query (grammar Q1–Q7, shared analyzer), prunes to the
requested collection's segment directories (J1 — the reference's implicit
``__collectionKey__`` MUST clause, LuceneIndexBean.java:385-393, becomes
partition pruning), gathers global term stats across segments (phase 1), then
scores and cuts the top-k (K1, ≙ searcher.search(q, limit),
LuceneIndexBean.java:398).

Execution strategies:

* ``taat`` (default) — vectorized term-at-a-time over the collection scope
  (every live segment in one docid space, ``_Scope``): decode each clause's
  full posting list with one numpy varint pass, accumulate BM25 into ONE
  dense float64 accumulator, argpartition top-k.  On modern hardware this is
  the fastest strategy for batch/analytics workloads (memory-bandwidth
  bound, no per-document branching).
* ``bmw`` — per segment, then merged: document-at-a-time block-max WAND
  (north rule; J2): term cursors
  ordered by current docid, pivot selection against the top-k threshold using
  per-term score upper bounds, block-level refinement with the per-block
  max-tf metadata written at build time, block skipping via searchsorted on
  blk_maxdoc.  Wins when k << matches and posting lists are long (the
  online-serving regime).

Both are tested rank-identical to each other and to the brute-force oracle.
"""

from __future__ import annotations

import functools
import heapq
import math
from collections import OrderedDict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from lucene_plugin_ray.config import IndexConfig
from lucene_plugin_ray.functions.analysis import sanitize_collection
from lucene_plugin_ray.functions.bm25 import bm25_term_scores, idf
from lucene_plugin_ray.functions.codec import decode_block_abs
from lucene_plugin_ray.functions.fuzzy import FuzzyScreen
from lucene_plugin_ray.functions.similarity import (
    Similarity,
    resolve_similarity,
)
from lucene_plugin_ray.functions.queryparse import (
    MUST,
    MUST_NOT,
    SHOULD,
    Clause,
    MatchAllClause,
    MultiTermClause,
    PhraseClause,
    DisMaxClause,
    GroupClause,
    RangeClause,
    SpanClause,
    SynonymClause,
    TermClause,
    apply_fields,
    apply_synonyms,
    parse_query,
    regexp_fullmatch,
    scored_term_keys,
    validate_dismax_fields,
)
from lucene_plugin_ray.state.manifest import load_manifest_chain, load_tombstones
from lucene_plugin_ray.state.segment import SegmentReader

RESULT_SCHEMA = pa.schema(
    [("url", pa.string()), ("score", pa.float64()), ("docid", pa.int64())]
)

# Lucene join-module ScoreMode values (JoinUtil.createJoinQuery)
_JOIN_MODES = ("none", "max", "min", "total", "avg")

# one row per (collection, field, term) of an engine's alive df table
# (SearchEngine.local_df_table)
DF_TABLE_SCHEMA = pa.schema(
    [
        ("collection", pa.string()),
        ("field", pa.string()),
        ("term", pa.string()),
        ("df", pa.int64()),
    ]
)


def check_metadata_field(field_columns, role: str, name) -> None:
    """Reject ``name`` unless it is one of the indexed metadata
    ``field_columns``; ``role`` names the argument in the message."""
    if name not in field_columns:
        raise ValueError(
            f"{role} {name!r} is not an indexed metadata field "
            f"(have: {sorted(field_columns)})"
        )


def check_query_opts(
    cfg: IndexConfig, fields: dict[str, float] | None, tie_breaker: float,
    min_should_match: int,
) -> None:
    """Validate the dismax ``fields``/``tie_breaker`` pair and
    ``min_should_match`` of a classic query."""
    if fields is not None:
        validate_dismax_fields(
            fields, tie_breaker, {cfg.text_column, *cfg.field_columns}
        )
    elif tie_breaker != 0.0:
        raise ValueError("tie_breaker requires fields= (dismax)")
    if min_should_match < 0:
        raise ValueError("min_should_match must be >= 0")


def rewrite_query(
    query: str, default_field: str,
    synonyms: dict[str, list[str]] | None = None,
    fields: dict[str, float] | None = None, tie_breaker: float = 0.0,
) -> list[Clause]:
    """A classic query's clauses with the synonym rewrite, then the dismax
    ``fields`` rewrite, applied — the clauses the engine scores, and the
    ones the sharded driver's phase 1 gathers statistics for."""
    clauses = parse_query(query, default_field=default_field)
    if synonyms:
        clauses = list(apply_synonyms(tuple(clauses), synonyms))
    if fields:
        clauses = list(
            apply_fields(tuple(clauses), fields, tie_breaker, default_field)
        )
    return clauses


def build_dim_clauses(
    dims: dict, field_columns: tuple[str, ...]
) -> dict[str, list["TermClause"]]:
    """Validate + analyze a drill-down dimension map
    ({field: value | [values]}) into per-dim SHOULD TermClause lists
    (multiple values per dim = match ANY, DrillDownQuery.add parity).
    Shared by the single-engine and sharded DrillSideways paths so the
    driver can reject bad input before any fan-out."""
    from lucene_plugin_ray.functions.analysis import analyze

    if not dims:
        raise ValueError("dims must name at least one drill-down field")
    out: dict[str, list[TermClause]] = {}
    for field, vals in dims.items():
        check_metadata_field(field_columns, "drill-down field", field)
        if isinstance(vals, str):
            vlist = [vals]
        elif isinstance(vals, (list, tuple)):
            vlist = list(vals)
        else:
            raise ValueError(
                f"dim {field!r} value must be a string or list of strings, "
                f"got {type(vals).__name__}"
            )
        if not vlist:
            raise ValueError(f"dim {field!r} needs at least one value")
        clauses = []
        for v in vlist:
            if not isinstance(v, str):
                raise ValueError(
                    f"dim {field!r} values must be strings, got "
                    f"{type(v).__name__}"
                )
            toks = analyze(v)
            if len(toks) != 1:
                raise ValueError(
                    f"dim value {v!r} must analyze to exactly one term "
                    f"(got {toks}) — metadata fields are single-token"
                )
            clauses.append(TermClause(SHOULD, field, toks[0]))
        out[field] = clauses
    return out


def naive_bayes_table(
    toks: list[str],
    n_c: dict[str, int],
    df: dict[tuple[str, str], int],
    vocab: int,
) -> pa.Table:
    """The classification-module scoring fold shared by the single-engine
    and sharded paths: score(c) = ln(n_c/N) + Σ_tok ln((df+1)/(n_c+V)),
    summed over token OCCURRENCES in a fixed order — pure driver math over
    exact integers, so both paths produce bit-identical floats."""
    if not n_c:
        return pa.table(
            {"class": pa.array([], pa.string()),
             "score": pa.array([], pa.float64())}
        )
    import math

    n_total = sum(n_c.values())
    rows = []
    for cval in sorted(n_c):
        nc = n_c[cval]
        s = math.log(nc / n_total)
        for w in toks:  # occurrences weigh — Lucene parity
            s += math.log((df.get((w, cval), 0) + 1) / (nc + vocab))
        rows.append((cval, s))
    rows.sort(key=lambda r: (-r[1], r[0]))
    return pa.table(
        {
            "class": pa.array([r[0] for r in rows], pa.string()),
            "score": pa.array([r[1] for r in rows], pa.float64()),
        }
    )


def score_to_vote_units(scores: np.ndarray) -> np.ndarray:
    """THE classify_knn vote quantization — integer 1e-4 units of the
    round-4 score (floor(round(s,4)·1e4 + 0.5)).  One definition shared by
    the single-engine and sharded paths so the documented bit-for-bit
    identity cannot drift."""
    return np.floor(np.round(scores, 4) * 1e4 + 0.5).astype(np.int64)


def facet_count_table(acc: dict[str, int]) -> pa.Table:
    """(value, count) ordered (count desc, value asc) — the facets()
    output contract, shared by the single-engine and sharded DrillSideways
    emitters."""
    items = sorted(acc.items(), key=lambda kv: (-kv[1], kv[0]))
    return pa.table(
        {
            "value": pa.array([k for k, _ in items], pa.string()),
            "count": pa.array([v for _, v in items], pa.int64()),
        }
    )


def validate_taxonomy_fields(
    dim_fields, field_columns: tuple[str, ...]
) -> list[str]:
    """Validate a taxonomy level list (ordered indexed metadata fields,
    root level first) — shared by the single-engine and sharded paths so
    the sharded driver rejects bad input before any fan-out."""
    if not isinstance(dim_fields, (list, tuple)) or not dim_fields:
        raise ValueError(
            "dim_fields must be a non-empty ordered list of field names"
        )
    out: list[str] = []
    for f in dim_fields:
        if not isinstance(f, str) or f not in field_columns:
            raise ValueError(
                f"taxonomy level {f!r} is not an indexed metadata field "
                f"(have: {sorted(field_columns)})"
            )
        if f in out:
            raise ValueError(f"duplicate taxonomy level {f!r}")
        out.append(f)
    return out


def taxonomy_table(
    counts: dict[tuple[str, ...], int], top_n: int | None = None
) -> pa.Table:
    """(path, count) table from a taxonomy-counts dict — THE formatter
    shared by the single-engine and sharded paths (pruning after the exact
    count merge, so the twins cannot drift).

    ``top_n`` keeps only the top-``top_n`` children PER PARENT under the
    facets (count desc, value asc) rank — Lucene's getTopChildren(n)
    applied at every node; a pruned node's whole subtree is pruned with it.
    Rows are ordered by path ascending.  Path components are analyzed
    single tokens ([a-z0-9]+), so '/' never collides and the joined-string
    order equals the componentwise tuple order ('/' < every token char)."""
    if top_n is not None:
        top_n = int(top_n)
        if top_n < 1:
            raise ValueError("top_n must be >= 1")
        by_parent: dict[tuple[str, ...], list] = {}
        for path, c in counts.items():
            by_parent.setdefault(path[:-1], []).append((path, c))
        kept: dict[tuple[str, ...], int] = {}
        for parent in sorted(by_parent, key=len):
            if parent and parent not in kept:
                continue  # parent itself was pruned → drop the subtree
            kids = sorted(
                by_parent[parent], key=lambda kv: (-kv[1], kv[0])
            )
            for path, c in kids[:top_n]:
                kept[path] = c
        counts = kept
    items = sorted(
        (("/".join(p), c) for p, c in counts.items()), key=lambda kv: kv[0]
    )
    return pa.table(
        {
            "path": pa.array([p for p, _ in items], pa.string()),
            "count": pa.array([c for _, c in items], pa.int64()),
        }
    )


def knn_vote_table(acc: dict[str, list[int]]) -> pa.Table:
    """(class, vote_units, hits) from the integer vote fold, ordered
    (vote desc, class asc) — shared by the single-engine and sharded
    classify_knn paths (all inputs integers, merge = plain sums)."""
    items = sorted(acc.items(), key=lambda kv: (-kv[1][0], kv[0]))
    return pa.table(
        {
            "class": pa.array([c for c, _ in items], pa.string()),
            "vote_units": pa.array([a[0] for _, a in items], pa.int64()),
            "hits": pa.array([a[1] for _, a in items], pa.int64()),
        }
    )


def drill_filter_query(dim_clauses: dict[str, list["TermClause"]]) -> str:
    """The drill-down FILTER as a query string: every dim a MUST group,
    values within a dim OR'd (DrillDownQuery's per-dim disjunction)."""
    return " AND ".join(
        "(" + " OR ".join(f"{c.field}:{c.term}" for c in cl) + ")"
        for cl in dim_clauses.values()
    )


def _in_sorted(values: np.ndarray, sorted_arr: np.ndarray) -> np.ndarray:
    """bool mask: values ∈ sorted_arr (both int64; sorted_arr ascending)."""
    if sorted_arr.size == 0:
        return np.zeros(values.size, bool)
    idx = np.minimum(
        np.searchsorted(sorted_arr, values), sorted_arr.size - 1
    )
    return sorted_arr[idx] == values


_EMPTY_GROUPED = {
    "group": pa.string(), "group_rank": pa.int64(), "url": pa.string(),
    "score": pa.float64(), "docid": pa.int64(),
}


def rank_suggestions_table(
    dfs: dict[str, int], dists: dict[str, int], k: int
) -> pa.Table:
    """(distance asc, df desc, term asc) top-k spell suggestions — shared
    by the single engine and the sharded merge."""
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


def rank_grouped_table(
    groups: dict[str, list[tuple[str, float, int]]],
    group_limit: int,
    docs_per_group: int,
) -> pa.Table:
    """THE grouped-top-k rank + emission shared by the single engine and
    the sharded merge (one definition so the sharded-identity contract
    cannot drift): within-group (score desc, url asc) truncation, groups
    ranked by their head doc under the same total order (Lucene
    TopGroups), → (group, group_rank, url, score, docid)."""
    if not groups:
        return pa.table(
            {k: pa.array([], t) for k, t in _EMPTY_GROUPED.items()}
        )
    ranked = []
    for term, docs in groups.items():
        docs.sort(key=lambda x: (-x[1], x[0]))
        ranked.append((term, docs[:docs_per_group]))
    ranked.sort(key=lambda g: (-g[1][0][1], g[1][0][0]))
    ranked = ranked[:group_limit]
    out = {"group": [], "group_rank": [], "url": [], "score": [], "docid": []}
    for gi, (term, docs) in enumerate(ranked, start=1):
        for u, sc, d in docs:
            out["group"].append(str(term))
            out["group_rank"].append(gi)
            out["url"].append(str(u))
            out["score"].append(float(sc))
            out["docid"].append(int(d))
    return pa.table(
        {
            "group": pa.array(out["group"], pa.string()),
            "group_rank": pa.array(out["group_rank"], pa.int64()),
            "url": pa.array(out["url"], pa.string()),
            "score": pa.array(out["score"], pa.float64()),
            "docid": pa.array(out["docid"], pa.int64()),
        }
    )


def rank_completions_table(dfs: dict[str, int], k: int) -> pa.Table:
    """(df desc, term asc) top-k completion emission — shared by the
    single engine and the sharded merge."""
    items = sorted(dfs.items(), key=lambda x: (-x[1], x[0]))[:k]
    return pa.table(
        {
            "term": pa.array([t for t, _ in items], pa.string()),
            "df": pa.array([f for _, f in items], pa.int64()),
        }
    )


def _normalize_ranges(ranges) -> list[tuple]:
    """Validate + normalize LongRange-style facet ranges to 5-tuples
    (label, lo, hi, lo_inc, hi_inc) — shared by the single engine and the
    sharded partial so both reject the same inputs."""
    if not ranges:
        raise ValueError("ranges must be non-empty")
    norm: list[tuple] = []
    seen: set[str] = set()
    for rg in ranges:
        if len(rg) == 3:
            label, lo, hi = rg
            lo_inc, hi_inc = True, False
        elif len(rg) == 5:
            label, lo, hi, lo_inc, hi_inc = rg
        else:
            raise ValueError(
                f"range must be (label, lo, hi[, lo_inc, hi_inc]): {rg!r}"
            )
        if not isinstance(label, str) or not label:
            raise ValueError(f"range label must be a non-empty str: {label!r}")
        if label in seen:
            raise ValueError(f"duplicate range label {label!r}")
        seen.add(label)
        lo = int(lo) if lo is not None else None
        hi = int(hi) if hi is not None else None
        if lo is not None and hi is not None:
            eff_lo = lo if lo_inc else lo + 1
            eff_hi = hi if hi_inc else hi - 1
            if eff_lo > eff_hi:
                raise ValueError(f"empty range {label!r}: {rg!r}")
        norm.append((label, lo, hi, bool(lo_inc), bool(hi_inc)))
    return norm


def facet_stats_table(acc: dict[str, list[int]]) -> pa.Table:
    """(value, count, vmin, vmax, vsum) emission, value asc — shared by
    the single engine and the sharded fold."""
    items = sorted(acc.items())
    return pa.table(
        {
            "value": pa.array([k for k, _ in items], pa.string()),
            "count": pa.array([v[0] for _, v in items], pa.int64()),
            "vmin": pa.array([v[1] for _, v in items], pa.int64()),
            "vmax": pa.array([v[2] for _, v in items], pa.int64()),
            "vsum": pa.array([v[3] for _, v in items], pa.int64()),
        }
    )


def _regexp_literal_prefix(pattern: str) -> str:
    """Longest prefix every fullmatch of ``pattern`` is guaranteed to start
    with — the Q15 dictionary-range narrowing key.  Must be SOUND (never
    exclude a matching term), so:

    - a top-level alternation (unescaped ``|`` outside classes/groups)
      invalidates any prefix (``ab|cd``: the ``cd`` branch shares nothing)
      → empty prefix, full-vocabulary scan;
    - the literal run stops at the first metacharacter, and when that
      metacharacter is a quantifier that can repeat ZERO times
      (``*``, ``?``, ``{`` — ``{0,n}`` is conservative for all braces) the
      character it governs is dropped from the prefix (``ab*`` matches
      ``a``); ``+`` keeps its char (one-or-more)."""
    in_class = False
    depth = 0
    i = 0
    n = len(pattern)
    while i < n:
        ch = pattern[i]
        if ch == "\\":
            i += 2
            continue
        if in_class:
            if ch == "]":
                in_class = False
        elif ch == "[":
            in_class = True
        elif ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "|" and depth == 0:
            return ""
        i += 1
    lit: list[str] = []
    for ch in pattern:
        if ch in r"\.[]()*+?{}|^$":
            if ch in "*?{" and lit:
                lit.pop()
            break
        lit.append(ch)
    return "".join(lit)


def best_snippet_windows(
    urls: list[str],
    text_of: dict[str, str],
    qterms: list[str],
    window: int,
) -> tuple[list[int], list[int], list[str]]:
    """Best ``window``-token span per hit document — the index-free core of
    snippet highlighting, shared by :meth:`SearchEngine.snippets` and the
    sharded service (window selection needs only the raw text and the
    scored query terms, never the postings).

    Per url: analyze the text, pick the start maximizing the count of
    DISTINCT ``qterms`` inside the window (interval-cover sweep; earliest
    start wins ties).  Returns (1-based starts, distinct-term counts,
    normalized-token snippets)."""
    from lucene_plugin_ray.functions.analysis import analyze

    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    missing = [u for u in urls if u not in text_of]
    if missing:
        raise ValueError(
            f"texts table is missing {len(missing)} hit url(s), e.g. "
            f"{missing[:3]} — fetch the hit documents before calling"
        )
    starts: list[int] = []
    n_terms: list[int] = []
    snips: list[str] = []
    for u in urls:
        toks = analyze(text_of[u] or "")
        n = len(toks)
        if n == 0:
            starts.append(1)
            n_terms.append(0)
            snips.append("")
            continue
        w = min(window, n)
        n_starts = n - w + 1
        counts = np.zeros(n_starts, dtype=np.int64)
        tarr = np.asarray(toks, dtype=object)
        for t in qterms:
            pos = np.flatnonzero(tarr == t)
            if pos.size == 0:
                continue
            # window starts s covering position p: s in [p-w+1, p]
            lo = np.maximum(pos - w + 1, 0)
            hi = np.minimum(pos, n_starts - 1)
            d = np.zeros(n_starts + 1, dtype=np.int64)
            np.add.at(d, lo, 1)
            np.add.at(d, hi + 1, -1)
            counts += np.cumsum(d[:-1]) > 0
        best = int(np.argmax(counts))  # earliest max — the tiebreak
        starts.append(best + 1)
        n_terms.append(int(counts[best]))
        snips.append(" ".join(toks[best : best + w]))
    return starts, n_terms, snips


_SLOPPY_BIG = np.int64(1) << 61  # ±sentinel; BIG−(−BIG)=2^62 stays in int64
_SLOPPY_MASK_MAX = 12  # ≤4096 vectorized sweeps; longer phrases go polynomial
_SLOPPY_REPEAT_COMBO_MAX = 1_000_000  # per-anchor exact-solve enumeration cap


def _sloppy_phrase_weights(
    key_arrays: list[np.ndarray],
    slop: int,
    terms: tuple[str, ...],
    offsets: tuple[int, ...],
    width_shift: int = 0,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Q14 sloppy-phrase frequencies over one segment's composite position
    keys → (local docids asc, float64 sloppy freqs); None when no match.

    ``key_arrays[i]`` holds term i's sorted composite keys
    ``docid << 32 | position``; ``offsets[i]`` is term i's query position
    (offsets[0] == 0; gaps where the phrase text carried stop words).
    Contract (queryparse module docstring): per occurrence p₀ of term 0
    (the ANCHOR), d = minimal ``max(pᵢ−offᵢ) − min(pᵢ−offᵢ)`` over one
    occurrence per remaining term with pairwise-distinct actual positions;
    anchors with d ≤ slop contribute ``1/(1+d)`` (Lucene's sloppyFreq
    weight) to their doc's frequency.

    Vectorized exactly for distinct-term phrases: with the range forced to
    contain the anchor, each list's optimum is its floor-or-ceil neighbour
    of the anchor (any farther element only widens the range), so K−1
    searchsorted passes + a 2^(K−1) min/max sweep solve every anchor at
    once (K−1 ≤ ``_SLOPPY_MASK_MAX``; longer phrases switch to an exact
    polynomial left-edge enumeration so no query is exponential in its
    own length).  Cross-doc neighbours fail ``d ≤ slop`` automatically (the docid
    band is 2³² > any slop), and negative shifted positions (pᵢ < i, e.g. a
    transposed pair at doc start) stay correct because the composite is
    plain int64 arithmetic, not a masked bit-field.

    Phrases with REPEATED terms additionally need pairwise-distinct actual
    positions, which the floor/ceil screen ignores — it stays a LOWER
    bound, so anchors passing the screen are re-solved exactly over the
    ±slop windows (tiny: ≤ 2·slop+1 candidates per list) with the
    distinctness check; per-anchor Python, bounded by the screen's
    survivors.

    ``width_shift`` (unordered SpanNearQuery, query.py::_span_postings):
    the match condition becomes ``d − width_shift ≤ slop`` and the weight
    ``1/(1 + d − width_shift)`` — span width excludes the subspans' own
    lengths (max(p) − min(p) − (k−1) for k unit spans), while the phrase
    contract's d is the raw shifted-position range.  0 (the default) is
    the exact Q14 behaviour."""
    a = key_arrays[0]
    k = len(key_arrays)
    eff_slop = slop + width_shift
    shifted = [key_arrays[i] - offsets[i] for i in range(k)]
    floors: list[np.ndarray] = []
    ceils: list[np.ndarray] = []
    for i in range(1, k):
        ai = shifted[i]
        idx = np.searchsorted(ai, a)
        ceils.append(
            np.where(idx < ai.size, ai[np.minimum(idx, ai.size - 1)], _SLOPPY_BIG)
        )
        floors.append(
            np.where(idx > 0, ai[np.maximum(idx - 1, 0)], -_SLOPPY_BIG)
        )
    if k - 1 <= _SLOPPY_MASK_MAX:
        best = np.full(a.size, _SLOPPY_BIG, dtype=np.int64)
        for mask in range(1 << (k - 1)):
            lo = a.copy()
            hi = a.copy()
            for i in range(k - 1):
                ch = ceils[i] if (mask >> i) & 1 else floors[i]
                np.minimum(lo, ch, out=lo)
                np.maximum(hi, ch, out=hi)
            np.minimum(best, hi - lo, out=best)
    else:
        # long phrases: the 2^(K−1) sweep would be exponential in phrase
        # length (a user query could hang the engine), so switch to a
        # polynomial exact solve.  Vectorized screen first: any window
        # containing the anchor needs width ≥ min(ceilᵢ−a, a−floorᵢ) for
        # every list — a sound lower bound — then each surviving anchor is
        # solved exactly in O(K²) by enumerating the window's left edge L
        # (optimal L is the anchor or one chosen floor; lists with
        # floor < L are forced to their ceil, everything else floors).
        lb = np.zeros(a.size, dtype=np.int64)
        for i in range(k - 1):
            np.maximum(lb, np.minimum(ceils[i] - a, a - floors[i]), out=lb)
        best = np.full(a.size, _SLOPPY_BIG, dtype=np.int64)
        big = int(_SLOPPY_BIG)
        for j in np.flatnonzero(lb <= eff_slop):
            aj = int(a[j])
            fj = [int(floors[i][j]) for i in range(k - 1)]
            cj = [int(ceils[i][j]) for i in range(k - 1)]
            bd = big
            for L in {aj, *fj}:
                if L > aj or L < aj - eff_slop:
                    continue  # width would exceed slop; can't improve ≤-slop set
                hi_v = aj
                for f, c in zip(fj, cj):
                    if f < L:
                        hi_v = max(hi_v, c)
                bd = min(bd, hi_v - L)
            best[j] = bd
    if len(set(terms)) < k:
        # repeated terms: exact re-solve of screen survivors with the
        # distinct-actual-positions constraint
        from itertools import product

        cand = np.flatnonzero(best <= eff_slop)
        best = np.full(a.size, _SLOPPY_BIG, dtype=np.int64)
        for j in cand:
            aj = int(a[j])
            wins: list[list[tuple[int, int]]] = []
            n_combos = 1
            for i in range(1, k):
                ai = shifted[i]
                lo_i = int(np.searchsorted(ai, aj - eff_slop, side="left"))
                hi_i = int(np.searchsorted(ai, aj + eff_slop, side="right"))
                wins.append([(int(v), offsets[i]) for v in ai[lo_i:hi_i]])
                n_combos *= max(hi_i - lo_i, 1)
            if n_combos > _SLOPPY_REPEAT_COMBO_MAX:
                # repeated-term phrases need the pairwise-distinct exact
                # solve, which enumerates the candidate product — refuse
                # loudly instead of hanging on a pathological query
                raise ValueError(
                    "sloppy phrase too complex: repeated terms with "
                    f"{n_combos} candidate combinations at one anchor "
                    f"(cap {_SLOPPY_REPEAT_COMBO_MAX}); reduce the slop or "
                    "the phrase length"
                )
            bd = int(_SLOPPY_BIG)
            for combo in product(*wins):
                actual = {aj}  # anchor's actual composite == its key
                valid = True
                for v, i in combo:
                    av = v + i
                    if av in actual:
                        valid = False
                        break
                    actual.add(av)
                if not valid:
                    continue
                vals = [aj] + [v for v, _ in combo]
                d = max(vals) - min(vals)
                if d < bd:
                    bd = d
            best[j] = bd
    okm = best <= eff_slop
    if not okm.any():
        return None
    keys_ok = a[okm]
    docs = keys_ok >> 32
    w = 1.0 / (1.0 + (best[okm] - width_shift).astype(np.float64))
    starts = np.flatnonzero(np.concatenate(([True], docs[1:] != docs[:-1])))
    u_docs = docs[starts]
    pf = np.add.reduceat(w, starts)
    return u_docs, pf


def common_terms_parse(
    query: str, max_term_frequency: float, text_column: str
) -> list:
    """CommonTermsQuery input validation (shared by the engine and the
    sharded driver): plain unboosted default-field SHOULD terms only —
    operators, phrases, fields, boosts are loud errors (Lucene's
    CommonTermsQuery takes bare Terms)."""
    if not (max_term_frequency > 0):
        # `not (x > 0)` also catches NaN, which would otherwise classify
        # every term into NEITHER group and silently return empty
        raise ValueError("max_term_frequency must be positive")
    clauses = parse_query(query, default_field=text_column)
    if not all(
        isinstance(c, TermClause)
        and c.occur == SHOULD
        and c.boost == 1.0
        and c.field == text_column
        for c in clauses
    ):
        raise ValueError(
            "common-terms query takes plain unboosted default-field "
            f"terms only, got {query!r}"
        )
    return clauses


def common_terms_rewrite(
    term_clauses: list,
    max_term_frequency: float,
    dfs: dict,
    n_docs: int,
) -> list:
    """CommonTermsQuery.rewrite (queries module): split terms by
    corpus-global df against the cutoff (``max_term_frequency`` ≥ 1 is an
    absolute df, < 1 a fraction of the doc count — Lucene's dual
    convention; unseen terms are low).  With both groups non-empty the
    low-frequency group is REQUIRED (any low term, SHOULD inside) and the
    high-frequency group optional SHOULD — high-df terms score docs the
    low group already matched but never match on their own; a one-sided
    split degenerates to the plain SHOULD group."""
    if not term_clauses:
        return []
    cutoff = (
        float(max_term_frequency)
        if max_term_frequency >= 1.0
        else max_term_frequency * n_docs
    )
    lows = [
        c for c in term_clauses if dfs.get((c.field, c.term), 0) <= cutoff
    ]
    highs = [
        c for c in term_clauses if dfs.get((c.field, c.term), 0) > cutoff
    ]
    if lows and highs:
        return [
            GroupClause(MUST, tuple(lows)),
            GroupClause(SHOULD, tuple(highs)),
        ]
    return list(lows or highs)


def _diversify_hits(t: pa.Table, max_per_key: int, limit: int) -> pa.Table:
    """Greedy diversified selection over a (url, score, key, docid) hit
    table: order by the (score desc, url asc) total order, keep each row
    while its key has produced < ``max_per_key`` kept rows (null keys are
    unconstrained), truncate at ``limit``.  Equal to the rank-within-key
    ≤ cap filter because the scan order is total, and capping per shard
    then recapping the union is idempotent — what makes the sharded driver
    merge exact.  The engine uses the all-int
    :func:`_diversify_codes` twin; this function serves the sharded-driver
    merge (object-url tiebreak)."""
    if t.num_rows == 0:
        return t
    urls = t["url"].to_numpy(zero_copy_only=False)
    scores = t["score"].to_numpy()
    order = np.lexsort((urls, -scores))
    keys = t["key"].to_numpy(zero_copy_only=False)[order]
    present = np.logical_not(
        pc.is_null(t["key"].combine_chunks()).to_numpy(zero_copy_only=False)
    )[order]
    # rank of each row within its key along the scan order: stable
    # argsort by key groups equal keys preserving scan order, then
    # run-ranks inside each group
    keep = np.ones(keys.size, dtype=bool)
    if present.any():
        idx = np.flatnonzero(present)
        # hash-based factorize → dense int codes: the group-by-key rank
        # pass runs on int argsort instead of object-string compares
        # (the former astype("U") + string argsort dominated the op)
        import pandas as pd

        codes = pd.factorize(keys[idx])[0]
        grp = np.argsort(codes, kind="stable")
        sorted_keys = codes[grp]
        starts = np.flatnonzero(
            np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
        )
        run_id = np.cumsum(
            np.concatenate(
                ([0], (sorted_keys[1:] != sorted_keys[:-1]).astype(np.int64))
            )
        )
        rank = np.arange(sorted_keys.size, dtype=np.int64) - starts[run_id]
        keep_sub = np.empty(codes.size, dtype=bool)
        keep_sub[grp] = rank < max_per_key
        keep[idx] = keep_sub
    sel = order[keep][:limit]
    return t.take(pa.array(sel))


def _diversify_codes(
    order: np.ndarray, codes: np.ndarray, max_per_key: int, limit: int
) -> np.ndarray:
    """Index twin of :func:`_diversify_hits` for hits with integer key
    codes, already in scan order (``order``): returns the selected row
    indices in scan order.  Code -1 = missing key = unconstrained.
    All-int — no object strings touch the full match set."""
    csort = codes[order]
    keep = np.ones(csort.size, dtype=bool)
    present = csort >= 0
    if present.any():
        idx = np.flatnonzero(present)
        sub = csort[idx]
        grp = np.argsort(sub, kind="stable")
        sk = sub[grp]
        starts = np.flatnonzero(np.concatenate(([True], sk[1:] != sk[:-1])))
        run_id = np.cumsum(
            np.concatenate(([0], (sk[1:] != sk[:-1]).astype(np.int64)))
        )
        rank = np.arange(sk.size, dtype=np.int64) - starts[run_id]
        keep_sub = np.empty(sub.size, dtype=bool)
        keep_sub[grp] = rank < max_per_key
        keep[idx] = keep_sub
    return order[keep][:limit]


_NUMERIC_SORT_FIELDS = ("warc_ts", "doc_len")


def sort_order_mixed(urls, keys, fields) -> np.ndarray:
    """Order indices for a multi-key sort over mixed int64 / string-object
    key columns with the url-asc tiebreak last.  String keys are reduced
    to dense int ranks (np.unique) with missing (None) mapped to +max so
    missing sorts LAST regardless of direction (STRING_LAST); every key
    then feeds one np.lexsort.  Ranks are order-isomorphic to the strings,
    so per-segment truncation under this order merges exactly when the
    merge pass re-ranks over the union (shared by SearchEngine and the
    sharded driver merge)."""
    cols = [urls]
    for (f, d), k in zip(reversed(list(fields)), list(reversed(keys))):
        if f in _NUMERIC_SORT_FIELDS:
            cols.append(-k if d == "desc" else k)
            continue
        k = np.asarray(k, dtype=object)
        mask = np.array([v is not None for v in k], dtype=bool)
        ranks = np.full(k.size, np.iinfo(np.int64).max, dtype=np.int64)
        if mask.any():
            _, inv = np.unique(k[mask].astype("U"), return_inverse=True)
            ranks[mask] = -inv if d == "desc" else inv
        cols.append(ranks)
    return np.lexsort(tuple(cols))


def mlt_select_clauses(
    tf: dict, dfs: dict, n_docs: int, max_query_terms: int, field: str
) -> list:
    """Shared MoreLikeThis term selection — like-text AND like-docId, on
    the engine AND the sharded driver (ONE copy so the contract the
    bit-identity tests pin cannot drift): tf·idf weights over df>0 terms,
    (weight desc, term asc) — deterministic: equal weights only arise
    from identical (tf, df) pairs — top ``max_query_terms`` as SHOULD
    TermClauses.  ``dfs``: {(field, term): df}."""
    weighted = [
        (tf[t] * idf(df, n_docs), t)
        for (_f, t), df in dfs.items()
        if df > 0
    ]
    weighted.sort(key=lambda wt: (-wt[0], wt[1]))
    return [
        TermClause(occur="SHOULD", field=field, term=t)
        for _, t in weighted[:max_query_terms]
    ]


def exclude_source_url(res: pa.Table, url: str, limit: int) -> pa.Table:
    """Drop the MLT source document from a fetched limit+1 result and
    re-truncate — the like-document exclusion, shared everywhere."""
    if res.num_rows:
        res = res.filter(
            pc.not_equal(res["url"], pa.scalar(url))
        ).slice(0, limit)
    return res


def sorted_after_mask(keys, urls, fields, after_keys, after_url) -> np.ndarray:
    """Boolean mask of rows STRICTLY AFTER the anchor under the composite
    (keys per direction, missing-last, url asc) total order — the
    searchAfter(FieldDoc) predicate for an arbitrary Sort, shared by the
    engine and the sharded partials.  ``after_keys`` aligns with
    ``fields``; a None anchor value for a string key means the anchor sat
    in the missing-last block.  Vectorized lexicographic compare: one
    pass per key maintaining (strictly-after, still-equal) state."""
    n = len(urls)
    after = np.zeros(n, dtype=bool)
    eq = np.ones(n, dtype=bool)
    for (f, d), k, av in zip(fields, keys, after_keys):
        if f in _NUMERIC_SORT_FIELDS:
            if av is None or isinstance(av, bool) or not isinstance(
                av, (int, float)
            ):
                raise ValueError(
                    f"after value for numeric sort field {f!r} must be a "
                    f"number, got {av!r}"
                )
            if isinstance(av, float) and not av.is_integer():
                raise ValueError(
                    f"after value for integer sort field {f!r} must be "
                    f"integral, got {av!r}"
                )
            kv = np.asarray(k, dtype=np.int64)
            a_int = int(av)
            gt = kv > a_int if d == "asc" else kv < a_int
            eq_here = kv == a_int
        else:
            k = np.asarray(k, dtype=object)
            isnull = np.array([v is None for v in k], dtype=bool)
            if av is None:
                # anchor in the missing-last block: only missing rows tie,
                # nothing sorts after missing
                gt = np.zeros(n, dtype=bool)
                eq_here = isnull
            else:
                if not isinstance(av, str):
                    raise ValueError(
                        f"after value for string sort field {f!r} must be "
                        f"a string or None, got {av!r}"
                    )
                vals = np.where(isnull, "", k).astype("U")
                if d == "asc":
                    gt = (vals > av) & ~isnull
                else:
                    gt = (vals < av) & ~isnull
                gt = gt | isnull  # missing sorts LAST in both directions
                eq_here = (vals == av) & ~isnull
        after |= eq & gt
        eq &= eq_here
    if not isinstance(after_url, str):
        raise ValueError(
            f"after_url must be a string, got {type(after_url).__name__}"
        )
    u = np.asarray(urls, dtype=object).astype("U")
    after |= eq & (u > after_url)
    return after


def make_span_clause(
    kind: str,
    terms,
    field: str,
    slop: int = 0,
    in_order: bool = True,
    end: int = 0,
    exclude=(),
    pre: int = 0,
    post: int = 0,
) -> SpanClause:
    """Validate + analyze a span query's raw terms into a SpanClause.
    Every raw term must analyze to exactly ONE index token (a stop word or
    empty/multi-token input is a loud error — Lucene's SpanTermQuery takes
    an already-analyzed Term, so silent rewriting would invent semantics).
    Window parameters share Q14's ``_SLOP_MAX`` bound (the 2³² docid band
    argument).  Shared by SearchEngine's span methods and the sharded
    service's driver-side validation (pipelines/sharded.py)."""
    from lucene_plugin_ray.functions.analysis import analyze
    from lucene_plugin_ray.functions.queryparse import _SLOP_MAX

    def _one_token(raw: str, what: str) -> str:
        toks = analyze(str(raw))
        if len(toks) != 1:
            raise ValueError(
                f"span {what} {raw!r} must analyze to exactly one "
                f"index token, got {toks!r} (stop words and "
                "multi-token input are not valid span terms)"
            )
        return toks[0]

    if not terms:
        raise ValueError("span query needs at least one term")
    a_terms = tuple(_one_token(t, "term") for t in terms)
    a_exclude = tuple(_one_token(t, "exclude term") for t in exclude)
    for name, v in (("slop", slop), ("pre", pre), ("post", post)):
        if not (0 <= v <= _SLOP_MAX):
            raise ValueError(f"{name} must be in [0, {_SLOP_MAX}], got {v}")
    if kind == "near":
        if len(a_terms) < 2:
            raise ValueError("span_near needs at least two terms")
        if not in_order and len(set(a_terms)) != len(a_terms):
            raise ValueError(
                "unordered span_near with repeated terms is not "
                "supported (the non-overlap semantics of repeated "
                "unit subspans are ambiguous) — use in_order=True"
            )
    elif kind == "first":
        if len(a_terms) != 1:
            raise ValueError("span_first takes exactly one term")
        if end < 1:
            raise ValueError(f"end must be >= 1, got {end}")
    elif kind == "not":
        if len(a_terms) != 1:
            raise ValueError("span_not takes exactly one include term")
        if not a_exclude:
            raise ValueError("span_not needs at least one exclude term")
    else:
        raise ValueError(f"unknown span kind {kind!r}")
    return SpanClause(
        occur=SHOULD, field=field, kind=kind, terms=a_terms, slop=slop,
        in_order=in_order, end=end, exclude=a_exclude, pre=pre, post=post,
    )


class _LiveSegment:
    """A SegmentReader plus its alive-mask under newer tombstones/clears."""

    def __init__(self, reader: SegmentReader, alive: np.ndarray):
        self.reader = reader
        self.alive = alive  # bool[n_docs] — False = superseded/deleted/cleared
        self.n_alive = int(alive.sum())
        self.all_alive = self.n_alive == reader.n_docs  # skip mask filtering
        self.sum_dl_alive = {
            f: int(dl[alive].sum()) for f, dl in reader.doc_len.items()
        }


def prefix_range(terms: np.ndarray, prefix: str) -> tuple[int, int]:
    """``[a, b)``: the positions of the sorted ``terms`` that start with
    ``prefix`` — two binary searches.  The exclusive upper bound bumps the
    last bumpable codepoint of ``prefix``: every prefix-extension sorts
    strictly below it."""
    a = int(np.searchsorted(terms, prefix, side="left"))
    p = prefix
    while p and ord(p[-1]) >= 0x10FFFF:
        p = p[:-1]
    if not p:
        return a, terms.size
    hi = p[:-1] + chr(ord(p[-1]) + 1)
    return a, int(np.searchsorted(terms, hi, side="left"))


class _TermDictionary:
    """One field's term dictionary over a list of live segments (a scope's
    members), merged once:

    * ``terms`` — the sorted union of the members' field dictionaries; a
      code (index into ``terms``) names the same term in every member;
    * ``starts[i]`` / ``codes[i]`` — member ``i``'s first dictionary row of
      the field and the union code of each row of its field range (rows
      and codes ascend together);
    * ``stored_df`` — per code, the sum of the members' dictionary df:
      stored postings, dead docs included, so an upper bound of the alive
      df;
    * ``screen`` / ``arrow_terms`` — the fuzzy screen over ``terms`` and
      ``terms`` as an Arrow string array (for the RE2 and substring
      kernels), each built on first use.

    Multi-term expansion and the vocabulary ops match terms here once per
    scope, not once per member, and :meth:`member_rows` maps the matched
    codes back to each member's dictionary rows."""

    def __init__(self, segs: list[_LiveSegment], field: str):
        self.segs = segs
        vocabs = [s.reader.field_vocab(field) for s in segs]
        self.starts = [start for start, _ in vocabs]
        present = [v for _, v in vocabs if v.size]
        if len(present) == 1:
            # one member's field vocabulary is already sorted and distinct:
            # a field only one member holds (each 1-partition shard's
            # df-table load) needs no merge
            self.terms, inv = present[0], np.arange(present[0].size, dtype=np.int64)
        elif present:
            self.terms, inv = np.unique(np.concatenate(present), return_inverse=True)
        else:
            self.terms, inv = np.empty(0, object), np.empty(0, np.int64)
        self.codes = np.split(inv, np.cumsum([v.size for _, v in vocabs])[:-1])
        self.stored_df = np.zeros(self.terms.size, dtype=np.int64)
        for seg, start, codes in zip(segs, self.starts, self.codes):
            self.stored_df[codes] += seg.reader._df[start:start + codes.size]

    @functools.cached_property
    def screen(self) -> FuzzyScreen:
        return FuzzyScreen(self.terms)

    @functools.cached_property
    def arrow_terms(self) -> pa.Array:
        return pa.array(self.terms, type=pa.string())

    def member_rows(self, codes: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per member, ``(at, rows)``: the positions in ``codes`` of the
        codes the member holds, and its dictionary rows of them (a code's
        row is one ``searchsorted`` into the ascending ``codes[i]``)."""
        out = []
        for start, mine in zip(self.starts, self.codes):
            j = np.searchsorted(mine, codes)
            hit = j < mine.size
            hit[hit] &= mine[j[hit]] == codes[hit]
            at = np.flatnonzero(hit)
            out.append((at, start + j[at]))
        return out

    def alive_df(self, codes: np.ndarray) -> np.ndarray:
        """Exact alive df of each code: the stored df of the all-alive
        members, plus, per member with deletes, one bulk docid decode of
        its rows among ``codes`` masked by ``alive``."""
        if all(s.all_alive for s in self.segs):
            return self.stored_df[codes]
        df = np.zeros(codes.size, dtype=np.int64)
        for seg, (at, rows) in zip(self.segs, self.member_rows(codes)):
            r = seg.reader
            if seg.all_alive:
                df[at] += r._df[rows]
                continue
            alive = seg.alive[r.local_ids(r.docids_many(rows))]
            owner = np.repeat(np.arange(rows.size), r._df[rows].astype(np.int64))
            df[at] += np.bincount(owner[alive], minlength=rows.size)
        return df

    def live_dfs(self, codes: np.ndarray) -> dict[str, int]:
        """{term: alive df} of the distinct ``codes`` whose alive df is
        positive."""
        df = self.alive_df(codes)
        keep = df > 0
        return dict(zip(self.terms[codes[keep]].tolist(), df[keep].tolist()))


class _FieldColumn:
    """One indexed metadata field over a scope, built from its postings:

    * ``vocab`` — the scope dictionary's ``terms``
      (:meth:`_Scope.dictionary`), so codes order like the terms;
    * ``codes`` / ``ids`` — one entry per posting (dead docs included),
      ordered by code, then scope id; ``bounds[j]:bounds[j + 1]`` is term
      ``j``'s run;
    * ``min_code`` — per scope id, the code of the doc's minimum term, -1
      when the doc has none: the SortedDocValues ordinal reconstructed from
      the inverted index (SortedSetSortField's 'min' selector for
      multi-valued docs)."""

    def __init__(self, scope: "_Scope", field: str):
        d = scope.dictionary(field)
        self.vocab = d.terms
        codes, ids = [], []
        for seg, off, start, mine in zip(scope.segs, scope.offsets, d.starts, d.codes):
            if not mine.size:
                continue
            r = seg.reader
            rows = np.arange(start, start + mine.size, dtype=np.int64)
            codes.append(np.repeat(mine, r._df[rows].astype(np.int64)))
            ids.append(r.local_ids(r.docids_many(rows)) + off)
        self.codes = np.concatenate(codes) if codes else np.empty(0, np.int64)
        self.ids = np.concatenate(ids) if ids else np.empty(0, np.int64)
        # each member's postings are already (code, id)-ordered and member
        # offsets ascend, so a stable sort by code gives (code, id) order
        order = np.argsort(self.codes, kind="stable")
        self.codes, self.ids = self.codes[order], self.ids[order]
        self.bounds = np.searchsorted(self.codes, np.arange(self.vocab.size + 1))
        self.min_code = np.full(scope.n, -1, dtype=np.int64)
        # the first occurrence of a doc in code order is its minimum term
        uniq, first = np.unique(self.ids, return_index=True)
        self.min_code[uniq] = self.codes[first]

    def terms(self, codes: np.ndarray) -> np.ndarray:
        """Object array of the terms of ``codes``, None where -1."""
        out = np.full(codes.size, None, dtype=object)
        got = codes >= 0
        out[got] = self.vocab[codes[got]]
        return out

    def within(self, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(codes, ids) of the postings whose scope id is set in ``mask``,
        in (code, id) order."""
        keep = mask[self.ids]
        return self.codes[keep], self.ids[keep]


class _Scope:
    """Live segments laid end to end in one docid space — the unit every
    read op runs on.  Member ``i`` owns scope ids
    ``[offsets[i], offsets[i] + n_docs_i)``: scope id = member-local docid +
    the member's offset, so within a member scope id order is url order
    (docids are url ranks).  ``alive``, ``doc_len[field]``, ``urls`` and the
    absolute docids are the members' arrays concatenated in member order (a
    field a member lacks reads 0 there; no posting of that member can name
    it).  A single segment is the one-member scope: offset 0 and the
    segment's own arrays, no copies.  ``warc_ts``, the per-field
    :class:`_TermDictionary` and the per-field :class:`_FieldColumn` are
    built on first use and kept with the scope.

    ``key`` names the scope in the postings LRU: the segment path for one
    member, the tuple of member paths otherwise."""

    def __init__(self, segs: list[_LiveSegment]):
        self.segs = segs
        self.offsets: list[int] = []
        n = 0
        for s in segs:
            self.offsets.append(n)
            n += s.reader.n_docs
        self.n = n
        self.all_alive = all(s.all_alive for s in segs)
        self._dicts: dict[str, _TermDictionary] = {}
        self._fields: dict[str, _FieldColumn] = {}
        if len(segs) == 1:
            r = segs[0].reader
            self.key: "str | tuple[str, ...]" = r.path
            self.alive = segs[0].alive
            self.doc_len = r.doc_len
            self.urls = r.urls
            self._doc_base = r.doc_base
            self._docids = None
            return
        readers = [s.reader for s in segs]
        self.key = tuple(r.path for r in readers)
        self.alive = np.concatenate([s.alive for s in segs])
        self.doc_len = {}
        for f in dict.fromkeys(f for r in readers for f in r.doc_len):
            dtype = next(r.doc_len[f].dtype for r in readers if f in r.doc_len)
            self.doc_len[f] = np.concatenate(
                [r.doc_len.get(f, np.zeros(r.n_docs, dtype)) for r in readers]
            )
        self.urls = np.concatenate([r.urls for r in readers])
        self._docids = np.concatenate(
            [r.doc_base + np.arange(r.n_docs, dtype=np.int64) for r in readers]
        )

    def docids(self, ids: np.ndarray) -> np.ndarray:
        """Absolute (segment doc_base + local) docids of scope ids."""
        if self._docids is None:
            return self._doc_base + ids
        return self._docids[ids]

    @functools.cached_property
    def warc_ts(self) -> np.ndarray:
        """int64 epoch-µs per scope id."""
        return np.concatenate(
            [s.reader.warc_ts.astype(np.int64, copy=False) for s in self.segs]
        )

    def dictionary(self, field: str) -> _TermDictionary:
        d = self._dicts.get(field)
        if d is None:
            d = self._dicts[field] = _TermDictionary(self.segs, field)
        return d

    def field(self, name: str) -> _FieldColumn:
        col = self._fields.get(name)
        if col is None:
            col = self._fields[name] = _FieldColumn(self, name)
        return col

    def live_ids(self, urls: np.ndarray) -> np.ndarray:
        """Scope id of each url's live copy (-1 where none is live)."""
        out = np.full(len(urls), -1, dtype=np.int64)
        for seg, off in zip(self.segs, self.offsets):
            su = seg.reader.urls
            i = np.searchsorted(su, urls)
            ok = i < su.size
            ok[ok] &= su[i[ok]] == urls[ok]
            ok[ok] &= self.alive[i[ok] + off]
            out[ok] = i[ok] + off
        return out


def _top_hits(scope: _Scope, cand: np.ndarray, sc: np.ndarray, limit: int) -> pa.Table:
    """The (url, score, docid) table of the best ``limit`` candidates
    (scope ids ``cand``, ascending, with scores ``sc``), ordered (score
    desc, url asc).  A bounded selection comes first: ``argpartition``
    alone would pick an ARBITRARY subset of the docs tied at the k-th
    score, so every candidate above it is kept and the tied ones the cut
    needs are the first by url (:func:`_first_by_url`: a constant-score
    clause ties its whole match set, and only members × ``limit`` of its
    urls are compared).  One sort of the ``limit`` kept urls orders them.
    Url order is invariant under generations, partitioning and
    compaction, unlike docids (whose ranges are per generation)."""
    if cand.size == 0:
        return RESULT_SCHEMA.empty_table()
    if cand.size > limit:
        kth = np.partition(sc, sc.size - limit)[sc.size - limit]
        keep = sc >= kth
        cand, sc = cand[keep], sc[keep]
        if cand.size > limit:  # the cut splits the candidates tied at kth
            tied = np.flatnonzero(sc == kth)
            keep = sc > kth
            need = limit - (cand.size - tied.size)
            keep[_first_by_url(scope, cand, tied, need)] = True
            cand, sc = cand[keep], sc[keep]
    urls = scope.urls[cand]
    order = np.lexsort((urls, -sc))[:limit]
    return pa.table(
        {
            # from a list: pyarrow converts an object ndarray far slower
            "url": pa.array(urls[order].tolist(), type=pa.string()),
            "score": pa.array(sc[order], type=pa.float64()),
            "docid": pa.array(scope.docids(cand[order]), type=pa.int64()),
        }
    )


def _first_by_url(
    scope: _Scope, ids: np.ndarray, rows: np.ndarray, need: int
) -> np.ndarray:
    """The ``need`` of ``rows`` (indices into ``ids``, ascending scope ids)
    whose urls come first, in url order — :func:`_top_hits`' tie-break of
    the candidates tied at the k-th score.  Within a member scope id order
    is url order, so they are among each member's first ``need`` rows: at
    most members × ``need`` urls are compared, whatever the tie's size."""
    # each member's rows: ids ascend, and members lie end to end
    bounds = np.searchsorted(ids[rows], scope.offsets[1:]).tolist()
    pick = np.concatenate([
        rows[i : min(i + need, j)]
        for i, j in zip([0, *bounds], [*bounds, rows.size])
    ])
    return pick[np.argsort(scope.urls[ids[pick]], kind="stable")[:need]]


def _url_order(scope: _Scope, ids: np.ndarray, keys: tuple) -> np.ndarray:
    """Indices that sort scope ids ``ids`` by ``keys`` (``np.lexsort``
    order: the last key is primary) with the url-asc tiebreak last.  Within
    a member scope id order is url order, so one numeric lexsort settles
    every row but ties across members; only the tied rows' urls are
    compared — no object sort over a full match set."""
    order = np.lexsort((ids, *keys))
    if order.size < 2:
        return order
    same = np.ones(order.size - 1, dtype=bool)
    for k in keys:
        ks = k[order]
        same &= ks[1:] == ks[:-1]
    if same.any():
        tied = np.flatnonzero(
            np.concatenate(([False], same)) | np.concatenate((same, [False]))
        )
        run = np.concatenate(([0], np.cumsum(~same)))[tied]
        sub = np.lexsort((scope.urls[ids[order[tied]]], run))
        order[tied] = order[tied][sub]
    return order


def _id_mask(n: int, ids: np.ndarray) -> np.ndarray:
    """bool[n], True at ``ids``."""
    m = np.zeros(n, dtype=bool)
    m[ids] = True
    return m


def _run_starts(codes: np.ndarray) -> np.ndarray:
    """Start index of each run of equal values in a sorted non-empty array."""
    return np.flatnonzero(np.concatenate(([True], codes[1:] != codes[:-1])))


def _decoded_term_keys(clauses) -> set[tuple[str, str]]:
    """(field, term) pairs whose posting lists the TAAT/AND executors decode:
    TERM clauses and synonym members at any nesting depth (phrase and span
    terms go through the positional path instead)."""
    out: set[tuple[str, str]] = set()
    for c in clauses:
        if isinstance(c, TermClause):
            out.add((c.field, c.term))
        elif isinstance(c, SynonymClause):
            out.update((c.field, t) for t in c.terms)
        elif isinstance(c, (GroupClause, DisMaxClause)):
            out |= _decoded_term_keys(c.clauses)
    return out


def _explain_row(c: Clause, got, doc: int, global_df: dict, n_docs: int) -> dict:
    """One top-level clause's row of :meth:`SearchEngine.explain`, read
    off its :meth:`SearchEngine._eval_clause` result ``got`` at scope id
    ``doc``: whether it matched, the frequency its similarity saw there
    (tf, or a phrase's freq — a float Σ 1/(1+d) under slop) and the weight
    it added to the doc's score (0 for a MUST_NOT clause, which
    :meth:`SearchEngine._eval_boolean` evaluates score-free)."""
    hit, weight, freq = False, 0.0, 0
    if got is not None:
        ids, contrib, freqs = got
        j = int(np.searchsorted(ids, doc))
        hit = j < ids.size and ids[j] == doc
        if hit and contrib is not None:
            weight = float(contrib[j] if isinstance(contrib, np.ndarray) else contrib)
        if hit and freqs is not None:
            freq = freqs[j]
    df = w = None
    tf = int(hit)
    if isinstance(c, MatchAllClause):
        kind, detail = "match_all", "*:*"
    elif isinstance(c, TermClause):
        kind, detail = "term", c.term
        df = global_df[(c.field, c.term)]
        tf, w = int(freq), idf(df, n_docs) if df else 0.0
    elif isinstance(c, PhraseClause):
        kind = "phrase"
        detail = " ".join(c.terms) + (f"~{c.slop}" if c.slop else "")
        tf = float(freq) if c.slop else int(freq)
        w = sum(
            idf(global_df.get((c.field, t), 0), n_docs)
            for t in c.terms
            if global_df.get((c.field, t), 0) > 0
        )
    elif isinstance(c, GroupClause):
        kind, detail = "group", f"({len(c.clauses)} clauses)"
    elif isinstance(c, RangeClause):
        kind = "range"
        detail = (
            ("[" if c.lo_inc else "{")
            + f"{c.lo if c.lo is not None else '*'} TO "
            + f"{c.hi if c.hi is not None else '*'}"
            + ("]" if c.hi_inc else "}")
        )
    else:
        assert isinstance(c, MultiTermClause)
        kind, detail = c.kind, c.pattern
    return {"kind": kind, "occur": c.occur, "field": getattr(c, "field", None),
            "detail": detail, "df": df, "tf": tf, "idf": w, "boost": c.boost,
            "weight": weight}


class SearchEngine:
    """In-process query engine over an index root (one per generation pin).

    ≙ T2 SearcherManager semantics: construction pins the latest (or given)
    generation; a new build requires a new SearchEngine (searcher refresh).
    Per-engine LRU caches mirror T3/T4 (LuceneIndexBean.java:104,792) and are
    naturally invalidated by the generation pin.

    Every read op runs once per COLLECTION, not once per segment: the
    collection's live segments (partitions × generations) form one
    :class:`_Scope`, built on the collection's first query and kept for the
    engine's life.  ``search`` and the scored aux ops (paging, function /
    expression / boosting / filtered / diversified / grouped search,
    rescore, field sorts, joins) and ``explain`` make one
    :meth:`_eval_boolean` pass with one accumulator and one cut under the
    total order; the counting ops (count, facets, histograms,
    drill-sideways, classification) make one pass of its score-free mode
    and read metadata fields through the scope's :class:`_FieldColumn`.
    :meth:`_eval_boolean` is the only code that combines boolean clauses.
    The vocabulary ops (``suggest``, ``complete``, ``complete_infix``,
    ``top_terms``, ``text_vocab_*``, ``index_stats``) and multi-term
    expansion (prefix / wildcard / regexp / fuzzy clauses,
    :meth:`_expand_rows`) read the scope's per-field
    :class:`_TermDictionary`, whose members' dictionaries are merged once;
    term and range lookups stay per member.  What still loops over
    segments: ``term_vector`` (a per-document lookup in the doc's own
    segment), and the block-max executors (``bmax``/``bmw``), whose
    pruning reads each segment's stored per-block bounds and block layout,
    which do not concatenate.
    """

    def __init__(
        self,
        index_root: str,
        generation: int | None = None,
        cfg: IndexConfig | None = None,
        partitions: "frozenset[int] | set[int] | None" = None,
        similarity: "str | Similarity | None" = None,
    ):
        """``partitions``: restrict the engine to a subset of the index's
        document partitions (T2 at cluster scale — each query actor pins its
        ASSIGNED partitions instead of the whole index; see
        pipelines/sharded.py).  Safe because all masking (upsert/delete/clear)
        is per (collection, partition).  A partition-restricted engine's
        LOCAL stats are partial — sharded callers must inject global stats
        via ``search_partial`` for exact BM25 scores.

        ``similarity``: per-field scoring function — Lucene
        IndexSearcher.setSimilarity.  'bm25' (default, cfg.k1/cfg.b),
        'classic' (TF-IDF), 'boolean', 'lmdirichlet', or a
        functions.similarity.Similarity instance; a searcher property, so
        the SAME index answers under any of them (exact integer doc
        lengths/tfs are similarity-agnostic).  Non-BM25 engines route
        scored queries through the exact TAAT/galloping paths — the
        block-max strategies' stored upper bounds are BM25-specific."""
        self.cfg = cfg or IndexConfig(index_root=index_root)
        self.index_root = index_root
        self.partitions = frozenset(partitions) if partitions is not None else None
        self.chain = load_manifest_chain(index_root, generation)
        self.generation = self.chain[-1].generation
        # Decode parameters are BUILD-time properties: trust the manifest's
        # persisted block_size over the query-time cfg (bmax/bmw decode with
        # it; a mismatched cfg would mis-decode blocks).
        stored_bs = self.chain[-1].block_size
        if stored_bs is not None and stored_bs != self.cfg.block_size:
            from dataclasses import replace

            self.cfg = replace(self.cfg, block_size=stored_bs)
        self.sim = resolve_similarity(similarity, self.cfg.k1, self.cfg.b)
        self._results_cache: OrderedDict = OrderedDict()
        # decoded-postings LRU across queries (≙ the role of Lucene's block
        # cache / OS page cache on the reference's mmap'd index): hot terms
        # skip the varint decode on repeat queries.
        self._postings_cache: OrderedDict = OrderedDict()
        self._postings_cache_size = 4096
        # collection → its scope, built on the collection's first query
        self._scopes: dict[str, _Scope] = {}

        # ---- resolve live segments per collection under the chain ----
        # Three masking mechanisms (D1/D2/D3), all evaluated per
        # (collection, partition) group — partitioning is stable across
        # generations, so upsert shadowing is partition-local:
        #  * upsert (D1): a key present in a NEWER generation's segment of the
        #    same (collection, partition) kills older copies (delta builds
        #    drop stale rows, so newer generation == newer warc_ts);
        #  * explicit delete tombstones at gen h kill keys in segments of
        #    gen < h (D2);
        #  * a cleared collection at gen h kills its segments of gen < h (D3).
        self._segments: dict[str, list[_LiveSegment]] = {}
        tomb_by_gen: list[tuple[int, dict[str, set[str]]]] = []
        cleared_at: dict[str, int] = {}
        for m in self.chain:
            t = load_tombstones(m.tombstone_path)
            if t is not None and t.num_rows:
                by_coll: dict[str, set[str]] = {}
                for c, u in zip(t["collection"].to_pylist(), t["url"].to_pylist()):
                    by_coll.setdefault(c, set()).add(u)
                tomb_by_gen.append((m.generation, by_coll))
            for c in m.cleared_collections:
                cleared_at[c] = m.generation

        groups: dict[tuple[str, int], list[SegmentReader]] = {}
        for m in self.chain:
            for row in m.partitions:
                coll, g = row["collection"], row["generation"]
                if cleared_at.get(coll, -1) > g:
                    continue
                if (
                    self.partitions is not None
                    and int(row["partition"]) not in self.partitions
                ):
                    continue
                groups.setdefault((coll, row["partition"]), []).append(
                    SegmentReader(row["path"])
                )
        from lucene_plugin_ray.state.segment import resolve_live_partition

        for (coll, p), readers in groups.items():
            for r, alive in resolve_live_partition(readers, tomb_by_gen):
                self._segments.setdefault(coll, []).append(_LiveSegment(r, alive))

    # ------------------------------------------------------------------
    def collections(self) -> list[str]:
        return sorted(self._segments)

    def _stats(
        self, coll: str, global_stats: dict[str, dict] | None = None
    ) -> tuple[int, dict[str, float]]:
        """(n_docs, avgdl per field) of a collection: this engine's alive
        docs, or the injected corpus-global ``global_stats`` ({coll:
        {n_docs, sum_dl: {field: int}}}, summed over every shard — the
        :meth:`search_partial` contract)."""
        if global_stats is not None:
            st = global_stats.get(coll, {"n_docs": 0, "sum_dl": {}})
            n = int(st["n_docs"])
            return n, ({f: v / n for f, v in st["sum_dl"].items()} if n else {})
        segs = self._segments.get(coll, [])
        n = sum(s.n_alive for s in segs)
        avgdl: dict[str, float] = {}
        if n:
            fields: set[str] = set()
            for s in segs:
                fields.update(s.sum_dl_alive)
            for f in fields:
                avgdl[f] = sum(s.sum_dl_alive.get(f, 0) for s in segs) / n
        return n, avgdl

    def _scope(self, coll: str) -> _Scope:
        """The collection's live segments as one :class:`_Scope`, built on
        first use and kept for the engine's life."""
        sc = self._scopes.get(coll)
        if sc is None:
            sc = self._scopes[coll] = _Scope(self._segments[coll])
        return sc

    def _live_doc(self, coll: str, collection: str, url: str) -> tuple[int, int]:
        """(member index into the collection's segments — its scope's
        members —, member-local doc) of ``url``'s live copy; KeyError when
        no copy is live."""
        for si, seg in enumerate(self._segments.get(coll, [])):
            r = seg.reader
            i = int(np.searchsorted(r.urls, url))
            if i < r.n_docs and r.urls[i] == url and (
                seg.all_alive or seg.alive[i]
            ):
                return si, i
        raise KeyError(f"url {url!r} not live in collection {collection!r}")

    def _dictionary(self, coll: str, field: str) -> _TermDictionary:
        """The collection scope's dictionary of ``field`` (an empty one for
        a collection without live segments)."""
        if coll not in self._segments:
            return _TermDictionary([], field)
        return self._scope(coll).dictionary(field)

    def _limit(self, limit: int | None) -> int:
        """``limit``, or the configured result limit when it is None; a
        limit below 1 is rejected before any work."""
        limit = limit if limit is not None else self.cfg.result_limit
        if limit < 1:
            raise ValueError("limit must be positive")
        return limit

    def _scored(
        self,
        clauses: list[Clause],
        coll: str,
        global_stats: dict[str, dict] | None = None,
        global_df: dict[tuple[str, str], int] | None = None,
        global_ttf: dict[tuple[str, str], int] | None = None,
        min_should: int = 0,
    ) -> "tuple[_Scope, np.ndarray, np.ndarray] | None":
        """The scored ops' one pass: phase 1 and one :meth:`_eval_boolean`
        over the collection scope → (scope, dense scores, sorted matching
        scope ids), or None when nothing can match.  The injection params
        follow the :meth:`search_partial` sharded contract."""
        if not clauses or not self._segments.get(coll):
            return None
        n_docs, avgdl = self._stats(coll, global_stats)
        if n_docs == 0:
            return None
        scope = self._scope(coll)
        cache, df, ttf = self._phase1_df(clauses, [scope], global_df, global_ttf)
        scores, matched = self._eval_boolean(
            scope, clauses, cache, df, n_docs, avgdl,
            min_should=min_should, global_ttf=ttf,
        )
        return scope, scores, np.flatnonzero(matched)

    def _match(
        self, coll: str, clauses: list[Clause], min_should: int = 0
    ) -> "tuple[_Scope, np.ndarray] | None":
        """The counting ops' one pass: (collection scope, sorted scope ids
        matching ``clauses``) from :meth:`_eval_boolean`'s score-free mode;
        None when the collection has no live segment."""
        if not self._segments.get(coll):
            return None
        scope = self._scope(coll)
        matched = self._eval_boolean(scope, clauses, {}, min_should=min_should)[1]
        return scope, np.flatnonzero(matched)

    # ------------------------------------------------------------------
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
        """Top-k search → Arrow table (url, score, docid), ordered
        (score desc, url asc).  ``limit`` defaults to the reference's
        effective 255 cap (K1, LuceneReaderImpl.java:104).  ``method``:
        'auto' (default: unboosted pure-SHOULD BM25 term disjunctions
        whose max global df ≥ ``IndexConfig.bmax_auto_df_threshold`` run
        on the vectorized block-max path, everything else TAAT — the two
        are result-identical, pinned by tests), 'taat' (vectorized
        accumulator; pure-AND auto-switches to galloping intersection),
        'bmw' (doc-at-a-time block-max WAND), 'bmax' (vectorized
        block-max best-first).  ``synonyms``
        ({term: [synonym, ...]}) rewrites matching TERM clauses into
        Lucene-SynonymQuery groups — tf summed over members, idf from the
        max member df (scored on the TAAT path).  ``fields``
        ({field: weight}) turns each default-field TERM clause into a
        DisjunctionMaxQuery over the given fields (Solr dismax):
        per-doc score = max(weighted leg scores) + ``tie_breaker`` ·
        (sum of the other legs); synonyms apply first, so a synonym group
        stays single-field.  ``min_should_match`` is
        BooleanQuery.setMinimumNumberShouldMatch: docs must match at least
        that many SHOULD clauses on top of every MUST (more required
        matches than SHOULD clauses ⇒ zero hits, Lucene parity)."""
        limit = self._limit(limit)
        coll = sanitize_collection(collection)
        check_query_opts(self.cfg, fields, tie_breaker, min_should_match)
        syn_key = (
            tuple(sorted((k, tuple(v)) for k, v in synonyms.items()))
            if synonyms
            else None
        )
        f_key = (
            (tuple(sorted(fields.items())), tie_breaker) if fields else None
        )
        cache_key = (coll, query, limit, method, syn_key, f_key, min_should_match)
        hit = self._results_cache.get(cache_key)
        if hit is not None:
            self._results_cache.move_to_end(cache_key)
            return hit

        clauses = rewrite_query(
            query, self.cfg.text_column, synonyms, fields, tie_breaker
        )
        table = self._execute(
            clauses, coll, limit, method, min_should=min_should_match
        )

        self._results_cache[cache_key] = table
        if len(self._results_cache) > self.cfg.results_cache_size:
            self._results_cache.popitem(last=False)
        return table

    def search_after(
        self,
        query: str,
        after_score: float,
        after_url: str,
        collection: str = "default",
        limit: int | None = None,
        synonyms: dict[str, list[str]] | None = None,
        fields: dict[str, float] | None = None,
        tie_breaker: float = 0.0,
        min_should_match: int = 0,
        global_stats: dict[str, dict] | None = None,
        global_df: dict[tuple[str, str], int] | None = None,
        global_ttf: dict[tuple[str, str], int] | None = None,
    ) -> pa.Table:
        """Deep pagination — Lucene IndexSearcher.searchAfter(ScoreDoc,
        Query, n): the next ``limit`` hits STRICTLY after the anchor
        ``(after_score, after_url)`` under the engine's (score desc,
        url asc) total order.  Pass the previous page's last row verbatim
        (its full-precision float score and url): the anchor comparison
        uses exact float equality against scores produced by the same
        arithmetic, so concatenated pages reproduce
        ``search(limit=Σ page sizes)`` bit-for-bit — unlike offset paging
        there is no re-fetch of earlier pages.

        Scoring still evaluates the full match set — exact BM25 paging
        cannot skip scoring (Lucene's paging collector scores every
        candidate too), so this path is TAAT; block-max early termination
        is a top-k-from-the-start optimization and does not apply after an
        anchor.  Urls are read only for the rows tied at ``after_score``
        and for the page itself.

        ``global_stats``/``global_df`` inject corpus-global statistics on
        the sharded path (the :meth:`search_partial` contract)."""
        if not isinstance(after_url, str):
            raise ValueError("after_url must be a str (previous page's url)")
        after_score = float(after_score)
        if not math.isfinite(after_score):
            raise ValueError("after_score must be finite")
        limit = self._limit(limit)
        coll = sanitize_collection(collection)
        check_query_opts(self.cfg, fields, tie_breaker, min_should_match)
        clauses = rewrite_query(
            query, self.cfg.text_column, synonyms, fields, tie_breaker
        )
        got = self._scored(
            clauses, coll, global_stats, global_df, global_ttf,
            min_should=min_should_match,
        )
        if got is None:
            return RESULT_SCHEMA.empty_table()
        scope, scores, cand = got
        # the anchor predicate commutes with the total order, so it runs
        # before the top-limit cut
        sc = scores[cand]
        keep = sc < after_score
        ties = np.flatnonzero(sc == after_score)
        if ties.size:
            keep[ties] = scope.urls[cand[ties]] > after_url
        cand = cand[keep]
        return _top_hits(scope, cand, scores[cand], limit)

    def search_function(
        self,
        query: str,
        now_us: int,
        scale_us: int,
        collection: str = "default",
        limit: int | None = None,
        global_stats: dict[str, dict] | None = None,
        global_df: dict[tuple[str, str], int] | None = None,
        global_ttf: dict[tuple[str, str], int] | None = None,
    ) -> pa.Table:
        """Function-scored search — Lucene FunctionScoreQuery /
        expressions-module analogue with a reciprocal recency value
        source: ``final = bm25 · scale_us / (scale_us + age_us)`` where
        ``age_us = max(0, now_us − warc_ts)`` — the classic
        freshness-decay reranker (half score at age == scale_us, → 0 as
        docs age, future timestamps clamp to weight 1).  ``now_us`` is an
        explicit argument, never the wall clock, so results are a pure
        function of the index (reproducible across shards/retries).

        Scoring evaluates the full match set (the weight is
        doc-dependent, so BM25 top-k early termination is unsound — a
        low-BM25 recent doc can outrank the BM25 leader), then cuts the
        top ``limit`` under the (final desc, url asc) total order, which
        per-shard partials merge exactly.  Returns (url, score, docid)
        with score = the weighted final.

        ``global_stats``/``global_df`` follow the :meth:`search_partial`
        injection contract for the sharded path."""
        now_us = int(now_us)
        scale_us = int(scale_us)
        if scale_us <= 0:
            raise ValueError("scale_us must be positive")
        limit = self._limit(limit)
        coll = sanitize_collection(collection)
        clauses = parse_query(query, default_field=self.cfg.text_column)
        got = self._scored(clauses, coll, global_stats, global_df, global_ttf)
        if got is None:
            return RESULT_SCHEMA.empty_table()
        scope, scores, cand = got
        age = np.maximum(now_us - scope.warc_ts[cand], 0).astype(np.float64)
        scale = float(scale_us)
        return _top_hits(scope, cand, scores[cand] * (scale / (scale + age)), limit)

    def search_common(
        self,
        query: str,
        max_term_frequency: float = 0.01,
        collection: str = "default",
        limit: int | None = None,
    ) -> pa.Table:
        """CommonTermsQuery (org.apache.lucene.queries.CommonTermsQuery —
        Elasticsearch's 'common terms' query): terms are split by
        corpus-global df at ``max_term_frequency``; low-frequency terms
        form a required SHOULD group, high-frequency (stop-word-like)
        terms add score ONLY to docs the low group matched — the classic
        dynamic-stop-word scheme that keeps 'the'-grade terms from
        flooding the match set while still letting them rank.  All-high
        (or all-low) queries degenerate to the plain OR.  Scores are the
        ordinary similarity sums, so the SQL oracle is exact."""
        limit = self._limit(limit)
        coll = sanitize_collection(collection)
        term_clauses = common_terms_parse(
            query, max_term_frequency, self.cfg.text_column
        )
        n_docs, _ = self._stats(coll)
        # ONE phase-1 gather serves both classification and scoring: the
        # rewrite only regroups the same terms, so the dfs (and, for
        # ttf-hungry similarities, ttfs) inject straight into _execute
        _, dfs, ttfs = self._phase1_df(
            term_clauses,
            [self._scope(coll)] if self._segments.get(coll) else [],
        )
        clauses = common_terms_rewrite(
            term_clauses, max_term_frequency, dfs, n_docs
        )
        if not clauses:
            return RESULT_SCHEMA.empty_table()
        return self._execute(
            clauses, coll, limit, "taat",
            df_override=dfs, ttf_override=ttfs,
        )

    def search_boosting(
        self,
        positive_query: str,
        negative_query: str,
        demote: float = 0.2,
        collection: str = "default",
        limit: int | None = None,
        global_stats: dict[str, dict] | None = None,
        global_df: dict[tuple[str, str], int] | None = None,
        global_ttf: dict[tuple[str, str], int] | None = None,
    ) -> pa.Table:
        """BoostingQuery (queries module): hits and scores come from
        ``positive_query`` alone; docs ALSO matching ``negative_query``
        keep matching but their score is multiplied by ``demote``
        (Lucene's context/boosting pair — demote 0 < d < 1 pushes
        undesirable context down without excluding it; the negative query
        contributes no statistics, exactly like a filter).  The weight is
        doc-dependent, so the full match set is scored (search_function
        argument) and cut under the (final desc, url asc) total order.
        Injection params follow the :meth:`search_partial` sharded
        contract."""
        if not (0.0 < demote < 1.0):
            raise ValueError("demote must be in (0, 1)")
        limit = self._limit(limit)
        coll = sanitize_collection(collection)
        clauses = parse_query(
            positive_query, default_field=self.cfg.text_column
        )
        nclauses = parse_query(
            negative_query, default_field=self.cfg.text_column
        )
        if not nclauses:
            raise ValueError(
                "negative_query must contain at least one clause"
            )
        got = self._scored(clauses, coll, global_stats, global_df, global_ttf)
        if got is None:
            return RESULT_SCHEMA.empty_table()
        scope, scores, cand = got
        final = scores[cand]
        final[self._eval_boolean(scope, nclauses, {})[1][cand]] *= demote
        return _top_hits(scope, cand, final, limit)

    def search_surround(
        self,
        query: str,
        collection: str = "default",
        limit: int | None = None,
    ) -> pa.Table:
        """Surround-language search — the queryparser-surround module:
        ``a W b`` / ``3W(a, b, c)`` ordered and ``a N b`` / ``4N(a, b)``
        unordered proximity (distance n = span slop n − 1) composed with
        AND/OR/NOT and parentheses; W/N compile to the span engine's
        SpanNearQuery, boolean structure to nested groups, everything
        scored by the ordinary similarity (functions/surround.py documents
        the grammar subset and its loud rejections).  Returns (url, score,
        docid) under the (score desc, url asc) total order."""
        from lucene_plugin_ray.functions.surround import parse_surround

        limit = self._limit(limit)
        clauses = parse_surround(query, self.cfg.text_column)
        return self._execute(
            clauses, sanitize_collection(collection), limit, "taat"
        )

    def search_diversified(
        self,
        query: str,
        key_field: str,
        max_per_key: int = 1,
        collection: str = "default",
        limit: int | None = None,
        global_stats: dict[str, dict] | None = None,
        global_df: dict[tuple[str, str], int] | None = None,
        global_ttf: dict[tuple[str, str], int] | None = None,
    ) -> pa.Table:
        """Diversified top-k — Lucene misc DiversifiedTopDocsCollector:
        scan the hits in the (score desc, url asc) total order and keep a
        doc only while its ``key_field`` value has produced fewer than
        ``max_per_key`` kept hits (the host/domain SERP-diversification
        collector).  Keys are the per-doc minimum analyzed term of an
        indexed metadata field (:class:`_FieldColumn` ``min_code`` — the
        SortedDocValues key the Lucene collector reads); docs MISSING the
        field are unconstrained (each its own key — documented choice;
        Lucene's collector requires a key and would refuse).  Greedy
        selection in a total order equals the rank-within-key ≤ cap
        filter, so the SQL oracle is two window functions and per-shard
        diversified top-``limit`` partials merge exactly (a doc excluded
        in its shard is excluded globally: the same-key docs that beat it
        locally beat it globally too).  Returns (url, score, key, docid);
        ``key`` is null for missing-field docs."""
        if max_per_key <= 0:
            raise ValueError("max_per_key must be positive")
        limit = self._limit(limit)
        coll = sanitize_collection(collection)
        if key_field == self.cfg.text_column:
            raise ValueError(
                f"cannot diversify on the tokenized text field "
                f"{key_field!r}; use an indexed metadata field"
            )
        known = self._known_fields(coll)
        if key_field not in known:
            raise ValueError(
                f"unsupported key field {key_field!r}: not an indexed "
                f"field of this index (have {sorted(known)})"
            )
        clauses = parse_query(query, default_field=self.cfg.text_column)
        got = self._scored(clauses, coll, global_stats, global_df, global_ttf)
        if got is None:
            return pa.schema(
                [("url", pa.string()), ("score", pa.float64()),
                 ("key", pa.string()), ("docid", pa.int64())]
            ).empty_table()
        scope, scores, cand = got
        # all-int until after the cap: scores + key codes over the match
        # set, strings only for the <= limit survivors
        col = scope.field(key_field)
        sc = scores[cand]
        sel = cand[
            _diversify_codes(
                _url_order(scope, cand, (-sc,)), col.min_code[cand],
                max_per_key, limit,
            )
        ]
        return pa.table(
            {
                "url": pa.array(scope.urls[sel], pa.string()),
                "score": pa.array(scores[sel], pa.float64()),
                "key": pa.array(col.terms(col.min_code[sel]), pa.string()),
                "docid": pa.array(scope.docids(sel), pa.int64()),
            }
        )

    def search_expression(
        self,
        query: str,
        expression: str,
        bindings: dict[str, float] | None = None,
        collection: str = "default",
        limit: int | None = None,
        global_stats: dict[str, dict] | None = None,
        global_df: dict[tuple[str, str], int] | None = None,
        global_ttf: dict[tuple[str, str], int] | None = None,
        _range: "tuple | None" = None,
    ) -> pa.Table:
        """Expression-scored search — the Lucene expressions module
        (JavascriptCompiler + FunctionScoreQuery): ``expression`` is a
        safe arithmetic source compiled against the variables ``_score``
        (the base query's similarity score), ``doc_len`` (analyzed |D| of
        the text field), ``warc_ts`` (epoch-µs) and any caller-supplied
        scalar ``bindings`` (e.g. an explicit ``now`` — never the wall
        clock; functions/expressions.py documents the whitelist grammar).

        The final score is the expression value; matching is the base
        query's.  Like :meth:`search_function`, the weight is
        doc-dependent so the full match set is scored, then cut under the
        (final desc, url asc) total order.  An expression yielding NaN for
        any scored doc is a loud error (NaN breaks the total order); ±inf
        is allowed and sorts like IEEE doubles.
        ``search_function(now, scale)`` is the special case
        ``_score * scale / (scale + max(0, now - warc_ts))`` — pinned
        bit-identical in tests.  Injection params follow the
        :meth:`search_partial` sharded contract."""
        from lucene_plugin_ray.functions.expressions import (
            _RESERVED_VARIABLES,
            compile_expression,
            validate_bindings,
        )

        bindings = validate_bindings(bindings)
        expr_fn, used = compile_expression(
            expression, set(_RESERVED_VARIABLES) | set(bindings)
        )
        limit = self._limit(limit)
        coll = sanitize_collection(collection)
        clauses = parse_query(query, default_field=self.cfg.text_column)
        got = self._scored(clauses, coll, global_stats, global_df, global_ttf)
        if got is None or got[2].size == 0:
            return RESULT_SCHEMA.empty_table()
        scope, scores, cand = got
        # bind only the per-doc sources the compiled expression READS
        # (compile_expression reports the used-name set)
        env: dict = {"_score": scores[cand], **bindings}
        if "doc_len" in used:
            env["doc_len"] = scope.doc_len[self.cfg.text_column][cand].astype(
                np.float64
            )
        if "warc_ts" in used:
            env["warc_ts"] = scope.warc_ts[cand].astype(np.float64)
        # IEEE semantics without warning spam: /0 and invalid ops
        # produce inf/NaN silently here, then NaN is rejected below
        with np.errstate(invalid="ignore", divide="ignore"):
            final = np.asarray(expr_fn(env), dtype=np.float64)
        if final.shape != (cand.size,):
            # a constant expression broadcasts to the match set
            final = np.broadcast_to(final, (cand.size,)).astype(np.float64)
        if np.isnan(final).any():
            raise ValueError(
                f"expression {expression!r} produced NaN for "
                f"{int(np.isnan(final).sum())} scored doc(s) — NaN "
                "breaks the (score desc, url asc) total order"
            )
        if _range is not None:
            # FunctionRangeQuery: a row predicate BEFORE the cut, so it
            # composes with the total order
            lo_r, hi_r = _range
            keep = np.ones(final.size, dtype=bool)
            if lo_r is not None:
                keep &= final >= lo_r
            if hi_r is not None:
                keep &= final <= hi_r
            cand, final = cand[keep], final[keep]
        return _top_hits(scope, cand, final, limit)

    def search_expression_range(
        self,
        query: str,
        expression: str,
        lo: float | None = None,
        hi: float | None = None,
        bindings: dict[str, float] | None = None,
        collection: str = "default",
        limit: int | None = None,
        global_stats: dict[str, dict] | None = None,
        global_df: dict[tuple[str, str], int] | None = None,
        global_ttf: dict[tuple[str, str], int] | None = None,
    ) -> pa.Table:
        """FunctionRangeQuery (queries.function module): keep only the
        base query's matches whose compiled-expression value lies in
        [``lo``, ``hi``] (either bound open when None, both inclusive —
        ValueSourceRange's default), ranked by the expression value
        (final desc, url asc) exactly like :meth:`search_expression`.
        The range filter composes with per-shard truncation because it
        is a row predicate applied BEFORE the top-``limit`` cut under the
        same total order.  Everything else — whitelist grammar, bindings,
        NaN loudness, sharded injection — is search_expression's
        contract."""
        if lo is None and hi is None:
            raise ValueError("at least one of lo/hi must be given")
        if lo is not None and hi is not None and lo > hi:
            raise ValueError(f"empty range: lo {lo} > hi {hi}")
        return self.search_expression(
            query, expression, bindings=bindings, collection=collection,
            limit=limit, global_stats=global_stats, global_df=global_df,
            global_ttf=global_ttf, _range=(lo, hi),
        )

    def search_filtered(
        self,
        query: str,
        filter_query: str,
        collection: str = "default",
        limit: int | None = None,
        global_stats: dict[str, dict] | None = None,
        global_df: dict[tuple[str, str], int] | None = None,
        global_ttf: dict[tuple[str, str], int] | None = None,
    ) -> pa.Table:
        """Filtered search — Lucene 5.x IndexSearcher.search(Query, Filter,
        n) / BooleanClause.Occur.FILTER: the match set is ``query``'s
        matches INTERSECTED with ``filter_query``'s boolean matches, but
        scores come from ``query`` alone — the filter constrains without
        contributing idf/tf (Lucene's non-scoring FILTER occur; the 5.2.1
        line the reference ships still spells it QueryWrapperFilter).

        :meth:`_eval_boolean`'s score-free mode evaluates the filter
        (posting decode, zero scoring work), the TAAT kernel scores the
        query's FULL match set, and a sorted-membership gather keeps only
        filtered docs BEFORE the top-``limit`` cut under the (score desc,
        url asc) total order — so per-shard partials merge exactly as in
        :meth:`search`.  An empty filter match skips query scoring.

        ``global_stats``/``global_df`` follow the sharded injection
        contract (df over the QUERY's scored terms only — the filter never
        touches statistics)."""
        limit = self._limit(limit)
        coll = sanitize_collection(collection)
        clauses = parse_query(query, default_field=self.cfg.text_column)
        fclauses = parse_query(
            filter_query, default_field=self.cfg.text_column
        )
        if not fclauses:
            raise ValueError("filter_query must contain at least one clause")
        fgot = self._match(coll, fclauses) if clauses else None
        if fgot is None or fgot[1].size == 0:
            return RESULT_SCHEMA.empty_table()
        got = self._scored(clauses, coll, global_stats, global_df, global_ttf)
        if got is None:
            return RESULT_SCHEMA.empty_table()
        scope, scores, cand = got
        cand = cand[_in_sorted(cand, fgot[1])]
        return _top_hits(scope, cand, scores[cand], limit)

    # ---- span-query family (Lucene queries.spans module) -------------
    def _span_clause(
        self,
        kind: str,
        terms,
        field: str | None,
        slop: int = 0,
        in_order: bool = True,
        end: int = 0,
        exclude=(),
        pre: int = 0,
        post: int = 0,
    ) -> SpanClause:
        return make_span_clause(
            kind, terms, field or self.cfg.text_column, slop=slop,
            in_order=in_order, end=end, exclude=exclude, pre=pre, post=post,
        )

    def span_near(
        self,
        terms,
        slop: int = 0,
        in_order: bool = True,
        collection: str = "default",
        field: str | None = None,
        limit: int | None = None,
    ) -> pa.Table:
        """SpanNearQuery over unit term spans → (url, score, docid),
        (score desc, url asc), top ``limit``.  ``terms`` are raw (each must
        analyze to one token); semantics and the 1/(1+width) per-match
        weight are the SpanClause contract (queryparse.py).  Scored as a
        pseudo-term with constituent-term statistics — identical shape to
        phrase scoring, so sharded execution is exact under injected
        global stats."""
        clause = self._span_clause(
            "near", terms, field, slop=slop, in_order=in_order
        )
        limit = self._limit(limit)
        return self._execute(
            [clause], sanitize_collection(collection), limit, "taat"
        )

    def span_first(
        self,
        term: str,
        end: int,
        collection: str = "default",
        field: str | None = None,
        limit: int | None = None,
    ) -> pa.Table:
        """SpanFirstQuery: occurrences of ``term`` within the first ``end``
        positions of the field (span end = position + 1 ≤ ``end``) →
        (url, score, docid).  Frequency = the count of such occurrences,
        scored as a pseudo-term (at ``end`` ≥ the longest document this is
        bit-identical to a plain term search — pinned in tests)."""
        clause = self._span_clause("first", (term,), field, end=end)
        limit = self._limit(limit)
        return self._execute(
            [clause], sanitize_collection(collection), limit, "taat"
        )

    def span_not(
        self,
        term: str,
        exclude,
        pre: int = 0,
        post: int = 0,
        collection: str = "default",
        field: str | None = None,
        limit: int | None = None,
    ) -> pa.Table:
        """SpanNotQuery: occurrences of ``term`` with NO occurrence of any
        ``exclude`` term within ``[p − pre, p + post]`` → (url, score,
        docid).  Exclude terms mask matches but never contribute
        statistics (SpanWeight parity); with ``pre = post = 0`` an exclude
        can only collide at the include's own position, which distinct
        terms never do — so the useful guards are ``pre``/``post`` > 0
        windows (e.g. 'spark' not preceded by 'no' within 2 tokens)."""
        if isinstance(exclude, str):
            exclude = (exclude,)
        clause = self._span_clause(
            "not", (term,), field, exclude=tuple(exclude), pre=pre, post=post
        )
        limit = self._limit(limit)
        return self._execute(
            [clause], sanitize_collection(collection), limit, "taat"
        )

    def rescore(
        self,
        query: str,
        rescore_query: str,
        collection: str = "default",
        window_size: int | None = None,
        weight: float = 1.0,
        limit: int | None = None,
        include_first: bool = False,
        global_stats: dict[str, dict] | None = None,
        global_df: dict[tuple[str, str], int] | None = None,
        global_ttf: dict[tuple[str, str], int] | None = None,
    ) -> pa.Table:
        """Two-pass query rescoring — Lucene QueryRescorer
        (org.apache.lucene.search.QueryRescorer, in the 5.2.1 line the
        reference ships; cf. LuceneIndexBean.java:390-418 for the
        single-pass search this refines).  Pass 1 takes the top
        ``window_size`` hits of ``query`` under the engine's
        (score desc, url asc) total order; pass 2 evaluates
        ``rescore_query`` and combines, for the window docs only,
        ``final = first + weight · second`` (second = 0.0 when the window
        doc is outside the rescore query's match set — Lucene's
        combine(first, secondMatches, second) default).  Returns the top
        ``limit`` (default: the window) window rows under
        (final desc, url asc); docs outside the window never appear.

        Pass 2 is one vectorized full-match TAAT pass over the collection
        scope, read at the window docs' scope ids (found by url: docid
        ranges of different generations overlap, while each live url has
        exactly one live copy).

        ``global_stats``/``global_df`` follow the :meth:`search_partial`
        injection contract for the sharded path; ``global_df`` must cover
        the scored terms of BOTH queries (one merged map — phase 1 of each
        query looks up only its own keys).  ``include_first`` adds a
        ``first_score`` column (the sharded merge re-derives the global
        window from it)."""
        window_size = (
            window_size if window_size is not None else self.cfg.result_limit
        )
        if window_size <= 0:
            raise ValueError("window_size must be positive")
        limit = limit if limit is not None else window_size
        if limit <= 0:
            raise ValueError("limit must be positive")
        weight = float(weight)
        if not math.isfinite(weight):
            raise ValueError("weight must be finite")
        coll = sanitize_collection(collection)
        clauses1 = parse_query(query, default_field=self.cfg.text_column)
        clauses2 = parse_query(
            rescore_query, default_field=self.cfg.text_column
        )
        schema = (
            RESULT_SCHEMA.append(pa.field("first_score", pa.float64()))
            if include_first else RESULT_SCHEMA
        )
        first = self._execute(
            clauses1, coll, window_size, "taat",
            stats_override=self._stats(coll, global_stats),
            df_override=global_df, ttf_override=global_ttf,
        )
        if not first.num_rows:
            return schema.empty_table()
        w_urls = first["url"].to_numpy(zero_copy_only=False)
        w_scores = first["score"].to_numpy()
        second = np.zeros(w_urls.size, dtype=np.float64)
        got = self._scored(clauses2, coll, global_stats, global_df, global_ttf)
        if got is not None:
            scope, scores2, cand2 = got
            ids = scope.live_ids(w_urls)
            hit = _in_sorted(ids, cand2)
            second[hit] = scores2[ids[hit]]
        final = w_scores + weight * second
        order = np.lexsort((w_urls, -final))[:limit]
        out = {
            "url": pa.array(w_urls[order], type=pa.string()),
            "score": pa.array(final[order], type=pa.float64()),
            "docid": pa.array(first["docid"].to_numpy()[order], type=pa.int64()),
        }
        if include_first:
            out["first_score"] = pa.array(w_scores[order], type=pa.float64())
        return pa.table(out)

    def facets(
        self, query: str, facet_field: str, collection: str = "default",
        syntax: str = "classic",
    ) -> pa.Table:
        """Facet counts over ALL matching documents — field faceting in the
        style of Lucene's SortedSetDocValues facets, driven straight off the
        term dictionary (no taxonomy sidecar): for every value of
        ``facet_field``, count how many of the query's matching docs carry
        it.

        Matching uses the search path's boolean semantics (all MUSTs, else
        any SHOULD) via :meth:`_match`; counting is one bincount of
        the field's postings (:class:`_FieldColumn`) restricted to the
        match set — facet fields are low-cardinality metadata (lang,
        source), never corpus text.  Returns (value, count), ordered
        (count desc, value asc).  On the sharded path each shard returns
        its partial and the driver sums — counts are per-doc-disjoint
        across partitions.  ``syntax='surround'`` drives the match set
        through the surround language (proximity-conditioned facet counts
        — 'top sources where A is near B').  An unknown ``facet_field``
        raises ``ValueError``; the text field is a valid facet field."""
        coll = sanitize_collection(collection)
        self._check_facet_field(facet_field, coll)
        if syntax == "surround":
            from lucene_plugin_ray.functions.surround import parse_surround

            clauses = parse_surround(query, self.cfg.text_column)
        elif syntax == "classic":
            clauses = parse_query(query, default_field=self.cfg.text_column)
        else:
            raise ValueError(
                f"syntax must be 'classic' or 'surround', got {syntax!r}"
            )
        got = self._match(coll, clauses)
        if got is None:
            return facet_count_table({})
        scope, matched = got
        return facet_count_table(self._value_counts(scope, facet_field, matched))

    def _check_facet_field(self, facet_field: str, coll: str) -> None:
        known = self._known_fields(coll)
        if facet_field not in known:
            raise ValueError(
                f"facet_field {facet_field!r} is not an indexed field "
                f"(have: {sorted(known)})"
            )

    def _column(self, scope: _Scope, field: str) -> _FieldColumn:
        """``scope.field(field)``, except that a column of the text field
        is built for the call and not kept: its postings are the corpus's."""
        if field == self.cfg.text_column:
            return _FieldColumn(scope, field)
        return scope.field(field)

    def _value_counts(
        self, scope: _Scope, field: str, ids: np.ndarray
    ) -> dict[str, int]:
        """{value: number of the docs ``ids`` carrying it} for one metadata
        field — one bincount over its scope postings."""
        col = self._column(scope, field)
        n = np.bincount(
            col.within(_id_mask(scope.n, ids))[0], minlength=col.vocab.size
        )
        return {str(col.vocab[j]): int(n[j]) for j in np.flatnonzero(n)}

    def facets_taxonomy_counts(
        self,
        query: str,
        dim_fields,
        collection: str = "default",
    ) -> dict[tuple[str, ...], int]:
        """The raw hierarchical facet counts — {path tuple: count} over
        this engine's partitions; the sharded partial (integer counts over
        doc-disjoint partitions sum exactly on the driver).

        ``dim_fields`` is an ordered list of indexed metadata fields
        defining the hierarchy, root level first (e.g. ["lang", "source"]
        ⇒ paths ("en",), ("en", "src3"), …).  A path's count is the number
        of matching docs carrying EVERY component in its level's field —
        the taxonomy invariant count(parent) ≥ count(child) holds because
        a child's members are a subset of its parent's.  Docs with several
        tokens in a level's field count once per distinct path (Lucene's
        once-per-node semantics for multi-valued dims).

        One boolean match, then per level one walk over the field's term
        runs (:class:`_FieldColumn`) with sorted-membership intersections
        down the tree of NONEMPTY paths only — work bounded by Σ_level
        |level vocab| plus |nonempty paths| intersections, never the
        corpus (taxonomy dims are low-cardinality metadata, the facets()
        assumption)."""
        fields = validate_taxonomy_fields(dim_fields, self.cfg.field_columns)
        coll = sanitize_collection(collection)
        clauses = parse_query(query, default_field=self.cfg.text_column)
        got = self._match(coll, clauses)
        counts: dict[tuple[str, ...], int] = {}
        if got is None:
            return counts
        scope, matched = got
        frontier: list[tuple[tuple[str, ...], np.ndarray]] = [((), matched)]
        for f in fields:
            col = scope.field(f)
            nxt: list[tuple[tuple[str, ...], np.ndarray]] = []
            for j in range(col.vocab.size):
                members = col.ids[col.bounds[j] : col.bounds[j + 1]]
                for path, mem in frontier:
                    sub = mem[_in_sorted(mem, members)]
                    if sub.size:
                        key = (*path, str(col.vocab[j]))
                        counts[key] = int(sub.size)
                        nxt.append((key, sub))
            frontier = nxt
            if not frontier:
                break
        return counts

    def facets_taxonomy(
        self,
        query: str,
        dim_fields,
        collection: str = "default",
        top_n: int | None = None,
    ) -> pa.Table:
        """Hierarchical (taxonomy) facets — the Lucene facets-module
        TaxonomyFacetCounts analogue for hierarchical dims
        (FacetsConfig.setHierarchical; facet/src/java/org/apache/lucene/
        facet/taxonomy/FastTaxonomyFacetCounts.java), expressed over the
        engine's flat metadata fields: the hierarchy is an ORDERED list of
        indexed fields (root level first) and each matching doc rolls up
        into every path prefix it carries — GROUP BY ROLLUP off the term
        dictionary, no taxonomy sidecar index.

        Returns (path, count) rows, path = '/'-joined components, ordered
        path asc; ``top_n`` keeps the top-``top_n`` children per parent
        under the facets (count desc, value asc) rank (getTopChildren(n)
        at every node — a pruned node's subtree goes with it).  Pruning
        happens AFTER the exact count merge, so the sharded twin is
        identical by construction."""
        return taxonomy_table(
            self.facets_taxonomy_counts(query, dim_fields, collection),
            top_n,
        )

    def term_vector(
        self,
        url: str,
        field: str | None = None,
        collection: str = "default",
        with_positions: bool = True,
    ) -> pa.Table:
        """Per-document term vector — Lucene IndexReader.getTermVector(doc,
        field) (core/src/java/org/apache/lucene/index/TermVectors.java; the
        reference never sets FieldType.setStoreTermVectors, so Lucene itself
        would answer null — this engine reconstructs the vector from the
        INVERTED index instead of a stored forward sidecar).

        Locates the url's live doc (:meth:`_live_doc`, the probe
        :meth:`explain` shares — raises KeyError when not live), then
        gathers its rows with ONE contiguous bulk varint decode over the
        field's dictionary sub-region of the doc's OWN segment (SegmentReader.field_postings) and a vectorized
        docid mask — cost bounded by that segment's field postings (1/P of
        one generation), never the corpus, with zero per-term Python in the
        gather.

        Returns (term, tf, positions) rows ordered term asc (the dictionary
        order, already sorted).  ``positions`` is the comma-joined ascending
        PRE-stop-filter token ranks (StopFilter enablePositionIncrements
        parity — functions/analysis.py::analyze_with_positions), decoded
        per matched term only.  ``with_positions=False`` (or an index built
        with index_positions=False) omits the column."""
        coll = sanitize_collection(collection)
        field = field if field is not None else self.cfg.text_column
        valid = (self.cfg.text_column, *self.cfg.field_columns)
        if field not in valid:
            raise ValueError(
                f"field {field!r} is not analyzed (have: {sorted(valid)})"
            )
        si, local_doc = self._live_doc(coll, collection, url)
        r = self._segments[coll][si].reader
        want_pos = bool(with_positions) and r.has_positions
        if r.has_tv:
            # forward sidecar fast path (IndexConfig.store_term_vectors):
            # one binary search + one doc-row slice, no segment-wide
            # postings decode.  Identical output to the reconstruction
            # below (pinned by tests/test_term_vector.py sidecar parity).
            rows_d, tfs_d, pos_d = r.doc_term_vector(r.doc_base + local_doc)
            if not want_pos or pos_d is not None:
                rng = r._field_ranges.get(field)
                a = int(np.searchsorted(rows_d, rng[0])) if rng else 0
                b = int(np.searchsorted(rows_d, rng[1])) if rng else 0
                cols_tv: dict[str, pa.Array] = {
                    "term": pa.array(
                        [str(t) for t in r._terms[rows_d[a:b]]], pa.string()
                    ),
                    "tf": pa.array(tfs_d[a:b], pa.int64()),
                }
                if want_pos:
                    tok = np.concatenate([[0], np.cumsum(tfs_d)]).astype(np.int64)
                    cols_tv["positions"] = pa.array(
                        [
                            ",".join(
                                str(int(p)) for p in pos_d[tok[k] : tok[k + 1]]
                            )
                            for k in range(a, b)
                        ],
                        pa.string(),
                    )
                return pa.table(cols_tv)
        s, df, docids, tfs = r.field_postings(field)
        target = r.doc_base + local_doc
        idx = np.flatnonzero(docids == target)
        starts = np.concatenate([[0], np.cumsum(df)])
        rows_rel = np.searchsorted(starts, idx, side="right") - 1
        terms = [str(t) for t in r._terms[s + rows_rel]]
        tf_out = tfs[idx]
        cols: dict[str, pa.Array] = {
            "term": pa.array(terms, pa.string()),
            "tf": pa.array(tf_out, pa.int64()),
        }
        if want_pos:
            pos_strs: list[str] = []
            for k in range(idx.size):
                jr = int(rows_rel[k])
                row_tfs = tfs[starts[jr] : starts[jr + 1]]
                flat = r.positions(int(s + jr), row_tfs)
                pi = int(idx[k] - starts[jr])
                off = int(row_tfs[:pi].sum())
                sub = flat[off : off + int(row_tfs[pi])]
                pos_strs.append(",".join(str(int(p)) for p in sub))
            cols["positions"] = pa.array(pos_strs, pa.string())
        return pa.table(cols)

    def count(
        self,
        query: str,
        collection: str = "default",
        synonyms: dict[str, list[str]] | None = None,
        fields: dict[str, float] | None = None,
        min_should_match: int = 0,
        syntax: str = "classic",
    ) -> int:
        """Total number of live documents matching the query — Lucene
        IndexSearcher.count(Query): boolean matching only, no scores, no
        top-k heap.  One score-free :meth:`_eval_boolean` over the
        collection scope, so the cost is posting decode with zero per-doc
        scoring work.  ``fields`` applies the dismax multi-field rewrite
        (tie is score-only, irrelevant to matching).
        ``syntax='surround'`` parses through the surround language instead
        (W/N proximity + AND/OR/NOT — score-free span counting;
        synonyms/fields/min_should_match are classic-only)."""
        coll = sanitize_collection(collection)
        check_query_opts(self.cfg, fields, 0.0, min_should_match)
        if syntax == "surround":
            if synonyms or fields or min_should_match:
                raise ValueError(
                    "syntax='surround' composes with none of "
                    "synonyms/fields/min_should_match"
                )
            from lucene_plugin_ray.functions.surround import parse_surround

            clauses = parse_surround(query, self.cfg.text_column)
        elif syntax == "classic":
            clauses = rewrite_query(
                query, self.cfg.text_column, synonyms, fields
            )
        else:
            raise ValueError(
                f"syntax must be 'classic' or 'surround', got {syntax!r}"
            )
        got = self._match(coll, clauses, min_should_match)
        return int(got[1].size) if got is not None else 0

    def search_sorted(
        self,
        query: str,
        collection: str = "default",
        sort_field: str = "warc_ts",
        limit: int | None = None,
        descending: bool = True,
        after_ts: int | None = None,
        after_url: str = "",
    ) -> pa.Table:
        """Sort-by-field search — Lucene IndexSearcher.search(q, n,
        Sort(SortField("warc_ts", LONG, reverse))): matching is boolean
        (Lucene reports NaN scores under field sort; we omit the column),
        results ordered by the stored per-doc value with url-asc tiebreak
        (a total order, so per-shard truncation at ``limit`` merges
        exactly, same argument as the BM25 path).  ``warc_ts`` is the
        engine's one stored sortable doc value (the recency sort a web
        index actually serves); other fields raise loudly.  Returns
        (url, warc_ts, docid), warc_ts as int64 epoch-µs.

        ``after_ts``/``after_url`` add sorted deep pagination — the
        searchAfter(FieldDoc) analogue: only hits STRICTLY after the
        anchor under the (warc_ts desc|asc, url asc) total order are
        returned, so pages concatenate to ``search_sorted(limit=Σ)``
        exactly (integer sort keys — no float-precision caveat)."""
        if sort_field != "warc_ts":
            raise ValueError(
                f"unsupported sort field {sort_field!r}: 'warc_ts' is the "
                "only stored sortable doc value"
            )
        limit = self._limit(limit)
        if after_ts is not None:
            after_ts = int(after_ts)
            if not isinstance(after_url, str):
                raise ValueError("after_url must be a string")
        coll = sanitize_collection(collection)
        clauses = parse_query(query, default_field=self.cfg.text_column)
        got = self._match(coll, clauses)
        if got is None:
            return pa.schema(
                [("url", pa.string()), ("warc_ts", pa.int64()),
                 ("docid", pa.int64())]
            ).empty_table()
        scope, matched = got
        ts = scope.warc_ts[matched]
        if after_ts is not None:
            keep = ts < after_ts if descending else ts > after_ts
            tied = np.flatnonzero(ts == after_ts)
            keep[tied] = scope.urls[matched[tied]] > after_url
            matched, ts = matched[keep], ts[keep]
        order = _url_order(scope, matched, (-ts if descending else ts,))[:limit]
        sel = matched[order]
        return pa.table(
            {
                "url": pa.array(scope.urls[sel], type=pa.string()),
                "warc_ts": pa.array(ts[order], type=pa.int64()),
                "docid": pa.array(scope.docids(sel), type=pa.int64()),
            }
        )

    def search_sorted_by(
        self,
        query: str,
        sort: list[tuple[str, str]],
        collection: str = "default",
        limit: int | None = None,
        after_keys: "list | None" = None,
        after_url: str = "",
    ) -> pa.Table:
        """Multi-key sort-by-field search — IndexSearcher.search(q, n,
        Sort(SortField, SortField, …)) with more than one key: matching is
        boolean (field sort reports no scores, the :meth:`search_sorted`
        contract), results ordered by ``sort`` = [(field, 'asc'|'desc'),
        …] evaluated left-to-right with the url-asc tiebreak last.

        Sortable fields: the numeric doc values 'warc_ts' (epoch-µs) and
        'doc_len' (analyzed |D| of the text field), plus any indexed
        METADATA field — SortField.Type.STRING over the doc's minimum
        analyzed term (:class:`_FieldColumn` ``min_code``: SortedDocValues
        ordinals reconstructed from the inverted index; multi-valued docs
        take SortedSetSortField's 'min' selector).  Docs missing a string
        field sort LAST regardless of direction (STRING_LAST
        missingValue); the tokenized text column is rejected exactly like
        Lucene rejects sorting a tokenized field without doc values.

        String keys sort by their code in the scope's sorted union
        vocabulary, which orders like the terms, so the sort is all-int;
        strings materialize for the ≤ ``limit`` returned rows.  The
        composite key + url is a total order, so per-shard truncation
        merges exactly.  Returns (url, <one int64/string column per sort
        field>, docid).

        ``after_keys`` + ``after_url`` are the searchAfter(FieldDoc)
        anchor for THIS sort: one value per sort field (ints for the
        numerics, str-or-None for string keys — None anchors inside the
        missing-last block) plus the previous page's last url; only rows
        STRICTLY after the anchor under the composite total order return,
        applied BEFORE truncation so pages concatenate to the unanchored
        result exactly (the search_after argument)."""
        coll = sanitize_collection(collection)
        fields = self._validate_sort_spec(sort, coll)
        if after_keys is not None and len(after_keys) != len(fields):
            raise ValueError(
                f"after_keys must carry one value per sort field "
                f"({len(fields)}), got {len(after_keys)}"
            )
        limit = self._limit(limit)
        clauses = parse_query(query, default_field=self.cfg.text_column)
        numeric = [f in _NUMERIC_SORT_FIELDS for f, _ in fields]
        got = self._match(coll, clauses)
        if got is None:
            return pa.schema(
                [("url", pa.string()),
                 *((f, pa.int64() if num else pa.string())
                   for (f, _), num in zip(fields, numeric)),
                 ("docid", pa.int64())]
            ).empty_table()
        scope, matched = got
        keys = []  # numeric values, or string codes (-1 = missing)
        for f, _ in fields:
            if f == "warc_ts":
                keys.append(scope.warc_ts[matched])
            elif f == "doc_len":
                dl = scope.doc_len[self.cfg.text_column]
                keys.append(dl[matched].astype(np.int64))
            else:
                keys.append(scope.field(f).min_code[matched])

        def values(i: int, k: np.ndarray) -> np.ndarray:
            return k if numeric[i] else scope.field(fields[i][0]).terms(k)

        if after_keys is not None:
            keep = sorted_after_mask(
                [values(i, k) for i, k in enumerate(keys)],
                scope.urls[matched], fields, after_keys, after_url,
            )
            matched, keys = matched[keep], [k[keep] for k in keys]
        sort_cols = [
            (-k if d == "desc" else k) if num
            else np.where(k >= 0, -k if d == "desc" else k, np.iinfo(np.int64).max)
            for (_, d), k, num in zip(fields, keys, numeric)
        ]
        order = _url_order(scope, matched, tuple(reversed(sort_cols)))[:limit]
        sel = matched[order]
        return pa.table(
            {
                "url": pa.array(scope.urls[sel], pa.string()),
                **{
                    f: pa.array(
                        values(i, keys[i][order]),
                        pa.int64() if numeric[i] else pa.string(),
                    )
                    for i, (f, _) in enumerate(fields)
                },
                "docid": pa.array(scope.docids(sel), pa.int64()),
            }
        )

    def _known_fields(self, coll: str) -> set[str]:
        """The configured fields plus every field the collection's
        segments index — an empty collection (typo'd name, no docs yet)
        still rejects an unknown field LOUDLY rather than degrading into
        an empty-result scan."""
        known = {self.cfg.text_column, *self.cfg.field_columns}
        if self._segments.get(coll):
            known.update(self._scope(coll).doc_len)
        return known

    def _validate_sort_spec(
        self, sort: "list[tuple[str, str]]", coll: str
    ) -> "list[tuple[str, str]]":
        """Shared sort-spec validation for :meth:`search_sorted_by`:
        numeric doc values ('warc_ts', 'doc_len') or any indexed metadata
        field (STRING sort — see :class:`_FieldColumn`); the text column
        is rejected exactly like Lucene rejects sorting on a tokenized
        field without doc values."""
        if not sort:
            raise ValueError("sort must name at least one (field, dir) pair")
        known = self._known_fields(coll)
        fields: list[tuple[str, str]] = []
        for pair in sort:
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2):
                raise ValueError(f"sort entries are (field, dir) pairs: {pair!r}")
            f, d = pair
            if f not in _NUMERIC_SORT_FIELDS:
                if f == self.cfg.text_column:
                    raise ValueError(
                        f"cannot sort on the tokenized text field {f!r} "
                        "(Lucene parity: no doc values on a tokenized "
                        "field); sortable: 'warc_ts', 'doc_len' or an "
                        "indexed metadata field"
                    )
                if f not in known:
                    raise ValueError(
                        f"unsupported sort field {f!r}: not an indexed "
                        f"field of this index (have {sorted(known)})"
                    )
            if d not in ("asc", "desc"):
                raise ValueError(f"sort direction must be asc|desc, got {d!r}")
            if f in [x[0] for x in fields]:
                raise ValueError(f"duplicate sort field {f!r}")
            fields.append((f, d))
        return fields

    def more_like_this(
        self,
        text: str,
        collection: str = "default",
        max_query_terms: int = 25,
        limit: int | None = None,
        exclude_url: str | None = None,
        method: str = "taat",
    ) -> pa.Table:
        """Find documents similar to ``text`` — Lucene MoreLikeThis's
        like(content) form (org.apache.lucene.queries.mlt.MoreLikeThis):
        analyze the text with the index analyzer, weight each distinct term
        by tf(text) · idf(corpus) using the engine's BM25 idf and the
        collection's live df/n_docs, keep the ``max_query_terms`` heaviest
        (weight desc, term asc — deterministic: equal weights only arise
        from identical (tf, df) pairs), and run them as one SHOULD query
        through the normal scoring path.  ``exclude_url`` drops the source
        document from the results (the usual MLT setup where the probe text
        IS an indexed doc).  Result shape/order matches :meth:`search`."""
        from lucene_plugin_ray.functions.analysis import analyze

        if max_query_terms <= 0:
            # a negative value would Python-slice away the LIGHTEST terms —
            # silently a different query; reject loudly instead
            raise ValueError(
                f"max_query_terms must be >= 1, got {max_query_terms}"
            )
        limit = self._limit(limit)
        coll = sanitize_collection(collection)
        empty = RESULT_SCHEMA.empty_table()
        toks = analyze(text)
        if not toks:
            return empty
        n_docs, _avgdl = self._stats(coll)
        if n_docs == 0:
            return empty
        tf: dict[str, int] = {}
        for t in toks:
            tf[t] = tf.get(t, 0) + 1
        field = self.cfg.text_column
        dfs = self.local_term_dfs(coll, [(field, t) for t in tf])
        clauses = mlt_select_clauses(tf, dfs, n_docs, max_query_terms, field)
        if not clauses:
            return empty
        fetch = limit + 1 if exclude_url is not None else limit
        res = self._execute(clauses, coll, fetch, method)
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
        """MoreLikeThis's like(docId) form: term frequencies come from the
        INDEXED document's term vector (reconstructed by
        :meth:`term_vector` — exact index tfs, not a re-analysis), then
        the selection/scoring contract of :meth:`more_like_this` verbatim
        (tf·idf weights, (weight desc, term asc) top ``max_query_terms``,
        one SHOULD query).  The source document is excluded unless
        ``include_self`` (Lucene's usual like-document setup).  A url that
        is not live raises KeyError — the :meth:`explain`/term_vector
        convention."""
        if max_query_terms <= 0:
            # validate BEFORE the term-vector reconstruction so a bad
            # parameter is a ValueError regardless of url liveness (the
            # sharded twin's order)
            raise ValueError(
                f"max_query_terms must be >= 1, got {max_query_terms}"
            )
        limit = self._limit(limit)
        tv = self.term_vector(
            url, collection=collection, with_positions=False
        )
        coll = sanitize_collection(collection)
        empty = RESULT_SCHEMA.empty_table()
        n_docs, _avgdl = self._stats(coll)
        if n_docs == 0 or tv.num_rows == 0:
            return empty
        field = self.cfg.text_column
        tf = dict(zip(tv["term"].to_pylist(), tv["tf"].to_pylist()))
        dfs = self.local_term_dfs(coll, [(field, t) for t in tf])
        clauses = mlt_select_clauses(tf, dfs, n_docs, max_query_terms, field)
        if not clauses:
            return empty
        fetch = limit if include_self else limit + 1
        res = self._execute(clauses, coll, fetch, method)
        if not include_self:
            res = exclude_source_url(res, url, limit)
        return res

    def suggest(
        self,
        term: str,
        collection: str = "default",
        field: str | None = None,
        max_edits: int = 2,
        k: int = 5,
    ) -> pa.Table:
        """Spell-correction candidates — Lucene DirectSpellChecker
        analogue: live-vocabulary terms within Damerau-Levenshtein
        ``max_edits`` of ``term``, ranked (distance asc, df desc, term asc),
        top ``k``.  df is alive-masked and summed across segments exactly
        like the search path, so suggestions track deletes/upserts.  The
        probe itself appears at distance 0 when indexed — callers usually
        skip suggesting in that case.  The scope dictionary's fuzzy screen
        (:attr:`_TermDictionary.screen` — the one fuzzy queries use)
        answers with union codes and exact distances: cost is the
        ``len(term) ± max_edits`` length buckets of the scope's
        vocabulary, never corpus-bound.  A field that is not indexed
        raises ``ValueError``.  Returns (term, distance, df)."""
        if k <= 0:
            raise ValueError("k must be positive")
        if max_edits not in (1, 2):
            # DirectSpellChecker's own bound (LevenshteinAutomata limit)
            raise ValueError("max_edits must be 1 or 2")
        probe = term.lower()
        coll = sanitize_collection(collection)
        field = self._vocab_field(field)
        d = self._dictionary(coll, field)
        codes, dist = d.screen.match(probe, max_edits)
        dists = dict(zip(d.terms[codes].tolist(), dist.tolist()))
        return rank_suggestions_table(d.live_dfs(codes), dists, k)

    def facets_stats(
        self,
        query: str,
        facet_field: str,
        value_source: str = "doc_len",
        collection: str = "default",
    ) -> pa.Table:
        """Numeric facet aggregation — the Lucene facets-module value-source
        analogue (TaxonomyFacetSumValueSource over NumericDocValues): for
        every value of ``facet_field``, the count / min / max / sum of a
        stored per-doc numeric over ALL matching documents.

        ``value_source``: 'doc_len' (analyzed token count of the text
        field — the engine's exact |D|) or 'warc_ts' (stored epoch-µs).
        Matching and membership are exactly the facets path (boolean
        :meth:`_match` + the field's postings restricted to the match
        set); each value's run folds with integer reduceats, so sharded
        partials merge without float drift.  Returns
        (value, count, vmin, vmax, vsum), ordered value asc.  An unknown
        ``facet_field`` raises ``ValueError``."""
        src = self._value_source(value_source)
        coll = sanitize_collection(collection)
        self._check_facet_field(facet_field, coll)
        clauses = parse_query(query, default_field=self.cfg.text_column)
        got = self._match(coll, clauses)
        acc: dict[str, list[int]] = {}  # value -> [count, min, max, sum]
        if got is not None:
            scope, matched = got
            col = self._column(scope, facet_field)
            codes, ids = col.within(_id_mask(scope.n, matched))
            if codes.size:
                starts = _run_starts(codes)
                vals = src(scope)[ids]
                for j, c, lo, hi, sm in zip(
                    codes[starts], np.diff(np.append(starts, codes.size)),
                    np.minimum.reduceat(vals, starts),
                    np.maximum.reduceat(vals, starts),
                    np.add.reduceat(vals, starts),
                ):
                    acc[str(col.vocab[j])] = [int(c), int(lo), int(hi), int(sm)]
        return facet_stats_table(acc)

    def _value_source(self, value_source: str):
        """scope → int64 per-doc values of a facet value source ('doc_len'
        or 'warc_ts'); raises on any other name."""
        if value_source == "warc_ts":
            return lambda scope: scope.warc_ts
        if value_source == "doc_len":
            return lambda scope: scope.doc_len[self.cfg.text_column].astype(
                np.int64, copy=False
            )
        raise ValueError(
            "value_source must be 'doc_len' or 'warc_ts', got "
            f"{value_source!r}"
        )

    def facet_ranges(
        self,
        query: str,
        ranges: list[tuple],
        value_source: str = "doc_len",
        collection: str = "default",
    ) -> pa.Table:
        """Numeric range faceting — Lucene LongRangeFacetCounts analogue:
        for each caller-supplied range, the number of matching documents
        whose stored numeric value falls inside it.  ``ranges`` is a list
        of ``(label, lo, hi, lo_inc, hi_inc)`` tuples (``lo``/``hi`` None
        = open end; 2-tuples ``(label, lo, hi)`` default to [lo, hi) —
        LongRange's minInclusive/maxExclusive convention).  Ranges MAY
        overlap — each is counted independently, Lucene parity — and the
        output preserves the caller's range order.  ``value_source`` is
        the facets_stats contract ('doc_len' | 'warc_ts').  Returns
        (label, count).  Sharded partials are per-range integer counts
        over doc-disjoint partitions, so the driver merge is a plain sum."""
        src = self._value_source(value_source)
        norm = _normalize_ranges(ranges)
        coll = sanitize_collection(collection)
        clauses = parse_query(query, default_field=self.cfg.text_column)
        got = self._match(coll, clauses)
        counts = np.zeros(len(norm), dtype=np.int64)
        if got is not None:
            vals = src(got[0])[got[1]]
            for i, (_label, lo, hi, lo_inc, hi_inc) in enumerate(norm):
                m = np.ones(vals.size, dtype=bool)
                if lo is not None:
                    m &= (vals >= lo) if lo_inc else (vals > lo)
                if hi is not None:
                    m &= (vals <= hi) if hi_inc else (vals < hi)
                counts[i] = int(m.sum())
        return pa.table(
            {
                "label": pa.array([r_[0] for r_ in norm], pa.string()),
                "count": pa.array(counts, pa.int64()),
            }
        )

    def search_grouped(
        self,
        query: str,
        group_field: str,
        collection: str = "default",
        group_limit: int = 10,
        docs_per_group: int = 3,
        synonyms: dict[str, list[str]] | None = None,
        global_stats: dict[str, dict] | None = None,
        global_df: dict[tuple[str, str], int] | None = None,
        global_ttf: dict[tuple[str, str], int] | None = None,
    ) -> pa.Table:
        """Grouped top-k — the Lucene grouping-module analogue
        (TopGroups over a single-token metadata field): the top
        ``group_limit`` groups ranked by their best document
        (score desc, url asc — the group head), each carrying its own top
        ``docs_per_group`` documents under the same total order.

        Scoring is the TAAT path's exact BM25 (one `_eval_boolean` over the
        collection scope); group membership comes from the group field's
        postings restricted to the match set (multi-valued docs join every
        group they carry a term for), sorted once by (group, score desc,
        url asc) and cut to ``docs_per_group`` per group before any Python
        tuple is built.  Returns (group, group_rank, url, score, docid),
        ordered (group_rank asc, score desc, url asc)."""
        if group_limit <= 0 or docs_per_group <= 0:
            raise ValueError("group_limit and docs_per_group must be positive")
        check_metadata_field(self.cfg.field_columns, "group_field", group_field)
        coll = sanitize_collection(collection)
        clauses = rewrite_query(query, self.cfg.text_column, synonyms)
        got = self._scored(clauses, coll, global_stats, global_df, global_ttf)
        groups: dict[str, list[tuple[str, float, int]]] = {}
        if got is not None:
            scope, scores, cand = got
            col = scope.field(group_field)
            codes, ids = col.within(_id_mask(scope.n, cand))
            order = _url_order(scope, ids, (-scores[ids], codes))
            codes, ids = codes[order], ids[order]
            if codes.size:
                starts = _run_starts(codes)
                rank = np.arange(codes.size) - np.repeat(
                    starts, np.diff(np.append(starts, codes.size))
                )
                keep = rank < docs_per_group
                codes, ids = codes[keep], ids[keep]
            for j, u, sc, d in zip(
                codes, scope.urls[ids], scores[ids], scope.docids(ids).tolist()
            ):
                groups.setdefault(str(col.vocab[j]), []).append((u, sc, d))
        return rank_grouped_table(groups, group_limit, docs_per_group)

    # ---- query-time join (Lucene join module, JoinUtil.createJoinQuery) --
    def join_from_aggregates(
        self,
        from_query: str,
        from_field: str,
        collection: str = "default",
        synonyms: dict[str, list[str]] | None = None,
        global_stats: dict[str, dict] | None = None,
        global_df: dict[tuple[str, str], int] | None = None,
        global_ttf: dict[tuple[str, str], int] | None = None,
        need_scores: bool = True,
        restrict_query: str | None = None,
    ) -> dict[str, list]:
        """From-side of the join: per ``from_field`` value carried by a
        doc matching ``from_query``, the (count, sum, max, min) of the
        matching docs' exact BM25 scores.  ``restrict_query`` (optional)
        intersects the match set with its score-free boolean matches
        BEFORE aggregation — the non-scoring FILTER restriction the
        block-join parent pass needs (scores stay ``from_query``'s alone,
        search_filtered semantics).  One TAAT full-match pass over the
        collection scope, then the field's postings restricted to the
        match set and one reduceat per value run — work bounded by the
        field's postings (low-cardinality metadata by the same contract
        as facets/grouping).  These integer/float partials fold exactly
        across shards (count adds, sum adds, max/min fold), so the sharded
        driver merge is loss-free for count/max/min and order-sensitive
        only in the float sums (documented on :meth:`search_join`; the sum
        adds a value's scores sequentially in scope id order).

        ``need_scores=False`` (ScoreMode.None) skips BM25 entirely — the
        score-free boolean matcher replaces the TAAT pass and only counts
        are folded (sum/max/min emitted as 0.0); on full-corpus match sets
        this removes the dominant cost."""
        check_metadata_field(self.cfg.field_columns, "from_field", from_field)
        coll = sanitize_collection(collection)
        clauses = rewrite_query(from_query, self.cfg.text_column, synonyms)
        rclauses = None
        if restrict_query is not None:
            rclauses = parse_query(
                restrict_query, default_field=self.cfg.text_column
            )
            if not rclauses:
                raise ValueError(
                    "restrict_query must contain at least one clause"
                )
        if need_scores:
            got = self._scored(clauses, coll, global_stats, global_df, global_ttf)
            if got is None:
                return {}
            scope, scores, cand = got
        else:
            # ScoreMode.None: boolean matching only — no stats, no df
            got = self._match(coll, clauses)
            if got is None:
                return {}
            (scope, cand), scores = got, None
        if rclauses is not None:
            cand = cand[self._eval_boolean(scope, rclauses, {})[1][cand]]
        col = scope.field(from_field)
        codes, ids = col.within(_id_mask(scope.n, cand))
        if codes.size == 0:
            return {}
        starts = _run_starts(codes)
        terms = [str(t) for t in col.vocab[codes[starts]]]
        counts = np.diff(np.append(starts, codes.size)).tolist()
        if scores is None:
            return {t: [c, 0.0, 0.0, 0.0] for t, c in zip(terms, counts)}
        vals = scores[ids]
        return {
            t: [c, float(sm), float(mx), float(mn)]
            for t, c, sm, mx, mn in zip(
                terms, counts, np.add.reduceat(vals, starts),
                np.maximum.reduceat(vals, starts),
                np.minimum.reduceat(vals, starts),
            )
        }

    @staticmethod
    def join_value_scores(
        agg: dict[str, list], score_mode: str
    ) -> dict[str, float]:
        """Collapse from-side (count, sum, max, min) aggregates into the
        per-value join score under a Lucene ``ScoreMode``: 'none' → 1.0,
        'max'/'min' → the extreme from-side score, 'total' → the sum,
        'avg' → sum/count."""
        if score_mode not in _JOIN_MODES:
            raise ValueError(
                f"score_mode must be one of {_JOIN_MODES}, got {score_mode!r}"
            )
        if score_mode == "none":
            return {v: 1.0 for v in agg}
        idx = {"total": 1, "max": 2, "min": 3}.get(score_mode)
        if idx is not None:
            return {v: a[idx] for v, a in agg.items()}
        return {v: a[1] / a[0] for v, a in agg.items()}  # avg

    def join_to_hits(
        self,
        to_field: str,
        value_scores: dict[str, float],
        score_mode: str,
        collection: str = "default",
        limit: int | None = None,
        restrict_query: str | None = None,
        exclude_query: str | None = None,
    ) -> pa.Table:
        """To-side of the join: every alive doc carrying >= 1 joined
        ``to_field`` value, scored by folding the matched values' join
        scores under ``score_mode``.  ``restrict_query`` keeps only docs
        in its score-free boolean match set (the block-join parent
        filter); ``exclude_query`` drops its matches (the block-join
        child direction excludes parents) — both non-scoring FILTER
        restrictions, join scores untouched. (max/none → max, min → min, total →
        sum, avg → mean of matched value scores; for single-token
        metadata fields every doc carries exactly one value, so the fold
        is degenerate and all modes coincide doc-side).  One pass over the
        to-field's scope postings with a per-value score map; postings run
        in value (term) order, so each doc's float fold adds its values in
        term order.  Returns (url, score, docid) truncated to ``limit``
        under the engine's (score desc, url asc) total order."""
        check_metadata_field(self.cfg.field_columns, "to_field", to_field)
        if score_mode not in _JOIN_MODES:
            raise ValueError(
                f"score_mode must be one of {_JOIN_MODES}, got {score_mode!r}"
            )
        limit = self._limit(limit)
        coll = sanitize_collection(collection)
        filters = []  # (clauses, keep its matches?)
        for q, what, keep_hits in (
            (restrict_query, "restrict_query", True),
            (exclude_query, "exclude_query", False),
        ):
            if q is not None:
                cl = parse_query(q, default_field=self.cfg.text_column)
                if not cl:
                    raise ValueError(f"{what} must contain at least one clause")
                filters.append((cl, keep_hits))
        if not value_scores or not self._segments.get(coll):
            return RESULT_SCHEMA.empty_table()
        scope = self._scope(coll)
        keep = scope.alive.copy()
        for cl, keep_hits in filters:
            hits = self._eval_boolean(scope, cl, {})[1]
            keep &= hits if keep_hits else ~hits
        col = scope.field(to_field)
        code_score = np.full(col.vocab.size, np.nan)
        for v, sval in value_scores.items():
            j = int(np.searchsorted(col.vocab, v))
            if j < col.vocab.size and col.vocab[j] == v:
                code_score[j] = sval
        codes, ids = col.within(keep)
        sc = code_score[codes]
        got = ~np.isnan(sc)
        ids, sc = ids[got], sc[got]
        uniq, inv = np.unique(ids, return_inverse=True)
        if score_mode in ("max", "none"):
            fold = np.full(uniq.size, -np.inf)
            np.maximum.at(fold, inv, sc)
        elif score_mode == "min":
            fold = np.full(uniq.size, np.inf)
            np.minimum.at(fold, inv, sc)
        else:  # total / avg: sum (and mean) over the matched values
            fold = np.zeros(uniq.size)
            np.add.at(fold, inv, sc)
            if score_mode == "avg":
                fold = fold / np.bincount(inv, minlength=uniq.size)
        return _top_hits(scope, uniq, fold, limit)

    def search_join(
        self,
        from_query: str,
        from_field: str,
        to_field: str,
        score_mode: str = "max",
        collection: str = "default",
        limit: int | None = None,
        synonyms: dict[str, list[str]] | None = None,
        global_stats: dict[str, dict] | None = None,
        global_df: dict[tuple[str, str], int] | None = None,
        global_ttf: dict[tuple[str, str], int] | None = None,
    ) -> pa.Table:
        """Query-time join — the Lucene join-module analogue
        (JoinUtil.createJoinQuery(fromField, fromQuery, toField, searcher,
        ScoreMode), join/src/java/org/apache/lucene/search/join/JoinUtil.java):
        run ``from_query``, collect the ``from_field`` values of its
        matching docs with their BM25 scores aggregated per value under
        ``score_mode`` ('none' | 'max' | 'min' | 'total' | 'avg'), then
        return every doc whose ``to_field`` carries a joined value, scored
        by the value's aggregate (docs matching several values fold them
        under the same mode — single-valued metadata fields make this
        degenerate).  Classic use: relevance propagation through a shared
        key ("rank whole languages/sources by how well the query scores
        inside them").

        Exactness: count/max/min aggregates are order-free, so the sharded
        twin (ShardedSearcherService.search_join) is bit-identical to this
        single-engine path for score_mode none/max/min; 'total'/'avg' sum
        float64 partials in shard order, a different summation grouping
        than the single-engine segment order — last-bit drift possible on
        pathological ties (same caveat as any distributed float sum).
        Returns (url, score, docid) ordered (score desc, url asc),
        truncated to ``limit``."""
        if score_mode not in _JOIN_MODES:
            raise ValueError(
                f"score_mode must be one of {_JOIN_MODES}, got {score_mode!r}"
            )
        check_metadata_field(self.cfg.field_columns, "to_field", to_field)
        agg = self.join_from_aggregates(
            from_query, from_field, collection=collection, synonyms=synonyms,
            global_stats=global_stats, global_df=global_df,
            global_ttf=global_ttf, need_scores=score_mode != "none",
        )
        vs = self.join_value_scores(agg, score_mode)
        return self.join_to_hits(
            to_field, vs, score_mode, collection=collection, limit=limit
        )

    # ---- block join (Lucene join module, index-time variant) -------------
    def boolean_overlap_count(
        self, query_a: str, query_b: str, collection: str = "default"
    ) -> int:
        """Number of alive docs matched by BOTH queries (score-free boolean
        matches over the collection scope, sorted-set intersection) — the
        ToParentBlockJoinQuery contract probe: a child query must never
        match a parent doc."""
        coll = sanitize_collection(collection)
        ca = parse_query(query_a, default_field=self.cfg.text_column)
        cb = parse_query(query_b, default_field=self.cfg.text_column)
        if not ca or not cb:
            return 0
        got = self._match(coll, ca)
        if got is None or got[1].size == 0:
            return 0
        scope, ma = got
        return int(np.count_nonzero(self._eval_boolean(scope, cb, {})[1][ma]))

    def block_join_parents(
        self,
        child_query: str,
        parent_filter: str,
        block_field: str,
        score_mode: str = "max",
        collection: str = "default",
        limit: int | None = None,
        synonyms: dict[str, list[str]] | None = None,
        global_stats: dict[str, dict] | None = None,
        global_df: dict[tuple[str, str], int] | None = None,
        global_ttf: dict[tuple[str, str], int] | None = None,
        check_contract: bool = True,
    ) -> pa.Table:
        """Child→parent block join — the Lucene join-module
        ToParentBlockJoinQuery analogue (join/src/java/org/apache/lucene/
        search/join/ToParentBlockJoinQuery.java): score ``child_query``
        over the child docs, aggregate the child scores per block under
        ``score_mode`` ('none' | 'max' | 'min' | 'total' | 'avg' — the
        block-join ScoreMode set), and return the PARENT docs
        (``parent_filter``'s boolean matches) of blocks with >= 1 matching
        child, scored by their block's aggregate ('none' → constant 1.0,
        BitSetProducer parity: the parent filter never contributes to the
        score).

        Data model: Lucene encodes blocks by index adjacency (children
        first, parent last — an IndexWriter.addDocuments block); this
        engine's flat web-page model encodes the SAME relation explicitly:
        parent and children share a ``block_field`` metadata value
        (low-cardinality by the facets/grouping contract).  Because
        membership is by shared key, blocks need NO co-location — the
        from-side (count, sum, max, min) partials fold exactly across
        doc-disjoint segments/shards, the same exactness argument as
        :meth:`search_join`.  A block with several parents folds their
        hits under the engine's (score desc, url asc) order (Lucene's
        one-parent-per-block invariant is the caller's data contract).

        ``check_contract=True`` enforces Lucene's runtime check
        (IllegalStateException "child query must only match non-parent
        docs"): any doc matched by BOTH ``child_query`` and
        ``parent_filter`` raises ValueError.  One extra score-free boolean
        pass; sharded callers run it per shard and pass False here."""
        if score_mode not in _JOIN_MODES:
            raise ValueError(
                f"score_mode must be one of {_JOIN_MODES}, got {score_mode!r}"
            )
        check_metadata_field(self.cfg.field_columns, "block_field", block_field)
        if not parse_query(parent_filter, default_field=self.cfg.text_column):
            raise ValueError("parent_filter must contain at least one clause")
        limit = self._limit(limit)
        if check_contract:
            n = self.boolean_overlap_count(
                child_query, parent_filter, collection=collection
            )
            if n:
                raise ValueError(
                    f"child_query matches {n} parent doc(s) — "
                    "ToParentBlockJoinQuery requires the child query to "
                    "match only non-parent docs"
                )
        agg = self.join_from_aggregates(
            child_query, block_field, collection=collection,
            synonyms=synonyms, global_stats=global_stats,
            global_df=global_df, global_ttf=global_ttf,
            need_scores=score_mode != "none",
        )
        vs = self.join_value_scores(agg, score_mode)
        return self.join_to_hits(
            block_field, vs, score_mode, collection=collection, limit=limit,
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
        global_stats: dict[str, dict] | None = None,
        global_df: dict[tuple[str, str], int] | None = None,
        global_ttf: dict[tuple[str, str], int] | None = None,
    ) -> pa.Table:
        """Parent→child block join — the Lucene join-module
        ToChildBlockJoinQuery analogue (ToChildBlockJoinQuery.java): score
        ``parent_query`` restricted to the parent docs (``parent_filter``'s
        non-scoring boolean matches — scores come from ``parent_query``
        alone, search_filtered semantics), then return every CHILD doc
        (same ``block_field`` value, parents excluded) carrying the
        parent's score (``score=False`` ≙ doScores=false: constant 1.0).
        Several parents sharing a block value fold under max (Lucene's
        one-parent-per-block invariant is the caller's data contract)."""
        check_metadata_field(self.cfg.field_columns, "block_field", block_field)
        if not parse_query(parent_filter, default_field=self.cfg.text_column):
            raise ValueError("parent_filter must contain at least one clause")
        limit = self._limit(limit)
        agg = self.join_from_aggregates(
            parent_query, block_field, collection=collection,
            synonyms=synonyms, global_stats=global_stats,
            global_df=global_df, global_ttf=global_ttf, need_scores=score,
            restrict_query=parent_filter,
        )
        vs = self.join_value_scores(agg, "max" if score else "none")
        return self.join_to_hits(
            block_field, vs, "max", collection=collection, limit=limit,
            exclude_query=parent_filter,
        )

    # ---- drill-down + sideways faceting (Lucene facets module) ----------
    def _dim_clauses(self, dims: dict) -> dict[str, list[TermClause]]:
        return build_dim_clauses(dims, self.cfg.field_columns)

    def drill_sideways(
        self,
        query: str,
        dims: dict,
        collection: str = "default",
        limit: int | None = None,
    ) -> tuple[pa.Table, dict[str, pa.Table]]:
        """Drill-down + sideways faceting — the Lucene facets-module
        DrillSideways analogue (facet/src/java/org/apache/lucene/facet/
        DrillSideways.java): ``dims`` maps each drill-down dimension
        (an indexed metadata field) to one value or a list of values
        (several values per dim match ANY — DrillDownQuery.add parity).

        Returns ``(hits, counts)``:
        * ``hits`` — the drill-down result: ``query`` restricted to docs
          matching EVERY dim (scores from the query alone, the dims are
          non-scoring FILTER clauses) — exactly
          :meth:`search_filtered` semantics, (score desc, url asc),
          top-``limit``.
        * ``counts`` — per dim, the facet counts of that dim's field over
          the SIDEWAYS set: docs matching ``query`` and every OTHER dim,
          with this dim's own filter removed — the counts a UI shows so a
          user can see what the other choices for one facet would yield
          without clearing it.  Each table is (value, count) ordered
          (count desc, value asc), the facets() contract.

        Cost: one boolean base-match + one boolean match per dim per
        segment, set intersections in numpy, and the facets-shaped
        per-(segment, value) membership pass per dim — bounded by
        Σ|dim vocab|, never the corpus.  Sideways counts are per-doc
        integer sums over doc-disjoint partitions, so the sharded twin
        merges by plain addition."""
        dim_clauses = self._dim_clauses(dims)
        counts = self.drill_sideways_counts(query, dims, collection=collection)
        # drill-down hits: query FILTERed by every dim (scores untouched).
        # This pays its own search_filtered pass (the hits need SCORES the
        # boolean counts pass never computes; the per-dim boolean matches
        # it re-derives are metadata postings — cheap, and repeat calls hit
        # the results cache), so the per-call cost is the counts pass PLUS
        # one filtered search.
        fq = drill_filter_query(dim_clauses)
        hits = self.search_filtered(query, fq, collection=collection, limit=limit)
        return hits, {f: facet_count_table(acc) for f, acc in counts.items()}

    def drill_sideways_counts(
        self, query: str, dims: dict, collection: str = "default"
    ) -> dict[str, dict[str, int]]:
        """The sideways-counts pass alone (no hit scoring) — per dim, the
        raw {value: count} dict over this engine's partitions; the sharded
        partial (integer counts over doc-disjoint partitions sum exactly
        on the driver)."""
        dim_clauses = self._dim_clauses(dims)
        coll = sanitize_collection(collection)
        base_clauses = parse_query(query, default_field=self.cfg.text_column)
        counts: dict[str, dict[str, int]] = {f: {} for f in dim_clauses}
        got = self._match(coll, base_clauses)
        if got is None or got[1].size == 0:
            return counts
        scope, base = got
        fmasks = {
            f: self._eval_boolean(scope, cl, {})[1]
            for f, cl in dim_clauses.items()
        }
        for f in dim_clauses:
            keep = np.ones(base.size, dtype=bool)
            for other, m in fmasks.items():
                if other != f:
                    keep &= m[base]
            side = base[keep]
            if side.size:
                counts[f] = self._value_counts(scope, f, side)
        return counts

    # ---- naive-Bayes text classification (Lucene classification module) -
    def text_vocab_size(self, collection: str = "default") -> int:
        """Distinct alive-segment text-field dictionary size — classify's
        Laplace smoothing denominator: the size of the scope's text term
        dictionary.  Terms whose postings are fully tombstoned still
        count — the dictionary, not the live posting set, defines the
        smoothing vocabulary (documented deviation from a live-docs
        recount; identical on delete-free indexes)."""
        coll = sanitize_collection(collection)
        return int(self._dictionary(coll, self.cfg.text_column).terms.size)

    def classify_partials(
        self, text: str, class_field: str, collection: str = "default"
    ) -> tuple[dict[str, int], dict[tuple[str, str], int]]:
        """This engine's integer classification statistics for the analyzed
        ``text``: ({class: alive doc count}, {(token, class): number of
        alive docs containing BOTH the text token and the class value}) —
        the sharded partial (doc-disjoint shards sum exactly).  Work: the
        class field's scope postings, one bincount for the class counts
        and one per distinct token over its cached text postings
        (multi-valued class docs count toward every class they carry)."""
        check_metadata_field(self.cfg.field_columns, "class_field", class_field)
        from lucene_plugin_ray.functions.analysis import analyze

        toks = sorted(set(analyze(text)))
        coll = sanitize_collection(collection)
        n_c: dict[str, int] = {}
        df: dict[tuple[str, str], int] = {}
        if not self._segments.get(coll):
            return n_c, df
        scope = self._scope(coll)
        n_c = self._value_counts(scope, class_field, np.flatnonzero(scope.alive))
        if not n_c:
            return n_c, df
        for w in toks:
            got = self._decoded(scope, self.cfg.text_column, w)
            if got is not None:
                for c, n in self._value_counts(scope, class_field, got[0]).items():
                    df[(w, c)] = n
        return n_c, df

    def classify(
        self,
        text: str,
        class_field: str,
        collection: str = "default",
    ) -> pa.Table:
        """Naive-Bayes text classification off pure index statistics — the
        Lucene classification-module analogue (SimpleNaiveBayesClassifier,
        classification/src/java/org/apache/lucene/classification/
        SimpleNaiveBayesClassifier.java): classes are the values of an
        indexed metadata field, and every probability comes from posting
        intersections, no training pass:

            score(c) = ln(n_c / N)
                     + Σ_tok  ln( (df(tok ∧ c) + 1) / (n_c + V) )

        with n_c = alive docs carrying class c, N = Σ n_c, df(tok ∧ c) =
        alive docs containing both the analyzed token and the class (the
        add-one-smoothed per-class word likelihood), V = distinct text
        vocabulary size (:meth:`text_vocab_size`), and the sum running
        over TOKEN OCCURRENCES (repeats weigh, Lucene parity).  All inputs
        are exact integers, so the sharded twin
        (ShardedSearcherService.classify — per-shard (n_c, df) partials
        summed on the driver, V via a 64-bit term-hash union so the
        exchange is 8 bytes/term instead of the strings) reproduces this
        bit-for-bit up to hash collisions in V.

        Returns (class, score) over every alive class, ordered
        (score desc, class asc); ties broken by class name."""
        from lucene_plugin_ray.functions.analysis import analyze

        toks = analyze(text)
        if not toks:
            raise ValueError("text analyzed to zero tokens")
        n_c, df = self.classify_partials(
            text, class_field, collection=collection
        )
        vocab = self.text_vocab_size(collection)
        return naive_bayes_table(toks, n_c, df, vocab)

    def class_votes_for_urls(
        self,
        urls: np.ndarray,
        votes: np.ndarray,
        class_field: str,
        collection: str = "default",
    ) -> dict[str, list[int]]:
        """Fold integer ``votes`` (aligned with sorted-unique hit ``urls``)
        into per-class (vote sum, hit count) using this engine's segments:
        each alive hit doc contributes its vote to every class value it
        carries.  The urls resolve to scope ids by a searchsorted probe of
        each member's url index, then one pass over the class field's
        scope postings — work bounded by |hits| · segments + the field's
        postings.  Shadowed/deleted copies of a url never vote (alive
        mask), so across doc-disjoint shards the integer fold is exact —
        the sharded partial."""
        check_metadata_field(self.cfg.field_columns, "class_field", class_field)
        coll = sanitize_collection(collection)
        acc: dict[str, list[int]] = {}
        if not self._segments.get(coll):
            return acc
        scope = self._scope(coll)
        ids = scope.live_ids(urls)
        ok = ids >= 0
        vote = np.zeros(scope.n, dtype=np.int64)
        vote[ids[ok]] = votes[ok]
        col = scope.field(class_field)
        codes, pids = col.within(_id_mask(scope.n, ids[ok]))
        sums = np.zeros(col.vocab.size, dtype=np.int64)
        np.add.at(sums, codes, vote[pids])
        hits = np.bincount(codes, minlength=col.vocab.size)
        for j in np.flatnonzero(hits):
            acc[str(col.vocab[j])] = [int(sums[j]), int(hits[j])]
        return acc

    def classify_knn(
        self,
        text: str,
        class_field: str,
        collection: str = "default",
        k: int = 10,
        max_query_terms: int = 25,
        exclude_url: str | None = None,
    ) -> pa.Table:
        """k-nearest-neighbor classification — the classification module's
        KNearestNeighborClassifier analogue: run the MoreLikeThis query
        built from ``text`` (:meth:`more_like_this`, exact BM25 top-``k``
        under the engine's total order), then each hit votes its
        ``class_field`` value(s) weighted by its score.  Votes are INTEGER
        1e-4 units of the round-4 score (floor(round(s,4)·1e4 + 0.5)) so
        the per-class fold is order-free — the sharded twin
        (ShardedSearcherService.classify_knn: cluster-exact sharded MLT
        hits, then per-shard integer vote partials over doc-disjoint
        alive docs) is bit-identical, and a DuckDB oracle reproduces the
        arithmetic exactly.  Returns (class, vote_units, hits) over
        classes with ≥ 1 voting hit, ordered (vote desc, class asc)."""
        check_metadata_field(self.cfg.field_columns, "class_field", class_field)
        hits = self.more_like_this(
            text, collection=collection,
            max_query_terms=max_query_terms, limit=k,
            exclude_url=exclude_url,
        )
        empty = pa.table(
            {"class": pa.array([], pa.string()),
             "vote_units": pa.array([], pa.int64()),
             "hits": pa.array([], pa.int64())}
        )
        if hits.num_rows == 0:
            return empty
        urls = hits["url"].to_numpy(zero_copy_only=False)
        votes = score_to_vote_units(hits["score"].to_numpy())
        order = np.argsort(urls)     # the membership probe wants sorted urls
        acc = self.class_votes_for_urls(
            urls[order], votes[order], class_field, collection=collection
        )
        return knn_vote_table(acc)

    def index_stats(self, collection: str = "default") -> pa.Table:
        """Per-field index statistics — the IndexReader / SegmentInfos
        introspection surface (numDocs vs maxDoc, Terms.size/getSumDocFreq):
        one row per analyzed field with

        * ``n_segments``   — live segments under the pinned generation,
        * ``docs_alive``   — live docs (tombstones + upsert shadowing out),
        * ``docs_stored``  — stored docs incl. deleted/shadowed (maxDoc),
        * ``vocab``        — DISTINCT terms: the scope dictionary's size,
        * ``postings``     — Σ dictionary df: STORED postings, not
          re-counted under deletes (Lucene parity: segment-level stats
          never re-walk deletions; CheckIndex does).

        Pure dictionary/metadata reads — no posting decodes — so it is
        cheap enough to serve as a monitoring endpoint."""
        coll = sanitize_collection(collection)
        n_docs, _ = self._stats(coll)
        fields = list(self.cfg.fields())
        dicts = [self._dictionary(coll, f) for f in fields]
        segs = dicts[0].segs  # every field's dictionary has the same members
        n = len(fields)
        return pa.table(
            {
                "field": pa.array(fields, pa.string()),
                "n_segments": pa.array([len(segs)] * n, pa.int64()),
                "docs_alive": pa.array([n_docs] * n, pa.int64()),
                "docs_stored": pa.array(
                    [sum(s.reader.n_docs for s in segs)] * n, pa.int64()
                ),
                "vocab": pa.array([d.terms.size for d in dicts], pa.int64()),
                "postings": pa.array(
                    [int(d.stored_df.sum()) for d in dicts], pa.int64()
                ),
            }
        )

    def text_vocab_hashes(self, collection: str = "default") -> np.ndarray:
        """Per-engine distinct text-dictionary term hashes (mixed 64-bit
        fnv1a, sorted unique) — the sharded V-union exchange format:
        8 bytes/term instead of the term strings."""
        from lucene_plugin_ray.functions.hashing import (
            fnv1a_bytes_column, mix64_np,
        )

        coll = sanitize_collection(collection)
        terms = self._dictionary(coll, self.cfg.text_column).terms
        if not terms.size:
            return np.empty(0, np.uint64)
        h = fnv1a_bytes_column(pa.array(terms.tolist(), type=pa.string()))
        return np.unique(mix64_np(h))

    def _vocab_field(self, field: str | None) -> str:
        """``field``, or the text field when None; a field that is not
        indexed is rejected (a typo'd field would silently answer
        nothing)."""
        field = field or self.cfg.text_column
        known = {self.cfg.text_column, *self.cfg.field_columns}
        if field not in known:
            raise ValueError(
                f"unknown field {field!r} (indexed: {sorted(known)})"
            )
        return field

    def complete(
        self,
        prefix: str,
        collection: str = "default",
        field: str | None = None,
        k: int = 5,
    ) -> pa.Table:
        """Prefix autocompletion — the Lucene suggest-module analogue
        (AnalyzingSuggester with df as weight): live-vocabulary terms
        starting with ``prefix`` (lowercased, analyzer parity), ranked
        (df desc, term asc), top ``k``.  df is the exact alive df over
        the collection, so completions track deletes/upserts.  The
        candidates are one prefix range of the scope's term dictionary
        (two binary searches).  Returns (term, df)."""
        if k <= 0:
            raise ValueError("k must be positive")
        probe = prefix.lower().strip()
        if not probe:
            # an empty prefix would rank the ENTIRE vocabulary — reject
            # loudly rather than return a junk full-vocab scan
            raise ValueError("prefix must be non-empty")
        coll = sanitize_collection(collection)
        field = self._vocab_field(field)
        d = self._dictionary(coll, field)
        codes = np.arange(*prefix_range(d.terms, probe), dtype=np.int64)
        return rank_completions_table(d.live_dfs(codes), k)

    def complete_infix(
        self,
        fragment: str,
        collection: str = "default",
        field: str | None = None,
        k: int = 5,
    ) -> pa.Table:
        """Infix autocompletion — the AnalyzingInfixSuggester analogue
        (suggest module): live-vocabulary terms CONTAINING ``fragment``
        anywhere (lowercased, analyzer parity), ranked (df desc, term
        asc), top ``k`` — completing the suggest trio with
        :meth:`complete` (prefix) and :meth:`suggest` (fuzzy spell).
        An infix match cannot narrow the sorted dictionary, so the scan
        is one Arrow substring kernel pass over the scope's term
        dictionary — vocabulary-bound, never corpus-bound; df is the
        exact alive df over the collection.  Returns (term, df)."""
        if k <= 0:
            raise ValueError("k must be positive")
        probe = fragment.lower().strip()
        if not probe:
            raise ValueError("fragment must be non-empty")
        coll = sanitize_collection(collection)
        field = self._vocab_field(field)
        d = self._dictionary(coll, field)
        hit = pc.match_substring(d.arrow_terms, probe)
        codes = np.flatnonzero(hit.to_numpy(zero_copy_only=False))
        return rank_completions_table(d.live_dfs(codes), k)

    def top_terms(
        self,
        field: str | None = None,
        k: int = 10,
        collection: str = "default",
    ) -> pa.Table:
        """Highest-document-frequency terms of a field — the Lucene
        misc-module HighFreqTerms analogue (DOCFREQ_ORDER): top ``k``
        live-vocabulary terms ranked (df desc, term asc), df the exact
        alive df over the collection.

        The scope dictionary's stored df is an UPPER bound of the alive
        df (and equals it when no member has deletes): terms are visited
        in (bound desc, term asc) order, in batches that double, and the
        visit stops as soon as the next bound is below the k-th exact df
        found so far — members with deletes decode only the visited
        terms.  Returns (term, df)."""
        if k <= 0:
            raise ValueError("k must be positive")
        coll = sanitize_collection(collection)
        field = self._vocab_field(field)
        d = self._dictionary(coll, field)
        order = np.lexsort((d.terms, -d.stored_df))
        exact: dict[str, int] = {}
        at, step, kth = 0, k, 0
        while at < order.size and d.stored_df[order[at]] >= kth:
            exact.update(d.live_dfs(order[at:at + step]))
            at, step = at + step, 2 * step
            best = heapq.nlargest(k, exact.values())
            kth = best[-1] if len(best) == k else 0
        return rank_completions_table(exact, k)

    def date_histogram(
        self,
        query: str,
        collection: str = "default",
        interval_us: int = 3_600_000_000,
    ) -> pa.Table:
        """Time-bucketed hit counts over ALL matching docs (the
        date_histogram aggregation of search UIs): bucket =
        floor(warc_ts / interval) · interval, counted over the collection
        scope.  Matching reuses the score-free :meth:`_match`;
        bucketing is one integer divide + unique count.  Returns
        (bucket_start_us, count) sorted by bucket."""
        if interval_us <= 0:
            raise ValueError("interval_us must be positive")
        coll = sanitize_collection(collection)
        clauses = parse_query(query, default_field=self.cfg.text_column)
        got = self._match(coll, clauses)
        ts = got[0].warc_ts[got[1]] if got is not None else np.empty(0, np.int64)
        buckets, counts = np.unique(
            ts // interval_us * interval_us, return_counts=True
        )
        return pa.table(
            {
                "bucket_start_us": pa.array(buckets, pa.int64()),
                "count": pa.array(counts, pa.int64()),
            }
        )

    SNIPPET_SCHEMA = pa.schema(
        [
            ("url", pa.string()),
            ("score", pa.float64()),
            ("start", pa.int64()),
            ("n_terms", pa.int64()),
            ("snippet", pa.string()),
        ]
    )

    def snippets(
        self,
        query: str,
        texts: pa.Table,
        k: int = 10,
        window: int = 8,
        collection: str = "default",
        hits: pa.Table | None = None,
    ) -> pa.Table:
        """Search-result highlighting: the top-k hits, each with its best
        ``window``-token snippet — the Lucene highlighter analogue adapted
        to an index that (like the reference: the text field is not stored,
        LuceneIndexBean.java) cannot read bodies back.  The caller supplies
        the hit documents' raw text (``texts``: url + text columns, fetched
        with predicate pushdown on the hit keys — k rows, never the corpus).

        Window selection runs over the ANALYZED stream (the shared tokenizer
        spec): the best start maximizes the count of DISTINCT scored query
        terms inside the window (BM25-scored terms: TERM clauses plus
        phrase/synonym constituents on the default field — the
        :func:`scored_term_keys` set); ties break on the earliest start.
        The snippet is the window's analyzed tokens joined by single spaces
        (the normalized form fingerprint/dedup already use), and ``start``
        is 1-based — both choices make the op exactly SQL-expressible.

        Output: (url, score, start, n_terms, snippet) in search rank order
        (score desc, url asc).

        ``hits``: optionally the result of ``search(query, limit=k,
        collection=…)`` when the caller already ran it (to fetch the hit
        bodies with predicate pushdown) — passing it back avoids paying the
        BM25 evaluation a second time."""
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if hits is None:
            hits = self.search(query, limit=k, collection=collection)
        if hits.num_rows == 0:
            return pa.table(
                {f.name: pa.array([], type=f.type) for f in self.SNIPPET_SCHEMA}
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
            zip(texts["url"].to_pylist(), texts[self.cfg.text_column].to_pylist())
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

    def explain(
        self, query: str, url: str, collection: str = "default",
        global_stats: dict[str, dict] | None = None,
        global_df: dict[tuple[str, str], int] | None = None,
        global_ttf: dict[tuple[str, str], int] | None = None,
    ) -> dict:
        """Score breakdown for one (query, document) pair — Lucene
        IndexSearcher.explain(Query, doc): per-clause df / tf / idf /
        contribution read off the one :meth:`_eval_boolean` pass that
        scores ``search()`` over the collection scope, so ``sum(clause
        weights) == search() score`` bit-for-bit when the doc matches.
        ``matched`` is False when the doc fails a MUST clause (or hits
        nothing); the per-clause rows still show what each clause saw, and
        a MUST_NOT row weighs 0.  Raises KeyError for a url not live in the
        collection.  ``global_stats``/``global_df``/``global_ttf``: injected
        corpus-global statistics — the sharded path (search_partial's
        contract), so a shard-local explain reports the same numbers the
        fleet-wide search used."""
        coll = sanitize_collection(collection)
        clauses = parse_query(query, default_field=self.cfg.text_column)
        si, local = self._live_doc(coll, collection, url)
        scope = self._scope(coll)
        doc = scope.offsets[si] + local
        n_docs, avgdl = self._stats(coll, global_stats)
        cache, df, ttf = self._phase1_df(clauses, [scope], global_df, global_ttf)
        parts: list = []
        scores, matched = self._eval_boolean(
            scope, clauses, cache, df, n_docs, avgdl, global_ttf=ttf,
            parts=parts,
        )
        ok = bool(matched[doc])
        return {
            "url": url,
            "docid": int(scope.docids(doc)),
            "collection": collection,
            "matched": ok,
            "score": float(scores[doc]) if ok else 0.0,
            "n_docs": int(n_docs),
            "clauses": [
                _explain_row(c, got, doc, df, n_docs)
                for c, got in zip(clauses, parts)
            ],
        }

    # ---- sharded-execution surface (pipelines/sharded.py) ------------
    def local_collection_stats(self) -> dict[str, dict]:
        """Alive-masked (n_docs, sum_dl per field) of THIS engine's loaded
        partitions — one shard's contribution to the global BM25 stats.
        Integer sums → exact, order-independent across shards."""
        out: dict[str, dict] = {}
        for coll, segs in self._segments.items():
            n = sum(s.n_alive for s in segs)
            sum_dl: dict[str, int] = {}
            for s in segs:
                for f, v in s.sum_dl_alive.items():
                    sum_dl[f] = sum_dl.get(f, 0) + v
            out[coll] = {"n_docs": n, "sum_dl": sum_dl}
        return out

    def local_term_dfs(
        self, coll: str, terms: list[tuple[str, str]]
    ) -> dict[tuple[str, str], int]:
        """Alive-masked df of each (field, term) within this engine's loaded
        partitions — one shard's contribution to the global df sum."""
        scope = self._scope(coll) if self._segments.get(coll) else None
        out: dict[tuple[str, str], int] = {}
        cache: dict = {}
        for field, term in terms:
            key = (field, term)
            if key not in out:
                out[key] = (
                    self._scope_df(scope, field, term, False, cache)[0]
                    if scope is not None
                    else 0
                )
        return out

    def local_df_table(self) -> bytes:
        """The alive df of every (collection, field, term) with df > 0
        within this engine's loaded partitions: the IPC bytes of one
        ``DF_TABLE_SCHEMA`` record batch, terms ascending within each
        (collection, field).  Read off each collection scope's term
        dictionaries, so it holds exactly the dfs :meth:`local_term_dfs`
        answers for any key (0 for a key it omits) — one shard's whole
        contribution to the global df sums."""
        colls, fields, terms, dfs = [], [], [], []
        for coll, segs in self._segments.items():
            if not segs:
                continue
            scope = self._scope(coll)
            for field in dict.fromkeys(
                f for s in segs for f in s.reader._field_ranges
            ):
                d = scope.dictionary(field)
                df = d.alive_df(np.arange(d.terms.size))
                live = df > 0
                n = int(live.sum())
                colls += [coll] * n
                fields += [field] * n
                terms += d.terms[live].tolist()
                dfs.append(df[live])
        return pa.RecordBatch.from_arrays(
            [
                pa.array(colls, pa.string()),
                pa.array(fields, pa.string()),
                pa.array(terms, pa.string()),
                pa.array(np.concatenate(dfs) if dfs else [], pa.int64()),
            ],
            schema=DF_TABLE_SCHEMA,
        ).serialize().to_pybytes()

    def local_term_ttfs(
        self, coll: str, terms: list[tuple[str, str]]
    ) -> dict[tuple[str, str], int]:
        """Alive-masked TOTAL term frequency of each (field, term) within
        this engine's loaded partitions — one shard's contribution to the
        global ttf sum (the df twin of :meth:`local_term_dfs`, gathered by
        sharded fleets running a ttf-hungry similarity)."""
        scope = self._scope(coll) if self._segments.get(coll) else None
        out: dict[tuple[str, str], int] = {}
        for field, term in terms:
            key = (field, term)
            if key in out:
                continue
            got = (
                self._decoded(scope, field, term) if scope is not None else None
            )
            out[key] = int(got[1].sum()) if got is not None else 0
        return out

    def search_partial(
        self,
        query: "str | tuple",
        collection: str = "default",
        limit: int | None = None,
        method: str = "taat",
        global_stats: dict[str, dict] | None = None,
        global_df: dict[tuple[str, str], int] | None = None,
        global_ttf: dict[tuple[str, str], int] | None = None,
        min_should_match: int = 0,
    ) -> pa.Table:
        """Shard-local top-k with INJECTED global statistics: scores are
        exact corpus-global BM25 even though only this shard's partitions are
        scanned.  ``global_stats``: {coll: {n_docs, sum_dl:{field:int}}}
        (summed over every shard); ``global_df``: {(field, term): df}.
        Results (score desc, url asc) truncated at ``limit`` merge exactly
        across shards: the comparator is a total order, so every doc in the
        global top-k is within its shard's top-k.

        ``query`` may be a pre-built clause tuple instead of a string —
        used by derived queries (sharded MoreLikeThis) whose terms are
        ALREADY analyzed index terms: re-parsing their whitespace join
        would be correct only while analyze() is idempotent on its own
        output, so the clauses travel structured instead."""
        limit = self._limit(limit)
        coll = sanitize_collection(collection)
        clauses = (
            query
            if isinstance(query, tuple)
            else parse_query(query, default_field=self.cfg.text_column)
        )
        return self._execute(
            clauses, coll, limit, method,
            stats_override=self._stats(coll, global_stats),
            df_override=global_df,
            min_should=min_should_match, ttf_override=global_ttf,
        )

    def _phase1_df(
        self,
        clauses: list[Clause],
        scopes: list[_Scope],
        df_override: dict[tuple[str, str], int] | None = None,
        ttf_override: dict[tuple[str, str], int] | None = None,
        decode: bool = True,
    ) -> tuple[dict, dict, dict]:
        """Phase 1 of every scored execution: (per-query decode cache,
        global df per scored (field, term) summed over ``scopes``, global
        TOTAL term frequency — gathered only when the engine's similarity
        needs it, else empty) — shared by search and the aux read ops.
        ``decode``: the executor decodes the query's term postings anyway
        (TAAT / pure-AND), so their df is the length of the scope's cached
        decode and a warm term costs no dictionary lookup; the block-max
        executors pass False and keep the dictionary df (no decode).
        ``ttf_override`` follows the ``df_override`` injection contract
        (sharded callers sum ttfs over shards)."""
        cache: dict = {}
        global_df: dict[tuple[str, str], int] = {}
        global_ttf: dict[tuple[str, str], int] = {}
        need_ttf = self.sim.needs_ttf
        if need_ttf and df_override is not None and ttf_override is None:
            # injected df without injected ttf would silently score every
            # lmdirichlet term 0 — the partial engine cannot gather global
            # ttf itself (it only sees its own partitions)
            raise ValueError(
                f"similarity {self.sim.name!r} needs corpus-global ttf: "
                "callers injecting global_df must inject global_ttf too "
                "(gather with local_term_ttfs per shard and sum)"
            )
        decoded = _decoded_term_keys(clauses) if decode else ()
        for key in scored_term_keys(clauses):
            if key in global_df:
                continue
            if df_override is not None:
                # df supplied globally; the executor decodes lazily
                global_df[key] = df_override.get(key, 0)
                if need_ttf:
                    global_ttf[key] = int((ttf_override or {}).get(key, 0))
                continue
            df = ttf = 0
            for scope in scopes:
                d, t = self._scope_df(scope, *key, key in decoded, cache)
                df += d
                ttf += t
            global_df[key] = df
            if need_ttf:
                global_ttf[key] = ttf
        return cache, global_df, global_ttf

    def _scope_df(
        self, scope: _Scope, field: str, term: str, decode: bool, cache: dict
    ) -> tuple[int, int]:
        """(alive df, ttf) of (field, term) over one scope.  Read off the
        scope's decoded postings — through the LRU, so a warm term costs no
        dictionary lookup — when the term is cached, when ``decode``, when a
        member has dead docs (the dictionary df counts them) or when the
        similarity needs ttf (the dictionary stores df only); otherwise the
        members' dictionary df, with no decode.  ttf is 0 unless needed."""
        need_ttf = self.sim.needs_ttf
        ck = (scope.key, field, term)
        if (
            decode or need_ttf or not scope.all_alive
            or ck in cache or ck in self._postings_cache
        ):
            got = self._term_postings(scope, field, term, cache)
            if got is None:
                return 0, 0
            return len(got[0]), int(got[1].sum()) if need_ttf else 0
        df = 0
        for seg in scope.segs:
            row = seg.reader.lookup(field, term)
            if row >= 0:
                df += seg.reader.df(row)
        return df, 0

    # ------------------------------------------------------------------
    def _execute(
        self,
        clauses: list[Clause],
        coll: str,
        limit: int,
        method: str,
        stats_override: tuple[int, dict[str, float]] | None = None,
        df_override: dict[tuple[str, str], int] | None = None,
        min_should: int = 0,
        ttf_override: dict[tuple[str, str], int] | None = None,
    ) -> pa.Table:
        """Top-``limit`` hits (url, score, docid) of ``clauses`` over one
        collection — the path behind :meth:`search` and
        :meth:`search_partial` (so behind every sharded actor).

        TAAT and the pure-AND intersection run ONCE per query over the
        collection's :class:`_Scope` (its live segments in one docid
        space): one accumulator, one k-th-score cut, one (score desc, url
        asc) sort and one table, however many partitions × generations the
        collection holds.  Every doc's float sum adds its clauses in query
        order, exactly as a per-segment pass would, so scores are
        bit-identical to scoring each segment and merging.  The aux read
        ops run the same scope through the same kernels (:meth:`_scored`,
        :meth:`_match`).  Only the block-max executors (``bmax``/``bmw``)
        still score segment by segment and merge on (score desc, url asc):
        they prune with each segment's stored per-block bounds and block
        layout, which do not concatenate.

        ``stats_override``/``df_override``/``ttf_override``: inject
        GLOBAL (n_docs, avgdl), per-(field, term) df — and, for ttf-hungry
        similarities, total term frequency — computed across ALL partitions:
        used by the sharded path (pipelines/sharded.py) where this engine
        holds only a partition subset but must score with corpus-global
        statistics."""
        segs = self._segments.get(coll, [])
        if not clauses or not segs:
            return RESULT_SCHEMA.empty_table()
        n_docs, avgdl = (
            stats_override if stats_override is not None else self._stats(coll)
        )
        if n_docs == 0:
            return RESULT_SCHEMA.empty_table()
        term_clauses = [c for c in clauses if isinstance(c, TermClause)]
        # block-max strategies handle unboosted pure-SHOULD term queries
        # only (anything with MUST or MUST_NOT falls back to TAAT, which
        # owns the boolean bookkeeping), and they store BM25-specific score
        # upper bounds, so a non-BM25 similarity always takes the exact paths
        unboosted = (
            all(getattr(c, "boost", 1.0) == 1.0 for c in clauses)
            and min_should == 0
        )
        block_max_ok = (
            unboosted
            and self.sim.name == "bm25"
            and len(term_clauses) == len(clauses)
            and all(c.occur == SHOULD for c in term_clauses)
        )
        threshold = self.cfg.bmax_auto_df_threshold
        if method == "auto" and not (block_max_ok and threshold <= n_docs):
            # auto routes big pure-SHOULD unboosted BM25 disjunctions (max
            # global df ≥ IndexConfig.bmax_auto_df_threshold) to block-max;
            # a df never exceeds n_docs, so below that the route is TAAT
            # before any df is gathered.  Exactness is not at stake — bmax
            # == taat is pinned (tests/test_build_search.py
            # test_bmax_equals_taat and the auto-routing twin) — only speed.
            method = "taat"
        block_max = block_max_ok and method in ("auto", "bmax", "bmw")

        # ---- phase 1: global df per scored term (TERM clauses + each
        # phrase's constituent terms — PhraseQuery idf sums per-term idfs)
        scope = self._scope(coll)
        cache, global_df, global_ttf = self._phase1_df(
            clauses, [scope], df_override, ttf_override, decode=not block_max
        )
        if method == "auto":
            max_df = max(global_df.get((c.field, c.term), 0) for c in term_clauses)
            block_max = max_df >= threshold
            method = "bmax" if block_max else "taat"

        # ---- phase 2: score + top-k
        if block_max:
            score_segment = (
                self._score_segment_bmw if method == "bmw"
                else self._score_segment_bmax
            )
            parts = [
                t for si, seg in enumerate(segs)
                if (
                    t := score_segment(
                        si, seg, term_clauses, global_df, n_docs, avgdl, limit
                    )
                ).num_rows
            ]
            if not parts:
                return RESULT_SCHEMA.empty_table()
            merged = pa.concat_tables(parts)
            # within a segment the per-segment docid tiebreak coincides with
            # url order (docids are url ranks), so segment-level truncation
            # stays consistent with this (score desc, url asc) merge
            order = np.lexsort(
                (
                    merged["url"].to_numpy(zero_copy_only=False),
                    -merged["score"].to_numpy(),
                )
            )[:limit]
            return merged.take(pa.array(order))
        if (
            len(clauses) > 1
            and unboosted
            and all(isinstance(c, TermClause) and c.occur == MUST for c in clauses)
            and method != "bmw"
        ):
            return self._score_segment_and(
                scope, term_clauses, cache, global_df, n_docs, avgdl, limit,
                global_ttf=global_ttf,
            )
        return self._score_segment_taat(
            scope, clauses, cache, global_df, n_docs, avgdl, limit,
            min_should=min_should, global_ttf=global_ttf,
        )

    # ------------------------------------------------------------------
    def _decoded(
        self, scope: _Scope, field: str, term: str
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Alive-filtered decoded postings of (field, term) over a scope →
        (sorted scope ids, tfs), or None when no member holds the term —
        via the cross-query LRU, ONE entry per (scope, term): a collection
        scope's entry holds the members' decodes concatenated, never
        alongside per-segment copies."""
        ck = (scope.key, field, term)
        hit = self._postings_cache.get(ck)
        if hit is not None:
            self._postings_cache.move_to_end(ck)
            return hit
        ids: list[np.ndarray] = []
        tfs: list[np.ndarray] = []
        for seg, off in zip(scope.segs, scope.offsets):
            r = seg.reader
            rw = r.lookup(field, term)
            if rw < 0:
                continue
            docids, tf = r.postings(rw)
            local = r.local_ids(docids)
            if not seg.all_alive:
                ok = seg.alive[local]
                tf, local = tf[ok], local[ok]
            ids.append(local + off if off else local)
            tfs.append(tf)
        if not ids:
            return None
        got = (
            (ids[0], tfs[0]) if len(ids) == 1
            else (np.concatenate(ids), np.concatenate(tfs))
        )
        self._postings_cache[ck] = got
        if len(self._postings_cache) > self._postings_cache_size:
            self._postings_cache.popitem(last=False)
        return got

    def _term_postings(self, scope: _Scope, field: str, term: str, cache: dict):
        """:meth:`_decoded` through the per-query cache (phase 1 fills it;
        no LRU traffic or eviction risk within one query)."""
        ck = (scope.key, field, term)
        if ck in cache:
            return cache[ck]
        got = cache[ck] = self._decoded(scope, field, term)
        return got

    def _scope_positional(
        self, scope: _Scope, c: "PhraseClause | SpanClause"
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Phrase / span matches over a scope → (scope ids asc, freqs), or
        None: each member's cached per-segment match shifted by its
        offset."""
        match = (
            self._span_postings if isinstance(c, SpanClause)
            else self._phrase_postings
        )
        if len(scope.segs) == 1:
            return match(scope.segs[0], c)
        ids: list[np.ndarray] = []
        freqs: list[np.ndarray] = []
        for seg, off in zip(scope.segs, scope.offsets):
            got = match(seg, c)
            if got is not None:
                ids.append(got[0] + off)
                freqs.append(got[1])
        if not ids:
            return None
        return np.concatenate(ids), np.concatenate(freqs)

    def _constant_mask(
        self, scope: _Scope, c: "RangeClause | MultiTermClause"
    ) -> np.ndarray:
        """bool[scope.n]: the live docs a range / prefix / wildcard / regexp
        / fuzzy clause matches — per member, one bulk docid decode (no tfs)
        of its dictionary rows: a range's own ``term_range``, a multi-term
        clause's scope expansion mapped to the member's rows."""
        m = np.zeros(scope.n, dtype=bool)
        if isinstance(c, RangeClause):
            parts = [
                s.reader.term_range(c.field, c.lo, c.hi, c.lo_inc, c.hi_inc)
                for s in scope.segs
            ]
        else:
            codes = self._expand_rows(scope, c)
            parts = [rows for _, rows in scope.dictionary(c.field).member_rows(codes)]
        for seg, off, rows in zip(scope.segs, scope.offsets, parts):
            r = seg.reader
            local = r.local_ids(r.docids_many(rows))
            if not seg.all_alive:
                local = local[seg.alive[local]]
            m[local + off if off else local] = True
        return m

    # ---- phrase + multi-term machinery (Q8/Q9/Q10/Q14) -----------------
    def _phrase_postings(
        self, seg: _LiveSegment, c: PhraseClause
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Phrase match over one segment → (local docids, phrase freqs),
        alive-filtered; None when no doc matches.

        Slop 0 (Q8), fully vectorized: each term's occurrences become
        sorted composite keys ``docid << 32 | position``; a phrase start
        survives iff ``key + offsets[i]`` exists in term i's key set for
        every i (offsets carry the query-side stop-word gaps — StopFilter
        position-increment parity) — K-1 sorted membership passes
        (searchsorted), then a run-length count per doc gives the phrase
        frequency (Lucene sloppyFreq at slop 0, where every match weighs 1).

        Slop > 0 (Q14) delegates to :func:`_sloppy_phrase_weights` — the
        min-move-distance-per-anchor contract (queryparse module
        docstring); freqs are then float64 sums of 1/(1+d).
        """
        from lucene_plugin_ray.functions.queryparse import phrase_offsets

        offs = phrase_offsets(c)
        r = seg.reader
        ck = (r.path, c.field, c.terms, c.slop, offs)
        sentinel = object()
        hit = self._postings_cache.get(ck, sentinel)
        if hit is not sentinel:
            self._postings_cache.move_to_end(ck)
            return hit
        key_arrays: list[np.ndarray] = []
        result: tuple[np.ndarray, np.ndarray] | None = None
        for t in c.terms:
            row = r.lookup(c.field, t)
            if row < 0:
                break
            docids, tfs = r.postings(row)
            local = r.local_ids(docids)
            pos = r.positions(row, tfs)  # aligned with repeat(docids, tfs)
            key_arrays.append(
                (np.repeat(local, tfs.astype(np.int64)) << 32) | pos
            )
        else:
            if c.slop > 0:
                got = _sloppy_phrase_weights(key_arrays, c.slop, c.terms, offs)
                if got is not None:
                    u_docs, pf = got
                    if not seg.all_alive:
                        ok = seg.alive[u_docs]
                        u_docs, pf = u_docs[ok], pf[ok]
                    if u_docs.size:
                        result = (u_docs, pf)
                self._postings_cache[ck] = result
                if len(self._postings_cache) > self._postings_cache_size:
                    self._postings_cache.popitem(last=False)
                return result
            surv = key_arrays[0]
            for i in range(1, len(key_arrays)):
                surv = surv[_in_sorted(surv + offs[i], key_arrays[i])]
                if surv.size == 0:
                    break
            if surv.size:
                docs = surv >> 32
                starts = np.flatnonzero(
                    np.concatenate(([True], docs[1:] != docs[:-1]))
                )
                u_docs = docs[starts]
                pf = np.diff(np.concatenate([starts, [docs.size]])).astype(
                    np.int64
                )
                if not seg.all_alive:
                    ok = seg.alive[u_docs]
                    u_docs, pf = u_docs[ok], pf[ok]
                if u_docs.size:
                    result = (u_docs, pf)
        self._postings_cache[ck] = result
        if len(self._postings_cache) > self._postings_cache_size:
            self._postings_cache.popitem(last=False)
        return result

    def _span_postings(
        self, seg: _LiveSegment, c: SpanClause
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Span match over one segment → (local docids asc, float64 span
        freqs), alive-filtered; None when no doc matches.  The SpanClause
        contract (queryparse.py) over the same composite position keys
        ``docid << 32 | position`` the phrase path uses; results land in
        the postings LRU like every positional decode.

        * ``near`` ordered: K−1 ``searchsorted(side='right')`` passes chase
          the greedy strictly-increasing completion of every anchor at
          once; a cross-doc or missing completion lands ≥ 2³² away and
          fails ``width ≤ slop`` automatically (slop is ≤ 2³¹−1 by
          validation).  ``near`` unordered delegates to
          :func:`_sloppy_phrase_weights` with zero offsets and
          ``width_shift = K−1`` (span width excludes the unit subspans).
        * ``first``: position mask ``pos + 1 ≤ end``.
        * ``not``: one merged sorted exclude-key array, two searchsorted
          passes bound the window ``[p − pre, p + post]`` per include
          occurrence (clamped at the doc's own key base so a small
          position never reaches into the previous doc's key space).

        Everything is per-segment-postings-bound and fully vectorized —
        no per-anchor Python on any path a query can reach."""
        r = seg.reader
        ck = (
            r.path, "span", c.field, c.kind, c.terms, c.slop, c.in_order,
            c.end, c.exclude, c.pre, c.post,
        )
        sentinel = object()
        hit = self._postings_cache.get(ck, sentinel)
        if hit is not sentinel:
            self._postings_cache.move_to_end(ck)
            return hit

        def _keys_for(term: str) -> np.ndarray | None:
            row = r.lookup(c.field, term)
            if row < 0:
                return None
            docids, tfs = r.postings(row)
            local = r.local_ids(docids)
            pos = r.positions(row, tfs)
            return (np.repeat(local, tfs.astype(np.int64)) << 32) | pos

        result: tuple[np.ndarray, np.ndarray] | None = None
        key_arrays: list[np.ndarray] = []
        for t in c.terms:
            ka = _keys_for(t)
            if ka is None:
                break
            key_arrays.append(ka)
        else:
            k = len(key_arrays)
            if c.kind == "near" and not c.in_order:
                got = _sloppy_phrase_weights(
                    key_arrays, c.slop, c.terms, (0,) * k, width_shift=k - 1
                )
                if got is not None:
                    u_docs, pf = got
                    if not seg.all_alive:
                        ok = seg.alive[u_docs]
                        u_docs, pf = u_docs[ok], pf[ok]
                    if u_docs.size:
                        result = (u_docs, pf)
                self._postings_cache[ck] = result
                if len(self._postings_cache) > self._postings_cache_size:
                    self._postings_cache.popitem(last=False)
                return result
            anchors = key_arrays[0]
            if c.kind == "near":
                cur = anchors
                for i in range(1, k):
                    ai = key_arrays[i]
                    idx = np.searchsorted(ai, cur, side="right")
                    cur = np.where(
                        idx < ai.size,
                        ai[np.minimum(idx, ai.size - 1)],
                        _SLOPPY_BIG,
                    )
                width = cur - anchors - (k - 1)
                okm = width <= c.slop
                weights = 1.0 / (1.0 + width[okm].astype(np.float64))
            elif c.kind == "first":
                pos = anchors & np.int64(0xFFFFFFFF)
                okm = pos + 1 <= c.end
                weights = np.ones(int(okm.sum()), dtype=np.float64)
            else:  # 'not'
                ex_parts = [
                    ka for t in c.exclude
                    if (ka := _keys_for(t)) is not None
                ]
                if ex_parts:
                    ex = np.sort(np.concatenate(ex_parts))
                    doc_base = (anchors >> 32) << 32
                    lo = np.maximum(anchors - c.pre, doc_base)
                    hi = anchors + c.post
                    bad = (
                        np.searchsorted(ex, hi, side="right")
                        > np.searchsorted(ex, lo, side="left")
                    )
                    okm = ~bad
                else:
                    okm = np.ones(anchors.size, dtype=bool)
                weights = np.ones(int(okm.sum()), dtype=np.float64)
            keys_ok = anchors[okm]
            if keys_ok.size:
                docs = keys_ok >> 32
                starts = np.flatnonzero(
                    np.concatenate(([True], docs[1:] != docs[:-1]))
                )
                u_docs = docs[starts]
                pf = np.add.reduceat(weights, starts)
                if not seg.all_alive:
                    ok = seg.alive[u_docs]
                    u_docs, pf = u_docs[ok], pf[ok]
                if u_docs.size:
                    result = (u_docs, pf)
        self._postings_cache[ck] = result
        if len(self._postings_cache) > self._postings_cache_size:
            self._postings_cache.popitem(last=False)
        return result

    def _expand_rows(self, scope: _Scope, c: MultiTermClause) -> np.ndarray:
        """Union codes (ascending, into ``scope.dictionary(c.field).terms``)
        of the terms a prefix/wildcard/regexp/fuzzy clause matches (Q9/Q10
        term expansion over the sorted vocabulary; ≙ Lucene MultiTermQuery
        term enumeration).  The clause is matched once per scope over the
        scope's term dictionary, never once per member, and cached per
        (scope, clause) in the postings LRU.  Prefix is two binary
        searches; wildcard/regexp keep the terms of their literal-prefix
        range that fullmatch the pattern (one RE2 pass, anchored, DOTALL —
        Lucene RegexpQuery matches the WHOLE term); fuzzy queries the
        dictionary's fuzzy screen, built on the field's first fuzzy use.
        Callers map the codes to member rows
        (:meth:`_TermDictionary.member_rows`) and decode each member's
        docids in one bulk pass (``SegmentReader.docids_many``)."""
        ck = (scope.key, c.field, c.kind, c.pattern, c.max_edits)
        hit = self._postings_cache.get(ck)
        if hit is not None:
            self._postings_cache.move_to_end(ck)
            return hit
        d = scope.dictionary(c.field)
        if c.kind == "fuzzy":
            codes = d.screen.match(c.pattern, c.max_edits)[0]
        else:
            if c.kind == "wildcard":
                import re as _re

                lit = _re.split(r"[*?]", c.pattern, maxsplit=1)[0]
                rx_src = "".join(
                    ".*" if ch == "*" else "." if ch == "?" else _re.escape(ch)
                    for ch in c.pattern
                )
            elif c.kind == "regexp":
                # a leading-literal regexp narrows to a prefix range; a
                # metachar-first (or top-level-alternation) pattern scans
                # the whole dictionary
                lit, rx_src = _regexp_literal_prefix(c.pattern), c.pattern
            else:  # prefix
                lit, rx_src = c.pattern, None
            a, b = prefix_range(d.terms, lit)
            codes = np.arange(a, b, dtype=np.int64)
            if rx_src is not None and codes.size:
                keep = regexp_fullmatch(d.arrow_terms.slice(a, b - a), rx_src)
                codes = codes[keep.to_numpy(zero_copy_only=False)]
        self._postings_cache[ck] = codes
        if len(self._postings_cache) > self._postings_cache_size:
            self._postings_cache.popitem(last=False)
        return codes

    # ------------------------------------------------------------------
    def _score_segment_taat(
        self,
        scope: _Scope,
        clauses: list[Clause],
        cache: dict,
        global_df: dict,
        n_docs: int,
        avgdl: dict[str, float],
        limit: int,
        min_should: int = 0,
        global_ttf: dict | None = None,
    ) -> pa.Table:
        """TAAT top-k over one scope: :meth:`_eval_boolean`, then the
        bounded selection and (score desc, url asc) sort of
        :func:`_top_hits`."""
        scores, matched = self._eval_boolean(
            scope, clauses, cache, global_df, n_docs, avgdl,
            min_should=min_should, global_ttf=global_ttf,
        )
        cand = np.flatnonzero(matched)
        if cand.size == 0:
            return RESULT_SCHEMA.empty_table()
        return _top_hits(scope, cand, scores[cand], limit)

    def _eval_boolean(
        self,
        scope: _Scope,
        clauses: list[Clause],
        cache: dict,
        global_df: dict | None = None,
        n_docs: int = 0,
        avgdl: dict[str, float] | None = None,
        min_should: int = 0,
        global_ttf: dict | None = None,
        parts: list | None = None,
    ) -> tuple[np.ndarray | None, np.ndarray]:
        """One boolean level over a scope → (dense scores float64[scope.n],
        matched bool[scope.n]) under Lucene BooleanQuery semantics — the
        one code that combines clauses, behind search, every aux read op,
        ``count`` and ``explain``.  Each clause is :meth:`_eval_clause`;
        a doc matches when it matches every MUST clause (else at least one
        SHOULD clause) and no MUST_NOT clause, which contributes no score.
        Per doc the clauses add in query order, so a collection scope gives
        the scores of scoring each segment alone bit for bit.
        ``min_should`` is BooleanQuery.setMinimumNumberShouldMatch: a doc
        must additionally match at least that many SHOULD clauses (fewer
        SHOULD clauses than ``min_should`` ⇒ the level matches nothing,
        Lucene parity).  ``global_ttf``: corpus-global total term frequency
        per scored (field, term) — required by ttf-hungry similarities
        (lmdirichlet), empty otherwise.

        Score-free mode (``global_df`` None — count, facets, filters and
        MUST_NOT clauses): scores are None and no statistics are read.
        ``parts``, when given, receives each clause's :meth:`_eval_clause`
        result in query order (MUST_NOT ones score-free) — ``explain``
        reads its doc's row from them."""
        n = scope.n
        scored = global_df is not None
        scores = np.zeros(n, dtype=np.float64) if scored else None
        musts = [c.occur for c in clauses].count(MUST)
        must_cnt = np.zeros(n, dtype=np.int16) if musts else None
        # a non-positive similarity (lmdirichlet clamps at 0) can leave a
        # MATCHING doc at score 0.0, and score-free mode has no scores, so
        # then the pure-SHOULD match set is tracked explicitly instead of
        # inferred from score > 0
        explicit = not musts and not (scored and self.sim.positive)
        should_cnt = (
            np.zeros(n, dtype=np.int16) if min_should > 0 or explicit else None
        )
        prohibited = []
        for c in clauses:
            negated = c.occur == MUST_NOT
            got = self._eval_clause(
                scope, c, cache, None if negated else global_df,
                n_docs, avgdl, global_ttf,
            )
            if parts is not None:
                parts.append(got)
            if got is None:
                continue
            ids, contrib, _ = got
            if negated:
                prohibited.append(ids)
                continue
            if scored:
                scores[ids] += contrib
            if c.occur == MUST:
                must_cnt[ids] += 1
            elif should_cnt is not None:
                should_cnt[ids] += 1
        if musts:
            matched = must_cnt == musts
        elif explicit:
            # Lucene returns a clamped doc at 0.0, exactly like its
            # LMDirichlet TopDocs
            matched = should_cnt > 0
        else:
            matched = scores > 0.0
        if min_should > 0:
            matched &= should_cnt >= min_should
        for ids in prohibited:
            matched[ids] = False
        return scores, matched

    def _eval_clause(
        self,
        scope: _Scope,
        c: Clause,
        cache: dict,
        global_df: dict | None,
        n_docs: int,
        avgdl: dict[str, float] | None,
        global_ttf: dict | None,
    ) -> "tuple[np.ndarray, np.ndarray | float | None, np.ndarray | None] | None":
        """One clause over a scope → (sorted scope ids it matches, their
        score contributions — None in score-free mode, a scalar for a
        constant-score clause — and the frequency the similarity saw: tf
        for a term or synonym group, phrase / span freq for a positional
        clause, else None), or None when it can match nothing.  Live docs
        only; a field no member holds matches nothing.  ``global_df`` None
        is :meth:`_eval_boolean`'s score-free mode."""
        scored = global_df is not None
        if isinstance(c, GroupClause):
            # a matching group contributes its inner sum × boost
            g_scores, g_match = self._eval_boolean(
                scope, list(c.clauses), cache, global_df, n_docs, avgdl,
                global_ttf=global_ttf,
            )
            ids = np.flatnonzero(g_match)
            if not scored:
                return ids, None, None
            s = g_scores[ids]
            return ids, s * c.boost if c.boost != 1.0 else s, None
        if isinstance(c, DisMaxClause):
            # DisjunctionMaxQuery: per-doc max over the legs (term clauses,
            # their occur ignored) plus tie · (sum of the other matching
            # legs); matches when any leg matches
            best = np.zeros(scope.n, dtype=np.float64) if scored else None
            total = np.zeros(scope.n, dtype=np.float64) if scored else None
            anym = np.zeros(scope.n, dtype=bool)
            for leg in c.clauses:
                got = self._eval_clause(
                    scope, leg, cache, global_df, n_docs, avgdl, global_ttf
                )
                if got is None:
                    continue
                ids, s, _ = got
                anym[ids] = True
                if scored:
                    total[ids] += s
                    # posting-list docids are unique → plain indexed max
                    best[ids] = np.maximum(best[ids], s)
            ids = np.flatnonzero(anym)
            if not scored:
                return ids, None, None
            d = best[ids] + c.tie * (total[ids] - best[ids])
            return ids, d * c.boost if c.boost != 1.0 else d, None
        if isinstance(c, MatchAllClause):
            # *:* — constant score boost × 1.0 on every live doc
            ids = (
                np.arange(scope.n, dtype=np.int64) if scope.all_alive
                else np.flatnonzero(scope.alive)
            )
            return ids, c.boost if scored else None, None
        if isinstance(c, (RangeClause, MultiTermClause)):
            # constant-score expansion clauses: Q3 range over the sorted
            # dictionary, Q9/Q10 prefix/wildcard/regexp/fuzzy expansion —
            # the contribution IS the boost (Lucene 5.x CONSTANT_SCORE
            # rewrite; 1.0 unboosted)
            ids = np.flatnonzero(self._constant_mask(scope, c))
            return ids, c.boost if scored else None, None
        dl = scope.doc_len.get(c.field)
        if dl is None:
            return None
        sim = self.sim
        gttf = global_ttf or {}
        avg = avgdl.get(c.field, 1.0) if scored else 0.0
        if isinstance(c, TermClause):
            got = self._term_postings(scope, c.field, c.term, cache)
            if got is None:
                return None
            ids, tfs = got
            if not scored:
                return ids, None, tfs
            df = global_df[(c.field, c.term)]
            if df == 0:
                return None
            s = sim.scorer(df, gttf.get((c.field, c.term), 0), n_docs, avg)(
                tfs, dl[ids]
            )
        elif isinstance(c, SynonymClause):
            # Lucene SynonymQuery: the group scores as ONE pseudo-term —
            # per-doc tf = Σ member tfs, idf from the MAX member df
            agg = np.zeros(scope.n, dtype=np.float64)
            seen = np.zeros(scope.n, dtype=bool)
            for t in c.terms:
                got = self._term_postings(scope, c.field, t, cache)
                if got is not None:
                    agg[got[0]] += got[1]
                    seen[got[0]] = True
            ids = np.flatnonzero(seen)
            tfs = agg[ids]
            if not scored:
                return ids, None, tfs
            max_df = max((global_df.get((c.field, t), 0) for t in c.terms), default=0)
            if max_df == 0 or ids.size == 0:
                return None
            # pseudo-term statistics: df = max member df (idf blend), ttf =
            # Σ member ttfs (lmdirichlet's collection probability over the
            # whole synonym set)
            syn_ttf = sum(gttf.get((c.field, t), 0) for t in c.terms)
            s = sim.scorer(max_df, syn_ttf, n_docs, avg)(tfs, dl[ids])
        else:
            # Q8: the similarity over the phrase (or span) frequency as a
            # pseudo-term — constituent-term weights aggregate per the
            # similarity's phrase contract (BM25/classic sum idfs, Lucene
            # PhraseWeight parity; lmdirichlet sums ttfs), GLOBAL dfs so
            # sharded scores are exact; exclude terms of a span_not never
            # contribute (SpanWeight parity)
            assert isinstance(c, (PhraseClause, SpanClause))
            got = self._scope_positional(scope, c)
            if got is None:
                return None
            ids, tfs = got
            if not scored:
                return ids, None, tfs
            s = sim.phrase_scorer(
                [global_df.get((c.field, t), 0) for t in c.terms],
                sum(gttf.get((c.field, t), 0) for t in c.terms), n_docs, avg,
            )(tfs, dl[ids])
        return ids, s * c.boost if c.boost != 1.0 else s, tfs

    # ------------------------------------------------------------------
    def _score_segment_and(
        self,
        scope: _Scope,
        clauses: list[TermClause],
        cache: dict,
        global_df: dict,
        n_docs: int,
        avgdl: dict[str, float],
        limit: int,
        global_ttf: dict | None = None,
    ) -> pa.Table:
        """Pure-AND path over one scope: sorted posting-list intersection
        (J2), rarest term first, galloping via searchsorted — no dense
        accumulator.  Scores add in clause order, so they equal TAAT with
        all-MUST bit for bit (tested); faster when the intersection is
        selective.  Similarity-generic: scores come from the engine's
        ``sim`` like the TAAT path."""
        lists = []
        for c in clauses:
            got = self._term_postings(scope, c.field, c.term, cache)
            if got is None or len(got[0]) == 0:
                # a MUST term absent from the scope → no hits
                return RESULT_SCHEMA.empty_table()
            lists.append(got)
        by_len = sorted(lists, key=lambda x: len(x[0]))
        cand = by_len[0][0]
        for local, _tf in by_len[1:]:
            pos = np.searchsorted(local, cand)
            pos[pos >= local.size] = local.size - 1
            cand = cand[local[pos] == cand]
            if cand.size == 0:
                return RESULT_SCHEMA.empty_table()
        scores = np.zeros(cand.size, dtype=np.float64)
        gttf = global_ttf or {}
        for c, (local, tfs) in zip(clauses, lists):
            pos = np.searchsorted(local, cand)
            scores += self.sim.scorer(
                global_df[(c.field, c.term)], gttf.get((c.field, c.term), 0),
                n_docs, avgdl.get(c.field, 1.0),
            )(tfs[pos], scope.doc_len[c.field][cand])
        return _top_hits(scope, cand, scores, limit)

    # ------------------------------------------------------------------
    def _score_segment_bmax(
        self,
        si: int,
        seg: _LiveSegment,
        clauses: list[TermClause],
        global_df: dict,
        n_docs: int,
        avgdl: dict[str, float],
        limit: int,
    ) -> pa.Table:
        """Vectorized block-max best-first top-k (exact; pure-OR term
        queries).  The docid space is cut into intervals at the union of the
        query terms' posting-block boundaries; each interval's score upper
        bound is the sum of the overlapping blocks' max-tf bounds.  Intervals
        are processed in DESCENDING bound order, scoring each interval's
        docs with one vectorized pass, and processing stops at the first
        interval whose bound ≤ the running k-th score — every remaining
        interval is bounded lower, so the cut is exact.  Only blocks of
        surviving intervals are varint-decoded.

        Same pruning principle as document-at-a-time block-max WAND
        (``method='bmw'``), restructured for batch-vectorized execution.

        Measured trade-off (1.2M docs): on this corpus's FLAT score
        distribution (similar doc lengths/tfs) the dl→0 bounds rarely beat
        the k-th score, so little prunes and the per-interval loop loses to
        TAAT's single bulk pass (e.g. 1.5 s vs 0.1 s).  Block-max strategies
        win when score mass is skewed and k ≪ matches — keep ``taat`` as the
        default for analytics corpora and reach for ``bmax``/``bmw`` on
        heavy-tailed serving workloads.
        """
        r = seg.reader
        cfg = self.cfg
        k1, b = cfg.k1, cfg.b
        empty = RESULT_SCHEMA.empty_table()
        terms = []
        for c in clauses:
            row = r.lookup(c.field, c.term)
            if row < 0:
                continue
            df_g = global_df[(c.field, c.term)]
            if df_g == 0:
                continue
            bmeta = r.block_meta(row)
            w = idf(df_g, n_docs)
            # per-block upper bound (dl→0 lower bound in the denominator)
            mtf = bmeta["blk_maxtf"].astype(np.float64)
            ub = w * (mtf * (k1 + 1.0)) / (mtf + k1 * (1.0 - b))
            terms.append(
                {
                    "c": c, "row": row, "w": w, "bmeta": bmeta, "ub": ub,
                    "df": r.df(row), "dl": r.doc_len[c.field],
                    "avg": avgdl.get(c.field, 1.0),
                }
            )
        if not terms:
            return empty

        # interval grid: union of block-end docids (LOCAL ids)
        ends = np.unique(
            np.concatenate([t["bmeta"]["blk_maxdoc"] - r.doc_base for t in terms])
        )
        n_iv = ends.size
        bounds = np.zeros(n_iv, dtype=np.float64)
        blk_of = []
        for t in terms:
            bm = t["bmeta"]["blk_maxdoc"] - r.doc_base
            idx = np.searchsorted(bm, ends, side="left")
            valid = idx < bm.size
            contrib = np.zeros(n_iv, dtype=np.float64)
            contrib[valid] = t["ub"][idx[valid]]
            bounds += contrib
            blk_of.append((idx, valid))

        order = np.argsort(-bounds, kind="stable")
        top_local = np.empty(0, np.int64)
        top_scores = np.empty(0, np.float64)
        theta = -np.inf
        decoded: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        # Early-exit comparator: with b>0 the dl→0 block bound is STRICTLY
        # unattainable, so `bound <= theta` cannot drop a doc tied at the
        # k-th score.  With a user-configured b == 0 the bound IS attainable
        # — use strict `<` so tied docs in boundary intervals still get
        # scored (keep-all-ties parity with taat).
        attainable = b == 0.0
        for iv in order:
            if top_local.size >= limit and (
                bounds[iv] < theta or (not attainable and bounds[iv] <= theta)
            ):
                break  # every remaining interval is bounded lower — exact cut
            lo = ends[iv - 1] if iv > 0 else -1  # interval is (lo, ends[iv]]
            hi = ends[iv]
            cand_parts = []
            for ti, t in enumerate(terms):
                idx, valid = blk_of[ti]
                if not valid[iv]:
                    continue
                bidx = int(idx[iv])
                key = (ti, bidx)
                got = decoded.get(key)
                if got is None:
                    d_abs, tfs_b = decode_block_abs(
                        r.buf,
                        t["bmeta"]["blk_doff"],
                        t["bmeta"]["blk_toff"],
                        t["bmeta"]["blk_maxdoc"],
                        bidx,
                        t["df"],
                        int(r._doff_end[t["row"]]),
                        int(r._toff_end[t["row"]]),
                        block_size=cfg.block_size,
                    )
                    got = (d_abs - r.doc_base, tfs_b)
                    decoded[key] = got
                d_loc, tfs_b = got
                s0 = np.searchsorted(d_loc, lo, side="right")
                s1 = np.searchsorted(d_loc, hi, side="right")
                if s0 == s1:
                    continue
                d_sel = d_loc[s0:s1]
                tf_sel = tfs_b[s0:s1].astype(np.float64)
                sc = t["w"] * (tf_sel * (k1 + 1.0)) / (
                    tf_sel + k1 * (1.0 - b + b * t["dl"][d_sel] / t["avg"])
                )
                cand_parts.append((d_sel, sc))
            if not cand_parts:
                continue
            docs = np.concatenate([d for d, _ in cand_parts])
            scs = np.concatenate([s for _, s in cand_parts])
            o = np.argsort(docs, kind="stable")
            docs, scs = docs[o], scs[o]
            starts = np.flatnonzero(np.concatenate(([True], docs[1:] != docs[:-1])))
            u_docs = docs[starts]
            u_scores = np.add.reduceat(scs, starts)
            if not seg.all_alive:
                ok = seg.alive[u_docs]
                u_docs, u_scores = u_docs[ok], u_scores[ok]
            # merge into running top-k
            top_local = np.concatenate([top_local, u_docs])
            top_scores = np.concatenate([top_scores, u_scores])
            if top_local.size > limit:
                kth = np.partition(top_scores, top_scores.size - limit)[
                    top_scores.size - limit
                ]
                keep = top_scores >= kth
                top_local, top_scores = top_local[keep], top_scores[keep]
            if top_local.size >= limit:
                theta = top_scores.min()
        if top_local.size == 0:
            return empty
        order2 = np.lexsort((top_local, -top_scores))[:limit]
        sel = top_local[order2]
        return pa.table(
            {
                "url": pa.array(r.urls[sel], type=pa.string()),
                "score": pa.array(top_scores[order2], type=pa.float64()),
                "docid": pa.array(r.doc_base + sel, type=pa.int64()),
            }
        )

    # ------------------------------------------------------------------
    def _score_segment_bmw(
        self,
        si: int,
        seg: _LiveSegment,
        clauses: list[TermClause],
        global_df: dict,
        n_docs: int,
        avgdl: dict[str, float],
        limit: int,
    ) -> pa.Table:
        """Block-max WAND over one segment (pure-OR term queries).

        Classic two-level pruning (Broder et al. WAND; Ding & Suel BMW):
        term-level upper bounds order cursor advancement; before scoring a
        pivot candidate, the per-block max-tf bound refines the estimate and
        whole blocks are skipped via searchsorted on blk_maxdoc.
        """
        r = seg.reader
        cfg = self.cfg
        k1, b = cfg.k1, cfg.b

        class Cur:
            __slots__ = (
                "field", "doc", "i", "blk", "docids", "tfs", "bmeta", "df",
                "w", "ub", "dl", "row", "nblocks",
            )

        cursors: list[Cur] = []
        for c in clauses:
            row = r.lookup(c.field, c.term)
            if row < 0:
                continue
            df_g = global_df[(c.field, c.term)]
            if df_g == 0:
                continue
            cur = Cur()
            cur.field = c.field
            cur.row = row
            cur.df = r.df(row)
            cur.w = idf(df_g, n_docs)
            cur.bmeta = r.block_meta(row)
            cur.nblocks = len(cur.bmeta["blk_maxdoc"])
            cur.dl = r.doc_len[c.field]
            # term-level upper bound: tf→max over blocks, dl→0 lower bound
            mtf = float(cur.bmeta["blk_maxtf"].max())
            cur.ub = cur.w * (mtf * (k1 + 1.0)) / (mtf + k1 * (1.0 - b))
            cur.blk = -1
            cur.docids = cur.tfs = None
            cur.i = 0
            cur.doc = -1
            self._bmw_load_block(r, cur, 0)
            cursors.append(cur)
        if not cursors:
            return RESULT_SCHEMA.empty_table()

        heap: list[tuple[float, int]] = []  # (score, -local) min-heap on score
        theta = 0.0

        def score_doc(doc: int) -> float:
            s = 0.0
            for cur in cursors:
                if cur.doc == doc:
                    tf = float(cur.tfs[cur.i])
                    dl = float(cur.dl[doc])
                    f = cur.field
                    s += cur.w * (tf * (k1 + 1.0)) / (
                        tf + k1 * (1.0 - b + b * dl / avgdl.get(f, 1.0))
                    )
            return s

        INF = 1 << 62
        alive = seg.alive
        while True:
            cursors.sort(key=lambda c: c.doc if c.doc >= 0 else INF)
            if cursors[0].doc < 0:
                break
            # pivot: first cursor where cumulative term UB beats the threshold
            # (when the heap isn't full every doc is a candidate → pivot = 0)
            pivot_idx = -1
            if len(heap) < limit:
                pivot_idx = 0
            else:
                acc = 0.0
                for i, cur in enumerate(cursors):
                    if cur.doc < 0:
                        break
                    acc += cur.ub
                    if acc > theta:
                        pivot_idx = i
                        break
            if pivot_idx < 0 or cursors[pivot_idx].doc < 0:
                break
            pivot_doc = cursors[pivot_idx].doc

            if cursors[0].doc != pivot_doc:
                # align leading cursors onto the pivot
                for cur in cursors[: pivot_idx + 1]:
                    if 0 <= cur.doc < pivot_doc:
                        self._bmw_advance(r, cur, pivot_doc)
                continue

            # aligned at pivot — block-max refinement before scoring
            if len(heap) >= limit:
                block_acc = 0.0
                for cur in cursors:
                    if cur.doc != pivot_doc:
                        break
                    bidx = cur.blk  # aligned ⇒ current block contains pivot
                    mtf = float(cur.bmeta["blk_maxtf"][bidx])
                    block_acc += cur.w * (mtf * (k1 + 1.0)) / (
                        mtf + k1 * (1.0 - b)
                    )
                if block_acc <= theta:
                    for cur in cursors:
                        if cur.doc == pivot_doc:
                            self._bmw_advance(r, cur, pivot_doc + 1)
                    continue

            if alive[pivot_doc]:
                s = score_doc(pivot_doc)
                if len(heap) < limit:
                    heapq.heappush(heap, (s, -pivot_doc))
                elif (s, -pivot_doc) > heap[0]:
                    heapq.heapreplace(heap, (s, -pivot_doc))
                if len(heap) >= limit:
                    theta = heap[0][0]
            for cur in cursors:
                if cur.doc == pivot_doc:
                    self._bmw_advance(r, cur, pivot_doc + 1)

        out = sorted(((s, -nd) for s, nd in heap), key=lambda x: (-x[0], x[1]))
        locs = np.array([d for _, d in out], dtype=np.int64)
        return pa.table(
            {
                "url": pa.array(r.urls[locs] if locs.size else [], type=pa.string()),
                "score": pa.array([s for s, _ in out], type=pa.float64()),
                "docid": pa.array(r.doc_base + locs, type=pa.int64()),
            }
        )

    def _bmw_load_block(self, r: SegmentReader, cur, bidx: int) -> None:
        if bidx >= cur.nblocks:
            cur.doc = -1
            return
        cur.blk = bidx
        cur.docids, cur.tfs = decode_block_abs(
            r.buf,
            cur.bmeta["blk_doff"],
            cur.bmeta["blk_toff"],
            cur.bmeta["blk_maxdoc"],
            bidx,
            cur.df,
            int(r._doff_end[cur.row]),
            int(r._toff_end[cur.row]),
            block_size=self.cfg.block_size,
        )
        cur.docids = r.local_ids(cur.docids)
        cur.i = 0
        cur.doc = int(cur.docids[0])

    def _bmw_advance(self, r: SegmentReader, cur, target: int) -> None:
        """Advance cursor to the first docid >= target (block skip via
        blk_maxdoc searchsorted, then in-block searchsorted)."""
        if cur.doc < 0:
            return
        tgt_abs = target + r.doc_base
        bidx = int(np.searchsorted(cur.bmeta["blk_maxdoc"], tgt_abs, side="left"))
        if bidx >= cur.nblocks:
            cur.doc = -1
            return
        if bidx != cur.blk:
            self._bmw_load_block(r, cur, bidx)
        i = int(np.searchsorted(cur.docids, target, side="left"))
        if i >= len(cur.docids):
            self._bmw_load_block(r, cur, cur.blk + 1)
            return
        cur.i = i
        cur.doc = int(cur.docids[i])


class QueryExecutor:
    """Actor-pool batch query stage (SURVEY.md T2):

        queries_ds.map_batches(QueryExecutor, fn_constructor_args=(root,),
                               concurrency=N, batch_size=B,
                               batch_format="pyarrow")

    ``__init__`` loads the engine ONCE per actor (mmap of term dicts +
    postings — the 'searcher lease'); ``__call__`` answers a batch of query
    rows (qid, collection, query, k) → (qid, rank, url, score) rows.
    """

    def __init__(self, index_root: str, generation: int | None = None,
                 cfg: IndexConfig | None = None, method: str = "taat",
                 partitions: "set[int] | None" = None):
        """``partitions``: pin this actor to a partition subset (requires the
        caller to merge per-shard results and inject global stats — prefer
        pipelines/sharded.py::sharded_search, which does both)."""
        self.engine = SearchEngine(
            index_root, generation=generation, cfg=cfg, partitions=partitions
        )
        self.method = method

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids, ranks, urls, scores = [], [], [], []
        colls = (
            batch["collection"].to_pylist()
            if "collection" in batch.column_names
            else ["default"] * batch.num_rows
        )
        ks = (
            batch["k"].to_pylist()
            if "k" in batch.column_names
            else [None] * batch.num_rows
        )
        for qid, coll, q, k in zip(
            batch["qid"].to_pylist(), colls, batch["query"].to_pylist(), ks
        ):
            res = self.engine.search(q, collection=coll, limit=k, method=self.method)
            for rank, (u, s) in enumerate(
                zip(res["url"].to_pylist(), res["score"].to_pylist())
            ):
                qids.append(qid)
                ranks.append(rank)
                urls.append(u)
                scores.append(s)
        return pa.table(
            {
                "qid": pa.array(qids, type=pa.int64()),
                "rank": pa.array(ranks, type=pa.int32()),
                "url": pa.array(urls, type=pa.string()),
                "score": pa.array(scores, type=pa.float64()),
            }
        )
