"""Query grammar Q1–Q7 (SURVEY.md §2.8) — the conformance subset of Lucene's
classic QueryParser (the reference delegates to it with default field "text"
and StandardAnalyzer, LuceneIndexBean.java:727-735).

Supported (the forms exercised by the reference's own tests/clients):
  Q1  single term                      ``lamb``, ``Lorem``
  Q2  field-scoped term                ``data:lamb``, ``count:32``
  Q3  term range (string-lexicographic)``age:[23 TO 23]``
  Q4  implicit multi-term (default OR) ``mary lamb``
  Q5  explicit AND / required terms    ``a AND b``, ``+a +b``
  Q7  query-side analysis              same analyzer as index side

Extended QueryParser forms the reference ALSO accepts (it hands the raw
string to Lucene's classic QueryParser, LuceneIndexBean.java:727-735, so
every classic-grammar query works against the reference even though no
reference test exercises these):
  Q8  phrase                 ``"mary lamb"``, ``text:"quick fox"`` — exact
      adjacency over the analyzed token stream (slop 0); scored BM25 with
      phrase frequency and summed per-term idf (Lucene PhraseQuery under
      BM25Similarity).  Positions are PRE-stop-filter on both sides
      (StopFilter enablePositionIncrements, on by default in 5.2.1): a
      removed stop word leaves a hole in the doc stream, and a stop word
      inside the phrase text leaves a gap in the query offsets — so
      ``"over lazy"`` does NOT match ``over the lazy`` at slop 0 while
      ``"over the lazy"`` (terms (over, lazy), offsets (0, 2)) does.
  Q14 proximity (slop)       ``"mary lamb"~2`` — sloppy phrase: terms may be
      up to ``slop`` total moves out of adjacent order (a transposition
      costs 2, Lucene SloppyPhraseQuery's move metric).  CONTRACT (the
      documented deviation from Lucene's greedy match enumeration): for
      each occurrence p₀ of the FIRST term, d(p₀) is the MINIMAL range
      max(pᵢ−offᵢ)−min(pᵢ−offᵢ) (offᵢ = term i's query position, with
      stop-word gaps) over choices of one occurrence per remaining
      term (actual positions pairwise distinct); the doc's sloppy phrase
      frequency is Σ over anchors with d ≤ slop of 1/(1+d) (Lucene's
      sloppyFreq weight), scored BM25 with summed per-term idf exactly
      like Q8.  At slop 0 this reduces bit-for-bit to the Q8 semantics.
      ``"a b"~`` (no number) parses as slop 0 and ``~2.5`` floors to 2 —
      classic-QueryParser parity.
  Q15 regexp                 ``/s[pt].*k/``, ``field:/ab+c/`` — dictionary-
      expanded constant-score like Q9 (Lucene RegexpQuery under the
      CONSTANT_SCORE rewrite); the whole term must match (RegexpQuery is
      always anchored).  Pattern lowercased (lowercaseExpandedTerms
      parity) and evaluated as an anchored RE2 match over the term
      dictionary (one Arrow kernel call) — the shared operator subset
      (literals, ``.``, ``[...]``, ``?*+``, ``{n,m}``, ``|``, ``()``,
      backslash escapes of ASCII punctuation) behaves identically in
      Lucene's RegExp, RE2 and Python ``re`` (the oracle).  Lucene's
      automaton-only operators (``~`` complement, ``&`` intersection, ``@``
      any-string, ``#`` empty, ``<n-m>`` intervals), the Python/RE2-only
      ``(?…)`` groups, ``{,n}`` and POSIX ``[:alpha:]`` classes, and any
      pattern RE2 cannot compile are REJECTED loudly rather than silently
      diverging.
  Q9  prefix / wildcard      ``te*``, ``t?st*`` — term-expanded over the
      dictionary; constant-score 1.0 (Lucene 5.2.1 MultiTermQuery
      CONSTANT_SCORE rewrite).  Leading wildcards rejected
      (allowLeadingWildcard=false default — parity)
  Q10 fuzzy                  ``term~``, ``term~1`` — Damerau-Levenshtein
      distance <= maxEdits (default 2, >2 rejected like FuzzyQuery);
      the classic-QP float-similarity form ``term~0.8`` converts via
      FuzzyQuery.floatToEdits ((int) min((1−sim)·|term|, 2)), and a
      fractional value >= 1 is rejected ("Fractional edit distances are
      not allowed", QueryParserBase 5.2.1); constant-score 1.0.  Two
      documented deviations from Lucene 5.2.1:
      FuzzyQuery's TopTermsBlendedFreqScoringRewrite blends scores (we use
      the constant-score rewrite, same as our range queries), and the
      distance is TRUE Damerau-Levenshtein (matching DuckDB's
      damerau_levenshtein, the conformance oracle) not Lucene's
      transposition automaton.

Still unsupported and rejected loudly (SURVEY.md §2.8): leading wildcards
(allowLeadingWildcard=false parity).  Parenthesized groups (Q13,
``(a b) AND c`` / ``-(x y)`` / ``field:(a b)`` / ``(a b)^2``) are nested
BooleanQueries: a group matches per its inner semantics and contributes
the sum of its matching inner clauses, times its boost.  Boost (Q12, ``term^2`` /
``"a b"^1.5`` / ``field:[x TO y]^3``) multiplies the clause's score
(constant-score clauses contribute the boost itself — Lucene semantics);
boost must be > 0 (a 0-boost SHOULD clause would match with score 0, which
the score-driven SHOULD candidate set cannot represent — rejected loudly
instead of silently diverging).

Scoring semantics encoded in the AST (shared by engine and oracle):
* TERM clauses score BM25; PHRASE clauses score BM25 on phrase frequency;
* RANGE / PREFIX / WILDCARD / FUZZY clauses are constant-score 1.0 (Lucene
  5.2.1 MultiTermQuery CONSTANT_SCORE rewrite — hits score the boost, not
  BM25);
* a document matches iff it matches ALL MUST clauses, or (when there are no
  MUST clauses) at least one SHOULD clause; every matching clause contributes
  to the score (Lucene BooleanQuery semantics);
* MUST_NOT clauses (``-term`` / ``NOT term`` / ``a AND NOT b``) EXCLUDE their
  matches and never contribute score; a query with only prohibited clauses
  matches nothing (Lucene BooleanQuery with no positive clause).
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.compute as pc

from lucene_plugin_ray.functions.analysis import analyze, analyze_with_positions

DEFAULT_FIELD = "text"

MUST = "MUST"
SHOULD = "SHOULD"
MUST_NOT = "MUST_NOT"

_FORBIDDEN = re.compile(r"[\"]")
_FIELD_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*):(.*)$", re.S)
_QUOTED_RE = re.compile(r'"([^"]*)"')
_FUZZY_RE = re.compile(r"^(.+?)~(\d+(?:\.\d+)?)?$", re.S)
_PLACEHOLDER = "\x00ph%d\x00"
# optional trailing ~slop (Q14): bare ~ = slop 0, fractional slops floor —
# classic QueryParser parity (QueryParserBase#getFieldQuery(field, text, slop))
_PLACEHOLDER_RE = re.compile(r"^\x00ph(\d+)\x00(?:~(\d+(?:\.\d+)?)?)?$")
_GROUP_PLACEHOLDER = "\x00gr%d\x00"
_GROUP_RE = re.compile(r"^\x00gr(\d+)\x00$")
_REGEXP_PLACEHOLDER = "\x00rx%d\x00"
_REGEXP_RE = re.compile(r"^\x00rx(\d+)\x00$")
# a /.../ regexp literal is ONE lexer token (Lucene QueryParserTokenManager
# does the same), so its body may contain (), |, ^, whitespace … without
# fighting the boolean-group/boost/tokenize passes
_REGEXP_LIT_RE = re.compile(r"/(?:\\.|[^/\\])*/")
_SLOP_MAX = (1 << 31) - 1  # < the 2^32 docid band; larger slop is vacuous


class QueryParseError(ValueError):
    """Raised for syntax outside the Q1–Q7 conformance subset."""


@dataclass(frozen=True)
class TermClause:
    occur: str
    field: str
    term: str
    boost: float = 1.0


@dataclass(frozen=True)
class RangeClause:
    """Q3 — string-lexicographic term range.  ``lo``/``hi`` of ``None`` are
    open endpoints (classic QP ``[* TO b]`` / ``[a TO *]``); ``lo_inc`` /
    ``hi_inc`` distinguish inclusive ``[``/``]`` from exclusive ``{``/``}``
    brackets (mixed forms like ``[a TO b}`` allowed — QP grammar parity)."""

    occur: str
    field: str
    lo: str | None
    hi: str | None
    boost: float = 1.0
    lo_inc: bool = True
    hi_inc: bool = True


@dataclass(frozen=True)
class PhraseClause:
    """Q8/Q14 — phrase over the analyzed stream.  ``slop`` 0 is exact
    adjacency; ``slop`` > 0 is the proximity contract in the module
    docstring (min-move distance per first-term anchor, sloppy freq
    Σ 1/(1+d)).

    ``offsets``: per-term query positions, normalized so offsets[0] == 0 —
    Lucene QueryParser keeps the analyzer's position increments, so a stop
    word INSIDE the phrase text leaves a gap (``"over the lazy"`` →
    terms (over, lazy), offsets (0, 2)) and exact matching requires doc
    positions ``q + offsets[i]``.  The empty default means consecutive
    (0, 1, …, k−1); :func:`phrase_offsets` resolves it."""

    occur: str
    field: str
    terms: tuple[str, ...]
    boost: float = 1.0
    slop: int = 0
    offsets: tuple[int, ...] = ()


def phrase_offsets(c: "PhraseClause") -> tuple[int, ...]:
    """The clause's effective per-term positions: explicit ``offsets`` when
    the parser recorded gaps, else consecutive 0..k−1."""
    return c.offsets if c.offsets else tuple(range(len(c.terms)))


@dataclass(frozen=True)
class MultiTermClause:
    """Q9/Q10 — dictionary-expanded constant-score clause.

    ``kind``: 'prefix' (pattern = literal prefix), 'wildcard' (pattern with
    * / ? intact, lowercased), 'fuzzy' (pattern = base term, ``max_edits``
    the Damerau-Levenshtein bound) or 'regexp' (pattern = anchored regex
    body without the slashes, lowercased — Q15)."""

    occur: str
    field: str
    kind: str
    pattern: str
    max_edits: int = 0
    boost: float = 1.0


@dataclass(frozen=True)
class SynonymClause:
    """Lucene SynonymQuery: a group of terms scored as ONE pseudo-term —
    per-doc tf is the SUM of member tfs, idf uses the MAX member df
    (org.apache.lucene.search.SynonymQuery under BM25Similarity).  Built
    programmatically from a synonym map (Lucene wires it from the analyzer
    graph, not query text): see SearchEngine.search(synonyms=...)."""

    occur: str
    field: str
    terms: tuple[str, ...]
    boost: float = 1.0


@dataclass(frozen=True)
class DisMaxClause:
    """Lucene DisjunctionMaxQuery: the clause matches when ANY leg matches,
    and scores ``max(leg scores) + tie · (Σ others)`` × boost — the
    multi-field retrieval primitive behind Solr's (e)dismax handler.  Legs
    are leaf clauses (their ``occur`` is ignored; the DisMax's own ``occur``
    drives the boolean level).  Built programmatically from a field→weight
    map (Lucene builds it in code too, not query text): see
    SearchEngine.search(fields=..., tie_breaker=...)."""

    occur: str
    clauses: tuple
    tie: float = 0.0
    boost: float = 1.0


@dataclass(frozen=True)
class MatchAllClause:
    """``*:*`` — Lucene MatchAllDocsQuery (classic QueryParser special-cases
    the field-``*`` term-``*`` token, QueryParserBase#getWildcardQuery):
    matches every live document, constant score 1.0 × boost.  Composes with
    the boolean level like any constant-score clause: ``*:* AND lang:de``
    filters, ``-x *:*`` is the match-everything-except idiom, and a pure
    ``-*:*`` matches nothing (no positive clause)."""

    occur: str
    boost: float = 1.0


@dataclass(frozen=True)
class GroupClause:
    """Parenthesized boolean group — a nested BooleanQuery (classic
    QueryParser grouping): ``(a b) AND c``, ``-(x y)``, ``(a b)^2``,
    ``field:(a b)`` (field distributes to the inner clauses).  The group
    matches per its inner semantics (all inner MUSTs, else any inner
    SHOULD, never an inner MUST_NOT); a matching group contributes the sum
    of its matching inner clauses' scores, times ``boost``."""

    occur: str
    clauses: tuple
    boost: float = 1.0


@dataclass(frozen=True)
class SpanClause:
    """Lucene span-query family (org.apache.lucene.queries.spans) over
    unit-length term subspans — programmatic-only, exactly like Lucene's:
    the classic QueryParser cannot express spans, so these clauses are
    built by :meth:`SearchEngine.span_near` / ``span_first`` / ``span_not``
    rather than parsed from a query string.  Positions are the index's
    PRE-stop-filter token ranks (StopFilter enablePositionIncrements
    parity, :func:`analysis.analyze_with_positions`).

    ``kind``:

    * ``near`` (SpanNearQuery): ``terms`` (≥ 2) within ``slop`` total
      positions of each other.  ``in_order=True`` (NearSpansOrdered over
      term spans) anchors on each occurrence p₀ of ``terms[0]`` and
      greedily takes the SMALLEST strictly-increasing completion
      p₀ < p₁ < … < p_{k−1} (each pᵢ the next occurrence of term i after
      p_{i−1}); the anchor matches iff width = p_{k−1} − p₀ − (k−1) ≤
      ``slop``.  ``in_order=False`` (NearSpansUnordered, DISTINCT terms
      only): per anchor the minimal window containing one occurrence of
      every term, width = max(p) − min(p) − (k−1) ≤ ``slop``.  Each
      matching anchor weighs ``1/(1+width)`` (SpanScorer's slop factor —
      the sloppy-phrase weight); the doc frequency is the weight sum.
    * ``first`` (SpanFirstQuery): occurrences of ``terms[0]`` whose span
      end (position + 1) is ≤ ``end`` — i.e. within the first ``end``
      positions of the field.  Each match weighs 1.
    * ``not`` (SpanNotQuery): occurrences p of ``terms[0]`` with NO
      occurrence of any ``exclude`` term in ``[p − pre, p + post]``
      (Lucene's pre/post-expanded overlap test specialized to unit
      spans).  Each surviving match weighs 1.

    Scoring: the span is a pseudo-term exactly like PhraseClause —
    frequency = the per-doc weight sum, statistics aggregate over the
    constituent ``terms`` per the similarity's phrase contract (BM25 and
    classic sum per-term idfs — SpanWeight.buildSimWeight collects all
    term statistics; lmdirichlet sums ttfs).  ``exclude`` terms never
    contribute statistics (SpanNotQuery scores the include side only)."""

    occur: str
    field: str
    kind: str                      # 'near' | 'first' | 'not'
    terms: tuple[str, ...]
    slop: int = 0
    in_order: bool = True
    end: int = 0
    exclude: tuple[str, ...] = ()
    pre: int = 0
    post: int = 0
    boost: float = 1.0


Clause = (
    TermClause | RangeClause | PhraseClause | MultiTermClause
    | SynonymClause | GroupClause | DisMaxClause | MatchAllClause
    | SpanClause
)


def regexp_fullmatch(terms: pa.Array, src: str) -> pa.Array:
    """Boolean mask of the ``terms`` that regexp ``src`` matches WHOLE
    (anchored, DOTALL — Lucene RegexpQuery semantics), evaluated by RE2 in
    one Arrow kernel call."""
    return pc.match_substring_regex(terms, f"^(?s:{src})$")


def _regexp_dialect_error(pat: str) -> str | None:
    """Why ``pat`` would mean something else to Lucene RegExp, RE2 or
    Python ``re`` (the oracle), or None when the three agree on it."""
    i, n = 0, len(pat)
    class_body = -1  # index where the open [...] class's body starts
    while i < n:
        ch = pat[i]
        if ch == "\\":
            # '\<alnum>' is a Perl class or backref in Python/RE2 but a
            # literal in Lucene (and lowercasing would turn \D into \d);
            # RE2 also rejects escapes of non-ASCII characters
            if i + 1 == n or pat[i + 1] not in string.punctuation:
                return ("backslash may only escape ASCII punctuation (Perl "
                        "classes like \\d/\\D diverge from Lucene RegExp "
                        "semantics)")
            i += 2
            continue
        if ch in "~&@#<>":
            # Lucene-RegExp automaton operators we do not implement
            return ("only literals, '.', '[...]', '?*+', '{n,m}', '|', '()' "
                    "and backslash escapes of punctuation are supported, not "
                    f"the Lucene-RegExp operator {ch!r}")
        if class_body >= 0:
            if ch == "]" and i > class_body:
                class_body = -1
            elif ch == "[" and pat[i + 1:i + 2] == ":":
                return "POSIX classes like [:alpha:] are not Lucene RegExp"
        elif ch == "[":
            # a ']' right after '[' or '[^' is a literal member
            class_body = i + 1 + (pat[i + 1:i + 2] == "^")
        elif pat.startswith("(?", i):
            return "'(?...)' groups are Python/RE2 extensions"
        elif pat.startswith("{,", i):
            return "a repeat needs its lower bound ('{0,n}', not '{,n}')"
        i += 1
    return None


def scored_term_keys(clauses) -> list[tuple[str, str]]:
    """(field, term) pairs that need GLOBAL df for BM25 scoring: TERM
    clauses plus each phrase's constituent terms (PhraseQuery idf is the sum
    of per-term idfs).  Constant-score clauses (range/prefix/wildcard/fuzzy)
    contribute none — shared by the local engine's phase 1 and the sharded
    path's df gather (pipelines/sharded.py)."""
    keys: list[tuple[str, str]] = []
    for c in clauses:
        if isinstance(c, TermClause):
            keys.append((c.field, c.term))
        elif isinstance(c, (PhraseClause, SynonymClause, SpanClause)):
            # SpanClause: include terms only — SpanNotQuery's exclude side
            # is a mask, never a statistics contributor
            keys.extend((c.field, t) for t in c.terms)
        elif isinstance(c, (GroupClause, DisMaxClause)):
            keys.extend(scored_term_keys(c.clauses))
    return keys


def parse_query(query: str, default_field: str = DEFAULT_FIELD) -> list[Clause]:
    """Parse a query string into analyzed clauses (LRU-cached — ≙ T3, the
    reference's 1024-entry parsed-query cache, LuceneIndexBean.java:104,
    380-396; safe because clauses are frozen dataclasses).

    Returns [] when every term analyzes away (pure stop-word query → 0 hits,
    FIXTURES.md §5 'stopword').
    """
    return list(_parse_query_cached(query, default_field))


from functools import lru_cache


@lru_cache(maxsize=1024)
def _parse_query_cached(query: str, default_field: str) -> tuple[Clause, ...]:
    if query is None or not query.strip():
        raise QueryParseError("empty query")
    if query.count('"') % 2:
        raise QueryParseError(f"unbalanced quotes in {query!r}")
    # lift quoted phrases out before whitespace handling (Q8)
    phrases: list[str] = []

    def _stash(m: re.Match) -> str:
        phrases.append(m.group(1))
        return _PLACEHOLDER % (len(phrases) - 1)

    query = _QUOTED_RE.sub(_stash, query)
    # lift /regexp/ literals out too (Q15) — they are single lexer tokens
    # whose bodies may contain parens/pipes/carets
    regexps: list[str] = []

    def _stash_rx(m: re.Match) -> str:
        regexps.append(m.group(0))
        return _REGEXP_PLACEHOLDER % (len(regexps) - 1)

    query = _REGEXP_LIT_RE.sub(_stash_rx, query)
    if _FORBIDDEN.search(query):
        raise QueryParseError(f"unsupported query syntax: {query!r}")
    return _parse_level(query, default_field, phrases, regexps)


def _parse_level(
    query: str, default_field: str, phrases: list[str],
    regexps: list[str],
) -> tuple[Clause, ...]:
    """One boolean level: stash this level's top-level parenthesized groups
    (Q13), tokenize, resolve connectives, build clauses; group placeholders
    recurse (phrase placeholders are stashed ONCE at the top, so the shared
    ``phrases`` list threads through every level)."""
    if not query.strip():
        raise QueryParseError("empty group '()'")
    groups: list[str] = []
    if "(" in query or ")" in query:
        out_chars: list[str] = []
        depth = 0
        start = 0
        for i, ch in enumerate(query):
            if ch == "(":
                if depth == 0:
                    start = i
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth < 0:
                    raise QueryParseError(f"unbalanced ')' in {query!r}")
                if depth == 0:
                    groups.append(query[start + 1 : i])
                    out_chars.append(_GROUP_PLACEHOLDER % (len(groups) - 1))
            elif depth == 0:
                out_chars.append(ch)
        if depth != 0:
            raise QueryParseError(f"unbalanced '(' in {query!r}")
        query = "".join(out_chars)

    # re-join bracketed ranges that whitespace-splitting broke apart
    # (inclusive [a TO b] and exclusive {a TO b} brackets both count)
    raw = query.split()
    toks: list[str] = []
    i = 0
    while i < len(raw):
        t = raw[i]
        if ("[" in t or "{" in t) and not ("]" in t or "}" in t):
            j = i
            merged = t
            while not ("]" in merged or "}" in merged):
                j += 1
                if j >= len(raw):
                    raise QueryParseError(f"unterminated range in {query!r}")
                merged += " " + raw[j]
            toks.append(merged)
            i = j + 1
        else:
            toks.append(t)
            i += 1

    # AND/OR connective pass: AND promotes both neighbours to MUST
    occurs: list[str | None] = []
    items: list[str] = []
    for t in toks:
        if t == "AND":
            if not items:
                raise QueryParseError("AND with no left operand")
            if occurs[-1] != MUST_NOT:  # AND never un-prohibits (NOT wins)
                occurs[-1] = MUST
            occurs.append(MUST)  # placeholder for the next item
        elif t == "OR":
            if not items:
                raise QueryParseError("OR with no left operand")
            occurs.append(None)
        elif t == "NOT":
            # "NOT b" / "a AND NOT b" / "a OR NOT b" all prohibit b
            # (classic QueryParser: NOT overrides the connective occur)
            if len(occurs) == len(items):
                occurs.append(MUST_NOT)
            else:
                occurs[-1] = MUST_NOT
        else:
            if len(occurs) == len(items):
                occurs.append(None)
            items.append(t)
    if len(items) != len(occurs):
        raise QueryParseError(f"dangling connective in {query!r}")

    clauses: list[Clause] = []
    for occ_override, item in zip(occurs, items):
        occur = SHOULD
        if item.startswith("-"):
            occur = MUST_NOT
            item = item[1:]
            if not item or item[0] in "+-":
                raise QueryParseError(f"bare or doubled prohibit: {item!r}")
        elif item.startswith("+"):
            occur = MUST
            item = item[1:]
            if not item or item[0] in "+-":
                raise QueryParseError(f"bare or doubled operator: {item!r}")
        if occ_override == MUST and occur != MUST_NOT:
            occur = MUST
        elif occ_override == MUST_NOT:
            occur = MUST_NOT
        field = default_field
        m = _FIELD_RE.match(item)
        if m:
            field, item = m.group(1), m.group(2)
            if not item:
                raise QueryParseError(f"empty term for field {field!r}")
        # Q12 boost: trailing ^number multiplies the clause score
        boost = 1.0
        bmatch = re.search(r"\^(\d+(?:\.\d+)?)$", item)
        if bmatch:
            boost = float(bmatch.group(1))
            item = item[: bmatch.start()]
            if boost <= 0:
                raise QueryParseError("boost must be > 0")
            if not item:
                raise QueryParseError("bare boost")
        if "^" in item:
            raise QueryParseError(f"malformed boost in {item!r}")
        if item == "*:*" and m is None:
            # MatchAllDocsQuery — the one token where a leading '*' is legal
            # (classic QueryParser special case); must be checked BEFORE the
            # leading-wildcard rejection below.  Requires the literal token
            # (no explicit field prefix: 'text:*:*' stays a loud reject).
            clauses.append(MatchAllClause(occur, boost))
            continue
        gm = _GROUP_RE.match(item)
        if gm:
            # Q13 group: recurse on the inner string (field distributes as
            # the inner level's default field); an all-stopword group drops
            # the clause (Lucene null query)
            inner = _parse_level(
                groups[int(gm.group(1))], field, phrases, regexps
            )
            if inner:
                clauses.append(GroupClause(occur, tuple(inner), boost))
            continue
        pm = _PLACEHOLDER_RE.match(item)
        if pm:
            # Q8/Q14 phrase: analyzed like the index side; fully-stopworded
            # phrase drops the clause (Lucene: analyzer yields no tokens →
            # null query); single survivor degenerates to TermQuery (slop
            # is meaningless for one term — classic QP does the same)
            slop = int(float(pm.group(2))) if pm.group(2) else 0
            # clamp: no document has 2^31 positions, so this is a semantic
            # no-op — and it preserves the evaluator's invariant that the
            # composite-key docid band (2^32) exceeds any slop, which is
            # what makes cross-document floor/ceil neighbours fail d ≤ slop
            slop = min(slop, _SLOP_MAX)
            ptp = analyze_with_positions(phrases[int(pm.group(1))])
            if len(ptp) == 1:
                clauses.append(TermClause(occur, field, ptp[0][0], boost))
            elif ptp:
                # keep the analyzer's position increments: a stop word in
                # the phrase text leaves a gap the match must reproduce
                # (QueryParser enablePositionIncrements, on by default)
                p0 = ptp[0][1]
                clauses.append(
                    PhraseClause(
                        occur, field, tuple(t for t, _ in ptp), boost, slop,
                        tuple(p - p0 for _, p in ptp),
                    )
                )
            continue
        xm = _REGEXP_RE.match(item)
        if xm:
            item = regexps[int(xm.group(1))]  # → the '/.../' branch below
        if "\x00" in item:
            raise QueryParseError(
                f"phrase/group must be a whole clause: {item!r}"
            )
        rm = re.match(r"^([\[{])(.+)\s+TO\s+(.+)([\]}])$", item)
        if rm:
            # lowercaseExpandedTerms parity; '*' endpoints are open bounds
            lo_s, hi_s = rm.group(2).lower(), rm.group(3).lower()
            lo = None if lo_s == "*" else lo_s
            hi = None if hi_s == "*" else hi_s
            clauses.append(
                RangeClause(
                    occur, field, lo, hi, boost,
                    lo_inc=rm.group(1) == "[", hi_inc=rm.group(4) == "]",
                )
            )
            continue
        if len(item) >= 2 and item[0] == "/" and item[-1] == "/":
            # Q15 regexp: anchored term regex, lowercased
            # (lowercaseExpandedTerms parity), constant-score expansion
            raw_pat = item[1:-1]
            if not raw_pat:
                raise QueryParseError("empty regexp '//'")
            why = _regexp_dialect_error(raw_pat)
            if why is not None:
                raise QueryParseError(f"unsupported regexp {item!r}: {why}")
            # lowercase OUTSIDE escape sequences only (the escaped chars
            # are punctuation, but keep the fold escape-aware on principle)
            pat = re.sub(
                r"\\.|[^\\]",
                lambda m: m.group(0) if m.group(0).startswith("\\")
                else m.group(0).lower(),
                raw_pat,
            )
            try:
                re.compile(pat)
                regexp_fullmatch(pa.array([""], pa.string()), pat)
            except (re.error, pa.ArrowInvalid) as e:
                raise QueryParseError(f"invalid regexp {item!r}: {e}") from e
            clauses.append(
                MultiTermClause(occur, field, "regexp", pat, boost=boost)
            )
            continue
        if "*" in item or "?" in item:
            # Q9 prefix/wildcard: lowercased, NOT analyzed
            # (lowercaseExpandedTerms=true default)
            pat = item.lower()
            if pat[0] in "*?":
                raise QueryParseError(
                    f"leading wildcard not allowed: {item!r}"
                )  # allowLeadingWildcard=false parity
            if pat.endswith("*") and not re.search(r"[*?]", pat[:-1]):
                clauses.append(
                    MultiTermClause(occur, field, "prefix", pat[:-1], boost=boost)
                )
            else:
                clauses.append(
                    MultiTermClause(occur, field, "wildcard", pat, boost=boost)
                )
            continue
        fm = _FUZZY_RE.match(item) if "~" in item else None
        if fm:
            # Q10 fuzzy: lowercased base term, maxEdits in {0, 1, 2}
            base = fm.group(1).lower()
            if "~" in base:
                raise QueryParseError(f"unsupported query syntax: {item!r}")
            raw = fm.group(2)
            if raw is None:
                edits = 2
            else:
                f = float(raw)
                if f >= 1.0:
                    # classic QP: a value >= 1 IS the edit distance, and a
                    # fractional one is rejected (QueryParserBase 5.2.1:
                    # "Fractional edit distances are not allowed!")
                    if f != int(f):
                        raise QueryParseError(
                            f"fractional edit distances are not allowed: "
                            f"{item!r}"
                        )
                    edits = int(f)
                elif f == 0.0:
                    # floatToEdits: "0 means exact, not infinite # of edits"
                    edits = 0
                else:
                    # float similarity in (0, 1): FuzzyQuery.floatToEdits
                    # (int) min((1 - sim) · |term|, 2) — term~0.8 parity
                    edits = int(min((1.0 - f) * len(base), 2.0))
            if not 0 <= edits <= 2:
                raise QueryParseError(
                    f"fuzzy maxEdits must be 0..2: {item!r}"
                )  # FuzzyQuery maxEdits<=2 parity
            if edits == 0:
                for term in analyze(base):
                    clauses.append(TermClause(occur, field, term, boost))
            else:
                clauses.append(
                    MultiTermClause(
                        occur, field, "fuzzy", base, max_edits=edits, boost=boost
                    )
                )
            continue
        if "~" in item:
            raise QueryParseError(f"unsupported query syntax: {item!r}")
        terms = analyze(item)  # Q7: query-side analysis, same analyzer
        for term in terms:
            clauses.append(TermClause(occur, field, term, boost))
    return tuple(clauses)


def apply_synonyms(
    clauses: tuple, synonyms: dict[str, list[str]]
) -> tuple:
    """Rewrite TERM clauses whose term has synonyms into SynonymClause
    groups (the analyzed member set, probe term first, duplicates dropped,
    order-stable; clause boost carried over).  Map KEYS are analyzed like
    query terms (a key that analyzes to several tokens is skipped — single-
    token keys only, like Lucene's SynonymMap entries).  MUST_NOT terms
    rewrite too — prohibiting a synonym group prohibits any member match.
    GroupClauses rewrite recursively: '(spark) window' expands exactly like
    'spark window' (Lucene applies the synonym graph per analyzed term, not
    per boolean nesting level)."""
    by_term: dict[str, list[str]] = {}
    for k, v in synonyms.items():
        ktoks = analyze(k)
        if len(ktoks) == 1:
            by_term[ktoks[0]] = v
    return _apply_synonyms_level(clauses, by_term)


def _apply_synonyms_level(clauses: tuple, by_term: dict[str, list[str]]) -> tuple:
    out = []
    for c in clauses:
        if isinstance(c, TermClause) and c.term in by_term:
            members = [c.term]
            for s in by_term[c.term]:
                for t in analyze(s):
                    if t not in members:
                        members.append(t)
            if len(members) > 1:
                out.append(
                    SynonymClause(c.occur, c.field, tuple(members), c.boost)
                )
                continue
        elif isinstance(c, GroupClause):
            inner = _apply_synonyms_level(c.clauses, by_term)
            if inner != c.clauses:
                out.append(GroupClause(c.occur, inner, c.boost))
                continue
        out.append(c)
    return tuple(out)


def validate_dismax_fields(
    fields: dict[str, float], tie: float, known: set[str]
) -> None:
    """dismax argument validation shared by the local engine and the
    sharded path: known fields, positive weights, tie ∈ [0, 1] (Lucene
    DisjunctionMaxQuery's documented range)."""
    if not fields:
        raise ValueError("fields must be a non-empty {field: weight} map")
    for f, w in fields.items():
        if f not in known:
            raise ValueError(
                f"unknown dismax field {f!r} (indexed: {sorted(known)})"
            )
        if not (w > 0):
            raise ValueError(f"dismax weight for {f!r} must be > 0")
    if not (0.0 <= tie <= 1.0):
        raise ValueError("tie_breaker must be in [0, 1]")


def apply_fields(
    clauses: tuple,
    fields: dict[str, float],
    tie: float,
    default_field: str,
) -> tuple:
    """Multi-field (dismax) rewrite — Solr's dismax handler over the classic
    parse: every TERM clause on the DEFAULT field becomes a
    :class:`DisMaxClause` whose legs are per-field copies with the field
    weight as leg boost (the clause's own boost stays on the DisMax).
    Explicitly field-scoped clauses (``lang:de``) and non-term clauses
    (phrase/range/prefix/…) are untouched — term-only expansion, the dismax
    handler's core.  GroupClauses rewrite recursively.  A single-entry
    ``fields`` map still wraps (uniform scoring shape; with weight 1.0 the
    scores equal the plain query's)."""
    out = []
    for c in clauses:
        if isinstance(c, TermClause) and c.field == default_field:
            legs = tuple(
                TermClause(SHOULD, f, c.term, boost=w)
                for f, w in sorted(fields.items())
            )
            out.append(DisMaxClause(c.occur, legs, tie=tie, boost=c.boost))
        elif isinstance(c, GroupClause):
            out.append(
                GroupClause(
                    c.occur,
                    apply_fields(c.clauses, fields, tie, default_field),
                    c.boost,
                )
            )
        else:
            out.append(c)
    return tuple(out)
