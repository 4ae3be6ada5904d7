"""Analyzer — the single source of truth for tokenization (SURVEY.md §2.2 M4).

Re-expresses the reference's StandardAnalyzer behavior (Lucene 5.2.1
StandardAnalyzer constructed at LuceneIndexBean.java:666,730): word-break,
lowercase, the fixed 33-word English stop set, max token length 255.

The analyzer defines BOTH the term universe and per-doc token counts
(doc_len), so it must be bit-deterministic and shared verbatim by:
  * the index build (vectorized Arrow path, :func:`tokenize_column`),
  * query-side analysis (:func:`analyze`, ≙ LuceneIndexBean.java:730-734 —
    same analyzer for index and query, so ``Lorem`` matches ``lorem``),
  * the brute-force oracle (pipelines/oracle.py),
  * the DuckDB oracle SQL (__ray_entry__.oracle_sql — the SQL fragment in
    :data:`SQL_TOKENIZE_SPEC` implements the identical spec).

Tokenization spec (documented simplification of UAX#29, SURVEY.md §7.4
"Tokenizer fidelity"): tokens are maximal runs of ``[a-z0-9]`` over the
lowercased text; everything else is a separator.  This matches
StandardTokenizer exactly on plain alphanumeric English text (the whole
reference test corpus, TestSearch*.java) and diverges only on intra-word
punctuation (``can't``, ``3.14``) and non-Latin scripts, which the reference
tests never exercise.  The divergence is pinned by unit tests so any future
tightening is deliberate.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# Lucene's StopAnalyzer.ENGLISH_STOP_WORDS_SET — the 33-word default stop set
# used by StandardAnalyzer (the analyzer the reference constructs at
# LuceneIndexBean.java:666).
STOP_WORDS: frozenset[str] = frozenset(
    {
        "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "if",
        "in", "into", "is", "it", "no", "not", "of", "on", "or", "such",
        "that", "the", "their", "then", "there", "these", "they", "this",
        "to", "was", "will", "with",
    }
)

# StandardAnalyzer.DEFAULT_MAX_TOKEN_LENGTH
MAX_TOKEN_LENGTH = 255

# Separator pattern: anything that is not [a-z0-9] after lowercasing.
# Kept RE2-compatible so the IDENTICAL pattern runs in pyarrow.compute
# (split_pattern_regex), Python `re`, and DuckDB (string_split_regex).
TOKEN_SPLIT_PATTERN = "[^a-z0-9]+"
_SPLIT_RE = re.compile(TOKEN_SPLIT_PATTERN)

# The same spec as a DuckDB SQL fragment (used by __ray_entry__.oracle_sql):
#   unnest(string_split_regex(lower(text), '[^a-z0-9]+')) AS term
#   ... WHERE term <> '' AND length(term) <= 255 AND term NOT IN (STOP_WORDS)
SQL_STOPWORD_LIST = "(" + ", ".join(f"'{w}'" for w in sorted(STOP_WORDS)) + ")"
SQL_TOKENIZE_SPEC = (
    "unnest(string_split_regex(lower({col}), '[^a-z0-9]+')) AS term"
)

_STOP_ARRAY = pa.array(sorted(STOP_WORDS), type=pa.string())

# Characters the reference strips from collection names at every entry point
# (LuceneIndexBean.java:553-586; applied at 206,292,318,388,468,517).
_COLLECTION_STRIP = '+-!(){}[]^"~*?:\\'
_COLLECTION_TRANS = str.maketrans("", "", _COLLECTION_STRIP)


def sanitize_collection(name: str) -> str:
    """M5 collection-name sanitizer: strip Lucene query-special characters.

    ≙ LuceneIndexBean.escape() (LuceneIndexBean.java:553-586), which *removes*
    (not escapes) the characters ``+ - ! ( ) { } [ ] ^ " ~ * ? : \\``.
    """
    return name.translate(_COLLECTION_TRANS)


def analyze(text: str) -> list[str]:
    """Reference Python tokenizer: lowercase → split → drop empty/stop/long.

    Used by query parsing and the brute-force oracle.  MUST stay semantically
    identical to :func:`tokenize_column` (property-tested in
    tests/test_analysis.py).
    """
    out = []
    for tok in _SPLIT_RE.split(text.lower()):
        if tok and len(tok) <= MAX_TOKEN_LENGTH and tok not in STOP_WORDS:
            out.append(tok)
    return out


def analyze_with_positions(text: str) -> list[tuple[str, int]]:
    """:func:`analyze` plus each surviving token's PRE-stop-filter position.

    Position = the token's rank among the non-empty tokens of the stream,
    counting removed stop words and over-long (> 255) tokens — Lucene
    StopFilter's ``enablePositionIncrements`` (on by default since 4.4, and
    in the reference's 5.2.1): a dropped token leaves a positional HOLE, so
    the phrase ``"over lazy"`` does NOT match ``... over the lazy ...`` at
    slop 0 while ``"over the lazy"`` (query-side stop word making a gap of
    2) does.  One pinned divergence: Lucene splits a > maxTokenLength run
    into several tokens, each consuming a position; this analyzer drops the
    run as ONE position-consuming token (the test corpus has no 255+ char
    runs — tests/test_analysis.py pins the choice).
    """
    out = []
    pos = 0
    for tok in _SPLIT_RE.split(text.lower()):
        if not tok:
            continue
        if len(tok) <= MAX_TOKEN_LENGTH and tok not in STOP_WORDS:
            out.append((tok, pos))
        pos += 1
    return out


def _rank_within(parents: np.ndarray) -> np.ndarray:
    """Rank of each element within its run of equal ``parents`` values
    (non-decreasing input) — the per-document token position counter."""
    if parents.size == 0:
        return np.empty(0, np.int64)
    rs = np.flatnonzero(np.concatenate(([True], parents[1:] != parents[:-1])))
    counts = np.diff(np.concatenate([rs, [parents.size]]))
    return np.arange(parents.size, dtype=np.int64) - np.repeat(rs, counts)


def tokenize_column(
    texts: pa.Array | pa.ChunkedArray,
    with_positions: bool = False,
):
    """Vectorized Arrow tokenizer for one batch column.

    Returns ``(parent_index, terms, doc_len)`` where

    * ``parent_index``: int64 np.ndarray, row index (within the batch) of each
      surviving token, non-decreasing;
    * ``terms``: the surviving tokens as a pyarrow StringArray (same length);
    * ``doc_len``: int32 np.ndarray of per-row surviving-token counts (exact
      |D| for BM25, SURVEY.md §2.9 — NOT Lucene's lossy 1-byte norm).

    With ``with_positions=True`` a fourth int64 array is appended: each
    surviving token's PRE-stop-filter position (rank among the row's
    non-empty tokens, counting removed stop/over-long tokens — StopFilter
    ``enablePositionIncrements`` parity, see :func:`analyze_with_positions`).

    Null text ⇒ doc_len 0, no tokens (≙ M7 empty short-circuit,
    LuceneIndexBean.java:312-316).
    """
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n = len(texts)
    if n == 0:
        empty = (
            np.empty(0, np.int64),
            pa.array([], type=pa.string()),
            np.empty(0, np.int32),
        )
        return empty + (np.empty(0, np.int64),) if with_positions else empty
    lower = pc.utf8_lower(texts)
    split = pc.split_pattern_regex(lower, pattern=TOKEN_SPLIT_PATTERN)
    # flatten() drops nulls; compute parents from offsets (null → length 0).
    lengths = pc.list_value_length(split).to_numpy(zero_copy_only=False)
    lengths = np.nan_to_num(lengths, nan=0).astype(np.int64)
    parents = np.repeat(np.arange(n, dtype=np.int64), lengths)
    flat = pc.list_flatten(split)
    nonempty = pc.not_equal(flat, "")
    keep = pc.and_(
        pc.and_(
            nonempty,
            pc.less_equal(pc.utf8_length(flat), MAX_TOKEN_LENGTH),
        ),
        pc.invert(pc.is_in(flat, value_set=_STOP_ARRAY)),
    )
    keep_np = keep.to_numpy(zero_copy_only=False)
    terms = flat.filter(keep)
    if with_positions:
        ne_np = nonempty.to_numpy(zero_copy_only=False)
        pos_ne = _rank_within(parents[ne_np])
        positions = pos_ne[keep_np[ne_np]]
    parents = parents[keep_np]
    doc_len = np.bincount(parents, minlength=n).astype(np.int32)
    if with_positions:
        return parents, terms, doc_len, positions
    return parents, terms, doc_len


# ---------------------------------------------------------------------------
# ASCII fast path: buffer-direct tokenization + hashing
# ---------------------------------------------------------------------------

# byte LUTs: ASCII lowercase map and [a-z0-9] membership
_LOWER_LUT = np.arange(256, dtype=np.uint8)
_LOWER_LUT[ord("A") : ord("Z") + 1] += 32
_ALNUM_LUT = np.zeros(256, dtype=bool)
_ALNUM_LUT[ord("a") : ord("z") + 1] = True
_ALNUM_LUT[ord("0") : ord("9") + 1] = True

_FNV_OFFSET_U64 = np.uint64(0xCBF29CE484222325)
_FNV_PRIME_U64 = np.uint64(0x100000001B3)


def _mix64_np(h: np.ndarray) -> np.ndarray:
    z = h + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def hash_token_bytes(tok: bytes) -> int:
    """Scalar twin of the fast path's token hash (mixed FNV-1a over the
    lowercased token bytes)."""
    h = 0xCBF29CE484222325
    for b in tok:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    # splitmix64
    z = (h + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


_STOP_HASHES = np.array(sorted(hash_token_bytes(w.encode()) for w in STOP_WORDS),
                        dtype=np.uint64)


class HashedTokens:
    """Result of :func:`tokenize_column_hashed` — tokens as (parent, hash)
    pairs plus enough info to materialize the string of any token."""

    __slots__ = (
        "parents", "hashes", "starts", "lens", "data", "doc_len", "positions"
    )

    def __init__(self, parents, hashes, starts, lens, data, doc_len,
                 positions):
        self.parents = parents      # int64[n_tok] row index, non-decreasing
        self.hashes = hashes        # uint64[n_tok] mixed FNV-1a of the token
        self.starts = starts        # int64[n_tok] offset into ``data``
        self.lens = lens            # int64[n_tok]
        self.data = data            # uint8[...] lowercased flat text buffer
        self.doc_len = doc_len      # int32[n_rows]
        self.positions = positions  # int64[n_tok] PRE-stop-filter rank

    def token_bytes(self, i: int) -> bytes:
        s = int(self.starts[i])
        return self.data[s : s + int(self.lens[i])].tobytes()

    def token_strings(self, idx: np.ndarray) -> pa.StringArray:
        """Strings of tokens ``idx`` (any order, repeats allowed) as one
        Arrow array: offsets by cumsum of the lengths, bytes by one gather
        from ``data`` — no per-token Python.  The buffer is pure ASCII
        (non-ASCII batches never reach this path), so it is valid UTF-8."""
        idx = np.asarray(idx, dtype=np.int64)
        lens = self.lens[idx]
        offsets = np.zeros(idx.size + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        total = int(offsets[-1])
        if total >= (1 << 31):
            raise ValueError(
                f"{total} bytes of token strings exceed int32 string offsets"
            )
        gather = np.repeat(self.starts[idx] - offsets[:-1], lens) + np.arange(
            total, dtype=np.int64
        )
        return pa.StringArray.from_buffers(
            idx.size,
            pa.py_buffer(offsets.astype(np.int32)),
            pa.py_buffer(self.data[gather]),
        )


def tokenize_column_hashed(texts: pa.Array | pa.ChunkedArray) -> "HashedTokens | None":
    """Buffer-direct analyzer fast path: tokenize + hash WITHOUT materializing
    per-token strings (the string copy + filter + take of the Arrow path is
    the dominant allocation cost of segment builds).

    Returns None when the batch contains any non-ASCII byte — full-Unicode
    lowercasing can fold non-ASCII codepoints into ASCII letters (e.g. U+212A
    KELVIN SIGN → 'k'), so only pure-ASCII batches may take the byte-LUT
    path; callers fall back to :func:`tokenize_column` (bit-identical spec).
    Stop-word removal happens by hash against the 33 known stop hashes;
    membership is hash-exact for the caller to verify at the (small) vocab
    level if desired — within a batch the false-drop probability is
    |vocab|·33/2⁶⁴.
    """
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n = len(texts)
    if n == 0:
        return HashedTokens(
            np.empty(0, np.int64), np.empty(0, np.uint64), np.empty(0, np.int64),
            np.empty(0, np.int64), np.empty(0, np.uint8), np.empty(0, np.int32),
            np.empty(0, np.int64),
        )
    texts = texts.fill_null("")
    if pa.types.is_large_string(texts.type):
        off_dtype = np.int64
    elif pa.types.is_string(texts.type):
        off_dtype = np.int32
    else:
        return None
    raw_off = np.frombuffer(texts.buffers()[1], dtype=off_dtype)
    offsets = raw_off[texts.offset : texts.offset + n + 1].astype(np.int64)
    buf = texts.buffers()[2]
    if buf is None:
        data = np.empty(0, np.uint8)
    else:
        data = np.frombuffer(buf, dtype=np.uint8)[offsets[0] : offsets[-1]]
    offsets = offsets - offsets[0]
    if data.size and (data >= 0x80).any():
        return None  # non-ASCII → exact Arrow/Unicode path

    low = _LOWER_LUT[data]
    alnum = _ALNUM_LUT[low]
    # a document boundary also breaks a token: clear membership "carry" by
    # marking starts where previous byte is non-alnum OR a row starts here
    row_starts = offsets[1:-1]
    row_starts = row_starts[(row_starts > 0) & (row_starts < data.size)]
    prev = np.empty(data.size, dtype=bool)
    if data.size:
        prev[0] = False
        prev[1:] = alnum[:-1]
        prev[row_starts] = False  # a row start breaks any run
    is_start = alnum & ~prev
    starts = np.flatnonzero(is_start)
    if starts.size == 0:
        return HashedTokens(
            np.empty(0, np.int64), np.empty(0, np.uint64), np.empty(0, np.int64),
            np.empty(0, np.int64), low, np.zeros(n, np.int32),
            np.empty(0, np.int64),
        )
    # token end: next position where alnum stops or row ends
    nxt = np.empty(data.size, dtype=bool)
    nxt[:-1] = alnum[1:]
    nxt[-1] = False
    nxt[row_starts - 1] = False  # byte just before a row start ends a token
    is_end = alnum & ~nxt
    ends = np.flatnonzero(is_end) + 1
    lens = ends - starts
    parents = np.searchsorted(offsets, starts, side="right") - 1
    # PRE-filter position: rank among ALL detected tokens of the row (every
    # run is non-empty by construction); removed stop/over-long tokens keep
    # consuming positions — StopFilter enablePositionIncrements parity
    positions = _rank_within(parents)

    keep = lens <= MAX_TOKEN_LENGTH
    starts, lens, parents, positions = (
        starts[keep], lens[keep], parents[keep], positions[keep]
    )

    # vectorized FNV-1a over ragged tokens: k-th-byte pass, masked
    h = np.full(starts.size, _FNV_OFFSET_U64, dtype=np.uint64)
    maxlen = int(lens.max()) if lens.size else 0
    for k in range(maxlen):
        sel = lens > k
        b = low[starts[sel] + k].astype(np.uint64)
        h[sel] = (h[sel] ^ b) * _FNV_PRIME_U64
    h = _mix64_np(h)

    not_stop = ~np.isin(h, _STOP_HASHES)
    parents, h, starts, lens, positions = (
        parents[not_stop], h[not_stop], starts[not_stop], lens[not_stop],
        positions[not_stop],
    )
    doc_len = np.bincount(parents, minlength=n).astype(np.int32)
    return HashedTokens(parents, h, starts, lens, low, doc_len, positions)


def term_frequencies(
    parents: np.ndarray, terms: pa.Array
) -> tuple[np.ndarray, pa.Array, np.ndarray]:
    """Aggregate (row, term) pairs into (row, term, tf) — the A1 partial
    aggregate (per-batch combine before any shuffle, SURVEY.md §2.5).

    Vectorized via Arrow group_by (C++ hash aggregation, no Python loop).
    Returns ``(row_index, term, tf)`` sorted by (row_index, term).
    """
    if len(parents) == 0:
        return np.empty(0, np.int64), pa.array([], type=pa.string()), np.empty(0, np.int32)
    t = pa.table({"row": pa.array(parents, type=pa.int64()), "term": terms})
    agg = t.group_by(["row", "term"]).aggregate([([], "count_all")])
    # deterministic order within the batch
    agg = agg.sort_by([("row", "ascending"), ("term", "ascending")])
    return (
        agg["row"].to_numpy(zero_copy_only=False),
        agg["term"].combine_chunks(),
        agg["count_all"].to_numpy(zero_copy_only=False).astype(np.int32),
    )


def analyze_query_term(term: str) -> list[str]:
    """Query-side analysis of a single syntactic term (Q7): same analyzer.

    A stop word or empty term analyzes to [] and contributes no clause —
    matching Lucene QueryParser + StandardAnalyzer behavior where stop words
    vanish from queries (FIXTURES.md §5 'stopword' kind → 0 hits).
    """
    return analyze(term)
