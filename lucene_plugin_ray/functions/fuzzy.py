"""Fuzzy term expansion — Damerau-Levenshtein over a sorted term dictionary.

Q10 fuzzy queries (``term~``, ``term~1``) expand against each segment's term
dictionary, like Lucene's FuzzyQuery enumerating the term index with a
Levenshtein automaton (reference accepts these through the classic
QueryParser, LuceneIndexBean.java:727-735).  We use TRUE Damerau-Levenshtein
(unrestricted transpositions) so the engine agrees exactly with DuckDB's
``damerau_levenshtein`` — the conformance oracle; documented deviation from
Lucene's automaton in functions/queryparse.py.

Scale shape: a :class:`FuzzyScreen` groups a vocabulary's terms by length
and keeps one column-major ``uint32[L, n_L]`` codepoint matrix per length L
(4 bytes per codepoint plus an 8-byte row id per term, no padding).  It is
built once per segment and field (``SegmentReader.fuzzy_rows``, lazily on
first use) and reused by every fuzzy query and ``suggest`` call.  A query
touches only the buckets of lengths ``len(base) ± max_edits``: two exact
lower bounds on the distance (a positional window count and the bag
distance) prune them (filter), then one vectorized Damerau-Levenshtein
dynamic program verifies the survivors (verify) — a numpy pass per base
character over every (column, candidate) cell, no per-term Python.
"""

from __future__ import annotations

import numpy as np

__all__ = ["FuzzyScreen", "fuzzy_match_mask", "damerau_levenshtein"]


# int32 cells of one _dl_columns table (16 MiB)
_DP_TABLE_CELLS = 1 << 22


def _codepoints(s: str) -> np.ndarray:
    return np.frombuffer(s.encode("utf-32-le"), dtype=np.uint32)


def _dl_columns(a: np.ndarray, mat: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """True Damerau-Levenshtein distance from codepoints ``a`` to every
    column of ``mat`` (``uint32[W, k]``; column c holds a term of length
    ``lens[c]`` zero-padded to W — a cell only reads columns to its left,
    so padding never reaches column ``lens[c]``).

    :func:`damerau_levenshtein`'s recurrence, one DP row per base
    character vectorized over all (column, candidate) cells.  The
    substitution, deletion and transposition terms read earlier rows only:
    the last base row holding each candidate character (``da``) is carried
    as an array, the last matching column of the current row (``db``) is a
    running maximum, and ``d[da][db]`` is one gather from the full table.
    The insertion chain ``d[i][j] = min(t[j], d[i][j-1] + 1)`` is
    ``j + running-min(t[j] - j)`` — one ``minimum.accumulate``.
    """
    w, k = mat.shape
    m = a.size
    inf = m + w
    d = np.empty((m + 2, w + 2, k), np.int32)
    d[0] = inf
    d[:, 0] = inf
    j1 = np.arange(w + 1, dtype=np.int32)[:, None]
    d[1, 1:] = j1
    j = j1[1:]
    cols = np.arange(k)
    da = np.zeros((w, k), np.int32)
    for i in range(1, m + 1):
        eq = mat == a[i - 1]
        db = np.zeros((w, k), np.int32)
        db[1:] = np.maximum.accumulate(np.where(eq, j, 0)[:-1], axis=0)
        t = np.minimum(d[i, 1:-1] + ~eq, d[i, 2:] + 1)
        np.minimum(t, d[da, db, cols] + (i - da) + (j - db) - 1, out=t)
        row = np.empty((w + 1, k), np.int32)
        row[0] = i
        row[1:] = t
        d[i + 1, 1:] = np.minimum.accumulate(row - j1, axis=0) + j1
        da = np.where(eq, i, da)
    return d[m + 1, lens + 1, cols]


def damerau_levenshtein(a: str, b: str) -> int:
    """Exact TRUE Damerau-Levenshtein (unrestricted transpositions) over
    codepoints — the scalar reference, identical to DuckDB's
    ``damerau_levenshtein`` on ASCII (DuckDB counts UTF-8 bytes)."""
    m, n = len(a), len(b)
    inf = m + n
    da: dict[str, int] = {}
    d = [[inf] * (n + 2) for _ in range(m + 2)]
    for i in range(m + 1):
        d[i + 1][1] = i
    for j in range(n + 1):
        d[1][j + 1] = j
    for i in range(1, m + 1):
        db = 0
        for j in range(1, n + 1):
            k = da.get(b[j - 1], 0)
            ll = db
            if a[i - 1] == b[j - 1]:
                cost = 0
                db = j
            else:
                cost = 1
            d[i + 1][j + 1] = min(
                d[i][j] + cost,
                d[i + 1][j] + 1,
                d[i][j + 1] + 1,
                d[k][ll] + (i - k - 1) + 1 + (j - ll - 1),
            )
        da[a[i - 1]] = i
    return d[m + 1][n + 1]


class FuzzyScreen:
    """Length-bucketed codepoint matrices of one term vocabulary — the
    reusable half of fuzzy expansion.

    ``buckets[L] = (uint32[L, n_L] codepoints, int64[n_L] vocabulary rows)``
    for every term length L present; rows within a bucket stay ascending.
    Resident size is exactly 4 bytes per codepoint plus 8 per term
    (:attr:`nbytes`)."""

    __slots__ = ("buckets",)

    def __init__(self, terms: np.ndarray):
        n = len(terms)
        self.buckets: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        if n == 0:
            return
        lens = np.fromiter(map(len, terms), np.int64, n)
        flat = _codepoints("".join(terms))
        starts = np.cumsum(lens) - lens
        order = np.argsort(lens, kind="stable")
        cuts = np.flatnonzero(np.diff(lens[order])) + 1
        for rows in np.split(order, cuts):
            width = int(lens[rows[0]])
            mat = flat[starts[rows][None, :] + np.arange(width)[:, None]]
            self.buckets[width] = (mat, rows.astype(np.int64))

    @property
    def nbytes(self) -> int:
        return sum(m.nbytes + r.nbytes for m, r in self.buckets.values())

    def match(self, base: str, max_edits: int) -> tuple[np.ndarray, np.ndarray]:
        """(vocabulary rows asc, exact DL distances) of every term within
        true Damerau-Levenshtein ``max_edits`` (1 or 2) of ``base``.

        Two exact lower bounds on DL filter the ``len(base) ± e`` buckets,
        then the exact DL dynamic program (:func:`_dl_columns`) verifies
        the survivors of all buckets at once.

        * Window: in an optimal edit script every base character is either
          substituted or deleted (one edit each) or lands in the term at
          an offset of at most the edit count (only indels and
          transpositions shift it, each by at most its cost).  So with U =
          #{i : base[i] ∉ t[i−e .. i+e]} and insertions ≥ |t| − |base|,
          DL ≥ U + max(0, |t| − |base|) whenever DL ≤ e.
        * Bag: BD = max(|base|, |t|) − Σ_c min(cnt) — each sub/ins/del
          changes either side's character bag by ≤ 1, a transposition by 0.
        """
        if max_edits not in (1, 2):
            raise ValueError("max_edits must be 1 or 2")
        a = _codepoints(base)
        m = a.size
        chars, kcs = np.unique(a, return_counts=True)
        mats, row_parts, len_parts = [], [], []
        for width in range(max(0, m - max_edits), m + max_edits + 1):
            got = self.buckets.get(width)
            if got is None:
                continue
            mat, rows = got
            lb = np.full(rows.size, max(0, width - m), np.int64)
            for i in range(m):
                win = mat[max(0, i - max_edits) : i + max_edits + 1]
                lb += ~(win == a[i]).any(axis=0)
            keep = np.flatnonzero(lb <= max_edits)
            mat, rows = mat[:, keep], rows[keep]
            common = np.zeros(rows.size, np.int64)
            for ch, kc in zip(chars, kcs):
                eq = mat == ch
                common += eq.any(axis=0) if kc == 1 else np.minimum(
                    eq.sum(axis=0), kc
                )
            keep = np.flatnonzero(max(width, m) - common <= max_edits)
            if keep.size:
                mats.append(mat[:, keep])
                row_parts.append(rows[keep])
                len_parts.append(np.full(keep.size, width, np.int64))
        if not row_parts:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        rows = np.concatenate(row_parts)
        lens = np.concatenate(len_parts)
        pad = np.zeros((int(lens.max()), rows.size), np.uint32)
        c = 0
        for mat in mats:
            pad[: mat.shape[0], c : c + mat.shape[1]] = mat
            c += mat.shape[1]
        # the DP keeps its whole (m+2)×(W+2) table per candidate: bound it
        step = max(1, _DP_TABLE_CELLS // ((m + 2) * (pad.shape[0] + 2)))
        dist = np.concatenate(
            [
                _dl_columns(a, pad[:, c : c + step], lens[c : c + step])
                for c in range(0, rows.size, step)
            ]
        ).astype(np.int64)
        ok = np.flatnonzero(dist <= max_edits)
        order = np.argsort(rows[ok], kind="stable")
        return rows[ok][order], dist[ok][order]


def fuzzy_match_mask(base: str, terms: np.ndarray, max_edits: int) -> np.ndarray:
    """bool[len(terms)] — true DL distance(base, term) <= max_edits (≤ 2).

    One-shot use of :class:`FuzzyScreen` on a raw term array: the screen
    is built, queried once and dropped.  Callers that query the same
    vocabulary repeatedly keep the screen instead."""
    if max_edits not in (1, 2):
        raise ValueError("max_edits must be 1 or 2")
    mask = np.zeros(len(terms), bool)
    rows, _ = FuzzyScreen(terms).match(base, max_edits)
    mask[rows] = True
    return mask
