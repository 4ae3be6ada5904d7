"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its arguments: the same seed gives the
same corpus, deltas, deletes and query logs.  The package under test only ever
receives the generated tables and query strings.

All corpora come from ``pipelines.fixtures.make_pages`` (Zipf(1.1) over a
50k-term vocabulary, documents of 50-500 tokens).  ``make_pages`` raises a
``TypeError`` above ~12k documents in one call (``pa.array`` of a large numpy
``<U`` array returns a ``ChunkedArray``), so corpora are generated in chunks of
at most ``CHUNK_DOCS`` documents, each chunk with its own derived seed and its
own url namespace.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from lucene_plugin_ray.pipelines.fixtures import EPOCH_US, make_pages

CHUNK_DOCS = 10_000

# Non-stop vocabulary term of Zipf rank r (0-based, stop words excluded) is
# f"w{r:05d}" in make_pages' vocabulary.
HEAD_TERMS = 200
# head-log popularity: Zipf(0.6) over 3,000 distinct queries gives the
# engine's 512-entry results cache a hit ratio of about 1/3
HEAD_POOL = 3000
HEAD_ZIPF_S = 0.6
# P(an OR query has 1, 2, 3, 4 terms).  Few 1-term queries keep the median
# latency inside the 2-term class: with 1/4 of them, cache hits plus 1-term
# misses came to ~48% of the log, and the median flipped between classes.
HEAD_OR_TERMS_P = (0.1, 0.3, 0.3, 0.3)
TAIL_RANK_LO = 200
TAIL_RANK_HI = 20_000

# Salts keep the streams drawn from one --seed independent of each other.
_SALT_CORPUS, _SALT_HEAD, _SALT_TAIL, _SALT_INGEST, _SALT_PROBE = range(1, 6)

# Delta rows are newer than every corpus row: make_pages stamps row i of a
# chunk with EPOCH_US + i seconds, far below this for CHUNK_DOCS rows.
_DELTA_TS_BASE = EPOCH_US + 10**12


def _rng(seed: int, salt: int, *more: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt, *more])


def _term(rank: int) -> str:
    return f"w{rank:05d}"


def corpus(
    seed: int, n_docs: int, with_fields: bool = False, namespace: str = "c"
) -> pa.Table:
    """Pages table of about ``n_docs`` documents (make_pages adds ~1.5% older
    duplicate versions).  Chunk k draws from its own seed and rewrites urls to
    ``https://{namespace}{k}-site-...`` so chunks never share a url."""
    parts = []
    for k, start in enumerate(range(0, n_docs, CHUNK_DOCS)):
        n = min(CHUNK_DOCS, n_docs - start)
        chunk_seed = int(_rng(seed, _SALT_CORPUS, k).integers(0, 2**31))
        t = make_pages(n, seed=chunk_seed, with_fields=with_fields)
        urls = pc.replace_substring(t["url"], "https://", f"https://{namespace}{k}-")
        parts.append(t.set_column(t.schema.get_field_index("url"), "url", urls))
    return pa.concat_tables(parts).combine_chunks()


def text_bytes(table: pa.Table) -> int:
    """UTF-8 bytes of the ``text`` column: the input size the index is
    compared against."""
    return int(pc.sum(pc.binary_length(table["text"])).as_py() or 0)


def head_queries(seed: int, n: int) -> list[str]:
    """Head-term query log for ``search_head``.

    A pool of ``HEAD_POOL`` distinct queries over the top ``HEAD_TERMS``
    non-stop terms: 1-4-term OR queries (``HEAD_OR_TERMS_P``) plus 15% 2-term
    AND queries.  The log
    draws pool entries with Zipf(``HEAD_ZIPF_S``) popularity, so popular
    queries repeat while the distinct pool stays larger than the engine's
    512-entry results cache."""
    rng = _rng(seed, _SALT_HEAD)
    pool: list[str] = []
    seen: set[str] = set()
    while len(pool) < HEAD_POOL:
        if rng.random() < 0.15:
            a, b = rng.choice(HEAD_TERMS, size=2, replace=False)
            q = f"+{_term(a)} +{_term(b)}"
        else:
            k = int(rng.choice(4, p=HEAD_OR_TERMS_P)) + 1
            q = " ".join(_term(r) for r in rng.choice(HEAD_TERMS, size=k, replace=False))
        if q not in seen:
            seen.add(q)
            pool.append(q)
    weights = 1.0 / np.arange(1, HEAD_POOL + 1, dtype=np.float64) ** HEAD_ZIPF_S
    draws = rng.choice(HEAD_POOL, size=n, p=weights / weights.sum())
    return [pool[i] for i in draws]


def _tail_rank(rng: np.random.Generator) -> int:
    """Log-uniform rank over the mid and tail of the vocabulary."""
    lo, hi = np.log(TAIL_RANK_LO), np.log(TAIL_RANK_HI)
    return int(np.exp(rng.uniform(lo, hi)))


def _bigrams(pages: pa.Table, rng: np.random.Generator, n: int) -> list[str]:
    """``n`` adjacent non-stop token pairs taken from random documents, so
    every phrase query matches at least one document."""
    texts = pages["text"]
    out: list[str] = []
    while len(out) < n:
        toks = texts[int(rng.integers(0, len(texts)))].as_py().split()
        if len(toks) < 2:
            continue
        i = int(rng.integers(0, len(toks) - 1))
        a, b = toks[i], toks[i + 1]
        if a.startswith("w") and b.startswith("w") and a[1:].isdigit() and b[1:].isdigit():
            out.append(f'"{a} {b}"')
    return out


# One search_tail batch: the same mix of query kinds in every batch, so batch
# latencies stay unimodal (with kinds drawn at random, a batch with or
# without an expensive expansion split the latency distribution in two).
# A fuzzy query scans the whole term dictionary of every segment: one costs
# ~75 ms on a single 5,000-document engine, while the other kinds take 1-11 ms
# at the median.  One per batch keeps batches short enough for several blocks
# of batches in a run.
TAIL_BATCH_KINDS = (
    ["or"] * 6 + ["phrase"] * 2 + ["prefix"] * 2 + ["prefix100"]
    + ["wildcard"] * 2 + ["fuzzy"] + ["field_and"] * 2
)


def tail_queries(seed: int, pages: pa.Table, n_batches: int) -> list[list[str]]:
    """Batches of distinct mid- and tail-term queries for ``search_tail``:
    ORs, phrases, prefix (<= 10 and <= 100 terms) / wildcard / fuzzy
    expansions and field-filtered ANDs (the corpus needs
    ``with_fields=True``).  No query repeats across the whole log."""
    rng = _rng(seed, _SALT_TAIL)
    phrases = iter(_bigrams(pages, rng, 2 * n_batches * len(TAIL_BATCH_KINDS)))
    seen: set[str] = set()
    batches = []
    for _ in range(n_batches):
        batch = []
        for kind in TAIL_BATCH_KINDS:
            while True:
                q = _tail_query(kind, rng, phrases)
                if q not in seen:
                    break
            seen.add(q)
            batch.append(q)
        batches.append([batch[i] for i in rng.permutation(len(batch))])
    return batches


def _tail_query(kind: str, rng: np.random.Generator, phrases) -> str:
    if kind == "or":
        return " ".join(_term(_tail_rank(rng)) for _ in range(int(rng.integers(2, 4))))
    if kind == "phrase":
        return next(phrases)
    if kind == "prefix":
        return _term(_tail_rank(rng))[:5] + "*"
    if kind == "prefix100":
        # 498 distinct 4-character prefixes over ranks 200-49999
        return f"w{int(rng.integers(2, 500)):03d}*"
    if kind == "wildcard":
        t = list(_term(_tail_rank(rng)))
        t[int(rng.integers(3, 6))] = "?"
        return "".join(t)
    if kind == "fuzzy":
        return _term(_tail_rank(rng)) + "~1"
    field = (
        f"age:{int(rng.integers(20, 30))}"
        if rng.random() < 0.5
        else f"foo:v{int(rng.integers(0, 7))}"
    )
    return f"+{_term(_tail_rank(rng))} +{field}"


# ingest probe classes, repeated in this order: 40% head-term ORs, 40%
# mid/tail-term ORs, 20% 2-term ANDs.  The classes differ in cost, so every
# run of five consecutive probes has exactly these shares, and a probe set's
# percentiles do not move with a drawn class mix.
_PROBE_CLASSES = ("head", "head", "tail", "tail", "and")


def probe_queries(seed: int, n: int) -> list[str]:
    """Probes run after every ``ingest`` refresh, in the class order of
    ``_PROBE_CLASSES``."""
    rng = _rng(seed, _SALT_PROBE)
    out: list[str] = []
    for i in range(n):
        kind = _PROBE_CLASSES[i % len(_PROBE_CLASSES)]
        if kind == "head":
            q = " ".join(_term(x) for x in rng.choice(HEAD_TERMS, size=2, replace=False))
        elif kind == "tail":
            q = " ".join(_term(_tail_rank(rng)) for _ in range(2))
        else:
            a, b = rng.choice(HEAD_TERMS * 5, size=2, replace=False)
            q = f"+{_term(a)} +{_term(b)}"
        out.append(q)
    return out


def marker(generation: int) -> str:
    """Token planted in every row written by delta ``generation``."""
    return f"gen{generation}upd"


class Delta:
    """One ``ingest`` generation: the rows and deletes handed to
    ``build_delta``, and the urls they write and delete."""

    __slots__ = ("rows", "deletes", "written", "deleted")

    def __init__(self, rows: pa.Table, deletes: pa.Table):
        self.rows = rows
        self.deletes = deletes
        self.written = set(rows["url"].to_pylist())
        self.deleted = set(deletes["url"].to_pylist())


def ingest_plan(
    seed: int, base: pa.Table, generations: int, rows_per_gen: int,
    deletes_per_gen: int,
) -> list[Delta]:
    """Delta generations for ``ingest``.

    Each generation holds ``rows_per_gen`` rows: half upserts of live urls
    (newer ``warc_ts``, fresh text) and half new urls, each row carrying
    ``marker(g)``; plus ``deletes_per_gen`` deletes of live urls the same
    generation does not write."""
    rng = _rng(seed, _SALT_INGEST)
    live = sorted(set(base["url"].to_pylist()))
    plan = []
    for g in range(1, generations + 1):
        n_up = rows_per_gen // 2
        pick = rng.choice(len(live), size=n_up + deletes_per_gen, replace=False)
        del_urls = [live[i] for i in pick[n_up:]]
        new_urls = [f"https://delta{g}.example/p/{i}" for i in range(rows_per_gen - n_up)]
        urls = [live[i] for i in pick[:n_up]] + new_urls
        text_seed = int(rng.integers(0, 2**31))
        texts = make_pages(rows_per_gen, seed=text_seed)["text"].to_pylist()
        rows = pa.table(
            {
                "url": pa.array(urls, type=pa.string()),
                "warc_ts": pa.array(
                    [_DELTA_TS_BASE + g * 10**9 + i for i in range(len(urls))],
                    type=pa.timestamp("us"),
                ),
                "text": pa.array(
                    [f"{t} {marker(g)}" for t in texts[: len(urls)]], type=pa.string()
                ),
            }
        )
        deletes = pa.table(
            {
                "collection": pa.array(["default"] * len(del_urls), type=pa.string()),
                "url": pa.array(del_urls, type=pa.string()),
            }
        )
        plan.append(Delta(rows, deletes))
        live = sorted((set(live) | set(new_urls)) - set(del_urls))
    return plan


def expected_after(plan: list[Delta], upto: int) -> tuple[list[set[str]], set[str]]:
    """State after generations ``1..upto``: for each generation g, the urls
    whose live version g wrote (what a ``marker(g)`` query must return), and
    every url deleted and not written again."""
    written_in: dict[str, int] = {}
    deleted: set[str] = set()
    for g, d in enumerate(plan[:upto], 1):
        for u in d.written:
            written_in[u] = g
        for u in d.deleted:
            written_in.pop(u, None)
        deleted = (deleted - d.written) | d.deleted
    live = [
        {u for u, g in written_in.items() if g == gen} for gen in range(1, upto + 1)
    ]
    return live, deleted
