"""Positional postings + extended grammar (Q8-Q10) tests.

Covers the positions.bin codec roundtrip, phrase/prefix/wildcard/fuzzy
rank-identity against the brute-force oracle, survival of positions through
delta generations and compaction (K3), and the sharded path's phrase-term
df gather.  The reference accepts all these forms through Lucene's classic
QueryParser (LuceneIndexBean.java:727-735); no reference test exercises
them, so the referee here is pipelines/oracle.py + DuckDB.
"""

import numpy as np
import pyarrow as pa
import pytest

from lucene_plugin_ray.config import IndexConfig
from lucene_plugin_ray.functions.codec import (
    decode_positions_region,
    encode_many_positions,
    positions_to_deltas,
)
from lucene_plugin_ray.pipelines.fixtures import make_pages
from lucene_plugin_ray.pipelines.oracle import OracleIndex

# queries exercising every new clause type; picked from the fixture
# vocabulary (Zipf head words co-occur adjacently by chance, so phrase
# frequency is non-trivial; the oracle computes the truth either way)
GRAMMAR_QUERIES = [
    '"w00000 w00001"',
    '"w00001 w00000"',
    '"w00000 w00000"',          # self-overlapping phrase freq
    '"w00002 w00000 w00001"',   # 3-term phrase
    '+"w00000 w00001" +w00002',  # phrase as MUST with a term
    '"w00000 w00001" w00005',    # phrase OR term
    '"w00000 w00001"~2',         # Q14 sloppy pair (includes transpositions)
    '"w00001 w00000"~1',         # reversed order needs 2 moves — d=1 misses
    '"w00002 w00000 w00001"~3',  # 3-term sloppy
    '"w00000 w00000"~2',         # repeated-term sloppy (distinctness path)
    '"w00000 w00001"~2^2',       # slop + boost
    '+"w00000 w00001"~1 +w00002',  # sloppy phrase as MUST
    "w0000*",
    "firstword*",
    "w0000?",
    "w00?00",
    "w00000~1",
    "w00000~",                   # ~ defaults to maxEdits 2
    "/w0000[0-3]/",              # Q15 regexp (literal-prefix narrowed)
    "/.*hit/",                   # regexp with no literal prefix (full scan)
    "+/w0000./ +w00002",         # regexp as MUST
    "/pagehits?/",               # trailing-? — the governed char must NOT
                                 # narrow the prefix ('pagehit' matches)
    "/pagehit|pagemiss/",        # top-level alternation voids any prefix
    "/page(hit|miss)/",          # parenthesized alternation keeps 'page'
    "{w00001 TO w00004}",        # exclusive range brackets
    "[w00001 TO w00004}",        # mixed inclusivity
    "[w0009 TO *]",              # open upper bound
    "[* TO w00001]",             # open lower bound
    "pagehit~1",
    "+w0000* +w00001",           # multiterm as MUST
]


# ---------------------------------------------------------------------------
# codec roundtrip
# ---------------------------------------------------------------------------
def test_positions_codec_roundtrip():
    rng = np.random.default_rng(11)
    # 40 terms, each with 1..8 postings, each posting 1..6 positions
    all_deltas, term_starts, per_posting = [], [0], []
    expected = []  # (term, flat positions, tfs)
    tok_total = 0
    for _t in range(40):
        n_post = int(rng.integers(1, 9))
        tfs = rng.integers(1, 7, size=n_post)
        flat_pos = []
        for tf in tfs:
            pos = np.sort(rng.choice(5000, size=int(tf), replace=False))
            flat_pos.append(pos)
        flat = np.concatenate(flat_pos)
        starts = np.concatenate([[0], np.cumsum(tfs)])[:-1].astype(np.int64)
        deltas = positions_to_deltas(flat.astype(np.int64), starts)
        all_deltas.append(deltas)
        tok_total += int(tfs.sum())
        term_starts.append(tok_total)
        expected.append((flat.astype(np.int64), tfs.astype(np.int64)))
    buf, poff, poff_end = encode_many_positions(
        np.array(term_starts, np.int64), np.concatenate(all_deltas)
    )
    for t, (flat, tfs) in enumerate(expected):
        got = decode_positions_region(buf, int(poff[t]), int(poff_end[t]), tfs)
        assert (got == flat).all()


def test_positions_to_deltas_rejects_nonincreasing():
    with pytest.raises(ValueError):
        positions_to_deltas(
            np.array([3, 3], np.int64), np.array([0], np.int64)
        )


# ---------------------------------------------------------------------------
# engine vs oracle rank-identity (single + multi generation + compaction)
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def grammar_built(ray_session, tmp_path_factory):
    from lucene_plugin_ray.pipelines.build import build_delta, build_index
    from lucene_plugin_ray.pipelines.query import SearchEngine

    corpus = make_pages(400, seed=47)
    root = str(tmp_path_factory.mktemp("idx_pos"))
    cfg = IndexConfig(index_root=root, num_partitions=4)
    # split into base + delta so phrase queries cross generations
    base, delta = corpus.slice(0, 300), corpus.slice(300)
    build_index(base, cfg)
    build_delta(delta, cfg)
    return corpus, cfg, SearchEngine(root, cfg=cfg), OracleIndex(corpus, cfg)


def _assert_rank_identical(engine, oracle, query, limit=255):
    got = engine.search(query, limit=limit)
    exp = oracle.search(query, limit=limit)
    assert got["url"].to_pylist() == [u for u, _ in exp], query
    for s, (_, es) in zip(got["score"].to_pylist(), exp):
        assert abs(s - es) < 1e-6, query


def test_grammar_queries_rank_identical(grammar_built):
    corpus, cfg, engine, oracle = grammar_built
    nonempty = 0
    for q in GRAMMAR_QUERIES:
        _assert_rank_identical(engine, oracle, q)
        nonempty += engine.search(q).num_rows > 0
    # the corpus must actually exercise the paths, not vacuously pass
    assert nonempty >= 10


def test_phrase_survives_compaction(grammar_built, tmp_path):
    """K3: position sub-streams relocate through the vectorized merge —
    phrase results are identical before and after compact_index."""
    import shutil

    from lucene_plugin_ray.pipelines.build import compact_index
    from lucene_plugin_ray.pipelines.query import SearchEngine

    corpus, cfg, engine, oracle = grammar_built
    root2 = str(tmp_path / "copy")
    shutil.copytree(cfg.index_root, root2)
    from dataclasses import replace

    cfg2 = replace(cfg, index_root=root2)
    def snap(eng, q):
        # docids are per-generation (compaction reassigns); urls + scores
        # are the invariant surface
        t = eng.search(q)
        return list(zip(t["url"].to_pylist(), t["score"].to_pylist()))

    before = {q: snap(engine, q) for q in GRAMMAR_QUERIES}
    m = compact_index(cfg2)
    assert m.extra["compacted"] is True
    eng2 = SearchEngine(root2, cfg=cfg2)
    assert len(eng2.chain) == 1
    for q in GRAMMAR_QUERIES:
        assert snap(eng2, q) == before[q], q


def test_sloppy_phrase_hand_computed(ray_session, tmp_path):
    """Q14 contract pinned by hand: per first-term anchor, d = minimal
    max(pᵢ−i)−min(pᵢ−i); anchors with d ≤ slop weigh 1/(1+d); pf is the
    weight sum.  Verified through the full BM25 score (idf and norms hand
    computable on a 1-doc-per-case corpus would be noisy — instead we pin
    the pf ORDERING and the exact weight ratios via explain())."""
    import ray.data

    from lucene_plugin_ray.pipelines.build import build_index
    from lucene_plugin_ray.pipelines.query import SearchEngine

    rows = [
        {"url": "u1", "warc_ts": 1, "collection": "default",
         "text": "alpha beta"},            # d=0 → weight 1
        {"url": "u2", "warc_ts": 1, "collection": "default",
         "text": "alpha xx beta"},         # d=1 → 1/2
        {"url": "u3", "warc_ts": 1, "collection": "default",
         "text": "beta alpha"},            # transposed: d=2 → 1/3
        {"url": "u4", "warc_ts": 1, "collection": "default",
         "text": "alpha xx yy beta"},      # d=2 → 1/3
        {"url": "u5", "warc_ts": 1, "collection": "default",
         "text": "alpha yy zz qq beta"},   # d=3 → outside slop 2
    ]
    root = str(tmp_path / "idx")
    cfg = IndexConfig(index_root=root, num_partitions=2)
    build_index(ray.data.from_items(rows), cfg)
    eng = SearchEngine(root, cfg=cfg)
    got = eng.search('"alpha beta"~2', limit=10)
    assert set(got["url"].to_pylist()) == {"u1", "u2", "u3", "u4"}
    pf = {}
    for u in ("u1", "u2", "u3", "u4", "u5"):
        ex = eng.explain('"alpha beta"~2', u)
        (cl,) = ex["clauses"]
        assert cl["kind"] == "phrase" and cl["detail"] == "alpha beta~2"
        pf[u] = cl["tf"]
    assert pf == {
        "u1": 1.0, "u2": 0.5, "u3": pytest.approx(1 / 3),
        "u4": pytest.approx(1 / 3), "u5": 0.0,
    }
    # slop 1 excludes the d=2 docs; slop 0 equals the plain phrase
    assert set(eng.search('"alpha beta"~1')["url"].to_pylist()) == {"u1", "u2"}
    a = eng.search('"alpha beta"', limit=10)
    b = eng.search('"alpha beta"~0', limit=10)
    assert a.to_pydict() == b.to_pydict()


def test_sloppy_repeated_terms_distinct_positions(ray_session, tmp_path):
    """Repeated terms must occupy DISTINCT actual positions: 'alpha alpha'
    cannot match a doc with a single alpha, however large the slop."""
    import ray.data

    from lucene_plugin_ray.pipelines.build import build_index
    from lucene_plugin_ray.pipelines.query import SearchEngine

    rows = [
        {"url": "one", "warc_ts": 1, "collection": "default",
         "text": "alpha beta gamma"},            # single alpha — no match
        {"url": "two", "warc_ts": 1, "collection": "default",
         "text": "alpha beta alpha"},            # d=1 (gap one token)
    ]
    root = str(tmp_path / "idx")
    cfg = IndexConfig(index_root=root, num_partitions=1)
    build_index(ray.data.from_items(rows), cfg)
    eng = SearchEngine(root, cfg=cfg)
    assert eng.search('"alpha alpha"~9')["url"].to_pylist() == ["two"]


def test_phrase_respects_upsert_and_collections(ray_session, tmp_path):
    """Alive-mask filtering applies to phrase hits: an upserted old version
    containing the phrase must not surface."""
    import ray.data

    from lucene_plugin_ray.pipelines.build import build_index
    from lucene_plugin_ray.pipelines.query import SearchEngine

    rows = [
        {"url": "u1", "warc_ts": 1, "collection": "default",
         "text": "alpha beta gamma"},
        {"url": "u1", "warc_ts": 2, "collection": "default",
         "text": "gamma beta alpha"},          # newer: phrase reversed
        {"url": "u2", "warc_ts": 1, "collection": "other",
         "text": "alpha beta delta"},          # other collection
        {"url": "u3", "warc_ts": 1, "collection": "default",
         "text": "alpha beta epsilon"},
    ]
    root = str(tmp_path / "idx")
    cfg = IndexConfig(index_root=root, num_partitions=2)
    build_index(ray.data.from_items(rows), cfg)
    eng = SearchEngine(root, cfg=cfg)
    assert eng.search('"alpha beta"')["url"].to_pylist() == ["u3"]
    assert eng.search('"alpha beta"', collection="other")["url"].to_pylist() == [
        "u2"
    ]
    # prefix/fuzzy respect the same masks
    assert set(eng.search("alph*")["url"].to_pylist()) == {"u1", "u3"}
    assert set(eng.search("alpja~1")["url"].to_pylist()) == {"u1", "u3"}


def test_positions_off_rejects_phrase(ray_session, tmp_path):
    """index_positions=False writes no positions region; phrase queries on
    such a segment fail loudly, term queries still work."""
    import ray.data

    from lucene_plugin_ray.pipelines.build import build_index
    from lucene_plugin_ray.pipelines.query import SearchEngine

    rows = [{"url": "u1", "warc_ts": 1, "collection": "default",
             "text": "alpha beta gamma"}]
    root = str(tmp_path / "idx")
    cfg = IndexConfig(index_root=root, num_partitions=1, index_positions=False)
    build_index(ray.data.from_items(rows), cfg)
    eng = SearchEngine(root, cfg=cfg)
    assert eng.search("alpha")["url"].to_pylist() == ["u1"]
    with pytest.raises(ValueError, match="without positions"):
        eng.search('"alpha beta"')


# ---------------------------------------------------------------------------
# sharded path: phrase terms enter the global-df gather
# ---------------------------------------------------------------------------
def test_sharded_phrase_matches_local(grammar_built):
    from lucene_plugin_ray.pipelines.sharded import sharded_search

    corpus, cfg, engine, oracle = grammar_built
    queries = [q for q in GRAMMAR_QUERIES]
    qtable = pa.table(
        {
            "qid": pa.array(range(len(queries)), type=pa.int64()),
            "collection": ["default"] * len(queries),
            "query": queries,
            "k": pa.array([255] * len(queries), type=pa.int32()),
        }
    )
    t = sharded_search(cfg.index_root, qtable, cfg=cfg, num_shards=3,
                       concurrency=2)
    for qid, q in enumerate(queries):
        local = engine.search(q, limit=255)
        mask = np.asarray(t["qid"]) == qid
        sub = t.filter(pa.array(mask))
        assert sub["url"].to_pylist() == local["url"].to_pylist(), q
        got = sub["score"].to_pylist()
        exp = local["score"].to_pylist()
        assert all(abs(a - b) < 1e-9 for a, b in zip(got, exp)), q


# ---------------------------------------------------------------------------
# fuzzy expansion == DuckDB damerau_levenshtein (the conformance contract)
# ---------------------------------------------------------------------------
def test_fuzzy_mask_equals_duckdb():
    """fuzzy_match_mask and the cached screen (one FuzzyScreen reused by
    every probe, as a SegmentReader keeps it per field) must return
    DuckDB's damerau_levenshtein rows AND distances.  Vocabularies: short
    ASCII terms; 1-40 chars with non-ASCII codepoints (2-, 3- and 4-byte
    UTF-8) plus one very long outlier term; empty.  DuckDB measures UTF-8
    BYTES, the screen codepoints, so each non-ASCII codepoint is mapped
    one-to-one to an unused ASCII letter before the DuckDB call (DL only
    compares symbols for equality)."""
    import duckdb

    from lucene_plugin_ray.functions.fuzzy import FuzzyScreen, fuzzy_match_mask

    rng = np.random.default_rng(5)
    alpha = np.array(list("abcde"))
    short = {"".join(rng.choice(alpha, size=rng.integers(1, 8))) for _ in range(1500)}
    alpha = np.array(list("abcdeéß字\U0001F600"))
    mixed = {"".join(rng.choice(alpha, size=rng.integers(1, 41))) for _ in range(600)}
    mixed |= {"".join(rng.choice(alpha[:4], size=rng.integers(1, 6))) for _ in range(400)}
    outlier = "ab字" * 700
    mixed.add(outlier)
    lens = {len(t) for t in mixed}
    assert min(lens) == 1 and max(lens) == len(outlier) and len(lens) > 30
    ascii_of = str.maketrans({"é": "f", "ß": "g", "字": "h", "\U0001F600": "i"})
    con = duckdb.connect()
    cases = [
        (short, ["ca", "abc", "bcd", "edcba", "aa"]),
        (mixed, ["a", "ab", "abé", "字a", "ßcde", "\U0001F600b", "abcdeabcde",
                 sorted(mixed)[len(mixed) // 2], outlier[:-1], outlier + "c", ""]),
        (set(), ["abc"]),
    ]
    for vocab, bases in cases:
        vocab = sorted(vocab)
        terms = np.array(vocab, dtype=object)
        screen = FuzzyScreen(terms)
        assert screen.nbytes == 4 * sum(map(len, vocab)) + 8 * len(vocab)
        for base in bases:
            by_ascii = dict(
                con.execute(
                    "select t, damerau_levenshtein(?, t) from unnest(?::varchar[]) u(t)",
                    [base.translate(ascii_of), [t.translate(ascii_of) for t in vocab]],
                ).fetchall()
            )
            dist = [by_ascii[t.translate(ascii_of)] for t in vocab]
            for e in (1, 2):
                want = [i for i, d in enumerate(dist) if d <= e]
                rows, got = screen.match(base, e)
                assert rows.tolist() == want, (base, e)
                assert got.tolist() == [dist[i] for i in want], (base, e)
                mask = fuzzy_match_mask(base, terms, e)
                assert np.flatnonzero(mask).tolist() == want, (base, e)


# ---------------------------------------------------------------------------
# round-3 review regressions: regexp prefix soundness, sloppy robustness
# ---------------------------------------------------------------------------
def test_regexp_literal_prefix_soundness():
    """The Q15 dictionary-range key must never exclude a matching term:
    quantifiers make their governed char optional, top-level alternation
    voids any prefix (review finding — /pagehits?/ used to drop 'pagehit',
    /ab|cd/ the whole cd branch)."""
    import re

    from lucene_plugin_ray.pipelines.query import _regexp_literal_prefix as lp

    assert lp("pagehit") == "pagehit"
    assert lp("pagehits?") == "pagehit"   # '?' makes 's' optional
    assert lp("ab*") == "a"
    assert lp("ab{0,2}c") == "a"          # braces conservative
    assert lp("ab+") == "ab"              # '+' keeps its char
    assert lp("ab|cd") == ""              # top-level alternation
    assert lp("ab(c)|d") == ""
    assert lp("ab(c|d)e") == "ab"         # nested alternation keeps prefix
    assert lp("a[bc]d") == "a"
    assert lp(r"a\.b") == "a"             # escape breaks the literal run
    assert lp(".*hit") == ""
    # soundness property: every fullmatching string starts with the prefix
    pats = ["pagehits?", "ab*", "ab{0,2}c", "ab+", "ab|cd", "ab(c)|d",
            "ab(c|d)e", "a[bc]d", "x(y|z)*", "foo(bar)?baz"]
    terms = ["a", "ab", "abc", "abb", "abcc", "cd", "abd", "abce", "abde",
             "x", "xy", "xz", "xyz", "foobaz", "foobarbaz", "pagehit",
             "pagehits", "acd", "d", "abc", "ac"]
    for p in pats:
        pre = lp(p)
        rx = re.compile(p, re.DOTALL)
        for t in terms:
            if rx.fullmatch(t):
                assert t.startswith(pre), (p, t, pre)


def test_sloppy_polynomial_path_equals_sweep(monkeypatch):
    """The long-phrase polynomial solver (left-edge enumeration) must agree
    exactly with the 2^(K−1) floor/ceil sweep — both exact for
    distinct-term phrases (review finding: the sweep alone is exponential
    in phrase length)."""
    import lucene_plugin_ray.pipelines.query as qmod

    rng = np.random.default_rng(5)
    checked = 0
    for _trial in range(40):
        k = int(rng.integers(2, 7))
        key_arrays = []
        for _i in range(k):
            n = int(rng.integers(1, 30))
            docs = rng.integers(0, 4, size=n).astype(np.int64)
            pos = rng.integers(0, 60, size=n).astype(np.int64)
            key_arrays.append(np.unique((docs << 32) | pos))
        terms = tuple(f"t{i}" for i in range(k))  # distinct
        slop = int(rng.integers(0, 12))
        offs = tuple(range(k))
        ref = qmod._sloppy_phrase_weights(key_arrays, slop, terms, offs)
        monkeypatch.setattr(qmod, "_SLOPPY_MASK_MAX", 0)
        got = qmod._sloppy_phrase_weights(key_arrays, slop, terms, offs)
        monkeypatch.setattr(qmod, "_SLOPPY_MASK_MAX", 12)
        if ref is None:
            assert got is None
        else:
            assert got is not None
            assert (got[0] == ref[0]).all()
            np.testing.assert_allclose(got[1], ref[1])
            checked += 1
    assert checked >= 10  # non-vacuous


def test_huge_slop_does_not_cross_documents(ray_session, tmp_path):
    """Slop is clamped below the 2^32 composite docid band: a phrase term
    that only exists in a NEIGHBOURING document must never satisfy the
    phrase (review finding: unclamped slop ≥ 2^32 defeated the guard)."""
    import ray.data

    from lucene_plugin_ray.pipelines.build import build_index
    from lucene_plugin_ray.pipelines.query import SearchEngine

    rows = [
        {"url": "a-only", "warc_ts": 1, "collection": "default",
         "text": "alpha gamma"},
        {"url": "b-only", "warc_ts": 1, "collection": "default",
         "text": "beta gamma"},
        {"url": "both", "warc_ts": 1, "collection": "default",
         "text": "alpha xx beta"},
    ]
    root = str(tmp_path / "idx")
    cfg = IndexConfig(index_root=root, num_partitions=1)
    build_index(ray.data.from_items(rows), cfg)
    eng = SearchEngine(root, cfg=cfg)
    got = eng.search('"alpha beta"~99999999999', limit=10)
    assert got["url"].to_pylist() == ["both"]


def test_sloppy_repeated_combo_cap(ray_session, tmp_path):
    """A pathological repeated-term phrase (huge slop × dense occurrences)
    is rejected loudly instead of enumerating an exponential candidate
    product."""
    import ray.data

    from lucene_plugin_ray.pipelines.build import build_index
    from lucene_plugin_ray.pipelines.query import SearchEngine

    rows = [
        {"url": "dense", "warc_ts": 1, "collection": "default",
         "text": " ".join(["alpha"] * 25)},
    ]
    root = str(tmp_path / "idx")
    cfg = IndexConfig(index_root=root, num_partitions=1)
    build_index(ray.data.from_items(rows), cfg)
    eng = SearchEngine(root, cfg=cfg)
    q = '"' + " ".join(["alpha"] * 7) + '"~1000000000'
    with pytest.raises(ValueError, match="too complex"):
        eng.search(q, limit=10)
    # the same phrase over a sparse doc stays fine
    assert eng.search('"alpha alpha"~1000000000', limit=10).num_rows == 1


def test_stop_filter_position_increments(ray_session, tmp_path):
    """Lucene StopFilter enablePositionIncrements parity, both sides.

    Doc side: a removed stop word leaves a positional HOLE, so the phrase
    '"over lazy"' (offsets 0,1) must NOT match '... over the lazy ...' at
    slop 0.  Query side: QueryParser keeps the analyzer's increments, so
    '"over the lazy"' analyzes to (over@0, lazy@2) and matches exactly the
    docs whose surviving terms sit 2 pre-filter positions apart — including
    a non-stop filler ('over brown lazy'), which Lucene treats identically
    (positions don't care WHAT consumed the slot)."""
    import ray.data

    from lucene_plugin_ray.pipelines.build import build_index
    from lucene_plugin_ray.pipelines.query import SearchEngine

    rows = [
        {"url": "stopgap", "warc_ts": 1, "collection": "default",
         "text": "jumped over the lazy dog"},     # over@1 lazy@3 (gap 2)
        {"url": "adjacent", "warc_ts": 1, "collection": "default",
         "text": "jumped over lazy dog"},         # over@1 lazy@2 (adjacent)
        {"url": "filler", "warc_ts": 1, "collection": "default",
         "text": "jumped over brown lazy dog"},   # over@1 lazy@3 (gap 2)
        {"url": "wide", "warc_ts": 1, "collection": "default",
         "text": "over of the at lazy"},          # over@0 lazy@4 (gap 4)
    ]
    root = str(tmp_path / "idx")
    cfg = IndexConfig(index_root=root, num_partitions=2)
    build_index(ray.data.from_items(rows), cfg)
    eng = SearchEngine(root, cfg=cfg)

    # slop-0 adjacency is PRE-filter adjacency now
    assert eng.search('"over lazy"')["url"].to_pylist() == ["adjacent"]
    # query-side stop word → offsets (0, 2): both gap-2 docs, nothing else
    got = set(eng.search('"over the lazy"')["url"].to_pylist())
    assert got == {"stopgap", "filler"}
    # any single stop word in the slot is equivalent ('of' == 'the')
    assert set(eng.search('"over of lazy"')["url"].to_pylist()) == got
    # sloppy: d = |gap - offset| moves; '"over lazy"~1' reaches the gap-2
    # docs at weight 1/2, '"over lazy"~3' also reaches 'wide' (d=3)
    s1 = set(eng.search('"over lazy"~1')["url"].to_pylist())
    assert s1 == {"adjacent", "stopgap", "filler"}
    s3 = set(eng.search('"over lazy"~3')["url"].to_pylist())
    assert s3 == {"adjacent", "stopgap", "filler", "wide"}
    # explain pins the sloppy weights through the gap
    ex = eng.explain('"over lazy"~1', "stopgap")
    (cl,) = ex["clauses"]
    assert cl["tf"] == pytest.approx(0.5)  # d=1 → 1/(1+1)

    # doc_len (BM25 |D|) still counts only SURVIVING tokens: 'wide' has 2
    ex_w = eng.explain("over", "wide")
    assert ex_w["doc_len"] == 2 if "doc_len" in ex_w else True


def test_phrase_offsets_parsed(ray_session):
    """Parser records pre-filter offsets, normalized to offsets[0] == 0;
    leading/trailing stop words shift nothing observable."""
    from lucene_plugin_ray.functions.queryparse import parse_query

    (c,) = parse_query('"over the lazy dog"')
    assert c.terms == ("over", "lazy", "dog")
    assert c.offsets == (0, 2, 3)
    # leading stop word: normalization keeps offsets anchored at 0
    (c,) = parse_query('"the quick fox"')
    assert c.terms == ("quick", "fox")
    assert c.offsets == (0, 1)
    # all-stop phrase still drops; single survivor still degenerates
    assert list(parse_query('"the of and"')) == []
    (c,) = parse_query('"the spark"')
    assert type(c).__name__ == "TermClause"
