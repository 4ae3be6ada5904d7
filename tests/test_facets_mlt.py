"""Field faceting (SearchEngine.facets / ShardedSearcherService.facets) and
MoreLikeThis (SearchEngine.more_like_this).

Facet counts are defined over ALL matching docs (boolean semantics of the
scoring path) and must agree with (a) a brute-force Python oracle on a fresh
index, (b) the engine's own conjunctive field queries after deltas/deletes,
and (c) the sharded service's per-shard-sum merge.  MLT must equal the
equivalent hand-built SHOULD query."""

import collections

import numpy as np
import pyarrow as pa
import pytest

from lucene_plugin_ray.config import IndexConfig
from lucene_plugin_ray.functions.analysis import analyze
from lucene_plugin_ray.pipelines.fixtures import make_delete_set, make_pages


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    from lucene_plugin_ray.pipelines.build import build_index
    from lucene_plugin_ray.pipelines.query import SearchEngine

    corpus = make_pages(300, seed=17, with_fields=True)
    root = str(tmp_path_factory.mktemp("idx_facet"))
    cfg = IndexConfig(
        index_root=root, num_partitions=6, field_columns=("lang", "foo")
    )
    build_index(corpus, cfg)
    return corpus, root, cfg, SearchEngine(root, cfg=cfg)


def _python_facets(corpus: pa.Table, query_terms: set[str], field: str):
    """Brute-force facet oracle: docs whose analyzed text hits ANY query
    term, counted once per analyzed facet-field value."""
    want: collections.Counter = collections.Counter()
    for text, fval in zip(
        corpus["text"].to_pylist(), corpus[field].to_pylist()
    ):
        if query_terms & set(analyze(text)):
            for v in set(analyze(fval)):
                want[v] += 1
    return dict(want)


def test_facets_match_python_oracle(built):
    corpus, _root, _cfg, eng = built
    got = eng.facets("pagehit", "lang")
    want = _python_facets(corpus, {"pagehit"}, "lang")
    assert dict(zip(got["value"].to_pylist(), got["count"].to_pylist())) == want
    # ordering contract: (count desc, value asc)
    rows = list(zip(got["count"].to_pylist(), got["value"].to_pylist()))
    assert rows == sorted(rows, key=lambda cv: (-cv[0], cv[1]))
    # totals agree with the search hit count (single-value facet field)
    assert sum(got["count"].to_pylist()) == eng.search(
        "pagehit", limit=10**9
    ).num_rows


def test_facets_or_query_and_multitoken_field(built):
    """The foo field analyzes to MULTIPLE tokens for some docs ('lamb
    little') — a doc must count once under EACH of its distinct values."""
    corpus, _root, _cfg, eng = built
    q = "pagehit w00001 w00002"
    got = eng.facets(q, "foo")
    want = _python_facets(corpus, set(analyze(q)), "foo")
    assert dict(zip(got["value"].to_pylist(), got["count"].to_pylist())) == want
    assert "lamb" in want and "little" in want  # multi-token values present


def test_facets_must_query(built):
    corpus, _root, _cfg, eng = built
    got = eng.facets("+pagehit +lorem", "lang")
    want: collections.Counter = collections.Counter()
    for text, lang in zip(corpus["text"].to_pylist(), corpus["lang"].to_pylist()):
        toks = set(analyze(text))
        if "pagehit" in toks and "lorem" in toks:
            for v in set(analyze(lang)):
                want[v] += 1
    assert dict(zip(got["value"].to_pylist(), got["count"].to_pylist())) == dict(
        want
    )


def test_facets_no_match_and_unknown_field(built):
    _corpus, _root, _cfg, eng = built
    empty = eng.facets("zzznope", "lang")
    assert empty.num_rows == 0
    assert empty.column_names == ["value", "count"]
    with pytest.raises(ValueError, match="no_such_field"):
        eng.facets("pagehit", "no_such_field")


def test_facets_consistent_after_delta_and_deletes(ray_session, tmp_path):
    """Across generations + tombstones, every facet count equals the hit
    count of the equivalent conjunctive field query — faceting and search
    share one notion of 'matching live doc'."""
    from lucene_plugin_ray.pipelines.build import (
        build_delta,
        build_index,
        delete_docs,
    )
    from lucene_plugin_ray.pipelines.query import SearchEngine

    corpus = make_pages(240, seed=18)
    cfg = IndexConfig(
        index_root=str(tmp_path / "idx"),
        num_partitions=5,
        field_columns=("lang",),
    )
    build_index(corpus, cfg)
    build_delta(make_pages(50, seed=19), cfg)
    delete_docs(cfg, make_delete_set(corpus, every=30))
    eng = SearchEngine(cfg.index_root, cfg=cfg)
    got = eng.facets("pagehit", "lang")
    assert got.num_rows > 0
    total = 0
    for v, c in zip(got["value"].to_pylist(), got["count"].to_pylist()):
        assert (
            eng.search(f"+pagehit +lang:{v}", limit=10**9).num_rows == c
        ), v
        total += c
    assert total == eng.search("pagehit", limit=10**9).num_rows


def test_sharded_facets_equal_single_engine(built):
    from lucene_plugin_ray.pipelines.sharded import ShardedSearcherService

    _corpus, root, cfg, eng = built
    svc = ShardedSearcherService(root, cfg=cfg, num_shards=3)
    for q, field in [
        ("pagehit", "lang"),
        ("pagehit w00001 w00002", "foo"),
        ("zzznope", "lang"),
    ]:
        assert svc.facets(q, field).equals(eng.facets(q, field)), (q, field)


# ---------------------------------------------------------------------------
# MoreLikeThis
# ---------------------------------------------------------------------------
def test_mlt_self_retrieval_and_exclusion(built):
    corpus, _root, _cfg, eng = built
    url = corpus["url"][5].as_py()
    text = corpus["text"][5].as_py()
    with_self = eng.more_like_this(text, limit=10)
    assert with_self["url"][0].as_py() == url  # the source doc ranks first
    excluded = eng.more_like_this(text, limit=10, exclude_url=url)
    assert url not in excluded["url"].to_pylist()
    assert excluded.num_rows == 10
    # exclusion only removes the source doc; the rest keep their order
    assert (
        with_self.filter(
            pa.compute.not_equal(with_self["url"], pa.scalar(url))
        )["url"].to_pylist()[:9]
        == excluded["url"].to_pylist()[:9]
    )


def test_mlt_equals_manual_should_query(built):
    """more_like_this == search() over the hand-derived top tf·idf terms —
    the term-selection stage is the ONLY thing MLT adds to the query path."""
    from lucene_plugin_ray.functions.bm25 import idf

    corpus, _root, cfg, eng = built
    text = corpus["text"][42].as_py()
    tf = collections.Counter(analyze(text))
    n_docs, _ = eng._stats("default")
    dfs = eng.local_term_dfs("default", [("text", t) for t in tf])
    weighted = sorted(
        ((tf[t] * idf(df, n_docs), t) for (_f, t), df in dfs.items() if df),
        key=lambda wt: (-wt[0], wt[1]),
    )
    for m in (5, 12):
        manual = eng.search(" ".join(t for _, t in weighted[:m]), limit=30)
        mlt = eng.more_like_this(text, max_query_terms=m, limit=30)
        assert mlt.equals(manual), m


def test_mlt_empty_and_stopword_text(built):
    _corpus, _root, _cfg, eng = built
    assert eng.more_like_this("").num_rows == 0
    assert eng.more_like_this("the and of to").num_rows == 0


# ---------------------------------------------------------------------------
# count-only and sort-by-field search
# ---------------------------------------------------------------------------
def test_count_matches_search(built):
    _corpus, _root, _cfg, eng = built
    for q in ["pagehit", "pagehit w00001 w00002", "+pagehit +lorem", "zzznope"]:
        assert eng.count(q) == eng.search(q, limit=10**9).num_rows, q


def test_count_after_deletes(ray_session, tmp_path):
    from lucene_plugin_ray.pipelines.build import build_index, delete_docs
    from lucene_plugin_ray.pipelines.query import SearchEngine

    corpus = make_pages(120, seed=23)
    cfg = IndexConfig(index_root=str(tmp_path / "idx"), num_partitions=3)
    build_index(corpus, cfg)
    pre = SearchEngine(cfg.index_root, cfg=cfg).count("pagehit")
    delete_docs(cfg, make_delete_set(corpus, every=10))
    eng = SearchEngine(cfg.index_root, cfg=cfg)
    post = eng.count("pagehit")
    assert post == eng.search("pagehit", limit=10**9).num_rows <= pre


def test_search_sorted_order_and_truncation(built):
    corpus, _root, _cfg, eng = built
    full = eng.search_sorted("pagehit", limit=10**9)
    assert full.num_rows == eng.count("pagehit")
    ts = full["warc_ts"].to_numpy()
    urls = full["url"].to_pylist()
    rows = list(zip([-t for t in ts], urls))
    assert rows == sorted(rows)  # (ts desc, url asc) total order
    # per-segment truncation merges exactly: top-k == full[:k]
    k = max(1, full.num_rows // 2)
    assert eng.search_sorted("pagehit", limit=k).equals(full.slice(0, k))
    # ascending variant reverses the ts ordering
    asc = eng.search_sorted("pagehit", limit=10**9, descending=False)
    assert asc["warc_ts"].to_pylist() == sorted(ts.tolist())
    with pytest.raises(ValueError):
        eng.search_sorted("pagehit", sort_field="lang")


def test_search_sorted_tie_breaks_by_url(ray_session, tmp_path):
    """All docs share one warc_ts — ordering must fall to url asc."""
    from lucene_plugin_ray.pipelines.build import build_index
    from lucene_plugin_ray.pipelines.query import SearchEngine

    n = 40
    pages = pa.table(
        {
            "url": pa.array([f"doc://{i:04d}" for i in range(n)], pa.string()),
            "warc_ts": pa.array([1_600_000_000_000_000] * n, pa.timestamp("us")),
            "text": pa.array([f"tiebreak filler w{i}" for i in range(n)], pa.string()),
            "lang": pa.array(["en"] * n, pa.string()),
        }
    )
    cfg = IndexConfig(index_root=str(tmp_path / "idx"), num_partitions=4)
    build_index(pages, cfg)
    eng = SearchEngine(cfg.index_root, cfg=cfg)
    got = eng.search_sorted("tiebreak", limit=10)
    assert got["url"].to_pylist() == [f"doc://{i:04d}" for i in range(10)]


# ---------------------------------------------------------------------------
# explain (per-clause score breakdown)
# ---------------------------------------------------------------------------
def test_explain_sums_to_search_score_exactly(built):
    """For every hit of every query shape, sum(clause weights) equals the
    search() score bit-for-bit (the breakdown uses the scoring path's own
    arithmetic order)."""
    _corpus, _root, _cfg, eng = built
    for q in [
        "pagehit",
        "pagehit w00001 w00002",
        "+pagehit +lorem",
        "+w00000 +w00001",  # Zipf-head words: the MUST path always hits
        "lang:en",
        "pagehi*",
        "pagehot~1",
    ]:
        res = eng.search(q, limit=5)
        if res.num_rows == 0:
            continue  # e.g. the AND pair may not co-occur in this fixture
        for url, score in zip(res["url"].to_pylist(), res["score"].to_pylist()):
            ex = eng.explain(q, url)
            assert ex["matched"] is True
            assert ex["score"] == score, (q, url)
            assert sum(c["weight"] for c in ex["clauses"]) == score


def test_explain_non_matching_and_must_failure(built):
    corpus, _root, _cfg, eng = built
    # a doc that matches 'pagehit' but (almost surely) not some rare term:
    hit_url = eng.search("pagehit", limit=1)["url"][0].as_py()
    ex = eng.explain("+pagehit +zzznope", hit_url)
    assert ex["matched"] is False and ex["score"] == 0.0
    kinds = [(c["kind"], c["tf"]) for c in ex["clauses"]]
    assert kinds[0][1] > 0 and kinds[1][1] == 0  # first MUST hit, second missed
    # non-matching OR: matched False
    ex2 = eng.explain("zzznope", hit_url)
    assert ex2["matched"] is False and ex2["score"] == 0.0
    with pytest.raises(KeyError):
        eng.explain("pagehit", "https://no-such-doc.example/")


def test_explain_phrase_clause(built):
    _corpus, _root, _cfg, eng = built
    res = eng.search('"pagehit marker"', limit=3)
    if res.num_rows == 0:
        pytest.skip("fixture lacks the adjacent pair")
    url, score = res["url"][0].as_py(), res["score"][0].as_py()
    ex = eng.explain('"pagehit marker"', url)
    assert ex["score"] == score
    (cl,) = ex["clauses"]
    assert cl["kind"] == "phrase" and cl["tf"] >= 1 and cl["idf"] > 0


# ---------------------------------------------------------------------------
# suggest (spell correction) and date_histogram
# ---------------------------------------------------------------------------
def test_suggest_ranking_and_liveness(ray_session, tmp_path):
    """Candidates ranked (distance asc, df desc, term asc); df tracks the
    LIVE corpus after deletes."""
    from lucene_plugin_ray.pipelines.build import build_index, delete_docs
    from lucene_plugin_ray.pipelines.query import SearchEngine

    texts = (
        ["spark engine"] * 6 + ["spork utensil"] * 3 + ["stark contrast"] * 3
        + ["spars rigging"] * 2 + ["unrelated filler"] * 4
    )
    n = len(texts)
    pages = pa.table(
        {
            "url": pa.array([f"doc://{i:04d}" for i in range(n)], pa.string()),
            "warc_ts": pa.array(
                [1_600_000_000_000_000 + i for i in range(n)],
                pa.timestamp("us"),
            ),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * n, pa.string()),
        }
    )
    cfg = IndexConfig(index_root=str(tmp_path / "idx"), num_partitions=3)
    build_index(pages, cfg)
    eng = SearchEngine(cfg.index_root, cfg=cfg)
    got = eng.suggest("spakr", max_edits=2, k=10)
    rows = list(zip(got["term"].to_pylist(), got["distance"].to_pylist(),
                    got["df"].to_pylist()))
    # DL('spakr','spark')=1 (transposition); spars/spork/stark are 2
    assert rows[0] == ("spark", 1, 6)
    assert [r[0] for r in rows[1:]] == ["spork", "stark", "spars"]
    assert [r[1] for r in rows[1:]] == [2, 2, 2]
    assert [r[2] for r in rows[1:]] == [3, 3, 2]  # df desc within distance
    # probe present in the index → distance 0 first
    assert eng.suggest("spark")["distance"][0].as_py() == 0
    # deletes change df
    delete_docs(cfg, pa.table({
        "collection": pa.array(["default"] * 4, pa.string()),
        "url": pa.array([f"doc://{i:04d}" for i in range(4)], pa.string()),
    }))
    eng2 = SearchEngine(cfg.index_root, cfg=cfg)
    got2 = eng2.suggest("spakr", max_edits=2, k=10)
    assert got2["term"][0].as_py() == "spark" and got2["df"][0].as_py() == 2
    with pytest.raises(ValueError):
        eng.suggest("spakr", k=0)
    with pytest.raises(ValueError):
        eng.suggest("spakr", max_edits=3)  # DirectSpellChecker bound


def test_date_histogram_counts(built):
    _corpus, _root, _cfg, eng = built
    h = eng.date_histogram("pagehit", interval_us=60_000_000)
    assert sum(h["count"].to_pylist()) == eng.count("pagehit")
    starts = h["bucket_start_us"].to_pylist()
    assert starts == sorted(starts)
    assert all(s % 60_000_000 == 0 for s in starts)
    assert eng.date_histogram("zzznope").num_rows == 0
    with pytest.raises(ValueError):
        eng.date_histogram("pagehit", interval_us=0)


def test_sharded_count_sorted_suggest_equal_single_engine(built):
    """The round-3 read surface through the sharded service equals the
    single whole-index engine exactly."""
    from lucene_plugin_ray.pipelines.sharded import ShardedSearcherService

    _corpus, root, cfg, eng = built
    svc = ShardedSearcherService(root, cfg=cfg, num_shards=3)
    for q in ["pagehit", "pagehit w00001 w00002", "zzznope"]:
        assert svc.count(q) == eng.count(q), q
        for desc in (True, False):
            a = svc.search_sorted(q, limit=7, descending=desc)
            b = eng.search_sorted(q, limit=7, descending=desc)
            assert a.equals(b), (q, desc)
    assert svc.suggest("pagehti", k=5).equals(eng.suggest("pagehti", k=5))
    assert svc.suggest("zzzzzz", k=5).num_rows == eng.suggest("zzzzzz", k=5).num_rows


def test_sharded_mlt_equals_single_engine(built):
    from lucene_plugin_ray.pipelines.sharded import ShardedSearcherService

    corpus, root, cfg, eng = built
    svc = ShardedSearcherService(root, cfg=cfg, num_shards=3)
    text = corpus["text"][42].as_py()
    url = corpus["url"][42].as_py()
    for m, lim, excl in [(8, 12, None), (5, 6, url)]:
        a = svc.more_like_this(
            text, max_query_terms=m, limit=lim, exclude_url=excl
        )
        # full-schema identity incl. docid (the terms travel as structured
        # TermClauses — no re-parse of a whitespace join on the actor side)
        b = eng.more_like_this(
            text, max_query_terms=m, limit=lim, exclude_url=excl
        ).select(["url", "score", "docid"])
        assert a.equals(b), (m, lim, excl)
    assert svc.more_like_this("").num_rows == 0
    with pytest.raises(ValueError, match="max_query_terms"):
        svc.more_like_this(text, max_query_terms=0)
    with pytest.raises(ValueError, match="max_query_terms"):
        eng.more_like_this(text, max_query_terms=-3)


# ---------------------------------------------------------------------------
# snippets (highlighting)
# ---------------------------------------------------------------------------
def test_snippets_hand_picked(ray_session, tmp_path):
    """Window selection pinned by hand: best window maximizes distinct
    scored query terms, ties break earliest, start is 1-based, snippet is
    the analyzed window joined by spaces."""
    import ray.data

    from lucene_plugin_ray.pipelines.build import build_index
    from lucene_plugin_ray.pipelines.query import SearchEngine

    rows = [
        # alpha at tok 1; [beta gamma] at toks 7-8 → the best window of 3
        # contains both; starts 6 ([x5 beta gamma]) and 7 tie at 2 distinct
        # terms, so the EARLIEST (6) wins — not the alpha prefix
        {"url": "u1", "warc_ts": 1, "collection": "default",
         "text": "alpha x1 x2 x3 x4 x5 beta gamma x6"},
        # all three terms adjacent at the tail
        {"url": "u2", "warc_ts": 1, "collection": "default",
         "text": "y1 y2 alpha beta gamma"},
        # only alpha, twice — n_terms counts DISTINCT terms (1), earliest
        # covering window wins (start 1)
        {"url": "u3", "warc_ts": 1, "collection": "default",
         "text": "alpha z1 alpha z2 z3"},
        {"url": "u4", "warc_ts": 1, "collection": "default",
         "text": "nothing relevant here"},
    ]
    root = str(tmp_path / "idx")
    cfg = IndexConfig(index_root=root, num_partitions=2)
    build_index(ray.data.from_items(rows), cfg)
    eng = SearchEngine(root, cfg=cfg)
    texts = pa.table(
        {
            "url": [r["url"] for r in rows],
            "text": [r["text"] for r in rows],
        }
    )
    t = eng.snippets("alpha beta gamma", texts, k=10, window=3)
    by = {u: i for i, u in enumerate(t["url"].to_pylist())}
    assert set(by) == {"u1", "u2", "u3"}  # u4 matches nothing
    assert t["start"][by["u1"]].as_py() == 6
    assert t["n_terms"][by["u1"]].as_py() == 2
    assert t["snippet"][by["u1"]].as_py() == "x5 beta gamma"
    assert t["n_terms"][by["u2"]].as_py() == 3
    assert t["snippet"][by["u2"]].as_py() == "alpha beta gamma"
    assert t["start"][by["u3"]].as_py() == 1
    assert t["n_terms"][by["u3"]].as_py() == 1
    # rank order preserved (score desc, url asc): u2 has all three terms
    assert t["url"][0].as_py() == "u2"
    # window larger than the doc clamps to the whole doc
    t2 = eng.snippets("alpha", texts, k=10, window=50)
    u3row = {u: i for i, u in enumerate(t2["url"].to_pylist())}["u3"]
    assert t2["snippet"][u3row].as_py() == "alpha z1 alpha z2 z3"
    # k truncation
    assert eng.snippets("alpha beta gamma", texts, k=1, window=3).num_rows == 1
    # missing text for a hit → loud
    with pytest.raises(ValueError, match="missing"):
        eng.snippets("alpha", texts.slice(1), k=10, window=3)
    with pytest.raises(ValueError, match="window"):
        eng.snippets("alpha", texts, window=0)
    # no hits → schema'd empty table
    empty = eng.snippets("absentterm", texts)
    assert empty.num_rows == 0 and "snippet" in empty.column_names


def test_complete_ranking_liveness_and_sharded(ray_session, tmp_path):
    """Prefix autocompletion: (df desc, term asc) rank, analyzer-lowercased
    probe, live df after deletes, k truncation, loud empty-prefix/bad-k;
    sharded service returns the identical table."""
    from lucene_plugin_ray.pipelines.build import build_index, delete_docs
    from lucene_plugin_ray.pipelines.query import SearchEngine
    from lucene_plugin_ray.pipelines.sharded import ShardedSearcherService

    texts = (
        ["spark engine"] * 6 + ["spork utensil"] * 3 + ["spark spar"] * 2
        + ["spain travel"] * 3 + ["unrelated filler"] * 4
    )
    n = len(texts)
    pages = pa.table(
        {
            "url": pa.array([f"doc://{i:04d}" for i in range(n)], pa.string()),
            "warc_ts": pa.array(
                [1_600_000_000_000_000 + i for i in range(n)],
                pa.timestamp("us"),
            ),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * n, pa.string()),
        }
    )
    cfg = IndexConfig(index_root=str(tmp_path / "idx"), num_partitions=3)
    build_index(pages, cfg)
    eng = SearchEngine(cfg.index_root, cfg=cfg)
    got = eng.complete("sp", k=10)
    rows = list(zip(got["term"].to_pylist(), got["df"].to_pylist()))
    # df: spark 8 (6+2), spain 3, spork 3, spar 2 — ties on df → term asc
    assert rows == [("spark", 8), ("spain", 3), ("spork", 3), ("spar", 2)]
    # k truncation + case-folded probe
    assert eng.complete("SP", k=2).to_pylist() == [
        {"term": "spark", "df": 8}, {"term": "spain", "df": 3}
    ]
    # no match → empty table with the right schema
    empty = eng.complete("zz")
    assert empty.num_rows == 0 and empty.schema.names == ["term", "df"]
    # sharded identity
    svc = ShardedSearcherService(cfg.index_root, cfg=cfg, num_shards=2)
    assert svc.complete("sp", k=10).equals(got)
    # liveness: deletes drop df
    delete_docs(cfg, pa.table({
        "collection": pa.array(["default"] * 6, pa.string()),
        "url": pa.array([f"doc://{i:04d}" for i in range(6)], pa.string()),
    }))
    eng2 = SearchEngine(cfg.index_root, cfg=cfg)
    got2 = eng2.complete("spark", k=5)
    assert got2.to_pylist() == [{"term": "spark", "df": 2}]
    with pytest.raises(ValueError):
        eng.complete("")
    with pytest.raises(ValueError):
        eng.complete("  ")
    with pytest.raises(ValueError):
        eng.complete("sp", k=0)


def test_search_grouped_semantics_and_sharded(ray_session, tmp_path):
    """Lucene TopGroups analogue: groups ranked by their head doc under the
    (score desc, url asc) total order, per-group doc truncation, exact
    python-oracle comparison, sharded-service identity, validation."""
    import datetime as dt

    from lucene_plugin_ray.pipelines.build import build_index
    from lucene_plugin_ray.pipelines.query import SearchEngine
    from lucene_plugin_ray.pipelines.sharded import ShardedSearcherService

    ts = dt.datetime(2026, 1, 1)
    texts = [
        "alpha alpha alpha",      # en: strongest
        "alpha beta",             # en
        "alpha",                  # de
        "beta beta",              # de (no alpha)
        "alpha alpha",            # fr
        "gamma",                  # fr (no alpha)
        "alpha beta beta",        # en
    ]
    langs = ["en", "en", "de", "de", "fr", "fr", "en"]
    n = len(texts)
    pages = pa.table(
        {
            "url": pa.array([f"doc://{i}" for i in range(n)], pa.string()),
            "warc_ts": pa.array([ts] * n, pa.timestamp("us")),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs, pa.string()),
        }
    )
    root = str(tmp_path / "grp")
    cfg = IndexConfig(index_root=root, num_partitions=3, field_columns=("lang",))
    build_index(pages, cfg)
    eng = SearchEngine(root, cfg=cfg)

    got = eng.search_grouped("alpha", "lang", group_limit=10, docs_per_group=2)
    # python oracle from the flat search results + doc langs
    flat = {r["url"]: r["score"]
            for r in eng.search("alpha", limit=10**9).to_pylist()}
    by_lang: dict[str, list] = {}
    for i, u in enumerate(f"doc://{i}" for i in range(n)):
        if u in flat:
            by_lang.setdefault(langs[i], []).append((u, flat[u]))
    exp_groups = []
    for g, docs in by_lang.items():
        docs.sort(key=lambda x: (-x[1], x[0]))
        exp_groups.append((g, docs[:2]))
    exp_groups.sort(key=lambda gr: (-gr[1][0][1], gr[1][0][0]))
    exp_rows = [
        (g, gi + 1, u, s)
        for gi, (g, docs) in enumerate(exp_groups)
        for u, s in docs
    ]
    got_rows = [
        (r["group"], r["group_rank"], r["url"], r["score"])
        for r in got.to_pylist()
    ]
    assert [(g, gr, u) for g, gr, u, _ in got_rows] == [
        (g, gr, u) for g, gr, u, _ in exp_rows
    ]
    for (_, _, _, a), (_, _, _, b) in zip(got_rows, exp_rows):
        assert abs(a - b) < 1e-12
    # group_limit truncation keeps the best-headed groups
    top1 = eng.search_grouped("alpha", "lang", group_limit=1, docs_per_group=2)
    assert set(top1["group"].to_pylist()) == {exp_groups[0][0]}
    # sharded identity
    svc = ShardedSearcherService(root, cfg=cfg, num_shards=2)
    sh = svc.search_grouped("alpha", "lang", group_limit=10, docs_per_group=2)
    assert sh.equals(got)
    # validation
    with pytest.raises(ValueError, match="not an indexed metadata"):
        eng.search_grouped("alpha", "nope")
    with pytest.raises(ValueError):
        eng.search_grouped("alpha", "lang", group_limit=0)
    with pytest.raises(ValueError):
        eng.search_grouped("alpha", "lang", docs_per_group=0)
    # no matches → empty with schema
    empty = eng.search_grouped("zzznope", "lang")
    assert empty.num_rows == 0 and empty.schema.names == [
        "group", "group_rank", "url", "score", "docid"
    ]


def test_facets_stats_semantics_and_sharded(ray_session, tmp_path):
    """Numeric facet aggregation: per-bucket count/min/max/sum of doc_len or
    warc_ts over the match set, integer-exact; sharded partials fold to the
    identical table; unknown value_source rejected."""
    import datetime as dt

    from lucene_plugin_ray.pipelines.build import build_index
    from lucene_plugin_ray.pipelines.query import SearchEngine
    from lucene_plugin_ray.pipelines.sharded import ShardedSearcherService

    texts = ["alpha beta", "alpha", "alpha beta gamma delta", "beta", "alpha x y"]
    langs = ["en", "en", "de", "de", "fr"]
    n = len(texts)
    base = dt.datetime(2026, 1, 1)
    pages = pa.table(
        {
            "url": pa.array([f"doc://{i}" for i in range(n)], pa.string()),
            "warc_ts": pa.array(
                [base + dt.timedelta(seconds=i) for i in range(n)],
                pa.timestamp("us"),
            ),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs, pa.string()),
        }
    )
    root = str(tmp_path / "fstats")
    cfg = IndexConfig(index_root=root, num_partitions=2, field_columns=("lang",))
    build_index(pages, cfg)
    eng = SearchEngine(root, cfg=cfg)
    got = eng.facets_stats("alpha", "lang", value_source="doc_len")
    # matches: docs 0,1 (en: dl 2,1), 2 (de: dl 4), 4 (fr: dl 3)
    assert got.to_pylist() == [
        {"value": "de", "count": 1, "vmin": 4, "vmax": 4, "vsum": 4},
        {"value": "en", "count": 2, "vmin": 1, "vmax": 2, "vsum": 3},
        {"value": "fr", "count": 1, "vmin": 3, "vmax": 3, "vsum": 3},
    ]
    # warc_ts source: integer epoch-µs
    ts = eng.facets_stats("alpha", "lang", value_source="warc_ts")
    epoch = int(base.timestamp()) * 1_000_000
    en = [r for r in ts.to_pylist() if r["value"] == "en"][0]
    assert en["vmin"] == epoch and en["vmax"] == epoch + 1_000_000
    assert en["vsum"] == en["vmin"] + en["vmax"]
    # sharded identity
    svc = ShardedSearcherService(root, cfg=cfg, num_shards=2)
    assert svc.facets_stats("alpha", "lang").equals(got)
    with pytest.raises(ValueError, match="value_source"):
        eng.facets_stats("alpha", "lang", value_source="nope")
    # no matches → empty
    assert eng.facets_stats("zzznope", "lang").num_rows == 0


def test_complete_infix_ranking_liveness_and_sharded(ray_session, tmp_path):
    """Infix autocompletion (AnalyzingInfixSuggester analogue): substring
    match anywhere in the term, (df desc, term asc) rank, live df after
    deletes, k truncation, loud empty-fragment/bad-k/bad-field; sharded
    identity; superset-of-prefix relation pinned."""
    from lucene_plugin_ray.pipelines.build import build_index, delete_docs
    from lucene_plugin_ray.pipelines.query import SearchEngine
    from lucene_plugin_ray.pipelines.sharded import ShardedSearcherService

    texts = (
        ["spark engine"] * 6 + ["parking meter"] * 3 + ["carpark level"] * 2
        + ["spain travel"] * 3 + ["unrelated filler"] * 4
    )
    n = len(texts)
    pages = pa.table(
        {
            "url": pa.array([f"doc://{i:04d}" for i in range(n)], pa.string()),
            "warc_ts": pa.array(
                [1_600_000_000_000_000 + i for i in range(n)],
                pa.timestamp("us"),
            ),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(["en"] * n, pa.string()),
        }
    )
    cfg = IndexConfig(index_root=str(tmp_path / "idx_inf"), num_partitions=3)
    build_index(pages, cfg)
    eng = SearchEngine(cfg.index_root, cfg=cfg)
    got = eng.complete_infix("park", k=10)
    rows = list(zip(got["term"].to_pylist(), got["df"].to_pylist()))
    # 'park' matches spark(6), parking(3), carpark(2) — NOT spain
    assert rows == [("spark", 6), ("parking", 3), ("carpark", 2)]
    # case-folded probe + k truncation
    assert eng.complete_infix("PARK", k=1).to_pylist() == [
        {"term": "spark", "df": 6}
    ]
    # infix ⊇ prefix for the same probe
    pre = {r["term"] for r in eng.complete("park", k=100).to_pylist()}
    inf = {r["term"] for r in eng.complete_infix("park", k=100).to_pylist()}
    assert pre <= inf and "spark" in inf - pre
    # no match → empty, right schema
    empty = eng.complete_infix("zzqq")
    assert empty.num_rows == 0 and empty.schema.names == ["term", "df"]
    # sharded identity
    svc = ShardedSearcherService(cfg.index_root, cfg=cfg, num_shards=2)
    assert svc.complete_infix("park", k=10).equals(got)
    with pytest.raises(ValueError):
        svc.complete_infix("")
    with pytest.raises(ValueError):
        svc.complete_infix("park", field="nope")
    # liveness: delete all six spark docs → df drops out
    delete_docs(cfg, pa.table({
        "collection": pa.array(["default"] * 6, pa.string()),
        "url": pa.array([f"doc://{i:04d}" for i in range(6)], pa.string()),
    }))
    eng2 = SearchEngine(cfg.index_root, cfg=cfg)
    got2 = eng2.complete_infix("park", k=10)
    assert got2.to_pylist() == [
        {"term": "parking", "df": 3}, {"term": "carpark", "df": 2}
    ]
    with pytest.raises(ValueError):
        eng.complete_infix("")
    with pytest.raises(ValueError):
        eng.complete_infix("park", k=0)
    with pytest.raises(ValueError):
        eng.complete_infix("park", field="nope")


def test_more_like_this_url_like_doc_form(ray_session, tmp_path):
    """like(docId): indexed tfs == analyzed tfs for a live doc, so the
    like-text and like-doc forms are bit-identical; not-live raises;
    include_self keeps the source; sharded twin identical."""
    from lucene_plugin_ray.pipelines.build import build_index
    from lucene_plugin_ray.pipelines.query import SearchEngine
    from lucene_plugin_ray.pipelines.sharded import ShardedSearcherService

    pages = make_pages(250, seed=13)
    cfg = IndexConfig(index_root=str(tmp_path / "idx"), num_partitions=3)
    build_index(pages, cfg)
    eng = SearchEngine(cfg.index_root, cfg=cfg)
    url = pages["url"][7].as_py()
    text = pages["text"][7].as_py()
    a = eng.more_like_this_url(url, max_query_terms=10, limit=50)
    b = eng.more_like_this(text, max_query_terms=10, limit=50,
                           exclude_url=url)
    assert a["url"].to_pylist() == b["url"].to_pylist()
    assert a["score"].to_pylist() == b["score"].to_pylist()
    assert url not in a["url"].to_pylist()
    # include_self puts the source back (it scores highest on its own terms)
    c = eng.more_like_this_url(url, max_query_terms=10, limit=50,
                               include_self=True)
    assert url in c["url"].to_pylist()
    with pytest.raises(KeyError):
        eng.more_like_this_url("doc://not-there")
    with pytest.raises(ValueError):
        eng.more_like_this_url(url, max_query_terms=0)
    svc = ShardedSearcherService(cfg.index_root, cfg=cfg, num_shards=3)
    try:
        d = svc.more_like_this_url(url, max_query_terms=10, limit=50)
        assert d["url"].to_pylist() == a["url"].to_pylist()
        assert d["score"].to_pylist() == a["score"].to_pylist()
    finally:
        svc.shutdown()


def test_more_like_this_id_http_round_trip(ray_session, tmp_path):
    import urllib.error
    import urllib.parse
    import urllib.request

    from lucene_plugin_ray.server import LuceneHttpClient, LuceneHttpService

    svc = LuceneHttpService(
        IndexConfig(index_root=str(tmp_path / "idx2"), num_partitions=2),
        host="127.0.0.1", port=0,
    ).start()
    try:
        c = LuceneHttpClient(svc.url)
        c.index_text("col", "a", "alpha beta gamma delta")
        c.index_text("col", "b", "alpha beta gamma other")
        c.index_text("col", "c", "unrelated words here")
        rows = c.more_like_this_id("col", "a", max_query_terms=5)
        assert [r["_externalId"] for r in rows][0] == "b"
        assert "a" not in {r["_externalId"] for r in rows}
        try:
            urllib.request.urlopen(
                f"{svc.url}/more-like-this-id?"
                + urllib.parse.urlencode({"collection": "col", "id": "zz"})
            )
            assert False, "expected 400"
        except urllib.error.HTTPError as e:
            assert e.code == 400
    finally:
        svc.shutdown()
