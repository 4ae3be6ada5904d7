"""CommonTermsQuery + BoostingQuery (Lucene queries module analogues):
the dynamic-stop-word split and the context-demotion pair, with sharded /
facade / HTTP parity."""

import numpy as np
import pyarrow as pa
import pytest

from lucene_plugin_ray.config import IndexConfig
from lucene_plugin_ray.functions.analysis import analyze
from lucene_plugin_ray.pipelines.fixtures import make_pages


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    from lucene_plugin_ray.pipelines.build import build_index
    from lucene_plugin_ray.pipelines.query import SearchEngine

    root = str(tmp_path_factory.mktemp("idx_cb"))
    cfg = IndexConfig(index_root=root, num_partitions=3)
    build_index(make_pages(400, seed=31), cfg)
    return root, cfg, SearchEngine(root, cfg=cfg)


def _df_of(eng, term):
    return eng.count(term)


def test_common_terms_split_matches_bruteforce(built):
    """Pick a cutoff BETWEEN two query-term dfs, then: match set = docs
    with >= 1 low term; scores = the full OR sums on those docs
    (MUST(low-SHOULD-group) + SHOULD(high-group) semantics)."""
    _root, _cfg, eng = built
    q = "w00000 w00001 w00005"
    dfs = sorted(_df_of(eng, t) for t in q.split())
    assert dfs[0] < dfs[-1], "fixture dfs must differ for a real split"
    cutoff_abs = float(dfs[0])  # lowest-df term low, the rest high
    got = eng.search_common(q, max_term_frequency=cutoff_abs, limit=10**9)
    full = eng.search("w00000 w00001 w00005", limit=10**9)
    full_map = dict(zip(full["url"].to_pylist(), full["score"].to_pylist()))
    low_terms = [t for t in q.split() if _df_of(eng, t) <= cutoff_abs]
    assert low_terms and len(low_terms) < 3
    low_docs = set()
    for t in low_terms:
        low_docs |= set(eng.search(t, limit=10**9)["url"].to_pylist())
    got_map = dict(zip(got["url"].to_pylist(), got["score"].to_pylist()))
    assert set(got_map) == low_docs
    for u, s in got_map.items():
        assert s == full_map[u], u  # scores ARE the full OR sums


def test_common_terms_degenerate_sides_equal_plain_or(built):
    """All-low (cutoff above every df) and all-high (cutoff below every
    df) both rewrite to the plain SHOULD group — bit-identical to
    search()."""
    _root, _cfg, eng = built
    q = "w00000 w00001"
    plain = eng.search(q, limit=255)
    for mtf in (1_000_000.0, 1.0):  # everything low / everything high
        t = eng.search_common(q, max_term_frequency=mtf, limit=255)
        assert t["url"].to_pylist() == plain["url"].to_pylist(), mtf
        assert t["score"].to_pylist() == plain["score"].to_pylist(), mtf


def test_common_terms_fractional_vs_absolute_cutoff(built):
    """max_term_frequency >= 1 is an absolute df, < 1 a fraction of the
    doc count — Lucene's dual convention."""
    _root, _cfg, eng = built
    stats = eng.index_stats()
    n = stats.filter(
        pa.compute.equal(pa.compute.field("field"), "text")
    )["docs_alive"][0].as_py()
    df0 = _df_of(eng, "w00000")
    # (df0 + 0.5)/n: the float round trip lands strictly between the
    # integer dfs, so the fractional cutoff selects the same split as the
    # absolute one (df0/n itself could round a hair BELOW df0)
    frac = eng.search_common(
        "w00000 w00001", max_term_frequency=(df0 + 0.5) / n, limit=10**9
    )
    absolute = eng.search_common(
        "w00000 w00001", max_term_frequency=float(df0), limit=10**9
    )
    assert frac["url"].to_pylist() == absolute["url"].to_pylist()
    assert frac["score"].to_pylist() == absolute["score"].to_pylist()


def test_common_terms_validation(built):
    _root, _cfg, eng = built
    with pytest.raises(ValueError, match="plain unboosted"):
        eng.search_common("+w00000 w00001")
    with pytest.raises(ValueError, match="plain unboosted"):
        eng.search_common('"w00000 w00001"')
    with pytest.raises(ValueError, match="plain unboosted"):
        eng.search_common("w00000^2")
    with pytest.raises(ValueError, match="must be positive"):
        eng.search_common("w00000", max_term_frequency=0)
    with pytest.raises(ValueError, match="limit must be positive"):
        eng.search_common("w00000", limit=0)


def test_boosting_matches_bruteforce(built):
    """Positive hits with scores x demote where the negative matches —
    demoted docs STAY in the results (context demotion, not exclusion)."""
    _root, _cfg, eng = built
    pos = eng.search("w00000 w00001", limit=10**9)
    neg_docs = set(eng.search("w00002", limit=10**9)["url"].to_pylist())
    got = eng.search_boosting(
        "w00000 w00001", "w00002", demote=0.25, limit=10**9
    )
    exp = {
        u: (s * 0.25 if u in neg_docs else s)
        for u, s in zip(pos["url"].to_pylist(), pos["score"].to_pylist())
    }
    got_map = dict(zip(got["url"].to_pylist(), got["score"].to_pylist()))
    assert got_map == exp
    assert set(got_map) & neg_docs, "demotion must be non-vacuous"
    pairs = list(zip(got["score"].to_pylist(), got["url"].to_pylist()))
    assert pairs == sorted(pairs, key=lambda x: (-x[0], x[1]))


def test_boosting_absent_negative_is_plain_search(built):
    _root, _cfg, eng = built
    a = eng.search_boosting("w00000", "zzznope", demote=0.5, limit=255)
    b = eng.search("w00000", limit=255)
    assert a["url"].to_pylist() == b["url"].to_pylist()
    assert a["score"].to_pylist() == b["score"].to_pylist()


def test_boosting_validation(built):
    _root, _cfg, eng = built
    for demote in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError, match="demote"):
            eng.search_boosting("w00000", "w00001", demote=demote)
    with pytest.raises(ValueError, match="at least one clause"):
        eng.search_boosting("w00000", "the")  # stopword-only negative


def test_common_boosting_sharded_identity(built):
    from lucene_plugin_ray.pipelines.sharded import ShardedSearcherService

    root, cfg, eng = built
    df0 = float(_df_of(eng, "w00000"))
    for shards in (1, 3):
        svc = ShardedSearcherService(root, cfg=cfg, num_shards=shards)
        try:
            for limit in (5, 1_000_000):
                a = eng.search_common(
                    "w00000 w00001 w00005", max_term_frequency=df0,
                    limit=limit,
                )
                b = svc.search_common(
                    "w00000 w00001 w00005", max_term_frequency=df0,
                    limit=limit,
                )
                assert a["url"].to_pylist() == b["url"].to_pylist()
                assert a["score"].to_pylist() == b["score"].to_pylist()
                c = eng.search_boosting(
                    "w00000 w00001", "w00002", demote=0.25, limit=limit
                )
                d = svc.search_boosting(
                    "w00000 w00001", "w00002", demote=0.25, limit=limit
                )
                assert c["url"].to_pylist() == d["url"].to_pylist()
                assert c["score"].to_pylist() == d["score"].to_pylist()
            with pytest.raises(ValueError):
                svc.search_common("+w00000 w00001")
            with pytest.raises(ValueError):
                svc.search_boosting("w00000", "w00001", demote=1.5)
        finally:
            svc.shutdown()


def test_common_boosting_http_round_trip(ray_session, tmp_path):
    import urllib.error
    import urllib.parse
    import urllib.request

    from lucene_plugin_ray.server import LuceneHttpClient, LuceneHttpService

    svc = LuceneHttpService(
        IndexConfig(index_root=str(tmp_path / "idx"), num_partitions=2),
        host="127.0.0.1", port=0,
    ).start()
    try:
        c = LuceneHttpClient(svc.url)
        c.index_text("col", "a", "alpha beta noise")
        c.index_text("col", "b", "alpha noise")
        c.index_text("col", "c", "noise other")
        # df: noise 3, alpha 2, beta 1 — absolute cutoff 2 → noise high
        rows = c.search_common("col", "alpha beta noise",
                               max_term_frequency=2.0)
        assert {r["_externalId"] for r in rows} == {"a", "b"}  # not 'c'
        fac = svc.facade.search_common("col", "alpha beta noise",
                                       max_term_frequency=2.0)
        assert [r["_score"] for r in rows] == [e.score for e in fac]

        bo = c.search_boosting("col", "alpha", "beta", demote=0.5)
        assert {r["_externalId"] for r in bo} == {"a", "b"}
        assert bo[0]["_externalId"] == "b"  # 'a' demoted below 'b'

        def _status(op, params):
            try:
                urllib.request.urlopen(
                    f"{svc.url}/{op}?" + urllib.parse.urlencode(params)
                )
                return 200
            except urllib.error.HTTPError as e:
                return e.code

        assert _status("search-common",
                       {"collection": "col", "query": "+alpha beta"}) == 400
        assert _status("search-common",
                       {"collection": "col", "query": "alpha",
                        "max_term_frequency": "x"}) == 400
        assert _status("search-boosting",
                       {"collection": "col", "positive_query": "alpha",
                        "negative_query": "beta", "demote": "2.0"}) == 400
        assert _status("search-boosting",
                       {"collection": "col", "positive_query": "alpha",
                        "negative_query": "beta", "demote": "x"}) == 400
    finally:
        svc.shutdown()


# -------------------------------------------- diversified top-k -------------


@pytest.fixture(scope="module")
def div_built(ray_session, tmp_path_factory):
    from lucene_plugin_ray.pipelines.build import build_index
    from lucene_plugin_ray.pipelines.query import SearchEngine

    root = str(tmp_path_factory.mktemp("idx_div"))
    cfg = IndexConfig(index_root=root, num_partitions=3,
                      field_columns=("foo",))
    corpus = make_pages(300, seed=7, with_fields=True)
    # blank out foo on a slice so missing-key docs exist
    import pyarrow.compute as pc_

    foo = corpus["foo"].to_pylist()
    for i in range(0, len(foo), 9):
        foo[i] = ""
    corpus = corpus.set_column(
        corpus.schema.get_field_index("foo"), "foo",
        pa.array(foo, pa.string()),
    )
    build_index(corpus, cfg)
    return root, cfg, SearchEngine(root, cfg=cfg)


def test_diversified_matches_greedy_bruteforce(div_built):
    """Greedy per-key cap over the (score desc, url asc) order; missing
    keys unconstrained."""
    _root, _cfg, eng = div_built
    q = "w00001 w00002"
    full = eng.search(q, limit=10**9)
    kt = eng.search_sorted_by(q, [("foo", "asc")], limit=10**9)
    key_of = dict(zip(kt["url"].to_pylist(), kt["foo"].to_pylist()))
    for cap in (1, 2, 5):
        got = eng.search_diversified(q, "foo", max_per_key=cap, limit=10**9)
        seen: dict = {}
        exp = []
        for u, s in sorted(
            zip(full["url"].to_pylist(), full["score"].to_pylist()),
            key=lambda x: (-x[1], x[0]),
        ):
            k = key_of[u]
            if k is None or seen.get(k, 0) < cap:
                exp.append((u, s, k))
                if k is not None:
                    seen[k] = seen.get(k, 0) + 1
        assert list(zip(got["url"].to_pylist(), got["score"].to_pylist(),
                        got["key"].to_pylist())) == exp, cap
        # per-key counts respect the cap; null keys escape it
        counts: dict = {}
        for k in got["key"].to_pylist():
            if k is not None:
                counts[k] = counts.get(k, 0) + 1
        assert all(v <= cap for v in counts.values())
    assert None in set(
        eng.search_diversified(q, "foo", max_per_key=1, limit=10**9)[
            "key"
        ].to_pylist()
    ), "missing-key docs must appear (unconstrained)"


def test_diversified_huge_cap_is_plain_search(div_built):
    _root, _cfg, eng = div_built
    a = eng.search_diversified("w00001", "foo", max_per_key=10**6, limit=255)
    b = eng.search("w00001", limit=255)
    assert a["url"].to_pylist() == b["url"].to_pylist()
    assert a["score"].to_pylist() == b["score"].to_pylist()


def test_diversified_truncation_and_validation(div_built):
    _root, _cfg, eng = div_built
    full = eng.search_diversified("w00001", "foo", max_per_key=2, limit=10**9)
    top5 = eng.search_diversified("w00001", "foo", max_per_key=2, limit=5)
    assert top5.equals(full.slice(0, 5))
    with pytest.raises(ValueError, match="tokenized text"):
        eng.search_diversified("w00001", "text")
    with pytest.raises(ValueError, match="not an indexed"):
        eng.search_diversified("w00001", "nope")
    with pytest.raises(ValueError, match="max_per_key"):
        eng.search_diversified("w00001", "foo", max_per_key=0)
    with pytest.raises(ValueError, match="limit"):
        eng.search_diversified("w00001", "foo", limit=0)


def test_diversified_sharded_identity(div_built):
    from lucene_plugin_ray.pipelines.sharded import ShardedSearcherService

    root, cfg, eng = div_built
    for shards in (1, 3):
        svc = ShardedSearcherService(root, cfg=cfg, num_shards=shards)
        try:
            for cap, limit in ((1, 5), (2, 1_000_000), (3, 7)):
                a = eng.search_diversified(
                    "w00001 w00002", "foo", max_per_key=cap, limit=limit
                )
                b = svc.search_diversified(
                    "w00001 w00002", "foo", max_per_key=cap, limit=limit
                )
                assert a["url"].to_pylist() == b["url"].to_pylist(), (cap, limit)
                assert a["score"].to_pylist() == b["score"].to_pylist()
                assert a["key"].to_pylist() == b["key"].to_pylist()
            with pytest.raises(ValueError):
                svc.search_diversified("w00001", "nope")
        finally:
            svc.shutdown()


def test_diversified_http_round_trip(ray_session, tmp_path):
    import urllib.error
    import urllib.parse
    import urllib.request

    from lucene_plugin_ray.server import LuceneHttpClient, LuceneHttpService

    svc = LuceneHttpService(
        IndexConfig(index_root=str(tmp_path / "idx"), num_partitions=2,
                    field_columns=("host",)),
        host="127.0.0.1", port=0,
    ).start()
    try:
        c = LuceneHttpClient(svc.url)
        c.index_map("col", "a1", {"text": "alpha alpha", "host": "h1"})
        c.index_map("col", "a2", {"text": "alpha", "host": "h1"})
        c.index_map("col", "b1", {"text": "alpha beta", "host": "h2"})
        rows = c.search_diversified("col", "alpha", "host", max_per_key=1)
        assert len(rows) == 2
        assert {r["key"] for r in rows} == {"h1", "h2"}

        def _status(params):
            try:
                urllib.request.urlopen(
                    f"{svc.url}/search-diversified?"
                    + urllib.parse.urlencode(params)
                )
                return 200
            except urllib.error.HTTPError as e:
                return e.code

        assert _status({"collection": "col", "query": "alpha",
                        "key_field": "text"}) == 400
        assert _status({"collection": "col", "query": "alpha",
                        "key_field": "host", "max_per_key": "x"}) == 400
    finally:
        svc.shutdown()


def test_common_terms_under_ttf_similarity(built):
    """The single classification gather feeds scoring directly
    (df_override + ttf_override) — under a ttf-hungry similarity the
    injection guard must NOT fire and the degenerate all-low rewrite must
    equal the plain lmdirichlet search."""
    from lucene_plugin_ray.pipelines.query import SearchEngine

    root, cfg, _ = built
    eng = SearchEngine(root, cfg=cfg, similarity="lmdirichlet")
    a = eng.search_common("w00000 w00001", max_term_frequency=10**6,
                          limit=255)
    b = eng.search("w00000 w00001", limit=255)
    assert a["url"].to_pylist() == b["url"].to_pylist()
    assert a["score"].to_pylist() == b["score"].to_pylist()


def test_common_terms_nan_cutoff_is_loud(built):
    _root, _cfg, eng = built
    with pytest.raises(ValueError, match="must be positive"):
        eng.search_common("w00000", max_term_frequency=float("nan"))


def test_doc_field_codes_equals_values(div_built):
    """The scope's int key codes (_FieldColumn.min_code) must name EXACTLY
    each doc's minimum analyzed term in its own segment, missing docs
    included — the diversified cap and the string sort rest on codes that
    compare across segments like the terms."""
    import numpy as np

    _root, _cfg, eng = div_built
    scope = eng._scope("default")
    col = scope.field("foo")
    assert list(col.vocab) == sorted(set(col.vocab))
    for seg, off in zip(scope.segs, scope.offsets):
        r = seg.reader
        start, df, docids, _tfs = r.field_postings("foo")
        want = [None] * r.n_docs
        rows = np.repeat(np.arange(df.size), df)
        for d, row in zip(r.local_ids(docids), rows):
            t = str(r._terms[start + row])
            if want[d] is None or t < want[d]:
                want[d] = t
        got = col.terms(col.min_code[off : off + r.n_docs])
        assert list(got) == want
