"""Expressions module (org.apache.lucene.expressions JavascriptCompiler +
FunctionScoreQuery analogue): the safe arithmetic compiler's whitelist, the
search_expression scoring contract, sharded/facade/HTTP parity."""

import numpy as np
import pyarrow as pa
import pytest

from lucene_plugin_ray.config import IndexConfig
from lucene_plugin_ray.functions.expressions import (
    ExpressionError,
    compile_expression,
)
from lucene_plugin_ray.pipelines.fixtures import make_pages


# ---------------------------------------------------------------------------
# compiler unit tests
# ---------------------------------------------------------------------------
def test_compile_arithmetic_matches_numpy():
    env = {
        "_score": np.array([1.0, 2.0, 4.0]),
        "doc_len": np.array([10.0, 20.0, 40.0]),
        "k": 50.0,
    }
    cases = [
        ("_score", env["_score"]),
        ("-_score + 1", 1 - env["_score"]),
        ("_score * k / (k + doc_len)",
         env["_score"] * 50.0 / (50.0 + env["doc_len"])),
        ("sqrt(doc_len) + ln(_score)",
         np.sqrt(env["doc_len"]) + np.log(env["_score"])),
        ("min(_score, 2.5) * max(doc_len, 15)",
         np.minimum(env["_score"], 2.5) * np.maximum(env["doc_len"], 15.0)),
        ("pow(_score, 2) % 3", env["_score"] ** 2 % 3),
        ("log2(doc_len) + log10(doc_len) + exp(0) + abs(-_score)",
         np.log2(env["doc_len"]) + np.log10(env["doc_len"]) + 1.0
         + np.abs(env["_score"])),
        ("2", np.full(3, 2.0)),
    ]
    for src, want in cases:
        fn, used = compile_expression(src, set(env))
        got = np.broadcast_to(np.asarray(fn(env), dtype=np.float64), (3,))
        assert np.allclose(got, want, rtol=0, atol=0), src
        assert used <= set(env)


@pytest.mark.parametrize(
    "src,msg",
    [
        ("", "non-empty"),
        ("_score +", "syntax error"),
        ("nope + 1", "unknown variable"),
        ("frobnicate(_score)", "unknown function"),
        ("ln(_score, 2)", "exactly 1 argument"),
        ("min(_score)", "exactly 2 arguments"),
        ("_score > 1", "unsupported expression element"),
        ("_score and doc_len", "unsupported"),
        ("'a'", "numeric literals"),
        ("True", "numeric literals"),
        ("(1).__class__", "unsupported"),
        ("[1, 2]", "unsupported"),
        ("_score if doc_len else 0", "unsupported"),
        ("__import__('os')", "unknown function"),
        ("ln(x=2)", "positional"),
    ],
)
def test_compile_rejects_everything_outside_whitelist(src, msg):
    with pytest.raises(ExpressionError, match=msg):
        compile_expression(src, {"_score", "doc_len"})


def test_compile_pathological_size_is_expression_error_not_recursion():
    """A '1+1+…' chain long enough to blow the interpreter recursion limit
    must surface as ExpressionError (→ HTTP 400), never RecursionError
    (→ 500) — the node cap fires before build() recurses."""
    with pytest.raises(ExpressionError, match="too complex"):
        compile_expression("1+" * 600 + "1", {"_score"})
    with pytest.raises(ExpressionError, match="too long"):
        compile_expression("1+" * 20000 + "1", {"_score"})
    # deep parenthesis nesting can blow ast.parse itself — also rewrapped
    with pytest.raises(ExpressionError):
        compile_expression("(" * 40000 + "1" + ")" * 40000, {"_score"})


def test_unreferenced_sources_are_not_bound():
    """compile_expression reports the used-name set; '_score * 2' must not
    read doc_len/warc_ts (the engine skips those gathers)."""
    fn, used = compile_expression("_score * 2", {"_score", "doc_len",
                                                 "warc_ts"})
    assert used == {"_score"}
    # evaluating WITHOUT the unreferenced keys works
    out = fn({"_score": np.array([1.0, 3.0])})
    assert list(out) == [2.0, 6.0]


# ---------------------------------------------------------------------------
# engine semantics
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    from lucene_plugin_ray.pipelines.build import build_index
    from lucene_plugin_ray.pipelines.query import SearchEngine

    root = str(tmp_path_factory.mktemp("idx_expr"))
    cfg = IndexConfig(index_root=root, num_partitions=3)
    build_index(make_pages(400, seed=23), cfg)
    return root, cfg, SearchEngine(root, cfg=cfg)


def test_expression_score_identity(built):
    """expression='_score' reproduces plain search bit-for-bit on the full
    match set (same TAAT scores, same (score desc, url asc) order)."""
    _, _, eng = built
    a = eng.search_expression("w00001 w00002", "_score", limit=10**9)
    b = eng.search("w00001 w00002", limit=10**9)
    assert a["url"].to_pylist() == b["url"].to_pylist()
    assert a["score"].to_pylist() == b["score"].to_pylist()


def test_expression_reproduces_search_function(built):
    """search_function(now, scale) is the special case
    '_score * scale / (scale + max(0, now - warc_ts))' — bit-identical."""
    _, _, eng = built
    # now stays within float64's exact-integer range (< 2^53) so the
    # expression's float subtraction matches the engine's int subtraction
    now, scale = 1_600_000_000_060_000, 7_000_000
    a = eng.search_expression(
        "w00001 w00002",
        "_score * (scale / (scale + max(0, now - warc_ts)))",
        bindings={"now": now, "scale": scale},
        limit=10**9,
    )
    b = eng.search_function("w00001 w00002", now, scale, limit=10**9)
    assert a["url"].to_pylist() == b["url"].to_pylist()
    assert a["score"].to_pylist() == b["score"].to_pylist()


def test_expression_bruteforce_recompute(built):
    """Recompute '_score * 50 / (50 + doc_len) + sqrt(doc_len) * 0.001'
    from the plain search scores + doc lengths off the analyzed text."""
    from lucene_plugin_ray.functions.analysis import analyze

    _, _, eng = built
    base = eng.search("w00001", limit=10**9)
    got = eng.search_expression(
        "w00001", "_score * k / (k + doc_len) + sqrt(doc_len) * 0.001",
        bindings={"k": 50.0}, limit=10**9,
    )
    # doc lengths via the engine's own term-vector-free path: explain
    # carries dl?  Simpler: search_sorted_by exposes doc_len per url.
    dl_tab = eng.search_sorted_by("w00001", [("doc_len", "asc")], limit=10**9)
    dl_of = dict(zip(dl_tab["url"].to_pylist(), dl_tab["doc_len"].to_pylist()))
    exp = {}
    for u, s in zip(base["url"].to_pylist(), base["score"].to_pylist()):
        dl = float(dl_of[u])
        exp[u] = s * 50.0 / (50.0 + dl) + np.sqrt(dl) * 0.001
    got_map = dict(zip(got["url"].to_pylist(), got["score"].to_pylist()))
    assert set(got_map) == set(exp)
    for u, s in got_map.items():
        assert s == exp[u], u
    # and the ordering is (final desc, url asc)
    pairs = list(zip(got["score"].to_pylist(), got["url"].to_pylist()))
    assert pairs == sorted(pairs, key=lambda x: (-x[0], x[1]))


def test_expression_constant_broadcasts(built):
    _, _, eng = built
    t = eng.search_expression("w00001", "2.5", limit=10**9)
    assert set(t["score"].to_pylist()) == {2.5}
    urls = t["url"].to_pylist()
    assert urls == sorted(urls)  # all-tied → url asc
    assert t.num_rows == eng.count("w00001")


def test_expression_nan_is_loud(built):
    _, _, eng = built
    with pytest.raises(ValueError, match="NaN"):
        eng.search_expression("w00001", "sqrt(0 - doc_len)")


def test_expression_validation(built):
    _, _, eng = built
    with pytest.raises(ExpressionError, match="unknown variable"):
        eng.search_expression("w00001", "_score + nope")
    with pytest.raises(ValueError, match="shadows"):
        eng.search_expression("w00001", "_score", bindings={"doc_len": 1.0})
    with pytest.raises(ValueError, match="must be a number"):
        eng.search_expression("w00001", "_score", bindings={"k": "x"})
    with pytest.raises(ValueError, match="limit must be positive"):
        eng.search_expression("w00001", "_score", limit=0)


def test_expression_sharded_identity(built):
    from lucene_plugin_ray.pipelines.sharded import ShardedSearcherService

    root, cfg, eng = built
    expr = "_score * k / (k + doc_len) + sqrt(doc_len) * 0.001"
    for shards in (1, 3):
        svc = ShardedSearcherService(root, cfg=cfg, num_shards=shards)
        try:
            for limit in (5, 1_000_000):
                a = eng.search_expression(
                    "w00001 w00002", expr, bindings={"k": 50.0}, limit=limit
                )
                b = svc.search_expression(
                    "w00001 w00002", expr, bindings={"k": 50.0}, limit=limit
                )
                assert a["url"].to_pylist() == b["url"].to_pylist()
                assert a["score"].to_pylist() == b["score"].to_pylist()
            # bad input raises the engine's own exception, from the shards
            with pytest.raises(ExpressionError):
                svc.search_expression("w00001", "_score + nope")
            with pytest.raises(ValueError, match="shadows"):
                svc.search_expression(
                    "w00001", "_score", bindings={"warc_ts": 1}
                )
        finally:
            svc.shutdown()


def test_expression_facade_http_round_trip(ray_session, tmp_path):
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
        c.index_text("col", "a", "alpha beta gamma delta")
        c.index_text("col", "b", "alpha beta")
        rows = c.search_expression(
            "col", "alpha", "_score * k / (k + doc_len)", bindings={"k": 10.0}
        )
        fac = svc.facade.search_expression(
            "col", "alpha", "_score * k / (k + doc_len)",
            bindings={"k": 10.0},
        )
        assert [r["_externalId"] for r in rows] == [e.external_id for e in fac]
        assert [r["_score"] for r in rows] == [e.score for e in fac]
        # shorter doc wins under the length penalty
        assert rows[0]["_externalId"] == "b"

        def _status(params):
            try:
                urllib.request.urlopen(
                    f"{svc.url}/search-expression?"
                    + urllib.parse.urlencode(params)
                )
                return 200
            except urllib.error.HTTPError as e:
                return e.code

        assert _status({"collection": "col", "query": "alpha",
                        "expression": "_score +"}) == 400
        assert _status({"collection": "col", "query": "alpha",
                        "expression": "_score", "bindings": "notjson"}) == 400
        assert _status({"collection": "col", "query": "alpha",
                        "expression": "__import__('os')"}) == 400
        # pathological nesting is a 400 (ExpressionError), never a 500
        assert _status({"collection": "col", "query": "alpha",
                        "expression": "1+" * 600 + "1"}) == 400
    finally:
        svc.shutdown()


def test_expression_range_semantics(built):
    """FunctionRangeQuery: inclusive [lo, hi] slice of the expression
    values, open ends, empty-range/no-bound rejects, sharded identity."""
    from lucene_plugin_ray.pipelines.sharded import ShardedSearcherService

    root, cfg, eng = built
    expr = "_score * k / (k + doc_len)"
    full = eng.search_expression("w00001 w00002", expr, bindings={"k": 50.0},
                                 limit=10**9)
    vals = full["score"].to_pylist()
    lo, hi = sorted(vals)[len(vals) // 4], sorted(vals)[3 * len(vals) // 4]
    got = eng.search_expression_range(
        "w00001 w00002", expr, lo=lo, hi=hi, bindings={"k": 50.0},
        limit=10**9,
    )
    exp = [(u, s) for u, s in zip(full["url"].to_pylist(), vals)
           if lo <= s <= hi]
    exp.sort(key=lambda x: (-x[1], x[0]))
    assert list(zip(got["url"].to_pylist(), got["score"].to_pylist())) == exp
    assert 0 < got.num_rows < full.num_rows
    # open ends compose to the full result
    a = eng.search_expression_range("w00001 w00002", expr, lo=min(vals),
                                    bindings={"k": 50.0}, limit=10**9)
    assert a["url"].to_pylist() == full["url"].to_pylist()
    b = eng.search_expression_range("w00001 w00002", expr, hi=max(vals),
                                    bindings={"k": 50.0}, limit=10**9)
    assert b["url"].to_pylist() == full["url"].to_pylist()
    with pytest.raises(ValueError, match="at least one"):
        eng.search_expression_range("w00001", expr, bindings={"k": 50.0})
    with pytest.raises(ValueError, match="empty range"):
        eng.search_expression_range("w00001", expr, lo=2.0, hi=1.0,
                                    bindings={"k": 50.0})
    svc = ShardedSearcherService(root, cfg=cfg, num_shards=3)
    try:
        s = svc.search_expression_range(
            "w00001 w00002", expr, lo=lo, hi=hi, bindings={"k": 50.0},
            limit=10**9,
        )
        assert s["url"].to_pylist() == got["url"].to_pylist()
        assert s["score"].to_pylist() == got["score"].to_pylist()
        with pytest.raises(ValueError):
            svc.search_expression_range("w00001", expr, lo=2.0, hi=1.0)
    finally:
        svc.shutdown()


def test_expression_range_http(ray_session, tmp_path):
    import urllib.error
    import urllib.parse
    import urllib.request

    from lucene_plugin_ray.server import LuceneHttpClient, LuceneHttpService

    svc = LuceneHttpService(
        IndexConfig(index_root=str(tmp_path / "er"), num_partitions=2),
        host="127.0.0.1", port=0,
    ).start()
    try:
        c = LuceneHttpClient(svc.url)
        c.index_text("col", "a", "alpha beta gamma delta")  # dl 4
        c.index_text("col", "b", "alpha")                   # dl 1
        rows = c.search_expression_range("col", "alpha", "doc_len",
                                         lo=2.0)
        assert [r["_externalId"] for r in rows] == ["a"]

        def _status(params):
            try:
                urllib.request.urlopen(
                    f"{svc.url}/search-expression-range?"
                    + urllib.parse.urlencode(params)
                )
                return 200
            except urllib.error.HTTPError as e:
                return e.code

        assert _status({"collection": "col", "query": "alpha",
                        "expression": "doc_len", "lo": "x"}) == 400
        assert _status({"collection": "col", "query": "alpha",
                        "expression": "doc_len"}) == 400  # no bound
    finally:
        svc.shutdown()
