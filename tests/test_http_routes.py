"""The HTTP route contract, generated from the route table.

Every public ``LuceneFacade`` method except ``commit`` has a route and a
``LuceneHttpClient`` method.  On every route, bad input is a client error:
HTTP 400 with an ``{"error": ...}`` body, never a 500 — for a missing or
empty required parameter, a non-numeric number, a ``limit`` below 1, a
word outside its choices, malformed JSON or JSON of the wrong type, and a
parameter the route does not declare.
"""

import inspect
import json
import urllib.error
import urllib.parse
import urllib.request

import pytest

from lucene_plugin_ray.config import IndexConfig
from lucene_plugin_ray.facade import LuceneFacade
from lucene_plugin_ray.server import _ROUTES, LuceneHttpClient, LuceneHttpService

C = "c"
# a valid value for each required wire parameter
GOOD = {
    "collection": C,
    "query": "alpha",
    "id": "d1",
    "text": "alpha beta",
    "path": "DOC",
    "after_score": "1.0",
    "after_url": "d1",
    "rescore_query": "beta",
    "filter_query": "foo:v1",
    "key_field": "foo",
    "expression": "_score",
    "positive_query": "alpha",
    "negative_query": "beta",
    "terms": '["alpha", "beta"]',
    "term": "alpha",
    "end": "3",
    "exclude": '["beta"]',
    "from_query": "alpha",
    "from_field": "foo",
    "to_field": "foo",
    "child_query": "alpha",
    "parent_filter": "foo:lamb",
    "block_field": "foo",
    "parent_query": "delta",
    "dims": '{"foo": "v1"}',
    "sort": '[["foo", "asc"]]',
    "class_field": "foo",
    "field": "foo",
    "fields": '["foo"]',
    "prefix": "al",
    "fragment": "lph",
    "texts": '{"d1": "alpha beta", "d2": "alpha gamma"}',
}
# per-route baseline changes: writes that leave the indexed documents alone,
# and a bound without which a function range is empty
BASE = {
    "delete": {"id": "nobody"},
    "clear": {"collection": "scratch"},
    "search_expression_range": {"hi": "9"},
}
# required parameters for which the empty string is a valid value
EMPTY_OK = {
    ("index_text", "text"), ("more_like_this", "text"), ("search_after", "after_url"),
}


@pytest.fixture(scope="module")
def served(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("routes")
    doc = root / "doc.txt"
    doc.write_text("zebra crossing")
    svc = LuceneHttpService(
        IndexConfig(index_root=str(root / "idx"), num_partitions=2,
                    field_columns=("foo",)),
        soft_commit_max_docs=100,
    ).start()
    for ext_id, text, foo in [("d1", "alpha beta", "v1"), ("d2", "alpha gamma", "v2"),
                              ("d3", "beta delta", "lamb")]:
        svc.facade.index_map(C, ext_id, {"text": text, "foo": foo})
    svc.facade.commit()
    yield svc, str(doc)
    svc.shutdown()


def _send(svc, op: str, params: dict, verb: str):
    data = urllib.parse.urlencode(params)
    req = (
        urllib.request.Request(f"{svc.url}/{op}", data=data.encode(), method="POST")
        if verb == "POST" else f"{svc.url}/{op}?{data}"
    )
    try:
        with urllib.request.urlopen(req) as r:
            return r.status, json.loads(r.read())
    except urllib.error.HTTPError as e:
        return e.code, json.loads(e.read())


def _bad_inputs(route, base: dict):
    """(label, params) — one bad input each, from the route's parameters."""
    for p in route.params.values():
        if p.name == "mapping":  # index-map's fields are free-form keys
            continue
        if p.default is inspect.Parameter.empty:
            yield f"missing {p.wire}", {k: v for k, v in base.items() if k != p.wire}
            if (route.name, p.name) not in EMPTY_OK:
                yield f"empty {p.wire}", {**base, p.wire: ""}
        if p.words is not None:
            yield f"{p.wire}=maybe", {**base, p.wire: "maybe"}
        elif p.kind in (int, float):
            yield f"{p.wire}=x", {**base, p.wire: "x"}
        elif p.kind in (list, dict):
            wrong = '{"a": 1}' if p.kind is list else "[1]"
            yield f"{p.wire} not JSON", {**base, p.wire: "{not json"}
            yield f"{p.wire} wrong JSON type", {**base, p.wire: wrong}
    if "limit" in route.params:
        yield "limit=0", {**base, "limit": "0"}
        yield "limit=-1", {**base, "limit": "-1"}


@pytest.mark.parametrize("op", list(_ROUTES))
def test_bad_input_is_400_on_every_route(served, op):
    svc, doc = served
    route = _ROUTES[op]
    base = {
        p.wire: doc if GOOD[p.wire] == "DOC" else GOOD[p.wire]
        for p in route.params.values()
        if p.default is inspect.Parameter.empty and p.name != "mapping"
    }
    base.update(BASE.get(route.name, {}))
    assert _send(svc, op, base, route.verb)[0] == 200, base
    bad = {}
    for label, params in _bad_inputs(route, base):
        status, body = _send(svc, op, params, route.verb)
        if status != 400 or not isinstance(body, dict) or "error" not in body:
            bad[label] = (status, body)
    assert bad == {}


def test_undeclared_parameter_is_400(served):
    """A parameter the route's facade method does not declare is named in a
    400, never dropped; index-map's free-form field keys stay accepted."""
    svc, _ = served
    status, body = _send(
        svc, "suggest", {"collection": C, "term": "alpah", "field": "nope"}, "GET"
    )
    assert status == 400 and "unknown parameter 'field'" in body["error"]
    status, _ = _send(
        svc, "index-map", {"collection": "mapkeys", "id": "m1", "foo": "v9"}, "POST"
    )
    assert status == 200


def test_route_table_is_the_facade():
    """One route per public facade method except ``commit``, named by the
    method, and one client method per route."""
    public = {
        n for n, fn in vars(LuceneFacade).items()
        if inspect.isfunction(fn) and not n.startswith("_")
    }
    assert {op: r.name for op, r in _ROUTES.items()} == {
        n.replace("_", "-"): n for n in public - {"commit"}
    }
    client = {
        n for n, fn in vars(LuceneHttpClient).items()
        if callable(fn) and not n.startswith("_")
    }
    assert client == {r.name for r in _ROUTES.values()}
    assert "index_file" in client
