"""HTTP serving surface over :class:`LuceneFacade` (SURVEY.md §2.11; the
last reference artifact: ``LuceneFacadeImpl.java:29-151`` ``@Path("/lucene")``
+ ``web/src/main/resources/public/lucene-client.js:24-125``).

As in the reference, the facade is the one declaration of the surface:
every public ``LuceneFacade`` method except ``commit`` is a route, and the
route table (``_ROUTES``) and the client's methods are derived from the
facade's signatures.

* **Naming.** The route is the method name with ``-`` for ``_``:
  ``search_sorted_by`` is ``GET <base>/search-sorted-by``.  The writes
  (``index-text``, ``index-map``, ``index-file``, ``delete``, ``clear``)
  and ``snippets`` (the hit bodies travel in the request) are POSTs with a
  form body; every other route is a GET with a query string.
* **Types.** Each parameter is decoded from its facade annotation: ``str``
  as sent; ``int`` and ``float`` parsed; ``bool`` from exactly ``true`` or
  ``false``; ``list`` and ``dict`` as JSON of that type.
* **Wire names.** Five parameters keep their wire names (``_WIRE``):
  ``id`` for ``ext_id``, ``window`` for ``window_size``, ``field`` for
  ``facet_field``, ``fields`` for ``dim_fields``, and ``order=asc|desc``
  for ``descending``.
* **Empty means the default.** An empty or absent optional parameter takes
  the facade default (``limit``: ``IndexConfig.result_limit``).  An absent
  required string reaches the facade as ``None`` and fails its check.
* **Answers.** JSON of the facade's return value, with hits as
  ``{"_id", "_score", "_externalId"}`` (the Java field names
  ``lucene-client.js:104-106`` reads).  ``count`` answers ``{"count": n}``,
  ``clear`` answers ``null`` (LuceneFacadeImpl.java:143-151),
  ``classify``/``classify-knn`` one object per class and
  ``drill-sideways`` ``{"hits", "counts"}``.
* **Per-route inputs.** ``index-map`` indexes every form key except
  ``collection`` and ``id`` as a field (LuceneFacadeImpl.java:70-81);
  ``index-file`` paths must resolve inside ``file_root`` when one is set;
  ``search-after`` needs a finite ``after_score`` and an ``after_url``.
* **Errors.** A ``LuceneException`` (bad input, query grammar, any engine
  ``ValueError``), a value that does not decode or a parameter the route
  does not declare (``index-map``'s field keys aside) answers HTTP 400
  with ``{"error": message}``; an unknown op or the wrong verb answers
  404.

This is a SERVING adapter, not a data-plane component: one process, stdlib
``ThreadingHTTPServer``, a lock serializing facade access (the facade owns
a single writer buffer — the reference's writer inbox is equally serial per
index).  Reads flush pending writes first (read-your-writes), matching
the reference E2E tests' visible-after-index expectation.  A cluster-scale
deployment would run one such server per index root in front of the
persistent ``ShardedSearcherService`` fleet; the data plane stays Ray.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import threading
import types
import typing
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qsl, urlencode, urlsplit
from urllib.request import Request, urlopen

from lucene_plugin_ray.config import IndexConfig
from lucene_plugin_ray.facade import LuceneEntry, LuceneException, LuceneFacade

# ---- demo UI (round 5; ≙ web/src/main/resources/public/index.html +
# lucene-client.js — same two forms / five calls, written from scratch
# against this server's endpoints) ----------------------------------------

_CLIENT_JS = """\
// Browser client for the lucene_plugin_ray HTTP service — the same call
// surface the reference's JS client exposes: indexText / indexMap /
// search / deleteDoc / clear.
function LuceneClient(base) { this.base = base; }

LuceneClient.prototype._post = function (op, params, cb) {
  fetch(this.base + "/" + op, {
    method: "POST",
    headers: {"Content-Type": "application/x-www-form-urlencoded"},
    body: new URLSearchParams(params).toString(),
  }).then(function (r) { return r.json(); })
    .then(function (j) { if (cb) cb(j); });
};

LuceneClient.prototype.indexText = function (collection, extId, text, cb) {
  this._post("index-text", {collection: collection, id: extId, text: text}, cb);
};

LuceneClient.prototype.indexMap = function (collection, extId, map, cb) {
  var params = {collection: collection, id: extId};
  for (var k in map) if (Object.hasOwn(map, k)) params[k] = map[k];
  this._post("index-map", params, cb);
};

LuceneClient.prototype.search = function (collection, query, limit, cb) {
  var qs = new URLSearchParams(
    {collection: collection, query: query, limit: limit}).toString();
  fetch(this.base + "/search?" + qs)
    .then(function (r) {
      return r.json().then(function (j) { return {ok: r.ok, body: j}; });
    })
    .then(function (res) {
      if (!res.ok) { cb(null, res.body.error); return; }
      cb(res.body.map(function (hit) { return hit._externalId; }), null);
    });
};

LuceneClient.prototype.deleteDoc = function (collection, extId, cb) {
  this._post("delete", {collection: collection, id: extId}, cb);
};

LuceneClient.prototype.clear = function (collection, cb) {
  this._post("clear", {collection: collection}, cb);
};
"""

_INDEX_HTML = """\
<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>lucene_plugin_ray demo</title>
<script src="lucene-client.js"></script>
<style>
  body { font-family: sans-serif; max-width: 46rem; margin: 2rem auto; }
  fieldset { margin-bottom: 1.5rem; }
  label { display: inline-block; min-width: 11rem; }
  input[type=text] { width: 24rem; }
  .row { margin: .3rem 0; }
  .out { color: #046; font-weight: bold; min-height: 1.2em; }
</style>
<script>
var client;
window.addEventListener("DOMContentLoaded", function () {
  client = new LuceneClient(window.location.origin + "%BASE%");
});
function $(id) { return document.getElementById(id); }

function textIndex() {
  client.indexText($("tColl").value, $("tId").value, $("tValue").value,
    function () { $("tOut").textContent = "indexed " + $("tId").value; });
  return false;
}
function textSearch() {
  client.search($("tColl").value, $("tValue").value, 255,
    function (ids, err) {
      $("tOut").textContent =
        err ? ("error: " + err) : (ids.length ? ids.join(", ") : "Not Found");
    });
  return false;
}
function mapIndex() {
  var m = {};
  for (var i = 0; i < 3; i++) {
    var k = $("mName" + i).value, v = $("mValue" + i).value;
    if (k) m[k] = v;
  }
  client.indexMap($("mColl").value, $("mId").value, m,
    function () { $("mOut").textContent = "indexed " + $("mId").value; });
  return false;
}
function mapSearch() {
  client.search($("mColl").value, $("mQuery").value, 255,
    function (ids, err) {
      $("mOut").textContent =
        err ? ("error: " + err) : (ids.length ? ids.join(", ") : "Not Found");
    });
  return false;
}
</script>
</head>
<body>
<h1>lucene_plugin_ray</h1>

<h2>Plain text: index &amp; search</h2>
<form id="text" onsubmit="return false;">
<fieldset>
  <div class="row"><label for="tColl">Collection</label>
    <input type="text" id="tColl" value="text-collection"></div>
  <div class="row"><label for="tId">External id</label>
    <input type="text" id="tId" placeholder="doc-1"></div>
  <div class="row"><label for="tValue">Text to index / query</label>
    <input type="text" id="tValue" placeholder="mary had a little lamb"></div>
  <div class="row">
    <button onclick="return textIndex()">Index</button>
    <button onclick="return textSearch()">Search</button>
    <span class="out" id="tOut"></span></div>
</fieldset>
</form>

<h2>Field map: index &amp; search</h2>
<form id="map" onsubmit="return false;">
<fieldset>
  <div class="row"><label for="mColl">Collection</label>
    <input type="text" id="mColl" value="map-collection"></div>
  <div class="row"><label for="mId">External id</label>
    <input type="text" id="mId" placeholder="doc-1"></div>
  <div class="row"><label for="mName0">Field 0 / value</label>
    <input type="text" id="mName0" value="firstName" style="width:10rem">
    <input type="text" id="mValue0" value="Harry" style="width:13rem"></div>
  <div class="row"><label for="mName1">Field 1 / value</label>
    <input type="text" id="mName1" value="lastName" style="width:10rem">
    <input type="text" id="mValue1" value="Potter" style="width:13rem"></div>
  <div class="row"><label for="mName2">Field 2 / value</label>
    <input type="text" id="mName2" style="width:10rem">
    <input type="text" id="mValue2" style="width:13rem"></div>
  <div class="row"><label for="mQuery">Query</label>
    <input type="text" id="mQuery" placeholder="firstName:harry"></div>
  <div class="row">
    <button onclick="return mapIndex()">Index</button>
    <button onclick="return mapSearch()">Search</button>
    <span class="out" id="mOut"></span></div>
</fieldset>
</form>
</body>
</html>
"""


# ---- the route table, derived from LuceneFacade ---------------------------

# facade parameter -> wire name, where they differ
_WIRE = {
    "ext_id": "id",
    "window_size": "window",
    "facet_field": "field",
    "dim_fields": "fields",
    "descending": "order",
}
# wire values spelled as words: ``order`` and every bool parameter
_WORDS = {"order": {"asc": False, "desc": True}}
_BOOL = {"true": True, "false": False}
_WRITES = ("index_text", "index_map", "index_file", "delete", "clear")


@dataclass(frozen=True)
class _Param:
    name: str  # facade parameter
    wire: str
    kind: type  # str, int, float, bool, list or dict
    default: object  # inspect.Parameter.empty when required

    @property
    def words(self) -> dict | None:
        return _WORDS.get(self.wire, _BOOL if self.kind is bool else None)


@dataclass(frozen=True)
class _Route:
    name: str  # facade method
    verb: str
    params: dict[str, _Param]  # in signature order


def _kind(hint) -> type:
    """The wire type of an annotation: ``int | None`` → int,
    ``dict[str, str]`` → dict."""
    if isinstance(hint, types.UnionType):
        hint = next(a for a in typing.get_args(hint) if a is not type(None))
    return typing.get_origin(hint) or hint


def _routes() -> dict[str, _Route]:
    """{route: _Route} for every public facade method except ``commit``."""
    out = {}
    for name, fn in vars(LuceneFacade).items():
        if not inspect.isfunction(fn) or name.startswith("_") or name == "commit":
            continue
        hints = typing.get_type_hints(fn)
        params = [
            _Param(p.name, _WIRE.get(p.name, p.name), _kind(hints[p.name]), p.default)
            for p in list(inspect.signature(fn).parameters.values())[1:]
        ]
        verb = "POST" if name in _WRITES or name == "snippets" else "GET"
        out[name.replace("_", "-")] = _Route(name, verb, {p.name: p for p in params})
    return out


_ROUTES = _routes()


def _decode(p: _Param, raw: str):
    """One wire value → the facade argument of ``p``."""
    if p.words is not None:
        if raw not in p.words:
            choices = " or ".join(map(repr, p.words))
            raise LuceneException(f"{p.wire} must be {choices}: {raw!r}")
        return p.words[raw]
    if p.kind in (list, dict):
        what = "a JSON list" if p.kind is list else "a JSON object"
        try:
            value = json.loads(raw)
        except json.JSONDecodeError as e:
            raise LuceneException(f"{p.wire} must be {what}: {e}") from None
        if not isinstance(value, p.kind):
            raise LuceneException(f"{p.wire} must be {what}")
        return value
    if p.kind is str:
        return raw
    try:
        return p.kind(raw)
    except ValueError:
        what = "an integer" if p.kind is int else "a number"
        raise LuceneException(f"{p.wire} must be {what}: {raw!r}") from None


def _json_body(out):
    """A facade answer as JSON: hit entries under the Java field names."""
    if isinstance(out, list):
        return [
            {"_id": e.id, "_score": e.score, "_externalId": e.external_id}
            if isinstance(e, LuceneEntry) else e
            for e in out
        ]
    return out


# answers whose JSON differs from the facade's return value
_ANSWERS = {
    "clear": lambda _: None,  # reference clear() completes with null
    "count": lambda n: {"count": n},
    "classify": lambda rows: [{"class": c, "score": s} for c, s in rows],
    "classify_knn": lambda rows: [
        {"class": c, "vote_units": v, "hits": h} for c, v, h in rows
    ],
    "drill_sideways": lambda r: {"hits": _json_body(r[0]), "counts": r[1]},
}


class LuceneHttpService:
    """Serve a :class:`LuceneFacade` over HTTP on ``host:port``
    (``port=0`` → ephemeral).  ``start()`` runs the server on a daemon
    thread; ``shutdown()`` stops it and flushes pending writes."""

    def __init__(
        self,
        cfg: IndexConfig,
        host: str = "127.0.0.1",
        port: int = 0,
        base_path: str = "/lucene",
        file_root: str | None = None,
        **facade_kw,
    ):
        self.facade = LuceneFacade(cfg, **facade_kw)
        self._lock = threading.Lock()
        self.base_path = base_path.rstrip("/")
        # index-file reads server-side paths (reference parity,
        # LuceneFacadeImpl.java:43-53 — the Java facade trusts callers the
        # same way).  ``file_root`` confines them: any path resolving
        # outside it is rejected 400.  None (default) preserves the
        # reference's trust-the-caller behavior — bind non-loopback hosts
        # only with a file_root.
        self.file_root = os.path.realpath(file_root) if file_root else None
        service = self

        class _Handler(BaseHTTPRequestHandler):
            # quiet: request logging off the test/driver stdout
            def log_message(self, fmt, *args):  # noqa: N802
                pass

            def _send(self, code: int, body: bytes, ctype: str) -> None:
                self.send_response(code)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def _respond(self, code: int, payload) -> None:
                self._send(code, json.dumps(payload).encode(), "application/json")

            def _route(self, verb: str) -> None:
                url = urlsplit(self.path)
                if verb == "GET" and url.path in ("/", "/index.html"):
                    # demo UI (≙ the reference's public/index.html)
                    page = _INDEX_HTML.replace("%BASE%", service.base_path)
                    self._send(200, page.encode(), "text/html; charset=utf-8")
                    return
                if verb == "GET" and url.path == "/lucene-client.js":
                    self._send(200, _CLIENT_JS.encode(),
                               "application/javascript; charset=utf-8")
                    return
                if not url.path.startswith(service.base_path + "/"):
                    self._respond(404, {"error": f"unknown path {url.path}"})
                    return
                op = url.path[len(service.base_path) + 1 :]
                route = _ROUTES.get(op)
                if route is None or route.verb != verb:
                    self._respond(404, {"error": f"unknown op {verb} {op}"})
                    return
                try:
                    if verb == "POST":
                        n = int(self.headers.get("Content-Length") or 0)
                        query = self.rfile.read(n).decode() if n else ""
                    else:
                        query = url.query
                    q = dict(parse_qsl(query, keep_blank_values=True))
                    self._respond(200, service._call(route, q))
                except LuceneException as e:
                    # validation, query-grammar and decoding failures are
                    # client errors
                    self._respond(400, {"error": str(e)})
                except Exception as e:  # pragma: no cover - defensive 500
                    self._respond(500, {"error": f"{type(e).__name__}: {e}"})

            def do_GET(self):  # noqa: N802
                self._route("GET")

            def do_POST(self):  # noqa: N802
                self._route("POST")

        class _Server(ThreadingHTTPServer):
            # non-daemon handler threads + block_on_close: server_close()
            # JOINS in-flight handlers, so a request acknowledged 200
            # cannot buffer a doc after shutdown()'s final commit (which
            # would silently lose an acknowledged write on process exit)
            daemon_threads = False

        self._httpd = _Server((host, port), _Handler)
        self.host, self.port = self._httpd.server_address[:2]
        self._thread: threading.Thread | None = None

    def _call(self, route: _Route, q: dict[str, str]):
        """Decode ``q`` by the facade signature, run the op under the lock
        (a read commits pending writes first: read-your-writes) and encode
        its answer."""
        declared = [p.wire for p in route.params.values()]
        unknown = [k for k in q if k not in declared]
        if unknown and route.name != "index_map":
            raise LuceneException(
                f"unknown parameter {unknown[0]!r} (takes: {', '.join(declared)})"
            )
        kwargs = self._per_route(route, q)
        for p in route.params.values():
            raw = q.get(p.wire)
            if p.name in kwargs:
                continue
            if raw in (None, "") and p.default is not inspect.Parameter.empty:
                continue  # empty or absent: the facade default
            # an absent required string fails the facade's own check
            kwargs[p.name] = (
                None if raw is None and p.kind is str else _decode(p, raw or "")
            )
        with self._lock:
            if route.name not in _WRITES and self.facade._pending:
                self.facade.commit()
            out = getattr(self.facade, route.name)(**kwargs)
        return _ANSWERS.get(route.name, _json_body)(out)

    def _per_route(self, route: _Route, q: dict[str, str]) -> dict:
        """The arguments a route decodes its own way."""
        if route.name == "index_map":
            return {"mapping": {k: v for k, v in q.items()
                                if k not in ("collection", "id")}}
        if route.name == "index_file" and self.file_root is not None:
            path = q.get("path", "")
            real = os.path.realpath(path)
            if not (real + os.sep).startswith(self.file_root + os.sep):
                raise LuceneException(
                    f"path outside the served file root: {path!r}"
                )
            return {"path": real}
        if route.name == "search_after":
            score = _decode(route.params["after_score"], q.get("after_score", ""))
            if not math.isfinite(score):
                raise LuceneException("after_score must be finite")
            if "after_url" not in q:
                raise LuceneException("after_url is required")
            return {"after_score": score}
        return {}

    # ---- lifecycle -------------------------------------------------------
    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}{self.base_path}"

    def start(self) -> "LuceneHttpService":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def shutdown(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        with self._lock:
            self.facade.commit()


def _hit_ids(hits: list[dict]) -> list[str]:
    # ≙ lucene-client.js:85-115 — the _externalId list
    return [h["_externalId"] for h in hits]


# client answers other than the JSON body
_CLIENT_ANSWERS = {
    "search": _hit_ids,
    "more_like_this": _hit_ids,
    "count": lambda body: body["count"],
}


def _client_method(op: str, route: _Route):
    """The client method of one route: the facade's parameters under their
    wire names (``ext_id`` keeps its name: ``id`` is a builtin), sent as
    the route decodes them."""
    P = inspect.Parameter
    fn = getattr(LuceneFacade, route.name)
    names = {p.name: p.name if p.name == "ext_id" else p.wire
             for p in route.params.values()}
    params = [P("self", P.POSITIONAL_OR_KEYWORD)]
    for p in route.params.values():
        default, annotation = p.default, fn.__annotations__[p.name]
        if p.wire in _WORDS:  # the client sends the word itself
            default = next(w for w, v in _WORDS[p.wire].items() if v == default)
            annotation = "str"
        params.append(P(names[p.name], P.POSITIONAL_OR_KEYWORD,
                        default=default, annotation=annotation))
    sig = inspect.Signature(params)

    def method(self, *args, **kwargs):
        bound = sig.bind(self, *args, **kwargs)
        bound.apply_defaults()
        data = {}
        for p in route.params.values():
            v = bound.arguments[names[p.name]]
            if v is None:
                continue
            if p.name == "mapping":  # index-map's free-form keys
                data.update(v)
            elif isinstance(v, bool):
                data[p.wire] = "true" if v else "false"
            elif isinstance(v, (list, tuple, dict)):
                data[p.wire] = json.dumps(v)
            else:
                data[p.wire] = v
        send = self._post if route.verb == "POST" else self._get
        return _CLIENT_ANSWERS.get(route.name, lambda body: body)(send(op, data))

    method.__name__ = route.name
    method.__qualname__ = f"LuceneHttpClient.{route.name}"
    method.__doc__ = (
        f"``{route.verb} <base>/{op}``: :meth:`LuceneFacade.{route.name}` "
        "over the wire."
    )
    method.__signature__ = sig
    return method


def _route_methods(cls):
    """Class decorator: one client method per route."""
    for op, route in _ROUTES.items():
        setattr(cls, route.name, _client_method(op, route))
    return cls


@_route_methods
class LuceneHttpClient:
    """Python twin of ``lucene-client.js`` (same wire shapes) so the
    round-trip is testable without a browser: one method per route, with
    the facade method's parameters; ``search`` and ``more_like_this``
    return the ``_externalId`` list as the JS client does."""

    def __init__(self, url: str):
        self.url = url.rstrip("/")

    def _post(self, op: str, data: dict):
        req = Request(
            f"{self.url}/{op}",
            data=urlencode(data).encode(),
            headers={"Content-Type": "application/x-www-form-urlencoded"},
            method="POST",
        )
        with urlopen(req) as resp:
            return json.loads(resp.read().decode())

    def _get(self, op: str, params: dict):
        with urlopen(f"{self.url}/{op}?{urlencode(params)}") as resp:
            return json.loads(resp.read().decode())
