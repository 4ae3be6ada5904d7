"""Per-layer tracing installed from the benchmark, with no edit to the package.

Each traced function or method is replaced by a wrapper at every module (or
class) attribute a caller looks it up through.  A wrapper records one span per
call: wall time (``time.perf_counter``) and CPU time (``time.process_time``).
Spans nest on a per-thread stack, so a layer is charged its *self* time: the
span's duration minus the durations of the traced spans it called.  Counters
(rows, tokens, postings, bytes, cache hits) are taken from the arguments and
results at the same boundary.

Spans are aggregated per layer in memory.  Ray worker processes get the same
wrappers through ``runtime_env={"worker_process_setup_hook": ...}`` and append
their aggregates to ``<trace dir>/w-<pid>.jsonl`` when each outermost span
ends, so nothing is lost when Ray kills its workers at shutdown.  The main process
merges those records with its own aggregates (:meth:`Tracer.collect`), leaving
out records that ended while it had tracing paused.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import threading
import time
import types

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

_CURRENT: "Tracer | None" = None


class Tracer:
    """Span recorder for one process.  ``sink`` is the file worker processes
    append their aggregates to; the main process has none and keeps them."""

    def __init__(self, sink: str | None = None):
        self.sink = sink
        self.enabled = True
        self.acc: dict[str, dict[str, float]] = {}
        self.calls: dict[str, int] = {}
        # main process: wall-clock intervals of its outermost build calls and
        # of its paused (untraced) sections
        self.build_windows: list[tuple[float, float]] = []
        self.paused_windows: list[tuple[float, float]] = []
        self._tls = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        s = getattr(self._tls, "stack", None)
        if s is None:
            s = self._tls.stack = []
        return s

    def add(self, layer: str, counts: dict[str, float]) -> None:
        with self._lock:
            acc = self.acc.setdefault(layer, {})
            for k, v in counts.items():
                acc[k] = acc.get(k, 0.0) + v

    def reset(self) -> None:
        with self._lock:
            self.acc = {}
            self.build_windows = []
            self.paused_windows = []

    @contextlib.contextmanager
    def paused(self):
        """Calls inside this context are not traced (benchmark-side
        preparation and output checks).  Worker records flushed meanwhile are
        dropped by :meth:`collect`, since the work they traced was started
        from inside the context."""
        prev, self.enabled = self.enabled, False
        t0 = time.time()
        try:
            yield
        finally:
            self.enabled = prev
            self.paused_windows.append((t0, time.time()))

    def wrap(self, fn, name: str, layer, count=None, before=None):
        """Traced version of ``fn``.  ``layer`` is a layer name or a function
        of the parent span's layer; ``before(args, kwargs)`` captures state
        for ``count(args, kwargs, result, state) -> {counter: value}``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            lay = layer(parent[0] if parent else None) if callable(layer) else layer
            tracer.calls[name] = tracer.calls.get(name, 0) + 1
            state = before(args, kwargs) if before is not None else None
            frame = [lay, 0.0, 0.0]
            stack.append(frame)
            w0 = time.perf_counter()
            c0 = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                w = time.perf_counter() - w0
                c = time.process_time() - c0
                stack.pop()
                if parent is not None:
                    parent[1] += w
                    parent[2] += c
                outer = parent is None or parent[0] != lay
                tracer.add(
                    lay,
                    {"busy_s": w - frame[1], "cpu_s": c - frame[2], "calls": 1.0,
                     "wall_s": w if outer else 0.0},
                )
            if count is not None:
                tracer.add(lay, count(args, kwargs, result, state))
            if parent is None:
                end = time.time()
                if tracer.sink is not None:
                    tracer.flush((end - w, end))
                elif lay == "pipelines.build":
                    tracer.build_windows.append((end - w, end))
            return result

        return traced

    def flush(self, span: tuple[float, float]) -> None:
        """Append the aggregates of the outermost span that just ended
        (``span`` is its wall-clock interval) to the sink."""
        with self._lock:
            acc, self.acc = self.acc, {}
        if acc:
            rec = {"t": span[1], "span": span, "pid": os.getpid(), "acc": acc}
            with open(self.sink, "a") as f:
                f.write(json.dumps(rec) + "\n")

    def collect(self, trace_dir: str, since: float) -> "Collected":
        """This process's aggregates merged with every worker record that
        ended at or after ``since`` (wall clock) outside a paused section."""
        out = Collected()
        out.merge(self.acc)
        for fname in sorted(os.listdir(trace_dir)):
            if not fname.startswith("w-"):
                continue
            with open(os.path.join(trace_dir, fname)) as f:
                for line in f:
                    rec = json.loads(line)
                    t = rec["t"]
                    if t < since or any(a <= t <= b for a, b in self.paused_windows):
                        continue
                    out.merge(rec["acc"])
                    busy = sum(c.get("busy_s", 0.0) for c in rec["acc"].values())
                    out.worker_busy += busy
                    if any(a <= t <= b for a, b in self.build_windows):
                        out.build_worker_busy += busy
                        out.build_worker_spans.append(tuple(rec["span"]))
        out.build_worker_wall = _union_length(out.build_worker_spans, self.build_windows)
        return out


class Collected:
    """Aggregates of a traced run.  ``totals`` maps layer → counters.  Worker
    spans are counted separately: ``worker_busy`` is the self time of every
    worker span; ``build_worker_busy`` that of the spans that ended inside a
    main-process build call, and ``build_worker_wall`` the length of the
    union of those spans (less than their sum when they overlap)."""

    def __init__(self) -> None:
        self.totals: dict[str, dict[str, float]] = {}
        self.worker_busy = 0.0
        self.build_worker_busy = 0.0
        self.build_worker_spans: list[tuple[float, float]] = []
        self.build_worker_wall = 0.0

    def merge(self, acc: dict) -> None:
        for layer, counts in acc.items():
            t = self.totals.setdefault(layer, {})
            for k, v in counts.items():
                t[k] = t.get(k, 0.0) + v

    def get(self, layer: str, key: str) -> float:
        return float(self.totals.get(layer, {}).get(key, 0.0))


def _union_length(spans, windows) -> float:
    """Length of the union of ``spans`` clipped to ``windows``."""
    clipped = sorted(
        (max(a, wa), min(b, wb)) for a, b in spans for wa, wb in windows if a < wb and b > wa
    )
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


# ---------------------------------------------------------------------------
# What is traced.  Counter functions get (args, kwargs, result, state); for
# methods args[0] is self.

def _calls(name: str) -> int:
    return _CURRENT.calls.get(name, 0)


def _parse_hits(args, kwargs):
    from lucene_plugin_ray.functions.queryparse import _parse_query_cached

    return _parse_query_cached.cache_info().hits


def _parse_count(args, kwargs, result, hits0):
    from lucene_plugin_ray.functions.queryparse import _parse_query_cached

    return {"cache_hits": float(_parse_query_cached.cache_info().hits > hits0)}


def _miss_counter(inner: str):
    """Cache lookup counter: the lookup missed iff it called ``inner``."""

    def before(args, kwargs):
        return _calls(inner)

    def count(args, kwargs, result, n0):
        return {"lookups": 1.0, "hits": float(_calls(inner) == n0)}

    return before, count


def _file_bytes(path: str) -> float:
    try:
        return float(os.path.getsize(path))
    except (OSError, TypeError):
        return 0.0  # remote roots: size not known locally


def _postings_of(prepared) -> float:
    return float(prepared.starts[-1]) if prepared is not None else 0.0


_RESULTS_CACHE = _miss_counter("SearchEngine._execute")
_POSTINGS_CACHE = _miss_counter("SegmentReader.postings")

SB = "lucene_plugin_ray.stages"
ST = "lucene_plugin_ray.state"
FN = "lucene_plugin_ray.functions"
PL = "lucene_plugin_ray.pipelines"

# (module, attribute path, layer, count, before)
SPECS = [
    ("lucene_plugin_ray.sources.reader", "read_parquet_clean", "sources.read", None, None),
    (f"{SB}.validate", "ValidateAndPartition.__call__", "stages.validate",
     lambda a, k, r, s: {"rows": float(a[1].num_rows)}, None),
    (f"{SB}.segment_write", "dedup_latest", "stages.segment_write.dedup",
     lambda a, k, r, s: {"rows_in": float(a[0].num_rows)}, None),
    (f"{SB}.segment_write", "apply_deletes", "stages.segment_write.dedup", None, None),
    (f"{SB}.segment_write", "drop_stale_vs_prior", "stages.segment_write.dedup",
     lambda a, k, r, s: {"rows_out": float(r.num_rows)}, None),
    (f"{ST}.segment", "live_prior_table", "stages.segment_write.dedup", None, None),
    (f"{SB}.segment_write", "_build_postings_numeric", "stages.segment_write.postings",
     lambda a, k, r, s: {"postings": _postings_of(r[0])}, None),
    (f"{SB}.segment_write", "build_partition_segment", "stages.segment_write.assemble", None, None),
    (f"{SB}.segment_write", "encode_and_write_segment", "stages.segment_write.assemble", None, None),
    (f"{SB}.merge", "merge_segments_for_partition", "stages.merge", None, None),
    (f"{FN}.analysis", "tokenize_column_hashed", "functions.analysis.tokenize",
     lambda a, k, r, s: {"tokens": float(len(r.parents)) if r is not None else 0.0}, None),
    (f"{FN}.analysis", "tokenize_column", "functions.analysis.tokenize",
     lambda a, k, r, s: {"tokens": float(len(r[0]))}, None),
    (f"{FN}.codec", "encode_many_postings", "functions.codec.encode",
     lambda a, k, r, s: {"postings": float(a[0][-1]), "bytes": float(r[0].size)}, None),
    (f"{FN}.codec", "encode_many_positions", "functions.codec.encode",
     lambda a, k, r, s: {"bytes": float(r[0].size)}, None),
    (f"{FN}.codec", "decode_region", "functions.codec.decode",
     lambda a, k, r, s: {"postings": float(a[5]),
                         "bytes": float(a[2] - a[1] + a[4] - a[3])}, None),
    (f"{FN}.queryparse", "parse_query", "functions.queryparse.parse",
     _parse_count, _parse_hits),
    (f"{ST}.storage", "write_bytes", "state.storage.write",
     lambda a, k, r, s: {"bytes": float(len(a[1]))}, None),
    (f"{ST}.storage", "write_parquet", "state.storage.write",
     lambda a, k, r, s: {"bytes": _file_bytes(a[1])}, None),
    # non-atomic write_json writes through write_bytes, which counts the bytes
    (f"{ST}.storage", "write_json", "state.storage.write",
     lambda a, k, r, s: {"bytes": _file_bytes(a[0]) if k.get("atomic") else 0.0}, None),
    (f"{ST}.manifest", "write_manifest", "state.manifest.commit", None, None),
    (f"{ST}.segment", "SegmentReader.__init__", "state.segment.open", None, None),
    (f"{ST}.segment", "SegmentReader.lookup", "state.segment.lookup", None, None),
    (f"{ST}.segment", "SegmentReader.postings", "functions.codec.decode", None, None),
    (f"{ST}.segment", "SegmentReader.positions", "state.segment.positions",
     lambda a, k, r, s: {"positions": float(len(r))}, None),
    (f"{ST}.segment", "resolve_live_partition", "state.segment.resolve_live", None, None),
    (f"{PL}.build", "build_index", "pipelines.build", None, None),
    (f"{PL}.build", "build_delta", "pipelines.build", None, None),
    (f"{PL}.build", "compact_index", "pipelines.build", None, None),
    (f"{PL}.query", "SearchEngine.__init__", "pipelines.query.refresh", None, None),
    (f"{PL}.query", "SearchEngine.search", "pipelines.query.results_cache",
     _RESULTS_CACHE[1], _RESULTS_CACHE[0]),
    (f"{PL}.query", "SearchEngine.search_partial", "pipelines.query.merge", None, None),
    (f"{PL}.query", "SearchEngine._execute", "pipelines.query.merge", None, None),
    (f"{PL}.query", "SearchEngine._phase1_df", "pipelines.query.phase1_df", None, None),
    (f"{PL}.query", "SearchEngine.local_term_dfs", "pipelines.query.phase1_df", None, None),
    (f"{PL}.query", "SearchEngine.local_collection_stats", "pipelines.query.phase1_df", None, None),
    (f"{PL}.query", "SearchEngine._score_segment_taat", "pipelines.query.score", None, None),
    (f"{PL}.query", "SearchEngine._eval_boolean", "pipelines.query.score", None, None),
    (f"{PL}.query", "SearchEngine._score_segment_and", "pipelines.query.score", None, None),
    (f"{PL}.query", "SearchEngine._score_segment_bmax", "pipelines.query.score", None, None),
    (f"{PL}.query", "SearchEngine._score_segment_bmw", "pipelines.query.score", None, None),
    (f"{PL}.query", "SearchEngine._decoded", "pipelines.query.postings_cache",
     _POSTINGS_CACHE[1], _POSTINGS_CACHE[0]),
    (f"{PL}.query", "SearchEngine._phrase_postings", "pipelines.query.phrase", None, None),
    (f"{PL}.query", "SearchEngine._span_postings", "pipelines.query.phrase", None, None),
    (f"{PL}.query", "SearchEngine._expand_rows", "pipelines.query.expand",
     lambda a, k, r, s: {"terms": float(len(r))}, None),
    (f"{PL}.sharded", "ShardedSearcherService.search_batch", "pipelines.sharded.plan", None, None),
    (f"{PL}.sharded", "ShardedSearcherService._gather_global",
     "pipelines.sharded.phase1_gather", None, None),
    (f"{PL}.sharded", "ShardedSearcherService._phase2_merge", "pipelines.sharded.merge", None, None),
]


def _ray_get_layer(parent: str | None) -> str:
    """The main process's wait on shard actors: inside the phase-2 merge it is its
    own layer, inside the phase-1 gather it is part of the gather."""
    if parent == "pipelines.sharded.merge":
        return "pipelines.sharded.phase2_wait"
    return parent or "pipelines.sharded.phase1_gather"


class _RayProxy(types.ModuleType):
    """Stands in for ``ray`` in the sharded module's namespace, so the
    main process's ``ray.get`` on shard actors is traced without patching Ray."""

    def __init__(self, real, get):
        super().__init__(real.__name__)
        self._real = real
        self.get = get

    def __getattr__(self, name):
        return getattr(self._real, name)

    def __reduce__(self):
        # the actor class is pickled by value with the module's globals; the
        # receiving worker gets its own (hooked) view of plain ``ray``
        return (importlib.import_module, (self._real.__name__,))


def install(tracer: Tracer) -> None:
    """Wrap every callable in :data:`SPECS` in this process and make
    ``tracer`` the current one."""
    global _CURRENT
    _CURRENT = tracer
    replaced: dict[int, tuple[object, object]] = {}
    for mod_name, path, layer, count, before in SPECS:
        owner = importlib.import_module(mod_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapped = tracer.wrap(orig, path, layer, count, before)
        setattr(owner, attr, wrapped)
        if not isinstance(owner, type):
            replaced[id(orig)] = (orig, wrapped)
    # `from m import f` copies: rebind every alias of a wrapped function
    for name, mod in list(sys.modules.items()):
        if not name.startswith("lucene_plugin_ray") or mod is None:
            continue
        for k, v in list(vars(mod).items()):
            hit = replaced.get(id(v))
            if hit is not None and hit[0] is v:
                setattr(mod, k, hit[1])
    sharded = importlib.import_module(f"{PL}.sharded")
    real_ray = importlib.import_module("ray")
    sharded.ray = _RayProxy(real_ray, tracer.wrap(real_ray.get, "ray.get", _ray_get_layer))


def install_worker() -> None:
    """``worker_process_setup_hook``: trace this Ray worker when the main process
    set :data:`TRACE_DIR_ENV`."""
    trace_dir = os.environ.get(TRACE_DIR_ENV)
    if trace_dir:
        install(Tracer(sink=os.path.join(trace_dir, f"w-{os.getpid()}.jsonl")))


# ---------------------------------------------------------------------------
# Per-layer metrics reported by a traced run: (layer, counter, unit).  Every
# layer also reports busy_s (self wall time) and cpu_s (self CPU time) unless
# listed in _WALL_ONLY.

LAYER_COUNTERS = {
    "sources.read": [],
    "stages.validate": ["rows"],
    "stages.segment_write.dedup": ["rows_in", "rows_out"],
    "functions.analysis.tokenize": ["tokens"],
    "stages.segment_write.postings": ["postings"],
    "stages.segment_write.assemble": [],
    "functions.codec.encode": ["postings", "bytes"],
    "state.storage.write": ["bytes"],
    "state.manifest.commit": [],
    "stages.merge": [],
    "functions.queryparse.parse": ["calls"],
    "pipelines.query.results_cache": ["lookups"],
    "pipelines.query.phase1_df": [],
    "pipelines.query.score": [],
    "pipelines.query.merge": [],
    "pipelines.query.phrase": [],
    "pipelines.query.expand": ["terms"],
    "pipelines.query.postings_cache": ["lookups"],
    "pipelines.query.refresh": [],
    "state.segment.lookup": ["calls"],
    "state.segment.positions": ["positions"],
    "state.segment.open": ["calls"],
    "state.segment.resolve_live": [],
    "functions.codec.decode": ["postings", "bytes"],
    "pipelines.sharded.plan": [],
    "pipelines.sharded.phase1_gather": [],
    "pipelines.sharded.phase2_wait": [],
    "pipelines.sharded.merge": [],
}
# layers measured in the main process while it waits on other processes: their CPU
# time is the main process's polling, not the layer's work
_WALL_ONLY = {
    "sources.read", "pipelines.sharded.plan", "pipelines.sharded.phase1_gather",
    "pipelines.sharded.phase2_wait",
}
_RATIOS = {
    "functions.queryparse.parse.cache_hit_ratio": ("functions.queryparse.parse", "cache_hits", "calls"),
    "pipelines.query.results_cache.hit_ratio": ("pipelines.query.results_cache", "hits", "lookups"),
    "pipelines.query.postings_cache.hit_ratio": ("pipelines.query.postings_cache", "hits", "lookups"),
}


def _unit(counter: str) -> str:
    return "bytes" if counter == "bytes" else "count"


def layer_metric_units() -> dict[str, str]:
    """Name → unit of every per-layer metric, in report order."""
    out: dict[str, str] = {
        "pipelines.build.wall_s": "s",
        "pipelines.build.exchange_wait_s": "s",
    }
    for layer, counters in LAYER_COUNTERS.items():
        out[f"{layer}.busy_s"] = "s"
        if layer not in _WALL_ONLY:
            out[f"{layer}.cpu_s"] = "s"
        for c in counters:
            out[f"{layer}.{c}"] = _unit(c)
    for name in _RATIOS:
        out[name] = "ratio"
    return out


def layer_metrics(c: Collected) -> dict[str, float]:
    """Per-layer metric values from :meth:`Tracer.collect` output.

    ``pipelines.build.exchange_wait_s`` is the time the main process spent
    inside build/delta/compact calls outside any traced span of its own and
    outside every traced worker span: the wait on Ray Data's scheduling, the
    read tasks and the all-to-all exchange.  Worker spans are counted by the
    wall time they cover, so the value is negative only if worker spans ran
    while the main process was in one of its own traced spans."""
    values: dict[str, float] = {
        "pipelines.build.wall_s": c.get("pipelines.build", "wall_s"),
        "pipelines.build.exchange_wait_s": exchange_wait(c),
    }
    for name in layer_metric_units():
        if name in values or name in _RATIOS:
            continue
        layer, key = name.rsplit(".", 1)
        values[name] = c.get(layer, key)
    for name, (layer, num, den) in _RATIOS.items():
        d = c.get(layer, den)
        values[name] = c.get(layer, num) / d if d else 0.0
    return values


def exchange_wait(c: Collected) -> float:
    build_self = c.get("pipelines.build", "busy_s")
    return build_self - c.build_worker_wall if build_self > 0 else 0.0


def layer_total(c: Collected) -> float:
    """Sum of the layer self times that break down the main process's timed
    wall: its own layers, with a build call's self time replaced by the
    worker layers inside it plus the exchange wait.  Equal to the wall when
    the worker spans inside builds do not overlap; above it by the overlap.
    Shard-actor spans are left out: they run while the main process waits in
    ``pipelines.sharded.phase2_wait``, which already holds that time."""
    main_self = sum(float(t.get("busy_s", 0.0)) for t in c.totals.values()) - c.worker_busy
    build_self = c.get("pipelines.build", "busy_s")
    return main_self - build_self + exchange_wait(c) + c.build_worker_busy


def build_layer_total(c: Collected) -> float:
    """Sum of the build layers over the build calls' wall time: worker layers,
    exchange wait and the main process's own traced spans inside the calls."""
    wall = c.get("pipelines.build", "wall_s")
    build_self = c.get("pipelines.build", "busy_s")
    return c.build_worker_busy + exchange_wait(c) + (wall - build_self)
