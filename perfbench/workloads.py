"""The benchmark workloads.

Each workload is driven from one process as a closed loop with one client:
the next operation starts when the previous one returns.  ``prepare``
generates the inputs from the seed; ``setup`` builds and opens what the timed
phase needs (the harness repeats it and reports the median);
``run`` measures for the requested seconds and checks outputs, counting every
failed or wrong operation.  Output checks run untimed and untraced.

Every workload reports the same end-to-end metrics (see ``Samples``); what an
"item" and an "operation" are differs per workload and is listed in
``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import math
import os
import sys
import time
import traceback
from contextlib import nullcontext

import pyarrow as pa

from lucene_plugin_ray import IndexConfig
from lucene_plugin_ray.pipelines.build import build_delta, build_index, compact_index
from lucene_plugin_ray.pipelines.fixtures import write_pages
from lucene_plugin_ray.pipelines.oracle import OracleIndex
from lucene_plugin_ray.pipelines.query import SearchEngine
from lucene_plugin_ray.pipelines.replicate import replicate_index
from lucene_plugin_ray.pipelines.sharded import ShardedSearcherService
from lucene_plugin_ray.state.manifest import load_manifest_chain

from perfbench import gen

NUM_PARTITIONS = 4
# operations whose outputs form the result digest: a fixed count, so runs of
# different lengths (traced or not) stay comparable
DIGEST_OPS = 200


class Block:
    """A slice of the timed phase: ``items`` done in ``item_s`` seconds and
    one latency sample per operation.  End-to-end metrics are medians over
    blocks, so a slow spell of the host that covers less than half of the
    blocks moves them less than it moves whole-run figures."""

    __slots__ = ("items", "item_s", "latency_ms")

    def __init__(self) -> None:
        self.items = 0
        self.item_s = 0.0
        self.latency_ms: list[float] = []


class Samples:
    """What one timed run measured.

    ``blocks`` hold the throughput and latency samples (what a block is
    differs per workload); ``refresh_ms`` holds one sample per SearchEngine
    reopen in ``ingest``; ``op_s`` is the wall time of all timed operations,
    the denominator of the traced run's layer coverage."""

    def __init__(self, digest_ops: int = DIGEST_OPS) -> None:
        self.digest_ops = digest_ops
        self.blocks: list[Block] = []
        self.refresh_ms: list[float] = []
        self.op_s = 0.0
        self.index_bytes = 0
        self.input_bytes = 0
        self.attempted = 0
        self.failed = 0
        self.extra: dict = {}
        self._hash = hashlib.sha256()
        self._recorded = 0

    def block(self) -> Block:
        """Start a new block and return it."""
        self.blocks.append(Block())
        return self.blocks[-1]

    @property
    def latency_ms(self) -> list[float]:
        return [x for b in self.blocks for x in b.latency_ms]

    @property
    def items(self) -> int:
        return sum(b.items for b in self.blocks)

    @property
    def recording(self) -> bool:
        return self._recorded < self.digest_ops

    def record(self, *output) -> None:
        """Fold one operation's output into :attr:`digest` (the first
        ``digest_ops`` operations only)."""
        if self.recording:
            self._recorded += 1
            self._hash.update(repr(output).encode())

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()[:16]

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"perfbench: FAILED {what}", file=sys.stderr)


def index_digest(manifest) -> str:
    """Content digest of a built index: sha256 over the partitions'
    ``input_digest`` (the digest ``bench.py`` reports)."""
    src = ",".join(
        sorted(f"{r['collection']}:{r['partition']}:{r['input_digest']}" for r in manifest.partitions)
    )
    return hashlib.sha256(src.encode()).hexdigest()[:16]


def live_index_bytes(root: str) -> int:
    """Bytes of the files the live manifest chain references: its segments,
    tombstones and manifests (generations a compaction subsumed excluded)."""
    total = 0
    for m in load_manifest_chain(root):
        total += os.path.getsize(os.path.join(root, f"manifest-{m.generation}.json"))
        if m.tombstone_path:
            total += os.path.getsize(m.tombstone_path)
        for row in m.partitions:
            for dirpath, _, files in os.walk(row["path"]):
                total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


def _hits(table: pa.Table) -> list[tuple[str, float]]:
    return list(zip(table["url"].to_pylist(), table["score"].to_pylist()))


class Workload:
    name = ""

    def __init__(self, work_dir: str, seed: int, tracer=None, scale: float = 1.0):
        self.work = work_dir
        self.seed = seed
        self.tracer = tracer
        self.scale = scale

    def scaled(self, n: int, floor: int) -> int:
        """Input size ``n`` times the run's scale (tests use small scales)."""
        return max(floor, math.ceil(n * self.scale))

    def untraced(self):
        """Context for benchmark-side work inside the timed window."""
        return self.tracer.paused() if self.tracer is not None else nullcontext()

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def cfg(self, root: str) -> IndexConfig:
        return IndexConfig(index_root=root, num_partitions=NUM_PARTITIONS)

    def prepare(self) -> None:
        """Generate the inputs from the seed (benchmark work, untimed)."""

    def setup(self, rep: int) -> None:
        """Build and open what the timed phase needs (the program's set-up
        work; the harness times it)."""
        raise NotImplementedError

    def run(self, seconds: float) -> Samples:
        raise NotImplementedError

    def close(self) -> None:
        """Release what ``setup`` started (called between set-up repetitions
        and at the end, untimed)."""


class Ingest(Workload):
    """Writes beside reads: delta generations (upserts, new urls, deletes)
    over a replica of a base index, a refresh and a probe query set after
    each, then ``compact_index``, a refresh and the probes again.  Item: a
    delta row.  Operation: one probe query."""

    name = "ingest"
    DOCS = 5000
    GENERATIONS = 3
    ROWS_PER_GEN = 1000
    DELETES_PER_GEN = 20
    PROBES = 60
    # probe sets per seed: each refresh runs the next set, so a run's
    # percentiles rest on many distinct probes, not on one seed's 60
    PROBE_SETS = 16

    def prepare(self) -> None:
        self.base = gen.corpus(
            self.seed, self.scaled(self.DOCS, 200), namespace="b"
        ).drop_columns(["html"])
        self.plan = gen.ingest_plan(
            self.seed, self.base, self.GENERATIONS,
            self.scaled(self.ROWS_PER_GEN, 40), self.scaled(self.DELETES_PER_GEN, 2),
        )
        self.probes = gen.probe_queries(self.seed, self.PROBES * self.PROBE_SETS)
        self.input_bytes = gen.text_bytes(self.base) + sum(
            gen.text_bytes(d.rows) for d in self.plan
        )
        # deltas arrive as Parquet files, so the read path is measured too
        self.delta_dirs = []
        for g, d in enumerate(self.plan, 1):
            self.delta_dirs.append(self.path(f"delta-{g}"))
            write_pages(d.rows, self.delta_dirs[-1], n_files=1)
        self.base_digests: list[str] = []

    def setup(self, rep: int) -> None:
        self.base_root = self.path(f"base-{rep}")
        self.base_digests.append(index_digest(build_index(self.base, self.cfg(self.base_root))))
        self.cycle_root = self.path(f"cycle-{rep}-0")
        replicate_index(self.base_root, self.cycle_root)

    def _check(self, s: Samples, eng: SearchEngine, upto: int, results: list) -> None:
        """Each marker(g) query returns exactly the urls whose live version g
        wrote; no probe returns a deleted url or a url twice."""
        live, deleted = gen.expected_after(self.plan, upto)
        for g, want in enumerate(live, 1):
            s.attempted += 1
            got = eng.search(gen.marker(g), limit=len(want) + 10)["url"].to_pylist()
            if set(got) != want or len(got) != len(want):
                s.fail(f"ingest marker {gen.marker(g)} after generation {upto}")
        for q, urls in results:
            if deleted.intersection(urls) or len(set(urls)) != len(urls):
                s.fail(f"ingest probe {q!r} after generation {upto}")

    def _refresh_and_probe(self, s: Samples, b: Block, root: str, upto: int) -> None:
        cfg = self.cfg(root)
        t0 = time.perf_counter()
        eng = SearchEngine(root, cfg=cfg)
        dt = time.perf_counter() - t0
        s.refresh_ms.append(dt * 1e3)
        s.op_s += dt
        results = []
        k = len(s.refresh_ms) - 1
        lo = (k % self.PROBE_SETS) * self.PROBES
        for q in self.probes[lo : lo + self.PROBES]:
            s.attempted += 1
            t0 = time.perf_counter()
            try:
                res = eng.search(q, limit=10)
            except Exception:
                traceback.print_exc()
                s.fail(f"probe {q!r}")
                continue
            dt = time.perf_counter() - t0
            b.latency_ms.append(dt * 1e3)
            s.op_s += dt
            urls = res["url"].to_pylist()
            results.append((q, urls))
            if s.recording:
                s.record(q, urls, res["score"].to_pylist())
        with self.untraced():
            self._check(s, eng, upto, results)

    def run(self, seconds: float) -> Samples:
        s = Samples()
        s.input_bytes = self.input_bytes
        compact_s: list[float] = []
        t_end = time.perf_counter() + seconds
        cycle = 0
        while cycle == 0 or time.perf_counter() < t_end:
            root = self.cycle_root
            if cycle:
                root = self.path(f"cycle-run-{cycle}")
                with self.untraced():
                    replicate_index(self.base_root, root)
            cfg = self.cfg(root)
            for g, (delta, delta_dir) in enumerate(zip(self.plan, self.delta_dirs), 1):
                b = s.block()
                s.attempted += 1
                t0 = time.perf_counter()
                try:
                    build_delta(delta_dir, cfg, deletes=delta.deletes)
                except Exception:
                    traceback.print_exc()
                    s.fail(f"build_delta {g}")
                    continue
                dt = time.perf_counter() - t0
                b.items += delta.rows.num_rows
                b.item_s += dt
                s.op_s += dt
                self._refresh_and_probe(s, b, root, g)
            s.attempted += 1
            t0 = time.perf_counter()
            try:
                compact_index(cfg)
            except Exception:
                traceback.print_exc()
                s.fail("compact_index")
            else:
                dt = time.perf_counter() - t0
                compact_s.append(dt)
                s.op_s += dt
                self._refresh_and_probe(s, s.block(), root, len(self.plan))
                if not s.index_bytes:
                    with self.untraced():
                        s.index_bytes = live_index_bytes(root)
            cycle += 1
        s.attempted += 1
        if len(set(self.base_digests)) != 1:
            s.fail(f"base index digest differs across builds of one corpus: {self.base_digests}")
        s.extra["cycles"] = cycle
        s.extra["compact_s"] = compact_s
        s.extra["index_digest"] = self.base_digests[0]
        return s


class SearchHead(Workload):
    """In-process ``SearchEngine.search`` (limit 10) over a head-term query
    log with Zipf popularity: results cache, scoring and merge do the work.
    Item and operation: one query.  Block: ``BLOCK`` consecutive queries."""

    name = "search_head"
    DOCS = 5000
    LOG = 40_000
    WARM = 800
    CHECKS = 24
    BLOCK = 500

    def prepare(self) -> None:
        self.pages = gen.corpus(self.seed, self.scaled(self.DOCS, 200)).drop_columns(["html"])
        self.log = gen.head_queries(self.seed, self.LOG)

    def setup(self, rep: int) -> None:
        self.root = self.path(f"idx-{rep}")
        self.cfg_ = self.cfg(self.root)
        build_index(self.pages, self.cfg_)
        self.eng = SearchEngine(self.root, cfg=self.cfg_)
        for q in self.log[: self.WARM]:
            self.eng.search(q, limit=10)

    def run(self, seconds: float) -> Samples:
        s = Samples()
        s.input_bytes = gen.text_bytes(self.pages)
        eng = self.eng
        kept: dict[str, pa.Table] = {}
        t_end = time.perf_counter() + seconds
        t_start = t_block = time.perf_counter()
        b = s.block()
        i = self.WARM
        while time.perf_counter() < t_end:
            q = self.log[i % len(self.log)]
            i += 1
            s.attempted += 1
            t0 = time.perf_counter()
            try:
                res = eng.search(q, limit=10)
            except Exception:
                traceback.print_exc()
                s.fail(f"search {q!r}")
                continue
            t1 = time.perf_counter()
            b.latency_ms.append((t1 - t0) * 1e3)
            b.items += 1
            if s.recording:
                s.record(q, res["url"].to_pylist(), res["score"].to_pylist())
            if len(kept) < self.CHECKS and q not in kept and i % 97 == 0:
                kept[q] = res
            if b.items == self.BLOCK:
                b.item_s, t_block = t1 - t_block, t1
                b = s.block()
        b.item_s = time.perf_counter() - t_block
        s.op_s += time.perf_counter() - t_start
        if len(s.blocks) > 1:
            s.blocks.pop()  # the cut-off last block
        with self.untraced():
            s.index_bytes = live_index_bytes(self.root)
            oracle = OracleIndex(self.pages, self.cfg_)
            for q, res in kept.items():
                s.attempted += 1
                want = oracle.search(q, limit=10)
                got = _hits(res)
                if [u for u, _ in got] != [u for u, _ in want] or any(
                    abs(a - b) > 1e-6 * max(1.0, abs(b)) for (_, a), (_, b) in zip(got, want)
                ):
                    s.fail(f"search_head {q!r} differs from the oracle")
        s.extra["checked_vs_oracle"] = len(kept)
        return s


class SearchTail(Workload):
    """``ShardedSearcherService.search_batch`` (4 shards) over batches of
    distinct mid/tail-term queries: ORs, phrases, prefix / wildcard / fuzzy
    expansions and field-filtered ANDs.  Item: one query.  Operation: one
    batch.  Block: ``BLOCK`` consecutive batches."""

    name = "search_tail"
    DOCS = 5000
    SHARDS = 4
    BATCHES = 250
    CHECK_BATCHES = 2
    DIGEST_BATCHES = 4
    BLOCK = 4

    def cfg(self, root: str) -> IndexConfig:
        return IndexConfig(
            index_root=root, num_partitions=NUM_PARTITIONS, field_columns=("foo", "age")
        )

    def prepare(self) -> None:
        self.pages = gen.corpus(
            self.seed, self.scaled(self.DOCS, 200), with_fields=True
        ).drop_columns(["html"])
        # the last batch warms the shard actors in set-up
        *self.log, self.warm = gen.tail_queries(self.seed, self.pages, self.BATCHES)

    def setup(self, rep: int) -> None:
        self.root = self.path(f"idx-{rep}")
        self.cfg_ = self.cfg(self.root)
        build_index(self.pages, self.cfg_)
        self.svc = ShardedSearcherService(self.root, cfg=self.cfg_, num_shards=self.SHARDS)
        self.svc.search_batch(self._batch(self.warm))

    @staticmethod
    def _batch(queries: list[str]) -> pa.Table:
        return pa.table(
            {
                "qid": pa.array(range(len(queries)), type=pa.int64()),
                "query": pa.array(queries, type=pa.string()),
                "k": pa.array([10] * len(queries), type=pa.int64()),
            }
        )

    def _check(self, s: Samples, queries: list[str], res: pa.Table) -> None:
        """Sharded top-k equals single-engine top-k (urls and scores)."""
        by_qid: dict[int, list] = {}
        for qid, url, score in zip(
            res["qid"].to_pylist(), res["url"].to_pylist(), res["score"].to_pylist()
        ):
            by_qid.setdefault(qid, []).append((url, score))
        eng = SearchEngine(self.root, cfg=self.cfg_)
        for qid, q in enumerate(queries):
            s.attempted += 1
            if by_qid.get(qid, []) != _hits(eng.search(q, limit=10)):
                s.fail(f"search_tail {q!r}: sharded differs from single engine")

    def run(self, seconds: float) -> Samples:
        s = Samples(digest_ops=self.DIGEST_BATCHES)
        s.input_bytes = gen.text_bytes(self.pages)
        t_end = time.perf_counter() + seconds
        n_batches = 0
        b = s.block()
        for queries in self.log:
            if time.perf_counter() >= t_end:
                break
            if len(b.latency_ms) == self.BLOCK:
                b = s.block()
            s.attempted += 1
            t0 = time.perf_counter()
            try:
                res = self.svc.search_batch(self._batch(queries))
            except Exception:
                traceback.print_exc()
                s.fail(f"search_batch {n_batches}")
                continue
            dt = time.perf_counter() - t0
            b.latency_ms.append(dt * 1e3)
            b.items += len(queries)
            b.item_s += dt
            s.op_s += dt
            if s.recording:
                s.record(res["qid"].to_pylist(), res["url"].to_pylist(), res["score"].to_pylist())
            if n_batches < self.CHECK_BATCHES:
                with self.untraced():
                    self._check(s, queries, res)
            n_batches += 1
        if len(s.blocks) > 1 and len(b.latency_ms) < self.BLOCK:
            s.blocks.pop()  # the cut-off last block
        with self.untraced():
            s.index_bytes = live_index_bytes(self.root)
        s.extra["batches"] = n_batches
        return s

    def close(self) -> None:
        svc = getattr(self, "svc", None)
        if svc is not None:
            svc.shutdown()
            self.svc = None


WORKLOADS = {w.name: w for w in (Ingest, SearchHead, SearchTail)}
