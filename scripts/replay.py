"""In-process replay of a ``perfbench`` query log: engine process time per
query of a parent checkout against a change checkout.

    python3 scripts/replay.py --parent ../parent --change . \
        --workload search_head --seed 7 --rounds 5

The seeded index is built once (``perfbench.gen.corpus``, the workload's
corpus size and partitioning) with the change checkout's code.  Each round
replays the workload's log (``gen.head_queries`` for ``search_head``; the
batches of ``gen.tail_queries``, one query after another, for
``search_tail``) through one fresh in-process ``SearchEngine`` per checkout,
``search(q, limit=10)`` per query, in a child process pinned to one CPU.
The order alternates per round (parent first on even rounds).  Only the
search calls are timed, by ``time.process_time``; opening the engine is not.

The script prints each round's process time per query per side, then each
side's median and range over the rounds, and whether the change's median
exceeds the parent's by more than the parent's own range.  It exits 1 when
the two sides' result tables (url, score, docid of every query) differ.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np


def _queries(workload: str, seed: int):
    """(pages, flat query log, index config kwargs) of a workload."""
    from perfbench import gen
    from perfbench.workloads import NUM_PARTITIONS, SearchHead, SearchTail

    if workload == "search_head":
        pages = gen.corpus(seed, SearchHead.DOCS).drop_columns(["html"])
        return pages, gen.head_queries(seed, SearchHead.LOG), {
            "num_partitions": NUM_PARTITIONS}
    pages = gen.corpus(seed, SearchTail.DOCS, with_fields=True).drop_columns(["html"])
    log = [q for b in gen.tail_queries(seed, pages, SearchTail.BATCHES) for q in b]
    return pages, log, {"num_partitions": NUM_PARTITIONS,
                        "field_columns": ["foo", "age"]}


def build(work: str, workload: str, seed: int) -> None:
    """Child mode: write the index under ``work/index`` and the query log
    and config to ``work/plan.json``."""
    import ray

    from lucene_plugin_ray import IndexConfig
    from lucene_plugin_ray.pipelines.build import build_index

    ray.init(num_cpus=1, include_dashboard=False, logging_level="ERROR")
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    pages, log, cfg_kw = _queries(workload, seed)
    root = os.path.join(work, "index")
    build_index(pages, IndexConfig(index_root=root, **cfg_kw))
    ray.shutdown()
    with open(os.path.join(work, "plan.json"), "w") as f:
        json.dump({"root": root, "cfg": cfg_kw, "queries": log}, f)


def replay(work: str, out: str) -> None:
    """Child mode: replay the plan through one fresh engine pinned to one
    CPU; write the process seconds and a digest of each query's result
    table to ``out``."""
    from lucene_plugin_ray import IndexConfig
    from lucene_plugin_ray.pipelines.query import SearchEngine

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    with open(os.path.join(work, "plan.json")) as f:
        plan = json.load(f)
    cfg = IndexConfig(index_root=plan["root"], **{
        k: tuple(v) if isinstance(v, list) else v for k, v in plan["cfg"].items()})
    eng = SearchEngine(plan["root"], cfg=cfg)
    queries = plan["queries"]
    results = []
    t0 = time.process_time()
    for q in queries:
        results.append(eng.search(q, limit=10))
    cpu = time.process_time() - t0
    digests = [
        hashlib.sha256(json.dumps([t["url"].to_pylist(), t["score"].to_pylist(),
                                   t["docid"].to_pylist()]).encode()).hexdigest()
        for t in results
    ]
    with open(out, "w") as f:
        json.dump({"cpu_s": cpu, "digests": digests}, f)


def _child(checkout: str, *args: str) -> None:
    """Run this script in a child mode (``_build`` or ``_replay``) with
    ``checkout`` first on the path."""
    env = dict(os.environ, PYTHONPATH=checkout)
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), *args],
        cwd=checkout, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(args)} exited "
                           f"{proc.returncode}\n{proc.stderr[-2000:]}")


def summarize(per_query: dict[str, list[float]]) -> dict:
    """Each side's median and range of process time per query over the
    rounds, and whether the change's median exceeds the parent's by more
    than the parent's range."""
    out = {side: {"median": float(np.median(v)), "min": min(v), "max": max(v)}
           for side, v in per_query.items()}
    p, c = out["parent"], out["change"]
    out["higher"] = c["median"] - p["median"] > p["max"] - p["min"]
    return out


def main() -> None:
    if sys.argv[1:2] == ["_build"]:
        return build(sys.argv[2], sys.argv[3], int(sys.argv[4]))
    if sys.argv[1:2] == ["_replay"]:
        return replay(*sys.argv[2:4])
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="change checkout")
    ap.add_argument("--workload", required=True,
                    choices=["search_head", "search_tail"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--work", help="work directory (default: a fresh temp dir)")
    args = ap.parse_args()
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    work = args.work or tempfile.mkdtemp(prefix="replay-")
    _child(sides["change"], "_build", work, args.workload, str(args.seed))
    with open(os.path.join(work, "plan.json")) as f:
        queries = json.load(f)["queries"]
    per_query: dict[str, list[float]] = {"parent": [], "change": []}
    first = None  # the first round's result digests
    differ = []
    for r in range(args.rounds):
        order = ["parent", "change"] if r % 2 == 0 else ["change", "parent"]
        cells = []
        for side in order:
            out = os.path.join(work, f"{side}-{r}.json")
            _child(sides[side], "_replay", work, out)
            with open(out) as f:
                got = json.load(f)
            per_query[side].append(got["cpu_s"] / len(queries) * 1e6)
            first = first or got["digests"]
            differ += [i for i, (a, b) in enumerate(zip(first, got["digests"]))
                       if a != b]
            cells.append(f"{side} {per_query[side][-1]:.1f}")
        print(f"round {r} ({order[0]} first): µs/query  " + "  ".join(cells),
              flush=True)
    s = summarize(per_query)
    for side in ("parent", "change"):
        v = s[side]
        print(f"{side}: median {v['median']:.1f} µs/query, range "
              f"{v['min']:.1f}-{v['max']:.1f}")
    print("change higher than the parent by more than the parent's range:",
          "yes" if s["higher"] else "no")
    if differ:
        i = min(differ)
        print(f"result tables differ on {len(set(differ))} queries, the first "
              f"query {i}: {queries[i]!r}")
        sys.exit(1)
    print("result tables equal")


if __name__ == "__main__":
    main()
