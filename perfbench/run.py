"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

Run from the repository root.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it is ``{"info": {...}}``: protocol version, seed, host block,
sample counts, the end-to-end metrics (also in a traced run) and, when
traced, the layer coverage.  Exits 2 without a result when the package is not
beside the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

PROTOCOL = "perfbench/1"
SETUP_REPS = 3

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def nproc() -> int:
    """CPUs available to this process as ``nproc`` counts them (it honours
    the cgroup CPU quota, which the affinity mask does not show)."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True, check=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, subprocess.SubprocessError, ValueError):
        return len(os.sched_getaffinity(0))


def host_info(affinity: int) -> dict:
    import pyarrow
    import ray

    info = {
        "cpus": nproc(),
        "cpu_affinity": affinity,
        "mem_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "numpy": np.__version__,
    }
    # compare wall-time metrics only between runs with equal host keys
    info["host_key"] = "-".join(str(info[k]) for k in ("cpus", "mem_bytes", "machine", "ray"))
    return info


def percentile(xs: list[float], q: float) -> float:
    return float(np.percentile(xs, q)) if xs else 0.0


E2E_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "index_bytes_per_input_byte": "ratio",
}


def block_median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(s, setup_s: list[float]) -> dict[str, float]:
    """Throughput and latency percentiles are taken per block of the timed
    phase and reported as the median over blocks."""
    timed = [b for b in s.blocks if b.latency_ms]
    return {
        "setup_s": statistics.median(setup_s),
        "throughput_per_s": block_median([b.items / b.item_s for b in s.blocks if b.item_s]),
        "latency_ms_p50": block_median([percentile(b.latency_ms, 50) for b in timed]),
        "latency_ms_p90": block_median([percentile(b.latency_ms, 90) for b in timed]),
        "index_bytes_per_input_byte": s.index_bytes / s.input_bytes if s.input_bytes else 0.0,
    }


def ray_init(trace_dir: str | None, cpus: int) -> None:
    import ray
    import ray.data

    kwargs = {}
    if trace_dir is not None:
        kwargs["runtime_env"] = {"worker_process_setup_hook": "perfbench.tracer.install_worker"}
    ray.init(
        num_cpus=cpus,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=512 * 1024**2,
        **kwargs,
    )
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["ingest", "search_head", "search_tail"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="input-size factor; below 1 only for the benchmark's own tests")
    return ap.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "lucene_plugin_ray", "__init__.py")):
        print(f"perfbench: no lucene_plugin_ray package under {ROOT}", file=sys.stderr)
        return 2
    # Ray workers import the package and the trace hook from the checkout
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    from perfbench import tracer as tr

    work = os.path.join(ROOT, ".perfbench", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    trace_dir = None
    if args.trace:
        trace_dir = os.path.join(work, "trace")
        os.makedirs(trace_dir)
        os.environ[tr.TRACE_DIR_ENV] = trace_dir

    import ray

    # run on nproc CPUs, not on every CPU of the affinity mask: Ray schedules
    # for nproc, and its processes inherit this mask
    cpus = nproc()
    mask = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, mask[:cpus])
    ray_init(trace_dir, cpus)
    wl = None
    try:
        tracer = None
        if args.trace:
            # before the workloads import the package's functions by name
            tracer = tr.Tracer()
            tr.install(tracer)
        from perfbench.workloads import WORKLOADS

        wl = WORKLOADS[args.workload](work, args.seed, tracer, scale=args.scale)
        with wl.untraced():
            wl.prepare()
        setup_s = []
        for rep in range(SETUP_REPS):
            if rep:
                wl.close()
            with wl.untraced():
                t0 = time.perf_counter()
                wl.setup(rep)
                setup_s.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.reset()
        since = time.time()
        samples = wl.run(args.seconds)
        e2e = end_to_end(samples, setup_s)
        info = {
            "protocol": PROTOCOL,
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "scale": args.scale,
            "host": host_info(len(mask)),
            "setup_s_samples": setup_s,
            "samples": {
                "blocks": len(samples.blocks),
                "latency": len(samples.latency_ms),
                "refresh": len(samples.refresh_ms),
                "items": samples.items,
            },
            "latency_ms_p99": percentile(samples.latency_ms, 99),
            "refresh_ms_p50": percentile(samples.refresh_ms, 50),
            "block_throughput": [b.items / b.item_s for b in samples.blocks if b.item_s],
            "result_digest": samples.digest,
            "end_to_end": e2e,
            **samples.extra,
        }
        if tracer is not None:
            collected = tracer.collect(trace_dir, since)
            values = tr.layer_metrics(collected)
            info["layer_coverage"] = (
                tr.layer_total(collected) / samples.op_s if samples.op_s else 0.0
            )
            build_wall = values["pipelines.build.wall_s"]
            if build_wall:
                info["build_layer_coverage"] = tr.build_layer_total(collected) / build_wall
            metrics = {
                k: {"value": values[k], "unit": u} for k, u in tr.layer_metric_units().items()
            }
        else:
            metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        if wl is not None:
            wl.close()
        ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": samples.failed == 0,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
