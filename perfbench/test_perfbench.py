"""Tests of the benchmark itself, at a tiny input scale.

    python3 -m pytest perfbench/test_perfbench.py -q

Each workload runs once untraced and once traced (about ten seconds each).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import gen

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--scale", "0.05"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def runs() -> dict:
    out = {}
    for w in WORKLOADS:
        for trace in (0, 1):
            proc = _run(ROOT, w, trace)
            assert proc.returncode == 0, proc.stderr[-3000:]
            lines = proc.stdout.strip().splitlines()
            out[(w, trace)] = (json.loads(lines[-2])["info"], json.loads(lines[-1]))
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(runs, workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        _, res = runs[(workload, trace)]
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in BENCH[key]}
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_never_zero(runs, workload):
    _, res = runs[(workload, 0)]
    assert all(v["value"] > 0 for v in res["metrics"].values()), res["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_does_not_change_results(runs, workload):
    untraced, traced = runs[(workload, 0)][0], runs[(workload, 1)][0]
    assert untraced["result_digest"] == traced["result_digest"]
    assert untraced["host"]["host_key"] == traced["host"]["host_key"]
    assert untraced["protocol"] == traced["protocol"]


def test_traced_layers_cover_the_timed_wall(runs):
    for w in ("ingest", "search_head"):
        info, _ = runs[(w, 1)]
        assert 0.9 <= info["layer_coverage"] <= 1.1, (w, info["layer_coverage"])
    # the build layers (worker layers + exchange wait + main-process spans)
    # against the build calls' wall
    info, _ = runs[("ingest", 1)]
    assert 0.9 <= info["build_layer_coverage"] <= 1.1, info["build_layer_coverage"]


def test_generators_are_deterministic():
    a = gen.corpus(5, 300, with_fields=True)
    assert a.equals(gen.corpus(5, 300, with_fields=True))
    assert not a.equals(gen.corpus(6, 300, with_fields=True))
    assert gen.head_queries(5, 500) == gen.head_queries(5, 500)
    assert gen.tail_queries(5, a, 20) == gen.tail_queries(5, a, 20)
    assert gen.probe_queries(5, 50) == gen.probe_queries(5, 50)
    p1, p2 = gen.ingest_plan(5, a, 3, 60, 4), gen.ingest_plan(5, a, 3, 60, 4)
    for d1, d2 in zip(p1, p2):
        assert d1.rows.equals(d2.rows) and d1.deletes.equals(d2.deletes)


def test_tail_batches_share_one_mix_and_never_repeat():
    log = gen.tail_queries(3, gen.corpus(3, 300, with_fields=True), 30)
    flat = [q for batch in log for q in batch]
    assert len(set(flat)) == len(flat)
    fuzzy = [sum(q.endswith("~1") for q in batch) for batch in log]
    assert set(fuzzy) == {gen.TAIL_BATCH_KINDS.count("fuzzy")}


def test_corpus_chunks_use_distinct_urls(monkeypatch):
    monkeypatch.setattr(gen, "CHUNK_DOCS", 150)
    t = gen.corpus(1, 400)
    hosts = {u.split("-site-")[0] for u in t["url"].to_pylist()}
    assert hosts == {"https://c0", "https://c1", "https://c2"}
    # make_pages' older duplicate versions are the only repeated urls
    assert len(set(t["url"].to_pylist())) == 400


def test_ingest_expectations_follow_the_plan():
    base = gen.corpus(2, 300)
    plan = gen.ingest_plan(2, base, 3, 60, 4)
    live, deleted = gen.expected_after(plan, 3)
    assert live[-1] == plan[-1].written
    assert not deleted & set().union(*live)
    assert deleted >= plan[-1].deleted


def test_fails_without_a_result_outside_the_repo(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _run(str(tmp_path), "ingest", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
