"""Property/metamorphic tests (SURVEY.md §5.2 layer 4): the determinism
contract — engine output is a pure function of (corpus content, config)."""

import os
import shutil

import pyarrow as pa
import pytest

from lucene_plugin_ray.config import IndexConfig
from lucene_plugin_ray.pipelines.fixtures import make_pages


QUERIES = ["w00000", "pagehit", "w00010 w00100", "dupmarker0", "Firstword1"]


def _build(corpus, root, num_partitions=4):
    from lucene_plugin_ray.pipelines.build import build_index
    from lucene_plugin_ray.pipelines.query import SearchEngine

    cfg = IndexConfig(index_root=root, num_partitions=num_partitions)
    build_index(corpus, cfg)
    return SearchEngine(root, cfg=cfg)


def _results(engine):
    out = {}
    for q in QUERIES:
        t = engine.search(q, limit=50)
        out[q] = list(zip(t["url"].to_pylist(), t["score"].to_pylist(), t["docid"].to_pylist()))
    return out


def test_input_order_independence(ray_session, tmp_path):
    """engine(corpus) == engine(shuffled corpus) — docids, scores and all."""
    corpus = make_pages(250, seed=47)
    perm = pa.array(list(reversed(range(corpus.num_rows))))
    shuffled = corpus.take(perm)
    e1 = _build(corpus, str(tmp_path / "a"))
    e2 = _build(shuffled, str(tmp_path / "b"))
    assert _results(e1) == _results(e2)


def test_segment_files_byte_identical_across_runs(ray_session, tmp_path):
    """Two builds of the same corpus produce byte-identical segments
    (idempotent, content-addressed outputs — SURVEY.md §4.2 retries)."""
    corpus = make_pages(150, seed=48)
    _build(corpus, str(tmp_path / "a"))
    _build(corpus.take(pa.array(list(reversed(range(corpus.num_rows))))), str(tmp_path / "b"))
    for dirpath, _, files in os.walk(tmp_path / "a"):
        for f in files:
            if not (f.endswith(".bin") or f.endswith(".parquet")):
                continue
            a = os.path.join(dirpath, f)
            b = a.replace(str(tmp_path / "a"), str(tmp_path / "b"))
            with open(a, "rb") as fa, open(b, "rb") as fb:
                assert fa.read() == fb.read(), a


def test_resume_after_partial_failure(ray_session, tmp_path):
    """Kill-and-rerun: completed partitions are skipped via the lineage
    digest; the rebuilt index is identical (north rule: resumable
    mid-shuffle with per-partition lineage)."""
    from lucene_plugin_ray.pipelines.build import build_index
    from lucene_plugin_ray.pipelines.query import SearchEngine

    corpus = make_pages(200, seed=49)
    root = str(tmp_path / "idx")
    cfg = IndexConfig(index_root=root, num_partitions=4)
    m1 = build_index(corpus, cfg)
    baseline = _results(SearchEngine(root, cfg=cfg))

    # simulate a crash after some partitions completed but before commit:
    # remove the manifest and one partition's segment dir
    os.remove(os.path.join(root, "manifest-0.json"))
    victim = m1.partitions[0]["path"]
    shutil.rmtree(victim)

    m2 = build_index(corpus, cfg)  # rerun — no manifest, so not a "rebuild"
    resumed = [r for r in m2.partitions if r["resumed"]]
    rebuilt = [r for r in m2.partitions if not r["resumed"]]
    assert len(rebuilt) >= 1 and len(resumed) >= 1
    assert _results(SearchEngine(root, cfg=cfg)) == baseline


def test_stats_exact_integer_aggregates(ray_session, tmp_path):
    """avgdl/N from the manifest equal the oracle's exact values."""
    from lucene_plugin_ray.pipelines.oracle import OracleIndex
    from lucene_plugin_ray.pipelines.query import SearchEngine

    corpus = make_pages(150, seed=50)
    engine = _build(corpus, str(tmp_path / "s"))
    oracle = OracleIndex(corpus, IndexConfig(index_root="unused"))
    n, avgdl = engine._stats("default")
    assert n == oracle.n_docs["default"]
    assert abs(avgdl["text"] - oracle._avgdl("text", "default")) < 1e-12


def test_salted_term_stats_equals_naive(ray_session, tmp_path):
    """SURVEY.md §5.2-4(e): salted head-term aggregation == unsalted naive
    count (the salt is an execution detail, not a semantic one)."""
    import ray.data
    from collections import Counter

    import pyarrow as pa

    from lucene_plugin_ray.functions.analysis import analyze
    from lucene_plugin_ray.stages.term_stats import term_stats

    corpus = make_pages(120, seed=53)
    cfg = IndexConfig(num_partitions=4)
    out = term_stats(ray.data.from_arrow(corpus), cfg)
    got = {}
    for b in out.iter_batches(batch_format="pyarrow"):
        for f, t, df, tf in zip(b["field"].to_pylist(), b["term"].to_pylist(),
                                b["df"].to_pylist(), b["total_tf"].to_pylist()):
            got[(f, t)] = (df, tf)
    # naive oracle over raw rows (counts EVERY row — term_stats is a corpus
    # aggregate, pre-dedup, like a WordCount)
    df_c: Counter = Counter()
    tf_c: Counter = Counter()
    for r in corpus.to_pylist():
        toks = analyze(r["text"] or "")
        tf_c.update(("text", t) for t in toks)
        df_c.update(set(("text", t) for t in toks))
    expected = {k: (df_c[k], tf_c[k]) for k in df_c}
    assert got == expected


def test_resume_mid_delta(ray_session, tmp_path):
    """Crash between delta segment writes and manifest commit → rerun of
    build_delta reuses completed partition segments (digest skip) and the
    chain stays consistent."""
    import os
    import shutil

    from lucene_plugin_ray.pipelines.build import build_delta, build_index
    from lucene_plugin_ray.pipelines.query import SearchEngine

    corpus = make_pages(200, seed=54)
    root = str(tmp_path / "idx")
    cfg = IndexConfig(index_root=root, num_partitions=4)
    build_index(corpus.slice(0, 120), cfg)
    m1 = build_delta(corpus.slice(120), cfg)
    baseline = _results(SearchEngine(root, cfg=cfg))

    # crash simulation: drop the gen-1 manifest + one delta segment
    os.remove(os.path.join(root, "manifest-1.json"))
    shutil.rmtree(m1.partitions[0]["path"])

    m2 = build_delta(corpus.slice(120), cfg)
    assert m2.generation == 1
    assert any(r["resumed"] for r in m2.partitions)
    assert any(not r["resumed"] for r in m2.partitions)
    assert _results(SearchEngine(root, cfg=cfg)) == baseline


def test_randomized_conformance_sweep(ray_session, tmp_path):
    """Randomized (seeded) corpora with dups + deletes: engine == oracle on
    sampled term/AND/OR queries — beyond the planted fixtures."""
    import numpy as np
    import pyarrow as pa

    from lucene_plugin_ray.pipelines.build import build_index
    from lucene_plugin_ray.pipelines.fixtures import make_delete_set
    from lucene_plugin_ray.pipelines.oracle import OracleIndex
    from lucene_plugin_ray.pipelines.query import SearchEngine

    for seed in (101, 202):
        rng = np.random.default_rng(seed)
        corpus = make_pages(int(rng.integers(80, 200)), seed=seed)
        deletes = make_delete_set(corpus, every=int(rng.integers(7, 20)))
        root = str(tmp_path / f"idx{seed}")
        cfg = IndexConfig(index_root=root, num_partitions=int(rng.integers(2, 7)))
        build_index(corpus, cfg, deletes=deletes)
        engine = SearchEngine(root, cfg=cfg)
        oracle = OracleIndex(corpus, cfg, deletes=deletes)
        vocab = [f"w{int(rng.integers(0, 3000)):05d}" for _ in range(12)]
        queries = (
            vocab[:4]
            + [f"{a} {b}" for a, b in zip(vocab[4:7], vocab[7:10])]
            + [f"+{a} +{b}" for a, b in zip(vocab[8:10], vocab[10:12])]
        )
        for q in queries:
            got = engine.search(q, limit=50)
            exp = oracle.search(q, limit=50)
            assert got["url"].to_pylist() == [u for u, _ in exp], (seed, q)
            for s, (_, es) in zip(got["score"].to_pylist(), exp):
                assert abs(s - es) < 1e-6


def test_sessionize_matches_python_oracle(ray_session, tmp_path):
    """events_sessionize == a straightforward per-user Python fold on a
    seeded random event stream (including exact-gap boundaries and tied
    timestamps)."""
    import numpy as np
    import pyarrow.parquet as pq

    from lucene_plugin_ray.pipelines.training import (
        _SESSION_GAP_US,
        events_sessionize,
    )

    rng = np.random.default_rng(7)
    n = 4000
    users = rng.integers(0, 25, size=n)
    # gaps cluster around the session threshold; some ties (gap 0) and some
    # exactly-at-gap deltas (must NOT split: rule is strict '>')
    gaps = rng.choice(
        [0, 1, 60_000_000, _SESSION_GAP_US, _SESSION_GAP_US + 1, 7_200_000_000],
        size=n,
        p=[0.05, 0.2, 0.4, 0.1, 0.15, 0.1],
    )
    base = 1_700_000_000_000_000
    ts = np.empty(n, dtype=np.int64)
    cursors: dict = {}
    for i in range(n):
        u = int(users[i])
        cursors[u] = cursors.get(u, base) + int(gaps[i])
        ts[i] = cursors[u]
    value = np.round(rng.uniform(0, 100, size=n), 2)
    t = pa.table(
        {
            "event_id": pa.array(np.arange(n), type=pa.int64()),
            "ts": pa.array(ts, type=pa.int64()).cast(pa.timestamp("us")),
            "user_id": pa.array(users, type=pa.int64()),
            "event_type": pa.array(["x"] * n, type=pa.string()),
            "value": pa.array(value, type=pa.float64()),
            "props": pa.array(["{}"] * n, type=pa.string()),
        }
    )
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(t, sf / "events.parquet")

    got_t = events_sessionize(str(sf))
    import pyarrow.compute as pc

    got_t = got_t.set_column(
        got_t.schema.get_field_index("session_start"), "session_start",
        pc.cast(got_t["session_start"], pa.int64()),
    ).set_column(
        got_t.schema.get_field_index("session_end"), "session_end",
        pc.cast(got_t["session_end"], pa.int64()),
    )
    got = got_t.to_pylist()

    # independent oracle: plain per-user loop
    per_user: dict = {}
    for i in range(n):
        per_user.setdefault(int(users[i]), []).append(
            (int(ts[i]), int(i), round(float(value[i]) * 100))
        )
    expected = []
    for u in sorted(per_user):
        evs = sorted(per_user[u])
        sessions = []
        for e in evs:
            if not sessions or e[0] - sessions[-1][-1][0] > _SESSION_GAP_US:
                sessions.append([e])
            else:
                sessions[-1].append(e)
        for s in sessions:
            expected.append(
                {
                    "user_id": u,
                    "first_event_id": min(e[1] for e in s),
                    "session_start": s[0][0],
                    "session_end": s[-1][0],
                    "n_events": len(s),
                    "sum_value_cents": sum(e[2] for e in s),
                }
            )
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g["user_id"] == e["user_id"]
        assert g["first_event_id"] == e["first_event_id"]
        assert g["session_start"] == e["session_start"]
        assert g["session_end"] == e["session_end"]
        assert g["n_events"] == e["n_events"]
        assert g["sum_value_cents"] == e["sum_value_cents"]
