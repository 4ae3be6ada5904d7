"""Session-scoped Ray fixture — ONE ray.init per pytest session — and the
``multigen`` index (partitions × generations with upserts and deletes) that
the collection-scope and sharded tests share."""

from __future__ import annotations

import os
import sys

import pyarrow as pa
import pyarrow.compute as pc
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    import ray.data

    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture(scope="module")
def multigen(ray_session, tmp_path_factory):
    """4 partitions × 3 generations: gen 0 builds 60% of the urls; gen 1
    adds 20% more, upserts 40 gen-0 docs and deletes 15; gen 2 adds the rest,
    upserts 30 docs of gens 0/1 and deletes 15 more."""
    from lucene_plugin_ray.config import IndexConfig
    from lucene_plugin_ray.pipelines.build import build_delta, build_index
    from lucene_plugin_ray.pipelines.fixtures import make_pages
    from lucene_plugin_ray.pipelines.oracle import OracleIndex

    corpus = make_pages(400, seed=53, with_fields=True).drop_columns(["html"])
    urls = sorted(set(corpus["url"].to_pylist()))
    cut1, cut2 = int(len(urls) * 0.6), int(len(urls) * 0.8)

    def rows_of(us):
        return corpus.filter(pc.is_in(corpus["url"], value_set=pa.array(us)))

    def upserts(us, shift_s):
        t = rows_of(us)
        ts = pc.cast(t["warc_ts"], pa.int64())
        newer = pc.cast(pc.add(ts, shift_s * 1_000_000), pa.timestamp("us"))
        text = pc.binary_join_element_wise(t["text"], " upsertmarker w00001", "")
        t = t.set_column(t.schema.get_field_index("warc_ts"), "warc_ts", newer)
        return t.set_column(t.schema.get_field_index("text"), "text", text)

    def deletes(us):
        return pa.table({"collection": ["default"] * len(us), "url": us})

    root = str(tmp_path_factory.mktemp("idx_scope"))
    cfg = IndexConfig(
        index_root=root, num_partitions=4, field_columns=("foo", "age")
    )
    build_index(rows_of(urls[:cut1]), cfg)
    up1, del1 = urls[0:cut1:6][:40], urls[3:cut1:11][:15]
    d1 = deletes(del1)
    build_delta(pa.concat_tables([rows_of(urls[cut1:cut2]), upserts(up1, 10**6)]), cfg, deletes=d1)
    up2 = [u for u in urls[1:cut2:9] if u not in del1][:30]
    del2 = [u for u in urls[5:cut2:13] if u not in del1 and u not in up2][:15]
    d2 = deletes(del2)
    build_delta(pa.concat_tables([rows_of(urls[cut2:]), upserts(up2, 2 * 10**6)]), cfg, deletes=d2)

    every = pa.concat_tables(
        [corpus, upserts(up1, 10**6), upserts(up2, 2 * 10**6)]
    )
    oracle = OracleIndex(every, cfg, deletes=pa.concat_tables([d1, d2]))
    return cfg, oracle
