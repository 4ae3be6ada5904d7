"""The facade and HTTP read surface, pinned.

* ``test_facade_reads_pinned`` — sha256 of every public ``LuceneFacade``
  read method's outputs on a 2-partition × 2-generation index with two
  metadata fields (``foo``, ``age``).
* ``test_facade_empty_index_pinned`` — what each read method answers
  before the first commit.
* ``test_route_good_inputs_pinned`` — (status, sha256 of the JSON body) of
  every read route for the same calls sent over the wire.
* ``test_route_bad_inputs_pinned`` — (status, JSON body) of every route
  for one or two bad inputs each.
* ``test_write_routes_pinned`` — the write routes' (status, JSON body).
* ``test_signatures_pinned`` — parameter names, kinds and order of every
  public ``LuceneFacade``, ``AsyncLuceneFacade`` and ``LuceneHttpClient``
  method (and the defaults of the two facades).
"""

import hashlib
import json
import urllib.error
import urllib.parse
import urllib.request

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from lucene_plugin_ray.config import IndexConfig
from lucene_plugin_ray.pipelines.fixtures import make_pages

C = "default"
Q = "w00001 w00002"
LIVE = "https://site-0010.example/p/10"  # a live document


@pytest.fixture(scope="module")
def surface(ray_session, tmp_path_factory):
    """(facade, read service) over one index: generation 0 holds 80% of
    the urls, generation 1 the rest, 12 upserts and 6 deletes."""
    from lucene_plugin_ray.facade import LuceneFacade
    from lucene_plugin_ray.pipelines.build import build_delta, build_index
    from lucene_plugin_ray.server import LuceneHttpService

    pages = make_pages(240, seed=11, with_fields=True).drop_columns(["html", "count"])
    urls = sorted(set(pages["url"].to_pylist()))
    cut = int(len(urls) * 0.8)

    def rows_of(us):
        return pages.filter(pc.is_in(pages["url"], value_set=pa.array(us)))

    up = rows_of(urls[0:cut:17][:12])
    ts = pc.cast(pc.cast(up["warc_ts"], pa.int64()), pa.int64())
    up = up.set_column(
        up.schema.get_field_index("warc_ts"), "warc_ts",
        pc.cast(pc.add(ts, 10**12), pa.timestamp("us")),
    )
    up = up.set_column(
        up.schema.get_field_index("text"), "text",
        pc.binary_join_element_wise(up["text"], " upsertmarker w00001", ""),
    )
    dels = [u for u in urls[5:cut:23] if u not in urls[0:cut:17]][:6]
    root = str(tmp_path_factory.mktemp("idx_surface"))
    cfg = IndexConfig(index_root=root, num_partitions=2, field_columns=("foo", "age"))
    build_index(rows_of(urls[:cut]), cfg)
    build_delta(
        pa.concat_tables([rows_of(urls[cut:]), up]), cfg,
        deletes=pa.table({"collection": [C] * len(dels), "url": dels}),
    )
    texts = {u: t for u, t in zip(pages["url"].to_pylist(), pages["text"].to_pylist())}
    svc = LuceneHttpService(cfg).start()
    yield LuceneFacade(cfg), svc, texts
    svc.shutdown()


def _canon(x):
    """JSON-able canonical form of a facade output."""
    if hasattr(x, "external_id"):
        return ["entry", x.id, x.score, x.external_id]
    if isinstance(x, dict):
        return {str(k): _canon(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_canon(v) for v in x]
    return x


def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(_canon(obj), sort_keys=True).encode()
    ).hexdigest()


def _calls(f, texts):
    """(facade method, [kwargs, ...]) — good inputs of every read method."""
    hits = f.search(C, Q, limit=5)
    top = [e.external_id for e in f.search(C, "w00003 w00004", limit=3)]
    rows = f.search_sorted(C, Q, limit=8)
    by = f.search_sorted_by(C, Q, [["foo", "asc"], ["warc_ts", "desc"]], limit=9)
    hit_texts = {u: texts[u] for u in (e.external_id for e in f.search(C, Q, limit=6))}
    w3_texts = {u: texts[u] for u in (e.external_id for e in f.search(C, "w00003", limit=4))}
    base = {"collection": C}
    return [
        ("search", [dict(query=Q), dict(query=Q, limit=5), dict(query="pagehit")]),
        ("search_after", [dict(query=Q, after_score=hits[-1].score,
                               after_url=hits[-1].external_id, limit=7)]),
        ("rescore", [dict(query=Q, rescore_query='"w00001 w00002"~3 w00003',
                          window_size=30, weight=1.5, limit=12),
                     dict(query=Q, rescore_query="w00004")]),
        ("search_filtered", [dict(query=Q, filter_query="foo:v1 foo:v2 foo:lamb", limit=12)]),
        ("search_surround", [dict(query="5N(w00001, w00002)", limit=12),
                             dict(query="w00001 3W w00002 OR w00003")]),
        ("search_diversified", [dict(query=Q, key_field="foo", max_per_key=2, limit=12),
                                dict(query="w00003", key_field="age")]),
        ("search_expression_range", [
            dict(query=Q, expression="_score + doc_len / 100", lo=3.0, hi=9.0, limit=12),
            dict(query=Q, expression="_score * k", bindings={"k": 2.0}, hi=8.0)]),
        ("search_common", [dict(query="w00001 w00002 w00017", max_term_frequency=0.05,
                                limit=12),
                           dict(query="w00001 w00002")]),
        ("search_boosting", [dict(positive_query=Q, negative_query="w00003", demote=0.3,
                                  limit=12)]),
        ("search_expression", [dict(query=Q, expression="_score * k + doc_len / 1000",
                                    bindings={"k": 2.0}, limit=12),
                               dict(query=Q, expression="_score")]),
        ("span_near", [dict(terms=["w00001", "w00002"], slop=3, limit=12),
                       dict(terms=["w00002", "w00001"], slop=2, in_order=False)]),
        ("span_first", [dict(term="w00001", end=5, limit=12)]),
        ("span_not", [dict(term="w00001", exclude=["w00002"], pre=2, post=2, limit=12),
                      dict(term="w00002", exclude=["w00001", "w00003"])]),
        ("search_join", [dict(from_query=Q, from_field="foo", to_field="foo", limit=12),
                         dict(from_query="w00003", from_field="age", to_field="age",
                              score_mode="none", limit=12)]),
        ("block_join_parents", [dict(child_query="w00003 -foo:lamb", parent_filter="foo:lamb",
                                     block_field="age", score_mode="total", limit=12),
                                dict(child_query="w00001 -foo:lamb", parent_filter="foo:lamb",
                                     block_field="age")]),
        ("block_join_children", [dict(parent_query="+w00003 +foo:lamb",
                                      parent_filter="foo:lamb", block_field="age", limit=12),
                                 dict(parent_query="+w00003 +foo:lamb",
                                      parent_filter="foo:lamb", block_field="age",
                                      score=False)]),
        ("drill_sideways", [dict(query=Q, dims={"foo": ["v1", "v2", "lamb"], "age": "25"},
                                 limit=10)]),
        ("search_sorted_by", [
            dict(query=Q, sort=[["foo", "asc"], ["warc_ts", "desc"]], limit=15),
            dict(query=Q, sort=[["doc_len", "desc"], ["age", "desc"]], limit=15),
            dict(query=Q, sort=[["foo", "asc"], ["warc_ts", "desc"]], limit=10,
                 after_keys=[by[-1]["foo"], by[-1]["warc_ts"]],
                 after_url=by[-1]["externalId"])]),
        ("classify", [dict(text="w00001 w00002 lamb little w00003", class_field="foo"),
                      dict(text="w00004 w00001 nosuchterm", class_field="age")]),
        ("classify_knn", [dict(text="w00001 w00002 w00003", class_field="foo", k=10),
                          dict(text="w00004 w00001", class_field="age", k=7)]),
        ("count", [dict(query=Q), dict(query="*:* -w00001")]),
        ("facets", [dict(query=Q, facet_field="foo"), dict(query="w00003", facet_field="age")]),
        ("facets_taxonomy", [dict(query=Q, dim_fields=["foo", "age"]),
                             dict(query="w00003", dim_fields=["age", "foo"], top_n=3)]),
        ("term_vector", [dict(ext_id=u) for u in top] + [dict(ext_id=top[0], field="foo")]),
        ("more_like_this_id", [dict(ext_id=top[0], limit=8),
                               dict(ext_id=top[1], max_query_terms=5, limit=8)]),
        ("more_like_this", [dict(text="w00001 w00002 w00003 w00001", limit=10),
                            dict(text="w00004 w00005", limit=6, exclude_id=top[0])]),
        ("suggest", [dict(term="w0001", k=8), dict(term="w00o1", max_edits=1)]),
        ("complete", [dict(prefix="w000", k=7), dict(prefix="w0001")]),
        ("complete_infix", [dict(fragment="001", k=7), dict(fragment="0002")]),
        ("explain", [dict(query=Q, ext_id=u) for u in top]),
        ("snippets", [dict(query=Q, texts=hit_texts, k=6),
                      dict(query="w00003", texts=w3_texts, k=4, window=4)]),
        ("search_sorted", [dict(query=Q, limit=15), dict(query=Q, limit=15, descending=False),
                           dict(query=Q, limit=10, after_ts=rows[-1]["ts_us"],
                                after_url=rows[-1]["external_id"])]),
    ], base


FACADE_PINS = {
    "search":
        "e71946d2ac4c8a71acf23b44763973bcc751f1229e78bb21ff2711639c6268eb",
    "search_after":
        "8d548a158fc72109a3a591eace292f2793f0b0f7f3392a03f548edf4da058dec",
    "rescore":
        "d6707bd2ddb7f7a3ff5bbded81ec2dd308a18d1da91b2e2bba67a38dae53083b",
    "search_filtered":
        "c66c956441553335b061d62e85608a870270638c49140e62cf2b67c260f1df84",
    "search_surround":
        "012a22dce36ee3d473d705071b869fe1a39e62829e62a96960dba7e8f9421907",
    "search_diversified":
        "b368acf90fb52362a62f6f4edd45ce584c65c0fc5e60f219dca616c3b19bb13f",
    "search_expression_range":
        "d506cba65e1373dddd469eafd64f10b54fc15bd4caf173d8338f1711b5b6b4e9",
    "search_common":
        "725edcdffe46f9483d4ec9e051fe913a93f084f1e00cdbcc24b7ab3a393f4c43",
    "search_boosting":
        "f4dd2f5e5beb7b3de53428f203ddb35eceeb1a87c6a3521e6041e2ba85383e7b",
    "search_expression":
        "5e69b1f76a0ae4b167fb0b5eb6c2fc44aefd10bb741e095b9b85e0a4dd086a2a",
    "span_near":
        "eae6548a902bf5463c1468c28b2d06aaf6a1d5d475fa6296fd9455d3424c435a",
    "span_first":
        "9eb2522f870bf037b9974d2df6b74b01c741e8cc9f00f13a35549c17e625d77d",
    "span_not":
        "486b67d3a1faf3bda3a8478d8c60c9b011d0e8a77dab023a730d5e75e3367cfa",
    "search_join":
        "98ce0cbff483e33b7cb366ee26f6b0d4ecdf483c47697d68cef0cfc451076a99",
    "block_join_parents":
        "a683096011db3975a1e401e33b0047d1f2677a11efe85ef12806f016ae039795",
    "block_join_children":
        "a683096011db3975a1e401e33b0047d1f2677a11efe85ef12806f016ae039795",
    "drill_sideways":
        "3db62c790db3c93b90d4935d32bdbddb2d37f92d4341ff496f1659d253e8a30f",
    "search_sorted_by":
        "183cbd6f985dc09252d875f15fbdfe772900080aa8cd6fd8a909961def1b0f3d",
    "classify":
        "564af2dac83c6c98dd03fa47df7749945e1e6349c0ec294a9d8ae30eabeead93",
    "classify_knn":
        "f041307d8aecd9f09c938b358901f931e608177f592b454d30750699f8d9af29",
    "count":
        "99c61efac175d3d1cc2d4453a8b1c413e3aa93b0be23b50f0f367c3ac42873c0",
    "facets":
        "4d1b3ea8859b916a21cd3dae9170b947b911c0a5fa8a7f51ca8ca0b33e19d872",
    "facets_taxonomy":
        "9e5a5708b0d3342d1b0c7ce4b8d478a5004a32d7f961047acd6dcf65b16d93a6",
    "term_vector":
        "a0ed334515716e3c3881cec5b83317a2ea11dbc333a7296f0683c8f0d6b204c3",
    "more_like_this_id":
        "07b7b6b9f6105367949a6cef308c40ae312987027eef84909d2805ae64c4f0df",
    "more_like_this":
        "e37edef424ab8f3daccce41407e418b546cff29bc295da389cb60c1e25349edc",
    "suggest":
        "7dd7c0b37c211ebfe1274850faaa27dcff866524e6040bd0cdd5b81a14f8d58a",
    "complete":
        "ff39c16e1ebb9953b1261bf187cd1864c45b441133dcd03210b6955168aefe4e",
    "complete_infix":
        "bafd829aac9f9737a982fdf9f92f81737ca3c0064d2aae0e7fe6116eaaee5199",
    "explain":
        "89373945f3a39d2864588ab4b3cebf17b9f22acbf4efbd7630a1bc57a689f50c",
    "snippets":
        "13ec9e020ac6a835d3c8be775f54699b89fc8b1ef20604039fafeedaf9210bd2",
    "search_sorted":
        "572703ef953cbd7b0b772122f346545c316468bb828751eee7ee093115c960ba",
}


def _read_methods():
    import inspect

    from lucene_plugin_ray.facade import LuceneFacade

    writes = {"index_text", "index_map", "index_file", "delete", "clear", "commit"}
    return sorted(
        n for n, fn in vars(LuceneFacade).items()
        if inspect.isfunction(fn) and not n.startswith("_") and n not in writes
    )


def test_facade_reads_pinned(surface):
    f, _, texts = surface
    calls, base = _calls(f, texts)
    assert sorted(n for n, _ in calls) == _read_methods()
    got = {n: _digest([getattr(f, n)(**base, **kw) for kw in kws]) for n, kws in calls}
    assert got == FACADE_PINS


# ---- the wire ---------------------------------------------------------------
# facade parameter -> wire name where they differ
WIRE = {"ext_id": "id", "window_size": "window", "facet_field": "field",
        "dim_fields": "fields"}


def _wire(kw: dict) -> dict:
    out = {}
    for k, v in kw.items():
        if v is None:
            continue
        if k == "descending":
            out["order"] = "desc" if v else "asc"
        elif isinstance(v, bool):
            out[WIRE.get(k, k)] = "true" if v else "false"
        elif isinstance(v, (list, dict)):
            out[WIRE.get(k, k)] = json.dumps(v)
        else:
            out[WIRE.get(k, k)] = str(v)
    return out


def _send(url: str, route: str, params: dict, post: bool = False):
    """(status, parsed JSON body) of one request."""
    data = urllib.parse.urlencode(params)
    if post:
        req = urllib.request.Request(
            f"{url}/{route}", data=data.encode(), method="POST",
            headers={"Content-Type": "application/x-www-form-urlencoded"},
        )
    else:
        req = f"{url}/{route}?{data}"
    try:
        with urllib.request.urlopen(req) as r:
            return r.status, json.loads(r.read().decode())
    except urllib.error.HTTPError as e:
        return e.code, json.loads(e.read().decode())


ROUTE_PINS = {
    "search": [
        (200, "2eba68a5ee5b70cc8999e6c2d442704903493b845ceef5446ad2dadcd01a9067"),
        (200, "394bb8a56ed7d841ab5a0f63a104a944be72c086785e9154ddb1be4bff0a6d49"),
        (200, "2ae0a8aaed8e4691aa3a11e0a3da92b3fee86e7f46d62609d31d548e025501df"),
    ],
    "search-after": [
        (200, "0f3509141b4e6948ce70a792c3a82a6365119d53de3e69f59a63f640e71912ae"),
    ],
    "rescore": [
        (200, "d1d5e1bf3f339390398e18ee32969bb7a13533bb18a2728dcd4a99f5719befd1"),
        (200, "62a7c4de8fd4e6c5a443c12779e664919f5add0f4a8142b11f4c84dde4ec8b31"),
    ],
    "search-filtered": [
        (200, "4ec8dabe834b6a67c4ae3493e9a072529f2c55b820f89286e340512709377305"),
    ],
    "search-surround": [
        (200, "9aa2d24251b00f4d957786e379547c42d28fb237f1ed882930bad3f39d37bd8a"),
        (200, "fecf468e9ccaf6d922ce3614476ae002cf8b0b6e1350de91ac98fbba75e6a0e2"),
    ],
    "search-diversified": [
        (200, "830f1e85e6ffd1e594bad6babb1adfca12cc008a77d5888157cced44ba11a17e"),
        (200, "f7b73310eee1f7d8460535f7c9ea33125ad84e6400d917fe31d2ad36e9d85471"),
    ],
    "search-expression-range": [
        (200, "bab27aee0a0749527e525c1adcd8ebb730a4d730e80d632245f1c9387043c5cc"),
        (200, "69b914364dfd9a0db841ec309c5fdd97d91e9f9647f4a63c07f5c76aede47815"),
    ],
    "search-common": [
        (200, "87d144c4b3f65a4ab7ecffe4c0396ef41c0e6a9671361623c101d983bb0ae189"),
        (200, "2eba68a5ee5b70cc8999e6c2d442704903493b845ceef5446ad2dadcd01a9067"),
    ],
    "search-boosting": [
        (200, "62cf6cd3c56bbe5c2ad3e7ad2c91df9604f078c84388c27dcc52c749b6140184"),
    ],
    "search-expression": [
        (200, "b792c40f5daf284ef69ae4ee1d7994553e94a95b2359bf17c906e755565bb1e0"),
        (200, "2eba68a5ee5b70cc8999e6c2d442704903493b845ceef5446ad2dadcd01a9067"),
    ],
    "span-near": [
        (200, "6b56901a37b8d48335c3710bae17c229df04067134098e60d66b3071d912ab13"),
        (200, "6b56901a37b8d48335c3710bae17c229df04067134098e60d66b3071d912ab13"),
    ],
    "span-first": [
        (200, "c9839e08df76789a80bd9a6ae41b27f1a6e80accc6fb1b83800138541b1f0877"),
    ],
    "span-not": [
        (200, "8a5044980797cd7b7511bb83f651d4006dab320b55ac88cfa8ecefd5dc319445"),
        (200, "adebdd53fdd40d7491c374e4458c19ebc1f0a54c79cabbdb55f26efec0b70856"),
    ],
    "search-join": [
        (200, "61fbb7709e7ebed00e908101e411c56e792ab7f83184dc7f9a6263ac8cd6b4a0"),
        (200, "54a31db68c1c90ec46ba3d3cbb288ed5a965a1fa909cb687328147a93e8ecb0e"),
    ],
    "block-join-parents": [
        (200, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
        (200, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    ],
    "block-join-children": [
        (200, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
        (200, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    ],
    "drill-sideways": [
        (200, "3ef847baffe690bcc3c8eaab1b264be5d8bf2a92962948e67da4020604b20bd4"),
    ],
    "search-sorted-by": [
        (200, "ac6aedbd68dbd2327b00858a6099ec0cb2dd85274a7d22584b8fe2eb80c338c5"),
        (200, "788b5d14fc905188efb5c38b3faa2e693788c87cc38ea91449ee5213a1de825c"),
        (200, "6ec1fe166d052b8dcecfabd30c13ecc167556e7b1e02747c41b2eec0f86b3b10"),
    ],
    "classify": [
        (200, "24e5849356edd7506cdcc6bdebb437d854d4029d14b74fef0e976e413991a495"),
        (200, "9e638e82a0bc6926b80c716a497f677a03607cbff693e452a8bc409bcb50b645"),
    ],
    "classify-knn": [
        (200, "02f51ada8fcedf10f8c35956fe886930836b66fc598faacacd5e6c500ca33c02"),
        (200, "35f23c413d5dcc748f7febab87ea4b9ec50356738778b778045e7016099acd65"),
    ],
    "count": [
        (200, "f24df53cd9c15dfd39544bfda5a78b3f385d23a2889818ca6d3689a5838249b7"),
        (200, "0bd769a14990698a28b1ad92b8d70a6d5e87615b7fc06670f3f4a7a9b7ae2e13"),
    ],
    "facets": [
        (200, "6ed2b5be4c90f5ae3284990cd1b0bf5d6759b211f0aeff2f60e22c69de7d8223"),
        (200, "f12dd104d3940d5f444bd665094e4981416050d14c09d68500671b287af34486"),
    ],
    "facets-taxonomy": [
        (200, "21dec1e625881954ec8b8092a7dc319c2385eec7b5991754a85b2ccda294a750"),
        (200, "f94135c780e0c5b23c6cf3349a2051fff3683d6253e4f5cdf360d6538daf37ed"),
    ],
    "term-vector": [
        (200, "7cdba5b2cb81baaf14417c7eebbceb64ea2882d9e3da5528340d41f35dac172e"),
        (200, "5878fcd5ff1191e67281174396f492a1fe2af7fc61267075e3beace26caea937"),
        (200, "7c5290b4775751f964cd38315986e7c866288bebbcee27c6dcd421a46bab2e85"),
        (200, "abc45b06d6619fa8a36f7622949b2f3603fc9d80cd28d932044206258ffdfd50"),
    ],
    "more-like-this-id": [
        (200, "729e08d3680b4232494d956fab30cc3a0e37850183aa44794020cb560e93ace1"),
        (200, "e3ffb741d0c2f18b6a041d5f22e53b099bb975bf2879267fa6e98acf7afa911e"),
    ],
    "more-like-this": [
        (200, "10346df746a19e5f3327c696e715927e243e3ac538a620a0bbd926547658f443"),
        (200, "f2361dd4a3ea6f181e175ecd101e388a0d26dcf82541fd8b215f1e509ac12552"),
    ],
    "suggest": [
        (200, "73f3b3e1831d6ee186673ae26bce2fb117ec3b69f31b5649fb607272df086ae1"),
        (200, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    ],
    "complete": [
        (200, "6fcca8ca432974e7740bcdc15a0ac4691024ccd80732c4cbbbf94fe237466981"),
        (200, "77b0d5c0c14387a351d9586ac13f6ce73a87c4a43bb4590537fa3b8d6a309a17"),
    ],
    "complete-infix": [
        (200, "513dbf27d36bdee5b3df165748e0a0792212cbadf04658049219f6176e825a75"),
        (200, "3122ab3c2560f29b0decd4629003410f532034f9b997193dd5cf8ea4b3abfea3"),
    ],
    "explain": [
        (200, "767a99b400f138f42095a7fda15e95e5d4f85a0f6ff868734167640d3b5d7a37"),
        (200, "31bdad2f59b264da6ae119feb841dcdf1098f3c663ca2ce9f61f3e50eadce885"),
        (200, "f4804f9900f5022ba0690ee2955ecb69b2043246cc308beb039c7ec2a8940ca6"),
    ],
    "snippets": [
        (200, "acdea14e6077e1e996cfb51bb7b00bb3a3d5316c26d25d3a211018d8d3ac405c"),
        (200, "d3c4ae70988751e88d412c9264f563878fc2632bd2a291120652a90cf35ac58f"),
    ],
    "search-sorted": [
        (200, "2a71821539fd71b497f100d4bab3f3bf092d726ec85de3d8cbcb58edcafde14d"),
        (200, "84e8b8459794b33e06a53fdddb4b845f675c2a96fd72a0f58f30081d49da516d"),
        (200, "364ce4568d27daa8ddd166c125551bdd084bdacc4281a9a9f024796d07767557"),
    ],
}


def test_route_good_inputs_pinned(surface):
    f, svc, texts = surface
    calls, base = _calls(f, texts)
    got = {}
    for n, kws in calls:
        route = n.replace("_", "-")
        got[route] = [
            (s, _digest(b)) for s, b in (
                _send(svc.url, route, _wire({**base, **kw}), post=n == "snippets")
                for kw in kws
            )
        ]
    assert got == ROUTE_PINS


# (route, wire params, (status, body)) — bad inputs of every route.  The
# entries marked "was ..." answered otherwise before the facade mapped every
# engine ValueError/KeyError to LuceneException (HTTP 500 with
# "ValueError: ...", or a KeyError's repr) and before SearchEngine.facets
# rejected an unknown field (200 []).
BAD = [
    ("search", {"collection": C, "query": ""},
     (400, {'error': 'query must be a non-empty string'})),
    ("search", {"collection": C, "query": Q, "limit": "abc"},
     (400, {'error': "limit must be an integer: 'abc'"})),
    ("search", {"collection": C, "query": Q, "limit": "0"},
     (400, {'error': 'limit must be positive'})),  # was 500
    ("search-after", {"collection": C, "query": Q, "after_score": "nan", "after_url": "u"},
     (400, {'error': 'after_score must be finite'})),
    ("search-after", {"collection": C, "query": Q, "after_score": "1.0"},
     (400, {'error': 'after_url is required'})),
  
    ("search-after", {"collection": C, "query": Q, "after_score": "1.0", "after_url": "u",
                      "limit": "-1"},
     (400, {'error': 'limit must be positive'})),  # was 500
    ("rescore", {"collection": C, "query": Q, "rescore_query": ""},
     (400, {'error': 'rescore_query must be a non-empty string'})),
    ("rescore", {"collection": C, "query": Q, "rescore_query": "w00003", "window": "0"},
     (400, {'error': 'window_size must be positive'})),  # was 500
    ("search-filtered", {"collection": C, "query": Q, "filter_query": ""},
     (400, {'error': 'filter_query must be a non-empty string'})),
    ("search-filtered", {"collection": C, "query": Q, "filter_query": "foo:v1", "limit": "0"},
     (400, {'error': 'limit must be positive'})),  # was 500
    ("search-surround", {"collection": C, "query": "w00001 3W"},
     (400, {'error': 'trailing tokens in surround query at position 1'})),
    ("search-surround", {"collection": C, "query": "w00001", "limit": "-1"},
     (400, {'error': 'limit must be positive'})),
    ("search-diversified", {"collection": C, "query": Q, "key_field": "text"},
     (400, {'error': "cannot diversify on the tokenized text field 'text'; use an "
                     'indexed metadata field'})),
    ("search-diversified", {"collection": C, "query": Q, "key_field": "foo",
                            "max_per_key": "x"},
     (400, {'error': "max_per_key must be an integer: 'x'"})),
    ("search-expression-range", {"collection": C, "query": Q, "expression": "_score",
                                 "lo": "2", "hi": "1"},
     (400, {'error': 'empty range: lo 2.0 > hi 1.0'})),
    ("search-expression-range", {"collection": C, "query": Q, "expression": "_score",
                                 "bindings": "[1]"},
     (400, {'error': 'bindings must be a JSON object'})),
    ("search-common", {"collection": C, "query": Q, "max_term_frequency": "-1"},
     (400, {'error': 'max_term_frequency must be positive'})),
    ("search-common", {"collection": C, "query": '"w00001 w00002"'},
     (400, {'error': 'common-terms query takes plain unboosted default-field terms '
                     'only, got \'"w00001 w00002"\''})),
    ("search-boosting", {"collection": C, "positive_query": Q, "negative_query": "w00003",
                         "demote": "1.5"},
     (400, {'error': 'demote must be in (0, 1)'})),
    ("search-boosting", {"collection": C, "positive_query": Q, "negative_query": ""},
     (400, {'error': 'negative_query must be a non-empty string'})),
    ("search-expression", {"collection": C, "query": Q, "expression": "__import__('os')"},
     (400, {'error': "unknown function '__import__' (have ['abs', 'exp', 'ln', "
                     "'log10', 'log2', 'max', 'min', 'pow', 'sqrt'])"})),
    ("search-expression", {"collection": C, "query": Q, "expression": "_score",
                           "bindings": "notjson"},
     (400, {'error': 'bindings must be a JSON object: Expecting value: line 1 column 1 (char 0)'})),
    ("span-near", {"collection": C, "terms": '["w00001"]'},
     (400, {'error': 'span_near needs at least two terms'})),
    ("span-near", {"collection": C, "terms": '["w00001", "w00002"]', "in_order": "maybe"},
     (400, {'error': "in_order must be 'true' or 'false': 'maybe'"})),
    ("span-first", {"collection": C, "term": "w00001", "end": "0"},
     (400, {'error': 'end must be >= 1, got 0'})),
    ("span-first", {"collection": C, "term": "", "end": "3"},
     (400, {'error': 'term must be a non-empty string'})),
    ("span-not", {"collection": C, "term": "w00001", "exclude": "[]"},
     (400, {'error': 'exclude must be a non-empty list of non-empty strings'})),
    ("span-not", {"collection": C, "term": "w00001", "exclude": '["w00002"]', "pre": "-1"},
     (400, {'error': 'pre must be in [0, 2147483647], got -1'})),
    ("search-join", {"collection": C, "from_query": Q, "from_field": "foo",
                     "to_field": "foo", "score_mode": "sum"},
     (400, {'error': "score_mode must be one of ('none', 'max', 'min', 'total', "
                     "'avg'), got 'sum'"})),
    ("search-join", {"collection": C, "from_query": Q, "from_field": "text",
                     "to_field": "foo"},
     (400, {'error': "from_field 'text' is not an indexed metadata field (have: ['age', 'foo'])"})),
    ("block-join-parents", {"collection": C, "child_query": "pagehit",
                            "parent_filter": "foo:lamb", "block_field": "age"},
     (400, {'error': 'child_query matches 2 parent doc(s) — ToParentBlockJoinQuery '
                     'requires the child query to match only non-parent docs'})),
    ("block-join-parents", {"collection": C, "child_query": "w00003 -foo:lamb",
                            "parent_filter": "foo:lamb", "block_field": "age",
                            "score_mode": "sum"},
     (400, {'error': "score_mode must be one of ('none', 'max', 'min', 'total', "
                     "'avg'), got 'sum'"})),
    ("block-join-children", {"collection": C, "parent_query": "w00003",
                             "parent_filter": "foo:lamb", "block_field": "nope"},
     (400, {'error': "block_field 'nope' is not an indexed metadata field (have: "
                     "['age', 'foo'])"})),
    ("block-join-children", {"collection": C, "parent_query": "w00003",
                             "parent_filter": "", "block_field": "age"},
     (400, {'error': 'parent_filter must be a non-empty string'})),
    ("drill-sideways", {"collection": C, "query": Q, "dims": "{}"},
     (400, {'error': 'dims must be a non-empty {field: value | [values]} dict'})),
    ("drill-sideways", {"collection": C, "query": Q, "dims": '{"foo": 5}'},
     (400, {'error': "dim 'foo' value must be a string or list of strings, got int"})),
    ("search-sorted-by", {"collection": C, "query": Q, "sort": "[]"},
     (400, {'error': "sort must be a non-empty [(field, 'asc'|'desc')] list"})),
    ("search-sorted-by", {"collection": C, "query": Q, "sort": '[["text", "asc"]]'},
     (400, {'error': "cannot sort on the tokenized text field 'text' (Lucene "
                     'parity: no doc values on a tokenized field); sortable: '
                     "'warc_ts', 'doc_len' or an indexed metadata field"})),
    ("classify", {"collection": C, "text": Q, "class_field": "nope"},
     (400, {'error': "class_field 'nope' is not an indexed metadata field (have: "
                     "['age', 'foo'])"})),
    ("classify", {"collection": C, "text": "the and of", "class_field": "foo"},
     (400, {'error': 'text analyzed to zero tokens'})),
    ("classify-knn", {"collection": C, "text": Q, "class_field": "foo", "k": "0"},
     (400, {'error': 'k must be a positive integer'})),
    ("classify-knn", {"collection": C, "text": Q, "class_field": "nope"},
     (400, {'error': "class_field 'nope' is not an indexed metadata field (have: "
                     "['age', 'foo'])"})),
    ("count", {"collection": C, "query": ""},
     (400, {'error': 'query must be a non-empty string'})),
    ("count", {"collection": C, "query": "a^b"},
     (400, {'error': "malformed boost in 'a^b'"})),
    ("facets", {"collection": C, "query": Q, "field": "nope"},
     (400, {'error': "facet_field 'nope' is not an indexed field "  # was 200 []
                     "(have: ['age', 'foo', 'text'])"})),
    ("facets", {"collection": C, "query": "w00001 AND", "field": "foo"},
     (400, {'error': "dangling connective in 'w00001 AND'"})),
    ("facets-taxonomy", {"collection": C, "query": Q, "fields": '["foo", "nope"]'},
     (400, {'error': "taxonomy level 'nope' is not an indexed metadata field "
                     "(have: ['age', 'foo'])"})),
    ("facets-taxonomy", {"collection": C, "query": Q, "fields": "[]"},
     (400, {'error': 'dim_fields must be a non-empty list of field names'})),
    ("term-vector", {"collection": C, "id": "http://not.live/x"},
     (400, {'error': "url 'http://not.live/x' not live in "  # was quoted
                     "collection 'default'"})),
    ("term-vector", {"collection": C, "id": "", "field": "foo"},
     (400, {'error': 'id must be a non-empty string'})),
    ("more-like-this-id", {"collection": C, "id": "http://not.live/x"},
     (400, {'error': "url 'http://not.live/x' not live in "  # was quoted
                     "collection 'default'"})),
    ("more-like-this-id", {"collection": C, "id": LIVE, "limit": "0"},
     (400, {'error': 'limit must be positive'})),  # was 500
    ("more-like-this", {"collection": C, "text": Q, "max_query_terms": "0"},
     (400, {'error': 'max_query_terms must be >= 1'})),
    ("more-like-this", {"collection": C, "text": Q, "limit": "0"},
     (400, {'error': 'limit must be positive'})),  # was 500
    ("suggest", {"collection": C, "term": "w0001", "max_edits": "7"},
     (400, {'error': 'max_edits must be 1 or 2'})),
    ("suggest", {"collection": C, "term": ""},
     (400, {'error': 'term must be a non-empty string'})),
    ("complete", {"collection": C, "prefix": ""},
     (400, {'error': 'prefix must be a non-empty string'})),
    ("complete", {"collection": C, "prefix": "w0", "k": "0"},
     (400, {'error': 'k must be positive'})),
    ("complete-infix", {"collection": "", "fragment": "001"},
     (400, {'error': 'collection must be a non-empty string'})),
    ("complete-infix", {"collection": C, "fragment": "001", "k": "-2"},
     (400, {'error': 'k must be positive'})),
    ("explain", {"collection": C, "query": Q, "id": "http://not.live/x"},
     (400, {'error': "url 'http://not.live/x' not live in "  # was quoted
                     "collection 'default'"})),
    ("explain", {"collection": C, "query": "w00001 AND", "id": LIVE},
     (400, {'error': "dangling connective in 'w00001 AND'"})),
    ("snippets", {"collection": C, "query": Q, "texts": "not-json"},
     (400, {'error': 'texts must be a JSON object: Expecting value: line 1 column 1 (char 0)'})),
    ("snippets", {"collection": C, "query": Q, "texts": "{}", "window": "0"},
     (400, {'error': 'window must be >= 1'})),
    ("search-sorted", {"collection": C, "query": Q, "order": "ASC"},
     (400, {'error': "order must be 'asc' or 'desc': 'ASC'"})),
    ("search-sorted", {"collection": C, "query": Q, "after_ts": "zz"},
     (400, {'error': "after_ts must be an integer: 'zz'"})),
    ("search-sorted", {"collection": C, "query": Q, "limit": "0"},
     (400, {'error': 'limit must be positive'})),  # was 500
]


@pytest.mark.parametrize(
    "route,params,want", BAD, ids=[f"{b[0]}-{i}" for i, b in enumerate(BAD)]
)
def test_route_bad_inputs_pinned(surface, route, params, want):
    _, svc, _ = surface
    assert _send(svc.url, route, params, post=route == "snippets") == want


TOP = "https://site-0181.example/p/181"  # top hit of "w00003 w00004"
EMPTY_PINS = {
    'search': '[]',
    'search_after': '[]',
    'rescore': '[]',
    'search_filtered': '[]',
    'search_surround': '[]',
    'search_diversified': '[]',
    'search_expression_range': '[]',
    'search_common': '[]',
    'search_boosting': '[]',
    'search_expression': '[]',
    'span_near': '[]',
    'span_first': '[]',
    'span_not': '[]',
    'search_join': '[]',
    'block_join_parents': '[]',
    'block_join_children': '[]',
    'drill_sideways': "([], {'foo': [], 'age': []})",
    'search_sorted_by': '[]',
    'classify': '[]',
    'classify_knn': '[]',
    'count': '0',
    'facets': '[]',
    'facets_taxonomy': '[]',
    'term_vector': f"LuceneException: no index yet: nothing matches {TOP!r}",
    'more_like_this_id': f"LuceneException: no index yet: nothing matches {TOP!r}",
    'more_like_this': '[]',
    'suggest': '[]',
    'complete': '[]',
    'complete_infix': '[]',
    'explain': f"LuceneException: no index yet: nothing matches {TOP!r}",
    'snippets': '[]',
    'search_sorted': '[]',
}


def test_facade_empty_index_pinned(surface, tmp_path):
    """Before the first commit every read answers its empty result, and
    the per-document reads name the id they cannot find."""
    from lucene_plugin_ray.facade import LuceneFacade

    f, _, texts = surface
    calls, base = _calls(f, texts)
    empty = LuceneFacade(IndexConfig(index_root=str(tmp_path / "none"), num_partitions=2))
    got = {}
    for n, kws in calls:
        try:
            got[n] = repr(getattr(empty, n)(**base, **kws[0]))
        except Exception as e:  # noqa: BLE001 - the error is the pinned output
            got[n] = f"{type(e).__name__}: {e}"
    assert got == EMPTY_PINS


# (verb, route, params, (status, body)), sent in order to a fresh service;
# "DOC" stands for the path of a text file, a route starting with "/" is
# outside the base path
W = "w"
WRITES = [
    ("POST", "index-text", {"collection": W, "id": "d1", "text": "alpha beta"}, (200, True)),
    ("POST", "index-text", {"collection": "", "id": "d1", "text": "x"},
     (400, {'error': 'collection must be a non-empty string'})),
    ("POST", "index-text", {"collection": W, "id": "d2"},
     (400, {'error': 'text must be a string'})),
    ("POST", "index-map", {"collection": W, "id": "m1", "text": "gamma", "foo": "v1"}, (200, True)),
    ("POST", "index-map", {"collection": W, "id": "m2", "bar": "x"},
     (400, {'error': "field 'bar' is not a configured field ('text', 'foo'); batch "
                     "indexes have a fixed analyzed-field set per index (open the "
                     "facade with dynamic_fields=True for indexMap's schema-less "
                     "behavior)"})),
    ("POST", "index-map", {"collection": W, "id": "", "foo": "v2"},
     (400, {'error': 'id must be a non-empty string'})),
    ("POST", "index-file", {"collection": W, "path": "DOC"}, (200, True)),
    ("POST", "index-file", {"collection": W, "path": ""},
     (400, {'error': 'path must be a non-empty string'})),
    ("GET", "count", {"collection": W, "query": "alpha gamma zebra"}, (200, {'count': 3})),
    ("GET", "facets", {"collection": W, "query": "gamma", "field": "foo"},
     (200, [{'value': 'v1', 'count': 1}])),
    ("POST", "delete", {"collection": W, "id": "d1"}, (200, True)),
    ("POST", "delete", {"collection": W, "id": ""},
     (400, {'error': 'id must be a non-empty string'})),
    ("GET", "count", {"collection": W, "query": "alpha gamma zebra"}, (200, {'count': 2})),
    ("POST", "clear", {"collection": W}, (200, None)),
    ("POST", "clear", {"collection": ""},
     (400, {'error': 'collection must be a non-empty string'})),
    ("GET", "count", {"collection": W, "query": "alpha gamma zebra"}, (200, {'count': 0})),
    ("GET", "nope", {}, (404, {'error': 'unknown op GET nope'})),
    ("POST", "search", {"collection": W, "query": "gamma"},
     (404, {'error': 'unknown op POST search'})),
    ("GET", "index-text", {"collection": W, "id": "x", "text": "y"},
     (404, {'error': 'unknown op GET index-text'})),
    ("GET", "/elsewhere", {}, (404, {'error': 'unknown path /elsewhere'})),
]


def test_write_routes_pinned(ray_session, tmp_path):
    from lucene_plugin_ray.server import LuceneHttpService

    doc = tmp_path / "doc.txt"
    doc.write_text("zebra crossing stripes")
    svc = LuceneHttpService(
        IndexConfig(index_root=str(tmp_path / "idx"), num_partitions=2,
                    field_columns=("foo",)),
        soft_commit_max_docs=100,
    ).start()
    try:
        got = [
            _send(svc.url.rsplit("/", 1)[0] if route.startswith("/") else svc.url,
                  route.lstrip("/"),
                  {k: str(doc) if v == "DOC" else v for k, v in params.items()},
                  post=verb == "POST")
            for verb, route, params, _ in WRITES
        ]
    finally:
        svc.shutdown()
    assert got == [w[3] for w in WRITES]


SIGNATURES = {
    "LuceneFacade": {
        "block_join_children": "collection, parent_query, parent_filter, block_field, score=True, limit=None",
        "block_join_parents": "collection, child_query, parent_filter, block_field, score_mode='max', limit=None",
        "classify": "collection, text, class_field",
        "classify_knn": "collection, text, class_field, k=10",
        "clear": "collection",
        "commit": "",
        "complete": "collection, prefix, k=5",
        "complete_infix": "collection, fragment, k=5",
        "count": "collection, query",
        "delete": "collection, ext_id",
        "drill_sideways": "collection, query, dims, limit=None",
        "explain": "collection, query, ext_id",
        "facets": "collection, query, facet_field",
        "facets_taxonomy": "collection, query, dim_fields, top_n=None",
        "index_file": "collection, path",
        "index_map": "collection, ext_id, mapping",
        "index_text": "collection, ext_id, text",
        "more_like_this": "collection, text, max_query_terms=25, limit=None, exclude_id=None",
        "more_like_this_id": "collection, ext_id, max_query_terms=25, limit=None",
        "rescore": "collection, query, rescore_query, window_size=None, weight=1.0, limit=None",
        "search": "collection, query, limit=None",
        "search_after": "collection, query, after_score, after_url, limit=None",
        "search_boosting": "collection, positive_query, negative_query, demote=0.2, limit=None",
        "search_common": "collection, query, max_term_frequency=0.01, limit=None",
        "search_diversified": "collection, query, key_field, max_per_key=1, limit=None",
        "search_expression": "collection, query, expression, bindings=None, limit=None",
        "search_expression_range": "collection, query, expression, lo=None, hi=None, bindings=None, limit=None",
        "search_filtered": "collection, query, filter_query, limit=None",
        "search_join": "collection, from_query, from_field, to_field, score_mode='max', limit=None",
        "search_sorted": "collection, query, limit=None, descending=True, after_ts=None, after_url=''",
        "search_sorted_by": "collection, query, sort, limit=None, after_keys=None, after_url=''",
        "search_surround": "collection, query, limit=None",
        "snippets": "collection, query, texts, k=10, window=8",
        "span_first": "collection, term, end, limit=None",
        "span_near": "collection, terms, slop=0, in_order=True, limit=None",
        "span_not": "collection, term, exclude, pre=0, post=0, limit=None",
        "suggest": "collection, term, k=5, max_edits=2",
        "term_vector": "collection, ext_id, field=None",
    },
    "AsyncLuceneFacade": {
        "block_join_children": "collection, parent_query, parent_filter, block_field, score=True, limit=None",
        "block_join_parents": "collection, child_query, parent_filter, block_field, score_mode='max', limit=None",
        "classify": "collection, text, class_field",
        "classify_knn": "collection, text, class_field, k=10",
        "clear": "collection",
        "commit": "",
        "complete": "collection, prefix, k=5",
        "complete_infix": "collection, fragment, k=5",
        "count": "collection, query",
        "delete": "collection, ext_id",
        "drill_sideways": "collection, query, dims, limit=None",
        "explain": "collection, query, ext_id",
        "facets": "collection, query, facet_field",
        "facets_taxonomy": "collection, query, dim_fields, top_n=None",
        "index_file": "collection, path",
        "index_map": "collection, ext_id, mapping",
        "index_text": "collection, ext_id, text",
        "more_like_this": "collection, text, max_query_terms=25, limit=None, exclude_id=None",
        "more_like_this_id": "collection, ext_id, max_query_terms=25, limit=None",
        "rescore": "collection, query, rescore_query, window_size=None, weight=1.0, limit=None",
        "search": "collection, query, limit=None",
        "search_after": "collection, query, after_score, after_url, limit=None",
        "search_boosting": "collection, positive_query, negative_query, demote=0.2, limit=None",
        "search_common": "collection, query, max_term_frequency=0.01, limit=None",
        "search_diversified": "collection, query, key_field, max_per_key=1, limit=None",
        "search_expression": "collection, query, expression, bindings=None, limit=None",
        "search_expression_range": "collection, query, expression, lo=None, hi=None, bindings=None, limit=None",
        "search_filtered": "collection, query, filter_query, limit=None",
        "search_join": "collection, from_query, from_field, to_field, score_mode='max', limit=None",
        "search_sorted": "collection, query, limit=None, descending=True, after_ts=None, after_url=''",
        "search_sorted_by": "collection, query, sort, limit=None, after_keys=None, after_url=''",
        "search_surround": "collection, query, limit=None",
        "snippets": "collection, query, texts, k=10, window=8",
        "span_first": "collection, term, end, limit=None",
        "span_near": "collection, terms, slop=0, in_order=True, limit=None",
        "span_not": "collection, term, exclude, pre=0, post=0, limit=None",
        "suggest": "collection, term, k=5, max_edits=2",
        "term_vector": "collection, ext_id, field=None",
    },
    "LuceneHttpClient": {
        "block_join_children": "collection, parent_query, parent_filter, block_field, score, limit",
        "block_join_parents": "collection, child_query, parent_filter, block_field, score_mode, limit",
        "classify": "collection, text, class_field",
        "classify_knn": "collection, text, class_field, k",
        "clear": "collection",
        "complete": "collection, prefix, k",
        "complete_infix": "collection, fragment, k",
        "count": "collection, query",
        "delete": "collection, ext_id",
        "drill_sideways": "collection, query, dims, limit",
        "explain": "collection, query, ext_id",
        "facets": "collection, query, field",
        "facets_taxonomy": "collection, query, fields, top_n",
        "index_map": "collection, ext_id, mapping",
        "index_text": "collection, ext_id, text",
        "more_like_this": "collection, text, max_query_terms, limit, exclude_id",
        "more_like_this_id": "collection, ext_id, max_query_terms, limit",
        "rescore": "collection, query, rescore_query, window, weight, limit",
        "search": "collection, query, limit",
        "search_after": "collection, query, after_score, after_url, limit",
        "search_boosting": "collection, positive_query, negative_query, demote, limit",
        "search_common": "collection, query, max_term_frequency, limit",
        "search_diversified": "collection, query, key_field, max_per_key, limit",
        "search_expression": "collection, query, expression, bindings, limit",
        "search_expression_range": "collection, query, expression, lo, hi, bindings, limit",
        "search_filtered": "collection, query, filter_query, limit",
        "search_join": "collection, from_query, from_field, to_field, score_mode, limit",
        "search_sorted": "collection, query, limit, order, after_ts, after_url",
        "search_sorted_by": "collection, query, sort, limit, after_keys, after_url",
        "search_surround": "collection, query, limit",
        "snippets": "collection, query, texts, k, window",
        "span_first": "collection, term, end, limit",
        "span_near": "collection, terms, slop, in_order, limit",
        "span_not": "collection, term, exclude, pre, post, limit",
        "suggest": "collection, term, k, max_edits",
        "term_vector": "collection, ext_id, field",
    },
}


def _signatures():
    import inspect

    from lucene_plugin_ray.facade import AsyncLuceneFacade, LuceneFacade
    from lucene_plugin_ray.server import LuceneHttpClient

    def sig(fn, defaults: bool) -> str:
        ps = list(inspect.signature(fn).parameters.values())[1:]
        return ", ".join(
            ("*" if p.kind is p.VAR_POSITIONAL else "**" if p.kind is p.VAR_KEYWORD else "")
            + p.name + (f"={p.default!r}" if defaults and p.default is not p.empty else "")
            for p in ps
        )

    return {
        cls.__name__: {
            n: sig(fn, cls is not LuceneHttpClient)
            for n, fn in sorted(vars(cls).items())
            if callable(fn) and not n.startswith("_")
        }
        for cls in (LuceneFacade, AsyncLuceneFacade, LuceneHttpClient)
    }


def test_signatures_pinned():
    """The facades keep every public method with its parameters, kinds,
    order and defaults; the client keeps every method it had with the same
    parameter names in the same order (it may gain methods)."""
    got = _signatures()
    assert got["LuceneFacade"] == SIGNATURES["LuceneFacade"]
    assert got["AsyncLuceneFacade"] == SIGNATURES["AsyncLuceneFacade"]
    client = got["LuceneHttpClient"]
    assert {n: client.get(n) for n in SIGNATURES["LuceneHttpClient"]} == (
        SIGNATURES["LuceneHttpClient"]
    )
