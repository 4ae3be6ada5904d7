"""Parser (Q1-Q7 grammar) + extractor + reject-routing unit tests."""

import pyarrow as pa
import pytest

from lucene_plugin_ray.functions.queryparse import (
    MUST,
    SHOULD,
    MultiTermClause,
    PhraseClause,
    QueryParseError,
    RangeClause,
    TermClause,
    parse_query,
)


def test_single_term_analyzed():
    assert parse_query("Lorem") == [TermClause(SHOULD, "text", "lorem")]


def test_field_scoped():
    assert parse_query("data:Lamb") == [TermClause(SHOULD, "data", "lamb")]
    assert parse_query("count:32") == [TermClause(SHOULD, "count", "32")]


def test_range():
    assert parse_query("age:[23 TO 23]") == [RangeClause(SHOULD, "age", "23", "23")]
    assert parse_query("count:[33 TO 34]") == [RangeClause(SHOULD, "count", "33", "34")]
    # exclusive / mixed brackets and open '*' endpoints (classic QP parity)
    assert parse_query("age:{23 TO 26}") == [
        RangeClause(SHOULD, "age", "23", "26", lo_inc=False, hi_inc=False)
    ]
    assert parse_query("age:[23 TO 26}") == [
        RangeClause(SHOULD, "age", "23", "26", lo_inc=True, hi_inc=False)
    ]
    assert parse_query("age:[* TO 26]") == [
        RangeClause(SHOULD, "age", None, "26")
    ]
    assert parse_query("age:{23 TO *]") == [
        RangeClause(SHOULD, "age", "23", None, lo_inc=False, hi_inc=True)
    ]


def test_implicit_or():
    cs = parse_query("mary lamb")
    assert [c.occur for c in cs] == [SHOULD, SHOULD]


def test_plus_and_AND():
    assert [c.occur for c in parse_query("+a1 +b2")] == [MUST, MUST]
    cs = parse_query("a1 AND b2 c3")
    assert [c.occur for c in cs] == [MUST, MUST, SHOULD]


def test_stopword_queries_empty():
    assert parse_query("the") == []
    assert parse_query("the a of") == []


def test_or_keyword():
    cs = parse_query("a1 OR b2")
    assert [c.occur for c in cs] == [SHOULD, SHOULD]


def test_rejects_unsupported():
    for q in [
        "a)b", "(", "(a", "a)", "()", "( )",        # malformed grouping
        '"a b"~-1', '"a b"~x',                       # malformed slop
        "*lead", "?lead",                            # leading wildcard
        "term~3", "term~9",                          # fuzzy maxEdits > 2
        'un"balanced',                               # unbalanced quotes
        'mid"dle phrase"x',                          # phrase glued to a term
        "a~b~c",                                     # malformed fuzzy
    ]:
        with pytest.raises(QueryParseError):
            parse_query(q)
    with pytest.raises(QueryParseError):
        parse_query("")
    with pytest.raises(QueryParseError):
        parse_query("a AND")
    with pytest.raises(QueryParseError):
        parse_query("a --b")  # doubled prohibit
    with pytest.raises(QueryParseError):
        parse_query("a +-b")
    for q in ["a^b", "a^", "^2", "a^0"]:  # malformed / degenerate boosts
        with pytest.raises(QueryParseError):
            parse_query(q)


def test_regexp_clauses():
    """Q15: /re/ — dictionary-expanded constant-score, lowercased pattern;
    Lucene-RegExp automaton operators and invalid patterns rejected."""
    from lucene_plugin_ray.functions.queryparse import MultiTermClause

    (c,) = parse_query("/s[pt].*k/")
    assert isinstance(c, MultiTermClause)
    assert c.kind == "regexp" and c.pattern == "s[pt].*k"
    (c,) = parse_query("f1:/AB+c/^2")
    assert c.field == "f1" and c.pattern == "ab+c" and c.boost == 2.0
    (c,) = parse_query("-/ab/")
    assert c.occur == "MUST_NOT" and c.kind == "regexp"
    for bad in ["//", "/a~b/", "/a&b/", "/a@/", "/<1-3>/", "/a(/", "/a[/"]:
        with pytest.raises(QueryParseError):
            parse_query(bad)
    # escaped operator chars are literals, not rejections
    (c,) = parse_query(r"/a\~b/")
    assert c.pattern == r"a\~b"


def test_sloppy_phrase_clauses():
    """Q14: ~slop on phrases — bare ~ is slop 0 and fractional slop floors
    (classic QueryParser parses the image as float and casts to int)."""
    from lucene_plugin_ray.functions.queryparse import PhraseClause

    (c,) = parse_query('"a1 b2"~2')
    assert isinstance(c, PhraseClause) and c.slop == 2 and c.boost == 1.0
    (c,) = parse_query('"a1 b2"~')
    assert c.slop == 0
    (c,) = parse_query('"a1 b2"~2.7')
    assert c.slop == 2
    (c,) = parse_query('f1:"a1 b2"~3^2')
    assert c.field == "f1" and c.slop == 3 and c.boost == 2.0
    (c,) = parse_query('"a1"~5')  # single survivor degenerates to TermQuery
    assert type(c).__name__ == "TermClause"
    (c,) = parse_query('"a1 the b2"~1')  # stopwords drop before slop applies
    assert isinstance(c, PhraseClause) and c.terms == ("a1", "b2")


def test_boost_clauses():
    (c,) = parse_query("a1^2")
    assert c.boost == 2.0 and c.term == "a1"
    (c,) = parse_query('"a1 b2"^1.5')
    assert c.boost == 1.5
    (c,) = parse_query("age:[20 TO 29]^3")
    assert c.boost == 3.0
    (c,) = parse_query("pre*^2")
    assert c.boost == 2.0 and c.kind == "prefix"
    (c,) = parse_query("-a1^2")
    assert c.boost == 2.0 and c.occur == "MUST_NOT"


def test_must_not_clauses():
    from lucene_plugin_ray.functions.queryparse import MUST_NOT

    assert [c.occur for c in parse_query("a1 -b2")] == [SHOULD, MUST_NOT]
    assert [c.occur for c in parse_query("a1 NOT b2")] == [SHOULD, MUST_NOT]
    assert [c.occur for c in parse_query("+a1 AND NOT b2")] == [MUST, MUST_NOT]
    assert [c.occur for c in parse_query("-b2")] == [MUST_NOT]
    # prohibited phrase / prefix / field clauses parse too
    cs = parse_query('a1 -"x1 y2" -lang:de -pre*')
    assert [c.occur for c in cs] == [SHOULD, MUST_NOT, MUST_NOT, MUST_NOT]


def test_phrase_clause():
    # Q8: analyzed like the index side, field-scoped or default
    assert parse_query('"Mary Lamb"') == [
        PhraseClause(SHOULD, "text", ("mary", "lamb"), offsets=(0, 1))
    ]
    assert parse_query('body:"quick brown Fox"') == [
        PhraseClause(SHOULD, "body", ("quick", "brown", "fox"),
                     offsets=(0, 1, 2))
    ]
    assert parse_query('+"mary lamb" +wool') == [
        PhraseClause(MUST, "text", ("mary", "lamb"), offsets=(0, 1)),
        TermClause(MUST, "text", "wool"),
    ]
    # single surviving token degenerates to a TermQuery (Lucene parity)
    assert parse_query('"Lamb"') == [TermClause(SHOULD, "text", "lamb")]
    assert parse_query('"the lamb"') == [TermClause(SHOULD, "text", "lamb")]
    # fully-stopworded phrase drops the clause (analyzer yields no tokens)
    assert parse_query('"the of" lamb') == [TermClause(SHOULD, "text", "lamb")]


def test_prefix_wildcard_clause():
    assert parse_query("Te*") == [MultiTermClause(SHOULD, "text", "prefix", "te")]
    assert parse_query("lang:D*") == [
        MultiTermClause(SHOULD, "lang", "prefix", "d")
    ]
    assert parse_query("t?st*") == [
        MultiTermClause(SHOULD, "text", "wildcard", "t?st*")
    ]
    assert parse_query("+spa*") == [MultiTermClause(MUST, "text", "prefix", "spa")]


def test_fuzzy_clause():
    assert parse_query("Spark~") == [
        MultiTermClause(SHOULD, "text", "fuzzy", "spark", max_edits=2)
    ]
    assert parse_query("spark~1") == [
        MultiTermClause(SHOULD, "text", "fuzzy", "spark", max_edits=1)
    ]
    # ~0 is an exact term query (FuzzyQuery maxEdits=0 parity)
    assert parse_query("Spark~0") == [TermClause(SHOULD, "text", "spark")]


def test_multiterm_expansion():
    # a syntactic token that analyzes to several terms expands to clauses
    assert parse_query("mary-lamb") == [
        TermClause(SHOULD, "text", "mary"),
        TermClause(SHOULD, "text", "lamb"),
    ]


def test_html_extract_stage():
    from lucene_plugin_ray.stages.extract import HtmlExtract

    ex = HtmlExtract()
    batch = pa.table(
        {
            "url": ["u1", "u2"],
            "html": pa.array(
                [
                    b"<html><head><script>var x=1;</script></head>"
                    b"<body><p>Mary had a &amp; lamb</p></body></html>",
                    None,
                ],
                type=pa.binary(),
            ),
        }
    )
    out = ex(batch)
    assert out["text"].to_pylist() == ["Mary had a & lamb", None]


def test_reject_routing(tmp_path):
    import pyarrow.dataset as pads

    from lucene_plugin_ray.config import IndexConfig
    from lucene_plugin_ray.stages.validate import ValidateAndPartition

    cfg = IndexConfig(num_partitions=4)
    v = ValidateAndPartition(cfg, reject_dir=str(tmp_path / "rejects"))
    batch = pa.table(
        {
            "url": ["ok://1", None, ""],
            "warc_ts": pa.array([1, 2, 3], type=pa.timestamp("us")),
            "text": ["good", "no url", "empty url"],
        }
    )
    out = v(batch)
    assert out.num_rows == 1
    rej = pads.dataset(str(tmp_path / "rejects")).to_table()
    assert rej.num_rows == 2
    assert set(rej["text"].to_pylist()) == {"no url", "empty url"}


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=60))
def test_parser_never_crashes_unexpectedly(q):
    """Any input either parses or raises QueryParseError — nothing else."""
    try:
        clauses = parse_query(q)
    except QueryParseError:
        return
    for c in clauses:
        assert c.occur in (MUST, SHOULD, "MUST_NOT")


def test_binary_source(ray_session, tmp_path):
    """S4: raw media files → (url, payload) dataset → multimodal stage."""
    import pyarrow as pa

    from lucene_plugin_ray.pipelines.training import MultimodalFeatures
    from lucene_plugin_ray.sources.binary import read_binary_payloads

    files = {}
    for i in range(3):
        p = tmp_path / f"img{i}.bin"
        data = bytes([0x89, 0x50, 0x4E, 0x47]) + bytes(range(i + 5))
        p.write_bytes(data)
        files[str(p)] = data
    ds = read_binary_payloads(str(tmp_path))

    def _add_id(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "doc_id", pa.array(range(batch.num_rows), type=pa.int64())
        )

    out = (
        ds.map_batches(_add_id, batch_format="pyarrow")
        .map_batches(MultimodalFeatures, batch_format="pyarrow", batch_size=2,
                     concurrency=1)
        .take_all()
    )
    assert len(out) == 3
    for r in out:
        assert r["n_bytes"] >= 9
        assert r["header_hex"].startswith("89504e47")  # PNG magic survives


def test_not_survives_and_chains():
    """AND promotion must never clobber a pending MUST_NOT (review r3):
    'NOT a AND b' prohibits a; 'a AND NOT b AND c' prohibits b."""
    from lucene_plugin_ray.functions.queryparse import MUST_NOT

    assert [c.occur for c in parse_query("NOT a1 AND b2")] == [MUST_NOT, MUST]
    assert [c.occur for c in parse_query("a1 AND NOT b2 AND c3")] == [
        MUST, MUST_NOT, MUST,
    ]
    assert [c.occur for c in parse_query("NOT a1 OR b2")] == [MUST_NOT, SHOULD]


def test_apply_synonyms_boost_and_key_analysis():
    from lucene_plugin_ray.functions.queryparse import apply_synonyms

    (c,) = apply_synonyms(tuple(parse_query("a1^2")), {"A1": ["b2"]})
    assert c.boost == 2.0 and c.terms == ("a1", "b2")
    # multi-token / stopword keys are skipped, not misapplied
    cs = apply_synonyms(tuple(parse_query("a1")), {"x y": ["b2"], "the": ["b2"]})
    assert [type(x).__name__ for x in cs] == ["TermClause"]


def test_group_clauses():
    from lucene_plugin_ray.functions.queryparse import GroupClause, MUST_NOT

    g, c = parse_query("(a1 b2) AND c3")
    assert isinstance(g, GroupClause) and g.occur == MUST and c.occur == MUST
    assert [x.term for x in g.clauses] == ["a1", "b2"]
    (neg,) = parse_query("-(a1 b2)")
    assert neg.occur == MUST_NOT
    (fg,) = parse_query("foo:(a1 b2)^2")
    assert fg.boost == 2.0 and all(x.field == "foo" for x in fg.clauses)
    (outer,) = parse_query("((a1 AND b2) c3)")
    inner = outer.clauses[0]
    assert isinstance(inner, GroupClause)
    assert [x.occur for x in inner.clauses] == [MUST, MUST]
    # phrases survive inside groups (shared stash across levels)
    (pg,) = parse_query('("a1 b2" c3)')
    assert type(pg.clauses[0]).__name__ == "PhraseClause"
    # an all-stopword group drops (null query)
    assert parse_query("(the of) a1") == parse_query("a1")


def test_regexp_escape_rejection_and_case_fold():
    """'\\<alnum>' diverges between Python/RE2 (Perl classes, backrefs) and
    Lucene RegExp (backslash = literal next char) — rejected loudly; naive
    whole-pattern lowercasing used to invert \\D into \\d silently."""
    for q in (r"/x\d+/", r"/x\D+/", r"/a\w/", r"/a\1/", r"/a\n/"):
        with pytest.raises(QueryParseError):
            parse_query(q)
    # lowercasing is escape-aware; punctuation escapes survive verbatim
    (c,) = parse_query(r"/PAGE\.HIT/")
    assert c.kind == "regexp" and c.pattern == r"page\.hit"


def test_regexp_rejects_constructs_outside_the_shared_dialect():
    """Every admitted regexp must mean the same to Lucene RegExp, RE2 (the
    engine's term filter) and Python re (the oracle).  Python's (?...)
    groups, '{,n}', POSIX classes, non-ASCII escapes and patterns RE2
    cannot compile (possessive repeats, repeat counts over 1000) are
    rejected loudly instead of silently diverging."""
    for q in (
        "/w(?=0)0001/", "/w(?!0)0001/", "/w(?:0)0001/", "/(?i)w0001/",
        "/(?s)w0001/", "/a{,2}/", "/[[:alpha:]]+/", "/[a[:digit:]]/",
        "/\\\u00e9/", "/a*+/", "/a++/", "/a{2000}/",
        "/a\\\\~b/",  # an escaped backslash does not escape the operator
    ):
        with pytest.raises(QueryParseError):
            parse_query(q)
    # the same characters where the dialects agree stay admitted: inside a
    # class, escaped, an escaped backslash before a letter, a bounded repeat
    for q, pat in (
        ("/w[(?]0/", "w[(?]0"), ("/w\\(?0/", "w\\(?0"),
        ("/[]a]b/", "[]a]b"), ("/[:a]b/", "[:a]b"),
        ("/a\\\\d/", "a\\\\d"), ("/a{0,2}/", "a{0,2}"),
    ):
        (c,) = parse_query(q)
        assert c.kind == "regexp" and c.pattern == pat, q


def test_sloppy_slop_clamped():
    from lucene_plugin_ray.functions.queryparse import _SLOP_MAX

    (c,) = parse_query('"alpha beta"~99999999999')
    assert c.slop == _SLOP_MAX


def test_fuzzy_float_similarity():
    """Classic-QP float similarity term~0.8 converts via
    FuzzyQuery.floatToEdits ((int) min((1-sim)*|term|, 2)); fractional
    values >= 1 are rejected like QueryParserBase 5.2.1 ("Fractional edit
    distances are not allowed") — previously ALL float forms were
    rejected although the reference accepts them."""
    (c,) = parse_query("sparkle~0.8")  # (1-0.8)*7 = 1.4 → 1 edit
    assert c.kind == "fuzzy" and c.max_edits == 1
    (c,) = parse_query("sparkle~0.5")  # min((int)3.5, 2) → 2 edits
    assert c.kind == "fuzzy" and c.max_edits == 2
    (c,) = parse_query("sparkle~0.99")  # 0.07 → 0 edits → exact term
    assert isinstance(c, TermClause)
    (c,) = parse_query("sparkle~0.0")  # "0 means exact" → exact term
    assert isinstance(c, TermClause)
    (c,) = parse_query("sparkle~1.0")  # integral ≥1 IS the edit distance
    assert c.kind == "fuzzy" and c.max_edits == 1
    with pytest.raises(QueryParseError):
        parse_query("sparkle~2.5")  # fractional edit distance
    with pytest.raises(QueryParseError):
        parse_query("sparkle~3")
