"""Unit tests for the analyzer (SURVEY.md §5.2 layer 1)."""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucene_plugin_ray.functions.analysis import (
    MAX_TOKEN_LENGTH,
    STOP_WORDS,
    analyze,
    sanitize_collection,
    term_frequencies,
    tokenize_column,
)


def test_stop_set_is_lucene_33():
    assert len(STOP_WORDS) == 33
    assert "the" in STOP_WORDS and "with" in STOP_WORDS and "lamb" not in STOP_WORDS


def test_analyze_basic():
    # ≙ reference: 'Lorem' matches 'lorem' (TestSearchByFirstWord.java:39)
    assert analyze("Mary had a little Lamb.") == ["mary", "had", "little", "lamb"]
    assert analyze("The THE the") == []          # stopword query → empty (Q7)
    assert analyze("") == []
    assert analyze("x" * 256) == []              # max token length 255
    assert analyze("x" * 255) == ["x" * 255]
    assert analyze("age:23") == ["age", "23"]    # ':' is a separator


def test_tokenize_column_matches_analyze():
    texts = [
        "Mary had a little Lamb",
        "",
        None,
        "The the THE",
        "Lorem ipsum dolor versions",
        "x" * 256 + " ok",
    ]
    parents, terms, doc_len = tokenize_column(pa.array(texts, type=pa.string()))
    got = [[] for _ in texts]
    for p, t in zip(parents, terms.to_pylist()):
        got[p].append(t)
    expected = [analyze(t) if t else [] for t in texts]
    assert got == expected
    assert doc_len.tolist() == [len(e) for e in expected]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(max_size=40), max_size=8))
def test_tokenize_column_property(texts):
    parents, terms, doc_len = tokenize_column(pa.array(texts, type=pa.string()))
    got = [[] for _ in texts]
    for p, t in zip(parents, terms.to_pylist()):
        got[p].append(t)
    assert got == [analyze(t) for t in texts]
    assert doc_len.tolist() == [len(analyze(t)) for t in texts]


def test_term_frequencies():
    texts = ["lamb lamb mary", "lamb"]
    parents, terms, _ = tokenize_column(pa.array(texts))
    rows, tf_terms, tfs = term_frequencies(parents, terms)
    triples = sorted(zip(rows.tolist(), tf_terms.to_pylist(), tfs.tolist()))
    assert triples == [(0, "lamb", 2), (0, "mary", 1), (1, "lamb", 1)]


def test_sanitize_collection():
    # ≙ LuceneIndexBean.escape (LuceneIndexBean.java:553-586): strips specials
    assert sanitize_collection('a+b-c!d(e)f{g}h[i]j^k"l~m*n?o:p\\q') == "abcdefghijklmnopq"
    assert sanitize_collection("plain") == "plain"


def test_hashed_fast_path_matches_exact():
    from lucene_plugin_ray.functions.analysis import (
        hash_token_bytes,
        tokenize_column_hashed,
    )

    texts = [
        "Mary had a little Lamb",
        "",
        None,
        "the THE the",
        "x" * 256 + " ok 123abc",
        "edge",  # token flush at row boundary (next row starts with alnum)
        "left right",
        "y" * MAX_TOKEN_LENGTH,  # longest kept token, alone in its row
        "Z" * MAX_TOKEN_LENGTH + " end",
    ]
    arr = pa.array(texts, type=pa.string())
    ht = tokenize_column_hashed(arr)
    assert ht is not None
    parents, terms, doc_len = tokenize_column(arr)
    assert ht.doc_len.tolist() == doc_len.tolist()
    assert ht.parents.tolist() == parents.tolist()
    exp_hashes = [hash_token_bytes(t.encode()) for t in terms.to_pylist()]
    assert ht.hashes.tolist() == exp_hashes
    # token strings recoverable from the buffer
    got_toks = [ht.token_bytes(i).decode() for i in range(len(ht.parents))]
    assert got_toks == terms.to_pylist()
    # bulk strings == per-token decode: empty, one token, unsorted with
    # repeats, max-length tokens, tokens either side of row boundaries
    n_tok = len(ht.parents)
    row_edges = np.flatnonzero(np.diff(ht.parents))
    for idx in (
        [],
        [3],
        [n_tok - 1, 0, 5, 5, 2, n_tok - 1, 0],
        np.flatnonzero(ht.lens == MAX_TOKEN_LENGTH),
        np.concatenate([row_edges, row_edges + 1]),
        np.arange(n_tok)[::-1],
    ):
        got = ht.token_strings(np.asarray(idx, dtype=np.int64))
        assert got.type == pa.string()
        assert got.to_pylist() == [ht.token_bytes(int(i)).decode() for i in idx]
    assert (ht.lens == MAX_TOKEN_LENGTH).sum() == 2


def test_hashed_fast_path_rejects_non_ascii():
    from lucene_plugin_ray.functions.analysis import tokenize_column_hashed

    assert tokenize_column_hashed(pa.array(["KKelvin"])) is None  # KELVIN SIGN


@settings(max_examples=150, deadline=None)
@given(st.lists(st.text(alphabet=st.characters(min_codepoint=1, max_codepoint=127), max_size=40), max_size=8))
def test_hashed_fast_path_property_ascii(texts):
    from lucene_plugin_ray.functions.analysis import (
        hash_token_bytes,
        tokenize_column_hashed,
    )

    arr = pa.array(texts, type=pa.string())
    ht = tokenize_column_hashed(arr)
    assert ht is not None
    parents, terms, doc_len = tokenize_column(arr)
    assert ht.parents.tolist() == parents.tolist()
    assert ht.doc_len.tolist() == doc_len.tolist()
    assert ht.hashes.tolist() == [hash_token_bytes(t.encode()) for t in terms.to_pylist()]
    # bulk strings: every token, reversed and doubled
    idx = np.concatenate([np.arange(len(ht.parents))[::-1]] * 2)
    assert ht.token_strings(idx).to_pylist() == [
        ht.token_bytes(int(i)).decode() for i in idx
    ]


def test_positions_are_pre_stop_filter():
    """StopFilter enablePositionIncrements parity: positions count removed
    stop words and over-long tokens (one position each), across all three
    analyzer paths — scalar, Arrow, and the ASCII hashed fast path."""
    from lucene_plugin_ray.functions.analysis import (
        analyze_with_positions,
        tokenize_column_hashed,
    )

    text = "The quick   fox, and " + "y" * 300 + " lazy dog"
    # non-empty tokens: the(0) quick(1) fox(2) and(3) yyy...(4) lazy(5) dog(6)
    exp = [("quick", 1), ("fox", 2), ("lazy", 5), ("dog", 6)]
    assert analyze_with_positions(text) == exp

    arr = pa.array([text, None, "", "of to in", "alpha the beta"])
    p, t, dl, pos = tokenize_column(arr, with_positions=True)
    assert t.to_pylist() == ["quick", "fox", "lazy", "dog", "alpha", "beta"]
    assert pos.tolist() == [1, 2, 5, 6, 0, 2]
    assert p.tolist() == [0, 0, 0, 0, 4, 4]
    assert dl.tolist() == [4, 0, 0, 0, 2]

    ht = tokenize_column_hashed(arr)
    assert ht is not None
    assert ht.positions.tolist() == pos.tolist()
    assert ht.parents.tolist() == p.tolist()


@settings(max_examples=150, deadline=None)
@given(st.lists(st.text(alphabet=st.characters(min_codepoint=1, max_codepoint=127), max_size=40), max_size=8))
def test_positions_property_three_paths(texts):
    """Arrow, hashed, and scalar analyzers agree on (term, position) for
    every surviving token."""
    from lucene_plugin_ray.functions.analysis import (
        analyze_with_positions,
        tokenize_column_hashed,
    )

    arr = pa.array(texts, type=pa.string())
    p, t, _, pos = tokenize_column(arr, with_positions=True)
    ht = tokenize_column_hashed(arr)
    assert ht is not None
    assert ht.positions.tolist() == pos.tolist()
    # scalar path per row
    exp_pairs = []
    for i, txt in enumerate(texts):
        for tok, q in analyze_with_positions(txt or ""):
            exp_pairs.append((i, tok, q))
    got_pairs = list(zip(p.tolist(), t.to_pylist(), pos.tolist()))
    assert got_pairs == exp_pairs
