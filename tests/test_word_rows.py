"""Word batches as code rows (``WordRows``) and the three readers built
on them: the ``products`` levels of ``joint_stable_profile``,
``pointwise_cover_report`` (lemma32) and ``displacement_sandwich_report``
(lemma25).

Each is checked against ``_oracle``: the kernels against its letter-tuple
words, the level walk against the walk over Python sets it replaced
(value, type and the level a frontier cap stops), and the two reports
against independent tree lengths.  A counter checks that on ``tree-pair``
the three checks read no tree length one word at a time.
"""

import contextlib
import io
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracle
from lenspec import cli
from lenspec.bounds import (_excess, _greedy_chunks, displacement_sandwich_report,
                            pointwise_cover_report)
from lenspec.errors import ResourceCapError
from lenspec.jsl import joint_stable_profile
from lenspec.spaces import TreeModel, WordMetricModel
from lenspec.words import GeneratingSet, Word, WordRows, free_reduce

SCEN_DIR = Path(__file__).resolve().parents[1] / "src" / "lenspec" / "scenarios"

RANK = 2
LETTERS = [1, -1, 2, -2]


def reduced_words(max_len):
    return st.lists(st.sampled_from(LETTERS), max_size=max_len).map(free_reduce)


WEIGHTS = st.one_of(
    st.lists(st.integers(1, 4), min_size=RANK, max_size=RANK),
    st.lists(st.fractions(Fraction(1, 3), 3, max_denominator=6)
             .filter(lambda w: w > 0), min_size=RANK, max_size=RANK),
    st.lists(st.sampled_from([0.5, 0.75, 1.5, 0.1]), min_size=RANK, max_size=RANK),
)


# ------------------------------------------------------------- kernels


@settings(max_examples=200, deadline=None)
@given(st.lists(reduced_words(6), min_size=1, max_size=12),
       st.lists(reduced_words(4), min_size=1, max_size=4))
def test_kernels_match_letter_tuples(words, right):
    rows = WordRows.of(RANK, words)
    assert rows.letters() == words
    assert rows.products(WordRows.of(RANK, right)).letters() == [
        _oracle.concat(w, s) for w in words for s in right]
    assert rows.cores().letters() == [_oracle.cyclic_core(w) for w in words]
    assert sorted(rows.unique().letters()) == sorted(set(words))


def test_kernels_keep_the_empty_word_and_wide_rows():
    rows = WordRows.of(3, [(), (1, 2, 3) * 9, (3, -2)])
    assert rows.width == 27 and (3 * 2 + 1) ** 27 >= 2 ** 64
    assert rows.products(WordRows.of(3, [(2, -3)])).letters() == [
        (2, -3), (1, 2, 3) * 8 + (1, 2, 3, 2, -3), ()]
    doubled = rows.products(WordRows.of(3, [(), ()]))
    assert len(doubled) == 6
    assert sorted(doubled.unique().letters()) == sorted(set(rows.letters()))


# ------------------------------------------------- products level walk


STANDARD = st.lists(st.integers(1, 3), min_size=RANK, max_size=RANK).map(
    lambda w: WordMetricModel(GeneratingSet.standard(RANK, w)))


def _nonstandard(extra, costs):
    elements = ["a", "A", "b", "B", *extra]
    return WordMetricModel(GeneratingSet(RANK, elements, costs[:len(elements)]))


NONSTANDARD = st.builds(
    _nonstandard,
    st.lists(st.sampled_from(["ab", "BA", "aB", "bb", "Ab"]), min_size=1,
             max_size=2, unique=True),
    st.lists(st.sampled_from([1, 2, Fraction(3, 2), Fraction(5, 2)]),
             min_size=6, max_size=6))

# (model, n_max): a non-standard word metric's lengths come from a
# cheapest-first search whose cost grows fast with the word, so it walks
# two levels
MODEL_LEVELS = st.one_of(
    st.tuples(st.one_of(WEIGHTS.map(lambda w: TreeModel(RANK, w)), STANDARD),
              st.integers(2, 3)),
    st.tuples(NONSTANDARD, st.just(2)))


def _outcome(run):
    try:
        return run()
    except ResourceCapError as e:
        return str(e)


@settings(max_examples=120, deadline=None)
@given(MODEL_LEVELS, st.lists(reduced_words(3), min_size=1, max_size=5),
       st.integers(1, 60))
def test_level_walk_matches_the_set_walk(model_levels, subset, cap):
    model, n_max = model_levels
    # the empty word, cancelling pairs (a, A) and duplicates are all drawn
    words = [Word._unchecked(w) for w in subset]
    want = _outcome(lambda: _oracle.joint_levels(model, words, n_max, cap))
    got = _outcome(lambda: joint_stable_profile(
        model, words, n_max, frontier_cap=cap, engine="products"))
    if isinstance(want, str):
        assert got == want
        return
    assert (got.a, got.lo_terms) == want
    for mine, theirs in zip((got.a, got.lo_terms), want):
        assert [type(v) for v in mine.values()] == [type(v) for v in theirs.values()]


@pytest.mark.parametrize("subset,n_max,cap,level", [
    # S^2 of a, A, b, B holds 13 distinct words (e and the 12 of length
    # 2) of its 16 products, so level 3 counts 13 x 4 = 52
    (["a", "A", "b", "B"], 3, 52, None),
    (["a", "A", "b", "B"], 3, 51, 3),
    # a duplicate counts in |S| but not in a level: 2 x 3 = 6 at level 2,
    # and S^2 holds aa, ab, ba and bb, so 4 x 3 = 12 at level 3
    (["a", "a", "b"], 2, 6, None),
    (["a", "a", "b"], 2, 5, 2),
    (["a", "a", "b"], 3, 12, None),
    (["a", "a", "b"], 3, 11, 3),
])
def test_frontier_cap_counts_distinct_words(subset, n_max, cap, level):
    words = [Word(w) for w in subset]
    run = partial(joint_stable_profile, TreeModel(RANK), words, n_max,
                  frontier_cap=cap, engine="products")
    want = _outcome(lambda: _oracle.joint_levels(TreeModel(RANK), words, n_max, cap))
    if level is None:
        profile = run()
        assert (profile.a, profile.lo_terms) == want
    else:
        with pytest.raises(ResourceCapError, match=f"level {level} frontier"):
            run()
        assert want == f"level {level} frontier would exceed cap {cap}"


# ------------------------------------------------------ lemma32, lemma25


def _models(weights):
    return TreeModel(RANK, weights), [Fraction(w) for w in weights]


@settings(max_examples=40, deadline=None)
@given(WEIGHTS, st.integers(0, 5), st.integers(0, 2), st.integers(1, 12))
def test_cover_matches_the_oracle(weights, ball_radius, f_radius, max_f):
    model, exact = _models(weights)
    got = pointwise_cover_report(model, ball_radius, f_radius, max_f=max_f)
    F, C = _oracle.cover(exact, ball_radius, f_radius, max_f)
    assert [w.letters for w in got.F] == F
    assert got.C == C and type(got.C) is type(C)


@pytest.mark.parametrize("weights,max_f,F", [
    # with equal weights the swaps a <-> A and a <-> b keep every length
    # and the ball, so aa ties with AA, bb and BB, and b with B: the first
    # of each tie is kept
    ([1, 1], 12, [(), (1, 1), (2,)]),
    ([2, 2], 2, [(), (1, 1)]),
    ([Fraction(1, 2), Fraction(1, 2)], 12, [(), (1, 1), (2,)]),
])
def test_cover_keeps_the_first_of_tied_candidates(weights, max_f, F):
    model, exact = _models(weights)
    got = pointwise_cover_report(model, 5, 2, max_f=max_f)
    assert [w.letters for w in got.F] == F == _oracle.cover(exact, 5, 2, max_f)[0]


@pytest.mark.parametrize("weights,ball_radius,max_f,want", [
    ([1, 1], 5, 12, 0), ([1, 1], 4, 12, 2), ([1, 3], 5, 1, 12),
    ([Fraction(1, 2), 1], 5, 12, Fraction(0)),
    ([Fraction(1, 2), Fraction(1, 2)], 4, 12, Fraction(1)),
    ([1.5, 1], 5, 1, Fraction(6)),
])
def test_cover_c_is_typed_as_the_lengths(weights, ball_radius, max_f, want):
    got = pointwise_cover_report(TreeModel(RANK, weights), ball_radius, 2,
                                 max_f=max_f).C
    assert got == want and type(got) is type(want)


# weights within a factor 8/3 of each other, so that S_n's ball, of
# radius (n + 2) max / (2 min), stays small
SANDWICH_WEIGHTS = st.lists(st.sampled_from([1, 2, Fraction(3, 2), 0.75, 1.25]),
                            min_size=RANK, max_size=RANK)


@settings(max_examples=40, deadline=None)
@given(SANDWICH_WEIGHTS, st.integers(1, 3), st.integers(0, 4))
def test_sandwich_matches_the_oracle(weights, n, ball_radius):
    model, exact = _models(weights)
    got = displacement_sandwich_report(model, n, ball_radius)
    bound = (n + 2) * Fraction(max(exact), 2)
    assert [w.letters for w in got.s_n.elements] == _oracle.displacement_ball(exact, bound)
    words = _oracle.ball(RANK, ball_radius)
    assert got.checked == len(words) and got.violations == []
    counts = _greedy_chunks(WordRows.of(RANK, words), model.weight_of, bound)
    assert counts.tolist() == [_oracle.pieces(exact, g, bound) for g in words]


def _outside(*args) -> list:
    """The rows whose ``_excess`` is above the tolerance."""
    excess, tol = _excess(*args)
    return np.flatnonzero(excess > tol).tolist()


def test_int_and_object_bounds_list_the_same_rows():
    # values in halves (den 2) against [k - 3/2 - 1/2, 2k + 1/2]: rows 1
    # and 4 sit on the bounds, rows 2 and 5 just outside
    d, k = np.array([7, 9, 10, 10, 2, 1]), np.array([3, 2, 2, 3, 3, 3])
    exact = np.array([Fraction(v, 2) for v in d.tolist()], dtype=object)
    args = (1, Fraction(3, 2), 2, Fraction(1, 2))
    assert _outside(d, 2, k, *args) == _outside(exact, None, k, *args) == [2, 5]
    # the same rows in Python ints, where int64 sides could overflow
    big = 2 ** 62
    assert _outside(d.astype(object) * big, 2 * big, k, *args) == [2, 5]


def test_tree_pair_checks_read_no_tree_length_one_word_at_a_time(monkeypatch):
    reads = []
    for name in ("displacement", "class_length"):
        method = getattr(TreeModel, name)

        def counted(self, *args, _method=method, _name=name):
            reads.append(_name)
            return _method(self, *args)

        monkeypatch.setattr(TreeModel, name, counted)
    argv = ["verify", "prop31", "lemma25", "lemma32",
            "--scenario", str(SCEN_DIR / "tree-pair.json")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert reads == []
