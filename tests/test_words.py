"""Free-group word algebra and conjugacy enumeration.

The enumeration oracles here are frozen from a brute-force pass: every
ball word is cyclically reduced and rotated to canonical form by hand,
and the resulting class lists are compared against iter_class_reps.
"""

import gc
import heapq
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenspec.words import (
    ClassCodes,
    ConjClass,
    GeneratingSet,
    Word,
    _distinct,
    _min_rotation,
    enumerate_ball,
    free_reduce,
    iter_class_reps,
    letter_key,
    word_length,
)
from lenspec import words
from lenspec.errors import InputError, ResourceCapError, SearchExhaustedError
from lenspec.spaces import WordMetricModel


letters = st.integers(min_value=-3, max_value=3).filter(lambda x: x != 0)
letter_lists = st.lists(letters, min_size=0, max_size=12)


# ---------------------------------------------------------------- words


def test_parse_and_str_roundtrip():
    w = Word("aBa")
    assert w.letters == (1, -2, 1)
    assert str(w) == "aBa"
    assert str(Word("")) == "e"
    assert Word("c").letters == (3,)


def test_free_reduction_on_construction():
    assert Word("aA").letters == ()
    assert Word("abBA").letters == ()
    assert Word("abBc").letters == (1, 3)
    assert Word([1, -1, 2]).letters == (2,)


def test_parse_rejects_garbage():
    with pytest.raises(InputError):
        Word("a1")
    with pytest.raises(InputError):
        Word([0, 1])


def test_identity_is_falsy():
    assert not Word("")
    assert Word("a")
    assert len(Word("abA")) == 3


@given(letter_lists, letter_lists)
def test_multiplication_is_concatenation_reduced(xs, ys):
    assert (Word(xs) * Word(ys)).letters == free_reduce(tuple(xs) + tuple(ys))


@given(letter_lists)
def test_inverse_cancels(xs):
    w = Word(xs)
    assert (w * w.inverse()).letters == ()
    assert (w.inverse() * w).letters == ()


@given(letter_lists, st.integers(min_value=-4, max_value=4))
def test_pow_matches_repeated_product(xs, k):
    w = Word(xs)
    expected = Word("")
    base = w if k >= 0 else w.inverse()
    for _ in range(abs(k)):
        expected = expected * base
    assert w**k == expected


@given(letter_lists, letter_lists)
def test_conjugate_by(xs, ys):
    g, h = Word(xs), Word(ys)
    assert g.conjugate_by(h) == h.inverse() * g * h


def test_max_index():
    assert Word("aBc").max_index() == 3
    assert Word("").max_index() == 0


def test_letter_key_ordering():
    # a < A < b < B: positive letter sorts before its inverse
    ks = sorted([letter_key(-1), letter_key(1), letter_key(2), letter_key(-2)])
    assert ks == [letter_key(1), letter_key(-1), letter_key(2), letter_key(-2)]


# ------------------------------------------------------- conjugacy classes


def test_cyclic_reduction_examples():
    c = ConjClass.of(Word("abA"))
    assert c.rep == Word("b")
    assert c.std_length == 1
    # rep == w^-1 g w for the witness w
    assert Word("abA").conjugate_by(c.conjugator) == c.rep


@given(letter_lists)
def test_conjugator_witness(xs):
    g = Word(xs)
    c = ConjClass.of(g)
    assert g.conjugate_by(c.conjugator) == c.rep


@given(letter_lists, letter_lists)
def test_conjugacy_invariance(xs, ys):
    g, h = Word(xs), Word(ys)
    assert ConjClass.of(g).rep == ConjClass.of(g.conjugate_by(h)).rep


@given(letter_lists)
def test_rep_is_cyclically_reduced_and_least(xs):
    rep = ConjClass.of(Word(xs)).rep.letters
    if rep:
        assert rep[0] != -rep[-1] or len(rep) == 1
        assert _min_rotation(rep) == 0


@given(st.lists(letters, min_size=1, max_size=10))
def test_min_rotation_agrees_with_scan(xs):
    xs = tuple(xs)
    i = _min_rotation(xs)
    rots = [xs[j:] + xs[:j] for j in range(len(xs))]
    best = min(rots, key=lambda r: tuple(letter_key(x) for x in r))
    assert xs[i:] + xs[:i] == best


def test_class_counts_rank2():
    # cumulative counts of nontrivial classes with std_length <= R
    # R=1: a A b B; R=2: + aa AA bb BB ab aB Ab AB; R=3: 12 more
    counts = {R: sum(1 for _ in iter_class_reps(2, R)) for R in (1, 2, 3)}
    assert counts == {1: 4, 2: 12, 3: 24}


@pytest.mark.parametrize("rank,radius", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 3)])
def test_class_reps_match_bruteforce(rank, radius):
    brute = set()
    for w in enumerate_ball(rank, radius):
        c = ConjClass.of(w)
        if c.rep and c.std_length <= radius:
            brute.add(c.rep.letters)
    reps = list(iter_class_reps(rank, radius))
    assert len(reps) == len(set(reps))
    assert set(reps) == brute
    # emitted in (length, order): lengths never decrease
    lens = [len(r) for r in reps]
    assert lens == sorted(lens)


@pytest.mark.parametrize("rank,radius", [(1, 6), (2, 6), (3, 4)])
def test_class_reps_are_the_sorted_bruteforce_list(rank, radius):
    brute = set()
    for w in enumerate_ball(rank, radius):
        c = ConjClass.of(w)
        if c.rep:
            brute.add(c.rep.letters)
    expected = sorted(brute, key=lambda r: (len(r), [letter_key(x) for x in r]))
    assert iter_class_reps(rank, radius) == expected


def test_class_reps_cap_raises():
    with pytest.raises(ResourceCapError):
        iter_class_reps(2, 12, cap=1000)


# the number of prefixes of length <= radius the walk visits: a prefix
# extends by every code from a[t+1-p] on but the inverse of its last
@pytest.mark.parametrize("rank,radius,visited", [(1, 6, 12), (2, 6, 420), (3, 4, 322)])
def test_class_reps_cap_counts_every_visited_prefix(rank, radius, visited):
    assert iter_class_reps(rank, radius, cap=visited) == iter_class_reps(rank, radius)
    with pytest.raises(ResourceCapError):
        iter_class_reps(rank, radius, cap=visited - 1)


def test_class_walk_counts_a_level_before_building_it():
    # rank 128 has about 5.6M prefixes of length 3, past the default cap:
    # the walk raises on their count, holding only the 33k of length 2
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError):
            ClassCodes.walk(128, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


@pytest.mark.parametrize("rank,radius", [(2, 6), (3, 5), (1, 7)])
def test_class_walk_blocks_do_not_depend_on_the_index_type(rank, radius):
    # a cap of 2**31 or more walks with int64 index arrays, a smaller one
    # with int32: the blocks, their code type included, are the same
    wide, narrow = ClassCodes.walk(rank, radius, cap=2 ** 40), ClassCodes.walk(rank, radius)
    assert [(b.dtype, b.tolist()) for b in wide.blocks] == \
        [(b.dtype, b.tolist()) for b in narrow.blocks]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.data())
def test_class_codes_of_blocks_the_reps_by_length(rank, data):
    # given reps, as given, in length blocks in their own order (a block
    # may be empty); the order returned reads each rep's row back, and a
    # letter beyond the rank is an input error
    letters = [x for i in range(1, rank + 1) for x in (i, -i)]
    reps = data.draw(st.lists(st.lists(st.sampled_from(letters), min_size=1,
                                       max_size=6).map(tuple), max_size=12))
    codes, where = ClassCodes.of(rank, reps)
    assert codes.rank == rank and codes.radius == max(map(len, reps), default=0)
    assert [b.shape[1] for b in codes.blocks] == list(range(1, codes.radius + 1))
    assert codes.reps == sorted(reps, key=len)
    assert [codes.rep(i) for i in where.tolist()] == reps
    assert len(codes) == len(reps) and sorted(where.tolist()) == list(range(len(reps)))
    assert {b.dtype for b in codes.blocks} <= {ClassCodes.walk(rank, 1).blocks[0].dtype}
    bad = data.draw(st.sampled_from([rank + 1, -rank - 1, 0]))
    cut = data.draw(st.integers(0, len(reps)))
    with pytest.raises(InputError, match=f"letter {bad} outside rank {rank}"):
        ClassCodes.of(rank, [*reps[:cut], (letters[0], bad), *reps[cut:]])
    with pytest.raises(InputError, match="nonempty"):
        ClassCodes.of(rank, [*reps[:cut], (), *reps[cut:]])


# int64 keys with many repeats: a few small values among arbitrary ones
_KEYS = st.lists(st.one_of(st.integers(-3, 3), st.integers(-2 ** 63, 2 ** 63 - 1)),
                 max_size=600)


@settings(max_examples=200, deadline=None)
@given(_KEYS)
def test_distinct_is_np_unique(values):
    keys = np.array(values, np.int64)
    distinct, inverse = _distinct(keys)
    want, want_inverse = np.unique(keys, return_inverse=True)
    assert distinct.dtype == np.int64 and distinct.tolist() == want.tolist()
    assert inverse.tolist() == want_inverse.tolist()
    # the inverse type holds len(distinct) itself: classes.csv indexes one
    # more text there, the blank one
    assert inverse.dtype.kind == "u" and np.iinfo(inverse.dtype).max >= len(distinct)
    again, _, at = _distinct(keys, positions=True)
    assert again.tolist() == distinct.tolist() and keys[at].tolist() == distinct.tolist()


def test_distinct_of_empty_one_and_signed_zero_keys():
    for keys in (np.zeros(0, np.int64), np.array([-5], np.int64)):
        distinct, inverse = _distinct(keys)
        assert distinct.tolist() == keys.tolist()
        assert inverse.tolist() == [0] * len(keys) and inverse.dtype == np.uint8
    # the bits of 0.0 and -0.0 are two keys, as their texts differ
    zeros = np.array([0.0, -0.0, 0.0, -0.0, -0.0])
    distinct, inverse = _distinct(zeros.view(np.int64))
    assert [str(v) for v in distinct.view(np.float64).tolist()] == ["-0.0", "0.0"]
    assert [str(v) for v in distinct.view(np.float64)[inverse].tolist()] == \
        ["0.0", "-0.0", "0.0", "-0.0", "-0.0"]
    # 256 distinct keys need a uint16 inverse, which holds 256
    assert _distinct(np.arange(256))[1].dtype == np.uint16


def test_class_reps_leave_no_cyclic_garbage():
    # a walk holding reference cycles keeps every rep tuple alive until the
    # cyclic collector runs, which shows as peak memory on large tables
    gc.collect()
    gc.disable()
    try:
        iter_class_reps(2, 8)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_ball_sizes_rank2():
    # 1 + 4 * sum(3^(k-1)) words of length <= R
    assert len(list(enumerate_ball(2, 0))) == 1
    assert len(list(enumerate_ball(2, 1))) == 5
    assert len(list(enumerate_ball(2, 2))) == 17
    assert len(list(enumerate_ball(2, 3))) == 53


def test_ball_cap_raises():
    with pytest.raises(ResourceCapError):
        list(enumerate_ball(2, 12, cap=100))


@pytest.mark.parametrize("rank,radius,cap", [(2, 3, 52), (2, 3, 53), (3, 1, 6),
                                             (3, 1, 7), (1, 4, 8), (1, 4, 9)])
def test_ball_cap_is_the_ball_size(rank, radius, cap):
    # the ball of radius R holds 1 + 2r * sum((2r - 1)^(k-1)) words: a cap
    # one below that raises, the size itself does not
    size = 1 + sum(2 * rank * (2 * rank - 1) ** (k - 1) for k in range(1, radius + 1))
    if cap < size:
        with pytest.raises(ResourceCapError, match=f"exceeds cap {cap}"):
            enumerate_ball(rank, radius, cap=cap)
    else:
        assert len(enumerate_ball(rank, radius, cap=cap)) == size


def test_ball_counts_a_level_before_building_it():
    # level 2 of rank 300 holds 600 * 599 = 359,400 words, far past the
    # cap: it must raise before a tuple of it is built.  The rank-2 ball
    # of radius 59 passes 4,000,000 words only at level 14, so the
    # levels below it must not be built either
    for rank, radius, cap in [(300, 2, 1000), (2, 59, 4_000_000)]:
        tracemalloc.start()
        try:
            with pytest.raises(ResourceCapError):
                enumerate_ball(rank, radius, cap=cap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, (rank, radius)


# ----------------------------------------------------------- generating sets


def test_standard_set():
    s = GeneratingSet.standard(2)
    assert [str(w) for w in s.elements] == ["a", "A", "b", "B"]
    assert s.symmetric
    assert s.is_standard
    assert s.weight_of(2) == 1


def test_weighted_standard_set():
    # standard shape with inversion-equal weights still counts as standard
    s = GeneratingSet.standard(2, weights=[2, 1])
    assert s.symmetric
    assert s.is_standard
    assert s.weight_of(1) == 2
    assert s.weight_of(-1) == 2


def test_asymmetric_set():
    s = GeneratingSet(2, [Word("a"), Word("b"), Word("B")])
    assert not s.symmetric
    assert not s.is_standard


def test_shortcut_set_not_standard():
    s = GeneratingSet(2, ["a", "A", "b", "B", "ab", "BA"])
    assert s.symmetric
    assert not s.is_standard


def test_generating_set_validation():
    with pytest.raises(InputError):
        GeneratingSet(2, [])
    with pytest.raises(InputError):
        GeneratingSet(1, [Word("b")])
    with pytest.raises(InputError):
        GeneratingSet(2, [Word("a")], weights=[1, 2])
    with pytest.raises(InputError):
        GeneratingSet(2, [Word("a")], weights=[-1])


@pytest.mark.parametrize("bad", [float("inf"), float("nan"), "0.5", True, None, 1j],
                         ids=repr)
def test_generating_set_rejects_malformed_weights(bad):
    with pytest.raises(InputError):
        GeneratingSet(2, ["a", "A", "b", "B"], [bad, 1, 1, 1])


def test_weights_are_ints_or_the_fractions_they_equal():
    s = GeneratingSet(2, ["a", "A", "b", "B"], [2.0, Fraction(4, 2), 0.1, Fraction(1, 3)])
    assert [type(w) for w in s.weights] == [int, int, Fraction, Fraction]
    assert s.weights == (2, 2, Fraction(0.1), Fraction(1, 3))


def test_word_length_standard_is_word_length():
    s = GeneratingSet.standard(2)
    for txt in ("", "a", "ab", "abAB", "aaB"):
        assert word_length(Word(txt), s) == len(Word(txt))


def test_word_length_with_shortcut():
    s = GeneratingSet(
        2,
        [Word("a"), Word("A"), Word("b"), Word("B"), Word("ab"), Word("BA")],
    )
    assert word_length(Word("ab"), s) == 1
    assert word_length(Word("abb"), s) == 2
    assert word_length(Word("BA"), s) == 1


def test_word_length_fractional_weights_stay_exact():
    s = GeneratingSet(
        1, [Word("a"), Word("A")], weights=[Fraction(1, 3), Fraction(1, 3)]
    )
    assert word_length(Word("aaa"), s) == 1
    assert isinstance(word_length(Word("aa"), s), Fraction)


def _fraction_distances(s: GeneratingSet, bound) -> dict:
    """Every element of cost <= bound with its word-metric distance, from a
    uniform-cost search that adds the weights as Fractions."""
    steps = [(e.letters, Fraction(w)) for e, w in s]
    settled: dict = {}
    heap = [(Fraction(0), ())]
    while heap:
        d, w = heapq.heappop(heap)
        if w in settled:
            continue
        settled[w] = d
        for letters, wt in steps:
            if d + wt <= bound:
                heapq.heappush(heap, (d + wt, (Word(w) * Word(letters)).letters))
    return settled


def test_float_word_metric_lengths_are_fractions_of_the_exact_search():
    # the search adds scaled ints and divides only what it returns: every
    # length over the radius-4 ball and every letter cost is the Fraction
    # of an exact search (identity aside, which is the int 0)
    s = GeneratingSet(2, ["a", "A", "b", "B", "ab", "BA"],
                      [1.5, 1.5, 0.7, 0.7, 1.1, 2.3])
    exact = _fraction_distances(s, 6)  # radius 4 costs at most 4 * 1.5
    for g in enumerate_ball(2, 4):
        d = word_length(g, s)
        assert d == exact[g.letters], g
        assert type(d) is (Fraction if g else int)
    costs = WordMetricModel(s)._letter_cost
    assert costs == {x: exact[(x,)] for x in (1, -1, 2, -2)}
    assert {type(c) for c in costs.values()} == {Fraction}
    assert costs[1] == Fraction(3, 2) and costs[2] == Fraction(0.7)


def test_word_length_exhaustion():
    s = GeneratingSet(2, [Word("a"), Word("A"), Word("b"), Word("B")])
    with pytest.raises(SearchExhaustedError):
        word_length(Word("a") ** 40, s, radius_cap=8)


def test_semigroup_generation():
    standard = WordMetricModel(GeneratingSet.standard(2))
    assert standard._letter_cost == {1: 1, -1: 1, 2: 1, -2: 1}
    # no inverses reachable within the budget
    with pytest.raises(InputError, match=r"letter -[12] not reached"):
        WordMetricModel(GeneratingSet(2, [Word("a"), Word("b")]))
    # asymmetric but still generating: the pair {ab, BA, a, A} closes over
    # b = A(ab) and B = (BA)a
    gen = GeneratingSet(2, [Word("a"), Word("A"), Word("ab"), Word("BA")])
    assert WordMetricModel(gen)._letter_cost == {1: 1, -1: 1, 2: 2, -2: 2}


# B costs 12 and b costs 2, while ab makes r = 1/2, so the tree-distance
# bound of the search is weak: it reaches over a thousand elements first
_DEAR_B = GeneratingSet(2, ["a", "A", "b", "B", "ab"], [1, 1, 2, 12, 1])


def test_word_length_stops_at_the_node_cap(monkeypatch):
    deep = Word("b") ** 6
    assert word_length(deep, _DEAR_B) == 12
    monkeypatch.setattr(words, "_SEARCH_NODE_CAP", 1000)
    with pytest.raises(ResourceCapError, match="1000 elements"):
        word_length(deep, _DEAR_B)


def test_letter_cost_search_stops_at_the_node_cap(monkeypatch):
    assert WordMetricModel(_DEAR_B)._letter_cost[-2] == 12
    monkeypatch.setattr(words, "_SEARCH_NODE_CAP", 1000)
    with pytest.raises(InputError, match="semigroup generation check "
                                         "inconclusive: letter -2"):
        WordMetricModel(_DEAR_B)


def test_letter_costs_of_many_letters_settle():
    # each inverse letter A_i is cheapest as (A_i A_i) a_i, at 4; the one
    # search aims at all 48 letters, where a search that aims at none (or
    # only at the last 16 pending) passes the node cap first
    rank = 24
    elements, weights = [], []
    for i in range(1, rank + 1):
        elements += [Word((i,)), Word((-i,)), Word((-i, -i))]
        weights += [1, 8, 3]
    model = WordMetricModel(GeneratingSet(rank, elements, weights))
    assert model._letter_cost == {x: 1 if x > 0 else 4
                                  for i in range(1, rank + 1) for x in (i, -i)}
