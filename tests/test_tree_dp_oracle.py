"""The exact tree joint length against the per-level dict walk.

``jsl.tree_joint_profile`` returns [lambda, lambda], lambda half the largest
stable length over S^2, from the Helly argument in its docstring.  The
oracle below is the bounded-suffix automaton engine it replaced: every
level a dict of states, every state stepped through every factor of S, in
exact arithmetic (the weights scaled to ints by their common denominator).  Its level maxima
a[n] are upper bounds for the largest displacement over S^n (exact until
the walk erodes), so they check the upper side independently: a[n] / n >=
lambda for every n, and the exact hi lies at or below the oracle's.  The
oracle's lo is its own S^2 scan and must equal lambda.  Every bracket end is
a Fraction.
"""

import functools
import math
from collections import namedtuple
from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from lenspec.actions import LengthBracket, exact_div
from lenspec.jsl import tree_joint_profile
from lenspec.spaces import TreeModel
from lenspec.words import (Word, _as_words, _concat_reduced, _cyclic_core,
                           enumerate_ball)
from test_window_oracle import _canon

_OracleProfile = namedtuple(
    "_OracleProfile", "bracket a lo_terms pair_half engine eroded")

# ------------------------------------------------------------------ oracle

_EXACT, _TRUNC, _BLIND = 0, 1, 2

# Retained suffix length of the tree automaton, raised to twice the
# longest factor of S.
_SUFFIX_CAP = 6


def _peeled_length(letters: tuple, weight_of) -> object:
    """Weighted cyclically reduced length (no rotation needed for lengths)."""
    i, j = 0, len(letters) - 1
    while i < j and letters[i] == -letters[j]:
        i += 1
        j -= 1
    if i > j:
        return 0
    return sum(weight_of(x) for x in letters[i : j + 1])


def _oracle_tree_step(weights, suffix, trunc, s, cap):
    """(new_suffix, new_trunc, delta, eroded) of appending factor s."""
    w = list(suffix)
    t = 0
    delta = 0
    while t < len(s) and w and w[-1] == -s[t]:
        delta -= weights[abs(w.pop()) - 1]
        t += 1
    eroded = trunc == _TRUNC and not w and t < len(s)
    kept = s[t:]
    for x in kept:
        delta += weights[abs(x) - 1]
    if eroded:
        return (), _BLIND, delta, True
    new = tuple(w) + kept
    if len(new) > cap:
        return new[-cap:], _TRUNC, delta, False
    return new, trunc, delta, False


def _oracle_tree_joint_profile(model: TreeModel, s, n_max: int = 12) -> _OracleProfile:
    """The oracle's profile of S on the tree of ``model``.  The last few
    (weights, S, n_max) are walked once: hypothesis replays a draw, and a
    few draws take most of the oracle's time."""
    return _oracle_walk(tuple(model.weights),
                        tuple(w.letters for w in _as_words(s)), n_max)


@functools.lru_cache(maxsize=32)
def _oracle_walk(tree_weights: tuple, s_list: tuple, n_max: int) -> _OracleProfile:
    """Joint stable length on a tree via a bounded-suffix automaton.

    Cancellation against a single factor never looks deeper than the factor
    length, so transitions on the last few letters are exact; when repeated
    cancellation erodes past the retained suffix the sequence switches to a
    blind state that stops cancelling altogether.  Level maxima are then
    certified upper bounds for the true maxima (exact when nothing eroded,
    as reported by ``eroded``), so the hi side of the bracket stays sound.
    The lo side is the exact half-max stable length over S^2.
    """
    if any(not w for w in s_list):
        s_list = [w for w in s_list if w] or [()]
    # the walk adds weights scaled by their common denominator, as ints,
    # and divides it back out of each level maximum: the same values as
    # Fraction sums, without a Fraction built per transition
    den = math.lcm(*(Fraction(w).denominator for w in tree_weights))
    weights = tuple(int(w * den) for w in tree_weights)
    cap = max(_SUFFIX_CAP, 2 * max((len(w) for w in s_list), default=1))
    # transitions of this call: (suffix, trunc, s) -> _tree_step(...)
    step: dict = {}
    states: dict = {}
    a = {}
    eroded_any = False
    for w in s_list:
        st = (w, _EXACT) if len(w) <= cap else (w[-cap:], _TRUNC)
        v = sum(weights[abs(x) - 1] for x in w)
        if states.get(st, -1) < v:
            states[st] = v
    a[1] = max(states.values())
    sw_weight = [sum(weights[abs(x) - 1] for x in sw) for sw in s_list]
    blind_key = ((), _BLIND)
    for n in range(2, n_max + 1):
        nxt: dict = {}
        for (suffix, trunc), val in states.items():
            if trunc == _BLIND:
                nv = val + max(sw_weight)
                if nxt.get(blind_key, -1) < nv:
                    nxt[blind_key] = nv
                continue
            for sw in s_list:
                hit = step.get((suffix, trunc, sw))
                if hit is None:
                    hit = step[suffix, trunc, sw] = _oracle_tree_step(
                        weights, suffix, trunc, sw, cap)
                nsuf, ntr, delta, er = hit
                if er:
                    eroded_any = True
                key = (nsuf, ntr)
                nv = val + delta
                if nxt.get(key, -1) < nv:
                    nxt[key] = nv
        states = nxt
        a[n] = max(states.values())
    a = {n: Fraction(v, den) for n, v in a.items()}
    pair = 0
    for u in s_list:
        for v in s_list:
            cand = _peeled_length(_concat_reduced(u, v),
                                  lambda x: tree_weights[abs(x) - 1])
            if cand > pair:
                pair = cand
    pair_half = exact_div(pair, 2)
    hi = min(exact_div(a[n], n) for n in a)
    lo = min(pair_half, hi)
    bracket = LengthBracket(lo, hi, exact=bool(lo == hi))
    return _OracleProfile(
        bracket=bracket,
        a=a,
        lo_terms={2: pair_half},
        pair_half=pair_half,
        engine="tree-dp",
        eroded=eroded_any,
    )


# ------------------------------------------------------------- comparison


def _heaviest_cyclically_reduced(model, s):
    """Whether a factor of greatest weight in S is cyclically reduced, the
    empty word counting as one: then lambda is that weight, since the
    factor's square is a cyclically reduced product of two factors."""
    s_list = [w.letters for w in _as_words(s) if w.letters] or [()]
    weights = [sum(map(model.weight_of, w)) for w in s_list]
    return any(v == max(weights) and (not w or w[0] != -w[-1])
               for v, w in zip(weights, s_list))


def _assert_bracketed(new, old):
    lam = new.pair_half
    assert new.bracket == LengthBracket(lam, lam, exact=True)
    assert lam == old.pair_half
    assert type(lam) is Fraction
    assert type(new.bracket.lo) is type(new.bracket.hi) is Fraction
    for n, v in old.a.items():
        assert exact_div(v, n) >= lam, (n, v, lam)
    assert new.bracket.hi <= old.bracket.hi
    assert new.bracket.lo == old.bracket.lo
    assert new.a == {}
    assert new.lo_terms == old.lo_terms == {2: lam}
    assert new.engine == old.engine


# int, Fraction, float, ints whose level sums pass 2**62, int mixed with
# Fraction, float mixed with both, and floats whose sums scaled by 2**55
# pass 2**62
_WEIGHTS = {
    "int": st.integers(1, 5),
    "fraction": st.fractions(Fraction(1, 4), 4, max_denominator=6),
    "float": st.floats(0.1, 5.0),
    "big": st.integers(2 ** 59, 2 ** 61),
    "int-fraction": st.sampled_from([1, 2, 3, Fraction(1, 2), Fraction(3, 2),
                                     Fraction(5, 3)]),
    "float-mixed": st.sampled_from([1, 2, Fraction(1, 2), Fraction(3, 2),
                                    0.5, 1.5, 2.0, 0.1, 0.7]),
    "float-big": st.sampled_from([0.1, 5.0]),
}


# a rank of 40 with factors of length 5 (7 once wrapped)
_BIG_RANK = 40


@st.composite
def _cases(draw):
    rank = draw(st.sampled_from([2, 3, _BIG_RANK, 1]))
    kind = draw(st.sampled_from(sorted(_WEIGHTS)))
    model = TreeModel(rank, draw(st.lists(_WEIGHTS[kind], min_size=rank,
                                          max_size=rank)))
    letters = [x for i in range(1, rank + 1) for x in (i, -i)]
    sizes = st.just(5) if rank == _BIG_RANK else st.integers(0, 5)
    s = []
    for _ in range(draw(st.integers(1, 4))):
        w = []  # reduced, of length 0-5, 7 once wrapped
        for _ in range(draw(sizes)):
            w.append(draw(st.sampled_from([x for x in letters if not w or x != -w[-1]])))
        s.append(Word(w))
    if len(s) > 1 and draw(st.booleans()):
        # with w and w^-1 in S, powers of w fill the oracle's suffix and
        # then cancel it away, so its deep levels erode
        s[-1] = s[0].inverse()
    if rank > 1 and draw(st.sampled_from([True, True, True, True, False])):
        # in four cases of five, x w x^-1, with x cancelling neither end of
        # a heaviest factor w, outweighs every factor of S and is not
        # cyclically reduced, so lambda falls below the heaviest weight.
        # Conjugating w and w^-1 by the same x keeps an inverse pair
        # inverse, so the oracle still erodes.  An S of identities gets a
        # letter to wrap
        s_list = [w.letters for w in s]
        weights = [sum(map(model.weight_of, w)) for w in s_list]
        heavy = s_list[weights.index(max(weights))]
        if not heavy:
            heavy = s_list[0] = (draw(st.sampled_from(letters)),)
        x = draw(st.sampled_from([x for x in letters
                                  if x not in (-heavy[0], heavy[-1])]))
        inverse = tuple(-y for y in reversed(heavy))
        s = [Word((x, *w, -x)) if w in (heavy, inverse) else Word(w)
             for w in s_list]
    return model, s, draw(st.integers(2, 12)), kind


@settings(max_examples=250, deadline=None)
@given(_cases())
def test_pair_scan_matches_the_dict_walk(case):
    model, s, n_max, kind = case
    old = _oracle_tree_joint_profile(model, s, n_max)
    side = ("a heaviest factor is cyclically reduced"
            if _heaviest_cyclically_reduced(model, s) else "no heaviest factor "
            "is cyclically reduced")
    event(f"{side}: rank {model.rank}, {kind} weights")
    if old.eroded:
        event("oracle erodes")
    p = tree_joint_profile(model, s)
    _assert_bracketed(p, old)
    # the scan reads unordered pairs; the half-max over ordered pairs is
    # the same value of the same type
    letters = [w.letters for w in s]
    ordered = exact_div(max(model.class_length(_cyclic_core(_concat_reduced(u, v)))
                            for u in letters for v in letters), 2)
    assert p.pair_half == ordered and type(p.pair_half) is type(ordered)


def test_acceptance_triples_match_the_dict_walk():
    tree = TreeModel(2)
    elems = [w for w in enumerate_ball(2, 3) if w.letters]
    for i, j, k in [(0, 1, 2), (3, 17, 40), (5, 29, 51), (8, 9, 33),
                    (12, 30, 47), (20, 21, 22)]:
        s = [elems[i], elems[j], elems[k]]
        _assert_bracketed(tree_joint_profile(tree, s),
                          _oracle_tree_joint_profile(tree, s))


def test_float_weights_scaled_by_2_55_match_the_dict_walk():
    # 0.1 = 3602879701896397 / 2**55 and 5.0 scale to 5 * 2**55; aBA, the
    # heaviest factor, is not cyclically reduced
    tree = TreeModel(2, [0.1, 5.0])
    assert tree._scaled[2] == 5 * 2 ** 55
    s = ["b", "aBA", "Ab"]
    assert not _heaviest_cyclically_reduced(tree, s)
    _assert_bracketed(tree_joint_profile(tree, s),
                      _oracle_tree_joint_profile(tree, s, 12))


def test_int_fraction_tie_is_the_same_fraction_in_either_order():
    # a has weight 1, bb weighs 1/2 + 1/2: every pair ties, and a tree
    # with a Fraction weight gives Fractions whichever factor comes first
    m = TreeModel(2, [1, Fraction(1, 2)])
    for s in (["a", "bb"], ["bb", "a"]):
        _assert_bracketed(tree_joint_profile(m, s),
                          _oracle_tree_joint_profile(m, s, 6))
    a_first = tree_joint_profile(m, ["a", "bb"])
    assert _canon(a_first) == _canon(tree_joint_profile(m, ["bb", "a"]))
    assert a_first.pair_half == 1 and type(a_first.pair_half) is Fraction


# ------------------------------------- a cyclically reduced heaviest factor

# (tree weights, S, whether a factor of greatest weight is cyclically
# reduced); on that side lambda is the greatest weight w_max
_SIDES = [
    (None, ["abA"], False),
    (None, ["abA", "aBA"], False),
    # a weight-3 tie: abA is not cyclically reduced, abb is
    (None, ["abA", "abb"], True),
    # bb weighs 10 and abA 7: the heaviest factor is the shorter one
    ([1, 5], ["bb", "abA"], True),
    ([Fraction(1, 2), Fraction(2, 3)], ["aB", "bab"], True),
    ([Fraction(1, 2), Fraction(2, 3)], ["ab", "bAB"], False),
    (None, [""], True),
    (None, ["", "a"], True),
    # powers of a fill and truncate the oracle's suffix, and the inverse
    # factor cancels it to the empty truncated suffix, out of which the
    # oracle erodes
    (None, ["a", "AAA"], True),
    (None, ["a", "AA"], True),
    (None, ["aa", "AA"], True),
]


@pytest.mark.parametrize("weights,s,proven", _SIDES)
@pytest.mark.parametrize("n_max", [2, 12])
def test_both_sides_of_the_rule_match_the_dict_walk(weights, s, proven, n_max):
    tree = TreeModel(2, weights)
    assert _heaviest_cyclically_reduced(tree, s) is proven
    p = tree_joint_profile(tree, s)
    _assert_bracketed(p, _oracle_tree_joint_profile(tree, s, n_max))
    w_max = max(sum(map(tree.weight_of, w.letters)) for w in _as_words(s))
    assert p.pair_half <= w_max
    if proven:
        assert p.pair_half == w_max
