"""The tree-dp level walk against the per-level dict walk it descends from.

``jsl.tree_joint_profile`` reads the levels off S when a factor of greatest
weight is cyclically reduced.  Otherwise ``jsl._tree_walk`` runs them as
dicts of packed-int (suffix, trunc) states in the tree's weights scaled to
ints, each state's out-edges worked out once per call.  The oracle below is
the engine they replaced, kept verbatim: every level a dict of states,
every state stepped through every factor of S, in the arithmetic of the
tree's weights.  Every value must agree, except that where S fixes the
levels nothing is walked: ``eroded`` is False and ``states`` None.  The
number types follow the rule of trees instead of the oracle's walk: level
maxima are ints on a tree whose weights are all ints and Fractions on any
other, whole ones included, and every bracket end is a Fraction.
"""

from fractions import Fraction

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from lenspec import jsl
from lenspec.actions import LengthBracket, exact_div
from lenspec.jsl import JointLengthProfile, tree_joint_profile
from lenspec.spaces import TreeModel
from lenspec.words import Word, _as_words, _concat_reduced, enumerate_ball
from test_window_oracle import _canon

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


def _oracle_tree_joint_profile(model: TreeModel, s, n_max: int = 12) -> JointLengthProfile:
    """Joint stable length on a tree via a bounded-suffix automaton.

    Cancellation against a single factor never looks deeper than the factor
    length, so transitions on the last few letters are exact; when repeated
    cancellation erodes past the retained suffix the sequence switches to a
    blind state that stops cancelling altogether.  Level maxima are then
    certified upper bounds for the true maxima (exact when nothing eroded,
    as reported by ``eroded``), so the hi side of the bracket stays sound.
    The lo side is the exact half-max stable length over S^2.
    """
    words = _as_words(s)
    s_list = [w.letters for w in words]
    if any(not w for w in s_list):
        s_list = [w for w in s_list if w] or [()]
    weights = tuple(model.weights)
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
    pair = 0
    for u in s_list:
        for v in s_list:
            cand = _peeled_length(_concat_reduced(u, v), model.weight_of)
            if cand > pair:
                pair = cand
    pair_half = exact_div(pair, 2)
    hi = min(exact_div(a[n], n) for n in a)
    lo = min(pair_half, hi)
    bracket = LengthBracket(lo, hi, exact=bool(lo == hi))
    return JointLengthProfile(
        bracket=bracket,
        a=a,
        lo_terms={2: pair_half},
        pair_half=pair_half,
        engine="tree-dp",
        eroded=eroded_any,
    )


def _oracle_state_count(model, s, n_max):
    """Distinct (suffix, trunc) states the oracle's levels 1..n_max hold."""
    s_list = [w.letters for w in _as_words(s)]
    if any(not w for w in s_list):
        s_list = [w for w in s_list if w] or [()]
    weights = tuple(model.weights)
    cap = max(_SUFFIX_CAP, 2 * max((len(w) for w in s_list), default=1))
    level = {(w, _EXACT) for w in s_list}
    seen = set(level)
    for _ in range(n_max - 1):
        level = {((), _BLIND) if trunc == _BLIND else
                 _oracle_tree_step(weights, suffix, trunc, sw, cap)[:2]
                 for suffix, trunc in level for sw in s_list}
        seen |= level
    return len(seen)


# ------------------------------------------------------------- comparison


def _walks(model, s):
    """Whether no factor of greatest weight in S is cyclically reduced, the
    empty word counting as one: the side of tree_joint_profile that walks."""
    s_list = [w.letters for w in _as_words(s) if w.letters] or [()]
    weights = [sum(map(model.weight_of, w)) for w in s_list]
    return not any(v == max(weights) and (not w or w[0] != -w[-1])
                   for v, w in zip(weights, s_list))


def _assert_same(new, old, model, s):
    want = int if all(type(w) is int for w in model.weights) else Fraction
    assert list(new.a) == list(old.a)
    for n, v in old.a.items():
        assert new.a[n] == v and type(new.a[n]) is want, (n, new.a[n], v)
    assert new.bracket == old.bracket
    assert type(new.bracket.lo) is Fraction
    assert type(new.bracket.hi) is Fraction
    if _walks(model, s):
        assert new.eroded is old.eroded
    else:
        assert new.eroded is False and new.states is None
    assert new.pair_half == old.pair_half
    assert type(new.pair_half) is Fraction
    assert new.lo_terms == old.lo_terms
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


# a rank of 40 with factors of length 5 (7 once wrapped): the automaton's
# suffix codes in base 81 pass 2**63 once a suffix holds 10 letters
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
        w = []  # reduced, of length 0-5, 7 once wrapped: a suffix cap of 6-14
        for _ in range(draw(sizes)):
            w.append(draw(st.sampled_from([x for x in letters if not w or x != -w[-1]])))
        s.append(Word(w))
    if len(s) > 1 and draw(st.booleans()):
        # with w and w^-1 in S, powers of w fill the suffix and then cancel
        # it away, so deep levels erode
        s[-1] = s[0].inverse()
    if rank > 1 and draw(st.sampled_from([True, True, True, True, False])):
        # send four in five cases to the walk (rank 1 never walks): x w x^-1,
        # with x cancelling neither end of a heaviest factor w, outweighs
        # every factor of S and is not cyclically reduced.  Conjugating w
        # and w^-1 by the same x keeps an inverse pair inverse, so S still
        # erodes.  An S of identities gets a letter to wrap
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
def test_compiled_automaton_matches_the_dict_walk(case):
    model, s, n_max, kind = case
    new = tree_joint_profile(model, s, n_max)
    walks = _walks(model, s)
    event(f"{'walk' if walks else 'S fixes the levels'}: rank {model.rank}, "
          f"{kind} weights")
    if walks and new.eroded:
        event("walk erodes")
    _assert_same(new, _oracle_tree_joint_profile(model, s, n_max), model, s)
    if walks:
        assert new.states == _oracle_state_count(model, s, n_max)


def test_acceptance_triples_match_the_dict_walk():
    tree = TreeModel(2)
    elems = [w for w in enumerate_ball(2, 3) if w.letters]
    for i, j, k in [(0, 1, 2), (3, 17, 40), (5, 29, 51), (8, 9, 33),
                    (12, 30, 47), (20, 21, 22)]:
        s = [elems[i], elems[j], elems[k]]
        _assert_same(tree_joint_profile(tree, s),
                     _oracle_tree_joint_profile(tree, s), tree, s)


def test_float_weights_scaled_by_2_55_match_the_dict_walk():
    # 0.1 = 3602879701896397 / 2**55 and 5.0 scale to 5 * 2**55; aBA, the
    # heaviest factor, is not cyclically reduced
    tree = TreeModel(2, [0.1, 5.0])
    assert tree._scaled[2] == 5 * 2 ** 55
    s = ["b", "aBA", "Ab"]
    assert _walks(tree, s)
    p = tree_joint_profile(tree, s, 12)
    _assert_same(p, _oracle_tree_joint_profile(tree, s, 12), tree, s)
    assert p.states == _oracle_state_count(tree, s, 12)


def test_int_fraction_tie_is_the_same_fraction_in_either_order():
    # a has weight 1, bb weighs 1/2 + 1/2: every level ties, and a tree
    # with a Fraction weight gives Fractions whichever factor comes first
    m = TreeModel(2, [1, Fraction(1, 2)])
    for s in (["a", "bb"], ["bb", "a"]):
        new = tree_joint_profile(m, s, 6)
        _assert_same(new, _oracle_tree_joint_profile(m, s, 6), m, s)
    a_first = tree_joint_profile(m, ["a", "bb"], 6).a
    assert _canon(a_first) == _canon(tree_joint_profile(m, ["bb", "a"], 6).a)
    assert a_first[1] == 1 and type(a_first[1]) is Fraction


# ------------------------------------------------------------ regressions


@pytest.mark.parametrize("s", [["a", "AAA"], ["a", "AA"], ["aa", "AA"]])
def test_the_empty_truncated_suffix_erodes_like_the_dict_walk(s):
    # powers of a fill and truncate the suffix; the inverse factor then
    # cancels it to the empty truncated suffix, out of which the next
    # inverse factor erodes with nothing cancelled.  {aa, AA} erodes only
    # there: an erosion test skipped when no letter cancels misses it.
    # On rank 1 every factor is cyclically reduced, so tree_joint_profile
    # never walks; the walk is called directly
    tree = TreeModel(1)
    old = _oracle_tree_joint_profile(tree, s, 12)
    raw, eroded, states = jsl._tree_walk(
        tree._scaled, [w.letters for w in _as_words(s)], 12)
    assert eroded and old.eroded
    assert raw == old.a
    assert states == _oracle_state_count(tree, s, 12)
    p = tree_joint_profile(tree, s, 12)
    _assert_same(p, old, tree, s)
    assert not _walks(tree, s)


def test_suffix_codes_past_int64_match_the_dict_walk():
    # rank 40, so base 81; ten-letter suffixes of letters 36..40 code
    # above 81**9 * 70 > 2**63.  The heaviest factor, 40 39 38 37 -40 of
    # weight 194, is not cyclically reduced, so the levels are walked
    tree = TreeModel(_BIG_RANK, list(range(1, _BIG_RANK + 1)))
    s = [Word([40, 39, 38, 37, -40]), Word([-36, -37, 38, 39, 40]),
         Word([36, 37, 38, 39, 40])]
    assert 81 ** 9 * 70 > 2 ** 63
    assert _walks(tree, s)
    p = tree_joint_profile(tree, s, 12)
    _assert_same(p, _oracle_tree_joint_profile(tree, s, 12), tree, s)
    assert p.states == _oracle_state_count(tree, s, 12)


def test_erosion_out_of_a_state_first_reached_at_n_max_does_not_count():
    # {abA, aBA} on the unit tree first erodes on an edge out of a state
    # first reached at depth 9: at n_max = 9 that state is interned without
    # out-edges, since no level below n_max steps out of it
    tree = TreeModel(2)
    s = ["abA", "aBA"]
    at9 = tree_joint_profile(tree, s, 9)
    at10 = tree_joint_profile(tree, s, 10)
    assert not at9.eroded
    assert at10.eroded
    _assert_same(at9, _oracle_tree_joint_profile(tree, s, 9), tree, s)
    _assert_same(at10, _oracle_tree_joint_profile(tree, s, 10), tree, s)


def test_states_counts_the_interned_automaton():
    tree = TreeModel(2)
    # S = {a, b} is read off S, so the walk is called directly: every
    # positive word of length <= 6 exactly, then its 64 six-letter
    # suffixes truncated: 126 + 64, reached by level 7
    assert jsl._tree_walk(tree._scaled, [(1,), (2,)], 12)[2] == 190
    assert jsl._tree_walk(tree._scaled, [(1,), (2,)], 6)[2] == 126
    assert tree_joint_profile(tree, ["a", "b"], 12).states is None
    s = ["abA", "aBA", "ab"]
    p = tree_joint_profile(tree, s, 12)
    assert p.states == _oracle_state_count(tree, s, 12) == 377


# ------------------------------------------- S alone fixes the level maxima

# (tree weights, S, whether a factor of greatest weight is cyclically
# reduced); on that side a[n] = n * w_max and the pair maximum is 2 * w_max
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
]


@pytest.mark.parametrize("weights,s,proven", _SIDES)
@pytest.mark.parametrize("n_max", [2, 12])
def test_both_sides_of_the_rule_match_the_dict_walk(weights, s, proven, n_max):
    tree = TreeModel(2, weights)
    assert _walks(tree, s) is not proven
    p = tree_joint_profile(tree, s, n_max)
    _assert_same(p, _oracle_tree_joint_profile(tree, s, n_max), tree, s)
    if not proven:
        assert p.states == _oracle_state_count(tree, s, n_max)


class _Ran(Exception):
    pass


def _boom(*args):
    raise _Ran


def test_a_cyclically_reduced_heaviest_factor_skips_the_walk(monkeypatch):
    # with the level walk and the tree's class lengths made to raise, the
    # proven side builds no automaton and still gives the dict walk's
    # profile; the other side reaches the walk
    monkeypatch.setattr(jsl, "_tree_walk", _boom)
    for weights, s, proven in _SIDES:
        tree = TreeModel(2, weights)
        if proven:
            monkeypatch.setattr(tree, "class_length", _boom)
            p = tree_joint_profile(tree, s)
            _assert_same(p, _oracle_tree_joint_profile(tree, s), tree, s)
            assert p.eroded is False and p.states is None
        else:
            with pytest.raises(_Ran):
                tree_joint_profile(tree, s)
