"""Joint stable lengths, the pair sandwich, and spectral radii.

Frozen oracles: for S = {abA, aBA} on the unit tree the level maxima are
a_n = n + 2 (alternating seams cancel one letter per factor), so products
give the bracket [1, 5/4] at n_max = 8; the pair maximum is l[abA abA] = 2,
and tree-dp gives the exact joint length [1, 1].
"""

import functools
import importlib
import itertools
import json
import math
import pkgutil
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracle
import lenspec
from lenspec import actions, cli, jsl
from lenspec.actions import ActionModel, LengthBracket, exact_div
from lenspec.cli import load_scenario, parse_scenario, run
from lenspec.errors import InputError, NumericError, ResourceCapError
from lenspec.jsl import (
    BochiConstants,
    bf_lower_check,
    bochi_rhs,
    _matrix_levels,
    _pair_sup_bracket,
    joint_stable_profile,
    jsr_profile,
    tree_joint_profile,
)
from lenspec.spaces import (LinearRepModel, TreeModel, WordMetricModel,
                            _batch_lambda1, _batch_svals, _lambda1,
                            _sv_pair_2x2, build_schottky)

SCEN_DIR = Path(__file__).resolve().parents[1] / "src" / "lenspec" / "scenarios"
from lenspec.words import (ConjClass, GeneratingSet, Word, _concat_reduced,
                           _cyclic_core)


def random_subset(rng, size, max_len=4):
    out = set()
    while len(out) < size:
        ln = rng.randint(1, max_len)
        w = Word([rng.choice([1, -1, 2, -2]) for _ in range(ln)])
        if w:
            out.add(w)
    return sorted(out, key=lambda w: (len(w), w.letters))


# ------------------------------------------------------------ tree engine


def test_standard_pair_is_exact():
    p = tree_joint_profile(TreeModel(2), ["a", "b"])
    assert p.bracket.exact
    assert p.bracket.lo == 1


def test_cancelling_subset_oracle():
    p = tree_joint_profile(TreeModel(2), ["abA", "aBA"])
    assert p.pair_half == 1
    assert p.bracket.lo == 1
    assert p.bracket.hi == 1
    assert p.bracket.exact


def test_weighted_tree_profile_stays_exact():
    m = TreeModel(2, [Fraction(1, 2), 3])
    p = tree_joint_profile(m, ["a", "b"])
    # all-b products dominate
    assert p.bracket == LengthBracket(Fraction(3), Fraction(3), exact=True)


def test_tree_dp_matches_product_enumeration():
    rng = random.Random(19)
    for trial in range(12):
        s = random_subset(rng, rng.randint(2, 3))
        m = TreeModel(2, [1, rng.choice([1, 2, Fraction(3, 2)])])
        dp = tree_joint_profile(m, s)
        exact = joint_stable_profile(m, s, n_max=6, engine="products")
        for n, v in exact.a.items():
            assert exact_div(v, n) >= dp.bracket.hi
        assert dp.pair_half == exact.pair_half


def test_auto_engine_is_one_per_model_kind():
    # a tree metric takes the exact S^2 scan whatever |S|^n_max is, any
    # other word model the products levels, a matrix model jsr_profile
    s = ["a", "A", "b", "B"]
    exact = LengthBracket(1, 1, exact=True)
    for model in (TreeModel(2), WordMetricModel(GeneratingSet.standard(2))):
        for n_max in (4, 12):
            p = joint_stable_profile(model, s, n_max=n_max, frontier_cap=1000)
            assert (p.engine, p.bracket, p.a) == ("tree-dp", exact, {})
    weighted = WordMetricModel(GeneratingSet.standard(2, [Fraction(1, 2), 3]))
    assert joint_stable_profile(weighted, s, 4).bracket == tree_joint_profile(
        TreeModel(2, [Fraction(1, 2), 3]), s).bracket
    nonstandard = WordMetricModel(GeneratingSet(2, ["a", "A", "b", "B", "ab"]))
    assert joint_stable_profile(nonstandard, ["a", "b"], 3).engine == "products"
    assert joint_stable_profile(SCHOTTKY.linear, ["a", "b"], 3).engine == "matrix"


def test_bf_check_on_a_tree_metric_is_exact():
    # the S^2 scan gives the joint length exactly, so the sandwich closes
    # with K = 0; the products levels at n_max 10 stop at [1, 6/5]
    exact = LengthBracket(1, 1, exact=True)
    for model in (TreeModel(2), WordMetricModel(GeneratingSet.standard(2))):
        chk = bf_lower_check(model, ["abA", "aBA"], n_max=10)
        assert chk.joint == exact
        assert chk.minimal_K == 0 and chk.minimal_K_lower == 0


class _DoubledTree(TreeModel):
    """A tree whose displacements and class lengths are read twice over."""

    def displacement(self, g):
        return 2 * super().displacement(g)

    def class_length(self, letters):
        return 2 * super().class_length(letters)


def test_auto_reads_a_tree_subclass_through_its_overrides():
    # |S|^n_max = 4096 passes the cap, yet the levels of {a, A} stay small:
    # the subclass is read by products, through its own methods
    p = joint_stable_profile(_DoubledTree(2), ["a", "A"], 12, frontier_cap=1000)
    assert p.engine == "products"
    assert p.bracket == LengthBracket(2, 2, exact=True)
    assert p.a == {n: 2 * n for n in range(1, 13)}


def test_identity_element_is_tolerated():
    p = tree_joint_profile(TreeModel(2), ["", "a"])
    assert p.bracket == LengthBracket(1, 1, exact=True)


# what a factor of S is made from: drawn words w and x as they are, the
# identity, w^-1, x w x^-1, or w^-1 x, whose seam with w eats w whole when
# w and x share no first letter
_FACTOR_OPS = (
    lambda w, x: w,
    lambda w, x: Word(),
    lambda w, x: w.inverse(),
    lambda w, x: x * w * x.inverse(),
    lambda w, x: w.inverse() * x,
)


# trees of ranks 1, 2, 3 and 40 whose letters alternate two weights: ints,
# Fractions, floats, ~2**60 (sums past 2**63) and mixes
_TREES = [TreeModel(rank, [pair[i % 2] for i in range(rank)])
          for rank in (1, 2, 3, 40)
          for pair in ((1, 1), (2, 3), (5, 1), (Fraction(1, 3), Fraction(1, 3)),
                       (Fraction(2, 7), Fraction(5, 4)), (3, Fraction(1, 2)),
                       (0.1, 0.1), (0.1, 0.2), (2.5, 0.3), (2**60, 2**60),
                       (2**60 + 1, 2**60 - 3), (0.1, 2**60))]


def _digits(code, base, n):
    """The n lowest base-``base`` digits of code, lowest first."""
    return [code // base**k % base for k in range(n)]


def _tree_case(model, shape, words_code, ops_code):
    """S over the letters a, A, b, B and the rank's letter and its inverse
    (capped at the rank), decoded from ints.  ``shape`` gives the number of
    words (1-3), of made factors (0-3) and S's order as a permutation
    index; each base-6**6 digit of ``words_code`` a word of length d_0 < 6
    with letter slots d_1.. (base 6); each base-45 digit of ``ops_code`` a
    factor, its ``_FACTOR_OPS`` entry and the indices of w and x."""
    rank = model.rank
    slots = [sign * min(g, rank) for g in (1, 2, rank) for sign in (1, -1)]
    words = []
    for code in _digits(words_code, 6**6, 1 + shape % 3):
        length, *letters = _digits(code, 6, 6)
        words.append(Word([slots[x] for x in letters[:length]]))
    s = words + [_FACTOR_OPS[code % 5](words[code // 5 % 3 % len(words)],
                                       words[code // 15 % len(words)])
                 for code in _digits(ops_code, 45, shape // 3 % 4)]
    order = shape // 12
    out = []
    for n in range(len(s), 0, -1):
        out.append(s.pop(order % n))
        order //= n
    return model, out


# four draws an example: a list's length costs a choice per element, and
# 1,000 examples must stay well under 2 s
_TREE_CASES = st.builds(
    _tree_case, st.sampled_from(_TREES), st.integers(0, 12 * 720 - 1),
    st.integers(0, 6**18 - 1), st.integers(0, 45**3 - 1))


@settings(max_examples=1000, deadline=None)
@example((TreeModel(2), [Word("A"), Word(), Word("Aba")]))
@example((TreeModel(1), [Word("a"), Word("AAA")]))
@given(_TREE_CASES)
def test_pair_scan_is_half_the_largest_product_core_length(case):
    # the scan builds no product; the oracle builds every ordered one
    model, s = case
    want = exact_div(max(_oracle.class_length(model.weights, _cyclic_core(
        _concat_reduced(u.letters, v.letters))) for u in s for v in s), 2)
    got = tree_joint_profile(model, s).pair_half
    assert (type(got), got) == (type(want), want)


# ------------------------------------------------------------ word engine


def test_word_engine_on_word_metric_agrees_with_tree():
    gens = GeneratingSet.standard(2)
    wm = WordMetricModel(gens)
    tree = TreeModel(2)
    s = ["ab", "Ba"]
    pw = joint_stable_profile(wm, s, n_max=6, engine="products")
    pt = joint_stable_profile(tree, s, n_max=6, engine="products")
    assert pw.a == pt.a
    assert pw.bracket.lo == pt.bracket.lo
    assert pw.bracket.hi == pt.bracket.hi


def test_word_engine_resource_cap():
    with pytest.raises(ResourceCapError):
        joint_stable_profile(
            TreeModel(2), ["a", "A", "b", "B"], n_max=6,
            frontier_cap=10, engine="products",
        )


def test_word_engine_prices_an_exhausted_search_at_its_spelling_cost():
    # bbbbbb costs 12 spelt letter by letter, but the search for it reaches
    # 200,000 elements first; the engine takes the certified upper bound
    model = WordMetricModel(GeneratingSet(2, ["a", "A", "b", "B", "ab"],
                                          [1, 1, 2, 2, 1]))
    p = joint_stable_profile(model, ["bbb"], 2, engine="products")
    assert p.a == {1: 6, 2: 12}
    assert p.bracket.hi == 6 and p.bracket.certified


def test_word_engine_reads_a_levels_search_caps_in_one_batch(monkeypatch):
    # a level's rows take their search caps, cost_upper, from one k = 1
    # bulk call and its cores their lo from one more: no row reads
    # cost_upper alone
    model = WordMetricModel(GeneratingSet(2, ["a", "A", "b", "B", "ab"],
                                          [1, 1, 2, 2, 1]))
    want = joint_stable_profile(model, ["bbb", "a"], 2, engine="products")
    calls = []
    bulk = WordMetricModel.class_brackets

    def counted(self, codes, k_max):
        calls.append((len(codes), k_max))
        return bulk(self, codes, k_max)

    def alone(self, g):
        raise AssertionError(f"cost_upper of {g} read alone")

    monkeypatch.setattr(WordMetricModel, "class_brackets", counted)
    monkeypatch.setattr(WordMetricModel, "cost_upper", alone)
    got = joint_stable_profile(model, ["bbb", "a"], 2, engine="products")
    assert (got.a, got.lo_terms, got.bracket) == (want.a, want.lo_terms, want.bracket)
    assert got.a == {1: 6, 2: 12}
    # levels {bbb, a} and {bbbbbb, bbba, abbb, aa}: rows, then cores
    assert calls == [(2, 1), (2, 1), (4, 1), (4, 1)]


def test_n_max_validation():
    with pytest.raises(InputError):
        joint_stable_profile(TreeModel(2), ["a"], n_max=1)
    with pytest.raises(InputError, match="tree-dp engine needs a TreeModel"):
        joint_stable_profile(
            WordMetricModel(GeneratingSet(2, ["a", "A", "b", "B", "ab"])),
            ["a"], n_max=4, engine="tree-dp")
    for model in (TreeModel(2), WordMetricModel(GeneratingSet.standard(2))):
        assert joint_stable_profile(model, ["a"], 4, engine="tree-dp").engine == "tree-dp"
    with pytest.raises(InputError, match="unknown joint-length engine 'treedp'"):
        joint_stable_profile(TreeModel(2), ["a"], n_max=4, engine="treedp")


def test_subset_validation():
    with pytest.raises(InputError, match="subset must be nonempty"):
        joint_stable_profile(TreeModel(2), [], 4)
    with pytest.raises(InputError, match="subset must be nonempty"):
        bf_lower_check(TreeModel(2), [])
    for model in (TreeModel(2), SCHOTTKY.linear):
        with pytest.raises(InputError, match="S uses letters beyond rank 2"):
            bf_lower_check(model, ["ab", "c"])
    for engine in ("auto", "products", "tree-dp"):
        with pytest.raises(InputError, match="S uses letters beyond rank 2"):
            joint_stable_profile(TreeModel(2), ["c"], 2, engine=engine)
    # the tree scan's own checks, on a tree and on a standard word metric
    for model, engine in ((TreeModel(2), "tree-dp"),
                          (WordMetricModel(GeneratingSet.standard(2)), "auto")):
        with pytest.raises(InputError, match="^subset must be nonempty$"):
            joint_stable_profile(model, [], 4, engine=engine)
        for bad in (["c"], ["ab", "", "bC"]):
            with pytest.raises(InputError, match="^S uses letters beyond rank 2$"):
                joint_stable_profile(model, bad, 4, engine=engine)
    prof = joint_stable_profile(TreeModel(2), ["a", "bA"], 4, engine="products")
    assert prof.bracket == joint_stable_profile(
        TreeModel(2), [Word("a"), Word("bA")], 4, engine="products").bracket


def test_float_weight_joint_length_is_exact_on_both_engines():
    # the joint length of {a, bb} under [0.1, 0.2] is that of bb, twice
    # the Fraction 0.2 equals; summed as floats its exact bracket lay below
    tree = TreeModel(2, [0.1, 0.2])
    dp = joint_stable_profile(tree, ["a", "bb"], 6, engine="tree-dp")
    products = joint_stable_profile(tree, ["a", "bb"], 6, engine="products")
    assert dp.bracket.hi >= 2 * Fraction(0.2)
    assert dp.bracket == products.bracket == LengthBracket(
        2 * Fraction(0.2), 2 * Fraction(0.2), exact=True)
    for p in (dp, products):
        assert type(p.bracket.lo) is type(p.bracket.hi) is Fraction
    assert all(type(v) is Fraction for v in products.a.values())


# ---------------------------------------------------------- matrix engine


def test_schottky_generators_joint_length():
    act = build_schottky(4.0, [0.0, 1.2])
    b = joint_stable_profile(act.mobius, ["a", "b"], n_max=6).bracket
    # powers of a single generator dominate: the joint length is 2 log 4
    assert b.lo == pytest.approx(2 * math.log(4), abs=1e-9)
    assert b.hi == pytest.approx(2.7725887222397807, abs=1e-6)


def test_matrix_engine_displacements_match_model():
    act = build_schottky(4.0, [0.0, 1.2])
    m = act.mobius
    s = [Word("a"), Word("bA")]
    p = joint_stable_profile(m, s, n_max=3)
    # level 1 maximum is just the largest displacement
    assert p.a[1] == pytest.approx(max(m.displacement(w) for w in s), abs=1e-9)
    best2 = max(
        m.displacement(u * v) for u in s for v in s
    )
    assert p.a[2] == pytest.approx(best2, abs=1e-9)


@pytest.mark.parametrize("subset", [["a", "b"], ["a", "b", "A", "B"],
                                    ["ab", "B"]], ids=str)
def test_linear_engine_matches_jsr_profile(subset):
    # on a linear model the joint length is the log joint spectral radius
    lin = build_schottky(4.0, [0.0, 1.2]).linear
    got = joint_stable_profile(lin, subset, 6).bracket
    want = jsr_profile([lin.matrix(Word(s)) for s in subset], 6).bracket
    assert got.lo == pytest.approx(want.lo, rel=1e-12)
    assert got.hi == pytest.approx(want.hi, rel=1e-12)


def test_three_by_three_engines_match_brute_force():
    # sigma_1 and spectral radius maxima over S^n, product by product
    rs = np.random.default_rng(5)
    lin = LinearRepModel([rs.standard_normal((3, 3)) for _ in range(2)])
    s = ["a", "b", "aB"]
    mats = [lin.matrix(Word(w)) for w in s]
    jsr = jsr_profile(mats, 4)
    prof = joint_stable_profile(lin, s, 4)
    assert prof.engine == "matrix"
    for n in range(1, 5):
        prods = [functools.reduce(np.matmul, t)
                 for t in itertools.product(mats, repeat=n)]
        sig = math.log(max(np.linalg.svd(p, compute_uv=False)[0] for p in prods))
        rho = math.log(max(np.abs(np.linalg.eigvals(p)).max() for p in prods))
        assert jsr.sigma_terms[n] == pytest.approx(sig / n, rel=1e-9)
        assert jsr.lambda_terms[n] == pytest.approx(rho / n, rel=1e-9)
        assert prof.a[n] == pytest.approx(max(sig, 0.0), rel=1e-9)
        assert prof.lo_terms[n] == pytest.approx(max(rho, 0.0) / n, rel=1e-9)


def test_matrix_engine_cap_raises():
    act = build_schottky(4.0, [0.0, 1.2])
    with pytest.raises(ResourceCapError):
        joint_stable_profile(act.mobius, ["a", "A", "b", "B"], n_max=12,
                             frontier_cap=100)


# ------------------------------------------------------------ pair bounds


def test_bf_check_on_standard_pair():
    chk = bf_lower_check(TreeModel(2), ["a", "b"])
    assert chk.ok
    assert chk.pair_half.lo == 1
    assert chk.joint.lo == 1
    assert chk.minimal_K == 0
    assert chk.minimal_K_lower == 0


def test_bf_check_reads_an_exact_tie_past_float_precision():
    # the pair half and the joint length are both w, which no float holds:
    # joint.hi + tol rounds to the float 1e17 < w, which read ok False
    w = 10 ** 17 + 1
    chk = bf_lower_check(TreeModel(2, [w, 1]), ["a"], n_max=4)
    assert chk.pair_half.lo == chk.joint.hi == w
    assert chk.ok


def test_bf_check_bracket_too_loose_for_certification():
    # delta = 0 and joint.hi > pair_half.lo: no finite K is certified,
    # but nothing refutes K = 0 either
    chk = bf_lower_check(TreeModel(2), ["abA", "aBA"], engine="products")
    assert chk.joint == LengthBracket(1, Fraction(5, 4))
    assert chk.ok
    assert chk.minimal_K == math.inf
    assert chk.minimal_K_lower == 0


def test_bf_check_on_schottky():
    act = build_schottky(4.0, [0.0, 1.2])
    chk = bf_lower_check(act.mobius, ["a", "b"], n_max=6)
    assert chk.ok
    assert chk.delta == pytest.approx(math.log(2))
    assert 0 <= chk.minimal_K < 0.01
    assert chk.upper_value == pytest.approx(
        chk.K * chk.delta + chk.pair_half.hi
    )


def test_bf_decides_its_verdict_once(monkeypatch):
    # bf-tree's one verdict_of call is BfCheck's: the run reads its verdict,
    # and the report carries ok but no verdict key
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return actions.verdict_of(*args, **kwargs)

    monkeypatch.setattr(jsl, "verdict_of", counting)
    monkeypatch.setattr(cli, "verdict_of", counting)
    rep = run(load_scenario(SCEN_DIR / "bf-tree.json"))
    (entry,) = rep.entries
    assert len(calls) == 1
    assert entry["verdict"] == "holds" and entry["reports"][0]["ok"] is True
    assert "verdict" not in entry["reports"][0]


def test_bf_upper_and_minimal_K_helpers():
    chk = bf_lower_check(TreeModel(2), ["a", "b"], K=3)
    assert chk.upper_value == 1  # delta 0: just the half pair
    assert chk.minimal_K == 0


# S^2 holds (ba)(ba) = baba, whose canonical rep is its rotation abab
PAIR_S = [Word("ba"), Word("b"), Word("aB")]
SCHOTTKY = build_schottky(4.0, [0.0, 1.2])
SHORTCUT_3 = GeneratingSet(2, ["a", "A", "b", "B", "ab"], [3, 3, 3, 3, 1])


def _pair_lengths(model, s):
    """(lo, hi) of every class of S^2, read alone on its canonical rep by
    the oracle's per-class forms, at k_max 8."""
    return [_oracle.class_bracket(model, ConjClass.of(u * v).rep.letters, 8)
            for u in s for v in s]


@pytest.mark.parametrize("model,want", [
    (TreeModel(2, [1, 3]), (4, 4)),
    (TreeModel(2, [1, Fraction(3, 2)]), (Fraction(5, 2), Fraction(5, 2))),
    (WordMetricModel(GeneratingSet.standard(2, [2, 1])), (3, 3)),
    (WordMetricModel(SHORTCUT_3), (1, 6)),
    (SCHOTTKY.mobius, None),
    (SCHOTTKY.linear, None),
], ids=["tree-int", "tree-fraction", "word-metric-standard",
        "word-metric-shortcut", "mobius", "linear-2x2"])
def test_pair_half_is_half_the_largest_pair_class_length(model, want):
    half = bf_lower_check(model, PAIR_S, n_max=3).pair_half
    lengths = _pair_lengths(model, PAIR_S)
    lo, hi = max(b[0] for b in lengths), max(b[1] for b in lengths)
    assert (half.lo, half.hi) == (exact_div(lo, 2), exact_div(hi, 2))
    assert half.exact == (half.lo == half.hi)
    # exact models halve into Fractions, matrix models into floats
    kind = float if want is None else Fraction
    assert type(half.lo) is kind and type(half.hi) is kind
    if want is not None:
        assert (half.lo, half.hi) == want


def test_pair_half_reads_the_canonical_rotation():
    wm = WordMetricModel(SHORTCUT_3)
    # as written, (baba)^k is spelt b (ab)^(2k-1) a at cost 2k + 5, so
    # k <= 8 gives 21/8; its rotation abab is spelt (ab)(ab) at cost 2
    assert wm.class_length_bracket(Word("baba").letters, 8)[1] == Fraction(21, 8)
    assert wm.class_length_bracket(Word("abab").letters, 8)[1] == 2
    assert ConjClass.of(Word("baba")).rep == Word("abab")
    assert bf_lower_check(wm, [Word("ba")], n_max=3).pair_half.hi == 1


def test_pair_half_reads_each_unordered_pair_once(monkeypatch):
    # uv and vu are conjugate: 10 unordered pairs of 4 elements, not 16
    wm = WordMetricModel(GeneratingSet(2, ["a", "A", "b", "B", "ab", "BA"]))
    s = [Word(w) for w in ("a", "b", "ab", "aB")]
    lengths = _pair_lengths(wm, s)
    reads = []
    real = wm.class_brackets

    def counting(codes, k_max):
        reads.append(codes.reps)
        return real(codes, k_max)

    # one batch of the 10 pair reps, each handed to the bulk form once
    monkeypatch.setattr(wm, "class_brackets", counting)
    pair = _pair_sup_bracket(wm, s)
    assert len(reads) == 1 and len(reads[0]) == 10 and len(set(reads[0])) == 10
    lo, hi = max(b[0] for b in lengths), max(b[1] for b in lengths)
    assert (pair.lo, pair.hi) == (lo, hi) == (2, 4)


class _DisplacementOnly(ActionModel):
    rank = 2

    def displacement(self, g):
        return len(g.letters)


def test_pair_half_needs_a_class_length():
    with pytest.raises(InputError, match="_DisplacementOnly has neither "
                       "class_length nor class_length_bracket"):
        bf_lower_check(_DisplacementOnly(), [Word("ab")], n_max=3)


# -------------------------------------------------------------------- jsr


def test_jsr_single_diagonal_is_exact():
    b = jsr_profile([np.diag([2.0, 0.5])]).bracket
    assert b.lo == pytest.approx(math.log(2), abs=1e-12)
    assert b.hi == pytest.approx(math.log(2), abs=1e-12)


def test_jsr_rotation_is_zero():
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    b = jsr_profile([rot], n_max=4).bracket
    assert b.lo == pytest.approx(0.0, abs=1e-12)
    assert b.hi == pytest.approx(0.0, abs=1e-12)


def test_jsr_pair_with_rotation():
    mats = [np.diag([2.0, 0.5]), np.array([[0.0, -1.0], [1.0, 0.0]])]
    b = jsr_profile(mats, n_max=8).bracket
    assert b.contains(math.log(2), tol=1e-9)
    assert b.hi == pytest.approx(math.log(2), abs=1e-9)


def test_jsr_profile_terms_are_monotone_evidence():
    mats = [np.diag([3.0, 1 / 3.0]), np.array([[1.0, 1.0], [0.0, 1.0]])]
    p = jsr_profile(mats, n_max=6)
    assert max(p.lambda_terms.values()) <= min(p.sigma_terms.values()) + 1e-9
    assert p.bracket.lo <= p.bracket.hi


def test_jsr_cap_raises():
    mats = [np.diag([2.0, 0.5]), np.array([[0.0, -1.0], [1.0, 0.0]]),
            np.array([[1.0, 1.0], [0.0, 1.0]])]
    with pytest.raises(ResourceCapError):
        jsr_profile(mats, n_max=12, cap=50)


def test_jsr_overflow_resistance():
    # stretch 1e8: naive products overflow float64 by level 5
    b = jsr_profile([np.diag([1e8, 1e-8])], n_max=8).bracket
    assert b.lo == pytest.approx(8 * math.log(10), rel=1e-12)


@pytest.mark.parametrize("m,count,complex_", [
    (2, 2, False), (2, 3, False), (2, 2, True), (2, 3, True),
    (3, 2, False), (3, 3, False), (3, 2, True)])
def test_matrix_levels_match_the_stacked_matmul(m, count, complex_):
    # one matmul per generator over the flattened rows, written into its
    # block of the level, gives the products of the stacked matmul
    # (_oracle.stacked_levels) bit for bit, in the same order, and the
    # max |entry| of a real level from its two ends the same scale
    rng = np.random.default_rng(26 + 10 * m + count)
    mats = [rng.standard_normal((m, m))
            + (1j * rng.standard_normal((m, m)) if complex_ else 0)
            for _ in range(count)]
    got = list(_matrix_levels(mats, 8, 2_000_000))
    assert len(got) == 8
    for (n, batch, log_scale), (want_n, want, want_scale) in zip(
            got, _oracle.stacked_levels(mats, 8)):
        assert n == want_n and batch.shape == (count ** n, m, m)
        assert batch.dtype == want.dtype
        np.testing.assert_array_equal(batch, want)
        assert log_scale == want_scale


@pytest.mark.parametrize("gen,entry", [(0, 0), (1, 3), (2, 1)])
def test_matrix_levels_reject_a_nan_beside_larger_entries(gen, entry):
    # a NaN raises wherever it sits, though finite entries of its level
    # are larger and smaller: Python's max(finite, nan) would drop it
    mats = [np.array([[5.0, -7.0], [0.0, 1.0]]) for _ in range(3)]
    mats[gen].flat[entry] = math.nan
    with pytest.raises(NumericError, match="non-finite matrix entries"):
        list(_matrix_levels(mats, 3, 2_000_000))


@pytest.mark.parametrize("v", [3, Fraction(7, 2)])
def test_length_bracket_of_one_exact_value(v):
    b = LengthBracket(v, v, exact=True)
    assert b.lo is v and b.hi is v and b.exact and b.width == 0


def test_length_bracket_checks_distinct_ends():
    b = LengthBracket(Fraction(7, 2), Fraction(14, 4), exact=True)
    assert b.lo == b.hi == Fraction(7, 2)
    nan = float("nan")
    with pytest.raises(InputError, match="exact bracket must have lo == hi"):
        LengthBracket(nan, nan, exact=True)


# ------------------------------------------------------------------ bochi


def test_bochi_constants():
    c2 = BochiConstants.for_dim(2)
    assert c2.c_m == pytest.approx(13 * math.log(2))
    assert c2.d_m == 16
    c3 = BochiConstants.for_dim(3)
    assert c3.c_m == pytest.approx(8 * math.log(2) + 5 * math.log(3))
    assert c3.d_m == 54
    with pytest.raises(InputError):
        BochiConstants.for_dim(0)


def test_bochi_bound_dominates_jsr():
    rng = np.random.default_rng(123)
    for _ in range(30):
        mats = []
        for _ in range(2):
            while True:
                a = rng.normal(size=(2, 2))
                if abs(np.linalg.det(a)) > 1e-12:
                    break
            mats.append(a / abs(np.linalg.det(a)) ** 0.5)
        rhs = bochi_rhs(mats)
        assert not rhs.partial
        assert rhs.j_used == 16
        jsr = jsr_profile(mats, n_max=8).bracket
        assert jsr.hi <= rhs.value + 1e-9


def test_bochi_partial_flag():
    mats = [np.diag([2.0, 0.5]), np.array([[0.0, -1.0], [1.0, 0.0]])]
    capped = bochi_rhs(mats, cap=100)
    assert capped.partial
    assert capped.j_used == 6


# ------------------------------------------------------ no retained state


def _module_container_sizes():
    sizes = {}
    for info in pkgutil.iter_modules(lenspec.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"lenspec.{info.name}")
        for name, value in vars(mod).items():
            if isinstance(value, (dict, list, set)):
                sizes[info.name, name] = len(value)
    return sizes


def test_engines_leave_module_state_unchanged():
    before = _module_container_sizes()
    m = TreeModel(2, [5, 7])
    tree_joint_profile(m, ["abA", "aBA"])
    tree_joint_profile(m, ["ab", "bA", "aab"])
    joint_stable_profile(m, ["a", "bA"], n_max=4, engine="products")
    # a whole run: class walks, lengths, tables and the subset word metric
    # live on the run and its tables dict, never in a module
    scen = SCEN_DIR / "tree-pair.json"
    assert run(load_scenario(scen), with_classes=True).verdict == "holds"
    assert _module_container_sizes() == before


def test_tree_profile_does_not_depend_on_earlier_calls():
    # the bracket of S = {abA, aBA} is the same before and after a call on
    # a larger S that holds it
    m = TreeModel(2, [2, 3])
    first = tree_joint_profile(m, ["abA", "aBA"])
    assert tree_joint_profile(m, ["abbA", "abA", "aBA"]).bracket.exact
    p = tree_joint_profile(m, ["abA", "aBA"])
    assert p.bracket == first.bracket == LengthBracket(3, 3, exact=True)


def _complex_lambda1_of(batch):
    """lambda_1 of each 2x2 matrix of ``batch`` by the scalar ``_lambda1``,
    its entries, trace and determinant Python complex numbers, as
    ``_oracle.class_lambda1`` forms them."""
    return np.array([_lambda1(a + d, a * d - b * c)
                     for (a, b), (c, d) in batch.astype(np.complex128).tolist()])


def _sv_pair_of(batch):
    """(sigma_1, sigma_2) of each 2x2 matrix of ``batch`` by the scalar
    ``_sv_pair_2x2``."""
    return np.array([_sv_pair_2x2(m) for m in batch])


def _assert_same_bits(got, want):
    # the bits, not ==, which holds for 0.0 against -0.0
    assert got.dtype == want.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def _check_lambda1(batch):
    _assert_same_bits(_batch_lambda1(batch), _complex_lambda1_of(batch))


def test_real_2x2_lambda1_has_the_complex_formula_bits():
    # a real batch takes the real branch of _lambda1_rows, real roots or
    # not, and every row keeps the bits of _lambda1 in complex arithmetic
    rng = np.random.default_rng(34)
    batch = rng.standard_normal((20_000, 2, 2))
    batch[:100] *= 1e-160         # tiny entries: tr**2 and det underflow
    batch[100:200] *= 1e-308      # subnormal halves
    batch[200:300, 0] = batch[200:300, 1]   # singular: det 0
    batch[300:400] = [[1.0, 1.0], [0.0, 1.0]]  # unipotent: zero discriminant
    batch[400:500] *= -0.0        # zeros of both signs
    tr = batch[:, 0, 0] + batch[:, 1, 1]
    det = batch[:, 0, 0] * batch[:, 1, 1] - batch[:, 0, 1] * batch[:, 1, 0]
    disc = tr * tr - 4.0 * det
    assert (disc >= 0).sum() > 1000 and (disc < 0).sum() > 1000
    _check_lambda1(batch)
    _check_lambda1(batch.astype(np.complex128) * np.exp(0.3j))
    _check_lambda1(np.zeros((3, 2, 2)))
    _check_lambda1(np.zeros((0, 2, 2)))


def test_jsr_ensemble_levels_keep_the_complex_formula_bits(monkeypatch):
    # every row of every level jsr_profile and bochi_rhs read on the
    # shipped ensemble, seeds 0-7, against the complex path of each
    # kernel (on zero imaginary parts it gives the scalar forms' values,
    # and test_class_tables pins it to them); each level's largest row
    # and a stride sample of about 100 rows against the scalar forms
    # themselves, which on all 10^7 rows would take minutes
    raw = json.loads((SCEN_DIR / "jsr-ensemble.json").read_text())
    rows = {"lambda": 0, "sigma": 0}

    def checked(kernel, scalar, key):
        def read(batch):
            out = kernel(batch)
            _assert_same_bits(out, kernel(batch.astype(np.complex128)))
            top = np.argmax(out.reshape(len(batch), -1)[:, 0])
            sample = np.unique(np.r_[np.arange(0, len(batch), len(batch) // 100 + 1),
                                     top])
            _assert_same_bits(out[sample], scalar(batch[sample]))
            rows[key] += len(batch)
            return out
        return read

    monkeypatch.setattr(jsl, "_batch_lambda1",
                        checked(_batch_lambda1, _complex_lambda1_of, "lambda"))
    monkeypatch.setattr(jsl, "_batch_svals",
                        checked(_batch_svals, _sv_pair_of, "sigma"))
    for seed in range(8):
        assert run(parse_scenario({**raw, "seed": seed})).verdict == "holds"
    # 10 pairs per seed: 2 + 4 + ... + 2^8 rows in jsr_profile's levels,
    # 2 + ... + 2^16 in bochi_rhs's
    assert rows == {"lambda": 80 * (2**9 - 2 + 2**17 - 2), "sigma": 80 * (2**9 - 2)}
