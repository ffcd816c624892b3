"""Concrete models: trees, word metrics, Mobius and linear actions.

Hyperbolic-plane displacements are cross-checked against the classical
distance formula d(z, w) = arccosh(1 + |z-w|^2 / (2 Im z Im w)) evaluated
on the Mobius orbit of the basepoint i.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from lenspec import spaces
from lenspec.actions import anosov_certificate
from lenspec.errors import InputError
from lenspec.spaces import (
    LinearRepModel,
    MobiusModel,
    TreeModel,
    WordMetricModel,
    build_schottky,
)
from lenspec.words import ConjClass, GeneratingSet, Word, enumerate_ball, word_length
from test_window_oracle import _WORD_METRICS, _canon


def random_words(rng, n, max_len=8):
    out = []
    for _ in range(n):
        ln = rng.randint(0, max_len)
        out.append(Word([rng.choice([1, -1, 2, -2]) for _ in range(ln)]))
    return out


def _class_length(model, g):
    return model.class_length(ConjClass.of(g).rep.letters)


# ----------------------------------------------------------------- trees


def test_tree_displacement_and_class_length():
    m = TreeModel(2, [1, 3])
    assert m.displacement(Word("ab")) == 4
    assert m.displacement(Word("abA")) == 5
    assert _class_length(m, Word("abA")) == 3
    assert m.displacement(Word("aB")) == 4


def test_tree_keeps_fractions():
    m = TreeModel(1, [Fraction(1, 3)])
    assert m.displacement(Word("aa")) == Fraction(2, 3)
    assert m.cobound_D == Fraction(1, 6)


def test_tree_float_weights_are_the_fractions_they_equal():
    # summed as floats, BBB under [0.1, 0.2] was 0.6000000000000001
    m = TreeModel(2, [0.1, 0.2])
    length = m.class_length((-2, -2, -2))
    assert length == 3 * Fraction(0.2) and type(length) is Fraction
    assert m.displacement(Word("aBa")) == 2 * Fraction(0.1) + Fraction(0.2)


def test_letters_beyond_the_rank_raise_input_error():
    with pytest.raises(InputError, match="letter 3 outside rank 2"):
        TreeModel(2).class_length((3,))
    with pytest.raises(InputError, match="letter -3 outside rank 2"):
        TreeModel(2).displacement(Word("C"))
    wm = WordMetricModel(GeneratingSet(2, ["a", "A", "b", "B", "ab"]))
    with pytest.raises(InputError, match="letter 3 outside rank 2"):
        wm.displacement(Word("c"))
    with pytest.raises(InputError, match="letter 3 outside rank 2"):
        wm.class_length_bracket((1, 3))


@pytest.mark.parametrize("weights", [
    [math.inf, 1], [math.nan, 1], [True, 1], ["1/2", 1], [1j, 1], [0.0, 1],
], ids=str)
def test_malformed_tree_weights_raise_input_error(weights):
    with pytest.raises(InputError):
        TreeModel(2, weights)


def test_tree_cobound_is_half_max_weight():
    assert TreeModel(2, [1, 3]).cobound_D == Fraction(3, 2)
    assert TreeModel(2).cobound_D == Fraction(1, 2)


def test_tree_window_radius():
    m = TreeModel(2, [1, 2])
    # classes of stable length <= 5 have at most 5 letters
    assert m.window_radius(5) == 5
    assert TreeModel(2, [2, 2]).window_radius(5) == 3


def test_tree_validation():
    with pytest.raises(InputError):
        TreeModel(0)
    with pytest.raises(InputError):
        TreeModel(2, [1])
    with pytest.raises(InputError):
        TreeModel(1, [0])
    with pytest.raises(InputError):
        TreeModel(1, [-2.0])


# ----------------------------------------------------------- word metrics


def test_standard_word_metric_is_the_tree():
    wm = WordMetricModel(GeneratingSet.standard(2, weights=[2, 1]))
    tree = TreeModel(2, [2, 1])
    assert wm._standard
    assert wm.cobound_D == 1
    for g in enumerate_ball(2, 4):
        assert wm.displacement(g) == tree.displacement(g)
        rep = ConjClass.of(g).rep.letters
        assert wm.class_length_bracket(rep) == (tree.class_length(rep),) * 2


def test_shortcut_metric_displacement():
    gens = GeneratingSet(2, ["a", "A", "b", "B", "ab", "BA"])
    wm = WordMetricModel(gens)
    assert not wm._standard
    assert wm.displacement(Word("ab")) == 1
    assert wm.displacement(Word("abb")) == 2
    assert wm.displacement(Word("abab")) == 2


def test_word_metric_brackets_are_sound():
    # short reps only: Dijkstra cost grows exponentially with target length
    gens = GeneratingSet(2, ["a", "A", "b", "B", "ab", "BA"])
    wm = WordMetricModel(gens)
    rng = random.Random(13)
    for g in random_words(rng, 40, max_len=3):
        c = ConjClass.of(g)
        if not c.rep:
            continue
        lo, hi = wm.class_length_bracket(c.rep.letters, 8)
        assert lo <= hi
        # true stable length lies below the power averages
        avg = Fraction(word_length(c.rep**2, gens), 2)
        assert lo <= avg + Fraction(1, 10**9)
        # and above the cyclic length divided by the comparison constant
        assert hi >= Fraction(len(c.rep), 2)


def test_cost_upper_dominates_word_length():
    gens = GeneratingSet(2, ["a", "A", "b", "B", "ab", "BA"])
    wm = WordMetricModel(gens)
    rng = random.Random(29)
    for g in random_words(rng, 50, max_len=5):
        assert wm.cost_upper(g) >= word_length(g, gens)


def test_displacement_is_the_word_length():
    # displacement searches no further than cost_upper, which bounds |g|_S
    for m in _WORD_METRICS:
        for g in enumerate_ball(2, 3):
            assert _canon(m.displacement(g)) == _canon(word_length(g, m.gens))


def test_displacement_reaches_a_float_cost_rounded_above_cost_upper():
    # A = (Ab)(B) costs 0.2 + 0.3; added as floats, the search's order
    # gives 0.6000000000000001 and cost_upper's 0.6.  Each weight is the
    # Fraction the float equals, so both sums are that of the three
    gens = GeneratingSet(2, ["a", "b", "B", "Ab"], [1, 0.1, 0.3, 0.2])
    wm = WordMetricModel(gens)
    want = Fraction(0.1) + Fraction(0.2) + Fraction(0.3)
    d = wm.displacement(Word("bA"))
    assert d == word_length(Word("bA"), gens) == wm.cost_upper(Word("bA")) == want
    assert type(d) is Fraction


def test_letter_costs_come_from_the_generation_witnesses(monkeypatch):
    # the generation check has already found a cheapest spelling of every
    # letter, so the model runs no word_length search of its own
    # A is spelt Ab.B in the last two sets
    sets = [m.gens for m in _WORD_METRICS] + [
        GeneratingSet(2, ["a", "b", "B", "Ab"], [Fraction(1, 2), 1, 2, Fraction(1, 3)]),
        GeneratingSet(2, ["a", "b", "B", "Ab", "aB"], [0.1, 0.7, 1 / 3, 0.2, 0.3])]
    monkeypatch.setattr(spaces, "word_length", None)
    for gens in sets:
        costs = WordMetricModel(gens)._letter_cost
        assert _canon(costs) == _canon(
            {x: word_length(Word((x,)), gens) for x in (1, -1, 2, -2)})


def test_non_generating_set_is_rejected():
    with pytest.raises(InputError):
        WordMetricModel(GeneratingSet(2, ["a", "b"]))


def test_asymmetric_metric():
    # a is cheap, A only reachable the long way round
    gens = GeneratingSet(2, ["a", "A", "b", "B"], weights=[1, 5, 1, 1])
    wm = WordMetricModel(gens)
    assert wm.displacement(Word("a")) == 1
    assert wm.displacement(Word("A")) == 5


# ---------------------------------------------------------- Mobius models


def _mobius_orbit_point(mat, z=1j):
    a, b, c, d = mat[0, 0], mat[0, 1], mat[1, 0], mat[1, 1]
    return (a * z + b) / (c * z + d)


def _h2_distance(z, w):
    return math.acosh(1 + abs(z - w) ** 2 / (2 * z.imag * w.imag))


def test_mobius_axis_example():
    m = MobiusModel([np.diag([2.0, 0.5])])
    assert m.displacement(Word("a")) == pytest.approx(math.log(4))
    assert _class_length(m, Word("a")) == pytest.approx(2 * math.log(2))


def test_mobius_trace_three_example():
    m = MobiusModel([[[2.0, 1.0], [1.0, 1.0]]])
    got = _class_length(m, Word("a"))
    assert got == pytest.approx(2 * math.acosh(1.5))
    assert got == pytest.approx(1.9248473002384139)


def test_mobius_elliptic_and_parabolic_have_zero_length():
    rot = [[0.0, -1.0], [1.0, 0.0]]
    par = [[1.0, 1.0], [0.0, 1.0]]
    m = MobiusModel([rot, par])
    assert _class_length(m, Word("a")) == 0.0
    assert _class_length(m, Word("b")) == 0.0
    # parabolic still moves the basepoint
    assert m.displacement(Word("b")) > 0


def test_mobius_displacement_matches_distance_formula():
    act = build_schottky(4.0, [0.0, 1.2])
    m = act.mobius
    rng = random.Random(41)
    for g in random_words(rng, 80, max_len=6):
        z = _mobius_orbit_point(m.matrix(g))
        want = _h2_distance(1j, complex(z))
        assert m.displacement(g) == pytest.approx(want, abs=1e-9)


def test_mobius_determinant_normalization():
    # scaling a matrix does not change the Mobius transformation
    a = np.array([[2.0, 1.0], [1.0, 1.0]])
    m1 = MobiusModel([a])
    m2 = MobiusModel([3.0 * a])
    assert m1.displacement(Word("a")) == pytest.approx(m2.displacement(Word("a")))


def test_mobius_rejects_negative_determinant():
    with pytest.raises(InputError):
        MobiusModel([[[1.0, 0.0], [0.0, -1.0]]])


def test_mobius_three_space():
    theta = 0.3 + 0.2j
    act = build_schottky(3.0, [theta, 0.0])
    m = act.mobius
    assert m.space_dim == 3
    assert _class_length(m, Word("b")) == pytest.approx(2 * math.log(3))
    assert m.displacement(Word("ab")) > 0


# ---------------------------------------------------------- linear models


def test_linear_model_is_asymmetric_pseudometric():
    m = LinearRepModel([np.diag([4.0, 0.25])])
    assert m.displacement(Word("a")) == pytest.approx(math.log(4))
    assert m.displacement(Word("A")) == pytest.approx(math.log(4))
    assert _class_length(m, Word("a")) == pytest.approx(math.log(4))


def test_linear_model_normalizes_determinant():
    m = LinearRepModel([np.diag([8.0, 0.5])])  # det 4, normalized to diag(4, 1/4)
    assert m.displacement(Word("a")) == pytest.approx(math.log(4))


def test_linear_rejects_singular():
    with pytest.raises(InputError):
        LinearRepModel([np.diag([1.0, 0.0])])


def test_linear_displacement_nonnegative():
    rot = [[0.0, -1.0], [1.0, 0.0]]
    m = LinearRepModel([rot])
    assert m.displacement(Word("a")) == 0.0


def test_linear_alpha_is_configuration():
    m = LinearRepModel([np.diag([2.0, 0.5])], alpha=1.5)
    assert m.alpha == 1.5
    assert LinearRepModel([np.diag([2.0, 0.5])]).alpha is None


def test_three_by_three_linear_reads_numpy_svd():
    rs = np.random.default_rng(5)
    mats = [rs.standard_normal((3, 3)) for _ in range(2)]
    m = LinearRepModel(mats)
    unit = [a / abs(np.linalg.det(a)) ** (1 / 3) for a in mats]
    gens = {1: unit[0], 2: unit[1], -1: np.linalg.inv(unit[0]),
            -2: np.linalg.inv(unit[1])}
    for w in random_words(random.Random(4), 30, max_len=6):
        a = np.eye(3)
        for x in w.letters:
            a = a @ gens[x]
        s = np.linalg.svd(a, compute_uv=False)
        assert m.displacement(w) == pytest.approx(max(math.log(s[0]), 0.0),
                                                  abs=1e-9)
        assert m.singular_gaps(m.matrix(w)[None])[0] == pytest.approx(
            math.log(s[0] / s[1]), abs=1e-9)


# --------------------------------------------------------------- Schottky


def test_schottky_builder_basics():
    act = build_schottky(4.0, [0.0, 1.2])
    assert act.mobius.rank == 2
    assert act.linear.rank == 2
    assert act.certificate.ok
    # the stretch shows up as the stable length on both sides
    rep = ConjClass.of(Word("a")).rep.letters
    assert act.mobius.class_length(rep) == pytest.approx(2 * math.log(4))
    assert act.linear.class_length(rep) == pytest.approx(math.log(4))


def test_complex_angles_give_complex_generators():
    act = build_schottky(4.0, [0.3 + 0.2j, 1.2])
    assert act.mobius.space_dim == 3
    for letter in (1, -1, 2, -2):
        assert act.linear.generator_matrix(letter).dtype == np.complex128


def test_schottky_per_generator_stretches():
    act = build_schottky([2.0, 5.0], [0.0, 0.9])
    assert _class_length(act.mobius, Word("a")) == pytest.approx(2 * math.log(2))
    assert _class_length(act.mobius, Word("b")) == pytest.approx(2 * math.log(5))


def test_schottky_validation():
    with pytest.raises(InputError):
        build_schottky(1.0, [0.0])
    with pytest.raises(InputError):
        build_schottky(2.0, [])
    with pytest.raises(InputError):
        build_schottky([2.0], [0.0, 1.0])


def test_schottky_warns_when_certificate_fails():
    # equal angles at tiny stretch: commuting-ish pair still certifies, so
    # use an honest failure: stretch barely above 1 with crossing axes
    with pytest.warns(UserWarning, match="certificate failed"):
        build_schottky(1.0001, [0.0, 0.78])


def test_matrix_window_radius_is_not_sized_from_the_certificate():
    # mu is the least gap per letter over a finite ball, a sample and not
    # a bound, so no matrix window radius is certified
    act = build_schottky(4.0, [0.0, 1.2])
    assert act.mobius.window_radius(5.0) == math.inf
    assert act.linear.window_radius(5.0) == math.inf
    # a 1x1 model has no singular gap, which a size check says with no
    # certificate walked
    one = LinearRepModel([[[2.0]], [[3.0]]])
    with pytest.raises(InputError, match="size 2 or more"):
        one.window_radius(5.0)
    assert one._certs == {}


def test_certificates_are_kept_per_radius():
    # a certificate over a larger ball stands in for neither a smaller
    # cert_radius nor the radius-6 one
    mob = build_schottky(4.0, [0.0, 1.2]).mobius
    assert mob.certificate(8).radius == 8
    assert mob.certificate(3).radius == 3
    assert mob.certificate() is mob.certificate(6)
    assert mob.certificate(3).mu == anosov_certificate(mob, radius=3).mu
