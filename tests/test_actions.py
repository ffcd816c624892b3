"""Brackets, displacement estimators, and the gap certificate.

Soundness tests compare the generic power estimator against models whose
stable lengths are exactly computable (trees by peeling, matrix models by
eigenvalues), over large random samples.
"""

import math
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracle
from lenspec.actions import (
    AnosovCertificate,
    LengthBracket,
    anosov_certificate,
    exact_div,
    gromov_product,
    power_schedule,
    stable_length_bracket,
)
from lenspec.errors import InputError, NumericError, ResourceCapError
from lenspec.spaces import LinearRepModel, MobiusModel, TreeModel, build_schottky
from lenspec.words import ConjClass, Word, enumerate_ball


letters = st.integers(min_value=-2, max_value=2).filter(lambda x: x != 0)
words = st.lists(letters, min_size=0, max_size=10).map(Word)


def random_words(rng, n, max_len=8, rank=2):
    out = []
    for _ in range(n):
        ln = rng.randint(0, max_len)
        out.append(
            Word([rng.choice([1, -1, 2, -2][: 2 * rank]) for _ in range(ln)])
        )
    return out


def _class_length(model, g):
    return model.class_length(ConjClass.of(g).rep.letters)


# ------------------------------------------------------------- brackets


def test_bracket_basics():
    b = LengthBracket(1, Fraction(5, 4))
    assert b.width == Fraction(1, 4)
    assert b.contains(1.1)
    assert not b.contains(1.3)
    assert b.contains(1.3, tol=0.1)
    assert str(b) == "[1, 5/4]"
    assert str(LengthBracket.exactly(2)) == "2"


def test_bracket_contains_an_exact_tie_past_float_precision():
    # hi + tol rounds to the float 2**53 < v: a side is never shifted by tol
    v = 2 ** 53 + 1
    assert LengthBracket.exactly(v).contains(v, tol=1e-9)
    assert LengthBracket(v, v + 2).contains(v, tol=1e-9)
    assert not LengthBracket.exactly(v).contains(v + 1, tol=1e-9)


def test_bracket_validation():
    with pytest.raises(InputError):
        LengthBracket(2, 1)
    with pytest.raises(InputError):
        LengthBracket(1, 2, exact=True)
    # float noise below the tolerance is clamped, not rejected
    b = LengthBracket(1.0 + 1e-12, 1.0)
    assert b.lo == b.hi == 1.0
    with pytest.raises(InputError):
        LengthBracket(1.0 + 1e-6, 1.0)


def test_bracket_scale():
    b = LengthBracket(1, 2).scale(Fraction(3, 2))
    assert (b.lo, b.hi) == (Fraction(3, 2), 3)
    with pytest.raises(InputError):
        LengthBracket(1, 2).scale(-1)


def test_exact_div_keeps_fractions():
    assert exact_div(1, 3) == Fraction(1, 3)
    assert isinstance(exact_div(Fraction(1, 2), 2), Fraction)
    assert isinstance(exact_div(1.0, 3), float)


@pytest.mark.parametrize("a,b", [(7, 12), (7, -12), (-7, -12), (0, 5),
                                 (0, -5), (6, -3), (-4, 1)])
def test_exact_div_int_pair_matches_fraction_division(a, b):
    got = exact_div(a, b)
    want = Fraction(a, 1) / Fraction(b, 1)
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


def test_exact_div_by_zero_and_other_operands():
    for a, b in ((1, 0), (0, 0), (Fraction(1, 2), 0)):
        with pytest.raises(ZeroDivisionError):
            exact_div(a, b)
    assert exact_div(Fraction(1, 2), -3) == Fraction(-1, 6)
    assert exact_div(3, Fraction(3, 4)) == 4
    assert exact_div(True, 2) == Fraction(1, 2)
    got = exact_div(1, 3.0)
    assert type(got) is float and got == 1 / 3.0
    assert type(exact_div(2.5, 5)) is float


def test_power_schedule():
    assert power_schedule(8) == [1, 2, 4, 8, 16]
    assert power_schedule(2) == [1, 2, 4]
    with pytest.raises(InputError):
        power_schedule(1)


# ------------------------------------------------- the generic estimator


def test_tree_bracket_example():
    # g = abA: g^k = a b^k A, so a_k = k + 2 and the estimator sees
    # hi = min a_k/k = 5/4 at k=8, lo = drift (a_2k - a_k)/k = 1 exactly
    m = TreeModel(2)
    b = stable_length_bracket(m, Word("abA"), k_max=4)
    assert b.lo == 1
    assert b.hi == Fraction(5, 4)


def test_identity_bracket_is_exact_zero():
    b = stable_length_bracket(TreeModel(2), Word(""))
    assert b.exact and b.lo == 0


def test_tree_bracket_soundness_bulk():
    # drift lower bound is exact on trees: lo == stable length for all g
    rng = random.Random(11)
    m = TreeModel(2, [1, Fraction(3, 2)])
    for g in random_words(rng, 600):
        c = ConjClass.of(g)
        exact = m.displacement(c.rep)
        b = stable_length_bracket(m, g)
        assert b.lo == exact
        assert b.hi >= exact


def test_mobius_bracket_soundness_bulk():
    act = build_schottky(4.0, [0.0, 1.2])
    m = act.mobius
    rng = random.Random(23)
    for g in random_words(rng, 200):
        c = ConjClass.of(g)
        exact = m.class_length(c.rep.letters)
        b = stable_length_bracket(m, g, k_max=8, c_delta=4)
        assert b.lo - 1e-9 <= exact <= b.hi + 1e-9


@given(words, st.integers(min_value=1, max_value=5))
def test_homogeneity_on_trees(g, k):
    m = TreeModel(2, [1, 2])
    l1 = _class_length(m, g)
    lk = _class_length(m, g**k)
    assert lk == k * l1


@given(words, words)
def test_conjugation_invariance_on_trees(g, h):
    m = TreeModel(2, [2, 3])
    a = _class_length(m, g)
    b = _class_length(m, g.conjugate_by(h))
    assert a == b


def test_homogeneity_and_conjugation_on_matrices():
    act = build_schottky(4.0, [0.0, 1.2])
    rng = random.Random(5)
    for model in (act.mobius, act.linear):
        for g in random_words(rng, 80, max_len=6):
            if not ConjClass.of(g).rep:
                continue
            l1 = _class_length(model, g)
            l3 = _class_length(model, g**3)
            assert math.isclose(l3, 3 * l1, rel_tol=1e-9, abs_tol=1e-9)
            h = rng.choice(random_words(rng, 1, max_len=5))
            lc = _class_length(model, g.conjugate_by(h))
            assert math.isclose(lc, l1, rel_tol=1e-9, abs_tol=1e-9)


def test_subadditivity_of_power_displacements():
    # a_{m+n} <= a_m + a_n by the triangle inequality
    act = build_schottky(4.0, [0.0, 1.2])
    rng = random.Random(31)
    for model in (TreeModel(2, [1, 3]), act.mobius, act.linear):
        for g in random_words(rng, 60, max_len=6):
            a = model.displacement_of_powers(g, list(range(1, 17)))
            for m_ in range(1, 8):
                for n_ in range(1, 8):
                    assert a[m_ + n_] <= a[m_] + a[n_] + 1e-9


def test_displacement_of_powers_matches_direct():
    act = build_schottky(4.0, [0.0, 1.2])
    tree = TreeModel(2)
    rng = random.Random(17)
    for g in random_words(rng, 40, max_len=5):
        for model in (tree, act.mobius):
            a = model.displacement_of_powers(g, [1, 2, 4])
            for k in (1, 2, 4):
                direct = model.displacement(g**k)
                if model is tree:
                    assert a[k] == direct
                else:
                    assert math.isclose(a[k], direct, rel_tol=1e-9, abs_tol=1e-9)


# -------------------------------------------------------- hyperbolicity


def test_gromov_product_examples():
    m = TreeModel(2)
    assert gromov_product(m, Word("a"), Word("b")) == 0
    assert gromov_product(m, Word("a"), Word("ab")) == 1
    assert gromov_product(m, Word("aa"), Word("ab")) == 1


def test_four_point_condition_tree_is_exact():
    m = TreeModel(2, [1, 2])
    ball = enumerate_ball(2, 3)
    rng = random.Random(3)
    for _ in range(600):
        g, h, k = rng.choice(ball), rng.choice(ball), rng.choice(ball)
        gh = gromov_product(m, g, h)
        assert gh >= min(gromov_product(m, g, k), gromov_product(m, h, k))


def test_four_point_condition_mobius_within_declared_delta():
    # declared delta = log 2; sampled defects peak near 0.6
    act = build_schottky(4.0, [0.0, 1.2])
    m = act.mobius
    assert m.delta == pytest.approx(math.log(2))
    ball = enumerate_ball(2, 4)
    rng = random.Random(7)
    worst = -math.inf
    for _ in range(3000):
        g, h, k = rng.choice(ball), rng.choice(ball), rng.choice(ball)
        gh = gromov_product(m, g, h)
        defect = min(gromov_product(m, g, k), gromov_product(m, h, k)) - gh
        worst = max(worst, defect)
    assert worst <= m.delta + 1e-9
    assert worst > 0.3  # the bound is doing real work on this sample


# --------------------------------------------------------- certificates


def test_certificate_on_schottky():
    act = build_schottky(4.0, [0.0, 1.2])
    cert = act.certificate
    assert cert.ok
    assert cert.mu > 0
    assert cert.log_C <= 0
    assert cert.C == pytest.approx(math.exp(cert.log_C))


def test_certificate_rejects_rotations():
    rot = [[0.0, -1.0], [1.0, 0.0]]
    m = LinearRepModel([rot, np.eye(2)])
    cert = anosov_certificate(m, radius=4)
    assert not cert.ok
    assert cert.mu == 0.0


def test_certificate_rejects_trivial_rep():
    m = LinearRepModel([np.eye(2), np.eye(2)])
    cert = anosov_certificate(m, radius=3)
    assert not cert.ok


def test_certificate_mu_is_ball_minimum():
    act = build_schottky(4.0, [0.0, 1.2])
    lin = act.linear
    cert = anosov_certificate(lin, radius=4)
    worst = math.inf
    for g in enumerate_ball(2, 4):
        if not g:
            continue
        gap = lin.singular_gaps(lin.matrix(g)[None])[0]
        worst = min(worst, gap / len(g))
        assert gap >= cert.log_C + cert.mu * len(g) - 1e-9
    assert cert.mu == pytest.approx(worst)


def test_certificate_needs_a_nonempty_ball():
    m = build_schottky(4.0, [0.0, 1.2]).linear
    with pytest.raises(InputError, match="radius must be >= 1"):
        anosov_certificate(m, 0)


def test_certificate_ball_past_its_cap_raises_before_any_product():
    class NoProducts(LinearRepModel):
        def generator_matrix(self, letter):
            raise AssertionError("a product was taken")

    with pytest.raises(ResourceCapError, match="exceeds cap 2000000"):
        anosov_certificate(NoProducts([np.eye(2), np.eye(2)]), 40)


# Sanov's free pair a = [[1, 2], [0, 1]], b = [[1, 0], [2, 1]] and their
# inverses: every reduced word has its own integer product, exact in floats
_SANOV = {1: np.array([[1.0, 2.0], [0.0, 1.0]]), -1: np.array([[1.0, -2.0], [0.0, 1.0]]),
          2: np.array([[1.0, 0.0], [2.0, 1.0]]), -2: np.array([[1.0, 0.0], [-2.0, 1.0]])}


def test_certificate_walks_the_ball_in_length_then_letter_order():
    # gap/|g| = 1 at b and at aa and 10 elsewhere: a depth-first walk
    # meets aa first, the ball's (length, letter) order meets b first.
    # Each batch row is read back as the word whose product it is.
    ball = enumerate_ball(2, 3)[1:]
    word_of = {}
    for g in ball:
        m = np.eye(2)
        for x in g.letters:
            m = m @ _SANOV[x]
        word_of[tuple(m.ravel().tolist())] = g.letters
    assert len(word_of) == len(ball)
    gaps = {(2,): 1.0, (1, 1): 2.0}
    seen = []

    def singular_gaps(batch):
        level = [word_of[tuple(m.ravel().tolist())] for m in batch]
        seen.append(level)
        return np.array([gaps.get(w, 10.0 * len(w)) for w in level])

    model = SimpleNamespace(rank=2, singular_gaps=singular_gaps,
                            generator_matrix=_SANOV.__getitem__)
    cert = anosov_certificate(model, 3)
    # one batch per level, each row its word's product, in ball order
    assert seen == [[g.letters for g in ball if len(g) == n] for n in (1, 2, 3)]
    assert cert.mu == 1.0 and cert.worst == Word("b")
    assert cert.log_C == 0.0 and cert.ok and cert.radius == 3


def _gap_model(kind: int, rank: int, seed: int, stretch: int):
    """A random matrix model: real 2x2 linear (kind 0), complex 2x2
    Mobius in space (1) or 3x3 linear (2), each generator times
    diag(10**stretch, 1, ...) before the model normalizes it, so large
    stretches overflow within a few letters."""
    rng = np.random.default_rng(seed)
    m = 3 if kind == 2 else 2
    scale = np.diag([10.0 ** stretch] + [1.0] * (m - 1))
    mats = [rng.standard_normal((m, m)) @ scale for _ in range(rank)]
    if kind == 1:
        mats = [a + 1j * rng.standard_normal((m, m)) @ scale for a in mats]
        return MobiusModel(mats, dim=3)
    return LinearRepModel(mats)


def _outcome(f):
    """f()'s value, or the type and text of what it raised."""
    try:
        return f()
    except (NumericError, ValueError, np.linalg.LinAlgError) as e:
        return type(e), str(e)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


_STRETCHES = st.sampled_from([0, 0, 0, 40, 150, 300])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2), st.integers(1, 2), st.integers(1, 4),
       st.integers(0, 2**32 - 1), _STRETCHES)
def test_certificate_is_the_per_word_walk(kind, rank, radius, seed, stretch):
    # the batched walk against the per-word loop of _oracle.certificate:
    # the same matrices bit for bit (one np.matmul per level against one
    # @ per word), and the same certificate, mu and log_C to the bit, or
    # the same error at the same word
    model = _gap_model(kind, rank, seed, stretch)
    batches, mats = [], []
    kernel = model.singular_gaps
    model.singular_gaps = lambda batch: (batches.append(batch), kernel(batch))[1]

    def gap(mat):
        mats.append(mat)
        return _oracle.singular_gap(mat)

    got = _outcome(lambda: anosov_certificate(model, radius))
    want = _outcome(lambda: _oracle.certificate(model, radius, gap))
    if isinstance(want, AnosovCertificate):
        assert isinstance(got, AnosovCertificate)
        assert (got.mu.hex(), got.log_C.hex()) == (want.mu.hex(), want.log_C.hex())
        assert (got.worst, got.ok, got.radius) == (want.worst, want.ok, want.radius)
    else:
        assert got == want
    rows = np.concatenate(batches)[:len(mats)]
    assert np.array_equal(_bits(rows), _bits(np.stack(mats)))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2**32 - 1), _STRETCHES,
       st.integers(0, 4))
# a NaN row right after a batch whose hypot overflowed (errno ERANGE)
@example(kind=1, seed=127, stretch=300, holes=4)
def test_singular_gaps_are_the_scalar_gaps(kind, seed, stretch, holes):
    # the gap kernel on a batch of products against _oracle.singular_gap
    # row by row: the same bits up to the first gap that is not finite,
    # or the same error where the first bad row raises; ``holes`` rows
    # are made NaN, inf, zero or one whose moduli pass the float range
    model = _gap_model(kind, 2, seed, stretch)
    rng = np.random.default_rng(seed)
    gens = np.stack([model.generator_matrix(x) for x in (1, -1, 2, -2)])
    batch = gens[rng.integers(0, 4, 400)]
    for _ in range(3):
        batch = batch @ gens[rng.integers(0, 4, 400)]
    for i, v in zip(rng.integers(0, 400, holes),
                    (math.nan, math.inf, 0.0, 1.3e308 * (1 + 1j) if kind == 1 else 1e300)):
        batch[i] = v
    want, raised = [], None
    for a in batch:
        v = _outcome(lambda: _oracle.singular_gap(a))
        if isinstance(v, tuple):
            raised = v
            assert _outcome(lambda: model.singular_gaps(batch)) == raised
            break
        want.append(v)
        if not math.isfinite(v):
            break
    if want:
        got = model.singular_gaps(batch[:len(want)] if raised else batch)
        assert np.array_equal(_bits(got), _bits(np.array(want)))


def test_a_nan_modulus_ignores_an_overflow_left_in_errno():
    # CPython 3.11's abs() of a complex with a NaN part raises
    # OverflowError while errno still holds the ERANGE of an overflowing
    # np.hypot, such as _batch_svals' on a batch past the float range; the
    # 2x2 closed forms read such a value as abs does with errno clear
    from lenspec.spaces import _batch_svals, _lambda1, _sv_pair_2x2

    nan = complex(math.nan, math.nan)
    _batch_svals(np.full((3, 2, 2), 1.3e308 * (1 + 1j)))
    s1, s2 = _sv_pair_2x2(np.full((2, 2), nan))
    assert math.isnan(s1) and s2 == 0.0
    _batch_svals(np.full((3, 2, 2), 1.3e308 * (1 + 1j)))
    with pytest.raises(NumericError, match="overflow in class length"):
        _lambda1(nan, 1 + 0j)
