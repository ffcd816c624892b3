"""Falsification properties: certified claims against brute force on small
random instances.

Joint brackets.  Let D(S) be the joint stable length of a finite set S and
a_m the largest displacement d(x, w x) over the products w of m factors.
Every product w of n factors has l[w] <= n D(S), since w^k is a product of
nk factors, and D(S) <= a_m / m for every m, by subadditivity.  So a joint
bracket [lo, hi] must satisfy l[w] / n <= hi for every product of n <= 5
factors, and lo <= a_m / m for every m <= 5.  Trees are tested on both
engines, word metrics on ``products``.

A non-standard word metric only brackets l[w], so the lo of that bracket,
read class by class apart from the package (``_oracle.class_bracket``),
stands in for l[w].  Its displacement is a cheapest-first search whose
ball grows exponentially with the cost, so there the certified spelling
cost ``cost_upper`` stands in for it in a_m, which only weakens the check,
the engine runs two levels, and the letters cost 1.

Matrix models (Mobius in the plane and in space, 2x2 linear) give float
brackets, so both sides hold to 1e-9, for products of n, m <= 4 factors
of length <= 2, on Schottky parameters that pass the ping-pong
certificate.  The lo side is checked on the largest lower-bound term,
before the engine clips lo at hi.  Parameters that fail it include a = b, where a product
such as aB is the identity up to rounding: its spectral radius and
sigma_1, read near trace 2, carry rounding errors of order sqrt(eps), so
l[aB] reads about 2e-8 while hi reads 0, an error no bracket bounds yet.

JSR brackets.  For a finite set of matrices, every product P of n factors
has rho(P)^(1/n) <= JSR <= max sigma_1(Q)^(1/n) over the products Q of n
factors, so in log scale a ``jsr_profile`` bracket must satisfy
log rho(P) / n <= hi and lo <= max log sigma_1(Q) / n for every n <= 6,
to 1e-9, with lo again the largest term before its clip at hi.  Products, spectral radii and singular values are formed here
with numpy's general routines, not the engine's renormalized levels.

Displacement balls.  On a tree a reduced word moves the base point by the
sum of its letter weights, so every word of displacement <= B has at most
B / (least weight) letters.  ``displacement_ball`` must hold, in ball
order, every nonidentity word of a ball one letter larger whose weight sum
is <= B.

Window reach.  A window at L flagged untruncated claims to hold every
class whose reference length (the lo of its bracket) is at most L, so a
class table of a larger radius must show no such class of positive length
past the window's radius.  References are trees, standard and non-standard
word metrics, and the Mobius model of ``cor17-default``, whose window at
L = 16, sized from the certificate's sampled mu, stopped at radius 11 and
missed (ab)^6, of cyclic length 12 and length 15.257.

Exact window flags.  On trees and standard word metrics a class length is
the weight sum of its cyclically reduced word, so a window sup flagged
exact must be an int or a Fraction equal to the largest Fraction
l_tgt / l_ref over the classes of the window's radius with l_ref <= L,
and each row ratio flagged exact must equal its class's Fraction ratio.

Declared delta.  A Mobius model acts on H^2 or H^3, CAT(-1) spaces whose
Gromov products satisfy (x|z)_w >= min((x|y)_w, (y|z)_w) - log 2
(Nica-Spakula, "Strong hyperbolicity", Groups Geom. Dyn. 10, 2016); a
2x2 linear model's psi = log sigma_1 is half that metric, so its constant
is at most (log 2) / 2.  On real and complex Schottky pairs in both uses,
the orbit points of 40 words of the radius-4 ball must satisfy the
condition with the model's declared ``delta`` over all their triples, to
1e-9, the Gromov products (g x | h x)_x taken from ``gromov_product``.

Search exactness.  The word-metric search aims at its targets with a
tree-distance heuristic (A*), which must not change a length: wherever a
plain uniform-cost search (``_oracle.word_metric_lengths``) settles a
target, the package's search settles it at the same length, for one to
three targets, where the heuristic applies, and for twenty, where it does
not until fewer than seventeen are pending.  A set holds the letters of
rank 1 or 2 and up to three words of length <= 3 (the identity allowed),
each at a random weight, and a target is a product of one to five of its
elements.  A cheap detour can beat a direct step: with b at 5/2 and a,
A and ab at 1, b = A(ab) costs 2, while a heuristic doubled in error, 4
at A, would settle b at 5/2.

Violations.  A ``violated`` verdict must be confirmed in exact arithmetic
on the rows that decide it.  A real Schottky pair's lengths are logs of
eigenvalues of float matrices, which no exact arithmetic here reproduces,
so thm13, thm15, cor17 and cor14 on such a pair against the word metric
of a A b B must never read ``violated``.  K and tolerance are 0, where a
bound can tie the reference dilation: thm15's bound is then the window
sup at 2L, which the reference sup at 4L can meet with a float one ulp
above it (l[B] against l[B^5]/5).  cor14 takes the band [0, thm13's
window sup at L] with C0 0, so a class past the window that leaves the
band by a float excess is a candidate refutation.
"""

import itertools
import math
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import _oracle
from lenspec import words
from lenspec.actions import VIOLATED, exact_div, gromov_product
from lenspec.bounds import (ClassTable, VerifierConfig,
                            cobounded_dilation_report,
                            dilation_window, displacement_ball,
                            ratio_envelope_report, word_metric_dilation_report)
from lenspec.cli import _ensemble_pairs
from lenspec.jsl import joint_stable_profile, jsr_profile
from lenspec.spaces import TreeModel, WordMetricModel, build_schottky
from lenspec.words import (ConjClass, GeneratingSet, Word, _concat_reduced,
                           _settled_lengths, cyclic_reduce, enumerate_ball)

_LEVELS = 5
_WEIGHT = st.sampled_from([1, 2, 3, Fraction(1, 3), Fraction(5, 2)])


def _reduced_word(draw, rank, max_len):
    letters = [x for i in range(1, rank + 1) for x in (i, -i)]
    w = []
    for _ in range(draw(st.integers(0, max_len))):
        w.append(draw(st.sampled_from([x for x in letters if not w or x != -w[-1]])))
    return Word(w)


@st.composite
def _joint_cases(draw):
    kind = draw(st.sampled_from(["tree", "tree", "word-metric",
                                 "word-metric-nonstandard"]))
    rank = draw(st.sampled_from([2, 3])) if kind == "tree" else 2
    weights = draw(st.lists(_WEIGHT, min_size=rank, max_size=rank))
    engine, n_max = "products", 6
    if kind == "tree":
        model = TreeModel(rank, weights)
        engine = draw(st.sampled_from(["tree-dp", "products"]))
    elif kind == "word-metric":
        model = WordMetricModel(GeneratingSet.standard(rank, weights))
    else:
        # unit letters and unconjugated factors: |g| costs at most 6 over
        # two levels, which keeps its search small
        extra = _reduced_word(draw, rank, 2)
        model = WordMetricModel(GeneratingSet(
            rank, ["a", "A", "b", "B", extra or Word("ab")],
            [1, 1, 1, 1, draw(st.sampled_from([1, 2, 3]))]))
        n_max = 2
    s = [_reduced_word(draw, rank, 3) for _ in range(draw(st.integers(1, 3)))]
    for i in range(len(s) if n_max > 2 else 0):
        # conjugate factors by letters, so that a product of two factors
        # can be longer than twice either alone
        if draw(st.booleans()):
            x = draw(st.sampled_from([1, -1, 2, -2]))
            s[i] = Word((x, *s[i].letters, -x))
    return model, s, engine, n_max


def _levels(s, n_max):
    """Yield (n, the reduced products of n factors of S) for n = 1..n_max."""
    factors = [w.letters for w in s]
    level = set(factors)
    for n in range(1, n_max + 1):
        if n > 1:
            level = {_concat_reduced(w, f) for w in level for f in factors}
        yield n, level


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_joint_cases())
# S = {abA, Aba}: l[abAAba] / 2 = 3 is past the length 1 of either factor
@example((TreeModel(2), [Word("abA"), Word("Aba")], "tree-dp", 6))
# S = {abA}: abAabA has length 4 and cyclic length 2, while a_5 / 5 = 7/5
@example((TreeModel(2), [Word("abA")], "tree-dp", 6))
def test_joint_brackets_hold_every_product_and_level(case):
    model, s, engine, n_max = case
    bracket = joint_stable_profile(model, s, n_max, engine=engine).bracket
    searched = isinstance(model, WordMetricModel) and not model._standard
    displacement = model.cost_upper if searched else model.displacement
    for n, level in _levels(s, _LEVELS):
        for w in level:
            rep = ConjClass.of(Word._unchecked(w)).rep.letters
            lo_w = _oracle.class_bracket(model, rep, 2)[0]
            assert exact_div(lo_w, n) <= bracket.hi, (w, n, bracket)
        a_n = max(displacement(Word._unchecked(w)) for w in level)
        assert bracket.lo <= exact_div(a_n, n), (n, a_n, bracket)


_MATRIX_LEVELS = 4
_TOL = 1e-9


@st.composite
def _matrix_cases(draw):
    kind = draw(st.sampled_from(["mobius", "mobius-space", "linear"]))
    stretch = draw(st.floats(1.2, 6.0))
    angles = [draw(st.floats(0.0, math.pi)) for _ in range(2)]
    if kind == "mobius-space":
        angles[1] = complex(angles[1], draw(st.floats(-1.0, 1.0)))
    with warnings.catch_warnings():
        # a failed certificate only warns; assume rejects the example
        warnings.simplefilter("ignore")
        action = build_schottky(stretch, angles)
    assume(action.certificate.ok)
    model = action.linear if kind == "linear" else action.mobius
    s = [_reduced_word(draw, 2, 2) for _ in range(draw(st.integers(1, 3)))]
    return model, s


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_matrix_cases())
def test_matrix_joint_brackets_hold_every_product_and_level(case):
    model, s = case
    profile = joint_stable_profile(model, s, _MATRIX_LEVELS)
    bracket = profile.bracket
    # lo is the largest term, clipped at hi: each term must hold alone
    lo = max(profile.lo_terms.values())
    for n, level in _levels(s, _MATRIX_LEVELS):
        for w in level:
            assert model.class_length(w) / n <= bracket.hi + _TOL, (w, n, bracket)
        a_n = max(model.displacement(Word._unchecked(w)) for w in level)
        assert lo <= a_n / n + _TOL, (n, a_n, profile.lo_terms)


_JSR_LEVELS = 6


@pytest.mark.parametrize("seed", range(9))
def test_jsr_brackets_hold_every_product(seed):
    for pair in _ensemble_pairs({"count": 10, "dim": 2, "scale": 1.0}, seed):
        profile = jsr_profile(pair, _JSR_LEVELS)
        bracket, lo = profile.bracket, max(profile.lambda_terms.values())
        for n in range(1, _JSR_LEVELS + 1):
            products = np.array([np.linalg.multi_dot([np.eye(2), *f])
                                 for f in itertools.product(pair, repeat=n)])
            rho = np.abs(np.linalg.eigvals(products)).max(axis=1)
            sigma = np.linalg.svd(products, compute_uv=False)[:, 0]
            assert np.log(rho).max() / n <= bracket.hi + _TOL, (seed, n, bracket)
            assert lo <= np.log(sigma).max() / n + _TOL, (seed, n, bracket)


def _weight_sum(weights, w: Word) -> Fraction:
    return sum((Fraction(weights[abs(x) - 1]) for x in w.letters), Fraction(0))


@st.composite
def _ball_cases(draw):
    rank = draw(st.sampled_from([1, 2]))
    weights = draw(st.lists(_WEIGHT, min_size=rank, max_size=rank))
    least = min(weights)
    bound = least * draw(st.fractions(1, 6, max_denominator=4))
    return rank, weights, int(bound) if bound.denominator == 1 else bound


@settings(max_examples=60, deadline=None)
@given(_ball_cases())
def test_tree_displacement_balls_are_complete(case):
    rank, weights, bound = case
    radius = bound // min(weights) + 1
    expected = [w for w in enumerate_ball(rank, radius)
                if w.letters and _weight_sum(weights, w) <= bound]
    got = displacement_ball(TreeModel(rank, weights), bound).elements
    assert list(got) == expected, (weights, bound)


def _missed_by_the_window(ref, L, radius_cap, extra):
    """The classes of positive reference lo <= L, up to ``extra`` letters
    past the radius of the window at L, that an untruncated window misses."""
    ws = dilation_window(TreeModel(ref.rank), ref, L,
                         VerifierConfig(radius_cap=radius_cap))
    if ws.truncated:
        return []
    table = ClassTable(TreeModel(ref.rank), ref, ws.radius + extra)
    return [Word(table.classes.rep(i))
            for i in np.flatnonzero(table.positive).tolist()
            if table.ref.lo[i] <= L and len(table.classes.rep(i)) > ws.radius]


@st.composite
def _reach_cases(draw):
    kind = draw(st.sampled_from(["tree", "word-metric", "word-metric-nonstandard"]))
    weights = draw(st.lists(_WEIGHT, min_size=2, max_size=2))
    if kind == "tree":
        ref = TreeModel(2, weights)
    elif kind == "word-metric":
        ref = WordMetricModel(GeneratingSet.standard(2, weights))
    else:
        a, b = weights
        extra = _reduced_word(draw, 2, 3) or Word("ab")
        ref = WordMetricModel(GeneratingSet(2, ["a", "A", "b", "B", extra],
                                            [a, a, b, b, draw(_WEIGHT)]))
    L = min(weights) * draw(st.fractions(1, 4, max_denominator=3))
    return ref, L, draw(st.integers(1, 6))


@settings(max_examples=40, deadline=None)
@given(_reach_cases())
def test_untruncated_windows_hold_every_class_up_to_their_length(case):
    ref, L, radius_cap = case
    assert _missed_by_the_window(ref, L, radius_cap, 2) == [], (ref, L)


def test_the_cor17_default_window_holds_every_class_up_to_its_length():
    mob = build_schottky(4.0, (0.0, 1.2)).mobius
    assert _missed_by_the_window(mob, 16, 12, 1) == []


@st.composite
def _window_cases(draw):
    rank = draw(st.sampled_from([1, 2]))
    kinds = draw(st.sampled_from([("tree", "tree"), ("tree", "word-metric"),
                                  ("word-metric", "tree")]))
    weights = [draw(st.lists(_WEIGHT, min_size=rank, max_size=rank))
               for _ in kinds]
    models = [TreeModel(rank, w) if kind == "tree"
              else WordMetricModel(GeneratingSet.standard(rank, w))
              for kind, w in zip(kinds, weights)]
    # the lightest reference letter is always in the window
    L = min(weights[1]) * draw(st.fractions(1, 6, max_denominator=3))
    radius_cap = draw(st.integers(1, 6))
    return rank, models, weights, L, radius_cap


def _is_exact(v) -> bool:
    return type(v) in (int, Fraction)


@settings(max_examples=80, deadline=None)
@given(_window_cases())
def test_exact_window_flags_hold_the_fraction_sup(case):
    rank, (target, ref), (w_tgt, w_ref), L, radius_cap = case
    ws = dilation_window(target, ref, L, VerifierConfig(radius_cap=radius_cap))
    ratios = {}
    for w in enumerate_ball(rank, ws.radius):
        rep = cyclic_reduce(w).rep
        l_ref = _weight_sum(w_ref, rep)
        if w.letters and l_ref <= L:
            ratios[rep] = _weight_sum(w_tgt, rep) / l_ref
    if ws.value.exact:
        assert _is_exact(ws.value.lo) and _is_exact(ws.value.hi), ws.value
        assert ws.value.lo == max(ratios.values(), default=0), (ws, ratios)
    for row in ws.rows:
        if row.ratio.exact:
            assert _is_exact(row.ratio.lo), row
            assert row.ratio.lo == ratios[cyclic_reduce(row.rep).rep], row


@st.composite
def _search_cases(draw):
    rank = draw(st.sampled_from([1, 2]))
    letters = [(x,) for i in range(1, rank + 1) for x in (i, -i)]
    elements = letters + [_reduced_word(draw, rank, 3).letters
                          for _ in range(draw(st.integers(0, 3)))]
    weights = [draw(_WEIGHT) for _ in elements]
    count = draw(st.sampled_from([1, 2, 3, 20]))
    targets = []
    for _ in range(count):
        t = ()
        for e in draw(st.lists(st.sampled_from(elements), min_size=1, max_size=5)):
            t = _concat_reduced(t, e)
        targets.append(t)
    return rank, elements, weights, targets


@settings(max_examples=80, deadline=None)
@given(_search_cases())
@example((2, [(1,), (-1,), (2,), (1, 2)], [1, 1, Fraction(5, 2), 1], [(2,)]))
def test_the_aimed_search_settles_the_uniform_cost_lengths(case):
    rank, elements, weights, targets = case
    # the package's search reaches no more elements than the oracle's
    # before it settles a length the oracle settles; the caps keep both
    # searches small
    want = _oracle.word_metric_lengths(elements, weights, targets, 12, 2000)
    gens = GeneratingSet(rank, [Word(e) for e in elements], weights)
    with mock.patch.object(words, "_SEARCH_NODE_CAP", 10_000):
        got, _ = _settled_lengths(gens, targets, 12)
    assert {t: got.get(t) for t in want} == want, (elements, weights)


_UNIT = WordMetricModel(GeneratingSet.standard(2))


@settings(max_examples=20, deadline=None)
@given(st.floats(2.5, 6.0), st.lists(st.floats(0.0, 3.0), min_size=2, max_size=2),
       st.sampled_from(["mobius", "linear"]))
@example(3.516, [0.568, 0.56], "mobius")
@example(3.516, [0.568, 0.56], "linear")
def test_matrix_pairs_never_read_violated(stretch, angles, use):
    with warnings.catch_warnings():
        # a failed certificate only warns; no window here reads it
        warnings.simplefilter("ignore")
        target = getattr(build_schottky(stretch, angles), use)
    tables = {}
    # thm15 at L 2 and 3; thm13 and cor17 need L > 6D = 3
    cfg15 = VerifierConfig(L_values=(2, 3), K=0, tolerance=0)
    cfg13 = VerifierConfig(L_values=(4, 5), K=0, tolerance=0)
    reports = word_metric_dilation_report(target, _UNIT, cfg15, tables=tables)
    for variant in ("tight", "plain-log4"):
        reports += cobounded_dilation_report(target, _UNIT, cfg13, variant,
                                             tables=tables)
    for r in reports[2:4]:  # thm13's windows
        cfg = VerifierConfig(L_values=(r.window_L,), K=0, tolerance=0)
        reports += ratio_envelope_report(target, _UNIT, 0, r.window_sup.hi, cfg,
                                         C0=0, tables=tables)
    for r in reports:
        assert r.verdict != VIOLATED, (r.name, r.window_L, r.bound_value,
                                       r.reference_dilation, r.extras)


# real pairs, then complex ones (a complex angle: the Mobius model acts on
# H^3); the first is the pair whose sample came nearest log 2
_DELTA_PAIRS = [(2, (0, 0.6)), (4.0, (0.0, 1.2)), (3.0, (0.3, 2.0)),
                (2.5, (0.0, 1 + 0.5j)), (4.0, (0.5, 0.2 + 1j)),
                (3.0, (1.0, 2 - 0.7j))]


@pytest.mark.parametrize("use", ["mobius", "linear"])
@pytest.mark.parametrize("stretch,angles", _DELTA_PAIRS)
def test_declared_delta_bounds_the_gromov_product_condition(stretch, angles, use):
    model = getattr(build_schottky(stretch, angles), use)
    ball = enumerate_ball(2, 4)
    rng = np.random.default_rng(0)
    words = [ball[i] for i in rng.choice(len(ball), 40, replace=False)]
    gp = np.array([[float(gromov_product(model, g, h)) for h in words]
                   for g in words])
    # excess[g, h, k] = min((g|h), (h|k)) - (g|k)
    excess = np.minimum(gp[:, :, None], gp[None, :, :]) - gp[:, None, :]
    assert excess.max() <= model.delta + _TOL, (excess.max(), model.delta)
    if use == "linear":
        assert excess.max() <= math.log(2) / 2 + _TOL, excess.max()
