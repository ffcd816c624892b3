"""Class tables from integer-coded classes: bulk lengths, names, prefixes.

Every model kind evaluates its class lengths a length block at a time
through its one bulk form, ``class_brackets``, which returns them as a
``ClassLengths`` (``class_lengths`` reads any other model class by
class).  The bulk values must be
the per-class methods' values class by class, number types included
(``_canon`` of the window oracle), and their float64 columns the
correctly rounded floats of those values.
"""

import math
import pickle
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _oracle
from lenspec import bounds, cli, spaces, words
from lenspec.actions import exact_div
from lenspec.bounds import (
    ClassTable,
    VerifierConfig,
    metric_distance_report,
)
from lenspec.cli import build_model, builtin_preset
from lenspec.errors import InputError, NumericError
from lenspec.spaces import (
    ClassLengths,
    LinearRepModel,
    MobiusModel,
    TreeModel,
    WordMetricModel,
    _lambda1,
    _lambda1_rows,
    _sv_pair_2x2,
    class_lengths,
)
from lenspec.words import ROW_CHUNK, ClassCodes, GeneratingSet, Word, iter_class_reps
from test_bounds import _count_work
from test_window_oracle import _MATRIX_MODELS, _WORD_METRICS, _canon, _Listed

RADIUS = 6
SCEN_DIR = Path(__file__).resolve().parents[1] / "src" / "lenspec" / "scenarios"


def _per_class(model, codes, k_max=2):
    if hasattr(model, "class_length"):
        vals = [model.class_length(r) for r in codes.reps]
        return vals, vals
    pairs = [model.class_length_bracket(r, k_max) for r in codes.reps]
    return [p[0] for p in pairs], [p[1] for p in pairs]


def _assert_bulk_is_per_class(model, rank=2, radius=RADIUS):
    codes = ClassCodes.walk(rank, radius)
    got = class_lengths(model, codes, 2)
    want_lo, want_hi = _per_class(model, codes)
    assert _canon(got.lo) == _canon(want_lo)
    assert _canon(got.hi) == _canon(want_hi)
    assert got.lo_f.tolist() == [float(v) for v in want_lo]
    assert got.hi_f.tolist() == [float(v) for v in want_hi]
    return got.lo, got.hi


# ------------------------------------------------------------ bulk lengths


# every tree is bulk, its sums in int64 or, past it, in Python ints
# ([0.1, 100.0]: 100 scaled by 2**55, six times, passes 2**63);
# small_ints: every length is an int below 2**53, so the float64 column
# holds it exactly
@pytest.mark.parametrize("weights,small_ints", [
    ([1, 2], True),
    ([10 ** 6, 999_983], True),
    ([2 ** 60, 3], False),
    ([Fraction(3, 2), Fraction(1, 3)], False),
    ([0.5, 1 / 3], False),
    ([1, 0.5], False),
    ([Fraction(1, 3), 0.1], False),
    ([2, Fraction(5, 7), 0.3], False),
    ([0.1, 100.0], False),
], ids=str)
def test_tree_bulk_lengths_are_class_length(weights, small_ints):
    model = TreeModel(len(weights), weights)
    assert model.class_brackets(ClassCodes.walk(model.rank, 1), 2) is not None
    vals, _ = _assert_bulk_is_per_class(model, model.rank,
                                        RADIUS if model.rank == 2 else 4)
    assert all(type(v) is int and v < 2 ** 53 for v in vals) == small_ints


def test_tree_bulk_types_follow_the_weights():
    # a tree with a weight that is not an int gives Fractions, whole ones too
    codes = ClassCodes.walk(2, 2)
    vals = class_lengths(TreeModel(2, [1, 0.5]), codes, 2).lo
    by_name = dict(zip(codes.names(), vals))
    assert _canon([by_name["a"], by_name["aa"], by_name["b"], by_name["ab"]]) \
        == _canon([Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 2)])
    vals = class_lengths(TreeModel(2, [1, 2.0]), codes, 2).lo
    assert all(type(v) is int for v in vals)


def _gathered(model, codes):
    """A tree's lengths over ``codes`` as the ``scaled_sums`` gather reads
    them: the row sums divided back by ``_den``, and their floats."""
    total = np.concatenate([model.scaled_sums(b) for b in codes.blocks])
    if model._den == 1:
        return total.tolist(), total.astype(np.float64)
    vals = [Fraction(v, model._den) for v in total.tolist()]
    return vals, np.array(list(map(float, vals)))


# a tree whose letters weigh alike gives each length block one value with
# no gather; 2**60 + 1 sums past int64 and rounds in float64
@pytest.mark.parametrize("w", [1, 7, 2**60 + 1, Fraction(2, 3), 0.1, 2.5],
                         ids=str)
@pytest.mark.parametrize("rank,radius", [(1, 8), (2, 8), (3, 7)])
def test_uniform_tree_blocks_are_the_gathered_sums(rank, radius, w):
    model = TreeModel(rank, [w] * rank)
    codes = ClassCodes.walk(rank, radius)
    got = model.class_brackets(codes, 2)
    vals, floats = _gathered(model, codes)
    assert got.point
    assert [(type(v), v) for v in got.lo] == [(type(v), v) for v in vals]
    assert got.kinds == frozenset(map(type, vals))
    assert got.lo_f.dtype == np.float64
    assert np.array_equal(got.lo_f.view(np.int64), floats.view(np.int64))


# every set is bulk: a float weight is the Fraction it equals
@pytest.mark.parametrize("model", [
    *_WORD_METRICS,
    WordMetricModel(GeneratingSet(2, ["a", "A", "b", "B", "ab", "BA"],
                                  [1.5, 1.5, 0.7, 0.7, 1.1, 2.3])),
    WordMetricModel(GeneratingSet(2, ["a", "A", "b", "B", "ab"],
                                  [1, 1, 0.5, 0.5, 1])),
    WordMetricModel(GeneratingSet.standard(2, [1, 3])),
    WordMetricModel(GeneratingSet.standard(2, [1, Fraction(3, 2)])),
    # a = (ab)(B) costs 2 < 5, and with no piece "a" only the letter-cost
    # cap spells a class holding a
    WordMetricModel(GeneratingSet(2, ["a", "A", "b", "B", "ab"],
                                  [5, 1, 1, 1, 1])),
    WordMetricModel(GeneratingSet(2, ["ab", "A", "b", "B"])),
], ids=["shortcut", "asymmetric-fraction", "float", "mixed", "standard",
        "standard-fraction", "cancelling", "no-piece"])
def test_word_metric_bulk_brackets_are_class_length_bracket(model):
    assert model.class_brackets(ClassCodes.walk(2, 1), 2) is not None
    lo, hi = _assert_bulk_is_per_class(model)
    assert any(a != b for a, b in zip(lo, hi)) or model._standard


# past int64 the bulk form declines and the table reads class by class: a
# 31-letter piece keys in base 4 at 4**31 = 2**62, and a weight of 2**60
# passes the scaled-cost bound
@pytest.mark.parametrize("elements,weights", [
    (["a", "A", "b", "B", "a" * 31], None),
    (["a", "A", "b", "B", "ab"], [1, 1, 1, 1, 2 ** 60]),
], ids=["long-piece", "heavy-weight"])
def test_word_metric_bulk_declines_past_int64(elements, weights):
    model = WordMetricModel(GeneratingSet(2, elements, weights))
    assert model.class_brackets(ClassCodes.walk(2, 1), 2) is None
    _assert_bulk_is_per_class(model, radius=3)


def _complex_rotation(t):
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


_COMPLEX_MOBIUS = MobiusModel(
    [_complex_rotation(0.7), np.array([[2.0, 1j], [0.0, 0.5]])], dim=3)


@pytest.mark.parametrize("model", [*_MATRIX_MODELS, _COMPLEX_MOBIUS],
                         ids=["schottky-mobius", "schottky-linear",
                              "elliptic-mobius", "linear", "complex-mobius"])
def test_matrix_bulk_lengths_are_class_length_bit_for_bit(model):
    vals, _ = _assert_bulk_is_per_class(model)
    if model in (_MATRIX_MODELS[2], _COMPLEX_MOBIUS):
        assert 0.0 in vals  # an elliptic class
    assert all(type(v) is float for v in vals)


@pytest.mark.parametrize("model", [*_MATRIX_MODELS, _COMPLEX_MOBIUS],
                         ids=["schottky-mobius", "schottky-linear",
                              "elliptic-mobius", "linear", "complex-mobius"])
def test_matrix_class_length_is_the_rule_of_its_kind(model):
    # the one floor-and-scale rule against each kind's own per-class rule
    # (_oracle.matrix_length), to the bit
    for rep in ClassCodes.walk(2, RADIUS).reps:
        want = _oracle.matrix_length(model, model.class_lambda1(rep))
        assert model.class_length(rep).hex() == want.hex()


def _random_2x2_model(kind: int, seed: int):
    """Random 2x2 generators of a Mobius model in the plane (kind 0) or in
    space (1), or of a real (2) or complex (3) linear one; on odd seeds
    the second generator is a rotation, so some classes are elliptic."""
    rng = np.random.default_rng(seed)
    mats = [rng.standard_normal((2, 2)) for _ in range(2)]
    mats = [m if np.linalg.det(m) > 0 else m[::-1] for m in mats]
    if kind in (1, 3):
        mats = [m + 0.5j * rng.standard_normal((2, 2)) for m in mats]
    if seed % 2:
        mats[1] = _complex_rotation(rng.uniform(0, 3)) if kind in (1, 3) else (
            _complex_rotation(rng.uniform(0, 3)).real)
    return MobiusModel(mats, dim=2 + kind) if kind < 2 else LinearRepModel(mats)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.integers(0, 2**32 - 1))
def test_bulk_matrix_lengths_are_the_per_class_rule(kind, seed):
    # class_brackets' one pass over the distinct lambda1 against the rule
    # of the model's kind class by class, to the bit; the lengths live in
    # the float column alone and read back as Python floats
    model = _random_2x2_model(kind, seed)
    codes = ClassCodes.walk(2, 5)
    got = model.class_brackets(codes, 2)
    lam = [model.class_lambda1(r) for r in codes.reps]
    want = np.array([_oracle.matrix_length(model, x) for x in lam])
    assert got.lo is got.hi and got.kinds == {float}
    assert np.array_equal(got.lo_f.view(np.int64), want.view(np.int64))
    assert [v.hex() for v in got.lo] == [v.hex() for v in want.tolist()]
    assert all(type(v) is float for v in got.lo)
    assert isinstance(got.lo, words._Column) and got.lo.floats is got.lo_f


def test_cobounded_table_lengths_keep_math_log():
    # schottky-cobounded's radius-12 table holds 49,571 distinct lambda1,
    # 6 of which np.log rounds apart from math.log
    model = _MATRIX_MODELS[0]
    codes = ClassCodes.walk(2, 12)
    lam = model.class_lambda1_column(codes)
    assert len(np.unique(lam)) == 49_571
    want = np.array([_oracle.matrix_length(model, x) for x in lam.tolist()])
    got = model.class_brackets(codes, 2).lo_f
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


# three generators, one unipotent: its powers have a zero discriminant,
# which _lambda1_rows hands to _lambda1
_RANK3_LINEAR = LinearRepModel([np.array([[2.0, 1.0], [1.0, 1.0]]),
                                np.array([[0.3, -1.1], [0.9, 0.4]]),
                                np.array([[1.0, 0.0], [3.0, 1.0]])])


# the last length block is cut into row chunks (radius 11 at rank 2, 7 at
# rank 3), so the prefix runs of a column step start afresh at each cut
@pytest.mark.parametrize("model,rank,radius", [
    *((m, 2, 11) for m in (*_MATRIX_MODELS, _COMPLEX_MOBIUS)),
    (_RANK3_LINEAR, 3, 7),
], ids=["schottky-mobius", "schottky-linear", "elliptic-mobius", "linear",
        "complex-mobius", "rank-3-linear"])
def test_lambda1_column_is_class_lambda1_bit_for_bit(model, rank, radius):
    codes = ClassCodes.walk(rank, radius)
    assert len(codes.blocks[-1]) > ROW_CHUNK
    got = model.class_lambda1_column(codes)
    want = np.array([model.class_lambda1(r) for r in codes.reps])
    # the bits, not ==, which holds for 0.0 against -0.0
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _wide_draw(rng, n=20_000):
    # floats over the whole range, subnormals included, zeros of both
    # signs and infinities
    with np.errstate(all="ignore"):
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-320, 320, n)
    x[rng.random(n) < 0.1] = 0.0
    x[rng.random(n) < 0.05] = -0.0
    x[rng.random(n) < 0.01] = np.inf
    x[rng.random(n) < 0.01] = -np.inf
    return x


def test_lambda1_rows_is_lambda1_bit_for_bit():
    # traces and determinants over the whole float range, zeros of both
    # signs, infinities and exact zero discriminants; real input (parts
    # (real,) only) takes the real branch
    rng = np.random.default_rng(7)
    for real in (False, True):
        trr, tri, dr, di = (_wide_draw(rng) for _ in range(4))
        if real:
            tri, di = np.zeros_like(trr), np.zeros_like(dr)
        trr[:50], tri[:50], dr[:50], di[:50] = 2.0, 0.0, 1.0, 0.0
        trr[50:100], dr[50:100] = -3.0, 2.25
        rows = []
        for row in zip(trr, tri, dr, di):
            try:
                want = _lambda1(complex(row[0], row[1]), complex(row[2], row[3]))
            except (NumericError, OverflowError):
                continue
            rows.append((*row, want))
        trr, tri, dr, di, want = map(np.array, zip(*rows))
        if real:
            with np.errstate(all="ignore"):
                disc = trr * trr - 4.0 * dr
            assert (disc > 0).sum() > 1000 and (disc < 0).sum() > 1000
        got = _lambda1_rows(*(((trr,), (dr,)) if real else ((trr, tri), (dr, di))))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_batch_sigma1_is_sv_pair_bit_for_bit(dtype):
    # _batch_svals is the array twin of _sv_pair_2x2's pair (s1, s2), on
    # entries over the whole float range and on plain normal draws (where
    # pow squares would differ), each with zeros of both signs and
    # unipotent rows
    rng = np.random.default_rng(35)
    wide = np.stack([_wide_draw(rng, 4 * 10_000) for _ in range(2)])
    normal = rng.standard_normal((2, 4 * 50_000))
    for re, im in (wide, normal):
        batch = re.astype(dtype).reshape(-1, 2, 2)
        if dtype is np.complex128:
            batch.imag = im.reshape(-1, 2, 2)
            batch.imag[:100] = np.copysign(0.0, rng.standard_normal((100, 2, 2)))
        batch.real[:100] = np.copysign(0.0, rng.standard_normal((100, 2, 2)))
        batch[100:200] = [[1.0, 1.0], [0.0, 1.0]]
        got = spaces._batch_svals(batch)
        want = np.array([_sv_pair_2x2(m) for m in batch])
        # the bits, not ==; abs() of a complex with a NaN part is CPython's
        # one NaN, so a NaN's sign and payload are not part of the contract
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def test_sv_pair_overflow_is_a_numeric_error():
    # finite parts whose modulus passes the float range: abs() overflows
    big = np.array([[1.3e308 + 1.3e308j, 0.0], [0.0, 1.0]])
    with pytest.raises(NumericError, match="overflow"):
        _sv_pair_2x2(big)
    model = MobiusModel([np.eye(2, dtype=complex)], dim=3)
    with pytest.raises(NumericError, match="overflow"):
        model.singular_gaps(big[None])


def test_linear_beyond_2x2_goes_class_by_class():
    model = LinearRepModel([np.diag([2.0, 1.0, 0.5]),
                            np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0],
                                      [0.0, 0.0, 1.0]])])
    assert model.class_brackets(ClassCodes.walk(2, 1), 2) is None
    _assert_bulk_is_per_class(model, radius=3)


# the model kinds the scenarios and presets build; a per-class fallback
# would keep every value and lose only the speed, so the dispatch is pinned
@pytest.mark.parametrize("spec", [
    {"kind": "tree"},
    {"kind": "tree", "weights": [1, 2]},
    {"kind": "tree", "weights": [1, 0.5]},
    {"kind": "word-metric", "elements": ["a", "A", "b", "B"]},
    {"kind": "word-metric", "elements": ["a", "A", "b", "B", "ab", "BA"]},
    builtin_preset("cor17-default"),
    {**builtin_preset("cor17-default"), "use": "linear"},
    {"kind": "schottky", "stretch": 4.0, "angles": [0.0, 1.2j]},
], ids=["tree", "tree-int", "tree-fraction", "word-metric-standard",
        "word-metric", "preset-mobius", "preset-linear", "schottky-space"])
def test_every_built_model_kind_has_a_bulk_form(spec):
    model = build_model(spec, 2)
    assert type(model) in spaces._BULK_MODELS
    assert model.class_brackets(ClassCodes.walk(2, 3), 2) is not None


def test_overridden_class_length_is_evaluated_class_by_class(monkeypatch):
    bulk = []
    real = TreeModel.class_brackets

    def counting(self, codes, k_max):
        bulk.append(self)
        return real(self, codes, k_max)

    monkeypatch.setattr(TreeModel, "class_brackets", counting)
    listed = _Listed({"b": Fraction(7, 3), "aB": 5})
    # a subclass that keeps the tree's class_length is read class by
    # class too, with the values of its bulk form
    plain = type("Plain", (TreeModel,), {})(2, [1, 2])
    table = ClassTable(listed, plain, 3)
    assert bulk == []
    by_name = dict(zip(table.classes.names(), table.tgt.lo))
    assert by_name["b"] == Fraction(7, 3) and by_name["aB"] == 5
    assert _canon(table.tgt.lo) == _canon(_per_class(listed, table.classes)[0])
    want = class_lengths(TreeModel(2, [1, 2]), table.classes, 2)
    assert len(bulk) == 1
    got = table.ref
    assert _canon((got.lo, got.hi)) == _canon((want.lo, want.hi))
    assert [got.lo_f.tolist(), got.hi_f.tolist()] == [want.lo_f.tolist(),
                                                      want.hi_f.tolist()]


class _NoLengths:
    rank = 2


# ------------------------------------------------------------ ClassLengths


_SHORTCUT = WordMetricModel(GeneratingSet(2, ["a", "A", "b", "B", "ab", "BA"]))


def _point(lengths: ClassLengths) -> bool:
    # one list and one column under both names
    return lengths.point and lengths.lo_f is lengths.hi_f


# a bulk form that states the types of its lengths states them exactly,
# for the whole listing, a prefix and no classes at all; classes.csv
# renders a column from its float bits only when they are one type
@pytest.mark.parametrize("model", [
    TreeModel(2, [1, 2]),
    TreeModel(2, [Fraction(3, 2), 1]),
    TreeModel(2, [2 ** 60, 3]),
    *_MATRIX_MODELS,
    _SHORTCUT,
    _Listed({"b": Fraction(7, 3), "aB": 5}),
    # a Fraction past the prefix: the prefix holds ints alone
    _Listed({"abAB": Fraction(1, 2)}),
], ids=["tree-int", "tree-fraction", "tree-past-int64", "schottky-mobius",
        "schottky-linear", "elliptic-mobius", "linear", "word-metric",
        "class-by-class", "class-by-class-prefix"])
def test_kinds_are_the_types_of_the_lengths(model):
    for radius in (0, 4):
        lengths = class_lengths(model, ClassCodes.walk(2, radius), 2)
        for part in (lengths, lengths.over(lengths.classes.prefix(2))):
            assert part.kinds == set(map(type, [*part.lo, *part.hi]))


def test_a_point_prefix_stays_one_object():
    codes = ClassCodes.walk(2, 5)
    whole = class_lengths(TreeModel(2, [1, 2]), codes, 2)
    assert _point(whole) and len(whole) == len(codes)
    assert whole.over(codes) is whole
    cut = whole.over(codes.prefix(3))
    assert _point(cut) and len(cut) == len(codes.prefix(3))
    assert _canon(cut.lo) == _canon(whole.lo[:len(cut)])
    assert np.shares_memory(cut.lo_f, whole.lo_f)
    # a bracket's prefix keeps its two ends apart
    brackets = class_lengths(_SHORTCUT, codes, 2).over(codes.prefix(3))
    assert not brackets.point and brackets.lo_f is not brackets.hi_f
    assert len(brackets.lo) == len(brackets.hi) == len(brackets.lo_f) == len(cut)


@pytest.mark.parametrize("model", [TreeModel(2, [1, 2]), _SHORTCUT],
                         ids=["point", "bracket"])
def test_rows_across_a_row_chunk_boundary(model):
    codes = ClassCodes.walk(2, 10)
    assert len(codes) > ROW_CHUNK + 8
    lengths = class_lengths(model, codes, 2)
    assert (lengths.lo is lengths.hi) == lengths.point
    start, stop = ROW_CHUNK - 5, ROW_CHUNK + 5
    lo, hi = lengths.lo[start:stop], lengths.hi[start:stop]
    want = _per_class(model, SimpleNamespace(reps=codes.reps[start:stop]))
    assert _canon([lo, hi]) == _canon(list(want))


def test_a_class_length_subclass_reads_as_a_point():
    plain = type("Plain", (TreeModel,), {})(2, [1, 2])
    codes = ClassCodes.walk(2, 4)
    lengths = class_lengths(plain, codes, 2)
    assert _point(lengths)
    assert _canon(lengths.lo) == _canon(class_lengths(TreeModel(2, [1, 2]),
                                                      codes, 2).lo)


# a non-standard word metric keeps two ends, in bulk and class by class
# (a 31-letter piece makes the bulk form decline)
@pytest.mark.parametrize("model", [
    _SHORTCUT,
    WordMetricModel(GeneratingSet(2, ["a", "A", "b", "B", "a" * 31])),
], ids=["bulk", "class-by-class"])
def test_a_word_metric_bracket_keeps_distinct_ends(model):
    lengths = class_lengths(model, ClassCodes.walk(2, 3), 2)
    assert not lengths.point and lengths.lo_f is not lengths.hi_f
    assert any(a != b for a, b in zip(lengths.lo, lengths.hi))


def test_a_model_without_per_class_lengths_is_rejected():
    with pytest.raises(InputError, match="_NoLengths"):
        ClassTable(_NoLengths(), TreeModel(2), 2)


# ------------------------------------------------- column-backed sides


def _typed_reprs(values) -> list:
    # a float's repr is its bits up to a NaN's payload, and keeps -0.0
    return [(type(v), repr(v)) for v in values]


_COLUMN_MODELS = st.one_of(
    st.builds(lambda w: TreeModel(len(w), w),
              st.lists(st.integers(1, 10 ** 6), min_size=2, max_size=2)),
    st.builds(_random_2x2_model, st.integers(0, 3), st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=40, deadline=None)
@given(_COLUMN_MODELS, st.integers(0, 8), st.data())
def test_column_sides_read_back_the_per_class_lengths(model, radius, data):
    # an int-weight tree and a 2x2 Mobius or linear model keep their
    # lengths in the float column alone; every read of it (an index, a
    # slice, iteration, a prefix through over()) gives the class_length of
    # its class, the same Python value of the same type, never a numpy one
    codes = ClassCodes.walk(2, radius)
    got = class_lengths(model, codes, 2)
    want = [model.class_length(r) for r in codes.reps]
    assert isinstance(got.lo, words._Column) and got.lo.floats is got.lo_f
    assert _point(got) and len(got.lo) == len(want)
    assert _typed_reprs(got.lo) == _typed_reprs(want)
    assert _typed_reprs(got.lo[i] for i in range(-len(want), len(want))) == (
        _typed_reprs(want + want))
    cut = slice(*data.draw(st.tuples(st.integers(-5, 300), st.integers(-5, 300),
                                     st.sampled_from([None, 1, 2, 7, -1, -3]))))
    assert _typed_reprs(got.lo[cut]) == _typed_reprs(want[cut])
    assert np.shares_memory(got.lo[cut].floats, got.lo_f) or not len(want[cut])
    prefix = codes.prefix(data.draw(st.integers(0, radius)))
    part = got.over(prefix)
    assert _point(part) and isinstance(part.lo, words._Column)
    assert _typed_reprs(part.lo) == _typed_reprs(want[:len(prefix)])
    with pytest.raises(IndexError):
        got.lo[len(want)]


@pytest.mark.parametrize("model", [
    TreeModel(2, [1, Fraction(1, 2)]),
    TreeModel(2, [Fraction(3, 2)] * 2),
    TreeModel(2, [2 ** 60, 3]),
    _SHORTCUT,
], ids=["fraction-tree", "uniform-fraction-tree", "tree-past-2**53", "word-metric"])
def test_lengths_a_column_cannot_hold_are_listed(model):
    # Fractions and ints of 2**53 or more keep their per-class lists, and a
    # standard word metric reads its tree's column
    lengths = class_lengths(model, ClassCodes.walk(2, 4), 2)
    assert type(lengths.lo) is list and type(lengths.hi) is list
    standard = WordMetricModel(GeneratingSet(2, ["a", "A", "b", "B"], [1, 1, 3, 3]))
    assert type(class_lengths(standard, ClassCodes.walk(2, 4), 2).lo) is words._Column


@pytest.mark.parametrize("target", [builtin_preset("cor17-default"),
                                    {"kind": "tree", "weights": [1, 2]}],
                         ids=["cor17-default", "weights-1-2"])
def test_radius_12_table_bytes_per_class(target):
    # the live bytes a radius-12 table over the unit tree holds per class,
    # its codes, its two sides' float columns and its one ratio column
    # (two points share it): 37.8 and 36.5 bytes, against 78.9 and 60.5
    # when every length was also a list entry
    target, unit = build_model(target, 2), TreeModel(2)
    ClassTable(target, unit, 4)   # every first-call cache, outside the window
    tracemalloc.start()
    try:
        table = ClassTable(target, unit, 12, tables={})
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(table) == 69996 and live / len(table) <= 45, live / len(table)
    assert table.lo is table.hi


def _transient(build) -> tuple:
    """(build(), its transient): the tracemalloc peak of the call above the
    memory still traced once it has returned."""
    tracemalloc.start()
    try:
        out = build()
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - live


class _Sink:
    """A binary file that keeps only the number of bytes written to it."""

    size = 0

    def write(self, data):
        self.size += len(data)

    def writelines(self, chunks):
        for c in chunks:
            self.write(c)


# the working memory of the class pipeline at radius 12 (69,996 classes of
# rank 2): besides a table's own columns, every temporary spans one
# ROW_CHUNK slice or is of the least type that holds it.  Each step's
# transient stays within 3 MB; whole-table temporaries took 4.71 MB in the
# walk, 3.98 MB in the cor17-default lengths and 4.41 MB in writing
# schottky-cobounded's classes.csv
_TRANSIENT_LIMIT = 3 * 2 ** 20


def test_radius_12_walk_transient():
    ClassCodes.walk(2, 4)
    codes, transient = _transient(lambda: ClassCodes.walk(2, 12))
    assert len(codes) == 69996 and transient <= _TRANSIENT_LIMIT, transient


def test_radius_12_matrix_lengths_transient():
    model = build_model(builtin_preset("cor17-default"), 2)
    codes = ClassCodes.walk(2, 12)
    model.class_brackets(ClassCodes.walk(2, 4), 2)
    lengths, transient = _transient(lambda: model.class_brackets(codes, 2))
    assert lengths.kinds == {float} and transient <= _TRANSIENT_LIMIT, transient


def test_radius_12_classes_csv_transient():
    scen = cli.load_scenario(SCEN_DIR / "schottky-cobounded.json")
    cfg = scen.config()
    target, reference = cli._models(scen)
    listing = cli._class_listing(scen, cfg, target, reference, tables={})
    cli._write_classes(_Sink(), ClassTable(target, reference, 4))
    sink = _Sink()
    _, transient = _transient(lambda: cli._write_classes(sink, listing))
    assert len(listing) == 69996 and sink.size > 6 * 10 ** 6
    assert transient <= _TRANSIENT_LIMIT, transient


# ------------------------------------------------------------ class codes


def test_code_blocks_hold_the_reps():
    codes = ClassCodes.walk(3, 5)
    assert codes.reps == iter_class_reps(3, 5)
    letter = [-(c // 2 + 1) if c & 1 else c // 2 + 1 for c in range(6)]
    rows = [tuple(letter[c] for c in row)
            for b in codes.blocks for row in b.tolist()]
    assert rows == codes.reps
    assert [b.shape[1] for b in codes.blocks] == [1, 2, 3, 4, 5]
    assert len(codes) == len(codes.reps)
    assert [codes.rep(i) for i in range(len(codes))] == codes.reps
    with pytest.raises(IndexError):
        codes.rep(len(codes))
    cut = codes.prefix(3)
    assert cut.reps == iter_class_reps(3, 3) and cut.radius == 3
    assert codes.prefix(5) is codes


# rank 128: the letter 128 needs a wider type than int8
@pytest.mark.parametrize("rank,radius", [(2, 6), (27, 2), (30, 3), (128, 2)])
def test_names_are_the_words_as_text(rank, radius):
    codes = ClassCodes.walk(rank, radius)
    assert list(codes.names()) == [str(Word(r)) for r in codes.reps]


def test_names_past_rank_26_join_the_letters():
    names = dict(zip(ClassCodes.walk(27, 2).reps, ClassCodes.walk(27, 2).names()))
    assert names[(1, -27)] == "1.-27" and names[(1, -26)] == "aZ"


# ------------------------------------------------- tables of one rank


def test_tables_of_one_rank_hold_the_same_classes():
    cfg, tables = VerifierConfig(), {}
    first = ClassTable(TreeModel(2, [1, 2]), TreeModel(2), 8, cfg, tables)
    other = ClassTable(TreeModel(2), TreeModel(2, [3, 1]), 6, cfg, tables)
    assert other.reps == first.reps[:len(other)]
    assert other.reps == ClassTable(TreeModel(2), TreeModel(2, [3, 1]), 6).reps


def test_a_new_table_reads_the_walk_and_lengths_of_the_run(monkeypatch):
    cfg, tables = VerifierConfig(), {}
    target, tree = TreeModel(2, [1, 2]), TreeModel(2)
    first = ClassTable(target, tree, 8, cfg, tables)
    walks, evaluated = _count_work(monkeypatch)
    metric = _WORD_METRICS[0]
    other = ClassTable(target, metric, 6, cfg, tables)
    # the classes and the target's lengths are the first table's, cut
    assert walks == [] and evaluated == [(metric, 6)]
    assert other.ref.classes is other.tgt.classes is other.classes
    assert _canon(other.tgt.lo) == _canon(first.tgt.lo[:len(other)])
    assert np.shares_memory(other.tgt.lo_f, first.tgt.lo_f)
    fresh = ClassTable(target, metric, 6)
    assert other.reps == fresh.reps
    for name in ("lo", "hi"):
        assert np.array_equal(getattr(other, name), getattr(fresh, name),
                              equal_nan=True)
    # past every radius a table walks and evaluates anew; under another
    # cap it walks anew and reads the lengths of the run
    walks.clear()
    evaluated.clear()
    ClassTable(tree, metric, 9, cfg, tables)
    ClassTable(tree, target, 6, VerifierConfig(class_cap=10 ** 6), tables)
    assert walks == [9, 6] and evaluated == [(metric, 9), (tree, 9)]


def test_a_model_on_both_sides_is_evaluated_once(monkeypatch):
    evaluated = []
    real = bounds.class_lengths

    def counting(model, codes, k_max):
        evaluated.append(model)
        return real(model, codes, k_max)

    monkeypatch.setattr(bounds, "class_lengths", counting)
    model = TreeModel(2, [1, 2])
    table = ClassTable(model, model, 5)
    assert evaluated == [model] and table.ref is table.tgt
    assert np.all(table.lo[table.positive] == 1)


def test_exact_ratio_cells_divide_once_per_distinct_pair(monkeypatch):
    # classes.csv in chunks of 50 rows: the operand pairs of the ratio
    # cells recur across chunks, yet the renderer divides each distinct
    # pair of the listing once, (tgt.lo, ref.hi) for ratio_lo and (tgt.hi,
    # ref.lo) for ratio_hi, one table of them when both sides are points
    divided = []
    real = cli.exact_div

    def counting(a, b):
        divided.append((a, b))
        return real(a, b)

    monkeypatch.setattr(cli, "exact_div", counting)
    monkeypatch.setattr(words, "ROW_CHUNK", 50)
    bracket = WordMetricModel(GeneratingSet(2, ["a", "A", "b", "B", "aB"],
                                            [1, 1, Fraction(3, 2), 2, 1]))
    for reference in (TreeModel(2, [3, 1]), bracket):
        table = ClassTable(TreeModel(2, [1, 2]), reference, 8)
        assert table.exact_pairs and table.positive.all()
        want = [f"{table.ratio_lo(i)},{table.ratio_hi(i)}" for i in range(len(table))]
        divided.clear()
        rows = b"".join(cli._csv_chunks(table)).decode().splitlines()
        assert [r.split(",", 5)[5] for r in rows] == want
        tgt, ref = table.tgt, table.ref
        pairs = [set(zip(tgt.lo, ref.hi)), set(zip(tgt.hi, ref.lo))]
        if ref.point:
            pairs.pop()
        per_chunk = sum(len(set(zip(tgt.lo[i:i + 50], ref.hi[i:i + 50])))
                        for i in range(0, len(table), 50))
        assert len(divided) == sum(map(len, pairs)) and len(pairs[0]) < per_chunk
        assert set(divided) == set().union(*pairs)


def test_a_column_side_divides_once_per_distinct_value_pair(monkeypatch):
    # a tree's int lengths above 256 read from its column as new objects
    # each time, so they are grouped by their bits and never by identity:
    # the table's ratio columns and classes.csv's exact ratio cells divide
    # once per distinct (top, bottom) pair of values against a word
    # metric's Fraction brackets, each division reading its top once
    metric = WordMetricModel(GeneratingSet(2, ["a", "A", "b", "B", "ab"]))
    target = TreeModel(2, [300, 7])
    reads, divided = [], []
    read, real = words._Column.__getitem__, cli.exact_div

    def counting_read(col, i):
        reads.append(i)
        return read(col, i)

    def counting(a, b):
        divided.append((a, b))
        return real(a, b)

    monkeypatch.setattr(words._Column, "__getitem__", counting_read)
    monkeypatch.setattr(cli, "exact_div", counting)
    table = ClassTable(target, metric, 8)
    table_reads = len(reads)
    reads.clear()
    rows = b"".join(cli._csv_chunks(table)).decode().splitlines()
    csv_reads = len(reads)
    tgt, ref = table.tgt, table.ref
    assert isinstance(tgt.lo, words._Column) and type(ref.lo) is list
    assert table.exact_pairs and not table.floats_exact and table.positive.all()
    pairs = [{(t, type(b), b) for t, b in zip(tgt.lo, ref.hi)},
             {(t, type(b), b) for t, b in zip(tgt.hi, ref.lo)}]
    assert max(t for t, _, _ in pairs[0]) > 256 and len(pairs[0]) < len(table) / 10
    assert table_reads == csv_reads == len(divided) == sum(map(len, pairs))
    for column, (tops, bottoms) in ((table.lo, (tgt.lo, ref.hi)),
                                    (table.hi, (tgt.hi, ref.lo))):
        want = [float(exact_div(t, b)) for t, b in zip(tops, bottoms)]
        assert np.array_equal(column, want)
    assert {(t, type(b), b) for t, b in divided} == pairs[0] | pairs[1]
    assert [r.split(",", 5)[5] for r in rows] == [
        f"{table.ratio_lo(i)},{table.ratio_hi(i)}" for i in range(len(table))]


def test_matrix_lengths_are_built_once_per_distinct_lambda1(monkeypatch):
    # radius 11: the last length block spans row chunks, and a lambda1
    # that recurs in several of them still gets one logarithm (every
    # class of this model is hyperbolic, so each distinct lambda1 takes one)
    model = _MATRIX_MODELS[0]
    codes = ClassCodes.walk(2, 11)
    lam = model.class_lambda1_column(codes)
    bits = lam.view(np.int64)
    per_chunk = sum(len(np.unique(bits[i:i + ROW_CHUNK]))
                    for i in range(0, len(bits), ROW_CHUNK))
    assert len(np.unique(bits)) < per_chunk
    assert lam.min() > 1.0 + 1e-12
    calls = []
    log = math.log

    def counting(x):
        calls.append(x)
        return log(x)

    monkeypatch.setattr(spaces.math, "log", counting)
    lengths = model.class_brackets(codes, 2)
    monkeypatch.undo()
    assert len(calls) == len(np.unique(bits))
    assert list(lengths.lo) == list(map(model._length, lam.tolist()))
    assert np.array_equal(lengths.lo_f, np.array(lengths.lo))


# ------------------------------------------------------- swapped tables


def test_swapped_tables_evaluate_each_model_once(monkeypatch):
    evaluated = []
    real = bounds.class_lengths

    def counting(model, codes, k_max):
        evaluated.append(model)
        return real(model, codes, k_max)

    monkeypatch.setattr(bounds, "class_lengths", counting)
    # an elliptic generator: zero reference lengths once swapped
    a, b = _MATRIX_MODELS[2], TreeModel(2, [1, 2])
    cfg, tables = VerifierConfig(), {}
    table = ClassTable(a, b, 4, cfg, tables)
    back = ClassTable(b, a, 4, cfg, tables)
    assert len(evaluated) == 2 and evaluated[0] is b and evaluated[1] is a
    assert back.ref is table.tgt and back.tgt is table.ref
    fresh = ClassTable(b, a, 4)
    assert back.reps == fresh.reps and back.ties_exact == fresh.ties_exact
    for name in ("lo", "hi", "positive"):
        assert np.array_equal(getattr(back, name), getattr(fresh, name),
                              equal_nan=True)
    evaluated.clear()
    metric_distance_report(a, b, VerifierConfig(L_values=(3,), radius_cap=4))
    assert sorted(map(id, evaluated)) == sorted(map(id, (a, b)))


# ------------------------------------------------------------ ratio columns


_EXACTS = st.one_of(st.integers(-10**20, 10**20),
                    st.fractions(-10**6, 10**6, max_denominator=10**6))
_VALUES = st.one_of(_EXACTS, st.floats(-1e6, 1e6),
                    st.sampled_from([0, 0.0, -0.0, Fraction(0), 1, 1.0]))


def _fresh(v):
    """An equal value of the same type, a new object where Python makes one."""
    return pickle.loads(pickle.dumps(v))


def _picked(pool, picks):
    """A table-like list: row i the pool value picks[i][0] names, a fresh
    copy of it where picks[i][1]."""
    return [_fresh(v) if new else v
            for v, new in ((pool[k % len(pool)], new) for k, new in picks)]


_PICKS = st.lists(st.tuples(st.integers(0, 5), st.booleans()), max_size=40)


@settings(max_examples=200, deadline=None)
@given(st.lists(_VALUES, min_size=1, max_size=6),
       st.lists(_VALUES.filter(lambda v: v > 0), min_size=1, max_size=6),
       _PICKS, _PICKS, st.integers(0, 2**40 - 1))
@example([0.0, -0.0, 1, 1.0], [Fraction(1, 3)], [(k, False) for k in range(4)],
         [(0, False)] * 4, 15)
def test_ratio_column_is_the_per_row_division(tops, bottoms, top_picks,
                                              bottom_picks, mask):
    # one division per distinct pair of objects against
    # float(exact_div(t, b)) row by row (_oracle.ratio_column), to the bit:
    # ints, Fractions and floats, 0 against 0.0 against -0.0, rows that
    # share their objects and rows that hold equal fresh ones.  A table
    # divides where its reference is positive, so every bottom is.
    n = min(len(top_picks), len(bottom_picks))
    tops, bottoms = _picked(tops, top_picks[:n]), _picked(bottoms, bottom_picks[:n])
    positive = np.array([mask >> i & 1 for i in range(n)], bool)
    got = bounds._ratio_column(tops, bottoms, positive)
    want = np.array(_oracle.ratio_column(tops, bottoms, positive), np.float64)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


class _Subnormal(TreeModel):
    """The rank-2 tree whose every class has the subnormal length 5e-324,
    a float, read class by class."""

    def class_length(self, letters):
        return 5e-324


def test_a_float_ratio_past_the_float_range_is_blanked_silently():
    # a target length over a subnormal reference length overflows the
    # float division; the row is blank (the reference lo is <= _ZERO_EPS),
    # so the table warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = ClassTable(TreeModel(2, [10 ** 10, 1]), _Subnormal(2), 3)
    assert table.floats_exact and len(table) > 0
    assert np.isnan(table.lo).all() and np.isnan(table.hi).all()
