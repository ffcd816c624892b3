"""Class tables from integer-coded classes: bulk lengths, names, prefixes.

Every model kind evaluates its class lengths a length block at a time
through its one bulk form, ``class_brackets``, which returns them as a
``ClassLengths`` (``class_lengths`` reads any other model class by
class).  The bulk values must be
the per-class methods' values class by class, number types included
(``_canon`` of the window oracle), and their float64 columns the
correctly rounded floats of those values.
"""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from lenspec import bounds, cli, spaces, words
from lenspec.bounds import (
    ClassTable,
    VerifierConfig,
    _class_table,
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
from test_window_oracle import _MATRIX_MODELS, _WORD_METRICS, _canon, _Listed

RADIUS = 6


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
    # the array twin of _sv_pair_2x2's s1, on entries over the whole float
    # range and on plain normal draws (where pow squares would differ),
    # each with zeros of both signs and unipotent rows
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
        got = spaces._batch_sigma1(batch)
        want = np.array([_sv_pair_2x2(m)[0] for m in batch])
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
        model.singular_gap(big)


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
    assert cut.lo == whole.lo[:len(cut)]
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
    first = _class_table(TreeModel(2, [1, 2]), TreeModel(2), 8, cfg, tables)
    other = _class_table(TreeModel(2), TreeModel(2, [3, 1]), 6, cfg, tables)
    assert other.reps == first.reps[:len(other)]
    assert other.reps == ClassTable(TreeModel(2), TreeModel(2, [3, 1]), 6).reps


def test_a_new_table_reads_the_walk_and_lengths_of_the_run(monkeypatch):
    cfg, tables = VerifierConfig(), {}
    target, tree = TreeModel(2, [1, 2]), TreeModel(2)
    first = _class_table(target, tree, 8, cfg, tables)
    walks, evaluated = [], []
    walk, real = ClassCodes.walk.__func__, bounds.class_lengths

    def counting_walk(cls, rank, radius, *args, **kwargs):
        walks.append(radius)
        return walk(cls, rank, radius, *args, **kwargs)

    def counting(model, codes, k_max):
        evaluated.append(model)
        return real(model, codes, k_max)

    monkeypatch.setattr(ClassCodes, "walk", classmethod(counting_walk))
    monkeypatch.setattr(bounds, "class_lengths", counting)
    metric = _WORD_METRICS[0]
    other = _class_table(target, metric, 6, cfg, tables)
    # the classes and the target's lengths are the first table's, cut
    assert walks == [] and evaluated == [metric]
    assert other.ref.classes is other.tgt.classes is other.classes
    assert other.tgt.lo == first.tgt.lo[:len(other)]
    assert np.shares_memory(other.tgt.lo_f, first.tgt.lo_f)
    fresh = ClassTable(target, metric, 6)
    assert other.reps == fresh.reps
    for name in ("lo", "hi"):
        assert np.array_equal(getattr(other, name), getattr(fresh, name),
                              equal_nan=True)
    # the tables keep their key, one per pair
    assert set(tables.values()) == {first, other}
    # past every radius, or under another cap, a table walks afresh
    walks.clear()
    evaluated.clear()
    _class_table(tree, metric, 9, cfg, tables)
    _class_table(tree, target, 6, VerifierConfig(class_cap=10 ** 6), tables)
    assert walks == [9, 6] and evaluated == [metric, tree, target, tree]


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
        rows = "".join(cli._csv_chunks(table)).splitlines()
        assert [r.split(",", 5)[5] for r in rows] == want
        tgt, ref = table.tgt, table.ref
        pairs = [set(zip(tgt.lo, ref.hi)), set(zip(tgt.hi, ref.lo))]
        if ref.point:
            pairs.pop()
        per_chunk = sum(len(set(zip(tgt.lo[i:i + 50], ref.hi[i:i + 50])))
                        for i in range(0, len(table), 50))
        assert len(divided) == sum(map(len, pairs)) and len(pairs[0]) < per_chunk
        assert set(divided) == set().union(*pairs)


def test_matrix_lengths_are_built_once_per_distinct_lambda1(monkeypatch):
    # radius 11: the last length block spans row chunks, and a lambda1
    # that recurs in several of them still gets one _length
    model = _MATRIX_MODELS[0]
    codes = ClassCodes.walk(2, 11)
    lam = model.class_lambda1_column(codes)
    bits = lam.view(np.int64)
    per_chunk = sum(len(np.unique(bits[i:i + ROW_CHUNK]))
                    for i in range(0, len(bits), ROW_CHUNK))
    assert len(np.unique(bits)) < per_chunk
    calls = []
    real = model._length

    def counting(lam):
        calls.append(lam)
        return real(lam)

    monkeypatch.setattr(model, "_length", counting)
    lengths = model.class_brackets(codes, 2)
    assert len(calls) == len(np.unique(bits))
    assert lengths.lo == list(map(real, lam.tolist()))
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
    table = _class_table(a, b, 4, cfg, tables)
    back = _class_table(b, a, 4, cfg, tables)
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
