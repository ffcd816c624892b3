"""classes.csv rendered from listing-wide tables of texts a row chunk at
a time, against the per-row path.

``cli._csv_chunks`` renders each distinct value of a column once per
listing and gathers each chunk's fields from those texts.  The
oracle below is the per-row path it replaced: one tuple of cell values per
class (``_class_cells``, with the ratio rows of ``_exact_ratio_rows``),
each turned into one line by ``_csv_line``.  Every byte must agree, and so
must the cell values of the ``spectrum`` JSON preview, number types
included.
"""

import io
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lenspec import bounds, cli, words
from lenspec.actions import exact_div
from lenspec.bounds import ClassTable, VerifierConfig
from lenspec.spaces import (
    LinearRepModel,
    MobiusModel,
    TreeModel,
    WordMetricModel,
    build_schottky,
    class_lengths,
)
from lenspec.words import ROW_CHUNK, ClassCodes, GeneratingSet

_ZERO_EPS = bounds._ZERO_EPS
_EXACT = (int, Fraction)


# ------------------------------------------------------------------ oracle


def _exact_ratio_rows(table):
    """(r_lo, r_hi) of every class, or None where the reference lo is
    <= _ZERO_EPS; the exact_div values, read from the float columns
    wherever exact_div would return a float."""
    for rl, rh, tl, th, fl, fh in zip(table.ref.lo, table.ref.hi,
                                      table.tgt.lo, table.tgt.hi,
                                      table.lo.tolist(), table.hi.tolist()):
        if not rl > _ZERO_EPS:
            yield None
            continue
        exact_lo = isinstance(tl, _EXACT) and isinstance(rh, _EXACT)
        exact_hi = isinstance(th, _EXACT) and isinstance(rl, _EXACT)
        yield (exact_div(tl, rh) if exact_lo else fl,
               exact_div(th, rl) if exact_hi else fh)


def _class_cells(scen, cfg, target, reference, *, tables=None):
    """Per-class cells (the classes.csv header), one tuple per class: the
    class as a string, then the numbers, "" where a cell has no value."""
    radius = scen.params["radius"]
    if radius is None:
        radius = cfg.radius_cap
        if reference is not None:
            needed = reference.window_radius(max(cfg.L_values))
            radius = int(min(needed, cfg.radius_cap))
    primary = target if target is not None else reference
    if primary is None:
        return
    if target is None or reference is None:
        codes = ClassCodes.walk(scen.rank, int(radius), cfg.class_cap)
        lengths = class_lengths(primary, codes, cfg.window_k_max)
        for name, l, h in zip(codes.names(), lengths.lo, lengths.hi):
            yield name, "", "", l, h, "", ""
        return
    table = ClassTable(target, reference, radius, cfg, tables)
    for name, rlo, rhi, tlo, thi, ratio in zip(
            table.classes.names(), table.ref.lo, table.ref.hi, table.tgt.lo,
            table.tgt.hi, _exact_ratio_rows(table)):
        yield (name, rlo, rhi, tlo, thi, *(("", "") if ratio is None else ratio))


def _csv_line(cells) -> str:
    """One classes.csv row.  str() of a Fraction, int or float is its CSV
    text (a float's repr), and no cell holds a comma, quote or newline."""
    return ",".join(map(str, cells)) + "\n"


def _check(target, reference, radius, *, rank=2, cfg=None, tables=None):
    """The renderer's bytes and preview cells equal the oracle's; returns
    the rows."""
    scen = SimpleNamespace(rank=rank, params={"radius": radius})
    cfg = cfg or VerifierConfig()
    cells = list(_class_cells(scen, cfg, target, reference))
    classes = cli._class_listing(scen, cfg, target, reference, tables=tables)
    chunks = list(cli._csv_chunks(classes))
    assert all(bytes(c).count(b"\n") <= ROW_CHUNK for c in chunks)
    assert b"".join(chunks) == "".join(map(_csv_line, cells)).encode()
    assert len(classes) == len(cells)
    preview = cli._first_cells(classes, 20)
    assert list(map(repr, preview)) == list(map(repr, cells[:20]))
    return cells


# --------------------------------------------------------------- models


_SCHOTTKY = build_schottky(4.0, [0.0, 1.2])
# equal stretches: classes of length zero, so ratio cells are ""
_ZERO_LENGTHS = build_schottky(2, (0, 0.6)).mobius
_MATRIX_MODELS = [
    _SCHOTTKY.mobius,
    _SCHOTTKY.linear,
    _ZERO_LENGTHS,
    MobiusModel([np.array([[2.0, 0.0], [0.0, 0.5]]),
                 np.array([[1.0, 1.0], [1.0, 2.0]])]),
    LinearRepModel([np.array([[2.0, 1.0], [1.0, 1.0]]),
                    np.array([[1.0, 0.0], [3.0, 1.0]])]),
]
_WORD_METRICS = [
    WordMetricModel(GeneratingSet(2, ["a", "A", "b", "B", "ab", "BA"])),
    WordMetricModel(GeneratingSet(2, ["a", "A", "b", "B", "aB"],
                                  [1, 1, Fraction(3, 2), 2, 1])),
    WordMetricModel(GeneratingSet(2, ["a", "A", "b", "B"], [1.5, 1.5, 1, 1])),
]

class _Cycled(TreeModel):
    """A rank-2 model read class by class (a subclass's class_length),
    whose class lengths cycle through ``values``."""

    def __init__(self, values):
        super().__init__(2)
        self.values = values

    def class_length(self, letters):
        return self.values[(7 * len(letters) + sum(letters)) % len(self.values)]


# equal values with different texts: 1 and 1.0, 0.0 and -0.0, a Fraction
# and the float it equals; ints past 2**53 that share a float
_TRAPS = [
    _Cycled([1, 1.0, 0.0, -0.0, Fraction(3, 2), 1.5, 2]),
    _Cycled([0.0, -0.0, 1.5, 0.1, 2.0]),
    _Cycled([2 ** 53, 2 ** 53 + 1, 3]),
]


weights = st.one_of(
    st.integers(1, 4),
    st.integers(10 ** 5, 10 ** 6),
    st.builds(Fraction, st.integers(1, 9), st.integers(1, 4)),
    st.sampled_from([0.5, 1.5, 2.25, 0.1, 1 / 3]),
)
# int, Fraction, float and mixed weights
trees = st.builds(lambda w: TreeModel(2, w), st.lists(weights, min_size=2, max_size=2))
models = st.one_of(trees, st.sampled_from(_MATRIX_MODELS),
                   st.sampled_from(_WORD_METRICS))

_SETTINGS = settings(max_examples=80, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------- tests


@_SETTINGS
@given(models, models, st.integers(1, 5))
def test_pairs_match_the_per_row_path(target, reference, radius):
    _check(target, reference, radius)


@_SETTINGS
@given(models, st.booleans(), st.integers(0, 5))
def test_one_model_matches_the_per_row_path(model, as_target, radius):
    # radius 0: no classes, no rows
    if as_target:
        _check(model, None, radius)
    else:
        _check(None, model, radius)


def test_zero_length_classes_have_blank_ratios():
    rows = _check(TreeModel(2), _ZERO_LENGTHS, 4)
    assert any(r[5:] == ("", "") for r in rows)
    assert any(r[5:] != ("", "") for r in rows)


def test_default_radius_follows_the_reference_window():
    cfg = VerifierConfig(L_values=(3, 5))
    rows = _check(_SCHOTTKY.mobius, TreeModel(2, [1, 2]), None, cfg=cfg)
    assert rows


def test_rank_27_names_join_letters_with_dots():
    for pair in ((TreeModel(27), TreeModel(27, [2] * 26 + [Fraction(1, 3)])),
                 (TreeModel(27, [0.5] * 27), None)):
        rows = _check(*pair, 2, rank=27)
        assert any("." in r[0] for r in rows)


def test_length_blocks_cross_chunk_boundaries():
    # radius 10: 9,518 classes, the length-10 block spanning rows
    # 3,582..9,517 across the first chunk boundary
    for target, reference in ((_SCHOTTKY.mobius, TreeModel(2)),
                              (TreeModel(2, [1, 0.5]), TreeModel(2, [3, 2])),
                              (_SCHOTTKY.linear, None)):
        rows = _check(target, reference, 10)
        assert len(rows) == 9518 > ROW_CHUNK


def test_a_prefix_table_matches_the_per_row_path():
    # the listing of a run that built a larger table first reads a prefix
    # of its sides: their lists are cut, and a side with one list under
    # both names (a point) stays one
    target, reference = _SCHOTTKY.mobius, TreeModel(2)
    tables = {}
    whole = ClassTable(target, reference, 6, VerifierConfig(), tables)
    _check(target, reference, 4, tables=tables)
    cut = cli._class_listing(SimpleNamespace(rank=2, params={"radius": 4}),
                             VerifierConfig(), target, reference, tables=tables)
    assert cut is not whole and np.shares_memory(cut.ref.lo_f, whole.ref.lo_f)
    assert cut.tgt.point and cut.ref.point


@pytest.mark.parametrize("model", _TRAPS, ids=["mixed", "floats", "past-2**53"])
def test_equal_values_keep_their_own_text(model):
    # alone, against a tree on either side, and against another trap: the
    # length columns and the ratio columns each meet the traps
    texts = set()
    for pair in ((model, None), (None, model), (model, TreeModel(2)),
                 (TreeModel(2, [1, 2]), model), (model, _TRAPS[0]),
                 (_TRAPS[1], model)):
        for row in _check(*pair, 4):
            texts.update(map(str, row[1:]))
    want = {str(v) for v in model.values}
    assert want <= texts
    assert len(want) == len(model.values)



def test_equal_exact_values_of_two_types_share_a_ratio():
    # an int and the Fraction it equals: with no float on either side the
    # exact ratio cells are found once per distinct value, whatever type
    # holds it, and keep the per-row texts
    model = _Cycled([2, Fraction(2), Fraction(3, 2), 3])
    for pair in ((model, TreeModel(2, [1, 2])), (TreeModel(2, [1, 2]), model),
                 (model, _TRAPS[2])):
        _check(*pair, 5)


# ------------------------------------------------------------- edge cases


def _listing(target, reference, radius, rank=2):
    scen = SimpleNamespace(rank=rank, params={"radius": radius})
    return cli._class_listing(scen, VerifierConfig(), target, reference)


@pytest.mark.parametrize("extra", [0, 1], ids=["ROW_CHUNK", "ROW_CHUNK+1"])
def test_listings_of_one_chunk_and_one_row_more(monkeypatch, extra):
    # the 234 classes of radius 6, whose last length block holds 132, cut
    # at ROW_CHUNK = 132 and 131 rows: a chunk per block, the last one
    # full, or else a full chunk and then a chunk of one row
    blocks = [4, 8, 12, 26, 52, 132]
    for pair in ((_SCHOTTKY.mobius, TreeModel(2)), (TreeModel(2, [1, 2]), None),
                 (_WORD_METRICS[1], TreeModel(2))):
        classes = _listing(*pair, 6)
        assert [len(b) for b in classes.classes.blocks] == blocks
        monkeypatch.setattr(words, "ROW_CHUNK", 132 - extra)
        _check(*pair, 6)
        sizes = [bytes(c).count(b"\n") for c in cli._csv_chunks(classes)]
        assert sizes == (blocks if extra == 0 else [*blocks[:-1], 131, 1])


def test_a_value_repeated_across_chunks_is_rendered_once(monkeypatch):
    # chunks of 20 rows over the 234 classes of radius 6: each length of
    # the model recurs in many chunks, yet every column's table of texts
    # (a model's point, a tree's ints or Fractions, the ratios of two
    # points, floats or exact) renders each distinct typed value once per
    # listing, and each distinct typed operand pair of an exact ratio once
    floats = _Cycled([0.25, 1.5, 2.75, 4.0])
    exact = _Cycled([2, Fraction(3, 2), 1.5, 2 ** 60])
    halves = TreeModel(2, [Fraction(1, 2), 3])
    monkeypatch.setattr(words, "ROW_CHUNK", 20)
    for pair in ((floats, None), (floats, TreeModel(2, [1, 2])),
                 (exact, halves), (halves, exact)):
        _check(*pair, 6)
        classes = _listing(*pair, 6)
        rendered = []

        def counting(value):
            rendered.append(value)
            return str(value)

        monkeypatch.setattr(cli, "str", counting, raising=False)
        text = b"".join(cli._csv_chunks(classes)).decode()
        monkeypatch.delattr(cli, "str")
        assert text.count("\n") == 234
        if pair[1] is None:
            assert sorted(rendered) == floats.values
            continue
        assert classes.tgt.point and classes.ref.point
        assert classes.positive.all()
        # a value with its type: 2 and 2 ** 60 are ints, 3/2 and 1.5 are
        # equal values of two texts
        sides = [{(type(v), v) for v in s.lo} for s in (classes.tgt, classes.ref)]
        want = [str(v) for side in sides for _, v in side]
        if classes.exact_pairs:
            ratios = {(type(t), t, type(b), b)
                      for t, b in zip(classes.tgt.lo, classes.ref.lo)}
            want += [str(exact_div(t, b)) for _, t, _, b in ratios]
        else:
            want += list(map(str, set(classes.lo.tolist())))
        assert len(rendered) == len(want)
        assert sorted(map(str, rendered)) == sorted(want)


def test_names_past_rank_26_in_chunks_with_and_without_them(monkeypatch):
    # ClassCodes.walk(27, 2): 1,512 classes; chunks of 50 rows hold a
    # letter past rank 26 or none, and each takes its names' text
    codes = ClassCodes.walk(27, 2)
    assert len(codes) == 1512
    monkeypatch.setattr(words, "ROW_CHUNK", 50)
    for pair in ((TreeModel(27), TreeModel(27, [2] * 26 + [Fraction(1, 3)])),
                 (TreeModel(27, [0.5] * 27), None)):
        rows = _check(*pair, 2, rank=27)
        assert [r[0] for r in rows] == list(codes.names())
        dotted = [any("." in r[0] for r in rows[i:i + 50])
                  for i in range(0, len(rows), 50)]
        assert any(dotted) and not all(dotted)


@pytest.mark.parametrize("values,texts", [
    ([1, 1.0], {"1", "1.0"}),            # mixed types: str() per cell
    ([0.0, -0.0], {"0.0", "-0.0"}),      # floats: keyed by bits
    ([2 ** 53, 2 ** 53 + 1, 2 ** 60], {"9007199254740992",
                                       "9007199254740993",
                                       "1152921504606846976"}),
], ids=["1-and-1.0", "0.0-and-minus-0.0", "ints-past-2**53"])
def test_equal_floats_in_one_column_keep_their_texts(values, texts):
    # each value lands in the length columns of both sides
    model = _Cycled(values)
    for pair in ((model, None), (model, TreeModel(2)), (TreeModel(2), model)):
        rows = _check(*pair, 3)
        # str() first: a set of the values would merge 1 and 1.0
        assert texts <= {str(c) for r in rows for c in r[1:5]}


class _Subnormal(TreeModel):
    """A rank-2 model read class by class: the i-th class of the walk of
    ``radius`` has length -(i + 1) * 5e-324, a negative subnormal, and the
    last one -2.2250738585072014e-308, the widest text a float has (24
    characters).  Its float bits key above every subnormal's, so its text
    is rendered last, in the second slice of a column's texts."""

    def __init__(self, radius):
        super().__init__(2)
        reps = ClassCodes.walk(2, radius).reps
        self.values = {r: -(i + 1) * 5e-324 for i, r in enumerate(reps)}
        self.values[reps[-1]] = -2.2250738585072014e-308

    def class_length(self, letters):
        return self.values[tuple(letters)]


def test_the_widest_float_text_past_the_first_slice():
    # 9,518 distinct lengths, more than ROW_CHUNK: alone (blank reference
    # and ratio columns) and as a reference (negative, so every ratio is
    # blank) against signed zeros
    model = _Subnormal(10)
    assert len(model.values) == 9518 > ROW_CHUNK
    for pair in ((model, None), (_Cycled([0.0, -0.0]), model)):
        rows = _check(*pair, 10)
        assert all(r[5:] == ("", "") for r in rows)
        cells = [c for r in rows for c in r[1:5]]
        assert cells.count(-2.2250738585072014e-308) == 2
        assert len(str(-2.2250738585072014e-308)) == 24


def test_a_text_wider_than_a_float(monkeypatch):
    # ints and exact ratios can outgrow a float's 24 characters: with one
    # text a slice, a wider one widens the texts already rendered
    monkeypatch.setattr(cli, "ROW_CHUNK", 1)
    model = _Cycled([3, 2 ** 100, Fraction(1, 3 ** 30), 7])
    for pair in ((model, None), (model, TreeModel(2, [1, 2])), (TreeModel(2), model)):
        rows = _check(*pair, 3)
        assert {str(2 ** 100), str(Fraction(1, 3 ** 30))} <= {str(c) for r in rows
                                                               for c in r[1:5]}


def test_one_model_listing_has_blank_reference_and_ratio_columns():
    for pair in ((_SCHOTTKY.linear, None), (None, TreeModel(2, [1, 2]))):
        rows = _check(*pair, 5)
        assert all(r[1:3] == ("", "") and r[5:] == ("", "") for r in rows)
        text = b"".join(cli._csv_chunks(_listing(*pair, 5))).decode()
        assert all(line.split(",")[1:3] == ["", ""]
                   and line.split(",")[5:] == ["", ""]
                   for line in text.splitlines())


def test_an_empty_listing_writes_the_header_only():
    for pair in ((TreeModel(2), None), (TreeModel(2), TreeModel(2, [1, 2]))):
        assert _check(*pair, 0) == []
        classes = _listing(*pair, 0)
        assert len(classes) == 0 and list(cli._csv_chunks(classes)) == []
        out = io.StringIO()
        cli._write_classes(out, classes)
        assert out.getvalue() == "class,ref_lo,ref_hi,target_lo,target_hi,ratio_lo,ratio_hi\n"
