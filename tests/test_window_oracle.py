"""Window sups, the Delta metric and the ratio envelope against a per-class scan.

``bounds`` answers every window from a class table's float64 columns and
resolves exactly only the classes whose floats tie at an extreme.  The
oracles below are plain per-class scans: every class in table order, both
ratios in exact arithmetic, a strict ``>`` so the first class attaining a
sup wins.  Every field must agree, number types included (an int, a
Fraction and a float of equal value render differently in a report).
"""

import dataclasses
import heapq
import math
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lenspec import bounds
from lenspec.actions import (HOLDS, HYPOTHESIS_FAILED, INCONCLUSIVE, VIOLATED,
                             LengthBracket, exact_div)
from lenspec.bounds import (
    ClassTable,
    VerifierConfig,
    WindowRow,
    WindowSup,
    _class_table,
    _window_sup,
    dilation_window,
    metric_distance_report,
    ratio_envelope_report,
)
from lenspec.spaces import (
    LinearRepModel,
    MobiusModel,
    TreeModel,
    WordMetricModel,
    build_schottky,
)
from lenspec.words import GeneratingSet, Word

_ZERO_EPS = bounds._ZERO_EPS


# ------------------------------------------------------------------ oracles


def _oracle_window_sup(table, L, radius_needed, *, diag_cap=16):
    ref_lo, ref_hi = table.ref.lo, table.ref.hi
    tgt_lo, tgt_hi = table.tgt.lo, table.tgt.hi
    reps = table.reps
    sup_lo = None
    sup_hi = None
    att_idx = -1
    count = excluded = straddled = 0
    top = []
    for i in range(len(reps)):
        rlo = ref_lo[i]
        if rlo > L:
            continue
        if rlo <= _ZERO_EPS:
            excluded += 1
            continue
        rhi = ref_hi[i]
        straddle = rhi > L
        count += 1
        if straddle:
            straddled += 1
        r_lo = exact_div(tgt_lo[i], rhi)
        r_hi = exact_div(tgt_hi[i], rlo)
        if not straddle and (sup_lo is None or r_lo > sup_lo):
            sup_lo = r_lo
        if sup_hi is None or r_hi > sup_hi:
            sup_hi = r_hi
            att_idx = i
        if diag_cap > 0:
            item = (r_hi, i, r_lo, straddle)
            if len(top) < diag_cap:
                heapq.heappush(top, item)
            elif item > top[0]:
                heapq.heapreplace(top, item)
    truncated = bool(radius_needed > table.radius)
    if count == 0:
        return WindowSup(
            value=LengthBracket(0, 0, exact=True),
            L=L, count=0, excluded=excluded, straddled=0,
            radius=table.radius, radius_needed=radius_needed,
            truncated=truncated, attained=None, empty=True,
        )
    if sup_lo is None:
        sup_lo = 0
    sup_lo = min(sup_lo, sup_hi)
    rows = []
    for r_hi, i, r_lo, straddle in sorted(top, reverse=True):
        rows.append(WindowRow(
            rep=Word._unchecked(reps[i]),
            ref_length=LengthBracket(ref_lo[i], ref_hi[i],
                                     exact=bool(ref_lo[i] == ref_hi[i])),
            target_length=LengthBracket(tgt_lo[i], tgt_hi[i],
                                        exact=bool(tgt_lo[i] == tgt_hi[i])),
            ratio=LengthBracket(r_lo, r_hi, exact=bool(r_lo == r_hi)),
            straddles=straddle,
        ))
    return WindowSup(
        value=LengthBracket(sup_lo, sup_hi, exact=bool(sup_lo == sup_hi)),
        L=L, count=count, excluded=excluded, straddled=straddled,
        radius=table.radius, radius_needed=radius_needed,
        truncated=truncated, attained=Word._unchecked(reps[att_idx]), empty=False,
        rows=tuple(rows),
    )


def _exchanged(table):
    """The lengths of ``table`` with target and reference exchanged, read
    by the oracle in place of the table of the exchanged pair."""
    return SimpleNamespace(ref=table.tgt, tgt=table.ref, reps=table.reps,
                           radius=table.radius)


def _oracle_envelope(table, L, truncated, alpha_lo, beta_hi, C0, cfg):
    """(minimal_C0, worst_class, hypothesis, verdict) of the cor14 check."""
    tol = cfg.tolerance
    hyp_failed = False
    hyp_uncertified = truncated
    need_c0 = 0
    cert_c0 = 0
    worst = None
    refL = cfg.reference_factor * L
    a_scale = exact_div(L, alpha_lo + 1)
    b_scale = exact_div(L, beta_hi + 1)
    for i in range(len(table.reps)):
        rlo = table.ref.lo[i]
        if rlo <= _ZERO_EPS or rlo > refL:
            continue
        rhi = table.ref.hi[i]
        r_lo = exact_div(table.tgt.lo[i], rhi)
        r_hi = exact_div(table.tgt.hi[i], rlo)
        if rlo <= L:
            if r_hi < alpha_lo - tol or r_lo > beta_hi + tol:
                hyp_failed = True
            if r_lo < alpha_lo - tol or r_hi > beta_hi + tol:
                hyp_uncertified = True
        c = max((alpha_lo - r_lo) * a_scale, (r_hi - beta_hi) * b_scale)
        if c > need_c0:
            need_c0 = c
            worst = table.reps[i]
        c_cert = max((alpha_lo - r_hi) * a_scale, (r_lo - beta_hi) * b_scale)
        if c_cert > cert_c0:
            cert_c0 = c_cert
    need_c0 = max(need_c0, 0)
    if hyp_failed:
        verdict = HYPOTHESIS_FAILED
    elif C0 is None:
        verdict = HOLDS if not hyp_uncertified else INCONCLUSIVE
    elif need_c0 - C0 <= tol:
        verdict = HOLDS if not hyp_uncertified else INCONCLUSIVE
    elif cert_c0 - C0 > tol and all(isinstance(v, (int, Fraction))
                                    for v in (cert_c0, C0)):
        # only exact data refutes
        verdict = VIOLATED
    else:
        verdict = INCONCLUSIVE
    return (need_c0, str(Word._unchecked(worst)) if worst else None,
            "failed" if hyp_failed else
            "inconclusive" if hyp_uncertified else "verified", verdict)


def _canon(x):
    """x with the type of every number kept, so 2, Fraction(2) and 2.0 differ."""
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return (type(x).__name__,) + tuple(
            (f.name, _canon(getattr(x, f.name))) for f in dataclasses.fields(x))
    if isinstance(x, dict):
        return tuple(sorted((k, _canon(v)) for k, v in x.items()))
    if isinstance(x, (list, tuple)):
        return tuple(_canon(v) for v in x)
    if isinstance(x, (int, float, Fraction)) and not isinstance(x, bool):
        return (type(x).__name__, x)
    return x


# --------------------------------------------------------------- models


def _rotation(t):
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, -s], [s, c]])


_SCHOTTKY = build_schottky(4.0, [0.0, 1.2])
_HYPERBOLIC = np.array([[2.0, 0.0], [0.0, 0.5]])
_MATRIX_MODELS = [
    _SCHOTTKY.mobius,
    _SCHOTTKY.linear,
    # an elliptic generator: zero-length classes the windows exclude
    MobiusModel([_rotation(0.7), _HYPERBOLIC]),
    LinearRepModel([_HYPERBOLIC, _rotation(0.4) @ _HYPERBOLIC]),
]
_WORD_METRICS = [
    WordMetricModel(GeneratingSet(2, ["a", "A", "b", "B", "ab", "BA"])),
    WordMetricModel(GeneratingSet(2, ["a", "A", "b", "B", "aB"],
                                  [1, 1, Fraction(3, 2), 2, 1])),
]

weights = st.one_of(
    st.integers(1, 4),
    # large ints: equal floats need no longer be equal ratios
    st.integers(10 ** 5, 10 ** 6),
    st.builds(Fraction, st.integers(1, 9), st.integers(1, 4)),
    st.sampled_from([0.5, 1.5, 2.25, 0.1, 1 / 3]),
)
trees = st.builds(lambda w: TreeModel(2, w), st.lists(weights, min_size=2, max_size=2))
models = st.one_of(trees, st.sampled_from(_MATRIX_MODELS),
                   st.sampled_from(_WORD_METRICS))


@st.composite
def pairs(draw):
    """(target, reference): at least one a tree, or two trees for ties."""
    kind = draw(st.sampled_from(["tree-tree", "same", "any-tree", "tree-any"]))
    if kind == "tree-tree":
        return draw(trees), draw(trees)
    if kind == "same":
        # equal or proportional weights: every ratio ties
        w = draw(st.lists(st.integers(1, 3), min_size=2, max_size=2))
        k = draw(st.sampled_from([1, 2, Fraction(1, 2), 1.5]))
        return TreeModel(2, [k * x for x in w]), TreeModel(2, w)
    if kind == "any-tree":
        return draw(models), draw(trees)
    return draw(trees), draw(models)


def _window_lengths(draw, table):
    """A window length: a reference length of the table (so L equals one),
    a value below every length (an empty window), or a number in between."""
    values = [v for v in table.ref.lo + table.ref.hi if v > _ZERO_EPS]
    choice = draw(st.sampled_from(["length", "below", "int", "float", "fraction"]))
    if choice == "length" and values:
        return draw(st.sampled_from(values))
    if choice == "below":
        return draw(st.sampled_from([Fraction(1, 10), 0.05]))
    if choice == "float":
        return draw(st.floats(0.1, 8.0))
    if choice == "fraction":
        return Fraction(draw(st.integers(1, 40)), draw(st.integers(1, 5)))
    return draw(st.integers(1, 8))


_SETTINGS = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------- tests


@_SETTINGS
@given(pairs(), st.integers(3, 5), st.booleans(), st.data())
def test_window_sup_matches_the_per_class_scan(pair, radius, swap, data):
    cfg, tables = VerifierConfig(), {}
    whole = _class_table(*pair, radius, cfg, tables)
    for tab in (whole, _class_table(*pair, radius - 1, cfg, tables)):
        # with swap the oracle reads the unswapped table's lists exchanged
        table, lists = tab, tab
        if swap:
            back = _class_table(pair[1], pair[0], tab.radius, cfg, tables)
            table, lists = back, _exchanged(tab)
        for i, (rl, rh, tl, th) in enumerate(zip(lists.ref.lo, lists.ref.hi,
                                                 lists.tgt.lo, lists.tgt.hi)):
            # every column entry is the correctly rounded exact value
            assert (table.ref.lo_f[i], table.ref.hi_f[i], table.tgt.lo_f[i],
                    table.tgt.hi_f[i]) == tuple(map(float, (rl, rh, tl, th)))
            if rl > _ZERO_EPS:
                assert table.lo[i] == float(exact_div(tl, rh))
                assert table.hi[i] == float(exact_div(th, rl))
        for _ in range(3):
            L = _window_lengths(data.draw, lists)
            needed = data.draw(st.integers(1, 6))
            for cap in (0, 1, 16):
                got = _window_sup(table, L, needed, diag_cap=cap)
                want = _oracle_window_sup(lists, L, needed, diag_cap=cap)
                assert _canon(got) == _canon(want), (L, cap)


@_SETTINGS
@given(pairs(), st.sampled_from([1, 2, 3, 4.5, Fraction(7, 2)]),
       st.sampled_from([0, 1, 16]))
def test_dilation_window_and_delta_match_the_per_class_scan(pair, L, cap):
    cfg = VerifierConfig(L_values=(L,), radius_cap=4, diagnostics_cap=cap)
    got = (dilation_window(*pair, L, cfg), metric_distance_report(*pair, cfg))
    with mock.patch.object(bounds, "_window_sup", _oracle_window_sup):
        want = (dilation_window(*pair, L, cfg), metric_distance_report(*pair, cfg))
    assert _canon(got) == _canon(want)


bands = st.one_of(
    st.tuples(st.integers(0, 2), st.integers(0, 3)),
    st.tuples(st.sampled_from([0.0, 0.5, 0.9, 1.0]),
              st.sampled_from([1.0, 1.5, 2.1, 3.0])),
    st.tuples(st.builds(Fraction, st.integers(0, 4), st.integers(1, 3)),
              st.builds(Fraction, st.integers(3, 9), st.integers(1, 3))),
).filter(lambda b: b[0] <= b[1])


@_SETTINGS
@given(pairs(), bands, st.sampled_from([None, 0, Fraction(1, 2), 1, 2.5]),
       st.lists(st.sampled_from([1, 2, 3, 2.5]), min_size=1, max_size=2,
                unique=True))
def test_ratio_envelope_matches_the_per_class_scan(pair, band, C0, Ls):
    cfg = VerifierConfig(L_values=tuple(Ls), radius_cap=4)
    tables = {}
    reports = ratio_envelope_report(*pair, band[0], band[1], cfg, C0=C0,
                                    tables=tables)
    (table,) = tables.values()
    with mock.patch.object(bounds, "_window_sup", _oracle_window_sup):
        oracle_reports = ratio_envelope_report(*pair, band[0], band[1], cfg, C0=C0)
    for L, rep, orep in zip(Ls, reports, oracle_reports):
        assert _canon(rep.window_sup) == _canon(orep.window_sup)
        assert _canon(rep.reference_dilation) == _canon(orep.reference_dilation)
        assert rep.coverage == orep.coverage
        want = _oracle_envelope(table, L, rep.coverage["window"]["truncated"],
                                band[0], band[1], C0, cfg)
        got = (rep.extras["minimal_C0"], rep.extras["worst_class"],
               rep.extras["hypothesis"], rep.verdict)
        assert _canon(got) == _canon(want), L


class _Listed(TreeModel):
    """A unit tree whose listed classes have other lengths."""

    def __init__(self, listed, weights=None):
        super().__init__(2, weights)
        self.listed = {Word(k).letters: v for k, v in listed.items()}

    def class_length(self, letters):
        v = self.listed.get(letters)
        return super().class_length(letters) if v is None else v


def test_float_ties_are_resolved_in_exact_arithmetic():
    # b's ratio exceeds 1 by 1e-17: the same float as the ratio 1 of a, A
    # and B, yet it is the sup
    table = ClassTable(_Listed({"b": Fraction(10**17 + 1, 10**17)}),
                       TreeModel(2), 2)
    assert len(set(table.hi[:4].tolist())) == 1
    assert not table.ties_exact
    ws = _window_sup(table, 1, 1, diag_cap=2)
    assert ws.value.hi == Fraction(10**17 + 1, 10**17) and ws.attained == Word("b")
    assert [str(r.rep) for r in ws.rows] == ["b", "B"]
    assert _canon(ws) == _canon(_oracle_window_sup(table, 1, 1, diag_cap=2))


def test_envelope_scans_every_class_a_float_computation_can_tie():
    # with alpha = 2**53 the float alpha - r is the same for r = 2 and
    # r = 1.5, so class a (ratio 2, first in table order) attains the
    # needed C0 as much as class A (ratio 1.5, the least ratio), though
    # neither ratio of a is extreme (b has ratio 3)
    alpha = float(2 ** 53)
    target = _Listed({"A": 1.5, "b": 3}, weights=[2, 2])
    cfg = VerifierConfig(L_values=(1,), radius_cap=4)
    tables = {}
    (rep,) = ratio_envelope_report(target, TreeModel(2), alpha, alpha, cfg,
                                   tables=tables)
    (table,) = tables.values()
    assert rep.extras["worst_class"] == "a"
    want = _oracle_envelope(table, 1, rep.coverage["window"]["truncated"],
                            alpha, alpha, None, cfg)
    got = (rep.extras["minimal_C0"], rep.extras["worst_class"],
           rep.extras["hypothesis"], rep.verdict)
    assert _canon(got) == _canon(want)


def test_tied_ratios_resolve_to_the_first_class_and_the_last_rows():
    # identical actions: every ratio is 1, so the first class attains the
    # sup and the rows are the classes of largest index
    table = ClassTable(TreeModel(2), TreeModel(2), 4)
    assert table.ties_exact
    ws = _window_sup(table, 4, 4, diag_cap=3)
    assert ws.value == LengthBracket(1, 1, exact=True)
    assert ws.attained == Word("a")
    n = len(table)
    assert [r.rep.letters for r in ws.rows] == [table.reps[i]
                                                for i in (n - 1, n - 2, n - 3)]
    assert _canon(ws) == _canon(_oracle_window_sup(table, 4, 4, diag_cap=3))


def test_large_int_lengths_resolve_float_ties_exactly():
    # class a has ratio (2**52 + 2) / (2**52 + 1) and class b the larger
    # (2**52 + 1) / 2**52, both rounding to 1 + 2**-52: with lengths this
    # large equal floats no longer mean equal ratios
    n = 2 ** 52
    table = ClassTable(TreeModel(2, [n + 2, n + 1]), TreeModel(2, [n + 1, n]), 1)
    assert not table.ties_exact
    assert len(set(table.hi.tolist())) == 1
    ws = _window_sup(table, n + 1, 1, diag_cap=1)
    assert ws.attained == Word("b") and ws.value.hi == Fraction(n + 1, n)
    for cap in (0, 1, 16):
        assert _canon(_window_sup(table, n + 1, 1, diag_cap=cap)) == _canon(
            _oracle_window_sup(table, n + 1, 1, diag_cap=cap))


class _Reads(list):
    """A list that counts its items read one at a time."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_float_exact_tables_settle_ties_without_reading_a_length():
    # every length is a small int, its own float: the classes of reference
    # length 3 tie with L = 3 in float, and the float settles each tie
    table = ClassTable(TreeModel(2, [1, 2]), TreeModel(2), 4)
    assert table.floats_exact and table.ref.point
    want = _oracle_window_sup(table, 3, 3, diag_cap=0)
    lengths = _Reads(table.ref.lo)
    table.ref = dataclasses.replace(table.ref, lo=lengths, hi=lengths)
    ws = _window_sup(table, 3, 3, diag_cap=0)
    # the sup's two ratios read one length each, and no tie reads any
    assert lengths.reads == 2 < np.count_nonzero(table.ref.lo_f == 3)
    assert _canon(ws) == _canon(want)


def test_columns_are_views_of_the_whole_table():
    pair, cfg, tables = (TreeModel(2, [1, 2]), TreeModel(2)), VerifierConfig(), {}
    table = _class_table(*pair, 5, cfg, tables)
    cut = _class_table(*pair, 3, cfg, tables)
    cols = []
    for part, whole in ((cut.ref, table.ref), (cut.tgt, table.tgt)):
        cols += [(part.lo_f, whole.lo_f), (part.hi_f, whole.hi_f)]
    for col, whole in cols:
        assert np.shares_memory(col, whole)
        assert len(col) == len(cut)
