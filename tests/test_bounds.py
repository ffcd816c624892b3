"""Window dilations, comparison bounds, sandwiches, covers, the Delta metric.

Oracle values in this file were recomputed independently before being
frozen: tree window sups reduce to per-letter weight ratios (cycle averages
are convex combinations), the cobounded coefficients are (L-2D)/(L-6D) by
hand, and the sandwich counts are ball sizes 2*3^r - 1.
"""

import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from lenspec import bounds
from lenspec.actions import (HOLDS, HYPOTHESIS_FAILED, INCONCLUSIVE, VIOLATED,
                             AnosovCertificate, LengthBracket, verdict_of)
from lenspec.bounds import (
    ClassTable,
    VerifierConfig,
    _bound_reports,
    _greedy_chunks,
    cobounded_dilation_report,
    dilation_window,
    displacement_ball,
    displacement_sandwich_report,
    joint_vs_dilation_report,
    metric_distance_report,
    pointwise_cover_report,
    ratio_envelope_report,
    spectral_dilation_report,
    window_comparison_bound,
    word_metric_dilation_report,
)
from lenspec import words
from lenspec.errors import InputError, ResourceCapError
from lenspec.spaces import (
    LinearRepModel,
    MobiusModel,
    TreeModel,
    WordMetricModel,
    build_schottky,
)
from lenspec.words import (ClassCodes, GeneratingSet, Word, WordRows,
                           enumerate_ball, word_length)

ROOT = Path(__file__).resolve().parents[1]

UNIT = TreeModel(2)
WB2 = TreeModel(2, [1, 2])


def schottky():
    return build_schottky(4.0, [0.0, 1.2])


# ---------------------------------------------------------------- windows


def test_identical_actions_window():
    ws = dilation_window(UNIT, UNIT, 4)
    assert ws.value.exact and ws.value.lo == 1
    assert ws.count == 50  # nontrivial classes of length <= 4
    assert ws.excluded == 0 and ws.straddled == 0
    assert not ws.truncated and not ws.empty
    assert str(ws.attained) == "a"


def test_weighted_window_sup_is_letter_ratio():
    ws = dilation_window(WB2, UNIT, 4)
    assert ws.value.lo == 2 and ws.value.hi == 2
    assert str(ws.attained) == "b"


def test_window_scaling_is_exact():
    c = Fraction(3, 2)
    scaled = TreeModel(2, [c, 2 * c])
    ws1 = dilation_window(WB2, UNIT, 6)
    ws2 = dilation_window(scaled, UNIT, 6)
    assert ws2.value.lo == c * ws1.value.lo
    assert ws2.value.hi == c * ws1.value.hi


def test_window_monotone_in_L():
    act = schottky()
    prev_hi, prev_count = None, 0
    for L in (2, 4, 6):
        ws = dilation_window(act.mobius, UNIT, L)
        if prev_hi is not None:
            assert ws.value.hi >= prev_hi - 1e-12
        assert ws.count >= prev_count
        prev_hi, prev_count = ws.value.hi, ws.count


def test_empty_window():
    heavy = TreeModel(2, [5, 5])
    ws = dilation_window(UNIT, heavy, 4)
    assert ws.empty
    assert ws.value.lo == 0 and ws.value.hi == 0


@pytest.mark.parametrize("field,value", [
    ("K", 10 ** 400), ("D", Fraction(10 ** 400, 3)), ("L_values", (10 ** 400,))],
    ids=["K", "D", "L_values"])
def test_config_numbers_beyond_the_float_range_are_not_finite(field, value):
    with pytest.raises(InputError, match=field):
        VerifierConfig(**{field: value})


def test_window_rank_mismatch():
    with pytest.raises(InputError):
        dilation_window(TreeModel(2), TreeModel(3), 4)


def test_window_truncation_flag():
    ws = dilation_window(WB2, UNIT, 8, config=VerifierConfig(radius_cap=3))
    assert ws.truncated
    assert ws.radius == 3 and ws.radius_needed == 8
    assert ws.value.hi == 2  # letter classes are still enumerated


@pytest.mark.parametrize("radius_cap,verdict", [(12, VIOLATED), (1, INCONCLUSIVE)])
def test_a_bound_below_an_exact_sup_is_violated_only_on_a_full_window(
        radius_cap, verdict):
    # a bound of 0 under the exact reference sup 2: refuted only where the
    # bound-side window had every class it needs
    (r,) = _bound_reports(WB2, UNIT, VerifierConfig(L_values=(2,),
                                                    radius_cap=radius_cap),
                          None, "zero", lambda L, ws, ref_ws: (0, {}))
    assert r.coverage["window"]["truncated"] == (radius_cap == 1)
    assert (r.verdict, r.extras["attained"]) == (verdict, "b")


def test_a_matrix_window_reads_to_radius_cap_and_is_truncated():
    # on the cor17-default pair (ab)^6 has cyclic length 12 and length
    # 15.257 <= 16, past the radius 11 that the sampled mu gave: a window
    # sized from mu missed it and read untruncated
    mob = build_schottky(4.0, (0.0, 1.2)).mobius
    assert mob.class_length((1, 2) * 6) < 16
    ws = dilation_window(UNIT, mob, 16)
    assert (ws.radius, ws.radius_needed, ws.truncated) == (12, math.inf, True)
    assert ws.count == 1076


def test_zero_length_classes_are_excluded_not_fatal():
    act = schottky()
    rot = MobiusModel([[[0.0, -1.0], [1.0, 0.0]], [[2.0, 1.0], [1.0, 1.0]]])
    ws = dilation_window(act.mobius, rot, 3)
    assert ws.excluded > 0


def test_submultiplicativity_of_dilations():
    rng = random.Random(37)
    for _ in range(25):
        wts = [
            [Fraction(rng.randint(1, 6)), Fraction(rng.randint(1, 6))]
            for _ in range(3)
        ]
        A, B, C = (TreeModel(2, w) for w in wts)
        L = 8
        ab = dilation_window(A, B, L).value.hi
        bc = dilation_window(B, C, L).value.hi
        ac = dilation_window(A, C, L).value.hi
        assert ac <= ab * bc


# --------------------------------------------------------- verdict policy


def test_verdict_requires_certified_refutation():
    assert verdict_of(5, 6, 1, 1, 0, truncated=False) == VIOLATED
    # a truncated test window cannot certify: the bound underestimates
    assert verdict_of(5, 6, 1, 1, 0, truncated=True) == INCONCLUSIVE
    assert verdict_of(1, 2, 3, 3, 0, truncated=True) == HOLDS
    # straddling reference bracket: neither side settles
    assert verdict_of(1, 6, 3, 3, 0, truncated=False) == INCONCLUSIVE


# (lo, hi, bound_lo, bound_hi, tol, truncated) -> verdict
_BIG = Fraction(3 * 10**8 + 1, 3)
VERDICT_TABLE = [
    ((1, 3, 3, 3, 0, False), HOLDS),            # hi == bound: holds
    ((1, 3.5, 3, 3, 0.5, False), HOLDS),        # within tol
    ((3, 4, 3, 3, 0, False), INCONCLUSIVE),     # lo == bound: not above it
    ((4, 5, 3, 3, 0, False), VIOLATED),
    ((4, 5, 3, 3, 1, False), INCONCLUSIVE),     # lo not above bound + tol
    # a bracketed bound: holds against its lo, refuted only above its hi
    ((1, 2, 2, 5, 0, False), HOLDS),
    ((1, 3, 2, 5, 0, False), INCONCLUSIVE),
    ((5, 6, 2, 5, 0, False), INCONCLUSIVE),
    ((6, 7, 2, 5, 0, False), VIOLATED),
    ((Fraction(7, 2), Fraction(7, 2), 3, 3, 0, False), VIOLATED),
    # the float twins of the violated rows: a float lo or bound_hi, or a
    # numpy int, is not exact
    ((4.0, 5, 3, 3, 0, False), INCONCLUSIVE),
    ((6, 7, 2, 5.0, 0, False), INCONCLUSIVE),
    ((3.5, 3.5, 3, 3, 0, False), INCONCLUSIVE),
    ((np.int64(4), 5, 3, 3, 0, False), INCONCLUSIVE),
    # equal exact sides are subtracted before the float tol enters, where
    # bound + tol would round below the bound
    ((_BIG, _BIG, _BIG, _BIG, 1e-9, False), HOLDS),
    ((10**17 + 1, 10**17 + 1, 10**17 + 1, 10**17 + 1, 1e-9, False), HOLDS),
]


@pytest.mark.parametrize("args,verdict", VERDICT_TABLE,
                         ids=range(len(VERDICT_TABLE)))
def test_verdict_of_table(args, verdict):
    *values, truncated = args
    assert verdict_of(*values, truncated=truncated) == verdict


def test_uncertified_data_never_gives_violated():
    # truncated data, a float lo or a float bound_hi never refutes
    values = [0, 1, 2, 2.5, 3, Fraction(7, 2), 4, 4.0, 5]
    for lo, hi, b_lo, b_hi in itertools.product(values, repeat=4):
        if lo <= hi and b_lo <= b_hi:
            for tol, truncated in itertools.product((0, 0.5), (True, False)):
                if truncated or float in (type(lo), type(b_hi)):
                    assert verdict_of(lo, hi, b_lo, b_hi, tol,
                                      truncated=truncated) == (
                        HOLDS if hi <= b_lo + tol else INCONCLUSIVE)


# ------------------------------------------------------ class table reuse


def _count_tables(monkeypatch):
    """Radii of the ClassTables built from here on."""
    built = []
    init = ClassTable.__init__

    def counting(self, target, ref, radius, **kw):
        built.append(radius)
        init(self, target, ref, radius, **kw)

    monkeypatch.setattr(ClassTable, "__init__", counting)
    return built


def _count_work(monkeypatch):
    """(walks, evaluated) from here on: the radius of each class walk, and
    the (model, radius) of each model evaluated over a walk's classes."""
    walks, evaluated = [], []
    walk, real = ClassCodes.walk.__func__, bounds.class_lengths

    def counting_walk(cls, rank, radius, *args, **kwargs):
        walks.append(radius)
        return walk(cls, rank, radius, *args, **kwargs)

    def counting(model, codes, k_max):
        evaluated.append((model, codes.radius))
        return real(model, codes, k_max)

    monkeypatch.setattr(ClassCodes, "walk", classmethod(counting_walk))
    monkeypatch.setattr(bounds, "class_lengths", counting)
    return walks, evaluated


def test_class_table_prefix_equals_fresh_table(monkeypatch):
    cfg, tables = VerifierConfig(), {}
    big = ClassTable(WB2, UNIT, 12, cfg, tables)
    walks, evaluated = _count_work(monkeypatch)
    cut = ClassTable(WB2, UNIT, 8, cfg, tables)
    # a repeat of the largest table reads its walk and sides as they are
    again = ClassTable(WB2, UNIT, 12, cfg, tables)
    assert walks == evaluated == []
    assert again.classes is big.classes
    assert again.ref is big.ref and again.tgt is big.tgt
    fresh = ClassTable(WB2, UNIT, 8)
    assert cut.radius == fresh.radius == 8
    assert cut.reps == fresh.reps
    for side in ("ref", "tgt"):
        a, b = getattr(cut, side), getattr(fresh, side)
        assert [[*a.lo], [*a.hi]] == [[*b.lo], [*b.hi]]
    for name in ("lo", "hi", "positive"):
        assert np.array_equal(getattr(cut, name), getattr(fresh, name),
                              equal_nan=True)


def test_class_table_dict_keeps_the_largest_table(monkeypatch):
    walks, evaluated = _count_work(monkeypatch)
    cfg = VerifierConfig()
    tables = {}
    t6 = ClassTable(WB2, UNIT, 6, cfg, tables)
    t8 = ClassTable(WB2, UNIT, 8, cfg, tables)
    assert ClassTable(WB2, UNIT, 8, cfg, tables).reps == t8.reps
    assert ClassTable(WB2, UNIT, 6, cfg, tables).reps == t6.reps
    # another pair reads the largest walk and lengths; another k_max
    # evaluates anew over that walk, another cap walks anew and reads them
    ClassTable(UNIT, WB2, 6, cfg, tables)
    ClassTable(WB2, UNIT, 6, VerifierConfig(window_k_max=3), tables)
    ClassTable(WB2, UNIT, 8, VerifierConfig(class_cap=10 ** 6), tables)
    assert walks == [6, 8, 8]
    assert evaluated == [(UNIT, 6), (WB2, 6), (UNIT, 8), (WB2, 8),
                         (UNIT, 6), (WB2, 6)]


def test_reports_share_tables_only_through_the_dict(monkeypatch):
    walks, evaluated = _count_work(monkeypatch)
    cfg8, cfg4 = VerifierConfig(L_values=(8,)), VerifierConfig(L_values=(4,))
    fresh = (cobounded_dilation_report(WB2, UNIT, cfg8),
             ratio_envelope_report(WB2, UNIT, 1, 2, cfg4))
    assert walks == [12, 8] and len(evaluated) == 4
    tables = {}
    shared = (cobounded_dilation_report(WB2, UNIT, cfg8, tables=tables),
              ratio_envelope_report(WB2, UNIT, 1, 2, cfg4, tables=tables))
    assert walks == [12, 8, 12]
    assert evaluated[4:] == [(UNIT, 12), (WB2, 12)]
    assert shared == fresh


def test_every_window_is_validated_before_a_table_is_built(monkeypatch):
    built = _count_tables(monkeypatch)
    with pytest.raises(InputError, match="L > 6D"):
        cobounded_dilation_report(WB2, UNIT, VerifierConfig(L_values=(20, 1)))
    assert built == []


def test_dilation_windows_share_one_table_through_the_dict(monkeypatch):
    walks, evaluated = _count_work(monkeypatch)
    tables = {}
    big = dilation_window(WB2, UNIT, 8, tables=tables)
    small = dilation_window(WB2, UNIT, 4, tables=tables)
    assert walks == [8] and evaluated == [(UNIT, 8), (WB2, 8)]
    assert small == dilation_window(WB2, UNIT, 4)
    assert big == dilation_window(WB2, UNIT, 8)


# ------------------------------------------------------- cobounded bound


def test_comparison_bound_coefficients():
    # tight variant: sup*(L-2D)/(L-6D) + 2K*delta/(L-6D)
    assert window_comparison_bound(2, 8, Fraction(1, 2), 0, 10**4) == Fraction(14, 5)
    assert window_comparison_bound(2, 12, Fraction(1, 2), 0, 10**4) == Fraction(22, 9)
    got = window_comparison_bound(1.0, 8, 0.5, 0.1, 10.0)
    assert got == pytest.approx((8 - 1) / (8 - 3) + 2 * 10 * 0.1 / (8 - 3))


def test_comparison_bound_plain_variant():
    # the log 4 penalty replaces the measured delta: it never vanishes
    got = window_comparison_bound(2, 8, 0.5, 0.0, 0, variant="plain-log4")
    assert got == pytest.approx(2 * 8 / (8 - 3))
    with_pen = window_comparison_bound(1.0, 8, 0.5, 0.2, 10.0, variant="plain-log4")
    assert with_pen == pytest.approx(8 / 5 + 2 * 10 * math.log(4) / 5)
    ignores_delta = window_comparison_bound(1.0, 8, 0.5, 99.0, 10.0,
                                            variant="plain-log4")
    assert ignores_delta == with_pen


def test_comparison_bound_requires_long_window():
    with pytest.raises(InputError):
        window_comparison_bound(1, 3, Fraction(1, 2), 0, 1)
    with pytest.raises(InputError):
        window_comparison_bound(1, 8, 0.5, 0, 1, variant="nope")


def test_cobounded_report_tree_pair():
    reps = cobounded_dilation_report(WB2, UNIT, VerifierConfig(L_values=(8, 12)))
    by_L = {r.window_L: r for r in reps}
    r8, r12 = by_L[8], by_L[12]
    assert r8.bound_value == Fraction(14, 5)
    assert r12.bound_value == Fraction(22, 9)
    for r in (r8, r12):
        assert r.verdict == HOLDS
        assert r.window_sup.lo == 2 and r.window_sup.exact
        assert r.reference_dilation.lo == 2
        assert r.extras["minimal_K"] == 0
        assert str(r.extras["attained"]) == "b"
        assert not r.coverage["window"]["truncated"]
    assert by_L[8].coverage["window"]["classes"] == 1386


def test_cobounded_report_identical_pair():
    (r,) = cobounded_dilation_report(UNIT, UNIT, VerifierConfig(L_values=(4,)))
    assert r.verdict == HOLDS
    assert r.window_sup.lo == 1
    assert r.bound_value == Fraction(3, 1)  # 1 * (4-1)/(4-3)


def test_cobounded_needs_cobounded_reference():
    act = schottky()
    with pytest.raises(InputError):
        cobounded_dilation_report(UNIT, act.mobius, VerifierConfig(L_values=(8,)))


def test_cobounded_rejects_short_window():
    with pytest.raises(InputError):
        cobounded_dilation_report(WB2, UNIT, VerifierConfig(L_values=(3,)))


def test_cobounded_D_override():
    reps = cobounded_dilation_report(WB2, UNIT, VerifierConfig(L_values=(8,), D=1))
    assert reps[0].bound_value == Fraction(2 * (8 - 2), 8 - 6)
    assert reps[0].extras["D"] == 1


def test_cobounded_schottky_holds():
    act = schottky()
    cfg = VerifierConfig(L_values=(6, 12), delta=math.log(2), K=10**4)
    reps = cobounded_dilation_report(act.mobius, UNIT, cfg)
    for r in reps:
        assert r.verdict == HOLDS
        # both generator axes pass through the basepoint: the sup is exactly
        # the single-letter ratio 2 log 4 at every window length
        assert r.window_sup.hi == pytest.approx(2 * math.log(4), abs=1e-9)
        assert math.isfinite(r.extras["minimal_K"])


# ------------------------------------------------------------ word metric


def test_word_metric_report_oracle():
    gens = GeneratingSet(2, ["a", "A", "b", "B", "ab", "BA"])
    cfg = VerifierConfig(L_values=(4,), radius_cap=10)
    (r,) = word_metric_dilation_report(WB2, gens, cfg)
    # delta = 0 so the bound is the sup over the doubled window
    assert r.window_L == 4
    assert r.window_sup.lo == 3 and r.window_sup.hi == 4
    assert r.bound_value == 4
    assert r.reference_dilation.hi == 4
    assert r.verdict == HOLDS
    assert r.coverage["window"]["L"] == 8


def test_word_metric_standard_reference_is_exact():
    (r,) = word_metric_dilation_report(
        WB2, GeneratingSet.standard(2), VerifierConfig(L_values=(4,))
    )
    assert r.verdict == HOLDS
    assert r.window_sup.lo == 2 and r.window_sup.exact


def test_word_metric_requires_integer_window():
    with pytest.raises(InputError):
        word_metric_dilation_report(
            WB2, GeneratingSet.standard(2), VerifierConfig(L_values=(2.5,))
        )


def test_word_metric_accepts_model_instance():
    wm = WordMetricModel(GeneratingSet.standard(2))
    (r,) = word_metric_dilation_report(WB2, wm, VerifierConfig(L_values=(4,)))
    assert r.verdict == HOLDS


# --------------------------------------------------------------- spectral


def test_spectral_report_oracle():
    act = schottky()
    cfg = VerifierConfig(L_values=(20,), radius_cap=10)
    (r,) = spectral_dilation_report(act.linear, UNIT, cfg)
    assert r.verdict == HOLDS
    assert r.window_sup.hi == pytest.approx(math.log(4), abs=1e-9)
    assert r.extras["eta"] == pytest.approx(math.log(4), abs=1e-9)
    assert r.extras["c_m"] == pytest.approx(13 * math.log(2))
    assert r.extras["d_m"] == 16
    assert r.bound_value == pytest.approx(42.97512519471661, abs=1e-6)


def test_spectral_report_requires_certificate():
    # the certificate is the bound's domination hypothesis: no window reads it
    rot = LinearRepModel([[[0.0, -1.0], [1.0, 0.0]]])
    with pytest.raises(InputError, match="certificate failed .*: it is the "
                       "spectral bound's hypothesis that rho is a dominated "
                       "representation$"):
        spectral_dilation_report(rot, TreeModel(1), VerifierConfig(L_values=(20,)))


def test_spectral_report_requires_long_window():
    act = schottky()
    with pytest.raises(InputError):
        spectral_dilation_report(act.linear, UNIT, VerifierConfig(L_values=(16,)))


# --------------------------------------------------------------- envelope


def test_envelope_holds_on_true_band():
    (r,) = ratio_envelope_report(WB2, UNIT, 1, 2, VerifierConfig(L_values=(4,)))
    assert r.verdict == HOLDS
    assert r.extras["minimal_C0"] == 0
    assert r.extras["hypothesis"] == "verified"


def test_envelope_homothety_needs_no_inflation():
    (r,) = ratio_envelope_report(
        TreeModel(2, [2, 2]), UNIT, 2, 2, VerifierConfig(L_values=(6,)), C0=0
    )
    assert r.verdict == HOLDS
    assert r.extras["minimal_C0"] == 0


def test_envelope_with_c0_falls_to_inconclusive_on_a_truncated_window():
    # C0 covers the needed constant, but the window is cut at radius_cap,
    # so the hypothesis is not certified on all of it
    cfg = VerifierConfig(L_values=(6,), radius_cap=3)
    (r,) = ratio_envelope_report(TreeModel(2, [2, 2]), UNIT, 2, 2, cfg, C0=0)
    assert r.coverage["window"]["truncated"]
    assert r.extras["minimal_C0"] == 0
    assert r.extras["hypothesis"] == "inconclusive"
    assert r.verdict == INCONCLUSIVE


def test_envelope_hypothesis_failure_is_measured():
    m = TreeModel(2, [1, Fraction(3, 2)])
    reps = ratio_envelope_report(m, UNIT, 1, 1, VerifierConfig(L_values=(4, 12)))
    by_L = {r.window_L: r for r in reps}
    assert by_L[4].verdict == HYPOTHESIS_FAILED
    assert by_L[12].verdict == HYPOTHESIS_FAILED
    # minimal C0 = (r - beta) * L / (beta + 1) at the worst class b
    assert by_L[4].extras["minimal_C0"] == 1
    assert by_L[12].extras["minimal_C0"] == 3
    assert by_L[4].extras["worst_class"] == "b"


def test_envelope_measurement_without_certified_escape_is_inconclusive():
    # reference brackets are loose here: the pessimistic measurement wants
    # C0 > 0 at beta = 3.9, but no inner-side escape certifies a violation
    gens = GeneratingSet(2, ["a", "A", "b", "B", "ab", "BA"])
    wm = WordMetricModel(gens)
    cfg = VerifierConfig(L_values=(4,), radius_cap=10)
    (r,) = ratio_envelope_report(WB2, wm, 1, 3.9, cfg, C0=0)
    assert r.verdict == INCONCLUSIVE
    assert r.extras["minimal_C0"] > 0


def test_envelope_hypothesis_reads_an_exact_tie_past_float_precision():
    # every ratio is exactly w, which no float holds: beta + tol rounds to
    # the float 1e17 < w, which read the hypothesis as failed
    w = 10 ** 17 + 1
    (r,) = ratio_envelope_report(TreeModel(2, [w, w]), UNIT, w, w,
                                 VerifierConfig(L_values=(4,)), C0=0)
    assert (r.verdict, r.extras["hypothesis"]) == (HOLDS, "verified")
    assert r.extras["minimal_C0"] == 0


def test_envelope_band_validation():
    with pytest.raises(InputError):
        ratio_envelope_report(WB2, UNIT, 2, 1, VerifierConfig(L_values=(4,)))
    with pytest.raises(InputError):
        ratio_envelope_report(WB2, UNIT, -1, 1, VerifierConfig(L_values=(4,)))


def test_verify_on_the_tree_pair_never_imports_numpy_ma(tmp_path):
    # np.union1d's np.unique imports numpy.ma on its first call; cor14's
    # candidate unions are plain sorted sets
    scen = ROOT / "src" / "lenspec" / "scenarios" / "tree-pair.json"
    code = ("import sys\n"
            "from lenspec.cli import main\n"
            f"assert main(['verify', '--scenario', {str(scen)!r},"
            f" '--out', {str(tmp_path)!r}]) == 0\n"
            "assert 'numpy.ma' not in sys.modules\n")
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "classes.csv").exists()


# ------------------------------------------------------ joint vs dilation


def test_joint_equals_dilation_standard():
    r = joint_vs_dilation_report(UNIT, GeneratingSet.standard(2),
                                 VerifierConfig(L_values=(4,)))
    assert r.verdict == HOLDS
    assert r.window_sup.lo == 1 and r.window_sup.exact
    assert r.extras["joint_lo"] == 1 and r.extras["joint_hi"] == 1
    assert r.extras["exact_equal"]


def test_joint_equals_dilation_with_shortcut():
    r = joint_vs_dilation_report(UNIT, GeneratingSet(2, ["a", "A", "b", "B", "ab"]),
                                 VerifierConfig(L_values=(4,)))
    assert r.verdict == HOLDS
    assert r.window_sup.lo == 2
    assert r.extras["joint_lo"] == 2 and r.extras["joint_hi"] == 2


def test_joint_vs_dilation_accepts_plain_words():
    r = joint_vs_dilation_report(UNIT, ["a", "A", "b", "B"],
                                 VerifierConfig(L_values=(4,)))
    assert r.verdict == HOLDS


def test_joint_vs_dilation_inconclusive_on_a_loose_window():
    # aa makes the word metric of S bracket-only, its lo side cyclen / 2:
    # the window's ratio bracket on b^k is [3, 6] against the exact joint
    # length 3, and neither side settles
    r = joint_vs_dilation_report(TreeModel(2, [1, 3]), ["a", "A", "b", "B", "aa"],
                                 VerifierConfig(L_values=(4,), n_max=4))
    assert r.window_sup == LengthBracket(3, 6)
    assert r.extras["joint_lo"] == r.extras["joint_hi"] == 3
    assert not r.coverage["window"]["truncated"]
    assert r.verdict == INCONCLUSIVE


def test_joint_vs_dilation_shares_a_word_metric_table(monkeypatch):
    walks, evaluated = _count_work(monkeypatch)
    cfg = VerifierConfig(L_values=(4,))
    ref = WordMetricModel(GeneratingSet(2, ["a", "A", "b", "B"]))
    tables = {}
    windows = word_metric_dilation_report(WB2, ref, cfg, tables=tables)
    joint = joint_vs_dilation_report(WB2, ref, cfg, tables=tables)
    assert walks == [12] and evaluated == [(ref, 12), (WB2, 12)]
    assert joint == joint_vs_dilation_report(WB2, ["a", "A", "b", "B"], cfg)
    assert windows[0].window_sup == LengthBracket(2, 2, exact=True)


# ---------------------------------------------------- displacement balls


def test_displacement_ball_tree():
    g = displacement_ball(UNIT, 3)
    assert len(g.elements) == 52
    assert set(g.weights) == {1}
    assert all(UNIT.displacement(w) <= 3 for w in g.elements)


def test_displacement_ball_matrix():
    act = schottky()
    g = displacement_ball(act.linear, 1.5 * math.log(4))
    assert any(str(w) == "a" for w in g.elements)
    assert all(act.linear.displacement(w) <= 1.5 * math.log(4) + 1e-9
               for w in g.elements)


def test_displacement_ball_empty_raises():
    with pytest.raises(InputError, match="no generator"):
        displacement_ball(UNIT, Fraction(1, 2))


@pytest.mark.parametrize("use", ["mobius", "linear"])
def test_a_certificate_short_of_its_threshold_sizes_nothing(monkeypatch, use):
    # mu = 1e-10 is positive, but the certificate's own threshold (ok is
    # mu > 1e-9) rejects it: no window radius or ball is sized from it
    model = getattr(schottky(), use)
    weak = AnosovCertificate(mu=1e-10, log_C=0.0, ok=False, radius=6)
    monkeypatch.setattr(model, "certificate", lambda radius=6: weak)
    assert model.window_radius(4) == math.inf
    with pytest.raises(InputError, match="no gap certificate"):
        displacement_ball(model, 1.5 * math.log(4), VerifierConfig(radius_cap=3))


def test_greedy_chunks_match_word_metric():
    s_n = displacement_ball(UNIT, 3)
    rng = random.Random(43)
    ball = enumerate_ball(2, 6)
    sample = [g for g in (rng.choice(ball) for _ in range(30)) if g]
    ks = _greedy_chunks(WordRows.of(2, [g.letters for g in sample]),
                        UNIT.weight_of, 3)
    for g, k in zip(sample, ks.tolist(), strict=True):
        assert k == word_length(g, s_n, radius_cap=8)


def test_greedy_chunks_identity_and_oversize():
    assert _greedy_chunks(WordRows.of(2, [()]), UNIT.weight_of, 3).tolist() == [0]
    heavy = TreeModel(2, [1, 5])
    with pytest.raises(InputError):
        _greedy_chunks(WordRows.of(2, [Word("b").letters]), heavy.weight_of, 3)


# -------------------------------------------------------------- sandwiches


def test_cobounded_sandwich_oracle():
    sr = displacement_sandwich_report(UNIT, 4, 6)
    assert sr.case == "cobounded"
    assert sr.scale == Fraction(1, 2)
    assert sr.bound == 3
    assert len(sr.s_n.elements) == 52
    assert sr.checked == 1457  # 2 * 3^6 - 1
    assert sr.violations == []
    assert sr.verdict == HOLDS
    assert not sr.truncated


def test_cobounded_sandwich_weighted_tree():
    m = TreeModel(2, [1, Fraction(3, 2)])
    sr = displacement_sandwich_report(m, 3, 5)
    assert sr.verdict == HOLDS
    assert sr.violations == []


def test_rough_sandwich_on_linear_model():
    act = schottky()
    lin = LinearRepModel(
        [act.linear.generator_matrix(1), act.linear.generator_matrix(2)],
        alpha=0.0,
    )
    sr = displacement_sandwich_report(lin, 3, 3, VerifierConfig())
    assert sr.case == "rough"
    assert sr.checked == 52
    assert sr.violations == []
    assert sr.verdict == HOLDS
    assert sr.truncated  # matrix ball membership is radius-capped
    assert not sr.extras["bfs_capped"]


class _Misstated:
    """Mixin: displacement reads ``wrong`` (letters -> value) before the
    model's own value."""

    wrong: dict = {}

    def displacement(self, g):
        if g.letters in self.wrong:
            return self.wrong[g.letters]
        return super().displacement(g)


class _MisstatedTree(_Misstated, TreeModel):
    wrong = {Word("ab").letters: 5}


class _MisstatedLinear(_Misstated, LinearRepModel):
    # ab far above n |ab|; a below the lower bound 0 by half the tolerance
    wrong = {Word("ab").letters: 100.0,
             Word("a").letters: -VerifierConfig().tolerance / 2}


def test_cobounded_sandwich_lists_a_violation():
    # unit tree, n = 4: D = 1/2 and S_4 = {d <= 3}, so ab (one chunk, k = 1)
    # must have 4k/2 - 2 = 0 <= d <= 3k = 3; the stated 5 is certified wrong
    sr = displacement_sandwich_report(_MisstatedTree(2), 4, 3)
    assert sr.violations == [("ab", 1, 5)]
    assert sr.verdict == VIOLATED
    assert sr.checked == 53  # 2 * 3^3 - 1
    assert not sr.truncated


def test_rough_sandwich_lists_a_violation_it_cannot_certify():
    act = schottky()
    lin = _MisstatedLinear(
        [act.linear.generator_matrix(1), act.linear.generator_matrix(2)],
        alpha=0.0,
    )
    sr = displacement_sandwich_report(lin, 3, 3, VerifierConfig())
    k = word_length(Word("ab"), sr.s_n)
    assert 100.0 > 3 * k
    # a, within the tolerance of (n - alpha - 1) - (n - 1) = 0, is not listed
    assert sr.violations == [("ab", k, 100.0)]
    assert sr.verdict == INCONCLUSIVE
    assert sr.checked == 52
    assert sr.truncated and not sr.extras["bfs_capped"]


def test_a_capped_rough_sandwich_cannot_hold(monkeypatch):
    # the search stops before every ball word is settled: the rows it
    # checked are inside the sandwich, but the unsettled ones are unknown
    monkeypatch.setattr(words, "_SEARCH_NODE_CAP", 20)
    act = schottky()
    lin = LinearRepModel(
        [act.linear.generator_matrix(1), act.linear.generator_matrix(2)],
        alpha=0.0,
    )
    sr = displacement_sandwich_report(lin, 3, 3, VerifierConfig())
    assert sr.extras["bfs_capped"] and sr.checked < 52
    assert sr.violations == []
    assert sr.verdict == INCONCLUSIVE


def test_sandwich_validation():
    act = schottky()
    with pytest.raises(InputError):
        displacement_sandwich_report(UNIT, 0, 4)
    with pytest.raises(InputError):
        displacement_sandwich_report(act.linear, 4, 3)  # no alpha declared
    lin = LinearRepModel([act.linear.generator_matrix(1)], alpha=2.0)
    with pytest.raises(InputError):
        displacement_sandwich_report(lin, 3, 3)  # n <= alpha+1


# ------------------------------------------------------------------ covers


def test_pointwise_cover_tree_oracle():
    cr = pointwise_cover_report(UNIT, 5, 2)
    assert [str(w) for w in cr.F] == ["e", "aa", "b"]
    assert cr.C == 0
    assert cr.checked == 485  # 2 * 3^5 - 1
    assert cr.verdict == HOLDS
    assert cr.extras["pool"] == 17


def test_pointwise_cover_mobius():
    act = schottky()
    cr = pointwise_cover_report(act.mobius, 3, 2)
    assert cr.C == pytest.approx(0.0, abs=1e-9)
    assert cr.verdict == HOLDS
    assert str(cr.F[0]) == "e"


def test_pointwise_cover_deterministic():
    a = pointwise_cover_report(UNIT, 4, 2)
    b = pointwise_cover_report(UNIT, 4, 2)
    assert [w.letters for w in a.F] == [w.letters for w in b.F]
    assert a.C == b.C


def test_pointwise_cover_caps_its_class_lengths_before_reading_any():
    # ball 1,457 words x pool 17 candidates = 24,769 class lengths
    class Unread(TreeModel):
        def class_length(self, letters):
            raise AssertionError("a class length was read")

    with pytest.raises(ResourceCapError, match="1457 x 17 class lengths"):
        pointwise_cover_report(Unread(2, [1, 2]), 6, 2,
                               VerifierConfig(class_cap=20_000))
    cr = pointwise_cover_report(TreeModel(2, [1, 2]), 6, 2,
                                VerifierConfig(class_cap=24_769))
    assert cr.checked == 1457 and cr.extras["pool"] == 17


def test_pointwise_cover_needs_exact_model():
    wm = WordMetricModel(GeneratingSet(2, ["a", "A", "b", "B", "ab", "BA"]))
    with pytest.raises(InputError):
        pointwise_cover_report(wm, 4, 2)


# ------------------------------------------------------------ Delta metric


def test_delta_vanishes_on_homothety():
    r = metric_distance_report(TreeModel(2, [2, 2]), UNIT)
    assert r.verdict == HOLDS
    assert r.delta.lo == 0.0 and r.delta.hi == 0.0
    assert r.dil_ab.lo == 2 and r.dil_ba.lo == Fraction(1, 2)


def test_delta_weighted_pair():
    r = metric_distance_report(WB2, UNIT)
    assert r.verdict == HOLDS
    assert r.delta.lo == pytest.approx(math.log(2), abs=1e-12)
    assert r.delta.exact


def test_delta_symmetry():
    act = schottky()
    ab = metric_distance_report(act.mobius, UNIT)
    ba = metric_distance_report(UNIT, act.mobius)
    assert ab.delta.lo == pytest.approx(ba.delta.lo, abs=1e-12)
    assert ab.delta.hi == pytest.approx(ba.delta.hi, abs=1e-12)


def test_delta_triangle_inequality():
    rng = random.Random(53)
    for _ in range(12):
        wts = [
            [Fraction(rng.randint(1, 5)), Fraction(rng.randint(1, 5))]
            for _ in range(3)
        ]
        A, B, C = (TreeModel(2, w) for w in wts)
        dab = metric_distance_report(A, B).delta.hi
        dbc = metric_distance_report(B, C).delta.hi
        dac = metric_distance_report(A, C).delta.hi
        assert dac <= dab + dbc + 1e-9


def test_delta_mixed_elliptic_pair_still_resolves():
    # letters are elliptic but products are loxodromic: spectrum not degenerate
    rot = MobiusModel([[[0.0, -1.0], [1.0, 0.0]], [[0.0, -2.0], [0.5, 0.0]]])
    r = metric_distance_report(rot, UNIT)
    assert r.verdict == HOLDS
    assert math.isfinite(r.delta.hi)


def test_delta_degenerate_spectrum_is_inconclusive():
    # a single rotation: every class is elliptic, the window is empty
    rot = MobiusModel([[[0.0, -1.0], [1.0, 0.0]]])
    r = metric_distance_report(rot, TreeModel(1))
    assert r.verdict == INCONCLUSIVE
    assert r.delta.hi == math.inf
