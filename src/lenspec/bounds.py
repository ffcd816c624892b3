"""Windowed dilation computation and executable checks for length-spectrum
comparison inequalities.

The dilation Dil(X*, X) = sup over nontrivial conjugacy classes of
l_X*[g] / l_X[g] is approximated from below by window sups

    sup over 0 < l_X[g] <= L of the ratio bracket,

with enumeration depth chosen so that every class in the window is seen
(each model provides a comparison radius; when it exceeds the configured
cap, the window is flagged truncated and verdicts degrade accordingly).

Verdict policy, uniformly: every check decides by ``actions.verdict_of``.
A bound "holds" when the compared bracket's hi sits below the bound, is
"violated" only when the bracket's lo exceeds the bound, both are exact
(int or Fraction: a float excess refutes nothing) and the check's data is
not truncated (for a windowed bound: the bound-side window had full
coverage, otherwise the computed bound may understate the true right-hand
side), and is "inconclusive" in between.
A value meets a tolerance as there: the difference first, then ``tol``.

The windowed reports take an optional ``tables`` dict through which the
reports of one run share their class walks and model lengths (see
``ClassTable``).
"""

from __future__ import annotations

import heapq
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Optional

from ._np import numpy_for
from .actions import (_EXACT, HOLDS, HYPOTHESIS_FAILED, INCONCLUSIVE,
                      LengthBracket, exact_div, verdict_of)
from .errors import InputError, ResourceCapError
from .jsl import BochiConstants, joint_stable_profile
from .spaces import MatrixActionModel, TreeModel, WordMetricModel, class_lengths
from .words import (
    ClassCodes,
    GeneratingSet,
    Word,
    _as_words,
    WordRows,
    _finite_real,
    _id_groups,
    _letters_in_order,
    _settled_lengths,
    _unscaled,
    enumerate_ball,
)

np = numpy_for(globals())

__all__ = [
    "VerifierConfig",
    "WindowRow",
    "WindowSup",
    "ClassTable",
    "dilation_window",
    "table_radius",
    "window_lengths",
    "window_comparison_bound",
    "cobounded_dilation_report",
    "word_metric_dilation_report",
    "spectral_dilation_report",
    "ratio_envelope_report",
    "joint_vs_dilation_report",
    "displacement_ball",
    "displacement_sandwich_report",
    "SandwichReport",
    "pointwise_cover_report",
    "CoverReport",
    "metric_distance_report",
    "DeltaReport",
    "DilationReport",
]

_ZERO_EPS = 1e-9

# the int fields of VerifierConfig (caps, radii, levels), each with its least value
_INT_FIELDS = {"radius_cap": 1, "class_cap": 1, "k_max": 1, "window_k_max": 1,
               "n_max": 1, "frontier_cap": 1, "diagnostics_cap": 0}
# its other numbers, each with its least value (None: no bound); delta
# and D may also be None
_NUM_FIELDS = {"K": 0, "delta": 0, "D": None, "c_delta": 0, "tolerance": 0,
               "reference_factor": 1}


@dataclass(frozen=True)
class VerifierConfig:
    """Shared knobs for the verifiers; all radii and caps live here.

    Caps, radii and levels are ints at or above their least value; every
    other number is finite, and a bool is no number.  ``k_max`` and
    ``c_delta`` are validated and echoed into every report's scenario
    config, but no check reads them (``bf`` reads its pair maximum at a
    fixed k_max of 8).
    """

    K: float = 1e4
    delta: Optional[float] = None
    D: object = None
    L_values: tuple = (8,)
    c_delta: float = 4.0
    tolerance: float = 1e-9
    radius_cap: int = 12
    class_cap: int = 4_000_000
    k_max: int = 8
    window_k_max: int = 2
    reference_factor: int = 2
    n_max: int = 8
    frontier_cap: int = 1_000_000
    diagnostics_cap: int = 16

    def __post_init__(self):
        for name, least in _INT_FIELDS.items():
            v = getattr(self, name)
            if not (isinstance(v, numbers.Integral) and not isinstance(v, bool)
                    and v >= least):
                raise InputError(f"{name} must be an int >= {least}, got {v!r}")
        for name, least in _NUM_FIELDS.items():
            v = getattr(self, name)
            if v is None and name in ("delta", "D"):
                continue
            if not (_finite_real(v) and (least is None or v >= least)):
                at_least = "" if least is None else f" >= {least}"
                raise InputError(f"{name} must be a finite number{at_least}, "
                                 f"got {v!r}")
        if not self.L_values or not all(_finite_real(L) and L > 0
                                        for L in self.L_values):
            raise InputError("L_values must be a nonempty tuple of positive lengths")


@dataclass(frozen=True)
class WindowRow:
    rep: Word
    ref_length: LengthBracket
    target_length: LengthBracket
    ratio: LengthBracket
    straddles: bool


@dataclass(frozen=True)
class WindowSup:
    """Sup of length ratios over a window of the reference spectrum."""

    value: LengthBracket
    L: object
    count: int
    excluded: int
    straddled: int
    radius: int
    radius_needed: object
    truncated: bool
    attained: Optional[Word]
    empty: bool
    rows: tuple = ()


def _ratio_column(tops, bottoms, positive) -> np.ndarray:
    """float(exact_div(t, b)) of each pair where ``positive``, else nan,
    divided once per distinct pair of objects, or of a column's bits
    (``_id_groups``).

    An exact pair (int or Fraction) is one correctly rounded int division,
    with no Fraction built.
    """
    def ratio(i):
        t, b = tops[i], bottoms[i]
        if isinstance(t, _EXACT) and isinstance(b, _EXACT):
            return (t.numerator * b.denominator) / (t.denominator * b.numerator)
        return float(exact_div(t, b))

    out = np.full(len(tops), np.nan)
    rows = np.flatnonzero(positive)
    firsts, groups = _id_groups((tops, bottoms), rows)
    out[rows] = np.take(np.array(list(map(ratio, firsts))), groups)
    return out


class ClassTable:
    """Canonical classes with length brackets under two models at once,
    read in one direction: the ratios are target over reference.

    ``ref`` and ``tgt`` are the ClassLengths of the reference and of the
    target over the same ``classes``, a ClassCodes; ``reps`` is their
    letter tuples, built on first use.  ``tables`` (a fresh dict when not
    given) keeps the largest walk of each (rank, class_cap) and the
    largest ClassLengths of each (model, window_k_max): ``classes`` is a
    prefix of the kept walk and each side the kept lengths read over it,
    walked or evaluated anew (and kept) only where the kept one is missing
    or smaller.  A run sharing one dict thus walks a rank, and evaluates a
    model, once while its radius does not grow; a model on both sides is
    evaluated once, and a repeat table only divides its columns.  A run
    that knows the largest radius its tables of a rank read sets it as
    ``tables["radius", rank]``: a walk of that rank then reaches it, so a
    smaller table first reads a prefix of the one walk (a walk that would
    pass class_cap there is made to the table's own radius).  ``lo`` =
    tgt.lo/ref.hi and ``hi`` = tgt.hi/ref.lo are the ratio columns (nan
    where the reference lo is <= _ZERO_EPS), one array when both sides
    are points, and ``positive`` masks the classes whose reference lo is
    > _ZERO_EPS.  Every column entry is the correctly rounded float of the
    exact value, so float order never contradicts exact order: where two
    floats differ, the exact values differ the same way.  Every window
    sup and the cor14 envelope read these columns; ``ratio_lo`` and
    ``ratio_hi`` give the exact ratios.

    ``exact_pairs``: some class can pair two exact lengths, the target
    and the reference each holding an int or a Fraction somewhere.  Where
    it is False every ratio is a float, the ratio column's entry.

    ``floats_exact``: every length is a float or an int below 2**53 in
    size, so each equals its float.

    ``ties_exact``: every length is an int and m**3 < 2**52 for the
    largest |length| m.  Two distinct ratios a/b != c/d then differ by at
    least 1/(b*d) >= 1/m**2, more than the float spacing 2**-52 * m at
    their size, so ratios with equal floats are equal.
    """

    def __init__(self, target, ref, radius: int,
                 config: Optional[VerifierConfig] = None,
                 tables: Optional[dict] = None):
        if target.rank != ref.rank:
            raise InputError(
                f"rank mismatch: target {target.rank}, reference {ref.rank}"
            )
        cfg, radius = config or VerifierConfig(), int(radius)
        tables = {} if tables is None else tables
        key = (target.rank, cfg.class_cap)
        if key not in tables or tables[key].radius < radius:
            planned = tables.get(("radius", target.rank), 0)
            try:
                walk = ClassCodes.walk(target.rank, max(radius, planned), cfg.class_cap)
            except ResourceCapError:
                if planned <= radius:
                    raise
                walk = ClassCodes.walk(target.rank, radius, cfg.class_cap)
            tables[key] = walk
        classes = tables[key].prefix(radius)

        def side(model):
            key = (model, cfg.window_k_max)
            if key not in tables or tables[key].classes.radius < radius:
                tables[key] = class_lengths(model, classes, cfg.window_k_max)
            return tables[key].over(classes)

        self.ref = ref = side(ref)
        self.tgt = tgt = side(target)
        rl, rh, tl, th = ref.lo_f, ref.hi_f, tgt.lo_f, tgt.hi_f
        self.exact_pairs = all(any(issubclass(t, _EXACT) for t in s.kinds)
                               for s in (ref, tgt))
        types = ref.kinds | tgt.kinds
        top = max((float(np.abs(f).max()) for f in (rl, rh, tl, th) if f.size),
                  default=0.0)
        self.floats_exact = types <= {int, float} and top < 2.0 ** 53
        self.positive = positive = _above(rl, ref.lo, _ZERO_EPS, self.floats_exact)
        points = ref.point and tgt.point
        if self.floats_exact:
            # one IEEE division is the correctly rounded exact_div value (a
            # Fraction for int/int, Python's a / b otherwise)
            # a ratio past the float range, over a subnormal reference, is
            # blanked with its row below
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                self.lo = tl / rh
                self.hi = self.lo if points else th / rl
            self.lo[rl <= _ZERO_EPS] = np.nan
            self.hi[rl <= _ZERO_EPS] = np.nan
        else:
            self.lo = _ratio_column(tgt.lo, ref.hi, positive)
            self.hi = self.lo if points else _ratio_column(tgt.hi, ref.lo, positive)
        self.ties_exact = types <= {int} and top ** 3 < 2.0 ** 52

    def __len__(self):
        return len(self.classes)

    @property
    def classes(self) -> ClassCodes:
        return self.ref.classes

    @property
    def radius(self) -> int:
        return self.classes.radius

    @property
    def reps(self) -> list:
        return self.classes.reps

    def ratio_lo(self, i):
        """The exact tgt.lo/ref.hi of class i."""
        return exact_div(self.tgt.lo[i], self.ref.hi[i])

    def ratio_hi(self, i):
        """The exact tgt.hi/ref.lo of class i."""
        return exact_div(self.tgt.hi[i], self.ref.lo[i])


def _above(f, exact, x, floats_exact: bool = False):
    """Mask of exact[i] > x, where ``f`` holds the correctly rounded floats
    of ``exact``: f[i] and float(x) decide wherever they differ, and exact
    values are compared only where they are equal.  With ``floats_exact``
    (every exact[i] == f[i]) each of those ties is float(x) > x."""
    fx = float(x)
    if floats_exact:
        return f >= fx if fx > x else f > fx
    mask = f > fx
    ties = np.flatnonzero(f == fx).tolist()
    if ties:
        mask[ties] = [exact[i] > x for i in ties]
    return mask


def _near(f, idx, lowest: bool = False, scale=None):
    """The indices of ``idx`` (ascending) whose float in f is the extreme.

    f holds correctly rounded floats of exact values, so the exact max (or
    min) is among the entries whose float equals the float max (min).
    With ``scale``, every entry within 2**-40 * (|extreme| + scale) of the
    extreme is kept too: a value computed from the exact ones in float
    arithmetic of that scale can tie with the extreme only inside that
    slack.
    """
    if not idx.size:
        return idx
    ext = f.min() if lowest else f.max()
    if scale is None or not math.isfinite(ext):
        return idx[f == ext]
    return idx[np.abs(f - ext) <= 2.0 ** -40 * (abs(ext) + scale)]


def _union(a, b) -> list:
    """The indices of ``a`` or ``b`` ascending, each once (np.union1d's
    order, without the numpy.ma import its first call makes)."""
    return sorted({*a.tolist(), *b.tolist()})


def _first_max(cands, value_of, ties_exact: bool = False):
    """(value, index): the exact max of value_of over cands, first index.

    With ``ties_exact`` the candidates (one float tie) are known equal, and
    the first decides.
    """
    best, at = None, -1
    for i in cands[:1].tolist() if ties_exact else cands.tolist():
        v = value_of(i)
        if best is None or v > best:
            best, at = v, i
    return best, at


def window_lengths(config: VerifierConfig, scale=1) -> list:
    """The (window, reference window) lengths of each L of
    ``config.L_values`` that the windowed reports read: (scale L,
    scale reference_factor L)."""
    return [(scale * L, scale * config.reference_factor * L)
            for L in config.L_values]


def table_radius(ref, lengths, config: Optional[VerifierConfig] = None) -> int:
    """The radius of the class table that windows of these lengths of the
    reference ``ref``'s spectrum read: their largest finite
    ``ref.window_radius``, capped at radius_cap (radius_cap when none is
    finite)."""
    cap = (config or VerifierConfig()).radius_cap
    finite = [r for r in map(ref.window_radius, lengths) if r != math.inf]
    return int(min(max(finite, default=cap), cap))


def _window_sup(table: ClassTable, L, radius_needed, *,
                diag_cap: int) -> WindowSup:
    ref, tgt = table.ref, table.tgt
    seen = ~_above(ref.lo_f, ref.lo, L, table.floats_exact)
    positive = table.positive
    inc = np.flatnonzero(seen & positive)
    excluded = int(np.count_nonzero(seen & ~positive))
    count = len(inc)
    truncated = bool(radius_needed > table.radius)
    if count == 0:
        return WindowSup(
            value=LengthBracket(0, 0, exact=True),
            L=L, count=0, excluded=excluded, straddled=0,
            radius=table.radius, radius_needed=radius_needed,
            truncated=truncated, attained=None, empty=True,
        )
    strad = _above(ref.hi_f, ref.hi, L, table.floats_exact)[inc]
    r_lo, r_hi = table.ratio_lo, table.ratio_hi
    hi_f = table.hi[inc]
    sup_hi, att_idx = _first_max(_near(hi_f, inc), r_hi, table.ties_exact)
    inner = inc[~strad]
    sup_lo = (_first_max(_near(table.lo[inner], inner), r_lo, table.ties_exact)[0]
              if inner.size else 0)
    sup_lo = min(sup_lo, sup_hi)
    rows = []
    if diag_cap > 0:
        # the top diag_cap by (r_hi, index): all entries whose float beats
        # the diag_cap-th largest float, and the exact order among ties
        cands = inc
        if count > diag_cap:
            cut = np.partition(hi_f, count - diag_cap)[count - diag_cap]
            cands = inc[hi_f >= cut]
        order = table.hi.__getitem__ if table.ties_exact else r_hi
        top = heapq.nlargest(diag_cap, cands.tolist(), key=lambda i: (order(i), i))
        for i in top:
            rh, rl = r_hi(i), r_lo(i)
            rows.append(WindowRow(
                rep=Word._unchecked(table.classes.rep(i)),
                ref_length=LengthBracket(ref.lo[i], ref.hi[i],
                                         exact=bool(ref.lo[i] == ref.hi[i])),
                target_length=LengthBracket(tgt.lo[i], tgt.hi[i],
                                            exact=bool(tgt.lo[i] == tgt.hi[i])),
                ratio=LengthBracket(rl, rh, exact=bool(rl == rh)),
                straddles=bool(ref.hi[i] > L),
            ))
    return WindowSup(
        value=LengthBracket(sup_lo, sup_hi, exact=bool(sup_lo == sup_hi)),
        L=L, count=count, excluded=excluded,
        straddled=int(np.count_nonzero(strad)),
        radius=table.radius, radius_needed=radius_needed,
        truncated=truncated, attained=Word._unchecked(table.classes.rep(att_idx)),
        empty=False, rows=tuple(rows),
    )


def dilation_window(target, ref, L, config: Optional[VerifierConfig] = None,
                    *, tables: Optional[dict] = None) -> WindowSup:
    """Sup of l_target/l_ref ratio brackets over classes with 0 < l_ref <= L.

    Classes whose reference bracket straddles L are included (conservative
    for the hi side, excluded from the lo side); classes whose reference
    length cannot be certified positive are excluded and counted.  The
    window reads the classes up to ``ref.window_radius(L)``, capped at
    ``radius_cap``.  With a ``tables`` dict (see ``ClassTable``) calls
    share one walk and one evaluation of each model: a window no larger
    than one already read takes its classes and lengths from it, so the
    largest L should come first.
    """
    cfg = config or VerifierConfig()
    table = ClassTable(target, ref, table_radius(ref, [L], cfg), cfg, tables)
    return _window_sup(table, L, ref.window_radius(L), diag_cap=cfg.diagnostics_cap)


# ----------------------------------------------------------------- verdicts


@dataclass
class DilationReport:
    """One verifier outcome: window sup, bound, reference, verdict."""

    name: str
    window_L: object
    window_sup: LengthBracket
    bound_value: object
    reference_dilation: LengthBracket
    verdict: str
    diagnostics: list
    coverage: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)


def _coverage(ws: WindowSup) -> dict:
    return {
        "L": ws.L,
        "classes": ws.count,
        "excluded": ws.excluded,
        "straddled": ws.straddled,
        "radius": ws.radius,
        "radius_needed": ws.radius_needed,
        "truncated": ws.truncated,
        "empty": ws.empty,
    }


def _bound_reports(target, ref, cfg: VerifierConfig, tables: Optional[dict],
                   name: str, bound_of, scale=1) -> list[DilationReport]:
    """``_windowed_reports`` of a windowed upper bound on the dilation:
    ``bound_of(L, ws, ref_ws)`` gives (bound, extras), ``verdict_of`` judges
    the reference window sup against the bound, truncated where the window
    is, and the extras gain the class attaining the window sup."""

    def judge(L, ws, ref_ws, table):
        bound, extras = bound_of(L, ws, ref_ws)
        extras["attained"] = str(ws.attained) if ws.attained else None
        verdict = verdict_of(ref_ws.value.lo, ref_ws.value.hi, bound, bound,
                             cfg.tolerance, truncated=ws.truncated)
        return name, bound, verdict, extras

    return _windowed_reports(target, ref, cfg, tables, judge, scale)


def _windowed_reports(target, ref, cfg: VerifierConfig, tables: Optional[dict],
                      judge, scale=1) -> list[DilationReport]:
    """One DilationReport per L of cfg.L_values from one class table.

    For each L the window (0, scale*L] and the reference window
    (0, scale*reference_factor*L] of the reference spectrum are scanned in
    a table built once, up to the largest window radius any of them needs.
    ``judge(L, ws, ref_ws, table)`` returns (name, bound, verdict, extras).
    Reference windows keep no rows: no report reads them.
    """
    windows = window_lengths(cfg, scale)
    radius = table_radius(ref, [w for pair in windows for w in pair], cfg)
    table = ClassTable(target, ref, radius, cfg, tables)
    out = []
    for L, (win, ref_win) in zip(cfg.L_values, windows):
        ws = _window_sup(table, win, ref.window_radius(win),
                         diag_cap=cfg.diagnostics_cap)
        ref_ws = _window_sup(table, ref_win, ref.window_radius(ref_win),
                             diag_cap=0)
        name, bound, verdict, extras = judge(L, ws, ref_ws, table)
        out.append(DilationReport(
            name=name,
            window_L=L,
            window_sup=ws.value,
            bound_value=bound,
            reference_dilation=ref_ws.value,
            verdict=verdict,
            diagnostics=list(ws.rows),
            coverage={"window": _coverage(ws), "reference": _coverage(ref_ws)},
            extras=extras,
        ))
    return out


# ------------------------------------------------- cobounded comparison


def window_comparison_bound(window_sup_hi, L, D, delta, K,
                            variant: str = "tight"):
    """Right-hand side of the cobounded comparison bound.

    variant 'tight': sup * (L-2D)/(L-6D) + 2*K*delta/(L-6D).
    variant 'plain-log4': sup * L/(L-6D) + 2*K*log(4)/(L-6D), the form for
    actions on convex cores where log 4 replaces the measured delta.
    Requires L > 6D.
    """
    return _comparison_bound(window_sup_hi, L, D, delta, K, variant)[0]


def _comparison_bound(window_sup_hi, L, D, delta, K, variant):
    """(bound, sup term, L - 6D, penalty constant) of
    window_comparison_bound: the bound is the sup term plus
    2*K*(penalty constant)/(L - 6D)."""
    if not L > 6 * D:
        raise InputError(f"need L > 6D; got L={L}, 6D={6 * D}")
    den = L - 6 * D
    if variant == "tight":
        coef = exact_div(L - 2 * D, den)
        pen_delta = delta
    elif variant == "plain-log4":
        coef = exact_div(L, den)
        pen_delta = math.log(4)
    else:
        raise InputError(f"unknown variant {variant!r}")
    sup_term = bound = window_sup_hi * coef
    pen = 2 * K * pen_delta
    if pen:
        bound = bound + exact_div(pen, den)
    return bound, sup_term, den, pen_delta


def _minimal_K(ref_hi, sup_term, den, delta):
    if delta == 0:
        return 0 if ref_hi <= sup_term else math.inf
    return max(0.0, float(ref_hi - sup_term) * float(den) / (2.0 * float(delta)))


def cobounded_dilation_report(target, ref, config: Optional[VerifierConfig] = None,
                              variant: str = "tight", *,
                              tables: Optional[dict] = None
                              ) -> list[DilationReport]:
    """Window-sup comparison bound for a pair of cobounded actions.

    For each L: Dil(target, ref) <= window_sup(L) * coefficient + penalty,
    compared against a reference dilation estimated on a window
    reference_factor * L.  The minimal K making the bound hold on this
    instance is reported as a diagnostic.
    """
    cfg = config or VerifierConfig()
    D = cfg.D if cfg.D is not None else ref.cobound_D
    if D is None or D <= 0:
        raise InputError("reference model declares no positive coboundedness "
                         "constant; pass D in the config")
    delta = cfg.delta
    if delta is None:
        delta = max(target.delta, ref.delta)
    for L in cfg.L_values:
        if not L > 6 * D:
            raise InputError(f"need L > 6D for every window; L={L}, 6D={6 * D}")

    def bound_of(L, ws, ref_ws):
        bound, sup_term, den, pen_delta = _comparison_bound(
            ws.value.hi, L, D, delta, cfg.K, variant)
        return bound, {
            "D": D,
            "delta": delta,
            "K": cfg.K,
            "variant": variant,
            "minimal_K": _minimal_K(ref_ws.value.hi, sup_term, den, pen_delta),
        }

    return _bound_reports(target, ref, cfg, tables,
                          f"cobounded-window[{variant}]", bound_of)


# --------------------------------------------- semigroup word-metric bound


def word_metric_dilation_report(target, gens, config: Optional[VerifierConfig] = None,
                                *, tables: Optional[dict] = None
                                ) -> list[DilationReport]:
    """Dilation of target against a word metric: K*delta/L + window sup at 2L.

    `gens` may be a GeneratingSet or a prebuilt WordMetricModel; the set must
    generate the group as a semigroup (validated by the model).  delta is the
    target's hyperbolicity constant unless overridden.
    """
    cfg = config or VerifierConfig()
    ref = gens if isinstance(gens, WordMetricModel) else WordMetricModel(gens)
    delta = cfg.delta if cfg.delta is not None else target.delta
    for L in cfg.L_values:
        if L < 1 or int(L) != L:
            raise InputError(f"window lengths must be integers >= 1, got {L}")

    def bound_of(L, ws, ref_ws):
        pen = cfg.K * delta
        bound = ws.value.hi if pen == 0 else exact_div(pen, L) + ws.value.hi
        return bound, {"delta": delta, "K": cfg.K, "window": 2 * L}

    return _bound_reports(target, ref, cfg, tables, "word-metric-window",
                          bound_of, scale=2)


# ---------------------------------------------------- spectral-radius bound


def spectral_dilation_report(rho, tau, config: Optional[VerifierConfig] = None,
                             alpha: float = 0.0, cert_radius: int = 6, *,
                             tables: Optional[dict] = None
                             ) -> list[DilationReport]:
    """Dilation of log-spectral-radius lengths of rho against those of tau.

    eta is the window sup of log lambda_1(rho(g)) / log lambda_1(tau(g)) over
    0 < l_tau <= L; the bound is c_m*d_m/(L - d_m(a+1)) + eta*L/(L - d_m(a+1)).
    Requires L > d_m(alpha+1) and a passing gap certificate for rho.
    """
    cfg = config or VerifierConfig()
    cert = rho.certificate(cert_radius)
    if not cert.ok:
        raise InputError(
            f"singular gap certificate failed (mu={cert.mu:.6g} at radius "
            f"{cert.radius}): it is the spectral bound's hypothesis that rho "
            "is a dominated representation"
        )
    consts = BochiConstants.for_dim(rho.dim)
    slack = consts.d_m * (alpha + 1)
    for L in cfg.L_values:
        if not L > slack:
            raise InputError(f"need L > d_m(alpha+1) = {slack}; got L={L}")

    def bound_of(L, ws, ref_ws):
        den = L - slack
        bound = consts.c_m * consts.d_m / den + float(ws.value.hi) * L / den
        return bound, {
            "c_m": consts.c_m,
            "d_m": consts.d_m,
            "alpha": alpha,
            "eta": ws.value.hi,
            "certificate_mu": cert.mu,
        }

    return _bound_reports(rho, tau, cfg, tables, "spectral-window", bound_of)


# ------------------------------------------------------- ratio envelope


def ratio_envelope_report(target, ref, alpha_lo, beta_hi,
                          config: Optional[VerifierConfig] = None,
                          C0=None, *, tables: Optional[dict] = None
                          ) -> list[DilationReport]:
    """Two-sided envelope check: if ratios lie in [alpha, beta] on the window,
    the conclusion pins all ratios inside the C0/L-inflated envelope.

    With C0 given, the conclusion is checked classwise on the reference
    window (a single certified escapee refutes).  Without C0, the minimal
    C0 making both conclusion inequalities hold there is measured.
    """
    cfg = config or VerifierConfig()
    if alpha_lo < 0 or beta_hi < alpha_lo:
        raise InputError("need 0 <= alpha <= beta")
    tol = cfg.tolerance

    def judge(L, ws, ref_ws, table):
        r_lo, r_hi = table.ratio_lo, table.ratio_hi
        a_scale = exact_div(L, alpha_lo + 1)
        b_scale = exact_div(L, beta_hi + 1)
        # measurement scope: 0 < ref lo <= reference_factor * L; hypothesis
        # scope: its part with ref lo <= L
        below = partial(_above, table.ref.lo_f, table.ref.lo,
                        floats_exact=table.floats_exact)
        scope = table.positive & ~below(cfg.reference_factor * L)
        meas = np.flatnonzero(scope)
        hyp = np.flatnonzero(scope & ~below(L))
        hyp_failed = hyp_uncertified = False
        if hyp.size:
            lo_f, hi_f = table.lo[hyp], table.hi[hyp]
            min_lo = min(map(r_lo, _near(lo_f, hyp, lowest=True)))
            max_lo = max(map(r_lo, _near(lo_f, hyp)))
            min_hi = min(map(r_hi, _near(hi_f, hyp, lowest=True)))
            max_hi = max(map(r_hi, _near(hi_f, hyp)))
            hyp_failed = alpha_lo - min_hi > tol or max_lo - beta_hi > tol
            hyp_uncertified = alpha_lo - min_lo > tol or max_hi - beta_hi > tol
        hyp_uncertified = hyp_uncertified or ws.truncated
        # Each C0 term is monotone in one ratio, so its max sits at an
        # extreme of that ratio's column.  Float arithmetic in a term can
        # tie other classes with it, so every class within float slack of
        # an extreme is scanned exactly, in table order.
        need_c0 = 0
        cert_c0 = 0
        worst = None
        lo_f, hi_f = table.lo[meas], table.hi[meas]
        scale = abs(alpha_lo) + abs(beta_hi) + 1
        # measurement: outer bracket, can only overstate the needed C0
        for i in _union(_near(lo_f, meas, lowest=True, scale=scale),
                        _near(hi_f, meas, scale=scale)):
            c = max((alpha_lo - r_lo(i)) * a_scale, (r_hi(i) - beta_hi) * b_scale)
            if c > need_c0:
                need_c0 = c
                worst = table.classes.rep(i)
        # refutation: inner bracket, the true ratio escapes for sure
        for i in _union(_near(hi_f, meas, lowest=True, scale=scale),
                        _near(lo_f, meas, scale=scale)):
            c_cert = max((alpha_lo - r_hi(i)) * a_scale, (r_lo(i) - beta_hi) * b_scale)
            if c_cert > cert_c0:
                cert_c0 = c_cert
        bound = None if hyp_failed else C0
        if hyp_failed:
            verdict = HYPOTHESIS_FAILED
        elif C0 is None:
            verdict = INCONCLUSIVE if hyp_uncertified else HOLDS
        else:
            # a single certified escapee refutes, whatever the coverage; an
            # unverified hypothesis leaves the needed C0 unbounded above
            verdict = verdict_of(cert_c0, math.inf if hyp_uncertified else need_c0,
                                 C0, C0, tol, truncated=False)
        return "ratio-envelope", bound, verdict, {
            "alpha": alpha_lo,
            "beta": beta_hi,
            "C0": C0,
            "minimal_C0": need_c0,
            "worst_class": str(Word._unchecked(worst)) if worst else None,
            "hypothesis": ("failed" if hyp_failed else
                           "inconclusive" if hyp_uncertified else "verified"),
        }

    return _windowed_reports(target, ref, cfg, tables, judge)


# ------------------------------------------- dilation vs joint stable length


def joint_vs_dilation_report(model, s, config: Optional[VerifierConfig] = None,
                             *, tables: Optional[dict] = None) -> DilationReport:
    """Windowed Dil(model, word metric of S) against the joint stable length.

    The two agree for isometric actions on hyperbolic spaces; the check
    certifies Dil <= joint on the window and reports the equality gap.
    ``s`` may be a GeneratingSet, a list of words, or a prebuilt
    WordMetricModel, whose table a ``tables`` dict can then share with the
    other reports against the same reference.
    """
    cfg = config or VerifierConfig()
    if isinstance(s, WordMetricModel):
        ref = s
        words = list(s.gens.elements)
    else:
        if isinstance(s, GeneratingSet):
            words = list(s.elements)
            gens = s
        else:
            words = _as_words(s)
            gens = GeneratingSet(rank=model.rank, elements=tuple(words))
        ref = WordMetricModel(gens)
    L = max(cfg.L_values)
    ws = dilation_window(model, ref, L, cfg, tables=tables)
    profile = joint_stable_profile(model, words, cfg.n_max,
                                   frontier_cap=cfg.frontier_cap)
    joint = profile.bracket
    return DilationReport(
        name="joint-vs-dilation",
        window_L=L,
        window_sup=ws.value,
        bound_value=joint.hi,
        reference_dilation=ws.value,
        verdict=verdict_of(ws.value.lo, ws.value.hi, joint.lo, joint.hi,
                           cfg.tolerance, truncated=ws.truncated),
        diagnostics=list(ws.rows),
        coverage={"window": _coverage(ws)},
        extras={
            "joint_lo": joint.lo,
            "joint_hi": joint.hi,
            "joint_engine": profile.engine,
            "exact_equal": bool(joint.exact and ws.value.exact
                                and joint.lo == ws.value.lo),
            "n_max": cfg.n_max,
        },
    )


# ------------------------------------------------- displacement sandwiches


def displacement_ball(model, bound, config: Optional[VerifierConfig] = None
                      ) -> GeneratingSet:
    """All nontrivial g with displacement <= bound, as a generating set.

    Needs a tree or a matrix model: only these bound the ball's radius.
    """
    cfg = config or VerifierConfig()
    if isinstance(model, TreeModel):
        unit_radius = int(exact_div(bound, min(model.weights)))
    elif isinstance(model, MatrixActionModel):
        cert = model.certificate()
        if not cert.ok:
            raise InputError("cannot bound the displacement ball: no gap certificate")
        unit_radius = math.ceil((2 * float(bound) - 2 * cert.log_C) / cert.mu)
        unit_radius = min(unit_radius, cfg.radius_cap)
    else:
        raise InputError("the displacement ball needs a tree or a matrix "
                         f"model, got {type(model).__name__}")
    if unit_radius < 1:
        raise InputError(f"displacement bound {bound} admits no generator")
    # the ball less the identity, its first word
    ball = enumerate_ball(model.rank, unit_radius, cap=cfg.class_cap)[1:]
    d, den = _row_values(model, _rows(model, ball), "displacement")
    within = np.flatnonzero(d <= _scaled_limit(bound, den)).tolist()
    elems = list(map(ball.__getitem__, within))
    if not elems:
        raise InputError(f"displacement bound {bound} admits no generator")
    return GeneratingSet(rank=model.rank, elements=tuple(elems))


def _row_values(model, rows: WordRows, method: str):
    """(values, den): ``method``, "displacement" or "class_length", of
    every row of a word batch, as an array of den times the values.

    A TreeModel itself (not a subclass, which may override its lengths)
    reads both as ``scaled_sums``: exact ints, den its ``_den``.  Any other
    model is read row by row into an object array of the values it gives,
    den None.
    """
    if type(model) is TreeModel:
        return model.scaled_sums(rows.codes), model._den
    read = (model.class_length if method == "class_length"
            else lambda w: model.displacement(Word._unchecked(w)))
    return np.array(list(map(read, rows.letters())), dtype=object), None


def _scaled_limit(bound, den):
    """What a ``_row_values`` array is compared with to find the values at
    most ``bound``: with den, the largest int at most bound times den; with
    den None, the bound itself."""
    return bound if den is None else math.floor(Fraction(bound) * den)


def _rows(model, words) -> WordRows:
    return WordRows.of(model.rank, [w.letters for w in words])


def _greedy_chunks(rows: WordRows, weight_of, bound) -> np.ndarray:
    """Minimal number of weight-<=bound pieces covering each word of a
    batch.

    On a tree this equals the word length with respect to the displacement
    ball: each piece is a subword (so a group element of displacement equal
    to its weight), and no factorization can move farther per factor.
    The greedy scan runs a column at a time over the rows, in the weights
    ``weight_of`` gives each letter, scaled to ints by the lcm of their
    denominators; the pad code weighs 0 and changes nothing.
    """
    weights = [Fraction(weight_of(x)) for x in _letters_in_order(rows.rank)]
    den = math.lcm(*(w.denominator for w in weights))
    scaled = [int(w * den) for w in weights] + [0]
    limit = _scaled_limit(bound, den)
    if max(scaled) > limit:
        present = np.unique(rows.codes)
        if any(scaled[c] > limit for c in present.tolist()):
            raise InputError("a single letter exceeds the displacement bound")
    wide = 2 * max(*scaled, limit) < 2 ** 63
    weight = np.array(scaled, np.int64 if wide else object)
    pieces = np.zeros(len(rows), np.int64)
    acc = np.zeros(len(rows), weight.dtype)
    for col in rows.codes.T:
        w = weight[col]
        acc = acc + w
        # a pad (weight 0) never starts a piece
        full = (acc > limit) & (w > 0)
        pieces += full
        acc[full] = w[full]
    return pieces + (acc > 0)


@dataclass
class SandwichReport:
    """Word-length sandwich of displacements against a displacement ball."""

    case: str
    n: int
    scale: object
    bound: object
    s_n: GeneratingSet
    checked: int
    violations: list
    verdict: str
    truncated: bool
    extras: dict = field(default_factory=dict)


def displacement_sandwich_report(model, n: int, ball_radius: int,
                                 config: Optional[VerifierConfig] = None
                                 ) -> SandwichReport:
    """Check the two-sided control of displacement by S_n word length.

    A model that declares a coboundedness constant D takes the cobounded
    case, any other the rough-geodesic case.

    Cobounded case (trees): S_n = {d(x,gx) <= (n+2)D} and
    n*D*|g| - n*D <= d(x,gx) <= (n+2)*D*|g| for every g, in exact arithmetic.
    Rough-geodesic case: S_n = {psi <= n}, needs n > alpha+1, and
    (n-alpha-1)*|g| - (n-1) <= psi(x,gx) <= n*|g|.
    """
    cfg = config or VerifierConfig()
    if n < 1:
        raise InputError("n must be >= 1")
    # only a tree's sandwich is exact: a matrix ball's membership is
    # radius-capped, so a rough-case violation is not certified
    exact = model.cobound_D is not None
    if exact:
        if not isinstance(model, TreeModel):
            raise InputError("exact sandwich checking needs a tree model")
        scale, tol = model.cobound_D, 0
        bound = (n + 2) * scale
        slope = shift = n * scale
        s_n = displacement_ball(model, bound, cfg)
    else:
        scale, tol = model.alpha, cfg.tolerance
        if scale is None:
            raise InputError("rough-geodesic case needs a declared alpha")
        if not n > scale + 1:
            raise InputError(f"need n > alpha+1 = {scale + 1}, got {n}")
        bound, slope, shift = n, n - scale - 1, n - 1
        s_n = displacement_ball(model, n, cfg)
    ball = enumerate_ball(model.rank, ball_radius, cap=cfg.class_cap)
    rows = _rows(model, ball)
    if exact:
        k, capped = _greedy_chunks(rows, model.weight_of, bound), False
    else:
        # S_n has unit weights, so a search cost is a word length; the
        # search has no cost budget and stops at its node cap
        lengths, capped = _settled_lengths(s_n, [g.letters for g in ball], None)
        settled = [i for i, g in enumerate(ball) if g.letters in lengths]
        ball, rows = [ball[i] for i in settled], rows.take(settled)
        k = np.array([lengths[g.letters] for g in ball], dtype=np.int64)
    d, den = _row_values(model, rows, "displacement")
    excess, tol = _excess(d, den, k, slope, shift, bound, tol)
    violations = [(str(ball[i]), int(k[i]),
                   d[i] if den is None else _unscaled(int(d[i]), den))
                  for i in np.flatnonzero(excess > tol).tolist()]
    # a tree's excess is an exact int, a matrix model's a float, which
    # refutes nothing; a capped search leaves the worst excess unbounded
    worst = max(excess.tolist(), default=0)
    extras = {"s_n_size": len(s_n.elements)}
    if not exact:
        extras["bfs_capped"] = capped
    return SandwichReport(
        case="cobounded" if exact else "rough", n=n, scale=scale,
        bound=bound, s_n=s_n, checked=len(ball), violations=violations,
        verdict=verdict_of(worst, math.inf if capped else worst, 0, 0, tol,
                           truncated=False),
        truncated=not exact, extras=extras,
    )


def _excess(d, den, k, slope, shift, bound, tol) -> tuple:
    """(excess, tol): each row's excess max(slope k - shift - d, d - bound k)
    over the sandwich [slope k - shift, bound k], d its value
    (``_row_values``: d, den) and k an int per row, and the tolerance, in
    one unit.  A row is outside the sandwich where its excess passes tol.

    With den None the unit is the values' own.  Otherwise the values are
    den times exact lengths, so the coefficients times den are brought to
    one denominator q and every side is an exact int: in int64 where no
    side can pass it, else in Python ints.
    """
    if den is None:
        k = k.astype(object)
    else:
        scaled = [Fraction(x) * den for x in (slope, shift, bound, tol)]
        q = math.lcm(*(x.denominator for x in scaled))
        slope, shift, bound, tol = (int(x * q) for x in scaled)
        top = (abs(slope) + abs(shift) + abs(bound) + abs(tol)) * (int(k.max(initial=0)) + 1)
        if not (top < 2 ** 62 and q * int(d.max(initial=0)) < 2 ** 62):
            d, k = d.astype(object), k.astype(object)
        d = d * q
    return np.maximum(slope * k - shift - d, d - bound * k), tol


# ---------------------------------------------------- pointwise length cover


@dataclass
class CoverReport:
    """A finite set F and constant C with d(x,gx) <= max_f l[gf] + C on a ball."""

    F: list
    C: object
    checked: int
    ball_radius: int
    f_radius: int
    verdict: str
    extras: dict = field(default_factory=dict)


def pointwise_cover_report(model, ball_radius: int, f_radius: int,
                           config: Optional[VerifierConfig] = None,
                           max_f: int = 12) -> CoverReport:
    """Greedy search for translates whose class lengths dominate displacement.

    Starts from F = {identity} and adds the candidate (word of length <=
    f_radius, the first on a tie) that most reduces C = max over the ball
    of d(x,gx) - max_f l[gf], until no strict improvement remains.  Needs
    a tree or a matrix model, whose class_length gives l; more than
    ``class_cap`` ball x candidate lengths raise ResourceCapError.
    """
    cfg = config or VerifierConfig()
    if not isinstance(model, (TreeModel, MatrixActionModel)):
        raise InputError("cover search needs a tree or a matrix model, "
                         f"got {type(model).__name__}")
    ball = enumerate_ball(model.rank, ball_radius, cap=cfg.class_cap)
    pool = enumerate_ball(model.rank, f_radius, cap=cfg.class_cap)
    if len(ball) * len(pool) > cfg.class_cap:
        raise ResourceCapError(f"cover search of {len(ball)} x {len(pool)} "
                               f"class lengths exceeds cap {cfg.class_cap}")
    rows = _rows(model, ball)
    disp, den = _row_values(model, rows, "displacement")

    def col(f: Word):
        # l[gf] over the ball: a tree or matrix length is the same on
        # every rotation of the core
        products = rows.products(_rows(model, [f]))
        return _row_values(model, products.cores(), "class_length")[0]

    # F holds distinct words of the pool, the identity (pool[0]) first;
    # gap is the max over the ball (never empty: it holds the identity) of
    # d(x,gx) - max_f l[gf], and C is gap or else 0, as max(gap, 0) reads
    F = [Word()]
    best = col(Word())
    gap = (disp - best).max()
    if len(F) < min(max_f, len(pool)) and gap > 0:
        cols = np.stack([best] + [col(f) for f in pool[1:]])
        free = np.ones(len(pool), bool)
        free[0] = False
        while len(F) < min(max_f, len(pool)) and gap > 0:
            cand = np.flatnonzero(free)
            # C of F + f for every free f; argmin keeps the first minimum
            c = np.maximum((disp - np.maximum(best, cols[cand])).max(axis=1), 0)
            i = cand[np.argmin(c)]
            trial = np.maximum(best, cols[i])
            trial_gap = (disp - trial).max()
            if not trial_gap < gap:
                break
            F.append(pool[i])
            free[i] = False
            best, gap = trial, trial_gap
    gap = gap.item() if isinstance(gap, np.generic) else gap
    C = (gap if den is None else _unscaled(gap, den)) if gap >= 0 else 0
    return CoverReport(
        F=F, C=C, checked=len(ball), ball_radius=ball_radius,
        f_radius=f_radius, verdict=HOLDS,
        extras={"pool": len(pool), "F_size": len(F)},
    )


# -------------------------------------------------------- metric distance


@dataclass
class DeltaReport:
    """Symmetrized log-dilation distance between two length spectra."""

    delta: LengthBracket
    dil_ab: LengthBracket
    dil_ba: LengthBracket
    window_L: object
    verdict: str
    coverage: dict = field(default_factory=dict)


def metric_distance_report(a, b, config: Optional[VerifierConfig] = None
                           ) -> DeltaReport:
    """log(Dil(a,b) * Dil(b,a)) from windowed dilations in both directions."""
    cfg = config or VerifierConfig()
    L = max(cfg.L_values)
    r_ab, r_ba = b.window_radius(L), a.window_radius(L)
    tables: dict = {}
    radius = max(table_radius(b, [L], cfg), table_radius(a, [L], cfg))
    table = ClassTable(a, b, radius, cfg, tables)
    back = ClassTable(b, a, table.radius, config=cfg, tables=tables)
    ws_ab = _window_sup(table, L, r_ab, diag_cap=cfg.diagnostics_cap)
    ws_ba = _window_sup(back, L, r_ba, diag_cap=cfg.diagnostics_cap)
    if ws_ab.empty or ws_ba.empty or ws_ab.value.lo <= 0 or ws_ba.value.lo <= 0:
        return DeltaReport(
            delta=LengthBracket(0.0, math.inf), dil_ab=ws_ab.value,
            dil_ba=ws_ba.value, window_L=L, verdict=INCONCLUSIVE,
            coverage={"ab": _coverage(ws_ab), "ba": _coverage(ws_ba)},
        )
    lo = math.log(float(ws_ab.value.lo * ws_ba.value.lo))
    hi = math.log(float(ws_ab.value.hi * ws_ba.value.hi))
    exact = ws_ab.value.exact and ws_ba.value.exact
    return DeltaReport(
        delta=LengthBracket(lo, hi, exact=bool(exact and lo == hi)),
        dil_ab=ws_ab.value,
        dil_ba=ws_ba.value,
        window_L=L,
        verdict=HOLDS,
        coverage={"ab": _coverage(ws_ab), "ba": _coverage(ws_ba)},
    )
