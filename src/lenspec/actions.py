"""Action models, certified length brackets and stable-length estimators.

An action model exposes one oracle, the displacement g -> d(x, g x) of a
fixed basepoint, plus a few declared constants (hyperbolicity delta, a
coboundedness constant D when the orbit is D-dense, a roughness constant
alpha for rough-geodesic pseudo-metrics).  Everything else in the package
is computed from displacements.

Stable translation length of g is lim_k d(x, g^k x)/k; the limit exists by
subadditivity, does not depend on the basepoint, and is a conjugacy
invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from typing import Sequence

from ._np import numpy_for
from .errors import InputError, NumericError
from .words import Word, enumerate_ball

np = numpy_for(globals())

__all__ = [
    "HOLDS",
    "VIOLATED",
    "INCONCLUSIVE",
    "HYPOTHESIS_FAILED",
    "verdict_of",
    "LengthBracket",
    "ActionModel",
    "AnosovCertificate",
    "gromov_product",
    "stable_length_bracket",
    "anosov_certificate",
    "power_schedule",
    "exact_div",
]


_EXACT = (int, Fraction)  # the exact value types; no numpy scalar is one


def _is_exact(x) -> bool:
    return isinstance(x, _EXACT)


HOLDS = "holds"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"
HYPOTHESIS_FAILED = "hypothesis-failed"


def verdict_of(lo, hi, bound_lo, bound_hi, tol: float, *, truncated: bool) -> str:
    """The verdict of a bracket [lo, hi] against a bound bracketed by
    [bound_lo, bound_hi]: "holds" when hi - bound_lo <= tol, "violated" only
    when the data is not ``truncated``, lo and bound_hi are int or Fraction
    and lo - bound_hi > tol, else "inconclusive".  Every check decides by
    this rule, and meets a tolerance as it does: the difference first, so
    no exact side is rounded to a float before ``tol`` enters."""
    if hi - bound_lo <= tol:
        return HOLDS
    exact_data = not truncated and _is_exact(lo) and _is_exact(bound_hi)
    return VIOLATED if exact_data and lo - bound_hi > tol else INCONCLUSIVE


def exact_div(a, b):
    """a / b, staying in Fraction when both sides are exact."""
    if type(a) is int and type(b) is int:
        return Fraction(a, b)
    if _is_exact(a) and _is_exact(b):
        return Fraction(a, 1) / Fraction(b, 1)
    return a / b


@dataclass(frozen=True)
class LengthBracket:
    """A certified interval [lo, hi] around a length-type quantity.

    ``exact`` means lo == hi by construction (not merely numerically).
    ``certified`` is always True and no verdict reads it: report.json
    echoes it until the report names the basis of each value.
    Values may be int/Fraction (exact models) or float.
    """

    lo: object
    hi: object
    exact: bool = False
    certified: bool = True

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        if lo is hi and type(lo) in _EXACT:
            # one exact value at both ends: every check below holds
            return
        if not (_is_exact(lo) and _is_exact(hi)):
            # allow a hair of float noise, then clamp
            scale = max(abs(float(lo)), abs(float(hi)), 1.0)
            if float(lo) > float(hi) + 1e-9 * scale:
                raise InputError(f"bracket lo {lo} > hi {hi}")
            if float(lo) > float(hi):
                object.__setattr__(self, "lo", hi)
        elif lo > hi:
            raise InputError(f"bracket lo {lo} > hi {hi}")
        if self.exact and self.lo != self.hi:
            raise InputError("exact bracket must have lo == hi")

    @classmethod
    def exactly(cls, v) -> "LengthBracket":
        return cls(v, v, exact=True)

    @property
    def width(self):
        return self.hi - self.lo

    def contains(self, v, tol=0) -> bool:
        return self.lo - v <= tol and v - self.hi <= tol

    def scale(self, c) -> "LengthBracket":
        if c < 0:
            raise InputError("scale factor must be nonnegative")
        return LengthBracket(self.lo * c, self.hi * c, self.exact, self.certified)

    def __str__(self):
        if self.exact:
            return f"{self.lo}"
        return f"[{self.lo}, {self.hi}]"


class ActionModel:
    """Base class: an isometric action of a free group given by displacements.

    Attributes set by subclasses:
      rank         free group rank
      delta        hyperbolicity constant of the space (0 for trees)
      cobound_D    orbit density constant, or None
      alpha        rough-geodesicity constant, or None
    """

    rank: int = 0
    delta = 0
    cobound_D = None
    alpha = None

    def displacement(self, g: Word):
        raise NotImplementedError

    def displacement_of_powers(self, g: Word, ks: Sequence[int]) -> dict:
        """d(x, g^k x) for each k."""
        return {k: self.displacement(g ** k) for k in ks}

    def window_radius(self, length_bound) -> int:
        """Standard-length radius guaranteed to contain every conjugacy class
        with stable length <= length_bound.  Subclasses implement the
        comparison to the unit tree."""
        raise NotImplementedError


def gromov_product(model: ActionModel, g: Word, h: Word):
    """(g x | h x)_x from displacements.

    Computed as (d(x, g^-1 x) + d(x, h x) - d(x, (g^-1 h) x)) / 2, which is
    the ordered variant; for a metric (d(x, y) = d(y, x)) it coincides
    with the usual Gromov product.  Exact weights give exact values.
    """
    a = model.displacement(g.inverse())
    b = model.displacement(h)
    c = model.displacement(g.inverse() * h)
    s = a + b - c
    return exact_div(s, 2)


def power_schedule(k_max: int) -> list[int]:
    """Doubling exponents 1, 2, 4, ..., up to twice k_max (rounded up)."""
    if k_max < 2:
        raise InputError("k_max must be >= 2")
    top = 2 ** (math.ceil(math.log2(k_max)) + 1)
    ks, k = [], 1
    while k <= top:
        ks.append(k)
        k *= 2
    return ks


def stable_length_bracket(
    model: ActionModel, g: Word, k_max: int = 8, c_delta=4
) -> LengthBracket:
    """Bracket around the stable length of g from power displacements.

    With a_k = d(x, g^k x):
      hi = min over computed k of a_k / k          (subadditivity),
      lo = max over pairs (k, 2k) of (a_2k - a_k)/k - c_delta*delta/k,
    clamped at 0.  The lo side would need l(h) >= d(x, h^2 x) - d(x, hx)
    - c_delta * delta for every isometry h, with delta the model's
    ``model.delta``.  The package cites no such inequality for the delta
    its models declare, and c_delta (default 4) is a declared constant, so
    for delta > 0 this lo is not certified.  On a tree (delta = 0) it is:
    d(x, h^2 x) - d(x, hx) is l(h) for hyperbolic h and at most 0 for
    elliptic h, so lo is the stable length.
    """
    if not g.letters:
        return LengthBracket.exactly(0 if _is_exact(model.delta) else 0.0)
    ks = power_schedule(k_max)
    a = model.displacement_of_powers(g, ks)
    hi = min(exact_div(a[k], k) for k in ks)
    lo = None
    for k in ks:
        if 2 * k not in a:
            continue
        cand = exact_div(a[2 * k] - a[k], k) - exact_div(c_delta * model.delta, k)
        if lo is None or cand > lo:
            lo = cand
    zero = 0 if _is_exact(hi) else 0.0
    lo = max(zero, zero if lo is None else lo)
    lo = min(lo, hi)  # float noise guard; exact models satisfy lo <= hi anyway
    return LengthBracket(lo, hi, exact=bool(lo == hi))


@dataclass(frozen=True)
class AnosovCertificate:
    """Singular-gap growth certificate for a linear model.

    Fits the largest mu with log(sigma_1/sigma_2)(rho(g)) >= log C + mu |g|
    over the ball of the given radius, anchored at the identity: mu = min
    of gap/|g|, first attained at ``worst`` in (length, letter) order, and
    log C = min of (gap - mu |g|).  mu > 0 certifies a uniform singular-value
    gap on the sample (dominated / convex-cocompact behavior); rotations
    and the trivial representation give mu = 0.  ``ok`` (mu > 1e-9) is the
    one threshold of a usable certificate, where a displacement ball (never
    a window radius: mu is a sample, not a bound) is sized from mu.
    """

    mu: float
    log_C: float
    ok: bool
    radius: int
    worst: Word = field(default_factory=Word)

    @property
    def C(self) -> float:
        return math.exp(self.log_C)


def anosov_certificate(model, radius: int = 6) -> AnosovCertificate:
    """Fit the gap certificate over ``enumerate_ball(model.rank, radius)``.

    ``model`` must expose ``rank``, ``generator_matrix(letter)`` and
    ``singular_gaps(batch)``, the log(sigma1/sigma2) of an (N, m, m) batch
    up to its first non-finite one (the matrix models' kernel).  A level
    is one batch: in the ball's (length, letter) order word i of level n
    is word i // (2r - 1) of level n - 1 times its last generator, one
    matmul for the level.  A radius below 1 raises InputError, a ball past
    the walk's cap ResourceCapError before any product, and the first
    word with a non-finite gap NumericError.
    """
    if radius < 1:
        raise InputError(f"empty ball; radius must be >= 1, got {radius}")
    mu = math.inf
    worst = Word()
    levels: list[tuple[int, np.ndarray]] = []
    for n, level in groupby(enumerate_ball(model.rank, radius)[1:], key=len):
        level = list(level)
        last = [g.letters[-1] for g in level]
        if n == 1:
            gens = batch = np.stack([model.generator_matrix(x) for x in last])
            where = {x: i for i, x in enumerate(last)}
        else:
            parents = batch[np.arange(len(level)) // (2 * model.rank - 1)]
            batch = np.matmul(parents, gens[[where[x] for x in last]])
        gaps = model.singular_gaps(batch)
        finite = np.isfinite(gaps)
        if not finite.all():
            raise NumericError(
                f"non-finite singular gap at {level[int(finite.argmin())]}")
        levels.append((n, gaps))
        r = gaps / n
        i = int(r.argmin())
        if r[i] < mu:
            mu, worst = float(r[i]), level[i]
    mu = max(mu, 0.0)
    log_c = min(float((gaps - mu * n).min()) for n, gaps in levels)
    log_c = min(log_c, 0.0)
    return AnosovCertificate(
        mu=mu, log_C=log_c, ok=mu > 1e-9, radius=radius, worst=worst
    )
