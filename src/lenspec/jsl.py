"""Joint stable lengths of finite sets and joint spectral radius brackets.

For a finite subset S of the group acting on X, the joint stable length is

    D_X(S) = lim_n  max over (s_1, ..., s_n) in S^n of  d(x, s_1...s_n x) / n,

again a subadditive limit, so a_n / n certifies upper bounds while stable
lengths of specific products certify lower bounds:

    hi = min over n <= n_max of a_n / n,
    lo = max( half the largest stable length over S^2,
              max over n, s in S^n of l_lo[s] / n ).

On trees the joint stable length is exactly half the largest two-letter
stable length, a Helly argument proved in ``tree_joint_profile``, so the
S^2 scan alone gives the bracket and no level is computed; a standard word
metric is its tree's metric and takes the same scan.  The levels of the
'products' engine, which serves the other word models, are arrays of
letter codes (``WordRows``): a_n is the largest displacement over a level,
and l_lo[s] the lo of the model's own class bracket on the cyclic core of
s, the cores of a level read as one batch (``class_lengths`` with k_max 1).

For a matrix action the joint stable length is the joint spectral radius
in the metric's scale (Rota-Strang, Indag. Math. 22, 1960): log rho for a
linear model, 2 log rho for a Mobius model (arccosh(||A||_F^2 / 2) =
2 log sigma_1(A) for det-1 A).  So the matrix engine is ``jsr_profile``,
whose levels bound the radius in log scale by sigma_1 from above and by
spectral radii from below; a_n and l[s] are its terms in the model's
length scale: float brackets with no rounding bound.  A level reads sigma_1
and lambda_1 from ``spaces``, by its closed forms for 2x2 products.
``bochi_rhs`` adds the explicit dimension-dependent constants for the
spectral upper bound c_m = 8 log 2 + 5 log m, d_m = 2 m^3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from ._np import numpy_for
from .actions import HOLDS, LengthBracket, exact_div, verdict_of
from .errors import InputError, NumericError, ResourceCapError
from .spaces import (MatrixActionModel, TreeModel, WordMetricModel,
                     _batch_lambda1, _batch_svals, _displacements, _rep_brackets)
from .words import ConjClass, WordRows, _as_words

np = numpy_for(globals())

__all__ = [
    "JointLengthProfile",
    "joint_stable_profile",
    "tree_joint_profile",
    "BochiConstants",
    "BochiBound",
    "bochi_rhs",
    "jsr_profile",
    "JsrProfile",
    "bf_lower_check",
    "BfCheck",
]


@dataclass
class JointLengthProfile:
    """Joint stable length bracket plus the per-level evidence."""

    bracket: LengthBracket
    # a[n]: an upper bound on the largest displacement over S^n, exact
    # where the search finished; for a matrix model n times jsr_profile's
    # sigma term in the length scale; empty for tree-dp, which computes no
    # level
    a: dict
    # lower-bound terms by level: the largest class-bracket lo over S^n
    # divided by n; for a matrix model jsr_profile's lambda term in the length
    # scale; tree-dp has only the pair term at 2
    lo_terms: dict
    pair_half: object
    engine: str


def _word_joint_profile(model, words, n_max, frontier_cap):
    """a[n] and lo_terms[n] for n = 1..n_max over the distinct reduced words
    of S^n: each level is the last times each s in S (duplicates of S
    included, as |S| counts them), reduced at the seam, then deduplicated,
    as code rows (``WordRows``): a[n] is the largest of their
    ``_displacements`` (a search's cap where it gives up), lo_terms[n] the
    largest lo (k_max 1) of their cyclic cores, in one batch, over n."""
    s_list = [w.letters for w in words]
    s_rows = WordRows.of(model.rank, s_list)
    level = s_rows.unique()
    a, lo_terms = {}, {}
    for n in range(1, n_max + 1):
        if n > 1:
            if len(level) * len(s_list) > frontier_cap:
                raise ResourceCapError(f"level {n} frontier would exceed cap {frontier_cap}")
            level = level.products(s_rows).unique()
        a[n] = max(_displacements(model, level.letters(), or_upper=True))
        lo_terms[n] = exact_div(max(_rep_brackets(model, level.cores().letters(), 1)[0]), n)
    return a, lo_terms


# ------------------------------------------------- vectorized matrix levels


def _matrix_levels(mats, n_max: int, cap: int):
    """Yield (n, batch, log_scale) for n = 1..n_max: S^n as a batch scaled
    to max entry 1, the true products being exp(log_scale) * batch.

    The products of level n are the level n-1 batch times each generator
    in turn; a level of more than ``cap`` products raises ResourceCapError.
    The N products of a level are multiplied as one (N m, m) array of their
    stacked rows, one matmul per generator into its block of the
    preallocated level: row i of P g is row i of P times g, so the level
    holds the same products in the same order as the stacked ``batch @ g``
    with one call in place of N.  A level is divided by its max |entry|
    in place, a real one's read from its two ends.
    """
    gens = np.stack([np.asarray(m) for m in mats])
    gens = gens.astype(np.complex128 if np.iscomplexobj(gens) else np.float64)
    k, m = len(gens), gens.shape[-1]
    batch = gens.copy()
    log_scale = 0.0
    for n in range(1, n_max + 1):
        if n > 1:
            if len(batch) * k > cap:
                raise ResourceCapError(
                    f"level {n} matrix frontier would exceed cap {cap}"
                )
            rows = batch.reshape(-1, m)
            batch = np.empty((k, len(rows), m), gens.dtype)
            for g, block in zip(gens, batch):
                np.matmul(rows, g, out=block)
            batch = batch.reshape(-1, m, m)
        # np.maximum keeps a NaN, which both ends of a real level then hold
        c = float(np.max(np.abs(batch)) if np.iscomplexobj(batch)
                  else np.maximum(batch.max(), -batch.min()))
        if not math.isfinite(c):
            raise NumericError("non-finite matrix entries in joint enumeration")
        if c <= 0:
            raise NumericError("zero matrix reached in joint enumeration")
        batch /= c
        log_scale += math.log(c)
        yield n, batch, log_scale


def _log_max(values, log_scale: float) -> float:
    """log of the largest of ``values`` plus ``log_scale``; -inf when it
    is 0 (the values of a level renormalized by exp(log_scale))."""
    m = float(np.max(values))
    return math.log(m) + log_scale if m > 0 else -math.inf


# ------------------------------------------------------- tree: the S^2 scan


def _cancelled_pair(u: tuple, v: tuple, total: int, weight) -> int:
    """The scaled length of the cyclic core of uv, ``total`` being
    W(u) + W(v): less twice the weight of each letter cancelled at the seam
    of uv, then of each pair of end letters peeled off its ends, read by
    index into u and v."""
    m, n = len(u), len(v)
    k = 0
    while k < m and k < n and u[m - 1 - k] == -v[k]:
        total -= 2 * weight(v[k])
        k += 1
    # the reduced product p = u[:a] + v[k:]: p[t] is u[t] for t < a, else
    # v[t + shift]
    a, shift = m - k, 2 * k - m
    i, j = 0, m + n - 2 * k - 1
    while i < j:
        x = u[i] if i < a else v[i + shift]
        if x != -(u[j] if j < a else v[j + shift]):
            break
        total -= 2 * weight(x)
        i += 1
        j -= 1
    return total


def tree_joint_profile(model: TreeModel, s) -> JointLengthProfile:
    """Joint stable length on a tree: exactly half the largest stable length
    over S^2.

    With lambda = max over s, t in S of l(st) / 2, the bracket is
    [lambda, lambda], a Fraction at both ends.

    Lower bound: (st)^k lies in S^(2k), so D(S) >= l(st) / 2.

    Upper bound: Min_s(r) = {x : d(x, sx) <= r} is a subtree, nonempty for
    r >= l(s), and lambda >= l(ss) / 2 = l(s).  By the displacement formulas
    of a tree (Culler-Morgan, Proc. London Math. Soc. 55, 1987, section 1),
    d(x, sx) = l(s) + 2 d(x, Axis s) for hyperbolic s and 2 d(x, Fix s) for
    elliptic s, and l(st) = l(s) + l(t) + 2 Delta when the axes or fixed
    sets of s and t lie Delta > 0 apart.  So Min_s(lambda) and Min_t(lambda) meet, or else
    l(st) > 2 lambda.  Subtrees have the Helly property, so some x has
    d(x, sx) <= lambda for every s in S, and then d(x, s_1...s_n x) <= n
    lambda.  Compare Breuillard-Fujiwara (Ann. Inst. Fourier 71, 2021).

    Pairs: ts = s^-1 (st) s is conjugate to st, so l(ts) = l(st) and the
    scan reads each unordered pair {s, t}, s = t included, once:
    |S|(|S| + 1)/2 pairs.  No product word is built.  With W(u) the sum of
    the tree's scaled int weights (``_scaled``) over a reduced word u, and
    a letter weighing what its inverse does,

        l(core(uv)) = W(u) + W(v) - 2 (weight cancelled),

    the cancelled weight being that of the letters cancelled at the seam
    of uv and then peeled off the ends of the product in inverse pairs
    (``_cancelled_pair``).  When u and v are nonempty and neither junction
    of the cyclic word uv cancels (last of u against first of v, last of v
    against first of u), nothing is cancelled and l(uv) = W(u) + W(v).  An
    empty factor takes the cancelling path: e t is t, whose ends may peel.
    As l(core(uv)) <= W(u) + W(v), a pair whose sum is no more than the
    largest length so far cannot raise it and is not scored.  Each factor
    is read once for W, and a letter missing from ``_scaled`` is one
    beyond the rank.  The largest length is divided back by ``_den`` and
    halved once.

    No level is computed: ``a`` is empty and ``lo_terms`` holds the pair
    term alone.
    """
    weight = model._scaled.__getitem__
    try:
        factors = [(w.letters, sum(map(weight, w.letters))) for w in _as_words(s)]
    except KeyError:
        raise InputError(f"S uses letters beyond rank {model.rank}") from None
    pair = 0
    for i, (u, wu) in enumerate(factors):
        for v, wv in factors[i:]:
            length = wu + wv
            if length <= pair:
                continue
            if not (u and v and u[-1] != -v[0] and u[0] != -v[-1]):
                length = _cancelled_pair(u, v, length, weight)
            if length > pair:
                pair = length
    lam = Fraction(pair, 2 * model._den)
    return JointLengthProfile(
        bracket=LengthBracket(lam, lam, exact=True),
        a={},
        lo_terms={2: lam},
        pair_half=lam,
        engine="tree-dp",
    )


# ----------------------------------------------------------- public API


def joint_stable_profile(
    model,
    s,
    n_max: int = 8,
    *,
    frontier_cap: int = 1_000_000,
    engine: str = "auto",
) -> JointLengthProfile:
    """Joint stable length of S under the model, with per-level evidence.

    engine: 'products' enumerates S^n (deduplicated reduced words for word
    models; a matrix model's levels are ``jsr_profile``'s, under the engine
    name 'matrix'); 'tree-dp' is the exact pair scan of
    ``tree_joint_profile`` on a tree metric (a TreeModel, or a standard
    WordMetricModel's tree), which needs no n_max; 'auto' picks one engine
    per model kind: 'tree-dp' for a tree metric of the package's exact
    type (a subclass may override its lengths), 'products' for any other
    word model, 'matrix' for a matrix model; any other name raises
    InputError.
    A level of more than ``frontier_cap`` products raises ResourceCapError.
    """
    if n_max < 2:
        raise InputError("n_max must be >= 2")
    if engine not in ("auto", "products", "tree-dp"):
        raise InputError(f"unknown joint-length engine {engine!r}")
    if engine == "tree-dp" or (
            engine == "auto" and type(model) in (TreeModel, WordMetricModel)):
        # tree_joint_profile checks S
        if isinstance(model, TreeModel):
            return tree_joint_profile(model, s)
        if isinstance(model, WordMetricModel) and model._standard:
            return tree_joint_profile(model._tree, s)
        if engine == "tree-dp":
            raise InputError("tree-dp engine needs a TreeModel or a standard "
                             "WordMetricModel")
    words = _as_words(s, model.rank)
    matrix = isinstance(model, MatrixActionModel)
    if matrix:
        jsr = jsr_profile([model.matrix(w) for w in words], n_max, cap=frontier_cap)
        scale = model._length_scale
        a = {n: scale * max(t, 0.0) * n for n, t in jsr.sigma_terms.items()}
        lo_terms = {n: scale * max(t, 0.0) for n, t in jsr.lambda_terms.items()}
    else:
        a, lo_terms = _word_joint_profile(model, words, n_max, frontier_cap)
    hi = min(exact_div(a[n], n) for n in a)
    # min guards float noise; exact engines satisfy lo <= hi
    lo = min(max(lo_terms.values()), hi)
    return JointLengthProfile(
        bracket=LengthBracket(lo, hi, exact=bool(lo == hi)),
        a=a,
        lo_terms=lo_terms,
        pair_half=lo_terms[2],
        engine="matrix" if matrix else "products",
    )


# ------------------------------------------------------- pairwise bounds


@dataclass(frozen=True)
class BfCheck:
    """Two-sided sandwich of the joint length by half the pair maximum;
    ``verdict`` is ``verdict_of``'s for its lo against the joint hi, and
    ``ok`` is that verdict's "holds"."""

    ok: bool = field(init=False)
    pair_half: LengthBracket
    joint: LengthBracket
    upper_value: object
    minimal_K: object
    minimal_K_lower: object
    K: object
    delta: object
    tol: float

    def __post_init__(self):
        object.__setattr__(self, "ok", self.verdict == HOLDS)

    @cached_property
    def verdict(self) -> str:
        lo, hi = self.pair_half.lo, self.joint.hi
        return verdict_of(lo, lo, hi, hi, self.tol, truncated=False)


def _pair_sup_bracket(model, words) -> LengthBracket:
    """Largest class length over S^2, read on each canonical rep, every
    rep in one batch (``_rep_brackets``, k_max 8).  vu = u^-1 (uv) u is
    conjugate to uv, so each unordered pair {u, v}, u = v included, is
    read once."""
    lo, hi = map(max, _rep_brackets(model, [ConjClass.of(u * v).rep.letters
                                            for i, u in enumerate(words)
                                            for v in words[i:]], 8))
    return LengthBracket(lo, hi, exact=bool(lo == hi))


def _k_from_gap(gap, delta):
    if delta == 0:
        return 0 if gap <= 0 else math.inf
    return max(0.0, float(gap) / float(delta))


def bf_lower_check(model, s, n_max: int = 8, tol: float = 1e-9, K=None, **kw) -> BfCheck:
    """Check half the pair maximum really sits below the joint length."""
    words = _as_words(s, model.rank)
    pair = _pair_sup_bracket(model, words)
    profile = joint_stable_profile(model, words, n_max, **kw)
    joint = profile.bracket
    half = LengthBracket(
        exact_div(pair.lo, 2), exact_div(pair.hi, 2), pair.exact, pair.certified
    )
    K = 1 if K is None else K
    upper = K * model.delta + half.hi
    return BfCheck(
        pair_half=half,
        joint=joint,
        upper_value=upper,
        minimal_K=_k_from_gap(joint.hi - half.lo, model.delta),
        minimal_K_lower=_k_from_gap(joint.lo - half.hi, model.delta),
        K=K,
        delta=model.delta,
        tol=tol,
    )


# --------------------------------------------------------- matrix JSR side


@dataclass(frozen=True)
class BochiConstants:
    """Dimension constants for the spectral upper bound on joint growth."""

    m: int
    c_m: float
    d_m: int

    @classmethod
    def for_dim(cls, m: int) -> "BochiConstants":
        if m < 1:
            raise InputError("dimension must be >= 1")
        return cls(m=m, c_m=8.0 * math.log(2.0) + 5.0 * math.log(m), d_m=2 * m**3)

    def __post_init__(self):
        if self.c_m <= 0 or self.d_m < 1:
            raise InputError("constants must be positive")


@dataclass
class JsrProfile:
    bracket: LengthBracket
    sigma_terms: dict
    lambda_terms: dict


def jsr_profile(mats, n_max: int = 8, *, cap: int = 2_000_000) -> JsrProfile:
    """Joint spectral radius bracket in log scale.

    hi = min over n of (1/n) log max sigma_1 over S^n (submultiplicativity),
    lo = max over n of (1/n) log max spectral radius over S^n (Gelfand).
    Levels are renormalized, so overflow cannot occur silently.  A level of
    more than ``cap`` products raises ResourceCapError.
    """
    if n_max < 1:
        raise InputError("n_max must be >= 1")
    sig = {}
    lam = {}
    for n, batch, ls in _matrix_levels(mats, n_max, cap):
        sig[n] = _log_max(_batch_svals(batch)[:, 0], ls) / n
        lam[n] = _log_max(_batch_lambda1(batch), ls) / n
    hi = min(sig.values())
    lo = min(max(lam.values()), hi)
    return JsrProfile(bracket=LengthBracket(lo, hi), sigma_terms=sig,
                      lambda_terms=lam)


@dataclass(frozen=True)
class BochiBound:
    """Log-scale spectral upper bound c_m + max_j (1/j) log max lambda_1."""

    value: float
    constants: BochiConstants
    j_used: int
    partial: bool


def bochi_rhs(mats, *, cap: int = 2_000_000) -> BochiBound:
    """Spectral-radius upper bound for the joint spectral radius (log scale).

    Scans products of length j = 1..d_m.  If |S|^j would exceed the cap the
    scan stops early and the result is flagged partial (a probe): a partial
    maximum can only undershoot, so a probe must not be used to certify.
    """
    mats = list(mats)
    constants = BochiConstants.for_dim(np.asarray(mats[0]).shape[0])
    lam = {}
    try:
        for j, batch, ls in _matrix_levels(mats, constants.d_m, cap):
            lam[j] = _log_max(_batch_lambda1(batch), ls) / j
    except ResourceCapError:
        pass
    value = constants.c_m + max(lam.values())
    return BochiBound(value=value, constants=constants, j_used=max(lam),
                      partial=max(lam) < constants.d_m)
