"""Joint stable lengths of finite sets and joint spectral radius brackets.

For a finite subset S of the group acting on X, the joint stable length is

    D_X(S) = lim_n  max over (s_1, ..., s_n) in S^n of  d(x, s_1...s_n x) / n,

again a subadditive limit, so a_n / n certifies upper bounds while stable
lengths of specific products certify lower bounds:

    hi = min over n <= n_max of a_n / n,
    lo = max( half the largest stable length over S^2,
              max over n, s in S^n of l_lo[s] / n ).

On trees the two collapse to the same number, half the largest two-letter
stable length.  When a heaviest factor of S is cyclically reduced, S alone
fixes every level maximum and the pair maximum; otherwise one walk over the
levels of a bounded-suffix automaton, its states kept as dicts of Python
ints, and the S^2 scan witness them.

The matrix joint spectral radius gets the same treatment in log scale, with
sigma_1 certifying from above and spectral radii from below, plus the
explicit dimension-dependent constants for the spectral upper bound
c_m = 8 log 2 + 5 log m, d_m = 2 m^3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .actions import LengthBracket, exact_div
from .errors import InputError, NumericError, ResourceCapError
from .spaces import (MatrixActionModel, MobiusModel, TreeModel, WordMetricModel,
                     class_bracket_reader)
from .words import (ConjClass, Word, _as_words, _concat_reduced, _cyclic_core,
                    _letters_in_order)

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
    a: dict
    lo_terms: dict
    pair_half: object
    engine: str
    # tree-dp: some a[n] may exceed the true maximum; False where S fixes
    # the levels
    eroded: bool = False
    # automaton states the tree-dp walk reached; None where no walk ran
    states: Optional[int] = None


def _word_lower_oracle(model):
    """Cheap per-word stable-length lower bound for word-frontier models."""
    if isinstance(model, TreeModel):
        return lambda letters: model.class_length(_cyclic_core(letters))
    if isinstance(model, WordMetricModel):
        if model._standard:
            tree = model._tree
            return lambda letters: tree.class_length(_cyclic_core(letters))
        c = model._c_cmp
        return lambda letters: exact_div(len(_cyclic_core(letters)), c)
    raise InputError(f"no joint-length engine for {type(model).__name__}")


def _word_joint_profile(model, words, n_max, frontier_cap):
    s_list = [w.letters for w in words]
    lower = _word_lower_oracle(model)
    frontier = set(s_list)
    a = {}
    lo_terms = {}
    for n in range(1, n_max + 1):
        if n > 1:
            if len(frontier) * len(s_list) > frontier_cap:
                raise ResourceCapError(
                    f"level {n} frontier would exceed cap {frontier_cap}"
                )
            frontier = {_concat_reduced(w, s) for w in frontier for s in s_list}
        a[n] = max(model.displacement(Word._unchecked(w)) for w in frontier)
        lo_terms[n] = exact_div(max(lower(w) for w in frontier), n)
    return a, lo_terms


# ------------------------------------------------- vectorized matrix levels


def _batch_sigma1(batch: np.ndarray) -> np.ndarray:
    m = batch.shape[-1]
    if m == 2:
        f = np.sum(np.abs(batch) ** 2, axis=(1, 2))
        det = batch[:, 0, 0] * batch[:, 1, 1] - batch[:, 0, 1] * batch[:, 1, 0]
        d2 = np.abs(det) ** 2
        q = np.sqrt(np.clip(f * f - 4.0 * d2, 0.0, None))
        return np.sqrt(np.clip((f + q) / 2.0, 0.0, None))
    return np.linalg.svd(batch, compute_uv=False)[:, 0]


def _batch_lambda1(batch: np.ndarray) -> np.ndarray:
    m = batch.shape[-1]
    if m == 2:
        tr = (batch[:, 0, 0] + batch[:, 1, 1]).astype(np.complex128)
        det = (batch[:, 0, 0] * batch[:, 1, 1]
               - batch[:, 0, 1] * batch[:, 1, 0]).astype(np.complex128)
        q = np.sqrt(tr * tr - 4.0 * det)
        return np.maximum(np.abs((tr + q) / 2.0), np.abs((tr - q) / 2.0))
    return np.max(np.abs(np.linalg.eigvals(batch)), axis=1)


def _matrix_levels(mats, n_max: int, cap: int):
    """Yield (n, batch, log_scale) for n = 1..n_max: S^n as a batch scaled
    to max entry 1, the true products being exp(log_scale) * batch.

    The products of level n are the level n-1 batch times each generator
    in turn; a level of more than ``cap`` products raises ResourceCapError.
    """
    gens = np.stack([np.asarray(m) for m in mats])
    gens = gens.astype(np.complex128 if np.iscomplexobj(gens) else np.float64)
    batch = gens
    log_scale = 0.0
    for n in range(1, n_max + 1):
        if n > 1:
            if batch.shape[0] * gens.shape[0] > cap:
                raise ResourceCapError(
                    f"level {n} matrix frontier would exceed cap {cap}"
                )
            batch = np.concatenate([batch @ g for g in gens], axis=0)
        c = float(np.max(np.abs(batch)))
        if not math.isfinite(c):
            raise NumericError("non-finite matrix entries in joint enumeration")
        if c <= 0:
            raise NumericError("zero matrix reached in joint enumeration")
        batch = batch / c
        log_scale += math.log(c)
        yield n, batch, log_scale


def _matrix_joint_profile(model, words, n_max, frontier_cap):
    mats = [model.matrix(w) for w in words]
    a = {}
    lo_terms = {}
    is_mobius = isinstance(model, MobiusModel)
    for n, batch, ls in _matrix_levels(mats, n_max, frontier_cap):
        if is_mobius:
            # d = arccosh(|A|_F^2 / 2) for det-1 matrices, in log scale so
            # that large products neither overflow nor lose the arccosh.
            f = np.sum(np.abs(batch) ** 2, axis=(1, 2))
            log_y = np.log(np.clip(f / 2.0, 1e-300, None)) + 2.0 * ls
            big = log_y >= 20.0
            y_small = np.exp(np.where(big, 0.0, log_y))
            disp = np.where(
                big,
                math.log(2.0) + log_y,
                np.arccosh(np.clip(y_small, 1.0, None)),
            )
        else:
            s1 = _batch_sigma1(batch)
            disp = np.maximum(np.log(np.clip(s1, 1e-300, None)) + ls, 0.0)
        a[n] = float(np.max(disp))
        lam = _batch_lambda1(batch)
        ll = np.log(np.clip(lam, 1e-300, None)) + ls
        ll = np.maximum(ll, 0.0)
        if is_mobius:
            ll = 2.0 * ll
        lo_terms[n] = float(np.max(ll)) / n
    return a, lo_terms


# ----------------------------------------------------- tree fast path (DP)

_EXACT, _TRUNC, _BLIND = 0, 1, 2

# Retained suffix length of the tree automaton, raised to twice the
# longest factor of S.
_SUFFIX_CAP = 6


def _tree_walk(scaled, s_list, n_max: int):
    """(raw, eroded, states): the levels 1..n_max of the (suffix, trunc)
    automaton of S walked as dicts of states.

    ``scaled`` maps each letter to its weight scaled to an int, and
    ``raw[n]`` is the largest scaled length over the states n factors
    reach.  A state's out-edges, the largest length change to each state
    one factor of S leads to, are worked out the first time the walk steps
    out of it and kept for the rest of the call.  ``states`` counts the
    distinct states of the levels.

    Appending a factor cancels its longest prefix against the suffix, which
    is exact because cancellation never looks deeper than the factor, and
    keeps the last ``cap`` letters.  When the cancellation eats a truncated
    suffix whole, the product goes to a blind state that stops cancelling
    and adds the heaviest factor's weight w_max at every step; ``eroded``
    says whether a level below n_max stepped into it.  A length change
    takes the cancelled weights off and puts the kept ones on.

    A state is one int, ``(code * (cap + 1) + size) * 3 + trunc``.
    ``code`` reads the suffix as a number in base B = 2r + 1, r the largest
    letter index in S: each letter is a digit, its code in
    ``words._letters_in_order`` plus 1, and the last letter is the lowest
    digit, so digit 0 means no letter and the empty suffix is code 0.
    ``size`` is the suffix length and the blind state is the int
    ``_BLIND``.  Appending a factor strips the low digits that match its
    inverse letters, shifts what is left up by the kept letters and adds
    their code; a suffix past ``cap`` letters keeps its low ``cap`` digits.
    """
    cap = max(_SUFFIX_CAP, 2 * max(len(s) for s in s_list))
    base = 2 * max((abs(x) for s in s_list for x in s), default=0) + 1
    digit = {x: c + 1 for c, x in enumerate(_letters_in_order(base // 2))}
    factors = []
    for s in s_list:
        k = len(s)
        ws = [scaled[x] for x in s]
        tail = [0] * (k + 1)   # tail[t]: the code of s[t:]
        for t in range(k - 1, -1, -1):
            tail[t] = digit[s[t]] * base ** (k - 1 - t) + tail[t + 1]
        factors.append((
            k,
            # the digit of each inverse letter, then -1, which no digit
            # matches: a suffix cancels against at most the whole factor
            [digit[-x] for x in s] + [-1],
            tail,
            [base ** (k - t) for t in range(k + 1)],
            [base ** (cap - k + t) for t in range(k + 1)],
            [sum(ws[t:]) - sum(ws[:t]) for t in range(k + 1)],
        ))
    w_max = max(deltas[0] for *_, deltas in factors)
    eroded = False

    def out_edges(key):
        nonlocal eroded
        code, trunc = divmod(key, 3)
        if trunc == _BLIND:
            return [(_BLIND, w_max)]
        code, n = divmod(code, cap + 1)
        best = {}
        for k, inv, tail, shift, keep, deltas in factors:
            # t: letters of the factor cancelled against the end of the
            # suffix; once the suffix is used up its low digit reads 0,
            # which no inverse letter matches
            t = 0
            rest = code
            while rest % base == inv[t]:
                rest //= base
                t += 1
            size = n - 2 * t + k
            if t == n and t < k and trunc == _TRUNC:
                eroded = True
                dst = _BLIND
            elif size > cap:
                dst = (((rest % keep[t]) * shift[t] + tail[t]) * (cap + 1)
                       + cap) * 3 + _TRUNC
            else:
                dst = ((rest * shift[t] + tail[t]) * (cap + 1) + size) * 3 + trunc
            if dst not in best or best[dst] < deltas[t]:
                best[dst] = deltas[t]
        return list(best.items())

    # k <= cap / 2: no one-factor product is truncated
    level = {(tail[0] * (cap + 1) + k) * 3 + _EXACT: deltas[0]
             for k, _, tail, _, _, deltas in factors}
    raw = {1: max(level.values())}
    edges = {}
    for n in range(2, n_max + 1):
        for key in level.keys() - edges.keys():
            edges[key] = out_edges(key)
        nxt = {}
        for key, val in level.items():
            for dst, delta in edges[key]:
                v = val + delta
                if nxt.get(dst, -1) < v:  # lengths are >= 0
                    nxt[dst] = v
        level = nxt
        raw[n] = max(level.values())
    # every state of levels 1..n_max - 1 was stepped out of
    return raw, eroded, len(edges.keys() | level.keys())


def tree_joint_profile(model: TreeModel, s, n_max: int = 12) -> JointLengthProfile:
    """Joint stable length on a tree via a bounded-suffix automaton.

    Cancellation against a single factor never looks deeper than the factor
    length, so transitions on the last few letters are exact; when repeated
    cancellation erodes past the retained suffix the sequence switches to a
    blind state that stops cancelling altogether.  Level maxima are then
    certified upper bounds for the true maxima: ``eroded`` says some a[n]
    may exceed the true maximum, and is False where S fixes the levels.
    The hi side of the bracket stays sound; the lo side is the exact
    half-max stable length over S^2.

    With w_max the largest scaled weight of a factor of S, if some factor
    of weight w_max is cyclically reduced (the empty word counts), then
    a[n] = n * w_max for every n and the pair maximum is 2 * w_max, and
    neither the levels nor the S^2 scan run.  Proof: every automaton edge
    adds at most its factor's weight and a blind edge adds w_max, so no
    level passes n * w_max, while the powers of that factor never cancel
    and so reach it; likewise no product of two factors is longer than
    2 * w_max, and that factor's square is a cyclically reduced word of
    length 2 * w_max.

    Otherwise the levels are walked as dicts of automaton states, in the
    tree's scaled int weights, each level maximum divided back to the
    tree's number type at the end; ``states`` counts the states the walk
    reached, and is None where no walk ran.
    """
    words = _as_words(s, model.rank)
    if n_max < 1:
        raise InputError("n_max must be >= 1")
    s_list = [w.letters for w in words if w.letters] or [()]
    weights = [sum(map(model._scaled.__getitem__, w)) for w in s_list]
    w_max = max(weights)
    if any(w == w_max and (not f or f[0] != -f[-1])
           for w, f in zip(weights, s_list)):
        # a heaviest factor is cyclically reduced: its powers reach the
        # bound n * w_max that no edge can beat, and nothing erodes
        raw = {n: n * w_max for n in range(1, n_max + 1)}
        pair = model._exact(2 * w_max)
        eroded, states = False, None
    else:
        raw, eroded, states = _tree_walk(model._scaled, s_list, n_max)
        pair = max(model.class_length(_cyclic_core(_concat_reduced(u, v)))
                   for u in s_list for v in s_list)
    # the n of least raw[n] / n, compared as cross products of ints
    best = 1
    for n, v in raw.items():
        if v * best < raw[best] * n:
            best = n
    a = {n: model._exact(v) for n, v in raw.items()}
    pair_half = exact_div(pair, 2)
    hi = exact_div(a[best], best)
    lo = min(pair_half, hi)
    bracket = LengthBracket(lo, hi, exact=bool(lo == hi))
    return JointLengthProfile(
        bracket=bracket,
        a=a,
        lo_terms={2: pair_half},
        pair_half=pair_half,
        engine="tree-dp",
        eroded=eroded,
        states=states,
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
    models, vectorized batches for matrix models); 'tree-dp' is the bounded
    suffix automaton (TreeModel only); 'auto' picks by model kind; any other
    name raises InputError.  A level of more than ``frontier_cap`` products
    raises ResourceCapError.
    """
    words = _as_words(s, model.rank)
    if n_max < 2:
        raise InputError("n_max must be >= 2")
    if engine not in ("auto", "products", "tree-dp"):
        raise InputError(f"unknown joint-length engine {engine!r}")
    if engine == "tree-dp" or (
        engine == "auto" and isinstance(model, TreeModel)
        and len(words) ** n_max > frontier_cap
    ):
        if not isinstance(model, TreeModel):
            raise InputError("tree-dp engine needs a TreeModel")
        return tree_joint_profile(model, words, n_max)
    matrix = isinstance(model, MatrixActionModel)
    if matrix:
        a, lo_terms = _matrix_joint_profile(model, words, n_max, frontier_cap)
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
    """Two-sided sandwich of the joint length by half the pair maximum."""

    ok: bool
    pair_half: LengthBracket
    joint: LengthBracket
    upper_value: object
    minimal_K: object
    minimal_K_lower: object
    K: object
    delta: object
    tol: float


def _pair_sup_bracket(model, words) -> LengthBracket:
    """Largest class length over S^2, read on each canonical rep: a
    model's class_length, or else its class_length_bracket with k_max 8."""
    read = class_bracket_reader(model, 8)
    lo, hi = map(max, zip(*(read(ConjClass.of(u * v).rep.letters)
                            for u in words for v in words)))
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
    ok = bool(half.lo <= joint.hi + tol)
    K = 1 if K is None else K
    upper = K * model.delta + half.hi
    return BfCheck(
        ok=ok,
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
        s1 = float(np.max(_batch_sigma1(batch)))
        l1 = float(np.max(_batch_lambda1(batch)))
        sig[n] = (math.log(s1) + ls) / n if s1 > 0 else -math.inf
        lam[n] = (math.log(l1) + ls) / n if l1 > 0 else -math.inf
    hi = min(sig.values())
    lo = max(lam.values())
    lo = min(lo, hi)
    return JsrProfile(bracket=LengthBracket(lo, hi), sigma_terms=sig,
                      lambda_terms=lam)


@dataclass(frozen=True)
class BochiBound:
    """Log-scale spectral upper bound c_m + max_j (1/j) log max lambda_1."""

    value: float
    constants: BochiConstants
    j_used: int
    partial: bool
    lambda_terms: dict = field(default_factory=dict)


def bochi_rhs(mats, *, cap: int = 2_000_000) -> BochiBound:
    """Spectral-radius upper bound for the joint spectral radius (log scale).

    Scans products of length j = 1..d_m.  If |S|^j would exceed the cap the
    scan stops early and the result is flagged partial (a probe): a partial
    maximum can only undershoot, so a probe must not be used to certify.
    """
    mats = list(mats)
    constants = BochiConstants.for_dim(np.asarray(mats[0]).shape[0])
    lam = {}
    j_used = 0
    try:
        for j, batch, ls in _matrix_levels(mats, constants.d_m, cap):
            l1 = float(np.max(_batch_lambda1(batch)))
            lam[j] = (math.log(l1) + ls) / j if l1 > 0 else -math.inf
            j_used = j
    except ResourceCapError:
        pass
    value = constants.c_m + max(lam.values())
    return BochiBound(value=value, constants=constants, j_used=j_used,
                      partial=j_used < constants.d_m, lambda_terms=lam)
