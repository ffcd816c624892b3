"""Concrete action models: trees, word metrics, Mobius actions, linear reps.

All models act by a free group of rank r.  Basepoints are fixed once per
model (tree origin, identity vertex, i in the upper half plane, j in the
upper half space, identity coset for linear pseudo-metrics), so displacement
functions take only the group element.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Optional, Sequence

from ._np import numpy_for
from .actions import ActionModel, AnosovCertificate, anosov_certificate, exact_div
from .errors import InputError, NumericError
from .words import (ROW_CHUNK, ClassCodes, GeneratingSet, Word, _as_weight, _Column,
                    _distinct, _letters_in_order, _settled_lengths, _unscaled,
                    word_length)

np = numpy_for(globals())

__all__ = [
    "ClassLengths",
    "TreeModel",
    "WordMetricModel",
    "MatrixActionModel",
    "MobiusModel",
    "LinearRepModel",
    "SchottkyAction",
    "build_schottky",
]


def _per_code(value_of_letter, rank: int) -> list:
    """value_of_letter of the letter of each code (a, A, b, B, ...)."""
    return list(map(value_of_letter, _letters_in_order(rank)))


def _letter_sum(table: dict, letters, rank: int):
    """The sum of table[x] over the letters x; InputError for a letter
    the table lacks, one beyond the rank."""
    try:
        return sum(map(table.__getitem__, letters))
    except KeyError as e:
        raise InputError(f"letter {e.args[0]} outside rank {rank}") from None


def class_bracket_reader(model, k_max: int):
    """letters -> (lo, hi) of a canonical class under ``model``: its
    class_length twice, or else its class_length_bracket with ``k_max``."""
    if hasattr(model, "class_length"):
        return lambda letters: (model.class_length(letters),) * 2
    if hasattr(model, "class_length_bracket"):
        return lambda letters: model.class_length_bracket(letters, k_max)
    raise InputError(f"{type(model).__name__} has neither class_length "
                     "nor class_length_bracket")


@dataclass(frozen=True, eq=False)
class ClassLengths:
    """One model's stable-length brackets over ``classes``: sequences
    ``lo`` and ``hi`` of ints, Fractions or floats, and float64 columns
    ``lo_f`` and ``hi_f`` of their correctly rounded floats.  Floats, and
    ints below 2**53 in size, of a tree or 2x2 matrix bulk form live in
    the columns alone, ``lo`` and ``hi`` a ``_Column`` over them; lists
    hold the rest (Fractions, larger ints, lengths read class by class).
    A ``point`` (one length per class) holds one sequence and one column
    under both names.  ``kinds`` is the set of the lengths' types: given
    by a bulk form that knows it, else found by one scan of the lists.
    The windows read the columns; classes.csv renders the sequences, keyed
    by the columns where ``kinds`` shows that they fix each length's text."""

    classes: ClassCodes
    lo: Sequence
    hi: Sequence
    lo_f: np.ndarray
    hi_f: np.ndarray
    kinds: Optional[frozenset] = None

    def __post_init__(self):
        if self.kinds is None:
            kinds = frozenset(map(type, chain(self.lo, () if self.point else self.hi)))
            object.__setattr__(self, "kinds", kinds)

    @property
    def point(self) -> bool:
        return self.lo is self.hi

    def __len__(self):
        return len(self.classes)

    def over(self, classes: ClassCodes) -> "ClassLengths":
        """These lengths over ``classes``, a prefix of this side's classes
        (so both sides of a table can hold one ClassCodes): self when they
        are its classes, else slices of the sequences and column views,
        one of each when point."""
        if classes is self.classes:
            return self
        k = len(classes)
        lo, lo_f = self.lo[:k], self.lo_f[:k]
        hi, hi_f = (lo, lo_f) if self.point else (self.hi[:k], self.hi_f[:k])
        # a nonempty prefix of lengths of one type holds that type alone
        kinds = self.kinds if k and len(self.kinds) == 1 else None
        return ClassLengths(classes, lo, hi, lo_f, hi_f, kinds)


# ---------------------------------------------------------------- trees


class TreeModel(ActionModel):
    """Simplicial tree: the Cayley tree of the free group with edge weights.

    Displacement is the weighted reduced length, stable length the weighted
    cyclically reduced length, both exact: every weight is an int, or else
    the Fraction it equals (a float is read as its binary value).  A tree
    whose weights are all ints gives int lengths, any other tree Fractions,
    whole ones included; lengths are sums of the weights scaled by the lcm
    ``_den`` of their denominators, divided back by it once.
    The orbit is D-dense with D = max weight / 2 and the space is 0-hyperbolic.
    """

    delta = 0
    alpha = 0

    def __init__(self, rank: int, weights: Optional[Sequence] = None):
        if rank < 1:
            raise InputError("rank must be >= 1")
        self.rank = rank
        if weights is None:
            weights = [1] * rank
        if len(weights) != rank:
            raise InputError("need one weight per generator")
        self.weights = tuple(map(_as_weight, weights))
        self._den = math.lcm(*(Fraction(w).denominator for w in self.weights))
        # letter -> its weight times _den, in code order (a, A, b, B, ...)
        self._scaled = {x: int(self.weights[abs(x) - 1] * self._den)
                        for x in _letters_in_order(rank)}
        self.cobound_D = exact_div(max(self.weights), 2)

    def weight_of(self, letter: int):
        return _unscaled(_letter_sum(self._scaled, (letter,), self.rank), self._den)

    def displacement(self, g: Word):
        return _unscaled(_letter_sum(self._scaled, g.letters, self.rank), self._den)

    def class_length(self, letters):
        return _unscaled(_letter_sum(self._scaled, letters, self.rank), self._den)

    def scaled_sums(self, codes: np.ndarray) -> np.ndarray:
        """The scaled weight sum, ``_den`` times the length, of every row
        of a 2-D array of letter codes, the pad code 2 * rank weighing 0
        (a ``WordRows`` array or a ``ClassCodes`` block).

        One scaled-weight gather per ROW_CHUNK rows, summed in int64, or
        in Python ints (an object array) where a sum could pass it.
        """
        scaled = [*self._scaled.values(), 0]
        width = codes.shape[1]
        dtype = np.int64 if max(scaled) * max(width, 1) < 2 ** 63 else object
        weight = np.array(scaled, dtype)
        total = np.empty(len(codes), dtype)
        for start in range(0, len(codes), ROW_CHUNK):
            stop = start + ROW_CHUNK
            total[start:stop] = weight[codes[start:stop]].sum(axis=1)
        return total

    def class_brackets(self, codes: ClassCodes, k_max: int):
        """The class_length of every class of ``codes``, a point;
        ``k_max`` is unused, the lengths are exact.

        The uniform case, a tree whose letters all have one scaled weight s
        (the unit tree, which every standard word metric reads through
        ``_tree``): the block of length n holds the one value n s, unscaled
        once, with no gather.  Otherwise the ``scaled_sums`` of each length
        block; with ``_den`` > 1 one Fraction and one float is built per
        distinct sum.  Ints live in the float column alone when
        ``codes.radius`` times the largest weight is below 2**53.
        """
        weights = set(self._scaled.values())
        uniform = weights.pop() if len(weights) == 1 else None
        listed = self._den > 1 or max(self._scaled.values()) * codes.radius >= 2 ** 53
        vals, floats = [], []
        for block in codes.blocks:
            if uniform is not None:
                v = _unscaled(block.shape[1] * uniform, self._den)
                vals += [v] * len(block) if listed else ()
                floats.append(np.full(len(block), float(v)))
                continue
            total = self.scaled_sums(block)
            if self._den == 1:
                vals += total.tolist() if listed else ()
                floats.append(total.astype(np.float64))
                continue
            uniq, inv = _distinct(total)
            lengths = [Fraction(v, self._den) for v in uniq.tolist()]
            vals += map(lengths.__getitem__, inv.tolist())
            floats.append(np.take(np.array(list(map(float, lengths))), inv))
        floats = _joined(floats)
        if not listed:
            vals = _Column(floats, int)
        kinds = frozenset({int} if self._den == 1 else {Fraction})
        return ClassLengths(codes, vals, vals, floats, floats,
                            kinds if vals else frozenset())

    def window_radius(self, length_bound) -> int:
        return math.ceil(exact_div(length_bound, min(self.weights)))


# ---------------------------------------------------------- word metrics


def _spell_cost(letters: tuple, table: dict, max_piece: int):
    """Cheapest way to write `letters` as a no-cancellation concatenation of
    table entries; None if impossible.  Standard segment DP."""
    n = len(letters)
    inf = None
    dp = [None] * (n + 1)
    dp[0] = 0
    for i in range(1, n + 1):
        best = inf
        for j in range(max(0, i - max_piece), i):
            if dp[j] is None:
                continue
            w = table.get(letters[j:i])
            if w is None:
                continue
            cand = dp[j] + w
            if best is None or cand < best:
                best = cand
        dp[i] = best
    return dp[n]


class WordMetricModel(ActionModel):
    """Word metric of a finite weighted generating set S on the free group.

    d_S(x, y) = |x^-1 y|_S, asymmetric when S is not inversion-closed.
    For the standard S = {a_i, a_i^-1} this is a weighted tree metric and
    stable lengths are exact.  Otherwise stable lengths come as certified
    comparison brackets:

      lo: any S-expression of g^k of cost W is a path of unit-tree length
          at most W * max_s(|s|/w_s), so l_S[g] >= cyclen(g) / C_cmp;
      hi: min over k <= k_max of (no-cancellation spelling cost of g^k)/k,
          also capped by (max cost of a standard letter) * cyclen(g).

    Both sides hold without any hyperbolicity assumption.
    """

    delta = 0
    alpha = 0
    # cost budget of every search; displacement's stops at cost_upper if less
    radius_cap = 32

    def __init__(self, gens: GeneratingSet):
        self.rank = gens.rank
        self.gens = gens
        self._standard = gens.is_standard
        if not any(len(e) for e in gens.elements):
            raise InputError("a word metric needs a nontrivial element; "
                             "every element given is the identity")
        self._table: dict[tuple, object] = {}
        for e, w in gens:
            k = e.letters
            if k in self._table:
                self._table[k] = min(self._table[k], w)
            elif k:
                self._table[k] = w
        self._max_piece = max(len(e) for e in gens.elements)
        # unit-tree comparison constant: |g|_S >= |g|_tree / C_cmp
        self._c_cmp = max(exact_div(len(e), w) for e, w in gens if len(e) > 0)
        if self._standard:
            self._tree = TreeModel(
                self.rank, [gens.weight_of(i) for i in range(1, self.rank + 1)]
            )
            self.cobound_D = self._tree.cobound_D
            self._letter_cost = {
                x: gens.weight_of(x) for x in _letters_in_order(self.rank)
            }
        else:
            # each letter's cost is its distance in the metric, from one
            # search that stops once every letter is settled
            letters = _letters_in_order(self.rank)
            cost, missed = _settled_lengths(gens, [(x,) for x in letters],
                                            self.radius_cap)
            if missed:
                # with positive weights finitely many elements lie within
                # any cost, so a letter not reached means the budget ran out
                missing = next(x for x in letters if (x,) not in cost)
                raise InputError(f"semigroup generation check inconclusive: "
                                 f"letter {missing} not reached within cost "
                                 f"{self.radius_cap}")
            self._letter_cost = {x: cost[(x,)] for x in letters}

    def displacement(self, g: Word):
        if self._standard:
            return self._tree.displacement(g)
        # no search past a spelling of g
        return word_length(g, self.gens,
                           radius_cap=min(self.radius_cap, self.cost_upper(g)))

    def cost_upper(self, g: Word):
        """Certified upper bound for |g|_S (no-cancellation spelling)."""
        per_letter = _letter_sum(self._letter_cost, g.letters, self.rank)
        spelt = _spell_cost(g.letters, self._table, self._max_piece)
        return per_letter if spelt is None else min(spelt, per_letter)

    def class_length_bracket(self, letters, k_max: int = 2):
        """(lo, hi) for the stable length of an already-canonical class."""
        if self._standard:
            v = self._tree.class_length(letters)
            return v, v
        if not letters:
            return 0, 0
        lo = exact_div(len(letters), self._c_cmp)
        hi = min(exact_div(self.cost_upper(Word(letters * k)), k)
                 for k in range(1, k_max + 1))
        return min(lo, hi), hi

    def class_brackets(self, codes: ClassCodes, k_max: int):
        """The class_length_bracket of every class of ``codes``.

        A standard set is its tree's class_brackets.  Otherwise the
        spelling cost of u^k for k <= k_max is a min-plus DP over the
        columns of a length block, for all its rows at once, capped by the
        sum of the letter costs as cost_upper caps it, in ints scaled by
        the lcm of the denominators.  None when a scaled cost could pass
        int64: the caller then evaluates class by class.
        """
        if self._standard:
            return self._tree.class_brackets(codes, k_max)
        weights = [*self._table.values(), *self._letter_cost.values()]
        den = math.lcm(*(Fraction(w).denominator for w in weights))
        b = 2 * self.rank
        top = max(weights) * den * k_max * max(codes.radius, 1)
        if not (k_max >= 1 and top < 2 ** 60 and b ** self._max_piece < 2 ** 62):
            return None

        def scale(w):
            return int(w * den)

        code = {x: c for c, x in enumerate(_letters_in_order(self.rank))}
        pieces = []   # pieces[l-1]: sorted keys and weights of length-l entries
        for l in range(1, self._max_piece + 1):
            keyed = sorted((sum(code[x] * b ** (l - 1 - j) for j, x in enumerate(k)),
                            scale(w)) for k, w in self._table.items() if len(k) == l)
            pieces.append((np.array([k for k, _ in keyed], dtype=np.int64),
                           np.array([w for _, w in keyed], dtype=np.int64)))
        letter_cost = np.array(_per_code(lambda x: scale(self._letter_cost[x]),
                                         self.rank), dtype=np.int64)
        lo, hi, lo_f, hi_f = [], [], [], []
        for rows in codes.row_chunks():
            costs = _spelling_costs(rows, k_max, pieces, letter_cost, b)
            lo_n = exact_div(rows.shape[1], self._c_cmp)
            # every bracket is a Fraction, one per distinct cost row
            uniq, inv = np.unique(np.stack(costs, axis=1), axis=0,
                                  return_inverse=True)
            brackets = []
            for row in uniq.tolist():
                best = min(Fraction(cost, den * k) for k, cost in enumerate(row, 1))
                brackets.append((min(lo_n, best), best))
            inv = inv.ravel().tolist()
            lo += [brackets[i][0] for i in inv]
            hi += [brackets[i][1] for i in inv]
            lo_f.append(np.array([float(p[0]) for p in brackets])[inv])
            hi_f.append(np.array([float(p[1]) for p in brackets])[inv])
        return ClassLengths(codes, lo, hi, _joined(lo_f), _joined(hi_f))

    def window_radius(self, length_bound) -> int:
        return math.ceil(length_bound * self._c_cmp)


# the cost of a prefix no table pieces spell: above every scaled cost
# (< 2**60), and twice it still fits an int64
_NO_SPELLING = 2 ** 61


def _spelling_costs(rows, k_max, pieces, letter_cost, base) -> list:
    """cost_upper of u^k, k = 1..k_max, for every row u of a code block.

    dp[i] is _spell_cost's: the cheapest spelling of the first i letters
    of u^k_max by table pieces, _NO_SPELLING where there is none; a piece is
    keyed by its codes in base ``base``.  The spelling of u^k is dp[k*n],
    capped by the letter-cost sum of its k*n letters, added in order.
    """
    n = rows.shape[1]
    zero = np.zeros(len(rows), dtype=np.int64)
    dp = [zero]          # dp[-l] is dp[i - l] at step i
    per_letter = zero
    keys = []            # keys[l-1]: the piece of length l ending at i
    out = []
    for i in range(1, k_max * n + 1):
        x = rows[:, (i - 1) % n].astype(np.int64)
        keys = [x] + [key * base + x for key in keys[:len(pieces) - 1]]
        best = np.full(len(rows), _NO_SPELLING, dtype=np.int64)
        for (tk, tw), key, prev in zip(pieces, keys, reversed(dp)):
            if tk.size:
                at = np.minimum(np.searchsorted(tk, key), tk.size - 1)
                hit = np.where(tk[at] == key, tw[at], _NO_SPELLING)
                best = np.minimum(best, prev + hit)
        dp = (dp + [best])[-len(pieces):]
        per_letter = per_letter + letter_cost[x]
        if i % n == 0:
            out.append(np.minimum(best, per_letter))
    return out


# ------------------------------------------------------- matrix models


def _modulus(z) -> float:
    """abs(z), but a value with a NaN part never reaches complex abs: in
    CPython 3.11 that returns NaN without clearing errno, so an ERANGE
    left by an earlier overflow (numpy's hypot sets it) makes it raise
    OverflowError.  Its value is abs's: inf with an infinite part, else
    NaN."""
    if z == z:
        return abs(z)
    return math.inf if math.isinf(z.real) or math.isinf(z.imag) else math.nan


def _sv_pair_2x2(a: np.ndarray) -> tuple[float, float]:
    """Singular values of a 2x2 (real or complex) matrix, closed form, in
    Python arithmetic (squares by multiplication, moduli by abs, that is
    hypot); ``_batch_svals`` is its array twin.

    s2 comes from s1 s2 = |det|, not from the subtractive branch of the
    quadratic, which cancels catastrophically once s1 >> s2.
    """
    (p, q), (r, t) = a.tolist()
    try:
        x, y, u, v, d = map(_modulus, (p, q, r, t, p * t - q * r))
    except OverflowError:   # the modulus of a finite complex past the float range
        raise NumericError("matrix overflow in singular values") from None
    f = x * x + y * y + u * u + v * v
    g = math.sqrt(max(f * f - 4.0 * d * d, 0.0))
    s1 = math.sqrt(max((f + g) / 2.0, 0.0))
    return s1, (d / s1 if s1 > 0 else 0.0)


def _joined(parts) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0)


def _lambda1(tr: complex, det: complex) -> float:
    """Spectral radius of a 2x2 matrix from its trace and determinant."""
    if not (math.isfinite(_modulus(tr)) and math.isfinite(_modulus(det))):
        raise NumericError("matrix overflow in class length evaluation")
    q = cmath.sqrt(tr * tr - 4.0 * det)
    return max(_modulus(tr + q), _modulus(tr - q)) / 2.0


def _cmul(a, b) -> tuple:
    """a*b of values given as their parts, (real,) arrays or (real, imag)
    pairs, the latter by the operations of Python's complex a*b."""
    if len(a) == 1:
        return (a[0] * b[0],)
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _cmuladd(a, b, c, d) -> tuple:
    """a*b + c*d of values given as their parts, as Python's arithmetic."""
    return tuple(map(np.add, _cmul(a, b), _cmul(c, d)))


def _lambda1_rows(tr, det) -> np.ndarray:
    """_lambda1 of arrays of traces and determinants given as their parts,
    bit for bit.

    cmath.sqrt is CPython's algorithm, s = 2 sqrt(|x|/8 + hypot(|x|/8,
    |y|/8)) for z = x + iy, and abs(z) is hypot; IEEE arithmetic and the
    C library's hypot round each step alike.  For real z = tr**2 - 4 det,
    s = sqrt(|z|) once |z|/8 is a normal float: lambda1 is (|tr| + s) / 2
    where z >= 0, hypot(tr, s) / 2 where z < 0.  Rows outside that path
    (an infinite or overflowing value, a zero or subnormal discriminant)
    are finished by _lambda1 itself, which also raises its errors.
    """
    tiny = np.finfo(np.float64).tiny
    with np.errstate(all="ignore"):
        if len(tr) == 1:
            (t,), (d,) = tr, det
            z = t * t - 4.0 * d
            s = np.sqrt(np.abs(z))
            lam = np.hypot(t, s, out=np.abs(t) + s, where=z < 0.0) / 2.0
            # a finite lambda1 needs a finite trace, det and z
            odd = ~(np.isfinite(lam) & (np.abs(z) >= 8.0 * tiny))
        else:
            (trr, tri), (dr, di) = tr, det
            zr, zi = _cmul(tr, tr)
            # 4.0 * det: a signed zero of this product can differ from
            # complex multiplication, which moves neither hypot below
            zr, zi = zr - 4.0 * dr, zi - 4.0 * di
            ax, ay = np.abs(zr) / 8.0, np.abs(zi) / 8.0
            s = 2.0 * np.sqrt(ax + np.hypot(ax, ay))
            d = np.abs(zi) / (2.0 * s)
            pos = zr >= 0.0
            qr = np.where(pos, s, d)
            qi = np.copysign(np.where(pos, d, s), zi)
            lam = np.maximum(np.hypot(trr + qr, tri + qi),
                             np.hypot(trr - qr, tri - qi)) / 2.0
            odd = ~(np.isfinite(np.hypot(trr, tri)) & np.isfinite(np.hypot(dr, di))
                    & np.isfinite(zr) & np.isfinite(zi) & np.isfinite(lam)
                    & ((np.abs(zr) >= tiny) | (np.abs(zi) >= tiny)))
    for i in np.flatnonzero(odd).tolist():
        lam[i] = _lambda1(complex(*(x[i] for x in tr)), complex(*(x[i] for x in det)))
    return lam


def _entries(batch: np.ndarray) -> list:
    """The entries a, b, c, d of an (N, 2, 2) batch as their parts: (real,)
    arrays, or (real, imag) pairs for a complex batch."""
    split = (lambda x: (x.real, x.imag)) if np.iscomplexobj(batch) else (lambda x: (x,))
    return [split(batch[:, i, j]) for i in (0, 1) for j in (0, 1)]


def _lambda1_entries(a, b, c, d) -> np.ndarray:
    """_lambda1_rows of 2x2 matrices given by their entries' parts, the
    trace and determinant formed as class_lambda1 forms them."""
    return _lambda1_rows(tuple(map(np.add, a, d)),
                         tuple(map(np.subtract, _cmul(a, d), _cmul(b, c))))


def _batch_lambda1(batch: np.ndarray) -> np.ndarray:
    """The spectral radius of each matrix of an (N, m, m) batch:
    _lambda1_entries for m = 2, ROW_CHUNK matrices at a time (which bounds
    its temporaries), else LAPACK's largest |eigenvalue|."""
    if batch.shape[-1] != 2:
        return np.max(np.abs(np.linalg.eigvals(batch)), axis=1)
    return _joined([_lambda1_entries(*_entries(batch[i:i + ROW_CHUNK]))
                    for i in range(0, len(batch), ROW_CHUNK)])


def _batch_svals(batch: np.ndarray) -> np.ndarray:
    """The singular values of each matrix of an (N, m, m) batch, largest
    first, as an (N, m) array: for m = 2 _sv_pair_2x2's pair bit for bit,
    by its operations on the entries' parts; else LAPACK's."""
    if batch.shape[-1] != 2:
        return np.linalg.svd(batch, compute_uv=False)
    a, b, c, d = _entries(batch)
    with np.errstate(all="ignore"):
        det = tuple(map(np.subtract, _cmul(a, d), _cmul(b, c)))
        x, y, u, v, det = (np.hypot(*e) if len(e) == 2 else np.abs(*e)
                           for e in (a, b, c, d, det))
        f = x * x + y * y + u * u + v * v
        g = np.sqrt(np.maximum(f * f - 4.0 * det * det, 0.0))
        s1 = np.sqrt(np.maximum((f + g) / 2.0, 0.0))
        return np.stack([s1, np.where(s1 > 0, det / s1, 0.0)], axis=1)


class MatrixActionModel(ActionModel):
    """Shared machinery for models whose generators are matrices.

    A subclass gives ``_normalize``, ``_matrix_displacement`` and the two
    constants of its one length rule: the class length of a spectral
    radius lambda1 is 0.0 up to ``_length_floor``, else ``_length_scale``
    times log lambda1 (``_length``, and ``class_brackets`` over a table).
    """

    def _init_matrices(self, mats: Sequence[np.ndarray], dtype) -> None:
        self._gen: dict[int, np.ndarray] = {}
        self._certs: dict[int, AnosovCertificate] = {}
        for i, m in enumerate(mats, start=1):
            a = np.asarray(m, dtype=dtype)
            if a.shape != (self.dim, self.dim):
                raise InputError(
                    f"generator {i}: expected {self.dim}x{self.dim}, got {a.shape}"
                )
            det = complex(np.linalg.det(a))
            if abs(det) < 1e-12:
                raise InputError(f"generator {i} is singular")
            a = self._normalize(a, det)
            self._gen[i] = a
            self._gen[-i] = np.linalg.inv(a)
        self.rank = len(mats)
        # flat complex tuples for class_lambda1's 2x2 products, ~20x faster than numpy
        self._tgens = {k: tuple(map(complex, m.ravel().tolist()))
                       for k, m in self._gen.items()}

    def generator_matrix(self, letter: int) -> np.ndarray:
        try:
            return self._gen[letter]
        except KeyError:
            raise InputError(f"letter {letter} outside rank {self.rank}") from None

    def matrix(self, g: Word) -> np.ndarray:
        a = np.eye(self.dim, dtype=self._gen[1].dtype)
        for x in g.letters:
            a = a @ self._gen[x]
        if not np.all(np.isfinite(np.abs(a))):
            raise NumericError(f"matrix overflow for {g}")
        return a

    def displacement_of_powers(self, g: Word, ks: Sequence[int]) -> dict:
        m = self.matrix(g)
        cache = {1: m}

        def power(k: int) -> np.ndarray:
            if k in cache:
                return cache[k]
            if k % 2 == 0:
                h = power(k // 2)
                p = h @ h
            else:
                p = power(k - 1) @ m
            if not np.all(np.isfinite(np.abs(p))):
                raise NumericError(f"overflow computing power {k} of {g}")
            cache[k] = p
            return p

        return {k: self._matrix_displacement(power(k)) for k in ks}

    def singular_gaps(self, batch: np.ndarray) -> np.ndarray:
        """log(sigma1/sigma2) of each matrix of an (N, m, m) batch by
        _batch_svals and math.log, ending at the first whose s1/s2 is not a
        finite positive.  That one is finished alone, as its word's matrix
        once was: by _sv_pair_2x2 (NumericError on an overflowing modulus)
        or LAPACK (an error on a NaN, so a NaN matrix reads as zero in the
        batch), then NumericError if s2 <= 0, else its gap, not finite."""
        if self.dim < 2:
            raise InputError("a singular gap needs matrices of size 2 or more")
        nan = np.isnan(batch).any(axis=(1, 2), keepdims=True)
        s = _batch_svals(np.where(nan, 0.0, batch))
        with np.errstate(all="ignore"):
            ratio = s[:, 0] / s[:, 1]
        bad = np.flatnonzero(~((s[:, 1] > 0) & (ratio > 0) & (ratio < math.inf)))
        gaps = list(map(math.log, ratio[:bad[0] if bad.size else None].tolist()))
        if bad.size:
            a = batch[bad[0]]
            s1, s2 = (_sv_pair_2x2(a) if self.dim == 2
                      else np.linalg.svd(a, compute_uv=False)[:2].tolist())
            if s2 <= 0:
                raise NumericError("degenerate singular values")
            gaps.append(math.log(s1 / s2))
        return np.array(gaps)

    def class_lambda1(self, letters) -> float:
        """Spectral radius of the product matrix of a (canonical) word."""
        if self.dim != 2:
            return float(np.max(np.abs(np.linalg.eigvals(self.matrix(Word(letters))))))
        gens = self._tgens
        a, b, c, d = 1.0 + 0j, 0j, 0j, 1.0 + 0j
        for x in letters:
            e, f, g, h = gens[x]
            a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
        return _lambda1(a + d, a * d - b * c)

    def class_lambda1_column(self, codes: ClassCodes) -> np.ndarray:
        """class_lambda1 of every class of ``codes`` (2x2 generators).

        The prefix product runs one column at a time over the rows of a
        row chunk of a length block, on the float64 parts of the entries
        in the operations of class_lambda1's complex arithmetic (each a
        separate ufunc call, so no step is fused); real generators keep
        real parts alone, which are the complex ones up to the sign of a
        zero, and no modulus reads that sign.
        The rows are in code order, so the rows that share their codes up
        to a column are adjacent: a column step keeps one product per run
        of such rows and multiplies only those by the next generator.
        Each run's product is the one its rows would reach, by the same
        operations in the same order from the identity, so every value is
        class_lambda1's bit for bit, repeated over the rows of its run.
        Each row chunk's values are written into the one column returned.
        """
        # the entries of each generator, by code
        parts = _entries(np.array(_per_code(self._gen.__getitem__, self.rank)))
        out, stop = np.empty(len(codes)), 0
        with np.errstate(all="ignore"):
            for rows in codes.row_chunks():
                # new[i]: row i starts a run, its codes so far differing
                # from row i - 1's; starts: the first row of each run
                new = np.zeros(len(rows), bool)
                new[0] = True
                starts = np.zeros(1, np.intp)
                a, b, c, d = _entries(np.eye(2, dtype=self._gen[1].dtype)[None])
                for col in rows.T:
                    new[1:] |= col[1:] != col[:-1]
                    # each run lies in one run of the last step, its parent
                    prev, starts = starts, np.flatnonzero(new)
                    parent = np.searchsorted(prev, starts, side="right") - 1
                    a, b, c, d = (tuple(x[parent] for x in m) for m in (a, b, c, d))
                    e, f, g, h = (tuple(x[col[starts]] for x in m) for m in parts)
                    a, b, c, d = (_cmuladd(a, e, b, g), _cmuladd(a, f, b, h),
                                  _cmuladd(c, e, d, g), _cmuladd(c, f, d, h))
                lam = _lambda1_entries(a, b, c, d)
                start, stop = stop, stop + len(rows)
                out[start:stop] = np.repeat(lam, np.diff(starts, append=len(rows)))
        return out

    def _length(self, lam: float) -> float:
        return 0.0 if lam <= self._length_floor else self._length_scale * math.log(lam)

    def class_brackets(self, codes: ClassCodes, k_max: int):
        """The class_length of every class of ``codes``, a point; ``k_max``
        is unused.  None beyond 2x2 matrices, which are evaluated class
        by class.

        One length is built per distinct lambda1 of the whole table (keyed
        by its bits, ``_distinct``), by _length's rule a ROW_CHUNK slice of
        keys at a time, and gathered into the float64 column that held the
        lambda1 values, the lengths' only store.
        """
        if self.dim != 2:
            return None
        # the lambda1 column becomes the length column in place
        column = self.class_lambda1_column(codes)
        keys, inv = _distinct(column.view(np.int64))
        floor, scale, log = self._length_floor, self._length_scale, math.log
        lengths = np.empty(len(keys))
        for start in range(0, len(keys), ROW_CHUNK):
            lams = keys[start:start + ROW_CHUNK].view(np.float64).tolist()
            lengths[start:start + len(lams)] = [0.0 if x <= floor else scale * log(x)
                                                for x in lams]
        for start in range(0, len(column), ROW_CHUNK):
            stop = start + ROW_CHUNK
            column[start:stop] = np.take(lengths, inv[start:stop])
        vals = _Column(column, float)
        return ClassLengths(codes, vals, vals, column, column,
                            frozenset({float} if vals else ()))

    def window_radius(self, length_bound) -> float:
        # no radius is certified: the certificate's mu is the least gap
        # per letter over a finite ball, a sample and not a bound, so every
        # window reads to radius_cap and is marked truncated
        if self.dim < 2:
            raise InputError("a singular gap needs matrices of size 2 or more")
        return math.inf

    def certificate(self, radius: int = 6) -> AnosovCertificate:
        """The gap certificate over the ball of ``radius``, one per radius."""
        if radius not in self._certs:
            self._certs[radius] = anosov_certificate(self, radius=radius)
        return self._certs[radius]


class MobiusModel(MatrixActionModel):
    """Mobius action on the hyperbolic plane (dim 2) or 3-space (dim 3).

    dim 2 takes real 2x2 matrices with positive determinant, rescaled to
    determinant 1; dim 3 takes complex 2x2 matrices rescaled likewise.
    Displacement of the basepoint (i resp. j) is arccosh(||A||_F^2 / 2),
    that is 2 log sigma_1(A) (Beardon, The Geometry of Discrete Groups,
    Thm 7.2.1); stable length is 2 log |lambda_max| of the class
    representative and 0 for elliptic and parabolic classes.
    """

    alpha = None
    _length_floor = 1.0 + 1e-12
    _length_scale = 2.0

    def __init__(self, generators: Sequence, dim: int = 2, delta: float = math.log(2)):
        if dim not in (2, 3):
            raise InputError("dim must be 2 (plane) or 3 (space)")
        self.dim = 2  # matrices are always 2x2; `dim` is the space dimension
        self.space_dim = dim
        self.delta = float(delta)
        dtype = np.complex128 if dim == 3 else np.float64
        self._init_matrices(generators, dtype)

    def _normalize(self, a: np.ndarray, det: complex) -> np.ndarray:
        if self.space_dim == 2:
            if det.real <= 0 or abs(det.imag) > 1e-12:
                raise InputError(
                    "plane model needs real matrices with positive determinant"
                )
            return a / math.sqrt(det.real)
        return a / cmath.sqrt(det)

    def _matrix_displacement(self, a: np.ndarray) -> float:
        f = float(np.sum(np.abs(a) ** 2))
        return math.acosh(max(f / 2.0, 1.0))

    def displacement(self, g: Word) -> float:
        return self._matrix_displacement(self.matrix(g))

    def class_length(self, letters) -> float:
        return self._length(self.class_lambda1(letters))


class LinearRepModel(MatrixActionModel):
    """Linear representation with the singular-value pseudo-metric.

    psi(g, h) = log sigma_1(rho(g^-1 h)) with basepoint the identity, so the
    displacement of g is log sigma_1(rho(g)).  This is asymmetric unless the
    image is closed under transposition.  Stable length is exactly
    log lambda_1(rho(g)) (spectral radius), by Gelfand's formula.

    ``delta`` defaults to log 4, a heuristic for dominated representations;
    override it per representation when the lower-bracket estimator or
    four-point diagnostics are used in anger.  ``alpha`` (rough-geodesicity
    of psi along subgroups) is configuration, default None.
    """

    _length_floor = 1.0   # max(log lambda1, 0.0): log lambda1 <= 0 up to 1
    _length_scale = 1.0

    def __init__(
        self,
        generators: Sequence,
        delta: float = math.log(4),
        alpha: Optional[float] = None,
    ):
        mats = [np.asarray(m) for m in generators]
        if not mats:
            raise InputError("need at least one generator matrix")
        self.dim = mats[0].shape[0]
        self.delta = float(delta)
        self.alpha = alpha
        complex_entries = any(np.iscomplexobj(m) for m in mats)
        self._init_matrices(mats, np.complex128 if complex_entries else np.float64)

    def _normalize(self, a: np.ndarray, det: complex) -> np.ndarray:
        return a / abs(det) ** (1.0 / self.dim)

    def _matrix_displacement(self, a: np.ndarray) -> float:
        if self.dim == 2:
            s1, _ = _sv_pair_2x2(a)
        else:
            s1 = float(np.linalg.svd(a, compute_uv=False)[0])
        return max(math.log(s1), 0.0)

    def displacement(self, g: Word) -> float:
        return self._matrix_displacement(self.matrix(g))

    def class_length(self, letters) -> float:
        return self._length(self.class_lambda1(letters))


# the package's model classes, whose bulk form class_brackets stands for
# their per-class method; a subclass may override that method
_BULK_MODELS = (TreeModel, WordMetricModel, MobiusModel, LinearRepModel)


def class_lengths(model, codes: ClassCodes, k_max: int) -> ClassLengths:
    """The class_length (a point) or else class_length_bracket of every
    class of ``codes`` under ``model``.  A model whose type is one of the
    package's model classes reads a length block at a time through its
    bulk form ``class_brackets``; any other model, a subclass included,
    or one whose bulk form declines (None), is read class by class with
    ``class_bracket_reader``, a point where every hi is its lo."""
    if type(model) in _BULK_MODELS:
        lengths = model.class_brackets(codes, k_max)
        if lengths is not None:
            return lengths
    pairs = list(map(class_bracket_reader(model, k_max), codes.reps))
    lo, hi = [p[0] for p in pairs], [p[1] for p in pairs]
    lo_f = np.array(lo, dtype=np.float64)
    if all(a is b for a, b in zip(lo, hi)):
        return ClassLengths(codes, lo, lo, lo_f, lo_f)
    return ClassLengths(codes, lo, hi, lo_f, np.array(hi, dtype=np.float64))


# ------------------------------------------------------------- Schottky


def _rotation(theta) -> np.ndarray:
    lib = cmath if isinstance(theta, complex) else math
    c, s = lib.cos(theta), lib.sin(theta)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class SchottkyAction:
    """A hyperbolic ping-pong family in both guises: Mobius and linear."""

    mobius: MobiusModel
    linear: LinearRepModel
    certificate: AnosovCertificate


def build_schottky(stretch, angles: Sequence, delta: Optional[float] = None
                   ) -> SchottkyAction:
    """Rank-n Schottky-type generators R(t_i) diag(l_i, 1/l_i) R(t_i)^-1.

    Real angles give isometries of the plane; any complex angle switches to
    the 3-space model.  Every generator has trace l + 1/l > 2, hence is
    loxodromic by construction.  The action carries a singular-gap
    certificate over the radius-6 ball, with a warning when it does not
    certify.
    """
    angles = list(angles)
    if not angles:
        raise InputError("need at least one angle")
    if isinstance(stretch, (int, float)):
        stretches = [float(stretch)] * len(angles)
    else:
        stretches = [float(s) for s in stretch]
        if len(stretches) != len(angles):
            raise InputError("one stretch per angle required")
    for s in stretches:
        if not s > 1:
            raise InputError(f"stretch factors must exceed 1, got {s}")
    complex_case = any(isinstance(t, complex) for t in angles)
    mats = []
    for lam, theta in zip(stretches, angles):
        r = _rotation(complex(theta) if complex_case else theta)
        d = np.diag([lam, 1.0 / lam]).astype(r.dtype)
        mats.append(r @ d @ np.linalg.inv(r))
    if delta is None:
        delta = math.log(2)
    mob = MobiusModel(mats, dim=3 if complex_case else 2, delta=delta)
    lin = LinearRepModel(mats, delta=delta)
    cert = lin._certs[6] = mob.certificate(6)
    if not cert.ok:
        warnings.warn(
            f"Schottky certificate failed (mu = {cert.mu:.3g}); "
            "displacement balls will be unavailable",
            stacklevel=2,
        )
    return SchottkyAction(mobius=mob, linear=lin, certificate=cert)
