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
from typing import Optional, Sequence

import numpy as np

from .actions import ActionModel, AnosovCertificate, LengthBracket, anosov_certificate, exact_div
from .errors import InputError, NumericError, SearchExhaustedError
from .words import ConjClass, GeneratingSet, Word, word_length

__all__ = [
    "TreeModel",
    "WordMetricModel",
    "MobiusModel",
    "LinearRepModel",
    "SchottkyAction",
    "build_schottky",
]


# ---------------------------------------------------------------- trees


class TreeModel(ActionModel):
    """Simplicial tree: the Cayley tree of the free group with edge weights.

    Displacement is the weighted reduced length, stable length the weighted
    cyclically reduced length; both stay exact for int/Fraction weights.
    The orbit is D-dense with D = max weight / 2 and the space is 0-hyperbolic.
    """

    symmetric = True
    exactness = "tree-exact"
    frontier_kind = "word"
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
        ws = []
        for w in weights:
            if isinstance(w, float):
                if not w > 0:
                    raise InputError(f"weights must be positive, got {w}")
                ws.append(w)
            else:
                wf = Fraction(w)
                if not wf > 0:
                    raise InputError(f"weights must be positive, got {w}")
                ws.append(int(wf) if wf.denominator == 1 else wf)
        self.weights = tuple(ws)
        self.cobound_D = exact_div(max(self.weights), 2)

    def weight_of(self, letter: int):
        i = abs(letter)
        if not 1 <= i <= self.rank:
            raise InputError(f"letter {letter} outside rank {self.rank}")
        return self.weights[i - 1]

    def displacement(self, g: Word):
        return sum(self.weight_of(x) for x in g.letters)

    def class_length(self, letters):
        w = self.weights
        return sum(w[abs(x) - 1] for x in letters)

    def exact_stable_length(self, c: ConjClass):
        return self.displacement(c.rep)

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
    For the standard symmetric S this is a weighted tree metric and stable
    lengths are exact.  Otherwise stable lengths come as certified
    comparison brackets:

      lo: any S-expression of g^k of cost W is a path of unit-tree length
          at most W * max_s(|s|/w_s), so l_S[g] >= cyclen(g) / C_cmp;
      hi: min over k <= k_max of (no-cancellation spelling cost of g^k)/k,
          also capped by (max cost of a standard letter) * cyclen(g).

    Both sides hold without any hyperbolicity assumption.
    """

    frontier_kind = "word"

    def __init__(
        self,
        gens: GeneratingSet,
        delta=0,
        radius_cap=32,
        check_generation: bool = True,
        k_max: int = 8,
    ):
        self.rank = gens.rank
        self.gens = gens
        self.delta = delta
        self.alpha = 0
        self.radius_cap = radius_cap
        self.k_max = k_max
        self.symmetric = gens.symmetric
        self._standard = gens.is_standard
        self.exactness = "tree-exact" if self._standard else "bracket-only"
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
                x: gens.weight_of(x) for x in self._letters_pm()
            }
        else:
            self.cobound_D = None
            if check_generation:
                from .words import check_semigroup_generation

                chk = check_semigroup_generation(gens, radius_cap=radius_cap)
                if not chk.ok:
                    kind = "inconclusive" if chk.inconclusive else "failed"
                    raise InputError(
                        f"semigroup generation check {kind}: letter {chk.missing} "
                        f"not reached within cost {radius_cap}"
                    )
            # with the generation check disabled a letter may be unreachable;
            # record inf so cost_upper degrades instead of crashing
            self._letter_cost = {}
            for x in self._letters_pm():
                try:
                    self._letter_cost[x] = word_length(
                        Word((x,)), gens, radius_cap=radius_cap
                    )
                except SearchExhaustedError:
                    if check_generation:
                        raise
                    self._letter_cost[x] = math.inf

    def _letters_pm(self):
        out = []
        for i in range(1, self.rank + 1):
            out.extend((i, -i))
        return out

    def displacement(self, g: Word):
        if self._standard:
            return self._tree.displacement(g)
        return word_length(g, self.gens, radius_cap=self.radius_cap)

    def exact_stable_length(self, c: ConjClass):
        if self._standard:
            return self._tree.displacement(c.rep)
        return None

    def cost_upper(self, g: Word):
        """Certified upper bound for |g|_S (no-cancellation spelling)."""
        if not g.letters:
            return 0
        best = None
        s = _spell_cost(g.letters, self._table, self._max_piece)
        if s is not None:
            best = s
        per_letter = sum(self._letter_cost[x] for x in g.letters)
        return per_letter if best is None else min(best, per_letter)

    def stable_length(self, c: ConjClass, k_max: Optional[int] = None, c_delta=4):
        v = self.exact_stable_length(c)
        if v is not None:
            return LengthBracket.exactly(v)
        rep = c.rep
        if not rep.letters:
            return LengthBracket.exactly(0)
        lo = exact_div(len(rep), self._c_cmp)
        k_max = self.k_max if k_max is None else k_max
        hi = None
        u = rep.letters
        for k in range(1, k_max + 1):
            cand = exact_div(self.cost_upper(Word(u * k)), k)
            if hi is None or cand < hi:
                hi = cand
        lo = min(lo, hi)
        return LengthBracket(lo, hi, exact=bool(lo == hi))

    def class_length_bracket(self, letters, k_max: int = 2):
        """(lo, hi) for the stable length of an already-canonical class."""
        if self._standard:
            v = self._tree.class_length(letters)
            return v, v
        if not letters:
            return 0, 0
        lo = exact_div(len(letters), self._c_cmp)
        hi = None
        for k in range(1, k_max + 1):
            cand = exact_div(self.cost_upper(Word(letters * k)), k)
            if hi is None or cand < hi:
                hi = cand
        return min(lo, hi), hi

    def window_radius(self, length_bound) -> int:
        return math.ceil(length_bound * self._c_cmp)


# ------------------------------------------------------- matrix models


def _sv_pair_2x2(a: np.ndarray) -> tuple[float, float]:
    """Singular values of a 2x2 (real or complex) matrix, closed form.

    s2 comes from s1 s2 = |det|, not from the subtractive branch of the
    quadratic, which cancels catastrophically once s1 >> s2.
    """
    f = float(np.abs(a[0, 0]) ** 2 + np.abs(a[0, 1]) ** 2
              + np.abs(a[1, 0]) ** 2 + np.abs(a[1, 1]) ** 2)
    d = abs(complex(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]))
    q = math.sqrt(max(f * f - 4.0 * d * d, 0.0))
    s1 = math.sqrt(max((f + q) / 2.0, 0.0))
    s2 = d / s1 if s1 > 0 else 0.0
    return s1, s2


class MatrixActionModel(ActionModel):
    """Shared machinery for models whose generators are matrices."""

    frontier_kind = "matrix"

    def _init_matrices(self, mats: Sequence[np.ndarray], dtype) -> None:
        self._gen: dict[int, np.ndarray] = {}
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
        out, cache = {}, {1: m}

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

        for k in ks:
            out[k] = self._matrix_displacement(power(k))
        return out

    def singular_gap(self, a: np.ndarray) -> float:
        if self.dim == 2:
            s1, s2 = _sv_pair_2x2(a)
        else:
            s = np.linalg.svd(a, compute_uv=False)
            s1, s2 = float(s[0]), float(s[1])
        if s2 <= 0:
            raise NumericError("degenerate singular values")
        return math.log(s1 / s2)

    def _tuple_gens(self) -> dict:
        # flat 2x2 complex tuples; ~20x faster than numpy for tiny products
        cached = getattr(self, "_tgens", None)
        if cached is None:
            cached = {
                k: (complex(m[0, 0]), complex(m[0, 1]),
                    complex(m[1, 0]), complex(m[1, 1]))
                for k, m in self._gen.items()
            }
            self._tgens = cached
        return cached

    def class_lambda1(self, letters) -> float:
        """Spectral radius of the product matrix of a (canonical) word."""
        if self.dim != 2:
            return self.spectral_radius(self.matrix(Word(letters)))
        gens = self._tuple_gens()
        a, b, c, d = 1.0 + 0j, 0j, 0j, 1.0 + 0j
        for x in letters:
            e, f, g, h = gens[x]
            a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
        tr = a + d
        det = a * d - b * c
        if not (math.isfinite(abs(tr)) and math.isfinite(abs(det))):
            raise NumericError("matrix overflow in class length evaluation")
        q = cmath.sqrt(tr * tr - 4.0 * det)
        return max(abs(tr + q), abs(tr - q)) / 2.0

    def spectral_radius(self, a: np.ndarray) -> float:
        if self.dim == 2:
            tr = complex(a[0, 0] + a[1, 1])
            det = complex(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
            q = cmath.sqrt(tr * tr - 4.0 * det)
            return max(abs((tr + q) / 2.0), abs((tr - q) / 2.0))
        return float(np.max(np.abs(np.linalg.eigvals(a))))

    def certificate(self, radius: int = 6) -> AnosovCertificate:
        if getattr(self, "_cert", None) is None or self._cert.radius < radius:
            self._cert = anosov_certificate(self, radius=radius)
        return self._cert

    def _matrix_displacement(self, a: np.ndarray) -> float:
        raise NotImplementedError

    def _normalize(self, a: np.ndarray, det: complex) -> np.ndarray:
        raise NotImplementedError


class MobiusModel(MatrixActionModel):
    """Mobius action on the hyperbolic plane (dim 2) or 3-space (dim 3).

    dim 2 takes real 2x2 matrices with positive determinant, rescaled to
    determinant 1; dim 3 takes complex 2x2 matrices rescaled likewise.
    Displacement of the basepoint (i resp. j) is arccosh(||A||_F^2 / 2);
    stable length is 2 log |lambda_max| of the class representative and 0
    for elliptic and parabolic classes.
    """

    symmetric = True
    exactness = "eigenvalue-exact"
    alpha = None

    def __init__(self, generators: Sequence, dim: int = 2, delta: float = math.log(2)):
        if dim not in (2, 3):
            raise InputError("dim must be 2 (plane) or 3 (space)")
        self.dim = 2  # matrices are always 2x2; `dim` is the space dimension
        self.space_dim = dim
        self.delta = float(delta)
        self._cert = None
        dtype = np.complex128 if dim == 3 else np.float64
        self._init_matrices(generators, dtype)
        self.cobound_D = None

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
        lam = self.class_lambda1(letters)
        if lam <= 1.0 + 1e-12:
            return 0.0
        return 2.0 * math.log(lam)

    def exact_stable_length(self, c: ConjClass) -> float:
        return self.class_length(c.rep.letters)

    def window_radius(self, length_bound) -> float:
        mu = self.certificate().mu
        if mu <= 0:
            return math.inf
        return math.ceil(length_bound / mu)


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

    symmetric = False
    exactness = "eigenvalue-exact"

    def __init__(
        self,
        generators: Sequence,
        delta: float = math.log(4),
        alpha: Optional[float] = None,
        complex_entries: bool = False,
    ):
        mats = [np.asarray(m) for m in generators]
        if not mats:
            raise InputError("need at least one generator matrix")
        self.dim = mats[0].shape[0]
        if any(np.iscomplexobj(m) for m in mats):
            complex_entries = True
        self.delta = float(delta)
        self.alpha = alpha
        self._cert = None
        self._init_matrices(mats, np.complex128 if complex_entries else np.float64)
        self.cobound_D = None

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
        return max(math.log(self.class_lambda1(letters)), 0.0)

    def exact_stable_length(self, c: ConjClass) -> float:
        return self.class_length(c.rep.letters)

    def window_radius(self, length_bound) -> float:
        # log sigma1 >= gap/2 for unit determinant, so l >= mu * cyclen / 2
        mu = self.certificate().mu
        if mu <= 0:
            return math.inf
        return math.ceil(2.0 * length_bound / mu)


# ------------------------------------------------------------- Schottky


def _rotation(theta) -> np.ndarray:
    if isinstance(theta, complex):
        c, s = cmath.cos(theta), cmath.sin(theta)
        return np.array([[c, -s], [s, c]], dtype=np.complex128)
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=np.float64)


@dataclass(frozen=True)
class SchottkyAction:
    """A hyperbolic ping-pong family in both guises: Mobius and linear."""

    mobius: MobiusModel
    linear: LinearRepModel
    certificate: AnosovCertificate


def build_schottky(stretch, angles: Sequence, delta: Optional[float] = None,
                   cert_radius: int = 6) -> SchottkyAction:
    """Rank-n Schottky-type generators R(t_i) diag(l_i, 1/l_i) R(t_i)^-1.

    Real angles give isometries of the plane; any complex angle switches to
    the 3-space model.  Every generator has trace l + 1/l > 2, hence is
    loxodromic by construction.  The action carries a singular-gap
    certificate, with a warning when it does not certify.
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
    lin = LinearRepModel(mats, delta=delta, complex_entries=complex_case)
    cert = mob.certificate(cert_radius)
    lin._cert = cert
    if not cert.ok:
        warnings.warn(
            f"Schottky certificate failed (mu = {cert.mu:.3g}); "
            "window coverage radii will be unavailable",
            stacklevel=2,
        )
    return SchottkyAction(mobius=mob, linear=lin, certificate=cert)
