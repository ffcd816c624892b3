"""Exact class lengths computed apart from the package, for audits of the
reports it writes.

A word is a tuple of nonzero ints: i for the i-th generator, -i for its
inverse, parsed from text with a..z for 1..26 and A..Z for their inverses.
On the Cayley tree of the free group with edge weights w_i, the stable
length of g is the weight of the cyclically reduced core of g: g acts as
a translation along the axis through that core (Culler-Morgan, Proc.
London Math. Soc. 55, 1987, section 1).  A standard word metric, the set
{a_i, a_i^-1} with one weight per generator and its inverse, is the path
metric of that tree, so it is read as the tree.  Another word metric's
word lengths come from ``word_metric_lengths``, a plain uniform-cost
search; its class lengths and matrix models have no oracle here yet.

On such trees the module also gives the claims of three checks from these
lengths alone: the joint bracket of the levels S^n (prop31), the greedy
cover search (lemma32), and the displacement ball and piece counts of the
sandwich (lemma25).  ``joint_levels`` is different: it is the walk of the
``products`` engine over Python sets, reading a word model's displacements
through its own per-word methods and its class lengths through
``class_bracket``, as the reference for the engine's code-row walk.

The last part keeps the per-element forms of steps the package takes in
batches (the gap certificate's walk, the ratio columns, the class lengths
of every model kind and the JSR levels), for checks that the batches keep
their bits.
"""

import heapq
from fractions import Fraction
from functools import cache


def parse(text: str) -> tuple:
    return tuple(ord(c) - 96 if c.islower() else -(ord(c) - 64) for c in text)


def render(word: tuple) -> str:
    return "".join(chr(96 + x) if x > 0 else chr(64 - x) for x in word)


def cyclic_core(word: tuple) -> tuple:
    """The reduced word with its mutually inverse end letters removed."""
    while len(word) > 1 and word[0] == -word[-1]:
        word = word[1:-1]
    return word


def canonical(word: tuple) -> tuple:
    """One representative per conjugacy class of a cyclically reduced word:
    its least rotation, letters compared as (index, inverse)."""
    rotations = [word[i:] + word[:i] for i in range(len(word))]
    return min(rotations, key=lambda r: [(abs(x), x < 0) for x in r])


@cache
def classes(rank: int, radius: int) -> tuple:
    """The canonical reps of every class of cyclic length 1..radius, from
    the cyclic cores of all reduced words of length <= radius."""
    found, level = set(), [()]
    letters = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    for _ in range(radius):
        level = [w + (x,) for w in level for x in letters if not w or x != -w[-1]]
        found.update(canonical(cyclic_core(w)) for w in level)
    return tuple(sorted(found, key=len))


def tree_weights(spec: dict, rank: int):
    """The edge weights of the tree a scenario model spec reads as, or None
    for a model with no tree oracle."""
    weights = spec.get("weights")
    if spec["kind"] == "tree":
        return [Fraction(w) for w in weights or [1] * rank]
    if spec["kind"] != "word-metric":
        return None
    elements = list(map(parse, spec["elements"]))
    cost = dict(zip(elements, weights or [1] * len(elements)))
    if sorted(elements) != sorted((s * i,) for i in range(1, rank + 1)
                                  for s in (1, -1)):
        return None
    if any(cost[(i,)] != cost[(-i,)] for i in range(1, rank + 1)):
        return None
    return [Fraction(cost[(i,)]) for i in range(1, rank + 1)]


def tree_length(weights, word: tuple) -> Fraction:
    """The stable length of word on the tree with these edge weights."""
    return sum((weights[abs(x) - 1] for x in cyclic_core(word)), Fraction(0))


def concat(w: tuple, s: tuple) -> tuple:
    """The reduced word w s of two reduced words."""
    while w and s and w[-1] == -s[0]:
        w, s = w[:-1], s[1:]
    return w + s


def word_metric_lengths(elements, weights, targets, cost_cap,
                        node_cap: int) -> dict:
    """target -> its length in the word metric of the elements (reduced
    words) with these weights, for each nonidentity target that a plain
    uniform-cost search from the identity settles within cost cost_cap
    before it has reached more than node_cap elements: right
    multiplication by the elements, Fraction costs, no heuristic."""
    steps = list(zip(elements, map(Fraction, weights)))
    pending, found = {t for t in targets if t}, {}
    dist = {(): Fraction(0)}
    heap = [(Fraction(0), ())]
    while heap and pending and len(dist) <= node_cap:
        d, w = heapq.heappop(heap)
        if d > dist[w]:
            continue
        if w in pending:
            pending.remove(w)
            found[w] = d
        for e, cost in steps:
            x = concat(w, e)
            if d + cost > cost_cap:
                continue
            if x not in dist or d + cost < dist[x]:
                dist[x] = d + cost
                heapq.heappush(heap, (d + cost, x))
    return found


def joint_levels(model, words, n_max: int, frontier_cap: int):
    """(a, lo_terms) of the products engine from a walk over Python sets:
    level n is the set of the reduced words of S^n, each word read alone,
    as the engine read them before its levels became code arrays.  a[n] is
    the largest displacement by the model's own method (the certified
    ``cost_upper`` where a word-metric search gives up), lo_terms[n] the
    largest ``class_bracket`` lo of a cyclic core (k_max 1) over n.  A
    level of more than ``frontier_cap`` words raises the package's
    ResourceCapError before it is built."""
    from lenspec.actions import exact_div
    from lenspec.errors import ResourceCapError, SearchExhaustedError
    from lenspec.words import Word

    def displacement(w):
        try:
            return model.displacement(Word(w))
        except SearchExhaustedError:
            return model.cost_upper(Word(w))

    def lo(letters):
        return class_bracket(model, letters, 1)[0]

    s_list = [w.letters for w in words]
    frontier = set(s_list)
    a, lo_terms = {}, {}
    for n in range(1, n_max + 1):
        if n > 1:
            if len(frontier) * len(s_list) > frontier_cap:
                raise ResourceCapError(
                    f"level {n} frontier would exceed cap {frontier_cap}")
            frontier = {concat(w, s) for w in frontier for s in s_list}
        a[n] = max(map(displacement, frontier))
        lo_terms[n] = exact_div(max(lo(cyclic_core(w)) for w in frontier), n)
    return a, lo_terms


def ball(rank: int, radius: int) -> list:
    """The reduced words of length <= radius, by length, then letter by
    letter in the order a < A < b < B < ..."""
    letters = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    out, level = [()], [()]
    for _ in range(radius):
        level = [w + (x,) for w in level for x in letters if not w or x != -w[-1]]
        out += level
    return out


def typed(weights, value):
    """A tree length as the package types it: an int on a tree whose
    weights are all whole, else a Fraction."""
    whole = all(Fraction(w).denominator == 1 for w in weights)
    return int(value) if whole else Fraction(value)


def displacement(weights, word: tuple):
    """d(x, gx) on the tree: the weight of the whole reduced word."""
    return typed(weights, sum((Fraction(weights[abs(x) - 1]) for x in word),
                              Fraction(0)))


def class_length(weights, word: tuple):
    """The stable length of a reduced word, typed as the package's."""
    return typed(weights, tree_length([Fraction(w) for w in weights], word))


def joint_bracket(weights, subset, n_max: int) -> tuple:
    """(lo, hi) of the joint stable length from the levels S^1..S^n_max
    of the reduced words of S: hi the least largest displacement over
    n, lo the largest cyclic-core length over n."""
    level, his, los = set(subset), [], []
    for n in range(1, n_max + 1):
        if n > 1:
            level = {concat(w, s) for w in level for s in subset}
        his.append(Fraction(max(displacement(weights, w) for w in level), n))
        los.append(Fraction(max(class_length(weights, w) for w in level), n))
    return max(los), min(his)


def cover(weights, ball_radius: int, f_radius: int, max_f: int) -> tuple:
    """(F, C) of the greedy cover search: from F = [()] add the first
    candidate of the pool (a ball of radius f_radius) that most lowers
    C = max over the ball of d(x, gx) - max over F of l[gf] (at least 0),
    while that is a strict fall, up to max_f words."""
    rank = len(weights)
    words, pool = ball(rank, ball_radius), ball(rank, f_radius)
    disp = [displacement(weights, g) for g in words]

    def col(f):
        return [class_length(weights, concat(g, f)) for g in words]

    def c_of(vals):
        return max(max(d - v for d, v in zip(disp, vals)), 0)

    F, best = [()], col(())
    C = c_of(best)
    while len(F) < min(max_f, len(pool)) and C > 0:
        trials = [(c_of(t), f, t) for f in pool if f not in F
                  for t in [[max(a, b) for a, b in zip(best, col(f))]]]
        c, f, t = min(trials, key=lambda x: x[0])
        if not c < C:
            break
        F.append(f)
        best, C = t, c
    return F, C


def pieces(weights, word: tuple, bound) -> int:
    """The least number of subwords, each of weight <= bound, that
    spell the word, by a DP over its prefixes; None when a letter alone
    weighs more than bound."""
    w = [Fraction(weights[abs(x) - 1]) for x in word]
    best = [0] + [None] * len(w)
    for j in range(1, len(w) + 1):
        for i in range(j):
            if best[i] is not None and sum(w[i:j]) <= bound:
                if best[j] is None or best[i] + 1 < best[j]:
                    best[j] = best[i] + 1
    return best[-1]


def displacement_ball(weights, bound) -> list:
    """The nonidentity reduced words of displacement <= bound, in ball
    order."""
    radius = int(Fraction(bound) / min(map(Fraction, weights)))
    return [g for g in ball(len(weights), radius)[1:]
            if displacement(weights, g) <= bound]


# -------------------------------------- per-element forms of batched code
#
# The forms the package computed one element at a time before it took
# each step in batches: the batched steps must keep their bits.


def singular_gap(a):
    """log(sigma1/sigma2) of one matrix as a matrix model read it: the
    2x2 closed form ``_sv_pair_2x2``, else LAPACK's SVD of it alone."""
    import math

    import numpy as np
    from lenspec.errors import InputError, NumericError
    from lenspec.spaces import _sv_pair_2x2

    if a.shape[0] < 2:
        raise InputError("a singular gap needs matrices of size 2 or more")
    if a.shape[0] == 2:
        s1, s2 = _sv_pair_2x2(a)
    else:
        s = np.linalg.svd(a, compute_uv=False)
        s1, s2 = float(s[0]), float(s[1])
    if s2 <= 0:
        raise NumericError("degenerate singular values")
    return math.log(s1 / s2)


def certificate(model, radius: int, gap=singular_gap):
    """anosov_certificate by its per-word walk over the ball: each word's
    matrix its parent's times its last generator by one ``@``, its gap
    ``gap(matrix)``."""
    import math
    from itertools import groupby

    from lenspec.actions import AnosovCertificate
    from lenspec.errors import InputError, NumericError
    from lenspec.words import Word, enumerate_ball

    if radius < 1:
        raise InputError(f"empty ball; radius must be >= 1, got {radius}")
    mu = math.inf
    worst = Word()
    rows = []
    for n, level in groupby(enumerate_ball(model.rank, radius)[1:], key=len):
        cur = {}
        for g in level:
            mat = model.generator_matrix(g.letters[-1])
            if n > 1:
                mat = prev[g.letters[:-1]] @ mat
            v = gap(mat)
            if not math.isfinite(v):
                raise NumericError(f"non-finite singular gap at {g}")
            rows.append((n, v))
            r = v / n
            if r < mu:
                mu, worst = r, g
            if n < radius:
                cur[g.letters] = mat
        prev = cur
    mu = max(mu, 0.0)
    log_c = min(v - mu * n for n, v in rows)
    log_c = min(log_c, 0.0)
    return AnosovCertificate(
        mu=mu, log_C=log_c, ok=mu > 1e-9, radius=radius, worst=worst
    )


def ratio_column(tops, bottoms, positive) -> list:
    """float(exact_div(t, b)) row by row where ``positive``, else nan."""
    from lenspec.actions import exact_div

    return [float(exact_div(t, b)) if p else float("nan")
            for t, b, p in zip(tops, bottoms, positive)]


def matrix_length(model, lam: float) -> float:
    """A matrix model's class length of the spectral radius lam, by the
    rule of its kind: 2 log lam past 1 + 1e-12 on a Mobius model, else
    0.0; max(log lam, 0.0) on a linear one."""
    import math

    from lenspec.spaces import MobiusModel

    if isinstance(model, MobiusModel):
        return 0.0 if lam <= 1.0 + 1e-12 else 2.0 * math.log(lam)
    return max(math.log(lam), 0.0)


def stacked_levels(mats, n_max: int):
    """The levels (n, batch, log_scale) of the JSR enumeration from the
    stacked ``batch @ g`` of each generator, concatenated, each level
    divided by its largest modulus."""
    import math

    import numpy as np

    gens = np.stack([np.asarray(m) for m in mats])
    gens = gens.astype(np.complex128 if np.iscomplexobj(gens) else np.float64)
    batch, log_scale = gens, 0.0
    for n in range(1, n_max + 1):
        if n > 1:
            batch = np.concatenate([batch @ g for g in gens])
        c = float(np.max(np.abs(batch)))
        batch = batch / c
        log_scale += math.log(c)
        yield n, batch, log_scale


def class_lambda1(model, letters) -> float:
    """The spectral radius of the product matrix of a rep under a matrix
    model, one class alone: for 2x2 generators the product of Python
    complex matrices from the identity, one letter at a time, and
    ``_lambda1`` of its trace and determinant; beyond 2x2 LAPACK's
    largest |eigenvalue| of ``model.matrix``."""
    import numpy as np
    from lenspec.spaces import _lambda1
    from lenspec.words import Word

    if model.dim != 2:
        return float(np.max(np.abs(np.linalg.eigvals(model.matrix(Word(letters))))))
    gens = {x: tuple(map(complex, model.generator_matrix(x).ravel().tolist()))
            for x in set(letters)}
    a, b, c, d = 1.0 + 0j, 0j, 0j, 1.0 + 0j
    for x in letters:
        e, f, g, h = gens[x]
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return _lambda1(a + d, a * d - b * c)


def spell_cost(letters: tuple, table: dict, max_piece: int):
    """The cheapest way to write ``letters`` as a no-cancellation
    concatenation of table entries (word -> weight); None if there is
    none.  The segment DP over the prefixes."""
    dp = [0] + [None] * len(letters)
    for i in range(1, len(letters) + 1):
        for j in range(max(0, i - max_piece), i):
            w = table.get(letters[j:i])
            if dp[j] is not None and w is not None:
                if dp[i] is None or dp[j] + w < dp[i]:
                    dp[i] = dp[j] + w
    return dp[-1]


def word_metric_bracket(model, letters: tuple, k_max: int) -> tuple:
    """(lo, hi) of the class of a cyclically reduced rep u under a
    non-standard word metric, one class alone: hi the least over
    k <= k_max of the cost of u^k over k, the cost the cheaper of its
    ``spell_cost`` and its letter-cost sum; lo the least of hi and
    |u| / C_cmp; (0, 0) for the empty rep."""
    if not letters:
        return 0, 0
    hi = None
    for k in range(1, k_max + 1):
        word = letters * k
        cost = sum(Fraction(model._letter_cost[x]) for x in word)
        spelt = spell_cost(word, model._table, model._max_piece)
        if spelt is not None:
            cost = min(cost, Fraction(spelt))
        if hi is None or cost / k < hi:
            hi = cost / k
    return min(Fraction(len(letters)) / Fraction(model._c_cmp), hi), hi


def class_bracket(model, letters: tuple, k_max: int = 2) -> tuple:
    """(lo, hi) of the class of a rep under one of the package's models,
    one class alone and apart from its bulk form: a tree's (and a
    standard word metric's) ``class_length`` twice, a non-standard word
    metric's ``word_metric_bracket``, a matrix model's ``matrix_length``
    of its ``class_lambda1`` twice."""
    from lenspec.spaces import MatrixActionModel, TreeModel

    if isinstance(model, MatrixActionModel):
        v = matrix_length(model, class_lambda1(model, letters))
    elif isinstance(model, TreeModel):
        v = class_length(model.weights, letters)
    elif model._standard:
        v = class_length(model._tree.weights, letters)
    else:
        return word_metric_bracket(model, letters, k_max)
    return v, v
