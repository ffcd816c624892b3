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
``products`` engine over Python sets, reading any word model through its
own per-word methods, as the reference for the engine's code-row walk.
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
    level n is the set of the reduced words of S^n, each read by the
    model's own per-word methods, as the engine read them before its
    levels became code arrays.  a[n] is the largest displacement (the
    certified ``cost_upper`` where a word-metric search gives up),
    lo_terms[n] the largest class-bracket lo of a cyclic core (k_max 1)
    over n.  A level of more than ``frontier_cap`` words raises the
    package's ResourceCapError before it is built."""
    from lenspec.actions import exact_div
    from lenspec.errors import ResourceCapError, SearchExhaustedError
    from lenspec.words import Word

    def displacement(w):
        try:
            return model.displacement(Word(w))
        except SearchExhaustedError:
            return model.cost_upper(Word(w))

    def lo(letters):
        if hasattr(model, "class_length"):
            return model.class_length(letters)
        return model.class_length_bracket(letters, 1)[0]

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
