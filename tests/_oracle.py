"""Exact class lengths computed apart from the package, for audits of the
reports it writes.

A word is a tuple of nonzero ints: i for the i-th generator, -i for its
inverse, parsed from text with a..z for 1..26 and A..Z for their inverses.
On the Cayley tree of the free group with edge weights w_i, the stable
length of g is the weight of the cyclically reduced core of g: g acts as
a translation along the axis through that core (Culler-Morgan, Proc.
London Math. Soc. 55, 1987, section 1).  A standard word metric, the set
{a_i, a_i^-1} with one weight per generator and its inverse, is the path
metric of that tree, so it is read as the tree.  Other word metrics and
matrix models have no oracle here yet.
"""

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
