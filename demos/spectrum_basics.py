"""
Stable translation lengths on concrete models
=============================================

"""

import math

from lenspec.words import ConjClass, Word
from lenspec.actions import stable_length_bracket
from lenspec.spaces import TreeModel, MobiusModel, build_schottky

# the free group F_2: lowercase = generator, uppercase = inverse
g = Word("abAAb")
print("word       ", g)
print("inverse    ", g.inverse())
print("g * g      ", g * g)
print("class rep  ", ConjClass.of(g).rep)

# on the Cayley tree the stable length is the cyclically reduced length
tree = TreeModel(2)
for s in ("a", "abA", "abAB", "aabAB"):
    w = Word(s)
    br = stable_length_bracket(tree, w)
    print(f"tree  l[{s:6s}] = {br.lo}")

# weights stretch each edge type; arithmetic stays exact
wtree = TreeModel(2, weights=(1, 3))
print("weighted l[ab] =", stable_length_bracket(wtree, Word("ab")).lo)

# a hyperbolic-plane action: lengths come from eigenvalues, the bracket
# from power displacements, and the two must agree
mob = build_schottky(4.0, (0.0, 1.2), delta=math.log(2)).mobius
for s in ("a", "b", "ab", "abAB"):
    w = Word(s)
    br = stable_length_bracket(mob, w, k_max=8)
    ell = mob.class_length(w.letters)
    print(f"plane l[{s:4s}] in [{br.lo:8.5f}, {br.hi:8.5f}]  exact {ell:8.5f}")

# a parabolic moves the basepoint yet has zero stable length: displacement
# of g^k grows like 2 log k, so the per-power average dies
par = MobiusModel([[[1.0, 1.0], [0.0, 1.0]],
                   [[2.0, 0.0], [0.0, 0.5]]])
print("parabolic: disp", round(par.displacement(Word("a")), 6),
      "stable", par.class_length((1,)),
      "bracket hi", round(stable_length_bracket(par, Word("a"), k_max=16).hi, 6))
