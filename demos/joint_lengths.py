"""
Joint stable length of a finite set
===================================

a_n = max displacement over n-fold products of S; the joint stable length
is lim a_n / n.  On a tree it is exactly half the largest stable length over
S^2, so the tree-dp engine returns that exact value without computing any
level.
"""

from lenspec.words import Word
from lenspec.spaces import TreeModel
from lenspec.jsl import joint_stable_profile, bf_lower_check

tree = TreeModel(2)

# the standard generators march straight out: a_n = n (levels come from
# the products engine; on a tree the default engine computes none)
prof = joint_stable_profile(tree, [Word("a"), Word("b")], 12, engine="products")
print("S = {a, b}        levels", dict(sorted(prof.a.items())))
print("bracket", prof.bracket.lo, prof.bracket.hi, "engine", prof.engine)

# conjugates of b and B: every product wastes the same two letters, so
# a_n = n + 2 and the limit is 1 while single elements have length 1 too;
# the levels only approach 1 from above, the S^2 scan gives it exactly
S = [Word("abA"), Word("aBA")]
levels = joint_stable_profile(tree, S, 12, engine="products")
prof = joint_stable_profile(tree, S, 12, engine="tree-dp")
print("S = {abA, aBA}    levels", dict(sorted(levels.a.items())))
print("products bracket", levels.bracket.lo, levels.bracket.hi,
      "tree-dp bracket", prof.bracket.lo, prof.bracket.hi,
      "pair half-max", prof.pair_half)

# the pairwise lower bound: joint length >= 1/2 max over S^2 of l(gh).
# equality cases are common; the check reports the minimal additive
# constant that would be needed the other way around.  On a tree the joint
# brackets come from the exact S^2 scan, so minimal K is 0 on both sets
for S in ([Word("a"), Word("b")], [Word("abA"), Word("aBA")]):
    chk = bf_lower_check(tree, S, n_max=10)
    print([str(w) for w in S], "ok", chk.ok,
          "joint", chk.joint.lo, chk.joint.hi,
          "pair half", chk.pair_half.lo, "minimal K", chk.minimal_K)

# weighted trees keep everything in exact rationals
wtree = TreeModel(2, weights=(1, 2))
prof = joint_stable_profile(wtree, [Word("ab"), Word("aB")], 12)
print("weighted bracket", prof.bracket.lo, prof.bracket.hi)
