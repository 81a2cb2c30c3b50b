"""Exact arithmetic kernels: prime fields, polynomials, linear algebra.

A binary form has no type of its own: it is its coefficient list
(`hbn.determinantal` module doc).

Everything in this subpackage is deterministic and allocation-light.
Randomness is injected through explicit ``random.Random`` instances, with
one exception: ``poly.irreducible_factors`` seeds its own ``Random(0)``
for the equal-degree splits, and its sorted result does not depend on it.
"""
