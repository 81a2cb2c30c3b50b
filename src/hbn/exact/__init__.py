"""Exact arithmetic kernels: prime fields, polynomials, forms, linear algebra.

Everything in this subpackage is deterministic and allocation-light; all
randomness is injected through explicit ``random.Random`` instances.
"""
