"""Exact arithmetic kernels: prime fields, polynomials, forms, linear algebra.

Everything in this subpackage is deterministic and allocation-light; all
randomness is injected through explicit ``random.Random`` instances.
"""

from hbn.exact.field import (
    DEFAULT_PRIME,
    inv_mod,
    is_prime,
    sqrt_mod,
)
from hbn.exact.forms import BinaryForm
from hbn.exact.linalg import batch_det_mod, matrix_rank, nullspace_vector
from hbn.exact.birkhoff import TransitionMatrix, birkhoff_splitting

__all__ = [
    "DEFAULT_PRIME",
    "inv_mod",
    "is_prime",
    "sqrt_mod",
    "BinaryForm",
    "matrix_rank",
    "batch_det_mod",
    "nullspace_vector",
    "TransitionMatrix",
    "birkhoff_splitting",
]
