"""Exact linear algebra mod p on numpy int64 matrices.

Inputs are reduced into [0, p).  All pivoting is exact.  Every kernel
here assumes p <= MAX_PRIME = 2^31 - 1 (`hbn.exact.field`), which the
CLI and the sweep scripts enforce: a product of two reduced entries is
then below 2^62.  Where unreduced products are summed, a bound on the
entries (below) keeps int64 arithmetic from overflowing between
reductions.

`_eliminate` is the one Gaussian elimination: `matrix_rank` counts its
pivots and `nullspace_vector` back-substitutes over its pivot rows.  It
reduces mod p only the values it reads.  Invariant: every
entry of the active block (rows not yet used as pivots, columns not yet
eliminated) has absolute value at most `bound`, a Python int.  A pivot
step reduces the pivot column and row into [0, p) and subtracts their
outer product unreduced, adding at most (p - 1)^2 to `bound`; the block
is reduced first whenever `bound + (p - 1)^2` would reach 2^62.  At
p = 10007 that would take over 10^10 pivots; at p = 2^31 - 1 it happens
before every update but the first.

Determinants have one engine, `batch_det_mod`: it row-reduces a whole
stack at once, with the stack's axis last, (r, r, n), so every numpy
operation runs along n contiguous entries.  Each matrix picks its own
pivot row (the first nonzero entry at or below the diagonal).  Column c
reduces only the pivot column and the pivot row; the trailing block
takes the outer product of multipliers and pivot row unreduced, under
`_eliminate`'s bound rule.  For p <= 2^16 the multipliers are
a_ic * piv^-1, read from a table of all inverses mod p (int32, 40 KB at
p = 10007) that one `_pow_vec` builds once per prime.  The build costs
13 ms at 2^16 but 0.35 s at 2^20 (2-vCPU Xeon), which would double a
single `hbn sample` call, so above 2^16 elimination stays division
free: the block is reduced, scaled by piv and the pivot row times a_ic
subtracted, and the only inverse is one vectorised Fermat power at the
end.
"""

from __future__ import annotations

import functools

import numpy as np

from hbn.exact.field import inv_mod

_LAZY_LIMIT = 1 << 62  # _eliminate and batch_det_mod keep |entries| below this
_TABLE_LIMIT = 1 << 16  # batch_det_mod reads an inverse table up to this p


def _eliminate(mat, p: int) -> list[tuple[int, int, np.ndarray]]:
    """Gaussian elimination over F_p, reducing lazily (module doc).

    Returns one (column, pivot, pivot row right of the column) per pivot,
    in column order, all reduced into [0, p): the rows of an echelon form
    with the row space of mat.  Column c pivots on the largest entry of
    its reduced active part.  The update also zeroes the pivot row mod p,
    so instead of a swap the top active row is copied into the pivot
    row's slot, right of c only.
    """
    a = np.asarray(mat, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError("expected a 2d matrix")
    a = a % p
    rows, cols = a.shape
    step = (p - 1) ** 2
    bound = p - 1
    pivots: list[tuple[int, int, np.ndarray]] = []
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        col = a[rank:, c] % p
        r = int(col.argmax())
        piv = int(col[r])
        if not piv:
            continue
        scaled = col * inv_mod(piv, p) % p
        prow = a[rank + r, c + 1 :] % p
        if bound + step >= _LAZY_LIMIT:
            a[rank:, c + 1 :] %= p
            bound = p - 1
        a[rank:, c + 1 :] -= scaled[:, None] * prow
        bound += step
        if r:
            a[rank + r, c + 1 :] = a[rank, c + 1 :]
        pivots.append((c, piv, prow))
        rank += 1
    return pivots


def matrix_rank(mat, p: int) -> int:
    """Rank over F_p: the number of pivots of `_eliminate`."""
    return len(_eliminate(mat, p))


def nullspace_vector(mat, p: int) -> np.ndarray | None:
    """One nonzero kernel vector over F_p, or None if the kernel is 0.

    The vector is 1 at the first non-pivot column and 0 at the other
    free columns, which determines it; back substitution over the pivot
    rows of `_eliminate` fills in the pivot columns.  The pivot columns
    do not depend on how rows are pivoted, so neither does the vector.
    """
    pivots = _eliminate(mat, p)
    cols = np.shape(mat)[1]
    pivot_cols = {c for c, _, _ in pivots}
    free = next((c for c in range(cols) if c not in pivot_cols), None)
    if free is None:
        return None
    v = np.zeros(cols, dtype=np.int64)
    v[free] = 1
    for c, piv, prow in reversed(pivots):
        # each product reduced before the sum; the sum times the inverse in Python ints
        dot = int((prow * v[c + 1 :] % p).sum())
        v[c] = -dot * inv_mod(piv, p) % p
    return v


def _pow_vec(x: np.ndarray, e: int, p: int) -> np.ndarray:
    """Elementwise x^e mod p by square and multiply over the whole vector."""
    out = np.ones_like(x)
    base = x % p
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


@functools.lru_cache(maxsize=4)
def _inverses(p: int) -> np.ndarray:
    """x^-1 mod p at index x = 0..p-1 (0 at index 0), as int32."""
    table = _pow_vec(np.arange(p, dtype=np.int64), p - 2, p).astype(np.int32)
    table.flags.writeable = False
    return table


def batch_det_mod(mats, p: int) -> np.ndarray:
    """Determinants of a stack of square matrices (n_mats, r, r) mod p.

    The stack is copied reduced into an (r, r, n_mats) array.  Column c
    swaps each matrix's first nonzero row at or below c into place
    (negating the sign), and the determinant picks up the pivot.  Every
    lower row R then becomes R - l * (pivot row), with l = a_ic * piv^-1
    from the inverse table for p <= 2^16 (module doc); a zero pivot has
    inverse 0 there, so its matrix is left as it is and its determinant
    is 0.  Above 2^16, R becomes piv * R - a_ic * (pivot row), which
    scales the determinant by piv^(r-1-c); that is divided out once at
    the end, the divisor being the running product of the prefix
    products piv_0 * ... * piv_c.
    """
    a = np.asarray(mats, dtype=np.int64)
    del mats  # a stack the caller built in the call is freed below
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("expected a stack of square matrices")
    n, r, _ = a.shape
    b = np.empty((r, r, n), dtype=np.int64)
    np.remainder(a.transpose(1, 2, 0), p, out=b)
    del a
    inverses = _inverses(p) if p <= _TABLE_LIMIT else None
    step = (p - 1) ** 2
    bound = p - 1
    det = np.ones(n, dtype=np.int64)
    den = np.ones(n, dtype=np.int64)
    pre = np.ones(n, dtype=np.int64)
    for c in range(r):
        col = b[c:, c] % p
        if not col[0].all():
            lead = np.argmax(col != 0, axis=0)
            swap = np.flatnonzero(lead)
            lead = lead[swap]
            rows = c + lead
            top = b[c, c + 1 :, swap]
            b[c, c + 1 :, swap] = b[rows, c + 1 :, swap]
            b[rows, c + 1 :, swap] = top
            col[0, swap] = col[lead, swap]
            col[lead, swap] = 0
            det[swap] = -det[swap]
        piv = col[0]
        det = det * piv % p
        if c + 1 == r:
            break
        prow = b[c, c + 1 :] % p
        block = b[c + 1 :, c + 1 :]
        if inverses is None:
            block %= p
            block *= piv
            mult = col[1:]
            pre = pre * piv % p
            den = den * pre % p
        else:
            if bound + step >= _LAZY_LIMIT:
                block %= p
                bound = p - 1
            bound += step
            mult = col[1:] * inverses[piv] % p
        block -= mult[:, None] * prow
    if inverses is None:
        det = det * _pow_vec(den, p - 2, p) % p
    return det
