"""Exact linear algebra mod p on numpy int64 matrices.

Inputs are reduced into [0, p).  All pivoting is exact.  Every kernel
here assumes p <= MAX_PRIME = 2^31 - 1 (`hbn.exact.field`), which the
CLI and the sweep scripts enforce: a product of two reduced entries is
then below 2^62, and every product is reduced before anything is summed,
so int64 arithmetic never overflows between reductions.

`matrix_rank` reduces mod p only the values it reads.  Invariant: every
entry of the active block (rows not yet used as pivots, columns not yet
eliminated) has absolute value at most `bound`, a Python int.  A pivot
step reduces the pivot column and row into [0, p) and subtracts their
outer product unreduced, adding at most (p - 1)^2 to `bound`; the block
is reduced first whenever `bound + (p - 1)^2` would reach 2^62.  At
p = 10007 that would take over 10^10 pivots; at p = 2^31 - 1 it happens
before every update but the first.

Determinants have one engine, `batch_det_mod`: it row-reduces a whole
stack (n, r, r) at once.  Each matrix picks its own pivot row (the first
nonzero entry at or below the diagonal), and elimination is division
free, so the only inverse is one vectorised Fermat power at the end.
"""

from __future__ import annotations

import numpy as np

from hbn.exact.field import inv_mod

_LAZY_LIMIT = 1 << 62  # matrix_rank keeps |entries| below this


def _as_mod_array(mat, p: int) -> np.ndarray:
    a = np.asarray(mat, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError("expected a 2d matrix")
    return a % p


def matrix_rank(mat, p: int) -> int:
    """Rank over F_p by Gaussian elimination, reducing lazily (module doc).

    Column c pivots on the largest entry of its reduced active part.  The
    update also zeroes the pivot row mod p, so instead of a swap the top
    active row is copied into the pivot row's slot, right of c only.
    """
    a = _as_mod_array(mat, p)
    rows, cols = a.shape
    step = (p - 1) ** 2
    bound = p - 1
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
        rank += 1
    return rank


def rref(mat, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot column indices."""
    a = _as_mod_array(mat, p)
    rows, cols = a.shape
    pivots: list[int] = []
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        nz = np.nonzero(a[rank:, c])[0]
        if nz.size == 0:
            continue
        r = rank + int(nz[0])
        if r != rank:
            a[[rank, r]] = a[[r, rank]]
        a[rank] = a[rank] * inv_mod(int(a[rank, c]), p) % p
        others = np.nonzero(a[:, c])[0]
        others = others[others != rank]
        if others.size:
            a[others] = (a[others] - np.outer(a[others, c], a[rank])) % p
        pivots.append(c)
        rank += 1
    return a, pivots


def nullspace_vector(mat, p: int) -> np.ndarray | None:
    """One nonzero kernel vector over F_p, or None if the kernel is 0."""
    a, pivots = rref(mat, p)
    cols = a.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    if not free:
        return None
    c0 = free[0]
    v = np.zeros(cols, dtype=np.int64)
    v[c0] = 1
    for row, pc in enumerate(pivots):
        v[pc] = (-a[row, c0]) % p
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


def batch_det_mod(mats, p: int) -> np.ndarray:
    """Determinants of a stack of square matrices (n_mats, r, r) mod p.

    Column c swaps each matrix's first nonzero row at or below c into
    place (negating the sign), then replaces every lower row R by
    piv * R - R[c] * (pivot row).  That scales the determinant by
    piv^(r-1-c), which is divided out once at the end: the divisor is the
    running product of the prefix products piv_0 * ... * piv_c.  A matrix
    with no pivot in some column gets a zero pivot, so its determinant
    is 0.
    """
    a = np.asarray(mats, dtype=np.int64) % p
    del mats  # a stack the caller built in the call is freed here
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError("expected a stack of square matrices")
    n, r, _ = a.shape
    num = np.ones(n, dtype=np.int64)
    den = np.ones(n, dtype=np.int64)
    pre = np.ones(n, dtype=np.int64)
    for c in range(r):
        piv_row = c + np.argmax(a[:, c:, c] != 0, axis=1)
        swap = np.nonzero(piv_row != c)[0]
        if swap.size:
            rows = a[swap, c].copy()
            a[swap, c] = a[swap, piv_row[swap]]
            a[swap, piv_row[swap]] = rows
            num[swap] = (p - num[swap]) % p
        piv = a[:, c, c].copy()
        num = num * piv % p
        if c + 1 < r:
            # in place on the view: one temporary per column
            below = a[:, c + 1 :, c:]
            upd = below[:, :, :1] * a[:, None, c, c:]
            upd %= p
            below *= piv[:, None, None]
            below -= upd
            below %= p
            pre = pre * piv % p
            den = den * pre % p
    return num * _pow_vec(den, p - 2, p) % p


def fp2_matrix_rank(re, im, p: int, nr: int) -> int:
    """Rank over F_p^2 of the matrix re + w*im, with w^2 = nr.

    Uses the regular representation: each entry a + w*b becomes the 2x2
    block [[a, nr*b], [b, a]], and the F_p rank of the blown-up matrix is
    exactly twice the F_p^2 rank.
    """
    a = _as_mod_array(re, p)
    b = _as_mod_array(im, p)
    if a.shape != b.shape:
        raise ValueError("real and imaginary parts must share a shape")
    rows, cols = a.shape
    big = np.zeros((2 * rows, 2 * cols), dtype=np.int64)
    big[0::2, 0::2] = a
    big[0::2, 1::2] = b * nr % p
    big[1::2, 0::2] = b
    big[1::2, 1::2] = a
    r = matrix_rank(big, p)
    assert r % 2 == 0
    return r // 2
