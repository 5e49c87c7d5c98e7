"""Row-blocked dense work of the spectral backend (``dynamics._spectral``).

The secular roots of a complex symmetric arrowhead (``_secular_roots``)
and the reads of an eigenvector matrix's inverse (``_apply_inverse``) work
on blocks of SECULAR_BLOCK rows, so that the eigenvector matrix V is the
only dim x dim array the secular path holds: V^-1 = diag(1 / v_k^T v_k) V^T
is read a block of rows at a time, never formed.  Every block keeps each
sum and product in the order it takes over the whole matrices, so the
blocks change no bit.
"""

from __future__ import annotations

import numpy as np

EPS = np.finfo(np.float64).eps

# A complex symmetric arrowhead's roots (``_secular_roots``) are accepted when
# Löwner's couplings reproduce every c_g^2, and the roots the trace, within
# SECULAR_CERTIFICATE (m + 1) eps: each of the product's m + 1 factors and
# each term of the trace is formed in about four rounded complex operations.
SECULAR_CERTIFICATE = 4
# Newton iterations a secular root may take.  From its one-pole start a root
# whose coupling is weak against its pole spacing converges quadratically in
# 3-6; one that needs more sits among strongly coupled poles, where the
# start is poor and the certificate declines anyway, so the cap keeps that
# decline cheap.
SECULAR_ITERATIONS = 12
# Rows per block of the secular solver's Newton runs and certificate
# (``_secular_roots``) and of the reads of V^-1 (``_apply_inverse``), so
# that V is the secular path's only dim x dim array: a block's temporaries
# are a few SECULAR_BLOCK x dim arrays, at n = 501 about a quarter of V
# together.  ``_row_blocks`` rounds it up to a multiple of 4, so a block's
# rows fall in BLAS's 4-row matrix-vector kernels as in the whole matrix.
SECULAR_BLOCK = 64


def _row_blocks(n: int) -> list[tuple[int, int]]:
    """(start, stop) of consecutive blocks of rows covering range(n), each
    SECULAR_BLOCK rows rounded up to a multiple of 4, except that a lone
    last row joins the block before it.  So a block's matrix-vector products
    round as the same rows of the whole matrix's: BLAS's real kernel takes
    rows four at a time, and numpy rounds a one-row product as a dot
    product."""
    bounds = [*range(0, max(n - 1, 1), -(-SECULAR_BLOCK // 4) * 4), n]
    return list(zip(bounds, bounds[1:]))


def _secular_roots(a0: complex, d: np.ndarray, c: np.ndarray):
    """Roots of the arrowhead (a0, d, c) relative to their origins, tau, and
    Löwner's couplings squared, chat^2, or None when the roots fail their
    certificate.

    The roots of f(lam) = lam - a0 - sum_h c_h^2 / (lam - d_h) are found by
    Newton, vectorised over a block of SECULAR_BLOCK roots at a time
    (``_row_blocks``): one per pole g as tau_g = lam_g - d_g and one (T's) as
    tau_0 = lam_0 - a0, so no root loses digits to its origin; each starts
    from its one-pole estimate.  Löwner's formula (Gu & Eisenstat 1995) gives
    the couplings chat of the arrowhead whose spectrum the roots are
    exactly; its product over the roots takes each block's factors in turn,
    the running product folded in as the block's first row, so it multiplies
    row by row in the order of a product over all roots at once.  They are
    accepted only when every Newton run converged and chat^2 matches c^2,
    and the roots the trace, within SECULAR_CERTIFICATE.  A block's gaps
    and their reciprocals are the only arrays larger than dim.
    """
    m = d.size
    c2 = c * c
    abs_c2 = np.abs(c2)
    origin = np.concatenate(([a0], d))
    tau = np.empty(m + 1, dtype=np.complex128)
    blocks = _row_blocks(m + 1)
    longest = max(hi - lo for lo, hi in blocks)
    # row 0 holds the running product, the others a block's gaps, then factors
    table = np.empty((longest + 1, m), dtype=np.complex128)
    work = np.empty((longest, m), dtype=np.complex128)
    product = None
    with np.errstate(all="ignore"):
        for lo, hi in blocks:
            # the block's roots from ``first`` on are the poles' in ``poles``;
            # T's root is row 0 of the first block
            k, first = hi - lo, int(lo == 0)
            poles = slice(lo + first - 1, hi - 1)
            own = (np.arange(first, k), np.arange(poles.start, poles.stop))
            # lam_k - d_h = gaps[k, h] + tau_k, exact where h is root k's own pole
            gaps = np.subtract(origin[lo:hi, None], d, out=table[1 : k + 1])
            recip = np.divide(1.0, gaps, out=work[:k])  # then 1 / (lam_k - d_h)
            recip[own] = 0.0
            pull = recip @ c2
            t = pull.copy()
            t[first:] = c2[poles] / (d[poles] - a0 - pull[first:])
            shift = origin[lo:hi] - a0
            # a root takes the step that finds it converged, then keeps its tau
            done = np.zeros(k, dtype=bool)
            for _ in range(SECULAR_ITERATIONS):
                r = np.add(gaps, t[:, None], out=recip)
                np.reciprocal(r, out=r)
                f = shift + t - r @ c2
                # f is zero to within the rounding of its m + 2 terms
                magnitude = np.abs(shift) + np.abs(t) + np.abs(r) @ abs_c2
                converged = np.abs(f) <= (m + 2) * EPS * magnitude
                r *= r
                t = np.where(done, t, t - f / (1.0 + r @ c2))
                done |= converged
                if done.all():
                    break
            else:
                return None
            tau[lo:hi] = t
            lam_d = np.add(gaps, t[:, None], out=recip)
            if lo == 0:
                lam0_d = -lam_d[0]
            # factors (lam_k - d_h) / (d_k - d_h), 1 at a root's own pole
            np.divide(lam_d, gaps, out=gaps)
            gaps[own] = 1.0
            if product is None:  # the first block holds T's root and one pole's at least
                product = np.multiply.reduce(table[2 : k + 1], axis=0)
            else:
                table[0] = product
                product = np.multiply.reduce(table[: k + 1], axis=0)
        # chat_g^2 = tau_g (d_g - a0 - tau_0) prod_{h != g} (lam_h - d_g) / (d_h - d_g)
        chat2 = tau[1:] * lam0_d * product
        bound = SECULAR_CERTIFICATE * (m + 1) * EPS
        if np.max(np.abs(chat2 / c2 - 1.0)) <= bound and abs(tau.sum()) <= bound * np.abs(tau).sum():
            return tau, chat2
    return None


def _fold_abs(total: np.ndarray, rows: np.ndarray, buffer: np.ndarray) -> None:
    """total += |rows[0]| + |rows[1]| + ..., row by row in that order, as a
    whole matrix's abs().sum(axis=0) adds its rows: ``total`` is folded in
    as the first row of ``buffer``, which holds len(rows) + 1 rows."""
    buffer[0] = total
    np.abs(rows, out=buffer[1 : len(rows) + 1])
    np.add.reduce(buffer[: len(rows) + 1], axis=0, out=total)


def _apply_inverse(vecs: np.ndarray, inv: np.ndarray, y: np.ndarray):
    """coef = V^-1 y and cond_v = ||V||_1 ||V^-1||_1, with no temporary
    larger than a block of rows (``_row_blocks``).

    ``inv`` is LAPACK's V^-1 (``dynamics._dense_eig``), or the s_k = v_k^T v_k
    of a complex symmetric arrowhead's V (``dynamics._secular_eig``), whose
    V^-1 = diag(1 / s) V^T is then read a block at a time and never formed.  Every sum keeps
    the order it takes over the whole matrices, vecs.T / s for the closed
    form: a block of V^-1's rows, V's columns over s laid out column-major,
    gives those entries of coef; the column sums of |V| and of LAPACK's
    |V^-1| add their rows one block after the other (``_fold_abs``), and
    those of the closed form's |V^-1|, V's rows over s, each sum whole.
    """
    dim = vecs.shape[0]
    closed = inv.ndim == 1
    coef = np.empty(dim, dtype=np.complex128) if closed else inv @ y
    v_sums, inv_sums = np.zeros(dim), np.zeros(dim)
    blocks = _row_blocks(dim)
    longest = max(hi - lo for lo, hi in blocks)
    buffer = np.empty((longest + 1, dim))
    quotient = np.empty(longest * dim, dtype=np.complex128) if closed else None
    for lo, hi in blocks:
        k = hi - lo
        _fold_abs(v_sums, vecs[lo:hi], buffer)
        if not closed:
            _fold_abs(inv_sums, inv[lo:hi], buffer)
            continue
        rows = np.divide(vecs[lo:hi], inv, out=quotient[: k * dim].reshape(k, dim))
        np.add.reduce(np.abs(rows, out=buffer[:k]), axis=1, out=inv_sums[lo:hi])
        columns = np.divide(vecs[:, lo:hi], inv[lo:hi], out=quotient[: k * dim].reshape(dim, k))
        coef[lo:hi] = columns.T @ y
    return coef, float(v_sums.max() * inv_sums.max())
