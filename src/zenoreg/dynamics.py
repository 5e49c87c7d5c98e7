"""Time evolution of the measured register.

All rates and energies are in units of U and times in units of 1/U.  Four
levels of description are implemented, from most to least microscopic:

1. Conditioned wavefunction evolution under a non-Hermitian Hamiltonian
   (full model with molecular states, or the eliminated T+S model), used
   for null-measurement trajectories.
2. Jump Monte Carlo ensembles: the standard waiting-time unraveling with a
   single jump class.  A molecular decay dumps the atom pair out of the
   trap, so a jump terminates the trajectory as a register failure; every
   survivor therefore follows the same conditioned state, and the ensemble
   is that one trajectory's norm curve inverted against N thresholds.
3. The reduced master equation for (rho_TT, rho_SS, rho_ST) with per-state
   coherence damping kappa_j and uniform population damping 2 kappa.
4. A pseudo two-state Bloch system (u, v, w, x), a real 4x4 generator,
   and its closed-form solution rho_TT(t) = rho_TT(0) exp(-Gamma_Z t) with

       Gamma_Z = 8 (n-1) J^2 kappa / ((U+|V_c|)^2 + kappa^2).

Bookkeeping for the two-state reduction: a register of n sites has n-1
bonds, i.e. 2(n-1) pair states.  The collective coupling between |T> and
the symmetric pair mode is g = sqrt(2 * 2(n-1)) J = 2 sqrt(n-1) J, and the
closed-form exponent uses the bond-pair count n-1; with these counts the
integrated Bloch system and the closed form agree exactly.

Every level is a linear system dy/dt = G y with a constant generator G, and
every one returns the same grid, linspace(0, t_end, max_samples), laid out
by ``_plan_grid``, the one place a step is checked.  One backend chooser,
``_propagate``, is the only entry of G = -i H (the wavefunction, the jump
ensemble's conditioned state and the exact oracle) and of the real
generators of the master equation (``_rme_generator``) and the Bloch
system.  It reads the RK4 step bound off G, 0.05 / (max |diag| + max
off-diagonal row sum) (``_max_step``), one rule for every level.  A given
step pins the fixed-step RK4 kernel ``_rk4``, the reference; without one, a
G of dimension up to DENSE_EIG_CUTOFF is diagonalised once and the samples are
rebuilt exactly (``_spectral``), unless its eigenvectors are ill
conditioned, and a larger G, or a refused one, runs RK4 at that bound (t_end
for a zero G), the one step rule.  The Bloch system is never pinned.
A real Hermitian H is diagonalised in real arithmetic.  Every register
generator is one block arrowhead, a hub coupled to tails that do not couple
to each other, laid out by ``register._block_arrowhead`` (the master
equation's ``_rme_generator`` too, with 3 x 3 tails), which keeps the parts
on the operator.  A complex symmetric arrowhead H with 1 x 1 tails, the
eliminated model's bright operator, is diagonalised in O(dim^2) from its
secular equation (``_secular_eig``), read off those parts: its roots are
accepted only when Löwner's couplings certify them to rounding, and any
other non-Hermitian G, or uncertified roots, take LAPACK's dense eig.
The secular path's one dim x dim array is V: its roots are found a block
at a time, and V^-1 = diag(1 / v_k^T v_k) V^T is read by blocks of rows
of that closed form, never formed (``rowblocks``); the blocks keep every
sum in the order it has over the whole matrices, so they change no bit.
A spectral run whose phases lam t would be only rounding is refused.
The rebuild y(t) = V (a * exp(lam t)) groups the lam into clusters whose
members lie within 1 / t_end of their mean mu (``_compress``).  A cluster
whose Taylor series in (lam - mu) t reaches EPS (rho^k e^rho / k! <= EPS
at radius rho, at most 19 terms) in fewer terms than it has members is
rebuilt from those terms, exp(mu t) sum_n (t / t_end)^n u_n; every other
mode keeps the dense product's arithmetic, so a run in which no cluster
is compressed rounds bit for bit as before.  The default trajectory's 500
pair poles span 0.012 U, one cluster of 11 terms, so its 5000 samples are
rebuilt from 12 columns instead of 501.
Every level records its observables a block of grid points at a time
(``Propagation.grid_blocks``); a spectral ``evolve`` reads just c_T = B[0] p
and ||psi|| = ||R p|| off a thin QR B = Q R of the rebuild's columns (error
cond(B) eps, not the Gram form's cond(B)^2 eps) and forms psi only at t_end.
The jump ensemble reads one rule off either run; only a jump time is read
per backend, an RK4 step time or, on the exact curve, a root bisected on
the closed-form norm.
The package loads numpy's bundled OpenBLAS on one thread, unless numpy was
imported first or a BLAS thread variable is set, and the count is raised
only for dense work above dimension SERIAL_BLAS_DIM (``_serial_blas``).
The spectral backend's dense work (the diagonalisation, V^-1 y, the
rebuild's Taylor columns and block products) and the oracle's dense eigh
run on one thread up to that size: there a second OpenBLAS thread saves
little wall time, doubles the CPU time and makes concurrent runs fight over
the cores, and an idle one busy-waits.  Larger operators get every
processor, but for the secular solve, which is matrix-vector work and runs
on one thread at every size.
The conditioned wavefunction and the jump ensemble start from the
perturbative ground state and so propagate only the register's bright
sector (``register.BrightSector``), about half the layout; the CLI's free
evolution, from |T> or a saturated state, runs on it too, without the
molecules, a quarter of the full layout.
The full model is stiff (gamma_M/U is a few thousand), and the bound
reads that off its molecular diagonal, so h gamma_M / 2 <= 0.05: at n = 501
to t = 20/U its RK4 run, where eig is refused, takes 684,863 steps.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import math
import operator
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from . import _bundled_openblas, _numpy_on_one_thread
from .params import DerivedParams
from .register import (
    BrightSector,
    RestrictedBasis,
    SparseOperator,
    StateVector,
    _block_arrowhead,
    build_basis,
    build_effective_hamiltonian,
    build_eliminated_hamiltonian,
    coherence_damping_rate,
    perturbative_ground_state,
)
from .rowblocks import EPS, _apply_inverse, _secular_roots

MAX_OUTPUT_SAMPLES = 5000
NORM_MONOTONE_TOL = 1e-9

# Largest operator diagonalised densely, here and by the oracle's ground-state
# solver: a 2048^2 complex matrix is 64 MiB.  LAPACK's eig holds about four
# of them (H, V, V^-1 and its workspace); the secular solver holds V alone,
# and blocks of ``rowblocks.SECULAR_BLOCK`` rows beside it.
DENSE_EIG_CUTOFF = 2048
# Samples rebuilt per matrix product.  The rebuild holds two blocks of
# SPECTRAL_BLOCK x dim complex, the phases and the states.
SPECTRAL_BLOCK = 128
# Rebuilding psi(t) = V (a * exp(lam t)) rounds with a relative error of
# about cond(V) eps.  The spectral samples are used only while that is below
# NORM_MONOTONE_TOL, the norm rise ``null_trajectory`` treats as a fault.
COND_V_LIMIT = NORM_MONOTONE_TOL / EPS
# Up to SERIAL_BLAS_DIM the dense work (``_spectral``'s LAPACK calls, the
# rebuild's block products, the oracle's dense eigh) runs on one thread, and
# above it on as many as OpenBLAS starts with, one per processor unless a
# thread variable was set (``_serial_blas``).  Median seconds of wall / CPU
# time of one eigh of the free Hamiltonian at n = dim, diagonalised as a
# complex matrix, on a 2-vCPU x86-64 box with numpy's OpenBLAS:
#
#    dim     2 threads      1 thread
#    501   0.20 / 0.31   0.22 / 0.32
#    641   0.28 / 0.54   0.45 / 0.57
#    769   0.46 / 0.84   0.73 / 0.84
#   1001   0.96 / 1.83   1.60 / 1.70
#
# At dim 501 the second thread saves 0.02 s of wall time; from 641 it saves
# 0.17 s or more.
SERIAL_BLAS_DIM = 512
# Longest RK4 run accepted: about 2 h at the 70 us a step measured at dim 1001
# on the box above.  The longest RK4 run the library itself asks for, the
# full model at n = 501 to t = 20/U when eig is refused, is 684,863 steps at
# its bound.
MAX_RK4_STEPS = 10**8


class IntegrationError(RuntimeError):
    """Raised when a step size is refused or an integration check fails."""


def _plan_grid(t_end: float, dt: float, max_step: float, max_samples: int):
    """Step count, sample stride, step and uniform output grid.

    Refuses non-finite or non-positive times, a subnormal t_end (1 / t_end
    may overflow), a step above ``max_step`` (named in full, so the bound
    named is accepted) and a ratio t_end / dt too large to count.
    The grid is linspace(0, t_end, max_samples), with ``max_samples``
    clamped to 2..MAX_OUTPUT_SAMPLES, and depends on nothing else.  The
    step count is rounded up to a whole number of steps a gap, at least
    one, and dt shrinks to match, so every sample lands on a step.
    """
    if not (math.isfinite(t_end) and math.isfinite(dt)) or t_end <= 0 or dt <= 0:
        raise IntegrationError(
            f"t_end and dt must be positive and finite (t_end = {t_end:g}, dt = {dt:g})"
        )
    if t_end < np.finfo(float).tiny:
        raise IntegrationError(f"t_end = {t_end:g} is too small to resolve; require t_end >= {np.finfo(float).tiny}")
    if dt > max_step * (1.0 + 1e-12):
        raise IntegrationError(f"dt = {dt:.6g} too large; require dt <= {max_step}")
    steps = t_end / dt
    if not math.isfinite(steps):
        raise IntegrationError(f"t_end / dt overflows (t_end = {t_end:g}, dt = {dt:g})")
    n_gaps = max(2, min(max_samples, MAX_OUTPUT_SAMPLES)) - 1
    stride = max(1, math.ceil(math.ceil(steps) / n_gaps))
    n_steps = stride * n_gaps
    return n_steps, stride, t_end / n_steps, np.linspace(0.0, t_end, n_gaps + 1)


def _rk4(gen, y, h: float, n_steps: int):
    """Fixed-step RK4 for dy/dt = gen y, the one place a step is taken.

    ``gen`` is scaled by ``h`` once; ``y`` is advanced in place and yielded
    at the start and after every step, n_steps + 1 times in all.
    """
    a = gen * h
    tmp = np.empty_like(y)
    yield y
    for _ in range(n_steps):
        k1 = a.dot(y)
        np.multiply(k1, 0.5, out=tmp)
        tmp += y
        k2 = a.dot(tmp)
        np.multiply(k2, 0.5, out=tmp)
        tmp += y
        k3 = a.dot(tmp)
        np.add(y, k3, out=tmp)
        k4 = a.dot(tmp)
        k2 += k3
        k2 *= 2.0
        k2 += k1
        k2 += k4
        k2 /= 6.0
        y += k2
        yield y


def _max_step(op: SparseOperator) -> float:
    """Largest accepted RK4 step, 0.05 / frequency_bound (inf for a zero operator)."""
    freq = op.frequency_bound()
    return 0.05 / freq if freq > 0 else math.inf


@functools.cache
def _openblas_threads(package: str = "numpy"):
    """Thread-count getter and setter and processor-count getter of the
    OpenBLAS bundled with ``package`` (``zenoreg._bundled_openblas``), or
    None where there is none."""
    for path in _bundled_openblas(package):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        # scipy-openblas (numpy >= 2) or OpenBLAS, with 64-bit integers or not
        for prefix, suffix in itertools.product(("scipy_", ""), ("64_", "")):
            names = ("get_num_threads", "set_num_threads", "get_num_procs")
            funcs = [getattr(lib, f"{prefix}openblas_{name}{suffix}", None) for name in names]
            if None not in funcs:
                get, set_threads, procs = funcs
                get.argtypes, get.restype = [], ctypes.c_int
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                procs.argtypes, procs.restype = [], ctypes.c_int
                return get, set_threads, procs
    return None


@contextlib.contextmanager
def _serial_blas(dim: int = 0):
    """Run the body on one BLAS thread when ``dim`` <= SERIAL_BLAS_DIM (or
    is not given), and on the count OpenBLAS would have started with above
    it; restore the previous count when the body ends, by return or
    exception.

    The count above the cutoff is the processor count where the package
    loaded numpy on one thread (``zenoreg._import_on_one_thread``),
    else the count as found.  Only numpy's bundled OpenBLAS is switched;
    where it is not found (MKL, Accelerate, a system BLAS) this does
    nothing.  The count is global to the process, so this is not safe under
    concurrent calls from Python threads.  A generator must not yield inside
    the body, or the count stays switched for as long as it is suspended.
    """
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_threads, procs = threads
    previous = get()
    if dim <= SERIAL_BLAS_DIM:
        set_threads(1)
    elif _numpy_on_one_thread:
        set_threads(procs())
    try:
        yield
    finally:
        set_threads(previous)


def _taylor_terms(rho: float) -> int:
    """Fewest terms k with rho^k e^rho / k! <= EPS: the remainder of k terms
    of exp(x s) for |x| <= rho and |s| <= 1, at most 19 for rho <= 1."""
    k, bound = 1, rho * math.exp(rho)
    while bound > EPS:
        k += 1
        bound *= rho / k
    return k


def _clusters(z: np.ndarray) -> list[np.ndarray]:
    """Indices of ``z`` split into clusters whose members lie within 1 of
    their cluster's mean.  A sweep along the axis of the larger extent opens
    a new cluster whenever the current one's bounding box would get a
    diagonal above 1; the mean lies in that box."""
    key, other = (z.real, z.imag) if np.ptp(z.real) >= np.ptp(z.imag) else (z.imag, z.real)
    order = np.argsort(key, kind="stable")
    a, b = key[order].tolist(), other[order].tolist()
    cuts, lo, hi = [0], b[0], b[0]
    for i in range(1, len(a)):
        lo, hi = min(lo, b[i]), max(hi, b[i])
        if not math.hypot(a[i] - a[cuts[-1]], hi - lo) <= 1.0:
            cuts.append(i)
            lo = hi = b[i]
    return np.split(order, cuts[1:])


def _compress(vecs: np.ndarray, coef: np.ndarray, lam: np.ndarray, t_end: float):
    """The rebuild's operands (vecs, coef, lam, taylor) for times |t| <= t_end,
    with each tight eigenvalue cluster replaced by its Taylor series.

    The lam t_end are grouped by ``_clusters``.  For a cluster with mean mu
    and members x = (lam - mu) t_end, |x| <= rho <= 1,
        sum_j V_j coef_j exp(lam_j t) = exp(mu t) sum_n (t / t_end)^n u_n,
        u_n = V (coef x^n / n!),
    truncated after ``_taylor_terms(rho)`` terms, each at most 1, so the
    remainder is at most EPS sum_j |coef_j| |V_j|.  A cluster is compressed
    only when it has more members than terms.  The other modes come back as
    ``vecs``' columns, coef and lam in their order; the u_n follow them as
    columns built as ``vecs @ W`` (W zero outside the cluster's rows), and
    ``taylor`` = (mu, n, t_end) gives each its phase exp(mu t) (t / t_end)^n.
    When nothing is compressed the operands come back as given, taylor None.
    """
    z = lam * t_end
    compressed = np.zeros(lam.size, dtype=bool)
    mus, powers, weights = [], [], []
    for members in _clusters(z):
        mean = z[members].mean()
        x = z[members] - mean
        rho = float(np.max(np.abs(x)))
        # rho exceeds 1 only where the mean overflowed; that cluster stays plain
        n_terms = _taylor_terms(rho) if members.size > 1 and rho <= 1.0 else members.size
        if n_terms >= members.size:
            continue
        compressed[members] = True
        term = coef[members]
        for n in range(n_terms):
            weights.append(np.zeros(lam.size, dtype=np.complex128))
            weights[-1][members] = term
            term = term * x / (n + 1)
        mus += [mean / t_end] * n_terms
        powers += range(n_terms)
    if not weights:
        return vecs, coef, lam, None
    plain = np.flatnonzero(~compressed)
    basis = np.empty((vecs.shape[0], plain.size + len(weights)), dtype=np.complex128)
    np.take(vecs, plain, axis=1, out=basis[:, : plain.size])
    basis[:, plain.size :] = vecs @ np.transpose(weights)
    return basis, coef[plain], lam[plain], (np.array(mus), np.array(powers), t_end)


def _blocks(
    vecs: np.ndarray, coef: np.ndarray, lam: np.ndarray, t: np.ndarray, uniform: bool = False, taylor=None, readout=None
):
    """Yield the rows vecs (phases_k) for SPECTRAL_BLOCK consecutive t_k at
    a time, as views of two buffers reused per block, or readout (phases_k)
    for a ``readout`` matrix with one column per column of ``vecs``.

    The first lam.size phases of t_k are coef * exp(lam t_k); the columns of
    ``vecs`` past them take the phases exp(mu t_k) (t_k / t_end)^n of
    ``taylor`` = (mu, n, t_end) (``_compress``), computed directly in every
    block.  On a ``uniform`` grid the phases coef * exp(lam t_k) of the
    first block are advanced in place to each next block by
    exp(lam (t[SPECTRAL_BLOCK] - t[0])), one product instead of one exp per
    entry.
    """
    size = min(SPECTRAL_BLOCK, t.size)
    phases = np.empty((size, vecs.shape[1]), dtype=np.complex128)
    operand = vecs if readout is None else readout
    rows = np.empty((size, operand.shape[0]), dtype=np.complex128)
    advance = np.exp(lam * (t[size] - t[0])) if uniform and t.size > size else None
    for start in range(0, t.size, size):
        k = min(size, t.size - start)
        plain = phases[:k, : lam.size]
        if start and advance is not None:
            plain *= advance
        else:
            # A broadcast ufunc allocates buffers as large as its output, so
            # the outer product t_k lam_j is a matmul of t (cast to complex,
            # as a mixed product would) and coef scales one row at a time;
            # each of them rounds as the broadcast product does.
            np.matmul(t[start : start + k, None].astype(np.complex128), lam[None, :], out=plain)
            np.exp(plain, out=plain)
            for row in plain:
                row *= coef
        if taylor is not None:
            mu, power, t_end = taylor
            times = t[start : start + k, None]
            np.multiply(np.exp(times * mu), (times / t_end) ** power, out=phases[:k, lam.size :])
        with _serial_blas(vecs.shape[0]):
            np.matmul(phases[:k], operand.T, out=rows[:k])
        yield rows[:k]


@dataclass(kw_only=True)
class _Diagnosed:
    """How a run was propagated, recorded on the run and on its result:
    ``backend`` is "rk4", "eigh" (G = -i H with H Hermitian) or "eig" (any
    other G, from its secular equation or by LAPACK); ``cond_v`` is the
    1-norm condition number of the eigenvector matrix when "eig" ran, None
    otherwise."""

    backend: str = "rk4"
    cond_v: float | None = None

    def diagnostics(self) -> dict:
        """Backend and cond(V), for a sidecar or a result's constructor."""
        return {"backend": self.backend, "cond_v": self.cond_v}


def _gather(points: Iterator[np.ndarray], stride: int):
    """Every ``stride``-th point copied into one SPECTRAL_BLOCK-row buffer, yielded as it fills."""
    rows = None
    for k, y in enumerate(itertools.islice(points, 0, None, stride)):
        rows = np.empty((SPECTRAL_BLOCK, y.size), dtype=y.dtype) if rows is None else rows
        rows[k % SPECTRAL_BLOCK] = y
        if k % SPECTRAL_BLOCK == SPECTRAL_BLOCK - 1:
            yield rows
    if (k + 1) % SPECTRAL_BLOCK:
        yield rows[: (k + 1) % SPECTRAL_BLOCK]


@dataclass
class Propagation(_Diagnosed):
    """One run of dy/dt = G y and the backend that produced it.

    ``points`` yields the state at times k h, k = 0, 1, ...: RK4's copy of
    the start, advanced in place, after every step, or a row of a spectral
    run's grid blocks (the real part for a real run); each is a buffer the
    next point may overwrite, so a caller that keeps one copies it.  Every
    ``stride``-th point is a grid point.  ``grid_blocks()`` yields them a
    block at a time as (grid slice, rows), views the next block overwrites:
    a spectral run's ``_blocks``, or RK4's points gathered by ``_gather``;
    callers record observables per block.  A spectral run also carries its
    rebuild's ``columns`` B, for which ``grid_blocks(readout)`` yields
    readout p_k in place of B p_k (p_k the phases; ``evolve`` reads c_T and
    the norm from a thin QR of B), and ``blocks(times)``, the exact states
    at any |t| <= t_end; both are None for RK4.  All rebuild from
    ``_compress``'s columns: each tight cluster of eigenvalues is one
    Taylor series within EPS sum |a| of the dense product, and with no
    cluster compressed they are that product.
    """

    points: Iterator[np.ndarray]
    h: float
    stride: int = 1
    blocks: Callable[[np.ndarray], Iterator[np.ndarray]] | None = None
    columns: np.ndarray | None = None
    grid: Callable[..., Iterator[np.ndarray]] | None = None

    def grid_blocks(self, readout: np.ndarray | None = None):
        blocks = _gather(self.points, self.stride) if self.grid is None else self.grid(readout)
        return ((slice(i, i + len(rows)), rows) for i, rows in zip(itertools.count(0, SPECTRAL_BLOCK), blocks))


def _dense_eigh(op: SparseOperator):
    """Eigenvalues and unitary eigenvectors of the Hermitian ``op`` by one
    dense ``eigh`` under ``_serial_blas``.  A matrix with no imaginary part
    is diagonalised in real arithmetic; the eigenvectors come back complex
    either way."""
    dense = op.to_dense()
    if not dense.imag.any():
        dense = dense.real
    with _serial_blas(op.dim):
        w, vecs = np.linalg.eigh(dense)
    return w, vecs.astype(np.complex128, copy=False)


def _secular_eig(op: SparseOperator):
    """Eigenvalues w, unit eigenvectors V and s_k = v_k^T v_k of a complex
    symmetric arrowhead from its secular equation (``_secular_roots``), in
    O(dim^2) time and memory; None when ``op`` is no such arrowhead or its
    roots fail their certificate.

    a0, the poles d and the couplings c are read off the parts that
    ``register._block_arrowhead`` keeps on ``op``: its tails must be 1 x 1,
    fill slots 1..dim-1 and couple alike in row and column 0 (u == v), and
    a0, d and c must be finite, c nonzero and d distinct.  An operator
    without parts (built from triplets, or through ``dataclasses.replace``)
    is declined.

    The vectors (1, chat / (lam_k - d)) are exact for the arrowhead with
    Löwner's couplings chat, which is complex symmetric, so
    V^-1 = diag(1 / s) V^T: V is the only dim x dim array formed, and
    ``_apply_inverse`` reads V^-1 off it.  The roots' matrix-vector products
    run on one BLAS thread whatever the size (``_serial_blas``).
    """
    if op.arrowhead is None or op.dim < 2:
        return None
    a0, slots, u, v, blocks = op.arrowhead
    c, d = u[:, 0].astype(np.complex128), blocks[:, 0, 0].astype(np.complex128)
    # 1 x 1 tails at slots 1..dim-1; equal poles sort next to each other
    # (np.unique would import numpy.ma)
    layout = np.array_equal(slots, np.arange(1, op.dim)[:, None]) and np.array_equal(u, v)
    poles = np.sort(d)
    finite = np.isfinite(a0) and np.all(np.isfinite(d)) and np.all(np.isfinite(c))
    if not (layout and finite and np.all(c != 0) and np.all(poles[1:] != poles[:-1])):
        return None
    with _serial_blas():
        roots = _secular_roots(a0, d, c)
    if roots is None:
        return None
    tau, chat2 = roots
    origin = np.concatenate(([a0], d))
    vecs = np.empty((op.dim, op.dim), dtype=np.complex128)
    vecs[0] = 1.0
    with np.errstate(all="ignore"):
        lam_d = np.subtract(origin, d[:, None], out=vecs[1:])
        lam_d += tau
        np.divide((c * np.sqrt(chat2 / (c * c)))[:, None], lam_d, out=vecs[1:])
        vecs /= np.sqrt(np.vecdot(vecs, vecs, axis=0).real)
        s = np.einsum("ij,ij->j", vecs, vecs)
    return origin + tau, vecs, s


def _dense_eig(op: SparseOperator):
    """Eigenvalues w, eigenvectors V and V^-1 by LAPACK; None when V is
    exactly singular (a defective M)."""
    w, vecs = np.linalg.eig(op.to_dense())
    try:
        return w, vecs, np.linalg.inv(vecs)
    except np.linalg.LinAlgError:
        return None


def _refuse_lost_phases(lam: np.ndarray, t_end: float) -> None:
    """Refuse a spectral run whose rebuilt phases have no correct digit.

    The phase lam t of a mode rounds by about eps |lam| t, an error carried
    with the mode's weight exp(Re lam t) <= 1; the worst over t <= t_end is
    at t = min(t_end, 1 / decay).  It must stay below NORM_MONOTONE_TOL,
    the budget COND_V_LIMIT gives the rebuild."""
    decay = np.maximum(-lam.real, 0.0)
    with np.errstate(over="ignore"):
        worst = t_end / np.maximum(1.0, decay * t_end)
        lost = float(np.max(EPS * np.abs(lam) * worst * np.exp(-decay * worst), initial=0.0))
    if not lost <= NORM_MONOTONE_TOL:
        raise IntegrationError(
            f"t_end = {t_end:g} is too long for exact propagation: rounding of the "
            f"phases lam t reaches {lost:.3g} (at most {NORM_MONOTONE_TOL:g})"
        )


def _spectral(op: SparseOperator, scale: complex, y: np.ndarray, t: np.ndarray) -> Propagation | None:
    """Exact samples of dy/dt = scale M y from one diagonalisation of
    M = ``op``.

    M = V diag(w) V^-1 gives y(t) = V (a * exp(scale w t)) with a = V^-1 y(0);
    ``eigh`` (``_dense_eigh``) runs, with V unitary, only when ``op`` is
    marked Hermitian (``SparseOperator.from_coo`` verifies the mark); any
    other operator takes the "eig" backend, however small its non-normal
    part, since over a long run that part still matters.  There a complex
    symmetric arrowhead with 1 x 1 tails (the eliminated model's bright
    operator, whose arrowhead parts it reads) is solved from its secular
    equation in O(dim^2) (``_secular_eig``), with V its only dim x dim
    array; any other M, or an arrowhead whose roots fail their certificate,
    takes LAPACK's dense ``eig`` and ``inv`` (``_dense_eig``).  For either,
    a = V^-1 y(0) and cond(V) are read off V^-1 a block of rows at a time
    (``_apply_inverse``), without a dim x dim temporary.
    ``y`` is only read, and its dtype is the run's arithmetic: a real ``y``
    yields the real part of each row (``_propagate`` casts it).  Returns
    None when cond(V) exceeds COND_V_LIMIT, so the caller falls back to RK4,
    and refuses a ``t`` whose phases would be only rounding
    (``_refuse_lost_phases``).  The samples are rebuilt by ``_blocks`` from
    ``_compress``'s columns: eigenvalue clusters within 1 / t_end of their
    mean are replaced by their Taylor series to EPS when it is shorter than
    the cluster, and when none is the rebuild is the dense product, bit for
    bit.  The dense work, that compression included, runs under
    ``_serial_blas``.
    """
    # numpy's LAPACK, so one OpenBLAS serves these and the rebuild's products
    # (scipy links a second copy with its own thread pool)
    with _serial_blas(op.dim):
        if op.hermitian:
            w, vecs = _dense_eigh(op)
            coef, cond_v = vecs.conj().T @ y, None
        else:
            decomposition = _secular_eig(op) or _dense_eig(op)
            if decomposition is None:
                return None
            w, vecs, inv = decomposition
            coef, cond_v = _apply_inverse(vecs, inv, y)
            if not cond_v <= COND_V_LIMIT:
                return None
        lam = scale * w
        _refuse_lost_phases(lam, t[-1])
        vecs, coef, lam, taylor = _compress(vecs, coef, lam, t[-1])
    rebuild = functools.partial(_blocks, vecs, coef, lam, taylor=taylor)
    real = not np.iscomplexobj(y)

    def grid(readout=None):
        return (rows.real if real else rows for rows in rebuild(t, True, readout=readout))

    return Propagation(
        (row for rows in grid() for row in rows),
        t[1],
        backend="eigh" if cond_v is None else "eig",
        cond_v=cond_v,
        blocks=rebuild,
        columns=vecs,
        grid=grid,
    )


def _propagate(
    op: SparseOperator,
    scale: complex,
    y: np.ndarray,
    t_end: float,
    dt: float | None,
    max_samples: int,
):
    """Output grid and sample propagation of dy/dt = scale M y from ``y``,
    the one backend chooser and the only entry of every level.

    M = ``op``; scale -1j makes it i dpsi/dt = H psi, and a real M with
    scale 1 a real generator (the master equation, the Bloch system).
    ``y`` must be ``op.dim`` finite numbers (else IntegrationError) and is
    never written; the run's arithmetic is the common type of M, scale and y.
    A given ``dt`` selects RK4, the reference.  Without it an operator of
    dimension up to DENSE_EIG_CUTOFF runs exact (``_spectral``) unless
    cond(V) refuses; a larger one, or a refused one, runs RK4 at M's bound
    ``_max_step(op)`` (t_end for a zero M).  Either way ``_plan_grid``
    checks the step against that bound, so only a given ``dt`` can be
    refused there, and the samples land on the same grid.  RK4 advances a
    copy of ``y`` in place, and a run of more than MAX_RK4_STEPS steps is
    refused before it starts.
    """
    y = np.asarray(y)
    if y.dtype.kind not in "biufc":
        raise IntegrationError(f"the start state must be {op.dim} finite numbers (dtype {y.dtype})")
    bad = y.size - np.count_nonzero(np.isfinite(y))
    if y.shape != (op.dim,) or bad:
        raise IntegrationError(f"the start state must be {op.dim} finite numbers (shape {y.shape}, {bad} not finite)")
    y = y.astype(np.result_type(op.vals, scale, y))
    max_step = _max_step(op)
    step = dt
    if step is None:
        step = max_step if math.isfinite(max_step) else t_end
    n_steps, stride, h, t = _plan_grid(t_end, step, max_step, max_samples)
    if dt is None and op.dim <= DENSE_EIG_CUTOFF:
        spectral = _spectral(op, scale, y, t)
        if spectral is not None:
            return t, spectral
    if n_steps > MAX_RK4_STEPS:
        raise IntegrationError(
            f"t_end = {t_end:g} at dt = {step:g} takes {n_steps:.3g} RK4 steps; "
            f"at most {MAX_RK4_STEPS:.0e} are run"
        )
    return t, Propagation(_rk4(op.matrix * scale, y, h, n_steps), h, stride)


def _conditioned_population(c_t: np.ndarray, norm_sq: np.ndarray) -> np.ndarray:
    """|c_T|^2 / ||psi||^2 per sample, 0 where the state has vanished."""
    return np.divide(np.abs(c_t) ** 2, norm_sq, out=np.zeros_like(norm_sq), where=norm_sq > 0)


@dataclass
class TrajectorySeries(_Diagnosed):
    """Sampled fidelity and squared norm along one evolution.

    ``energy`` carries the sampled expectation <psi|H|psi>/<psi|psi> where
    the producer tracks it (Hermitian oracle runs); None otherwise.
    """

    t: np.ndarray
    fidelity: np.ndarray
    norm_sq: np.ndarray
    t_sat: float | None = None
    final_state: StateVector | None = None
    energy: np.ndarray | None = None


def evolve(
    op: SparseOperator,
    psi0: StateVector | np.ndarray,
    t_end: float,
    dt: float | None = None,
    max_samples: int = MAX_OUTPUT_SAMPLES,
) -> TrajectorySeries:
    """Integrate i dpsi/dt = H psi from ``psi0``.

    ``psi0`` may be a StateVector or a bare amplitude array of any numeric
    dtype, which is checked and never written (``_propagate``).
    ``final_state`` is the state at t_end: a StateVector over ``psi0``'s
    basis, or, for a bare array, a copy of its amplitudes.  The reported
    fidelity is the conditioned target population |psi_T|^2/||psi||^2; T is
    index 0 of both the full and the eliminated layout.  A given ``dt``
    pins fixed-step RK4, the reference; the step must satisfy
    dt <= 0.05 / (max |diag| + max off-diagonal row sum), and too-large
    steps are refused with the required bound in the message.  Without
    ``dt`` the run is exact, by one diagonalisation (``_spectral``), when
    ``op`` fits DENSE_EIG_CUTOFF, and RK4 at that bound otherwise or when
    the eigenvectors are ill conditioned;
    ``backend`` on the result says which ran.  The output grid is
    linspace(0, t_end, max_samples), max_samples clamped to 2..5000.
    """
    amps0 = psi0.amplitudes if isinstance(psi0, StateVector) else psi0
    t, run = _propagate(op, -1j, amps0, t_end, dt, max_samples)
    norm, c_t = np.empty(t.size), np.empty(t.size, dtype=np.complex128)
    # a spectral run's columns B = Q R give c_T = B[0] p and ||psi|| = ||R p||
    readout, skip = None, 0
    with _serial_blas(op.dim):
        if run.columns is not None:
            q, r = np.linalg.qr(run.columns)
            readout, skip = np.vstack([run.columns[:1], r]), 1
        for at, rows in run.grid_blocks(readout):
            norm[at] = np.vecdot(rows[:, skip:], rows[:, skip:]).real
            c_t[at] = rows[:, 0]
        y = rows[-1] if readout is None else q @ rows[-1, 1:]
    final = StateVector(psi0.basis, y.copy()) if isinstance(psi0, StateVector) else y.copy()
    return TrajectorySeries(
        t=t,
        fidelity=_conditioned_population(c_t, norm),
        norm_sq=norm,
        final_state=final,
        **run.diagnostics(),
    )


def _resolve_model(model: str | None, n: int) -> str:
    if model in ("full", "eliminated"):
        return model
    if model in (None, "auto"):
        return "eliminated" if n > 50 else "full"
    raise ValueError(f"unknown model {model!r}")


def _conditioned_problem(p: DerivedParams, n: int, model: str | None):
    """Model name, generator, initial amplitudes and ``BrightSector`` of the
    conditioned dynamics.

    The register starts in the perturbative ground state, whose pair
    amplitudes depend on the pair energy alone, so it and every state the
    conditioned dynamics reaches from it lie in the bright sector; the
    generator is the register operator's block there.  The full model keeps
    the molecular states, the eliminated one drops them.
    """
    model = _resolve_model(model, n)
    basis = build_basis(n)
    sector = BrightSector(basis, p.delta_over_u, molecular=model == "full")
    psi0 = sector.project(perturbative_ground_state(basis, p))
    build = build_effective_hamiltonian if model == "full" else build_eliminated_hamiltonian
    return model, sector.restrict(build(basis, p)), psi0, sector


def null_trajectory(
    p: DerivedParams,
    n: int,
    t_end: float,
    model: str | None = None,
    dt: float | None = None,
    max_samples: int = MAX_OUTPUT_SAMPLES,
) -> TrajectorySeries:
    """Conditioned no-decay trajectory from the perturbative ground state.

    Under continuous pair measurement a null result drives the register
    into |T>; the series carries ``t_sat``, the first time the conditioned
    fidelity reaches 99.9% of its final value.  The run propagates the
    bright sector (see ``_conditioned_problem``); ``final_state`` is in the
    full layout for the full model and in the T+S layout for the eliminated
    one.  A given ``dt`` pins RK4; otherwise ``evolve`` chooses the backend.
    """
    _, op, psi0, sector = _conditioned_problem(p, n, model)
    series = evolve(op, psi0, t_end, dt=dt, max_samples=max_samples)
    rise = np.nonzero(np.diff(series.norm_sq) > NORM_MONOTONE_TOL)[0]
    if rise.size:
        i = rise[0] + 1
        raise IntegrationError(
            f"conditioned norm increased at t = {series.t[i]:.6g} "
            f"({series.norm_sq[i - 1]:.12g} -> {series.norm_sq[i]:.12g})"
        )
    # a vanished state would read F = 0, and t_sat 0
    gone = np.flatnonzero(series.norm_sq <= 0.0)
    if gone.size:
        raise IntegrationError(
            f"conditioned state vanished (||psi||^2 underflowed to 0) at t = {series.t[gone[0]]:.6g}, "
            f"before t_end = {t_end:g}"
        )
    hits = np.nonzero(series.fidelity >= 0.999 * series.fidelity[-1])[0]
    series.t_sat = float(series.t[hits[0]]) if hits.size else None
    series.final_state = sector.embed(series.final_state)
    return series


# ---------------------------------------------------------------------------
# jump Monte Carlo
# ---------------------------------------------------------------------------


@dataclass
class EnsembleResult(_Diagnosed):
    """Statistics of a seeded jump Monte Carlo ensemble.

    ``jump_times`` holds one entry per trajectory (NaN if it survived).
    Every survivor carries the same conditioned state, so ``cond_fidelity``
    is that state's |c_T|^2/||psi||^2 (NaN once no trajectory is left) and
    ``survival`` is the fraction of thresholds still below ||psi||^2.
    ``uncond_t_population`` = survival * cond_fidelity estimates the
    unconditioned target population with failures contributing zero; since
    the survival indicator has mean ||psi||^2, it is unbiased for the rho_TT
    of the trace-non-preserving master equation (a failed register holds no
    target population).
    """

    n_traj: int
    seed: int
    model: str
    t: np.ndarray
    survival: np.ndarray
    cond_fidelity: np.ndarray
    uncond_t_population: np.ndarray
    jump_times: np.ndarray

    def jump_histogram(self):
        finite = self.jump_times[np.isfinite(self.jump_times)]
        edges = np.linspace(0.0, float(self.t[-1]), 51)  # 50 bins
        counts, _ = np.histogram(finite, bins=edges)
        return edges, counts


# Trajectories whose thresholds are drawn per pass of ``_threshold_draws``:
# each pass holds a few dozen arrays of THRESHOLD_BLOCK words.
THRESHOLD_BLOCK = 2**14
# numpy's SeedSequence (a pool of four 32-bit words) and PCG64 generator.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)


def _hasher(init: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    """SeedSequence's hashmix: a 32-bit hash whose constant advances on every call."""
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> 16)

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return r ^ (r >> 16)


def _seed_words(entropy: list) -> list[np.ndarray]:
    """``SeedSequence(entropy).generate_state(4, np.uint64)``: entropy is a
    list of 32-bit words, each a scalar or an array of one per stream."""
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[j] if j < len(entropy) else np.uint32(0)) for j in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    half = [hashmix(pool[k % 4]).astype(np.uint64) for k in range(8)]
    return [half[2 * k] | half[2 * k + 1] << 32 for k in range(4)]


def _mulhi64(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """High word of the 128-bit product a * b, from 32-bit halves."""
    a0, a1, b0, b1 = a & _MASK32, a >> 32, b & _MASK32, b >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 step, state * multiplier + inc mod 2^128, on (hi, lo) words."""
    prod_hi = _mulhi64(lo, _PCG_MULT_LO) + hi * _PCG_MULT_LO + lo * _PCG_MULT_HI
    return _add128(prod_hi, lo * _PCG_MULT_LO, inc_hi, inc_lo)


def _threshold_draws(seed: int, n_traj: int) -> np.ndarray:
    """Waiting-time thresholds: entry i is the first uniform draw of the
    stream keyed by (seed, i), ``np.random.default_rng([seed, i]).random()``
    bit for bit, for i < n_traj <= 2^32.  numpy's seeding and PCG64 are
    written out on arrays over i, THRESHOLD_BLOCK streams at a time."""
    # the 32-bit words of seed, least significant first ([0] for 0)
    head = [np.uint32(seed >> k & _MASK32) for k in range(0, max(seed.bit_length(), 1), 32)]
    draws = np.empty(n_traj)
    with np.errstate(over="ignore"):
        for start in range(0, n_traj, THRESHOLD_BLOCK):
            index = np.arange(start, min(start + THRESHOLD_BLOCK, n_traj), dtype=np.uint32)
            s0, s1, s2, s3 = _seed_words([*head, index])
            # pcg64_set_seed: inc = (s2, s3) << 1 | 1; from state 0, step,
            # add (s0, s1), step; then random() steps once more
            inc = (s2 << 1 | s3 >> 63, s3 << 1 | 1)
            hi, lo = _add128(*inc, s0, s1)
            hi, lo = _pcg_step(*_pcg_step(hi, lo, *inc), *inc)
            # XSL-RR output, then the top 53 bits as a double in [0, 1)
            x, rot = hi ^ lo, hi >> 58
            out = x >> rot | x << (-rot & 63)
            draws[start : start + index.size] = (out >> 11) * 2.0**-53
    return draws


def _integer(name: str, value) -> int:
    """``value`` as an int; numpy integers and bools pass, as ``default_rng`` takes them."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def jump_ensemble(
    p: DerivedParams,
    n: int,
    n_traj: int,
    seed: int,
    t_end: float,
    model: str = "full",
    dt: float | None = None,
    max_samples: int = 501,
    workers: int | None = None,
) -> EnsembleResult:
    """Waiting-time jump Monte Carlo over ``n_traj`` trajectories.

    Each trajectory draws one uniform threshold r from a stream derived
    from (seed, trajectory index) and evolves under the non-Hermitian
    Hamiltonian until ||psi||^2 <= r, which marks a molecular decay: the
    register is lost and the trajectory ends.  All trajectories start from
    the same state and a jump ends them, so the survivors share one
    conditioned evolution: the run, backend and samples that
    ``null_trajectory`` makes with the same arguments, propagated once.
    One rule serves both backends: trajectory i is lost at the first
    propagated point (RK4 step, or spectral grid point) whose running-minimum
    norm is <= r_i, found while the run proceeds.  Only the jump time is
    read per backend: under RK4 (a given ``dt``, or the chooser's fallback)
    it is that step's time; on a spectral run it is the root of the exact
    norm curve in that point's gap, bisected down to adjacent floats.  The
    cost is one trajectory plus one vectorised pass that draws every
    threshold from its (seed, i) stream (``_threshold_draws``), and the
    memory O(n_traj + max_samples) whatever the step count.  ``n_traj``
    (1 to 2^32) and ``seed`` (>= 0) must be integers.  ``workers`` is
    accepted for compatibility and has no effect.
    """
    n_traj, seed = _integer("n_traj", n_traj), _integer("seed", seed)
    if n_traj < 1:
        raise ValueError(f"n_traj must be >= 1, got {n_traj}")
    if n_traj > 2**32:
        raise ValueError(f"n_traj must be <= 2**32, got {n_traj}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    model, op, psi, _ = _conditioned_problem(p, n, model)
    # the very run, and so the very samples, of ``null_trajectory``
    t, run = _propagate(op, -1j, psi, t_end, dt, max_samples)
    thresholds = _threshold_draws(seed, n_traj)
    # The first point with ||psi||^2 <= r is the first whose running minimum
    # is <= r, and the running minimum falls even where the last bit of the
    # norm does not.  So with the thresholds ascending, the first ``left``
    # not yet reached, each point takes those its running minimum reaches;
    # n_points marks a survivor.
    order = np.argsort(thresholds, kind="stable")
    ascending = thresholds[order]
    n_points = (t.size - 1) * run.stride + 1
    lost_at = np.full(n_traj, n_points)
    norm = np.empty(t.size)
    c_t = np.empty(t.size, dtype=np.complex128)
    floor, left = math.inf, n_traj
    for k, y in enumerate(run.points):
        norm_k = float(np.vdot(y, y).real)
        if k % run.stride == 0:
            norm[k // run.stride] = norm_k
            c_t[k // run.stride] = y[0]
        if k == 0:
            continue
        floor = min(floor, norm_k)
        if left and ascending[left - 1] >= floor:
            reached = int(np.searchsorted(ascending[:left], floor))
            lost_at[order[reached:left]] = k
            left = reached
    alive = n_traj - np.searchsorted(np.sort(lost_at), np.arange(t.size) * run.stride, side="right")
    lost = np.flatnonzero(lost_at < n_points)
    k = lost_at[lost]
    jump_times = np.full(n_traj, np.nan)
    if run.blocks is None:
        jump_times[lost] = k * run.h
    else:
        jump_times[lost] = _bisect_norm(run.blocks, t[k - 1], t[k], thresholds[lost])
    fid = _conditioned_population(c_t, norm)
    survival = alive / n_traj
    return EnsembleResult(
        n_traj=n_traj,
        seed=seed,
        model=model,
        t=t,
        survival=survival,
        cond_fidelity=np.where(alive > 0, fid, np.nan),
        uncond_t_population=survival * fid,
        jump_times=jump_times,
        **run.diagnostics(),
    )


def _bisect_norm(blocks, lo: np.ndarray, hi: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Times t in each bracket (lo, hi] where the norm N(t) = ||psi(t)||^2
    of the exact states ``blocks`` yields falls to r: every bracket is
    halved, keeping N(hi) <= r, until lo and hi are adjacent floats."""
    lo, hi = lo.copy(), hi.copy()
    while True:
        mid = 0.5 * (lo + hi)
        live = np.flatnonzero((lo < mid) & (mid < hi))
        if not live.size:
            return hi
        mid = mid[live]
        below = np.concatenate([np.vecdot(b, b).real for b in blocks(mid)]) <= r[live]
        hi[live[below]] = mid[below]
        lo[live[~below]] = mid[~below]


# ---------------------------------------------------------------------------
# reduced master equation
# ---------------------------------------------------------------------------


@dataclass
class ReducedDensityState:
    """Density-matrix components kept after molecular elimination.

    Pair-state entries (array-likes) follow the reduced basis order (per
    bond: +, -).  Coherences between different pair states are outside
    this description.
    """

    rho_tt: float
    rho_ss: np.ndarray
    rho_st: np.ndarray

    def __post_init__(self) -> None:
        self.rho_ss, self.rho_st = np.asarray(self.rho_ss), np.asarray(self.rho_st)

    def trace(self) -> float:
        return float(self.rho_tt + self.rho_ss.sum())


def ground_reduced_density(basis: RestrictedBasis, p: DerivedParams) -> ReducedDensityState:
    """Density matrix of the perturbative ground state, reduced layout."""
    psi = perturbative_ground_state(basis, p).reduced().amplitudes
    c_t = psi[0]
    c_s = psi[1:]
    return ReducedDensityState(
        rho_tt=float(abs(c_t) ** 2),
        rho_ss=np.abs(c_s) ** 2,
        rho_st=c_s * np.conj(c_t),
    )


@dataclass
class RMESeries(_Diagnosed):
    t: np.ndarray
    rho_tt: np.ndarray
    rho_ss_sum: np.ndarray
    trace: np.ndarray


def _rme_generator(p: DerivedParams, basis: RestrictedBasis):
    """Real (float64) generator G of ``reduced_master_equation`` on
    y = [rho_TT, rho_SS, Re rho_ST, Im rho_ST]: a block arrowhead with hub
    rho_TT and a 3 x 3 tail (rho_SS, Re rho_ST, Im rho_ST) per pair state
    at slots 1 + j, 1 + m + j, 1 + 2m + j.  ``_propagate`` reads its RK4
    step bound off G, as every level's.  Zero entries (J = 0, kappa = 0, a
    zero rate or energy) are left out."""
    m = 2 * basis.n_bonds
    e_plus_vc = basis.pair_energies(p.delta_over_u) + p.vc_over_u
    kap_coh = coherence_damping_rate(basis.pair_j, basis.pair_sign, p)
    sqrt2j = math.sqrt(2.0) * p.j_over_u
    zero, hop = np.zeros(m), np.full(m, sqrt2j)
    block = [  # each tail's, by row (rho_SS, Re rho_ST, Im rho_ST)
        [np.full(m, -2.0 * p.kappa_over_u), zero, 2.0 * hop],
        [zero, -kap_coh, e_plus_vc],
        [-hop, -e_plus_vc, -kap_coh],
    ]
    slots = 1 + np.arange(m)[:, None] + m * np.arange(3)
    blocks = np.moveaxis(np.array(block), -1, 0)
    return _block_arrowhead(1 + 3 * m, 0.0, slots, [0.0, 0.0, -2.0 * sqrt2j], [0.0, 0.0, sqrt2j], blocks)


def reduced_master_equation(
    p: DerivedParams,
    n: int,
    rho0: ReducedDensityState | None = None,
    t_end: float = 10.0,
    dt: float | None = None,
    max_samples: int = MAX_OUTPUT_SAMPLES,
) -> RMESeries:
    """Integrate the reduced (trace-non-preserving) master equation.

    Per pair state: the T coherence rotates at E(S_j^+-) + |V_c| and decays
    at kappa_j (molecular-detuning denominator); the population decays at
    2 kappa (uniform).  With s = sqrt(2) J, E_j = E(S_j^+-) + |V_c| and
    kappa_j the coherence damping rate, pair entries in reduced basis order:

        d rho_TT/dt   = -2 s sum_j Im rho_ST,j
        d rho_SS,j/dt = 2 s Im rho_ST,j - 2 kappa rho_SS,j
        d rho_ST,j/dt = -(i E_j + kappa_j) rho_ST,j + i s (rho_TT - rho_SS,j)

    d(trace)/dt = -2 kappa sum rho_SS, but the pair-pair coherences
    rho_{S_j S_k} are dropped, so the equation is not of Lindblad form and
    rho_SS can go negative: the trace rho_TT + sum rho_SS may rise, slightly,
    at strong measurement over long runs, and a population below -1e-6
    stops the run.
    """
    basis = build_basis(n)
    if rho0 is None:
        rho0 = ground_reduced_density(basis, p)
    m = 2 * basis.n_bonds
    if rho0.rho_ss.shape != (m,) or rho0.rho_st.shape != (m,):
        raise IntegrationError("initial state does not match the register size")
    gen = _rme_generator(p, basis)
    y = np.concatenate(([rho0.rho_tt], rho0.rho_ss, rho0.rho_st.real, rho0.rho_st.imag))
    t, run = _propagate(gen, 1.0, y, t_end, dt, max_samples)
    out_tt, out_ss = np.empty(t.size), np.empty(t.size)
    for at, rows in run.grid_blocks():
        out_tt[at] = rows[:, 0]
        out_ss[at] = rows[:, 1 : 1 + m].sum(axis=1)
        negative = (rows[:, 0] < -1e-6) | (rows[:, 1 : 1 + m].min(axis=1, initial=0.0) < -1e-6)
        if negative.any():
            raise IntegrationError(f"population went negative at t = {t[at][negative.argmax()]:.6g}")

    return RMESeries(
        t=t,
        rho_tt=out_tt,
        rho_ss_sum=out_ss,
        trace=out_tt + out_ss,
        **run.diagnostics(),
    )


# ---------------------------------------------------------------------------
# pseudo-Bloch system and closed forms
# ---------------------------------------------------------------------------


@dataclass
class BlochState:
    """u = Re rho_ST, v = Im rho_ST, w = rho_SS - rho_TT, x = trace."""

    u: float
    v: float
    w: float
    x: float


PURE_TARGET_BLOCH = BlochState(u=0.0, v=0.0, w=-1.0, x=1.0)


@dataclass
class BlochSeries(_Diagnosed):
    t: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    x: np.ndarray

    @property
    def rho_tt(self) -> np.ndarray:
        return 0.5 * (self.x - self.w)


def collective_coupling(p: DerivedParams, n: int) -> float:
    """|T> to symmetric-pair-mode matrix element, 2 sqrt(n-1) J."""
    return math.sqrt(2.0 * 2.0 * (n - 1)) * p.j_over_u


def bloch_evolution(
    p: DerivedParams,
    n: int,
    b0: BlochState = PURE_TARGET_BLOCH,
    t_end: float = 10.0,
    max_samples: int = MAX_OUTPUT_SAMPLES,
) -> BlochSeries:
    """Propagate the pseudo two-state Bloch system.

        du/dt = (U+|V_c|) v - kappa u
        dv/dt = -kappa v - (U+|V_c|) u - g w
        dw/dt = -kappa (x+w) + 4 g v
        dx/dt = -kappa (x+w)

    with g the collective coupling (see ``collective_coupling``), as one
    unpinned ``_propagate`` run of its real generator: exact unless cond(V)
    refuses, then RK4 at the largest accepted step (``backend`` on the
    result).  The grid is that of every other level, linspace(0, t_end,
    max_samples).
    """
    omega0 = 1.0 + p.vc_over_u
    kappa = p.kappa_over_u
    g = collective_coupling(p, n)
    gen = np.array(
        [
            [-kappa, omega0, 0.0, 0.0],
            [-omega0, -kappa, -g, 0.0],
            [0.0, 4.0 * g, -kappa, -kappa],
            [0.0, 0.0, -kappa, -kappa],
        ]
    )
    rows, cols = np.nonzero(gen)  # J = 0 or kappa = 0 leaves entries out
    op = SparseOperator._canonical(4, rows, cols, gen[rows, cols])
    t, run = _propagate(op, 1.0, [b0.u, b0.v, b0.w, b0.x], t_end, None, max_samples)
    out = np.concatenate([rows.copy() for _, rows in run.grid_blocks()])
    return BlochSeries(t, *out.T, **run.diagnostics())


def zeno_decay_rate(p: DerivedParams, n: int) -> float:
    """Nonselective target-population decay rate, units of U.

    Gamma_Z = 8 (n-1) J^2 kappa / ((U+|V_c|)^2 + kappa^2); n-1 is the
    bond-pair count of the n-site register.  Equals 2 g^2 kappa / (...)
    with the collective coupling g, so it matches the integrated Bloch
    system exactly.
    """
    omega0 = 1.0 + p.vc_over_u
    return 8.0 * (n - 1) * p.j_over_u**2 * p.kappa_over_u / (omega0**2 + p.kappa_over_u**2)


def nonselective_fidelity_closed(p: DerivedParams, n: int, rho_tt0: float, t):
    """Closed-form nonselective target population rho_TT(0) e^(-Gamma_Z t).

    Stated validity: kappa/(2 sqrt(n) J) > 1 and t beyond the coherence
    transient ~1/|V_c|.
    """
    return rho_tt0 * np.exp(-zeno_decay_rate(p, n) * np.asarray(t, dtype=np.float64))


def finite_efficiency_fidelity(eta: float, p: DerivedParams, n: int, rho_tt0: float, t):
    """Conditioned fidelity with detector efficiency eta.

    F(eta, t) = eta + (1 - eta) rho_TT^ns(t): undetected decays mix the
    nonselective outcome into the null-result state.  Valid for times past
    both the preparation scale 1/kappa and the coherence transient.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta:g}")
    return eta + (1.0 - eta) * nonselective_fidelity_closed(p, n, rho_tt0, t)
