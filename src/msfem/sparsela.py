"""Sparse matrix structure and the linear solvers used by the time stepper.

Every matrix the scheme assembles couples the dofs of one space through its
cells, component by component, so each dof numbering gets one CSR
``Pattern``, built once: its ``indptr``/``indices`` and the slots it takes
from two 0/1 summation matrices (``CellSums``), one row per coupled node
pair and one per node, which every numbering on the same cells shares.  The
summation matrices are built from the Kuhn lattice's template stencil, whose
few distinct node-key steps number the coupled pairs with no sort.  A
form's data array is the pair sums of its local matrices, taken at the free
slots; a load is the node sums of its local loads, taken at the free dofs.
The pattern is the only code that sums cell contributions.  A linear
combination of forms is the same combination of data arrays, and each
matrix a solver sees is a ``scipy.sparse.csr_array`` that shares the
pattern's index arrays.

Two inverses of a lattice operator serve the stepper's psi solve.
``sine_transform_solve`` inverts the sign-flip average of a nearest-neighbour
stencil on the interior lattice by the type-I sine transform, with no
factor; the stepper uses it for P1 psi.  ``nested_dissection`` orders the
points of a lattice for a sparse LU with little fill; the stepper factors
the P2 psi operator in that order.

The solver contract is the relative residual bound, not the method: SPD
systems go through Jacobi-preconditioned CG with a sparse-LU fallback, general
complex systems through sparse LU or defect correction, the stationary
iteration x <- x + P(b - A x) with an approximate inverse P, which stops on
the true residual and hands the solve to sparse LU after
``DEFECT_CORRECTION_MAX_APPLIES`` (30) applies of P or on a non-finite
residual.  Every solve re-checks its own residual, and every failure (no
convergence, a non-finite input, a singular factor, a factor out of memory)
raises ``SolveError`` with a ``SolveReport``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.fft import dstn, idstn

from .mesh import lattice_points

__all__ = [
    "CellSums",
    "Pattern",
    "SolveReport",
    "SolveError",
    "solve_spd",
    "solve_complex",
    "nested_dissection",
    "sine_transform_solve",
]

DEFAULT_TOL = 1e-10
# An iterative solve stops on its recursively updated residual, which drifts
# from the true one; the re-checked true residual may exceed tol by this factor.
ITERATIVE_SLACK = 10.0
# A direct solve's residual is set by conditioning, not by tol; it is accepted
# up to this floor.
DIRECT_RESIDUAL_FLOOR = 1e-8
# Applies of the approximate inverse in a defect-correction solve before the
# LU fallback.  The P2 psi solves against the S0 factor take 2-9 at dt =
# 1/64 and at most 10 at the largest dt the tests run.  The P1 psi solves
# against the sine transform take 4 (2D M=128) and 10 (3D M=16) at dt =
# 1/64, and 4-24 over dt in [1/256, 1/4] on the tests' meshes; the count
# grows as dt/h^2 falls and reached 27 at 3D M=8, dt = 1/4096.
DEFECT_CORRECTION_MAX_APPLIES = 30
# Largest block that nested dissection leaves unsplit.  Fill nnz(L + U) /
# nnz(S0) of the psi operator at dt = 1/64, leaf 16 / leaf 64 / COLAMD: 5.5 /
# 7.7 / 6.3 on 3D P1 M=8, 14.9 / 17.3 / 22.4 on 3D P1 M=16, 9.4 / 11.0 / 16.0
# on 3D P2 M=8, 9.0 / 10.5 / 15.1 on 2D P1 M=128 and 25.6 / 27.5 / 52.4 on
# 3D P1 M=24; leaf 8 gains at most 3% fill and costs ordering time.
ND_LEAF = 16
# What a failed SuperLU factor raises: RuntimeError "Factor is exactly
# singular", ...; out of memory as MemoryError, or as SystemError "gstrf was
# called with invalid arguments" when SuperLU reports it as a bad argument.
LU_ERRORS = (RuntimeError, SystemError, MemoryError)


class CellSums:
    """The two 0/1 summation matrices of the cell-to-node map of a Kuhn
    lattice, shared by every ``Pattern`` on it.

    ``pair_sum`` has one row per coupled node pair and ``node_sum`` one per
    node; each row adds up the local entries of its pair or node in cell
    order.  ``pairs`` holds the sorted keys a n_nodes + b of the coupled
    node pairs (a, b).

    The cells are translates of d! templates, so the step b - a of the local
    entry (i, j) depends only on the template: a few distinct steps (7 for
    2D P1, 15 for 3D P1, 65 for 3D P2), and the pairs of row a, in order,
    are its coupled steps in increasing order.  One scatter marks the
    coupled (node, step) table; its row-major running count is each pair's
    rank in the sorted order, and one gather gives every local entry its
    pair.  The rows are filled by the counting sort that turns a CSC matrix
    with one entry per column into CSR, which keeps each row's entries in
    column, that is cell, order.  No step sorts anything of the cells' size.
    """

    def __init__(self, base: np.ndarray, offset: np.ndarray, n_nodes: int):
        """``base`` (cubes,) and ``offset`` (d!, nloc): cell k d! + p has the
        global nodes base[k] + offset[p], each below ``n_nodes``."""
        nloc = offset.shape[1]
        steps, step = np.unique(offset[:, None, :] - offset[:, :, None], return_inverse=True)
        n_entries = base.size * offset.size * nloc
        idx = (np.int32 if max(n_nodes * steps.size, n_entries) < np.iinfo(np.int32).max
               else np.int64)
        # the (node a, step b - a) slot of every local entry (cell, i, j), in
        # cell order
        slot = ((base.astype(idx) * steps.size)[:, None, None, None]
                + (offset[:, :, None] * steps.size
                   + step.reshape(-1, nloc, nloc)).astype(idx)).ravel()
        coupled = np.zeros(n_nodes * steps.size, dtype=bool)
        coupled[slot] = True
        rank = np.cumsum(coupled, dtype=idx) - 1
        pair = rank[slot]
        del slot        # freed before the summation matrices take their memory
        a, s = np.divmod(np.flatnonzero(coupled), steps.size)
        self.pairs = a * n_nodes + a + steps[s]
        self.pair_sum = _row_sums(pair, self.pairs.size, idx)
        self.node_sum = _row_sums(
            (base.astype(idx)[:, None, None] + offset.astype(idx)).ravel(), n_nodes, idx)


class Pattern:
    """CSR structure of the matrices assembled on one dof numbering, and the
    one place where the cells' local matrices and loads are summed.

    Dofs are (node, component) pairs, numbered node-major.  Every form on a
    space is componentwise: it couples dof (a, c) only with the dofs (b, c)
    of the same component, for nodes a and b of a common cell, so the pattern
    holds no entry between two components.  Column indices are strictly
    increasing within each row.

    The summation matrices of the cell-to-node map (``CellSums``) are shared
    with every other pattern on the same map; a pattern keeps only its slots.
    A matrix's data array takes every free (pair, component) slot from the
    pair sums (``_slot_pair``), and a load takes every free (node,
    component) dof from the node sums.  A vector form thus sums its scalar
    block once, and a constrained dof is never summed into.
    """

    def __init__(self, sums: CellSums, dof_index: np.ndarray):
        """``sums``: the summation matrices of the cells' nodes;
        ``dof_index``: (nodes, ncomp) global dof per (node, component), -1
        where constrained, numbered in (node, component) order."""
        nn, e = dof_index.shape
        n = int(dof_index.max(initial=-1)) + 1
        keys = sums.pairs
        a, b = np.divmod(keys, nn)
        row_len = np.bincount(a, minlength=nn)
        row_start = np.concatenate([[0], np.cumsum(row_len)])[a]
        # with dofs numbered in (node, component) order, the sorted position
        # of component c of node pair p in row a is
        # e start(a) + c len(a) + (p - start(a))
        pos = (((e - 1) * row_start + np.arange(keys.size))
               + np.arange(e)[:, None] * row_len[a]).T                    # (pairs, e)
        rows = np.empty(pos.size, dtype=np.int64)
        cols = np.empty(pos.size, dtype=np.int64)
        pair = np.empty(pos.size, dtype=np.int64)
        # the dof rows and columns, sorted, -1 where constrained; np.take,
        # as numpy's fancy index of the rows of a narrow array is ~10x slower
        rows[pos] = np.take(dof_index, a, axis=0)
        cols[pos] = np.take(dof_index, b, axis=0)
        pair[pos] = np.arange(keys.size)[:, None]
        free = (rows >= 0) & (cols >= 0)
        self.nnz = int(free.sum())
        self.shape = (n, n)
        # scipy keeps int32 index arrays as given; int64 ones it would copy
        # down to int32 every time a matrix is wrapped
        idx = (np.int32 if max(n, self.nnz, keys.size) < np.iinfo(np.int32).max
               else np.int64)
        self.sums = sums
        self._slot_pair = pair[free].astype(idx)
        self.indices = cols[free].astype(idx)
        self.indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(rows[free], minlength=n))]).astype(idx)
        self._free_dofs = np.flatnonzero(dof_index.ravel() >= 0)

    def assemble(self, loc: np.ndarray) -> np.ndarray:
        """Data array of the scalar local matrices ``loc`` (cells, nloc,
        nloc), real or complex: each node pair's entries summed in cell
        order, the same sum in every component's slot."""
        return (self.sums.pair_sum @ loc.reshape(-1))[self._slot_pair]

    def assemble_load(self, loc: np.ndarray) -> np.ndarray:
        """Load vector of the local loads ``loc`` (cells, nloc, ncomp): each
        node's entries summed in cell order, taken at the free dofs."""
        node_sum = self.sums.node_sum
        totals = node_sum @ loc.reshape(node_sum.shape[1], -1)  # (nodes, ncomp)
        return totals.ravel()[self._free_dofs]

    def matrix(self, data: np.ndarray) -> sp.csr_array:
        """Wrap a data array on this pattern; the index arrays are shared."""
        return sp.csr_array((data, self.indices, self.indptr), shape=self.shape)


def _bisect(lattice: np.ndarray, step: int):
    """Split the points ``lattice`` (n, d), integer coordinates, on a plane
    at a multiple of ``step`` strictly inside their extent: across the
    longest axis that has one, the one nearest the middle.  Returns the
    index arrays (below, above, on) of the points, or None when no axis has
    such a plane."""
    lo, hi = lattice.min(axis=0), lattice.max(axis=0)
    for axis in np.argsort(lo - hi, kind="stable"):        # longest extent first
        first = step * (lo[axis] // step + 1)
        last = step * ((hi[axis] - 1) // step)
        if first <= last:
            cut = min(max(step * round((lo[axis] + hi[axis]) / (2 * step)), first), last)
            c = lattice[:, axis]
            return np.flatnonzero(c < cut), np.flatnonzero(c > cut), np.flatnonzero(c == cut)
    return None


def nested_dissection(lattice: np.ndarray, step: int) -> np.ndarray:
    """Fill-reducing order of the points ``lattice`` (n, d): recursive
    bisection on planes at multiples of ``step`` (``_bisect``), each
    separator after its two halves (George, SIAM J. Numer. Anal. 10 (1973)
    345-363), down to at most ``ND_LEAF`` points per block.

    On a degree-r lattice with step r each plane is a cell-face plane, no
    cell straddles it, and the points on it separate the two halves."""
    def order(idx):
        parts = _bisect(lattice[idx], step) if idx.size > ND_LEAF else None
        if parts is None:
            return [idx]
        below, above, on = parts
        return order(idx[below]) + order(idx[above]) + [idx[on]]

    return np.concatenate(order(np.arange(lattice.shape[0])))


def sine_transform_solve(A: sp.csr_array, lattice: np.ndarray, n: int):
    """Fast solve with the sign-flip average of the lattice stencil of ``A``.

    ``A`` acts on the points ``lattice`` (N, d), which must be the interior
    {1, ..., n-1}^d of the lattice in C order, and couples a point only to
    its neighbours at offsets o in {-1, 0, 1}^d, with an entry s_o that
    depends on o alone (Dirichlet truncation at the boundary).  Averaged
    over the 2^d sign flips of the axes, the stencil is even in every axis,
    so the type-I sine transform diagonalises it (Hockney, J. ACM 12 (1965)
    95-113; Buzbee, Golub and Nielson, SIAM J. Numer. Anal. 7 (1970)
    627-656), with the symbol lambda(theta) = sum_o s_o prod_k cos(o_k
    theta_k) at theta_j = j pi / n: a trigonometric preconditioner for
    ``A`` in the sense of T. Chan (SIAM J. Sci. Stat. Comput. 9 (1988)
    766-771).  Returns the solve r -> idst(dst(r) / lambda), O(N log N) per
    apply, with no factor.

    The stencil is read off the stored entries of ``A``; a lattice other
    than the interior in C order, or an offset outside {-1, 0, 1}^d, raises
    ValueError.
    """
    d = lattice.shape[1]
    shape = (n - 1,) * d
    if not np.array_equal(lattice, 1 + lattice_points(n - 1, d)):
        raise ValueError("a sine-transform solve needs the interior lattice points in C order")
    A = A.tocoo()
    key = np.zeros(A.nnz, dtype=np.int64)
    for k in range(d):                   # base-3 key of the offset, axis by axis
        off = lattice[A.col, k] - lattice[A.row, k]
        if np.any(np.abs(off) > 1):
            raise ValueError("a sine-transform solve needs a nearest-neighbour stencil")
        key = 3 * key + off + 1
    stencil = np.zeros(3 ** d, dtype=A.dtype)
    stencil[key] = A.data
    # lambda(theta) = sum_o s_o prod_k cos(o_k theta_k), one axis at a time
    cosines = np.cos(np.outer([-1, 0, 1], np.pi * np.arange(1, n) / n))   # (3, n - 1)
    symbol = stencil.reshape((3,) * d)
    for _ in range(d):
        symbol = np.tensordot(symbol, cosines, axes=(0, 0))
    return lambda r: idstn(dstn(r.reshape(shape), type=1, norm="ortho") / symbol,
                           type=1, norm="ortho").reshape(-1)


def _row_sums(rows: np.ndarray, n_rows: int, idx) -> sp.csr_array:
    """0/1 CSR matrix whose row r adds up the entries e of a flat array with
    ``rows[e]`` = r, in increasing e: the CSC to CSR counting sort of
    ``scipy.sparse`` on one entry per column."""
    return sp.csc_array((np.ones(rows.size), rows, np.arange(rows.size + 1, dtype=idx)),
                        shape=(n_rows, rows.size)).tocsr()


@dataclass
class SolveReport:
    iterations: int      # CG iterations, or applies of P in defect correction
    residual: float
    wall_time: float
    method: str


class SolveError(RuntimeError):
    """Raised when a solver cannot meet the residual contract."""

    def __init__(self, message: str, report: SolveReport):
        super().__init__(f"{message} (method={report.method}, "
                         f"iterations={report.iterations}, residual={report.residual:.3e})")
        self.report = report


def _relative_residual(A: sp.csr_array, x: np.ndarray, b: np.ndarray) -> float:
    nb = np.linalg.norm(b)
    if nb == 0.0:
        return float(np.linalg.norm(A @ x))
    return float(np.linalg.norm(A @ x - b) / nb)


def _check_rhs(b: np.ndarray):
    if not np.all(np.isfinite(b)):
        raise SolveError("right-hand side is not finite",
                         SolveReport(0, float("nan"), 0.0, "none"))


def _jacobi_cg(A: sp.csr_array, b: np.ndarray, tol: float, maxiter: int):
    """Plain preconditioned CG; returns (x, iterations, converged)."""
    d = A.diagonal().copy()
    d[d == 0.0] = 1.0
    dinv = 1.0 / d
    x = np.zeros_like(b)
    r = b.copy()
    nb = np.linalg.norm(b)
    if nb == 0.0:
        return x, 0, True
    z = dinv * r
    p = z.copy()
    rz = float(np.real(np.vdot(r, z)))
    for it in range(1, maxiter + 1):
        Ap = A @ p
        pAp = float(np.real(np.vdot(p, Ap)))
        if not pAp > 0.0:
            return x, it, False  # breakdown: not SPD to working precision, or not finite
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        rn = np.linalg.norm(r)
        if rn <= tol * nb:
            return x, it, True
        if not np.isfinite(rn):
            return x, it, False
        z = dinv * r
        rz_new = float(np.real(np.vdot(r, z)))
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, maxiter, False


def _direct(A: sp.csr_array, b: np.ndarray, tol: float, t0: float, what: str):
    """Sparse-LU solve; a failed factor or a residual above the direct
    bound raises SolveError."""
    try:
        x = spla.splu(A.tocsc()).solve(b)
    except LU_ERRORS as err:
        report = SolveReport(0, float("inf"), time.perf_counter() - t0, "direct-lu")
        raise SolveError(f"{what} failed: {err}", report) from err
    res = _relative_residual(A, x, b)
    report = SolveReport(0, res, time.perf_counter() - t0, "direct-lu")
    if not res <= max(tol, DIRECT_RESIDUAL_FLOOR):
        raise SolveError(f"{what} residual above tolerance", report)
    return x, report


def solve_spd(A: sp.csr_array, b: np.ndarray, tol: float = DEFAULT_TOL, *,
              method: str = "auto") -> tuple[np.ndarray, SolveReport]:
    """Solve a symmetric positive definite system to the requested relative
    residual.

    ``method``: "cg" (fail on non-convergence), "direct", or "auto" (CG with a
    direct fallback); any other value raises ValueError.  CG runs at most
    max(200, 4n) iterations.
    """
    if method not in ("auto", "cg", "direct"):
        raise ValueError(f"unknown SPD solve method {method!r}")
    b = np.asarray(b)
    _check_rhs(b)
    t0 = time.perf_counter()
    if method in ("cg", "auto"):
        x, iters, ok = _jacobi_cg(A, b, tol, max(200, 4 * A.shape[0]))
        if ok:
            res = _relative_residual(A, x, b)
            report = SolveReport(iters, res, time.perf_counter() - t0, "cg-jacobi")
            if res <= ITERATIVE_SLACK * tol:
                return x, report
            if method == "cg":
                raise SolveError("CG residual re-check failed", report)
        elif method == "cg":
            report = SolveReport(iters, _relative_residual(A, x, b),
                                 time.perf_counter() - t0, "cg-jacobi")
            raise SolveError("CG did not converge", report)
    return _direct(A, b, tol, t0, "direct solve")


def solve_complex(A: sp.csr_array, b: np.ndarray, tol: float = DEFAULT_TOL, *,
                  precond=None) -> tuple[np.ndarray, SolveReport]:
    """Solve a general complex square system.

    With ``precond`` (a callable approximating A^{-1}) the solve runs defect
    correction (Stetter, Numer. Math. 29 (1978) 425-443) until the true
    relative residual is at most tol/10, and falls back to sparse LU on a
    non-finite residual or after ``DEFECT_CORRECTION_MAX_APPLIES`` applies of
    ``precond``; without it the solve is direct.
    """
    b = np.asarray(b, dtype=complex)
    _check_rhs(b)
    t0 = time.perf_counter()
    if precond is not None:
        nb = np.linalg.norm(b) or 1.0     # an absolute residual when b = 0
        x, r = 0.0, b
        for applies in range(1, DEFECT_CORRECTION_MAX_APPLIES + 1):
            x = x + precond(r)
            r = b - A @ x
            res = float(np.linalg.norm(r) / nb)
            if res <= 0.1 * tol:
                return x, SolveReport(applies, res, time.perf_counter() - t0,
                                      "defect-correction")
            if not np.isfinite(res):
                break
    return _direct(A, b, tol, t0, "complex direct solve")
