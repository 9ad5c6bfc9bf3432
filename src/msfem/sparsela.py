"""Sparse matrix structure and the linear solvers used by the time stepper.

Every matrix the scheme assembles couples the dofs of one space through its
cells, component by component, so each dof numbering gets one CSR
``Pattern``, built once: its ``indptr``/``indices`` and the slots it takes
from two 0/1 summation matrices (``CellSums``), which every numbering on the
same cells shares.  Every form is symmetric or Hermitian, so ``pair_sum``
has one row per unordered coupled node pair a <= b and reads only the
nloc (nloc + 1) / 2 local entries of each cell with b >= a; ``node_sum``
has one row per node.  The summation matrices are built from the Kuhn
lattice's template stencil, whose few distinct node-key steps number the
coupled pairs with no sort.  A form's data array is one gather of the pair
sums of its local matrices through the pattern's mirror slot map, which
puts the sum of a <= b in both slots (a, b) and (b, a), negated in the
slot a > b for an antisymmetric form; every assembled matrix is thus
exactly symmetric or Hermitian.  A load is the node sums of its local
loads, taken at the free dofs.  The pattern is the only code that sums cell
contributions.  A linear combination of forms is the same combination of
data arrays, and each matrix a solver sees is a ``scipy.sparse.csr_array``
that shares the pattern's index arrays.

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
# 3D P1 M=24; leaf 8 gains at most 3% fill and costs ordering time.  Against
# SuperLU's own symmetric ordering MMD_AT_PLUS_A on the P2 psi S0 at dt =
# 1/64, ND / MMD fill, factor time and one apply read (2 cores, OpenBLAS)
# 9.4 / 12.9, 72-75 / 158-178 ms, 2.1 / 2.2-3.6 ms on 3D M=8 and 15.7 /
# 26.5, 0.63 / 4.4 s, 20 / 38 ms on 3D M=12; on 2D M=32 ND still factors
# faster (4.7 / 5.7, 14 / 20 ms) and MMD applies ~8% faster (1.0 / 1.1 ms).
ND_LEAF = 16
# What a failed SuperLU factor raises: RuntimeError "Factor is exactly
# singular", ...; out of memory as MemoryError, or as SystemError "gstrf was
# called with invalid arguments" when SuperLU reports it as a bad argument.
LU_ERRORS = (RuntimeError, SystemError, MemoryError)


class CellSums:
    """The two 0/1 summation matrices of the cell-to-node map of a Kuhn
    lattice, shared by every ``Pattern`` on it.

    Every form the scheme assembles is symmetric or Hermitian, or (the
    A . grad part of ``forms.assemble_B``) antisymmetric, so the entries of
    the node pairs (a, b) and (b, a) are each other's mirror and
    ``pair_sum`` sums each unordered pair once.  It has one row per coupled
    pair a <= b, which adds up the local entries (i, j) with node a at i and
    b at j, in cell order.  Its columns index the flat (cells, nloc, nloc)
    array of local matrices, but it has entries only at the nloc (nloc +
    1) / 2 local entries of each cell with b >= a; the others are never
    read.  ``node_sum`` has one row per node and one entry per local node.

    ``steps`` holds the distinct steps b - a of the local entries,
    increasing and symmetric about 0, and ``pair_table`` (n_nodes, steps)
    at [a, t] the row of ``pair_sum`` that sums the node pair (a, a +
    steps[t]) in either orientation, -1 where the two are not coupled.  Its
    row-major order is the sorted order of the coupled (row, column) node
    pairs.

    The cells are translates of d! templates, so the step b - a of the local
    entry (i, j) depends only on the template: a few distinct steps (7 for
    2D P1, 15 for 3D P1, 65 for 3D P2), and the pairs a <= b of row a, in
    order, are its coupled steps >= 0 in increasing order.  One scatter
    marks the coupled (node, step >= 0) half of the table; its row-major
    running count is each pair's rank in the sorted order, one gather gives
    every summed local entry its pair, and the pair (a, a + s) is also the
    entry (a + s, -s) of the other half.  The rows are filled by the
    counting sort that turns a CSC matrix with at most one entry per column
    into CSR, which keeps each row's entries in column, that is cell,
    order.  No step sorts anything of the cells' size.
    """

    def __init__(self, base: np.ndarray, offset: np.ndarray, n_nodes: int):
        """``base`` (cubes,) and ``offset`` (d!, nloc): cell k d! + p has the
        global nodes base[k] + offset[p], distinct and each below
        ``n_nodes``."""
        nloc = offset.shape[1]
        # (p, i, j): the step b - a of local entry (i, j) of template p; the
        # entries with b >= a are summed, nloc (nloc + 1) / 2 per template
        diff = offset[:, None, :] - offset[:, :, None]
        steps, step = np.unique(diff, return_inverse=True)
        h = steps.size // 2            # steps[h] = 0
        summed = diff >= 0
        n_entries = base.size * offset.size * nloc
        idx = (np.int32 if max(n_nodes * steps.size, n_entries) < np.iinfo(np.int32).max
               else np.int64)
        # the (node a, step b - a >= 0) slot of every summed entry, in cell order
        first = np.broadcast_to(offset[:, :, None], diff.shape)[summed]
        slot = ((base.astype(idx) * (h + 1))[:, None]
                + (first * (h + 1) + step.reshape(diff.shape)[summed] - h).astype(idx)
                ).ravel()
        coupled = np.zeros(n_nodes * (h + 1), dtype=bool)
        coupled[slot] = True
        rank = np.cumsum(coupled, dtype=idx) - 1
        pair = rank[slot]
        del slot        # freed before the summation matrices take their memory
        n_pairs = int(rank[-1]) + 1
        rank[~coupled] = -1
        table = np.empty((n_nodes, steps.size), dtype=idx)
        table[:, h:] = rank.reshape(n_nodes, h + 1)
        for t in range(1, h + 1):       # the pair (a, a + s) at (a + s, -s)
            s = steps[h + t]
            table[:s, h - t] = -1
            table[s:, h - t] = table[:-s, h + t]
        self.steps = steps
        self.pair_table = table
        # the CSC column pointer of the flat local array: the summed entries
        # of cube k are columns k d! nloc^2 + flatnonzero(summed)
        per_cube = np.concatenate([[0], np.cumsum(summed)]).astype(idx)
        colptr = np.append((np.arange(base.size, dtype=idx)[:, None] * per_cube[-1]
                            + per_cube[:-1]).ravel(), idx(pair.size))
        self.pair_sum = _row_sums(pair, n_pairs, colptr)
        self.node_sum = _row_sums(
            (base.astype(idx)[:, None, None] + offset.astype(idx)).ravel(), n_nodes,
            np.arange(base.size * offset.size + 1, dtype=idx))


class Pattern:
    """CSR structure of the matrices assembled on one dof numbering, and the
    one place where the cells' local matrices and loads are summed.

    Dofs are (node, component) pairs, numbered node-major.  Every form on a
    space is componentwise: it couples dof (a, c) only with the dofs (b, c)
    of the same component, for nodes a and b of a common cell, so the pattern
    holds no entry between two components.  Column indices are strictly
    increasing within each row.

    The summation matrices of the cell-to-node map (``CellSums``) are shared
    with every other pattern on the same map; a pattern keeps only its
    slots, read off the map's ``pair_table``.  ``pair_sum`` sums each
    unordered node pair once, so a matrix's data array is one gather of the
    pair sums through the mirror slot map (``_slot_pair``): the free (node
    pair, component) slots (a, b) and (b, a) both take the sum of the pair
    a <= b, which makes every assembled matrix exactly symmetric, or
    Hermitian, by construction.  For an antisymmetric local matrix the
    slots with a > b take the sum negated: ``_sign``, one byte per slot, is
    -1 there and 1 elsewhere.  A load takes every free (node, component)
    dof from the node sums.  A vector form thus sums its scalar block once,
    and a constrained dof is never summed into.
    """

    def __init__(self, sums: CellSums, dof_index: np.ndarray):
        """``sums``: the summation matrices of the cells' nodes;
        ``dof_index``: (nodes, ncomp) global dof per (node, component), -1
        where constrained, numbered in (node, component) order."""
        nn, e = dof_index.shape
        n = int(dof_index.max(initial=-1)) + 1
        table, steps = sums.pair_table, sums.steps
        # scipy keeps int32 index arrays as given; int64 ones it would copy
        # down to int32 every time a matrix is wrapped
        idx = np.int32 if max(n, table.size * e) < np.iinfo(np.int32).max else np.int64
        # [a, c, t]: the dof of component c of node a + steps[t], wherever
        # the two nodes are coupled.  In C order the (row node, component,
        # step) entries are the sorted (row, column) dof pairs, so the free
        # coupled ones are the pattern's slots in CSR order.
        node = np.clip(np.arange(nn, dtype=idx)[:, None] + steps.astype(idx), 0, nn - 1)
        cols = np.take(dof_index.T.astype(idx), node, axis=1).transpose(1, 0, 2)
        free = (table >= 0)[:, None, :] & (cols >= 0) & (dof_index >= 0)[:, :, None]
        self.nnz = int(np.count_nonzero(free))
        self.shape = (n, n)
        self.sums = sums
        self.indices = cols[free]
        self.indptr = np.concatenate(
            [[0], np.cumsum(free.sum(axis=2)[dof_index >= 0])]).astype(idx)
        self._slot_pair = np.broadcast_to(table[:, None, :], free.shape)[free]
        self._sign = np.broadcast_to(np.where(steps < 0, -1, 1).astype(np.int8),
                                     free.shape)[free]
        self._free_dofs = np.flatnonzero(dof_index.ravel() >= 0)

    def assemble(self, loc: np.ndarray, antisymmetric: bool = False) -> np.ndarray:
        """Data array of the scalar local matrices ``loc`` (cells, nloc,
        nloc), real or complex, each symmetric, or antisymmetric if
        ``antisymmetric``: the entries of each node pair a <= b summed in
        cell order, the same sum in every component's slot and, negated for
        an antisymmetric ``loc``, in the mirrored slots.  Only the entries
        (i, j) of ``loc`` whose node pair has a <= b are read."""
        data = (self.sums.pair_sum @ loc.reshape(-1))[self._slot_pair]
        if antisymmetric:
            data *= self._sign
        return data

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


def _row_sums(rows: np.ndarray, n_rows: int, colptr: np.ndarray) -> sp.csr_array:
    """0/1 CSR matrix whose row r adds up the entries c of a flat array, in
    increasing c, that hold a summed entry e, colptr[c] = e < colptr[c +
    1], with ``rows[e]`` = r: the CSC to CSR counting sort of
    ``scipy.sparse`` on at most one entry per column."""
    return sp.csc_array((np.ones(rows.size), rows, colptr),
                        shape=(n_rows, colptr.size - 1)).tocsr()


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
