"""Sparse matrix structure and the linear solvers used by the time stepper.

Every matrix the scheme assembles couples the dofs of one space through its
cells, component by component, so each dof numbering gets one CSR
``Pattern``, built once: its ``indptr``/``indices`` and the slots it takes
from two 0/1 summation matrices (``CellSums``), which every numbering on the
same cells shares.  Every form is symmetric or Hermitian, so a form's
local matrices are compact, the nloc (nloc + 1) / 2 entries (i, j), i <= j,
of each cell, and ``pair_sum`` has one row per unordered coupled node pair
a <= b and one entry per compact local entry; ``node_sum`` has one row per
node.  The summation matrices are built from the Kuhn lattice's template
stencil, whose few distinct node-key steps number the coupled pairs with
no sort.  A form's data array is one gather of the pair sums of its local
matrices through the pattern's mirror slot map, which puts the sum of
a <= b in both slots (a, b) and (b, a), negated in the slot a > b for an
antisymmetric form, whose local entries the form orients first
(``CellSums.sign``); every assembled matrix is thus exactly symmetric or
Hermitian.  A load is the node sums of its local loads, taken at the free
dofs.  The pattern is the only code that sums cell contributions.  A
linear combination of forms is the same combination of data arrays, and
each matrix a solver sees is a ``scipy.sparse.csr_array`` that shares the
pattern's index arrays, which are intp: scipy's int64 sparse kernels run
faster than its int32 ones on the step matrices.

Two inverses of a lattice operator serve the stepper's solves.
``lattice_transform_solve`` inverts the sign-flip average of a
nearest-neighbour stencil by the type-I sine transform on Dirichlet axes
and the type-I cosine transform on natural ones, with no factor; the
stepper uses it for P1 psi and, once dt reaches the lattice spacing, as
the CG preconditioner of the P1 wave systems.  ``nested_dissection``
orders the points of a lattice for a sparse LU with little fill; the
stepper factors the P2 psi operator in that order.

The solver contract is the relative residual bound, not the method: SPD
systems go through preconditioned CG with a sparse-LU fallback, Jacobi by
default or an SPD approximate inverse the caller passes (the report names
which: "cg-jacobi" or "cg-transform"), general complex systems through
sparse LU or defect correction, the stationary iteration x <- x + P(b -
A x) with an approximate inverse P, which stops on the true residual and
hands the solve to sparse LU after ``DEFECT_CORRECTION_MAX_APPLIES`` (30)
applies of P or on a non-finite residual.  Every solve re-checks its own
residual, and every failure (no convergence, a non-finite input, a
singular factor, a factor out of memory) raises ``SolveError`` with a
``SolveReport``; a solve that fell back reports "direct-lu".
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.fft import dct, dstn, idct, idstn

__all__ = [
    "CellSums",
    "Pattern",
    "SolveReport",
    "SolveError",
    "solve_spd",
    "solve_complex",
    "nested_dissection",
    "lattice_transform_solve",
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
    the node pairs (a, b) and (b, a) are each other's mirror, and a form
    hands over only the local entries (i, j) with i <= j: a compact
    (cells, nloc (nloc + 1) / 2) array of local matrices, each row in the
    order of ``np.triu_indices(nloc)`` (``local_shape``).  ``pair_sum``
    sums each unordered node pair once.  It has one row per coupled pair
    a <= b, which adds up the local entries (i, j) that hold nodes a and b
    in either order, in cell order, and one entry per column of the
    compact array.  ``node_sum`` has one row per node and one entry per
    local node.

    A local entry (i, j), i <= j, holds the node pair (a, b) oriented as
    its template orders nodes i and j: ``sign`` (d!, nloc (nloc + 1) / 2)
    is -1 at the entries of template p whose node at j has the lower
    number, and 1 elsewhere.  A symmetric form needs no orientation; an
    antisymmetric one multiplies its local entries by ``sign`` before the
    sum, so that each sums the pair as (a, b), a < b.

    ``steps`` holds the distinct steps b - a of the local entries,
    increasing and symmetric about 0, and ``pair_table`` (n_nodes, steps)
    at [a, t] the row of ``pair_sum`` that sums the node pair (a, a +
    steps[t]) in either orientation, -1 where the two are not coupled.  Its
    row-major order is the sorted order of the coupled (row, column) node
    pairs.

    The cells are translates of d! templates, so the node pair of the
    local entry (i, j) is its cube's base node plus a step that depends
    only on the template: a few distinct steps (7 for 2D P1, 15 for 3D P1,
    65 for 3D P2), and the pairs a <= b of row a, in order, are its
    coupled steps >= 0 in increasing order.  One scatter marks the coupled
    (node, step >= 0) half of the table; its row-major running count is
    each pair's rank in the sorted order, one gather gives every local
    entry its pair, and the pair (a, a + s) is also the entry (a + s, -s)
    of the other half.  The rows are filled by the counting sort that
    turns a CSC matrix with one entry per column into CSR, which keeps
    each row's entries in column, that is cell, order.  No step sorts
    anything of the cells' size.
    """

    def __init__(self, base: np.ndarray, offset: np.ndarray, n_nodes: int):
        """``base`` (cubes,) and ``offset`` (d!, nloc): cell k d! + p has the
        global nodes base[k] + offset[p], distinct and each below
        ``n_nodes``."""
        nloc = offset.shape[1]
        i, j = np.triu_indices(nloc)
        # (p, t): the step b - a of the local entry t = (i, j) of template p
        diff = offset[:, j] - offset[:, i]
        steps = np.unique(np.concatenate([diff, -diff], axis=None))
        h = steps.size // 2            # steps[h] = 0
        n_entries = base.size * diff.size
        idx = (np.int32 if max(n_nodes * steps.size, n_entries) < np.iinfo(np.int32).max
               else np.int64)
        # the (node a, step b - a >= 0) slot of every local entry, in cell order
        low = np.minimum(offset[:, i], offset[:, j])
        up = np.searchsorted(steps, np.abs(diff)) - h
        slot = ((base.astype(idx) * (h + 1))[:, None]
                + (low * (h + 1) + up).astype(idx).ravel()).ravel()
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
        self.sign = np.where(diff < 0, -1, 1).astype(np.int8)
        self.local_shape = (base.size * offset.shape[0], diff.shape[1])
        self.pair_sum = _row_sums(pair, n_pairs, np.arange(pair.size + 1, dtype=idx))
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
    increasing within each row; ``indices`` and ``indptr`` are intp.

    The summation matrices of the cell-to-node map (``CellSums``) are shared
    with every other pattern on the same map; a pattern keeps only its
    slots, read off the map's ``pair_table``.  ``pair_sum`` sums each
    unordered node pair of the compact local matrices once, so a matrix's
    data array is one gather of the pair sums through the mirror slot map
    (``_slot_pair``): the free (node pair, component) slots (a, b) and
    (b, a) both take the sum of the pair a <= b, which makes every
    assembled matrix exactly symmetric, or Hermitian, by construction.  For an antisymmetric local matrix the
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
        # the build runs in int32 where that fits; the result is widened below
        idx = np.int32 if max(n, table.size * e) < np.iinfo(np.int32).max else np.int64
        # [a, c, t]: the dof of component c of node a + steps[t], wherever
        # the two nodes are coupled.  In C order the (row node, component,
        # step) entries are the sorted (row, column) dof pairs, so the free
        # coupled ones are the pattern's slots in CSR order.
        node = np.clip(np.arange(nn, dtype=idx)[:, None] + steps.astype(idx), 0, nn - 1)
        cols = np.take(dof_index.T.astype(idx), node, axis=1).transpose(1, 0, 2)
        del node
        free = (table >= 0)[:, None, :] & (cols >= 0) & (dof_index >= 0)[:, :, None]
        self.nnz = int(np.count_nonzero(free))
        self.shape = (n, n)
        self.sums = sums
        indices = cols[free]
        del cols
        indptr = np.concatenate([[0], np.cumsum(free.sum(axis=2)[dof_index >= 0])])
        self._slot_pair = np.broadcast_to(table[:, None, :], free.shape)[free]
        self._sign = np.broadcast_to(np.where(steps < 0, -1, 1).astype(np.int8),
                                     free.shape)[free]
        del free
        self._free_dofs = np.flatnonzero(dof_index.ravel() >= 0)
        # Every matrix wraps these arrays.  A csr_array keeps int64 index
        # arrays as given (scipy's csr_matrix would copy them down to int32
        # on every wrap; its sparse arrays do not, scipy issue 16774), and
        # scipy's int64 csr_matvec outruns its int32 one on the step
        # matrices.  One product, best of 7 x 200, scipy 1.17.1 on a 2-core
        # x86-64 box, int32 / int64 indices:
        #
        #   mesh          A system    phi system   complex B
        #   3D P2 M=8     131 / 85    38 / 27      54 / 42 us
        #   3D P1 M=16     61 / 51    19 / 17      33 / 26 us
        #   2D P1 M=128    85 / 87    41 / 42      84 / 72 us
        self.indices = indices.astype(np.intp, copy=False)
        self.indptr = indptr.astype(np.intp, copy=False)

    def assemble(self, loc: np.ndarray, antisymmetric: bool = False) -> np.ndarray:
        """Data array of the compact scalar local matrices ``loc`` (cells,
        nloc (nloc + 1) / 2), real or complex, each row the entries (i, j),
        i <= j, of a cell's symmetric local matrix in ``np.triu_indices``
        order, or of its antisymmetric one if ``antisymmetric``, taken
        with the orientation of ``CellSums.sign``: the entries of each node
        pair a <= b summed in cell order, the same sum in every component's
        slot and, negated for an antisymmetric ``loc``, in the mirrored
        slots.  Any other shape raises ValueError."""
        if loc.shape != self.sums.local_shape:
            raise ValueError(f"local matrices of shape {loc.shape}; the pattern sums "
                             f"(cells, nloc (nloc + 1) / 2) = {self.sums.local_shape}")
        # np.take reads the int32 slot map as it is; a fancy index converts
        # it to intp first, which took 2x as long on every benchmark mesh
        data = np.take(self.sums.pair_sum @ loc.reshape(-1), self._slot_pair)
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


def lattice_transform_solve(stencil: np.ndarray, lattice: np.ndarray, n: int,
                            component: np.ndarray | None = None):
    """Fast solve with the sign-flip average of a nearest-neighbour lattice
    stencil, on one box of lattice points per vector component.

    ``stencil`` (3,)*d holds at o + 1 the entry s_o that couples a point
    to its neighbour at the offset o in {-1, 0, 1}^d.  The unknowns are the
    points ``lattice`` (N, d) of {0, ..., n}^d, in C order, and with
    ``component`` (N,) the vector component of each, in C order of (point,
    component):

    - scalar (no ``component``): the interior {1, ..., n-1}^d, Dirichlet on
      every axis;
    - vector: component c on the box {0, ..., n} along axis c and
      {1, ..., n-1} along the others, as n x A = 0 leaves the normal
      component free on a face; axis c of component c is natural.

    Averaged over the 2^d sign flips of the axes, the stencil is even in
    every axis, so the type-I sine transform diagonalises it on a Dirichlet
    axis (Hockney, J. ACM 12 (1965) 95-113; Buzbee, Golub and Nielson, SIAM
    J. Numer. Anal. 7 (1970) 627-656) and the type-I cosine transform on a
    natural one, with the symbol lambda(theta) = sum_o s_o prod_k cos(o_k
    theta_k) at theta_k = j pi / n, j in 1..n-1 (sine) or 0..n (cosine): a
    trigonometric preconditioner in the sense of T. Chan (SIAM J. Sci.
    Stat. Comput. 9 (1988) 766-771).  On a natural axis the operator
    inverted is the even extension of the stencil with its boundary rows
    halved, as a P1 form's row on a face sums half the cells of an interior
    row.  Returns the solve r -> idct(idst(dst(dct(r)) / lambda)), O(N log
    N) per apply, with no factor: the boxes of all components, each with
    its natural axis first, are stacked, so an apply is one gather, four
    transform calls and one scatter for any d.

    A stencil of another shape, a lattice other than these boxes in C
    order, or a symbol that vanishes somewhere, or is not positive where
    the stencil is real, raises ValueError.
    """
    d = lattice.shape[1]
    if stencil.shape != (3,) * d:
        raise ValueError(f"a lattice transform solve needs a (3,)*{d} stencil, "
                         f"got shape {stencil.shape}")
    # per box: its natural axes (0 or 1, then first) and its shape
    natural = int(component is not None)
    ncomp = d if natural else 1
    comp = np.asarray(component) if natural else np.zeros(len(lattice), dtype=np.intp)
    shape = (n + 1,) * natural + (n - 1,) * (d - natural)
    size = math.prod(shape)
    # [point, c]: where the unknown (point, c) sits in the stacked boxes; -1
    # outside the boxes
    place = np.full((n + 1,) * d + (ncomp,), -1, dtype=np.intp)
    for c in range(ncomp):
        box = tuple(slice(0, n + 1) if natural and k == c else slice(1, n) for k in range(d))
        place[box + (c,)] = np.moveaxis(np.arange(c * size, (c + 1) * size).reshape(shape), 0, c)
    inside = place >= 0
    if not (comp.shape == lattice.shape[:1] == (inside.sum(),)
            and np.all((lattice >= 0) & (lattice <= n))
            and np.array_equal(np.ravel_multi_index(lattice.T, (n + 1,) * d) * ncomp + comp,
                               np.flatnonzero(inside))):
        raise ValueError("a lattice transform solve needs the points of its boxes in "
                         "C order: the interior lattice, or per component c the lattice "
                         "closed along axis c and interior along the others")
    scatter = place[inside]
    gather = np.empty_like(scatter)
    gather[scatter] = np.arange(scatter.size)
    theta = ([np.pi * np.arange(n + 1) / n] * natural
             + [np.pi * np.arange(1, n) / n] * (d - natural))
    symbol = np.stack([_symbol(np.moveaxis(stencil, c, 0), theta) for c in range(ncomp)])
    if not np.all(symbol > 0 if np.isrealobj(symbol) else np.isfinite(symbol) & (symbol != 0)):
        raise ValueError("the symbol of the lattice stencil is not positive")
    sine = tuple(range(1 + natural, d + 1))

    def solve(r):
        x = np.take(r, gather).reshape((ncomp,) + shape)
        if natural:
            x[:, 0] *= 2.0       # the halved boundary rows of the natural axis
            x[:, -1] *= 2.0
            x = dct(x, type=1, axis=1)
        x = dstn(x, type=1, axes=sine) / symbol
        x = idstn(x, type=1, axes=sine)
        if natural:
            x = idct(x, type=1, axis=1)
        return np.take(x.reshape(-1), scatter)

    return solve


def _symbol(stencil: np.ndarray, theta: list) -> np.ndarray:
    """lambda(theta) = sum_o s_o prod_k cos(o_k theta_k) of a (3,)*d
    stencil on the grid of the per-axis angles ``theta``, one axis at a
    time."""
    symbol = stencil
    for angles in theta:
        symbol = np.tensordot(symbol, np.cos(np.outer([-1, 0, 1], angles)), axes=(0, 0))
    return symbol


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


def _cg(A: sp.csr_array, b: np.ndarray, tol: float, maxiter: int, precond):
    """Preconditioned CG, with the Jacobi preconditioner where ``precond``
    is None; returns (x, iterations, converged)."""
    if precond is None:
        d = A.diagonal().copy()
        d[d == 0.0] = 1.0
        dinv = 1.0 / d
        precond = lambda r: dinv * r      # noqa: E731
    x = np.zeros_like(b)
    r = b.copy()
    nb = np.linalg.norm(b)
    if nb == 0.0:
        return x, 0, True
    z = precond(r)
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
        z = precond(r)
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
              method: str = "auto", precond=None) -> tuple[np.ndarray, SolveReport]:
    """Solve a symmetric positive definite system to the requested relative
    residual.

    ``method``: "cg" (fail on non-convergence), "direct", or "auto" (CG with a
    direct fallback); any other value raises ValueError.  CG runs at most
    max(200, 4n) iterations, preconditioned by ``precond``, a callable
    applying an SPD approximation of A^{-1} (the stepper's lattice
    transform; the report's method reads "cg-transform"), or by the
    diagonal of A where it is None ("cg-jacobi").
    """
    if method not in ("auto", "cg", "direct"):
        raise ValueError(f"unknown SPD solve method {method!r}")
    b = np.asarray(b)
    _check_rhs(b)
    t0 = time.perf_counter()
    if method in ("cg", "auto"):
        name = "cg-jacobi" if precond is None else "cg-transform"
        x, iters, ok = _cg(A, b, tol, max(200, 4 * A.shape[0]), precond)
        if ok:
            res = _relative_residual(A, x, b)
            report = SolveReport(iters, res, time.perf_counter() - t0, name)
            if res <= ITERATIVE_SLACK * tol:
                return x, report
            if method == "cg":
                raise SolveError("CG residual re-check failed", report)
        elif method == "cg":
            report = SolveReport(iters, _relative_residual(A, x, b),
                                 time.perf_counter() - t0, name)
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
