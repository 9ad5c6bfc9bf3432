"""Sparse matrix structure and the linear solvers used by the time stepper.

Every matrix the scheme assembles couples the dofs of one space through its
cells, so each dof numbering gets one CSR ``Pattern``, built once: its
``indptr``/``indices`` and a (cell, i, j) -> data index map.  A form is then
the data array ``np.bincount(map, local values)`` on that pattern, a linear
combination of forms is the same combination of data arrays, and each matrix
a solver sees is a ``scipy.sparse.csr_array`` that shares the pattern's index
arrays.

The solver contract is the relative residual bound, not the method: SPD
systems go through Jacobi-preconditioned CG with a sparse-LU fallback, general
complex systems through sparse LU or preconditioned GMRES.  Every solve
re-checks its own residual, and every failure (no convergence, a non-finite
input, a singular factor) raises ``SolveError`` with a ``SolveReport``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "Pattern",
    "SolveReport",
    "SolveError",
    "solve_spd",
    "solve_complex",
]

DEFAULT_TOL = 1e-10
# An iterative solve stops on its recursively updated residual, which drifts
# from the true one; the re-checked true residual may exceed tol by this factor.
ITERATIVE_SLACK = 10.0
# A direct solve's residual is set by conditioning, not by tol; it is accepted
# up to this floor.
DIRECT_RESIDUAL_FLOOR = 1e-8


class Pattern:
    """CSR structure of the matrices assembled on one dof numbering.

    ``cell_map[c, i, j]`` is the position in a data array of the entry that
    couples local dofs i and j of cell c.  Pairs that touch a constrained dof
    map to the extra slot ``nnz``, which ``assemble`` drops.  Column indices
    are strictly increasing within each row.
    """

    def __init__(self, cell_dofs: np.ndarray, n: int):
        """``cell_dofs``: (cells, k) global dof per local dof, ``n`` where constrained."""
        nc, k = cell_dofs.shape
        pairs = cell_dofs[:, :, None] * (n + 1) + cell_dofs[:, None, :]   # row, col keys
        keys, inverse = np.unique(pairs.ravel(), return_inverse=True)
        key_rows, key_cols = np.divmod(keys, n + 1)
        free = (key_rows < n) & (key_cols < n)
        self.nnz = int(free.sum())
        self.shape = (n, n)
        slot = np.where(free, np.cumsum(free) - 1, self.nnz)
        self.cell_map = slot[inverse].reshape(nc, k, k)
        # scipy keeps int32 index arrays as given; int64 ones it would copy
        # down to int32 every time a matrix is wrapped
        idx = np.int32 if max(n, self.nnz) < np.iinfo(np.int32).max else np.int64
        self.indices = key_cols[free].astype(idx)
        self.indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(key_rows[free], minlength=n))]).astype(idx)

    def assemble(self, loc: np.ndarray, cell_map: np.ndarray | None = None) -> np.ndarray:
        """Data array of the local matrices ``loc`` summed through ``cell_map``
        (default: the full map; a slice of it places ``loc`` on sub-blocks)."""
        index = (self.cell_map if cell_map is None else cell_map).ravel()
        size = self.nnz + 1
        if np.iscomplexobj(loc):
            return (np.bincount(index, loc.real.ravel(), size)[:-1]
                    + 1j * np.bincount(index, loc.imag.ravel(), size)[:-1])
        return np.bincount(index, loc.ravel(), size)[:-1]

    def matrix(self, data: np.ndarray) -> sp.csr_array:
        """Wrap a data array on this pattern; the index arrays are shared."""
        return sp.csr_array((data, self.indices, self.indptr), shape=self.shape)


@dataclass
class SolveReport:
    iterations: int
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
    """Sparse-LU solve; a singular factor or a residual above the direct
    bound raises SolveError."""
    try:
        x = spla.splu(A.tocsc()).solve(b)
    except RuntimeError as err:  # SuperLU: "Factor is exactly singular", ...
        report = SolveReport(0, float("inf"), time.perf_counter() - t0, "direct-lu")
        raise SolveError(f"{what} failed: {err}", report) from err
    res = _relative_residual(A, x, b)
    report = SolveReport(0, res, time.perf_counter() - t0, "direct-lu")
    if not res <= max(tol, DIRECT_RESIDUAL_FLOOR):
        raise SolveError(f"{what} residual above tolerance", report)
    return x, report


def solve_spd(A: sp.csr_array, b: np.ndarray, tol: float = DEFAULT_TOL, *,
              method: str = "auto", maxiter: int | None = None,
              check_symmetry: bool = False) -> tuple[np.ndarray, SolveReport]:
    """Solve a symmetric positive definite system to the requested relative
    residual.

    ``method``: "cg" (fail on non-convergence), "direct", or "auto" (CG with a
    direct fallback).
    """
    if check_symmetry:
        dev = abs(A - A.T).max()
        if dev > 1e-12:
            raise ValueError(f"matrix not symmetric: max deviation {dev:.3e}")
    b = np.asarray(b)
    _check_rhs(b)
    if maxiter is None:
        maxiter = max(200, 4 * A.shape[0])
    t0 = time.perf_counter()
    if method in ("cg", "auto"):
        x, iters, ok = _jacobi_cg(A, b, tol, maxiter)
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
                  precond=None, maxiter: int = 2000) -> tuple[np.ndarray, SolveReport]:
    """Solve a general complex square system.

    With ``precond`` (a callable approximating A^{-1}) the solve runs
    preconditioned GMRES and falls back to sparse LU if it stalls; without it
    the solve is direct.
    """
    b = np.asarray(b, dtype=complex)
    _check_rhs(b)
    n = A.shape[0]
    t0 = time.perf_counter()
    if precond is not None:
        M = spla.LinearOperator((n, n), matvec=precond, dtype=complex)
        counter = {"n": 0}

        def cb(_):
            counter["n"] += 1

        x, info = spla.gmres(A, b, rtol=tol * 0.1, atol=0.0, M=M,
                             maxiter=maxiter, restart=200, callback=cb,
                             callback_type="pr_norm")
        if info == 0:
            res = _relative_residual(A, x, b)
            if res <= ITERATIVE_SLACK * tol:
                return x, SolveReport(counter["n"], res,
                                      time.perf_counter() - t0, "gmres")
    return _direct(A, b, tol, t0, "complex direct solve")
