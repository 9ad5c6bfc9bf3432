"""Assembly of the bilinear forms and load vectors used by the scheme.

Element loops are vectorized over chunks of cells and produce one local matrix
per cell.  Every form on a space lands on that space's CSR pattern
(``FeSpace.pattern``): the local matrices are summed into the pattern's data
array by ``np.bincount`` through its (cell, i, j) -> data index map, and
the form is returned as a ``scipy.sparse.csr_array`` that shares the
pattern's index arrays.  Forms on one space can therefore be combined by
combining their ``data`` arrays.  On a vector space the componentwise
(block-diagonal) mass forms use the diagonal component blocks of the same
pattern as the div-div + curl-curl form.

Nonlinear coefficients (|psi_h|^2, |A_h|^2, the probability current) are
evaluated pointwise at the quadrature nodes of the assembled form, with the
default degree 2r+2 keeping the quadrature error below the scheme's spatial
order.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .elements import quadrature_rule, reference_element
from .mesh import Mesh
from .space import FeSpace, FieldVector

__all__ = [
    "Abs2",
    "FieldPlusConstant",
    "assemble_mass",
    "assemble_stiffness",
    "assemble_D",
    "assemble_B",
    "assemble_weighted_mass",
    "assemble_current_load",
    "assemble_source_load",
    "assemble_coefficient_load",
]

_CHUNK_ENTRY_BUDGET = 8_000_000


class Abs2:
    """Coefficient |f_h|^2 evaluated from a discrete (possibly complex) field."""

    def __init__(self, field_vec: FieldVector):
        self.field = field_vec


class FieldPlusConstant:
    """Coefficient f_h + c from a real discrete field and a constant."""

    def __init__(self, field_vec: FieldVector, constant: float):
        self.field = field_vec
        self.constant = constant


@lru_cache(maxsize=None)
def _tables(dim: int, degree: int, qdeg: int):
    rule = quadrature_rule(dim, qdeg)
    elem = reference_element(dim, degree)
    vals, grads_ref = elem.tabulate(rule.points_ref)
    return rule, vals, grads_ref


def _default_qdeg(space: FeSpace, qdeg):
    return 2 * space.degree + 2 if qdeg is None else qdeg


def _chunks(n_cells: int, per_cell_entries: int):
    size = max(1, _CHUNK_ENTRY_BUDGET // max(per_cell_entries, 1))
    for start in range(0, n_cells, size):
        yield slice(start, min(start + size, n_cells))


class _ChunkData:
    """Geometry and basis data for one chunk of cells."""

    def __init__(self, mesh: Mesh, degree: int, qdeg: int, sl: slice):
        rule, vals, grads_ref = _tables(mesh.dim, degree, qdeg)
        J, JinvT, det = mesh.jacobians()
        self.sl = sl
        self.vals = vals                             # (q, nloc)
        self.wdet = rule.weights[None, :] * det[sl, None]   # (c, q)
        self.grads = np.einsum("cij,qlj->cqli", JinvT[sl], grads_ref, optimize=True)
        v0 = mesh.vertices[mesh.cells[sl, 0]]
        self.x = v0[:, None, :] + np.einsum("cij,qj->cqi", J[sl], rule.points_ref, optimize=True)

    def field_values(self, field_vec: FieldVector):
        space = field_vec.space
        local = space.gather_cells(field_vec, self.sl)   # (c, nloc[, ncomp])
        if space.kind == "scalar":
            return np.einsum("ql,cl->cq", self.vals, local, optimize=True)
        return np.einsum("ql,cld->cqd", self.vals, local, optimize=True)

    def field_gradients(self, field_vec: FieldVector):
        space = field_vec.space
        local = space.gather_cells(field_vec, self.sl)
        if space.kind == "scalar":
            return np.einsum("cqld,cl->cqd", self.grads, local, optimize=True)
        return np.einsum("cqld,cle->cqed", self.grads, local, optimize=True)

    def coefficient(self, coeff):
        """Pointwise values of a scalar coefficient at the quadrature nodes."""
        if coeff is None:
            return np.ones_like(self.wdet)
        if isinstance(coeff, Abs2):
            v = self.field_values(coeff.field)
            if v.ndim == 3:
                return np.einsum("cqd,cqd->cq", v, v, optimize=True).real
            return (v * v.conj()).real
        if isinstance(coeff, FieldPlusConstant):
            return self.field_values(coeff.field).real + coeff.constant
        if isinstance(coeff, FieldVector):
            return self.field_values(coeff).real
        if np.isscalar(coeff):
            return np.full_like(self.wdet, float(coeff))
        return np.asarray(coeff(self.x))


_CHUNK_CACHE_BYTES = 600_000_000


def _chunk_data(mesh: Mesh, degree: int, qdeg: int, sl: slice) -> _ChunkData:
    """Chunk tables, cached on the mesh when the whole-mesh footprint is small.

    Assembly is called many times per step on identical chunks; the gradient
    tables dominate the cost, so reusing them is the main assembly speedup.
    """
    rule, _, grads_ref = _tables(mesh.dim, degree, qdeg)
    footprint = (mesh.n_cells * rule.weights.size * grads_ref.shape[1]
                 * (mesh.dim + 1) * 8)
    if footprint > _CHUNK_CACHE_BYTES:
        return _ChunkData(mesh, degree, qdeg, sl)
    store = mesh._geom.setdefault("chunk_data", {})
    key = (degree, qdeg, sl.start, sl.stop)
    if key not in store:
        store[key] = _ChunkData(mesh, degree, qdeg, sl)
    return store[key]


def _pairing(weighted_rows, rows):
    """Batched local Gram matrices: (c, q', i), (c, q', j) -> (c, i, j).

    The quadrature weights must already be folded into ``weighted_rows``;
    q' may be a flattened (point, component) axis.
    """
    return np.matmul(weighted_rows.transpose(0, 2, 1), rows)


def _on_pattern(space: FeSpace, loc: np.ndarray, componentwise: bool = False):
    """csr_array of per-cell local matrices summed on the space's pattern.

    ``loc`` is (cells, k, k) over the pattern's local dofs, or with
    ``componentwise`` a scalar (cells, nloc, nloc) block placed on every
    diagonal component block of a vector space.
    """
    pat = space.pattern()
    if componentwise:
        nc, nloc = loc.shape[:2]
        d = space.ncomp
        blocks = pat.cell_map.reshape(nc, nloc, d, nloc, d)
        data = sum(pat.assemble(loc, blocks[:, :, k, :, k]) for k in range(d))
    else:
        data = pat.assemble(loc)
    return pat.matrix(data.astype(space.dtype, copy=False))


def _scatter_load(out: np.ndarray, dofs: np.ndarray, loc: np.ndarray):
    np.add.at(out, dofs.reshape(-1), loc.reshape(-1))


def _cell_dofs(space: FeSpace, sl: slice) -> np.ndarray:
    cd = space.cell_dof_index()[sl]      # (c, nloc, ncomp)
    return cd.reshape(cd.shape[0], -1)   # node-major, component-minor


def assemble_mass(space: FeSpace, qdeg: int | None = None) -> sp.csr_array:
    """Mass matrix (u, v); block-diagonal per component for vector spaces."""
    return assemble_weighted_mass(space, None, qdeg=qdeg)


def assemble_weighted_mass(space: FeSpace, weight, qdeg: int | None = None) -> sp.csr_array:
    """(w u, v) with w a pointwise scalar weight (see module coefficients)."""
    qdeg = _default_qdeg(space, qdeg)
    _check_coeff_mesh(space, weight)
    nloc = space.element.node_count
    loc = np.empty((space.mesh.n_cells, nloc, nloc))
    for sl in _chunks(space.mesh.n_cells, (nloc * space.ncomp) ** 2):
        data = _chunk_data(space.mesh, space.degree, qdeg, sl)
        w = data.coefficient(weight) * data.wdet
        loc[sl] = _pairing(w[:, :, None] * data.vals[None], data.vals)
    return _on_pattern(space, loc, componentwise=space.kind == "vector")


def assemble_stiffness(space: FeSpace, qdeg: int | None = None) -> sp.csr_array:
    """Scalar stiffness (grad u, grad v)."""
    if space.kind != "scalar":
        raise ValueError("stiffness is assembled on scalar spaces")
    qdeg = _default_qdeg(space, qdeg)
    nloc = space.element.node_count
    loc = np.empty((space.mesh.n_cells, nloc, nloc))
    for sl in _chunks(space.mesh.n_cells, nloc * nloc):
        data = _chunk_data(space.mesh, space.degree, qdeg, sl)
        loc[sl] = _pairing(*_grad_rows(data))
    return _on_pattern(space, loc)


def _grad_rows(data: _ChunkData):
    """Weighted and plain gradient rows flattened over (point, direction)."""
    c, q, nloc, d = data.grads.shape
    g = data.grads.transpose(0, 2, 1, 3).reshape(c, nloc, q * d)
    gw = (data.grads * data.wdet[:, :, None, None]) \
        .transpose(0, 2, 1, 3).reshape(c, nloc, q * d)
    return gw.transpose(0, 2, 1), g.transpose(0, 2, 1)


def _curl_rows(grads: np.ndarray, dim: int) -> np.ndarray:
    """Curl of each (node, comp) vector basis function at quadrature points.

    grads: (c, q, nloc, d).  Returns (c, q, nloc*d) for d=2 (scalar curl) or
    (c, q, nloc*d, 3) for d=3.
    """
    c, q, nloc, d = grads.shape
    if dim == 2:
        out = np.empty((c, q, nloc, 2))
        out[..., 0] = -grads[..., 1]   # comp x: -d/dy
        out[..., 1] = grads[..., 0]    # comp y: +d/dx
        return out.reshape(c, q, nloc * 2)
    eps = np.zeros((3, 3, 3))
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        eps[i, j, k] = 1.0
        eps[i, k, j] = -1.0
    out = np.einsum("mnp,cqan->cqapm", eps, grads, optimize=True)
    return out.reshape(c, q, nloc * 3, 3)


def assemble_D(space: FeSpace, qdeg: int | None = None) -> sp.csr_array:
    """Grad-div plus curl-curl form (div u, div v) + (curl u, curl v).

    In 2D the curl is the scalar d1 u2 - d2 u1.
    """
    if space.kind != "vector":
        raise ValueError("the div-div + curl-curl form needs a vector space")
    qdeg = _default_qdeg(space, qdeg)
    d = space.mesh.dim
    nloc = space.element.node_count
    loc = np.empty((space.mesh.n_cells, nloc * d, nloc * d))
    for sl in _chunks(space.mesh.n_cells, (nloc * d) ** 2):
        data = _chunk_data(space.mesh, space.degree, qdeg, sl)
        nc, nq = data.wdet.shape
        div = data.grads.reshape(nc, nq, nloc * d)           # (c, q, nloc*d)
        loc[sl] = _pairing(div * data.wdet[:, :, None], div)
        curl = _curl_rows(data.grads, d)
        # one curl component at a time: no flattened (c, q*3, nloc*d) copies
        for cm in ([curl] if d == 2 else np.moveaxis(curl, -1, 0)):
            loc[sl] += _pairing(cm * data.wdet[:, :, None], cm)
    return _on_pattern(space, loc)


def assemble_B(space: FeSpace, a_field: FieldVector, qdeg: int | None = None,
               stiffness: sp.csr_array | None = None) -> sp.csr_array:
    """Magnetic Schrodinger form ((i grad + A) u, (i grad + A) v).

    Expanded as (grad u, grad v) + (|A|^2 u, v) + i (v grad u - u grad v, A);
    Hermitian and positive semidefinite for any real A field.  The gradient
    term is A-independent; pass it as ``stiffness``, assembled on this space,
    to skip reassembling it.
    """
    if space.kind != "scalar" or space.dtype is not complex:
        raise ValueError("the magnetic form is assembled on a complex scalar space")
    if a_field.space.mesh is not space.mesh:
        raise ValueError("A-field lives on a different mesh")
    pat = space.pattern()
    if stiffness is not None and not np.may_share_memory(stiffness.indices, pat.indices):
        raise ValueError("stiffness is not on the pattern of this space")
    qdeg = _default_qdeg(space, qdeg)
    nloc = space.element.node_count
    loc = np.empty((space.mesh.n_cells, nloc, nloc), dtype=complex)
    for sl in _chunks(space.mesh.n_cells, nloc * nloc * 4):
        data = _chunk_data(space.mesh, space.degree, qdeg, sl)
        a_q = data.field_values(a_field)                       # (c, q, d)
        a2 = np.einsum("cqd,cqd->cq", a_q, a_q, optimize=True)
        loc[sl] = _pairing((a2 * data.wdet)[:, :, None] * data.vals[None], data.vals)
        if stiffness is None:
            loc[sl] += _pairing(*_grad_rows(data))
        a_dot_g = np.einsum("cqd,cqld->cql", a_q, data.grads, optimize=True)
        t = _pairing(data.wdet[:, :, None] * data.vals[None], a_dot_g)
        loc[sl] += 1j * (t - np.swapaxes(t, 1, 2))
    values = pat.assemble(loc)
    if stiffness is not None:
        values += stiffness.data
    return pat.matrix(values)


def assemble_current_load(space: FeSpace, psi_field: FieldVector,
                          qdeg: int | None = None) -> np.ndarray:
    """Load vector of the probability current (i/2)(psi* grad psi - c.c.)
    against the vector test functions; real-valued."""
    if space.kind != "vector":
        raise ValueError("the current load is assembled on a vector space")
    if psi_field.space.mesh is not space.mesh:
        raise ValueError("psi lives on a different mesh")
    qdeg = _default_qdeg(space, qdeg)
    out = np.zeros(space.n_dofs + 1)
    nloc = space.element.node_count
    d = space.mesh.dim
    for sl in _chunks(space.mesh.n_cells, nloc * d * 4):
        data = _chunk_data(space.mesh, space.degree, qdeg, sl)
        psi_q = data.field_values(psi_field)
        grad_q = data.field_gradients(psi_field)
        current = -np.imag(np.conj(psi_q)[..., None] * grad_q)   # (c, q, d)
        loc = np.einsum("cqm,qa,cq->cam", current, data.vals, data.wdet, optimize=True)
        _scatter_load(out, _cell_dofs(space, sl),
                      loc.reshape(loc.shape[0], nloc * d))
    return out[:-1]


def assemble_source_load(space: FeSpace, source, t: float | None = None,
                         qdeg: int | None = None) -> np.ndarray:
    """Load vector (s, v) for a source s(x) (or s(x, t) when t is given)."""
    fn = source if t is None else (lambda x: source(x, t))
    return assemble_coefficient_load(space, fn, qdeg=qdeg)


def assemble_coefficient_load(space: FeSpace, coeff,
                              qdeg: int | None = None) -> np.ndarray:
    """Load vector of a pointwise coefficient against the space's test basis.

    Scalar spaces take scalar coefficients, vector spaces d-vector ones.
    Coefficients may be callables of x or the discrete-field wrappers.
    """
    qdeg = _default_qdeg(space, qdeg)
    _check_coeff_mesh(space, coeff)
    out = np.zeros(space.n_dofs + 1,
                   dtype=complex if space.dtype is complex else float)
    nloc = space.element.node_count
    d = space.mesh.dim
    for sl in _chunks(space.mesh.n_cells, nloc * space.ncomp * 4):
        data = _chunk_data(space.mesh, space.degree, qdeg, sl)
        if isinstance(coeff, (Abs2, FieldPlusConstant, FieldVector)) \
                or np.isscalar(coeff) or coeff is None:
            s = data.coefficient(coeff)
        else:
            s = np.asarray(coeff(data.x))
        if space.kind == "scalar":
            loc = np.einsum("cq,qa->ca", s * data.wdet, data.vals, optimize=True)
            _scatter_load(out, _cell_dofs(space, sl), loc)
        else:
            loc = np.einsum("cqm,qa,cq->cam", s, data.vals, data.wdet, optimize=True)
            _scatter_load(out, _cell_dofs(space, sl),
                          loc.reshape(loc.shape[0], nloc * d))
    return out[:-1]


def _check_coeff_mesh(space: FeSpace, coeff):
    inner = getattr(coeff, "field", coeff)
    if isinstance(inner, FieldVector) and inner.space.mesh is not space.mesh:
        raise ValueError("coefficient field lives on a different mesh")
