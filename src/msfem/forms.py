"""Assembly of the bilinear forms and load vectors used by the scheme.

Every form, load and error norm on a mesh samples one quadrature table per
(mesh, degree, qdeg) (``quadrature_table``): basis values, weighted
Jacobians, physical gradients and points at the quadrature nodes of every
cell, built once on the whole mesh and cached on it.  Element loops run over
chunks of cells and read slices (views) of that table.  The chunks stay
because they bound the per-chunk transients (local matrices, field values
and gradients, curls, weighted copies of the gradient table): without them
these come on top of the table as whole-mesh arrays and raise the peak
memory of the large meshes.

Every form on a space lands on that space's CSR pattern (``FeSpace.pattern``):
the local matrices are summed into the pattern's data array by
``np.bincount`` through its (cell, i, j) -> data index map, and the form is
returned as a ``scipy.sparse.csr_array`` that shares the pattern's index
arrays.  Forms on one space can therefore be combined by combining their
``data`` arrays.  On a vector space the componentwise (block-diagonal) mass
forms use the diagonal component blocks of the same pattern as the
div-div + curl-curl form.

Nonlinear coefficients (|psi_h|^2, |A_h|^2, the probability current) are
evaluated pointwise at the quadrature nodes of the assembled form, with the
default degree 2r+2 (``quadrature_degree``) keeping the quadrature error
below the scheme's spatial order.  A weight or load coefficient is one of:
None (the constant one), a callable of the points x, a ``FieldVector`` (its
real part), or ``Abs2`` of a scalar field (|f_h|^2).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .elements import quadrature_rule, reference_element
from .mesh import Mesh
from .space import FeSpace, FieldVector

__all__ = [
    "Abs2",
    "QuadratureTable",
    "assemble_mass",
    "assemble_stiffness",
    "assemble_D",
    "assemble_B",
    "assemble_weighted_mass",
    "assemble_current_load",
    "assemble_source_load",
    "assemble_coefficient_load",
    "quadrature_degree",
    "quadrature_table",
]

_CHUNK_ENTRY_BUDGET = 8_000_000


class Abs2:
    """Coefficient |f_h|^2 evaluated from a discrete (possibly complex) scalar
    field."""

    def __init__(self, field_vec: FieldVector):
        self.field = field_vec


def quadrature_degree(degree: int, qdeg: int | None = None) -> int:
    """Quadrature degree for degree-r elements: ``qdeg`` if given, else 2r+2."""
    return 2 * degree + 2 if qdeg is None else qdeg


def _chunks(n_cells: int, per_cell_entries: int):
    size = max(1, _CHUNK_ENTRY_BUDGET // max(per_cell_entries, 1))
    for start in range(0, n_cells, size):
        yield slice(start, min(start + size, n_cells))


class QuadratureTable:
    """Basis and geometry at the quadrature nodes of every cell of a mesh.

    ``vals`` (q, nloc) are the reference basis values, ``wdet`` (c, q) the
    quadrature weights times det J, ``grads`` (c, q, nloc, d) the physical
    basis gradients and ``x`` (c, q, d) the physical points.  Built once per
    (mesh, degree, qdeg) by ``quadrature_table``; chunk loops read slices of
    it, and the field and coefficient evaluations take the cell slice.
    """

    def __init__(self, mesh: Mesh, degree: int, qdeg: int):
        rule = quadrature_rule(mesh.dim, qdeg)
        vals, grads_ref = reference_element(mesh.dim, degree).tabulate(rule.points_ref)
        J, JinvT, det = mesh.jacobians()
        self.vals = vals                                    # (q, nloc)
        self.wdet = rule.weights[None, :] * det[:, None]    # (c, q)
        self.grads = np.einsum("cij,qlj->cqli", JinvT, grads_ref, optimize=True)
        v0 = mesh.vertices[mesh.cells[:, 0]]
        self.x = v0[:, None, :] + np.einsum("cij,qj->cqi", J, rule.points_ref, optimize=True)

    def field_values(self, field_vec: FieldVector, sl: slice):
        space = field_vec.space
        local = space.gather_cells(field_vec, sl)   # (c, nloc[, ncomp])
        if space.kind == "scalar":
            return np.einsum("ql,cl->cq", self.vals, local, optimize=True)
        return np.einsum("ql,cld->cqd", self.vals, local, optimize=True)

    def field_gradients(self, field_vec: FieldVector, sl: slice):
        space = field_vec.space
        local = space.gather_cells(field_vec, sl)
        if space.kind == "scalar":
            return np.einsum("cqld,cl->cqd", self.grads[sl], local, optimize=True)
        return np.einsum("cqld,cle->cqed", self.grads[sl], local, optimize=True)

    def coefficient(self, coeff, sl: slice):
        """Pointwise values of a coefficient (see the module docstring) at
        the quadrature nodes of the cells ``sl``."""
        if coeff is None:
            return np.ones_like(self.wdet[sl])
        if isinstance(coeff, Abs2):
            v = self.field_values(coeff.field, sl)
            return (v * v.conj()).real
        if isinstance(coeff, FieldVector):
            return self.field_values(coeff, sl).real
        return np.asarray(coeff(self.x[sl]))


def quadrature_table(mesh: Mesh, degree: int, qdeg: int | None = None) -> QuadratureTable:
    """The mesh's quadrature table for degree-``degree`` elements, cached on
    the mesh; ``qdeg`` defaults to ``quadrature_degree(degree)``."""
    qdeg = quadrature_degree(degree, qdeg)
    key = ("quadrature", degree, qdeg)
    if key not in mesh._geom:
        mesh._geom[key] = QuadratureTable(mesh, degree, qdeg)
    return mesh._geom[key]


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
    _check_coeff_mesh(space, weight)
    nloc = space.element.node_count
    loc = np.empty((space.mesh.n_cells, nloc, nloc))
    tab = quadrature_table(space.mesh, space.degree, qdeg)
    for sl in _chunks(space.mesh.n_cells, (nloc * space.ncomp) ** 2):
        w = tab.coefficient(weight, sl) * tab.wdet[sl]
        loc[sl] = _pairing(w[:, :, None] * tab.vals[None], tab.vals)
    return _on_pattern(space, loc, componentwise=space.kind == "vector")


def assemble_stiffness(space: FeSpace, qdeg: int | None = None) -> sp.csr_array:
    """Scalar stiffness (grad u, grad v)."""
    if space.kind != "scalar":
        raise ValueError("stiffness is assembled on scalar spaces")
    nloc = space.element.node_count
    loc = np.empty((space.mesh.n_cells, nloc, nloc))
    tab = quadrature_table(space.mesh, space.degree, qdeg)
    for sl in _chunks(space.mesh.n_cells, nloc * nloc):
        loc[sl] = _pairing(*_grad_rows(tab.grads[sl], tab.wdet[sl]))
    return _on_pattern(space, loc)


def _grad_rows(grads: np.ndarray, wdet: np.ndarray):
    """Weighted and plain gradient rows flattened over (point, direction)."""
    c, q, nloc, d = grads.shape
    g = grads.transpose(0, 2, 1, 3).reshape(c, nloc, q * d)
    gw = (grads * wdet[:, :, None, None]).transpose(0, 2, 1, 3).reshape(c, nloc, q * d)
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
    d = space.mesh.dim
    nloc = space.element.node_count
    loc = np.empty((space.mesh.n_cells, nloc * d, nloc * d))
    tab = quadrature_table(space.mesh, space.degree, qdeg)
    for sl in _chunks(space.mesh.n_cells, (nloc * d) ** 2):
        grads, wdet = tab.grads[sl], tab.wdet[sl]
        nc, nq = wdet.shape
        div = grads.reshape(nc, nq, nloc * d)           # (c, q, nloc*d)
        loc[sl] = _pairing(div * wdet[:, :, None], div)
        curl = _curl_rows(grads, d)
        # one curl component at a time: no flattened (c, q*3, nloc*d) copies
        for cm in ([curl] if d == 2 else np.moveaxis(curl, -1, 0)):
            loc[sl] += _pairing(cm * wdet[:, :, None], cm)
    return _on_pattern(space, loc)


def assemble_B(space: FeSpace, a_field: FieldVector, stiffness: sp.csr_array,
               qdeg: int | None = None) -> sp.csr_array:
    """Magnetic Schrodinger form ((i grad + A) u, (i grad + A) v).

    Expanded as (grad u, grad v) + (|A|^2 u, v) + i (v grad u - u grad v, A);
    Hermitian and positive semidefinite for any real A field.  The gradient
    term is A-independent: ``stiffness`` is that form, assembled on this space
    once, and only the A terms are assembled here.
    """
    if space.kind != "scalar" or space.dtype is not complex:
        raise ValueError("the magnetic form is assembled on a complex scalar space")
    if a_field.space.mesh is not space.mesh:
        raise ValueError("A-field lives on a different mesh")
    pat = space.pattern()
    if not np.may_share_memory(stiffness.indices, pat.indices):
        raise ValueError("stiffness is not on the pattern of this space")
    nloc = space.element.node_count
    loc = np.empty((space.mesh.n_cells, nloc, nloc), dtype=complex)
    tab = quadrature_table(space.mesh, space.degree, qdeg)
    for sl in _chunks(space.mesh.n_cells, nloc * nloc * 4):
        grads, wdet = tab.grads[sl], tab.wdet[sl]
        a_q = tab.field_values(a_field, sl)                    # (c, q, d)
        a2 = np.einsum("cqd,cqd->cq", a_q, a_q, optimize=True)
        loc[sl] = _pairing((a2 * wdet)[:, :, None] * tab.vals[None], tab.vals)
        a_dot_g = np.einsum("cqd,cqld->cql", a_q, grads, optimize=True)
        t = _pairing(wdet[:, :, None] * tab.vals[None], a_dot_g)
        loc[sl] += 1j * (t - np.swapaxes(t, 1, 2))
    values = pat.assemble(loc)
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
    out = np.zeros(space.n_dofs + 1)
    nloc = space.element.node_count
    d = space.mesh.dim
    tab = quadrature_table(space.mesh, space.degree, qdeg)
    for sl in _chunks(space.mesh.n_cells, nloc * d * 4):
        psi_q = tab.field_values(psi_field, sl)
        grad_q = tab.field_gradients(psi_field, sl)
        current = -np.imag(np.conj(psi_q)[..., None] * grad_q)   # (c, q, d)
        loc = np.einsum("cqm,qa,cq->cam", current, tab.vals, tab.wdet[sl], optimize=True)
        _scatter_load(out, _cell_dofs(space, sl),
                      loc.reshape(loc.shape[0], nloc * d))
    return out[:-1]


def assemble_source_load(space: FeSpace, source, qdeg: int | None = None) -> np.ndarray:
    """Load vector (s, v) for a source s(x)."""
    return assemble_coefficient_load(space, source, qdeg=qdeg)


def assemble_coefficient_load(space: FeSpace, coeff,
                              qdeg: int | None = None) -> np.ndarray:
    """Load vector of a pointwise coefficient against the space's test basis.

    Scalar spaces take the coefficients of the module docstring, vector
    spaces callables of x that return d-vectors.
    """
    _check_coeff_mesh(space, coeff)
    out = np.zeros(space.n_dofs + 1,
                   dtype=complex if space.dtype is complex else float)
    nloc = space.element.node_count
    d = space.mesh.dim
    tab = quadrature_table(space.mesh, space.degree, qdeg)
    for sl in _chunks(space.mesh.n_cells, nloc * space.ncomp * 4):
        s = tab.coefficient(coeff, sl)
        if space.kind == "scalar":
            loc = np.einsum("cq,qa->ca", s * tab.wdet[sl], tab.vals, optimize=True)
            _scatter_load(out, _cell_dofs(space, sl), loc)
        else:
            loc = np.einsum("cqm,qa,cq->cam", s, tab.vals, tab.wdet[sl], optimize=True)
            _scatter_load(out, _cell_dofs(space, sl),
                          loc.reshape(loc.shape[0], nloc * d))
    return out[:-1]


def _check_coeff_mesh(space: FeSpace, coeff):
    inner = getattr(coeff, "field", coeff)
    if isinstance(inner, FieldVector) and inner.space.mesh is not space.mesh:
        raise ValueError("coefficient field lives on a different mesh")
