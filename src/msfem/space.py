"""Finite element spaces on the structured meshes.

Scalar spaces (real or complex) carry homogeneous Dirichlet constraints on all
boundary nodes; vector spaces constrain the tangential components node by node
(A x n = 0), taking the union of the face rules on edges and corners.
Constrained dofs are eliminated: coefficient vectors hold free dofs only and
constrained entries evaluate as zero.  The lattice node numbering of each
(mesh, degree) and the CSR pattern of each dof numbering are built once and
cached on the mesh, so spaces that share a numbering share its pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .elements import reference_element
from .mesh import Mesh
from .sparsela import Pattern

__all__ = [
    "FeSpace",
    "FieldVector",
    "BoundaryValueError",
    "build_scalar_space",
    "build_vector_space",
    "interpolate",
    "evaluate",
    "locate_points",
]


class BoundaryValueError(ValueError):
    """Interpolation target does not vanish where the space is constrained."""


@dataclass
class FeSpace:
    mesh: Mesh
    degree: int
    kind: str                 # "scalar" | "vector"
    dtype: type
    ncomp: int
    constrained_space: bool
    nodes_int: np.ndarray     # (nn, d) lattice coords at resolution degree*M
    nodes: np.ndarray         # (nn, d) float
    cell_nodes: np.ndarray    # (nc, nloc)
    constrained: np.ndarray   # (nn, ncomp) bool
    dof_index: np.ndarray     # (nn, ncomp) int, -1 where constrained
    n_dofs: int
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def element(self):
        return reference_element(self.mesh.dim, self.degree)

    def new_field(self) -> "FieldVector":
        return FieldVector(self, np.zeros(self.n_dofs, dtype=self.dtype))

    def cell_dof_index(self) -> np.ndarray:
        """Global dof per (cell, local node, comp); n_dofs marks constrained."""
        if "cell_dofs" not in self._cache:
            padded = np.where(self.dof_index < 0, self.n_dofs, self.dof_index)
            self._cache["cell_dofs"] = padded[self.cell_nodes]  # (nc, nloc, ncomp)
        return self._cache["cell_dofs"]

    def pattern(self) -> Pattern:
        """CSR pattern of the forms on this space, over (node, comp) local dofs.

        The numbering is fixed by the mesh, degree, kind and constraint flag,
        so e.g. the real and complex Dirichlet scalar spaces share one pattern.
        """
        key = ("pattern", self.degree, self.kind, self.constrained_space)
        store = self.mesh._geom
        if key not in store:
            cd = self.cell_dof_index()
            store[key] = Pattern(cd.reshape(cd.shape[0], -1), self.n_dofs)
        return store[key]

    def gather_cells(self, field_vec: "FieldVector", cells=slice(None)) -> np.ndarray:
        """Local coefficient values per cell, constrained entries as zero.

        Shape (ncells, nloc) for scalar spaces, (ncells, nloc, ncomp) for
        vector ones.
        """
        padded = np.concatenate([field_vec.data, np.zeros(1, dtype=field_vec.data.dtype)])
        vals = padded[self.cell_dof_index()[cells]]
        if self.kind == "scalar":
            return vals[..., 0]
        return vals

    def scatter_nodal(self, nodal_values: np.ndarray) -> "FieldVector":
        """Coefficient vector from per-(node, comp) values; constrained dropped."""
        nv = nodal_values.reshape(self.n_nodes, self.ncomp)
        out = np.empty(self.n_dofs, dtype=self.dtype)
        free = ~self.constrained
        out[self.dof_index[free]] = nv[free].astype(self.dtype)
        return FieldVector(self, out)


@dataclass
class FieldVector:
    """Coefficient vector over the free dofs of one space."""

    space: FeSpace
    data: np.ndarray

    def copy(self) -> "FieldVector":
        return FieldVector(self.space, self.data.copy())

    def nodal_values(self) -> np.ndarray:
        """Per-(node, comp) values including the constrained zeros."""
        out = np.zeros((self.space.n_nodes, self.space.ncomp), dtype=self.data.dtype)
        free = ~self.space.constrained
        out[free] = self.data[self.space.dof_index[free]]
        if self.space.kind == "scalar":
            return out[:, 0]
        return out


def _global_nodes(mesh: Mesh, degree: int):
    """Lattice nodes of degree ``degree`` and their per-cell numbering, cached
    on the mesh."""
    key = ("nodes", degree)
    if key not in mesh._geom:
        elem = reference_element(mesh.dim, degree)
        vints = mesh.vertices_int[mesh.cells]              # (nc, d+1, d)
        node_ints = np.einsum("lk,ckd->cld", elem.vertex_weights, vints)
        flat = node_ints.reshape(-1, mesh.dim)
        uniq, inverse = np.unique(flat, axis=0, return_inverse=True)
        mesh._geom[key] = uniq, inverse.reshape(mesh.n_cells, elem.node_count)
    return mesh._geom[key]


def build_scalar_space(mesh: Mesh, degree: int, *, complex_field: bool = False,
                       dirichlet: bool = True) -> FeSpace:
    """Degree-r scalar Lagrange space, H^1_0-constrained unless dirichlet=False."""
    nodes_int, cell_nodes = _global_nodes(mesh, degree)
    res = degree * mesh.subdivisions
    on_boundary = np.any((nodes_int == 0) | (nodes_int == res), axis=1)
    constrained = (on_boundary if dirichlet
                   else np.zeros(nodes_int.shape[0], dtype=bool))[:, None]
    return _finish_space(mesh, degree, "scalar",
                         complex if complex_field else float, 1, dirichlet,
                         nodes_int, cell_nodes, constrained)


def build_vector_space(mesh: Mesh, degree: int, *, constrained: bool = True) -> FeSpace:
    """Componentwise degree-r vector space with tangential-trace constraints.

    On a face with normal +-e_a the components other than a are constrained;
    constraint masks are unioned where faces meet.
    """
    nodes_int, cell_nodes = _global_nodes(mesh, degree)
    res = degree * mesh.subdivisions
    d = mesh.dim
    mask = np.zeros((nodes_int.shape[0], d), dtype=bool)
    if constrained:
        for a in range(d):
            on_face = (nodes_int[:, a] == 0) | (nodes_int[:, a] == res)
            for c in range(d):
                if c != a:
                    mask[on_face, c] = True
    return _finish_space(mesh, degree, "vector", float, d, constrained,
                         nodes_int, cell_nodes, mask)


def _finish_space(mesh, degree, kind, dtype, ncomp, constrained_space,
                  nodes_int, cell_nodes, constrained):
    free = ~constrained
    dof_index = np.full(constrained.shape, -1, dtype=np.int64)
    dof_index[free] = np.arange(int(free.sum()))
    return FeSpace(
        mesh=mesh,
        degree=degree,
        kind=kind,
        dtype=dtype,
        ncomp=ncomp,
        constrained_space=constrained_space,
        nodes_int=nodes_int,
        nodes=nodes_int / float(degree * mesh.subdivisions),
        cell_nodes=cell_nodes,
        constrained=constrained,
        dof_index=dof_index,
        n_dofs=int(free.sum()),
    )


def interpolate(space: FeSpace, fn, *, check: bool = True,
                tol: float = 1e-10) -> FieldVector:
    """Pointwise nodal interpolation of ``fn(x)`` onto the space.

    With ``check`` on, a nonzero value (beyond ``tol``) at a constrained
    (node, component) raises BoundaryValueError instead of being dropped.
    """
    vals = np.asarray(fn(space.nodes))
    expected = (space.n_nodes,) if space.kind == "scalar" else (space.n_nodes, space.ncomp)
    if vals.shape != expected:
        vals = np.array([fn(x) for x in space.nodes])
    vals = vals.reshape(space.n_nodes, space.ncomp)
    if check and space.constrained.any():
        bad = np.abs(vals) * space.constrained
        worst = bad.max()
        if worst > tol:
            n, c = np.unravel_index(int(bad.argmax()), bad.shape)
            raise BoundaryValueError(
                f"interpolation target violates constraint at node {n} "
                f"x={space.nodes[n]} component {c}: |value|={worst:.3e}")
    return space.scatter_nodal(vals)


def evaluate(field_vec: FieldVector, cell: int, point_ref, *, gradient: bool = False):
    """Value (and optionally physical gradient) of a field inside one cell."""
    space = field_vec.space
    elem = space.element
    pt = np.atleast_2d(np.asarray(point_ref, dtype=float))
    vals, grads_ref = elem.tabulate(pt)
    local = space.gather_cells(field_vec, cells=slice(cell, cell + 1))[0]
    if space.kind == "scalar":
        value = vals[0] @ local
    else:
        value = vals[0] @ local  # (ncomp,)
    if not gradient:
        return value
    _, JinvT, _ = space.mesh.jacobians()
    g_phys = grads_ref[0] @ JinvT[cell].T      # (nloc, d)
    if space.kind == "scalar":
        grad = g_phys.T @ local
    else:
        grad = np.einsum("lc,ld->cd", local, g_phys)
    return value, grad


def locate_points(mesh: Mesh, points: np.ndarray):
    """Find (cell index, reference coords) for physical points.

    Relies on the structured cell ordering: the simplex within each grid cube
    is selected by the descending order of the fractional coordinates.
    """
    from .mesh import _KUHN_PERMS

    pts = np.atleast_2d(np.asarray(points, dtype=float))
    M = mesh.subdivisions
    d = mesh.dim
    scaled = pts * M
    base = np.clip(np.floor(scaled).astype(int), 0, M - 1)
    frac = scaled - base
    nper = 2 if d == 2 else 6
    strides = np.array([M ** (d - 1 - a) for a in range(d)])
    cube = base @ strides
    cells = np.empty(pts.shape[0], dtype=int)
    if d == 2:
        cells[:] = cube * nper + (frac[:, 0] < frac[:, 1])
    else:
        perm_index = {p: i for i, p in enumerate(_KUHN_PERMS)}
        order = np.argsort(-frac, axis=1, kind="stable")
        for i in range(pts.shape[0]):
            cells[i] = cube[i] * nper + perm_index[tuple(order[i])]
    _, JinvT, _ = mesh.jacobians()
    v0 = mesh.vertices[mesh.cells[cells, 0]]
    ref = np.einsum("nij,nj->ni", np.moveaxis(JinvT[cells], 1, 2), pts - v0)
    return cells, ref
