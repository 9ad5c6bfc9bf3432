"""Finite element spaces on the Kuhn lattice.

Scalar spaces (real or complex) carry homogeneous Dirichlet constraints on all
boundary nodes unless built without them; vector spaces always constrain the
tangential components node by node (n x A = 0), taking the union of the face
rules on edges and corners, which makes their div-div + curl-curl form the
componentwise stiffness (``forms.assemble_D``).  Constrained dofs are
eliminated: coefficient vectors hold free dofs only and constrained entries
evaluate as zero.  The nodes of degree r are the whole lattice of
resolution rM (each point is a vertex or an edge midpoint of the Kuhn
split), so a node's number is its lattice key, the lexicographic rank of its
integer coordinates.  Every cell is one of d! templates translated to its
cube, so the numbering is a closed form, the key of the cube's corner plus
the template's key offset of each local node (``_stencil``), and the
summation matrices are built from the same stencil with no sort
(``sparsela.CellSums``).  The node numbering of each (mesh, degree), its
summation matrices and the CSR pattern of each dof numbering are built once
and cached on the mesh, so spaces that share a numbering share its pattern,
and the scalar and vector patterns of one degree share the summation.
``evaluate`` and ``locate_points``, the pointwise path, map between
reference and physical coordinates by the cell's template Jacobian (cell c
is template c % d!, see ``mesh.Mesh``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .elements import reference_element
from .mesh import Mesh, kuhn_stencil, lattice_points
from .sparsela import CellSums, Pattern

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

    def cell_dof_index(self) -> np.ndarray:
        """Global dof per (cell, local node, comp); n_dofs marks constrained."""
        if "cell_dofs" not in self._cache:
            padded = np.where(self.dof_index < 0, self.n_dofs, self.dof_index)
            # (nc, nloc, ncomp); np.take, as numpy's fancy index of the rows
            # of a narrow array is ~10x slower
            self._cache["cell_dofs"] = np.take(padded, self.cell_nodes, axis=0)
        return self._cache["cell_dofs"]

    def pattern(self) -> Pattern:
        """CSR pattern of the forms on this space, coupling the same component
        of the nodes of each cell.

        The numbering is fixed by the mesh, degree, kind and constraint flag,
        so e.g. the real and complex Dirichlet scalar spaces share one pattern.
        """
        key = ("pattern", self.degree, self.kind, self.constrained_space)
        store = self.mesh._geom
        if key not in store:
            store[key] = Pattern(_cell_sums(self.mesh, self.degree), self.dof_index)
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

    def nodal_values(self) -> np.ndarray:
        """Per-(node, comp) values including the constrained zeros."""
        out = np.zeros((self.space.n_nodes, self.space.ncomp), dtype=self.data.dtype)
        free = ~self.space.constrained
        out[free] = self.data[self.space.dof_index[free]]
        if self.space.kind == "scalar":
            return out[:, 0]
        return out


def _stencil(mesh: Mesh, degree: int):
    """The Kuhn stencil (``mesh.kuhn_stencil``) of the degree-``degree``
    nodes: cell k d! + p has the node keys base[k] + offset[p]."""
    return kuhn_stencil(mesh.dim, mesh.subdivisions,
                        reference_element(mesh.dim, degree).vertex_weights)


def _global_nodes(mesh: Mesh, degree: int):
    """Lattice nodes of degree ``degree`` and their per-cell numbering, cached
    on the mesh.

    For degree r <= 2 every point of the resolution-rM lattice is a node:
    for r = 2 the point 2v + e, e in {0, 1}^d, is the midpoint of vertices
    v and v + e, two corners of one cube ordered componentwise, and some
    Kuhn walk through that cube passes both, so they span a cell edge.  The
    nodes are therefore the whole lattice in lexicographic order, and a
    node's number is its lattice key, read off the template stencil
    (``_stencil``); for r = 1 the numbering is ``mesh.cells`` itself.
    """
    key = ("nodes", degree)
    if key not in mesh._geom:
        if degree == 1:
            cell_nodes = mesh.cells     # the vertex keys: share, do not copy
        else:
            base, offset = _stencil(mesh, degree)
            cell_nodes = (base[:, None, None] + offset).reshape(-1, offset.shape[1])
        mesh._geom[key] = lattice_points(degree * mesh.subdivisions + 1, mesh.dim), cell_nodes
    return mesh._geom[key]


def _cell_sums(mesh: Mesh, degree: int) -> CellSums:
    """The summation matrices of the degree-``degree`` node numbering,
    cached on the mesh: every pattern on that numbering shares them."""
    key = ("sums", degree)
    if key not in mesh._geom:
        nodes, _ = _global_nodes(mesh, degree)
        mesh._geom[key] = CellSums(*_stencil(mesh, degree), nodes.shape[0])
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


def build_vector_space(mesh: Mesh, degree: int) -> FeSpace:
    """Componentwise degree-r vector space with n x A = 0.

    On a face with normal +-e_a the components other than a are constrained;
    constraint masks are unioned where faces meet.
    """
    nodes_int, cell_nodes = _global_nodes(mesh, degree)
    res = degree * mesh.subdivisions
    d = mesh.dim
    mask = np.zeros((nodes_int.shape[0], d), dtype=bool)
    for a in range(d):
        on_face = (nodes_int[:, a] == 0) | (nodes_int[:, a] == res)
        for c in range(d):
            if c != a:
                mask[on_face, c] = True
    return _finish_space(mesh, degree, "vector", float, d, True,
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


def interpolate(space: FeSpace, fn) -> FieldVector:
    """Pointwise nodal interpolation of ``fn(x)`` onto the space.

    ``fn`` is vectorised: it maps the (nodes, d) array of node coordinates to
    (nodes,) values on scalar spaces and (nodes, d) on vector ones; any other
    shape raises ValueError, and so do complex values with an imaginary part
    beyond 1e-10 on a real space.  A nonzero value (beyond 1e-10) at a
    constrained (node, component) raises BoundaryValueError instead of being
    dropped.
    """
    vals = np.asarray(fn(space.nodes))
    expected = (space.n_nodes,) if space.kind == "scalar" else (space.n_nodes, space.ncomp)
    if vals.shape != expected:
        raise ValueError(f"interpolation target returned shape {vals.shape}, "
                         f"expected {expected}")
    if np.iscomplexobj(vals) and space.dtype is not complex:
        worst = np.abs(vals.imag).max(initial=0.0)
        if worst > 1e-10:
            raise ValueError(f"complex interpolation target on a real space: "
                             f"|imaginary part| reaches {worst:.3e}")
        vals = vals.real
    vals = vals.reshape(space.n_nodes, space.ncomp)
    if space.constrained.any():
        bad = np.abs(vals) * space.constrained
        worst = bad.max()
        if worst > 1e-10:
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
    value = vals[0] @ local   # scalar, or (ncomp,) on vector spaces
    if not gradient:
        return value
    JinvT = space.mesh.JinvT[cell % len(space.mesh.JinvT)]   # the cell's template
    g_phys = grads_ref[0] @ JinvT.T            # (nloc, d)
    if space.kind == "scalar":
        grad = g_phys.T @ local
    else:
        grad = np.einsum("lc,ld->cd", local, g_phys)
    return value, grad


def locate_points(mesh: Mesh, points: np.ndarray):
    """Find (cell index, reference coords) for physical points: xi = J^{-1}
    (x - v_0) with J the cell's template Jacobian."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    cells = mesh.containing_cells(pts)
    JinvT = mesh.JinvT[cells % len(mesh.JinvT)]
    v0 = mesh.vertices[mesh.cells[cells, 0]]
    ref = np.einsum("nij,nj->ni", np.moveaxis(JinvT, 1, 2), pts - v0)
    return cells, ref
