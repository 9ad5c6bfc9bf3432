"""Finite element spaces on the Kuhn lattice.

A space is a constraint mask on the node numbering of its (mesh, degree).
The nodes of degree r are the whole lattice of resolution rM (each point is
a vertex or an edge midpoint of the Kuhn split), so a node's number is its
lattice key, the lexicographic rank of its integer coordinates.  Every cell
is one of d! templates translated to its cube, so the numbering is a closed
form, the key of the cube's corner plus the template's key offset of each
local node (``_stencil``); for P1 it is the mesh's ``vertices_int`` and
``cells``.  The numbering, its summation matrices (``sparsela.CellSums``,
from the same stencil with no sort) and the CSR pattern of each dof
numbering are cached on the mesh, so all spaces of one (mesh, degree) share
the numbering and the summation, and spaces with the same dofs one pattern.
The scalar spaces (psi, phi) constrain every boundary node (homogeneous
Dirichlet) unless built without constraints; the vector space (A)
constrains the tangential components node by node (n x A = 0), the union
of the face rules on edges and corners, which makes its div-div + curl-curl
form the componentwise stiffness (``forms.assemble_D``).  Coefficient
vectors hold the free dofs only, in C order of the (nodes, components)
mask; constrained entries evaluate as zero.  ``evaluate`` and
``locate_points``, the tests' pointwise path, map between reference and
physical coordinates by the cell's template Jacobian (cell c is template
c % d!, see ``mesh.Mesh``).
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
    """A degree-r Lagrange space on a mesh: a constraint mask on the node
    numbering of its (mesh, degree).

    It stores what defines it: ``mesh``, ``degree``, ``dtype`` and
    ``constrained``, the (nodes, ncomp) mask of the (node, component) pairs
    held at zero, one column for a scalar space and d for a vector one; and,
    derived from the mask once, ``dof_index`` (-1 where constrained, the
    free pairs numbered 0, 1, ... in C order of the mask) and ``n_dofs``.
    It borrows the rest from the numbering cached on the mesh
    (``_global_nodes``): ``nodes_int``, ``cell_nodes`` and ``nodes``;
    ``n_nodes``, ``ncomp`` and ``kind`` are read off the mask's shape.
    """

    mesh: Mesh
    degree: int
    dtype: type
    constrained: np.ndarray                       # (nn, ncomp) bool
    dof_index: np.ndarray = field(init=False)     # (nn, ncomp) int, -1 where constrained
    n_dofs: int = field(init=False)

    def __post_init__(self):
        free = ~self.constrained
        self.n_dofs = int(free.sum())
        self.dof_index = np.full(free.shape, -1, dtype=np.int64)
        self.dof_index[free] = np.arange(self.n_dofs)

    @property
    def nodes_int(self) -> np.ndarray:      # (nn, d) at lattice resolution degree * M
        return _global_nodes(self.mesh, self.degree)[0]

    @property
    def cell_nodes(self) -> np.ndarray:     # (cells, nloc)
        return _global_nodes(self.mesh, self.degree)[1]

    @property
    def nodes(self) -> np.ndarray:
        """(nn, d) node coordinates, computed on each call."""
        return self.nodes_int / float(self.degree * self.mesh.subdivisions)

    @property
    def ncomp(self) -> int:
        return self.constrained.shape[1]

    @property
    def kind(self) -> str:
        return "scalar" if self.ncomp == 1 else "vector"

    @property
    def n_nodes(self) -> int:
        return self.constrained.shape[0]

    @property
    def element(self):
        return reference_element(self.mesh.dim, self.degree)

    def pattern(self) -> Pattern:
        """CSR pattern of the forms on this space, coupling the same component
        of the nodes of each cell.

        The dofs are fixed by the mesh, degree, component count and whether
        any dof is constrained, so e.g. the real and complex Dirichlet scalar
        spaces share one pattern.
        """
        key = ("pattern", self.degree, self.ncomp, bool(self.constrained.any()))
        store = self.mesh._geom
        if key not in store:
            store[key] = Pattern(_cell_sums(self.mesh, self.degree), self.dof_index)
        return store[key]

    def gather_cells(self, field_vec: "FieldVector") -> np.ndarray:
        """Local coefficient values of every cell, constrained entries as
        zero.

        Shape (cells, nloc) for scalar spaces, (cells, nloc, ncomp) for
        vector ones.
        """
        # np.take, as numpy's fancy index of the rows of a narrow array is ~10x slower
        return np.take(field_vec.nodal_values(), self.cell_nodes, axis=0)


@dataclass
class FieldVector:
    """Coefficient vector over the free dofs of one space."""

    space: FeSpace
    data: np.ndarray

    def nodal_values(self) -> np.ndarray:
        """Per-(node, comp) values including the constrained zeros: (nn,) on
        scalar spaces, (nn, ncomp) on vector ones."""
        out = np.zeros(self.space.constrained.shape, dtype=self.data.dtype)
        out[~self.space.constrained] = self.data      # the dofs are in C order of the mask
        return out[:, 0] if self.space.kind == "scalar" else out


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
    (``_stencil``); for r = 1 they are ``mesh.vertices_int`` and
    ``mesh.cells`` themselves.
    """
    key = ("nodes", degree)
    if key not in mesh._geom:
        if degree == 1:     # the vertices: share, do not copy
            mesh._geom[key] = mesh.vertices_int, mesh.cells
        else:
            base, offset = _stencil(mesh, degree)
            mesh._geom[key] = (lattice_points(degree * mesh.subdivisions + 1, mesh.dim),
                               (base[:, None, None] + offset).reshape(-1, offset.shape[1]))
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
    """Degree-r scalar Lagrange space, H^1_0-constrained unless dirichlet=False,
    a test fixture: no run builds it, and its boundary rows make the form
    oracles compare every entry of a form."""
    nodes_int, _ = _global_nodes(mesh, degree)
    res = degree * mesh.subdivisions
    on_boundary = np.any((nodes_int == 0) | (nodes_int == res), axis=1)
    constrained = (on_boundary if dirichlet
                   else np.zeros(nodes_int.shape[0], dtype=bool))[:, None]
    return FeSpace(mesh, degree, complex if complex_field else float, constrained)


def build_vector_space(mesh: Mesh, degree: int) -> FeSpace:
    """Componentwise degree-r vector space with n x A = 0.

    On a face with normal +-e_a the components other than a are constrained;
    constraint masks are unioned where faces meet.
    """
    nodes_int, _ = _global_nodes(mesh, degree)
    res = degree * mesh.subdivisions
    on_face = (nodes_int == 0) | (nodes_int == res)       # (nn, a): on a face of normal e_a
    mask = (on_face[:, :, None] & ~np.eye(mesh.dim, dtype=bool)).any(axis=1)
    return FeSpace(mesh, degree, float, mask)


def interpolate(space: FeSpace, fn) -> FieldVector:
    """Pointwise nodal interpolation of ``fn(x)`` onto the space.

    ``fn`` is vectorised: it maps the (nodes, d) array of node coordinates to
    (nodes,) values on scalar spaces and (nodes, d) on vector ones; any other
    shape raises ValueError, and so does a value that is not finite or, on a
    real space, complex with an imaginary part beyond 1e-10.  A nonzero value
    (beyond 1e-10) at a constrained (node, component) raises
    BoundaryValueError instead of being dropped.
    """
    nodes = space.nodes
    vals = np.asarray(fn(nodes))
    expected = (space.n_nodes,) if space.kind == "scalar" else (space.n_nodes, space.ncomp)
    if vals.shape != expected:
        raise ValueError(f"interpolation target returned shape {vals.shape}, "
                         f"expected {expected}")
    vals = vals.reshape(space.n_nodes, space.ncomp)
    finite = np.isfinite(vals)
    if not finite.all():
        n, c = np.argwhere(~finite)[0]
        raise ValueError(f"interpolation target is not finite at node {n} "
                         f"x={nodes[n]} component {c}: value={vals[n, c]}")
    if np.iscomplexobj(vals) and space.dtype is not complex:
        worst = np.abs(vals.imag).max(initial=0.0)
        if worst > 1e-10:
            raise ValueError(f"complex interpolation target on a real space: "
                             f"|imaginary part| reaches {worst:.3e}")
        vals = vals.real
    if space.constrained.any():
        bad = np.abs(vals) * space.constrained
        worst = bad.max()
        if worst > 1e-10:
            n, c = np.unravel_index(int(bad.argmax()), bad.shape)
            raise BoundaryValueError(
                f"interpolation target violates constraint at node {n} "
                f"x={nodes[n]} component {c}: |value|={worst:.3e}")
    # the dofs are the free pairs in C order of the mask
    return FieldVector(space, vals[~space.constrained].astype(space.dtype))


def evaluate(field_vec: FieldVector, cell: int, point_ref, *, gradient: bool = False):
    """Value (and optionally physical gradient) of a field inside one cell, at
    one reference point (d,) or at n of them (n, d), which add a leading n
    axis.  It reads the cell's dofs alone, O(nloc) per call.  No form calls
    it; it is the tests' pointwise reference."""
    space = field_vec.space
    pt = np.asarray(point_ref, dtype=float)
    vals, grads_ref = space.element.tabulate(np.atleast_2d(pt))   # (n, nloc), (n, nloc, d)
    # the cell's (nloc, ncomp) dofs, read alone: zero where constrained
    dofs = space.dof_index[space.cell_nodes[cell]]
    local = np.zeros(dofs.shape, dtype=field_vec.data.dtype)
    local[dofs >= 0] = field_vec.data[dofs[dofs >= 0]]
    if space.kind == "scalar":
        local = local[:, 0]
    out = [vals @ local]                       # (n,), or (n, comp) on vector spaces
    if gradient:
        JinvT = space.mesh.JinvT[cell % len(space.mesh.JinvT)]   # the cell's template
        out.append(np.einsum("l...,nld->n...d", local, grads_ref @ JinvT.T))
    if pt.ndim == 1:
        out = [v[0] for v in out]
    return tuple(out) if gradient else out[0]


def locate_points(mesh: Mesh, points: np.ndarray):
    """Find (cell index, reference coords) for physical points: xi = J^{-1}
    (x - v_0) with J the cell's template Jacobian; like ``evaluate``, the
    tests' path."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    cells = mesh.containing_cells(pts)
    JinvT = mesh.JinvT[cells % len(mesh.JinvT)]
    v0 = mesh.vertices[mesh.cells[cells, 0]]
    ref = np.einsum("nij,nj->ni", np.moveaxis(JinvT, 1, 2), pts - v0)
    return cells, ref
