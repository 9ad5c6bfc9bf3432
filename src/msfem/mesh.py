"""Structured simplicial meshes of the unit square/cube.

The generator subdivides (0,1)^d into a uniform grid of M^d squares/cubes and
splits each into 2 triangles (d=2) or 6 tetrahedra (d=3, Kuhn split).  All
vertices sit exactly on the lattice i/M, so boundary detection is an integer
comparison and never drifts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Mesh",
    "BoundaryFacet",
    "build_structured",
    "boundary_facets",
    "mesh_size",
]

# Permutations defining the Kuhn (Freudenthal) split of a cube into 6 tets.
_KUHN_PERMS = list(itertools.permutations(range(3)))


@dataclass(frozen=True)
class BoundaryFacet:
    """One boundary facet: its vertex indices, owning cell and outward normal."""

    vertices: tuple[int, ...]
    cell: int
    normal: np.ndarray


@dataclass
class Mesh:
    """Simplicial partition of (0,1)^d with lattice-exact vertex coordinates.

    ``vertices_int`` holds the integer lattice coordinates (vertex = int/M);
    ``cells`` are (d+1)-tuples of vertex indices with positive orientation.
    Instances are immutable by convention; geometry caches are filled lazily.
    """

    dim: int
    subdivisions: int
    vertices_int: np.ndarray  # (nv, d) int
    vertices: np.ndarray      # (nv, d) float
    cells: np.ndarray         # (nc, d+1) int
    h: float
    _geom: dict = field(default_factory=dict, repr=False)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    def cell_vertex_coords(self) -> np.ndarray:
        """Vertex coordinates per cell, shape (nc, d+1, d)."""
        return self.vertices[self.cells]

    def jacobians(self):
        """Affine map data per cell: (J, inverse-transpose of J, det J).

        J columns are edge vectors v_i - v_0; det J = d! * volume > 0.
        """
        if "jac" not in self._geom:
            coords = self.cell_vertex_coords()
            J = np.moveaxis(coords[:, 1:, :] - coords[:, :1, :], 1, 2)
            det = np.linalg.det(J)
            Jinv = np.linalg.inv(J)
            JinvT = np.ascontiguousarray(np.moveaxis(Jinv, 1, 2))
            self._geom["jac"] = (J, JinvT, det)
        return self._geom["jac"]

    def cell_volumes(self) -> np.ndarray:
        _, _, det = self.jacobians()
        fact = 2.0 if self.dim == 2 else 6.0
        return det / fact

    def boundary(self) -> list[BoundaryFacet]:
        if "bnd" not in self._geom:
            self._geom["bnd"] = _extract_boundary(self)
        return self._geom["bnd"]


def build_structured(dim: int, M: int) -> Mesh:
    """Mesh (0,1)^d with M subdivisions per direction.

    Produces 2*M^2 triangles or 6*M^3 tetrahedra, all positively oriented.
    """
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    if M < 1:
        raise ValueError(f"M must be a positive integer, got {M}")

    axes = [np.arange(M + 1)] * dim
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    vertices_int = grid.reshape(-1, dim)
    vertices = vertices_int / float(M)

    strides = np.array([(M + 1) ** (dim - 1 - a) for a in range(dim)])

    def vid(corner_int):
        return corner_int @ strides

    base = np.stack(
        np.meshgrid(*([np.arange(M)] * dim), indexing="ij"), axis=-1
    ).reshape(-1, dim)

    cells = []
    if dim == 2:
        v00 = vid(base)
        v10 = vid(base + [1, 0])
        v01 = vid(base + [0, 1])
        v11 = vid(base + [1, 1])
        cells.append(np.stack([v00, v10, v11], axis=1))
        cells.append(np.stack([v00, v11, v01], axis=1))
        cells = np.concatenate(cells).reshape(2, -1, 3)
        # interleave so both triangles of a square are adjacent in cell order
        cells = np.stack([cells[0], cells[1]], axis=1).reshape(-1, 3)
    else:
        per_perm = []
        for perm in _KUHN_PERMS:
            steps = np.zeros((4, dim), dtype=int)
            for i, a in enumerate(perm):
                steps[i + 1] = steps[i]
                steps[i + 1, a] += 1
            tet = np.stack([vid(base + steps[i]) for i in range(4)], axis=1)
            sgn = _perm_sign(perm)
            if sgn < 0:
                tet = tet[:, [0, 1, 3, 2]]
            per_perm.append(tet)
        cells = np.stack(per_perm, axis=1).reshape(-1, 4)

    mesh = Mesh(
        dim=dim,
        subdivisions=M,
        vertices_int=vertices_int,
        vertices=vertices,
        cells=np.ascontiguousarray(cells),
        h=float(np.sqrt(dim)) / M,
    )
    vols = mesh.cell_volumes()
    if np.any(vols <= 0):
        raise AssertionError("structured mesh produced a non-positive cell volume")
    return mesh


def _perm_sign(perm) -> int:
    sign = 1
    p = list(perm)
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                sign = -sign
    return sign


def mesh_size(mesh: Mesh) -> float:
    """Max cell diameter (longest edge over all cells)."""
    coords = mesh.cell_vertex_coords()
    nloc = mesh.dim + 1
    hmax = 0.0
    for i in range(nloc):
        for j in range(i + 1, nloc):
            e = coords[:, i, :] - coords[:, j, :]
            hmax = max(hmax, float(np.sqrt((e * e).sum(axis=1)).max()))
    return hmax


def _extract_boundary(mesh: Mesh) -> list[BoundaryFacet]:
    dim = mesh.dim
    nloc = dim + 1
    facet_of = {}
    for c in range(mesh.n_cells):
        cell = mesh.cells[c]
        for drop in range(nloc):
            fverts = tuple(sorted(int(v) for i, v in enumerate(cell) if i != drop))
            facet_of.setdefault(fverts, []).append(c)

    M = mesh.subdivisions
    out = []
    for fverts, owners in facet_of.items():
        if len(owners) != 1:
            continue
        ints = mesh.vertices_int[list(fverts)]
        normal = None
        for a in range(dim):
            if np.all(ints[:, a] == 0):
                normal = np.zeros(dim)
                normal[a] = -1.0
            elif np.all(ints[:, a] == M):
                normal = np.zeros(dim)
                normal[a] = 1.0
        if normal is None:
            raise AssertionError(f"boundary facet {fverts} not on an axis plane")
        out.append(BoundaryFacet(vertices=fverts, cell=owners[0], normal=normal))
    out.sort(key=lambda f: f.vertices)
    return out


def boundary_facets(mesh: Mesh) -> list[BoundaryFacet]:
    """All facets on x_i in {0,1}, each with its outward axis-aligned normal."""
    return mesh.boundary()
