"""Structured simplicial meshes of the unit square/cube.

The generator subdivides (0,1)^d into a uniform grid of M^d cubes and splits
each into d! simplices, one per order of the axes (the Kuhn/Freudenthal
split; Freudenthal, Ann. of Math. 43 (1942) 580-582): the simplex of the
permutation p walks from the cube's low corner one unit step along each axis
p[0], p[1], ..., so 2 triangles for d = 2 and 6 tetrahedra for d = 3 come
out of one construction.  All vertices sit exactly on the lattice i/M, so
boundary detection is an integer comparison and never drifts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Mesh",
    "build_structured",
    "lattice_points",
]


def lattice_points(n: int, dim: int) -> np.ndarray:
    """The (n^dim, dim) points of {0, ..., n-1}^dim in lexicographic order,
    so a point's row is its key in base n."""
    axes = np.meshgrid(*[np.arange(n)] * dim, indexing="ij")
    return np.stack(axes, axis=-1).reshape(-1, dim)


@dataclass
class Mesh:
    """Simplicial partition of (0,1)^d with lattice-exact vertex coordinates.

    ``vertices_int`` holds the integer lattice coordinates (vertex = int/M);
    ``cells`` are (d+1)-tuples of vertex indices with positive orientation;
    ``h`` is the longest cell edge, the grid-cube diagonal sqrt(d)/M.
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
        return det / math.factorial(self.dim)

    def containing_cells(self, points: np.ndarray) -> np.ndarray:
        """Index of a cell containing each of the (n, d) points of [0,1]^d.

        The point's cube, and in it the Kuhn walk along the axes in
        descending order of the point's fractional coordinates, ties in axis
        order.  Read as base-d numbers the permutations increase in the
        order that ``build_structured`` lists a cube's simplices, so a sorted
        search ranks the walk.
        """
        M, d = self.subdivisions, self.dim
        scaled = points * M
        base = np.clip(np.floor(scaled).astype(int), 0, M - 1)
        order = np.argsort(-(scaled - base), axis=1, kind="stable")
        digits = d ** np.arange(d - 1, -1, -1)
        codes = np.array(list(itertools.permutations(range(d)))) @ digits
        cube = base @ M ** np.arange(d - 1, -1, -1)
        return cube * math.factorial(d) + np.searchsorted(codes, order @ digits)


def build_structured(dim: int, M: int) -> Mesh:
    """Mesh (0,1)^d with M subdivisions per direction.

    Produces d! M^d simplices, all positively oriented: cube by cube in
    lexicographic order, and within a cube by permutation.
    """
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    if M < 1:
        raise ValueError(f"M must be a positive integer, got {M}")

    vertices_int = lattice_points(M + 1, dim)
    base = lattice_points(M, dim)  # the low corner of each cube
    strides = (M + 1) ** np.arange(dim - 1, -1, -1)

    # one simplex per axis order, in the order of itertools.permutations: its
    # corners are the low corner and one unit step per axis in that order; an
    # odd order swaps its last two corners to keep det J > 0
    per_perm = []
    for perm in itertools.permutations(range(dim)):
        steps = np.eye(dim, dtype=int)[list(perm)]
        corners = np.cumsum(np.vstack([np.zeros(dim, dtype=int), steps]), axis=0)
        if sum(a > b for a, b in itertools.combinations(perm, 2)) % 2:
            corners[[-2, -1]] = corners[[-1, -2]]
        per_perm.append((base[:, None] + corners) @ strides)
    # the d! simplices of a cube are adjacent in cell order
    cells = np.stack(per_perm, axis=1).reshape(-1, dim + 1)

    mesh = Mesh(
        dim=dim,
        subdivisions=M,
        vertices_int=vertices_int,
        vertices=vertices_int / float(M),
        cells=np.ascontiguousarray(cells),
        h=float(np.sqrt(dim)) / M,
    )
    vols = mesh.cell_volumes()
    if np.any(vols <= 0):
        raise AssertionError("structured mesh produced a non-positive cell volume")
    return mesh
