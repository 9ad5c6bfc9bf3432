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
    "kuhn_corners",
    "lattice_points",
]

# slack of ``containing_cells`` for points on the boundary of [0,1]^d
DOMAIN_SLACK = 1e-12


def kuhn_corners(dim: int) -> np.ndarray:
    """The (d!, d+1, d) integer corners, in the unit cube, of the d!
    simplices of the Kuhn split, in the order of ``itertools.permutations``.

    The simplex of the permutation p starts at the cube's low corner and
    takes one unit step along each axis p[0], p[1], ...; an odd permutation
    swaps its last two corners, so that every simplex has det J > 0.
    """
    corners = []
    for perm in itertools.permutations(range(dim)):
        steps = np.eye(dim, dtype=int)[list(perm)]
        walk = np.cumsum(np.vstack([np.zeros(dim, dtype=int), steps]), axis=0)
        if sum(a > b for a, b in itertools.combinations(perm, 2)) % 2:
            walk[[-2, -1]] = walk[[-1, -2]]
        corners.append(walk)
    return np.array(corners)


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
        ``build_structured`` fills them from its d! templates; any other
        mesh computes them here, cell by cell.
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
        search ranks the walk.  A point outside [0,1]^d by more than
        ``DOMAIN_SLACK`` in some coordinate raises ValueError.
        """
        M, d = self.subdivisions, self.dim
        outside = np.any((points < -DOMAIN_SLACK) | (points > 1 + DOMAIN_SLACK), axis=1)
        if np.any(outside):
            raise ValueError(f"point {points[np.argmax(outside)]} lies outside [0, 1]^{d}")
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
    lexicographic order, and within a cube by permutation (``kuhn_corners``).
    The d! simplices of every cube are translates of the same d!
    templates, so the Jacobians J = C_p / M, with C_p the edge vectors of
    template p, their inverses and determinants are computed once per
    template and repeated cube by cube.
    """
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    if M < 1:
        raise ValueError(f"M must be a positive integer, got {M}")

    vertices_int = lattice_points(M + 1, dim)
    base = lattice_points(M, dim)  # the low corner of each cube
    strides = (M + 1) ** np.arange(dim - 1, -1, -1)
    corners = kuhn_corners(dim)
    # cube-major, permutation-minor: the d! simplices of a cube are adjacent
    cells = ((base[:, None, None] + corners) @ strides).reshape(-1, dim + 1)

    mesh = Mesh(
        dim=dim,
        subdivisions=M,
        vertices_int=vertices_int,
        vertices=vertices_int / float(M),
        cells=np.ascontiguousarray(cells),
        h=float(np.sqrt(dim)) / M,
    )
    # J's columns are the edge vectors v_i - v_0 of each template
    J = np.ascontiguousarray(np.swapaxes(corners[:, 1:] - corners[:, :1], 1, 2)) / M
    det = np.linalg.det(J)
    if np.any(det <= 0):
        raise AssertionError("structured mesh produced a non-positive cell volume")
    JinvT = np.ascontiguousarray(np.swapaxes(np.linalg.inv(J), 1, 2))
    n_cubes = M ** dim
    mesh._geom["jac"] = (np.tile(J, (n_cubes, 1, 1)), np.tile(JinvT, (n_cubes, 1, 1)),
                         np.tile(det, n_cubes))
    return mesh
