"""The Kuhn lattice: the one simplicial mesh of the unit square/cube.

``Mesh(dim, M)`` subdivides (0,1)^d into a uniform grid of M^d cubes and
splits each into d! simplices, one per order of the axes (the
Kuhn/Freudenthal split; Freudenthal, Ann. of Math. 43 (1942) 580-582): the
simplex of the permutation p walks from the cube's low corner one unit step
along each axis p[0], p[1], ..., so 2 triangles for d = 2 and 6 tetrahedra
for d = 3 come out of one construction.  All vertices sit exactly on the
lattice i/M, so boundary detection is an integer comparison and never
drifts.  The d! simplices of every cube are translates of the same d!
templates, so the cell geometry is d! Jacobians and one determinant
(Kirby & Logg, ACM TOMS 32(3), 2006): cell c is template c % d!.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

__all__ = [
    "Mesh",
    "build_structured",
    "kuhn_corners",
    "kuhn_stencil",
    "lattice_points",
    "require_integer",
]

# slack of ``containing_cells`` for points on the boundary of [0,1]^d
DOMAIN_SLACK = 1e-12


def require_integer(name: str, value):
    """Raise ValueError unless ``value`` is an integer (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


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


def kuhn_stencil(dim: int, M: int, weights: np.ndarray):
    """Node keys on the Kuhn lattice of M cubes per axis as translates of
    the d! templates: cell k d! + p has the keys base[k] + offset[p].

    The nodes are the integer combinations ``weights`` (nloc, d+1) of a
    cell's vertices z + corner, each row summing to r, so they lie on the
    lattice {0, ..., rM}^d and a key is a point's lexicographic rank there.
    ``base`` (M^d,) is the key of r z, z the low corner of cube k, and
    ``offset`` (d!, nloc) the key of ``weights @ kuhn_corners(dim)[p]``.
    """
    r = int(weights[0].sum())
    strides = (r * M + 1) ** np.arange(dim - 1, -1, -1)
    return r * lattice_points(M, dim) @ strides, weights @ kuhn_corners(dim) @ strides


def lattice_points(n: int, dim: int) -> np.ndarray:
    """The (n^dim, dim) points of {0, ..., n-1}^dim in lexicographic order,
    so a point's row is its key in base n."""
    axes = np.meshgrid(*[np.arange(n)] * dim, indexing="ij")
    return np.stack(axes, axis=-1).reshape(-1, dim)


class Mesh:
    """The Kuhn lattice of (0,1)^d with M subdivisions per direction.

    ``vertices_int`` holds the integer lattice coordinates {0, ..., M}^d in
    lexicographic order and ``vertices`` the points ``vertices_int`` / M;
    ``cells`` are the (d! M^d, d+1) positively oriented vertex keys, cube by
    cube in lexicographic order and within a cube by permutation
    (``kuhn_corners``; the keys are ``kuhn_stencil``'s); ``h`` is the
    longest cell edge, the cube diagonal sqrt(d)/M.

    The geometry is the templates': ``J`` and ``JinvT`` (d!, d, d) the
    Jacobian of each template (columns v_i - v_0) and its inverse
    transpose, and ``det`` the one det J = 1/M^d, so cell c has Jacobian
    ``J[c % d!]``.  Instances are immutable by convention; ``_geom`` caches
    what spaces and forms build on the mesh.
    """

    def __init__(self, dim: int, M: int):
        require_integer("dim", dim)
        require_integer("M", M)
        if dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {dim}")
        if M < 1:
            raise ValueError(f"M must be a positive integer, got {M}")
        self.dim = dim
        self.subdivisions = M
        self.vertices_int = lattice_points(M + 1, dim)
        self.vertices = self.vertices_int / float(M)
        base, offset = kuhn_stencil(dim, M, np.eye(dim + 1, dtype=int))
        self.cells = (base[:, None, None] + offset).reshape(-1, dim + 1)
        corners = kuhn_corners(dim)
        self.h = float(np.sqrt(dim)) / M
        self.J = np.ascontiguousarray(np.swapaxes(corners[:, 1:] - corners[:, :1], 1, 2)) / M
        self.JinvT = np.ascontiguousarray(np.swapaxes(np.linalg.inv(self.J), 1, 2))
        # the same for every template: a Kuhn simplex has det 1 before the 1/M scaling
        self.det = float(np.linalg.det(self.J)[0])
        self._geom = {}

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    def containing_cells(self, points: np.ndarray) -> np.ndarray:
        """Index of a cell containing each of the (n, d) points of [0,1]^d.

        The point's cube, and in it the Kuhn walk along the axes in
        descending order of the point's fractional coordinates, ties in axis
        order.  Read as base-d numbers the permutations increase in the
        order that the cells list a cube's simplices, so a sorted search
        ranks the walk.  A point outside [0,1]^d by more than
        ``DOMAIN_SLACK`` in some coordinate, or not finite, raises
        ValueError.
        """
        M, d = self.subdivisions, self.dim
        # a NaN fails both comparisons, so it counts as outside
        outside = ~np.all((points >= -DOMAIN_SLACK) & (points <= 1 + DOMAIN_SLACK), axis=1)
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
    """The Kuhn lattice of (0,1)^d with M subdivisions per direction: d! M^d
    positively oriented simplices (see ``Mesh``)."""
    return Mesh(dim, M)
