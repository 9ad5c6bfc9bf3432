"""Reference simplex Lagrange elements (degrees 1 and 2) and quadrature.

P2 places one node per vertex and one per edge, the edges (a, b), a < b, in
lexicographic order.  Quadrature rules collapse a tensor rule on the unit
cube onto the simplex, one construction in every dimension (Stroud,
Approximate Calculation of Multiple Integrals, 1971): coordinate k takes the
n-point Gauss-Jacobi rule with weight (1 - c_k)^k on [0, 1], and the point is
x_k = c_k (1 - c_{k+1}) ... (1 - c_{d-1}).  The collapse has Jacobian
determinant prod_k (1 - c_k)^k, which those weights carry, so with
n = ceil((q + 1) / 2) points per coordinate the rule is exact to total
degree q by construction, with no hard-coded point tables.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi

__all__ = [
    "ReferenceElement",
    "QuadratureRule",
    "AffineMap",
    "reference_element",
    "quadrature_rule",
    "affine_map",
]

MAX_QUADRATURE_DEGREE = 30


@dataclass(frozen=True)
class ReferenceElement:
    """Nodal Lagrange basis on the reference simplex.

    ``vertex_weights`` expresses each node as an integer combination of the
    cell vertices: node barycentric coords = vertex_weights / degree.  This is
    what lets global node coordinates stay on an exact integer lattice.
    """

    dim: int
    degree: int
    node_count: int
    nodes_bary: np.ndarray      # (nloc, d+1)
    vertex_weights: np.ndarray  # (nloc, d+1) int

    def tabulate(self, points_ref: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Basis values and reference-coordinate gradients at the given points.

        Returns (values (npts, nloc), gradients (npts, nloc, dim)).
        """
        pts = np.atleast_2d(np.asarray(points_ref, dtype=float))
        lam, dlam = _barycentric(self.dim, pts)
        npts = pts.shape[0]
        vals = np.empty((npts, self.node_count))
        grads = np.empty((npts, self.node_count, self.dim))
        if self.degree == 1:
            for i in range(self.dim + 1):
                vals[:, i] = lam[:, i]
                grads[:, i, :] = dlam[i]
        else:
            nv = self.dim + 1
            for i in range(nv):
                vals[:, i] = lam[:, i] * (2.0 * lam[:, i] - 1.0)
                grads[:, i, :] = (4.0 * lam[:, i] - 1.0)[:, None] * dlam[i]
            for e, (a, b) in enumerate(itertools.combinations(range(nv), 2)):
                j = nv + e
                vals[:, j] = 4.0 * lam[:, a] * lam[:, b]
                grads[:, j, :] = 4.0 * (
                    lam[:, b][:, None] * dlam[a] + lam[:, a][:, None] * dlam[b]
                )
        return vals, grads


def _barycentric(dim: int, pts: np.ndarray):
    """Barycentric coords and their (constant) reference gradients."""
    lam = np.empty((pts.shape[0], dim + 1))
    lam[:, 0] = 1.0 - pts.sum(axis=1)
    lam[:, 1:] = pts
    dlam = [np.full(dim, -1.0)] + [np.eye(dim)[i] for i in range(dim)]
    return lam, dlam


def reference_element(dim: int, degree: int) -> ReferenceElement:
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    if degree not in (1, 2):
        raise ValueError(f"element degree must be 1 or 2, got {degree}")
    nv = dim + 1
    if degree == 1:
        weights = np.eye(nv, dtype=int)
    else:
        rows = [2 * np.eye(nv, dtype=int)[i] for i in range(nv)]
        for a, b in itertools.combinations(range(nv), 2):
            w = np.zeros(nv, dtype=int)
            w[a] = w[b] = 1
            rows.append(w)
        weights = np.array(rows)
    return ReferenceElement(
        dim=dim,
        degree=degree,
        node_count=weights.shape[0],
        nodes_bary=weights / float(degree),
        vertex_weights=weights,
    )


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature on the reference simplex, exact for total degree <= degree."""

    dim: int
    degree: int
    points_ref: np.ndarray   # (npts, d)
    weights: np.ndarray      # (npts,), sum = 1/d!


def _jacobi01(n: int, alpha: int):
    """n-point Gauss-Jacobi rule for the weight (1-x)^alpha on [0,1]."""
    x, w = roots_jacobi(n, alpha, 0.0)
    return (x + 1.0) / 2.0, w / 2.0 ** (alpha + 1)


def quadrature_rule(dim: int, degree: int) -> QuadratureRule:
    """Collapsed Gauss-Jacobi rule on the reference simplex."""
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    if not 0 <= degree <= MAX_QUADRATURE_DEGREE:
        raise ValueError(
            f"quadrature degree {degree} unsupported (max {MAX_QUADRATURE_DEGREE})"
        )
    n = max(1, math.ceil((degree + 1) / 2))
    rules = [_jacobi01(n, k) for k in range(dim)]
    cube = np.meshgrid(*(c for c, _ in rules), indexing="ij")
    weights = rules[0][1]
    for _, w in rules[1:]:
        weights = np.multiply.outer(weights, w)
    coords = []
    for k in range(dim):
        x = cube[k]
        for c in cube[k + 1:]:
            x = x * (1.0 - c)
        coords.append(x.ravel())
    return QuadratureRule(dim=dim, degree=degree, points_ref=np.column_stack(coords),
                          weights=weights.ravel())


@dataclass(frozen=True)
class AffineMap:
    """Reference-to-physical affine map of one simplex."""

    vertices: np.ndarray   # (d+1, d)
    jacobian: np.ndarray   # (d, d)
    det: float

    def to_physical(self, points_ref: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(points_ref)
        return self.vertices[0] + pts @ self.jacobian.T


def affine_map(vertex_coords: np.ndarray) -> AffineMap:
    """The simplex's map from its own vertices, not the mesh's templates: the
    tests' oracles map each cell's quadrature points by it."""
    verts = np.asarray(vertex_coords, dtype=float)
    J = (verts[1:] - verts[0]).T
    det = float(np.linalg.det(J))
    if abs(det) < 1e-14:
        raise ValueError("degenerate cell: |det J| < 1e-14")
    return AffineMap(vertices=verts, jacobian=J, det=det)
