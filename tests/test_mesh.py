import itertools
import math
import warnings

import numpy as np
import pytest

from msfem import mesh as mmesh
from msfem.elements import affine_map
from msfem.space import locate_points


def total_volume(m):
    return m.n_cells * m.det / math.factorial(m.dim)


def test_unit_cube_single_subdivision_counts():
    m = mmesh.build_structured(3, 1)
    assert m.vertices.shape[0] == 8
    assert m.n_cells == 6


def test_unit_square_single_subdivision():
    m = mmesh.build_structured(2, 1)
    assert m.vertices.shape[0] == 4
    assert m.n_cells == 2
    assert abs(total_volume(m) - 1.0) < 1e-15


def test_counts_and_volume_3d_m2():
    M = 2
    m = mmesh.build_structured(3, M)
    assert m.vertices.shape[0] == (M + 1) ** 3
    assert m.n_cells == 6 * M ** 3
    assert abs(total_volume(m) - 1.0) <= 1e-12


@pytest.mark.parametrize("dim,M", [(2, 1), (2, 3), (3, 1), (3, 2)])
def test_cell_count_formula_and_positive_volumes(dim, M):
    m = mmesh.build_structured(dim, M)
    expected = 2 * M ** 2 if dim == 2 else 6 * M ** 3
    assert m.n_cells == expected
    assert m.vertices.shape[0] == (M + 1) ** dim
    assert m.det > 0
    assert abs(total_volume(m) - 1.0) <= 1e-12


@pytest.mark.parametrize("dim", [2, 3])
def test_interior_facets_shared_by_two_cells(dim):
    M = 2
    m = mmesh.build_structured(dim, M)
    counts = {}
    for c in range(m.n_cells):
        cell = m.cells[c]
        for drop in range(dim + 1):
            key = tuple(sorted(int(v) for i, v in enumerate(cell) if i != drop))
            counts[key] = counts.get(key, 0) + 1
    n_boundary = sum(1 for v in counts.values() if v == 1)
    assert set(counts.values()) <= {1, 2}
    # M edges on each of the 4 sides of the square, 2M^2 triangles on each
    # of the 6 faces of the cube
    assert n_boundary == (4 * M if dim == 2 else 12 * M ** 2)


@pytest.mark.parametrize("dim", [2, 3])
def test_h_is_longest_cell_edge(dim):
    for M in (1, 2, 4):
        m = mmesh.build_structured(dim, M)
        coords = m.vertices[m.cells]
        longest = max(np.linalg.norm(coords[:, i] - coords[:, j], axis=1).max()
                      for i in range(dim + 1) for j in range(i + 1, dim + 1))
        assert m.h == pytest.approx(longest, rel=1e-14)


@pytest.mark.parametrize("dim,M", [(2, 1), (2, 3), (3, 1), (3, 2)])
def test_cells_are_kuhn_walks_in_permutation_order(dim, M):
    # cube by cube in lexicographic order, and within a cube one walk per
    # axis order, in the order of itertools.permutations: from the cube's
    # low corner one unit step along each axis of the permutation, the last
    # two vertices swapped when the permutation is odd
    m = mmesh.build_structured(dim, M)
    perms = list(itertools.permutations(range(dim)))
    assert m.n_cells == len(perms) * M ** dim
    for c, walk in enumerate(m.vertices_int[m.cells]):
        cube, k = divmod(c, len(perms))
        perm = list(perms[k])
        if np.linalg.det(np.eye(dim)[perm]) < 0:
            walk = walk[[*range(dim - 1), dim, dim - 1]]
        assert np.array_equal(walk[0], np.unravel_index(cube, (M,) * dim))
        assert np.array_equal(np.diff(walk, axis=0), np.eye(dim, dtype=int)[perm])


def test_vertices_exact_lattice_multiples():
    M = 5
    m = mmesh.build_structured(2, M)
    for v_int, v in zip(m.vertices_int, m.vertices):
        assert np.all(v == v_int / M)


def test_rejections():
    with pytest.raises(ValueError):
        mmesh.build_structured(2, 0)
    with pytest.raises(ValueError):
        mmesh.build_structured(4, 2)


@pytest.mark.parametrize("dim,M", [(2, True), (True, 2), (2, 2.0), (2.0, 2), (2, "2"),
                                   (3, None), (3, np.float64(4))], ids=repr)
def test_rejects_a_bool_or_non_integer_size(dim, M):
    # a bool is an int to Python, and would build M=1 silently
    with pytest.raises(ValueError, match="must be an integer"):
        mmesh.build_structured(dim, M)


def test_accepts_numpy_integers():
    m = mmesh.build_structured(np.int64(2), np.int32(3))
    assert m.n_cells == 2 * 3 ** 2


@pytest.mark.parametrize("dim,M", [(2, 1), (2, 3), (2, 8), (3, 1), (3, 2), (3, 3), (3, 5)])
def test_template_jacobians_match_per_cell_ones(dim, M):
    # cell c is template c % d!: its J, J^{-T} and det J are those of the
    # affine map of the cell's own vertices
    m = mmesh.build_structured(dim, M)
    nperm = math.factorial(dim)
    assert m.J.shape == m.JinvT.shape == (nperm, dim, dim)
    assert np.ndim(m.det) == 0
    for c in range(m.n_cells):
        amap = affine_map(m.vertices[m.cells[c]])
        J, JinvT = m.J[c % nperm], m.JinvT[c % nperm]
        assert np.abs(J - amap.jacobian).max() <= 1e-14 * np.abs(amap.jacobian).max()
        want = np.linalg.inv(amap.jacobian).T
        assert np.abs(JinvT - want).max() <= 1e-14 * np.abs(want).max()
        assert abs(m.det - amap.det) <= 1e-14 * amap.det


@pytest.mark.parametrize("dim", [2, 3])
def test_containing_cells_rejects_points_outside_the_domain(dim):
    m = mmesh.build_structured(dim, 4)
    for bad in (1.5, -0.3, 1 + 1e-9, -1e-9):
        pts = np.full((2, dim), 0.2)
        pts[1, -1] = bad
        with pytest.raises(ValueError, match="outside"):
            m.containing_cells(pts)
    # boundary points, and points off it by rounding, still find a cell
    edge = np.array([[0.0] * dim, [1.0] * dim, [1 + 1e-13] + [0.5] * (dim - 1),
                     [-1e-13] * dim])
    cells = m.containing_cells(edge)
    # the first and the last cube
    assert list(cells[:2] // len(list(itertools.permutations(range(dim))))) == [0, 4 ** dim - 1]
    assert np.all((cells >= 0) & (cells < m.n_cells))


@pytest.mark.parametrize("dim", [2, 3])
def test_containing_cells_rejects_points_that_are_not_finite(dim):
    # a NaN coordinate would otherwise floor into some cube and rank a walk there
    m = mmesh.build_structured(dim, 4)
    for bad in (np.nan, np.inf, -np.inf):
        pts = np.full((2, dim), 0.5)
        pts[1, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="outside"):
                m.containing_cells(pts)
            with pytest.raises(ValueError, match="outside"):
                locate_points(m, pts)
