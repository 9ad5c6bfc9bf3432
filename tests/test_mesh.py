import itertools

import numpy as np
import pytest

import oracles
from msfem import mesh as mmesh


def test_unit_cube_single_subdivision_counts():
    m = mmesh.build_structured(3, 1)
    assert m.n_vertices == 8
    assert m.n_cells == 6


def test_unit_square_single_subdivision():
    m = mmesh.build_structured(2, 1)
    assert m.n_vertices == 4
    assert m.n_cells == 2
    assert abs(m.cell_volumes().sum() - 1.0) < 1e-15


def test_counts_and_volume_3d_m2():
    M = 2
    m = mmesh.build_structured(3, M)
    assert m.n_vertices == (M + 1) ** 3
    assert m.n_cells == 6 * M ** 3
    assert abs(m.cell_volumes().sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("dim,M", [(2, 1), (2, 3), (3, 1), (3, 2)])
def test_cell_count_formula_and_positive_volumes(dim, M):
    m = mmesh.build_structured(dim, M)
    expected = 2 * M ** 2 if dim == 2 else 6 * M ** 3
    assert m.n_cells == expected
    assert m.n_vertices == (M + 1) ** dim
    vols = m.cell_volumes()
    assert np.all(vols > 0)
    assert abs(vols.sum() - 1.0) <= 1e-12


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
        coords = m.cell_vertex_coords()
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


@pytest.mark.parametrize("dim,M", [(2, 1), (2, 8), (3, 2), (3, 5)])
def test_template_jacobians_match_per_cell_ones(dim, M):
    # build_structured repeats its d! template Jacobians cube by cube; the
    # same mesh without that cache computes them cell by cell from the float
    # vertices i/M, which agree exactly when M is a power of two
    m = mmesh.build_structured(dim, M)
    plain = mmesh.Mesh(dim=dim, subdivisions=M, vertices_int=m.vertices_int,
                       vertices=m.vertices, cells=m.cells, h=m.h)
    exact = M & (M - 1) == 0
    for got, want in zip(m.jacobians(), plain.jacobians()):
        assert got.shape == want.shape
        if exact:
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


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


@pytest.mark.parametrize("dim,M", [(2, 1), (2, 5), (3, 3)])
def test_kuhn_lattice_predicate(dim, M):
    m = mmesh.build_structured(dim, M)
    assert m.is_kuhn_lattice()

    def variant(**kw):
        fields = dict(dim=dim, subdivisions=M, vertices_int=m.vertices_int,
                      vertices=m.vertices, cells=m.cells, h=m.h)
        return mmesh.Mesh(**(fields | kw))

    assert variant().is_kuhn_lattice()
    # the same cells in another order, vertices off i/M, another M
    assert not variant(cells=m.cells[::-1]).is_kuhn_lattice()
    assert not variant(vertices=m.vertices * (1 - 1e-15)).is_kuhn_lattice()
    assert not variant(subdivisions=M + 1).is_kuhn_lattice()
    assert not oracles.jittered_mesh(dim, max(M, 2), seed=7).is_kuhn_lattice()


def test_containing_cells_refuses_a_mesh_off_the_lattice():
    # the Kuhn walk would rank cells of the lattice, not of this mesh
    m = oracles.jittered_mesh(2, 4, seed=7)
    with pytest.raises(ValueError, match="Kuhn lattice"):
        m.containing_cells(np.full((1, 2), 0.3))
