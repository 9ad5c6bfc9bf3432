import numpy as np
import pytest

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


def test_boundary_facet_counts():
    assert len(mmesh.boundary_facets(mmesh.build_structured(2, 1))) == 4
    assert len(mmesh.boundary_facets(mmesh.build_structured(3, 1))) == 12


@pytest.mark.parametrize("dim", [2, 3])
def test_boundary_normals_axis_aligned_outward(dim):
    m = mmesh.build_structured(dim, 2)
    for f in mmesh.boundary_facets(m):
        n = f.normal
        assert np.sum(np.abs(n)) == 1.0           # +-e_i
        coords = m.vertices[list(f.vertices)]
        axis = int(np.argmax(np.abs(n)))
        plane = coords[0, axis]
        assert plane in (0.0, 1.0)
        assert np.all(coords[:, axis] == plane)
        assert n[axis] == (1.0 if plane == 1.0 else -1.0)
        # points out of the owning cell
        centroid = m.vertices[m.cells[f.cell]].mean(axis=0)
        assert (coords[0] - centroid) @ n > 0


def test_facet_on_x1_zero_has_minus_e1_normal():
    m = mmesh.build_structured(3, 2)
    found = False
    for f in mmesh.boundary_facets(m):
        coords = m.vertices[list(f.vertices)]
        if np.all(coords[:, 0] == 0.0):
            found = True
            assert np.allclose(f.normal, [-1.0, 0.0, 0.0])
    assert found


@pytest.mark.parametrize("dim", [2, 3])
def test_interior_facets_shared_by_two_cells(dim):
    m = mmesh.build_structured(dim, 2)
    counts = {}
    for c in range(m.n_cells):
        cell = m.cells[c]
        for drop in range(dim + 1):
            key = tuple(sorted(int(v) for i, v in enumerate(cell) if i != drop))
            counts[key] = counts.get(key, 0) + 1
    n_boundary = sum(1 for v in counts.values() if v == 1)
    assert set(counts.values()) <= {1, 2}
    assert n_boundary == len(mmesh.boundary_facets(m))


def test_mesh_size_values():
    assert mmesh.mesh_size(mmesh.build_structured(2, 1)) == pytest.approx(np.sqrt(2), abs=1e-15)
    assert mmesh.mesh_size(mmesh.build_structured(3, 1)) == pytest.approx(np.sqrt(3), abs=1e-15)
    assert mmesh.mesh_size(mmesh.build_structured(2, 2)) == pytest.approx(np.sqrt(2) / 2, abs=1e-15)


@pytest.mark.parametrize("dim", [2, 3])
def test_doubling_m_halves_mesh_size(dim):
    h1 = mmesh.mesh_size(mmesh.build_structured(dim, 2))
    h2 = mmesh.mesh_size(mmesh.build_structured(dim, 4))
    assert h2 == pytest.approx(h1 / 2, rel=1e-14)


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
