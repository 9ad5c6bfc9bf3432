import itertools
import warnings

import numpy as np
import pytest

from msfem import space as sp
from msfem.elements import reference_element
from msfem.mesh import build_structured


def test_scalar_free_dof_counts():
    m2 = build_structured(2, 2)
    assert sp.build_scalar_space(m2, 1).n_dofs == 1
    assert sp.build_scalar_space(build_structured(3, 2), 1).n_dofs == 1
    assert sp.build_scalar_space(m2, 2).n_dofs == 9  # (2M-1)^2 interior P2 nodes


@pytest.mark.parametrize("dim,M,r", [(2, 3, 1), (2, 2, 2), (3, 2, 1), (3, 2, 2)])
def test_scalar_free_count_formula(dim, M, r):
    space = sp.build_scalar_space(build_structured(dim, M), r)
    assert space.n_dofs == (r * M - 1) ** dim


@pytest.mark.parametrize("dim,M,r", [(2, 1, 2), (2, 3, 1), (2, 3, 2), (3, 2, 1),
                                     (3, 2, 2), (3, 3, 2)])
def test_nodes_are_numbered_in_lexicographic_lattice_order(dim, M, r):
    """The node numbering equals a row-wise unique of the per-cell lattice
    coordinates: nodes sorted lexicographically, cells pointing into them."""
    mesh = build_structured(dim, M)
    elem = reference_element(dim, r)
    node_ints = np.einsum("lk,ckd->cld", elem.vertex_weights, mesh.vertices_int[mesh.cells])
    uniq, inverse = np.unique(node_ints.reshape(-1, dim), axis=0, return_inverse=True)
    space = sp.build_scalar_space(mesh, r)
    assert np.array_equal(space.nodes_int, uniq)
    assert np.array_equal(space.cell_nodes, inverse.reshape(mesh.n_cells, -1))


@pytest.mark.parametrize("dim,M", [(2, 1), (2, 3), (3, 1), (3, 3)])
def test_locate_points_finds_a_cell_containing_each_point(dim, M):
    rng = np.random.default_rng(dim * 10 + M)
    inside = rng.uniform(0.0, 1.0, size=(300, dim))
    # lattice points of resolution 4M: cube faces, corners, the boundary and
    # points whose fractional coordinates tie
    lattice = rng.integers(0, 4 * M + 1, size=(300, dim)) / (4 * M)
    # ties of generic fractional coordinates inside one cube
    cube = rng.integers(0, M, size=(300, 1))
    ties = (cube + rng.uniform(0.0, 1.0, size=(300, 1))) / M * np.ones(dim)
    ties[::2, -1] = rng.uniform(0.0, 1.0, size=150)
    pts = np.vstack([inside, lattice, ties])
    mesh = build_structured(dim, M)
    cells, refs = sp.locate_points(mesh, pts)
    # barycentric coordinates from the cell's vertices, not from the
    # mesh's inverse Jacobians that locate_points reads
    verts = mesh.vertices[mesh.cells[cells]]                   # (n, d+1, d)
    system = np.concatenate([np.moveaxis(verts, 1, 2), np.ones((len(pts), 1, dim + 1))],
                            axis=1)
    rhs = np.concatenate([pts, np.ones((len(pts), 1))], axis=1)
    lam = np.linalg.solve(system, rhs[..., None])[..., 0]
    assert lam.min() >= -1e-12 and lam.max() <= 1 + 1e-12
    assert np.allclose(refs, lam[:, 1:], rtol=0.0, atol=1e-12)
    # the same cells as a per-point lookup of the descending-order permutation
    perms = list(itertools.permutations(range(dim)))
    for p, cell in zip(pts, cells):
        base = np.minimum(np.floor(p * M).astype(int), M - 1)
        order = tuple(np.argsort(-(p * M - base), kind="stable"))
        assert cell == np.ravel_multi_index(base, (M,) * dim) * len(perms) + perms.index(order)


def test_vector_constraint_masks_3d():
    space = sp.build_vector_space(build_structured(3, 2), 1)
    res = 2
    for n in range(space.n_nodes):
        ni = space.nodes_int[n]
        on = [a for a in range(3) if ni[a] in (0, res)]
        mask = space.constrained[n]
        if not on:
            assert not mask.any()
        elif len(on) == 1:
            a = on[0]
            expected = np.array([c != a for c in range(3)])
            assert np.array_equal(mask, expected)
        else:
            assert mask.all()  # union of the face masks


def test_vector_mask_face_x1_zero():
    space = sp.build_vector_space(build_structured(3, 2), 1)
    # node interior to the face x1=0: (0, 1, 1) at resolution 2
    idx = np.where((space.nodes_int == [0, 1, 1]).all(axis=1))[0][0]
    assert np.array_equal(space.constrained[idx], [False, True, True])


def test_dof_numbering_is_bijection():
    space = sp.build_vector_space(build_structured(2, 3), 2)
    free = space.dof_index[~space.constrained]
    assert sorted(free.tolist()) == list(range(space.n_dofs))
    assert np.all(space.dof_index[space.constrained] == -1)


def test_interpolate_reproduces_polynomials_unconstrained():
    rng = np.random.default_rng(0)
    m = build_structured(2, 3)
    space = sp.build_scalar_space(m, 2, dirichlet=False)

    def p(x):
        return 1.0 + 2.0 * x[..., 0] - x[..., 1] + 0.5 * x[..., 0] * x[..., 1] \
            + x[..., 0] ** 2

    f = sp.interpolate(space, p)
    pts = rng.random((100, 2))
    cells, refs = sp.locate_points(m, pts)
    for i in range(100):
        v = sp.evaluate(f, cells[i], refs[i])
        assert abs(v - p(pts[i])) < 1e-12


def test_interpolate_vector_with_compatible_trace():
    m = build_structured(2, 2)
    space = sp.build_vector_space(m, 2)

    def A(x):
        return np.stack([x[..., 1] * (1 - x[..., 1]),
                         x[..., 0] * (1 - x[..., 0])], axis=-1)

    f = sp.interpolate(space, A)
    rng = np.random.default_rng(1)
    pts = rng.random((50, 2))
    cells, refs = sp.locate_points(m, pts)
    for i in range(50):
        v = sp.evaluate(f, cells[i], refs[i])
        assert np.allclose(v, A(pts[i]), atol=1e-12)


def test_interpolate_flags_constraint_violation():
    space = sp.build_scalar_space(build_structured(2, 2), 1)
    with pytest.raises(sp.BoundaryValueError):
        sp.interpolate(space, lambda x: x[..., 0])


def test_interpolate_rejects_wrongly_shaped_target():
    m = build_structured(2, 2)
    scalar = sp.build_scalar_space(m, 1, dirichlet=False)
    with pytest.raises(ValueError, match=r"returned shape \(\), expected \(9,\)"):
        sp.interpolate(scalar, lambda x: 1.0)
    vector = sp.build_vector_space(m, 1)
    with pytest.raises(ValueError, match=r"returned shape \(9,\), expected \(9, 2\)"):
        sp.interpolate(vector, lambda x: x[..., 0])


def test_paper_vector_potential_at_half_time_is_zero():
    # cos(pi * 1/2) = 0, so the t=1/2 snapshot interpolates to the zero field
    m = build_structured(3, 2)
    space = sp.build_vector_space(m, 1)

    def A(x):
        c = np.cos(np.pi * 0.5)
        return c * np.stack([
            np.cos(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1]) * np.sin(np.pi * x[..., 2]),
            np.sin(np.pi * x[..., 0]) * np.cos(np.pi * x[..., 1]) * np.sin(np.pi * x[..., 2]),
            np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1]) * np.cos(np.pi * x[..., 2]),
        ], axis=-1)

    f = sp.interpolate(space, A)
    assert np.max(np.abs(f.data)) < 1e-15


def test_evaluate_zero_field():
    space = sp.build_scalar_space(build_structured(2, 2), 1)
    f = sp.FieldVector(space, np.zeros(space.n_dofs))
    assert sp.evaluate(f, 0, [0.3, 0.3]) == 0.0


def test_evaluate_gradient_of_quadratic():
    m = build_structured(2, 4)
    space = sp.build_scalar_space(m, 2, dirichlet=False)
    f = sp.interpolate(space, lambda x: x[..., 0] ** 2)
    rng = np.random.default_rng(2)
    pts = rng.random((20, 2))
    cells, refs = sp.locate_points(m, pts)
    for i in range(20):
        _, grad = sp.evaluate(f, cells[i], refs[i], gradient=True)
        assert np.allclose(grad, [2 * pts[i, 0], 0.0], atol=1e-12)


@pytest.mark.parametrize("dim,r", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_evaluate_takes_many_points_of_one_cell(dim, r):
    # n reference points give n values and gradients: each the one-point
    # call's, and on a polynomial of the space its value at the point
    from msfem.elements import affine_map

    m = build_structured(dim, 3)
    rng = np.random.default_rng(dim + r)
    refs = rng.dirichlet(np.ones(dim + 1), 5)[:, 1:]            # inside the simplex
    cell = 4
    x = affine_map(m.vertices[m.cells[cell]]).to_physical(refs)
    scalar = sp.build_scalar_space(m, r, dirichlet=False)
    f = sp.interpolate(scalar, lambda y: 1.0 + y[..., 0] + 2 * y[..., -1] ** r)
    values, grads = sp.evaluate(f, cell, refs, gradient=True)
    assert values.shape == (5,) and grads.shape == (5, dim)
    assert np.allclose(values, 1.0 + x[:, 0] + 2 * x[:, -1] ** r, atol=1e-13)
    want = np.zeros((5, dim))
    want[:, 0] = 1.0
    want[:, -1] += 2 * r * x[:, -1] ** (r - 1)
    assert np.allclose(grads, want, atol=1e-12)
    vector = sp.build_vector_space(m, r)
    a = sp.FieldVector(vector, rng.standard_normal(vector.n_dofs))
    for field, shape in ((f, ()), (a, (dim,))):
        values, grads = sp.evaluate(field, cell, refs, gradient=True)
        assert values.shape == (5,) + shape and grads.shape == (5,) + shape + (dim,)
        assert np.array_equal(sp.evaluate(field, cell, refs), values)
        for i, ref in enumerate(refs):
            value, grad = sp.evaluate(field, cell, ref, gradient=True)
            assert np.shape(value) == shape and grad.shape == shape + (dim,)
            assert np.allclose(value, values[i], rtol=0, atol=1e-14)
            assert np.allclose(grad, grads[i], rtol=0, atol=1e-13)


def test_tangential_trace_vanishes_on_boundary():
    rng = np.random.default_rng(4)
    for dim in (2, 3):
        m = build_structured(dim, 2)
        space = sp.build_vector_space(m, 2)
        f = sp.FieldVector(space, rng.standard_normal(space.n_dofs))
        for axis in range(dim):
            for side in (0.0, 1.0):
                pts = rng.random((8, dim))
                pts[:, axis] = side
                cells, refs = sp.locate_points(m, pts)
                for c, ref in zip(cells, refs):
                    v = sp.evaluate(f, c, ref)
                    tang = np.delete(v, axis)
                    assert np.max(np.abs(tang)) < 1e-13


def test_complex_scalar_space_dtype():
    space = sp.build_scalar_space(build_structured(2, 2), 1, complex_field=True)
    f = sp.interpolate(space, lambda x: 1j * np.sin(2 * np.pi * x[..., 0])
                       * np.sin(2 * np.pi * x[..., 1]))
    assert f.data.dtype == np.complex128


def test_interpolate_rejects_complex_values_on_a_real_space():
    m = build_structured(2, 2)
    real = sp.build_scalar_space(m, 1, dirichlet=False)
    with pytest.raises(ValueError, match="complex interpolation target on a real space"):
        sp.interpolate(real, lambda x: x[..., 0] + 1e-6j * x[..., 1])
    vector = sp.build_vector_space(m, 1)
    with pytest.raises(ValueError, match="complex interpolation target on a real space"):
        sp.interpolate(vector, lambda x: 1j * x)


def test_interpolate_accepts_complex_values_with_zero_imaginary_part():
    m = build_structured(2, 2)
    real = sp.build_scalar_space(m, 1, dirichlet=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")       # no ComplexWarning either
        f = sp.interpolate(real, lambda x: (x[..., 0] + 0j) * x[..., 1])
    assert f.data.dtype == np.float64
    assert np.array_equal(f.data, sp.interpolate(real, lambda x: x[..., 0] * x[..., 1]).data)
    cplx = sp.build_scalar_space(m, 1, complex_field=True, dirichlet=False)
    g = sp.interpolate(cplx, lambda x: x[..., 0] + 1j * x[..., 1])
    assert np.array_equal(g.nodal_values(), cplx.nodes[:, 0] + 1j * cplx.nodes[:, 1])
