import numpy as np
import pytest

import oracles
from msfem import forms, mms
from msfem.mesh import Mesh, build_structured
from msfem.space import (FieldVector, build_scalar_space, build_vector_space,
                         evaluate, interpolate, locate_points)


def single_triangle_mesh():
    verts_int = np.array([[0, 0], [2, 0], [1, 2]])
    return Mesh(dim=2, subdivisions=2, vertices_int=verts_int,
                vertices=verts_int / 2.0, cells=np.array([[0, 1, 2]]),
                h=1.0)


def test_p1_mass_local_matrix_single_triangle():
    mesh = single_triangle_mesh()
    space = build_scalar_space(mesh, 1, dirichlet=False)
    area = mesh.cell_volumes()[0]
    M = forms.assemble_mass(space).toarray()
    expected = area / 12.0 * (np.ones((3, 3)) + np.eye(3))
    # dof order is node order; map cell-local to global nodes
    perm = space.cell_nodes[0]
    assert np.allclose(M[np.ix_(perm, perm)], expected, atol=1e-14)


def test_mass_spd_random_vectors():
    space = build_scalar_space(build_structured(2, 3), 1)
    M = forms.assemble_mass(space)
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.standard_normal(space.n_dofs)
        assert x @ (M @ x) > 0.0


def test_mass_total_measure():
    space = build_scalar_space(build_structured(3, 2), 1, dirichlet=False)
    M = forms.assemble_mass(space)
    one = np.ones(space.n_dofs)
    assert one @ (M @ one) == pytest.approx(1.0, abs=1e-12)


def test_weighted_mass_zero_and_unit_weight():
    space = build_scalar_space(build_structured(2, 2), 2)
    Z = forms.assemble_weighted_mass(space, lambda x: np.zeros(x.shape[:-1]))
    assert Z.nnz == 0 or np.max(np.abs(Z.toarray())) == 0.0
    W1 = forms.assemble_weighted_mass(space, lambda x: np.ones(x.shape[:-1])).toarray()
    M = forms.assemble_mass(space).toarray()
    assert np.allclose(W1, M, atol=1e-13)


def test_weighted_mass_psi0_density_3d():
    # integral of |psi0|^2 = (1/2)^3 by separability of sin^2(2 pi x)
    mesh = build_structured(3, 8)
    space = build_scalar_space(mesh, 2, dirichlet=False, complex_field=True)

    def psi0(x):
        return (np.sin(2 * np.pi * x[..., 0]) * np.sin(2 * np.pi * x[..., 1])
                * np.sin(2 * np.pi * x[..., 2])).astype(complex)

    psi = interpolate(space, psi0)
    W = forms.assemble_weighted_mass(space, forms.Abs2(psi))
    one = np.ones(space.n_dofs)
    val = (one @ (W @ one)).real
    assert val == pytest.approx(1.0 / 8.0, rel=0.02)


def test_D_constant_field_in_kernel_unconstrained():
    space = build_vector_space(build_structured(2, 2), 1, constrained=False)
    D = forms.assemble_D(space)
    x = np.zeros(space.n_dofs)
    x[space.dof_index[:, 0]] = 1.0  # constant e_1 field
    assert np.max(np.abs(D @ x)) < 1e-13


def test_D_symmetry_and_psd():
    space = build_vector_space(build_structured(3, 2), 1)
    D = forms.assemble_D(space).toarray()
    assert np.max(np.abs(D - D.T)) <= 1e-12
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = rng.standard_normal(space.n_dofs)
        assert x @ D @ x >= -1e-12


def test_D_energy_matches_symbolic_curl_integral():
    sympy = pytest.importorskip("sympy")
    sx, sy = sympy.symbols("sx sy")
    b = (sx * (1 - sx) * sy * (1 - sy)) ** 2
    # A = rotated gradient of b: divergence-free, curl = -laplacian(b)
    lap = sympy.diff(b, sx, 2) + sympy.diff(b, sy, 2)
    exact = float(sympy.integrate(sympy.integrate(lap ** 2, (sx, 0, 1)), (sy, 0, 1)))

    mesh = build_structured(2, 8)
    space = build_vector_space(mesh, 2)

    def A(x):
        u, v = x[..., 0], x[..., 1]
        db_dy = (u * (1 - u)) ** 2 * 2 * (v * (1 - v)) * (1 - 2 * v)
        db_dx = (v * (1 - v)) ** 2 * 2 * (u * (1 - u)) * (1 - 2 * u)
        return np.stack([db_dy, -db_dx], axis=-1)

    f = interpolate(space, A)
    D = forms.assemble_D(space)
    energy = f.data @ (D @ f.data)
    assert energy == pytest.approx(exact, rel=0.02)


def test_B_reduces_to_stiffness_for_zero_A():
    mesh = build_structured(2, 3)
    cspace = build_scalar_space(mesh, 2, complex_field=True)
    vspace = build_vector_space(mesh, 2)
    K = forms.assemble_stiffness(cspace)
    B = forms.assemble_B(cspace, vspace.new_field(), K).toarray()
    assert np.max(np.abs(B - K.toarray())) <= 1e-13


def test_B_hermitian_for_random_A():
    rng = np.random.default_rng(2)
    mesh = build_structured(3, 2)
    cspace = build_scalar_space(mesh, 1, complex_field=True)
    vspace = build_vector_space(mesh, 1)
    a = FieldVector(vspace, rng.standard_normal(vspace.n_dofs))
    B = forms.assemble_B(cspace, a, forms.assemble_stiffness(cspace)).toarray()
    assert np.max(np.abs(B - B.conj().T)) <= 1e-12


def test_B_quadratic_form_real_nonnegative():
    rng = np.random.default_rng(3)
    mesh = build_structured(2, 3)
    cspace = build_scalar_space(mesh, 1, complex_field=True)
    vspace = build_vector_space(mesh, 1)
    a = FieldVector(vspace, rng.standard_normal(vspace.n_dofs))
    B = forms.assemble_B(cspace, a, forms.assemble_stiffness(cspace))
    for _ in range(100):
        psi = rng.standard_normal(cspace.n_dofs) + 1j * rng.standard_normal(cspace.n_dofs)
        val = np.vdot(psi, B @ psi)
        assert abs(val.imag) < 1e-12 * max(1.0, abs(val))
        assert val.real >= -1e-12


def test_B_energy_matches_independent_quadrature():
    # psi^H B psi against a much higher-order independent integration of
    # |(i grad + A) psi|^2 for interpolated smooth fields
    mesh = build_structured(2, 8)
    r = 1
    cspace = build_scalar_space(mesh, r, complex_field=True)
    vspace = build_vector_space(mesh, r)

    def psi_fn(x):
        return (np.sin(2 * np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])
                * np.exp(1j * x[..., 0]))

    def A_fn(x):
        return np.stack([np.sin(np.pi * x[..., 1]) * 0.0 + x[..., 1] * (1 - x[..., 1]),
                         x[..., 0] * (1 - x[..., 0])], axis=-1)

    psi = interpolate(cspace, psi_fn)
    a = interpolate(vspace, A_fn)
    B = forms.assemble_B(cspace, a, forms.assemble_stiffness(cspace))
    energy = np.vdot(psi.data, B @ psi.data).real

    # independent path: evaluate the discrete fields cellwise on a degree-12
    # rule through the generic evaluate() machinery
    from msfem.elements import affine_map, quadrature_rule
    from msfem.space import evaluate

    rule = quadrature_rule(2, 12)
    total = 0.0
    for c in range(mesh.n_cells):
        amap = affine_map(mesh.vertices[mesh.cells[c]])
        for q in range(rule.weights.size):
            xi = rule.points_ref[q]
            pv, pg = evaluate(psi, c, xi, gradient=True)
            av = evaluate(a, c, xi)
            z = 1j * pg + av * pv
            total += rule.weights[q] * abs(amap.det) * np.vdot(z, z).real
    # r=1: every term of the expanded integrand is degree <= 4 = 2r+2, so both
    # quadratures integrate it exactly
    assert energy == pytest.approx(total, rel=1e-12)


def test_current_load_zero_for_real_psi():
    mesh = build_structured(2, 3)
    cspace = build_scalar_space(mesh, 1, complex_field=True)
    vspace = build_vector_space(mesh, 1)
    psi = interpolate(cspace, lambda x: (np.sin(2 * np.pi * x[..., 0])
                                         * np.sin(2 * np.pi * x[..., 1])).astype(complex))
    load = forms.assemble_current_load(vspace, psi)
    assert np.max(np.abs(load)) < 1e-14


def test_current_load_sign_convention():
    # psi = e^{i pi x} b has current -pi b^2 e_1, so pairing with the
    # interpolant of v=(b^2, 0) gives -pi * integral of b^4
    sympy = pytest.importorskip("sympy")
    sx, sy = sympy.symbols("sx sy")
    bump = (sympy.sin(sympy.pi * sx) * sympy.sin(sympy.pi * sy)) ** 2
    exact = -np.pi * float(sympy.integrate(sympy.integrate(bump ** 4, (sx, 0, 1)), (sy, 0, 1)))

    mesh = build_structured(2, 16)
    r = 2
    cspace = build_scalar_space(mesh, r, complex_field=True)
    vspace = build_vector_space(mesh, r)

    def bump_np(x):
        return (np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])) ** 2

    psi = interpolate(cspace, lambda x: np.exp(1j * np.pi * x[..., 0]) * bump_np(x))
    v = interpolate(vspace, lambda x: np.stack([bump_np(x) ** 2, 0 * x[..., 0]], axis=-1))
    load = forms.assemble_current_load(vspace, psi)
    assert load @ v.data == pytest.approx(exact, rel=0.05)


def test_current_load_quadratic_scaling():
    rng = np.random.default_rng(4)
    mesh = build_structured(2, 3)
    cspace = build_scalar_space(mesh, 1, complex_field=True)
    vspace = build_vector_space(mesh, 1)
    psi = FieldVector(cspace, rng.standard_normal(cspace.n_dofs)
                      + 1j * rng.standard_normal(cspace.n_dofs))
    l1 = forms.assemble_current_load(vspace, psi)
    psi2 = FieldVector(cspace, 2.0 * psi.data)
    l2 = forms.assemble_current_load(vspace, psi2)
    assert np.allclose(l2, 4.0 * l1, rtol=1e-12, atol=1e-14)


def test_source_load_zero_and_partition_of_unity():
    mesh = build_structured(2, 3)
    space = build_scalar_space(mesh, 1, dirichlet=False)
    z = forms.assemble_source_load(space, lambda x: 0.0 * x[..., 0])
    assert np.max(np.abs(z)) == 0.0
    ones = forms.assemble_source_load(space, lambda x: 1.0 + 0.0 * x[..., 0])
    assert ones.sum() == pytest.approx(1.0, abs=1e-12)


# ---- oracle equivalence: vectorized assembly vs naive dense assembly ----

CASES = [(2, 3, 1), (2, 2, 2), (3, 2, 1)]
# A budget small enough that every form runs over several chunks of one or a
# few cells each, with a shorter last chunk on most of the cases.
SMALL_CHUNK_BUDGET = 100


def chunk_budgets(monkeypatch):
    """Run the assembly under test at the default and at a small chunk budget."""
    for budget in (forms._CHUNK_ENTRY_BUDGET, SMALL_CHUNK_BUDGET):
        monkeypatch.setattr(forms, "_CHUNK_ENTRY_BUDGET", budget)
        yield budget


@pytest.mark.parametrize("dim,M,r", CASES)
def test_oracle_equivalence_mass_stiffness(dim, M, r, monkeypatch):
    mesh = build_structured(dim, M)
    space = build_scalar_space(mesh, r)
    qdeg = 2 * r + 2
    M2 = oracles.naive_mass(space, qdeg)
    K2 = oracles.naive_stiffness(space, qdeg)
    for _ in chunk_budgets(monkeypatch):
        M1 = forms.assemble_mass(space).toarray()
        assert np.max(np.abs(M1 - M2)) <= 1e-12
        K1 = forms.assemble_stiffness(space).toarray()
        assert np.max(np.abs(K1 - K2)) <= 1e-12


@pytest.mark.parametrize("dim,M,r", CASES)
def test_oracle_equivalence_D(dim, M, r, monkeypatch):
    mesh = build_structured(dim, M)
    space = build_vector_space(mesh, r)
    D2 = oracles.naive_D(space, 2 * r + 2)
    for _ in chunk_budgets(monkeypatch):
        D1 = forms.assemble_D(space).toarray()
        assert np.max(np.abs(D1 - D2)) <= 1e-12


@pytest.mark.parametrize("dim,M,r", CASES)
def test_oracle_equivalence_B_and_weighted(dim, M, r, monkeypatch):
    rng = np.random.default_rng(5)
    mesh = build_structured(dim, M)
    cspace = build_scalar_space(mesh, r, complex_field=True)
    vspace = build_vector_space(mesh, r)
    a = FieldVector(vspace, rng.standard_normal(vspace.n_dofs))
    qdeg = 2 * r + 2
    # a real scalar field as the weight, as the potential term of the psi step
    phi = FieldVector(build_scalar_space(mesh, r), rng.standard_normal(cspace.n_dofs))

    def phi_at(x):
        cells, refs = locate_points(mesh, x)
        return evaluate(phi, cells[0], refs[0])

    B2 = oracles.naive_B(cspace, a, qdeg)
    W2 = oracles.naive_weighted_mass(vspace, lambda x: np.cos(x[0]), qdeg)
    P2 = oracles.naive_weighted_mass(cspace, phi_at, qdeg)
    for _ in chunk_budgets(monkeypatch):
        B1 = forms.assemble_B(cspace, a, forms.assemble_stiffness(cspace)).toarray()
        assert np.max(np.abs(B1 - B2)) <= 1e-12
        W1 = forms.assemble_weighted_mass(vspace, lambda x: np.cos(x[..., 0])).toarray()
        assert np.max(np.abs(W1 - W2)) <= 1e-12
        P1 = forms.assemble_weighted_mass(cspace, phi).toarray()
        assert np.max(np.abs(P1 - P2)) <= 1e-12


@pytest.mark.parametrize("dim,M,r", CASES)
def test_oracle_equivalence_loads(dim, M, r, monkeypatch):
    rng = np.random.default_rng(6)
    mesh = build_structured(dim, M)
    cspace = build_scalar_space(mesh, r, complex_field=True)
    vspace = build_vector_space(mesh, r)
    psi = FieldVector(cspace, rng.standard_normal(cspace.n_dofs)
                      + 1j * rng.standard_normal(cspace.n_dofs))
    qdeg = 2 * r + 2

    def s(x):
        return np.sin(x[..., 0]) + x[..., 1]

    l2 = oracles.naive_current_load(vspace, psi, qdeg)
    f2 = oracles.naive_source_load(cspace, lambda x: s(np.asarray(x)[None, :])[0], qdeg)
    for _ in chunk_budgets(monkeypatch):
        l1 = forms.assemble_current_load(vspace, psi)
        assert np.max(np.abs(l1 - l2)) <= 1e-12
        f1 = forms.assemble_source_load(cspace, s)
        assert np.max(np.abs(f1 - f2)) <= 1e-12


def test_one_quadrature_table_per_degree_and_qdeg(monkeypatch):
    # forms with different per-cell sizes split the mesh into different
    # chunks; they must all read the one whole-mesh table of their degree
    monkeypatch.setattr(forms, "_CHUNK_ENTRY_BUDGET", 2000)
    mesh = build_structured(3, 2)
    cspace = build_scalar_space(mesh, 1, complex_field=True)
    vspace = build_vector_space(mesh, 1)
    p2space = build_scalar_space(mesh, 2)
    psi = FieldVector(cspace, np.ones(cspace.n_dofs, dtype=complex))
    forms.assemble_mass(cspace)
    forms.assemble_stiffness(cspace)
    forms.assemble_D(vspace)
    forms.assemble_weighted_mass(vspace, forms.Abs2(psi))
    forms.assemble_current_load(vspace, psi)
    forms.assemble_B(cspace, vspace.new_field(), forms.assemble_stiffness(cspace))
    forms.assemble_mass(p2space)
    forms.assemble_mass(cspace, qdeg=2)
    forms.assemble_coefficient_load(cspace, forms.Abs2(psi), qdeg=2)
    mms.error_norms(psi, mms.make_case(3), "psi", 0.0)

    tables = {k: v for k, v in mesh._geom.items() if isinstance(v, forms.QuadratureTable)}
    # stiffness and D read the one-point table of their exact degree 2(r-1)
    assert sorted(tables) == [("quadrature", 1, 0), ("quadrature", 1, 2),
                              ("quadrature", 1, 4), ("quadrature", 2, 6)]
    for t in tables.values():
        assert t.wdet.shape[0] == t.grads.shape[0] == t.x.shape[0] == mesh.n_cells
    assert forms.quadrature_table(mesh, 1) is forms.quadrature_table(mesh, 1, 4)


def test_mesh_mismatch_rejected():
    mesh_a = build_structured(2, 2)
    mesh_b = build_structured(2, 2)
    cspace = build_scalar_space(mesh_a, 1, complex_field=True)
    vspace = build_vector_space(mesh_b, 1)
    with pytest.raises(ValueError):
        forms.assemble_B(cspace, vspace.new_field(), forms.assemble_stiffness(cspace))
