import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from msfem import forms, mms
from msfem.mesh import build_structured
from msfem.space import FieldVector, build_scalar_space, build_vector_space, interpolate


def test_p1_mass_local_matrix_single_triangle():
    # the unit square's two triangles, each of area 1/2 with the local P1
    # mass area/12 (1 + I), summed at their shared nodes
    mesh = build_structured(2, 1)
    space = build_scalar_space(mesh, 1, dirichlet=False)
    M = forms.assemble_mass(space).toarray()
    expected = np.zeros_like(M)
    # dof order is node order; map cell-local to global nodes
    for nodes in space.cell_nodes:
        expected[np.ix_(nodes, nodes)] += 0.5 / 12.0 * (np.ones((3, 3)) + np.eye(3))
    assert np.allclose(M, expected, atol=1e-14)


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
    # the unit weight is the constant one of the space without constraints
    mesh = build_structured(2, 2)
    space = build_scalar_space(mesh, 2)
    weights = build_scalar_space(mesh, 2, dirichlet=False)
    Z = forms.assemble_weighted_mass(space, FieldVector(weights, np.zeros(weights.n_dofs)))
    assert Z.nnz == 0 or np.max(np.abs(Z.toarray())) == 0.0
    one = FieldVector(weights, np.ones(weights.n_dofs))
    W1 = forms.assemble_weighted_mass(space, one).toarray()
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
    W = forms.assemble_weighted_mass(space, forms.FieldProducts(psi))
    one = np.ones(space.n_dofs)
    val = (one @ (W @ one)).real
    assert val == pytest.approx(1.0 / 8.0, rel=0.02)


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
    B = forms.assemble_B(cspace, FieldVector(vspace, np.zeros(vspace.n_dofs)), K).toarray()
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
    load = forms.assemble_current_load(vspace, forms.FieldProducts(psi))
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
    load = forms.assemble_current_load(vspace, forms.FieldProducts(psi))
    assert load @ v.data == pytest.approx(exact, rel=0.05)


def test_current_load_quadratic_scaling():
    rng = np.random.default_rng(4)
    mesh = build_structured(2, 3)
    cspace = build_scalar_space(mesh, 1, complex_field=True)
    vspace = build_vector_space(mesh, 1)
    psi = FieldVector(cspace, rng.standard_normal(cspace.n_dofs)
                      + 1j * rng.standard_normal(cspace.n_dofs))
    l1 = forms.assemble_current_load(vspace, forms.FieldProducts(psi))
    psi2 = FieldVector(cspace, 2.0 * psi.data)
    l2 = forms.assemble_current_load(vspace, forms.FieldProducts(psi2))
    assert np.allclose(l2, 4.0 * l1, rtol=1e-12, atol=1e-14)


def test_source_load_zero_and_partition_of_unity():
    mesh = build_structured(2, 3)
    space = build_scalar_space(mesh, 1, dirichlet=False)
    z = forms.assemble_source_load(space, forms.Separable(((0.0, (np.ones_like,) * 2),)))
    assert np.max(np.abs(z)) == 0.0
    ones = forms.assemble_source_load(space, forms.Separable(((1.0, (np.ones_like,) * 2),)))
    assert ones.sum() == pytest.approx(1.0, abs=1e-12)


def _source_shapes(case):
    """Every source shape of the case, named by source and term index."""
    for name, terms in (("f", case.f_terms), ("g", case.g_terms), ("l", case.l_terms)):
        for j, (_, shape) in enumerate(terms):
            yield f"{name}{j}", shape


@pytest.mark.parametrize("qdeg", [None, 3])
@pytest.mark.parametrize("M", [1, 2, 3])
@pytest.mark.parametrize("dim,r", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_separable_load_matches_its_point_values(dim, r, M, qdeg):
    # each manufactured source shape alone: the lattice contraction against
    # the oracle fed the shape's own values at every cell's points
    mesh = build_structured(dim, M)
    scalar = build_scalar_space(mesh, r, dirichlet=False)
    vector = build_vector_space(mesh, r)
    for name, shape in _source_shapes(mms.make_case(dim)):
        if isinstance(shape, tuple):
            space, points = vector, lambda x: np.stack([s(x) for s in shape], axis=-1)
        else:
            space, points = scalar, shape
        got = forms.assemble_coefficient_load(space, shape, qdeg=qdeg)
        want = oracles.naive_source_load(space, points, forms.quadrature_degree(r, qdeg))
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), name


def test_separable_load_rejections():
    mesh = build_structured(2, 2)
    scalar = build_scalar_space(mesh, 1)
    vector = build_vector_space(mesh, 1)
    shape = forms.Separable(((1.0, (np.sin, np.cos)),))
    with pytest.raises(ValueError, match="Separable component"):
        forms.assemble_coefficient_load(vector, shape)
    with pytest.raises(ValueError, match="Separable component"):
        forms.assemble_coefficient_load(scalar, (shape, shape))
    with pytest.raises(ValueError, match="factors"):
        forms.assemble_coefficient_load(scalar, forms.Separable(((1.0, (np.sin,)),)))
    with pytest.raises(ValueError, match="complex"):
        forms.assemble_coefficient_load(scalar, forms.Separable(((1j, (np.sin, np.cos)),)))


def test_forms_take_only_fields_and_separable_coefficients():
    # a weight is None, a FieldVector or FieldProducts; a load coefficient
    # is FieldProducts or Separable: a closure of the points is neither
    space = build_scalar_space(build_structured(2, 2), 1)
    with pytest.raises(TypeError, match="weight"):
        forms.assemble_weighted_mass(space, lambda x: np.ones(x.shape[:-1]))
    with pytest.raises(TypeError, match="load coefficient"):
        forms.assemble_coefficient_load(space, lambda x: x[..., 0])


# ---- oracle equivalence: vectorized assembly vs naive dense assembly ----

CASES = [(2, 3, 1), (2, 2, 2), (3, 2, 1)]


def case_params(cases, suffix=""):
    return [pytest.param(*c, id="-".join(map(str, c)) + suffix) for c in cases]


# The coefficient forms and loads map A and the current by each cell's
# template J^{-T}.  On the 3D M=2 lattice psi has one free dof, so those
# terms vanish there; the 3D M=3 case sees every template's map.  The
# "-jittered" ids name M=3 lattice cases that once ran on meshes with
# perturbed vertices.
FIELD_CASES = case_params(CASES) + case_params([(3, 3, 1)], "-jittered")


# The stiffness and D read every template's J^{-T}.  D is assembled as the
# componentwise stiffness and checked against the div-div + curl-curl
# oracle, whose cross-component terms cancel only in the sum over the cells.
D_CASES = (case_params(CASES + [(2, 4, 1)])
           + case_params([(2, 3, 2), (3, 3, 1)], "-jittered"))


@pytest.mark.parametrize("dim,M,r", D_CASES)
def test_oracle_equivalence_mass_stiffness(dim, M, r):
    mesh = build_structured(dim, M)
    space = build_scalar_space(mesh, r)
    qdeg = 2 * r + 2
    M2 = oracles.naive_mass(space, qdeg)
    K2 = oracles.naive_stiffness(space, qdeg)
    M1 = forms.assemble_mass(space).toarray()
    assert np.max(np.abs(M1 - M2)) <= 1e-12
    K1 = forms.assemble_stiffness(space).toarray()
    assert np.max(np.abs(K1 - K2)) <= 1e-12


@pytest.mark.parametrize("dim,M,r", D_CASES)
def test_oracle_equivalence_D(dim, M, r):
    mesh = build_structured(dim, M)
    space = build_vector_space(mesh, r)
    D2 = oracles.naive_D(space, 2 * r + 2)
    D1 = forms.assemble_D(space).toarray()
    assert np.max(np.abs(D1 - D2)) <= 1e-12


@pytest.mark.parametrize("dim,M,r", FIELD_CASES)
def test_oracle_equivalence_B_and_weighted(dim, M, r):
    rng = np.random.default_rng(5)
    mesh = build_structured(dim, M)
    cspace = build_scalar_space(mesh, r, complex_field=True)
    vspace = build_vector_space(mesh, r)
    a = FieldVector(vspace, rng.standard_normal(vspace.n_dofs))
    qdeg = 2 * r + 2
    # a real scalar field as the weight, as the potential term of the psi
    # step, and on every component of the vector space
    phi = FieldVector(build_scalar_space(mesh, r), rng.standard_normal(cspace.n_dofs))
    B2 = oracles.naive_B(cspace, a, qdeg)
    W2 = oracles.naive_field_weighted_mass(vspace, phi, qdeg)
    P2 = oracles.naive_field_weighted_mass(cspace, phi, qdeg)
    B1 = forms.assemble_B(cspace, a, forms.assemble_stiffness(cspace)).toarray()
    assert np.max(np.abs(B1 - B2)) <= 1e-12
    W1 = forms.assemble_weighted_mass(vspace, phi).toarray()
    assert np.max(np.abs(W1 - W2)) <= 1e-12
    P1 = forms.assemble_weighted_mass(cspace, phi).toarray()
    assert np.max(np.abs(P1 - P2)) <= 1e-12


@pytest.mark.parametrize("dim,M,r", FIELD_CASES)
def test_oracle_equivalence_loads(dim, M, r):
    rng = np.random.default_rng(6)
    mesh = build_structured(dim, M)
    cspace = build_scalar_space(mesh, r, complex_field=True)
    vspace = build_vector_space(mesh, r)
    psi = FieldVector(cspace, rng.standard_normal(cspace.n_dofs)
                      + 1j * rng.standard_normal(cspace.n_dofs))
    qdeg = 2 * r + 2

    # sin(x_0) + x_1
    s = forms.Separable(((1.0, (np.sin,) + (np.ones_like,) * (dim - 1)),
                         (1.0, (np.ones_like, lambda y: y) + (np.ones_like,) * (dim - 2))))
    l2 = oracles.naive_current_load(vspace, psi, qdeg)
    f2 = oracles.naive_source_load(cspace, s, qdeg)
    l1 = forms.assemble_current_load(vspace, forms.FieldProducts(psi))
    assert np.max(np.abs(l1 - l2)) <= 1e-12
    f1 = forms.assemble_source_load(cspace, s)
    assert np.max(np.abs(f1 - f2)) <= 1e-12


# 3D P2 as well: there the products' degree 4r = 8 exceeds the rule's 2r+2.
# That case runs the M=3 lattice under the id of its perturbed M=2 mesh.
@pytest.mark.parametrize("dim,M,r", FIELD_CASES + [
    pytest.param(3, 3, 2, id="3-2-2-jittered")])
def test_oracle_equivalence_abs2_forms(dim, M, r):
    # W(|psi|^2) on the vector space and the |psi|^2 load contract the
    # products of psi's coefficients against tensors of the same rule; the
    # oracles evaluate |psi|^2 at the points, cell by cell
    rng = np.random.default_rng(8)
    mesh = build_structured(dim, M)
    cspace = build_scalar_space(mesh, r, complex_field=True)
    vspace = build_vector_space(mesh, r)
    phispace = build_scalar_space(mesh, r)
    psi = FieldVector(cspace, rng.standard_normal(cspace.n_dofs)
                      + 1j * rng.standard_normal(cspace.n_dofs))
    qdeg = 2 * r + 2
    products = forms.FieldProducts(psi)
    W2 = oracles.naive_abs2_weighted_mass(vspace, psi, qdeg)
    W1 = forms.assemble_weighted_mass(vspace, products).toarray()
    assert np.max(np.abs(W1 - W2)) <= 1e-12
    l2 = oracles.naive_abs2_load(phispace, psi, qdeg)
    l1 = forms.assemble_coefficient_load(phispace, products)
    assert np.max(np.abs(l1 - l2)) <= 1e-12


COEFFICIENTS = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=10, derandomize=True, deadline=None)
@given(data=st.data())
def test_B_and_current_load_match_oracles_for_random_fields(data):
    # random real A and complex psi on the 2D P1 M=3 lattice
    mesh = build_structured(2, 3)
    cspace = build_scalar_space(mesh, 1, complex_field=True)
    vspace = build_vector_space(mesh, 1)

    def coefficients(n):
        return data.draw(hnp.arrays(np.float64, n, elements=COEFFICIENTS))

    a = FieldVector(vspace, coefficients(vspace.n_dofs))
    psi = FieldVector(cspace, coefficients(cspace.n_dofs) + 1j * coefficients(cspace.n_dofs))
    B = forms.assemble_B(cspace, a, forms.assemble_stiffness(cspace)).toarray()
    assert np.max(np.abs(B - B.conj().T)) <= 1e-12
    assert np.max(np.abs(B - oracles.naive_B(cspace, a, 4))) <= 1e-12
    load = forms.assemble_current_load(vspace, forms.FieldProducts(psi))
    assert np.max(np.abs(load - oracles.naive_current_load(vspace, psi, 4))) <= 1e-12


def test_one_quadrature_table_per_degree_and_qdeg():
    # every form, load and error norm reads the one whole-mesh table of its
    # (degree, qdeg)
    mesh = build_structured(3, 2)
    cspace = build_scalar_space(mesh, 1, complex_field=True)
    vspace = build_vector_space(mesh, 1)
    p2space = build_scalar_space(mesh, 2)
    psi = FieldVector(cspace, np.ones(cspace.n_dofs, dtype=complex))
    forms.assemble_mass(cspace)
    forms.assemble_stiffness(cspace)
    forms.assemble_D(vspace)
    forms.assemble_weighted_mass(vspace, forms.FieldProducts(psi))
    forms.assemble_current_load(vspace, forms.FieldProducts(psi))
    forms.assemble_B(cspace, FieldVector(vspace, np.zeros(vspace.n_dofs)),
                     forms.assemble_stiffness(cspace))
    forms.assemble_mass(p2space)
    forms.assemble_mass(cspace, qdeg=2)
    forms.assemble_coefficient_load(cspace, forms.FieldProducts(psi), qdeg=2)
    mms.error_norms(psi, mms.make_case(3), "psi", 0.0)

    tables = {k: v for k, v in mesh._geom.items() if isinstance(v, forms.QuadratureTable)}
    # stiffness and D read the default table too, through its gg
    assert sorted(tables) == [("quadrature", 1, 2), ("quadrature", 1, 4),
                              ("quadrature", 2, 6)]
    for t in tables.values():
        # the geometry is the mesh's d! templates and the weights times the
        # one det J; no array has a cell axis, all are cell-independent
        # reference tensors
        nq, nloc, d = t.gref.shape
        assert t.JinvT is mesh.JinvT and t.wdet.shape == (nq,)
        arrays = [v for v in vars(t).values() if isinstance(v, np.ndarray)]
        assert not [v for v in arrays if v.shape[0] == mesh.n_cells]
        assert all(v.size <= nq * d * nloc ** 2 for v in arrays)
    assert forms.quadrature_table(mesh, 1) is forms.quadrature_table(mesh, 1, 4)


def test_mesh_mismatch_rejected():
    mesh_a = build_structured(2, 2)
    mesh_b = build_structured(2, 2)
    cspace = build_scalar_space(mesh_a, 1, complex_field=True)
    vspace = build_vector_space(mesh_b, 1)
    with pytest.raises(ValueError):
        forms.assemble_B(cspace, FieldVector(vspace, np.zeros(vspace.n_dofs)),
                         forms.assemble_stiffness(cspace))
