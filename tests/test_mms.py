import numpy as np
import pytest

from msfem import mms
from msfem.mesh import build_structured
from msfem.space import FieldVector, build_scalar_space, build_vector_space, interpolate


def test_paper_case_point_values():
    case = mms.paper_case()
    x = np.array([0.25, 0.25, 0.25])
    assert case.psi(x, 0.0) == pytest.approx(1.0, abs=1e-14)  # sin(pi/2)^3
    # the vector potential vanishes identically at t = 1/2
    rng = np.random.default_rng(0)
    pts = rng.random((20, 3))
    assert np.max(np.abs(case.A(pts, 0.5))) < 1e-15
    # phi((1/2,1/2,1/2), 1) = (1 + sin(pi)) * (1/4)^3
    xc = np.array([0.5, 0.5, 0.5])
    assert case.phi(xc, 1.0) == pytest.approx(1.0 / 64.0, rel=1e-12)


@pytest.mark.parametrize("dim", [2, 3])
def test_boundary_compatibility(dim):
    case = mms.make_case(dim)
    rng = np.random.default_rng(1)
    for t in (0.0, 0.3, 1.7, 4.0):
        for axis in range(dim):
            for side in (0.0, 1.0):
                pts = rng.random((50, dim))
                pts[:, axis] = side
                psi = case.psi(pts, t)
                phi = case.phi(pts, t)
                A = case.A(pts, t)
                tang = np.delete(A, axis, axis=-1)
                assert np.max(np.abs(psi)) <= 1e-12
                assert np.max(np.abs(phi)) <= 1e-12
                assert np.max(np.abs(tang)) <= 1e-12


@pytest.mark.parametrize("dim", [2, 3])
def test_source_gate(dim):
    case = mms.make_case(dim)
    worst = mms.source_gate(case, n=1000, seed=20240501, tol=1e-6)
    assert worst <= 1e-6


def test_source_gate_catches_broken_case():
    case = mms.paper_case()
    broken = mms.ManufacturedCase(**{**case.__dict__})
    broken.lap_psi = lambda x, t: case.lap_psi(x, t) * 1.001
    with pytest.raises(mms.SourceGateError):
        mms.source_gate(broken, n=50)


@pytest.mark.parametrize("dim", [2, 3])
def test_source_decomposition_matches_sources(dim):
    # every source is sum_j c_j(t) s_j(x) over the case's separable terms,
    # the shapes reading the shared factors of x
    case = mms.make_case(dim)
    rng = np.random.default_rng(3)
    x = rng.random((50, dim))
    for t in rng.uniform(0.0, 4.0, size=8):
        for terms, source in ((case.f_terms, mms.source_f),
                              (case.g_terms, mms.source_g),
                              (case.l_terms, mms.source_l)):
            got = sum(c(t) * s(case.factors(x)) for c, s in terms)
            want = source(case, x, t)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_g_source_at_half_time_reduces_to_wave_terms():
    # at t=1/2: A and its spatial derivatives vanish, the current of the
    # separable psi is identically zero, so g = A_tt alone
    case = mms.paper_case()
    rng = np.random.default_rng(2)
    x = rng.random((20, 3))
    _, g, _ = mms.sources(case, x, 0.5)
    assert np.allclose(g, case.A_tt(x, 0.5), atol=1e-12)
    assert np.max(np.abs(mms.current_density(case, x, 0.5))) < 1e-12


def test_error_norm_zero_for_interpolated_polynomial():
    mesh = build_structured(2, 4)
    space = build_scalar_space(mesh, 2, dirichlet=False)

    def p(x):
        return x[..., 0] ** 2 + 0.5 * x[..., 0] * x[..., 1]

    def gp(x):
        return np.stack([2 * x[..., 0] + 0.5 * x[..., 1],
                         0.5 * x[..., 0]], axis=-1)

    f = interpolate(space, p)
    e = mms.scalar_error_norms(f, p, gp, qdeg=6)
    assert e.l2 <= 1e-12
    assert e.h1 <= 1e-12


def test_error_norm_of_zero_field_is_exact_norm():
    # || psi0 ||_L2 = (1/2)^{3/2} by separability of sin^2
    case = mms.paper_case()
    mesh = build_structured(3, 4)
    space = build_scalar_space(mesh, 1, complex_field=True)
    zero = FieldVector(space, np.zeros(space.n_dofs, dtype=complex))
    e = mms.error_norms(zero, case, "psi", 0.0, qdeg=8)
    assert e.l2 == pytest.approx((0.5) ** 1.5, rel=1e-6)


def test_error_quadrature_stability():
    case = mms.paper_case()
    mesh = build_structured(3, 8)
    space = build_scalar_space(mesh, 1, complex_field=True)
    f = interpolate(space, lambda x: case.psi(x, 0.0))
    e1 = mms.error_norms(f, case, "psi", 0.0, qdeg=4)
    e2 = mms.error_norms(f, case, "psi", 0.0, qdeg=6)
    assert abs(e1.h1 - e2.h1) / e2.h1 < 1e-3
    assert abs(e1.l2 - e2.l2) / e2.l2 < 1e-3


def test_vector_error_norm_interpolant_converges():
    case = mms.paper_case()
    errs = []
    for M in (2, 4):
        mesh = build_structured(3, M)
        vspace = build_vector_space(mesh, 1)
        a = interpolate(vspace, lambda x: case.A(x, 0.0))
        errs.append(mms.error_norms(a, case, "A", 0.0).h1)
    assert errs[1] < errs[0]


def test_observed_order_basics():
    assert mms.observed_order(0.4, 0.1) == pytest.approx(2.0, abs=1e-14)
    with pytest.raises(ValueError):
        mms.observed_order(0.0, 0.1)


def test_observed_order_reference_tables():
    # reference convergence data for the 3D case, per-halving over two halvings
    lin = mms.observed_order(4.9855e-01, 1.1887e-01) / 2
    assert f"{lin:.2f}" == "1.03"
    quad = mms.observed_order(1.1930e-02, 8.0967e-04) / 2
    assert f"{quad:.2f}" == "1.94"


def test_interpolation_orders_match_element_degree():
    # L2 ~ h^{r+1}, H1 ~ h^r for the smooth exact fields
    case = mms.paper_case()
    for r, dim in ((1, 3), (2, 3)):
        h1_errs, l2_errs = [], []
        for M in (4, 8, 16):
            mesh = build_structured(dim, M)
            space = build_scalar_space(mesh, r, complex_field=True)
            f = interpolate(space, lambda x: case.psi(x, 0.0))
            e = mms.error_norms(f, case, "psi", 0.0)
            h1_errs.append(e.h1)
            l2_errs.append(e.l2)
        h1_order = mms.observed_order(h1_errs[-2], h1_errs[-1])
        l2_order = mms.observed_order(l2_errs[-2], l2_errs[-1])
        assert h1_order >= r - 0.2
        assert l2_order >= r + 0.8


def test_gauge_residuals_reported_nonzero():
    case = mms.paper_case()
    g1, g2 = mms.gauge_residuals(case, M=4)
    # the verification data intentionally violates the gauge constraints
    assert g1 > 0.1
    assert g2 > 0.1


def test_error_report_csv():
    rep = mms.ErrorReport(h=0.25, dt=0.1, M=4, degree=1)
    rep.add(1.0, "psi", mms.ErrorEntry(l2=0.1, h1=0.4, parts={"grad": 0.38}))
    coarse = mms.ErrorReport(h=0.5, dt=0.2, M=2, degree=1)
    coarse.add(1.0, "psi", mms.ErrorEntry(l2=0.2, h1=0.8, parts={"grad": 0.7}))
    text = rep.to_csv(coarser=coarse)
    lines = text.strip().splitlines()
    assert lines[0].startswith("time,field,L2,H1_total")
    assert lines[1].split(",")[-1] == "1.00"
    assert rep.to_csv() == rep.to_csv()  # deterministic
    assert rep.to_csv().strip().splitlines()[1].split(",")[-1] == ""
