import numpy as np
import pytest

from msfem import mms
from msfem.mesh import build_structured
from msfem.space import FieldVector, build_scalar_space, build_vector_space, interpolate


def test_paper_case_point_values():
    case = mms.make_case(3)
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


@pytest.mark.parametrize("dim", [2, 3])
def test_source_gate_matches_a_per_point_loop(dim):
    # the gate evaluates its seeded draws in one call; evaluating them one
    # point and one scalar t at a time gives the same worst deviation
    case = mms.make_case(dim)
    n, seed, t_max = 100, 7, 4.0
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.05, 0.95, size=(n, dim))
    t = rng.uniform(0.05, t_max - 0.05, size=n)
    worst = 0.0
    for xi, ti in zip(x, t.tolist()):
        analytic = (mms.source_f(case, xi, ti), mms.source_g(case, xi, ti),
                    mms.source_l(case, xi, ti))
        worst = max([worst] + [float(np.max(np.abs(a - b))) for a, b in
                               zip(analytic, mms.fd_sources(case, xi, ti))])
    gate = mms.source_gate(case, n=n, seed=seed, tol=1e-6, t_max=t_max)
    assert abs(gate - worst) <= 1e-12


def _with(case, **fields):
    return mms.ManufacturedCase(**{**case.__dict__, **fields})


@pytest.mark.parametrize("terms", ["f_terms", "g_terms", "l_terms"])
def test_source_gate_catches_broken_term(terms):
    # the stepper's own terms meet the oracle: a 0.1% error in one is caught
    case = mms.make_case(3)
    (c, s), *rest = getattr(case, terms)
    broken = _with(case, **{terms: ((lambda t: 1.001 * c(t), s), *rest)})
    with pytest.raises(mms.SourceGateError):
        mms.source_gate(broken, n=50)


def test_source_gate_catches_broken_case():
    # a NaN deviation must fail the gate, whether it comes from a term or
    # from a value closure the oracle differentiates
    case = mms.make_case(3)
    (c, s), *rest = case.l_terms
    nan_term = _with(case, l_terms=((c, lambda F: np.nan * s(F)), *rest))
    nan_psi = _with(case, psi=lambda x, t: np.nan * case.psi(x, t))
    for broken in (nan_term, nan_psi):
        with pytest.raises(mms.SourceGateError, match="non-finite"):
            mms.source_gate(broken, n=50)


def test_error_norm_zero_for_interpolated_polynomial():
    mesh = build_structured(2, 4)
    space = build_scalar_space(mesh, 2, dirichlet=False)

    def p(x):
        return x[..., 0] ** 2 + 0.5 * x[..., 0] * x[..., 1]

    def gp(x):
        return np.stack([2 * x[..., 0] + 0.5 * x[..., 1],
                         0.5 * x[..., 0]], axis=-1)

    f = interpolate(space, p)
    e = mms._scalar_errors(f, lambda x: (p(x), gp(x)), qdeg=6)
    assert e.l2 <= 1e-12
    assert e.h1 <= 1e-12


def test_error_norm_of_zero_field_is_exact_norm():
    # || psi0 ||_L2 = (1/2)^{3/2} by separability of sin^2
    case = mms.make_case(3)
    mesh = build_structured(3, 4)
    space = build_scalar_space(mesh, 1, complex_field=True)
    zero = FieldVector(space, np.zeros(space.n_dofs, dtype=complex))
    e = mms.error_norms(zero, case, "psi", 0.0, qdeg=8)
    assert e.l2 == pytest.approx((0.5) ** 1.5, rel=1e-6)


def test_error_quadrature_stability():
    case = mms.make_case(3)
    mesh = build_structured(3, 8)
    space = build_scalar_space(mesh, 1, complex_field=True)
    f = interpolate(space, lambda x: case.psi(x, 0.0))
    e1 = mms.error_norms(f, case, "psi", 0.0, qdeg=4)
    e2 = mms.error_norms(f, case, "psi", 0.0, qdeg=6)
    assert abs(e1.h1 - e2.h1) / e2.h1 < 1e-3
    assert abs(e1.l2 - e2.l2) / e2.l2 < 1e-3


def test_vector_error_norm_interpolant_converges():
    case = mms.make_case(3)
    errs = []
    for M in (2, 4):
        mesh = build_structured(3, M)
        vspace = build_vector_space(mesh, 1)
        a = interpolate(vspace, lambda x: case.A(x, 0.0))
        errs.append(mms.error_norms(a, case, "A", 0.0).h1)
    assert errs[1] < errs[0]


def test_observed_order_basics():
    assert mms.observed_order(0.4, 0.1) == pytest.approx(2.0, abs=1e-14)
    for bad in ((0.0, 0.1), (0.4, -0.1), (float("nan"), 0.1),
                (0.4, float("nan")), (float("inf"), 0.1)):
        with pytest.raises(ValueError):
            mms.observed_order(*bad)


def test_observed_order_reference_tables():
    # reference convergence data for the 3D case, per-halving over two halvings
    lin = mms.observed_order(4.9855e-01, 1.1887e-01) / 2
    assert f"{lin:.2f}" == "1.03"
    quad = mms.observed_order(1.1930e-02, 8.0967e-04) / 2
    assert f"{quad:.2f}" == "1.94"


def test_interpolation_orders_match_element_degree():
    # L2 ~ h^{r+1}, H1 ~ h^r for the smooth exact fields
    case = mms.make_case(3)
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
    case = mms.make_case(3)
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
