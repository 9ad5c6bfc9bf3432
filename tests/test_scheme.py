import numpy as np
import pytest

from msfem import forms, mms, scheme
from msfem.mesh import build_structured
from msfem.space import FieldVector, build_scalar_space, build_vector_space, interpolate


def small_config(dim=2, M=4, r=1, dt=0.1, n=2, mode="mms", **kw):
    return scheme.SchemeConfig(dim=dim, M=M, degree=r, t_final=n * dt, dt=dt,
                               n_steps=n, mode=mode, **kw)


def unconstrained_spaces(dim, M, r):
    mesh = build_structured(dim, M)
    return scheme.Spaces(
        psi=build_scalar_space(mesh, r, complex_field=True, dirichlet=False),
        A=build_vector_space(mesh, r, constrained=False),
        phi=build_scalar_space(mesh, r, dirichlet=False),
    )


def test_initialize_zero_velocity_gives_equal_ghost():
    st = scheme.AlternatingStepper(small_config(mode="free"))
    data = st.default_initial_data()  # A1 = 0, phi1 = 0 in free mode
    state = st.initialize(data)
    assert np.array_equal(state.a.data, state.a_prev.data)
    assert np.array_equal(state.phi.data, state.phi_prev.data)


def test_initialize_psi_nodal_values():
    cfg = small_config(dim=3, M=4, mode="mms")
    st = scheme.AlternatingStepper(cfg)
    state = st.initialize()
    space = st.spaces.psi
    nodes = space.nodes
    expected = st.case.psi(nodes, 0.0)
    got = state.psi.nodal_values()
    free = ~space.constrained[:, 0]
    assert np.allclose(got[free], expected[free], atol=1e-14)


def test_initialize_constant_phi_velocity_unconstrained():
    dt = 0.125
    cfg = small_config(dim=2, M=2, dt=dt, mode="free")
    spaces = unconstrained_spaces(2, 2, 1)
    st = scheme.AlternatingStepper(cfg, spaces=spaces)
    c = 0.75
    data = scheme.InitialData(
        psi0=lambda x: np.zeros(x.shape[:-1], dtype=complex),
        A0=lambda x: np.zeros(x.shape),
        A1=lambda x: np.zeros(x.shape),
        phi0=lambda x: np.zeros(x.shape[:-1]),
        phi1=lambda x: np.full(x.shape[:-1], c),
    )
    state = st.initialize(data)
    assert np.allclose(state.phi_prev.data, state.phi.data - dt * c, atol=1e-15)


def test_all_zero_state_stays_zero():
    cfg = small_config(dim=2, M=3, dt=0.05, n=5, mode="free", v0=3.0)
    st = scheme.AlternatingStepper(cfg)
    zero = scheme.InitialData(
        psi0=lambda x: np.zeros(x.shape[:-1], dtype=complex),
        A0=lambda x: np.zeros(x.shape),
        A1=lambda x: np.zeros(x.shape),
        phi0=lambda x: np.zeros(x.shape[:-1]),
        phi1=lambda x: np.zeros(x.shape[:-1]),
    )
    state = st.initialize(zero)
    for _ in range(5):
        state = st.advance(state)
        assert np.max(np.abs(state.psi.data)) < 1e-14
        assert np.max(np.abs(state.a.data)) < 1e-14
        assert np.max(np.abs(state.phi.data)) < 1e-14


def test_wave_step_zero_equilibrium_regression():
    # with psi = 0, g = 0 and A^{k-1} = A^{k-2} = 0 the step must return 0
    cfg = small_config(dim=3, M=2, dt=0.1, mode="free")
    st = scheme.AlternatingStepper(cfg)
    zero = scheme.InitialData(
        psi0=lambda x: np.zeros(x.shape[:-1], dtype=complex),
        A0=lambda x: np.zeros(x.shape),
        A1=lambda x: np.zeros(x.shape),
        phi0=lambda x: np.zeros(x.shape[:-1]),
        phi1=lambda x: np.zeros(x.shape[:-1]),
    )
    state = st.initialize(zero)
    a_new = st.step_wave_a(state)
    assert np.max(np.abs(a_new.data)) < 1e-14
    phi_new = st.step_wave_phi(state)
    assert np.max(np.abs(phi_new.data)) < 1e-14


# ---- plug-back residuals of single steps (independent reassembly) ----------

def wave_a_residual(st, state, a_new):
    cfg = st.config
    dt = cfg.dt
    sp = st.spaces
    Mv = forms.assemble_mass(sp.A)
    D = forms.assemble_D(sp.A)
    W = forms.assemble_weighted_mass(sp.A, forms.Abs2(state.psi))
    Fc = forms.assemble_current_load(sp.A, state.psi)
    rhs = forms.assemble_source_load(sp.A, lambda x: mms.source_g(st.case, x, state.t)) \
        if cfg.mode == "mms" else 0.0
    lhs = (Mv @ (a_new.data - 2 * state.a.data + state.a_prev.data) / dt ** 2
           + 0.5 * (D @ (a_new.data + state.a_prev.data)
                    + W @ (a_new.data + state.a_prev.data))
           + Fc)
    r = lhs - rhs
    scale = np.linalg.norm(Mv @ a_new.data) / dt ** 2 + np.linalg.norm(np.atleast_1d(rhs))
    return np.linalg.norm(r) / scale


def test_single_step_plugback_residuals_3d():
    cfg = scheme.SchemeConfig(dim=3, M=4, degree=1, t_final=0.2, dt=0.1,
                              n_steps=2, mode="mms", tol=1e-12)
    st = scheme.AlternatingStepper(cfg)
    state = st.initialize()
    a_new = st.step_wave_a(state)
    assert wave_a_residual(st, state, a_new) <= 1e-10

    # scalar potential step
    dt = cfg.dt
    sp = st.spaces
    phi_new = st.step_wave_phi(state)
    Mp = forms.assemble_mass(sp.phi)
    Kp = forms.assemble_stiffness(sp.phi)
    dens = forms.assemble_coefficient_load(sp.phi, forms.Abs2(state.psi)).real
    lsrc = forms.assemble_source_load(sp.phi, lambda x: mms.source_l(st.case, x, state.t)).real
    lhs = (Mp @ (phi_new.data - 2 * state.phi.data + state.phi_prev.data) / dt ** 2
           + 0.5 * (Kp @ (phi_new.data + state.phi_prev.data)))
    r = lhs - dens - lsrc
    scale = np.linalg.norm(Mp @ phi_new.data) / dt ** 2 + np.linalg.norm(lsrc)
    assert np.linalg.norm(r) / scale <= 1e-10

    # wave-function step against the averaged new potentials
    psi_new = st.step_schrodinger(state, a_new, phi_new)
    a_bar = FieldVector(sp.A, 0.5 * (a_new.data + state.a.data))
    phi_bar = FieldVector(sp.phi, 0.5 * (phi_new.data + state.phi.data))
    Mc = forms.assemble_mass(sp.psi)
    KB = forms.assemble_B(sp.psi, a_bar, forms.assemble_stiffness(sp.psi))
    Mw = forms.assemble_weighted_mass(sp.psi, phi_bar) + cfg.v0 * Mc
    F = forms.assemble_source_load(sp.psi, lambda x: mms.source_f(st.case, x, state.t + dt / 2))
    dpsi = (psi_new.data - state.psi.data) / dt
    bar = 0.5 * (psi_new.data + state.psi.data)
    r = (-1j * (Mc @ dpsi) + 0.5 * (KB @ bar) + Mw @ bar - F)
    scale = np.linalg.norm(Mc @ dpsi) + np.linalg.norm(F)
    assert np.linalg.norm(r) / scale <= 1e-10


@pytest.mark.parametrize("dim,r", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_source_loads_match_closure_assembly(dim, r):
    st = scheme.AlternatingStepper(small_config(dim=dim, M=4 if dim == 2 else 3, r=r))
    sp = st.spaces
    for t in (0.3, 1.7, 2.45):
        for name, space, source in (("f", sp.psi, mms.source_f),
                                    ("g", sp.A, mms.source_g),
                                    ("l", sp.phi, mms.source_l)):
            want = forms.assemble_source_load(space, lambda x: source(st.case, x, t))
            got = st.source_load(name, t)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_mms_step_evaluates_no_source_closure(monkeypatch):
    # the step's sources are combinations of loads assembled at construction
    st = scheme.AlternatingStepper(small_config(dim=2, M=4))
    state = st.initialize()
    want = st.advance(state)

    def closure_called(*args, **kwargs):
        raise AssertionError("a step evaluated a source closure")

    for name in ("source_f", "source_g", "source_l"):
        monkeypatch.setattr(mms, name, closure_called)
    got = st.advance(state)
    for g, w in ((got.psi, want.psi), (got.a, want.a), (got.phi, want.phi)):
        assert np.array_equal(g.data, w.data)


# ---- dense-solve oracle on small meshes ------------------------------------

def test_step_solutions_match_dense_solves():
    cfg = scheme.SchemeConfig(dim=2, M=4, degree=1, t_final=0.2, dt=0.1,
                              n_steps=2, mode="mms", tol=1e-13)
    st = scheme.AlternatingStepper(cfg)
    state = st.initialize()
    dt = cfg.dt
    sp = st.spaces

    a_new = st.step_wave_a(state)
    W = forms.assemble_weighted_mass(sp.A, forms.Abs2(state.psi))
    sys_d = (st.mass_vec.toarray() / dt ** 2
             + 0.5 * (st.D.toarray() + W.toarray()))
    rhs = (st.mass_vec @ (2 * state.a.data - state.a_prev.data) / dt ** 2
           - 0.5 * (st.D.toarray() + W.toarray()) @ state.a_prev.data
           - forms.assemble_current_load(sp.A, state.psi)
           + forms.assemble_source_load(sp.A, lambda x: mms.source_g(st.case, x, state.t)))
    x = np.linalg.solve(sys_d, rhs)
    assert np.linalg.norm(a_new.data - x) / np.linalg.norm(x) <= 1e-10

    phi_new = st.step_wave_phi(state)
    sys_d = st.mass_phi.toarray() / dt ** 2 + 0.5 * st.stiff_phi.toarray()
    rhs = (st.mass_phi @ (2 * state.phi.data - state.phi_prev.data) / dt ** 2
           - 0.5 * (st.stiff_phi @ state.phi_prev.data)
           + forms.assemble_coefficient_load(sp.phi, forms.Abs2(state.psi)).real
           + forms.assemble_source_load(sp.phi, lambda x: mms.source_l(st.case, x, state.t)).real)
    x = np.linalg.solve(sys_d, rhs)
    assert np.linalg.norm(phi_new.data - x) / np.linalg.norm(x) <= 1e-10

    psi_new = st.step_schrodinger(state, a_new, phi_new)
    a_bar = FieldVector(sp.A, 0.5 * (a_new.data + state.a.data))
    phi_bar = FieldVector(sp.phi, 0.5 * (phi_new.data + state.phi.data))
    KB = forms.assemble_B(sp.psi, a_bar, st.stiff_psi).toarray()
    Mc = st.mass_psi.toarray()
    Mw = forms.assemble_weighted_mass(sp.psi, phi_bar).toarray() + cfg.v0 * Mc
    S = -1j / dt * Mc + 0.25 * KB + 0.5 * Mw
    rhs = ((-1j / dt * Mc - 0.25 * KB - 0.5 * Mw) @ state.psi.data
           + forms.assemble_source_load(sp.psi, lambda x: mms.source_f(st.case, x, state.t + dt / 2)))
    x = np.linalg.solve(S, rhs)
    assert np.linalg.norm(psi_new.data - x) / np.linalg.norm(x) <= 1e-10


def test_first_phi_step_from_rest_matches_dense_formula():
    # phi starting at zero with a constant density: the first step solves
    # (M/dt^2 + K/2) phi = density load
    dt = 0.2
    cfg = small_config(dim=2, M=3, dt=dt, mode="free")
    spaces = unconstrained_spaces(2, 3, 1)
    st = scheme.AlternatingStepper(cfg, spaces=spaces)
    c = 2.0
    data = scheme.InitialData(
        psi0=lambda x: np.full(x.shape[:-1], np.sqrt(c), dtype=complex),
        A0=lambda x: np.zeros(x.shape),
        A1=lambda x: np.zeros(x.shape),
        phi0=lambda x: np.zeros(x.shape[:-1]),
        phi1=lambda x: np.zeros(x.shape[:-1]),
    )
    state = st.initialize(data)
    phi_new = st.step_wave_phi(state)
    sys_d = st.mass_phi.toarray() / dt ** 2 + 0.5 * st.stiff_phi.toarray()
    load = forms.assemble_coefficient_load(st.spaces.phi, forms.Abs2(state.psi)).real
    x = np.linalg.solve(sys_d, load)
    assert np.allclose(phi_new.data, x, rtol=1e-10)
    # nodally phi ~ c dt^2 up to the stiffness correction
    assert np.allclose(phi_new.data, c * dt ** 2, rtol=0.05)


# ---- structure of the step matrices ----------------------------------------

def test_wave_system_matrices_spd():
    rng = np.random.default_rng(0)
    cfg = small_config(dim=2, M=4, dt=0.1)
    st = scheme.AlternatingStepper(cfg)
    state = st.initialize()
    W = forms.assemble_weighted_mass(st.spaces.A, forms.Abs2(state.psi))
    sys_a = ((1 / cfg.dt ** 2) * st.mass_vec + 0.5 * (st.D + W)).toarray()
    assert np.max(np.abs(sys_a - sys_a.T)) <= 1e-12
    for _ in range(50):
        x = rng.standard_normal(sys_a.shape[0])
        assert x @ sys_a @ x > 0
    sys_p = st.phi_system.toarray()
    assert np.max(np.abs(sys_p - sys_p.T)) <= 1e-12
    for _ in range(50):
        x = rng.standard_normal(sys_p.shape[0])
        assert x @ sys_p @ x > 0


def test_schrodinger_matrix_hermitian_part():
    # S + S^H must equal 2(K_B/4 + M_w/2): the mass/dt term is skew only
    cfg = small_config(dim=2, M=3, dt=0.07)
    st = scheme.AlternatingStepper(cfg)
    state = st.initialize()
    a_new = st.step_wave_a(state)
    phi_new = st.step_wave_phi(state)
    a_bar = FieldVector(st.spaces.A, 0.5 * (a_new.data + state.a.data))
    phi_bar = FieldVector(st.spaces.phi, 0.5 * (phi_new.data + state.phi.data))
    KB = forms.assemble_B(st.spaces.psi, a_bar, st.stiff_psi).toarray()
    Mw = (forms.assemble_weighted_mass(st.spaces.psi, phi_bar).toarray()
          + cfg.v0 * st.mass_psi.toarray())
    S = -1j / cfg.dt * st.mass_psi.toarray() + 0.25 * KB + 0.5 * Mw
    assert np.max(np.abs(S + S.conj().T - 2 * (0.25 * KB + 0.5 * Mw))) <= 1e-12


def test_one_step_map_has_unit_modulus_spectrum():
    # free mode, A = 0, phi = 0, V0 = 0 on the dense M=3 system
    dt = 0.1
    mesh = build_structured(3, 3)
    space = build_scalar_space(mesh, 1, complex_field=True)
    Mc = forms.assemble_mass(space).toarray()
    K = forms.assemble_stiffness(space).toarray()
    Splus = -1j / dt * Mc + 0.25 * K
    Sminus = -1j / dt * Mc - 0.25 * K
    T = np.linalg.solve(Splus, Sminus)
    lam = np.linalg.eigvals(T)
    assert np.max(np.abs(np.abs(lam) - 1.0)) <= 1e-10


# ---- conservation and convergence -------------------------------------------

def test_norm_conservation_free_mode():
    cfg = scheme.SchemeConfig(dim=3, M=4, degree=1, t_final=2.5, dt=0.05,
                              n_steps=50, mode="free")
    st = scheme.AlternatingStepper(cfg)
    res = st.run()
    norms = np.array(res.psi_norms)
    drift = np.max(np.abs(norms - norms[0])) / norms[0]
    assert drift <= 1e-9


def test_mms_h1_errors_decrease_under_refinement():
    errs = []
    for M, n in ((8, 4), (16, 8)):
        cfg = scheme.SchemeConfig(dim=2, M=M, degree=1, t_final=1.0,
                                  dt=1.0 / n, n_steps=n, mode="mms")
        st = scheme.AlternatingStepper(cfg)
        res = st.run(snapshot_steps=[n])
        errs.append(res.report.get(1.0, "psi").h1)
    assert errs[1] < errs[0]


def test_consistency_rate_of_interpolated_exact_solution():
    """Interpolating the exact solution into the discrete systems leaves
    residuals of size O(dt^2 + h^r) in the discrete H^{-1} norm."""
    taus = []
    for M in (4, 8):
        dt = 0.4 / M
        cfg = scheme.SchemeConfig(dim=2, M=M, degree=1, t_final=dt, dt=dt,
                                  n_steps=1, mode="mms")
        st = scheme.AlternatingStepper(cfg)
        case = st.case
        sp = st.spaces
        tkm1 = 0.2
        a_km2 = interpolate(sp.A, lambda x: case.A(x, tkm1 - dt))
        a_km1 = interpolate(sp.A, lambda x: case.A(x, tkm1))
        a_k = interpolate(sp.A, lambda x: case.A(x, tkm1 + dt))
        psi_km1 = interpolate(sp.psi, lambda x: case.psi(x, tkm1))
        W = forms.assemble_weighted_mass(sp.A, forms.Abs2(psi_km1))
        Fc = forms.assemble_current_load(sp.A, psi_km1)
        G = forms.assemble_source_load(sp.A, lambda x: mms.source_g(case, x, tkm1))
        r = (st.mass_vec @ (a_k.data - 2 * a_km1.data + a_km2.data) / dt ** 2
             + 0.5 * (st.D @ (a_k.data + a_km2.data)
                      + W @ (a_k.data + a_km2.data))
             + Fc - G)
        gram = (st.mass_vec + st.D).toarray()
        z = np.linalg.solve(gram, r)
        taus.append(np.sqrt(abs(r @ z)))
    assert taus[1] <= taus[0] / 2 ** 0.7


def test_snapshot_records_deterministic():
    cfg = small_config(dim=2, M=3, dt=0.1, n=2)
    st = scheme.AlternatingStepper(cfg)
    res1 = st.run(snapshot_steps=[1, 2])
    st2 = scheme.AlternatingStepper(cfg)
    res2 = st2.run(snapshot_steps=[1, 2])
    assert [s["k"] for s in res1.snapshots] == [1, 2]
    assert res1.snapshots == res2.snapshots


def test_solver_failure_carries_step_index():
    cfg = small_config(dim=2, M=3, dt=0.1, n=1, mode="free")
    st = scheme.AlternatingStepper(cfg)
    state = st.initialize()
    st.phi_system = float("nan") * st.phi_system
    with pytest.raises(scheme.SchemeError, match="step 1"):
        st.step_wave_phi(state)
