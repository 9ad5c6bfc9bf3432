import itertools

import numpy as np
import pytest

import oracles
from msfem import forms, mms, scheme, sparsela
from msfem.mesh import build_structured
from msfem.space import FieldVector, build_scalar_space, interpolate


def small_config(dim=2, M=4, r=1, dt=0.1, n=2, mode="mms", **kw):
    return scheme.SchemeConfig(dim=dim, M=M, degree=r, t_final=n * dt, dt=dt,
                               n_steps=n, mode=mode, **kw)


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


def interior(x, value):
    """``value`` at the points x (..., d) off the boundary of the unit cube,
    0 on it: data that the Dirichlet spaces interpolate."""
    return np.where(np.all((x > 0) & (x < 1), axis=-1), value, 0.0)


@pytest.mark.parametrize("point,node", [((0.5, 0.5), 12), ((0.0, 0.5), 2)])
def test_initialize_rejects_a_psi0_that_is_not_finite(point, node):
    # an interior NaN would otherwise reach the first solve, and one at a
    # constrained node on the boundary be dropped
    st = scheme.AlternatingStepper(small_config(mode="free"))
    data = st.default_initial_data()

    def psi0(x):
        return np.where(np.all(x == point, axis=-1), np.nan, data.psi0(x))

    with pytest.raises(ValueError, match=rf"not finite at node {node} .* component 0"):
        st.initialize(scheme.InitialData(psi0=psi0, A0=data.A0, A1=data.A1,
                                         phi0=data.phi0, phi1=data.phi1))


def test_initialize_constant_phi_velocity_unconstrained():
    # the velocity is constant at every free node (the name is kept from
    # when it ran on spaces without constraints)
    dt = 0.125
    cfg = small_config(dim=2, M=4, dt=dt, mode="free")
    st = scheme.AlternatingStepper(cfg)
    c = 0.75
    data = scheme.InitialData(
        psi0=lambda x: np.zeros(x.shape[:-1], dtype=complex),
        A0=lambda x: np.zeros(x.shape),
        A1=lambda x: np.zeros(x.shape),
        phi0=lambda x: np.zeros(x.shape[:-1]),
        phi1=lambda x: interior(x, c),
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
# The |psi|^2 weight and load, the current load and the source loads come
# from the oracles, which evaluate psi and the source closures at every
# cell's quadrature points.

def qdeg(st):
    return forms.quadrature_degree(st.config.degree)


def source_load(st, space, source, t):
    """The load of the manufactured source closure ``source`` at time t."""
    return oracles.naive_source_load(space, lambda x: source(st.case, x, t), qdeg(st))


def wave_a_residual(st, state, a_new):
    cfg = st.config
    dt = cfg.dt
    sp = st.spaces
    Mv = forms.assemble_mass(sp.A)
    D = forms.assemble_D(sp.A)
    W = oracles.naive_abs2_weighted_mass(sp.A, state.psi, qdeg(st))
    Fc = oracles.naive_current_load(sp.A, state.psi, qdeg(st))
    rhs = source_load(st, sp.A, mms.source_g, state.t) if cfg.mode == "mms" else 0.0
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
    dens = oracles.naive_abs2_load(sp.phi, state.psi, qdeg(st))
    lsrc = source_load(st, sp.phi, mms.source_l, state.t).real
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
    F = source_load(st, sp.psi, mms.source_f, state.t + dt / 2)
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
            want = source_load(st, space, source, t)
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


@pytest.mark.parametrize("mode", ["free", "mms"])
def test_a_run_builds_one_quadrature_table(mode):
    # setup, a step and (in mms mode) the error norms all read the one
    # default table of the mesh
    st = scheme.AlternatingStepper(small_config(dim=2, M=4, n=1, mode=mode))
    res = st.run(snapshot_steps=[1])
    assert (res.report is not None) == (mode == "mms")
    tables = [t for t in st.mesh._geom.values() if isinstance(t, forms.QuadratureTable)]
    assert len(tables) == 1


@pytest.mark.parametrize("mode", ["free", "mms"])
def test_advance_works_only_inside_the_step_phases(mode, monkeypatch):
    # every assembly, product of psi's coefficients and solve of advance()
    # runs inside step_wave_a, step_wave_phi or step_schrodinger: the traced
    # benchmark requires the phases to cover 95% of a step
    st = scheme.AlternatingStepper(small_config(dim=2, M=4, mode=mode))
    state = st.initialize()
    phases = []
    calls = []

    def phase(method):
        def wrapped(*args, **kwargs):
            phases.append(method.__name__)
            try:
                return method(*args, **kwargs)
            finally:
                phases.pop()
        return wrapped

    def recorded(module, name):
        fn = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls.append((name, bool(phases)))
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)

    for name in ("step_wave_a", "step_wave_phi", "step_schrodinger"):
        monkeypatch.setattr(scheme.AlternatingStepper, name,
                            phase(getattr(scheme.AlternatingStepper, name)))
    for name in forms.__all__:
        if name.startswith("assemble_"):
            recorded(forms, name)
    for name in ("solve_spd", "solve_complex"):
        recorded(sparsela, name)
    # the class itself stays in place: the forms dispatch on isinstance
    init = forms.FieldProducts.__init__

    def recorded_init(self, *args, **kwargs):
        calls.append(("FieldProducts", bool(phases)))
        init(self, *args, **kwargs)
    monkeypatch.setattr(forms.FieldProducts, "__init__", recorded_init)
    for _ in range(2):
        state = st.advance(state)
    names = {name for name, _ in calls}
    assert {"FieldProducts", "assemble_weighted_mass", "assemble_current_load",
            "assemble_coefficient_load", "assemble_B", "solve_spd",
            "solve_complex"} <= names
    assert [name for name, inside in calls if not inside] == []


@pytest.mark.parametrize("name,value", [
    ("dt", 0.0), ("dt", -0.25), ("dt", float("nan")), ("dt", float("inf")),
    ("tol", 0.0), ("tol", -1.0), ("tol", float("nan")), ("tol", float("inf"))])
def test_config_rejects_non_finite_or_non_positive_dt_and_tol(name, value):
    kwargs = dict(dim=2, M=4, degree=1, t_final=1.0, dt=0.25, n_steps=4, tol=1e-10)
    kwargs[name] = value
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        scheme.SchemeConfig(**kwargs)


@pytest.mark.parametrize("t_final,n_steps,match", [
    (float("nan"), 4, "t_final must be finite"),
    (float("inf"), 4, "t_final must be finite"),
    (-1.0, -4, "n_steps must be at least 1"),
    (0.0, 0, "n_steps must be at least 1")])
def test_config_rejects_non_finite_t_final_and_no_steps(t_final, n_steps, match):
    with pytest.raises(ValueError, match=match):
        scheme.SchemeConfig(dim=2, M=4, degree=1, t_final=t_final, dt=0.25,
                            n_steps=n_steps)


@pytest.mark.parametrize("name,value,match", [
    ("M", 4.0, "M must be an integer"), ("M", True, "M must be an integer"),
    ("M", 0, "M must be at least 1"), ("M", -2, "M must be at least 1"),
    ("dim", 4, "dim must be 2 or 3"), ("dim", 1, "dim must be 2 or 3"),
    ("dim", 2.0, "dim must be an integer"), ("degree", True, "degree must be an integer"),
    ("degree", 1.0, "degree must be an integer"), ("n_steps", 4.0, "n_steps must be an integer"),
    ("n_steps", "4", "n_steps must be an integer")])
def test_config_rejects_bad_integers(name, value, match):
    # input from the command line reaches the config directly: a float,
    # bool or string where an integer belongs fails here, not deep in setup
    kwargs = dict(dim=2, M=4, degree=1, t_final=1.0, dt=0.25, n_steps=4)
    kwargs[name] = value
    with pytest.raises(ValueError, match=match):
        scheme.SchemeConfig(**kwargs)


def test_config_accepts_numpy_integers():
    cfg = scheme.SchemeConfig(dim=np.int64(3), M=np.int32(4), degree=np.int64(2),
                              t_final=1.0, dt=0.25, n_steps=np.int64(4))
    assert cfg.M == 4


@pytest.mark.parametrize("dim", [2, 3])
def test_config_rejects_p1_on_one_cube_and_p2_runs_there(dim):
    # the P1 lattice with M=1 has no interior node, so every space would be
    # empty; the config says so instead of the stepper failing in assembly
    with pytest.raises(ValueError, match=r"degree \* M must be at least 2"):
        small_config(dim=dim, M=1, r=1)
    for mode in ("free", "mms"):
        st = scheme.AlternatingStepper(small_config(dim=dim, M=1, r=2, mode=mode))
        assert st.spaces.psi.n_dofs == 1
        res = st.run(snapshot_steps=[2])
        assert np.all(np.isfinite(res.psi_norms)) and res.psi_norms[-1] > 0.0


@pytest.mark.parametrize("v0", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_non_finite_v0(v0):
    # a non-finite v0 would otherwise reach the psi LU as a singular matrix
    with pytest.raises(ValueError, match="v0 must be finite"):
        scheme.SchemeConfig(dim=2, M=4, degree=1, t_final=1.0, dt=0.25,
                            n_steps=4, v0=v0)
    # any finite real stays allowed
    scheme.SchemeConfig(dim=2, M=4, degree=1, t_final=1.0, dt=0.25, n_steps=4, v0=-3.0)


# ---- dense-solve oracle on small meshes ------------------------------------

def test_step_solutions_match_dense_solves():
    cfg = scheme.SchemeConfig(dim=2, M=4, degree=1, t_final=0.2, dt=0.1,
                              n_steps=2, mode="mms", tol=1e-13)
    st = scheme.AlternatingStepper(cfg)
    state = st.initialize()
    dt = cfg.dt
    sp = st.spaces

    a_new = st.step_wave_a(state)
    W = oracles.naive_abs2_weighted_mass(sp.A, state.psi, qdeg(st))
    D = forms.assemble_D(sp.A).toarray()
    sys_d = st.mass_vec.toarray() / dt ** 2 + 0.5 * (D + W)
    rhs = (st.mass_vec @ (2 * state.a.data - state.a_prev.data) / dt ** 2
           - 0.5 * (D + W) @ state.a_prev.data
           - oracles.naive_current_load(sp.A, state.psi, qdeg(st))
           + source_load(st, sp.A, mms.source_g, state.t))
    x = np.linalg.solve(sys_d, rhs)
    assert np.linalg.norm(a_new.data - x) / np.linalg.norm(x) <= 1e-10

    phi_new = st.step_wave_phi(state)
    sys_d = st.mass.toarray() / dt ** 2 + 0.5 * st.stiffness.toarray()
    rhs = (st.mass @ (2 * state.phi.data - state.phi_prev.data) / dt ** 2
           - 0.5 * (st.stiffness @ state.phi_prev.data)
           + oracles.naive_abs2_load(sp.phi, state.psi, qdeg(st))
           + source_load(st, sp.phi, mms.source_l, state.t).real)
    x = np.linalg.solve(sys_d, rhs)
    assert np.linalg.norm(phi_new.data - x) / np.linalg.norm(x) <= 1e-10

    psi_new = st.step_schrodinger(state, a_new, phi_new)
    a_bar = FieldVector(sp.A, 0.5 * (a_new.data + state.a.data))
    phi_bar = FieldVector(sp.phi, 0.5 * (phi_new.data + state.phi.data))
    KB = forms.assemble_B(sp.psi, a_bar, st.stiffness).toarray()
    Mc = st.mass.toarray()
    Mw = forms.assemble_weighted_mass(sp.psi, phi_bar).toarray() + cfg.v0 * Mc
    S = -1j / dt * Mc + 0.25 * KB + 0.5 * Mw
    rhs = ((-1j / dt * Mc - 0.25 * KB - 0.5 * Mw) @ state.psi.data
           + source_load(st, sp.psi, mms.source_f, state.t + dt / 2))
    x = np.linalg.solve(S, rhs)
    assert np.linalg.norm(psi_new.data - x) / np.linalg.norm(x) <= 1e-10


def test_first_phi_step_from_rest_matches_dense_formula():
    # phi starting at zero with a density c at the free nodes: the first
    # step solves (M/dt^2 + K/2) phi = density load
    dt = 0.1
    cfg = small_config(dim=2, M=6, dt=dt, mode="free")
    st = scheme.AlternatingStepper(cfg)
    c = 2.0
    data = scheme.InitialData(
        psi0=lambda x: interior(x, np.sqrt(c)).astype(complex),
        A0=lambda x: np.zeros(x.shape),
        A1=lambda x: np.zeros(x.shape),
        phi0=lambda x: np.zeros(x.shape[:-1]),
        phi1=lambda x: np.zeros(x.shape[:-1]),
    )
    state = st.initialize(data)
    phi_new = st.step_wave_phi(state)
    sys_d = st.mass.toarray() / dt ** 2 + 0.5 * st.stiffness.toarray()
    load = oracles.naive_abs2_load(st.spaces.phi, state.psi, qdeg(st))
    x = np.linalg.solve(sys_d, load)
    assert np.allclose(phi_new.data, x, rtol=1e-10)
    # nodally phi ~ c dt^2 up to the stiffness correction, at the nodes
    # whose cells have no boundary vertex, so that |psi_h|^2 = c on them
    space = st.spaces.phi
    deep = np.all((space.nodes_int >= 2) & (space.nodes_int <= cfg.M - 2), axis=1)
    assert deep.sum() == 9
    assert np.allclose(phi_new.nodal_values()[deep], c * dt ** 2, rtol=0.05)


# ---- structure of the step matrices ----------------------------------------

def test_wave_system_matrices_spd():
    rng = np.random.default_rng(0)
    cfg = small_config(dim=2, M=4, dt=0.1)
    st = scheme.AlternatingStepper(cfg)
    state = st.initialize()
    W = forms.assemble_weighted_mass(st.spaces.A, forms.FieldProducts(state.psi))
    D = forms.assemble_D(st.spaces.A)
    sys_a = ((1 / cfg.dt ** 2) * st.mass_vec + 0.5 * (D + W)).toarray()
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
    KB = forms.assemble_B(st.spaces.psi, a_bar, st.stiffness).toarray()
    Mw = (forms.assemble_weighted_mass(st.spaces.psi, phi_bar).toarray()
          + cfg.v0 * st.mass.toarray())
    S = -1j / cfg.dt * st.mass.toarray() + 0.25 * KB + 0.5 * Mw
    assert np.max(np.abs(S + S.conj().T - 2 * (0.25 * KB + 0.5 * Mw))) <= 1e-12


def assert_exactly_hermitian(X):
    assert (X - X.conj().T).count_nonzero() == 0


@pytest.mark.parametrize("dim,r", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_step_matrices_are_exactly_symmetric_or_hermitian(dim, r, monkeypatch):
    # every form sums each unordered node pair once and puts the sum in
    # both slots, so the step matrices are symmetric or Hermitian exactly,
    # not to rounding; the psi left-hand side is -i/dt M plus an exactly
    # Hermitian matrix
    cfg = small_config(dim=dim, M=8 if dim == 2 else 4, r=r, dt=0.05, n=1)
    st = scheme.AlternatingStepper(cfg)
    state = st.initialize()
    systems = []

    def recording(solve):
        def wrapped(A, *args, **kwargs):
            systems.append(A)
            return solve(A, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(sparsela, "solve_spd", recording(sparsela.solve_spd))
    monkeypatch.setattr(sparsela, "solve_complex", recording(sparsela.solve_complex))
    a_new = st.step_wave_a(state)
    phi_new = st.step_wave_phi(state)
    st.step_schrodinger(state, a_new, phi_new)
    a_step, phi_step, psi_lhs = systems
    a_bar = FieldVector(st.spaces.A, 0.5 * (a_new.data + state.a.data))
    phi_bar = FieldVector(st.spaces.phi, 0.5 * (phi_new.data + state.phi.data))
    KB = forms.assemble_B(st.spaces.psi, a_bar, st.stiffness)
    Mw = forms.assemble_weighted_mass(st.spaces.psi, phi_bar)
    H = 0.25 * KB.data + 0.5 * (Mw.data + cfg.v0 * st.mass.data)
    assert np.array_equal(psi_lhs.data, -1j / cfg.dt * st.mass.data + H)
    assert phi_step is st.phi_system
    for X in (st.phi_system, st.a_system, a_step, KB, st.spaces.psi.pattern().matrix(H)):
        assert_exactly_hermitian(X)


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

def _free_mode_psi_drift(M, r, dt, n):
    """Largest relative change of the psi mass over a 3D free-mode run."""
    cfg = scheme.SchemeConfig(dim=3, M=M, degree=r, t_final=n * dt, dt=dt,
                              n_steps=n, mode="free")
    st = scheme.AlternatingStepper(cfg)
    res = st.run()
    norms = np.array(res.psi_norms)
    return np.max(np.abs(norms - norms[0])) / norms[0]


# the benchmark's bound on the psi-mass drift (DRIFT_LIMIT, perfbench/run.py)
def test_norm_conservation_free_mode():
    assert _free_mode_psi_drift(M=4, r=1, dt=0.05, n=50) <= 1e-10


def test_norm_conservation_free_mode_p2_benchmark_dt():
    assert _free_mode_psi_drift(M=3, r=2, dt=1 / 64, n=16) <= 1e-10


def _record_psi_reports(monkeypatch):
    """The list that receives the report of every later psi solve."""
    reports = []
    solve = sparsela.solve_complex

    def recording(*args, **kwargs):
        x, rep = solve(*args, **kwargs)
        reports.append(rep)
        return x, rep

    monkeypatch.setattr(sparsela, "solve_complex", recording)
    return reports


# psi free dofs: 49, 121, 125 and 125, all above the nested-dissection leaf
ORDERING_MESHES = [(2, 8, 1), (2, 6, 2), (3, 6, 1), (3, 3, 2)]


def _free_lattice(space):
    """Lattice coordinates of the free nodes, in dof order."""
    return space.nodes_int[~space.constrained[:, 0]]


@pytest.mark.parametrize("dim,M,r", ORDERING_MESHES)
def test_nested_dissection_orders_every_psi_dof(dim, M, r):
    space = scheme.build_spaces(small_config(dim=dim, M=M, r=r, mode="free")).psi
    lattice = _free_lattice(space)
    perm = sparsela.nested_dissection(lattice, r)
    assert lattice.shape[0] > sparsela.ND_LEAF
    np.testing.assert_array_equal(np.sort(perm), np.arange(space.n_dofs))
    # the top split: its lower half first, its separator last
    below, above, on = sparsela._bisect(lattice, r)
    np.testing.assert_array_equal(perm[-on.size:], on)
    assert set(perm[:below.size]) == set(below)


@pytest.mark.parametrize("dim,M,r", ORDERING_MESHES)
def test_nested_dissection_splits_are_separators(dim, M, r):
    """Every plane the bisection cuts on, down to the smallest blocks, is a
    cell-face plane: no entry of the psi pattern couples its two halves."""
    space = scheme.build_spaces(small_config(dim=dim, M=M, r=r, mode="free")).psi
    lattice = _free_lattice(space)
    pattern = space.pattern().matrix(np.ones(space.pattern().nnz)).tocsr()
    blocks, splits = [np.arange(space.n_dofs)], 0
    while blocks:
        idx = blocks.pop()
        parts = sparsela._bisect(lattice[idx], r)
        if parts is None:
            assert idx.size <= 2 ** dim
            continue
        below, above, on = (idx[p] for p in parts)
        assert below.size and above.size
        np.testing.assert_array_equal(np.sort(np.concatenate([below, above, on])),
                                      np.sort(idx))
        assert pattern[below][:, above].nnz == 0
        blocks += [below, above]
        splits += 1
    assert splits > 1


def _s0(st):
    dt = st.config.dt
    return st.spaces.psi.pattern().matrix(
        (-1j / dt + 0.5 * st.config.v0) * st.mass.data + 0.25 * st.stiffness.data)


@pytest.mark.parametrize("dim,M,r", [m for m in ORDERING_MESHES if m[2] == 2])
def test_psi_preconditioner_is_the_exact_s0_solve(dim, M, r):
    # P2: the reordered factor solves S0 as an unordered LU does
    from scipy.sparse.linalg import splu

    st = scheme.AlternatingStepper(small_config(dim=dim, M=M, r=r, dt=1 / 64, mode="free"))
    S0 = _s0(st)
    rng = np.random.default_rng(dim * 10 + r)
    rhs = rng.standard_normal(S0.shape[0]) + 1j * rng.standard_normal(S0.shape[0])
    expected = splu(S0.tocsc()).solve(rhs)
    got = st._psi_precond(rhs)
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


@pytest.mark.parametrize("dim,M", [(2, 6), (2, 9), (3, 4), (3, 5)])
def test_p1_psi_preconditioner_solves_the_sign_flip_averaged_s0(dim, M):
    # the average over the 2^d axis reflections of the interior lattice of
    # S0, dense, against the sine-transform solve
    st = scheme.AlternatingStepper(small_config(dim=dim, M=M, dt=1 / 64, mode="free"))
    S0 = _s0(st).toarray()
    lattice = _free_lattice(st.spaces.psi)
    averaged = np.zeros_like(S0)
    for flips in itertools.product((False, True), repeat=dim):
        reflected = np.where(flips, M - lattice, lattice)
        p = np.ravel_multi_index(tuple((reflected - 1).T), (M - 1,) * dim)
        averaged += S0[np.ix_(p, p)] / 2 ** dim
    rng = np.random.default_rng(dim * 10 + M)
    rhs = rng.standard_normal(S0.shape[0]) + 1j * rng.standard_normal(S0.shape[0])
    expected = np.linalg.solve(averaged, rhs)
    got = st._psi_precond(rhs)
    assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


def _refusing_splu(monkeypatch):
    """Make every later SuperLU factor raise, as out of memory does."""
    def gstrf_out_of_memory(*args, **kwargs):
        raise SystemError("gstrf was called with invalid arguments")

    monkeypatch.setattr("scipy.sparse.linalg.splu", gstrf_out_of_memory)


def test_dirichlet_p1_psi_builds_no_lu_factor(monkeypatch):
    _refusing_splu(monkeypatch)
    reports = _record_psi_reports(monkeypatch)
    scheme.AlternatingStepper(small_config(dim=3, M=4, dt=1 / 64, mode="free")).run()
    assert [rep.method for rep in reports] == ["defect-correction"] * 2


@pytest.mark.parametrize("dim,M,r", [(3, 4, 2)])
def test_psi_solve_is_lu_defect_correction(dim, M, r, monkeypatch):
    """Every P2 psi solve runs defect correction against the LU of the
    step-independent operator and converges in a few LU applies."""
    reports = _record_psi_reports(monkeypatch)
    dt = 1.0 / 64
    cfg = scheme.SchemeConfig(dim=dim, M=M, degree=r, t_final=3 * dt, dt=dt,
                              n_steps=3, mode="free")
    st = scheme.AlternatingStepper(cfg)
    state = st.initialize()
    for _ in range(3):
        state = st.advance(state)
    assert len(reports) == 3
    for rep in reports:
        assert rep.method == "defect-correction"
        assert rep.iterations <= 3


# Most transform applies per psi solve in the sweep below, measured: 16 in
# 2D (M=8, dt=1/256) and 24 in 3D (M=6, dt=1/256).  The count grows as dt/h^2
# falls, where the mass part of S0, whose Kuhn and averaged stencils differ,
# dominates.
TRANSFORM_APPLIES = {2: 16, 3: 24}


@pytest.mark.parametrize("mode", ["free", "mms"])
@pytest.mark.parametrize("dt", [1 / 4, 1 / 16, 1 / 64, 1 / 256])
@pytest.mark.parametrize("dim,M", [(2, 8), (2, 32), (3, 4), (3, 6)])
def test_p1_psi_transform_defect_correction_over_dt(dim, M, dt, mode, monkeypatch):
    """Every P1 psi solve converges by defect correction against the sine
    transform, without the LU fallback, in a bounded number of applies."""
    reports = _record_psi_reports(monkeypatch)
    scheme.AlternatingStepper(small_config(dim=dim, M=M, dt=dt, n=2, mode=mode)).run()
    assert len(reports) == 2
    for rep in reports:
        assert rep.method == "defect-correction"
        assert rep.iterations <= TRANSFORM_APPLIES[dim]


@pytest.mark.parametrize("mode", ["free", "mms"])
def test_p1_psi_transform_holds_at_dt_far_below_h2(mode, monkeypatch):
    """At dt = 1/4096 on 3D P1 M=8 (dt M^2 = 1/64) the transform takes 27 of
    the DEFECT_CORRECTION_MAX_APPLIES = 30 applies, measured, in both modes.
    Every solve still ends by defect correction: a change that pushes the
    count past the cap fails here instead of falling back to the LU."""
    reports = _record_psi_reports(monkeypatch)
    scheme.AlternatingStepper(small_config(dim=3, M=8, dt=1 / 4096, n=2, mode=mode)).run()
    assert len(reports) == 2
    for rep in reports:
        assert rep.method == "defect-correction"


def _record_wave_solves(monkeypatch):
    """The list that receives (matrix, rhs, solution, report) of every later
    SPD solve: the two wave solves of each step."""
    solves = []
    solve = sparsela.solve_spd

    def recording(A, b, *args, **kwargs):
        x, rep = solve(A, b, *args, **kwargs)
        solves.append((A, b, x, rep))
        return x, rep

    monkeypatch.setattr(sparsela, "solve_spd", recording)
    return solves


def _agrees_with_a_direct_solve(A, b, x):
    from scipy.sparse.linalg import spsolve

    exact = spsolve(A.tocsc(), b)
    return np.linalg.norm(x - exact) <= 1e-9 * np.linalg.norm(exact)


def test_p1_wave_solves_run_the_transform_once_dt_reaches_h(monkeypatch):
    """2D P1 M=32 at dt = 1/16 = 2h, h = 1/M: both wave solves of every step
    run CG preconditioned by the lattice transform, in at most 8 iterations
    (5 measured; the first A solve has a zero right-hand side), and agree
    with a direct solve.  On a random right-hand side of the phi system
    Jacobi-CG takes 45 iterations and the transform 6, measured."""
    solves = _record_wave_solves(monkeypatch)
    st = scheme.AlternatingStepper(small_config(M=32, dt=1 / 16, n=3, mode="free"))
    st.run()
    assert len(solves) == 6
    for A, b, x, rep in solves:
        assert rep.method == "cg-transform"
        assert rep.iterations <= 8
        assert _agrees_with_a_direct_solve(A, b, x)
    b = np.random.default_rng(0).standard_normal(st.phi_system.shape[0])
    _, jacobi = sparsela.solve_spd(st.phi_system, b)
    _, transform = sparsela.solve_spd(st.phi_system, b, precond=st._phi_precond)
    assert (jacobi.method, transform.method) == ("cg-jacobi", "cg-transform")
    assert jacobi.iterations >= 40
    assert transform.iterations <= 8


@pytest.mark.parametrize("dim,M,r,dt", [(3, 8, 1, 1 / 64), (2, 8, 2, 1 / 4)])
def test_wave_solves_keep_jacobi_below_h_and_for_p2(dim, M, r, dt, monkeypatch):
    """3D P1 M=8 at dt = h/8 and 2D P2 M=8 at dt = 2h build no wave
    transform, and every wave solve reports Jacobi-CG."""
    solves = _record_wave_solves(monkeypatch)
    st = scheme.AlternatingStepper(small_config(dim=dim, M=M, r=r, dt=dt, n=2, mode="free"))
    assert st._a_precond is None and st._phi_precond is None
    st.run()
    assert [rep.method for *_, rep in solves] == ["cg-jacobi"] * 4


@pytest.mark.parametrize("dim,M", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_p1_wave_transform_on_the_smallest_lattices(dim, M, monkeypatch):
    """At M <= 3 no free node of phi has all its neighbours free, so no
    matrix row holds the whole stencil; read off the templates, it still
    gives the transforms, and steps at dt = h run them and agree with a
    direct solve."""
    solves = _record_wave_solves(monkeypatch)
    scheme.AlternatingStepper(small_config(dim=dim, M=M, dt=1 / M, n=2)).run()
    assert len(solves) == 4
    for A, b, x, rep in solves:
        assert rep.method == "cg-transform"
        assert _agrees_with_a_direct_solve(A, b, x)


@pytest.mark.parametrize("dim,M,n", [(2, 49, 1), (3, 8, 2)])
def test_p1_wave_solves_run_the_transform_at_dt_equal_h(dim, M, n, monkeypatch):
    """At dt = h = 1/M both wave solves of every step run the transform,
    in at most 8 iterations (6 measured in 2D, 7-8 in 3D; the first A
    solve has a zero right-hand side), and agree with a direct solve: also
    at M=49, where (1/49) * 49 rounds to just below 1."""
    solves = _record_wave_solves(monkeypatch)
    scheme.AlternatingStepper(small_config(dim=dim, M=M, dt=1 / M, n=n, mode="free")).run()
    assert len(solves) == 2 * n
    for A, b, x, rep in solves:
        assert rep.method == "cg-transform"
        assert rep.iterations <= 8
        assert _agrees_with_a_direct_solve(A, b, x)


def test_p1_steps_agree_with_every_transform_axis_by_fft(monkeypatch):
    """2D P1 M=32 ``free`` at dt = 2h, with every transform axis (31 and 33
    points) by scipy.fft instead of the dense products: the final norms
    agree with the default run to 1e-12 relative, the psi solves report
    the same method and apply counts, and the wave solves the same CG
    iteration counts."""
    psi = _record_psi_reports(monkeypatch)
    waves = _record_wave_solves(monkeypatch)
    sine_calls = []
    dst = sparsela.dst

    def counted_dst(*args, **kwargs):
        sine_calls.append(1)
        return dst(*args, **kwargs)

    monkeypatch.setattr(sparsela, "dst", counted_dst)
    runs = []
    for cut in (sparsela.DENSE_TRANSFORM_MAX_POINTS, 0):
        monkeypatch.setattr(sparsela, "DENSE_TRANSFORM_MAX_POINTS", cut)
        st = scheme.AlternatingStepper(small_config(M=32, dt=1 / 16, n=4, mode="free"))
        runs.append((st.run(snapshot_steps=[4]).snapshots[-1],
                     [(rep.method, rep.iterations) for rep in psi],
                     [(rep.method, rep.iterations) for *_, rep in waves], len(sine_calls)))
        for calls in (psi, waves, sine_calls):
            calls.clear()
    (dense, dense_psi, dense_waves, dense_ffts), (fft, fft_psi, fft_waves, ffts) = runs
    assert dense_ffts == 0 and ffts > 0
    for key in ("psi_l2", "A_l2", "phi_l2"):
        assert abs(fft[key] - dense[key]) <= 1e-12 * abs(dense[key])
    assert fft_psi == dense_psi
    assert fft_waves == dense_waves
    assert {method for method, _ in dense_waves} == {"cg-transform"}


@pytest.mark.skipif(not scheme._glibc(), reason="the stepper pins glibc's malloc thresholds")
@pytest.mark.parametrize("mode", ["free", "mms"])
def test_warm_steps_take_their_temporaries_from_the_heap(mode):
    """Once two steps ran, a step's temporaries come from memory the heap
    kept: three more steps of 3D P1 M=8 took 0 or 1 minor page faults,
    measured, against 1056 (free) and 1344 (mms) at glibc's start
    thresholds."""
    import resource

    st = scheme.AlternatingStepper(small_config(dim=3, M=8, dt=1 / 64, n=5, mode=mode))
    state = st.initialize()
    for _ in range(2):
        state = st.advance(state)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(3):
        state = st.advance(state)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before <= 50


@pytest.mark.skipif(not scheme._openblas_thread_controls(), reason="no OpenBLAS is loaded")
def test_a_step_runs_blas_on_one_thread_and_gives_the_count_back(monkeypatch):
    """Inside advance() every loaded OpenBLAS runs on one thread; after it,
    returned or raised, each has its own count back (set to 2 here, so that
    the check holds on a one-core box too)."""
    controls = scheme._openblas_thread_controls()
    original = [get() for get, _ in controls]
    st = scheme.AlternatingStepper(small_config(mode="free"))
    state = st.initialize()
    seen = []
    step_wave_phi = st.step_wave_phi

    def recording(s):
        seen.append([get() for get, _ in controls])
        return step_wave_phi(s)

    def failing(s):
        raise scheme.SchemeError("scalar-potential solve failed")

    try:
        for _, set_ in controls:
            set_(2)
        monkeypatch.setattr(st, "step_wave_phi", recording)
        st.advance(state)
        assert seen == [[1] * len(controls)]
        assert [get() for get, _ in controls] == [2] * len(controls)
        monkeypatch.setattr(st, "step_wave_phi", failing)
        with pytest.raises(scheme.SchemeError):
            st.advance(state)
        assert [get() for get, _ in controls] == [2] * len(controls)
    finally:
        for (_, set_), n in zip(controls, original):
            set_(n)


@pytest.mark.parametrize("r,M,dt", [(1, 8, 1 / 4), (2, 8, 1 / 16)])
def test_psi_defect_correction_converges_at_large_dt(r, M, dt, monkeypatch):
    """The contraction of defect correction grows with dt.  At the largest dt
    the tests run (2D P1, dt = 1/4) and on the 2D P2 rate mesh (dt = h/2),
    every manufactured-case psi solve still converges without the LU
    fallback."""
    reports = _record_psi_reports(monkeypatch)
    scheme.AlternatingStepper(small_config(M=M, r=r, dt=dt, n=4)).run()
    assert len(reports) == 4
    for rep in reports:
        assert rep.method == "defect-correction"
        assert rep.iterations <= 12


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
        W = forms.assemble_weighted_mass(sp.A, forms.FieldProducts(psi_km1))
        Fc = forms.assemble_current_load(sp.A, forms.FieldProducts(psi_km1))
        G = source_load(st, sp.A, mms.source_g, tkm1)
        D = forms.assemble_D(sp.A)
        r = (st.mass_vec @ (a_k.data - 2 * a_km1.data + a_km2.data) / dt ** 2
             + 0.5 * (D @ (a_k.data + a_km2.data)
                      + W @ (a_k.data + a_km2.data))
             + Fc - G)
        gram = (st.mass_vec + D).toarray()
        z = np.linalg.solve(gram, r)
        taus.append(np.sqrt(abs(r @ z)))
    assert taus[1] <= taus[0] / 2 ** 0.7


def test_snapshot_records_deterministic():
    cfg = small_config(dim=2, M=3, dt=0.1, n=2)
    st = scheme.AlternatingStepper(cfg)
    res1 = st.run(snapshot_steps=[1, 2])
    st2 = scheme.AlternatingStepper(cfg)
    res2 = st2.run(snapshot_steps=np.array([1, 2]))   # numpy integers are steps too
    assert [s["k"] for s in res1.snapshots] == [1, 2]
    assert res1.snapshots == res2.snapshots


@pytest.mark.parametrize("steps,match", [
    ([5], "snapshot step 5 is outside 0..2"), ([1, -1], "snapshot step -1 is outside"),
    ([2.7], "snapshot step must be an integer, got 2.7"),
    ([2.0], "snapshot step must be an integer"), ([True], "snapshot step must be an integer")])
def test_run_rejects_snapshot_steps_it_would_not_reach(steps, match, monkeypatch):
    # a bad step fails before the first step instead of being dropped or
    # truncated
    st = scheme.AlternatingStepper(small_config(dim=2, M=4, n=2))
    monkeypatch.setattr(st, "advance", lambda state: pytest.fail("a step ran"))
    with pytest.raises(ValueError, match=match):
        st.run(snapshot_steps=steps)


def test_solver_failure_carries_step_index():
    cfg = small_config(dim=2, M=3, dt=0.1, n=1, mode="free")
    st = scheme.AlternatingStepper(cfg)
    state = st.initialize()
    st.phi_system = float("nan") * st.phi_system
    with pytest.raises(scheme.SchemeError, match="step 1"):
        st.step_wave_phi(state)


def test_psi_factor_failure_raises_scheme_error_at_setup(monkeypatch):
    # P2 factors S0; on M=2 its interior lattice has 3 x 3 nodes
    _refusing_splu(monkeypatch)
    cfg = small_config(dim=2, M=2, r=2, dt=0.1, n=1, mode="free")
    with pytest.raises(scheme.SchemeError, match=r"S0 \(9 dofs\)") as exc:
        scheme.AlternatingStepper(cfg)
    assert isinstance(exc.value.__cause__, SystemError)
