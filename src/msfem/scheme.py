"""The decoupled alternating Crank-Nicolson time stepper.

Each step first advances the vector and scalar potentials by the averaged
second-order-in-time wave systems, using the wave function from the previous
level only, and then advances the wave function by a Crank-Nicolson solve
against the time-averaged new potentials.  The wave-step matrices are SPD;
the wave-function step is a Cayley-type map that conserves the discrete L2
norm exactly when sources vanish.

Sources in verification mode: every manufactured source is a sum of time
amplitudes times spatial shapes, sum_j c_j(t) s_j(x) (``mms.ManufacturedCase``
``f_terms``/``g_terms``/``l_terms``).  The stepper assembles each load
(s_j, v) once, and a step's source load is sum_j c_j(t) (s_j, v).  The wave
equations are centered at the previous time level (their second differences
and two-level averages are), so their sources are sampled at t_{k-1}; the
wave-function step is centered at the half level and takes its source at
t_{k-1/2}.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass

import numpy as np

from . import forms, mms, sparsela
from .mesh import build_structured
from .space import FeSpace, FieldVector, build_scalar_space, build_vector_space, interpolate

__all__ = [
    "SchemeConfig",
    "Spaces",
    "FieldState",
    "InitialData",
    "RunResult",
    "AlternatingStepper",
    "SchemeError",
    "build_spaces",
    "snapshot_record",
]

_DIRECT_COMPLEX_LIMIT = 2500


class SchemeError(RuntimeError):
    """A step of the scheme failed; carries the step index in the message."""


@dataclass
class SchemeConfig:
    dim: int
    M: int
    degree: int
    t_final: float
    dt: float
    n_steps: int
    v0: float = 5.0
    mode: str = "mms"
    tol: float = 1e-10

    def __post_init__(self):
        if self.degree not in (1, 2):
            raise ValueError(f"element degree must be 1 or 2, got {self.degree}")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.mode not in ("mms", "free"):
            raise ValueError(f"mode must be 'mms' or 'free', got {self.mode!r}")
        if abs(self.n_steps * self.dt - self.t_final) > 1e-9 * max(1.0, self.t_final):
            raise ValueError(
                f"n_steps * dt = {self.n_steps * self.dt} does not reach t_final={self.t_final}")


@dataclass
class Spaces:
    psi: FeSpace
    A: FeSpace
    phi: FeSpace


@dataclass
class InitialData:
    """Initial closures; each maps points (..., d) to values."""

    psi0: callable
    A0: callable
    A1: callable
    phi0: callable
    phi1: callable


@dataclass
class FieldState:
    """Discrete fields at the current level k and the levels the next step needs."""

    k: int
    t: float
    psi: FieldVector
    a: FieldVector
    a_prev: FieldVector
    phi: FieldVector
    phi_prev: FieldVector


@dataclass
class RunResult:
    config: SchemeConfig
    h: float
    times: list
    psi_norms: list
    report: "mms.ErrorReport | None"
    snapshots: list
    wall_time: float
    solve_iterations: int


def build_spaces(config: SchemeConfig) -> Spaces:
    mesh = build_structured(config.dim, config.M)
    return Spaces(
        psi=build_scalar_space(mesh, config.degree, complex_field=True),
        A=build_vector_space(mesh, config.degree),
        phi=build_scalar_space(mesh, config.degree),
    )


class AlternatingStepper:
    """Owns the spaces, the cached constant operators and the solver state.

    All matrices of one space share its CSR pattern, so each step matrix is
    built as a linear combination of ``data`` arrays on that pattern.
    """

    def __init__(self, config: SchemeConfig, spaces: Spaces | None = None):
        self.config = config
        self.case = mms.make_case(config.dim, config.v0) if config.mode == "mms" else None
        self.spaces = spaces or build_spaces(config)
        self.mesh = self.spaces.psi.mesh
        self.mass_psi = forms.assemble_mass(self.spaces.psi)
        self.mass_vec = forms.assemble_mass(self.spaces.A)
        self.D = forms.assemble_D(self.spaces.A)
        self.mass_phi = forms.assemble_mass(self.spaces.phi)
        self.stiff_phi = forms.assemble_stiffness(self.spaces.phi)
        self.stiff_psi = forms.assemble_stiffness(self.spaces.psi)
        dt = config.dt
        self.phi_system = self.spaces.phi.pattern().matrix(
            self.mass_phi.data / dt ** 2 + 0.5 * self.stiff_phi.data)
        self._psi_precond = None
        self.solve_iterations = 0
        if self.spaces.psi.n_dofs > _DIRECT_COMPLEX_LIMIT:
            self._psi_precond = self._build_psi_preconditioner()
        self._source_loads = {}
        if self.case is not None:
            for name, space, terms in (("f", self.spaces.psi, self.case.f_terms),
                                       ("g", self.spaces.A, self.case.g_terms),
                                       ("l", self.spaces.phi, self.case.l_terms)):
                self._source_loads[name] = [(c, forms.assemble_source_load(space, s))
                                            for c, s in terms]

    def _build_psi_preconditioner(self):
        """ILU of the step-independent part of the wave-function system.

        The step-dependent terms are mass-scale perturbations, so one ILU of
        (-i/dt) M + (1/4) K + (1/2) V0 M preconditions every step.
        """
        import scipy.sparse.linalg as spla

        dt = self.config.dt
        S0 = self.spaces.psi.pattern().matrix(
            (-1j / dt + 0.5 * self.config.v0) * self.mass_psi.data
            + 0.25 * self.stiff_psi.data)
        ilu = spla.spilu(S0.tocsc(), drop_tol=1e-4, fill_factor=12)
        return ilu.solve

    # ---- sources -----------------------------------------------------------

    def source_load(self, name: str, t: float) -> np.ndarray:
        """Load vector of the manufactured source ``name`` ('f', 'g' or 'l')
        at time t: sum_j c_j(t) (s_j, v) over the precomputed loads."""
        return sum(c(t) * load for c, load in self._source_loads[name])

    # ---- initialization ----------------------------------------------------

    def default_initial_data(self) -> InitialData:
        case = self.case
        if self.config.mode == "mms":
            return InitialData(
                psi0=lambda x: case.psi(x, 0.0),
                A0=lambda x: case.A(x, 0.0),
                A1=lambda x: case.A_t(x, 0.0),
                phi0=lambda x: case.phi(x, 0.0),
                phi1=lambda x: case.phi_t(x, 0.0),
            )
        psi_case = mms.make_case(self.config.dim, self.config.v0)
        zero_s = lambda x: np.zeros(x.shape[:-1])
        zero_v = lambda x: np.zeros(x.shape)
        return InitialData(psi0=lambda x: psi_case.psi(x, 0.0),
                           A0=zero_v, A1=zero_v, phi0=zero_s, phi1=zero_s)

    def initialize(self, data: InitialData | None = None) -> FieldState:
        """Interpolate the initial data and build the two ghost levels."""
        data = data or self.default_initial_data()
        dt = self.config.dt
        psi0 = interpolate(self.spaces.psi, data.psi0)
        a0 = interpolate(self.spaces.A, data.A0)
        a1 = interpolate(self.spaces.A, data.A1)
        phi0 = interpolate(self.spaces.phi, data.phi0)
        phi1 = interpolate(self.spaces.phi, data.phi1)
        a_ghost = FieldVector(self.spaces.A, a0.data - dt * a1.data)
        phi_ghost = FieldVector(self.spaces.phi, phi0.data - dt * phi1.data)
        return FieldState(k=0, t=0.0, psi=psi0,
                          a=a0, a_prev=a_ghost, phi=phi0, phi_prev=phi_ghost)

    # ---- the three solves of one step ---------------------------------------

    def step_wave_a(self, state: FieldState) -> FieldVector:
        """Advance the vector potential: SPD solve of the averaged wave system."""
        cfg = self.config
        dt = cfg.dt
        pattern = self.spaces.A.pattern()
        W = forms.assemble_weighted_mass(self.spaces.A, forms.Abs2(state.psi))
        DW = pattern.matrix(self.D.data + W.data)
        system = pattern.matrix(self.mass_vec.data / dt ** 2 + 0.5 * DW.data)
        rhs = (self.mass_vec @ (2.0 * state.a.data - state.a_prev.data) / dt ** 2
               - 0.5 * (DW @ state.a_prev.data)
               - forms.assemble_current_load(self.spaces.A, state.psi))
        if self.case is not None:
            rhs = rhs + self.source_load("g", state.t)
        try:
            x, rep = sparsela.solve_spd(system, rhs, cfg.tol)
        except sparsela.SolveError as err:
            raise SchemeError(f"vector-potential solve failed at step {state.k + 1}") from err
        self.solve_iterations += rep.iterations
        return FieldVector(self.spaces.A, x)

    def step_wave_phi(self, state: FieldState) -> FieldVector:
        """Advance the scalar potential: SPD solve with the cached system matrix."""
        cfg = self.config
        dt = cfg.dt
        rhs = (self.mass_phi @ (2.0 * state.phi.data - state.phi_prev.data) / dt ** 2
               - 0.5 * (self.stiff_phi @ state.phi_prev.data)
               + forms.assemble_coefficient_load(self.spaces.phi,
                                                 forms.Abs2(state.psi)).real)
        if self.case is not None:
            rhs = rhs + self.source_load("l", state.t)
        try:
            x, rep = sparsela.solve_spd(self.phi_system, rhs, cfg.tol)
        except sparsela.SolveError as err:
            raise SchemeError(f"scalar-potential solve failed at step {state.k + 1}") from err
        self.solve_iterations += rep.iterations
        return FieldVector(self.spaces.phi, x)

    def step_schrodinger(self, state: FieldState, a_new: FieldVector,
                         phi_new: FieldVector) -> FieldVector:
        """Advance the wave function against the time-averaged new potentials."""
        cfg = self.config
        dt = cfg.dt
        a_bar = FieldVector(self.spaces.A, 0.5 * (a_new.data + state.a.data))
        phi_bar = FieldVector(self.spaces.phi, 0.5 * (phi_new.data + state.phi.data))
        pattern = self.spaces.psi.pattern()
        K_B = forms.assemble_B(self.spaces.psi, a_bar, self.stiff_psi)
        M_w = forms.assemble_weighted_mass(self.spaces.psi, phi_bar)   # (phi_bar u, v)
        H_half = pattern.matrix(
            0.25 * K_B.data + 0.5 * (M_w.data + cfg.v0 * self.mass_psi.data))
        lhs = pattern.matrix(-1j / dt * self.mass_psi.data + H_half.data)
        rhs = (-1j / dt) * (self.mass_psi @ state.psi.data) - H_half @ state.psi.data
        if self.case is not None:
            rhs = rhs + self.source_load("f", state.t + 0.5 * dt)
        try:
            x, rep = sparsela.solve_complex(lhs, rhs, cfg.tol, precond=self._psi_precond)
        except sparsela.SolveError as err:
            raise SchemeError(f"wave-function solve failed at step {state.k + 1}") from err
        self.solve_iterations += rep.iterations
        return FieldVector(self.spaces.psi, x)

    def advance(self, state: FieldState) -> FieldState:
        """One full step: potentials first, then the wave function; shift levels."""
        a_new = self.step_wave_a(state)
        phi_new = self.step_wave_phi(state)
        psi_new = self.step_schrodinger(state, a_new, phi_new)
        k = state.k + 1
        return FieldState(k=k, t=k * self.config.dt, psi=psi_new,
                          a=a_new, a_prev=state.a, phi=phi_new, phi_prev=state.phi)

    # ---- norms and driving ---------------------------------------------------

    def psi_l2_norm(self, state: FieldState) -> float:
        v = state.psi.data
        return math.sqrt(abs(np.vdot(v, self.mass_psi @ v).real))

    def run(self, snapshot_steps=()) -> RunResult:
        """Execute all configured steps, recording norms, and at the snapshot
        steps the snapshot records and, in verification mode, the errors."""
        cfg = self.config
        collect = cfg.mode == "mms"
        t0 = time.perf_counter()
        state = self.initialize()
        snap_at = set(int(s) for s in snapshot_steps)
        report = mms.ErrorReport(h=self.mesh.h, dt=cfg.dt, M=cfg.M,
                                 degree=cfg.degree) if collect else None
        norms = [self.psi_l2_norm(state)]
        times = [0.0]
        snapshots = []
        if 0 in snap_at:
            snapshots.append(snapshot_record(self, state))
            if collect:
                self._record_errors(report, state)
        for _ in range(cfg.n_steps):
            state = self.advance(state)
            norms.append(self.psi_l2_norm(state))
            times.append(state.t)
            if state.k in snap_at:
                snapshots.append(snapshot_record(self, state))
                if collect:
                    self._record_errors(report, state)
        return RunResult(config=cfg, h=self.mesh.h, times=times, psi_norms=norms,
                         report=report, snapshots=snapshots,
                         wall_time=time.perf_counter() - t0,
                         solve_iterations=self.solve_iterations)

    def _record_errors(self, report: "mms.ErrorReport", state: FieldState):
        t = state.t
        report.add(t, "psi", mms.error_norms(state.psi, self.case, "psi", t))
        report.add(t, "A", mms.error_norms(state.a, self.case, "A", t))
        report.add(t, "phi", mms.error_norms(state.phi, self.case, "phi", t))


def _checksum(arr: np.ndarray) -> str:
    return hashlib.blake2b(np.ascontiguousarray(arr).tobytes(),
                           digest_size=8).hexdigest()


def snapshot_record(stepper: AlternatingStepper, state: FieldState) -> dict:
    """Text-stable snapshot: time, per-field L2 norm and coefficient checksum."""
    m_vec = stepper.mass_vec
    m_phi = stepper.mass_phi
    a_norm = math.sqrt(abs(state.a.data @ (m_vec @ state.a.data)))
    phi_norm = math.sqrt(abs(state.phi.data @ (m_phi @ state.phi.data)))
    return {
        "k": state.k,
        "t": state.t,
        "psi_l2": stepper.psi_l2_norm(state),
        "A_l2": a_norm,
        "phi_l2": phi_norm,
        "psi_hash": _checksum(state.psi.data),
        "A_hash": _checksum(state.a.data),
        "phi_hash": _checksum(state.phi.data),
    }
