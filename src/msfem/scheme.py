"""The decoupled alternating Crank-Nicolson time stepper.

Each step first advances the vector and scalar potentials by the averaged
second-order-in-time wave systems, using the wave function from the previous
level only, and then advances the wave function by a Crank-Nicolson solve
against the time-averaged new potentials.  The wave-step matrices are SPD;
the wave-function step is a Cayley-type map that conserves the discrete L2
norm exactly when sources vanish.

With n x A = 0 the vector Laplacian form D of the Lorentz gauge is the
componentwise stiffness (``forms.assemble_D``), so the A system
M/dt^2 + (D + W)/2 is d uncoupled scalar blocks on a pattern with no entry
between two components; M/dt^2 + D/2 is combined once, a step adds W/2.

The wave systems are solved by CG, whose preconditioner follows dt against
the lattice spacing h = 1/M.  Past dt = h, K/2 outweighs M/dt^2 at the
highest frequencies, and Jacobi-CG's iteration count grows like dt/h.  So
for P1 from dt >= h on, both systems are preconditioned by the lattice
transform of their stencil averaged over the axis sign flips
(``sparsela.lattice_transform_solve``; a trigonometric preconditioner, T.
Chan, SIAM J. Sci. Stat. Comput. 9 (1988) 766-771), whose count stays
small at every dt: phi by the type-I sine transform on the interior
lattice, each A component c by the type-I cosine transform along axis c,
which n x A = 0 leaves natural, and the sine transform along the others.
The A transform inverts M/dt^2 + D/2 and leaves out W/2, which is O(dt^2)
against M/dt^2.  Iterations of the phi system on a random right-hand side
at tol 1e-10, Jacobi / transform (the A system reads within 4 of them):

    lattice         dt/h = 1/4    1/2      1       2       8
    2D P1 M=128        15 / 12  12 / 10  23 / 8  46 / 6  172 / 4
    3D P1 M=16         16 / 14  15 / 11  26 / 8  46 / 6   72 / 4
    3D P1 M=32         17 / 14  15 / 11  27 / 8  53 / 6      -

Below dt = h the counts are close and Jacobi's apply, one vector product,
is far cheaper than two transforms: at 3D P1 M=16, dt = h/4 an A solve
took 7.0 ms by Jacobi and 17.2 ms by the transform (2-core x86-64, scipy
1.17).  At dt = h itself small 3D boxes still lose, where each FFT call's
fixed cost dominates: a 3D P1 M=16 step read 42-43 ms against Jacobi's
33-37 ms.  P2, whose cells couple nodes two lattice steps apart, keeps
Jacobi.

The wave-function system is S0 plus step-dependent mass-scale terms, with
S0 = (-i/dt + V0/2) M + K/4 fixed for the run.  Every step solves it by
defect correction, x <- x + P(b - S x) (Stetter, Numer. Math. 29 (1978)
425-443), against an inverse P of S0, exact or approximate, built once:
the step terms are O(dt) against the -i/dt M of S0, so a solve takes a few
applies of P at every system size.  For P1 P is the sine-transform solve
of S0's stencil averaged over the axis sign flips (Hockney, J. ACM 12
(1965) 95-113; T. Chan, SIAM J. Sci. Stat. Comput. 9 (1988) 766-771),
O(N log N) per apply and no factor; its stencil and the wave systems'
are combined from one read of the P1 mass and stiffness stencils.  For P2
P is the complete sparse LU of S0, taken in nested-dissection order on the
lattice's cell-face planes (George, SIAM J. Numer. Anal. 10 (1973)
345-363): no cell straddles such a plane, so its nodes separate the two
halves, fill enters only at the separators, and the factor's time, memory
and applies fall against a COLAMD-ordered LU.

The wave steps read psi from the previous level three times: in W(|psi|^2),
the current load and the |psi|^2 load.  All three are bilinear in psi's
cell coefficients, so a state forms the products conj(u_i) u_j once
(``FieldState.psi_products``, a ``forms.FieldProducts``), on first use
inside the first step phase that reads them: their real part at i <= j and
their imaginary part at i < j, which determine the rest, since the real
part is symmetric in (i, j) and the imaginary part antisymmetric.  The
three forms contract them against reference tensors folded onto those
columns; no step form evaluates psi at a quadrature point.

Sources in verification mode: every manufactured source is a sum of time
amplitudes times spatial shapes, sum_j c_j(t) s_j(x) (``mms.ManufacturedCase``
``f_terms``/``g_terms``/``l_terms``), and every shape is a
``forms.Separable``, a sum of products of one-coordinate functions.  The
stepper assembles each load (s_j, v) once, by a contraction over the Kuhn
lattice that tabulates the factors per axis and visits no quadrature point,
and a step's source load is sum_j c_j(t) (s_j, v).  The wave equations are
centered at the previous time level (their second differences and two-level
averages are), so their sources are sampled at t_{k-1}; the wave-function
step is centered at the half level and takes its source at t_{k-1/2}.

Memory: a step allocates and frees per-cell temporaries of a few MB each
(the products, the local matrices of W and B, the current load).  glibc's
malloc starts with 128 KiB thresholds for serving a block by a fresh mmap
and for returning free heap to the kernel, and raises them only as large
blocks are freed, so a run whose largest block is a step temporary hands
its temporaries back every step and faults them in again page by page.
The stepper pins both thresholds at the largest values glibc's own
adjustment reaches (``_retain_step_memory``).

Threads: a step runs with every loaded OpenBLAS on one thread
(``_one_blas_thread``).  Its BLAS calls are short: CG's dot products on
~15k-dof vectors and GEMMs of a few MB, which OpenBLAS splits over its
threads above small size thresholds.  A split call waits for its slowest
thread, so on a 2-core box with other load a call now and then stalled for
tens of ms, most often in the first steps of a stepper: at 3D P2 M=8 one
A-step CG solve (31 iterations) read 5 ms in most steps and 70-84 ms in
the first step of half the steppers, and W(|psi|^2) 5-13 ms against
0.9 ms.  On one thread the same solve read 5.1-5.6 ms and W 0.9-1.2 ms
in every step of 8 steppers.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import math
import os
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from . import forms, mms, sparsela
from .mesh import build_structured, require_integer
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


# glibc's mallopt parameters and the largest mmap threshold its dynamic
# adjustment reaches on 64-bit systems (DEFAULT_MMAP_THRESHOLD_MAX); the
# adjustment keeps the trim threshold at twice the mmap threshold.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD_MAX = 32 << 20


def _glibc() -> bool:
    """Whether the C library of this process is glibc."""
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


def _retain_step_memory():
    """Pin glibc's mmap and trim thresholds at MMAP_THRESHOLD_MAX and twice
    it, so that the temporaries a step frees stay in the heap for the next
    step.  With the start values, every warm step of 3D P1 M=16 ``mms``
    faulted ~1600 pages back in; pinned, none.  A no-op on other C
    libraries."""
    if not _glibc():
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_MAX)
    mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD_MAX)


# OpenBLAS's (get, set) thread-count functions: the builds bundled with the
# numpy and scipy wheels prefix them (numpy's ILP64 build also adds a 64_
# suffix), a system build exports the plain names
OPENBLAS_THREAD_FUNCTIONS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@cache
def _openblas_thread_controls() -> tuple:
    """The (get, set) thread-count functions of every OpenBLAS this process
    has loaded, found by the libraries' file names in /proc/self/maps; empty
    where that file does not exist or no OpenBLAS is loaded.  numpy and
    scipy, which this module imports, load theirs on import."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line[line.index("/"):].rstrip("\n") for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in OPENBLAS_THREAD_FUNCTIONS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, set_ = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = (), ctypes.c_int
                set_.argtypes, set_.restype = (ctypes.c_int,), None
                controls.append((get, set_))
                break
    return tuple(controls)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with every loaded OpenBLAS on one thread, and give each
    its thread count back afterwards (module docstring, Threads)."""
    controls = _openblas_thread_controls()
    counts = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), n in zip(controls, counts):
            set_(n)


class SchemeError(RuntimeError):
    """The stepper's setup or a step of the scheme failed.

    A step failure carries the step index in its message, a setup failure
    names the operator it factors and its dof count; both chain the
    solver's error.
    """


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
        for name in ("dim", "M", "degree", "n_steps"):
            require_integer(name, getattr(self, name))
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.M < 1:
            raise ValueError(f"M must be at least 1, got {self.M}")
        if self.degree not in (1, 2):
            raise ValueError(f"element degree must be 1 or 2, got {self.degree}")
        if self.degree * self.M < 2:
            raise ValueError(f"degree * M must be at least 2, got degree={self.degree}, "
                             f"M={self.M}: the P1 lattice with M=1 has no interior node, "
                             f"so every space is empty")
        for name in ("dt", "tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        for name in ("t_final", "v0"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be at least 1, got {self.n_steps}")
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

    @cached_property
    def psi_products(self) -> forms.FieldProducts:
        """The products of psi's cell coefficients, formed once per state, on
        first use inside the step phase that reads them: W, the current load
        and the |psi|^2 load all share them."""
        return forms.FieldProducts(self.psi)


@dataclass
class RunResult:
    psi_norms: list
    report: "mms.ErrorReport | None"
    snapshots: list


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
    built as a linear combination of ``data`` arrays on that pattern.  psi
    and phi are the Dirichlet P_r spaces of one mesh (``build_spaces``), so
    they share one scalar dof numbering and pattern, and their mass and
    stiffness have equal entries: ``mass`` and ``stiffness`` are assembled
    once, real, and serve both.
    """

    def __init__(self, config: SchemeConfig):
        _retain_step_memory()
        self.config = config
        self.case = mms.make_case(config.dim, config.v0) if config.mode == "mms" else None
        self.spaces = build_spaces(config)
        self.mesh = self.spaces.psi.mesh
        self.mass_vec = forms.assemble_mass(self.spaces.A)
        # D enters only the A system, and is not kept
        self.a_system = self.spaces.A.pattern().matrix(
            self._wave_system(self.mass_vec.data, forms.assemble_D(self.spaces.A).data))
        self.mass = forms.assemble_mass(self.spaces.phi)
        self.stiffness = forms.assemble_stiffness(self.spaces.phi)
        self.phi_system = self.spaces.phi.pattern().matrix(
            self._wave_system(self.mass.data, self.stiffness.data))
        self._source_loads = self._precompute_source_loads() if self.case is not None else {}
        self._a_precond = self._phi_precond = None
        if config.degree == 1:
            self._build_p1_preconditioners()
        else:
            self._psi_precond = self._build_p2_psi_preconditioner()

    def _wave_system(self, mass, stiffness):
        """M/dt^2 + K/2, the matrix of both wave solves but for A's W/2, of
        mass and stiffness data arrays or stencils."""
        return mass / self.config.dt ** 2 + 0.5 * stiffness

    def _s0(self, mass, stiffness):
        """S0 = (-i/dt + V0/2) M + K/4, the step-independent part of the
        wave-function system, of mass and stiffness data arrays or
        stencils."""
        return (-1j / self.config.dt + 0.5 * self.config.v0) * mass + 0.25 * stiffness

    def _precompute_source_loads(self) -> dict:
        """The loads (s_j, v) of every manufactured source shape, paired with
        their time amplitudes c_j, per source name; each shape is a
        ``forms.Separable``, so no load visits a quadrature point."""
        return {name: [(c, forms.assemble_source_load(space, s)) for c, s in terms]
                for name, space, terms in (("f", self.spaces.psi, self.case.f_terms),
                                           ("g", self.spaces.A, self.case.g_terms),
                                           ("l", self.spaces.phi, self.case.l_terms))}

    def _build_p1_preconditioners(self):
        """The P1 lattice transforms (``sparsela.lattice_transform_solve``)
        of S0 for psi and, once dt >= h = 1/M, of the wave systems for A
        and phi: each the inverse of its system's stencil averaged over the
        sign flips of the axes, O(N log N) per apply and no factor (module
        docstring).  The Kuhn stencil couples one diagonal of each cube and
        the average all of them, so the two differ, in the mass as well, by
        a bounded fraction: a psi solve takes more applies than with the
        exact inverse (4-24 in the tests), each far cheaper than an LU
        apply.

        The mass and stiffness stencils are read once, off the quadrature
        table's template rows (``forms.lattice_stencils``), and combined as
        the systems are; the A system's W/2 changes every step and is left
        out.  The free nodes of psi and phi are the interior of the Kuhn
        lattice in C order, those of A's component c the lattice closed
        along axis c."""
        m, k = forms.lattice_stencils(self.spaces.phi)
        n = self.mesh.subdivisions
        space = self.spaces.psi
        # np.take, as numpy's fancy index of the rows of a narrow array is slower
        lattice = np.take(space.nodes_int, np.flatnonzero(~space.constrained), axis=0)
        self._psi_precond = sparsela.lattice_transform_solve(self._s0(m, k), lattice, n)
        if self.config.dt * n >= 1.0:
            wave = self._wave_system(m, k)
            self._phi_precond = sparsela.lattice_transform_solve(wave, lattice, n)
            nodes, comp = np.nonzero(~self.spaces.A.constrained)    # C order of the mask
            self._a_precond = sparsela.lattice_transform_solve(
                wave, np.take(self.spaces.A.nodes_int, nodes, axis=0), n, comp)

    def _build_p2_psi_preconditioner(self):
        """The complete sparse LU of S0, the P2 psi preconditioner; returns
        its solve.  The free dofs are ordered by recursive bisection of
        their lattice coordinates on cell-face planes, each separator after
        its two halves (George, SIAM J. Numer. Anal. 10 (1973) 345-363): no
        cell straddles a face plane, so the halves eliminate independently
        and fill enters only at the separators.  S0 is complex symmetric, so
        SuperLU keeps that order on both sides (no column ordering,
        symmetric mode).  The order cuts the factor's fill against COLAMD by
        1.5-2x at the benchmark sizes, and its setup time and peak memory at
        scale.
        """
        import scipy.sparse.linalg as spla

        space = self.spaces.psi
        S0 = space.pattern().matrix(self._s0(self.mass.data, self.stiffness.data))
        # the free nodes' lattice coordinates, in dof order
        lattice = space.nodes_int[~space.constrained[:, 0]]
        perm = sparsela.nested_dissection(lattice, space.degree)
        try:
            lu = spla.splu(S0[perm][:, perm].tocsc(), permc_spec="NATURAL",
                           options={"SymmetricMode": True})
        except sparsela.LU_ERRORS as err:
            raise SchemeError(f"setup factor of the wave-function operator S0 "
                              f"({perm.size} dofs) failed: {err}") from err
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(perm.size)
        return lambda r: lu.solve(r[perm])[inverse]

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
        psi = state.psi_products
        W = forms.assemble_weighted_mass(self.spaces.A, psi)
        system = pattern.matrix(self.a_system.data + 0.5 * W.data)
        # M (2a - a_prev)/dt^2 - (D + W) a_prev / 2 = 2 M a/dt^2 - system a_prev
        rhs = ((2.0 / dt ** 2) * (self.mass_vec @ state.a.data)
               - system @ state.a_prev.data
               - forms.assemble_current_load(self.spaces.A, psi))
        if self.case is not None:
            rhs = rhs + self.source_load("g", state.t)
        try:
            x, _ = sparsela.solve_spd(system, rhs, cfg.tol, precond=self._a_precond)
        except sparsela.SolveError as err:
            raise SchemeError(f"vector-potential solve failed at step {state.k + 1}") from err
        return FieldVector(self.spaces.A, x)

    def step_wave_phi(self, state: FieldState) -> FieldVector:
        """Advance the scalar potential: SPD solve with the cached system matrix."""
        cfg = self.config
        dt = cfg.dt
        rhs = (self.mass @ (2.0 * state.phi.data - state.phi_prev.data) / dt ** 2
               - 0.5 * (self.stiffness @ state.phi_prev.data)
               + forms.assemble_coefficient_load(self.spaces.phi, state.psi_products))
        if self.case is not None:
            rhs = rhs + self.source_load("l", state.t)
        try:
            x, _ = sparsela.solve_spd(self.phi_system, rhs, cfg.tol,
                                      precond=self._phi_precond)
        except sparsela.SolveError as err:
            raise SchemeError(f"scalar-potential solve failed at step {state.k + 1}") from err
        return FieldVector(self.spaces.phi, x)

    def step_schrodinger(self, state: FieldState, a_new: FieldVector,
                         phi_new: FieldVector) -> FieldVector:
        """Advance the wave function against the time-averaged new potentials."""
        cfg = self.config
        dt = cfg.dt
        a_bar = FieldVector(self.spaces.A, 0.5 * (a_new.data + state.a.data))
        phi_bar = FieldVector(self.spaces.phi, 0.5 * (phi_new.data + state.phi.data))
        pattern = self.spaces.psi.pattern()
        K_B = forms.assemble_B(self.spaces.psi, a_bar, self.stiffness)
        # (phi_bar u, v), real, on the phi space: its pattern is psi's
        M_w = forms.assemble_weighted_mass(self.spaces.phi, phi_bar)
        H_half = pattern.matrix(
            0.25 * K_B.data + 0.5 * (M_w.data + cfg.v0 * self.mass.data))
        lhs = pattern.matrix(-1j / dt * self.mass.data + H_half.data)
        rhs = (-1j / dt) * (self.mass @ state.psi.data) - H_half @ state.psi.data
        if self.case is not None:
            rhs = rhs + self.source_load("f", state.t + 0.5 * dt)
        try:
            x, _ = sparsela.solve_complex(lhs, rhs, cfg.tol, precond=self._psi_precond)
        except sparsela.SolveError as err:
            raise SchemeError(f"wave-function solve failed at step {state.k + 1}") from err
        return FieldVector(self.spaces.psi, x)

    def advance(self, state: FieldState) -> FieldState:
        """One full step: potentials first, then the wave function; shift
        levels.  BLAS runs on one thread (module docstring, Threads)."""
        with _one_blas_thread():
            a_new = self.step_wave_a(state)
            phi_new = self.step_wave_phi(state)
            psi_new = self.step_schrodinger(state, a_new, phi_new)
        k = state.k + 1
        return FieldState(k=k, t=k * self.config.dt, psi=psi_new,
                          a=a_new, a_prev=state.a, phi=phi_new, phi_prev=state.phi)

    # ---- norms and driving ---------------------------------------------------

    def psi_l2_norm(self, state: FieldState) -> float:
        v = state.psi.data
        return math.sqrt(abs(np.vdot(v, self.mass @ v).real))

    def run(self, snapshot_steps=()) -> RunResult:
        """Execute all configured steps, recording norms, and at the snapshot
        steps, integers in 0..n_steps, the snapshot records and, in
        verification mode, the errors."""
        cfg = self.config
        collect = cfg.mode == "mms"
        snap_at = set()
        for step in snapshot_steps:
            require_integer("snapshot step", step)
            if not 0 <= step <= cfg.n_steps:
                raise ValueError(f"snapshot step {step} is outside 0..{cfg.n_steps}")
            snap_at.add(int(step))
        state = self.initialize()
        report = mms.ErrorReport(h=self.mesh.h, dt=cfg.dt, M=cfg.M,
                                 degree=cfg.degree) if collect else None
        norms = [self.psi_l2_norm(state)]
        snapshots = []
        if 0 in snap_at:
            snapshots.append(snapshot_record(self, state))
            if collect:
                self._record_errors(report, state)
        for _ in range(cfg.n_steps):
            state = self.advance(state)
            norms.append(self.psi_l2_norm(state))
            if state.k in snap_at:
                snapshots.append(snapshot_record(self, state))
                if collect:
                    self._record_errors(report, state)
        return RunResult(psi_norms=norms, report=report, snapshots=snapshots)

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
    m_phi = stepper.mass
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
