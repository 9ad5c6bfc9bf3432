"""Manufactured solutions, their source terms, and error measurement.

The 3D case is the standard verification triple on the unit cube (wave
function with a growing modulated amplitude, a curl-free oscillating vector
potential, a polynomial scalar potential); the 2D analogue for fast runs comes
from the same dimension-generic constructor.  Every field is a time amplitude
times a spatial shape, so each source is a short sum sum_j c_j(t) s_j(x)
(``ManufacturedCase.f_terms``/``g_terms``/``l_terms``), from which the stepper
precomputes one load per shape.  The pointwise sources ``source_f/g/l`` are
cross-checked against a Richardson-extrapolated finite-difference oracle
built from the value closures alone, and the convergence harness refuses to
run when that gate fails.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

import numpy as np

from . import forms
from .mesh import build_structured
from .space import FieldVector

__all__ = [
    "ManufacturedCase",
    "ErrorEntry",
    "ErrorReport",
    "SourceGateError",
    "paper_case",
    "analogue_2d",
    "make_case",
    "current_density",
    "source_f",
    "source_g",
    "source_l",
    "sources",
    "fd_sources",
    "source_gate",
    "error_norms",
    "scalar_error_norms",
    "vector_error_norms",
    "observed_order",
    "gauge_residuals",
]


class SourceGateError(RuntimeError):
    """Analytic sources disagree with the finite-difference oracle."""


@dataclass
class ManufacturedCase:
    """Exact fields, their derivatives, problem constants and the source
    decomposition.

    All closures are vectorized over points of shape (..., dim).  Every
    source is a sum of time amplitudes times spatial shapes: ``f_terms``,
    ``g_terms`` and ``l_terms`` hold the pairs ``(c_j, s_j)`` with
    ``source_*(x, t) = sum_j c_j(t) * s_j(x)``.
    """

    dim: int
    v0: float
    psi: callable
    psi_t: callable
    grad_psi: callable
    lap_psi: callable
    A: callable
    A_t: callable
    A_tt: callable
    div_A: callable
    div_A_t: callable
    curl_A: callable
    lap_A: callable
    phi: callable
    phi_t: callable
    phi_tt: callable
    grad_phi: callable
    lap_phi: callable
    f_terms: tuple
    g_terms: tuple
    l_terms: tuple


def make_case(dim: int, v0: float = 5.0) -> ManufacturedCase:
    if dim == 3:
        return paper_case(v0)
    if dim == 2:
        return analogue_2d(v0)
    raise ValueError(f"dim must be 2 or 3, got {dim}")


def paper_case(v0: float = 5.0) -> ManufacturedCase:
    """The 3D verification triple on (0,1)^3."""
    return _separable_case(3, v0)


def analogue_2d(v0: float = 5.0) -> ManufacturedCase:
    """2D analogue with the same structure, for fast convergence runs."""
    return _separable_case(2, v0)


def _amp(t):
    return (1.0 + 0.5 * t) * np.exp(1j * np.pi * t)


def _amp_t(t):
    return (0.5 + 1j * np.pi * (1.0 + 0.5 * t)) * np.exp(1j * np.pi * t)


def _product(factors, replace=None, by=None):
    """prod_i factors[i], with factor ``replace`` swapped for ``by``."""
    out = by if replace == 0 else factors[0]
    for i in range(1, len(factors)):
        out = out * (by if i == replace else factors[i])
    return out


def _partials(factors, derivs):
    """(..., d) stack of prod_i factors[i] with factor a replaced by derivs[a]."""
    return np.stack([_product(factors, a, derivs[a]) for a in range(len(factors))],
                    axis=-1)


def _separable_case(d: int, v0: float) -> ManufacturedCase:
    """The verification triple on (0,1)^d: psi = amp(t) S(x), A = a(t) W(x)
    with W = grad G / pi, phi = tau(t) P(x).

    Lap S = -4 d pi^2 S, div W = -d pi G and Lap W = -d pi^2 W; W is a
    gradient, so curl A = 0, and the probability current of psi is zero.
    """
    two_pi = 2.0 * np.pi
    pi = np.pi

    def S(x):
        return _product([np.sin(two_pi * x[..., i]) for i in range(d)])

    def grad_S(x):
        return two_pi * _partials([np.sin(two_pi * x[..., i]) for i in range(d)],
                                  [np.cos(two_pi * x[..., i]) for i in range(d)])

    def W(x):
        return _partials([np.sin(pi * x[..., i]) for i in range(d)],
                         [np.cos(pi * x[..., i]) for i in range(d)])

    def G(x):
        return _product([np.sin(pi * x[..., i]) for i in range(d)])

    def P(x):
        return _product([x[..., i] * (1 - x[..., i]) for i in range(d)])

    def grad_P(x):
        return _partials([x[..., i] * (1 - x[..., i]) for i in range(d)],
                         [1 - 2 * x[..., i] for i in range(d)])

    def lap_P(x):
        u = [x[..., i] * (1 - x[..., i]) for i in range(d)]
        return -2.0 * sum(_product(u, i, 1.0) for i in range(d))

    def W_dot_grad_S(x):
        return np.einsum("...d,...d->...", W(x), grad_S(x))

    def W2_S(x):
        w = W(x)
        return np.einsum("...d,...d->...", w, w) * S(x)

    curl_shape = (lambda x: x.shape) if d == 3 else (lambda x: x.shape[:-1])

    tau = lambda t: t + np.sin(pi * t)
    tau_t = lambda t: 1.0 + pi * np.cos(pi * t)
    tau_tt = lambda t: -pi ** 2 * np.sin(pi * t)
    a = lambda t: np.cos(pi * t)
    a_t = lambda t: -pi * np.sin(pi * t)
    abs2_amp = lambda t: abs(_amp(t)) ** 2

    return ManufacturedCase(
        dim=d,
        v0=v0,
        psi=lambda x, t: _amp(t) * S(x),
        psi_t=lambda x, t: _amp_t(t) * S(x),
        grad_psi=lambda x, t: _amp(t) * grad_S(x),
        lap_psi=lambda x, t: -4.0 * d * pi ** 2 * _amp(t) * S(x),
        A=lambda x, t: a(t) * W(x),
        A_t=lambda x, t: a_t(t) * W(x),
        A_tt=lambda x, t: -pi ** 2 * a(t) * W(x),
        div_A=lambda x, t: -d * pi * a(t) * G(x),
        div_A_t=lambda x, t: -d * pi * a_t(t) * G(x),
        curl_A=lambda x, t: np.zeros(curl_shape(x)),
        lap_A=lambda x, t: -d * pi ** 2 * a(t) * W(x),
        phi=lambda x, t: tau(t) * P(x),
        phi_t=lambda x, t: tau_t(t) * P(x),
        phi_tt=lambda x, t: tau_tt(t) * P(x),
        grad_phi=lambda x, t: tau(t) * grad_P(x),
        lap_phi=lambda x, t: tau(t) * lap_P(x),
        # f = -i psi_t + (1/2)(-Lap psi + i div A psi + 2i A.grad psi
        #     + |A|^2 psi) + v0 psi + phi psi
        f_terms=(
            (lambda t: -1j * _amp_t(t) + (2.0 * d * pi ** 2 + v0) * _amp(t), S),
            (lambda t: -0.5j * d * pi * a(t) * _amp(t), lambda x: G(x) * S(x)),
            (lambda t: 1j * a(t) * _amp(t), W_dot_grad_S),
            (lambda t: 0.5 * a(t) ** 2 * _amp(t), W2_S),
            (lambda t: tau(t) * _amp(t), lambda x: P(x) * S(x)),
        ),
        # g = A_tt - Lap A + |psi|^2 A (the current is zero)
        g_terms=(
            (lambda t: (d - 1) * pi ** 2 * a(t), W),
            (lambda t: abs2_amp(t) * a(t), lambda x: S(x)[..., None] ** 2 * W(x)),
        ),
        # l = phi_tt - Lap phi - |psi|^2
        l_terms=(
            (tau_tt, P),
            (lambda t: -tau(t), lap_P),
            (lambda t: -abs2_amp(t), lambda x: S(x) ** 2),
        ),
    )


def current_density(case: ManufacturedCase, x, t):
    """Probability current (i/2)(psi* grad psi - psi grad psi*); real d-vector."""
    psi = case.psi(x, t)
    grad = case.grad_psi(x, t)
    return -np.imag(np.conj(psi)[..., None] * grad)


def source_f(case: ManufacturedCase, x, t):
    """Right-hand side closing the wave-function equation."""
    x = np.asarray(x, dtype=float)
    psi = case.psi(x, t)
    grad_psi = case.grad_psi(x, t)
    A = case.A(x, t)
    kinetic = (-case.lap_psi(x, t)
               + 1j * case.div_A(x, t) * psi
               + 2j * np.einsum("...d,...d->...", A, grad_psi)
               + np.einsum("...d,...d->...", A, A) * psi)
    return (-1j * case.psi_t(x, t) + 0.5 * kinetic + case.v0 * psi
            + case.phi(x, t) * psi)


def source_g(case: ManufacturedCase, x, t):
    """Right-hand side closing the vector-potential wave equation.

    Uses curl curl - grad div = -(vector Laplacian).
    """
    x = np.asarray(x, dtype=float)
    psi = case.psi(x, t)
    abs2 = (psi * np.conj(psi)).real
    return (case.A_tt(x, t) - case.lap_A(x, t)
            + current_density(case, x, t) + abs2[..., None] * case.A(x, t))


def source_l(case: ManufacturedCase, x, t):
    """Right-hand side closing the scalar-potential wave equation."""
    x = np.asarray(x, dtype=float)
    psi = case.psi(x, t)
    return (case.phi_tt(x, t) - case.lap_phi(x, t) - (psi * np.conj(psi)).real)


def sources(case: ManufacturedCase, x, t):
    """All three analytic right-hand sides (f, g, l) at once."""
    return source_f(case, x, t), source_g(case, x, t), source_l(case, x, t)


# ---- finite-difference oracle -------------------------------------------

def _fd1(fn, h):
    """Central first derivative with one Richardson step (4th order)."""
    coarse = (fn(+h) - fn(-h)) / (2 * h)
    fine = (fn(+h / 2) - fn(-h / 2)) / h
    return (4 * fine - coarse) / 3


def _fd2(fn, h):
    """Central second derivative with one Richardson step (4th order)."""
    f0 = fn(0.0)
    coarse = (fn(+h) - 2 * f0 + fn(-h)) / h ** 2
    fine = (fn(+h / 2) - 2 * f0 + fn(-h / 2)) / (h / 2) ** 2
    return (4 * fine - coarse) / 3


def _shift_x(x, axis, delta):
    y = np.array(x, dtype=float, copy=True)
    y[..., axis] += delta
    return y


def fd_sources(case: ManufacturedCase, x, t, h: float = 1e-4):
    """Independent source evaluation: every derivative in the source formulas
    is replaced by a finite difference of the value closures psi, A, phi."""
    x = np.asarray(x, dtype=float)
    d = case.dim
    psi = case.psi(x, t)
    A = case.A(x, t)
    phi = case.phi(x, t)

    psi_t = _fd1(lambda s: case.psi(x, t + s), h)
    grad_psi = np.stack(
        [_fd1(lambda s, a=a: case.psi(_shift_x(x, a, s), t), h) for a in range(d)],
        axis=-1)
    lap_psi = sum(_fd2(lambda s, a=a: case.psi(_shift_x(x, a, s), t), h)
                  for a in range(d))
    div_A = sum(
        _fd1(lambda s, a=a: case.A(_shift_x(x, a, s), t)[..., a], h)
        for a in range(d))
    lap_A = sum(_fd2(lambda s, a=a: case.A(_shift_x(x, a, s), t), h)
                for a in range(d))
    A_tt = _fd2(lambda s: case.A(x, t + s), h)
    phi_tt = _fd2(lambda s: case.phi(x, t + s), h)
    lap_phi = sum(_fd2(lambda s, a=a: case.phi(_shift_x(x, a, s), t), h)
                  for a in range(d))

    kinetic = (-lap_psi + 1j * div_A * psi
               + 2j * np.einsum("...d,...d->...", A, grad_psi)
               + np.einsum("...d,...d->...", A, A) * psi)
    f = -1j * psi_t + 0.5 * kinetic + case.v0 * psi + phi * psi
    current = -np.imag(np.conj(psi)[..., None] * grad_psi)
    abs2 = (psi * np.conj(psi)).real
    g = A_tt - lap_A + current + abs2[..., None] * A
    l = phi_tt - lap_phi - abs2
    return f, g, l


def source_gate(case: ManufacturedCase, n: int = 1000, seed: int = 20240501,
                tol: float = 1e-6, t_max: float = 4.0) -> float:
    """Compare analytic and finite-difference sources at seeded random (x, t).

    Returns the max absolute deviation; raises SourceGateError beyond tol.
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.05, 0.95, size=(n, case.dim))
    t = rng.uniform(0.05, t_max - 0.05, size=n)
    worst = 0.0
    for i in range(n):
        fa, ga, la = sources(case, x[i], float(t[i]))
        fb, gb, lb = fd_sources(case, x[i], float(t[i]))
        dev = max(abs(fa - fb), np.max(np.abs(ga - gb)), abs(la - lb))
        worst = max(worst, float(dev))
    if worst > tol:
        raise SourceGateError(
            f"analytic sources deviate from FD oracle by {worst:.3e} > {tol:.1e}")
    return worst


# ---- error norms ----------------------------------------------------------

@dataclass
class ErrorEntry:
    l2: float
    h1: float
    parts: dict


def scalar_error_norms(field_vec: FieldVector, value_fn, grad_fn,
                       qdeg: int) -> ErrorEntry:
    """L2 and H1 errors of a scalar field against exact closures."""
    space = field_vec.space
    tab = forms.quadrature_table(space.mesh, space.degree, qdeg)
    l2 = 0.0
    semi = 0.0
    for sl in forms._chunks(space.mesh.n_cells, 8 * space.element.node_count):
        x, wdet = tab.x[sl], tab.wdet[sl]
        dv = tab.field_values(field_vec, sl) - value_fn(x)
        dg = tab.field_gradients(field_vec, sl) - grad_fn(x)
        l2 += float(np.sum(wdet * np.abs(dv) ** 2))
        semi += float(np.sum(wdet * np.sum(np.abs(dg) ** 2, axis=-1)))
    return ErrorEntry(l2=math.sqrt(l2), h1=math.sqrt(l2 + semi),
                      parts={"grad": math.sqrt(semi)})


def vector_error_norms(field_vec: FieldVector, value_fn, div_fn, curl_fn,
                       qdeg: int) -> ErrorEntry:
    """L2, div and curl errors of a vector field; the reported H1-equivalent
    is the square root of their summed squares."""
    space = field_vec.space
    tab = forms.quadrature_table(space.mesh, space.degree, qdeg)
    d = space.mesh.dim
    l2 = div2 = curl2 = 0.0
    for sl in forms._chunks(space.mesh.n_cells, 8 * space.element.node_count * d):
        x, wdet = tab.x[sl], tab.wdet[sl]
        dv = tab.field_values(field_vec, sl) - value_fn(x)
        grad = tab.field_gradients(field_vec, sl)   # (c, q, comp, deriv)
        ddiv = np.trace(grad, axis1=-2, axis2=-1) - div_fn(x)
        if d == 2:
            dcurl = grad[..., 1, 0] - grad[..., 0, 1] - curl_fn(x)
            curl2 += float(np.sum(wdet * dcurl ** 2))
        else:
            curl = np.stack([grad[..., 2, 1] - grad[..., 1, 2],
                             grad[..., 0, 2] - grad[..., 2, 0],
                             grad[..., 1, 0] - grad[..., 0, 1]], axis=-1)
            dcurl = curl - curl_fn(x)
            curl2 += float(np.sum(wdet * np.sum(dcurl ** 2, axis=-1)))
        l2 += float(np.sum(wdet * np.sum(np.abs(dv) ** 2, axis=-1)))
        div2 += float(np.sum(wdet * ddiv ** 2))
    return ErrorEntry(l2=math.sqrt(l2), h1=math.sqrt(l2 + div2 + curl2),
                      parts={"div": math.sqrt(div2), "curl": math.sqrt(curl2)})


def error_norms(field_vec: FieldVector, case: ManufacturedCase, which: str,
                t: float, qdeg: int | None = None) -> ErrorEntry:
    """Errors of a discrete field against the exact case field at time t."""
    qdeg = forms.quadrature_degree(field_vec.space.degree, qdeg)
    if which == "psi":
        return scalar_error_norms(field_vec, lambda x: case.psi(x, t),
                                  lambda x: case.grad_psi(x, t), qdeg)
    if which == "phi":
        return scalar_error_norms(field_vec, lambda x: case.phi(x, t),
                                  lambda x: case.grad_phi(x, t), qdeg)
    if which == "A":
        return vector_error_norms(field_vec, lambda x: case.A(x, t),
                                  lambda x: case.div_A(x, t),
                                  lambda x: case.curl_A(x, t), qdeg)
    raise ValueError(f"unknown field {which!r}")


def observed_order(e_coarse: float, e_fine: float) -> float:
    """Per-halving convergence order log2(e_coarse / e_fine)."""
    if e_coarse <= 0.0 or e_fine <= 0.0:
        raise ValueError("observed order needs positive errors")
    return math.log2(e_coarse / e_fine)


@dataclass
class ErrorReport:
    """Per-snapshot, per-field errors of one run."""

    h: float
    dt: float
    M: int
    degree: int
    entries: dict = field(default_factory=dict)  # (time, field) -> ErrorEntry

    def add(self, t: float, which: str, entry: ErrorEntry):
        self.entries[(t, which)] = entry

    def times(self):
        return sorted({t for t, _ in self.entries})

    def get(self, t: float, which: str) -> ErrorEntry:
        return self.entries[(t, which)]

    def to_csv(self, coarser: "ErrorReport | None" = None) -> str:
        """Long-format CSV; the order column is blank without a coarser run."""
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["time", "field", "L2", "H1_total", "H1_part_names",
                    "H1_parts", "h", "dt", "order"])
        for (t, which) in sorted(self.entries, key=lambda k: (k[0], k[1])):
            e = self.entries[(t, which)]
            order = ""
            if coarser is not None and (t, which) in coarser.entries:
                order = f"{observed_order(coarser.entries[(t, which)].h1, e.h1):.2f}"
            names = "+".join(e.parts)
            parts = "+".join(f"{v:.4e}" for v in e.parts.values())
            w.writerow([t, which, f"{e.l2:.4e}", f"{e.h1:.4e}", names, parts,
                        f"{self.h:.6e}", f"{self.dt:.6e}", order])
        return buf.getvalue()


def gauge_residuals(case: ManufacturedCase, M: int = 8,
                    qdeg: int = 6) -> tuple[float, float]:
    """L2 norms of the two initial-data gauge constraints.

    Returns (|| div A0 + phi1 ||, || div A1 + lap phi0 + |psi0|^2 ||); the
    verification cases do not satisfy them (the sources absorb the mismatch),
    so these are reported, never enforced.
    """
    # the exact data need only the points and weights; P1 has the smallest table
    tab = forms.quadrature_table(build_structured(case.dim, M), 1, qdeg)
    x, wdet = tab.x, tab.wdet

    g1 = case.div_A(x, 0.0) + case.phi_t(x, 0.0)
    psi0 = case.psi(x, 0.0)
    g2 = (case.div_A_t(x, 0.0) + case.lap_phi(x, 0.0)
          + (psi0 * np.conj(psi0)).real)
    n1 = math.sqrt(float(np.sum(wdet * g1 ** 2)))
    n2 = math.sqrt(float(np.sum(wdet * g2 ** 2)))
    return n1, n2
