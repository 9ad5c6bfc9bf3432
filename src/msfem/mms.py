"""Manufactured solutions, their source terms, and error measurement.

The verification case is one triple on the unit square or cube (wave
function with a growing modulated amplitude, a curl-free oscillating vector
potential, a polynomial scalar potential), built by ``make_case(dim)``.
Every field is a time amplitude times a spatial shape, so each source is a
short sum sum_j c_j(t) s_j(x) (``ManufacturedCase.f_terms``/``g_terms``/
``l_terms``).  These terms are the one source truth: the stepper precomputes
one load per shape, ``source_f/g/l`` evaluate the sums pointwise, and
``source_gate`` checks those sums directly against a Richardson-extrapolated
finite-difference oracle (``fd_sources``) built from the value closures
alone.  The shapes are evaluated together from shared per-coordinate sin/cos
factors and base shapes (``ManufacturedCase.factors``).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import forms
from .mesh import build_structured
from .space import FieldVector

__all__ = [
    "ManufacturedCase",
    "ErrorEntry",
    "ErrorReport",
    "SourceGateError",
    "make_case",
    "source_f",
    "source_g",
    "source_l",
    "fd_sources",
    "source_gate",
    "error_norms",
    "observed_order",
    "gauge_residuals",
]


class SourceGateError(RuntimeError):
    """Analytic sources disagree with the finite-difference oracle."""


@dataclass
class ManufacturedCase:
    """Exact fields, the derivatives the run reads, problem constants and
    the source terms.

    All closures are vectorized over points of shape (..., dim), at a scalar
    t or at one t per point, of the points' shape; the field closures also
    take the record ``factors(x)`` of such points in place of x, so that
    several fields at the same points share it.  Every source is
    a sum of time amplitudes times spatial shapes: ``f_terms``, ``g_terms``
    and ``l_terms`` hold the pairs ``(c_j, s_j)`` with
    ``source_*(x, t) = sum_j c_j(t) * s_j(factors(x))``, and are the only
    definition of the sources.  The shapes are products of a few
    per-coordinate factors (sin/cos of pi x_i and 2 pi x_i, x_i (1 - x_i));
    ``factors(x)`` evaluates each of them at most once for all the shapes
    that read it.

    Of the derivatives, ``A_t`` and ``phi_t`` give the initial data;
    ``grad_psi``, ``div_A``, ``curl_A`` and ``grad_phi`` the error norms;
    ``lap_phi`` and ``div_A_t`` the gauge residuals.
    """

    dim: int
    v0: float
    psi: callable
    grad_psi: callable
    A: callable
    A_t: callable
    div_A: callable
    div_A_t: callable
    curl_A: callable
    phi: callable
    phi_t: callable
    grad_phi: callable
    lap_phi: callable
    factors: callable
    f_terms: tuple
    g_terms: tuple
    l_terms: tuple


def make_case(dim: int, v0: float = 5.0) -> ManufacturedCase:
    """The verification triple on (0,1)^dim, for dim 2 or 3."""
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    return _separable_case(dim, v0)


def _amp(t):
    return (1.0 + 0.5 * t) * np.exp(1j * np.pi * t)


def _amp_t(t):
    return (0.5 + 1j * np.pi * (1.0 + 0.5 * t)) * np.exp(1j * np.pi * t)


def _per_point(amp):
    """A time amplitude with a trailing axis: a per-point t of shape (n,)
    then scales vector shapes (n, d) point by point, and a scalar t scales
    them as before."""
    return np.asarray(amp)[..., None]


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


class _Factors:
    """The per-coordinate factors of the separable fields at points x, each
    a list over the coordinates, and the base shapes S, W, G, P built from
    them; each is evaluated on first use and then shared."""

    def __init__(self, x):
        self.x = np.asarray(x, dtype=float)

    def _each(self, fn):
        return [fn(self.x[..., i]) for i in range(self.x.shape[-1])]

    @cached_property
    def sin1(self):
        return self._each(lambda xi: np.sin(np.pi * xi))

    @cached_property
    def cos1(self):
        return self._each(lambda xi: np.cos(np.pi * xi))

    @cached_property
    def sin2(self):
        return self._each(lambda xi: np.sin(2.0 * np.pi * xi))

    @cached_property
    def cos2(self):
        return self._each(lambda xi: np.cos(2.0 * np.pi * xi))

    @cached_property
    def bubble(self):
        return self._each(lambda xi: xi * (1 - xi))

    @cached_property
    def S(self):
        return _product(self.sin2)

    @cached_property
    def W(self):
        return _partials(self.sin1, self.cos1)

    @cached_property
    def G(self):
        return _product(self.sin1)

    @cached_property
    def P(self):
        return _product(self.bubble)


def _at(x) -> _Factors:
    """The factor record of points x; a record passes through unchanged."""
    return x if isinstance(x, _Factors) else _Factors(x)


def _separable_case(d: int, v0: float) -> ManufacturedCase:
    """The verification triple on (0,1)^d: psi = amp(t) S(x), A = a(t) W(x)
    with W = grad G / pi, phi = tau(t) P(x).

    Lap S = -4 d pi^2 S, div W = -d pi G and Lap W = -d pi^2 W; W is a
    gradient, so curl A = 0, and the probability current of psi is zero.
    The spatial shapes take the ``_Factors`` of the points, which evaluate
    the base shapes S, W, G, P once each; the closures of x build them, or
    take a record built once for several of them.
    """
    two_pi = 2.0 * np.pi
    pi = np.pi

    S = lambda F: F.S
    W = lambda F: F.W
    G = lambda F: F.G
    P = lambda F: F.P

    def grad_S(F):
        return two_pi * _partials(F.sin2, F.cos2)

    def grad_P(F):
        return _partials(F.bubble, [1 - 2 * F.x[..., i] for i in range(d)])

    def lap_P(F):
        return -2.0 * sum(_product(F.bubble, i, 1.0) for i in range(d))

    def W_dot_grad_S(F):
        return np.einsum("...d,...d->...", W(F), grad_S(F))

    def W2_S(F):
        w = W(F)
        return np.einsum("...d,...d->...", w, w) * S(F)

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
        factors=_Factors,
        psi=lambda x, t: _amp(t) * S(_at(x)),
        grad_psi=lambda x, t: _per_point(_amp(t)) * grad_S(_at(x)),
        A=lambda x, t: _per_point(a(t)) * W(_at(x)),
        A_t=lambda x, t: _per_point(a_t(t)) * W(_at(x)),
        div_A=lambda x, t: -d * pi * a(t) * G(_at(x)),
        div_A_t=lambda x, t: -d * pi * a_t(t) * G(_at(x)),
        curl_A=lambda x, t: np.zeros(curl_shape(_at(x).x)),
        phi=lambda x, t: tau(t) * P(_at(x)),
        phi_t=lambda x, t: tau_t(t) * P(_at(x)),
        grad_phi=lambda x, t: _per_point(tau(t)) * grad_P(_at(x)),
        lap_phi=lambda x, t: tau(t) * lap_P(_at(x)),
        # f = -i psi_t + (1/2)(-Lap psi + i div A psi + 2i A.grad psi
        #     + |A|^2 psi) + v0 psi + phi psi
        f_terms=(
            (lambda t: -1j * _amp_t(t) + (2.0 * d * pi ** 2 + v0) * _amp(t), S),
            (lambda t: -0.5j * d * pi * a(t) * _amp(t), lambda F: G(F) * S(F)),
            (lambda t: 1j * a(t) * _amp(t), W_dot_grad_S),
            (lambda t: 0.5 * a(t) ** 2 * _amp(t), W2_S),
            (lambda t: tau(t) * _amp(t), lambda F: P(F) * S(F)),
        ),
        # g = A_tt - Lap A + |psi|^2 A (the current is zero)
        g_terms=(
            (lambda t: (d - 1) * pi ** 2 * a(t), W),
            (lambda t: abs2_amp(t) * a(t), lambda F: S(F)[..., None] ** 2 * W(F)),
        ),
        # l = phi_tt - Lap phi - |psi|^2
        l_terms=(
            (tau_tt, P),
            (lambda t: -tau(t), lap_P),
            (lambda t: -abs2_amp(t), lambda F: S(F) ** 2),
        ),
    )


def _source(case: ManufacturedCase, terms, x, t, vector=False):
    """sum_j c_j(t) s_j(x) over separable terms, the shapes sharing one
    factor record of the points x; t is a scalar or one time per point."""
    factors = case.factors(x)
    amp = _per_point if vector else (lambda c: c)
    return sum(amp(c(t)) * s(factors) for c, s in terms)


def source_f(case: ManufacturedCase, x, t):
    """Right-hand side closing the wave-function equation."""
    return _source(case, case.f_terms, x, t)


def source_g(case: ManufacturedCase, x, t):
    """Right-hand side closing the vector-potential wave equation."""
    return _source(case, case.g_terms, x, t, vector=True)


def source_l(case: ManufacturedCase, x, t):
    """Right-hand side closing the scalar-potential wave equation."""
    return _source(case, case.l_terms, x, t)


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
    """Compare the term sums ``source_f/g/l`` with the finite-difference
    oracle at seeded random (x, t), all points in one call of each.

    Returns the max absolute deviation; raises SourceGateError beyond tol
    or on a non-finite deviation.
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.05, 0.95, size=(n, case.dim))
    t = rng.uniform(0.05, t_max - 0.05, size=n)
    analytic = (source_f(case, x, t), source_g(case, x, t), source_l(case, x, t))
    # per point, the largest deviation over the three sources and g's components
    dev = np.max([np.abs(a - b).reshape(n, -1).max(axis=1)
                  for a, b in zip(analytic, fd_sources(case, x, t))], axis=0)
    bad = np.flatnonzero(~np.isfinite(dev))
    if bad.size:
        raise SourceGateError(
            f"non-finite source deviation at x={x[bad[0]]}, t={t[bad[0]]}")
    worst = float(dev.max())
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


def _scalar_errors(field_vec: FieldVector, exact, qdeg: int) -> ErrorEntry:
    """L2 and H1 errors of a scalar field against exact(x) -> (value,
    gradient), called once."""
    space = field_vec.space
    tab = forms.quadrature_table(space.mesh, space.degree, qdeg)
    value, grad = exact(tab.x)
    dv = forms.QuadratureField(field_vec, tab).values - value
    l2 = float(np.sum(tab.wdet * np.abs(dv) ** 2))
    del value, dv    # a fresh field for the gradients holds no values
    dg = forms.QuadratureField(field_vec, tab).gradients() - grad
    semi = float(np.sum(tab.wdet * np.sum(np.abs(dg) ** 2, axis=-1)))
    return ErrorEntry(l2=math.sqrt(l2), h1=math.sqrt(l2 + semi),
                      parts={"grad": math.sqrt(semi)})


def _vector_errors(field_vec: FieldVector, exact, qdeg: int) -> ErrorEntry:
    """L2, div and curl errors of a vector field against exact(x) -> (value,
    div, curl), called once; the reported H1-equivalent is the square root of
    their summed squares."""
    space = field_vec.space
    tab = forms.quadrature_table(space.mesh, space.degree, qdeg)
    wdet = tab.wdet
    value, div, curl_exact = exact(tab.x)
    dv = forms.QuadratureField(field_vec, tab).values - value
    l2 = float(np.sum(wdet * np.sum(np.abs(dv) ** 2, axis=-1)))
    del value, dv    # the point arrays set the peak of a large mesh's norms
    grad = forms.QuadratureField(field_vec, tab).gradients()   # (c, q, comp, deriv)
    ddiv = np.trace(grad, axis1=-2, axis2=-1) - div
    if space.mesh.dim == 2:
        dcurl = grad[..., 1, 0] - grad[..., 0, 1] - curl_exact
        del grad
        curl2 = float(np.sum(wdet * dcurl ** 2))
    else:
        dcurl = np.stack([grad[..., 2, 1] - grad[..., 1, 2],
                          grad[..., 0, 2] - grad[..., 2, 0],
                          grad[..., 1, 0] - grad[..., 0, 1]], axis=-1) - curl_exact
        del grad
        curl2 = float(np.sum(wdet * np.sum(dcurl ** 2, axis=-1)))
    div2 = float(np.sum(wdet * ddiv ** 2))
    return ErrorEntry(l2=math.sqrt(l2), h1=math.sqrt(l2 + div2 + curl2),
                      parts={"div": math.sqrt(div2), "curl": math.sqrt(curl2)})


def error_norms(field_vec: FieldVector, case: ManufacturedCase, which: str,
                t: float, qdeg: int | None = None) -> ErrorEntry:
    """Errors of a discrete field against the exact case field at time t;
    the exact value and derivatives share one ``case.factors``."""
    qdeg = forms.quadrature_degree(field_vec.space.degree, qdeg)
    fns = {"psi": (case.psi, case.grad_psi), "phi": (case.phi, case.grad_phi),
           "A": (case.A, case.div_A, case.curl_A)}.get(which)
    if fns is None:
        raise ValueError(f"unknown field {which!r}")

    def exact(x):
        factors = case.factors(x)
        return tuple(fn(factors, t) for fn in fns)

    errors = _vector_errors if which == "A" else _scalar_errors
    return errors(field_vec, exact, qdeg)


def observed_order(e_coarse: float, e_fine: float) -> float:
    """Per-halving convergence order log2(e_coarse / e_fine)."""
    if not (0.0 < e_coarse < math.inf and 0.0 < e_fine < math.inf):
        raise ValueError("observed order needs finite positive errors")
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
