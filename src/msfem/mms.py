"""Manufactured solutions, their source terms, and error measurement.

The verification case is one triple on the unit square or cube (wave
function with a growing modulated amplitude, a curl-free oscillating vector
potential, a polynomial scalar potential), built by ``make_case(dim)``.
Every field is a time amplitude times a spatial shape, so each source is a
short sum sum_j c_j(t) s_j(x) (``ManufacturedCase.f_terms``/``g_terms``/
``l_terms``), and every shape s_j is a ``forms.Separable``, a sum of
products of one-coordinate functions (a tuple of one per component for g).
These terms are the one source truth: the stepper assembles one load per
shape by the Kuhn-lattice contraction of ``forms``, ``source_f/g/l``
evaluate the same objects pointwise, and ``source_gate`` checks those sums
directly against a Richardson-extrapolated finite-difference oracle
(``fd_sources``) built from the value closures alone.  The fields and
their derivatives are terms of the same kind over the same shapes, so each
one-coordinate function and each shape is written once, and the field
closures evaluate their terms as ``source_f/g/l`` do.  The error norms
(``error_norms``, ``gauge_residuals``) run the quadrature of ``forms``
block by block on the Kuhn lattice: one simplex template and one cube layer
at a time, with the exact fields evaluated from per-axis coordinate tables,
so they build no array over all quadrature points.
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
    take a list of dim per-axis coordinate arrays that broadcast against
    each other in place of x (see ``forms.Separable``).  Every field,
    derivative and source is a sum of time amplitudes times spatial shapes,
    sum_j c_j(t) * s_j(x); ``f_terms``, ``g_terms`` and ``l_terms`` hold the
    sources' pairs ``(c_j, s_j)`` and are the only definition of the
    sources.  Each shape s_j is a ``forms.Separable`` (a tuple of one per
    component for vectors): a sum of products of per-coordinate factors
    (sin/cos of pi x_k and 2 pi x_k, x_k (1 - x_k) and its derivative),
    which the stepper's loads tabulate per axis.

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


def _sin1(x):
    return np.sin(np.pi * x)


def _cos1(x):
    return np.cos(np.pi * x)


def _sin2(x):
    return np.sin(2.0 * np.pi * x)


def _cos2(x):
    return np.cos(2.0 * np.pi * x)


def _bubble(x):
    return x * (1 - x)


def _slope(x):
    """The derivative of ``_bubble``."""
    return 1 - 2 * x


def _times(*fns):
    """The one-coordinate function x -> prod_i fns[i](x)."""
    return lambda x: math.prod(f(x) for f in fns)


def _uniform(d, f, scale=1.0):
    """The separable shape scale * prod_k f(x_k)."""
    return forms.Separable(((scale, (f,) * d),))


def _walk(d, on, off, scale=1.0):
    """The separable shape scale * sum_a on(x_a) prod_{k != a} off(x_k)."""
    return forms.Separable(tuple(
        (scale, tuple(on if k == a else off for k in range(d))) for a in range(d)))


def _components(walk):
    """The vector shape whose component a is term a of ``walk``."""
    return tuple(forms.Separable((term,)) for term in walk.terms)


def _term(c, s, x, t):
    """c(t) s(x) for a shape s: a ``forms.Separable``, or a tuple of one per
    component stacked on a trailing axis, over which c(t) gets one too, so
    that a per-point t (n,) scales the vectors (n, d) point by point."""
    if isinstance(s, forms.Separable):
        return c(t) * s(x)
    return np.asarray(c(t))[..., None] * np.stack([comp(x) for comp in s], axis=-1)


def _source(terms, x, t):
    """sum_j c_j(t) s_j(x) over separable terms, at points or per-axis
    coordinates (see ``forms.Separable``); t is a scalar or one time per
    point."""
    first, *rest = [_term(c, s, x, t) for c, s in terms]
    return sum(rest, first)


def _field(terms):
    """The closure (x, t) -> sum_j c_j(t) s_j(x) of a field's terms."""
    return lambda x, t: _source(terms, x, t)


def _separable_case(d: int, v0: float) -> ManufacturedCase:
    """The verification triple on (0,1)^d: psi = amp(t) S(x), A = a(t) W(x)
    with W = grad G / pi, phi = tau(t) P(x), where S = prod_k sin(2 pi x_k),
    G = prod_k sin(pi x_k) and P = prod_k x_k (1 - x_k).

    Lap S = -4 d pi^2 S, div W = -d pi G and Lap W = -d pi^2 W; W is a
    gradient, so curl A = 0, and the probability current of psi is zero.
    The base shapes S, W, G, P and the derivative shapes grad S, grad P and
    Lap P are each written once, as ``forms.Separable`` sums of products of
    the one-coordinate functions above; every field, derivative and source
    is a short list of terms (c_j(t), s_j) over them, and one evaluator
    (``_source``) turns the fields' terms into the closures and the
    sources' terms into ``source_f/g/l``.
    """
    pi = np.pi

    tau = lambda t: t + np.sin(pi * t)
    tau_t = lambda t: 1.0 + pi * np.cos(pi * t)
    tau_tt = lambda t: -pi ** 2 * np.sin(pi * t)
    a = lambda t: np.cos(pi * t)
    a_t = lambda t: -pi * np.sin(pi * t)
    abs2_amp = lambda t: abs(_amp(t)) ** 2

    S = _uniform(d, _sin2)
    grad_S = _components(_walk(d, _cos2, _sin2, scale=2.0 * pi))
    # component m of W: term m of the walk cos(pi x_m) prod_{k != m} sin(pi x_k)
    W = _components(_walk(d, _cos1, _sin1))
    G = _uniform(d, _sin1)
    # curl W = 0, a scalar in 2D and three components in 3D
    zero = _uniform(d, np.zeros_like)
    curl_W = zero if d == 2 else (zero,) * 3
    P = _uniform(d, _bubble)
    grad_P = _components(_walk(d, _slope, _bubble))
    # Lap P = -2 sum_a prod_{k != a} x_k (1 - x_k)
    lap_P = _walk(d, np.ones_like, _bubble, scale=-2.0)
    sin2_sq = _times(_sin2, _sin2)

    return ManufacturedCase(
        dim=d,
        v0=v0,
        psi=_field(((_amp, S),)),
        grad_psi=_field(((_amp, grad_S),)),
        A=_field(((a, W),)),
        A_t=_field(((a_t, W),)),
        div_A=_field(((lambda t: -d * pi * a(t), G),)),
        div_A_t=_field(((lambda t: -d * pi * a_t(t), G),)),
        curl_A=_field(((a, curl_W),)),
        phi=_field(((tau, P),)),
        phi_t=_field(((tau_t, P),)),
        grad_phi=_field(((tau, grad_P),)),
        lap_phi=_field(((tau, lap_P),)),
        # f = -i psi_t + (1/2)(-Lap psi + i div A psi + 2i A.grad psi
        #     + |A|^2 psi) + v0 psi + phi psi
        f_terms=(
            (lambda t: -1j * _amp_t(t) + (2.0 * d * pi ** 2 + v0) * _amp(t), S),
            # G S
            (lambda t: -0.5j * d * pi * a(t) * _amp(t), _uniform(d, _times(_sin1, _sin2))),
            # W . grad S
            (lambda t: 1j * a(t) * _amp(t),
             _walk(d, _times(_cos1, _cos2), _times(_sin1, _sin2), scale=2.0 * pi)),
            # |W|^2 S
            (lambda t: 0.5 * a(t) ** 2 * _amp(t),
             _walk(d, _times(_cos1, _cos1, _sin2), _times(_sin1, _sin1, _sin2))),
            # P S
            (lambda t: tau(t) * _amp(t), _uniform(d, _times(_bubble, _sin2))),
        ),
        # g = A_tt - Lap A + |psi|^2 A (the current is zero); component m
        # of S^2 W is that of W with every factor times sin^2(2 pi x_k)
        g_terms=(
            (lambda t: (d - 1) * pi ** 2 * a(t), W),
            (lambda t: abs2_amp(t) * a(t),
             _components(_walk(d, _times(sin2_sq, _cos1), _times(sin2_sq, _sin1)))),
        ),
        # l = phi_tt - Lap phi - |psi|^2
        l_terms=(
            (tau_tt, P),
            (lambda t: -tau(t), lap_P),
            (lambda t: -abs2_amp(t), _uniform(d, sin2_sq)),
        ),
    )


def source_f(case: ManufacturedCase, x, t):
    """Right-hand side closing the wave-function equation."""
    return _source(case.f_terms, x, t)


def source_g(case: ManufacturedCase, x, t):
    """Right-hand side closing the vector-potential wave equation."""
    return _source(case.g_terms, x, t)


def source_l(case: ManufacturedCase, x, t):
    """Right-hand side closing the scalar-potential wave equation."""
    return _source(case.l_terms, x, t)


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


def _blocks(tab):
    """The quadrature of ``tab`` on the Kuhn lattice in blocks of one simplex
    template p and one cube layer i along axis 0: yields (p, cells, w,
    coords) with ``cells`` the slice of the block's M^(d-1) cells, in cube
    order, ``w`` the table's (q,) weights w_q det J and ``coords`` the
    per-axis coordinates of its points (``QuadratureTable.lattice``).

    A block's points form the array (M,) * (d-1) + (q,): axis 0 is one (q,)
    row of the table, and axis k >= 1 its (M, q) table on dimension k - 1,
    so a one-coordinate factor costs O(M q) per block.
    """
    x = tab.lattice
    nperm, M, nq, d = x.shape
    layer = nperm * M ** (d - 1)                            # cells per cube layer
    for p in range(nperm):
        across = [x[p, :, :, k].reshape((1,) * (k - 1) + (M,) + (1,) * (d - 1 - k) + (nq,))
                  for k in range(1, d)]
        for i in range(M):
            yield (p, slice(i * layer + p, (i + 1) * layer, nperm), tab.wdet,
                   [x[p, i, :, 0], *across])


def _field_blocks(field_vec: FieldVector, qdeg: int):
    """A discrete field block by block (``_blocks``): yields (w, coords,
    values, grads), the values (M,) * (d-1) + (q,) and the physical
    gradients with a trailing (d,), a vector field's component axis after
    the points.  Per block the values are the cell coefficients against the
    reference basis values, and the gradients against the table's physical
    basis gradients of the block's template (``QuadratureTable.gphys``)."""
    space = field_vec.space
    mesh = space.mesh
    tab = forms.quadrature_table(mesh, space.degree, qdeg)
    nq, nloc, d = tab.gref.shape
    block = (mesh.subdivisions,) * (d - 1) + (nq,)
    nodal = field_vec.nodal_values()        # once, not per block as gather_cells would
    for p, cells, w, coords in _blocks(tab):
        # (n[, comp], nloc): one row of coefficients per cell and component
        u = np.moveaxis(np.take(nodal, space.cell_nodes[cells], axis=0), 1, -1)
        rows, lead = u.reshape(-1, nloc), u.shape[1:-1]
        values = np.moveaxis((rows @ tab.vals.T).reshape(-1, *lead, nq), -1, 1)
        grads = np.moveaxis((rows @ tab.gphys[p]).reshape(-1, *lead, nq, d), -2, 1)
        yield (w, coords, values.reshape(block + lead),
               grads.reshape(block + lead + (d,)))


def _scalar_errors(field_vec: FieldVector, exact, qdeg: int) -> ErrorEntry:
    """L2 and H1 errors of a scalar field against exact(coords) -> (value,
    gradient), called once per block of ``_blocks`` with the per-axis
    coordinates of its points."""
    l2 = semi = 0.0
    for w, coords, values, grads in _field_blocks(field_vec, qdeg):
        value, grad = exact(coords)
        l2 += float(np.sum(w * np.abs(values - value) ** 2))
        semi += float(np.sum(w * np.sum(np.abs(grads - grad) ** 2, axis=-1)))
    return ErrorEntry(l2=math.sqrt(l2), h1=math.sqrt(l2 + semi),
                      parts={"grad": math.sqrt(semi)})


def _vector_errors(field_vec: FieldVector, exact, qdeg: int) -> ErrorEntry:
    """L2, div and curl errors of a vector field against exact(coords) ->
    (value, div, curl), called once per block of ``_blocks`` with the
    per-axis coordinates of its points; the reported H1-equivalent is the
    square root of their summed squares."""
    l2 = div2 = curl2 = 0.0
    for w, coords, values, grads in _field_blocks(field_vec, qdeg):
        value, div, curl = exact(coords)                 # grads (..., comp, deriv)
        l2 += float(np.sum(w * np.sum(np.abs(values - value) ** 2, axis=-1)))
        ddiv = np.trace(grads, axis1=-2, axis2=-1) - div
        div2 += float(np.sum(w * ddiv ** 2))
        if field_vec.space.mesh.dim == 2:
            dcurl = grads[..., 1, 0] - grads[..., 0, 1] - curl
            curl2 += float(np.sum(w * dcurl ** 2))
        else:
            dcurl = np.stack([grads[..., 2, 1] - grads[..., 1, 2],
                              grads[..., 0, 2] - grads[..., 2, 0],
                              grads[..., 1, 0] - grads[..., 0, 1]], axis=-1) - curl
            curl2 += float(np.sum(w * np.sum(dcurl ** 2, axis=-1)))
    return ErrorEntry(l2=math.sqrt(l2), h1=math.sqrt(l2 + div2 + curl2),
                      parts={"div": math.sqrt(div2), "curl": math.sqrt(curl2)})


def error_norms(field_vec: FieldVector, case: ManufacturedCase, which: str,
                t: float, qdeg: int | None = None) -> ErrorEntry:
    """Errors of a discrete field against the exact case field at time t.

    The quadrature is the forms' rule of degree ``qdeg`` (default
    ``forms.quadrature_degree``), summed block by block over the Kuhn
    lattice (one simplex template and one cube layer per block), so no
    array spans every quadrature point: per block the field is its cell
    coefficients against the reference tables, and the exact value and
    derivatives are the case closures at the block's per-axis coordinate
    tables.
    """
    qdeg = forms.quadrature_degree(field_vec.space.degree, qdeg)
    fns = {"psi": (case.psi, case.grad_psi), "phi": (case.phi, case.grad_phi),
           "A": (case.A, case.div_A, case.curl_A)}.get(which)
    if fns is None:
        raise ValueError(f"unknown field {which!r}")

    def exact(coords):
        return tuple(fn(coords, t) for fn in fns)

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
    so these are reported, never enforced.  The quadrature is the rule of
    degree ``qdeg`` on the Kuhn lattice of M, summed block by block as in
    ``error_norms``.
    """
    # the exact data need only the rule; P1 has the smallest table
    mesh = build_structured(case.dim, M)
    tab = forms.quadrature_table(mesh, 1, qdeg)
    n1 = n2 = 0.0
    for _, _, w, coords in _blocks(tab):
        g1 = case.div_A(coords, 0.0) + case.phi_t(coords, 0.0)
        psi0 = case.psi(coords, 0.0)
        g2 = (case.div_A_t(coords, 0.0) + case.lap_phi(coords, 0.0)
              + (psi0 * np.conj(psi0)).real)
        n1 += float(np.sum(w * g1 ** 2))
        n2 += float(np.sum(w * g2 ** 2))
    return math.sqrt(n1), math.sqrt(n2)
