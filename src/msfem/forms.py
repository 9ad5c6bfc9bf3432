"""Assembly of the bilinear forms and load vectors used by the scheme.

Every form, load and error norm of a run sums one quadrature rule, of the
default degree 2r+2 (``quadrature_degree``), which keeps the quadrature
error of the coefficient forms and loads below the scheme's spatial order;
``quadrature_table`` builds its table once per (mesh, degree, qdeg) on the
whole mesh and caches it there.  The table keeps no basis data per cell.
Physical basis gradients factor through the reference ones, grad phi_l(x_q)
= J^{-T} grad_ref phi_l(xi_q), so every contraction runs against small
cell-independent tensors: the reference-tensor factorisation of Kirby &
Logg, ACM TOMS 32(3), 2006.  The mesh is the Kuhn lattice, so the geometry
is the one scalar det J and the d! template maps J_p^{-T} (``Mesh``): cell
c = cube d! + p is template p, and a cell array read as (cube, p) blocks
meets each template once.  Each form contracts per-cell coefficients,
scaled by det J, against a tensor of the table (``QuadratureTable``): a
reference tensor, an integral over the reference cell, in one GEMM, or a
template-mapped tensor, one per template with J_p^{-T} applied when the
table is built, in one GEMM per template; it writes only the local
entries (i, j) with i <= j:

- the mass: det J against ``mass_row``;
- the stiffness and ``D``: the d! local matrices ``stiffness_local``,
  repeated cube by cube;
- (phi u, v) for a discrete phi: phi's cell coefficients against ``vvv``;
- W(|psi|^2) and the |A|^2 part of ``B``: the coefficient products
  Re(conj(u_k) u_l) (``FieldProducts``), or A_k . A_l, at k <= l, against
  ``vvvv`` folded onto those rows;
- the |psi|^2 load: the same products against ``vvv_load``, ``vvv`` read
  as (k l, a) and folded;
- the psi-A coupling, one tensor ``coupling`` for both of its halves: the
  current load contracts the products Im(conj(u_i) u_j) at i < j against
  it, and the A . grad part of ``B`` contracts A's cell coefficients
  against its transpose, scaled by det J and oriented per template
  (``sparsela.CellSums.sign``).

The tensors sum over the table's own rule, so these forms compute the same
quadrature sums as a pass over the points would, reassociated.  No step
form visits a quadrature point.  Every form and load is one pass over the
whole mesh.  The error norms of ``mms`` sum the same rule block by block on
the Kuhn lattice (``QuadratureTable.lattice`` and ``.gphys``); they too
build no array over the points.

Every form and load on a space is summed by that space's CSR pattern
(``FeSpace.pattern``, a ``sparsela.Pattern``).  A form hands it compact
scalar local matrices, (cells, nloc (nloc + 1) / 2): each cell's entries
(i, j), i <= j, in the order of ``np.triu_indices``, of a symmetric local
matrix, or for the A . grad part of ``B`` of an antisymmetric one, each
entry oriented by its template (``sparsela.CellSums.sign``).
``Pattern.assemble`` sums each unordered node pair once and puts the sum
in both slots (a, b) and (b, a), negated in one for the antisymmetric
part, and in every component's slot of a vector space.
Every form is therefore exactly symmetric or Hermitian, and is returned as
a ``scipy.sparse.csr_array`` that shares the pattern's index arrays.  A
load hands it the local loads (cells, nloc, comp);
``Pattern.assemble_load`` sums them per node and keeps the free dofs.
Forms on one space can therefore be combined by combining their ``data``
arrays.  Every vector form is componentwise: the masses by
definition, and the div-div + curl-curl form ``D`` because on this space it
equals the componentwise stiffness (see ``assemble_D``).

A weight is one of: None (the constant one), a scalar ``FieldVector`` of
the space's degree (its real part) or ``FieldProducts`` of a scalar field
of the space's degree (|u|^2).  A load coefficient is ``FieldProducts``
(the load of |u|^2) or a ``Separable`` sum of products of one-coordinate
functions, a tuple of one per component on vector spaces.  The
manufactured sources are ``Separable``: their loads factor over the Kuhn
lattice into per-axis tables and one GEMM per simplex template (sum
factorisation on the table's ``lattice``; see ``assemble_coefficient_load``),
so no (cells, q) array is built for them.  The tests' references evaluate
fields and coefficients at the points instead, cell by cell
(``space.evaluate``, ``elements.affine_map``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .elements import quadrature_rule, reference_element
from .mesh import Mesh, kuhn_corners
from .space import FeSpace, FieldVector

__all__ = [
    "QuadratureTable",
    "FieldProducts",
    "Separable",
    "assemble_mass",
    "assemble_stiffness",
    "assemble_D",
    "assemble_B",
    "assemble_weighted_mass",
    "assemble_current_load",
    "assemble_source_load",
    "assemble_coefficient_load",
    "quadrature_degree",
    "quadrature_table",
]


def quadrature_degree(degree: int, qdeg: int | None = None) -> int:
    """Quadrature degree of every form, load and error norm for degree-r
    elements: ``qdeg`` if given, else 2r+2."""
    return 2 * degree + 2 if qdeg is None else qdeg


class QuadratureTable:
    """The tensors of every form, load and error norm of one quadrature rule
    on a mesh, of two kinds; no array has a cell axis.

    Reference tensors: ``vals`` (q, nloc) and ``gref`` (q, nloc, d) the
    reference basis values and gradients, ``wdet`` (q,) the weights times
    det J, and integrals over the reference cell of products of basis
    values, with vv[q, i nloc + j] = vals[q, i] vals[q, j].  The forms keep
    only the T = nloc (nloc + 1) / 2 columns ij of the local entries (i, j),
    i <= j, in the order of ``np.triu_indices``, the compact local matrices
    that ``sparsela.Pattern.assemble`` sums, and the symmetric coefficient
    products c_kl = c_lk of ``FieldProducts`` and ``assemble_B``'s Gram only
    the rows k <= l, onto which ``_fold`` folds a tensor once:

    - ``mass_row`` (T,) = w @ vv, the reference mass matrix;
    - ``vvv`` (nloc, T), vvv[k, ij] = sum_q w_q v_k v_i v_j;
    - ``vvvv`` (T, T), vv^T diag(w) vv folded;
    - ``vvv_load`` (T, nloc), the full vvv read as (k i, j) folded.

    Template-mapped tensors, one per Kuhn template p, mapped by the mesh's
    J_p^{-T} here, so that no form or norm reads the template maps:

    - ``stiffness_local`` (d!, T), the local stiffness matrices det J
      J_p^{-1} J_p^{-T} : gg, gg[k d + l, ij] = sum_q w_q gref[q, i, k]
      gref[q, j, l];
    - ``coupling`` (d!, nloc (nloc - 1) / 2, nloc d), the psi-A coupling
      sum_k (J_p^{-T})_mk (vgv[ij, ka] - vgv[ji, ka]) at i < j, columns
      (a, m), with vgv[i nloc + j, k nloc + a] = sum_q w_q v_i d_k v_j v_a:
      Im(conj(u_i) u_j) against it is the current, and A_am against its
      transpose the A . grad part of ``B``;
    - ``gphys`` and ``lattice``, built on first use for the error norms and
      the separable loads (see each).

    Every tensor sums over this table's own rule, so a form that contracts
    per-cell coefficients against it computes the same quadrature sum as one
    that visits the points, reassociated.  Built once per (mesh, degree,
    qdeg) by ``quadrature_table``.
    """

    def __init__(self, mesh: Mesh, degree: int, qdeg: int):
        rule = quadrature_rule(mesh.dim, qdeg)
        vals, gref = reference_element(mesh.dim, degree).tabulate(rule.points_ref)
        nq, nloc, d = gref.shape
        w = rule.weights
        self.vals = vals                                    # (q, nloc)
        self.gref = gref                                    # (q, nloc, d)
        self.wdet = w * mesh.det                            # (q,)
        vv = np.einsum("qi,qj->qij", vals, vals).reshape(nq, nloc * nloc)
        wvv = w[:, None] * vv
        vvv = vals.T @ wvv
        # the columns i <= j of the local matrices, in np.triu_indices order
        upper = np.ravel_multi_index(np.triu_indices(nloc), (nloc, nloc))
        self.mass_row = (w @ vv)[upper]
        self.vvv = vvv[:, upper]
        self.vvvv = _fold(vv.T @ wvv, nloc)[:, upper]
        self.vvv_load = _fold(vvv.reshape(nloc * nloc, nloc), nloc)
        JinvT = mesh.JinvT                                  # (d!, d, d)
        # (m, k, p): geometry[k, l, p] = sum_m JinvT[p, m, k] JinvT[p, m, l]
        rows = JinvT.transpose(1, 2, 0)
        geometry = (rows[:, :, None] * rows[:, None, :]).sum(axis=0) * mesh.det
        gg = np.einsum("q,qik,qjl->klij", w, gref, gref).reshape(d * d, nloc * nloc)
        self.stiffness_local = geometry.reshape(d * d, -1).T @ gg[:, upper]
        vgv = np.einsum("q,qi,qjk,qa->ijka", w, vals, gref, vals
                        ).reshape(nloc * nloc, d * nloc)
        skew = _fold(vgv, nloc, sign=-1).reshape(-1, d, nloc)
        self.coupling = np.einsum("pmk,ika->piam", JinvT, skew
                                  ).reshape(len(JinvT), -1, nloc * d)
        self._Jinv = np.swapaxes(JinvT, 1, 2)               # J_p^{-1}, for gphys
        self._points = rule.points_ref
        self._subdivisions = mesh.subdivisions

    @functools.cached_property
    def gphys(self) -> np.ndarray:
        """(d!, nloc, q d): the physical basis gradients, gphys[p, l, q d +
        m] = (J_p^{-T} gref[q, l])_m."""
        nq, nloc, d = self.gref.shape
        grads = self.gref @ self._Jinv[:, None]             # (p, q, nloc, d)
        return grads.transpose(0, 2, 1, 3).reshape(-1, nloc, nq * d)

    @functools.cached_property
    def lattice(self) -> np.ndarray:
        """(d!, M, q, d): the rule's points on the Kuhn lattice, per simplex
        template, as per-axis coordinates; their weights are ``wdet``.

        Rule point q of the simplex of template p in the cube with low
        corner i has coordinates x_k = (i_k + xi[p, q, k]) / M, with xi the
        rule's points mapped into the unit cube by the template's corners,
        so its coordinate k is entry [p, i_k, q, k].  A function of one
        coordinate is thus one (d!, M, q) table, and the separable loads and
        the error norms evaluate nothing per cell.
        """
        M = self._subdivisions
        corners = kuhn_corners(self.gref.shape[2])
        xi = corners[:, :1] + self._points @ (corners[:, 1:] - corners[:, :1])
        return (np.arange(M)[None, :, None, None] + xi[:, None]) / M


def _fold(tensor: np.ndarray, nloc: int, sign: int = 1) -> np.ndarray:
    """The rows k nloc + l of ``tensor`` folded onto k <= l (onto k < l if
    ``sign`` is -1): row kl plus ``sign`` times row lk, the diagonal once.
    Contracted with the columns k <= l of products c_kl = sign c_lk, it
    gives the contraction of all nloc^2 products with ``tensor``."""
    rows = tensor.reshape(nloc, nloc, -1)
    k, l = np.triu_indices(nloc, 0 if sign > 0 else 1)
    return rows[k, l] + (sign * (k != l))[:, None] * rows[l, k]


def quadrature_table(mesh: Mesh, degree: int, qdeg: int | None = None) -> QuadratureTable:
    """The mesh's quadrature table for degree-``degree`` elements, cached on
    the mesh; ``qdeg`` defaults to ``quadrature_degree(degree)``."""
    qdeg = quadrature_degree(degree, qdeg)
    key = ("quadrature", degree, qdeg)
    if key not in mesh._geom:
        mesh._geom[key] = QuadratureTable(mesh, degree, qdeg)
    return mesh._geom[key]


class FieldProducts:
    """The products of a scalar field's cell coefficients, times det J:
    ``re`` Re(conj(u_i) u_j), (cells, nloc (nloc + 1) / 2), at the columns
    i <= j, and ``im`` Im(conj(u_i) u_j), (cells, nloc (nloc - 1) / 2), at
    the columns i < j, each in the row-major order of ``np.triu_indices``.

    They expand |u|^2 = sum_ij Re(conj(u_i) u_j) phi_i phi_j and
    -Im(conj(u) grad u) = -sum_ij Im(conj(u_i) u_j) phi_i grad phi_j on
    every cell.  Re is symmetric in (i, j) and Im antisymmetric, so the
    columns kept determine the rest, and W(|psi_h|^2), the |psi_h|^2 load
    and the current load contract them against reference tensors folded
    onto those columns (``QuadratureTable``), of any table of the field's
    degree; none of them visits a quadrature point.  The scheme builds them
    once per state.
    """

    def __init__(self, field_vec: FieldVector):
        space = field_vec.space
        if space.kind != "scalar":
            raise ValueError("products are formed of a scalar field")
        i, j = np.triu_indices(space.element.node_count)
        # (nloc, c), cells last: every product runs over the cells
        u = np.ascontiguousarray(space.gather_cells(field_vec).T)
        p = _upper_products(u.conj(), u * space.mesh.det)
        self.space = space
        self.re = np.ascontiguousarray(p.real).T
        # in C order: the current load reads it a template at a time
        self.im = np.ascontiguousarray(p.imag[i < j].T)


def _upper_products(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The products x[i] y[j], i <= j, of two (nloc, c) arrays, stacked
    (nloc (nloc + 1) / 2, c) in the order of ``np.triu_indices``: one
    product of contiguous rows per i, and no gather."""
    n = x.shape[0]
    out = np.empty((n * (n + 1) // 2,) + x.shape[1:], dtype=np.result_type(x, y))
    start = 0
    for i in range(n):
        np.multiply(x[i], y[i:], out=out[start:start + n - i])
        start += n - i
    return out


@dataclass(frozen=True)
class Separable:
    """A coefficient that is a sum of products of functions of one
    coordinate each: sum_j scale_j prod_k f_jk(x_k).

    ``terms`` holds the pairs ``(scale_j, (f_j0, ..., f_j(d-1)))``, each f a
    vectorised callable of one coordinate array.  A vector coefficient is a
    tuple of one ``Separable`` per component.  It is evaluated at points,
    an array (..., d), or at a list of d per-axis coordinate arrays that
    broadcast against each other; there each factor is evaluated on its
    axis's table alone, as in its load on the Kuhn lattice (see
    ``assemble_coefficient_load``).
    """

    terms: tuple

    def factor_tables(self, x):
        """Per term, its scale and its factors f_jk(x_k) at x, given as to
        ``__call__``; a term of another factor count than d raises."""
        coords = x if isinstance(x, list) else np.moveaxis(np.asarray(x, dtype=float), -1, 0)
        for scale, fs in self.terms:
            if len(fs) != len(coords):
                raise ValueError(f"a separable term on {len(coords)} coordinates "
                                 f"has {len(fs)} factors")
            yield scale, [f(c) for f, c in zip(fs, coords)]

    def __call__(self, x) -> np.ndarray:
        # a unit scale and the first term cost no pass over the points
        terms = [math.prod(tables) if scale == 1 else scale * math.prod(tables)
                 for scale, tables in self.factor_tables(x)]
        return sum(terms[1:], terms[0])


def _on_pattern(space: FeSpace, loc: np.ndarray):
    """csr_array of the compact scalar local matrices ``loc`` (cells, nloc
    (nloc + 1) / 2) summed on the space's pattern, in every component of a
    vector space."""
    pat = space.pattern()
    return pat.matrix(pat.assemble(loc).astype(space.dtype, copy=False))


def _per_template(rows: np.ndarray, tensors: np.ndarray) -> np.ndarray:
    """``rows`` (cells, n) times the (n, k) tensor of each cell's template,
    ``tensors`` (d!, n, k): one GEMM per template on its cells, which are
    every d!-th row (cell c = cube d! + p).  On C-ordered ``rows`` each
    template's rows are a strided matrix that BLAS reads in place."""
    nperm, _, k = tensors.shape
    blocks = rows.reshape(-1, nperm, rows.shape[1])                 # (cube, p, n)
    out = np.empty((blocks.shape[0], nperm, k), dtype=np.result_type(rows, tensors))
    for p in range(nperm):
        np.matmul(blocks[:, p], tensors[p], out=out[:, p])
    return out.reshape(rows.shape[0], k)


def assemble_mass(space: FeSpace, qdeg: int | None = None) -> sp.csr_array:
    """Mass matrix (u, v); block-diagonal per component for vector spaces."""
    return assemble_weighted_mass(space, None, qdeg=qdeg)


def assemble_weighted_mass(space: FeSpace, weight, qdeg: int | None = None) -> sp.csr_array:
    """(w u, v) with w a scalar weight: None, a ``FieldVector`` or
    ``FieldProducts`` (see the module docstring)."""
    _check_coeff_space(space, weight)
    mesh = space.mesh
    tab = quadrature_table(mesh, space.degree, qdeg)
    det = mesh.det
    if weight is None:
        loc = np.broadcast_to(det * tab.mass_row, (mesh.n_cells, tab.mass_row.size))
    elif isinstance(weight, FieldVector):
        loc = (weight.space.gather_cells(weight).real * det) @ tab.vvv
    elif isinstance(weight, FieldProducts):
        loc = weight.re @ tab.vvvv
    else:
        raise TypeError(f"a weight is None, a FieldVector or FieldProducts, "
                        f"not {type(weight).__name__}")
    return _on_pattern(space, loc)


def assemble_stiffness(space: FeSpace, qdeg: int | None = None) -> sp.csr_array:
    """Scalar stiffness (grad u, grad v)."""
    if space.kind != "scalar":
        raise ValueError("stiffness is assembled on scalar spaces")
    return _componentwise_stiffness(space, qdeg)


def _componentwise_stiffness(space: FeSpace, qdeg: int | None) -> sp.csr_array:
    """sum_c (grad u_c, grad v_c), the kernel of both ``assemble_stiffness``
    and ``assemble_D``: the table's d! local matrices ``stiffness_local``,
    which every cube repeats."""
    mesh = space.mesh
    loc = quadrature_table(mesh, space.degree, qdeg).stiffness_local
    return _on_pattern(space, np.tile(loc, (mesh.n_cells // loc.shape[0], 1)))


def assemble_D(space: FeSpace, qdeg: int | None = None) -> sp.csr_array:
    """Grad-div plus curl-curl form (div u, div v) + (curl u, curl v),
    assembled as the componentwise stiffness sum_c (grad u_c, grad v_c).

    For H^1 fields with vanishing tangential trace on a polyhedron with flat
    faces the two forms are equal (Girault & Raviart, Finite Element Methods
    for Navier-Stokes Equations, Springer 1986, Ch. I), and on this space the
    discrete forms are equal too.  Per cell, the diagonal component blocks
    of div-div + curl-curl are exactly grad phi_i . grad phi_j.  The
    cross-component terms d_a phi_i d_b phi_j - d_b phi_i d_a phi_j are a
    null Lagrangian: summed over the cells they are the flux of
    phi_i (n_a d_b - n_b d_a) phi_j, a tangential derivative, which is
    continuous across interior faces and vanishes on every boundary face:
    on a face normal to e_a or e_b the other component is tangential, so its
    dof is constrained, and on any other face n_a = n_b = 0.
    In 2D the curl is the scalar d1 u2 - d2 u1.
    """
    if space.kind != "vector":
        raise ValueError("the div-div + curl-curl form needs a vector space")
    return _componentwise_stiffness(space, qdeg)


def assemble_B(space: FeSpace, a_field: FieldVector, stiffness: sp.csr_array,
               qdeg: int | None = None) -> sp.csr_array:
    """Magnetic Schrodinger form ((i grad + A) u, (i grad + A) v).

    Expanded as (grad u, grad v) + (|A|^2 u, v) + i (v grad u - u grad v, A);
    Hermitian and positive semidefinite for any real A field.  The gradient
    term is A-independent: ``stiffness`` is that form, assembled on this space
    once, and only the A terms are assembled here.
    """
    if space.kind != "scalar" or space.dtype is not complex:
        raise ValueError("the magnetic form is assembled on a complex scalar space")
    if a_field.space.mesh is not space.mesh:
        raise ValueError("A-field lives on a different mesh")
    pat = space.pattern()
    if not np.may_share_memory(stiffness.indices, pat.indices):
        raise ValueError("stiffness is not on the pattern of this space")
    mesh = space.mesh
    nloc = space.element.node_count
    d = mesh.dim
    tab = quadrature_table(mesh, space.degree, qdeg)
    local = a_field.space.gather_cells(a_field)                    # (c, a, m)
    # |A|^2 = sum_kl (A_k . A_l) phi_k phi_l, the Gram at k <= l against
    # the folded vvvv; (m, a, c), cells last: every product runs over the
    # cells
    a = np.ascontiguousarray(local.T)
    gram = _upper_products(a[0], a[0])
    for m in range(1, d):
        gram += _upper_products(a[m], a[m])
    gram *= mesh.det
    # i (v grad u - u grad v, A): A's coefficients against the table's
    # coupling transposed, on the columns i < j (zero at i = j), times det J
    # and oriented per template (CellSums.sign)
    i, j = np.triu_indices(nloc)
    mapped = np.zeros((len(tab.coupling), nloc * d, i.size))
    mapped[:, :, i < j] = tab.coupling.transpose(0, 2, 1)
    mapped *= mesh.det * pat.sums.sign[:, None, :]
    values = pat.assemble(gram.T @ tab.vvvv)
    values = values + 1j * pat.assemble(_per_template(local.reshape(-1, nloc * d), mapped),
                                        antisymmetric=True)
    values += stiffness.data
    return pat.matrix(values)


def assemble_current_load(space: FeSpace, psi: FieldProducts,
                          qdeg: int | None = None) -> np.ndarray:
    """Load vector of the probability current (i/2)(psi* grad psi - c.c.)
    against the vector test functions; real-valued.

    The current -Im(psi* grad psi) is the products ``psi.im`` against the
    table's ``coupling``, negated, one GEMM per template.
    """
    if space.kind != "vector":
        raise ValueError("the current load is assembled on a vector space")
    _check_coeff_space(space, psi)
    tab = quadrature_table(space.mesh, space.degree, qdeg)
    loc = _per_template(psi.im, -tab.coupling)        # (cells, nloc d), columns (a, m)
    return space.pattern().assemble_load(loc.reshape(-1, *tab.gref.shape[1:]))


def assemble_source_load(space: FeSpace, source, qdeg: int | None = None) -> np.ndarray:
    """Load vector (s, v) for a source s given as in
    ``assemble_coefficient_load``."""
    return assemble_coefficient_load(space, source, qdeg=qdeg)


def assemble_coefficient_load(space: FeSpace, coeff,
                              qdeg: int | None = None) -> np.ndarray:
    """Load vector of a coefficient against the space's test basis, real
    where the coefficient is real.

    Scalar spaces take a ``Separable`` or ``FieldProducts`` for the load
    of |u|^2; vector spaces take a tuple of one ``Separable`` per
    component.  A complex coefficient on a real space raises ValueError.
    """
    _check_coeff_space(space, coeff)
    tab = quadrature_table(space.mesh, space.degree, qdeg)
    if isinstance(coeff, FieldProducts):
        if space.kind != "scalar":
            raise ValueError("the |u|^2 load is assembled on a scalar space")
        loc = coeff.re @ tab.vvv_load
        return space.pattern().assemble_load(loc[:, :, None])
    if not isinstance(coeff, (Separable, tuple)):
        raise TypeError(f"a load coefficient is FieldProducts or Separable, "
                        f"not {type(coeff).__name__}")
    comps = (coeff,) if isinstance(coeff, Separable) else coeff
    if len(comps) != space.ncomp or not all(isinstance(c, Separable) for c in comps):
        raise ValueError(f"a separable coefficient on this space is "
                         f"{space.ncomp} Separable component(s)")
    loc = np.stack([_lattice_load(c, tab) for c in comps], axis=-1)
    if np.iscomplexobj(loc) and space.dtype is not complex:
        raise ValueError("complex coefficient for a load on a real space")
    return space.pattern().assemble_load(loc)


def _lattice_load(coeff: Separable, tab: QuadratureTable) -> np.ndarray:
    """Local loads (cells, nloc) of a ``Separable`` on the Kuhn lattice, by
    sum factorisation (Orszag, J. Comput. Phys. 37 (1980) 70-92) on the
    Freudenthal split; no array over (cells, q).

    A factor f_k of a term is one (d!, M, q) table of the coordinates
    ``tab.lattice``.  Per template, the product of the first d - 1 tables is
    an (M^(d-1), q) matrix, the last table times w_q det J vals[q, a] a
    (q, M nloc) one, and their product holds the template's local loads in
    cube order.
    """
    x = tab.lattice
    nperm, M, nq, d = x.shape
    nloc = tab.vals.shape[1]
    B = tab.wdet[:, None] * tab.vals                                # (q, nloc)
    loc = 0.0
    for scale, tables in coeff.factor_tables(x):
        tables = [np.broadcast_to(table, x.shape[:-1]) for table in tables]
        rows = tables[0]
        for table in tables[1:-1]:
            rows = (rows[:, :, None] * table[:, None]).reshape(nperm, -1, nq)
        cols = (scale * tables[-1][..., None] * B).transpose(0, 2, 1, 3)
        loc = loc + np.matmul(rows, cols.reshape(nperm, nq, M * nloc))
    # (p, cube, a) -> cell = cube d! + p
    return np.reshape(loc, (nperm, M ** d, nloc)).transpose(1, 0, 2).reshape(-1, nloc)


def _check_coeff_space(space: FeSpace, coeff):
    """A field or products coefficient lives on the space's mesh and degree."""
    if not isinstance(coeff, (FieldVector, FieldProducts)):
        return
    other = coeff.space
    if other.mesh is not space.mesh:
        raise ValueError("coefficient field lives on a different mesh")
    if other.kind != "scalar":
        raise ValueError("a coefficient field is scalar")
    if other.degree != space.degree:
        raise ValueError("coefficient field has another degree than the space")
