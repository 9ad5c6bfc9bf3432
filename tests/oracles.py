"""Naive dense assembly, point by point and cell by cell, the error norms
summed over every quadrature point at once, and the sparse structure of a
space derived as for any cell-to-node map.

Deliberately slow and independent of the vectorized assembly path: per-cell
affine maps, per-point basis evaluation, Python-loop accumulation into dense
matrices.  Only usable on small meshes.  The norms take the whole-mesh
point path of ``forms`` (``QuadratureField``, the table's ``x`` and
``wdet``) and call the case closures at the points, with no block or
per-axis structure.  The node numbering and the summation matrices come
from the cells' vertex coordinates and a stable sort of every node and
node pair of the cells, with no use of the lattice's template stencil.
"""

import math
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from msfem import forms, mms
from msfem.elements import affine_map, quadrature_rule, reference_element
from msfem.mesh import build_structured, lattice_points
from msfem.space import evaluate


def _cell_quad(space, qdeg):
    mesh = space.mesh
    rule = quadrature_rule(mesh.dim, qdeg)
    vals, gref = reference_element(mesh.dim, space.degree).tabulate(rule.points_ref)
    for c in range(mesh.n_cells):
        amap = affine_map(mesh.vertices[mesh.cells[c]])
        Jinv = np.linalg.inv(amap.jacobian)
        for q in range(rule.weights.size):
            xi = rule.points_ref[q]
            w = rule.weights[q] * abs(amap.det)
            x = amap.to_physical(xi[None, :])[0]
            yield c, xi, x, w, vals[q], gref[q] @ Jinv


def _dofs_scalar(space, c):
    return space.dof_index[space.cell_nodes[c], 0]


def _dofs_vector(space, c):
    return space.dof_index[space.cell_nodes[c]]  # (nloc, d)


def _accumulate(A, dofs_i, dofs_j, block):
    """Add the block at its free (dof_i, dof_j); a cell's dofs are distinct."""
    keep_i, keep_j = dofs_i >= 0, dofs_j >= 0
    A[np.ix_(dofs_i[keep_i], dofs_j[keep_j])] += block[np.ix_(keep_i, keep_j)]


def naive_weighted_mass(space, weight_fn, qdeg):
    return _weighted_mass(space, lambda c, xi, x: weight_fn(x), qdeg)


def naive_field_weighted_mass(space, field, qdeg):
    """(f u, v) with a real discrete field f evaluated cell by cell."""
    return _weighted_mass(space, lambda c, xi, x: evaluate(field, c, xi).real, qdeg)


def naive_abs2_weighted_mass(space, field, qdeg):
    """(|f|^2 u, v) with a scalar discrete field f evaluated cell by cell."""
    return _weighted_mass(space, lambda c, xi, x: abs(evaluate(field, c, xi)) ** 2, qdeg)


def _weighted_mass(space, weight_at, qdeg):
    n = space.n_dofs
    dtype = complex if space.dtype is complex else float
    A = np.zeros((n, n), dtype=dtype)
    for c, xi, x, w, vals, _ in _cell_quad(space, qdeg):
        wx = weight_at(c, xi, x)
        block = w * wx * np.outer(vals, vals)
        if space.kind == "scalar":
            _accumulate(A, _dofs_scalar(space, c), _dofs_scalar(space, c), block)
        else:
            dofs = _dofs_vector(space, c)
            for comp in range(space.ncomp):
                _accumulate(A, dofs[:, comp], dofs[:, comp], block)
    return A


def naive_mass(space, qdeg):
    return naive_weighted_mass(space, lambda x: 1.0, qdeg)


def naive_stiffness(space, qdeg):
    n = space.n_dofs
    dtype = complex if space.dtype is complex else float
    A = np.zeros((n, n), dtype=dtype)
    for c, xi, x, w, _, gphys in _cell_quad(space, qdeg):
        block = w * (gphys @ gphys.T)
        _accumulate(A, _dofs_scalar(space, c), _dofs_scalar(space, c), block)
    return A


def naive_D(space, qdeg):
    d = space.mesh.dim
    n = space.n_dofs
    A = np.zeros((n, n))
    nloc = reference_element(d, space.degree).node_count
    for c, xi, x, w, vals, gphys in _cell_quad(space, qdeg):
        div = np.zeros(nloc * d)
        for a in range(nloc):
            for comp in range(d):
                div[a * d + comp] = gphys[a, comp]
        if d == 2:
            curl = np.zeros((nloc * d, 1))
            for a in range(nloc):
                curl[a * d + 0, 0] = -gphys[a, 1]
                curl[a * d + 1, 0] = gphys[a, 0]
        else:
            curl = np.zeros((nloc * d, 3))
            for a in range(nloc):
                g = gphys[a]
                curl[a * d + 0] = np.cross(g, [1.0, 0.0, 0.0])
                curl[a * d + 1] = np.cross(g, [0.0, 1.0, 0.0])
                curl[a * d + 2] = np.cross(g, [0.0, 0.0, 1.0])
        block = w * (np.outer(div, div) + curl @ curl.T)
        dofs = _dofs_vector(space, c).reshape(-1)
        _accumulate(A, dofs, dofs, block)
    return A


def naive_B(space, a_field, qdeg):
    n = space.n_dofs
    A = np.zeros((n, n), dtype=complex)
    mesh = space.mesh
    rule = quadrature_rule(mesh.dim, qdeg)
    vals_all, gref_all = reference_element(mesh.dim, space.degree).tabulate(rule.points_ref)
    for c in range(mesh.n_cells):
        amap = affine_map(mesh.vertices[mesh.cells[c]])
        Jinv = np.linalg.inv(amap.jacobian)
        dofs = _dofs_scalar(space, c)
        for q in range(rule.weights.size):
            xi = rule.points_ref[q]
            vals = vals_all[q]
            gphys = gref_all[q] @ Jinv
            w = rule.weights[q] * abs(amap.det)
            a_val = evaluate(a_field, c, xi)
            nloc = vals.size
            block = np.zeros((nloc, nloc), dtype=complex)
            for a in range(nloc):
                for b in range(nloc):
                    block[a, b] = (
                        gphys[b] @ gphys[a]
                        + (a_val @ a_val) * vals[b] * vals[a]
                        + 1j * (vals[a] * (a_val @ gphys[b])
                                - vals[b] * (a_val @ gphys[a]))
                    )
            _accumulate(A, dofs, dofs, w * block)
    return A


def naive_current_load(space, psi_field, qdeg):
    d = space.mesh.dim
    out = np.zeros(space.n_dofs)
    mesh = space.mesh
    rule = quadrature_rule(mesh.dim, qdeg)
    vals, _ = reference_element(mesh.dim, space.degree).tabulate(rule.points_ref)
    for c in range(mesh.n_cells):
        amap = affine_map(mesh.vertices[mesh.cells[c]])
        dofs = _dofs_vector(space, c)
        for q in range(rule.weights.size):
            xi = rule.points_ref[q]
            w = rule.weights[q] * abs(amap.det)
            psi, grad = evaluate(psi_field, c, xi, gradient=True)
            current = (0.5j * (np.conj(psi) * grad - psi * np.conj(grad))).real
            for a in range(vals.shape[1]):
                for comp in range(d):
                    j = dofs[a, comp]
                    if j >= 0:
                        out[j] += w * current[comp] * vals[q, a]
    return out


def naive_source_load(space, fn, qdeg):
    return _load(space, lambda c, xi, x: fn(x), qdeg)


def naive_abs2_load(space, field, qdeg):
    """(|f|^2, v) with a scalar discrete field f evaluated cell by cell."""
    return _load(space, lambda c, xi, x: abs(evaluate(field, c, xi)) ** 2, qdeg)


def _load(space, value_at, qdeg):
    dtype = complex if space.dtype is complex else float
    out = np.zeros(space.n_dofs, dtype=dtype)
    for c, xi, x, w, vals, _ in _cell_quad(space, qdeg):
        s = value_at(c, xi, x)
        if space.kind == "scalar":
            dofs = _dofs_scalar(space, c)
            for a, i in enumerate(dofs):
                if i >= 0:
                    out[i] += w * s * vals[a]
        else:
            dofs = _dofs_vector(space, c)
            for a in range(vals.size):
                for comp in range(space.ncomp):
                    j = dofs[a, comp]
                    if j >= 0:
                        out[j] += w * s[comp] * vals[a]
    return out


def point_error_norms(field_vec, case, which, t, qdeg=None):
    """``mms.error_norms`` summed over all quadrature points of the mesh in
    one pass: the field from ``QuadratureField``, the exact fields from the
    case closures at the table's points ``x``, the weights ``wdet``."""
    space = field_vec.space
    tab = forms.quadrature_table(space.mesh, space.degree, qdeg)
    x, wdet = tab.x, tab.wdet
    field = forms.QuadratureField(field_vec, tab)
    values, grads = field.values, field.gradients()
    if which != "A":
        value, grad = {"psi": (case.psi, case.grad_psi),
                       "phi": (case.phi, case.grad_phi)}[which]
        l2 = np.sum(wdet * np.abs(values - value(x, t)) ** 2)
        semi = np.sum(wdet * np.sum(np.abs(grads - grad(x, t)) ** 2, axis=-1))
        return mms.ErrorEntry(l2=math.sqrt(l2), h1=math.sqrt(l2 + semi),
                              parts={"grad": math.sqrt(semi)})
    l2 = np.sum(wdet * np.sum((values - case.A(x, t)) ** 2, axis=-1))
    div2 = np.sum(wdet * (np.trace(grads, axis1=-2, axis2=-1) - case.div_A(x, t)) ** 2)
    if space.mesh.dim == 2:
        dcurl = grads[..., 1, 0] - grads[..., 0, 1] - case.curl_A(x, t)
        curl2 = np.sum(wdet * dcurl ** 2)
    else:
        curl = np.stack([grads[..., 2, 1] - grads[..., 1, 2],
                         grads[..., 0, 2] - grads[..., 2, 0],
                         grads[..., 1, 0] - grads[..., 0, 1]], axis=-1)
        curl2 = np.sum(wdet * np.sum((curl - case.curl_A(x, t)) ** 2, axis=-1))
    return mms.ErrorEntry(l2=math.sqrt(l2), h1=math.sqrt(l2 + div2 + curl2),
                          parts={"div": math.sqrt(div2), "curl": math.sqrt(curl2)})


def point_gauge_residuals(case, M, qdeg):
    """``mms.gauge_residuals`` summed over all points of the P1 table."""
    tab = forms.quadrature_table(build_structured(case.dim, M), 1, qdeg)
    x, wdet = tab.x, tab.wdet
    g1 = case.div_A(x, 0.0) + case.phi_t(x, 0.0)
    g2 = case.div_A_t(x, 0.0) + case.lap_phi(x, 0.0) + np.abs(case.psi(x, 0.0)) ** 2
    return math.sqrt(np.sum(wdet * g1 ** 2)), math.sqrt(np.sum(wdet * g2 ** 2))


def reference_global_nodes(mesh, degree):
    """The lattice nodes of degree r and their per-cell keys: each cell's
    nodes as the integer combinations ``vertex_weights`` of its vertices,
    ranked on the resolution-rM lattice."""
    elem = reference_element(mesh.dim, degree)
    node_ints = np.einsum("lk,ckd->cld", elem.vertex_weights, mesh.vertices_int[mesh.cells])
    shape = (degree * mesh.subdivisions + 1,) * mesh.dim
    keys = np.ravel_multi_index(tuple(np.moveaxis(node_ints, -1, 0)), shape)
    return lattice_points(shape[0], mesh.dim), keys


def _summation(order, indptr, idx):
    """0/1 CSR matrix whose row r adds up the entries ``order[indptr[r]:
    indptr[r + 1]]`` of a flat array, in that order."""
    return sp.csr_array((np.ones(order.size), order.astype(idx), indptr.astype(idx)),
                        shape=(indptr.size - 1, order.size))


def reference_cell_sums(cell_nodes, n_nodes):
    """``pairs``, ``pair_sum`` and ``node_sum`` of any cell-to-node map
    (cells, nloc): the local entries' node pair keys a n_nodes + b sorted
    stably, so each pair's entries stay in cell order, and the nodes the
    same way.  A namespace that ``sparsela.Pattern`` accepts."""
    node_pairs = (cell_nodes[:, :, None] * n_nodes + cell_nodes[:, None, :]).ravel()
    order = np.argsort(node_pairs, kind="stable")
    sorted_pairs = node_pairs[order]
    starts = np.flatnonzero(np.diff(sorted_pairs, prepend=-1))
    idx = np.int32 if node_pairs.size < np.iinfo(np.int32).max else np.int64
    nodes = cell_nodes.ravel()
    return SimpleNamespace(
        pairs=sorted_pairs[starts],
        pair_sum=_summation(order, np.append(starts, order.size), idx),
        node_sum=_summation(
            np.argsort(nodes, kind="stable"),
            np.concatenate([[0], np.cumsum(np.bincount(nodes, minlength=n_nodes))]), idx))


def reference_pattern(sums, dof_index):
    """``indptr``, ``indices`` and the slot-to-pair map of the CSR pattern
    on ``dof_index`` (nodes, ncomp), from COO->CSR of the free
    same-component dof pairs of the coupled node pairs ``sums.pairs``,
    each carrying its pair's index."""
    nn, ncomp = dof_index.shape
    a, b = np.divmod(sums.pairs, nn)
    rows, cols = dof_index[a].T.ravel(), dof_index[b].T.ravel()   # component-major
    pair = np.tile(np.arange(a.size), ncomp)
    free = (rows >= 0) & (cols >= 0)
    n = int(dof_index.max(initial=-1)) + 1
    csr = sp.coo_array((pair[free] + 1.0, (rows[free], cols[free])), shape=(n, n)).tocsr()
    csr.sort_indices()
    return csr.indptr, csr.indices, csr.data.astype(np.int64) - 1
