"""Naive dense assembly cell by cell, the error norms summed over every
quadrature point at once, and the sparse structure of a space derived as
for any cell-to-node map.

Deliberately slow and independent of the vectorized assembly path: each
cell's quadrature points and physical basis gradients come from its own
affine map (``elements.affine_map``), not from the mesh's template
Jacobians; the integrands are formed at the points, discrete fields read by
one ``space.evaluate`` per cell and coefficients by their closures at the
physical points; and a Python loop over the cells accumulates into dense
matrices.  Only usable on small meshes.  The norms take the same points
(``cell_fields``) with no block or per-axis structure.  The node numbering
and the summation matrices come from the cells' vertex coordinates and a
stable sort of every node and node pair a <= b of the cells, with no use of
the lattice's template stencil.
"""

import math
from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp

from msfem import forms, mms
from msfem.elements import affine_map, quadrature_rule, reference_element
from msfem.mesh import build_structured, lattice_points
from msfem.space import build_scalar_space, evaluate


def _cell_quad(space, qdeg):
    """Per cell, in order: its index c, the rule's reference points xi
    (q, d), the physical points x (q, d), the weights times |det J| w (q,),
    the basis values (q, nloc) and physical gradients (q, nloc, d)."""
    mesh = space.mesh
    rule = quadrature_rule(mesh.dim, qdeg)
    xi = rule.points_ref
    vals, gref = reference_element(mesh.dim, space.degree).tabulate(xi)
    for c in range(mesh.n_cells):
        amap = affine_map(mesh.vertices[mesh.cells[c]])
        yield (c, xi, amap.to_physical(xi), rule.weights * abs(amap.det), vals,
               gref @ np.linalg.inv(amap.jacobian))


def _per_cell(space, qdeg, value_at):
    """``value_at(c, xi, x)`` of every cell, stacked (cells, q, ...)."""
    return np.stack([value_at(c, xi, x) for c, xi, x, *_ in _cell_quad(space, qdeg)])


def _dofs(space, c):
    return space.dof_index[space.cell_nodes[c]]  # (nloc, ncomp)


def _accumulate(A, dofs_i, dofs_j, block):
    """Add the block at its free (dof_i, dof_j); a cell's dofs are distinct."""
    keep_i, keep_j = dofs_i >= 0, dofs_j >= 0
    A[np.ix_(dofs_i[keep_i], dofs_j[keep_j])] += block[np.ix_(keep_i, keep_j)]


def naive_field_weighted_mass(space, field, qdeg):
    """(f u, v) with a real discrete field f evaluated cell by cell."""
    return _weighted_mass(space, _per_cell(
        space, qdeg, lambda c, xi, x: evaluate(field, c, xi).real), qdeg)


def naive_abs2_weighted_mass(space, field, qdeg):
    """(|f|^2 u, v) with a scalar discrete field f evaluated cell by cell."""
    return _weighted_mass(space, _per_cell(
        space, qdeg, lambda c, xi, x: abs(evaluate(field, c, xi)) ** 2), qdeg)


def _weighted_mass(space, weights, qdeg):
    """(w u, v) for the weights (cells, q) at every cell's points, or
    (cells, 1) for one weight per cell."""
    n = space.n_dofs
    A = np.zeros((n, n), dtype=space.dtype)
    for c, xi, x, w, vals, _ in _cell_quad(space, qdeg):
        block = (vals.T * (w * weights[c])) @ vals
        dofs = _dofs(space, c)
        for comp in range(space.ncomp):
            _accumulate(A, dofs[:, comp], dofs[:, comp], block)
    return A


def naive_mass(space, qdeg):
    return _weighted_mass(space, np.ones((space.mesh.n_cells, 1)), qdeg)


def naive_stiffness(space, qdeg):
    n = space.n_dofs
    A = np.zeros((n, n), dtype=space.dtype)
    for c, xi, x, w, _, gphys in _cell_quad(space, qdeg):
        block = np.einsum("q,qik,qjk->ij", w, gphys, gphys)
        _accumulate(A, _dofs(space, c)[:, 0], _dofs(space, c)[:, 0], block)
    return A


def naive_D(space, qdeg):
    """(div u, div v) + (curl u, curl v) with every cell's integrand formed
    at its points: the vector basis function (a, comp) is phi_a e_comp, of
    divergence d_comp phi_a and curl grad phi_a x e_comp (in 2D the scalar
    d_0 phi_a e_1 - d_1 phi_a e_0)."""
    d = space.mesh.dim
    n = space.n_dofs
    A = np.zeros((n, n))
    for c, _, _, w, _, gphys in _cell_quad(space, qdeg):
        nq, nloc = gphys.shape[:2]
        div = gphys.reshape(nq, nloc * d)                         # row a d + comp
        if d == 2:
            curl = np.stack([-gphys[..., 1], gphys[..., 0]], axis=-1).reshape(nq, nloc * d, 1)
        else:
            curl = np.cross(gphys[:, :, None, :], np.eye(3)).reshape(nq, nloc * d, 3)
        block = (np.einsum("q,qi,qj->ij", w, div, div)
                 + np.einsum("q,qik,qjk->ij", w, curl, curl))
        dofs = _dofs(space, c).reshape(-1)
        _accumulate(A, dofs, dofs, block)
    return A


def naive_B(space, a_field, qdeg):
    """((i grad + A) u, (i grad + A) v) expanded at the points: grad phi_b .
    grad phi_a + |A|^2 phi_b phi_a + i (phi_a A . grad phi_b - phi_b A .
    grad phi_a), with A evaluated cell by cell."""
    n = space.n_dofs
    B = np.zeros((n, n), dtype=complex)
    for c, xi, x, w, vals, gphys in _cell_quad(space, qdeg):
        a_val = evaluate(a_field, c, xi)                    # (q, d)
        a_grad = np.einsum("qld,qd->ql", gphys, a_val)      # A . grad phi_l
        wv = w[:, None] * vals
        block = (np.einsum("qad,qbd->ab", w[:, None, None] * gphys, gphys)
                 + (wv * np.sum(a_val ** 2, axis=1)[:, None]).T @ vals
                 + 1j * (wv.T @ a_grad - a_grad.T @ wv))
        dofs = _dofs(space, c)[:, 0]
        _accumulate(B, dofs, dofs, block)
    return B


def naive_current_load(space, psi_field, qdeg):
    """The current (i/2)(psi* grad psi - psi grad psi*) at every cell's
    points, psi evaluated cell by cell, against the vector test basis."""
    def current(c, xi, x):
        psi, grad = evaluate(psi_field, c, xi, gradient=True)
        return (0.5j * (np.conj(psi)[:, None] * grad - psi[:, None] * np.conj(grad))).real

    return _load(space, _per_cell(space, qdeg, current), qdeg)


def naive_source_load(space, fn, qdeg):
    """(s, v) for a closure s of the points (..., d), called once on every
    cell's points."""
    return _load(space, fn(_per_cell(space, qdeg, lambda c, xi, x: x)), qdeg)


def naive_abs2_load(space, field, qdeg):
    """(|f|^2, v) with a scalar discrete field f evaluated cell by cell."""
    return _load(space, _per_cell(
        space, qdeg, lambda c, xi, x: abs(evaluate(field, c, xi)) ** 2), qdeg)


def _load(space, values, qdeg):
    """(s, v) for the values (cells, q) of s, or (cells, q, comp) on vector
    spaces, at every cell's points."""
    out = np.zeros(space.n_dofs, dtype=np.result_type(space.dtype, values))
    for c, xi, x, w, vals, _ in _cell_quad(space, qdeg):
        local = vals.T @ (w[:, None] * values[c].reshape(w.size, -1))   # (nloc, comp)
        dofs = _dofs(space, c)
        free = dofs >= 0
        out[dofs[free]] += local[free]
    return out


def cell_fields(field_vec, qdeg):
    """Every cell's points x (cells, q, d), weights times |det J| (cells,
    q), and the field's values (cells, q[, comp]) and physical gradients
    (cells, q[, comp], d) there, by one ``evaluate`` per cell."""
    rows = [(x, w, *evaluate(field_vec, c, xi, gradient=True))
            for c, xi, x, w, _, _ in _cell_quad(field_vec.space, qdeg)]
    return [np.stack(a) for a in zip(*rows)]


def point_error_norms(field_vec, case, which, t, qdeg=None):
    """``mms.error_norms`` summed over all quadrature points of the mesh in
    one pass: the field and the points from ``cell_fields``, the exact
    fields from the case closures at the points."""
    space = field_vec.space
    x, wdet, values, grads = cell_fields(field_vec, forms.quadrature_degree(space.degree, qdeg))
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
    """``mms.gauge_residuals`` summed over all points of the P1 rule."""
    space = build_scalar_space(build_structured(case.dim, M), 1)
    x = _per_cell(space, qdeg, lambda c, xi, x: x)
    wdet = np.stack([w for _, _, _, w, _, _ in _cell_quad(space, qdeg)])
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


def reference_cell_dofs(space):
    """(cells, nloc, ncomp) global dof of each cell's local node and
    component, ``space.n_dofs`` where constrained: the dof numbering read
    through the cell-to-node map."""
    return np.where(space.dof_index < 0, space.n_dofs, space.dof_index)[space.cell_nodes]


def _summation(order, indptr, n_cols, idx):
    """0/1 CSR matrix, ``n_cols`` columns, whose row r adds up the entries
    ``order[indptr[r]: indptr[r + 1]]`` of a flat array, in that order."""
    return sp.csr_array((np.ones(order.size), order.astype(idx), indptr.astype(idx)),
                        shape=(indptr.size - 1, n_cols))


def reference_cell_sums(cell_nodes, n_nodes):
    """``pairs``, ``steps``, ``pair_table``, ``pair_sum`` and ``node_sum``
    of any cell-to-node map (cells, nloc): the node pair keys a n_nodes + b
    of the local entries with a <= b sorted stably, so each pair's entries
    stay in cell order, and the nodes the same way; the distinct steps b - a
    of all local entries, and at [a, t] and [b, s] of the table the rank of
    the pair (a, b) a <= b, with steps[t] = b - a and steps[s] = a - b."""
    node_pairs = (cell_nodes[:, :, None] * n_nodes + cell_nodes[:, None, :]).ravel()
    summed = np.flatnonzero((cell_nodes[:, :, None] <= cell_nodes[:, None, :]).ravel())
    order = summed[np.argsort(node_pairs[summed], kind="stable")]
    sorted_pairs = node_pairs[order]
    starts = np.flatnonzero(np.diff(sorted_pairs, prepend=-1))
    idx = np.int32 if node_pairs.size < np.iinfo(np.int32).max else np.int64
    nodes = cell_nodes.ravel()
    pairs = sorted_pairs[starts]
    steps = np.unique(cell_nodes[:, None, :] - cell_nodes[:, :, None])
    a, b = np.divmod(pairs, n_nodes)
    pair_table = np.full((n_nodes, steps.size), -1, dtype=idx)
    pair_table[a, np.searchsorted(steps, b - a)] = np.arange(pairs.size)
    pair_table[b, np.searchsorted(steps, a - b)] = np.arange(pairs.size)
    return SimpleNamespace(
        pairs=pairs,
        steps=steps,
        pair_table=pair_table,
        pair_sum=_summation(order, np.append(starts, order.size), node_pairs.size, idx),
        node_sum=_summation(
            np.argsort(nodes, kind="stable"),
            np.concatenate([[0], np.cumsum(np.bincount(nodes, minlength=n_nodes))]),
            nodes.size, idx))


def reference_pattern(sums, dof_index):
    """``indptr``, ``indices``, the slot-to-pair map and the mirrored slots
    of the CSR pattern on ``dof_index`` (nodes, ncomp): the free
    same-component dof pairs of the coupled node pairs a <= b of
    ``sums.pairs`` and of their mirrors (b, a), b != a, each carrying its
    pair's index, in the argsort order of their (row, column) keys."""
    nn, ncomp = dof_index.shape
    a, b = np.divmod(sums.pairs, nn)
    off = a != b
    pair = np.arange(a.size)
    a, b, pair, mirrored = (np.concatenate([a, b[off]]), np.concatenate([b, a[off]]),
                            np.concatenate([pair, pair[off]]),
                            np.arange(a.size + off.sum()) >= a.size)
    rows, cols = dof_index[a].T.ravel(), dof_index[b].T.ravel()   # component-major
    free = (rows >= 0) & (cols >= 0)
    rows, cols = rows[free], cols[free]
    pair, mirrored = np.tile(pair, ncomp)[free], np.tile(mirrored, ncomp)[free]
    n = int(dof_index.max(initial=-1)) + 1
    order = np.argsort(rows * n + cols)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return indptr, cols[order], pair[order], mirrored[order]
