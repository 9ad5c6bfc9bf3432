"""One CSR pattern per dof numbering.

Every form and every step matrix on a space shares the space's pattern and
its intp index arrays; the pattern is the structure COO->CSR gives for the
same-component pairs of the cell connectivity, and no constrained dof gets
an entry.  The node numbering and the summation matrices, built from the
lattice's template stencil, equal bit for bit the sort-based derivation of
``oracles``.  The pattern sums compact local matrices, the entries (i, j),
i <= j, of each cell; the tests form full ones and hand it ``compact``.
"""

import itertools
import math
import re

import numpy as np
import pytest
from scipy.sparse import coo_array, issparse

import oracles
from msfem import forms, scheme, sparsela
from msfem.mesh import build_structured
from msfem.space import (FieldVector, _cell_sums, _global_nodes, build_scalar_space,
                         build_vector_space)

CASES = [(2, 1), (2, 2), (3, 1), (3, 2)]


def free_stepper(dim, r):
    cfg = scheme.SchemeConfig(dim=dim, M=3, degree=r, t_final=0.1, dt=0.1,
                              n_steps=1, mode="free")
    return scheme.AlternatingStepper(cfg)


def on_pattern(matrix, space):
    pat = space.pattern()
    return (matrix.shape == pat.shape
            and np.shares_memory(matrix.indices, pat.indices)
            and np.shares_memory(matrix.indptr, pat.indptr))


def compact(loc, pat, antisymmetric=False):
    """The entries (i, j), i <= j, of full local matrices ``loc`` (cells,
    nloc, nloc), each cell's in ``np.triu_indices`` order, oriented by the
    template's ``CellSums.sign`` if ``antisymmetric``: what
    ``Pattern.assemble`` sums."""
    i, j = np.triu_indices(loc.shape[-1])
    out = loc[:, i, j]
    if antisymmetric:
        sign = pat.sums.sign
        out = out * np.tile(sign, (out.shape[0] // sign.shape[0], 1))
    return out


def record_solves(monkeypatch):
    """The list that collects the matrix of every solve the stepper runs."""
    seen = []

    def recording(solve):
        def wrapped(A, *args, **kwargs):
            seen.append(A)
            return solve(A, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(sparsela, "solve_spd", recording(sparsela.solve_spd))
    monkeypatch.setattr(sparsela, "solve_complex", recording(sparsela.solve_complex))
    return seen


def reference_slots(pat, cell_dofs):
    """(comp, cells, nloc, nloc) data index of the entry that couples local
    nodes i and j of a cell in component c, found by searching the CSR
    structure; ``pat.nnz`` where either dof is constrained (dof >= n)."""
    n = pat.shape[0]
    cd = np.moveaxis(cell_dofs, -1, 0)                      # (comp, cells, nloc)
    rows, cols = cd[..., :, None], cd[..., None, :]
    slot_keys = np.repeat(np.arange(n), np.diff(pat.indptr)) * n + pat.indices
    keys = rows * n + cols
    slots = np.minimum(np.searchsorted(slot_keys, keys), pat.nnz - 1)
    free = (rows < n) & (cols < n)
    assert np.array_equal(slot_keys[slots][free], keys[free])
    return np.where(free, slots, pat.nnz)


def bincount_reference(slots, loc, nnz):
    """The local matrices summed by one np.bincount per component."""
    def total(part):
        return sum(np.bincount(s.ravel(), part.ravel(), nnz + 1)[:-1] for s in slots)
    if np.iscomplexobj(loc):
        return total(loc.real) + 1j * total(loc.imag)
    return total(loc)


def lattice_connectivity(dim, r, ncomp):
    # the degree-r node numbering of a small lattice, each node with ncomp
    # components; random (node, component) pairs are constrained
    rng = np.random.default_rng(10 * dim + r)
    mesh = build_structured(dim, 3 if dim == 2 else 2)
    nodes, cell_nodes = _global_nodes(mesh, r)
    constrained = rng.random((len(nodes), ncomp)) < 0.2
    dof_index = np.full((len(nodes), ncomp), -1)
    dof_index[~constrained] = np.arange((~constrained).sum())
    pat = sparsela.Pattern(_cell_sums(mesh, r), dof_index)
    return rng, pat, cell_nodes, dof_index


def check_dense_accumulation(dim, r, ncomp):
    rng, pat, cell_nodes, dof_index = lattice_connectivity(dim, r, ncomp)
    n = int(dof_index.max()) + 1
    nc, k = cell_nodes.shape
    noise = rng.standard_normal((nc, k, k)) + 1j * rng.standard_normal((nc, k, k))
    # the pattern reads each node pair once: exactly symmetric local
    # matrices, and one antisymmetric case summed with its mirror negated
    for loc, antisymmetric in ((noise + noise.swapaxes(-1, -2), False),
                               (noise - noise.swapaxes(-1, -2), True)):
        # the scalar block of each cell lands on the same-component pairs only
        dense = np.zeros((n + 1, n + 1), dtype=complex)
        for nodes, block in zip(cell_nodes, loc):
            for c in range(ncomp):
                dofs = dof_index[nodes, c]
                for a, i in enumerate(dofs):
                    for b, j in enumerate(dofs):
                        dense[i, j] += block[a, b]   # -1 lands in the dropped last row/col
        A = pat.matrix(pat.assemble(compact(loc, pat, antisymmetric), antisymmetric))
        assert np.allclose(A.toarray(), dense[:n, :n], atol=1e-13)
        # the one summation equals one bincount per component, bit for bit,
        # for real and complex blocks
        slots = reference_slots(pat, np.where(dof_index < 0, n, dof_index)[cell_nodes])
        for block in (loc.real.copy(), loc):
            total = pat.assemble(compact(block, pat, antisymmetric), antisymmetric)
            assert total.dtype == block.dtype
            assert np.array_equal(total.view(float),
                                  bincount_reference(slots, block, pat.nnz).view(float))
    for row in range(n):
        assert np.all(np.diff(pat.indices[pat.indptr[row]:pat.indptr[row + 1]]) > 0)


def test_pattern_assembly_matches_dense_accumulation():
    for r in (1, 2):
        check_dense_accumulation(2, r, ncomp=1)


def test_vector_pattern_assembly_matches_dense_accumulation():
    for r in (1, 2):
        check_dense_accumulation(2, r, ncomp=2)


def test_3d_vector_pattern_assembly_matches_dense_accumulation():
    for r in (1, 2):
        check_dense_accumulation(3, r, ncomp=3)


@pytest.mark.parametrize("ncomp", [1, 2, 3])
def test_load_assembly_matches_dense_loop_and_add_at(ncomp):
    for dim, r in itertools.product((2, 3), (1, 2)):
        rng, pat, cell_nodes, dof_index = lattice_connectivity(dim, r, ncomp)
        n = int(dof_index.max()) + 1
        loc = rng.standard_normal(cell_nodes.shape + (ncomp,))
        dense = np.zeros(n + 1)
        for nodes, block in zip(cell_nodes, loc):
            for a, node in enumerate(nodes):
                for c in range(ncomp):
                    dense[dof_index[node, c]] += block[a, c]   # -1 lands in the dropped last entry
        load = pat.assemble_load(loc)
        assert load.shape == (n,) and load.dtype == np.float64
        assert np.allclose(load, dense[:n], atol=1e-13)
        # bit-identical to np.add.at over the padded cell dofs, in cell order
        padded = np.where(dof_index < 0, n, dof_index)[cell_nodes]
        ref = np.zeros(n + 1)
        np.add.at(ref, padded.ravel(), loc.ravel())
        assert np.array_equal(load, ref[:n])
        cload = pat.assemble_load(loc + 1j * loc[::-1])
        assert np.array_equal(cload.real, load)


def assert_same(x, y):
    assert x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)


@pytest.mark.parametrize("dim,r,M", list(itertools.product((2, 3), (1, 2), (1, 2, 3, 5))))
def test_stencil_structure_equals_the_sort_based_derivation(dim, r, M):
    # the closed-form node numbering and the stencil summation matrices are
    # bit for bit those of the einsum/argsort derivation for any cell map,
    # and every pattern is the COO->CSR structure of the reference pairs
    mesh = build_structured(dim, M)
    nodes, cell_nodes = _global_nodes(mesh, r)
    ref_nodes, ref_cell_nodes = oracles.reference_global_nodes(mesh, r)
    assert_same(nodes, ref_nodes)
    assert_same(cell_nodes, ref_cell_nodes)
    if r == 1:
        assert cell_nodes is mesh.cells
    sums = _cell_sums(mesh, r)
    ref = oracles.reference_cell_sums(ref_cell_nodes, len(ref_nodes))
    assert_same(sums.steps, ref.steps)
    assert_same(sums.pair_table, ref.pair_table)
    assert sums.local_shape == ref.sign.shape
    assert np.array_equal(np.tile(sums.sign, (mesh.n_cells // sums.sign.shape[0], 1)),
                          ref.sign)
    for name in ("pair_sum", "node_sum"):
        got, want = getattr(sums, name), getattr(ref, name)
        assert got.shape == want.shape
        for part in ("indptr", "indices", "data"):
            assert_same(getattr(got, part), getattr(want, part))
    for s in (build_scalar_space(mesh, r), build_vector_space(mesh, r),
              build_scalar_space(mesh, r, dirichlet=False)):
        pat = s.pattern()
        assert pat.sums is sums
        for got, want in zip((pat.indptr, pat.indices, pat._slot_pair, pat._sign < 0),
                             oracles.reference_pattern(ref, s.dof_index)):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("dim,r,M,nnz", [(3, 1, 16, 245_760), (3, 2, 8, 168_960),
                                         (2, 1, 128, 196_608)])
def test_pair_sum_reads_each_unordered_pair_of_a_cell_once(dim, r, M, nnz):
    # the benchmark meshes: the compact local matrices hold the nloc (nloc
    # + 1) / 2 entries i <= j of each cell, and pair_sum reads each once
    mesh = build_structured(dim, M)
    sums = _cell_sums(mesh, r)
    nloc = _global_nodes(mesh, r)[1].shape[1]
    assert sums.local_shape == (mesh.n_cells, nloc * (nloc + 1) // 2)
    assert sums.pair_sum.nnz == sums.pair_sum.shape[1] == math.prod(sums.local_shape) == nnz
    assert np.array_equal(sums.pair_sum.tocsc().indptr, np.arange(nnz + 1))


@pytest.mark.parametrize("dim,M", [(2, 8), (3, 5)])
def test_spaces_and_patterns_sort_nothing_of_the_cells_size(dim, M, monkeypatch):
    # the structure comes from the d! template stencil: no sort as long as
    # the cells (the stencil tables are smaller than the cells here)
    mesh = build_structured(dim, M)

    def guarded(sort):
        def wrapped(a, *args, **kwargs):
            if np.size(a) >= mesh.n_cells:
                raise AssertionError(f"{sort.__name__} of {np.size(a)} entries")
            return sort(a, *args, **kwargs)
        return wrapped

    for name in ("argsort", "sort"):
        monkeypatch.setattr(np, name, guarded(getattr(np, name)))
    for r in (1, 2):
        for s in (build_scalar_space(mesh, r, complex_field=True),
                  build_scalar_space(mesh, r, dirichlet=False),
                  build_vector_space(mesh, r)):
            assert s.pattern().nnz > 0


def test_loads_on_real_spaces_are_float():
    st = free_stepper(2, 1)
    psi = st.initialize().psi_products
    # x_0, the identity and (1 + i) x_0 as separable coefficients
    def x_k(k, scale=1.0):
        return forms.Separable(((scale, tuple(
            (lambda y: y) if j == k else np.ones_like for j in range(st.mesh.dim))),))

    identity = tuple(x_k(k) for k in range(st.mesh.dim))
    for load in (forms.assemble_current_load(st.spaces.A, psi),
                 forms.assemble_coefficient_load(st.spaces.phi, psi),
                 forms.assemble_source_load(st.spaces.phi, x_k(0)),
                 forms.assemble_source_load(st.spaces.A, identity)):
        assert load.dtype == np.float64
    f = forms.assemble_source_load(st.spaces.psi, x_k(0, 1.0 + 1j))
    assert f.dtype == np.complex128
    assert np.array_equal(f.real, f.imag)
    with pytest.raises(ValueError, match="complex coefficient for a load on a real space"):
        forms.assemble_source_load(st.spaces.phi, x_k(0, 1.0 + 1j))


@pytest.mark.parametrize("dim,r", CASES)
def test_pattern_is_connectivity_structure_without_constrained_dofs(dim, r):
    st = free_stepper(dim, r)
    assert st.spaces.psi.pattern() is st.spaces.phi.pattern()
    for space in (st.spaces.psi, st.spaces.A):
        n = space.n_dofs
        # the COO->CSR structure of the same-component pairs of each cell
        cd = np.moveaxis(oracles.reference_cell_dofs(space), -1, 0)   # (comp, cells, nloc)
        rows = np.broadcast_to(cd[..., :, None], cd.shape + cd.shape[-1:]).ravel()
        cols = np.broadcast_to(cd[..., None, :], cd.shape + cd.shape[-1:]).ravel()
        keep = (rows < n) & (cols < n)
        assert not keep.all()                               # some pairs are constrained
        ref = coo_array((np.ones(keep.sum()), (rows[keep], cols[keep])),
                        shape=(n, n)).tocsr()
        ref.sum_duplicates()
        ref.sort_indices()
        pat = space.pattern()
        assert np.array_equal(pat.indptr, ref.indptr)
        assert np.array_equal(pat.indices, ref.indices)
        # every slot sums exactly the cells that couple its free pair, in each
        # component, and nothing of a constrained pair
        nloc = cd.shape[-1]
        ones = np.ones((space.mesh.n_cells, nloc * (nloc + 1) // 2))
        assert np.array_equal(pat.assemble(ones), ref.data)
        # no slot couples two components
        comp = np.empty(n, dtype=int)
        comp[space.dof_index[~space.constrained]] = np.nonzero(~space.constrained)[1]
        row_of = np.repeat(np.arange(n), np.diff(pat.indptr))
        assert np.array_equal(comp[row_of], comp[pat.indices])


def _arrays(obj):
    """The arrays an object holds, also inside its dicts."""
    for v in vars(obj).values():
        for a in (v.values() if isinstance(v, dict) else (v,)):
            if isinstance(a, np.ndarray):
                yield a


@pytest.mark.parametrize("dim,r", CASES)
def test_spaces_share_the_numbering_and_keep_no_cell_sized_array(dim, r):
    st = free_stepper(dim, r)
    spaces = (st.spaces.psi, st.spaces.A, st.spaces.phi)
    for name in ("nodes_int", "cell_nodes"):
        first = getattr(spaces[0], name)
        assert all(getattr(s, name) is first for s in spaces)
    if r == 1:
        assert spaces[0].nodes_int is st.mesh.vertices_int
        assert spaces[0].cell_nodes is st.mesh.cells
    keys = [set(vars(s)) for s in spaces]
    st.advance(st.advance(st.initialize()))
    assert [set(vars(s)) for s in spaces] == keys
    for s in spaces:
        assert not any(a.shape[:1] == (st.mesh.n_cells,) for a in _arrays(s))


@pytest.mark.parametrize("dim,r", CASES)
def test_forms_and_step_matrices_share_the_space_pattern(dim, r, monkeypatch):
    st = free_stepper(dim, r)
    sp = st.spaces
    state = st.initialize()
    rng = np.random.default_rng(0)
    a = FieldVector(sp.A, rng.standard_normal(sp.A.n_dofs))
    for m in (st.mass, st.stiffness, st.phi_system,
              forms.assemble_B(sp.psi, a, st.stiffness),
              forms.assemble_weighted_mass(sp.psi, forms.FieldProducts(state.psi))):
        assert on_pattern(m, sp.psi)
    for m in (st.mass, st.stiffness):
        assert on_pattern(m, sp.phi)
    for m in (st.mass_vec, forms.assemble_D(sp.A),
              forms.assemble_weighted_mass(sp.A, forms.FieldProducts(state.psi))):
        assert on_pattern(m, sp.A)

    seen = record_solves(monkeypatch)
    st.advance(state)
    assert len(seen) == 3
    assert on_pattern(seen[0], sp.A)
    assert on_pattern(seen[1], sp.phi)
    assert on_pattern(seen[2], sp.psi)


@pytest.mark.parametrize("dim,r", CASES)
def test_scalar_and_vector_patterns_share_the_cell_sums(dim, r):
    # the summation matrices are built once per (mesh, degree); each pattern
    # keeps only its own slots
    sp = free_stepper(dim, r).spaces
    psi, A = sp.psi.pattern(), sp.A.pattern()
    assert psi is not A
    assert psi.sums is A.sums is sp.phi.pattern().sums
    for pat in (psi, A):
        assert not any(issparse(v) for v in vars(pat).values())


@pytest.mark.parametrize("dim,r", CASES)
def test_componentwise_assembly_is_one_bincount_bit_identical_to_per_component(dim, r):
    # the vector space's form of exactly symmetric local matrices, summed
    # once per unordered node pair, equals one np.bincount per component
    # through a reference (comp, cell, i, j) map
    st = free_stepper(dim, r)
    space = st.spaces.A
    pat = space.pattern()
    nloc = space.element.node_count
    rng = np.random.default_rng(1)

    def symmetric(x):
        return x + x.swapaxes(-1, -2)

    loc = symmetric(rng.standard_normal((space.mesh.n_cells, nloc, nloc)))
    slots = reference_slots(pat, oracles.reference_cell_dofs(space))
    assert np.array_equal(forms._on_pattern(space, compact(loc, pat)).data,
                          bincount_reference(slots, loc, pat.nnz))
    cloc = loc + 1j * symmetric(rng.standard_normal(loc.shape))
    assert np.array_equal(pat.assemble(compact(cloc, pat)).view(float),
                          bincount_reference(slots, cloc, pat.nnz).view(float))
    assert space.pattern() is pat


@pytest.mark.parametrize("dim,r", CASES)
def test_step_matrices_share_the_patterns_intp_index_arrays(dim, r, monkeypatch):
    # scipy's int64 sparse kernels outrun its int32 ones on the step
    # matrices, and a csr_array keeps intp index arrays as given: every
    # matrix a step multiplies shares the pattern's.  A scipy that copied
    # them down to int32 on each wrap would fail here, and in assemble_B's
    # check that its stiffness is on the pattern.
    st = free_stepper(dim, r)
    sp = st.spaces
    for space in (sp.psi, sp.A, sp.phi):
        pat = space.pattern()
        assert pat.indices.dtype == pat.indptr.dtype == np.intp
    seen = record_solves(monkeypatch)
    st.advance(st.initialize())
    a_step, _, psi_lhs = seen
    for m, space in ((st.a_system, sp.A), (st.phi_system, sp.phi), (a_step, sp.A),
                     (psi_lhs, sp.psi)):
        assert m.indices.dtype == m.indptr.dtype == np.intp
        assert on_pattern(m, space)


def test_assemble_names_the_compact_shape_it_takes():
    # any other local array than (cells, nloc (nloc + 1) / 2), such as the
    # full (cells, nloc, nloc) local matrices, raises before the sum
    space = free_stepper(2, 2).spaces.psi
    pat = space.pattern()
    nc, nloc = space.mesh.n_cells, space.element.node_count
    expected = (nc, nloc * (nloc + 1) // 2)
    assert pat.sums.local_shape == expected
    assert pat.assemble(np.ones(expected)).shape == (pat.nnz,)
    for shape in ((nc, nloc, nloc), (nc, nloc * nloc), (nc, expected[1] - 1),
                  (nc + 1, expected[1]), (math.prod(expected),)):
        with pytest.raises(ValueError, match=re.escape(str(expected))):
            pat.assemble(np.ones(shape))
