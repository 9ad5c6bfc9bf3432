"""One CSR pattern per dof numbering.

Every form and every step matrix on a space shares the space's pattern; the
pattern is the structure COO->CSR gives for the same-component pairs of the
cell connectivity, and no constrained dof gets an entry.
"""

import numpy as np
import pytest
from scipy.sparse import coo_array

from msfem import forms, scheme, sparsela
from msfem.space import FieldVector

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


def check_dense_accumulation(ncomp):
    # random connectivity with repeated pairs across cells; random (node,
    # component) pairs are constrained
    rng = np.random.default_rng(0)
    nn, k = 16, 4
    cell_nodes = np.stack([rng.choice(nn, size=k, replace=False) for _ in range(40)])
    constrained = rng.random((nn, ncomp)) < 0.2
    dof_index = np.full((nn, ncomp), -1)
    dof_index[~constrained] = np.arange((~constrained).sum())
    n = int((~constrained).sum())
    loc = rng.standard_normal((40, k, k)) + 1j * rng.standard_normal((40, k, k))
    pat = sparsela.Pattern(cell_nodes, dof_index)
    # the scalar block of each cell lands on the same-component pairs only
    dense = np.zeros((n + 1, n + 1), dtype=complex)
    for nodes, block in zip(cell_nodes, loc):
        for c in range(ncomp):
            dofs = dof_index[nodes, c]
            for a, i in enumerate(dofs):
                for b, j in enumerate(dofs):
                    dense[i, j] += block[a, b]   # -1 lands in the dropped last row/col
    A = pat.matrix(pat.assemble(loc))
    assert np.allclose(A.toarray(), dense[:n, :n], atol=1e-13)
    for row in range(n):
        assert np.all(np.diff(pat.indices[pat.indptr[row]:pat.indptr[row + 1]]) > 0)
    # one bincount over the components equals one per component, bit for bit
    total = pat.assemble(loc.real)
    per_component = sum(np.bincount(pat.cell_map[c].ravel(), loc.real.ravel(),
                                    pat.nnz + 1)[:-1] for c in range(ncomp))
    assert np.array_equal(total, per_component)


def test_pattern_assembly_matches_dense_accumulation():
    check_dense_accumulation(ncomp=1)


def test_vector_pattern_assembly_matches_dense_accumulation():
    check_dense_accumulation(ncomp=2)


def test_3d_vector_pattern_assembly_matches_dense_accumulation():
    check_dense_accumulation(ncomp=3)


@pytest.mark.parametrize("dim,r", CASES)
def test_pattern_is_connectivity_structure_without_constrained_dofs(dim, r):
    st = free_stepper(dim, r)
    assert st.spaces.psi.pattern() is st.spaces.phi.pattern()
    for space in (st.spaces.psi, st.spaces.A):
        n = space.n_dofs
        # the COO->CSR structure of the same-component pairs of each cell
        cd = np.moveaxis(space.cell_dof_index(), -1, 0)     # (comp, cells, nloc)
        rows = np.broadcast_to(cd[..., :, None], cd.shape + cd.shape[-1:]).ravel()
        cols = np.broadcast_to(cd[..., None, :], cd.shape + cd.shape[-1:]).ravel()
        keep = (rows < n) & (cols < n)
        ref = coo_array((np.ones(keep.sum()), (rows[keep], cols[keep])),
                        shape=(n, n)).tocsr()
        ref.sum_duplicates()
        ref.sort_indices()
        pat = space.pattern()
        assert np.array_equal(pat.indptr, ref.indptr)
        assert np.array_equal(pat.indices, ref.indices)
        assert pat.cell_map.shape == (space.ncomp, space.mesh.n_cells,
                                      cd.shape[-1], cd.shape[-1])
        assert pat.cell_map.flags.c_contiguous
        constrained_pair = (cd[..., :, None] == n) | (cd[..., None, :] == n)
        assert constrained_pair.any()
        assert np.array_equal(pat.cell_map == pat.nnz, constrained_pair)
        # no slot couples two components
        comp = np.empty(n, dtype=int)
        comp[space.dof_index[~space.constrained]] = np.nonzero(~space.constrained)[1]
        row_of = np.repeat(np.arange(n), np.diff(pat.indptr))
        assert np.array_equal(comp[row_of], comp[pat.indices])


@pytest.mark.parametrize("dim,r", CASES)
def test_forms_and_step_matrices_share_the_space_pattern(dim, r, monkeypatch):
    st = free_stepper(dim, r)
    sp = st.spaces
    state = st.initialize()
    rng = np.random.default_rng(0)
    a = FieldVector(sp.A, rng.standard_normal(sp.A.n_dofs))
    for m in (st.mass, st.stiffness, st.phi_system,
              forms.assemble_B(sp.psi, a, st.stiffness),
              forms.assemble_weighted_mass(sp.psi, forms.QuadratureField(state.psi).abs2)):
        assert on_pattern(m, sp.psi)
    for m in (st.mass, st.stiffness):
        assert on_pattern(m, sp.phi)
    for m in (st.mass_vec, st.D, forms.assemble_weighted_mass(sp.A, forms.QuadratureField(state.psi).abs2)):
        assert on_pattern(m, sp.A)

    seen = []

    def recording(solve):
        def wrapped(A, *args, **kwargs):
            seen.append(A)
            return solve(A, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(sparsela, "solve_spd", recording(sparsela.solve_spd))
    monkeypatch.setattr(sparsela, "solve_complex", recording(sparsela.solve_complex))
    st.advance(state)
    assert len(seen) == 3
    assert on_pattern(seen[0], sp.A)
    assert on_pattern(seen[1], sp.phi)
    assert on_pattern(seen[2], sp.psi)


@pytest.mark.parametrize("dim,r", CASES)
def test_componentwise_assembly_is_one_bincount_bit_identical_to_per_component(dim, r):
    st = free_stepper(dim, r)
    space = st.spaces.A
    pat = space.pattern()
    nloc, d = space.element.node_count, space.ncomp
    rng = np.random.default_rng(1)
    loc = rng.standard_normal((space.mesh.n_cells, nloc, nloc))
    per_component = sum(np.bincount(pat.cell_map[k].ravel(), loc.ravel(), pat.nnz + 1)[:-1]
                        for k in range(d))
    data = forms._on_pattern(space, loc).data
    assert np.array_equal(data, per_component)
    assert space.pattern() is pat
    assert pat.cell_map.flags.c_contiguous
