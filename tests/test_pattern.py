"""One CSR pattern per dof numbering.

Every form and every step matrix on a space shares the space's pattern; the
pattern is the structure COO->CSR gives for the cell connectivity, and no
constrained dof gets an entry.
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


def test_pattern_assembly_matches_dense_accumulation():
    # random connectivity with repeated pairs across cells; dof n is constrained
    rng = np.random.default_rng(0)
    n, k = 15, 4
    cell_dofs = np.stack([rng.choice(n + 1, size=k, replace=False) for _ in range(40)])
    loc = rng.standard_normal((40, k, k)) + 1j * rng.standard_normal((40, k, k))
    pat = sparsela.Pattern(cell_dofs, n)
    dense = np.zeros((n + 1, n + 1), dtype=complex)
    for dofs, block in zip(cell_dofs, loc):
        for a, i in enumerate(dofs):
            for b, j in enumerate(dofs):
                dense[i, j] += block[a, b]
    A = pat.matrix(pat.assemble(loc))
    assert np.allclose(A.toarray(), dense[:n, :n], atol=1e-13)
    for row in range(n):
        assert np.all(np.diff(pat.indices[pat.indptr[row]:pat.indptr[row + 1]]) > 0)


@pytest.mark.parametrize("dim,r", CASES)
def test_pattern_is_connectivity_structure_without_constrained_dofs(dim, r):
    st = free_stepper(dim, r)
    assert st.spaces.psi.pattern() is st.spaces.phi.pattern()
    for space in (st.spaces.psi, st.spaces.A):
        n = space.n_dofs
        cd = space.cell_dof_index().reshape(space.mesh.n_cells, -1)
        rows = np.repeat(cd, cd.shape[1], axis=1).ravel()
        cols = np.tile(cd, (1, cd.shape[1])).ravel()
        keep = (rows < n) & (cols < n)
        ref = coo_array((np.ones(keep.sum()), (rows[keep], cols[keep])),
                        shape=(n, n)).tocsr()
        ref.sum_duplicates()
        ref.sort_indices()
        pat = space.pattern()
        assert np.array_equal(pat.indptr, ref.indptr)
        assert np.array_equal(pat.indices, ref.indices)
        constrained_pair = (cd[:, :, None] == n) | (cd[:, None, :] == n)
        assert constrained_pair.any()
        assert np.array_equal(pat.cell_map == pat.nnz, constrained_pair)


@pytest.mark.parametrize("dim,r", CASES)
def test_forms_and_step_matrices_share_the_space_pattern(dim, r, monkeypatch):
    st = free_stepper(dim, r)
    sp = st.spaces
    state = st.initialize()
    rng = np.random.default_rng(0)
    a = FieldVector(sp.A, rng.standard_normal(sp.A.n_dofs))
    for m in (st.mass_psi, st.stiff_psi, st.phi_system,
              forms.assemble_B(sp.psi, a), forms.assemble_B(sp.psi, a, stiffness=st.stiff_psi),
              forms.assemble_weighted_mass(sp.psi, forms.Abs2(state.psi))):
        assert on_pattern(m, sp.psi)
    for m in (st.mass_phi, st.stiff_phi):
        assert on_pattern(m, sp.phi)
    for m in (st.mass_vec, st.D, forms.assemble_weighted_mass(sp.A, forms.Abs2(state.psi))):
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
