import numpy as np
import pytest
from scipy.sparse import csr_array
from scipy.sparse.linalg import splu

from msfem import sparsela as sla
from msfem.forms import assemble_mass, assemble_stiffness
from msfem.mesh import build_structured
from msfem.space import build_scalar_space


def test_solve_spd_identity_and_diagonal():
    I = csr_array(np.eye(3))
    b = np.array([1.0, -2.0, 0.5])
    x, rep = sla.solve_spd(I, b)
    assert np.allclose(x, b)
    assert rep.residual <= 1e-10

    D = csr_array(np.diag([2.0, 4.0]))
    x, _ = sla.solve_spd(D, np.array([2.0, 8.0]))
    assert np.allclose(x, [1.0, 2.0])


def test_solve_spd_fem_system_residual():
    mesh = build_structured(2, 4)
    space = build_scalar_space(mesh, 1)
    A = assemble_stiffness(space) + assemble_mass(space)
    rng = np.random.default_rng(3)
    b = rng.standard_normal(space.n_dofs)
    x, rep = sla.solve_spd(A, b, tol=1e-12)
    res = np.linalg.norm(A @ x - b) / np.linalg.norm(b)
    assert res <= 1e-10
    assert rep.residual <= 1e-10


def test_solve_spd_cg_failure_carries_report():
    # symmetric indefinite: CG must fail rather than return garbage
    A = csr_array(np.diag([1.0, -1.0]))
    with pytest.raises(sla.SolveError) as exc:
        sla.solve_spd(A, np.array([1.0, 1.0]), method="cg")
    assert exc.value.report.method == "cg-jacobi"


def test_solve_spd_rejects_unknown_method():
    # a misspelt method must not run the direct solve under another name
    A = csr_array(np.eye(2))
    with pytest.raises(ValueError, match="cgg"):
        sla.solve_spd(A, np.ones(2), method="cgg")


def test_solve_complex_identity_and_diagonal():
    I = csr_array(np.eye(2, dtype=complex))
    b = np.array([1.0 + 1j, -2.0])
    x, _ = sla.solve_complex(I, b)
    assert np.allclose(x, b)

    A = csr_array(np.diag([1j, 2.0 + 0j]))
    x, rep = sla.solve_complex(A, np.array([1j, 2.0 + 0j]))
    assert np.allclose(x, [1.0, 1.0])
    assert rep.residual <= 1e-10


def test_solve_complex_fem_system_residual():
    mesh = build_structured(2, 4)
    space = build_scalar_space(mesh, 1, complex_field=True)
    M = assemble_mass(space)
    K = assemble_stiffness(space)
    S = (-1j / 0.1) * M + 0.25 * K
    rng = np.random.default_rng(4)
    b = rng.standard_normal(space.n_dofs) + 1j * rng.standard_normal(space.n_dofs)
    x, rep = sla.solve_complex(S, b, tol=1e-12)
    res = np.linalg.norm(S @ x - b) / np.linalg.norm(b)
    assert res <= 1e-10

    # a mass-scale perturbation of S, like the step's phi_bar term,
    # corrected against the exact inverse of S
    A = S + 0.5 * M
    x, rep = sla.solve_complex(A, b, tol=1e-12, precond=splu(S.tocsc()).solve)
    assert rep.method == "defect-correction"
    assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) <= 1e-10
    x_direct = splu(A.tocsc()).solve(b)
    assert np.linalg.norm(x - x_direct) <= 1e-10 * np.linalg.norm(x_direct)


# ---- failures are typed: SolveError with a report, never a raw RuntimeError ----

def _fem_spd(M=3):
    space = build_scalar_space(build_structured(2, M), 1)
    return assemble_stiffness(space) + assemble_mass(space)


@pytest.mark.parametrize("method", ["auto", "cg", "direct"])
def test_solve_spd_nan_matrix_raises_solve_error(method):
    A = float("nan") * _fem_spd()
    with pytest.raises(sla.SolveError) as exc:
        sla.solve_spd(A, np.ones(A.shape[0]), method=method)
    assert exc.value.report.method in ("cg-jacobi", "direct-lu")


def test_solve_spd_singular_matrix_raises_solve_error():
    A = csr_array(np.diag([1.0, 0.0]))
    with pytest.raises(sla.SolveError) as exc:
        sla.solve_spd(A, np.ones(2), method="direct")
    assert exc.value.report.method == "direct-lu"


@pytest.mark.parametrize("solve,dtype,kwargs", [(sla.solve_spd, float, {"method": "direct"}),
                                                 (sla.solve_complex, complex, {})])
def test_lu_out_of_memory_raises_solve_error(solve, dtype, kwargs, monkeypatch):
    def gstrf_out_of_memory(*args, **kw):
        # what SuperLU raises when its factor runs out of memory
        raise SystemError("gstrf was called with invalid arguments")

    monkeypatch.setattr("scipy.sparse.linalg.splu", gstrf_out_of_memory)
    A = _fem_spd().astype(dtype)
    with pytest.raises(sla.SolveError, match="gstrf") as exc:
        solve(A, np.ones(A.shape[0], dtype=dtype), **kwargs)
    assert exc.value.report.method == "direct-lu"
    assert isinstance(exc.value.__cause__, SystemError)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_rhs_rejected(bad):
    A = _fem_spd()
    b = np.ones(A.shape[0])
    b[1] = bad
    with pytest.raises(sla.SolveError):
        sla.solve_spd(A, b)
    with pytest.raises(sla.SolveError):
        sla.solve_complex(A.astype(complex), b.astype(complex))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_solve_complex_singular_and_nan_raise_solve_error():
    singular = csr_array(np.diag([1j, 0.0]))
    with pytest.raises(sla.SolveError) as exc:
        sla.solve_complex(singular, np.ones(2, dtype=complex))
    assert exc.value.report.method == "direct-lu"

    A = (-1j / 0.1) * _fem_spd().astype(complex)
    nan = float("nan") * A
    identity = lambda r: r  # noqa: E731 - defect correction, then the direct fallback
    for precond in (None, identity):
        with pytest.raises(sla.SolveError):
            sla.solve_complex(nan, np.ones(A.shape[0], dtype=complex), precond=precond)


def test_stalled_defect_correction_falls_back_to_lu_at_the_cap():
    # indefinite Helmholtz-like system on which defect correction with the
    # identity as approximate inverse diverges
    space = build_scalar_space(build_structured(2, 32), 1, complex_field=True)
    M = assemble_mass(space)
    A = 0.25 * assemble_stiffness(space) - 2000.0 * M - 1e-3j * M
    b = np.random.default_rng(0).standard_normal(A.shape[0]).astype(complex)
    limit = sla.DEFECT_CORRECTION_MAX_APPLIES
    applied = []

    def counting(r):
        applied.append(1)
        assert len(applied) <= limit, "defect correction ran past its cap"
        return r

    x, rep = sla.solve_complex(A, b, precond=counting)
    assert len(applied) == limit
    assert rep.method == "direct-lu"
    assert rep.residual <= sla.DIRECT_RESIDUAL_FLOOR
    assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) <= sla.DIRECT_RESIDUAL_FLOOR


def test_bisection_needs_a_plane_strictly_inside():
    # no multiple of the step lies strictly inside the extent: no split
    assert sla._bisect(np.array([[1, 1], [2, 1], [2, 2]]), 2) is None
    below, above, on = sla._bisect(np.array([[1, 0], [2, 0], [4, 0], [5, 0], [6, 0]]), 2)
    # the multiple of 2 nearest the middle of [1, 6]
    assert (below.tolist(), above.tolist(), on.tolist()) == ([0, 1], [3, 4], [2])
    # a block that cannot be split stays whole, whatever its size
    column = np.stack([np.ones(100, dtype=int), np.arange(100) % 2], axis=1)
    assert sla.nested_dissection(column, 2).tolist() == list(range(100))


def test_sine_transform_solve_rejections():
    space = build_scalar_space(build_structured(2, 4), 1)
    lattice = space.nodes_int[~space.constrained[:, 0]]
    K = assemble_stiffness(space)
    with pytest.raises(ValueError, match="interior lattice"):
        sla.sine_transform_solve(K, lattice[::-1], 4)
    with pytest.raises(ValueError, match="interior lattice"):
        sla.sine_transform_solve(K, lattice, 5)
    # P2 couples the two vertices of a cell edge, two lattice steps apart
    p2 = build_scalar_space(build_structured(2, 3), 2)
    with pytest.raises(ValueError, match="nearest-neighbour"):
        sla.sine_transform_solve(assemble_mass(p2), p2.nodes_int[~p2.constrained[:, 0]], 6)
