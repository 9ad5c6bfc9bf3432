import itertools
import math

import numpy as np
import pytest
from scipy.sparse import csr_array
from scipy.sparse.linalg import splu

from msfem import sparsela as sla
from msfem.forms import assemble_mass, assemble_stiffness, lattice_stencils
from msfem.mesh import build_structured, lattice_points
from msfem.space import build_scalar_space, build_vector_space


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


def test_solve_spd_report_names_its_preconditioner():
    """The report reads cg-jacobi without a preconditioner, cg-transform
    with one, and direct-lu when CG breaks down and the solve falls back."""
    space = build_scalar_space(build_structured(2, 8), 1)
    A = 64.0 * assemble_mass(space) + 0.5 * assemble_stiffness(space)
    lattice = space.nodes_int[~space.constrained[:, 0]]
    m, k = lattice_stencils(space)
    transform = sla.lattice_transform_solve(64.0 * m + 0.5 * k, lattice, 8)
    b = np.random.default_rng(5).standard_normal(A.shape[0])
    for precond, method in ((None, "cg-jacobi"), (transform, "cg-transform"),
                            (lambda r: np.full_like(r, np.nan), "direct-lu")):
        x, rep = sla.solve_spd(A, b, precond=precond)
        assert rep.method == method
        assert np.linalg.norm(A @ x - b) <= 1e-9 * np.linalg.norm(b)


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
    """The lattice transform refuses what it would invert wrongly: points
    that are not its boxes in C order, a lattice of another n, a stencil of
    another shape, a symbol that is not positive; reading a stencil refuses
    P2, whose cells couple nodes two lattice steps apart."""
    space = build_scalar_space(build_structured(2, 4), 1)
    lattice = space.nodes_int[~space.constrained[:, 0]]
    m, k = lattice_stencils(space)
    for points, n in ((lattice[::-1], 4), (lattice, 5), (lattice[:-1], 4)):
        with pytest.raises(ValueError, match="C order"):
            sla.lattice_transform_solve(k, points, n)
    vector = build_vector_space(build_structured(2, 4), 1)
    nodes, comp = np.nonzero(~vector.constrained)
    points = vector.nodes_int[nodes]
    sla.lattice_transform_solve(k, points, 4, comp)
    for points_, comp_ in ((points, 1 - comp), (points[::-1], comp[::-1]),
                           (lattice, np.zeros(len(lattice), dtype=int)), (points, comp[:-1])):
        with pytest.raises(ValueError, match="C order"):
            sla.lattice_transform_solve(k, points_, 4, comp_)
    with pytest.raises(ValueError, match="stencil"):
        sla.lattice_transform_solve(k[:2], lattice, 4)
    # the mass minus a multiple of the stiffness: indefinite
    for stencil in (-k, m - 0.1 * k, np.where(k != 0, np.nan, 0.0)):
        with pytest.raises(ValueError, match="not positive"):
            sla.lattice_transform_solve(stencil, lattice, 4)
    p2 = build_scalar_space(build_structured(2, 3), 2)
    with pytest.raises(ValueError, match="nearest-neighbour"):
        lattice_stencils(p2)


def _averaged_operator(stencil, n, natural):
    """Dense operator of the sign-flip average of ``stencil`` on the box
    {0..n} along axis ``natural`` (None: no such axis) and {1..n-1} along
    the others, in C order: a neighbour past a Dirichlet side is dropped,
    one past a natural side is its mirror image, and the rows on the
    natural sides are halved."""
    d = stencil.ndim
    flips = [np.flip(stencil, axis=[k for k in range(d) if f[k]])
             for f in itertools.product((False, True), repeat=d)]
    averaged = sum(flips) / len(flips)
    lo = [0 if k == natural else 1 for k in range(d)]
    hi = [n if k == natural else n - 1 for k in range(d)]
    shape = tuple(h - l + 1 for l, h in zip(lo, hi))
    T = np.zeros((math.prod(shape),) * 2)
    for row, a in enumerate(np.ndindex(*shape)):
        point = np.add(a, lo)
        for o in np.ndindex(*(3,) * d):
            b = point + np.subtract(o, 1)
            if natural is not None:
                b[natural] = n - abs(n - abs(b[natural]))           # mirror at 0 and n
            if np.all((b >= lo) & (b <= hi)):
                T[row, np.ravel_multi_index(tuple(b - lo), shape)] += averaged[o]
        if natural is not None and point[natural] in (0, n):
            T[row] *= 0.5
    return T


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_lattice_transform_is_the_exact_inverse_of_its_operator(d, n):
    """P(T x) = x with T the sign-flip average of a nearest-neighbour
    stencil, dense: on the interior lattice (every axis Dirichlet), and per
    vector component c on the box natural along axis c, the components in
    C order of (point, component)."""
    rng = np.random.default_rng(10 * d + n)
    # a stencil that is not even in any axis, with a positive symbol
    stencil = 0.1 * rng.standard_normal((3,) * d)
    stencil[(1,) * d] = 3.0 ** d
    x = rng.standard_normal((n - 1) ** d)
    lattice = 1 + lattice_points(n - 1, d)
    solve = sla.lattice_transform_solve(stencil, lattice, n)
    assert np.linalg.norm(solve(_averaged_operator(stencil, n, None) @ x) - x) <= 1e-12 * np.linalg.norm(x)
    # vector: (point, component) in C order, component c on its box
    points = lattice_points(n + 1, d)
    inside = np.stack([np.all((points >= 1) & (points <= n - 1) | (np.arange(d) == c), axis=1)
                       for c in range(d)], axis=1)
    nodes, comp = np.nonzero(inside)
    blocks = [_averaged_operator(stencil, n, c) for c in range(d)]
    # the dofs of component c, in its box's C order, are its dofs in (point, component) order
    T = np.zeros((len(nodes),) * 2)
    for c in range(d):
        idx = np.flatnonzero(comp == c)
        T[np.ix_(idx, idx)] = blocks[c]
    x = rng.standard_normal(len(nodes))
    solve = sla.lattice_transform_solve(stencil, points[nodes], n, comp)
    assert np.linalg.norm(solve(T @ x) - x) <= 1e-12 * np.linalg.norm(x)
