import itertools
import math

import numpy as np
import pytest

from msfem import elements as el
from msfem import forms
from msfem.mesh import build_structured


def bary_monomial_integral(exponents):
    """Exact integral of a barycentric monomial over the reference simplex.

    integral of prod lam_i^{a_i} = (prod a_i!) * d! / (sum a + d)! * vol, with
    vol = 1/d!; evaluated independently of any quadrature code.
    """
    a = list(exponents)
    d = len(a) - 1
    num = math.prod(math.factorial(k) for k in a)
    return num * math.factorial(d) / math.factorial(sum(a) + d) / math.factorial(d)


def barycentric(points_ref):
    """Barycentric coordinates (1 - sum x, x) of reference points."""
    return np.column_stack([1.0 - points_ref.sum(axis=1), points_ref])


def random_simplex_points(dim, n, rng):
    """Uniform-ish interior points of the reference simplex."""
    pts = rng.dirichlet(np.ones(dim + 1), size=n)[:, 1:]
    return pts


@pytest.mark.parametrize("dim,r", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_kronecker_property(dim, r):
    elem = el.reference_element(dim, r)
    vals, _ = elem.tabulate((elem.vertex_weights / r)[:, 1:])
    assert np.allclose(vals, np.eye(elem.node_count), atol=1e-14)


@pytest.mark.parametrize("dim,r", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_partition_of_unity_and_gradient_sum(dim, r):
    rng = np.random.default_rng(7)
    pts = random_simplex_points(dim, 50, rng)
    elem = el.reference_element(dim, r)
    vals, grads = elem.tabulate(pts)
    assert np.allclose(vals.sum(axis=1), 1.0, atol=1e-13)
    assert np.allclose(grads.sum(axis=1), 0.0, atol=1e-13)


def test_node_counts():
    assert el.reference_element(2, 1).node_count == 3
    assert el.reference_element(2, 2).node_count == 6
    assert el.reference_element(3, 1).node_count == 4
    assert el.reference_element(3, 2).node_count == 10


def test_degree_rejection():
    with pytest.raises(ValueError):
        el.reference_element(2, 3)
    with pytest.raises(ValueError):
        el.reference_element(2, 0)


@pytest.mark.parametrize("dim", [2, 3])
def test_quadrature_weight_sums(dim):
    for q in range(0, 9):
        rule = el.quadrature_rule(dim, q)
        assert rule.weights.sum() == pytest.approx(1.0 / math.factorial(dim), rel=1e-14)


def test_quadrature_lambda1_lambda2():
    rule = el.quadrature_rule(2, 2)
    lam = barycentric(rule.points_ref)
    val = (rule.weights * lam[:, 1] * lam[:, 2]).sum()
    assert val == pytest.approx(bary_monomial_integral((0, 1, 1)), rel=1e-13)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("q", [1, 2, 3, 4, 5, 6, 7, 8])
def test_quadrature_monomial_exactness(dim, q):
    rule = el.quadrature_rule(dim, q)
    lam = barycentric(rule.points_ref)
    for total in range(q + 1):
        for combo in itertools.combinations_with_replacement(range(dim + 1), total):
            a = [combo.count(i) for i in range(dim + 1)]
            num = (rule.weights * np.prod(lam ** np.array(a), axis=1)).sum()
            exact = bary_monomial_integral(a)
            assert num == pytest.approx(exact, rel=1e-13), (q, a)


def test_quadrature_degree_rejection():
    with pytest.raises(ValueError):
        el.quadrature_rule(2, el.MAX_QUADRATURE_DEGREE + 1)
    with pytest.raises(ValueError):
        el.quadrature_rule(2, -1)


def test_p1_gradients_match_vandermonde_solve():
    # the six tetrahedra of the unit cube, each mapped by its template
    mesh = build_structured(3, 1)
    tab = forms.quadrature_table(mesh, 1)
    for c, cell in enumerate(mesh.cells):
        grads = tab.gref @ mesh.JinvT[c % 6].T   # (q, nloc, d)
        # oracle: linear nodal basis via the 4x4 Vandermonde system
        V = np.hstack([np.ones((4, 1)), mesh.vertices[cell]])
        for i in range(4):
            coeffs = np.linalg.solve(V, np.eye(4)[i])
            assert np.allclose(grads[:, i], coeffs[1:], atol=1e-12)


def test_degenerate_cell_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        el.affine_map(verts)


@pytest.mark.parametrize("dim,r", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_nodal_interpolation_reproduces_polynomials(dim, r):
    rng = np.random.default_rng(11)
    elem = el.reference_element(dim, r)
    exps = [e for e in itertools.product(range(r + 1), repeat=dim) if sum(e) <= r]
    coeffs = rng.standard_normal(len(exps))

    def p(x):
        return sum(c * np.prod(x ** np.array(e), axis=-1) for c, e in zip(coeffs, exps))

    nodal = p((elem.vertex_weights / r)[:, 1:])
    pts = random_simplex_points(dim, 100, rng)
    vals, _ = elem.tabulate(pts)
    assert np.allclose(vals @ nodal, p(pts), atol=1e-12)


@pytest.mark.parametrize("dim,r", [(2, 1), (2, 2), (3, 2)])
def test_stiffness_quadrature_matches_symbolic(dim, r):
    sympy = pytest.importorskip("sympy")
    rng = np.random.default_rng(5)
    xs = sympy.symbols(f"x0:{dim}")
    exps = [e for e in itertools.product(range(r + 1), repeat=dim) if sum(e) <= r]
    cu = rng.integers(-3, 4, len(exps))
    cv = rng.integers(-3, 4, len(exps))
    u = sum(int(c) * sympy.prod([x ** e for x, e in zip(xs, ee)]) for c, ee in zip(cu, exps))
    v = sum(int(c) * sympy.prod([x ** e for x, e in zip(xs, ee)]) for c, ee in zip(cv, exps))
    integrand = sum(sympy.diff(u, x) * sympy.diff(v, x) for x in xs)
    if dim == 2:
        exact = sympy.integrate(
            sympy.integrate(integrand, (xs[1], 0, 1 - xs[0])), (xs[0], 0, 1))
    else:
        exact = sympy.integrate(sympy.integrate(sympy.integrate(
            integrand, (xs[2], 0, 1 - xs[0] - xs[1])),
            (xs[1], 0, 1 - xs[0])), (xs[0], 0, 1))
    exact = float(exact)

    rule = el.quadrature_rule(dim, 2 * r)
    elem = el.reference_element(dim, r)
    vals, grads = elem.tabulate(rule.points_ref)

    def poly(x, cs):
        return sum(c * np.prod(x ** np.array(e), axis=-1) for c, e in zip(cs, exps))

    nu = poly((elem.vertex_weights / r)[:, 1:], cu)
    nv = poly((elem.vertex_weights / r)[:, 1:], cv)
    gu = np.einsum("qld,l->qd", grads, nu)
    gv = np.einsum("qld,l->qd", grads, nv)
    num = (rule.weights * np.einsum("qd,qd->q", gu, gv)).sum()
    assert num == pytest.approx(exact, abs=1e-12, rel=1e-12)
