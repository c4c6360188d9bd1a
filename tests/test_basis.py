import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polybound.basis import (
    FAMILIES,
    NodeSet,
    basis_deriv_matrix,
    basis_matrix,
    change_basis,
    cheb_coeffs,
    gauss_legendre_rule,
    gauss_lobatto_nodes,
    hat_matrix,
    linear_coeffs,
    make_basis,
    make_node_set,
    mirror_pairs,
)
from polybound.bounder import PolyCoeffs

FAMILY_LIST = sorted(FAMILIES)


@pytest.mark.parametrize("family", FAMILY_LIST)
@pytest.mark.parametrize("p", [1, 3, 6])
def test_basis_matrix_shape_and_range_guard(family, p):
    b = make_basis(family, p)
    x = np.linspace(-1, 1, 7)
    Phi = basis_matrix(b, x)
    assert Phi.shape == (7, p + 1)
    with pytest.raises(ValueError):
        basis_matrix(b, np.array([1.5]))


@pytest.mark.parametrize("family", ["lobatto-nodal", "legendre-nodal"])
@pytest.mark.parametrize("p", [2, 4, 7])
def test_nodal_families_interpolate(family, p):
    b = make_basis(family, p)
    nodes = np.asarray(b.nodes)
    Phi = basis_matrix(b, nodes)
    np.testing.assert_allclose(Phi, np.eye(p + 1), atol=1e-12)


@pytest.mark.parametrize("family", FAMILY_LIST)
@pytest.mark.parametrize("p", [0, -1])
def test_make_basis_checks_order_before_nodes(family, p):
    with pytest.raises(ValueError, match=f"order must be >= 1, got {p}$"):
        make_basis(family, p)


@pytest.mark.parametrize("family", ["lobatto-nodal", "legendre-nodal"])
@pytest.mark.parametrize("p", range(1, 9))
def test_nodal_basis_is_exactly_the_identity_at_its_nodes(family, p):
    # a point within 1e-15 of a node takes that node's cardinal row
    b = make_basis(family, p)
    nodes = np.asarray(b.nodes)
    for x in (nodes, np.nextafter(nodes, -2.0), np.nextafter(nodes, 2.0)):
        np.testing.assert_array_equal(basis_matrix(b, x), np.eye(p + 1))


def _hat_matrix_2d(eta, x):
    """hat_matrix written with 2-D fancy indexing, as a reference."""
    M = eta.size
    idx = np.clip(np.searchsorted(eta, x, side="right") - 1, 0, M - 2)
    t = (x - eta[idx]) / (eta[idx + 1] - eta[idx])
    A = np.zeros((x.size, M))
    rows = np.arange(x.size)
    A[rows, idx] = 1.0 - t
    A[rows, idx + 1] = t
    return A


@pytest.mark.parametrize("M", [2, 3, 5, 9])
def test_hat_matrix_matches_fancy_index_construction(M):
    rng = np.random.default_rng(M)
    eta = np.concatenate(([-1.0], np.sort(rng.uniform(-1.0, 1.0, M - 2)), [1.0]))
    inside = rng.uniform(-1.0, 1.0, 200)
    outside = np.concatenate([rng.uniform(-1.5, -1.0, 20), rng.uniform(1.0, 1.5, 20)])
    for x in (inside, eta, outside):
        A = hat_matrix(eta, x)
        np.testing.assert_array_equal(A, _hat_matrix_2d(eta, x))
        np.testing.assert_allclose(A.sum(axis=1), 1.0, rtol=0.0, atol=1e-15)
    np.testing.assert_array_equal(hat_matrix(eta, eta), np.eye(M))


@pytest.mark.parametrize("p", [2, 5])
def test_bernstein_partition_of_unity_and_positivity(p):
    b = make_basis("bernstein", p)
    x = np.linspace(-1, 1, 101)
    Phi = basis_matrix(b, x)
    np.testing.assert_allclose(Phi.sum(axis=1), 1.0, atol=1e-13)
    assert Phi.min() >= -1e-15


def test_gauss_legendre_rule_exactness():
    # n points integrate degree 2n-1 exactly
    for n in range(1, 9):
        x, w = gauss_legendre_rule(n)
        for k in range(2 * n):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(w @ x**k - exact) < 1e-13


def test_gauss_lobatto_nodes_endpoints_and_interior_roots():
    # the interior nodes are the roots of P'_{n-1}
    for n in range(2, 9):
        x = gauss_lobatto_nodes(n)
        assert x[0] == -1.0 and x[-1] == 1.0
        roots = np.sort(np.polynomial.Legendre.basis(n - 1).deriv().roots().real)
        np.testing.assert_allclose(x[1:-1], roots, rtol=0, atol=1e-14)


def test_gll_nodes_against_known_values():
    # 4-point GLL interior nodes at +-1/sqrt(5)
    got = gauss_lobatto_nodes(4)
    np.testing.assert_allclose(got[1], -1 / np.sqrt(5), atol=1e-14)
    # 5-point at +-sqrt(3/7)
    got = gauss_lobatto_nodes(5)
    np.testing.assert_allclose(got[3], np.sqrt(3.0 / 7.0), atol=1e-14)


@pytest.mark.parametrize("family", FAMILY_LIST)
def test_derivative_matrix_matches_finite_differences(family):
    b = make_basis(family, 4)
    x = np.linspace(-0.9, 0.9, 11)
    h = 1e-6
    D = basis_deriv_matrix(b, x)
    fd = (basis_matrix(b, x + h) - basis_matrix(b, x - h)) / (2 * h)
    np.testing.assert_allclose(D, fd, atol=1e-6)


@pytest.mark.parametrize("family", FAMILY_LIST)
def test_cheb_coeffs_reproduce_basis(family):
    b = make_basis(family, 5)
    C = cheb_coeffs(b)
    x = np.linspace(-1, 1, 33)
    from numpy.polynomial import chebyshev as cheb

    for i in range(b.N):
        np.testing.assert_allclose(
            cheb.chebval(x, C[:, i]),
            basis_matrix(b, x)[:, i],
            atol=1e-11,
        )


@given(
    st.sampled_from(FAMILY_LIST),
    st.sampled_from(FAMILY_LIST),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_change_basis_round_trip(src, dst, p, seed):
    rng = np.random.default_rng(seed)
    a = make_basis(src, p)
    b = make_basis(dst, p)
    u = rng.standard_normal(p + 1)
    c0 = PolyCoeffs(1, a, u)
    back = change_basis(change_basis(c0, b), a)
    np.testing.assert_allclose(back.u, u, atol=1e-10, rtol=1e-10)


def test_change_basis_preserves_values_2d():
    rng = np.random.default_rng(1)
    a = make_basis("lobatto-nodal", 3)
    b = make_basis("bernstein", 3)
    c0 = PolyCoeffs(2, a, rng.standard_normal((4, 4)))
    c1 = change_basis(c0, b)
    from polybound.bounder import eval_on_grid

    x = np.linspace(-1, 1, 9)
    np.testing.assert_allclose(
        eval_on_grid(c0, [x, x]), eval_on_grid(c1, [x, x]), atol=1e-12
    )


@pytest.mark.parametrize("family", FAMILY_LIST)
def test_linear_coeffs_represent_linears(family):
    b = make_basis(family, 3)
    x = np.linspace(-1, 1, 21)
    Phi = basis_matrix(b, x)
    got = Phi @ linear_coeffs(b, 0.25, -1.5)
    np.testing.assert_allclose(got, 0.25 - 1.5 * x, atol=1e-12)


def test_mirror_pairs_flags():
    assert mirror_pairs(make_basis("lobatto-nodal", 3))
    assert mirror_pairs(make_basis("bernstein", 4))
    assert not mirror_pairs(make_basis("legendre-modal", 3))


def test_node_set_validation():
    with pytest.raises(ValueError):
        make_node_set("equispaced", 1)
    ns = make_node_set("equispaced", 5)
    assert ns.array()[0] == -1.0 and ns.array()[-1] == 1.0
    with pytest.raises(ValueError):
        make_node_set("optimized", 3)  # not a computed kind
    with pytest.raises(ValueError):
        NodeSet([-1.0, 0.3, 1.0])  # not symmetric
    given = NodeSet(np.array([-1.0, 0.0, 1.0]))
    assert given.positions == (-1.0, 0.0, 1.0)
    assert all(type(v) is float for v in given.positions)
    with pytest.raises(ValueError):
        make_basis("no-such-family", 2)


def test_chebyshev_node_set_is_clustered():
    ns = make_node_set("chebyshev", 7).array()
    gaps = np.diff(ns)
    assert gaps[0] < gaps[len(gaps) // 2]
