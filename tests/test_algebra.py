"""Base algebra: structure constants, pairing, invariants, adjoint action.

Oracles here are computed independently of the code under test: matrix
commutators for structure constants, explicit closed forms for the su(2)
quadratic invariant, and central differences for gradients.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flagshift import build_algebra
from flagshift.errors import ConfigurationError
from flagshift.ranks import RankPolicy


E1, E2, E3 = np.eye(3)


def test_dimensions_and_ranks():
    for m, dim in [(2, 3), (3, 8), (4, 15)]:
        k = build_algebra("su", m)
        assert k.dim == dim
        assert k.rank == m - 1
        assert k.name == f"su{m}"
        assert k.basis.shape == (dim, m, m)


def test_unknown_family_rejected():
    with pytest.raises(ConfigurationError):
        build_algebra("so", 3)
    with pytest.raises(ConfigurationError):
        build_algebra("su", 1)


def test_basis_antihermitian_traceless(su3):
    for mat in su3.basis:
        assert np.abs(mat + mat.conj().T).max() < 1e-14
        assert abs(np.trace(mat)) < 1e-14


def test_su2_bracket_is_cyclic(su2):
    # [e1, e2] = e3 and cyclic permutations
    assert np.allclose(su2.bracket(E1, E2), E3, atol=1e-14)
    assert np.allclose(su2.bracket(E2, E3), E1, atol=1e-14)
    assert np.allclose(su2.bracket(E3, E1), E2, atol=1e-14)


def test_structure_constants_match_matrix_commutators(su3):
    # independent oracle: expand [e_a, e_b] as matrices and read coefficients
    # off the trace form, without going through the stored tensor
    d = su3.dim
    hs = np.real(np.einsum("aij,bji->ab", su3.basis, su3.basis))
    hs_inv = np.linalg.inv(hs)
    for a in range(d):
        for b in range(d):
            comm = su3.basis[a] @ su3.basis[b] - su3.basis[b] @ su3.basis[a]
            coeffs = hs_inv @ np.real(np.einsum("ij,cji->c", comm, su3.basis))
            assert np.abs(coeffs - su3.structure[a, b]).max() < 1e-12


def test_gram_from_ad_traces():
    # independent oracle: G_ab = -tr(ad_a ad_b) with ad built from brackets
    for m, expect in [(2, 2.0), (3, 3.0)]:
        k = build_algebra("su", m)
        d = k.dim
        ad = np.zeros((d, d, d))
        for a in range(d):
            for b in range(d):
                ad[a][:, b] = k.bracket(np.eye(d)[a], np.eye(d)[b])
        gram = -np.einsum("aij,bji->ab", ad, ad)
        assert np.abs(gram - expect * np.eye(d)).max() < 1e-12
        assert np.abs(k.gram - gram).max() < 1e-12


def test_pair_norm_consistency(su2):
    rng = np.random.default_rng(0)
    x = su2.random_element(rng)
    assert su2.pair(E1, E1) == pytest.approx(2.0)
    assert su2.norm(x) == pytest.approx(np.sqrt(su2.pair(x, x)))


def test_ad_antisymmetry_wrt_gram(su3):
    rng = np.random.default_rng(1)
    x, y, z = (su3.random_element(rng) for _ in range(3))
    lhs = su3.pair(su3.bracket(x, y), z)
    rhs = -su3.pair(y, su3.bracket(x, z))
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_ad_matrix_applies_bracket(su3):
    rng = np.random.default_rng(2)
    x, y = su3.random_element(rng), su3.random_element(rng)
    assert np.allclose(su3.ad(x) @ y, su3.bracket(x, y), atol=1e-13)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_ads_stack_matches_structure_constants(m):
    k = build_algebra("su", m)
    X = np.random.default_rng(m).normal(size=(2, 3, k.dim))
    ads = k.ads(X)
    assert ads.shape == (2, 3, k.dim, k.dim)
    # literal oracle: (ad_x)_{kq} = sum_p x_p c_pq^k from the stored tensor
    oracle = np.einsum("...p,pqk->...kq", X, k.structure)
    assert np.abs(ads - oracle).max() <= 1e-13 * np.abs(oracle).max()
    singles = np.stack([k.ad(x) for x in X[1]])
    assert np.abs(ads[1] - singles).max() <= 1e-13 * np.abs(oracle).max()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_jacobi_identity(seed):
    k = build_algebra("su", 3)
    rng = np.random.default_rng(seed)
    x, y, z = (k.random_element(rng) for _ in range(3))
    total = (
        k.bracket(x, k.bracket(y, z))
        + k.bracket(y, k.bracket(z, x))
        + k.bracket(z, k.bracket(x, y))
    )
    assert np.abs(total).max() < 1e-12


def test_matrix_round_trip(su3):
    rng = np.random.default_rng(3)
    x = su3.random_element(rng)
    assert np.allclose(su3.from_matrix(su3.to_matrix(x)), x, atol=1e-13)


def test_to_matrix_intertwines_bracket(su2):
    rng = np.random.default_rng(4)
    x, y = su2.random_element(rng), su2.random_element(rng)
    lhs = su2.to_matrix(su2.bracket(x, y))
    rhs = su2.to_matrix(x) @ su2.to_matrix(y) - su2.to_matrix(y) @ su2.to_matrix(x)
    assert np.abs(lhs - rhs).max() < 1e-13


def test_su2_adjoint_rotation(su2):
    t = 0.7
    moved = su2.adjoint_action(t * E3, E1)
    assert np.allclose(moved, [np.cos(t), np.sin(t), 0.0], atol=1e-12)


def test_adjoint_preserves_pairing(su3):
    rng = np.random.default_rng(5)
    x, y, g = (su3.random_element(rng) for _ in range(3))
    assert su3.pair(su3.adjoint_action(g, x), su3.adjoint_action(g, y)) == pytest.approx(
        su3.pair(x, y), abs=1e-11
    )


def test_adjoint_stack_matches_single(su2):
    rng = np.random.default_rng(6)
    xs = np.stack([su2.random_element(rng) for _ in range(4)])
    y = su2.random_element(rng)
    stacked = su2.adjoint_action_stack(y, xs)
    for i in range(4):
        assert np.allclose(stacked[i], su2.adjoint_action(y, xs[i]), atol=1e-13)


def test_su2_quadratic_invariant_closed_form(su2):
    # f(x) = -(x1^2 + x2^2 + x3^2)/2 for the spin representation
    rng = np.random.default_rng(7)
    x = su2.random_element(rng)
    assert su2.invariant_value(1, x) == pytest.approx(-0.5 * float(x @ x), abs=1e-13)
    assert su2.invariant_value(1, E3) == pytest.approx(-0.5)


def test_invariant_degree_bounds(su3):
    assert su3.invariant_degree(1) == 2
    assert su3.invariant_degree(2) == 3
    with pytest.raises(ValueError):
        su3.invariant_value(3, np.zeros(8))
    with pytest.raises(ValueError):
        su3.invariant_value(0, np.zeros(8))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.floats(-3.0, 3.0))
def test_invariant_homogeneity(seed, c):
    k = build_algebra("su", 3)
    rng = np.random.default_rng(seed)
    x = k.random_element(rng)
    for alpha in (1, 2):
        deg = k.invariant_degree(alpha)
        assert k.invariant_value(alpha, c * x) == pytest.approx(
            c**deg * k.invariant_value(alpha, x), abs=1e-10
        )


def test_cubic_invariant_is_nontrivial(su3):
    # the odd-degree invariant must not collapse to zero on generic elements
    rng = np.random.default_rng(8)
    values = [abs(su3.invariant_value(2, su3.random_element(rng))) for _ in range(10)]
    assert max(values) > 0.05


def test_invariant_ad_invariance(su3):
    rng = np.random.default_rng(9)
    x = su3.random_element(rng)
    g = su3.random_element(rng, 0.8)
    moved = su3.adjoint_action(g, x)
    for alpha in (1, 2):
        a, b = su3.invariant_value(alpha, x), su3.invariant_value(alpha, moved)
        assert b == pytest.approx(a, abs=1e-11)


def test_invariant_gradient_against_central_differences(su3):
    rng = np.random.default_rng(10)
    x = su3.random_element(rng)
    h = 1e-6
    for alpha in (1, 2):
        partials = np.zeros(su3.dim)
        for b in range(su3.dim):
            u = np.zeros(su3.dim)
            u[b] = h
            partials[b] = (
                su3.invariant_value(alpha, x + u) - su3.invariant_value(alpha, x - u)
            ) / (2 * h)
        fd_grad = np.linalg.solve(su3.gram, partials)
        analytic = su3.invariant_gradient(alpha, x)
        assert np.abs(analytic - fd_grad).max() < 1e-8


def test_su2_gradient_closed_form(su2):
    rng = np.random.default_rng(11)
    x = su2.random_element(rng)
    # f = -|x|^2/2, euclidean partials -x, pairing gradient -x/2
    assert np.allclose(su2.invariant_gradient(1, x), -0.5 * x, atol=1e-13)


def test_isotropy_dims(su2, su3):
    rng = np.random.default_rng(12)
    assert su2.isotropy_dim(su2.random_element(rng)) == 1
    assert su3.isotropy_dim(su3.random_element(rng)) == 2
    # degenerate direction: the diagonal element with a repeated eigenvalue
    # pair centralizes a u(2), four dimensions
    degenerate = np.zeros(8)
    degenerate[-1] = 1.0
    assert su3.isotropy_dim(degenerate) == 4


def test_random_element_is_deterministic(su2):
    a = su2.random_element(np.random.default_rng([1, 2]))
    b = su2.random_element(np.random.default_rng([1, 2]))
    assert np.array_equal(a, b)


def test_rank_policy_scale_anchor():
    # a noise-level matrix with a known natural scale must report rank zero
    from flagshift.ranks import numerical_rank

    noise = 1e-16 * np.random.default_rng(0).standard_normal((5, 5))
    assert numerical_rank(noise).rank == 5  # relative cutoff alone is fooled
    anchored = numerical_rank(noise, scale=1.0)
    assert anchored.rank == 0
    assert not anchored.marginal


def test_rank_policy_margin_flag():
    from flagshift.ranks import numerical_rank

    mat = np.diag([1.0, 5e-8])  # just above the default cutoff, inside the band
    result = numerical_rank(mat, RankPolicy(rel_tol=1e-8, margin=10.0))
    assert result.marginal
