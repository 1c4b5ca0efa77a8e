"""Base algebra: structure constants, pairing, invariants, adjoint action.

Oracles here are computed independently of the code under test: matrix
commutators for structure constants, explicit closed forms for the su(2)
quadratic invariant, and central differences for gradients.
"""

import copy
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flagshift import build_algebra
from flagshift.errors import ConfigurationError
from flagshift.ranks import DEFAULT_POLICY, RankPolicy, decide, numerical_rank


E1, E2, E3 = np.eye(3)


def _bracket(k, x, y):
    """Oracle: [x, y] read off the stored structure tensor, c[a, b] = [e_a, e_b]."""
    return np.einsum("a,b,abc->c", x, y, k.structure)


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
    assert np.allclose(_bracket(su2, E1, E2), E3, atol=1e-14)
    assert np.allclose(_bracket(su2, E2, E3), E1, atol=1e-14)
    assert np.allclose(_bracket(su2, E3, E1), E2, atol=1e-14)


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
                ad[a][:, b] = _bracket(k, np.eye(d)[a], np.eye(d)[b])
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
    lhs = su3.pair(_bracket(su3, x, y), z)
    rhs = -su3.pair(y, _bracket(su3, x, z))
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_ad_matrix_applies_bracket(su3):
    rng = np.random.default_rng(2)
    x, y = su3.random_element(rng), su3.random_element(rng)
    assert np.allclose(su3.ad(x) @ y, _bracket(su3, x, y), atol=1e-13)


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


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_the_ad_data_is_stored_once(m):
    # structure is a read-only view of the ad rows that ads multiplies; no second copy is kept
    k = build_algebra("su", m)
    assert k._ad_rows.shape == (k.dim, k.dim * k.dim)
    assert np.shares_memory(k.structure, k._ad_rows)
    assert not k.structure.flags.writeable and not k._ad_rows.flags.writeable
    assert not hasattr(k, "ad_basis")


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_jacobi_identity(seed):
    k = build_algebra("su", 3)
    rng = np.random.default_rng(seed)
    x, y, z = (k.random_element(rng) for _ in range(3))
    total = (
        _bracket(k, x, _bracket(k, y, z))
        + _bracket(k, y, _bracket(k, z, x))
        + _bracket(k, z, _bracket(k, x, y))
    )
    assert np.abs(total).max() < 1e-12


def _dense_jacobi(c):
    """Oracle: the three-term Jacobi tensor J[i, j, k, l] as dense einsums."""
    return (
        np.einsum("jkm,iml->ijkl", c, c)
        + np.einsum("kim,jml->ijkl", c, c)
        + np.einsum("ijm,kml->ijkl", c, c)
    )


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_sparse_jacobi_agrees_with_dense_oracle(m):
    k = build_algebra("su", m)
    assert np.abs(_dense_jacobi(k.structure)).max() <= 1e-12
    k._validate_jacobi()
    entries = np.argwhere(k.structure != 0.0)
    rng = np.random.default_rng(m)
    for a, b, q in entries[rng.choice(len(entries), 4, replace=False)]:
        # a 0.1% change to one antisymmetric pair c[a, b, q] = -c[b, a, q]
        broken = copy.copy(k)
        broken.structure = k.structure.copy()
        broken.structure[[a, b], [b, a], q] *= 1.001
        worst = np.abs(_dense_jacobi(broken.structure)).max()
        if m == 2:  # every antisymmetric bracket on a 3-space is a Lie bracket
            assert worst == 0.0
            broken._validate_jacobi()
            continue
        assert worst > 1e-5
        with pytest.raises(ConfigurationError, match=re.escape(f"max defect {worst:.3e}")):
            broken._validate_jacobi()


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_structure_gemms_match_the_einsum_route_bitwise(m):
    k = build_algebra("su", m)
    comm = np.einsum("aik,bkj->abij", k.basis, k.basis)
    assert np.array_equal(k.structure, k._expand_stack(comm - comm.transpose(1, 0, 2, 3)))


def test_build_algebra_holds_no_dim4_array():
    # the dense Jacobi tensor at su(8) alone is 63^4 doubles, 126 MB
    tracemalloc.start()
    try:
        build_algebra("su", 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_matrix_round_trip(su3):
    rng = np.random.default_rng(3)
    x = su3.random_element(rng)
    assert np.allclose(su3._expand_stack(su3.to_matrix(x)), x, atol=1e-13)
    # the trace-orthogonality the adjoint oracle relies on
    assert np.allclose(-2.0 * np.real(np.einsum("ij,aji->a", su3.to_matrix(x), su3.basis)), x, atol=1e-13)


def test_to_matrix_intertwines_bracket(su2):
    rng = np.random.default_rng(4)
    x, y = su2.random_element(rng), su2.random_element(rng)
    lhs = su2.to_matrix(_bracket(su2, x, y))
    rhs = su2.to_matrix(x) @ su2.to_matrix(y) - su2.to_matrix(y) @ su2.to_matrix(x)
    assert np.abs(lhs - rhs).max() < 1e-13


def test_su2_adjoint_rotation(su2):
    t = 0.7
    moved = su2.adjoint_action_stack(t * E3, E1)
    assert np.allclose(moved, [np.cos(t), np.sin(t), 0.0], atol=1e-12)


def test_adjoint_preserves_pairing(su3):
    rng = np.random.default_rng(5)
    x, y, g = (su3.random_element(rng) for _ in range(3))
    assert su3.pair(su3.adjoint_action_stack(g, x), su3.adjoint_action_stack(g, y)) == pytest.approx(
        su3.pair(x, y), abs=1e-11
    )


def test_adjoint_stack_matches_single(su2, adjoint):
    rng = np.random.default_rng(6)
    xs = np.stack([su2.random_element(rng) for _ in range(4)])
    y = su2.random_element(rng)
    stacked = su2.adjoint_action_stack(y, xs)
    for i in range(4):
        assert np.allclose(stacked[i], adjoint(su2, y, xs[i]), atol=1e-13)


@pytest.mark.parametrize("m", [2, 3, 5, 8])
def test_unitary_matches_expm(m):
    from scipy.linalg import expm

    k = build_algebra("su", m)
    rng = np.random.default_rng(100 + m)
    times = np.array([0.0, 0.5, 3.0])
    for _ in range(20):
        y = k.random_element(rng)
        u = k._unitary(y)
        ref = expm(k.to_matrix(y))
        assert np.linalg.norm(u - ref) <= 1e-14 * np.linalg.norm(ref)
        assert np.abs(u.conj().T @ u - np.eye(m)).max() <= 1e-15
        for t, ut in zip(times, k._unitary(y, times)):
            ref = expm(k.to_matrix(t * y))
            assert np.linalg.norm(ut - ref) <= 1e-14 * np.linalg.norm(ref)


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
    moved = su3.adjoint_action_stack(g, x)
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


def _with_spectrum(k, lam, rng):
    """Coordinates of U diag(i lam) U^* for a random unitary U (trace form -2 Re tr(mat e_a))."""
    u, _ = np.linalg.qr(rng.normal(size=(k.m, k.m)) + 1j * rng.normal(size=(k.m, k.m)))
    mat = u @ np.diag(1j * (lam - lam.mean())) @ u.conj().T
    return -2.0 * np.real(np.einsum("ij,aji->a", mat, k.basis))


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8])
def test_spectral_isotropy_matches_the_ad_svd(m):
    k = build_algebra("su", m)
    rng = np.random.default_rng(100 + m)
    xs = [10.0 ** rng.uniform(-3, 3) * k.random_element(rng) for _ in range(12)]
    xs.append(np.zeros(k.dim))
    for gap in 10.0 ** rng.uniform(-12, -6, size=24):
        lam = np.sort(rng.normal(size=k.m))
        lam[1] = lam[0] + gap  # one near-degenerate pair, straddling the margin band
        xs.append(_with_spectrum(k, lam, rng))
    xs = np.array(xs)
    dims, marginal = k.isotropy(xs.reshape(1, *xs.shape), DEFAULT_POLICY)
    assert dims.shape == marginal.shape == (1, len(xs))
    oracle = [numerical_rank(k.ad(x), DEFAULT_POLICY) for x in xs]
    assert dims[0].tolist() == [k.dim - r.rank for r in oracle]
    assert marginal[0].tolist() == [r.marginal for r in oracle]
    # the draws reach every verdict: regular, marginal, and degenerate but clear;
    # in su(2) a lone gap is its own scale, so every nonzero element is regular
    assert (dims[0] == k.rank).any() and (marginal[0].any() or m == 2)
    assert (~marginal[0] & (dims[0] > k.rank)).sum() >= (2 if m > 2 else 1)


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


def test_decide_on_a_stack_matches_each_spectrum():
    rng = np.random.default_rng(13)
    sigmas = 10.0 ** rng.uniform(-11, 0, size=(3, 4, 6))
    sigmas[0, 0, 1] = 1e-8 * sigmas[0, 0].max()  # exactly at the cutoff
    sigmas[1, 2] = 0.0
    rank, marginal = decide(sigmas, DEFAULT_POLICY)
    assert rank.shape == marginal.shape == (3, 4)
    singles = [decide(s, DEFAULT_POLICY) for s in sigmas.reshape(-1, 6)]
    assert rank.ravel().tolist() == [int(r) for r, _ in singles]
    assert marginal.ravel().tolist() == [bool(m) for _, m in singles]
    assert marginal.any() and not marginal.all() and rank[1, 2] == 0


def test_decide_scale_anchors_noise_at_rank_zero():
    sigmas = np.linalg.svd(1e-16 * np.random.default_rng(0).standard_normal((5, 5)), compute_uv=False)
    assert decide(sigmas, DEFAULT_POLICY)[0] == 5
    rank, marginal = decide(sigmas, DEFAULT_POLICY, scale=1.0)
    assert rank == 0 and not marginal


def test_decide_on_an_empty_spectrum():
    for scale in (None, 1.0):
        rank, marginal = decide(np.zeros(0), DEFAULT_POLICY, scale)
        assert (rank, marginal) == (0, False)


def test_decide_margin_band_is_open():
    # binary fractions: the cutoff is 0.25 and the band (0.125, 0.5), exactly
    policy = RankPolicy(rel_tol=0.25, margin=2.0)
    assert [(int(r), bool(m)) for r, m in [decide(np.array(s), policy) for s in (
        [1.0, 0.5, 0.125],  # both band edges: outside the band
        [1.0, 0.4],  # inside, above the cutoff
        [1.0, 0.25],  # at the cutoff: zero, and inside the band
        [1.0, 0.2],  # inside, below the cutoff
    )]] == [(2, False), (2, True), (1, True), (1, True)]
