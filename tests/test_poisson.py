"""Poisson structure: bracket axioms, flow consistency, tangent spans.

The bracket is cross-checked against the time derivative of observables
along the Hamiltonian vector field, and Jacobi is verified with central
differences on the outer bracket, so no identity is assumed twice through
the same code path.
"""

import numpy as np
import pytest
from scipy.linalg import subspace_angles

from flagshift import ProductSpace, build_algebra
from flagshift.certify import generic_point
from flagshift.dynamics import gaudin_field, gaudin_hamiltonian, euler_field
from flagshift.errors import ConfigurationError
from flagshift.families import (
    PolynomialFamily,
    flag_shift_family,
    mf_shift_family,
    momentum_pullback,
    restrict_family,
)
from flagshift.poisson import bivector_on_span, invariant_tangent_span, tangent_span_orthocomplement
from flagshift.ranks import DEFAULT_POLICY, decide, nullspace, numerical_rank


def _bracket(space, f, g, X, weights=None):
    """{f, g}(X), the [0, 1] entry of the bivector on the two gradients."""
    return bivector_on_span(space, X, np.stack([f.gradient(X), g.gradient(X)]), weights)[0, 1]


def _fd_member(own_member, space, fn, label="fd"):
    """Member with a central-difference gradient, for outer brackets."""

    def gradient(X, h=1e-5):
        X = np.asarray(X, dtype=float)
        w = np.zeros_like(X)
        for i in range(space.n):
            for b in range(space.base.dim):
                u = np.zeros_like(X)
                u[i, b] = h
                w[i, b] = (fn(X + u) - fn(X - u)) / (2 * h)
        return w @ space.base.gram_inv.T

    return own_member(label, "g", fn, gradient)


def test_bracket_matches_flow_derivative(su2n3, own_member, pairing_member, coordinate_member):
    # d/dt f(X(t)) along the Hamiltonian field of h must equal {f, h}
    rng = np.random.default_rng(0)
    X = su2n3.random_point(rng)
    h_member = pairing_member(su2n3, 0, 1)
    ham = gaudin_hamiltonian(su2n3, (1.0, 2.0, 3.0))
    field = euler_field(su2n3, ham, X)

    spectral = own_member("h", "g", ham.value, ham.gradient)
    for f in [pairing_member(su2n3, 1, 2), coordinate_member(su2n3, 0, np.array([1.0, 0, 0]))]:
        partials = f.gradient(X) @ su2n3.base.gram  # euclidean partials
        time_derivative = float(np.einsum("ib,ib->", partials, field))
        assert _bracket(su2n3, f, spectral, X) == pytest.approx(time_derivative, abs=1e-10)
    # silence unused warning for the secondary member
    assert h_member.value(X) == pytest.approx(su2n3.base.pair(X[0], X[1]))


def test_bracket_antisymmetry_and_linearity(su2n3, pairing_member):
    rng = np.random.default_rng(1)
    X = su2n3.random_point(rng)
    f = pairing_member(su2n3, 0, 1)
    g = pairing_member(su2n3, 1, 2)
    assert _bracket(su2n3, f, g, X) == pytest.approx(-_bracket(su2n3, g, f, X), abs=1e-12)
    assert _bracket(su2n3, f, f, X) == pytest.approx(0.0, abs=1e-12)


def test_leibniz_rule(su2n3, pairing_member, coordinate_member, product_member):
    rng = np.random.default_rng(2)
    X = su2n3.random_point(rng)
    f = pairing_member(su2n3, 0, 1)
    g = pairing_member(su2n3, 1, 2)
    h = coordinate_member(su2n3, 2, np.array([0.0, 1.0, 0.0]))
    lhs = _bracket(su2n3, product_member(f, g), h, X)
    rhs = f.value(X) * _bracket(su2n3, g, h, X) + g.value(X) * _bracket(su2n3, f, h, X)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_jacobi_identity_via_outer_differences(su2n3, own_member, pairing_member):
    rng = np.random.default_rng(3)
    X = su2n3.random_point(rng)
    f = pairing_member(su2n3, 0, 1)
    g = pairing_member(su2n3, 1, 2)
    h = pairing_member(su2n3, 0, 2)

    def outer(a, b):
        return _fd_member(own_member, su2n3, lambda Y, a=a, b=b: _bracket(su2n3, a, b, Y))

    total = (
        _bracket(su2n3, f, outer(g, h), X)
        + _bracket(su2n3, g, outer(h, f), X)
        + _bracket(su2n3, h, outer(f, g), X)
    )
    scale = max(abs(_bracket(su2n3, f, g, X)), 1.0)
    assert abs(total) < 1e-6 * scale


def test_casimirs_are_central(su2n3, pairing_member, coordinate_member, casimirs):
    rng = np.random.default_rng(4)
    X = su2n3.random_point(rng)
    others = [
        pairing_member(su2n3, 0, 1),
        pairing_member(su2n3, 1, 2),
        coordinate_member(su2n3, 0, np.array([1.0, 0, 0])),
    ]
    for c in casimirs(su2n3):
        for f in others:
            assert abs(_bracket(su2n3, c, f, X)) < 1e-12


def test_noncommuting_control(su2n3, coordinate_member):
    # coordinates on one block along noncommuting directions must not commute
    rng = np.random.default_rng(5)
    X = su2n3.random_point(rng)
    f = coordinate_member(su2n3, 0, np.array([1.0, 0.0, 0.0]))
    g = coordinate_member(su2n3, 0, np.array([0.0, 1.0, 0.0]))
    value = _bracket(su2n3, f, g, X)
    assert abs(value) > 1e-3
    # oracle: {<x,e1>, <x,e2>} = -<x_0, [e1, e2]> = -<x_0, e3>
    assert value == pytest.approx(-su2n3.base.pair(X[0], np.array([0.0, 0.0, 1.0])), abs=1e-12)


def test_shift_family_commutes_through_the_momentum_map(su2, su2n3):
    # mu = x_1 + .. + x_n is a Poisson map, so the argument-shift family
    # pulled back by mu commutes for the product bracket
    shift = generic_point(su2, [42, 7], "k")
    fam = momentum_pullback(su2n3, mf_shift_family(su2, shift))
    rng = np.random.default_rng(6)
    X = su2n3.random_point(rng)
    worst = max(abs(_bracket(su2n3, f, g, X)) for f in fam for g in fam)
    assert worst < 1e-12


def test_restricted_flag_family_commutes_on_v(su2n3):
    fam = restrict_family(su2n3, flag_shift_family(su2n3))
    f, g = fam.members[0], fam.members[1]
    X = generic_point(su2n3, [42, 3], "v")
    assert abs(_bracket(su2n3, f, g, X)) < 1e-12


def test_restricted_control_does_not_vanish(su2n3, coordinate_member):
    # Quadratic pairing members will not do as a control here: on three
    # factors with zero block sum their gradients live in span{x_1, x_2}
    # blockwise, and the invariant triple product is alternating, so their
    # restricted bracket vanishes identically.  Linear coordinate members
    # escape that span.
    X = generic_point(su2n3, [42, 3], "v")
    u = np.array([1.0, 0.0, 0.0])
    w = np.array([0.0, 1.0, 0.0])
    controls = (coordinate_member(su2n3, 0, u), coordinate_member(su2n3, 0, w))
    f, g = restrict_family(su2n3, PolynomialFamily("controls", "g", controls))
    value = _bracket(su2n3, f, g, X)
    # projecting each gradient leaves (2u/3, -u/3, -u/3); contracting against
    # x with x_3 = -(x_1 + x_2) collapses to a single triple product
    expected = -su2n3.base.pair(X[0], su2n3.base.ads(u) @ w) / 3.0
    assert abs(value) > 1e-2
    assert value == pytest.approx(expected, abs=1e-12)


def test_bivector_matrix_matches_pairwise_brackets(su2n3, pairing_member, coordinate_member):
    rng = np.random.default_rng(9)
    X = su2n3.random_point(rng)
    members = [
        pairing_member(su2n3, 0, 1),
        pairing_member(su2n3, 1, 2),
        coordinate_member(su2n3, 0, np.array([1.0, 0, 0])),
        coordinate_member(su2n3, 0, np.array([0.0, 1.0, 0])),
    ]
    fam = PolynomialFamily("probe", "g", tuple(members))
    matrix = bivector_on_span(su2n3, X, fam.gradients(X))
    assert np.abs(matrix + matrix.T).max() < 1e-12
    for a, fa in enumerate(members):
        for b, fb in enumerate(members):
            assert matrix[a, b] == pytest.approx(_bracket(su2n3, fa, fb, X), abs=1e-12)


def test_invariant_tangent_span_satisfies_conditions(spaces):
    for space in spaces:
        X = generic_point(space, [42, 21], "v")
        span, marginal = invariant_tangent_span(space, X)
        assert not marginal
        assert span.shape[0] == (space.n - 2) * space.base.dim
        for eta in span:
            assert np.abs(eta.sum(axis=0)).max() < 1e-10
            moved = sum(space.base.ads(X[i]) @ eta[i] for i in range(space.n))
            assert np.abs(moved).max() < 1e-10


def test_tangent_span_via_orthocomplement_agrees(su2n3):
    X = generic_point(su2n3, [42, 21], "v")
    direct, m1 = invariant_tangent_span(su2n3, X)
    ortho, m2 = tangent_span_orthocomplement(su2n3, X)
    assert not m1 and not m2
    assert direct.shape[0] == ortho.shape[0]
    angles = subspace_angles(
        direct.reshape(direct.shape[0], -1).T, ortho.reshape(ortho.shape[0], -1).T
    )
    assert angles.max() < 1e-8


@pytest.mark.parametrize("m, n", [(2, 3), (3, 4), (5, 4)])
def test_tangent_span_rows_are_orthonormal(m, n):
    # _largest_principal_angle in certify takes both spans as orthonormal bases as they come
    space = ProductSpace(build_algebra("su", m), n)
    X = generic_point(space, [42, 21], "v")
    for build in (invariant_tangent_span, tangent_span_orthocomplement):
        span, marginal = build(space, X)
        rows = span.reshape(span.shape[0], -1)
        assert not marginal and rows.shape[0] == (n - 2) * space.base.dim
        assert np.abs(rows @ rows.T - np.eye(rows.shape[0])).max() < 1e-13


def test_restricted_bivector_kernel_is_the_projected_centralizer(spaces):
    # The kernel lemma1.dind counts, against an independent route: each
    # block's centralizer, projected to v.
    for space in spaces:
        X = generic_point(space, [42, 23], "v")
        span, marginal = invariant_tangent_span(space, X)
        assert not marginal
        # the matrix can vanish identically, so the cutoff is anchored to |X|
        _, sigmas, vh = np.linalg.svd(bivector_on_span(space, X, span))
        rank, marginal = decide(sigmas, DEFAULT_POLICY, scale=float(np.linalg.norm(X)))
        assert not marginal
        coeffs = vh[rank:].T
        kernel = np.tensordot(coeffs.T, span, axes=1)
        central = []
        for i, ad in enumerate(space.base.ads(X)):
            cols, marginal = nullspace(ad)
            assert not marginal
            for col in cols.T:
                direction = np.zeros((space.n, space.base.dim))
                direction[i] = col
                central.append(space.proj_v(direction))
        kernel = kernel.reshape(kernel.shape[0], -1).T
        central = np.stack(central).reshape(len(central), -1).T
        expect = space.n * space.base.rank
        assert kernel.shape[1] == expect
        assert numerical_rank(central).rank == expect
        assert subspace_angles(kernel, central).max() < 1e-6


def test_pencil_bracket_reduces_to_product_bracket(su2n3, pairing_member):
    # unit pencil weights give the product bracket -sum_i <x_i, [df_i, dg_i]>
    rng = np.random.default_rng(8)
    X = su2n3.random_point(rng)
    f = pairing_member(su2n3, 0, 1)
    g = pairing_member(su2n3, 1, 2)
    df, dg = f.gradient(X), g.gradient(X)
    base = su2n3.base
    product = -sum(base.pair(X[i], base.ads(df[i]) @ dg[i]) for i in range(su2n3.n))
    assert _bracket(su2n3, f, g, X, np.ones(3)) == pytest.approx(product, abs=1e-12)
    assert _bracket(su2n3, f, g, X) == pytest.approx(product, abs=1e-12)
    with pytest.raises(ConfigurationError, match="block weights"):
        _bracket(su2n3, f, g, X, np.ones(4))


def test_bivector_on_span_accepts_weights(su2n3):
    X = generic_point(su2n3, [42, 25], "g")
    gens = flag_shift_family(su2n3).gradients(X)
    # -sum_i w_i <x_i, [a_i, b_i]> is the unweighted bivector at the point
    # with block i scaled by w_i; a zero weight is a valid pencil member
    for weights in (np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.0, 2.0])):
        weighted = bivector_on_span(su2n3, X, gens, weights)
        scaled = bivector_on_span(su2n3, weights[:, None] * X, gens)
        assert np.abs(weighted - scaled).max() <= 1e-12 * np.abs(scaled).max()
    # one weight per block: a short or long list is refused, not broadcast
    for weights in ([2.0], np.ones(4), np.ones((3, 1))):
        with pytest.raises(ConfigurationError, match="block weights"):
            bivector_on_span(su2n3, X, gens, weights)


def _bivector_oracle(algebra, X, gens, weights):
    """The dim^3 structure-constant contraction, kept literally as the reference."""
    tensor = np.einsum("pqk,ik->ipq", algebra.structure, X @ algebra.gram)
    if weights is not None:
        tensor = tensor * weights[:, None, None]
    return -np.einsum("ipq,aip,biq->ab", tensor, gens, gens)


@pytest.mark.parametrize("m, n", [(2, 3), (3, 4), (4, 3), (5, 3), (6, 3)])
def test_bracket_kernel_matches_structure_constant_oracles(m, n):
    space = ProductSpace(build_algebra("su", m), n)
    rng = np.random.default_rng(10 * m + n)
    X = space.random_point(rng)
    gens = rng.normal(size=(7, n, space.base.dim))
    for weights in (None, rng.uniform(0.5, 2.0, n)):
        expected = _bivector_oracle(space.base, X, gens, weights)
        got = bivector_on_span(space, X, gens, weights)
        assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()

    a = rng.uniform(0.5, 2.0, n)
    ham = gaudin_hamiltonian(space, a)
    expected = np.einsum("bp,pqk,bq->bk", X, space.base.structure, ham.gradient(X))
    assert np.abs(euler_field(space, ham, X) - expected).max() <= 1e-13 * np.abs(expected).max()
    pairs = np.einsum("ip,pqk,jq->ijk", X, space.base.structure, X)
    expected = np.einsum("ij,ijk->ik", np.outer(1.0 / a, 1.0 / a), pairs)
    assert np.abs(gaudin_field(space, a, X) - expected).max() <= 1e-13 * np.abs(expected).max()
