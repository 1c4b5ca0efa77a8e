"""Poisson structure: bracket axioms, flow consistency, tangent spans.

The bracket is cross-checked against the time derivative of observables
along the Hamiltonian vector field, and Jacobi is verified with central
differences on the outer bracket, so no identity is assumed twice through
the same code path.
"""

import numpy as np
import pytest

from flagshift import ProductSpace, build_algebra
from flagshift.certify import generic_point
from flagshift.dynamics import gaudin_field, gaudin_hamiltonian, euler_field
from flagshift.errors import ConfigurationError, GenericityError
from flagshift.families import (
    FamilyMember,
    casimir_family,
    coordinate_member,
    flag_shift_family,
    mf_shift_family,
    pairing_member,
    product_member,
    restrict_family,
    restrict_member,
)
from flagshift.poisson import (
    bivector_on_span,
    factor_bracket,
    invariant_tangent_span,
    kernel_of_restricted_bivector,
    lp_bracket,
    pencil_bracket,
    tangent_span_orthocomplement,
    v_bracket,
)
from flagshift.ranks import RankPolicy


def _fd_member(space, fn, label="fd"):
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

    return FamilyMember(label, "g", fn, gradient)


def test_bracket_matches_flow_derivative(su2n3):
    # d/dt f(X(t)) along the Hamiltonian field of h must equal {f, h}
    rng = np.random.default_rng(0)
    X = su2n3.random_point(rng)
    h_member = pairing_member(su2n3, 0, 1)
    ham = gaudin_hamiltonian(su2n3, (1.0, 2.0, 3.0))
    field = euler_field(su2n3, ham, X)

    spectral = FamilyMember("h", "g", ham.value, ham.gradient)
    for f in [pairing_member(su2n3, 1, 2), coordinate_member(su2n3, 0, np.array([1.0, 0, 0]))]:
        partials = f.gradient(X) @ su2n3.base.gram  # euclidean partials
        time_derivative = float(np.einsum("ib,ib->", partials, field))
        assert lp_bracket(su2n3, f, spectral, X) == pytest.approx(time_derivative, abs=1e-10)
    # silence unused warning for the secondary member
    assert h_member.value(X) == pytest.approx(su2n3.base.pair(X[0], X[1]))


def test_bracket_antisymmetry_and_linearity(su2n3):
    rng = np.random.default_rng(1)
    X = su2n3.random_point(rng)
    f = pairing_member(su2n3, 0, 1)
    g = pairing_member(su2n3, 1, 2)
    assert lp_bracket(su2n3, f, g, X) == pytest.approx(-lp_bracket(su2n3, g, f, X), abs=1e-12)
    assert lp_bracket(su2n3, f, f, X) == pytest.approx(0.0, abs=1e-12)


def test_leibniz_rule(su2n3):
    rng = np.random.default_rng(2)
    X = su2n3.random_point(rng)
    f = pairing_member(su2n3, 0, 1)
    g = pairing_member(su2n3, 1, 2)
    h = coordinate_member(su2n3, 2, np.array([0.0, 1.0, 0.0]))
    lhs = lp_bracket(su2n3, product_member(f, g), h, X)
    rhs = f.value(X) * lp_bracket(su2n3, g, h, X) + g.value(X) * lp_bracket(su2n3, f, h, X)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_jacobi_identity_via_outer_differences(su2n3):
    rng = np.random.default_rng(3)
    X = su2n3.random_point(rng)
    f = pairing_member(su2n3, 0, 1)
    g = pairing_member(su2n3, 1, 2)
    h = pairing_member(su2n3, 0, 2)

    def outer(a, b):
        return _fd_member(su2n3, lambda Y, a=a, b=b: lp_bracket(su2n3, a, b, Y))

    total = (
        lp_bracket(su2n3, f, outer(g, h), X)
        + lp_bracket(su2n3, g, outer(h, f), X)
        + lp_bracket(su2n3, h, outer(f, g), X)
    )
    scale = max(abs(lp_bracket(su2n3, f, g, X)), 1.0)
    assert abs(total) < 1e-6 * scale


def test_casimirs_are_central(su2n3):
    rng = np.random.default_rng(4)
    X = su2n3.random_point(rng)
    others = [
        pairing_member(su2n3, 0, 1),
        pairing_member(su2n3, 1, 2),
        coordinate_member(su2n3, 0, np.array([1.0, 0, 0])),
    ]
    for c in casimir_family(su2n3):
        for f in others:
            assert abs(lp_bracket(su2n3, c, f, X)) < 1e-12


def test_noncommuting_control(su2n3):
    # coordinates on one block along noncommuting directions must not commute
    rng = np.random.default_rng(5)
    X = su2n3.random_point(rng)
    f = coordinate_member(su2n3, 0, np.array([1.0, 0.0, 0.0]))
    g = coordinate_member(su2n3, 0, np.array([0.0, 1.0, 0.0]))
    value = lp_bracket(su2n3, f, g, X)
    assert abs(value) > 1e-3
    # oracle: {<x,e1>, <x,e2>} = -<x_0, [e1, e2]> = -<x_0, e3>
    assert value == pytest.approx(-su2n3.base.pair(X[0], np.array([0.0, 0.0, 1.0])), abs=1e-12)


def test_factor_bracket_shift_family_commutes(su2):
    shift = generic_point(su2, [42, 7], "k")
    fam = mf_shift_family(su2, shift)
    rng = np.random.default_rng(6)
    x = su2.random_element(rng)
    worst = max(
        abs(factor_bracket(su2, f, g, x)) for f in fam for g in fam
    )
    assert worst < 1e-12


def test_v_bracket_requires_slice_points(su2n3):
    fam = restrict_family(su2n3, flag_shift_family(su2n3))
    f, g = fam.members[0], fam.members[1]
    X = generic_point(su2n3, [42, 3], "v")
    assert abs(v_bracket(su2n3, f, g, X)) < 1e-12
    rng = np.random.default_rng(7)
    off_slice = su2n3.random_point(rng)
    with pytest.raises(ValueError):
        v_bracket(su2n3, f, g, off_slice)


def test_v_bracket_control_does_not_vanish(su2n3):
    # Quadratic pairing members will not do as a control here: on three
    # factors with zero block sum their gradients live in span{x_1, x_2}
    # blockwise, and the invariant triple product is alternating, so their
    # restricted bracket vanishes identically.  Linear coordinate members
    # escape that span.
    X = generic_point(su2n3, [42, 3], "v")
    u = np.array([1.0, 0.0, 0.0])
    w = np.array([0.0, 1.0, 0.0])
    f = restrict_member(su2n3, coordinate_member(su2n3, 0, u))
    g = restrict_member(su2n3, coordinate_member(su2n3, 0, w))
    value = v_bracket(su2n3, f, g, X)
    # projecting each gradient leaves (2u/3, -u/3, -u/3); contracting against
    # x with x_3 = -(x_1 + x_2) collapses to a single triple product
    expected = -su2n3.base.pair(X[0], su2n3.base.bracket(u, w)) / 3.0
    assert abs(value) > 1e-2
    assert value == pytest.approx(expected, abs=1e-12)


def test_pencil_bracket_reduces_to_product_bracket(su2n3):
    rng = np.random.default_rng(8)
    X = su2n3.random_point(rng)
    f = pairing_member(su2n3, 0, 1)
    g = pairing_member(su2n3, 1, 2)
    ones = np.ones(3)
    assert pencil_bracket(su2n3, ones, f, g, X) == pytest.approx(
        lp_bracket(su2n3, f, g, X), abs=1e-12
    )
    with pytest.raises(ConfigurationError):
        pencil_bracket(su2n3, np.array([1.0, 0.0, 2.0]), f, g, X)
    with pytest.raises(ConfigurationError):
        pencil_bracket(su2n3, np.ones(4), f, g, X)


def test_bivector_matrix_matches_pairwise_brackets(su2n3):
    rng = np.random.default_rng(9)
    X = su2n3.random_point(rng)
    members = [
        pairing_member(su2n3, 0, 1),
        pairing_member(su2n3, 1, 2),
        coordinate_member(su2n3, 0, np.array([1.0, 0, 0])),
        coordinate_member(su2n3, 0, np.array([0.0, 1.0, 0])),
    ]
    from flagshift.families import PolynomialFamily

    fam = PolynomialFamily("probe", "g", tuple(members))
    matrix = bivector_on_span(su2n3, X, fam.gradients(X))
    assert np.abs(matrix + matrix.T).max() < 1e-12
    for a, fa in enumerate(members):
        for b, fb in enumerate(members):
            assert matrix[a, b] == pytest.approx(lp_bracket(su2n3, fa, fb, X), abs=1e-12)


def test_invariant_tangent_span_satisfies_conditions(spaces):
    for space in spaces:
        X = generic_point(space, [42, 21], "v")
        span, marginal = invariant_tangent_span(space, X)
        assert not marginal
        assert span.shape[0] == (space.n - 2) * space.base.dim
        for eta in span:
            assert np.abs(eta.sum(axis=0)).max() < 1e-10
            moved = sum(space.base.bracket(X[i], eta[i]) for i in range(space.n))
            assert np.abs(moved).max() < 1e-10


def test_tangent_span_via_orthocomplement_agrees(su2n3):
    from scipy.linalg import subspace_angles

    X = generic_point(su2n3, [42, 21], "v")
    direct, m1 = invariant_tangent_span(su2n3, X)
    ortho, m2 = tangent_span_orthocomplement(su2n3, X)
    assert not m1 and not m2
    assert direct.shape[0] == ortho.shape[0]
    angles = subspace_angles(
        direct.reshape(direct.shape[0], -1).T, ortho.reshape(ortho.shape[0], -1).T
    )
    assert angles.max() < 1e-8


def test_kernel_of_restricted_bivector(spaces):
    for space in spaces:
        X = generic_point(space, [42, 23], "v")
        comparison = kernel_of_restricted_bivector(space, X)
        expect = space.n * space.base.rank
        assert comparison.dim == expect
        assert comparison.centralizer_dim == expect
        assert comparison.max_angle < 1e-6


def test_kernel_comparison_refuses_marginal_spectra(su2n3):
    X = generic_point(su2n3, [42, 23], "v")
    paranoid = RankPolicy(rel_tol=1e-8, margin=1e12)
    with pytest.raises(GenericityError):
        kernel_of_restricted_bivector(su2n3, X, paranoid)


def test_bivector_on_span_accepts_weights(su2n3):
    X = generic_point(su2n3, [42, 25], "g")
    fam = flag_shift_family(su2n3)
    gens = fam.gradients(X)
    weights = np.array([1.0, 2.0, 3.0])
    weighted = bivector_on_span(su2n3, X, gens, weights)
    f, g = fam.members[0], fam.members[3]
    assert weighted[0, 3] == pytest.approx(pencil_bracket(su2n3, weights, f, g, X), abs=1e-12)


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
