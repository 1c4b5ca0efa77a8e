"""Polynomial families: construction, coefficient extraction, gradients.

The flag and shift members store t-coefficients, so the main oracle is
re-summation: the coefficients must reassemble the shifted invariant at
arbitrary parameter values.  Restriction identities on the zero-momentum
slice use the binomial closed form.  The series kernel behind every
built-in family is checked member by member against references that do not
call it: Vandermonde node sums of ``invariant_value`` /
``invariant_gradient`` for the t-coefficients, and a trapezoid-rule Cauchy
integral around each pole for the Gaudin principal parts.
"""

import warnings
from dataclasses import replace
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flagshift import LieAlgebra, ProductSpace, build_algebra
from flagshift.certify import ClaimContext, check_involutive, generic_point
from flagshift.errors import ConfigurationError, GenericityError
from flagshift.families import (
    PolynomialFamily,
    flag_momentum_family,
    flag_shift_family,
    gaudin_family,
    mf_shift_family,
    momentum_coordinates,
    momentum_pullback,
    restrict_family,
)
from flagshift.ranks import RankPolicy


def member_grad_check(context, member, X) -> float:
    """Oracle: max relative deviation of the analytic gradient from central differences.

    Perturbations stay inside the member's domain: single-factor and product
    members are probed along coordinate directions, restricted members along
    an orthonormal basis of the zero-block-sum subspace.
    """
    X = np.asarray(X, dtype=float)
    step = 1e-5
    algebra = context if isinstance(context, LieAlgebra) else context.base
    if member.domain == "v":
        units = np.eye(algebra.dim)
        directions = [np.outer(nu, unit) for nu in context.module_directions() for unit in units]
    else:
        directions = np.eye(X.size).reshape(X.size, *X.shape)
    euclid = sum(
        d * (member.value(X + step * d) - member.value(X - step * d)) / (2.0 * step) for d in directions
    )
    fd = euclid @ algebra.gram_inv.T
    if member.domain == "v":
        fd = context.proj_v(fd)

    analytic = member.gradient(X)
    scale = max(float(np.linalg.norm(analytic)), float(np.linalg.norm(fd)))
    # Central differences bottom out at eps/step times the value magnitude;
    # below that floor both gradients count as zero.
    noise = 10.0 * np.finfo(float).eps / step * (1.0 + abs(member.value(X)))
    if scale < max(1e-12, noise):
        return 0.0
    return float(np.linalg.norm(analytic - fd)) / scale


def test_member_counts(su2n3, su2n4, su3n3):
    # per prefix: one coefficient per t-power of each invariant, plus casimirs
    assert len(flag_shift_family(su2n3)) == 2 * 3 + 3
    assert len(flag_shift_family(su2n4)) == 3 * 3 + 4
    assert len(flag_shift_family(su3n3)) == 2 * (3 + 4) + 6


def test_labels_are_unique(su3n3):
    fam = flag_shift_family(su3n3)
    assert len(set(fam.labels)) == len(fam)


def test_casimir_values_are_blockwise(su2n3, su2, casimirs):
    rng = np.random.default_rng(0)
    X = su2n3.random_point(rng)
    fam = casimirs(su2n3)
    for member, block in zip(fam, range(3)):
        assert member.label == f"casimir[block={block},inv=1]"
        assert member.value(X) == pytest.approx(su2.invariant_value(1, X[block]))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6), st.floats(-2.5, 2.5))
def test_flag_coefficients_resum_to_shifted_invariant(seed, t):
    space = ProductSpace(build_algebra("su", 3), 3)
    k = space.base
    rng = np.random.default_rng(seed)
    X = space.random_point(rng)
    fam = flag_shift_family(space)
    for prefix in (1, 2):
        for alpha in (1, 2):
            deg = k.invariant_degree(alpha)
            coeffs = [
                member.value(X)
                for member in fam
                if member.label.startswith(f"flag[i={prefix},inv={alpha},")
            ]
            assert len(coeffs) == deg + 1
            resummed = sum(c * t**kk for kk, c in enumerate(coeffs))
            direct = k.invariant_value(alpha, X[:prefix].sum(axis=0) + t * X[prefix])
            assert resummed == pytest.approx(direct, abs=1e-11 * (1 + abs(direct)))


def test_shift_coefficients_resum_on_single_factor(su2):
    shift = generic_point(su2, [42, 7], "k")
    fam = mf_shift_family(su2, shift)
    rng = np.random.default_rng(1)
    x = su2.random_element(rng)
    for t in (-1.3, 0.0, 0.8, 2.7):
        resummed = sum(m.value(x) * t**kk for kk, m in enumerate(fam))
        assert resummed == pytest.approx(su2.invariant_value(1, x + t * shift), abs=1e-12)


def test_restriction_identity_on_zero_momentum_slice(spaces):
    # last prefix on the slice: f(sum_{<n} x + t x_n) = (t-1)^deg f(x_n),
    # so coefficient k equals binom(deg,k) (-1)^(deg-k) f(x_n)
    for space in spaces:
        k, n = space.base, space.n
        X = generic_point(space, [42, 5], "v")
        for member in flag_shift_family(space):
            if not member.label.startswith(f"flag[i={n - 1},"):
                continue
            alpha = int(member.label.split("inv=")[1].split(",")[0])
            kk = int(member.label.split("k=")[1].rstrip("]"))
            deg = k.invariant_degree(alpha)
            expect = comb(deg, kk) * (-1) ** (deg - kk) * k.invariant_value(alpha, X[n - 1])
            assert member.value(X) == pytest.approx(expect, abs=1e-11 * (1 + abs(expect)))


def test_single_factor_shift_family_rank(su2):
    # functional dimension (dim + rank)/2 = 2 for su(2)
    shift = generic_point(su2, [42, 7], "k")
    fam = mf_shift_family(su2, shift)
    rng = np.random.default_rng(2)
    grads = np.stack([m.gradient(su2.random_element(rng)) for m in fam])
    assert np.linalg.matrix_rank(grads, tol=1e-10) == 2


def test_degenerate_shift_direction_warns(su3):
    degenerate = np.zeros(8)
    degenerate[-1] = 1.0  # repeated-eigenvalue direction, centralizer too big
    with pytest.warns(UserWarning, match="not regular"):
        mf_shift_family(su3, degenerate)


def test_gradient_checks_across_families(su2n3, su3n3, su2, casimirs):
    shift = generic_point(su2, [42, 7], "k")
    cases = [
        (su2n3, flag_shift_family(su2n3)),
        (su3n3, flag_shift_family(su3n3)),
        (su3n3, casimirs(su3n3)),
        (su2n3, momentum_pullback(su2n3, mf_shift_family(su2, shift))),
        (su2n3, gaudin_family(su2n3, (1.0, 2.0, 3.0))),
        (su2n3, restrict_family(su2n3, flag_shift_family(su2n3))),
        (su2n3, momentum_coordinates(su2n3)),
        (su2, mf_shift_family(su2, shift)),
    ]
    for context, fam in cases:
        X = generic_point(context, [42, 13], fam.domain)
        worst = max(member_grad_check(context, member, X) for member in fam)
        assert worst < 1e-7, f"{fam.name}: gradient deviation {worst:.2e}"


def test_gaudin_grid_validation(su2n3):
    with pytest.raises(ConfigurationError):
        gaudin_family(su2n3, (1.0, 2.0))  # wrong count
    with pytest.raises(ConfigurationError):
        gaudin_family(su2n3, (0.0, 2.0, 3.0))  # zero weight


def test_gaudin_member_counts(su2n3, su3n3):
    # one pole per distinct weight, coefficients k = 0 .. d-1 for d = 2 .. m
    assert len(gaudin_family(su2n3, (1.0, 2.0, 3.0))) == 6
    assert len(gaudin_family(su3n3, (1.0, 2.0, 3.0))) == 15
    assert len(gaudin_family(ProductSpace(build_algebra("su", 4), 3), (1.0, 2.0, 3.0))) == 27
    assert len(gaudin_family(su2n3, (1.0, 1.0, 2.0))) == 4


def test_gaudin_pole_identities(su2n3, su3n3):
    # tr L(z)^2 decays like z^-2, so its residues sum to zero and the
    # residues of z tr L(z)^2 sum to tr (sum_i r_i x_i)^2.  The k = 1
    # member at a pole is the residue times the distance to the nearest
    # other pole: 1/2, 1/6 and 1/6 for the poles -1, -1/2, -1/3.
    weights, rho = (1.0, 2.0, 3.0), (1 / 2, 1 / 6, 1 / 6)
    for space in (su2n3, su3n3):
        X = space.random_point(np.random.default_rng(3))
        family = gaudin_family(space, weights)
        values = dict(zip(family.labels, family.values(X)))
        residues = [values[f"gaudin[a={a:g},inv=1,k=1]"] / r for a, r in zip(weights, rho)]
        leading = [values[f"gaudin[a={a:g},inv=1,k=0]"] for a in weights]
        scale = sum(abs(v) for v in residues + leading)
        assert abs(sum(residues)) <= 1e-13 * scale
        total = sum(c0 - c1 / a for a, c0, c1 in zip(weights, leading, residues))
        expect = space.base.invariant_value(1, sum(x / a for a, x in zip(weights, X)))
        assert total == pytest.approx(expect, abs=1e-13 * scale)


def test_gaudin_family_with_repeated_weights_commutes(su2n3):
    # equal weights share one pole: nothing divides by z_i - z_j = 0
    family = gaudin_family(su2n3, (1.0, 1.0, 2.0))
    assert family.labels[:2] == ("gaudin[a=1,inv=1,k=0]", "gaudin[a=1,inv=1,k=1]")
    ctx = ClaimContext(su2n3, seed=42, trials=3)
    assert check_involutive(ctx, family).passed
    assert check_involutive(ctx, family, weights=np.array([1.0, 1.0, 2.0])).passed


def test_momentum_coordinates(su2n3, su2):
    rng = np.random.default_rng(4)
    X = su2n3.random_point(rng)
    fam = momentum_coordinates(su2n3)
    mu = su2n3.momentum(X)
    for a, member in enumerate(fam):
        assert member.value(X) == pytest.approx(float((su2.gram @ mu)[a]), abs=1e-12)
        grad = member.gradient(X)
        unit = np.zeros(3)
        unit[a] = 1.0
        assert np.allclose(grad, np.tile(unit, (3, 1)), atol=1e-14)


def test_momentum_pullback_values(su2n3, su2):
    shift = generic_point(su2, [42, 7], "k")
    pulled = momentum_pullback(su2n3, mf_shift_family(su2, shift))
    rng = np.random.default_rng(5)
    X = su2n3.random_point(rng)
    mu = su2n3.momentum(X)
    for member, original in zip(pulled, mf_shift_family(su2, shift)):
        assert member.domain == "g"
        assert member.value(X) == pytest.approx(original.value(mu), abs=1e-12)


def test_flag_momentum_family_size(su2n3):
    shift = generic_point(su2n3.base, [42, 7], "k")
    fam = flag_momentum_family(su2n3, shift, flag_shift_family(su2n3))
    assert len(fam) == 9 + 3 + 3
    assert len(set(fam.labels)) == len(fam)


def test_restrict_family_gradients_live_in_v(su2n3):
    fam = restrict_family(su2n3, flag_shift_family(su2n3))
    assert fam.domain == "v"
    X = generic_point(su2n3, [42, 11], "v")
    for member in fam:
        grad = member.gradient(X)
        assert np.abs(su2n3.momentum(grad)).max() < 1e-12
    # values agree with the unrestricted members on the slice
    for restricted, full in zip(fam, flag_shift_family(su2n3)):
        assert restricted.value(X) == pytest.approx(full.value(X))
        assert restricted.label == full.label + "|v"


def test_restrict_member_rejects_wrong_domain(su2n3, su2):
    shifted = mf_shift_family(su2, generic_point(su2, [42, 7], "k")).members[0]
    with pytest.raises(ConfigurationError):
        restrict_family(su2n3, PolynomialFamily("shifted", "k", (shifted,)))


def test_pairing_and_coordinate_members(su2n3, su2, pairing_member, coordinate_member):
    rng = np.random.default_rng(6)
    X = su2n3.random_point(rng)
    pairing = pairing_member(su2n3, 0, 2)
    assert pairing.value(X) == pytest.approx(su2.pair(X[0], X[2]), abs=1e-12)
    assert member_grad_check(su2n3, pairing, X) < 1e-8

    unit = np.zeros(3)
    unit[1] = 1.0
    coord = coordinate_member(su2n3, 1, unit)
    assert coord.value(X) == pytest.approx(su2.pair(X[1], unit), abs=1e-12)
    assert member_grad_check(su2n3, coord, X) < 1e-8


def test_product_member_value_and_gradient(su2n3, pairing_member, product_member):
    rng = np.random.default_rng(7)
    X = su2n3.random_point(rng)
    f = pairing_member(su2n3, 0, 1)
    g = pairing_member(su2n3, 1, 2)
    prod = product_member(f, g)
    assert prod.value(X) == pytest.approx(f.value(X) * g.value(X))
    assert member_grad_check(su2n3, prod, X) < 1e-7


def test_family_validation():
    with pytest.raises(ConfigurationError):
        PolynomialFamily("empty", "g", ())


def test_merge_rejects_mixed_domains(su2n3):
    full = flag_shift_family(su2n3)
    restricted = restrict_family(su2n3, full)
    with pytest.raises(ConfigurationError):
        PolynomialFamily.merge("mixed", full, restricted)


def test_generic_shift_is_deterministic_and_gated(su2):
    a = generic_point(su2, [1, 2], "k")
    b = generic_point(su2, [1, 2], "k")
    assert np.array_equal(a, b)
    impossible = RankPolicy(rel_tol=1e-8, margin=1e12, max_retries=2)
    with pytest.raises(GenericityError):
        generic_point(su2, [1, 2], "k", policy=impossible)


# -- the batched evaluator against node sums of the single-point invariants ---


def _row(label, terms, sizes=()):
    """Reference member from (value, gradient) terms; the scales are the terms' sizes.

    ``sizes`` bound the monomials behind the values: an invariant that
    cancels to nearly zero is still summed from terms of that size.
    """
    values, grads = zip(*terms)
    return (label, sum(values), sum(grads), sum(abs(v) for v in values) + sum(sizes),
            sum(float(np.linalg.norm(g)) for g in grads))


def _node_weights(deg):
    # Row k holds the weights of the t^k coefficient on the nodes t = 0 .. deg.
    nodes = np.arange(deg + 1, dtype=float)
    return np.linalg.inv(nodes[:, None] ** np.arange(deg + 1))


def _coefficient_rows(k, label, point, lift):
    # t-coefficients of f_alpha(point(t)) from the nodes t = 0 .. deg
    rows = []
    for alpha in range(1, k.rank + 1):
        deg = k.invariant_degree(alpha)
        nodes = [
            (k.invariant_value(alpha, point(t)), lift(t, k.invariant_gradient(alpha, point(t))))
            for t in range(deg + 1)
        ]
        sizes = [np.linalg.norm(point(t)) ** deg for t in range(deg + 1)]
        for kk, weights in enumerate(_node_weights(deg)):
            terms = [(w * value, w * grad) for w, (value, grad) in zip(weights, nodes)]
            rows.append(_row(f"{label}inv={alpha},k={kk}]", terms, np.abs(weights) * sizes))
    return rows


def _in_block(X, block, g):
    out = np.zeros_like(X)
    out[block] = g
    return out


def _casimir_rows(space, X):
    k = space.base
    return [
        _row(f"casimir[block={b},inv={alpha}]",
             [(k.invariant_value(alpha, X[b]), _in_block(X, b, k.invariant_gradient(alpha, X[b])))],
             [np.linalg.norm(X[b]) ** (alpha + 1)])
        for b in range(space.n)
        for alpha in range(1, k.rank + 1)
    ]


def _flag_rows(space, X):
    rows = []
    for i in range(1, space.n):
        rows += _coefficient_rows(
            space.base, f"flag[i={i},",
            lambda t, i=i: X[:i].sum(axis=0) + t * X[i],
            lambda t, g, i=i: _in_block(X, slice(0, i), g) + _in_block(X, i, t * g),
        )
    return rows + _casimir_rows(space, X)


def _pullback_rows(space, a, X):
    mu = X.sum(axis=0)
    rows = _coefficient_rows(space.base, "shift[", lambda t: mu + t * a, lambda t, g: np.tile(g, (space.n, 1)))
    return [("mu*" + label, *rest) for label, *rest in rows]


def _momentum_rows(space, X):
    gram = space.base.gram
    return [
        _row(f"momentum[coord={a}]", [((x @ gram)[a], _in_block(X, i, unit)) for i, x in enumerate(X)])
        for a, unit in enumerate(np.eye(space.base.dim))
    ]


def _gaudin_rows(space, weights, X, samples=64):
    # rho_i^k times the coefficient of w^(k-d) in tr L(z_i + w)^d,
    # L(z) = sum_b x_b / (1 + a_b z), rho_i the distance to the nearest other
    # pole, by the trapezoid rule on a circle of radius rho_i / 2 around each
    # pole z_i, with complex matrices; the gradient is d tr(L^(d-1) dL) under
    # the same integral.
    k, a = space.base, np.asarray(weights, dtype=float)
    mats = np.array([k.to_matrix(x) for x in X])
    poles = list(dict.fromkeys(weights))
    rows = []
    for weight in poles:
        zi = -1.0 / weight
        rho = min((abs(zi + 1.0 / b) for b in poles if b != weight), default=1.0)
        ws = 0.5 * rho * np.exp(2j * np.pi * np.arange(samples) / samples)
        coef = [1.0 / (1.0 + a * (zi + w)) for w in ws]  # dL/dx_b at each sample
        lax = [np.tensordot(c, mats, axes=1) for c in coef]
        for alpha in range(1, k.rank + 1):
            d = k.invariant_degree(alpha)
            part = (lambda z: z.real) if d % 2 == 0 else (lambda z: z.imag)
            for kk in range(d):
                terms, sizes = [], []
                for w, c, lx in zip(ws, coef, lax):
                    scale = rho**kk * w ** (d - kk) / samples
                    value = part(np.trace(np.linalg.matrix_power(lx, d)) * scale)
                    traces = np.einsum("ij,aji->a", np.linalg.matrix_power(lx, d - 1), k.basis)
                    grad = part(d * scale * np.outer(c, traces)) @ k.gram_inv.T
                    terms.append((value, grad))
                    sizes.append(abs(scale) * np.linalg.norm(lx) ** d)
                rows.append(_row(f"gaudin[a={weight:g},inv={alpha},k={kk}]", terms, sizes))
    return rows


def _adhoc_rows(space, u, X):
    k = space.base
    p01, p12, p02 = k.pair(X[0], X[1]), k.pair(X[1], X[2]), k.pair(X[0], X[2])
    g01 = _in_block(X, 0, X[1]) + _in_block(X, 1, X[0])
    g12 = _in_block(X, 1, X[2]) + _in_block(X, 2, X[1])
    return [
        _row("pairing[0,2]", [(p02, _in_block(X, 0, X[2]) + _in_block(X, 2, X[0]))]),
        _row("coord[block=1]", [(k.pair(X[1], u), _in_block(X, 1, u))]),
        _row("(pairing[0,1])*(pairing[1,2])", [(p01 * p12, p01 * g12 + p12 * g01)]),
    ]


def _assert_matches(family, rows, X):
    labels, values, grads, value_scales, grad_scales = zip(*rows)
    assert family.labels == labels
    value_err = np.abs(family.values(X) - np.array(values))
    grad_err = np.linalg.norm((family.gradients(X) - np.array(grads)).reshape(len(rows), -1), axis=1)
    assert np.all(value_err <= 1e-12 * np.array(value_scales)), f"{family.name}: {value_err.max():.2e}"
    assert np.all(grad_err <= 1e-12 * np.array(grad_scales)), f"{family.name}: {grad_err.max():.2e}"


@pytest.mark.parametrize("m,n", [(2, 3), (3, 3), (3, 4), (4, 3)])
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_batched_families_match_node_sums(
    m, n, seed, pairing_member, coordinate_member, product_member, casimirs
):
    space = ProductSpace(build_algebra("su", m), n)
    k = space.base
    rng = np.random.default_rng(seed)
    X, a, x = space.random_point(rng), k.random_element(rng), k.random_element(rng)
    V = space.proj_v(X)
    weights = (1.0, 2.0, 3.0) + tuple(range(4, n + 1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a random shift is regular almost surely
        shift_family = mf_shift_family(k, a)

    _assert_matches(flag_shift_family(space), _flag_rows(space, X), X)
    _assert_matches(casimirs(space), _casimir_rows(space, X), X)
    _assert_matches(shift_family, _coefficient_rows(k, "shift[", lambda t: x + t * a, lambda t, g: g), x)
    for gaudin_weights in (weights, (0.5,) + weights[1:-1] + (0.5,)):
        _assert_matches(gaudin_family(space, gaudin_weights), _gaudin_rows(space, gaudin_weights, X), X)
    _assert_matches(momentum_pullback(space, shift_family), _pullback_rows(space, a, X), X)
    flag_momentum = _flag_rows(space, X) + _momentum_rows(space, X) + _pullback_rows(space, a, X)
    _assert_matches(flag_momentum_family(space, a, flag_shift_family(space)), flag_momentum, X)
    restricted = [(label + "|v", v, space.proj_v(g), sv, sg) for label, v, g, sv, sg in _flag_rows(space, V)]
    _assert_matches(restrict_family(space, flag_shift_family(space)), restricted, V)

    u = k.random_element(rng)
    adhoc = PolynomialFamily("adhoc", "g", (
        pairing_member(space, 0, 2),
        coordinate_member(space, 1, u),
        product_member(pairing_member(space, 0, 1), pairing_member(space, 1, 2)),
    ))
    merged = PolynomialFamily.merge("merged", flag_shift_family(space), adhoc)
    _assert_matches(merged, _flag_rows(space, X) + _adhoc_rows(space, u, X), X)


def test_member_views_read_the_family_kernel(su3n3):
    fam = restrict_family(su3n3, flag_shift_family(su3n3))
    X = generic_point(su3n3, [42, 3], "v")
    values, grads = fam.values(X), fam.gradients(X)
    assert len({id(m.kernel) for m in fam}) == 1
    for row, member in enumerate(fam):
        assert member.value(X) == values[row]
        assert np.array_equal(member.gradient(X), grads[row])
    # members compare by kernel: equal labels from another build are other members
    again = restrict_family(su3n3, flag_shift_family(su3n3))
    assert again.labels == fam.labels and not set(again.members) & set(fam.members)
    assert set(fam.members) == {replace(m) for m in fam}


def test_momentum_pullback_rejects_ad_hoc_members(su2n3, su2, own_member):
    unit = np.zeros(3)
    unit[0] = 1.0
    adhoc = PolynomialFamily("adhoc", "k", (own_member("x", "k", lambda x: x[0], lambda x: unit),))
    with pytest.raises(ConfigurationError):
        momentum_pullback(su2n3, adhoc)


@pytest.mark.parametrize("m, n", [(2, 4), (3, 3), (5, 3)])
def test_family_values_on_a_stack_match_points(m, n, casimirs, own_member):
    # one pass over a (S, n, dim) stack, or a nested (2, S, n, dim) one, is
    # bit for bit one pass per point, for every built-in family and for a
    # merged family whose ad-hoc member is called point by point
    space = ProductSpace(build_algebra("su", m), n)
    rng = np.random.default_rng(10 * m + n)
    stack = np.stack([space.random_point(rng) for _ in range(6)])
    pair = own_member(
        "pair[0,1]", "g", lambda X: space.base.pair(X[0], X[1]), lambda X: np.zeros_like(X)
    )
    families = (
        flag_shift_family(space),
        restrict_family(space, flag_shift_family(space)),
        gaudin_family(space, np.arange(1.0, n + 1.0)),
        flag_momentum_family(space, generic_point(space.base, [42, 7], "k"), flag_shift_family(space)),
        casimirs(space),
        PolynomialFamily.merge("merged", flag_shift_family(space), PolynomialFamily("adhoc", "g", (pair,))),
    )
    for family in families:
        per_point = np.array([family.values(X) for X in stack])
        assert per_point.shape == (len(stack), len(family))
        assert np.array_equal(family.values(stack), per_point), family.name
        nested = family.values(stack.reshape(2, 3, n, space.base.dim))
        assert np.array_equal(nested, per_point.reshape(2, 3, -1)), family.name


@pytest.mark.parametrize("m, n", [(2, 4), (3, 3), (4, 3), (5, 3), (5, 4)])
def test_family_gradients_on_a_stack_match_points(m, n, own_member):
    # the gradients of a (S, n, dim) stack, or of a nested (2, S, n, dim) one,
    # are bit for bit those of one call per point: flag-shift, restricted,
    # Gaudin, flag-momentum and momentum-coordinate families, and a merged
    # family whose ad-hoc member is called point by point
    space = ProductSpace(build_algebra("su", m), n)
    rng = np.random.default_rng(10 * m + n)
    stack = np.stack([space.random_point(rng) for _ in range(6)])
    pair = own_member(
        "pair[0,1]", "g", lambda X: space.base.pair(X[0], X[1]), lambda X: np.stack([X[1], X[0], *X[2:] * 0.0])
    )
    families = (
        flag_shift_family(space),
        restrict_family(space, flag_shift_family(space)),
        gaudin_family(space, np.arange(1.0, n + 1.0)),
        flag_momentum_family(space, generic_point(space.base, [42, 7], "k"), flag_shift_family(space)),
        momentum_coordinates(space),
        PolynomialFamily.merge("merged", flag_shift_family(space), PolynomialFamily("adhoc", "g", (pair,))),
    )
    for family in families:
        per_point = np.array([family.gradients(X) for X in stack])
        assert per_point.shape == (len(stack), len(family), n, space.base.dim)
        assert np.array_equal(family.gradients(stack), per_point), family.name
        nested = family.gradients(stack.reshape(2, 3, n, space.base.dim))
        assert np.array_equal(nested, per_point.reshape(2, 3, *per_point.shape[1:])), family.name
