"""Integral families on products of compact Lie algebras.

Each family is a finite list of polynomial members with analytic gradients.
The flag-shift construction expands the invariants of the partial sums
x_1 + .. + x_i + t x_{i+1} into coefficients of the auxiliary parameter t;
the Gaudin-type construction evaluates invariants of spectrally weighted
sums.  Coefficient extraction uses exact Vandermonde interpolation on the
integer nodes t = 0 .. deg, which is exact for polynomials of degree deg up
to round-off, and the same node weights apply to gradients because the
gradient of a polynomial in t is again a polynomial in t of no higher
degree.  Constant coefficients (degree-zero members) are kept; they simply
contribute zero gradients wherever ranks or brackets are measured.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator

import numpy as np

from .algebra import LieAlgebra
from .errors import ConfigurationError
from .product import ProductSpace
from .ranks import DEFAULT_POLICY, RankPolicy

__all__ = [
    "FamilyMember",
    "PolynomialFamily",
    "casimir_family",
    "mf_shift_family",
    "flag_shift_family",
    "restrict_member",
    "restrict_family",
    "gaudin_family",
    "momentum_coordinates",
    "momentum_pullback",
    "flag_momentum_family",
    "coordinate_member",
    "pairing_member",
    "product_member",
    "member_grad_check",
]

DOMAINS = ("k", "g", "v")


@dataclass(frozen=True)
class FamilyMember:
    """A single polynomial with its analytic gradient.

    ``domain`` is "k" for functions on one factor algebra (arguments are
    coordinate vectors), "g" for functions on the full product and "v" for
    functions restricted to the zero-block-sum subspace (arguments are
    (n, dim) arrays in both cases; "v" gradients are already projected).
    """

    label: str
    domain: str
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.domain not in DOMAINS:
            raise ConfigurationError(f"unknown member domain {self.domain!r}")


@dataclass(frozen=True)
class PolynomialFamily:
    """Nonempty list of members sharing one domain."""

    name: str
    domain: str
    members: tuple[FamilyMember, ...]

    def __post_init__(self):
        if not self.members:
            raise ConfigurationError(f"family {self.name!r} has no members")
        if any(m.domain != self.domain for m in self.members):
            raise ConfigurationError(f"family {self.name!r} mixes member domains")

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[FamilyMember]:
        return iter(self.members)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(m.label for m in self.members)

    def values(self, X: np.ndarray) -> np.ndarray:
        return np.array([m.value(X) for m in self.members])

    def gradients(self, X: np.ndarray) -> np.ndarray:
        return np.stack([m.gradient(X) for m in self.members])

    @staticmethod
    def merge(name: str, *families: "PolynomialFamily") -> "PolynomialFamily":
        if not families:
            raise ConfigurationError("merge needs at least one family")
        domain = families[0].domain
        members = tuple(m for fam in families for m in fam.members)
        return PolynomialFamily(name, domain, members)


@lru_cache(maxsize=None)
def _coefficient_weights(degree: int) -> np.ndarray:
    # Rows give the interpolation weights of each t-coefficient on the
    # integer nodes 0 .. degree; exact for polynomials of that degree.
    nodes = np.arange(degree + 1, dtype=float)
    vandermonde = nodes[:, None] ** np.arange(degree + 1)
    weights = np.linalg.inv(vandermonde)
    weights.setflags(write=False)
    return weights


_NODES = lambda degree: np.arange(degree + 1, dtype=float)  # noqa: E731


# -- basic families ----------------------------------------------------------


def _casimir_member(space: ProductSpace, block: int, alpha: int) -> FamilyMember:
    algebra = space.base

    def value(X, block=block, alpha=alpha):
        return algebra.invariant_value(alpha, np.asarray(X)[block])

    def gradient(X, block=block, alpha=alpha):
        X = np.asarray(X, dtype=float)
        out = np.zeros_like(X)
        out[block] = algebra.invariant_gradient(alpha, X[block])
        return out

    return FamilyMember(f"casimir[block={block},inv={alpha}]", "g", value, gradient)


def casimir_family(space: ProductSpace) -> PolynomialFamily:
    """Blockwise invariants; central for the product Lie-Poisson bracket."""
    members = tuple(
        _casimir_member(space, block, alpha)
        for block in range(space.n)
        for alpha in range(1, space.base.rank + 1)
    )
    return PolynomialFamily("casimirs", "g", members)


def mf_shift_family(algebra: LieAlgebra, shift: np.ndarray, policy: RankPolicy = DEFAULT_POLICY) -> PolynomialFamily:
    """Argument-shift family on a single factor: t-coefficients of f(x + t a).

    The shift element should be regular; a degenerate shift still yields a
    commutative family but can lose independent members, so it is reported
    as a warning rather than an error.
    """
    shift = np.asarray(shift, dtype=float)
    if shift.shape != (algebra.dim,):
        raise ValueError(f"shift must be a coordinate vector of length {algebra.dim}")
    if algebra.isotropy_dim(shift, policy) != algebra.rank:
        warnings.warn("argument-shift direction is not regular; family may degenerate", stacklevel=2)

    members = []
    for alpha in range(1, algebra.rank + 1):
        deg = algebra.invariant_degree(alpha)
        weights, nodes = _coefficient_weights(deg), _NODES(deg)
        for k in range(deg + 1):

            def value(x, alpha=alpha, k=k, weights=weights, nodes=nodes):
                vals = [algebra.invariant_value(alpha, np.asarray(x, dtype=float) + t * shift) for t in nodes]
                return float(weights[k] @ vals)

            def gradient(x, alpha=alpha, k=k, weights=weights, nodes=nodes):
                x = np.asarray(x, dtype=float)
                out = np.zeros(algebra.dim)
                for wt, t in zip(weights[k], nodes):
                    if wt != 0.0:
                        out += wt * algebra.invariant_gradient(alpha, x + t * shift)
                return out

            members.append(FamilyMember(f"shift[inv={alpha},k={k}]", "k", value, gradient))
    return PolynomialFamily("argument_shift", "k", tuple(members))


def _flag_member(space: ProductSpace, prefix: int, alpha: int, k: int) -> FamilyMember:
    algebra = space.base
    deg = algebra.invariant_degree(alpha)
    weights, nodes = _coefficient_weights(deg), _NODES(deg)

    def shifted(X, t, prefix=prefix):
        return X[:prefix].sum(axis=0) + t * X[prefix]

    def value(X, alpha=alpha, k=k, weights=weights, nodes=nodes):
        X = np.asarray(X, dtype=float)
        vals = [algebra.invariant_value(alpha, shifted(X, t)) for t in nodes]
        return float(weights[k] @ vals)

    def gradient(X, alpha=alpha, k=k, weights=weights, nodes=nodes, prefix=prefix):
        X = np.asarray(X, dtype=float)
        out = np.zeros_like(X)
        for wt, t in zip(weights[k], nodes):
            if wt == 0.0:
                continue
            g = algebra.invariant_gradient(alpha, shifted(X, t))
            out[:prefix] += wt * g
            out[prefix] += (wt * t) * g
        return out

    return FamilyMember(f"flag[i={prefix},inv={alpha},k={k}]", "g", value, gradient)


def flag_shift_family(space: ProductSpace) -> PolynomialFamily:
    """Flag-shift family: t-coefficients of invariants of partial sums.

    For each prefix length i = 1 .. n-1 the invariants of
    x_1 + .. + x_i + t x_{i+1} are expanded in t, and the blockwise
    invariants are appended, so the family contains the Casimirs.
    """
    members = [
        _flag_member(space, prefix, alpha, k)
        for prefix in range(1, space.n)
        for alpha in range(1, space.base.rank + 1)
        for k in range(space.base.invariant_degree(alpha) + 1)
    ]
    members.extend(casimir_family(space).members)
    return PolynomialFamily("flag_shift", "g", tuple(members))


def restrict_member(space: ProductSpace, member: FamilyMember) -> FamilyMember:
    """Restriction to the zero-block-sum subspace; gradients get projected."""
    if member.domain != "g":
        raise ConfigurationError("only product-domain members can be restricted")

    def gradient(X, member=member):
        return space.proj_v(member.gradient(X))

    return FamilyMember(member.label + "|v", "v", member.value, gradient)


def restrict_family(space: ProductSpace, family: PolynomialFamily) -> PolynomialFamily:
    members = tuple(restrict_member(space, m) for m in family.members)
    return PolynomialFamily(family.name + "_v", "v", members)


def gaudin_family(
    space: ProductSpace,
    weights: Iterable[float],
    grid: Iterable[tuple[float, float]] | None = None,
) -> PolynomialFamily:
    """Spectral family: invariants of sum_i x_i / (t1 + a_i t2) on a grid.

    The default grid fixes t1 = 1 and sweeps t2 over {0, 0.5, 1, 2, 3}; the
    node (1, 0) gives the invariants of the momentum.  Grid nodes are
    validated against poles of the weights.
    """
    a = np.asarray(list(weights), dtype=float)
    if a.shape != (space.n,):
        raise ConfigurationError(f"need {space.n} spectral weights, got shape {a.shape}")
    if np.any(a == 0.0):
        raise ConfigurationError("spectral weights must be nonzero")
    if grid is None:
        grid = [(1.0, s) for s in (0.0, 0.5, 1.0, 2.0, 3.0)]
    grid = [(float(t1), float(t2)) for t1, t2 in grid]

    algebra = space.base
    members = []
    for t1, t2 in grid:
        if t1 * t1 + t2 * t2 == 0.0:
            raise ConfigurationError("grid node (0, 0) is not allowed")
        denom = t1 + a * t2
        if np.any(np.abs(denom) < 1e-12):
            raise ConfigurationError(f"grid node ({t1}, {t2}) hits a pole of the spectral weights")
        w = 1.0 / denom
        for alpha in range(1, algebra.rank + 1):

            def value(X, alpha=alpha, w=w):
                X = np.asarray(X, dtype=float)
                return algebra.invariant_value(alpha, w @ X)

            def gradient(X, alpha=alpha, w=w):
                X = np.asarray(X, dtype=float)
                return np.outer(w, algebra.invariant_gradient(alpha, w @ X))

            members.append(
                FamilyMember(f"spectral[inv={alpha},node=({t1:g},{t2:g})]", "g", value, gradient)
            )
    return PolynomialFamily("gaudin", "g", tuple(members))


# -- momentum-built members ---------------------------------------------------


def momentum_coordinates(space: ProductSpace) -> PolynomialFamily:
    """Pairings of the momentum with each basis element."""
    algebra = space.base
    members = []
    for a in range(algebra.dim):
        unit = np.zeros(algebra.dim)
        unit[a] = 1.0

        def value(X, unit=unit):
            return float(space.momentum(X) @ algebra.gram @ unit)

        def gradient(X, unit=unit):
            X = np.asarray(X, dtype=float)
            return np.tile(unit, (space.n, 1))

        members.append(FamilyMember(f"momentum[coord={a}]", "g", value, gradient))
    return PolynomialFamily("momentum_coords", "g", tuple(members))


def momentum_pullback(space: ProductSpace, family: PolynomialFamily) -> PolynomialFamily:
    """Compose single-factor members with the momentum map."""
    if family.domain != "k":
        raise ConfigurationError("momentum pullback needs a single-factor family")
    members = []
    for member in family.members:

        def value(X, member=member):
            return member.value(space.momentum(X))

        def gradient(X, member=member):
            return np.tile(member.gradient(space.momentum(X)), (space.n, 1))

        members.append(FamilyMember(f"mu*{member.label}", "g", value, gradient))
    return PolynomialFamily(f"mu*{family.name}", "g", tuple(members))


def flag_momentum_family(space: ProductSpace, shift: np.ndarray) -> PolynomialFamily:
    """Flag-shift family extended by momentum coordinates and shifted momentum invariants."""
    return PolynomialFamily.merge(
        "flag_momentum",
        flag_shift_family(space),
        momentum_coordinates(space),
        momentum_pullback(space, mf_shift_family(space.base, shift)),
    )


# -- ad-hoc members for controls and spot checks -----------------------------


def coordinate_member(space: ProductSpace, block: int, direction: np.ndarray | int) -> FamilyMember:
    """Linear member <x_block, u>; not Ad-invariant, useful as a control."""
    algebra = space.base
    if isinstance(direction, (int, np.integer)):
        u = np.zeros(algebra.dim)
        u[int(direction)] = 1.0
    else:
        u = np.asarray(direction, dtype=float)

    def value(X, u=u, block=block):
        return float(np.asarray(X, dtype=float)[block] @ algebra.gram @ u)

    def gradient(X, u=u, block=block):
        X = np.asarray(X, dtype=float)
        out = np.zeros_like(X)
        out[block] = u
        return out

    return FamilyMember(f"coord[block={block}]", "g", value, gradient)


def pairing_member(space: ProductSpace, i: int, j: int) -> FamilyMember:
    """Quadratic member <x_i, x_j>; Ad-invariant for the diagonal action."""

    def value(X, i=i, j=j):
        X = np.asarray(X, dtype=float)
        return space.base.pair(X[i], X[j])

    def gradient(X, i=i, j=j):
        X = np.asarray(X, dtype=float)
        out = np.zeros_like(X)
        out[i] += X[j]
        out[j] += X[i]
        return out

    return FamilyMember(f"pairing[{i},{j}]", "g", value, gradient)


def product_member(f: FamilyMember, g: FamilyMember) -> FamilyMember:
    """Pointwise product with the Leibniz gradient."""
    if f.domain != g.domain:
        raise ConfigurationError("product members must share a domain")

    def value(X, f=f, g=g):
        return f.value(X) * g.value(X)

    def gradient(X, f=f, g=g):
        return f.value(X) * g.gradient(X) + g.value(X) * f.gradient(X)

    return FamilyMember(f"({f.label})*({g.label})", f.domain, value, gradient)


# -- finite-difference checks ------------------------------------------------


def _fd_pairs(fun, x, direction, step):
    return (fun(x + step * direction) - fun(x - step * direction)) / (2.0 * step)


def member_grad_check(
    context: ProductSpace | LieAlgebra,
    member: FamilyMember,
    X: np.ndarray,
    step: float = 1e-5,
) -> float:
    """Max relative deviation between the analytic gradient and central differences.

    Perturbations stay inside the member's domain: single-factor and product
    members are probed along coordinate directions, restricted members along
    an orthonormal basis of the zero-block-sum subspace.
    """
    X = np.asarray(X, dtype=float)
    if member.domain == "k":
        algebra = context if isinstance(context, LieAlgebra) else context.base
        w = np.zeros(algebra.dim)
        for b in range(algebra.dim):
            unit = np.zeros(algebra.dim)
            unit[b] = 1.0
            w[b] = _fd_pairs(member.value, X, unit, step)
        fd = algebra.gram_inv @ w
    elif member.domain == "g":
        space = context
        w = np.zeros_like(X)
        for i in range(space.n):
            for b in range(space.base.dim):
                unit = np.zeros_like(X)
                unit[i, b] = 1.0
                w[i, b] = _fd_pairs(member.value, X, unit, step)
        fd = w @ space.base.gram_inv.T
    else:
        space = context
        euclid = np.zeros_like(X)
        for nu in space.module_directions():
            for b in range(space.base.dim):
                unit = np.zeros(space.base.dim)
                unit[b] = 1.0
                direction = np.outer(nu, unit)
                euclid += _fd_pairs(member.value, X, direction, step) * direction
        fd = space.proj_v(euclid @ space.base.gram_inv.T)

    analytic = member.gradient(X)
    scale = max(float(np.linalg.norm(analytic)), float(np.linalg.norm(fd)))
    # Central differences bottom out at eps/step times the value magnitude;
    # below that floor both gradients count as zero.
    noise = 10.0 * np.finfo(float).eps / step * (1.0 + abs(member.value(X)))
    if scale < max(1e-12, noise):
        return 0.0
    return float(np.linalg.norm(analytic - fd)) / scale
