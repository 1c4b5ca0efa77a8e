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
contribute zero gradients wherever ranks or brackets are measured.  The
built-in families are data, evaluated in one batched pass (``_TracePowers``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import groupby
from operator import attrgetter
from typing import Callable, Iterable, Iterator

import numpy as np

from .algebra import LieAlgebra
from .errors import ConfigurationError
from .product import ProductSpace

__all__ = [
    "FamilyMember", "PolynomialFamily", "casimir_family", "mf_shift_family", "flag_shift_family",
    "restrict_member", "restrict_family", "gaudin_family", "momentum_coordinates", "momentum_pullback",
    "flag_momentum_family", "coordinate_member", "pairing_member", "product_member", "member_grad_check",
]

DOMAINS = ("k", "g", "v")


@dataclass(frozen=True)
class FamilyMember:
    """A single polynomial with its analytic gradient.

    ``domain`` is "k" for functions on one factor algebra (arguments are
    coordinate vectors), "g" for functions on the full product and "v" for
    functions restricted to the zero-block-sum subspace (arguments are
    (n, dim) arrays in both cases; "v" gradients are already projected).

    Members of the built-in families are views: ``value`` and ``gradient``
    read row ``row`` of the batched ``kernel`` that evaluates the whole
    family.  A member built from its own callables is its own kernel.
    """

    label: str
    domain: str
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    kernel: object = field(default=None, repr=False, compare=False)
    row: int = 0

    def __post_init__(self):
        if self.domain not in DOMAINS:
            raise ConfigurationError(f"unknown member domain {self.domain!r}")
        if self.kernel is None:
            object.__setattr__(self, "kernel", self)

    size = 1

    def values(self, X: np.ndarray) -> np.ndarray:
        return np.array([self.value(X)], dtype=float)

    def gradients(self, X: np.ndarray) -> np.ndarray:
        return np.asarray(self.gradient(X), dtype=float)[None]


@dataclass(frozen=True)
class PolynomialFamily:
    """Nonempty list of members sharing one domain; each kernel behind them is evaluated once."""

    name: str
    domain: str
    members: tuple[FamilyMember, ...]
    _groups: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.members:
            raise ConfigurationError(f"family {self.name!r} has no members")
        if any(m.domain != self.domain for m in self.members):
            raise ConfigurationError(f"family {self.name!r} mixes member domains")
        runs = groupby(self.members, key=attrgetter("kernel"))
        object.__setattr__(self, "_groups", tuple((kernel, [m.row for m in run]) for kernel, run in runs))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[FamilyMember]:
        return iter(self.members)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(m.label for m in self.members)

    def values(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return np.concatenate([kernel.values(X)[rows] for kernel, rows in self._groups])

    def gradients(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return np.concatenate([kernel.gradients(X)[rows] for kernel, rows in self._groups])

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


# -- kernels: every member of a family in one pass ----------------------------


class _TracePowers:
    """Members sum_p (sum_alpha weight[f, p, alpha] f_alpha(y_p) + <y_p, linear[f, p]>).

    The points are y_p = combo[p] @ X + shift[p] for a coordinate vector X
    (``combo`` has one column) or an (n, dim) product element X.  All
    invariants at all points come from one batched pass of trace powers;
    gradients follow by the chain rule through combo.
    """

    def __init__(self, algebra: LieAlgebra, combo, shift, weight, linear):
        self.algebra, self.combo, self.shift, self.weight, self.linear = algebra, combo, shift, weight, linear
        self.size, dim = weight.shape[0], algebra.dim
        self._value_map, self._linear_map = weight.reshape(self.size, -1), linear.reshape(self.size, -1)
        # Row (f, i) weighs invariant gradient (p, alpha) into block i of member f;
        # the linear members' gradients are constant.
        self._gradient_map = np.einsum("fpr,pi->fipr", weight, combo).reshape(-1, weight[0].size)
        self._linear_gradient = np.einsum("fpd,pi->fid", linear, combo).reshape(-1, dim)

    def _points(self, X: np.ndarray) -> np.ndarray:
        return self.combo @ X.reshape(-1, self.algebra.dim) + self.shift

    def values(self, X: np.ndarray) -> np.ndarray:
        points = self._points(X)
        pairings = (points @ self.algebra.gram).ravel()
        return self._value_map @ self.algebra.invariant_values(points).ravel() + self._linear_map @ pairings

    def gradients(self, X: np.ndarray) -> np.ndarray:
        grads = self.algebra.invariant_gradients(self._points(X)).reshape(-1, self.algebra.dim)
        return (self._gradient_map @ grads + self._linear_gradient).reshape(self.size, *X.shape)

    def pulled_back(self, n: int) -> "_TracePowers":
        """The same members composed with the momentum x_1 + .. + x_n."""
        return _TracePowers(self.algebra, np.repeat(self.combo, n, 1), self.shift, self.weight, self.linear)


class _Projected:
    """A kernel restricted to the zero-block-sum subspace: gradients projected."""

    def __init__(self, space: ProductSpace, kernel):
        self.space, self.kernel, self.size = space, kernel, kernel.size

    def values(self, X: np.ndarray) -> np.ndarray:
        return self.kernel.values(X)

    def gradients(self, X: np.ndarray) -> np.ndarray:
        return self.space.proj_v(self.kernel.gradients(X))


def _row(method: str, kernel, row: int, X: np.ndarray):
    return getattr(kernel, method)(np.asarray(X, dtype=float))[row]


def _view(label: str, domain: str, kernel, row: int) -> FamilyMember:
    value, gradient = partial(_row, "values", kernel, row), partial(_row, "gradients", kernel, row)
    return FamilyMember(label, domain, value, gradient, kernel, row)


def _remap(family: PolynomialFamily, name: str, domain: str, relabel, transform) -> PolynomialFamily:
    """The family's members read through ``transform`` of each kernel behind them."""
    kernels = {id(kernel): transform(kernel) for kernel, _ in family._groups}
    members = tuple(_view(relabel(m.label), domain, kernels[id(m.kernel)], m.row) for m in family)
    return PolynomialFamily(name, domain, members)


class _Builder:
    """Evaluation points and member weights, collected into one _TracePowers kernel."""

    def __init__(self, algebra: LieAlgebra, blocks: int):
        self.algebra, self.blocks = algebra, blocks
        self.combo, self.shift, self.terms, self.linear, self.labels = [], [], [], [], []

    def point(self, combo, shift=0.0) -> int:
        """Add the point combo @ X + shift; returns its index."""
        self.combo.append(np.broadcast_to(np.asarray(combo, dtype=float), (self.blocks,)))
        self.shift.append(np.broadcast_to(np.asarray(shift, dtype=float), (self.algebra.dim,)))
        return len(self.combo) - 1

    def member(self, label: str, terms=(), linear=()) -> None:
        """Add sum weight * f_alpha(point) over terms plus sum <point, u> over linear terms."""
        self.labels.append(label)
        self.terms.append(list(terms))
        self.linear.append(list(linear))

    def t_coefficients(self, label: str, points: list[int]) -> None:
        """Add the t-coefficients of every invariant along the points for t = 0, 1, ..."""
        for alpha in range(1, self.algebra.rank + 1):
            deg = self.algebra.invariant_degree(alpha)
            for k, weights in enumerate(_coefficient_weights(deg)):
                self.member(f"{label}inv={alpha},k={k}]", zip(points, [alpha] * (deg + 1), weights))

    def family(self, name: str, domain: str) -> PolynomialFamily:
        shape = (len(self.labels), len(self.combo))
        weight, linear = np.zeros(shape + (self.algebra.rank,)), np.zeros(shape + (self.algebra.dim,))
        for f, (terms, pairings) in enumerate(zip(self.terms, self.linear)):
            for p, alpha, w in terms:
                weight[f, p, alpha - 1] += w
            for p, u in pairings:
                linear[f, p] += u
        kernel = _TracePowers(self.algebra, np.array(self.combo), np.array(self.shift), weight, linear)
        members = tuple(_view(label, domain, kernel, f) for f, label in enumerate(self.labels))
        return PolynomialFamily(name, domain, members)


# -- basic families ----------------------------------------------------------


def _add_casimirs(builder: _Builder) -> None:
    for block, combo in enumerate(np.eye(builder.blocks)):
        p = builder.point(combo)
        for alpha in range(1, builder.algebra.rank + 1):
            builder.member(f"casimir[block={block},inv={alpha}]", [(p, alpha, 1.0)])


def casimir_family(space: ProductSpace) -> PolynomialFamily:
    """Blockwise invariants; central for the product Lie-Poisson bracket."""
    builder = _Builder(space.base, space.n)
    _add_casimirs(builder)
    return builder.family("casimirs", "g")


def mf_shift_family(algebra: LieAlgebra, shift: np.ndarray) -> PolynomialFamily:
    """Argument-shift family on a single factor: t-coefficients of f(x + t a).

    The shift element should be regular; a degenerate shift still yields a
    commutative family but can lose independent members, so it is reported
    as a warning rather than an error.
    """
    shift = np.asarray(shift, dtype=float)
    if shift.shape != (algebra.dim,):
        raise ValueError(f"shift must be a coordinate vector of length {algebra.dim}")
    if algebra.isotropy_dim(shift) != algebra.rank:
        warnings.warn("argument-shift direction is not regular; family may degenerate", stacklevel=2)

    builder = _Builder(algebra, 1)
    builder.t_coefficients("shift[", [builder.point(1.0, t * shift) for t in range(algebra.m + 1)])
    return builder.family("argument_shift", "k")


def flag_shift_family(space: ProductSpace) -> PolynomialFamily:
    """Flag-shift family: t-coefficients of invariants of partial sums.

    For each prefix length i = 1 .. n-1 the invariants of
    x_1 + .. + x_i + t x_{i+1} are expanded in t, and the blockwise
    invariants are appended, so the family contains the Casimirs.
    """
    n = space.n
    builder = _Builder(space.base, n)
    for prefix in range(1, n):
        combos = [np.r_[np.ones(prefix), t, np.zeros(n - prefix - 1)] for t in range(space.base.m + 1)]
        builder.t_coefficients(f"flag[i={prefix},", [builder.point(combo) for combo in combos])
    _add_casimirs(builder)
    return builder.family("flag_shift", "g")


def restrict_member(space: ProductSpace, member: FamilyMember) -> FamilyMember:
    """Restriction to the zero-block-sum subspace; gradients get projected."""
    return restrict_family(space, PolynomialFamily(member.label, member.domain, (member,))).members[0]


def restrict_family(space: ProductSpace, family: PolynomialFamily) -> PolynomialFamily:
    """Every member restricted; each kernel's gradient stack is projected at once."""
    if family.domain != "g":
        raise ConfigurationError("only product-domain members can be restricted")
    return _remap(family, family.name + "_v", "v", lambda label: label + "|v", lambda k: _Projected(space, k))


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

    builder = _Builder(space.base, space.n)
    for t1, t2 in grid:
        if t1 * t1 + t2 * t2 == 0.0:
            raise ConfigurationError("grid node (0, 0) is not allowed")
        denom = t1 + a * t2
        if np.any(np.abs(denom) < 1e-12):
            raise ConfigurationError(f"grid node ({t1}, {t2}) hits a pole of the spectral weights")
        p = builder.point(1.0 / denom)
        for alpha in range(1, space.base.rank + 1):
            builder.member(f"spectral[inv={alpha},node=({t1:g},{t2:g})]", [(p, alpha, 1.0)])
    return builder.family("gaudin", "g")


# -- momentum-built members ---------------------------------------------------


def momentum_coordinates(space: ProductSpace) -> PolynomialFamily:
    """Pairings of the momentum with each basis element."""
    builder = _Builder(space.base, space.n)
    momentum = builder.point(1.0)
    for a, unit in enumerate(np.eye(space.base.dim)):
        builder.member(f"momentum[coord={a}]", linear=[(momentum, unit)])
    return builder.family("momentum_coords", "g")


def momentum_pullback(space: ProductSpace, family: PolynomialFamily) -> PolynomialFamily:
    """Compose single-factor members with the momentum map.

    The members must come from a built-in family, such as the argument-shift
    family: their evaluation points become affine in the momentum.
    """
    if family.domain != "k":
        raise ConfigurationError("momentum pullback needs a single-factor family")
    if not all(isinstance(m.kernel, _TracePowers) for m in family):
        raise ConfigurationError("momentum pullback needs members of a built-in family")
    pulled = partial(_TracePowers.pulled_back, n=space.n)
    return _remap(family, f"mu*{family.name}", "g", lambda label: "mu*" + label, pulled)


def flag_momentum_family(space: ProductSpace, shift: np.ndarray) -> PolynomialFamily:
    """Flag-shift family extended by momentum coordinates and shifted momentum invariants."""
    pulled = momentum_pullback(space, mf_shift_family(space.base, shift))
    return PolynomialFamily.merge("flag_momentum", flag_shift_family(space), momentum_coordinates(space), pulled)


# -- ad-hoc members for controls and spot checks -----------------------------


def coordinate_member(space: ProductSpace, block: int, direction: np.ndarray | int) -> FamilyMember:
    """Linear member <x_block, u>; not Ad-invariant, useful as a control."""
    unit = isinstance(direction, (int, np.integer))
    u = np.eye(space.base.dim)[int(direction)] if unit else np.asarray(direction, dtype=float)
    builder = _Builder(space.base, space.n)
    builder.member(f"coord[block={block}]", linear=[(builder.point(np.eye(space.n)[block]), u)])
    return builder.family("coordinate", "g").members[0]


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


def member_grad_check(
    context: ProductSpace | LieAlgebra,
    member: FamilyMember,
    X: np.ndarray,
) -> float:
    """Max relative deviation between the analytic gradient and central differences.

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
