"""Integral families on products of compact Lie algebras.

Each family is a finite list of polynomial members with analytic gradients.
Every built-in member is an exact series coefficient: the coefficient of w^k
in tr (sum_l w^l C_l)^d with each C_l affine in the point.  The flag-shift
construction expands the invariants of the partial sums
x_1 + .. + x_i + t x_{i+1} in t; the argument-shift family expands
f(x + t a); the Gaudin family takes the principal parts of tr L(z)^d at the
poles of the spectral Lax matrix L(z).  Constant coefficients (degree-zero
members) are kept; they simply contribute zero gradients wherever ranks or
brackets are measured.  The built-in families are data, evaluated in one
batched pass (``_SeriesTraces``, or ``_Projected`` around it); every member
is a row of such a kernel.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import partial
from itertools import groupby
from operator import attrgetter
from typing import Callable, Iterable, Iterator

import numpy as np

from .algebra import LieAlgebra
from .errors import ConfigurationError
from .product import ProductSpace

__all__ = [
    "FamilyMember", "PolynomialFamily", "mf_shift_family", "flag_shift_family", "restrict_family",
    "spectral_weights", "gaudin_family", "momentum_coordinates", "momentum_pullback", "flag_momentum_family",
]

DOMAINS = ("k", "g", "v")


def _row(method: str, kernel, row: int, X: np.ndarray):
    return getattr(kernel, method)(np.asarray(X, dtype=float))[row]


@dataclass(frozen=True)
class FamilyMember:
    """Row ``row`` of the batched ``kernel`` that evaluates a whole family.

    ``domain`` is "k" for functions on one factor algebra (arguments are
    coordinate vectors), "g" for functions on the full product and "v" for
    functions restricted to the zero-block-sum subspace (arguments are
    (n, dim) arrays in both cases; "v" gradients are already projected).

    A kernel is anything with ``values``, ``gradients`` and ``size``;
    ``value`` and ``gradient`` are views of the member's row of it.
    """

    label: str
    domain: str
    kernel: object = field(repr=False)
    row: int
    value: Callable[[np.ndarray], float] = field(init=False, repr=False, compare=False)
    gradient: Callable[[np.ndarray], np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.domain not in DOMAINS:
            raise ConfigurationError(f"unknown member domain {self.domain!r}")
        object.__setattr__(self, "value", partial(_row, "values", self.kernel, self.row))
        object.__setattr__(self, "gradient", partial(_row, "gradients", self.kernel, self.row))


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
        """Every member's value at a point, or at each point of a (..., n, dim) stack: shape (..., len)."""
        X = np.asarray(X, dtype=float)
        return np.concatenate([kernel.values(X)[..., rows] for kernel, rows in self._groups], axis=-1)

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


# -- kernel: every member of a family in one pass ------------------------------


class _SeriesTraces:
    """Members Re/Im tr S_d[k] plus linear pairings sum_b <x_b, linear[f, b]>.

    Series q is C(w) = sum_l w^l C_l with terms C_l = sum_b combo[q, l, b] x_b
    + shift[q, l], affine in an (n, dim) product element X (or a coordinate
    vector, one block).  S_d[k] is the coefficient of w^k in C(w)^d, from the
    recurrence S_1 = C, S_(e+1)[k] = sum_l S_e[k - l] C_l truncated at the
    largest k any member reads.  Member f reads ``select[f]`` = (q, d, k), or
    nothing; even d take the real part of the trace and odd d the imaginary
    part, as ``LieAlgebra.invariant_value`` does.  The gradient of
    tr S_d[k] is d sum_l tr(S_(d-1)[k - l] dC_l), chained through combo.
    """

    def __init__(self, algebra: LieAlgebra, combo, shift, select, linear):
        self.algebra, self.combo, self.shift, self.select, self.linear = algebra, combo, shift, select, linear
        self.size, (series, terms, blocks), m = len(select), combo.shape, algebra.m
        self.order = order = 1 + max((s[2] for s in select if s is not None), default=0)
        # The terms in coordinates, with one zero term appended per series.
        pad = ((0, 0), (0, 1), (0, 0))
        self._combo = np.pad(combo, pad).reshape(-1, blocks)
        self._shift = np.pad(shift, pad).reshape(-1, algebra.dim)
        self._basis = algebra.basis.reshape(algebra.dim, -1)
        # Block (j, k) of the block-Toeplitz matrix gathers C_(k-j), or the
        # zero term: the row [S_e[0] .. S_e[K]] times it is the row of S_(e+1).
        q, j, a, k, b = np.ix_(range(series), range(order), range(m), range(order), range(m))
        lag = np.where((k >= j) & (k - j < terms), k - j, terms)
        gather = (((q * (terms + 1) + lag) * m + a) * m + b).reshape(series, order * m, order * m)
        # Series q has L_q nonzero terms and its members read S_e[k] for k < K_q
        # only.  For such k a term S_e[j] C_(k-j) of the row product is zero
        # when j > e (L_q - 1) (S_e[j] = 0) or j > k (the zero term), so each
        # power sums over the blocks j < min(K_q, e (L_q - 1) + 1) alone, one
        # product per run of consecutive series sharing (L_q, K_q).  The terms
        # left out are exact zeros at the end of each sum, so no sum is reordered
        # (with OpenBLAS every read block keeps its bits); blocks k >= K_q go unread.
        lengths = [1 + max(np.flatnonzero(combo[s].any(1) | shift[s].any(1)), default=0) for s in range(series)]
        reach = [1 + max((e[2] for e in select if e is not None and e[0] == s), default=0) for s in range(series)]
        self._runs = []
        for (length, last), run in groupby(range(series), key=lambda s: (lengths[s], reach[s])):
            run = list(run)
            self._runs.append((slice(run[0], run[-1] + 1), length, last, gather[run[0] : run[-1] + 1, : last * m]))
        # Traces are tabled by (q, d - 2, k) for d = 2 .. m; gradients read
        # S_e for e = d - 1 under the same index.  Re z = Re(1 z) and
        # Im z = Re(-i z): one phase per entry picks the part that degree reads.
        table = (series, m - 1, order)
        value_map, gradient_map = np.zeros((self.size, *table)), np.zeros((self.size, blocks, *table))
        for f, entry in enumerate(select):
            if entry is None:
                continue
            q, d, k = entry
            value_map[f, q, d - 2, k] = 1.0
            for l in range(min(k + 1, terms)):
                gradient_map[f, :, q, d - 2, k - l] += d * combo[q, l]
        self._phase = np.broadcast_to(np.where(np.arange(2, m + 1) % 2 == 0, 1.0, -1.0j)[:, None], table).ravel()
        gradient_map = gradient_map.reshape(self.size * blocks, -1)
        self._used = np.flatnonzero(gradient_map.any(axis=0))
        self._value_map, self._gradient_map = value_map.reshape(self.size, -1), gradient_map[:, self._used]
        self._trace_gradient = algebra.trace_basis @ algebra.gram_inv.T
        self._linear_map = linear.reshape(self.size, -1)

    def _power_rows(self, X: np.ndarray, top: int) -> np.ndarray:
        """The rows [S_e[0] .. S_e[K]], e = 1 .. top, shape (top, ..., Q, m, K + 1, m) for a (...) stack X."""
        m, series, lead = self.algebra.m, len(self.combo), X.shape[:-2]
        mats = (self._combo @ X.reshape(*lead, -1, self.algebra.dim) + self._shift) @ self._basis
        flat = mats.reshape(*lead, -1)
        powers = np.empty((top, *lead, series, m, self.order * m), complex)
        for run, length, reach, gather in self._runs:
            # block rows j < K_q of the Toeplitz matrices; take keeps each point's
            # matrices contiguous for BLAS, where flat[..., gather] would not
            toeplitz = np.take(flat, gather, axis=-1)
            powers[0, ..., run, :, :] = toeplitz[..., :m, :]
            for e in range(1, top):
                inner = m * min(reach, e * (length - 1) + 1)
                rows, out = powers[e - 1, ..., run, :, :inner], powers[e, ..., run, :, :]
                np.matmul(rows, toeplitz[..., :inner, :], out=out)
        return powers.reshape(top, *lead, series, m, self.order, m)

    def values(self, X: np.ndarray) -> np.ndarray:
        """Member values at a point, or at each point of a (..., n, dim) stack: shape (..., size)."""
        lead = X.shape[:-2]
        traces = np.einsum("e...qiki->...qek", self._power_rows(X, self.algebra.m)[1:])
        pairings = (X.reshape(*lead, -1, self.algebra.dim) @ self.algebra.gram).reshape(*lead, -1, 1)
        parts = (self._phase * traces.reshape(*lead, -1)).real[..., None]
        return (self._value_map @ parts + self._linear_map @ pairings)[..., 0]

    def gradients(self, X: np.ndarray) -> np.ndarray:
        m = self.algebra.m
        coefficients = self._power_rows(X, m - 1).transpose(1, 0, 3, 2, 4).reshape(-1, m * m)[self._used]
        z = coefficients @ self._trace_gradient
        grads = self._gradient_map @ (self._phase[self._used, None] * z).real
        return grads.reshape(self.size, *X.shape) + self.linear.reshape(self.size, *X.shape)

    def pulled_back(self, n: int) -> "_SeriesTraces":
        """The same members composed with the momentum x_1 + .. + x_n."""
        return _SeriesTraces(
            self.algebra, np.repeat(self.combo, n, 2), self.shift, self.select, np.repeat(self.linear, n, 1)
        )


class _Projected:
    """A kernel restricted to the zero-block-sum subspace: gradients projected."""

    def __init__(self, space: ProductSpace, kernel):
        self.space, self.kernel, self.size = space, kernel, kernel.size

    def values(self, X: np.ndarray) -> np.ndarray:
        return self.kernel.values(X)

    def gradients(self, X: np.ndarray) -> np.ndarray:
        return self.space.proj_v(self.kernel.gradients(X))


def _remap(family: PolynomialFamily, name: str, domain: str, relabel, transform) -> PolynomialFamily:
    """The family's members read through ``transform`` of each kernel behind them."""
    kernels = {id(kernel): transform(kernel) for kernel, _ in family._groups}
    members = tuple(FamilyMember(relabel(m.label), domain, kernels[id(m.kernel)], m.row) for m in family)
    return PolynomialFamily(name, domain, members)


class _Builder:
    """Series and members, collected into one _SeriesTraces kernel."""

    def __init__(self, algebra: LieAlgebra, blocks: int):
        self.algebra, self.blocks = algebra, blocks
        self.series, self.select, self.linear, self.labels = [], [], [], []

    def add_series(self, *terms) -> int:
        """Add the series sum_l w^l C_l from terms (combo, shift), C_l = combo @ X + shift; returns its index."""
        self.series.append(terms)
        return len(self.series) - 1

    def member(self, label: str, select=None, linear=0.0) -> None:
        """Add the trace coefficient select = (series, d, k), if any, plus sum_b <x_b, linear[b]>."""
        self.labels.append(label)
        self.select.append(select)
        self.linear.append(np.broadcast_to(linear, (self.blocks, self.algebra.dim)))

    def coefficients(self, label: str, series: int, lag: int = 0) -> None:
        """Add the w^k coefficients, k = 0 .. d - lag, of tr C(w)^d for every invariant degree d."""
        for alpha in range(1, self.algebra.rank + 1):
            d = self.algebra.invariant_degree(alpha)
            for k in range(d + 1 - lag):
                self.member(f"{label}inv={alpha},k={k}]", (series, d, k))

    def family(self, name: str, domain: str) -> PolynomialFamily:
        terms = max(map(len, self.series), default=1)
        combo = np.zeros((len(self.series), terms, self.blocks))
        shift = np.zeros((len(self.series), terms, self.algebra.dim))
        for q, series in enumerate(self.series):
            for l, (c, a) in enumerate(series):
                combo[q, l], shift[q, l] = c, a
        kernel = _SeriesTraces(self.algebra, combo, shift, tuple(self.select), np.array(self.linear))
        members = tuple(FamilyMember(label, domain, kernel, f) for f, label in enumerate(self.labels))
        return PolynomialFamily(name, domain, members)


# -- basic families ----------------------------------------------------------


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
    builder.coefficients("shift[", builder.add_series((1.0, 0.0), (0.0, shift)))
    return builder.family("argument_shift", "k")


def flag_shift_family(space: ProductSpace) -> PolynomialFamily:
    """Flag-shift family: t-coefficients of invariants of partial sums.

    For each prefix length i = 1 .. n-1 the invariants of
    x_1 + .. + x_i + t x_{i+1} are expanded in t, and the blockwise
    invariants are appended, so the family contains the Casimirs.
    """
    n, k = space.n, space.base
    builder = _Builder(k, n)
    for prefix, block in enumerate(np.eye(n)[1:], start=1):
        q = builder.add_series((np.r_[np.ones(prefix), np.zeros(n - prefix)], 0.0), (block, 0.0))
        builder.coefficients(f"flag[i={prefix},", q)
    for block, combo in enumerate(np.eye(n)):
        q = builder.add_series((combo, 0.0))
        for alpha in range(1, k.rank + 1):
            builder.member(f"casimir[block={block},inv={alpha}]", (q, k.invariant_degree(alpha), 0))
    return builder.family("flag_shift", "g")


def restrict_family(space: ProductSpace, family: PolynomialFamily) -> PolynomialFamily:
    """Every member restricted; each kernel's gradient stack is projected at once."""
    if family.domain != "g":
        raise ConfigurationError("only product-domain members can be restricted")
    return _remap(family, family.name + "_v", "v", lambda label: label + "|v", lambda k: _Projected(space, k))


def spectral_weights(n: int, weights: Iterable[float] | None = None) -> tuple[float, ...]:
    """The n spectral weights of a Gaudin model, 1..n by default: finite, with |a_i| >= tiny so 1/a_i is finite."""
    a = np.arange(1.0, n + 1.0) if weights is None else np.asarray(list(weights), dtype=float)
    tiny = np.finfo(float).tiny
    if a.shape != (n,) or not np.all(np.isfinite(a) & (np.abs(a) >= tiny)):
        raise ConfigurationError(f"need {n} finite spectral weights with |a_i| >= {tiny:.4g}, got {a.tolist()}")
    return tuple(a.tolist())


def gaudin_family(space: ProductSpace, weights: Iterable[float]) -> PolynomialFamily:
    """Gaudin family: principal parts of tr L(z)^d at the poles of L(z) = sum_i x_i / (1 + a_i z).

    L(z) = sum_i r_i x_i / (z - z_i) with poles z_i = -1/a_i and residues
    r_i = 1/a_i; blocks with equal weights share a pole.  The Laurent series
    at z_i converges out to the nearest other pole, at distance rho_i, so it
    is expanded in w = (z - z_i) / rho_i, which keeps every term bounded:
    rho_i w L = sum_l w^l C_l with C_0 = r_i (the blocks at the pole) and
    C_l = (-1)^(l-1) sum_j r_j x_j (rho_i / (z_i - z_j))^l over the other
    poles.  The members, the coefficients w^k of tr (rho_i w L)^d for
    k = 0 .. d-1, are rho_i^k times the coefficients of (z - z_i)^(k-d) in
    tr L(z)^d: the classical Gaudin Hamiltonians.
    """
    a = np.array(spectral_weights(space.n, weights))
    poles = np.array(list(dict.fromkeys(a)))
    at_pole = a[None, :] == poles[:, None]
    builder = _Builder(space.base, space.n)
    for weight, here in zip(poles, at_pole):
        # rho_i / (z_i - z_j), from 1 / (z_i - z_j) = a_i a_j / (a_i - a_j).
        ratio = np.divide(weight * a, weight - a, out=np.zeros(space.n), where=~here)
        ratio /= np.abs(ratio).max() or 1.0
        terms = [(here / weight, 0.0)]
        terms += [((-1.0) ** (l - 1) * ratio**l / a, 0.0) for l in range(1, space.base.m)]
        builder.coefficients(f"gaudin[a={weight:g},", builder.add_series(*terms), lag=1)
    return builder.family("gaudin", "g")


# -- momentum-built members ---------------------------------------------------


def momentum_coordinates(space: ProductSpace) -> PolynomialFamily:
    """Pairings of the momentum with each basis element."""
    builder = _Builder(space.base, space.n)
    for a, unit in enumerate(np.eye(space.base.dim)):
        builder.member(f"momentum[coord={a}]", linear=unit)
    return builder.family("momentum_coords", "g")


def momentum_pullback(space: ProductSpace, family: PolynomialFamily) -> PolynomialFamily:
    """Compose single-factor members with the momentum map.

    The members must come from a built-in family, such as the argument-shift
    family: their series terms become affine in the momentum.
    """
    if family.domain != "k":
        raise ConfigurationError("momentum pullback needs a single-factor family")
    if not all(isinstance(m.kernel, _SeriesTraces) for m in family):
        raise ConfigurationError("momentum pullback needs members of a built-in family")
    pulled = partial(_SeriesTraces.pulled_back, n=space.n)
    return _remap(family, f"mu*{family.name}", "g", lambda label: "mu*" + label, pulled)


def flag_momentum_family(space: ProductSpace, shift: np.ndarray, flag_shift: PolynomialFamily) -> PolynomialFamily:
    """``flag_shift``, the ``flag_shift_family(space)``, with momentum coordinates and shifted momentum invariants."""
    pulled = momentum_pullback(space, mf_shift_family(space.base, shift))
    return PolynomialFamily.merge("flag_momentum", flag_shift, momentum_coordinates(space), pulled)

