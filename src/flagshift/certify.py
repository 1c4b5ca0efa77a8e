"""Certification of rank, involutivity and completeness claims.

Every certificate is measured at seeded generic points.  Genericity is
gated before any rank is trusted: each factor block must be regular, the
simultaneous centralizer of the blocks must vanish, and every singular
value spectrum involved must clear the rank cutoff by the policy margin.
Points failing a gate are resampled with a fresh derived seed, up to the
policy retry budget; trials that disagree after resampling fail the
certificate loudly instead of being averaged away.  A certificate measures
all of its open trials at once: each retry round gates the fresh draws as
one stack and measures the accepted points as one stack, while every rank
is still decided on its own matrix.  Within one run every seeded point is
drawn and gated once per process, in a ``ProductSpace``, and shared by the
certificates that read it there: each ``ClaimContext`` owns one table, a
single memo of draws, invariant tangent spans and gradient ranks, and every
new context starts a fresh one.  Every rank of unit gradient rows is decided
in that table, once per family and point.  Only the sampling layer names a point's seed entropy:
a gate or measurement call on a stack that raises a LinAlgError runs again
one point at a time, in trial order, and the first point that fails is
named.  Every report is built by one constructor, which reads algebra, n and
seed from the context.  ``check_request`` refuses a run from n alone, before
any space is built.  ``run_claims`` keeps the machine's second CPU busy with
one forked child where two CPUs allow (``dynamics.background``).  With
``gaudin`` selected the child integrates its momentum flow, most of a run's
time, which reads nothing the other claims draw; the claim reads the flow's
answer, or the exception it raised, where it would otherwise integrate.
Without ``gaudin``, and with ``thm3`` beside other claims, the child runs
``thm3``, the costliest claim on the rank path, in its own copy of the
table, and its reports are read where it would run: last.  So a v point
that ``lemma1`` and ``thm3`` both read is drawn in both processes.  Either
way every report stays byte for byte the same.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Callable, Iterable, Sequence

import numpy as np

from . import dynamics
from .errors import ConfigurationError, GenericityError
from .families import (
    PolynomialFamily,
    flag_momentum_family,
    flag_shift_family,
    gaudin_family,
    restrict_family,
    spectral_weights,
)
from .poisson import (
    bivector_on_span,
    invariant_tangent_span,
    tangent_span_orthocomplement,
)
from .product import ProductSpace, check_factors
from .ranks import DEFAULT_POLICY, RankPolicy, RankResult, numerical_rank, row_space

__all__ = [
    "CertificateReport",
    "generic_point",
    "check_involutive",
    "check_ad_invariance",
    "verify_lemma1",
    "verify_completeness",
    "verify_span_inclusion",
    "ClaimContext",
    "CLAIM_IDS",
    "BRACKET_CLAIMS",
    "run_claims",
    "check_request",
    "lemma1_targets",
    "flag_rank_target",
    "restricted_rank_target",
    "completeness_target",
]


@dataclass(frozen=True)
class CertificateReport:
    """One measured claim with its target, tolerance and per-trial witnesses.

    A claim that raised instead of measuring is one failed report holding
    the claim id and the ``error`` message, with NaN in place of numbers.
    """

    claim_id: str
    algebra: str
    n: int
    seed: int
    trials: int
    formula_value: float
    measured_value: float
    tolerance: float
    passed: bool
    witnesses: tuple[dict, ...]
    error: str | None = None

    def to_dict(self) -> dict:
        doc = {
            "claim_id": self.claim_id,
            "algebra": self.algebra,
            "n": self.n,
            "seed": self.seed,
            "trials": self.trials,
            "formula_value": self.formula_value,
            "measured_value": self.measured_value,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "witnesses": list(self.witnesses),
        }
        if self.error is not None:
            doc["error"] = self.error
        return doc


@dataclass(frozen=True)
class ClaimContext:
    """The run settings every certificate reads.

    Each certificate measures at ``trials`` generic points drawn from
    ``seed``, decides ranks under ``policy`` and holds bracket residuals to
    ``tol_bracket``; the ``gaudin`` claim reads ``gaudin_weights`` (None reads
    1..n).  ``check_request`` refuses settings no certificate can use.  ``_points``
    is not a setting: it is the table of generic points drawn so far (``_Points``),
    owned by this context; every new context, ``replace`` included, starts a fresh one.
    """

    space: ProductSpace
    seed: int = 42
    trials: int = 7
    policy: RankPolicy = DEFAULT_POLICY
    tol_bracket: float = 1e-9
    gaudin_weights: tuple[float, ...] | None = None
    _points: _Points = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        check_request(self.space.n, None, self.seed, self.trials, self.policy, self.tol_bracket, self.gaudin_weights)
        object.__setattr__(self, "_points", _Points(self.space, self.policy))

    def weights(self) -> tuple[float, ...]:
        return spectral_weights(self.space.n, self.gaudin_weights)


# -- closed-form targets -------------------------------------------------------


def lemma1_targets(space: ProductSpace) -> tuple[int, int]:
    """(differential dimension, differential index) of the invariant span."""
    return (space.n - 2) * space.base.dim, space.n * space.base.rank


def flag_rank_target(space: ProductSpace) -> int:
    total = (space.n - 1) * space.base.dim + (space.n + 1) * space.base.rank
    return total // 2


def restricted_rank_target(space: ProductSpace) -> int:
    total = (space.n - 2) * space.base.dim + space.n * space.base.rank
    return total // 2


def completeness_target(space: ProductSpace) -> int:
    return space.n * (space.base.dim + space.base.rank)


# -- generic point sampling ------------------------------------------------------


def _draw(space: ProductSpace, entropy: list[int], domain: str) -> np.ndarray:
    sampler = {"k": space.base.random_element, "g": space.random_point, "v": space.random_v_point}[domain]
    return sampler(np.random.default_rng(entropy))


def _failed_gates(space: ProductSpace, Xs: np.ndarray, domain: str, policy: RankPolicy) -> list[str | None]:
    """The first genericity gate each point of a stack fails, or None.

    Every block must be regular; on the product the blocks must also share
    no centralizer.  Regularity is one gap gate on the whole stack, the
    centralizer one SVD per point.
    """
    algebra = space.base
    dims, marginal = algebra.isotropy(Xs, policy)
    irregular = (marginal | (dims != algebra.rank)).reshape(len(Xs), -1).any(axis=1)
    gates = []
    for X, bad in zip(Xs, irregular):
        gate = "block regularity" if bad else None
        if gate is None and domain != "k":
            result = numerical_rank(np.vstack(algebra.ads(X)), policy)
            if result.marginal or result.rank != algebra.dim:
                gate = "diagonal centralizer"
        gates.append(gate)
    return gates


def _naming_entropy(fn: Callable, Xs: np.ndarray, entropies: list) -> list:
    """``list(fn(Xs, entropies))`` on a stack of seeded points.

    Only when that raises a LinAlgError, ``fn`` runs again one point at a
    time in trial order, and the first failure is re-raised as
    "<message> (seed entropy [...])"; if no single point fails, the stack's
    own error is re-raised.
    """
    try:
        return list(fn(Xs, entropies))  # a list, so that a lazy fn raises inside the try
    except np.linalg.LinAlgError:
        for i, entropy in enumerate(entropies):
            try:
                list(fn(Xs[i : i + 1], entropies[i : i + 1]))
            except np.linalg.LinAlgError as exc:
                raise np.linalg.LinAlgError(f"{exc} (seed entropy {entropy})") from exc
        raise


def _unit_rows(gens: np.ndarray) -> np.ndarray:
    """(count, n, dim) gradients at one point as unit rows: degree 2 and degree m gradients differ by decades."""
    rows = gens.reshape(len(gens), -1)
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    return rows / np.where(norms > 0.0, norms, 1.0)


class _Points:
    """The seeded points drawn in ``space`` under ``policy``, each drawn and gated once.

    One memo holds every per-point quantity under a key tagged by its kind:
    ("draw", domain, entropy) holds the accepted point, read-only, or the name
    of the gate that rejected it; ("span", entropy) a v point's invariant
    tangent span; ("rank", family id, entropy) the rank of the family's unit
    gradient rows there, decided only in ``rank`` (``thm2ii`` and ``dimB`` both
    read the flag-shift rank).  The flag-shift family is built once.  Gradient
    stacks, the large arrays, are shared only inside ``claim()`` and dropped when it ends.
    """

    def __init__(self, space: ProductSpace, policy: RankPolicy):
        self.space, self.policy = space, policy
        self._memo: dict = {}
        self._gradients: dict | None = None

    def draw(self, entropies: list, domain: str) -> list[tuple[np.ndarray | None, str | None]]:
        """For each entropy, (point, None) for an accepted draw, (None, gate) for a rejected one."""
        keys = [("draw", domain, tuple(entropy)) for entropy in entropies]
        new = [entropy for entropy, key in zip(entropies, keys) if key not in self._memo]
        if new:
            Xs = np.stack([_draw(self.space, entropy, domain) for entropy in new])
            Xs.flags.writeable = False
            gates = _naming_entropy(lambda stack, _: _failed_gates(self.space, stack, domain, self.policy), Xs, new)
            for entropy, X, gate in zip(new, Xs, gates):
                self._memo["draw", domain, tuple(entropy)] = (None, gate) if gate else (X, None)
        return [self._memo[key] for key in keys]

    def tangent_span(self, entropy: list[int], X: np.ndarray) -> tuple[np.ndarray, bool]:
        """``invariant_tangent_span`` at the v point drawn from ``entropy``."""
        key = ("span", tuple(entropy))
        if key not in self._memo:
            span, marginal = invariant_tangent_span(self.space, X, self.policy)
            span.flags.writeable = False
            self._memo[key] = span, marginal
        return self._memo[key]

    def rank(self, family: PolynomialFamily, entropy: list[int], gens: np.ndarray) -> RankResult:
        """Rank of the unit rows of ``family``'s gradients ``gens`` at the point drawn from ``entropy``, decided once."""
        key = ("rank", id(family), tuple(entropy))
        if key not in self._memo:
            self._memo[key] = family, numerical_rank(_unit_rows(gens), self.policy)  # the family keeps its id unique
        return self._memo[key][1]

    @cached_property
    def flag_shift(self) -> PolynomialFamily:
        return flag_shift_family(self.space)

    @contextmanager
    def claim(self):
        """Share each family's gradients at each stack of points among the certificates of one claim."""
        self._gradients = {}
        try:
            yield
        finally:
            self._gradients = None

    def gradients(self, family: PolynomialFamily, entropies: list, Xs: np.ndarray) -> np.ndarray:
        """``family.gradients(Xs)`` on a stack, computed once per (family, entropies) inside ``claim()``."""
        if self._gradients is None:
            return family.gradients(Xs)
        key = (id(family), tuple(map(tuple, entropies)))
        if key not in self._gradients:
            gens = family.gradients(Xs)
            gens.flags.writeable = False
            self._gradients[key] = family, gens  # the family held keeps its id unique
        return self._gradients[key][1]


def _rounds(points: _Points, prefixes: list[list[int]], domain: str, measure) -> tuple[list, list]:
    """Run ``measure`` at one generic point per seed prefix; (values, witnesses) in prefix order.

    Round r draws and gates the entropy [*prefix, r] of every prefix still
    open, for r = 0 .. policy.max_retries, and calls ``measure(Xs, entropies)``
    once on the read-only stack of the accepted points, through
    ``_naming_entropy``.  It gives one (value, marginal, extra) per point, in
    a list or lazily; a marginal result discards the point
    and burns a retry, exactly like a failed genericity gate.  A witness that
    burned retries names the gate that rejected each one, in order.  A prefix
    that runs out of draws raises a GenericityError naming the domain, the
    entropy and the gate that rejected each draw; the lowest such prefix is named.
    """
    rejected: list[list[str]] = [[] for _ in prefixes]
    done: dict[int, tuple] = {}
    for retry in range(points.policy.max_retries + 1):
        trials = [t for t in range(len(prefixes)) if t not in done]
        if not trials:
            break
        entropies = [prefixes[t] + [retry] for t in trials]
        accepted = []
        for t, entropy, (X, gate) in zip(trials, entropies, points.draw(entropies, domain)):
            if X is None:
                rejected[t].append(gate)
            else:
                accepted.append((t, entropy, X))
        if not accepted:
            continue
        ts, measured, Xs = zip(*accepted)
        Xs = np.stack(Xs)
        Xs.flags.writeable = False
        for t, (value, marginal, extra) in zip(ts, _naming_entropy(measure, Xs, list(measured))):
            if marginal:
                rejected[t].append("marginal measurement")
            else:
                burned = {"rejected": list(rejected[t])} if rejected[t] else {}
                done[t] = value, {"trial": t, "retries": retry, **burned, **extra}
    if len(done) < len(prefixes):
        t = min(set(range(len(prefixes))) - set(done))
        retries = {gate: ", ".join(str(r) for r, g in enumerate(rejected[t]) if g == gate) for gate in rejected[t]}
        gates = ", ".join(f"{gate} (r = {rs})" for gate, rs in retries.items())
        pattern = ", ".join(str(p) for p in prefixes[t] + ["r"])
        raise GenericityError(
            f"no generic point in domain {domain!r} was accepted from seed entropy "
            f"[{pattern}], r = 0..{points.policy.max_retries}; rejected by {gates}"
        )
    values, witnesses = zip(*(done[t] for t in range(len(prefixes))))
    return list(values), list(witnesses)


def generic_point(
    context,
    seed_parts: Iterable[int],
    domain: str = "g",
    policy: RankPolicy = DEFAULT_POLICY,
) -> np.ndarray:
    """Seeded point of a ``ProductSpace`` passing the genericity gates, resampled as needed; read-only."""
    if domain not in ("k", "g", "v"):
        raise ConfigurationError(f"unknown domain {domain!r}, expected 'k', 'g' or 'v'")
    if not isinstance(context, ProductSpace) and domain != "k":
        raise ConfigurationError(f"domain {domain!r} draws on a ProductSpace, got {context!r}")
    space = context if isinstance(context, ProductSpace) else ProductSpace(context, 2)  # n enters no "k" draw or gate
    accept_all = lambda Xs, entropies: [(X, False, {}) for X in Xs]  # noqa: E731
    values, _ = _rounds(_Points(space, policy), [[int(p) for p in seed_parts]], domain, accept_all)
    return values[0]


def _measure_at_generic_points(ctx: ClaimContext, domain: str, measure) -> tuple[list, list]:
    """``_rounds`` over the trials of ``ctx``: entropy [seed, trial, r] for trial = 0 .. trials - 1."""
    return _rounds(ctx._points, [[ctx.seed, trial] for trial in range(ctx.trials)], domain, measure)


# -- bivector kernel -----------------------------------------------------------


def _kernel_dim(space: ProductSpace, X, span, policy) -> tuple[int, bool]:
    """Kernel dimension of the bivector on the span rows, with the marginal flag.

    Bivector entries are bounded by the point's size times the span rows'
    sizes; that bound anchors the rank cutoff even when the matrix vanishes
    identically.
    """
    row_norms = np.linalg.norm(span.reshape(span.shape[0], -1), axis=1)
    top = float(row_norms.max()) if row_norms.size else 1.0
    scale = float(np.linalg.norm(X)) * max(top, 1e-3) ** 2
    matrix = bivector_on_span(space, X, span)
    result = numerical_rank(matrix, policy, scale=scale)
    return span.shape[0] - result.rank, result.marginal


# -- reports ------------------------------------------------------------------


def _report(ctx, claim_id, trials, formula, measured, tol, passed, witnesses=(), error=None) -> CertificateReport:
    """The one way a report is built: algebra, n and seed come from ``ctx``."""
    return CertificateReport(
        claim_id, ctx.space.base.name, ctx.space.n, ctx.seed, trials,
        formula, measured, tol, passed, tuple(witnesses), error,
    )


def _residual_report(ctx, claim_id, values, tol, witnesses, ok=True) -> CertificateReport:
    """Worst residual over the trials against a tolerance (NaN if any trial is); ``ok`` can veto a pass."""
    worst = float(np.max(values))
    return _report(ctx, claim_id, len(values), 0.0, worst, tol, bool(ok and worst <= tol), witnesses)


def _int_report(ctx, claim_id, formula, values, witnesses) -> CertificateReport:
    """Modal integer over the trials against a closed form; trials must agree."""
    counts = Counter(values)
    value, _ = counts.most_common(1)[0]
    passed = len(counts) == 1 and int(value) == int(formula)
    return _report(ctx, claim_id, len(values), int(formula), int(value), 0.0, passed, witnesses)


# -- involutivity and invariance ------------------------------------------------


def _involutivity_residuals(
    space: ProductSpace,
    gens: np.ndarray,
    Xs: np.ndarray,
    weights: np.ndarray | None = None,
) -> list[float]:
    """Max normalized |{f, g}| over the pairs of members, at each point of a stack with gradients ``gens``."""
    # |M| / scale in place, where the scale is positive, and 0 elsewhere: two (P, count, count) arrays at a time.
    residuals = np.abs(bivector_on_span(space, Xs, gens, weights))
    norms = space.norms(gens)
    scale = norms[:, :, None] * norms[:, None, :]
    scale *= np.array([space.norm(X) for X in Xs])[:, None, None]
    positive = scale > 0.0
    np.divide(residuals, scale, out=residuals, where=positive)
    del scale
    residuals[~positive] = 0.0
    return [float(r) for r in residuals.max(axis=(1, 2))]


def check_involutive(
    ctx: ClaimContext,
    family: PolynomialFamily,
    claim_id: str = "involutive",
    weights: np.ndarray | None = None,
) -> CertificateReport:
    """Pairwise bracket residuals of the family at generic points."""

    def measure(Xs, entropies):
        gens = ctx._points.gradients(family, entropies, Xs)
        return [(r, False, {"residual": r}) for r in _involutivity_residuals(ctx.space, gens, Xs, weights)]

    values, witnesses = _measure_at_generic_points(ctx, family.domain, measure)
    return _residual_report(ctx, claim_id, values, ctx.tol_bracket, witnesses)


def check_ad_invariance(
    ctx: ClaimContext, family: PolynomialFamily, claim_id: str = "ad_invariance"
) -> CertificateReport:
    """Invariance of member values under ten random diagonal adjoint actions.

    At each point, the values at X and at its ten images come from one call on their stack.
    """
    space = ctx.space

    def measure(Xs, entropies):
        for X, entropy in zip(Xs, entropies):
            rng = np.random.default_rng(entropy + [7919])
            moved = [space.diagonal_adjoint(space.base.random_element(rng, 0.8), X) for _ in range(10)]
            stacked = family.values(np.stack([X, *moved]))
            worst = float((np.abs(stacked[1:] - stacked[0]) / (1.0 + np.abs(stacked[0]))).max())
            yield worst, False, {"residual": worst}

    values, witnesses = _measure_at_generic_points(ctx, family.domain, measure)
    return _residual_report(ctx, claim_id, values, ctx.tol_bracket, witnesses)


# -- structural certificates -----------------------------------------------------


def verify_lemma1(ctx: ClaimContext) -> tuple[CertificateReport, CertificateReport]:
    """Dimension and bivector-kernel dimension of the invariant tangent span.

    The span is built directly from the two linear conditions defining it;
    the kernel is measured on the restricted bivector matrix.
    """
    space, policy = ctx.space, ctx.policy
    target_ddim, target_dind = lemma1_targets(space)

    def measure(Xs, entropies):
        for X, entropy in zip(Xs, entropies):
            span, marginal = ctx._points.tangent_span(entropy, X)
            if marginal:
                yield (0, 0), True, {}
                continue
            dind, marginal = _kernel_dim(space, X, span, policy)
            yield (span.shape[0], dind), marginal, {"ddim": span.shape[0], "dind": dind}

    values, witnesses = _measure_at_generic_points(ctx, "v", measure)
    ddims, dinds = zip(*values)
    return (
        _int_report(ctx, "lemma1.ddim", target_ddim, ddims, witnesses),
        _int_report(ctx, "lemma1.dind", target_dind, dinds, witnesses),
    )


def verify_completeness(
    ctx: ClaimContext,
    family: PolynomialFamily,
    target: int,
    mode: str = "ddim",
    claim_id: str = "completeness",
) -> CertificateReport:
    """Compare a measured rank quantity of the family against a closed form.

    ``mode`` "ddim" measures the gradient-span rank; "sum" measures the span
    rank plus the kernel dimension of the bivector on the span, the
    completeness criterion for families on the full product.
    """
    if mode not in ("ddim", "sum"):
        raise ConfigurationError(f"unknown completeness mode {mode!r}")
    space, policy = ctx.space, ctx.policy

    def measure(Xs, entropies):
        for gens, X, entropy in zip(ctx._points.gradients(family, entropies, Xs), Xs, entropies):
            if mode == "ddim":  # the rank alone: singular values, no basis
                span_dim, marginal = ctx._points.rank(family, entropy, gens)
                yield span_dim, marginal, {"ddim": span_dim}
                continue
            basis, marginal = row_space(_unit_rows(gens), policy)
            if marginal:
                yield 0, True, {}
                continue
            span = basis.reshape(-1, space.n, space.base.dim)
            dind, marginal = _kernel_dim(space, X, span, policy)
            yield len(span) + dind, marginal, {"ddim": len(span), "dind": dind}

    values, witnesses = _measure_at_generic_points(ctx, family.domain, measure)
    return _int_report(ctx, claim_id, target, values, witnesses)


def _largest_principal_angle(qa: np.ndarray, qb: np.ndarray) -> float:
    """Largest principal angle between the spans of orthonormal columns ``qa`` and ``qb``, as ``nullspace`` gives.

    Its sine, which keeps the digits of small angles, is the largest singular value of Qb - Qa Qa^T Qb with
    Qa the wider basis (Knyazev and Argentati, SIAM J. Sci. Comput. 23, 2002).
    """
    if qa.shape[1] < qb.shape[1]:
        qa, qb = qb, qa
    return float(np.arcsin(min(1.0, np.linalg.norm(qb - qa @ (qa.T @ qb), 2)))) if qb.shape[1] else 0.0


def verify_span_inclusion(
    ctx: ClaimContext, family: PolynomialFamily, claim_id: str = "span_inclusion"
) -> CertificateReport:
    """Gradients of a restricted family lie in the invariant tangent span.

    Membership is checked directly: for each gradient eta the diagonal part
    of the blockwise bracket [X, eta] must vanish.  The span itself is also
    cross-built from its orthogonal-complement characterization and the two
    constructions must agree to 1e-6 in their largest principal angle.
    """
    if family.domain != "v":
        raise ConfigurationError("span inclusion applies to restricted families")
    space, policy = ctx.space, ctx.policy

    def measure(Xs, entropies):
        etas = ctx._points.gradients(family, entropies, Xs)
        norms = space.norms(etas)
        moved = np.einsum("pikq,paiq->paik", space.base.ads(Xs), etas)  # [x_i, eta_a_i]
        keep = norms > 1e-14
        sizes = np.array([space.norm(X) for X in Xs])[:, None] * np.where(keep, norms, 1.0)
        defects = space.norms(space.proj_h(moved)) / sizes
        del moved
        for X, entropy, defect, kept in zip(Xs, entropies, defects, keep):
            direct, marginal_a = ctx._points.tangent_span(entropy, X)
            ortho, marginal_b = tangent_span_orthocomplement(space, X, policy)
            if marginal_a or marginal_b:
                yield 0.0, True, {}
                continue
            worst = float(defect[kept].max(initial=0.0))
            max_angle = _largest_principal_angle(
                direct.reshape(direct.shape[0], -1).T, ortho.reshape(ortho.shape[0], -1).T
            )
            ok = direct.shape[0] == ortho.shape[0] and max_angle <= 1e-6
            extra = {"defect": worst, "span_dim": direct.shape[0], "max_angle": max_angle, "constructions_agree": ok}
            yield (worst if ok else float("inf")), False, extra

    values, witnesses = _measure_at_generic_points(ctx, "v", measure)
    return _residual_report(ctx, claim_id, values, ctx.tol_bracket, witnesses)


# -- claims registry ---------------------------------------------------------


def _claim_thm2i(ctx: ClaimContext) -> list[CertificateReport]:
    family = ctx._points.flag_shift
    return [
        check_involutive(ctx, family, "thm2i.involutive"),
        check_ad_invariance(ctx, family, "thm2i.ad_invariance"),
    ]


def _claim_thm2ii(ctx: ClaimContext) -> list[CertificateReport]:
    """rank W + rank dF_c, with W the gradient span of the flag-momentum family F and F_c its leading flag-shift rows.

    Given ``thm2i``, it bounds dim W + dim ker(bivector on W) from below, and
    that sum is at most ``completeness_target`` for any family (README).
    """
    shift = generic_point(ctx.space, [ctx.seed, 104729], "k", policy=ctx.policy)
    central = ctx._points.flag_shift
    family = flag_momentum_family(ctx.space, shift, central)

    def measure(Xs, entropies):
        for gens, entropy in zip(ctx._points.gradients(family, entropies, Xs), entropies):
            ddim, marginal = ctx._points.rank(family, entropy, gens)
            central_rank, central_marginal = ctx._points.rank(central, entropy, gens[: len(central)])
            yield ddim + central_rank, marginal or central_marginal, {"ddim": ddim, "central_rank": central_rank}

    values, witnesses = _measure_at_generic_points(ctx, family.domain, measure)
    return [_int_report(ctx, "thm2ii.completeness_sum", completeness_target(ctx.space), values, witnesses)]


def _claim_dimb(ctx: ClaimContext) -> list[CertificateReport]:
    family = ctx._points.flag_shift
    return [verify_completeness(ctx, family, flag_rank_target(ctx.space), claim_id="dimB.ddim")]


def _claim_thm3(ctx: ClaimContext) -> list[CertificateReport]:
    family = restrict_family(ctx.space, ctx._points.flag_shift)
    target = restricted_rank_target(ctx.space)
    return [
        verify_completeness(ctx, family, target, claim_id="thm3.ddim"),
        check_involutive(ctx, family, "thm3.involutive"),
        verify_span_inclusion(ctx, family, "thm3.span_inclusion"),
    ]


# The momentum flow of the gaudin claim: 10^4 RK4 steps.
_GAUDIN_T_END, _GAUDIN_DT = 10.0, 1e-3


def _claim_gaudin(ctx: ClaimContext, flow: Callable[[], tuple[float, bool]] | None = None) -> list[CertificateReport]:
    """The Gaudin certificates; the momentum flow's (drift, aborted) comes from ``flow()``, else ``_gaudin_flow``."""
    space = ctx.space
    weights = ctx.weights()
    family = gaudin_family(space, weights)
    ham = dynamics.gaudin_hamiltonian(space, weights)

    def measure(Xs, entropies):
        for X in Xs:
            via_sum = dynamics.gaudin_field(space, weights, X)
            via_euler = dynamics.euler_field(space, ham, X)
            residual = space.norm(via_sum - via_euler) / (1.0 + space.norm(via_euler))
            yield residual, False, {"residual": residual}

    values, witnesses = _rounds(ctx._points, [[ctx.seed, t] for t in range(10)], "g", measure)
    reports = [
        _residual_report(ctx, "gaudin.field_identity", values, 1e-11, witnesses),
        check_involutive(ctx, family, "gaudin.involutive"),
        check_involutive(
            ctx, family, "gaudin.involutive_pencil", weights=np.asarray(weights, dtype=float)
        ),
        verify_completeness(
            ctx, restrict_family(space, family), restricted_rank_target(space),
            claim_id="gaudin.ddim_restricted",
        ),
    ]

    drift, aborted = flow() if flow is not None else _gaudin_flow(ctx)
    reports.append(
        _residual_report(
            ctx, "gaudin.momentum_drift", [drift], 1e-8,
            [{"t_end": _GAUDIN_T_END, "dt": _GAUDIN_DT, "aborted": aborted}],
            ok=not aborted,
        )
    )
    return reports


def _gaudin_flow(ctx: ClaimContext) -> tuple[float, bool]:
    """(momentum drift, aborted) of the Gaudin flow from the generic point at seed entropy [seed, 271]."""
    space = ctx.space
    flow = dynamics.FlowSpec(
        space=space,
        hamiltonian=dynamics.gaudin_hamiltonian(space, ctx.weights()),
        initial=generic_point(space, [ctx.seed, 271], "g", ctx.policy),
        t_end=_GAUDIN_T_END,
        dt=_GAUDIN_DT,
    )
    trajectory = dynamics.integrate(flow)
    return dynamics.momentum_drift(trajectory), trajectory.aborted


_REGISTRY: dict[str, Callable[[ClaimContext], Sequence[CertificateReport]]] = {
    "lemma1": lambda ctx: verify_lemma1(ctx),  # looked up at each call, so a wrapper installed on the module runs
    "thm2i": _claim_thm2i,
    "thm2ii": _claim_thm2ii,
    "dimB": _claim_dimb,
    "thm3": _claim_thm3,
    "gaudin": _claim_gaudin,
}

CLAIM_IDS = tuple(_REGISTRY)

# At n = 2 the zero-momentum slice holds only (x, -x), whose blocks share a
# centralizer, so these claims can never draw a generic point there.
_SLICE_CLAIMS = ("lemma1", "thm3", "gaudin")
# The claims whose certificates hold a residual to ``tol_bracket``; the others read no bracket tolerance.
BRACKET_CLAIMS = ("thm2i", "thm3", "gaudin")


def check_request(n: int, claim_ids: Sequence[str] | None, seed: int, trials: int, policy: RankPolicy,
                  tol_bracket: float, gaudin_weights: Sequence[float] | None) -> None:
    """Refuse, from n alone and before any space is built, a run that cannot give certificates.

    The settings of a ``ClaimContext`` on n factors are checked first.  Then,
    unless ``claim_ids`` is None, the selection: unknown or no claim ids, slice
    claims at n = 2, and ``gaudin`` with repeated weights, whose blocks share a
    pole that its rank target does not allow for.
    """
    check_factors(n)
    if seed < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {seed}")
    if trials < 1:
        raise ConfigurationError(f"trials must be at least 1, got {trials}")
    # finite, too: a document writes a number that is not finite as null, which only a failed row may hold
    if not 0 < tol_bracket < np.inf:
        raise ConfigurationError(f"tol_bracket must be positive and finite, got {tol_bracket}")
    if not 0 < policy.rel_tol < np.inf:
        raise ConfigurationError(f"policy.rel_tol (tol_rank) must be positive and finite, got {policy.rel_tol}")
    rel_tol, margin = policy.rel_tol, policy.margin
    if rel_tol * margin >= 1.0:
        raise ConfigurationError(
            f"policy.rel_tol (tol_rank) must be below 1 / margin = {1.0 / margin:g}, got {rel_tol:g}: "
            f"its marginal band ({rel_tol / margin:g}, {rel_tol * margin:g}) times the largest singular "
            f"value reaches the largest, so no kept singular value could clear the cutoff by the margin"
        )
    weights = spectral_weights(n, gaudin_weights)
    if claim_ids is None:
        return
    if not claim_ids:
        raise ConfigurationError(f"no claims selected; choose from {', '.join(CLAIM_IDS)} or 'all'")
    unknown = [c for c in claim_ids if c not in _REGISTRY]
    if unknown:
        raise ConfigurationError(f"unknown claim ids: {', '.join(unknown)}")
    on_slice = [c for c in _SLICE_CLAIMS if c in claim_ids]
    if n < 3 and on_slice:
        apply = ", ".join(c for c in CLAIM_IDS if c not in _SLICE_CLAIMS)
        raise ConfigurationError(
            f"claims {', '.join(on_slice)} need n >= 3 (at n = 2 the zero-momentum slice "
            f"has no generic point); at n = 2 only {apply} apply"
        )
    repeated = [a for a in dict.fromkeys(weights) if weights.count(a) > 1]
    if "gaudin" in claim_ids and repeated:
        blocks = ", ".join(str(i) for i, a in enumerate(weights) if a == repeated[0])
        raise ConfigurationError(
            f"claim gaudin needs distinct gaudin_weights (its rank target assumes one pole per block); "
            f"weight {repeated[0]:g} repeats at blocks {blocks}, which share one pole"
        )


def _run_claim(
    ctx: ClaimContext, claim: str, run: Callable[[ClaimContext], Sequence[CertificateReport]]
) -> list[CertificateReport]:
    """The reports of ``run(ctx)``, whose certificates share gradients (``_Points.claim``).

    A GenericityError or LinAlgError gives one FAIL record instead, the same one in this process and in a forked child.
    """
    try:
        with ctx._points.claim():
            return list(run(ctx))
    except (GenericityError, np.linalg.LinAlgError) as exc:
        error = str(exc) if isinstance(exc, GenericityError) else f"LinAlgError: {exc}"
        return [_report(ctx, claim, ctx.trials, np.nan, np.nan, 0.0, False, error=f"claim {claim}: {error}")]


def run_claims(ctx: ClaimContext, claim_ids: Sequence[str] | None = None) -> list[CertificateReport]:
    """Run the requested claims (all of them by default) in registry order.

    The run draws and gates each seeded point once per process, in a table
    of its own, and the certificates of one claim share each family's
    gradients at each point.  A claim that finds no generic point, or whose
    linear algebra fails to converge, gives one failed report with the error
    message (``_run_claim``); the other claims still run.  A request
    ``check_request`` refuses is refused before any draw.  Then at most one
    piece of work starts in the background (``dynamics.background``): with
    ``gaudin`` selected, its momentum flow (``_gaudin_flow``), which
    ``_claim_gaudin`` reads where the flow would run; otherwise, with
    ``thm3`` and another claim selected, the ``thm3`` claim, whose reports,
    last in registry order, are read where it would run.  A child whose
    answer is not read, because an earlier certificate raised, is killed and
    reaped before this returns.
    """
    if claim_ids is None or list(claim_ids) == ["all"]:
        claim_ids = list(CLAIM_IDS)
    check_request(ctx.space.n, claim_ids, ctx.seed, ctx.trials, ctx.policy, ctx.tol_bracket, ctx.gaudin_weights)
    ctx = replace(ctx)  # a table of its own
    background, work = None, ()  # the claim whose work runs in the background, and that work
    if "gaudin" in claim_ids:
        background, work = "gaudin", ("Gaudin flow", _gaudin_flow, ctx)
    elif "thm3" in claim_ids and len(set(claim_ids)) > 1:
        background, work = "thm3", ("thm3 claim", _run_claim, ctx, "thm3", _REGISTRY["thm3"])
    with dynamics.background(*work) if background else nullcontext() as answer:
        reports: list[CertificateReport] = []
        for claim in CLAIM_IDS:
            if claim not in claim_ids:
                continue
            if claim == background == "thm3":
                reports.extend(answer())
            else:
                run = partial(_claim_gaudin, flow=answer) if claim == "gaudin" else _REGISTRY[claim]
                reports.extend(_run_claim(ctx, claim, run))
    return reports
