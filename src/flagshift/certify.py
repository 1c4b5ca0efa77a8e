"""Certification of rank, involutivity and completeness claims.

Every certificate is measured at seeded generic points.  Genericity is
gated before any rank is trusted: each factor block must be regular, the
simultaneous centralizer of the blocks must vanish, and every singular
value spectrum involved must clear the rank cutoff by the policy margin.
Points failing a gate are resampled with a fresh derived seed, up to the
policy retry budget; trials that disagree after resampling fail the
certificate loudly instead of being averaged away.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import dynamics
from .algebra import LieAlgebra
from .errors import ConfigurationError, GenericityError
from .families import (
    PolynomialFamily,
    flag_momentum_family,
    flag_shift_family,
    gaudin_family,
    restrict_family,
)
from .poisson import (
    bivector_on_span,
    invariant_tangent_span,
    tangent_span_orthocomplement,
)
from .product import ProductSpace
from .ranks import DEFAULT_POLICY, RankPolicy, numerical_rank, row_space
from scipy.linalg import subspace_angles

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
    "describe_claims",
    "run_claims",
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
    ``tol_bracket``.
    """

    space: ProductSpace
    seed: int = 42
    trials: int = 7
    policy: RankPolicy = DEFAULT_POLICY
    tol_bracket: float = 1e-9
    gaudin_weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ConfigurationError(f"trials must be at least 1, got {self.trials}")
        if not self.tol_bracket > 0:
            raise ConfigurationError(f"tol_bracket must be positive, got {self.tol_bracket}")
        if not self.policy.rel_tol > 0:
            raise ConfigurationError(
                f"policy.rel_tol (tol_rank) must be positive, got {self.policy.rel_tol}"
            )

    def weights(self) -> tuple[float, ...]:
        if self.gaudin_weights is not None:
            return self.gaudin_weights
        return tuple(float(i) for i in range(1, self.space.n + 1))


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


def _draw(context, entropy: list[int], domain: str) -> np.ndarray:
    rng = np.random.default_rng(entropy)
    if domain == "k":
        algebra = context if isinstance(context, LieAlgebra) else context.base
        return algebra.random_element(rng)
    if domain == "g":
        return context.random_point(rng)
    return context.random_v_point(rng)


def _gates_ok(context, X: np.ndarray, domain: str, policy: RankPolicy) -> bool:
    """Every block is regular; on the product the blocks share no centralizer."""
    algebra = context if isinstance(context, LieAlgebra) else context.base
    ads = algebra.ads(np.atleast_2d(X))
    for ad in ads:
        result = numerical_rank(ad, policy)
        if result.marginal or algebra.dim - result.rank != algebra.rank:
            return False
    if domain == "k":
        return True
    result = numerical_rank(np.vstack(ads), policy)
    return not result.marginal and result.rank == algebra.dim


def _gated_draws(
    context, seed_parts: Iterable[int], domain: str, policy: RankPolicy
) -> Iterator[tuple[list[int], np.ndarray]]:
    """Yield (entropy, X) for the seeded draws that pass the genericity gates.

    Draw r uses entropy [*seed_parts, r] for r = 0 .. policy.max_retries; a
    caller that rejects a yielded point asks for the next one.  Running out
    of draws raises a GenericityError naming the domain and the entropy.
    """
    seed_parts = [int(p) for p in seed_parts]
    for retry in range(policy.max_retries + 1):
        entropy = seed_parts + [retry]
        X = _draw(context, entropy, domain)
        if _gates_ok(context, X, domain, policy):
            yield entropy, X
    pattern = ", ".join(str(p) for p in seed_parts + ["r"])
    raise GenericityError(
        f"no generic point in domain {domain!r} was accepted from seed entropy "
        f"[{pattern}], r = 0..{policy.max_retries}"
    )


def generic_point(
    context,
    seed_parts: Iterable[int],
    domain: str = "g",
    policy: RankPolicy = DEFAULT_POLICY,
) -> np.ndarray:
    """Seeded point passing the genericity gates, resampled as needed."""
    for _, X in _gated_draws(context, seed_parts, domain, policy):
        return X


def _measure_at_generic_points(ctx: ClaimContext, domain: str, measure):
    """Run ``measure`` at one generic point per trial, resampling marginal points.

    ``measure`` returns (value, marginal, extra); a marginal result discards
    the point and burns a retry, exactly like a failed genericity gate.
    """
    values, witnesses = [], []
    for trial in range(ctx.trials):
        for entropy, X in _gated_draws(ctx.space, [ctx.seed, trial], domain, ctx.policy):
            value, marginal, extra = measure(X, entropy)
            if not marginal:
                values.append(value)
                witnesses.append({"trial": trial, "retries": entropy[-1], **extra})
                break
    return values, witnesses


def _modal(values: list) -> tuple:
    counts = Counter(values)
    value, _ = counts.most_common(1)[0]
    return value, len(counts) == 1


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


def _residual_report(ctx, claim_id, values, tol, witnesses, ok=True) -> CertificateReport:
    """Worst residual over the trials against a tolerance; ``ok`` can veto a pass."""
    worst = max(values)
    return CertificateReport(
        claim_id=claim_id,
        algebra=ctx.space.base.name,
        n=ctx.space.n,
        seed=ctx.seed,
        trials=len(values),
        formula_value=0.0,
        measured_value=worst,
        tolerance=tol,
        passed=bool(ok and worst <= tol),
        witnesses=tuple(witnesses),
    )


def _int_report(ctx, claim_id, formula, values, witnesses) -> CertificateReport:
    """Modal integer over the trials against a closed form; trials must agree."""
    value, unanimous = _modal(values)
    return CertificateReport(
        claim_id=claim_id,
        algebra=ctx.space.base.name,
        n=ctx.space.n,
        seed=ctx.seed,
        trials=len(values),
        formula_value=int(formula),
        measured_value=int(value),
        tolerance=0.0,
        passed=unanimous and int(value) == int(formula),
        witnesses=tuple(witnesses),
    )


# -- involutivity and invariance ------------------------------------------------


def _involutivity_residual(
    space: ProductSpace,
    family: PolynomialFamily,
    X: np.ndarray,
    weights: np.ndarray | None = None,
) -> float:
    """Max normalized |{f, g}| over member pairs at X."""
    gens = family.gradients(X)
    matrix = bivector_on_span(space, X, gens, weights)
    norms = space.norms(gens)
    scale = np.outer(norms, norms) * space.norm(X)
    residual = np.where(scale > 0.0, np.abs(matrix) / np.where(scale > 0.0, scale, 1.0), 0.0)
    return float(residual.max())


def check_involutive(
    ctx: ClaimContext,
    family: PolynomialFamily,
    claim_id: str = "involutive",
    weights: np.ndarray | None = None,
) -> CertificateReport:
    """Pairwise bracket residuals of the family at generic points."""

    def measure(X, entropy):
        residual = _involutivity_residual(ctx.space, family, X, weights)
        return residual, False, {"residual": residual}

    values, witnesses = _measure_at_generic_points(ctx, family.domain, measure)
    return _residual_report(ctx, claim_id, values, ctx.tol_bracket, witnesses)


def check_ad_invariance(
    ctx: ClaimContext, family: PolynomialFamily, claim_id: str = "ad_invariance"
) -> CertificateReport:
    """Invariance of member values under ten random diagonal adjoint actions."""
    space = ctx.space

    def measure(X, entropy):
        rng = np.random.default_rng(entropy + [7919])
        base = family.values(X)
        worst = 0.0
        for _ in range(10):
            y = space.base.random_element(rng, 0.8)
            moved = space.diagonal_adjoint(y, X)
            delta = np.abs(family.values(moved) - base) / (1.0 + np.abs(base))
            worst = max(worst, float(delta.max()))
        return worst, False, {"residual": worst}

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

    def measure(X, entropy):
        span, marginal = invariant_tangent_span(space, X, policy)
        if marginal:
            return (0, 0), True, {}
        dind, marginal = _kernel_dim(space, X, span, policy)
        return (span.shape[0], dind), marginal, {"ddim": span.shape[0], "dind": dind}

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

    def measure(X, entropy):
        # Unit rows: gradients of degree 2 and degree m members differ by decades.
        rows = family.gradients(X).reshape(len(family), -1)
        norms = np.linalg.norm(rows, axis=1, keepdims=True)
        basis, marginal = row_space(rows / np.where(norms > 0.0, norms, 1.0), policy)
        if marginal:
            return 0, True, {}
        span_dim = basis.shape[0]
        if mode == "ddim":
            return span_dim, False, {"ddim": span_dim}
        span = basis.reshape(-1, space.n, space.base.dim)
        dind, marginal = _kernel_dim(space, X, span, policy)
        return span_dim + dind, marginal, {"ddim": span_dim, "dind": dind}

    values, witnesses = _measure_at_generic_points(ctx, family.domain, measure)
    return _int_report(ctx, claim_id, target, values, witnesses)


def verify_span_inclusion(
    ctx: ClaimContext, family: PolynomialFamily, claim_id: str = "span_inclusion"
) -> CertificateReport:
    """Gradients of a restricted family lie in the invariant tangent span.

    Membership is checked directly: for each gradient eta the diagonal part
    of the blockwise bracket [X, eta] must vanish.  The span itself is also
    cross-built from its orthogonal-complement characterization and the two
    constructions must agree to 1e-6 in principal angle.
    """
    if family.domain != "v":
        raise ConfigurationError("span inclusion applies to restricted families")
    space, policy = ctx.space, ctx.policy

    def measure(X, entropy):
        etas = family.gradients(X)
        norms = space.norms(etas)
        moved = np.einsum("ikq,aiq->aik", space.base.ads(X), etas)  # [x_i, eta_a_i]
        keep = norms > 1e-14
        defects = space.norms(space.proj_h(moved))[keep] / (space.norm(X) * norms[keep])
        worst = float(defects.max(initial=0.0))

        direct, marginal_a = invariant_tangent_span(space, X, policy)
        ortho, marginal_b = tangent_span_orthocomplement(space, X, policy)
        if marginal_a or marginal_b:
            return 0.0, True, {}
        same_dim = direct.shape[0] == ortho.shape[0]
        angles = subspace_angles(
            direct.reshape(direct.shape[0], -1).T, ortho.reshape(ortho.shape[0], -1).T
        )
        max_angle = float(angles.max()) if angles.size else 0.0
        ok = same_dim and max_angle <= 1e-6
        extra = {
            "defect": worst,
            "span_dim": direct.shape[0],
            "max_angle": max_angle,
            "constructions_agree": bool(ok),
        }
        return (worst if ok else float("inf")), False, extra

    values, witnesses = _measure_at_generic_points(ctx, "v", measure)
    return _residual_report(ctx, claim_id, values, ctx.tol_bracket, witnesses)


# -- claims registry ---------------------------------------------------------


def _claim_lemma1(ctx: ClaimContext) -> list[CertificateReport]:
    return list(verify_lemma1(ctx))


def _claim_thm2i(ctx: ClaimContext) -> list[CertificateReport]:
    family = flag_shift_family(ctx.space)
    return [
        check_involutive(ctx, family, "thm2i.involutive"),
        check_ad_invariance(ctx, family, "thm2i.ad_invariance"),
    ]


def _claim_thm2ii(ctx: ClaimContext) -> list[CertificateReport]:
    shift = generic_point(ctx.space.base, [ctx.seed, 104729], "k", policy=ctx.policy)
    family = flag_momentum_family(ctx.space, shift)
    target = completeness_target(ctx.space)
    return [
        verify_completeness(ctx, family, target, mode="sum", claim_id="thm2ii.completeness_sum")
    ]


def _claim_dimb(ctx: ClaimContext) -> list[CertificateReport]:
    family = flag_shift_family(ctx.space)
    return [verify_completeness(ctx, family, flag_rank_target(ctx.space), claim_id="dimB.ddim")]


def _claim_thm3(ctx: ClaimContext) -> list[CertificateReport]:
    family = restrict_family(ctx.space, flag_shift_family(ctx.space))
    target = restricted_rank_target(ctx.space)
    return [
        verify_completeness(ctx, family, target, claim_id="thm3.ddim"),
        check_involutive(ctx, family, "thm3.involutive"),
        verify_span_inclusion(ctx, family, "thm3.span_inclusion"),
    ]


def _claim_gaudin(ctx: ClaimContext) -> list[CertificateReport]:
    space = ctx.space
    weights = ctx.weights()
    family = gaudin_family(space, weights)

    def measure(X, entropy):
        ham = dynamics.gaudin_hamiltonian(space, weights)
        via_sum = dynamics.gaudin_field(space, weights, X)
        via_euler = dynamics.euler_field(space, ham, X)
        residual = space.norm(via_sum - via_euler) / (1.0 + space.norm(via_euler))
        return residual, False, {"residual": residual}

    values, witnesses = _measure_at_generic_points(replace(ctx, trials=10), "g", measure)
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

    initial = generic_point(space, [ctx.seed, 271], "g", ctx.policy)
    t_end, dt = 10.0, 1e-3
    flow = dynamics.FlowSpec(
        space=space,
        hamiltonian=dynamics.gaudin_hamiltonian(space, weights),
        initial=initial,
        t_end=t_end,
        dt=dt,
    )
    trajectory = dynamics.integrate(flow)
    drift = dynamics.momentum_drift(space, trajectory)
    reports.append(
        _residual_report(
            ctx, "gaudin.momentum_drift", [drift], 1e-8,
            [{"t_end": t_end, "dt": dt, "aborted": trajectory.aborted}],
            ok=not trajectory.aborted,
        )
    )
    return reports


_REGISTRY: dict[str, Callable[[ClaimContext], list[CertificateReport]]] = {
    "lemma1": _claim_lemma1,
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

_DESCRIPTIONS = {
    "lemma1": "rank and bivector-kernel dimension of the invariant tangent span",
    "thm2i": "flag-shift family commutes and is invariant under the diagonal action",
    "thm2ii": "flag-shift family plus momentum polynomials is complete on the product",
    "dimB": "rank of the flag-shift family matches its closed form",
    "thm3": "restricted family: rank, involutivity and gradient span inclusion",
    "gaudin": "spectral family: field identity, commutativity, rank, momentum drift",
}


def describe_claims() -> dict[str, str]:
    return dict(_DESCRIPTIONS)


def run_claims(ctx: ClaimContext, claim_ids: Sequence[str] | None = None) -> list[CertificateReport]:
    """Run the requested claims (all of them by default) in registry order.

    A claim that finds no generic point gives one failed report with the
    error message; the other claims still run.
    """
    if claim_ids is None or list(claim_ids) == ["all"]:
        claim_ids = list(CLAIM_IDS)
    unknown = [c for c in claim_ids if c not in _REGISTRY]
    if unknown:
        raise ConfigurationError(f"unknown claim ids: {', '.join(unknown)}")
    on_slice = [c for c in _SLICE_CLAIMS if c in claim_ids]
    if ctx.space.n < 3 and on_slice:
        apply = ", ".join(c for c in CLAIM_IDS if c not in _SLICE_CLAIMS)
        raise ConfigurationError(
            f"claims {', '.join(on_slice)} need n >= 3 (at n = 2 the zero-momentum slice "
            f"has no generic point); at n = 2 only {apply} apply"
        )
    reports: list[CertificateReport] = []
    for claim in CLAIM_IDS:
        if claim in claim_ids:
            try:
                reports.extend(_REGISTRY[claim](ctx))
            except GenericityError as exc:
                nan = float("nan")
                reports.append(
                    CertificateReport(
                        claim, ctx.space.base.name, ctx.space.n, ctx.seed, ctx.trials,
                        nan, nan, 0.0, False, (), error=f"claim {claim}: {exc}",
                    )
                )
    return reports
