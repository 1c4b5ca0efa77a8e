"""Certification of rank, involutivity and completeness claims.

Every certificate is measured at seeded generic points.  Genericity is
gated before any rank is trusted: each factor block must be regular, the
simultaneous centralizer of the blocks must vanish, and every singular
value spectrum involved must clear the rank cutoff by the policy margin.
Points failing a gate are resampled with a fresh derived seed, up to the
policy retry budget; trials that disagree after resampling fail the
certificate loudly instead of being averaged away.  Within one run every
seeded point is drawn and gated once and shared by the certificates that
read it.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cached_property
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
    spectral_weights,
)
from .poisson import (
    bivector_on_span,
    invariant_tangent_span,
    tangent_span_orthocomplement,
)
from .product import ProductSpace
from .ranks import DEFAULT_POLICY, RankPolicy, numerical_rank, row_space

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
    ``tol_bracket``; the ``gaudin`` claim reads ``gaudin_weights``, checked by
    ``spectral_weights`` (None reads 1..n).  ``_points`` is not a setting: it is
    the table of generic points drawn so far (``_Points``), fresh for each new
    space or policy, shared by ``replace`` otherwise, and fresh for each ``run_claims``.
    """

    space: ProductSpace
    seed: int = 42
    trials: int = 7
    policy: RankPolicy = DEFAULT_POLICY
    tol_bracket: float = 1e-9
    gaudin_weights: tuple[float, ...] | None = None
    _points: _Points | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigurationError(f"seed must be a non-negative integer, got {self.seed}")
        if self.trials < 1:
            raise ConfigurationError(f"trials must be at least 1, got {self.trials}")
        if not self.tol_bracket > 0:
            raise ConfigurationError(f"tol_bracket must be positive, got {self.tol_bracket}")
        if not self.policy.rel_tol > 0:
            raise ConfigurationError(
                f"policy.rel_tol (tol_rank) must be positive, got {self.policy.rel_tol}"
            )
        self.weights()  # invalid spectral weights are refused before any claim runs
        if self._points is None or not self._points.serves(self.space, self.policy):
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


def _draw(context, entropy: list[int], domain: str) -> np.ndarray:
    rng = np.random.default_rng(entropy)
    if domain == "k":
        algebra = context if isinstance(context, LieAlgebra) else context.base
        return algebra.random_element(rng)
    if domain == "g":
        return context.random_point(rng)
    return context.random_v_point(rng)


def _failed_gate(context, X: np.ndarray, domain: str, policy: RankPolicy) -> str | None:
    """The first genericity gate X fails, or None.

    Every block must be regular; on the product the blocks must also share
    no centralizer.
    """
    algebra = context if isinstance(context, LieAlgebra) else context.base
    dims, marginal = algebra.isotropy(np.atleast_2d(X), policy)
    if marginal.any() or np.any(dims != algebra.rank):
        return "block regularity"
    if domain == "k":
        return None
    result = numerical_rank(np.vstack(algebra.ads(X)), policy)
    if result.marginal or result.rank != algebra.dim:
        return "diagonal centralizer"
    return None


def _at_entropy(entropy: list[int], fn: Callable, *args):
    """fn(*args), naming the seed entropy in a LinAlgError it raises."""
    try:
        return fn(*args)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(f"{exc} (seed entropy {entropy})") from exc


class _Points:
    """The seeded points drawn in ``context`` under ``policy``, each drawn and gated once.

    A (domain, entropy) key holds the accepted point, read-only, or the name
    of the gate that rejected it.  A v point also keeps its invariant tangent
    span, and the flag-shift family is built once.  Gradient stacks, the
    large arrays, are shared only inside ``claim()`` and dropped when it ends.
    """

    def __init__(self, context, policy: RankPolicy):
        self.context, self.policy = context, policy
        self._draws: dict = {}
        self._spans: dict = {}
        self._gradients: dict | None = None

    def serves(self, context, policy: RankPolicy) -> bool:
        return self.context is context and self.policy == policy

    def draw(self, entropy: list[int], domain: str) -> tuple[np.ndarray | None, str | None]:
        """(point, None) for an accepted draw, (None, gate) for a rejected one."""
        key = (domain, tuple(entropy))
        if key not in self._draws:
            X = _draw(self.context, entropy, domain)
            gate = _at_entropy(entropy, _failed_gate, self.context, X, domain, self.policy)
            X.flags.writeable = False
            self._draws[key] = (None, gate) if gate else (X, None)
        return self._draws[key]

    def tangent_span(self, entropy: list[int], X: np.ndarray) -> tuple[np.ndarray, bool]:
        """``invariant_tangent_span`` at the v point drawn from ``entropy``."""
        key = tuple(entropy)
        if key not in self._spans:
            span, marginal = invariant_tangent_span(self.context, X, self.policy)
            span.flags.writeable = False
            self._spans[key] = span, marginal
        return self._spans[key]

    @cached_property
    def flag_shift(self) -> PolynomialFamily:
        return flag_shift_family(self.context)

    @contextmanager
    def claim(self):
        """Share each family's gradients at each point among the certificates of one claim."""
        self._gradients = {}
        try:
            yield
        finally:
            self._gradients = None

    def gradients(self, family: PolynomialFamily, entropy: list[int], X: np.ndarray) -> np.ndarray:
        """``family.gradients(X)``, computed once per (family, point) inside ``claim()``."""
        if self._gradients is None:
            return family.gradients(X)
        key = (id(family), tuple(entropy))
        if key not in self._gradients:
            gens = family.gradients(X)
            gens.flags.writeable = False
            self._gradients[key] = family, gens  # the family held keeps its id unique
        return self._gradients[key][1]


def _gated_draws(
    points: _Points, seed_parts: Iterable[int], domain: str
) -> Iterator[tuple[list[int], np.ndarray, list[str]]]:
    """Yield (entropy, X, rejected) for the seeded draws that pass the genericity gates.

    Draw r uses entropy [*seed_parts, r] for r = 0 .. policy.max_retries; a
    caller that rejects a yielded point asks for the next one.  ``rejected``
    names the gate that rejected each earlier draw, in order.  Running out
    of draws raises a GenericityError naming the domain, the entropy and the
    gate that rejected each draw.
    """
    seed_parts = [int(p) for p in seed_parts]
    rejected: list[str] = []
    for retry in range(points.policy.max_retries + 1):
        entropy = seed_parts + [retry]
        X, gate = points.draw(entropy, domain)
        if X is not None:
            yield entropy, X, list(rejected)
            gate = "marginal measurement"
        rejected.append(gate)
    retries = {gate: ", ".join(str(r) for r, g in enumerate(rejected) if g == gate) for gate in rejected}
    gates = ", ".join(f"{gate} (r = {rs})" for gate, rs in retries.items())
    pattern = ", ".join(str(p) for p in seed_parts + ["r"])
    raise GenericityError(
        f"no generic point in domain {domain!r} was accepted from seed entropy "
        f"[{pattern}], r = 0..{points.policy.max_retries}; rejected by {gates}"
    )


def generic_point(
    context,
    seed_parts: Iterable[int],
    domain: str = "g",
    policy: RankPolicy = DEFAULT_POLICY,
) -> np.ndarray:
    """Seeded point passing the genericity gates, resampled as needed; read-only."""
    for _, X, _ in _gated_draws(_Points(context, policy), seed_parts, domain):
        return X


def _measure_at_generic_points(ctx: ClaimContext, domain: str, measure):
    """Run ``measure`` at one generic point per trial, resampling marginal points.

    ``measure`` returns (value, marginal, extra); a marginal result discards
    the point and burns a retry, exactly like a failed genericity gate.  A
    witness that burned retries names the gate that rejected each one.
    """
    values, witnesses = [], []
    for trial in range(ctx.trials):
        for entropy, X, rejected in _gated_draws(ctx._points, [ctx.seed, trial], domain):
            value, marginal, extra = _at_entropy(entropy, measure, X, entropy)
            if not marginal:
                values.append(value)
                burned = {"rejected": rejected} if rejected else {}
                witnesses.append({"trial": trial, "retries": entropy[-1], **burned, **extra})
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
    """Worst residual over the trials against a tolerance (NaN if any trial is); ``ok`` can veto a pass."""
    worst = float(np.max(values))
    return CertificateReport(
        claim_id, ctx.space.base.name, ctx.space.n, ctx.seed, len(values),
        0.0, worst, tol, bool(ok and worst <= tol), tuple(witnesses),
    )


def _int_report(ctx, claim_id, formula, values, witnesses) -> CertificateReport:
    """Modal integer over the trials against a closed form; trials must agree."""
    value, unanimous = _modal(values)
    return CertificateReport(
        claim_id, ctx.space.base.name, ctx.space.n, ctx.seed, len(values),
        int(formula), int(value), 0.0, unanimous and int(value) == int(formula), tuple(witnesses),
    )


# -- involutivity and invariance ------------------------------------------------


def _involutivity_residual(
    space: ProductSpace,
    gens: np.ndarray,
    X: np.ndarray,
    weights: np.ndarray | None = None,
) -> float:
    """Max normalized |{f, g}| over the pairs of members with gradients ``gens`` at X."""
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
        gens = ctx._points.gradients(family, entropy, X)
        residual = _involutivity_residual(ctx.space, gens, X, weights)
        return residual, False, {"residual": residual}

    values, witnesses = _measure_at_generic_points(ctx, family.domain, measure)
    return _residual_report(ctx, claim_id, values, ctx.tol_bracket, witnesses)


def check_ad_invariance(
    ctx: ClaimContext, family: PolynomialFamily, claim_id: str = "ad_invariance"
) -> CertificateReport:
    """Invariance of member values under ten random diagonal adjoint actions.

    The values at X and at its ten images come from one call on the stack.
    """
    space = ctx.space

    def measure(X, entropy):
        rng = np.random.default_rng(entropy + [7919])
        moved = [space.diagonal_adjoint(space.base.random_element(rng, 0.8), X) for _ in range(10)]
        stacked = family.values(np.stack([X, *moved]))
        worst = float((np.abs(stacked[1:] - stacked[0]) / (1.0 + np.abs(stacked[0]))).max())
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
        span, marginal = ctx._points.tangent_span(entropy, X)
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
        rows = ctx._points.gradients(family, entropy, X).reshape(len(family), -1)
        norms = np.linalg.norm(rows, axis=1, keepdims=True)
        rows = rows / np.where(norms > 0.0, norms, 1.0)
        if mode == "ddim":  # the rank alone: singular values, no basis
            span_dim, marginal = numerical_rank(rows, policy)
            return span_dim, marginal, {"ddim": span_dim}
        basis, marginal = row_space(rows, policy)
        if marginal:
            return 0, True, {}
        span = basis.reshape(-1, space.n, space.base.dim)
        dind, marginal = _kernel_dim(space, X, span, policy)
        return len(span) + dind, marginal, {"ddim": len(span), "dind": dind}

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

    def measure(X, entropy):
        etas = ctx._points.gradients(family, entropy, X)
        norms = space.norms(etas)
        moved = np.einsum("ikq,aiq->aik", space.base.ads(X), etas)  # [x_i, eta_a_i]
        keep = norms > 1e-14
        defects = space.norms(space.proj_h(moved))[keep] / (space.norm(X) * norms[keep])
        worst = float(defects.max(initial=0.0))

        direct, marginal_a = ctx._points.tangent_span(entropy, X)
        ortho, marginal_b = tangent_span_orthocomplement(space, X, policy)
        if marginal_a or marginal_b:
            return 0.0, True, {}
        same_dim = direct.shape[0] == ortho.shape[0]
        max_angle = _largest_principal_angle(
            direct.reshape(direct.shape[0], -1).T, ortho.reshape(ortho.shape[0], -1).T
        )
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
    family = ctx._points.flag_shift
    return [
        check_involutive(ctx, family, "thm2i.involutive"),
        check_ad_invariance(ctx, family, "thm2i.ad_invariance"),
    ]


def _claim_thm2ii(ctx: ClaimContext) -> list[CertificateReport]:
    shift = generic_point(ctx.space.base, [ctx.seed, 104729], "k", policy=ctx.policy)
    family = flag_momentum_family(ctx.space, shift, ctx._points.flag_shift)
    target = completeness_target(ctx.space)
    return [
        verify_completeness(ctx, family, target, mode="sum", claim_id="thm2ii.completeness_sum")
    ]


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


def _claim_gaudin(ctx: ClaimContext) -> list[CertificateReport]:
    space = ctx.space
    weights = ctx.weights()
    family = gaudin_family(space, weights)
    ham = dynamics.gaudin_hamiltonian(space, weights)

    def measure(X, entropy):
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
        hamiltonian=ham,
        initial=initial,
        t_end=t_end,
        dt=dt,
    )
    trajectory = dynamics.integrate(flow)
    drift = dynamics.momentum_drift(trajectory)
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

def run_claims(ctx: ClaimContext, claim_ids: Sequence[str] | None = None) -> list[CertificateReport]:
    """Run the requested claims (all of them by default) in registry order.

    The run draws and gates each seeded point once, in a table of its own,
    and the certificates of one claim share each family's gradients at each
    point.  A claim that finds no generic point, or whose linear algebra
    fails to converge, gives one failed report with the error message; the
    other claims still run.
    """
    if claim_ids is None or list(claim_ids) == ["all"]:
        claim_ids = list(CLAIM_IDS)
    if not claim_ids:
        raise ConfigurationError(f"no claims selected; choose from {', '.join(CLAIM_IDS)} or 'all'")
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
    ctx = replace(ctx, _points=None)
    reports: list[CertificateReport] = []
    for claim in CLAIM_IDS:
        if claim in claim_ids:
            try:
                with ctx._points.claim():
                    reports.extend(_REGISTRY[claim](ctx))
            except (GenericityError, np.linalg.LinAlgError) as exc:
                detail = exc if isinstance(exc, GenericityError) else f"LinAlgError: {exc}"
                nan = float("nan")
                reports.append(
                    CertificateReport(
                        claim, ctx.space.base.name, ctx.space.n, ctx.seed, ctx.trials,
                        nan, nan, 0.0, False, (), error=f"claim {claim}: {detail}",
                    )
                )
    return reports
