"""Certification layer: sampling gates, rank estimates, claim reports."""

import json
import os
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from flagshift import ProductSpace, build_algebra, dynamics
from flagshift.algebra import LieAlgebra
from flagshift.certify import (
    BRACKET_CLAIMS,
    CLAIM_IDS,
    CertificateReport,
    ClaimContext,
    check_ad_invariance,
    check_involutive,
    completeness_target,
    flag_rank_target,
    generic_point,
    lemma1_targets,
    restricted_rank_target,
    run_claims,
    verify_completeness,
    verify_lemma1,
    verify_span_inclusion,
)
from flagshift.certify import _draw, _largest_principal_angle, _measure_at_generic_points, _residual_report, _rounds
from flagshift.errors import ConfigurationError, GenericityError
from flagshift.families import (
    PolynomialFamily,
    flag_momentum_family,
    flag_shift_family,
    gaudin_family,
    restrict_family,
)
from flagshift.ranks import RankPolicy, numerical_rank, row_space


def test_generic_point_is_deterministic(su2n3):
    a = generic_point(su2n3, [5, 1], "g")
    b = generic_point(su2n3, [5, 1], "g")
    c = generic_point(su2n3, [5, 2], "g")
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_generic_point_domains(su2n3, su2):
    X = generic_point(su2n3, [5, 3], "v")
    assert su2n3.in_v(X)
    x = generic_point(su2, [5, 4], "k")
    assert x.shape == (3,)
    assert su2.isotropy_dim(x) == 1


@pytest.mark.parametrize("context", ["space", "algebra"])
def test_generic_point_refuses_an_unknown_domain(su2n3, context):
    where = su2n3 if context == "space" else su2n3.base
    with pytest.raises(ConfigurationError, match="unknown domain 'x', expected 'k', 'g' or 'v'"):
        generic_point(where, [1], "x")


def test_generic_point_exhausts_retries(su2n3):
    impossible = RankPolicy(rel_tol=1e-8, margin=1e12, max_retries=2)
    with pytest.raises(GenericityError):
        generic_point(su2n3, [5, 5], "g", policy=impossible)


def _accepted_draw(ctx, trial, domain):
    """(entropy, X) of the trial's first draw that passes the gates."""
    for retry in range(ctx.policy.max_retries + 1):
        entropy = [ctx.seed, trial, retry]
        ((X, _),) = ctx._points.draw([entropy], domain)
        if X is not None:
            return entropy, X


def test_generic_point_on_a_bare_algebra_draws_in_k_alone(su3):
    # n enters neither a "k" draw nor a "k" gate, so a bare algebra stands for any product of it
    x = generic_point(su3, [5, 4], "k")
    for n in (2, 3):
        space = ProductSpace(su3, n)
        assert np.array_equal(x, generic_point(space, [5, 4], "k")) and np.array_equal(x, _draw(space, [5, 4, 0], "k"))
    impossible = RankPolicy(rel_tol=1e-8, margin=1e12, max_retries=2)
    errors = []
    for context in (su3, ProductSpace(su3, 3)):
        with pytest.raises(GenericityError) as caught:
            generic_point(context, [5, 4], "k", policy=impossible)
        errors.append(str(caught.value))
    assert errors[0] == errors[1] and "domain 'k'" in errors[0]
    for domain in ("g", "v"):
        with pytest.raises(ConfigurationError, match=f"domain '{domain}' draws on a ProductSpace"):
            generic_point(su3, [5, 4], domain)


def test_sampler_resamples_marginal_measurements(su2n3):
    # The first k gated draws are flagged marginal; the witness records the
    # burned retries and the accepted point is the draw for [seed, trial, k].
    k = 3
    seen = []

    def measure(Xs, entropies):
        seen.extend(zip(map(list, entropies), Xs))
        return [(len(seen), len(seen) <= k, {}) for _ in Xs]

    policy = RankPolicy()
    ctx = ClaimContext(su2n3, seed=9, trials=1, policy=policy)
    values, witnesses = _measure_at_generic_points(ctx, "g", measure)
    assert [entropy for entropy, _ in seen] == [[9, 0, r] for r in range(k + 1)]
    assert values == [k + 1]
    assert witnesses == [{"trial": 0, "retries": k, "rejected": ["marginal measurement"] * k}]
    assert np.array_equal(seen[-1][1], _draw(su2n3, [9, 0, k], "g"))


def test_sampler_gives_up_when_every_draw_is_marginal(su2n3):
    policy = RankPolicy(max_retries=3)
    ctx = ClaimContext(su2n3, seed=9, trials=2, policy=policy)
    seen = []

    def measure(Xs, entropies):
        seen.extend(map(list, entropies))
        return [(0, True, {}) for _ in Xs]

    with pytest.raises(GenericityError, match=r"domain 'g'.*\[9, 0, r\], r = 0\.\.3"):
        _measure_at_generic_points(ctx, "g", measure)
    # each round measures every open trial in one call; trial 0 is named
    assert seen == [[9, t, r] for r in range(policy.max_retries + 1) for t in range(2)]


def test_genericity_error_names_the_gate_that_rejected_each_draw(su2, su3):
    # A band (0.009, 0.9) of the largest gap holds one of su(3)'s two smaller
    # eigenvalue gaps at almost every draw.  (A ClaimContext refuses a band
    # that reaches the largest value, which su(2)'s gaps would need.)
    impossible = RankPolicy(rel_tol=0.09, max_retries=2)
    (report,) = run_claims(ClaimContext(ProductSpace(su3, 3), policy=impossible), ["dimB"])
    assert report.error == (
        "claim dimB: no generic point in domain 'g' was accepted from seed entropy "
        "[42, 0, r], r = 0..2; rejected by block regularity (r = 0, 1, 2)"
    )
    # at n = 2 the slice holds only (x, -x): regular blocks sharing their centralizer
    with pytest.raises(GenericityError, match=r"rejected by diagonal centralizer \(r = 0, 1, 2, 3, 4, 5\)$"):
        generic_point(ProductSpace(su2, 2), [5], "v")


def test_a_witness_names_the_gate_that_rejected_each_retry(su2n3, monkeypatch):
    from flagshift import certify

    gates = certify._failed_gates
    irregular = _draw(su2n3, [42, 0, 0], "g")

    def first_draw_irregular(context, Xs, domain, policy):
        found = gates(context, Xs, domain, policy)
        return ["block regularity" if np.array_equal(X, irregular) else gate for X, gate in zip(Xs, found)]

    monkeypatch.setattr(certify, "_failed_gates", first_draw_irregular)
    (report,) = run_claims(ClaimContext(su2n3, trials=3), ["dimB"])
    assert report.passed
    assert report.witnesses[0] == {"trial": 0, "retries": 1, "rejected": ["block regularity"], "ddim": 5}
    # a trial that burned no retry has no "rejected" key
    assert [w.get("rejected") for w in report.witnesses[1:]] == [None, None]

    # gates and marginal measurements in the order the retries were burned
    ctx = ClaimContext(su2n3, trials=1)
    values, witnesses = _measure_at_generic_points(
        ctx, "g", lambda Xs, entropies: [(0, entropy[-1] < 2, {}) for entropy in entropies]
    )
    assert witnesses == [
        {"trial": 0, "retries": 2, "rejected": ["block regularity", "marginal measurement"]}
    ]


def test_rounds_resample_only_the_trials_that_came_back_marginal(su2n3):
    # trial 1 is marginal at r = 0, trial 3 at r = 0 and 1: round 1 measures
    # trials 1 and 3, round 2 trial 3 alone, each round in one call
    ctx = ClaimContext(su2n3, seed=9, trials=5)
    calls = []

    def measure(Xs, entropies):
        calls.append([tuple(entropy) for entropy in entropies])
        for X, entropy in zip(Xs, entropies):
            assert np.array_equal(X, _draw(su2n3, entropy, "g"))
        marginal = {(9, 1, 0), (9, 3, 0), (9, 3, 1)}
        return [(tuple(e), tuple(e) in marginal, {"seen": e[-1]}) for e in entropies]

    values, witnesses = _measure_at_generic_points(ctx, "g", measure)
    assert calls == [[(9, t, 0) for t in range(5)], [(9, 1, 1), (9, 3, 1)], [(9, 3, 2)]]
    assert values == [(9, 0, 0), (9, 1, 1), (9, 2, 0), (9, 3, 2), (9, 4, 0)]
    assert witnesses == [
        {"trial": 0, "retries": 0, "seen": 0},
        {"trial": 1, "retries": 1, "rejected": ["marginal measurement"], "seen": 1},
        {"trial": 2, "retries": 0, "seen": 0},
        {"trial": 3, "retries": 2, "rejected": ["marginal measurement"] * 2, "seen": 2},
        {"trial": 4, "retries": 0, "seen": 0},
    ]


def test_running_out_of_draws_names_the_lowest_trial(su2n3):
    # trials 1 and 2 never give a measurement that is not marginal; the
    # message is the one a single trial gives, for trial 1
    ctx = ClaimContext(su2n3, seed=9, trials=3, policy=RankPolicy(max_retries=2))
    with pytest.raises(GenericityError) as error:
        _measure_at_generic_points(ctx, "g", lambda Xs, entropies: [(0, e[1] > 0, {}) for e in entropies])
    assert str(error.value) == (
        "no generic point in domain 'g' was accepted from seed entropy [9, 1, r], r = 0..2; "
        "rejected by marginal measurement (r = 0, 1, 2)"
    )


def test_genericity_error_names_marginal_measurements(su2n3):
    ctx = ClaimContext(su2n3, seed=9, trials=1, policy=RankPolicy(max_retries=2))
    with pytest.raises(GenericityError, match=r"rejected by marginal measurement \(r = 0, 1, 2\)$"):
        _measure_at_generic_points(ctx, "g", lambda Xs, entropies: [(0, True, {}) for _ in Xs])


def test_generic_points_are_read_only(su2n3):
    def measure(Xs, entropies):
        Xs[0, 0, 0] = 1.0
        return [(0.0, False, {}) for _ in Xs]

    with pytest.raises(ValueError, match="read-only"):
        _measure_at_generic_points(ClaimContext(su2n3, trials=2), "v", measure)
    with pytest.raises(ValueError, match="read-only"):
        generic_point(su2n3, [5, 1], "g")[0, 0] = 1.0


def test_a_run_draws_and_gates_each_point_once(su2n3, monkeypatch):
    from flagshift import certify

    draw, gate = certify._draw, certify._failed_gates
    draws, gates = Counter(), Counter()

    def counted_draw(context, entropy, domain):
        draws[domain, tuple(entropy)] += 1
        return draw(context, entropy, domain)

    def counted_gate(context, Xs, domain, policy):
        gates.update((domain, X.tobytes()) for X in Xs)
        return gate(context, Xs, domain, policy)

    monkeypatch.setattr(certify, "_draw", counted_draw)
    monkeypatch.setattr(certify, "_failed_gates", counted_gate)
    reports = run_claims(ClaimContext(su2n3), ["all"])
    assert len(reports) == 14 and all(r.passed for r in reports)
    assert {("g", (42, t, 0)) for t in range(10)} | {("v", (42, t, 0)) for t in range(7)} <= set(draws)
    assert max(draws.values()) == 1 and max(gates.values()) == 1
    assert sum(gates.values()) == sum(draws.values())


def test_a_gate_that_raises_on_one_point_names_its_entropy(su2n3, monkeypatch):
    # the batched regularity gate fails on the stack of round 0; run again
    # point by point in trial order, it fails at trial 1, which is named
    isotropy = LieAlgebra.isotropy
    bad = _draw(su2n3, [42, 1, 0], "g")
    sizes = []

    def fails_at_bad(self, xs, policy):
        sizes.append(len(xs))
        if any(np.array_equal(X, bad) for X in xs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return isotropy(self, xs, policy)

    monkeypatch.setattr(LieAlgebra, "isotropy", fails_at_bad)
    (report,) = run_claims(ClaimContext(su2n3, trials=3), ["dimB"])
    assert report.error == "claim dimB: LinAlgError: Eigenvalues did not converge (seed entropy [42, 1, 0])"
    assert sizes == [3, 1, 1]


def test_a_rank_svd_that_raises_at_one_trial_names_its_entropy(su2n3, monkeypatch):
    # dimB decides one rank per point; the SVD of trial 2's unit gradient rows fails
    from flagshift import certify

    family = flag_shift_family(su2n3)
    rows = family.gradients(_draw(su2n3, [42, 2, 0], "g")[None])[0].reshape(len(family), -1)
    rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    rank = certify.numerical_rank

    def fails_at_trial_2(matrix, policy, **kwargs):
        if matrix.shape == rows.shape and np.allclose(matrix, rows, rtol=0.0, atol=1e-12):
            raise np.linalg.LinAlgError("SVD did not converge")
        return rank(matrix, policy, **kwargs)

    monkeypatch.setattr(certify, "numerical_rank", fails_at_trial_2)
    (report,) = run_claims(ClaimContext(su2n3), ["dimB"])
    assert not report.passed and report.witnesses == ()
    assert report.error == "claim dimB: LinAlgError: SVD did not converge (seed entropy [42, 2, 0])"


def test_a_claim_shares_gradients_and_spans_across_its_certificates(su2n3, cpus, monkeypatch):
    from flagshift import certify

    gradients, spans = PolynomialFamily.gradients, certify.invariant_tangent_span
    calls = Counter()

    def counted_gradients(family, X):
        calls[family.name] += 1
        return gradients(family, X)

    def counted_span(*args):
        calls["span"] += 1
        return spans(*args)

    monkeypatch.setattr(PolynomialFamily, "gradients", counted_gradients)
    monkeypatch.setattr(certify, "invariant_tangent_span", counted_span)
    ctx = ClaimContext(su2n3, trials=4)
    cpus(1)  # one table in one process; on two CPUs thm3 runs in a forked child, whose calls are not counted here
    shared = _documents(run_claims(ctx, ["lemma1", "thm3"]))
    # thm3.ddim, thm3.involutive and thm3.span_inclusion read one gradient
    # stack for the four points; lemma1 and thm3.span_inclusion one span per point
    assert calls == {"flag_shift_v": 1, "span": 4}
    # the run drew in a table of its own and left nothing behind in ctx's
    assert not ctx._points._memo
    # outside a claim no gradient stack is shared; the table keeps only the draws
    calls.clear()
    check_involutive(ctx, flag_shift_family(su2n3))
    check_involutive(ctx, flag_shift_family(su2n3))
    assert calls == {"flag_shift": 2}
    assert ctx._points._gradients is None and {kind for kind, *_ in ctx._points._memo} == {"draw"}
    # the two-CPU path, with thm3 in a child of its own, gives the same documents
    cpus(2)
    assert _documents(run_claims(ctx, ["lemma1", "thm3"])) == shared
    _no_child_left()


def test_the_point_table_is_not_a_setting(su2n3):
    # every context, and every replace() of one, owns a fresh table for its own space and policy
    ctx = ClaimContext(su2n3)
    policy, space = RankPolicy(rel_tol=1e-6), ProductSpace(su2n3.base, 4)
    copies = [ClaimContext(su2n3), replace(ctx), replace(ctx, trials=10), replace(ctx, policy=policy),
              replace(ctx, space=space)]
    tables = [ctx._points] + [copy._points for copy in copies]
    assert len(set(map(id, tables))) == len(tables) and not any(table._memo for table in tables)
    assert [(t.space, t.policy) for t in tables[-2:]] == [(su2n3, policy), (space, ctx.policy)]
    # the table is in neither equality nor repr, and it cannot be passed in
    assert ctx == copies[0] == copies[1] and repr(ctx) == repr(copies[1]) and "_points" not in repr(ctx)
    with pytest.raises(ValueError, match="init=False"):
        replace(ctx, _points=ctx._points)


def test_gaudin_draws_each_g_entropy_once(su2n3, monkeypatch):
    # field_identity's ten trials and the involutive certificates' seven read
    # the same table, so the draws [42, t, r] with t < 7 are shared
    from flagshift import certify

    draw, draws = certify._draw, Counter()

    def counted_draw(context, entropy, domain):
        draws[domain, tuple(entropy)] += 1
        return draw(context, entropy, domain)

    monkeypatch.setattr(certify, "_draw", counted_draw)
    reports = run_claims(ClaimContext(su2n3), ["gaudin"])
    assert [r.trials for r in reports] == [10, 7, 7, 7, 1] and all(r.passed for r in reports)
    g = {entropy: count for (domain, entropy), count in draws.items() if domain == "g"}
    assert {(42, t, 0) for t in range(10)} <= set(g) and set(g.values()) == {1}


def test_every_unit_row_rank_is_decided_once_in_the_point_table(su2n3, monkeypatch):
    # thm2ii (W and F_c), dimB, thm3 and gaudin form unit gradient rows only inside _Points.rank,
    # and each (family, entropy) pair is decided once: dimB reads the F_c rank thm2ii decided
    from flagshift import certify

    rank, unit_rows = certify._Points.rank, certify._unit_rows
    inside, calls, decided = [], Counter(), Counter()

    def counted_rank(self, family, entropy, gens):
        inside.append((family.name, id(family), tuple(entropy)))
        calls[family.name] += 1
        try:
            return rank(self, family, entropy, gens)
        finally:
            inside.pop()

    def counted_unit_rows(gens):
        assert inside, "unit rows formed outside _Points.rank"
        decided[inside[-1]] += 1
        return unit_rows(gens)

    monkeypatch.setattr(certify._Points, "rank", counted_rank)
    monkeypatch.setattr(certify, "_unit_rows", counted_unit_rows)
    reports = run_claims(ClaimContext(su2n3), ["all"])
    assert len(reports) == 14 and all(r.passed for r in reports)
    assert set(decided.values()) == {1}
    assert Counter(name for name, *_ in decided) == {name: 7 for name in calls}
    assert calls["flag_shift"] == 14


@pytest.mark.parametrize("claim", CLAIM_IDS)
def test_only_the_bracket_claims_read_tol_bracket(claim, su2n3):
    # a claim outside BRACKET_CLAIMS reports the same at any tol_bracket; one inside holds a row to it
    reports = [run_claims(ClaimContext(su2n3, trials=2, tol_bracket=tol), [claim]) for tol in (1e-9, 1e-300)]
    held = [a.claim_id for a, b in zip(*reports) if a.tolerance == 1e-9 and b.tolerance == 1e-300]
    assert bool(held) == (claim in BRACKET_CLAIMS)
    if not held:
        assert [r.to_dict() for r in reports[0]] == [r.to_dict() for r in reports[1]]


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("m", [2, 3])
def test_a_shared_run_reports_what_separate_runs_report(m, seed):
    space = ProductSpace(build_algebra("su", m), 3)
    shared = [r.to_dict() for r in run_claims(ClaimContext(space, seed=seed), ["all"])]
    separate = [
        r.to_dict() for claim in CLAIM_IDS for r in run_claims(ClaimContext(space, seed=seed), [claim])
    ]
    assert shared == separate


def test_closed_form_targets(su2n3, su2n4, su3n3):
    assert lemma1_targets(su2n3) == (3, 3)
    assert lemma1_targets(su2n4) == (6, 4)
    assert lemma1_targets(su3n3) == (8, 6)
    assert flag_rank_target(su2n3) == 5
    assert flag_rank_target(su2n4) == 7
    assert flag_rank_target(su3n3) == 12
    assert restricted_rank_target(su2n3) == 3
    assert restricted_rank_target(su2n4) == 5
    assert restricted_rank_target(su3n3) == 7
    assert completeness_target(su2n3) == 12
    assert completeness_target(su2n4) == 16
    assert completeness_target(su3n3) == 30


def test_check_involutive_pass_and_control(su2n3, coordinate_member):
    fam = flag_shift_family(su2n3)
    report = check_involutive(ClaimContext(su2n3, trials=3), fam, claim_id="probe")
    assert report.passed and report.measured_value < 1e-12
    assert report.claim_id == "probe"

    control = PolynomialFamily(
        "control",
        "g",
        (
            coordinate_member(su2n3, 0, np.array([1.0, 0.0, 0.0])),
            coordinate_member(su2n3, 0, np.array([0.0, 1.0, 0.0])),
        ),
    )
    bad = check_involutive(ClaimContext(su2n3, trials=3), control)
    assert not bad.passed
    assert bad.measured_value > 1e-3


def test_check_ad_invariance_pass_and_control(su2n3, coordinate_member):
    report = check_ad_invariance(ClaimContext(su2n3, trials=2), flag_shift_family(su2n3))
    assert report.passed

    control = PolynomialFamily(
        "control", "g", (coordinate_member(su2n3, 0, np.array([1.0, 0.0, 0.0])),)
    )
    bad = check_ad_invariance(ClaimContext(su2n3, trials=2), control)
    assert not bad.passed
    assert bad.measured_value > 1e-2


@pytest.mark.parametrize("m", [2, 3])
def test_check_ad_invariance_reads_one_stack_per_point(m, monkeypatch):
    space = ProductSpace(build_algebra("su", m), 3)
    ctx = ClaimContext(space, trials=3)
    values, shapes = PolynomialFamily.values, []

    def counted_values(family, X):
        shapes.append(np.shape(X))
        return values(family, X)

    for family in (flag_shift_family(space), gaudin_family(space, ctx.weights())):
        # oracle: one values call per point, ten adjoint actions drawn in order
        worst = []
        for trial in range(3):
            entropy, X = _accepted_draw(ctx, trial, family.domain)
            rng = np.random.default_rng(entropy + [7919])
            base = family.values(X)
            moved = (space.diagonal_adjoint(space.base.random_element(rng, 0.8), X) for _ in range(10))
            worst.append(max(float((np.abs(family.values(Y) - base) / (1.0 + np.abs(base))).max()) for Y in moved))
        with monkeypatch.context() as patch:
            patch.setattr(PolynomialFamily, "values", counted_values)
            report = check_ad_invariance(ctx, family)
        assert shapes == [(11, 3, space.base.dim)] * 3
        shapes.clear()
        assert [w["residual"] for w in report.witnesses] == worst


def test_thm2ii_reuses_the_run_tables_flag_shift_family(su2n3, monkeypatch):
    from flagshift import certify, families

    builds = []

    def counted(build):
        def wrapped(space):
            builds.append(space)
            return build(space)
        return wrapped

    monkeypatch.setattr(certify, "flag_shift_family", counted(certify.flag_shift_family))
    monkeypatch.setattr(families, "flag_shift_family", counted(families.flag_shift_family))
    reports = run_claims(ClaimContext(su2n3), ["thm2i", "thm2ii", "dimB"])
    assert all(r.passed for r in reports)
    assert builds == [su2n3]
    # a family passed in is used as it is: its members lead the merged family
    shift, own = generic_point(su2n3.base, [42, 104729], "k"), flag_shift_family(su2n3)
    builds.clear()
    given = flag_momentum_family(su2n3, shift, own)
    assert builds == []
    assert given.members[: len(own)] == own.members


@pytest.mark.parametrize("values", [[1e-12, np.nan], [np.nan, 1e-12]])
def test_residual_report_fails_on_a_nan_from_any_trial(su2n3, values):
    report = _residual_report(ClaimContext(su2n3), "x", values, 1e-9, [{}, {}])
    assert np.isnan(report.measured_value) and not report.passed


def test_verify_lemma1(su2n3):
    ddim, dind = verify_lemma1(ClaimContext(su2n3, trials=3))
    assert ddim.passed and ddim.measured_value == 3
    assert dind.passed and dind.measured_value == 3
    assert ddim.claim_id == "lemma1.ddim"
    assert dind.claim_id == "lemma1.dind"


def test_estimate_dind_of_commuting_family_is_full(su2n3):
    # The flag family commutes, so its bivector on the gradient span is zero
    # and the kernel is the whole span: the scale-anchored cutoff must not
    # read rank from noise.
    ctx = ClaimContext(su2n3, trials=3)
    full = verify_completeness(ctx, flag_shift_family(su2n3), 10, mode="sum")
    assert full.passed
    assert all(w["ddim"] == w["dind"] == 5 for w in full.witnesses)


def test_verify_completeness_modes(su2n3):
    fam = flag_shift_family(su2n3)
    ddim = verify_completeness(ClaimContext(su2n3, trials=3), fam, 5, mode="ddim")
    assert ddim.passed

    shift = generic_point(su2n3.base, [42, 104729], "k")
    merged = flag_momentum_family(su2n3, shift, fam)
    total = verify_completeness(ClaimContext(su2n3, trials=3), merged, 12, mode="sum")
    assert total.passed
    assert total.witnesses[0]["ddim"] + total.witnesses[0]["dind"] == 12

    with pytest.raises(ConfigurationError):
        verify_completeness(ClaimContext(su2n3), fam, 5, mode="bogus")


@pytest.mark.parametrize("m, n", [(2, 3), (3, 3), (4, 3), (5, 4)])
def test_thm2ii_reads_the_two_ranks_the_bivector_route_measures(m, n):
    # Per trial, rank W and rank dF_c equal the ddim and dind that
    # verify_completeness(mode="sum") measures on the same family, and
    # their sum reaches the closed form.
    space = ProductSpace(build_algebra("su", m), n)
    ctx = ClaimContext(space, seed=42)
    (report,) = run_claims(ctx, ["thm2ii"])
    shift = generic_point(space.base, [42, 104729], "k")
    family = flag_momentum_family(space, shift, flag_shift_family(space))
    target = completeness_target(space)
    full = verify_completeness(ctx, family, target, mode="sum")
    assert report.passed and full.passed
    assert report.measured_value == full.measured_value == target
    ranks = [(w["trial"], w["retries"], w["ddim"], w["central_rank"]) for w in report.witnesses]
    assert ranks == [(w["trial"], w["retries"], w["ddim"], w["dind"]) for w in full.witnesses]


def test_dimb_reads_the_flag_shift_rank_thm2ii_decided(monkeypatch):
    # rank dF_c of thm2ii is dimB's rank at the same g points: one SVD per point per run
    from flagshift import certify

    ctx = ClaimContext(ProductSpace(build_algebra("su", 3), 3), trials=3)
    alone = run_claims(ctx, ["dimB"])
    calls = []
    monkeypatch.setattr(certify, "numerical_rank", lambda *args: calls.append(1) or numerical_rank(*args))
    run_claims(ctx, ["thm2ii"])
    before = len(calls)
    _, dimb = run_claims(ctx, ["thm2ii", "dimB"])
    assert len(calls) == 2 * before
    assert dimb == alone[0]


def test_thm2ii_fails_when_the_degree_m_members_are_dropped(monkeypatch):
    # Control: without its degree-3 members the flag-shift family no longer
    # spans enough of W meet its orthogonal, and the two ranks fall short.
    from flagshift import certify

    space = ProductSpace(build_algebra("su", 3), 3)

    def without_degree_m(context):
        family = flag_shift_family(context)
        kept = tuple(member for member in family if "inv=2" not in member.label)
        return PolynomialFamily(family.name, family.domain, kept)

    monkeypatch.setattr(certify, "flag_shift_family", without_degree_m)
    (report,) = run_claims(ClaimContext(space, seed=42), ["thm2ii"])
    assert report.error is None and not report.passed
    assert report.measured_value < report.formula_value == completeness_target(space)


def test_verify_completeness_detects_wrong_target(su2n3):
    fam = flag_shift_family(su2n3)
    report = verify_completeness(ClaimContext(su2n3, trials=3), fam, 4, mode="ddim")
    assert not report.passed
    assert report.measured_value == 5


def test_verify_span_inclusion_pass_and_control(su2n3, coordinate_member):
    fam = restrict_family(su2n3, flag_shift_family(su2n3))
    report = verify_span_inclusion(ClaimContext(su2n3, trials=3), fam)
    assert report.passed

    # A restricted pairing member is a false control: its projected gradient
    # satisfies both span conditions (the blockwise bracket sum telescopes to
    # zero on v).  A linear coordinate member leaves the span.
    control = restrict_family(su2n3, PolynomialFamily("control", "g", (coordinate_member(su2n3, 0, 0),)))
    bad = verify_span_inclusion(ClaimContext(su2n3, trials=3), control)
    assert not bad.passed

    with pytest.raises(ConfigurationError):
        verify_span_inclusion(ClaimContext(su2n3), flag_shift_family(su2n3))


def test_largest_principal_angle_matches_scipy():
    # _largest_principal_angle takes orthonormal bases; scipy gets the raw inputs
    from scipy.linalg import orth, subspace_angles

    rng = np.random.default_rng(11)
    low_rank = rng.normal(size=(12, 3)) @ rng.normal(size=(3, 5))
    pairs = [
        (rng.normal(size=(12, 4)), rng.normal(size=(12, 4))),
        (rng.normal(size=(12, 3)), rng.normal(size=(12, 6))),
        (rng.normal(size=(12, 6)), rng.normal(size=(12, 3))),
        (low_rank, rng.normal(size=(12, 4))),
    ]
    for a, b in pairs:
        ours = _largest_principal_angle(orth(a), orth(b))
        assert isinstance(ours, float)
        assert abs(ours - subspace_angles(a, b).max()) < 1e-14

    # Nearly coincident spans with known angles: only the sine form resolves
    # angles near 1e-10, the cosines round to 1.  Both bases are orthonormal
    # by construction.
    q, _ = np.linalg.qr(rng.normal(size=(12, 12)))
    angles = np.array([3e-10, 1e-10, 2e-11])
    a = q[:, :3]
    b = q[:, :3] * np.cos(angles) + q[:, 3:6] * np.sin(angles)
    ours = _largest_principal_angle(a, b)
    assert ours == pytest.approx(3e-10, rel=1e-5)
    assert ours == pytest.approx(subspace_angles(a, b).max(), rel=1e-5)

    # an empty narrower basis has no angle
    assert _largest_principal_angle(a, np.zeros((12, 0))) == 0.0
    assert _largest_principal_angle(np.zeros((12, 0)), a) == 0.0


def test_report_dict_shape(su2n3):
    report = check_involutive(ClaimContext(su2n3, trials=2), flag_shift_family(su2n3))
    doc = report.to_dict()
    for key in ("claim_id", "algebra", "n", "seed", "trials", "formula_value",
                "measured_value", "tolerance", "pass", "witnesses"):
        assert key in doc
    assert doc["pass"] is True
    assert doc["algebra"] == "su2" and doc["n"] == 3
    assert isinstance(doc["witnesses"], list)


def test_run_claims_selection_and_validation(su2n3):
    ctx = ClaimContext(space=su2n3, trials=3)
    reports = run_claims(ctx, ["lemma1"])
    assert [r.claim_id for r in reports] == ["lemma1.ddim", "lemma1.dind"]
    with pytest.raises(ConfigurationError):
        run_claims(ctx, ["lemma1", "nope"])
    assert CLAIM_IDS == ("lemma1", "thm2i", "thm2ii", "dimB", "thm3", "gaudin")


def test_run_claims_refuses_an_empty_selection(su2n3):
    with pytest.raises(ConfigurationError, match="no claims selected; choose from lemma1, .*, gaudin"):
        run_claims(ClaimContext(space=su2n3), [])


def test_run_claims_is_deterministic(su2n3):
    ctx = ClaimContext(space=su2n3, trials=3)
    first = [r.to_dict() for r in run_claims(ctx, ["thm2i", "dimB"])]
    second = [r.to_dict() for r in run_claims(ctx, ["thm2i", "dimB"])]
    assert first == second


def test_run_claims_turns_a_claim_error_into_a_fail_record(su2n3, monkeypatch):
    from flagshift import certify

    def no_point(ctx):
        raise GenericityError("no generic point in domain 'g' was accepted from seed entropy [42, 0, r]")

    monkeypatch.setitem(certify._REGISTRY, "dimB", no_point)
    reports = run_claims(ClaimContext(space=su2n3, trials=3), ["lemma1", "dimB", "thm2i"])
    assert [r.claim_id for r in reports] == [
        "lemma1.ddim", "lemma1.dind", "thm2i.involutive", "thm2i.ad_invariance", "dimB",
    ]
    failed = reports[-1].to_dict()
    assert failed["pass"] is False
    assert failed["error"].startswith("claim dimB: no generic point")
    assert all(r.passed and "error" not in r.to_dict() for r in reports if r.claim_id != "dimB")


def test_run_claims_refuses_slice_claims_at_n_2(monkeypatch):
    from flagshift import certify

    space = ProductSpace(build_algebra("su", 2), 2)

    def no_draws(*args):
        raise AssertionError("a point was drawn")

    monkeypatch.setattr(certify, "_draw", no_draws)
    with pytest.raises(ConfigurationError) as caught:
        run_claims(ClaimContext(space=space), ["all"])
    message = str(caught.value)
    assert "lemma1, thm3, gaudin need n >= 3" in message
    assert "thm2i, thm2ii, dimB apply" in message
    with pytest.raises(ConfigurationError, match="claims thm3 need"):
        run_claims(ClaimContext(space=space), ["dimB", "thm3"])


def test_run_claims_refuses_repeated_gaudin_weights(monkeypatch):
    # Blocks with equal weights share one pole, which the rank target of
    # gaudin.ddim_restricted does not allow for: refused before any draw.
    from flagshift import certify

    space = ProductSpace(build_algebra("su", 3), 3)

    def no_draws(*args):
        raise AssertionError("a point was drawn")

    monkeypatch.setattr(certify, "_draw", no_draws)
    with pytest.raises(ConfigurationError, match=r"distinct gaudin_weights .* weight 1 repeats at blocks 0, 1,"):
        run_claims(ClaimContext(space, gaudin_weights=(1.0, 1.0, 2.0)), ["all"])
    with pytest.raises(ConfigurationError, match="weight 2 repeats at blocks 0, 2,"):
        run_claims(ClaimContext(space, gaudin_weights=(2.0, 1.0, 2.0)), ["gaudin"])
    monkeypatch.undo()
    # the other claims do not read the weights
    assert all(r.passed for r in run_claims(ClaimContext(space, trials=2, gaudin_weights=(1.0, 1.0, 2.0)), ["dimB"]))


# Configurations where the certificates used to fail: a Vandermonde solve
# for the flag coefficients at su(6)^3, a sampled spectral grid for the
# Gaudin family, and at su(8)^3 a rank decision on gradient rows whose norms
# spread over five decades.
@pytest.mark.parametrize(
    "m, n, seed, claim",
    [
        (6, 3, 42, "thm2i"),
        (2, 5, 42, "gaudin"),
        (3, 4, 42, "gaudin"),
        (4, 3, 1, "gaudin"),
        (4, 4, 42, "gaudin"),
        (8, 3, 42, "thm2ii"),
    ],
)
def test_certificates_pass_on_the_wider_envelope(m, n, seed, claim):
    space = ProductSpace(build_algebra("su", m), n)
    ctx = ClaimContext(space=space, seed=seed)
    if claim != "gaudin":
        reports = run_claims(ctx, [claim])
    else:
        # the gaudin claim without its field identity and 10^4-step flow
        family = gaudin_family(space, ctx.weights())
        reports = [
            check_involutive(ctx, family, "gaudin.involutive"),
            check_involutive(ctx, family, "gaudin.involutive_pencil", weights=np.array(ctx.weights())),
            verify_completeness(ctx, restrict_family(space, family), restricted_rank_target(space)),
        ]
    for report in reports:
        assert report.passed, report.to_dict()


@pytest.mark.slow
@pytest.mark.parametrize(
    "m, n, seed",
    [
        (m, n, seed)
        for m, n in (
            (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 3), (3, 4), (3, 5), (3, 6), (4, 3), (4, 4),
            (4, 5), (5, 3), (5, 4), (5, 5), (6, 3), (6, 4), (7, 3), (7, 4), (8, 3),
        )
        for seed in (42, 1)
    ]
    # wide in n, at one seed
    + [(2, 32, 42), (3, 16, 42), (4, 10, 42), (5, 8, 42)],
)
def test_every_claim_passes_on_the_stated_envelope(m, n, seed):
    # every claim, the Gaudin field identity and its 10^4-step flow included
    reports = run_claims(ClaimContext(space=ProductSpace(build_algebra("su", m), n), seed=seed), ["all"])
    assert [r.claim_id for r in reports if not r.passed] == []
    assert len(reports) == 14


def _unit_rows(rows):
    norms = np.linalg.norm(rows, axis=1, keepdims=True)
    return rows / np.where(norms > 0.0, norms, 1.0)


@pytest.fixture(scope="module")
def su6n4_zero_rows():
    # thm2ii at su(6)^4, seed 42, trial 5: the constant members
    # mu*shift[inv=d-1,k=d] give five exactly zero rows among the 155 x 140
    # unit gradient rows, and LAPACK's gesdd did not converge on them
    space = ProductSpace(build_algebra("su", 6), 4)
    family = flag_momentum_family(space, generic_point(space.base, [42, 104729], "k"), flag_shift_family(space))
    rows = family.gradients(_draw(space, [42, 5, 0], family.domain)).reshape(len(family), -1)
    assert rows.shape == (155, 140) and np.count_nonzero(np.abs(rows).max(axis=1) == 0.0) == 5
    return rows


def test_row_space_converges_on_zero_gradient_rows(su6n4_zero_rows):
    rows = su6n4_zero_rows
    basis, marginal = row_space(_unit_rows(rows))
    assert not marginal
    assert np.abs(basis @ basis.T - np.eye(len(basis))).max() < 1e-12
    assert np.abs(rows - (rows @ basis.T) @ basis).max() < 1e-8 * np.abs(rows).max()
    # an all-zero matrix has an empty row space
    empty, marginal = row_space(np.zeros((3, 4)))
    assert empty.shape == (0, 4) and not marginal


def test_numerical_rank_drops_zero_gradient_rows_as_row_space_does(su6n4_zero_rows):
    unit = _unit_rows(su6n4_zero_rows)
    basis, marginal = row_space(unit)
    assert tuple(numerical_rank(unit)) == (basis.shape[0], marginal)
    assert tuple(numerical_rank(np.zeros((3, 4)))) == (0, False)


@pytest.mark.parametrize("m, n", [(2, 3), (3, 4), (5, 4), (4, 6)])
def test_the_ddim_rank_is_the_row_space_rank(m, n):
    # verify_completeness decides "ddim" on singular values alone; at each
    # trial's point that must be the rank and flag row_space would give
    space = ProductSpace(build_algebra("su", m), n)
    ctx = ClaimContext(space, seed=42, trials=7)
    flag = flag_shift_family(space)
    for family in (flag, restrict_family(space, flag)):
        for trial in range(ctx.trials):
            _, X = _accepted_draw(ctx, trial, family.domain)
            unit = _unit_rows(family.gradients(X).reshape(len(family), -1))
            basis, marginal = row_space(unit)
            assert tuple(numerical_rank(unit)) == (basis.shape[0], marginal)


@pytest.mark.parametrize(
    "settings, named",
    [
        ({"trials": 0}, "trials"),
        ({"tol_bracket": 0.0}, "tol_bracket"),
        ({"tol_bracket": float("nan")}, "tol_bracket"),
        ({"policy": RankPolicy(rel_tol=0.0)}, "policy.rel_tol"),
        ({"seed": -1}, "seed"),
        ({"tol_bracket": float("inf")}, "tol_bracket"),
        ({"policy": RankPolicy(rel_tol=float("inf"))}, "policy.rel_tol"),
        # the marginal band (rel_tol / margin, rel_tol * margin) reaches the largest singular value
        ({"policy": RankPolicy(rel_tol=0.1)}, r"below 1 / margin = 0\.1, got 0\.1: its marginal band \(0\.01, 1\)"),
        ({"policy": RankPolicy(rel_tol=1e-3, margin=1e3)}, r"band \(1e-06, 1\)"),
    ],
)
def test_claim_context_rejects_unusable_settings(su2n3, settings, named):
    with pytest.raises(ConfigurationError, match=named):
        ClaimContext(su2n3, **settings)


def test_tolerances_feed_policy():
    space = ProductSpace(build_algebra("su", 2), 3)
    ctx = ClaimContext(space=space, policy=RankPolicy(rel_tol=1e-6))
    assert ctx.policy.rel_tol == 1e-6
    assert ctx.weights() == (1.0, 2.0, 3.0)


def test_certificate_report_is_frozen(su2n3):
    report = verify_lemma1(ClaimContext(su2n3, trials=2))[0]
    assert isinstance(report, CertificateReport)
    with pytest.raises(AttributeError):
        report.passed = False


# -- the background child: the Gaudin flow, or else the thm3 claim ---------------


def _forks(monkeypatch) -> list:
    """The pids of the children ``os.fork`` gives from now on."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _documents(reports) -> list[str]:
    return [json.dumps(r.to_dict(), sort_keys=True) for r in reports]  # NaN compares equal as text


def _with_and_without_fork(monkeypatch, ctx, claims=("all",)) -> tuple[list[str], list[str], int]:
    """The reports of ``run_claims`` with a forked child where it forks one, then in-process, and the forks made."""
    pids = _forks(monkeypatch)
    forked = _documents(run_claims(ctx, list(claims)))
    _no_child_left()
    forks = len(pids)
    monkeypatch.delattr(os, "fork")
    return forked, _documents(run_claims(ctx, list(claims))), forks


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("m", [2, 3])
def test_the_background_gaudin_flow_gives_the_in_process_reports(m, seed, cpus, monkeypatch):
    cpus(2)
    ctx = ClaimContext(ProductSpace(build_algebra("su", m), 3), seed=seed)
    forked, in_process, forks = _with_and_without_fork(monkeypatch, ctx)
    assert forks == 1
    assert forked == in_process
    assert [json.loads(doc)["claim_id"] for doc in forked][-1] == "gaudin.momentum_drift"


def test_the_background_gaudin_flow_reads_explicit_weights(su2n3, cpus, monkeypatch):
    cpus(2)
    ctx = ClaimContext(su2n3, seed=7, trials=3, gaudin_weights=(0.5, -1.5, 4.0))
    forked, in_process, forks = _with_and_without_fork(monkeypatch, ctx, ["gaudin"])
    assert forks == 1
    assert forked == in_process
    default = _documents(run_claims(replace(ctx, gaudin_weights=None), ["gaudin"]))
    assert forked[-1] != default[-1]  # the weights reach the flow


def _rejecting_draws_at(monkeypatch, prefix):
    """Every draw from seed entropy [*prefix, r] gives the zero point, which no gate accepts."""
    from flagshift import certify

    draw = certify._draw
    monkeypatch.setattr(
        certify, "_draw", lambda space, entropy, domain: draw(space, entropy, domain) * (entropy[:2] != prefix)
    )


@pytest.mark.parametrize("failure", ["genericity", "linalg"])
def test_a_failure_in_the_background_flow_gives_the_in_process_fail_record(failure, su2n3, cpus, monkeypatch):
    cpus(2)
    if failure == "genericity":
        _rejecting_draws_at(monkeypatch, [42, 271])
    else:
        def diverged(flow):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(dynamics, "integrate", diverged)
    ctx = ClaimContext(su2n3, trials=2)
    forked, in_process, forks = _with_and_without_fork(monkeypatch, ctx, ["dimB", "gaudin"])
    assert forks == 1
    assert forked == in_process
    error = json.loads(forked[-1])["error"]
    if failure == "genericity":
        assert error.startswith(
            "claim gaudin: no generic point in domain 'g' was accepted from seed entropy [42, 271, r]"
        )
    else:
        assert error == "claim gaudin: LinAlgError: Eigenvalues did not converge"


def test_an_earlier_gaudin_failure_discards_the_background_flow(su2n3, cpus, monkeypatch):
    # the draws of gaudin.field_identity's trial 0 all fail: that error decides
    # the FAIL record, and the flow's answer is never read
    cpus(2)
    _rejecting_draws_at(monkeypatch, [42, 0])
    answers, kills, answer, close = [], [], dynamics._Child.answer, dynamics._Child.close
    monkeypatch.setattr(dynamics._Child, "answer", lambda child: answers.append(1) or answer(child))
    monkeypatch.setattr(dynamics._Child, "close", lambda child, kill=False: kills.append(kill) or close(child, kill))
    ctx = ClaimContext(su2n3, trials=2)
    forked, in_process, forks = _with_and_without_fork(monkeypatch, ctx, ["gaudin"])
    assert forks == 1 and answers == [] and kills == [True]
    assert forked == in_process
    assert json.loads(forked[-1])["error"].startswith(
        "claim gaudin: no generic point in domain 'g' was accepted from seed entropy [42, 0, r]"
    )


def test_an_uncaught_claim_error_kills_and_reaps_the_background_flow(su2n3, cpus, monkeypatch):
    from flagshift import certify

    cpus(2)
    pids = _forks(monkeypatch)

    def broken(ctx):
        raise KeyError("a defect in lemma1")

    monkeypatch.setitem(certify._REGISTRY, "lemma1", broken)
    with pytest.raises(KeyError, match="a defect in lemma1"):
        run_claims(ClaimContext(su2n3, trials=2), ["all"])
    assert len(pids) == 1
    _no_child_left()


def test_claims_without_gaudin_fork_nothing(su2n3, cpus, monkeypatch):
    cpus(2)
    pids = _forks(monkeypatch)
    assert len(run_claims(ClaimContext(su2n3, trials=2), ["lemma1", "thm2ii"])) == 3
    assert pids == []
    _no_child_left()


def test_one_cpu_runs_the_gaudin_flow_in_process(su2n3, cpus, monkeypatch):
    cpus(1)
    pids = _forks(monkeypatch)
    reports = _documents(run_claims(ClaimContext(su2n3, trials=2), ["gaudin"]))
    assert pids == []
    cpus(2)
    assert _documents(run_claims(ClaimContext(su2n3, trials=2), ["gaudin"])) == reports
    assert len(pids) == 1
    _no_child_left()


def test_an_uncaught_error_in_the_background_flow_is_raised_with_its_text(su2n3, cpus, monkeypatch):
    cpus(2)

    def broken(flow):
        raise ValueError("a defect in integrate")

    monkeypatch.setattr(dynamics, "integrate", broken)
    pids = _forks(monkeypatch)
    with pytest.raises(ValueError, match="^a defect in integrate$"):
        run_claims(ClaimContext(su2n3, trials=2), ["gaudin"])
    assert len(pids) == 1
    _no_child_left()


RANK_PATH_CLAIMS = ("lemma1", "thm2i", "thm2ii", "dimB", "thm3")


@pytest.mark.parametrize("seed", [42, 7])
@pytest.mark.parametrize("m", [3, 4])
def test_the_thm3_child_gives_the_in_process_reports(m, seed, cpus, monkeypatch):
    cpus(2)
    ctx = ClaimContext(ProductSpace(build_algebra("su", m), 3), seed=seed)
    forked, in_process, forks = _with_and_without_fork(monkeypatch, ctx, RANK_PATH_CLAIMS)
    assert forks == 1
    assert forked == in_process
    thm3 = ["thm3.ddim", "thm3.involutive", "thm3.span_inclusion"]
    assert [json.loads(doc)["claim_id"] for doc in forked][-3:] == thm3


@pytest.mark.parametrize(
    "claims, count, work, forks",
    [
        (["thm3"], 2, None, 0),
        (["dimB", "thm3"], 2, "thm3 claim", 1),
        (["thm3", "gaudin"], 2, "Gaudin flow", 1),  # thm3 runs in this process
        (["lemma1", "thm3"], 1, "thm3 claim", 0),  # in this process, at thm3's place
    ],
    ids=["thm3-alone", "thm3-child", "gaudin-child", "one-cpu"],
)
def test_one_child_runs_the_gaudin_flow_or_else_thm3_beside_other_claims(
    claims, count, work, forks, su2n3, cpus, monkeypatch
):
    cpus(count)
    works, background = [], dynamics.background
    monkeypatch.setattr(dynamics, "background", lambda name, *args: works.append(name) or background(name, *args))
    pids = _forks(monkeypatch)
    reports = run_claims(ClaimContext(su2n3, trials=2), claims)
    assert reports and all(r.passed for r in reports)
    assert works == ([work] if work else []) and len(pids) == forks
    _no_child_left()


@pytest.mark.parametrize("failure", ["genericity", "linalg"])
def test_a_failure_in_the_thm3_child_gives_the_in_process_fail_record(failure, su2n3, cpus, monkeypatch):
    from flagshift import certify

    cpus(2)
    if failure == "genericity":
        # every v draw is the zero point, which no gate accepts; thm2ii draws in g and k only
        draw = certify._draw
        monkeypatch.setattr(
            certify, "_draw", lambda space, entropy, domain: draw(space, entropy, domain) * (domain != "v")
        )
    else:
        def diverged(space, X, policy):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(certify, "tangent_span_orthocomplement", diverged)
    ctx = ClaimContext(su2n3, trials=2)
    forked, in_process, forks = _with_and_without_fork(monkeypatch, ctx, ["thm2ii", "thm3"])
    assert forks == 1
    assert forked == in_process
    first, last = json.loads(forked[0]), json.loads(forked[-1])
    assert first["claim_id"] == "thm2ii.completeness_sum" and first["pass"]
    assert last["claim_id"] == "thm3" and not last["pass"]
    if failure == "genericity":
        assert last["error"].startswith(
            "claim thm3: no generic point in domain 'v' was accepted from seed entropy [42, 0, r]"
        )
    else:
        assert last["error"] == "claim thm3: LinAlgError: SVD did not converge (seed entropy [42, 0, 0])"


def test_an_uncaught_error_in_the_thm3_child_is_raised_with_its_text(su2n3, cpus, monkeypatch):
    from flagshift import certify

    cpus(2)

    def broken(ctx):
        raise ValueError("a defect in thm3")

    monkeypatch.setitem(certify._REGISTRY, "thm3", broken)
    pids = _forks(monkeypatch)
    with pytest.raises(ValueError, match="^a defect in thm3$"):
        run_claims(ClaimContext(su2n3, trials=2), ["dimB", "thm3"])
    assert len(pids) == 1
    _no_child_left()


def test_an_uncaught_claim_error_kills_and_reaps_the_thm3_child(su2n3, cpus, monkeypatch):
    from flagshift import certify

    cpus(2)
    answers, kills, answer, close = [], [], dynamics._Child.answer, dynamics._Child.close
    monkeypatch.setattr(dynamics._Child, "answer", lambda child: answers.append(1) or answer(child))
    monkeypatch.setattr(dynamics._Child, "close", lambda child, kill=False: kills.append(kill) or close(child, kill))

    def broken(ctx):
        raise KeyError("a defect in lemma1")

    monkeypatch.setitem(certify._REGISTRY, "lemma1", broken)
    pids = _forks(monkeypatch)
    with pytest.raises(KeyError, match="a defect in lemma1"):
        run_claims(ClaimContext(su2n3, trials=2), ["lemma1", "thm3"])
    assert len(pids) == 1 and answers == [] and kills == [True]
    _no_child_left()
