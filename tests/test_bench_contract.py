"""Names the benchmark reads from outside the package must exist.

``perfbench/spans.py`` replaces functions and methods of ``flagshift`` by
name and wraps family members as they are constructed, and
``perfbench/workloads.py`` checks each document against the certificate ids
it expects per claim and counts the retries each witness records.  A
refactor that renames one of those targets, renames or reorders a
certificate, or drops a witness's retry count would break the benchmark
or skew it; these checks
make it fail here instead.  Both modules are only loaded, never edited.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from flagshift import ProductSpace, build_algebra
from flagshift.certify import CLAIM_IDS, ClaimContext, run_claims
from flagshift.cli import main
from flagshift.families import FamilyMember, flag_shift_family

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their annotations through it
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    spans = _load("spans")
    for module_name, fn_name in spans.FUNCTIONS:
        module = importlib.import_module(f"flagshift.{module_name}")
        assert callable(getattr(module, fn_name, None)), f"{module_name}.{fn_name}"
    for module_name, cls_name, method, _ in spans.METHODS:
        cls = getattr(importlib.import_module(f"flagshift.{module_name}"), cls_name)
        assert callable(vars(cls).get(method)), f"{cls_name}.{method}"


def test_family_member_defines_its_own_post_init():
    assert "__post_init__" in vars(FamilyMember)


def test_spans_install_count_and_uninstall(tmp_path):
    spans = _load("spans")
    tracer = spans.Tracer()
    installed = spans.install(tracer)
    try:
        space = ProductSpace(build_algebra("su", 2), 3)
        family = flag_shift_family(space)
        X = space.random_point(np.random.default_rng(0))
        family.members[0].value(X)
        family.gradients(X)
        before_flow = tracer.snapshot()
        # the flow layer: one integrate call, its steps and its recorded samples
        argv = ["flow", "--algebra", "su2", "--n", "3", "--t-end", "0.01", "--seed", "1",
                "--summary", str(tmp_path / "summary.json")]
        assert main(argv) == 0
    finally:
        installed.uninstall()
    assert before_flow["calls"]["families.member_value"] == 1
    assert before_flow["calls"]["families.gradients"] == 1
    assert tracer.calls["dynamics.integrate"] == 1
    assert tracer.counters["dynamics.integrate.steps"] == 10
    assert tracer.counters["dynamics.integrate.samples"] == 2
    assert not hasattr(FamilyMember.__post_init__, "perfbench_span")


def test_each_claim_gives_the_certificates_the_benchmark_expects():
    certificates = _load("workloads").CERTIFICATES
    assert tuple(certificates) == CLAIM_IDS
    ctx = ClaimContext(ProductSpace(build_algebra("su", 2), 3), trials=2)
    for claim, expected in certificates.items():
        assert tuple(report.claim_id for report in run_claims(ctx, [claim])) == expected, claim


def test_every_sampled_witness_counts_its_retries():
    # perfbench's certify.retry_frac sums each witness's "retries" and skips a
    # witness without the key, so a certificate that dropped it would
    # undercount with no error.  Only the momentum flow draws no trials.
    ctx = ClaimContext(ProductSpace(build_algebra("su", 2), 3))
    for report in run_claims(ctx, ["all"]):
        if report.claim_id == "gaudin.momentum_drift":
            continue
        assert report.witnesses, report.claim_id
        for witness in report.witnesses:
            retries = witness.get("retries")
            assert type(retries) is int and retries >= 0, (report.claim_id, witness)


def test_every_certify_span_sees_its_calls():
    # A span wraps the module attribute; a caller that bound the function
    # object before the wrapper was installed would charge its time elsewhere.
    spans = _load("spans")
    tracer = spans.Tracer()
    installed = spans.install(tracer)
    try:
        run_claims(ClaimContext(ProductSpace(build_algebra("su", 2), 3), trials=2), ["all"])
    finally:
        installed.uninstall()
    names = [f"certify.{fn}" for module, fn in spans.FUNCTIONS if module == "certify"]
    assert len(names) == 6 and [name for name in names if not tracer.calls[name]] == []
