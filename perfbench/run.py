"""flagshift benchmark: end-to-end timings of the CLI, and per-layer spans.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify-all --seed 42 --seconds 30 --trace 0

The workloads are defined in ``workloads.py`` and explained in README.md.
With ``--trace 0`` the benchmark repeats untraced passes over the workload
until ``--seconds`` have passed and reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics.  Standard output ends with the run record (one JSON line)
and then the result (one JSON line).
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP to one thread before numpy is loaded, here and in
# every set-up process, so timings do not depend on the core count.
THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse
import compileall
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

CHILD_TIMEOUT_S = 60
SETUP_SNIPPET = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import flagshift.cli
from flagshift.algebra import build_algebra
for m in sys.argv[2:]:
    build_algebra("su", int(m))
print(time.perf_counter() - start)
"""

# The CPU speed of a shared machine drifts by up to 1.8x within tens of
# seconds, and every part of a pass slows alike.  So each timed sample is
# divided by the mean of two samples of a fixed reference timed just before
# and just after it (a fresh-process import of numpy and scipy.linalg, which
# no change to flagshift can alter), and reported in seconds at the speed
# where the reference takes REFERENCE_NOMINAL_S.  This constant must never
# change: it would rescale every wall_s and setup_s ever recorded.
REFERENCE_SNIPPET = """
import time
start = time.perf_counter()
import numpy, scipy.linalg
print(time.perf_counter() - start)
"""
REFERENCE_NOMINAL_S = 0.25


# Run once per certify-all run, untimed: the su(4)^3 spectral claim that
# certify-all leaves out (README.md, "Deliberate exclusions").
DEFECT_PROBE = workloads.Certify("su4", 3, ("gaudin",))


def _import_cli():
    if not (SRC / "flagshift" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no flagshift sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import flagshift.cli

    if not Path(flagshift.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: imported flagshift from {flagshift.cli.__file__}, not {SRC}")
    return flagshift.cli


def setup_command(workload: str) -> list[str]:
    """Fresh-process import of flagshift.cli plus the workload's algebra builds."""
    argv = [sys.executable, "-c", SETUP_SNIPPET, str(SRC)]
    return argv + [str(m) for m in workloads.algebra_sizes(workload)]


def time_child(argv: list[str]) -> float:
    """Run a timing snippet in a fresh process; it prints its own duration."""
    done = subprocess.run(
        argv, capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_pass(cli, commands, seed: int, workdir: Path, tracer=None) -> tuple[float, list[int], str]:
    """One timed pass over ``commands``; returns wall time, exit codes, stderr.

    With a ``tracer`` the layer spans are installed around the timed region
    and removed again after it.
    """
    for path in workdir.iterdir():
        path.unlink()
    codes = []
    stderr = io.StringIO()
    installed = spans.install(tracer) if tracer is not None else None
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            for cmd in commands:
                codes.append(cli.main(cmd.argv(seed, workdir)))
            wall = time.perf_counter() - start
    finally:
        if installed is not None:
            installed.uninstall()
    return wall, codes, stderr.getvalue()


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": int(THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def calibrated(samples: list[float], reference: list[float], offset: int) -> float:
    """Median of samples in seconds at the reference's nominal speed.

    The reference is sampled twice per pass, so sample i lies between
    reference[2 i + offset] and reference[2 i + offset + 1].
    """
    ratios = [
        sample / (0.5 * (reference[2 * i + offset] + reference[2 * i + offset + 1]))
        for i, sample in enumerate(samples)
    ]
    return statistics.median(ratios) * REFERENCE_NOMINAL_S


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def per_layer_metrics(traced: list[dict], untraced_wall: list[float], outcomes) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from the traced passes."""
    metrics = {}
    for name in spans.SPAN_NAMES:
        metrics[f"{name}.calls"] = _metric(statistics.median(p["calls"][name] for p in traced), "count")
        metrics[f"{name}.self_s"] = _metric(float(statistics.median(p["self_s"][name] for p in traced)), "s")
    first = traced[0]["counters"]
    rank_calls = first["ranks.rank_calls"]
    metrics["ranks.marginal_frac"] = _metric(first["ranks.marginal"] / rank_calls if rank_calls else 0.0, "ratio")
    draws = outcomes[0].draws
    metrics["certify.retry_frac"] = _metric(outcomes[0].retries / draws if draws else 0.0, "ratio")
    metrics["dynamics.integrate.steps"] = _metric(first["dynamics.integrate.steps"], "count")
    metrics["dynamics.integrate.samples"] = _metric(first["dynamics.integrate.samples"], "count")
    metrics["cli.out_bytes"] = _metric(outcomes[0].out_bytes, "bytes")
    metrics["fail_frac"] = _metric(outcomes[0].failed / outcomes[0].attempted, "ratio")
    traced_wall = statistics.median(p["wall"] for p in traced)
    metrics["trace.wall_s"] = _metric(traced_wall, "s")
    metrics["trace.overhead_s"] = _metric(traced_wall - statistics.median(untraced_wall), "s")
    metrics["trace.unattributed_s"] = _metric(
        statistics.median(p["wall"] - sum(p["self_s"].values()) for p in traced), "s"
    )
    metrics["trace.layer_frac"] = _metric(
        statistics.median(
            sum(v for k, v in p["self_s"].items() if k != "cli.main") / p["wall"] for p in traced
        ),
        "ratio",
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = _import_cli()
    commands = workloads.WORKLOADS[args.workload]
    record = {"workload": args.workload, "trace": args.trace, "env": environment(args.seed)}
    # Without tracing, every pass is followed by reference, set-up, reference:
    # set-up samples spread over the whole run, and every pass and set-up
    # sample has a reference sample on either side.
    compileall.compile_dir(str(SRC / "flagshift"), quiet=1)
    setup_argv, setup_samples = setup_command(args.workload), []
    reference_argv = [sys.executable, "-c", REFERENCE_SNIPPET]
    reference = [] if args.trace else [time_child(reference_argv)]

    tracer = spans.Tracer()
    untraced_wall, traced, outcomes, stderr_lines = [], [], [], []
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=HERE))
    try:
        # Untraced passes until the time is up; with --trace 1 every other
        # pass is traced, and the run ends on a traced pass.
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline or (args.trace and not traced):
            if args.trace and len(untraced_wall) > len(traced):
                tracer.reset()
                wall, codes, stderr = run_pass(cli, commands, args.seed, workdir, tracer)
                traced.append({"wall": wall, **tracer.snapshot()})
            else:
                wall, codes, stderr = run_pass(cli, commands, args.seed, workdir)
                untraced_wall.append(wall)
                if not args.trace:
                    reference.append(time_child(reference_argv))
                    setup_samples.append(time_child(setup_argv))
                    reference.append(time_child(reference_argv))
            outcomes.append(workloads.check_pass(commands, args.seed, codes, workdir))
            stderr_lines.extend(line for line in stderr.splitlines() if line not in stderr_lines)
        if args.workload == "certify-all":
            _, codes, _ = run_pass(cli, (DEFECT_PROBE,), args.seed, workdir)
            probe = workloads.check_pass((DEFECT_PROBE,), args.seed, codes, workdir)
            record["defect_probe"] = {
                "command": DEFECT_PROBE.name + " --claims gaudin",
                "verdicts": probe.verdicts[DEFECT_PROBE.name],
                "failed": probe.failed,
                "attempted": probe.attempted,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = sorted({p for o in outcomes for p in o.problems})
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    record.update(
        setup_samples_s=setup_samples,
        reference_s=reference,
        passes={"untraced": len(untraced_wall), "traced": len(traced)},
        untraced_wall_s=untraced_wall,
        attempted=attempted,
        failed=failed,
        fail_frac=failed / attempted,
        verdicts=outcomes[0].verdicts,
        digests=outcomes[0].digests,
        digests_stable=all(o.digests == outcomes[0].digests for o in outcomes),
        stderr=stderr_lines,
        problems=problems,
    )
    if args.trace:
        metrics = per_layer_metrics(traced, untraced_wall, outcomes)
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record.update(raw_wall_s=statistics.median(untraced_wall), raw_setup_s=statistics.median(setup_samples))
        metrics = {
            "wall_s": _metric(calibrated(untraced_wall, reference, 0), "s"),
            "setup_s": _metric(calibrated(setup_samples, reference, 1), "s"),
            "peak_rss_mb": _metric(peak_mb, "MB"),
        }
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
