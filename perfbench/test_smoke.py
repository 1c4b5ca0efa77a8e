"""Smoke test of the benchmark itself.

    python3 -m pytest -q perfbench/test_smoke.py

It is not part of the package's test suite (pyproject's ``testpaths``), and
takes about a minute: one shortened run per workload and trace mode.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "42"]
    argv += ["--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_emits_every_metric(workload, trace):
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == {metric["name"]: metric["unit"] for metric in named}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "work-*"))
    done = _run(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def _snapshot() -> dict:
    """Every attribute of every flagshift module and of every class they define."""
    out = {}
    for module in spans._flagshift_modules():
        for attr, value in vars(module).items():
            out[(module, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("flagshift"):
                out.update({(value, name): member for name, member in vars(value).items()})
    return out


def test_uninstall_restores_every_patched_attribute():
    sys.path.insert(0, str(ROOT / "src"))
    import flagshift.cli  # noqa: F401

    before = _snapshot()
    installed = spans.install(spans.Tracer())
    during = _snapshot()
    patched = {key for key, value in before.items() if during[key] is not value}
    assert {owner.__name__ for owner, _ in patched} >= {"flagshift.cli", "flagshift.certify", "FamilyMember"}
    assert len(patched) > len(spans.FUNCTIONS) + len(spans.METHODS)
    installed.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
