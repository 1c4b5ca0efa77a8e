"""The benchmark's workloads and the checks applied to their outputs.

A workload is a list of ``flagshift`` commands run in one process.  Every
command writes its documents into a scratch directory; after each pass the
documents are parsed into operations attempted and failed, a verdict
vector, and a digest of each document without its ``generated_at`` stamp.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

# Certificates each claim id produces, in document order.
CERTIFICATES = {
    "lemma1": ("lemma1.ddim", "lemma1.dind"),
    "thm2i": ("thm2i.involutive", "thm2i.ad_invariance"),
    "thm2ii": ("thm2ii.completeness_sum",),
    "dimB": ("dimB.ddim",),
    "thm3": ("thm3.ddim", "thm3.involutive", "thm3.span_inclusion"),
    "gaudin": (
        "gaudin.field_identity",
        "gaudin.involutive",
        "gaudin.involutive_pencil",
        "gaudin.ddim_restricted",
        "gaudin.momentum_drift",
    ),
}
ALL_CLAIMS = tuple(CERTIFICATES)

# A flow run fails above these drifts (monitors, momentum, closed form).
DRIFT_LIMIT = 1e-7
MOMENTUM_LIMIT = 1e-9
CLOSED_FORM_LIMIT = 1e-9


@dataclass(frozen=True)
class Certify:
    algebra: str
    n: int
    claims: tuple[str, ...]

    @property
    def name(self) -> str:
        return f"certify-{self.algebra}^{self.n}"

    @property
    def expected(self) -> tuple[str, ...]:
        return tuple(cert for claim in self.claims for cert in CERTIFICATES[claim])

    def argv(self, seed: int, workdir: Path) -> list[str]:
        claims = "all" if self.claims == ALL_CLAIMS else ",".join(self.claims)
        return [
            "certify", "--claims", claims, "--algebra", self.algebra, "--n", str(self.n),
            "--seed", str(seed), "--out", str(workdir / f"{self.name}.json"),
        ]


@dataclass(frozen=True)
class Flow:
    algebra: str
    n: int
    t_end: float
    stride: int
    monitors: int  # flag-shift family size: the energy is one more column
    samples: int

    @property
    def name(self) -> str:
        return f"flow-{self.algebra}^{self.n}"

    def argv(self, seed: int, workdir: Path) -> list[str]:
        return [
            "flow", "--model", "einstein", "--restrict-v", "--algebra", self.algebra,
            "--n", str(self.n), "--t-end", f"{self.t_end:g}", "--stride", str(self.stride),
            "--seed", str(seed), "--summary", str(workdir / f"{self.name}.json"),
            "--csv", str(workdir / f"{self.name}.csv"),
        ]


RANK_CLAIMS = ("lemma1", "thm2ii", "dimB", "thm3")

# su(4)^3 leaves out the spectral claim "gaudin": it aborts the whole
# command at about a third of all seeds (README.md, "Deliberate exclusions").
WORKLOADS = {
    "certify-all": (
        Certify("su2", 3, ALL_CLAIMS),
        Certify("su3", 3, ALL_CLAIMS),
        Certify("su4", 3, ("lemma1", "thm2i", "thm2ii", "dimB", "thm3")),
    ),
    "certify-rank": (Certify("su5", 4, RANK_CLAIMS), Certify("su4", 6, RANK_CLAIMS)),
    "flow-monitored": (Flow("su3", 4, 10.0, 10, monitors=29, samples=1001),),
}


def algebra_sizes(workload: str) -> list[int]:
    """The m of every su(m) the workload builds, for the set-up measurement."""
    return sorted({int(cmd.algebra[2:]) for cmd in WORKLOADS[workload]})


@dataclass
class Outcome:
    """What one pass produced, judged against the rules in README.md."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    verdicts: dict[str, str] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    out_bytes: int = 0
    draws: int = 0
    retries: int = 0


def _digest(document: dict, extra: bytes = b"") -> str:
    document = {k: v for k, v in document.items() if k != "generated_at"}
    text = json.dumps(document, sort_keys=True).encode() + extra
    return hashlib.sha256(text).hexdigest()[:16]


def _check_certify(cmd: Certify, seed: int, code: int, workdir: Path, out: Outcome) -> None:
    path = workdir / f"{cmd.name}.json"
    expected = cmd.expected
    out.attempted += len(expected)
    if not path.exists():
        # The command aborted: every certificate it owed counts as failed.
        out.failed += len(expected)
        out.verdicts[cmd.name] = "aborted"
        if code != 1:
            out.problems.append(f"{cmd.name}: no document but exit code {code}")
        return
    out.out_bytes += path.stat().st_size
    document = json.loads(path.read_text())
    config = document["config"]
    if (config["algebra"], config["n"], config["seed"]) != (cmd.algebra, cmd.n, seed):
        out.problems.append(f"{cmd.name}: config echo {config} does not match the request")
    rows = document["claims"]
    ids = tuple(row["claim_id"] for row in rows)
    if ids != expected:
        out.problems.append(f"{cmd.name}: certificates {ids}, expected {expected}")
    for row in rows:
        if row["tolerance"] == 0.0:
            consistent = not row["pass"] or row["measured_value"] == row["formula_value"]
        else:
            consistent = row["pass"] == (row["measured_value"] <= row["tolerance"])
        if not consistent:
            out.problems.append(f"{cmd.name}: {row['claim_id']} verdict contradicts its numbers")
        for witness in row["witnesses"]:
            if "retries" in witness:
                out.retries += witness["retries"]
                out.draws += witness["retries"] + 1
    failed = sum(1 for row in rows if not row["pass"])
    out.failed += failed + max(0, len(expected) - len(rows))
    if code != (1 if failed else 0):
        out.problems.append(f"{cmd.name}: exit code {code} with {failed} failed certificates")
    out.verdicts[cmd.name] = "".join("P" if row["pass"] else "F" for row in rows)
    out.digests[cmd.name] = _digest(document)


def _check_flow(cmd: Flow, seed: int, code: int, workdir: Path, out: Outcome) -> None:
    summary_path = workdir / f"{cmd.name}.json"
    csv_path = workdir / f"{cmd.name}.csv"
    out.attempted += 1
    if not summary_path.exists() or not csv_path.exists():
        out.failed += 1
        out.verdicts[cmd.name] = "aborted"
        if code == 0:
            out.problems.append(f"{cmd.name}: exit code 0 without its outputs")
        return
    csv_bytes = csv_path.read_bytes()
    out.out_bytes += summary_path.stat().st_size + len(csv_bytes)
    summary = json.loads(summary_path.read_text())
    config = summary["config"]
    if (config["algebra"], config["n"], config["seed"], config["restrict_v"]) != (
        cmd.algebra, cmd.n, seed, True,
    ):
        out.problems.append(f"{cmd.name}: config echo {config} does not match the request")
    aborted = summary["aborted"]
    if code != (1 if aborted else 0):
        out.problems.append(f"{cmd.name}: exit code {code} with aborted={aborted}")
    lines = csv_bytes.decode().splitlines()
    header = next(csv.reader(lines[:1]))
    monitor_columns = sum(1 for col in header if col.startswith("monitor:"))
    if len(summary["drift"]) != cmd.monitors + 1 or monitor_columns != cmd.monitors + 1:
        out.problems.append(f"{cmd.name}: expected energy plus {cmd.monitors} monitors")
    if not aborted and (len(lines) - 1 != cmd.samples or summary["final_time"] != cmd.t_end):
        out.problems.append(f"{cmd.name}: {len(lines) - 1} samples up to t={summary['final_time']}")
    worst = max(summary["drift"].values())
    failed = (
        aborted
        or worst > DRIFT_LIMIT
        or summary["momentum_drift"] > MOMENTUM_LIMIT
        or summary["closed_form_residual"] > CLOSED_FORM_LIMIT
    )
    out.failed += int(failed)
    out.verdicts[cmd.name] = "F" if failed else "P"
    out.digests[cmd.name] = _digest(summary, csv_bytes)


def check_pass(commands, seed: int, codes: list[int], workdir: Path) -> Outcome:
    """Parse every output of one pass over ``commands``."""
    out = Outcome()
    for cmd, code in zip(commands, codes):
        check = _check_certify if isinstance(cmd, Certify) else _check_flow
        try:
            check(cmd, seed, code, workdir, out)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            out.problems.append(f"{cmd.name}: unreadable output: {exc!r}")
    return out
