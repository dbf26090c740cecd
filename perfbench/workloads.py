"""Workloads of the hyperbell benchmark, the checks on their outputs, and the
per-layer spans the traced run records.

A workload is a fixed list of commands.  Each command is either a CLI argv
for ``hyperbell.cli.main`` or, marked by a leading ``lib:``, one library
call.  Every command carries a checker that compares parsed values, never
bytes, so a later change that keeps the numbers but changes their formatting
still passes.  A checker raises ``CheckFailed`` (or any parse error) on a
wrong output.

No workload passes ``--threads``: everything runs single-threaded, and a
later change that retires the flag cannot break a workload.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Callable

DENSE_CALL = "lib:quantum_value"


class CheckFailed(Exception):
    """A command's output contradicts a number the program must reproduce."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_verify(n: int) -> Callable[[str], None]:
    """``verify --n n``: ok, 4^n and 2^n exactly, all 7n correlations hold."""

    def check(stdout: str) -> None:
        doc = json.loads(stdout)
        _require(doc["ok"] is True, f"ok is {doc['ok']!r}")
        _require(doc["beta_qm"]["value"] == 4**n, f"beta_qm {doc['beta_qm']['value']} != 4^{n}")
        _require(doc["beta_epr"]["value"] == 2**n, f"beta_epr {doc['beta_epr']['value']} != 2^{n}")
        corr = doc["correlations"]
        _require(
            corr["passed"] == corr["total"] == 7 * n and not corr["failures"],
            f"correlations {corr['passed']}/{corr['total']}, expected {7 * n}/{7 * n}",
        )

    return check


def check_simulate(n: int, shots: int, eta: float, seed: int) -> Callable[[str], None]:
    """``simulate``: counts tile all runs, every term measured, a sane estimate.

    The upper limit on beta_hat is the ideal quantum value seen through the
    detection-efficiency factor eta/(2-eta), plus five standard errors; it
    does not pin today's per-block noise model.
    """

    def check(stdout: str) -> None:
        doc = json.loads(stdout)
        _require(doc["n"] == n and doc["seed"] == seed, f"echoed n/seed {doc['n']}/{doc['seed']}")
        _require(doc["shots_per_term"] == shots, f"shots_per_term {doc['shots_per_term']} != {shots}")
        _require(doc["exhaustive"] is True, "exhaustive is not true")
        _require(doc["terms_sampled"] == 4**n, f"terms_sampled {doc['terms_sampled']} != 4^{n}")
        counts = doc["counts_summary"]
        parts = sum(counts[k] for k in ("n_pp", "n_mm", "n_single_1", "n_single_2", "n_00"))
        _require(
            parts == counts["n_total"] == doc["terms_sampled"] * shots,
            f"counts do not tile: {parts} categorized, n_total {counts['n_total']}, "
            f"expected {doc['terms_sampled'] * shots}",
        )
        stderr = doc["stderr"]
        _require(stderr > 0, f"stderr {stderr} is not positive")
        limit = eta / (2 - eta) * 4**n + 5 * stderr
        _require(0 < doc["beta_hat"] < limit, f"beta_hat {doc['beta_hat']} outside (0, {limit})")

    return check


def check_bounds(n: int) -> Callable[[str], None]:
    """``bounds --n n``: the exhaustive LHV scan finds 2^n over all 2^(7n) assignments."""

    def check(stdout: str) -> None:
        doc = json.loads(stdout)
        lhv = doc["lhv"]
        _require(lhv["value"] == 2**n, f"lhv value {lhv['value']} != 2^{n}")
        _require(
            lhv["assignments_scanned"] == 2 ** (7 * n),
            f"assignments_scanned {lhv['assignments_scanned']} != 2^{7 * n}",
        )
        _require(doc["beta_qm"] == 4**n, f"beta_qm {doc['beta_qm']} != 4^{n}")

    return check


def check_min_n(n_star: int) -> Callable[[str], None]:
    """``min-n``: the first violating block count."""

    def check(stdout: str) -> None:
        doc = json.loads(stdout)
        _require(doc["n_star"] == n_star, f"n_star {doc['n_star']} != {n_star}")

    return check


def check_sweep(n_max: int) -> Callable[[str], None]:
    """``sweep`` (CSV): one row per N = 1..n_max with the exact ideal bounds."""

    def check(stdout: str) -> None:
        lines = [line for line in stdout.splitlines() if not line.startswith("#")]
        rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
        _require(len(rows) == n_max, f"{len(rows)} sweep rows, expected {n_max}")
        for n, row in enumerate(rows, start=1):
            _require(
                (int(row["n"]), int(row["beta_epr"]), int(row["beta_qm"])) == (n, 2**n, 4**n),
                f"sweep row {n}: n={row['n']} beta_epr={row['beta_epr']} beta_qm={row['beta_qm']}",
            )

    return check


def check_dense(n: int) -> Callable[[str], None]:
    """Dense-oracle ``quantum_value(n, backend="dense")`` returns 4^n."""

    def check(stdout: str) -> None:
        _require(int(stdout) == 4**n, f"dense quantum_value {stdout.strip()} != 4^{n}")

    return check


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Callable[[str], None]


@dataclass(frozen=True)
class Workload:
    """One workload; why it was chosen is recorded in BENCHMARK.json."""

    # (per-layer metric, lowest share, highest share) of the traced wall_s
    # that the layer the workload was chosen for should take
    stress: tuple[tuple[str, float, float], ...]
    # the reference task in child.py that wall_ref divides by: one doing the
    # kind of work the workload's time goes to
    reference: str
    commands: Callable[[int], tuple[Command, ...]]


NOISE = ("--eta", "0.33", "--eps", "0.15", "--p", "0.98")


def _simulate(n: int, shots: int) -> Callable[[int], tuple[Command, ...]]:
    def commands(seed: int) -> tuple[Command, ...]:
        argv = ("simulate", "--n", str(n), "--shots", str(shots), *NOISE, "--seed", str(seed))
        return (Command(argv, check_simulate(n, shots, 0.33, seed)),)

    return commands


WORKLOADS: dict[str, Workload] = {
    "verify-n9": Workload(
        stress=(("bell.quantum_value.self_s", 0.90, 1.0),),
        reference="bits",
        commands=lambda seed: (Command(("verify", "--n", "9"), check_verify(9)),),
    ),
    "simulate-ref": Workload(
        stress=(("bell.term_at.total_s", 0.30, 1.0),),
        reference="objects",
        commands=_simulate(6, 200),
    ),
    "simulate-deep": Workload(
        stress=(("montecarlo.sample_outcomes.total_s", 0.80, 1.0), ("bell.term_at.total_s", 0.0, 0.05)),
        reference="numpy",
        commands=_simulate(3, 200_000),
    ),
    "bounds-oracles": Workload(
        stress=(("lhv.brute_force_bound.total_s", 0.70, 1.0),),
        reference="gray",
        # the dense oracle stays at N=3, where its cap may be lowered to
        commands=lambda seed: (
            Command(("bounds", "--n", "3"), check_bounds(3)),
            Command(("min-n", "--eta", "0.33"), check_min_n(5)),
            Command(("sweep", "--n-max", "64"), check_sweep(64)),
            Command((DENSE_CALL, "3", "dense"), check_dense(3)),
        ),
    ),
}


def output_counts(argv: tuple[str, ...], stdout: str) -> dict[str, int]:
    """Work counts read from one command's (checked) output."""
    if argv[0] == "verify":
        return {"bell.terms": json.loads(stdout)["beta_qm"]["value"]}
    if argv[0] == "simulate":
        doc = json.loads(stdout)
        c = doc["counts_summary"]
        return {
            "bell.terms": doc["terms_sampled"],
            "montecarlo.shots": c["n_total"],
            "montecarlo.detections": c["n_total"] - c["n_00"],
            "montecarlo.coincidences": c["n_pp"] + c["n_mm"],
            # per shot: three draws per block, one sign flip, two detectors
            "montecarlo.rng_draws_computed": c["n_total"] * (3 * doc["n"] + 3),
        }
    if argv[0] == "bounds":
        return {"lhv.assignments": json.loads(stdout)["lhv"]["assignments_scanned"]}
    if argv[0] == DENSE_CALL:
        return {"bell.terms": 4 ** int(argv[1])}
    return {}


# Spans of the traced run: public functions of each layer, wrapped from
# outside wherever their callers look them up.  A span whose function is
# gone, or no longer called, is reported with zero calls.
SPANS = (
    "cli.main",
    "bell.quantum_value",
    "state.build_state",
    "state.verify_perfect_correlations",
    "state.expectation",
    "pauli.pauli_mul",
    "bell.term_at",
    "montecarlo.estimate_beta",
    "montecarlo.estimate_term",
    "montecarlo.counts_for_term",
    "montecarlo.sample_outcomes",
    "lhv.brute_force_bound",
    "state.dense_state",
    "state.dense_expectation",
    "efficiency.min_blocks",
    "efficiency.bounds_report",
)

# Spans called once per term (or per observable): each also reports the
# median and 90th percentile of one call's duration.
PER_TERM_SPANS = (
    "state.expectation",
    "bell.term_at",
    "montecarlo.estimate_term",
    "montecarlo.counts_for_term",
    "montecarlo.sample_outcomes",
    "state.dense_expectation",
)

COUNTS = (
    "bell.terms",
    "lhv.assignments",
    "montecarlo.shots",
    "montecarlo.detections",
    "montecarlo.coincidences",
    "montecarlo.rng_draws_computed",
)


def command_problem(command: Command, result: dict, first_stdout: dict) -> str | None:
    """Why one command's result counts as failed, or None when it passed.

    ``result`` holds the command's ``exit`` code and captured ``stdout`` and
    ``stderr``; ``first_stdout`` maps each argv to the stdout of its first
    repeat in this run, since a fixed seed must give byte-identical output.
    """
    if result["exit"] != 0:
        return f"exit {result['exit']}: {result['stderr'][-500:].strip()}"
    try:
        command.check(result["stdout"])
    except Exception as exc:  # a parse error is as much a wrong output as a wrong number
        return f"{type(exc).__name__}: {exc}"
    if result["stdout"] != first_stdout.setdefault(command.argv, result["stdout"]):
        return "stdout differs from the first repeat with this seed"
    return None
