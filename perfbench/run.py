"""The hyperbell benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
``src/`` (pure Python, nothing to build).  Each iteration of a workload runs
real ``hyperbell`` commands in a fresh child interpreter, one child at a
time, with ``HYPERBELL_SEED`` unset and ``--seed`` passed explicitly.
Iterations repeat until ``--seconds`` have passed; every output is checked.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics:
median set-up and solve times, terms per second and peak memory.  With
``--trace 1`` untraced and traced iterations alternate, and it reports the
per-layer metrics: span self/total times and calls, per-call percentiles,
work counts read from the outputs, and the tracing overhead.  With
``--workload all`` every workload runs traced and every metric is printed,
with each workload's stress share and its failed fraction.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import COUNTS, PER_TERM_SPANS, SPANS, WORKLOADS, command_problem, output_counts

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 10
# setup_s is rescaled to a machine on which bits_reference (child.py) takes
# this long, about its time on the 2-core machine the benchmark was defined on
NOMINAL_BITS_S = 1.5e-3
# the end-to-end metrics BENCHMARK.json bounds: raw wall times drift with the
# shared machine's speed, so the bounded solve time is wall_ref
BOUNDED_END_TO_END = ("setup_s", "wall_ref", "peak_rss_mb")
# every child of one workload must have ended by then, so a run stays under 180 s
RUN_LIMIT_S = 170.0


def child_env(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "HYPERBELL_SEED"}
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args: list[str], env: dict[str, str], deadline: float) -> dict | None:
    """One child interpreter; its JSON report, or None if it crashed or ran out of time."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return None
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped the child
        sys.stderr.write(f"child {args} timed out\n")
        return None
    if proc.returncode != 0:
        sys.stderr.write(f"child {args} exited {proc.returncode}\n{proc.stderr[-2000:]}")
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def percentile_us(durations: list[float], q: int) -> float:
    """q-th percentile of call durations in microseconds (0 with no calls)."""
    if len(durations) < 2:
        return durations[0] * 1e6 if durations else 0.0
    return statistics.quantiles(durations, n=100)[q - 1] * 1e6


@dataclass
class Run:
    """Everything one workload's run collected: per-child reports and checks."""

    setup: list[tuple[float, float]] = field(default_factory=list)  # (setup_s, setup_bits_s)
    untraced: list[dict] = field(default_factory=list)
    traced: list[dict] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=lambda: dict.fromkeys(COUNTS, 0))


def measure(name: str, seed: int, seconds: float, trace: bool, env: dict[str, str]) -> Run:
    """Run one workload for ``seconds``, one child at a time, checking every output."""
    deadline = time.monotonic() + RUN_LIMIT_S
    commands = WORKLOADS[name].commands(seed)
    run = Run()
    # warm-up: bytecode is compiled and files cached before anything is timed
    run_child(["setup"], env, deadline)
    probes = (run_child(["setup"], env, deadline) for _ in range(SETUP_PROBES))
    run.setup = [(r["setup_s"], r["setup_bits_s"]) for r in probes if r]
    first_stdout: dict = {}
    start = time.monotonic()
    while time.monotonic() - start < seconds or not run.untraced or (trace and not run.traced):
        traced_turn = trace and len(run.traced) < len(run.untraced)
        report = run_child(["run", name, str(seed), str(int(traced_turn))], env, deadline)
        run.attempted += len(commands)
        if report is None:
            run.failed += len(commands)
            run.problems.append("child crashed or timed out")
            break
        for command, result in zip(commands, report["commands"], strict=True):
            problem = command_problem(command, result, first_stdout)
            if problem is not None:
                run.failed += 1
                run.problems.append(f"{' '.join(command.argv)}: {problem}")
        run.setup.append((report["setup_s"], report["setup_bits_s"]))
        (run.traced if traced_turn else run.untraced).append(report)
    if run.untraced:
        for command, result in zip(commands, run.untraced[0]["commands"]):
            if command_problem(command, result, {}) is None:
                for key, value in output_counts(command.argv, result["stdout"]).items():
                    run.counts[key] += value
    return run


def end_to_end(run: Run) -> dict[str, tuple[float, str]]:
    """Untraced metrics: those BENCHMARK.json bounds, plus raw times for reading."""
    wall = statistics.median(r["wall_s"] for r in run.untraced)
    metrics = {
        "setup_s": (statistics.median(raw * NOMINAL_BITS_S / bits for raw, bits in run.setup), "s"),
        "wall_ref": (statistics.median(r["wall_ref"] for r in run.untraced), "ref"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in run.untraced), "MB"),
        "setup_raw_s": (statistics.median(raw for raw, _ in run.setup), "s"),
        "wall_s": (wall, "s"),
        "terms_per_s": (run.counts["bell.terms"] / wall, "1/s"),
    }
    if run.counts["montecarlo.shots"]:
        metrics["shots_per_s"] = (run.counts["montecarlo.shots"] / wall, "1/s")
    metrics["failed_frac"] = (run.failed / run.attempted, "ratio")
    return metrics


def _span_stat(report: dict, metric: str) -> float:
    """``<span>.<calls|total_s|self_s>`` of one traced child; 0 for an absent span."""
    span, stat = metric.rsplit(".", 1)
    return report["spans"].get(span, {}).get(stat, 0)


def per_layer(run: Run) -> dict[str, tuple[float, str]]:
    """Traced metrics: medians over the traced children, counts from the outputs."""
    metrics = {}
    for span in SPANS:
        for stat, unit in (("self_s", "s"), ("total_s", "s"), ("calls", "count")):
            key = f"{span}.{stat}"
            metrics[key] = (statistics.median(_span_stat(r, key) for r in run.traced), unit)
    for span in PER_TERM_SPANS:
        pooled = [d for r in run.traced for d in r["durations"].get(span, [])]
        metrics[f"{span}.p50_us"] = (percentile_us(pooled, 50), "us")
        metrics[f"{span}.p90_us"] = (percentile_us(pooled, 90), "us")
    for key, value in run.counts.items():
        metrics[key] = (value, "count")
    shots = run.counts["montecarlo.shots"]
    metrics["montecarlo.coincidence_frac"] = (run.counts["montecarlo.coincidences"] / shots if shots else 0.0, "ratio")
    traced_wall = statistics.median(r["wall_s"] for r in run.traced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    # each traced child runs right after an untraced one; pairing them keeps
    # the machine's speed drift out of the difference
    overhead = statistics.median(t["wall_s"] - u["wall_s"] for u, t in zip(run.untraced, run.traced))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def stress_lines(name: str, run: Run) -> list[str]:
    """Whether the traced run shows the workload stressing the layer it was chosen for."""
    lines = []
    for metric, low, high in WORKLOADS[name].stress:
        share = statistics.median(_span_stat(r, metric) / r["wall_s"] for r in run.traced)
        verdict = "ok" if low <= share <= high else "NOT MET"
        lines.append(f"# stress {name}: {metric} is {share:.3f} of traced wall_s, expected [{low}, {high}]: {verdict}")
    return lines


def result_line(correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "hyperbell" / "__init__.py").is_file():
        sys.stderr.write(f"no hyperbell sources under {root / 'src'}: run from the root of a checkout\n")
        return 2
    env = child_env(root)
    seed = args.seed % 2**32  # the CLI takes a nonnegative seed
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = args.trace == 1 or args.workload == "all"
    runs = {}
    for name in names:
        runs[name] = measure(name, seed, args.seconds, trace, env)
        if not runs[name].untraced or (trace and not runs[name].traced):
            sys.stderr.write(f"{name}: no iteration completed\n" + "\n".join(runs[name].problems) + "\n")
            return 1

    print(f"# machine nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={runs[names[0]].untraced[0]['numpy']} seed={seed} seconds={args.seconds}")
    reported = {}
    for name, run in runs.items():
        print(f"# workload={name} iterations untraced={len(run.untraced)} traced={len(run.traced)} "
              f"setup_samples={len(run.setup)}")
        for problem in run.problems:
            print(f"# FAILED {problem}")
        e2e = end_to_end(run)
        layers = per_layer(run) if trace else {}
        for key, (value, unit) in {**e2e, **layers}.items():
            print(f"{name} {key} {value!r} {unit}")
        if args.workload == "all":
            print("\n".join(stress_lines(name, run)))
            reported.update({f"{name}.{key}": value for key, value in e2e.items()})
        else:
            reported = layers if trace else {key: e2e[key] for key in BOUNDED_END_TO_END}
    attempted = sum(r.attempted for r in runs.values())
    failed = sum(r.failed for r in runs.values())
    print(result_line(failed == 0, attempted, failed, reported))
    return 0


if __name__ == "__main__":
    sys.exit(main())
