"""Tests of the benchmark's own output checks and tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench

Each workload's commands run once, in-process, on the real program; their
outputs must pass, and corrupted copies of them must count as failures.
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
from workloads import WORKLOADS, command_problem  # noqa: E402

SEED = 11


@pytest.fixture(scope="module")
def outputs():
    """Each workload's commands with their results, as one iteration runs them."""
    return {
        name: [(c, child.run_command(c.argv, workload.reference)) for c in workload.commands(SEED)]
        for name, workload in WORKLOADS.items()
    }


def _with_stdout(result, stdout):
    return {**result, "stdout": stdout}


def _edit_json(result, edit):
    doc = json.loads(result["stdout"])
    edit(doc)
    return _with_stdout(result, json.dumps(doc, indent=2) + "\n")


def test_real_outputs_pass(outputs):
    for name, pairs in outputs.items():
        for command, result in pairs:
            assert command_problem(command, result, {}) is None, (name, command.argv)


def test_reformatted_output_still_passes(outputs):
    for command, result in outputs["verify-n9"] + outputs["simulate-ref"]:
        compact = _with_stdout(result, json.dumps(json.loads(result["stdout"])))
        assert command_problem(command, compact, {}) is None


def test_verify_ok_false_fails(outputs):
    (command, result), = outputs["verify-n9"]
    bad = _edit_json(result, lambda doc: doc.update(ok=False))
    assert "ok is False" in command_problem(command, bad, {})


def test_verify_wrong_correlation_count_fails(outputs):
    (command, result), = outputs["verify-n9"]
    bad = _edit_json(result, lambda doc: doc["correlations"].update(passed=62))
    assert "correlations" in command_problem(command, bad, {})


@pytest.mark.parametrize("name", ["simulate-ref", "simulate-deep"])
def test_untiled_counts_fail(outputs, name):
    (command, result), = outputs[name]
    bad = _edit_json(result, lambda doc: doc["counts_summary"].update(n_pp=doc["counts_summary"]["n_pp"] + 1))
    assert "do not tile" in command_problem(command, bad, {})


@pytest.mark.parametrize("name", ["simulate-ref", "simulate-deep"])
def test_simulate_estimate_out_of_range_fails(outputs, name):
    (command, result), = outputs[name]
    bad = _edit_json(result, lambda doc: doc.update(beta_hat=-doc["beta_hat"]))
    assert "beta_hat" in command_problem(command, bad, {})


def test_wrong_n_star_fails(outputs):
    command, result = next(p for p in outputs["bounds-oracles"] if p[0].argv[0] == "min-n")
    bad = _edit_json(result, lambda doc: doc.update(n_star=6))
    assert "n_star 6" in command_problem(command, bad, {})


def test_missing_sweep_row_fails(outputs):
    command, result = next(p for p in outputs["bounds-oracles"] if p[0].argv[0] == "sweep")
    bad = _with_stdout(result, result["stdout"].rsplit("\n", 2)[0] + "\n")
    assert "63 sweep rows" in command_problem(command, bad, {})


def test_nonzero_exit_fails(outputs):
    for pairs in outputs.values():
        for command, result in pairs:
            bad = {**result, "exit": 1, "stderr": "boom"}
            assert command_problem(command, bad, {}).startswith("exit 1")


def test_stdout_changed_between_repeats_fails(outputs):
    (command, result), = outputs["simulate-ref"]
    first = {}
    assert command_problem(command, result, first) is None
    reseeded = _edit_json(result, lambda doc: doc.update(beta_hat=doc["beta_hat"] * (1 - 1e-9)))
    assert "differs" in command_problem(command, reseeded, first)


def test_tracer_self_time_excludes_children():
    tracer = child.Tracer()
    inner = tracer.wrap("state.expectation", lambda: sum(range(20000)))
    outer = tracer.wrap("bell.term_at", lambda: [inner() for _ in range(3)])
    outer()
    spans = tracer.report()
    assert spans["state.expectation"]["calls"] == 3
    assert len(tracer.durations["state.expectation"]) == 3
    term_at = spans["bell.term_at"]
    assert term_at["self_s"] == pytest.approx(term_at["total_s"] - spans["state.expectation"]["total_s"])


def test_tracer_records_a_deleted_function_as_absent(monkeypatch):
    import hyperbell

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "hyperbell"]
    saved = [(m, copy.copy(vars(m))) for m in modules]
    monkeypatch.delattr(hyperbell.bell, "term_at")
    try:
        tracer = child.Tracer()
        tracer.install()
        assert "bell.term_at" not in tracer.stats
        assert hyperbell.quantum_value(1) == 4
        assert tracer.report()["bell.quantum_value"]["calls"] == 1
    finally:
        for module, attrs in saved:
            vars(module).update(attrs)


def test_benchmark_refuses_a_directory_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "verify-n9",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_what_the_benchmark_reports():
    from run import BOUNDED_END_TO_END, Run, end_to_end, per_layer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    # one child each way, with no span recorded: every span reads as absent
    run = Run(
        setup=[(0.1, 1.5e-3)],
        untraced=[{"wall_s": 1.0, "wall_ref": 500.0, "peak_rss_mb": 30.0}],
        traced=[{"wall_s": 1.0, "spans": {}, "durations": {}}],
        attempted=1,
    )
    e2e = end_to_end(run)
    assert [m["name"] for m in spec["end_to_end"]] == list(BOUNDED_END_TO_END)
    assert all(e2e[m["name"]][1] == m["unit"] for m in spec["end_to_end"])
    layers = per_layer(run)
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    assert all(layers[m["name"]][1] == m["unit"] for m in spec["per_layer"])
    assert layers["bell.term_at.calls"][0] == 0
