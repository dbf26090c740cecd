"""End-to-end tests of the command-line interface (via subprocess, golden bytes in-process)."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hyperbell.bell
import hyperbell.state
from hyperbell import cli
from hyperbell.state import StabilizerState, build_state

HEADER = "n,beta_epr,beta_qm,beta_epr_noisy,beta_qm_noisy,ratio,eta_min,violated"

DUMP_TERMS_N1 = (
    "# n=1 terms=4\n"
    "index,choices,sign,operator\n"
    "0,XXz,1,+X1(1).X2(1).z2(1)\n"
    "1,YYz,-1,+Y1(1).Y2(1).z2(1)\n"
    "2,XxYy,1,+X1(1).x1(1).Y2(1).y2(1)\n"
    "3,YxXy,1,+Y1(1).x1(1).X2(1).y2(1)\n"
)


def run_cli(*args: str, env_extra: dict[str, str] | None = None) -> subprocess.CompletedProcess:
    env = os.environ.copy()
    env.pop("HYPERBELL_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "hyperbell", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


# exit code and stdout of a fixed set of commands, each recorded before a
# change that could move it (the sampler's outcome table, the CLI's output
# path); every later version must reproduce them byte for byte
GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text("utf-8"))


def csv_rows(text: str) -> list[dict[str, str]]:
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    return list(csv.DictReader(lines))


# ═══════════════════════════════════════════════════════════════════════════
# verify / bounds / eta-threshold
# ═══════════════════════════════════════════════════════════════════════════


# verify's whole stdout on a state with one generator's sign flipped, as
# (n, block, generator within the block, stdout); at N = 7 the flip sits in
# the one block above the low table
FAILED_VERIFY = (
    (1, 1, 0, """\
{
  "command": "verify",
  "schema_version": 1,
  "n": 1,
  "correlations": {
    "passed": 4,
    "total": 7,
    "failures": [
      {
        "block": 1,
        "label": "X1(1).X2(1).z2(1)",
        "expected": 1,
        "actual": -1
      },
      {
        "block": 1,
        "label": "Y1(1).z1(1).Y2(1)",
        "expected": -1,
        "actual": 1
      },
      {
        "block": 1,
        "label": "z1(1).z2(1)",
        "expected": 1,
        "actual": -1
      }
    ]
  },
  "beta_qm": {
    "value": null,
    "expected": 4,
    "failures": [
      "2 expanded terms do not contribute +1 (term 0 -> -1, term 2 -> -1)"
    ]
  },
  "beta_epr": {
    "value": 2,
    "expected": 2,
    "method": "brute_force"
  },
  "ok": false
}
"""),
    (7, 1, 2, """\
{
  "command": "verify",
  "schema_version": 1,
  "n": 7,
  "correlations": {
    "passed": 47,
    "total": 49,
    "failures": [
      {
        "block": 1,
        "label": "x1(1).Z2(1).x2(1)",
        "expected": 1,
        "actual": -1
      },
      {
        "block": 1,
        "label": "Z1(1).y1(1).y2(1)",
        "expected": -1,
        "actual": 1
      }
    ]
  },
  "beta_qm": {
    "value": null,
    "expected": 16384,
    "failures": [
      "8192 expanded terms do not contribute +1 (term 8192 -> -1, term 8193 -> -1, term 8194 -> -1, term 8195 -> -1, term 8196 -> -1, ...)"
    ]
  },
  "beta_epr": {
    "value": 128,
    "expected": 128,
    "method": "factored"
  },
  "ok": false
}
"""),
)


class TestVerify:
    @pytest.mark.parametrize("n, block, generator, stdout", FAILED_VERIFY)
    def test_failure_document(self, n, block, generator, stdout, capsys, monkeypatch):
        generators = list(build_state(n).generators)
        flipped = 4 * (block - 1) + generator
        generators[flipped] = -generators[flipped]
        wrong = StabilizerState(tuple(generators))
        for module in (hyperbell.state, hyperbell.bell):
            monkeypatch.setattr(module, "build_state", lambda _: wrong)
        assert cli.main(["verify", "--n", str(n)]) == 1
        assert capsys.readouterr().out == stdout

    def test_two_blocks(self):
        proc = run_cli("verify", "--n", "2")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["ok"] is True
        assert doc["correlations"] == {"passed": 14, "total": 14, "failures": []}
        assert doc["beta_qm"] == {"value": 16, "expected": 16, "failures": []}
        assert doc["beta_epr"] == {"value": 4, "expected": 4, "method": "brute_force"}

    def test_larger_n_uses_factored_bound(self):
        proc = run_cli("verify", "--n", "4")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["ok"] is True
        assert doc["beta_epr"]["method"] == "factored"
        assert doc["beta_qm"]["value"] == 256

    def test_above_exact_cap_exits_two_promptly(self):
        for n in ("13", "30"):
            start = time.monotonic()
            proc = run_cli("verify", "--n", n)
            assert time.monotonic() - start < 20
            assert proc.returncode == 2
            assert proc.stdout == ""
            assert proc.stderr == "error: verify supports up to 12 blocks (16777216 terms)\n"


class TestBounds:
    def test_small_n_brute_forces_the_lhv_side(self):
        proc = run_cli("bounds", "--n", "2")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["beta_epr"] == 4 and doc["beta_qm"] == 16
        assert doc["lhv"] == {
            "method": "brute_force",
            "value": 4,
            "assignments_scanned": 16384,
            "argmax_bitmask": 0,
        }

    def test_large_n_factors(self):
        doc = json.loads(run_cli("bounds", "--n", "5").stdout)
        assert doc["lhv"] == {"method": "factored", "value": 32}
        assert doc["beta_epr_noisy"] == 2**5 + 4**5 * 0.15


class TestFloatCap:
    # 4.0**N is finite up to N = 511; above it the float bounds are refused
    def test_largest_finite_n_runs(self):
        for args in (("bounds", "--n", "511"), ("eta-threshold", "--n", "511")):
            proc = run_cli(*args)
            assert proc.returncode == 0, args
            assert json.loads(proc.stdout)["beta_qm_noisy"] == 0.98 * 4.0**511 + 0.02
        rows = csv_rows(run_cli("sweep", "--n-max", "511").stdout)
        assert [int(r["n"]) for r in rows] == list(range(1, 512))

    def test_above_it_is_a_usage_error(self):
        for command, flag in (("bounds", "--n"), ("eta-threshold", "--n"), ("sweep", "--n-max")):
            proc = run_cli(command, flag, "512")
            assert proc.returncode == 2, command
            assert proc.stdout == ""
            assert proc.stderr == (
                f"error: {command} supports up to 511 blocks (4.0**N overflows a float above it)\n"
            )


class TestEtaThreshold:
    def test_ideal_single_block(self):
        doc = json.loads(
            run_cli("eta-threshold", "--n", "1", "--eps", "0", "--p", "1").stdout
        )
        assert abs(doc["eta_min"] - 2.0 / 3.0) < 1e-12
        assert doc["feasible"] is True

    def test_infeasible_parameters_still_report(self):
        proc = run_cli("eta-threshold", "--n", "1", "--eps", "0.9", "--p", "0.5")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["eta_min"] > 1.0
        assert doc["feasible"] is False


# ═══════════════════════════════════════════════════════════════════════════
# min-n and sweep
# ═══════════════════════════════════════════════════════════════════════════


class TestMinN:
    def test_default_parameters(self):
        proc = run_cli("min-n")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["n_star"] == 5
        assert [row["n"] for row in doc["rows"]] == [1, 2, 3, 4, 5, 6, 7]
        assert [row["violated"] for row in doc["rows"]] == [
            False, False, False, False, True, True, True,
        ]

    def test_csv_format(self):
        proc = run_cli("min-n", "--format", "csv")
        lines = proc.stdout.splitlines()
        assert "n_star=5" in lines[0]
        assert lines[1] == HEADER
        rows = csv_rows(proc.stdout)
        assert [r["violated"] for r in rows] == ["false"] * 4 + ["true"] * 3

    def test_too_low_efficiency_exits_one(self):
        proc = run_cli("min-n", "--eta", "0.2")
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert doc["n_star"] is None
        assert "no block count" in doc["error"]

    def test_cap_above_the_float_cap_is_a_usage_error(self):
        proc = run_cli("min-n", "--eta", "1e-300", "--eps", "0", "--p", "1", "--n-cap", "2000")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: min-n supports up to 511 blocks (4.0**N overflows a float above it)\n"
        )

    def test_table_stops_at_the_float_cap(self):
        # N* = 510, so the table's usual two rows past N* would pass 511
        proc = run_cli("min-n", "--eta", "1.1e-153", "--eps", "0", "--p", "1", "--n-cap", "511")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["n_star"] == 510
        assert [row["n"] for row in doc["rows"]] == list(range(1, 512))


class TestSweep:
    def test_csv_round_trips(self):
        proc = run_cli("sweep", "--n-max", "6")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0].startswith("# n_min=1 n_max=6")
        assert lines[1] == HEADER
        rows = csv_rows(proc.stdout)
        assert len(rows) == 6
        for i, row in enumerate(rows, start=1):
            assert int(row["n"]) == i
            assert int(row["beta_epr"]) == 2**i
            assert int(row["beta_qm"]) == 4**i
            # repr round trip: parsing the cell recovers the exact float
            assert float(row["beta_epr_noisy"]) == 2**i + 4**i * 0.15
            assert float(row["ratio"]) == float(row["beta_epr_noisy"]) / float(
                row["beta_qm_noisy"]
            )
        assert rows[5]["violated"] == "true"
        assert rows[3]["violated"] == "false"

    def test_json_format(self):
        doc = json.loads(
            run_cli("sweep", "--n-max", "3", "--format", "json").stdout
        )
        assert doc["params"]["n_max"] == 3
        assert [r["n"] for r in doc["rows"]] == [1, 2, 3]

    def test_empty_range_is_a_usage_error(self):
        proc = run_cli("sweep", "--n-min", "3", "--n-max", "2")
        assert proc.returncode == 2


# ═══════════════════════════════════════════════════════════════════════════
# simulate: determinism and seeding
# ═══════════════════════════════════════════════════════════════════════════


class TestSimulate:
    BASE = ("simulate", "--n", "1", "--shots", "200", "--eta", "0.8")

    def test_same_seed_same_bytes(self):
        a = run_cli(*self.BASE, "--seed", "9")
        b = run_cli(*self.BASE, "--seed", "9")
        assert a.returncode == 0
        assert a.stdout == b.stdout

    def test_different_seed_differs(self):
        a = run_cli(*self.BASE, "--seed", "9")
        b = run_cli(*self.BASE, "--seed", "10")
        assert a.stdout != b.stdout

    def test_seed_env_var(self):
        from_env = run_cli(*self.BASE, env_extra={"HYPERBELL_SEED": "9"})
        explicit = run_cli(*self.BASE, "--seed", "9")
        assert from_env.stdout == explicit.stdout

    def test_explicit_seed_beats_env(self):
        proc = run_cli(*self.BASE, "--seed", "9", env_extra={"HYPERBELL_SEED": "3"})
        assert json.loads(proc.stdout)["seed"] == 9

    def test_invalid_env_seed_is_a_usage_error(self):
        for raw in ("abc", "-1"):
            proc = run_cli(*self.BASE, env_extra={"HYPERBELL_SEED": raw})
            assert proc.returncode == 2, raw
            assert proc.stderr == f"error: invalid HYPERBELL_SEED value: {raw!r}\n"

    def test_env_seed_is_read_only_by_simulate(self):
        proc = run_cli("bounds", "--n", "1", env_extra={"HYPERBELL_SEED": "abc"})
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["beta_qm"] == 4

    def test_output_schema(self):
        doc = json.loads(run_cli(*self.BASE, "--seed", "0").stdout)
        assert doc["schema_version"] == 1
        assert doc["n"] == 1
        assert doc["exhaustive"] is True
        assert doc["counts_summary"]["n_total"] == 800

    def test_subsampled_terms_beyond_int64(self):
        # 4**32 and 4**40 terms: the sampled indices outgrow numpy's integers
        for n in (32, 40):
            proc = run_cli("simulate", "--n", str(n), "--shots", "1", "--term-budget", "8", "--eta", "1")
            assert proc.returncode == 0, proc.stderr
            doc = json.loads(proc.stdout)
            assert (doc["terms_sampled"], doc["total_terms"]) == (8, 4**n)
            assert doc["counts_summary"]["n_total"] == 8

    def test_block_cap(self):
        args = ("--shots", "1", "--term-budget", "2", "--eta", "1")
        proc = run_cli("simulate", "--n", "255", *args)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["total_terms"] == 4**255
        for n in ("256", "600"):
            proc = run_cli("simulate", "--n", n, *args)
            assert proc.returncode == 2
            assert proc.stdout == ""
            assert proc.stderr == (
                "error: simulate supports up to 255 blocks (16.0**N overflows a float above it)\n"
            )

    def test_shots_cap(self):
        # numpy's multinomial takes the count as an int64
        for shots in (str(2**63), "100000000000000000000"):
            proc = run_cli("simulate", "--n", "1", "--shots", shots)
            assert proc.returncode == 2, shots
            assert proc.stdout == ""
            assert proc.stderr == (
                "error: simulate supports up to 9223372036854775807 shots per term"
                " (an int64 count)\n"
            )
        proc = run_cli("simulate", "--n", "1", "--shots", str(2**63 - 1))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["counts_summary"]["n_total"] == 4 * (2**63 - 1)

    def test_large_counts_are_exact(self, capsys):
        argv = "simulate --n 2 --shots 4611686018427387904 --eta 1 --p 1 --eps 0".split()
        assert cli.main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["counts_summary"]["n_total"] == 2**66
        assert (doc["beta_hat"], doc["stderr"]) == (16.0, 0.0)

    def test_undefined_estimate_is_a_json_error(self):
        # one shot at eta = 0.01 detects nothing, so term 0 has no estimate
        proc = run_cli("simulate", "--n", "1", "--shots", "1", "--eta", "0.01")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        doc = json.loads(proc.stdout)
        assert list(doc) == [
            "schema_version", "n", "shots_per_term", "eta", "eps", "p", "seed", "error",
        ]
        assert (doc["n"], doc["shots_per_term"], doc["eta"], doc["seed"]) == (1, 1, 0.01, 0)
        assert doc["error"].startswith("term 0: ")


# ═══════════════════════════════════════════════════════════════════════════
# dump-terms, --out, usage errors
# ═══════════════════════════════════════════════════════════════════════════


class TestDumpTerms:
    def test_single_block_golden(self):
        proc = run_cli("dump-terms", "--n", "1")
        assert proc.returncode == 0
        assert proc.stdout == DUMP_TERMS_N1

    def test_json_format(self):
        doc = json.loads(run_cli("dump-terms", "--n", "2", "--format", "json").stdout)
        assert len(doc["terms"]) == 16
        assert doc["terms"][0]["operator"].startswith("+X1(1)")

    def test_cap(self):
        proc = run_cli("dump-terms", "--n", "7")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "error: dump-terms supports up to 6 blocks (4096 terms)\n"


class TestOutputFile:
    def test_out_matches_stdout(self, tmp_path):
        to_stdout = run_cli("sweep", "--n-max", "4")
        target = tmp_path / "sweep.csv"
        to_file = run_cli("sweep", "--n-max", "4", "--out", str(target))
        assert to_file.returncode == 0
        assert to_file.stdout == ""
        assert target.read_text(encoding="utf-8") == to_stdout.stdout

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_unwritable_out_is_a_usage_error(self, tmp_path, where):
        target = tmp_path / "missing" / "x.json" if where == "missing directory" else tmp_path
        proc = run_cli("verify", "--n", "2", "--out", str(target))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: cannot write --out {target}: ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


class TestUsageErrors:
    def test_exit_code_two(self):
        for args in (
            ("verify",),
            ("verify", "--n", "0"),
            ("simulate", "--n", "1", "--shots", "100", "--eta", "1.5"),
            ("bounds", "--n", "2", "--eps", "-0.1"),
            ("no-such-command",),
            ("simulate", "--n", "1", "--shots", "100", "--eta", "0"),
            ("sweep", "--n-max", "3", "--eta", "0"),
            ("min-n", "--eta", "0"),
            ("min-n", "--p", "0"),
        ):
            proc = run_cli(*args)
            assert proc.returncode == 2, args
            assert "Traceback" not in proc.stderr, args


class TestGoldenStdout:
    @pytest.mark.parametrize("command", list(GOLDEN))
    def test_bytes_unchanged(self, command, capsys, monkeypatch):
        # in-process, so the whole set costs a fraction of a second
        monkeypatch.delenv("HYPERBELL_SEED", raising=False)
        assert cli.main(command.split()) == GOLDEN[command]["exit"]
        assert capsys.readouterr().out == GOLDEN[command]["stdout"]
