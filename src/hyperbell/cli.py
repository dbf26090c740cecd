"""Command-line interface.

Subcommands mirror the library layers: ``verify`` re-derives the exact
quantities, ``bounds``/``eta-threshold``/``min-n``/``sweep`` analyze noise
and detection efficiency, ``simulate`` runs the finite-statistics model, and
``dump-terms`` prints the expanded Bell expression for small N.

Output is JSON by default; tabular commands also emit CSV (fixed column
order, a leading ``#`` metadata line, shortest round-trip float formatting).
Each ``cmd_*`` handler writes nothing and returns its exit code, its JSON
document and its CSV table (None for a command without one); ``main`` writes
the table under ``--format csv`` and the document otherwise, to stdout or
``--out``.  Bad input ends a handler with one stderr line and exit 2.
Exit codes: 0 success, 1 verification failure, no violation possible or no
detection to estimate from (reported as a JSON ``error``), 2 usage error.
Commands are deterministic: repeating one with the same seed produces
byte-identical output.  ``simulate`` alone takes a seed; if the
``HYPERBELL_SEED`` environment variable is set it overrides the default
seed 0, and an explicit ``--seed`` beats both.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import sys
from typing import Any, Callable

from .bell import enumerate_terms, n_terms, quantum_value
from .efficiency import (
    FLOAT_BLOCK_CAP,
    BoundsReport,
    NoViolationError,
    NoiseParams,
    bounds_report,
    min_blocks,
)
from .lhv import BRUTE_FORCE_BLOCK_CAP, brute_force_bound, factored_bound
from .montecarlo import ESTIMATE_BLOCK_CAP, MAX_SHOTS, UndefinedEstimateError, estimate_beta
from .pauli import pauli_to_string
from .state import EXACT_BLOCK_CAP, verify_perfect_correlations

SEED_ENV_VAR = "HYPERBELL_SEED"
DUMP_TERMS_CAP = 6

# BoundsReport fields, named as it names them and in its order
NOISY_FIELDS = ("beta_epr_noisy", "beta_qm_noisy", "ratio", "eta_min")
BOUND_FIELDS = ("beta_epr", "beta_qm", *NOISY_FIELDS)
OUTPUT_COLUMNS = ("n", *BOUND_FIELDS, "violated")

# a handler's result: exit code, JSON document, and for tabular commands the
# (columns, rows, metadata) of its CSV form
Table = tuple[tuple[str, ...], list[dict[str, Any]], dict[str, Any]]
Output = tuple[int, dict[str, Any], Table | None]


def _arg_type(
    convert: Callable[[str], Any], noun: str, rule: str, ok: Callable[[Any], bool]
) -> Callable[[str], Any]:
    """argparse type: ``convert`` the text, then require ``ok`` (described by ``rule``)."""

    def parse(text: str) -> Any:
        try:
            value = convert(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not {noun}: {text!r}") from exc
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value

    return parse


_positive_int = _arg_type(int, "an integer", ">= 1", lambda v: v >= 1)
_nonnegative_int = _arg_type(int, "an integer", ">= 0", lambda v: v >= 0)
_unit_interval = _arg_type(float, "a number", "in [0, 1]", lambda v: 0.0 <= v <= 1.0)
# detection efficiency (NoiseParams and visibility_factor need eta > 0), and
# min-n's mixture weight p, which min_blocks divides by
_positive_unit = _arg_type(float, "a number", "in (0, 1]", lambda v: 0.0 < v <= 1.0)


def _usage_error(message: str) -> SystemExit:
    sys.stderr.write(f"error: {message}\n")
    return SystemExit(2)


def _require_cap(command: str, n: int, cap: int, why: str) -> None:
    """Refuse more than ``cap`` blocks with one stderr line, before any work."""
    if n > cap:
        raise _usage_error(f"{command} supports up to {cap} blocks ({why})")


_FLOAT_CAP_WHY = "4.0**N overflows a float above it"


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        seed = int(raw)
    except ValueError:
        seed = -1
    if seed < 0:  # as for --seed, which must be >= 0
        raise _usage_error(f"invalid {SEED_ENV_VAR} value: {raw!r}")
    return seed


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise _usage_error(f"cannot write --out {out}: {exc.strerror or exc}") from None


def _csv_cell(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_text(columns: tuple[str, ...], rows: list[dict[str, Any]], meta: dict[str, Any]) -> str:
    buffer = io.StringIO()
    meta_text = " ".join(f"{k}={_csv_cell(v)}" for k, v in meta.items())
    buffer.write(f"# {meta_text}\n")
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(row[c]) for c in columns])
    return buffer.getvalue()


def _bound_fields(report: BoundsReport, names: tuple[str, ...] = BOUND_FIELDS) -> dict[str, Any]:
    return {name: getattr(report, name) for name in names}


def _output_row(report: BoundsReport, eta: float) -> dict[str, Any]:
    return {"n": report.n_blocks, **_bound_fields(report), "violated": report.violated(eta)}


def cmd_verify(args: argparse.Namespace) -> Output:
    n = args.n
    _require_cap("verify", n, EXACT_BLOCK_CAP, f"{4**EXACT_BLOCK_CAP} terms")
    report = verify_perfect_correlations(n)
    failures = [dataclasses.asdict(c) for c in report.failures()]
    term_failures: list[str] = []
    try:
        beta_qm = quantum_value(n)
    except ValueError as exc:
        beta_qm = None
        term_failures.append(str(exc))
    if n <= 2:
        lhv_method = "brute_force"
        beta_epr = brute_force_bound(n).max_value
    else:
        lhv_method = "factored"
        beta_epr = factored_bound(n)
    ok = (
        report.passed
        and not term_failures
        and beta_qm == 4**n
        and beta_epr == 2**n
    )
    doc = {
        "command": "verify",
        "schema_version": 1,
        "n": n,
        "correlations": {
            "passed": report.n_passed,
            "total": len(report.checks),
            "failures": failures,
        },
        "beta_qm": {"value": beta_qm, "expected": 4**n, "failures": term_failures},
        "beta_epr": {"value": beta_epr, "expected": 2**n, "method": lhv_method},
        "ok": ok,
    }
    return (0 if ok else 1), doc, None


def cmd_bounds(args: argparse.Namespace) -> Output:
    n = args.n
    _require_cap("bounds", n, FLOAT_BLOCK_CAP, _FLOAT_CAP_WHY)
    report = bounds_report(n, args.eps, args.p)
    if n <= BRUTE_FORCE_BLOCK_CAP:
        lhv = brute_force_bound(n)
        lhv_doc: dict[str, Any] = {
            "method": "brute_force",
            "value": lhv.max_value,
            "assignments_scanned": lhv.assignments_scanned,
            "argmax_bitmask": lhv.argmax_mask,
        }
    else:
        lhv_doc = {"method": "factored", "value": factored_bound(n)}
    doc = {
        "command": "bounds",
        "schema_version": 1,
        "n": n,
        "eps": args.eps,
        "p": args.p,
        **_bound_fields(report),
        "lhv": lhv_doc,
    }
    return 0, doc, None


def cmd_eta_threshold(args: argparse.Namespace) -> Output:
    _require_cap("eta-threshold", args.n, FLOAT_BLOCK_CAP, _FLOAT_CAP_WHY)
    report = bounds_report(args.n, args.eps, args.p)
    doc = {
        "command": "eta-threshold",
        "schema_version": 1,
        "n": args.n,
        "eps": args.eps,
        "p": args.p,
        **_bound_fields(report, NOISY_FIELDS),
        "feasible": report.eta_min <= 1.0,
    }
    return 0, doc, None


def cmd_min_n(args: argparse.Namespace) -> Output:
    _require_cap("min-n", args.n_cap, FLOAT_BLOCK_CAP, _FLOAT_CAP_WHY)
    params = {"eta": args.eta, "eps": args.eps, "p": args.p}
    try:
        result = min_blocks(args.eta, args.eps, args.p, n_cap=args.n_cap)
    except NoViolationError as exc:
        doc = {"command": "min-n", "schema_version": 1, **params, "n_star": None, "error": str(exc)}
        return 1, doc, None
    rows = [_output_row(report, args.eta) for report in result.table]
    meta = {**params, "visibility": result.visibility, "n_star": result.n_star}
    doc = {"command": "min-n", "schema_version": 1, **meta, "rows": rows}
    return 0, doc, (OUTPUT_COLUMNS, rows, meta)


def cmd_sweep(args: argparse.Namespace) -> Output:
    if args.n_min > args.n_max:
        raise _usage_error(f"--n-min {args.n_min} exceeds --n-max {args.n_max}")
    _require_cap("sweep", args.n_max, FLOAT_BLOCK_CAP, _FLOAT_CAP_WHY)
    rows = [
        _output_row(bounds_report(n, args.eps, args.p), args.eta)
        for n in range(args.n_min, args.n_max + 1)
    ]
    meta = {"n_min": args.n_min, "n_max": args.n_max, "eta": args.eta, "eps": args.eps, "p": args.p}
    doc = {"command": "sweep", "schema_version": 1, "params": meta, "rows": rows}
    return 0, doc, (OUTPUT_COLUMNS, rows, meta)


def cmd_simulate(args: argparse.Namespace) -> Output:
    _require_cap("simulate", args.n, ESTIMATE_BLOCK_CAP, "16.0**N overflows a float above it")
    if args.shots > MAX_SHOTS:
        raise _usage_error(f"simulate supports up to {MAX_SHOTS} shots per term (an int64 count)")
    noise = NoiseParams(epsilon=args.eps, p=args.p, eta=args.eta)
    seed = _default_seed() if args.seed is None else args.seed
    try:
        estimate = estimate_beta(args.n, args.shots, noise, seed=seed, term_budget=args.term_budget)
    except UndefinedEstimateError as exc:
        doc = {
            "schema_version": 1,
            "n": args.n,
            "shots_per_term": args.shots,
            "eta": args.eta,
            "eps": args.eps,
            "p": args.p,
            "seed": seed,
            "error": str(exc),
        }
        return 1, doc, None
    return 0, estimate.to_json_dict(), None


def cmd_dump_terms(args: argparse.Namespace) -> Output:
    n = args.n
    _require_cap("dump-terms", n, DUMP_TERMS_CAP, f"{4**DUMP_TERMS_CAP} terms")
    rows = [
        {
            "index": term.index,
            "choices": ".".join(term.labels),
            "sign": term.sign,
            "operator": pauli_to_string(term.operator),
        }
        for term in enumerate_terms(n)
    ]
    doc = {"command": "dump-terms", "schema_version": 1, "n": n, "terms": rows}
    return 0, doc, (("index", "choices", "sign", "operator"), rows, {"n": n, "terms": n_terms(n)})


_N = ("--n", dict(type=_positive_int, required=True))
_EPS = ("--eps", dict(type=_unit_interval, default=0.15, help="certainty-relation error tolerance (default 0.15)"))
_P_HELP = "intended-state weight in the prepared mixture (default 0.98)"
_P = ("--p", dict(type=_unit_interval, default=0.98, help=_P_HELP))
_ETA = ("--eta", dict(type=_positive_unit, default=0.33, help="detection efficiency per particle (default 0.33)"))
_NOISE = (_EPS, _P, _ETA)


def _format(default: str) -> tuple[str, dict[str, Any]]:
    return "--format", dict(choices=("json", "csv"), default=default)


# (name, handler, help, flags) of each subcommand, a flag being the arguments
# of one add_argument call; build_parser adds --out to each, last
COMMANDS = (
    ("verify", cmd_verify, "re-derive the exact correlations and bounds", (
        ("--n", dict(type=_positive_int, required=True, help="number of blocks")),
    )),
    ("bounds", cmd_bounds, "ideal and noise-adjusted bounds for one N", (_N, _EPS, _P)),
    ("eta-threshold", cmd_eta_threshold, "minimum detection efficiency for one N", (_N, _EPS, _P)),
    ("min-n", cmd_min_n, "smallest N that violates at a given efficiency", (
        _EPS,
        ("--p", dict(type=_positive_unit, default=0.98, help=_P_HELP)),
        _ETA,
        ("--n-cap", dict(type=_positive_int, default=64, help=f"search cap (default 64, at most {FLOAT_BLOCK_CAP})")),
        _format("json"),
    )),
    ("sweep", cmd_sweep, "bound table over a range of N", (
        ("--n-min", dict(type=_positive_int, default=1)),
        ("--n-max", dict(type=_positive_int, required=True)),
        *_NOISE,
        _format("csv"),
    )),
    ("simulate", cmd_simulate, "finite-statistics estimate of the Bell value", (
        _N,
        ("--shots", dict(type=_positive_int, required=True, help="runs per term")),
        *_NOISE,
        ("--seed", dict(type=_nonnegative_int, default=None, help=f"master seed (default 0, or ${SEED_ENV_VAR})")),
        ("--term-budget", dict(type=_positive_int, default=4096)),
    )),
    ("dump-terms", cmd_dump_terms, "print the expanded Bell expression", (_N, _format("csv"))),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperbell",
        description="Bell inequalities for block-structured hyperentangled states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, help_text, flags in COMMANDS:
        command = sub.add_parser(name, help=help_text)
        for flag, options in (*flags, ("--out", dict(default=None))):
            command.add_argument(flag, **options)
        command.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, doc, table = args.func(args)
        if table is not None and args.format == "csv":
            _emit(_csv_text(*table), args.out)
        else:
            _emit(json.dumps(doc, indent=2) + "\n", args.out)
        return code
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
