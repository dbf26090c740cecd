"""One fresh-interpreter iteration of a benchmark workload.

    python3 perfbench/child.py setup
    python3 perfbench/child.py run <workload> <seed> <trace 0|1>

Times set-up first (``import hyperbell`` plus ``cli.build_parser()``, what a
CLI user pays on every invocation), then, for ``run``, executes the
workload's commands with their stdout and stderr captured and times them.
With trace 1 the layers' public functions are wrapped in span recorders
before the commands start.  The last line of stdout is one JSON report.
"""

from __future__ import annotations

import sys
import time


def bits_reference() -> None:
    """Integer mask elimination over a fixed row table, like the stabilizer
    evaluator's inner loop."""
    parity = 0
    for k in range(200):
        ax = (k * 0x2545F491) & _MASK36
        az = (k * 0x9E3779B9) & _MASK36
        for xsel, zsel, px, pz, pe in _BIT_ROWS:
            if (ax & xsel) or (az & zsel):
                parity += pe + 2 * ((az & px).bit_count() & 1)
                ax ^= px
                az ^= pz


_MASK36 = (1 << 36) - 1
_BIT_ROWS = [
    (1 << i, (1 << (i + 7)) & _MASK36, (i * 0x9E3779B1) & _MASK36, (i * 0x85EBCA77) & _MASK36, i & 3)
    for i in range(36)
]


def bits_time() -> float:
    """Median of three timed runs of ``bits_reference``, taken now."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        bits_reference()
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


# Set-up is timed before anything else is imported, and bracketed by the
# bits reference, which tracks the machine's speed during imports.
_BITS_BEFORE = bits_time()
_T0 = time.perf_counter()
from hyperbell import cli  # noqa: E402  (imports the whole package)

cli.build_parser()
SETUP_S = time.perf_counter() - _T0
SETUP_BITS_S = (_BITS_BEFORE + bits_time()) / 2

import contextlib  # noqa: E402
import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from math import prod  # noqa: E402

import numpy as np  # noqa: E402

from workloads import DENSE_CALL, PER_TERM_SPANS, SPANS, WORKLOADS  # noqa: E402

SAMPLE_PERIOD_S = 0.1


class Tracer:
    """Span recorder kept in memory: per span name, the call count, the
    summed duration, the summed duration of its direct child spans, and for
    per-term spans every call's duration."""

    def __init__(self) -> None:
        self.stats: dict[str, list[float]] = {}
        self.durations: dict[str, list[float]] = {}
        # one accumulator of child-span time per open span; the bottom
        # entry collects top-level spans
        self._open = [0.0]

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        durations = self.durations.setdefault(name, []) if name in PER_TERM_SPANS else None
        open_spans = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_spans.pop()
                open_spans[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += children
                if durations is not None:
                    durations.append(elapsed)

        return span

    def install(self) -> None:
        """Replace every reference to each span's function inside the
        package, so each caller finds the wrapper where it looks the name up.
        A function that no longer exists is skipped and reads as absent."""
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "hyperbell"]
        for span_name in SPANS:
            module_name, func_name = span_name.split(".")
            fn = getattr(sys.modules.get(f"hyperbell.{module_name}"), func_name, None)
            if not callable(fn):
                continue
            wrapper = self.wrap(span_name, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)

    def report(self) -> dict:
        return {
            name: {"calls": calls, "total_s": total, "self_s": total - children}
            for name, (calls, total, children) in self.stats.items()
        }


# Reference tasks, each a few ms of one kind of work (bits_reference
# is above).  Each workload names the kind its time goes to; the ratio of its
# wall time to a reference of the same kind is what stays steady as the
# machine's speed drifts.


@dataclass(frozen=True)
class _Pair:
    a: int
    b: int


def objects_reference() -> None:
    """Frozen dataclasses, a dict and strings, like the program's Pauli and
    term objects and its table lookups."""
    table = {}
    for i in range(1500):
        pair = _Pair(i, i ^ 5)
        table[i & 63] = (pair.a, pair.b, str(i))


def gray_reference() -> None:
    """A Gray-code scan that updates one table-looked-up factor per step and
    takes the product, like the exhaustive local-bound scan."""
    sums = [1, 1, 1]
    gray = best = 0
    for i in range(1, 5000):
        new_gray = i ^ (i >> 1)
        j = ((gray ^ new_gray).bit_length() - 1) // 7
        gray = new_gray
        sums[j] = _GRAY_TABLE[(gray >> (j * 7)) & 127]
        best = max(best, prod(sums))


_GRAY_TABLE = [(i * 37) % 9 - 4 for i in range(128)]


def numpy_reference() -> None:
    """One block of the sampler's per-shot kernel on 100k shots: a state
    selector, a weighted and a uniform outcome draw, a select and a lookup."""
    rng = np.random.default_rng(0)
    ideal = rng.random(100_000) < 0.98
    idx = np.where(ideal, rng.choice(8, size=100_000, p=_OUTCOME_PROBS), rng.integers(0, 8, size=100_000))
    np.count_nonzero(_OUTCOME_SIGNS[idx] == 1)


_OUTCOME_PROBS = np.array([0.3, 0.2, 0.1, 0.05, 0.05, 0.1, 0.15, 0.05])
_OUTCOME_SIGNS = np.array([1, -1, 1, -1, 1, -1, 1, -1], dtype=np.int8)


REFERENCES = {
    "bits": bits_reference,
    "objects": objects_reference,
    "gray": gray_reference,
    "numpy": numpy_reference,
}


class SpeedSampler:
    """Times a reference workload at the start and end of a command and,
    from a timer signal, every ``SAMPLE_PERIOD_S`` while it runs.

    On a shared machine the processor's speed drifts by tens of percent
    over seconds; the mean reference time over a command follows that drift,
    so a command's wall time divided by it stays steady, provided the
    reference does the same kind of work as the command.  The time the
    samples themselves take is kept in ``spent`` and not charged to the
    command.
    """

    def __init__(self, reference) -> None:
        self.reference = reference
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        self.reference()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    def __enter__(self) -> "SpeedSampler":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()


def run_command(argv: tuple[str, ...], reference: str | None) -> dict:
    """Run one command with its output captured and time it.  With a
    reference named, the machine's speed is sampled while it runs and the
    wall time is also given in reference units (``wall_ref``)."""
    out, err = io.StringIO(), io.StringIO()
    with SpeedSampler(REFERENCES[reference]) if reference else contextlib.nullcontext() as speed:
        start = time.perf_counter()
        code = _call(argv, out, err)
        wall = time.perf_counter() - start
    result = {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "wall_s": wall}
    if speed is not None:
        result["wall_s"] -= speed.spent - speed.samples[0] - speed.samples[-1]
        result["wall_ref"] = result["wall_s"] / (sum(speed.samples) / len(speed.samples))
    return result


def _call(argv: tuple[str, ...], out: io.StringIO, err: io.StringIO) -> int:
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if argv[0] == DENSE_CALL:
                # looked up at call time, so the traced run sees the wrapper
                quantum_value = sys.modules["hyperbell.bell"].quantum_value
                print(quantum_value(int(argv[1]), backend=argv[2]))
                return 0
            return cli.main(list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed command, reported with its traceback
        err.write(traceback.format_exc())
        return 1


def main(argv: list[str]) -> int:
    report = {"setup_s": SETUP_S, "setup_bits_s": SETUP_BITS_S}
    if argv[0] == "run":
        workload, seed, trace = WORKLOADS[argv[1]], int(argv[2]), argv[3] == "1"
        tracer = Tracer() if trace else None
        if tracer is not None:
            tracer.install()
        # the traced run samples no speed: the samples would land inside spans
        reference = None if trace else workload.reference
        results = [run_command(c.argv, reference) for c in workload.commands(seed)]
        report["commands"] = results
        report["wall_s"] = sum(r["wall_s"] for r in results)
        if reference:
            report["wall_ref"] = sum(r["wall_ref"] for r in results)
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            report["spans"] = tracer.report()
            report["durations"] = tracer.durations
    report["numpy"] = np.__version__
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
