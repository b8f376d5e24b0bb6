"""Workload child: runs one workload's invocation list in passes.

Started by run.py in a fresh interpreter with PYTHONPATH pointing at the
checkout's ``src``.  Each invocation calls ``alias_scope.cli.main`` in
process; only that call is timed (wall clock and this process's CPU from
getrusage).  The output check that follows each call is untimed.  Results
go to a JSON file named on the command line.

With --trace 1 the first half of the time runs untraced passes and the
second half traced passes, so the tracing overhead is measured in the
same process.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import tracing
import workloads


def peak_rss_mib() -> float:
    """High-water resident memory of this process image, in MiB.

    Read from VmHWM, which starts at exec.  ru_maxrss is not used: Linux
    folds the pre-exec high-water mark of the spawning process into a
    child's ru_maxrss, so it would report the parent's inputs and
    references instead of the program.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _call(main, argv: list[str]) -> tuple[int, str, str, float, float]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        wall0, cpu0 = time.perf_counter(), _cpu()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
        wall, cpu = time.perf_counter() - wall0, _cpu() - cpu0
    return code, out.getvalue(), err.getvalue(), wall, cpu


class Runner:
    def __init__(self, main, invocations):
        self.main = main
        self.invocations = invocations
        self.recorder: tracing.Recorder | None = None  # set for traced passes
        self.attempted = 0
        self.failures: list[str] = []
        self.spans: list[list[tracing.Span]] = []

    def one_pass(self) -> dict:
        """Run the list once; per-invocation wall and CPU seconds, in list order."""
        wall, cpu = [], []
        for inv in self.invocations:
            gc.collect()
            if self.recorder is not None:
                span = self.recorder.open(tracing.CLI_SPAN)
            code, out, err, dt, dcpu = _call(self.main, inv.argv)
            if self.recorder is not None:
                self.recorder.close(span)
            wall.append(dt)
            cpu.append(dcpu)
            self.attempted += 1
            try:
                if code != 0:
                    raise workloads.CheckFailed(f"exit {code}: {err.strip()[-500:]}")
                inv.check(out)
            except workloads.CheckFailed as exc:
                self.failures.append(f"{inv.label}: {exc}")
            except (KeyError, TypeError, ValueError, IndexError, OSError) as exc:
                self.failures.append(f"{inv.label}: unreadable output: {exc!r}")
        record = {"wall_s": wall, "cpu_s": cpu}
        if self.recorder is not None:
            spans = self.recorder.take()
            record["layers"] = tracing.aggregate(spans)
            self.spans.append(spans)
        return record

    def passes(self, seconds: float) -> list[dict]:
        """Run passes, at least one, while the next is expected to end at most
        half a pass after ``seconds``, so that the time measured is centred on
        ``seconds`` however long a pass is."""
        start = time.perf_counter()
        done, lengths = [], []
        while True:
            t0 = time.perf_counter()
            done.append(self.one_pass())
            lengths.append(time.perf_counter() - t0)
            if time.perf_counter() - start + statistics.median(lengths) / 2 > seconds:
                return done


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    import alias_scope.cli

    location = Path(alias_scope.cli.__file__).resolve()
    if args.src.resolve() not in location.parents:
        print(f"alias_scope imported from {location}, not from {args.src}", file=sys.stderr)
        return 2
    invocations = workloads.invocations(args.work)
    runner = Runner(alias_scope.cli.main, invocations)
    result: dict = {}
    if not args.trace:
        result["passes"] = runner.passes(args.seconds)
    else:
        result["passes"] = runner.passes(args.seconds / 2)
        runner.recorder = tracing.Recorder()
        undo, result["absent"] = tracing.install(runner.recorder)
        result["traced_passes"] = runner.passes(args.seconds / 2)
        tracing.uninstall(undo)
        if args.spans is not None:
            with open(args.spans, "w", encoding="utf-8") as fh:
                for number, spans in enumerate(runner.spans):
                    for span in spans:
                        fh.write(json.dumps({"pass": number, **vars(span)}) + "\n")
    result["attempted"] = runner.attempted
    result["failures"] = runner.failures
    result["invocations"] = len(invocations)
    result["peak_rss_mib"] = peak_rss_mib()
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
