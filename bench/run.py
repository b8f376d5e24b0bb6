#!/usr/bin/env python3
"""alias-scope benchmark: the parent process of every run.

    python3 bench/run.py --workload activations --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30   # every workload, both modes
    python3 bench/run.py --self-test                           # tiny shapes, seconds

Run from the root of a checkout; the program is imported from its ``src``.
run.py generates the workload's seeded inputs and reference results
into a scratch directory under ``.bench_work/`` (untimed), measures
``setup_s`` from fresh interpreters, then starts one workload child
(child.py) that runs the invocation list in passes and checks every
output.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it holds the
per-layer metrics from a traced run.  Metric names and units are read
from BENCHMARK.json, so that file is the single list of what is reported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
THREADS_ENV = "ALIAS_SCOPE_THREADS"
COLD_STARTS = 9  # timed fresh interpreters per run for setup_s, after one warm-up
SETUP_ARGV = ["-m", "alias_scope", "fold", "--freq", "0.4", "--stride", "2"]
RUN_LIMIT_S = 170.0  # the child is stopped so that a run ends within 180 s


def child_env() -> dict[str, str]:
    """The caller's environment with ``src`` on the path and the thread cap unset."""
    env = {k: v for k, v in os.environ.items() if k != THREADS_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        THREADS_ENV: "unset in the children"
        + (f" (was {os.environ[THREADS_ENV]!r} in the caller)" if THREADS_ENV in os.environ else ""),
        "commit": commit(),
        "seed": seed,
    }


def cold_starts(count: int, work: Path) -> tuple[list[float], list[str]]:
    """Wall seconds of fresh ``python -m alias_scope fold`` runs, and failures."""
    times, failures = [], []
    for i in range(count + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *SETUP_ARGV], cwd=work, env=child_env(),
            capture_output=True, text=True, timeout=60,
        )
        elapsed = time.perf_counter() - t0
        try:
            if proc.returncode != 0:
                raise workloads.CheckFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
            folded = workloads.parse_report(proc.stdout)["result"]["folded_frequency"]
            if abs(folded - 0.2) > 1e-12:
                raise workloads.CheckFailed(f"folded_frequency {folded}")
        except (workloads.CheckFailed, KeyError, TypeError) as exc:
            failures.append(f"setup: {exc}")
        if i:  # the first start fills the file cache and is not timed
            times.append(elapsed)
    return times, failures


def run_child(work: Path, seconds: float, trace: int, deadline: float, spans: Path | None) -> dict:
    """Run the workload child and return its result."""
    result_path = work / "child.json"
    argv = [
        sys.executable, str(BENCH_DIR / "child.py"), "--work", str(work), "--seconds", str(seconds),
        "--trace", str(trace), "--src", str(SRC), "--result", str(result_path),
    ]
    if spans is not None:
        argv += ["--spans", str(spans)]
    proc = subprocess.Popen(argv, cwd=work, env=child_env())
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:  # the time limit, or an interrupt of this process
        proc.kill()
        proc.wait()
        raise
    if code != 0:
        raise RuntimeError(f"workload child exited with {code}")
    return json.loads(result_path.read_text())


def job_seconds(passes: list[dict], key: str) -> float:
    """Median over passes of the pass total of ``key`` (per-invocation seconds)."""
    return statistics.median(sum(p[key]) for p in passes)


def _layer_value(name: str, layers: dict, passes: list[dict], traced: list[dict]) -> float:
    if name == "trace.overhead_pct":
        return 100.0 * (job_seconds(traced, "wall_s") / job_seconds(passes, "wall_s") - 1.0)
    if name == "cli.invocations":
        return layers.get("cli.main", {}).get("calls", 0)
    if name == "cli.self.ms":
        return layers.get("cli.main", {}).get("ms", 0.0)
    span, field = name.rsplit(".", 1)
    entry = layers.get(span, {"ms": 0.0, "calls": 0, "size": 0.0, "errors": {}})
    if field in ("mb", "melem"):
        return entry["size"]
    if field == "undefined":
        return entry["errors"].get("UndefinedRatioError", 0)
    return entry[field]


def run(workload: str, seed: int, seconds: float, trace: int, tiny: bool = False) -> dict:
    """One benchmark run; returns the result object and what it measured."""
    started = time.monotonic()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORK.mkdir(exist_ok=True)
    work = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        manifest = workloads.prepare(workload, seed, work, tiny)
        setup, failures = ([], []) if trace else cold_starts(COLD_STARTS, work)
        spans = WORK / f"spans-{workload}-seed{seed}.jsonl" if trace else None
        child = run_child(work, seconds, trace, started + RUN_LIMIT_S, spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (WORK / f"child-{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(child))
    passes = child["passes"]
    failures += child["failures"]
    metrics = {}
    if not trace:
        values = {
            "setup_s": statistics.median(setup),
            "job_s": job_seconds(passes, "wall_s"),
            "cpu_s": job_seconds(passes, "cpu_s"),
            "peak_rss_mb": child["peak_rss_mib"],
        }
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    else:
        traced = child["traced_passes"]
        absent = set(child["absent"])
        for m in spec["per_layer"]:
            if m["name"].rsplit(".", 1)[0] in absent:
                continue
            per_pass = [_layer_value(m["name"], p["layers"], passes, traced) for p in traced]
            metrics[m["name"]] = {"value": statistics.median(per_pass), "unit": m["unit"]}
    return {
        "result": {
            "correct": not failures,
            "attempted": child["attempted"] + len(setup) + (1 if setup else 0),
            "failed": len(failures),
            "metrics": metrics,
        },
        "failures": failures,
        "passes": passes,
        "traced_passes": child.get("traced_passes", []),
        "setup_samples": setup,
        "inputs": manifest["inputs"],
        "absent": child.get("absent", []),
    }


def describe(workload: str, out: dict) -> None:
    """Human-readable lines; the JSON result line follows them."""
    for label, passes in (("passes", out["passes"]), ("traced passes", out["traced_passes"])):
        if passes:
            walls = " ".join(f"{sum(p['wall_s']):.3f}" for p in passes)
            print(f"workload {workload}: {len(passes)} {label}, wall s each: {walls}")
    if out["setup_samples"]:
        print("  setup_s samples: " + " ".join(f"{t:.3f}" for t in out["setup_samples"]))
    total = sum(v["bytes"] for v in out["inputs"].values())
    print(f"  inputs: {len(out['inputs'])} files, {total / 2**20:.1f} MiB: {json.dumps(out['inputs'])}")
    for name, m in out["result"]["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.4f} {m['unit']}")
    for name in out["absent"]:
        print(f"  {name}: absent in this commit")
    for failure in out["failures"][:20]:
        print(f"  FAILED {failure}")


def self_test() -> int:
    """Every workload's invocation list and checks at tiny shapes, both modes."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    expect_nonzero = {
        "activations": ["spectral.fft2.calls", "arrays.write_npy.mb", "antialias.daf.ms", "sampling.nyquist.calls"],
        "segmentation": ["segmetrics.boundary_band.calls", "arrays.read_npy.mb", "segmetrics.miou.ms"],
        "correlation": ["analysis.patch_aliasing_map.ms", "antialias.aliasing_score.calls", "spectral.fft2.melem"],
    }
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            out = run(workload, seed=0, seconds=0, trace=trace, tiny=True)
            describe(workload, out)
            res = out["result"]
            wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
            if not res["correct"] or res["failed"]:
                problems.append(f"{workload}: {res['failed']} failed checks")
            if set(res["metrics"]) != wanted:
                problems.append(f"{workload}: metrics {sorted(set(res['metrics']) ^ wanted)} differ from BENCHMARK.json")
            if trace:
                zero = [n for n in expect_nonzero[workload] if not res["metrics"].get(n, {}).get("value")]
                if zero:
                    problems.append(f"{workload}: traced metrics {zero} are 0, a wrapper is not reached")
                if workload == "segmentation" and res["metrics"].get("spectral.fft2.calls", {}).get("value"):
                    problems.append("segmentation: spectral.fft2 is called")
    problems += _check_catches_bad_output()
    for problem in problems:
        print(f"SELF-TEST PROBLEM {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def _check_catches_bad_output() -> list[str]:
    """A corrupted output array and a non-JSON report must both fail their checks."""
    work = WORK / f"selftest-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        workloads.prepare("activations", 0, work, tiny=True)
        invs = {inv.label: inv for inv in workloads.invocations(work)}
        daf = invs["daf:t0"]
        out_path = daf.argv[daf.argv.index("--out") + 1]
        t0 = json.loads((work / "manifest.json").read_text())["cases"]["tensors"][0]
        np.save(out_path, np.load(t0["low"]) * (1 + 1e-6))
        problems = []
        for label, inv, text in (("daf", daf, ""), ("score", invs["score:t0"], '{"result": {"x": NaN}}')):
            try:
                inv.check(text)
                problems.append(f"the {label} check accepted a wrong output")
            except workloads.CheckFailed:
                pass
        return problems
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not (SRC / "alias_scope" / "__init__.py").is_file():
        print(f"no alias_scope sources under {SRC}: run from the root of a checkout", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    print("env: " + json.dumps(environment(args.seed)))
    if args.workload != "all":
        out = run(args.workload, args.seed, args.seconds, args.trace)
        describe(args.workload, out)
        print(json.dumps(out["result"]))
        return 0
    combined = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            out = run(workload, args.seed, args.seconds, trace)
            describe(workload, out)
            combined[f"{workload}/{'traced' if trace else 'end_to_end'}"] = out["result"]
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
