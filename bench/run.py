"""Run a benchmark workload of berezin and print its metrics.

    python3 bench/run.py --workload sweeps --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each repetition runs the workload's steps once, in a fresh process started
from bench/child.py, because peak RSS never falls within a process.  A run
first starts the interpreter several times to time set-up (process start
until ``import berezin.cli`` returns), then repeats the workload while
another repetition still fits in ``--seconds``.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
medians over the repetitions.  With ``--trace 1`` untraced and traced
repetitions alternate; the metrics are the per-layer ones from the traced
repetitions, and ``trace.overhead_s`` is the difference of the two medians
of ``wall_s``.  Either way every output is checked (see workloads.py), all
repetitions must write byte-identical artifacts, and traced counts must
repeat exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give each metric with its unit and sample count, the fail ratio, the gate
verdicts and the machine.  The exit code is 0 only when the run is correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# Interpreter starts timed per run for setup_s, after one untimed start that
# compiles the bytecode of a fresh checkout.
SETUP_PROBES = 9
# Every run must end within 180 s; children still running then are killed.
DEADLINE_S = 170.0
POLL_S = 0.005


class BenchError(Exception):
    """The harness could not complete a run (as opposed to a failed operation)."""


def _spawn(args: list, result_path: Path, log_path: Path, deadline: float) -> tuple:
    """Run child.py to completion; returns (result, CPU s, peak RSS MB).

    ``result["started"]`` is the monotonic time just before the process was
    started, the origin of the set-up time.
    """
    start = time.monotonic()
    with open(log_path, "ab") as log:
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), str(ROOT),
                                 str(result_path), *args],
                                stdout=log, stderr=log, cwd=ROOT)
    # wait4 gives this child's own rusage; poll it so that the deadline holds.
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                raise BenchError(f"repetition passed the {DEADLINE_S:.0f} s deadline; "
                                 f"see {log_path}")
            time.sleep(POLL_S)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -9  # reaped here, so Popen must not wait for it
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not result_path.is_file():
        tail = log_path.read_text(errors="replace")[-2000:]
        raise BenchError(f"child exited {proc.returncode}:\n{tail}")
    result = json.loads(result_path.read_text())
    result["started"] = start
    return result, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def _digests(outdir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir())}


def _problems(step, outcome: dict, outdir: Path) -> list:
    """Why an operation failed: exit 2 or 3, an exception, or its output check."""
    if outcome["exit"] is None:
        return [f"{step.name} raised:\n{outcome['error']}"]
    if outcome["exit"] not in (0, 1):
        return [f"{step.name} exited {outcome['exit']}"]
    try:
        return step.check(outdir, step)
    except (OSError, KeyError, ValueError) as exc:
        return [f"{step.name}: output unreadable: {exc!r}"]


def _declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {trace: {m["name"]: m["unit"] for m in spec[key]}
            for trace, key in ((False, "end_to_end"), (True, "per_layer"))}


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    """One run of one workload; returns the result object plus report lines."""
    units = _declared()[trace]
    steps = workloads.steps(workload, seed, tiny)
    deadline = time.monotonic() + DEADLINE_S
    scratch = ROOT / ".bench_out" / f"{workload}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    log = scratch / "child.log"
    try:
        setups = []
        for k in range(SETUP_PROBES + 1):
            res, _, _ = _spawn(["--setup-only"], scratch / f"probe{k}.json", log, deadline)
            if k:
                setups.append(res["setup_end"] - res["started"])

        reps, problems, attempted, failed = [], [], 0, 0
        measure_start, longest = time.monotonic(), 0.0
        while not reps or time.monotonic() - measure_start + longest <= seconds:
            cycle_start = time.monotonic()
            for traced in ((False, True) if trace else (False,)):
                k = len(reps)
                outdir = scratch / f"rep{k}"
                res, cpu, rss = _spawn(
                    [workload, str(seed), str(int(traced)), str(int(tiny)), str(outdir)],
                    scratch / f"rep{k}.json", log, deadline)
                if Path(res["berezin"]).parent.parent != ROOT / "src":
                    raise BenchError(f"imported berezin from {res['berezin']}, not {ROOT / 'src'}")
                for step, outcome in zip(steps, res["steps"]):
                    found = _problems(step, outcome, outdir)
                    problems += found
                    failed += bool(found)
                attempted += len(steps)
                reps.append({"traced": traced, "wall_s": res["wall_s"], "cpu_s": cpu,
                             "peak_rss_mb": rss, "digests": _digests(outdir),
                             "exits": {o["name"]: o["exit"] for o in res["steps"]},
                             "layers": res.get("layers"), "env": res["env"]})
            longest = max(longest, time.monotonic() - cycle_start)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there

    if any(rep["digests"] != reps[0]["digests"] for rep in reps):
        problems.append("artifacts differ between repetitions of one seed")
    plain = [rep for rep in reps if not rep["traced"]]
    if trace:
        traced = [rep for rep in reps if rep["traced"]]
        layers = {name: [rep["layers"][name] for rep in traced] for name in traced[0]["layers"]}
        metrics = {}
        for name, values in layers.items():
            if isinstance(values[0], int):
                if len(set(values)) > 1:
                    problems.append(f"count {name} differs between traced repetitions: {values}")
                metrics[name] = values[0]
            else:
                metrics[name] = statistics.median(values)
        metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                       - statistics.median(r["wall_s"] for r in plain))
        samples = {name: len(traced) for name in metrics}
    else:
        metrics = {name: statistics.median(rep[name] for rep in plain)
                   for name in ("wall_s", "cpu_s", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(setups)
        samples = {"wall_s": len(plain), "cpu_s": len(plain), "peak_rss_mb": len(plain),
                   "setup_s": len(setups)}
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")

    lines = [f"# {workload}  seed={seed}  trace={int(trace)}  repetitions={len(reps)}"]
    lines += [f"{name:<42} {metrics[name]:>14.6g} {units[name]:<6} (median of {samples[name]})"
              for name in units]
    lines.append("wall_s per repetition: " + " ".join(
        f"{rep['wall_s']:.4f}{'(traced)' if rep['traced'] else ''}" for rep in reps))
    lines.append(f"{'fail_ratio':<42} {failed / attempted:>14.6g} {'':<6} "
                 f"({failed} of {attempted} operations failed)")
    lines.append("verdicts (exit codes): " + " ".join(f"{k}={v}" for k, v in reps[0]["exits"].items()))
    lines.append("env: " + json.dumps({"seed": seed, **reps[0]["env"]}, sort_keys=True))
    lines += [f"problem: {p}" for p in problems]
    return {"result": {"correct": not problems, "attempted": attempted, "failed": failed,
                       "metrics": {name: {"value": metrics[name], "unit": units[name]}
                                   for name in units}},
            "lines": lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="small levels, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "berezin" / "__init__.py").is_file():
        sys.stderr.write(f"no berezin sources under {ROOT / 'src'}; run from a checkout\n")
        return 2
    # Turn SIGTERM into SystemExit, so that the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            out = run(name, args.seed, args.seconds, bool(args.trace), args.tiny)
            print("\n".join(out["lines"]), flush=True)
            results[name] = out["result"]
    except BenchError as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 3
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
