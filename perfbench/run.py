"""Benchmark launcher: one workload, one seed, one result line.

    python3 perfbench/run.py --workload roundtrip_batch --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload runs in fresh processes
(``workload.py``) whose environment lacks the thread variables below, so the
program's own thread defaults are what gets measured; the variables found are
recorded with the result.  With ``--trace 0`` the launcher first runs the
set-up alone in SETUPS - 1 processes, then the measured process, and reports
the median set-up time; with ``--trace 1`` it runs the traced process only.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full result, with machine facts, goes to ``.perfbench/results/``.  Any
failure to run exits non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("HANKEL_SPECTRA_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("roundtrip_batch", "large_truncation", "inverse_stability")
SETUPS = 3
DEADLINE_S = 170.0


class RunFailed(RuntimeError):
    pass


def run_child(args, env, workdir: Path, deadline: float, setup_only: bool) -> dict:
    t0 = time.time()
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--t0", repr(t0), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunFailed("out of time before starting a workload process")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"workload process exceeded the {DEADLINE_S:.0f} s deadline") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"workload process exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    env = dict(os.environ)
    removed = {name: env.pop(name) for name in THREAD_VARS if name in env}
    state = ROOT / ".perfbench"
    (state / "work").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=state / "work"))
    try:
        setups = []
        if not args.trace:
            for k in range(SETUPS - 1):
                child = run_child(args, env, workdir / f"setup{k}", deadline, setup_only=True)
                setups.append(child["setup_s"])
        result = run_child(args, env, workdir / "main", deadline, setup_only=False)
    except (RunFailed, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    if args.trace:
        for name, (value, unit) in result["metrics"].items():
            metrics[name] = {"value": value, "unit": unit}
    else:
        m = result["metrics"]
        setups.append(m["setup_s"])
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": m["ops_per_s"], "unit": "ops/s"},
            "op_s_p50": {"value": m["op_s_p50"], "unit": "s"},
            "peak_rss_mb": {"value": m["peak_rss_mb"], "unit": "MB"},
        }
    line = {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}
    record = dict(line, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, problem=result["problem"], setup_runs_s=setups,
                  refused_draws=result["refused_draws"],
                  machine=result["machine"], thread_vars_removed=removed)
    results = state / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time())}.json"
    (results / name).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"machine {json.dumps(result['machine'], sort_keys=True)}")
    print(f"thread variables removed {json.dumps(removed, sort_keys=True)}")
    if result["problem"]:
        print(f"check failed: {result['problem']}")
    if result["refused_draws"]:
        print(f"input draws left out: {len(result['refused_draws'])} ({result['refused_draws'][0]})")
    print(f"ops attempted {line['attempted']} failed {line['failed']} correct {line['correct']}")
    for metric, entry in metrics.items():
        print(f"{metric} {entry['value']!r} {entry['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
