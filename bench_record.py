"""Before/after benchmark pairs: a parent commit against HEAD.

    python3 bench_record.py --parent HEAD~1 --pr <number> --seeds 201 202 203 204 205

For every workload of ``BENCHMARK.json`` and every seed, ``python3
perfbench/run.py --workload W --seed S --seconds T``, with T the benchmark's
``run_seconds``, runs once in a checkout of the parent and once in a checkout
of HEAD (the "tree"), each made by ``git archive <commit> | tar -x`` into a
temporary directory, so both sides run committed files from fresh
directories and uncommitted changes are not measured.  The side that runs
first alternates from one pair to the next.  The result goes to
``BENCH_<pr>.json``: every run, and per workload and end-to-end metric the
median and quartiles of each side, the per-pair ratios (tree / parent) with
their median and quartiles, and the number of pairs the tree wins.  A pair
where either run exited non-zero, read ``correct: false`` or failed an
operation is left out of these statistics and listed under ``excluded``, and
the script then exits 1.  It also records the seeds, both commit ids and the
machine.  The benchmark itself (its checks, bounds, workloads, run length and
seeds) is read, never changed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent
SIDES = ("parent", "tree")


def quartiles(values) -> dict:
    """Median and inclusive quartiles of a nonempty list."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(parent, tree, better: str) -> dict:
    """One metric over pairs of runs: each side's runs and quartiles, the
    ratios tree / parent and the pairs where the tree is strictly better."""
    ratios = [t / p for p, t in zip(parent, tree, strict=True)]
    wins = sum((t < p) if better == "lower" else (t > p) for p, t in zip(parent, tree))
    return {"better": better, "pairs": len(ratios), "wins": wins,
            "parent": {"runs": list(parent)} | quartiles(parent),
            "tree": {"runs": list(tree)} | quartiles(tree),
            "ratio": {"runs": ratios} | quartiles(ratios)}


def usable(run: dict) -> bool:
    """A run that exited 0, read correct and failed no operation."""
    return "metrics" in run and run.get("correct") is True and run.get("failed") == 0


def workload_record(runs: list, better: dict) -> dict:
    """Every pair of one workload, the seeds of the pairs left out because a
    side is not :func:`usable`, and each metric summarized over the rest."""
    ok = [r for r in runs if all(usable(r[side]) for side in SIDES)]
    return {"runs": runs, "excluded": [r["seed"] for r in runs if r not in ok],
            "metrics": {name: summarize([r["parent"]["metrics"][name] for r in ok],
                                        [r["tree"]["metrics"][name] for r in ok], how)
                        for name, how in better.items()} if ok else {}}


def side_order(pair: int) -> tuple:
    """The order of the two runs of pair ``pair``: the parent first in even
    pairs, the tree first in odd ones."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "platform": platform.platform()}


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def run_once(root: Path, workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    """The result line of one benchmark run in ``root``."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"exit": proc.returncode, "stderr": proc.stderr[-2000:]}
    result = json.loads(lines[-1])
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    return result


def layer_self_times(run: dict) -> dict:
    """The ops a traced run attempted and each layer's ``self_s_total``."""
    if "metrics" not in run:
        return run
    suffix = ".self_s_total"
    return {"attempted": run["attempted"],
            "self_s_total": {name.removesuffix(suffix): value
                             for name, value in run["metrics"].items() if name.endswith(suffix)}}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit to compare against")
    parser.add_argument("--pr", required=True, type=int, help="number in BENCH_<pr>.json")
    parser.add_argument("--seeds", required=True, type=int, nargs="+")
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    record = {"parent": _git("rev-parse", args.parent), "tree": _git("rev-parse", "HEAD"),
              "seeds": args.seeds, "seconds": seconds, "machine": machine(), "workloads": {}}

    with tempfile.TemporaryDirectory(prefix="bench-record-") as tmp:
        roots = {side: Path(tmp) / side for side in SIDES}
        for side, root in roots.items():
            root.mkdir()
            archive = subprocess.run(["git", "archive", record[side]], cwd=ROOT, check=True,
                                     capture_output=True).stdout
            subprocess.run(["tar", "-x", "-C", str(root)], input=archive, check=True)
        for workload in (w["name"] for w in bench["workloads"]):
            runs = []
            for pair, seed in enumerate(args.seeds):
                run = {"seed": seed, "first": side_order(pair)[0]}
                for side in side_order(pair):
                    run[side] = run_once(roots[side], workload, seed, seconds)
                    print(f"{workload} seed {seed} {side}: {json.dumps(run[side])}", flush=True)
                runs.append(run)
            record["workloads"][workload] = workload_record(runs, better)
            record["workloads"][workload]["layers"] = {
                side: layer_self_times(run_once(roots[side], workload, args.seeds[0], seconds,
                                                trace=1))
                for side in SIDES}

    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out.name}")
    excluded = {w: r["excluded"] for w, r in record["workloads"].items() if r["excluded"]}
    if excluded:
        print(f"pairs left out (a run failed, was incorrect or failed ops): {excluded}",
              file=sys.stderr)
    untraced = [w for w, r in record["workloads"].items()
                if any("self_s_total" not in layers for layers in r["layers"].values())]
    if untraced:
        print(f"traced runs failed: {untraced}", file=sys.stderr)
    return 1 if excluded or untraced else 0


if __name__ == "__main__":
    sys.exit(main())
