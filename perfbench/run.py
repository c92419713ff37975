"""blocktool benchmark: one workload, one seed, one result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics: several setup-only
interpreters for ``setup_s``, then one worker that runs the workload for
about ``--seconds``. ``--trace 1`` runs one fixed pass untraced and the
same pass traced, and reports the per-layer metrics from the traced run
with ``trace.overhead_s``, the traced minus the untraced item time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
starts with ``# record`` and holds the machine information, the item count
behind every metric and the failure fraction.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "work"
sys.path.insert(0, str(BENCH))

from speed import EDGE_PROBES, EXPONENT, NOMINAL_PROBE_S, probe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HASH_SEED = "0"
SETUP_SAMPLES = 7  # setup-only interpreters per run; the worker's own setup is one more
TIME_LIMIT = 170.0  # seconds for the whole run, children included

UNITS = {"setup_s": "s", "wall_s": "s", "item_p50_s": "s", "item_max_s": "s",
         "peak_rss_mb": "MB", "table_write_s": "s", "table_read_s": "s"}


class WorkerFailed(Exception):
    pass


def spawn(args, tag, extra, deadline):
    """Run worker.py in a fresh interpreter; returns its result with ``setup_s`` added.

    ``setup_s`` is in reference seconds (see speed.py), from probes taken
    just before the interpreter starts and just after it exits.
    """
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}-{tag}"
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--workdir", str(workdir), *extra]
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    before = [probe() for _ in range(EDGE_PROBES)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker {tag} did not finish in time") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {tag} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    slowdown = median(before + [probe() for _ in range(EDGE_PROBES)]) / NOMINAL_PROBE_S
    slowdown **= EXPONENT
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_wall_s"] = result["ready"] - t0
    result["setup_s"] = result["setup_wall_s"] / slowdown
    return result


def measure(args, deadline):
    setups = [spawn(args, f"setup{k}", ["--setup-only"], deadline) for k in range(SETUP_SAMPLES)]
    res = spawn(args, "run", [], deadline)
    setups.append(res)
    values = dict(res["figures"], setup_s=median(r["setup_s"] for r in setups),
                  peak_rss_mb=res["peak_rss_mb"])
    counts = dict(res["samples"], setup_s=len(setups), peak_rss_mb=1)
    metrics = {k: {"value": values[k], "unit": UNITS[k], "samples": counts[k]} for k in UNITS}
    res["wall_figures"]["setup_s"] = median(r["setup_wall_s"] for r in setups)
    return res, metrics


def measure_traced(args, deadline):
    plain = spawn(args, "plain", ["--passes", "1"], deadline)
    traces = WORK / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    spans = traces / f"{args.workload}-seed{args.seed}.tsv"
    traced = spawn(args, "traced", ["--passes", "1", "--trace", "--spans", str(spans)], deadline)
    metrics = {k: {"value": v, "unit": u, "samples": 1} for k, (v, u) in traced["per_layer"].items()}
    metrics["trace.overhead_s"] = {"value": traced["item_seconds"] - plain["item_seconds"],
                                   "unit": "s", "samples": 2}
    traced["attempted"] += plain["attempted"]
    traced["failed"] += plain["failed"]
    traced["failures"] += plain["failures"]
    return traced, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT

    src = ROOT / "src" / "blocktool"
    if not (src / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no blocktool source at {src}\n")
        return 2
    if args.workload not in WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"known: {', '.join(WORKLOADS)}\n")
        return 2
    # Compile once up front so that no run's setup time includes byte-compiling.
    if not compileall.compile_dir(str(src), quiet=1):
        sys.stderr.write("perfbench: blocktool does not compile\n")
        return 2
    try:
        res, metrics = (measure_traced if args.trace else measure)(args, deadline)
    except WorkerFailed as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": {"python": platform.python_version(), "nproc": os.cpu_count(),
                    "PYTHONHASHSEED": HASH_SEED, "platform": platform.platform()},
        "items_per_pass": res["items_per_pass"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "fail_frac": res["failed"] / res["attempted"],
        "failures": res["failures"],
        "metrics": metrics,
        "wall_clock": res.get("wall_figures"),
    }
    print("# record " + json.dumps(record))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
