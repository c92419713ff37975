"""Helpers around run.py. Run from the root of a checkout:

    python3 perfbench/admin.py report [--seed 1]     # every end-to-end metric, all workloads
    python3 perfbench/admin.py spread --workload corpus --seeds 1-10
    python3 perfbench/admin.py selftest              # a tampered expected file must fail items
    python3 perfbench/admin.py record                # rewrite expected/*.json from seed 0

``record`` trusts the current code: use it only when a change to the
reports is intended, and say so, since it moves the correctness baseline.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload, seed, trace=0):
    """The ``# record`` line of one run.py run."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: run.py exited {proc.returncode}\n{proc.stderr}")
    line = next(x for x in proc.stdout.splitlines() if x.startswith("# record "))
    return json.loads(line[len("# record "):])


def cmd_report(args):
    print(f"{'workload':18} {'metric':14} {'value':>12} {'unit':5} {'samples':>7}")
    for workload in args.workloads or WORKLOADS:
        rec = run_once(workload, args.seed)
        for name, m in rec["metrics"].items():
            print(f"{workload:18} {name:14} {m['value']:12.6f} {m['unit']:5} {m['samples']:7d}")
        print(f"{workload:18} {'fail_frac':14} {rec['fail_frac']:12.6f} {'1':5} "
              f"{rec['attempted']:7d}")
    print("machine:", json.dumps(rec["machine"]))


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cmd_spread(args):
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    values: dict[str, list[float]] = {}
    raw: dict[str, list[float]] = {}
    for seed in _seeds(args.seeds):
        rec = run_once(args.workload, seed)
        if rec["failed"]:
            print(f"seed {seed}: {rec['failed']} failed items: {rec['failures']}")
        for name, m in rec["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        for name, v in rec["wall_clock"].items():
            raw.setdefault(name, []).append(v)
    print(f"{args.workload}: quartile spread as a share of the median, "
          f"{len(values['wall_s'])} seeds; last column: the same from unscaled wall-clock times")
    for name, vals in values.items():
        spread = _spread(vals)
        wall = f"{_spread(raw[name]):.4f}" if name in raw else ""
        print(f"  {name:14} median {median(vals):12.6f}  spread {spread:.4f}  "
              f"bound {bounds[name]}  {'ok' if spread < bounds[name] / 3 else 'WIDE':4}  {wall}")
        print("    " + " ".join(f"{v:.4f}" for v in vals))


def _spread(vals):
    q1, q2, q3 = quantiles(vals, n=4)
    return (q3 - q1) / q2


def cmd_selftest(_args):
    """Tamper with one expected summary and show that the corpus items fail."""
    work = BENCH / "work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tampered = json.loads((BENCH / "expected" / "corpus.json").read_text(encoding="utf-8"))
    tampered["summaries"]["corpus"]["entries"][0]["order"] += 1
    path = work / "corpus-tampered.json"
    path.write_text(json.dumps(tampered), encoding="utf-8")
    outcome = {}
    for label, extra in (("committed", []), ("tampered", ["--expected", str(path)])):
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", "corpus", "--seed", "1",
               "--passes", "1", "--workdir", str(work / label), *extra]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        res = json.loads(proc.stdout.splitlines()[-1])
        outcome[label] = res["failed"] / res["attempted"]
        print(f"{label} expected file: fail_frac {outcome[label]:.4f} {res['failures'][:1]}")
    shutil.rmtree(work, ignore_errors=True)
    if outcome["committed"] != 0 or outcome["tampered"] == 0:
        sys.exit("selftest FAILED")
    print("selftest passed")


def cmd_record(_args):
    work = BENCH / "work" / "record"
    for workload in WORKLOADS:
        shutil.rmtree(work, ignore_errors=True)
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", "0",
               "--passes", "1", "--workdir", str(work),
               "--record", str(BENCH / "expected" / f"{workload}.json")]
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        print(f"recorded expected/{workload}.json")
    shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("report")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workloads", nargs="*", choices=sorted(WORKLOADS))
    p.set_defaults(func=cmd_report)
    p = sub.add_parser("spread")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seeds", default="1-10", help="inclusive range, such as 1-10")
    p.set_defaults(func=cmd_spread)
    sub.add_parser("selftest").set_defaults(func=cmd_selftest)
    sub.add_parser("record").set_defaults(func=cmd_record)
    args = parser.parse_args(argv)
    args.func(args)


if __name__ == "__main__":
    main()
