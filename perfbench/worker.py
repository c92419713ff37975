"""One benchmark workload in a fresh interpreter.

``run.py`` starts this file with a fixed ``PYTHONHASHSEED`` so that lazy
caches and the peak-memory high-water mark never carry over between
workloads. It imports blocktool from the checkout's ``src``, writes the
seeded inputs into ``--workdir``, runs ``blocktool.cli.main(argv)`` in
process as a closed loop with one client, checks every report, and prints
one JSON line with the raw timings and metrics.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from inputs import write_inputs  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from workloads import WORKLOADS, check, sha256, summary, table_item  # noqa: E402

# A pass is not started when it is predicted to end after this many times
# the requested run length.
OVERRUN = 1.5


@dataclass
class Call:
    """One timed CLI call."""

    key: str  # item id, plus ":cold" or ":warm" for table calls
    phase: str  # "cold", "warm" or "main"
    pass_no: int  # the pass it belongs to; -1 for the cache phase before the passes
    round_no: int  # the cold or warm cache round it belongs to; -1 outside cache rounds
    wall: float  # wall seconds
    ref: float  # reference seconds (see speed.py); equal to wall when not sampled


class Session:
    """Runs items, times them, and checks (or records) what they print."""

    def __init__(self, cli_main, seed, expected, tracer=None, record=False):
        self.cli_main = cli_main
        self.seed = seed
        self.expected = expected
        self.tracer = tracer
        self.record = record
        # probes would add their time to the spans, so a traced run is not sampled
        self.sampler = SpeedSampler() if tracer is None else None
        self.calls: list[Call] = []
        self.item_ids: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _invoke(self, argv):
        try:
            if self.tracer is None:
                return self.cli_main(argv)
            return self.tracer.run_item(len(self.item_ids) - 1, self.cli_main, argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed item, not a lost run
            return f"raised {exc!r}"

    def call(self, item, phase, pass_no, round_no=-1) -> str:
        out, err = io.StringIO(), io.StringIO()
        self.item_ids.append(item.id)
        with redirect_stdout(out), redirect_stderr(err):
            if self.sampler is None:
                t0 = time.perf_counter()
                code = self._invoke(list(item.argv))
                wall = ref = time.perf_counter() - t0
            else:
                code, wall, ref = self.sampler.timed(self._invoke, list(item.argv))
        key = item.id if phase == "main" else f"{item.id}:{phase}"
        self.calls.append(Call(key, phase, pass_no, round_no, wall, ref))
        text = out.getvalue()
        self.attempted += 1
        if self.record:
            self.expected["summaries"][item.id] = summary(item.kind, json.loads(text))
            self.expected["sha256_seed0"][item.id] = sha256(text)
        else:
            self.fail(item, check(item, code, text, self.expected, self.seed))
        return text

    def fail(self, item, reason):
        if reason is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{item.id}: {reason}")


def cache_phase(session, spec, cache_dir, pass_no):
    """Cold rounds, each into an empty directory, then warm rounds reading the last one."""
    first = 1 + max((c.round_no for c in session.calls), default=-1)
    for r in range(first, first + spec.cold_rounds):
        directory = f"{cache_dir}-{r}"
        cold = {key: session.call(table_item(key, directory), "cold", pass_no, r)
                for key in spec.cache_groups}
    first += spec.cold_rounds
    for r in range(first, first + spec.warm_rounds):
        for key in spec.cache_groups:
            item = table_item(key, directory)
            if session.call(item, "warm", pass_no, r) != cold[key]:
                session.fail(item, "warm table differs from the cold one")


def run(session, workload, seconds, fixed_passes):
    """All phases of one workload, stopping at the first pass boundary after ``seconds``."""
    spec = WORKLOADS[workload]
    t_start = time.perf_counter()
    if spec.main:
        cache_phase(session, spec, "cache", -1)
    pass_times = []
    while True:
        t_pass = time.perf_counter()
        n = len(pass_times)
        if spec.main:
            for item in spec.main:
                session.call(item, "main", n)
        else:
            cache_phase(session, spec, "cache", n)
        now = time.perf_counter()
        pass_times.append(now - t_pass)
        if fixed_passes:
            if len(pass_times) >= fixed_passes:
                return
            continue
        if now - t_start >= seconds or now - t_start + median(pass_times) > OVERRUN * seconds:
            return


def _sums(calls, attr, by):
    totals: dict[int, float] = {}
    for c in calls:
        totals[getattr(c, by)] = totals.get(getattr(c, by), 0.0) + getattr(c, attr)
    return list(totals.values())


def figures(calls, attr):
    """End-to-end figures from the calls, using wall (``"wall"``) or reference (``"ref"``) times."""
    in_pass = [c for c in calls if c.pass_no >= 0]
    by_key: dict[str, list[float]] = {}
    for c in in_pass:
        by_key.setdefault(c.key, []).append(getattr(c, attr))
    return {
        "wall_s": median(_sums(in_pass, attr, "pass_no")),
        "item_p50_s": median(getattr(c, attr) for c in in_pass),
        "item_max_s": max(median(v) for v in by_key.values()),
        "table_write_s": median(_sums([c for c in calls if c.phase == "cold"], attr, "round_no")),
        "table_read_s": median(_sums([c for c in calls if c.phase == "warm"], attr, "round_no")),
    }


def samples(calls):
    """How many calls each figure rests on."""
    in_pass = [c for c in calls if c.pass_no >= 0]
    return {
        "wall_s": len({c.pass_no for c in in_pass}),
        "item_p50_s": len(in_pass),
        "item_max_s": len(in_pass),
        "table_write_s": sum(c.phase == "cold" for c in calls),
        "table_read_s": sum(c.phase == "warm" for c in calls),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--passes", type=int, default=0,
                        help="run exactly this many passes (0: until --seconds)")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="where the traced run writes its spans")
    parser.add_argument("--expected", help="expected file (default: expected/<workload>.json)")
    parser.add_argument("--record", help="write the expected file here instead of checking")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import blocktool
    from blocktool import cli
    if Path(blocktool.__file__).resolve().parent != (src / "blocktool").resolve():
        sys.stderr.write(f"imported blocktool from {blocktool.__file__}, not from {src}\n")
        return 2
    # paths from the command line are relative to the caller's directory
    workdir, expected_path, record_path, spans_path = (
        Path(p).resolve() if p else None
        for p in (args.workdir, args.expected, args.record, args.spans))
    write_inputs(src / "blocktool" / "data", workdir, args.seed)
    os.chdir(workdir)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    if record_path:
        expected = {"summaries": {}, "sha256_seed0": {}}
    else:
        path = expected_path or BENCH / "expected" / f"{args.workload}.json"
        expected = json.loads(path.read_text(encoding="utf-8"))
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    session = Session(cli.main, args.seed, expected, tracer, record=bool(record_path))
    run(session, args.workload, args.seconds, args.passes)
    if tracer is not None:
        tracer.uninstall()
    calls = session.calls
    result = {
        "ready": ready,
        "figures": figures(calls, "ref"),
        "wall_figures": figures(calls, "wall"),
        "samples": samples(calls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "items_per_pass": sum(c.pass_no == 0 for c in calls),
        "item_seconds": sum(c.wall for c in calls),
        "attempted": session.attempted,
        "failed": session.failed,
        "failures": session.failures,
    }
    if tracer is not None:
        result["per_layer"] = tracer.metrics()
        if spans_path:
            tracer.write_spans(spans_path, session.item_ids)
    if record_path:
        record_path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                                     encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
