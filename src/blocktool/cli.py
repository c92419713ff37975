"""Command-line front end: analyze, tree, verify, lietype, table, corpus.

All JSON output is canonical (sorted keys), so identical inputs and flags
produce byte-identical bytes. Exit codes: 0 all requested checks pass,
1 a check failed, 2 usage or input error (structured JSON on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .arith import is_prime
from .blocks import block_partition, defect_group
from .chartab import character_table
from .errors import BlocktoolError, InvalidInput
from .fileio import (
    CACHE_ENV_VAR,
    cache_dir_from_env,
    cached_character_table,
    canonical_json,
    read_group_file,
    table_to_obj,
)
from .lietype import LieTypeCase, cross_check_small_instance, cyclic_sylow_criterion
from .permcore import Permutation
from .verify import SCHEMA_VERSION, full_group_report, render_report_text

_ALL_CHECKS = ("am", "in", "baw")


def _emit(payload: str, out_path):
    if out_path:
        Path(out_path).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)


def _fail(code: str, message: str) -> int:
    sys.stderr.write(canonical_json({"error": code, "message": message}))
    return 2


def _require_prime(p):
    """p itself, if it is an integer prime; InvalidInput otherwise."""
    if isinstance(p, bool) or not isinstance(p, int) or not is_prime(p):
        raise InvalidInput(f"p = {p!r} is not a prime")
    return p


def _analyze_report(name, G, p, max_order):
    T = character_table(G, max_order)
    partition = block_partition(T, p)
    star = partition.star
    return {
        "schema": SCHEMA_VERSION,
        "group": name,
        "order": T.order,
        "prime": p,
        "reduction": {
            "p": p,
            "conductor": star.m,
            "modulus": list(star.modulus),
        },
        "blocks": [
            {
                "index": B.index,
                "characters": list(B.char_indices),
                "degrees": list(B.degrees),
                "defect": B.defect,
                "defect_group_generators": [g.one_based() for g in defect_group(B).generators],
                "lambda_star": [v.to_obj() for v in B.lambda_star],
            }
            for B in partition
        ],
    }


def _render_analyze_text(report) -> str:
    lines = [f"group {report['group']}  order {report['order']}  p = {report['prime']}"]
    for b in report["blocks"]:
        lines.append(f"block {b['index']}: characters {b['characters']}, "
                     f"degrees {b['degrees']}, defect {b['defect']}")
    return "\n".join(lines) + "\n"


def cmd_analyze(args) -> int:
    _require_prime(args.prime)
    name, G = read_group_file(args.group)
    report = _analyze_report(name, G, args.prime, args.max_order)
    payload = _render_analyze_text(report) if args.text else canonical_json(report)
    _emit(payload, args.out)
    return 0


def cmd_tree(args) -> int:
    _require_prime(args.prime)
    name, G = read_group_file(args.group)
    report = full_group_report(G, args.prime, name=name, checks=(), max_order=args.max_order)
    blocks = report["blocks"]
    if not 0 <= args.block < len(blocks):
        raise InvalidInput(f"block index {args.block} out of range (0..{len(blocks) - 1})")
    entry = blocks[args.block]
    if entry["cyclic"] is None:
        flags = entry["flags"] or ["defect-zero" if entry["defect"] == 0 else "unknown"]
        raise InvalidInput(f"block {args.block} has no Brauer tree ({', '.join(flags)})")
    payload = canonical_json({
        "schema": SCHEMA_VERSION,
        "group": name,
        "prime": args.prime,
        "block": args.block,
        "e": entry["cyclic"]["e"],
        "multiplicity": entry["cyclic"]["multiplicity"],
        "tree": entry["cyclic"]["tree"],
    })
    _emit(payload, args.out)
    return 0


def _parse_checks(raw: str):
    checks = tuple(c.strip() for c in raw.split(",") if c.strip())
    for c in checks:
        if c not in _ALL_CHECKS:
            raise InvalidInput(f"unknown check {c!r}; valid: {', '.join(_ALL_CHECKS)}")
    return checks


def _load_autos(path):
    if not path:
        return None
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        return [Permutation.from_one_based(images) for images in data]
    except (OSError, json.JSONDecodeError, ValueError, TypeError) as exc:
        raise InvalidInput(f"cannot read automorphism file {path}: {exc}") from exc


def cmd_verify(args) -> int:
    _require_prime(args.prime)
    name, G = read_group_file(args.group)
    checks = _parse_checks(args.checks)
    autos = _load_autos(args.autos)
    report = full_group_report(G, args.prime, name=name, checks=checks,
                               autos=autos, max_order=args.max_order)
    payload = render_report_text(report) if args.text else canonical_json(report)
    _emit(payload, args.out)
    return 0 if report["overall"] else 1


def cmd_lietype(args) -> int:
    case = LieTypeCase(args.series, args.n, args.q, args.p)
    if args.realization:
        _name, G = read_group_file(args.realization)
        record = cross_check_small_instance(case, G, args.max_order)
        ok = record["consistent"]
    else:
        record = cyclic_sylow_criterion(case)
        ok = True
    _emit(canonical_json(record), args.out)
    return 0 if ok else 1


def cmd_table(args) -> int:
    name, G = read_group_file(args.group)
    cache_dir = cache_dir_from_env(args.cache)
    T = cached_character_table(G, cache_dir, args.max_order)
    obj = table_to_obj(T)
    obj["group"] = name
    _emit(canonical_json(obj), args.out)
    return 0


def _corpus_entry(job):
    path, prime, checks, max_order = job
    name, G = read_group_file(path)
    report = full_group_report(G, prime, name=name, checks=checks, max_order=max_order)
    return {
        "group": name,
        "file": str(path),
        "prime": prime,
        "overall": report["overall"],
        "report": report,
    }


def cmd_corpus(args) -> int:
    manifest_path = Path(args.manifest)
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        entries = manifest["entries"]
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        raise InvalidInput(f"cannot read manifest {manifest_path}: {exc}") from exc
    checks = _parse_checks(args.checks)
    jobs = []
    for entry in entries:
        group_file = manifest_path.parent / entry["group"]
        if not group_file.exists():
            raise InvalidInput(f"manifest references a missing file: {group_file}")
        for p in entry["primes"]:
            jobs.append((str(group_file), _require_prime(p), checks, args.max_order))
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_corpus_entry, jobs))
    else:
        results = [_corpus_entry(job) for job in jobs]
    overall = all(r["overall"] for r in results)
    aggregate = {
        "schema": SCHEMA_VERSION,
        "manifest": manifest_path.name,
        "entries": results,
        "overall": overall,
    }
    if args.text:
        lines = [f"{r['group']} p={r['prime']}: {'pass' if r['overall'] else 'FAIL'}"
                 for r in results]
        lines.append(f"corpus: {'pass' if overall else 'FAIL'}")
        payload = "\n".join(lines) + "\n"
    else:
        payload = canonical_json(aggregate)
    _emit(payload, args.out)
    if not overall:
        failing = next(r for r in results if not r["overall"])
        sys.stderr.write(canonical_json({
            "error": "corpus-check-failed",
            "message": f"first failing entry: {failing['group']} at p = {failing['prime']}",
        }))
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blocktool",
        description="Exact p-block data and counting checks for permutation groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--max-order", type=int, default=None,
                       help="override the group-order enumeration bound")
        p.add_argument("--out", help="write output to a file instead of stdout")

    p = sub.add_parser("analyze", help="p-block decomposition report")
    p.add_argument("group", help="group file (JSON)")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--text", action="store_true", help="human-readable rendering")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("tree", help="Brauer tree and decomposition matrix of one block")
    p.add_argument("group")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--block", type=int, required=True, help="block index (canonical order)")
    common(p)
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("verify", help="AM / IN / BAW verification report")
    p.add_argument("group")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--checks", default="am,in,baw", help="comma-separated: am,in,baw")
    p.add_argument("--autos", help="JSON file with automorphisms (1-based image arrays)")
    p.add_argument("--text", action="store_true")
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("lietype", help="cyclic-Sylow criterion arithmetic")
    p.add_argument("--series", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--realization", help="group file for the Sylow cross-check")
    common(p)
    p.set_defaults(func=cmd_lietype)

    p = sub.add_parser("table", help="character table (compute or load from cache)")
    p.add_argument("group")
    p.add_argument("--cache", help=f"cache directory (default: ${CACHE_ENV_VAR})")
    common(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("corpus", help="run verification over a manifest of groups")
    p.add_argument("manifest")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers across entries")
    p.add_argument("--checks", default="am,in,baw")
    p.add_argument("--text", action="store_true")
    common(p)
    p.set_defaults(func=cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BlocktoolError as exc:
        return _fail(exc.code, str(exc))


if __name__ == "__main__":
    sys.exit(main())
