"""Workload definitions and the seed-invariant correctness summaries.

An item is one ``blocktool`` CLI call. Every workload first runs a
table-cache phase on its own groups: cold rounds, each with one
``table --cache`` call per group into an empty directory, then warm rounds
that read the tables back. Then it repeats its main items in passes.
``table-cache`` has no separate main items: its pass is that cache phase.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

CORPUS_GROUPS = ("c2", "c4", "s3", "a4", "s4", "d10", "sl23", "a5", "psl27")


@dataclass(frozen=True)
class Item:
    id: str  # key of the item in the expected file
    kind: str  # "verify", "corpus", "analyze" or "table"
    argv: tuple


@dataclass(frozen=True)
class Workload:
    cache_groups: tuple
    cold_rounds: int  # each into a fresh directory
    warm_rounds: int  # each reads every table back from the last directory
    main: tuple  # empty: the pass is the cache phase itself


def table_item(key: str, cache_dir: str) -> Item:
    return Item(f"table:{key}", "table", ("table", f"groups/{key}.json", "--cache", cache_dir))


def _verify_items(groups, primes):
    return tuple(Item(f"verify:{g}:p{p}", "verify", ("verify", f"groups/{g}.json", "--prime", str(p)))
                 for g in groups for p in primes)


WORKLOADS = {
    # Many tiny tables: per-report overhead, JSON output and the CLI dominate;
    # optimisations aimed at large groups should show no change here.
    "corpus": Workload(CORPUS_GROUPS, 5, 10, (
        Item("corpus", "corpus", ("corpus", "manifest.json", "--jobs", "1")),)),
    # Local analysis (cyclic blocks, weights, AM/IN/BAW) on mid-size groups,
    # with repeated Dixon-Schneider runs and whole-group subgroup scans.
    "verify-m11-psl211": Workload(("m11", "psl211"), 2, 8,
                                  _verify_items(("m11", "psl211"), (2, 3, 5, 11))),
    # One large character table (S8, order 40320): class sums, eigenspace
    # splitting and validation; local analysis does almost nothing.
    "analyze-s8": Workload(("s8",), 1, 3, (
        Item("analyze:s8:p7", "analyze", ("analyze", "groups/s8.json", "--prime", "7")),)),
    # The table cache path: cold calls compute and write, warm calls parse,
    # reclassify and re-validate.
    "table-cache": Workload(("m11", "psl211", "s8"), 1, 5, ()),
}


# -- seed-invariant summaries -------------------------------------------------------


def _closure_order(gens) -> int:
    """Order of the group generated by 1-based image lists (small groups only)."""
    if not gens:
        return 1
    identity = tuple(range(1, len(gens[0]) + 1))
    seen, frontier = {identity}, [identity]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple(g[i - 1] for i in x)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen)


def _outcome(result):
    if result is None:
        return None
    for key in ("skipped", "error"):
        if key in result:
            return key
    return result["ok"]


def _sorted_multiset(rows):
    return sorted(rows, key=json.dumps)


def _verify_summary(rep):
    blocks = []
    for b in rep["blocks"]:
        checks = b["checks"]
        blocks.append([sorted(b["degrees"]), b["defect"], b["defect_group"]["order"],
                       b["defect_group"]["cyclic"], b["height_zero_count"],
                       (b["cyclic"] or {}).get("e"), _outcome(checks.get("am")),
                       _outcome(checks.get("in_refinement")), _outcome(checks.get("baw"))])
    return {"order": rep["order"], "degrees": sorted(rep["character_degrees"]),
            "block_count": rep["block_count"], "blocks": _sorted_multiset(blocks)}


def _analyze_summary(rep):
    blocks = [[sorted(b["degrees"]), b["defect"], _closure_order(b["defect_group_generators"])]
              for b in rep["blocks"]]
    degrees = sorted(d for b in rep["blocks"] for d in b["degrees"])
    return {"order": rep["order"], "degrees": degrees, "block_count": len(blocks),
            "blocks": _sorted_multiset(blocks)}


def _table_summary(rep):
    identity = next(j for j, c in enumerate(rep["classes"]) if c["order"] == 1)
    return {"order": rep["order"], "classes": _sorted_multiset([c["order"], c["size"]]
                                                               for c in rep["classes"]),
            "degrees": _sorted_multiset(row[identity] for row in rep["characters"])}


def summary(kind: str, rep) -> object:
    """What an item's report must say at every seed."""
    if kind == "verify":
        return _verify_summary(rep)
    if kind == "corpus":
        return {"overall": rep["overall"],
                "entries": [{"group": e["group"], "prime": e["prime"], "overall": e["overall"],
                             **_verify_summary(e["report"])} for e in rep["entries"]]}
    if kind == "analyze":
        return _analyze_summary(rep)
    return _table_summary(rep)


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check(item: Item, code, text: str, expected: dict, seed: int):
    """The reason ``item`` failed, or None. ``expected`` is the workload's expected file."""
    if code != 0:
        return f"exit status {code}"
    rep = json.loads(text)
    if rep.get("overall") is False:
        return "report says overall: false"
    want = expected["summaries"].get(item.id)
    if want is None or canonical(summary(item.kind, rep)) != canonical(want):
        return "seed-invariant summary differs from the expected one"
    if seed == 0 and sha256(text) != expected["sha256_seed0"].get(item.id):
        return "report bytes differ from the committed seed-0 hash"
    return None
