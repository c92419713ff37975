"""Seeded benchmark inputs: the shipped groups relabeled, plus S8.

A seed picks one permutation ``pi`` of ``{1..n}`` for each degree ``n``
and rewrites every generator ``g`` as ``x -> pi(g(pi^-1(x)))``. That is
the same abstract group at the same cost, with new file bytes and a new
table-cache key. Seed 0 copies the shipped files byte for byte.
"""

from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

# Shipped groups the workloads use besides the corpus manifest.
EXTRA_GROUPS = ("m11", "psl211")

# S8 is not shipped; its generators are fixed here.
S8 = {"name": "S8", "degree": 8, "generators": [[2, 3, 4, 5, 6, 7, 8, 1],
                                                [2, 1, 3, 4, 5, 6, 7, 8]]}


def point_permutation(seed: int, n: int) -> list[int]:
    """The relabeling of ``{1..n}`` for ``seed``, as a 1-based image list."""
    points = list(range(1, n + 1))
    if seed:
        random.Random(f"perfbench:{seed}:{n}").shuffle(points)
    return points


def relabel(obj: dict, seed: int) -> dict:
    n = obj["degree"]
    pi = point_permutation(seed, n)
    pi_inv = [0] * n
    for x, y in enumerate(pi, start=1):
        pi_inv[y - 1] = x
    gens = [[pi[g[pi_inv[x] - 1] - 1] for x in range(n)] for g in obj["generators"]]
    return {"name": obj["name"], "degree": n, "generators": gens}


def write_inputs(data_dir: Path, out_dir: Path, seed: int) -> None:
    """Write ``manifest.json`` and ``groups/*.json`` for ``seed`` into ``out_dir``."""
    groups = out_dir / "groups"
    groups.mkdir(parents=True)
    manifest = data_dir / "corpus_manifest.json"
    shutil.copyfile(manifest, out_dir / "manifest.json")
    entries = json.loads(manifest.read_text(encoding="utf-8"))["entries"]
    files = [data_dir / e["group"] for e in entries]
    files += [data_dir / "groups" / f"{key}.json" for key in EXTRA_GROUPS]
    for src in files:
        if seed == 0:
            shutil.copyfile(src, groups / src.name)
        else:
            obj = relabel(json.loads(src.read_text(encoding="utf-8")), seed)
            (groups / src.name).write_text(json.dumps(obj) + "\n", encoding="utf-8")
    (groups / "s8.json").write_text(json.dumps(relabel(S8, seed)) + "\n", encoding="utf-8")
