"""File formats: group files, table files, cache, canonical JSON.

All JSON emitted by the toolkit goes through canonical_json so identical
inputs produce byte-identical outputs (determinism contract).
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from .chartab import CharacterTable, character_table, ingest_table
from .cyclo import CycNum
from .errors import InvalidInput
from .permcore import PermGroup, Permutation, conjugacy_classes

CACHE_ENV_VAR = "BLOCKTOOL_CACHE"


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# -- group files ------------------------------------------------------------


def group_to_obj(name: str, G: PermGroup) -> dict:
    return {
        "name": name,
        "degree": G.degree,
        "generators": [g.one_based() for g in G.generators],
    }


def group_from_obj(obj) -> tuple[str, PermGroup]:
    try:
        name = obj["name"]
        degree = int(obj["degree"])
        gens = [Permutation.from_one_based(images) for images in obj["generators"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInput(f"malformed group file: {exc}") from exc
    for g in gens:
        if g.degree != degree:
            raise InvalidInput("generator length differs from the declared degree")
    return name, PermGroup(degree, gens)


def read_group_file(path) -> tuple[str, PermGroup]:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInput(f"cannot read group file {path}: {exc}") from exc
    return group_from_obj(obj)


def write_group_file(path, name: str, G: PermGroup):
    Path(path).write_text(canonical_json(group_to_obj(name, G)), encoding="utf-8")


# -- table files --------------------------------------------------------------


def table_to_obj(T: CharacterTable) -> dict:
    return {
        "schema": 1,
        "order": T.order,
        "degree": T.group.degree,
        "exponent": T.exponent,
        "classes": [
            {
                "order": c.element_order,
                "size": c.size,
                "representative": c.representative.one_based(),
            }
            for c in T.classes
        ],
        "power_maps": {str(q): list(pm) for q, pm in sorted(T.power_maps.items())},
        "characters": [[v.to_obj() for v in row] for row in T.characters],
    }


def table_from_obj(G: PermGroup, obj, max_order=None) -> CharacterTable:
    """Rebuild a table against a freshly computed class list, re-validating; it becomes G's."""
    if obj.get("schema") != 1:
        raise InvalidInput("unknown table schema")
    classes = conjugacy_classes(G, max_order)
    stored = obj["classes"]
    if len(stored) != len(classes):
        raise InvalidInput("cached table class count differs from the group")
    for c, s in zip(classes, stored):
        if (c.element_order != s["order"] or c.size != s["size"]
                or c.representative.one_based() != list(s["representative"])):
            raise InvalidInput("cached table classes differ from the group")
    characters = [[CycNum.from_obj(v) for v in row] for row in obj["characters"]]
    power_maps = {int(q): tuple(pm) for q, pm in obj["power_maps"].items()}
    return ingest_table(G, classes, int(obj["exponent"]), power_maps, characters)


# -- table cache ----------------------------------------------------------------


def generator_hash(G: PermGroup) -> str:
    payload = canonical_json({"degree": G.degree,
                              "generators": [g.one_based() for g in G.generators]})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


def cache_dir_from_env(cli_value=None):
    if cli_value:
        return Path(cli_value)
    env = os.environ.get(CACHE_ENV_VAR)
    return Path(env) if env else None


def cached_character_table(G: PermGroup, cache_dir=None, max_order=None) -> CharacterTable:
    """Compute or load the table; cache keyed by the canonical generator hash.

    Files are written under a temporary name and renamed, so no reader sees half a file.
    """
    if cache_dir is None:
        return character_table(G, max_order)
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / f"table-{generator_hash(G)}.json"
    if path.exists():
        try:
            with open(path, encoding="utf-8") as fh:
                obj = json.load(fh)
            return table_from_obj(G, obj, max_order)
        except (InvalidInput, json.JSONDecodeError, KeyError):
            path.unlink()
    T = character_table(G, max_order)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp.write_text(canonical_json(table_to_obj(T)), encoding="utf-8")
    os.replace(tmp, path)
    return T
