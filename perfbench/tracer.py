"""Outside-in tracing of blocktool's layers for the traced benchmark run.

Every traced function is replaced, in the module that defines it and in
every ``blocktool.*`` module that imported it by name, with a wrapper that
records a span: name, start, end, parent span and the benchmark item it
belongs to. Spans stay in memory and are written out when the run ends.
``Permutation.__mul__`` (millions of calls) and ``PermGroup.__init__`` are
only counted.

Nothing here edits blocktool's source; the patches live only in the
traced worker process.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

# Layer of each blocktool module, as the ROADMAP names them.
LAYERS = {
    "permcore": "permcore",
    "cyclo": "cyclo",
    "chartab": "chartab",
    "blocks": "blocks",
    "cyclicblocks": "local",
    "weights": "local",
    "verify": "local",
    "fileio": "fileio",
    "cli": "cli",
}

# Module-level functions that get a span, per defining module.
FUNCTIONS = {
    "permcore": ("conjugacy_classes", "normalizer", "centralizer", "centralizer_subgroup",
                 "sylow_subgroup", "p_core", "radical_p_subgroups", "are_conjugate_subgroups"),
    "chartab": ("character_table", "_dixon_schneider", "_split_space", "_kernel",
                "_validate_table", "class_fusion"),
    "blocks": ("block_partition", "defect_group", "heights_and_height_zero",
               "brauer_induced_block", "dominated_block"),
    "cyclicblocks": ("inertial_index", "analyze_cyclic_block", "brauer_tree",
                     "unitriangular_labeling", "derived_brauer_characters"),
    "weights": ("weights_of_block", "baw_count_check", "dz_characters", "radical_class_report"),
    "verify": ("brauer_correspondent", "am_check", "in_refinement_check", "block_report"),
    "fileio": ("read_group_file", "canonical_json", "table_to_obj", "table_from_obj",
               "cached_character_table"),
}

# Other callables that get a span: (module, class or None, attribute, span name).
# StarReduction.reduce is the star map that reduce_mod_p forwards to; the
# pipeline calls the method directly, so the span sits there. CycNum's
# constructor calls the module function cyclo._normalize.
METHODS = (
    ("permcore", "PermGroup", "elements", "permcore.elements"),
    ("cyclo", "StarReduction", "reduce", "cyclo.reduce_mod_p"),
    ("cyclo", None, "_normalize", "cyclo.normalize"),
)

ROOT_SPAN = "cli.main"


def _layer(span_name: str) -> str:
    return LAYERS[span_name.split(".", 1)[0]]


class Tracer:
    """Spans and counters for one traced worker process."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, item index, nested]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._open = Counter()
        self.item = -1
        self.counts = Counter()
        self.json_bytes = 0
        self._ds_groups: set = set()
        self._undo: list = []

    # -- recording -----------------------------------------------------------------

    def span(self, name: str, fn):
        spans, stack, is_open = self.spans, self._stack, self._open

        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.item,
                   is_open[name] > 0]
            stack.append(len(spans))
            spans.append(rec)
            is_open[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                is_open[name] -= 1
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def counter(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def run_item(self, item_index: int, fn, *args):
        """Run one benchmark item under a root span."""
        self.item = item_index
        return self.span(ROOT_SPAN, fn)(*args)

    # -- patching ------------------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        mods = {name: sys.modules[f"blocktool.{name}"] for name in LAYERS}
        users = [m for key, m in sorted(sys.modules.items())
                 if m is not None and (key == "blocktool" or key.startswith("blocktool."))]
        for modname, names in FUNCTIONS.items():
            for fname in names:
                original = getattr(mods[modname], fname)
                wrapped = self._wrap_function(f"{modname}.{fname}", original)
                for m in users:
                    if getattr(m, fname, None) is original:
                        self._set(m, fname, wrapped)
        for modname, cls, attr, name in METHODS:
            owner = getattr(mods[modname], cls) if cls else mods[modname]
            self._set(owner, attr, self.span(name, getattr(owner, attr)))
        permcore = mods["permcore"]
        self._set(permcore.Permutation, "__mul__",
                  self.counter("permcore.mul.calls", permcore.Permutation.__mul__))
        self._set(permcore.PermGroup, "__init__",
                  self.counter("permcore.groups_built", permcore.PermGroup.__init__))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _wrap_function(self, name, original):
        if name == "fileio.canonical_json":
            def measured(obj):
                out = original(obj)
                self.json_bytes += len(out.encode("utf-8"))
                return out
            return self.span(name, measured)
        if name == "chartab._dixon_schneider":
            def distinct(G, *args):
                table = original(G, *args)
                # the run enumerated G, so its element set is already built;
                # distinct groups are counted per item (one report each)
                self._ds_groups.add((self.item, G._element_set))
                return table
            return self.span(name, distinct)
        return self.span(name, original)

    # -- results -------------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics: calls, inclusive times, self times, ratios."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child_time[rec[3]] += rec[2] - rec[1]
        calls, inclusive = Counter(), Counter()
        self_time = Counter({layer: 0.0 for layer in LAYERS.values()})
        cache_misses = 0
        for i, (name, start, end, parent, _item, nested) in enumerate(spans):
            calls[name] += 1
            if not nested:
                inclusive[name] += end - start
            self_time[_layer(name)] += (end - start) - child_time[i]
            if name == "chartab.character_table" and parent >= 0 \
                    and spans[parent][0] == "fileio.cached_character_table":
                cache_misses += 1
        cache_hits = calls["fileio.cached_character_table"] - cache_misses

        out = {}
        for modname, names in FUNCTIONS.items():
            for fname in names:
                out[f"{modname}.{fname}.calls"] = (calls[f"{modname}.{fname}"], "count")
                out[f"{modname}.{fname}.s"] = (inclusive[f"{modname}.{fname}"], "s")
        for _m, _c, _meth, name in METHODS:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.s"] = (inclusive[name], "s")
        for key in ("permcore.mul.calls", "permcore.groups_built"):
            out[key] = (self.counts[key], "count")
        ds_runs = calls["chartab._dixon_schneider"]
        out["chartab.ds_runs"] = (ds_runs, "count")
        out["chartab.ds_distinct"] = (len(self._ds_groups), "count")
        out["chartab.ds_useful_ratio"] = (len(self._ds_groups) / ds_runs if ds_runs else 0.0,
                                          "ratio")
        block_count = calls["verify.block_report"]
        for mod, fname in (("cyclicblocks", "analyze_cyclic_block"), ("weights", "weights_of_block")):
            n = calls[f"{mod}.{fname}"]
            out[f"local.calls_per_block.{fname}"] = (n / block_count if block_count else 0.0,
                                                      "ratio")
        out["fileio.canonical_json.bytes"] = (self.json_bytes, "B")
        out["fileio.cache.hits"] = (cache_hits, "count")
        out["fileio.cache.misses"] = (cache_misses, "count")
        for layer, seconds in self_time.items():
            out[f"{layer}.self_s"] = (seconds, "s")
        out["trace.spans"] = (len(spans), "count")
        return out

    def write_spans(self, path, item_ids):
        """Write the spans as tab-separated text, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\titem\n")
            for i, (name, start, end, parent, item, _nested) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start - t0:.6f}\t{end - t0:.6f}\t{parent}\t"
                         f"{item_ids[item] if item >= 0 else ''}\n")
