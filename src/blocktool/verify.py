"""Conjecture-level verification: AM counts, IN matching, BAW counts.

Every check is exact. A failed check on valid input would be
mathematically significant, so failures are report entries, never crashes;
genuine internal contradictions still raise.
"""

from __future__ import annotations

from .arith import p_prime_part
from .blocks import (
    Block,
    block_partition,
    defect_group,
    heights_and_height_zero,
    induced_block_from_subgroup,
    memoized,
)
from .chartab import character_table
from .cyclicblocks import (
    EXCEPTIONAL,
    analyze_cyclic_block,
    brauer_tree,
    derived_brauer_characters,
    unitriangular_labeling,
)
from .errors import (
    BlocktoolError,
    CentralDefect,
    CorrespondentNotFound,
    InternalInconsistency,
    NotAnAutomorphism,
    NotCyclicDefect,
    NotSupported,
)
from .permcore import (
    PermGroup,
    Permutation,
    SubgroupHandle,
    are_conjugate_subgroups,
    class_of,
    full_subgroup,
    is_abelian,
    is_cyclic,
    normalizer,
)
from .weights import baw_count_check, radical_class_report, weights_of_block

SCHEMA_VERSION = 1


# -- Brauer correspondents and the AM count -----------------------------------


@memoized
def brauer_correspondent(B: Block):
    """(B', N_G(D)): the unique block of N_G(D) with defect group D and (B')^G = B."""
    if B.defect == 0:
        return B, full_subgroup(B.table.group)
    G = B.table.group
    D = defect_group(B)
    N = normalizer(G, D)
    TN = character_table(N.group)
    local = block_partition(TN, B.p, B.star)
    d_key = D.canonical_key()
    matches = []
    for b in local:
        if b.defect != B.defect:
            continue
        Db = defect_group(b)
        if SubgroupHandle(G, Db.generators, check=False).canonical_key() != d_key:
            continue
        if induced_block_from_subgroup(N, b, B.partition) is B:
            matches.append(b)
    if not matches:
        raise CorrespondentNotFound(
            "no block of N_G(D) with defect group D induces to B")
    if len(matches) > 1:
        raise InternalInconsistency("Brauer correspondent is not unique")
    return matches[0], N


def am_check(B: Block):
    """(|Irr_0(B)|, |Irr_0(B')|, equal?)."""
    Bprime, _N = brauer_correspondent(B)
    _h, irr0 = heights_and_height_zero(B)
    _h2, irr0_local = heights_and_height_zero(Bprime)
    return len(irr0), len(irr0_local), len(irr0) == len(irr0_local)


# -- maximum bipartite matching (tiny graphs, deterministic) ---------------------


def maximum_bipartite_matching(left, adjacency):
    """Matching dict left->right via augmenting paths in deterministic order."""
    match_left: dict = {}
    match_right: dict = {}

    def augment(u, seen):
        for v in adjacency[u]:
            if v in seen:
                continue
            seen.add(v)
            if v not in match_right or augment(match_right[v], seen):
                match_left[u] = v
                match_right[v] = u
                return True
        return False

    for u in left:
        augment(u, set())
    return match_left


def in_refinement_check(B: Block):
    """Isaacs-Navarro congruence matching for B against its correspondent.

    Edge chi -> chi' iff chi'(1)_p' = +-c chi(1)_p' (mod p) with
    c = |G : N_G(D)|_p', both signs admitted per pair; exceptional members
    must map to exceptional members when both blocks carry true (m > 1)
    exceptional families. Returns (perfect matching exists, witness).
    """
    p = B.p
    T = B.table
    Bprime, N = brauer_correspondent(B)
    _h, irr0 = heights_and_height_zero(B)
    _h2, irr0_local = heights_and_height_zero(Bprime)
    c = p_prime_part(T.order // N.order, p) % p
    data_g = _cyclic_data(B)
    data_l = data_g if Bprime is B else _cyclic_data(Bprime)
    constrain = (data_g is not None and data_l is not None
                 and data_g.multiplicity > 1 and data_l.multiplicity > 1)

    def signs(i, j):
        dg = p_prime_part(T.degree(i), p) % p
        dl = p_prime_part(Bprime.table.degree(j), p) % p
        out = []
        if dl == (c * dg) % p:
            out.append(1)
        if dl == (-c * dg) % p:
            out.append(-1)
        return out

    adjacency = {}
    for i in irr0:
        options = []
        for j in irr0_local:
            if not signs(i, j):
                continue
            if constrain and ((i in data_g.exceptional) != (j in data_l.exceptional)):
                continue
            options.append(j)
        adjacency[i] = options
    matching = maximum_bipartite_matching(list(irr0), adjacency)
    ok = len(matching) == len(irr0) == len(irr0_local)
    witness = [
        {"character": i, "local_character": j,
         "signs": signs(i, j)}
        for i, j in sorted(matching.items())
    ]
    return ok, witness


def _cyclic_data(B: Block):
    """analyze_cyclic_block(B), or None where the cyclic analysis does not apply."""
    try:
        return analyze_cyclic_block(B)
    except BlocktoolError:
        return None


# -- user-supplied automorphisms ---------------------------------------------------


class SuppliedAutomorphism:
    """A permutation of the ambient symmetric group normalizing G."""

    def __init__(self, G: PermGroup, a: Permutation):
        if a.degree != G.degree:
            raise NotAnAutomorphism("automorphism degree differs from the group degree")
        a_inv = a.inverse()
        for g in G.generators:
            if (a_inv * g * a) not in G:
                raise NotAnAutomorphism(f"{a!r} does not normalize the group")
        self.group = G
        self.perm = a

    def character_permutation(self, T) -> tuple[int, ...]:
        """The induced permutation of Irr(G) (chi -> chi composed with conjugation)."""
        a, a_inv = self.perm, self.perm.inverse()
        class_map = [class_of(T.group, a * c.representative * a_inv) for c in T.classes]
        out = []
        for row in T.characters:
            moved = tuple(row[class_map[j]] for j in range(T.k))
            out.append(T.row_index(moved))
        return tuple(out)


def equivariance_spot_check(B: Block, autos):
    """Per-automorphism checks on a block; skipped autos are reported.

    (a) the exceptional/non-exceptional partition is preserved, (b) for
    p = 2 both 2-rational members are fixed, (c) heights (hence Irr_0)
    are preserved. Automorphisms not stabilizing B are skipped with a
    notice; D is stabilized up to conjugacy, which inner adjustment makes
    exact without changing any character-level check.
    """
    T = B.table
    G = T.group
    results = []
    data = _cyclic_data(B)
    heights, _irr0 = heights_and_height_zero(B)
    D = defect_group(B)
    for raw in autos:
        auto = raw if isinstance(raw, SuppliedAutomorphism) else SuppliedAutomorphism(G, raw)
        sigma = auto.character_permutation(T)
        entry = {"automorphism": auto.perm.one_based()}
        if {sigma[i] for i in B.char_indices} != set(B.char_indices):
            entry["skipped"] = "does not stabilize the block"
            results.append(entry)
            continue
        if D.order > 1:
            a, a_inv = auto.perm, auto.perm.inverse()
            moved = SubgroupHandle(G, [a_inv * g * a for g in D.generators], check=False)
            if not are_conjugate_subgroups(G, moved, D):
                raise InternalInconsistency(
                    "block-stabilizing automorphism moved the defect group class")
        checks = {}
        checks["heights_preserved"] = all(heights[sigma[i]] == heights[i]
                                          for i in B.char_indices)
        if data is not None:
            checks["partition_preserved"] = (
                {sigma[i] for i in data.exceptional} == set(data.exceptional))
            if B.p == 2:
                checks["two_rational_fixed"] = all(sigma[i] == i for i in data.p_rational)
        entry["checks"] = checks
        entry["ok"] = all(checks.values())
        results.append(entry)
    return results


# -- full per-group report ------------------------------------------------------------


def _tree_report(tree, dmatrix, phi):
    labels = dmatrix.vertex_labels
    vertices = []
    for v in tree.vertices:
        if v == EXCEPTIONAL:
            vertices.append({
                "label": labels[v],
                "kind": "exceptional",
                "characters": list(tree.data.exceptional),
                "multiplicity": tree.data.multiplicity,
            })
        else:
            vertices.append({"label": labels[v], "kind": "ordinary", "character": v})
    vertices.sort(key=lambda d: d["label"])
    edges = [
        {"label": dmatrix.edge_labels[idx],
         "endpoints": sorted((labels[u], labels[v]))}
        for idx, (u, v) in enumerate(tree.edges)
    ]
    edges.sort(key=lambda d: d["label"])
    return {
        "vertices": vertices,
        "edges": edges,
        "alternatives": tree.alternatives,
        "row_characters": list(dmatrix.row_chars),
        "decomposition_matrix": [list(r) for r in dmatrix.rows],
        "cartan_matrix": dmatrix.cartan_matrix(),
        "cartan_determinant": dmatrix.cartan_determinant(),
        "brauer_degrees": [int(f[0].as_fraction()) for f in phi],
    }


def block_report(B: Block, checks=("am", "in", "baw"), autos=None, max_order=None):
    """All requested per-block data and checks; errors recorded, not raised."""
    T = B.table
    D = defect_group(B)
    heights, irr0 = heights_and_height_zero(B)
    entry = {
        "index": B.index,
        "characters": list(B.char_indices),
        "degrees": list(B.degrees),
        "defect": B.defect,
        "defect_group": {
            "order": D.order,
            "generators": [g.one_based() for g in D.generators],
            "cyclic": is_cyclic(D),
            "abelian": is_abelian(D),
        },
        "heights": {str(i): heights[i] for i in B.char_indices},
        "height_zero_count": len(irr0),
        "flags": [],
        "checks": {},
    }
    passed = True

    cyclic_entry = None
    if B.defect > 0:
        try:
            data = analyze_cyclic_block(B)
            tree = brauer_tree(B, data)
            dmatrix = unitriangular_labeling(tree)
            phi = derived_brauer_characters(B, dmatrix)
            cyclic_entry = {
                "e": data.e,
                "multiplicity": data.multiplicity,
                "nonexceptional": list(data.nonexceptional),
                "exceptional": list(data.exceptional),
                "p_rational": list(data.p_rational),
                "nilpotent": data.e == 1,
                "tree": _tree_report(tree, dmatrix, phi),
            }
        except CentralDefect:
            entry["flags"].append("central-defect")
        except NotCyclicDefect:
            entry["flags"].append("not-cyclic-defect")
        except BlocktoolError as exc:
            entry["flags"].append("cyclic-analysis-error")
            entry.setdefault("errors", []).append(f"{exc.code}: {exc}")
            passed = False
    entry["cyclic"] = cyclic_entry

    if "am" in checks:
        try:
            count_g, count_local, ok = am_check(B)
            entry["checks"]["am"] = {"height_zero": count_g,
                                     "local_height_zero": count_local, "ok": ok}
            passed = passed and ok
        except BlocktoolError as exc:
            entry["checks"]["am"] = {"error": f"{exc.code}: {exc}"}
            passed = False
    if "in" in checks:
        try:
            ok, witness = in_refinement_check(B)
            entry["checks"]["in_refinement"] = {"ok": ok, "witness": witness}
            passed = passed and ok
        except BlocktoolError as exc:
            entry["checks"]["in_refinement"] = {"error": f"{exc.code}: {exc}"}
            passed = False
    if "baw" in checks:
        try:
            ibr, count, ok = baw_count_check(B, max_order)
            _w, warnings = weights_of_block(B, max_order)
            entry["checks"]["baw"] = {"ibr": ibr, "weights": count, "ok": ok}
            if warnings:
                entry["checks"]["baw"]["warnings"] = warnings
            passed = passed and ok
        except NotSupported as exc:
            entry["checks"]["baw"] = {"skipped": str(exc)}
        except BlocktoolError as exc:
            entry["checks"]["baw"] = {"error": f"{exc.code}: {exc}"}
            passed = False

    if autos:
        try:
            entry["equivariance"] = equivariance_spot_check(B, autos)
            passed = passed and all(e.get("ok", True) for e in entry["equivariance"])
        except BlocktoolError as exc:
            entry["equivariance"] = [{"error": f"{exc.code}: {exc}"}]
            passed = False

    entry["ok"] = passed
    return entry


def full_group_report(G: PermGroup, p: int, name: str = "", checks=("am", "in", "baw"),
                      autos=None, max_order=None):
    """Run the whole pipeline for (G, p); per-block errors never abort."""
    T = character_table(G, max_order)
    partition = block_partition(T, p)
    blocks = [block_report(B, checks, autos, max_order) for B in partition]
    report = {
        "schema": SCHEMA_VERSION,
        "group": name,
        "order": T.order,
        "prime": p,
        "character_degrees": list(T.degrees),
        "block_count": len(blocks),
        "blocks": blocks,
        "overall": all(b["ok"] for b in blocks),
    }
    if "baw" in checks:
        report["weights_by_radical_class"] = radical_class_report(G, p, partition, max_order)
    return report


def render_report_text(report) -> str:
    """Human rendering of a verification report."""
    lines = []
    lines.append(f"group {report['group']}  order {report['order']}  p = {report['prime']}")
    lines.append(f"character degrees: {report['character_degrees']}")
    for b in report["blocks"]:
        flags = f" [{', '.join(b['flags'])}]" if b["flags"] else ""
        lines.append(f"block {b['index']}: degrees {b['degrees']}, defect {b['defect']}{flags}")
        if b.get("cyclic"):
            c = b["cyclic"]
            tree = c["tree"]
            lines.append(f"  cyclic: e = {c['e']}, m = {c['multiplicity']}, "
                         f"nilpotent = {c['nilpotent']}, cartan det = {tree['cartan_determinant']}")
            lines.append(f"  tree edges (labels): "
                         + ", ".join(str(tuple(e['endpoints'])) for e in tree["edges"]))
        for key, res in b["checks"].items():
            if "skipped" in res:
                lines.append(f"  {key}: skipped ({res['skipped']})")
            elif "error" in res:
                lines.append(f"  {key}: ERROR {res['error']}")
            else:
                lines.append(f"  {key}: {'pass' if res['ok'] else 'FAIL'}")
        lines.append(f"  block result: {'pass' if b['ok'] else 'FAIL'}")
    lines.append(f"overall: {'pass' if report['overall'] else 'FAIL'}")
    return "\n".join(lines) + "\n"
