"""Weight enumeration: defect-zero characters of N_G(Q)/Q attached to blocks.

A weight for B is a pair (Q, chi-bar) with Q radical and chi-bar of defect
zero in N_G(Q)/Q, whose inflation to N_G(Q) lies in a block inducing to B.
Undefined inductions are reported per candidate, never silently dropped.
"""

from __future__ import annotations

from collections import namedtuple

from .arith import v_p
from .blocks import (
    Block,
    BlockPartition,
    block_partition,
    defect_group,
    induced_block_from_subgroup,
    memoized,
)
from .chartab import CharacterTable, character_table, inflate_row, quotient_class_map
from .cyclicblocks import inertial_index
from .errors import GroupTooLarge, InternalInconsistency, NotSupported
from .permcore import (
    DEFAULT_MAX_ORDER,
    PermGroup,
    SubgroupHandle,
    coset_action,
    full_subgroup,
    is_cyclic,
    normalizer,
    radical_p_subgroups,
)


class Weight:
    """(radical subgroup, defect-zero character of N/Q, induced block)."""

    def __init__(self, radical_index: int, subgroup: SubgroupHandle, normalizer_order: int,
                 quotient_table: CharacterTable, char_index: int, induced_block: Block):
        self.radical_index = radical_index
        self.subgroup = subgroup
        self.normalizer_order = normalizer_order
        self.quotient_table = quotient_table
        self.char_index = char_index
        self.induced_block = induced_block

    @property
    def degree(self) -> int:
        return self.quotient_table.degree(self.char_index)

    def __repr__(self):
        return (f"<weight at |Q|={self.subgroup.order}: degree {self.degree}, "
                f"induces block {self.induced_block.index}>")


def _normalizer_quotient(G: PermGroup, Q: SubgroupHandle, max_order=None):
    """(N_G(Q), coset action of N_G(Q) on Q or None for Q = 1, table of N_G(Q)/Q).

    N_G(1) is G itself, not a copy with other generators, so G's table is reused.
    """
    N = full_subgroup(G) if Q.order == 1 else normalizer(G, Q)
    bound = DEFAULT_MAX_ORDER if max_order is None else max_order
    if N.order // Q.order > bound:
        raise GroupTooLarge(f"|N_G(Q)/Q| = {N.order // Q.order} exceeds the bound")
    if Q.order == 1:
        return N, None, character_table(N.group, max_order)
    action = coset_action(N.group, SubgroupHandle(N.group, Q.generators))
    if action.kernel.order != Q.order:
        raise InternalInconsistency("radical subgroup is not the kernel of its coset action")
    return N, action, character_table(action.image, max_order)


def _defect_zero(TQ: CharacterTable, p: int) -> tuple[int, ...]:
    full = v_p(TQ.order, p)
    return tuple(i for i in range(TQ.k) if v_p(TQ.degree(i), p) == full)


#: One radical class Q: N_G(Q), the table of N_G(Q)/Q, and for each defect-zero
#: character i of N_G(Q)/Q the pair (i, block its inflation induces to, or None).
_LocalData = namedtuple("_LocalData", "radical_index Q N table_Q induced")


@memoized
def _local_data(partition: BlockPartition, max_order=None):
    G, p = partition.table.group, partition.p
    out = []
    for r, Q in enumerate(radical_p_subgroups(G, p, max_order)):
        N, action, TQ = _normalizer_quotient(G, Q, max_order)
        TN = character_table(N.group, max_order)
        qmap = tuple(range(TN.k)) if action is None else quotient_class_map(action, TN, TQ)
        local_partition = block_partition(TN, p, partition.star)
        induced = []
        for i in _defect_zero(TQ, p):
            Bprime = local_partition.block_of_character(
                TN.row_index(inflate_row(TQ.characters[i], qmap)))
            induced.append((i, induced_block_from_subgroup(N, Bprime, partition)))
        out.append(_LocalData(r, Q, N, TQ, tuple(induced)))
    return tuple(out)


def dz_characters(Q: SubgroupHandle, G: PermGroup, p: int, max_order=None):
    """Defect-zero characters of N_G(Q)/Q: (quotient table, char indices)."""
    _N, _action, TQ = _normalizer_quotient(G, Q, max_order)
    return TQ, _defect_zero(TQ, p)


@memoized
def weights_of_block(B: Block, max_order=None):
    """All weights of B over a radical transversal, plus skip warnings."""
    weights = []
    warnings = []
    for local in _local_data(B.partition, max_order):
        TQ = local.table_Q
        for i, induced in local.induced:
            if induced is None:
                warnings.append(
                    f"radical class {local.radical_index}: induction of the block of "
                    f"defect-zero character {i} (degree {TQ.degree(i)}) is undefined; skipped")
            elif induced is B:
                weights.append(Weight(local.radical_index, local.Q, local.N.order,
                                      TQ, i, induced))
    return tuple(weights), tuple(warnings)


def baw_count_check(B: Block, max_order=None):
    """(|IBr(B)|, weight count, equal?) for cyclic or defect-zero blocks."""
    if B.defect == 0:
        ibr = 1
    else:
        D = defect_group(B)
        if not is_cyclic(D):
            raise NotSupported(
                "weight counting against |IBr| supports cyclic-defect and defect-zero blocks only")
        ibr, _b0, _t = inertial_index(B)
    weights, _warnings = weights_of_block(B, max_order)
    return ibr, len(weights), ibr == len(weights)


def radical_class_report(G: PermGroup, p: int, partition: BlockPartition, max_order=None):
    """JSON-able weight overview: one entry per radical class of the partition's group."""
    return [{
        "radical_class": local.radical_index,
        "order": local.Q.order,
        "generators": [g.one_based() for g in local.Q.generators],
        "normalizer_quotient_order": local.table_Q.order,
        "defect_zero_characters": [
            {"degree": local.table_Q.degree(i),
             "induced_block": None if induced is None else induced.index}
            for i, induced in local.induced],
    } for local in _local_data(partition, max_order)]
