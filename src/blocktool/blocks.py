"""p-block decomposition and the Brauer correspondence at counting level.

Blocks are the fibers of chi -> lambda_chi, the reduced central character:
lambda_chi(K) = (|K| chi(x_K) / chi(1))*. All reductions for one group
share the StarReduction context of the partition of its table, keyed by
the ambient group's exponent, so lambda values of subgroup and quotient
blocks are directly comparable to those of the ambient group (this is what
makes b^G computable by summing lambda over fused classes).

Derived data lives with its owner: subgroups in the ambient group's
registry (permcore), a group's table on the group, a table's partitions on
the table, and a block's local analysis (defect group, inertial index,
cyclic data, Brauer correspondent, weights) in the block's @memoized _memo.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .arith import v_p
from .chartab import (
    CharacterTable,
    ClassFusion,
    character_table,
    class_fusion,
    quotient_class_map,
)
from .cyclo import CycNum, StarReduction, star_reduction
from .errors import (
    IntegralityFailure,
    InternalInconsistency,
    InvalidInput,
    NoDominatedBlock,
)
from .permcore import (
    SubgroupHandle,
    centralizer,
    class_of,
    conjugacy_classes,
    coset_action,
    sylow_subgroup,
    trivial_subgroup,
)


def memoized(fn):
    """Cache fn(owner, ...) in owner._memo, keyed by fn's name and every argument.

    Arguments are keyed as passed: f(B) and f(B, None) are separate entries.
    A call that raises caches nothing, so it raises again when repeated.
    """

    @functools.wraps(fn)
    def wrapper(owner, *args, **kwargs):
        key = (fn.__name__, args, tuple(sorted(kwargs.items())))
        if key not in owner._memo:
            owner._memo[key] = fn(owner, *args, **kwargs)
        return owner._memo[key]

    return wrapper


def central_character(T: CharacterTable, chi_index: int, class_index: int) -> CycNum:
    """omega_chi(K) = |K| chi(x_K) / chi(1), validated to be integral."""
    chi = T.characters[chi_index]
    value = chi[class_index] * Fraction(T.classes[class_index].size, T.degree(chi_index))
    if not value.is_integral():
        raise IntegralityFailure(
            f"omega value of character {chi_index} at class {class_index} is not integral")
    return value


class Block:
    """One p-block: character indices, defect, reduced central character."""

    def __init__(self, partition: "BlockPartition", index: int, char_indices, lambda_star):
        self.partition = partition
        self.index = index
        self.char_indices = tuple(char_indices)
        self.lambda_star = tuple(lambda_star)
        T = partition.table
        p = partition.p
        self.defect = v_p(T.order, p) - min(v_p(T.degree(i), p) for i in self.char_indices)
        self._memo = {}

    @property
    def table(self) -> CharacterTable:
        return self.partition.table

    @property
    def p(self) -> int:
        return self.partition.p

    @property
    def star(self) -> StarReduction:
        return self.partition.star

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(self.table.degree(i) for i in self.char_indices)

    def size(self) -> int:
        return len(self.char_indices)

    def is_principal(self) -> bool:
        return any(all(v == CycNum.one() for v in self.table.characters[i])
                   for i in self.char_indices)

    def __repr__(self):
        return (f"<block {self.index} at p={self.p}: characters {list(self.char_indices)}, "
                f"defect {self.defect}>")


class BlockPartition:
    """All p-blocks of a character table, canonically ordered."""

    def __init__(self, table: CharacterTable, p: int, star: StarReduction, blocks_data):
        self.table = table
        self.p = p
        self.star = star
        self._memo = {}
        self.blocks = tuple(
            Block(self, i, chars, lam) for i, (chars, lam) in enumerate(blocks_data))

    def __iter__(self):
        return iter(self.blocks)

    def __len__(self):
        return len(self.blocks)

    def block_of_character(self, chi_index: int) -> Block:
        for b in self.blocks:
            if chi_index in b.char_indices:
                return b
        raise InternalInconsistency(f"character {chi_index} not covered by the partition")

    def principal_block(self) -> Block:
        for b in self.blocks:
            if b.is_principal():
                return b
        raise InternalInconsistency("no principal block found")

    def block_with_lambda(self, lam) -> Block | None:
        lam = tuple(lam)
        for b in self.blocks:
            if b.lambda_star == lam:
                return b
        return None


def block_partition(T: CharacterTable, p: int, star: StarReduction | None = None) -> BlockPartition:
    """Partition Irr(G) into p-blocks by matching reduced central characters."""
    if star is None:
        star = star_reduction(p, T.exponent)
    if star.m % T.exponent != 0 or star.p != p:
        raise InternalInconsistency("star context does not cover the table exponent")
    key = (p, star.m)
    if key in T._partitions:
        return T._partitions[key]
    lam_by_char = []
    for i in range(T.k):
        lam = tuple(star.reduce(central_character(T, i, j)) for j in range(T.k))
        lam_by_char.append(lam)
    groups: dict[tuple, list[int]] = {}
    for i, lam in enumerate(lam_by_char):
        groups.setdefault(lam, []).append(i)
    blocks_data = sorted(((tuple(chars), lam) for lam, chars in groups.items()),
                         key=lambda t: t[0][0])
    partition = BlockPartition(T, p, star, blocks_data)
    if sum(b.size() for b in partition) != T.k:
        raise InternalInconsistency("blocks do not partition Irr(G)")
    T._partitions[key] = partition
    return partition


@memoized
def defect_group(B: Block) -> SubgroupHandle:
    """A defect group: Sylow_p of the centralizer of a minimal defect class.

    The class is the canonically least one of minimal class-defect among
    those where lambda_B does not vanish; the order is cross-checked
    against the degree-theoretic defect.
    """
    T, p = B.table, B.p
    G = T.group
    if B.defect == 0:
        return trivial_subgroup(G)
    candidates = [j for j in range(T.k) if not B.lambda_star[j].is_zero()]
    if not candidates:
        raise InternalInconsistency("lambda_B vanishes everywhere")
    class_defect = {j: v_p(T.order // T.classes[j].size, p) for j in candidates}
    least = min(class_defect.values())
    j0 = min(j for j in candidates if class_defect[j] == least)
    C = centralizer(G, T.classes[j0].representative)
    S = sylow_subgroup(C.group, p)
    D = SubgroupHandle(G, S.generators, check=False)
    if D.order != p ** B.defect:
        raise InternalInconsistency(
            f"defect-class computation gives |D| = {D.order}, expected p^{B.defect}")
    return D


def heights_and_height_zero(B: Block) -> tuple[dict[int, int], tuple[int, ...]]:
    """Height of each member and the set Irr_0(B) of height-zero members."""
    T, p = B.table, B.p
    base = v_p(T.order, p) - B.defect
    heights = {i: v_p(T.degree(i), p) - base for i in B.char_indices}
    if any(h < 0 for h in heights.values()):
        raise InternalInconsistency("negative character height")
    irr0 = tuple(i for i in B.char_indices if heights[i] == 0)
    return heights, irr0


def brauer_induced_block(b: Block, fusion: ClassFusion, target: BlockPartition) -> Block | None:
    """b^G via lambda_{b^G}(K) = lambda_b((K cap H)^+); None when undefined.

    For each class K of G the value is the sum of lambda_b over the
    H-classes fusing into K (the class-size weights already live inside
    the omega values).
    """
    if b.star is not target.star:
        raise InternalInconsistency("induction requires a shared reduction context")
    source = fusion.subgroup.group
    if source is not b.table.group:
        # equal groups produce identical canonical class data
        reps_a = [c.representative for c in conjugacy_classes(source)]
        reps_b = [c.representative for c in conjugacy_classes(b.table.group)]
        if reps_a != reps_b:
            raise InternalInconsistency("fusion source does not match the block's group")
    k_target = target.table.k
    values = [target.star.zero() for _ in range(k_target)]
    for i, g_idx in enumerate(fusion.mapping):
        values[g_idx] = values[g_idx] + b.lambda_star[i]
    return target.block_with_lambda(values)


def induced_block_from_subgroup(H: SubgroupHandle, b: Block, target: BlockPartition) -> Block | None:
    fusion = class_fusion(H, target.table.group)
    return brauer_induced_block(b, fusion, target)


def dominated_block(B: Block, Z: SubgroupHandle):
    """The block of G/Z dominated by B, for Z a central subgroup.

    Returns (dominated block, coset action); raises NoDominatedBlock when
    no member of Irr(B) contains Z in its kernel.
    """
    T = B.table
    G = T.group
    for z in Z.generators:
        if any(z * g != g * z for g in G.generators):
            raise InvalidInput("Z is not central in G")
    action = coset_action(G, Z)
    TQ = character_table(action.image)
    qmap = quotient_class_map(action, T, TQ)
    z_classes = sorted({class_of(G, z) for z in Z.generators})
    identity_class = 0
    lifted = []
    for i in B.char_indices:
        row = T.characters[i]
        if all(row[j] == row[identity_class] for j in z_classes):
            lifted.append(i)
    if not lifted:
        raise NoDominatedBlock("no member of the block has Z in its kernel")
    quotient_partition = block_partition(TQ, B.p, B.star)
    deflated_indices = []
    for i in lifted:
        row = T.characters[i]
        qrow = [None] * TQ.k
        for j, qj in enumerate(qmap):
            if qrow[qj] is None:
                qrow[qj] = row[j]
            elif qrow[qj] != row[j]:
                raise InternalInconsistency("deflated character is not constant on fibers")
        deflated_indices.append(TQ.row_index(qrow))
    blocks = {quotient_partition.block_of_character(i).index for i in deflated_indices}
    if len(blocks) != 1:
        raise InternalInconsistency("deflated characters scatter across quotient blocks")
    dominated = quotient_partition.blocks[blocks.pop()]
    if set(dominated.char_indices) - set(deflated_indices):
        raise InternalInconsistency("dominated block has members that do not lift into B")
    return dominated, action
