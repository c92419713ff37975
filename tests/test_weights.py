"""Weights: dz sets, per-block weight lists, BAW counts."""

import pytest

from blocktool.blocks import block_partition, defect_group
from blocktool.chartab import character_table
from blocktool.errors import GroupTooLarge, NotSupported
from blocktool.permcore import (
    SubgroupHandle,
    Permutation,
    is_abelian,
    trivial_subgroup,
)
from blocktool.weights import baw_count_check, dz_characters, weights_of_block


def perm(degree, *cycles):
    return Permutation.from_cycles(degree, cycles)


def parts(corpus, key, p):
    return block_partition(character_table(corpus[key]), p)


# -- dz sets -------------------------------------------------------------------


def test_dz_at_sylow_of_a5(corpus):
    G = corpus["a5"]
    C5 = SubgroupHandle(G, [perm(5, (1, 2, 3, 4, 5))])
    TQ, dz = dz_characters(C5, G, 5)
    # N/Q = D10/C5 = C2, a 5'-group: every character has defect zero
    assert TQ.order == 2
    assert len(dz) == 2
    assert all(TQ.degree(i) == 1 for i in dz)


def test_dz_at_trivial_subgroup_of_a5(corpus):
    G = corpus["a5"]
    TQ, dz = dz_characters(trivial_subgroup(G), G, 5)
    assert [TQ.degree(i) for i in dz] == [5]


def test_dz_p_prime_quotient_is_everything(corpus):
    G = corpus["s3"]
    C3 = SubgroupHandle(G, [perm(3, (1, 2, 3))])
    TQ, dz = dz_characters(C3, G, 3)
    assert len(dz) == TQ.k


# -- weights per block ------------------------------------------------------------


def test_a5_principal_5_block_weights(corpus):
    part = parts(corpus, "a5", 5)
    B = part.principal_block()
    weights, warnings = weights_of_block(B)
    assert not warnings
    assert len(weights) == 2
    assert all(w.subgroup.order == 5 for w in weights)
    assert all(w.degree == 1 for w in weights)


def test_a5_defect_zero_block_weights(corpus):
    part = parts(corpus, "a5", 5)
    B = next(b for b in part if b.defect == 0)
    weights, _ = weights_of_block(B)
    assert len(weights) == 1
    assert weights[0].subgroup.order == 1
    assert weights[0].degree == 5


def test_abelian_defect_weights_only_at_defect_group(corpus):
    # abelian-defect blocks: weights concentrate at Q conjugate to D
    for key, p in (("a5", 5), ("a5", 2), ("a4", 2), ("s3", 3), ("d10", 5), ("sl23", 3)):
        part = parts(corpus, key, p)
        for B in part:
            D = defect_group(B)
            if not is_abelian(D):
                continue
            weights, _ = weights_of_block(B)
            for w in weights:
                assert w.subgroup.order == D.order


# -- BAW counts ----------------------------------------------------------------------


def test_baw_a5_principal(corpus):
    B = parts(corpus, "a5", 5).principal_block()
    assert baw_count_check(B) == (2, 2, True)


def test_baw_a5_defect_zero(corpus):
    B = next(b for b in parts(corpus, "a5", 5) if b.defect == 0)
    assert baw_count_check(B) == (1, 1, True)


def test_baw_s3_at_3(corpus):
    B = parts(corpus, "s3", 3).principal_block()
    assert baw_count_check(B) == (2, 2, True)


def test_baw_rejects_noncyclic_positive_defect(corpus):
    B = parts(corpus, "a4", 2).principal_block()
    with pytest.raises(NotSupported):
        baw_count_check(B)


def test_baw_central_cyclic_defect(corpus):
    B = parts(corpus, "c4", 2).principal_block()
    assert baw_count_check(B) == (1, 1, True)


def test_baw_all_cyclic_blocks_of_psl27(corpus):
    for p in (3, 7):
        part = parts(corpus, "psl27", p)
        for B in part:
            ibr, count, ok = baw_count_check(B)
            assert ok, (p, B)


def test_weight_count_equals_tree_edges(corpus):
    from blocktool.cyclicblocks import brauer_tree

    for key, p in (("a5", 5), ("s3", 3), ("s3", 2), ("d10", 5), ("psl27", 7)):
        B = parts(corpus, key, p).principal_block()
        tree = brauer_tree(B)
        _ibr, count, ok = baw_count_check(B)
        assert ok and count == len(tree.edges)


def test_alperin_sum_over_blocks(corpus):
    # when every positive-defect block is cyclic, weights sum to |IBr(G)|:
    # the p-regular class count
    from blocktool.chartab import p_regular_classes

    for key, p in (("a5", 5), ("s3", 3), ("sl23", 3), ("d10", 5), ("psl27", 7)):
        T = character_table(corpus[key])
        part = block_partition(T, p)
        total = 0
        for B in part:
            weights, warnings = weights_of_block(B)
            assert not warnings
            total += len(weights)
        assert total == len(p_regular_classes(T, p))


def test_weights_respect_the_order_bound_after_a_cached_call(corpus):
    B = block_partition(character_table(corpus["a5"]), 5).principal_block()
    first = weights_of_block(B)
    assert weights_of_block(B) is first
    with pytest.raises(GroupTooLarge):
        weights_of_block(B, max_order=10)
    assert weights_of_block(B) is first
