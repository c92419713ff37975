"""Character tables: exactness, canonical order, fusion and restriction.

The S3 oracle table is hand-computed (lift the two C3-orbits of linear
characters and induce); it is frozen here as literal rows and compared as a
set against the computed table.
"""

from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from blocktool.cyclo import CycNum
from blocktool.chartab import (
    _charpoly,
    _kernel,
    _roots_mod,
    character_table,
    class_fusion,
    ingest_table,
    p_regular_classes,
    restrict,
    restrict_to_p_regular,
)
from blocktool.errors import InvalidInput
from blocktool.permcore import PermGroup, Permutation, SubgroupHandle


def perm(degree, *cycles):
    return Permutation.from_cycles(degree, cycles)


def rat(x):
    return CycNum.rational(x)


@pytest.fixture(scope="module")
def s3_table():
    return character_table(PermGroup(3, [perm(3, (1, 2)), perm(3, (1, 2, 3))]))


@pytest.fixture(scope="module")
def a5_table():
    return character_table(PermGroup(5, [perm(5, (1, 2, 3, 4, 5)), perm(5, (1, 2, 3))]))


def test_trivial_group_table():
    T = character_table(PermGroup(1, []))
    assert T.k == 1 and T.degrees == (1,)


def test_c2_table():
    T = character_table(PermGroup(2, [perm(2, (1, 2))]))
    assert sorted(T.degrees) == [1, 1]
    rows = {tuple(v.as_fraction() for v in row) for row in T.characters}
    assert rows == {(1, 1), (1, -1)}


def test_s3_table_against_hand_computed(s3_table):
    T = s3_table
    # canonical class order: identity, transpositions (order 2), 3-cycles
    assert [(c.element_order, c.size) for c in T.classes] == [(1, 1), (2, 3), (3, 2)]
    hand = {
        (rat(1), rat(1), rat(1)),
        (rat(1), rat(-1), rat(1)),
        (rat(2), rat(0), rat(-1)),
    }
    assert set(T.characters) == hand
    assert sorted(T.degrees) == [1, 1, 2]


def test_a5_degrees_and_irrationalities(a5_table):
    T = a5_table
    assert sorted(T.degrees) == [1, 3, 3, 4, 5]
    assert T.exponent == 30
    five_classes = [j for j, c in enumerate(T.classes) if c.element_order == 5]
    assert len(five_classes) == 2
    golden = {-(CycNum.zeta(5, 2) + CycNum.zeta(5, 3)), -(CycNum.zeta(5) + CycNum.zeta(5, 4))}
    for i in range(T.k):
        if T.degree(i) == 3:
            assert {T.value(i, j) for j in five_classes} == golden


def test_a5_degree_four_character_on_five_cycles(a5_table):
    T = a5_table
    i4 = next(i for i in range(T.k) if T.degree(i) == 4)
    for j, c in enumerate(T.classes):
        if c.element_order == 5:
            assert T.value(i4, j) == rat(-1)


def test_row_orthogonality_exact(a5_table):
    T = a5_table
    for i in range(T.k):
        for j in range(T.k):
            assert T.inner(i, j) == (CycNum.one() if i == j else CycNum.zero())


def test_canonical_character_order(a5_table):
    keys = [(row[0].sort_key(), [v.sort_key() for v in row]) for row in a5_table.characters]
    assert keys == sorted(keys)


def test_table_is_cached():
    G = PermGroup(3, [perm(3, (1, 2, 3))])
    assert character_table(G) is character_table(G)


# -- fusion and restriction ----------------------------------------------------


def test_fusion_c5_into_a5(a5_table):
    G = a5_table.group
    C5 = SubgroupHandle(G, [perm(5, (1, 2, 3, 4, 5))])
    fusion = class_fusion(C5, G)
    targets = [a5_table.classes[g].element_order for g in fusion.mapping]
    assert targets.count(1) == 1 and targets.count(5) == 4
    # nontrivial C5-classes fuse pairwise into the two A5 classes of 5-cycles
    five_targets = [g for g in fusion.mapping if a5_table.classes[g].element_order == 5]
    assert len(set(five_targets)) == 2
    assert all(five_targets.count(t) == 2 for t in set(five_targets))


def test_fusion_identity(s3_table):
    G = s3_table.group
    full = SubgroupHandle(G, G.generators)
    fusion = class_fusion(full, G)
    assert list(fusion.mapping) == list(range(s3_table.k))


def test_fusion_trivial_subgroup(s3_table):
    G = s3_table.group
    triv = SubgroupHandle(G, [])
    fusion = class_fusion(triv, G)
    assert list(fusion.mapping) == [0]


def test_restriction_of_degree_four_to_c5(a5_table):
    G = a5_table.group
    C5 = SubgroupHandle(G, [perm(5, (1, 2, 3, 4, 5))])
    fusion = class_fusion(C5, G)
    i4 = next(i for i in range(a5_table.k) if a5_table.degree(i) == 4)
    values = restrict(a5_table.characters[i4], fusion)
    assert values[0] == rat(4)
    assert all(v == rat(-1) for v in values[1:])


def test_restriction_of_trivial(s3_table):
    G = s3_table.group
    C3 = SubgroupHandle(G, [perm(3, (1, 2, 3))])
    fusion = class_fusion(C3, G)
    triv = next(row for row in s3_table.characters if all(v == rat(1) for v in row))
    assert all(v == rat(1) for v in restrict(triv, fusion))


def test_restriction_preserves_degree(a5_table):
    G = a5_table.group
    C5 = SubgroupHandle(G, [perm(5, (1, 2, 3, 4, 5))])
    fusion = class_fusion(C5, G)
    for row in a5_table.characters:
        assert restrict(row, fusion)[0] == row[0]


# -- p-regular classes -------------------------------------------------------


def test_p_regular_all_when_p_coprime(s3_table):
    assert p_regular_classes(s3_table, 5) == tuple(range(s3_table.k))


def test_p_regular_a5_p5(a5_table):
    regular = p_regular_classes(a5_table, 5)
    assert [a5_table.classes[j].element_order for j in regular] == [1, 2, 3]


def test_p_regular_s3_p3(s3_table):
    regular = p_regular_classes(s3_table, 3)
    assert [s3_table.classes[j].element_order for j in regular] == [1, 2]
    row = s3_table.characters[0]
    assert restrict_to_p_regular(row, s3_table, 3) == tuple(row[j] for j in regular)


# -- power maps and linear characters -----------------------------------------


def test_power_map_consistency_for_linear_characters(a5_table, s3_table):
    for T in (a5_table, s3_table):
        for q, pmap in T.power_maps.items():
            for i in range(T.k):
                if T.degree(i) != 1:
                    continue
                for j in range(T.k):
                    assert T.value(i, pmap[j]) == T.value(i, j) ** q


def test_ingest_rejects_invalid_table(s3_table):
    bad_rows = [list(row) for row in s3_table.characters]
    bad_rows[0] = [rat(1), rat(1), rat(-1)]
    with pytest.raises(InvalidInput):
        ingest_table(s3_table.group, s3_table.classes, s3_table.exponent,
                     s3_table.power_maps, bad_rows)


def _ingest_with(T, i, j, value):
    rows = [list(row) for row in T.characters]
    rows[i][j] = value
    return ingest_table(T.group, T.classes, T.exponent, T.power_maps, rows)


def test_ingest_rejects_changed_zeta5_coefficient(a5_table):
    T = a5_table
    i, j = next((i, j) for i in range(T.k) for j in range(T.k) if T.value(i, j).m == 5)
    v = T.value(i, j)
    (k0, c0), *rest = v.terms
    tampered = CycNum(5, dict([(k0, c0 + 1)] + rest))
    assert tampered != v
    with pytest.raises(InvalidInput):
        _ingest_with(T, i, j, tampered)


def test_ingest_rejects_conjugated_psl27_entry(corpus):
    T = character_table(corpus["psl27"])
    i, j = next((i, j) for i in range(T.k) for j in range(T.k) if T.value(i, j).m == 7)
    v = T.value(i, j)
    assert v.conjugate() != v
    with pytest.raises(InvalidInput):
        _ingest_with(T, i, j, v.conjugate())


@pytest.mark.parametrize("exponent", [0, -30])
def test_ingest_rejects_non_positive_exponent(a5_table, exponent):
    T = a5_table
    with pytest.raises(InvalidInput):
        ingest_table(T.group, T.classes, exponent, T.power_maps, T.characters)


# -- independent oracles for the table path ---------------------------------------


def _partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _hook_length_degree(shape):
    n = sum(shape)
    conj = [sum(1 for r in shape if r > c) for c in range(shape[0])]
    hooks = 1
    for r, row in enumerate(shape):
        for c in range(row):
            hooks *= (row - c - 1) + (conj[c] - r - 1) + 1
    return factorial(n) // hooks


def test_s8_degrees_match_hook_length_formula():
    shapes = list(_partitions(8))
    assert len(shapes) == 22
    S8 = PermGroup(8, [Permutation.from_one_based([2, 3, 4, 5, 6, 7, 8, 1]),
                       Permutation.from_one_based([2, 1, 3, 4, 5, 6, 7, 8])])
    T = character_table(S8)
    assert sorted(T.degrees) == sorted(_hook_length_degree(s) for s in shapes)


@st.composite
def _square_matrices_mod_small_primes(draw):
    ell = draw(st.sampled_from([3, 5, 7, 11, 13]))  # l = 1 mod exponent is odd
    d = draw(st.integers(1, 5))
    entries = st.integers(0, ell - 1)
    if draw(st.booleans()):
        # few distinct entries give repeated and split eigenvalues more often
        entries = st.sampled_from([0, 1, ell - 1])
    rows = draw(st.lists(st.lists(entries, min_size=d, max_size=d), min_size=d, max_size=d))
    return ell, rows


@given(_square_matrices_mod_small_primes())
@settings(max_examples=200, deadline=None)
def test_charpoly_roots_match_kernel_scan(case):
    ell, M = case
    d = len(M)
    scanned = [lam for lam in range(ell)
               if _kernel([[(M[s][r] - (lam if s == r else 0)) % ell for r in range(d)]
                           for s in range(d)], ell)]
    assert _roots_mod(_charpoly(M, ell), ell) == scanned
