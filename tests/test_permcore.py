"""Group-engine tests against naive enumeration oracles.

The oracles below work on raw image tuples and never touch the stabilizer
chain, so they are independent of the code paths they check.
"""

import pytest

from blocktool.errors import GroupTooLarge, NotAMember, NotASubgroup
from blocktool import permcore as pc
from blocktool.permcore import (
    PermGroup,
    Permutation,
    SubgroupHandle,
    centralizer,
    conjugacy_classes,
    coset_action,
    group_order,
    normalizer,
    radical_p_subgroups,
    subgroup_from_elements,
    sylow_subgroup,
    trivial_subgroup,
)


# -- oracles ----------------------------------------------------------------


def compose(p, q):
    return tuple(q[i] for i in p)


def naive_closure(degree, gens):
    """All elements as image tuples, by plain BFS closure."""
    identity = tuple(range(degree))
    seen = {identity}
    queue = [identity]
    gens = [tuple(g) for g in gens]
    while queue:
        x = queue.pop(0)
        for g in gens:
            y = compose(x, g)
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def naive_classes(degree, gens):
    """Orbit partition of the full element list under conjugation."""
    elements = naive_closure(degree, gens)
    inv = {x: tuple(sorted(range(degree), key=lambda i: x[i])) for x in elements}

    def conj(x, g):
        return compose(compose(inv[g], x), g)

    unassigned = set(elements)
    classes = []
    while unassigned:
        x = next(iter(sorted(unassigned)))
        orbit = {x}
        queue = [x]
        while queue:
            y = queue.pop(0)
            for g in elements:
                z = conj(y, g)
                if z not in orbit:
                    orbit.add(z)
                    queue.append(z)
        classes.append(orbit)
        unassigned -= orbit
    return classes


def perm(degree, *cycles):
    return Permutation.from_cycles(degree, cycles)


A5_GENS = [perm(5, (1, 2, 3, 4, 5)), perm(5, (1, 2, 3))]
S3_GENS = [perm(3, (1, 2)), perm(3, (1, 2, 3))]
D10_GENS = [perm(5, (1, 2, 3, 4, 5)), perm(5, (2, 5), (3, 4))]


@pytest.fixture(scope="module")
def a5():
    return PermGroup(5, A5_GENS)


@pytest.fixture(scope="module")
def s3():
    return PermGroup(3, S3_GENS)


@pytest.fixture(scope="module")
def d10():
    return PermGroup(5, D10_GENS)


# -- permutations -----------------------------------------------------------


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    assert Permutation.identity(4).is_identity()


def test_permutation_arithmetic():
    a = perm(4, (1, 2, 3, 4))
    assert (a * a.inverse()).is_identity()
    assert a ** 4 == Permutation.identity(4)
    assert a ** -1 == a.inverse()
    assert a.order() == 4
    assert a.cycle_type() == (4,)
    assert perm(4, (1, 2)).cycle_type() == (2, 1, 1)


def test_one_based_round_trip():
    a = perm(5, (1, 2, 3, 4, 5))
    assert Permutation.from_one_based(a.one_based()) == a


# -- orders -----------------------------------------------------------------


def test_trivial_group_order():
    assert group_order(PermGroup(1, [])) == 1


def test_orders_match_naive_enumeration(a5, s3, d10):
    for G in (a5, s3, d10):
        assert group_order(G) == len(naive_closure(G.degree, [g.images for g in G.generators]))
    assert group_order(a5) == 60
    assert group_order(s3) == 6


def test_membership_agrees_with_naive_enumeration(a5, s3):
    for G in (a5, s3):
        oracle = naive_closure(G.degree, [g.images for g in G.generators])
        full = naive_closure(G.degree, [tuple(range(1, G.degree)) + (0,)] + [g.images for g in G.generators])
        for x in sorted(full):
            assert (Permutation(x) in G) == (x in oracle)


# -- conjugacy classes --------------------------------------------------------


def test_trivial_group_classes():
    cls = conjugacy_classes(PermGroup(1, []))
    assert len(cls) == 1 and cls[0].size == 1


def test_abelian_c4_classes():
    c4 = PermGroup(4, [perm(4, (1, 2, 3, 4))])
    cls = conjugacy_classes(c4)
    assert [c.size for c in cls] == [1, 1, 1, 1]


def test_a5_classes_against_oracle(a5):
    oracle = naive_classes(5, [g.images for g in A5_GENS])
    cls = conjugacy_classes(a5)
    assert sorted(len(c) for c in oracle) == sorted(c.size for c in cls)
    assert sorted(c.size for c in cls) == [1, 12, 12, 15, 20]
    assert sum(c.size for c in cls) == 60
    # canonical order is (element order, size, lex-least rep)
    keys = [(c.element_order, c.size, c.representative.images) for c in cls]
    assert keys == sorted(keys)
    # representative is the lex-least member of its class
    for c, members in zip(cls, [sorted(o) for o in (None,) * 0] or []):
        pass
    for c in cls:
        members = pc.class_members(a5, c.index)
        assert c.representative == min(members)


def test_class_size_times_centralizer(a5, s3, d10):
    for G in (a5, s3, d10):
        for c in conjugacy_classes(G):
            assert c.size * centralizer(G, c.representative).order == group_order(G)


def test_group_too_large_guard(s3):
    with pytest.raises(GroupTooLarge):
        conjugacy_classes(PermGroup(3, S3_GENS), max_order=2)


# -- centralizer / normalizer -------------------------------------------------


def test_centralizer_of_five_cycle(a5):
    x = perm(5, (1, 2, 3, 4, 5))
    # oracle: brute force over all 60 elements
    oracle = {g for g in naive_closure(5, [p.images for p in A5_GENS])
              if compose(g, x.images) == compose(x.images, g)}
    C = centralizer(a5, x)
    assert C.order == len(oracle) == 5


def test_centralizer_requires_membership(a5):
    with pytest.raises(NotAMember):
        centralizer(a5, perm(5, (1, 2)))


def test_normalizer_of_c5(a5):
    C5 = SubgroupHandle(a5, [perm(5, (1, 2, 3, 4, 5))])
    N = normalizer(a5, C5)
    assert N.order == 10
    # oracle: brute force
    qset = C5.element_set()
    count = 0
    for g in a5.elements():
        ginv = g.inverse()
        if all((ginv * s * g).images in qset for s in C5.generators):
            count += 1
    assert count == 10


def test_normalizer_of_whole_group(a5):
    N = normalizer(a5, pc.full_subgroup(a5))
    assert N.order == 60


def test_subgroup_validation(a5):
    with pytest.raises(NotASubgroup):
        SubgroupHandle(a5, [perm(5, (1, 2))])


# -- the subgroup registry ------------------------------------------------------


def test_full_subgroup_is_the_group_itself():
    G = PermGroup(5, A5_GENS)
    assert pc.full_subgroup(G).group is G


def test_equal_generators_share_one_group():
    G = PermGroup(5, A5_GENS)
    C5 = SubgroupHandle(G, [perm(5, (1, 2, 3, 4, 5))])
    N1, N2 = normalizer(G, C5), normalizer(G, C5)
    assert N1 is not N2 and N1.group is N2.group
    assert SubgroupHandle(G, reversed(N1.generators)).group is N1.group
    # a subgroup's own subgroups come from the same registry
    assert SubgroupHandle(N1.group, C5.generators).group is C5.group
    # sharing never changes generators
    assert N1.generators == subgroup_from_elements(G, N1.elements()).generators


def test_registry_still_checks_membership():
    G = PermGroup(5, A5_GENS)
    outside = perm(5, (1, 2))
    SubgroupHandle(G, [outside], check=False)  # registered without a check
    with pytest.raises(NotASubgroup):
        SubgroupHandle(G, [outside])


# -- Sylow subgroups ----------------------------------------------------------


def test_sylow_a5(a5):
    S = sylow_subgroup(a5, 5)
    assert S.order == 5
    assert pc.is_cyclic(S)
    S2 = sylow_subgroup(a5, 2)
    assert S2.order == 4
    assert not pc.is_cyclic(S2)


def test_sylow_s3(s3):
    assert sylow_subgroup(s3, 3).order == 3
    assert sylow_subgroup(s3, 2).order == 2


def test_sylow_p_not_dividing():
    c3 = PermGroup(3, [perm(3, (1, 2, 3))])
    assert sylow_subgroup(c3, 2).order == 1


# -- radical subgroups ----------------------------------------------------------


def test_radical_trivial_group():
    G = PermGroup(1, [])
    rad = radical_p_subgroups(G, 2)
    assert len(rad) == 1 and rad[0].order == 1


def test_radical_a5_p5(a5):
    # oracle per subgroup of one Sylow group: Q = O_5(N_G(Q))
    rad = radical_p_subgroups(a5, 5)
    assert sorted(q.order for q in rad) == [1, 5]
    for q in rad:
        N = normalizer(a5, q)
        assert pc.p_core(N, 5).canonical_key() == q.canonical_key()


def test_radical_s3_p3(s3):
    rad = radical_p_subgroups(s3, 3)
    assert [q.order for q in rad] == [3]


def test_radical_a5_p2(a5):
    rad = radical_p_subgroups(a5, 2)
    assert sorted(q.order for q in rad) == [1, 4]


def test_radical_classes_not_conjugate(a5):
    rad = radical_p_subgroups(a5, 2)
    for i, q in enumerate(rad):
        for r in rad[i + 1:]:
            assert not pc.are_conjugate_subgroups(a5, q, r)


# -- coset actions -----------------------------------------------------------------


def test_coset_action_s3_mod_a3(s3):
    A3 = SubgroupHandle(s3, [perm(3, (1, 2, 3))])
    act = coset_action(s3, A3)
    assert act.image.order() == 2
    assert act.kernel.order == 3


def test_coset_action_d10_mod_c5(d10):
    C5 = SubgroupHandle(d10, [perm(5, (1, 2, 3, 4, 5))])
    act = coset_action(d10, C5)
    assert act.image.order() == 2


def test_coset_action_by_itself(s3):
    act = coset_action(s3, pc.full_subgroup(s3))
    assert act.image.order() == 1


def test_coset_action_regular(s3):
    act = coset_action(s3, trivial_subgroup(s3))
    assert act.image.order() == 6
    assert act.image.degree == 6
    assert act.kernel.order == 1
    # faithful: projection is injective on generators
    assert len({act.project(g).images for g in s3.generators}) == len(s3.generators)


def test_coset_action_projection_is_homomorphism(s3):
    A3 = SubgroupHandle(s3, [perm(3, (1, 2, 3))])
    act = coset_action(s3, A3)
    for x in s3.elements():
        for y in s3.generators:
            assert act.project(x * y) == act.project(x) * act.project(y)


def test_subgroup_order_divides_group_order(a5):
    for q in radical_p_subgroups(a5, 2):
        assert group_order(a5) % q.order == 0


def test_membership_oracle_midsize_groups(corpus):
    # oracle equivalence holds through the desk-scale corpus (|G| <= 2000)
    import random

    rng = random.Random(11)
    for key in ("s4", "sl23", "psl27"):
        G = corpus[key]
        oracle = naive_closure(G.degree, [g.images for g in G.generators])
        for x in sorted(oracle)[:40]:
            assert Permutation(x) in G
        for _ in range(40):
            images = list(range(G.degree))
            rng.shuffle(images)
            assert (Permutation(images) in G) == (tuple(images) in oracle)


def test_group_laws_on_random_permutations():
    from hypothesis import given, settings, strategies as st

    @st.composite
    def perms(draw, n=7):
        images = draw(st.permutations(range(n)))
        return Permutation(images)

    @given(perms(), perms(), perms())
    @settings(max_examples=80, deadline=None)
    def laws(a, b, c):
        assert (a * b) * c == a * (b * c)
        assert (a * b).inverse() == b.inverse() * a.inverse()
        assert a * Permutation.identity(7) == a
        assert (a * a.inverse()).is_identity()
        assert a.conjugated_by(b).cycle_type() == a.cycle_type()
        assert a.order() == a.conjugated_by(b).order()

    laws()


def test_element_order_divides_group_order(a5, s3, d10):
    for G in (a5, s3, d10):
        for x in G.elements():
            assert G.order() % x.order() == 0


def _greedy_generators_full_scan(G, elements):
    """The greedy generator scan over every element, with no early exit."""
    gens = []
    H = PermGroup(G.degree, [])
    for x in sorted(elements):
        if x.is_identity() or x in H:
            continue
        gens.append(x)
        H = PermGroup(G.degree, gens)
    return tuple(sorted(gens))


def test_subgroup_from_elements_early_exit_keeps_generators(corpus):
    # centralizers of class representatives and normalizers of Sylow and
    # cyclic subgroups, as element lists built straight from the definitions
    checked = 0
    for key in ("s3", "a4", "s4", "d10", "sl23", "a5", "psl27"):
        G = corpus[key]
        els = G.elements()
        subgroups = [sylow_subgroup(G, p) for p in (2, 3, 5, 7) if G.order() % p == 0]
        for c in conjugacy_classes(G):
            x = c.representative
            members = [g for g in els if g * x == x * g]
            assert subgroup_from_elements(G, members).generators == \
                _greedy_generators_full_scan(G, members)
            subgroups.append(SubgroupHandle(G, [x]))
            checked += 1
        for Q in subgroups:
            qset = Q.element_set()
            members = [g for g in els
                       if all((g.inverse() * s * g).images in qset for s in Q.generators)]
            assert subgroup_from_elements(G, members).generators == \
                _greedy_generators_full_scan(G, members)
            checked += 1
    assert checked > 50
