"""The tuple kernel of permcore against its Permutation-object predecessor.

The functions prefixed `old_` are the element loops permcore used before it
composed raw image tuples: every product is a Permutation object, and none
of them reads a cached element list, inverse table, class list or chain of
the group under test. They must give the same element order, the same
classes and class members, the same `_class_of`, and the same generators
for every subgroup handle.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blocktool.data import group_path
from blocktool.fileio import read_group_file
from blocktool.permcore import (
    PermGroup,
    Permutation,
    SubgroupHandle,
    _conjugators,
    centralizer,
    centralizer_subgroup,
    conjugacy_classes,
    conjugate_subgroup,
    conjugating_element,
    normalizer,
    p_core,
    subgroup_from_elements,
    sylow_subgroup,
)

SHIPPED = ["a4", "a5", "c2", "c4", "d10", "m11", "psl211", "psl27", "psl32_deg7", "s3", "s4",
           "sl23"]
S8_GENERATORS = [[1, 2, 3, 4, 5, 6, 7, 0], [1, 0, 2, 3, 4, 5, 6, 7]]


# -- the Permutation-object versions ---------------------------------------------------------


def old_chain(degree, generators):
    """Schreier-Sims levels (base point, {point: transversal element})."""
    levels = []
    level_gens = list(generators)
    while level_gens:
        base = min(min(i for i, j in enumerate(g.images) if i != j) for g in level_gens)
        orbit = {base: Permutation.identity(degree)}
        queue = [base]
        while queue:
            pt = queue.pop(0)
            for g in level_gens:
                img = g(pt)
                if img not in orbit:
                    orbit[img] = orbit[pt] * g
                    queue.append(img)
        levels.append((base, orbit))
        stab_gens, stab_seen = [], set()
        for pt in sorted(orbit):
            for g in level_gens:
                s = orbit[pt] * g * orbit[g(pt)].inverse()
                if not s.is_identity() and s.images not in stab_seen:
                    stab_seen.add(s.images)
                    stab_gens.append(s)
        level_gens = stab_gens
    return levels


def old_order(degree, generators):
    n = 1
    for _base, orbit in old_chain(degree, generators):
        n *= len(orbit)
    return n


def old_contains(degree, generators, p):
    for base, orbit in old_chain(degree, generators):
        img = p(base)
        if img not in orbit:
            return False
        p = p * orbit[img].inverse()
    return p.is_identity()


def old_elements(G):
    identity = Permutation.identity(G.degree)
    found = {identity.images}
    queue, elements = [identity], [identity]
    while queue:
        x = queue.pop(0)
        for g in G.generators:
            y = x * g
            if y.images not in found:
                found.add(y.images)
                elements.append(y)
                queue.append(y)
    return tuple(sorted(elements))


def old_conjugacy_classes(G):
    """(representative, size, element order) per class, members per class, class_of."""
    assigned, raw = {}, []
    for x in old_elements(G):
        if x.images in assigned:
            continue
        members, queue = [x], [x]
        assigned[x.images] = len(raw)
        while queue:
            y = queue.pop(0)
            for g in G.generators:
                z = y.conjugated_by(g)
                if z.images not in assigned:
                    assigned[z.images] = len(raw)
                    members.append(z)
                    queue.append(z)
        raw.append(members)
    keyed = sorted(((min(m).order(), len(m), min(m).images, m) for m in raw),
                   key=lambda t: t[:3])
    classes = [(images, size, order) for order, size, images, _m in keyed]
    members = [tuple(sorted(m)) for *_key, m in keyed]
    class_of = {x.images: idx for idx, ms in enumerate(members) for x in ms}
    return classes, members, class_of


def old_subgroup_generators(degree, elements):
    """The greedy generators subgroup_from_elements picks, with the early exit."""
    elements = sorted(elements)
    gens = []
    for x in elements:
        if x.is_identity() or old_contains(degree, gens, x):
            continue
        gens.append(x)
        if old_order(degree, gens) == len(elements):
            break
    return tuple(sorted(gens))


def old_conjugators(G, gens, target):
    for g in old_elements(G):
        ginv = g.inverse()
        if all((ginv * s * g).images in target for s in gens):
            yield g


def old_centralizer(G, x):
    return old_subgroup_generators(G.degree, [g for g in old_elements(G) if g * x == x * g])


def old_centralizer_subgroup(G, gens):
    if not gens:
        return G.generators
    return old_subgroup_generators(
        G.degree, [g for g in old_elements(G) if all(g * s == s * g for s in gens)])


def old_element_set(degree, gens):
    return frozenset(x.images for x in old_elements(PermGroup(degree, gens)))


def old_normalizer(G, gens):
    target = old_element_set(G.degree, gens)
    return old_subgroup_generators(G.degree, list(old_conjugators(G, gens, target)))


def old_p_core(Hg, p):
    S = sylow_subgroup(Hg, p)
    if S.order == 1:
        return ()
    sset, helems = S.element_set(), old_elements(Hg)
    members = [x for x in old_elements(S.group)
               if all((g.inverse() * x * g).images in sset for g in helems)]
    return old_subgroup_generators(Hg.degree, members)


# -- comparisons ---------------------------------------------------------------------------


def check_enumeration_and_classes(G):
    elements = G.elements()
    assert [x.images for x in elements] == [x.images for x in old_elements(G)]
    classes, members, class_of = old_conjugacy_classes(G)
    new = conjugacy_classes(G)
    assert [(c.representative.images, c.size, c.element_order) for c in new] == classes
    assert [c.index for c in new] == list(range(len(new)))
    assert [[x.images for x in ms] for ms in G._class_members] == \
        [[x.images for x in ms] for ms in members]
    assert G._class_of == class_of
    # one copy of the group: members, representatives, _class_of keys and
    # inverses are the objects and image tuples of G.elements()
    objects = {id(x) for x in elements}
    tuples = {id(x.images) for x in elements}
    assert all(id(x) in objects for ms in G._class_members for x in ms)
    assert all(id(c.representative) in objects for c in new)
    assert all(id(t) in tuples for t in G._class_of)
    assert all(id(t) in tuples for t in G.inverses())
    assert [Permutation(t) for t in G.inverses()] == [x.inverse() for x in elements]


def check_membership(G, probes):
    for x in probes:
        assert (x in G) == old_contains(G.degree, G.generators, x)


def check_subgroup_scans(G, primes):
    reps = [c.representative for c in conjugacy_classes(G)]
    subgroups = [sylow_subgroup(G, p) for p in primes]
    for x in reps:
        assert centralizer(G, x).generators == old_centralizer(G, x)
        subgroups.append(SubgroupHandle(G, [x]))
    for Q in subgroups:
        assert centralizer_subgroup(G, Q).generators == \
            old_centralizer_subgroup(G, Q.generators)
        N = normalizer(G, Q)
        assert N.generators == old_normalizer(G, Q.generators)
        moved = conjugate_subgroup(G, Q, reps[-1])
        target = old_element_set(G.degree, moved.generators)
        assert conjugating_element(G, Q, moved) == \
            next(old_conjugators(G, Q.generators, target))
        for p in primes:
            assert p_core(N, p).generators == old_p_core(N.group, p)
    C = centralizer(G, Permutation.identity(G.degree))
    assert C.group.elements() is G.elements()
    assert C.group._class_of is G._class_of


def probes(G, count, seed):
    rng = random.Random(seed)
    out = list(G.elements()[:count])
    for _ in range(count):
        images = list(range(G.degree))
        rng.shuffle(images)
        out.append(Permutation(images))
    return out


@pytest.mark.parametrize("key", SHIPPED)
def test_shipped_group_against_object_kernel(key):
    _name, G = read_group_file(group_path(key))
    check_enumeration_and_classes(G)
    check_membership(G, probes(G, 40, seed=len(key)))
    primes = [p for p in (2, 3, 5, 7, 11) if G.order() % p == 0]
    if G.order() > 1000:  # M11: centralizers and normalizers of a few subgroups only
        reps = [c.representative for c in conjugacy_classes(G)][1:4]
        for x in reps:
            assert centralizer(G, x).generators == old_centralizer(G, x)
        for p in (5, 11):
            S = sylow_subgroup(G, p)
            assert normalizer(G, S).generators == old_normalizer(G, S.generators)
        return
    check_subgroup_scans(G, primes)


def test_s8_against_object_kernel():
    G = PermGroup(8, S8_GENERATORS)
    check_enumeration_and_classes(G)
    check_membership(G, probes(G, 20, seed=8))
    x = conjugacy_classes(G)[-1].representative
    assert x.order() == 15
    assert centralizer(G, x).generators == old_centralizer(G, x)
    S = sylow_subgroup(G, 7)
    assert normalizer(G, S).generators == old_normalizer(G, S.generators)
    C = centralizer(G, Permutation.identity(8))
    assert C.group is not G and C.group.elements() is G.elements()


def test_subgroup_from_elements_sorts_by_image_tuple():
    G = PermGroup(4, [[1, 2, 3, 0], [1, 0, 2, 3]])
    shuffled = list(G.elements())
    random.Random(4).shuffle(shuffled)
    handle = subgroup_from_elements(G, shuffled)
    assert handle.generators == old_subgroup_generators(4, G.elements())
    assert subgroup_from_elements(G, [x.images for x in shuffled]).generators == \
        handle.generators


def test_conjugators_on_a_one_point_group():
    G = PermGroup(1, [])
    e = Permutation.identity(1)
    assert list(_conjugators(G, [(e, {e.images})])) == [e]
    assert centralizer(G, e).order == 1


@st.composite
def small_groups(draw):
    degree = draw(st.integers(min_value=2, max_value=6))
    count = draw(st.integers(min_value=1, max_value=3))
    gens = [draw(st.permutations(list(range(degree)))) for _ in range(count)]
    return PermGroup(degree, gens)


@settings(max_examples=40, deadline=None)
@given(small_groups(), st.integers(min_value=0, max_value=10 ** 6))
def test_random_groups_against_object_kernel(G, seed):
    check_enumeration_and_classes(G)
    check_membership(G, probes(G, 30, seed))
    primes = [p for p in (2, 3, 5) if G.order() % p == 0]
    check_subgroup_scans(G, primes)
