"""Permutation-group engine.

Groups act on {1..n} in all I/O; internally points are 0-based. The engine
is deliberately enumeration-friendly: orders and membership come from a
deterministic Schreier-Sims stabilizer chain, while conjugacy classes,
centralizers, normalizers and subgroup conjugacy fall back to exact
element-list searches guarded by a configurable order bound. Correctness
over asymptotics, desk scale.

The whole-group loops (chain, sifting, enumeration, class orbits, the
centralizer, normalizer and core scans, coset keys) run on raw image tuples,
composed in C: x * g (x first) is itemgetter(*x)(g), and x^g = g^-1 x g.
Permutation objects are built only for results: each element of elements()
once, and class members, class representatives and the `_class_of` keys
reuse those objects and their image tuples. Element inverses come from one
table per group, aligned with elements().

A group and all subgroups built inside it share one registry, one PermGroup
per sorted generator tuple: SubgroupHandles with equal generators share one
chain, element list, class list and table while the ambient group lives.
It is keyed by generators, not element sets, so no generators ever change.
A newly registered group whose order equals its ambient group's has the
same elements, so it takes the ambient's element list, element set,
inverses and classes (not its table) instead of enumerating them again.
"""

from __future__ import annotations

import itertools
from math import lcm
from operator import attrgetter, itemgetter

from .arith import v_p
from .errors import GroupTooLarge, InternalInconsistency, NotAMember, NotASubgroup

#: Default cap on |G| for operations that enumerate the whole group.
DEFAULT_MAX_ORDER = 200_000

#: Absolute cap for element enumeration regardless of caller overrides.
_HARD_ELEMENT_CAP = 5_000_000


_images = attrgetter("images")


def _inverse(images: tuple) -> tuple:
    """Inverse of an image tuple: position j holds the i with images[i] == j."""
    inv = [0] * len(images)
    for i, j in enumerate(images):
        inv[j] = i
    return tuple(inv)


class Permutation:
    """An immutable permutation of {0..n-1} stored as its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {images!r}")
        object.__setattr__(self, "images", images)

    @classmethod
    def _unsafe(cls, images: tuple) -> "Permutation":
        """Trusted constructor: images must already be a bijection tuple."""
        self = object.__new__(cls)
        object.__setattr__(self, "images", images)
        return self

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation._unsafe(tuple(range(n)))

    @classmethod
    def from_one_based(cls, images) -> "Permutation":
        return cls(i - 1 for i in images)

    @classmethod
    def from_cycles(cls, degree: int, cycles, base: int = 1) -> "Permutation":
        """Build from disjoint cycles given in `base`-based points."""
        images = list(range(degree))
        for cycle in cycles:
            pts = [c - base for c in cycle]
            for a, b in zip(pts, pts[1:]):
                images[a] = b
            if pts:
                images[pts[-1]] = pts[0]
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def one_based(self) -> list[int]:
        return [i + 1 for i in self.images]

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # apply self first, then other; closed on bijections, no revalidation
        o = other.images
        return Permutation._unsafe(tuple(o[i] for i in self.images))

    def inverse(self) -> "Permutation":
        return Permutation._unsafe(_inverse(self.images))

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        out = Permutation.identity(self.degree)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugated_by(self, g: "Permutation") -> "Permutation":
        """g^-1 * self * g."""
        return g.inverse() * self * g

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self) -> list[list[int]]:
        """Nontrivial cycles, 0-based, each starting at its least point."""
        seen = set()
        out = []
        for i in range(self.degree):
            if i in seen or self.images[i] == i:
                continue
            cyc = [i]
            j = self.images[i]
            while j != i:
                seen.add(j)
                cyc.append(j)
                j = self.images[j]
            out.append(cyc)
        return out

    def cycle_type(self) -> tuple[int, ...]:
        """All cycle lengths including fixed points, descending."""
        lengths = [len(c) for c in self.cycles()]
        lengths += [1] * (self.degree - sum(lengths))
        return tuple(sorted(lengths, reverse=True))

    def order(self) -> int:
        return lcm(*(len(c) for c in self.cycles()))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __lt__(self, other):
        return self.images < other.images

    def __repr__(self):
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + " ".join(str(p + 1) for p in c) + ")" for c in cyc)


class PermGroup:
    """A permutation group given by generators on {0..n-1} (internal)."""

    def __init__(self, degree: int, generators):
        self.degree = degree
        gens = []
        seen = set()
        for g in generators:
            if not isinstance(g, Permutation):
                g = Permutation(g)
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
            if g.is_identity() or g.images in seen:
                continue
            seen.add(g.images)
            gens.append(g)
        self.generators = tuple(sorted(gens))
        self._chain = None
        self._order = None
        self._elements = None
        self._element_set = None
        self._inverses = None  # image tuples aligned with _elements
        self._classes = None
        self._class_of = None
        self._class_members = None
        self._chartab = None  # set only in chartab: character_table, ingest_table
        self._subgroups = {self.generator_key(): self}

    def generator_key(self) -> tuple:
        """The sorted generator image tuple: the subgroup registry key."""
        return tuple(g.images for g in self.generators)

    # -- stabilizer chain -------------------------------------------------

    def _build_chain(self):
        """Deterministic Schreier-Sims on image tuples.

        Levels are (base point, {orbit point: inverse of its transversal element}).
        """
        levels = []
        identity = tuple(range(self.degree))
        gens = [g.images for g in self.generators]
        while gens:
            base = min(min(i for i, j in enumerate(g) if i != j) for g in gens)
            transversal = {base: identity}
            queue = [base]
            for pt in queue:  # breadth first: queue grows while it is read
                for g in gens:
                    if g[pt] not in transversal:
                        transversal[g[pt]] = itemgetter(*transversal[pt])(g)
                        queue.append(g[pt])
            inverted = {pt: _inverse(u) for pt, u in transversal.items()}
            levels.append((base, inverted))
            # Schreier generators u_pt * g * u_{g(pt)}^-1 of the stabilizer of `base`
            stab_gens, stab_seen = [], set()
            for pt in sorted(transversal):
                for g in gens:
                    s = itemgetter(*itemgetter(*transversal[pt])(g))(inverted[g[pt]])
                    if s != identity and s not in stab_seen:
                        stab_seen.add(s)
                        stab_gens.append(s)
            gens = stab_gens  # sift against nothing (fresh level)
        self._chain = levels

    @property
    def chain(self):
        if self._chain is None:
            self._build_chain()
        return self._chain

    def order(self) -> int:
        if self._order is None:
            n = 1
            for _base, inverted in self.chain:
                n *= len(inverted)
            self._order = n
        return self._order

    def __contains__(self, p: Permutation) -> bool:
        if p.degree != self.degree:
            return False
        x = p.images
        for base, inverted in self.chain:
            u = inverted.get(x[base])
            if u is None:
                return False
            x = itemgetter(*x)(u)
        return x == tuple(range(self.degree))

    def is_trivial(self) -> bool:
        return self.order() == 1

    # -- enumeration ------------------------------------------------------

    def elements(self) -> tuple[Permutation, ...]:
        """All elements, sorted by image tuple (canonical order)."""
        if self._elements is None:
            if self.order() > _HARD_ELEMENT_CAP:
                raise GroupTooLarge(f"group of order {self.order()} too large to enumerate")
            found = [tuple(range(self.degree))]
            seen = set(found)
            gens = [g.images for g in self.generators]
            for x in found:  # breadth first: found grows while it is read
                times_x = itemgetter(*x)
                for g in gens:
                    y = times_x(g)
                    if y not in seen:
                        seen.add(y)
                        found.append(y)
            if len(found) != self.order():
                raise InternalInconsistency("element enumeration disagrees with chain order")
            found.sort()  # tuple order is Permutation order
            self._elements = tuple(map(Permutation._unsafe, found))
            self._element_set = frozenset(found)
        return self._elements

    def element_set(self) -> frozenset:
        if self._element_set is None:
            self.elements()
        return self._element_set

    def inverses(self) -> tuple[tuple, ...]:
        """Image tuples of the inverses of elements(), in the same order.

        The tuples are the elements' own, so the table adds no second copy.
        """
        if self._inverses is None:
            own = {x.images: x.images for x in self.elements()}
            self._inverses = tuple(own[_inverse(x.images)] for x in self._elements)
        return self._inverses

    def __repr__(self):
        return f"PermGroup(degree={self.degree}, gens={list(self.generators)!r})"


#: What a group takes from an ambient group of equal order; never chain or table.
_SHARED_WITH_AMBIENT = ("_elements", "_element_set", "_inverses", "_classes", "_class_of",
                        "_class_members")


class SubgroupHandle:
    """A subgroup of an ambient group, given by generators inside it."""

    def __init__(self, ambient: PermGroup, generators, check: bool = True):
        self.ambient = ambient
        group = PermGroup(ambient.degree, generators)
        group._subgroups = ambient._subgroups
        self.group = ambient._subgroups.setdefault(group.generator_key(), group)
        if check:
            for g in self.group.generators:
                if g not in ambient:
                    raise NotASubgroup(f"generator {g!r} lies outside the ambient group")
        if self.group is group and group.order() == ambient.order():  # same elements
            for name in _SHARED_WITH_AMBIENT:
                setattr(group, name, getattr(ambient, name))
        if self.order and self.ambient.order() % self.order != 0:
            raise InternalInconsistency("Lagrange check failed")

    @property
    def generators(self) -> tuple[Permutation, ...]:
        return self.group.generators

    @property
    def order(self) -> int:
        return self.group.order()

    def elements(self) -> tuple[Permutation, ...]:
        return self.group.elements()

    def element_set(self) -> frozenset:
        return self.group.element_set()

    def contains_subgroup(self, other: "SubgroupHandle") -> bool:
        return all(g in self.group for g in other.generators)

    def canonical_key(self) -> tuple:
        """Element-set fingerprint; equal iff equal as subgroups."""
        return tuple(sorted(self.element_set()))

    def __repr__(self):
        return f"<subgroup of order {self.order}: {list(self.generators)!r}>"


def trivial_subgroup(G: PermGroup) -> SubgroupHandle:
    return SubgroupHandle(G, [], check=False)


def full_subgroup(G: PermGroup) -> SubgroupHandle:
    return SubgroupHandle(G, G.generators, check=False)


def subgroup_from_elements(G: PermGroup, elements) -> SubgroupHandle:
    """Subgroup handle with a reduced generating set drawn from `elements`.

    `elements` is the full element list of a subgroup, so the greedy scan
    stops as soon as the generated group has that many elements: every
    later element already lies in it and would add no generator.
    """
    elements = sorted((Permutation(x) if isinstance(x, tuple) else x for x in elements),
                      key=_images)
    gens: list[Permutation] = []
    H = PermGroup(G.degree, [])
    for x in elements:
        if x.is_identity() or x in H:
            continue
        gens.append(x)
        H = PermGroup(G.degree, gens)
        if H.order() == len(elements):
            break
    return SubgroupHandle(G, gens, check=False)


# -- orders, classes ------------------------------------------------------


def group_order(G: PermGroup) -> int:
    """Exact order via the stabilizer chain."""
    return G.order()


class ConjugacyClass:
    """One conjugacy class; representative is the lex-least member."""

    __slots__ = ("representative", "size", "element_order", "index")

    def __init__(self, representative: Permutation, size: int, element_order: int, index: int):
        self.representative = representative
        self.size = size
        self.element_order = element_order
        self.index = index

    def __repr__(self):
        return f"<class {self.index}: rep {self.representative!r}, size {self.size}, order {self.element_order}>"


def _check_order(G: PermGroup, max_order):
    bound = DEFAULT_MAX_ORDER if max_order is None else max_order
    if G.order() > bound:
        raise GroupTooLarge(f"|G| = {G.order()} exceeds the bound {bound}")


def conjugacy_classes(G: PermGroup, max_order=None) -> tuple[ConjugacyClass, ...]:
    """Complete class list in canonical order.

    Canonical order: (element order, class size, lex-least representative
    image tuple). Computed by orbit partition of the full element list.
    """
    if G._classes is not None:
        return G._classes
    _check_order(G, max_order)
    els = G.elements()
    gens = [(g.images, itemgetter(*_inverse(g.images))) for g in G.generators]
    # orbit number per element, keyed by the elements' own image tuples; the
    # first element of an orbit in canonical order is its lex-least member
    class_of = dict.fromkeys(x.images for x in els)
    found = []
    for x in els:
        if class_of[x.images] is not None:
            continue
        class_of[x.images] = len(found)
        orbit = [x.images]
        for y in orbit:  # breadth first: orbit grows while it is read
            times_y = itemgetter(*y)
            for g, ginv_times in gens:
                z = ginv_times(times_y(g))  # y^g = g^-1 y g
                if class_of[z] is None:
                    class_of[z] = len(found)
                    orbit.append(z)
        found.append((x.order(), len(orbit), x.images, x))
    ranked = sorted(range(len(found)), key=lambda c: found[c][:3])
    index = [0] * len(found)
    for idx, c in enumerate(ranked):
        index[c] = idx
    classes = tuple(ConjugacyClass(found[c][3], found[c][1], found[c][0], idx)
                    for idx, c in enumerate(ranked))
    members = [[] for _ in classes]
    for x in els:  # canonical order, so every member list comes out sorted
        class_of[x.images] = idx = index[class_of[x.images]]
        members[idx].append(x)
    if sum(c.size for c in classes) != G.order():
        raise InternalInconsistency("class sizes do not sum to |G|")
    G._classes = classes
    G._class_of = class_of
    G._class_members = [tuple(m) for m in members]
    return G._classes


def class_of(G: PermGroup, x: Permutation) -> int:
    """Index of the class of x in canonical order."""
    conjugacy_classes(G)
    try:
        return G._class_of[x.images]
    except KeyError:
        raise NotAMember(f"{x!r} is not an element of the group") from None


def class_members(G: PermGroup, index: int) -> tuple[Permutation, ...]:
    conjugacy_classes(G)
    return G._class_members[index]


# -- centralizer / normalizer / Sylow ------------------------------------


def centralizer(G: PermGroup, x: Permutation) -> SubgroupHandle:
    """Exact centralizer of an element, by direct search."""
    if x not in G:
        raise NotAMember(f"{x!r} is not in the group")
    return subgroup_from_elements(G, list(_conjugators(G, [(x, {x.images})])))


def centralizer_subgroup(G: PermGroup, Q: SubgroupHandle) -> SubgroupHandle:
    """Pointwise centralizer of a subgroup."""
    if not Q.generators:
        return full_subgroup(G)
    tests = [(s, {s.images}) for s in Q.generators]
    return subgroup_from_elements(G, list(_conjugators(G, tests)))


def normalizer(G: PermGroup, Q: SubgroupHandle) -> SubgroupHandle:
    """Exact normalizer of a subgroup, by direct search."""
    for g in Q.generators:
        if g not in G:
            raise NotASubgroup("subgroup does not lie in the ambient group")
    target = Q.element_set()
    return subgroup_from_elements(G, list(_conjugators(G, [(s, target) for s in Q.generators])))


def _conjugators(G: PermGroup, tests):
    """The g in G, in canonical order, with s^g in target for every (s, target) in tests."""
    if G.degree < 2:  # the identity alone; a 1-item itemgetter gives a point, not a tuple
        yield from (g for g in G.elements() if all(s.images in t for s, t in tests))
        return
    tests = [(itemgetter(*s.images), target) for s, target in tests]
    for g, ginv in zip(G.elements(), G.inverses()):
        ginv_times = itemgetter(*ginv)
        for s_times, target in tests:
            if ginv_times(s_times(g.images)) not in target:
                break
        else:
            yield g


def sylow_subgroup(G: PermGroup, p: int) -> SubgroupHandle:
    """A Sylow p-subgroup, grown by the normalizer climb.

    A proper p-subgroup is never self-normalizing inside a Sylow group, so
    some p-element outside S normalizes S; adjoining it keeps a p-group.
    """
    target = v_p(G.order(), p)
    S = trivial_subgroup(G)
    while v_p(S.order, p) < target or S.order != p ** v_p(S.order, p):
        N = normalizer(G, S)
        sset = S.element_set()
        grown = False
        for x in N.elements():
            o = x.order()
            if o == 1 or x.images in sset:
                continue
            if o == p ** v_p(o, p):
                S = SubgroupHandle(G, list(S.generators) + [x], check=False)
                grown = True
                break
        if not grown:
            raise InternalInconsistency("Sylow climb stalled")
    if S.order != p ** target:
        raise InternalInconsistency("Sylow subgroup has wrong order")
    return S


def p_core(H: SubgroupHandle, p: int) -> SubgroupHandle:
    """O_p(H): the core of a Sylow p-subgroup of H."""
    Hg = H.group
    S = sylow_subgroup(Hg, p)
    if S.order == 1:
        return SubgroupHandle(H.ambient, [], check=False)
    sset = S.element_set()
    conj = [(g.images, itemgetter(*ginv)) for g, ginv in zip(Hg.elements(), Hg.inverses())]
    members = []
    for x in S.elements():  # S is nontrivial, so the degree is at least 2
        x_times = itemgetter(*x.images)
        if all(ginv_times(x_times(g)) in sset for g, ginv_times in conj):
            members.append(x)
    return subgroup_from_elements(H.ambient, members)


def is_cyclic(Q: SubgroupHandle) -> bool:
    return Q.order == 1 or any(x.order() == Q.order for x in Q.elements())


def is_abelian(Q: SubgroupHandle) -> bool:
    gens = Q.generators
    return all(a * b == b * a for a, b in itertools.combinations(gens, 2))


# -- subgroup conjugacy ----------------------------------------------------


def _subgroup_signature(Q: SubgroupHandle) -> tuple:
    return (Q.order, tuple(sorted(x.cycle_type() for x in Q.elements())))


def conjugating_element(G: PermGroup, A: SubgroupHandle, B: SubgroupHandle):
    """A g with A^g = B, or None. Exhaustive with cheap pruning."""
    if _subgroup_signature(A) != _subgroup_signature(B):
        return None
    if not A.generators:
        return Permutation.identity(G.degree)
    target = B.element_set()
    return next(_conjugators(G, [(s, target) for s in A.generators]), None)


def are_conjugate_subgroups(G: PermGroup, A: SubgroupHandle, B: SubgroupHandle) -> bool:
    return conjugating_element(G, A, B) is not None


def conjugate_subgroup(G: PermGroup, Q: SubgroupHandle, g: Permutation) -> SubgroupHandle:
    ginv = g.inverse()
    return SubgroupHandle(G, [ginv * s * g for s in Q.generators], check=False)


# -- radical p-subgroups ---------------------------------------------------


def _all_subgroups_of(P: SubgroupHandle) -> list[SubgroupHandle]:
    """Every subgroup of a small group, by closure growth."""
    G = P.ambient
    seen: dict[tuple, SubgroupHandle] = {}
    triv = trivial_subgroup(G)
    seen[triv.canonical_key()] = triv
    frontier = [triv]
    pelems = P.elements()
    while frontier:
        new_frontier = []
        for H in frontier:
            hset = H.element_set()
            for x in pelems:
                if x.images in hset or x.is_identity():
                    continue
                K = SubgroupHandle(G, list(H.generators) + [x], check=False)
                key = K.canonical_key()
                if key not in seen:
                    seen[key] = K
                    new_frontier.append(K)
        frontier = new_frontier
    return list(seen.values())


def radical_p_subgroups(G: PermGroup, p: int, max_order=None) -> tuple[SubgroupHandle, ...]:
    """A G-transversal of the radical p-subgroups (Q = O_p(N_G(Q))).

    Every p-subgroup is conjugate into a fixed Sylow group, so candidates
    are the subgroups of one Sylow p-subgroup, deduplicated by exhaustive
    conjugacy testing.
    """
    _check_order(G, max_order)
    P = sylow_subgroup(G, p)
    radicals = []
    for Q in _all_subgroups_of(P):
        N = normalizer(G, Q)
        core = p_core(N, p)
        if core.canonical_key() == Q.canonical_key():
            radicals.append(Q)
    # dedupe by conjugacy, keep the canonically least representative per class
    radicals.sort(key=lambda Q: (Q.order, Q.canonical_key()))
    transversal: list[SubgroupHandle] = []
    for Q in radicals:
        if not any(are_conjugate_subgroups(G, Q, R) for R in transversal):
            transversal.append(Q)
    return tuple(transversal)


# -- coset actions ---------------------------------------------------------


class CosetAction:
    """The action of G on the right cosets of H <= G, with projection and kernel.

    The image is isomorphic to G/core_G(H); for H normal this is G/H.
    """

    def __init__(self, group: PermGroup, subgroup: SubgroupHandle):
        self.group = group
        self.subgroup = subgroup
        self._hels = [h.images for h in subgroup.elements()]
        identity = Permutation.identity(group.degree)
        reps = [identity]
        self._coset_index = {self._coset_key(identity): 0}
        for r in reps:  # breadth first: reps grows while it is read
            for g in group.generators:
                x = r * g
                k = self._coset_key(x)
                if k not in self._coset_index:
                    self._coset_index[k] = len(reps)
                    reps.append(x)
        self.reps = tuple(reps)
        self.image = PermGroup(len(reps), [self.project(g) for g in group.generators])
        # kernel = core_G(H) = elements of H all of whose conjugates by coset reps stay in H
        hset = subgroup.element_set()
        conj = [(_inverse(r.images).__getitem__, r.images) for r in reps]  # x -> r x r^-1
        self.kernel = subgroup_from_elements(group, [
            x for x in subgroup.elements()
            if all(tuple(map(rinv, map(x.images.__getitem__, r))) in hset for rinv, r in conj)])
        if self.image.order() * self.kernel.order != group.order():
            raise InternalInconsistency("coset action order check failed")

    def _coset_key(self, x: Permutation) -> tuple:
        xi = x.images.__getitem__
        return min(tuple(map(xi, h)) for h in self._hels)

    def coset_index(self, x: Permutation) -> int:
        return self._coset_index[self._coset_key(x)]

    def project(self, g: Permutation) -> Permutation:
        """Image of g as a permutation of the coset space."""
        return Permutation(self.coset_index(r * g) for r in self.reps)


def coset_action(G: PermGroup, H: SubgroupHandle) -> CosetAction:
    """Realize G acting on the right cosets of H <= G."""
    for g in H.generators:
        if g not in G:
            raise NotASubgroup("H is not a subgroup of G")
    return CosetAction(G, H)
