"""Cyclic-defect machinery: inertial index, Brauer trees, decomposition data.

The tree of a cyclic block is reconstructed from ordinary character data
alone. Adjacent vertex sums vanish on p-singular classes, so the vanishing
test yields a graph containing the tree; the tree itself is the unique
spanning tree whose forced edge functions (leaf peeling) reconstruct every
member's restriction to p-regular classes with positive degrees. The
unitriangular labeling roots the tree at the exceptional vertex and hands
out labels leaves-first, which forces every edge to climb toward larger
labels.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .blocks import Block, block_partition, defect_group, induced_block_from_subgroup, memoized
from .chartab import (
    character_table,
    p_regular_classes,
    p_singular_classes,
    restrict_to_p_regular,
)
from .cyclo import CycNum, is_p_rational_value_set
from .errors import (
    CentralDefect,
    InconsistentCount,
    InternalInconsistency,
    NegativeDegree,
    NotATree,
    NotCyclicDefect,
)
from .permcore import (
    SubgroupHandle,
    centralizer_subgroup,
    class_of,
    conjugacy_classes,
    is_cyclic,
    normalizer,
)

#: Sentinel vertex id for the exceptional vertex of a Brauer tree.
EXCEPTIONAL = "exceptional"


def p_rational_members(B: Block) -> tuple[int, ...]:
    """Members whose value rows are fixed by the p-direction Galois action."""
    T, p = B.table, B.p
    return tuple(i for i in B.char_indices
                 if is_p_rational_value_set(T.characters[i], p, T.exponent))


@memoized
def inertial_index(B: Block):
    """(e, canonical root block b_0 of C_G(D), orbit size of b_0 under N_G(D)).

    e = |N_G(D, b_0) : C_G(D)| computed by orbit-stabilizer on the root
    blocks; valid for any defect group, central or not.
    """
    T = B.table
    G = T.group
    D = defect_group(B)
    if D.order == 1:
        return 1, B, 1
    C = centralizer_subgroup(G, D)
    N = normalizer(G, D)
    TC = character_table(C.group)
    local = block_partition(TC, B.p, B.star)
    roots = [b for b in local if induced_block_from_subgroup(C, b, B.partition) is B]
    if not roots:
        raise InternalInconsistency("no root block of C_G(D) induces to B")
    b0 = roots[0]
    orbit = {b0.index}
    c_classes = conjugacy_classes(C.group)
    for n in N.elements():
        n_inv = n.inverse()
        perm = [class_of(C.group, n * c.representative * n_inv) for c in c_classes]
        for idx in list(orbit):
            lam = local.blocks[idx].lambda_star
            moved = tuple(lam[perm[j]] for j in range(len(perm)))
            image = local.block_with_lambda(moved)
            if image is None:
                raise InternalInconsistency("block conjugation left the partition")
            orbit.add(image.index)
    t = len(orbit)
    index = N.order // C.order
    if index % t or {b.index for b in roots} != orbit:
        raise InternalInconsistency("root-block orbit does not divide |N:C|")
    return index // t, b0, t


class CyclicBlockData:
    """Sorted exceptional / non-exceptional split of a cyclic block."""

    def __init__(self, block: Block, D: SubgroupHandle, e: int, multiplicity: int,
                 nonexceptional, exceptional, p_rational):
        self.block = block
        self.defect_group = D
        self.e = e
        self.multiplicity = multiplicity
        self.nonexceptional = tuple(nonexceptional)
        self.exceptional = tuple(exceptional)
        self.p_rational = tuple(p_rational)

    def __repr__(self):
        return (f"<cyclic block data: e={self.e}, m={self.multiplicity}, "
                f"nonexceptional {list(self.nonexceptional)}, exceptional {list(self.exceptional)}>")


@memoized
def analyze_cyclic_block(B: Block) -> CyclicBlockData:
    """Inertial index and exceptional family of a block with cyclic defect.

    Detection: for odd p the non-exceptional members are the p-rational
    ones; when e >= 2 this is cross-checked against grouping by equal
    p-regular restriction. For p = 2 exactly two members are 2-rational
    and the first of them in canonical order is designated non-exceptional.
    For m = 1 every member is a singleton family and the last in canonical
    order is designated exceptional.
    """
    T, p = B.table, B.p
    G = T.group
    D = defect_group(B)
    if D.order == 1 or not is_cyclic(D):
        raise NotCyclicDefect(f"defect group of order {D.order} is not cyclic nontrivial")
    if all(all(z * g == g * z for g in G.generators) for z in D.generators):
        raise CentralDefect("cyclic defect group is central; local analysis does not apply")
    e, _b0, _t = inertial_index(B)
    if (D.order - 1) % e or B.size() != e + (D.order - 1) // e:
        raise InconsistentCount(
            f"|Irr(B)| = {B.size()} but e = {e} and |D| = {D.order}")
    m = (D.order - 1) // e
    if p > 2 and (p - 1) % e:
        raise InternalInconsistency(f"inertial index {e} does not divide p - 1")

    rational = p_rational_members(B)
    members = sorted(B.char_indices)
    if p == 2:
        if e != 1 or len(rational) != 2:
            raise InternalInconsistency(
                "cyclic 2-block must have e = 1 and exactly two 2-rational members")
        if m == 1:
            nonexc = [min(members)]
            exc = [max(members)]
        else:
            nonexc = [rational[0]]
            exc = sorted(set(members) - set(nonexc))
    else:
        if m == 1:
            if len(rational) == e:
                exc = sorted(set(members) - set(rational))
                nonexc = sorted(rational)
            elif len(rational) == e + 1:
                exc = [members[-1]]  # canonical designation
                nonexc = members[:-1]
            else:
                raise InternalInconsistency("p-rational count matches neither e nor e + 1")
        elif e == 1:
            # grouping degenerates (all members share one restriction);
            # a nilpotent odd-p block has exactly one p-rational member
            if len(rational) != 1:
                raise InternalInconsistency(
                    f"{len(rational)} p-rational members in a nilpotent block, expected 1")
            nonexc = sorted(rational)
            exc = sorted(set(members) - set(rational))
        else:
            # primary rule: the exceptional family is the unique group of
            # size > 1 sharing one restriction to p-regular classes (the
            # p-rationality split can be strictly coarser, e.g. dihedral of
            # order 18 at p = 3, where one exceptional character is rational)
            groups: dict[tuple, list[int]] = {}
            for i in members:
                key = restrict_to_p_regular(T.characters[i], T, p)
                groups.setdefault(key, []).append(i)
            big = [chars for chars in groups.values() if len(chars) > 1]
            if len(big) != 1 or len(big[0]) != m:
                raise InternalInconsistency(
                    "no unique size-m family with a common p-regular restriction")
            exc = sorted(big[0])
            nonexc = sorted(set(members) - set(exc))
            if not set(nonexc) <= set(rational):
                raise InternalInconsistency("a non-exceptional member is not p-rational")
    if m > 1:
        shared = {restrict_to_p_regular(T.characters[i], T, p) for i in exc}
        if len(shared) != 1:
            raise InternalInconsistency(
                "exceptional members do not share one p-regular restriction")
    return CyclicBlockData(B, D, e, m, nonexc, exc, rational)


def is_nilpotent_cyclic(B: Block) -> bool:
    """Nilpotency of a cyclic block: inertial index 1."""
    D = defect_group(B)
    if not is_cyclic(D):
        raise NotCyclicDefect("nilpotency test implemented for cyclic defect only")
    e, _b0, _t = inertial_index(B)
    return e == 1


# -- Brauer trees -------------------------------------------------------------


class BrauerTree:
    """Vertices: non-exceptional characters plus one exceptional vertex."""

    def __init__(self, data: CyclicBlockData, vertices, edges, theta, alternatives=0):
        self.data = data
        self.vertices = tuple(vertices)          # char index or EXCEPTIONAL
        self.edges = tuple(edges)                # pairs (u, v), canonical order
        self.theta = theta                       # vertex -> restriction row
        self.multiplicity = data.multiplicity
        #: other spanning trees that also satisfied every character-level
        #: check (ordinary data can genuinely underdetermine the tree);
        #: the lexicographically least candidate is the one selected
        self.alternatives = alternatives

    def neighbors(self, v):
        out = []
        for a, b in self.edges:
            if a == v:
                out.append(b)
            elif b == v:
                out.append(a)
        return out

    def __repr__(self):
        return f"<Brauer tree: {len(self.vertices)} vertices, edges {list(self.edges)}>"


def _vertex_key(v):
    return (1, 0) if v == EXCEPTIONAL else (0, v)


def _edge_key(edge):
    return tuple(sorted((_vertex_key(edge[0]), _vertex_key(edge[1]))))


def _is_spanning_tree(vertices, edges) -> bool:
    if len(edges) != len(vertices) - 1:
        return False
    reach = {vertices[0]}
    frontier = [vertices[0]]
    while frontier:
        v = frontier.pop()
        for a, b in edges:
            w = b if a == v else a if b == v else None
            if w is not None and w not in reach:
                reach.add(w)
                frontier.append(w)
    return len(reach) == len(vertices)


def _forced_edge_functions(vertices, edges, theta):
    """Leaf-peel the tree; edge functions or None if inconsistent.

    Each vertex's restriction must equal the sum of its incident edge
    functions, and every edge function must have positive integral degree.
    """
    residual = {v: list(theta[v]) for v in vertices}
    remaining_edges = set(range(len(edges)))
    incident = {v: {i for i, ed in enumerate(edges) if v in ed} for v in vertices}
    alive = set(vertices)
    phi: dict[int, tuple] = {}
    while remaining_edges:
        leaf = next((v for v in sorted(alive, key=_vertex_key)
                     if len(incident[v] & remaining_edges) == 1), None)
        if leaf is None:
            return None
        i = next(iter(incident[leaf] & remaining_edges))
        value = tuple(residual[leaf])
        head = value[0]
        if not (head.is_rational() and head.as_fraction().denominator == 1
                and head.as_fraction() > 0):
            return None
        phi[i] = value
        u, v = edges[i]
        other = v if u == leaf else u
        residual[other] = [a - b for a, b in zip(residual[other], value)]
        residual[leaf] = [x - x for x in value]
        remaining_edges.discard(i)
        alive.discard(leaf)
    for v in vertices:
        if any(not x.is_zero() for x in residual[v]):
            return None
    return phi


def brauer_tree(B: Block, data: CyclicBlockData | None = None) -> BrauerTree:
    """Reconstruct the Brauer tree of a cyclic block from character data."""
    if data is None:
        data = analyze_cyclic_block(B)
    T, p = B.table, B.p
    vertices = sorted(data.nonexceptional) + [EXCEPTIONAL]
    regular = p_regular_classes(T, p)
    singular = p_singular_classes(T, p)
    if not singular:
        raise InternalInconsistency("positive-defect block with no p-singular classes")

    def full_row(v):
        if v == EXCEPTIONAL:
            row = [CycNum.zero()] * T.k
            for i in data.exceptional:
                row = [a + b for a, b in zip(row, T.characters[i])]
            return tuple(row)
        return T.characters[v]

    rows = {v: full_row(v) for v in vertices}
    # reconstruction target per vertex: the restriction of one member (for the
    # exceptional vertex all m members share it); the vanishing test below
    # uses the full exceptional sum, which is the projective-character side
    theta = {v: tuple(rows[v][j] for j in regular) for v in vertices}
    theta[EXCEPTIONAL] = tuple(T.characters[data.exceptional[0]][j] for j in regular)

    candidates = []
    for u, v in itertools.combinations(vertices, 2):
        if all((rows[u][j] + rows[v][j]).is_zero() for j in singular):
            candidates.append((u, v))
    candidates.sort(key=_edge_key)
    e = data.e
    if len(candidates) < e:
        raise NotATree(f"vanishing graph has only {len(candidates)} edges, need {e}")

    passing = []
    for combo in itertools.combinations(range(len(candidates)), e):
        edges = [candidates[i] for i in combo]
        if not _is_spanning_tree(vertices, edges):
            continue
        if _forced_edge_functions(vertices, edges, theta) is not None:
            passing.append(edges)
    if not passing:
        raise NotATree("no spanning tree of the vanishing graph is consistent")
    passing.sort(key=lambda edges: [_edge_key(ed) for ed in edges])
    return BrauerTree(data, vertices, passing[0], theta, alternatives=len(passing) - 1)


# -- unitriangular labeling and the decomposition matrix ------------------------


class DecompositionMatrix:
    """Rows: non-exceptional characters in label order, then exceptional ones."""

    def __init__(self, tree: BrauerTree, vertex_labels, edge_labels, row_chars, rows):
        self.tree = tree
        self.vertex_labels = dict(vertex_labels)   # vertex -> 1..e+1
        self.edge_labels = dict(edge_labels)       # edge index in tree.edges -> 1..e
        self.row_chars = tuple(row_chars)          # char index per row
        self.rows = tuple(tuple(r) for r in rows)  # 0/1 entries

    @property
    def e(self) -> int:
        return self.tree.data.e

    def cartan_matrix(self):
        e = self.e
        cols = list(zip(*self.rows))
        return [[sum(a * b for a, b in zip(cols[i], cols[j])) for j in range(e)]
                for i in range(e)]

    def cartan_determinant(self) -> int:
        mat = [[Fraction(x) for x in row] for row in self.cartan_matrix()]
        n = len(mat)
        det = Fraction(1)
        for c in range(n):
            sel = next((r for r in range(c, n) if mat[r][c]), None)
            if sel is None:
                return 0
            if sel != c:
                mat[c], mat[sel] = mat[sel], mat[c]
                det = -det
            det *= mat[c][c]
            inv = 1 / mat[c][c]
            for r in range(c + 1, n):
                if mat[r][c]:
                    f = mat[r][c] * inv
                    mat[r] = [a - f * b for a, b in zip(mat[r], mat[c])]
        assert det.denominator == 1
        return int(det)


def unitriangular_labeling(tree: BrauerTree) -> DecompositionMatrix:
    """Label the tree so edge i joins vertex i to a vertex i' > i.

    Root at the exceptional vertex (label e+1), then hand out 1..e in
    decreasing-depth order: every non-root vertex labels its parent edge,
    and parents sit strictly higher.
    """
    data = tree.data
    e = data.e
    depth = {EXCEPTIONAL: 0}
    parent: dict = {}
    frontier = [EXCEPTIONAL]
    while frontier:
        v = frontier.pop(0)
        for w in sorted(tree.neighbors(v), key=_vertex_key):
            if w not in depth:
                depth[w] = depth[v] + 1
                parent[w] = v
                frontier.append(w)
    if len(depth) != len(tree.vertices):
        raise NotATree("tree is not connected")
    ordered = sorted((v for v in tree.vertices if v != EXCEPTIONAL),
                     key=lambda v: (-depth[v], _vertex_key(v)))
    vertex_labels = {v: i + 1 for i, v in enumerate(ordered)}
    vertex_labels[EXCEPTIONAL] = e + 1
    edge_labels = {}
    for v in ordered:
        idx = next(i for i, ed in enumerate(tree.edges)
                   if set(ed) == {v, parent[v]})
        edge_labels[idx] = vertex_labels[v]
    for idx, lab in edge_labels.items():
        u, v = tree.edges[idx]
        hi = max(vertex_labels[u], vertex_labels[v])
        lo = min(vertex_labels[u], vertex_labels[v])
        if lo != lab or hi <= lab:
            raise InternalInconsistency("labeling violates the climbing rule")

    incidence = {}
    for v in tree.vertices:
        row = [0] * e
        for idx, ed in enumerate(tree.edges):
            if v in ed:
                row[edge_labels[idx] - 1] = 1
        incidence[v] = row

    by_label = sorted((v for v in tree.vertices if v != EXCEPTIONAL),
                      key=lambda v: vertex_labels[v])
    row_chars = list(by_label) + list(data.exceptional)
    rows = [incidence[v] for v in by_label]
    rows += [incidence[EXCEPTIONAL]] * len(data.exceptional)
    for i in range(e):
        if rows[i][i] != 1 or any(rows[i][j] for j in range(i + 1, e)):
            raise InternalInconsistency("decomposition matrix is not unitriangular")
    return DecompositionMatrix(tree, vertex_labels, edge_labels, row_chars, rows)


def derived_brauer_characters(B: Block, dmatrix: DecompositionMatrix):
    """Solve the unitriangular system for the irreducible Brauer characters.

    phi_j are integer combinations of restricted ordinary characters;
    every member's restriction must reconstruct from its row, and every
    phi_j must have positive degree.
    """
    T, p = B.table, B.p
    e = dmatrix.e
    restrictions = {i: restrict_to_p_regular(T.characters[i], T, p)
                    for i in dmatrix.row_chars}
    phi = []
    for i in range(e):
        chi = dmatrix.row_chars[i]
        vec = list(restrictions[chi])
        for j in range(i):
            if dmatrix.rows[i][j]:
                vec = [a - dmatrix.rows[i][j] * b for a, b in zip(vec, phi[j])]
        phi.append(tuple(vec))
    for j, f in enumerate(phi):
        head = f[0]
        if not (head.is_rational() and head.as_fraction().denominator == 1
                and head.as_fraction() > 0):
            raise NegativeDegree(f"derived Brauer character {j + 1} has degree {head!r}")
    for r, chi in enumerate(dmatrix.row_chars):
        combo = [CycNum.zero()] * len(phi[0])
        for j in range(e):
            if dmatrix.rows[r][j]:
                combo = [a + dmatrix.rows[r][j] * b for a, b in zip(combo, phi[j])]
        if tuple(combo) != restrictions[chi]:
            raise InternalInconsistency(
                f"restriction of character {chi} does not match its decomposition row")
    return phi
