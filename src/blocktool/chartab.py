"""Ordinary character tables via Dixon-Schneider, plus fusion/restriction.

The table is computed over F_l for a prime l = 1 (mod exponent), by
simultaneous diagonalization of the class-sum matrices, and the entries are
lifted back to exact cyclotomic numbers by Fourier inversion over the
eigenvalues of each class representative. Everything downstream (blocks,
trees, weights) consumes the exact lifted values only.

The splitting follows Schneider (J. Symbolic Comput. 9, 1990):

* a class matrix A_i is built only while some common eigenspace is still
  unsplit, taking the classes in order of increasing size, from the
  members of K_i against the k class representatives (never all of G);
* the eigenvalues of A_i on a space are the roots in F_l of the
  characteristic polynomial of its restriction (Hessenberg form, then
  gcd with x^l - x), so a kernel is computed only at actual eigenvalues.

Validation stays exact and checks both orthogonality relations for every
pair of rows and of columns, plus the degree sum and degree divisibility.
It lifts every value once to integer coordinates in Z[x]/(x^e - 1) and
accepts a sum only if Phi_e divides its difference from the expected
integer; no cyclotomic number is built or normalized per product.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import itemgetter

from .arith import euler_phi, is_prime, prime_factors, primitive_root
from .cyclo import CycNum, _power_table, _roots_mod
from .errors import InternalInconsistency, InvalidInput, NotASubgroup
from .permcore import (
    CosetAction,
    PermGroup,
    SubgroupHandle,
    class_members,
    class_of,
    conjugacy_classes,
)


class CharacterTable:
    """Exact ordinary character table with canonical class/character order."""

    def __init__(self, group: PermGroup, classes, exponent: int, power_maps, characters):
        self.group = group
        self.classes = tuple(classes)
        self.exponent = exponent
        self.power_maps = dict(power_maps)
        self.characters = tuple(tuple(row) for row in characters)
        self._partitions = {}  # (p, conductor) -> BlockPartition, owned by block_partition

    @property
    def k(self) -> int:
        return len(self.classes)

    @property
    def order(self) -> int:
        return self.group.order()

    def degree(self, i: int) -> int:
        return int(self.characters[i][0].as_fraction())

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(self.degree(i) for i in range(self.k))

    def value(self, i: int, j: int) -> CycNum:
        return self.characters[i][j]

    def inner(self, row_a, row_b) -> CycNum:
        """<a, b> = (1/|G|) sum_K |K| a(K) conj(b(K)); rows may be indices."""
        if isinstance(row_a, int):
            row_a = self.characters[row_a]
        if isinstance(row_b, int):
            row_b = self.characters[row_b]
        total = CycNum.zero()
        for c, va, vb in zip(self.classes, row_a, row_b):
            total = total + va * vb.conjugate() * c.size
        return total * Fraction(1, self.order)

    def row_index(self, values) -> int:
        values = tuple(values)
        for i, row in enumerate(self.characters):
            if row == values:
                return i
        raise InternalInconsistency("value vector does not match any table row")


# -- Dixon-Schneider -----------------------------------------------------------


def character_table(G: PermGroup, max_order=None) -> CharacterTable:
    """Compute (and cache on the group) the exact character table."""
    if G._chartab is not None:
        return G._chartab
    classes = conjugacy_classes(G, max_order)
    k = len(classes)
    exponent = lcm(*(c.element_order for c in classes))
    if k == 1:
        table = CharacterTable(G, classes, 1, {}, [(CycNum.one(),)])
    else:
        table = _dixon_schneider(G, classes, exponent)
    _validate_table(table)
    G._chartab = table
    return table


def _choose_modulus(m: int, order: int) -> int:
    ell = m + 1
    while True:
        if is_prime(ell) and order % ell != 0 and ell * ell > 4 * order:
            return ell
        ell += m
    # unreachable


def _dixon_schneider(G: PermGroup, classes, exponent: int) -> CharacterTable:
    k = len(classes)
    order = G.order()
    cls_of = G._class_of
    reps = [c.representative for c in classes]
    ell = _choose_modulus(exponent, order)

    # split F_l^k into common eigenspaces of the commuting class matrices A_i,
    # building each A_i only while some space is still unsplit; small classes
    # are the cheapest, and the identity class (A_0 = I) splits nothing
    spaces = [_echelon([tuple(int(r == c) for c in range(k)) for r in range(k)], ell)]
    for i in sorted(range(1, k), key=lambda i: classes[i].size):
        if all(len(s[0]) == 1 for s in spaces):
            break
        A = _class_matrix(G, i, reps)
        new_spaces = []
        for space in spaces:
            if len(space[0]) == 1:
                new_spaces.append(space)
                continue
            new_spaces.extend(_split_space(space, A, ell))
        spaces = new_spaces
    if len(spaces) != k:
        raise InternalInconsistency("eigenspace splitting did not separate all characters")

    inv_class = [cls_of[r.inverse().images] for r in reps]
    sizes = [c.size for c in classes]
    zroot = pow(primitive_root(ell), (ell - 1) // exponent, ell)
    # classes of rep^0, ..., rep^(o-1) for each class, shared by every row
    power_classes = [[cls_of[(rep ** s).images] for s in range(c.element_order)]
                     for rep, c in zip(reps, classes)]

    rows = []
    for space in spaces:
        u = list(space[0][0])
        u = [(x * pow(u[0], -1, ell)) % ell for x in u]  # omega(identity class) = 1
        denom = sum(u[l] * u[inv_class[l]] * pow(sizes[l], -1, ell) for l in range(k)) % ell
        dsq = order * pow(denom, -1, ell) % ell
        degree = next(d for d in range(1, isqrt(order) + 1) if d * d % ell == dsq)
        vals_mod = [degree * u[j] * pow(sizes[j], -1, ell) % ell for j in range(k)]
        row = [None] * k
        for j in range(k):
            o = classes[j].element_order
            eta = pow(zroot, exponent // o, ell)
            powers = [vals_mod[c] for c in power_classes[j]]
            o_inv = pow(o, -1, ell)
            coeffs = {}
            for c in range(o):
                n_c = o_inv * sum(powers[s] * pow(eta, (-c * s) % o, ell) for s in range(o)) % ell
                if n_c > degree:
                    raise InternalInconsistency("root-of-unity multiplicity exceeds the degree")
                if n_c:
                    coeffs[c] = n_c
            # build at the element-order conductor: values then canonicalize
            # inside Q(zeta_o) instead of descending from the group exponent
            row[j] = CycNum(o, coeffs)
        rows.append(tuple(row))

    rows.sort(key=_row_key)
    power_maps = {
        q: tuple(cls_of[(rep ** q).images] for rep in reps) for q in prime_factors(exponent)
    }
    return CharacterTable(G, classes, exponent, power_maps, rows)


def _row_key(row):
    """Canonical character order: by degree, then by the whole value row."""
    return (row[0].sort_key(), [v.sort_key() for v in row])


def _class_matrix(G: PermGroup, i: int, reps):
    """A_i[j][l] = #{x in K_i : x^-1 z_l in K_j}, from the members of K_i only.

    K_i K_j = sum_l A_i[j][l] K_l, so the central character omega of each
    irreducible is a common eigenvector: A_i omega = omega(K_i) omega.
    """
    k = len(reps)
    cls_of = G._class_of
    A = [[0] * k for _ in range(k)]
    rep_images = [z.images for z in reps]
    for x in class_members(G, i):
        xinv_times = itemgetter(*x.inverse().images)  # degree >= 2: G is nontrivial
        for l, z in enumerate(rep_images):
            A[cls_of[xinv_times(z)]][l] += 1
    return A


def _validate_table(T: CharacterTable):
    """Both orthogonality relations for every pair, degree sum, counts; exact.

    Each value is lifted once to integer (or, for an invalid table, rational)
    coordinates in Z[x]/(x^e - 1), e the lcm of the exponent and all value
    conductors. A sum of products is accumulated there, and it equals an
    integer n in Q(zeta_e) exactly when Phi_e divides (sum - n), because
    Z[x]/(x^e - 1) -> Q(zeta_e) is a ring map.
    """
    k = T.k
    if len(T.characters) != k:
        raise InternalInconsistency("character count differs from class count")
    if sum(T.degree(i) ** 2 for i in range(T.k)) != T.order:
        raise InternalInconsistency("degree squares do not sum to |G|")
    if not (isinstance(T.exponent, int) and T.exponent > 0):
        raise InternalInconsistency("table exponent is not a positive integer")
    e = lcm(T.exponent, *(v.m for row in T.characters for v in row))
    lifted = [[_lift_coords(v, e) for v in row] for row in T.characters]
    sizes = [c.size for c in T.classes]
    for i in range(k):
        if T.order % T.degree(i) != 0:
            raise InternalInconsistency("character degree does not divide |G|")
        for j in range(i, k):
            total = _sum_times_conjugates(lifted[i], lifted[j], sizes, e)
            if not _equals_integer(total, T.order if i == j else 0, e):
                raise InternalInconsistency(f"row orthogonality fails at ({i}, {j})")
    columns = list(zip(*lifted))
    ones = [1] * k
    for a in range(k):
        for b in range(a, k):
            total = _sum_times_conjugates(columns[a], columns[b], ones, e)
            centralizer_order = T.order // T.classes[a].size
            if not _equals_integer(total, centralizer_order if a == b else 0, e):
                raise InternalInconsistency(f"column orthogonality fails at ({a}, {b})")


def _lift_coords(v: CycNum, e: int):
    """(exponent of zeta_e, coefficient) pairs of v; integral coefficients as int."""
    step = e // v.m
    return tuple((t * step, c.numerator if c.denominator == 1 else c) for t, c in v.terms)


def _sum_times_conjugates(xs, ys, weights, e: int) -> dict:
    """sum_l weights[l] * xs[l] * conj(ys[l]) in Z[x]/(x^e - 1), as exponent -> coefficient."""
    total: dict = {}
    for x, y, w in zip(xs, ys, weights):
        for s, c in x:
            for t, d in y:
                key = (s - t) % e
                total[key] = total.get(key, 0) + w * c * d
    return total


def _equals_integer(poly: dict, n: int, e: int) -> bool:
    """True iff Phi_e divides poly(x) - n, i.e. poly(zeta_e) = n."""
    diff = dict(poly)
    diff[0] = diff.get(0, 0) - n
    support = [t for t, c in diff.items() if c]
    if not support:
        return True
    # diff(x) = Q(x^step) with zeta_e^step a primitive m-th root: reduce Q mod Phi_m
    step = gcd(e, *support)
    m = e // step
    table = _power_table(m)
    coords = [0] * euler_phi(m)
    for t in support:
        c = diff[t]
        for idx, r in enumerate(table[t // step]):
            if r:
                coords[idx] += c * r
    return not any(coords)


# -- F_l linear algebra -------------------------------------------------------


def _echelon(vectors, ell):
    """Reduced echelon basis (rows, pivots) of the span of the vectors."""
    rows: list[list[int]] = []
    pivots: list[int] = []
    for v in vectors:
        v = list(v)
        for row, piv in zip(rows, pivots):
            if v[piv]:
                f = v[piv]
                v = [(a - f * b) % ell for a, b in zip(v, row)]
        piv = next((i for i, a in enumerate(v) if a), None)
        if piv is None:
            continue
        inv = pow(v[piv], -1, ell)
        v = [a * inv % ell for a in v]
        for r, (row, p2) in enumerate(zip(rows, pivots)):
            if row[piv]:
                f = row[piv]
                rows[r] = [(a - f * b) % ell for a, b in zip(row, v)]
        rows.append(v)
        pivots.append(piv)
    order = sorted(range(len(rows)), key=lambda r: pivots[r])
    return ([tuple(rows[r]) for r in order], [pivots[r] for r in order])


def _coords_in(space, v, ell):
    rows, pivots = space
    v = list(v)
    out = []
    for row, piv in zip(rows, pivots):
        c = v[piv]
        out.append(c)
        if c:
            v = [(a - c * b) % ell for a, b in zip(v, row)]
    if any(v):
        raise InternalInconsistency("vector left the invariant subspace")
    return out


def _matvec(A, v, ell):
    k = len(v)
    return tuple(sum(A[j][l] * v[l] for l in range(k)) % ell for j in range(k))


def _kernel(M, ell):
    """Kernel basis of a square matrix over F_l."""
    d = len(M)
    rows = [list(r) for r in M]
    pivots = {}
    r = 0
    for c in range(d):
        sel = next((rr for rr in range(r, d) if rows[rr][c] % ell), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = pow(rows[r][c], -1, ell)
        rows[r] = [a * inv % ell for a in rows[r]]
        for rr in range(d):
            if rr != r and rows[rr][c] % ell:
                f = rows[rr][c]
                rows[rr] = [(a - f * b) % ell for a, b in zip(rows[rr], rows[r])]
        pivots[c] = r
        r += 1
    free = [c for c in range(d) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * d
        v[fc] = 1
        for c, rr in pivots.items():
            v[c] = (-rows[rr][fc]) % ell
        basis.append(tuple(v))
    return basis


def _split_space(space, A, ell):
    """Eigenspaces of A on an A-invariant space, in increasing eigenvalue order.

    Eigenvalues are the roots in F_l of the characteristic polynomial of A
    restricted to the space; only those get a kernel computation.
    """
    rows, _pivots = space
    d = len(rows)
    imgs = [_coords_in(space, _matvec(A, b, ell), ell) for b in rows]
    M = [[imgs[r][s] for r in range(d)] for s in range(d)]
    out = []
    total = 0
    for lam in _roots_mod(_charpoly(M, ell), ell):
        shifted = [[(M[s][r] - (lam if s == r else 0)) % ell for r in range(d)] for s in range(d)]
        ker = _kernel(shifted, ell)
        vecs = []
        for coeffs in ker:
            v = [0] * len(rows[0])
            for c, row in zip(coeffs, rows):
                if c:
                    v = [(a + c * b) % ell for a, b in zip(v, row)]
            vecs.append(tuple(v))
        out.append(_echelon(vecs, ell))
        total += len(ker)
    if total != d:
        raise InternalInconsistency("class-sum matrix is not diagonalizable mod l")
    return out


def _charpoly(M, ell):
    """det(x I - M) over F_l, ascending coefficients, via Hessenberg reduction."""
    n = len(M)
    H = [list(row) for row in M]
    # similarity transforms to upper Hessenberg form (Cohen, GTM 138, 2.2.9)
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if H[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            H[piv], H[m] = H[m], H[piv]
            for row in H:
                row[piv], row[m] = row[m], row[piv]
        inv = pow(H[m][m - 1], -1, ell)
        for i in range(m + 1, n):
            f = H[i][m - 1] * inv % ell
            if f:
                H[i] = [(a - f * b) % ell for a, b in zip(H[i], H[m])]
                for row in H:
                    row[m] = (row[m] + f * row[i]) % ell
    # p_i = det(x I - H[:i, :i]);
    # p_{m+1} = (x - h_mm) p_m - sum_{i<m} h_im (h_{i+1,i} h_{i+2,i+1} ... h_{m,m-1}) p_i
    polys = [[1]]
    for m in range(n):
        p = [0] + polys[m]
        for t, c in enumerate(polys[m]):
            p[t] = (p[t] - H[m][m] * c) % ell
        sub = 1
        for i in range(m - 1, -1, -1):
            sub = sub * H[i + 1][i] % ell
            f = H[i][m] * sub % ell
            if f:
                for t, c in enumerate(polys[i]):
                    p[t] = (p[t] - f * c) % ell
        polys.append(p)
    return polys[n]


# -- fusion / restriction -------------------------------------------------------


class ClassFusion:
    """Total map from the classes of a subgroup into the classes of G."""

    def __init__(self, subgroup: SubgroupHandle, group: PermGroup, mapping):
        self.subgroup = subgroup
        self.group = group
        self.mapping = tuple(mapping)

    def __getitem__(self, i: int) -> int:
        return self.mapping[i]

    def __len__(self):
        return len(self.mapping)


def class_fusion(H: SubgroupHandle, G: PermGroup) -> ClassFusion:
    """Fuse each H-class into the unique G-class containing it."""
    for g in H.generators:
        if g not in G:
            raise NotASubgroup("fusion source is not a subgroup")
    h_classes = conjugacy_classes(H.group)
    mapping = [class_of(G, c.representative) for c in h_classes]
    return ClassFusion(H, G, mapping)


def restrict(row, fusion: ClassFusion):
    """Restriction of a G-class function along a fusion, as an H-class row."""
    return tuple(row[g_idx] for g_idx in fusion.mapping)


def p_regular_classes(T: CharacterTable, p: int) -> tuple[int, ...]:
    """Indices of classes whose element order is coprime to p."""
    return tuple(i for i, c in enumerate(T.classes) if c.element_order % p != 0)


def p_singular_classes(T: CharacterTable, p: int) -> tuple[int, ...]:
    return tuple(i for i, c in enumerate(T.classes) if c.element_order % p == 0)


def restrict_to_p_regular(row, T: CharacterTable, p: int):
    """The map chi -> chi^0: values on the p-regular classes only."""
    if isinstance(row, int):
        row = T.characters[row]
    regular = p_regular_classes(T, p)
    return tuple(row[j] for j in regular)


# -- quotient groups -------------------------------------------------------------


def quotient_class_map(action: CosetAction, T: CharacterTable, TQ: CharacterTable):
    """Class map G -> G/N induced by a coset action: class index to class index."""
    return tuple(
        class_of(TQ.group, action.project(c.representative)) for c in T.classes)


def inflate_row(row_on_quotient, qmap):
    """Inflation of a quotient-class function to a G-class function."""
    return tuple(row_on_quotient[qj] for qj in qmap)


def ingest_table(G: PermGroup, classes, exponent, power_maps, characters) -> CharacterTable:
    """Build a table from external data, re-validating it, and make it G's table.

    Rows must be in canonical order (_row_key): indices are positions in it.
    """
    T = CharacterTable(G, classes, exponent, power_maps, characters)
    try:
        _validate_table(T)
    except InternalInconsistency as exc:
        raise InvalidInput(f"ingested character table is invalid: {exc}") from exc
    keys = [_row_key(row) for row in T.characters]
    if keys != sorted(keys):
        raise InvalidInput("ingested character table rows are not in canonical order")
    G._chartab = T
    return T
