"""Exact arithmetic in cyclotomic fields Q(zeta_m).

Elements are stored canonically: at their minimal conductor (never 2 mod 4),
with rational coordinates over the power basis zeta^0..zeta^(phi(m)-1)
reduced modulo the m-th cyclotomic polynomial. Canonical storage makes
structural equality coincide with field equality, even across values built
in different ambient fields.

The module also provides the reduction map onto a finite field containing
a primitive root of unity of p'-order (characters of p-blocks live there):
zeta_m maps to a fixed root of the lexicographically least irreducible
factor of Phi_{m_p'} over F_p, with the p-power part of zeta_m sent to 1.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .arith import euler_phi, multiplicative_order, p_part, prime_factors
from .errors import (
    InternalInconsistency,
    InvalidGaloisParameter,
    NotAnAlgebraicInteger,
)

# -- integer polynomial helpers (ascending coefficient tuples) --------------


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m, ascending degree."""
    if m == 1:
        return (-1, 1)
    # (x^m - 1) / prod_{d | m, d < m} Phi_d, exact integer division
    num = [0] * (m + 1)
    num[0], num[m] = -1, 1
    for d in range(1, m):
        if m % d == 0:
            num = _poly_div_exact(num, cyclotomic_polynomial(d))
    return tuple(num)


def _poly_div_exact(num, den):
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        q, r = divmod(c, den[dd])
        if r:
            raise InternalInconsistency("non-exact polynomial division")
        out[i - dd] = q
        for j, dj in enumerate(den):
            num[i - dd + j] -= q * dj
    if any(num):
        raise InternalInconsistency("non-exact polynomial division")
    return out


@lru_cache(maxsize=None)
def _power_table(m: int) -> tuple[tuple[int, ...], ...]:
    """x^k mod Phi_m for 0 <= k < m, as integer coordinate rows."""
    phi = euler_phi(m)
    poly = cyclotomic_polynomial(m)
    # x^phi = -(c_0 + ... + c_{phi-1} x^{phi-1})
    top = tuple(-c for c in poly[:phi])
    rows = []
    cur = [1] + [0] * (phi - 1)
    for _k in range(m):
        rows.append(tuple(cur))
        lead = cur[-1]
        cur = [0] + cur[:-1]
        if lead:
            cur = [c + lead * t for c, t in zip(cur, top)]
    return tuple(rows)


@lru_cache(maxsize=None)
def _fix_subgroup_generators(m: int, d: int) -> tuple[int, ...]:
    """Generators of {t in (Z/m)* : t = 1 mod d}."""
    members = [t for t in range(1, m + 1) if gcd(t, m) == 1 and t % d == 1 % d]
    gens: list[int] = []
    span = {1 % m}
    for t in members:
        if t in span:
            continue
        gens.append(t)
        span = {1 % m}
        frontier = [1 % m]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = x * g % m
                if y not in span:
                    span.add(y)
                    frontier.append(y)
    return tuple(gens)


@lru_cache(maxsize=None)
def _descent_solver(m: int, d: int):
    """Data to rewrite a Q(zeta_d) element from zeta_m coords to zeta_d coords.

    Returns (pivots, inverse rows) of the phi(m) x phi(d) basis-change
    matrix M whose columns are zeta_d^j expressed over the zeta_m basis.
    """
    phi_m, phi_d = euler_phi(m), euler_phi(d)
    table = _power_table(m)
    step = m // d
    cols = [table[(j * step) % m] for j in range(phi_d)]
    mat = [[Fraction(cols[j][i]) for j in range(phi_d)] for i in range(phi_m)]
    # Gaussian elimination with original-row tracking: the selected pivot rows
    # of the original matrix form an invertible phi(d) x phi(d) submatrix.
    work = [(row[:], i) for i, row in enumerate(mat)]
    pivots = []
    r = 0
    for col in range(phi_d):
        sel = next((rr for rr in range(r, phi_m) if work[rr][0][col] != 0), None)
        if sel is None:
            raise InternalInconsistency("basis-change matrix is rank-deficient")
        work[r], work[sel] = work[sel], work[r]
        pivots.append(work[r][1])
        inv = 1 / work[r][0][col]
        work[r] = ([v * inv for v in work[r][0]], work[r][1])
        for rr in range(phi_m):
            if rr != r and work[rr][0][col] != 0:
                f = work[rr][0][col]
                work[rr] = ([a - f * b for a, b in zip(work[rr][0], work[r][0])], work[rr][1])
        r += 1
    square = [[mat[i][j] for j in range(phi_d)] for i in pivots]
    inverse = _invert_matrix(square)
    return tuple(pivots), tuple(tuple(row) for row in inverse)


def _invert_matrix(mat):
    n = len(mat)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(mat)]
    for c in range(n):
        sel = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[sel] = aug[sel], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [v * inv for v in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


class CycNum:
    """An element of some Q(zeta_m), kept in canonical minimal form."""

    __slots__ = ("m", "terms")

    def __init__(self, m: int, coeffs):
        """coeffs: mapping exponent -> rational (any exponents, any conductor m)."""
        m2, terms = _normalize(m, dict((k, Fraction(v)) for k, v in dict(coeffs).items()))
        object.__setattr__(self, "m", m2)
        object.__setattr__(self, "terms", terms)

    @classmethod
    def _trusted(cls, m, terms):
        self = object.__new__(cls)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "terms", terms)
        return self

    # -- constructors -----------------------------------------------------

    @classmethod
    def rational(cls, value) -> "CycNum":
        value = Fraction(value)
        return cls._trusted(1, ((0, value),) if value else ())

    @classmethod
    def zeta(cls, m: int, k: int = 1) -> "CycNum":
        return cls(m, {k % m: Fraction(1)})

    @classmethod
    def zero(cls) -> "CycNum":
        return cls.rational(0)

    @classmethod
    def one(cls) -> "CycNum":
        return cls.rational(1)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return self.m == 1

    def is_integral(self) -> bool:
        """True iff an algebraic integer (integral power-basis coordinates)."""
        return all(c.denominator == 1 for _k, c in self.terms)

    def as_fraction(self) -> Fraction:
        if self.m != 1:
            raise ValueError(f"{self!r} is not rational")
        return self.terms[0][1] if self.terms else Fraction(0)

    # -- arithmetic -----------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, CycNum):
            return x
        if isinstance(x, (int, Fraction)):
            return CycNum.rational(x)
        return NotImplemented

    def _lift_pair(self, other):
        m = self.m * other.m // gcd(self.m, other.m)
        return m, _lift_terms(self, m), _lift_terms(other, m)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        m, a, b = self._lift_pair(other)
        for k, c in b.items():
            a[k] = a.get(k, Fraction(0)) + c
        return CycNum(m, a)

    __radd__ = __add__

    def __neg__(self):
        return CycNum._trusted(self.m, tuple((k, -c) for k, c in self.terms))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        m, a, b = self._lift_pair(other)
        out: dict[int, Fraction] = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = (k1 + k2) % m
                out[k] = out.get(k, Fraction(0)) + c1 * c2
        return CycNum(m, out)

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        """Multiplicative inverse via the extended Euclid algorithm mod Phi_m."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        if self.m == 1:
            return CycNum.rational(1 / self.as_fraction())
        phi = euler_phi(self.m)
        a = [Fraction(0)] * phi
        for k, c in self.terms:
            a[k] = c
        modulus = [Fraction(c) for c in cyclotomic_polynomial(self.m)]
        s = _poly_modular_inverse(a, modulus)
        return CycNum(self.m, dict(enumerate(s)))

    def __pow__(self, k: int) -> "CycNum":
        if k < 0:
            return self.inverse() ** (-k)
        out = CycNum.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    # -- Galois ------------------------------------------------------------------

    def galois(self, t: int) -> "CycNum":
        """Apply zeta_m -> zeta_m^t; requires gcd(t, m) = 1."""
        t %= self.m
        if gcd(t, self.m) != 1:
            raise InvalidGaloisParameter(f"t = {t} is not coprime to the conductor {self.m}")
        return CycNum(self.m, {(k * t) % self.m: c for k, c in self.terms})

    def conjugate(self) -> "CycNum":
        return self.galois(-1 % self.m) if self.m > 1 else self

    # -- ordering / identity -------------------------------------------------------

    def sort_key(self) -> tuple:
        return (self.m, tuple((k, c.numerator, c.denominator) for k, c in self.terms))

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.m == other.m and self.terms == other.terms

    def __hash__(self):
        return hash((self.m, self.terms))

    def __repr__(self):
        if self.is_zero():
            return "0"
        if self.m == 1:
            return str(self.as_fraction())
        bits = []
        for k, c in self.terms:
            z = f"z{self.m}" + (f"^{k}" if k > 1 else "") if k else ""
            bits.append(f"{c}*{z}" if z else str(c))
        return " + ".join(bits)

    # -- serialization -----------------------------------------------------------------

    def to_obj(self):
        return {"m": self.m, "terms": [[k, c.numerator, c.denominator] for k, c in self.terms]}

    @classmethod
    def from_obj(cls, obj) -> "CycNum":
        return cls(obj["m"], {k: Fraction(num, den) for k, num, den in obj["terms"]})


def _lift_terms(a: CycNum, m: int) -> dict[int, Fraction]:
    step = m // a.m
    return {k * step: c for k, c in a.terms}


def _normalize(m: int, coeffs: dict) -> tuple[int, tuple]:
    """Reduce to the power basis mod Phi_m, then descend to minimal conductor."""
    phi = euler_phi(m)
    table = _power_table(m)
    vec = [Fraction(0)] * phi
    for k, c in coeffs.items():
        if not c:
            continue
        row = table[k % m]
        for i, r in enumerate(row):
            if r:
                vec[i] += c * r
    # rational fast path
    if all(v == 0 for v in vec[1:]):
        return 1, (((0, vec[0]),) if vec[0] else ())
    while True:
        for q in prime_factors(m):
            d = m // q
            if d >= 1 and _is_fixed(m, d, vec):
                vec = _rewrite(m, d, vec)
                m = d
                phi = euler_phi(m)
                break
        else:
            break
        if all(v == 0 for v in vec[1:]):
            return 1, (((0, vec[0]),) if vec[0] else ())
    return m, tuple((k, c) for k, c in enumerate(vec) if c)


def _is_fixed(m: int, d: int, vec) -> bool:
    table = _power_table(m)
    phi = euler_phi(m)
    for t in _fix_subgroup_generators(m, d):
        out = [Fraction(0)] * phi
        for k, c in enumerate(vec):
            if not c:
                continue
            row = table[(k * t) % m]
            for i, r in enumerate(row):
                if r:
                    out[i] += c * r
        if out != list(vec):
            return False
    return True


def _rewrite(m: int, d: int, vec):
    # solvability is guaranteed: _is_fixed already certified membership in
    # Q(zeta_d), so the pivot solve returns the (unique) coordinate vector
    pivots, inverse = _descent_solver(m, d)
    rhs = [vec[i] for i in pivots]
    return [sum(row[j] * rhs[j] for j in range(len(rhs))) for row in inverse]


def _deg(f) -> int:
    """Degree of an ascending coefficient list that may carry zero padding; -1 for 0."""
    d = len(f) - 1
    while d >= 0 and f[d] == 0:
        d -= 1
    return d


def _poly_modular_inverse(a, modulus):
    """Inverse of a mod an irreducible rational polynomial, both ascending lists."""
    def divmod_(num, den):
        num = list(num)
        dd = _deg(den)
        out = [Fraction(0)] * max(_deg(num) - dd + 1, 1)
        for i in range(_deg(num), dd - 1, -1):
            if num[i] == 0:
                continue
            q = num[i] / den[dd]
            out[i - dd] = q
            for j in range(dd + 1):
                num[i - dd + j] -= q * den[j]
        return out, num

    r0, r1 = list(modulus), list(a)
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while _deg(r1) > 0:
        q, r = divmod_(r0, r1)
        r0, r1 = r1, r
        qs = _poly_mul(q, s1)
        s0, s1 = s1, [x - y for x, y in itertools.zip_longest(s0, qs, fillvalue=Fraction(0))]
    if _deg(r1) != 0:
        raise ZeroDivisionError("element is zero modulo the cyclotomic polynomial")
    c = r1[_deg(r1)]
    return [x / c for x in s1]


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] += x * y
    return out


# -- function-style entry points ---------------------------------------------


def galois_apply(a: CycNum, t: int) -> CycNum:
    """Field automorphism zeta_m -> zeta_m^t (t coprime to the conductor)."""
    return a.galois(t)


def is_p_rational_value_set(values, p: int, m: int) -> bool:
    """True iff all values lie in the p'-root-of-unity subfield Q(zeta_{m_p'}).

    Tested per definition: fixedness under every Galois map t = 1 (mod m_p'),
    t running over the units congruent to 1 mod the p'-part of m.
    """
    m_pp = m // p_part(m, p)
    ts = [t for t in range(1, m + 1) if gcd(t, m) == 1 and t % m_pp == 1 % m_pp]
    for value in values:
        for t in ts:
            if value.galois(t % value.m if value.m > 1 else 1) != value:
                return False
    return True


# -- finite fields and the star reduction -----------------------------------


class FiniteFieldElem:
    """Element of F_p[x]/(g), coordinates ascending."""

    __slots__ = ("p", "modulus", "coords")

    def __init__(self, p: int, modulus: tuple[int, ...], coords):
        self.p = p
        self.modulus = modulus
        coords = [c % p for c in coords]
        coords += [0] * (len(modulus) - 1 - len(coords))
        self.coords = tuple(coords[: len(modulus) - 1])

    @property
    def degree(self) -> int:
        return len(self.modulus) - 1

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def _check(self, other):
        if self.p != other.p or self.modulus != other.modulus:
            raise InternalInconsistency("finite-field elements from different reductions")

    def __add__(self, other):
        self._check(other)
        return FiniteFieldElem(self.p, self.modulus, [a + b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return FiniteFieldElem(self.p, self.modulus, [-a for a in self.coords])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return FiniteFieldElem(self.p, self.modulus, [a * other for a in self.coords])
        self._check(other)
        return FiniteFieldElem(self.p, self.modulus,
                               _ff_poly_mulmod(self.coords, other.coords, self.modulus, self.p))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return FiniteFieldElem(self.p, self.modulus,
                               _ff_poly_powmod(self.coords, k, self.modulus, self.p))

    def __eq__(self, other):
        return (isinstance(other, FiniteFieldElem) and self.p == other.p
                and self.modulus == other.modulus and self.coords == other.coords)

    def __hash__(self):
        return hash((self.p, self.modulus, self.coords))

    def __repr__(self):
        return f"FF{self.p}^{self.degree}{list(self.coords)}"

    def to_obj(self):
        return list(self.coords)


def _ff_reduce(raw, modulus, p):
    raw = [c % p for c in raw]
    d = len(modulus) - 1
    for i in range(len(raw) - 1, d - 1, -1):
        c = raw[i]
        if c == 0:
            continue
        raw[i] = 0
        for j in range(d + 1):
            raw[i - d + j] = (raw[i - d + j] - c * modulus[j]) % p
    return raw[:d]


def _ff_poly_divides(den, num, p):
    """Does monic den divide num over F_p? Both ascending int tuples."""
    num = [c % p for c in num]
    dd = len(den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        num[i] = 0
        for j in range(dd):
            num[i - dd + j] = (num[i - dd + j] - c * den[j]) % p
    return all(c == 0 for c in num)


def _ff_poly_mulmod(a, b, modulus, p):
    raw = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                raw[i + j] = (raw[i + j] + x * y) % p
    return tuple(_ff_reduce(raw, modulus, p))


def _ff_poly_powmod(base, exponent, modulus, p):
    out = (1,) + (0,) * (len(modulus) - 2)
    base = tuple(_ff_reduce(list(base), modulus, p))
    while exponent:
        if exponent & 1:
            out = _ff_poly_mulmod(out, base, modulus, p)
        base = _ff_poly_mulmod(base, base, modulus, p)
        exponent >>= 1
    return out


def _ff_poly_gcd(a, b, p):
    a = [c % p for c in a]
    b = [c % p for c in b]
    while _deg(b) >= 0:
        db, lead_inv = _deg(b), pow(b[_deg(b)], -1, p)
        for i in range(_deg(a), db - 1, -1):
            c = a[i]
            if c == 0:
                continue
            f = c * lead_inv % p
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - f * b[j]) % p
        a, b = b, a
    return a[: _deg(a) + 1] if _deg(a) >= 0 else [0]


def _monic_gcd(a, b, p):
    g = _ff_poly_gcd(a, b, p)
    inv = pow(g[-1], -1, p)
    return [c * inv % p for c in g]


def _poly_quotient(num, den, p):
    """num / den over F_p, for a monic den that divides num."""
    num = list(num)
    dd = len(den) - 1
    q = [0] * (len(num) - dd)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = num[i + dd]
        if c:
            for j, dj in enumerate(den):
                num[i + j] = (num[i + j] - c * dj) % p
    return q


def _roots_mod(f, p):
    """Distinct roots, sorted, in F_p of a monic f (p odd, or f with at most one root).

    Coefficients are ascending. g = gcd(f, x^p - x) is the product of the
    distinct linear factors of f. Each factor of g of degree > 1 is split
    by its gcd with (x + a)^((p-1)/2) - 1, whose roots are the r with r + a
    a nonzero square, trying a = 0, 1, 2, ... until the split is proper.
    """
    frob = list(_ff_poly_powmod((0, 1), p, f, p)) + [0, 0]  # pad: f may be linear
    frob[1] -= 1
    pending = [_monic_gcd(f, frob, p)]
    roots = []
    while pending:
        g = pending.pop()
        if len(g) == 2:
            roots.append(-g[0] % p)
        if len(g) <= 2:
            continue
        for a in range(p):
            half = list(_ff_poly_powmod((a, 1), (p - 1) // 2, g, p))
            half[0] -= 1
            h = _monic_gcd(g, half, p)
            if 1 < len(h) < len(g):
                pending.extend((h, _poly_quotient(g, h, p)))
                break
    return sorted(roots)


def _small_tuples(p: int, r: int):
    """Every r-tuple over 0..p-1 once, by increasing largest entry (p may be huge)."""
    for top in range(p):
        for t in itertools.product(range(top + 1), repeat=r):
            if top in t:
                yield t


def _small_irreducible(p: int, r: int) -> tuple[int, ...]:
    """A monic irreducible of degree r over F_p (ascending), small coefficients first.

    f is irreducible iff x^(p^r) = x (mod f) and x^(p^(r/q)) - x is coprime
    to f for every prime q dividing r. Any one will do: it only fixes a
    model of F_{p^r}, and minimal polynomials over F_p do not depend on it.
    """
    x = ((0, 1) + (0,) * (r - 2))[:r]
    for t in _small_tuples(p, r):
        f = t[::-1] + (1,)  # the constant term varies fastest
        if f[0] == 0:  # divisible by x
            continue
        if _ff_poly_powmod(x, p ** r, f, p) != tuple(_ff_reduce(list(x), f, p)):
            continue
        for q in prime_factors(r):
            frob = _ff_poly_powmod(x, p ** (r // q), f, p)
            diff = [(a - b) % p for a, b in zip(frob, _ff_reduce(list(x), f, p))]
            if len(_ff_poly_gcd(diff, list(f), p)) > 1:
                break
        else:
            return f
    raise InternalInconsistency(f"no irreducible polynomial of degree {r} over F_{p}")


def _lex_least_cyclotomic_factor(p: int, mprime: int) -> tuple[int, ...]:
    """Lex-least irreducible factor of Phi_mprime over F_p.

    All factors share degree r = ord_mprime(p); they are the minimal
    polynomials of the primitive mprime-th roots of unity in F_{p^r}, one
    per Frobenius orbit, so the search is polynomial rather than an
    enumeration of all monic degree-r polynomials. For r = 1 the factors
    are the x - rho over the roots rho of Phi_mprime in F_p (for p = 2 only
    Phi_1, which needs no splitting), and the lex-least one has the least
    constant term -rho mod p.
    """
    r = multiplicative_order(p, mprime)
    phi = cyclotomic_polynomial(mprime)
    if r == 1:
        roots = _roots_mod([c % p for c in phi], p)
        if len(roots) != len(phi) - 1:
            raise InternalInconsistency("cyclotomic polynomial does not split into linear factors")
        return (min(-rho % p for rho in roots), 1)
    field_modulus = _small_irreducible(p, r)
    unit_order = p ** r - 1
    cofactor = unit_order // mprime
    root = None
    # any primitive root gives the same factors: try small coordinates first
    for candidate in _small_tuples(p, r):
        if not any(candidate):
            continue
        w = _ff_poly_powmod(candidate, cofactor, field_modulus, p)
        if all(c == 0 for c in w):
            continue
        if any(_ff_poly_powmod(w, mprime // q, field_modulus, p) == (1,) + (0,) * (r - 1)
               for q in prime_factors(mprime)):
            continue
        root = w
        break
    if root is None:
        raise InternalInconsistency("no primitive root of unity found")
    # minimal polynomial over F_p of w^j for each Frobenius orbit of exponents
    best = None
    seen = set()
    for j in range(1, mprime):
        if gcd(j, mprime) != 1 or j in seen:
            continue
        orbit = []
        jj = j
        while jj not in orbit:
            orbit.append(jj)
            seen.add(jj)
            jj = jj * p % mprime
        if len(orbit) != r:
            raise InternalInconsistency("Frobenius orbit has unexpected length")
        # product of (X - w^jj) over the orbit, coefficients in F_{p^r}
        zero = (0,) * r
        one = (1,) + (0,) * (r - 1)
        poly = [one]
        for jj in orbit:
            wj = _ff_poly_powmod(root, jj, field_modulus, p)
            neg = tuple((-c) % p for c in wj)
            new = [zero] * (len(poly) + 1)
            for k, coeff in enumerate(poly):
                new[k + 1] = tuple((a + b) % p for a, b in zip(new[k + 1], coeff))
                new[k] = tuple((a + b) % p
                               for a, b in zip(new[k], _ff_poly_mulmod(coeff, neg, field_modulus, p)))
            poly = new
        flat = []
        for coeff in poly:
            if any(coeff[1:]):
                raise InternalInconsistency("minimal polynomial has coefficients outside F_p")
            flat.append(coeff[0])
        factor = tuple(flat)
        if factor[-1] != 1:
            raise InternalInconsistency("minimal polynomial is not monic")
        if best is None or factor < best:
            best = factor
    if best is None or not _ff_poly_divides(best, phi, p):
        raise InternalInconsistency("factor search failed")
    return best


class StarReduction:
    """The reduction map onto k for a fixed (p, m): session data shared read-only.

    zeta_m maps to w^u where w is the chosen primitive m_p'-th root (a root
    of the lex-least irreducible factor g of Phi_{m_p'} over F_p) and
    u = (p-part of m)^(-1) mod m_p'; the p-power part of zeta_m maps to 1.
    """

    def __init__(self, p: int, m: int):
        self.p = p
        self.m = m
        self.m_p = p_part(m, p)
        self.m_pp = m // self.m_p
        if self.m_pp == 1:
            self.modulus = (-1 % p, 1)
        else:
            self.modulus = _lex_least_cyclotomic_factor(p, self.m_pp)
        self.u = pow(self.m_p, -1, self.m_pp) if self.m_pp > 1 else 0
        w = FiniteFieldElem(p, self.modulus, [0, 1] if len(self.modulus) > 2 else [1 % p])
        if len(self.modulus) == 2:
            # degree-1 modulus g = x - root: w is the root itself
            w = FiniteFieldElem(p, self.modulus, [(-self.modulus[0]) % p])
        self.root_powers = [FiniteFieldElem(p, self.modulus, [1])]
        for _ in range(1, max(self.m_pp, 1)):
            self.root_powers.append(self.root_powers[-1] * w)

    def zero(self) -> FiniteFieldElem:
        return FiniteFieldElem(self.p, self.modulus, [0])

    def one(self) -> FiniteFieldElem:
        return FiniteFieldElem(self.p, self.modulus, [1])

    def reduce(self, a: CycNum) -> FiniteFieldElem:
        """Image of an algebraic integer under the star map."""
        if self.m % a.m != 0:
            raise InternalInconsistency(
                f"value conductor {a.m} does not divide the session conductor {self.m}")
        if not a.is_integral():
            raise NotAnAlgebraicInteger(f"{a!r} has non-integral coordinates")
        step = self.m // a.m
        out = self.zero()
        for k, c in a.terms:
            exp = (self.u * (k * step)) % self.m_pp if self.m_pp > 1 else 0
            out = out + self.root_powers[exp] * (c.numerator % self.p)
        return out


@lru_cache(maxsize=None)
def star_reduction(p: int, m: int) -> StarReduction:
    return StarReduction(p, m)


def reduce_mod_p(a: CycNum, p: int, m: int) -> FiniteFieldElem:
    """The map * for the session pair (p, m)."""
    return star_reduction(p, m).reduce(a)
