"""Cyclotomic arithmetic: canonical form, Galois maps, star reduction."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from blocktool.arith import is_prime, multiplicative_order
from blocktool.cyclo import (
    CycNum,
    _ff_poly_divides,
    _lex_least_cyclotomic_factor,
    cyclotomic_polynomial,
    galois_apply,
    is_p_rational_value_set,
    reduce_mod_p,
    star_reduction,
)
from blocktool.errors import InvalidGaloisParameter, NotAnAlgebraicInteger


def zeta(m, k=1):
    return CycNum.zeta(m, k)


# -- canonical form and basic identities -------------------------------------


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_minimal_polynomial_relation():
    # z5 + z5^2 + z5^3 + z5^4 = -1
    total = zeta(5) + zeta(5, 2) + zeta(5, 3) + zeta(5, 4)
    assert total == CycNum.rational(-1)
    assert total.m == 1


def test_golden_ratio_product():
    # (z5 + z5^4)(z5^2 + z5^3) = -1
    a = zeta(5) + zeta(5, 4)
    b = zeta(5, 2) + zeta(5, 3)
    assert a * b == CycNum.rational(-1)


def test_identity_and_zero():
    x = zeta(7) + 2
    assert CycNum.one() * x == x
    assert x + CycNum.zero() == x
    assert x - x == CycNum.zero()
    assert (x - x).is_zero()


def test_conductor_descent_to_subfield():
    # z6 has conductor 3 (z6 = -z3^2)
    z6 = zeta(6)
    assert z6.m == 3
    # z8^2 lands at conductor 4
    assert zeta(8, 2).m == 4
    # mixed-conductor equality is structural after canonicalization
    assert zeta(10, 2) == zeta(5)
    assert hash(zeta(10, 2)) == hash(zeta(5))


def test_inverse():
    a = zeta(5) + 1
    assert a * a.inverse() == CycNum.one()
    assert (1 / a) * a == CycNum.one()
    with pytest.raises(ZeroDivisionError):
        CycNum.zero().inverse()


def test_rational_fast_paths():
    assert CycNum.rational(Fraction(7, 3)).as_fraction() == Fraction(7, 3)
    assert (zeta(5) * 0).is_zero()


# -- galois -------------------------------------------------------------------


def test_galois_direct_substitution():
    a = zeta(5) + zeta(5, 4)
    assert galois_apply(a, 2) == zeta(5, 2) + zeta(5, 3)


def test_galois_fixes_rationals():
    r = CycNum.rational(Fraction(7, 3))
    assert galois_apply(r, 5) == r


def test_galois_identity():
    a = zeta(7, 3) + 2 * zeta(7)
    assert galois_apply(a, 1) == a


def test_galois_requires_coprime():
    with pytest.raises(InvalidGaloisParameter):
        galois_apply(zeta(10), 5)


@given(st.integers(1, 11), st.integers(1, 11),
       st.lists(st.tuples(st.integers(0, 11), st.integers(-3, 3)), max_size=4))
@settings(max_examples=60, deadline=None)
def test_galois_composition(t1, t2, terms):
    m = 12
    from math import gcd
    if gcd(t1, m) != 1 or gcd(t2, m) != 1:
        return
    a = CycNum(m, {k % m: c for k, c in terms})
    lifted = CycNum(m, dict(a.terms)) if a.m == m else a
    assert galois_apply(galois_apply(lifted, t1), t2) == galois_apply(lifted, (t1 * t2) % m)


# -- field axioms on random samples ---------------------------------------------


small_cycs = st.builds(
    lambda terms: CycNum(12, {k: Fraction(num, den) for (k, num, den) in terms}),
    st.lists(st.tuples(st.integers(0, 11), st.integers(-4, 4), st.integers(1, 3)), max_size=3),
)


@given(small_cycs, small_cycs, small_cycs)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(small_cycs)
@settings(max_examples=40, deadline=None)
def test_field_inverse_axiom(a):
    if not a.is_zero():
        assert a * a.inverse() == CycNum.one()


@given(small_cycs)
@settings(max_examples=40, deadline=None)
def test_serialization_round_trip(a):
    assert CycNum.from_obj(a.to_obj()) == a


# -- p-rationality ----------------------------------------------------------------


def test_p_rationality_rational_values():
    vals = [CycNum.rational(3), CycNum.rational(Fraction(-1, 2))]
    assert is_p_rational_value_set(vals, 7, 30)


def test_p_rationality_zeta5_at_p5():
    assert not is_p_rational_value_set([zeta(5)], 5, 5)


def test_p_rationality_sqrt5_at_p2():
    # values in Q(sqrt 5) inside Q(zeta5): the 2-part of m = 5 is 1, vacuous
    sqrt5_like = zeta(5) + zeta(5, 4)  # (sqrt5 - 1)/2 up to rational shift
    assert is_p_rational_value_set([sqrt5_like], 2, 5)
    # but at p = 5 those values are moved by the Galois action
    assert not is_p_rational_value_set([sqrt5_like], 5, 5)


def test_p_rationality_mixed_m():
    # zeta3 is 5-rational inside exponent 15, but not 3-rational
    assert is_p_rational_value_set([zeta(3)], 5, 15)
    assert not is_p_rational_value_set([zeta(3)], 3, 15)


# -- star reduction ------------------------------------------------------------------


def test_reduce_integer_mod_5():
    assert reduce_mod_p(CycNum.rational(7), 5, 5) == star_reduction(5, 5).one() * 2


def test_reduce_zeta5_pair_mod_5():
    # Phi_5 = (x-1)^4 mod 5, so zeta5 -> 1 and z5 + z5^4 -> 2
    val = reduce_mod_p(zeta(5) + zeta(5, 4), 5, 5)
    assert val == star_reduction(5, 5).one() * 2


def test_reduce_requires_integrality():
    with pytest.raises(NotAnAlgebraicInteger):
        reduce_mod_p(CycNum.rational(Fraction(1, 2)), 5, 5)


def test_reduction_homomorphism_laws():
    import random

    rng = random.Random(7)
    ctx = star_reduction(5, 30)
    samples = []
    for _ in range(8):
        samples.append(CycNum(30, {rng.randrange(30): rng.randrange(-4, 5) for _ in range(3)}))
    for a in samples:
        for b in samples:
            assert ctx.reduce(a + b) == ctx.reduce(a) + ctx.reduce(b)
            assert ctx.reduce(a * b) == ctx.reduce(a) * ctx.reduce(b)


def test_reduction_sends_p_power_roots_to_one():
    ctx = star_reduction(3, 12)
    # zeta_3 is in the p-power part for p = 3: maps to 1
    assert ctx.reduce(zeta(3)) == ctx.one()
    # zeta_4 has 3'-order: maps to a primitive 4th root, so its square is -1
    w = ctx.reduce(zeta(4))
    assert w * w == ctx.one() * (-1)


def test_finite_field_arithmetic():
    ctx = star_reduction(2, 21)  # F_2[x]/(g), deg g = ord_21(2) = 6
    assert ctx.modulus[-1] == 1 and len(ctx.modulus) == 7
    w = ctx.root_powers[1]
    assert w ** 21 == ctx.one()
    assert (w + w).is_zero()


def test_star_context_deterministic():
    a = star_reduction(7, 84)
    b = star_reduction(7, 84)
    assert a is b
    assert a.modulus == StarReductionModulusRecomputed(7, 84)


def StarReductionModulusRecomputed(p, m):
    from blocktool.cyclo import StarReduction

    return StarReduction(p, m).modulus


@given(small_cycs, small_cycs)
@settings(max_examples=60, deadline=None)
def test_canonical_equality_matches_coordinate_comparison(a, b):
    # equality, the zero test of the difference, and raw coordinate
    # comparison over a common conductor must all agree
    from math import lcm

    structural = a == b
    difference = (a - b).is_zero()
    m = lcm(a.m, b.m)
    coords_a = {k * (m // a.m): c for k, c in a.terms}
    coords_b = {k * (m // b.m): c for k, c in b.terms}
    raw = CycNum(m, coords_a) == CycNum(m, coords_b)
    assert structural == difference == raw


# -- the lex-least factor of Phi_m' over F_p -----------------------------------------


def linear_factor_by_scan(p, m):
    """Oracle: the least a in 0..p-1 with x + a dividing Phi_m over F_p."""
    phi = cyclotomic_polynomial(m)
    return next((a, 1) for a in range(p) if _ff_poly_divides((a, 1), phi, p))


def test_linear_factor_from_roots_matches_the_scan():
    cases = [(p, m) for p in range(3, 200) if is_prime(p) for m in range(1, 31)
             if m % p and multiplicative_order(p, m) == 1]
    assert len(cases) > 100
    for p, m in cases:
        assert _lex_least_cyclotomic_factor(p, m) == linear_factor_by_scan(p, m), (p, m)


@pytest.mark.parametrize("p, m", [(10 ** 18 + 3, 6), (10 ** 18 + 3, 12),
                                  (99999999999999999989, 6), (99999999999999999989, 5)])
def test_factor_for_huge_primes_divides_phi(p, m):
    factor = _lex_least_cyclotomic_factor(p, m)
    assert len(factor) - 1 == multiplicative_order(p, m)
    assert factor[-1] == 1 and _ff_poly_divides(factor, cyclotomic_polynomial(m), p)
