"""Primality, factors and orders against trial division, brute force and known pseudoprimes."""

from math import gcd, prod

import pytest

from blocktool.arith import is_prime, multiplicative_order, prime_factors, primitive_root
from blocktool.errors import InvalidInput

#: The bound below which Miller-Rabin with the 13 prime bases 2..41 is proven exact.
BOUND = 3317044064679887385961981


def trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division_below_1e5():
    assert [n for n in range(10 ** 5) if is_prime(n)] == [
        n for n in range(10 ** 5) if trial_division(n)]


@pytest.mark.parametrize("n", [
    3825123056546413051,  # strong pseudoprime to every prime base up to 31
    318665857834031151167461,  # strong pseudoprime to every prime base up to 37
    (10 ** 9 + 7) * (10 ** 9 + 9),
    BOUND - 1,
])
def test_is_prime_rejects_composites(n):
    assert not is_prime(n)


@pytest.mark.parametrize("n", [2, 3, 41, 43, 10 ** 9 + 7, 2 ** 61 - 1, 10 ** 18 + 3,
                               99999999999999999989])
def test_is_prime_accepts_primes(n):
    assert is_prime(n)


@pytest.mark.parametrize("n", [BOUND, 2 ** 89 - 1])
def test_is_prime_refuses_to_guess_beyond_the_bound(n):
    with pytest.raises(InvalidInput):
        is_prime(n)


# -- orders and factors -------------------------------------------------------------------


def brute_prime_factors(n):
    return tuple(d for d in range(2, n + 1) if n % d == 0 and trial_division(d))


def brute_order(a, n):
    d, x = 1, a % n
    while x != 1 % n:
        x, d = x * a % n, d + 1
    return d


def test_prime_factors_match_brute_force_below_2000():
    for n in range(1, 2000):
        assert prime_factors(n) == brute_prime_factors(n), n


def test_multiplicative_order_matches_brute_force_below_2000():
    for n in range(1, 2000):
        for a in {1, 2, 3, 10, n - 1, n // 2 + 1, 7 * n // 11}:
            if a > 0 and gcd(a, n) == 1:
                assert multiplicative_order(a, n) == brute_order(a, n), (a, n)


@pytest.mark.parametrize("factors", [
    (1009, 1013),  # both just above the trial-division bound
    (1009, 1009 ** 2),  # a prime power above the bound
    (2, 3, 17, 131, 1427, 52445056723),  # 10^18 + 2
    (274177, 67280421310721),  # 2^64 + 1
    (10 ** 9 + 7, 10 ** 9 + 9),
])
def test_prime_factors_split_large_cofactors(factors):
    assert prime_factors(prod(factors)) == tuple(sorted(f for f in set(factors) if is_prime(f)))


def test_orders_modulo_a_huge_prime():
    p = 10 ** 18 + 3
    assert multiplicative_order(2, p) == p - 1
    g = primitive_root(p)
    assert all(pow(g, (p - 1) // q, p) != 1 for q in prime_factors(p - 1))
    assert multiplicative_order(pow(g, 6, p), p) == (p - 1) // 6
