"""Primality: deterministic Miller-Rabin against trial division and known pseudoprimes."""

import pytest

from blocktool.arith import is_prime
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
