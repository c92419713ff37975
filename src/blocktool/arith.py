"""Small exact number-theory helpers.

is_prime is deterministic Miller-Rabin; prime_factors trial-divides by small
numbers and splits what is left with Brent's variant of Pollard's rho, so
orders modulo huge primes come from the factors of p - 1.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .errors import InvalidInput, NotCoprime

#: Miller-Rabin with the first 13 primes as bases decides primality exactly
#: below this bound (Sorenson and Webster, Math. Comp. 86, 2017). Base 41 is
#: needed: 318665857834031151167461 is a strong pseudoprime to bases 2..37.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; InvalidInput where its bases are not proven exact."""
    if n < 2:
        return False
    if n >= _MR_EXACT_BELOW:
        raise InvalidInput(f"{n} is beyond the deterministic primality bound {_MR_EXACT_BELOW}")
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


#: prime_factors trial-divides below this bound, then uses Pollard-Brent rho.
_TRIAL_BOUND = 1000


@lru_cache(maxsize=None)
def prime_factors(n: int) -> tuple[int, ...]:
    """Distinct prime divisors of n, ascending."""
    out = []
    d = 2
    while d * d <= n and d < _TRIAL_BOUND:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    return tuple(out) + (tuple(sorted(_large_prime_factors(n))) if n > 1 else ())


def _large_prime_factors(n: int) -> set[int]:
    """Distinct prime divisors of n > 1, which has none below _TRIAL_BOUND."""
    if n < _TRIAL_BOUND ** 2 or is_prime(n):
        return {n}
    d = _pollard_brent(n)
    return _large_prime_factors(d) | _large_prime_factors(n // d)


def _pollard_brent(n: int) -> int:
    """A proper divisor of an odd composite n (Brent, BIT 20, 1980); deterministic."""
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batched product overshot: step back one at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ValueError(f"{n} is not an odd composite")


def factorization(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for p in prime_factors(n):
        out[p] = v_p(n, p)
    return out


def is_prime_power(n: int) -> bool:
    return n > 1 and len(prime_factors(n)) == 1


def v_p(n: int, p: int) -> int:
    """p-adic valuation of n (n != 0)."""
    if n == 0:
        raise ValueError("valuation of zero")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def p_part(n: int, p: int) -> int:
    return p ** v_p(n, p)


def p_prime_part(n: int, p: int) -> int:
    return abs(n) // p_part(n, p)


def euler_phi(n: int) -> int:
    out = n
    for p in prime_factors(n):
        out = out // p * (p - 1)
    return out


def multiplicative_order(a: int, n: int) -> int:
    """Least d >= 1 with a^d == 1 (mod n); requires gcd(a, n) == 1."""
    a %= n
    if gcd(a, n) != 1:
        raise NotCoprime(f"{a} is not invertible modulo {n}")
    d = euler_phi(n)  # a multiple of the order: divide it down prime by prime
    for q in prime_factors(d):
        while d % q == 0 and pow(a, d // q, n) == 1:
            d //= q
    return d


def primitive_root(p: int) -> int:
    """Least primitive root modulo a prime p."""
    if p == 2:
        return 1
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in prime_factors(p - 1)):
            return g
    raise ValueError(f"{p} is not prime")
