"""Cyclic-Sylow criteria for simple groups of Lie type (cross-characteristic).

Pure arithmetic: for each supported series the criterion conjoins a lower
bound on p with a divisibility condition on the order d of q (or -q)
modulo p. The divisibility clause is the part that predicts Sylow
cyclicity, which the optional cross-check exercises against a shipped
permutation realization.
"""

from __future__ import annotations

from math import prod

from . import arith
from .arith import multiplicative_order
from .errors import InvalidInput, RealizationMismatch, UnsupportedSeries
from .permcore import PermGroup, _check_order, is_cyclic, sylow_subgroup

SERIES = ("A", "2A", "B", "C", "D", "2D", "3D4", "E6", "2E6", "E7")

_FIXED_RANK = {"3D4": 4, "E6": 6, "2E6": 6, "E7": 7}
_MIN_RANK = {"A": 2, "2A": 2, "B": 2, "C": 2, "D": 4, "2D": 4}


class LieTypeCase:
    """One (series, rank, q, p) instance with validated parameters."""

    def __init__(self, series: str, n: int | None, q: int, p: int):
        if series not in SERIES:
            raise UnsupportedSeries(f"unknown series {series!r}")
        if series in _FIXED_RANK:
            fixed = _FIXED_RANK[series]
            if n is None:
                n = fixed
            if n != fixed:
                raise UnsupportedSeries(f"series {series} has rank {fixed}, got n = {n}")
        else:
            if n is None:
                raise UnsupportedSeries(f"series {series} needs a rank n")
            if n < _MIN_RANK[series]:
                raise UnsupportedSeries(
                    f"series {series} is supported for n >= {_MIN_RANK[series]} only")
        if not arith.is_prime_power(q):
            raise InvalidInput(f"q = {q} is not a prime power")
        if not arith.is_prime(p):
            raise InvalidInput(f"p = {p} is not prime")
        if q % p == 0:
            raise InvalidInput("p must differ from the defining characteristic")
        self.series = series
        self.n = n
        self.q = q
        self.p = p

    def __repr__(self):
        return f"LieTypeCase({self.series}, n={self.n}, q={self.q}, p={self.p})"


def _divisor_multiset(case: LieTypeCase) -> list[int]:
    n = case.n
    if case.series in ("A", "2A"):
        return list(range(2, n + 2))
    if case.series in ("B", "C"):
        return list(range(2, 2 * n + 1, 2))
    if case.series == "D":
        return list(range(2, 2 * n - 1, 2)) + [n]
    if case.series == "2D":
        return list(range(2, 2 * n - 1, 2)) + [2 * n]
    raise UnsupportedSeries(f"series {case.series} has no divisor set")


def cyclic_sylow_criterion(case: LieTypeCase) -> dict:
    """Evaluate the series condition; returns the full explanation record."""
    p, q, n = case.p, case.q, case.n
    record = {"series": case.series, "n": n, "q": q, "p": p}
    if case.series in ("A", "2A", "B", "C", "D", "2D"):
        base = -q if case.series == "2A" else q
        d = multiplicative_order(base, p)
        divisors = _divisor_multiset(case)
        divides = [x for x in divisors if x % d == 0]
        bound = n + 1 if case.series in ("A", "2A") else n
        record.update({
            "d": d,
            "order_of": "-q" if case.series == "2A" else "q",
            "set": divisors,
            "divides": divides,
            "rank_condition": p > bound,
            "divisibility": len(divides) == 1,
        })
    else:
        d = multiplicative_order(q, p)
        if case.series == "3D4":
            poly, bound = q ** 4 - 1, 5
            condition = "p does not divide q^4 - 1"
        else:
            poly = (q ** 4 - 1) * (q ** 6 - 1)
            bound = 11 if case.series == "E7" else 7
            condition = "p does not divide (q^4 - 1)(q^6 - 1)"
        record.update({
            "d": d,
            "order_of": "q",
            "set": [],
            "divides": [],
            "condition": condition,
            "rank_condition": p >= bound,
            "divisibility": poly % p != 0,
        })
    record["criterion"] = record["rank_condition"] and record["divisibility"]
    return record


def simple_group_order(case: LieTypeCase) -> int:
    """Order of the simple group for the series (classical formulas)."""
    from math import gcd

    n, q = case.n, case.q
    s = case.series
    if s == "A":
        return (q ** (n * (n + 1) // 2)
                * prod(q ** i - 1 for i in range(2, n + 2))) // gcd(n + 1, q - 1)
    if s == "2A":
        return (q ** (n * (n + 1) // 2)
                * prod(q ** i - (-1) ** i for i in range(2, n + 2))) // gcd(n + 1, q + 1)
    if s in ("B", "C"):
        return (q ** (n * n)
                * prod(q ** (2 * i) - 1 for i in range(1, n + 1))) // gcd(2, q - 1)
    if s == "D":
        return (q ** (n * (n - 1)) * (q ** n - 1)
                * prod(q ** (2 * i) - 1 for i in range(1, n))) // gcd(4, q ** n - 1)
    if s == "2D":
        return (q ** (n * (n - 1)) * (q ** n + 1)
                * prod(q ** (2 * i) - 1 for i in range(1, n))) // gcd(4, q ** n + 1)
    if s == "3D4":
        return q ** 12 * (q ** 8 + q ** 4 + 1) * (q ** 6 - 1) * (q ** 2 - 1)
    if s == "E6":
        return (q ** 36 * prod(q ** i - 1 for i in (2, 5, 6, 8, 9, 12))) // gcd(3, q - 1)
    if s == "2E6":
        return (q ** 36 * (q ** 2 - 1) * (q ** 5 + 1) * (q ** 6 - 1) * (q ** 8 - 1)
                * (q ** 9 + 1) * (q ** 12 - 1)) // gcd(3, q + 1)
    if s == "E7":
        return (q ** 63 * prod(q ** i - 1 for i in (2, 6, 8, 10, 12, 14, 18))) // gcd(2, q - 1)
    raise UnsupportedSeries(s)


def cross_check_small_instance(case: LieTypeCase, G: PermGroup, max_order=None) -> dict:
    """Check the divisibility clause predicts Sylow p-cyclicity in a realization.

    The Sylow climb scans the whole group, so |G| must be within max_order.
    """
    expected = simple_group_order(case)
    if G.order() != expected:
        raise RealizationMismatch(
            f"|G| = {G.order()} but the {case.series}_{case.n}({case.q}) order is {expected}")
    record = cyclic_sylow_criterion(case)
    _check_order(G, max_order)
    S = sylow_subgroup(G, case.p)
    record["sylow_order"] = S.order
    record["sylow_cyclic"] = is_cyclic(S)
    record["consistent"] = (not record["divisibility"]) or record["sylow_cyclic"]
    return record
