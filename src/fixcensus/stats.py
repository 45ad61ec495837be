"""Empirical average and density tables for the integer-coefficient maps.

For integer c, the fixed-point count of z -> z^d + c on F_p is controlled by
divisibility: which small primes divide c, c - 1 or c + 1.  The tables here
make that quantitative at desk scale, summing exact counts over qualifying
primes (averages) or counting qualifying primes directly (densities).  No
table enumerates primes where number theory gives the answer: the
prime-power count has a closed form, prime_count gives pi(x) without a
prime list, and the dividing primes are the prime factors of one integer.
Everything is exact rational arithmetic via Fraction; floats appear only
when a renderer formats a ratio.

Prime floors: the prime-power family starts at p = 3 and the pminus1 family
at p = 5, matching the smallest primes the counting claims cover.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterable
from fractions import Fraction
from typing import NamedTuple

from . import dynamics
from .dynamics import DEFAULT_EXP_CAP, Family
from .ff import DEFAULT_FIELD_CAP, DEFAULT_SIEVE_CAP, ArgumentError, CapError, _Label, _prime_factors, standard_field

__all__ = [
    "DEFAULT_SIEVE_CAP",
    "SieveCapError",
    "check_sieve_cap",
    "Selector",
    "DensityKind",
    "AverageRow",
    "DensityRow",
    "prime_sieve",
    "prime_count",
    "average_report",
    "density_table",
]


class SieveCapError(CapError):
    """An integer-side size exceeds the sieve cap."""


def check_sieve_cap(size: int, sieve_cap: int, what: str = "sieve limit") -> None:
    """The integer-side cap rule, the one place a size meets sieve_cap.

    The sizes are sieve limits (prime_sieve, the avg targets, the density
    bounds, nf's certificate and trial-division primes) and counts of c
    (what names them); each is refused above the cap before any work.
    """
    if size > sieve_cap:
        raise SieveCapError(f"{what} {size} exceeds the cap {sieve_cap}")


class Selector(_Label):
    """Which primes qualify for an average at bound c."""

    DIVIDES_C = "p|c"
    DIVIDES_C_MINUS_1 = "p|c-1"
    DIVIDES_C_PLUS_1 = "p|c+1"
    NOT_DIVIDES_C = "p!|c"


class DensityKind(_Label):
    """Predicted-count classes whose prime densities are tabulated."""

    NC3 = "nc3"  # prime-power family, count 3: primes dividing c
    NC0 = "nc0"  # prime-power family, count 0: primes not dividing c
    MC2 = "mc2"  # pminus1 family, count 2: primes dividing c
    MC1 = "mc1"  # pminus1 family, count 1: primes dividing c - 1
    MC0 = "mc0"  # pminus1 family, count 0: primes dividing c + 1


class AverageRow(NamedTuple):
    """Average oracle count over the qualifying primes at one bound c."""

    c: int
    selector: Selector
    prime_floor: int
    numerator: int
    denominator: int
    ratio: Fraction | None

    def as_dict(self) -> dict:
        ratio = str(self.ratio) if self.ratio is not None else None
        return {**self._asdict(), "selector": self.selector.value, "ratio": ratio}


class DensityRow(NamedTuple):
    """Share of primes in [floor, c] meeting one divisibility condition."""

    c: int
    kind: DensityKind
    numerator: int
    denominator: int
    ratio: Fraction | None

    def as_dict(self) -> dict:
        ratio = str(self.ratio) if self.ratio is not None else None
        return {**self._asdict(), "kind": self.kind.value, "ratio": ratio}


def prime_sieve(limit: int, *, sieve_cap: int = DEFAULT_SIEVE_CAP) -> tuple[int, ...]:
    """All primes <= limit, ascending, once limit passes the cap.

    The tuple is memoized by limit and shared by every caller, so equal
    limits in one run sieve once and a lookup copies nothing.
    """
    check_sieve_cap(limit, sieve_cap)
    return _sieve(limit)


@functools.lru_cache(maxsize=8)
def _sieve(limit: int) -> tuple[int, ...]:
    # Eratosthenes on the odd numbers (mark[k] stands for 2k + 1)
    if limit < 2:
        return ()
    size = (limit + 1) // 2
    mark = bytearray([1]) * size
    mark[0] = 0
    for i in range(3, math.isqrt(limit) + 1, 2):
        if mark[i // 2]:
            mark[i * i // 2 :: i] = bytes(len(range(i * i // 2, size, i)))
    return (2, *itertools.compress(range(1, limit + 1, 2), mark))


def prime_count(x: int) -> int:
    """pi(x), the number of primes <= x, exactly and without a prime list.

    Lucy's recursion keeps S(v), the count of integers in [2, v] that no
    prime below the current p divides, for the O(sqrt x) values v = x // k,
    and removes the multiples of each prime p <= sqrt x in turn:
    S(v) -= S(v // p) - S(p - 1) for every v >= p^2.  O(x^(3/4)) steps.
    """
    if x < 2:
        return 0
    r = math.isqrt(x)
    small = [v - 1 for v in range(r + 1)]  # small[v] = S(v) for v <= r
    large = [0] + [x // k - 1 for k in range(1, r + 1)]  # large[k] = S(x // k)
    for p in range(2, r + 1):
        if small[p] == small[p - 1]:  # p was removed: not a prime
            continue
        below = small[p - 1]
        p2 = p * p
        for k in range(1, min(r, x // p2) + 1):
            kp = k * p
            large[k] -= (large[kp] if kp <= r else small[x // kp]) - below
        for v in range(r, p2 - 1, -1):
            small[v] -= small[v // p] - below
    return large[1]


def _primes_between(floor: int, bound: int) -> int:
    """The number of primes in [floor, bound]."""
    return prime_count(bound) - prime_count(floor - 1) if bound >= floor else 0


def _prime_power_count(p: int, n: int, ell: int, c: int) -> int:
    """Fixed points of z -> z^(p^ell) + c on F_{p^n}, c an integer, exactly.

    The integer-c case of the rule of dynamics' linear engine: the count is
    p^g, g = gcd(n, ell), when c lies in the image of Frob^ell - 1, which is
    the kernel of Tr_{n->g}, and 0 otherwise (Lidl & Niederreiter, Finite
    Fields, 2.3).  The trace of an integer c is (n/g) c, so no field is
    built: the count is p^g when p divides c (n/g).
    """
    g = math.gcd(n, ell)
    return p**g if c * (n // g) % p == 0 else 0


# Averages start at the smallest prime each family's claims cover.
_FLOOR = {Family.PRIME_POWER: 3, Family.P_MINUS_ONE: 5}

# Each selector's divisibility target is c shifted by this much; averages
# take the primes up to the target, densities the primes up to c.
_SHIFT = {Selector.DIVIDES_C_MINUS_1: -1, Selector.DIVIDES_C_PLUS_1: 1}


def average_report(
    family: Family,
    n: int,
    ell: int,
    selector: Selector,
    c_list: Iterable[int],
    *,
    field_cap: int = DEFAULT_FIELD_CAP,
    exp_cap: int = DEFAULT_EXP_CAP,
    sieve_cap: int = DEFAULT_SIEVE_CAP,
) -> list[AverageRow]:
    """Average fixed-point count of z^d + c on F_{p^n} over qualifying primes.

    For each c, every qualifying prime p contributes the fixed-point count
    with the integer c embedded mod p: _prime_power_count's closed form,
    which builds no field, or for pminus1 fixed_point_count's scan.  The
    sum and the prime count are kept separate so the ratio stays an exact
    rational; an empty qualifying set yields denominator 0 and no ratio
    rather than an error.  The qualifying primes are the prime factors of
    the selector's target; for p!|c they are counted by prime_count, and
    listed only where a count can be nonzero (prime-power) or is scanned
    (pminus1).
    """
    if family not in _FLOOR:
        raise ArgumentError("averages and densities are defined for the two named families")
    if n < 1 or ell < 1:
        raise ArgumentError(f"n = {n} and ell = {ell} must be at least 1")
    floor = _FLOOR[family]
    targets = [(c, c + _SHIFT.get(selector, 0)) for c in c_list]
    check_sieve_cap(max([0] + [t for _, t in targets]), sieve_cap)
    g = math.gcd(n, ell)

    def count(p: int, c: int) -> int:
        if family is Family.PRIME_POWER:
            return _prime_power_count(p, n, ell, c)
        d = dynamics.capped_degree(p, n, family, ell, field_cap=field_cap, exp_cap=exp_cap)
        return dynamics.fixed_point_count(standard_field(p, n), d, c, field_cap=field_cap, exp_cap=exp_cap)

    rows = []
    for c, target in targets:
        if selector is not Selector.NOT_DIVIDES_C:
            qual = _prime_factors(target, floor)
            denominator = len(qual)
        else:
            denominator = _primes_between(floor, c) - len(_prime_factors(c, floor))
            if family is Family.PRIME_POWER:  # p does not divide c, so the count needs p | n/g
                qual = [p for p in _prime_factors(n // g, floor) if p <= c and c % p]
            else:
                qual = [p for p in prime_sieve(c, sieve_cap=sieve_cap) if p >= floor and c % p]
        numerator = sum(count(p, c) for p in qual)
        ratio = Fraction(numerator, denominator) if denominator else None
        rows.append(AverageRow(c, selector, floor, numerator, denominator, ratio))
    return rows


_KIND_RULES: dict[DensityKind, tuple[Family, Selector]] = {
    DensityKind.NC3: (Family.PRIME_POWER, Selector.DIVIDES_C),
    DensityKind.NC0: (Family.PRIME_POWER, Selector.NOT_DIVIDES_C),
    DensityKind.MC2: (Family.P_MINUS_ONE, Selector.DIVIDES_C),
    DensityKind.MC1: (Family.P_MINUS_ONE, Selector.DIVIDES_C_MINUS_1),
    DensityKind.MC0: (Family.P_MINUS_ONE, Selector.DIVIDES_C_PLUS_1),
}


def density_table(
    kind: DensityKind,
    c_list: Iterable[int],
    *,
    sieve_cap: int = DEFAULT_SIEVE_CAP,
) -> list[DensityRow]:
    """Prime-counting densities per bound c.

    numerator counts primes p in [floor, c] satisfying the kind's
    divisibility condition; denominator counts all primes in [floor, c].
    The counts depend on divisibility in the integers alone: the
    denominator comes from prime_count, the dividing primes are the prime
    factors of the shifted target.  The sieve cap still bounds c.
    """
    family, selector = _KIND_RULES[kind]
    floor = _FLOOR[family]
    c_list = list(c_list)
    check_sieve_cap(max([0] + c_list), sieve_cap)
    rows = []
    for c in c_list:
        denominator = _primes_between(floor, c)
        target = c + _SHIFT.get(selector, 0)
        dividing = sum(1 for p in _prime_factors(target, floor) if p <= c)
        numerator = denominator - dividing if selector is Selector.NOT_DIVIDES_C else dividing
        ratio = Fraction(numerator, denominator) if denominator else None
        rows.append(DensityRow(c, kind, numerator, denominator, ratio))
    return rows
