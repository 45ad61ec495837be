"""Empirical average and density tables for the integer-coefficient maps.

For integer c, the fixed-point count of z -> z^d + c on F_p is controlled by
divisibility: which small primes divide c, c - 1 or c + 1.  The tables here
make that quantitative at desk scale, summing exact oracle counts over
qualifying primes (averages) or counting qualifying primes directly
(densities).  Everything is exact rational arithmetic via Fraction; floats
appear only when a renderer formats a ratio.

Prime floors: the prime-power family starts at p = 3 and the pminus1 family
at p = 5, matching the smallest primes the counting claims cover.
"""

from __future__ import annotations

import bisect
import enum
import functools
import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction

from . import dynamics
from .dynamics import DEFAULT_EXP_CAP, Family, MapSpec
from .ff import DEFAULT_FIELD_CAP, CapError, standard_field

__all__ = [
    "DEFAULT_SIEVE_CAP",
    "SieveCapError",
    "Selector",
    "DensityKind",
    "AverageRow",
    "DensityRow",
    "prime_sieve",
    "average_report",
    "density_table",
]

DEFAULT_SIEVE_CAP = 10**8


class SieveCapError(CapError):
    """The sieve limit exceeds the configured cap."""


class Selector(enum.Enum):
    """Which primes qualify for an average at bound c."""

    DIVIDES_C = "p|c"
    DIVIDES_C_MINUS_1 = "p|c-1"
    DIVIDES_C_PLUS_1 = "p|c+1"
    NOT_DIVIDES_C = "p!|c"

    def __str__(self) -> str:
        return self.value


class DensityKind(enum.Enum):
    """Predicted-count classes whose prime densities are tabulated."""

    NC3 = "nc3"  # prime-power family, count 3: primes dividing c
    NC0 = "nc0"  # prime-power family, count 0: primes not dividing c
    MC2 = "mc2"  # pminus1 family, count 2: primes dividing c
    MC1 = "mc1"  # pminus1 family, count 1: primes dividing c - 1
    MC0 = "mc0"  # pminus1 family, count 0: primes dividing c + 1

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class AverageRow:
    """Average oracle count over the qualifying primes at one bound c."""

    c: int
    selector: Selector
    prime_floor: int
    numerator: int
    denominator: int
    ratio: Fraction | None

    def as_dict(self) -> dict:
        return {
            "c": self.c,
            "selector": self.selector.value,
            "prime_floor": self.prime_floor,
            "numerator": self.numerator,
            "denominator": self.denominator,
            "ratio": str(self.ratio) if self.ratio is not None else None,
        }


@dataclass(frozen=True)
class DensityRow:
    """Share of primes in [floor, c] meeting one divisibility condition."""

    c: int
    kind: DensityKind
    numerator: int
    denominator: int
    ratio: Fraction | None

    def as_dict(self) -> dict:
        return {
            "c": self.c,
            "kind": self.kind.value,
            "numerator": self.numerator,
            "denominator": self.denominator,
            "ratio": str(self.ratio) if self.ratio is not None else None,
        }


def prime_sieve(limit: int, *, sieve_cap: int = DEFAULT_SIEVE_CAP) -> list[int]:
    """All primes <= limit, ascending, as a fresh list the caller may keep."""
    if limit > sieve_cap:
        raise SieveCapError(f"sieve limit {limit} exceeds the cap {sieve_cap}")
    return list(_sieve(limit))


@functools.lru_cache(maxsize=8)
def _sieve(limit: int) -> tuple[int, ...]:
    # Eratosthenes on the odd numbers (mark[k] stands for 2k + 1), memoized
    # by limit so that equal limits in one run sieve once; a tuple, so no
    # caller can alter the shared result.
    if limit < 2:
        return ()
    size = (limit + 1) // 2
    mark = bytearray([1]) * size
    mark[0] = 0
    for i in range(3, math.isqrt(limit) + 1, 2):
        if mark[i // 2]:
            mark[i * i // 2 :: i] = bytes(len(range(i * i // 2, size, i)))
    return (2, *itertools.compress(range(1, limit + 1, 2), mark))


# Averages start at the smallest prime each family's claims cover.
_FLOOR = {Family.PRIME_POWER: 3, Family.P_MINUS_ONE: 5}

# Each selector's divisibility target is c shifted by this much; averages
# take the primes up to the target, densities the primes up to c.
_SHIFT = {Selector.DIVIDES_C_MINUS_1: -1, Selector.DIVIDES_C_PLUS_1: 1}


def _between(primes: list[int], floor: int, bound: int) -> tuple[int, int]:
    """The index range of the primes in [floor, bound] within primes."""
    hi = bisect.bisect_right(primes, bound)
    return bisect.bisect_left(primes, floor, 0, hi), hi


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
    """Average oracle fixed-point count over qualifying primes, per bound.

    For each c, every qualifying prime p contributes
    fixed_point_count(F_{p^n}, z^d + c) with the integer c embedded mod p.
    The sum and the prime count are kept separate so the ratio stays an
    exact rational; an empty qualifying set yields denominator 0 and no
    ratio rather than an error.
    """
    if family not in _FLOOR:
        raise ValueError("averages and densities are defined for the two named families")
    floor = _FLOOR[family]
    targets = [(c, c + _SHIFT.get(selector, 0)) for c in c_list]
    primes = prime_sieve(max([0] + [t for _, t in targets]), sieve_cap=sieve_cap)
    wanted = selector is not Selector.NOT_DIVIDES_C
    rows = []
    for c, target in targets:
        lo, hi = _between(primes, floor, target)
        qual = [p for p in itertools.islice(primes, lo, hi) if (target % p == 0) is wanted]
        numerator = sum(
            dynamics.fixed_point_count(
                standard_field(p, n), MapSpec.of(family, p, ell, c), field_cap=field_cap, exp_cap=exp_cap
            )
            for p in qual
        )
        ratio = Fraction(numerator, len(qual)) if qual else None
        rows.append(AverageRow(c, selector, floor, numerator, len(qual), ratio))
    return rows


_KIND_RULES: dict[DensityKind, tuple[int, Selector]] = {
    DensityKind.NC3: (3, Selector.DIVIDES_C),
    DensityKind.NC0: (3, Selector.NOT_DIVIDES_C),
    DensityKind.MC2: (5, Selector.DIVIDES_C),
    DensityKind.MC1: (5, Selector.DIVIDES_C_MINUS_1),
    DensityKind.MC0: (5, Selector.DIVIDES_C_PLUS_1),
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
    The counts depend on divisibility in the integers alone.
    """
    floor, selector = _KIND_RULES[kind]
    c_list = list(c_list)
    primes = prime_sieve(max([0] + c_list), sieve_cap=sieve_cap)
    rows = []
    for c in c_list:
        lo, hi = _between(primes, floor, c)
        target = c + _SHIFT.get(selector, 0)
        dividing = sum(1 for p in itertools.islice(primes, lo, hi) if target % p == 0)
        denominator = hi - lo
        numerator = denominator - dividing if selector is Selector.NOT_DIVIDES_C else dividing
        ratio = Fraction(numerator, denominator) if denominator else None
        rows.append(DensityRow(c, kind, numerator, denominator, ratio))
    return rows
