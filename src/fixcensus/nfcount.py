"""Exact discriminants and desk-scale counts for trinomials x^d - x + c.

The discriminant is computed two independent ways: trinomial_disc builds
the full Sylvester matrix of (f, f') and evaluates it with the fraction-free
Bareiss elimination, while closed_form_disc uses the two-term formula the
resultant collapses to for this family.  The test suite proves them equal on
a verification grid before anything downstream relies on the fast form.

Discriminants here are polynomial discriminants, a proxy (up to square
cofactor) for the discriminant of the number field a given trinomial cuts
out; irreducibility over Q is certified, never guessed, with UNKNOWN as a
first-class answer.
"""

from __future__ import annotations

import bisect
import enum
import functools
import itertools
import math
import sys
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from . import stats
from .dynamics import integer_root, integral_fixed_points
from .ff import ArgumentError, CapError, FpPoly, certify_irreducible

__all__ = [
    "ZETA2_INV",
    "RangeCapError",
    "check_c_cap",
    "IrreducibilityStatus",
    "FieldCountRow",
    "SquarefreeReport",
    "trinomial_disc",
    "closed_form_disc",
    "irreducibility_status",
    "trinomial_row",
    "bounded_trinomials",
    "count_by_disc",
    "count_by_height",
    "squarefree_disc_fraction",
]

# 6 / pi^2, the squarefree density of all integers, shown as a reference
# value next to empirical squarefree-discriminant fractions.
ZETA2_INV = 6 / math.pi**2


class RangeCapError(CapError):
    """The c values a count would enumerate exceed the cap."""


def check_c_cap(what: str, size: int, cap: int) -> None:
    """Refuse an enumeration of size values of c above cap, before any work."""
    if size > cap:
        raise RangeCapError(f"{what} takes {size} values of c, beyond the cap {cap}")


class IrreducibilityStatus(enum.Enum):
    REDUCIBLE = "REDUCIBLE"
    IRREDUCIBLE = "IRREDUCIBLE"
    UNKNOWN = "UNKNOWN"

    def __str__(self) -> str:
        return self.value


class FieldCountRow(NamedTuple):
    """Counting result: irreducible trinomials with |disc| below a bound."""

    d: int
    X: int
    count: int
    unknown: int
    exponent_ref: Fraction
    bound_ok: bool

    def as_dict(self) -> dict:
        return {**self._asdict(), "exponent_ref": str(self.exponent_ref)}


class SquarefreeReport(NamedTuple):
    """Empirical squarefree-discriminant fraction next to 6/pi^2."""

    d: int
    limit: int
    squarefree: int
    unknown: int
    fraction: Fraction
    reference: float

    def as_dict(self) -> dict:
        return {
            "d": self.d,
            "limit": self.limit,
            "squarefree": self.squarefree,
            "unknown": self.unknown,
            "numerator": self.squarefree,
            "denominator": self.limit,
            "fraction": str(self.fraction),
            "reference": f"{self.reference:.6f}",
        }


def _det_bareiss(m: list[list[int]]) -> int:
    """Exact determinant by fraction-free elimination; mutates its copy."""
    size = len(m)
    if size == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            for r in range(k + 1, size):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, size):
            row_i = m[i]
            row_k = m[k]
            lead = row_i[k]
            for j in range(k + 1, size):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[size - 1][size - 1]


def _sylvester(f: list[int], g: list[int]) -> list[list[int]]:
    """Sylvester matrix of f and g, coefficients highest degree first."""
    df = len(f) - 1
    dg = len(g) - 1
    size = df + dg
    rows = []
    for i in range(dg):
        rows.append([0] * i + f + [0] * (size - df - 1 - i))
    for i in range(df):
        rows.append([0] * i + g + [0] * (size - dg - 1 - i))
    return rows


def trinomial_disc(d: int, c: int) -> int:
    """Discriminant of x^d - x + c via the Sylvester resultant of (f, f').

    disc = (-1)^(d(d-1)/2) * Res(f, f'), evaluated over exact integers.
    """
    if d < 2:
        raise ArgumentError(f"degree {d} must be at least 2")
    f = [1] + [0] * (d - 2) + [-1, c]
    fp = [d] + [0] * (d - 2) + [-1]
    res = _det_bareiss(_sylvester(f, fp))
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * res


def closed_form_disc(d: int, c: int) -> int:
    """The same discriminant by the two-term formula for this family.

    disc = (-1)^(d(d-1)/2) * (d^d c^(d-1) - (d-1)^(d-1)).  Equality with
    trinomial_disc over d <= 10, |c| <= 30 is enforced by the test suite;
    the enumerators below use this form for speed.
    """
    if d < 2:
        raise ArgumentError(f"degree {d} must be at least 2")
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * (d**d * c ** (d - 1) - (d - 1) ** (d - 1))


DEFAULT_Q_MAX = 50


@functools.lru_cache(maxsize=4)
def _primes(limit: int) -> tuple[int, ...]:
    """The primes <= limit, copied out of the sieve once per limit."""
    return tuple(stats.prime_sieve(limit))


@functools.lru_cache(maxsize=1 << 16)
def _irreducible_mod_q(d: int, c: int, q: int) -> bool:
    """certify_irreducible on x^d - x + c over F_q, memoized; certifying_prime
    passes c mod q, so the key is (d, c mod q, q).

    f stays monic of degree d under reduction, so a pass certifies
    irreducibility over Q as well.
    """
    return certify_irreducible(FpPoly.of(q, [c, -1] + [0] * (d - 2) + [1]))


def certifying_prime(d: int, c: int, *, q_max: int = DEFAULT_Q_MAX) -> int | None:
    """The smallest prime q <= q_max with f irreducible mod q, if any.

    f mod q depends only on c mod q, so the certificate is looked up by
    (d, c mod q, q): a run computes at most the sum of the primes up to
    q_max of them per degree.  A reducible f has no certifying prime, since
    its monic factors stay factors mod every q.
    """
    if d < 2:
        raise ArgumentError(f"degree {d} must be at least 2")
    return next((q for q in _primes(q_max) if _irreducible_mod_q(d, c % q, q)), None)


def irreducibility_status(d: int, c: int, *, q_max: int = DEFAULT_Q_MAX) -> IrreducibilityStatus:
    """Certified irreducibility of x^d - x + c over Q; UNKNOWN when unsure.

    REDUCIBLE comes with an integer root (monic integer polynomials have
    integer rational roots) or c = 0; IRREDUCIBLE comes from irreducibility
    modulo some prime q <= q_max.  No heuristic ever upgrades UNKNOWN.
    """
    if d < 2:
        raise ArgumentError(f"degree {d} must be at least 2")
    if c == 0 or integral_fixed_points(d, c):
        return IrreducibilityStatus.REDUCIBLE
    if certifying_prime(d, c, q_max=q_max) is None:
        return IrreducibilityStatus.UNKNOWN
    return IrreducibilityStatus.IRREDUCIBLE


def bounded_trinomials(d: int, X: int, *, c_cap: int = stats.DEFAULT_SIEVE_CAP) -> list[int]:
    """The c of every trinomial with |disc| < X, ascending in |c| (0, 1, -1, 2, ...).

    For a = |c| >= 1 both members of a level have |disc| >= d^d a^(d-1) -
    (d-1)^(d-1), with equality at c = a, and that minimum strictly increases
    in a; so no level beyond r, the largest a with d^d a^(d-1) < X +
    (d-1)^(d-1), has a hit, and r is an integer root.  The 2r + 1
    candidates |c| <= r are refused above c_cap before any is examined.
    """
    if d < 2:
        raise ArgumentError(f"degree {d} must be at least 2")
    if X < 1:
        raise ArgumentError(f"bound {X} must be at least 1")
    reach = integer_root((X + (d - 1) ** (d - 1) - 1) // d**d, d - 1)
    check_c_cap(f"|disc| < {X}", 2 * reach + 1, c_cap)
    candidates = itertools.chain((0,), *((a, -a) for a in range(1, reach + 1)))
    return [c for c in candidates if abs(closed_form_disc(d, c)) < X]


def _within_bound(count: int, constant: float, d: int, X: int) -> bool:
    """count <= constant * X^(d/(2d-2)) for X >= 1, decided in integers."""
    if not math.isfinite(constant) or constant <= 0:  # X^(d/(2d-2)) is positive
        return constant > 0 or (constant == 0 and count == 0)
    return (count / Fraction(constant)) ** (2 * d - 2) <= X**d


def count_by_disc(
    d: int,
    X: int,
    *,
    constant: float = 4.0,
    q_max: int = DEFAULT_Q_MAX,
    c_cap: int = stats.DEFAULT_SIEVE_CAP,
) -> FieldCountRow:
    """Count irreducible trinomials with |disc| < X, UNKNOWNs set aside.

    bound_ok records whether count <= constant * X^(d/(2d-2)), compared
    exactly; the exponent is also reported exactly as a Fraction.  An X
    whose candidates exceed c_cap is refused before any is examined.
    """
    tally = Counter(irreducibility_status(d, c, q_max=q_max) for c in bounded_trinomials(d, X, c_cap=c_cap))
    count, unknown = tally[IrreducibilityStatus.IRREDUCIBLE], tally[IrreducibilityStatus.UNKNOWN]
    return FieldCountRow(d, X, count, unknown, Fraction(d, 2 * d - 2), _within_bound(count, constant, d, X))


def count_by_height(d: int, hmax: int | float | Fraction) -> int:
    """#{c integer : |c|^(1/d) <= hmax}, by the closed form 2*floor(hmax^d)+1.

    floor(hmax^d) is exact: a float counts as the binary value it holds, so
    pass a Fraction (as the CLI does) to mean a decimal height exactly.
    A count that may outgrow the interpreter's int-to-str digit limit is
    refused with CapError before the power is formed.
    """
    if d < 2:
        raise ArgumentError(f"degree {d} must be at least 2")
    try:
        h = Fraction(hmax)
    except (ValueError, OverflowError) as exc:
        raise ArgumentError(f"height bound {hmax} must be finite") from exc
    if h < 0:
        raise ArgumentError(f"height bound {hmax} must be nonnegative")
    # h < 2^(a-b+1) for numerator/denominator bit lengths a, b, so the count
    # is below 2^bits and has at most floor(bits * log10(2)) + 1 digits
    bits = d * max(h.numerator.bit_length() - h.denominator.bit_length() + 1, 0) + 2
    limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()  # 0: no limit
    if limit and bits * 30103 // 100000 + 1 > limit:
        raise CapError(
            f"height count for d = {d} may exceed the limit ({limit} digits) for integer string conversion"
        )
    return 2 * (h.numerator**d // h.denominator**d) + 1


DEFAULT_TRIAL_BOUND = 10**5


def _squarefree_by_trial(u: int, trial_bound: int) -> bool | None:
    """True/False when decided by trial division, None when out of reach.

    Trial division runs over the primes p <= min(B, u^(1/3)), B the trial
    bound; a prime dividing twice means not squarefree.  Every prime factor
    of the cofactor then exceeds m = max(min(B, u^(1/3)), 1), so a cofactor
    below (m + 1)^3, which holds whenever u^(1/3) <= B, has at most two
    prime factors: it is squarefree iff it is not a perfect square above 1.
    A larger cofactor is decided only when it is a perfect square.
    """
    primes = _primes(trial_bound)
    root = integer_root(u, 3)
    rem = u
    for p in itertools.islice(primes, bisect.bisect_right(primes, root)):
        if rem % p == 0:
            rem //= p
            if rem % p == 0:
                return False
    square = math.isqrt(rem) ** 2 == rem
    if not square and rem >= (max(min(trial_bound, root), 1) + 1) ** 3:
        return None
    return rem == 1 or not square


def squarefree_disc_fraction(
    d: int,
    limit: int,
    *,
    trial_bound: int = DEFAULT_TRIAL_BOUND,
    c_cap: int = stats.DEFAULT_SIEVE_CAP,
) -> SquarefreeReport:
    """Fraction of c in [1, limit] whose |disc| is squarefree.

    A squarefree polynomial discriminant certifies that the ring generated
    by a root is already maximal, the standard sufficient condition for
    monogenicity.  Candidates that trial division up to trial_bound cannot
    settle (never one with |disc| < trial_bound^3) are counted as unknown,
    never as squarefree.  A limit above c_cap is refused before any work.  The
    reference value 6/pi^2 is carried alongside purely for display; no
    convergence is asserted or checked.
    """
    if limit < 1:
        raise ArgumentError(f"limit {limit} must be at least 1")
    check_c_cap(f"c in [1, {limit}]", limit, c_cap)
    squarefree = 0
    unknown = 0
    for c in range(1, limit + 1):
        verdict = _squarefree_by_trial(abs(closed_form_disc(d, c)), trial_bound)
        if verdict is True:
            squarefree += 1
        elif verdict is None:
            unknown += 1
    return SquarefreeReport(
        d, limit, squarefree, unknown, Fraction(squarefree, limit), ZETA2_INV
    )


def trinomial_row(d: int, c: int, *, q_max: int = DEFAULT_Q_MAX, trial_bound: int = DEFAULT_TRIAL_BOUND) -> dict:
    """One per-trinomial record for table output; the height |c|^(1/d) is a
    float for display only, and counts by height use count_by_height."""
    disc = closed_form_disc(d, c)
    status = irreducibility_status(d, c, q_max=q_max)
    sf = _squarefree_by_trial(abs(disc), trial_bound)
    return {
        "d": d,
        "c": c,
        "disc": disc,
        "height": abs(c) ** (1.0 / d),
        "irreducibility": status.value,
        "squarefree": "unknown" if sf is None else ("true" if sf else "false"),
    }
