"""Exact discriminants and desk-scale counts for trinomials x^d - x + c.

The discriminant is closed_form_disc, the two-term formula the resultant
Res(f, f') collapses to for this family.  On a verification grid the test
suite holds it to an independent oracle that ships only with the tests
(tests/oracles.py): the determinant of the full Sylvester matrix of
(f, f'), by fraction-free Bareiss elimination.

Discriminants here are polynomial discriminants, a proxy (up to square
cofactor) for the discriminant of the number field a given trinomial cuts
out; irreducibility over Q is certified, never guessed, with UNKNOWN as a
first-class answer.

The counts over many c work by residue class.  One filter, _uncertified,
sorts out the mod-q certificates prime by prime for one c and for many, and
squarefree_disc_fraction sieves windows of c by every prime trial division
would try, at the discriminant's roots mod p, taken by root extraction;
_squarefree_by_trial stays the rule for one c and for each cofactor left.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import sys
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from . import dynamics, ff, stats
from .dynamics import DEFAULT_EXP_CAP, check_degree, integer_root, integral_fixed_points
from .ff import DEFAULT_SIEVE_CAP, ArgumentError, CapError, _Label, certify_irreducible

__all__ = [
    "ZETA2_INV",
    "IrreducibilityStatus",
    "FieldCountRow",
    "SquarefreeReport",
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


class IrreducibilityStatus(_Label):
    REDUCIBLE = "REDUCIBLE"
    IRREDUCIBLE = "IRREDUCIBLE"
    UNKNOWN = "UNKNOWN"


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


def closed_form_disc(d: int, c: int) -> int:
    """Discriminant of x^d - x + c by the two-term formula for this family.

    disc = (-1)^(d(d-1)/2) * (d^d c^(d-1) - (d-1)^(d-1)).  Equality with
    the Sylvester resultant over d <= 10, |c| <= 30 is enforced by the test
    suite; the enumerators below work with its two terms.
    """
    check_degree(d)
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * (d**d * c ** (d - 1) - (d - 1) ** (d - 1))


DEFAULT_Q_MAX = 50


@functools.lru_cache(maxsize=1 << 16)
def _irreducible_mod_q(d: int, c: int, q: int) -> bool:
    """certify_irreducible on x^d - x + c over F_q, memoized; _uncertified
    passes c mod q, so the key is (d, c mod q, q).

    f stays monic of degree d under reduction, so a pass certifies
    irreducibility over Q as well.  Its step k = 1, the only one for d <= 3,
    is the root test that _uncertified reads off a root table when it has one.
    """
    return certify_irreducible(q, (c % q, q - 1) + (0,) * (d - 2) + (1,))


def _uncertified(d: int, cs: list[int], primes: tuple[int, ...], exp_cap: int, sieve_cap: int) -> list[int]:
    """The c of cs, in order, that no q in primes certifies irreducible.

    For each q in ascending order, while at least q c are pending,
    count_profile over F_q (capped by exp_cap and sieve_cap) counts the
    roots of x^d - x + r, the fixed points of z^d + r, for every r: a
    residue with a root is not certified, one without is for d <= 3 and
    goes to _irreducible_mod_q for d >= 4, as every residue does once fewer
    than q c are pending; so one c builds no table.
    """
    pending = cs
    for q in primes:
        if not pending:
            break
        if q > len(pending):  # a table costs q, the certificates at most len(pending)
            pending = [c for c in pending if not _irreducible_mod_q(d, c % q, q)]
            continue
        roots = dynamics.count_profile(ff.standard_field(q, 1), d, field_cap=sieve_cap, exp_cap=exp_cap)
        pending = [c for c in pending if roots[c % q] or d > 3 and not _irreducible_mod_q(d, c % q, q)]
    return pending


def irreducibility_status(
    d: int, c: int, *, q_max: int = DEFAULT_Q_MAX, sieve_cap: int = DEFAULT_SIEVE_CAP
) -> IrreducibilityStatus:
    """Certified irreducibility of x^d - x + c over Q; UNKNOWN when unsure.

    IRREDUCIBLE comes from irreducibility modulo some prime q <= q_max,
    which a reducible f, whose monic factors stay factors mod every q,
    never has, so it is sought first (and q_max meets the cap before c is
    looked at); REDUCIBLE comes with an integer root (monic integer
    polynomials have integer rational roots), which c = 0 always has.  No
    heuristic ever upgrades UNKNOWN.
    """
    check_degree(d)
    if not _uncertified(d, [c], stats.prime_sieve(q_max, sieve_cap=sieve_cap), DEFAULT_EXP_CAP, sieve_cap):
        return IrreducibilityStatus.IRREDUCIBLE
    if integral_fixed_points(d, c):
        return IrreducibilityStatus.REDUCIBLE
    return IrreducibilityStatus.UNKNOWN


def bounded_trinomials(d: int, X: int, *, sieve_cap: int = DEFAULT_SIEVE_CAP) -> list[int]:
    """The c of every trinomial with |disc| < X, ascending in |c| (0, 1, -1, 2, ...).

    Write A = d^d and K = (d-1)^(d-1).  For a >= 1, |disc(a)| = A a^(d-1) - K,
    and |disc(-a)| is the same for odd d and A a^(d-1) + K for even d; both
    strictly increase in a.  |disc(0)| = K, and every |disc(c)| >= K, since
    A >= 2K makes A a^(d-1) - K >= K.  So the hits are c = 0 when K < X;
    c = a for a <= r, the largest a with A a^(d-1) <= X + K - 1; and c = -a
    for a <= r, or for even d for a up to the largest a with
    A a^(d-1) <= X - K - 1.  That is two integer roots, and no discriminant
    is formed.  As K >= 2^((d-1)(bit_length(d-1) - 1)), once that exponent
    reaches X.bit_length() there is no hit, and neither power is formed.
    The 2r + 1 values |c| <= r are refused above sieve_cap before the list
    is built.
    """
    check_degree(d)
    if X < 1:
        raise ArgumentError(f"bound {X} must be at least 1")
    k = d - 1
    reach = below = 0
    hits = k * (k.bit_length() - 1) < X.bit_length() and k**k < X
    if hits:
        A, K = d**d, k**k
        reach = integer_root((X + K - 1) // A, k)
        below = reach if d % 2 else integer_root(max(X - K - 1, 0) // A, k)
    stats.check_sieve_cap(2 * reach + 1, sieve_cap, f"|disc| < {X}: c count")
    if not hits:
        return []
    candidates = [0] * (2 * below + 1)
    candidates[1::2] = range(1, below + 1)
    candidates[2::2] = range(-1, -below - 1, -1)
    candidates += range(below + 1, reach + 1)
    return candidates


def _within_bound(count: int, d: int, X: int) -> bool:
    """count <= 4 * X^(d/(2d-2)) for X >= 1, decided in integers.

    A zero count forms no power of X, which at a large d would be huge.
    """
    return count == 0 or count ** (2 * d - 2) <= 4 ** (2 * d - 2) * X**d


def count_by_disc(
    d: int,
    X: int,
    *,
    q_max: int = DEFAULT_Q_MAX,
    exp_cap: int = DEFAULT_EXP_CAP,
    sieve_cap: int = DEFAULT_SIEVE_CAP,
) -> FieldCountRow:
    """Count irreducible trinomials with |disc| < X, UNKNOWNs set aside.

    The candidates go through _uncertified, irreducibility_status's filter,
    over the primes q <= q_max; a c left over is UNKNOWN unless it has an
    integer root.  bound_ok records whether count <= 4 * X^(d/(2d-2)),
    compared exactly; the exponent is also reported exactly as a Fraction.
    A d above exp_cap, and a q_max or a candidate count above sieve_cap, is
    refused before any candidate is examined; sieve_cap also caps the root
    tables.
    """
    check_degree(d, exp_cap)
    stats.check_sieve_cap(q_max, sieve_cap)
    candidates = bounded_trinomials(d, X, sieve_cap=sieve_cap)
    pending = _uncertified(d, candidates, stats.prime_sieve(q_max, sieve_cap=sieve_cap), exp_cap, sieve_cap)
    count = len(candidates) - len(pending)
    unknown = sum(1 for c in pending if not integral_fixed_points(d, c))
    return FieldCountRow(d, X, count, unknown, Fraction(d, 2 * d - 2), _within_bound(count, d, X))


def _check_digits(bits: int, what: str) -> None:
    """Refuse with CapError an integer below 2^bits, named by what, that may have
    more digits (at most bits*log10(2) + 1) than sys.get_int_max_str_digits()."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()  # 0: no limit
    if limit and bits * 30103 // 100000 + 1 > limit:
        raise CapError(f"{what} may exceed the limit ({limit} digits) for integer string conversion")


def _check_c(d: int, c: int) -> None:
    """Refuse a c whose row cannot be written: the float height |c|^(1/d) needs
    |c| <= the largest float, and |disc| < 2 d^d max(|c|, 1)^(d-1) must print."""
    if abs(c) > sys.float_info.max:
        raise ArgumentError(f"the height |c|^(1/d) needs |c| <= {sys.float_info.max!r}, the largest float")
    # log2 of that bound, rounded up, and one spare bit for the float logarithms
    bits = math.ceil(d * math.log2(d) + (d - 1) * math.log2(max(abs(c), 1))) + 2
    _check_digits(bits, f"discriminant for d = {d} and a {abs(c).bit_length()}-bit c")


def count_by_height(d: int, hmax: int | float | Fraction, *, exp_cap: int = DEFAULT_EXP_CAP) -> int:
    """#{c integer : |c|^(1/d) <= hmax}, by the closed form 2*floor(hmax^d)+1.

    floor(hmax^d) is exact: a float counts as the binary value it holds, so
    pass a Fraction (as the CLI does) to mean a decimal height exactly.
    A d above exp_cap, and a count that may outgrow the interpreter's
    int-to-str digit limit, are refused with CapError before the power is
    formed.
    """
    check_degree(d, exp_cap)
    try:
        h = Fraction(hmax)
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise ArgumentError(f"height bound {hmax} must be finite") from exc
    if h < 0:
        raise ArgumentError(f"height bound {hmax} must be nonnegative")
    # h < 2^(a-b+1) for numerator/denominator bit lengths a, b
    bits = d * max(h.numerator.bit_length() - h.denominator.bit_length() + 1, 0) + 2
    _check_digits(bits, f"height count for d = {d}")
    return 2 * (h.numerator**d // h.denominator**d) + 1


DEFAULT_TRIAL_BOUND = 10**5


def _squarefree_by_trial(u: int, trial_bound: int, primes: tuple[int, ...], rem: int | None = None) -> bool | None:
    """True/False when decided by trial division, None when out of reach.

    Trial division runs over the primes p <= min(B, u^(1/3)), B the trial
    bound and primes the primes <= B; a prime dividing twice means not
    squarefree.  Every prime factor of the cofactor then exceeds
    m = max(min(B, u^(1/3)), 1), so a cofactor below (m + 1)^3 has at most
    two prime factors: it is squarefree iff it is not a perfect square
    above 1.  As the cofactor is at most u < (u^(1/3) + 1)^3, that bound can
    only fail when u^(1/3) >= B, where m = max(B, 1): so every u < B^3 is
    decided, and a cofactor of at least (max(B, 1) + 1)^3 only when it is a
    perfect square.  A caller that has divided out those primes, none of
    them twice, passes the cofactor as rem, and only that last rule is left.
    """
    if rem is None:
        rem = u
        for p in itertools.islice(primes, bisect.bisect_right(primes, integer_root(u, 3))):
            if rem % p == 0:
                rem //= p
                if rem % p == 0:
                    return False
    square = math.isqrt(rem) ** 2 == rem
    if not square and rem >= (max(trial_bound, 1) + 1) ** 3:
        return None
    return rem == 1 or not square


def _lth_roots(x: int, l: int, p: int) -> list[int]:
    """The l roots of y^l = x mod p, for a prime l | p - 1 and an l-th power
    x != 0 (Adleman-Manders-Miller; Tonelli-Shanks when l = 2).

    With l^t || p - 1 = l^t s and c a generator of the l-Sylow subgroup,
    r = x^(1/l mod s) has r^l / x of order dividing l^(t-1).  Step k reads
    (r^l / x)^(l^(k-1)) as zeta^j, zeta = c^(l^(t-1)) of order l, and
    multiplies r by c^(-j l^(t-1-k)); r^l / x then has order dividing l^(k-1).
    """
    q = p - 1
    t = next(t for t in itertools.count(1) if q % l ** (t + 1))
    c = pow(next(z for z in range(2, p) if pow(z, q // l, p) != 1), q // l**t, p)
    zeta = pow(c, l ** (t - 1), p)
    r = pow(x, pow(l, -1, q // l**t), p)
    for k in range(t - 1, 0, -1):
        y = pow(pow(r, l, p) * pow(x, -1, p), l ** (k - 1), p)
        j = next(j for j in range(l) if pow(zeta, j, p) == y)
        r = r * pow(c, -j * l ** (t - 1 - k), p) % p
    return [r * pow(zeta, i, p) % p for i in range(l)]


def _disc_roots(d: int, p: int) -> list[int]:
    """The c mod p, ascending, with p | u(c) = A c^e - K, A = d^d, K = (d-1)^(d-1), e = d - 1.

    p | d leaves u = -K, a unit: no root; p | e leaves A c^e: c = 0.
    Otherwise b = K/A is a unit, g = gcd(e, p - 1), and c^e = b has a root
    iff b^((p-1)/g) = 1.  Then c^e = b iff c^g = b^s, s e = g mod p - 1,
    and its g roots come from _lth_roots, one prime l | g at a time: every
    l-th root of a g-th power is a (g/l)-th power, as g | p - 1.  So a
    prime costs O(log p) products for a fixed d, and no u(c) is formed.
    """
    e, q = d - 1, p - 1
    if d * e % p == 0:
        return [0] if e % p == 0 else []
    b, g = pow(e, e, p) * pow(d, -d, p) % p, math.gcd(e, q)
    if pow(b, q // g, p) != 1:
        return []
    roots = [pow(b, pow(e // g, -1, q // g), p)]
    while g > 1:
        l = ff._prime_factors(g)[0]
        roots, g = [y for x in roots for y in _lth_roots(x, l, p)], g // l
    return sorted(roots)


# The c that _squarefree_verdicts holds at once: its memory, not a setting.
_SQUAREFREE_WINDOW = 1 << 14


def _squarefree_verdicts(d: int, limit: int, trial_bound: int, primes: tuple[int, ...]):
    """The _squarefree_by_trial verdict on |disc| of each c = 1, ..., limit, in order.

    u(c) = A c^(d-1) - K, A = d^d and K = (d-1)^(d-1), increases on c >= 1,
    so the c that trial division tests against p, those with u(c) >= p^3,
    are those from one start on, found by bisection.  Whether p divides
    u(c) depends only on c mod p, and _disc_roots gives those residues.
    The c are taken in windows of _SQUAREFREE_WINDOW, and the roots are
    taken again in each, so memory does not grow with the limit.  In a
    window every prime is sieved in ascending order, each root walked as a
    progression, where p^2 | u ends that c and otherwise p leaves the
    cofactor; each cofactor then goes to _squarefree_by_trial with no prime
    left to divide, so one rule gives every verdict.
    """
    A, K, e = d**d, (d - 1) ** (d - 1), d - 1
    for lo in range(1, limit + 1, _SQUAREFREE_WINDOW):
        u = [A * c**e - K for c in range(lo, min(lo + _SQUAREFREE_WINDOW, limit + 1))]
        rem: list[int | None] = u.copy()  # the cofactor, None once a square divides u
        for p in primes:
            start = bisect.bisect_left(u, p**3)  # p is tested on the c from here on
            if start == len(u):
                break
            for r in _disc_roots(d, p):
                for i in range(start + (r - lo - start) % p, len(u), p):
                    v = rem[i]
                    if v is not None:
                        v //= p
                        rem[i] = v if v % p else None
        for i, v in enumerate(rem):
            yield v is not None and _squarefree_by_trial(u[i], trial_bound, primes, v)
        del u, rem  # before the next window is built


def squarefree_disc_fraction(
    d: int,
    limit: int,
    *,
    trial_bound: int = DEFAULT_TRIAL_BOUND,
    exp_cap: int = DEFAULT_EXP_CAP,
    sieve_cap: int = DEFAULT_SIEVE_CAP,
) -> SquarefreeReport:
    """Fraction of c in [1, limit] whose |disc| is squarefree.

    A squarefree polynomial discriminant certifies that the ring generated
    by a root is already maximal, the standard sufficient condition for
    monogenicity.  Each c gets the verdict of _squarefree_by_trial, by way
    of the windowed sieve _squarefree_verdicts.  Candidates that trial
    division up to trial_bound cannot settle (never one with
    |disc| < trial_bound^3) are counted as unknown, never as squarefree.
    A d above exp_cap, and a limit or a trial bound above sieve_cap, are
    refused before any work.  The reference value 6/pi^2 is carried
    alongside purely for display; no convergence is asserted or checked.
    """
    check_degree(d, exp_cap)
    if limit < 1:
        raise ArgumentError(f"limit {limit} must be at least 1")
    stats.check_sieve_cap(limit, sieve_cap, f"c in [1, {limit}]: c count")
    stats.check_sieve_cap(trial_bound, sieve_cap)
    # the primes to min(B, |disc(limit)|^(1/3)): no c tests a prime past its own cube root
    top = min(d**d * limit ** (d - 1) - (d - 1) ** (d - 1), max(trial_bound, 0) ** 3)
    primes = stats.prime_sieve(integer_root(top, 3), sieve_cap=sieve_cap)
    tally = Counter(_squarefree_verdicts(d, limit, trial_bound, primes))
    squarefree, unknown = tally[True], tally[None]
    return SquarefreeReport(
        d, limit, squarefree, unknown, Fraction(squarefree, limit), ZETA2_INV
    )


def trinomial_row(
    d: int,
    c: int,
    *,
    q_max: int = DEFAULT_Q_MAX,
    trial_bound: int = DEFAULT_TRIAL_BOUND,
    exp_cap: int = DEFAULT_EXP_CAP,
    sieve_cap: int = DEFAULT_SIEVE_CAP,
) -> dict:
    """One per-trinomial record for table output; the height |c|^(1/d) is a
    float for display only, and counts by height use count_by_height.  d
    meets exp_cap, both prime lists sieve_cap and c _check_c before any work."""
    check_degree(d, exp_cap)
    stats.check_sieve_cap(q_max, sieve_cap)
    _check_c(d, c)
    stats.check_sieve_cap(trial_bound, sieve_cap)
    disc = closed_form_disc(d, c)
    # trial division stops at |disc|^(1/3); the sieve stops at the power of
    # two above it, so the rows of one c range share one cached sieve
    top = 1 << (integer_root(abs(disc), 3) - 1).bit_length()
    primes = stats.prime_sieve(min(trial_bound, top), sieve_cap=sieve_cap)
    status = irreducibility_status(d, c, q_max=q_max, sieve_cap=sieve_cap)
    sf = _squarefree_by_trial(abs(disc), trial_bound, primes)
    return {
        "d": d,
        "c": c,
        "disc": disc,
        "height": abs(c) ** (1.0 / d),
        "irreducibility": status.value,
        "squarefree": "unknown" if sf is None else ("true" if sf else "false"),
    }
