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

Every nf verdict is one pass over an interval of c (for |disc| < X, the one
bounded_trinomials returns), by residue class.  Irreducibility is _statuses:
the filter _uncertified sorts out the mod-q certificates prime by prime, and
an integer root splits REDUCIBLE from UNKNOWN in what it leaves.  Squarefree
is _squarefree_column: a sieve by every prime trial division would try, at
the discriminant's roots mod p, with _squarefree_by_trial's rule on each
cofactor left.  trinomial_row and irreducibility_status are one-c views.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import sys
from collections import Counter
from collections.abc import Sequence
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
    "trinomial_rows",
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
    exponent_ref: str  # d/(2d-2), as ratio_text writes it
    bound_ok: bool

    def as_dict(self) -> dict:
        return self._asdict()


class SquarefreeReport(NamedTuple):
    """Empirical squarefree-discriminant fraction next to 6/pi^2."""

    d: int
    limit: int
    squarefree: int
    unknown: int
    reference: float

    def as_dict(self) -> dict:
        d, limit, squarefree, unknown, reference = self
        return {"d": d, "limit": limit, "squarefree": squarefree, "unknown": unknown, "numerator": squarefree,
                "denominator": limit, "fraction": stats.ratio_text(squarefree, limit), "reference": f"{reference:.6f}"}


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


def _uncertified(d: int, cs: Sequence[int], primes: tuple[int, ...], exp_cap: int, sieve_cap: int) -> Sequence[int]:
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


def _statuses(d: int, cs: Sequence[int], q_max: int, exp_cap: int, sieve_cap: int) -> dict[int, IrreducibilityStatus]:
    """The c of cs that _uncertified leaves over the primes q <= q_max, REDUCIBLE
    with an integer root and UNKNOWN without; every other c is IRREDUCIBLE."""
    pending = _uncertified(d, cs, stats.prime_sieve(q_max, sieve_cap=sieve_cap), exp_cap, sieve_cap)
    return {c: IrreducibilityStatus.REDUCIBLE if integral_fixed_points(d, c) else IrreducibilityStatus.UNKNOWN
            for c in pending}


def irreducibility_status(d: int, c: int, *, q_max: int = DEFAULT_Q_MAX,
                          sieve_cap: int = DEFAULT_SIEVE_CAP) -> IrreducibilityStatus:
    """Certified irreducibility of x^d - x + c over Q, the one-c view of _statuses.

    IRREDUCIBLE comes from irreducibility modulo some prime q <= q_max,
    which a reducible f, whose monic factors stay factors mod every q,
    never has, so it is sought first (and q_max meets the cap before c is
    looked at); REDUCIBLE comes with an integer root (monic integer
    polynomials have integer rational roots), which c = 0 always has.
    UNKNOWN is the answer when unsure; no heuristic ever upgrades it.
    """
    check_degree(d)
    return _statuses(d, [c], q_max, DEFAULT_EXP_CAP, sieve_cap).get(c, IrreducibilityStatus.IRREDUCIBLE)


def _disc_bits(d: int, c: int) -> int:
    """A lower bound on the bit length of |disc(c)| from those of d and c: |disc| >= K,
    and >= A |c|^(d-1) / 2 for c != 0 (see bounded_trinomials), and n >= 2^(n.bit_length() - 1)."""
    k, a = d - 1, abs(c).bit_length()
    return max(k * (k.bit_length() - 1), d * (d.bit_length() - 1) + k * (a - 1) - 1 if c else 0) + 1


def bounded_trinomials(d: int, X: int, *, sieve_cap: int = DEFAULT_SIEVE_CAP) -> range:
    """The c of every trinomial with |disc| < X: an interval of c.

    Write A = d^d and K = (d-1)^(d-1).  For a >= 1, |disc(a)| = A a^(d-1) - K,
    and |disc(-a)| is the same for odd d and A a^(d-1) + K for even d; both
    strictly increase in a.  |disc(0)| = K, and every |disc(c)| >= K, since
    A >= 2K makes A a^(d-1) - K >= K, and >= A a^(d-1) / 2.  So the hits are
    c = 0 when K < X; c = a for a <= r, the largest a with A a^(d-1) <= X + K - 1;
    and c = -a for a <= r, or for even d up to the largest a with
    A a^(d-1) <= X - K - 1: two integer roots, and no discriminant is formed
    (none at all once _disc_bits(d, 0) passes X.bit_length(), as then K > X).
    The 2r + 1 values |c| <= r are refused above sieve_cap first.
    """
    check_degree(d)
    if X < 1:
        raise ArgumentError(f"bound {X} must be at least 1")
    k, reach, below = d - 1, 0, 0
    hits = _disc_bits(d, 0) <= X.bit_length() and k**k < X
    if hits:
        A, K = d**d, k**k
        reach = integer_root((X + K - 1) // A, k)
        below = reach if d % 2 else integer_root(max(X - K - 1, 0) // A, k)
    stats.check_sieve_cap(2 * reach + 1, sieve_cap, f"|disc| < {X}: c count")
    return range(-below, reach + 1) if hits else range(0)


def _within_bound(count: int, d: int, X: int) -> bool:
    """count <= 4 * X^(d/(2d-2)) for X >= 1, decided in integers.

    A zero count forms no power of X, which at a large d would be huge.
    """
    return count == 0 or count ** (2 * d - 2) <= 4 ** (2 * d - 2) * X**d


def count_by_disc(
    d: int, X: int, *, q_max: int = DEFAULT_Q_MAX, exp_cap: int = DEFAULT_EXP_CAP, sieve_cap: int = DEFAULT_SIEVE_CAP
) -> FieldCountRow:
    """Count irreducible trinomials with |disc| < X, UNKNOWNs set aside.

    _statuses runs over bounded_trinomials' interval, q <= q_max; bound_ok
    records whether count <= 4 * X^(d/(2d-2)), compared exactly, and the
    exponent is reported as its exact ratio text.  A d above exp_cap, and a
    q_max or a c count above sieve_cap, is refused before any c is examined;
    sieve_cap also caps the root tables.
    """
    check_degree(d, exp_cap)
    stats.check_sieve_cap(q_max, sieve_cap)
    cs = bounded_trinomials(d, X, sieve_cap=sieve_cap)
    left = _statuses(d, cs, q_max, exp_cap, sieve_cap)
    count = len(cs) - len(left)
    unknown = sum(1 for status in left.values() if status is IrreducibilityStatus.UNKNOWN)
    return FieldCountRow(d, X, count, unknown, stats.ratio_text(d, 2 * d - 2), _within_bound(count, d, X))


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
    from fractions import Fraction  # imported here, so only a height count loads fractions

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

# The squares mod 64, 63, 65, 11, 17 and 19: one reduction mod their product,
# below 2^30, serves the six tests, which pass 1 in 430 non-squares.  Below
# _SCREEN_FROM math.isqrt alone is cheaper: a constant, not a setting.
_SQUARES_MOD = tuple((m, frozenset(x * x % m for x in range(m))) for m in (64, 63, 65, 11, 17, 19))
_SCREEN_FROM = 1 << 256


def _is_square(n: int) -> bool:
    """Whether n >= 0 is a perfect square, screened by residues before math.isqrt."""
    r = n % 931170240  # 64 * 63 * 65 * 11 * 17 * 19
    return all(r % m in squares for m, squares in _SQUARES_MOD) and math.isqrt(n) ** 2 == n


def _squarefree_by_trial(rem: int, trial_bound: int) -> bool | None:
    """Trial division's verdict on u, True/False or None when out of reach,
    from rem: u with each prime p <= min(B, u^(1/3)) divided out, none twice.

    Every prime factor of rem exceeds m = max(min(B, u^(1/3)), 1), so below
    (m + 1)^3 it has at most two: it is squarefree iff it is not a perfect
    square above 1.  As rem <= u < (u^(1/3) + 1)^3, that bound fails only
    when u^(1/3) >= B: every u < B^3 is decided, and a cofactor of at least
    (max(B, 1) + 1)^3 only when it is a perfect square.
    """
    square = math.isqrt(rem) ** 2 == rem if rem < _SCREEN_FROM else _is_square(rem)
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


def _disc_roots(d: int, p: int, sign: int = -1) -> list[int]:
    """The a mod p, ascending, with p | u(a) = A a^e + sign K, A = d^d, K = (d-1)^(d-1), e = d - 1.

    p | d leaves u = sign K, a unit: no root; p | e leaves A a^e: a = 0.
    Otherwise b = -sign K/A is a unit, g = gcd(e, p - 1), and a^e = b has a
    root iff b^((p-1)/g) = 1.  Then a^e = b iff a^g = b^s, s e = g mod p - 1,
    and its g roots come from _lth_roots, one prime l | g at a time: every
    l-th root of a g-th power is a (g/l)-th power, as g | p - 1.  So a
    prime costs O(log p) products for a fixed d, and no u(a) is formed.
    """
    e, q = d - 1, p - 1
    if d * e % p == 0:
        return [0] if e % p == 0 else []
    b, g = -sign * pow(e, e, p) * pow(d, -d, p) % p, math.gcd(e, q)
    if pow(b, q // g, p) != 1:
        return []
    roots = [pow(b, pow(e // g, -1, q // g), p)]
    while g > 1:
        l = ff._prime_factors(g)[0]
        roots, g = [y for x in roots for y in _lth_roots(x, l, p)], g // l
    return sorted(roots)


# The most a, and the most bits of their u(a), that _squarefree_verdicts holds
# at once (its memory; 2^26 bits, the least power of 2 that keeps nf --d 100000
# --squarefree 30 one window): constants, not settings.
_SQUAREFREE_WINDOW, _WINDOW_BITS = 1 << 14, 1 << 26


def _squarefree_verdicts(d: int, lo: int, hi: int, sign: int, trial_bound: int, primes: tuple[int, ...]):
    """The _squarefree_by_trial verdict on u(a) = |A a^(d-1) + sign K| for each a = lo, ..., hi >= 0, in order.

    A = d^d, K = (d-1)^(d-1); u(0) = K and A >= 2K, so u does not decrease
    and the a tested against p, u(a) >= p^3, start at a bisection point.
    Whether p | u(a) depends on a mod p, at the residues _disc_roots gives.
    In windows of at most _SQUAREFREE_WINDOW a and about _WINDOW_BITS bits,
    each prime in ascending order walks its roots: p^2 | u ends that a, else
    p leaves the cofactor for _squarefree_by_trial.
    """
    A, K, e = d**d, (d - 1) ** (d - 1), d - 1
    sK = sign * K
    # u(a) for a <= hi has at most A.bit_length() + e hi.bit_length() + 1 bits
    size = max(min(_SQUAREFREE_WINDOW, _WINDOW_BITS // (A.bit_length() + e * hi.bit_length())), 1)
    for first in range(lo, hi + 1, size):
        u = [A * a**e + sK for a in range(first, min(first + size, hi + 1))]
        if first == 0:
            u[0] = K
        rem: list[int | None] = u.copy()  # the cofactor, None once a square divides u
        for p in primes:
            start = bisect.bisect_left(u, p**3)  # p is tested on the a from here on
            if start == len(u):
                break
            for r in _disc_roots(d, p, sign):
                for i in range(start + (r - first - start) % p, len(u), p):
                    v = rem[i]
                    if v is not None:
                        v //= p
                        rem[i] = v if v % p else None
        for v in rem:
            yield v is not None and _squarefree_by_trial(v, trial_bound)
        del u, rem  # before the next window is built


# The most bits a |disc| that _squarefree_column sieves may have, past
# nf --d 100000 --squarefree 30 (2,151,649 bits): a constant, not a setting.
_SQUAREFREE_BITS = 1 << 22


def _squarefree_column(d: int, lo: int, hi: int, trial_bound: int, sieve_cap: int):
    """The squarefree verdict on |disc| of each c = lo, ..., hi, in order.

    |disc(c)| is u(|c|) with sign -1, but +1 for c < 0 of even d; the c < 0
    are sieved as a = -c and read back.  |disc(-a)| >= |disc(a)|, so |disc|
    is largest at the end of larger |c| (lo on a tie); the primes stop at
    min(B, its cube root), which is B where _disc_bits puts it past B^3.
    Where _disc_bits puts it past _SQUAREFREE_BITS, the interval is refused.
    """
    c, cube = max(lo, hi, key=abs), max(trial_bound, 0) ** 3
    if (bits := _disc_bits(d, c)) > _SQUAREFREE_BITS:
        raise CapError(f"|disc| for d = {d} and c = {c} has over {_SQUAREFREE_BITS} bits, the squarefree limit")
    top = cube if bits > cube.bit_length() else min(abs(closed_form_disc(d, c)), cube)
    primes = stats.prime_sieve(integer_root(top, 3), sieve_cap=sieve_cap)
    negative = _squarefree_verdicts(d, max(-hi, 1), -lo, 1 if d % 2 == 0 else -1, trial_bound, primes)
    return itertools.chain(reversed(list(negative)), _squarefree_verdicts(d, max(lo, 0), hi, -1, trial_bound, primes))


def squarefree_disc_fraction(d: int, limit: int, *, trial_bound: int = DEFAULT_TRIAL_BOUND,
                             exp_cap: int = DEFAULT_EXP_CAP, sieve_cap: int = DEFAULT_SIEVE_CAP) -> SquarefreeReport:
    """Fraction of c in [1, limit] whose |disc| is squarefree, by _squarefree_column.

    A squarefree polynomial discriminant means the ring generated by a root
    is maximal, the standard sufficient condition for monogenicity.  A c
    that trial division up to trial_bound cannot settle (never one with
    |disc| < trial_bound^3) is unknown, never squarefree.  A d above
    exp_cap, and a limit or a trial bound above sieve_cap, are refused
    before any work.  6/pi^2 is carried for display; no convergence is checked.
    """
    check_degree(d, exp_cap)
    if limit < 1:
        raise ArgumentError(f"limit {limit} must be at least 1")
    stats.check_sieve_cap(limit, sieve_cap, f"c in [1, {limit}]: c count")
    stats.check_sieve_cap(trial_bound, sieve_cap)
    tally = Counter(_squarefree_column(d, 1, limit, trial_bound, sieve_cap))
    return SquarefreeReport(d, limit, tally[True], tally[None], ZETA2_INV)


def trinomial_rows(d: int, lo: int, hi: int, *, q_max: int = DEFAULT_Q_MAX, trial_bound: int = DEFAULT_TRIAL_BOUND,
                   exp_cap: int = DEFAULT_EXP_CAP, sieve_cap: int = DEFAULT_SIEVE_CAP,
                   what: str | None = None) -> list[dict]:
    """The record of each c = lo, ..., hi for table output, each verdict one
    pass over the interval: _squarefree_column, first for its size rule, and
    _statuses.

    The height |c|^(1/d) is a float for display only.  Before any work, d
    meets exp_cap, the c count (named by what) sieve_cap, the largest |c|
    _check_c, and both prime lists sieve_cap; an empty interval stops after
    its count.
    """
    check_degree(d, exp_cap)
    stats.check_sieve_cap(hi - lo + 1, sieve_cap, f"{what or f'c in [{lo}, {hi}]'}: c count")
    if lo > hi:
        return []
    _check_c(d, max(lo, hi, key=abs))
    stats.check_sieve_cap(q_max, sieve_cap)
    stats.check_sieve_cap(trial_bound, sieve_cap)
    cs = range(lo, hi + 1)
    squarefree = _squarefree_column(d, lo, hi, trial_bound, sieve_cap)
    left = _statuses(d, cs, q_max, exp_cap, sieve_cap)
    cells = {None: "unknown", True: "true", False: "false"}
    return [
        {"d": d, "c": c, "disc": closed_form_disc(d, c), "height": abs(c) ** (1.0 / d),
         "irreducibility": left.get(c, IrreducibilityStatus.IRREDUCIBLE).value, "squarefree": cells[sf]}
        for c, sf in zip(cs, squarefree)
    ]


def trinomial_row(d: int, c: int, **options) -> dict:
    """The one-c view of trinomial_rows, which takes the same options."""
    return trinomial_rows(d, c, c, **options)[0]
