"""Power maps z -> z^d + c on finite fields.

Fixed points of the map are the roots of z^d - z + c, and this module counts
them with two engines.  The scan: one pass over the field computes z - z^d
for every z, the one coefficient c that makes z a fixed point, so its
histogram (count_profile) answers every c at once, and fixed_point_count
counts one c on the same scan.  The linear side serves d = p^ell, where
z -> z^d + c is Frob^ell + c, an F_p-affine map: count_profile and
orbit_census use it for those d, by a trace to a subfield.  The scan runs on
the index tables of ff.field_ops, the linear side on FFElement operators.
fixed_point_count stays a scan for every d, so the scan is the reference
the test suite holds the linear engine to, and the tests hold both to a
brute force and to a gcd oracle.

Also here: the functional-graph census (its cycles and its longest tail)
and exact integer fixed points of z^d + c on the integers.
"""

from __future__ import annotations

import math
import operator
from array import array
from collections.abc import Iterator
from itertools import compress
from typing import NamedTuple

from .ff import (
    DEFAULT_FIELD_CAP,
    ArgumentError,
    CapError,
    FFElement,
    FieldCapError,
    FieldSpec,
    _Label,
    _table_typecode,
    _Value,
    check_field,
    field_ops,
    is_prime,
)

__all__ = [
    "DEFAULT_EXP_CAP",
    "ExponentCapError",
    "Family",
    "check_degree",
    "capped_degree",
    "CensusRecord",
    "OrbitCensus",
    "fixed_point_count",
    "count_profile",
    "orbit_census",
    "classify_residue",
    "integral_fixed_points",
    "integer_root",
]

# Degrees above this are refused: a scan costs up to O(q log d), but an nf
# certificate takes d/2 gcds of degree-d polynomials, so a runaway exponent
# hurts long before a runaway field does.
DEFAULT_EXP_CAP = 10**6


class ExponentCapError(CapError):
    """The map degree d exceeds the configured exponent cap."""


class Family(_Label):
    """How the degree d is generated from the field data."""

    PRIME_POWER = "prime-power"  # d = p^ell
    P_MINUS_ONE = "pminus1"      # d = (p-1)^ell, p >= 5
    RAW = "raw"                  # d given directly

    def degree(self, p: int, k: int) -> int:
        """The map degree of exponent k at the prime p: p^k for prime-power,
        (p-1)^k for pminus1 (p >= 5), and k itself for raw (p unused)."""
        if self is Family.RAW:
            return k
        if k < 1 or not is_prime(p):
            raise ArgumentError(f"{self} family needs a prime p and ell >= 1")
        if self is Family.P_MINUS_ONE and p < 5:
            raise ArgumentError("pminus1 family needs p >= 5")
        return (p if self is Family.PRIME_POWER else p - 1) ** k


class CensusRecord(NamedTuple):
    """One census row: a field, a map, and its exact fixed-point count."""

    p: int
    n: int
    ell: int | None
    family: str
    c_class: str
    c_repr: str
    fixed_count: int


class OrbitCensus(_Value):
    """Functional-graph shape of one map on one field.

    Every component of a functional graph contains exactly one cycle, so
    the components and the fixed points (the 1-cycles) are read off
    cycle_lengths.  tail length 0 means the element already lies on a cycle.
    """

    __slots__ = ("cycle_lengths", "max_tail_length")
    cycle_lengths: tuple[int, ...]
    max_tail_length: int

    def __init__(self, cycle_lengths: tuple[int, ...], max_tail_length: int) -> None:
        if min(cycle_lengths, default=1) < 1 or max_tail_length < 0:
            raise ValueError("cycle lengths must be at least 1 and the longest tail at least 0")
        self._init(cycle_lengths, max_tail_length)

    @property
    def component_count(self) -> int:
        return len(self.cycle_lengths)

    @property
    def fixed_point_count(self) -> int:
        return self.cycle_lengths.count(1)

    def as_dict(self) -> dict:
        return {
            "components": self.component_count,
            "cycle_lengths": list(self.cycle_lengths),
            "fixed_points": self.fixed_point_count,
            "max_tail": self.max_tail_length,
        }


def check_degree(k: int, exp_cap: int | None = None, base: int | None = None) -> int:
    """The map degree base^k (k for no base; a base needs exp_cap), once it
    passes the one degree rule: at least 2, and at most exp_cap when one is
    given.  As a base is at least 2, an exponent above the cap's bit length
    exceeds the cap, so no power is formed far past it; such a degree is
    written base^k.
    """
    d = k if base is None else base**k if k <= exp_cap.bit_length() else None
    if d is not None and d < 2:
        raise ArgumentError(f"map degree {d} must be at least 2")
    if exp_cap is not None and (d is None or d > exp_cap):
        shown = f"{base}^{k}" if d is None else d
        raise ExponentCapError(f"map degree {shown} exceeds the exponent cap {exp_cap}")
    return d


def capped_degree(
    p: int, n: int, family: Family, k: int, *,
    field_cap: int = DEFAULT_FIELD_CAP, exp_cap: int = DEFAULT_EXP_CAP,
) -> int:
    """family.degree(p, k), once it and the order p^n pass the caps: the one cap rule.

    The counters call it with Family.RAW and their degree, the commands
    before any field is built.  Checked in order: the family's arguments,
    the field's, a raw d >= 2, the field cap, then
    check_degree with the exponent cap.
    """
    # family.degree(p, 1) runs the family's checks and gives the base (k < 1 fails them)
    base = None if family is Family.RAW else family.degree(p, min(k, 1))
    check_field(p, n)
    if base is None:
        check_degree(k)
    if n > field_cap.bit_length() or p**n > field_cap:
        raise FieldCapError(f"field order {p}^{n} exceeds the cap {field_cap}")
    return check_degree(k, exp_cap, base)


def _coefficient_index(fs: FieldSpec, c: int | FFElement) -> int:
    """The enumeration index of c in fs: an integer is embedded through the
    prime subfield, an element must belong to fs."""
    if not isinstance(c, FFElement):
        return c % fs.p  # the index of from_int(c), by element_at's contract
    if c.field != fs:
        raise ArgumentError("coefficient belongs to a different field")
    return c.index


def _scan(fs: FieldSpec, d: int) -> Iterator[int]:
    """z - z^d for every z in index order, as element indexes: the one
    coefficient c that makes z a fixed point of z -> z^d + c."""
    return field_ops(fs).images(d, fs.p - 1, 1, 1)  # p - 1 is the index of -1


def fixed_point_count(
    fs: FieldSpec,
    d: int,
    c: int | FFElement,
    *,
    field_cap: int = DEFAULT_FIELD_CAP,
    exp_cap: int = DEFAULT_EXP_CAP,
) -> int:
    """Exact count of z with z^d + c = z, by scanning every element.

    c is an integer (embedded through the prime subfield) or an element of fs.
    """
    capped_degree(fs.p, fs.n, Family.RAW, d, field_cap=field_cap, exp_cap=exp_cap)
    return operator.countOf(_scan(fs, d), _coefficient_index(fs, c))


def count_profile(
    fs: FieldSpec,
    d: int,
    *,
    field_cap: int = DEFAULT_FIELD_CAP,
    exp_cap: int = DEFAULT_EXP_CAP,
) -> list[int]:
    """Fixed-point counts for every coefficient at once.

    profile[i] is the fixed-point count of z -> z^d + c where c is the
    element with enumeration index i: the histogram of one scan, or for
    d = p^ell the linear rule of _affine_profile.
    """
    capped_degree(fs.p, fs.n, Family.RAW, d, field_cap=field_cap, exp_cap=exp_cap)
    if (ell := _frobenius_exponent(fs.p, d)) is not None:
        return _affine_profile(fs, ell)
    profile = [0] * fs.order
    for c in _scan(fs, d):
        profile[c] += 1
    return profile


# ---------------------------------------------------------------------------
# The linear counter for d = p^ell.  Frob: z -> z^p is F_p-linear, so
# A(z) = Frob^ell(z) + c is an affine bijection, and A^k(z) = Frob^(ell k)(z)
# + s_k with s_k = sum_{i<k} Frob^(ell i)(c).  A^k fixes the p^g points of
# ker(Frob^(ell k) - 1), g = gcd(n, ell k), when s_k lies in its image, the
# kernel of the trace Tr_{n->g}, and none otherwise (Lidl & Niederreiter,
# 2.3).  Both counters and stats._prime_power_count decide by that trace.

def _frobenius_exponent(p: int, d: int) -> int | None:
    """The ell with d = p^ell, or None when d is not a power of p."""
    return next((ell for ell in range(1, d.bit_length() + 1) if p**ell == d), None)


def _trace(x: FFElement, g: int) -> FFElement:
    """Tr_{n->g}(x) for g dividing n: the sum of x^(p^(g i)) for i < n/g."""
    fs, total = x.field, x
    for _ in range(fs.n // g - 1):
        x = x ** fs.p**g
        total = total + x
    return total


def _affine_profile(fs: FieldSpec, ell: int) -> list[int]:
    """count_profile for d = p^ell: p^g at each c with Tr_{n->g}(c) = 0,
    g = gcd(n, ell), and 0 elsewhere.  The nonzero rows of the matrix whose
    column j is Tr(t^j) are evaluated on the low and the high half of the
    index digits apart, and c = low + high is a hit where the two agree;
    only the profile has more than about sqrt(q) entries."""
    p, n, g = fs.p, fs.n, math.gcd(fs.n, ell)
    columns = [_trace(fs.element((0,) * j + (1,)), g).coeffs for j in range(n)]
    rows = [w for w in zip(*columns) if any(w)]
    hit = p**g

    def codes(digits: range, sign: int) -> list[int]:
        # sign * (w.x for each row w), packed base p, for each x with digits in the range only
        packed = [0] * p ** len(digits)
        for k, w in enumerate(rows):
            values = [0]
            for j in digits:
                values = [(u + sign * a * w[j]) % p for a in range(p) for u in values]
            packed = [code + u * p**k for code, u in zip(packed, values)]
        return packed

    low, high = codes(range(n // 2), 1), codes(range(n // 2, n), -1)
    where: dict[int, list[int]] = {}  # a low code -> its low indexes
    for i, code in enumerate(low):
        where.setdefault(code, []).append(i)
    profile = [0] * fs.order
    for base, code in zip(range(0, fs.order, len(low)), high):
        for i in where.get(code, ()):
            profile[base + i] = hit
    return profile


def _affine_orbits(fs: FieldSpec, ell: int, c: int) -> OrbitCensus:
    """orbit_census for d = p^ell and the coefficient of index c.  Frob^ell
    has order m = n / gcd(n, ell), so A^m is the translation by s_m = Tr(c)
    and every cycle length divides p m.  For each divisor k, |Fix(A^k)| (by
    the trace of s_k) less the points of each smaller period dividing k have
    period exactly k."""
    p, m = fs.p, fs.n // math.gcd(fs.n, ell)
    x, partial = fs.element_at(c), [fs.zero]
    for _ in range(m):  # partial[k] = s_k
        partial.append(partial[-1] + x)
        x = x ** p**ell
    exact, lengths = {}, ()  # by cycle length: the points, the cycle list
    for k in sorted({a * b for a in (1, p) for b in range(1, m + 1) if m % b == 0}):
        g = math.gcd(fs.n, ell * k)
        s = fs.from_int(k // m) * partial[m] + partial[k % m]
        fixed = p**g if _trace(s, g).is_zero else 0
        exact[k] = fixed - sum(count for j, count in exact.items() if k % j == 0)
        lengths += (k,) * (exact[k] // k)
    return OrbitCensus(lengths, 0)


def orbit_census(
    fs: FieldSpec,
    d: int,
    c: int | FFElement,
    *,
    field_cap: int = DEFAULT_FIELD_CAP,
    exp_cap: int = DEFAULT_EXP_CAP,
) -> OrbitCensus:
    """Full functional-graph decomposition of the map on the field.

    Peels the graph (Kahn's topological sort): each layer removes the
    elements that nothing left maps to, so what remains are the cycles, and
    the number of layers is the longest tail.  One walk round each remaining
    cycle gives its length: linear in q, on two arrays of q entries.  A
    d = p^ell is counted by _affine_orbits instead, without a walk.
    """
    capped_degree(fs.p, fs.n, Family.RAW, d, field_cap=field_cap, exp_cap=exp_cap)
    if (ell := _frobenius_exponent(fs.p, d)) is not None:
        return _affine_orbits(fs, ell, _coefficient_index(fs, c))
    q, typecode = fs.order, _table_typecode(fs.order)
    succ = array(typecode, field_ops(fs).images(d, 1, _coefficient_index(fs, c), 0))
    indegree = array(typecode, [0]) * q
    for v in succ:
        indegree[v] += 1
    layer, layers = array(typecode, compress(range(q), map(operator.not_, indegree))), 0
    while layer:
        layers, removed, layer = layers + 1, layer, array(typecode)
        for u in removed:
            v = succ[u]
            indegree[v] -= 1
            if not indegree[v]:
                layer.append(v)
    cycle_lengths = []
    for v in compress(range(q), indegree):  # read as it goes, so a cycle already walked (0) is passed
        length = 0
        while indegree[v]:
            indegree[v] = 0
            v, length = succ[v], length + 1
        cycle_lengths.append(length)
    return OrbitCensus(tuple(sorted(cycle_lengths)), layers)


def classify_residue(p: int, index: int) -> str:
    """Census label of the coefficient at enumeration position index in a
    field of characteristic p: "0", "1", "-1", or "other".

    The prime subfield holds indexes 0 to p - 1 in every F_{p^n}, so 0, 1
    and p - 1 are the elements 0, 1 and -1.  Checked in that order; in
    characteristic 2 the classes 1 and -1 coincide and the label "1" wins.
    """
    if index == 0:
        return "0"
    if index == 1:
        return "1"
    if index == p - 1:
        return "-1"
    return "other"


def integer_root(u: int, d: int) -> int:
    """floor(u^(1/d)) for u >= 0 and d >= 1, decided in integers.

    Integer Newton steps descend from any start at or above the root and
    stop exactly at the floor; the start, 2^ceil(bits/d), is within a
    factor 2 above it.  No float is involved.
    """
    if u < 0 or d < 1:
        raise ArgumentError(f"integer root needs u >= 0 and d >= 1, got u = {u}, d = {d}")
    if u.bit_length() <= d:  # u < 2^d, so the root is 0 or 1
        return min(u, 1)
    x = 1 << -(-u.bit_length() // d)
    while True:
        y = ((d - 1) * x + u // x ** (d - 1)) // d
        if y >= x:
            return x
        x = y


def integral_fixed_points(d: int, c: int) -> frozenset[int]:
    """All integers z with z^d + c = z, exactly.

    For c = 0 the roots are 0, 1 and, for odd d, -1.  For c != 0 a root z
    has w = |z| >= 1 and w^d - w <= |c| <= w^d + w.  Let r be the integer
    d-th root of |c|.  As w^d + w < (w + 1)^d, a w <= r - 1 has
    w^d + w < r^d <= |c|; as (w + 1)^d - (w + 1) >= w^d for w >= 1, a
    w >= r + 2 has w^d - w >= (r + 1)^d > |c|.  So z is one of r, -r, r + 1,
    -r - 1, each tested exactly, so there are at most four roots.
    """
    check_degree(d)
    if c == 0:
        return frozenset({0, 1, -1} if d % 2 else {0, 1})
    r = integer_root(abs(c), d)
    return frozenset(z for z in (r, -r, r + 1, -r - 1) if z**d - z + c == 0)
