"""Power maps z -> z^d + c on finite fields.

Fixed points of the map are the roots of z^d - z + c, and this module counts
them two independent ways on purpose.  The scan side is count_profile: one
pass over the field computes z - z^d for every z, which is the one
coefficient c that makes z a fixed point, so its histogram answers every c
at once; fixed_point_count and fixed_points read the same scan for a single
c.  The gcd side, gcd_root_count, never enumerates the field at all and
instead measures deg gcd(z^d - z + c, z^q - z) in the quotient ring.  The
two sides share no arithmetic engine either: the scan runs on the index
tables of ff.field_ops, the gcd side on FFElement operators.  So their
agreement on a grid is a real consistency check, and the test suite
enforces it.

Also here: the full functional-graph census (components, cycle structure,
tail depths) and exact integer fixed points of z^d + c on the integers.
"""

from __future__ import annotations

import enum
import operator
from collections.abc import Iterator
from typing import NamedTuple

from .ff import (
    DEFAULT_FIELD_CAP,
    ArgumentError,
    CapError,
    FFElement,
    FieldCapError,
    FieldSpec,
    _Value,
    check_field,
    field_ops,
    is_prime,
)

__all__ = [
    "DEFAULT_EXP_CAP",
    "ExponentCapError",
    "Family",
    "capped_degree",
    "CensusRecord",
    "OrbitCensus",
    "fixed_point_count",
    "fixed_points",
    "count_profile",
    "gcd_root_count",
    "orbit_census",
    "classify_residue",
    "integral_fixed_points",
    "integer_root",
]

# Degrees above this are refused: a scan costs up to O(q log d) and the gcd
# engine O(d^2 log q), so a runaway exponent hurts long before a runaway
# field does.
DEFAULT_EXP_CAP = 10**6


class ExponentCapError(CapError):
    """The map degree d exceeds the configured exponent cap."""


class Family(enum.Enum):
    """How the degree d is generated from the field data."""

    PRIME_POWER = "prime-power"  # d = p^ell
    P_MINUS_ONE = "pminus1"      # d = (p-1)^ell, p >= 5
    RAW = "raw"                  # d given directly

    def __str__(self) -> str:
        return self.value

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

    Every component of a functional graph contains exactly one cycle;
    component_count therefore equals len(cycle_lengths).  tail length 0
    means the element already lies on a cycle.
    """

    __slots__ = (
        "component_count", "cycle_lengths", "fixed_point_count", "max_tail_length",
        "element_total", "component_sizes",
    )
    component_count: int
    cycle_lengths: tuple[int, ...]
    fixed_point_count: int
    max_tail_length: int
    element_total: int
    component_sizes: tuple[int, ...]

    def __init__(
        self, component_count: int, cycle_lengths: tuple[int, ...], fixed_point_count: int,
        max_tail_length: int, element_total: int, component_sizes: tuple[int, ...] = (),
    ) -> None:
        if component_count != len(cycle_lengths):
            raise ValueError("one cycle per component is violated")
        if fixed_point_count != cycle_lengths.count(1):
            raise ValueError("fixed points must equal the 1-cycles")
        if component_sizes and sum(component_sizes) != element_total:
            raise ValueError("component sizes must cover the whole field")
        self._init(
            component_count, cycle_lengths, fixed_point_count, max_tail_length,
            element_total, component_sizes,
        )

    def as_dict(self) -> dict:
        return {
            "components": self.component_count,
            "cycle_lengths": list(self.cycle_lengths),
            "fixed_points": self.fixed_point_count,
            "max_tail": self.max_tail_length,
        }


def capped_degree(
    p: int, n: int, family: Family, k: int, *,
    field_cap: int | None = DEFAULT_FIELD_CAP, exp_cap: int = DEFAULT_EXP_CAP,
) -> int:
    """family.degree(p, k), once it and the order p^n pass the caps: the one cap rule.

    The counters call it with Family.RAW and their degree, the commands
    before any field is built.  Checked in order: the family's arguments,
    the field's, d >= 2, the field cap (None: none), the exponent cap.  As a
    base is at least 2, an exponent above a cap's bit length exceeds it, so
    no power is formed far past its cap; such a degree is written base^k.
    """
    # family.degree(p, 1) runs the family's checks and gives the base (k < 1 fails them)
    base = None if family is Family.RAW else family.degree(p, min(k, 1))
    check_field(p, n)
    if base is None and k < 2:
        raise ArgumentError(f"map degree {k} must be at least 2")
    if field_cap is not None and (n > field_cap.bit_length() or p**n > field_cap):
        raise FieldCapError(f"field order {p}^{n} exceeds the cap {field_cap}")
    d = k if base is None else base**k if k <= exp_cap.bit_length() else None
    if d is None or d > exp_cap:
        shown = f"{base}^{k}" if d is None else d
        raise ExponentCapError(f"map degree {shown} exceeds the exponent cap {exp_cap}")
    return d


def _coefficient_index(fs: FieldSpec, c: int | FFElement) -> int:
    """The enumeration index of c in fs: an integer is embedded through the
    prime subfield, an element must belong to fs."""
    if not isinstance(c, FFElement):
        return fs.from_int(c).index
    if c.field != fs:
        raise ArgumentError("coefficient belongs to a different field")
    return c.index


def _scan(fs: FieldSpec, d: int, field_cap: int, exp_cap: int) -> Iterator[int]:
    """z - z^d for every z in index order, as element indexes.

    z - z^d is the one coefficient c that makes z a fixed point of
    z -> z^d + c.  The caps are checked before the first element.
    """
    capped_degree(fs.p, fs.n, Family.RAW, d, field_cap=field_cap, exp_cap=exp_cap)
    ops = field_ops(fs)
    powf, sub = ops.pow, ops.sub
    return (sub(z, powf(z, d)) for z in range(ops.q))


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
    scan = _scan(fs, d, field_cap, exp_cap)
    return operator.countOf(scan, _coefficient_index(fs, c))


def fixed_points(
    fs: FieldSpec,
    d: int,
    c: int | FFElement,
    *,
    field_cap: int = DEFAULT_FIELD_CAP,
    exp_cap: int = DEFAULT_EXP_CAP,
) -> list[FFElement]:
    """The fixed points of z^d + c themselves, in enumeration order."""
    scan = _scan(fs, d, field_cap, exp_cap)
    target = _coefficient_index(fs, c)
    return [fs.element_at(z) for z, t in enumerate(scan) if t == target]


def count_profile(
    fs: FieldSpec,
    d: int,
    *,
    field_cap: int = DEFAULT_FIELD_CAP,
    exp_cap: int = DEFAULT_EXP_CAP,
) -> list[int]:
    """Fixed-point counts for every coefficient at once.

    profile[i] is the fixed-point count of z -> z^d + c where c is the
    element with enumeration index i: the histogram of one scan.
    """
    scan = _scan(fs, d, field_cap, exp_cap)
    profile = [0] * fs.order
    for c in scan:
        profile[c] += 1
    return profile


# ---------------------------------------------------------------------------
# The independent counter: polynomial gcd in F_q[z] against z^q - z, computed
# on FFElement arithmetic so that it shares no engine with the scan.  The
# number of distinct roots of f in F_q equals deg gcd(f, z^q - z); we compute
# z^q mod f by square and multiply, using the sparse reduction z^d = z - c
# available for the trinomial f = z^d - z + c.  Polynomials are lists of
# elements, lowest degree first.

def _poly_trim(cs: list[FFElement]) -> list[FFElement]:
    while cs and cs[-1].is_zero:
        cs.pop()
    return cs


def _poly_mul(a: list[FFElement], b: list[FFElement]) -> list[FFElement]:
    if not a or not b:
        return []
    out = [a[0].field.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai.is_zero:
            for j, bj in enumerate(b):
                if not bj.is_zero:
                    out[i + j] = out[i + j] + ai * bj
    return out


def _reduce_by_trinomial(cs: list[FFElement], d: int, c: FFElement) -> list[FFElement]:
    """In place: rewrite z^j (j >= d) via z^d = z - c until deg < d."""
    while len(cs) > d:
        a = cs.pop()
        if not a.is_zero:
            j = len(cs)  # degree of the popped term
            cs[j - d + 1] = cs[j - d + 1] + a
            cs[j - d] = cs[j - d] - a * c
    return _poly_trim(cs)


def _powmod_x(e: int, d: int, c: FFElement) -> list[FFElement]:
    """z^e mod (z^d - z + c), most significant bit first."""
    res = [c.field.one]
    for bit in bin(e)[2:]:
        res = _reduce_by_trinomial(_poly_mul(res, res), d, c)
        if bit == "1":
            res.insert(0, c.field.zero)
            res = _reduce_by_trinomial(res, d, c)
    return res


def _poly_rem(a: list[FFElement], b: list[FFElement]) -> list[FFElement]:
    r = list(a)
    db = len(b) - 1
    inv_lead = b[-1] ** (b[-1].field.order - 2)
    while len(r) - 1 >= db:
        lead = r[-1]
        if not lead.is_zero:
            coef = lead * inv_lead
            shift = len(r) - 1 - db
            for k in range(db):
                bk = b[k]
                if not bk.is_zero:
                    r[shift + k] = r[shift + k] - coef * bk
        r.pop()
    return _poly_trim(r)


def _poly_gcd(a: list[FFElement], b: list[FFElement]) -> list[FFElement]:
    """A gcd of trimmed a and b, not normalised: only its degree is read."""
    while b:
        a, b = b, _poly_rem(a, b)
    return a


def gcd_root_count(
    fs: FieldSpec,
    d: int,
    c: int | FFElement,
    *,
    exp_cap: int = DEFAULT_EXP_CAP,
) -> int:
    """Exact count of z with z^d + c = z, without enumerating the field.

    Counts distinct roots of f = z^d - z + c as deg gcd(f, z^q - z); no
    field cap applies because the work is polynomial in d and log q.
    """
    capped_degree(fs.p, fs.n, Family.RAW, d, field_cap=None, exp_cap=exp_cap)
    c = fs.element_at(_coefficient_index(fs, c))
    h = _powmod_x(fs.order, d, c)  # z^q mod f
    h += [fs.zero] * (2 - len(h))
    h[1] = h[1] - fs.one  # h = z^q - z mod f
    h = _poly_trim(h)
    if not h:
        return d
    f_poly = [c, -fs.one] + [fs.zero] * (d - 2) + [fs.one]
    return len(_poly_gcd(f_poly, h)) - 1


def orbit_census(
    fs: FieldSpec,
    d: int,
    c: int | FFElement,
    *,
    field_cap: int = DEFAULT_FIELD_CAP,
    exp_cap: int = DEFAULT_EXP_CAP,
) -> OrbitCensus:
    """Full functional-graph decomposition of the map on the field.

    Walks each unvisited element forward until it hits either a fresh cycle
    or already-finished territory, then unwinds the pending path backwards
    so every element learns its component and tail depth.  Linear in q.
    """
    capped_degree(fs.p, fs.n, Family.RAW, d, field_cap=field_cap, exp_cap=exp_cap)
    c_idx = _coefficient_index(fs, c)
    ops = field_ops(fs)
    q = ops.q
    powf, add = ops.pow, ops.add
    succ = [add(powf(z, d), c_idx) for z in range(q)]

    NEW, ACTIVE, DONE = 0, 1, 2
    state = bytearray(q)
    tail = [0] * q
    comp = [0] * q
    cycle_lengths: list[int] = []
    comp_sizes: list[int] = []

    for s in range(q):
        if state[s]:
            continue
        path: list[int] = []
        v = s
        while state[v] == NEW:
            state[v] = ACTIVE
            path.append(v)
            v = succ[v]
        if state[v] == ACTIVE:
            # closed a brand-new cycle along the current path
            k = path.index(v)
            cid = len(cycle_lengths)
            cycle_lengths.append(len(path) - k)
            comp_sizes.append(len(path) - k)
            for u in path[k:]:
                state[u] = DONE
                comp[u] = cid
                tail[u] = 0
            rest = path[:k]
        else:
            cid = comp[v]
            rest = path
        for i in range(len(rest) - 1, -1, -1):
            u = rest[i]
            state[u] = DONE
            comp[u] = cid
            tail[u] = tail[succ[u]] + 1
        comp_sizes[cid] += len(rest)

    return OrbitCensus(
        component_count=len(cycle_lengths),
        cycle_lengths=tuple(sorted(cycle_lengths)),
        fixed_point_count=cycle_lengths.count(1),
        max_tail_length=max(tail) if q else 0,
        element_total=q,
        component_sizes=tuple(sorted(comp_sizes)),
    )


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
    if d < 2:
        raise ArgumentError(f"map degree {d} must be at least 2")
    if c == 0:
        return frozenset({0, 1, -1} if d % 2 else {0, 1})
    r = integer_root(abs(c), d)
    return frozenset(z for z in (r, -r, r + 1, -r - 1) if z**d - z + c == 0)
