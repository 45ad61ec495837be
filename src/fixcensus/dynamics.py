"""Power maps z -> z^d + c on finite fields.

Fixed points of the map are the roots of z^d - z + c, and this module counts
them two independent ways on purpose: fixed_point_count scans every field
element, while gcd_root_count never enumerates the field at all and instead
measures deg gcd(z^d - z + c, z^q - z) in the quotient ring.  The two paths
share no code beyond basic field arithmetic, so their agreement on a grid is
a real consistency check, and the test suite enforces it.

Also here: the full functional-graph census (components, cycle structure,
tail depths) and exact integer fixed points of z^d + c on the integers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .ff import (
    DEFAULT_FIELD_CAP,
    CapError,
    FFElement,
    FieldCapError,
    FieldSpec,
    field_ops,
    is_prime,
)

__all__ = [
    "DEFAULT_EXP_CAP",
    "ExponentCapError",
    "Family",
    "MapSpec",
    "CensusRecord",
    "OrbitCensus",
    "IntegerRootReport",
    "eval_map",
    "fixed_point_count",
    "fixed_points",
    "count_profile",
    "gcd_root_count",
    "orbit_census",
    "classify_residue",
    "census_record",
    "integral_fixed_points",
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


@dataclass(frozen=True)
class MapSpec:
    """One map z -> z^d + c.

    c may be a plain integer (embedded through the prime subfield when the
    map is placed on a field) or a ready FFElement pinned to one field.
    """

    family: Family
    d: int
    c: int | FFElement
    p: int | None = None
    ell: int | None = None

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError(f"map degree {self.d} must be at least 2")
        if self.family is Family.PRIME_POWER:
            if self.p is None or self.ell is None or self.ell < 1 or not is_prime(self.p):
                raise ValueError("prime-power family needs a prime p and ell >= 1")
            if self.d != self.p**self.ell:
                raise ValueError("degree does not match p^ell")
        elif self.family is Family.P_MINUS_ONE:
            if self.p is None or self.ell is None or self.ell < 1 or not is_prime(self.p):
                raise ValueError("pminus1 family needs a prime p and ell >= 1")
            if self.p < 5:
                raise ValueError("pminus1 family needs p >= 5")
            if self.d != (self.p - 1) ** self.ell:
                raise ValueError("degree does not match (p-1)^ell")
        else:
            if self.p is not None or self.ell is not None:
                raise ValueError("raw family takes no p or ell")

    @classmethod
    def prime_power(cls, p: int, ell: int, c: int | FFElement) -> "MapSpec":
        return cls(Family.PRIME_POWER, p**ell, c, p, ell)

    @classmethod
    def p_minus_one(cls, p: int, ell: int, c: int | FFElement) -> "MapSpec":
        return cls(Family.P_MINUS_ONE, (p - 1) ** ell, c, p, ell)

    @classmethod
    def raw(cls, d: int, c: int | FFElement) -> "MapSpec":
        return cls(Family.RAW, d, c)

    def coefficient(self, fs: FieldSpec) -> FFElement:
        if isinstance(self.c, FFElement):
            if self.c.field != fs:
                raise ValueError("coefficient belongs to a different field")
            return self.c
        return fs.from_int(self.c)


@dataclass(frozen=True)
class CensusRecord:
    """One census row: a field, a map, and its exact fixed-point count."""

    p: int
    n: int
    ell: int | None
    family: str
    c_class: str
    c_repr: str
    fixed_count: int


@dataclass(frozen=True)
class OrbitCensus:
    """Functional-graph shape of one map on one field.

    Every component of a functional graph contains exactly one cycle;
    component_count therefore equals len(cycle_lengths).  tail length 0
    means the element already lies on a cycle.
    """

    component_count: int
    cycle_lengths: tuple[int, ...]
    fixed_point_count: int
    max_tail_length: int
    element_total: int
    component_sizes: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.component_count != len(self.cycle_lengths):
            raise ValueError("one cycle per component is violated")
        if self.fixed_point_count != self.cycle_lengths.count(1):
            raise ValueError("fixed points must equal the 1-cycles")
        if self.component_sizes and sum(self.component_sizes) != self.element_total:
            raise ValueError("component sizes must cover the whole field")

    def as_dict(self) -> dict:
        return {
            "components": self.component_count,
            "cycle_lengths": list(self.cycle_lengths),
            "fixed_points": self.fixed_point_count,
            "max_tail": self.max_tail_length,
        }


@dataclass(frozen=True)
class IntegerRootReport:
    """Integer fixed points of z -> z^d + c and the small-count flag."""

    roots: frozenset[int]
    at_most_four: bool


def _check_caps(fs: FieldSpec, d: int, field_cap: int | None, exp_cap: int) -> None:
    if field_cap is not None and fs.order > field_cap:
        raise FieldCapError(
            f"field order {fs.p}^{fs.n} = {fs.order} exceeds the cap {field_cap}"
        )
    if d > exp_cap:
        raise ExponentCapError(f"map degree {d} exceeds the exponent cap {exp_cap}")


def eval_map(fs: FieldSpec, m: MapSpec, z: FFElement) -> FFElement:
    """One application of the map: z^d + c."""
    if z.field != fs:
        raise ValueError("point belongs to a different field")
    return z**m.d + m.coefficient(fs)


def fixed_point_count(
    fs: FieldSpec,
    m: MapSpec,
    *,
    field_cap: int = DEFAULT_FIELD_CAP,
    exp_cap: int = DEFAULT_EXP_CAP,
) -> int:
    """Exact count of z with z^d + c = z, by scanning every element."""
    _check_caps(fs, m.d, field_cap, exp_cap)
    ops = field_ops(fs)
    target = ops.neg(ops.encode(m.coefficient(fs)))
    d = m.d
    powf, sub = ops.pow, ops.sub
    count = 0
    for z in range(ops.q):
        if sub(powf(z, d), z) == target:
            count += 1
    return count


def fixed_points(
    fs: FieldSpec,
    m: MapSpec,
    *,
    field_cap: int = DEFAULT_FIELD_CAP,
    exp_cap: int = DEFAULT_EXP_CAP,
) -> list[FFElement]:
    """The fixed points themselves, in enumeration order."""
    _check_caps(fs, m.d, field_cap, exp_cap)
    ops = field_ops(fs)
    target = ops.neg(ops.encode(m.coefficient(fs)))
    d = m.d
    powf, sub = ops.pow, ops.sub
    return [ops.decode(z) for z in range(ops.q) if sub(powf(z, d), z) == target]


def count_profile(
    fs: FieldSpec,
    d: int,
    *,
    field_cap: int = DEFAULT_FIELD_CAP,
    exp_cap: int = DEFAULT_EXP_CAP,
) -> list[int]:
    """Fixed-point counts for every coefficient at once.

    profile[i] is the fixed-point count of z -> z^d + c where c is the
    element with enumeration index i: one scan over the field histograms
    z - z^d, which is the unique c putting z among the fixed points.
    """
    if d < 2:
        raise ValueError(f"map degree {d} must be at least 2")
    _check_caps(fs, d, field_cap, exp_cap)
    ops = field_ops(fs)
    profile = [0] * ops.q
    powf, sub = ops.pow, ops.sub
    for z in range(ops.q):
        profile[sub(z, powf(z, d))] += 1
    return profile


# ---------------------------------------------------------------------------
# The independent counter: polynomial gcd in F_q[z] against z^q - z.  The
# number of distinct roots of monic f in F_q equals deg gcd(f, z^q - z); we
# compute z^q mod f by square and multiply, using the sparse reduction
# z^d = z - c available for the trinomial f = z^d - z + c.

def _poly_trim(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _poly_mul(a: list[int], b: list[int], ops) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    add, mul = ops.add, ops.mul
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    k = i + j
                    out[k] = add(out[k], mul(ai, bj))
    return out


def _reduce_by_trinomial(cs: list[int], d: int, c_idx: int, ops) -> list[int]:
    """In place: rewrite z^j (j >= d) via z^d = z - c until deg < d."""
    add, sub, mul = ops.add, ops.sub, ops.mul
    while len(cs) > d:
        a = cs.pop()
        if a:
            j = len(cs)  # degree of the popped term
            cs[j - d + 1] = add(cs[j - d + 1], a)
            cs[j - d] = sub(cs[j - d], mul(a, c_idx))
    return _poly_trim(cs)


def _powmod_x(e: int, d: int, c_idx: int, ops) -> list[int]:
    """z^e mod (z^d - z + c), most significant bit first."""
    res = [1]
    for bit in bin(e)[2:]:
        res = _reduce_by_trinomial(_poly_mul(res, res, ops), d, c_idx, ops)
        if bit == "1":
            res.insert(0, 0)
            res = _reduce_by_trinomial(res, d, c_idx, ops)
    return res


def _poly_rem(a: list[int], b: list[int], ops) -> list[int]:
    r = list(a)
    db = len(b) - 1
    inv_lead = ops.inv(b[-1])
    sub, mul = ops.sub, ops.mul
    while len(r) - 1 >= db:
        lead = r[-1]
        if lead:
            coef = mul(lead, inv_lead)
            shift = len(r) - 1 - db
            for k in range(db):
                bk = b[k]
                if bk:
                    r[shift + k] = sub(r[shift + k], mul(coef, bk))
        r.pop()
    return _poly_trim(r)


def _poly_gcd(a: list[int], b: list[int], ops) -> list[int]:
    a = _poly_trim(list(a))
    b = _poly_trim(list(b))
    while b:
        a, b = b, _poly_rem(a, b, ops)
    if a and a[-1] != 1:
        il = ops.inv(a[-1])
        a = [ops.mul(x, il) for x in a]
    return a


def gcd_root_count(
    fs: FieldSpec,
    m: MapSpec,
    *,
    exp_cap: int = DEFAULT_EXP_CAP,
) -> int:
    """Exact count of z with z^d + c = z, without enumerating the field.

    Counts distinct roots of f = z^d - z + c as deg gcd(f, z^q - z); no
    field cap applies because the work is polynomial in d and log q.
    """
    _check_caps(fs, m.d, None, exp_cap)
    ops = field_ops(fs)
    d = m.d
    c_idx = ops.encode(m.coefficient(fs))
    r = _powmod_x(fs.order, d, c_idx, ops)  # z^q mod f
    h = list(r)
    while len(h) < 2:
        h.append(0)
    h[1] = ops.sub(h[1], 1)  # h = z^q - z mod f
    h = _poly_trim(h)
    if not h:
        return d
    f_poly = [c_idx, ops.neg(1)] + [0] * (d - 2) + [1]
    g = _poly_gcd(f_poly, h, ops)
    return len(g) - 1


def orbit_census(
    fs: FieldSpec,
    m: MapSpec,
    *,
    field_cap: int = DEFAULT_FIELD_CAP,
    exp_cap: int = DEFAULT_EXP_CAP,
) -> OrbitCensus:
    """Full functional-graph decomposition of the map on the field.

    Walks each unvisited element forward until it hits either a fresh cycle
    or already-finished territory, then unwinds the pending path backwards
    so every element learns its component and tail depth.  Linear in q.
    """
    _check_caps(fs, m.d, field_cap, exp_cap)
    ops = field_ops(fs)
    q = ops.q
    d = m.d
    c_idx = ops.encode(m.coefficient(fs))
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


def classify_residue(fs: FieldSpec, c: FFElement) -> str:
    """Census label of a coefficient: "0", "1", "-1", or "other".

    Checked in that order; in characteristic 2 the classes 1 and -1
    coincide and the label "1" wins.
    """
    if c.field != fs:
        raise ValueError("coefficient belongs to a different field")
    if c.is_zero:
        return "0"
    if c == fs.one:
        return "1"
    if c == fs.from_int(-1):
        return "-1"
    return "other"


def census_record(
    fs: FieldSpec,
    m: MapSpec,
    *,
    field_cap: int = DEFAULT_FIELD_CAP,
    exp_cap: int = DEFAULT_EXP_CAP,
) -> CensusRecord:
    c = m.coefficient(fs)
    return CensusRecord(
        p=fs.p,
        n=fs.n,
        ell=m.ell,
        family=m.family.value,
        c_class=classify_residue(fs, c),
        c_repr=str(c),
        fixed_count=fixed_point_count(fs, m, field_cap=field_cap, exp_cap=exp_cap),
    )


def _divisors(u: int) -> list[int]:
    out = []
    k = 1
    while k * k <= u:
        if u % k == 0:
            out.append(k)
            if k != u // k:
                out.append(u // k)
        k += 1
    return out


def integral_fixed_points(d: int, c: int) -> IntegerRootReport:
    """All integers z with z^d + c = z, exactly.

    Any integer root of the monic z^d - z + c divides c, so for c != 0 it
    suffices to test the divisors of |c| with both signs; for c = 0 the
    roots are 0, 1 and, for odd d, -1.  The report also flags whether the
    count stays within four, which is recorded rather than assumed.
    """
    if d < 2:
        raise ValueError(f"map degree {d} must be at least 2")
    if c == 0:
        roots = {0, 1, -1} if d % 2 else {0, 1}
    else:
        roots = set()
        for v in _divisors(abs(c)):
            for z in (v, -v):
                if z**d - z + c == 0:
                    roots.add(z)
    return IntegerRootReport(frozenset(roots), len(roots) <= 4)
