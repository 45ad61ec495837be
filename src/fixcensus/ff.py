"""Exact arithmetic in prime fields F_p and extension fields F_{p^n}.

F_{p^n} is realised concretely as F_p[t]/(pi) with pi the lexicographically
least monic irreducible polynomial of degree n, so identical parameters
always build identical fields and every downstream census is reproducible
bit for bit.  Such a field is the standing model for the residue ring of a
degree-n number ring at a prime that stays inert.

Everything in this module is immutable and every operation is a pure
function, so FieldSpec and FFElement values can be shared freely across
parallel workers.
"""

from __future__ import annotations

import itertools
import operator
import re
from array import array
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache

__all__ = [
    "DEFAULT_FIELD_CAP",
    "ArgumentError",
    "CapError",
    "FieldCapError",
    "is_prime",
    "render_poly",
    "certify_irreducible",
    "check_field",
    "find_irreducible",
    "FieldSpec",
    "FFElement",
    "standard_field",
    "FieldOps",
    "field_ops",
]

# Refuse, never truncate: exhaustive scans over more elements than this are
# rejected with FieldCapError unless the caller raises the cap explicitly.
DEFAULT_FIELD_CAP = 10**7


class ArgumentError(ValueError):
    """An argument outside the domain a library function accepts."""


class CapError(ValueError):
    """A requested computation exceeds a configured resource cap."""


class FieldCapError(CapError):
    """The field order p^n exceeds the exhaustive-scan cap."""


# Witness set making Miller-Rabin deterministic for all inputs below 2^64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(u: int) -> bool:
    """Primality test, deterministic for every u < 2**64."""
    if u < 2:
        return False
    for w in _MR_WITNESSES:
        if u == w:
            return True
        if u % w == 0:
            return False
    d = u - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for w in _MR_WITNESSES:
        x = pow(w, d, u)
        if x == 1 or x == u - 1:
            continue
        for _ in range(s - 1):
            x = x * x % u
            if x == u - 1:
                break
        else:
            return False
    return True


def _prime_factors(u: int, floor: int = 2) -> list[int]:
    """The distinct primes p >= floor dividing u, ascending; none for u < 2."""
    out = []
    k = 2
    while u >= 2 and k * k <= u:
        if u % k == 0:
            out.append(k)
            while u % k == 0:
                u //= k
        k += 1 if k == 2 else 2
    if u >= 2:
        out.append(u)
    return [p for p in out if p >= floor]


# ---------------------------------------------------------------------------
# Dense polynomial arithmetic over F_p on plain tuples, lowest degree first,
# trimmed (no trailing zeros; the zero polynomial is the empty tuple).  Such
# a tuple is the one polynomial type: a field's modulus is one, and these
# helpers are the arithmetic under FFElement and the irreducibility
# certificates.

def _trim(cs: Sequence[int]) -> tuple[int, ...]:
    i = len(cs)
    while i > 0 and cs[i - 1] == 0:
        i -= 1
    return tuple(cs[:i])


def _psub(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    out = list(a) + [0] * (len(b) - len(a))
    for i, x in enumerate(b):
        out[i] = (out[i] - x) % p
    return _trim(out)


def _pmul(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def _pmod(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    """Remainder of a by b; b must be nonzero."""
    if not b:
        raise ZeroDivisionError("polynomial modulus is zero")
    r = list(a)
    db = len(b) - 1
    inv_lead = pow(b[-1], -1, p)
    while len(r) - 1 >= db:
        lead = r[-1]
        if lead:
            coef = lead * inv_lead % p
            shift = len(r) - 1 - db
            for k in range(db):
                y = b[k]
                if y:
                    r[shift + k] = (r[shift + k] - coef * y) % p
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return _trim(r)


def _pgcd(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    """A gcd, up to a unit factor (not made monic)."""
    a, b = _trim(a), _trim(b)
    while b:
        a, b = b, _pmod(a, b, p)
    return a


def _ppowmod(base: Sequence[int], e: int, mod: Sequence[int], p: int) -> tuple[int, ...]:
    """base**e reduced by mod, square and multiply."""
    result: tuple[int, ...] = (1,)
    acc = _pmod(base, mod, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, acc, p), mod, p)
        e >>= 1
        if e:
            acc = _pmod(_pmul(acc, acc, p), mod, p)
    return result


class _Value:
    """Base of the immutable value classes: the fields are the __slots__
    (two or more), set once by _init after the subclass checks its
    arguments.  Values compare and hash by their fields, and only within
    one class; assignment is refused; pickling and copying restore the
    fields without running __init__, so no check runs twice."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._values = property(operator.attrgetter(*cls.__slots__))  # the field tuple

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({shown})"

    def __getstate__(self) -> tuple:
        return self._values

    def __setstate__(self, state: tuple) -> None:
        self._init(*state)


def render_poly(coeffs: Sequence[int]) -> str:
    """Render a coefficient vector (lowest degree first) like "2*t^3+t+1"."""
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        a = coeffs[k]
        if a == 0:
            continue
        if k == 0:
            terms.append(str(a))
        else:
            base = "t" if k == 1 else f"t^{k}"
            terms.append(base if a == 1 else f"{a}*{base}")
    return "+".join(terms) if terms else "0"


def certify_irreducible(p: int, coeffs: Sequence[int]) -> bool:
    """Full irreducibility certificate for a monic polynomial over F_p.

    coeffs are reduced residues, lowest degree first; an input that is not
    monic of degree at least 1 is not certified.  A monic m of degree
    n >= 1 is irreducible over F_p exactly when gcd(t^(p^k) - t, m) = 1
    for every 1 <= k <= n // 2: any nontrivial factorisation contains a
    factor of degree at most n // 2, and t^(p^k) - t is the product of all
    monic irreducibles of degree dividing k.  Degree 1 passes vacuously.
    """
    if not is_prime(p):
        raise ArgumentError(f"characteristic {p} is not prime")
    if any(not (0 <= a < p) for a in coeffs):
        raise ArgumentError("coefficients must be reduced residues mod p")
    if len(coeffs) < 2 or coeffs[-1] != 1:
        return False
    t = (0, 1)
    for k in range(1, (len(coeffs) - 1) // 2 + 1):
        tpk = _ppowmod(t, p**k, coeffs, p)
        if len(_pgcd(coeffs, _psub(tpk, t, p), p)) != 1:
            return False
    return True


def check_field(p: int, n: int) -> None:
    """The checks on (p, n) that come before F_{p^n} is built or capped."""
    if not is_prime(p):
        raise ArgumentError(f"{p} is not prime")
    if n < 1:
        raise ArgumentError(f"degree {n} must be at least 1")


def find_irreducible(p: int, n: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree n over F_p.

    Candidates t^n + a_(n-1) t^(n-1) + ... + a_0 are ordered by the tuple
    (a_(n-1), ..., a_0) and the first one passing the gcd certificate wins,
    so the result is canonical for each (p, n).
    """
    check_field(p, n)
    for high in itertools.product(range(p), repeat=n):
        cand = tuple(reversed(high)) + (1,)
        if certify_irreducible(p, cand):
            return cand
    raise RuntimeError("unreachable: irreducibles of every degree exist")


class FieldSpec(_Value):
    """A concrete model of F_{p^n}: characteristic, degree and modulus pi.

    The modulus is a coefficient tuple, lowest degree first, and elements
    are coefficient vectors over the basis 1, t, ..., t^(n-1).
    Construction re-runs the irreducibility certificate, so an invalid
    modulus can never circulate.  Prefer standard_field, which picks the
    canonical lex-least modulus.
    """

    __slots__ = ("p", "n", "modulus")
    p: int
    n: int
    modulus: tuple[int, ...]

    def __init__(self, p: int, n: int, modulus: tuple[int, ...]) -> None:
        check_field(p, n)
        if len(modulus) != n + 1:
            raise ArgumentError("modulus degree differs from extension degree")
        if not certify_irreducible(p, modulus):
            raise ArgumentError(f"modulus {render_poly(modulus)} is not irreducible over F_{p}")
        self._init(p, n, modulus)

    @property
    def order(self) -> int:
        return self.p**self.n

    @property
    def zero(self) -> "FFElement":
        return FFElement(self, (0,) * self.n)

    @property
    def one(self) -> "FFElement":
        return self.from_int(1)

    def from_int(self, c: int) -> "FFElement":
        """Embed an integer through the prime subfield (coordinate 0)."""
        return FFElement(self, (c % self.p,) + (0,) * (self.n - 1))

    def element(self, coeffs: Iterable[int]) -> "FFElement":
        """Build an element from integer coefficients on 1, t, t^2, ...

        Values are reduced mod p; vectors longer than n are reduced by the
        modulus, shorter ones are zero padded.
        """
        cs = [int(a) % self.p for a in coeffs]
        if len(cs) > self.n:
            cs = list(_pmod(tuple(cs), self.modulus, self.p))
        return FFElement(self, tuple(cs) + (0,) * (self.n - len(cs)))

    def element_at(self, index: int) -> "FFElement":
        """The index-th element in enumeration order (see elements)."""
        if not (0 <= index < self.order):
            raise ArgumentError(f"index {index} out of range for field of order {self.order}")
        digits = []
        for _ in range(self.n):
            index, r = divmod(index, self.p)
            digits.append(r)
        return FFElement(self, tuple(digits))

    def elements(self) -> Iterator["FFElement"]:
        """All p^n elements, counting base p with coordinate 0 fastest.

        The order is 0, 1, ..., p-1, t, 1+t, ... and is the fixed
        enumeration contract used by censuses and claim witnesses.
        """
        for i in range(self.order):
            yield self.element_at(i)

    def parse(self, text: str) -> "FFElement":
        """Inverse of str(element); also accepts "-" signs and loose input.
        Each t^k is reduced by the modulus in O(log k) steps."""
        cs = [0] * self.n
        for k, a in _parse_poly_text(text).items():
            for i, b in enumerate(_ppowmod((0, 1), k, self.modulus, self.p)):
                cs[i] += a * b
        return self.element(cs)

    def as_dict(self) -> dict:
        """Serialisable form: {p, n, modulus coefficient list}."""
        return {"p": self.p, "n": self.n, "modulus": list(self.modulus)}

    def __str__(self) -> str:
        return f"F_{self.p}^{self.n}"


# One term of an element string after its sign: digits, or [digits][*]t[^digits].
_TERM = re.compile(r"(\d*)(\*?t(?:\^(\d+))?)?")


def _parse_poly_text(text: str) -> dict[int, int]:
    s = text.replace(" ", "")
    if not s:
        raise ArgumentError("empty element string")
    s = s.replace("-", "+-")
    parts = [part for part in s.split("+") if part]
    if not parts:
        raise ArgumentError(f"cannot parse element {text!r}")
    powers: dict[int, int] = {}
    for part in parts:
        sign = -1 if part.startswith("-") else 1
        m = _TERM.fullmatch(part[1:] if sign < 0 else part)
        if m is None or not any(m.groups()):
            raise ArgumentError(f"cannot parse term {part!r} of element {text!r}")
        digits, t_term, power = m.groups()
        try:
            coef = int(digits) if digits else 1
            k = 0 if not t_term else int(power) if power else 1
        except ValueError as exc:  # more digits than int() reads
            raise ArgumentError("element string has an integer past the int() digit limit") from exc
        powers[k] = powers.get(k, 0) + sign * coef
    return powers


class FFElement(_Value):
    """An element of a FieldSpec; immutable coefficient vector of length n."""

    __slots__ = ("field", "coeffs")
    field: FieldSpec
    coeffs: tuple[int, ...]

    def __init__(self, field: FieldSpec, coeffs: tuple[int, ...]) -> None:
        if len(coeffs) != field.n:
            raise ArgumentError("coefficient vector length differs from field degree")
        p = field.p
        if any(not (0 <= a < p) for a in coeffs):
            raise ArgumentError("coefficients must be reduced residues mod p")
        self._init(field, coeffs)

    def _check_same_field(self, other: "FFElement") -> None:
        if self.field != other.field:
            raise ArgumentError("elements belong to different fields")

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    @property
    def index(self) -> int:
        """Position in the field's enumeration order (base-p digits)."""
        i = 0
        for a in reversed(self.coeffs):
            i = i * self.field.p + a
        return i

    def __add__(self, other: "FFElement") -> "FFElement":
        self._check_same_field(other)
        p = self.field.p
        return FFElement(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "FFElement") -> "FFElement":
        self._check_same_field(other)
        p = self.field.p
        return FFElement(self.field, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "FFElement":
        p = self.field.p
        return FFElement(self.field, tuple(-a % p for a in self.coeffs))

    def __mul__(self, other: "FFElement") -> "FFElement":
        self._check_same_field(other)
        fs = self.field
        rem = _pmod(_pmul(self.coeffs, other.coeffs, fs.p), fs.modulus, fs.p)
        return FFElement(fs, rem + (0,) * (fs.n - len(rem)))

    def __pow__(self, e: int) -> "FFElement":
        """Square and multiply (_ppowmod); a**0 = 1 for every a, including a = 0."""
        if e < 0:
            raise ArgumentError("negative exponents are not defined here")
        fs = self.field
        rem = _ppowmod(self.coeffs, e, fs.modulus, fs.p)
        return FFElement(fs, rem + (0,) * (fs.n - len(rem)))

    def frobenius(self) -> "FFElement":
        """The p-power map a -> a^p, the canonical field automorphism."""
        return self ** self.field.p

    def __str__(self) -> str:
        return render_poly(self.coeffs)


@lru_cache(maxsize=None)
def standard_field(p: int, n: int) -> FieldSpec:
    """Cached canonical field with the lex-least modulus."""
    return FieldSpec(p, n, find_irreducible(p, n))


# ---------------------------------------------------------------------------
# Integer-indexed arithmetic engines for whole-field loops.  A scan works on
# element indexes instead of FFElement objects: mod-p ints for prime fields,
# and log/Zech tables (three arrays of about q ints) for every extension.
# The tables grow with the field, so the caller's field cap is their only
# bound.  Work that never enumerates the field computes on FFElement instead.


class FieldOps:
    """Index arithmetic for the scan loops: add, sub and pow on one field.

    Index 0 is always the zero element and index 1 the one element, so
    sparsity tests stay plain truthiness checks.  No engine keeps a q*q
    table; mul_table stays None because bench/tracer.py reads it.
    """

    mul_table = None

    def __init__(self, fs: FieldSpec):
        self.p = fs.p
        self.n = fs.n
        self.q = fs.order


class _PrimeOps(FieldOps):
    def add(self, i: int, j: int) -> int:
        return (i + j) % self.p

    def sub(self, i: int, j: int) -> int:
        return (i - j) % self.p

    def pow(self, i: int, e: int) -> int:
        if e < 0:
            raise ArgumentError("negative exponents are not defined here")
        return pow(i, e, self.p)


class _LogOps(FieldOps):
    """Discrete-log and Zech tables (K. Huber, IEEE Trans. Inf. Theory 36, 1990).

    With g the smallest-index primitive element, exp[k] is the index of g^k,
    log[i] is the k with g^k = element i (log[0] = -1), and zech[k] is
    log(1 + g^k), so g^a + g^b = g^(a + zech[b - a]); -1 is g^half.
    """

    def __init__(self, fs: FieldSpec):
        super().__init__(fs)
        p, n, q, m = self.p, self.n, self.q, fs.modulus
        weights = [p**k for k in range(n)]  # index = sum digit*weight
        self.order = order = q - 1
        self.half = order // 2 if p > 2 else 0
        # g generates F_q^* iff g^(order/r) != 1 for every prime r | order
        primes = _prime_factors(order)
        g = next(g for g in (_trim(fs.element_at(i).coeffs) for i in range(2, q))
                 if all(_ppowmod(g, order // r, m, p) != (1,) for r in primes))
        lead, *lower = reversed(g)
        reduction = [(k, -c % p) for k, c in enumerate(m[:n]) if c]  # t^n = sum r*t^k
        self.exp = exp = array("l", [0]) * order
        self.log = log = array("l", [-1]) * q
        v, i = [1] + [0] * (n - 1), 1  # coefficients and index of g^k
        for k in range(order):
            if log[i] >= 0:
                raise RuntimeError(f"{render_poly(g)} is not primitive in {fs}")
            exp[k], log[i] = i, k
            acc = v if lead == 1 else [lead * a % p for a in v]  # g*v, Horner in t
            for c in lower:
                top, acc = acc[-1], [0] + acc[:-1]
                if top:
                    for j, r in reduction:
                        acc[j] = (acc[j] + top * r) % p
                if c:
                    acc = [(a + c * b) % p for a, b in zip(acc, v)]
            v, i = acc, sum(map(operator.mul, acc, weights))
        self.zech = zech = array("l", [0]) * order
        for k, e in enumerate(exp):  # 1 + g^k differs from g^k in digit 0 only
            zech[k] = log[e + 1 if e % p != p - 1 else e + 1 - p]

    def add(self, i: int, j: int) -> int:
        if not (i and j):
            return i or j
        a, z = self.log[i], self.zech[(self.log[j] - self.log[i]) % self.order]
        return self.exp[(a + z) % self.order] if z >= 0 else 0

    def sub(self, i: int, j: int) -> int:
        return self.add(i, self.neg(j))

    def neg(self, i: int) -> int:
        return self.exp[(self.log[i] + self.half) % self.order] if i else 0

    def pow(self, i: int, e: int) -> int:
        if e < 0:
            raise ArgumentError("negative exponents are not defined here")
        return self.exp[self.log[i] * e % self.order] if i else int(e == 0)


@lru_cache(maxsize=1)
def field_ops(fs: FieldSpec) -> FieldOps:
    """The scan engine of fs: mod-p ints for n = 1, log tables otherwise.
    Only the last is kept: every command is done with a field before the next."""
    return _PrimeOps(fs) if fs.n == 1 else _LogOps(fs)
