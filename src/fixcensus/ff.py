"""Exact arithmetic in prime fields F_p and extension fields F_{p^n}.

F_{p^n} is realised concretely as F_p[t]/(pi) with pi the lexicographically
least monic irreducible polynomial of degree n, so identical parameters
always build identical fields and every downstream census is reproducible
bit for bit.  Such a field is the standing model for the residue ring of a
degree-n number ring at a prime that stays inert.

FieldSpec and FFElement values are immutable and every operation on them
is a pure function, so a value can be shared freely between callers.
"""

from __future__ import annotations

import enum
import itertools
import operator
import re
from array import array
from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache

__all__ = [
    "DEFAULT_FIELD_CAP",
    "DEFAULT_SIEVE_CAP",
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
DEFAULT_SIEVE_CAP = 10**8  # the integer side's cap: see stats.check_sieve_cap


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


class _Label(enum.Enum):
    """Base of the enums whose members print as their value: CSV cells and
    census labels show the value string."""

    def __str__(self) -> str:
        return self.value


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
    t = tpk = (0, 1)
    for _ in range((len(coeffs) - 1) // 2):
        tpk = _ppowmod(tpk, p, coeffs, p)  # t^(p^k) = (t^(p^(k-1)))^p: one Frobenius step
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
    so the result is canonical for each (p, n).  Where _screens_roots(p, n),
    a candidate with a root in F_p is reducible and is skipped before its
    certificate: the p candidates of one block share h = t^n + ... + a_1 t,
    and h + a_0 has a root exactly when -a_0 is a value of h, so one pass
    over F_p screens the block.
    """
    check_field(p, n)
    screen = _screens_roots(p, n)
    for high in itertools.product(range(p), repeat=n - 1):
        tail = tuple(reversed(high)) + (1,)  # a_1, ..., a_(n-1), 1
        rooted = {-x * _horner(tail, x, p) % p for x in range(p)} if screen else set()
        for a0 in range(p):
            if a0 not in rooted and certify_irreducible(p, cand := (a0, *tail)):
                return cand
    raise RuntimeError("unreachable: irreducibles of every degree exist")


def _screens_roots(p: int, n: int) -> bool:
    """Whether find_irreducible screens its degree-n candidates for roots.

    Degree 1 never is: every t + a_0 has a root.  A screen costs a pass over
    F_p per block and saves a certificate per candidate with a root; it pays
    below p = 100 (the measured crossover, n = 2..8), and wherever the first
    block, the binomials t^n + a_0, holds no irreducible, since the search
    then certifies all p of them.  It holds one exactly when every prime
    factor of n divides p - 1, and 4 divides p - 1 if 4 divides n (Lidl &
    Niederreiter, Theorem 3.75); the search then ends in that block after a
    few certificates.
    """
    binomial = all((p - 1) % r == 0 for r in _prime_factors(n)) and (n % 4 != 0 or (p - 1) % 4 == 0)
    return n >= 2 and (p < 100 or not binomial)


def _horner(cs: Sequence[int], x: int, p: int) -> int:
    """The polynomial cs (lowest degree first) at x, mod p."""
    v = 0
    for a in reversed(cs):
        v = (v * x + a) % p
    return v


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
        """The index-th element in enumeration order: index read base p with
        coordinate 0 fastest, so the order is 0, 1, ..., p-1, t, 1+t, ...
        This is the fixed enumeration contract used by censuses and claim
        witnesses."""
        if not (0 <= index < self.order):
            raise ArgumentError(f"index {index} out of range for field of order {self.order}")
        digits = []
        for _ in range(self.n):
            index, r = divmod(index, self.p)
            digits.append(r)
        return FFElement(self, tuple(digits))

    def element_strings(self) -> Iterator[str]:
        """str(self.element_at(i)) for each index i in order, joined from
        per-digit terms (highest degree first) without building elements."""
        terms = [["", *(render_poly((0,) * k + (a,)) for a in range(1, self.p))] for k in range(self.n)]
        return ("+".join(filter(None, parts)) or "0" for parts in itertools.product(*reversed(terms)))

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


def _table_typecode(q: int) -> str:
    """The array typecode of F_q's log tables, whose entries lie in [-1, q):
    a C int while q < 2^31, a 64-bit int past that (--field-cap allows it)."""
    return "i" if q < 2**31 else "q"


class FieldOps:
    """Index arithmetic for the scan loops on one field: images is the one
    whole-field pass.

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
    def images(self, d: int, a: int, c: int, e: int) -> Iterator[int]:
        """a*z^d + c*z^e for every z in index order, as indexes."""
        p = self.p
        if d >= p:  # z^d = z^((d - 1) mod (p - 1) + 1) for every z, 0 included (Fermat)
            d = (d - 1) % (p - 1) + 1
        return ((a * pow(z, d, p) + c * z**e) % p for z in range(p))


def _norm(g: Sequence[int], m: Sequence[int], p: int) -> int:
    """N(g) = Res(m, g) mod p for a monic modulus m and a g of lower degree
    prime to it: the product of g at the roots of m, by Euclid's remainders,
    as Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) Res(b, r) for
    r = a mod b, and Res(a, b) = b^(deg a) for a constant b."""
    norm, a, b = 1, m, _trim(g)
    while len(b) > 1:
        r = _pmod(a, b, p)
        if (len(a) - 1) * (len(b) - 1) % 2:
            norm = -norm
        norm = norm * pow(b[-1], len(a) - len(r), p) % p
        a, b = b, r
    return norm * pow(b[0], len(a) - 1, p) % p


def _primitive_element(fs: FieldSpec) -> tuple[int, ...]:
    """The smallest-index generator g of F_q^*, n >= 2, as a trimmed tuple.

    g generates iff g^((q - 1)/r) != 1 for every prime r | q - 1.  For
    r | p - 1 that power is N(g)^((p - 1)/r) with N(g) = g^((q - 1)/(p - 1))
    the norm to F_p (Lidl & Niederreiter, 2.3): one int pow after one norm
    per candidate, and only the r that do not divide p - 1 take a power in
    F_q.  The search starts at index p: the constants below it have orders
    dividing p - 1 < q - 1.
    """
    p, m, order = fs.p, fs.modulus, fs.order - 1
    primes = _prime_factors(order)
    by_norm = [(p - 1) // r for r in primes if (p - 1) % r == 0]
    in_field = [order // r for r in primes if (p - 1) % r]

    def generates(g: tuple[int, ...]) -> bool:
        norm = _norm(g, m, p)
        return all(pow(norm, e, p) != 1 for e in by_norm) and all(_ppowmod(g, e, m, p) != (1,) for e in in_field)

    return next(filter(generates, (_trim(fs.element_at(i).coeffs) for i in range(p, fs.order))))


class _LogOps(FieldOps):
    """Discrete-log and Zech tables (K. Huber, IEEE Trans. Inf. Theory 36, 1990).

    With g the smallest-index primitive element, exp[k] is the index of g^k,
    log[i] is the k with g^k = element i (log[0] = -1), and zech[k] is
    log(1 + g^k), -1 where 1 + g^k = 0; so g^a + g^b = g^(a + zech[b - a]).

    The build walks g^k on a code of each element: its coordinates as digits
    base 2p - 1, read mod p.  As g*x is F_p-linear in x, it is the sum of g
    times each half of x's digits, read off one table per half; two reduced
    codes add without a carry, and each table also gives its half's share
    of x's index.
    """

    def __init__(self, fs: FieldSpec):
        super().__init__(fs)
        p, n, q, m = self.p, self.n, self.q, fs.modulus
        self.order = order = q - 1
        g = _primitive_element(fs)
        base, cut = 2 * p - 1, n // 2
        columns = [(_pmod((0,) * j + g, m, p) + (0,) * n)[:n] for j in range(n)]  # g*t^j

        def half(digits: range) -> tuple[list[int], list[int]]:
            """By the code of x's digits in the range (x zero elsewhere):
            the code of g*x and the index of x."""
            products, reduced = [(0,) * n], [0]
            for j in digits:
                products = [tuple((u + a * v) % p for u, v in zip(w, columns[j]))
                            for a in range(p) for w in products]
                reduced = [r + f % p * p ** (j - digits.start) for f in range(base) for r in reduced]
            codes = [sum(u * base**k for k, u in enumerate(w)) for w in products]
            # products[r] is g*x for the x of index r * p**digits.start
            return [codes[r] for r in reduced], [r * p**digits.start for r in reduced]

        (low_code, low_index), (high_code, high_index) = half(range(cut)), half(range(cut, n))
        split, typecode = base**cut, _table_typecode(q)
        self.exp = exp = array(typecode, [0]) * order
        self.log = log = array(typecode, [-1]) * q
        x = 1  # the code of g^k
        for k in range(order):
            low, high = x % split, x // split
            exp[k] = i = low_index[low] + high_index[high]
            log[i] = k
            x = low_code[low] + high_code[high]
        # 1 + x differs from x in digit 0 only, so log(1 + element i) is log
        # with each run of p indexes turned by one place
        plus_one = array(typecode, log)
        for r in range(p):
            plus_one[r::p] = log[(r + 1) % p::p]
        self.zech = array(typecode, map(plus_one.__getitem__, exp))

    def images(self, d: int, a: int, c: int, e: int) -> Iterator[int]:
        """a*z^d + c*z^e for every z in index order, as indexes; a != 0, d >= 1.
        For z = g^k and c = g^lc != 0 this is c*z^e*(1 + (a/c)*z^(d-e)), that
        is g^(lc + ke + zech[(la - lc + k(d - e)) mod (q - 1)]), 0 where the
        zech entry is -1; for c = 0 it is g^(la + kd).  z = 0 maps to c*0^e."""
        exp, log, zech, order = self.exp, self.log, self.zech, self.order
        la, lc, ks = log[a], log[c], itertools.islice(log, 1, None)
        if lc < 0:
            rest = (exp[(la + k * d) % order] for k in ks)
        else:
            shift, step = la - lc, d - e
            rest = (exp[(lc + k * e + z) % order] if (z := zech[(shift + k * step) % order]) >= 0 else 0
                    for k in ks)
        return itertools.chain((0 if e else c,), rest)


@lru_cache(maxsize=1)
def field_ops(fs: FieldSpec) -> FieldOps:
    """The scan engine of fs: mod-p ints for n = 1, log tables otherwise.
    Only the last is kept: every command is done with a field before the next."""
    return _PrimeOps(fs) if fs.n == 1 else _LogOps(fs)
