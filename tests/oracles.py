"""Independent reference implementations that the tests hold the library to.

gcd_root_count is the gcd oracle for the package's two fixed-point
engines, the scan of ff.field_ops and the Frobenius-linear engine: it
counts the roots of z^d - z + c in F_q as deg gcd(z^d - z + c, z^q - z),
on FFElement arithmetic, without enumerating the field.  It lives with the
tests, not in the package, because every command counts by the scan or
the linear engine.

trinomial_disc is the Sylvester oracle for nfcount.closed_form_disc: it
builds the full Sylvester matrix of (f, f') for f = x^d - x + c and takes
its determinant by fraction-free Bareiss elimination, sharing no code with
the two-term closed form.  It lives with the tests, not in the package,
because no command computes a discriminant this way.

unscreened_modulus and unscreened_generator are the searches of
ff.find_irreducible and the log engine's primitive element without their
screens: every candidate takes the full certificate, and every prime
r | q - 1 a power in F_q.
"""

import itertools

from fixcensus.dynamics import _coefficient_index, check_degree
from fixcensus.ff import FFElement, FieldSpec, _ppowmod, _prime_factors, _trim, certify_irreducible


def unscreened_modulus(p: int, n: int) -> tuple[int, ...]:
    """The lex-least monic irreducible of degree n over F_p, by certifying
    every candidate in order."""
    for high in itertools.product(range(p), repeat=n):
        cand = tuple(reversed(high)) + (1,)
        if certify_irreducible(p, cand):
            return cand
    raise AssertionError("irreducibles of every degree exist")


def unscreened_generator(fs: FieldSpec) -> tuple[int, ...]:
    """The smallest-index generator of F_q^* (n >= 2), trimmed: the first g
    from index p with g^((q - 1)/r) != 1 for every prime r | q - 1."""
    order = fs.order - 1
    return next(g for g in (_trim(fs.element_at(i).coeffs) for i in range(fs.p, fs.order))
                if all(_ppowmod(g, order // r, fs.modulus, fs.p) != (1,) for r in _prime_factors(order)))


# The gcd oracle: polynomial gcd in F_q[z] against z^q - z, computed on
# FFElement arithmetic so that it shares no engine with the scan or the
# linear engine.  The number of distinct roots of f in F_q equals
# deg gcd(f, z^q - z); we compute z^q mod f by square and multiply.  Each
# remainder walks only the divisor's nonzero terms, so reducing by the
# trinomial f = z^d - z + c costs two products per dropped degree.
# Polynomials are lists of elements, lowest degree first.

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


def _poly_rem(a: list[FFElement], b: list[FFElement]) -> list[FFElement]:
    """a mod the trimmed b; each step walks only b's nonzero lower terms."""
    r, db, lead = list(a), len(b) - 1, b[-1]
    inv_lead = None if lead.index == 1 else lead ** (lead.field.order - 2)  # index 1 is one
    terms = [(k, bk) for k, bk in enumerate(b[:db]) if not bk.is_zero]
    while len(r) > db:
        top = r.pop()
        if not top.is_zero:
            coef = top if inv_lead is None else top * inv_lead
            shift = len(r) - db  # the popped degree less db
            for k, bk in terms:
                r[shift + k] = r[shift + k] - coef * bk
    return _poly_trim(r)


def _powmod_x(e: int, f: list[FFElement]) -> list[FFElement]:
    """z^e mod the trimmed f, most significant bit first."""
    fs = f[0].field
    res = [fs.one]
    for bit in bin(e)[2:]:
        res = _poly_rem(_poly_mul(res, res), f)
        if bit == "1":
            res = _poly_rem([fs.zero] + res, f)
    return res


def _poly_gcd(a: list[FFElement], b: list[FFElement]) -> list[FFElement]:
    """A gcd of trimmed a and b, not normalised: only its degree is read."""
    while b:
        a, b = b, _poly_rem(a, b)
    return a


def gcd_root_count(fs: FieldSpec, d: int, c: int | FFElement) -> int:
    """Exact count of z with z^d + c = z, without enumerating the field.

    Counts distinct roots of f = z^d - z + c as deg gcd(f, z^q - z); no
    cap applies, as the work is polynomial in d and log q.
    """
    check_degree(d)
    c = fs.element_at(_coefficient_index(fs, c))
    f = [c, -fs.one] + [fs.zero] * (d - 2) + [fs.one]
    h = _powmod_x(fs.order, f)  # z^q mod f
    h += [fs.zero] * (2 - len(h))
    h[1] = h[1] - fs.one  # h = z^q - z mod f
    h = _poly_trim(h)
    if not h:
        return d
    return len(_poly_gcd(f, h)) - 1


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
    check_degree(d)
    f = [1] + [0] * (d - 2) + [-1, c]
    fp = [d] + [0] * (d - 2) + [-1]
    res = _det_bareiss(_sylvester(f, fp))
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * res
