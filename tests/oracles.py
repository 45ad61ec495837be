"""Independent reference implementations that the tests hold the library to.

trinomial_disc is the Sylvester oracle for nfcount.closed_form_disc: it
builds the full Sylvester matrix of (f, f') for f = x^d - x + c and takes
its determinant by fraction-free Bareiss elimination, sharing no code with
the two-term closed form.  It lives with the tests, not in the package,
because no command computes a discriminant this way.
"""

from fixcensus.dynamics import check_degree


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
