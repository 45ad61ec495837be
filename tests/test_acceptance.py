"""Acceptance gate: nine criteria, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines on
passing runs too.  Each criterion collects every violation before printing,
so a FAIL line always comes with the offending parameters in the assert.
"""

from fractions import Fraction

from fixcensus import claims, dynamics, ff, nfcount, stats
from fixcensus.claims import Verdict
from fixcensus.dynamics import Family
from fixcensus.stats import DensityKind, Selector
from oracles import gcd_root_count, trinomial_disc


def _verdict(num, label, problems):
    status = "PASS" if not problems else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {label}")
    assert not problems, f"criterion {num} ({label}): {problems[:5]}"


def _grid_points():
    """(field, degree) pairs for the dual-oracle and orbit criteria."""
    for p in (3, 5, 7, 11):
        for n in (1, 2):
            if p**n > 15000:
                continue
            fs = ff.standard_field(p, n)
            for ell in (1, 2):
                yield fs, Family.PRIME_POWER.degree(p, ell)
                if p >= 5:
                    yield fs, Family.P_MINUS_ONE.degree(p, ell)


def test_01_dual_oracle_equivalence():
    problems = []
    for fs, d in _grid_points():
        for idx in range(fs.order):
            c = fs.element_at(idx)
            scan = dynamics.fixed_point_count(fs, d, c)
            via_gcd = gcd_root_count(fs, d, c)
            if scan != via_gcd:
                problems.append((fs.p, fs.n, d, str(c), scan, via_gcd))
    _verdict(1, "scan and gcd fixed-point counters agree on the full grid", problems)


def test_02_confirmed_counting_points():
    problems = []
    for n in (1, 2, 3):
        fs = ff.standard_field(3, n)
        got = dynamics.fixed_point_count(fs, 3, 0)
        if got != 3:
            problems.append(("degree-3 zero class", 3, n, got))
    for p in (5, 7, 11, 13):
        fs = ff.standard_field(p, 1)
        for ell in (1, 2):
            for c, want in [(0, 2), (1, 1), (p - 1, 0)]:
                got = dynamics.fixed_point_count(fs, Family.P_MINUS_ONE.degree(p, ell), c)
                if got != want:
                    problems.append(("unit-degree classes", p, ell, c, want, got))
    _verdict(2, "confirmed count values are exact", problems)


def test_03_pinned_counterexamples():
    expected = [
        ("C-2.1", (3, 2, 1), ("t", 0, 3)),
        ("C-2.2", (5, 2, 1), ("0", 3, 5)),
        ("C-2.3", (3, 2, 2), ("0", 3, 9)),
        ("C-3.1", (5, 2, 1), ("0", 2, 4)),
    ]
    by_id = {spec.id: spec for spec in claims.registry()}
    problems = []
    for claim_id, (p, n, ell), first in expected:
        res = claims.check_point(by_id[claim_id], p, n, ell)
        if res.status is not Verdict.FAILS:
            problems.append((claim_id, p, n, ell, "status", res.status.value))
            continue
        w = res.witnesses[0]
        if (str(w.c), w.predicted, w.actual) != first:
            problems.append((claim_id, p, n, ell, (str(w.c), w.predicted, w.actual), first))
    _verdict(3, "pinned falsification witnesses reproduce exactly", problems)


def test_04_density_trend():
    problems = []
    rows = stats.density_table(DensityKind.NC3, c_list=[100, 1000, 10000])
    ratios = [row.ratio for row in rows]
    if not (ratios[0] > ratios[1] > ratios[2]):
        problems.append(("not strictly decreasing", [str(r) for r in ratios]))
    if not ratios[2] < Fraction(5, 100):
        problems.append(("tail ratio too large", str(ratios[2])))
    (complement,) = stats.density_table(DensityKind.NC0, c_list=[10000])
    if not complement.ratio > Fraction(95, 100):
        problems.append(("complement ratio too small", str(complement.ratio)))
    _verdict(4, "count-3 primes thin out, count-0 primes dominate", problems)


def test_05_average_tables():
    problems = []
    rows = stats.average_report(
        Family.PRIME_POWER, 1, 1, Selector.DIVIDES_C, [3, 15]
    )
    if rows[0].ratio != Fraction(3):
        problems.append((3, str(rows[0].ratio)))
    if rows[1].ratio != Fraction(4):
        problems.append((15, str(rows[1].ratio)))
    _verdict(5, "average counts over qualifying primes are exact rationals", problems)


def test_06_discriminant_oracles():
    problems = []
    for d in range(2, 11):
        for c in range(-30, 31):
            a = trinomial_disc(d, c)
            b = nfcount.closed_form_disc(d, c)
            if a != b:
                problems.append((d, c, a, b))
    if trinomial_disc(3, 1) != -23:
        problems.append(("spot", 3, 1, trinomial_disc(3, 1)))
    if trinomial_disc(4, 1) != 229:
        problems.append(("spot", 4, 1, trinomial_disc(4, 1)))
    _verdict(6, "resultant and closed-form discriminants agree", problems)


def test_07_desk_counts_and_growth_bound():
    problems = []
    row = nfcount.count_by_disc(3, 100)
    if row.count != 2:
        problems.append(("count_by_disc(3, 100)", row.count))
    if nfcount.count_by_height(3, 2) != 17:
        problems.append(("count_by_height(3, 2)", nfcount.count_by_height(3, 2)))
    for X in (100, 1000, 10000):
        r = nfcount.count_by_disc(3, X)
        if not r.bound_ok:
            problems.append(("bound violated", X, r.count))
    _verdict(7, "desk-scale counts match and stay under 4 * X^(3/4)", problems)


def test_08_orbit_census_consistency():
    problems = []
    for fs, d in _grid_points():
        for idx in range(fs.order):
            c = fs.element_at(idx)
            census = dynamics.orbit_census(fs, d, c)
            ones = sum(1 for k in census.cycle_lengths if k == 1)
            direct = dynamics.fixed_point_count(fs, d, c)
            if ones != direct:
                problems.append((fs.p, fs.n, d, str(c), "fixed", ones, direct))
            if sum(census.component_sizes) != fs.order:
                problems.append((fs.p, fs.n, d, str(c), "partition"))
    _verdict(8, "functional graphs partition the field and agree on fixed points", problems)


def test_09_squarefree_fraction():
    problems = []
    rep = nfcount.squarefree_disc_fraction(3, 10)
    if rep.fraction != Fraction(5, 10):
        problems.append(("fraction", str(rep.fraction)))
    if (rep.squarefree, rep.limit, rep.unknown) != (5, 10, 0):
        problems.append(("tallies", rep.squarefree, rep.limit, rep.unknown))
    if abs(rep.reference - 0.607927) > 1e-6:
        problems.append(("reference", rep.reference))
    if rep.as_dict()["reference"] != "0.607927":
        problems.append(("rendered reference", rep.as_dict()["reference"]))
    _verdict(9, "squarefree fraction exact, reference shown without judgment", problems)
