"""Average and density tables.

Every expected value below is small enough to check by hand: list the
primes, apply the divisibility rule, sum the oracle counts.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fixcensus import dynamics, ff, stats
from fixcensus.dynamics import Family
from fixcensus.stats import DensityKind, Selector
from oracles import gcd_root_count


def trial_division_primes(limit):
    return [
        m
        for m in range(2, limit + 1)
        if all(m % k != 0 for k in range(2, int(m**0.5) + 1))
    ]


# Bounds out of order, repeated, and below every prime floor.
SHUFFLED_C = [105, 17, 0, 105, 2, 60, -3, 1, 17, 3]


class TestPrimeSieve:
    def test_small_values(self):
        assert stats.prime_sieve(10) == (2, 3, 5, 7)
        assert stats.prime_sieve(2) == (2,)
        assert stats.prime_sieve(1) == ()
        assert stats.prime_sieve(0) == ()
        assert len(stats.prime_sieve(30)) == 10

    def test_cap(self):
        with pytest.raises(stats.SieveCapError):
            stats.prime_sieve(1000, sieve_cap=100)
        assert stats.prime_sieve(100, sieve_cap=100)[-1] == 97

    def test_matches_trial_division(self):
        want = trial_division_primes(2000)
        for limit in range(2001):
            assert stats.prime_sieve(limit) == tuple(p for p in want if p <= limit), limit
        # one shared, immutable tuple per limit: a lookup copies nothing
        assert stats.prime_sieve(2000) is stats.prime_sieve(2000)


class TestAverageReport:
    def test_divides_c_prime_power(self):
        (row,) = stats.average_report(
            Family.PRIME_POWER, 1, 1, Selector.DIVIDES_C, [3]
        )
        assert (row.numerator, row.denominator) == (3, 1)
        assert row.ratio == Fraction(3)
        assert row.prime_floor == 3

        # c = 15 qualifies p = 3 and p = 5; on the prime field the count is p
        (row,) = stats.average_report(
            Family.PRIME_POWER, 1, 1, Selector.DIVIDES_C, [15]
        )
        assert (row.numerator, row.denominator) == (8, 2)
        assert row.ratio == Fraction(4)

    def test_divides_c_on_quadratic_extension(self):
        # over F_9 the count at c = 0 drops to the predicted 3
        (row,) = stats.average_report(
            Family.PRIME_POWER, 2, 1, Selector.DIVIDES_C, [3]
        )
        assert (row.numerator, row.denominator) == (3, 1)
        assert row.ratio == Fraction(3)

    def test_not_divides_c(self):
        (row,) = stats.average_report(
            Family.PRIME_POWER, 1, 1, Selector.NOT_DIVIDES_C, [10]
        )
        # primes 3, 7 qualify; z^p - z + c is the nonzero constant c on F_p
        assert (row.numerator, row.denominator) == (0, 2)
        assert row.ratio == Fraction(0)

    def test_pminus1_selectors(self):
        (row,) = stats.average_report(
            Family.P_MINUS_ONE, 1, 1, Selector.DIVIDES_C_PLUS_1, [4]
        )
        assert (row.numerator, row.denominator) == (0, 1)
        assert row.ratio == Fraction(0)
        assert row.prime_floor == 5

        (row,) = stats.average_report(
            Family.P_MINUS_ONE, 1, 1, Selector.DIVIDES_C_MINUS_1, [6]
        )
        assert (row.numerator, row.denominator) == (1, 1)
        assert row.ratio == Fraction(1)

    def test_empty_qualifying_set(self):
        (row,) = stats.average_report(
            Family.PRIME_POWER, 1, 1, Selector.DIVIDES_C, [4]
        )
        assert (row.numerator, row.denominator) == (0, 0)
        assert row.ratio is None
        assert row.as_dict()["ratio"] is None

    def test_numerator_recheck_against_gcd_engine(self):
        # recompute each numerator with the polynomial-gcd counter
        for family, selector, c in [
            (Family.PRIME_POWER, Selector.DIVIDES_C, 15),
            (Family.PRIME_POWER, Selector.NOT_DIVIDES_C, 14),
            (Family.P_MINUS_ONE, Selector.DIVIDES_C_MINUS_1, 11),
        ]:
            (row,) = stats.average_report(family, 1, 1, selector, [c])
            floor = 3 if family is Family.PRIME_POWER else 5
            qual = [
                p
                for p in stats.prime_sieve(c if selector is not Selector.DIVIDES_C_MINUS_1 else c - 1)
                if p >= floor
                and ((c - 1) % p == 0 if selector is Selector.DIVIDES_C_MINUS_1
                     else (c % p != 0 if selector is Selector.NOT_DIVIDES_C else c % p == 0))
            ]
            total = 0
            for p in qual:
                fs = ff.standard_field(p, 1)
                total += gcd_root_count(fs, family.degree(p, 1), c)
            assert row.numerator == total
            assert row.denominator == len(qual)

    def test_exact_types(self):
        rows = stats.average_report(
            Family.PRIME_POWER, 1, 1, Selector.DIVIDES_C, [3, 6, 15]
        )
        for row in rows:
            assert isinstance(row.numerator, int)
            assert isinstance(row.denominator, int)
            assert row.ratio is None or isinstance(row.ratio, Fraction)

    @pytest.mark.parametrize("selector", list(Selector))
    @pytest.mark.parametrize("family", [Family.PRIME_POWER, Family.P_MINUS_ONE])
    def test_unsorted_duplicated_c_list_matches_per_c(self, family, selector):
        rows = stats.average_report(family, 1, 1, selector, SHUFFLED_C)
        assert rows == [stats.average_report(family, 1, 1, selector, [c])[0] for c in SHUFFLED_C]
        assert stats.average_report(family, 1, 1, selector, iter(SHUFFLED_C)) == rows

    def test_raw_family_rejected(self):
        with pytest.raises(ValueError):
            stats.average_report(Family.RAW, 1, 1, Selector.DIVIDES_C, [3])


class TestDensityTable:
    def test_examples(self):
        (row,) = stats.density_table(DensityKind.NC3, c_list=[30])
        assert (row.numerator, row.denominator) == (2, 9)
        assert row.ratio == Fraction(2, 9)

        (row,) = stats.density_table(DensityKind.NC3, c_list=[4])
        assert (row.numerator, row.denominator) == (0, 1)

        (row,) = stats.density_table(DensityKind.NC0, c_list=[30])
        assert (row.numerator, row.denominator) == (7, 9)

        (row,) = stats.density_table(DensityKind.MC1, c_list=[6])
        assert (row.numerator, row.denominator) == (1, 1)

        (row,) = stats.density_table(DensityKind.MC0, c_list=[9])
        assert (row.numerator, row.denominator) == (1, 2)

    def test_partition_invariant(self):
        # dividing and not dividing partition the prime range exactly
        for c in (10, 30, 97, 210):
            (a,) = stats.density_table(DensityKind.NC3, c_list=[c])
            (b,) = stats.density_table(DensityKind.NC0, c_list=[c])
            assert a.denominator == b.denominator
            assert a.numerator + b.numerator == a.denominator

    def test_numerator_is_tiny(self):
        # distinct prime divisors of c never exceed log2(c)
        import math

        for c in (12, 30, 210, 2310, 9699):
            (row,) = stats.density_table(DensityKind.NC3, c_list=[c])
            assert row.numerator <= math.log2(c)

    def test_validation_and_caps(self):
        with pytest.raises(stats.SieveCapError):
            stats.density_table(DensityKind.NC3, c_list=[10**6], sieve_cap=1000)

    def test_empty_prime_range(self):
        (row,) = stats.density_table(DensityKind.MC2, c_list=[3])
        assert (row.numerator, row.denominator) == (0, 0)
        assert row.ratio is None

    @pytest.mark.parametrize("kind", list(DensityKind))
    def test_unsorted_duplicated_c_list_matches_per_c(self, kind):
        rows = stats.density_table(kind, c_list=SHUFFLED_C + [10**4])
        assert rows == [stats.density_table(kind, c_list=[c])[0] for c in SHUFFLED_C + [10**4]]
        assert stats.density_table(kind, c_list=iter(SHUFFLED_C)) == rows[:-1]

    def test_as_dict(self):
        (row,) = stats.density_table(DensityKind.NC3, c_list=[30])
        assert row.as_dict() == {
            "c": 30,
            "kind": "nc3",
            "numerator": 2,
            "denominator": 9,
            "ratio": "2/9",
        }


# ---------------------------------------------------------------------------
# The exact rules against the enumerations they replaced.

_FLOOR = {Family.PRIME_POWER: 3, Family.P_MINUS_ONE: 5}
_SHIFT = {Selector.DIVIDES_C_MINUS_1: -1, Selector.DIVIDES_C_PLUS_1: 1}
_KIND = {
    DensityKind.NC3: (3, Selector.DIVIDES_C),
    DensityKind.NC0: (3, Selector.NOT_DIVIDES_C),
    DensityKind.MC2: (5, Selector.DIVIDES_C),
    DensityKind.MC1: (5, Selector.DIVIDES_C_MINUS_1),
    DensityKind.MC0: (5, Selector.DIVIDES_C_PLUS_1),
}


def sieve_average_rows(family, n, ell, selector, c_list):
    """average_report as a walk over the sieve: every prime up to the
    target is tested for the selector and its count summed."""
    floor = _FLOOR[family]
    wanted = selector is not Selector.NOT_DIVIDES_C
    rows = []
    for c in c_list:
        target = c + _SHIFT.get(selector, 0)
        qual = [p for p in stats.prime_sieve(target) if p >= floor and (target % p == 0) is wanted]
        if family is Family.PRIME_POWER:
            counts = [stats._prime_power_count(p, n, ell, c) for p in qual]
        else:
            counts = [
                dynamics.fixed_point_count(ff.standard_field(p, n), family.degree(p, ell), c)
                for p in qual
            ]
        ratio = Fraction(sum(counts), len(qual)) if qual else None
        rows.append(stats.AverageRow(c, selector, floor, sum(counts), len(qual), ratio))
    return rows


def sieve_density_rows(kind, c_list):
    """density_table as the walk over the sieve it used before prime_count."""
    floor, selector = _KIND[kind]
    rows = []
    for c in c_list:
        primes = [p for p in stats.prime_sieve(c) if p >= floor]
        target = c + _SHIFT.get(selector, 0)
        dividing = sum(1 for p in primes if target % p == 0)
        numerator = len(primes) - dividing if selector is Selector.NOT_DIVIDES_C else dividing
        ratio = Fraction(numerator, len(primes)) if primes else None
        rows.append(stats.DensityRow(c, kind, numerator, len(primes), ratio))
    return rows


class TestClosedForms:
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([2, 3, 5, 7, 11, 13]),
        st.integers(1, 4),
        st.integers(1, 3),
        st.one_of(st.integers(-30, 30), st.integers(-(10**6), 10**6)),
    )
    def test_prime_power_count_three_ways(self, p, n, ell, c):
        # closed form, the full scan and the gcd oracle share no code.  The
        # closed form stays apart from the linear engine, which also counts
        # d = p^ell, because it builds no field: no field cap limits it, and
        # test_prime_power_average_builds_no_field pins that
        fs = ff.standard_field(p, n)
        d = Family.PRIME_POWER.degree(p, ell)
        closed = stats._prime_power_count(p, n, ell, c)
        assert closed == dynamics.fixed_point_count(fs, d, c) == gcd_root_count(fs, d, c)

    def test_prime_power_count_at_every_residue(self):
        # count_profile runs the linear engine here, ell = n and ell > n included
        for p in (2, 3, 5, 7):
            for n in (1, 2, 3, 4):
                fs = ff.standard_field(p, n)
                for ell in range(1, 2 * n + 2):
                    profile = dynamics.count_profile(fs, p**ell, exp_cap=p**ell)
                    for c in range(p):
                        assert stats._prime_power_count(p, n, ell, c) == profile[c], (p, n, ell, c)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 6),
        st.integers(1, 4),
        st.sampled_from(list(Selector)),
        st.lists(st.integers(-10, 400), max_size=5),
    )
    def test_prime_power_rows_match_sieve_walk(self, n, ell, selector, c_list):
        got = stats.average_report(Family.PRIME_POWER, n, ell, selector, c_list)
        assert got == sieve_average_rows(Family.PRIME_POWER, n, ell, selector, c_list)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(1, 2),
        st.integers(1, 2),
        st.sampled_from(list(Selector)),
        st.lists(st.integers(-10, 40), max_size=4),
    )
    def test_pminus1_rows_match_sieve_walk(self, n, ell, selector, c_list):
        got = stats.average_report(Family.P_MINUS_ONE, n, ell, selector, c_list)
        assert got == sieve_average_rows(Family.P_MINUS_ONE, n, ell, selector, c_list)

    def test_prime_power_average_builds_no_field(self, monkeypatch):
        def no_field(*args, **kwargs):
            raise AssertionError("a field was built")

        monkeypatch.setattr(stats, "standard_field", no_field)
        monkeypatch.setattr(dynamics, "fixed_point_count", no_field)
        # F_{3^30} is beyond the scan cap; the closed form needs no field
        (row,) = stats.average_report(Family.PRIME_POWER, 30, 1, Selector.DIVIDES_C, [15])
        assert (row.numerator, row.denominator) == (3 + 5, 2)
        (row,) = stats.average_report(Family.PRIME_POWER, 15, 1, Selector.NOT_DIVIDES_C, [100])
        assert (row.numerator, row.denominator) == (3, 23)  # 3 | n/g = 15, 5 | 100

    @pytest.mark.parametrize("n, ell", [(0, 1), (1, 0)])
    def test_bad_n_or_ell_rejected(self, n, ell):
        with pytest.raises(ff.ArgumentError):
            stats.average_report(Family.PRIME_POWER, n, ell, Selector.DIVIDES_C, [4])

    def test_prime_count_known_values(self):
        want = trial_division_primes(3000)
        for x in range(-3, 3001):
            assert stats.prime_count(x) == sum(1 for p in want if p <= x), x
        assert stats.prime_count(10**6) == 78498
        assert stats.prime_count(4 * 10**6) == 283146
        assert stats.prime_count(10**8) == 5761455

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.integers(0, 10**5), st.builds(lambda k, e: k * k + e, st.integers(2, 316), st.integers(-1, 1))))
    def test_prime_count_matches_sieve(self, x):
        assert stats.prime_count(x) == len(stats.prime_sieve(x))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 10**6).flatmap(
            lambda x: st.lists(
                st.one_of(st.just(x), st.integers(1, 2000).map(lambda k: x // k), st.integers(-3, x)), max_size=4
            ).map(lambda rest: [x, *rest])
        )
    )
    def test_prime_counts_equal_one_count_at_a_time(self, bounds):
        # duplicates, bounds below 2, and bounds in and out of the largest
        # bound's quotient set x // k, each answered as prime_count alone
        counts = stats.prime_counts(bounds)
        assert counts == {x: stats.prime_count(x) for x in bounds}

    def test_prime_counts_read_quotients_off_one_pass(self, monkeypatch):
        passes = []
        lucy = stats._lucy
        monkeypatch.setattr(stats, "_lucy", lambda x: passes.append(x) or lucy(x))
        assert stats.prime_counts([10**6, 2 * 10**6, 4 * 10**6, 4, 1]) == {
            10**6: 78498, 2 * 10**6: 148933, 4 * 10**6: 283146, 4: 2, 1: 0
        }
        assert passes == [4 * 10**6]
        stats.prime_counts([1000, 999])  # 999 is no 1000 // k and above sqrt(1000)
        assert passes == [4 * 10**6, 1000, 999]

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(list(DensityKind)), st.lists(st.integers(-10, 5000), max_size=6))
    def test_density_rows_match_sieve_walk(self, kind, c_list):
        assert stats.density_table(kind, c_list) == sieve_density_rows(kind, c_list)

    @pytest.mark.parametrize("kind", list(DensityKind))
    def test_density_rows_match_sieve_walk_at_large_c(self, kind):
        c_list = [2 * 3 * 5 * 7 * 11 * 13 * 17, 10**5 + 3, 999_983, 10**6]
        assert stats.density_table(kind, c_list) == sieve_density_rows(kind, c_list)

    def test_density_sieve_cap_refuses_the_same_c(self):
        with pytest.raises(stats.SieveCapError, match=r"^sieve limit 1001 exceeds the cap 1000$"):
            stats.density_table(DensityKind.NC3, [5, 1001], sieve_cap=1000)
        assert stats.density_table(DensityKind.NC3, [1000], sieve_cap=1000)[0].denominator == 167
        with pytest.raises(stats.SieveCapError, match=r"^sieve limit 1001 exceeds the cap 1000$"):
            stats.average_report(Family.PRIME_POWER, 1, 1, Selector.DIVIDES_C_PLUS_1, [1000], sieve_cap=1000)
