"""Average and density tables.

Every expected value below is small enough to check by hand: list the
primes, apply the divisibility rule, sum the oracle counts.
"""

from fractions import Fraction

import pytest

from fixcensus import dynamics, ff, stats
from fixcensus.dynamics import Family, MapSpec
from fixcensus.stats import DensityKind, Selector


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
        assert stats.prime_sieve(10) == [2, 3, 5, 7]
        assert stats.prime_sieve(2) == [2]
        assert stats.prime_sieve(1) == []
        assert stats.prime_sieve(0) == []
        assert len(stats.prime_sieve(30)) == 10

    def test_cap(self):
        with pytest.raises(stats.SieveCapError):
            stats.prime_sieve(1000, sieve_cap=100)
        assert stats.prime_sieve(100, sieve_cap=100)[-1] == 97

    def test_matches_trial_division(self):
        want = trial_division_primes(2000)
        for limit in range(2001):
            got = stats.prime_sieve(limit)
            assert got == [p for p in want if p <= limit], limit
            got.append(-1)  # the caller owns its list; the memo must not see this
            got[:1] = [4]
            assert stats.prime_sieve(limit) == [p for p in want if p <= limit], limit
        assert stats.prime_sieve(2000) is not stats.prime_sieve(2000)


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
                m = (MapSpec.prime_power(p, 1, c) if family is Family.PRIME_POWER
                     else MapSpec.p_minus_one(p, 1, c))
                total += dynamics.gcd_root_count(fs, m)
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
