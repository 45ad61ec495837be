"""Discriminants, irreducibility certificates, and counting tables.

oracles.trinomial_disc (Sylvester + Bareiss) and closed_form_disc are
independent; their equality over the verification grid is the license for
the enumerators to use the closed form.  Irreducibility certificates are
re-proved here by brute force: integer roots are plugged back in, and mod-q
certificates are checked against exhaustive trial division over F_q.
"""

import functools
import itertools
import math
import re
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from fixcensus import cli, dynamics, ff, nfcount, stats
from fixcensus.nfcount import IrreducibilityStatus, ZETA2_INV
from oracles import squarefree_by_trial, trinomial_disc


def poly_mod_q_has_factor(d, c, q, k):
    """Does x^d - x + c have a monic degree-k factor mod q?  Brute force."""
    f = [c % q, (q - 1) % q] + [0] * (d - 2) + [1]  # lowest-first
    for tail in itertools.product(range(q), repeat=k):
        g = list(tail) + [1]
        # polynomial remainder of f by g over F_q
        rem = list(f)
        for i in range(len(rem) - 1, k - 1, -1):
            coef = rem[i]
            if coef:
                for j in range(k + 1):
                    rem[i - k + j] = (rem[i - k + j] - coef * g[j]) % q
        if all(x == 0 for x in rem[:k]):
            return True
    return False


def brute_irreducible_mod_q(d, c, q):
    return not any(poly_mod_q_has_factor(d, c, q, k) for k in range(1, d // 2 + 1))


brute_residue = functools.lru_cache(maxsize=None)(brute_irreducible_mod_q)  # by (d, c mod q, q)


class TestDiscriminant:
    def test_known_values(self):
        assert trinomial_disc(3, 1) == -23
        assert trinomial_disc(3, 0) == 4
        assert trinomial_disc(4, 1) == 229
        assert trinomial_disc(4, -1) == -283
        assert trinomial_disc(2, 5) == -19  # 1 - 4c for d = 2

    def test_closed_form_matches_resultant_on_grid(self):
        for d in range(2, 11):
            for c in range(-30, 31):
                assert trinomial_disc(d, c) == nfcount.closed_form_disc(d, c), (d, c)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 12), st.integers(-200, 200))
    def test_closed_form_matches_resultant(self, d, c):
        assert trinomial_disc(d, c) == nfcount.closed_form_disc(d, c)

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([3, 5, 7, 9]), st.integers(0, 100))
    def test_odd_degree_symmetry(self, d, c):
        # c appears only through c^(d-1), an even power for odd d
        assert nfcount.closed_form_disc(d, c) == nfcount.closed_form_disc(d, -c)

    def test_quadratic_formula(self):
        for c in range(-20, 21):
            assert nfcount.closed_form_disc(2, c) == 1 - 4 * c

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            trinomial_disc(1, 0)
        with pytest.raises(ValueError):
            nfcount.closed_form_disc(0, 1)


class TestIrreducibility:
    def test_examples(self):
        assert nfcount.irreducibility_status(3, 1) is IrreducibilityStatus.IRREDUCIBLE
        assert nfcount.irreducibility_status(3, 6) is IrreducibilityStatus.REDUCIBLE
        assert nfcount.irreducibility_status(4, 0) is IrreducibilityStatus.REDUCIBLE
        assert nfcount.irreducibility_status(2, 1) is IrreducibilityStatus.IRREDUCIBLE

    def test_unknown_is_first_class(self):
        # x^3 - x + 4 factors mod 2, so a 2-only search cannot decide
        assert nfcount.irreducibility_status(3, 4, q_max=2) is IrreducibilityStatus.UNKNOWN
        assert nfcount.irreducibility_status(3, 4) is IrreducibilityStatus.IRREDUCIBLE
        assert not brute_irreducible_mod_q(3, 4, 2) and brute_irreducible_mod_q(3, 4, 3)

    def test_reducible_has_integer_root(self):
        from fixcensus.dynamics import integral_fixed_points

        # c = 0 has the roots 0 and 1 at every degree, so it is REDUCIBLE
        cases = [(d, c) for d in (2, 3, 4, 5) for c in range(-20, 21)] + [(d, 0) for d in range(6, 13)]
        for d, c in cases:
            status = nfcount.irreducibility_status(d, c)
            if c == 0:
                assert status is IrreducibilityStatus.REDUCIBLE
                assert {0, 1} <= integral_fixed_points(d, c)
            if status is IrreducibilityStatus.REDUCIBLE:
                roots = integral_fixed_points(d, c)
                assert roots
                for z in roots:
                    assert z**d - z + c == 0

    def test_irreducible_recheck(self):
        # independent exhaustive factor search over F_q confirms each certificate
        for d in (2, 3, 4):
            for c in range(-8, 9):
                if nfcount.irreducibility_status(d, c, q_max=7) is IrreducibilityStatus.IRREDUCIBLE:
                    assert any(brute_irreducible_mod_q(d, c, q) for q in (2, 3, 5, 7))

    def test_internal_mod_q_test_matches_brute_force(self):
        for d in (2, 3, 4):
            for c in range(-6, 7):
                for q in (2, 3, 5):
                    assert nfcount._irreducible_mod_q(d, c, q) == brute_irreducible_mod_q(
                        d, c, q
                    ), (d, c, q)

    def test_no_certificate_for_reducible(self):
        primes = stats.prime_sieve(nfcount.DEFAULT_Q_MAX)
        assert nfcount._uncertified(3, [0, 6], primes, dynamics.DEFAULT_EXP_CAP, stats.DEFAULT_SIEVE_CAP) == [0, 6]
        assert not any(brute_irreducible_mod_q(3, c, q) for c in (0, 6) for q in primes)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 7),
        st.integers(-(10**6), 10**6),
        st.sampled_from([q for q in range(2, 51) if all(q % k for k in range(2, q))]),
    )
    def test_memoized_certificate_matches_brute_force(self, d, c, q):
        # the lookup by residue class answers for c itself, and for every
        # c' = c (mod q) once the memo holds the residue
        want = brute_irreducible_mod_q(d, c, q)
        assert nfcount._irreducible_mod_q(d, c % q, q) == want
        assert nfcount._irreducible_mod_q(d, (c + 7 * q) % q, q) == want

    def test_certificates_computed_once_per_residue(self):
        nfcount._irreducible_mod_q.cache_clear()
        nfcount.count_by_disc(3, 10**7)
        primes = [q for q in range(2, nfcount.DEFAULT_Q_MAX + 1) if all(q % k for k in range(2, q))]
        assert nfcount._irreducible_mod_q.cache_info().misses <= sum(primes)

    def test_status_agrees_with_brute_force(self):
        for d in (2, 3, 4, 5):
            for c in range(-40, 41):
                status = nfcount.irreducibility_status(d, c, q_max=11)
                certified = any(brute_irreducible_mod_q(d, c, q) for q in (2, 3, 5, 7, 11))
                assert (status is IrreducibilityStatus.IRREDUCIBLE) == certified, (d, c)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5), st.integers(-1000, 999), st.integers(30, 60))
    def test_filter_equals_brute_force(self, d, lo, n):
        # primes to 13 over 30 to 60 c: the first q build root tables, and
        # once fewer than q c are pending, the rest certify per residue
        cs = list(range(lo, lo + n))
        primes = stats.prime_sieve(13)
        tabled, profile = [], dynamics.count_profile

        def spy(fs, degree, **caps):
            tabled.append(fs.p)
            return profile(fs, degree, **caps)

        with mock.patch.object(dynamics, "count_profile", spy):
            got = nfcount._uncertified(d, cs, primes, dynamics.DEFAULT_EXP_CAP, stats.DEFAULT_SIEVE_CAP)
        irreducible = {(c, q): brute_residue(d, c % q, q) for c in cs for q in primes}
        assert got == [c for c in cs if not any(irreducible[c, q] for q in primes)]
        assert 0 < len(tabled) < len(primes) and tabled == list(primes[: len(tabled)])
        # some c outlasts the tables, so the next prime ran per residue
        assert any(not any(irreducible[c, q] for q in tabled) for c in cs)


class TestBoundedTrinomials:
    def test_interval_and_contents(self):
        cs = nfcount.bounded_trinomials(3, 100)
        assert isinstance(cs, range) and cs == range(-1, 2)
        assert [nfcount.closed_form_disc(3, c) for c in cs] == [-23, 4, -23]

    def test_tight_bound(self):
        assert nfcount.bounded_trinomials(3, 1) == range(0)
        assert nfcount.bounded_trinomials(3, 5) == range(0, 1)

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            nfcount.bounded_trinomials(3, 0)

    def test_completeness_against_window_scan(self):
        # the interval ends where |disc| reaches X on each side; the window
        # scan checks that no c past either end is a hit
        for d in range(2, 9):
            # every c with |disc| below this bound has |c| <= 300
            reach = abs(nfcount.closed_form_disc(d, 301))
            edges = [abs(nfcount.closed_form_disc(d, c)) + e for c in (0, 1, -1, 2, 37, -150) for e in (0, 1)]
            for X in [1, 2, 5, 10, 100, 10**4, 10**6, 10**9, 10**15, *edges]:
                if X > reach:
                    continue
                got = nfcount.bounded_trinomials(d, X)
                want = [c for c in range(-300, 301) if abs(nfcount.closed_form_disc(d, c)) < X]
                assert list(got) == want, (d, X)

    @pytest.mark.parametrize("d", range(2, 11))
    def test_equals_the_disc_filter_at_every_level_boundary(self, d):
        # the filter the integer roots replace: every |c| up to the positive
        # reach, kept where the closed form is below X
        def filtered(X):
            reach = dynamics.integer_root((X + (d - 1) ** (d - 1) - 1) // d**d, d - 1)
            candidates = itertools.chain((0,), *((a, -a) for a in range(1, reach + 1)))
            return [c for c in candidates if abs(nfcount.closed_form_disc(d, c)) < X]

        for c in range(-12, 13):
            level = abs(nfcount.closed_form_disc(d, c))
            for X in (level - 1, level, level + 1, level + 2):
                if X >= 1:
                    assert list(nfcount.bounded_trinomials(d, X)) == sorted(filtered(X)), (d, X)

    def test_no_power_formed_when_the_constant_term_passes_X(self, monkeypatch):
        # (d-1)^(d-1) >= 2^((d-1)(bit_length(d-1) - 1)) > X decides it from bit lengths
        def no_root(*args):
            raise AssertionError("an integer root was taken")

        monkeypatch.setattr(nfcount, "integer_root", no_root)
        assert nfcount.bounded_trinomials(10**6, 10) == range(0)
        assert nfcount.bounded_trinomials(300, 10**700) == range(0)
        with pytest.raises(stats.SieveCapError, match=r"^\|disc\| < 10: c count 1 exceeds the cap 0$"):
            nfcount.bounded_trinomials(10**6, 10, sieve_cap=0)


    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 60), st.one_of(st.integers(-300, 300), st.integers(-(10**30), 10**30)))
    @example(2, 0)  # |disc| = K = 1
    @example(2, -1)
    @example(16, 15)  # c = 2^k - 1, where c.bit_length() is furthest above log2(c)
    def test_disc_bits_is_a_lower_bound(self, d, c):
        assert abs(nfcount.closed_form_disc(d, c)).bit_length() >= nfcount._disc_bits(d, c)


class TestCountByDisc:
    def test_huge_degree_small_bound_counts_nothing_at_once(self):
        # forming (d-1)^(d-1) alone takes seconds at d = 10^6; the count takes microseconds
        nfcount._irreducible_mod_q.cache_clear()
        start = time.perf_counter()
        row = nfcount.count_by_disc(10**6, 10)
        assert time.perf_counter() - start < 1
        assert (row.count, row.unknown, row.exponent_ref, row.bound_ok) == (0, 0, "500000/999999", True)
        assert nfcount._irreducible_mod_q.cache_info().misses == 0

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 8), st.integers(-300, 300), st.integers(-1, 1), st.sampled_from([2, 3, 7, 50]))
    def test_equals_the_per_candidate_statuses(self, d, c, e, q_max):
        # X at the |disc| of either sign of a level, where the count steps
        X = max(abs(nfcount.closed_form_disc(d, c)) + e, 1)
        nfcount._irreducible_mod_q.cache_clear()
        row = nfcount.count_by_disc(d, X, q_max=q_max)
        batch = nfcount._irreducible_mod_q.cache_info().misses
        nfcount._irreducible_mod_q.cache_clear()
        tally = Counter(nfcount.irreducibility_status(d, c, q_max=q_max) for c in nfcount.bounded_trinomials(d, X))
        assert row.count == tally[IrreducibilityStatus.IRREDUCIBLE]
        assert row.unknown == tally[IrreducibilityStatus.UNKNOWN]
        assert batch <= nfcount._irreducible_mod_q.cache_info().misses  # a subset: root tables settle the rest

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 12), st.integers(-60, 60), st.integers(-1, 1))
    @example(4, -3, 0)  # even d: X at |disc(-3)| = A 27 + K admits c = 3, not c = -3
    @example(5, -3, 1)  # odd d: both ends at |c| = 3
    @example(7, 0, 0)  # X = K: no c at all
    def test_equals_the_row_tallies_over_its_interval(self, d, c, e):
        # X at and around the |disc| of a level of either sign
        X = max(abs(nfcount.closed_form_disc(d, c)) + e, 1)
        cs = nfcount.bounded_trinomials(d, X)
        assert all(abs(nfcount.closed_form_disc(d, c)) < X for c in cs)
        assert abs(nfcount.closed_form_disc(d, cs.start - 1)) >= X <= abs(nfcount.closed_form_disc(d, cs.stop))
        if cs:  # an even d reaches no further below 0 than above, as |disc(-a)| = |disc(a)| + 2K
            assert -cs.start == cs.stop - 1 if d % 2 else -cs.start <= cs.stop - 1
        row = nfcount.count_by_disc(d, X)
        tally = Counter(r["irreducibility"] for r in nfcount.trinomial_rows(d, cs.start, cs.stop - 1, trial_bound=0))
        assert (row.count, row.unknown) == (tally["IRREDUCIBLE"], tally["UNKNOWN"])

    def test_cubic_asks_no_certificate_at_a_trillion(self):
        # at d <= 3 a certificate is the root test, which the tables answer;
        # the 256 UNKNOWN c alone outnumber every q <= 50, so each q has a table
        nfcount._irreducible_mod_q.cache_clear()
        row = nfcount.count_by_disc(3, 10**12)
        assert (row.count, row.unknown) == (384532, 256)
        assert nfcount._irreducible_mod_q.cache_info().misses == 0

    @pytest.mark.parametrize("d", range(2, 9))
    def test_root_table_rules_out_certificates(self, d):
        # the scan's fixed-point counts against the gcd certificate: a root
        # mod q is a linear factor, and for d <= 3 the only factor to test
        for q in stats.prime_sieve(50):
            roots = dynamics.count_profile(ff.standard_field(q, 1), d)
            for r in range(q):
                certified = ff.certify_irreducible(q, (r, q - 1) + (0,) * (d - 2) + (1,))
                if roots[r]:
                    assert not certified, (q, r)
                elif d <= 3:
                    assert certified, (q, r)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 8), st.integers(20, 60), st.integers(-1, 1))
    def test_root_tables_and_certificates_in_one_call(self, d, a, e):
        # 41 to 121 candidates: the small primes filter by root table, and
        # once the pending c are fewer than q, by certificate per residue
        X = abs(nfcount.closed_form_disc(d, a)) + e
        tabled, profile = [], dynamics.count_profile

        def spy(fs, degree, **caps):
            tabled.append(fs.p)
            return profile(fs, degree, **caps)

        with mock.patch.object(dynamics, "count_profile", spy):
            row = nfcount.count_by_disc(d, X)
        primes = stats.prime_sieve(nfcount.DEFAULT_Q_MAX)
        tally = Counter(nfcount.irreducibility_status(d, c) for c in nfcount.bounded_trinomials(d, X))
        assert (row.count, row.unknown) == (tally[IrreducibilityStatus.IRREDUCIBLE], tally[IrreducibilityStatus.UNKNOWN])
        # c = 0 stays pending to the end, so the primes past the tables certify per residue
        assert tally[IrreducibilityStatus.REDUCIBLE] > 0
        assert 0 < len(tabled) < len(primes) and tabled == list(primes[: len(tabled)])

    def test_cubic_at_100(self):
        row = nfcount.count_by_disc(3, 100)
        assert row.count == 2
        assert row.unknown == 0
        assert nfcount.bounded_trinomials(3, 100) == range(-1, 2)
        assert [nfcount.irreducibility_status(3, c).value for c in range(-1, 2)] == [
            "IRREDUCIBLE", "REDUCIBLE", "IRREDUCIBLE",
        ]
        assert row.exponent_ref == "3/4"
        assert row.bound_ok

    def test_cubic_growth(self):
        counts = [nfcount.count_by_disc(3, X).count for X in (1, 100, 1000, 10000)]
        assert counts == [0, 2, 10, 36]
        assert counts == sorted(counts)

    def test_quartic_at_300(self):
        row = nfcount.count_by_disc(4, 300)
        assert row.count == 2
        assert row.exponent_ref == "2/3"
        # |disc(-1)| = 256 + 27 and |disc(1)| = 256 - 27 pass 300, |disc(2)| = 2048 - 27 does not
        assert nfcount.bounded_trinomials(4, 300) == range(-1, 2)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 6), st.integers(0, 200), st.integers(-1, 1), st.sampled_from([2, 3, 50]))
    def test_count_reproducible_from_admissible(self, d, a, e, q_max):
        # the admissible candidates are the c that bounded_trinomials yields;
        # X sits at the |disc| of the level |c| = a, where the count steps
        X = max(abs(nfcount.closed_form_disc(d, a)) + e, 1)
        row = nfcount.count_by_disc(d, X, q_max=q_max)
        statuses = [nfcount.irreducibility_status(d, c, q_max=q_max) for c in nfcount.bounded_trinomials(d, X)]
        assert row.count == statuses.count(IrreducibilityStatus.IRREDUCIBLE)
        assert row.unknown == statuses.count(IrreducibilityStatus.UNKNOWN)

    def test_bound_compared_exactly_where_float_is_wrong(self):
        # 64 = 4 * 64^(4/6) exactly, but the float power rounds below 16
        assert not 64 <= 4 * 64 ** (4 / 6)
        assert nfcount._within_bound(64, 4, 64)
        # 4 * 9742^3 > 4 * (9742^4 - 1)^(3/4), but the float power rounds up to it
        t = 9742
        assert 4 * t**3 <= 4 * (t**4 - 1) ** 0.75
        assert not nfcount._within_bound(4 * t**3, 3, t**4 - 1)
        assert nfcount._within_bound(4 * t**3, 3, t**4)
        # the boundary at d = 3: 4 * 16^(3/4) = 32
        assert nfcount._within_bound(32, 3, 16)
        assert not nfcount._within_bound(33, 3, 16)

    def test_bound_at_huge_X(self, monkeypatch):
        X = 10**400
        with pytest.raises(OverflowError):
            X ** (3 / 4)
        monkeypatch.setattr(nfcount, "bounded_trinomials", lambda d, bound, **caps: [0, 1, 2])
        row = nfcount.count_by_disc(3, X)
        assert (row.count, row.unknown) == (2, 0)
        assert row.bound_ok

    def test_as_dict_schema(self):
        payload = nfcount.count_by_disc(3, 100).as_dict()
        assert payload == {
            "d": 3,
            "X": 100,
            "count": 2,
            "unknown": 0,
            "exponent_ref": "3/4",
            "bound_ok": True,
        }


class TestCountByHeight:
    def test_examples(self):
        assert nfcount.count_by_height(3, 2) == 17
        assert nfcount.count_by_height(5, 1) == 3
        assert nfcount.count_by_height(4, 0) == 1
        assert nfcount.count_by_height(2, 1.5) == 5

    def test_against_direct_enumeration(self):
        for d in (2, 3, 4):
            for hmax in (0, 1, 1.5, 2, 2.5):
                want = sum(1 for c in range(-200, 201) if abs(c) ** (1.0 / d) <= hmax)
                assert nfcount.count_by_height(d, hmax) == want, (d, hmax)

    def test_validation(self):
        with pytest.raises(ValueError):
            nfcount.count_by_height(1, 2)
        with pytest.raises(ValueError):
            nfcount.count_by_height(3, -1)
        for hmax in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError):
                nfcount.count_by_height(3, hmax)

    def test_zero_denominator_is_an_argument_error(self):
        with pytest.raises(ff.ArgumentError, match="^height bound 1/0 must be finite$"):
            nfcount.count_by_height(3, "1/0")

    def test_exact_floor(self):
        h = Fraction("123456.7")
        assert nfcount.count_by_height(4, h) == 2 * (1234567**4 // 10**4) + 1
        assert nfcount.count_by_height(4, h) == 464610105844390516269
        # a float is its binary value, just below 123456.7
        assert nfcount.count_by_height(4, 123456.7) == 2 * math.floor(Fraction(123456.7) ** 4) + 1
        assert nfcount.count_by_height(3, Fraction(5, 2)) == 2 * 15 + 1
        assert nfcount.count_by_height(2, 10**30) == 2 * 10**60 + 1

    def test_count_beyond_the_digit_limit_is_refused(self, monkeypatch):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
        with pytest.raises(ff.CapError, match=r"limit \(4300 digits\)"):
            nfcount.count_by_height(20000, 2)
        assert nfcount.count_by_height(1000, 10**4) == 2 * 10**4000 + 1
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 50, raising=False)
        with pytest.raises(ff.CapError, match=r"limit \(50 digits\)"):
            nfcount.count_by_height(3, 10**20)
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)  # 0: no limit
        assert nfcount.count_by_height(3, 10**20) == 2 * 10**60 + 1
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)  # builds without the limit
        with pytest.raises(ff.CapError, match=r"limit \(4300 digits\)"):
            nfcount.count_by_height(20000, 2)


class TestSquarefree:
    def test_cubic_to_10(self):
        rep = nfcount.squarefree_disc_fraction(3, 10)
        assert rep.squarefree == 5
        assert rep.unknown == 0
        assert Fraction(rep.squarefree, rep.limit) == Fraction(5, 10)
        assert rep.reference == ZETA2_INV

    def test_pinned_factorizations(self):
        # odd c gives squarefree values, even c leaves a factor of 4
        facts = {1: 23, 3: 239, 5: 11 * 61, 7: 1319, 9: 37 * 59}
        for c, value in facts.items():
            assert abs(nfcount.closed_form_disc(3, c)) == value
        for c in (2, 4, 6, 8, 10):
            assert abs(nfcount.closed_form_disc(3, c)) % 4 == 0

    def test_small_limits(self):
        rep = nfcount.squarefree_disc_fraction(3, 1)
        assert Fraction(rep.squarefree, rep.limit) == Fraction(1, 1)
        rep = nfcount.squarefree_disc_fraction(3, 2)
        assert Fraction(rep.squarefree, rep.limit) == Fraction(1, 2)  # 104 = 8 * 13 is not squarefree

    def test_unknown_never_counts_as_squarefree(self):
        # with only the prime 2, |disc| = 23 < 3^3 is decided (it was
        # unknown under the square-root rule); 239, 671, 1319, 2183 are not
        rep = nfcount.squarefree_disc_fraction(3, 10, trial_bound=2)
        assert rep.squarefree == 1
        assert rep.unknown == 4
        assert Fraction(rep.squarefree, rep.limit) == Fraction(1, 10)

    def test_reference_constant(self):
        assert abs(ZETA2_INV - 0.607927) < 1e-6
        assert ZETA2_INV == 6 / math.pi**2

    def test_as_dict(self):
        payload = nfcount.squarefree_disc_fraction(3, 10).as_dict()
        assert payload["numerator"] == 5
        assert payload["denominator"] == 10
        assert payload["fraction"] == "1/2"
        assert payload["reference"] == "0.607927"

    def test_validation(self):
        with pytest.raises(ValueError):
            nfcount.squarefree_disc_fraction(3, 0)

    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(2, 6),
        st.integers(1, 300),
        st.sampled_from([0, 1, 2, 3, 10, 50, 1000]),
        st.sampled_from([1, 2, 5, 64, 1 << 14]),
    )
    @example(3, 300, 2, 64)  # UNKNOWN verdicts, past one window
    @example(4, 300, 1000, 5)  # many windows of five c
    @example(6, 200, 50, 1 << 14)  # one window, the primes cut at the trial bound
    @example(4, 300, 2000, 64)  # roots of c^3 = K/A: gcd(3, p - 1) is 1 or 3
    @example(5, 300, 1000, 128)  # gcd(4, p - 1) is 2 or 4: a root of a root
    @example(6, 250, 2000, 100)  # gcd(5, p - 1) is 1 or 5
    def test_equals_the_per_c_trial_tally(self, d, limit, trial_bound, window):
        primes = stats.prime_sieve(trial_bound)
        verdicts = Counter(
            squarefree_by_trial(abs(nfcount.closed_form_disc(d, c)), trial_bound, primes)
            for c in range(1, limit + 1)
        )
        with mock.patch.object(nfcount, "_SQUAREFREE_WINDOW", window):
            rep = nfcount.squarefree_disc_fraction(d, limit, trial_bound=trial_bound)
        assert (rep.squarefree, rep.unknown) == (verdicts[True], verdicts[None])

    def test_equals_the_per_c_trial_tally_past_one_full_window(self):
        limit = nfcount._SQUAREFREE_WINDOW + 300
        primes = stats.prime_sieve(nfcount.DEFAULT_TRIAL_BOUND)
        verdicts = [
            squarefree_by_trial(abs(nfcount.closed_form_disc(3, c)), nfcount.DEFAULT_TRIAL_BOUND, primes)
            for c in range(1, limit + 1)
        ]
        column = nfcount._squarefree_column(3, 1, limit, nfcount.DEFAULT_TRIAL_BOUND, stats.DEFAULT_SIEVE_CAP)
        assert list(column) == verdicts

    def test_disc_roots_equal_brute_force(self):
        # the grid holds p = 2, p | d (no root), p | d - 1 (the root 0) and
        # composite g = gcd(d - 1, p - 1) at d - 1 = 4, 6, 8 and 9
        for d in range(2, 11):
            A, K = d**d, (d - 1) ** (d - 1)
            for p in stats.prime_sieve(400):
                want = [c for c in range(p) if (A * c ** (d - 1) - K) % p == 0]
                assert nfcount._disc_roots(d, p) == want, (d, p)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(2, 40),
        st.sampled_from([p for p in stats.prime_sieve(20000) if p >= 400]),
        st.sampled_from([1, -1]),
    )
    # g = gcd(d - 1, p - 1) roots for each sign, from several Adleman-Manders-Miller
    # steps: g = 16 with 2^6 | p - 1, and g = 27 with 3^4 | p - 1
    @example(17, 4673, 1)
    @example(17, 4673, -1)
    @example(28, 2269, 1)
    @example(28, 2269, -1)
    def test_disc_roots_equal_brute_force_at_large_primes(self, d, p, sign):
        A, K = d**d, (d - 1) ** (d - 1)
        want = [a for a in range(p) if (A * a ** (d - 1) + sign * K) % p == 0]
        assert nfcount._disc_roots(d, p, sign) == want

    def test_memory_is_bounded_by_the_window(self, monkeypatch):
        # a sieve over the whole range would hold every c at once
        monkeypatch.setattr(nfcount, "_SQUAREFREE_WINDOW", 1024)
        stats.prime_sieve(nfcount.DEFAULT_TRIAL_BOUND)  # the shared prime tuple is sieved before either run

        def peak(limit):
            tracemalloc.start()
            try:
                nfcount.squarefree_disc_fraction(3, limit)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, several = peak(1024), peak(8 * 1024)
        assert several < 1.25 * one, (one, several)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 12),
        st.integers(0, 60),
        st.integers(0, 60),
        st.sampled_from([0, 2, 50, 10**5]),
        st.sampled_from([1, -1]),
        st.integers(1, 400),
    )
    @example(7, 0, 40, 10**5, -1, 1)  # a window of one a from a = 0
    @example(4, 10, 50, 2, 1, 300)  # even d, the + K side, UNKNOWN verdicts
    def test_window_bits_change_no_verdict(self, d, lo, size, trial_bound, sign, bits):
        # windows of a few bits (one or a few a each) give the verdicts of one window
        hi, primes = lo + size, stats.prime_sieve(trial_bound)
        whole = list(nfcount._squarefree_verdicts(d, lo, hi, sign, trial_bound, primes))
        with mock.patch.object(nfcount, "_WINDOW_BITS", bits):
            assert list(nfcount._squarefree_verdicts(d, lo, hi, sign, trial_bound, primes)) == whole

    def test_memory_is_bounded_by_the_window_bits(self, monkeypatch):
        # at d = 1000 each |disc| has about 20,000 bits: a window of 2^14 a would hold every c at once
        monkeypatch.setattr(nfcount, "_WINDOW_BITS", 8 * 20_000)
        stats.prime_sieve(100)

        def peak(limit):
            tracemalloc.start()
            try:
                nfcount.squarefree_disc_fraction(1000, limit, trial_bound=100)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, several = peak(64), peak(8 * 64)
        assert several < 1.25 * one, (one, several)


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit


class TestTrinomialRow:
    def test_row_contents(self):
        row = nfcount.trinomial_row(3, 1)
        assert row == {
            "d": 3,
            "c": 1,
            "disc": -23,
            "height": 1.0,
            "irreducibility": "IRREDUCIBLE",
            "squarefree": "true",
        }

    def test_row_for_reducible_even(self):
        row = nfcount.trinomial_row(3, 2)
        assert row["disc"] == -104
        assert row["irreducibility"] == "IRREDUCIBLE"
        assert row["squarefree"] == "false"

    def test_row_unknown_squarefree(self):
        row = nfcount.trinomial_row(3, 3, trial_bound=2)
        assert row["squarefree"] == "unknown"
        # 23 < 3^3 has at most two prime factors above 2: decided
        assert nfcount.trinomial_row(3, 1, trial_bound=2)["squarefree"] == "true"

    @given(st.integers(2, 12), st.integers(-(10**6), 10**6), st.integers(0, 3000))
    @settings(max_examples=200, deadline=None)
    def test_squarefree_cell_as_from_the_whole_prime_list(self, d, c, bound):
        # the row sieves only to min(bound, |disc|^(1/3))
        sf = squarefree_by_trial(abs(nfcount.closed_form_disc(d, c)), bound, stats._sieve(bound))
        cell = "unknown" if sf is None else ("true" if sf else "false")
        assert nfcount.trinomial_row(d, c, trial_bound=bound)["squarefree"] == cell

    def test_rows_of_a_c_range_share_one_sieve(self, monkeypatch):
        limits = []
        real = stats.prime_sieve

        def recording(limit, **caps):
            limits.append(limit)
            return real(limit, **caps)

        monkeypatch.setattr(stats, "prime_sieve", recording)
        assert len(nfcount.trinomial_rows(3, 1000, 1100)) == 101
        # one list of trial primes to (27 * 1100^2 - 4)^(1/3), taken first, as the squarefree
        # size rule comes before any irreducibility work, and one of certificate primes
        assert limits == [319, nfcount.DEFAULT_Q_MAX]

    def test_trial_bound_is_refused_before_any_work(self, monkeypatch):
        monkeypatch.setattr(nfcount, "_uncertified", mock.Mock(side_effect=AssertionError))
        monkeypatch.setattr(stats, "_sieve", mock.Mock(side_effect=AssertionError))
        # the row itself would sieve only to 2, the cube root of 23
        with pytest.raises(stats.SieveCapError, match="^sieve limit 11 exceeds the cap 10$"):
            nfcount.trinomial_row(3, 1, q_max=5, trial_bound=11, sieve_cap=10)

    def test_unwritable_rows_are_refused_before_any_work(self, monkeypatch):
        monkeypatch.setattr(nfcount, "_uncertified", mock.Mock(side_effect=AssertionError))
        with pytest.raises(ff.ArgumentError, match="the largest float"):
            nfcount.trinomial_row(3, -int(sys.float_info.max) - 1)

    @pytest.mark.skipif(_DIGIT_LIMIT != 4300, reason="the bounds below are for the default digit limit")
    def test_unprintable_discriminants_are_refused_before_any_work(self, monkeypatch):
        monkeypatch.setattr(nfcount, "_uncertified", mock.Mock(side_effect=AssertionError))
        with pytest.raises(ff.CapError, match=r"d = 20 and a 748-bit c may exceed the limit \(4300 digits\)"):
            nfcount.trinomial_row(20, 2**747 + 2**744)
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0, raising=False)  # 0: no limit
        with pytest.raises(AssertionError):  # past the digit check, at the first piece of work
            nfcount.trinomial_row(20, 2**747 + 2**744)

    @pytest.mark.skipif(_DIGIT_LIMIT != 4300, reason="the bounds below are for the default digit limit")
    def test_the_digit_bound_is_tight_at_c_1(self):
        # |disc| = d^d - (d-1)^(d-1) has 4,299 digits at d = 1370 and 4,302 at 1371
        for d in (1300, 1370):
            nfcount._check_c(d, 1)
            str(nfcount.closed_form_disc(d, 1))
        with pytest.raises(ff.CapError, match="d = 1371 and a 1-bit c"):
            nfcount._check_c(1371, 1)
        with pytest.raises(ValueError):
            str(nfcount.closed_form_disc(1371, 1))


_CELLS = {None: "unknown", True: "true", False: "false"}


class TestIntervalRows:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(2, 12),
        st.integers(-40, 40),
        st.integers(0, 40),
        st.sampled_from([0, 1, 2, 10, 10**5]),
        st.sampled_from([1, 7, 1 << 14]),
    )
    @example(4, -20, 40, 10**5, 1 << 14)  # even d, both signs
    @example(5, -40, 40, 2, 7)  # odd d, UNKNOWN verdicts, many windows
    @example(8, -20, 40, 1000, 7)  # even d >= 6, few a per prime in each of many windows
    @example(11, -10, 30, 1000, 7)  # odd d >= 6, likewise
    @example(2, 0, 0, 0, 1)  # c = 0 alone, |disc| = K = 1
    @example(2, -40, 39, 10**5, 1 << 14)  # the primes reach past |disc(hi)|^(1/3)
    @example(2, -31, 62, 10**5, 1 << 14)  # a tie in |c|: |disc(lo)| is the larger
    def test_rows_equal_the_per_c_references(self, d, lo, size, trial_bound, window):
        hi = lo + size
        with mock.patch.object(nfcount, "_SQUAREFREE_WINDOW", window):
            rows = nfcount.trinomial_rows(d, lo, hi, trial_bound=trial_bound)
        primes = stats.prime_sieve(trial_bound)
        assert rows == [
            {
                "d": d,
                "c": c,
                "disc": nfcount.closed_form_disc(d, c),
                "height": abs(c) ** (1.0 / d),
                "irreducibility": nfcount.irreducibility_status(d, c).value,
                "squarefree": _CELLS[squarefree_by_trial(abs(nfcount.closed_form_disc(d, c)), trial_bound, primes)],
            }
            for c in range(lo, hi + 1)
        ]

    def test_negative_c_of_even_degree_sieve_the_plus_k_roots(self):
        # |disc(-a)| = A a^(d-1) + K for even d: the residues of A a^(d-1) = -K
        for d in (2, 4, 6, 8, 10):
            A, K = d**d, (d - 1) ** (d - 1)
            for p in stats.prime_sieve(400):
                want = [a for a in range(p) if (A * a ** (d - 1) + K) % p == 0]
                assert nfcount._disc_roots(d, p, 1) == want, (d, p)
                assert all(abs(nfcount.closed_form_disc(d, -a)) == A * a ** (d - 1) + K for a in range(1, 5))


class TestSquareScreen:
    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.integers(0, 10**6),
            st.integers(0, 1 << 4000),
            st.integers(0, 1 << 2000).map(lambda r: r * r),
            st.integers(1, 1 << 2000).map(lambda r: r * r - 1),
            st.integers(0, 1 << 2000).map(lambda r: r * r + 1),
            st.integers(0, 1 << 2000).map(lambda r: 931170240 * r * r),
        )
    )
    @example(0)
    @example(1)
    @example((1 << 256) - 1)  # the last cofactor below the screen, and the first at it
    @example(1 << 256)
    def test_agrees_with_isqrt(self, n):
        assert nfcount._is_square(n) == (math.isqrt(n) ** 2 == n)
        if n:  # the cofactor rule, with or without the screen, against the oracle's plain isqrt
            assert nfcount._squarefree_by_trial(n, 0) == squarefree_by_trial(n, 0, ())

    def test_the_residue_tables_hold_every_square(self):
        for m, squares in nfcount._SQUARES_MOD:
            assert squares == {x * x % m for x in range(m)}
        assert math.prod(m for m, _ in nfcount._SQUARES_MOD) == 931170240 < 1 << 30


def sqrt_rule_squarefree(u, primes):
    """The square-root rule _squarefree_by_trial used before the cube-root
    rule: divide by primes while p^2 <= rem, settle rem <= B^2 as prime."""
    rem = u
    exhausted = True
    for p in primes:
        if p * p > rem:
            exhausted = False
            break
        if rem % p == 0:
            rem //= p
            if rem % p == 0:
                return False
    if rem == 1 or not exhausted:
        return True
    bound = primes[-1] if primes else 1
    if rem <= bound * bound:
        return True
    r = math.isqrt(rem)
    if r * r == rem:
        return False
    return None


def by_trial(u, trial_bound):
    return squarefree_by_trial(u, trial_bound, stats.prime_sieve(trial_bound))


def brute_squarefree(u):
    return all(u % (k * k) for k in range(2, math.isqrt(u) + 1))


TRIAL_BOUNDS = [0, 1, 2, 3, 10, 50, 1000, 10**5]


class TestCubeRootRule:
    @settings(max_examples=500, deadline=None)
    @given(
        st.one_of(
            st.integers(1, 10**8),
            # square cofactors and products of two large primes sit on the rule's edges
            st.builds(lambda a, b: a * b * b, st.integers(1, 1000), st.integers(2, 3000)),
            st.builds(lambda a, b: a * b, st.sampled_from([11, 13, 101, 997]), st.integers(1, 10**5)),
        ),
        st.sampled_from(TRIAL_BOUNDS),
    )
    def test_sound_and_decides_wherever_the_sqrt_rule_did(self, u, trial_bound):
        verdict = by_trial(u, trial_bound)
        if verdict is not None:
            assert verdict == brute_squarefree(u)
        old = sqrt_rule_squarefree(u, stats.prime_sieve(trial_bound))
        if old is not None:
            assert verdict == old

    @pytest.mark.parametrize("trial_bound", [0, 1, 2, 10])
    def test_settles_every_u_below_the_cube_bound(self, trial_bound):
        # below (B + 1)^3, and below 2^3 even with no primes at all
        for u in range(1, (max(trial_bound, 1) + 1) ** 3):
            assert by_trial(u, trial_bound) == brute_squarefree(u), (u, trial_bound)

    def test_unknown_beyond_the_cube_bound(self):
        assert by_trial(11 * 13 * 17, 10) is None
        assert by_trial(37 * 37, 10) is False  # a square settles at any size
        assert by_trial(11 * 13, 10) is True
        assert by_trial(9, 0) is False
        assert by_trial(11, 0) is None

    def test_quartic_discriminants_all_decided(self):
        # |disc| of x^4 - x + c outgrows B^2 = 10^10 near c = 1700, not B^3
        rep = nfcount.squarefree_disc_fraction(4, 3000)
        assert rep.unknown == 0
        assert rep.squarefree == sum(
            1 for c in range(1, 3001) if by_trial(abs(nfcount.closed_form_disc(4, c)), 10**5)
        )


class TestCaps:
    def test_disc_bound_refused_before_any_candidate(self, monkeypatch):
        def no_disc(d, c):
            raise AssertionError("a candidate was examined")

        monkeypatch.setattr(nfcount, "closed_form_disc", no_disc)
        with pytest.raises(stats.SieveCapError, match=r"exceeds the cap 100000000$"):
            nfcount.count_by_disc(3, 10**40)
        with pytest.raises(ff.CapError, match=r"^\|disc\| < 300: c count 7 exceeds the cap 6$"):
            nfcount.bounded_trinomials(3, 300, sieve_cap=6)

    def test_disc_bound_reach_is_exact(self):
        # the candidates are the 2r + 1 values |c| <= r, so the cap is tight
        for d in (2, 3, 4, 5):
            for X in (1, 5, 24, 100, 10**4, 10**5):
                cs = nfcount.bounded_trinomials(d, X)
                reach = max(abs(c) for c in cs) if cs else 0
                assert nfcount.bounded_trinomials(d, X, sieve_cap=2 * reach + 1) == cs
                if reach:
                    with pytest.raises(stats.SieveCapError):
                        nfcount.bounded_trinomials(d, X, sieve_cap=2 * reach)

    def test_squarefree_limit_refused_before_any_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("a discriminant was tested")

        monkeypatch.setattr(nfcount, "_squarefree_by_trial", no_work)
        monkeypatch.setattr(nfcount, "_squarefree_verdicts", no_work)
        with pytest.raises(stats.SieveCapError, match=r"^c in \[1, 11\]: c count 11 exceeds the cap 10$"):
            nfcount.squarefree_disc_fraction(3, 11, sieve_cap=10)


class TestSquarefreeSizeRule:
    """_squarefree_column refuses an interval whose |disc| _disc_bits puts past
    _SQUAREFREE_BITS, before any power is formed."""

    @pytest.fixture
    def no_power(self, monkeypatch):
        def power(*args):
            raise AssertionError("a power was formed")

        monkeypatch.setattr(nfcount, "_squarefree_verdicts", power)
        monkeypatch.setattr(nfcount, "closed_form_disc", power)

    def test_huge_degree_is_refused(self, no_power, capsys):
        message = f"|disc| for d = 1000000 and c = 1 has over {nfcount._SQUAREFREE_BITS} bits, the squarefree limit"
        with pytest.raises(ff.CapError, match=re.escape(message)):
            nfcount.squarefree_disc_fraction(10**6, 1)
        assert cli.main(["nf", "--d", "1000000", "--squarefree", "1"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_the_edge_of_the_rule(self, no_power):
        # 17 d <= 2^22 up to d = 246,723 at c = 1; c = 2 adds d - 1 bits
        assert nfcount._disc_bits(100000, 30) <= nfcount._SQUAREFREE_BITS  # README's d = 10^5, limit 30 is answered
        with pytest.raises(AssertionError, match="a power was formed"):
            nfcount.squarefree_disc_fraction(246723, 1)
        for d, limit in ((246724, 1), (246723, 2)):
            with pytest.raises(ff.CapError, match="the squarefree limit"):
                nfcount.squarefree_disc_fraction(d, limit)

    def test_the_larger_end_decides(self, no_power):
        with pytest.raises(ff.CapError, match=r"^\|disc\| for d = 246723 and c = -2 has"):
            nfcount._squarefree_column(246723, -2, 1, 10, 10**8)

    def test_c_range_refused_before_any_irreducibility_work(self, no_power, monkeypatch):
        # with no digit limit only the size rule stands between a c-range row and d^d
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0, raising=False)
        monkeypatch.setattr(nfcount, "_uncertified", mock.Mock(side_effect=AssertionError))
        with pytest.raises(ff.CapError, match="the squarefree limit"):
            nfcount.trinomial_rows(10**6, 1, 1)

    @pytest.mark.parametrize("d, lo, hi, trial_bound", [
        (3, 10**6, 10**6 + 40, 100),
        (4, -500, 200, 10),
        (6, -30, 30, 1000),
        (2, 1, 50, 0),
        (12, -3, 3, 1),
    ])
    def test_no_discriminant_where_the_bound_settles_the_primes(self, monkeypatch, d, lo, hi, trial_bound):
        # past B^3 by bit length, the prime list stops at B, and no |disc| is formed to say so
        assert nfcount._disc_bits(d, max(lo, hi, key=abs)) > (trial_bound**3).bit_length()
        primes = stats.prime_sieve(trial_bound)
        want = [squarefree_by_trial(abs(nfcount.closed_form_disc(d, c)), trial_bound, primes) for c in range(lo, hi + 1)]
        monkeypatch.setattr(nfcount, "closed_form_disc", mock.Mock(side_effect=AssertionError))
        assert list(nfcount._squarefree_column(d, lo, hi, trial_bound, stats.DEFAULT_SIEVE_CAP)) == want


class TestHeightProperty:
    def test_height_is_computed_on_read(self):
        row = nfcount.trinomial_row(3, -8)
        assert row["disc"] == nfcount.closed_form_disc(3, -8)
        assert row["height"] == abs(-8) ** (1.0 / 3) == 2.0

    def test_certifying_primes_come_from_one_memoized_tuple(self, monkeypatch):
        lists = []
        real = stats.prime_sieve

        def recording(limit, **caps):
            lists.append(real(limit, **caps))
            return lists[-1]

        stats._sieve.cache_clear()
        monkeypatch.setattr(stats, "prime_sieve", recording)
        nfcount.count_by_disc(3, 10**6)
        assert stats._sieve.cache_info().misses == 1  # one sieve
        assert len(lists) == 1 and lists[0][-1] == 47  # and one lookup, not one per candidate


class Stop(Exception):
    pass


# Every nf entry point that reads a prime list, called with one of its lists
# at `limit` and the cap at 10^9.
PRIME_LIST_READERS = {
    "count_by_disc": lambda limit, cap: nfcount.count_by_disc(3, 1000, q_max=limit, sieve_cap=cap),
    "squarefree_disc_fraction": lambda limit, cap: nfcount.squarefree_disc_fraction(
        3, 5, trial_bound=limit, sieve_cap=cap
    ),
    "trinomial_row q_max": lambda limit, cap: nfcount.trinomial_row(3, 2, q_max=limit, sieve_cap=cap),
    "trinomial_row trial_bound": lambda limit, cap: nfcount.trinomial_row(
        3, 2, trial_bound=limit, sieve_cap=cap
    ),
    "c-range rows": lambda limit, cap: cli.main(
        ["nf", "--d", "3", "--c-range", "0:2", "--trial-bound", str(limit), "--sieve-cap", str(cap)]
    ),
}


class TestPrimeListCaps:
    """nf's prime lists meet the caller's sieve_cap, never the 10^8 default."""

    @pytest.fixture
    def checks(self, monkeypatch, capsys):
        seen = []
        real = stats.check_sieve_cap

        def recording(size, sieve_cap, what="sieve limit"):
            seen.append((what, size, sieve_cap))
            if size > stats.DEFAULT_SIEVE_CAP:
                raise Stop  # past the default cap: what it was checked against is all that matters
            real(size, sieve_cap, what)

        monkeypatch.setattr(stats, "check_sieve_cap", recording)
        return seen

    @pytest.mark.parametrize("reader", list(PRIME_LIST_READERS))
    def test_every_check_uses_the_callers_cap(self, checks, reader):
        PRIME_LIST_READERS[reader](2000, 10**9)
        assert ("sieve limit", 2000, 10**9) in checks
        assert {cap for _, _, cap in checks} == {10**9}

    @pytest.mark.parametrize("reader", list(PRIME_LIST_READERS))
    def test_a_list_above_the_default_cap_is_checked_against_a_raised_cap(self, checks, reader):
        with pytest.raises(Stop):
            PRIME_LIST_READERS[reader](2 * 10**8, 10**9)
        assert checks[-1] == ("sieve limit", 2 * 10**8, 10**9)
