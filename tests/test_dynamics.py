"""Fixed-point counting, functional graphs, and integer roots.

The package counts by the scan and, for d = p^ell, by the Frobenius-linear
engine.  The tests hold both, in exact agreement, to the plain FFElement
brute force used here and to the gcd and functional-graph oracles of
tests/oracles.py, which share no engine with either.
"""

import math
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from fixcensus import claims, dynamics, ff, stats
from fixcensus.claims import Verdict
from fixcensus.cli import _census_point
from fixcensus.dynamics import Family
from fixcensus.ff import FieldCapError
from oracles import brute_force_orbit, gcd_root_count


def brute_force_fixed_points(fs, d, c):
    """Independent oracle: direct FFElement evaluation of z^d + c = z."""
    return [z for z in map(fs.element_at, range(fs.order)) if z**d + c == z]


class TestFamilyDegree:
    def test_families(self):
        assert Family.PRIME_POWER.degree(3, 2) == 9
        assert Family.P_MINUS_ONE.degree(7, 2) == 36
        assert Family.RAW.degree(4, 5) == 5  # raw returns k; p is unused

    def test_validation(self):
        for family, p, ell, message in [
            (Family.PRIME_POWER, 4, 1, "prime-power family needs a prime p and ell >= 1"),
            (Family.PRIME_POWER, 3, 0, "prime-power family needs a prime p and ell >= 1"),
            (Family.P_MINUS_ONE, 9, 1, "pminus1 family needs a prime p and ell >= 1"),
            (Family.P_MINUS_ONE, 3, 1, "pminus1 family needs p >= 5"),
        ]:
            with pytest.raises(ff.ArgumentError, match=message):
                family.degree(p, ell)


class TestCapRule:
    """dynamics.capped_degree against brute force, and check_point on top of it."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([2, 3, 5, 7, 11, 13]),
        st.integers(1, 6),
        st.sampled_from(list(Family)),
        st.integers(1, 8),
        st.data(),
    )
    def test_refuses_exactly_past_a_cap(self, p, n, family, k, data):
        if family is Family.P_MINUS_ONE and p < 5 or family is Family.RAW and k < 2:
            with pytest.raises(ff.ArgumentError):
                dynamics.capped_degree(p, n, family, k)
            return
        q, d = p**n, family.degree(p, k)
        # small caps, and caps just below, at and just above q and d; a field
        # is scanned only within its cap, so no scan passes 3001 elements
        field_caps = st.integers(1, 3000) | st.sampled_from([q - 1, q, q + 1] if q <= 3000 else [1])
        field_cap = data.draw(field_caps)
        exp_cap = data.draw(st.integers(1, 3000) | st.sampled_from([d - 1, d, d + 1]))
        refusal = FieldCapError if q > field_cap else dynamics.ExponentCapError if d > exp_cap else None
        caps = {"field_cap": field_cap, "exp_cap": exp_cap}
        spec = None
        if family is not Family.RAW:
            spec = claims.ClaimSpec("T", family, "any point", False, (("0", 0),))
        if refusal is None:
            assert dynamics.capped_degree(p, n, family, k, **caps) == d
            if spec is not None:
                assert claims.check_point(spec, p, n, k, **caps).status is not Verdict.SKIPPED
            return

        def no_field(*args):
            raise AssertionError("a field was built before the caps were checked")

        with mock.patch.object(ff, "find_irreducible", no_field), \
                mock.patch.object(ff, "standard_field", no_field):
            with pytest.raises(ff.CapError) as refused:
                dynamics.capped_degree(p, n, family, k, **caps)
            assert type(refused.value) is refusal
            if spec is not None:
                res = claims.check_point(spec, p, n, k, **caps)
                assert (res.status, res.note) == (Verdict.SKIPPED, str(refused.value))

    def test_huge_exponents_are_refused_unformed(self):
        for family, p, base in [(Family.PRIME_POWER, 3, 3), (Family.P_MINUS_ONE, 5, 4)]:
            with pytest.raises(
                dynamics.ExponentCapError,
                match=rf"^map degree {base}\^{10**9} exceeds the exponent cap 1000000$",
            ):
                dynamics.capped_degree(p, 2, family, 10**9)
        with pytest.raises(FieldCapError, match=r"^field order 3\^1000000000 exceeds the cap 10000000$"):
            dynamics.capped_degree(3, 10**9, Family.RAW, 2)


# The field counters and the gcd oracle, each as (fs, d, c) -> a comparable result.
COUNTERS = [
    dynamics.fixed_point_count,
    gcd_root_count,
    dynamics.orbit_census,
]


class TestCounterArguments:
    def test_coefficient_resolution(self):
        # an integer is the prime-subfield element it names; a foreign element is refused
        fs = ff.standard_field(5, 2)
        for c in (0, 1, 7, -1, fs.p + 1, 10**399 + 7):
            assert dynamics._coefficient_index(fs, c) == fs.from_int(c).index
            for counter in COUNTERS:
                assert counter(fs, 4, c) == counter(fs, 4, fs.from_int(c))
        for counter in COUNTERS:
            with pytest.raises(ff.ArgumentError, match="coefficient belongs to a different field"):
                counter(fs, 4, ff.standard_field(5, 1).one)

    def test_degree_below_two_refused(self):
        fs = ff.standard_field(5, 1)
        for counter in COUNTERS:
            for d in (1, 0, -3):
                with pytest.raises(ff.ArgumentError, match=f"map degree {d} must be at least 2"):
                    counter(fs, d, 0)


class TestFixedPointCount:
    def test_prime_power_ground_truth_n1(self):
        # On F_p the degree-p^ell map fixes everything when p | c, nothing otherwise.
        for p in (3, 5, 7, 11, 13):
            fs = ff.standard_field(p, 1)
            for ell in (1, 2, 3):
                for c in range(-6, 7):
                    want = p if c % p == 0 else 0
                    assert dynamics.fixed_point_count(fs, p**ell, c) == want

    def test_pminus1_ground_truth_n1(self):
        # Counts 2, 1, 0 at c = 0, 1, -1 mod p; 1 elsewhere comes from the
        # unique root the odd part contributes, checked against brute force.
        for p in (5, 7, 11, 13):
            fs = ff.standard_field(p, 1)
            for c in range(p):
                got = dynamics.fixed_point_count(fs, p - 1, c)
                assert got == len(brute_force_fixed_points(fs, p - 1, fs.from_int(c)))
                if c == 0:
                    assert got == 2
                elif c == 1:
                    assert got == 1
                elif c == p - 1:
                    assert got == 0

    def test_matches_brute_force_on_extensions(self):
        for p, n in [(3, 2), (3, 3), (5, 2), (7, 2)]:
            fs = ff.standard_field(p, n)
            for d in (2, 3, 4, p, p * p):
                for idx in range(0, fs.order, 3):
                    c = fs.element_at(idx)
                    assert dynamics.fixed_point_count(fs, d, c) == len(
                        brute_force_fixed_points(fs, d, c)
                    )

    def test_fixed_points_listing(self):
        fs = ff.standard_field(5, 1)
        for c, listing in [(1, ["2"]), (4, []), (0, ["0", "1"])]:
            assert [str(z) for z in brute_force_fixed_points(fs, 4, fs.from_int(c))] == listing
            assert dynamics.fixed_point_count(fs, 4, c) == len(listing)

    def test_field_cap_refusal(self):
        fs = ff.standard_field(11, 2)
        with pytest.raises(FieldCapError):
            dynamics.fixed_point_count(fs, 3, 1, field_cap=100)
        with pytest.raises(dynamics.ExponentCapError):
            dynamics.fixed_point_count(fs, 10**7, 1)

    def test_gcd_counter_ignores_field_cap(self):
        # the gcd oracle is polynomial in d and log q, so no field cap binds
        fs = ff.standard_field(11, 2)
        assert gcd_root_count(fs, 3, 1) == len(
            brute_force_fixed_points(fs, 3, fs.from_int(1))
        )


class TestGcdOracle:
    def test_examples(self):
        assert gcd_root_count(ff.standard_field(7, 1), 6, 3) == 1
        assert gcd_root_count(ff.standard_field(5, 2), 4, 0) == 4
        assert gcd_root_count(ff.standard_field(3, 2), 9, 0) == 9

    def test_reaches_no_scan_engine(self, monkeypatch):
        cases = [(ff.standard_field(p, n), d, c) for p, n, d, c in
                 [(3, 2, 9, 0), (5, 2, 4, 0), (7, 1, 6, 3), (2, 4, 3, 1), (11, 2, 5, 7)]]
        expected = [len(brute_force_fixed_points(fs, d, fs.from_int(c))) for fs, d, c in cases]

        def refuse(*args):
            raise AssertionError("gcd_root_count reached a package engine")

        monkeypatch.setattr(ff, "field_ops", refuse)
        monkeypatch.setattr(dynamics, "field_ops", refuse)
        monkeypatch.setattr(dynamics, "_trace", refuse)
        monkeypatch.setattr(dynamics, "_affine_profile", refuse)
        assert [gcd_root_count(fs, d, c) for fs, d, c in cases] == expected

    def test_no_field_cap_on_a_large_field(self):
        # F_5^40 has about 9e27 elements; the closed form is 5^gcd(40, ell)
        fs = ff.standard_field(5, 40)
        for ell, c in [(1, 0), (1, 3)]:
            expected = stats._prime_power_count(5, 40, ell, c)
            assert gcd_root_count(fs, 5**ell, c) == expected == 5**ell
        # the closed form is the linear engine's trace rule at an integer c
        for ell, c in [(1, 3), (8, 2), (20, 4), (40, 0), (40, 1), (80, 3)]:
            g = math.gcd(40, ell)
            on_trace = dynamics._trace(fs.from_int(c), g).is_zero
            assert stats._prime_power_count(5, 40, ell, c) == (5**g if on_trace else 0), (ell, c)

    @given(
        st.sampled_from([(p, n) for p in (2, 3, 5, 7, 11, 13) for n in range(1, 11) if p**n <= 2000]),
        st.integers(2, 40),
        st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_count_profile(self, field, d, data):
        fs = ff.standard_field(*field)
        c = fs.element_at(data.draw(st.integers(0, fs.order - 1)))
        assert dynamics.count_profile(fs, d)[c.index] == gcd_root_count(fs, d, c)

    @pytest.mark.parametrize("p, n, d", [(3, 7, 150), (3, 7, 301), (11, 3, 110)])
    def test_matches_count_profile_past_degree_100(self, p, n, d):
        # d < q, so z^q mod f is reduced at each squaring, not read off z^q
        fs = ff.standard_field(p, n)
        profile = dynamics.count_profile(fs, d)
        for i in (0, 1, p - 1, p + 1, fs.order - 1):
            assert gcd_root_count(fs, d, fs.element_at(i)) == profile[i], i

    def test_dual_oracle_agreement_sample(self):
        for p, n in [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2), (11, 1)]:
            fs = ff.standard_field(p, n)
            for d in (2, 3, 5, 6, 12):
                for idx in range(fs.order):
                    c = fs.element_at(idx)
                    assert dynamics.fixed_point_count(fs, d, c) == gcd_root_count(fs, d, c), (
                        p, n, d, str(c),
                    )


class TestCountProfile:
    def test_matches_per_coefficient_counts(self):
        for p, n in [(3, 2), (5, 1), (5, 2), (7, 1)]:
            fs = ff.standard_field(p, n)
            for d in (2, 4, p):
                profile = dynamics.count_profile(fs, d)
                assert len(profile) == fs.order
                assert sum(profile) == fs.order  # each z fixes exactly one c
                for idx in range(fs.order):
                    assert profile[idx] == dynamics.fixed_point_count(fs, d, fs.element_at(idx))

    @given(
        st.sampled_from([(2, 1), (3, 1), (7, 1), (13, 1), (2, 3), (3, 2), (5, 2), (2, 4)]),
        st.integers(2, 200),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_scan_views_match_brute_force(self, field, d, data):
        fs = ff.standard_field(*field)
        c = fs.element_at(data.draw(st.integers(0, fs.order - 1)))
        count = dynamics.fixed_point_count(fs, d, c)
        assert count == dynamics.count_profile(fs, d)[c.index] == len(brute_force_fixed_points(fs, d, c))


    def test_scans_keep_no_list_of_images(self):
        # one log-space pass: count_profile holds its histogram and little
        # else, fixed_point_count not even that
        fs = ff.standard_field(3, 9)
        ff.field_ops(fs)  # the tables are built before the trace

        def peak(scan):
            tracemalloc.start()
            try:
                return scan(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        profile, profile_peak = peak(lambda: dynamics.count_profile(fs, 3))
        count, count_peak = peak(lambda: dynamics.fixed_point_count(fs, 3, 0))
        assert count == profile[0] == 3
        assert profile_peak <= 1.25 * sys.getsizeof(profile), (profile_peak, sys.getsizeof(profile))
        assert count_peak <= 0.05 * sys.getsizeof(profile), count_peak

    def test_log_scans_keep_no_list_of_images(self):
        # d = 3 above runs the linear engine on F_3^9; d = 2 still scans the logs
        fs = ff.standard_field(3, 9)
        ff.field_ops(fs)

        def peak(scan):
            tracemalloc.start()
            try:
                return scan(), tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        profile, profile_peak = peak(lambda: dynamics.count_profile(fs, 2))
        count, count_peak = peak(lambda: dynamics.fixed_point_count(fs, 2, 0))
        assert count == profile[0] == 2  # z^2 = z: z = 0 and z = 1
        assert sum(profile) == fs.order
        assert profile_peak <= 1.25 * sys.getsizeof(profile), (profile_peak, sys.getsizeof(profile))
        assert count_peak <= 0.05 * sys.getsizeof(profile), count_peak


class TestOrbitCensus:
    def test_example_c0(self):
        fs = ff.standard_field(5, 1)
        oc = dynamics.orbit_census(fs, 4, 0)
        assert oc.component_count == 2
        assert oc.cycle_lengths == (1, 1)
        assert oc.fixed_point_count == 2
        assert oc.max_tail_length == 1  # 2, 3 and 4 map to 1

    def test_example_c2(self):
        fs = ff.standard_field(5, 1)
        oc = dynamics.orbit_census(fs, 4, 2)
        assert oc.component_count == 1
        assert oc.cycle_lengths == (1,)
        assert oc.max_tail_length == 2  # 0 -> 2 -> 3 -> 3

    def test_against_independent_oracle(self):
        for p, n in [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)]:
            fs = ff.standard_field(p, n)
            for d in (2, 3, 4):
                for idx in range(0, fs.order, 2):
                    c = fs.element_at(idx)
                    oc = dynamics.orbit_census(fs, d, c)
                    lengths, components, max_tail = brute_force_orbit(fs, d, c)
                    assert list(oc.cycle_lengths) == lengths
                    assert oc.component_count == components
                    assert oc.max_tail_length == max_tail

    @given(
        st.sampled_from([(p, n) for p in (2, 3, 5, 7, 11, 13) for n in range(1, 11) if p**n <= 2000]),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_peeling_matches_the_oracle(self, field, data):
        # powers of p take the linear engine, the other degrees the peeling walk
        fs = ff.standard_field(*field)
        p = fs.p
        d = data.draw(st.one_of(st.integers(2, 300), st.sampled_from([p**k for k in range(1, 9) if p**k <= 300])),
                      label="d")
        c = fs.element_at(data.draw(st.integers(0, fs.order - 1), label="c"))
        oc = dynamics.orbit_census(fs, d, c)
        assert (list(oc.cycle_lengths), oc.component_count, oc.max_tail_length) == brute_force_orbit(fs, d, c)

    def test_walk_keeps_two_arrays(self):
        # succ and the in-degrees take 4 bytes per element each, and the two
        # layers in hand at most 4 more; a list takes 8 per entry plus the ints
        fs = ff.standard_field(3, 9)
        ff.field_ops(fs)
        tracemalloc.start()
        try:
            oc = dynamics.orbit_census(fs, 2, fs.element([0, 1]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (oc.cycle_lengths, oc.max_tail_length) == ((2, 355), 197)
        assert peak <= 16 * fs.order, peak / fs.order

    def test_structural_invariants(self):
        for p, n in [(7, 1), (11, 1), (3, 2)]:
            fs = ff.standard_field(p, n)
            for d in (2, 3, 6):
                for idx in range(fs.order):
                    c = fs.element_at(idx)
                    oc = dynamics.orbit_census(fs, d, c)
                    assert oc.fixed_point_count == dynamics.fixed_point_count(fs, d, c)
                    assert sum(oc.cycle_lengths) + oc.max_tail_length <= fs.order

    def test_as_dict_schema(self):
        fs = ff.standard_field(5, 1)
        payload = dynamics.orbit_census(fs, 4, 2).as_dict()
        assert payload == {
            "components": 1,
            "cycle_lengths": [1],
            "fixed_points": 1,
            "max_tail": 2,
        }


def subfield_trace(fs, g, c):
    """Tr from F_{p^n} to F_{p^g} of the element c, summed on FFElement."""
    return sum((c ** (fs.p ** (g * i)) for i in range(fs.n // g)), fs.zero)


class TestLinearEngine:
    """d = p^ell: z -> z^d + c is Frob^ell + c, an affine bijection, and
    count_profile and orbit_census read it off F_p-linear algebra."""

    @given(
        st.sampled_from([(p, n) for p in (2, 3, 5, 7) for n in range(1, 13) if p**n <= 5000]),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_profile_matches_scan_and_gcd(self, field, data):
        fs = ff.standard_field(*field)
        p, n = field
        ell = data.draw(st.integers(1, 2 * n), label="ell")  # ell = n and 2n: the identity
        d = p**ell  # a raw degree: the engine is chosen by d alone
        profile = dynamics.count_profile(fs, d, exp_cap=d)
        assert len(profile) == fs.order and sum(profile) == fs.order
        assert set(profile) <= {0, p ** math.gcd(n, ell)}
        for i in data.draw(st.lists(st.integers(0, fs.order - 1), min_size=1, max_size=4), label="c"):
            c = fs.element_at(i)
            assert profile[i] == dynamics.fixed_point_count(fs, d, c, exp_cap=d), (p, n, ell, i)
            if d <= 32:  # the gcd costs O(d^2 log q) products
                assert profile[i] == gcd_root_count(fs, d, c), (p, n, ell, i)

    @given(
        st.sampled_from([(p, n) for p in (2, 3, 5, 7) for n in range(1, 12) if p**n <= 3**7]),
        st.data(),
    )
    @settings(max_examples=30, deadline=None)
    def test_trace_kernel_is_the_image_of_frobenius_minus_one(self, field, data):
        fs = ff.standard_field(*field)
        p, n = field
        e = data.draw(st.integers(1, 2 * n), label="e")
        g = math.gcd(n, e)
        elements = list(map(fs.element_at, range(fs.order)))
        image = {(z ** p**e - z).index for z in elements}
        traces = [dynamics._trace(c, g) for c in elements]
        assert {c.index for c, tr in zip(elements, traces) if tr.is_zero} == image
        for tr in data.draw(st.lists(st.sampled_from(traces), min_size=1, max_size=4), label="traces"):
            assert tr ** p**g == tr  # the trace lies in F_{p^g}

    @pytest.mark.parametrize("p, n, ell", [
        (2, 6, 3), (2, 8, 4), (2, 12, 3), (3, 4, 2), (3, 5, 1), (3, 6, 3), (3, 6, 4), (5, 6, 3), (7, 4, 2),
        (11, 3, 1), (11, 4, 2),
    ])
    def test_profile_is_the_scan_histogram(self, p, n, ell):
        # fields whose trace rows are not coordinate functionals, every c at once; most have more
        # than g nonzero rows, and on F_2^6 and F_2^8 the first g of them leave the rank short
        fs = ff.standard_field(p, n)
        histogram = [0] * fs.order
        for c in dynamics._scan(fs, p**ell):
            histogram[c] += 1
        assert dynamics.count_profile(fs, p**ell) == histogram

    @pytest.mark.parametrize("p, n, ell", [
        (2, 1, 1), (2, 3, 1), (2, 4, 2), (2, 4, 4), (2, 3, 5), (2, 6, 4),
        (3, 1, 2), (3, 2, 1), (3, 2, 2), (3, 3, 1), (3, 3, 4), (5, 2, 1), (5, 2, 3), (7, 1, 1), (7, 2, 1),
    ])
    def test_orbits_match_brute_force(self, p, n, ell):
        fs = ff.standard_field(p, n)
        d, g = p**ell, math.gcd(n, ell)
        t = fs.element([0, 1])
        on_trace = t ** d - t  # in the image of Frob^ell - 1: Tr(c) = 0
        off_trace = next(c for c in map(fs.element_at, range(fs.order)) if subfield_trace(fs, g, c) != fs.zero)
        assert subfield_trace(fs, g, on_trace) == fs.zero
        for c in (fs.zero, on_trace, off_trace):
            oc = dynamics.orbit_census(fs, d, c, exp_cap=d)
            lengths, components, max_tail = brute_force_orbit(fs, d, c)
            assert list(oc.cycle_lengths) == lengths, (p, n, ell, str(c))
            assert oc.component_count == components
            assert oc.max_tail_length == max_tail == 0
            assert sum(oc.cycle_lengths) == fs.order  # a bijection: every element is on a cycle
            assert oc.fixed_point_count == dynamics.count_profile(fs, d, exp_cap=d)[c.index]

    def test_reaches_no_scan_engine(self, monkeypatch):
        # raw d = 9 on F_3^n, ell > n, ell = n and prime fields take the linear engine
        cases = [(ff.standard_field(p, n), d, i) for p, n, d, i in
                 [(3, 2, 9, 4), (3, 3, 3, 5), (2, 3, 32, 3), (2, 4, 16, 7), (5, 1, 25, 2), (7, 2, 7, 9)]]
        expected = [
            (len(brute_force_fixed_points(fs, d, fs.element_at(i))),
             brute_force_orbit(fs, d, fs.element_at(i))[0])
            for fs, d, i in cases
        ]

        def refuse(fs):
            raise AssertionError("the linear engine reached a scan engine")

        monkeypatch.setattr(ff, "field_ops", refuse)
        monkeypatch.setattr(dynamics, "field_ops", refuse)
        got = [
            (dynamics.count_profile(fs, d)[i], list(dynamics.orbit_census(fs, d, fs.element_at(i)).cycle_lengths))
            for fs, d, i in cases
        ]
        assert got == expected
        with pytest.raises(AssertionError, match="scan engine"):
            dynamics.count_profile(cases[0][0], 2)  # d = 2 on F_3^2 still scans

    def test_caps_come_first(self):
        fs = ff.standard_field(2, 4)
        with pytest.raises(FieldCapError):
            dynamics.count_profile(fs, 2, field_cap=15)
        with pytest.raises(FieldCapError):
            dynamics.orbit_census(fs, 2, 1, field_cap=15)
        with pytest.raises(dynamics.ExponentCapError):
            dynamics.count_profile(fs, 32, exp_cap=31)
        with pytest.raises(dynamics.ExponentCapError):
            dynamics.orbit_census(fs, 32, 1, exp_cap=31)


class TestClassifyResidue:
    def test_labels(self):
        fs = ff.standard_field(5, 2)
        assert dynamics.classify_residue(5, fs.zero.index) == "0"
        assert dynamics.classify_residue(5, fs.one.index) == "1"
        assert dynamics.classify_residue(5, fs.from_int(4).index) == "-1"
        assert dynamics.classify_residue(5, fs.from_int(2).index) == "other"
        assert dynamics.classify_residue(5, fs.element([0, 1]).index) == "other"

    @pytest.mark.parametrize("p, n", [(2, 3), (3, 2), (5, 2), (7, 1)])
    def test_index_rule_matches_element_definition(self, p, n):
        # zero, then one, then minus one: in characteristic 2 "1" wins
        fs = ff.standard_field(p, n)
        minus_one = fs.from_int(-1)
        for c in map(fs.element_at, range(fs.order)):
            want = "0" if c.is_zero else "1" if c == fs.one else "-1" if c == minus_one else "other"
            assert dynamics.classify_residue(p, c.index) == want

    def test_census_record(self):
        # the record the census command builds for z -> z^3 + t on F_9
        caps = {"field_cap": ff.DEFAULT_FIELD_CAP, "exp_cap": dynamics.DEFAULT_EXP_CAP}
        assert _census_point(3, 2, Family.PRIME_POWER, 1, 3, ("t",), **caps) == [
            dynamics.CensusRecord(
                p=3, n=2, ell=1, family="prime-power", c_class="other", c_repr="t", fixed_count=3
            )
        ]

    def test_fixed_count_never_exceeds_degree_or_field(self):
        fs = ff.standard_field(7, 1)
        for d in (2, 3, 4):
            assert max(dynamics.count_profile(fs, d)) <= min(d, fs.order)


class TestIntegralFixedPoints:
    def test_examples(self):
        assert dynamics.integral_fixed_points(3, 0) == {-1, 0, 1}
        assert dynamics.integral_fixed_points(3, 6) == {-2}
        assert dynamics.integral_fixed_points(4, 0) == {0, 1}
        assert dynamics.integral_fixed_points(2, 1) == frozenset()

    def test_against_window_scan(self):
        # every integer root divides c, so a window beyond |c| is exhaustive
        for d in (2, 3, 4, 5):
            for c in range(-40, 41):
                roots = dynamics.integral_fixed_points(d, c)
                window = {z for z in range(-41, 42) if z**d - z + c == 0}
                assert roots == window, (d, c)
                assert len(roots) <= 4

    def test_small_count_flag_observed(self):
        for d in (2, 3, 4, 5, 6, 7):
            for c in range(-60, 61):
                assert len(dynamics.integral_fixed_points(d, c)) <= 4

    def test_rejects_degree_below_two(self):
        with pytest.raises(ValueError):
            dynamics.integral_fixed_points(1, 0)


def divisor_walk_roots(d, c):
    """Integer roots of z^d - z + c by testing every divisor of c with both
    signs: the rule integral_fixed_points used before the root bound."""
    if c == 0:
        return {0, 1, -1} if d % 2 else {0, 1}
    u = abs(c)
    divisors = {k for k in range(1, math.isqrt(u) + 1) if u % k == 0}
    divisors |= {u // k for k in divisors}
    return {z for v in divisors for z in (v, -v) if z**d - z + c == 0}


class TestIntegerRoots:
    def test_exhaustive_small_grid(self):
        for d in range(2, 8):
            for c in range(-1000, 1001):
                assert dynamics.integral_fixed_points(d, c) == divisor_walk_roots(d, c), (d, c)

    @settings(max_examples=400, deadline=None)
    @given(st.integers(2, 7), st.integers(-3 * 10**4, 3 * 10**4))
    def test_matches_divisor_walk(self, d, c):
        assert dynamics.integral_fixed_points(d, c) == divisor_walk_roots(d, c)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 7), st.integers(-40, 40))
    def test_matches_divisor_walk_where_a_root_exists(self, d, z):
        c = z - z**d  # z is a root by construction
        if abs(c) <= 3 * 10**4:
            roots = dynamics.integral_fixed_points(d, c)
            assert z in roots
            assert roots == divisor_walk_roots(d, c)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.integers(0, 2**3000),
            st.builds(lambda k, d, e: max(k**d + e, 0), st.integers(0, 10**40), st.integers(1, 60), st.integers(-1, 1)),
        ),
        st.integers(1, 60),
    )
    def test_integer_root_is_the_floor(self, u, d):
        r = dynamics.integer_root(u, d)
        assert r**d <= u < (r + 1) ** d

    def test_integer_root_at_perfect_powers_beyond_float_precision(self):
        for d in (2, 3, 5, 7):
            for k in (2**53 + 1, 10**30 + 7, 3**200):
                assert dynamics.integer_root(k**d, d) == k
                assert dynamics.integer_root(k**d - 1, d) == k - 1
                assert dynamics.integer_root(k**d + 1, d) == k

    def test_integer_root_domain(self):
        with pytest.raises(ff.ArgumentError):
            dynamics.integer_root(-1, 3)
        with pytest.raises(ff.ArgumentError):
            dynamics.integer_root(8, 0)
