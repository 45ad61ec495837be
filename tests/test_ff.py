"""Field construction, canonical moduli, and arithmetic laws."""

import array
import copy
import functools
import gc
import itertools
import pickle
import re
import sys
import weakref
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from fixcensus import claims, dynamics, ff, nfcount, stats
from fixcensus.ff import FFElement, FieldSpec, field_ops
from oracles import gcd_root_count, unscreened_generator, unscreened_modulus

# Small fields reused across property tests; mixed characteristics and
# degrees, all with canonical moduli.
FIELDS = [
    ff.standard_field(3, 1),
    ff.standard_field(3, 2),
    ff.standard_field(3, 3),
    ff.standard_field(5, 1),
    ff.standard_field(5, 2),
    ff.standard_field(7, 2),
    ff.standard_field(11, 1),
]

# Larger fields in the log-table engine's range: characteristic 2 (where
# -1 = 1), a degree-7 extension, and two cubic extensions.
LOG_FIELDS = [
    ff.standard_field(2, 8),
    ff.standard_field(3, 7),
    ff.standard_field(11, 3),
    ff.standard_field(5, 3),
]


def trial_division_is_prime(u):
    if u < 2:
        return False
    k = 2
    while k * k <= u:
        if u % k == 0:
            return False
        k += 1
    return True


class TestIsPrime:
    def test_small_range_against_trial_division(self):
        for u in range(-3, 500):
            assert ff.is_prime(u) == trial_division_is_prime(u), u

    def test_known_values(self):
        assert ff.is_prime(7919)
        assert not ff.is_prime(7917)
        assert ff.is_prime(2**31 - 1)
        assert not ff.is_prime(2**32 + 1)
        assert not ff.is_prime(1) and not ff.is_prime(0)

    @given(st.integers(2, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_matches_trial_division(self, u):
        assert ff.is_prime(u) == trial_division_is_prime(u)


def brute_force_irreducible(p: int, coeffs: tuple[int, ...]) -> bool:
    """Trial division by every lower-degree monic polynomial."""
    import itertools

    n = len(coeffs) - 1
    if n <= 1:
        return n == 1
    for k in range(1, n // 2 + 1):
        for low in itertools.product(range(p), repeat=k):
            divisor = tuple(low) + (1,)
            if not ff._pmod(coeffs, divisor, p):
                return False
    return True


class TestFindIrreducible:
    def test_canonical_moduli(self):
        assert ff.find_irreducible(3, 1) == (0, 1)
        assert ff.find_irreducible(3, 2) == (1, 0, 1)
        assert ff.find_irreducible(5, 2) == (2, 0, 1)

    def test_deterministic(self):
        assert ff.find_irreducible(7, 3) == ff.find_irreducible(7, 3)

    @pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)])
    def test_lex_least_and_truly_irreducible(self, p, n):
        import itertools

        found = ff.find_irreducible(p, n)
        assert len(found) == n + 1 and found[-1] == 1
        assert brute_force_irreducible(p, found)
        # nothing lexicographically earlier passes brute force
        for high in itertools.product(range(p), repeat=n):
            cand = tuple(reversed(high)) + (1,)
            if cand == found:
                break
            assert not brute_force_irreducible(p, cand), ff.render_poly(cand)

    def test_certificate_agrees_with_brute_force(self):
        import itertools

        for p, n in [(3, 2), (3, 3), (5, 2)]:
            for high in itertools.product(range(p), repeat=n):
                cand = tuple(reversed(high)) + (1,)
                assert ff.certify_irreducible(p, cand) == brute_force_irreducible(p, cand)

    @given(st.sampled_from([2, 3, 5, 7]), st.data())
    @settings(max_examples=300, deadline=None)
    def test_certificate_agrees_with_trial_division(self, p, data):
        n = data.draw(st.integers(0, 6))
        monic = tuple(data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))) + (1,)
        assert ff.certify_irreducible(p, monic) == brute_force_irreducible(p, monic)

    @pytest.mark.parametrize("p,n", [(2, 8), (2, 9), (2, 10), (3, 8), (3, 9), (3, 10)])
    def test_certificate_at_degrees_8_to_10(self, p, n):
        # k runs to 4 or 5 here, past the property's degree 6; a product of
        # irreducibles of degrees n // 2 and n - n // 2 fails only at the last k
        import random

        rng = random.Random(f"{p}/{n}")
        cases = [
            ff.find_irreducible(p, n),
            ff._pmul(ff.find_irreducible(p, n // 2), ff.find_irreducible(p, n - n // 2), p),
            *(tuple(rng.randrange(p) for _ in range(n)) + (1,) for _ in range(30)),
        ]
        verdicts = [ff.certify_irreducible(p, m) for m in cases]
        assert verdicts == [brute_force_irreducible(p, m) for m in cases]
        assert verdicts[:2] == [True, False]

    def test_certificate_refusals(self):
        with pytest.raises(ff.ArgumentError, match="^characteristic 4 is not prime$"):
            ff.certify_irreducible(4, (1, 1))
        with pytest.raises(ff.ArgumentError, match="^coefficients must be reduced residues mod p$"):
            ff.certify_irreducible(3, (5, 1))
        for not_monic in [(), (0,), (1, 2), (1, 1, 0)]:
            assert ff.certify_irreducible(3, not_monic) is False

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            ff.find_irreducible(4, 2)
        with pytest.raises(ValueError):
            ff.find_irreducible(3, 0)


class TestScreens:
    """find_irreducible skips candidates with a root in F_p, and the log
    engine's generator search settles each prime r | p - 1 by the norm;
    neither changes what is found."""

    @given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(1, 6), st.data())
    @settings(max_examples=200, deadline=None)
    def test_norm_is_the_power_into_the_prime_field(self, p, n, data):
        m = ff.find_irreducible(p, n)
        g = ff._trim(data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n)))
        assume(g)
        assert (ff._norm(g, m, p),) == ff._ppowmod(g, (p**n - 1) // (p - 1), m, p)

    def test_norm_screen_keeps_the_generator(self):
        fields = [(p, n) for p in range(2, 224) if ff.is_prime(p) for n in range(2, 16) if p**n <= 5 * 10**4]
        assert len(fields) == 84
        for p, n in fields:
            fs = FieldSpec(p, n, unscreened_modulus(p, n))
            assert ff._primitive_element(fs) == unscreened_generator(fs), (p, n)

    def test_root_screen_keeps_the_modulus(self):
        for p in (2, 3, 5, 7, 11, 13):
            for n in itertools.takewhile(lambda n: p**n <= 10**5, itertools.count(1)):
                assert ff._screens_roots(p, n) is (n >= 2)
                assert ff.find_irreducible(p, n) == unscreened_modulus(p, n), (p, n)

    @pytest.mark.parametrize(
        "p, n, screened",
        [
            (97, 2, True), (101, 2, False), (3163, 2, False), (100003, 2, False),
            (1009, 3, False), (3163, 3, False), (101, 3, True), (809, 3, True),
            (101, 4, False), (103, 4, True), (30011, 5, False), (809, 5, True), (101, 6, True),
        ],
    )
    def test_root_screen_runs_where_it_pays(self, p, n, screened):
        # past p = 100 only fields whose binomials t^n + a_0 are all reducible
        # are screened; either way the modulus is the lex-least irreducible
        assert ff._screens_roots(p, n) is screened
        assert ff.find_irreducible(p, n) == unscreened_modulus(p, n)

    def test_prime_fields_are_never_screened(self, monkeypatch):
        # every t + a_0 has a root, so a screen at n = 1 would refuse them all
        def screen(*args):
            raise AssertionError("screened")

        monkeypatch.setattr(ff, "_horner", screen)
        monkeypatch.setattr(ff, "_primitive_element", screen)
        for p in (2, 3, 13, 10**9 + 7):
            assert ff.find_irreducible(p, 1) == (0, 1)
        fs = FieldSpec(13, 1, (0, 1))
        assert list(field_ops(fs).images(2, 1, 0, 0)) == [z * z % 13 for z in range(13)]


class TestFieldSpec:
    # each refusal of the constructor: (p, n, modulus, its ArgumentError message)
    REFUSED = [
        (4, 2, (1, 0, 1), "4 is not prime"),
        (3, 0, (1,), "degree 0 must be at least 1"),
        (3, 2, (1, 0, 4), "coefficients must be reduced residues mod p"),
        (3, 3, (1, 0, 1), "modulus degree differs from extension degree"),
        (3, 2, (0, 0, 1), "modulus t^2 is not irreducible over F_3"),
        (5, 2, (1, 0, 1), "modulus t^2+1 is not irreducible over F_5"),
    ]

    def test_validation(self):
        for p, n, modulus, message in self.REFUSED:
            with pytest.raises(ff.ArgumentError, match=f"^{re.escape(message)}$"):
                FieldSpec(p, n, modulus)

    def test_modulus_is_the_coefficient_tuple(self):
        fs = ff.standard_field(3, 2)
        assert fs.modulus == (1, 0, 1) and FieldSpec(3, 2, (1, 0, 1)) == fs
        assert fs.as_dict() == {"p": 3, "n": 2, "modulus": [1, 0, 1]}

    def test_order_and_constants(self):
        fs = ff.standard_field(3, 2)
        assert fs.order == 9
        assert fs.zero.is_zero and not fs.one.is_zero
        assert fs.from_int(12) == fs.zero
        assert fs.from_int(-1) == fs.from_int(2)

    def test_enumeration_order_and_cardinality(self):
        fs = ff.standard_field(3, 2)
        elems = list(map(fs.element_at, range(fs.order)))
        assert len(elems) == 9
        assert len(set(elems)) == 9
        assert [str(e) for e in elems[:4]] == ["0", "1", "2", "t"]
        assert all(e.index == i for i, e in enumerate(elems))

    @pytest.mark.parametrize("index", [-1, 9])
    def test_element_at_refuses_an_index_outside_the_field(self, index):
        fs = ff.standard_field(3, 2)
        with pytest.raises(ff.ArgumentError, match=f"^index {index} out of range for field of order 9$"):
            fs.element_at(index)

    def test_element_reduction(self):
        fs = ff.standard_field(3, 2)  # t^2 = -1
        assert fs.element([0, 0, 1]) == fs.from_int(-1)
        assert fs.element([1, 4]) == fs.element([1, 1])

    def test_parse_round_trip(self):
        for fs in FIELDS:
            for e in map(fs.element_at, range(fs.order)):
                assert fs.parse(str(e)) == e

    @given(st.sampled_from([(p, n) for p in (2, 3, 5, 7) for n in range(1, 12) if p**n <= 2401]))
    @settings(max_examples=30, deadline=None)
    def test_element_strings_match_element_at(self, field):
        fs = ff.standard_field(*field)
        strings = list(fs.element_strings())
        assert strings == [str(fs.element_at(i)) for i in range(fs.order)]
        assert [fs.parse(text).index for text in strings] == list(range(fs.order))

    def test_parse_loose_forms(self):
        fs = ff.standard_field(5, 2)
        assert fs.parse("t^2") == fs.element([0, 0, 1])
        assert fs.parse("-1") == fs.from_int(4)
        assert fs.parse("2t+1") == fs.element([1, 2])
        assert fs.parse(" 3*t + 4 ") == fs.element([4, 3])
        with pytest.raises(ValueError):
            fs.parse("")

    def test_parse_reduces_large_exponents(self):
        fs = ff.standard_field(5, 2)
        t = fs.element([0, 1])
        assert fs.parse("t^3000000") == t**3000000
        # t has order dividing 24, so only the exponent mod 24 matters
        assert fs.parse(f"2t^{10**4000}+1") == fs.parse(f"2t^{10**4000 % 24}+1")

    @pytest.mark.parametrize("template", ["{}", "t^{}", "{}*t+1"])
    def test_parse_refuses_integers_past_the_digit_limit(self, template):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter has no int() digit limit")
        text = template.format("1" + "0" * limit)
        with pytest.raises(ff.ArgumentError, match="past the int\\(\\) digit limit"):
            ff.standard_field(3, 2).parse(text)

    @pytest.mark.parametrize("text, term", [("x+1", "'x'"), ("t^", "'t^'"), ("2*", "'2*'"), ("1-tt", "'-tt'")])
    def test_parse_errors_name_the_term(self, text, term):
        message = f"cannot parse term {term} of element {text!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            ff.standard_field(5, 2).parse(text)


class TestArithmeticExamples:
    def test_f9(self):
        fs = ff.standard_field(3, 2)  # modulus t^2 + 1
        t = fs.element([0, 1])
        assert t * t == fs.from_int(2)
        assert fs.element([1, 2]) + fs.element([2, 2]) == t
        assert t**4 == fs.one
        assert t.frobenius() == fs.element([0, 2])

    def test_f25(self):
        fs = ff.standard_field(5, 2)  # modulus t^2 + 2
        t = fs.element([0, 1])
        assert t * t == fs.from_int(3)

    def test_prime_field(self):
        fs = ff.standard_field(5, 1)
        assert fs.from_int(2) ** 4 == fs.one
        assert fs.from_int(2) * fs.from_int(3) == fs.one

    def test_pow_edge_cases(self):
        fs = ff.standard_field(3, 2)
        assert fs.zero**0 == fs.one  # total evaluation convention
        assert fs.zero**5 == fs.zero
        with pytest.raises(ValueError):
            fs.one ** (-1)

    def test_mixed_field_operations_rejected(self):
        a = ff.standard_field(3, 2).one
        b = ff.standard_field(5, 2).one
        with pytest.raises(ValueError):
            a + b
        with pytest.raises(ValueError):
            a * b


@st.composite
def field_and_indexes(draw, count, fields=FIELDS):
    fs = draw(st.sampled_from(fields))
    idxs = [draw(st.integers(0, fs.order - 1)) for _ in range(count)]
    return fs, idxs


class TestFieldAxioms:
    @given(field_and_indexes(3))
    @settings(max_examples=150, deadline=None)
    def test_ring_laws(self, data):
        fs, (i, j, k) = data
        a, b, c = fs.element_at(i), fs.element_at(j), fs.element_at(k)
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == fs.zero
        assert a * fs.one == a

    @given(field_and_indexes(1))
    @settings(max_examples=100, deadline=None)
    def test_inverses_and_power_laws(self, data):
        fs, (i,) = data
        a = fs.element_at(i)
        if not a.is_zero:
            assert a * a ** (fs.order - 2) == fs.one
        assert a**fs.order == a  # q-power map is the identity
        assert a.frobenius() == a**fs.p

    @given(field_and_indexes(1, FIELDS + [ff.standard_field(3, 7)]), st.integers(0, 40))
    @settings(max_examples=200, deadline=None)
    def test_power_is_repeated_multiplication(self, data, e):
        fs, (i,) = data
        a = fs.element_at(i)
        product = fs.one
        for _ in range(e):
            product = product * a
        assert a**e == product

    def test_frobenius_fixes_exactly_the_prime_subfield(self):
        for fs in FIELDS:
            fixed = [e for e in map(fs.element_at, range(fs.order)) if e.frobenius() == e]
            assert len(fixed) == fs.p

    def test_frobenius_is_additive_and_multiplicative(self):
        fs = ff.standard_field(3, 3)
        elems = list(map(fs.element_at, range(fs.order)))
        for a in elems[::3]:
            for b in elems[::4]:
                assert (a + b).frobenius() == a.frobenius() + b.frobenius()
                assert (a * b).frobenius() == a.frobenius() * b.frobenius()


class TestFieldOps:
    """The integer-index engines must agree with FFElement arithmetic."""

    @pytest.mark.parametrize("fs", FIELDS + LOG_FIELDS, ids=str)
    def test_engine_matches_elements(self, fs):
        ops = field_ops(fs)
        q = fs.order
        sample = range(q) if q <= 30 else [*range(0, q, max(7, q // 40)), fs.p - 1, q - 1]
        for i in sample:
            a = fs.element_at(i)
            assert a.index == i
        for d in (5, q - 2):
            powers = {i: fs.element_at(i) ** d for i in sample}
            coefficients = list(ops.images(d, fs.p - 1, 1, 1))  # z - z^d
            for i in sample:
                assert coefficients[i] == (fs.element_at(i) - powers[i]).index
            for j in sample:
                c = fs.element_at(j)
                successors = list(ops.images(d, 1, j, 0))  # z^d + c
                for i in sample:
                    assert successors[i] == (powers[i] + c).index

    @given(field_and_indexes(3, FIELDS + LOG_FIELDS), st.integers(0, 10**6), st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_engine_matches_elements_at_random(self, data, e, f):
        fs, (i, j, k) = data
        ops = field_ops(fs)
        z, b, c = fs.element_at(i), fs.element_at(k or 1), fs.element_at(j)
        d = e + 1
        image = next(itertools.islice(ops.images(d, k or 1, j, f), i, None))
        assert image == (b * z**d + c * z**f).index

    def test_only_the_last_engine_is_kept(self):
        ops = field_ops(ff.standard_field(3, 2))
        released = weakref.ref(ops)
        del ops
        assert field_ops(ff.standard_field(5, 2)) is field_ops(ff.standard_field(5, 2))
        gc.collect()
        assert released() is None

    @pytest.mark.parametrize("p,n", [(2, 4), (2, 6), (3, 2), (5, 2), (7, 2)])
    def test_log_engine_uses_least_primitive_element(self, p, n):
        fs = ff.standard_field(p, n)

        def order(i):
            a = x = fs.element_at(i)
            k = 1
            while x != fs.one:
                x, k = x * a, k + 1
            return k

        g = field_ops(fs).exp[1]
        assert order(g) == fs.order - 1
        assert all(order(i) < fs.order - 1 for i in range(1, g))

    def test_log_engine_on_a_large_field(self):
        # prime fields get mod-p ints; every extension, F_2^18 included, gets log tables
        assert type(field_ops(ff.standard_field(5, 1))) is ff._PrimeOps
        fs = ff.standard_field(2, 18)
        ops = field_ops(fs)
        assert type(ops) is ff._LogOps
        assert ops.mul_table is None
        for ell in (1, 2):
            profile = dynamics.count_profile(fs, 2**ell)
            for c in (0, 1):
                expected = stats._prime_power_count(2, 18, ell, c)
                assert profile[fs.from_int(c).index] == expected
                assert gcd_root_count(fs, 2**ell, c) == expected

    def test_log_scan_on_a_large_field(self):
        # d = 2 and 4 above take the linear engine; d = 3 on F_2^18 still scans the logs
        fs = ff.standard_field(2, 18)
        profile = dynamics.count_profile(fs, 3)
        assert type(field_ops(fs)) is ff._LogOps
        assert sum(profile) == fs.order
        # z^3 - z = z (z + 1)^2, and z^3 + z + 1 is irreducible of degree 3 | 18
        assert profile[0] == gcd_root_count(fs, 3, 0) == 2
        assert profile[1] == gcd_root_count(fs, 3, 1) == 3
        for i in (2, 5, 1000, fs.order - 1):
            assert profile[i] == gcd_root_count(fs, 3, fs.element_at(i)), i

    def test_zero_and_one_indexes(self):
        for fs in FIELDS:
            assert fs.zero.index == 0
            assert fs.one.index == 1

    @pytest.mark.parametrize("p", [2, 3, 5, 7919, 100003])
    def test_prime_pow_matches_square_and_multiply(self, p):
        fs = ff.standard_field(p, 1)
        ops = field_ops(fs)
        assert type(ops) is ff._PrimeOps
        sample = sorted({0, 1, 2 % p, p // 2, p - 1})
        c = fs.from_int(p // 3)
        exponents = [0, 1, 2, p - 1, p, 10**30 + 7, 2**200]
        if p == 100003:  # each exponent costs two passes over the field; the smaller p cover 0, 1, 2 and p
            exponents = [p - 1, 2**200]
        for d in exponents:
            fixers = list(ops.images(d, p - 1, 1, 1))  # z - z^d
            successors = list(ops.images(d, 1, c.index, 0))  # z^d + c
            for i in sample:
                z = fs.from_int(i)
                assert fixers[i] == (z - z**d).index, (i, d)
                assert successors[i] == (z**d + c).index, (i, d)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_prime_images_reduce_the_degree_exactly(self, p):
        # images takes d >= p down mod p - 1; the whole field must keep pow's values
        ops = field_ops(ff.standard_field(p, 1))
        c = p // 3
        for d in [*range(4 * p), 2**200]:
            powers = [pow(z, d, p) for z in range(p)]
            assert list(ops.images(d, p - 1, 1, 1)) == [(z - w) % p for z, w in enumerate(powers)], d
            assert list(ops.images(d, 1, c, 0)) == [(w + c) % p for w in powers], d


# Fields whose least primitive element is not t, with that element: the
# walk multiplies by a general g, not only by t.
NON_T_FIELDS = {(3, 7): "t+2", (7, 3): "3*t+1", (2, 18): "t^3+t"}


@functools.lru_cache(maxsize=None)
def log_tables(p, n):
    """The tables of F_p^n, built once for the whole module (field_ops keeps one)."""
    return ff._LogOps(ff.standard_field(p, n))


def ops_element(ops, k, p, n):
    """g^k as an element, read off the exp table."""
    return ff.standard_field(p, n).element_at(ops.exp[k])


class TestLogTables:
    """The table invariants, checked against FFElement arithmetic."""

    @pytest.mark.parametrize("p,n", sorted(NON_T_FIELDS), ids=str)
    def test_generator_is_not_t(self, p, n):
        ops = log_tables(p, n)
        assert str(ops_element(ops, 1, p, n)) == NON_T_FIELDS[p, n]
        assert ops.log[0] == -1 and ops.exp[0] == 1 and ops.log[1] == 0

    @given(st.sampled_from(sorted(NON_T_FIELDS) + [(2, 8), (3, 2), (5, 3), (11, 3)]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_invariants(self, field, data):
        p, n = field
        fs, ops = ff.standard_field(p, n), log_tables(p, n)
        q = fs.order
        i = data.draw(st.integers(1, q - 1), label="i")
        k = data.draw(st.integers(0, q - 2), label="k")
        assert ops.exp[ops.log[i]] == i and ops.log[ops.exp[k]] == k
        g_k = ops_element(ops, 1, p, n) ** k
        assert ops_element(ops, k, p, n) == g_k
        one_plus = g_k + fs.one  # the zech rule: 1 + g^k = g^zech[k], or 0 with zech[k] = -1
        assert ops.zech[k] == (-1 if one_plus.is_zero else ops.log[one_plus.index])

    def test_tables_are_permutations(self):
        ops = log_tables(3, 7)
        assert sorted(ops.exp) == list(range(1, 3**7))
        assert sorted(ops.log) == list(range(-1, 3**7 - 1))
        assert ops.zech.count(-1) == 1 and ops.zech[(3**7 - 1) // 2] == -1

    def test_typecode_rule(self, monkeypatch):
        # entries lie in [-1, q), and a C int holds them for every q below 2^31
        assert ff._table_typecode(2**31 - 1) == "i" and ff._table_typecode(2**31) == "q"
        assert array.array("i", [-1, 2**31 - 2]).tolist() == [-1, 2**31 - 2]
        with pytest.raises(OverflowError):
            array.array("i", [2**31])
        assert log_tables(3, 7).exp.typecode == "i"
        fs = ff.standard_field(5, 3)
        monkeypatch.setattr(ff, "_table_typecode", lambda q: "q")
        wide = ff._LogOps(fs)
        assert wide.exp.typecode == wide.log.typecode == wide.zech.typecode == "q"
        narrow = log_tables(5, 3)
        assert (wide.exp, wide.log, wide.zech) == tuple(
            array.array("q", t) for t in (narrow.exp, narrow.log, narrow.zech))


class TestRendering:
    def test_poly_rendering(self):
        assert ff.render_poly(()) == "0"
        assert ff.render_poly((2, 1)) == "t+2"
        assert ff.render_poly((1, 2)) == "2*t+1"
        assert ff.render_poly((0, 0, 3)) == "3*t^2"
        assert ff.render_poly((1, 0, 1)) == "t^2+1"


def _f9():
    return FieldSpec(3, 2, (1, 0, 1))


# (build an instance, build an unequal one of the same class, the invalid
# argument lists, and the error they raise) for each immutable value class.
VALUE_CLASSES = [
    pytest.param(
        _f9,
        lambda: FieldSpec(3, 2, (2, 1, 1)),
        [(3, 2, (0, 0, 1)), (5, 2, (1, 0, 1)), (3, 3, (1, 0, 1))],
        ff.ArgumentError,
        id="FieldSpec",
    ),
    pytest.param(
        lambda: FFElement(_f9(), (1, 2)),
        lambda: FFElement(_f9(), (2, 1)),
        [(_f9(), (1,)), (_f9(), (3, 0))],
        ff.ArgumentError,
        id="FFElement",
    ),
    pytest.param(
        lambda: dynamics.OrbitCensus((1,), 0, 3, (3,)),
        lambda: dynamics.OrbitCensus((1, 1), 1, 5, (2, 3)),
        [((1,), 0, 3, (2,)), ((1,), 0, 3, (1, 2)), ((1, 2), 0, 3, (3,))],
        ValueError,
        id="OrbitCensus",
    ),
]


@pytest.mark.parametrize("make, make_other, invalid, error", VALUE_CLASSES)
class TestValueClasses:
    def test_equality_and_hash_stay_within_the_class(self, make, make_other, invalid, error):
        a, b = make(), make()
        assert a == b and hash(a) == hash(b) and not a != b
        assert a != make_other()
        fields = tuple(getattr(a, name) for name in type(a).__slots__)
        assert a != fields and fields != a

    def test_assignment_is_refused(self, make, make_other, invalid, error):
        value = make()
        name = type(value).__slots__[0]
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert value == make()

    def test_pickle_and_deepcopy_give_an_equal_value(self, make, make_other, invalid, error):
        value = make()
        assert pickle.loads(pickle.dumps(value)) == value
        assert copy.deepcopy(value) == value

    def test_invalid_arguments_raise(self, make, make_other, invalid, error):
        for args in invalid:
            with pytest.raises(error):
                type(make())(*args)

    def test_integer_times_value_is_a_type_error(self, make, make_other, invalid, error):
        with pytest.raises(TypeError):
            3 * make()

    def test_repr_lists_the_fields(self, make, make_other, invalid, error):
        value = make()
        shown = ", ".join(f"{name}={getattr(value, name)!r}" for name in type(value).__slots__)
        assert repr(value) == f"{type(value).__name__}({shown})"


@pytest.mark.parametrize("label", [claims.Verdict, dynamics.Family, nfcount.IrreducibilityStatus,
                                   stats.Selector, stats.DensityKind], ids=lambda label: label.__name__)
def test_label_enums_print_their_value(label):
    # CSV cells and census labels are str(member): a plain Enum would print "Class.NAME"
    assert [str(member) for member in label] == [member.value for member in label]


def test_unpickling_a_field_runs_no_certificate(monkeypatch):
    data = pickle.dumps(ff.standard_field(3, 4).element([1, 2]))
    monkeypatch.setattr(ff, "certify_irreducible", mock.Mock(side_effect=AssertionError))
    assert pickle.loads(data) == ff.standard_field(3, 4).element([1, 2])
