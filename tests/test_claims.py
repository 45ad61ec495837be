"""Claim registry contents and the grid checker.

Expected verdicts and witness lists here were derived by hand from the
root structure of z^d - z + c (Artin-Schreier lines for d = p, the
z = c + 1 branch for d = p - 1) and then frozen.  The checker must
reproduce them exactly, witnesses in field enumeration order.
"""

import pytest

from fixcensus import claims, dynamics, ff
from fixcensus.claims import Verdict
from fixcensus.dynamics import Family

BY_ID = {spec.id: spec for spec in claims.registry()}


def witness_triples(result):
    return [(str(w.c), w.predicted, w.actual) for w in result.witnesses]


class TestRegistry:
    def test_ids_in_order(self):
        assert [c.id for c in claims.registry()] == [
            "C-2.1", "C-2.2", "C-2.3", "C-2.4",
            "C-3.1", "C-3.2", "C-3.3", "C-3.4",
        ]

    def test_families_and_conditional_flags(self):
        by_id = {c.id: c for c in claims.registry()}
        for cid in ("C-2.1", "C-2.2", "C-2.3", "C-2.4"):
            assert by_id[cid].family is Family.PRIME_POWER
        for cid in ("C-3.1", "C-3.2", "C-3.3", "C-3.4"):
            assert by_id[cid].family is Family.P_MINUS_ONE
            assert not by_id[cid].conditional
        assert not by_id["C-2.1"].conditional
        assert by_id["C-2.2"].conditional
        assert by_id["C-2.3"].conditional
        assert by_id["C-2.4"].conditional

    def test_predictions(self):
        by_id = {c.id: c for c in claims.registry()}
        assert by_id["C-2.1"].expected("0") == 3
        assert [by_id["C-2.1"].expected(label) for label in ("1", "-1", "other")] == [0, 0, 0]
        assert by_id["C-3.4"].expected("-1") == 0
        assert by_id["C-3.2"].expected("other") is None
        assert by_id["C-3.2"].expected("1") == 1

    def test_class_for(self):
        # "nonzero" covers every label but "0"; labels outside the
        # pminus1 classes are unjudged
        n_claim = BY_ID["C-2.2"]
        assert n_claim.expected("0") == 3
        assert n_claim.expected("1") == 0
        assert n_claim.expected("other") == 0
        m_claim = BY_ID["C-3.2"]
        assert m_claim.expected("-1") == 0
        assert m_claim.expected("other") is None

    def test_applicability_slices(self):
        by_id = {c.id: c for c in claims.registry()}
        assert by_id["C-2.1"].applies(3, 2, 1)
        assert not by_id["C-2.1"].applies(5, 2, 1)  # pinned to p = 3
        assert not by_id["C-2.1"].applies(3, 1, 1)  # needs n >= 2
        assert not by_id["C-2.1"].applies(3, 2, 2)  # pinned to ell = 1
        assert by_id["C-2.3"].applies(7, 3, 4)
        assert by_id["C-2.4"].applies(11, 1, 2)
        assert not by_id["C-2.4"].applies(11, 2, 1)
        assert by_id["C-3.1"].applies(5, 2, 1)
        assert not by_id["C-3.1"].applies(7, 2, 1)
        assert not by_id["C-3.3"].applies(3, 2, 1)  # family needs p >= 5

    def test_degree(self):
        assert BY_ID["C-2.3"].family.degree(3, 2) == 9
        assert BY_ID["C-3.3"].family.degree(5, 2) == 16

    def test_unknown_id(self):
        # ids are unique, so looking a claim up by id is well defined
        assert len(BY_ID) == len(claims.registry())
        with pytest.raises(KeyError):
            BY_ID["C-9.9"]


class TestCheckPoint:
    def test_artin_schreier_witnesses_p3(self):
        res = claims.check_point(BY_ID["C-2.1"], 3, 2, 1)
        assert res.status is Verdict.FAILS
        assert witness_triples(res) == [("t", 0, 3), ("2*t", 0, 3)]
        assert res.unspecified_counts == ()

    def test_trace_zero_line_p5(self):
        res = claims.check_point(BY_ID["C-2.2"], 5, 2, 1)
        assert res.status is Verdict.FAILS
        assert witness_triples(res) == [
            ("0", 3, 5), ("t", 0, 5), ("2*t", 0, 5), ("3*t", 0, 5), ("4*t", 0, 5),
        ]

    def test_full_frobenius_power(self):
        # d = 9 fixes all of F_9, so only the zero class misses
        res = claims.check_point(BY_ID["C-2.3"], 3, 2, 2)
        assert res.status is Verdict.FAILS
        assert witness_triples(res) == [("0", 3, 9)]

    def test_unit_group_cubes(self):
        res = claims.check_point(BY_ID["C-3.1"], 5, 2, 1)
        assert res.status is Verdict.FAILS
        assert witness_triples(res) == [("0", 2, 4)]
        assert res.unspecified_counts == ((0, 8), (1, 11), (3, 3))

    def test_prime_field_holds(self):
        res = claims.check_point(BY_ID["C-2.4"], 3, 1, 2)
        assert res.status is Verdict.HOLDS
        assert res.witnesses == ()

        res = claims.check_point(BY_ID["C-3.4"], 7, 1, 1)
        assert res.status is Verdict.HOLDS
        assert res.unspecified_counts == ((1, 4),)

    def test_prime_field_fails_off_p3(self):
        # z^5 - z vanishes on all of F_5: 5 roots at c = 0, not 3
        res = claims.check_point(BY_ID["C-2.4"], 5, 1, 1)
        assert res.status is Verdict.FAILS
        assert witness_triples(res) == [("0", 3, 5)]

    def test_minus_one_class_on_extension(self):
        res = claims.check_point(BY_ID["C-3.2"], 7, 2, 1)
        assert res.status is Verdict.FAILS
        assert witness_triples(res) == [("6", 0, 2)]

    def test_not_applicable(self):
        res = claims.check_point(BY_ID["C-2.1"], 5, 2, 1)
        assert res.status is Verdict.NOT_APPLICABLE
        assert res.note == "outside the stated hypotheses"
        assert res.witnesses == ()

    def test_skipped_on_field_cap(self):
        res = claims.check_point(BY_ID["C-2.2"], 5, 2, 1, field_cap=20)
        assert res.status is Verdict.SKIPPED
        assert "field order" in res.note

    def test_skipped_on_exponent_cap(self):
        res = claims.check_point(BY_ID["C-2.3"], 3, 2, 5, exp_cap=100)
        assert res.status is Verdict.SKIPPED
        assert "degree 243" in res.note

    def test_bad_grid_points(self):
        spec = BY_ID["C-2.2"]
        with pytest.raises(ValueError):
            claims.check_point(spec, 4, 2, 1)
        with pytest.raises(ValueError):
            claims.check_point(spec, 3, 0, 1)
        with pytest.raises(ValueError):
            claims.check_point(spec, 3, 2, 0)

    def test_witnesses_recheck(self):
        # every reported witness must reproduce under the direct counter
        for cid, pt in [("C-2.2", (5, 2, 1)), ("C-3.1", (5, 2, 1)), ("C-3.2", (7, 2, 1))]:
            spec = BY_ID[cid]
            res = claims.check_point(spec, *pt)
            fs = ff.standard_field(pt[0], pt[1])
            d = spec.family.degree(pt[0], pt[2])
            for w in res.witnesses:
                assert dynamics.fixed_point_count(fs, d, w.c) == w.actual
                assert spec.expected(dynamics.classify_residue(fs.p, w.c.index)) == w.predicted
                assert w.predicted != w.actual

    def test_elements_built_only_for_witnesses(self, monkeypatch):
        points = [("C-2.2", (5, 2, 1)), ("C-3.2", (7, 2, 1))]
        decoded = []
        real = ff.FieldSpec.element_at

        def counting(fs, index):
            decoded.append(index)
            return real(fs, index)

        monkeypatch.setattr(ff.FieldSpec, "element_at", counting)
        for cid, pt in points:
            ff.field_ops(ff.standard_field(*pt[:2]))  # the log-table build decodes elements
            decoded.clear()
            res = claims.check_point(BY_ID[cid], *pt)
            assert res.witnesses
            assert len(decoded) == len(res.witnesses)

    def test_zero_class_holds_at_p3_ell1(self):
        # the 3-points-at-zero prediction itself is solid for d = 3
        for n in (1, 2, 3):
            fs = ff.standard_field(3, n)
            assert dynamics.fixed_point_count(fs, 3, 0) == 3
        for spec_id, n in [("C-2.1", 2), ("C-2.1", 3), ("C-2.2", 2)]:
            res = claims.check_point(BY_ID[spec_id], 3, n, 1)
            assert all(str(w.c) != "0" for w in res.witnesses)


def statuses(report):
    return [pt.status for pt in report.points]


class TestCheckAndCheckAll:
    def test_report_overall(self):
        grid = [(3, 2, 1), (3, 3, 1)]
        report = claims.check_all(grid)[0]
        assert report.claim.id == "C-2.1"
        assert statuses(report) == [Verdict.FAILS, Verdict.FAILS]

    def test_single_applicable_claim(self):
        reports = claims.check_all([(3, 1, 1)])
        assert [r.claim.id for r in reports] == [c.id for c in claims.registry()]
        by_id = {r.claim.id: r for r in reports}
        assert statuses(by_id["C-2.4"]) == [Verdict.HOLDS]
        for cid in ("C-2.1", "C-2.2", "C-2.3", "C-3.1", "C-3.2", "C-3.3", "C-3.4"):
            assert statuses(by_id[cid]) == [Verdict.NOT_APPLICABLE]

    def test_p5_prime_field(self):
        by_id = {r.claim.id: r for r in claims.check_all([(5, 1, 1)])}
        assert statuses(by_id["C-3.4"]) == [Verdict.HOLDS]
        assert statuses(by_id["C-2.4"]) == [Verdict.FAILS]

    def test_empty_grid(self):
        reports = claims.check_all([])
        assert len(reports) == 8
        for r in reports:
            assert r.points == ()

    def test_as_dict_shape(self):
        by_id = {r.claim.id: r for r in claims.check_all([(7, 1, 1), (3, 1, 1)])}
        payload = by_id["C-3.4"].as_dict()
        assert payload["claim"] == "C-3.4"
        assert payload["conditional"] is False
        assert payload["family"] == "pminus1"
        assert payload["classes_checked"] == ["0", "1", "-1"]
        assert len(payload["grid"]) == 2
        first = payload["grid"][0]
        assert first["status"] == "HOLDS"
        assert first["unspecified"] == {"1": 4}
        second = payload["grid"][1]
        assert second["status"] == "NOT-APPLICABLE"
        assert second["note"] == "outside the stated hypotheses"

    def test_deterministic(self):
        grid = [(3, 2, 1), (5, 2, 1), (7, 1, 1)]
        a = [r.as_dict() for r in claims.check_all(grid)]
        b = [r.as_dict() for r in claims.check_all(grid)]
        assert a == b


class TestScanSharing:
    GRID = [(p, n, ell) for p in (3, 5, 7, 11) for n in (1, 2, 3) for ell in (1, 2)]

    def test_check_all_scans_once_per_field_and_degree(self, monkeypatch):
        scans = []
        real = dynamics.count_profile

        def counting(fs, d, **caps):
            scans.append((fs.p, fs.n, d))
            return real(fs, d, **caps)

        monkeypatch.setattr(dynamics, "count_profile", counting)
        claims._profile.cache_clear()
        reports = claims.check_all(self.GRID)
        assert len(scans) == len(set(scans)) == 42
        # point-first walking keeps registry order and grid order
        assert [r.claim for r in reports] == list(claims.registry())
        for spec, report in zip(claims.registry(), reports):
            assert report.points == tuple(claims.check_point(spec, *point) for point in self.GRID)

    def test_caps_checked_on_every_point(self):
        spec = BY_ID["C-2.3"]
        # leaves the scan of F_27 at d = 3 in the memo; the caps still refuse it
        assert claims.check_point(spec, 3, 3, 1).status is Verdict.FAILS
        res = claims.check_point(spec, 3, 3, 1, field_cap=20)
        assert res.status is Verdict.SKIPPED
        res = claims.check_point(spec, 3, 3, 1, exp_cap=2)
        assert res.status is Verdict.SKIPPED
