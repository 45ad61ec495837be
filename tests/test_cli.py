"""End-to-end CLI behavior through main(argv): schemas, exit codes,
config resolution, and byte-identical determinism."""

import json

import pytest

from fixcensus import dynamics, ff
from fixcensus.cli import main
from fixcensus.dynamics import MapSpec


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCensus:
    def test_full_field_csv(self, capsys):
        code, out, err = run(
            capsys,
            ["census", "--p", "3", "--n", "2", "--family", "prime-power",
             "--ell", "1", "--c", "all"],
        )
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "p,n,ell,family,c_class,c_repr,fixed_count"
        assert len(lines) == 10
        reprs = [line.split(",")[5] for line in lines[1:]]
        assert reprs == sorted(reprs)  # string-sorted coefficient column
        counts = {line.split(",")[5]: int(line.split(",")[6]) for line in lines[1:]}
        assert {r for r, k in counts.items() if k == 3} == {"0", "t", "2*t"}
        assert all(k == 0 for r, k in counts.items() if r not in ("0", "t", "2*t"))

    def test_rows_match_library_counts(self, capsys):
        code, out, _ = run(
            capsys,
            ["census", "--p", "5", "--n", "1", "--family", "raw",
             "--d", "4", "--c", "all"],
        )
        assert code == 0
        fs = ff.standard_field(5, 1)
        for line in out.splitlines()[1:]:
            parts = line.split(",")
            c = fs.parse(parts[5])
            assert int(parts[6]) == dynamics.fixed_point_count(fs, MapSpec.raw(4, c))

    def test_pminus1_residue_classes(self, capsys):
        code, out, _ = run(
            capsys,
            ["census", "--p", "5", "--n", "1", "--family", "pminus1",
             "--ell", "1", "--c", "0,1,4"],
        )
        assert code == 0
        body = [line.split(",") for line in out.splitlines()[1:]]
        assert [(r[4], r[5], r[6]) for r in body] == [
            ("0", "0", "2"), ("1", "1", "1"), ("-1", "4", "0"),
        ]

    def test_element_string_coefficients(self, capsys):
        code, out, _ = run(
            capsys,
            ["census", "--p", "3", "--n", "2", "--family", "raw",
             "--d", "2", "--c", "t,0"],
        )
        assert code == 0
        body = [line.split(",") for line in out.splitlines()[1:]]
        assert [r[5] for r in body] == ["0", "t"]
        assert [r[4] for r in body] == ["0", "other"]

    def test_empty_c_list(self, capsys):
        code, out, _ = run(
            capsys,
            ["census", "--p", "3", "--n", "1", "--family", "prime-power",
             "--ell", "1", "--c", ""],
        )
        assert code == 0
        assert out == "p,n,ell,family,c_class,c_repr,fixed_count\n"

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            ["census", "--p", "5", "--n", "1", "--family", "pminus1",
             "--ell", "1", "--c", "0", "--format", "json"],
        )
        assert code == 0
        assert json.loads(out) == [
            {"p": 5, "n": 1, "ell": 1, "family": "pminus1",
             "c_class": "0", "c_repr": "0", "fixed_count": 2}
        ]

    def test_deterministic_and_jobs_invariant(self, capsys):
        argv = ["census", "--p", "3,5", "--n", "1,2", "--family", "prime-power",
                "--ell", "1,2", "--c", "all"]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second
        _, parallel, _ = run(capsys, argv + ["--jobs", "2"])
        assert parallel == first

    def test_raw_family_needs_d(self, capsys):
        code, _, err = run(
            capsys,
            ["census", "--p", "3", "--n", "1", "--family", "raw", "--c", "0"],
        )
        assert code == 2
        assert "needs --d" in err

    def test_field_cap_exit(self, capsys):
        code, _, err = run(
            capsys,
            ["census", "--p", "11", "--n", "2", "--family", "raw", "--d", "3",
             "--c", "0", "--field-cap", "100"],
        )
        assert code == 2
        assert "error:" in err

    def test_exp_cap_exit(self, capsys):
        code, _, err = run(
            capsys,
            ["census", "--p", "5", "--n", "1", "--family", "raw",
             "--d", "2000000", "--c", "0"],
        )
        assert code == 2
        assert "error:" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "census.csv"
        code, out, _ = run(
            capsys,
            ["census", "--p", "3", "--n", "1", "--family", "prime-power",
             "--ell", "1", "--c", "0", "--out", str(target)],
        )
        assert code == 0
        assert out == ""
        assert target.read_text().splitlines()[1] == "3,1,1,prime-power,0,0,3"


class TestConfig:
    def test_config_supplies_format(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"format": "json"}')
        code, out, _ = run(
            capsys,
            ["census", "--p", "3", "--n", "1", "--family", "prime-power",
             "--ell", "1", "--c", "0", "--config", str(cfg)],
        )
        assert code == 0
        assert json.loads(out)[0]["fixed_count"] == 3

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"format": "json"}')
        code, out, _ = run(
            capsys,
            ["census", "--p", "3", "--n", "1", "--family", "prime-power",
             "--ell", "1", "--c", "0", "--config", str(cfg), "--format", "csv"],
        )
        assert code == 0
        assert out.startswith("p,n,ell,")

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"fieldcap": 100}')
        code, _, err = run(
            capsys,
            ["census", "--p", "3", "--n", "1", "--family", "prime-power",
             "--ell", "1", "--c", "0", "--config", str(cfg)],
        )
        assert code == 2
        assert "unknown config keys: fieldcap" in err

    def test_malformed_json_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("{not json")
        code, _, err = run(
            capsys,
            ["census", "--p", "3", "--n", "1", "--family", "prime-power",
             "--ell", "1", "--c", "0", "--config", str(cfg)],
        )
        assert code == 2

    def test_bad_cap_values(self, capsys):
        code, _, err = run(
            capsys,
            ["census", "--p", "3", "--n", "1", "--family", "prime-power",
             "--ell", "1", "--c", "0", "--field-cap", "-5"],
        )
        assert code == 2
        assert "caps must be positive" in err


class TestClaims:
    def test_json_report_set(self, capsys):
        code, out, _ = run(
            capsys, ["claims", "--p", "3,5", "--n", "1,2", "--ell", "1"]
        )
        assert code == 0
        reports = json.loads(out)
        assert [r["claim"] for r in reports] == [
            "C-2.1", "C-2.2", "C-2.3", "C-2.4",
            "C-3.1", "C-3.2", "C-3.3", "C-3.4",
        ]
        by_id = {r["claim"]: r for r in reports}
        grid_status = {
            (pt["p"], pt["n"], pt["ell"]): pt["status"]
            for pt in by_id["C-2.1"]["grid"]
        }
        assert grid_status[(3, 2, 1)] == "FAILS"
        assert grid_status[(3, 1, 1)] == "NOT-APPLICABLE"
        assert grid_status[(5, 2, 1)] == "NOT-APPLICABLE"
        witness = by_id["C-2.1"]["grid"][1]["witnesses"][0]
        assert witness == {"c": "t", "predicted": 0, "actual": 3}
        assert by_id["C-3.4"]["grid"][2]["status"] == "HOLDS"

    def test_csv_flattening(self, capsys):
        code, out, _ = run(
            capsys,
            ["claims", "--p", "3", "--n", "2", "--ell", "1", "--format", "csv"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "claim,p,n,ell,status,c,predicted,actual"
        fails = [line for line in lines if line.startswith("C-2.1")]
        assert fails == [
            "C-2.1,3,2,1,FAILS,t,0,3",
            "C-2.1,3,2,1,FAILS,2*t,0,3",
        ]
        na = [line for line in lines if line.startswith("C-3.1")]
        assert na == ["C-3.1,3,2,1,NOT-APPLICABLE,,,"]

    def test_expect_round_trip_and_drift(self, capsys, tmp_path):
        golden = tmp_path / "golden.json"
        argv = ["claims", "--p", "3,5", "--n", "1", "--ell", "1"]
        code, _, _ = run(capsys, argv + ["--out", str(golden)])
        assert code == 0

        code, _, err = run(capsys, argv + ["--expect", str(golden)])
        assert code == 0 and err == ""

        reports = json.loads(golden.read_text())
        for rep in reports:
            if rep["claim"] == "C-3.4":
                for pt in rep["grid"]:
                    if pt["status"] == "HOLDS":
                        pt["status"] = "FAILS"
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(reports))
        code, _, err = run(capsys, argv + ["--expect", str(tampered)])
        assert code == 3
        assert "regression:" in err
        assert "C-3.4" in err

    def test_jobs_invariant(self, capsys):
        argv = ["claims", "--p", "3,5", "--n", "1", "--ell", "1"]
        _, serial, _ = run(capsys, argv)
        _, parallel, _ = run(capsys, argv + ["--jobs", "2"])
        assert serial == parallel

    def test_non_prime_grid_exits_2(self, capsys):
        code, _, err = run(capsys, ["claims", "--p", "4", "--n", "1", "--ell", "1"])
        assert code == 2
        assert "non-prime" in err


class TestAvgDensity:
    def test_avg_csv(self, capsys):
        code, out, _ = run(
            capsys,
            ["avg", "--family", "prime-power", "--selector", "p|c", "--c", "3,15"],
        )
        assert code == 0
        assert out.splitlines() == [
            "c,selector,numerator,denominator,ratio",
            "3,p|c,3,1,3.000000",
            "15,p|c,8,2,4.000000",
        ]

    def test_avg_json_empty_denominator(self, capsys):
        code, out, _ = run(
            capsys,
            ["avg", "--family", "prime-power", "--selector", "p|c", "--c", "4",
             "--format", "json"],
        )
        assert code == 0
        (row,) = json.loads(out)
        assert row["denominator"] == 0
        assert row["ratio"] is None

    def test_density_csv(self, capsys):
        code, out, _ = run(capsys, ["density", "--kind", "nc3", "--c", "30,100"])
        assert code == 0
        assert out.splitlines() == [
            "c,kind,numerator,denominator,ratio",
            "30,nc3,2,9,0.222222",
            "100,nc3,1,24,0.041667",
        ]

    def test_density_plot_data(self, capsys, tmp_path):
        plot = tmp_path / "plot.csv"
        code, _, _ = run(
            capsys,
            ["density", "--kind", "nc3", "--c", "30", "--emit-plot-data", str(plot)],
        )
        assert code == 0
        assert plot.read_text() == "c,ratio\n30,0.222222\n"

    def test_sieve_cap_exit(self, capsys):
        code, _, err = run(
            capsys,
            ["density", "--kind", "nc3", "--c", "1000000", "--sieve-cap", "1000"],
        )
        assert code == 2
        assert "error:" in err


class TestNf:
    def test_disc_count_json(self, capsys):
        code, out, _ = run(capsys, ["nf", "--d", "3", "--X", "100"])
        assert code == 0
        assert json.loads(out) == {
            "d": 3, "X": 100, "count": 2, "unknown": 0,
            "exponent_ref": "3/4", "bound_ok": True,
        }

    def test_height_json(self, capsys):
        code, out, _ = run(capsys, ["nf", "--d", "3", "--height", "2"])
        assert code == 0
        assert json.loads(out) == {"d": 3, "hmax": 2.0, "count": 17}

    def test_squarefree_csv(self, capsys):
        code, out, _ = run(
            capsys, ["nf", "--d", "3", "--squarefree", "10", "--format", "csv"]
        )
        assert code == 0
        assert out.splitlines() == [
            "d,limit,squarefree,unknown,fraction,reference",
            "3,10,5,0,0.500000,0.607927",
        ]

    def test_c_range_csv(self, capsys):
        code, out, _ = run(
            capsys, ["nf", "--d", "3", "--c-range", "0:2", "--format", "csv"]
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "d,c,disc,height,irreducibility,squarefree"
        assert lines[1] == "3,0,4,0.000000,REDUCIBLE,false"
        assert lines[2] == "3,1,-23,1.000000,IRREDUCIBLE,true"
        assert lines[3] == "3,2,-104,1.259921,IRREDUCIBLE,false"

    def test_readme_negative_c_range(self, capsys):
        code, out, err = run(capsys, ["nf", "--d", "3", "--c-range", "-5:5"])
        assert code == 0 and err == ""
        assert [row["c"] for row in json.loads(out)] == list(range(-5, 6))
        assert run(capsys, ["nf", "--d", "3", "--c-range=-5:5"]) == (0, out, "")

    def test_mode_flags_are_exclusive(self, capsys):
        code, _, err = run(capsys, ["nf", "--d", "3"])
        assert code == 2
        assert "exactly one" in err
        code, _, err = run(capsys, ["nf", "--d", "3", "--X", "10", "--height", "2"])
        assert code == 2

    def test_bad_c_range(self, capsys):
        code, _, err = run(capsys, ["nf", "--d", "3", "--c-range", "5"])
        assert code == 2
        code, _, err = run(capsys, ["nf", "--d", "3", "--c-range", "a:b"])
        assert code == 2


class TestOrbits:
    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys, ["orbits", "--p", "5", "--n", "1", "--d", "4", "--c", "2"]
        )
        assert code == 0
        assert json.loads(out) == {
            "field": {"p": 5, "n": 1, "modulus": [0, 1]},
            "d": 4,
            "c": "2",
            "components": 1,
            "cycle_lengths": [1],
            "fixed_points": 1,
            "max_tail": 2,
        }

    def test_csv_row(self, capsys):
        code, out, _ = run(
            capsys,
            ["orbits", "--p", "5", "--n", "1", "--d", "4", "--c", "0",
             "--format", "csv"],
        )
        assert code == 0
        assert out.splitlines() == [
            "p,n,d,c,components,cycle_lengths,fixed_points,max_tail",
            "5,1,4,0,2,1;1,2,1",
        ]

    def test_family_route(self, capsys):
        code, out, _ = run(
            capsys,
            ["orbits", "--p", "5", "--n", "1", "--family", "pminus1",
             "--ell", "1", "--c", "2"],
        )
        assert code == 0
        assert json.loads(out)["d"] == 4

    def test_needs_degree_or_family(self, capsys):
        code, _, err = run(capsys, ["orbits", "--p", "5", "--n", "1", "--c", "0"])
        assert code == 2
        assert "needs --d or --family" in err

    def test_element_string_coefficient(self, capsys):
        code, out, _ = run(
            capsys,
            ["orbits", "--p", "3", "--n", "2", "--d", "3", "--c", "t"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["c"] == "t"
        assert payload["fixed_points"] == 3
