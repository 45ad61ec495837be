"""End-to-end CLI behavior through main(argv), and through the process
entry python -m fixcensus: schemas, exit codes, config resolution, and
byte-identical determinism."""

import contextlib
import enum
import gc
import hashlib
import importlib
import io
import json
import math
import os
import pathlib
import shlex
import subprocess
import sys
from collections import Counter
from unittest import mock

import pytest
from fractions import Fraction
from hypothesis import event, example, given, settings, strategies as st

from fixcensus import cli, dynamics, ff, nfcount, stats
from fixcensus.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

# Full stdout text for (command, format) cases whose bytes no other test
# pins; recorded before the CLI writers were merged into one.
GOLDEN = [
    pytest.param(
        ["nf", "--d", "3", "--X", "100", "--format", "csv"],
        "d,X,count,unknown,exponent_ref,bound_ok\n"
        "3,100,2,0,3/4,True\n",
        id="nf-X-csv",
    ),
    pytest.param(
        ["nf", "--d", "3", "--squarefree", "10"],
        """{
  "d": 3,
  "limit": 10,
  "squarefree": 5,
  "unknown": 0,
  "numerator": 5,
  "denominator": 10,
  "fraction": "1/2",
  "reference": "0.607927"
}
""",
        id="nf-squarefree-json",
    ),
    pytest.param(
        ["nf", "--d", "3", "--height", "2", "--format", "json"],
        """{
  "d": 3,
  "hmax": 2.0,
  "count": 17
}
""",
        id="nf-height-json",
    ),
    pytest.param(
        ["nf", "--d", "3", "--c-range", "0:2"],
        """[
  {
    "d": 3,
    "c": 0,
    "disc": 4,
    "height": "0.000000",
    "irreducibility": "REDUCIBLE",
    "squarefree": "false"
  },
  {
    "d": 3,
    "c": 1,
    "disc": -23,
    "height": "1.000000",
    "irreducibility": "IRREDUCIBLE",
    "squarefree": "true"
  },
  {
    "d": 3,
    "c": 2,
    "disc": -104,
    "height": "1.259921",
    "irreducibility": "IRREDUCIBLE",
    "squarefree": "false"
  }
]
""",
        id="nf-c-range-json",
    ),
    pytest.param(["nf", "--d", "3", "--c-range", "5:1"], "[]\n", id="nf-empty-c-range-json"),
    pytest.param(
        ["nf", "--d", "3", "--c-range", "5:1", "--format", "csv"],
        "d,c,disc,height,irreducibility,squarefree\n",
        id="nf-empty-c-range-csv",
    ),
    pytest.param(
        ["density", "--kind", "mc2", "--c", "3,30", "--format", "json"],
        """[
  {
    "c": 3,
    "kind": "mc2",
    "numerator": 0,
    "denominator": 0,
    "ratio": null
  },
  {
    "c": 30,
    "kind": "mc2",
    "numerator": 1,
    "denominator": 8,
    "ratio": "1/8"
  }
]
""",
        id="density-json",
    ),
    pytest.param(
        ["avg", "--family", "prime-power", "--selector", "p|c", "--c", "3,4", "--format", "json"],
        """[
  {
    "c": 3,
    "selector": "p|c",
    "prime_floor": 3,
    "numerator": 3,
    "denominator": 1,
    "ratio": "3"
  },
  {
    "c": 4,
    "selector": "p|c",
    "prime_floor": 3,
    "numerator": 0,
    "denominator": 0,
    "ratio": null
  }
]
""",
        id="avg-json",
    ),
    pytest.param(
        ["avg", "--family", "prime-power", "--selector", "p|c", "--c", ""],
        "c,selector,numerator,denominator,ratio\n",
        id="avg-empty-csv",
    ),
    pytest.param(
        ["density", "--kind", "nc3", "--c", ""],
        "c,kind,numerator,denominator,ratio\n",
        id="density-empty-csv",
    ),
    pytest.param(
        ["orbits", "--p", "7", "--n", "1", "--d", "2", "--c", "0", "--format", "csv"],
        "p,n,d,c,components,cycle_lengths,fixed_points,max_tail\n"
        "7,1,2,0,3,1;1;2,2,1\n",
        id="orbits-csv-cycles",
    ),
    pytest.param(
        ["census", "--p", "5", "--n", "1", "--family", "raw", "--d", "3", "--c", "0,1",
         "--format", "json"],
        """[
  {
    "p": 5,
    "n": 1,
    "ell": null,
    "family": "raw",
    "c_class": "0",
    "c_repr": "0",
    "fixed_count": 3
  },
  {
    "p": 5,
    "n": 1,
    "ell": null,
    "family": "raw",
    "c_class": "1",
    "c_repr": "1",
    "fixed_count": 1
  }
]
""",
        id="census-raw-json",
    ),
    pytest.param(
        ["claims", "--p", "5", "--n", "1,3", "--ell", "1", "--field-cap", "100",
         "--format", "csv"],
        """claim,p,n,ell,status,c,predicted,actual
C-2.1,5,1,1,NOT-APPLICABLE,,,
C-2.1,5,3,1,NOT-APPLICABLE,,,
C-2.2,5,1,1,NOT-APPLICABLE,,,
C-2.2,5,3,1,SKIPPED,,,
C-2.3,5,1,1,NOT-APPLICABLE,,,
C-2.3,5,3,1,SKIPPED,,,
C-2.4,5,1,1,FAILS,0,3,5
C-2.4,5,3,1,NOT-APPLICABLE,,,
C-3.1,5,1,1,NOT-APPLICABLE,,,
C-3.1,5,3,1,SKIPPED,,,
C-3.2,5,1,1,NOT-APPLICABLE,,,
C-3.2,5,3,1,SKIPPED,,,
C-3.3,5,1,1,NOT-APPLICABLE,,,
C-3.3,5,3,1,SKIPPED,,,
C-3.4,5,1,1,HOLDS,,,
C-3.4,5,3,1,NOT-APPLICABLE,,,
""",
        id="claims-csv-bare-rows",
    ),
    # exact ratios: six decimals of a denominator no power of ten divides, a
    # ratio reducing to an integer (2/1 and 4/2), and one left unreduced in
    # the record (nf's exponent 2/2)
    pytest.param(
        ["density", "--kind", "nc3", "--c", "30,1000,2310"],
        "c,kind,numerator,denominator,ratio\n"
        "30,nc3,2,9,0.222222\n"
        "1000,nc3,1,167,0.005988\n"
        "2310,nc3,4,342,0.011696\n",
        id="density-csv-decimals",
    ),
    pytest.param(
        ["avg", "--family", "pminus1", "--selector", "p|c", "--c", "30,210", "--format", "json"],
        """[
  {
    "c": 30,
    "selector": "p|c",
    "prime_floor": 5,
    "numerator": 2,
    "denominator": 1,
    "ratio": "2"
  },
  {
    "c": 210,
    "selector": "p|c",
    "prime_floor": 5,
    "numerator": 4,
    "denominator": 2,
    "ratio": "2"
  }
]
""",
        id="avg-json-integer-ratios",
    ),
    pytest.param(
        ["nf", "--d", "3", "--squarefree", "7", "--format", "csv"],
        "d,limit,squarefree,unknown,fraction,reference\n"
        "3,7,4,0,0.571429,0.607927\n",
        id="nf-squarefree-csv",
    ),
    pytest.param(
        ["nf", "--d", "2", "--X", "10", "--format", "csv"],
        "d,X,count,unknown,exponent_ref,bound_ok\n"
        "2,10,3,0,1,True\n",
        id="nf-X-csv-integer-exponent",
    ),
]


@pytest.mark.parametrize("argv, text", GOLDEN)
def test_golden_bytes(capsys, argv, text):
    assert run(capsys, argv) == (0, text, "")


# Whole outputs too large to inline, by size and sha256, recorded before
# _output wrote JSON itself and CSV rows without per-cell work.
@pytest.mark.parametrize(
    "argv, size, digest",
    [
        (["census", "--p", "3,5", "--n", "1,2,3,4", "--family", "raw", "--d", "4,6", "--c", "all"],  # empty ell cells
         51482, "f8f20c2f6a2aec3bdc3c07540a4c377520ad34efc2459b1c2440a89e4407be25"),
        (["census", "--p", "3", "--n", "9", "--family", "prime-power", "--ell", "1", "--c", "all"],
         1036671, "f1639c47b0e61b1b5fc11bb42bfb59dee754816bcfe3b3eb53a38ef5a0498825"),
    ],
    ids=["census-raw-csv", "census-3-9-csv"],
)
def test_large_output_bytes(capsys, argv, size, digest):
    code, out, err = run(capsys, argv)
    data = out.encode()
    assert (code, err, len(data), hashlib.sha256(data).hexdigest()) == (0, "", size, digest)


class _Level(enum.IntEnum):
    LOW = 1


class _Tag(str, enum.Enum):
    A = "a\u00e9"


_JSON_SCALARS = st.one_of(
    st.text(st.characters(exclude_categories=())),  # lone surrogates, controls and non-ASCII too
    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\ud800", "\u2028", "\U0001f600", _Tag.A]),
    st.integers(),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.sampled_from([True, False, None, _Level.LOW]),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e300]),
)
_JSON_KEYS = st.one_of(st.text(st.characters(exclude_categories=())), st.integers(), st.floats(), st.booleans(), st.none())
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.lists(st.integers()),
        st.lists(st.text()),
        st.dictionaries(_JSON_KEYS, inner),
    ),
    max_leaves=40,
)


@settings(max_examples=100, deadline=None)
@given(_JSON_VALUES)
def test_json_output_is_json_dumps_indent_2(value):
    assert cli._output(None, "json", [], None, lambda: value) == (None, json.dumps(value, indent=2) + "\n")


def test_json_strings_go_through_the_escaper_json_uses(monkeypatch):
    # cli._json takes the escaper from the C module _json, not from json.encoder,
    # which loads the whole json package; it must stay the function json.dumps uses
    import _json

    assert _json.encode_basestring_ascii is json.encoder.encode_basestring_ascii
    seen = []

    def recording(text):
        seen.append(text)
        return json.encoder.encode_basestring_ascii(text)

    monkeypatch.setattr(_json, "encode_basestring_ascii", recording)
    value = {"k\u00e9": ["v\n", 1], "w": "\ud800"}
    assert cli._json(value) == json.dumps(value, indent=2)
    assert seen == ["k\u00e9", "v\n", "w", "\ud800"]


@pytest.mark.parametrize(
    "value", [Fraction(1, 2), {1, 2}, object(), [1, Fraction(1, 2)], {"a": {"b": {3}}}, {(1, 2): 3}]
)
def test_json_output_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2)
    with pytest.raises(TypeError):
        cli._output(None, "json", [], None, lambda: value)


def test_csv_cell_rule():
    # a list joined by ';' through _cell; csv.writer writes None empty and the rest with str
    row = [[1, 2, 3], None, True, 2.5, -7, "a,b"]
    columns = ["list", "none", "bool", "float", "int", "str"]
    text = cli._output(None, "csv", columns, lambda: [list(map(cli._cell, row))], None)
    assert text == (None, 'list,none,bool,float,int,str\n1;2;3,,True,2.5,-7,"a,b"\n')


_RATIO_INTS = st.one_of(st.integers(0, 1000), st.integers(0, 2**200))


@settings(max_examples=300, deadline=None)
@given(_RATIO_INTS, _RATIO_INTS, st.booleans())
@example(0, 0, False)
@example(0, 7, False)
@example(7, 0, False)
@example(2, 1, False)
@example(4, 2, False)
@example(2**64 + 1, 2**64 - 1, False)
@example(2**70, 2**65, False)
@example(2**1100 + 1, 2**1099, False)  # each int past the float range, the ratio in it
def test_exact_ratio_text_and_cell_are_those_of_fraction(a, b, multiple):
    # the JSON text and the CSV cell of a ratio held as two ints, against Fraction
    if multiple:
        a *= b  # b | a
    text = stats.ratio_text(a, b)
    cell = cli._output(None, "csv", ["b", "ratio"], lambda: [[b, cli._decimals(a, b)]], None)[1]
    if b:
        assert text == str(Fraction(a, b))
        assert cell == f"b,ratio\n{b},{float(Fraction(a, b)):.6f}\n"
    else:
        assert (text, cell) == (None, "b,ratio\n0,\n")


def test_output_builds_only_the_format_printed():
    def unbuilt():
        raise AssertionError("built a format that is not printed")

    assert cli._output(None, "json", ["a"], unbuilt, lambda: [1]) == (None, "[\n  1\n]\n")
    assert cli._output(None, "csv", ["a"], lambda: [[1]], unbuilt) == (None, "a\n1\n")


def test_readme_examples(capsys, tmp_path, monkeypatch):
    """Every README line starting with `fixcensus `, in file order."""
    monkeypatch.chdir(tmp_path)  # golden.json, trend.csv land here
    lines = [line for line in README.read_text().splitlines() if line.startswith("fixcensus ")]
    assert lines
    for line in lines:
        code, _, err = run(capsys, shlex.split(line, comments=True)[1:])
        assert (code, err) == (0, ""), line


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
        assert dynamics.CensusRecord._fields == tuple(lines[0].split(","))
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
            assert int(parts[6]) == dynamics.fixed_point_count(fs, 4, c)

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
        # the family point is checked even when no coefficient is asked for
        assert run(capsys, ["census", "--p", "3", "--n", "1", "--family", "pminus1",
                            "--ell", "1", "--c", ""]) == (2, "", "error: pminus1 family needs p >= 5\n")

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
        for jobs in ("2", "3"):
            assert run(capsys, argv + ["--jobs", jobs]) == (0, first, "")

    def test_jobs_invariant_over_ells_and_raw_degrees(self, capsys):
        for argv in (
            ["census", "--p", "5,7", "--n", "1,2", "--family", "pminus1", "--ell", "1,2,3"],
            ["census", "--p", "5,7", "--n", "1,2", "--family", "raw", "--d", "3,4"],
            ["census", "--p", "5", "--n", "2", "--family", "raw", "--d", "3,4",
             "--c", "1,t,2*t+1", "--format", "json"],
        ):
            code, serial, _ = run(capsys, argv)
            assert code == 0
            assert run(capsys, argv + ["--jobs", "2"]) == (0, serial, "")

    def test_scans_once_per_field_and_degree(self, capsys, monkeypatch):
        scans = []
        real = dynamics.count_profile

        def counting(fs, d, **caps):
            scans.append((fs.p, fs.n, d))
            return real(fs, d, **caps)

        monkeypatch.setattr(dynamics, "count_profile", counting)
        run(capsys, ["census", "--p", "3,5", "--n", "1,2", "--family", "prime-power",
                     "--ell", "1,2", "--c", "all"])
        assert scans == [(p, n, p**ell) for p in (3, 5) for n in (1, 2) for ell in (1, 2)]
        scans.clear()
        run(capsys, ["census", "--p", "5", "--n", "2", "--family", "raw", "--d", "3,4",
                     "--c", "0,1,t"])
        assert scans == [(5, 2, 3), (5, 2, 4)]

    def test_raw_family_needs_d(self, capsys):
        code, _, err = run(
            capsys,
            ["census", "--p", "3", "--n", "1", "--family", "raw", "--c", "0"],
        )
        assert code == 2
        assert "needs --d" in err

    def test_bad_element_string_names_flag_and_term(self, capsys):
        argv = ["census", "--p", "3", "--n", "2", "--family", "raw", "--d", "2", "--c", "x+1"]
        for jobs in ("1", "2"):
            assert run(capsys, argv + ["--jobs", jobs]) == (
                2, "", "error: --c: cannot parse term 'x' of element 'x+1'\n"
            )

    def test_field_cap_exit(self, capsys):
        code, _, err = run(
            capsys,
            ["census", "--p", "11", "--n", "2", "--family", "raw", "--d", "3",
             "--c", "0", "--field-cap", "100"],
        )
        assert code == 2
        assert "error:" in err

    def test_field_cap_refusal_builds_no_element(self, capsys, monkeypatch):
        def no_element(fs, index):
            raise AssertionError("an element was built before the cap check")

        monkeypatch.setattr(ff.FieldSpec, "element_at", no_element)
        code, out, err = run(
            capsys,
            ["census", "--p", "3", "--n", "7", "--family", "prime-power", "--ell", "1",
             "--c", "all", "--field-cap", "1000"],
        )
        assert (code, out) == (2, "")
        assert "exceeds the cap 1000" in err

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


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["census", "--p", "3", "--n", "1", "--family", "prime-power", "--ell", "1", "--c", "0"], "--out"),
        (["density", "--kind", "nc3", "--c", "30"], "--emit-plot-data"),
    ],
)
def test_unwritable_output_path_is_a_usage_error(capsys, tmp_path, argv, flag):
    target = tmp_path / "missing" / "out.csv"
    code, _, err = run(capsys, [*argv, flag, str(target)])
    assert code == 2
    assert err.startswith(f"error: cannot write {target}: ")
    assert err.count("\n") == 1


def _loaded_after_claims_with_jobs(names):
    # -S: no site .pth file adds modules, so only the command's imports count
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import os, sys; from fixcensus.cli import main; "
        "main(['claims', '--p', '3,5', '--n', '1,2', '--ell', '1', '--jobs', '2', '--out', os.devnull]); "
        f"print(sorted(set({sorted(names)!r}) & set(sys.modules)))"
    )
    result = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    return result.stdout, result.stderr


def test_forked_jobs_load_no_pool_module():
    assert _loaded_after_claims_with_jobs({"signal", "multiprocessing", "concurrent.futures"}) == ("[]\n", "")


def test_import_leaves_pickle_unloaded():
    # --jobs sends no result through a pipe, so nothing pickles or rebuilds a traceback
    assert _loaded_after_claims_with_jobs({"pickle", "traceback"}) == ("[]\n", "")


@pytest.mark.parametrize(
    "argv",
    [
        ["census", "--p", "5,7", "--n", "1,2", "--family", "pminus1", "--ell", "1,2"],
        ["claims", "--p", "3,5", "--n", "1,2", "--ell", "1,2"],
    ],
    ids=["census", "claims"],
)
def test_jobs_runs_in_this_process(capsys, monkeypatch, argv):
    code, serial, _ = run(capsys, argv + ["--jobs", "1"])
    assert code == 0

    def no_fork():
        raise AssertionError("--jobs forked a process")

    monkeypatch.setattr(os, "fork", no_fork)
    assert run(capsys, argv + ["--jobs", "3"]) == (0, serial, "")


def test_import_leaves_dataclasses_and_inspect_unloaded():
    # -S: no site .pth file adds modules, so the import is measured alone
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, fixcensus.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"


# Modules a command has no use for; each command imports only what it runs,
# and a plain command line is parsed without argparse and what it imports.
_UNUSED_BY_ALL = ["argparse", "gettext", "locale", "shutil"]
_UNUSED_BY_SCANS = ["fixcensus.claims", "fixcensus.stats", "fixcensus.nfcount", "fractions", "decimal", "json"]


@pytest.mark.parametrize(
    "argv, unused",
    [
        (["census", "--p", "3", "--n", "2", "--family", "prime-power", "--ell", "1"], _UNUSED_BY_SCANS),
        (["orbits", "--p", "3", "--n", "2", "--d", "2", "--c", "1"], [*_UNUSED_BY_SCANS, "csv"]),
        (["claims", "--p", "3", "--n", "1", "--ell", "1"],
         ["fixcensus.stats", "fixcensus.nfcount", "fractions", "csv", "json"]),
        (["avg", "--family", "prime-power", "--selector", "p|c", "--c", "30"],
         ["fixcensus.claims", "fixcensus.nfcount", "fractions", "decimal", "json"]),
        (["density", "--kind", "nc3", "--c", "30"],
         ["fixcensus.claims", "fixcensus.nfcount", "fractions", "decimal", "json"]),
        (["nf", "--d", "3", "--X", "1000"], ["fixcensus.claims", "fractions", "decimal", "csv", "json"]),
        (["nf", "--d", "3", "--squarefree", "10"], ["fixcensus.claims", "fractions", "decimal", "csv", "json"]),
        (["nf", "--d", "3", "--c-range", "1:3"], ["fixcensus.claims", "fractions", "decimal", "csv", "json"]),
    ],
    ids=["census", "orbits", "claims", "avg", "density", "nf", "nf-squarefree", "nf-c-range"],
)
def test_command_loads_only_its_modules(argv, unused):
    # -S: no site .pth file adds modules, so only the command's imports count
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    unused = [*unused, *_UNUSED_BY_ALL]
    code = (
        f"import os, sys; from fixcensus.cli import main; code = main({argv!r} + ['--out', os.devnull]); "
        f"print(code, sorted(set({unused!r}) & set(sys.modules)))"
    )
    result = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert (result.stdout, result.stderr) == ("0 []\n", "")


def test_package_import_loads_no_submodule():
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, fixcensus; print(sorted(m for m in sys.modules if m.startswith('fixcensus.')))"
    result = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"


_CLAIMS_GRID = ["claims", "--p", "3,5", "--n", "1,2", "--ell", "1"]


def _python_m_fixcensus(argv, cwd, *, command=("-m", "fixcensus")):
    # stdout stays buffered, as it is by default, so the entry must flush it
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, *command, *argv], cwd=cwd, env=env, capture_output=True)


def test_main_leaves_the_collector_alone(capsys):
    frozen = gc.get_freeze_count()
    assert run(capsys, _CLAIMS_GRID)[0] == 0
    assert gc.get_freeze_count() == frozen


def test_process_entry_prints_the_bytes_of_main(capsys, tmp_path):
    assert main(_CLAIMS_GRID) == 0
    expected = capsys.readouterr().out.encode()
    result = _python_m_fixcensus(_CLAIMS_GRID, tmp_path)
    assert (result.returncode, result.stdout, result.stderr) == (0, expected, b"")


def test_process_entry_exit_codes(tmp_path):
    result = _python_m_fixcensus(["census", "--p", "3", "--n", "400", "--family", "prime-power", "--ell", "1",
                                  "--c", "0"], tmp_path)
    assert (result.returncode, result.stdout) == (2, b"")
    assert result.stderr.startswith(b"error: ")

    golden = tmp_path / "golden.json"
    assert main(_CLAIMS_GRID + ["--out", str(golden)]) == 0
    reports = json.loads(golden.read_text())
    reports[0]["grid"][0]["status"] = "DRIFTED"
    golden.write_text(json.dumps(reports))
    result = _python_m_fixcensus(_CLAIMS_GRID + ["--expect", str(golden)], tmp_path)
    assert result.returncode == 3
    assert b"regression:" in result.stderr


def test_process_entry_help_and_usage_error(tmp_path):
    result = _python_m_fixcensus(["--help"], tmp_path)
    assert (result.returncode, result.stderr) == (0, b"")
    assert result.stdout.startswith(b"usage: fixcensus")
    result = _python_m_fixcensus(["census", "--p", "3"], tmp_path)
    assert (result.returncode, result.stdout) == (2, b"")
    assert result.stderr.startswith(b"usage: fixcensus census") and b"error: " in result.stderr


def test_process_entry_writes_a_large_output_whole(capsys, tmp_path):
    # more than a pipe buffer holds is still pending when the command returns
    argv = ["census", "--p", "3", "--n", "9", "--family", "prime-power", "--ell", "1", "--c", "all"]
    assert main(argv) == 0
    expected = capsys.readouterr().out.encode()
    assert len(expected) > 1 << 16
    result = _python_m_fixcensus(argv, tmp_path)
    assert (result.returncode, result.stdout, result.stderr) == (0, expected, b"")


def test_process_entry_fault_prints_a_traceback(tmp_path):
    script = (
        "import runpy, sys\n"
        "from fixcensus import cli\n"
        "def fault(args):\n"
        "    raise RuntimeError('planted fault')\n"
        "cli.cmd_nf = fault\n"
        "sys.argv = ['fixcensus', 'nf', '--d', '3', '--X', '100']\n"
        "runpy.run_module('fixcensus', run_name='__main__')\n"
    )
    result = _python_m_fixcensus([], tmp_path, command=("-c", script))
    assert (result.returncode, result.stdout) == (1, b"")
    assert result.stderr.startswith(b"Traceback") and result.stderr.endswith(b"RuntimeError: planted fault\n")


class _Unflushable(io.StringIO):
    def flush(self):
        raise OSError("flush failed")


@pytest.mark.parametrize(
    "outcome, stdout, exits, raised",
    [
        (lambda: 3, io.StringIO, [3], None),
        (sys.exit, io.StringIO, [0], None),
        (lambda: sys.exit(2), io.StringIO, [2], None),
        (lambda: sys.exit("a message"), io.StringIO, [], "a message"),
        (lambda: 3, _Unflushable, [], 3),
    ],
    ids=["returned", "exit-none", "exit-int", "exit-message", "flush-fails"],
)
def test_process_exit_skips_teardown_only_after_a_flush(monkeypatch, outcome, stdout, exits, raised):
    entry = importlib.import_module("fixcensus.__main__")
    codes = []
    monkeypatch.setattr(entry, "main", outcome)
    monkeypatch.setattr(os, "_exit", codes.append)
    monkeypatch.setattr(sys, "stdout", stdout())
    if raised is None:
        entry._exit_run()
    else:  # the normal exit: SystemExit reaches the interpreter
        with pytest.raises(SystemExit) as exit_info:
            entry._exit_run()
        assert exit_info.value.code == raised
    assert codes == exits


def _main_outcome(capsys, argv):
    """main's (code, stdout, stderr), also when argparse exits."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        *([name, "--help"] for name in ("census", "claims", "avg", "density", "nf", "orbits")),
        ["census", "--p", "3", "--n", "1", "--ell", "1"],
        ["claims", "--p", "3", "--n", "1"],
        ["avg", "--family", "prime-power", "--selector", "p", "--c", "30"],
        ["density", "--kind", "nc9", "--c", "30"],
        ["nf", "--X", "10"],
        ["orbits", "--p", "3", "--n", "2", "--family", "raw", "--ell", "1", "--c", "1"],
        ["census", "--p", "3", "--n", "2", "--fam", "prime-power", "--ell", "1"],
        ["census", "--p", "5", "--n", "2", "--family", "prime-power", "--ell", "1", "--p", "3"],
        ["claims", "--p", "3", "--n", "1", "--ell", "1", "--jobs", "x"],
        ["orbits", "--p", "3", "--n", "2", "--d", "2", "--c", "1", "--format", "xml"],
    ],
    ids=" ".join,
)
def test_command_parser_matches_the_full_parser(capsys, monkeypatch, argv):
    # main parses a plain command line itself, and builds only the named
    # command's arguments for any other; help text, usage errors and the
    # command lines argparse alone accepts (an abbreviation, a repeated flag)
    # must give the outcome of the parser that carries every command's
    ours = _main_outcome(capsys, argv)
    full_parser = cli.build_parser
    monkeypatch.setattr(cli, "_parse_plain", lambda argv: None)
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full_parser())
    code, out, err = full = _main_outcome(capsys, argv)
    assert ours == full
    if "--help" in argv:
        assert (code, err) == (0, "") and out.startswith("usage: fixcensus")
    elif err:
        assert (code, out) == (2, "") and err.startswith("usage: fixcensus")
    else:
        assert code == 0 and out.startswith("p,n,ell,family")


def test_plain_command_line_runs_the_command_patched_onto_cli(monkeypatch):
    def no_parser(command=None):
        raise AssertionError("a plain command line built a parser")

    seen = []
    monkeypatch.setattr(cli, "build_parser", no_parser)
    monkeypatch.setattr(cli, "cmd_census", lambda args: seen.append(vars(args)) or 7)
    assert main(["census", "--p=3", "--n", "2", "--family", "raw", "--d", "2", "--field-cap", "9"]) == 7
    assert seen == [
        {"command": "census", "func": cli.cmd_census, "p": "3", "n": "2", "ell": None, "d": "2", "family": "raw",
         "c": "all", "out": None, "format": None, "jobs": 1, "field_cap": 9, "exp_cap": dynamics.DEFAULT_EXP_CAP,
         "sieve_cap": ff.DEFAULT_SIEVE_CAP, "config": None},
    ]


# Values that pass or fail a flag's type and choices in the ways that matter
# to a parser: int() takes "1_0" and " 7"; argparse treats a spaced value
# that starts with "-" as a flag, and some versions (3.11 among them) drop a
# value "--".
_ODD_VALUES = ["3", "1_0", " 7", "", "-1", "-x", "--", "x", "3,5", "2*t+1", "1:3", "0.5", "xml", "-h"]


@st.composite
def _command_lines(draw):
    name, _, add_args, _ = draw(st.sampled_from(cli._commands()))
    flags = cli._Flags()
    add_args(flags)
    cli._add_common(flags)

    def value(flag, odd=False):
        return draw(st.sampled_from(_ODD_VALUES if odd else flags.get(flag, {}).get("choices", ["3"])))

    # most required flags with values that pass, then other tokens, in any order
    items = [[flag, value(flag)] for flag in flags if flags[flag].get("required") and draw(st.integers(0, 9))]
    for _ in range(draw(st.integers(0, 3))):
        flag = draw(st.sampled_from(list(flags)))
        form = draw(st.sampled_from(["exact"] * 4 + ["abbreviated", "--zz", "-h", "--help", "--"]))
        if form == "abbreviated":
            flag = flag[: draw(st.integers(2, len(flag) - 1))]
        elif form != "exact":
            flag = form
        items.append([flag, value(flag, draw(st.booleans()))][: draw(st.integers(1, 2))])
    argv = [name]
    for item in draw(st.permutations(items)):
        argv += item if len(item) < 2 or draw(st.booleans()) else ["=".join(item)]
    return argv


@given(_command_lines())
@example(["census", "--p=--", "--n", "2", "--family", "raw", "--d", "2"])
@settings(max_examples=400, deadline=None)
def test_plain_parser_agrees_with_argparse(argv):
    # the plain parser may decline any command line, but one it accepts must
    # be one argparse accepts, with the same attributes
    plain = cli._parse_plain(argv)
    event("plain" if plain else "declined")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            full = cli.build_parser(argv[0]).parse_args(argv)
        except SystemExit:
            full = None
    assert plain is None or (full is not None and vars(plain) == vars(full)), argv


@pytest.mark.parametrize("p, n", [(2, 6), (3, 5), (5, 3), (7, 2), (11, 1)])
def test_census_of_every_c_names_each_element(p, n):
    # the --c all rows are rendered from index digits, not from elements
    fs = ff.standard_field(p, n)
    records = cli._census_point(
        p, n, dynamics.Family.RAW, 2, 2, ("all",), field_cap=ff.DEFAULT_FIELD_CAP, exp_cap=dynamics.DEFAULT_EXP_CAP
    )
    rows = [(r.c_repr, r.c_class) for r in records]
    assert rows == [(str(fs.element_at(i)), dynamics.classify_residue(p, i)) for i in range(fs.order)]


@pytest.mark.parametrize(
    "argv, value",
    [
        (["census", "--p", "5", "--n", "1", "--family", "pminus1", "--ell", "1"], "-1,2"),
        (["census", "--p", "3", "--n", "2", "--family", "prime-power", "--ell", "1"], "-2*t+1,-t"),
        (["avg", "--family", "prime-power", "--selector", "p|c"], "-3,15"),
        (["orbits", "--p", "3", "--n", "2", "--d", "2"], "-t"),
        (["orbits", "--p", "3", "--n", "2", "--d", "2"], "-2*t+1"),
    ],
)
def test_negative_c_value_matches_the_equals_form(capsys, argv, value):
    spaced = run(capsys, [*argv, "--c", value])
    assert spaced[0] == 0 and spaced[1]
    assert spaced == run(capsys, [*argv, f"--c={value}"])


def test_internal_key_error_is_not_a_usage_error(capsys, monkeypatch):
    def broken(args):
        return {}["missing"]

    monkeypatch.setattr(cli, "cmd_nf", broken)
    with pytest.raises(KeyError, match="missing"):
        main(["nf", "--d", "3", "--X", "100"])
    assert capsys.readouterr().err == ""


def test_internal_value_error_is_not_a_usage_error(capsys, monkeypatch):
    def broken(d, X, **options):
        raise ValueError("internal fault")

    monkeypatch.setattr(nfcount, "count_by_disc", broken)
    with pytest.raises(ValueError, match="internal fault"):
        main(["nf", "--d", "3", "--X", "100"])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(
            ["orbits", "--p", "3", "--n", "2", "--d", "2", "--family", "prime-power", "--ell", "1",
             "--c", "0"], "orbits takes --d or --family with --ell, not both", id="orbits-d-family",
        ),
        pytest.param(
            ["orbits", "--p", "3", "--n", "2", "--d", "2", "--ell", "1", "--c", "0"],
            "orbits takes --d or --family with --ell, not both", id="orbits-d-ell",
        ),
        pytest.param(
            ["census", "--p", "3", "--n", "1", "--family", "prime-power", "--ell", "1", "--d", "2",
             "--c", "0"], "--family prime-power takes no --d", id="census-prime-power-d",
        ),
        pytest.param(
            ["census", "--p", "3", "--n", "1", "--family", "raw", "--d", "2", "--ell", "1",
             "--c", "0"], "--family raw takes no --ell", id="census-raw-ell",
        ),
    ],
)
def test_degree_flag_the_family_does_not_read_exits_2(capsys, argv, message):
    assert run(capsys, argv) == (2, "", f"error: {message}\n")


def test_library_argument_errors_exit_2(capsys):
    assert issubclass(ff.ArgumentError, ValueError)
    with pytest.raises(ff.ArgumentError):
        nfcount.closed_form_disc(1, 0)
    for mode in (["--X", "100"], ["--c-range", "5:1"]):
        assert run(capsys, ["nf", "--d", "1", *mode]) == (2, "", "error: map degree 1 must be at least 2\n")
    assert run(capsys, ["avg", "--family", "prime-power", "--selector", "p|c", "--c", "3", "--n", "0"]) == (
        2, "", "error: n = 0 and ell = 1 must be at least 1\n"
    )


_REFUSED = [
    (["census", "--p", "3", "--n", "400", "--family", "prime-power", "--ell", "1", "--c", "0"],
     "field order 3^400 exceeds the cap 10000000"),
    (["orbits", "--p", "3", "--n", "400", "--d", "3", "--c", "0"],
     "field order 3^400 exceeds the cap 10000000"),
    (["avg", "--family", "pminus1", "--n", "300", "--selector", "p|c", "--c", "35"],
     "field order 5^300 exceeds the cap 10000000"),
    (["census", "--p", "3", "--n", "2", "--family", "prime-power", "--ell", "10000", "--c", "0"],
     "map degree 3^10000 exceeds the exponent cap 1000000"),
    (["orbits", "--p", "3", "--n", "2", "--family", "prime-power", "--ell", "10000", "--c", "0"],
     "map degree 3^10000 exceeds the exponent cap 1000000"),
    (["avg", "--family", "pminus1", "--ell", "10000", "--selector", "p|c", "--c", "35"],
     "map degree 4^10000 exceeds the exponent cap 1000000"),
    # a later grid point is refused before the field of an earlier one is built
    (["census", "--p", "3", "--n", "2,400", "--family", "prime-power", "--ell", "1", "--c", "0"],
     "field order 3^400 exceeds the cap 10000000"),
    (["census", "--p", "3,4", "--n", "2", "--family", "prime-power", "--ell", "1", "--c", "0"],
     "prime-power family needs a prime p and ell >= 1"),
    (["census", "--p", "5,7", "--n", "8,9", "--family", "pminus1", "--ell", "1", "--c", "0"],
     "field order 7^9 exceeds the cap 10000000"),
    (["claims", "--p", "5,7,11,13,4", "--n", "2,3,4,5", "--ell", "1,2"], "grid point has non-prime p = 4"),
]


@pytest.mark.parametrize("argv, message", _REFUSED)
def test_caps_refuse_before_any_field_is_built(capsys, monkeypatch, argv, message):
    def no_field(*args):
        raise AssertionError("a field was built before the caps were checked")

    for module, name in [(ff, "find_irreducible"), (ff, "standard_field"), (cli, "standard_field"),
                         (stats, "standard_field")]:
        monkeypatch.setattr(module, name, no_field)
    assert run(capsys, argv) == (2, "", f"error: {message}\n")


# Per family: the census flag of its exponent, and valid and refused values of (p, n, k)
_CENSUS_AXES = {
    "prime-power": ("--ell", ([3, 5, 7], [1, 2], [1, 2]), ([4, 1], [0, 400], [0, 10**9])),
    "pminus1": ("--ell", ([5, 7], [1, 2], [1, 2]), ([3, 9], [0, 20], [0, 10])),
    "raw": ("--d", ([3, 5], [1, 2], [2, 3]), ([0, 6], [0, 15], [1, 10**7])),
}


@st.composite
def _census_grid_with_one_bad_value(draw):
    family = draw(st.sampled_from(sorted(_CENSUS_AXES)))
    flag, good, bad = _CENSUS_AXES[family]
    axes = [draw(st.lists(st.sampled_from(values), min_size=1, max_size=3)) for values in good]
    axis = draw(st.integers(0, 2))
    axes[axis].insert(draw(st.integers(0, len(axes[axis]))), draw(st.sampled_from(bad[axis])))
    return family, flag, axes


@settings(max_examples=100, deadline=None)
@given(_census_grid_with_one_bad_value())
def test_census_refuses_the_first_bad_point_before_any_field(grid):
    family, flag, (ps, ns, ks) = grid
    want = None
    for p in ps:
        for n in ns:
            for k in ks:
                try:
                    dynamics.capped_degree(p, n, dynamics.Family(family), k)
                except (ff.ArgumentError, ff.CapError) as exc:
                    want = want or str(exc)
    argv = ["census", "--p", ",".join(map(str, ps)), "--n", ",".join(map(str, ns)), "--family", family,
            flag, ",".join(map(str, ks)), "--c", "0"]
    no_field = mock.Mock(side_effect=AssertionError("a field was built before the caps were checked"))
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(ff, "find_irreducible", no_field), mock.patch.object(cli, "standard_field", no_field), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, out.getvalue(), err.getvalue()) == (2, "", f"error: {want}\n")
    no_field.assert_not_called()


@pytest.mark.parametrize("caps, message", [
    (["--ell", "1", "--field-cap", "5000"], "field order 5003^1 exceeds the cap 5000"),
    (["--ell", "2", "--exp-cap", "10000"], "map degree 10404 exceeds the exponent cap 10000"),
])
def test_avg_caps_refuse_before_any_scan(capsys, monkeypatch, caps, message):
    # c = 100 passes every cap; c = 20000 reaches p = 5003 (103 for ell = 2) after it
    def no_scan(*args, **kwargs):
        raise AssertionError("a field was scanned before the caps were checked")

    monkeypatch.setattr(dynamics, "fixed_point_count", no_scan)
    argv = ["avg", "--family", "pminus1", "--n", "1", *caps, "--selector", "p!|c", "--c", "100,20000"]
    assert run(capsys, argv) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("c, caps, message", [
    # p = 1,000,003 is the least prime past 10^6 + 1 that does not divide 10^8
    ("100000000", ["--ell", "1"], "map degree 1000002 exceeds the exponent cap 1000000"),
    ("100,20000", ["--ell", "1", "--field-cap", "5000"], "field order 5003^1 exceeds the cap 5000"),
    ("100,20000", ["--ell", "2", "--exp-cap", "10000"], "map degree 10404 exceeds the exponent cap 10000"),
])
def test_avg_caps_refuse_before_any_prime_list(capsys, monkeypatch, c, caps, message):
    # the refused (c, p) is found by is_prime, with no prime list and no Lucy pass
    def no_primes(*args):
        raise AssertionError("primes were listed or counted before the caps were checked")

    monkeypatch.setattr(stats, "_sieve", no_primes)
    monkeypatch.setattr(stats, "_lucy", no_primes)
    argv = ["avg", "--family", "pminus1", "--n", "1", *caps, "--selector", "p!|c", "--c", c]
    assert run(capsys, argv) == (2, "", f"error: {message}\n")


# Every integer-side size, each run once just above --sieve-cap and once at
# it: (the argv above the cap, its refusal, the argv at the cap).
_INTEGER_SIZES = [
    (["avg", "--family", "prime-power", "--selector", "p|c+1", "--c", "100", "--sieve-cap", "100"],
     "sieve limit 101 exceeds the cap 100",
     ["avg", "--family", "prime-power", "--selector", "p|c+1", "--c", "99", "--sieve-cap", "100"]),
    (["avg", "--family", "pminus1", "--selector", "p!|c", "--c", "101", "--sieve-cap", "100"],
     "sieve limit 101 exceeds the cap 100",
     ["avg", "--family", "pminus1", "--selector", "p!|c", "--c", "100", "--sieve-cap", "100"]),
    (["density", "--kind", "mc1", "--c", "5,101", "--sieve-cap", "100"],
     "sieve limit 101 exceeds the cap 100",
     ["density", "--kind", "mc1", "--c", "5,100", "--sieve-cap", "100"]),
    (["nf", "--d", "3", "--X", "1000", "--q-max", "12", "--sieve-cap", "12"],
     "|disc| < 1000: c count 13 exceeds the cap 12",
     ["nf", "--d", "3", "--X", "1000", "--q-max", "13", "--sieve-cap", "13"]),
    (["nf", "--d", "3", "--squarefree", "101", "--trial-bound", "100", "--sieve-cap", "100"],
     "c in [1, 101]: c count 101 exceeds the cap 100",
     ["nf", "--d", "3", "--squarefree", "100", "--trial-bound", "100", "--sieve-cap", "100"]),
    (["nf", "--d", "3", "--c-range", "-50:50", "--sieve-cap", "100"],
     "--c-range -50:50: c count 101 exceeds the cap 100",
     ["nf", "--d", "3", "--c-range", "-50:49", "--trial-bound", "100", "--sieve-cap", "100"]),
    (["nf", "--d", "3", "--X", "1000", "--q-max", "101", "--sieve-cap", "100"],
     "sieve limit 101 exceeds the cap 100",
     ["nf", "--d", "3", "--X", "1000", "--q-max", "100", "--sieve-cap", "100"]),
    (["nf", "--d", "3", "--c-range", "0:2", "--q-max", "101", "--trial-bound", "10", "--sieve-cap", "100"],
     "sieve limit 101 exceeds the cap 100",
     ["nf", "--d", "3", "--c-range", "0:2", "--q-max", "100", "--trial-bound", "10", "--sieve-cap", "100"]),
    (["nf", "--d", "3", "--squarefree", "5", "--trial-bound", "101", "--sieve-cap", "100"],
     "sieve limit 101 exceeds the cap 100",
     ["nf", "--d", "3", "--squarefree", "5", "--trial-bound", "100", "--sieve-cap", "100"]),
    (["nf", "--d", "3", "--c-range", "0:2", "--trial-bound", "101", "--sieve-cap", "100"],
     "sieve limit 101 exceeds the cap 100",
     ["nf", "--d", "3", "--c-range", "0:2", "--trial-bound", "100", "--sieve-cap", "100"]),
    # nf's prime lists meet the cap too: neither of these may sieve to 10^6
    (["nf", "--d", "3", "--squarefree", "5", "--trial-bound", "1000000", "--sieve-cap", "10"],
     "sieve limit 1000000 exceeds the cap 10",
     ["nf", "--d", "3", "--squarefree", "5", "--trial-bound", "10", "--sieve-cap", "10"]),
    (["nf", "--d", "3", "--X", "1000", "--q-max", "1000000", "--sieve-cap", "20"],
     "sieve limit 1000000 exceeds the cap 20",
     ["nf", "--d", "3", "--X", "1000", "--q-max", "20", "--sieve-cap", "20"]),
]


@pytest.mark.parametrize("above, message, at", _INTEGER_SIZES)
def test_integer_side_sizes_meet_one_cap(capsys, monkeypatch, above, message, at):
    assert run(capsys, at)[0] == 0

    def no_work(*args, **kwargs):
        raise AssertionError("work began before the cap check")

    for module, name in [
        (stats, "_sieve"), (stats, "prime_counts"), (stats, "_lucy"),
        (stats, "_prime_factors"), (stats, "standard_field"),
        (nfcount, "closed_form_disc"), (nfcount, "_irreducible_mod_q"), (nfcount, "integral_fixed_points"),
        (nfcount, "_squarefree_by_trial"), (nfcount, "_squarefree_verdicts"), (nfcount, "_disc_roots"),
    ]:
        monkeypatch.setattr(module, name, no_work)
    assert run(capsys, above) == (2, "", f"error: {message}\n")


# Every command whose map degree meets --exp-cap, run once with the degree just
# above the cap and once at it: (argv without the cap, the degree).
_DEGREES = [
    pytest.param(["nf", "--d", "5", "--X", "100000"], 5, id="nf-X"),
    pytest.param(["nf", "--d", "5", "--height", "2"], 5, id="nf-height"),
    pytest.param(["nf", "--d", "5", "--squarefree", "10"], 5, id="nf-squarefree"),
    pytest.param(["nf", "--d", "5", "--c-range", "1:3"], 5, id="nf-c-range"),
    pytest.param(["nf", "--d", "5", "--c-range", "5:1"], 5, id="nf-empty-c-range"),
    pytest.param(["census", "--p", "3", "--n", "2", "--family", "prime-power", "--ell", "2", "--c", "0"], 9,
                 id="census"),
    pytest.param(["orbits", "--p", "3", "--n", "2", "--d", "5", "--c", "1"], 5, id="orbits"),
    pytest.param(["avg", "--family", "pminus1", "--ell", "2", "--selector", "p|c", "--c", "5"], 16, id="avg"),
]


@pytest.mark.parametrize("argv, d", _DEGREES)
def test_map_degrees_meet_one_exponent_cap(capsys, monkeypatch, argv, d):
    assert run(capsys, [*argv, "--exp-cap", str(d)])[0] == 0

    def no_work(*args, **kwargs):
        raise AssertionError("work began before the degree check")

    for module, name in [
        (cli, "standard_field"), (stats, "standard_field"), (dynamics, "count_profile"), (stats, "prime_sieve"),
        (nfcount, "closed_form_disc"), (nfcount, "_irreducible_mod_q"), (nfcount, "integral_fixed_points"),
        (nfcount, "_squarefree_by_trial"), (nfcount, "_squarefree_verdicts"), (nfcount, "_disc_roots"),
    ]:
        monkeypatch.setattr(module, name, no_work)
    assert run(capsys, [*argv, "--exp-cap", str(d - 1)]) == (
        2, "", f"error: map degree {d} exceeds the exponent cap {d - 1}\n"
    )


def test_coefficient_with_digit_groups_is_a_usage_error(capsys):
    argv = ["census", "--p", "3", "--n", "2", "--family", "prime-power", "--ell", "1", "--c", "1_0"]
    assert run(capsys, argv) == (2, "", "error: --c: cannot parse term '1_0' of element '1_0'\n")


def test_claims_skip_a_degree_past_the_exponent_cap(capsys):
    code, out, _ = run(capsys, ["claims", "--p", "3", "--n", "2", "--ell", "10000"])
    skipped = [pt["note"] for rep in json.loads(out) for pt in rep["grid"] if pt["status"] == "SKIPPED"]
    assert (code, skipped) == (0, ["map degree 3^10000 exceeds the exponent cap 1000000"])


@pytest.mark.parametrize("argv", [
    ["census", "--p", "3", "--n", "2", "--family", "prime-power", "--ell", "1"],
    ["orbits", "--p", "3", "--n", "2", "--d", "3"],
], ids=["census", "orbits"])
def test_coefficient_past_the_digit_limit_is_a_usage_error(capsys, argv):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter has no int() digit limit")
    assert run(capsys, [*argv, "--c", "1" + "0" * limit]) == (
        2, "", "error: --c: element string has an integer past the int() digit limit\n"
    )


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.parametrize("flag, argv, message", [
    ("--config", ["census", "--p", "3", "--n", "1", "--family", "prime-power", "--ell", "1", "--c", "0"],
     "error: cannot read config "),
    ("--expect", ["claims", "--p", "3", "--n", "1", "--ell", "1"], "error: cannot read --expect file "),
], ids=["config", "expect"])
@pytest.mark.parametrize("data", [
    pytest.param(b'{"out": "\xff"}', id="not-utf8"),
    pytest.param(b'{"field_cap": 1' + b"0" * _DIGIT_LIMIT + b"}", id="int-past-the-digit-limit",
                 marks=pytest.mark.skipif(not _DIGIT_LIMIT, reason="this interpreter has no int() digit limit")),
])
def test_undecodable_file_is_a_usage_error(capsys, tmp_path, flag, argv, message, data):
    path = tmp_path / "file.json"
    path.write_bytes(data)
    code, out, err = run(capsys, [*argv, flag, str(path)])
    assert (code, out) == (2, "")
    assert err.startswith(message)


_PRIME_POWER_CENSUS = ["census", "--p", "3", "--n", "1", "--family", "prime-power", "--ell", "1", "--c", "0"]


@pytest.mark.parametrize("argv, config, message", [
    pytest.param(_PRIME_POWER_CENSUS, "[]", "config must be a JSON object", id="config-not-an-object"),
    pytest.param(_PRIME_POWER_CENSUS, '{"format": "xml"}', "unknown format 'xml'", id="config-format"),
    pytest.param(["census", "--p", "3,x", "--n", "1", "--family", "prime-power", "--ell", "1", "--c", "0"],
                 None, "--p expects comma-separated integers: '3,x'", id="int-list"),
    pytest.param(["orbits", "--p", "3", "--n", "2", "--family", "prime-power", "--c", "0"],
                 None, "--family prime-power needs --ell", id="orbits-family-without-ell"),
    pytest.param(["census", "--p", "3", "--n", "2", "--family", "raw", "--d", "2", "--c", "+"],
                 None, "--c: cannot parse element '+'", id="census-c-element"),
])
def test_malformed_input_is_a_usage_error(capsys, tmp_path, argv, config, message):
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(config)
        argv = [*argv, "--config", str(path)]
    assert run(capsys, argv) == (2, "", f"error: {message}\n")


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

    @pytest.mark.parametrize("text", ['{"field_cap": null}', '{"jobs": [2]}', '{"out": 5}'])
    def test_wrong_value_type_rejected(self, capsys, tmp_path, text):
        cfg = tmp_path / "run.json"
        cfg.write_text(text)
        code, out, err = run(
            capsys,
            ["census", "--p", "3", "--n", "1", "--family", "prime-power",
             "--ell", "1", "--c", "0", "--config", str(cfg)],
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: config key ")

    def test_bad_cap_values(self, capsys):
        code, _, err = run(
            capsys,
            ["census", "--p", "3", "--n", "1", "--family", "prime-power",
             "--ell", "1", "--c", "0", "--field-cap", "-5"],
        )
        assert code == 2
        assert "caps must be positive" in err

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_jobs_below_one_rejected(self, capsys, tmp_path, source):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"jobs": 0}')
        extra = ["--jobs", "0"] if source == "flag" else ["--config", str(cfg)]
        code, out, err = run(
            capsys,
            ["census", "--p", "3", "--n", "1", "--family", "prime-power",
             "--ell", "1", "--c", "0", *extra],
        )
        assert (code, out, err) == (2, "", "error: --jobs must be at least 1\n")

    @pytest.mark.parametrize("key, default, in_file, on_flag", [
        ("field_cap", ff.DEFAULT_FIELD_CAP, 100, 200),
        ("exp_cap", dynamics.DEFAULT_EXP_CAP, 100, 200),
        ("sieve_cap", ff.DEFAULT_SIEVE_CAP, 100, 200),
        ("out", None, "file.csv", "flag.csv"),
        ("format", None, "json", "csv"),
        ("jobs", 1, 2, 3),
    ])
    def test_setting_is_flag_else_config_else_default(self, monkeypatch, tmp_path, key, default, in_file, on_flag):
        seen = []
        monkeypatch.setattr(cli, "cmd_census", lambda args: seen.append(getattr(args, key)) or 0)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: in_file}))
        argv = ["census", "--p", "3", "--n", "1", "--family", "prime-power", "--ell", "1", "--c", "0"]
        flag = ["--" + key.replace("_", "-"), str(on_flag)]
        for extra in ([], ["--config", str(cfg)], ["--config", str(cfg), *flag]):
            assert main([*argv, *extra]) == 0
        assert seen == [default, in_file, on_flag]


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
        code, out, err = run(capsys, argv + ["--expect", str(tampered)])
        assert code == 3
        assert out == golden.read_text()  # drift still writes the fresh report
        assert "regression:" in err
        assert "C-3.4" in err

    def test_jobs_invariant(self, capsys):
        argv = ["claims", "--p", "3,5", "--n", "1", "--ell", "1"]
        _, serial, _ = run(capsys, argv)
        _, parallel, _ = run(capsys, argv + ["--jobs", "2"])
        assert serial == parallel

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_jobs_invariant_with_skipped_and_not_applicable(self, capsys, fmt):
        argv = ["claims", "--p", "3,5,7", "--n", "1,2,3", "--ell", "1,2",
                "--field-cap", "100", "--format", fmt]
        code, serial, _ = run(capsys, argv)
        assert code == 0
        assert "SKIPPED" in serial and "NOT-APPLICABLE" in serial
        for jobs in ("2", "3"):
            assert run(capsys, argv + ["--jobs", jobs]) == (0, serial, "")

    def test_jobs_invariant_past_the_field_cap(self, capsys):
        # F_3^100000000 is refused by the cap before p^n is formed, with or without --jobs
        argv = ["claims", "--p", "3,5", "--n", "1,100000000", "--ell", "1"]
        code, serial, _ = run(capsys, argv)
        assert code == 0 and "SKIPPED" in serial
        assert run(capsys, argv + ["--jobs", "2"]) == (0, serial, "")

    @pytest.mark.parametrize("golden", ["[1]", '[{"claim": "C-2.1", "grid": [1]}]'])
    def test_expect_entries_must_be_objects(self, capsys, tmp_path, golden):
        path = tmp_path / "golden.json"
        path.write_text(golden)
        code, out, err = run(
            capsys, ["claims", "--p", "3", "--n", "1", "--ell", "1", "--expect", str(path)]
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: --expect entries must be objects")

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param(None, "error: cannot read --expect file", id="missing"),
            pytest.param("[{", "error: cannot read --expect file", id="malformed"),
            pytest.param('{"claim": "C-2.1"}', "error: --expect file must hold a list", id="not-a-list"),
        ],
    )
    def test_bad_expect_file_exits_2_before_the_report(self, capsys, tmp_path, text, message):
        path = tmp_path / "golden.json"
        if text is not None:
            path.write_text(text)
        code, out, err = run(
            capsys, ["claims", "--p", "3", "--n", "1", "--ell", "1", "--expect", str(path)]
        )
        assert (code, out) == (2, "")
        assert err.startswith(message)

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

    def test_unwritable_plot_path_writes_nothing(self, capsys, tmp_path):
        out = tmp_path / "table.csv"
        plot = tmp_path / "missing" / "plot.csv"
        for argv in (["--emit-plot-data", str(plot)], ["--emit-plot-data", str(plot), "--out", str(out)]):
            code, stdout, err = run(capsys, ["density", "--kind", "nc3", "--c", "100", *argv])
            assert (code, stdout) == (2, "")
            assert err.startswith(f"error: cannot write {plot}: ")
            assert not out.exists()

    def test_plot_path_equal_to_out_is_refused(self, capsys, tmp_path):
        out = str(tmp_path / "table.csv")
        code, _, err = run(capsys, ["density", "--kind", "nc3", "--c", "30", "--out", out, "--emit-plot-data", out])
        assert code == 2
        assert err == "error: --emit-plot-data and --out name the same file\n"

    @pytest.mark.parametrize("plot", ["./trend.csv", "link.csv"])
    def test_plot_path_naming_the_out_file_is_refused(self, capsys, tmp_path, monkeypatch, plot):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "trend.csv").write_text("kept\n")
        (tmp_path / "link.csv").symlink_to("trend.csv")
        argv = ["density", "--kind", "nc3", "--c", "100,1000", "--emit-plot-data", plot, "--out", "trend.csv"]
        assert run(capsys, argv) == (2, "", "error: --emit-plot-data and --out name the same file\n")
        assert (tmp_path / "trend.csv").read_text() == "kept\n"

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

    def test_height_is_read_exactly(self, capsys):
        # 2 * floor((1234567/10)^4) + 1; a float height gave ...494209
        code, out, _ = run(capsys, ["nf", "--d", "4", "--height", "123456.7"])
        assert code == 0
        assert json.loads(out) == {"d": 4, "hmax": 123456.7, "count": 464610105844390516269}
        code, out, _ = run(capsys, ["nf", "--d", "3", "--height", "2", "--format", "csv"])
        assert out.splitlines() == ["d,hmax,count", "3,2.0,17"]

    def test_height_count_beyond_the_digit_limit_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
        code, out, err = run(capsys, ["nf", "--d", "20000", "--height", "2"])
        assert (code, out) == (2, "")
        assert err == (
            "error: height count for d = 20000 may exceed the limit (4300 digits)"
            " for integer string conversion\n"
        )
        code, out, _ = run(capsys, ["nf", "--d", "4", "--height", "123456.7"])
        assert code == 0 and json.loads(out)["count"] == 464610105844390516269

    @pytest.mark.parametrize("height", ["inf", "nan", "1e400", "abc"])
    def test_non_finite_height_exits_2(self, capsys, height):
        code, out, err = run(capsys, ["nf", "--d", "3", "--height", height])
        assert (code, out) == (2, "")
        assert err.startswith("error: --height")

    def test_zero_denominator_height_exits_2(self, capsys):
        # Fraction("1/0") raises ZeroDivisionError, not ValueError
        code, out, err = run(capsys, ["nf", "--d", "3", "--height", "1/0"])
        assert (code, out) == (2, "")
        assert err == "error: --height expects a finite number in float range: '1/0'\n"

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

    @pytest.mark.parametrize("d, X, count, unknown, candidates", [
        (3, 10**6, 376, 0, 385), (4, 10**9, 308, 1, 315), (5, 10**12, 262, 2, 267),
    ])
    def test_c_range_rows_tally_to_the_disc_count(self, capsys, d, X, count, unknown, candidates):
        # every c with |disc| < X has |c| <= 200 at these (d, X)
        code, out, _ = run(capsys, ["nf", "--d", str(d), "--c-range=-200:200"])
        assert code == 0
        tally = Counter(row["irreducibility"] for row in json.loads(out) if abs(row["disc"]) < X)
        assert sum(tally.values()) == candidates
        assert (tally["IRREDUCIBLE"], tally["UNKNOWN"]) == (count, unknown)
        code, out, _ = run(capsys, ["nf", "--d", str(d), "--X", str(X)])
        assert code == 0
        row = json.loads(out)
        assert (row["count"], row["unknown"]) == (count, unknown)

    @pytest.mark.parametrize("d, limit, trial_bound", [(3, 300, 10**5), (4, 300, 2), (5, 200, 10), (6, 150, 10**5)])
    def test_c_range_rows_tally_to_the_squarefree_count(self, capsys, d, limit, trial_bound):
        bound = ["--trial-bound", str(trial_bound)]
        code, out, _ = run(capsys, ["nf", "--d", str(d), "--c-range", f"1:{limit}", *bound])
        assert code == 0
        tally = Counter(row["squarefree"] for row in json.loads(out))
        code, out, _ = run(capsys, ["nf", "--d", str(d), "--squarefree", str(limit), *bound])
        assert code == 0
        row = json.loads(out)
        assert (row["squarefree"], row["unknown"]) == (tally["true"], tally["unknown"])
        assert tally["unknown"] or trial_bound == 10**5  # the small bounds leave some unknown

    @pytest.mark.parametrize("d, height, rows", [
        (3, "0.5", 1), (3, "2", 17), (3, "3.7", 101), (2, "10", 201), (4, "2.5", 79), (5, "1.5", 15),
    ])
    def test_c_range_rows_tally_to_the_height_count(self, capsys, d, height, rows):
        # the height count is the c with |c|^(1/d) <= H, so |c| <= N = floor(H^d)
        bound = math.floor(Fraction(height) ** d)
        code, out, _ = run(capsys, ["nf", "--d", str(d), f"--c-range=-{bound}:{bound}"])
        assert code == 0
        assert len(json.loads(out)) == rows
        code, out, _ = run(capsys, ["nf", "--d", str(d), "--height", height])
        assert code == 0
        assert json.loads(out)["count"] == rows

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--X", str(10**40)], f"error: |disc| < {10**40}: c count 38490017945975050967 exceeds the cap 100000000\n"),
            ([f"--c-range=0:{10**12}"], f"error: --c-range 0:{10**12}: c count {10**12 + 1} exceeds the cap 100000000\n"),
            (["--squarefree", "101", "--sieve-cap", "100"], "error: c in [1, 101]: c count 101 exceeds the cap 100\n"),
        ],
    )
    def test_c_ranges_beyond_the_sieve_cap_exit_2_before_any_work(self, capsys, monkeypatch, argv, message):
        def no_work(*args, **kwargs):
            raise AssertionError("work began before the cap check")

        monkeypatch.setattr(nfcount, "closed_form_disc", no_work)
        monkeypatch.setattr(nfcount, "_uncertified", no_work)
        monkeypatch.setattr(nfcount, "_squarefree_by_trial", no_work)
        monkeypatch.setattr(nfcount, "_squarefree_verdicts", no_work)
        assert run(capsys, ["nf", "--d", "3", *argv]) == (2, "", message)

    def test_c_ranges_at_the_sieve_cap_run(self, capsys):
        # the prime lists meet the same cap, so they are kept at or below it
        small = ["--q-max", "10", "--trial-bound", "10", "--sieve-cap", "10"]
        assert run(capsys, ["nf", "--d", "3", "--squarefree", "10", *small])[0] == 0
        assert run(capsys, ["nf", "--d", "3", "--c-range", "0:9", *small])[0] == 0
        assert run(capsys, ["nf", "--d", "3", "--c-range", "0:10", *small])[0] == 2
        # 27 c^2 - 4 < 1000: |c| <= 6
        assert run(capsys, ["nf", "--d", "3", "--X", "1000", "--q-max", "13", "--sieve-cap", "13"])[0] == 0
        assert run(capsys, ["nf", "--d", "3", "--X", "1000", "--q-max", "12", "--sieve-cap", "12"])[0] == 2

    def test_bad_c_range(self, capsys):
        code, _, err = run(capsys, ["nf", "--d", "3", "--c-range", "5"])
        assert code == 2
        code, _, err = run(capsys, ["nf", "--d", "3", "--c-range", "a:b"])
        assert code == 2

    # the largest float, as an int: the last c whose height |c|^(1/d) is a float
    _FLOAT_MAX = int(sys.float_info.max)
    _FLOAT_REFUSAL = f"error: the height |c|^(1/d) needs |c| <= {sys.float_info.max!r}, the largest float\n"
    # d = 20: the digit rule starts to refuse near c = 2^747.13; these two c stand
    # either side of it, each most of a bit of the bound away from a rounding step
    _LAST_C20, _FIRST_C20 = 2**747 + 2**743, 2**747 + 2**744
    _DIGIT_REFUSAL = ("error: discriminant for d = 20 and a {}-bit c may exceed the limit (4300 digits)"
                      " for integer string conversion\n")

    @pytest.mark.skipif(_DIGIT_LIMIT != 4300, reason="the bounds below are for the default digit limit")
    @pytest.mark.parametrize("d, lo, hi, message", [
        pytest.param(3, 10**309, 10**309, _FLOAT_REFUSAL, id="height-10**309"),
        pytest.param(3, _FLOAT_MAX - 1, _FLOAT_MAX + 1, _FLOAT_REFUSAL, id="height-past-the-last-float"),
        pytest.param(3, -_FLOAT_MAX - 1, -_FLOAT_MAX, _FLOAT_REFUSAL, id="height-negative"),
        pytest.param(20, 10**250, 10**250, _DIGIT_REFUSAL.format(831), id="disc-10**250"),
        pytest.param(20, _FIRST_C20, _FIRST_C20, _DIGIT_REFUSAL.format(748), id="disc-past-the-last-c"),
    ])
    def test_c_range_past_the_printable_row_exits_2_before_any_row(self, capsys, monkeypatch, d, lo, hi, message):
        def no_work(*args, **kwargs):
            raise AssertionError("a row was computed before the refusal")

        monkeypatch.setattr(nfcount, "_uncertified", no_work)
        monkeypatch.setattr(nfcount, "_squarefree_verdicts", no_work)
        assert run(capsys, ["nf", "--d", str(d), "--c-range", f"{lo}:{hi}"]) == (2, "", message)

    @pytest.mark.skipif(_DIGIT_LIMIT != 4300, reason="the bounds below are for the default digit limit")
    @pytest.mark.parametrize("d, c", [(3, _FLOAT_MAX), (3, -_FLOAT_MAX), (20, _LAST_C20)],
                             ids=["last-float", "last-negative-float", "last-printable-disc"])
    def test_c_range_at_the_last_accepted_c_runs(self, capsys, d, c):
        code, out, err = run(capsys, ["nf", "--d", str(d), "--c-range", f"{c}:{c}"])
        assert (code, err) == (0, "")
        (row,) = json.loads(out)
        assert (row["c"], row["disc"]) == (c, nfcount.closed_form_disc(d, c))
        assert row["height"] == f"{abs(c) ** (1.0 / d):.6f}"


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

    def test_bad_element_string_names_flag_and_term(self, capsys):
        assert run(capsys, ["orbits", "--p", "3", "--n", "2", "--d", "2", "--c", "t^"]) == (
            2, "", "error: --c: cannot parse term 't^' of element 't^'\n"
        )
