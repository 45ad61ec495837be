"""Command-line front end: deterministic CSV/JSON emission of all censuses.

Exit codes: 0 success (claim FAILS verdicts are data, not errors), 2 usage
errors, the library's ArgumentError and cap violations, 3 when --expect
pins verdicts and the fresh run differs.  Any other exception is a fault
and propagates.  Identical invocations produce byte-identical output:
every grid runs serially in this process, --jobs is accepted and checked
but changes nothing, and the records are fully sorted before the one
writer, _write, emits them.  _output renders them in the one format
printed: CSV through csv.writer, or JSON byte for byte as
json.dumps(value, indent=2) writes it, with every string escaped by the
C encode_basestring_ascii.  A destination that cannot be opened is a
usage error that leaves no output anywhere.

A command imports only what it runs, in the functions that use it (csv
to write its format, json only to read a file), and looks library
functions up on their modules at call time, where bench/tracer.py wraps
them.  Each command's arguments are declared once, in its adder: a plain
command line (exact long flags with values that pass) is parsed from them
by _parse_plain, without argparse; any other (help, abbreviations, usage
errors) goes to argparse, imported then, where only the command named gets
parser arguments.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

from . import dynamics
from .dynamics import DEFAULT_EXP_CAP, Family
from .ff import DEFAULT_FIELD_CAP, DEFAULT_SIEVE_CAP, ArgumentError, CapError, standard_field

if TYPE_CHECKING:
    import argparse

__all__ = ["RunConfig", "main"]


class UsageError(ValueError):
    pass


class RunConfig(NamedTuple):
    field_cap: int = DEFAULT_FIELD_CAP
    exp_cap: int = DEFAULT_EXP_CAP
    sieve_cap: int = DEFAULT_SIEVE_CAP
    out: str | None = None
    format: str | None = None
    jobs: int = 1


_CONFIG_TYPES = {
    "field_cap": int, "exp_cap": int, "sieve_cap": int, "out": str, "format": str, "jobs": int,
}


def _read_json(path: str, what: str):
    """The JSON value in a user's file; one that cannot be read is a usage error."""
    import json

    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, bad UTF-8, an int past the digit limit
        raise UsageError(f"cannot read {what} {path}: {exc}") from exc


def _load_config(path: str) -> dict:
    data = _read_json(path, "config")
    if not isinstance(data, dict):
        raise UsageError("config must be a JSON object")
    unknown = set(data) - set(_CONFIG_TYPES)
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    for key, value in data.items():
        kind = _CONFIG_TYPES[key]
        if not isinstance(value, kind) or isinstance(value, bool):
            raise UsageError(f"config key {key} must be a JSON {'integer' if kind is int else 'string'}")
    return data


def _resolve_config(args: SimpleNamespace) -> RunConfig:
    """Flags over the --config file over the RunConfig defaults."""
    file_values = _load_config(args.config) if args.config else {}
    flags = {key: value for key, value in vars(args).items() if key in _CONFIG_TYPES and value is not None}
    cfg = RunConfig(**{**file_values, **flags})
    if cfg.field_cap <= 0 or cfg.exp_cap <= 0 or cfg.sieve_cap <= 0:
        raise UsageError("caps must be positive")
    if cfg.jobs < 1:
        raise UsageError("--jobs must be at least 1")
    if cfg.format is not None and cfg.format not in ("csv", "json"):
        raise UsageError(f"unknown format {cfg.format!r}")
    return cfg


def _cell(value):
    """The CSV cell rule for the values csv.writer would not write as meant:
    a Fraction to six decimals, a list joined by ';'; any other value as it is.

    Rows apply it only where such a value can stand; csv.writer writes None
    as an empty cell.  JSON never sees this rule; it keeps exact rationals
    as "a/b" strings (the records' as_dict), so values that only look like
    fractions are formatted strings before they reach either format.
    """
    fractions = sys.modules.get("fractions")  # no Fraction exists before it is loaded
    if fractions and isinstance(value, fractions.Fraction):
        return f"{value.numerator / value.denominator:.6f}"
    if isinstance(value, list):
        return ";".join(map(str, value))
    return value


def _json_scalar(x) -> str:
    """None, a bool, an int or a float as json.dumps writes it; else TypeError."""
    if x is None:
        return "null"
    if x is True or x is False:
        return "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        if x != x:
            return "NaN"
        if x in (float("inf"), -float("inf")):
            return "Infinity" if x > 0 else "-Infinity"
        return float.__repr__(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _json(value) -> str:
    """json.dumps(value, indent=2), byte for byte, with the per-value work in C.

    The stdlib encodes in C only without indent.  Here every str goes
    through the C encode_basestring_ascii and every int through
    int.__repr__: a dict writes its str and int values in its own loop, and
    a list of only ints is one join.  A value json cannot encode raises
    TypeError, as json.dumps does.  The escaper is taken from _json, the C
    module that json.encoder re-exports it from, so the json package is
    never loaded.
    """
    from _json import encode_basestring_ascii as quote

    chunks: list[str] = []
    put = chunks.append

    def write(x, newline: str) -> None:
        # a subclass of a JSON type is written as its base, as json.dumps
        # writes it; a dict key that is not a str is its scalar text, quoted
        if isinstance(x, dict):
            if not x:
                put("{}")
                return
            inner = newline + "  "
            sep, more = "{" + inner, "," + inner
            for k, v in x.items():
                head = sep + quote(k if isinstance(k, str) else _json_scalar(k)) + ": "
                kind = type(v)
                if kind is str:
                    put(head + quote(v))
                elif kind is int:
                    put(head + int.__repr__(v))
                else:
                    put(head)
                    write(v, inner)
                sep = more
            put(newline + "}")
        elif isinstance(x, (list, tuple)):
            if not x:
                put("[]")
                return
            inner = newline + "  "
            sep, more = "[" + inner, "," + inner
            kinds = set(map(type, x))
            if kinds == {int}:
                put(sep + more.join(map(int.__repr__, x)))
            else:
                for v in x:
                    put(sep)
                    write(v, inner)
                    sep = more
            put(newline + "]")
        elif isinstance(x, str):
            put(quote(x))
        else:
            put(_json_scalar(x))

    write(value, "\n")
    return "".join(chunks)


def _output(
    cfg: RunConfig, default_format: str, columns: Sequence[str], rows: Callable[[], Iterable], payload: Callable | None
) -> tuple[str | None, str]:
    """(cfg.out, text): CSV of columns over rows(), or JSON of payload().

    Only the format printed is built.  rows() returns sequences in column
    order whose cells csv.writer writes as they are (a Fraction or a list
    goes through _cell first); payload() returns the JSON value, written
    with indent 2 and ASCII escapes, as json.dumps(value, indent=2) writes
    it.  A caller that fixes the format to CSV passes no payload.
    """
    if (cfg.format or default_format) == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows())
        return cfg.out, buf.getvalue()
    return cfg.out, _json(payload()) + "\n"


def _open(path: str):
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _write(*outputs: tuple[str | None, str]) -> None:
    """The one writer: each (path, text) to its file, or to stdout for no path.

    Every file is opened before any text is written, so one that cannot be
    opened stops the command before the others receive anything.
    """
    with contextlib.ExitStack() as stack:
        sinks = [stack.enter_context(_open(path)) if path else sys.stdout for path, _ in outputs]
        for sink, (_, text) in zip(sinks, outputs):
            sink.write(text)


def _coefficient(fs, text: str):
    """A --c coefficient: an integer, or an element string like 2*t+1."""
    try:
        return fs.parse(text)
    except ArgumentError as exc:
        raise UsageError(f"--c: {exc}") from exc


def _parse_int_list(text: str, flag: str) -> list[int]:
    if text.strip() == "":
        return []
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"{flag} expects comma-separated integers: {text!r}") from exc


# ---------------------------------------------------------------------------
# census

def _census_point(
    p: int, n: int, family: Family, k: int, c_spec: tuple, *, field_cap: int, exp_cap: int
) -> list[dynamics.CensusRecord]:
    d = dynamics.capped_degree(p, n, family, k, field_cap=field_cap, exp_cap=exp_cap)
    fs = standard_field(p, n)
    coefficients = None if c_spec == ("all",) else [_coefficient(fs, item) for item in c_spec]
    if coefficients == []:
        return []
    profile = dynamics.count_profile(fs, d, field_cap=field_cap, exp_cap=exp_cap)
    if coefficients is None:  # every element, rendered only once the caps have passed
        rows = enumerate(fs.element_strings())
    else:
        rows = ((c.index, str(c)) for c in coefficients)
    ell = None if family is Family.RAW else k
    return [
        dynamics.CensusRecord(p, n, ell, family.value, dynamics.classify_residue(p, i), text, profile[i])
        for i, text in rows
    ]


def cmd_census(args: SimpleNamespace, cfg: RunConfig) -> int:
    p_list = _parse_int_list(args.p, "--p")
    n_list = _parse_int_list(args.n, "--n")
    family = Family(args.family)
    flag, unread = ("d", "ell") if family is Family.RAW else ("ell", "d")
    text = getattr(args, flag)
    if text is None:
        raise UsageError(f"--family {family} needs --{flag}")
    if getattr(args, unread) is not None:
        raise UsageError(f"--family {family} takes no --{unread}")
    k_list = _parse_int_list(text, f"--{flag}")  # ell, or d for raw
    if args.c.strip() == "all":
        c_spec = ("all",)
    else:
        c_spec = tuple(part for part in args.c.split(",") if part.strip() != "")

    records = [
        rec
        for p in p_list
        for n in n_list
        for k in k_list
        for rec in _census_point(p, n, family, k, c_spec, field_cap=cfg.field_cap, exp_cap=cfg.exp_cap)
    ]
    records.sort(key=lambda r: (r.p, r.n, r.ell if r.ell is not None else 0, r.c_repr))
    # a record's fields are the CSV columns, so the records are the rows
    _write(_output(cfg, "csv", dynamics.CensusRecord._fields, lambda: records,
                   lambda: [r._asdict() for r in records]))
    return 0


# ---------------------------------------------------------------------------
# claims

def cmd_claims(args: SimpleNamespace, cfg: RunConfig) -> int:
    from . import claims

    p_list = _parse_int_list(args.p, "--p")
    n_list = _parse_int_list(args.n, "--n")
    ell_list = _parse_int_list(args.ell, "--ell")
    grid = [(p, n, ell) for p in p_list for n in n_list for ell in ell_list]
    pinned = _load_expect(args.expect) if args.expect else None
    reports = claims.check_all(grid, field_cap=cfg.field_cap, exp_cap=cfg.exp_cap)
    columns = ["claim", "p", "n", "ell", "status", "c", "predicted", "actual"]

    def rows():
        # one row per witness (csv.writer writes its element c with str, as
        # Witness.as_dict does), or one row with empty witness cells per point
        return [
            (rep.claim.id, pt.p, pt.n, pt.ell, pt.status.value, *w)
            for rep in reports
            for pt in rep.points
            for w in pt.witnesses or [(None, None, None)]
        ]

    _write(_output(cfg, "json", columns, rows, lambda: [rep.as_dict() for rep in reports]))

    if pinned is not None:
        mismatches = _compare_verdicts(pinned, reports)
        if mismatches:
            for line in mismatches:
                print(line, file=sys.stderr)
            return 3
    return 0


def _load_expect(path: str) -> dict:
    """The verdicts an --expect file pins, keyed (claim, p, n, ell); read
    before any work, so a bad file stops the command before any output."""
    golden = _read_json(path, "--expect file")
    if not isinstance(golden, list):
        raise UsageError("--expect file must hold a list of claim reports")
    try:  # the file is user data: a non-object entry or point is a usage error
        return {
            (entry.get("claim"), pt.get("p"), pt.get("n"), pt.get("ell")): pt.get("status")
            for entry in golden
            for pt in entry.get("grid", [])
        }
    except (AttributeError, TypeError) as exc:
        raise UsageError(f"--expect entries must be objects with a grid of objects: {exc}") from exc


def _compare_verdicts(pinned: dict, reports: list) -> list[str]:
    """Mismatch descriptions between pinned verdicts and fresh reports."""
    fresh = {
        (rep.claim.id, pt.p, pt.n, pt.ell): pt.status.value
        for rep in reports
        for pt in rep.points
    }
    lines = []
    for key in sorted(set(fresh) | set(pinned), key=str):
        a, b = pinned.get(key), fresh.get(key)
        if a != b:
            lines.append(f"regression: {key}: pinned {a}, fresh {b}")
    return lines


# ---------------------------------------------------------------------------
# avg / density

def cmd_avg(args: SimpleNamespace, cfg: RunConfig) -> int:
    from . import stats

    family = Family(args.family)
    selector = stats.Selector(args.selector)
    c_list = _parse_int_list(args.c, "--c")
    rows = stats.average_report(
        family,
        args.n,
        args.ell,
        selector,
        c_list,
        field_cap=cfg.field_cap,
        exp_cap=cfg.exp_cap,
        sieve_cap=cfg.sieve_cap,
    )
    _write_ratios(args, cfg, ["c", "selector", "numerator", "denominator", "ratio"], rows)
    return 0


def cmd_density(args: SimpleNamespace, cfg: RunConfig) -> int:
    from . import stats

    kind = stats.DensityKind(args.kind)
    c_list = _parse_int_list(args.c, "--c")
    rows = stats.density_table(kind, c_list=c_list, sieve_cap=cfg.sieve_cap)
    _write_ratios(args, cfg, ["c", "kind", "numerator", "denominator", "ratio"], rows)
    return 0


def _write_ratios(args: SimpleNamespace, cfg: RunConfig, columns: list[str], rows: list) -> None:
    """avg/density rows (exact ratio in JSON), and the --emit-plot-data c,ratio CSV.

    Two names for one file (./x and x, a symlink) are refused before either
    is opened; the plot file is opened first, so a bad plot path leaves
    --out untouched.
    """
    plot = args.emit_plot_data
    if plot and cfg.out and os.path.realpath(plot) == os.path.realpath(cfg.out):
        raise UsageError("--emit-plot-data and --out name the same file")

    def cells(names: list[str]):  # CSV rows of the named fields, the ratio to six decimals
        return lambda: [[_cell(getattr(r, k)) for k in names] for r in rows]

    outputs = [_output(cfg, "csv", columns, cells(columns), lambda: [r.as_dict() for r in rows])]
    if plot:
        plot_cfg = cfg._replace(out=plot, format="csv")
        outputs.insert(0, _output(plot_cfg, "csv", ["c", "ratio"], cells(["c", "ratio"]), None))
    _write(*outputs)


# ---------------------------------------------------------------------------
# nf

def cmd_nf(args: SimpleNamespace, cfg: RunConfig) -> int:
    from fractions import Fraction

    from . import nfcount, stats

    chosen = [v is not None for v in (args.X, args.height, args.squarefree, args.c_range)]
    if sum(chosen) != 1:
        raise UsageError("nf needs exactly one of --X, --height, --squarefree, --c-range")
    dynamics.check_degree(args.d, cfg.exp_cap)  # every mode, an empty --c-range too
    payload = None  # every mode but --c-range has one result: JSON is one object
    caps = {"exp_cap": cfg.exp_cap, "sieve_cap": cfg.sieve_cap}
    if args.X is not None:
        payload = nfcount.count_by_disc(args.d, args.X, q_max=args.q_max, **caps).as_dict()
        rows, columns = [payload], ["d", "X", "count", "unknown", "exponent_ref", "bound_ok"]
    elif args.height is not None:
        try:
            hmax = Fraction(args.height)
            shown = float(hmax)
        except (ValueError, OverflowError, ZeroDivisionError) as exc:  # inf, nan, junk, 1/0, beyond float range
            raise UsageError(f"--height expects a finite number in float range: {args.height!r}") from exc
        count = nfcount.count_by_height(args.d, hmax, exp_cap=cfg.exp_cap)
        payload = {"d": args.d, "hmax": shown, "count": count}
        rows, columns = [payload], ["d", "hmax", "count"]
    elif args.squarefree is not None:
        report = nfcount.squarefree_disc_fraction(
            args.d, args.squarefree, trial_bound=args.trial_bound, **caps
        )
        payload = report.as_dict()
        rows = [{**payload, "fraction": report.fraction}]
        columns = ["d", "limit", "squarefree", "unknown", "fraction", "reference"]
    else:
        lo, sep, hi = args.c_range.partition(":")
        if not sep:
            raise UsageError("--c-range expects LO:HI")
        try:
            c_lo, c_hi = int(lo), int(hi)
        except ValueError as exc:
            raise UsageError(f"--c-range expects integers: {args.c_range!r}") from exc
        stats.check_sieve_cap(c_hi - c_lo + 1, cfg.sieve_cap, f"--c-range {args.c_range}: c count")
        if c_lo <= c_hi:  # the largest |c| is an end: refuse the range before any row
            nfcount._check_c(args.d, max(c_lo, c_hi, key=abs))
        rows = []
        for c in range(c_lo, c_hi + 1):
            row = nfcount.trinomial_row(
                args.d, c, q_max=args.q_max, trial_bound=args.trial_bound, **caps
            )
            rows.append({**row, "height": f"{row['height']:.6f}"})
        columns = ["d", "c", "disc", "height", "irreducibility", "squarefree"]
    _write(_output(cfg, "json", columns, lambda: [[_cell(row[k]) for k in columns] for row in rows],
                   lambda: rows if payload is None else payload))
    return 0


# ---------------------------------------------------------------------------
# orbits

def cmd_orbits(args: SimpleNamespace, cfg: RunConfig) -> int:
    if args.d is not None:
        if args.family is not None or args.ell is not None:
            raise UsageError("orbits takes --d or --family with --ell, not both")
        family, k = Family.RAW, args.d
    elif args.family is None:
        raise UsageError("orbits needs --d or --family with --ell")
    elif args.ell is None:
        raise UsageError(f"--family {args.family} needs --ell")
    else:
        family, k = Family(args.family), args.ell
    d = dynamics.capped_degree(args.p, args.n, family, k, field_cap=cfg.field_cap, exp_cap=cfg.exp_cap)
    fs = standard_field(args.p, args.n)
    c = _coefficient(fs, args.c)
    census = dynamics.orbit_census(fs, d, c, field_cap=cfg.field_cap, exp_cap=cfg.exp_cap)
    result = {"field": fs.as_dict(), "d": d, "c": str(c), **census.as_dict()}
    rows = [{"p": fs.p, "n": fs.n, **result}]
    columns = ["p", "n", "d", "c", "components", "cycle_lengths", "fixed_points", "max_tail"]
    _write(_output(cfg, "json", columns, lambda: [[_cell(row[k]) for k in columns] for row in rows],
                   lambda: result))
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_common(sub: argparse.ArgumentParser | _Flags) -> None:
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--format", choices=["csv", "json"], default=None)
    sub.add_argument("--jobs", type=int, default=None,
                     help="accepted for compatibility; every grid runs serially")
    sub.add_argument("--field-cap", dest="field_cap", type=int, default=None,
                     help=f"max field order p^n scanned (default {DEFAULT_FIELD_CAP})")
    sub.add_argument("--exp-cap", dest="exp_cap", type=int, default=None,
                     help=f"max map degree d (default {DEFAULT_EXP_CAP})")
    sub.add_argument("--sieve-cap", dest="sieve_cap", type=int, default=None,
                     help=f"max prime-sieve limit (nf's --q-max and --trial-bound too) and max count of c"
                          f" nf enumerates (default {DEFAULT_SIEVE_CAP})")
    sub.add_argument("--config", default=None, help="JSON config file; flags override it")


def _census_args(sub: argparse.ArgumentParser | _Flags) -> None:
    sub.add_argument("--p", required=True, help="comma list of primes")
    sub.add_argument("--n", required=True, help="comma list of extension degrees")
    sub.add_argument("--ell", default=None, help="comma list of exponents ell")
    sub.add_argument("--d", default=None, help="comma list of raw degrees (family raw)")
    sub.add_argument("--family", choices=["prime-power", "pminus1", "raw"], required=True)
    sub.add_argument("--c", default="all", help='"all", or comma list of integers/element strings')


def _claims_args(sub: argparse.ArgumentParser | _Flags) -> None:
    sub.add_argument("--p", required=True)
    sub.add_argument("--n", required=True)
    sub.add_argument("--ell", required=True)
    sub.add_argument("--expect", default=None, help="golden report JSON; exit 3 on verdict drift")


def _avg_args(sub: argparse.ArgumentParser | _Flags) -> None:
    from .stats import Selector

    sub.add_argument("--family", choices=["prime-power", "pminus1"], required=True)
    sub.add_argument("--n", type=int, default=1)
    sub.add_argument("--ell", type=int, default=1)
    sub.add_argument("--selector", choices=[s.value for s in Selector], required=True)
    sub.add_argument("--c", required=True, help="comma list of bounds")
    sub.add_argument("--emit-plot-data", dest="emit_plot_data", default=None,
                     help="also write c,ratio pairs to this path")


def _density_args(sub: argparse.ArgumentParser | _Flags) -> None:
    from .stats import DensityKind

    sub.add_argument("--kind", choices=[k.value for k in DensityKind], required=True)
    sub.add_argument("--c", required=True, help="comma list of bounds")
    sub.add_argument("--emit-plot-data", dest="emit_plot_data", default=None,
                     help="also write c,ratio pairs to this path")


def _nf_args(sub: argparse.ArgumentParser | _Flags) -> None:
    from .nfcount import DEFAULT_Q_MAX, DEFAULT_TRIAL_BOUND

    sub.add_argument("--d", type=int, required=True)
    sub.add_argument("--X", type=int, default=None, help="count |disc| < X")
    sub.add_argument("--height", default=None, help="count height <= Hmax")
    sub.add_argument("--squarefree", type=int, default=None,
                     help="squarefree |disc| fraction over c in [1, C]")
    sub.add_argument("--c-range", dest="c_range", default=None, help="LO:HI per-trinomial table")
    sub.add_argument("--q-max", dest="q_max", type=int, default=DEFAULT_Q_MAX)
    sub.add_argument("--trial-bound", dest="trial_bound", type=int, default=DEFAULT_TRIAL_BOUND)


def _orbits_args(sub: argparse.ArgumentParser | _Flags) -> None:
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--family", choices=["prime-power", "pminus1"], default=None)
    sub.add_argument("--ell", type=int, default=None)
    sub.add_argument("--d", type=int, default=None, help="raw degree")
    sub.add_argument("--c", required=True, help="integer or element string")


def _commands() -> list[tuple[str, str, Callable, Callable]]:
    """(name, help, adder of its own arguments, command), in --help order.  The
    commands are read at parse time, so a function patched onto cli is run."""
    return [
        ("census", "fixed-point counts over a parameter grid", _census_args, cmd_census),
        ("claims", "check every registered claim over a grid", _claims_args, cmd_claims),
        ("avg", "average oracle counts over qualifying primes", _avg_args, cmd_avg),
        ("density", "prime densities of the count classes", _density_args, cmd_density),
        ("nf", "trinomial discriminant and height counting", _nf_args, cmd_nf),
        ("orbits", "functional-graph census of one map", _orbits_args, cmd_orbits),
    ]


class _Flags(dict):
    """Stands in for a command's parser in its adders: flag -> add_argument keywords."""

    def add_argument(self, flag: str, **spec) -> None:
        self[flag] = spec


def _parse_plain(argv: list[str]) -> SimpleNamespace | None:
    """The attributes build_parser(argv[0]).parse_args(argv) returns, for a
    plain argv; None for any other.

    Plain is a command name, then distinct exact long flags of that command,
    each --flag=value or --flag value with a spaced value not starting with
    "-", every value passing its flag's type and choices, and every required
    flag given.  A value "--" is not plain: some argparse versions (3.11
    among them) drop it.
    Help, abbreviations, repeats, unknown tokens and bad values are left to
    argparse, the one author of help text and usage errors.
    """
    command = {name: (add_args, func) for name, _, add_args, func in _commands()}.get(argv[0] if argv else "")
    if command is None:
        return None
    add_args, func = command
    flags = _Flags()
    add_args(flags)
    _add_common(flags)
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        if not eq:
            value = next(tokens, "-")  # a flag with no value is not plain
            if value.startswith("-"):
                return None
        spec = flags.get(flag)
        if spec is None or flag in values or value == "--":
            return None
        try:
            value = spec.get("type", str)(value)
        except (TypeError, ValueError):
            return None
        if value not in spec.get("choices", [value]):
            return None
        values[flag] = value
    args = {"command": argv[0], "func": func}
    for flag, spec in flags.items():
        if flag in values:
            value = values[flag]
        elif spec.get("required"):
            return None
        else:  # argparse passes a str default through the flag's type
            value = spec.get("default")
            if isinstance(value, str):
                value = spec.get("type", str)(value)
        args[spec.get("dest", flag[2:].replace("-", "_"))] = value
    return SimpleNamespace(**args)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The fixcensus parser.  Every command is registered, so --help is whole, but
    only command (every one for None) gets its arguments and their imports."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="fixcensus",
        description="Exact fixed-point censuses of z -> z^d + c over finite fields",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text, add_args, func in _commands():
        sub = subs.add_parser(name, help=help_text)
        if command in (None, name):
            add_args(sub)
            _add_common(sub)
            sub.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for k in range(len(argv) - 1, 0, -1):  # argparse takes "-5:5", "-1,2" or "-t" for a flag
        if argv[k - 1] in ("--c", "--c-range") and re.match(r"-[^-]", argv[k]):
            argv[k - 1 : k + 1] = [f"{argv[k - 1]}={argv[k]}"]
    args = _parse_plain(argv)
    if args is None:
        # the top level has no option with a value: its first non-option is the command
        command = next((arg for arg in argv if not arg.startswith("-")), "")
        args = SimpleNamespace(**vars(build_parser(command).parse_args(argv)))
    try:
        cfg = _resolve_config(args)
        return args.func(args, cfg)
    except (UsageError, ArgumentError, CapError) as exc:  # any other error is a fault, not a usage error
        print(f"error: {exc}", file=sys.stderr)
        return 2
