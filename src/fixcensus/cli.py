"""Command-line front end: deterministic CSV/JSON emission of all censuses.

Exit codes: 0 success (claim FAILS verdicts are data, not errors), 2 usage
or cap violations, 3 when --expect pins verdicts and the fresh run differs.
Identical invocations produce byte-identical output; --jobs changes wall
time only, because records are fully sorted before a single writer emits
them.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from . import claims, dynamics, nfcount, stats
from .dynamics import DEFAULT_EXP_CAP, Family, MapSpec
from .ff import DEFAULT_FIELD_CAP, CapError, standard_field
from .stats import DEFAULT_SIEVE_CAP, DensityKind, Selector

__all__ = ["RunConfig", "main"]


class UsageError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    field_cap: int = DEFAULT_FIELD_CAP
    exp_cap: int = DEFAULT_EXP_CAP
    sieve_cap: int = DEFAULT_SIEVE_CAP
    out: str | None = None
    format: str | None = None
    jobs: int = 1


_CONFIG_KEYS = {"field_cap", "exp_cap", "sieve_cap", "out", "format", "jobs"}


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("config must be a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return data


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    file_values = _load_config(args.config) if args.config else {}

    def pick(flag_value, key, default):
        if flag_value is not None:
            return flag_value
        if key in file_values:
            return file_values[key]
        return default

    cfg = RunConfig(
        field_cap=int(pick(args.field_cap, "field_cap", DEFAULT_FIELD_CAP)),
        exp_cap=int(pick(args.exp_cap, "exp_cap", DEFAULT_EXP_CAP)),
        sieve_cap=int(pick(args.sieve_cap, "sieve_cap", DEFAULT_SIEVE_CAP)),
        out=pick(args.out, "out", None),
        format=pick(args.format, "format", None),
        jobs=int(pick(args.jobs, "jobs", 1)),
    )
    if cfg.field_cap <= 0 or cfg.exp_cap <= 0 or cfg.sieve_cap <= 0:
        raise UsageError("caps must be positive")
    if cfg.jobs < 1:
        raise UsageError("--jobs must be at least 1")
    if cfg.format is not None and cfg.format not in ("csv", "json"):
        raise UsageError(f"unknown format {cfg.format!r}")
    return cfg


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _ratio_cell(ratio: Fraction | None) -> str:
    if ratio is None:
        return ""
    return f"{ratio.numerator / ratio.denominator:.6f}"


def _parse_int_list(text: str, flag: str) -> list[int]:
    if text.strip() == "":
        return []
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"{flag} expects comma-separated integers: {text!r}") from exc


# ---------------------------------------------------------------------------
# census

def _census_point(task: tuple) -> list[dynamics.CensusRecord]:
    p, n, ell, family_value, d_raw, c_spec, field_cap, exp_cap = task
    fs = standard_field(p, n)
    family = Family(family_value)
    if family is Family.PRIME_POWER:
        build = lambda c: MapSpec.prime_power(p, ell, c)  # noqa: E731
    elif family is Family.P_MINUS_ONE:
        build = lambda c: MapSpec.p_minus_one(p, ell, c)  # noqa: E731
    else:
        build = lambda c: MapSpec.raw(d_raw, c)  # noqa: E731
    if c_spec == ("all",):
        coefficients = list(fs.elements())
    else:
        coefficients = []
        for item in c_spec:
            try:
                coefficients.append(fs.from_int(int(item)))
            except ValueError:
                coefficients.append(fs.parse(item))
    return [
        dynamics.census_record(fs, build(c), field_cap=field_cap, exp_cap=exp_cap)
        for c in coefficients
    ]


def cmd_census(args: argparse.Namespace, cfg: RunConfig) -> int:
    p_list = _parse_int_list(args.p, "--p")
    n_list = _parse_int_list(args.n, "--n")
    family = Family(args.family)
    if family is Family.RAW:
        if args.d is None:
            raise UsageError("--family raw needs --d")
        d_list = _parse_int_list(args.d, "--d")
        ell_list = [None]
    else:
        if args.ell is None:
            raise UsageError(f"--family {family} needs --ell")
        d_list = [None]
        ell_list = _parse_int_list(args.ell, "--ell")
    if args.c.strip() == "all":
        c_spec = ("all",)
    else:
        c_spec = tuple(part for part in args.c.split(",") if part.strip() != "")

    tasks = []
    for p in p_list:
        for n in n_list:
            for ell in ell_list:
                for d in d_list:
                    tasks.append(
                        (p, n, ell, family.value, d, c_spec, cfg.field_cap, cfg.exp_cap)
                    )
    if cfg.jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            chunks = list(pool.map(_census_point, tasks))
    else:
        chunks = [_census_point(t) for t in tasks]
    records = [rec for chunk in chunks for rec in chunk]
    records.sort(key=lambda r: (r.p, r.n, r.ell if r.ell is not None else 0, r.c_repr))

    if (cfg.format or "csv") == "csv":
        header = ["p", "n", "ell", "family", "c_class", "c_repr", "fixed_count"]
        rows = [
            [r.p, r.n, "" if r.ell is None else r.ell, r.family, r.c_class, r.c_repr, r.fixed_count]
            for r in records
        ]
        _emit(cfg, _csv_text(header, rows))
    else:
        _emit(
            cfg,
            _json_text(
                [
                    {
                        "p": r.p,
                        "n": r.n,
                        "ell": r.ell,
                        "family": r.family,
                        "c_class": r.c_class,
                        "c_repr": r.c_repr,
                        "fixed_count": r.fixed_count,
                    }
                    for r in records
                ]
            ),
        )
    return 0


# ---------------------------------------------------------------------------
# claims

def _claims_point(task: tuple) -> tuple[str, claims.PointResult]:
    claim_id, p, n, ell, field_cap, exp_cap = task
    spec = claims.claim_by_id(claim_id)
    result = claims.check_point(spec, p, n, ell, field_cap=field_cap, exp_cap=exp_cap)
    return claim_id, result


def cmd_claims(args: argparse.Namespace, cfg: RunConfig) -> int:
    p_list = _parse_int_list(args.p, "--p")
    n_list = _parse_int_list(args.n, "--n")
    ell_list = _parse_int_list(args.ell, "--ell")
    grid = [(p, n, ell) for p in p_list for n in n_list for ell in ell_list]

    if cfg.jobs > 1 and len(grid) > 1:
        tasks = [
            (spec.id, p, n, ell, cfg.field_cap, cfg.exp_cap)
            for spec in claims.registry()
            for (p, n, ell) in grid
        ]
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(_claims_point, tasks))
        by_claim: dict[str, list[claims.PointResult]] = {}
        for claim_id, result in results:
            by_claim.setdefault(claim_id, []).append(result)
        reports = [
            claims.ClaimReport(spec, tuple(by_claim.get(spec.id, ())))
            for spec in claims.registry()
        ]
    else:
        reports = claims.check_all(grid, field_cap=cfg.field_cap, exp_cap=cfg.exp_cap)

    if (cfg.format or "json") == "json":
        _emit(cfg, _json_text([rep.as_dict() for rep in reports]))
    else:
        header = ["claim", "p", "n", "ell", "status", "c", "predicted", "actual"]
        rows = []
        for rep in reports:
            for pt in rep.points:
                if pt.witnesses:
                    for w in pt.witnesses:
                        rows.append(
                            [rep.claim.id, pt.p, pt.n, pt.ell, pt.status.value, str(w.c), w.predicted, w.actual]
                        )
                else:
                    rows.append([rep.claim.id, pt.p, pt.n, pt.ell, pt.status.value, "", "", ""])
        _emit(cfg, _csv_text(header, rows))

    if args.expect:
        try:
            with open(args.expect, encoding="utf-8") as fh:
                golden = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read --expect file {args.expect}: {exc}") from exc
        mismatches = _compare_verdicts(golden, reports)
        if mismatches:
            for line in mismatches:
                print(line, file=sys.stderr)
            return 3
    return 0


def _compare_verdicts(golden, reports: list[claims.ClaimReport]) -> list[str]:
    """Mismatch descriptions between pinned verdicts and fresh reports."""
    if not isinstance(golden, list):
        raise UsageError("--expect file must hold a list of claim reports")
    fresh = {
        (rep.claim.id, pt.p, pt.n, pt.ell): pt.status.value
        for rep in reports
        for pt in rep.points
    }
    pinned = {}
    for entry in golden:
        claim_id = entry.get("claim")
        for pt in entry.get("grid", []):
            pinned[(claim_id, pt.get("p"), pt.get("n"), pt.get("ell"))] = pt.get("status")
    lines = []
    for key in sorted(set(fresh) | set(pinned), key=str):
        a, b = pinned.get(key), fresh.get(key)
        if a != b:
            lines.append(f"regression: {key}: pinned {a}, fresh {b}")
    return lines


# ---------------------------------------------------------------------------
# avg / density

def cmd_avg(args: argparse.Namespace, cfg: RunConfig) -> int:
    family = Family(args.family)
    selector = Selector(args.selector)
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
    if (cfg.format or "csv") == "csv":
        header = ["c", "selector", "numerator", "denominator", "ratio"]
        table = [
            [r.c, r.selector.value, r.numerator, r.denominator, _ratio_cell(r.ratio)]
            for r in rows
        ]
        _emit(cfg, _csv_text(header, table))
    else:
        _emit(cfg, _json_text([r.as_dict() for r in rows]))
    if args.emit_plot_data:
        _write_plot_data(args.emit_plot_data, [(r.c, r.ratio) for r in rows])
    return 0


def cmd_density(args: argparse.Namespace, cfg: RunConfig) -> int:
    kind = DensityKind(args.kind)
    c_list = _parse_int_list(args.c, "--c")
    rows = stats.density_table(kind, c_list=c_list, sieve_cap=cfg.sieve_cap)
    if (cfg.format or "csv") == "csv":
        header = ["c", "kind", "numerator", "denominator", "ratio"]
        table = [
            [r.c, r.kind.value, r.numerator, r.denominator, _ratio_cell(r.ratio)]
            for r in rows
        ]
        _emit(cfg, _csv_text(header, table))
    else:
        _emit(cfg, _json_text([r.as_dict() for r in rows]))
    if args.emit_plot_data:
        _write_plot_data(args.emit_plot_data, [(r.c, r.ratio) for r in rows])
    return 0


def _write_plot_data(path: str, pairs: list[tuple[int, Fraction | None]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("c,ratio\n")
        for c, ratio in pairs:
            fh.write(f"{c},{_ratio_cell(ratio)}\n")


# ---------------------------------------------------------------------------
# nf

def cmd_nf(args: argparse.Namespace, cfg: RunConfig) -> int:
    chosen = [v is not None for v in (args.X, args.height, args.squarefree, args.c_range)]
    if sum(chosen) != 1:
        raise UsageError("nf needs exactly one of --X, --height, --squarefree, --c-range")
    fmt = cfg.format or "json"
    if args.X is not None:
        row = nfcount.count_by_disc(args.d, args.X, constant=args.bound_constant, q_max=args.q_max)
        if fmt == "json":
            _emit(cfg, _json_text(row.as_dict()))
        else:
            header = ["d", "X", "count", "unknown", "exponent_ref", "bound_ok"]
            _emit(cfg, _csv_text(header, [[row.d, row.X, row.count, row.unknown, str(row.exponent_ref), row.bound_ok]]))
    elif args.height is not None:
        count = nfcount.count_by_height(args.d, args.height)
        if fmt == "json":
            _emit(cfg, _json_text({"d": args.d, "hmax": args.height, "count": count}))
        else:
            _emit(cfg, _csv_text(["d", "hmax", "count"], [[args.d, args.height, count]]))
    elif args.squarefree is not None:
        report = nfcount.squarefree_disc_fraction(args.d, args.squarefree, trial_bound=args.trial_bound)
        if fmt == "json":
            _emit(cfg, _json_text(report.as_dict()))
        else:
            header = ["d", "limit", "squarefree", "unknown", "fraction", "reference"]
            _emit(
                cfg,
                _csv_text(
                    header,
                    [[report.d, report.limit, report.squarefree, report.unknown,
                      _ratio_cell(report.fraction), f"{report.reference:.6f}"]],
                ),
            )
    else:
        lo, sep, hi = args.c_range.partition(":")
        if not sep:
            raise UsageError("--c-range expects LO:HI")
        try:
            c_lo, c_hi = int(lo), int(hi)
        except ValueError as exc:
            raise UsageError(f"--c-range expects integers: {args.c_range!r}") from exc
        rows = [
            nfcount.trinomial_row(args.d, c, q_max=args.q_max, trial_bound=args.trial_bound)
            for c in range(c_lo, c_hi + 1)
        ]
        if fmt == "json":
            for row in rows:
                row["height"] = f"{row['height']:.6f}"
            _emit(cfg, _json_text(rows))
        else:
            header = ["d", "c", "disc", "height", "irreducibility", "squarefree"]
            _emit(
                cfg,
                _csv_text(
                    header,
                    [
                        [r["d"], r["c"], r["disc"], f"{r['height']:.6f}", r["irreducibility"], r["squarefree"]]
                        for r in rows
                    ],
                ),
            )
    return 0


# ---------------------------------------------------------------------------
# orbits

def cmd_orbits(args: argparse.Namespace, cfg: RunConfig) -> int:
    fs = standard_field(args.p, args.n)
    try:
        c = fs.from_int(int(args.c))
    except ValueError:
        c = fs.parse(args.c)
    if args.d is not None:
        m = MapSpec.raw(args.d, c)
    elif args.family == "prime-power":
        if args.ell is None:
            raise UsageError("--family prime-power needs --ell")
        m = MapSpec.prime_power(args.p, args.ell, c)
    elif args.family == "pminus1":
        if args.ell is None:
            raise UsageError("--family pminus1 needs --ell")
        m = MapSpec.p_minus_one(args.p, args.ell, c)
    else:
        raise UsageError("orbits needs --d or --family with --ell")
    census = dynamics.orbit_census(fs, m, field_cap=cfg.field_cap, exp_cap=cfg.exp_cap)
    if (cfg.format or "json") == "json":
        payload = {"field": fs.as_dict(), "d": m.d, "c": str(c)}
        payload.update(census.as_dict())
        _emit(cfg, _json_text(payload))
    else:
        header = ["p", "n", "d", "c", "components", "cycle_lengths", "fixed_points", "max_tail"]
        row = [
            fs.p,
            fs.n,
            m.d,
            str(c),
            census.component_count,
            ";".join(str(k) for k in census.cycle_lengths),
            census.fixed_point_count,
            census.max_tail_length,
        ]
        _emit(cfg, _csv_text(header, [row]))
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--format", choices=["csv", "json"], default=None)
    sub.add_argument("--jobs", type=int, default=None, help="worker processes (default 1)")
    sub.add_argument("--field-cap", dest="field_cap", type=int, default=None,
                     help=f"max field order p^n scanned (default {DEFAULT_FIELD_CAP})")
    sub.add_argument("--exp-cap", dest="exp_cap", type=int, default=None,
                     help=f"max map degree d (default {DEFAULT_EXP_CAP})")
    sub.add_argument("--sieve-cap", dest="sieve_cap", type=int, default=None,
                     help=f"max prime-sieve limit (default {DEFAULT_SIEVE_CAP})")
    sub.add_argument("--config", default=None, help="JSON config file; flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fixcensus",
        description="Exact fixed-point censuses of z -> z^d + c over finite fields",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_census = subs.add_parser("census", help="fixed-point counts over a parameter grid")
    p_census.add_argument("--p", required=True, help="comma list of primes")
    p_census.add_argument("--n", required=True, help="comma list of extension degrees")
    p_census.add_argument("--ell", default=None, help="comma list of exponents ell")
    p_census.add_argument("--d", default=None, help="comma list of raw degrees (family raw)")
    p_census.add_argument("--family", choices=["prime-power", "pminus1", "raw"], required=True)
    p_census.add_argument("--c", default="all", help='"all", or comma list of integers/element strings')
    _add_common(p_census)
    p_census.set_defaults(func=cmd_census)

    p_claims = subs.add_parser("claims", help="check every registered claim over a grid")
    p_claims.add_argument("--p", required=True)
    p_claims.add_argument("--n", required=True)
    p_claims.add_argument("--ell", required=True)
    p_claims.add_argument("--expect", default=None, help="golden report JSON; exit 3 on verdict drift")
    _add_common(p_claims)
    p_claims.set_defaults(func=cmd_claims)

    p_avg = subs.add_parser("avg", help="average oracle counts over qualifying primes")
    p_avg.add_argument("--family", choices=["prime-power", "pminus1"], required=True)
    p_avg.add_argument("--n", type=int, default=1)
    p_avg.add_argument("--ell", type=int, default=1)
    p_avg.add_argument("--selector", choices=[s.value for s in Selector], required=True)
    p_avg.add_argument("--c", required=True, help="comma list of bounds")
    p_avg.add_argument("--emit-plot-data", dest="emit_plot_data", default=None,
                       help="also write c,ratio pairs to this path")
    _add_common(p_avg)
    p_avg.set_defaults(func=cmd_avg)

    p_density = subs.add_parser("density", help="prime densities of the count classes")
    p_density.add_argument("--kind", choices=[k.value for k in DensityKind], required=True)
    p_density.add_argument("--c", required=True, help="comma list of bounds")
    p_density.add_argument("--emit-plot-data", dest="emit_plot_data", default=None,
                           help="also write c,ratio pairs to this path")
    _add_common(p_density)
    p_density.set_defaults(func=cmd_density)

    p_nf = subs.add_parser("nf", help="trinomial discriminant and height counting")
    p_nf.add_argument("--d", type=int, required=True)
    p_nf.add_argument("--X", type=int, default=None, help="count |disc| < X")
    p_nf.add_argument("--height", type=float, default=None, help="count height <= Hmax")
    p_nf.add_argument("--squarefree", type=int, default=None,
                      help="squarefree |disc| fraction over c in [1, C]")
    p_nf.add_argument("--c-range", dest="c_range", default=None,
                      help="LO:HI per-trinomial table")
    p_nf.add_argument("--bound-constant", dest="bound_constant", type=float, default=4.0)
    p_nf.add_argument("--q-max", dest="q_max", type=int, default=nfcount.DEFAULT_Q_MAX)
    p_nf.add_argument("--trial-bound", dest="trial_bound", type=int,
                      default=nfcount.DEFAULT_TRIAL_BOUND)
    _add_common(p_nf)
    p_nf.set_defaults(func=cmd_nf)

    p_orbits = subs.add_parser("orbits", help="functional-graph census of one map")
    p_orbits.add_argument("--p", type=int, required=True)
    p_orbits.add_argument("--n", type=int, required=True)
    p_orbits.add_argument("--family", choices=["prime-power", "pminus1"], default=None)
    p_orbits.add_argument("--ell", type=int, default=None)
    p_orbits.add_argument("--d", type=int, default=None, help="raw degree")
    p_orbits.add_argument("--c", required=True, help="integer or element string")
    _add_common(p_orbits)
    p_orbits.set_defaults(func=cmd_orbits)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for k in range(len(argv) - 1, 0, -1):  # argparse takes "-5:5" for a flag
        if argv[k - 1] == "--c-range" and re.match(r"-\d", argv[k]):
            argv[k - 1 : k + 1] = [f"--c-range={argv[k]}"]
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return args.func(args, cfg)
    except CapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
