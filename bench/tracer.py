"""Run one fixcensus CLI invocation with a span around each layer call.

Usage: python3 bench/tracer.py SPANS_PATH ARG...

Behaves like ``python -m fixcensus ARG...`` (same stdout, same exit code),
except that the public functions of each module are wrapped first and every
call records a span ``[name, parent, start, end, info]`` in memory.  The
spans are written to SPANS_PATH as JSON once the CLI returns; run.py turns
them into per-layer metrics.

A wrapper is installed on every module attribute through which a caller
looks the function up, because ``from .ff import standard_field`` binds a
second name that patching ``ff`` alone would miss.  ``FieldOps.mul``/``pow``
are not wrapped: arithmetic inside a scan counts toward the scan.

The process is fresh, so the ``standard_field``/``field_ops`` caches start
empty and the trace pays the same field builds that a CLI process pays.
Work inside ``--jobs`` pool workers is recorded in the forked workers and
lost with them, so on the parent side it shows as ``cli.main`` self time.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from fixcensus import claims, cli, dynamics, ff, nfcount, stats

spans: list[list] = []
_stack: list[int] = []


def _build_info(args, result, built):
    return {"built": built}


def _ops_info(args, result, built):
    info = {"built": built, "q": result.q}
    if built:
        if result.mul_table is not None:
            info["engine"] = "table"
        elif result.n > 1:
            info["engine"] = "vector"
        else:
            info["engine"] = "prime"
    return info


def _profile_info(args, result, built):
    fs, d = args[0], args[1]
    return {"key": [fs.p, fs.n, d], "elements": fs.order}


def _scan_info(args, result, built):
    return {"elements": args[0].order}


def _point_info(args, result, built):
    return {"verdict": result.status.value, "witnesses": len(result.witnesses)}


def _sieve_info(args, result, built):
    return {"limit": args[0]}


def _status_info(args, result, built):
    return {"status": result.value}


def _candidates_info(args, result, built):
    return {"candidates": len(result)}


def traced(name: str, fn, info=None):
    """fn wrapped so that each call records a span named name."""
    cached = hasattr(fn, "cache_info")

    def wrapper(*args, **kwargs):
        misses = fn.cache_info().misses if cached else 0
        span = [name, _stack[-1] if _stack else -1, 0.0, 0.0, None]
        _stack.append(len(spans))
        spans.append(span)
        span[2] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = perf_counter()
            _stack.pop()
        if info is not None:
            built = fn.cache_info().misses - misses if cached else 0
            span[4] = info(args, result, built)
        return result

    return wrapper


# (span name, info, modules whose attribute of that name callers look up)
LAYERS = [
    ("cli.main", None, [cli]),
    ("ff.standard_field", _build_info, [ff, cli, stats]),
    ("ff.field_ops", _ops_info, [ff, dynamics]),
    ("dynamics.count_profile", _profile_info, [dynamics]),
    ("dynamics.fixed_point_count", _scan_info, [dynamics]),
    ("dynamics.orbit_census", _scan_info, [dynamics]),
    ("dynamics.integral_fixed_points", None, [dynamics, nfcount]),
    ("claims.check_point", _point_info, [claims]),
    ("stats.prime_sieve", _sieve_info, [stats]),
    ("stats.average_report", None, [stats]),
    ("stats.density_table", None, [stats]),
    ("nfcount.irreducibility_status", _status_info, [nfcount]),
    ("nfcount.bounded_trinomials", _candidates_info, [nfcount]),
    ("nfcount.trinomial_row", None, [nfcount]),
    ("nfcount.squarefree_disc_fraction", None, [nfcount]),
]


def install() -> None:
    for name, info, modules in LAYERS:
        attr = name.rsplit(".", 1)[1]
        wrapper = traced(name, getattr(modules[0], attr), info)
        for module in modules:
            setattr(module, attr, wrapper)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    install()
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(spans, fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main())
