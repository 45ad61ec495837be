#!/usr/bin/env python3
"""Record the expected exit code and stdout sha256 of every benchmark invocation.

Usage, from the root of a checkout: python3 bench/record_expected.py

Runs every invocation of every workload variant once and rewrites
bench/expected.json.  The benchmark's correctness check compares against
this file, so record it only from the commit whose outputs define correct
behaviour.  Recording stops if an invocation exits non-zero or if
invocations that must print the same bytes (--jobs 1 and --jobs 2) differ.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    outputs = {}
    for workload in run.WORKLOADS:
        table = outputs[workload] = {}
        for variant in range(run.VARIANTS):
            invs = run.invocations(workload, variant)
            outcomes = run.run_pass(invs)
            for inv, out in zip(invs, outcomes):
                if out.code != 0:
                    sys.exit(f"{inv.key}: exit {out.code}; stderr: {out.stderr.strip()}")
                if inv.same_as is not None and out.sha256 != outcomes[inv.same_as].sha256:
                    sys.exit(f"{inv.key}: stdout differs from {invs[inv.same_as].key}")
                table[inv.key] = {"exit": out.code, "sha256": out.sha256}
            print(f"{workload} variant {variant}: {len(invs)} invocations", file=sys.stderr)
    document = {"variants": run.VARIANTS, "outputs": outputs}
    run.EXPECTED.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
