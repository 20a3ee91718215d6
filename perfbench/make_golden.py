"""Write the golden outputs in perfbench/golden/ from the checkout's sources.

    python3 perfbench/make_golden.py

catalog_scan.json     ``soclelab scan`` output
witness_3840.json     the witness_3840 report
relabeled_tables.json label-independent report fields of each unrelabeled
                      relabeled_tables group at each prime dividing its
                      order, as ``--theorems none`` computes them

Timing is removed from all of them. The goldens are the reference every
benchmark run is checked against: rewrite them only in a change whose
purpose is to change these outputs, and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

from run import GOLDEN, RELABELED_SPECS, SRC, WITNESS_ARGV
from traced import label_free_fields


def without_timing(data):
    if isinstance(data, dict):
        return {k: without_timing(v) for k, v in data.items() if k != "timing"}
    if isinstance(data, list):
        return [without_timing(v) for v in data]
    return data


def cli_json(argv: list[str]) -> dict:
    from soclelab.cli import run
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run(argv)
    if rc != 0:
        raise SystemExit(f"soclelab {' '.join(argv)} exited {rc}")
    return without_timing(json.loads(buf.getvalue()))


def relabeled_fields() -> list[dict]:
    from soclelab import analyze_group, parse_family
    from soclelab.groups import prime_factors
    out = []
    for spec in RELABELED_SPECS:
        group = parse_family(spec, max_order=4000)
        for p in prime_factors(group.order):
            report = analyze_group(group, p, descriptor=spec, theorems="none")
            if report["consistency_failures"]:
                raise SystemExit(f"{spec} p={p}: {report['consistency_failures']}")
            out.append({"spec": spec, "fields": label_free_fields(report)})
    return out


def write(name: str, data) -> None:
    with open(GOLDEN / f"{name}.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(data, sort_keys=True, indent=1) + "\n")


def main() -> int:
    sys.path.insert(0, str(SRC))
    os.environ["SOCLELAB_THREADS"] = "1"
    GOLDEN.mkdir(exist_ok=True)
    write("catalog_scan", cli_json(["scan"]))
    write("witness_3840", cli_json(WITNESS_ARGV))
    write("relabeled_tables", relabeled_fields())
    return 0


if __name__ == "__main__":
    sys.exit(main())
