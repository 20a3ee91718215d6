"""Command-line front end.

Four subcommands. analyze runs the full pipeline on one group and prints
a report; verify runs the same checks as analyze (--theorems auto); scan
walks a list of group sources (family specs, table files, directories,
or the built-in catalog when none are given) and prints one row per
(group, prime) pair plus a summary; construct builds a group from a
family spec and writes its multiplication table.

Exit codes: 0 run completed, 2 at least one consistency failure was
detected (a verification that must hold was falsified), 3 the input was
outside the supported envelope (bad spec, unreadable file, size cap).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .analysis import SCHEMA_VERSION, analyze_group, default_prime
from .catalog import CATALOG_SPECS
from .errors import ConsistencyError, UnsupportedInputError
from .families import DEFAULT_MAX_ORDER
from .formats import build_group, format_cayley, write_cayley
from .groups import prime_factors


def _canonical_json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _fmt_bool(v) -> str:
    if v is None:
        return "-"
    return "yes" if v else "no"


def _report_table(r: dict) -> str:
    lines = []
    g = r["group"]
    lines.append(f"group    {g['descriptor']}  (order {g['order']}, "
                 f"{g['class_count']} classes)")
    lines.append(f"p        {r['p']}")
    dims = " ".join(f"{k}={'-' if r['dims'][k] is None else r['dims'][k]}"
                    for k in ("center", "radical", "socle"))
    lines.append(f"dims     {dims}")
    if r["socle_blocks"] is not None:
        blk = "  ".join(f"coset {rep}: {dim}" for rep, dim in r["socle_blocks"])
        lines.append(f"blocks   {blk}")
    i = r["ideal"]
    lines.append(f"ideal    direct={_fmt_bool(i['direct'])} "
                 f"criterion={_fmt_bool(i['criterion'])}")
    shape = " ".join(f"{k}={_fmt_bool(v)}" for k, v in sorted(r["shape"].items()))
    lines.append(f"shape    {shape}")
    if r["radical_basis_match"] is not None:
        lines.append(f"radical basis match  {_fmt_bool(r['radical_basis_match'])}")
    for name in sorted(r["theorems"]):
        entry = r["theorems"][name]
        extra = ""
        if entry["status"] == "inapplicable":
            extra = f"  ({entry['reason']})"
        elif name == "ideal_characterization" and entry["status"] == "passed":
            extra = (f"  predicted={_fmt_bool(entry['predicted'])}"
                     f" direct={_fmt_bool(entry['direct'])}"
                     + (" witness" if entry["witness"] else ""))
        lines.append(f"check    {name}: {entry['status']}{extra}")
    if r["consistency_failures"]:
        lines.append("CONSISTENCY FAILURES:")
        for msg in r["consistency_failures"]:
            lines.append(f"  - {msg}")
    else:
        lines.append("consistency failures: none")
    stage, seconds = max(r["timing"]["stages"], key=lambda s: s[1])
    lines.append(f"time     {r['timing']['seconds']:.3f}s, slowest {stage} {seconds:.3f}s")
    return "\n".join(lines) + "\n"


def _scan_table(result: dict) -> str:
    header = f"{'source':<40} {'order':>6} {'p':>3} {'ideal':>6} {'socle':>6} " \
             f"{'standing':>8} {'status':>8}"
    lines = [header, "-" * len(header)]
    for row in result["rows"]:
        ideal = "-" if row["ideal"] is None else _fmt_bool(row["ideal"]["direct"])
        socle = "-" if row["socle_dim"] is None else str(row["socle_dim"])
        lines.append(f"{row['source']:<40} {row['order'] or '-':>6} "
                     f"{row['p'] or '-':>3} {ideal:>6} {socle:>6} "
                     f"{_fmt_bool(row['standing']):>8} {row['status']:>8}")
        if row["status"] == "error":
            lines.append(f"    error: {row['error']}")
        for msg in row["consistency_failures"]:
            lines.append(f"    CONSISTENCY FAILURE: {msg}")
    s = result["summary"]
    lines.append("")
    lines.append(f"rows={s['rows']} ideal={s['ideal']} non_ideal={s['non_ideal']} "
                 f"errors={s['errors']} inapplicable={s['inapplicable']} "
                 f"witnesses={s['witnesses']} "
                 f"consistency_failures={s['consistency_failures']}")
    return "\n".join(lines) + "\n"


def cmd_analyze(args) -> int:
    group, file_p = build_group(args.source, max_order=args.max_order)
    p = args.p if args.p is not None else (
        file_p if file_p is not None else default_prime(group))
    report = analyze_group(group, p, descriptor=args.source,
                           theorems=args.theorems)
    if args.format == "json":
        sys.stdout.write(_canonical_json(report))
    else:
        sys.stdout.write(_report_table(report))
    return 2 if report["consistency_failures"] else 0


def _expand_sources(items: list[str]) -> list[str]:
    """Positional scan arguments; a directory stands for the files inside."""
    if not items:
        return list(CATALOG_SPECS)
    out = []
    for item in items:
        if os.path.isdir(item):
            names = sorted(os.listdir(item))
            found = [os.path.join(item, n) for n in names
                     if os.path.isfile(os.path.join(item, n))]
            if not found:
                raise UnsupportedInputError(f"directory {item!r} has no files")
            out.extend(found)
        else:
            out.append(item)
    return out


def _scan_row(source: str, order, p, error: str | None = None, failures=()) -> dict:
    return {
        "source": source,
        "order": order,
        "p": p,
        "status": "ok" if error is None else "error",
        "error": error,
        "ideal": None,
        "socle_dim": None,
        "standing": None,
        "witness": None,
        "consistency_failures": list(failures),
    }


def _analyzed_row(source: str, group, p: int, theorems: str) -> dict:
    try:
        r = analyze_group(group, p, descriptor=source, theorems=theorems)
    except UnsupportedInputError as e:
        return _scan_row(source, int(group.order), int(p), str(e))
    except ConsistencyError as e:  # raised before the report could hold it
        return _scan_row(source, int(group.order), int(p), failures=[str(e)])
    row = _scan_row(source, int(group.order), int(p))
    row["ideal"] = r["ideal"]
    row["socle_dim"] = r["dims"]["socle"]
    row["standing"] = r["shape"]["reduced"]
    row["consistency_failures"] = r["consistency_failures"]
    ch = r["theorems"].get("ideal_characterization")
    if ch and ch.get("witness"):
        row["witness"] = {
            "checks": ch["witness"]["checks"],
            "commutator_core_order": ch["witness"]["commutator_core_order"],
            "second_derived_order": ch["witness"]["second_derived_order"],
        }
    return row


def cmd_scan(args) -> int:
    sources = _expand_sources(args.sources)
    rows = []
    for source in sources:
        try:
            group, file_p = build_group(source, max_order=args.max_order)
        except UnsupportedInputError as e:
            rows.append(_scan_row(source, None, args.p, str(e)))
            continue
        if args.p is not None:
            primes = [args.p]
        elif file_p is not None:
            primes = [file_p]
        else:
            primes = prime_factors(group.order) or [2]
        rows.extend(_analyzed_row(source, group, p, args.theorems) for p in primes)

    n_ideal = sum(1 for r in rows if r["ideal"] and r["ideal"]["direct"] is True)
    n_non = sum(1 for r in rows
                if r["ideal"] and r["ideal"]["direct"] is False)
    n_err = sum(1 for r in rows if r["status"] == "error")
    n_inapp = sum(1 for r in rows if r["status"] != "error"
                  and (not r["ideal"] or r["ideal"]["direct"] is None))
    n_wit = sum(1 for r in rows if r["witness"] is not None)
    n_fail = sum(len(r["consistency_failures"]) for r in rows)

    result = {
        "schema_version": SCHEMA_VERSION,
        "rows": rows,
        "summary": {
            "sources": len(sources),
            "rows": len(rows),
            "ideal": n_ideal,
            "non_ideal": n_non,
            "errors": n_err,
            "inapplicable": n_inapp,
            "witnesses": n_wit,
            "consistency_failures": n_fail,
        },
    }
    if args.format == "json":
        sys.stdout.write(_canonical_json(result))
    else:
        sys.stdout.write(_scan_table(result))
    return 2 if n_fail else 0


def cmd_construct(args) -> int:
    group, _ = build_group(args.spec, max_order=args.max_order)
    if args.out:
        write_cayley(group, args.out)
        sys.stdout.write(f"wrote {group.name} (order {group.order}) "
                         f"to {args.out}\n")
    else:
        sys.stdout.write(format_cayley(group))
    return 0


def _add_common(sub, with_theorems: bool = True) -> None:
    sub.add_argument("--p", type=int, default=None,
                     help="prime of the coefficient field (default: smallest "
                          "prime dividing |G'|, or |G| when G is abelian)")
    sub.add_argument("--format", choices=("json", "table"), default="json")
    sub.add_argument("--max-order", type=int, default=DEFAULT_MAX_ORDER,
                     help=f"refuse groups larger than this (default {DEFAULT_MAX_ORDER})")
    if with_theorems:
        sub.add_argument("--theorems", choices=("all", "none", "auto"),
                         default="auto",
                         help="which structural checks to run (none skips "
                              "them; auto runs every check whose "
                              "preconditions hold; all is the same as auto)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="soclelab",
        description="Center, radical and socle of modular group algebras.")
    subs = ap.add_subparsers(dest="command", required=True)

    a = subs.add_parser("analyze", help="analyze one group at one prime")
    a.add_argument("source", help="family spec or group table file")
    _add_common(a)
    a.set_defaults(func=cmd_analyze)

    v = subs.add_parser("verify",
                        help="run the same checks as analyze "
                             "(--theorems auto)")
    v.add_argument("source", help="family spec or group table file")
    _add_common(v, with_theorems=False)
    v.set_defaults(func=cmd_analyze, theorems="all")

    s = subs.add_parser("scan", help="analyze many groups, one row per "
                                     "(group, prime)")
    s.add_argument("sources", nargs="*",
                   help="family specs, table files, or directories of table "
                        "files; the built-in catalog when omitted")
    _add_common(s)
    s.set_defaults(func=cmd_scan)

    c = subs.add_parser("construct", help="build a group and write its table")
    c.add_argument("spec", help="family spec")
    c.add_argument("--out", default=None, help="output path (default stdout)")
    c.add_argument("--max-order", type=int, default=DEFAULT_MAX_ORDER,
                   help=f"refuse groups larger than this (default {DEFAULT_MAX_ORDER})")
    c.set_defaults(func=cmd_construct)
    return ap


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UnsupportedInputError as e:
        sys.stderr.write(f"error: {e}\n")
        return 3
    except ConsistencyError as e:
        sys.stderr.write(f"consistency failure: {e}\n")
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
