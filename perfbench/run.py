#!/usr/bin/env python3
"""soclelab benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout. The program is imported from the
checkout's ``src/`` directory; nothing is built or installed. Workloads (see
BENCHMARK.json for why each was chosen):

  catalog_scan      soclelab scan                 (45 catalog entries, 86 rows)
  witness_3840      soclelab analyze "twisted_affine(2,4,1)" --p 2 --max-order 4000
  relabeled_tables  soclelab scan DIR --theorems none, where DIR holds seeded
                    random relabelings of seven Cayley tables, written before
                    timing starts
  all               each of the above in turn

Every command runs as the user-facing CLI in a fresh child process, closed
loop: one client, the next command starts only after the previous one has
exited, with SOCLELAB_THREADS=1. Commands start while the time spent so far
plus the median command time stays within --seconds, and at least one runs.
Every output is checked against the goldens in perfbench/golden/; keys a
golden lacks are ignored, so reports may grow without failing the check.

--trace 0 reports the end-to-end metrics of the untraced commands:
  setup_s      median of 5 fresh interpreters running ``import soclelab.cli``
  wall_s       one CLI command, from spawn to exit
  cpu_s        the command's user plus system CPU (os.wait4 rusage)
  peak_rss_mb  the command's ru_maxrss
  error_rate   failed rows / attempted rows (printed; the JSON line carries
               it as ``failed`` and ``attempted``)
--trace 1 alternates untraced commands with commands run under traced.py and
prints self time and calls of each traced entry point, self time per layer,
and trace.overhead_s (traced minus untraced wall time). The JSON line holds
the per_layer metrics of BENCHMARK.json: every printed metric except the
self time of functions that some workload never calls (see PARTIAL).

The lines before the last give each metric's median, quartiles, maximum and
sample count, and the environment. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The exit code is
1 when an output was wrong and 2, with no result printed, when the checkout
holds no soclelab sources.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import marshal
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden"
WORK = BENCH / "work"

sys.path.insert(0, str(BENCH))
from traced import SETUP_SPANS, TARGETS  # noqa: E402

WORKLOADS = ("catalog_scan", "witness_3840", "relabeled_tables")
WITNESS_ARGV = ["analyze", "twisted_affine(2,4,1)", "--p", "2", "--max-order", "4000"]
RELABELED_SPECS = (
    "dihedral(300)",
    "agl(1,32)",
    "direct(SL2(3),SL2(3))",
    "twisted_affine(3,2,1)",
    "twisted_affine(2,3,1)",
    "sym(6)",
    "central(SL2(3),SL2(3))",
)
# one-group versions of the scan workloads, for the harness's smoke test
SMOKE_SOURCES = {"catalog_scan": ["cyclic(2)"],
                 "relabeled_tables": ["central(SL2(3),SL2(3))"]}
SETUP_REPEATS = 5
# a command still running after this long is killed and counts as failed,
# so that a hung program cannot keep the harness past its own time limit
COMMAND_TIMEOUT_S = 150.0
CLI_CODE = "import sys; from soclelab.cli import main; sys.argv[0] = 'soclelab'; main()"

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))
# self time summed over the traced functions of each layer
LAYERS = {"input": ("formats", "families"), "groups": ("groups",),
          "algebra": ("algebra",), "fplin": ("fplin",), "structure": ("structure",)}
# Traced functions that some workload never calls: files are loaded only by
# relabeled_tables, family specs parsed only by the other two, and
# --theorems none skips the structural checks. Their self time would read
# exactly 0 on every run of such a workload, so the JSON line carries it
# only inside the layer total; it is printed per function.
PARTIAL = frozenset({
    "formats.load_group_file", "families.parse_family", "groups.p_residual",
    "groups.quotient", "structure.decompose_second_derived_quotient",
    "structure.check_quotient_decomposition", "structure.characterize_socle_ideal",
    "structure.split_into_central_factors", "structure.check_annihilator_reduction",
    "structure.reduce_to_core", "structure.build_nonideal_witness",
})
# every metric a traced run prints, with its unit
TRACED = (
    tuple((f"{name}.self_s", "s") for name in SETUP_SPANS + tuple(LAYERS))
    + tuple((f"{name}.self_s", "s") for name, _, _ in TARGETS)
    + tuple((f"{name}.calls", "count") for name, _, _ in TARGETS)
    + (("fplin.rref.cells", "count"),
       ("algebra.init.per_row", "ratio"),
       ("algebra.socle_ideal_verdict.per_row", "ratio"),
       ("trace.overhead_s", "s"),
       ("trace.coverage", "ratio"))
)
# the per-layer metrics of BENCHMARK.json and of the JSON line
PER_LAYER = tuple(m for m in TRACED if m[0].removesuffix(".self_s") not in PARTIAL)


class SetupError(Exception):
    """The checkout cannot run the benchmark; no result is printed."""


# -- golden checks ------------------------------------------------------------

def mismatches(expected, actual, path: str = "") -> list[str]:
    """Paths where actual differs from expected. Keys that expected lacks
    are ignored; lists must match element by element."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [path or "/"]
        out = []
        for key, value in expected.items():
            if key not in actual:
                out.append(f"{path}/{key} missing")
            else:
                out += mismatches(value, actual[key], f"{path}/{key}")
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{path or '/'} has another length"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out += mismatches(e, a, f"{path}/{i}")
        return out
    same = expected == actual and isinstance(expected, bool) == isinstance(actual, bool)
    return [] if same else [f"{path or '/'}: {actual!r} != {expected!r}"]


@dataclass
class Check:
    attempted: int
    failed: int = 0
    notes: list[str] = field(default_factory=list)


def _parse(text: str, rc: int, attempted: int) -> tuple[dict | None, Check]:
    if rc != 0:
        return None, Check(attempted, attempted, [f"exit code {rc}"])
    try:
        doc = json.loads(text)
    except ValueError:
        return None, Check(attempted, attempted, ["output is not JSON"])
    if not isinstance(doc, dict):
        return None, Check(attempted, attempted, ["output is not a JSON object"])
    return doc, Check(attempted)


def check_scan(text: str, rc: int, rows: list[dict], summary: dict | None) -> Check:
    """A scan row fails when it differs from its golden row, has status
    error or reports consistency failures."""
    doc, check = _parse(text, rc, len(rows))
    if doc is None:
        return check
    got = doc.get("rows")
    if not isinstance(got, list) or len(got) != len(rows):
        return Check(len(rows), len(rows), ["scan rows differ in number"])
    for want, row in zip(rows, got):
        bad = mismatches(want, row)
        if isinstance(row, dict) and (row.get("status") == "error"
                                      or row.get("consistency_failures")):
            bad.append("error or consistency failure")
        if bad:
            check.failed += 1
            check.notes.append(f"row {want.get('source')} p={want.get('p')}: {bad[0]}")
    if summary is not None:
        bad = mismatches(summary, doc.get("summary"))
        if bad:
            check.failed = max(check.failed, 1)
            check.notes.append(f"summary: {bad[0]}")
    return check


def check_report(text: str, rc: int, golden: dict) -> Check:
    doc, check = _parse(text, rc, 1)
    if doc is None:
        return check
    bad = mismatches(golden, doc)
    if doc.get("consistency_failures"):
        bad.append("consistency failures")
    if bad:
        check.failed, check.notes = 1, [bad[0]]
    return check


def check_fields(reports: list[dict], expected: list[tuple[str, dict]]) -> Check:
    """Label-independent fields of the reports a traced run returned, in
    row order, against the golden fields of the unrelabeled groups."""
    if len(reports) != len(expected):
        return Check(len(expected), len(expected), ["traced reports differ in number"])
    check = Check(len(expected))
    for report, (name, fields) in zip(reports, expected):
        bad = mismatches(fields, report["fields"])
        if Path(str(report["source"])).name != name:
            bad.append(f"source {report['source']}")
        if bad:
            check.failed += 1
            check.notes.append(f"{name} p={fields['p']}: {bad[0]}")
    return check


def _load_golden(name: str):
    with open(GOLDEN / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def table_file_name(index: int, spec: str) -> str:
    return f"{index}_{re.sub(r'[^A-Za-z0-9]+', '_', spec).strip('_')}.cay"


# -- workloads ----------------------------------------------------------------

@dataclass
class Workload:
    """CLI arguments plus the checks of its output."""
    name: str
    argv: list[str]
    check_output: Callable[[str, int], Check]        # stdout, exit code
    check_reports: Callable[[list], Check] | None = None   # traced rows
    manifest: dict | None = None         # relabeled table files to write


def make_workload(name: str, workdir: Path, smoke: bool = False) -> Workload:
    if name == "catalog_scan":
        golden = _load_golden(name)
        rows, summary = golden["rows"], golden["summary"]
        argv = ["scan"]
        if smoke:
            argv += SMOKE_SOURCES[name]
            rows = [r for r in rows if r["source"] in SMOKE_SOURCES[name]]
            summary = None
        return Workload(name, argv, lambda out, rc: check_scan(out, rc, rows, summary))
    if name == "witness_3840":
        golden = _load_golden(name)
        return Workload(name, list(WITNESS_ARGV),
                        lambda out, rc: check_report(out, rc, golden))
    if name == "relabeled_tables":
        specs = SMOKE_SOURCES[name] if smoke else list(RELABELED_SPECS)
        by_spec = defaultdict(list)
        for entry in _load_golden(name):
            by_spec[entry["spec"]].append(entry["fields"])
        tables = workdir / "tables"
        manifest = {table_file_name(i, s): s for i, s in enumerate(specs)}
        expected = [(fname, f) for fname, s in manifest.items() for f in by_spec[s]]
        rows = [{"source": str(tables / fname), "order": f["order"], "p": f["p"],
                 "status": "ok", "error": None, "ideal": f["ideal"],
                 "socle_dim": f["dims"]["socle"], "standing": f["shape"]["reduced"],
                 "witness": None, "consistency_failures": []}
                for fname, f in expected]
        directs = [f["ideal"]["direct"] for _, f in expected]
        summary = {"sources": len(specs), "rows": len(rows),
                   "ideal": directs.count(True), "non_ideal": directs.count(False),
                   "inapplicable": 0, "witnesses": 0, "consistency_failures": 0}
        return Workload(name, ["scan", str(tables), "--theorems", "none"],
                        lambda out, rc: check_scan(out, rc, rows, summary),
                        lambda reports: check_fields(reports, expected), manifest)
    raise ValueError(f"unknown workload {name!r}")


# -- child processes ----------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["SOCLELAB_THREADS"] = "1"
    return env


@dataclass
class Sample:
    wall: float
    cpu: float
    rss_mb: float
    rc: int
    stdout: str


def spawn(cmd: list[str], workdir: Path) -> Sample:
    """Run cmd to completion; wall time from spawn to exit, rusage of the child."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=child_env())
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  proc.returncode, out_path.read_text(encoding="utf-8", errors="replace"))


def prepare(workload: Workload, seed: int, workdir: Path) -> None:
    """Check that the checkout's sources import, then write the workload's inputs."""
    probe = spawn([sys.executable, "-c", "import soclelab.cli as m; print(m.__file__)"],
                  workdir)
    where = Path(probe.stdout.strip() or ".").resolve()
    if probe.rc != 0 or SRC.resolve() not in where.parents:
        raise SetupError(f"cannot import soclelab.cli from {SRC}")
    if workload.manifest is not None:
        (workdir / "tables").mkdir()
        made = spawn([sys.executable, str(BENCH / "tables.py"), str(seed),
                      str(workdir / "tables"), json.dumps(workload.manifest)], workdir)
        if made.rc != 0:
            raise SetupError("writing the relabeled tables failed: "
                             + (workdir / "stderr").read_text(errors="replace")[-500:])


def closed_loop(kinds: list, seconds: float) -> None:
    """Call each kind in turn, at least once each, while the elapsed time
    plus the next kind's median duration stays within seconds."""
    start = time.perf_counter()
    durations = defaultdict(list)
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        t0 = time.perf_counter()
        kind()
        durations[i % len(kinds)].append(time.perf_counter() - t0)
        i += 1
        if i < len(kinds):
            continue
        predicted = statistics.median(durations[i % len(kinds)])
        if time.perf_counter() - start + predicted > seconds:
            return


# -- trace analysis -------------------------------------------------------------

def layer_metrics(doc: dict, traced_wall: float) -> tuple[dict, list]:
    """Per-layer metrics of one traced command, and (duration, note) of its
    analyze_group spans. Self time is a span's duration minus its children's."""
    names, spans = doc["names"], doc["spans"]
    dur = [end - start for _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child[span[3]] += dur[i]
    self_s, calls = defaultdict(float), Counter()
    cells, rows = 0, []
    for i, (idx, _, _, parent, note) in enumerate(spans):
        name = names[idx]
        self_s[name] += dur[i] - child[i]
        calls[name] += 1
        if name == "fplin.rref":
            cells += note
        elif name == "analysis.analyze_group" and note is not None:
            rows.append((dur[i], note))
    covered = sum(d for d, span in zip(dur, spans) if span[3] < 0)
    n_rows = len(rows)
    metrics = {f"{name}.self_s": self_s[name] for name in SETUP_SPANS}
    for layer, modules in LAYERS.items():
        metrics[f"{layer}.self_s"] = sum(self_s[name] for name, _, _ in TARGETS
                                         if name.split(".")[0] in modules)
    for name, _, _ in TARGETS:
        metrics[f"{name}.self_s"] = self_s[name]
        metrics[f"{name}.calls"] = calls[name]
    metrics["fplin.rref.cells"] = cells
    metrics["algebra.init.per_row"] = calls["algebra.init"] / n_rows if n_rows else 0.0
    metrics["algebra.socle_ideal_verdict.per_row"] = (
        calls["algebra.socle_ideal_verdict"] / n_rows if n_rows else 0.0)
    metrics["trace.coverage"] = covered / traced_wall
    return metrics, rows


# -- one workload ---------------------------------------------------------------

def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _metric_line(name: str, values: list[float], unit: str) -> str:
    q1, q3 = _quartiles(values)
    return (f"  {name:<46} median {statistics.median(values):>12.6g}  "
            f"q1 {q1:>10.6g}  q3 {q3:>10.6g}  max {max(values):>10.6g}  "
            f"n={len(values)}  {unit}")


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)

    def add(self, check: Check, what: str) -> None:
        self.attempted += check.attempted
        self.failed += check.failed
        self.lines += [f"  MISMATCH ({what}): {note}" for note in check.notes[:5]]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> Result:
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        workload = make_workload(name, workdir, smoke)
        prepare(workload, seed, workdir)
        result = (_traced(workload, seconds, workdir) if trace
                  else _untraced(workload, seconds, workdir))
        result.lines.append(
            f"  {'error_rate':<46} {result.failed / result.attempted:.4f} "
            f"({result.failed} of {result.attempted} rows failed)  ratio")
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _cli(workload: Workload) -> list[str]:
    return [sys.executable, "-c", CLI_CODE, *workload.argv]


def _untraced(workload: Workload, seconds: float, workdir: Path) -> Result:
    result = Result()
    setup = [spawn([sys.executable, "-c", "import soclelab.cli"], workdir).wall
             for _ in range(SETUP_REPEATS)]
    samples: list[Sample] = []

    def command():
        s = spawn(_cli(workload), workdir)
        samples.append(s)
        result.add(workload.check_output(s.stdout, s.rc), "output")

    closed_loop([command], seconds)
    series = {"setup_s": setup,
              "wall_s": [s.wall for s in samples],
              "cpu_s": [s.cpu for s in samples],
              "peak_rss_mb": [s.rss_mb for s in samples]}
    for metric, unit in END_TO_END:
        result.metrics[metric] = statistics.median(series[metric])
        result.lines.append(_metric_line(metric, series[metric], unit))
    return result


def _traced(workload: Workload, seconds: float, workdir: Path) -> Result:
    result = Result()
    plain, traced, runs = [], [], []
    spans_path = workdir / "spans.marshal"

    def untraced_command():
        s = spawn(_cli(workload), workdir)
        plain.append(s.wall)
        result.add(workload.check_output(s.stdout, s.rc), "output")

    def traced_command():
        spans_path.unlink(missing_ok=True)
        s = spawn([sys.executable, str(BENCH / "traced.py"), str(spans_path),
                   repr(time.perf_counter()), "--", *workload.argv], workdir)
        traced.append(s.wall)
        result.add(workload.check_output(s.stdout, s.rc), "traced output")
        if not spans_path.exists():
            raise SetupError("the traced command wrote no spans: "
                             + (workdir / "stderr").read_text(errors="replace")[-500:])
        with open(spans_path, "rb") as fh:
            metrics, rows = layer_metrics(marshal.load(fh), s.wall)
        if workload.check_reports is not None:
            result.add(workload.check_reports([note for _, note in rows]),
                       "traced report fields")
        runs.append((metrics, rows))

    closed_loop([untraced_command, traced_command], seconds)
    series = {name: [m[name] for m, _ in runs] for name, _ in TRACED
              if name != "trace.overhead_s"}
    series["trace.overhead_s"] = [statistics.median(traced) - statistics.median(plain)]
    medians = {name: statistics.median(values) for name, values in series.items()}
    result.metrics = {name: medians[name] for name, _ in PER_LAYER}
    # self times first, slowest on top
    ranked = sorted(TRACED, key=lambda m: (not m[0].endswith(".self_s"), -medians[m[0]]))
    for name, unit in ranked:
        result.lines.append(_metric_line(name, series[name], unit))
    result.lines.append(
        f"  spans cover {100 * medians['trace.coverage']:.1f}% of the traced "
        f"wall time {statistics.median(traced):.4f} s; untraced wall time "
        f"{statistics.median(plain):.4f} s")
    _, rows = runs[len(runs) // 2]
    for dur, note in sorted(rows, key=lambda r: -r[0])[:3]:
        result.lines.append(f"  slow row {Path(str(note['source'])).name} "
                            f"p={note['fields']['p']}: {dur:.4f} s")
    return result


# -- environment and entry point --------------------------------------------------

def environment(seed: int) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        commit = lines[1] if top.returncode == 0 and Path(lines[0]) == ROOT else None
    except (OSError, subprocess.SubprocessError, IndexError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0)), "SOCLELAB_THREADS": "1",
            "seed": seed, "commit": commit, "src_sha256": digest.hexdigest()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="soclelab benchmark harness")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "soclelab" / "cli.py").is_file():
        sys.stderr.write(f"run.py: no soclelab sources under {SRC}\n")
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    total = Result()
    units = dict(END_TO_END + PER_LAYER)
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except SetupError as e:
            sys.stderr.write(f"run.py: {e}\n")
            return 2
        print(f"workload {name} trace={args.trace} seed={args.seed}")
        print("\n".join(res.lines), flush=True)
        total.attempted += res.attempted
        total.failed += res.failed
        for metric, value in res.metrics.items():
            key = metric if len(names) == 1 else f"{name}.{metric}"
            total.metrics[key] = {"value": value, "unit": units[metric]}
    correct = total.failed == 0
    print(json.dumps({"correct": correct, "attempted": total.attempted,
                      "failed": total.failed, "metrics": total.metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
