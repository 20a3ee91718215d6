"""Run one soclelab CLI command in this process, with spans around the
public entry points of each module.

    python3 perfbench/traced.py OUT SPAWNED_AT -- ARGV...

SPAWNED_AT is the parent's time.perf_counter() just before it started this
process (the clock is system-wide on Linux), so interpreter start-up is a
span too.

The tracer works from outside the package: after ``import soclelab.cli``
it replaces every binding of each traced function (the defining module and
each module that imported the name) and each traced method on its class.
Spans are kept in memory and written to OUT when the command ends, in
``marshal`` format because it is several times faster to write than JSON
and the write falls outside every span.
Each ``analyze_group`` span carries its source and the label-independent
fields of the report it returned. The CLI's own output goes to standard
output unchanged and its exit code is this process's exit code.

A traced name the package no longer defines is skipped with a note on
standard error, so its metrics read zero calls.
"""

from __future__ import annotations

import time

STARTED_AT = time.perf_counter()

import functools  # noqa: E402
import marshal  # noqa: E402
import sys  # noqa: E402

# (metric name, module, attribute path inside the module)
TARGETS = (
    ("formats.load_group_file", "soclelab.formats", "load_group_file"),
    ("families.parse_family", "soclelab.families", "parse_family"),
    ("groups.validate", "soclelab.groups", "FiniteGroup.__init__"),
    ("groups.conjugacy_classes", "soclelab.groups", "FiniteGroup.conjugacy_classes"),
    ("groups.subgroup_closure", "soclelab.groups", "FiniteGroup.subgroup_closure"),
    ("groups.normal_closure", "soclelab.groups", "FiniteGroup.normal_closure"),
    ("groups.quotient", "soclelab.groups", "FiniteGroup.quotient"),
    ("groups.sylow_subgroup", "soclelab.groups", "FiniteGroup.sylow_subgroup"),
    ("groups.hall_complement", "soclelab.groups", "FiniteGroup.hall_complement"),
    ("groups.p_prime_core", "soclelab.groups", "FiniteGroup.p_prime_core"),
    ("groups.p_residual", "soclelab.groups", "FiniteGroup.p_residual"),
    ("algebra.init", "soclelab.algebra", "CenterAlgebra.__init__"),
    ("algebra.jacobson_radical", "soclelab.algebra", "CenterAlgebra.jacobson_radical"),
    ("algebra.socle", "soclelab.algebra", "CenterAlgebra.socle"),
    ("algebra.socle_is_ideal_direct", "soclelab.algebra",
     "CenterAlgebra.socle_is_ideal_direct"),
    ("algebra.socle_is_ideal_criterion", "soclelab.algebra",
     "CenterAlgebra.socle_is_ideal_criterion"),
    ("algebra.socle_ideal_verdict", "soclelab.algebra",
     "CenterAlgebra.socle_ideal_verdict"),
    ("algebra.socle_coset_decomposition", "soclelab.algebra",
     "CenterAlgebra.socle_coset_decomposition"),
    ("fplin.rref", "soclelab.fplin", "rref"),
    ("fplin.kernel_basis", "soclelab.fplin", "kernel_basis"),
    ("fplin.intersect", "soclelab.fplin", "Subspace.intersect"),
    ("structure.examine_sylow_split", "soclelab.structure", "examine_sylow_split"),
    ("structure.decompose_second_derived_quotient", "soclelab.structure",
     "decompose_second_derived_quotient"),
    ("structure.check_quotient_decomposition", "soclelab.structure",
     "check_quotient_decomposition"),
    ("structure.characterize_socle_ideal", "soclelab.structure",
     "characterize_socle_ideal"),
    ("structure.split_into_central_factors", "soclelab.structure",
     "split_into_central_factors"),
    ("structure.check_annihilator_reduction", "soclelab.structure",
     "check_annihilator_reduction"),
    ("structure.reduce_to_core", "soclelab.structure", "reduce_to_core"),
    ("structure.build_nonideal_witness", "soclelab.structure", "build_nonideal_witness"),
    ("analysis.analyze_group", "soclelab.analysis", "analyze_group"),
    ("cli.run", "soclelab.cli", "run"),
)

# spans of the set-up a user pays per command: interpreter start and the
# import of soclelab.cli
SETUP_SPANS = ("setup.interpreter", "setup.import")


def label_free_fields(report: dict) -> dict:
    """Fields of an analysis report that no relabeling of the group's
    elements may change. Coset representatives of socle blocks are labels,
    so only the sorted block dimensions are kept."""
    blocks = report["socle_blocks"]
    return {
        "order": report["group"]["order"],
        "class_count": report["group"]["class_count"],
        "p": report["p"],
        "dims": report["dims"],
        "ideal": report["ideal"],
        "shape": report["shape"],
        "socle_block_dims": None if blocks is None else sorted(d for _, d in blocks),
        "radical_basis_match": report["radical_basis_match"],
    }


class Tracer:
    """Spans as [name index, start, end, parent span index, note]."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, note=None):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [idx, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, kwargs, result)
            return result

        return traced

    def record(self, name: str, start: float, end: float) -> None:
        self.names.append(name)
        self.spans.append([len(self.names) - 1, start, end, -1, None])


def _rref_cells(args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    shape = getattr(a, "shape", None)
    if shape is None:
        shape = (len(a), len(a[0]) if len(a) else 0)
    return int(shape[0]) * int(shape[1]) if len(shape) == 2 else 0


def _analysis_row(args, kwargs, result):
    descriptor = kwargs.get("descriptor", args[2] if len(args) > 2 else None)
    return {"source": descriptor, "fields": label_free_fields(result)}


NOTES = {"fplin.rref": _rref_cells, "analysis.analyze_group": _analysis_row}


def install(tracer: Tracer, modules: dict) -> list[str]:
    """Patch every traced name; return the names that were not found."""
    package = [m for n, m in modules.items()
               if m is not None and (n == "soclelab" or n.startswith("soclelab."))]
    missing = []
    for name, modname, path in TARGETS:
        owner = modules.get(modname)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            missing.append(name)
            continue
        wrapper = tracer.wrap(name, original, NOTES.get(name))
        if outer:
            setattr(owner, attr, wrapper)
            continue
        for mod in package:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    return missing


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        sys.stderr.write("usage: traced.py OUT SPAWNED_AT -- ARGV...\n")
        return 64
    out_path, spawned_at, cli_argv = argv[0], float(argv[1]), argv[3:]
    tracer = Tracer()
    tracer.record(SETUP_SPANS[0], spawned_at, STARTED_AT)
    t0 = time.perf_counter()
    import soclelab.cli
    tracer.record(SETUP_SPANS[1], t0, time.perf_counter())
    for name in install(tracer, sys.modules):
        sys.stderr.write(f"traced.py: {name} not found, not traced\n")
    try:
        rc = soclelab.cli.run(cli_argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "wb") as fh:
            marshal.dump({"names": tracer.names, "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
