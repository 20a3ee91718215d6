"""One group, one prime, one report.

analyze_group runs a table of stages on one AnalysisContext, so the center
algebra and the decomposition of G/G'' are built once per report, and
folds their results into a plain dict that serializes to stable JSON. A
section whose stage raises ConsistencyError takes its row's fixed value; a
structural check is passed, failed, or inapplicable (an unmet precondition,
never an error). Each failure text is listed once in consistency_failures,
and the caller decides how loudly to fail. timing.stages times each stage.
"""

from __future__ import annotations

from time import perf_counter as clock

from .errors import ConsistencyError, InapplicableError, UnsupportedInputError
from .fplin import check_prime
from .groups import FiniteGroup, prime_factors
from .structure import (AnalysisContext, check_annihilator_reduction,
                        check_quotient_decomposition, characterize_socle_ideal,
                        examine_sylow_split, reduce_to_core,
                        split_into_central_factors)

SCHEMA_VERSION = 1


def default_prime(group: FiniteGroup) -> int:
    """Smallest prime dividing |G'| when G' is nontrivial, else smallest
    prime dividing |G| (2 for the trivial group)."""
    der = group.derived_subgroup()
    base = der.size if der.size > 1 else group.order
    return (prime_factors(base) or [2])[0]


def _socle_blocks(ctx: AnalysisContext) -> list | None:
    """Socle dimension per coset of a normal Sylow subgroup. A socle that
    does not split along the cosets is a failure only on the reduced shape
    with an ideal socle (a failed verdict raises its own text again)."""
    if not ctx.sylow_normal:
        return None
    try:
        return [list(b) for b in ctx.alg.socle_coset_decomposition(ctx.sylow)]
    except ConsistencyError:
        if ctx.reduced and ctx.ideal:
            raise
        return None


def _shape(ctx: AnalysisContext) -> dict:
    frobenius = ctx.group.is_frobenius_with_kernel(ctx.derived)
    return {**ctx.flags, "sylow_normal": ctx.sylow_normal, "reduced": ctx.reduced,
            "frobenius_with_derived_kernel": frobenius}


def _radical_basis_match(ctx: AnalysisContext) -> bool | None:
    """The radical vectors of the nontrivial classes span the radical, on
    the reduced shape; null elsewhere and when the radical itself fails."""
    if not ctx.reduced:
        return None
    try:
        rad = ctx.alg.jacobson_radical()
    except ConsistencyError:
        return None
    if ctx.alg.radical_span_from_classes() != rad:
        raise ConsistencyError("predicted radical basis does not span the nilradical")
    return True


def _quotient_decomposition(ctx: AnalysisContext) -> dict:
    """The decomposition of G/G''. Its checks are promised only when the
    socle is an ideal; otherwise they do not run and the status is
    "computed"."""
    dec = ctx.decomposition()
    entry = {
        "n": dec.n,
        "factor_sizes": [int(f.size) for f in dec.factors],
        "multipliers": [None if m is None else int(m) for m in dec.multipliers],
        "fixers": [None if h is None else int(h) for h in dec.fixers],
        "central_image_order": int(dec.central_image.size),
    }
    if ctx.ideal:
        entry["checks"] = check_quotient_decomposition(ctx)
    else:
        entry["status"] = "computed"
    return entry


def _reduction(ctx: AnalysisContext) -> dict:
    core, steps = reduce_to_core(ctx)
    return {"core_order": int(core.order), "steps": steps}


def analyze_group(group: FiniteGroup, p: int, descriptor: str | None = None,
                  theorems: str = "auto") -> dict:
    """Full analysis of one group at one prime. theorems: "none" runs only
    the sections; "auto" and its synonym "all" also run the checks."""
    if theorems not in ("none", "auto", "all"):
        raise UnsupportedInputError(f"unknown theorems mode {theorems!r}")
    check_prime(p)

    t0 = clock()
    ctx = examine_sylow_split(group, p)
    stages = [["context", round(clock() - t0, 6)]]
    failures: list[str] = []
    report = {"schema_version": SCHEMA_VERSION, "p": int(p), "theorems": {},
              "group": {"descriptor": group.name if descriptor is None else descriptor,
                        "order": int(group.order), "class_count": int(ctx.alg.k)}}

    # built per call: a caller who rebinds a function in its module is seen
    sections = (("ideal", lambda c: dict(zip(("direct", "criterion"),
                                             c.alg.socle_ideal_verdict())),
                 {"direct": None, "criterion": None}),
                ("dims", lambda c: c.alg.dims(),
                 {"center": ctx.alg.k, "radical": None, "socle": None}),
                ("socle_blocks", _socle_blocks, None),
                ("shape", _shape, None),
                ("radical_basis_match", _radical_basis_match, False))
    for key, stage, on_failure in sections:
        start = clock()
        try:
            report[key] = stage(ctx)
        except ConsistencyError as e:
            failures.append(str(e))
            report[key] = on_failure
        stages.append([key, round(clock() - start, 6)])

    checks = (("quotient_decomposition", _quotient_decomposition),
              ("ideal_characterization", characterize_socle_ideal),
              ("central_split", split_into_central_factors),
              ("annihilator_reduction", check_annihilator_reduction),
              ("reduction", _reduction))
    run_checks = theorems != "none" and report["ideal"]["direct"] is not None
    for name, check in checks if run_checks else ():
        start = clock()
        try:
            report["theorems"][name] = {"status": "passed", **check(ctx)}
        except InapplicableError as e:
            report["theorems"][name] = {"status": "inapplicable", "reason": str(e)}
        except ConsistencyError as e:
            failures.append(str(e))
            report["theorems"][name] = {"status": "failed", "reason": str(e)}
        stages.append([name, round(clock() - start, 6)])

    report["consistency_failures"] = list(dict.fromkeys(failures))
    report["timing"] = {"seconds": round(clock() - t0, 6), "stages": stages}
    return report
