"""One group, one prime, one report.

analyze_group runs every computation the package offers on a single
(group, prime) pair and folds the results into a plain dict that
serializes to stable JSON: dimensions, the two ideal verdicts, shape
flags, and one sub-report per structural theorem check. All of them
share one AnalysisContext, so the center algebra and the decomposition of
G/G'' are built at most once per report. Checks whose preconditions fail
are reported as inapplicable, never as errors; a falsified verification
lands in consistency_failures, each distinct text once, and the caller
decides how loudly to fail.
"""

from __future__ import annotations

import time

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
    """Full analysis of one group at one prime. theorems: "none" computes
    only dimensions and the ideal verdicts; "auto" and its synonym "all"
    also run the structural checks."""
    if theorems not in ("none", "auto", "all"):
        raise UnsupportedInputError(f"unknown theorems mode {theorems!r}")
    check_prime(p)

    t0 = time.perf_counter()
    failures: list[str] = []
    ctx = examine_sylow_split(group, p)
    alg = ctx.alg

    try:
        direct, criterion = alg.socle_ideal_verdict()
        ideal = {"direct": direct, "criterion": criterion}
    except ConsistencyError as e:
        failures.append(str(e))
        ideal = {"direct": None, "criterion": None}
        direct = None

    try:
        dims = {k: int(v) for k, v in alg.dims().items()}
    except ConsistencyError as e:
        failures.append(str(e))
        dims = {"center": int(alg.k), "radical": None, "socle": None}
    blocks = None
    if ctx.sylow_normal:
        try:
            blocks = [[int(r), int(d)]
                      for r, d in alg.socle_coset_decomposition(ctx.sylow)]
        except ConsistencyError as e:
            if direct and ctx.reduced:
                failures.append(str(e))

    shape = {k: bool(v) for k, v in ctx.flags.items()}
    shape["sylow_normal"] = ctx.sylow_normal
    shape["reduced"] = bool(ctx.reduced)
    shape["frobenius_with_derived_kernel"] = bool(
        group.is_frobenius_with_kernel(ctx.derived))

    radical_basis_match = None
    if ctx.reduced and dims["radical"] is not None:
        radical_basis_match = bool(
            alg.radical_span_from_classes() == alg.jacobson_radical())
        if not radical_basis_match:
            failures.append(
                "predicted radical basis does not span the nilradical")

    report = {
        "schema_version": SCHEMA_VERSION,
        "group": {
            "descriptor": descriptor if descriptor is not None else group.name,
            "order": int(group.order),
            "class_count": int(alg.k),
        },
        "p": int(p),
        "dims": dims,
        "socle_blocks": blocks,
        "ideal": ideal,
        "shape": shape,
        "radical_basis_match": radical_basis_match,
        "theorems": {},
        "consistency_failures": failures,
    }

    # built per call, so that a caller who rebinds a check in its module
    # (a tracer, a test) is seen; unmet preconditions make a check
    # inapplicable, a falsified verification makes it failed
    checks = (("quotient_decomposition", _quotient_decomposition),
              ("ideal_characterization", characterize_socle_ideal),
              ("central_split", split_into_central_factors),
              ("annihilator_reduction", check_annihilator_reduction),
              ("reduction", _reduction))
    for name, check in checks if theorems != "none" and direct is not None else ():
        try:
            report["theorems"][name] = {"status": "passed", **check(ctx)}
        except InapplicableError as e:
            report["theorems"][name] = {"status": "inapplicable", "reason": str(e)}
        except ConsistencyError as e:
            failures.append(str(e))
            report["theorems"][name] = {"status": "failed", "reason": str(e)}

    report["consistency_failures"] = list(dict.fromkeys(failures))
    report["timing"] = {"seconds": round(time.perf_counter() - t0, 6)}
    return report
