"""One group, one prime, one report.

analyze_group runs every computation the package offers on a single
(group, prime) pair and folds the results into a plain dict that
serializes to stable JSON: dimensions, the two ideal verdicts, shape
flags, and one sub-report per structural theorem check. All of them
share one AnalysisContext, so the center algebra and the decomposition of
G/G'' are built at most once per report. Checks whose preconditions fail
are reported as inapplicable, never as errors; a falsified verification
lands in consistency_failures and the caller decides how loudly to fail.
"""

from __future__ import annotations

import time

from .errors import ConsistencyError, InapplicableError, UnsupportedInputError
from .fplin import P_LIMIT, is_prime
from .groups import FiniteGroup, prime_factors
from .structure import (check_annihilator_reduction, check_quotient_decomposition,
                        characterize_socle_ideal, examine_sylow_split,
                        reduce_to_core, split_into_central_factors)

SCHEMA_VERSION = 1


def default_prime(group: FiniteGroup) -> int:
    """Smallest prime dividing |G'| when G' is nontrivial, else smallest
    prime dividing |G| (2 for the trivial group)."""
    der = group.derived_subgroup()
    base = der.size if der.size > 1 else group.order
    facs = prime_factors(base)
    if not facs:
        return 2
    return facs[0]


def _witness_summary(w: dict) -> dict:
    return {
        "seed": w["seed"],
        "multiplier": w["multiplier"],
        "fixer": w["fixer"],
        "commutator_core_order": w["commutator_core_order"],
        "second_derived_order": w["second_derived_order"],
        "support_classes": w["support_classes"],
        "nonzero_coefficients": sum(1 for v in w["vector"] if v),
        "kernel_functional": w["kernel_functional"],
        "checks": w["checks"],
    }


def analyze_group(group: FiniteGroup, p: int, descriptor: str | None = None,
                  theorems: str = "auto") -> dict:
    """Full analysis of one group at one prime. theorems: "none" computes
    only dimensions and the ideal verdicts; "auto" and its synonym "all"
    also run the structural checks."""
    if theorems not in ("none", "auto", "all"):
        raise UnsupportedInputError(f"unknown theorems mode {theorems!r}")
    if p >= P_LIMIT or not is_prime(p):
        raise UnsupportedInputError(f"p = {p} is not a prime below 2**16")

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

    dims = {k: int(v) for k, v in alg.dims().items()}
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
    if ctx.reduced:
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

    if theorems == "none" or direct is None:
        report["timing"] = {"seconds": round(time.perf_counter() - t0, 6)}
        return report

    th = report["theorems"]

    def quotient_decomposition() -> dict:
        dec = ctx.decomposition()
        entry = {
            "status": "computed",
            "n": dec.n,
            "factor_sizes": [int(f.size) for f in dec.factors],
            "multipliers": [None if m is None else int(m)
                            for m in dec.multipliers],
            "fixers": [None if h is None else int(h) for h in dec.fixers],
            "central_image_order": int(dec.central_image.size),
        }
        if direct:
            entry["checks"] = check_quotient_decomposition(ctx)
            entry["status"] = "passed"
        return entry

    def ideal_characterization() -> dict:
        ch = characterize_socle_ideal(ctx)
        return {
            "status": "passed",
            "affine_match": ch.affine_match,
            "affine_method": ch.affine_method,
            "has_fixer": ch.has_fixer,
            "derived_camina": ch.derived_camina,
            "predicted": ch.predicted,
            "direct": ch.direct,
            "witness": None if ch.witness is None else _witness_summary(ch.witness),
            "notes": ch.notes,
        }

    def central_split() -> dict:
        cs = split_into_central_factors(ctx)
        return {
            "status": "passed",
            "seeds": cs.seeds,
            "multipliers": cs.multipliers,
            "component_orders": cs.component_orders,
            "model_method": cs.model_method,
        }

    def annihilator_reduction() -> dict:
        return {"status": "passed",
                **check_annihilator_reduction(ctx)}

    def reduction() -> dict:
        core, steps = reduce_to_core(ctx)
        return {"status": "passed", "core_order": int(core.order), "steps": steps}

    # each check's entry goes under its name; unmet preconditions make it
    # inapplicable, a falsified verification makes it failed
    for check in (quotient_decomposition, ideal_characterization, central_split,
                  annihilator_reduction, reduction):
        try:
            th[check.__name__] = check()
        except InapplicableError as e:
            th[check.__name__] = {"status": "inapplicable", "reason": str(e)}
        except ConsistencyError as e:
            failures.append(str(e))
            th[check.__name__] = {"status": "failed", "reason": str(e)}

    report["timing"] = {"seconds": round(time.perf_counter() - t0, 6)}
    return report
