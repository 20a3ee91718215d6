"""Constructing an explicit central element that breaks ideal-ness.

The twisted affine family glues the field multiplication action onto a
doubled translation part. At parameter (2,4,1) the resulting order-3840
group has the right shape (normal special Sylow subgroup, transitive
cyclic complement action, a complement element centralizing the second
derived subgroup) but its Sylow subgroup is not a Camina group. The
witness routine then produces a concrete socle element with a nonzero
coefficient pattern that no derived-coset combination can reproduce,
certifying that the socle is not an ideal without any search.

Run:  python3 demos/04_nonideal_witness.py   (about five seconds)
"""

import numpy as np

from soclelab import parse_family
from soclelab.structure import build_nonideal_witness, examine_sylow_split

g = parse_family("twisted_affine(2,4,1)", max_order=4000)
print(f"group {g.name}: order {g.order}")

ctx = examine_sylow_split(g, 2)
print(f"dims: {ctx.alg.dims()}")
print(f"socle ideal verdicts: {ctx.alg.socle_ideal_verdict()}")

w = build_nonideal_witness(ctx)

print(f"\ncommutator core order {w['commutator_core_order']} "
      f"< second derived order {w['second_derived_order']}:")
print("the gap is what the kernel functional exploits")
print(f"functional values on the second-derived generators: "
      f"{w['kernel_functional']['values']}")

y = np.array(w["vector"])
print(f"\nwitness vector: {int((y != 0).sum())} nonzero coefficients "
      f"out of {g.order}")
print(f"supported on classes {w['support_classes']}")
for name, ok in w["checks"].items():
    print(f"  {name}: {ok}")
