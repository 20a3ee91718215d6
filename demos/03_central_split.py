"""Splitting a central product back into its building blocks.

Gluing two copies of the order-24 group along their centers gives an
order-288 group whose socle is still an ideal. The splitting routine
recovers two order-24 components from nothing but the group itself: it
finds the minimal normal factors of the second-derived quotient, picks a
seed conjugacy class and a cyclic multiplier per factor, and closes them
up into subgroups.

Run:  python3 demos/03_central_split.py
"""

from soclelab import parse_family
from soclelab.structure import examine_sylow_split, split_into_central_factors

g = parse_family("central(sl2(3),sl2(3))")
print(f"group {g.name}: order {g.order}, center size {g.center().size}")

# one context per (group, p): shape data, center algebra, decomposition
ctx = examine_sylow_split(g, 2)
print(f"socle ideal verdicts: {ctx.alg.socle_ideal_verdict()}")

dec = ctx.decomposition()
print(f"\nsecond-derived quotient: {dec.n} minimal normal factors, "
      f"sizes {[f.size for f in dec.factors]}")
print(f"multipliers (complement elements acting transitively on each "
      f"factor): {dec.multipliers}")

# the call raises ConsistencyError naming any verification that fails
cs = split_into_central_factors(ctx)
print(f"\ncomponents recovered: orders {cs['component_orders']}")
print(f"seed classes: {cs['seeds']}")
print(f"affine model matched by: {cs['model_method']}")
print("every verification on the components passed")
