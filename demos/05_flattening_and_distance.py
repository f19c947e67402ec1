"""Sequences of GHSs: flattening through an oracle, and the distance
between splittings through the capped complexes.

Flattening minimizes, lexicographically, the multiset of keys of the
locally maximal GHSs over all zigzags joining two splittings; with a
stabilization tree it lands on the minimal common stabilization.
"""

from heegaard_lab.disk_complex import (
    build_gamma,
    components,
    splitting_distance,
)
from heegaard_lab.ghs import GHS
from heegaard_lab.handlebody import standard_diagram
from heegaard_lab.sog import (
    InventoryOracle,
    SymbolicBudget,
    SymbolicOracle,
    flatten,
    max_key,
    maximal_positions,
    minimal_positions,
    verify_single_maximal,
)

# Two genus-2 splittings whose stabilizations agree at genus 3:
oracle = InventoryOracle({2: ["P", "Q"], 3: ["R"]}, {"P": "R", "Q": "R"})
sog = flatten("P", "Q", oracle)
print("flatten P -> Q:", " -> ".join(sog.labels))
print("  MaxKey:", max_key(sog), " single maximal:", verify_single_maximal(sog))
print("  maxima at", maximal_positions(sog), ", minima at",
      minimal_positions(sog))

# When the earliest common stabilization is two levels up, the flattened
# sequence has to climb to genus 4:
oracle2 = InventoryOracle({2: ["P", "Q"], 3: ["R", "S"], 4: ["T"]},
                          {"P": "R", "Q": "S", "R": "T", "S": "T"})
sog2 = flatten("P", "Q", oracle2)
print("\nflatten P -> Q (deeper tree):", " -> ".join(sog2.labels))
print("  MaxKey:", max_key(sog2))

# The symbolic oracle enumerates every GHS within a budget and all moves
# between them; weak reductions let sequences dodge high-genus peaks.
symbolic = SymbolicOracle(SymbolicBudget(max_total_genus=4, max_levels=5))
print(f"\nsymbolic state space within budget: {len(symbolic.nodes())} GHSs")
sog3 = flatten(GHS.closed_splitting(2), GHS.closed_splitting(1), symbolic)
print("flatten [2] -> [1]:", " -> ".join(sog3.labels))

# Distance between the two dual destabilizing edges of the standard genus-2
# diagram: the cap-4 complex keeps them in one component, so it reports 0
# (the cap does not distinguish the splittings they produce).
d2 = standard_diagram(2)
gamma = build_gamma(d2, 4)
ones = sorted(e for e, i in gamma.edges.items() if i == 1)
print(f"\ngenus-2 complex at cap 4: {len(components(gamma))} component(s), "
      f"i=1 edges: {len(ones)}")
print("splitting distance:", splitting_distance(d2, ones[0], ones[1], 4))

# A diagram found by search whose cap-8 complex genuinely separates: each
# handle carries one dual pair and nothing within the cap bridges them, so
# the two destabilizations lead to splittings at positive distance.
from heegaard_lab.disk_complex import classify
from heegaard_lab.handlebody import validate_cut_system, HeegaardDiagram
from heegaard_lab.surface import CurveClass, ModelSurface, canonical_triangulation

tri = canonical_triangulation(2)
small = lambda e: min((tri.edge_loop_pushoff(e, s) for s in (0, 1)),
                      key=lambda v: (sum(v), v))
red = validate_cut_system(2, [CurveClass(2, small(tri.edge_index("a1"))),
                              CurveClass(2, small(tri.edge_index("a2")))])
blue = validate_cut_system(2, [CurveClass(2, (1, 0, 2, 1, 1, 2, 2, 2, 1)),
                               CurveClass(2, (2, 1, 1, 1, 1, 1, 2, 1, 0))])
twisted = HeegaardDiagram(ModelSurface(2), red, blue)
print("\ntwisted diagram:", classify(twisted, 8).summary())
g8 = build_gamma(twisted, 8)
ones = sorted(e for e, i in g8.edges.items() if i == 1)
print("splitting distance:", splitting_distance(twisted, ones[0], ones[1], 8))
