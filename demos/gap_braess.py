#!/usr/bin/env python3
"""How far can demand drift before a pooling block splits?

The gap of an instance is the smallest capacity surplus over any demand
subset whose trimmed neighborhood leaves slack.  Any demand change that
keeps the total, stays feasible, and moves less than twice the gap in l1
norm can merge blocks but never split one.  Counterintuitively, adding an
edge can shrink the relevant surplus: a Braess-style example below.
"""

from fractions import Fraction

from procflex import check_perturbation, crp_decomposition, crp_gap, make_instance

inst = make_instance(
    demand=[1, 1, 2, 2, 1],
    supply=[2, 1, 1, 1, 2],
    edges=[
        (1, 2), (1, 3), (1, 5), (2, 1), (2, 4),
        (3, 1), (3, 3), (4, 4), (4, 5), (5, 5),
    ],
)
report = crp_gap(inst)
print(f"gap {report.crp_gap}, attained by demand subset {sorted(report.argmin_set)}")
print(f"alternative gap over untrimmed neighborhoods: {report.alt_gap}")

for omega in ([Fraction(1, 2), 0, 0, 0, Fraction(-1, 2)],
              [Fraction(3, 2), 0, 0, 0, Fraction(-3, 2)]):
    chk = check_perturbation(inst, omega)
    moved = sum(abs(w) for w in chk.omega)
    if chk.admissible:
        print(f"shift of l1 size {moved}: admissible,"
              f" blocks {chk.base_erp} -> {chk.perturbed_erp}")
    else:
        print(f"shift of l1 size {moved}: rejected ({chk.reasons[0]})")

# a tiny standalone pair of rate xi next to two big imbalanced queues
xi = Fraction(1, 20)
demand = [xi, 1, 1]
supply = [xi, Fraction(11, 10), Fraction(9, 10)]
without = make_instance(demand, supply, [(1, 1), (2, 2), (3, 3), (3, 2)])
with_extra = make_instance(demand, supply,
                           [(1, 1), (2, 2), (3, 3), (3, 2), (2, 1)])

print(f"\ntiny pair of rate xi = {xi} beside two big queues:")
for name, g in (("without edge (2,1)", without), ("with edge (2,1)", with_extra)):
    rep = crp_gap(g)
    print(f"  {name}: blocks {crp_decomposition(g).erp_number}, gap {rep.crp_gap},"
          f" alternative gap {rep.alt_gap}")
print("  the new edge never carries flow and the trimmed gap ignores it,")
print("  but it drags the tiny pair into the big queues' untrimmed")
print("  neighborhood and shrinks that surplus from 1/10 down to xi")
