#!/usr/bin/env python3
"""Walk through a CRP decomposition on a 5x5 instance.

The graph below looks well connected, yet three of its edges can never
carry flow.  Removing them splits the system into three independent
pooling blocks, and the leftover edges arrange the blocks into a DAG.
"""

from procflex import crp_decomposition, make_instance, ssc_basis

inst = make_instance(
    demand=[1, 1, 2, 2, 1],
    supply=[2, 1, 1, 1, 2],
    edges=[
        (1, 2), (1, 3), (1, 5), (2, 1), (2, 4),
        (3, 1), (3, 3), (4, 4), (4, 5), (5, 5),
    ],
)
print(f"instance: {inst.m} demands, {inst.n} supplies, {len(inst.edges)} edges")

decomp = crp_decomposition(inst)
print(f"\nredundant edges (zero in every feasible assignment):")
for e in sorted(decomp.redundant_edges):
    print(f"  {e[0]} -> {e[1]}")

print(f"\neffective resource pooling splits the system into "
      f"{decomp.erp_number} blocks:")
for label, comp in enumerate(decomp.components, start=1):
    nu = sum(inst.demand[i - 1] for i in comp.demands)
    print(f"  block {label}: demands {set(comp.demands)} <- supplies "
          f"{set(comp.supplies)}  (rate {nu})")

dag = decomp.dag
print("\nthe redundant edges point exclusively from earlier blocks to later")
print("ones, so the block graph is acyclic:")
for (a, b), k in sorted(dag.edges.items()):
    print(f"  block {a} -> block {b}  (x{k})")

print("\nin heavy traffic the queue vector collapses onto the span of the")
print("block indicator vectors:")
for vec in ssc_basis(decomp):
    print(f"  {vec}")
