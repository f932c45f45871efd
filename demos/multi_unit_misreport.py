"""Why unit-demand tricks break under multi-unit demand.

Take DNA-MU's pricing idea and extend it naively to value vectors: let each
buyer keep taking units while her next marginal beats the running price. The
moment valuations are multi-dimensional, a buyer can pad her LOW marginals to
imitate the competitive pressure her hidden neighbors would have created,
and the value-misreport checker finds the exploit immediately. The
layer-based mechanism passes the same checker on the same instances.

Run:  python demos/multi_unit_misreport.py
"""

from netauction.instance_io import GeneratorConfig, instance_stream
from netauction.mechanisms import Outcome
from netauction.removed_sets import robust_mu
from netauction.verify import MechanismUnderTest, check_value_ic, ldm_mechanism


def naive_multi_unit_dna(market):
    """Sequential pricing over full marginal vectors; demonstration only."""
    k_remaining = market.k
    winners: set = set()
    units = {i: 0 for i in market.valid}
    payments = {i: 0 for i in market.valid}
    for layer in market.layers:
        if k_remaining == 0:
            break
        for i in sorted(layer):
            if k_remaining == 0:
                break
            pool = market.valid - market.subtree(i) - winners - {i}
            marginals = sorted(
                (v for j in pool for v in market.values_of(j)), reverse=True)
            values = market.values_of(i)
            taken = paid = 0
            while taken < len(values) and k_remaining > 0:
                price = marginals[k_remaining - 1] if len(marginals) >= k_remaining else 0
                if values[taken] < price:
                    break
                taken += 1
                paid += price
                k_remaining -= 1
            if taken:
                units[i], payments[i] = taken, paid
                winners.add(i)
    return Outcome(units=units, payments=payments)


def main():
    mech = MechanismUnderTest("naive-multi-unit-dna", naive_multi_unit_dna)
    config = GeneratorConfig(seed=32, buyers=(3, 6), k=(2, 2), v_max=8, topology="tree")
    print("probing the naive vector extension with integer misreport grids...")
    for index, instance in enumerate(instance_stream(config, 200)):
        found = check_value_ic(mech, instance)
        if found:
            r = found[0]
            label = instance.label_of
            print(f"\nexploit on market {index}: buyer {label(r.buyer)}")
            print(f"  true marginals:      {list(r.truthful_report.values)}")
            print(f"  reported marginals:  {list(r.deviating_report.values)} "
                  "(low units padded upward)")
            print(f"  utility: {r.truthful_utility} -> {r.deviating_utility}")
            print("\nthe same instance under the layer-based mechanism:")
            clean = check_value_ic(ldm_mechanism(robust_mu(instance)), instance)
            print("  value misreports: none profitable" if not clean
                  else f"  UNEXPECTED: {clean[0]}")
            break
    else:
        print("no exploit found (unexpected for this family)")


if __name__ == "__main__":
    main()
