"""Hunting incentive counterexamples: DNA-MU falls, LDM survives.

DNA-MU allocates unit-demand buyers layer by layer, pricing each buyer
against the market with her subtree removed. The harness searches seeded
random trees for a buyer who gains by hiding an invite; it finds one quickly.
The same search budget applied to the layer-based mechanism comes back empty.

Run:  python demos/counterexample_hunt.py
"""

from netauction.instance_io import GeneratorConfig, instance_stream, serialize_instance
from netauction.market import compute_market
from netauction.mechanisms import run_dna_mu
from netauction.removed_sets import robust_mu
from netauction.verify import dna_mu_mechanism, ldm_mechanism, search_counterexample

FAMILY = GeneratorConfig(seed=113, buyers=(5, 7), k=(4, 4), v_max=10,
                         topology="tree", max_depth=3, seller_bias=0.45)


def main():
    print("searching random trees (up to 7 buyers, 4 units) for a buyer who")
    print("profits by hiding a neighbor from DNA-MU...")
    found = search_counterexample(dna_mu_mechanism(), instance_stream(FAMILY, 20000), 20000)
    assert found is not None
    _, report = found
    hidden = sorted(report.truthful_report.invited - report.deviating_report.invited)
    label = report.instance.label_of
    print(f"\nfound: buyer {label(report.buyer)} hides {[label(h) for h in hidden]}:")
    print(f"  utility when inviting everyone: {report.truthful_utility}")
    print(f"  utility after hiding:           {report.deviating_utility}")

    truthful = run_dna_mu(compute_market(report.instance))
    deviated = run_dna_mu(compute_market(
        report.instance.with_report(report.buyer, report.deviating_report)))
    print(f"  truthful outcome: units {truthful.units_of(report.buyer)}, "
          f"pays {truthful.payment_of(report.buyer)}")
    print(f"  deviated outcome: units {deviated.units_of(report.buyer)}, "
          f"pays {deviated.payment_of(report.buyer)}")
    print("\nreplayable fixture:")
    print(serialize_instance(report.instance))

    print("same family, same budget, layer-based mechanism:")
    clean = search_counterexample(
        lambda inst: ldm_mechanism(robust_mu(inst)),
        instance_stream(FAMILY, 2000), 2000)
    print("  no violation found" if clean is None else f"  UNEXPECTED: {clean}")


if __name__ == "__main__":
    main()
