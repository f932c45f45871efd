"""Walkthrough of the layer-based diffusion mechanism on an 18-buyer tree.

The market: a seller with three direct neighbors (a, b, c) sells K=3 units.
Buyer b has invited a whole subtree of further buyers, some of whom invited
more. We run LDM-Tree step by step, showing the removed competitor sets, the
per-layer welfare optima, and where the payments (including b's reward for
diffusing) come from, then compare against plain first-layer VCG.

Run:  python demos/worked_tree_example.py
"""

from netauction.market import ReportProfile, ReportedType, compute_market, validate_profile
from netauction.mechanisms import outcome_welfare, run_ldm_tree, run_vcg_first_layer
from netauction.removed_sets import min_valid_mu, potential_inviters, potential_winners

LABELS = "abcdefghijklmnopqr"
VALUES = {
    "a": (1, 1, 1), "b": (2, 1, 1), "c": (4, 3, 1),
    "d": (11, 2, 1), "e": (9, 1, 1), "f": (3, 1, 1), "g": (5, 2, 1),
    "h": (6, 1, 1), "i": (5, 2, 1),
    "j": (4, 2, 1), "k": (8, 1, 0), "l": (7, 2, 1), "m": (6, 3, 2),
    "n": (5, 3, 1), "o": (4, 2, 2), "p": (3, 1, 1),
    "q": (2, 1, 0), "r": (1, 1, 1),
}
INVITES = {"b": "defghi", "f": "j", "g": "klmnop", "n": "q", "o": "r"}


def build_market():
    ids = {c: i for i, c in enumerate(LABELS)}
    reports = {
        ids[c]: ReportedType(VALUES[c], frozenset(ids[x] for x in INVITES.get(c, "")))
        for c in LABELS
    }
    profile = validate_profile(ReportProfile(
        k=3, seller_neighbors=frozenset({ids["a"], ids["b"], ids["c"]}),
        reports=reports))
    return ids, compute_market(profile)


def names(ids, group):
    inverse = {v: k for k, v in ids.items()}
    return "{" + ", ".join(sorted(inverse[i] for i in group)) + "}"


def main():
    ids, market = build_market()
    print("layers:", " | ".join(names(ids, layer) for layer in market.layers))

    mu = min_valid_mu(market)
    print(f"\nsmallest valid mu: {mu} (largest count of children-with-children)")
    for c in ("b", "g"):
        i = ids[c]
        print(f"  buyer {c}: diffusers C^P = {names(ids, potential_inviters(market, i))}, "
              f"potential winners C^W = {names(ids, potential_winners(market, i, mu))}")

    outcome = run_ldm_tree(market, mu)
    print("\nper-layer run:")
    for rec in outcome.trace.layers:
        print(f"  layer {rec.layer}: economy {names(ids, rec.included)}")
        print(f"    optimum welfare {rec.sw}, tentative units "
              + ", ".join(f"{LABELS[i]}:{u}" for i, u in sorted(rec.tentative_units.items())))
        print("    welfare without each member's influence: "
              + ", ".join(f"{LABELS[i]}={v}" for i, v in sorted(rec.sw_minus_d.items())))
        print(f"    units left afterwards: {rec.k_remain_after}")

    print("\nfinal allocation:",
          ", ".join(f"{LABELS[i]}:{u}" for i, u in sorted(outcome.units.items()) if u))
    print("payments:", ", ".join(f"{LABELS[i]}:{p}" for i, p in sorted(outcome.payments.items()) if p))
    print(f"seller revenue: {outcome.revenue}")
    print("note: buyer b sells nothing yet is PAID 4 -- the reward for inviting the")
    print("subtree that contains d, whose unit resells for far more than b's own bid.")

    vcg = run_vcg_first_layer(market)
    print(f"\nfirst-layer VCG benchmark: revenue {vcg.revenue}, "
          f"welfare {outcome_welfare(market, vcg)}")
    print(f"diffusion mechanism:       revenue {outcome.revenue}, "
          f"welfare {outcome_welfare(market, outcome)}")


if __name__ == "__main__":
    main()
