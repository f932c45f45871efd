"""IR, invitation-IC and value-IC read one deviation per (buyer, invitation
subset): the deviated market is built once, and for LDM the value rerun on
it answers the invitation checks at the buyer's true values.

`reference_verify` is the oracle: a fresh market and a full run per proper
subset for the invitation table, and a second fresh market per subset for
value-IC. Report lists and errors must be identical.
"""

import pytest

from netauction import mechanisms, verify
from netauction.errors import MuTooSmall
from netauction.instance_io import GeneratorConfig, instance_stream, parse_instance
from netauction.mechanisms import inject_dummies
from netauction.removed_sets import robust_mu
from netauction.verify import (MechanismUnderTest, check_invitation_ic, check_ir,
                               check_value_ic, dna_mu_mechanism, integer_value_grid,
                               ldm_mechanism, run_properties, vcg_mechanism)

import reference_verify as ref
from conftest import DATA
from test_value_rerun import first_price

STREAMS = (
    GeneratorConfig(seed=301, buyers=(2, 8), k=(1, 3), v_max=10, topology="tree"),
    GeneratorConfig(seed=302, buyers=(2, 8), k=(1, 3), v_max=10, topology="graph",
                    edge_density=0.15),
)
FIXTURES = ("fig3", "t4", "dna_mu_counterexample")
CHECKS = ("ir", "invite-ic", "value-ic")


def fixture(name):
    return parse_instance((DATA / f"{name}.json").read_text())


def profiles():
    return [*(p for config in STREAMS for p in instance_stream(config, 12)),
            *(fixture(name) for name in FIXTURES)]


def first_price_with_own_rerun():
    """The same black box with a value rerun of its own, so the invitation
    checks read it at the true values."""

    def value_rerun(market, i):
        def rerun(v):
            outcome = first_price(market.with_values(i, v))
            return outcome.units_of(i), outcome.payment_of(i)
        return rerun

    return MechanismUnderTest("first-price", first_price, value_rerun)


def grid(instance, i):
    return integer_value_grid(instance, i, cap=24)


def shared_reports(mechanism, profile, order):
    """The three checks on one shared truthful instance, run in `order`."""
    truth = verify._Truthful(mechanism, profile)
    checks = {"ir": lambda: check_ir(mechanism, profile, truth=truth),
              "invite-ic": lambda: check_invitation_ic(mechanism, profile, truth=truth),
              "value-ic": lambda: check_value_ic(mechanism, profile, grid, truth=truth)}
    return {name: checks[name]() for name in order}


@pytest.mark.parametrize("name", ["ldm", "dna-mu", "vcg-l1", "first-price",
                                  "first-price-own-rerun"])
def test_reports_match_the_reference(name):
    found = 0
    for profile in profiles():
        mechanism = {"ldm": lambda: ldm_mechanism(robust_mu(profile)),
                     "dna-mu": dna_mu_mechanism, "vcg-l1": vcg_mechanism,
                     "first-price": lambda: MechanismUnderTest("first-price", first_price),
                     "first-price-own-rerun": first_price_with_own_rerun}[name]()
        expected = {"ir": ref.check_ir(mechanism, profile),
                    "invite-ic": ref.check_invitation_ic(mechanism, profile),
                    "value-ic": ref.check_value_ic(mechanism, profile, grid)}
        for order in (CHECKS, CHECKS[::-1]):
            assert shared_reports(mechanism, profile, order) == expected
        found += sum(map(len, expected.values()))
    # DNA-MU's counterexample and first-price's overbids are found; LDM and
    # first-layer VCG are clean
    assert (found > 0) == (name in ("dna-mu", "first-price", "first-price-own-rerun"))


def test_reports_match_the_reference_with_reserve_dummies():
    profile = inject_dummies(fixture("fig3"), 4)
    for mechanism in (ldm_mechanism(robust_mu(profile)), vcg_mechanism()):
        expected = [ref.check_ir(mechanism, profile), ref.check_invitation_ic(mechanism, profile),
                    ref.check_value_ic(mechanism, profile, grid)]
        assert list(shared_reports(mechanism, profile, CHECKS).values()) == expected


def test_run_properties_matches_the_reference_at_the_default_grid():
    for profile in profiles():
        results = run_properties(profile, "ldm", CHECKS)
        mechanism = ldm_mechanism(robust_mu(profile) if profile.mu is None else profile.mu)
        assert [r.reports for r in results] == [
            tuple(ref.check_ir(mechanism, profile)),
            tuple(ref.check_invitation_ic(mechanism, profile)),
            tuple(ref.check_value_ic(mechanism, profile))]


def test_each_deviated_market_is_built_once_and_ldm_runs_once(monkeypatch):
    """`1 + Σ_valid (2^|invited| - 1)` markets, where building the table and
    value-IC's reruns apart takes `1 + 2Σ`, and one LDM run, on the truthful
    market: every proper subset is answered by its value rerun."""
    built, runs = [], []
    build, run = verify.compute_market, mechanisms.run_ldm_tree
    monkeypatch.setattr(verify, "compute_market",
                        lambda profile: built.append(profile) or build(profile))
    monkeypatch.setattr(mechanisms, "run_ldm_tree",
                        lambda market, *args, **kw: runs.append(market) or run(market, *args, **kw))
    checked = 0
    for profile in profiles():
        built.clear()
        runs.clear()
        assert all(r.ok for r in run_properties(profile, "ldm", CHECKS))
        truthful = build(profile)
        proper = sum(2 ** len(profile.reports[i].invited) - 1 for i in truthful.valid)
        assert len(built) == 1 + proper
        assert len(runs) == 1 and runs[0].profile is profile
        checked += proper
    assert checked > 200


@pytest.mark.parametrize("prop", CHECKS)
def test_fig4_raises_mu_too_small_where_the_reference_does(monkeypatch, prop):
    """fig4 pins mu = 2, and a shrunk invitation set grows a C^P to 3. Each
    check raises the same error, on the same (buyer, subset), as the
    reference."""
    profile = fixture("fig4")
    mechanism = ldm_mechanism(profile.mu)
    reference = {"ir": ref.check_ir, "invite-ic": ref.check_invitation_ic,
                 "value-ic": ref.check_value_ic}[prop]
    last = {}

    def recording(module):
        build = module.compute_market
        monkeypatch.setattr(module, "compute_market",
                            lambda p: last.__setitem__(module, p.reports) or build(p))

    recording(verify)
    recording(ref)
    with pytest.raises(MuTooSmall) as raised:
        run_properties(profile, "ldm", (prop,))
    with pytest.raises(MuTooSmall) as expected:
        reference(mechanism, profile)
    assert str(raised.value) == str(expected.value) == "mu=2 is below the required bound 3"
    assert last[verify] == last[ref] != profile.reports
