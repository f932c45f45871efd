"""Shared fixtures: the worked tree example from the figures, the small
hand-traced market T4, a profile-building shorthand, and a counter of the
LDM value reruns the checks read."""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

import pytest

try:
    from netauction.market import ReportProfile, ReportedType, validate_profile
except ImportError:  # running from a checkout without the editable install
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from netauction.market import ReportProfile, ReportedType, validate_profile
from netauction import verify
from netauction.removed_sets import removed_sets_for

DATA = Path(__file__).parent / "data"

# An integer literal past int()'s digit limit, and nesting past the
# decoder's recursion limit: both are malformed input, not crashes.
HUGE_K = '{"k": 1' + "0" * 5000 + ', "seller_neighbors": [], "buyers": {}}'
DEEP_META = ('{"k": 1, "seller_neighbors": [], "buyers": {}, "meta": '
             + "[" * 100_000 + "]" * 100_000 + "}")

FIG3_LABELS = "abcdefghijklmnopqr"
FIG3_VALUES = {
    "a": (1, 1, 1), "b": (2, 1, 1), "c": (4, 3, 1),
    "d": (11, 2, 1), "e": (9, 1, 1), "f": (3, 1, 1), "g": (5, 2, 1),
    "h": (6, 1, 1), "i": (5, 2, 1),
    "j": (4, 2, 1), "k": (8, 1, 0), "l": (7, 2, 1), "m": (6, 3, 2),
    "n": (5, 3, 1), "o": (4, 2, 2), "p": (3, 1, 1),
    "q": (2, 1, 0), "r": (1, 1, 1),
}
FIG3_INVITES = {"b": "defghi", "f": "j", "g": "klmnop", "n": "q", "o": "r"}


def make_profile(k: int, seller, buyers: dict) -> ReportProfile:
    """buyers: id -> (values tuple, iterable of invited ids)."""
    reports = {
        i: ReportedType(tuple(values), frozenset(invited))
        for i, (values, invited) in buyers.items()
    }
    return validate_profile(
        ReportProfile(k=k, seller_neighbors=frozenset(seller), reports=reports)
    )


def ldm_walked(profile: ReportProfile, market) -> dict:
    """Each valid buyer's proper invitation reports that LDM's checks walk
    on `profile`, whose market is `market`: on an instance that is its own
    BFS tree a buyer with two or more invitations is certified and walks
    one, the empty set; every other buyer walks one report per class, each
    of the 2^|C_i| - 1 proper subsets of her market children C_i with her
    other invitees kept."""
    reports = profile.reports
    own = all(reports[i].invited == market.children[i] for i in market.valid)
    walked = {}
    for i in market.valid:
        elems, kept = sorted(market.children[i]), reports[i].invited - market.children[i]
        walked[i] = ([frozenset()] if own and len(elems) >= 2 else
                     [frozenset(c) | kept for r in range(len(elems))
                      for c in itertools.combinations(elems, r)])
    return walked


def ldm_walked_classes(profile: ReportProfile, market) -> int:
    """The count of `ldm_walked`'s reports: on a graph, the deviated markets
    the checks of a tree-reading mechanism build, one per walked report."""
    return sum(map(len, ldm_walked(profile, market).values()))


def counted_reruns(monkeypatch) -> list:
    """Record each LDM value rerun the checks read as (path, market, buyer,
    rerun): "set-up" for each `ldm_value_rerun`, "run" for each one read
    from the truthful run, where `ldm_run_value_rerun` answers."""
    reruns = []
    set_up, read = verify.ldm_value_rerun, verify.ldm_run_value_rerun

    def setting_up(market, mu, i):
        found = set_up(market, mu, i)
        reruns.append(("set-up", market, i, found))
        return found

    def reading(trace, i, kept):
        found = read(trace, i, kept)
        if found is not None:
            reruns.append(("run", trace.market, i, found))
        return found

    monkeypatch.setattr(verify, "ldm_value_rerun", setting_up)
    monkeypatch.setattr(verify, "ldm_run_value_rerun", reading)
    return reruns


def outside_parent_removed_set(market, mu: int, i) -> bool:
    """Whether valid buyer i sits below layer 1 in no C^R, so free in her
    parent's layer: the one buyer whose truthful-market rerun is set up."""
    return market.layer_of[i] > 1 and all(i not in c_r
                                          for c_r in removed_sets_for(market, mu).values())


def chain_profile(n: int, k: int) -> ReportProfile:
    """Buyers 0..n-1 in one invitation chain from the seller, values falling."""
    return make_profile(k, {0}, {
        i: ((n - i,) + (0,) * (k - 1), [i + 1] if i + 1 < n else [])
        for i in range(n)
    })


def sold_out_in_layer_one() -> ReportProfile:
    """seller -> 0 -> 1 -> {2, 3}, 2 -> 4, 3 -> 5, K = 1: |C_1^P| = 2 asks
    for mu >= 2, but buyer 0 outbids everyone and takes the only unit in
    layer 1, so LDM never builds R_2."""
    return make_profile(1, {0}, {0: ((9,), {1}), 1: ((1,), {2, 3}), 2: ((1,), {4}),
                                 3: ((1,), {5}), 4: ((1,), ()), 5: ((1,), ())})


def fig3_ids(chars: str) -> set[int]:
    return {FIG3_LABELS.index(c) for c in chars}


@pytest.fixture(scope="session")
def fig3_profile() -> ReportProfile:
    lid = {c: i for i, c in enumerate(FIG3_LABELS)}
    buyers = {
        lid[c]: (FIG3_VALUES[c], [lid[x] for x in FIG3_INVITES.get(c, "")])
        for c in FIG3_LABELS
    }
    profile = make_profile(3, {lid["a"], lid["b"], lid["c"]}, buyers)
    return profile


@pytest.fixture(scope="session")
def t4_profile() -> ReportProfile:
    return make_profile(1, {1, 2}, {
        1: ((1,), {3, 4, 5}),
        2: ((4,), ()),
        3: ((9,), ()),
        4: ((8,), ()),
        5: ((7,), ()),
    })
