"""Which `MuTooSmall` bound `run_properties` raises first at an undersized mu.

At an undersized mu each deviated market can name its own required bound,
so the order in which the checks build markets and reruns decides the
message. `tests/data/mu_too_small_order.json` pins it on the first 100
instances of each criterion-3 stream, at `min_valid_mu - 1` and
`robust_mu - 1` where those are >= 0: for each single property, the
`--all` order and its reverse, the bound raised, or null when none is.
A change to how the checks share work must reproduce it exactly.

Rewrite the file with `python tests/test_mu_too_small_order.py`.
"""

import json
import sys
from pathlib import Path

try:
    import netauction  # noqa: F401
except ImportError:  # run as a script from a checkout without the install
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from netauction.errors import MuTooSmall
from netauction.instance_io import GeneratorConfig, instance_stream
from netauction.market import compute_market
from netauction.removed_sets import min_valid_mu, robust_mu
from netauction.verify import PROPERTY_NAMES, run_properties

PINNED = Path(__file__).parent / "data" / "mu_too_small_order.json"
STREAMS = {
    "tree": GeneratorConfig(seed=301, buyers=(2, 8), k=(1, 3), v_max=10, topology="tree"),
    "graph": GeneratorConfig(seed=302, buyers=(2, 8), k=(1, 3), v_max=10,
                             topology="graph", edge_density=0.15),
}
COUNT = 100
ORDERS = {**{prop: (prop,) for prop in PROPERTY_NAMES},
          "all": PROPERTY_NAMES, "reversed": PROPERTY_NAMES[::-1]}


def raised_bound(profile, order, mu):
    try:
        run_properties(profile, "ldm", order, mu=mu)
    except MuTooSmall as exc:
        return exc.required
    return None


def bounds():
    """stream -> one row per instance: {mu: {order name: bound or None}}."""
    table = {}
    for name, config in STREAMS.items():
        rows = table[name] = []
        for profile in instance_stream(config, COUNT):
            mus = sorted({mu for mu in (min_valid_mu(compute_market(profile)) - 1,
                                        robust_mu(profile) - 1) if mu >= 0})
            rows.append({str(mu): {key: raised_bound(profile, order, mu)
                                   for key, order in ORDERS.items()} for mu in mus})
    return table


def test_the_first_bound_raised_is_the_pinned_one():
    pinned = json.loads(PINNED.read_text())
    found = bounds()
    for name in STREAMS:
        for index, (row, want) in enumerate(zip(found[name], pinned[name])):
            assert row == want, (name, index)
        assert len(found[name]) == len(pinned[name]) == COUNT
    # the pin covers raised bounds and clean runs alike
    cells = [b for rows in pinned.values() for row in rows for by_order in row.values()
             for b in by_order.values()]
    assert any(b is None for b in cells) and sum(b is not None for b in cells) > 100


if __name__ == "__main__":
    # one instance a line
    PINNED.write_text("{\n" + ",\n".join(
        f'"{name}": [\n' + ",\n".join(json.dumps(row) for row in rows) + "\n]"
        for name, rows in bounds().items()) + "\n}\n")
