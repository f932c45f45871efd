"""Diffusion auctions for multi-unit markets on social networks.

The package implements first-layer VCG, DNA-MU, and the layer-based diffusion
mechanism (tree and graph forms), together with an executable property
harness that checks individual rationality, incentive compatibility,
non-wastefulness, welfare/revenue dominance over first-layer VCG, and the
payment decomposition, and that searches for incentive counterexamples.
"""

from .errors import (
    ContractError,
    FixedOutsideIncluded,
    MuTooSmall,
    NetAuctionError,
    OverCommitted,
    ParseError,
    SearchBudgetExceeded,
    TraceMissing,
    ValidationError,
)
from .market import (
    DUMMY_BASE,
    SELLER,
    BuyerId,
    Market,
    Money,
    ReportProfile,
    ReportedType,
    TreeMarket,
    ValuationVector,
    build_bfs_tree,
    compute_market,
    cumulative_value,
    is_dummy,
    validate_profile,
)
from .mechanisms import (
    Outcome,
    inject_dummies,
    outcome_welfare,
    run_dna_mu,
    run_ldm,
    run_ldm_tree,
    run_vcg_first_layer,
)
from .removed_sets import (
    exclusion_set,
    layer_removed_set,
    min_valid_mu,
    potential_inviters,
    potential_winners,
    removed_sets_for,
)
from .welfare import (
    Allocation,
    WelfarePool,
    WelfareResult,
    constrained_welfare,
    kth_highest_first_unit,
)

__all__ = [name for name in dir() if not name.startswith("_")]
