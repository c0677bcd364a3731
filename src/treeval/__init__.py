"""Dynamic concave risk valuation on finite scenario trees.

Build per-node valuation operators from one-step operators by backward
induction, compute their convex duals, pool risk optimally across
subsidiaries, hedge against a market, and verify the defining axioms as
executable properties.
"""

from .dual import (
    DualDensity,
    DualSolverOptions,
    check_dual_properties,
    dual_density,
    dual_recursion_residual,
    dual_value,
    primal_from_dual,
)
from .errors import (
    ConvergenceError,
    DivergenceError,
    DomainError,
    TreevalError,
    ValidationError,
)
from .families import (
    CRRAUtility,
    EntropicParams,
    ExponentialUtility,
    UIParams,
    WorstCaseParams,
    crra_ui_dual,
    entropic_dual,
    entropic_family,
    entropic_one_step,
    entropic_params,
    entropic_value,
    exponential_uniqueness_witness,
    indifference_price,
    ui_dc_counterexample,
    ui_family,
    ui_one_step,
    ui_params,
    worst_case_family,
    worst_case_one_step,
    worst_case_params,
)
from .market import (
    Market,
    StatePriceDensity,
    Strategy,
    check_gains_axioms,
    check_market_axioms,
    extract_state_price_density,
    gains,
    hedged_family,
    market,
    market_value,
    synthesize_one_step_prices,
)
from .risksharing import (
    SharingResult,
    check_sharing_axioms,
    committed_family,
    entropic_allocation,
    entropic_share_params,
    entropic_sharing_family,
    pooled_family,
    share_dual,
    share_value,
    stability_check,
)
from .tree import (
    CashBalance,
    NodeRecord,
    StoppingTime,
    Tree,
    build_tree,
    children,
    descendants,
    hitting_stop,
    replace_after,
    stopping_time,
    subtree_mass,
)
from .valuation import (
    AxiomReport,
    OneStepValuation,
    ValuationFamily,
    assemble,
    check_axioms,
    linear_one_step,
    value_at,
)

__version__ = "0.1.0"
