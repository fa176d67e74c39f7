"""Proportional response dynamics for Fisher and exchange markets with
gross-substitutes utilities, plus an independent equilibrium oracle and
convergence diagnostics."""

from .demand import (
    DemandResult,
    check_gs_property,
    check_normal_goods,
    corresponding_price,
    demand,
)
from .diagnostics import (
    DiagnosticsReport,
    check_avg_price_rate,
    check_exchange_potential_decrease,
    check_potential_decrease,
    diagnose_fisher,
    exchange_potential,
    fisher_potential,
    kl_divergence,
    lemma_33_check,
    lemma_gap,
)
from .dynamics import (
    StopRule,
    default_initial_bids,
    default_initial_exchange,
    lazy_step,
    pr_step,
    run_exchange,
    run_fisher,
)
from .equilibrium import (
    EquilibriumResult,
    equilibrium_exchange_state,
    solve_exchange_eq,
    solve_fisher_eq,
    transform_exchange_equilibrium,
    verify_exchange_equilibrium,
    verify_fisher_equilibrium,
)
from .market import (
    DynamicsTrace,
    ExchangeState,
    FisherState,
    MarketSpec,
    Mode,
    TraceBlock,
    validate_market,
)
from .utilities import (
    CES,
    CobbDouglas,
    SeparablePower,
    UtilitySpec,
    bid_shares,
    eval_gradient,
    eval_utility,
)

__version__ = "0.1.0"
