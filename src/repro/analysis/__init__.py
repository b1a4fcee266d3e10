"""Analyses behind the paper's tables, figures, and back-of-envelope models."""

from repro.analysis.breakdown import breakdown_table, breakdown_fractions
from repro.analysis.invalidations import (
    InvalidationHistogram,
    invalidation_histogram,
)
from repro.analysis.transactions import transaction_costs
from repro.analysis.sensitivity import (
    OverheadModel,
    overhead_model,
    crossover_q,
)
from repro.analysis.spinlocks import (
    SpinLockImpact,
    spin_lock_impact,
    spin_lock_impacts,
)
from repro.analysis.scalability import (
    BroadcastCostModel,
    broadcast_cost_model,
    directory_storage_table,
    pointer_sweep,
    wasted_invalidation_rate,
)
from repro.analysis.system import SystemBound, effective_processor_bound
from repro.analysis.bandwidth import BandwidthComparison, bandwidth_comparison
from repro.analysis.contention import (
    BusContentionModel,
    ContentionPoint,
    contention_model,
)
from repro.analysis.scaling import ScalingPoint, by_scheme, run_scaling_study
from repro.analysis.event_costs import EventCost, event_cost_table, verify_decomposition
from repro.analysis.networks import NetworkPoint, network_scaling_study
from repro.analysis.finite import (
    FiniteCacheDecomposition,
    RankingShift,
    capacity_sweep,
    decompose_finite_cost,
    ranking_shift,
    ranking_shifts,
)
from repro.analysis.analytic import (
    MigratoryPrediction,
    ProducerConsumerPrediction,
    ReadOnlyDir1NBPrediction,
)

__all__ = [
    "breakdown_table",
    "breakdown_fractions",
    "InvalidationHistogram",
    "invalidation_histogram",
    "transaction_costs",
    "OverheadModel",
    "overhead_model",
    "crossover_q",
    "SpinLockImpact",
    "spin_lock_impact",
    "spin_lock_impacts",
    "BroadcastCostModel",
    "broadcast_cost_model",
    "directory_storage_table",
    "pointer_sweep",
    "wasted_invalidation_rate",
    "SystemBound",
    "effective_processor_bound",
    "BandwidthComparison",
    "bandwidth_comparison",
    "BusContentionModel",
    "ContentionPoint",
    "contention_model",
    "ScalingPoint",
    "by_scheme",
    "run_scaling_study",
    "EventCost",
    "event_cost_table",
    "verify_decomposition",
    "NetworkPoint",
    "network_scaling_study",
    "FiniteCacheDecomposition",
    "RankingShift",
    "capacity_sweep",
    "decompose_finite_cost",
    "ranking_shift",
    "ranking_shifts",
    "MigratoryPrediction",
    "ProducerConsumerPrediction",
    "ReadOnlyDir1NBPrediction",
]
