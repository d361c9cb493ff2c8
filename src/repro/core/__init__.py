"""DNScup core: the paper's contribution.

Dynamic leases (analytical model, track file, grant policies, offline
optimizers) and the three prototype modules — detection, listening,
notification — assembled into middleware by :class:`DNScup`.
"""

from .analytical import (
    LeaseOperatingPoint,
    fixed_lease_curve,
    lease_probability,
    message_rate_reduction,
    operating_point,
    probability_increase,
    renewal_rate,
    tradeoff_ratio,
)
from .detection import ChangeSink, DetectionModule, RecordChange
from .lease import (
    Lease,
    LeaseTable,
    LeaseTableStats,
    load_track_file,
    save_track_file,
)
from .listening import ListeningModule, ListeningStats
from .middleware import DNScup, DNScupConfig, attach_dnscup, category_max_lease
from .notification import NotificationModule, NotificationOutcome, NotificationStats
from .optimizer import (
    LeaseAssignment,
    LeaseInstance,
    communication_constrained,
    communication_constrained_floor,
    storage_constrained,
    storage_constrained_exact,
    sweep_storage_budgets,
)
from .delegation_guard import DelegationGuard, DelegationGuardStats
from .renegotiation import RenegotiationAgent, RenegotiationStats
from .policy import (
    AdaptiveBudgetPolicy,
    DynamicLeasePolicy,
    FixedLeasePolicy,
    GrantDecision,
    LeasePolicy,
    MAX_LEASE_CDN,
    MAX_LEASE_DYN,
    MAX_LEASE_REGULAR,
    MaxLeaseFn,
    NoLeasePolicy,
    constant_max_lease,
)

__all__ = [
    "lease_probability", "renewal_rate", "probability_increase",
    "message_rate_reduction", "tradeoff_ratio", "operating_point",
    "fixed_lease_curve", "LeaseOperatingPoint",
    "Lease", "LeaseTable", "LeaseTableStats",
    "save_track_file", "load_track_file",
    "LeasePolicy", "NoLeasePolicy", "FixedLeasePolicy", "DynamicLeasePolicy",
    "AdaptiveBudgetPolicy", "GrantDecision", "MaxLeaseFn",
    "constant_max_lease",
    "MAX_LEASE_REGULAR", "MAX_LEASE_CDN", "MAX_LEASE_DYN",
    "LeaseInstance", "LeaseAssignment", "storage_constrained",
    "communication_constrained", "communication_constrained_floor",
    "storage_constrained_exact", "sweep_storage_budgets",
    "DetectionModule", "RecordChange", "ChangeSink",
    "ListeningModule", "ListeningStats",
    "NotificationModule", "NotificationStats", "NotificationOutcome",
    "DNScup", "DNScupConfig", "attach_dnscup", "category_max_lease",
    "RenegotiationAgent", "RenegotiationStats",
    "DelegationGuard", "DelegationGuardStats",
]
