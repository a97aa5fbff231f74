"""Core: the integrated prefetching/caching algorithms and the simulator.

The four algorithms from the paper plus the demand-fetching baseline are
registered in :data:`POLICIES`; :func:`make_policy` builds one by name with
optional keyword parameters.
"""

from repro.core.aggressive import Aggressive
from repro.core.batching import TABLE6_BATCH_SIZES, TABLE6_DEFAULT, batch_size_for
from repro.core.cache import BufferCache, CacheFullError
from repro.core.demand import DemandFetching
from repro.core.engine import SimConfig, Simulator
from repro.core.events import StallEpisode
from repro.core.fixed_horizon import DEFAULT_HORIZON, FixedHorizon
from repro.core.hints import HintQuality, degrade_hints, resolve_hint_view
from repro.core.multiprocess import (
    CostBenefitAllocator,
    MultiProcessSimulator,
    ProcessResult,
    StaticAllocator,
)
from repro.core.forestall import Forestall
from repro.core.heuristics import LRUDemand, SequentialReadahead, StridePrefetcher
from repro.core.nextref import (
    INFINITE,
    EvictionHeap,
    NextRefIndex,
    ReferenceNextRefIndex,
    ScanSupport,
)
from repro.core.policy import MissingScanner, PrefetchPolicy
from repro.core.results import SimulationResult
from repro.core.timeline import Timeline
from repro.core.reverse_aggressive import ReverseAggressive
from typing import Callable, Dict, Union

#: Registry of policy constructors; values are the policy classes (typed as
#: callables so :func:`make_policy` can forward arbitrary keyword options).
POLICIES: Dict[str, Callable[..., PrefetchPolicy]] = {
    "demand": DemandFetching,
    "fixed-horizon": FixedHorizon,
    "aggressive": Aggressive,
    "reverse-aggressive": ReverseAggressive,
    "forestall": Forestall,
    # unhinted baselines (no future knowledge):
    "lru-demand": LRUDemand,
    "seq-readahead": SequentialReadahead,
    "stride-prefetch": StridePrefetcher,
}


def make_policy(
    name: Union[str, PrefetchPolicy], **kwargs: object
) -> PrefetchPolicy:
    """Instantiate a policy by registry name (or pass an instance through)."""
    if isinstance(name, PrefetchPolicy):
        return name
    try:
        policy_type = POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; expected one of {sorted(POLICIES)}"
        ) from None
    return policy_type(**kwargs)


__all__ = [
    "Aggressive",
    "BufferCache",
    "CacheFullError",
    "CostBenefitAllocator",
    "DEFAULT_HORIZON",
    "DemandFetching",
    "EvictionHeap",
    "FixedHorizon",
    "Forestall",
    "HintQuality",
    "INFINITE",
    "LRUDemand",
    "MissingScanner",
    "MultiProcessSimulator",
    "NextRefIndex",
    "POLICIES",
    "PrefetchPolicy",
    "ProcessResult",
    "ReferenceNextRefIndex",
    "ReverseAggressive",
    "ScanSupport",
    "SimConfig",
    "SequentialReadahead",
    "SimulationResult",
    "StaticAllocator",
    "StallEpisode",
    "StridePrefetcher",
    "Timeline",
    "Simulator",
    "TABLE6_BATCH_SIZES",
    "TABLE6_DEFAULT",
    "batch_size_for",
    "degrade_hints",
    "make_policy",
    "resolve_hint_view",
]
