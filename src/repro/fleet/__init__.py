"""Sharded multi-cluster fleet: routing front-end over campaign shards."""

from .. import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "control": (
        "SHARD_STATES", "SHED_CAPACITY_THRESHOLD", "TRANSITIONS",
        "FleetSupervisor", "RequestRecord", "ServingPlan", "ShardActor",
        "supervised_partition",
    ),
    "fleet": (
        "FLEET_SCENARIOS", "Fleet", "FleetResult", "FleetRollup",
        "FleetScenario", "ShardRollup", "fleet_scenario_names",
        "get_fleet_scenario", "register_fleet_scenario", "rollup_records",
    ),
    "routing": (
        "ADMISSION_BATCH", "ROUTING_POLICIES", "ConsistentHashPolicy",
        "LeastLoadedPolicy", "PowerOfTwoPolicy", "RoutingPolicy",
        "estimated_work_ms", "get_policy", "load_imbalance",
        "policy_names", "register_policy",
        "stable_digest",
    ),
    "workload": ("FLEET_WORKLOAD_KINDS", "FleetWorkload"),
})

__all__ = [
    "ADMISSION_BATCH",
    "ConsistentHashPolicy",
    "FLEET_SCENARIOS",
    "FLEET_WORKLOAD_KINDS",
    "Fleet",
    "FleetResult",
    "FleetRollup",
    "FleetScenario",
    "FleetSupervisor",
    "FleetWorkload",
    "LeastLoadedPolicy",
    "PowerOfTwoPolicy",
    "ROUTING_POLICIES",
    "RequestRecord",
    "RoutingPolicy",
    "SHARD_STATES",
    "SHED_CAPACITY_THRESHOLD",
    "ServingPlan",
    "ShardActor",
    "ShardRollup",
    "TRANSITIONS",
    "supervised_partition",
    "estimated_work_ms",
    "fleet_scenario_names",
    "get_fleet_scenario",
    "get_policy",
    "load_imbalance",
    "policy_names",
    "register_fleet_scenario",
    "register_policy",
    "rollup_records",
    "stable_digest",
]
