"""Cluster layer: boards, live migration and the contention monitor."""

from .. import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    "cluster": ("FPGACluster", "SchedulerFactory"),
    "migration": (
        "SD_STAGE_MS_PER_BITSTREAM", "MigrationRecord", "MigrationStats",
        "migrate", "prewarm_board",
    ),
    "monitor": ("ContentionMonitor",),
})

__all__ = [
    "ContentionMonitor",
    "FPGACluster",
    "MigrationRecord",
    "MigrationStats",
    "SD_STAGE_MS_PER_BITSTREAM",
    "SchedulerFactory",
    "migrate",
    "prewarm_board",
]
