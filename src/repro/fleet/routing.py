"""Routing policies for the sharded fleet front-end.

The fleet front-end assigns every arriving application to one of N
independent cluster shards.  Routing runs at *admission time*, against the
front-end's own load accounting (estimated slot-work routed to each shard
so far), never against live simulation telemetry — that is what makes a
dispatch plan a pure function of the arrival stream, so shards simulate as
independent campaign cells with bit-identical results whether they run
serially or fanned out over worker processes.  The one caller is the
supervised control plane (:mod:`repro.fleet.control`), which routes every
admission and every reroute among the shards that are serving.

Every policy is seeded through :class:`~repro.sim.rng.SeededStreams` and
every hash is a SHA-256 digest (:func:`stable_digest`), never the builtin
``hash()``: a routing decision must come out the same in every worker
process regardless of ``PYTHONHASHSEED``.

Fresh arrivals are admitted in small *batches* (:data:`ADMISSION_BATCH`):
the load snapshot the policies see is frozen at batch start, modelling a
front-end that folds telemetry in periodically rather than per request.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Callable, Dict, List, Sequence, Tuple

from ..apps.benchmarks import BENCHMARKS
from ..sim import SeededStreams
from ..workloads.generator import Arrival

#: Arrivals admitted per routing batch; the per-shard load snapshot the
#: policies consult refreshes only at batch boundaries.
ADMISSION_BATCH = 4

#: Virtual nodes per shard on the consistent-hash ring.
VNODES = 64


def stable_digest(text: str) -> int:
    """A 63-bit integer digest of ``text``, stable across processes."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFFFFFFFFFFFFFF


def estimated_work_ms(arrival: Arrival) -> float:
    """Admission-time work estimate of one arrival (total slot-work)."""
    spec = BENCHMARKS[arrival.app_name]
    return sum(task.exec_time_ms for task in spec.tasks) * arrival.batch_size


class RoutingPolicy:
    """Base class: map an arrival to one of the live shards.

    ``loads`` is the front-end's per-shard estimated-work snapshot and
    ``live`` the sorted tuple of currently-serving shard indices; an
    empty ``live`` raises ``ValueError``.
    """

    name = "?"

    def __init__(self, n_shards: int, streams: SeededStreams) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.n_shards = n_shards
        self.streams = streams

    def route(
        self, arrival: Arrival, loads: Sequence[float], live: Sequence[int]
    ) -> int:
        raise NotImplementedError


#: Registered policies by name (insertion-ordered dict).
ROUTING_POLICIES: Dict[str, Callable[..., RoutingPolicy]] = {}


def register_policy(cls):
    """Class decorator adding a routing policy to the registry."""
    if cls.name in ROUTING_POLICIES:
        raise ValueError(f"routing policy {cls.name!r} is already registered")
    ROUTING_POLICIES[cls.name] = cls
    return cls


def get_policy(name: str, n_shards: int, streams: SeededStreams) -> RoutingPolicy:
    """Instantiate a registered policy; KeyError names the alternatives."""
    try:
        factory = ROUTING_POLICIES[name]
    except KeyError:
        raise KeyError(
            f"unknown routing policy {name!r}; "
            f"available: {', '.join(ROUTING_POLICIES)}"
        ) from None
    return factory(n_shards, streams)


def policy_names() -> List[str]:
    return list(ROUTING_POLICIES)


@register_policy
class ConsistentHashPolicy(RoutingPolicy):
    """Consistent-hash ring keyed by application name.

    All arrivals of one benchmark land on one shard (cache/bitstream
    affinity), and adding a shard only remaps ~1/N of the key space.
    ``VNODES`` virtual nodes per shard keep the ring balanced.  A key
    whose owner is down walks clockwise to the first live vnode, so a
    leave/rejoin remaps only the dead shard's key range.
    """

    name = "hash"

    def __init__(self, n_shards: int, streams: SeededStreams) -> None:
        super().__init__(n_shards, streams)
        points: List[Tuple[int, int]] = []
        for shard in range(n_shards):
            for vnode in range(VNODES):
                points.append((stable_digest(f"shard{shard}/vnode{vnode}"), shard))
        points.sort()
        self._ring = [point for point, _ in points]
        self._owner = [shard for _, shard in points]
        #: app name -> ring index of its key (a pure function of the name).
        self._home: Dict[str, int] = {}

    def route(
        self, arrival: Arrival, loads: Sequence[float], live: Sequence[int]
    ) -> int:
        if not live:
            raise ValueError("route needs at least one live shard")
        index = self._home.get(arrival.app_name)
        if index is None:
            point = stable_digest(f"app/{arrival.app_name}")
            index = bisect_right(self._ring, point) % len(self._ring)
            self._home[arrival.app_name] = index
        owners = self._owner
        for step in range(len(owners)):
            owner = owners[(index + step) % len(owners)]
            if owner in live:
                return owner
        raise ValueError("route: no live shard found")  # pragma: no cover


@register_policy
class LeastLoadedPolicy(RoutingPolicy):
    """Route to the live shard with the least estimated work (ties:
    lowest index)."""

    name = "least-loaded"

    def route(
        self, arrival: Arrival, loads: Sequence[float], live: Sequence[int]
    ) -> int:
        if not live:
            raise ValueError("route needs at least one live shard")
        best = live[0]
        best_load = loads[best]
        for shard in live:
            if loads[shard] < best_load:
                best = shard
                best_load = loads[shard]
        return best


@register_policy
class PowerOfTwoPolicy(RoutingPolicy):
    """Pick two random live candidates, route to the less loaded one.

    The candidate stream comes from the fleet's seeded RNG family, so the
    choice sequence is reproducible in every process.  Candidates index
    the ``live`` tuple, so every decision draws exactly twice; with one
    live shard it degenerates to that shard.
    """

    name = "p2c"

    def __init__(self, n_shards: int, streams: SeededStreams) -> None:
        super().__init__(n_shards, streams)
        self._rng = streams.stream("p2c")

    def route(
        self, arrival: Arrival, loads: Sequence[float], live: Sequence[int]
    ) -> int:
        if not live:
            raise ValueError("route needs at least one live shard")
        first = live[self._rng.randrange(len(live))]
        second = live[self._rng.randrange(len(live))]
        return first if loads[first] <= loads[second] else second


def shard_loads(shards: Sequence[Sequence[Arrival]]) -> List[float]:
    """Estimated per-shard work of a dispatch plan (rollup/imbalance input)."""
    return [
        sum(estimated_work_ms(arrival) for arrival in shard) for shard in shards
    ]


def load_imbalance(shards: Sequence[Sequence[Arrival]]) -> float:
    """Max/mean estimated shard load (1.0 == perfectly balanced)."""
    loads = shard_loads(shards)
    total = sum(loads)
    if not loads or total <= 0:
        return 1.0
    return max(loads) / (total / len(loads))
