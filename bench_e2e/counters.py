"""Exact per-layer counts, read from the program's public counters.

:func:`read` takes one reading of a deployment; :func:`layer_counts` turns
a before/after pair of readings, taken around the measured phase, into the
per-layer count metrics. Cumulative counters become deltas; state
(live subscriptions, live configurations, retained events, ledger length)
is reported as it stands at the end of the measured phase.
"""

from __future__ import annotations

from typing import Dict

#: per-layer count metrics, in report order; ratios and state are marked
COUNT_METRICS = (
    "net.sched_events", "net.msgs_sent", "net.msgs_delivered",
    "net.msgs_dropped", "net.retransmits", "net.dedup_suppressed",
    "net.msg_sim_latency_p50",
    "overlay.bcast_sent",
    "server.registrations", "server.lease_expiries",
    "server.queries_forwarded", "server.queries_parked",
    "composition.resolves", "composition.index_rebuilds",
    "composition.backtracks", "composition.configs_live",
    "events.published", "events.delivered", "events.fanout_per_publish",
    "events.index_hit_ratio", "events.live_subscriptions", "events.retained",
    "ledger.appends", "ledger.entries",
    "location.fixes", "mobility.door_crossings", "mobility.handoffs",
)

UNITS = {
    "net.msg_sim_latency_p50": "sim_s",
    "events.fanout_per_publish": "ratio",
    "events.index_hit_ratio": "ratio",
}


def _metric_total(registry, name: str) -> float:
    metric = registry.get(name)
    return float(metric.total()) if metric is not None else 0.0


class FixCounter:
    """Counts Location Service fixes through its public observer hook."""

    def __init__(self, sci):
        self.fixes = 0
        for server in sci.ranges.values():
            server.location.observers.append(self._observe)

    def _observe(self, fix, previous_room) -> None:
        self.fixes += 1


def read(sci, fixes: FixCounter) -> Dict[str, float]:
    """One reading of every counter the per-layer metrics derive from."""
    network, registry = sci.network, sci.network.obs.metrics
    servers = list(sci.ranges.values())
    mediators = [server.mediator for server in servers]
    resolvers = [server.resolver for server in servers]
    stats = network.stats
    return {
        "sched_events": sci.scheduler.events_processed,
        "sent": stats.sent,
        "delivered": stats.delivered,
        "dropped": stats.dropped + stats.undeliverable,
        "retransmits": _metric_total(registry, "net.retry.attempts"),
        "dedup": _metric_total(registry, "net.dedup.suppressed"),
        "bcast": _metric_total(registry, "overlay.bcast.sent"),
        "registrations": sum(s.registrar.registrations for s in servers),
        "evictions": sum(s.registrar.evictions for s in servers),
        "forwarded": sum(s.queries_forwarded for s in servers),
        "parked": sum(s.queries_parked for s in servers),
        "resolves": sum(r.resolutions for r in resolvers),
        "rebuilds": sum(r.index_rebuilds for r in resolvers),
        "backtracks": sum(r.backtracks for r in resolvers),
        "configs_live": sum(s.configurations.active_count() for s in servers),
        "published": sum(m.published for m in mediators),
        "ev_delivered": sum(m.deliveries for m in mediators),
        "index_hits": _metric_total(registry, "mediator.index.hits"),
        "residual": _metric_total(registry, "mediator.index.residual_scans"),
        "subs_live": sum(m.subscription_count for m in mediators),
        "retained": sum(m.retained_count for m in mediators),
        "exhausted": _metric_total(registry, "mediator.seq.ack_exhausted"),
        "appends": _metric_total(registry, "cs.ledger.appends"),
        "entries": sum(len(ledger) for s in servers for ledger in s.ledgers()),
        "fixes": fixes.fixes,
        "crossings": sum(sensor.detections
                         for sensor in sci.door_sensors.values()),
        "handoffs": sci.handoff.handoffs,
    }


def layer_counts(before: Dict[str, float], after: Dict[str, float],
                 msg_latency_p50: float) -> Dict[str, float]:
    """The per-layer count metrics of one measured phase."""
    def delta(key: str) -> float:
        return after[key] - before[key]

    published = delta("published")
    looked_up = delta("index_hits") + delta("residual")
    values = [
        delta("sched_events"), delta("sent"), delta("delivered"),
        delta("dropped"), delta("retransmits"), delta("dedup"),
        msg_latency_p50,
        delta("bcast"),
        delta("registrations"), delta("evictions"),
        delta("forwarded"), delta("parked"),
        delta("resolves"), delta("rebuilds"), delta("backtracks"),
        after["configs_live"],
        published, delta("ev_delivered"),
        delta("ev_delivered") / published if published else 0.0,
        delta("index_hits") / looked_up if looked_up else 0.0,
        after["subs_live"], after["retained"],
        delta("appends"), after["entries"],
        delta("fixes"), delta("crossings"), delta("handoffs"),
    ]
    return dict(zip(COUNT_METRICS, values))
