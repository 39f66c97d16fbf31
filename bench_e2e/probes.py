"""Benchmark-side components: the only places a workload observes the system.

The probes are ordinary concrete subclasses of the public entity classes,
overriding only the documented hooks (``on_registered``, ``on_event``,
``on_query_result``, ``on_query_failed``) plus ``on_message`` to see the
``query-ack`` a CAA receives. Everything a workload reports as end-to-end —
registrations, CAA-visible events, query acknowledgements and their
simulated latencies — is recorded here, in one :class:`Observations`
object per repetition.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, List, Optional

from repro.core.types import TypeSpec
from repro.entities.devices import PrinterCE
from repro.entities.entity import ContextAwareApplication, ContextEntity
from repro.entities.profile import EntityClass, Profile


class Observations:
    """Everything one repetition's components saw, in arrival order."""

    def __init__(self) -> None:
        self.registrations = 0
        self.starts = 0
        self.events = 0
        self.event_latencies: List[float] = []
        self.query_latencies: List[float] = []
        self.queries_submitted = 0
        self.queries_acked = 0
        self.queries_refused = 0
        self.query_timeouts = 0
        self.check_failures: List[str] = []
        #: CAA-visible log, hashed into the determinism digest
        self._log = hashlib.sha256()
        #: when False, counts and logs are still kept but latencies are not
        #: sampled (set-up traffic is not part of the measured phase)
        self.measuring = False

    def note(self, *fields: Any) -> None:
        self._log.update(repr(fields).encode("utf-8"))
        self._log.update(b"\n")

    def fail(self, reason: str) -> None:
        self.check_failures.append(reason)

    def digest(self) -> str:
        return self._log.copy().hexdigest()


class BenchSensor(ContextEntity):
    """A plain device CE (one typed output) that counts its registrations."""

    def __init__(self, profile: Profile, host_id: str, network,
                 observations: Observations):
        super().__init__(profile, host_id, network)
        self.observations = observations

    @staticmethod
    def make_profile(guid, name: str, room: str) -> Profile:
        return Profile(
            entity_id=guid,
            name=name,
            entity_class=EntityClass.DEVICE,
            outputs=[TypeSpec("network-signal", "rssi")],
            attributes={"room": room, "device": "sensor"},
        )

    def start(self) -> None:
        self.observations.starts += 1
        super().start()

    def on_registered(self) -> None:
        self.observations.registrations += 1
        self.observations.note("reg", self.name, self.range_name, self.now)


class BenchPrinter(PrinterCE):
    """A printer CE that counts its registrations."""

    def __init__(self, guid, host_id: str, network, printer_name: str,
                 room: str, observations: Observations):
        super().__init__(guid, host_id, network, printer_name=printer_name,
                         room=room)
        self.observations = observations

    def start(self) -> None:
        self.observations.starts += 1
        super().start()

    def on_registered(self) -> None:
        self.observations.registrations += 1
        self.observations.note("reg", self.name, self.range_name, self.now)
        super().on_registered()


class BenchApp(ContextAwareApplication):
    """A CAA that timestamps what it submits and everything it is sent.

    ``on_ack`` (optional) is called after every acknowledged query — the
    closed-loop workloads submit their next query from it. ``on_register``
    (optional) runs after each registration, e.g. to re-ask after a
    handoff.
    """

    def __init__(self, profile: Profile, host_id: str, network,
                 observations: Observations,
                 check_result: Optional[Callable[["BenchApp", str, Dict], None]] = None):
        super().__init__(profile, host_id, network)
        self.observations = observations
        self.check_result = check_result
        self.on_ack: Optional[Callable[["BenchApp", str, Dict], None]] = None
        self.on_register: Optional[Callable[["BenchApp"], None]] = None
        self.submitted_at: Dict[str, float] = {}
        self.streams_seen: set = set()
        self.acked: Dict[str, Dict[str, Any]] = {}
        #: subject -> value of the latest event, per context type
        self.latest: Dict[tuple, Any] = {}

    def start(self) -> None:
        self.observations.starts += 1
        super().start()

    def ask(self, query) -> None:
        self.observations.queries_submitted += 1
        self.submitted_at[query.query_id] = self.now
        self.submit_query(query)

    def on_registered(self) -> None:
        self.observations.registrations += 1
        self.observations.note("reg", self.name, self.range_name, self.now)
        super().on_registered()
        if self.on_register is not None:
            self.on_register(self)

    def on_message(self, message) -> None:
        if message.kind == "query-ack":
            payload = message.payload
            query_id = payload.get("query_id", "")
            if query_id in self.submitted_at and query_id not in self.acked:
                self.acked[query_id] = payload
                obs = self.observations
                obs.queries_acked += 1
                if obs.measuring:
                    obs.query_latencies.append(
                        self.now - self.submitted_at[query_id])
                obs.note("ack", self.name, query_id, payload.get("ok"),
                         payload.get("status"), self.now)
                super().on_message(message)
                if self.on_ack is not None:
                    self.on_ack(self, query_id, payload)
                return
        super().on_message(message)

    def on_event(self, event, sub_id) -> None:
        obs = self.observations
        obs.events += 1
        # the first delivery on a subscription may be the mediator's
        # retained replay, whose age is staleness rather than latency
        if sub_id in self.streams_seen:
            if obs.measuring:
                obs.event_latencies.append(self.now - event.timestamp)
        else:
            self.streams_seen.add(sub_id)
        self.latest[(event.type_name, event.subject)] = event.value
        obs.note("ev", self.name, event.type_name, event.subject,
                 event.value, event.timestamp, self.now)

    def on_query_result(self, query_id: str, payload: Dict[str, Any]) -> None:
        if self.check_result is not None:
            self.check_result(self, query_id, payload)

    def on_query_failed(self, query_id: str, error: str) -> None:
        obs = self.observations
        if error == "timeout":
            obs.query_timeouts += 1
        else:
            obs.queries_refused += 1
        obs.note("fail", self.name, query_id, error)


def make_app(sci, name: str, host: str, observations: Observations,
             owner: Optional[str] = None, check_result=None) -> BenchApp:
    """Create and start a probe CAA through the facade."""
    return sci.create_application(name, host=host, app_class=BenchApp,
                                  owner=owner, observations=observations,
                                  check_result=check_result)
