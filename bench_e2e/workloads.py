"""The three seeded workloads, driven only through the public API.

Each workload builds a default-configured :class:`repro.SCI` deployment
(indexed mediator, reliable events, ledger on, scheduler profiler
attached), runs it until set-up is complete, then runs a measured phase
whose script is fixed by the seed. Simulated time is deterministic; wall
time is the cost being measured.

* ``discovery_churn`` — open loop: Figure-5 discovery of many CEs per host,
  then stop/restart and crash/lease-expiry churn with registry-reading
  queries (profile and advertisement mode).
* ``location_tracking`` — open loop: the Figure-3 path. Door sensors,
  tagged people tracked by CAAs (one objLocation CE each), thermometers,
  walks inside ranges plus PDA carriers whose walks cross ranges
  (Section-3.4 handoffs).
* ``query_mix`` — closed loop: CAAs submit Figure-6 queries in all four
  modes, the next one when the previous one is acknowledged; some target
  places in other ranges and are forwarded over SCINET.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from typing import Dict, List, Optional

from repro import SCI, SCIConfig
from repro.entities.sensors import TemperatureSensorCE
from repro.location.building import BuildingModel
from repro.location.geometry import Point, Rect

from probes import BenchApp, BenchPrinter, BenchSensor, Observations, make_app


class Workload:
    """One seeded scenario: build, measured phase, ground-truth check."""

    name = ""
    loop = ""
    #: simulated seconds of the measured phase
    measured_sim_s = 0.0

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale
        self.rng = random.Random(seed)
        self.obs = Observations()
        self.sci: Optional[SCI] = None
        #: GUIDs of every component set-up waits on to register
        self.started: List = []

    def size(self, full: int, floor: int = 1) -> int:
        return max(floor, int(round(full * self.scale)))

    # -- phases ----------------------------------------------------------------

    def build(self) -> None:
        """Create the deployment and run it until set-up is complete."""
        raise NotImplementedError

    def schedule(self) -> None:
        """Put the measured phase's seeded script on the scheduler."""
        raise NotImplementedError

    def measure(self) -> None:
        self.obs.measuring = True
        self.sci.run(self.measured_sim_s)
        self.obs.measuring = False

    def check(self) -> None:
        """Compare the end state against the workload's ground truth."""
        raise NotImplementedError

    # -- shared helpers ----------------------------------------------------------

    def settle(self, ready, limit: float = 120.0, step: float = 1.0) -> None:
        """Run until ``ready()`` holds; failing to get there is an error."""
        waited = 0.0
        while not ready():
            if waited >= limit:
                raise RuntimeError(f"{self.name}: set-up did not complete "
                                   f"within {limit} simulated seconds")
            self.sci.run(step)
            waited += step

    def all_registered(self) -> bool:
        """Every started component holds a registration."""
        processes = self.sci.network
        return all(getattr(processes.process(guid), "registered", False)
                   for guid in self.started)

    def settle_queries(self) -> None:
        """Run until every set-up query is acknowledged; none may fail."""
        obs = self.obs
        self.settle(lambda: obs.queries_acked >= obs.queries_submitted)
        if obs.queries_refused or obs.query_timeouts or obs.check_failures:
            raise RuntimeError(f"{self.name}: set-up queries failed: "
                               f"{obs.check_failures[:3]}")

    def query_id(self, app: BenchApp) -> str:
        return f"{app.name}/q{len(app.submitted_at)}"

    def check_registrars(self, live: Dict[str, List[str]]) -> None:
        """Registrar membership must equal the live components, by name
        and multiplicity (two thermometers in one room share a name)."""
        for range_name, server in sorted(self.sci.ranges.items()):
            registered = Counter(record.profile.name
                                 for record in server.registrar.records()
                                 if record.kind in ("ce", "caa"))
            expected = Counter(live.get(range_name, []))
            if registered != expected:
                missing = sorted((expected - registered).elements())[:3]
                extra = sorted((registered - expected).elements())[:3]
                self.obs.fail(f"registrar {range_name}: missing {missing} "
                              f"extra {extra}")

    def check_ledgers(self) -> None:
        for range_name, server in sorted(self.sci.ranges.items()):
            for ledger in server.ledgers():
                try:
                    ledger.verify()
                except ValueError as exc:
                    self.obs.fail(f"ledger {range_name}: {exc}")

    def membership_digest(self) -> str:
        digest = hashlib.sha256()
        for range_name, server in sorted(self.sci.ranges.items()):
            names = sorted(record.profile.name
                           for record in server.registrar.records())
            digest.update(repr((range_name, names)).encode("utf-8"))
        return digest.hexdigest()

    def digest(self) -> str:
        return hashlib.sha256(
            (self.obs.digest() + self.membership_digest()).encode()
        ).hexdigest()


# ---------------------------------------------------------------------------
# discovery_churn


class DiscoveryChurn(Workload):
    """Many CEs per host discovered through Figure 5, then churn."""

    name = "discovery_churn"
    loop = "open"
    #: the livingstone tower carved into four ranges
    RANGES = {
        "r0": ["lobby"],
        "r1": ["corridor", "L10.01"],
        "r2": ["L10.02", "L10.03"],
        "r3": ["open-area", "L10.05"],
    }
    HOSTS_PER_RANGE = 2
    CES_PER_HOST = 60
    PRINTERS_PER_RANGE = 2
    THERMOMETERS_PER_RANGE = 2
    THERMOMETER_INTERVAL = 0.5
    CHURN_WINDOW = 60.0
    CHURN_PER_S = 2.0
    QUERY_INTERVAL = 0.3
    QUERIES_PER_CAA = 330
    #: the last crash restarts 44 simulated seconds after the window
    DRAIN = 50.0

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self.measured_sim_s = self.CHURN_WINDOW + self.DRAIN
        self.ces: Dict[str, BenchSensor] = {}
        self.ce_range: Dict[str, str] = {}
        #: range -> its CE names, in creation order
        self.names: Dict[str, List[str]] = {}
        self.up: Dict[str, bool] = {}
        #: CE name -> its stops, crashes and restarts so far
        self.churned: Counter = Counter()
        #: profile query id -> (CE it names, that CE's churn count when the
        #: query was submitted, or None when the CE was not up and registered)
        self.profile_asks: Dict[str, tuple] = {}
        self.apps: Dict[str, BenchApp] = {}
        self.printers: Dict[str, str] = {}

    def build(self) -> None:
        sci = self.sci = SCI(config=SCIConfig(seed=self.seed))
        per_host = self.size(self.CES_PER_HOST, 2)
        for range_name, places in self.RANGES.items():
            hosts = [f"{range_name}-h{i}" for i in range(self.HOSTS_PER_RANGE)]
            client = f"{range_name}-client"
            sci.create_range(range_name, places=places, hosts=hosts + [client])
            for host_index, host in enumerate(hosts):
                for index in range(per_host):
                    name = f"{host}-ce{index}"
                    room = places[(host_index + index) % len(places)]
                    profile = BenchSensor.make_profile(sci.guids.mint(), name,
                                                       room)
                    self._start_ce(name, range_name, profile, host)
            for index in range(self.PRINTERS_PER_RANGE):
                name = f"{range_name}-P{index}"
                printer = BenchPrinter(sci.guids.mint(), hosts[0], sci.network,
                                       name, places[index % len(places)],
                                       self.obs)
                printer.start()
                self.printers[name] = range_name
                self.started.append(printer.guid)
            for index in range(self.THERMOMETERS_PER_RANGE):
                thermo = TemperatureSensorCE(
                    sci.guids.mint(), hosts[-1], sci.network,
                    room=places[index % len(places)],
                    representation=f"t{index}",
                    interval=self.THERMOMETER_INTERVAL,
                    seed=self.seed * 100 + len(self.started))
                thermo.start()
                self.started.append(thermo.guid)
            app = self.apps[range_name] = make_app(
                sci, f"{range_name}-caa", client, self.obs,
                check_result=self._check_result)
            self.started.append(app.guid)
        self.settle(self.all_registered)
        # each CAA follows its range's thermometers through the mediator
        for range_name, app in sorted(self.apps.items()):
            for index in range(self.THERMOMETERS_PER_RANGE):
                room = self.RANGES[range_name][index % len(self.RANGES[range_name])]
                app.ask(sci.query(app.name)
                        .subscribe("temperature", f"t{index}", subject=room)
                        .with_id(self.query_id(app)).build())
        self.settle_queries()

    def _start_ce(self, name: str, range_name: str, profile, host: str) -> None:
        ce = BenchSensor(profile, host, self.sci.network, self.obs)
        if name not in self.ces:
            self.names.setdefault(range_name, []).append(name)
            self.started.append(ce.guid)
        self.ces[name] = ce
        self.ce_range[name] = range_name
        self.up[name] = True
        self.churned[name] += 1
        ce.start()

    def schedule(self) -> None:
        """A fixed number of churn events at jittered slots, half clean
        stops (back within the window) and half crashes (reaped by lease
        expiry before the restart); queries at a fixed interval."""
        sci, rng = self.sci, self.rng
        slots = int(self.CHURN_WINDOW * self.CHURN_PER_S)
        gap = self.CHURN_WINDOW / slots
        victims = rng.sample(sorted(self.ces), slots)
        for slot, name in enumerate(victims):
            t = slot * gap + rng.uniform(0.0, gap)
            if slot % 2:
                sci.scheduler.schedule(t, self._crash, name)
                back = t + rng.uniform(40.0, 44.0)
            else:
                sci.scheduler.schedule(t, self._stop, name)
                back = t + rng.uniform(5.0, 20.0)
            sci.scheduler.schedule(back, self._restart, name)
        for range_name in sorted(self.apps):
            t = rng.uniform(0.0, self.QUERY_INTERVAL)
            for number in range(self.QUERIES_PER_CAA):
                sci.scheduler.schedule(t, self._ask, range_name, number % 2)
                t += self.QUERY_INTERVAL

    def _stop(self, name: str) -> None:
        self.up[name] = False
        self.churned[name] += 1
        self.ces[name].stop()

    def _crash(self, name: str) -> None:
        self.up[name] = False
        self.churned[name] += 1
        self.ces[name].crash()

    def _restart(self, name: str) -> None:
        old = self.ces[name]
        self._start_ce(name, self.ce_range[name], old.profile, old.host_id)

    def _ask(self, range_name: str, mode: int) -> None:
        app = self.apps[range_name]
        query_id = self.query_id(app)
        if mode == 0:
            wanted = self.rng.choice(self.names[range_name])
            settled = self.up[wanted] and self.ces[wanted].registered
            self.profile_asks[query_id] = (
                wanted, self.churned[wanted] if settled else None)
            query = (self.sci.query(app.name).profile_of(wanted)
                     .with_id(query_id).build())
        else:
            query = (self.sci.query(app.name).advertisement("printer")
                     .which("available").with_id(query_id).build())
        app.ask(query)

    def _check_result(self, app: BenchApp, query_id: str, payload) -> None:
        range_name = app.name.split("-")[0]
        self.obs.note("result", app.name, query_id, payload.get("ok"),
                      payload.get("mode"),
                      [p["name"] for p in payload.get("profiles", [])],
                      (payload.get("selected") or {}).get("name"))
        if not payload.get("ok"):
            self.obs.fail(f"{query_id}: {payload.get('error')}")
            return
        if payload.get("mode") == "profile":
            # the named CE or nothing; the named CE for certain when it was
            # up and registered at submission and has not churned since
            names = [profile["name"] for profile in payload["profiles"]]
            wanted, churn = self.profile_asks[query_id]
            if names not in ([], [wanted]):
                self.obs.fail(f"{query_id}: profiles {names[:3]} for {wanted}")
            elif not names and churn == self.churned[wanted]:
                self.obs.fail(f"{query_id}: {wanted} is registered but "
                              f"missing from the result")
        else:
            selected = payload["selected"]["name"]
            if self.printers.get(selected) != range_name:
                self.obs.fail(f"{query_id}: selected {selected}")

    def check(self) -> None:
        live: Dict[str, List[str]] = {name: [app.name]
                                      for name, app in self.apps.items()}
        for name, range_name in self.printers.items():
            live[range_name].append(name)
        for range_name, places in self.RANGES.items():
            live[range_name].extend(
                f"thermometer:{places[index % len(places)]}"
                for index in range(self.THERMOMETERS_PER_RANGE))
        for name, is_up in self.up.items():
            if is_up:
                live[self.ce_range[name]].append(name)
        self.check_registrars(live)
        self.check_ledgers()
        for range_name, app in self.apps.items():
            unanswered = set(app.submitted_at) - set(app.acked)
            if unanswered:
                self.obs.fail(f"{app.name}: {len(unanswered)} unacked")


def wing_building(wings: int, offices: int) -> BuildingModel:
    """A row of wings, one floor each: a corridor with offices off it.

    Neighbouring corridors share a door, so a walk between wings crosses
    a range boundary when each wing is its own range. Every door carries
    a sensor.
    """
    building = BuildingModel("strathclyde", "bench-tower")
    width = 8.0 * offices
    for wing in range(wings):
        floor = building.add_floor(f"W{wing}")
        x0 = wing * width
        corridor = f"W{wing}.c"
        building.add_room(corridor, Rect(x0, 0, width, 4), floor)
        for office in range(offices):
            room = f"W{wing}.{office:02d}"
            building.add_room(room, Rect(x0 + 8 * office, 4, 8, 6), floor)
            door_id = f"door:{corridor}--{room}"
            building.add_door(corridor, room,
                              position=Point(x0 + 8 * office + 4, 4),
                              door_id=door_id, sensor_id=f"sensor:{door_id}")
        if wing:
            previous = f"W{wing - 1}.c"
            door_id = f"door:{previous}--{corridor}"
            building.add_door(previous, corridor, position=Point(x0, 2),
                              door_id=door_id, sensor_id=f"sensor:{door_id}")
    return building


def wing_rooms(wing: int, offices: int) -> List[str]:
    return [f"W{wing}.c"] + [f"W{wing}.{office:02d}"
                             for office in range(offices)]


class WingWorkload(Workload):
    """A workload on :func:`wing_building`, one range per wing."""

    WINGS = 4
    OFFICES = 5
    #: thermometer rooms per wing, as indexes into :func:`wing_rooms`
    THERMOMETER_ROOMS: tuple = ()
    THERMOMETER_BASELINE = 20.0
    THERMOMETER_INTERVAL = 1.0

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        #: range -> names of the components it must hold at the end
        self.members: Dict[str, List[str]] = {}

    def create_deployment(self) -> SCI:
        self.sci = SCI(building=wing_building(self.WINGS, self.OFFICES),
                       config=SCIConfig(seed=self.seed))
        return self.sci

    def add_wing(self, wing: int):
        """The wing's range with its door sensors and thermometers."""
        sci = self.sci
        range_name = f"wing{wing}"
        rooms = wing_rooms(wing, self.OFFICES)
        server = sci.create_range(range_name, places=[f"W{wing}"],
                                  hosts=[f"{range_name}-client"])
        members = self.members[range_name] = []
        sensors = sci.add_door_sensors(range_name)
        members.extend(sensor.name for sensor in sensors.values())
        self.started.extend(sensor.guid for sensor in sensors.values())
        for index, room_index in enumerate(self.THERMOMETER_ROOMS):
            thermo = TemperatureSensorCE(
                sci.guids.mint(), server.host_id, sci.network,
                room=rooms[room_index],
                baseline=self.THERMOMETER_BASELINE + index,
                interval=self.THERMOMETER_INTERVAL,
                seed=self.seed * 100 + wing * 10 + index)
            thermo.start()
            members.append(thermo.name)
            self.started.append(thermo.guid)
        return server

    def schedule_office_walks(self, people: Dict[str, int], walks: int,
                              gap: float) -> None:
        """Each person walks office to office in their wing (two door
        crossings), one walk per ``gap``-long slot; a slot must be longer
        than the longest such walk (about 27 simulated seconds)."""
        sci, rng = self.sci, self.rng
        for person, wing in sorted(people.items()):
            offices = wing_rooms(wing, self.OFFICES)[1:]
            room = sci.world.entity(person).room
            for walk in range(walks):
                room = rng.choice([office for office in offices
                                   if office != room])
                t = walk * gap + rng.uniform(0.0, 2.0)
                sci.scheduler.schedule(t, sci.walk, person, room)


# ---------------------------------------------------------------------------
# location_tracking


class LocationTracking(WingWorkload):
    """The Figure-3 path: door sensors -> objLocation CEs -> tracker CAAs."""

    name = "location_tracking"
    loop = "open"
    TRACKED_PER_WING = 16
    CARRIERS_PER_WING = 4
    POLL_INTERVAL = 1.5
    THERMOMETER_ROOMS = (1, 2)
    WALKS = 3
    WALK_GAP = 32.0
    #: boundary crossings per carrier, one per slot; a slot is longer than
    #: the walk (about 56 simulated seconds, via both corridor centres)
    SHUTTLES = 2
    SHUTTLE_GAP = 62.0
    #: lets the last walks finish before the end-state check
    DRAIN = 35.0

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self.measured_sim_s = self.WALKS * self.WALK_GAP + self.DRAIN
        self.tracked: Dict[str, int] = {}
        #: carrier -> (home office, office across the boundary)
        self.shuttles: Dict[str, tuple] = {}
        self.carriers: Dict[str, BenchApp] = {}
        self.trackers: Dict[str, BenchApp] = {}

    def build(self) -> None:
        sci = self.create_deployment()
        rng = self.rng
        tracked = self.size(self.TRACKED_PER_WING)
        for wing in range(self.WINGS):
            self.add_wing(wing)
            range_name = f"wing{wing}"
            rooms = wing_rooms(wing, self.OFFICES)
            members = self.members[range_name]
            app = make_app(sci, f"{range_name}-tracker",
                           f"{range_name}-client", self.obs)
            self.trackers[range_name] = app
            members.append(app.name)
            self.started.append(app.guid)
            for index in range(tracked):
                person = f"{range_name}-p{index}"
                sci.add_person(person, room=rng.choice(rooms[1:]))
                self.tracked[person] = wing
            # carriers live next to a boundary: the last office of one wing
            # and the first office of the next, two rooms and three doors
            # apart
            for index in range(self.CARRIERS_PER_WING):
                person = f"{range_name}-pda{index}"
                west = wing if wing + 1 < self.WINGS else wing - 1
                here = wing_rooms(west, self.OFFICES)[-1]
                there = wing_rooms(west + 1, self.OFFICES)[1]
                if west != wing:
                    here, there = there, here
                self.shuttles[person] = (here, there)
                sci.add_person(person, room=here, device_host=f"{person}-host")
                carrier = make_app(sci, f"{person}-caa", f"{person}-host",
                                   self.obs, owner=person,
                                   check_result=self._check_result)
                carrier.on_register = self._ask_around
                self.carriers[person] = carrier
                self.started.append(carrier.guid)
        sci.start_boundary_monitor(with_handoff=True)
        self.settle(self.all_registered)
        for range_name, app in sorted(self.trackers.items()):
            wing = int(range_name[4:])
            for person in sorted(p for p, w in self.tracked.items() if w == wing):
                app.ask(sci.query(app.name)
                        .subscribe("location", "topological", subject=person)
                        .with_id(self.query_id(app)).build())
            rooms = wing_rooms(wing, self.OFFICES)
            for room_index in self.THERMOMETER_ROOMS:
                room = rooms[room_index]
                app.ask(sci.query(app.name)
                        .subscribe("temperature", "celsius", subject=room)
                        .where(f"room:{room}")
                        .with_id(self.query_id(app)).build())
        self.settle_queries()

    def _ask_around(self, app: BenchApp) -> None:
        """After each (re-)registration a carrier's CAA looks around."""
        app.ask(self.sci.query(app.name).profiles_of_type("device")
                .with_id(self.query_id(app)).build())

    def _check_result(self, app: BenchApp, query_id: str, payload) -> None:
        names = [p["name"] for p in payload.get("profiles", [])]
        self.obs.note("result", app.name, query_id, payload.get("ok"), names)
        if not payload.get("ok") or not names:
            self.obs.fail(f"{query_id}: {payload.get('error', 'empty')}")

    def schedule(self) -> None:
        """Fixed walks at jittered slots: tracked people go office to
        office in their wing (two door crossings each); carriers shuttle
        between their two offices either side of a wing boundary (one
        handoff each walk)."""
        sci, rng = self.sci, self.rng
        for person, carrier in sorted(self.carriers.items()):
            t = rng.uniform(0.0, self.POLL_INTERVAL)
            while t < self.measured_sim_s - 5.0:
                sci.scheduler.schedule(t, self._poll, carrier)
                t += self.POLL_INTERVAL
        self.schedule_office_walks(self.tracked, self.WALKS, self.WALK_GAP)
        for person, (here, there) in sorted(self.shuttles.items()):
            offset = rng.uniform(0.0, 2.0)
            for walk in range(self.SHUTTLES):
                target = there if walk % 2 == 0 else here
                sci.scheduler.schedule(offset + walk * self.SHUTTLE_GAP,
                                       sci.walk, person, target)

    def _poll(self, app: BenchApp) -> None:
        """A carrier's CAA polls its surroundings while it holds a range."""
        if app.registered:
            self._ask_around(app)

    def check(self) -> None:
        world = self.sci.world
        moving = [entity.key for entity in world.entities() if entity.moving]
        if moving:
            self.obs.fail(f"walks still under way at the end: {moving[:3]}")
        for person, wing in sorted(self.tracked.items()):
            tracker = self.trackers[f"wing{wing}"]
            seen = tracker.latest.get(("location", person))
            actual = world.entity(person).room
            if seen != actual:
                self.obs.fail(f"{person}: tracker says {seen}, world {actual}")
        live = {name: list(members) for name, members in self.members.items()}
        for person, carrier in self.carriers.items():
            wing = world.entity(person).room.split(".")[0][1:]
            live[f"wing{wing}"].append(carrier.name)
        self.check_registrars(live)
        self.check_ledgers()


# ---------------------------------------------------------------------------
# query_mix


class QueryMix(WingWorkload):
    """Closed-loop CAAs submitting Figure-6 queries in all four modes."""

    name = "query_mix"
    loop = "closed"
    CAAS_PER_WING = 5
    PRINTERS_PER_WING = 3
    PEOPLE_PER_WING = 4
    #: a thermometer in every office
    THERMOMETER_ROOMS = (1, 2, 3, 4, 5)
    THERMOMETER_BASELINE = 19.0
    THERMOMETER_INTERVAL = 5.0
    SUBSCRIPTION_LIFETIME = 40.0
    FOREIGN_EVERY = 5
    POWER_CYCLES = 3
    CYCLE_GAP = 45.0
    WALKS = 5
    WALK_GAP = 30.0
    RUN = 150.0
    DRAIN = 30.0
    MODES = ("profile", "advertisement", "subscribe", "once")

    def __init__(self, seed: int, scale: float = 1.0):
        super().__init__(seed, scale)
        self.measured_sim_s = self.RUN + self.DRAIN
        self.apps: Dict[str, BenchApp] = {}
        self.app_wing: Dict[str, int] = {}
        self.app_index: Dict[str, int] = {}
        self.printers: Dict[str, BenchPrinter] = {}
        self.printer_wing: Dict[str, int] = {}
        #: printer name -> its power-offs and power-ons so far
        self.cycled: Counter = Counter()
        #: profile query id -> {printer registered in its target room when
        #: the query was submitted: that printer's cycle count then}
        self.room_printers: Dict[str, Dict[str, int]] = {}
        self.people: Dict[str, int] = {}
        self.looping = False
        #: live subscription query id -> its CAA, until cancelled
        self.pending: Dict[str, BenchApp] = {}
        self.modes: Dict[str, str] = {}
        #: query id -> (wing, room) it asks about
        self.targets: Dict[str, tuple] = {}
        self.cancelled: set = set()

    def build(self) -> None:
        sci = self.create_deployment()
        rng = self.rng
        for wing in range(self.WINGS):
            server = self.add_wing(wing)
            range_name = f"wing{wing}"
            rooms = wing_rooms(wing, self.OFFICES)
            members = self.members[range_name]
            for index in range(self.PRINTERS_PER_WING):
                name = f"W{wing}-P{index}"
                printer = BenchPrinter(sci.guids.mint(), server.host_id,
                                       sci.network, name, rooms[1 + index],
                                       self.obs)
                printer.start()
                self.printers[name] = printer
                self.printer_wing[name] = wing
                members.append(name)
                self.started.append(printer.guid)
            for index in range(self.PEOPLE_PER_WING):
                person = f"{range_name}-p{index}"
                sci.add_person(person, room=rng.choice(rooms[1:]))
                self.people[person] = wing
            for index in range(self.size(self.CAAS_PER_WING)):
                app = make_app(sci, f"{range_name}-caa{index}",
                               f"{range_name}-client",
                               self.obs, check_result=self._check_result)
                app.on_ack = self._acked
                self.app_index[app.name] = len(self.apps)
                self.apps[app.name] = app
                self.app_wing[app.name] = wing
                members.append(app.name)
                self.started.append(app.guid)
        self.settle(self.all_registered)

    def schedule(self) -> None:
        """Start every CAA's loop; fixed printer power cycles and
        office-to-office walks at jittered slots."""
        sci, rng = self.sci, self.rng
        self.looping = True
        for name in sorted(self.apps):
            sci.scheduler.schedule(rng.uniform(0.0, 1.0), self._next, name)
        sci.scheduler.schedule(self.RUN, self._stop_loop)
        # one printer of a wing down at a time, so a printer is always
        # available to advertisement queries
        for name in sorted(self.printers):
            index = int(name.rsplit("P", 1)[1])
            for cycle in range(self.POWER_CYCLES):
                t = (cycle * self.CYCLE_GAP + index * self.CYCLE_GAP
                     / self.PRINTERS_PER_WING + rng.uniform(0.0, 5.0))
                sci.scheduler.schedule(t, self._power_cycle, name)
        self.schedule_office_walks(self.people, self.WALKS, self.WALK_GAP)

    def _stop_loop(self) -> None:
        self.looping = False
        for query_id, app in sorted(self.pending.items()):
            self._cancel(app, query_id)

    def _power_cycle(self, name: str) -> None:
        printer = self.printers[name]
        self.cycled[name] += 1
        printer.stop()
        self.sci.scheduler.schedule(5.0, self._printer_back, name,
                                    printer.profile.entity_id,
                                    printer.host_id, printer.room)

    def _printer_back(self, name: str, guid, host: str, room: str) -> None:
        printer = BenchPrinter(guid, host, self.sci.network, name, room,
                               self.obs)
        self.printers[name] = printer
        self.cycled[name] += 1
        printer.start()

    def _next(self, name: str) -> None:
        if not self.looping:
            return
        app, rng = self.apps[name], self.rng
        wing = self.app_wing[name]
        number = len(app.submitted_at)
        # modes in rotation, every fifth query about another range
        mode = (self.app_index[name] + number) % len(self.MODES)
        target = wing
        if number % self.FOREIGN_EVERY == self.FOREIGN_EVERY - 1:
            target = rng.choice([w for w in range(self.WINGS) if w != wing])
        rooms = wing_rooms(target, self.OFFICES)
        room = rng.choice(rooms[1:])
        query_id = self.query_id(app)
        builder = self.sci.query(name).with_id(query_id)
        self.modes[query_id] = self.MODES[mode]
        self.targets[query_id] = (target, room)
        if mode == 0:
            builder.profiles_of_type("printer").where(f"room:{room}")
            self.room_printers[query_id] = {
                name: self.cycled[name]
                for name, printer in sorted(self.printers.items())
                if self.printer_wing[name] == target and printer.room == room
                and printer.registered}
        elif mode == 1:
            builder.advertisement("printer").where(f"within(room:W{target})") \
                .which(f"available; closest-to(room:{room})")
        elif mode == 2:
            people = [p for p, w in sorted(self.people.items()) if w == wing]
            builder.subscribe("location", "topological",
                              subject=rng.choice(people))
        else:
            builder.once("temperature", "celsius", subject=room) \
                .where(f"room:{room}")
        app.ask(builder.build())

    def _acked(self, app: BenchApp, query_id: str, payload) -> None:
        if not payload.get("ok"):
            self.obs.fail(f"{query_id}: refused {payload.get('error')}")
        if self.modes.get(query_id) == "subscribe" and payload.get("status") == "executed":
            self.pending[query_id] = app
            self.sci.scheduler.schedule(self.SUBSCRIPTION_LIFETIME,
                                        self._cancel, app, query_id)
        self.sci.scheduler.call_soon(self._next, app.name)

    def _cancel(self, app: BenchApp, query_id: str) -> None:
        if self.pending.pop(query_id, None) is not None:
            self.cancelled.add(query_id)
            app.cancel_query(query_id)

    def _check_result(self, app: BenchApp, query_id: str, payload) -> None:
        self.obs.note("result", app.name, query_id, payload.get("ok"),
                      payload.get("mode"),
                      [p["name"] for p in payload.get("profiles", [])],
                      (payload.get("selected") or {}).get("name"))
        if not payload.get("ok"):
            self.obs.fail(f"{query_id}: {payload.get('error')}")
            return
        wing, room = self.targets[query_id]
        if payload.get("mode") == "profile":
            # only printers in that room, and every one of them that was
            # registered at submission and has not power-cycled since
            names = set()
            for profile in payload["profiles"]:
                names.add(profile["name"])
                if (self.printer_wing.get(profile["name"]) != wing
                        or profile["attributes"].get("room") != room):
                    self.obs.fail(f"{query_id}: {profile['name']} is not "
                                  f"a printer in {room}")
            for name, cycles in self.room_printers[query_id].items():
                if name not in names and cycles == self.cycled[name]:
                    self.obs.fail(f"{query_id}: {name} is registered in "
                                  f"{room} but missing from the result")
        elif payload.get("mode") == "advertisement":
            selected = payload["selected"]["name"]
            if self.printer_wing.get(selected) != wing:
                self.obs.fail(f"{query_id}: selected {selected}, "
                              f"not a printer of W{wing}")

    def check(self) -> None:
        for name, app in sorted(self.apps.items()):
            unanswered = set(app.submitted_at) - set(app.acked)
            if unanswered:
                self.obs.fail(f"{name}: {len(unanswered)} unacked")
        live = {name: list(members) for name, members in self.members.items()}
        self.check_registrars(live)
        self.check_ledgers()
        # a cancelled durable subscription leaves no delivery behind
        for server in self.sci.ranges.values():
            for config in server.configurations.configurations():
                for delivery in config.deliveries:
                    if (not delivery.one_time
                            and delivery.query_id in self.cancelled):
                        self.obs.fail(f"{server.name}: {delivery.query_id} "
                                      f"still delivered after cancel")


WORKLOADS = {
    DiscoveryChurn.name: DiscoveryChurn,
    LocationTracking.name: LocationTracking,
    QueryMix.name: QueryMix,
}
