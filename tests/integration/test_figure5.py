"""Figure 5 end-to-end: the discovery sequence.

'When a Context Server starts up, it deploys a Range Service to all the
machines within its jurisdiction. The RS performs the task of listening for
CAAs or CEs starting up in order to inform them about the Range's Registrar.
... Upon completion of the registration process, the Registrar will return
the Context Server details to a CAA (in order to submit queries) or the
Event Mediator details to a CE (in order to publish events).'
"""

import pytest

from repro.core.types import TypeSpec
from repro.entities.entity import ContextAwareApplication, ContextEntity
from repro.entities.profile import EntityClass, Profile
from repro.net.eventlog import EventLog
from repro.net.transport import FixedLatency, Network, Process
from repro.core.ids import GuidFactory
from repro.core.types import standard_registry
from repro.location.building import livingstone_tower
from repro.location.converters import register_location_converters
from repro.server.context_server import ContextServer
from repro.server.range import RangeDefinition


@pytest.fixture
def multi_machine():
    """A range whose jurisdiction spans five machines."""
    net = Network(latency_model=FixedLatency(1.0), seed=13)
    guids = GuidFactory(seed=13)
    building = livingstone_tower()
    registry = register_location_converters(standard_registry(), building)
    machines = [f"machine-{i}" for i in range(5)]
    for machine in machines:
        net.add_host(machine)
    server = ContextServer(
        guids.mint(), machines[0], net,
        RangeDefinition("range", places=["livingstone"], hosts=machines),
        building, registry, guids)
    return net, guids, server, machines


class TestRangeServiceDeployment:
    def test_rs_on_every_machine(self, multi_machine):
        net, guids, server, machines = multi_machine
        assert set(server.range_services) == set(machines)
        for machine, service in server.range_services.items():
            assert service.host_id == machine

    def test_component_on_any_machine_discovers(self, multi_machine):
        net, guids, server, machines = multi_machine
        components = []
        for machine in machines:
            ce = ContextEntity(
                Profile(guids.mint(), f"ce@{machine}",
                        outputs=[TypeSpec("temperature", "celsius")]),
                machine, net)
            ce.start()
            components.append(ce)
        net.scheduler.run_for(10)
        assert all(ce.registered for ce in components)
        assert server.registrar.population() == len(machines)


class TestAddressHandout:
    def test_caa_gets_context_server(self, multi_machine):
        net, guids, server, machines = multi_machine
        app = ContextAwareApplication(
            Profile(guids.mint(), "app", EntityClass.SOFTWARE),
            machines[2], net)
        app.start()
        net.scheduler.run_for(10)
        assert app.context_server == server.guid

    def test_ce_gets_event_mediator(self, multi_machine):
        net, guids, server, machines = multi_machine
        ce = ContextEntity(
            Profile(guids.mint(), "ce",
                    outputs=[TypeSpec("temperature", "celsius")]),
            machines[3], net)
        ce.start()
        net.scheduler.run_for(10)
        assert ce.event_mediator == server.mediator.guid

    def test_discovery_latency_flat_in_machine_count(self, multi_machine):
        """The handshake is machine-local + two round trips, independent of
        how many machines the range spans."""
        net, guids, server, machines = multi_machine
        latencies = []
        for machine in machines:
            ce = ContextEntity(
                Profile(guids.mint(), f"timed@{machine}",
                        outputs=[TypeSpec("temperature", "celsius")]),
                machine, net)
            started = net.scheduler.now
            done = []
            ce.on_registered = lambda d=done: d.append(net.scheduler.now)
            ce.start()
            net.scheduler.run_for(20)
            latencies.append(done[0] - started)
        assert max(latencies) - min(latencies) < 1e-9  # identical handshakes


class TestLateServer:
    def test_component_before_server_registers_after_probe(self):
        """A component that boots before its range exists can probe later."""
        net = Network(latency_model=FixedLatency(1.0), seed=14)
        guids = GuidFactory(seed=14)
        net.add_host("m0")
        ce = ContextEntity(
            Profile(guids.mint(), "early",
                    outputs=[TypeSpec("temperature", "celsius")]),
            "m0", net)
        ce.start()
        net.scheduler.run_for(10)
        assert not ce.registered
        building = livingstone_tower()
        registry = register_location_converters(standard_registry(), building)
        ContextServer(guids.mint(), "m0", net,
                      RangeDefinition("late", places=["livingstone"],
                                      hosts=["m0"]),
                      building, registry, guids)
        ce.start()  # announce again (a real component retries)
        net.scheduler.run_for(10)
        assert ce.registered


def _ce(guids, net, name, machine, guid=None):
    return ContextEntity(
        Profile(guid or guids.mint(), name,
                outputs=[TypeSpec("temperature", "celsius")]),
        machine, net)


def _heard(rs):
    """Record every kind ``rs`` handles (instance-level spy)."""
    heard = []
    handle = rs.on_message

    def spy(message):
        heard.append(message.kind)
        handle(message)

    rs.on_message = spy
    return heard


def _component_up_deliveries(log):
    return [entry for entry in log.entries()
            if entry[2] == "deliver" and entry[3] == "component-up"]


class TestLinearDiscovery:
    """Figure 5: only the Range Service listens for ``component-up``, so N
    components starting on one machine cost N announce deliveries, not N²."""

    N = 12
    #: two machines that land on distinct lanes of a 2-partition substrate
    MACHINES = ("alpha", "beta")

    def _deployment(self, **network_args):
        log = EventLog()
        net = Network(latency_model=FixedLatency(1.0), seed=15,
                      event_log=log, **network_args)
        guids = GuidFactory(seed=15)
        building = livingstone_tower()
        registry = register_location_converters(standard_registry(), building)
        for machine in self.MACHINES:
            net.add_host(machine)
        server = ContextServer(
            guids.mint(), self.MACHINES[1], net,
            RangeDefinition("range", places=["livingstone"],
                            hosts=list(self.MACHINES)),
            building, registry, guids)
        return net, guids, server, log

    def test_n_starts_cost_n_deliveries_all_to_the_rs(self):
        net, guids, server, log = self._deployment()
        rs = server.range_services["alpha"]
        heard = _heard(rs)
        ces = [_ce(guids, net, f"ce{i}", "alpha") for i in range(self.N)]
        for ce in ces:
            ce.start()
        net.scheduler.run_for(10)
        assert len(_component_up_deliveries(log)) == self.N
        assert heard.count("component-up") == self.N
        assert rs.offers_made == self.N
        assert net.stats.by_kind["component-up"] == self.N
        assert all(ce.registered for ce in ces)
        assert server.registrar.population() == self.N

    def test_churn_keeps_the_listener_index_consistent(self):
        net, guids, server, log = self._deployment()
        rs = server.range_services["alpha"]
        heard = _heard(rs)
        ces = [_ce(guids, net, f"ce{i}", "alpha") for i in range(self.N)]
        for ce in ces:
            ce.start()
        net.scheduler.run_for(10)

        # a crashed CE restarted under the same GUID is heard exactly once
        victim = ces[3]
        victim.crash()
        net.scheduler.run_for(5)
        reborn = _ce(guids, net, "ce3", "alpha", guid=victim.guid)
        reborn.start()
        net.scheduler.run_for(10)
        assert reborn.registered
        assert heard.count("component-up") == self.N + 1
        assert len(_component_up_deliveries(log)) == self.N + 1

        # a detached RS hears nothing, so the newcomer stays unregistered
        rs.detach()
        late = _ce(guids, net, "late", "alpha")
        late.start()
        net.scheduler.run_for(10)
        assert heard.count("component-up") == self.N + 1
        assert len(_component_up_deliveries(log)) == self.N + 1
        assert not late.registered

        # re-attached, it hears the next announce and the newcomer joins
        net.attach(rs)
        late.start()
        net.scheduler.run_for(10)
        assert heard.count("component-up") == self.N + 2
        assert len(_component_up_deliveries(log)) == self.N + 2
        assert late.registered

    def test_partitioned_discovery_is_lane_race_free(self):
        """Starts, crashes and an RS detach/re-attach run on the hosts' own
        lanes, and LaneSan, which wraps the listener index, sees no
        cross-lane conflict."""
        net, guids, server, log = self._deployment(partitions=2,
                                                   sanitize=True)
        assert net.scheduler.lane_of("alpha") != net.scheduler.lane_of("beta")
        ces = {machine: [_ce(guids, net, f"ce{i}@{machine}", machine)
                         for i in range(self.N)]
               for machine in self.MACHINES}
        launchers = {machine: Launcher(guids.mint(), machine, net,
                                       ces[machine],
                                       server.range_services[machine])
                     for machine in self.MACHINES}
        for step, when in (("boot", 1.0), ("churn", 12.0), ("reboot", 24.0)):
            for launcher in launchers.values():
                net.scheduler.schedule_at(
                    when, launcher.send, launcher.guid, step)
        net.scheduler.run_for(40)
        for machine, group in ces.items():
            assert not group[0].registered          # crashed, not restarted
            assert all(ce.registered for ce in group[1:])
        # per host: N boot announces, then N-1 once the RS is back
        assert len(_component_up_deliveries(log)) == 2 * (2 * self.N - 1)
        assert net.sanitizer.records > 0
        assert net.sanitizer.conflicts() == []


class Launcher(Process):
    """Drives its host's components from that host's own lane."""

    def __init__(self, guid, host_id, network, ces, range_service):
        super().__init__(guid, host_id, network, name=f"launcher@{host_id}")
        self.ces = ces
        self.range_service = range_service

    def on_message(self, message):
        if message.kind == "boot":
            for ce in self.ces:
                ce.start()
        elif message.kind == "churn":
            self.ces[0].crash()
            self.range_service.detach()
        elif message.kind == "reboot":
            self.network.attach(self.range_service)
            for ce in self.ces[1:]:
                ce.start()
