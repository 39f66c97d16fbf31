"""Event Mediator: subscriptions, one-time mode, retained replay, bridging."""

import pytest

from repro.core.types import TypeSpec
from repro.events.event import ContextEvent
from repro.events.filters import SubjectFilter, TypeFilter
from repro.events.mediator import EventMediator
from repro.net.transport import FunctionProcess


@pytest.fixture
def mediator(network, guids):
    return EventMediator(guids.mint(), "host-a", network, "test-range")


@pytest.fixture
def subscriber(network, guids):
    inbox = []
    process = FunctionProcess(guids.mint(), "host-b", network, inbox.append,
                              name="subscriber")
    return process, inbox


def publish(mediator, type_name="location", subject="bob", value="L10.01",
            representation="topological"):
    event = ContextEvent(TypeSpec(type_name, representation, subject),
                         value, mediator.guid, mediator.now)
    return mediator.publish(event)


class TestSubscriptions:
    def test_matching_event_delivered(self, network, mediator, subscriber):
        process, inbox = subscriber
        mediator.add_subscription(process.guid, TypeFilter("location"))
        publish(mediator)
        network.scheduler.run_until_idle()
        assert len(inbox) == 1
        assert inbox[0].kind == "event"
        assert inbox[0].payload["event"]["value"] == "L10.01"

    def test_non_matching_filtered(self, network, mediator, subscriber):
        process, inbox = subscriber
        mediator.add_subscription(process.guid, TypeFilter("temperature"))
        publish(mediator)
        network.scheduler.run_until_idle()
        assert inbox == []

    def test_multiple_subscribers_each_get_copy(self, network, mediator, guids):
        inboxes = []
        for _ in range(3):
            inbox = []
            process = FunctionProcess(guids.mint(), "host-b", network,
                                      inbox.append)
            mediator.add_subscription(process.guid, TypeFilter("location"))
            inboxes.append(inbox)
        publish(mediator)
        network.scheduler.run_until_idle()
        assert all(len(inbox) == 1 for inbox in inboxes)

    def test_remove_subscription(self, network, mediator, subscriber):
        process, inbox = subscriber
        sub = mediator.add_subscription(process.guid, TypeFilter("location"))
        assert mediator.remove_subscription(sub.sub_id)
        publish(mediator)
        network.scheduler.run_until_idle()
        assert inbox == []

    def test_remove_by_owner(self, network, mediator, subscriber):
        process, inbox = subscriber
        mediator.add_subscription(process.guid, TypeFilter("location"),
                                  owner="cfg-1")
        mediator.add_subscription(process.guid, TypeFilter("temperature"),
                                  owner="cfg-1")
        assert mediator.remove_subscriptions_of("cfg-1") == 2
        assert mediator.subscription_count == 0

    def test_remove_subscriber(self, network, mediator, subscriber):
        process, _ = subscriber
        mediator.add_subscription(process.guid, TypeFilter("location"))
        assert mediator.remove_subscriber(process.guid) == 1


class TestOneTime:
    def test_one_time_cancelled_after_first(self, network, mediator, subscriber):
        process, inbox = subscriber
        mediator.add_subscription(process.guid, TypeFilter("location"),
                                  one_time=True)
        publish(mediator, value="first")
        publish(mediator, value="second")
        network.scheduler.run_until_idle()
        assert len(inbox) == 1
        assert inbox[0].payload["event"]["value"] == "first"
        assert mediator.subscription_count == 0


class TestRetainedReplay:
    def test_late_subscriber_gets_retained(self, network, mediator, subscriber):
        process, inbox = subscriber
        publish(mediator, value="before")
        mediator.add_subscription(process.guid, TypeFilter("location"))
        network.scheduler.run_until_idle()
        assert len(inbox) == 1
        assert inbox[0].payload["event"]["value"] == "before"

    def test_replay_can_be_disabled(self, network, mediator, subscriber):
        process, inbox = subscriber
        publish(mediator)
        mediator.add_subscription(process.guid, TypeFilter("location"),
                                  replay_retained=False)
        network.scheduler.run_until_idle()
        assert inbox == []

    def test_retained_keyed_by_type_repr_subject(self, network, mediator):
        publish(mediator, subject="bob", value="a")
        publish(mediator, subject="john", value="b")
        assert mediator.retained_event("location", "topological", "bob").value == "a"
        assert mediator.retained_event("location", "topological", "john").value == "b"

    def test_one_time_satisfied_by_replay(self, network, mediator, subscriber):
        process, inbox = subscriber
        publish(mediator, value="retained")
        mediator.add_subscription(process.guid, TypeFilter("location"),
                                  one_time=True)
        network.scheduler.run_until_idle()
        assert len(inbox) == 1
        assert mediator.subscription_count == 0


class TestMessageProtocol:
    def test_subscribe_via_message(self, network, mediator, subscriber, guids):
        process, inbox = subscriber
        acks = []
        requester = FunctionProcess(guids.mint(), "host-b", network, acks.append)
        requester.send(mediator.guid, "subscribe", {
            "subscriber": process.guid.hex,
            "filter": TypeFilter("location").to_spec(),
            "one_time": False,
        })
        network.scheduler.run_until_idle()
        assert acks[0].kind == "subscribe-ack"
        publish(mediator)
        network.scheduler.run_until_idle()
        assert len(inbox) == 1

    def test_publish_via_message(self, network, mediator, subscriber, guids):
        process, inbox = subscriber
        mediator.add_subscription(process.guid, TypeFilter("location"))
        publisher = FunctionProcess(guids.mint(), "host-b", network,
                                    lambda m: None)
        event = ContextEvent(TypeSpec("location", "topological", "bob"),
                             "L10.02", publisher.guid, 0.0)
        publisher.send(mediator.guid, "publish", {"event": event.to_wire()})
        network.scheduler.run_until_idle()
        assert inbox[0].payload["event"]["value"] == "L10.02"

    def test_unsubscribe_via_message(self, network, mediator, subscriber, guids):
        process, inbox = subscriber
        sub = mediator.add_subscription(process.guid, TypeFilter("location"))
        acks = []
        requester = FunctionProcess(guids.mint(), "host-b", network, acks.append)
        requester.send(mediator.guid, "unsubscribe", {"sub_id": sub.sub_id})
        network.scheduler.run_until_idle()
        assert acks[0].payload["removed"] is True


class TestBridging:
    def test_bridge_forwards_matching(self, network, guids):
        local = EventMediator(guids.mint(), "host-a", network, "range-a")
        remote = EventMediator(guids.mint(), "host-b", network, "range-b")
        inbox = []
        app = FunctionProcess(guids.mint(), "host-b", network, inbox.append)
        remote.add_subscription(app.guid, TypeFilter("location"))
        local.add_bridge(remote.guid, TypeFilter("location"))
        publish(local)
        network.scheduler.run_until_idle()
        assert len(inbox) == 1

    def test_mutual_bridges_do_not_loop(self, network, guids):
        a = EventMediator(guids.mint(), "host-a", network, "range-a")
        b = EventMediator(guids.mint(), "host-b", network, "range-b")
        a.add_bridge(b.guid, TypeFilter("location"))
        b.add_bridge(a.guid, TypeFilter("location"))
        publish(a)
        network.scheduler.run_until_idle()  # would livelock if looping
        assert b.published == 1  # arrived once, not echoed back

    def test_bridge_removal(self, network, guids):
        a = EventMediator(guids.mint(), "host-a", network, "range-a")
        b = EventMediator(guids.mint(), "host-b", network, "range-b")
        bridge = a.add_bridge(b.guid, TypeFilter("location"))
        assert a.remove_bridge(bridge.bridge_id)
        publish(a)
        network.scheduler.run_until_idle()
        assert b.published == 0


@pytest.fixture
def wire_calls(monkeypatch):
    """Count ContextEvent.to_wire calls, per event seq."""
    calls = []
    original = ContextEvent.to_wire

    def counting(event):
        calls.append(event.seq)
        return original(event)

    monkeypatch.setattr(ContextEvent, "to_wire", counting)
    return calls


def inboxes_for(network, guids, mediator, count, event_filter):
    inboxes = []
    for _ in range(count):
        inbox = []
        process = FunctionProcess(guids.mint(), "host-b", network, inbox.append)
        mediator.add_subscription(process.guid, event_filter)
        inboxes.append(inbox)
    return inboxes


class TestSerialiseOnce:
    @pytest.mark.parametrize("engine", ["classic", "indexed", "opgraph"])
    def test_one_wire_per_publish_whatever_the_fan_out(
            self, network, guids, wire_calls, engine):
        mediator = EventMediator(guids.mint(), "host-a", network, "r",
                                 engine=engine)
        peer = EventMediator(guids.mint(), "host-b", network, "peer")
        mediator.add_bridge(peer.guid, TypeFilter("location"))
        inboxes = inboxes_for(network, guids, mediator, 5,
                              TypeFilter("location"))
        assert publish(mediator) == 5
        assert len(wire_calls) == 1
        network.scheduler.run_until_idle()
        assert all(len(inbox) == 1 for inbox in inboxes)
        assert peer.published == 1
        publish(mediator, value="L10.02")
        assert len(wire_calls) == 2  # a new publish gets its own wire
        assert wire_calls[0] != wire_calls[1]

    def test_decoded_events_are_independent(self, network, guids):
        mediator = EventMediator(guids.mint(), "host-a", network, "r")
        inboxes = inboxes_for(network, guids, mediator, 3,
                              TypeFilter("location"))
        event = ContextEvent(TypeSpec("location", "topological", "bob"),
                             "L10.01", mediator.guid, 0.0,
                             attributes={"accuracy": 0.9, "tags": ["door"]})
        mediator.publish(event)
        network.scheduler.run_until_idle()
        decoded = [ContextEvent.from_wire(inbox[0].payload["event"])
                   for inbox in inboxes]
        decoded[0].attributes["accuracy"] = 0.1
        decoded[0].attributes["extra"] = True
        for other in decoded[1:]:
            assert other.attributes == {"accuracy": 0.9, "tags": ["door"]}
        assert event.attributes == {"accuracy": 0.9, "tags": ["door"]}
        assert len({inbox[0].payload["sub_id"] for inbox in inboxes}) == 3

    def test_replay_and_later_publishes_never_reuse_a_stale_wire(
            self, network, guids, wire_calls):
        mediator = EventMediator(guids.mint(), "host-a", network, "r")
        publish(mediator, value="first")
        inbox = inboxes_for(network, guids, mediator, 1,
                            TypeFilter("location"))[0]
        publish(mediator, value="second")
        network.scheduler.run_until_idle()
        assert [m.payload["event"]["value"] for m in inbox] == ["first",
                                                                "second"]
        assert mediator._wire_event is None and mediator._wire is None
