"""The Range Service Context Utility — per-machine discovery daemon.

Section 4.2 / Figure 5: "When a Context Server starts up, it deploys a Range
Service (RS) to all the machines within its jurisdiction. The RS performs
the task of listening for CAAs or CEs starting up in order to inform them
about the Range's Registrar."

A starting component broadcasts ``component-up`` on its machine; the RS on
that machine answers with ``range-offer`` naming the Registrar. The RS also
re-offers on demand (``probe``), which the mobility layer uses when a device
host physically enters the range.
"""

from __future__ import annotations

import logging

from repro.core.ids import GUID
from repro.net.message import Message
from repro.net.transport import Network, Process

logger = logging.getLogger(__name__)


class RangeService(Process):
    """One discovery daemon on one machine of a range's jurisdiction."""

    #: the one link-local announcement the RS listens for (Figure 5)
    BROADCAST_KINDS = frozenset({"component-up"})

    def __init__(self, guid: GUID, host_id: str, network: Network,
                 range_name: str, registrar: GUID):
        super().__init__(guid, host_id, network,
                         name=f"range-service:{range_name}@{host_id}")
        self.range_name = range_name
        self.registrar = registrar
        self.offers_made = 0
        self.enabled = True

    def offer_to(self, component: GUID) -> None:
        """Tell one component where the Registrar is."""
        if not self.enabled:
            return
        self.offers_made += 1
        self.send(component, "range-offer", {
            "range": self.range_name,
            "registrar": self.registrar.hex,
        })

    def offer_to_host(self) -> int:
        """Offer to every component currently on this machine.

        Used when a mobile machine (a PDA) enters the range: the components
        on it never saw a Range Service, so the RS takes the first step.
        """
        offered = 0
        for process in self.network.processes_on(self.host_id):
            if process.guid == self.guid:
                continue
            if getattr(process, "component_kind", None) in ("ce", "caa"):
                self.offer_to(process.guid)
                offered += 1
        return offered

    def on_message(self, message: Message) -> None:
        if message.kind == "component-up":
            self.offer_to(message.sender)
        elif message.kind == "probe":
            self.offer_to(message.sender)
        else:
            logger.debug("%s ignoring %s", self.name, message)
