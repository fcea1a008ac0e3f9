"""Abstract router.

The engine drives every router through two phases per cycle:

1. :meth:`BaseRouter.latch` — collect returned credits and take the flits
   that finished traversing the incident links (the downstream end of the
   LT stage);
2. :meth:`BaseRouter.step` — the design-specific SA/ST logic, which may
   push flits onto output links (starting a new LT) and return credits.

Routers never touch each other's state directly; links and credit channels
are the only communication, which makes the synchronous update independent
of router iteration order.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from ..energy.model import EnergyModel
from ..obs.counters import RouterCounters
from ..obs.trace import EV_EJECT, EV_INJECT, EV_ROUTE
from ..routing.base import RoutingFunction
from ..sim.config import SimConfig
from ..sim.flit import Flit
from ..sim.link import CreditChannel, Link
from ..sim.ports import Port
from ..sim.topology import Mesh

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.network import Network

LOCAL = Port.LOCAL


class BaseRouter(ABC):
    """Common state and plumbing for all router designs."""

    #: whether the design uses credit-based flow control toward its input
    #: buffers (bufferless designs override to False).
    uses_credits: bool = True

    def __init__(
        self,
        node: int,
        mesh: Mesh,
        routing: RoutingFunction,
        energy: EnergyModel,
        config: SimConfig,
    ) -> None:
        self.node = node
        self.mesh = mesh
        self.routing = routing
        self.energy = energy
        self.stats = energy.stats
        self.config = config
        self.network: Optional["Network"] = None  # set by Network wiring

        # Link endpoints, filled in by the network builder.  Keys are the
        # ports that physically exist at this node.
        self.in_links: Dict[Port, Link] = {}
        self.out_links: Dict[Port, Link] = {}
        # Credits we hold for each downstream input buffer (per out port).
        self.credits: Dict[Port, int] = {}
        self.credit_in: Dict[Port, CreditChannel] = {}  # returns to us
        self.credit_out: Dict[Port, CreditChannel] = {}  # we return upstream

        # Source queue (infinite, inside the PE).
        self.inj_queue: deque = deque()

        # Flits latched from the links this cycle: (arrival port, flit).
        self.incoming: List[Tuple[Port, Flit]] = []

        # Observability: lifecycle tracer (None unless tracing is enabled,
        # so the hot path pays one branch) and the always-on per-router
        # event counters the engine and interval metrics aggregate.
        self.trace = None
        self.counters = RouterCounters()
        # Invariant auditor (None unless auditing is enabled; same one-branch
        # hot-path discipline as the tracer).
        self.audit = None

    # ------------------------------------------------------------------
    # wiring hooks (called by Network)
    # ------------------------------------------------------------------
    def attach_network(self, network: "Network") -> None:
        self.network = network

    def credit_budget(self) -> int:
        """Downstream buffer slots an upstream router may assume.

        Subclasses with different buffer organisations override this; the
        value seeds the *upstream* router's ``credits`` counter for the link
        pointing at us.
        """
        return self.config.buffer_depth

    def finalize_wiring(self) -> None:
        """Called once after all links/credits are attached."""

    def enable_trace(self, tracer) -> None:
        """Attach a lifecycle tracer (subclasses hook sub-components)."""
        self.trace = tracer

    # ------------------------------------------------------------------
    # per-cycle protocol
    # ------------------------------------------------------------------
    def latch(self, cycle: int) -> None:
        """Phase 1: absorb credits and arriving flits.

        Reads the channel and link slots directly (the equivalent of
        ``CreditChannel.collect`` and ``Link.take``): this runs for every
        router with pending input, every cycle."""
        if self.uses_credits:
            credits = self.credits
            for port, chan in self.credit_in.items():
                got = chan._now
                if got:
                    chan._now = 0
                    credits[port] += got

        incoming = self.incoming
        incoming.clear()
        for port, link in self.in_links.items():
            regs = link._regs
            flit = regs[-1]
            if flit is not None:
                regs[-1] = None
                link._count -= 1
                incoming.append((port, flit))

    @abstractmethod
    def step(self, cycle: int) -> None:
        """Phase 2: allocate and traverse (design-specific)."""

    # ------------------------------------------------------------------
    # injection interface (used by traffic generators via Network)
    # ------------------------------------------------------------------
    def enqueue_flit(self, flit: Flit) -> None:
        """Append a flit to the PE source queue."""
        self.inj_queue.append(flit)
        self.counters.injected += 1
        self.stats.record_flit_injection(flit)
        if self.network is not None:
            self.network.wake_router(self.node)
        if self.trace is not None:
            self.trace.emit(flit.injected_cycle, EV_INJECT, self.node, flit)

    @property
    def source_queue_len(self) -> int:
        return len(self.inj_queue)

    # ------------------------------------------------------------------
    # helpers for subclasses
    # ------------------------------------------------------------------
    def send(self, flit: Flit, port: Port, cycle: int) -> None:
        """Drive ``flit`` through output ``port``: ejection for LOCAL, link
        traversal otherwise.  Crossbar energy is charged by the caller
        (designs differ in which crossbar the flit crossed)."""
        if port == LOCAL:
            assert flit.dst == self.node, "ejecting a flit at a foreign node"
            self.counters.ejected += 1
            if self.trace is not None:
                self.trace.emit(cycle, EV_EJECT, self.node, flit, hops=flit.hops)
            self.network.eject(flit, cycle)
        else:
            flit.hops += 1
            self.energy.charge_link(flit)
            self.out_links[port].push(flit)

    def mark_network_entry(self, flit: Flit, cycle: int) -> None:
        if flit.network_entry_cycle < 0:
            flit.network_entry_cycle = cycle
            self.counters.entries += 1
            self.stats.per_node_entries[self.node] += 1
            if self.trace is not None:
                self.trace.emit(cycle, EV_ROUTE, self.node, flit)

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Snapshot the design-independent mutable state.  Subclasses
        extend the dict; derived wiring (links, routing, energy) and the
        transient ``incoming`` list (dead at the end-of-cycle snapshot
        point — the next ``latch`` clears it) are not serialised."""
        return {
            "inj_queue": [f.to_dict() for f in self.inj_queue],
            "credits": {port.name: c for port, c in self.credits.items()},
            "counters": self.counters.snapshot(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.inj_queue.clear()
        self.inj_queue.extend(Flit.from_dict(d) for d in state["inj_queue"])
        for name, c in state["credits"].items():
            self.credits[Port[name]] = c
        self.counters.load(state["counters"])
        self.incoming.clear()

    # ------------------------------------------------------------------
    # introspection (tests / draining)
    # ------------------------------------------------------------------
    def telemetry_counters(self) -> Dict[str, int]:
        """Uniform per-router counter dict.

        Every design returns the same keys (unused counters stay zero), so
        the engine merges them without per-design ``getattr`` probing and
        the interval-metrics collector can take columnar deltas.
        """
        return self.counters.snapshot()

    def occupancy(self) -> int:
        """Number of flits held inside the router (excluding source queue).

        Subclasses with buffers override.
        """
        return 0

    def is_idle(self) -> bool:
        """True when a :meth:`step` this cycle would be an observable no-op,
        so the activity-scheduled network may skip this router.

        The contract (see docs/architecture.md): a router reporting idle
        must mutate *no* state — counters, energy, fairness, mode windows,
        retransmission heaps — if stepped with an empty ``incoming`` list.
        Arrivals and credits never need checking here: the network wakes
        the destination of every occupied link head and the upstream side
        of every pending credit channel independently.  Designs with
        carry state that advances while the datapath is empty (fairness
        counters mid-streak, AFC mode windows, SCARAB retransmission
        queues, pending fault-detection latches) must override and return
        False until that state has come to rest.
        """
        return not self.inj_queue and self.occupancy() == 0

    def pending_flits(self) -> int:
        """Total flits this router still owes the network."""
        return self.occupancy() + len(self.inj_queue)

    # ------------------------------------------------------------------
    # invariant auditing (see src/repro/audit/)
    # ------------------------------------------------------------------
    def audit_snapshot(self) -> Dict[str, List[Flit]]:
        """Every flit this router holds at the end-of-cycle boundary,
        grouped by named container.

        The contract (mirroring :meth:`is_idle`): the union over containers
        must enumerate each held flit exactly once and cover everything
        :meth:`pending_flits` counts — source queue, input FIFOs,
        retransmission queues.  The transient ``incoming`` list is *not* a
        container (it is dead at the boundary).  Subclasses with buffers
        extend the base dict.
        """
        return {"inj_queue": list(self.inj_queue)}

    def audit_invariants(self, cycle: int):
        """Yield ``(check, message)`` pairs for broken design-specific
        postconditions at the end of ``cycle`` (e.g. a bufferless primary
        holding state, a fairness counter past its threshold).  The base
        design has none.
        """
        return ()

    def audit_input_occupancy(self, in_port: Port) -> int:
        """Flits buffered against the credits of the upstream router on
        ``in_port`` (used for per-link credit conservation).  Bufferless
        designs hold none."""
        return 0
