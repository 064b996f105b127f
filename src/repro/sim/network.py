"""Simulated network fabric.

Models a switched Gigabit-Ethernet-style cluster network: every message
pays a fixed latency plus a serialisation delay at the sender's NIC
(``size / bandwidth``).  Each node's NIC transmits one message at a
time, so bursts queue — this is what makes batch-style systems (whose
communication all lands at a barrier) show long network-bound stalls,
while G-Miner's pipeline spreads pulls across the whole run.

Messages destined for the local node are delivered immediately with no
cost, matching the paper's local/remote candidate distinction.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.sim.engine import Simulator
from repro.sim.metrics import ByteCounter, ResourceMeter


@dataclass
class Message:
    src: int
    dst: int
    size_bytes: int
    payload: Any


@dataclass(frozen=True)
class LinkFaultSpec:
    """One declarative fault on a (set of) link(s), active in a window.

    ``src``/``dst`` of ``None`` match any endpoint, so a single spec can
    degrade a whole node's links or the entire fabric.  Windows are
    half-open ``[start, end)``; ``end=inf`` means "for the rest of the
    run".  ``partition=True`` drops *everything* on matching links for
    the window — the classic partition experiment — independent of the
    probabilistic knobs.
    """

    src: Optional[int] = None
    dst: Optional[int] = None
    start: float = 0.0
    end: float = math.inf
    loss: float = 0.0  # P(drop) per message
    duplicate: float = 0.0  # P(second copy delivered)
    reorder: float = 0.0  # P(extra delay, letting later sends overtake)
    reorder_delay: float = 0.005  # the extra delay when reordered
    slow_factor: float = 1.0  # latency multiplier >= 1 (straggler link)
    partition: bool = False

    def matches(self, src: int, dst: int, now: float) -> bool:
        if self.src is not None and self.src != src:
            return False
        if self.dst is not None and self.dst != dst:
            return False
        return self.start <= now < self.end

    def validate(self, num_nodes: Optional[int] = None) -> None:
        """Fail fast on nonsense specs; raise ``ValueError`` with a hint."""
        for name in ("start", "end"):
            value = getattr(self, name)
            if math.isnan(value) or value < 0:
                raise ValueError(
                    f"link fault {name} must be a non-negative time, got {value!r}"
                )
        if self.end <= self.start:
            raise ValueError(
                f"link fault window is empty: start={self.start} >= end={self.end}"
            )
        for name in ("loss", "duplicate", "reorder"):
            p = getattr(self, name)
            if math.isnan(p) or not 0.0 <= p <= 1.0:
                raise ValueError(
                    f"link fault {name} must be a probability in [0, 1], got {p!r}"
                )
        if math.isnan(self.reorder_delay) or self.reorder_delay < 0:
            raise ValueError(
                f"reorder_delay must be non-negative, got {self.reorder_delay!r}"
            )
        if math.isnan(self.slow_factor) or self.slow_factor < 1.0:
            raise ValueError(
                f"slow_factor must be >= 1 (a latency multiplier), got "
                f"{self.slow_factor!r}"
            )
        if num_nodes is not None:
            for name in ("src", "dst"):
                endpoint = getattr(self, name)
                if endpoint is not None and not 0 <= endpoint < num_nodes:
                    raise ValueError(
                        f"link fault {name}={endpoint} is not a node id in "
                        f"[0, {num_nodes})"
                    )


@dataclass
class _LinkVerdict:
    """What the fault model decided for one message."""

    drop: bool = False
    partitioned: bool = False
    duplicates: int = 0
    extra_delay: float = 0.0
    slow_factor: float = 1.0


class LinkFaultModel:
    """Seeded, deterministic message-level fault injection.

    Every decision comes from one ``random.Random(seed)`` stream, drawn
    in message-send order — which the simulator makes deterministic —
    so identical seeds yield identical degraded timelines.  Fault-free
    fabrics never install one, keeping them byte-identical to a build
    without the fault layer.
    """

    def __init__(self, specs: List[LinkFaultSpec], seed: int = 0) -> None:
        self.specs = list(specs)
        self.seed = seed
        self._rng = random.Random(seed)
        self.dropped = 0
        self.partition_dropped = 0
        self.duplicated = 0
        self.delayed = 0

    def judge(self, src: int, dst: int, now: float) -> _LinkVerdict:
        """Decide the fate of one ``src → dst`` message sent at ``now``."""
        verdict = _LinkVerdict()
        for spec in self.specs:
            if not spec.matches(src, dst, now):
                continue
            if spec.partition:
                verdict.drop = True
                verdict.partitioned = True
                # no RNG draw: partitions are absolute, and skipping the
                # draw keeps the stream identical however long they last
                continue
            if spec.loss and self._rng.random() < spec.loss:
                verdict.drop = True
            if spec.duplicate and self._rng.random() < spec.duplicate:
                verdict.duplicates += 1
            if spec.reorder and self._rng.random() < spec.reorder:
                verdict.extra_delay += spec.reorder_delay
            if spec.slow_factor > verdict.slow_factor:
                verdict.slow_factor = spec.slow_factor
        if verdict.drop:
            if verdict.partitioned:
                self.partition_dropped += 1
            else:
                self.dropped += 1
        else:
            self.duplicated += verdict.duplicates
            if verdict.extra_delay > 0.0:
                self.delayed += 1
        return verdict

    def stats(self) -> Dict[str, int]:
        return {
            "net_fault_dropped": self.dropped,
            "net_fault_partition_dropped": self.partition_dropped,
            "net_fault_duplicated": self.duplicated,
            "net_fault_delayed": self.delayed,
        }


class _Nic:
    """One node's transmit queue: serialises outgoing messages."""

    def __init__(self, sim: Simulator, node_id: int, bandwidth: float) -> None:
        self.sim = sim
        self.node_id = node_id
        self.bandwidth = bandwidth
        self.meter = ResourceMeter(name=f"nic-{node_id}", capacity=1)
        self._queue: Deque = deque()
        self._sending = False

    def enqueue(self, size_bytes: int, on_sent: Callable[[], None]) -> None:
        self._queue.append((size_bytes, on_sent))
        self._pump()

    def _pump(self) -> None:
        if self._sending or not self._queue:
            return
        size_bytes, on_sent = self._queue.popleft()
        self._sending = True
        duration = size_bytes / self.bandwidth
        token = self.meter.begin(self.sim.now)

        def finish():
            self._sending = False
            self.meter.end(self.sim.now, token)
            on_sent()
            self._pump()

        self.sim.schedule(duration, finish)


class Network:
    """Cluster-wide message fabric with per-node NIC serialisation.

    Parameters
    ----------
    latency:
        One-way propagation + switching delay in seconds.
    bandwidth:
        Per-NIC bandwidth in bytes/second (default ~1 GbE).
    """

    def __init__(
        self,
        sim: Simulator,
        num_nodes: int,
        latency: float = 1e-4,
        bandwidth: float = 125e6,
    ) -> None:
        self.sim = sim
        self.latency = latency
        self.bandwidth = bandwidth
        self._nics: Dict[int, _Nic] = {
            node_id: _Nic(sim, node_id, bandwidth) for node_id in range(num_nodes)
        }
        self._handlers: Dict[int, Callable[[Message], None]] = {}
        self._down: set = set()
        self.bytes_counter = ByteCounter(name="network")
        self.messages_sent = 0
        self.faults: Optional[LinkFaultModel] = None
        #: Optional :class:`repro.obs.ObsSession`.  When set, every
        #: offered message is counted per payload type
        #: (``net.messages{type=...}`` / ``net.bytes{type=...}``);
        #: ``None`` (the default) costs one branch per send.
        self.obs = None
        #: Optional :class:`repro.verify.InvariantMonitor`.  When set,
        #: every message's fate (offered / dropped-with-reason /
        #: delivered) is double-entry accounted so barrier checks can
        #: assert conservation; ``None`` costs one branch per send.
        self.verify = None

    def install_faults(self, model: LinkFaultModel) -> None:
        """Degrade the fabric: every remote send consults ``model``."""
        self.faults = model

    def register_handler(self, node_id: int, handler: Callable[[Message], None]) -> None:
        """Install the receive callback for ``node_id``."""
        self._handlers[node_id] = handler

    def set_node_down(self, node_id: int, down: bool = True) -> None:
        """Mark a node unreachable (failure injection drops its traffic)."""
        if down:
            self._down.add(node_id)
        else:
            self._down.discard(node_id)

    def node_meter(self, node_id: int) -> ResourceMeter:
        return self._nics[node_id].meter

    def send(
        self,
        src: int,
        dst: int,
        size_bytes: int,
        payload: Any,
        on_delivered: Optional[Callable[[Message], None]] = None,
    ) -> None:
        """Transmit ``payload`` from ``src`` to ``dst``.

        Delivery invokes ``dst``'s registered handler (and optionally
        ``on_delivered``).  Local messages bypass the NIC entirely.
        """
        if size_bytes < 0:
            raise ValueError("message size cannot be negative")
        message = Message(src=src, dst=dst, size_bytes=size_bytes, payload=payload)
        if self.verify is not None:
            self.verify.on_net_offered(src, dst, payload)
        if src in self._down or dst in self._down:
            if self.verify is not None:
                self.verify.on_net_dropped("endpoint_down", src, dst)
            return  # dropped: sender or receiver is dead
        self.messages_sent += 1
        if self.obs is not None:
            self.obs.net_message(type(payload).__name__, size_bytes)
        if src == dst:
            # local delivery is a memory copy: exempt from link faults
            if self.verify is not None:
                self.verify.on_net_accepted(1)
            self._deliver(message, on_delivered)
            return
        latency = self.latency
        duplicates = 0
        if self.faults is not None:
            verdict = self.faults.judge(src, dst, self.sim.now)
            if verdict.drop:
                if self.verify is not None:
                    self.verify.on_net_dropped("link_fault", src, dst)
                return
            latency = latency * verdict.slow_factor + verdict.extra_delay
            duplicates = verdict.duplicates
        if self.verify is not None:
            self.verify.on_net_accepted(1 + duplicates)
        self.bytes_counter.add(size_bytes)

        def after_serialise():
            self.sim.schedule(latency, lambda: self._deliver(message, on_delivered))
            for copy_index in range(duplicates):
                # a duplicate arrives strictly after the original so the
                # receiver's dedup layer (not delivery order luck) is
                # what keeps the protocol idempotent
                self.bytes_counter.add(message.size_bytes)
                self.sim.schedule(
                    latency * (2 + copy_index),
                    lambda: self._deliver(message, on_delivered),
                )

        self._nics[src].enqueue(size_bytes, after_serialise)

    def _deliver(self, message: Message, on_delivered) -> None:
        if self.verify is not None:
            # settle before the handler runs so message accounting stays
            # balanced even if the handler raises (e.g. a simulated OOM)
            self.verify.on_net_settled(message, message.dst not in self._down)
        if message.dst in self._down:
            return
        handler = self._handlers.get(message.dst)
        if handler is not None:
            handler(message)
        if on_delivered is not None:
            on_delivered(message)
