"""Sloppy-quorum replication: coordinator logic and the client facade.

The write/read path is Dynamo-shaped, grafted onto TreeP routing:

1. A client injects a :class:`~repro.core.messages.StorePut` /
   :class:`~repro.core.messages.StoreGet` at any live node; the request is
   routed greedily towards the key (``greedy_key_next_hop``) until it
   reaches the **responsible node** — the live peer locally closest to the
   key in the ID space.
2. The responsible node **coordinates**: it picks the replica set from its
   placement strategy, stamps writes with the per-key version counter
   (last-write-wins, writer id as tie-break), fans out
   :class:`~repro.core.messages.StoreReplicate` / ``StoreRead`` datagrams,
   and answers the client once **W** acks / **R** replies are in (or its
   timeout fires — the *sloppy* part: the best effort achieved is
   reported, never rolled back).
3. Quorum reads return the freshest stamp seen and **read-repair** any
   replica that reported a stale or missing copy.

:class:`StorageAgent` is the per-node server side; :class:`ReplicatedStore`
is the synchronous client the examples, benches and tests drive, and it
implements the :class:`~repro.cluster.service.Service` lifecycle protocol —
each node's agent handlers are declared via
:meth:`ReplicatedStore.node_handlers` and installed/removed by the per-node
service registry (no monkey-patching, no leak on teardown).

Construct through :meth:`repro.cluster.Cluster.with_storage`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Set, Tuple

from repro.cluster.service import Handler, Service, ServiceContext
from repro.core.lookup import greedy_key_next_hop
from repro.core.messages import (
    StoreAck,
    StoreGet,
    StoreGetResult,
    StorePut,
    StorePutResult,
    StoreRead,
    StoreReadReply,
    StoreReplicate,
)
from repro.storage.replication import PlacementStrategy, make_placement
from repro.storage.store import KVStore, VersionedValue, hash_key

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.node import TreePNode
    from repro.core.treep import TreePNetwork

#: Request id used by repair/anti-entropy replication no coordinator waits on.
REPAIR_RID = 0

#: Virtual seconds a client op runs past its reply so the request's trailing
#: datagrams land (a few times the default per-hop latency ceiling).
_SETTLE = 0.2


@dataclass(frozen=True)
class QuorumConfig:
    """Replication degree and quorum sizes.

    ``w + r > n`` makes read/write quorums overlap, so a read always sees
    the latest acknowledged write; smaller values trade consistency for
    availability (the classic sloppy-quorum dial).
    """

    n: int = 3
    w: int = 2
    r: int = 2
    timeout: float = 5.0
    #: Extra non-improving read hops allowed when a coordinator's replicas
    #: all miss (greedy local minimum after churn); 0 disables the fallback.
    #: The dial trades churn availability against miss cost: a GET of a key
    #: that exists nowhere cannot be distinguished from a stalled walk, so
    #: it explores up to this many extra coordinators before reporting the
    #: miss.  Workloads dominated by reads of nonexistent keys should lower
    #: it (or disable it on healthy networks).
    read_fallback: int = 16

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 1 <= self.w <= self.n:
            raise ValueError(f"need 1 <= w <= n, got w={self.w}, n={self.n}")
        if not 1 <= self.r <= self.n:
            raise ValueError(f"need 1 <= r <= n, got r={self.r}, n={self.n}")
        if self.timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")
        if self.read_fallback < 0:
            raise ValueError(f"read_fallback must be >= 0, got {self.read_fallback}")

    @property
    def overlap(self) -> int:
        """Guaranteed intersection size of any write and read quorum."""
        return self.w + self.r - self.n

    @property
    def strict(self) -> bool:
        """True when every read quorum intersects every write quorum."""
        return self.overlap >= 1


@dataclass
class StoreResult:
    """Client-visible outcome of one quorum PUT or GET."""

    key: str
    key_id: int
    ok: bool
    value: Any = None
    version: int = 0
    replicas: Tuple[int, ...] = ()
    quorum_met: bool = False
    hops: int = 0

    @property
    def found(self) -> bool:
        """GET alias: the read resolved to a value."""
        return self.ok


@dataclass
class _PendingWrite:
    request_id: int
    origin: int
    key_id: int
    version: int
    targets: Tuple[int, ...]
    acks: Set[int]
    hops: int
    timeout_event: object = None


@dataclass
class _PendingRead:
    request_id: int
    origin: int
    key_id: int
    targets: Tuple[int, ...]
    replies: Dict[int, Optional[VersionedValue]]
    hops: int
    fallbacks: int = 0
    path: Tuple[int, ...] = ()
    timeout_event: object = None


class StorageAgent:
    """Per-node storage server: the KVStore plus coordinator state.

    Registered on a node through :meth:`TreePNode.register_handler`; one
    agent per node per :class:`ReplicatedStore`.
    """

    def __init__(
        self, node: "TreePNode", quorum: QuorumConfig, placement: PlacementStrategy
    ) -> None:
        self.node = node
        self.quorum = quorum
        self.placement = placement
        self.store = KVStore(node.ident)
        self._writes: Dict[int, _PendingWrite] = {}
        self._reads: Dict[int, _PendingRead] = {}
        #: Client-side sink: results for requests this node originated.
        self.replies: Dict[int, object] = {}
        #: Request ids the client stopped waiting for (late results dropped;
        #: insertion-ordered so the network pump can cap it).
        self.abandoned: Dict[int, None] = {}
        #: In-sim async clients: ``callbacks[rid]`` is invoked (once) with
        #: the :class:`StorePutResult` / :class:`StoreGetResult` instead of
        #: parking it in :attr:`replies`.  This is how services layered on
        #: the storage (the compute subsystem's checkpointing) issue quorum
        #: ops without pumping the simulator.
        self.callbacks: Dict[int, Callable[[Any], None]] = {}

    def handlers(self) -> Dict[type, Callable[[int, Any], None]]:
        """Declarative handler mapping; the owning service's registry
        installs it on the node (and removes it again on teardown)."""
        return {
            StorePut: self.handle_put,
            StoreGet: self.handle_get,
            StoreReplicate: self._on_replicate,
            StoreAck: self._on_ack,
            StoreRead: self._on_read,
            StoreReadReply: self._on_read_reply,
            StorePutResult: self._on_result,
            StoreGetResult: self._on_result,
        }

    # ------------------------------------------------------------- routing
    def _route(self, msg) -> bool:
        """Forward towards the key if a closer peer exists; True when sent."""
        if msg.ttl > self.node.config.ttl_max:
            return True  # drop: the client's drain ends with no reply
        nxt = greedy_key_next_hop(self.node, msg.key_id)
        if nxt is None:
            return False
        self.node.send(nxt, replace(msg, ttl=msg.ttl + 1))
        return True

    # -------------------------------------------------------------- writes
    def handle_put(self, src: int, msg: StorePut) -> None:
        if self._route(msg):
            return
        # We are the responsible node: coordinate the quorum write.  The
        # stamp leads with coordination time so this write dominates any
        # stale copy on replicas that are down right now (LWW survives a
        # per-key version-counter restart on a fresh coordinator).
        version = self.store.next_version(msg.key_id)
        now = self.node.sim.now
        self.store.apply(msg.key_id, msg.value, version,
                         writer=self.node.ident, timestamp=now)
        targets = tuple(self.placement.replicas(self.node, msg.key_id, self.quorum.n))
        pend = _PendingWrite(
            request_id=msg.request_id, origin=msg.origin, key_id=msg.key_id,
            version=version, targets=targets,
            acks={self.node.ident}, hops=msg.ttl,
        )
        rep = StoreReplicate(msg.request_id, self.node.ident, msg.key_id,
                             msg.value, version, self.node.ident, now)
        for t in targets:
            if t != self.node.ident:
                self.node.send(t, rep)
        # Like the read path: never wait for acks that can't exist when the
        # placement couldn't name w distinct targets (thin table, tiny net).
        if len(pend.acks) >= min(self.quorum.w, len(targets)):
            self._finish_write(pend)
            return
        self._writes[msg.request_id] = pend
        pend.timeout_event = self.node.sim.schedule(
            self.quorum.timeout,
            lambda: self._write_timeout(msg.request_id),
            label=f"store-put-timeout:{msg.request_id}",
        )

    def _on_replicate(self, src: int, msg: StoreReplicate) -> None:
        applied = self.store.apply(msg.key_id, msg.value, msg.version,
                                   writer=msg.writer, timestamp=msg.timestamp)
        if msg.request_id != REPAIR_RID:
            # A rejection (the replica holds a newer-stamped copy — this
            # write already lost LWW to a concurrent one) must not count
            # towards W.  Holding this exact stamp already (a repair or
            # read-repair of the same write raced the fanout here) IS
            # success, or the write would spuriously time out.
            held = self.store.get(msg.key_id)
            ok = applied or (held is not None and held.stamp()
                             == (msg.timestamp, msg.version, msg.writer))
            self.node.send(msg.coordinator, StoreAck(
                msg.request_id, msg.key_id, self.node.ident,
                self.store.version_of(msg.key_id), ok=ok))

    def _on_ack(self, src: int, msg: StoreAck) -> None:
        pend = self._writes.get(msg.request_id)
        if pend is None or not msg.ok:
            return
        pend.acks.add(msg.holder)
        if len(pend.acks) >= min(self.quorum.w, len(pend.targets)):
            del self._writes[msg.request_id]
            if pend.timeout_event is not None:
                pend.timeout_event.cancel()  # type: ignore[attr-defined]
            self._finish_write(pend)

    def _write_timeout(self, rid: int) -> None:
        pend = self._writes.pop(rid, None)
        if pend is not None:
            self._finish_write(pend)  # sloppy: report what was achieved

    def _finish_write(self, pend: _PendingWrite) -> None:
        ok = len(pend.acks) >= self.quorum.w
        self.node.send(pend.origin, StorePutResult(
            pend.request_id, pend.key_id, ok, pend.version,
            tuple(sorted(pend.acks)), pend.hops))

    # --------------------------------------------------------------- reads
    def handle_get(self, src: int, msg: StoreGet) -> None:
        if msg.ttl > self.node.config.ttl_max:
            return
        exclude = frozenset(msg.path) | {self.node.ident}
        nxt = greedy_key_next_hop(self.node, msg.key_id, exclude)
        if nxt is not None:
            self.node.send(nxt, replace(msg, ttl=msg.ttl + 1,
                                        path=msg.path + (self.node.ident,)))
            return
        targets = tuple(self.placement.replicas(self.node, msg.key_id, self.quorum.n))
        pend = _PendingRead(
            request_id=msg.request_id, origin=msg.origin, key_id=msg.key_id,
            targets=targets, replies={self.node.ident: self.store.get(msg.key_id)},
            hops=msg.ttl, fallbacks=msg.fallbacks,
            path=msg.path + (self.node.ident,),
        )
        for t in targets:
            if t != self.node.ident:
                self.node.send(t, StoreRead(msg.request_id, self.node.ident, msg.key_id))
        if self._read_complete(pend):
            self._finish_read(pend)
            return
        self._reads[msg.request_id] = pend
        pend.timeout_event = self.node.sim.schedule(
            self.quorum.timeout,
            lambda: self._read_timeout(msg.request_id),
            label=f"store-get-timeout:{msg.request_id}",
        )

    def _on_read(self, src: int, msg: StoreRead) -> None:
        vv = self.store.get(msg.key_id)
        if vv is None:
            reply = StoreReadReply(msg.request_id, msg.key_id, self.node.ident, False)
        else:
            reply = StoreReadReply(msg.request_id, msg.key_id, self.node.ident,
                                   True, vv.value, vv.version, vv.writer,
                                   vv.timestamp)
        self.node.send(msg.coordinator, reply)

    def _on_read_reply(self, src: int, msg: StoreReadReply) -> None:
        pend = self._reads.get(msg.request_id)
        if pend is None:
            return
        pend.replies[msg.holder] = (
            VersionedValue(msg.value, msg.version, msg.writer, msg.timestamp)
            if msg.found else None
        )
        if self._read_complete(pend):
            del self._reads[msg.request_id]
            if pend.timeout_event is not None:
                pend.timeout_event.cancel()  # type: ignore[attr-defined]
            self._finish_read(pend)

    def _read_complete(self, pend: _PendingRead) -> bool:
        """R *found* replies satisfy the quorum early; otherwise wait for
        every target (a quick self-miss at a coordinator that merely hasn't
        received its copy yet must not out-race the real holders' replies).
        """
        found = sum(1 for vv in pend.replies.values() if vv is not None)
        return found >= self.quorum.r or len(pend.replies) >= len(pend.targets)

    def _read_timeout(self, rid: int) -> None:
        pend = self._reads.pop(rid, None)
        if pend is not None:
            self._finish_read(pend)  # sloppy: answer from the replies we got

    def _fallback_read(self, pend: _PendingRead) -> bool:
        """Sloppy-read fallback: every replica missed, so hand the request to
        the closest *unvisited* candidate (an NGSA-style non-improving hop —
        after churn the greedy walk can stall at a local minimum that never
        heard of the key's true neighbourhood).  True when forwarded."""
        if pend.fallbacks >= self.quorum.read_fallback:
            return False
        exclude = frozenset(pend.path) | {self.node.ident}
        best = greedy_key_next_hop(self.node, pend.key_id, exclude,
                                   improving_only=False)
        if best is None:
            return False
        self.node.send(best, StoreGet(pend.request_id, pend.origin, pend.key_id,
                                      ttl=pend.hops + 1,
                                      fallbacks=pend.fallbacks + 1,
                                      path=pend.path))
        return True

    def _finish_read(self, pend: _PendingRead) -> None:
        present = [vv for vv in pend.replies.values() if vv is not None]
        freshest = max(present, key=VersionedValue.stamp, default=None)
        quorum_met = len(pend.replies) >= self.quorum.r
        if freshest is None and self._fallback_read(pend):
            return  # a downstream coordinator will answer the origin
        if freshest is not None:
            # Read repair: push the winning version to stale/missing holders.
            for holder, vv in pend.replies.items():
                if holder != self.node.ident and freshest.dominates(vv):
                    self.node.send(holder, StoreReplicate(
                        REPAIR_RID, self.node.ident, pend.key_id,
                        freshest.value, freshest.version, freshest.writer,
                        freshest.timestamp))
            self.store.apply(pend.key_id, freshest.value, freshest.version,
                             freshest.writer, freshest.timestamp)
            result = StoreGetResult(pend.request_id, pend.key_id, True,
                                    freshest.value, freshest.version,
                                    quorum_met, pend.hops)
        else:
            result = StoreGetResult(pend.request_id, pend.key_id, False,
                                    None, 0, quorum_met, pend.hops)
        self.node.send(pend.origin, result)

    # ----------------------------------------------------------- client sink
    def _on_result(self, src: int, msg) -> None:
        cb = self.callbacks.pop(msg.request_id, None)
        if cb is not None:
            cb(msg)
            return
        if self.abandoned.pop(msg.request_id, 0) is None:
            return  # the client gave up on this request long ago
        self.replies[msg.request_id] = msg


class ReplicatedStore(Service):
    """Synchronous quorum PUT/GET client against a built TreeP network.

    >>> from repro.cluster import Cluster
    >>> store = Cluster(seed=7).build(64).with_storage(
    ...     QuorumConfig(n=3, w=2, r=2)).storage
    >>> store.put("job/42", {"state": "done"}).ok
    True
    >>> store.get("job/42").value
    {'state': 'done'}
    """

    name = "storage"

    def __init__(
        self,
        quorum: Optional[QuorumConfig] = None,
        placement: PlacementStrategy | str = "successor",
    ) -> None:
        super().__init__()
        self.net: Optional["TreePNetwork"] = None
        self.quorum = quorum if quorum is not None else QuorumConfig()
        self.placement = make_placement(placement)
        self.agents: Dict[int, StorageAgent] = {}
        self._rid = itertools.count(1)
        #: key ids successfully written at least once (durability baseline).
        self.tracked_keys: Dict[int, str] = {}

    # ------------------------------------------------------------ lifecycle
    def on_attach(self, ctx: ServiceContext) -> None:
        self.net = ctx.net

    def setup_node(self, node: "TreePNode") -> None:
        self.agents[node.ident] = StorageAgent(node, self.quorum, self.placement)

    def node_handlers(self, node: "TreePNode") -> Mapping[type, Handler]:
        return self.agents[node.ident].handlers()

    def close(self) -> None:
        """Tear the service down: the registry unregisters every agent's
        handlers (on current *and* rebuilt nodes — the pre-1.3 facade left
        them behind) and stops covering newly created nodes."""
        self.detach()

    def key_id(self, key: str) -> int:
        return hash_key(key, self.net.config.space.extent)

    def _await_reply(self, agent: StorageAgent, rid: int, timeout: float):
        return self.net.pump_until_reply(
            agent.replies, agent.abandoned, rid,
            timeout=timeout, settle=_SETTLE)

    def _put_deadline(self) -> float:
        """One coordination (plus routing slack)."""
        return 4 * self.quorum.timeout

    def _get_deadline(self) -> float:
        """Reads must outlive the worst sloppy-fallback chain: every
        fallback hop can burn a full read timeout on dead targets, and a
        genuine late result must not be discarded as abandoned."""
        return (self.quorum.read_fallback + 2) * self.quorum.timeout

    # ------------------------------------------------------------------ API
    def put(self, key: str, value: Any, via: Optional[int] = None) -> StoreResult:
        """Quorum write; blocks (runs the sim) until resolved or timed out."""
        node = self.net.live_origin(via)
        key_id = self.key_id(key)
        rid = next(self._rid)  # facade-unique; safe across origins
        agent = self.agents[node.ident]
        hub = self.net.obs
        if hub is not None:
            hub.storage_begin("put", rid, node.ident, self.net.sim.now)
        agent.handle_put(node.ident, StorePut(rid, node.ident, key_id, value, 0))
        reply = self._await_reply(agent, rid, self._put_deadline())
        if hub is not None:
            if reply is None:
                hub.storage_end("put", rid, self.net.sim.now, ok=False,
                                hops=0, replicas=0, timed_out=True)
            else:
                hub.storage_end("put", rid, self.net.sim.now, ok=reply.ok,
                                hops=reply.hops,
                                replicas=len(reply.replicas),
                                timed_out=False)
        if reply is None:
            return StoreResult(key=key, key_id=key_id, ok=False)
        if reply.ok:
            self.tracked_keys[key_id] = key
        return StoreResult(key=key, key_id=key_id, ok=reply.ok,
                           version=reply.version, replicas=reply.replicas,
                           quorum_met=reply.ok, hops=reply.hops)

    def get(self, key: str, via: Optional[int] = None) -> StoreResult:
        """Quorum read; blocks until the coordinator answers or times out."""
        node = self.net.live_origin(via)
        key_id = self.key_id(key)
        rid = next(self._rid)
        agent = self.agents[node.ident]
        hub = self.net.obs
        if hub is not None:
            hub.storage_begin("get", rid, node.ident, self.net.sim.now)
        agent.handle_get(node.ident, StoreGet(rid, node.ident, key_id, 0))
        reply = self._await_reply(agent, rid, self._get_deadline())
        if hub is not None:
            if reply is None:
                hub.storage_end("get", rid, self.net.sim.now, ok=False,
                                hops=0, replicas=0, timed_out=True)
            else:
                hub.storage_end("get", rid, self.net.sim.now, ok=reply.found,
                                hops=reply.hops, replicas=0,
                                timed_out=False)
        if reply is None:
            return StoreResult(key=key, key_id=key_id, ok=False)
        return StoreResult(key=key, key_id=key_id, ok=reply.found,
                           value=reply.value, version=reply.version,
                           quorum_met=reply.quorum_met, hops=reply.hops)

    # ------------------------------------------------------------ async API
    def _async_rid(self, agent: StorageAgent, on_done) -> int:
        """Allocate a request id wired for asynchronous completion."""
        rid = next(self._rid)
        if on_done is not None:
            agent.callbacks[rid] = on_done
            # Same cap as the abandoned sink: a result that never arrives
            # (its coordinator died) must not pin its closure forever.
            while len(agent.callbacks) > self.net.ABANDONED_CAP:
                agent.callbacks.pop(next(iter(agent.callbacks)))
        else:
            # Fire-and-forget: pre-abandon so the eventual result is
            # discarded instead of accreting in the reply sink.
            agent.abandoned[rid] = None
            while len(agent.abandoned) > self.net.ABANDONED_CAP:
                agent.abandoned.pop(next(iter(agent.abandoned)))
        return rid

    def put_async(
        self,
        key: str,
        value: Any,
        via: Optional[int] = None,
        on_done: Optional[Callable[[Any], None]] = None,
    ) -> int:
        """Issue a quorum write without pumping the simulator.

        For protocol code running *inside* the sim (timers, handlers): the
        write proceeds as real datagram traffic and *on_done*, when given,
        is invoked with the :class:`~repro.core.messages.StorePutResult`
        when the coordinator answers.  Returns the request id.  Unlike
        :meth:`put`, the key is not added to the durability-tracked set —
        callers that want anti-entropy accounting should use :meth:`put`.
        """
        node = self.net.live_origin(via)
        agent = self.agents[node.ident]
        rid = self._async_rid(agent, on_done)
        agent.handle_put(node.ident, StorePut(rid, node.ident, self.key_id(key), value, 0))
        return rid

    def get_async(
        self,
        key: str,
        via: Optional[int] = None,
        on_done: Optional[Callable[[Any], None]] = None,
    ) -> int:
        """Issue a quorum read without pumping the simulator (see
        :meth:`put_async`); *on_done* receives the
        :class:`~repro.core.messages.StoreGetResult`."""
        node = self.net.live_origin(via)
        agent = self.agents[node.ident]
        rid = self._async_rid(agent, on_done)
        agent.handle_get(node.ident, StoreGet(rid, node.ident, self.key_id(key), 0))
        return rid

    # ---------------------------------------------------------- diagnostics
    def replica_map(self, live_only: bool = True) -> Dict[int, List[int]]:
        """``{key id: sorted holder ids}`` across the (live) population."""
        out: Dict[int, List[int]] = {}
        for ident, agent in self.agents.items():
            if live_only and not self.net.network.is_up(ident):
                continue
            for key_id in agent.store.keys():
                out.setdefault(key_id, []).append(ident)
        for holders in out.values():
            holders.sort()
        return out

    def live_replica_count(self, key_id: int) -> int:
        up = self.net.network.is_up
        return sum(
            1 for ident, agent in self.agents.items()
            if up(ident) and key_id in agent.store
        )

    def replication_factors(self) -> Dict[int, int]:
        """Live replica count for every tracked key (0 == lost)."""
        counts = {k: 0 for k in self.tracked_keys}
        for key_id, holders in self.replica_map(live_only=True).items():
            if key_id in counts:
                counts[key_id] = len(holders)
        return counts
