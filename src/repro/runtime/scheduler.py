"""Event-driven delivery scheduler over columnar (struct-of-arrays) hot state.

The seed runtime processed messages with a round-robin sweep over client
inboxes, which ignores the per-delivery ``deliver_at`` timestamps the broker
already computes from :class:`~repro.mqtt.network.NetworkModel`.  The
:class:`EventScheduler` replaces that with a classic discrete-event kernel: a
min-heap keyed by ``(deliver_at, sequence)`` (with a monotonic enqueue counter
as the final deterministic tiebreak) from which deliveries are drained in
simulated-time order, advancing the :class:`~repro.sim.clock.SimulationClock`
as it goes.

Since the columnar rewrite (ROADMAP item 1) the heap no longer holds one
record *object* per delivery.  In-flight state lives in two places:

* **Single deliveries** sit in :class:`~repro.runtime.columns.DeliveryColumns`
  — preallocated, growable numpy columns plus object lists — and travel
  through the heap as ``(deliver_at, sequence, enqueue, kind, slot)`` with a
  plain ``int`` slot.  Slots are recycled through a freelist, so steady-state
  traffic allocates nothing per delivery.
* **Broadcast fan-outs** arrive through :meth:`schedule_batch` as *one* heap
  entry carrying a :class:`_FanoutBatch` (shared message, per-member target /
  filter / receiver-id / QoS vectors).  The FIFO clamp for the whole fan-out
  is one vectorized gather / ``maximum`` / scatter against the
  :class:`~repro.runtime.columns.PairTails` table.  When a batch reaches the
  top of the heap it becomes a *cursor*: members are served one per
  :meth:`_pop_and_fire` call, each compared against the current heap top (and
  any other active cursor), so ``stop_when`` predicates, timed actions and
  same-instant traffic from other brokers interleave **exactly** as they did
  when every member was its own heap entry.  Identical
  ``(deliver_at, sequence, enqueue)`` total order is the determinism
  contract: every scenario and grid golden signature is byte-identical to the
  object-per-delivery kernel's.

Sender / receiver / topic strings are interned once on ingest
(:class:`~repro.utils.soa.StringTable`) and only rehydrated on cold paths —
:meth:`pending_deliveries`, cancel predicates and offline requeue materialize
ordinary :class:`~repro.mqtt.messages.DeliveryRecord` façades from the
columns on demand.

Two ingestion paths feed the heap:

* the *scheduling path*: a broker with a scheduler attached
  (:meth:`attach_broker`) hands every delivery straight to
  :meth:`schedule` (or a whole fan-out to :meth:`schedule_batch`) instead of
  the subscriber's inbox, and
* the *collection path*: records already sitting in registered clients'
  inboxes (delivered before the scheduler was attached, or by a broker
  without one) are pulled into the heap at the start of every sweep, so the
  scheduler is a strict superset of the round-robin pump's behaviour.

Besides deliveries the heap also holds *timed actions* (arbitrary callables
registered with :meth:`call_at`), which is what the churn scenarios in
:mod:`repro.sim.events` use to join/leave/reconnect clients at scheduled
simulation times.

:class:`~repro.runtime.pump.MessagePump` is a thin API-compatible facade over
this class, so all existing choreography code keeps working unchanged.
"""

from __future__ import annotations

import hashlib
import heapq
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.mqtt.client import MQTTClient
from repro.mqtt.messages import DeliveryRecord, QoS
from repro.runtime.columns import NO_UNCLAMPED, DeliveryColumns, PairTails
from repro.utils.soa import StringTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mqtt.broker import MQTTBroker

__all__ = ["EventScheduler"]

#: Heap payload kinds.  Actions sort before deliveries at the same instant via
#: their sentinel sequence of -1 (real delivery sequences start at 1).
_KIND_ACTION = 0
_KIND_DELIVERY = 1  # payload: int slot into DeliveryColumns
_KIND_BATCH = 2  # payload: _FanoutBatch (n same-deliver_at members)

#: Sequence sentinel used for timed actions so that churn events scheduled at
#: time *t* are applied before any delivery due at *t*.
_ACTION_SEQUENCE = -1


class _FanoutBatch:
    """One same-``deliver_at`` broadcast fan-out, stored struct-of-arrays.

    Members share the message and are keyed ``(due, seq0+i, enq0+i)``; the
    broker reserved ``n`` consecutive sequence numbers and the scheduler ``n``
    consecutive enqueue ids, so each member's heap key is exactly what it
    would have been as an individual entry.  ``pos`` is the cursor: how many
    members have already fired.
    """

    __slots__ = (
        "due",
        "seq0",
        "enq0",
        "n",
        "pos",
        "message",
        "targets",
        "filters",
        "receiver_idx",
        "sender_idx",
        "effective_qos",
        "unclamped",
        "broker",
        "session_epoch",
    )

    def __init__(
        self,
        due: float,
        seq0: int,
        enq0: int,
        n: int,
        message: object,
        targets: Sequence[object],
        filters: Sequence[str],
        receiver_idx: Sequence[int],
        sender_idx: int,
        effective_qos: Sequence[int],
        unclamped: Optional[np.ndarray],
        broker: "MQTTBroker",
        session_epoch: int,
    ) -> None:
        self.due = due
        self.seq0 = seq0
        self.enq0 = enq0
        self.n = n
        self.pos = 0
        self.message = message
        self.targets = targets
        self.filters = filters
        self.receiver_idx = receiver_idx
        self.sender_idx = sender_idx
        self.effective_qos = effective_qos
        self.unclamped = unclamped
        self.broker = broker
        self.session_epoch = session_epoch


class EventScheduler:
    """Deterministic time-ordered delivery scheduler.

    Parameters
    ----------
    clients:
        Initial set of MQTT clients whose inboxes the scheduler collects from.
    clock:
        Optional :class:`~repro.sim.clock.SimulationClock`; advanced to each
        event's due time as the heap drains (never rewound).
    max_sweeps:
        Safety bound for :meth:`run_until_idle` — a publish/reply loop that
        never quiesces raises instead of spinning forever.
    fifo_per_connection:
        Model per-connection in-order delivery (MQTT runs over TCP): each
        delivery's ``deliver_at`` is clamped to the previous in-flight
        delivery of the same (sender, receiver) pair, so a small message can
        never overtake a large earlier one on the same logical connection.
    record_trace:
        Maintain a running SHA-256 digest over every dispatched delivery
        (topic, sender, receiver, due time).  Two runs of the same scenario
        with the same seed must produce identical digests — the scenario
        determinism tests pin exactly that.  Off by default (costs a hash
        update per message).

    Example
    -------
    Attach a broker, let clients publish, then drain in time order:

    >>> from repro.mqtt.broker import MQTTBroker
    >>> from repro.mqtt.client import MQTTClient
    >>> from repro.sim.clock import SimulationClock
    >>> clock = SimulationClock()
    >>> broker = MQTTBroker("b", clock=clock)
    >>> scheduler = EventScheduler(clock=clock)
    >>> scheduler.attach_broker(broker)
    >>> sub = MQTTClient("sub"); _ = sub.connect(broker); _ = sub.subscribe("bus")
    >>> scheduler.register(sub)
    >>> pub = MQTTClient("pub"); _ = pub.connect(broker)
    >>> _ = pub.publish("bus", b"hello")
    >>> fired = []
    >>> _ = scheduler.call_at(10.0, lambda: fired.append("tick"))
    >>> scheduler.run_until_time(1.0)   # delivery drains, action stays queued
    1
    >>> fired
    []
    >>> scheduler.run_until_idle()      # fast-forwards to the action at t=10
    0
    >>> fired
    ['tick']
    """

    def __init__(
        self,
        clients: Optional[Iterable[MQTTClient]] = None,
        clock: Optional[object] = None,
        max_sweeps: int = 100_000,
        fifo_per_connection: bool = True,
        record_trace: bool = False,
    ) -> None:
        self._clients: List[MQTTClient] = list(clients) if clients else []
        self.clock = clock
        self.max_sweeps = int(max_sweeps)
        self.fifo_per_connection = bool(fifo_per_connection)

        # Heap entries: (due_time, sequence, enqueue_index, kind, payload).
        # The enqueue index is unique, so comparison never reaches the payload
        # and ties on (due_time, sequence) resolve in creation order.  A batch
        # entry carries the key of its *first* member; remaining members are
        # served through the cursor list below.
        self._heap: List[Tuple[float, int, int, int, object]] = []
        self._heap_deliveries = 0  # individual deliveries (batch members incl.)
        self._heap_actions = 0
        self._next_enqueue = 0
        #: Batches popped from the heap but not fully fired yet.  Almost
        #: always empty or length 1; >1 only when two same-instant fan-outs
        #: from different brokers interleave member-by-member.
        self._cursors: List[_FanoutBatch] = []
        self._brokers: List["MQTTBroker"] = []

        # Columnar hot state: interned ids, per-slot delivery columns, and the
        # per-(sender, receiver) FIFO tails.
        self._ids = StringTable()
        self._columns = DeliveryColumns()
        self._pairs = PairTails()

        self._trace = hashlib.sha256() if record_trace else None
        # Observability hooks (repro.obs).  Both default to detached so the
        # per-event cost is one ``is None`` check; ``tools/bench.py`` gates
        # the attached cost (``obs_overhead_ratio``).
        self.tracer: Optional[object] = None
        self._obs_observe: Optional[Callable[[float], None]] = None

        self.events_processed = 0
        self.messages_processed = 0
        self.actions_fired = 0
        self.sweeps = 0
        self.deliveries_dropped = 0
        self.deliveries_requeued = 0
        self.deliveries_cancelled = 0
        self.last_event_time = 0.0

    # ------------------------------------------------------------------ time

    def now(self) -> float:
        """Current simulated time (falls back to the last event's due time)."""
        if self.clock is not None:
            return float(self.clock.now())
        return self.last_event_time

    def next_event_time(self) -> Optional[float]:
        """Due time of the earliest pending event, or ``None`` when idle."""
        self._collect()
        return self._next_due()

    def _next_due(self) -> Optional[float]:
        """Earliest due time across the heap and any active batch cursors."""
        due = self._heap[0][0] if self._heap else None
        for batch in self._cursors:
            if due is None or batch.due < due:
                due = batch.due
        return due

    # ------------------------------------------------------------ membership

    def register(self, client: MQTTClient) -> None:
        """Add a client to the collection set (idempotent)."""
        if client not in self._clients:
            self._clients.append(client)

    def unregister(self, client: MQTTClient) -> None:
        """Remove a client from the collection set."""
        if client in self._clients:
            self._clients.remove(client)

    @property
    def clients(self) -> List[MQTTClient]:
        """The registered clients, in registration order."""
        return list(self._clients)

    def attach_broker(self, broker: "MQTTBroker") -> None:
        """Route ``broker``'s deliveries through this scheduler's heap."""
        broker.attach_scheduler(self)
        if broker not in self._brokers:
            self._brokers.append(broker)

    def detach_broker(self, broker: "MQTTBroker") -> None:
        """Restore ``broker``'s direct inbox delivery."""
        if broker in self._brokers:
            self._brokers.remove(broker)
        if broker.scheduler is self:
            broker.attach_scheduler(None)

    @property
    def brokers(self) -> List["MQTTBroker"]:
        """Brokers currently delivering through this scheduler."""
        return list(self._brokers)

    def attach_metrics(self, registry: Optional[object]) -> None:
        """Attach (or detach, with ``None``) a live delivery-latency histogram.

        The bound ``observe`` method is cached here so the per-delivery cost
        is one attribute load and one call; passing ``None`` restores the
        zero-instrumentation path.
        """
        if registry is None:
            self._obs_observe = None
            return
        self._obs_observe = registry.histogram(
            "scheduler_delivery_latency_s",
            buckets=(0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0),
        ).observe

    # -------------------------------------------------------------- ingestion

    def schedule(self, target: object, record: DeliveryRecord) -> None:
        """Enqueue one delivery for ``target`` (the broker's scalar path).

        The record façade is decomposed into the columns here; ``record``
        itself is updated with any FIFO clamp applied (callers holding the
        object see the same ``deliver_at`` the heap uses) and then released —
        the scheduler keeps no reference to it.
        """
        message = record.message
        ids = self._ids
        sender_idx = ids.intern(message.sender_id)
        receiver_idx = ids.intern(record.subscriber_id)
        deliver_at = float(record.deliver_at)
        if self.fifo_per_connection:
            # Per-connection FIFO: a delivery never arrives before an earlier
            # one from the same sender to the same receiver, mirroring MQTT's
            # in-order guarantee over a single TCP connection.
            pair = self._pairs.slot(sender_idx, receiver_idx)
            tails = self._pairs.tails
            tail = tails[pair]
            if deliver_at < tail:
                # Remember the unclamped time: if the delivery ahead of us is
                # later cancelled, cancel_deliveries re-clamps from here.
                if record.unclamped_deliver_at is None:
                    record.unclamped_deliver_at = deliver_at
                deliver_at = float(tail)
                record.deliver_at = deliver_at
            tails[pair] = deliver_at
        unclamped = record.unclamped_deliver_at
        slot = self._columns.alloc(
            message,
            target,
            record.subscription_filter,
            deliver_at,
            NO_UNCLAMPED if unclamped is None else float(unclamped),
            int(record.sequence),
            int(record.effective_qos),
            sender_idx,
            receiver_idx,
            ids.intern(message.topic),
        )
        enqueue = self._next_enqueue
        self._next_enqueue = enqueue + 1
        heapq.heappush(
            self._heap,
            (deliver_at, int(record.sequence), enqueue, _KIND_DELIVERY, slot),
        )
        self._heap_deliveries += 1

    def intern_fanout(
        self, sender_id: Optional[str], receiver_ids: Sequence[str]
    ) -> Tuple[int, np.ndarray, np.ndarray, List[int]]:
        """Intern one fan-out's identities; called once per routing plan.

        Returns ``(sender_idx, receiver_idx_array, pair_slot_array,
        receiver_idx_list)`` — the broker caches these on the plan so the per
        publish cost of :meth:`schedule_batch` is pure vector math.
        """
        ids = self._ids
        sender_idx = ids.intern(sender_id)
        receiver_list = [ids.intern(r) for r in receiver_ids]
        receiver_arr = np.array(receiver_list, dtype=np.int64)
        pair_arr = self._pairs.slots_for(sender_idx, receiver_arr)
        return sender_idx, receiver_arr, pair_arr, receiver_list

    def schedule_batch(
        self,
        broker: "MQTTBroker",
        message: object,
        targets: Sequence[object],
        filters: Sequence[str],
        pair_ids: np.ndarray,
        receiver_idx: Sequence[int],
        effective_qos: Sequence[int],
        deliver_at: np.ndarray,
        seq0: int,
        sender_idx: int,
        session_epoch: int,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Vectorized ingest of one same-publish fan-out (the broker fast path).

        ``deliver_at`` holds the per-member network times; the per-connection
        FIFO clamp runs as one gather / ``maximum`` / scatter over
        ``pair_ids``.  When every member lands at the same instant (the
        broadcast common case) the whole fan-out becomes **one** heap entry;
        otherwise it degrades to per-member entries with identical keys.
        Returns ``(clamped deliver_at, unclamped-or-None)`` so the broker's
        lazy ``publish()`` result can report the same times the heap uses.
        """
        n = len(targets)
        if self.fifo_per_connection:
            tails = self._pairs.tails
            current = tails[pair_ids]
            clamped = current > deliver_at
            if clamped.any():
                effective = np.maximum(deliver_at, current)
                unclamped = np.where(clamped, deliver_at, NO_UNCLAMPED)
            else:
                effective = deliver_at
                unclamped = None
            tails[pair_ids] = effective
        else:
            effective = deliver_at
            unclamped = None
        enq0 = self._next_enqueue
        self._next_enqueue = enq0 + n
        due0 = float(effective[0])
        if effective[0] == effective[-1] and (effective == due0).all():
            batch = _FanoutBatch(
                due0,
                seq0,
                enq0,
                n,
                message,
                targets,
                filters,
                receiver_idx,
                sender_idx,
                effective_qos,
                unclamped,
                broker,
                session_epoch,
            )
            heapq.heappush(self._heap, (due0, seq0, enq0, _KIND_BATCH, batch))
        else:
            # Non-uniform due times (the FIFO clamp deferred a subset, or
            # heterogeneous links): one heap entry per member, preserving the
            # exact per-member (due, sequence, enqueue) keys.
            columns = self._columns
            topic_idx = self._ids.intern(message.topic)
            due_list = effective.tolist()
            heappush = heapq.heappush
            heap = self._heap
            for i in range(n):
                u = NO_UNCLAMPED if unclamped is None else float(unclamped[i])
                slot = columns.alloc(
                    message,
                    targets[i],
                    filters[i],
                    due_list[i],
                    u,
                    seq0 + i,
                    effective_qos[i],
                    sender_idx,
                    receiver_idx[i],
                    topic_idx,
                )
                heappush(heap, (due_list[i], seq0 + i, enq0 + i, _KIND_DELIVERY, slot))
        self._heap_deliveries += n
        return effective, unclamped

    def call_at(self, when: float, action: Callable[[], None]) -> float:
        """Schedule ``action()`` to fire at simulated time ``when``.

        Actions scheduled at the same instant as deliveries fire first, so a
        churn event (e.g. a client leaving) takes effect before the messages
        due at that time are dispatched.  Note that :meth:`run_until_idle`
        runs to completion and therefore fast-forwards through future
        actions; drive action-bearing timelines with :meth:`run_until_time`.
        Returns the scheduled time.
        """
        when = float(when)
        enqueue = self._next_enqueue
        self._next_enqueue = enqueue + 1
        heapq.heappush(
            self._heap, (when, _ACTION_SEQUENCE, enqueue, _KIND_ACTION, action)
        )
        self._heap_actions += 1
        return when

    def _collect(self) -> int:
        """Pull records sitting in registered clients' inboxes into the heap."""
        collected = 0
        for client in self._clients:
            for record in client.take_pending():
                self.schedule(client, record)
                collected += 1
        return collected

    @property
    def pending(self) -> int:
        """Events in the heap plus uncollected inbox records."""
        return (
            self._heap_deliveries
            + self._heap_actions
            + sum(c.pending_messages for c in self._clients)
        )

    @property
    def pending_delivery_count(self) -> int:
        """In-flight deliveries, O(1) (no record materialization)."""
        return self._heap_deliveries

    # --------------------------------------------------------- materialization

    def _materialize_slot(self, slot: int) -> DeliveryRecord:
        """Rebuild the public record façade for one columnar delivery slot."""
        columns = self._columns
        unclamped = columns.unclamped[slot]
        return DeliveryRecord(
            message=columns.message[slot],
            subscriber_id=self._ids.value(int(columns.receiver[slot])),
            subscription_filter=columns.sub_filter[slot],
            effective_qos=QoS(int(columns.effective_qos[slot])),
            deliver_at=float(columns.deliver_at[slot]),
            sequence=int(columns.sequence[slot]),
            unclamped_deliver_at=float(unclamped) if unclamped == unclamped else None,
        )

    def _materialize_batch_member(self, batch: _FanoutBatch, i: int) -> DeliveryRecord:
        """Rebuild the record façade for member ``i`` of a fan-out batch."""
        unclamped: Optional[float] = None
        if batch.unclamped is not None:
            value = batch.unclamped[i]
            if value == value:
                unclamped = float(value)
        return DeliveryRecord(
            message=batch.message,
            subscriber_id=self._ids.value(batch.receiver_idx[i]),
            subscription_filter=batch.filters[i],
            effective_qos=QoS(int(batch.effective_qos[i])),
            deliver_at=batch.due,
            sequence=batch.seq0 + i,
            unclamped_deliver_at=unclamped,
        )

    def pending_deliveries(self) -> List[DeliveryRecord]:
        """In-flight delivery records, ordered by ``(deliver_at, sequence)``.

        The scenario runner uses this to identify stragglers at a round
        deadline: any sender with an upload still in flight is late.  Records
        are materialized fresh from the columns on every call.
        """
        records: List[DeliveryRecord] = []
        for entry in self._heap:
            kind = entry[3]
            if kind == _KIND_DELIVERY:
                records.append(self._materialize_slot(entry[4]))  # type: ignore[arg-type]
            elif kind == _KIND_BATCH:
                batch = entry[4]
                records.extend(
                    self._materialize_batch_member(batch, i) for i in range(batch.n)  # type: ignore[arg-type]
                )
        for batch in self._cursors:
            records.extend(
                self._materialize_batch_member(batch, i)
                for i in range(batch.pos, batch.n)
            )
        records.sort(key=lambda r: (r.deliver_at, r.sequence))
        return records

    # ------------------------------------------------------------- cancellation

    def cancel_deliveries(self, predicate: Callable[[DeliveryRecord], bool]) -> int:
        """Remove in-flight deliveries matching ``predicate``; return the count.

        Timed actions are never cancelled.  This is how a deadline-driven
        round cuts off a straggler's late uploads: the messages vanish from
        the network rather than arriving after the round moved on.

        The sweep is two-phase: a read-only matching pass over the columns
        first, so the zero-match case (common at healthy round deadlines)
        returns without rebuilding or re-heapifying anything.
        """
        if self._heap_deliveries == 0:
            return 0
        heap = self._heap
        columns = self._columns
        doomed_singles: set = set()
        doomed_batches: Dict[int, List[int]] = {}
        cancelled_pairs: set = set()
        cancelled = 0
        for position, entry in enumerate(heap):
            kind = entry[3]
            if kind == _KIND_DELIVERY:
                slot = entry[4]
                if predicate(self._materialize_slot(slot)):  # type: ignore[arg-type]
                    doomed_singles.add(position)
                    cancelled_pairs.add(
                        (int(columns.sender[slot]), int(columns.receiver[slot]))  # type: ignore[index]
                    )
                    cancelled += 1
            elif kind == _KIND_BATCH:
                batch = entry[4]
                doomed = [
                    i
                    for i in range(batch.n)  # type: ignore[attr-defined]
                    if predicate(self._materialize_batch_member(batch, i))  # type: ignore[arg-type]
                ]
                if doomed:
                    doomed_batches[position] = doomed
                    for i in doomed:
                        cancelled_pairs.add((batch.sender_idx, batch.receiver_idx[i]))  # type: ignore[attr-defined]
                    cancelled += len(doomed)
        cursor_dooms: List[List[int]] = []
        for batch in self._cursors:
            doomed = [
                i
                for i in range(batch.pos, batch.n)
                if predicate(self._materialize_batch_member(batch, i))
            ]
            cursor_dooms.append(doomed)
            for i in doomed:
                cancelled_pairs.add((batch.sender_idx, batch.receiver_idx[i]))
            cancelled += len(doomed)
        if cancelled == 0:
            # Zero-match early-out: the heap order is untouched, so there is
            # nothing to rebuild, re-clamp or re-heapify.
            return 0

        self._heap_deliveries -= cancelled
        self.deliveries_cancelled += cancelled

        # Rebuild the heap: drop doomed singles, explode any batch that lost a
        # member *or* carries a survivor of a cancelled connection (its due
        # time may change under re-clamping, breaking batch uniformity).
        kept: List[Tuple[float, int, int, int, object]] = []
        for position, entry in enumerate(heap):
            kind = entry[3]
            if kind == _KIND_DELIVERY:
                if position in doomed_singles:
                    columns.free(entry[4])  # type: ignore[arg-type]
                else:
                    kept.append(entry)
            elif kind == _KIND_BATCH:
                batch = entry[4]
                doomed = doomed_batches.get(position)
                if doomed is None and not self._batch_touches_pairs(
                    batch, 0, cancelled_pairs  # type: ignore[arg-type]
                ):
                    kept.append(entry)
                else:
                    self._explode_batch(batch, 0, set(doomed or ()), kept)  # type: ignore[arg-type]
            else:
                kept.append(entry)
        for batch, doomed in zip(list(self._cursors), cursor_dooms):
            if doomed or self._batch_touches_pairs(batch, batch.pos, cancelled_pairs):
                self._cursors.remove(batch)
                self._explode_batch(batch, batch.pos, set(doomed), kept)

        # Release the affected connections' FIFO clamp slots: drop the
        # cancelled tails, then re-run the clamp for the surviving deliveries
        # of those pairs from their *unclamped* times — a survivor that was
        # queued behind a cancelled far-future upload (or the pair's
        # next-round traffic) must not stay pushed back by a message that no
        # longer exists.
        for sender_idx, receiver_idx in cancelled_pairs:
            self._pairs.clear_pair(sender_idx, receiver_idx)
        self._reclamp_pairs(kept, cancelled_pairs)
        heapq.heapify(kept)
        self._heap = kept
        return cancelled

    def _batch_touches_pairs(
        self, batch: _FanoutBatch, start: int, pairs: set
    ) -> bool:
        """Whether any remaining batch member belongs to a cancelled connection."""
        sender_idx = batch.sender_idx
        receiver_idx = batch.receiver_idx
        for i in range(start, batch.n):
            if (sender_idx, receiver_idx[i]) in pairs:
                return True
        return False

    def _explode_batch(
        self,
        batch: _FanoutBatch,
        start: int,
        doomed: set,
        out: List[Tuple[float, int, int, int, object]],
    ) -> None:
        """Convert a batch's surviving members into per-slot heap entries.

        Each survivor keeps its original ``(due, sequence, enqueue)`` key, so
        heap order is untouched; only the storage form changes.  Cold path —
        reached only through :meth:`cancel_deliveries`.
        """
        columns = self._columns
        topic_idx = self._ids.intern(batch.message.topic)
        unclamped = batch.unclamped
        for i in range(start, batch.n):
            if i in doomed:
                continue
            u = NO_UNCLAMPED if unclamped is None else float(unclamped[i])
            slot = columns.alloc(
                batch.message,
                batch.targets[i],
                batch.filters[i],
                batch.due,
                u,
                batch.seq0 + i,
                batch.effective_qos[i],
                batch.sender_idx,
                batch.receiver_idx[i],
                topic_idx,
            )
            out.append((batch.due, batch.seq0 + i, batch.enq0 + i, _KIND_DELIVERY, slot))

    def _reclamp_pairs(
        self,
        entries: List[Tuple[float, int, int, int, object]],
        pairs: set,
    ) -> None:
        """Re-run the per-connection FIFO clamp for ``pairs`` after a cancel.

        Surviving deliveries of each pair are re-clamped in enqueue order
        starting from each slot's original (pre-clamp) time, and the pair's
        tail is rebuilt from the result.  Entries of other pairs, kept
        batches (which by construction hold no affected member) and timed
        actions pass through untouched.  A slot whose re-clamped time lands
        in the simulated past simply fires at the next drain step — exactly
        how an inbox-collected record behaves.  Entries are updated in place;
        the caller re-heapifies.
        """
        columns = self._columns
        affected: Dict[Tuple[int, int], List[int]] = {}
        for index, entry in enumerate(entries):
            if entry[3] != _KIND_DELIVERY:
                continue
            slot = entry[4]
            pair = (int(columns.sender[slot]), int(columns.receiver[slot]))  # type: ignore[index]
            if pair in pairs:
                affected.setdefault(pair, []).append(index)
        if not affected:
            return
        fifo = self.fifo_per_connection
        tails = self._pairs
        for pair, indices in affected.items():
            tail: Optional[float] = None
            # Enqueue order (entry[2]) is scheduling order for the pair.
            for index in sorted(indices, key=lambda i: entries[i][2]):
                due, sequence, enqueue, kind, slot = entries[index]
                unclamped = columns.unclamped[slot]  # type: ignore[index]
                base = float(unclamped) if unclamped == unclamped else float(
                    columns.deliver_at[slot]  # type: ignore[index]
                )
                if fifo and tail is not None and base < tail:
                    new_due = tail
                else:
                    new_due = base
                    columns.unclamped[slot] = NO_UNCLAMPED  # no longer clamped
                columns.deliver_at[slot] = new_due
                tail = new_due
                if new_due != due:
                    entries[index] = (new_due, sequence, enqueue, kind, slot)
            if tail is not None:
                tails.tails[tails.slot(*pair)] = tail

    @property
    def trace_digest(self) -> Optional[str]:
        """Hex digest of the delivery trace (``None`` unless ``record_trace``)."""
        if self._trace is None:
            return None
        return self._trace.hexdigest()

    # ------------------------------------------------------------- processing

    def _advance_clock(self, due: float) -> None:
        if due > self.last_event_time:
            self.last_event_time = due
        if self.clock is not None:
            self.clock.advance_to(due)

    def _pop_and_fire(self) -> bool:
        """Process the earliest event; returns True if a message callback ran.

        QoS-2 duplicates that the client suppresses (and timed actions) do not
        count as processed messages, mirroring ``MQTTClient.loop`` semantics.
        The earliest event is the minimum over the heap top and every active
        batch cursor's next member — the exact total order the
        object-per-delivery heap produced.
        """
        cursors = self._cursors
        if cursors:
            best = cursors[0]
            if len(cursors) > 1:
                best_key = (best.due, best.seq0 + best.pos, best.enq0 + best.pos)
                for batch in cursors[1:]:
                    key = (batch.due, batch.seq0 + batch.pos, batch.enq0 + batch.pos)
                    if key < best_key:
                        best, best_key = batch, key
            heap = self._heap
            if heap:
                top = heap[0]
                top_due = top[0]
                due = best.due
                if top_due < due:
                    return self._fire_entry(heapq.heappop(heap))
                if top_due == due:
                    seq = best.seq0 + best.pos
                    top_seq = top[1]
                    if top_seq < seq or (
                        top_seq == seq and top[2] < best.enq0 + best.pos
                    ):
                        return self._fire_entry(heapq.heappop(heap))
            return self._fire_batch_member(best)
        return self._fire_entry(heapq.heappop(self._heap))

    def _fire_entry(self, entry: Tuple[float, int, int, int, object]) -> bool:
        """Fire one popped heap entry (action, single delivery, or batch head)."""
        due, _sequence, _index, kind, payload = entry
        if kind == _KIND_BATCH:
            # The batch becomes a cursor; its members fire one per call so
            # stop_when / deadline checks interleave per delivery.
            self._cursors.append(payload)  # type: ignore[arg-type]
            return self._fire_batch_member(payload)  # type: ignore[arg-type]
        self._advance_clock(due)
        self.events_processed += 1
        if kind == _KIND_ACTION:
            payload()  # type: ignore[operator]
            self.actions_fired += 1
            self._heap_actions -= 1
            return False
        self._heap_deliveries -= 1
        columns = self._columns
        slot = payload
        target = columns.target[slot]  # type: ignore[index]
        message = columns.message[slot]  # type: ignore[index]
        # A client that disconnected after the broker routed this delivery but
        # before its deliver_at never receives it.  QoS>0 records destined for
        # a persistent session are requeued in the broker's offline queue (they
        # replay on reconnect); everything else is dropped, as on a real
        # broker where the TCP connection died mid-flight.
        # (try/except beats getattr-with-default on this per-delivery path:
        # the attributes exist on every real target, so the guard is free.)
        try:
            connected = target.connected
        except AttributeError:
            connected = True
        if connected is False:
            record = self._materialize_slot(slot)  # type: ignore[arg-type]
            columns.free(slot)  # type: ignore[arg-type]
            if self._requeue_offline(record):
                self.deliveries_requeued += 1
            else:
                self.deliveries_dropped += 1
            return False
        receiver_idx = int(columns.receiver[slot])  # type: ignore[index]
        sequence = int(columns.sequence[slot])  # type: ignore[index]
        effective_qos = int(columns.effective_qos[slot])  # type: ignore[index]
        sub_filter = columns.sub_filter[slot]  # type: ignore[index]
        unclamped = columns.unclamped[slot]  # type: ignore[index]
        columns.free(slot)  # type: ignore[arg-type]
        if self._trace is not None:
            self._trace.update(
                f"{message.topic}|{message.sender_id}|{self._ids.value(receiver_idx)}"
                f"|{due:.9f}|{sequence}\n".encode()
            )
        if self._obs_observe is not None:
            self._obs_observe(due - message.timestamp)
        if self.tracer is not None:
            # Delivery lifetime broker→client, entirely from sim state
            # (publish timestamp → heap due time): determinism-neutral.
            self.tracer.complete(
                message.topic,
                "delivery",
                message.timestamp,
                due,
                args={
                    "sender": message.sender_id,
                    "receiver": self._ids.value(receiver_idx),
                    "seq": sequence,
                },
            )
        try:
            dispatch_message = target._dispatch_message
        except AttributeError:
            record = DeliveryRecord(
                message=message,
                subscriber_id=self._ids.value(receiver_idx),
                subscription_filter=sub_filter,
                effective_qos=QoS(effective_qos),
                deliver_at=due,
                sequence=sequence,
                unclamped_deliver_at=float(unclamped) if unclamped == unclamped else None,
            )
            try:
                dispatch = target._dispatch
            except AttributeError:  # plain DeliveryTarget: hand the record over untimed
                target._deliver(record)
                self.messages_processed += 1
                return True
            handled = bool(dispatch(record))
        else:
            handled = bool(dispatch_message(message, effective_qos))
        if handled:
            self.messages_processed += 1
        return handled

    def _fire_batch_member(self, batch: _FanoutBatch) -> bool:
        """Fire the next member of an active fan-out cursor (the hot inner loop)."""
        i = batch.pos
        batch.pos = i + 1
        if batch.pos == batch.n:
            self._cursors.remove(batch)
        due = batch.due
        if i == 0:
            self._advance_clock(due)
        self.events_processed += 1
        self._heap_deliveries -= 1
        target = batch.targets[i]
        message = batch.message
        if batch.broker._session_epoch != batch.session_epoch:
            # A connect/disconnect happened since this fan-out was routed; the
            # per-member connected check is only paid in that (rare) case.
            try:
                connected = target.connected
            except AttributeError:
                connected = True
            if connected is False:
                record = self._materialize_batch_member(batch, i)
                if self._requeue_offline(record):
                    self.deliveries_requeued += 1
                else:
                    self.deliveries_dropped += 1
                return False
        if self._trace is not None:
            self._trace.update(
                f"{message.topic}|{message.sender_id}|{self._ids.value(batch.receiver_idx[i])}"
                f"|{due:.9f}|{batch.seq0 + i}\n".encode()
            )
        if self._obs_observe is not None:
            self._obs_observe(due - message.timestamp)
        if self.tracer is not None:
            self.tracer.complete(
                message.topic,
                "delivery",
                message.timestamp,
                due,
                args={
                    "sender": message.sender_id,
                    "receiver": self._ids.value(batch.receiver_idx[i]),
                    "seq": batch.seq0 + i,
                },
            )
        try:
            dispatch_message = target._dispatch_message
        except AttributeError:
            record = self._materialize_batch_member(batch, i)
            try:
                dispatch = target._dispatch
            except AttributeError:
                target._deliver(record)
                self.messages_processed += 1
                return True
            handled = bool(dispatch(record))
        else:
            handled = bool(dispatch_message(message, batch.effective_qos[i]))
        if handled:
            self.messages_processed += 1
        return handled

    def _requeue_offline(self, record: DeliveryRecord) -> bool:
        """Try to park an undeliverable record in a persistent offline queue."""
        for broker in self._brokers:
            if broker.requeue_offline(record):
                return True
        return False

    def sweep(self) -> int:
        """Process one batch of events; returns the messages handled.

        The batch size is the number of events pending when the sweep starts;
        events generated *during* the sweep are only drawn if they are due
        earlier than the batch's remainder (the heap keeps global time order),
        otherwise they wait for the next sweep — which is what bounds
        non-quiescing publish loops, exactly like the round-robin pump's
        one-loop-per-client sweep did.
        """
        self._collect()
        budget = self._heap_deliveries + self._heap_actions
        processed = 0
        for _ in range(budget):
            if not self._heap and not self._cursors:
                break
            if self._pop_and_fire():
                processed += 1
        self.sweeps += 1
        return processed

    def run_until_idle(self) -> int:
        """Drain events until nothing is pending; returns messages handled.

        This is run-to-completion: *all* scheduled work — including timed
        actions and deliveries due in the simulated future — executes in time
        order, fast-forwarding the clock as it goes.  To stop at a horizon
        (e.g. between scheduled churn events) use :meth:`run_until_time`
        instead; a recurring self-re-arming action will never let this method
        quiesce.

        Raises ``RuntimeError`` if the system does not quiesce within
        ``max_sweeps`` sweeps (which would indicate a message loop).
        """
        total = 0
        for _ in range(self.max_sweeps):
            processed = self.sweep()
            total += processed
            if (
                processed == 0
                and not self._heap
                and not self._cursors
                and self._collect() == 0
            ):
                return total
        raise RuntimeError(
            f"event scheduler did not quiesce within {self.max_sweeps} sweeps"
        )

    def run_until(self, predicate: Callable[[], bool], max_sweeps: Optional[int] = None) -> bool:
        """Drain events until ``predicate()`` holds or the system quiesces.

        Returns True if the predicate was satisfied.
        """
        limit = max_sweeps if max_sweeps is not None else self.max_sweeps
        if predicate():
            return True
        for _ in range(limit):
            processed = self.sweep()
            if predicate():
                return True
            if (
                processed == 0
                and not self._heap
                and not self._cursors
                and self._collect() == 0
            ):
                return predicate()
        return predicate()

    def run_until_quiet(self, max_events: Optional[int] = None) -> int:
        """Drain every pending *delivery* without fast-forwarding future actions.

        Events are processed in time order until no delivery remains in the
        heap or the registered inboxes; timed actions that come due before the
        last pending delivery fire as usual (and may spawn further deliveries,
        which are chased too), but actions scheduled beyond that point stay in
        the heap.  This is the drain primitive for round boundaries in
        deadline-driven experiments: the control-plane traffic (stats, role
        assignments, broadcasts) settles completely while fault and churn
        actions planned for later simulated times keep their exact firing
        times.

        Returns the number of message callbacks run.  The single-instant loop
        guard from :meth:`run_until_time` applies.

        Contrast with the other drains (see the class example for setup)::

            scheduler.run_until_idle()       # everything, incl. future actions
            scheduler.run_until_time(5.0)    # everything due at or before t=5
            scheduler.run_until_quiet()      # all deliveries; future actions wait
        """
        limit = max_events if max_events is not None else self.max_sweeps
        processed = 0
        events_at_instant = 0
        instant: Optional[float] = None
        self._collect()
        while self._heap_deliveries > 0:
            due = self._next_due()
            if instant is None or due > instant:
                instant = due
                events_at_instant = 0
            events_at_instant += 1
            if events_at_instant > limit:
                raise RuntimeError(
                    f"event scheduler processed {limit} events at simulated time "
                    f"{due} without the clock advancing (message loop?)"
                )
            if self._pop_and_fire():
                processed += 1
            if self._heap_deliveries == 0:
                self._collect()
        return processed

    def run_until_time(
        self,
        deadline: float,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Process every event due at or before ``deadline``; return the count.

        Events due later stay in the heap, and the clock ends up exactly at
        ``deadline`` — this is the primitive timed churn scenarios use to step
        a simulation from one scheduled instant to the next.

        ``stop_when`` (checked after every processed event — including between
        members of a broadcast fan-out batch) ends the drain early, leaving
        the clock at the last event's due time instead of fast-forwarding to
        the deadline — deadline-driven FL rounds use it to stop the moment the
        round's global update has landed everywhere.

        A healthy simulation may process arbitrarily many events before the
        deadline as long as simulated time advances; the loop guard
        (``max_events``, default ``max_sweeps``) only trips when that many
        events fire at a *single instant*, which indicates a zero-delay
        publish/reply loop.
        """
        deadline = float(deadline)
        limit = max_events if max_events is not None else self.max_sweeps
        processed = 0
        events_at_instant = 0
        instant: Optional[float] = None
        self._collect()
        if stop_when is not None and stop_when():
            return 0
        while True:
            due = self._next_due()
            if due is None or due > deadline:
                # Inboxes are only scanned at the drain boundaries, not once
                # per event: with schedulers attached to every broker they
                # are always empty, and records a handler deposited through a
                # non-attached broker are swept up here before concluding.
                if self._collect():
                    continue
                self._advance_clock(deadline)
                return processed
            if instant is None or due > instant:
                instant = due
                events_at_instant = 0
            events_at_instant += 1
            if events_at_instant > limit:
                raise RuntimeError(
                    f"event scheduler processed {limit} events at simulated time "
                    f"{due} without the clock advancing (message loop?)"
                )
            if self._pop_and_fire():
                processed += 1
            if stop_when is not None and stop_when():
                return processed

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"EventScheduler(pending={self.pending}, clients={len(self._clients)}, "
            f"brokers={len(self._brokers)}, now={self.now():.6f})"
        )
