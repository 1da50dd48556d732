"""Persistent shard worker pool over shared columnar state.

The parallel executor of :mod:`repro.simulator.shard`: **long-lived worker
processes** over the columnar state of :mod:`repro.data.columnar`.
Snapshotting the whole simulation per cycle (a fork per barrier) is a tax
that grows with the heap -- at N=1,000,000 the snapshot costs more than the
pricing it buys -- so the pool pays the fork exactly once:

* **Attach once.**  Workers are forked exactly once, at pool creation, and
  inherit the :class:`~repro.data.columnar.ColumnarStore` (static action
  columns, copy-on-write and never written) plus the
  :class:`~repro.data.columnar.DigestMatrix` whose digest rows and version
  slots live in one ``multiprocessing.shared_memory`` block -- parent-side
  row updates are visible to every worker without pickling a byte.
* **Deltas, not snapshots.**  Each pricing barrier ships only the cycle's
  *dirty set* -- ``(user_id, version, distinct items)`` for profiles that
  changed since the last barrier -- plus the predicted ``(receiver,
  subject)`` pairs for the worker's shard.  Workers keep a tiny overlay
  ``uid -> (version, items)`` over the static store; everything else they
  read straight from shared memory.
* **Pure replies.**  A worker's reply is a version-tagged ``PricedPair``
  list: value entries the parent installs through
  :meth:`DigestCache.install_common_entries`, where every memo read
  re-validates versions -- a mispredicted or stale entry is recomputed
  exactly as if it had never been installed.  Bit-identity to the serial
  engine therefore holds for any worker count (see the merge-barrier
  contract in ``repro/simulator/shard.py``).

Failure is loud, not hanging: a worker that dies mid-barrier raises
:class:`ShardWorkerError` naming the shard and the cycle instead of
blocking forever on the result queue.
"""

from __future__ import annotations

import os
import queue as queue_module
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

from ..data.columnar import ColumnarStore, DigestMatrix, geometry_mask_cache, mask_int

#: (user_id, version, distinct items tuple) -- one changed profile.
Delta = Tuple[int, int, Tuple[int, ...]]
#: (receiver_id, subject_id) -- one predicted pricing probe.
Pair = Tuple[int, int]

#: Seconds between liveness checks while waiting on the result queue.
_POLL_SECONDS = 0.2

#: Per-worker bound on the ``subject -> (version, bits int)`` cache.
_SUBJECT_BITS_LIMIT = 1 << 16


class ShardWorkerError(RuntimeError):
    """A persistent shard worker died; the barrier cannot complete."""


def _price_pairs(
    store: ColumnarStore,
    matrix: DigestMatrix,
    overlay: Dict[int, Tuple[int, Tuple[int, ...]]],
    subject_bits: Dict[int, Tuple[int, int]],
    pairs: Sequence[Pair],
) -> List[Tuple[int, int, int, int, frozenset]]:
    """Price ``(receiver, subject)`` pairs against columnar state.

    For each pair: the receiver's distinct items (overlay first, static
    store otherwise) are probed against the subject's digest row -- an item
    is common when its probe mask is fully set in the row, the exact
    membership rule of ``BloomFilter.__contains__`` -- and the result is a
    version-tagged entry for :meth:`DigestCache.install_common_entries`.
    Pairs whose digest row is not built yet (version ``-1``) are skipped:
    the serial apply phase prices them on demand.
    """
    entries: List[Tuple[int, int, int, int, frozenset]] = []
    append = entries.append
    num_bits, num_hashes = matrix.num_bits, matrix.num_hashes
    mask_cache = geometry_mask_cache(num_bits, num_hashes)
    mask_cache_get = mask_cache.get
    for receiver_id, subject_id in pairs:
        receiver_row = store.row_of(receiver_id)
        subject_row = store.row_of(subject_id)
        if receiver_row is None or subject_row is None:
            continue
        subject_version = matrix.row_version(subject_row)
        if subject_version < 0:
            continue
        state = overlay.get(receiver_id)
        if state is not None:
            receiver_version, receiver_items = state
        else:
            receiver_version = store.versions[receiver_row]
            receiver_items = store.distinct_items_of_row(receiver_row)
        cached = subject_bits.get(subject_id)
        if cached is None or cached[0] != subject_version:
            if len(subject_bits) >= _SUBJECT_BITS_LIMIT:
                subject_bits.clear()
            cached = (subject_version, matrix.row_bits_int(subject_row))
            subject_bits[subject_id] = cached
        bits = cached[1]
        common = []
        common_append = common.append
        for item in receiver_items:
            mask = mask_cache_get(item)
            if mask is None:
                mask = mask_int(item, num_bits, num_hashes)
            if bits & mask == mask:
                common_append(item)
        append(
            (receiver_id, receiver_version, subject_id, subject_version, frozenset(common))
        )
    return entries


def _worker_main(
    worker_index: int,
    store: ColumnarStore,
    matrix: DigestMatrix,
    work_queue,
    result_queue,
) -> None:
    """Worker loop: attach to the shared state once, serve barriers forever.

    Messages: ``("price", cycle, pairs, deltas)`` -> ``("priced",
    worker_index, cycle, entries)``; ``("build", rows)`` -> ``("built",
    worker_index, count)``; ``("stop",)`` ends the loop.  Any exception is
    reported as ``("error", worker_index, cycle, repr)`` -- the worker
    stays alive, the parent decides.
    """
    overlay: Dict[int, Tuple[int, Tuple[int, ...]]] = {}
    subject_bits: Dict[int, Tuple[int, int]] = {}
    while True:
        try:
            message = work_queue.get()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        kind = message[0]
        if kind == "stop":
            return
        if kind == "build":
            _, rows = message
            try:
                built = matrix.build_rows(store, rows)
                result_queue.put(("built", worker_index, built))
            except Exception as exc:  # report, don't die
                result_queue.put(("error", worker_index, -1, repr(exc)))
            continue
        # kind == "price"
        _, cycle, pairs, deltas = message
        for user_id, version, items in deltas:
            overlay[user_id] = (version, items)
        try:
            entries = _price_pairs(store, matrix, overlay, subject_bits, pairs)
            result_queue.put(("priced", worker_index, cycle, entries))
        except Exception as exc:
            result_queue.put(("error", worker_index, cycle, repr(exc)))


def _shutdown(processes, work_queues) -> None:
    """Stop the workers; used both by ``close()`` and the GC finalizer."""
    for work_queue in work_queues:
        try:
            work_queue.put(("stop",))
        except (OSError, ValueError):
            pass
    for process in processes:
        process.join(timeout=2.0)
        if process.is_alive():
            process.terminate()
            process.join(timeout=1.0)
    for work_queue in work_queues:
        try:
            work_queue.close()
        except (OSError, ValueError):
            pass


class PersistentShardPool:
    """``workers`` long-lived pricing processes over shared columnar state.

    Created once (the fork is the attach), reused for every barrier; the
    per-barrier protocol is pure message passing over per-worker queues.
    ``barriers_served`` counts completed pricing barriers on this pool
    incarnation -- benchmarks report it as the pool-reuse count.
    """

    def __init__(self, store: ColumnarStore, matrix: DigestMatrix, workers: int) -> None:
        if workers < 1:
            raise ValueError("workers must be positive")
        import multiprocessing

        context = multiprocessing.get_context("fork")
        self.workers = workers
        self.store = store
        self.matrix = matrix
        self.barriers_served = 0
        self._work_queues = [context.Queue() for _ in range(workers)]
        self._result_queue = context.Queue()
        self._processes = [
            context.Process(
                target=_worker_main,
                args=(
                    index,
                    store,
                    matrix,
                    self._work_queues[index],
                    self._result_queue,
                ),
                daemon=True,
            )
            for index in range(workers)
        ]
        for process in self._processes:
            process.start()
        self._finalizer = weakref.finalize(
            self, _shutdown, self._processes, self._work_queues
        )

    # -- health ----------------------------------------------------------------

    def alive(self) -> bool:
        return all(process.is_alive() for process in self._processes)

    def _check_liveness(self, pending: Sequence[int], cycle: int) -> None:
        """Raise :class:`ShardWorkerError` if any awaited worker died."""
        for index in pending:
            process = self._processes[index]
            if not process.is_alive():
                raise ShardWorkerError(
                    f"shard {index} worker (pid {process.pid}, exit code "
                    f"{process.exitcode}) died during cycle {cycle}; "
                    f"{len(pending)} shard result(s) outstanding"
                )

    def _collect(self, expected_kind: str, cycle: int) -> Dict[int, object]:
        """One result per worker, liveness-checked; never hangs on a corpse."""
        results: Dict[int, object] = {}
        while len(results) < self.workers:
            try:
                message = self._result_queue.get(timeout=_POLL_SECONDS)
            except queue_module.Empty:
                pending = [i for i in range(self.workers) if i not in results]
                self._check_liveness(pending, cycle)
                continue
            kind, worker_index = message[0], message[1]
            if kind == "error":
                raise ShardWorkerError(
                    f"shard {worker_index} worker failed during cycle "
                    f"{message[2]}: {message[3]}"
                )
            if kind != expected_kind:  # stale reply from an abandoned barrier
                continue
            if expected_kind == "priced":
                results[worker_index] = message[3]
            else:
                results[worker_index] = message[2]
        return results

    # -- barriers --------------------------------------------------------------

    def price(
        self,
        cycle: int,
        shard_pairs: Sequence[Sequence[Pair]],
        deltas: Sequence[Delta],
    ) -> List[List[Tuple[int, int, int, int, frozenset]]]:
        """One pricing barrier: fan out pairs + deltas, gather shard entries.

        ``shard_pairs[i]`` goes to worker ``i``; every worker receives the
        full delta list (any worker may price any receiver).  Returns the
        per-shard entry lists in shard-index order -- the deterministic
        merge order of the engine.  Raises :class:`ShardWorkerError` when a
        worker died or reported a failure.
        """
        if len(shard_pairs) != self.workers:
            raise ValueError(
                f"expected {self.workers} shards, got {len(shard_pairs)}"
            )
        deltas = list(deltas)
        for index, work_queue in enumerate(self._work_queues):
            work_queue.put(("price", cycle, list(shard_pairs[index]), deltas))
        results = self._collect("priced", cycle)
        self.barriers_served += 1
        return [results[index] for index in range(self.workers)]

    def build_rows(self, shard_rows: Sequence[Sequence[int]]) -> int:
        """Build digest rows shard-parallel, directly into the shared matrix.

        ``shard_rows[i]`` is worker ``i``'s (disjoint) row set; returns the
        total number of rows built once every worker finished -- the
        barrier doubles as the memory fence before the parent reads the
        rows.
        """
        if len(shard_rows) != self.workers:
            raise ValueError(
                f"expected {self.workers} shards, got {len(shard_rows)}"
            )
        for index, work_queue in enumerate(self._work_queues):
            work_queue.put(("build", list(shard_rows[index])))
        results = self._collect("built", cycle=-1)
        return sum(results.values())

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Stop the workers and release the queues (idempotent)."""
        self._finalizer()


def contiguous_row_slabs(num_rows: int, workers: int) -> List[range]:
    """Split ``range(num_rows)`` into ``workers`` contiguous slabs.

    Contiguity keeps each worker's writes to the shared digest block
    sequential; slab sizes differ by at most one row.
    """
    if workers < 1:
        raise ValueError("workers must be positive")
    base, extra = divmod(num_rows, workers)
    slabs: List[range] = []
    start = 0
    for index in range(workers):
        size = base + (1 if index < extra else 0)
        slabs.append(range(start, start + size))
        start += size
    return slabs


__all__ = [
    "Delta",
    "Pair",
    "PersistentShardPool",
    "ShardWorkerError",
    "contiguous_row_slabs",
]
