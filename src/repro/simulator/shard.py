"""Sharded multi-core cycle engine.

:class:`ShardedEngine` runs each cycle as

    predict -> parallel per-shard exchange pricing -> deterministic
    merge barrier -> apply

and is **bit-identical to the serial** :class:`~repro.simulator.engine.
SimulationEngine` **for any worker count** -- not by luck, but by
construction:

* **Prediction.**  At the cycle boundary the parent enumerates, through a
  protocol-level predictor that consumes no RNG, an over-approximation of
  the ``(receiver, subject)`` digest probes the coming cycle can perform.
* **Parallel per-shard pricing.**  The unique pairs are grouped by subject
  and the subjects dealt round-robin over ``workers`` shards (a pure
  function of the pair set -- worker count changes *which worker* prices a
  pair, never what is priced).  **Persistent worker processes**, attached
  once to shared columnar state (:mod:`repro.data.columnar`), receive their
  shard's pairs together with the cycle's profile-delta set over per-worker
  queues and compute the common-item sets of
  :class:`~repro.gossip.digest.DigestCache` as version-tagged entries --
  see :mod:`repro.simulator.pool`.  These are *pure values*: the
  common-item set is a function of the receiver's item set at
  ``receiver_version`` and the subject's digest at ``digest_version``,
  nothing else.
* **Deterministic merge barrier.**  The parent installs the replies shard by
  shard, in shard-index order.  Installing an entry can never change
  behaviour: every memo read re-validates both versions against the live
  objects, so a mispredicted or stale entry is recomputed exactly as if it
  had never been installed.  The merge is therefore a cache warm-up, and
  the only nondeterminism workers could introduce -- which pairs they
  happened to price -- is erased by the validation.
* **Apply.**  The parent then runs the *unmodified serial schedule*
  (:meth:`SimulationEngine.run_cycle`): same scheduler shuffle, same
  per-node RNG draws, same message order, same accounting rows.  The
  golden-fixture and results files pin this equality.

Worker-count invariance follows immediately: workers only ever affect
which cache entries are pre-warmed, and the apply phase is the serial
reference schedule regardless.  ``workers=1`` (or the inline executor) is
*literally* the serial engine.

Executor selection is honest about the hardware: with fewer than two CPU
cores (or on platforms without ``fork``, which the pool uses once, to
attach its workers) speculative pricing cannot pay for itself, so
``executor="auto"`` degrades to the inline pass-through and the engine
reports that choice (:attr:`ShardedEngine.executor`).  Benchmarks record the
resolved executor next to the requested worker count.
"""

from __future__ import annotations

import os
import sys
from typing import Callable, Dict, List, Sequence, Tuple

from .engine import PHASE_LAZY, SimulationEngine
from .network import Network

#: Executor names.
EXECUTOR_INLINE = "inline"
EXECUTOR_POOL = "pool"
EXECUTOR_AUTO = "auto"


def partition_shards(node_ids: Sequence[int], workers: int) -> List[Tuple[int, ...]]:
    """Round-robin partition of ``node_ids`` into ``workers`` shards.

    A pure function of the id sequence and the worker count; shards own
    disjoint id sets and their union is the input.
    """
    if workers < 1:
        raise ValueError("workers must be positive")
    shards: List[List[int]] = [[] for _ in range(workers)]
    for index, node_id in enumerate(node_ids):
        shards[index % workers].append(node_id)
    return [tuple(shard) for shard in shards]


def _fork_supported() -> bool:
    return sys.platform != "win32" and hasattr(os, "fork")


def resolve_executor(requested: str, workers: int) -> str:
    """The executor actually used for ``workers`` on this machine.

    ``auto`` picks the persistent ``pool`` only when it can plausibly
    help: more than one worker, a machine with at least two CPU cores, and
    a platform with ``fork``.  An explicit ``pool`` request is honoured
    whenever the platform supports it (tests force it on single-core
    machines to exercise the real code path).
    """
    if requested not in (EXECUTOR_AUTO, EXECUTOR_INLINE, EXECUTOR_POOL):
        raise ValueError(f"unknown executor {requested!r}")
    if workers <= 1 or requested == EXECUTOR_INLINE or not _fork_supported():
        return EXECUTOR_INLINE
    if requested == EXECUTOR_POOL:
        return EXECUTOR_POOL
    return EXECUTOR_POOL if (os.cpu_count() or 1) >= 2 else EXECUTOR_INLINE


class ShardedEngine(SimulationEngine):
    """A :class:`SimulationEngine` with parallel per-shard cycle pricing."""

    def __init__(
        self,
        network: Network,
        seed: int = 0,
        workers: int = 1,
        executor: str = EXECUTOR_AUTO,
    ) -> None:
        super().__init__(network, seed)
        if workers < 1:
            raise ValueError("workers must be positive")
        self.workers = workers
        self.requested_executor = executor
        self.executor = resolve_executor(executor, workers)
        #: The digest cache pricing entries are harvested from / installed
        #: into; attached by the simulation layer (:meth:`attach_pricing`).
        self._pricing_cache = None
        #: Phases whose cycles are priced in parallel (exchange pricing only
        #: exists in the lazy phase).
        self._pricing_phases = {PHASE_LAZY}
        #: Persistent-pool state (pool executor only): columnar backing,
        #: long-lived workers, the pair predictor and the delta bookkeeping.
        self._columnar_store = None
        self._digest_matrix = None
        self._pool = None
        self._pair_predictor = None
        self._pool_dirty: set = set()
        self._shipped_versions: Dict[int, int] = {}
        #: Cumulative barrier statistics (exposed for tests and benchmarks).
        self.pricing_stats: Dict[str, int] = {
            "cycles_priced": 0,
            "entries_recorded": 0,
            "entries_installed": 0,
            "worker_failures": 0,
            "pool_barriers": 0,
            "pairs_predicted": 0,
        }

    # -- wiring ---------------------------------------------------------------

    def attach_pricing(self, digest_cache) -> None:
        """Bind the shared digest cache the merge barrier installs into."""
        self._pricing_cache = digest_cache

    def attach_columnar(self, store, matrix) -> None:
        """Bind the columnar state the persistent pool workers attach to.

        Also subscribes to the network's dirty-profile flush: changed
        profiles accumulate here and travel to the workers as the next
        barrier's delta set.
        """
        self._columnar_store = store
        self._digest_matrix = matrix
        self.network.add_profile_dirty_listener(self._note_profiles_dirty)

    def attach_pair_predictor(self, predictor: Callable) -> None:
        """Bind the protocol-level ``acting -> [(receiver, subject)]`` oracle.

        The predictor must over-approximate the digest probes the coming
        cycle can perform without consuming any protocol RNG; mispredicted
        pairs are inert (version-validated on read), missed pairs are
        merely priced serially.
        """
        self._pair_predictor = predictor

    def _note_profiles_dirty(self, user_ids) -> None:
        self._pool_dirty.update(user_ids)

    # -- execution ------------------------------------------------------------

    def run_cycle(self, phase: str = PHASE_LAZY, participants=None) -> int:
        if (
            self.executor == EXECUTOR_POOL
            and phase in self._pricing_phases
            and self._pricing_cache is not None
            and self._pair_predictor is not None
            and self._columnar_store is not None
        ):
            self._pool_pricing_barrier(phase, participants)
        return super().run_cycle(phase=phase, participants=participants)

    # -- persistent-pool barrier ----------------------------------------------

    def _pool_pricing_barrier(self, phase: str, participants) -> None:
        """Predict the cycle's digest probes, price them on the pool, install.

        No snapshot is taken: the parent enumerates (through the attached
        predictor) an over-approximation of the ``(receiver, subject)``
        pairs the serial apply phase can price, ships them -- together with
        the profile deltas accumulated since the last barrier -- to the
        persistent workers, and installs the version-tagged replies in
        shard-index order.  Everything installed is validated on read, so
        worker count changes which entries are pre-warmed, never what any
        cycle computes.
        """
        if participants is None:
            acting = self.network.online_ids()
        else:
            acting = [nid for nid in participants if self.network.is_online(nid)]
        if len(acting) < self.workers:
            return
        pairs = self._pair_predictor(acting)
        if not pairs:
            return
        pool = self._ensure_pool()
        if pool is None:
            return
        cycle_index = self.cycle_counts.get(phase, 0)
        deltas = self._collect_deltas()
        # Unique pairs, grouped by subject so each worker's digest-row cache
        # sees every probe of a subject; subjects round-robin over shards --
        # a pure function of the pair set.
        unique_pairs = sorted(set(pairs))
        workers = self.workers
        subjects = list(dict.fromkeys(subject for _receiver, subject in unique_pairs))
        shard_of = {
            subject: index
            for index, shard in enumerate(partition_shards(subjects, workers))
            for subject in shard
        }
        shard_pairs: List[List[Tuple[int, int]]] = [[] for _ in range(workers)]
        for pair in unique_pairs:
            shard_pairs[shard_of[pair[1]]].append(pair)

        shard_entries = pool.price(cycle_index, shard_pairs, deltas)

        stats = self.pricing_stats
        stats["cycles_priced"] += 1
        stats["pool_barriers"] += 1
        stats["pairs_predicted"] += len(unique_pairs)
        for entries in shard_entries:
            stats["entries_recorded"] += len(entries)
            stats["entries_installed"] += self._pricing_cache.install_common_entries(
                entries
            )

    def _collect_deltas(self) -> List[Tuple[int, int, Tuple[int, ...]]]:
        """Drain the dirty bookkeeping into the barrier's delta list.

        Covers both the listener-accumulated set (flushed at past cycle
        boundaries) and the network's still-pending set (changes applied
        since the last boundary, e.g. a change day between cycles).  Each
        shipped delta also refreshes the user's digest row in the shared
        matrix -- parent and workers see the same subject bits -- and is
        deduplicated per version so repeated flushes of one change ship
        once.
        """
        dirty = self._pool_dirty | set(self.network.pending_dirty_profiles())
        self._pool_dirty.clear()
        if not dirty:
            return []
        store = self._columnar_store
        matrix = self._digest_matrix
        shipped = self._shipped_versions
        network = self.network
        deltas: List[Tuple[int, int, Tuple[int, ...]]] = []
        for user_id in sorted(dirty):
            if user_id not in network:
                continue
            profile = getattr(network.node(user_id), "profile", None)
            if profile is None:
                continue
            version = profile.version
            if shipped.get(user_id) == version:
                continue
            row = store.row_of(user_id)
            if row is None:
                continue
            items = tuple(profile.items)
            matrix.set_row_from_items(row, items, version)
            shipped[user_id] = version
            deltas.append((user_id, version, items))
        return deltas

    def _ensure_pool(self):
        """The persistent pool, forked on first use (attach-once)."""
        if self._pool is None and self._columnar_store is not None:
            from .pool import PersistentShardPool

            try:
                self._pool = PersistentShardPool(
                    self._columnar_store, self._digest_matrix, self.workers
                )
            except Exception:
                self.pricing_stats["worker_failures"] += 1
                return None
        return self._pool

    def build_digest_rows(self) -> int:
        """Build every digest row of the attached matrix (bootstrap warm-up).

        Shard-parallel on the persistent pool when it pays (the rows land
        directly in the shared block; the reply barrier is the memory
        fence), serial vectorized otherwise.  Pure warm-up either way:
        row adoption validates versions on every read.
        """
        matrix = self._digest_matrix
        store = self._columnar_store
        if matrix is None or store is None:
            return 0
        if self.executor == EXECUTOR_POOL and len(store) >= 4 * self.workers:
            pool = self._ensure_pool()
            if pool is not None:
                from .pool import ShardWorkerError, contiguous_row_slabs

                try:
                    return pool.build_rows(
                        contiguous_row_slabs(len(store), self.workers)
                    )
                except ShardWorkerError:
                    self.pricing_stats["worker_failures"] += 1
        return matrix.build_rows(store)

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Stop the persistent workers, if any (idempotent)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None
