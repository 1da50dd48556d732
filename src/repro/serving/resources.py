"""Process resource accounting shared by the serving driver and the benchmarks.

``peak_rss_bytes`` is what the ``benchmarks/perf`` macro phases and the
``benchmarks/e2e`` children report (it lives here so the serving driver can
use it without importing a benchmark package from library code);
``cpu_seconds`` adds the CPU-time side of the resource envelope.  Both are cumulative process-level counters,
so per-phase values are computed by differencing snapshots.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Dict, Optional


def peak_rss_bytes() -> Optional[int]:
    """The process's lifetime peak RSS in bytes (``None`` off-POSIX).

    ``ru_maxrss`` is a high-water mark: sampling it after a phase reports
    the cumulative peak *up to and including* that phase, so per-phase
    values are monotone and the last one is the run's true peak.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes, macOS bytes.
    return rss if sys.platform == "darwin" else rss * 1024


def cpu_seconds() -> float:
    """Cumulative user+system CPU time of this process in seconds."""
    return time.process_time()


@dataclass
class ResourceEnvelope:
    """CPU time, wall time and peak RSS of one measured phase."""

    wall_seconds: float
    cpu_seconds: float
    #: Cumulative process peak RSS observed at the end of the phase
    #: (``None`` off-POSIX).
    peak_rss_bytes: Optional[int]

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "wall_seconds": round(self.wall_seconds, 6),
            "cpu_seconds": round(self.cpu_seconds, 6),
        }
        if self.peak_rss_bytes is not None:
            out["peak_rss_bytes"] = self.peak_rss_bytes
        return out


class ResourceProbe:
    """Measure one phase: wall clock and CPU by difference, RSS by high-water.

    Usage::

        probe = ResourceProbe()
        ...  # the measured phase
        envelope = probe.stop()
    """

    def __init__(self) -> None:
        self._wall_start = time.perf_counter()
        self._cpu_start = cpu_seconds()

    def stop(self) -> ResourceEnvelope:
        return ResourceEnvelope(
            wall_seconds=time.perf_counter() - self._wall_start,
            cpu_seconds=cpu_seconds() - self._cpu_start,
            peak_rss_bytes=peak_rss_bytes(),
        )
