"""Process peak RSS, the resource figure the benchmarks share.

``peak_rss_bytes`` is what the ``benchmarks/perf`` macro phases and the
``benchmarks/e2e`` children report.  It lives in the library so neither
benchmark package has to import the other.
"""

from __future__ import annotations

import sys
from typing import Optional


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
