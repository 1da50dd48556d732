"""Query outcome states and the latency percentile shared by the serving paths.

A closed-loop serving run settles every query it attempts into exactly one
state: **completed** (its session closed), **abandoned** (still open at the
cutoff, with the coverage it had reached) or **rejected** (the querier was
offline at admission).  :func:`percentile` is the nearest-rank percentile
every latency figure in the repository is reported with.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Outcome states a query can settle into.
COMPLETED = "completed"
ABANDONED = "abandoned"
REJECTED = "rejected"


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (inclusive); 0.0 for an empty sample."""
    if not values:
        return 0.0
    if not 0.0 < pct <= 100.0:
        raise ValueError("pct must be in (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])
