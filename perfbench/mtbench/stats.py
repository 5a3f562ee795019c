"""The percentile rule used by the benchmark's reports."""

from __future__ import annotations

import math

MIN_BEYOND = 10


def percentile(values, q: float, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank percentile that needs ``min_beyond`` samples above it.

    A p90 over fewer than 100 samples would rest on fewer than ten slow
    ops, so it is refused rather than reported.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q * len(xs)))
    beyond = len(xs) - rank
    if beyond < min_beyond:
        raise ValueError(
            f"p{100 * q:g} over {len(xs)} samples has {beyond} beyond it; "
            f"need at least {min_beyond}"
        )
    return xs[rank - 1]

