"""Bulk ragged-range construction for the vectorized host kernels.

The vectorized hot loops (fill2 frontier expansion, the incremental
fill's row copies, per-level numeric and panel gathers, and the Kahn
waves that hold many nodes) all need the same primitive: given per-item
``starts`` and ``lengths`` into a flat CSR/CSC storage array, materialize
the concatenation ``[starts[0] .. starts[0]+lengths[0]) ++ [starts[1] ..)
++ ...`` as one index array — the host-side analogue of a GPU gather list.
Doing this with ``np.cumsum`` over a seeded step array keeps the whole
operation in C instead of a Python loop over slices.
"""

from __future__ import annotations

import numpy as np

__all__ = ["concat_ranges"]


def concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate ``np.arange(s, s + l)`` for each pair in order.

    Empty ranges (``length == 0``) are skipped but preserve the ordering
    of the surviving ranges.  Always returns ``int64`` (flat positions
    into ``indices``/``data`` arrays may exceed int32 at Table 4 sizes).
    """
    starts = np.asarray(starts, dtype=np.int64).reshape(-1)
    lengths = np.asarray(lengths, dtype=np.int64).reshape(-1)
    if len(starts) != len(lengths):
        raise ValueError(
            f"starts/lengths length mismatch: {len(starts)} vs {len(lengths)}"
        )
    if np.any(lengths < 0):
        raise ValueError("range lengths must be non-negative")
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    nz = lengths > 0
    s = starts[nz]
    ln = lengths[nz]
    # step array: 1 everywhere, except at each range boundary where the
    # step jumps from the previous range's last element to the next start
    out = np.ones(total, dtype=np.int64)
    out[0] = s[0]
    if len(s) > 1:
        boundaries = np.cumsum(ln[:-1])
        out[boundaries] = s[1:] - (s[:-1] + ln[:-1] - 1)
    np.cumsum(out, out=out)
    return out
