"""Figure 8: numeric factorization — sorted-CSC binary search vs dense format.

On the Table 4 matrices (zero diagonals replaced with 1000, §4.4), compares
the numeric-phase time of the dense-format kernel (capped at
``M = L/(n x 4) < 160`` concurrent blocks, paying per-column dense
scatter/gather traffic) against the paper's sorted-CSC binary-search kernel
(full ``TB_max = 160`` blocks, paying log-factor probe steps).

Paper result: the binary-search implementation is 2.88-3.33x faster.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import EndToEndLU
from ..workloads import TABLE4
from .gates import Claim, PaperReport, span
from .runner import prepare

#: the smoke point is the first Table 4 matrix; the full point all four
SMOKE = TABLE4[:1]
FULL = TABLE4


@dataclass(frozen=True)
class Fig8Row:
    abbr: str
    dense_seconds: float
    csc_seconds: float
    dense_max_blocks: int
    csc_blocks: int

    @property
    def speedup(self) -> float:
        return self.dense_seconds / self.csc_seconds


def _blocks(r: Fig8Result) -> str:
    csc = "/".join(str(x.csc_blocks) for x in r.rows)
    dense = "/".join(str(x.dense_max_blocks) for x in r.rows)
    return f"csc {csc}, dense {dense}"


@dataclass
class Fig8Result(PaperReport):
    rows: list[Fig8Row]

    title = (
        "Figure 8 — numeric factorization: binary-search CSC vs "
        "dense format"
    )
    columns = (
        ("matrix", "abbr"),
        ("dense (s)", "dense_seconds"),
        ("csc (s)", "csc_seconds"),
        ("M dense", "dense_max_blocks"),
        ("blocks csc", "csc_blocks"),
        ("speedup", "speedup"),
    )
    gates = (
        Claim(
            "speedup_range_ok",
            lambda r: all(2.5 <= s <= 3.8 for s in r.speedups),
            "every speedup in [2.5, 3.8]",
            lambda r: span(r.speedups),
            "2.88-3.33x binary-search CSC vs dense",
        ),
        Claim(
            "blocks_ok",
            lambda r: all(
                x.csc_blocks == 160 and x.dense_max_blocks < 160
                for x in r.rows
            ),
            "csc blocks == TB_max 160, dense M < 160",
            _blocks,
            "binary search runs 160 blocks; dense is capped at M < 160",
        ),
    )


def run_fig8(*, smoke: bool = False, seed: int = 0) -> Fig8Result:
    """Regenerate Figure 8 over the Table 4 matrices at the smoke or full
    point."""
    rows = []
    for spec in SMOKE if smoke else FULL:
        art = prepare(spec, seed=seed, for_numeric=True)
        dense = EndToEndLU(art.config(numeric_format="dense")).factorize(art.a)
        csc = EndToEndLU(art.config(numeric_format="csc")).factorize(art.a)
        rows.append(
            Fig8Row(
                abbr=spec.abbr,
                dense_seconds=dense.breakdown().numeric,
                csc_seconds=csc.breakdown().numeric,
                dense_max_blocks=dense.numeric.max_parallel_columns,
                csc_blocks=csc.numeric.max_parallel_columns,
            )
        )
    return Fig8Result(rows)
