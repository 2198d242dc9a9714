"""SolverConfig: validation, the field census and the §3.4 arithmetic."""

import dataclasses

import numpy as np
import pytest

from repro.core import SCRATCH_ARRAYS_PER_ROW, SolverConfig
from repro.errors import ConfigurationError


class TestValidation:
    def test_defaults_valid(self):
        cfg = SolverConfig()
        assert cfg.symbolic_mode == "outofcore"
        assert cfg.dynamic_assignment

    def test_bad_split_fraction(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(split_fraction=0.0)
        with pytest.raises(ConfigurationError):
            SolverConfig(split_fraction=1.5)

    def test_bad_symbolic_mode(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(symbolic_mode="magic")

    def test_bad_numeric_format(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(numeric_format="coo")


#: every field some caller outside the tests sets (or, for
#: ``pivot_tolerance``, a numerics choice that reaches the kernel's pivot
#: check); a new knob must earn its place in this set
RETAINED_FIELDS = {
    "device", "host", "cost_model",
    "symbolic_mode", "dynamic_assignment", "split_fraction", "um_prefetch",
    "numeric_format", "supernodal", "value_dtype", "overlap",
    "compute_dtype", "pivot_tolerance", "resilience",
}

#: knobs that only changed simulated charges and that no caller set
REMOVED_FIELDS = (
    "levelize_on_gpu", "levelize_dynamic_parallelism",
    "prune_dependency_edges", "supernode_relax", "supernode_max_panel",
    "overlap_compute_lanes", "overlap_staging_buffers", "index_bytes",
    "preprocess",
)


class TestFieldCensus:
    def test_exactly_the_retained_fields(self):
        names = {f.name for f in dataclasses.fields(SolverConfig)}
        assert names == RETAINED_FIELDS

    @pytest.mark.parametrize("name", REMOVED_FIELDS)
    def test_removed_field_is_not_a_constructor_argument(self, name):
        with pytest.raises(TypeError):
            SolverConfig(**{name: 1})

    def test_index_width_is_a_constant(self):
        assert SolverConfig().index_bytes == 4


class TestFormatRule:
    def test_dense_parallel_columns_formula(self):
        """M = L / (n x sizeof(dtype)) — §3.4."""
        cfg = SolverConfig(value_dtype=np.dtype(np.float32))
        assert cfg.dense_parallel_columns(1000, 4_000_000) == 1000
        assert cfg.dense_parallel_columns(1000, 3_999) == 0

    def test_paper_table4_quotients(self):
        """Reproduce Table 4's max #blocks from the paper's own numbers:
        free = M x n x 4 must invert back to M."""
        cfg = SolverConfig()
        for n, m in ((16_002_413, 124), (16_777_216, 119),
                     (18_318_143, 109), (19_458_087, 102)):
            free = m * n * 4
            assert cfg.dense_parallel_columns(n, free) == m

    def test_invalid_n(self):
        with pytest.raises(ConfigurationError):
            SolverConfig().dense_parallel_columns(0, 100)

    def test_scratch_bytes_is_c_times_n(self):
        """§3.2: c = 6 scratch arrays per in-flight row."""
        cfg = SolverConfig()
        assert SCRATCH_ARRAYS_PER_ROW == 6
        assert cfg.scratch_bytes_per_row(100) == 6 * 100 * cfg.index_bytes

    def test_value_bytes_follow_dtype(self):
        assert SolverConfig().value_bytes == 4  # paper's float
        cfg64 = SolverConfig(value_dtype=np.dtype(np.float64))
        assert cfg64.value_bytes == 8
