"""Panel construction, CSV round trips, normalization, lag embedding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preimage_gc import TimeSeriesPanel, ingest_csv, normalize_columns
from preimage_gc.data import lag_embed, panel_to_csv
from preimage_gc.errors import (
    CsvFormatError,
    CsvParseError,
    CsvSchemaError,
    DegenerateInputError,
    InsufficientSamplesError,
)


def make_panel(values, names=None):
    values = np.asarray(values, dtype=float)
    if names is None:
        names = tuple(f"n{j}" for j in range(values.shape[1]))
    return TimeSeriesPanel(values=values, node_names=names)


class TestPanel:
    def test_values_are_read_only(self):
        panel = make_panel([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError):
            panel.values[0, 0] = 9.0

    def test_source_array_not_aliased(self):
        raw = np.array([[1.0, 2.0], [3.0, 4.0]])
        panel = make_panel(raw)
        raw[0, 0] = 99.0
        assert panel.values[0, 0] == 1.0

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            make_panel([[1.0, np.nan], [2.0, 3.0]])

    def test_rejects_single_row(self):
        with pytest.raises(ValueError, match="rows"):
            make_panel([[1.0, 2.0]])

    def test_rejects_single_column(self):
        with pytest.raises(ValueError, match="nodes"):
            make_panel([[1.0], [2.0]])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="unique"):
            make_panel([[1.0, 2.0], [3.0, 4.0]], names=("a", "a"))

    def test_rejects_name_count_mismatch(self):
        with pytest.raises(ValueError, match="names"):
            make_panel([[1.0, 2.0], [3.0, 4.0]], names=("a", "b", "c"))


class TestIngestCsv:
    def test_transcribes_values(self):
        panel = ingest_csv("a,b\n1,2\n3,4\n5,6\n")
        assert panel.node_names == ("a", "b")
        np.testing.assert_array_equal(panel.values, [[1, 2], [3, 4], [5, 6]])

    def test_ragged_row_names_row_number(self):
        with pytest.raises(CsvFormatError, match="row 3"):
            ingest_csv("a,b\n1,2\n3\n")

    def test_bad_cell_names_row_and_column(self):
        with pytest.raises(CsvParseError, match="row 2.*'b'"):
            ingest_csv("a,b\n1,x\n3,4\n")

    def test_nan_cell_rejected(self):
        with pytest.raises(CsvParseError, match="finite"):
            ingest_csv("a,b\n1,nan\n3,4\n")

    def test_first_bad_cell_in_row_major_order_is_reported(self):
        # an inf cell precedes an unparsable one in the same row
        with pytest.raises(CsvParseError, match=r"row 3, column 'b': cannot parse 'inf'"):
            ingest_csv("a,b,c\n1,2,3\n4,inf,x\n5,y,6\n")
        # a bad cell precedes a later row's wrong cell count
        with pytest.raises(CsvParseError, match="row 2, column 'c'"):
            ingest_csv("a,b,c\n1,2,-inf\n4,5\n")

    def test_duplicate_header_rejected(self):
        with pytest.raises(CsvSchemaError, match="duplicate.*a"):
            ingest_csv("a,a\n1,2\n")

    def test_header_only_rejected(self):
        with pytest.raises(CsvFormatError):
            ingest_csv("a,b\n")

    def test_strips_bom_and_blank_lines(self):
        panel = ingest_csv("﻿a,b\n1,2\n\n3,4\n\n")
        assert panel.n_samples == 2

    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(42)
        panel = make_panel(rng.normal(size=(20, 3)) * 1e3)
        again = ingest_csv(panel_to_csv(panel))
        np.testing.assert_array_equal(again.values, panel.values)
        assert again.node_names == panel.node_names


class TestNormalize:
    def test_hand_example(self):
        # [1, 2, 3]: mean 2, population std sqrt(2/3)
        out = normalize_columns(np.array([[1.0, 0.0], [2.0, 1.0], [3.0, 2.0]]))
        expected = 1.0 / np.sqrt(2.0 / 3.0)
        np.testing.assert_allclose(out[:, 0], [-expected, 0.0, expected], atol=1e-12)

    def test_result_has_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        out = normalize_columns(rng.normal(5.0, 3.0, size=(40, 4)))
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-12)

    def test_already_normalized_is_fixed_point(self):
        # column [-1, 1] has mean 0 and population variance 1 exactly
        values = np.array([[-1.0, 1.0], [1.0, -1.0]])
        np.testing.assert_allclose(normalize_columns(values), values, atol=1e-12)

    def test_constant_column_names_node(self):
        values = np.array([[1.0, 7.0], [2.0, 7.0], [3.0, 7.0]])
        with pytest.raises(DegenerateInputError, match="flat"):
            normalize_columns(values, ("ok", "flat"))
        with pytest.raises(DegenerateInputError, match="column 1"):
            normalize_columns(values)

    def test_overflowing_column_names_node(self):
        # a population std of 1e200-scale values squares past float64
        values = np.array([[1.0, 2.0], [2.0, -3.0], [3.0, 5.0]]) * np.array([1.0, 1e200])
        with pytest.raises(DegenerateInputError, match="huge.*overflows"):
            normalize_columns(values, ("ok", "huge"))
        with pytest.raises(DegenerateInputError, match="column 1"):
            normalize_columns(values)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        once = normalize_columns(rng.normal(size=(12, 3)) * rng.uniform(0.5, 20.0))
        twice = normalize_columns(once)
        np.testing.assert_allclose(twice, once, atol=1e-10)


class TestLagEmbed:
    def test_lag_one(self):
        emb = lag_embed(np.array([[1.0], [2.0], [3.0], [4.0]]), 1)
        np.testing.assert_array_equal(emb.design, [[1], [2], [3]])
        np.testing.assert_array_equal(emb.targets, [[2], [3], [4]])

    def test_lag_two_block_order(self):
        # lag-1 block comes first: row for target 3 is [2, 1]
        emb = lag_embed(np.array([[1.0], [2.0], [3.0], [4.0]]), 2)
        np.testing.assert_array_equal(emb.design, [[2, 1], [3, 2]])
        np.testing.assert_array_equal(emb.targets, [[3], [4]])

    def test_multivariate_blocks(self):
        x = np.arange(8.0).reshape(4, 2)
        emb = lag_embed(x, 2)
        np.testing.assert_array_equal(emb.design[0], [2, 3, 0, 1])
        np.testing.assert_array_equal(emb.targets[0], [4, 5])

    def test_too_short_series(self):
        with pytest.raises(InsufficientSamplesError):
            lag_embed(np.zeros((2, 1)), 2)

    def test_bad_lag(self):
        with pytest.raises(ValueError):
            lag_embed(np.zeros((5, 1)), 0)

    @pytest.mark.parametrize("lag", [2.0, True])
    def test_non_integer_lag(self, lag):
        # 2.0 used to raise an untyped TypeError from range()
        with pytest.raises(ValueError, match="lag must be a positive integer"):
            lag_embed(np.zeros((5, 1)), lag)

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=5, max_value=30),
        st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=25, deadline=None)
    def test_shapes(self, lag, T, D):
        emb = lag_embed(np.arange(float(T * D)).reshape(T, D), lag)
        assert emb.design.shape == (T - lag, D * lag)
        assert emb.targets.shape == (T - lag, D)
