"""Panel construction, CSV round trips, normalization."""

import io
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preimage_gc import GENERATOR_IDS, TimeSeriesPanel, generate, ingest_csv, normalize_columns
from preimage_gc.data import _column_moments, panel_to_csv
from preimage_gc.errors import (
    CsvFormatError,
    CsvParseError,
    CsvSchemaError,
    DegenerateInputError,
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
        with pytest.raises(ValueError, match="^node_names length must match the columns: got 3, need 2$"):
            make_panel([[1.0, 2.0], [3.0, 4.0]], names=("a", "b", "c"))

    def test_rejects_1d_values(self):
        with pytest.raises(ValueError, match="^panel values must be 2-d, got ndim=1$"):
            TimeSeriesPanel(values=np.arange(4.0), node_names=("a",))

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError, match="^node names must be nonempty$"):
            make_panel([[1.0, 2.0], [3.0, 4.0]], names=("a", ""))


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

    # float() reads each of these cells, as 1000, 3, 3, 10.5 and 2
    @pytest.mark.parametrize("text, where, cell", [
        ("a,b\n1_000,2\n3,4\n", "row 2, column 'a'", "1_000"),
        ("a,b\n1,2\n3,\u0663\n4,5\n", "row 3, column 'b'", "\u0663"),
        ("a,b\n1,2\n\uff13,4\n", "row 3, column 'a'", "\uff13"),
        ("a,b\n1,2\n3,4\n5,1_0.5\n", "row 4, column 'b'", "1_0.5"),
        ("a,b\n1,2\u00a0\n", "row 2, column 'b'", "2\u00a0"),
    ])
    def test_digit_grouping_and_non_ascii_cells_rejected(self, text, where, cell):
        message = f"{where}: cannot parse {cell!r} as a finite number"
        with pytest.raises(CsvParseError, match=f"^{re.escape(message)}$"):
            ingest_csv(text)

    def test_non_ascii_cell_keeps_row_major_order(self):
        # an unparsable cell precedes a grouped one in the same row
        with pytest.raises(CsvParseError, match="row 2, column 'a': cannot parse 'x'"):
            ingest_csv("a,b\nx,1_0\n")
        # a grouped cell precedes a later row's unparsable one
        with pytest.raises(CsvParseError, match="row 2, column 'b': cannot parse '1_0'"):
            ingest_csv("a,b\n1,1_0\ny,2\n")

    def test_reads_an_open_file_object(self):
        panel = ingest_csv(io.StringIO("a,b\n1,2\n3,4\n"))
        assert panel.node_names == ("a", "b")
        np.testing.assert_array_equal(panel.values, [[1, 2], [3, 4]])

    def test_empty_header_cell_rejected(self):
        with pytest.raises(CsvSchemaError, match="^header contains an empty column name$"):
            ingest_csv("a, ,b\n1,2,3\n")

    def test_duplicate_header_rejected(self):
        with pytest.raises(CsvSchemaError, match="duplicate.*a"):
            ingest_csv("a,a\n1,2\n")

    def test_header_only_rejected(self):
        with pytest.raises(CsvFormatError):
            ingest_csv("a,b\n")

    @pytest.mark.parametrize("text, message", [
        ("", "need a header line, got an empty file"),
        ("a,b\n1,2\n", "need at least 2 data rows, got 1"),
        ("a\n1\n2\n3\n", "need at least 2 columns, got 1"),
    ], ids=["empty", "one row", "one column"])
    def test_too_small_for_a_panel_rejected(self, text, message):
        with pytest.raises(CsvFormatError, match=f"^{message}$"):
            ingest_csv(text)

    def test_strips_bom_and_blank_lines(self):
        panel = ingest_csv("﻿a,b\n1,2\n\n3,4\n\n")
        assert panel.n_samples == 2

    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(42)
        # a space inside a name is read back as written
        panel = make_panel(rng.normal(size=(20, 3)) * 1e3, ("n0", "river flow", "n 2"))
        again = ingest_csv(panel_to_csv(panel))
        np.testing.assert_array_equal(again.values, panel.values)
        assert again.node_names == panel.node_names

    @pytest.mark.parametrize("name", ["a,b", "a\nb", "a\u2028b", " a", "b\r", "c\t"])
    def test_unreadable_name_refused_on_writing(self, name):
        # ingest_csv cannot read the first three back and strips the last three
        panel = make_panel(np.eye(3), ("y1", name, "y3"))
        with pytest.raises(ValueError, match=f"^node name {re.escape(repr(name))} cannot be written to CSV"):
            panel_to_csv(panel)


    def test_first_name_with_byte_order_mark_refused(self):
        # ingest_csv strips a leading U+FEFF as a byte-order mark, so
        # ("\ufeffa", "b", "c") would read back as ("a", "b", "c")
        name = "\ufeffa"
        panel = make_panel(np.eye(3), (name, "b", "c"))
        with pytest.raises(ValueError, match=f"^node name {re.escape(repr(name))} cannot be written to CSV"):
            panel_to_csv(panel)

    def test_later_name_with_byte_order_mark_round_trips(self):
        panel = make_panel(np.eye(3), ("a", "\ufeffb", "c\ufeff"))
        again = ingest_csv(panel_to_csv(panel))
        assert again.node_names == panel.node_names
        np.testing.assert_array_equal(again.values, panel.values)

    def test_writes_the_repr_of_each_value(self):
        # rows through tolist(), the bytes of a repr(float(v)) per numpy scalar
        def scalar_by_scalar(panel):
            rows = [",".join(repr(float(v)) for v in row) for row in panel.values]
            return "\n".join([",".join(panel.node_names)] + rows) + "\n"

        panels = [
            generate(gen, T, seed).panel
            for gen in GENERATOR_IDS for T in (50, 1000) for seed in range(5)
        ]
        panels.append(make_panel([[-0.0, 5e-324, 1e308], [0.1 + 0.2, -1e-308, 1.0]]))
        for panel in panels:
            assert panel_to_csv(panel) == scalar_by_scalar(panel)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_first_bad_column_is_named_with_its_cause(self, bad):
        # column 1 holds a non-finite value, column 2 is flat: column 1 is
        # reported, and as non-finite, not as an overflowing deviation
        values = np.array([[1.0, 2.0, 7.0], [2.0, bad, 7.0], [4.0, 5.0, 7.0]])
        with pytest.raises(DegenerateInputError, match="^b holds NaN or inf and cannot be normalized$"):
            normalize_columns(values, ("a", "b", "c"))
        values[:, 1] = 3.0
        values[0, 2] = bad
        with pytest.raises(DegenerateInputError, match="^b has zero variance and cannot be normalized$"):
            normalize_columns(values, ("a", "b", "c"))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        once = normalize_columns(rng.normal(size=(12, 3)) * rng.uniform(0.5, 20.0))
        twice = normalize_columns(once)
        np.testing.assert_allclose(twice, once, atol=1e-10)


class TestColumnMoments:
    """_column_moments is numpy's mean, var and std reduction, bit for bit."""

    @given(
        rows=st.integers(min_value=1, max_value=600),
        cols=st.integers(min_value=1, max_value=6),
        layout=st.sampled_from(["C", "F", "strided", "reversed", "transposed"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        scale=st.integers(min_value=-8, max_value=8),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_numpy_bit_for_bit(self, rows, cols, layout, seed, scale):
        rng = np.random.default_rng(seed)
        # offsets that dwarf the spread, so the deviations cancel digits
        base = (rng.normal(size=(2 * rows, 2 * cols)) + rng.uniform(-50.0, 50.0, 2 * cols)) * 10.0**scale
        values = {
            "C": np.ascontiguousarray(base[:rows, :cols]),
            "F": np.asfortranarray(base[:rows, :cols]),
            "strided": base[::2, ::2],
            "reversed": base[:rows, :cols][::-1, ::-1],
            "transposed": np.ascontiguousarray(base.T)[:cols, :rows].T,
        }[layout]
        assert values.shape == (rows, cols)
        mean, variance = _column_moments(values)
        assert mean.shape == (1, cols)
        assert mean[0].tobytes() == values.mean(axis=0).tobytes()
        assert variance.tobytes() == values.var(axis=0).tobytes()
        assert np.sqrt(variance).tobytes() == values.std(axis=0).tobytes()
