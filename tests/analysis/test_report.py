"""Unit tests for table formatting."""

import pytest

from repro.analysis.report import format_table


class TestFormatTable:
    def test_basic_alignment(self):
        text = format_table(
            ["policy", "violations"],
            [["static", 0.42], ["adaptive", 0.01]],
        )
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("policy")
        assert "adaptive" in lines[3]
        # All rows equally wide.
        assert len({len(line) for line in lines}) == 1

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])

    def test_float_formatting(self):
        text = format_table(["x"], [[0.123456], [12345.6], [0.0001234]])
        assert "0.123" in text
        assert "1.23e+04" in text or "12345" in text or "1.23e4" in text
        assert "0.000123" in text

    def test_nan_rendered(self):
        text = format_table(["x"], [[float("nan")]])
        assert "nan" in text

    def test_empty_rows(self):
        text = format_table(["a"], [])
        assert "a" in text

