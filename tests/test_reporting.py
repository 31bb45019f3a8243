"""Reporting arithmetic against the embedded reference constants.

The reference table is the one external anchor of this package: the
summary and comparison code must reproduce its printed averages and
deltas exactly under two-decimal half-up display rounding.
"""

from decimal import Decimal

import pytest

from fedprompt.charts import error_rate_chart, gap_chart
from fedprompt.errors import ContractError
from fedprompt.reporting import (
    REFERENCE_FIXTURE,
    compare_to_reference,
    comparison_csv,
    dec,
    fixture_results,
    fmt2,
    overall_text,
    round2,
    summarize,
    summary_csv,
    summary_json,
)


class TestRounding:
    def test_half_up_at_the_boundary(self):
        assert str(round2(Decimal("1.425"))) == "1.43"
        assert str(round2(Decimal("-0.335"))) == "-0.34"
        assert str(round2(Decimal("1.424999"))) == "1.42"

    def test_fmt_signed(self):
        assert fmt2(Decimal("1.425"), signed=True) == "+1.43"
        assert fmt2(Decimal("-2.11"), signed=True) == "-2.11"
        assert fmt2(Decimal("0"), signed=True) == "+0.00"

    def test_dec_on_floats_uses_repr(self):
        assert dec(96.84) == Decimal("96.84")
        assert dec(0.1) == Decimal("0.1")


class TestFixtureArithmetic:
    def test_reproduction_averages(self):
        s = summarize(fixture_results())
        assert fmt2(s.base_avg) == "74.58"
        assert fmt2(s.new_avg) == "76.00"
        assert fmt2(s.gap_avg, signed=True) == "+1.43"

    def test_gap_average_is_exactly_the_boundary_case(self):
        # mean of the six per-dataset gaps is exactly 1.425; this is the
        # value that separates per-gap averaging from averaging the
        # rounded columns (76.00 - 74.58 = 1.42)
        s = summarize(fixture_results())
        assert s.gap_avg == Decimal("1.425")

    def test_per_dataset_gaps(self):
        s = summarize(fixture_results())
        expected = ["-1.43", "+6.70", "+3.94", "-0.38", "+1.83", "-2.11"]
        assert [fmt2(g, signed=True) for g in s.gaps] == expected

    def test_original_side_averages(self):
        s = summarize((r.name, r.orig_base, r.orig_new) for r in REFERENCE_FIXTURE)
        assert fmt2(s.base_avg) == "74.47"
        assert fmt2(s.new_avg) == "76.23"

    def test_overall_deltas(self):
        table = compare_to_reference(summarize(fixture_results()))
        o = table.overall
        assert fmt2(o["delta_base"], signed=True) == "+0.11"
        assert fmt2(o["delta_new"], signed=True) == "-0.23"
        assert fmt2(o["delta_gap"], signed=True) == "-0.33"
        assert fmt2(o["orig_gap"], signed=True) == "+1.76"

    def test_per_dataset_deltas(self):
        table = compare_to_reference(summarize(fixture_results()))
        deltas = {r["name"]: (fmt2(r["delta_base"], signed=True),
                              fmt2(r["delta_new"], signed=True)) for r in table.rows}
        assert deltas["caltech101"] == ("-0.36", "+0.21")
        assert deltas["oxford_flowers"] == ("+0.80", "-0.40")
        assert deltas["fgvc_aircraft"] == ("+0.13", "-0.13")
        assert deltas["oxford_pets"] == ("+0.05", "+0.07")
        assert deltas["food101"] == ("-0.08", "+0.05")
        assert deltas["dtd"] == ("+0.12", "-1.19")


class TestSummarize:
    def test_single_result_is_itself(self):
        s = summarize([("only", 80.0, 90.0)])
        assert s.base_avg == Decimal("80.0")
        assert s.new_avg == Decimal("90.0")
        assert s.gap_avg == Decimal("10.0")

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            summarize([])

    def test_eval_results_accepted(self):
        s = summarize([("a", 50.0, 60.0), ("b", 70.0, 60.0)])
        assert s.base_avg == Decimal("60.0")
        assert s.gap_avg == Decimal("0.0")


class TestCompare:
    def test_fixture_against_itself_zeroes(self):
        orig_rows = [(r.name, r.orig_base, r.orig_new) for r in REFERENCE_FIXTURE]
        table = compare_to_reference(summarize(orig_rows))
        for row in table.rows:
            assert row["delta_base"] == 0
            assert row["delta_new"] == 0
        assert table.overall["delta_base"] == 0
        assert table.overall["delta_new"] == 0

    def test_unknown_dataset_rejected(self):
        rows = fixture_results()
        rows[0] = ("unknown", 1.0, 2.0)
        with pytest.raises(ContractError, match="unknown"):
            compare_to_reference(summarize(rows))

    def test_single_dataset_table(self):
        # the comparison covers exactly the reference datasets, so a
        # subset is refused rather than compared against a partial table
        with pytest.raises(ContractError, match=r"got \('caltech101',\)"):
            compare_to_reference(summarize(fixture_results()[:1]))


class TestSerialization:
    def test_summary_csv_layout(self):
        csv = summary_csv(summarize(fixture_results()))
        lines = csv.strip().split("\n")
        assert lines[0] == "dataset,base,new,gap"
        assert lines[1] == "caltech101,96.84,95.41,-1.43"
        assert lines[-1] == "average,74.58,76.00,+1.43"

    def test_comparison_csv_average_row(self):
        table = compare_to_reference(summarize(fixture_results()))
        last = comparison_csv(table).strip().split("\n")[-1]
        assert last == "average,74.47,74.58,+0.11,76.23,76.00,-0.23,+1.43"

    def test_overall_text_contains_deltas(self):
        text = overall_text(compare_to_reference(summarize(fixture_results())))
        assert "+0.11" in text
        assert "-0.23" in text
        assert "-0.33" in text

    def test_summary_json_keeps_raw_and_display(self):
        import json

        payload = json.loads(summary_json(summarize(fixture_results())))
        assert payload["average"]["display"]["gap"] == "+1.43"
        assert abs(payload["average"]["gap"] - 1.425) < 1e-12


class TestCharts:
    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            error_rate_chart([], [], [])
        with pytest.raises(ContractError):
            gap_chart([], [])

    def test_aircraft_bars_tallest(self):
        # lowest accuracies mean tallest error bars; aircraft sits near
        # 65-70% error on both splits
        s = summarize(fixture_results())
        svg = error_rate_chart(s.names, s.base, s.new)
        import re

        heights = [float(h) for h in re.findall(r'height="(\d+\.\d\d)" fill="#4878cf"', svg)]
        assert len(heights) == 6
        assert max(heights) == heights[list(s.names).index("fgvc_aircraft")]

    def test_gap_chart_uses_sign_colors(self):
        s = summarize(fixture_results())
        svg = gap_chart(s.names, s.gaps)
        assert "#6acc64" in svg  # positive gaps present
        assert "#d65f5f" in svg  # negative gaps present

    def test_valid_svg_skeleton(self):
        s = summarize(fixture_results())
        svg = gap_chart(s.names, s.gaps)
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
