"""Summary tables, reference comparison, and report serialization.

The reporting layer does its arithmetic in decimal, not binary floating
point.  The embedded reference table stores two-decimal values exactly,
and averaging them must reproduce the printed averages down to the
half-cent case (the gap column averages to exactly 1.425, which rounds
up to 1.43); float64 cannot promise that, decimal can.

Results enter as plain `(name, base, new)` rows.  The comparison covers
exactly the embedded reference datasets, in their order.

Display rounding is half-up to two decimals and happens only at format
time; every stored value keeps full precision.  Every display cell (CSV,
JSON display block, overall text) goes through one column formatter:
delta and gap columns carry a sign.  Delta columns follow the reference
layout's own convention: they are differences of the displayed
two-decimal values, which is what makes the printed overall deltas
(+0.11, -0.23, -0.33) come out exactly.
"""

import json
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

from fedprompt.errors import ContractError
from fedprompt.evaluation import EvalResult

TWO_PLACES = Decimal("0.01")
COLUMNS = ("base", "new", "gap")


def dec(x) -> Decimal:
    """Exact decimal image of a number; floats go through their repr."""
    if isinstance(x, Decimal):
        return x
    if isinstance(x, int):
        return Decimal(x)
    return Decimal(repr(float(x)))


def round2(x) -> Decimal:
    """Half-up rounding to two decimals, the display convention."""
    return dec(x).quantize(TWO_PLACES, rounding=ROUND_HALF_UP)


def fmt2(x, signed: bool = False) -> str:
    r = round2(x)
    if signed:
        return f"+{r}" if r >= 0 else str(r)
    return str(r)


def _cells(values: dict, columns) -> list[str]:
    """Display strings of the named columns; deltas and gaps carry a sign."""
    return [fmt2(values[c], signed=c.startswith("delta") or c.endswith("gap")) for c in columns]


@dataclass(frozen=True)
class ReferenceRow:
    """One dataset's published accuracies: the original large-scale runs
    and the reproduction they were compared against."""

    name: str
    orig_base: Decimal
    ours_base: Decimal
    orig_new: Decimal
    ours_new: Decimal


# Published per-dataset base/new accuracies (percent).  These are exact
# two-decimal constants; all derived table values must reproduce from
# them by decimal arithmetic.
REFERENCE_FIXTURE: tuple[ReferenceRow, ...] = tuple(
    ReferenceRow(name, Decimal(ob), Decimal(ub), Decimal(on), Decimal(un))
    for name, ob, ub, on, un in [
        ("caltech101", "97.2", "96.84", "95.2", "95.41"),
        ("oxford_flowers", "70.8", "71.60", "78.7", "78.30"),
        ("fgvc_aircraft", "31.5", "31.63", "35.7", "35.57"),
        ("oxford_pets", "94.9", "94.95", "94.5", "94.57"),
        ("food101", "89.9", "89.82", "91.6", "91.65"),
        ("dtd", "62.5", "62.62", "61.7", "60.51"),
    ]
)

# The original report states its average gap as computed from rounded
# column averages (76.23 - 74.47), not from per-dataset gaps, so it is
# pinned here rather than derived.
ORIG_AVERAGE_GAP = Decimal("1.76")


@dataclass(frozen=True)
class SummaryTable:
    """Per-dataset decimal accuracies plus unrounded averages."""

    names: tuple[str, ...]
    base: tuple[Decimal, ...]
    new: tuple[Decimal, ...]
    gaps: tuple[Decimal, ...]
    base_avg: Decimal
    new_avg: Decimal
    gap_avg: Decimal


def summarize(rows) -> SummaryTable:
    """Column averages over `(name, base, new)` rows.

    The gap average is the mean of the per-dataset gaps, never the
    difference of the rounded column averages; rounding is left to the
    display layer.
    """
    rows = list(rows)
    if not rows:
        raise ContractError("summarize needs at least one result")
    names = tuple(name for name, _, _ in rows)
    base = tuple(dec(b) for _, b, _ in rows)
    new = tuple(dec(n) for _, _, n in rows)
    gaps = tuple(n - b for b, n in zip(base, new))
    count = len(rows)
    return SummaryTable(
        names, base, new, gaps, sum(base) / count, sum(new) / count, sum(gaps) / count
    )


@dataclass(frozen=True)
class ComparisonTable:
    """Ours-versus-original layout: per-dataset rows and the overall block."""

    rows: tuple[dict, ...]  # name, orig/ours base + delta, orig/ours new + delta, gap
    overall: dict  # orig, ours, delta entries for base, new, gap


def _versus(column: str, orig, ours) -> dict:
    """Displayed original and reproduction values of one column, and their delta."""
    orig, ours = round2(orig), round2(ours)
    return {f"orig_{column}": orig, f"ours_{column}": ours, f"delta_{column}": ours - orig}


def compare_to_reference(summary: SummaryTable) -> ComparisonTable:
    """Delta table of a summary against the published reference.

    The summary must cover exactly the reference datasets, in fixture
    order; deltas are computed on two-decimal displayed values, matching
    the reference's printed arithmetic.
    """
    expected = tuple(ref.name for ref in REFERENCE_FIXTURE)
    if summary.names != expected:
        raise ContractError(
            f"the comparison needs the reference datasets {expected}, got {summary.names}"
        )
    rows = tuple(
        {
            "name": ref.name,
            **_versus("base", ref.orig_base, base),
            **_versus("new", ref.orig_new, new),
            "gap": round2(gap),
        }
        for ref, base, new, gap in zip(REFERENCE_FIXTURE, summary.base, summary.new, summary.gaps)
    )
    orig = summarize((ref.name, ref.orig_base, ref.orig_new) for ref in REFERENCE_FIXTURE)
    overall = {
        **_versus("base", orig.base_avg, summary.base_avg),
        **_versus("new", orig.new_avg, summary.new_avg),
        **_versus("gap", ORIG_AVERAGE_GAP, summary.gap_avg),
    }
    return ComparisonTable(rows, overall)


def fixture_results() -> list[tuple[str, Decimal, Decimal]]:
    """The reproduction side of the embedded reference, as summarize rows."""
    return [(ref.name, ref.ours_base, ref.ours_new) for ref in REFERENCE_FIXTURE]


def _csv(columns, rows) -> str:
    """Header plus one line per `(name, values)` row."""
    lines = [",".join(("dataset", *columns))]
    lines += [",".join((name, *_cells(values, columns))) for name, values in rows]
    return "\n".join(lines) + "\n"


def _summary_rows(summary: SummaryTable) -> tuple[list[tuple[str, dict]], dict]:
    """Per-dataset `(name, values)` rows, and the average's values."""
    rows = [
        (name, {"base": b, "new": n, "gap": g})
        for name, b, n, g in zip(summary.names, summary.base, summary.new, summary.gaps)
    ]
    average = {"base": summary.base_avg, "new": summary.new_avg, "gap": summary.gap_avg}
    return rows, average


def _json_entry(values: dict) -> dict:
    """Raw float values plus their display strings."""
    return {
        **{c: float(values[c]) for c in COLUMNS},
        "display": dict(zip(COLUMNS, _cells(values, COLUMNS))),
    }


def summary_csv(summary: SummaryTable) -> str:
    rows, average = _summary_rows(summary)
    return _csv(COLUMNS, rows + [("average", average)])


def summary_json(summary: SummaryTable) -> str:
    rows, average = _summary_rows(summary)
    payload = {
        "datasets": [{"name": name, **_json_entry(values)} for name, values in rows],
        "average": _json_entry(average),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def comparison_csv(table: ComparisonTable) -> str:
    columns = ("orig_base", "ours_base", "delta_base", "orig_new", "ours_new", "delta_new", "gap")
    average = {**table.overall, "gap": table.overall["ours_gap"]}
    rows = [(row["name"], row) for row in table.rows] + [("average", average)]
    return _csv(columns, rows)


def overall_text(table: ComparisonTable) -> str:
    """Three-line overall comparison in the reference layout."""
    lines = [f"{'':10s}" + "".join(f" {c:>8s}" for c in COLUMNS)]
    for label, prefix in (("original", "orig"), ("ours", "ours"), ("delta", "delta")):
        cells = _cells(table.overall, [f"{prefix}_{c}" for c in COLUMNS])
        lines.append(f"{label:10s}" + "".join(f" {cell:>8s}" for cell in cells))
    return "\n".join(lines) + "\n"


def eval_result_json(result: EvalResult, baseline: EvalResult) -> str:
    """The trained scores with display strings, beside the zero-context baseline."""
    payload = {
        "dataset": "synthetic",
        **_json_entry({"base": result.base_acc, "new": result.new_acc, "gap": result.gap}),
        "zero_context_baseline": {
            "base": baseline.base_acc,
            "new": baseline.new_acc,
            "gap": baseline.gap,
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
