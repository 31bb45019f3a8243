"""Hand-built SVG charts for the report.

Charts are assembled from f-strings with fixed-decimal coordinates, so
the same inputs always give byte-identical files; nothing here depends
on a plotting library, fonts on the host, or the current time.

Both charts share one bar-chart frame: title, grid with tick labels,
one bar group per dataset with its rotated name, and the zero line.
Chart one shows error rate (100 - accuracy) per dataset with paired
bars for the base and new splits.  Chart two shows the signed
generalization gap per dataset, color-coded by sign around a zero line.
"""

from fedprompt.errors import ContractError

CANVAS_W = 720
CANVAS_H = 420
MARGIN_L = 70
MARGIN_R = 20
MARGIN_T = 50
MARGIN_B = 90
PLOT_W = CANVAS_W - MARGIN_L - MARGIN_R
PLOT_H = CANVAS_H - MARGIN_T - MARGIN_B

BASE_COLOR = "#4878cf"
NEW_COLOR = "#ee854a"
POS_COLOR = "#6acc64"
NEG_COLOR = "#d65f5f"
AXIS_COLOR = "#333333"
GRID_COLOR = "#dddddd"


def _f(x: float) -> str:
    # fixed two-decimal coordinates keep the byte stream deterministic
    return f"{x:.2f}"


def _bar_chart(title, names, groups, y_of, ticks, unit, bar_cap, bar_share, legend=()) -> str:
    """The shared frame around one group of `(value, color)` bars per dataset.

    Each group is centred on its dataset's slot and every bar runs from
    zero to its value; the legend is `(label, color)` pairs above the plot.
    """
    if not names:
        raise ContractError("nothing to chart")
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS_W}" height="{CANVAS_H}" '
        f'viewBox="0 0 {CANVAS_W} {CANVAS_H}">',
        f'<rect width="{CANVAS_W}" height="{CANVAS_H}" fill="white"/>',
        f'<text x="{CANVAS_W // 2}" y="28" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16" fill="{AXIS_COLOR}">{title}</text>',
    ]
    x0, x1 = MARGIN_L, CANVAS_W - MARGIN_R
    for tick in ticks:
        y = y_of(tick)
        parts.append(
            f'<line x1="{x0}" y1="{_f(y)}" x2="{x1}" y2="{_f(y)}" '
            f'stroke="{GRID_COLOR}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x0 - 8}" y="{_f(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11" fill="{AXIS_COLOR}">{tick}{unit}</text>'
        )
    group_w = PLOT_W / len(names)
    bar_w = min(bar_cap, group_w * bar_share)
    zero_y = y_of(0)
    label_y = CANVAS_H - MARGIN_B + 16
    for i, (name, bars) in enumerate(zip(names, groups)):
        cx = MARGIN_L + group_w * (i + 0.5)
        for j, (value, color) in enumerate(bars):
            y = y_of(value)
            parts.append(
                f'<rect x="{_f(cx + (j - len(bars) / 2) * bar_w)}" y="{_f(min(zero_y, y))}" '
                f'width="{_f(bar_w)}" height="{_f(abs(y - zero_y))}" fill="{color}"/>'
            )
        parts.append(
            f'<text x="{_f(cx)}" y="{label_y}" text-anchor="end" font-family="sans-serif" '
            f'font-size="11" fill="{AXIS_COLOR}" '
            f'transform="rotate(-35 {_f(cx)} {label_y})">{name}</text>'
        )
    parts.append(
        f'<line x1="{x0}" y1="{_f(zero_y)}" x2="{x1}" '
        f'y2="{_f(zero_y)}" stroke="{AXIS_COLOR}" stroke-width="1.5"/>'
    )
    if legend:
        legend_y = MARGIN_T - 12
        parts.append(
            "".join(
                f'<rect x="{MARGIN_L + 60 * j}" y="{legend_y - 9}" width="12" height="12" '
                f'fill="{color}"/><text x="{MARGIN_L + 60 * j + 16}" y="{legend_y}" '
                f'font-family="sans-serif" font-size="11" fill="{AXIS_COLOR}">{label}</text>'
                for j, (label, color) in enumerate(legend)
            )
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def error_rate_chart(names, base_accs, new_accs) -> str:
    """Grouped error-rate bars per dataset, base split beside new split."""

    def y_of(err):
        return MARGIN_T + PLOT_H * (1.0 - err / 100.0)

    groups = [
        ((100.0 - float(b), BASE_COLOR), (100.0 - float(n), NEW_COLOR))
        for b, n in zip(base_accs, new_accs)
    ]
    return _bar_chart(
        "Error rate by dataset and split", names, groups, y_of, range(0, 101, 20), "%",
        bar_cap=28.0, bar_share=0.35, legend=(("base", BASE_COLOR), ("new", NEW_COLOR)),
    )


def gap_chart(names, gaps) -> str:
    """Signed generalization-gap bars around a zero line."""
    reach = max(2.0, max((abs(float(g)) for g in gaps), default=0.0) * 1.2)

    def y_of(gap):
        return MARGIN_T + PLOT_H * (0.5 - float(gap) / (2.0 * reach))

    groups = [((g, POS_COLOR if g >= 0 else NEG_COLOR),) for g in map(float, gaps)]
    ticks = range(-int(reach), int(reach) + 1, max(1, int(reach / 2)))
    return _bar_chart(
        "Generalization gap by dataset (new - base)", names, groups, y_of, ticks, "pp",
        bar_cap=34.0, bar_share=0.5,
    )
