"""Tiny deterministic SVG line plots.

Writes self-contained SVG with fixed geometry and %.17g-free rounded
coordinates so identical inputs yield byte-identical files.  Supports
several named series, optional log-scale y, and NaN gaps (a NaN splits
a series into separate polylines).  Any finite values plot, from 5e-324
to 1e308, unless an axis would span more than a float can hold.  Only
the math module is imported, so plotting loads neither NumPy nor the
dataclasses machinery.
"""

from __future__ import annotations

import math

_WIDTH = 640.0
_HEIGHT = 420.0
_MARGIN_L = 70.0
_MARGIN_R = 20.0
_MARGIN_T = 30.0
_MARGIN_B = 50.0

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


class Series:
    """One named line: its x and y values."""

    def __init__(self, label: str, x: list[float], y: list[float]):
        self.label = label
        self.x = x
        self.y = y


class LinePlot:
    """A titled plot of named series, rendered with render()."""

    def __init__(self, title: str, xlabel: str, ylabel: str, logy: bool = False):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.logy = logy
        self.series: list[Series] = []

    def add(self, label: str, x, y) -> None:
        self.series.append(Series(label=label,
                                  x=[float(v) for v in x],
                                  y=[float(v) for v in y]))

    def render(self) -> str:
        return _render(self)


def _finite_pairs(series: Series, logy: bool):
    for xv, yv in zip(series.x, series.y):
        if not (math.isfinite(xv) and math.isfinite(yv)):
            yield None
        elif logy and yv <= 0.0:
            yield None
        else:
            yield (xv, yv)


def _axis(name: str, lo: float, hi: float, pad: float) -> tuple[float, float]:
    """Limits of an axis whose values run from lo to hi, padded on each side
    by pad times its width.

    Values closer together than 64 units in the last place (a single value,
    say) are widened about themselves, by 0.5 on each side or, where that
    would be lost to rounding, by 1e-6 of their magnitude: ticks then step
    by more than the values' resolution.  ValueError if the padded axis is
    wider than a float can hold.
    """
    magnitude = max(abs(lo), abs(hi))
    if hi - lo < 64 * math.ulp(magnitude):
        half = max(0.5, 1e-6 * magnitude)
        lo, hi = lo - half, hi + half
    margin = pad * (hi - lo)
    lo, hi = lo - margin, hi + margin
    if not math.isfinite(hi - lo):
        raise ValueError(f"the {name} values span more than a float can hold")
    return lo, hi


def _limits(plot: LinePlot) -> tuple[float, float, float, float]:
    xs, ys = [], []
    for series in plot.series:
        for pair in _finite_pairs(series, plot.logy):
            if pair is not None:
                xs.append(pair[0])
                ys.append(pair[1])
    if not xs:
        return 0.0, 1.0, 0.0, 1.0
    if plot.logy:
        y_lo, y_hi = math.log10(min(ys)), math.log10(max(ys))
    else:
        y_lo, y_hi = min(ys), max(ys)
    return (*_axis("x", min(xs), max(xs), 0.02), *_axis("y", y_lo, y_hi, 0.05))


def _ticks(lo: float, hi: float) -> list[float]:
    """About six round-numbered ticks over [lo, hi]."""
    span = hi - lo
    if span <= 0 or not math.isfinite(span):
        return [lo]
    raw = span / 6
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    else:
        step = 10.0 * mag
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value - hi <= 1e-9 * span:  # hi + 1e-9 span may overflow
        ticks.append(0.0 if abs(value) < 1e-12 * span else value)
        value += step
    return ticks


def _linear_label(tick: float, digits: int) -> str:
    return f"{tick:.{digits}g}"


def _log_label(tick: float, digits: int) -> str:
    """A log-axis tick (the log10 of its value) as mantissa and decade,
    1e{k} on a whole decade.  The mantissa is 10 ** (tick - decade), so no
    label overflows or underflows."""
    decade = math.floor(tick)
    mantissa = f"{10.0 ** (tick - decade):.{digits}g}"
    if mantissa == "10":  # a tick just below a whole decade
        mantissa, decade = "1", decade + 1
    return f"{mantissa}e{decade}"


def _labels(ticks: list[float], label, digits: int) -> list[str]:
    """label(tick, n) of every tick, with the fewest significant digits n,
    from digits up, that tell every tick apart: 6 or more on a linear axis,
    3 or more on a log axis."""
    for n in range(digits, 18):
        labels = [label(tick, n) for tick in ticks]
        if len(set(labels)) == len(labels):
            break
    return labels


def _escape(text: str) -> str:
    """Caller text (title, axis and series labels) as SVG character data:
    &, < and > become entity references.  Tick labels are formatted numbers
    and need none."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _coord(value: float) -> str:
    return f"{value:.2f}"


def _render(plot: LinePlot) -> str:
    x_lo, x_hi, y_lo, y_hi = _limits(plot)
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def sx(xv: float) -> float:
        return _MARGIN_L + (xv - x_lo) / (x_hi - x_lo) * plot_w

    def sy(yv: float) -> float:
        return raw_sy(math.log10(yv) if plot.logy else yv)

    def raw_sy(raw: float) -> float:  # raw: y, or log10(y) on a log axis
        return _MARGIN_T + (y_hi - raw) / (y_hi - y_lo) * plot_h

    out = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH:.0f}" '
               f'height="{_HEIGHT:.0f}" viewBox="0 0 {_WIDTH:.0f} {_HEIGHT:.0f}">')
    out.append('<rect width="100%" height="100%" fill="white"/>')
    out.append(f'<text x="{_WIDTH / 2:.0f}" y="18" text-anchor="middle" '
               f'font-family="sans-serif" font-size="14">{_escape(plot.title)}</text>')

    frame = (f'M {_coord(_MARGIN_L)} {_coord(_MARGIN_T)} '
             f'H {_coord(_WIDTH - _MARGIN_R)} V {_coord(_HEIGHT - _MARGIN_B)} '
             f'H {_coord(_MARGIN_L)} Z')
    out.append(f'<path d="{frame}" fill="none" stroke="black" stroke-width="1"/>')

    x_ticks = _ticks(x_lo, x_hi)
    for tick, label in zip(x_ticks, _labels(x_ticks, _linear_label, 6)):
        px = sx(tick)
        out.append(f'<line x1="{_coord(px)}" y1="{_coord(_HEIGHT - _MARGIN_B)}" '
                   f'x2="{_coord(px)}" y2="{_coord(_HEIGHT - _MARGIN_B + 5)}" '
                   f'stroke="black"/>')
        out.append(f'<text x="{_coord(px)}" y="{_coord(_HEIGHT - _MARGIN_B + 18)}" '
                   f'text-anchor="middle" font-family="sans-serif" font-size="11">'
                   f'{label}</text>')
    y_ticks = _ticks(y_lo, y_hi)
    y_labels = (_labels(y_ticks, _log_label, 3) if plot.logy
                else _labels(y_ticks, _linear_label, 6))
    for tick, label in zip(y_ticks, y_labels):
        py = raw_sy(tick)
        out.append(f'<line x1="{_coord(_MARGIN_L - 5)}" y1="{_coord(py)}" '
                   f'x2="{_coord(_MARGIN_L)}" y2="{_coord(py)}" stroke="black"/>')
        out.append(f'<text x="{_coord(_MARGIN_L - 8)}" y="{_coord(py + 4)}" '
                   f'text-anchor="end" font-family="sans-serif" font-size="11">'
                   f'{label}</text>')

    out.append(f'<text x="{_WIDTH / 2:.0f}" y="{_HEIGHT - 10:.0f}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="12">{_escape(plot.xlabel)}</text>')
    out.append(f'<text x="16" y="{_HEIGHT / 2:.0f}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="12" '
               f'transform="rotate(-90 16 {_HEIGHT / 2:.0f})">{_escape(plot.ylabel)}</text>')

    for idx, series in enumerate(plot.series):
        color = _PALETTE[idx % len(_PALETTE)]
        segments: list[list[tuple[float, float]]] = [[]]
        for pair in _finite_pairs(series, plot.logy):
            if pair is None:
                if segments[-1]:
                    segments.append([])
            else:
                segments[-1].append(pair)
        for segment in segments:
            if len(segment) < 2:
                continue
            points = " ".join(f"{_coord(sx(xv))},{_coord(sy(yv))}" for xv, yv in segment)
            out.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                       f'stroke-width="1.5"/>')
        ly = _MARGIN_T + 16 + 16 * idx
        lx = _WIDTH - _MARGIN_R - 150
        out.append(f'<line x1="{_coord(lx)}" y1="{_coord(ly - 4)}" x2="{_coord(lx + 24)}" '
                   f'y2="{_coord(ly - 4)}" stroke="{color}" stroke-width="1.5"/>')
        out.append(f'<text x="{_coord(lx + 30)}" y="{_coord(ly)}" '
                   f'font-family="sans-serif" font-size="11">{_escape(series.label)}</text>')

    out.append('</svg>')
    return "\n".join(out) + "\n"
