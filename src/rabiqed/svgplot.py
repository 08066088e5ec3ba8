"""Tiny deterministic SVG line plots.

Writes self-contained SVG with fixed geometry and %.17g-free rounded
coordinates so identical inputs yield byte-identical files.  Supports
several named series, optional log-scale y, and NaN gaps (a NaN splits
a series into separate polylines).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

_WIDTH = 640.0
_HEIGHT = 420.0
_MARGIN_L = 70.0
_MARGIN_R = 20.0
_MARGIN_T = 30.0
_MARGIN_B = 50.0

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


@dataclass
class Series:
    label: str
    x: list[float]
    y: list[float]


@dataclass
class LinePlot:
    title: str
    xlabel: str
    ylabel: str
    logy: bool = False
    series: list[Series] = field(default_factory=list)

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


def _limits(plot: LinePlot) -> tuple[float, float, float, float]:
    xs, ys = [], []
    for series in plot.series:
        for pair in _finite_pairs(series, plot.logy):
            if pair is not None:
                xs.append(pair[0])
                ys.append(pair[1])
    if not xs:
        return 0.0, 1.0, 0.0, 1.0
    x_lo, x_hi = min(xs), max(xs)
    if plot.logy:
        y_lo, y_hi = math.log10(min(ys)), math.log10(max(ys))
    else:
        y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    x_pad = 0.02 * (x_hi - x_lo)
    y_pad = 0.05 * (y_hi - y_lo)
    return x_lo - x_pad, x_hi + x_pad, y_lo - y_pad, y_hi + y_pad


def _ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    span = hi - lo
    if span <= 0 or not math.isfinite(span):
        return [lo]
    raw = span / target
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
    while value <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(value) < 1e-12 * span else value)
        value += step
    return ticks


def _fmt(value: float) -> str:
    text = f"{value:.6g}"
    return text


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
        raw = math.log10(yv) if plot.logy else yv
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

    for tick in _ticks(x_lo, x_hi):
        px = sx(tick)
        out.append(f'<line x1="{_coord(px)}" y1="{_coord(_HEIGHT - _MARGIN_B)}" '
                   f'x2="{_coord(px)}" y2="{_coord(_HEIGHT - _MARGIN_B + 5)}" '
                   f'stroke="black"/>')
        out.append(f'<text x="{_coord(px)}" y="{_coord(_HEIGHT - _MARGIN_B + 18)}" '
                   f'text-anchor="middle" font-family="sans-serif" font-size="11">'
                   f'{_fmt(tick)}</text>')
    for tick in _ticks(y_lo, y_hi):
        py = sy(10.0 ** tick if plot.logy else tick)
        label = f"1e{tick:.0f}" if plot.logy else _fmt(tick)
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
