"""Deterministic SVG rendering of a coverage matrix.

The figure stacks an optional beats panel (activation curve, reference
ticks up, estimate ticks down) above one row per condition plus the
offbeat-union and any-level rows.  Each maximal run of covered beats
becomes one bar.  All coordinates are formatted with fixed decimals,
so identical inputs produce byte-identical files.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .core import ActivationFunction, BeatSequence, Condition, CoverageMatrix

__all__ = ["render_coverage_svg"]

_ROW_COLORS = {
    Condition.ONBEAT: "#1b7837",
    Condition.OFFBEAT_HALF: "#d95f02",
    Condition.OFFBEAT_ONE_THIRD: "#e08214",
    Condition.OFFBEAT_TWO_THIRD: "#b35806",
    Condition.SUBHARMONIC_HALF: "#542788",
    Condition.SUBHARMONIC_THIRD: "#7b3294",
    Condition.SUBHARMONIC_QUARTER: "#998ec3",
    Condition.HARMONIC_DOUBLE: "#2166ac",
    Condition.HARMONIC_TRIPLE: "#4393c3",
    Condition.HARMONIC_QUADRUPLE: "#92c5de",
}
_UNION_COLORS = {"offbeat_union": "#c51b7d", "any": "#252525"}

_MARGIN_LEFT = 170.0
_MARGIN_RIGHT = 20.0
_PLOT_WIDTH = 720.0
_ROW_HEIGHT = 20.0
_ROW_GAP = 6.0
_PANEL_HEIGHT = 110.0
_AXIS_HEIGHT = 34.0
_TOP = 16.0


def _fmt(x: float) -> str:
    return f"{x:.2f}"


# Values that _format_points formats at a time.  Even, so that each block
# starts on a "," separator; the bound keeps a long polyline's integer
# temporaries to a few hundred kB.
_FORMAT_BLOCK = 8192


def _format_points(values: np.ndarray) -> str:
    """``"%.2f"`` of each value, joined alternately by ``,`` and `` ``.

    ``[x0, y0, x1, y1, ...]`` gives ``"x0,y0 x1,y1 ..."``, byte for byte
    what Python's correctly rounded formatter writes.  The rounding is
    done on integers: ``np.frexp`` gives ``v = m * 2**e``, and the 53-bit
    mantissa ``M = m * 2**53`` times 100 is ``v * 100 * 2**s`` exactly,
    with ``s = 53 - e``.  A right shift by ``s`` that rounds half to even
    on the exact remainder gives ``round(v * 100)``.  Its digits, the
    ``.`` and the separators are written as ``uint8`` columns, and the
    leading zeros are masked out.

    Exact for ``0 <= v < 2**52``, where ``s >= 1`` and ``100 * M`` fits in
    an int64.  Every value the figure formats lies well inside: beat and
    frame times are ``>= 0`` and at most the axis length, so x is in
    [170, 890], and activation values are in [0, 1], so y is in [24, 126].
    """
    chunks = []
    for start in range(0, len(values), _FORMAT_BLOCK):
        # each name is reused from step to step, so that a block holds few
        # temporaries at a time
        cents, shift = np.frexp(values[start : start + _FORMAT_BLOCK])
        # below 2**-62 the product is under 2**-2, and a shift of 62
        # rounds it to 0 as a longer one would
        shift = np.minimum(np.int64(53) - shift.astype(np.int64), np.int64(62))
        cents = np.ldexp(cents, 53).astype(np.int64)
        cents *= np.int64(100)
        # adding half - 1 and the last bit kept carries exactly when the
        # remainder is above half, or at half with an odd quotient
        carry = (cents >> shift) & np.int64(1)
        carry += (np.int64(1) << (shift - np.int64(1))) - np.int64(1)
        cents += carry
        cents >>= shift
        digits = len(str(int(cents.max()) // 100))
        # the integer part's leading zeros are masked out
        keep = np.ones((len(cents), digits + 4), dtype=bool)
        for k in range(digits - 1):
            keep[:, k] = cents >= np.int64(10 ** (digits + 1 - k))
        out = np.empty(keep.shape, dtype=np.uint8)
        for k in [digits + 2, digits + 1, *range(digits - 1, -1, -1)]:
            quotient = cents // np.int64(10)
            cents -= quotient * np.int64(10) - np.int64(ord("0"))
            out[:, k] = cents
            cents = quotient
        out[:, digits] = ord(".")
        out[0::2, -1] = ord(",")
        out[1::2, -1] = ord(" ")
        chunks.append(out[keep].tobytes())
    return b"".join(chunks)[:-1].decode("ascii")


def _format_each(values: np.ndarray) -> list[str]:
    """``"%.2f"`` of each value, as a list."""
    return _format_points(values).replace(",", " ").split()


def _runs(row: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maximal runs of True: the arrays of their first and last indices."""
    # a run starts where the row rises and ends one before it falls
    edges = np.flatnonzero(np.diff(row, prepend=False, append=False))
    return edges[::2], edges[1::2] - 1


def _tick_step(t_max: float) -> float:
    """Tick spacing of a time axis of ``t_max`` seconds: at most 13 ticks from 0 s.

    Past two hours the ten-minute step doubles until the ticks fit, so
    an axis of any finite length gets a bounded number of ticks.
    """
    for step in (0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0):
        if t_max / step <= 12.0:
            return step
    step = 600.0
    while t_max / step > 12.0:
        step *= 2.0
    return step


def render_coverage_svg(
    cm: CoverageMatrix,
    ref: BeatSequence,
    act: ActivationFunction | None = None,
    est: BeatSequence | None = None,
    path=None,
) -> str:
    """Build the SVG text; also write it to ``path`` when given.

    Raises:
        ValueError: the matrix and reference disagree on beat count.
    """
    if cm.n_beats != len(ref):
        raise ValueError(f"matrix has {cm.n_beats} beats but reference has {len(ref)}")
    t = ref.times
    t_max = float(t[-1]) if len(ref) else 1.0
    if act is not None:
        t_max = max(t_max, act.duration)
    if est is not None:
        t_max = max(t_max, float(est.times.max(initial=0.0)))
    if t_max <= 0.0:
        t_max = 1.0

    def x(time):
        """Plot x of a time in seconds, or of each element of an array."""
        return _MARGIN_LEFT + time / t_max * _PLOT_WIDTH

    pad = 0.5 * float(np.mean(ref.ibis)) if len(ref) >= 2 else 0.25
    width = _MARGIN_LEFT + _PLOT_WIDTH + _MARGIN_RIGHT
    panel = act is not None or est is not None
    rows = [(c.value, cm.covered[c], _ROW_COLORS[c]) for c in Condition]
    rows.append(("offbeat_union", cm.offbeat_row, _UNION_COLORS["offbeat_union"]))
    rows.append(("any", cm.any_row, _UNION_COLORS["any"]))
    rows_top = _TOP + (_PANEL_HEIGHT + 12.0 if panel else 0.0)
    height = rows_top + len(rows) * (_ROW_HEIGHT + _ROW_GAP) + _AXIS_HEIGHT

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}" '
        f'font-family="monospace" font-size="12">',
        f'<rect x="0" y="0" width="{_fmt(width)}" height="{_fmt(height)}" fill="#ffffff"/>',
    ]

    if panel:
        p_top, p_bot = _TOP, _TOP + _PANEL_HEIGHT
        mid = 0.5 * (p_top + p_bot)
        parts.append('<g id="beats-panel">')
        parts.append(
            f'<rect x="{_fmt(_MARGIN_LEFT)}" y="{_fmt(p_top)}" width="{_fmt(_PLOT_WIDTH)}" '
            f'height="{_fmt(_PANEL_HEIGHT)}" fill="#f7f7f7" stroke="#cccccc"/>'
        )
        if act is not None and len(act):
            xy = np.column_stack((x(act.frame_times()), p_bot - act.values * (_PANEL_HEIGHT - 8.0)))
            pts = _format_points(xy.ravel())
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="#888888" stroke-width="1"/>'
            )
        parts += map(
            f'<line class="ref-beat" x1="{{0}}" y1="{_fmt(p_top)}" '
            f'x2="{{0}}" y2="{_fmt(mid)}" stroke="#1b7837" stroke-width="1"/>'.format,
            _format_each(x(t)),
        )
        if est is not None:
            parts += map(
                f'<line class="est-beat" x1="{{0}}" y1="{_fmt(mid)}" '
                f'x2="{{0}}" y2="{_fmt(p_bot)}" stroke="#b2182b" stroke-width="1"/>'.format,
                _format_each(x(est.times)),
            )
        parts.append(
            f'<text x="{_fmt(_MARGIN_LEFT - 8.0)}" y="{_fmt(mid)}" text-anchor="end">beats</text>'
        )
        parts.append("</g>")

    # the x and width of every row's bars, formatted at once: bar n is
    # bars[2 * n] and bars[2 * n + 1]
    runs = [_runs(row) for _, row, _ in rows]
    first, last = (np.concatenate(edges) for edges in zip(*runs))
    x1 = np.maximum(x(t[first] - pad), _MARGIN_LEFT)
    x2 = np.minimum(x(t[last] + pad), _MARGIN_LEFT + _PLOT_WIDTH)
    bars = _format_each(np.column_stack((x1, x2 - x1)).ravel())
    ends = np.cumsum([2 * len(starts) for starts, _ in runs]).tolist()
    for k, ((key, row, color), start, end) in enumerate(zip(rows, [0, *ends], ends)):
        y = rows_top + k * (_ROW_HEIGHT + _ROW_GAP)
        parts.append(f'<g id="row-{key}">')
        parts.append(
            f'<rect x="{_fmt(_MARGIN_LEFT)}" y="{_fmt(y)}" width="{_fmt(_PLOT_WIDTH)}" '
            f'height="{_fmt(_ROW_HEIGHT)}" fill="#f7f7f7" stroke="#dddddd"/>'
        )
        label = key.replace("_", " ")
        parts.append(
            f'<text x="{_fmt(_MARGIN_LEFT - 8.0)}" y="{_fmt(y + _ROW_HEIGHT - 5.0)}" '
            f'text-anchor="end">{label}</text>'
        )
        parts += map(
            f'<rect class="cover" x="{{0}}" y="{_fmt(y + 3.0)}" '
            f'width="{{1}}" height="{_fmt(_ROW_HEIGHT - 6.0)}" fill="{color}"/>'.format,
            bars[start:end:2],
            bars[start + 1 : end : 2],
        )
        parts.append("</g>")

    axis_y = rows_top + len(rows) * (_ROW_HEIGHT + _ROW_GAP) + 6.0
    parts.append('<g id="time-axis">')
    parts.append(
        f'<line x1="{_fmt(_MARGIN_LEFT)}" y1="{_fmt(axis_y)}" '
        f'x2="{_fmt(_MARGIN_LEFT + _PLOT_WIDTH)}" y2="{_fmt(axis_y)}" stroke="#000000"/>'
    )
    step = _tick_step(t_max)
    tick = 0.0
    while tick <= t_max + 1e-9:
        parts.append(
            f'<line x1="{_fmt(x(tick))}" y1="{_fmt(axis_y)}" '
            f'x2="{_fmt(x(tick))}" y2="{_fmt(axis_y + 5.0)}" stroke="#000000"/>'
        )
        parts.append(
            f'<text x="{_fmt(x(tick))}" y="{_fmt(axis_y + 18.0)}" '
            f'text-anchor="middle">{tick:.1f}</text>'
        )
        tick += step
    parts.append(
        f'<text x="{_fmt(_MARGIN_LEFT + _PLOT_WIDTH)}" y="{_fmt(axis_y + 30.0)}" '
        f'text-anchor="end">time (s)</text>'
    )
    parts.append("</g>")
    parts.append("</svg>")
    text = "\n".join(parts) + "\n"
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text
