import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from beatcover import (
    ActivationFunction,
    BeatSequence,
    Condition,
    coverage_matrix,
    gen_activation,
    gen_estimate,
    gen_reference,
    render_coverage_svg,
    Scenario,
    Segment,
)
from beatcover.viz import _FORMAT_BLOCK, _format_points
from oracles import oracle_format_points, oracle_polyline_points

SVG = "{http://www.w3.org/2000/svg}"


def render_parsed(**kwargs):
    ref = gen_reference(120, 8.0)
    sc = Scenario(120, 8.0, (Segment(0, Condition.HARMONIC_DOUBLE),))
    est = gen_estimate(ref, sc)
    cm = coverage_matrix(ref, est)
    text = render_coverage_svg(cm, ref, **kwargs)
    return text, ET.fromstring(text), ref, est, cm


def axis_labels(text):
    """Tick labels of the time axis, without its "time (s)" title."""
    axis = next(g for g in ET.fromstring(text).iter(f"{SVG}g") if g.get("id") == "time-axis")
    return [e.text for e in axis.iter(f"{SVG}text")][:-1]


class TestRenderCoverageSvg:
    def test_is_well_formed_svg(self):
        text, root, *_ = render_parsed()
        assert root.tag == f"{SVG}svg"
        assert text.startswith("<svg")

    def test_one_group_per_condition_plus_unions(self):
        _, root, *_ = render_parsed()
        ids = {g.get("id") for g in root.iter(f"{SVG}g")}
        for condition in Condition:
            assert f"row-{condition.value}" in ids
        assert "row-offbeat_union" in ids
        assert "row-any" in ids
        assert "time-axis" in ids

    def test_covered_rows_have_bars_and_empty_rows_do_not(self):
        _, root, *_ = render_parsed()
        bars = {}
        for g in root.iter(f"{SVG}g"):
            gid = g.get("id") or ""
            if gid.startswith("row-"):
                bars[gid[4:]] = [
                    r for r in g.iter(f"{SVG}rect") if r.get("class") == "cover"
                ]
        # a pure double-tempo estimate: one continuous bar on its row and
        # on the any row, nothing on the onbeat row
        assert len(bars["harmonic_double"]) == 1
        assert len(bars["any"]) == 1
        assert bars["onbeat"] == []
        assert bars["offbeat_union"] == []

    def test_beats_panel_only_when_signals_given(self):
        _, bare_root, ref, est, cm = render_parsed()
        assert not any(g.get("id") == "beats-panel" for g in bare_root.iter(f"{SVG}g"))
        act = gen_activation(ref)
        text = render_coverage_svg(cm, ref, act=act, est=est)
        root = ET.fromstring(text)
        assert any(g.get("id") == "beats-panel" for g in root.iter(f"{SVG}g"))
        ref_ticks = [e for e in root.iter(f"{SVG}line") if e.get("class") == "ref-beat"]
        est_ticks = [e for e in root.iter(f"{SVG}line") if e.get("class") == "est-beat"]
        assert len(ref_ticks) == len(ref)
        assert len(est_ticks) == len(est)
        assert any(e.tag == f"{SVG}polyline" for e in root.iter())

    def test_identical_input_yields_identical_bytes(self):
        a, *_ = render_parsed()
        b, *_ = render_parsed()
        assert a == b

    def test_writes_file_when_path_given(self, tmp_path):
        ref = gen_reference(120, 4.0)
        cm = coverage_matrix(ref, ref)
        out = tmp_path / "cover.svg"
        text = render_coverage_svg(cm, ref, path=out)
        assert out.read_text(encoding="utf-8") == text

    def test_beat_count_mismatch_rejected(self):
        ref = gen_reference(120, 4.0)
        cm = coverage_matrix(ref, ref)
        with pytest.raises(ValueError):
            render_coverage_svg(cm, BeatSequence(ref.times[:-1]))

    def test_split_coverage_renders_multiple_bars(self):
        ref = gen_reference(120, 8.0)  # 16 beats
        sc = Scenario(
            120, 8.0,
            (Segment(0, Condition.ONBEAT), Segment(8, Condition.OFFBEAT_HALF)),
        )
        est = gen_estimate(ref, sc)
        cm = coverage_matrix(ref, est)
        root = ET.fromstring(render_coverage_svg(cm, ref))
        for g in root.iter(f"{SVG}g"):
            if g.get("id") == "row-onbeat":
                bars = [r for r in g.iter(f"{SVG}rect") if r.get("class") == "cover"]
                assert len(bars) == 1

    def test_axis_ticks_every_ten_minutes_past_an_hour(self):
        ref = gen_reference(30, 3700.0)  # last beat at 3698 s
        labels = axis_labels(render_coverage_svg(coverage_matrix(ref, ref), ref))
        assert labels == [f"{600.0 * k:.1f}" for k in range(7)]
        ref = BeatSequence([0.0, 7200.0])
        labels = axis_labels(render_coverage_svg(coverage_matrix(ref, ref), ref))
        assert labels == [f"{600.0 * k:.1f}" for k in range(13)]

    @pytest.mark.parametrize("last", [1e12, 1e300])
    def test_a_huge_axis_gets_at_most_13_ticks(self, last):
        # a ten-minute step would need over 10**9 ticks at 1e12 s, and
        # stops advancing at all past about 9e18 s
        ref = BeatSequence([0.0, last])
        ticks = [float(label) for label in axis_labels(render_coverage_svg(coverage_matrix(ref, ref), ref))]
        assert 7 <= len(ticks) <= 13
        assert ticks == [ticks[1] * k for k in range(len(ticks))]
        assert ticks[-1] <= last < ticks[-1] + ticks[1]

    @pytest.mark.parametrize("ref", [[0.0], [0.5, 1.0, 2.5]])
    def test_an_empty_estimate_leaves_the_time_axis_alone(self, ref):
        ref = BeatSequence(ref)
        cm = coverage_matrix(ref, ref)
        bare = axis_labels(render_coverage_svg(cm, ref))
        assert axis_labels(render_coverage_svg(cm, ref, est=BeatSequence([]))) == bare

    def test_single_beat_at_zero_without_panel(self):
        # the time axis would span 0 s; it falls back to 1 s
        ref = BeatSequence([0.0])
        labels = axis_labels(render_coverage_svg(coverage_matrix(ref, ref), ref))
        assert labels == ["0.0", "0.5", "1.0"]


@st.composite
def panel_case(draw):
    """(activation values, fps, last reference beat) for one beats panel.

    Half the cases put x and y on binary ties such as 170.125, where
    ``%.2f`` rounds half to even: with fps ``2**j`` and the time axis
    ``2**(7 - j)`` s long, x steps by 720 / 128 = 5.625, and a value
    ``i / 16`` puts y at 126 - 6.375 i.
    """
    if draw(st.booleans()):
        j = draw(st.integers(min_value=0, max_value=7))
        fps, last_beat = 2.0**j, 2.0 ** (7 - j)
        value = st.integers(min_value=0, max_value=16).map(lambda i: i / 16)
        values = draw(st.lists(value, min_size=1, max_size=129))
    else:
        fps = draw(st.sampled_from([100.0, 44100 / 512, 50.0]) | st.floats(min_value=1.0, max_value=1000.0))
        last_beat = draw(st.floats(min_value=0.01, max_value=10.0))
        value = st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0, max_value=1.0)
        values = draw(st.lists(value, min_size=1, max_size=300))
    return values, fps, last_beat


@given(panel_case())
def test_polyline_points_match_per_frame_formatting(case):
    values, fps, last_beat = case
    ref = BeatSequence([last_beat])
    act = ActivationFunction(fps=fps, values=np.array(values))
    svg = render_coverage_svg(coverage_matrix(ref, ref), ref, act=act)
    t_max = max(last_beat, (len(values) - 1) / fps)
    points = re.search(r'<polyline points="([^"]*)"', svg).group(1)
    assert points == oracle_polyline_points(values, fps, t_max)


def test_polyline_x_keeps_its_operation_order():
    """x is ``170 + t / t_max * 720``.  At frame 714 of this case that is
    456.87499999999994 and formats as 456.87, while the reordered
    ``170 + t * (720 / t_max)`` gives 456.875, which rounds to 456.88."""
    fps, last_beat = 244.66637595636874, 6.022230553550414
    values = np.zeros(1793)
    ref = BeatSequence([last_beat])
    act = ActivationFunction(fps=fps, values=values)
    svg = render_coverage_svg(coverage_matrix(ref, ref), ref, act=act)
    points = re.search(r'<polyline points="([^"]*)"', svg).group(1)
    assert points == oracle_polyline_points(values, fps, act.duration)
    assert points.split(" ")[714] == "456.87,126.00"


class TestFormatPoints:
    """``viz._format_points`` rounds in integers; Python's float formatter
    is the reference."""

    def test_every_hundredth_and_half_hundredth_and_their_neighbours(self):
        k = np.arange(2 * 10**5) / 200
        for values in (k, np.nextafter(k, 0.0), np.nextafter(k, np.inf)):
            assert _format_points(values) == oracle_format_points(values.tolist())

    def test_binary_ties_round_half_to_even(self):
        # 0.125 and 170.125 are exact ties; 2.675 is just below one
        values = [0.125, 170.125, 2.675, 0.375, 0.625, 0.875]
        assert _format_points(np.array(values)) == "0.12,170.12 2.67,0.38 0.62,0.88"

    def test_zero_subnormal_and_large_values(self):
        values = [0.0, 5e-324, 2.2250738585072014e-308, 0.005, 9.995, 99.995, 999999.995, 1e6]
        values += (10.0 ** np.arange(7) - 0.005).tolist() + [2.0**52 - 0.5, 2.0**52 - 1.0]
        assert _format_points(np.array(values)) == oracle_format_points(values)

    @pytest.mark.parametrize("offset", [-1, 0, 1, _FORMAT_BLOCK + 1])
    def test_block_edges(self, offset):
        values = np.random.default_rng(offset + 2).uniform(0.0, 1000.0, _FORMAT_BLOCK + offset)
        assert _format_points(values) == oracle_format_points(values.tolist())

    def test_empty(self):
        assert _format_points(np.empty(0)) == ""

    @given(st.lists(st.floats(min_value=0.0, max_value=2.0**52, exclude_max=True), max_size=40))
    def test_matches_percent_format_over_its_domain(self, values):
        assert _format_points(np.array(values, dtype=np.float64)) == oracle_format_points(values)


@pytest.mark.parametrize("frames", [_FORMAT_BLOCK - 1, _FORMAT_BLOCK, _FORMAT_BLOCK + 1])
def test_polylines_across_format_blocks(frames):
    fps = 100.0
    values = np.random.default_rng(frames).random(frames)
    ref = BeatSequence([1.0])
    act = ActivationFunction(fps=fps, values=values)
    svg = render_coverage_svg(coverage_matrix(ref, ref), ref, act=act)
    points = re.search(r'<polyline points="([^"]*)"', svg).group(1)
    assert points == oracle_polyline_points(values, fps, act.duration)


def test_tick_x_match_per_beat_formatting():
    """Each tick class formats its x as one array, across a block edge;
    every x1 and x2 equals a per-beat f-string."""
    rng = np.random.default_rng(5)
    ref = BeatSequence(np.cumsum(rng.uniform(0.2, 0.8, _FORMAT_BLOCK + 1)))
    est = BeatSequence(np.round(ref.times[1::3], 3))
    svg = render_coverage_svg(coverage_matrix(ref, est), ref, est=est)
    t_max = max(ref.times[-1], est.times[-1])
    root = ET.fromstring(svg)
    for cls, seq in (("ref-beat", ref), ("est-beat", est)):
        lines = [e for e in root.iter(f"{SVG}line") if e.get("class") == cls]
        want = [f"{170.0 + t / t_max * 720.0:.2f}" for t in seq.times.tolist()]
        assert [e.get("x1") for e in lines] == want
        assert [e.get("x2") for e in lines] == want


def test_cover_bars_match_per_bar_formatting():
    """An estimate on every other beat covers every other beat at half
    tempo, so that row and the any row alternate, one bar per covered
    beat; every bar's x and width equal per-bar f-strings."""
    ref = BeatSequence(0.25 + 0.5 * np.arange(600))
    cm = coverage_matrix(ref, BeatSequence(ref.times[::2]))
    root = ET.fromstring(render_coverage_svg(cm, ref))
    t, t_max, pad = ref.times.tolist(), ref.times[-1], 0.25
    counts = {}
    for g in root.iter(f"{SVG}g"):
        key = (g.get("id") or "").removeprefix("row-")
        if key == g.get("id"):
            continue
        row = cm.any_row if key == "any" else cm.offbeat_row if key == "offbeat_union" else cm.covered[Condition(key)]
        want = []
        for first in range(len(t)):
            if row[first] and (first == 0 or not row[first - 1]):
                last = first
                while last + 1 < len(t) and row[last + 1]:
                    last += 1
                x1 = max(170.0 + (t[first] - pad) / t_max * 720.0, 170.0)
                x2 = min(170.0 + (t[last] + pad) / t_max * 720.0, 890.0)
                want.append((f"{x1:.2f}", f"{x2 - x1:.2f}"))
        bars = [r for r in g.iter(f"{SVG}rect") if r.get("class") == "cover"]
        assert [(r.get("x"), r.get("width")) for r in bars] == want, key
        counts[key] = len(bars)
    assert counts["subharmonic_half"] == counts["any"] == 300
