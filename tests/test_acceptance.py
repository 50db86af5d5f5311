"""End-to-end acceptance checks.

Each test here is one pinned claim about the toolkit as a whole; the
terminal summary (see conftest) prints one PASS/FAIL line per
criterion.  Tolerances are written into the asserts on purpose: loosen
none of them.
"""

import json
import time

import numpy as np

import oracles
from beatcover import (
    ActivationFunction,
    BeatSequence,
    Condition,
    Scenario,
    Segment,
    ToleranceParams,
    acr_scores,
    coverage_matrix,
    dp_track,
    evaluate_track,
    gen_activation,
    gen_estimate,
    gen_reference,
    mlsr,
    sppk,
    stable_tempi_percentage,
    variant_window,
    window_table,
)
from beatcover.cli import main as cli_main
from beatcover.core import CONDITION_FACTORS, CONDITION_FRACTIONS, CONDITION_STEPS
from conftest import constant_beats, random_times


def random_curve(rng):
    """Constant or gently varying tempo curve with 2-3 knots."""
    n_knots = int(rng.integers(1, 4))
    if n_knots == 1:
        return float(rng.uniform(60, 180))
    times = np.sort(rng.uniform(0.0, 12.0, n_knots))
    times[0] = 0.0
    bpms = rng.uniform(60, 180, n_knots)
    return [(float(t), float(b)) for t, b in zip(times, bpms)]


def test_c1_identity_suite():
    """A tracker that returns the annotation must score perfectly everywhere."""
    rng = np.random.default_rng(11)
    started = time.perf_counter()
    for _ in range(50):
        curve = random_curve(rng)
        duration = float(rng.uniform(8.0, 14.0))
        ref = gen_reference(curve, duration)
        report = evaluate_track("identity", ref, ref)
        assert report.f1 == 1.0
        assert report.cmlt == 1.0
        assert report.amlt == 1.0
        assert report.l_correct_f == 1.0
        assert report.acr[Condition.ONBEAT] == 1.0
        assert report.acr_any == 1.0
        assert report.mlsr == 0.0
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"identity suite took {elapsed:.2f} s, budget is 5 s"


def expected_pure_row(condition, n):
    """Which beats a clean single-condition estimate must cover (L=2)."""
    row = np.zeros(n, dtype=bool)
    if condition in (Condition.ONBEAT, Condition.HARMONIC_DOUBLE,
                     Condition.HARMONIC_TRIPLE, Condition.HARMONIC_QUADRUPLE):
        row[:] = True
    elif condition in (Condition.OFFBEAT_HALF, Condition.OFFBEAT_ONE_THIRD,
                       Condition.OFFBEAT_TWO_THIRD):
        row[: n - 1] = True
    else:
        step = {
            Condition.SUBHARMONIC_HALF: 2,
            Condition.SUBHARMONIC_THIRD: 3,
            Condition.SUBHARMONIC_QUARTER: 4,
        }[condition]
        last = step * ((n - 1) // step)
        row[0 : last + 1 : step] = True
    return row


def test_c2_pure_level_suites():
    """Each scripted single-level estimate lights exactly its own row."""
    rng = np.random.default_rng(22)
    for condition in Condition:
        bpm = float(rng.uniform(60, 180))
        duration = float(rng.uniform(10.0, 16.0))
        ref = gen_reference(bpm, duration)
        n = len(ref)
        est = gen_estimate(ref, Scenario(bpm, duration, (Segment(0, condition),)))
        cm = coverage_matrix(ref, est)

        # index-by-index agreement with the quadratic oracle, all rows
        brute = oracles.oracle_coverage(ref.times.tolist(), est.times.tolist())
        for name, brute_row in brute.items():
            assert np.array_equal(cm.covered[Condition.parse(name)], brute_row), (
                f"{condition.value}: row {name} disagrees with oracle"
            )

        # the estimate's own row covers every coverable beat
        assert np.array_equal(cm.covered[condition], expected_pure_row(condition, n)), (
            f"{condition.value}: unexpected own-row coverage"
        )
        # tapping any other level never registers as onbeat
        expected_onbeat = 1.0 if condition is Condition.ONBEAT else 0.0
        scores = acr_scores(cm)
        assert scores.per_condition[Condition.ONBEAT] == expected_onbeat
        # a single level held for the whole track never switches
        assert mlsr(cm) == 0.0


def test_c3_level_switch_scenario():
    """Mid-track double-to-quadruple switch: coverage high, baselines low."""
    ref = gen_reference(120, 16.0)  # 32 beats, switch at beat 16
    scenario = Scenario(
        120, 16.0,
        (Segment(0, Condition.HARMONIC_DOUBLE), Segment(16, Condition.HARMONIC_QUADRUPLE)),
    )
    clean = gen_estimate(ref, scenario)

    # Primary variant: the tracker stumbles at the boundary and misses
    # the first tap of the new level (index 31 = reference beat 16).
    hiccup = BeatSequence(np.delete(clean.times, 31))
    report = evaluate_track("switch", ref, hiccup)
    assert report.acr_any >= 0.95
    assert report.cmlt <= 0.05
    assert report.amlt <= 0.6
    cm = coverage_matrix(ref, hiccup)
    n_covered = int(np.count_nonzero(cm.any_row))
    assert n_covered == 31
    assert abs(report.mlsr - 1.0 / n_covered) < 1e-6

    # A perfectly clean switch may bridge the boundary (the final
    # double-level window still matches across it), shifting the switch
    # count by at most one boundary beat.
    clean_report = evaluate_track("clean-switch", ref, clean)
    assert clean_report.acr_any >= 0.95
    assert clean_report.cmlt <= 0.05
    assert clean_report.amlt <= 0.6
    clean_covered = int(np.count_nonzero(coverage_matrix(ref, clean).any_row))
    assert abs(clean_report.mlsr - 1.0 / clean_covered) <= 1.0 / clean_covered + 1e-9


def test_c4_window_length_monotonicity():
    """On constant-tempo references longer windows are harder to match: ACR-any falls as L grows.

    Where the tempo varies, a longer window's tolerance can grow enough
    for ACR-any to rise (see
    ``TestAcrScores::test_acr_any_can_rise_with_window_length``).
    """
    rng = np.random.default_rng(44)
    conditions = list(Condition)
    for _ in range(100):
        bpm = float(rng.uniform(60, 180))
        duration = float(rng.uniform(8.0, 12.0))
        ref = gen_reference(bpm, duration)
        segments = [Segment(0, conditions[int(rng.integers(len(conditions)))],
                            jitter_std=float(rng.choice([0.0, 0.004, 0.01])))]
        if rng.random() < 0.5 and len(ref) > 12:
            mid = int(rng.integers(6, len(ref) - 4))
            segments.append(Segment(mid, conditions[int(rng.integers(len(conditions)))]))
        est = gen_estimate(ref, Scenario(bpm, duration, tuple(segments)), seed=int(rng.integers(1 << 31)))
        scores = []
        for length in (2, 3, 4):
            cm = coverage_matrix(ref, est, ToleranceParams(context=length))
            scores.append(acr_scores(cm).acr_any)
        assert scores[2] <= scores[1] + 1e-12
        assert scores[1] <= scores[0] + 1e-12


def test_c5_coverage_matches_brute_force():
    """The vectorized coverage matrix is bit-for-bit the brute-force one."""
    rng = np.random.default_rng(55)
    for case in range(200):
        n_ref = int(rng.integers(2, 31))
        n_est = int(rng.integers(0, 61))
        ref = BeatSequence(random_times(rng, n_ref, span=15.0))
        est = BeatSequence(random_times(rng, n_est, span=15.0))
        cm = coverage_matrix(ref, est)
        brute = oracles.oracle_coverage(ref.times.tolist(), est.times.tolist())
        for name, brute_row in brute.items():
            got = cm.covered[Condition.parse(name)]
            assert np.array_equal(got, brute_row), (
                f"case {case}: condition {name} differs\nref={ref.times!r}\nest={est.times!r}"
            )


def test_c6_window_shapes_and_epsilon():
    """Window sizes and the adaptive tolerance obey their closed forms."""
    beats = constant_beats(100, 40)
    for length in (2, 3, 4, 5, 6):
        params = ToleranceParams(context=length)
        for condition, factor in CONDITION_FACTORS.items():
            win = variant_window(beats, 3, condition, params)
            assert len(win) == length + (factor - 1) * (length - 1)
            assert len(win.cover_set) == length
        for condition, step in CONDITION_STEPS.items():
            win = variant_window(beats, 3, condition, params)
            assert len(win) == length
            assert max(win.cover_set) - min(win.cover_set) == step * (length - 1)
        for condition in CONDITION_FRACTIONS:
            win = variant_window(beats, 3, condition, params)
            assert len(win) == length
            assert len(win.cover_set) == length

    # hand-checked tolerance values of one three-beat onbeat window
    for times, expected in (
        ([0.0, 0.25, 0.50], 0.04375),
        ([0.0, 0.50, 1.00], 0.070),
        ([0.0, 0.40, 0.80], 0.070),
    ):
        assert abs(window_table(times, Condition.ONBEAT, ToleranceParams(context=3))[1][0] - expected) <= 1e-12

    # and the closed form on random windows, to 1e-12
    rng = np.random.default_rng(66)
    for _ in range(50):
        ref = BeatSequence(random_times(rng, int(rng.integers(8, 20)), span=10.0))
        condition = list(Condition)[int(rng.integers(10))]
        instance = int(rng.integers(0, 4))
        win = variant_window(ref, instance, condition, ToleranceParams(context=int(rng.integers(2, 5))))
        if win is None:
            continue
        closed = min(0.070, 0.175 * float(np.mean(np.diff(win.times))))
        assert abs(win.epsilon - closed) <= 1e-12


def test_c7_tracker_recovery():
    """DP finds every clean beat within a frame; SPPK equals its oracle."""
    ref = gen_reference(120, 10.0)
    act = gen_activation(ref, fps=100.0)
    found = dp_track(act, global_tempo=120.0)
    for t in ref.times:
        assert np.min(np.abs(found.times - t)) <= 0.01 + 1e-9, f"beat at {t} not recovered"

    rng = np.random.default_rng(77)
    for _ in range(100):
        n = int(rng.integers(30, 300))
        values = rng.random(n)
        threshold = float(rng.uniform(0.2, 0.6))
        min_gap = float(rng.uniform(0.02, 0.25))
        act = ActivationFunction(fps=100.0, values=values)
        got = sppk(act, threshold=threshold, min_gap=min_gap).times.tolist()
        expected = oracles.oracle_suppression(values.tolist(), 100.0, threshold, min_gap)
        assert got == [f / 100.0 for f in expected]


def test_c8_tempo_stability():
    """Stable-tempo share: constant curve 100%, alternating intervals 0%."""
    assert stable_tempi_percentage(gen_reference(120, 20.0)) == 1.0
    wobble = BeatSequence(np.cumsum([0.0] + [0.5, 0.6] * 12))
    assert stable_tempi_percentage(wobble) == 0.0


SWITCH_SCENARIO = (
    "duration = 14.0\n"
    "tempo = 0:110, 7:150\n"
    "segment = 0 onbeat 0.003\n"
    "segment = 10 harmonic_double 0.003\n"
)


def run_pipeline(base):
    """synth -> eval -> viz through the CLI; returns the artifact bytes."""
    base.mkdir(parents=True, exist_ok=True)
    scenario = base / "case.scenario"
    scenario.write_text(SWITCH_SCENARIO)
    ref_dir = base / "refs"
    est_dir = base / "ests"
    ref_dir.mkdir()
    est_dir.mkdir()
    assert cli_main([
        "synth", "--scenario", str(scenario), "--seed", "9",
        "--out-ref", str(ref_dir / "a.beats"), "--out-est", str(est_dir / "a.beats"),
    ]) == 0
    report = base / "report.json"
    assert cli_main([
        "eval", "--ref", str(ref_dir), "--est", str(est_dir), "--out", str(report),
    ]) == 0
    svg = base / "cover.svg"
    assert cli_main([
        "viz", "--ref", str(ref_dir / "a.beats"), "--est", str(est_dir / "a.beats"),
        "--out", str(svg),
    ]) == 0
    workers_report = base / "report4.json"
    assert cli_main([
        "eval", "--ref", str(ref_dir), "--est", str(est_dir),
        "--out", str(workers_report), "--workers", "4",
    ]) == 0
    return report.read_bytes(), svg.read_bytes(), workers_report.read_bytes()


def test_c9_cli_determinism(tmp_path):
    """The whole CLI pipeline is reproducible byte for byte."""
    first = run_pipeline(tmp_path / "run1")
    second = run_pipeline(tmp_path / "run2")
    assert first[0] == second[0], "eval reports differ between runs"
    assert first[1] == second[1], "coverage SVGs differ between runs"
    assert first[0] == first[2], "worker count changed the report"
    report = json.loads(first[0])
    assert report["schema_version"] == 1
    assert report["tracks"][0]["track_id"] == "a"
