import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from beatcover import BeatSequence

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
# ten times the examples, for a CI step that runs every @given test,
# selected by hypothesis's own marker, with
# ``--hypothesis-profile=deep -m hypothesis``
settings.register_profile("deep", settings.get_profile("suite"), max_examples=600)
settings.load_profile("suite")


def constant_beats(bpm, count, start=0.0):
    period = 60.0 / bpm
    return BeatSequence(start + period * np.arange(count))


def random_times(rng, count, span=20.0):
    # sorted, unique, spaced enough that validation never collapses them
    if count == 0:
        return np.empty(0)
    raw = np.sort(rng.uniform(0.0, span, size=count))
    keep = np.concatenate([[True], np.diff(raw) > 1e-6])
    return raw[keep]


def nudge(x, ulps):
    """``x`` moved by ``ulps`` representable doubles."""
    for _ in range(abs(ulps)):
        x = np.nextafter(x, np.inf if ulps > 0 else -np.inf)
    return float(x)


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


# ---------------------------------------------------------------------------
# acceptance criteria summary: one line per criterion in the terminal report

ACCEPTANCE = {
    "test_c1_identity_suite": "1 identity estimates score perfectly on all metrics, 50 tracks under 5 s",
    "test_c2_pure_level_suites": "2 each pure-condition estimate lights up exactly its own coverage row",
    "test_c3_level_switch_scenario": "3 double-to-quadruple switch: ACR-any high, CMLt low, MLSR pinpoints the boundary",
    "test_c4_window_length_monotonicity": "4 ACR-any never increases as window length grows (100 constant-tempo scenarios)",
    "test_c5_coverage_matches_brute_force": "5 coverage matrix is bit-for-bit equal to the quadratic oracle (200 instances)",
    "test_c6_window_shapes_and_epsilon": "6 variant window sizes and adaptive tolerance match closed forms",
    "test_c7_tracker_recovery": "7 DP tracker recovers clean beats; peak picker matches suppression oracle",
    "test_c8_tempo_stability": "8 stable-tempo percentage: constant curve 100, alternating curve 0",
    "test_c9_cli_determinism": "9 CLI pipeline outputs are byte-identical across runs and worker counts",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    stats = terminalreporter.stats
    outcomes = {}
    for bucket, verdict in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for rep in stats.get(bucket, []):
            name = rep.nodeid.split("::")[-1].split("[")[0]
            if name in ACCEPTANCE:
                if outcomes.get(name) != "FAIL":
                    outcomes[name] = verdict
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, label in ACCEPTANCE.items():
        if name in outcomes:
            terminalreporter.write_line(f"[{outcomes[name]}] criterion {label}")
