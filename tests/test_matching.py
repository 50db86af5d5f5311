import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from beatcover import (
    BeatSequence,
    Condition,
    Scenario,
    Segment,
    ToleranceParams,
    coverage_matrix,
    gen_estimate,
    gen_reference,
    l_correct_detection,
    variant_window,
    window_match,
)
from beatcover.matching import _bands, _beat_tracks, _join, _pass
from beatcover.variants import condition_taps, window_table
from conftest import constant_beats, nudge, random_times


def onbeat_window(times, length=3):
    return variant_window(BeatSequence(times), 0, Condition.ONBEAT, ToleranceParams(context=length))


def times_strategy(max_size=30, span=15.0):
    return st.lists(
        st.floats(min_value=0.0, max_value=span, allow_nan=False),
        min_size=0,
        max_size=max_size,
        unique=True,
    ).map(sorted)


class TestWindowMatch:
    def test_finds_smallest_offset(self):
        win = onbeat_window([1.0, 1.5, 2.0])
        est = BeatSequence([0.2, 0.98, 1.52, 1.99])
        assert win.epsilon == pytest.approx(0.070)
        assert window_match(win, est) == 1

    def test_one_tap_out_of_tolerance_fails(self):
        win = onbeat_window([1.0, 1.5, 2.0])
        est = BeatSequence([0.98, 1.62, 1.99])
        assert window_match(win, est) is None

    def test_distance_exactly_epsilon_matches(self):
        # closed comparison: landing on the tolerance boundary still
        # counts; an exactly representable epsilon keeps this test exact
        win = onbeat_window([0.0, 0.25, 0.5])
        win = replace(win, epsilon=0.0625)
        est = BeatSequence([0.0625, 0.3125, 0.5625])
        assert window_match(win, est) == 0
        beyond = BeatSequence([0.0625, 0.3125, 0.5626])
        assert window_match(win, beyond) is None

    def test_gap_in_estimate_breaks_the_run(self):
        # taps must be consecutive estimated beats; an extra beat in
        # between shifts the run and breaks the alignment
        win = onbeat_window([0.0, 0.5, 1.0])
        est = BeatSequence([0.0, 0.25, 0.5, 1.0])
        assert window_match(win, est) is None

    def test_empty_estimate(self):
        win = onbeat_window([0.0, 0.5, 1.0], 2)
        assert window_match(win, BeatSequence([])) is None

    @given(times_strategy(), st.integers(min_value=0, max_value=5))
    def test_matches_oracle(self, est_raw, instance):
        ref = constant_beats(131, 9)
        est = BeatSequence(np.asarray(est_raw))
        for condition in Condition:
            win = variant_window(ref, instance, condition)
            if win is None:
                continue
            got = window_match(win, est)
            expected = oracles.oracle_match(win.times.tolist(), win.epsilon, est_raw)
            assert got == expected


class TestCoverageMatrix:
    def test_identity_covers_everything_onbeat(self):
        ref = constant_beats(120, 16)
        cm = coverage_matrix(ref, ref)
        assert cm.covered[Condition.ONBEAT].all()
        assert cm.any_row.all()

    def test_double_tempo_estimate(self):
        ref = constant_beats(120, 12)
        est = constant_beats(240, 23)
        cm = coverage_matrix(ref, est)
        assert cm.covered[Condition.HARMONIC_DOUBLE].all()
        assert not cm.covered[Condition.ONBEAT].any()
        assert cm.any_row.all()
        assert not cm.offbeat_row.any()

    def test_half_tempo_estimate(self):
        ref = constant_beats(120, 12)
        est = BeatSequence(ref.times[0::2])
        cm = coverage_matrix(ref, est)
        half = cm.covered[Condition.SUBHARMONIC_HALF]
        # every second beat is covered, the skipped ones are not
        assert half[0::2].all()
        assert not half[1::2].any()
        assert not cm.covered[Condition.ONBEAT].any()

    def test_empty_estimate_covers_nothing(self):
        cm = coverage_matrix(constant_beats(120, 8), BeatSequence([]))
        assert not cm.any_row.any()

    def test_window_longer_than_reference_builds_nothing(self):
        # a window of 10**15 beats: marking its cover set would need petabytes
        ref = constant_beats(120, 20)
        for length in (10**15, 3 * 10**18, 10**20):
            assert not coverage_matrix(ref, ref, ToleranceParams(context=length)).rows.any()

    def test_matches_oracle_on_random_input(self, rng):
        # context 4 and 5 give harmonic-quadruple windows of 13 and 17
        # taps, whose 12 and 16 gaps numpy's mean would sum pairwise
        for context, cap, gamma in itertools.product((2, 3, 4, 5), (0.070, 0.5), (0.175, 0.6)):
            params = ToleranceParams(cap=cap, gamma=gamma, context=context)
            for _ in range(20):
                ref = BeatSequence(random_times(rng, int(rng.integers(4, 16))))
                est = BeatSequence(random_times(rng, int(rng.integers(0, 25))))
                cm = coverage_matrix(ref, est, params)
                expected = oracles.oracle_coverage(
                    ref.times.tolist(), est.times.tolist(), context, cap, gamma
                )
                for name, row in expected.items():
                    assert np.array_equal(cm.covered[Condition.parse(name)], row)

    def test_a_row_of_eight_gaps_keeps_the_oracles_tolerance(self):
        # a harmonic-quadruple row at L = 3 has 9 taps and 8 gaps; summed
        # pairwise, as numpy's mean sums them, its tolerance is one ulp
        # above the oracle's, and this estimate's first tap lies just there
        ref = [0.0, 0.0038105186799141746, 0.02038342634318044, 0.034365877557242325]
        times, _, eps = oracles.oracle_window(ref, 0, 3, "har", 4)
        est = [0.00044588745125707214, *times[1:]]
        assert est[0] == np.nextafter(times[0] + eps, np.inf)
        cm = coverage_matrix(BeatSequence(ref), BeatSequence(est), ToleranceParams(context=3))
        expected = oracles.oracle_coverage(ref, est, 3)
        assert expected["harmonic_quadruple"] == [False] * 4
        for name, row in expected.items():
            assert cm.covered[Condition.parse(name)].tolist() == row, name

    def test_long_tables_match_single_windows(self):
        """Every row, on a 330 s reference that steps through every condition.

        Each of its tables is matched in one call of hundreds of rows, and
        every coverage row is the union of the cover sets of the single
        windows that match.
        """
        duration = 330.0
        ref = gen_reference([(0.0, 100.0), (duration, 160.0)], duration)
        segments = tuple(Segment(start, c, 0.004) for start, c in zip(range(0, len(ref), 70), Condition))
        est = gen_estimate(ref, Scenario([(0.0, 100.0), (duration, 160.0)], duration, segments), seed=3)
        for context in (2, 3, 4, 5):
            params = ToleranceParams(context=context)
            cm = coverage_matrix(ref, est, params)
            for condition in Condition:
                expected = np.zeros(len(ref), dtype=bool)
                for anchor in range(len(ref)):
                    window = variant_window(ref, anchor, condition, params)
                    if window is not None and window_match(window, est) is not None:
                        expected[list(window.cover_set)] = True
                assert np.array_equal(cm.covered[condition], expected), (context, condition)
            assert cm.rows.any(axis=1).all() and not cm.any_row.all()


# Times on a 1/64 s grid are exact, and so is a 1/16 s cap: an estimate
# 4/64 s from its tap lands on the tolerance boundary, 5/64 s misses it.
GRID = 64
GRID_CAP = 4 / GRID


def grid_track(intervals, offsets, start=0, condition=Condition.ONBEAT):
    """A reference from ``start`` and ``intervals`` (grid steps), and an
    estimate on the grid that taps like ``condition``, its ``k``-th tap
    moved by ``offsets[k % len(offsets)]`` steps or skipped where that
    offset is None; both in seconds."""
    ref = (start + np.cumsum([0, *intervals])) / GRID
    taps = np.round(condition_taps(ref, condition) * GRID).tolist()
    moved = (t + o for t, o in zip(taps, itertools.cycle(offsets)) if o is not None)
    est = sorted({t for t in moved if t >= 0})
    return BeatSequence(ref), BeatSequence(np.array(est, dtype=float) / GRID)


def assert_pass_matches_oracles(pairs, params):
    """Every track of one pass of ``pairs`` against the quadratic oracles."""
    length, cap, gamma = params.context, params.cap, params.gamma
    results = _pass(_join(pairs), params)
    assert len(results) == len(pairs)
    for k, ((ref, est), (cm, ref_flags, est_flags)) in enumerate(zip(pairs, results)):
        r, e = ref.times.tolist(), est.times.tolist()
        expected = oracles.oracle_coverage(r, e, length, cap, gamma)
        for condition in Condition:
            assert cm.covered[condition].tolist() == expected[condition.value], (k, condition, r, e)
        assert (ref_flags.tolist(), est_flags.tolist()) == oracles.oracle_l_correct(r, e, length, cap), (k, r, e)


@st.composite
def edge_pairs(draw):
    """1 to 3 tracks whose estimates reach the tolerance edges, and their params.

    Each reference starts within 50 ms of 0 s, and its estimate taps like
    one condition.  A tap that starts rows of some tables may move to
    that tap -/+ a tolerance, -/+ one ulp or not: the tolerance of the
    estimate's own row there, the cap that L-correct matches with, or
    that of any other row there, so that each group's shared band
    reaches the edge of each of its tables.
    """
    params = ToleranceParams(cap=draw(st.sampled_from([0.02, 0.07, 0.5])), context=draw(st.integers(2, 10)))
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        gaps = draw(st.lists(st.floats(0.05, 1.0), max_size=params.context + 5))
        ref = np.cumsum([draw(st.floats(0.0, 0.05)), *gaps])
        tapped = draw(st.sampled_from(list(Condition)))
        # the tolerances of the rows that start on each tap, the tapped
        # condition's first
        edges = {}
        for condition in sorted(Condition, key=lambda c: c != tapped):
            windows, eps, _ = window_table(ref, condition, params)
            for first, tol in zip(windows[:, 0].tolist(), eps.tolist()):
                edges.setdefault(first, []).append(tol)
        est = set()
        for tap in condition_taps(ref, tapped).tolist():
            if tap in edges and draw(st.booleans()):
                tols = [*edges[tap], params.cap]
                tol = tols[0] if draw(st.booleans()) else draw(st.sampled_from(tols))
                tap = nudge(tap + draw(st.sampled_from([-1.0, 1.0])) * tol, draw(st.integers(-1, 1)))
            if tap >= 0.0:
                est.add(tap)
        pairs.append((BeatSequence(ref), BeatSequence(sorted(est))))
    return pairs, params


class TestPass:
    """Coverage and L-correct of several tracks matched in one pass."""

    def seeded_pairs(self, rng, length):
        pairs = []
        for _ in range(int(rng.integers(2, 7))):
            kind = int(rng.integers(0, 6))
            # one-beat references, references shorter than L, and longer ones
            n = {0: 1, 1: int(rng.integers(2, length + 1))}.get(kind, int(rng.integers(length, 26)))
            # a track may start after the one before it has ended
            start = int(rng.integers(0, 32)) if rng.random() < 0.5 else int(rng.integers(30, 35)) * GRID
            # most taps on time, some on or just past the tolerance boundary
            moves = [-5, -4, -1, 1, 4, 5, None]
            offsets = [moves[k] if u < 0.3 else 0 for k, u in zip(rng.integers(0, 7, 4 * n), rng.random(4 * n))]
            if kind == 2:  # the tracker found nothing
                offsets = [None]
            condition = list(Condition)[int(rng.integers(0, len(Condition)))]
            ref, est = grid_track(rng.integers(16, 48, n - 1), offsets, start, condition)
            if kind == 3 and len(est):  # the tracker found one beat
                est = BeatSequence(est.times[int(rng.integers(0, len(est))) :][:1])
            pairs.append((ref, est))
        if rng.random() < 0.3:
            pairs.insert(int(rng.integers(0, len(pairs))), (BeatSequence([]), pairs[0][1]))
        return pairs

    def test_every_track_agrees_with_the_oracles(self, rng):
        # tracks shorter than L, one-beat and empty references, empty and
        # one-beat estimates, and estimates on the tolerance boundary
        for length in range(2, 9):
            for cap in (GRID_CAP, 0.070):
                params = ToleranceParams(cap=cap, context=length)
                for _ in range(6):
                    assert_pass_matches_oracles(self.seeded_pairs(rng, length), params)

    def test_rows_of_the_concatenation_are_the_tracks_own_rows(self, rng):
        # every row that a pass searches holds the taps and the tolerance
        # of the same row of its track's own table, bit for bit; at L = 8
        # a harmonic-quadruple row has 29 taps, whose 28 gaps are summed
        # in order
        for length in range(2, 9):
            params = ToleranceParams(context=length)
            refs = [random_times(rng, int(rng.integers(0, 30))) for _ in range(5)]
            starts = np.cumsum([0, *map(len, refs)])
            # track k searches the estimate slice [100 k, 100 k + 100)
            joined, _, bounds, _ = _join([(BeatSequence(ref), constant_beats(120, 100)) for ref in refs])
            s, t, left = _beat_tracks(bounds)
            for condition in Condition:
                windows, eps, _ = window_table(joined, condition, params)
                own = [(a, window_table(r, condition, params)) for a, r in zip(starts.tolist(), refs)]
                tracks = [k for k, (_, table) in enumerate(own) if len(table[0])]
                own = [(a, table) for a, table in own if len(table[0])]
                # row g reads beats g to g + reach, so it is in its track
                # when more than reach of the track's beats are left; it
                # searches that track's slice, to the track's end
                n_rows = len(windows)
                q = np.where(left[:n_rows] > len(left) - n_rows, s[:n_rows] // 100, -1)
                assert (t[:n_rows] == s[:n_rows] + 100).all()
                runs = [(rows[0], rows[-1] + 1) for rows in (np.flatnonzero(q == k).tolist() for k in tracks)]
                assert [run[:2] for run in runs] == [(a, a + len(table[0])) for a, table in own]
                # each track's rows are one run, and every other row is in no track
                expected = np.full(len(windows), -1)
                for k, (a, table) in zip(tracks, own):
                    expected[a : a + len(table[0])] = k
                assert q.tolist() == expected.tolist(), (length, condition)
                for a, (own_windows, own_eps, _) in own:
                    assert np.array_equal(windows[a : a + len(own_windows)], own_windows), (length, condition)
                    assert eps[a : a + len(own_eps)].tobytes() == own_eps.tobytes(), (length, condition)

    def test_a_match_stays_inside_its_track(self):
        # the first estimate stops a beat early, and the next one goes on
        # from there: its beats must not complete the first track's windows
        ref = BeatSequence([0.5, 1.0, 1.5])
        pairs = [(ref, BeatSequence([0.5, 1.0])), (ref, BeatSequence([1.5, 2.0]))]
        (cm, ref_flags, est_flags), _ = _pass(_join(pairs), ToleranceParams())
        assert cm.covered[Condition.ONBEAT].tolist() == [True, True, False]
        assert ref_flags.tolist() == [True, True, False] and est_flags.tolist() == [True, True]
        assert_pass_matches_oracles(pairs, ToleranceParams())

    def test_window_longer_than_every_track_builds_nothing(self):
        pairs = [(constant_beats(120, 20), constant_beats(120, 20))] * 3
        for length in (21, 10**15, 3 * 10**18):
            params = ToleranceParams(context=length)
            results = _pass(_join(pairs), params)
            assert not any(cm.rows.any() for cm, _, _ in results)
            assert not any(f.any() for _, *flags in results for f in flags)

    @given(
        st.lists(
            st.tuples(
                st.lists(st.integers(16, 48), max_size=12),
                st.lists(st.one_of(st.none(), st.integers(-5, 5)), min_size=1, max_size=8),
                st.integers(0, 32),
                st.sampled_from(list(Condition)),
            ),
            min_size=1,
            max_size=5,
        ),
        st.integers(2, 8),
        st.sampled_from([GRID_CAP, 0.070]),
    )
    def test_pass_matches_oracles(self, tracks, length, cap):
        pairs = [grid_track(*track) for track in tracks]
        assert_pass_matches_oracles(pairs, ToleranceParams(cap=cap, context=length))

    @given(edge_pairs())
    def test_pass_matches_oracles_on_tolerance_edges(self, case):
        assert_pass_matches_oracles(*case)


def brute_first_in_band(lo, hi, table):
    """Smallest k in [lo[r], hi[r]) with table[r, k], or -1, one row at a time."""
    return [next((k for k in range(lo[r], hi[r]) if table[r, k]), -1) for r in range(len(lo))]


def search_bands(tracks, x, tol, q, stop):
    """Run the band search of bands ``x -/+ tol`` in tracks ``q`` of the joined ``tracks``.

    Band ``n`` searches its track's beats up to, not including, local
    index ``stop[n]``.  Returns ``(e, s, got, seen)``: the joined
    estimate, each band's track start in it, the candidates yielded to
    each band in order, and the number of bands in each round; checks
    that a round gives each band at most one candidate.
    """
    _, e, bounds, key = _join([(BeatSequence([]), BeatSequence(track)) for track in tracks])
    s = bounds[q, 2]
    got, seen = [[] for _ in x], []
    for n, j in _bands(key, np.asarray(x), np.asarray(tol), s, s + stop):
        assert len(set(n.tolist())) == len(n)
        seen.append(len(n))
        for band, k in zip(n.tolist(), j.tolist()):
            got[band].append(k)
    return e, s, got, seen


def assert_bands_match_brute_force(tracks, x, tol, q, stop):
    """Each candidate of each exact band is yielded once, in order, and only from ``[s, s + stop)``."""
    e, s, got, _ = search_bands(tracks, x, tol, q, stop)
    for n in range(len(x)):
        exact = [j for j in range(s[n], s[n] + stop[n]) if abs(e[j] - x[n]) <= tol[n]]
        assert set(exact) <= set(got[n]), (n, exact, got[n])
        assert got[n] == sorted(set(got[n])), (n, got[n])
        assert all(s[n] <= j < s[n] + stop[n] for j in got[n]), (n, got[n])
        # the rest round onto a band edge: within a few ulps of it
        assert all(abs(e[j] - x[n]) <= tol[n] + 1e-9 for j in got[n]), (n, got[n])


class TestBands:
    """The one band search of window matching and continuity."""

    def test_matches_brute_force_scan(self, rng):
        # Every track's beats are at 0, 1, 2, ... s, so a band that
        # reaches from beat lo past the track's last beat, cut at local
        # index hi, holds the candidates [lo, hi), as a scan over indices
        # does; the tracks share their times, so only the keys keep a
        # band in its own track
        for case in range(200):
            n_rows, n_cand = int(rng.integers(0, 40)), int(rng.integers(1, 12))
            n_tracks = int(rng.integers(1, 4))
            q = rng.integers(0, n_tracks, size=n_rows)
            lo = rng.integers(0, n_cand, size=n_rows)
            # widths from -2 (an empty band with hi < lo) up to the whole range
            hi = np.clip(lo + rng.integers(-2, n_cand + 1, size=n_rows), 0, n_cand)
            table = rng.random((n_rows, n_cand)) < rng.choice([0.05, 0.3, 0.8])
            tracks = [np.arange(n_cand)] * n_tracks
            x, tol = lo + 0.5 * n_cand, np.full(n_rows, 0.5 * n_cand + 0.25)
            _, s, got, seen = search_bands(tracks, x, tol, q, hi)
            first = [next((k - s[r] for k in got[r] if table[r, k - s[r]]), -1) for r in range(n_rows)]
            assert first == brute_first_in_band(lo, hi, table), case
            assert [[k - s[r] for k in got[r]] for r in range(n_rows)] == [
                list(range(l, h)) for l, h in zip(lo, hi)
            ], case
            # each band gets each candidate once, and all of them: a row
            # no longer stops at its first pass
            assert sum(seen) == sum(max(h - l, 0) for l, h in zip(lo, hi))

    def test_edge_rows(self):
        lo = np.array([0, 2, 4, 1, 0, 3])
        hi = np.array([0, 1, 8, 5, 4, 6])
        table = np.zeros((6, 8), dtype=bool)
        table[0, 0] = table[1, 1] = True  # out of band: rows 0 and 1 have empty bands
        table[2, 7] = True  # passes only at its last candidate
        table[4, [1, 2, 3]] = True  # several passes: the first counts
        table[5, 2] = True  # row 5 passes only before its band: no pass
        _, _, got, _ = search_bands([np.arange(8)], lo + 4.0, np.full(6, 4.25), np.zeros(6, dtype=int), hi)
        first = [next((k for k in got[r] if table[r, k]), -1) for r in range(6)]
        assert first == [-1, -1, 7, -1, 1, -1]
        assert first == brute_first_in_band(lo, hi, table)

    def test_multi_track_bands_match_brute_force(self, rng):
        # empty and one-beat tracks, stop at or before the track's start,
        # bands that reach below 0 s or past a track's last beat, and
        # band edges within 2 ulps of a beat
        for _ in range(300):
            # tracks may share times: only the keys keep them apart; on
            # tracks under 1 s, a band's lower key edge reaches back over
            # whole tracks
            pool = rng.uniform(0.0, rng.choice([0.5, 10.0]), 12)
            sizes = rng.choice([0, 1, 2, 5, 12], size=int(rng.integers(1, 6)))
            tracks = [np.sort(rng.choice(pool, size, replace=False)) for size in sizes]
            n_rows = int(rng.integers(0, 30))
            q = rng.integers(0, len(tracks), size=n_rows)
            tol = rng.uniform(0.0, 2.0, n_rows)
            x = rng.uniform(0.0, 12.0, n_rows)
            for n in range(n_rows):
                track = tracks[q[n]]
                if len(track) and rng.random() < 0.5:
                    edge = rng.choice(track) + rng.choice([-1.0, 1.0]) * tol[n]
                    x[n] = max(nudge(edge, int(rng.integers(-2, 3))), 0.0)
            stop = np.array([rng.integers(-2, len(tracks[k]) + 1) for k in q], dtype=int)
            assert_bands_match_brute_force(tracks, x, tol, q, stop)

    @given(
        st.lists(times_strategy(max_size=8, span=10.0), min_size=1, max_size=4),
        st.lists(
            st.tuples(
                st.floats(0.0, 12.0),
                st.floats(0.0, 3.0),
                st.integers(0, 3),
                st.integers(-2, 8),
            ),
            max_size=12,
        ),
    )
    def test_bands_match_brute_force(self, tracks, bands):
        bands = np.array(bands, dtype=float).reshape(-1, 4)
        x, tol = bands[:, 0], bands[:, 1]
        q = bands[:, 2].astype(int) % len(tracks)
        stop = np.minimum(bands[:, 3].astype(int), [len(tracks[k]) for k in q])
        assert_bands_match_brute_force(tracks, x, tol, q, stop)


# A first reference beat under 2 * eps: ``w0 - e`` then rounds, and an
# estimate just below the rounded band edge ``w0 - eps`` still passes
# ``|w0 - e| <= eps``.
NEAR_ZERO_REF = [0.07534006385069895, 0.6260426855856602, 1.1767453073206215, 1.7274479290555829]
NEAR_ZERO_EST = [0.005340063850698947, 0.6270426855856602, 1.1767453073206215, 1.7274479290555829]


class TestNearZero:
    def test_band_edge_repro(self):
        ref, est = BeatSequence(NEAR_ZERO_REF), BeatSequence(NEAR_ZERO_EST)
        expected = oracles.oracle_coverage(NEAR_ZERO_REF, NEAR_ZERO_EST)
        assert expected["onbeat"] == [True] * 4
        cm = coverage_matrix(ref, est)
        for name, row in expected.items():
            assert cm.covered[Condition.parse(name)].tolist() == row
        win = variant_window(ref, 0, Condition.ONBEAT)
        assert window_match(win, est) == oracles.oracle_match(win.times.tolist(), win.epsilon, NEAR_ZERO_EST) == 0
        est2 = NEAR_ZERO_EST[:1] + NEAR_ZERO_REF[1:]
        ref_flags, est_flags = l_correct_detection(ref, BeatSequence(est2))
        assert (ref_flags.tolist(), est_flags.tolist()) == oracles.oracle_l_correct(NEAR_ZERO_REF, est2)

    def test_tolerance_edges_match_oracles(self, rng):
        # a first beat under 0.14 s and estimates within 2 ulps of the
        # edge of the 0.07 s tolerance (intervals of 0.45 s and more
        # keep the onbeat and L-correct tolerance at the cap)
        for _ in range(300):
            n = int(rng.integers(3, 6))
            raw = np.concatenate([[rng.uniform(0.0, 0.14)], rng.uniform(0.45, 0.7, n - 1)])
            ref = np.cumsum(raw).tolist()
            est = []
            for r in ref:
                e = nudge(r + rng.choice([-0.07, 0.07]), int(rng.integers(-2, 3)))
                if e >= 0.0 and (not est or e > est[-1]):
                    est.append(e)
            ref_seq, est_seq = BeatSequence(ref), BeatSequence(est)
            cm = coverage_matrix(ref_seq, est_seq)
            for name, row in oracles.oracle_coverage(ref, est).items():
                assert cm.covered[Condition.parse(name)].tolist() == row, (ref, est, name)
            win = variant_window(ref_seq, 0, Condition.ONBEAT)
            assert window_match(win, est_seq) == oracles.oracle_match(win.times.tolist(), win.epsilon, est)
            ref_flags, est_flags = l_correct_detection(ref_seq, est_seq)
            assert (ref_flags.tolist(), est_flags.tolist()) == oracles.oracle_l_correct(ref, est)


class TestLCorrectDetection:
    def test_identity_flags_everything(self):
        ref = constant_beats(120, 10)
        ref_flags, est_flags = l_correct_detection(ref, ref)
        assert ref_flags.all()
        assert est_flags.all()

    def test_half_offbeat_estimate(self):
        ref = constant_beats(120, 10)
        est = BeatSequence(ref.times[:-1] + 0.25)
        ref_flags, est_flags = l_correct_detection(ref, est)
        # offbeat windows need the interval after their last anchor, so
        # the final reference beat has no window that covers it
        assert ref_flags[:-1].all()
        assert not ref_flags[-1]
        assert est_flags.all()

    def test_uses_fixed_cap_not_adaptive_tolerance(self):
        # at 240 bpm the adaptive tolerance would be 0.04375; a uniform
        # 0.06 offset is detected only under the fixed 0.070 cap
        ref = constant_beats(240, 10)
        est = BeatSequence(ref.times + 0.06)
        ref_flags, _ = l_correct_detection(ref, est)
        assert ref_flags.all()

    def test_missing_beat_breaks_windows_around_it(self):
        ref = constant_beats(120, 10)
        est = BeatSequence(np.delete(ref.times, 5))
        ref_flags, est_flags = l_correct_detection(ref, est)
        assert not ref_flags[5]
        assert ref_flags[[0, 1, 2, 3, 8, 9]].all()
        assert est_flags.all()

    def test_window_longer_than_reference_builds_nothing(self):
        ref = constant_beats(120, 20)
        for length in (10**15, 3 * 10**18, 10**20):
            ref_flags, est_flags = l_correct_detection(ref, ref, ToleranceParams(context=length))
            assert not ref_flags.any() and not est_flags.any()

    def test_matches_oracle_on_random_input(self, rng):
        flagged = 0
        for context, cap in itertools.product((2, 3, 4), (0.07, 0.5)):
            params = ToleranceParams(cap=cap, context=context)
            for case in range(20):
                ref = BeatSequence(random_times(rng, int(rng.integers(4, 16))))
                if case % 2:
                    est = BeatSequence(random_times(rng, int(rng.integers(0, 25))))
                else:
                    # jittered onbeat or half-offbeat taps, so windows do match
                    shift = 0.5 * float(np.mean(ref.ibis)) if case % 4 else 0.0
                    jitter = rng.normal(0.0, 0.03, len(ref))
                    est = BeatSequence(np.unique(np.clip(ref.times + shift + jitter, 0.0, None)))
                ref_flags, est_flags = l_correct_detection(ref, est, params)
                expected = oracles.oracle_l_correct(ref.times.tolist(), est.times.tolist(), context, cap)
                assert ref_flags.tolist() == expected[0]
                assert est_flags.tolist() == expected[1]
                flagged += int(ref_flags.any())
        assert flagged > 0
