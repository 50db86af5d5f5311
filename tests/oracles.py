"""Independent brute-force reference implementations.

Everything here is deliberately slow, quadratic, and written in plain
Python from the definitions, without reusing the package's vectorized
code paths.  Tests compare the package against these.  The one numpy
oracle is ``oracle_activation``: ``math.exp`` and numpy's ``exp`` can
differ in the last bit, so bit equality needs numpy's.
"""

from __future__ import annotations

import json
import math

import numpy as np

# condition name -> (kind, parameter); mirrors the documented semantics,
# not the package's dispatch tables.
CONDITIONS = {
    "onbeat": ("sub", 1),
    "offbeat_half": ("off", 0.5),
    "offbeat_one_third": ("off", 1.0 / 3.0),
    "offbeat_two_third": ("off", 2.0 / 3.0),
    "subharmonic_half": ("sub", 2),
    "subharmonic_third": ("sub", 3),
    "subharmonic_quarter": ("sub", 4),
    "harmonic_double": ("har", 2),
    "harmonic_triple": ("har", 3),
    "harmonic_quadruple": ("har", 4),
}


def oracle_window(ref, i, length, kind, param, cap=0.070, gamma=0.175):
    """(times, cover, epsilon) for one window, or None when it cannot exist."""
    n = len(ref)
    if kind == "sub":
        step = param
        idx = [i + step * t for t in range(length)]
        if idx[-1] >= n:
            return None
        times = [ref[j] for j in idx]
        cover = idx
    elif kind == "har":
        factor = param
        if i + length - 1 >= n:
            return None
        times = []
        for m in range(i, i + length - 1):
            lo, hi = ref[m], ref[m + 1]
            for k in range(factor):
                times.append(lo + (hi - lo) * k / factor)
        times.append(ref[i + length - 1])
        cover = list(range(i, i + length))
    else:
        frac = param
        if i + length >= n:
            return None
        times = [ref[m] + frac * (ref[m + 1] - ref[m]) for m in range(i, i + length)]
        cover = list(range(i, i + length))
    # the gaps summed in order: since Python 3.12, sum() compensates
    total = 0.0
    for a, b in zip(times, times[1:]):
        total += b - a
    eps = min(cap, gamma * (total / (len(times) - 1)))
    return times, cover, eps


def oracle_match(times, eps, est):
    """Smallest j where every window time is within eps of est[j+t]."""
    span = len(times)
    for j in range(len(est) - span + 1):
        if all(abs(times[t] - est[j + t]) <= eps for t in range(span)):
            return j
    return None


def oracle_coverage(ref, est, length=2, cap=0.070, gamma=0.175):
    """Per-condition Boolean rows, the quadratic way."""
    n = len(ref)
    rows = {}
    for name, (kind, param) in CONDITIONS.items():
        row = [False] * n
        for i in range(n):
            win = oracle_window(ref, i, length, kind, param, cap, gamma)
            if win is None:
                continue
            times, cover, eps = win
            if oracle_match(times, eps, est) is not None:
                for k in cover:
                    row[k] = True
        rows[name] = row
    return rows


def oracle_l_correct(ref, est, length=2, cap=0.070):
    """(reference flags, estimate flags) of the fixed-tolerance detection rule.

    Only onbeat and half-offbeat windows count, every window uses the
    fixed tolerance ``cap``, and a matched window flags its cover set and
    the estimated beats of its first match.
    """
    ref_flags = [False] * len(ref)
    est_flags = [False] * len(est)
    for name in ("onbeat", "offbeat_half"):
        kind, param = CONDITIONS[name]
        for i in range(len(ref)):
            win = oracle_window(ref, i, length, kind, param, cap)
            if win is None:
                continue
            times, cover, _ = win
            j = oracle_match(times, cap, est)
            if j is None:
                continue
            for k in cover:
                ref_flags[k] = True
            for k in range(j, j + len(times)):
                est_flags[k] = True
    return ref_flags, est_flags

def oracle_f1_matched(ref, est, window=0.070):
    """Maximum one-to-one matching size via augmenting paths."""
    match_of_est = [-1] * len(est)

    def try_assign(i, seen):
        for j in range(len(est)):
            if abs(ref[i] - est[j]) <= window and not seen[j]:
                seen[j] = True
                if match_of_est[j] < 0 or try_assign(match_of_est[j], seen):
                    match_of_est[j] = i
                    return True
        return False

    size = 0
    for i in range(len(ref)):
        if try_assign(i, [False] * len(est)):
            size += 1
    return size


def oracle_continuity(ref, est, gamma=0.175):
    """Continuity flags per the documented definition, plain loops."""
    n, m = len(ref), len(est)
    local = [ref[1] - ref[0]] + [ref[i] - ref[i - 1] for i in range(1, n)]
    out = []
    for j in range(m):
        ok = False
        for i in range(n):
            if abs(ref[i] - est[j]) > gamma * local[i]:
                continue
            if j == 0:
                ok = True
                break
            if i == 0:
                continue
            if abs(ref[i - 1] - est[j - 1]) > gamma * local[i - 1]:
                continue
            ibi_r = ref[i] - ref[i - 1]
            if abs(ibi_r - (est[j] - est[j - 1])) <= gamma * ibi_r:
                ok = True
                break
        out.append(ok)
    return out


def oracle_amlt(ref, est, gamma=0.175):
    """Best continuity score over the whole-track variants AMLt allows.

    The variants are the reference itself, its half-offbeat taps, every
    second beat (both phases), every third beat (all three phases), and
    double and triple tempo (each interval split evenly, then the last
    beat).  A variant with fewer than two beats, or whose times are not
    strictly increasing, is skipped.
    """
    n = len(ref)
    variants = [list(ref), [ref[i] + 0.5 * (ref[i + 1] - ref[i]) for i in range(n - 1)]]
    for step in (2, 3):
        for phase in range(step):
            variants.append(list(ref[phase::step]))
    for factor in (2, 3):
        taps = []
        for i in range(n - 1):
            for k in range(factor):
                taps.append(ref[i] + (ref[i + 1] - ref[i]) * k / factor)
        variants.append(taps + list(ref[-1:]))
    best = 0.0
    for variant in variants:
        if len(variant) < 2 or any(b <= a for a, b in zip(variant, variant[1:])):
            continue
        correct = oracle_continuity(variant, est, gamma)
        best = max(best, sum(correct) / max(len(variant), len(est)))
    return best


def oracle_mlsr(rows):
    """Level-switch ratio from per-condition Boolean rows, plain loops.

    Walk the beats covered under any condition; a covered beat that
    shares no condition with the previous covered beat is a switch.
    """
    n = len(next(iter(rows.values())))
    covered = [k for k in range(n) if any(row[k] for row in rows.values())]
    if not covered:
        return 0.0
    switches = 0
    for prev, cur in zip(covered, covered[1:]):
        if not any(row[prev] and row[cur] for row in rows.values()):
            switches += 1
    return switches / len(covered)


def oracle_track_report(ref, est, length=2, cap=0.070, gamma=0.175):
    """Every per-track score of a report, from the oracles above, rounded to six decimals.

    Returns the report's scalar fields in report order, then ``acr``, a
    dict of the per-condition coverage ratios.  ``ref`` needs at least
    ``length`` beats.
    """
    n, m = len(ref), len(est)

    def prf(ref_hits, est_hits):
        p = est_hits / m if m else 0.0
        r = ref_hits / n
        return p, r, 2.0 * p * r / (p + r) if p + r else 0.0

    matched = oracle_f1_matched(ref, est, cap)
    precision, recall, f1 = prf(matched, matched)
    ref_flags, est_flags = oracle_l_correct(ref, est, length, cap)
    lp, lr, lf = prf(sum(ref_flags), sum(est_flags))
    rows = oracle_coverage(ref, est, length, cap, gamma)
    offbeat = [name for name, (kind, _) in CONDITIONS.items() if kind == "off"]
    scores = {
        "f1": f1,
        "precision": precision,
        "recall": recall,
        "cmlt": sum(oracle_continuity(ref, est, gamma)) / max(n, m),
        "amlt": oracle_amlt(ref, est, gamma),
        "l_correct_f": lf,
        "l_correct_p": lp,
        "l_correct_r": lr,
        "acr_any": sum(any(row[k] for row in rows.values()) for k in range(n)) / n,
        "acr_offbeat": sum(any(rows[name][k] for name in offbeat) for k in range(n)) / n,
        "mlsr": oracle_mlsr(rows),
    }
    report = {key: round(value, 6) for key, value in scores.items()}
    report["acr"] = {name: round(sum(row) / n, 6) for name, row in rows.items()}
    return report


def oracle_report_text(tracks, length=2, cap=0.070, gamma=0.175):
    """The JSON text of a ``beatcover eval`` report, from :func:`oracle_track_report`.

    ``tracks`` holds ``(stem, ref, est)`` in stem order, every stem with
    both files.  The means and the track tempi are numpy's means: they
    sum pairwise, and bit equality needs the same order of additions.
    """
    reports = [dict(track_id=stem, **oracle_track_report(ref, est, length, cap, gamma)) for stem, ref, est in tracks]
    scalars = [key for key in reports[0] if key not in ("track_id", "acr")]
    means = {key: round(float(np.mean([t[key] for t in reports])), 6) for key in scalars}
    for name in CONDITIONS:
        means[f"acr_{name}"] = round(float(np.mean([t["acr"][name] for t in reports])), 6)
    total, stable, intervals, tempi = 0.0, 0, 0, []
    for _, ref, _ in tracks:
        total += ref[-1] - ref[0]
        ibis = [b - a for a, b in zip(ref, ref[1:])]
        tempo = 60.0 / float(np.mean(ibis))
        tempi.append(tempo)
        stable += sum(0.96 <= (60.0 / ibi) / tempo <= 1.04 for ibi in ibis)
        intervals += len(ibis)
    text = {
        "schema_version": 1,
        "params": {"cap": cap, "gamma": gamma, "context": length},
        "dataset_stats": {
            "n_tracks": len(tracks),
            "total_duration": round(total, 6),
            "percent_stable_tempi": round(100.0 * stable / intervals, 6),
            "mean_track_tempo": round(float(np.mean(tempi)), 6),
        },
        "means": means,
        "tracks": [
            {"track_id": t["track_id"], **{key: t[key] for key in scalars}, "acr": t["acr"]} for t in reports
        ],
        "warnings": [],
    }
    return json.dumps(text, indent=2) + "\n"


def oracle_peaks(values, threshold):
    """Interior local maxima (first frame of a plateau) above threshold."""
    out = []
    for k in range(1, len(values) - 1):
        if values[k] > values[k - 1] and values[k] >= values[k + 1] and values[k] >= threshold:
            out.append(k)
    return out


def oracle_suppression(values, fps, threshold, min_gap):
    """Greedy gap suppression: larger value first, earlier frame on ties."""
    accepted = []
    for frame in sorted(oracle_peaks(values, threshold), key=lambda k: (-values[k], k)):
        if all(abs(frame - a) / fps >= min_gap for a in accepted):
            accepted.append(frame)
    return sorted(accepted)


def oracle_dp_path(values, fps, tempo, tightness=100.0):
    """The dynamic-programming recurrence in plain Python."""
    tau = fps * 60.0 / tempo
    n_frames = len(values)
    score = [float(v) for v in values]
    backlink = [-1] * n_frames
    for n in range(n_frames):
        lo = max(math.ceil(n - 2.0 * tau), 0)
        hi = min(math.floor(n - tau / 2.0), n - 1)
        best_val, best_p = None, -1
        for p in range(lo, hi + 1):
            val = score[p] - tightness * (math.log(n - p) - math.log(tau)) ** 2
            if best_val is None or val > best_val:
                best_val, best_p = val, p
        if best_p >= 0 and best_val > 0.0:
            score[n] = values[n] + best_val
            backlink[n] = best_p
    end = max(range(n_frames), key=lambda k: (score[k], -k))
    path = [end]
    while backlink[path[-1]] >= 0:
        path.append(backlink[path[-1]])
    return path[::-1]


def oracle_activation(beat_times, fps, peak_width=0.05, noise_std=0.0, seed=0):
    """Activation values, one Gaussian over every frame per beat, in beat order."""
    last = beat_times[-1] if len(beat_times) else 0.0
    n_frames = int(round((last + 1.0) * fps)) + 1
    t = np.arange(n_frames) / fps
    values = np.zeros(n_frames)
    for b in beat_times:
        values += np.exp(-0.5 * ((t - b) / peak_width) ** 2)
    values = np.clip(values, 0.0, 1.0)
    if noise_std > 0:
        noise = np.random.default_rng(seed).normal(0.0, noise_std, n_frames)
        values = np.clip(values + noise, 0.0, 1.0)
    return values


def oracle_polyline_points(values, fps, t_max):
    """The activation polyline's ``points``, one f-string per frame.

    Frame ``k`` is at ``k / fps`` seconds.  The plot spans x 170 to 890
    over ``[0, t_max]``; the beats panel's bottom is at y 126 and a value
    of 1 rises 102 above it.
    """
    return " ".join(
        f"{170.0 + k / fps / t_max * 720.0:.2f},{126.0 - v * 102.0:.2f}"
        for k, v in enumerate(values)
    )


def oracle_format_points(values):
    """``"%.2f"`` of each value, joined alternately by ``,`` and `` ``."""
    return "".join(f"{v:.2f}{', '[k % 2]}" for k, v in enumerate(values))[:-1]


# Python's line boundaries, the characters at which ``str.splitlines``
# ends a line; ``\r\n`` is one boundary.
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def oracle_lines(text):
    """The lines of ``text``, split at each line boundary in turn."""
    lines, line, k = [], "", 0
    while k < len(text):
        c = text[k]
        if c in LINE_BREAKS:
            lines.append(line)
            line = ""
            if text[k : k + 2] == "\r\n":
                k += 1
        else:
            line += c
        k += 1
    if line:
        lines.append(line)
    return lines


def oracle_beat_fields(text):
    """``(lineno, field)`` for the first field of each content line.

    README's rule: ``#`` starts a comment, fields are separated by
    whitespace, and a line with no field is skipped.
    """
    out = []
    for lineno, line in enumerate(oracle_lines(text), start=1):
        field = ""
        for c in line:
            if c == "#" or (c.isspace() and field):
                break
            if not c.isspace():
                field += c
        if field:
            out.append((lineno, field))
    return out


def oracle_validate_beats(raw):
    """``(times, dropped, error)`` of ``validate_beats(raw)`` on a non-empty list.

    Consecutive equal finite times collapse into one (``dropped`` counts
    the rest; the warning comes before any error).  Then the first rule
    the collapsed times break gives ``error``, an ``(exception name,
    message)`` pair: every time finite, none negative, each later time
    larger than the one before.
    """
    times, dropped = [], 0
    for t in raw:
        if times and t == times[-1] and math.isfinite(t):
            dropped += 1
        else:
            times.append(t)
    if not all(math.isfinite(t) for t in times):
        return times, dropped, ("ValueError", "beat times must be finite")
    if any(t < 0.0 for t in times):
        return times, dropped, ("NegativeTimeError", "beat times must be >= 0")
    if any(b <= a for a, b in zip(times, times[1:])):
        return times, dropped, ("NonMonotonicError", "beat times must be strictly increasing")
    return times, dropped, None


def oracle_beats_file(text):
    """What a beat file holding ``text`` parses to.

    Returns ``(times, dropped, None)``, or ``(None, 0, (message,
    lineno))`` for the ParseError, whose text is ``<path>:<lineno>:
    <message>``, or ``<path>: <message>`` when ``lineno`` is None.  A
    byte-order mark at the start of ``text`` is not part of it.  A file
    with no beat time is an empty sequence; a rule of
    :func:`oracle_validate_beats` that fails is an error with no line,
    and then no duplicate is reported.
    """
    if text.startswith("\ufeff"):
        text = text[1:]
    times = []
    for lineno, field in oracle_beat_fields(text):
        try:
            t = float(field)
        except ValueError:
            return None, 0, (f"beat time is not a number: {field!r}", lineno)
        if not math.isfinite(t):
            return None, 0, (f"beat time must be finite, got {field!r}", lineno)
        times.append(t)
    if not times:
        return [], 0, None
    times, dropped, error = oracle_validate_beats(times)
    if error is not None:
        return None, 0, (error[1], None)
    return times, dropped, None
