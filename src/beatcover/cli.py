"""Command-line interface.

Subcommands: eval (batch evaluation to JSON), track (run a
post-processing tracker on an activation file), viz (coverage SVG),
synth (scenario to reference/estimate files), stats (dataset
statistics).  Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import re
import sys
from functools import cache, partial

from .core import BeatcoverError, ToleranceParams
from .core import _finite, _finite_positive, _index, _non_negative
from .fileio import (
    ParseError,
    _built,
    parse_activation_file,
    parse_beats_file,
    parse_scenario_file,
    write_activation_file,
    write_beats_file,
)
from .matching import coverage_matrix
from .metrics import mean_track_tempo
from .report import (
    METRIC_GROUPS,
    check_metric_groups,
    dataset_stats_from_refs,
    evaluate_dataset,
    list_files,
    write_report,
)
from .synth import gen_activation, gen_estimate, gen_reference
from .trackers import dp_track, sppk
from .viz import render_coverage_svg

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads only "-1" and "-.5" as negative numbers, so the
        # "-1e308" of "--tightness -1e308" would be taken for an option;
        # here any "-" before a digit, or before "." and a digit, is a value
        self._negative_number_matcher = re.compile(r"-\.?\d")

    # argparse exits 2 on usage problems by default; this tool reserves
    # 2 for data errors, so usage errors are remapped to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


_DEFAULTS = ToleranceParams()


def _checked(convert, check):
    """Argparse type: ``convert`` the text, then range-check it with ``check``.

    A ValueError from ``check`` is a usage error under the flag's name.
    """

    def parse(text: str):
        value = convert(text)
        try:
            check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


def _tolerance(field: str, convert):
    """Argparse type for the flag that sets ``field`` of ToleranceParams."""
    return _checked(convert, lambda value: ToleranceParams(**{field: value}))


# argparse type for --metrics: comma-separated group names, each checked
_metric_list = _checked(lambda text: [m for m in map(str.strip, text.split(",")) if m], check_metric_groups)


def build_parser() -> _Parser:
    parser = _Parser(prog="beatcover", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND", parser_class=_Parser)

    p = sub.add_parser("eval", help="evaluate estimate files against references")
    p.add_argument("--ref", required=True, help="directory of reference beat files")
    p.add_argument("--est", required=True, help="directory of estimated beat files")
    p.add_argument("--L", type=_tolerance("context", int), default=_DEFAULTS.context,
                   help=f"window length in beats (default {_DEFAULTS.context})")
    p.add_argument("--cap", type=_tolerance("cap", float), default=_DEFAULTS.cap,
                   help=f"tolerance cap in seconds (default {_DEFAULTS.cap:.3f})")
    p.add_argument("--gamma", type=_tolerance("gamma", float), default=_DEFAULTS.gamma,
                   help=f"tolerance/IBI ratio (default {_DEFAULTS.gamma:.3f})")
    p.add_argument("--metrics", type=_metric_list, default=None,
                   help=f"comma-separated groups to report (default all): {','.join(METRIC_GROUPS)}")
    p.add_argument("--workers", type=_checked(int, partial(_index, "workers", low=1)), default=1,
                   help="accepted but has no effect")
    p.add_argument("--out", required=True, help="output JSON path")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("track", help="run a post-processing tracker")
    p.add_argument("--activation", required=True, help="activation file (fps=... header)")
    p.add_argument("--ppt", required=True, choices=("dp", "sppk"), help="tracker to run")
    p.add_argument("--tempo", type=_checked(float, partial(_finite_positive, "tempo")), default=None,
                   help="global tempo in BPM (dp)")
    p.add_argument("--ref", default=None, help="reference beats to take the global tempo from (dp)")
    p.add_argument("--threshold", type=_checked(float, partial(_finite, "threshold")), default=0.3,
                   help="sppk threshold (default 0.3)")
    p.add_argument("--min-gap", type=_checked(float, partial(_non_negative, "min_gap")), default=0.15,
                   help="sppk suppression gap in seconds (default 0.15)")
    p.add_argument("--tightness", type=_checked(float, partial(_finite, "tightness")), default=100.0,
                   help="dp tempo adherence (default 100)")
    p.add_argument("--out", required=True, help="output beats path")
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("viz", help="render a coverage SVG for one track")
    p.add_argument("--ref", required=True, help="reference beats file")
    p.add_argument("--est", required=True, help="estimated beats file")
    p.add_argument("--activation", default=None, help="optional activation file for the top panel")
    p.add_argument("--L", type=_tolerance("context", int), default=_DEFAULTS.context,
                   help=f"window length in beats (default {_DEFAULTS.context})")
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(func=_cmd_viz)

    p = sub.add_parser("synth", help="generate reference/estimate files from a scenario")
    p.add_argument("--scenario", required=True, help="scenario script path")
    p.add_argument("--seed", type=_checked(int, partial(_index, "seed", low=0)), default=0,
                   help="jitter seed (default 0)")
    p.add_argument("--out-ref", required=True, help="output reference beats path")
    p.add_argument("--out-est", required=True, help="output estimated beats path")
    p.add_argument("--out-act", default=None, help="optional output activation path")
    p.add_argument("--fps", type=_checked(float, partial(_finite_positive, "fps")), default=100.0,
                   help="activation frame rate (default 100)")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("stats", help="dataset statistics from reference files")
    p.add_argument("--ref", required=True, help="directory of reference beat files")
    p.set_defaults(func=_cmd_stats)

    return parser


def _cmd_eval(args) -> int:
    params = ToleranceParams(cap=args.cap, gamma=args.gamma, context=args.L)
    report = evaluate_dataset(args.ref, args.est, params)
    write_report(report, args.out, metrics=args.metrics)
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"evaluated {len(report.tracks)} track(s) -> {args.out}")
    return 0


def _cmd_track(args) -> int:
    act = parse_activation_file(args.activation)
    if args.ppt == "sppk":
        beats = sppk(act, threshold=args.threshold, min_gap=args.min_gap)
    else:
        if args.tempo is None and args.ref is None:
            print("beatcover track: error: --ppt dp needs --tempo or --ref", file=sys.stderr)
            return 1
        # a given --tempo is finite and > 0, so "or" reads only a missing one
        tempo = args.tempo or _built(args.ref, None, mean_track_tempo, parse_beats_file(args.ref))
        beats = _built(args.activation, None, dp_track, act, tempo, tightness=args.tightness)
    write_beats_file(beats, args.out)
    print(f"wrote {len(beats)} beat(s) -> {args.out}")
    return 0


def _cmd_viz(args) -> int:
    ref = parse_beats_file(args.ref)
    est = parse_beats_file(args.est)
    if not len(ref):
        raise ParseError(args.ref, None, "no reference beats")
    act = parse_activation_file(args.activation) if args.activation else None
    cm = coverage_matrix(ref, est, ToleranceParams(context=args.L))
    render_coverage_svg(cm, ref, act=act, est=est, path=args.out)
    print(f"wrote coverage figure -> {args.out}")
    return 0


def _cmd_synth(args) -> int:
    scenario = parse_scenario_file(args.scenario)
    ref = gen_reference(scenario.tempo_curve, scenario.duration)
    est = _built(args.scenario, None, gen_estimate, ref, scenario, seed=args.seed)
    # every output is computed before any is written, so a failed run
    # leaves no partial set of files behind
    act = gen_activation(ref, fps=args.fps) if args.out_act else None
    write_beats_file(ref, args.out_ref)
    write_beats_file(est, args.out_est)
    if act is not None:
        write_activation_file(act, args.out_act)
    print(f"wrote {len(ref)} reference and {len(est)} estimated beat(s)")
    return 0


def _cmd_stats(args) -> int:
    paths = list_files(args.ref)
    refs = [parse_beats_file(p) for p in paths]
    for path, ref in zip(paths, refs):
        _built(path, None, mean_track_tempo, ref)  # so that a track with no tempo names its file
    stats = dataset_stats_from_refs(refs)
    print(f"tracks:              {stats.n_tracks}")
    print(f"total annotated span: {stats.total_duration:.2f} s")
    print(f"mean track tempo:    {stats.mean_track_tempo:.2f} BPM")
    print(f"stable tempi:        {stats.percent_stable_tempi:.2f} %")
    return 0


@cache
def _parser() -> _Parser:
    """The parser that ``main`` reads every argv with, built on first use."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (BeatcoverError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
