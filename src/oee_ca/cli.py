"""Command-line interface.

Subcommands: run (single trajectory -> CSV, and with --pgm its space-time
diagram at any width), ensemble (sampled plan -> records CSV + report JSON),
norm (normalization cache), analyze (report + SVG plots from a records CSV).

Exit codes: 0 success, 2 usage error, 3 data/format error.

Only ensemble and analyze import ``ensemble``: 0.005-0.009 s and 0.1 MB of
peak RSS on top of this module's 0.07-0.15 s and 34 MB (``python3 -I``, 8
interleaved runs, 2-vCPU host).  ``ensemble`` loads ``scipy.special`` only
for a Spearman p-value that can be nonzero, a further 0.14-0.23 s and 19 MB;
a pooled ensemble forks its workers and loads no process-pool stack.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from . import complexity as cx
from . import io_formats as iof
from .eca import ConfigurationError, canonical_rules, set_default_class_table
from .variants import (
    CASE1_RATIOS,
    CASE_II_WIDTH,
    DEFAULT_MU,
    Variant,
    VariantConfig,
    continued,
    execution_rng,
    integers_rows,
    run_trajectory,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3


def _variant(name: str) -> Variant:
    try:
        return Variant(name)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown variant {name!r} (choose from case1, case2, case3, eca)")


def _int_at_least(least: int):
    """An argparse type for integers of at least ``least``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value
    parse.__name__ = "int"   # argparse names the type in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="oee-ca", description=__doc__)
    parser.add_argument("--version", action="version", version=f"oee-ca {__version__}")
    parser.add_argument("--class-table", help="override the Wolfram class data file")
    parser.add_argument("--config", help="flat key = value file mirroring flags "
                                         "(explicit flags take precedence)")
    sub = parser.add_subparsers(dest="command", required=True)

    run_flags = argparse.ArgumentParser(add_help=False)   # shared by run and ensemble
    run_flags.add_argument("--variant", type=_variant, required=True)
    run_flags.add_argument("--wo", type=_int_at_least(1), required=True)
    run_flags.add_argument("--we", type=_int_at_least(1))
    run_flags.add_argument("--mu", type=float, help="mutation rate in [0, 1), case3 only "
                                                    f"(default {DEFAULT_MU})")
    run_flags.add_argument("--seed", type=int, default=0)
    run_flags.add_argument("--cap", type=int)

    run = sub.add_parser("run", parents=[run_flags], help="simulate one configuration")
    run.add_argument("--rule-o", type=int)
    run.add_argument("--rule-e", type=int)
    run.add_argument("--state-o", help="initial organism state, binary string")
    run.add_argument("--state-e", help="initial environment state, binary string")
    run.add_argument("--out", default="trajectory.csv")
    run.add_argument("--pgm", help="also render the organism trajectory to PGM")
    run.add_argument("--steps", type=_int_at_least(0),
                     help="with --pgm: stop the run by step max(N, 1) and render rows "
                          "0..N, a repeating run's cycle replayed out to N")

    em = sub.add_parser("ensemble", parents=[run_flags], help="execute a sampling plan")
    em.add_argument("--ratio", choices=CASE1_RATIOS,
                    help="environment/organism width ratio (Case I)")
    em.add_argument("--samples", type=_int_at_least(1), required=True)
    em.add_argument("--workers", type=_int_at_least(1),
                    help="forked workers (default: $OEE_THREADS, else 1; 1 without os.fork)")
    em.add_argument("--norm-samples", type=_int_at_least(1), default=cx.NORM_SAMPLES)
    em.add_argument("--norm-steps", type=_int_at_least(0), default=cx.NORM_STEPS)
    em.add_argument("--norm-seed", type=int, default=0)
    em.add_argument("--norm-cache")
    em.add_argument("--out", default="records.csv")
    em.add_argument("--report", default="report.json")

    nrm = sub.add_parser("norm", help="build the compressibility normalization cache")
    nrm.add_argument("--width", type=int, required=True,
                     help="full-system width w_o + w_e")
    nrm.add_argument("--samples", type=_int_at_least(1), default=cx.NORM_SAMPLES)
    nrm.add_argument("--steps", type=_int_at_least(0), default=cx.NORM_STEPS)
    nrm.add_argument("--seed", type=int, default=0)
    nrm.add_argument("--cache", default="norm_cache.txt")

    an = sub.add_parser("analyze", help="recompute a report from a records CSV")
    an.add_argument("--records", required=True)
    an.add_argument("--report", default="report.json")
    an.add_argument("--svg-dir", help="also emit SVG plots into this directory")
    return parser


def _with_config_file(argv: list[str]) -> list[str]:
    """``argv`` with its --config file's keys as flags: class_table before
    the command, the others right after it, so the command line's flags come
    later and win (argparse keeps the last value), and the one parse checks
    every value and refuses a key that is no flag of the subcommand."""
    pre = argparse.ArgumentParser(prog="oee-ca", add_help=False)
    pre.add_argument("--class-table")   # so that its value is not read as the command
    pre.add_argument("--config")
    pre.add_argument("command", nargs=argparse.REMAINDER)

    def error(message):
        raise argparse.ArgumentError(None, message)
    pre.error = error
    try:
        known = pre.parse_known_args(argv)[0]
    except argparse.ArgumentError:   # the one parse reports it, with the full usage
        return argv
    if not known.config or not known.command:
        return argv
    top, sub = [], []
    for key, value in iof.read_config_file(known.config).items():
        dest = key.replace("-", "_")
        if dest not in ("command", "config"):
            flag = "--" + dest.replace("_", "-")
            (top if dest == "class_table" else sub).extend([flag, value])
    at = len(argv) - len(known.command) + 1
    return top + argv[:at] + sub + argv[at:]


def _config_echo(args) -> dict:
    skip = {"command", "config", "class_table"}
    return {k: (v.value if isinstance(v, Variant) else v)
            for k, v in sorted(vars(args).items()) if k not in skip}


def run_start(seed: int, w_o: int, w_e: int) -> tuple[int, int, int, int]:
    """Initial (r_o, r_e, s_o, s_e) of a run.  A ring wider than 62 cells
    starts from a 63-bit draw widened with 48-bit draws, the organism's
    before the environment's, so organism rows do not depend on ``w_e``."""
    rng = execution_rng(seed)
    canon = canonical_rules()
    bounds = (88, 88, *(2**63 if w > 62 else 1 << w for w in (w_o, w_e)))
    [(r_o, r_e, s_o, s_e)] = integers_rows(rng, bounds, 1)
    return canon[r_o], canon[r_e], _widen(rng, s_o, w_o), _widen(rng, s_e, w_e)


def _widen(rng, bits: int, width: int) -> int:
    if width > 62:
        for _ in range(width // 48):
            bits = (bits << 48) | int(rng.integers(0, 1 << 48))
        bits %= 1 << width
    return bits


def _given_state(text: str, flag: str, width: int) -> int:
    if len(text) != width:
        raise ValueError(f"{flag} has {len(text)} cells, expected {width}")
    if text.strip("01"):
        raise ValueError(f"{flag} must be a string of 0s and 1s, got {text!r}")
    return int(text, 2)


def _reject_unused_flags(args, *flags: str) -> None:
    """Refuse, rather than ignore, a flag the run would not use: ``--mu``
    on a variant without noise, an environment flag on a variant without
    an environment, a ``--we`` other than ``CASE_II_WIDTH`` or a ``--ratio``
    on case2, whose environment is that wide, and a ``--ratio`` beside ``--we``."""
    variant = args.variant
    given = [f for f in flags if getattr(args, f[2:].replace("-", "_")) is not None]
    for flag in given:
        if flag == "--mu":
            if variant.deterministic:
                raise ValueError(f"--mu does not apply to {variant.value}, "
                                 "which has no noise")
        elif not variant.has_environment:
            raise ValueError(f"{flag} does not apply to {variant.value}, "
                             "which has no environment")
        elif variant is Variant.CASE_II and (flag == "--ratio" or flag == "--we"
                                             and args.we != CASE_II_WIDTH):
            raise ValueError(f"{flag} does not apply to case2, whose environment "
                             f"has {CASE_II_WIDTH} cells")
    if "--we" in given and "--ratio" in given:
        raise ValueError("--we and --ratio both set the environment width; give one")


def _random_config(args) -> VariantConfig:
    """The run's config: ``run_start``'s draw for ``--seed``, each value
    given by its own flag taking the place of its draw alone."""
    _reject_unused_flags(args, "--we", "--rule-e", "--state-e", "--mu")
    variant = args.variant
    w_e = CASE_II_WIDTH if variant is Variant.CASE_II else args.we
    if variant is Variant.CASE_I and w_e is None:
        raise ValueError("this variant requires --we")
    r_o, r_e, s_o, s_e = run_start(args.seed, args.wo, w_e or args.wo)
    r_o = r_o if args.rule_o is None else args.rule_o
    r_e = r_e if args.rule_e is None else args.rule_e
    if args.state_o is not None:
        s_o = _given_state(args.state_o, "--state-o", args.wo)
    if args.state_e is not None:
        s_e = _given_state(args.state_e, "--state-e", w_e)
    if variant is Variant.CASE_III:
        mu = DEFAULT_MU if args.mu is None else args.mu
        return VariantConfig(variant, args.wo, s_o, r_o, mu=mu, seed=args.seed)
    env = (w_e, s_e, r_e) if variant.has_environment else ()
    return VariantConfig(variant, args.wo, s_o, r_o, *env)


def _check_outputs(*paths: str | None) -> None:
    """Refuse, before any work, an output path that cannot be published:
    one whose directory is missing or not writable, or that is a directory.
    The message names the path as given; a None path is no output."""
    for path in filter(None, paths):
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise OSError(f"cannot write {path}: no directory {folder}")
        if not os.access(folder, os.W_OK | os.X_OK):
            raise OSError(f"cannot write {path}: directory {folder} is not writable")
        if os.path.isdir(path):
            raise OSError(f"cannot write {path}: it is a directory")


def cmd_run(args) -> int:
    if args.steps is not None and not args.pgm:
        raise ValueError("--steps sets the rows of --pgm; give it with --pgm")
    if args.steps is not None and args.cap is not None:
        raise ValueError("--steps and --cap both stop the run; give one")
    _check_outputs(args.out, args.pgm)
    config = _random_config(args)
    traj = run_trajectory(config, args.cap if args.steps is None else max(args.steps, 1))
    w_o, w_e = config.w_o, config.w_e
    with iof.replacing(args.out) as fh:
        iof.write_echo(fh, _config_echo(args) | {"mu": config.mu})
        fh.write("t,s_o,r_o,s_e\n")
        envs = traj.envs or [None] * len(traj.states)
        for t, (s_o, r_o, s_e) in enumerate(zip(traj.states, traj.rules, envs)):
            s_e = "" if s_e is None else format(s_e, f"0{w_e}b")
            fh.write(f"{t},{s_o:0{w_o}b},{r_o},{s_e}\n")
    if traj.cap_hit and args.steps is None:   # --steps asks for the cut
        print(f"warning: step cap reached after {len(traj.states) - 1} steps",
              file=sys.stderr)
    if args.pgm:
        rows = (traj.states if args.steps is None
                else continued(traj, args.steps)[0][:args.steps + 1])
        iof.write_pgm(rows, w_o, args.pgm)
    print(f"wrote {args.out} ({len(traj.states)} snapshots)")
    return EXIT_OK


def cmd_ensemble(args) -> int:
    from . import ensemble as ens

    _check_outputs(args.out, args.report, args.norm_cache)
    _reject_unused_flags(args, "--we", "--ratio", "--mu")
    if args.variant is Variant.CASE_I and args.we is None and args.ratio is None:
        raise ValueError("Case I needs --we or --ratio")
    w_e = args.we if args.ratio is None else ens.environment_width(args.wo, args.ratio)
    plan = ens.SamplePlan(
        variant=args.variant, w_o=args.wo, w_e=w_e, mu=args.mu,
        sample_count=args.samples, master_seed=args.seed, step_cap=args.cap,
        norm_samples=args.norm_samples, norm_steps=args.norm_steps,
        norm_seed=args.norm_seed)
    records = ens.run_ensemble(plan, workers=args.workers, norm_cache=args.norm_cache)
    echo = _config_echo(args) | {"mu": plan.mu, "effective_we": plan.w_e}
    iof.write_records_csv(records, args.out, config_echo=echo)
    report = ens.aggregate(records)
    iof.write_report_json(report, args.report, config_echo=echo)
    print(f"wrote {args.out} and {args.report}: "
          f"OEE% = {report.oee_percent:.2f}, INN% = {report.inn_percent:.2f}, "
          f"UE% = {report.ue_percent:.2f} over {report.n_records} records "
          f"({report.n_censored} censored)")
    return EXIT_OK


def cmd_norm(args) -> int:
    _check_outputs(args.cache)
    bits = cx.normalization_constant(args.width, args.samples, args.steps,
                                     args.seed, cache_path=args.cache)
    print(f"norm({args.width}, samples={args.samples}, steps={args.steps}, "
          f"seed={args.seed}) = {bits} bits -> {args.cache}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    from . import ensemble as ens

    _check_outputs(args.report)
    records = iof.read_records_csv(args.records)
    report = ens.aggregate(records)
    iof.write_report_json(report, args.report, config_echo=_config_echo(args))
    if args.svg_dir:
        os.makedirs(args.svg_dir, exist_ok=True)
        join = lambda name: os.path.join(args.svg_dir, name)
        iof.write_svg(iof.svg_histogram(report.t_r_ratio_hist, "t_r / t_P (log2 bins)"),
                      join("t_r_hist.svg"))
        iof.write_svg(iof.svg_histogram(report.t_a_ratio_hist, "t_a / t_P (log2 bins)"),
                      join("t_a_hist.svg"))
        iof.write_svg(iof.svg_box(report.t_r_ratio_box, "t_r / t_P"), join("t_r_box.svg"))
        iof.write_svg(iof.svg_scatter(report.innovation_points, "innovation vs recurrence",
                                      "I", "t_r"), join("inn_vs_t_r.svg"))
        iof.write_svg(iof.svg_histogram(report.c_hist, "compressibility C"),
                      join("c_hist.svg"))
        iof.write_svg(iof.svg_histogram(report.k_hist, "Lyapunov exponent k"),
                      join("k_hist.svg"))
    print(f"wrote {args.report}")
    return EXIT_OK


COMMANDS = {
    "run": cmd_run,
    "ensemble": cmd_ensemble,
    "norm": cmd_norm,
    "analyze": cmd_analyze,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(_with_config_file(argv))
        set_default_class_table(args.class_table)
        return COMMANDS[args.command](args)
    except (ValueError, OSError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
