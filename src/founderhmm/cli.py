"""Command-line surface.

Eleven subcommands tie the library into runnable pipelines: train,
detect, correct, recover, impute, phase, pipeline, simulate, evaluate,
sweep, bench. Each option is declared once, in an option group of
``_SUBCOMMANDS``, with its type and default; ``main`` builds the parser
of the one subcommand its first argument names, and every parser for
help, usage problems and unknown names. A config file (JSON, via
--config or the FOUNDERHMM_CONFIG environment variable) replaces
defaults: each value must parse as its flag would (on/off flags take
JSON booleans) or the run exits 1; keys the subcommand lacks are
ignored, and file paths are flag-only. So every option resolves as
flags > config file > built-in default, and the effective settings are
echoed as a ``#config:`` line into each output. The engine runs on one
thread and bounds its own memory, so no option tunes how an answer is
computed. Timing goes to stderr or to explicitly requested log files,
never into primary artifacts (bench excepted — its whole artifact is a
timing table).

Exit status: 0 success, 1 bad input (message names file/line/field where
known), 2 internal error.
"""
from __future__ import annotations

import argparse
import os
import sys
import time

from .analysis import (DEFAULT_RATIO_THRESHOLD, PIPELINE_IMPUTE_ONLY,
                       PIPELINE_REPAIR_IMPUTE, WindowSpec, correct_errors,
                       detect_errors, impute_untyped, phase_panel,
                       recover_missing, run_pipeline)
from .io_formats import (CONFIG_ENV, ERROR_REPORT_COLUMNS, IMPUTATION_COLUMNS,
                         RECOVERY_COLUMNS, atomic_write, fmt, load_config_file,
                         read_error_report, read_genotypes, read_haplotypes,
                         read_imputation, read_locus_map, read_model,
                         write_bench_table, write_channels, write_error_report,
                         write_eval_report, write_genotypes, write_haplotypes,
                         write_imputation, write_locus_map, write_model,
                         write_recovery, write_sweep_table)
from .model import GenotypeCorpus, InputError, ZeroProbabilityError
from .simulate import SimConfig, bench_scaling, evaluate, simulate, sweep
from .training import TrainConfig, train_founder_hmm

PATH = "PATH"  # metavar of the file options, which a config file cannot set
DEFAULT = "default: %(default)s"  # help of an option its name explains
MODES = (PIPELINE_IMPUTE_ONLY, PIPELINE_REPAIR_IMPUTE)


class _HelpShown(Exception):
    """--help has printed its text; main returns 0."""


class _Parser(argparse.ArgumentParser):
    """Argparse that reports usage problems as input errors (exit 1)
    instead of hard-exiting with status 2, and returns from --help instead
    of exiting the process."""

    def error(self, message):
        raise InputError(message)

    def exit(self, status=0, message=None):
        # error() above never exits, so only --help arrives here
        raise _HelpShown()


def _int_list(text):
    """Comma-separated positive integers, e.g. 3,5,7."""
    try:
        values = tuple(int(v) for v in text.split(","))
    except ValueError:
        values = (0,)
    if min(values) < 1:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated positive integers, got {text!r}")
    return values


def _mode_list(text):
    """Comma-separated pipeline modes."""
    modes = tuple(text.split(","))
    for mode in modes:
        if mode not in MODES:
            raise argparse.ArgumentTypeError(f"unknown pipeline mode {mode!r}")
    return modes


# Option groups: each adds its options to a subcommand's parser, in order.

def _common(p):
    p.add_argument("--config", metavar=PATH,
                   help=f"JSON config file of option defaults (also via "
                        f"${CONFIG_ENV})")


def _seeded(p):
    p.add_argument("--seed", type=int, default=0, help=DEFAULT)


def _fitted(p):
    p.add_argument("--founders", type=int, default=7,
                   help="founder states of the model (default: %(default)s)")


def _windowed(p):
    p.add_argument("--flank", type=int, default=10,
                   help="typed loci on each side of an imputation "
                        "window (default: %(default)s)")


def _screened(p):
    p.add_argument("--threshold", type=float, default=DEFAULT_RATIO_THRESHOLD,
                   help="flagging likelihood ratio (default: %(default)s)")


def _jsonf(p):
    p.add_argument("--json", action="store_true",
                   help="write the report as JSON instead of TSV")


def _simulated(p):
    p.add_argument("--founders", type=int, default=5,
                   help="simulated founder count (default: %(default)s)")
    p.add_argument("--loci", type=int, default=200, help=DEFAULT)
    p.add_argument("--samples", type=int, default=50, help=DEFAULT)
    p.add_argument("--switch-rate", type=float, default=0.02, help=DEFAULT)
    p.add_argument("--error-rate", type=float, default=0.0, help=DEFAULT)
    p.add_argument("--missing-rate", type=float, default=0.0, help=DEFAULT)


def _train_options(p):
    p.add_argument("--panel", metavar=PATH, required=True, help="haplotype panel file")
    p.add_argument("--out", metavar=PATH, required=True, help="model file to write")
    p.add_argument("--max-iterations", type=int, default=100, help=DEFAULT)
    p.add_argument("--tolerance", type=float, default=1e-5,
                   help="relative log-likelihood improvement that counts as "
                        "converged (default: %(default)s)")
    p.add_argument("--pseudocount", type=float, default=1e-6,
                   help="smoothing mass per expected count (default: %(default)s)")
    p.add_argument("--log", metavar=PATH,
                   help="write iteration trace and timing here (default: "
                        "summary on stderr)")


def _detect_options(p):
    p.add_argument("--model", metavar=PATH, required=True)
    p.add_argument("--genotypes", metavar=PATH, required=True)
    p.add_argument("--out", metavar=PATH, required=True)
    p.add_argument("--map", metavar=PATH,
                   help="locus map; typed locus ids label the report rows")


def _correct_options(p):
    p.add_argument("--genotypes", metavar=PATH, required=True)
    p.add_argument("--report", metavar=PATH, required=True,
                   help="detect output (TSV or JSON)")
    p.add_argument("--out", metavar=PATH, required=True, help="corrected genotype file")


def _recover_options(p):
    p.add_argument("--model", metavar=PATH, required=True)
    p.add_argument("--genotypes", metavar=PATH, required=True)
    p.add_argument("--out", metavar=PATH, required=True, help="completed genotype file")
    p.add_argument("--fills", metavar=PATH, help="optional fill log")


def _impute_options(p):
    p.add_argument("--panel", metavar=PATH, required=True,
                   help="reference haplotypes (full map)")
    p.add_argument("--genotypes", metavar=PATH, required=True, help="typed-locus corpus")
    p.add_argument("--map", metavar=PATH, required=True,
                   help="locus map with typed/untyped labels")
    p.add_argument("--out", metavar=PATH, required=True)


def _phase_options(p):
    p.add_argument("--model", metavar=PATH, required=True)
    p.add_argument("--genotypes", metavar=PATH, required=True)
    p.add_argument("--out", metavar=PATH, required=True)


def _pipeline_options(p):
    p.add_argument("--mode", choices=MODES, default=PIPELINE_IMPUTE_ONLY,
                   help=DEFAULT)
    p.add_argument("--panel", metavar=PATH, required=True)
    p.add_argument("--genotypes", metavar=PATH, required=True)
    p.add_argument("--map", metavar=PATH, required=True)
    p.add_argument("--out", metavar=PATH, required=True, help="imputation report")
    p.add_argument("--corpus-out", metavar=PATH,
                   help="write the repaired typed-locus corpus here")
    p.add_argument("--report-out", metavar=PATH,
                   help="write the error-detection report here")


def _simulate_options(p):
    p.add_argument("--out-prefix", metavar=PATH, required=True)
    p.add_argument("--panel-size", type=int, default=100, help=DEFAULT)
    p.add_argument("--mask-fraction", type=float, default=0.0,
                   help="share of loci masked as untyped (default: %(default)s)")


def _evaluate_options(p):
    p.add_argument("--calls", metavar=PATH, required=True,
                   help="imputation report or genotype file")
    p.add_argument("--truth", metavar=PATH, required=True, help="truth genotype file")
    p.add_argument("--kind", choices=["corpus", "imputation"], default="corpus",
                   help="how to read --calls (default: %(default)s)")
    p.add_argument("--map", metavar=PATH,
                   help="locus map; with kind=corpus, restricts full-map "
                        "truth to typed columns; with kind=imputation, "
                        "restricts scoring to untyped loci")
    p.add_argument("--out", metavar=PATH, help="optional report file")


def _sweep_options(p):
    p.add_argument("--out", metavar=PATH, required=True, help="result table (no timings)")
    p.add_argument("--timings", metavar=PATH, help="timing table")
    p.add_argument("--founders-grid", type=_int_list, default="7",
                   help="model founder counts (default: %(default)s)")
    p.add_argument("--panel-grid", type=_int_list, default="100",
                   help="e.g. 30,60,120 (default: %(default)s)")
    p.add_argument("--flank-grid", type=_int_list, default="10",
                   help="e.g. 5,10 (default: %(default)s)")
    p.add_argument("--modes", type=_mode_list, default=PIPELINE_IMPUTE_ONLY,
                   help="e.g. imp,edc-mdr-imp (default: %(default)s)")
    p.add_argument("--mask-fraction", type=float, default=0.09,
                   help="share of loci masked as untyped (default: %(default)s)")


def _bench_options(p):
    p.add_argument("--out", metavar=PATH, required=True)
    p.add_argument("--repeats", type=int, default=3, help=DEFAULT)
    p.add_argument("--loci-grid", type=_int_list,
                   default="250,500,1000,2000", help=DEFAULT)
    p.add_argument("--sample-grid", type=_int_list,
                   default="60,120,240,480", help=DEFAULT)
    p.add_argument("--founder-grid", type=_int_list,
                   default="3,5,7,9,11,13,15", help=DEFAULT)


def _build_parser(only=None):
    """The parser and its subcommand parsers by name: all of them, or only
    the subcommand ``only``, which parses its arguments alike."""
    parser = _Parser(prog="founderhmm",
                     description="Founder-pair HMM toolkit for multilocus "
                                 "SNP genotypes: training, error screening, "
                                 "missing-data recovery, imputation, phasing, "
                                 "and synthetic benchmarking.")
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    sub.required = True
    for name, (handler, groups, kwargs) in _SUBCOMMANDS.items():
        if only in (None, name):
            p = sub.add_parser(name, **kwargs)
            for group in (_common, *groups):
                group(p)
            p.set_defaults(handler=handler)
    return parser, sub.choices


# ---------------------------------------------------------- config files

def _settable(command):
    """Options of one subcommand that a config file may set, by name: all
    but --help and the file paths."""
    return {a.dest: a for a in command._actions
            if a.option_strings and a.dest != "help" and a.metavar != PATH}


def _apply_config(command, path):
    """Make each config value the default of its option, parsed as the
    option's flag would be: by its type, within its choices, and only as a
    JSON boolean for an on/off flag. Keys the subcommand lacks are
    ignored."""
    settable = _settable(command)
    defaults = {}
    for key, value in load_config_file(path).items():
        action = settable.get(key)
        if action is None:
            continue
        if action.nargs == 0:
            if not isinstance(value, bool):
                raise InputError(f"{path}: field {key!r}: expected true or "
                                 f"false, got {value!r}")
        else:
            try:
                value = action.type(str(value)) if action.type else str(value)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise InputError(f"{path}: field {key!r}: {exc}") from None
            if action.choices is not None and value not in action.choices:
                raise InputError(f"{path}: field {key!r}: {value!r} is not one "
                                 f"of {', '.join(action.choices)}")
        defaults[key] = value
    command.set_defaults(**defaults)


def _echo(subcommand, pairs):
    body = " ".join(f"{key}={value}" for key, value in sorted(pairs.items()))
    return f"#config: {subcommand} {body}"


def _joined(values):
    return ",".join(map(str, values))


def _note(message):
    print(message, file=sys.stderr)


# ------------------------------------------------------------- subcommands

def _cmd_train(args):
    # train runs plain EM; the echo names the options, not every config field
    options = dict(founders=args.founders, max_iterations=args.max_iterations,
                   tolerance=args.tolerance, seed=args.seed,
                   pseudocount=args.pseudocount)
    cfg = TrainConfig(**options)
    panel = read_haplotypes(args.panel)
    start = time.perf_counter()
    model, report = train_founder_hmm(panel, cfg)
    seconds = time.perf_counter() - start
    echo = _echo("train", {"panel": args.panel, **options})
    write_model(args.out, model, config_line=echo)
    trace_lines = [echo,
                   f"iterations\t{report.iterations_run}",
                   f"converged\t{int(report.converged)}",
                   f"seconds\t{fmt(seconds)}"]
    trace_lines += [f"loglik\t{i}\t{fmt(v)}"
                    for i, v in enumerate(report.loglik_trace)]
    if args.log:
        atomic_write(args.log, "\n".join(trace_lines) + "\n")
    else:
        _note(f"trained {cfg.founders} founders on {len(panel)} haplotypes: "
              f"{report.iterations_run} iterations, "
              f"final log-likelihood {report.loglik_trace[-1]:.6f}, "
              f"{seconds:.2f}s")


def _map_typed_ids(path, corpus_loci):
    locus_map = read_locus_map(path)
    typed = locus_map.typed_indices()
    if typed.size != corpus_loci:
        raise InputError(f"{path}: {typed.size} typed loci but the corpus has "
                         f"{corpus_loci}")
    return [locus_map.locus_ids[int(j)] for j in typed]


def _read_corpus(path, empty_ok=False):
    """The genotypes at ``path``, at least one sample unless ``empty_ok``."""
    corpus = read_genotypes(path)
    if not (corpus or empty_ok):
        raise InputError(f"{path}: empty corpus")
    return corpus


def _model_and_corpus(args, empty_ok=False):
    """The --model and the --genotypes corpus, whose loci must match."""
    model = read_model(args.model)
    corpus = _read_corpus(args.genotypes, empty_ok)
    if corpus and corpus.loci != model.loci:
        raise InputError(f"{args.genotypes}: genotypes have {corpus.loci} "
                         f"loci but the model has {model.loci}")
    return model, corpus


def _cmd_detect(args):
    model, corpus = _model_and_corpus(args)
    locus_ids = _map_typed_ids(args.map, corpus.loci) if args.map else None
    report = detect_errors(model, corpus, args.threshold, locus_ids=locus_ids)
    echo = _echo("detect", {"model": args.model, "genotypes": args.genotypes,
                            "threshold": args.threshold,
                            "map": args.map or "-"})
    write_error_report(args.out, report, config_line=echo, json_mode=args.json)
    _note(f"flagged {int(report.flags.sum())} of {len(report)} symbols "
          f"at ratio > {args.threshold:g}")


def _cmd_correct(args):
    corpus = read_genotypes(args.genotypes)
    report = read_error_report(args.report)
    corrected, changes = correct_errors(corpus, report)
    echo = _echo("correct", {"genotypes": args.genotypes,
                             "report": args.report,
                             "threshold": report.threshold})
    write_genotypes(args.out, corrected, config_line=echo)
    _note(f"changed {changes} symbols")


def _cmd_recover(args):
    model, corpus = _model_and_corpus(args)
    result = recover_missing(model, corpus)
    echo = _echo("recover", {"model": args.model, "genotypes": args.genotypes})
    write_genotypes(args.out, result.corpus, config_line=echo)
    if args.fills:
        write_recovery(args.fills, result, config_line=echo, json_mode=args.json)
    skipped = f", {len(result.failures)} samples skipped" if result.failures else ""
    _note(f"filled {len(result)} missing symbols{skipped}")


def _cmd_impute(args):
    reference = read_haplotypes(args.panel)
    corpus = _read_corpus(args.genotypes)
    locus_map = read_locus_map(args.map)
    cfg = TrainConfig(founders=args.founders, seed=args.seed)
    result = impute_untyped(reference, corpus, locus_map, cfg,
                            window=WindowSpec(flank=args.flank))
    echo = _echo("impute", {"panel": args.panel, "genotypes": args.genotypes,
                            "map": args.map, "founders": args.founders,
                            "flank": args.flank, "seed": args.seed})
    write_imputation(args.out, result, config_line=echo, json_mode=args.json)
    capped = sum(not w.converged for w in result.windows)
    _note(f"imputed {len(result)} genotype calls across "
          f"{len(result.windows)} windows (capped={capped})")


def _cmd_phase(args):
    model, corpus = _model_and_corpus(args, empty_ok=True)
    try:
        haplotypes = phase_panel(model, corpus)
    except ZeroProbabilityError as exc:
        raise InputError(f"{args.genotypes}: {exc}") from exc
    echo = _echo("phase", {"model": args.model, "genotypes": args.genotypes})
    write_haplotypes(args.out, haplotypes, config_line=echo)
    _note(f"phased {len(corpus)} samples")


def _cmd_pipeline(args):
    if args.report_out and args.mode != PIPELINE_REPAIR_IMPUTE:
        raise InputError("--report-out needs --mode edc-mdr-imp")
    reference = read_haplotypes(args.panel)
    corpus = _read_corpus(args.genotypes)
    locus_map = read_locus_map(args.map)
    cfg = TrainConfig(founders=args.founders, seed=args.seed)
    result = run_pipeline(args.mode, reference, corpus, locus_map, cfg,
                          window=WindowSpec(flank=args.flank),
                          threshold=args.threshold)
    echo = _echo("pipeline", {"mode": args.mode, "panel": args.panel,
                              "genotypes": args.genotypes, "map": args.map,
                              "founders": args.founders, "flank": args.flank,
                              "threshold": args.threshold, "seed": args.seed})
    write_imputation(args.out, result.imputation, config_line=echo,
                     json_mode=args.json)
    if args.corpus_out:
        write_genotypes(args.corpus_out, result.corpus_out, config_line=echo)
    if args.report_out:
        write_error_report(args.report_out, result.error_report,
                           config_line=echo, json_mode=args.json)
    for stage in result.stages:
        counters = " ".join(f"{k}={v}" for k, v in sorted(stage.counters.items()))
        _note(f"[{stage.name}] {stage.seconds:.2f}s {counters}")


def _sim_config(args, panel_size):
    """SimConfig of simulate and sweep, plus the echo pairs they share."""
    cfg = SimConfig(founder_count=args.founders, loci=args.loci,
                    sample_count=args.samples, panel_size=panel_size,
                    switch_rate=args.switch_rate, error_rate=args.error_rate,
                    missing_rate=args.missing_rate,
                    mask_fraction=args.mask_fraction, seed=args.seed)
    return cfg, {"founders": cfg.founder_count, "loci": cfg.loci,
                 "samples": cfg.sample_count,
                 "switch_rate": cfg.switch_rate, "error_rate": cfg.error_rate,
                 "missing_rate": cfg.missing_rate,
                 "mask_fraction": cfg.mask_fraction, "seed": cfg.seed}


def _cmd_simulate(args):
    cfg, pairs = _sim_config(args, args.panel_size)
    data = simulate(cfg)
    prefix = args.out_prefix
    echo = _echo("simulate", {**pairs, "panel_size": cfg.panel_size})
    write_genotypes(f"{prefix}.gen", data.observed, config_line=echo)
    write_locus_map(f"{prefix}.map", data.locus_map, config_line=echo)
    write_haplotypes(f"{prefix}.ref.hap", data.reference, config_line=echo)
    write_haplotypes(f"{prefix}.ref.typed.hap", data.typed_reference(),
                     config_line=echo)
    write_genotypes(f"{prefix}.truth.gen", data.truth_genotypes, config_line=echo)
    write_haplotypes(f"{prefix}.truth.hap", data.truth_haplotypes, config_line=echo)
    write_channels(f"{prefix}.channels.json", data, config_line=echo)
    _note(f"simulated {cfg.sample_count} samples x {cfg.loci} loci "
          f"({len(data.masked_loci)} masked, {len(data.error_records)} errors, "
          f"{len(data.missing_records)} blanked) -> {prefix}.*")


def _cmd_evaluate(args):
    truth = read_genotypes(args.truth)
    locus_map = read_locus_map(args.map) if args.map else None
    loci = None
    if args.kind == "imputation":
        calls = read_imputation(args.calls)
        if locus_map is not None:
            loci = [int(j) for j in locus_map.untyped_indices()]
    else:
        calls = read_genotypes(args.calls)
        if (locus_map is not None and calls
                and truth and truth.loci != calls.loci):
            typed = locus_map.typed_indices()
            if typed.size != calls.loci:
                raise InputError(
                    f"{args.map}: {typed.size} typed loci but calls have "
                    f"{calls.loci}")
            truth = GenotypeCorpus(truth.ids, truth.matrix[:, typed])
    report = evaluate(calls, truth, loci=loci)
    echo = _echo("evaluate", {"calls": args.calls, "truth": args.truth,
                              "kind": args.kind, "map": args.map or "-"})
    if args.out:
        write_eval_report(args.out, report, config_line=echo,
                          json_mode=args.json)
    print(f"total={report.total} discordant={report.discordant} "
          f"discordance_rate={report.discordance_rate:.6g}")


def _cmd_sweep(args):
    cfg, pairs = _sim_config(args, max(args.panel_grid))
    data = simulate(cfg)
    rows = sweep(data, founder_counts=args.founders_grid,
                 panel_sizes=args.panel_grid, flanks=args.flank_grid,
                 modes=args.modes)
    echo = _echo("sweep", {**pairs, "founders_grid": _joined(args.founders_grid),
                           "panel_grid": _joined(args.panel_grid),
                           "flank_grid": _joined(args.flank_grid),
                           "modes": _joined(args.modes)})
    write_sweep_table(args.out, rows, config_line=echo, with_seconds=False)
    if args.timings:
        write_sweep_table(args.timings, rows, config_line=echo,
                          with_seconds=True)
    failed = sum(r.failed for r in rows)
    _note(f"swept {len(rows)} cells ({failed} failed)")


def _cmd_bench(args):
    report = bench_scaling(loci_grid=args.loci_grid,
                           sample_grid=args.sample_grid,
                           founder_grid=args.founder_grid,
                           repeats=args.repeats, seed=args.seed)
    echo = _echo("bench", {"seed": args.seed, "repeats": args.repeats,
                           "loci_grid": _joined(args.loci_grid),
                           "sample_grid": _joined(args.sample_grid),
                           "founder_grid": _joined(args.founder_grid)})
    write_bench_table(args.out, report, config_line=echo)
    exps = " ".join(f"{axis}={report.exponents[axis]:.3f}"
                    for axis in sorted(report.exponents))
    _note(f"fitted exponents: {exps}")


# Each subcommand: its handler, its option groups in order (after
# --config) and its help texts.
_SUBCOMMANDS = {
    "train": (_cmd_train, (_fitted, _seeded, _train_options), dict(
        help="fit model parameters to a haplotype panel",
        description="Fit founder-HMM parameters to a haplotype panel by "
                    "expectation-maximization and write a model file.")),
    "detect": (_cmd_detect, (_screened, _jsonf, _detect_options), dict(
        help="screen typed symbols for likely errors",
        description="Flag symbols whose best substitution beats the observed "
                    "symbol by more than the threshold likelihood ratio.",
        epilog="TSV columns: " + " ".join(ERROR_REPORT_COLUMNS))),
    "correct": (_cmd_correct, (_correct_options,), dict(
        help="apply suggested symbols at flagged entries",
        description="Rewrite a genotype corpus using the flagged suggestions "
                    "of a detect report.")),
    "recover": (_cmd_recover, (_jsonf, _recover_options), dict(
        help="fill missing symbols by posterior argmax",
        description="Replace every '?' with its most probable symbol under "
                    "the model.",
        epilog="fills TSV columns: " + " ".join(RECOVERY_COLUMNS))),
    "impute": (_cmd_impute, (_fitted, _windowed, _seeded, _jsonf, _impute_options), dict(
        help="call untyped loci from a reference panel",
        description="Train a local window model around each untyped locus on "
                    "the reference panel and call the posterior-argmax "
                    "genotype per sample.",
        epilog="TSV columns: " + " ".join(IMPUTATION_COLUMNS))),
    "phase": (_cmd_phase, (_phase_options,), dict(
        help="decode each genotype into a haplotype pair",
        description="Max-product decoding of the most probable ordered "
                    "haplotype pair per sample; writes a haplotype file with "
                    "rows <sample>.h1 and <sample>.h2.")),
    "pipeline": (_cmd_pipeline,
                 (_fitted, _windowed, _screened, _seeded, _jsonf, _pipeline_options), dict(
        help="run a full flow over one dataset",
        description="'imp' imputes directly; 'edc-mdr-imp' first repairs the "
                    "corpus (detect/correct errors, then fill missing "
                    "symbols) using a typed-locus model trained on the "
                    "reference pooled with haplotypes decoded from the corpus "
                    "itself.")),
    "simulate": (_cmd_simulate, (_simulated, _seeded, _simulate_options), dict(
        help="generate a seeded synthetic dataset",
        description="Founder-mosaic haplotypes and genotypes pushed through "
                    "error, missingness, and masking channels (in that "
                    "order). Writes <prefix>.gen, .map, .ref.hap, "
                    ".ref.typed.hap, .truth.gen, .truth.hap, and "
                    ".channels.json.")),
    "evaluate": (_cmd_evaluate, (_jsonf, _evaluate_options), dict(
        help="score calls against ground truth",
        description="Discordance accounting of an imputation report or a "
                    "completed genotype corpus against truth genotypes; "
                    "prints a one-line summary on stdout.")),
    "sweep": (_cmd_sweep, (_simulated, _seeded, _sweep_options), dict(
        help="grid of pipeline runs on one synthetic dataset",
        description="Cross product over founder counts, nested panel sizes, "
                    "window flanks, and modes; one row per cell. Wall times "
                    "go to --timings, keeping the main table byte-stable.")),
    "bench": (_cmd_bench, (_seeded, _bench_options), dict(
        help="time the batch engine along three axes",
        description="Median wall times for growing locus count, sample "
                    "count, and founder count, with fitted log-log growth "
                    "exponents. The output is a timing artifact.")),
}


def main(argv=None) -> int:
    # a named subcommand needs only its own parser; usage, help and an
    # unknown name need all of them
    argv = sys.argv[1:] if argv is None else argv
    parser, commands = _build_parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None)
    try:
        args = parser.parse_args(argv)
        path = args.config or os.environ.get(CONFIG_ENV)
        if path:
            _apply_config(commands[args.subcommand], path)
            args = parser.parse_args(argv)
        args.handler(args)
        return 0
    except _HelpShown:
        return 0
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ZeroProbabilityError as exc:
        print(f"error: zero probability at locus {exc.locus}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # anything else is a bug, not bad input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
