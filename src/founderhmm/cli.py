"""Command-line surface.

Eleven subcommands tie the library into runnable pipelines: train, detect,
correct, recover, impute, phase, pipeline, simulate, evaluate, sweep,
bench. Every option resolves as flags > config file (JSON, via --config or
the FOUNDERHMM_CONFIG environment variable) > built-in default, and the
effective settings are echoed as a ``#config:`` line into each output.
Engine toggles (--naive, --block-size, --threads) resolve the same way
and change how answers are computed, never what they are, so they stay
out of the echo and outputs stay diffable across engines. --threads
defaults to 1: the window pool contends for the interpreter lock, so more
threads slow imputation down. Timing goes to stderr or to explicitly
requested log files, never into primary artifacts (bench excepted — its
whole artifact is a timing table).

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
                       detect_errors, impute_untyped, phase_decode,
                       recover_missing, run_pipeline)
from .io_formats import (CONFIG_ENV, ERROR_REPORT_COLUMNS, IMPUTATION_COLUMNS,
                         RECOVERY_COLUMNS, atomic_write, fmt, load_config_file,
                         read_error_report, read_genotypes, read_haplotypes,
                         read_imputation, read_locus_map, read_model,
                         write_bench_table, write_channels, write_error_report,
                         write_eval_report, write_genotypes, write_haplotypes,
                         write_imputation, write_locus_map, write_model,
                         write_recovery, write_sweep_table)
from .model import InputError, ZeroProbabilityError
from .simulate import SimConfig, bench_scaling, evaluate, simulate, sweep
from .training import TrainConfig, train_founder_hmm


class _Parser(argparse.ArgumentParser):
    """Argparse that reports usage problems as input errors (exit 1)
    instead of hard-exiting with status 2."""

    def error(self, message):
        raise InputError(message)


def _build_parser():
    parser = _Parser(prog="founderhmm",
                     description="Founder-pair HMM toolkit for multilocus "
                                 "SNP genotypes: training, error screening, "
                                 "missing-data recovery, imputation, phasing, "
                                 "and synthetic benchmarking.")
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")
    sub.required = True

    common = _Parser(add_help=False)
    common.add_argument("--config", help=f"JSON config file of option defaults "
                        f"(also via ${CONFIG_ENV})")

    engine = _Parser(add_help=False)
    engine.add_argument("--naive", action="store_true", default=None,
                        help="per-sample inference instead of the shared-"
                             "prefix batch engine (identical output)")
    engine.add_argument("--block-size", type=int, default=None,
                        help="bound backward-state memory by recomputing in "
                             "blocks of this many loci (identical output)")

    jsonf = _Parser(add_help=False)
    jsonf.add_argument("--json", action="store_true", default=None,
                       help="write the report as JSON instead of TSV")

    p = sub.add_parser("train", parents=[common],
                       help="fit model parameters to a haplotype panel",
                       description="Fit founder-HMM parameters to a "
                                   "haplotype panel by expectation-"
                                   "maximization and write a model file.")
    p.add_argument("--panel", required=True, help="haplotype panel file")
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--founders", type=int, default=None,
                   help="number of founder states (default 7)")
    p.add_argument("--max-iterations", type=int, default=None)
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--pseudocount", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--log", default=None,
                   help="write iteration trace and timing here (default: "
                        "summary on stderr)")
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("detect", parents=[common, engine, jsonf],
                       help="screen typed symbols for likely errors",
                       description="Flag symbols whose best substitution "
                                   "beats the observed symbol by more than "
                                   "the threshold likelihood ratio.",
                       epilog="TSV columns: " + " ".join(ERROR_REPORT_COLUMNS))
    p.add_argument("--model", required=True)
    p.add_argument("--genotypes", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=float, default=None,
                   help="flagging ratio (default 1000)")
    p.add_argument("--map", default=None,
                   help="locus map; typed locus ids label the report rows")
    p.set_defaults(handler=_cmd_detect)

    p = sub.add_parser("correct", parents=[common],
                       help="apply suggested symbols at flagged entries",
                       description="Rewrite a genotype corpus using the "
                                   "flagged suggestions of a detect report.")
    p.add_argument("--genotypes", required=True)
    p.add_argument("--report", required=True, help="detect output (TSV or JSON)")
    p.add_argument("--out", required=True, help="corrected genotype file")
    p.set_defaults(handler=_cmd_correct)

    p = sub.add_parser("recover", parents=[common, engine, jsonf],
                       help="fill missing symbols by posterior argmax",
                       description="Replace every '?' with its most probable "
                                   "symbol under the model.",
                       epilog="fills TSV columns: " + " ".join(RECOVERY_COLUMNS))
    p.add_argument("--model", required=True)
    p.add_argument("--genotypes", required=True)
    p.add_argument("--out", required=True, help="completed genotype file")
    p.add_argument("--fills", default=None, help="optional fill log")
    p.set_defaults(handler=_cmd_recover)

    p = sub.add_parser("impute", parents=[common, engine, jsonf],
                       help="call untyped loci from a reference panel",
                       description="Train a local window model around each "
                                   "untyped locus on the reference panel and "
                                   "call the posterior-argmax genotype per "
                                   "sample.",
                       epilog="TSV columns: " + " ".join(IMPUTATION_COLUMNS))
    p.add_argument("--panel", required=True, help="reference haplotypes (full map)")
    p.add_argument("--genotypes", required=True, help="typed-locus corpus")
    p.add_argument("--map", required=True, help="locus map with typed/untyped labels")
    p.add_argument("--out", required=True)
    p.add_argument("--founders", type=int, default=None)
    p.add_argument("--flank", type=int, default=None,
                   help="typed loci on each side of a window (default 10)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=None,
                   help="windows trained in parallel (default 1)")
    p.set_defaults(handler=_cmd_impute)

    p = sub.add_parser("phase", parents=[common],
                       help="decode each genotype into a haplotype pair",
                       description="Max-product decoding of the most "
                                   "probable ordered haplotype pair per "
                                   "sample; writes a haplotype file with "
                                   "rows <sample>.h1 and <sample>.h2.")
    p.add_argument("--model", required=True)
    p.add_argument("--genotypes", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_phase)

    p = sub.add_parser("pipeline", parents=[common, engine, jsonf],
                       help="run a full flow over one dataset",
                       description="'imp' imputes directly; 'edc-mdr-imp' "
                                   "first repairs the corpus (detect/correct "
                                   "errors, then fill missing symbols) using "
                                   "a typed-locus model trained on the "
                                   "reference pooled with haplotypes decoded "
                                   "from the corpus itself.")
    p.add_argument("--mode", choices=[PIPELINE_IMPUTE_ONLY, PIPELINE_REPAIR_IMPUTE],
                   default=None)
    p.add_argument("--panel", required=True)
    p.add_argument("--genotypes", required=True)
    p.add_argument("--map", required=True)
    p.add_argument("--out", required=True, help="imputation report")
    p.add_argument("--corpus-out", default=None,
                   help="write the repaired typed-locus corpus here")
    p.add_argument("--report-out", default=None,
                   help="write the error-detection report here")
    p.add_argument("--founders", type=int, default=None)
    p.add_argument("--flank", type=int, default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(handler=_cmd_pipeline)

    p = sub.add_parser("simulate", parents=[common],
                       help="generate a seeded synthetic dataset",
                       description="Founder-mosaic haplotypes and genotypes "
                                   "pushed through error, missingness, and "
                                   "masking channels (in that order). Writes "
                                   "<prefix>.gen, .map, .ref.hap, "
                                   ".ref.typed.hap, .truth.gen, .truth.hap, "
                                   "and .channels.json.")
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--founders", type=int, default=None,
                   help="simulated founder count (default 5)")
    p.add_argument("--loci", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--panel-size", type=int, default=None)
    p.add_argument("--switch-rate", type=float, default=None)
    p.add_argument("--error-rate", type=float, default=None)
    p.add_argument("--missing-rate", type=float, default=None)
    p.add_argument("--mask-fraction", type=float, default=None)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("evaluate", parents=[common, jsonf],
                       help="score calls against ground truth",
                       description="Discordance accounting of an imputation "
                                   "report or a completed genotype corpus "
                                   "against truth genotypes; prints a "
                                   "one-line summary on stdout.")
    p.add_argument("--calls", required=True,
                   help="imputation report or genotype file")
    p.add_argument("--truth", required=True, help="truth genotype file")
    p.add_argument("--kind", choices=["corpus", "imputation"], default=None,
                   help="how to read --calls (default corpus)")
    p.add_argument("--map", default=None,
                   help="locus map; with kind=corpus, restricts full-map "
                        "truth to typed columns; with kind=imputation, "
                        "restricts scoring to untyped loci")
    p.add_argument("--out", default=None, help="optional report file")
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("sweep", parents=[common],
                       help="grid of pipeline runs on one synthetic dataset",
                       description="Cross product over founder counts, "
                                   "nested panel sizes, window flanks, and "
                                   "modes; one row per cell. Wall times go "
                                   "to --timings, keeping the main table "
                                   "byte-stable.")
    p.add_argument("--out", required=True, help="result table (no timings)")
    p.add_argument("--timings", default=None, help="timing table")
    p.add_argument("--founders-grid", default=None, help="e.g. 3,5,7")
    p.add_argument("--panel-grid", default=None, help="e.g. 30,60,120")
    p.add_argument("--flank-grid", default=None, help="e.g. 5,10")
    p.add_argument("--modes", default=None, help="e.g. imp,edc-mdr-imp")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--loci", type=int, default=None)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--switch-rate", type=float, default=None)
    p.add_argument("--error-rate", type=float, default=None)
    p.add_argument("--missing-rate", type=float, default=None)
    p.add_argument("--mask-fraction", type=float, default=None)
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("bench", parents=[common],
                       help="time the batch engine along three axes",
                       description="Median wall times for growing locus "
                                   "count, sample count, and founder count, "
                                   "with fitted log-log growth exponents. "
                                   "The output is a timing artifact.")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--repeats", type=int, default=None)
    p.add_argument("--loci-grid", default=None)
    p.add_argument("--sample-grid", default=None)
    p.add_argument("--founder-grid", default=None)
    p.set_defaults(handler=_cmd_bench)

    return parser


# ------------------------------------------------------------- resolution

def _load_defaults(args):
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV)
    return load_config_file(path) if path else {}


def _resolver(args, defaults):
    def resolve(name, fallback):
        value = getattr(args, name, None)
        if value is not None:
            return value
        if name in defaults:
            return defaults[name]
        return fallback
    return resolve


def _int_list(text, flag):
    try:
        values = tuple(int(v) for v in str(text).split(","))
    except ValueError:
        raise InputError(f"{flag} expects a comma-separated integer list, got {text!r}")
    if not values:
        raise InputError(f"{flag} must name at least one value")
    return values


def _echo(subcommand, pairs):
    body = " ".join(f"{key}={value}" for key, value in sorted(pairs.items()))
    return f"#config: {subcommand} {body}"


def _note(message):
    print(message, file=sys.stderr)


# ------------------------------------------------------------- subcommands

def _cmd_train(args, resolve):
    founders = int(resolve("founders", 7))
    cfg = TrainConfig(founders=founders,
                      max_iterations=int(resolve("max_iterations", 100)),
                      tolerance=float(resolve("tolerance", 1e-5)),
                      seed=int(resolve("seed", 0)),
                      pseudocount=float(resolve("pseudocount", 1e-6)))
    panel = read_haplotypes(args.panel)
    start = time.perf_counter()
    model, report = train_founder_hmm(panel, cfg)
    seconds = time.perf_counter() - start
    echo = _echo("train", {"panel": args.panel, "founders": cfg.founders,
                           "max_iterations": cfg.max_iterations,
                           "tolerance": cfg.tolerance, "seed": cfg.seed,
                           "pseudocount": cfg.pseudocount})
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


def _cmd_detect(args, resolve):
    model = read_model(args.model)
    corpus = read_genotypes(args.genotypes)
    if not corpus:
        raise InputError(f"{args.genotypes}: empty corpus")
    threshold = float(resolve("threshold", DEFAULT_RATIO_THRESHOLD))
    locus_ids = _map_typed_ids(args.map, len(corpus[0])) if args.map else None
    report = detect_errors(model, corpus, threshold, locus_ids=locus_ids,
                           naive=bool(resolve("naive", False)),
                           block_size=resolve("block_size", None))
    echo = _echo("detect", {"model": args.model, "genotypes": args.genotypes,
                            "threshold": threshold,
                            "map": args.map or "-"})
    write_error_report(args.out, report, config_line=echo,
                       json_mode=bool(resolve("json", False)))
    _note(f"flagged {len(report.flagged())} of {len(report.entries)} symbols "
          f"at ratio > {threshold:g}")


def _cmd_correct(args, resolve):
    corpus = read_genotypes(args.genotypes)
    report = read_error_report(args.report)
    corrected, changes = correct_errors(corpus, report)
    echo = _echo("correct", {"genotypes": args.genotypes,
                             "report": args.report,
                             "threshold": report.threshold})
    write_genotypes(args.out, corrected, config_line=echo)
    _note(f"changed {changes} symbols")


def _cmd_recover(args, resolve):
    model = read_model(args.model)
    corpus = read_genotypes(args.genotypes)
    result = recover_missing(model, corpus,
                             naive=bool(resolve("naive", False)),
                             block_size=resolve("block_size", None))
    echo = _echo("recover", {"model": args.model, "genotypes": args.genotypes})
    write_genotypes(args.out, result.corpus, config_line=echo)
    if args.fills:
        write_recovery(args.fills, result, config_line=echo,
                       json_mode=bool(resolve("json", False)))
    skipped = f", {len(result.failures)} samples skipped" if result.failures else ""
    _note(f"filled {len(result.fills)} missing symbols{skipped}")


def _cmd_impute(args, resolve):
    reference = read_haplotypes(args.panel)
    corpus = read_genotypes(args.genotypes)
    locus_map = read_locus_map(args.map)
    founders = int(resolve("founders", 7))
    flank = int(resolve("flank", 10))
    seed = int(resolve("seed", 0))
    cfg = TrainConfig(founders=founders, seed=seed)
    result = impute_untyped(reference, corpus, locus_map, cfg,
                            window=WindowSpec(flank=flank),
                            naive=bool(resolve("naive", False)),
                            block_size=resolve("block_size", None),
                            threads=int(resolve("threads", 1)))
    echo = _echo("impute", {"panel": args.panel, "genotypes": args.genotypes,
                            "map": args.map, "founders": founders,
                            "flank": flank, "seed": seed})
    write_imputation(args.out, result, config_line=echo,
                     json_mode=bool(resolve("json", False)))
    _note(f"imputed {len(result.entries)} genotype calls across "
          f"{len(result.windows)} windows")


def _cmd_phase(args, resolve):
    model = read_model(args.model)
    corpus = read_genotypes(args.genotypes)
    haplotypes = []
    for g in corpus:
        try:
            decoded = phase_decode(model, g)
        except ZeroProbabilityError as exc:
            raise InputError(f"{args.genotypes}: sample {g.sample_id!r} has "
                             f"zero probability at locus {exc.locus}") from exc
        haplotypes.extend((decoded.first, decoded.second))
    echo = _echo("phase", {"model": args.model, "genotypes": args.genotypes})
    write_haplotypes(args.out, haplotypes, config_line=echo)
    _note(f"phased {len(corpus)} samples")


def _cmd_pipeline(args, resolve):
    reference = read_haplotypes(args.panel)
    corpus = read_genotypes(args.genotypes)
    locus_map = read_locus_map(args.map)
    mode = str(resolve("mode", PIPELINE_IMPUTE_ONLY))
    founders = int(resolve("founders", 7))
    flank = int(resolve("flank", 10))
    threshold = float(resolve("threshold", DEFAULT_RATIO_THRESHOLD))
    seed = int(resolve("seed", 0))
    cfg = TrainConfig(founders=founders, seed=seed)
    result = run_pipeline(mode, reference, corpus, locus_map, cfg,
                          window=WindowSpec(flank=flank), threshold=threshold,
                          naive=bool(resolve("naive", False)),
                          block_size=resolve("block_size", None),
                          threads=int(resolve("threads", 1)))
    echo = _echo("pipeline", {"mode": mode, "panel": args.panel,
                              "genotypes": args.genotypes, "map": args.map,
                              "founders": founders, "flank": flank,
                              "threshold": threshold, "seed": seed})
    json_mode = bool(resolve("json", False))
    write_imputation(args.out, result.imputation, config_line=echo,
                     json_mode=json_mode)
    if args.corpus_out:
        write_genotypes(args.corpus_out, result.corpus_out, config_line=echo)
    if args.report_out:
        if result.error_report is None:
            raise InputError("--report-out needs --mode edc-mdr-imp")
        write_error_report(args.report_out, result.error_report,
                           config_line=echo, json_mode=json_mode)
    for stage in result.stages:
        counters = " ".join(f"{k}={v}" for k, v in sorted(stage.counters.items()))
        _note(f"[{stage.name}] {stage.seconds:.2f}s {counters}")


def _cmd_simulate(args, resolve):
    cfg = SimConfig(founder_count=int(resolve("founders", 5)),
                    loci=int(resolve("loci", 200)),
                    sample_count=int(resolve("samples", 50)),
                    panel_size=int(resolve("panel_size", 100)),
                    switch_rate=float(resolve("switch_rate", 0.02)),
                    error_rate=float(resolve("error_rate", 0.0)),
                    missing_rate=float(resolve("missing_rate", 0.0)),
                    mask_fraction=float(resolve("mask_fraction", 0.0)),
                    seed=int(resolve("seed", 0)))
    data = simulate(cfg)
    prefix = args.out_prefix
    echo = _echo("simulate", {"founders": cfg.founder_count, "loci": cfg.loci,
                              "samples": cfg.sample_count,
                              "panel_size": cfg.panel_size,
                              "switch_rate": cfg.switch_rate,
                              "error_rate": cfg.error_rate,
                              "missing_rate": cfg.missing_rate,
                              "mask_fraction": cfg.mask_fraction,
                              "seed": cfg.seed})
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


def _cmd_evaluate(args, resolve):
    kind = str(resolve("kind", "corpus"))
    truth = read_genotypes(args.truth)
    locus_map = read_locus_map(args.map) if args.map else None
    loci = None
    if kind == "imputation":
        calls = read_imputation(args.calls)
        if locus_map is not None:
            loci = [int(j) for j in locus_map.untyped_indices()]
    else:
        calls = read_genotypes(args.calls)
        if (locus_map is not None and calls
                and truth and len(truth[0]) != len(calls[0])):
            typed = locus_map.typed_indices()
            if typed.size != len(calls[0]):
                raise InputError(
                    f"{args.map}: {typed.size} typed loci but calls have "
                    f"{len(calls[0])}")
            truth = [type(g)(g.sample_id, g.symbols[typed]) for g in truth]
    report = evaluate(calls, truth, loci=loci)
    echo = _echo("evaluate", {"calls": args.calls, "truth": args.truth,
                              "kind": kind, "map": args.map or "-"})
    if args.out:
        write_eval_report(args.out, report, config_line=echo,
                          json_mode=bool(resolve("json", False)))
    print(f"total={report.total} discordant={report.discordant} "
          f"discordance_rate={report.discordance_rate:.6g}")


def _cmd_sweep(args, resolve):
    founder_counts = _int_list(resolve("founders_grid", "7"), "--founders-grid")
    panel_sizes = _int_list(resolve("panel_grid", "100"), "--panel-grid")
    flanks = _int_list(resolve("flank_grid", "10"), "--flank-grid")
    modes = tuple(str(resolve("modes", PIPELINE_IMPUTE_ONLY)).split(","))
    for mode in modes:
        if mode not in (PIPELINE_IMPUTE_ONLY, PIPELINE_REPAIR_IMPUTE):
            raise InputError(f"--modes: unknown pipeline mode {mode!r}")
    cfg = SimConfig(founder_count=int(resolve("founders", 5)),
                    loci=int(resolve("loci", 200)),
                    sample_count=int(resolve("samples", 50)),
                    panel_size=max(panel_sizes),
                    switch_rate=float(resolve("switch_rate", 0.02)),
                    error_rate=float(resolve("error_rate", 0.0)),
                    missing_rate=float(resolve("missing_rate", 0.0)),
                    mask_fraction=float(resolve("mask_fraction", 0.09)),
                    seed=int(resolve("seed", 0)))
    data = simulate(cfg)
    rows = sweep(data, founder_counts=founder_counts, panel_sizes=panel_sizes,
                 flanks=flanks, modes=modes, threads=int(resolve("threads", 1)))
    echo = _echo("sweep", {"founders_grid": ",".join(map(str, founder_counts)),
                           "panel_grid": ",".join(map(str, panel_sizes)),
                           "flank_grid": ",".join(map(str, flanks)),
                           "modes": ",".join(modes), "loci": cfg.loci,
                           "samples": cfg.sample_count,
                           "switch_rate": cfg.switch_rate,
                           "error_rate": cfg.error_rate,
                           "missing_rate": cfg.missing_rate,
                           "mask_fraction": cfg.mask_fraction,
                           "seed": cfg.seed})
    write_sweep_table(args.out, rows, config_line=echo, with_seconds=False)
    if args.timings:
        write_sweep_table(args.timings, rows, config_line=echo,
                          with_seconds=True)
    failed = sum(r.failed for r in rows)
    _note(f"swept {len(rows)} cells ({failed} failed)")


def _cmd_bench(args, resolve):
    kwargs = {"repeats": int(resolve("repeats", 3)),
              "seed": int(resolve("seed", 0))}
    if args.loci_grid is not None:
        kwargs["loci_grid"] = _int_list(args.loci_grid, "--loci-grid")
    if args.sample_grid is not None:
        kwargs["sample_grid"] = _int_list(args.sample_grid, "--sample-grid")
    if args.founder_grid is not None:
        kwargs["founder_grid"] = _int_list(args.founder_grid, "--founder-grid")
    report = bench_scaling(**kwargs)
    echo = _echo("bench", {"seed": kwargs["seed"], "repeats": kwargs["repeats"]})
    write_bench_table(args.out, report, config_line=echo)
    exps = " ".join(f"{axis}={report.exponents[axis]:.3f}"
                    for axis in sorted(report.exponents))
    _note(f"fitted exponents: {exps}")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        defaults = _load_defaults(args)
        resolve = _resolver(args, defaults)
        args.handler(args, resolve)
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
