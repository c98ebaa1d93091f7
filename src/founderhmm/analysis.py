"""Analysis flows built on the founder-pair model.

Four flows share the batched posterior engine: likelihood-ratio error
detection (with correction), missing-symbol recovery, untyped-locus
imputation through locally trained window models, and max-product decoding
of a genotype into an ordered haplotype pair. ``run_pipeline`` strings them
together in the two supported orders.
"""
from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (MISSING, FounderHMM, InputError, HaplotypeSequence,
                    LocusMap, MultilocusGenotype, ZeroProbabilityError,
                    emission_stack, symbol_plane)
from .training import TrainConfig, train_founder_hmm, window_config
from .trie import batched_posteriors

PIPELINE_IMPUTE_ONLY = "imp"
PIPELINE_REPAIR_IMPUTE = "edc-mdr-imp"
DEFAULT_RATIO_THRESHOLD = 1000.0


class ErrorEntry(NamedTuple):
    sample_id: str
    locus_index: int
    locus_id: str
    observed: int
    ratio: float
    flagged: bool
    suggested: int


@dataclass(frozen=True)
class ErrorReport:
    """One entry per non-missing symbol, in corpus order then locus order."""

    entries: tuple
    threshold: float
    failures: dict
    stats: object

    def flagged(self):
        return [e for e in self.entries if e.flagged]


def _entry_locus_ids(locus_ids, n):
    if locus_ids is None:
        return [str(i) for i in range(n)]
    ids = [str(x) for x in locus_ids]
    if len(ids) != n:
        raise InputError(f"{len(ids)} locus ids for {n} corpus loci")
    return ids


def _suggest(row, observed):
    """Argmax symbol of one posterior triple; ties prefer the observed
    symbol, then the smallest code."""
    mx = row.max()
    if observed is not None and 0 <= observed <= 2 and row[observed] == mx:
        return int(observed)
    return int(np.argmax(row))


def detect_errors(model: FounderHMM, corpus, threshold: float = DEFAULT_RATIO_THRESHOLD,
                  *, locus_ids=None, block_size: int | None = None) -> ErrorReport:
    """Likelihood-ratio screen of every typed symbol.

    The ratio compares the best single-symbol substitution at a locus with
    the observed symbol, max_x P(g with x at i) / P(g), computed from the
    unnormalized per-locus substitution weights so a zero-probability
    observed symbol yields an infinite ratio rather than an error. A symbol
    is flagged when its ratio exceeds ``threshold``.
    """
    if not threshold > 0:
        raise InputError(f"threshold must be positive, got {threshold}")
    genos = list(corpus)
    batch = batched_posteriors(model, genos, block_size=block_size)
    ids = _entry_locus_ids(locus_ids, len(genos[0]))
    entries = []
    for g in genos:
        scan = batch.scans[g.sample_id]
        for i, sym in enumerate(g.symbols):
            sym = int(sym)
            if sym == MISSING:
                continue
            row = scan.triples[i]
            best = float(row.max())
            observed = float(row[sym])
            if observed > 0.0:
                ratio = best / observed
            elif best > 0.0:
                ratio = float("inf")
            else:
                # Nothing at this locus can rescue the genotype; the
                # observed symbol ties the (zero) maximum.
                ratio = 1.0
            flagged = ratio > threshold
            entries.append(ErrorEntry(g.sample_id, i, ids[i], sym, ratio,
                                      flagged, _suggest(row, sym)))
    return ErrorReport(entries=tuple(entries), threshold=float(threshold),
                       failures=dict(batch.failures), stats=batch.stats)


def correct_errors(corpus, report: ErrorReport):
    """Apply the suggested symbol at every flagged entry.

    Returns (corrected corpus, change count). The report must have been
    generated from this corpus; observed-symbol mismatches are rejected.
    """
    genos = list(corpus)
    by_id = {g.sample_id: np.array(g.symbols) for g in genos}
    if len(by_id) != len(genos):
        raise InputError("corpus sample ids must be unique")
    changes = 0
    for e in report.entries:
        symbols = by_id.get(e.sample_id)
        if symbols is None:
            raise InputError(f"report names unknown sample {e.sample_id!r}")
        if not 0 <= e.locus_index < symbols.shape[0]:
            raise InputError(f"report locus {e.locus_index} out of range")
        if int(symbols[e.locus_index]) != e.observed:
            raise InputError(
                f"report does not match corpus at {e.sample_id!r} locus {e.locus_index}")
        if e.flagged and e.suggested != e.observed:
            symbols[e.locus_index] = e.suggested
            changes += 1
    corrected = [MultilocusGenotype(g.sample_id, by_id[g.sample_id]) for g in genos]
    return corrected, changes


class RecoveryFill(NamedTuple):
    sample_id: str
    locus_index: int
    symbol: int
    confidence: float


@dataclass(frozen=True)
class RecoveryResult:
    corpus: list
    fills: tuple
    failures: dict
    stats: object


def recover_missing(model: FounderHMM, corpus, *,
                    block_size: int | None = None) -> RecoveryResult:
    """Replace every MISSING symbol with its posterior argmax.

    Completed genotypes pass through unchanged so the operation is a
    fixpoint. Samples whose posterior has no mass at a missing locus are
    left untouched and reported in ``failures``.
    """
    genos = list(corpus)
    batch = batched_posteriors(model, genos, block_size=block_size)
    fills = []
    failures = dict(batch.failures)
    out = []
    for g in genos:
        missing = np.flatnonzero(g.missing_mask)
        if missing.size == 0:
            out.append(g)
            continue
        scan = batch.scans[g.sample_id]
        symbols = np.array(g.symbols)
        ok = True
        for i in missing:
            row = scan.triples[i]
            total = float(row.sum())
            if total <= 0.0:
                ok = False
                failures.setdefault(g.sample_id, int(i))
                break
            call = _suggest(row, None)
            symbols[i] = call
            fills.append(RecoveryFill(g.sample_id, int(i), call,
                                      float(row[call] / total)))
        out.append(MultilocusGenotype(g.sample_id, symbols) if ok else g)
    return RecoveryResult(corpus=out, fills=tuple(fills), failures=failures,
                          stats=batch.stats)


@dataclass(frozen=True)
class WindowSpec:
    """Local window around an untyped locus: up to ``flank`` typed loci on
    each side, truncated at the ends but never below one typed locus on a
    side that has any."""

    flank: int = 10

    def __post_init__(self):
        if self.flank < 1:
            raise InputError("window flank must be >= 1")


class ImputationEntry(NamedTuple):
    sample_id: str
    locus_index: int
    locus_id: str
    probs: tuple
    call: int
    confidence: float


@dataclass(frozen=True)
class WindowReport:
    lo: int
    hi: int
    targets: tuple
    train_iterations: int
    model: FounderHMM | None


@dataclass(frozen=True)
class ImputationResult:
    entries: tuple
    windows: tuple
    failures: tuple
    forward_locus_evals: int
    backward_locus_evals: int


def window_spans(locus_map: LocusMap, spec: WindowSpec):
    """Group untyped loci by the contiguous span of their flank windows.

    Targets between the same outermost typed flanks share one span (and
    therefore one trained window model and one posterior pass).
    """
    typed_idx = locus_map.typed_indices()
    untyped_idx = locus_map.untyped_indices()
    if untyped_idx.size == 0:
        return []
    if typed_idx.size == 0:
        raise InputError("cannot impute: the locus map has no typed locus")
    spans = {}
    for u in untyped_idx:
        left = typed_idx[typed_idx < u]
        right = typed_idx[typed_idx > u]
        lsel = left[-spec.flank:]
        rsel = right[:spec.flank]
        lo = int(lsel[0]) if lsel.size else int(u)
        hi = int(rsel[-1]) if rsel.size else int(u)
        spans.setdefault((lo, hi), []).append(int(u))
    return sorted((span, tuple(t)) for span, t in spans.items())


def _window_corpus(genos, locus_map, lo, hi):
    """Corpus rows restricted to one window; untyped columns are MISSING."""
    typed_idx = locus_map.typed_indices()
    col_of = {int(j): c for c, j in enumerate(typed_idx)}
    width = hi - lo + 1
    out = []
    for g in genos:
        symbols = np.full(width, MISSING, dtype=np.int8)
        for j in range(lo, hi + 1):
            c = col_of.get(j)
            if c is not None:
                symbols[j - lo] = g.symbols[c]
        out.append(MultilocusGenotype(g.sample_id, symbols))
    return out


def impute_untyped(reference, corpus, locus_map: LocusMap, config: TrainConfig,
                   *, window: WindowSpec = WindowSpec(),
                   block_size: int | None = None, threads: int = 1,
                   keep_models: bool = False) -> ImputationResult:
    """Posterior calls at every untyped locus.

    Each window model is trained on the reference haplotypes restricted to
    the window's loci (iteration cap of 50), then the corpus rows are
    scored in one batched pass per window with the target column MISSING.
    Windows are independent, so they parallelize across ``threads``.
    """
    if not threads >= 1:
        raise InputError(f"threads must be >= 1, got {threads}")
    reference = list(reference)
    genos = list(corpus)
    if not reference:
        raise InputError("reference panel must be non-empty")
    for h in reference:
        if len(h) != len(locus_map):
            raise InputError(
                f"reference haplotype {h.id!r} has {len(h)} loci, map has {len(locus_map)}")
    typed_idx = locus_map.typed_indices()
    for g in genos:
        if len(g) != typed_idx.size:
            raise InputError(
                f"genotype {g.sample_id!r} has {len(g)} loci, map has {typed_idx.size} typed")
    groups = window_spans(locus_map, window)
    wcfg = window_config(config)

    def run_group(item):
        (lo, hi), targets = item
        ref_window = [HaplotypeSequence(h.id, h.alleles[lo:hi + 1]) for h in reference]
        wmodel, wreport = train_founder_hmm(ref_window, wcfg)
        wcorpus = _window_corpus(genos, locus_map, lo, hi)
        batch = batched_posteriors(wmodel, wcorpus, block_size=block_size)
        rows = {}
        for g in genos:
            scan = batch.scans[g.sample_id]
            rows[g.sample_id] = [scan.triples[t - lo] for t in targets]
        return (lo, hi, targets, wreport.iterations_run,
                wmodel if keep_models else None, rows, batch.stats)

    if threads > 1 and len(groups) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run_group, groups))
    else:
        results = [run_group(item) for item in groups]

    per_position = {}
    windows = []
    failures = []
    fevals = bevals = 0
    for lo, hi, targets, iters, wmodel, rows, stats in results:
        windows.append(WindowReport(lo, hi, targets, iters, wmodel))
        fevals += stats.forward_locus_evals
        bevals += stats.backward_locus_evals
        for g in genos:
            for t, row in zip(targets, rows[g.sample_id]):
                total = float(row.sum())
                if total <= 0.0:
                    failures.append((g.sample_id, int(t)))
                    continue
                probs = tuple(float(v / total) for v in row)
                call = _suggest(row, None)
                per_position[(g.sample_id, int(t))] = ImputationEntry(
                    g.sample_id, int(t), locus_map.locus_ids[t], probs, call,
                    probs[call])
    order = {g.sample_id: i for i, g in enumerate(genos)}
    entries = sorted(per_position.values(),
                     key=lambda e: (order[e.sample_id], e.locus_index))
    return ImputationResult(entries=tuple(entries), windows=tuple(windows),
                            failures=tuple(sorted(failures, key=lambda f: (order[f[0]], f[1]))),
                            forward_locus_evals=fevals, backward_locus_evals=bevals)


@dataclass(frozen=True)
class PhaseResult:
    """Most probable haplotype pair explaining one genotype.

    ``first`` <= ``second`` lexicographically; log_joint is the log
    probability of the decoded founder path pair together with the
    observed symbols.
    """

    first: HaplotypeSequence
    second: HaplotypeSequence
    founder_paths: np.ndarray  # (2, n)
    log_joint: float


def phase_decode(model: FounderHMM, genotype: MultilocusGenotype) -> PhaseResult:
    """Max-product decode over founder pairs, then per-locus haplotype
    assignment consistent with the observed symbol.

    The pair maximization collapses into two K-sized max-contractions per
    locus (mirroring the sum-product factorization), with per-locus max
    rescaling against underflow.
    """
    symbols = genotype.symbols
    if symbols.shape[0] != model.loci:
        raise InputError(
            f"genotype has {symbols.shape[0]} loci but the model has {model.loci}")
    n, k = model.loci, model.founders
    etab = emission_stack(model)
    trans = model.transitions
    value = np.outer(model.initial, model.initial)
    logscale = 0.0
    back_first = np.empty((max(n - 1, 0), k, k), dtype=np.int64)
    back_second = np.empty((max(n - 1, 0), k, k), dtype=np.int64)
    for i in range(n):
        hit = value * etab[i, symbol_plane(symbols[i])]
        peak = float(hit.max())
        if peak <= 0.0:
            raise ZeroProbabilityError(i)
        hit /= peak
        logscale += np.log(peak)
        if i == n - 1:
            value = hit
            break
        # collapse the second chain, then the first
        half = hit[:, :, None] * trans[i][None, :, :]      # (f, f', b)
        back_second[i] = half.argmax(axis=1)
        collapsed = half.max(axis=1)                       # (f, b)
        full = trans[i][:, :, None] * collapsed[:, None, :]  # (f, a, b)
        back_first[i] = full.argmax(axis=0)
        value = full.max(axis=0)

    flat = int(np.argmax(value))
    pair = np.unravel_index(flat, (k, k))
    paths = np.empty((2, n), dtype=np.int64)
    paths[0, n - 1], paths[1, n - 1] = int(pair[0]), int(pair[1])
    log_joint = logscale + float(np.log(value[pair]))
    for i in range(n - 2, -1, -1):
        a, b = paths[0, i + 1], paths[1, i + 1]
        f = int(back_first[i][a, b])
        paths[0, i] = f
        paths[1, i] = int(back_second[i][f, b])

    first = np.empty(n, dtype=np.int8)
    second = np.empty(n, dtype=np.int8)
    for i in range(n):
        sym = int(symbols[i])
        p = model.emissions[i, paths[0, i]]
        q = model.emissions[i, paths[1, i]]
        if sym == 0:
            first[i], second[i] = 0, 0
        elif sym == 2:
            first[i], second[i] = 1, 1
        elif sym == 1:
            first[i], second[i] = (1, 0) if p * (1.0 - q) > (1.0 - p) * q else (0, 1)
        else:
            combos = np.array([(1.0 - p) * (1.0 - q), (1.0 - p) * q,
                               p * (1.0 - q), p * q])
            best = int(np.argmax(combos))
            first[i], second[i] = best >> 1, best & 1
    if tuple(second) < tuple(first):
        first, second = second, first
        paths = paths[::-1].copy()
    return PhaseResult(
        first=HaplotypeSequence(f"{genotype.sample_id}.h1", first),
        second=HaplotypeSequence(f"{genotype.sample_id}.h2", second),
        founder_paths=paths, log_joint=float(log_joint))


@dataclass(frozen=True)
class StageReport:
    name: str
    seconds: float
    counters: dict


@dataclass(frozen=True)
class PipelineResult:
    mode: str
    imputation: ImputationResult
    stages: tuple
    corpus_out: list
    error_report: ErrorReport | None
    recovery: RecoveryResult | None


def run_pipeline(mode: str, reference, corpus, locus_map: LocusMap,
                 config: TrainConfig, *, window: WindowSpec = WindowSpec(),
                 threshold: float = DEFAULT_RATIO_THRESHOLD,
                 block_size: int | None = None, threads: int = 1) -> PipelineResult:
    """Run one of the two supported flows.

    "imp" imputes untyped loci directly. "edc-mdr-imp" first trains a
    typed-locus model on the reference pooled with haplotypes decoded from
    the test corpus itself (one decode + retrain round), repairs the corpus
    (flag-and-correct at ``threshold``, then fill missing symbols), and
    imputes from the repaired corpus.
    """
    if mode not in (PIPELINE_IMPUTE_ONLY, PIPELINE_REPAIR_IMPUTE):
        raise InputError(f"unknown pipeline mode {mode!r}")
    stages = []
    error_report = None
    recovery = None
    working = list(corpus)
    if mode == PIPELINE_REPAIR_IMPUTE:
        typed_idx = locus_map.typed_indices()
        typed_ids = [locus_map.locus_ids[int(j)] for j in typed_idx]
        ref_typed = [HaplotypeSequence(h.id, h.alleles[typed_idx]) for h in reference]

        t0 = time.perf_counter()
        model0, report0 = train_founder_hmm(ref_typed, config)
        phased = []
        for g in working:
            pr = phase_decode(model0, g)
            phased.extend((pr.first, pr.second))
        model1, report1 = train_founder_hmm(ref_typed + phased, config)
        stages.append(StageReport("train-typed-model", time.perf_counter() - t0, {
            "reference_haplotypes": len(ref_typed),
            "decoded_haplotypes": len(phased),
            "bootstrap_iterations": report0.iterations_run,
            "pooled_iterations": report1.iterations_run,
        }))

        t0 = time.perf_counter()
        error_report = detect_errors(model1, working, threshold,
                                     locus_ids=typed_ids, block_size=block_size)
        working, changes = correct_errors(working, error_report)
        stages.append(StageReport("detect-correct", time.perf_counter() - t0, {
            "flagged": len(error_report.flagged()),
            "changed": changes,
            "locus_evals": error_report.stats.forward_locus_evals
            + error_report.stats.backward_locus_evals,
        }))

        t0 = time.perf_counter()
        recovery = recover_missing(model1, working, block_size=block_size)
        working = recovery.corpus
        stages.append(StageReport("recover-missing", time.perf_counter() - t0, {
            "filled": len(recovery.fills),
            "locus_evals": recovery.stats.forward_locus_evals
            + recovery.stats.backward_locus_evals,
        }))

    t0 = time.perf_counter()
    imputation = impute_untyped(reference, working, locus_map, config,
                                window=window, block_size=block_size,
                                threads=threads)
    stages.append(StageReport("impute-untyped", time.perf_counter() - t0, {
        "windows": len(imputation.windows),
        "entries": len(imputation.entries),
        "locus_evals": imputation.forward_locus_evals
        + imputation.backward_locus_evals,
    }))
    return PipelineResult(mode=mode, imputation=imputation, stages=tuple(stages),
                          corpus_out=working, error_report=error_report,
                          recovery=recovery)
