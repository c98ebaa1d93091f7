"""Analysis flows built on the founder-pair model.

Three flows share the batched posterior engine: likelihood-ratio error
detection (with correction), missing-symbol recovery, and untyped-locus
imputation through locally trained window models. Phasing decodes each
genotype into an ordered haplotype pair by max-product over founder pairs.
``run_pipeline`` strings them together in the two supported orders.

Memory of phasing: duplicate genotypes are decoded once, and the distinct
ones in chunks of rows. A chunk of B rows holds 2 x (loci - 1) x B x K^2
back-pointers of the smallest unsigned dtype that holds K - 1 (one byte
up to K = 256); B is as many rows as fit, with their work arrays, in
``_PHASE_CHUNK_BYTES`` (384 KiB), and at least one. The decoded alleles
and founder paths add 4 x loci bytes per distinct genotype at K <= 256.
"""
from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .model import (MISSING, FounderHMM, InputError, HaplotypeSequence,
                    LocusMap, MultilocusGenotype, ZeroProbabilityError,
                    pair_emission_planes)
from .training import TrainConfig, train_founder_hmm, window_config
from .trie import batched_posteriors

PIPELINE_IMPUTE_ONLY = "imp"
PIPELINE_REPAIR_IMPUTE = "edc-mdr-imp"
DEFAULT_RATIO_THRESHOLD = 1000.0
# Byte cap on the back-pointers and work arrays of one chunk of genotypes
# that phasing decodes together; chunks change the pace, never the answer.
_PHASE_CHUNK_BYTES = 3 << 17


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
        typed = np.flatnonzero(g.symbols != MISSING)
        observed = g.symbols[typed].astype(np.intp)
        rows = batch.scans[g.sample_id].triples[typed]
        best = rows.max(axis=1)
        weight = rows[np.arange(typed.size), observed]
        # A zero-probability observed symbol gets an infinite ratio; when
        # nothing at the locus can rescue the genotype, it ties the (zero)
        # maximum and the ratio is 1.
        ratio = np.where(best > 0.0, np.inf, 1.0)
        np.divide(best, weight, out=ratio, where=weight > 0.0)
        suggested = np.where(weight == best, observed, rows.argmax(axis=1))
        loci = typed.tolist()
        entries.extend(map(ErrorEntry, repeat(g.sample_id, len(loci)), loci,
                           [ids[i] for i in loci], observed.tolist(),
                           ratio.tolist(), (ratio > threshold).tolist(),
                           suggested.tolist()))
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

    ``first`` <= ``second`` lexicographically; ``founder_paths`` holds the
    (2, n) founder indices of the two copies, read-only, in the smallest
    unsigned dtype that holds K - 1; log_joint is the log probability of
    the decoded founder path pair together with the observed symbols.
    """

    first: HaplotypeSequence
    second: HaplotypeSequence
    founder_paths: np.ndarray
    log_joint: float


def _pointer_dtype(founders: int):
    """Smallest unsigned integer dtype that holds every founder index."""
    return np.min_scalar_type(founders - 1)


def _phase_row_bytes(loci: int, founders: int) -> int:
    """Bytes one genotype row holds while it is decoded: back-pointers and
    one locus' work arrays during the max-product pass, then float and
    index arrays over all loci during allele assignment."""
    k = founders
    return max(2 * (loci - 1) * k * k * _pointer_dtype(k).itemsize
               + 8 * (2 * k ** 3 + 6 * k * k), 64 * loci)


def _viterbi_paths(model: FounderHMM, rows: np.ndarray):
    """Max-product founder paths of a (B, n) stack of genotype symbol rows.

    Returns the (B, 2, n) paths, the (B,) log joints, and per row the
    first locus with zero probability (-1 when there is none). A row that
    dies keeps an all-zero state, so the others decode on.
    """
    b, n = rows.shape
    k = model.founders
    trans = model.transitions
    planes = np.where(rows == MISSING, 3, rows)
    every = np.arange(b)
    value = np.outer(model.initial, model.initial)[None]
    logscale = np.zeros(b)
    dead = np.full(b, -1)
    back_first = np.empty((max(n - 1, 0), b, k, k), dtype=_pointer_dtype(k))
    back_second = np.empty_like(back_first)
    for i in range(n):
        hit = value * pair_emission_planes(model.emissions[i])[planes[:, i]]
        peak = hit.max(axis=(1, 2))
        zero = peak <= 0.0
        if zero.any():
            dead[zero & (dead < 0)] = i
            peak[zero] = 1.0
        hit /= peak[:, None, None]
        logscale += np.log(peak)
        if i == n - 1:
            value = hit
            break
        # collapse the second chain, then the first
        half = hit[:, :, :, None] * trans[i]                # (B, f, f', b)
        back_second[i] = half.argmax(axis=2)
        collapsed = half.max(axis=2)                        # (B, f, b)
        full = trans[i][:, :, None] * collapsed[:, :, None, :]  # (B, f, a, b)
        back_first[i] = full.argmax(axis=1)
        value = full.max(axis=1)

    pair_a, pair_b = np.divmod(value.reshape(b, k * k).argmax(axis=1), k)
    with np.errstate(divide="ignore"):  # dead rows end at zero
        log_joint = logscale + np.log(value[every, pair_a, pair_b])
    paths = np.empty((b, 2, n), dtype=back_first.dtype)
    paths[:, 0, n - 1], paths[:, 1, n - 1] = pair_a, pair_b
    for i in range(n - 2, -1, -1):
        a, second = paths[:, 0, i + 1], paths[:, 1, i + 1]
        f = back_first[i][every, a, second]
        paths[:, 0, i] = f
        paths[:, 1, i] = back_second[i][every, f, second]
    return paths, log_joint, dead


def _assign_alleles(model: FounderHMM, rows: np.ndarray, paths: np.ndarray):
    """The (B, n) allele rows of decoded founder paths, each pair ordered
    lexicographically; ``paths`` is reordered to match, in place."""
    loci = np.arange(rows.shape[1])
    p = model.emissions[loci, paths[:, 0]]
    q = model.emissions[loci, paths[:, 1]]
    het = rows == 1
    first_minor = p * (1.0 - q) > (1.0 - p) * q
    first = np.where(het, first_minor, rows // 2).astype(np.int8)
    second = np.where(het, ~first_minor, rows // 2).astype(np.int8)
    missing = rows == MISSING
    pm, qm = p[missing], q[missing]
    best = np.argmax([(1.0 - pm) * (1.0 - qm), (1.0 - pm) * qm,
                      pm * (1.0 - qm), pm * qm], axis=0)
    first[missing], second[missing] = best >> 1, best & 1
    # the first differing locus decides the order
    every = np.arange(rows.shape[0])
    differs = first != second
    at = differs.argmax(axis=1)
    swap = differs[every, at] & (second[every, at] < first[every, at])
    first[swap], second[swap] = second[swap], first[swap]
    paths[swap] = paths[swap, ::-1]
    return first, second


def _decode_distinct(model: FounderHMM, rows: np.ndarray):
    """Alleles, paths, log joints and first dead loci of (D, n) distinct
    rows, decoded in chunks whose back-pointers and work arrays stay
    within ``_PHASE_CHUNK_BYTES``."""
    d, n = rows.shape
    k = model.founders
    step = max(1, _PHASE_CHUNK_BYTES // _phase_row_bytes(n, k))
    first = np.empty((d, n), dtype=np.int8)
    second = np.empty_like(first)
    paths = np.empty((d, 2, n), dtype=_pointer_dtype(k))
    log_joint = np.empty(d)
    dead = np.empty(d, dtype=np.int64)
    for lo in range(0, d, step):
        chunk = slice(lo, lo + step)
        paths[chunk], log_joint[chunk], dead[chunk] = _viterbi_paths(
            model, rows[chunk])
        first[chunk], second[chunk] = _assign_alleles(model, rows[chunk],
                                                      paths[chunk])
    return first, second, paths, log_joint, dead


def phase_corpus(model: FounderHMM, corpus) -> list:
    """Max-product phasing of every genotype of ``corpus``, in corpus order.

    Identical genotypes are decoded once: the distinct symbol rows are
    decoded together, a chunk of rows at a time, with (rows, K, K) states
    per locus. Each locus collapses the founder pair in two K-sized
    max-contractions (mirroring the sum-product factorization), with
    per-row max rescaling against underflow; back-pointer traceback and
    allele assignment work on whole arrays. Results are bitwise those of
    decoding each genotype alone. A genotype the model cannot explain
    raises ``ZeroProbabilityError`` for the first such sample in corpus
    order, at its first zero-probability locus.
    """
    genos = list(corpus)
    for g in genos:
        if len(g) != model.loci:
            raise InputError(f"genotype {g.sample_id!r} has {len(g)} loci but "
                             f"the model has {model.loci}")
    if not genos:
        return []
    rows, row_of = np.unique(np.stack([g.symbols for g in genos]), axis=0,
                             return_inverse=True)
    row_of = row_of.ravel()
    first, second, paths, log_joint, dead = _decode_distinct(model, rows)
    failed = np.flatnonzero(dead[row_of] >= 0)
    if failed.size:
        sample = genos[failed[0]]
        locus = int(dead[row_of[failed[0]]])
        raise ZeroProbabilityError(
            locus, f"sample {sample.sample_id!r} has zero probability at "
                   f"locus {locus}")
    paths.setflags(write=False)
    return [PhaseResult(first=HaplotypeSequence(f"{g.sample_id}.h1", first[r]),
                        second=HaplotypeSequence(f"{g.sample_id}.h2", second[r]),
                        founder_paths=paths[r], log_joint=float(log_joint[r]))
            for g, r in zip(genos, row_of.tolist())]


def phase_decode(model: FounderHMM, genotype: MultilocusGenotype) -> PhaseResult:
    """Max-product phasing of one genotype; see :func:`phase_corpus`."""
    return phase_corpus(model, [genotype])[0]


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
        phased = [h for d in phase_corpus(model0, working)
                  for h in (d.first, d.second)]
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
