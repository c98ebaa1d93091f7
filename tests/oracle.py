"""Reference answers that adjudicate the fast implementations.

Most of this is brute force written against the generative story —
enumerate every pair of founder paths, weight each by its chain
probabilities, multiply the pair-emission terms — with no recurrences, no
rescaling, and no shared code with the package. Exponential in the locus
count, usable only at toy sizes, and deliberately so. The rest are the
plain loops that vectorised code must reproduce: ``e_step_per_row``, the
per-haplotype Baum-Welch E-step behind the weighted distinct-row E-step of
``founderhmm.training``; ``e_step_dividing_every_locus``, that E-step as
it indexed its sweeps locus by locus and divided every locus's emissions
by its scales, bit for bit; ``scan_per_locus``, the per-genotype
two-sweep loop behind the tiled batch posterior engine, bit for bit;
``phase_decode_per_sample``, the per-genotype Viterbi loop behind
``phase_corpus``, bit for bit; ``max_dot_per_founder``, the loop over
founders behind the engine's one-product max-dot, bit for bit; ``detect_entries_per_symbol``, the
per-symbol entry loop behind ``detect_errors``, bit for bit;
``prefix_nodes``, the trie node count that ``build_trie`` and the batch
engine's forward count must match; and ``read_symbol_file_per_line``, the
line-by-line, character-by-character reader of genotype and haplotype
files behind the byte-table reader, message for message; ``error_report_text_per_row``
and ``imputation_text_per_entry``, the row-template and per-entry report
writers behind the distinct-value writers, byte for byte, with
``recovery_text_per_fill``, ``sweep_text_per_row``, ``bench_text_per_row``
and ``eval_text``, the line-by-line writers of the fill log, sweep, bench
and evaluation files, and ``model_text_per_value``, the model writer that
formats one value at a time;
``read_error_report_per_row``, the split-and-validate-by-column error
report reader behind the byte-position reader, column for column and
message for message; ``read_imputation_per_row``, the line-by-line
imputation reader behind the same byte-position reader, value for value
and message for message (it checks a row's cells in column order, as the
error report does, where the package's own row loop once checked the
probabilities before the locus index); ``read_model_per_line``, the
line-by-line model reader that took rows in any order, which the block
parse of ``read_model`` must agree with wherever both read a file;
``loglik_haplotype``, the single-chain forward recursion that scores a
haplotype under a fitted model; ``correct_errors_per_entry``, the
per-entry loop, a sample looked up by name at each, behind the report's
id codes in ``correct_errors``, message for message;
``evaluate_per_symbol``, the per-symbol scoring loop behind
``simulate.evaluate``; ``distinct_rows_axis0`` and
``trie_axis0``, the field-by-field ``np.unique(axis=0)`` dedupe behind the
byte-string sort of ``build_trie`` and ``train_founder_hmms``; and
``recover_missing_full_scan``, the recovery that scans every sample,
behind the one that scans only the samples with a gap; and
``impute_untyped_per_entry``, the per-sample, per-locus entry loop behind
the columns of ``impute_untyped``, bit for bit.
"""
import json
import os
from functools import partial
from itertools import chain, compress, count, repeat

import numpy as np

from founderhmm import (ErrorReport, EvalReport, FounderHMM, GenotypeCorpus,
                        HaplotypePanel, ImputationEntry, ImputationResult, InputError,
                        ZeroProbabilityError, batched_posteriors)
from founderhmm.analysis import (RecoveryFill, RecoveryResult, WindowReport,
                                 window_spans)
from founderhmm.io_formats import (ERROR_REPORT_COLUMNS, IMPUTATION_COLUMNS,
                                   MODEL_MAGIC, _count, _declared, _fail,
                                   _read_error_report_json, _read_text,
                                   _threshold, _tsv_index, _zero_probability,
                                   fmt, read_imputation)
from founderhmm.training import (_RESCALE_EVERY, _SCALE_FLOOR, train_founder_hmms,
                                 window_config)
from founderhmm.trie import _scan_symbols

MISSING = -1


def all_paths(founders, loci):
    """(founders**loci, loci) matrix of every founder path."""
    grids = np.meshgrid(*([np.arange(founders)] * loci), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def path_weights(model, paths):
    """Chain probability of each path: initial times stepwise transitions."""
    w = model.initial[paths[:, 0]].astype(float).copy()
    for i in range(1, paths.shape[1]):
        w *= model.transitions[i - 1, paths[:, i - 1], paths[:, i]]
    return w


def pair_emission(p, q, symbol):
    """P(symbol | minor-allele probabilities p, q of the two copies).

    p and q may be arrays (broadcast); the symbol sum rule is applied
    directly: 0 needs two majors, 2 needs two minors, 1 needs one of each,
    MISSING observes nothing.
    """
    if symbol == MISSING:
        return np.ones(np.broadcast(p, q).shape)
    if symbol == 0:
        return (1.0 - p) * (1.0 - q)
    if symbol == 1:
        return p * (1.0 - q) + (1.0 - p) * q
    if symbol == 2:
        return p * q
    raise ValueError(f"not a genotype symbol: {symbol}")


def _locus_matrix(model, paths, locus, symbol):
    p = model.emissions[locus, paths[:, locus]]
    return pair_emission(p[:, None], p[None, :], int(symbol))


def genotype_probability(model, symbols):
    """P(genotype) summed over all founder path pairs."""
    paths = all_paths(model.founders, model.loci)
    w = path_weights(model, paths)
    joint = np.ones((len(paths), len(paths)))
    for i, s in enumerate(symbols):
        joint *= _locus_matrix(model, paths, i, s)
    return float(w @ joint @ w)


def substituted_probabilities(model, symbols):
    """(loci, 3) matrix with P(genotype after writing x at locus i) in cell
    (i, x), plus P(genotype) itself. One prefix/suffix product pass keeps
    this polynomial in the (already exponential) path count."""
    paths = all_paths(model.founders, model.loci)
    w = path_weights(model, paths)
    n = model.loci
    size = len(paths)
    prefix = [np.ones((size, size))]
    for i in range(n):
        prefix.append(prefix[-1] * _locus_matrix(model, paths, i, symbols[i]))
    suffix = np.ones((size, size))
    out = np.empty((n, 3))
    for i in range(n - 1, -1, -1):
        for x in (0, 1, 2):
            joint = prefix[i] * _locus_matrix(model, paths, i, x) * suffix
            out[i, x] = w @ joint @ w
        suffix = suffix * _locus_matrix(model, paths, i, symbols[i])
    return out, float(w @ prefix[n] @ w)


def haplotype_probability(model, alleles):
    """Single-chain likelihood of one haplotype."""
    paths = all_paths(model.founders, model.loci)
    w = path_weights(model, paths)
    for i, a in enumerate(alleles):
        p = model.emissions[i, paths[:, i]]
        w = w * (p if int(a) == 1 else (1.0 - p))
    return float(w.sum())


def loglik_haplotype(model, haplotype):
    """log probability of one haplotype under the single chain, by the
    scaled forward recursion; -inf when the model puts no mass on it."""
    assert len(haplotype) == model.loci
    alleles = haplotype.alleles
    total = 0.0
    for i in range(model.loci):
        p = model.emissions[i]
        emit = p if alleles[i] == 1 else 1.0 - p
        a = (model.initial if i == 0 else a @ model.transitions[i - 1]) * emit
        c = float(a.sum())
        if c <= 0.0:
            return float("-inf")
        a = a / c
        total += np.log(c)
    return float(total)


def best_pair(model, symbols):
    """Highest-probability founder path pair explaining the genotype,
    returned as (log probability, first path, second path)."""
    paths = all_paths(model.founders, model.loci)
    w = path_weights(model, paths)
    joint = np.outer(w, w)
    for i, s in enumerate(symbols):
        joint *= _locus_matrix(model, paths, i, s)
    flat = int(np.argmax(joint))
    a, b = np.unravel_index(flat, joint.shape)
    return float(np.log(joint[a, b])), paths[a].copy(), paths[b].copy()


def e_step_per_row(haps, init, trans, emis):
    """One scaled forward-backward over every panel row, row-major.

    haps is the (panel, loci) allele matrix. Returns (total log-likelihood,
    (initial, transition, emission-ones, emission-total expected counts)).
    """
    m, n = haps.shape
    k = init.shape[0]
    eprobs = np.empty((n, m, k), dtype=np.float64)
    for i in range(n):
        eprobs[i] = np.where(haps[:, i][:, None] == 1, emis[i][None, :],
                             1.0 - emis[i][None, :])

    alphas = np.empty((n, m, k), dtype=np.float64)
    scales = np.empty((n, m), dtype=np.float64)
    a = init[None, :] * eprobs[0]
    for i in range(n):
        if i > 0:
            a = (a @ trans[i - 1]) * eprobs[i]
        c = a.sum(axis=1)
        if np.any(c <= 0.0):
            bad = int(np.argmax(c <= 0.0))
            raise ZeroProbabilityError(
                i, f"panel haplotype {bad} has zero likelihood at locus {i}; "
                   f"use a positive pseudocount")
        a = a / c[:, None]
        alphas[i] = a
        scales[i] = c

    loglik = float(np.log(scales).sum())

    b = np.ones((m, k), dtype=np.float64)
    init_counts = np.zeros(k, dtype=np.float64)
    trans_counts = np.zeros((max(n - 1, 0), k, k), dtype=np.float64)
    emis_ones = np.zeros((n, k), dtype=np.float64)
    emis_total = np.zeros((n, k), dtype=np.float64)
    for i in range(n - 1, -1, -1):
        gamma = alphas[i] * b  # rows sum to 1
        sel = haps[:, i] == 1
        emis_ones[i] = gamma[sel].sum(axis=0)
        emis_total[i] = gamma.sum(axis=0)
        if i == 0:
            init_counts = gamma.sum(axis=0)
        if i > 0:
            w = (eprobs[i] * b) / scales[i][:, None]
            trans_counts[i - 1] = trans[i - 1] * (alphas[i - 1].T @ w)
            b = w @ trans[i - 1].T
    return loglik, (init_counts, trans_counts, emis_ones, emis_total)


def _forward_indexed(alphas, eprobs, init, trans_t, scales, rescale):
    """Forward sweep over a stack that divides a panel's alphas by their
    sums, its scales, at the loci that the (loci, W) mask ``rescale``
    marks for it; every other scale is exactly 1."""
    at = rescale.any(axis=1)
    scales[~at] = 1.0
    divisors = scales[:, :, None, :]
    mixed = (at & ~rescale.all(axis=1)).tolist()
    at = at.tolist()
    with np.errstate(divide="ignore", invalid="ignore"):
        np.multiply(init[:, :, None], eprobs[0], out=alphas[0])
        for i in range(len(at)):
            a = alphas[i]
            if i > 0:
                np.matmul(trans_t[i - 1], alphas[i - 1], out=a)
                np.multiply(a, eprobs[i], out=a)
            if at[i]:
                np.add.reduce(a, axis=1, out=scales[i])
                if mixed[i]:
                    scales[i, ~rescale[i]] = 1.0
                np.divide(a, divisors[i], out=a)


def e_step_dividing_every_locus(stack, init, trans, emis, buffers):
    """``training._e_step`` as it was before its sweeps ran on per-locus
    views: it indexes the stacked arrays locus by locus in both sweeps,
    divides the whole emission array by the scales, builds the rescale
    mask every call and counts emissions against the bool allele mask.
    Same arguments and results, bit for bit."""
    n, w, r = stack.ones.shape
    alphas, eprobs, betas, scales = (b[:n, :w] for b in buffers)
    np.copyto(eprobs, (1.0 - emis)[..., None])
    np.copyto(eprobs, emis[..., None], where=stack.ones[:, :, None, :])

    locus = np.arange(n)[:, None]
    widths = np.array([rows.shape[1] for rows, _, _ in stack.windows])
    rescale = (((locus % _RESCALE_EVERY == 0) & ~stack.padding)
               | (locus == widths - 1))
    trans_t = trans.transpose(0, 1, 3, 2)
    _forward_indexed(alphas, eprobs, init, trans_t, scales, rescale)
    # every scale off a window's rescale loci is 1; NaN fails the test too
    fall = ~(scales.min(axis=(0, 2)) >= _SCALE_FLOOR)
    if fall.any():
        rescale[:, fall] = ~stack.padding[:, fall]
        _forward_indexed(alphas, eprobs, init, trans_t, scales, rescale)
        # a row whose mass vanishes at locus i has scale 0 there and NaN
        # after, so a window's first locus with a zero scale is where its
        # first row failed; padded rows copy a real row and fail only with it
        failed = scales <= 0.0
        dead = failed.any(axis=2)
        if dead.any():
            p = int(np.argmax(dead.any(axis=0)))
            i = int(np.argmax(dead[:, p]))
            _, first, counts = stack.windows[p]
            bad = int(first[failed[i, p, :counts.size]].min())
            err = ZeroProbabilityError(
                i, f"panel haplotype {bad} has zero likelihood at locus {i}; "
                   f"use a positive pseudocount")
            err.window = p
            raise err

    eprobs /= scales[:, :, None, :]
    alphas *= stack.weights[:, None, :]
    beta = betas[0]
    beta[...] = 1.0
    for i in range(n - 1, 0, -1):
        b = np.multiply(eprobs[i], beta, out=eprobs[i])
        np.matmul(trans[i - 1], b, out=beta)

    k = init.shape[1]
    logliks = []
    # padded loci hold harmless counts; the caller resets their parameters
    trans_counts = np.broadcast_to(np.eye(k), (max(n - 1, 0), w, k, k)).copy()
    emis_ones = np.ones((n, w, k))
    emis_total = np.ones((n, w, k))
    for p, (rows, _, counts) in enumerate(stack.windows):
        m, width = rows.shape
        # the other scales are exactly 1: their logs, added in locus order,
        # change no bit. A one-row sum runs pairwise, so it takes them all
        at = rescale[:, p] if m > 1 else slice(width)
        logliks.append(float(np.log(scales[at, p, :m]).sum(axis=0) @ counts))
        np.matmul(alphas[:width - 1, p, :, :m],
                  eprobs[1:width, p, :, :m].transpose(0, 2, 1),
                  out=trans_counts[:width - 1, p])
    trans_counts *= trans
    # weighted gammas: the betas again, from the same products as in the
    # sweep, so the same bits (the last locus has beta 1)
    step = betas.shape[0]
    for lo in range(0, n - 1, step):
        hi = min(lo + step, n - 1)
        alphas[lo:hi] *= np.matmul(trans[lo:hi], eprobs[lo + 1:hi + 1],
                                   out=betas[:hi - lo])
    for p, (rows, _, _) in enumerate(stack.windows):
        m, width = rows.shape
        np.sum(alphas[:width, p, :, :m], axis=2, out=emis_total[:width, p])
        np.einsum("ikr,ir->ik", alphas[:width, p, :, :m],
                  stack.ones[:width, p, :m], out=emis_ones[:width, p])
    return logliks, (emis_total[0], trans_counts, emis_ones, emis_total)


def scan_per_locus(model, symbols):
    """Posterior scan of one genotype, one (K, K) locus step at a time.

    The plain two-sweep loop that the batch engine of ``founderhmm``
    runs over tiles of distinct genotypes: scaled forward and backward
    sweeps that renormalize each belief to unit mass (a dead one to
    zeros), then the per-locus substitution weights. Returns (triples,
    prefix logs, suffix logs, log-likelihood) as ``PosteriorScan``
    defines them.
    """
    n, k = model.loci, model.founders
    trans = model.transitions
    tables = np.array([[pair_emission(p[:, None], p[None, :], x)
                        for x in (0, 1, 2, MISSING)] for p in model.emissions])
    planes = [3 if s == MISSING else int(s) for s in symbols]

    def absorb(state, table):
        tmp = state * table
        mass = float(tmp.sum())
        if mass > 0.0:
            return tmp / mass, mass
        return np.zeros_like(tmp), 0.0

    fstates = np.empty((n, k, k))
    bstates = np.empty((n, k, k))
    prefix = np.empty(n)
    suffix = np.empty(n)
    prior = np.outer(model.initial, model.initial)
    norm = float(prior.sum())
    state, log = prior / norm, np.log(norm)
    with np.errstate(divide="ignore"):
        for i in range(n):
            fstates[i], prefix[i] = state, log
            tmp, mass = absorb(state, tables[i, planes[i]])
            log = log + np.log(mass)
            if i < n - 1:
                state = trans[i].T @ (tmp @ trans[i])
        loglik = float(log)
        state, log = np.ones((k, k)), 0.0
        for i in range(n - 1, -1, -1):
            bstates[i], suffix[i] = state, log
            if i > 0:
                tmp, mass = absorb(state, tables[i, planes[i]])
                log = log + np.log(mass)
                state = trans[i - 1] @ (tmp @ trans[i - 1].T)
    triples = np.einsum("ikl,ixkl->ix", fstates * bstates, tables[:, :3])
    return triples, prefix, suffix, loglik


def phase_decode_per_sample(model, symbols):
    """Max-product phasing of one genotype, one locus at a time.

    The plain (K, K) Viterbi loop that ``founderhmm.analysis.phase_corpus``
    runs over stacks of distinct genotypes. Returns (first alleles, second
    alleles, (2, n) founder paths, log joint); raises ZeroProbabilityError
    at the first locus with no mass.
    """
    n, k = model.loci, model.founders
    trans = model.transitions
    value = np.outer(model.initial, model.initial)
    logscale = 0.0
    back_first = np.empty((max(n - 1, 0), k, k), dtype=np.int64)
    back_second = np.empty((max(n - 1, 0), k, k), dtype=np.int64)
    for i in range(n):
        p = model.emissions[i]
        hit = value * pair_emission(p[:, None], p[None, :], int(symbols[i]))
        peak = float(hit.max())
        if peak <= 0.0:
            raise ZeroProbabilityError(i)
        hit /= peak
        logscale += np.log(peak)
        if i == n - 1:
            value = hit
            break
        half = hit[:, :, None] * trans[i][None, :, :]
        back_second[i] = half.argmax(axis=1)
        collapsed = half.max(axis=1)
        full = trans[i][:, :, None] * collapsed[:, None, :]
        back_first[i] = full.argmax(axis=0)
        value = full.max(axis=0)

    pair = np.unravel_index(int(np.argmax(value)), (k, k))
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
    return first, second, paths, float(log_joint)


def max_dot_per_founder(x, t):
    """out[c, b, r] = max over j of t[j, c] * x[j, b, r] for a (K, B, R)
    stack x and a (K, C) matrix t, and arg the first j attaining it, one
    founder j at a time: the loop that ``founderhmm.inference._max_dot``
    replaces with one product of all K candidates."""
    x = np.ascontiguousarray(x)
    out = t[0][:, None, None] * x[0]
    arg = np.zeros(out.shape, dtype=np.min_scalar_type(len(t) - 1))
    for j in range(1, len(t)):
        cand = t[j][:, None, None] * x[j]
        np.copyto(arg, j, where=cand > out)
        np.maximum(out, cand, out=out)
    return out, arg


def detect_entries_per_symbol(scan, symbols, threshold):
    """(locus, observed, ratio, flagged, suggested) of every typed symbol
    of one genotype, from its posterior scan, one symbol at a time."""
    out = []
    for i, sym in enumerate(symbols):
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
            ratio = 1.0
        suggested = sym if row[sym] == row.max() else int(np.argmax(row))
        out.append((i, sym, ratio, ratio > threshold, suggested))
    return out


def prefix_nodes(rows):
    """Number of distinct non-empty prefixes of symbol rows: the nodes of
    their prefix trie, less the root, counted as a set of tuples."""
    return len({tuple(row[:d]) for row in rows for d in range(1, len(row) + 1)})


def read_symbol_file_per_line(path, alphabet, what, id_what, unique):
    """(ids, symbol rows as lists) of a genotype or haplotype file, read
    one line and one character at a time; raises InputError with the
    ``path:line: problem`` message of the first problem. ``alphabet`` maps
    characters to symbols, ``id_what`` names a row's id in messages and
    ``unique`` asks for distinct ids (genotype files)."""
    def fail(line_no, message):
        raise InputError(f"{path}:{line_no}: {message}")

    declared = None
    rows = []
    _read_text(path)  # the file is decoded whole: bytes that are not UTF-8 fail first
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                if line.startswith("#samples="):
                    if declared is not None:
                        fail(line_no, "repeated '#samples=' header (first on "
                                      f"line {declared[2]})")
                    try:
                        head, loci_part = line[1:].split()
                        declared = (int(head.split("=")[1]),
                                    int(loci_part.split("=")[1]), line_no)
                    except (ValueError, IndexError):
                        fail(line_no, f"malformed header {line!r}")
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                fail(line_no, f"expected sample_id<TAB>symbols, got {len(parts)} fields")
            sample_id, body = parts
            if sample_id == "":
                fail(line_no, f"{id_what} must be non-empty")
            symbols = []
            for ch in body:
                if ch not in alphabet:
                    fail(line_no, f"symbol {ch!r} not valid in a {what} file")
                symbols.append(alphabet[ch])
            rows.append((sample_id, symbols, line_no))
    if declared is None:
        fail(1, f"missing '#samples=<m> loci=<n>' header in {what} file")
    m, n, _ = declared
    if len(rows) != m:
        fail(1, f"header declares {m} samples but file has {len(rows)} rows")
    for sample_id, symbols, line_no in rows:
        if len(symbols) != n:
            fail(line_no, f"sample {sample_id!r} has {len(symbols)} loci, header says {n}")
        if n == 0:
            fail(line_no, f"{what} {sample_id!r} must cover at least one locus")
    seen = {}
    for sample_id, _, line_no in rows if unique else ():
        first = seen.setdefault(sample_id, line_no)
        if first != line_no:
            fail(line_no, f"duplicate sample id {sample_id!r} (first on line {first})")
    return [r[0] for r in rows], [r[1] for r in rows]


def error_report_text_per_row(report, config_line=None, json_mode=False):
    """The TSV text of an error report, with one %-format of a row
    template per block of entries over the interleaved columns, or its
    JSON text, one entry at a time."""
    if json_mode:
        return _json_text({"threshold": report.threshold,
                           "entries": [e._asdict() for e in report.entries],
                           "failures": {k: int(v) for k, v in sorted(report.failures.items())}},
                          config_line)
    lines = [config_line] if config_line else []
    lines.append(f"#threshold={fmt(report.threshold)}")
    for sample_id, locus in sorted(report.failures.items()):
        lines.append(f"#zero-probability\t{sample_id}\t{locus}")
    lines.append("\t".join(ERROR_REPORT_COLUMNS) + "\n")
    row = "%s\t%s\t%d\t%d\t%.17g\t%d\t%d\n"
    width = len(ERROR_REPORT_COLUMNS)
    blocks = ["\n".join(lines)]
    for lo in range(0, len(report), 1 << 14):
        at = slice(lo, lo + (1 << 14))
        columns = (report.sample_id[at], report.locus_id[at],
                   report.locus_index[at].tolist(), report.observed[at].tolist(),
                   report.ratio[at].tolist(), report.flags[at].tolist(),
                   report.suggested[at].tolist())
        n = len(columns[4])
        cells = [None] * (width * n)
        for j, column in enumerate(columns):
            cells[j::width] = column
        blocks.append((row * n) % tuple(cells))
    return "".join(blocks)


def imputation_text_per_entry(result, config_line=None, json_mode=False):
    """The TSV or JSON text of an imputation result, one entry at a time."""
    if json_mode:
        return _json_text({"entries": [e._asdict() for e in result.entries],
                           "failures": [list(f) for f in result.failures],
                           "windows": [{"lo": w.lo, "hi": w.hi, "targets": list(w.targets),
                                        "train_iterations": w.train_iterations}
                                       for w in result.windows]}, config_line)
    lines = [config_line] if config_line else []
    for w in result.windows:
        targets = ",".join(str(t) for t in w.targets)
        lines.append(f"#window\t{w.lo}\t{w.hi}\t{targets}\t{w.train_iterations}")
    for sample_id, locus in result.failures:
        lines.append(f"#zero-probability\t{sample_id}\t{locus}")
    lines.append("\t".join(IMPUTATION_COLUMNS))
    for e in result.entries:
        lines.append("\t".join((e.sample_id, e.locus_id, str(e.locus_index),
                                fmt(e.probs[0]), fmt(e.probs[1]), fmt(e.probs[2]),
                                str(e.call), fmt(e.confidence))))
    return "\n".join(lines) + "\n"


def _json_text(payload, config_line):
    if config_line:
        payload["config"] = config_line
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def recovery_text_per_fill(result, config_line=None, json_mode=False):
    """The TSV or JSON text of a recovery fill log, one fill at a time."""
    failures = sorted(result.failures.items())
    if json_mode:
        return _json_text({"fills": [f._asdict() for f in result.fills],
                           "failures": {k: int(v) for k, v in failures}}, config_line)
    lines = [config_line] if config_line else []
    lines += [f"#zero-probability\t{sample_id}\t{locus}" for sample_id, locus in failures]
    lines.append("sample_id\tlocus_index\tsymbol\tconfidence")
    for f in result.fills:
        lines.append("\t".join((f.sample_id, str(f.locus_index), str(f.symbol),
                                fmt(f.confidence))))
    return "\n".join(lines) + "\n"


def sweep_text_per_row(rows, config_line=None, with_seconds=False):
    """The TSV text of a sweep table, one row at a time."""
    lines = [config_line] if config_line else []
    cols = ["founders", "panel_size", "flank", "mode", "total", "discordant",
            "error_rate", "failed", "message"]
    if with_seconds:
        cols.insert(7, "seconds")
    lines.append("\t".join(cols))
    for r in rows:
        fields = [str(r.founders), str(r.panel_size), str(r.flank), r.mode,
                  str(r.total), str(r.discordant), fmt(r.error_rate),
                  "1" if r.failed else "0", r.message]
        if with_seconds:
            fields.insert(7, fmt(r.seconds))
        lines.append("\t".join(fields))
    return "\n".join(lines) + "\n"


def bench_text_per_row(report, config_line=None):
    """The TSV text of a bench table, one row at a time, then its exponents."""
    lines = [config_line] if config_line else []
    lines.append("axis\tvalue\tlocus_evals\tseconds")
    for r in report.rows:
        lines.append("\t".join((r.axis, str(r.value), str(r.locus_evals), fmt(r.seconds))))
    for axis in sorted(report.exponents):
        lines.append(f"#exponent\t{axis}\t{fmt(report.exponents[axis])}")
    return "\n".join(lines) + "\n"


def eval_text(report, config_line=None, json_mode=False):
    """The TSV or JSON text of an evaluation report, line by line."""
    if json_mode:
        return _json_text({"total": report.total, "discordant": report.discordant,
                           "discordance_rate": report.discordance_rate,
                           "confusion": report.confusion.tolist(),
                           "details": dict(sorted(report.details.items()))}, config_line)
    lines = [config_line] if config_line else []
    lines += [f"total\t{report.total}", f"discordant\t{report.discordant}",
              f"discordance_rate\t{fmt(report.discordance_rate)}"]
    for t in range(3):
        lines.append("\t".join(["confusion", str(t)]
                               + [str(int(v)) for v in report.confusion[t]]))
    return "\n".join(lines) + "\n"


def model_text_per_value(model, config_line=None):
    """The text of a model file, one row per line, each value formatted on
    its own by ``fmt``."""
    k, n = model.founders, model.loci
    lines = [MODEL_MAGIC] + ([config_line] if config_line else [])
    lines.append(f"#founders={k} loci={n}")
    lines.append("\t".join(["initial", *map(fmt, model.initial)]))
    for i in range(n - 1):
        for a in range(k):
            lines.append("\t".join(["transition", str(i), str(a),
                                    *map(fmt, model.transitions[i, a])]))
    for i in range(n):
        lines.append("\t".join(["emission", str(i), *map(fmt, model.emissions[i])]))
    return "\n".join(lines) + "\n"


def _tsv_cell(cell, name, values):
    try:
        return values[cell]
    except KeyError:
        raise ValueError(f"{name} must be one of {', '.join(values)}, "
                         f"not {json.dumps(cell)}") from None


def _check_error_row(path, line_no, line):
    parts = line.split("\t")
    if len(parts) != len(ERROR_REPORT_COLUMNS):
        _fail(path, line_no, f"expected {len(ERROR_REPORT_COLUMNS)} fields")
    symbols = {"0": 0, "1": 1, "2": 2}
    try:
        _count(_tsv_index(parts[2]), "locus_index",
               int(np.iinfo(np.int64).max))
        _tsv_cell(parts[3], "observed", symbols)
        float(parts[4])
        _tsv_cell(parts[5], "flagged", {"0": False, "1": True})
        _tsv_cell(parts[6], "suggested", symbols)
    except ValueError as exc:
        _fail(path, line_no, f"malformed error report row ({exc})")


def _digit_column(cells, top):
    digits = "".join(cells)
    if len(digits) != len(cells) or "" in cells or not digits.isascii():
        return None
    values = np.frombuffer(digits.encode("ascii"), dtype=np.uint8) - 48
    return values.astype(np.int64) if (values <= top).all() else None


def _index_column(cells):
    digits = "".join(cells)
    if "" in cells or not (digits.isascii() and digits.isdigit()):
        return None
    try:
        return np.array(cells, dtype=np.int64)
    except OverflowError:
        return None


def _float_column(cells):
    try:
        return np.fromiter(map(float, cells), dtype=np.float64,
                           count=len(cells))
    except ValueError:
        return None


def _error_report_columns(rows):
    width = len(ERROR_REPORT_COLUMNS)
    if set(map(str.count, rows, repeat("\t"))) != {width - 1}:
        return None
    parsers = (list, list, _index_column, partial(_digit_column, top=2),
               _float_column, partial(_digit_column, top=1),
               partial(_digit_column, top=2))
    blocks = []
    for lo in range(0, len(rows), 1 << 14):
        cells = "\t".join(rows[lo:lo + (1 << 14)]).split("\t")
        blocks.append([parse(cells[j::width])
                       for j, parse in enumerate(parsers)])
        if any(column is None for column in blocks[-1]):
            return None
    sample_id, locus_id, index, observed, ratio, flags, suggested = (
        list(chain.from_iterable(b[j] for b in blocks)) if j < 2
        else np.concatenate([b[j] for b in blocks]) for j in range(width))
    return dict(sample_id=sample_id, locus_index=index, locus_id=locus_id,
                observed=observed, ratio=ratio, flags=flags.astype(bool),
                suggested=suggested)


def read_error_report_per_row(path):
    """An error report. A JSON one goes to the JSON reader; a TSV one has
    its lines split as strings, its rows split into cells in blocks and
    validated a column at a time, and, when any cell is bad, its rows
    checked one by one to name the first bad line."""
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        return _read_error_report_json(path, text)
    lines = text.split("\n")
    comments = list(compress(count(), map(str.startswith, lines, repeat("#"))))
    threshold = None
    failures = {}
    stop = None
    for i in comments:
        try:
            if lines[i].startswith("#threshold="):
                threshold = _threshold(path, i + 1, lines[i])
            elif lines[i].startswith("#zero-probability\t"):
                sample_id, locus = _zero_probability(path, i + 1, lines[i])
                failures[sample_id] = locus
        except InputError as exc:
            stop = (i, exc)
            break
    filled = np.fromiter(compress(range(stop[0] if stop else len(lines)),
                                  map(str.strip, lines)), dtype=np.intp)
    data = filled[~np.isin(filled, comments)].tolist()
    if data and tuple(lines[data[0]].split("\t")) != ERROR_REPORT_COLUMNS:
        _fail(path, data[0] + 1, f"expected header {'/'.join(ERROR_REPORT_COLUMNS)}")
    rows = [lines[i] for i in data[1:]]
    columns = _error_report_columns(rows) if rows else None
    if rows and columns is None:
        for i, row in zip(data[1:], rows):
            _check_error_row(path, i + 1, row)
    if stop:
        raise stop[1]
    if threshold is None:
        _fail(path, 1, "missing '#threshold=' header")
    if not data:
        _fail(path, 1, "missing column header row")
    if not rows:
        return ErrorReport.from_entries((), threshold, failures)
    return ErrorReport(**columns, threshold=threshold, failures=failures,
                       stats=None)


def read_imputation_per_row(path):
    """An imputation file. A JSON one goes to the package reader; a TSV one
    is read line by line, each row split and its cells parsed in column
    order, failing at the first problem."""
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        return read_imputation(path)
    entries = []
    failures = []
    header_seen = False
    calls = {"0": 0, "1": 1, "2": 2}
    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        if line.startswith("#zero-probability\t"):
            failures.append(_zero_probability(path, line_no, line))
            continue
        if line.startswith("#"):
            continue
        parts = line.split("\t")
        if not header_seen:
            if tuple(parts) != IMPUTATION_COLUMNS:
                _fail(path, line_no, f"expected header {'/'.join(IMPUTATION_COLUMNS)}")
            header_seen = True
            continue
        if len(parts) != len(IMPUTATION_COLUMNS):
            _fail(path, line_no, f"expected {len(IMPUTATION_COLUMNS)} fields")
        try:
            index = _tsv_index(parts[2])
            probs = (float(parts[3]), float(parts[4]), float(parts[5]))
            entries.append(ImputationEntry(
                parts[0], index, parts[1], probs,
                _tsv_cell(parts[6], "call", calls), float(parts[7])))
        except ValueError as exc:
            _fail(path, line_no, f"malformed imputation row ({exc})")
    if not header_seen:
        _fail(path, 1, "missing column header row")
    return ImputationResult.from_entries(entries=tuple(entries), windows=(),
                                         failures=tuple(failures), forward_locus_evals=0,
                                         backward_locus_evals=0)


def read_model_per_line(path):
    """A model file with its rows in any order, read line by line; fails at
    the first problem."""
    lines, size = _read_text(path).split("\n"), os.path.getsize(path)
    k = n = None
    initial = None
    transitions = None
    emissions = None
    saw_magic = False
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            if line == MODEL_MAGIC:
                saw_magic = True
            elif line.startswith("#founderhmm-model"):
                _fail(path, line_no, f"unsupported model format version {line!r}")
            elif line.startswith("#founders="):
                try:
                    k, n = _declared(line)
                except (ValueError, IndexError):
                    _fail(path, line_no, f"malformed dimension header {line!r}")
                if k < 1 or n < 1:
                    _fail(path, line_no, "founders and loci must be >= 1")
                if 2 * k * (1 + (n - 1) * k + n) > size:
                    _fail(path, line_no, f"{k} founders and {n} loci need "
                                         f"more values than the file holds")
                initial = None
                transitions = np.full((max(n - 1, 0), k, k), np.nan)
                emissions = np.full((n, k), np.nan)
            continue
        if not saw_magic:
            _fail(path, line_no, f"not a model file (missing '{MODEL_MAGIC}' first)")
        if k is None:
            _fail(path, line_no, "model data before '#founders=<K> loci=<n>' header")
        parts = line.split("\t")
        kind = parts[0]
        try:
            if kind == "initial":
                if len(parts) != 1 + k:
                    _fail(path, line_no, f"initial row needs {k} values")
                initial = np.array([float(v) for v in parts[1:]])
            elif kind == "transition":
                if len(parts) != 3 + k:
                    _fail(path, line_no, f"transition row needs interval, from-state, {k} values")
                i, a = int(parts[1]), int(parts[2])
                if not (0 <= i < n - 1 and 0 <= a < k):
                    _fail(path, line_no, f"transition index ({i},{a}) out of range")
                transitions[i, a] = [float(v) for v in parts[3:]]
            elif kind == "emission":
                if len(parts) != 2 + k:
                    _fail(path, line_no, f"emission row needs locus and {k} values")
                i = int(parts[1])
                if not 0 <= i < n:
                    _fail(path, line_no, f"emission locus {i} out of range")
                emissions[i] = [float(v) for v in parts[2:]]
            else:
                _fail(path, line_no, f"unknown row kind {kind!r}")
        except InputError:
            raise
        except ValueError:
            _fail(path, line_no, "non-numeric value in model row")
    if not saw_magic:
        _fail(path, 1, f"not a model file (missing '{MODEL_MAGIC}')")
    if k is None:
        _fail(path, 1, "missing '#founders=<K> loci=<n>' header")
    if initial is None:
        _fail(path, 1, "missing initial row")
    if np.isnan(transitions).any():
        _fail(path, 1, "incomplete transition rows")
    if np.isnan(emissions).any():
        _fail(path, 1, "incomplete emission rows")
    try:
        return FounderHMM(initial=initial, transitions=transitions,
                          emissions=emissions)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


def correct_errors_per_entry(corpus, report):
    """``analysis.correct_errors``, one entry at a time in report order,
    each entry's sample looked up by its name, failing at the first bad
    entry before anything changes."""
    corpus = GenotypeCorpus.of(corpus)
    rows = {sid: j for j, sid in enumerate(corpus.ids)}
    symbols = corpus.matrix.copy()
    changed = set()
    for e in report.entries:
        j, at = rows.get(e.sample_id), (e.sample_id, e.locus_index)
        if j is None:
            raise InputError(f"report names unknown sample {e.sample_id!r}")
        if not 0 <= e.locus_index < corpus.loci:
            raise InputError(f"report locus {e.locus_index} out of range")
        if at in changed or symbols[j, e.locus_index] != e.observed:
            raise InputError(f"report does not match corpus at {e.sample_id!r} "
                             f"locus {e.locus_index}")
        if e.suggested not in (0, 1, 2):
            raise InputError(f"report suggests symbol {e.suggested!r} at "
                             f"{e.sample_id!r} locus {e.locus_index}")
        if e.flagged and e.suggested != e.observed:
            symbols[j, e.locus_index] = e.suggested
            changed.add(at)
    return GenotypeCorpus(corpus.ids, symbols), len(changed)


def evaluate_per_symbol(calls, truth_genotypes, *, loci=None):
    """``simulate.evaluate``, scoring one call at a time."""
    truth = {}
    for g in truth_genotypes:
        if g.sample_id in truth:
            raise InputError(f"duplicate truth sample {g.sample_id!r}")
        truth[g.sample_id] = g.symbols
    confusion = np.zeros((3, 3), dtype=np.int64)
    total = discordant = 0
    if isinstance(calls, ImputationResult):
        wanted = None if loci is None else set(int(i) for i in loci)
        for e in calls.entries:
            if wanted is not None and e.locus_index not in wanted:
                continue
            symbols = truth.get(e.sample_id)
            if symbols is None:
                raise InputError(f"call names unknown sample {e.sample_id!r}")
            if not 0 <= e.locus_index < symbols.shape[0]:
                raise InputError(
                    f"call locus {e.locus_index} outside truth for {e.sample_id!r}")
            t = int(symbols[e.locus_index])
            if t == MISSING:
                raise InputError(
                    f"truth is missing at {e.sample_id!r} locus {e.locus_index}")
            if e.call not in (0, 1, 2):
                raise InputError(
                    f"call {e.call!r} at {e.sample_id!r} locus {e.locus_index} "
                    "is not 0, 1 or 2")
            confusion[t, e.call] += 1
            total += 1
            discordant += int(e.call != t)
        return EvalReport(total=total, discordant=discordant, confusion=confusion,
                          details={"kind": "imputation"})
    for g in calls:
        symbols = truth.get(g.sample_id)
        if symbols is None:
            raise InputError(f"call names unknown sample {g.sample_id!r}")
        if symbols.shape[0] != len(g):
            raise InputError(
                f"{g.sample_id!r}: {len(g)} call loci vs {symbols.shape[0]} truth loci")
        called = g.symbols != MISSING
        if loci is not None:
            picked = np.zeros(len(g), dtype=bool)
            picked[list(loci)] = True
            called &= picked
        for i in np.flatnonzero(called):
            t, c = int(symbols[i]), int(g.symbols[i])
            if t == MISSING:
                raise InputError(f"truth is missing at {g.sample_id!r} locus {i}")
            confusion[t, c] += 1
            total += 1
            discordant += int(c != t)
    return EvalReport(total=total, discordant=discordant, confusion=confusion,
                      details={"kind": "corpus"})


def distinct_rows_axis0(matrix):
    """Sorted distinct rows of a matrix, with the first index, inverse and
    counts, by ``np.unique(axis=0)``, which compares rows field by field."""
    rows, first, inverse, counts = np.unique(
        matrix, axis=0, return_index=True, return_inverse=True,
        return_counts=True)
    return rows, first, inverse.ravel(), counts


def trie_axis0(symbols):
    """``build_trie``'s rows and row_of, and the LCPs (the prefix each row
    shares with the row before) behind its node count, from the
    ``np.unique(axis=0)`` dedupe."""
    rows, _, row_of, _ = distinct_rows_axis0(symbols)
    differs = rows[1:] != rows[:-1]
    return rows, row_of, np.concatenate(([0], differs.argmax(axis=1)))


def recover_missing_full_scan(model, corpus):
    """``recover_missing`` with the batch engine run over every sample,
    complete ones included, so ``failures`` and ``stats`` cover them all."""
    corpus = GenotypeCorpus.of(corpus)
    batch = batched_posteriors(model, corpus)
    samples, loci = np.nonzero(corpus.matrix == MISSING)
    rows = batch.triples[batch.row_of[samples], loci]
    totals = rows.sum(axis=1)
    dead = np.zeros(len(corpus), dtype=bool)
    dead[samples[totals <= 0.0]] = True
    live = ~dead[samples]
    samples, loci, rows, totals = samples[live], loci[live], rows[live], totals[live]
    calls = rows.argmax(axis=1)
    symbols = corpus.matrix.copy()
    symbols[samples, loci] = calls
    fills = map(RecoveryFill, map(corpus.ids.__getitem__, samples.tolist()),
                loci.tolist(), calls.tolist(),
                (rows[np.arange(calls.size), calls] / totals).tolist())
    return RecoveryResult.from_entries(fills, GenotypeCorpus(corpus.ids, symbols),
                                       dict(batch.failures), batch.stats)


def impute_untyped_per_entry(reference, corpus, locus_map, config, *, window):
    """``impute_untyped`` on valid inputs, building one entry per sample and
    untyped locus in a loop, keyed by (sample, locus), then sorting the
    entries and the failures by corpus order and locus."""
    reference, genos = HaplotypePanel.of(reference), GenotypeCorpus.of(corpus)
    typed_idx = locus_map.typed_indices()
    spans = window_spans(locus_map, window)
    fits = train_founder_hmms(
        [reference.matrix[:, lo:hi + 1] for (lo, hi), _ in spans],
        window_config(config))
    symbols = genos.matrix
    per_position = {}
    windows = []
    failures = []
    fevals = bevals = 0
    for ((lo, hi), targets), (wmodel, wreport) in zip(spans, fits):
        first, stop = np.searchsorted(typed_idx, (lo, hi + 1))
        block = np.full((len(genos), hi - lo + 1), MISSING, dtype=np.int8)
        block[:, typed_idx[first:stop] - lo] = symbols[:, first:stop]
        row_of, (triples, *_), (wf, wb) = _scan_symbols(wmodel, block)
        windows.append(WindowReport(lo, hi, targets, wreport.iterations_run,
                                    wreport.converged, wmodel))
        fevals += wf
        bevals += wb
        triples = triples[:, np.asarray(targets) - lo]
        totals = triples.sum(axis=2)
        with np.errstate(divide="ignore", invalid="ignore"):
            probs = (triples / totals[:, :, None]).tolist()
        calls = triples.argmax(axis=2).tolist()
        dead = (totals <= 0.0).tolist()
        for sid, r in zip(genos.ids, row_of.tolist()):
            for t, p, call, d in zip(targets, probs[r], calls[r], dead[r]):
                if d:
                    failures.append((sid, t))
                    continue
                per_position[(sid, t)] = ImputationEntry(
                    sid, t, locus_map.locus_ids[t], tuple(p), call, p[call])
    order = dict(zip(genos.ids, count()))
    entries = sorted(per_position.values(),
                     key=lambda e: (order[e.sample_id], e.locus_index))
    return ImputationResult.from_entries(
        entries, windows=tuple(windows),
        failures=tuple(sorted(failures, key=lambda f: (order[f[0]], f[1]))),
        forward_locus_evals=fevals, backward_locus_evals=bevals)
