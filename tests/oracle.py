"""Reference answers that adjudicate the fast implementations.

Most of this is brute force written against the generative story —
enumerate every pair of founder paths, weight each by its chain
probabilities, multiply the pair-emission terms — with no recurrences, no
rescaling, and no shared code with the package. Exponential in the locus
count, usable only at toy sizes, and deliberately so. The rest are the
plain loops that vectorised code must reproduce: ``e_step_per_row``, the
per-haplotype Baum-Welch E-step behind the weighted distinct-row E-step of
``founderhmm.training``; ``phase_decode_per_sample``, the per-genotype
Viterbi loop behind ``phase_corpus``, bit for bit; and
``detect_entries_per_symbol``, the per-symbol entry loop behind
``detect_errors``, bit for bit.
"""
import numpy as np

from founderhmm import ZeroProbabilityError

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
