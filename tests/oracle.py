"""Reference answers that adjudicate the fast implementations.

Most of this is brute force written against the generative story —
enumerate every pair of founder paths, weight each by its chain
probabilities, multiply the pair-emission terms — with no recurrences, no
rescaling, and no shared code with the package. Exponential in the locus
count, usable only at toy sizes, and deliberately so. The one recurrence,
``e_step_per_row``, is the plain per-haplotype Baum-Welch E-step that the
weighted distinct-row E-step of ``founderhmm.training`` must reproduce.
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
