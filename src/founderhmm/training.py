"""Baum-Welch training of the founder chain from a haplotype panel.

The chain is fit on single haplotypes; a genotype model simply runs two
copies of the fitted chain, so the trained parameters double as the
founder-pair model. Expected counts are additive over haplotypes, so EM
runs on the panel's distinct rows, each weighted by how often it occurs:
the same estimator, with per-locus work proportional to distinct rows
(fastPHASE fits its founder clusters the same way). The E-step is
vectorized across those rows in a founder-major (loci, founders, rows)
layout and holds two such float64 arrays, 2 x loci x K x distinct rows x 8
bytes. np.unique sorts the rows, so the fit does not depend on the order
of the panel.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import FounderHMM, HaplotypeSequence, InputError, ZeroProbabilityError


@dataclass(frozen=True)
class TrainConfig:
    """Baum-Welch hyperparameters.

    tolerance is a relative log-likelihood improvement threshold (with an
    absolute floor of 1 so near-zero log-likelihoods behave); pseudocount is
    smoothing mass added to every expected-count cell, keeping parameters
    off the hard 0/1 boundary whenever it is positive.
    """

    founders: int
    max_iterations: int = 100
    tolerance: float = 1e-5
    seed: int = 0
    pseudocount: float = 1e-6

    def __post_init__(self):
        if self.founders < 1:
            raise InputError("founders must be >= 1")
        if self.max_iterations < 1:
            raise InputError("max_iterations must be >= 1")
        if not self.tolerance >= 0:
            raise InputError(f"tolerance must be >= 0, got {self.tolerance}")
        if not 0 <= self.pseudocount < float("inf"):
            raise InputError(
                f"pseudocount must be finite and >= 0, got {self.pseudocount}")
        # the M-step normalizes sums of K (or two) pseudocounts; the factor
        # 2 leaves room for the expected counts and for rounding
        if not 2.0 * max(self.founders, 2) * self.pseudocount < float("inf"):
            raise InputError(
                f"pseudocount {self.pseudocount} is too large for "
                f"{self.founders} founders: the M-step's sums would overflow")
        if not self.seed >= 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class TrainReport:
    iterations_run: int
    loglik_trace: tuple
    converged: bool


def _panel_matrix(panel) -> np.ndarray:
    seqs = list(panel)
    if not seqs:
        raise InputError("training panel must be non-empty")
    lengths = {len(h) for h in seqs}
    if len(lengths) != 1:
        raise InputError("panel haplotypes must all have the same length")
    for h in seqs:
        if not isinstance(h, HaplotypeSequence):
            raise InputError("panel entries must be HaplotypeSequence values")
    return np.stack([h.alleles for h in seqs]).astype(np.int64)


def _initial_params(n, k, seed):
    """Seeded starting point: emissions uniform in [0.1, 0.9]; initial and
    transition rows uniform with +/-5% jitter, renormalized."""
    rng = np.random.default_rng(seed)
    emis = rng.uniform(0.1, 0.9, size=(n, k))
    init = (1.0 + rng.uniform(-0.05, 0.05, size=k)) / k
    init /= init.sum()
    trans = (1.0 + rng.uniform(-0.05, 0.05, size=(max(n - 1, 0), k, k))) / k
    trans /= trans.sum(axis=2, keepdims=True)
    return init, trans, emis


def _emission_probs(emis_row, column):
    # (panel, founders) likelihood of each haplotype's allele at one locus.
    return np.where(column[:, None] == 1, emis_row[None, :], 1.0 - emis_row[None, :])


def _e_step(rows, counts, first, init, trans, emis):
    """One scaled forward-backward over the distinct panel rows.

    rows is the (distinct rows, loci) allele matrix, counts the multiplicity
    of each row and first the lowest panel index holding it. Expected counts
    are additive over haplotypes, so each row's statistics are weighted by
    its count. Arrays are founder-major, (loci, K, rows), and two of them
    are held: the emissions, divided by the scales and then multiplied by
    beta during the backward sweep, and the weighted alphas, turned into
    gammas in place.

    Returns (total log-likelihood, expected-count statistics).
    """
    r, n = rows.shape
    k = init.shape[0]
    ones = rows.T == 1
    eprobs = np.where(ones[:, None, :], emis[:, :, None], 1.0 - emis[:, :, None])

    alphas = np.empty((n, k, r), dtype=np.float64)
    scales = np.empty((n, r), dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.multiply(init[:, None], eprobs[0], out=alphas[0])
        for i in range(n):
            a = alphas[i]
            if i > 0:
                np.matmul(trans[i - 1].T, alphas[i - 1], out=a)
                np.multiply(a, eprobs[i], out=a)
            np.sum(a, axis=0, out=scales[i])
            np.divide(a, scales[i], out=a)
    # a row whose mass vanishes at locus i has scale 0 there and NaN after,
    # so the first locus with a zero scale is where the first row failed
    failed = scales <= 0.0
    if failed.any():
        i = int(np.argmax(failed.any(axis=1)))
        bad = int(first[failed[i]].min())
        raise ZeroProbabilityError(
            i, f"panel haplotype {bad} has zero likelihood at locus {i}; "
               f"use a positive pseudocount")

    loglik = float(np.log(scales).sum(axis=0) @ counts)

    eprobs /= scales[:, None, :]
    alphas *= counts
    beta = np.ones((k, r), dtype=np.float64)
    trans_counts = np.empty((max(n - 1, 0), k, k), dtype=np.float64)
    for i in range(n - 1, -1, -1):
        np.multiply(alphas[i], beta, out=alphas[i])  # weighted gamma
        if i > 0:
            w = np.multiply(eprobs[i], beta, out=eprobs[i])
            np.matmul(alphas[i - 1], w.T, out=trans_counts[i - 1])
            np.matmul(trans[i - 1], w, out=beta)
    trans_counts *= trans
    emis_total = alphas.sum(axis=2)
    emis_ones = np.einsum("ikr,ir->ik", alphas, ones)
    return loglik, (emis_total[0], trans_counts, emis_ones, emis_total)


def _m_step(stats, pseudocount, k):
    init_counts, trans_counts, emis_ones, emis_total = stats
    init = init_counts + pseudocount
    init /= init.sum()
    trans = trans_counts + pseudocount
    trans /= trans.sum(axis=2, keepdims=True)
    emis = (emis_ones + pseudocount) / (emis_total + 2.0 * pseudocount)
    return init, trans, emis


def _check_params(init, trans, emis):
    """Guard every M-step. A failure here is a fault of the update, not of
    the input, so it raises RuntimeError."""
    atol = 1e-9
    if not (np.all(init >= 0) and abs(init.sum() - 1.0) <= atol):
        raise RuntimeError("M-step left an invalid initial distribution")
    if trans.size and not (np.all(trans >= 0)
                           and np.allclose(trans.sum(axis=2), 1.0, atol=atol)):
        raise RuntimeError("M-step left non-stochastic transitions")
    if not (np.all(emis >= 0.0) and np.all(emis <= 1.0)):
        raise RuntimeError("M-step left emissions outside [0, 1]")


def train_founder_hmm(panel, config: TrainConfig):
    """Fit the founder chain to a haplotype panel.

    Runs a single seeded restart. Returns (FounderHMM, TrainReport). Each
    trace entry scores the parameters entering that iteration; on
    convergence the loop stops before the next update, so the returned
    parameters are exactly the last-scored ones, while an iteration-capped
    run returns parameters one (improving) update past the final entry.
    Initialization depends only on the seed.
    """
    rows, first, counts = np.unique(_panel_matrix(panel), axis=0,
                                    return_index=True, return_counts=True)
    n = rows.shape[1]
    k = config.founders
    init, trans, emis = _initial_params(n, k, config.seed)
    trace = []
    converged = False
    for _ in range(config.max_iterations):
        loglik, stats = _e_step(rows, counts, first, init, trans, emis)
        trace.append(loglik)
        if len(trace) > 1:
            gain = trace[-1] - trace[-2]
            if gain < config.tolerance * max(1.0, abs(trace[-2])):
                converged = True
                break
        init, trans, emis = _m_step(stats, config.pseudocount, k)
        _check_params(init, trans, emis)
    model = FounderHMM(initial=init, transitions=trans, emissions=emis)
    return model, TrainReport(iterations_run=len(trace),
                              loglik_trace=tuple(trace), converged=converged)


def loglik_haplotype(model: FounderHMM, haplotype: HaplotypeSequence) -> float:
    """log probability of one haplotype under the single chain; -inf when
    the model puts no mass on it."""
    if len(haplotype) != model.loci:
        raise InputError(
            f"haplotype has {len(haplotype)} loci but the model has {model.loci}")
    h = haplotype.alleles.astype(np.int64)[None, :]
    a = model.initial[None, :] * _emission_probs(model.emissions[0], h[:, 0])
    total = 0.0
    for i in range(model.loci):
        if i > 0:
            a = (a @ model.transitions[i - 1]) * _emission_probs(model.emissions[i], h[:, i])
        c = float(a.sum())
        if c <= 0.0:
            return float("-inf")
        a = a / c
        total += np.log(c)
    return float(total)


def window_config(config: TrainConfig) -> TrainConfig:
    """Local-window variant of a training config (iteration cap of 50,
    since per-window EM dominates imputation cost at scale)."""
    return replace(config, max_iterations=50)
