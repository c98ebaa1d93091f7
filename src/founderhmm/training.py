"""Baum-Welch training of the founder chain from a haplotype panel.

The chain is fit on single haplotypes; a genotype model simply runs two
copies of the fitted chain, so the trained parameters double as the
founder-pair model. The E-step is vectorized across the whole panel
(per-locus operations act on (panel, founders) arrays), which is also the
natural internal parallelization point.
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


def _e_step(haps, init, trans, emis):
    """One scaled forward-backward over the whole panel.

    Returns (total log-likelihood, expected-count statistics).
    """
    m, n = haps.shape
    k = init.shape[0]
    eprobs = np.empty((n, m, k), dtype=np.float64)
    for i in range(n):
        eprobs[i] = _emission_probs(emis[i], haps[:, i])

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
    haps = _panel_matrix(panel)
    m, n = haps.shape
    k = config.founders
    init, trans, emis = _initial_params(n, k, config.seed)
    trace = []
    converged = False
    for _ in range(config.max_iterations):
        loglik, stats = _e_step(haps, init, trans, emis)
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
