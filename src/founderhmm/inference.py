"""Forward-backward machinery over founder pairs.

State beliefs over the two founder chains are K x K matrices. Each locus
step applies one elementwise emission hit and one transition, where the
transition is factored into two K-sized contractions (one per chain), so a
step costs O(K^3) instead of the O(K^4) unfactored form. Every stored
matrix is rescaled to unit mass and the normalizers are recorded, which
keeps long genotypes out of the underflow range while allowing exact
reconstruction of unscaled quantities and log-likelihoods.

One kernel, :func:`_walk`, runs that recurrence for every engine: a single
genotype is a walk over one row, and the batch engine walks prefix-sorted
distinct rows, resuming each after the prefix it shares with the row
before it. The backward direction is the same walk over reversed rows,
since stepping through a transposed transition retreats where the
original advances.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (MISSING, FounderHMM, InputError, MultilocusGenotype,
                    ZeroProbabilityError, emission_stack, symbol_plane)


def _symbols_of(genotype) -> np.ndarray:
    if isinstance(genotype, MultilocusGenotype):
        return genotype.symbols
    return MultilocusGenotype("anon", genotype).symbols


def _check_length(model: FounderHMM, symbols: np.ndarray):
    if symbols.shape[0] != model.loci:
        raise InputError(
            f"genotype has {symbols.shape[0]} loci but the model has {model.loci}")


def _planes(symbols: np.ndarray) -> list:
    """Emission-plane index of each symbol, as (nested) lists; MISSING reads
    the all-ones plane 3."""
    return np.where(symbols == MISSING, 3, symbols).tolist()


def _absorb(state: np.ndarray, emat: np.ndarray):
    """Multiply in one locus' emission table and renormalize.

    Returns (normalized matrix, mass). Zero mass yields an all-zero matrix
    so degenerate genotypes propagate exact zeros instead of NaNs.
    """
    tmp = state * emat
    mass = float(tmp.sum())
    if mass > 0.0:
        tmp /= mass
    else:
        tmp[:] = 0.0
        mass = 0.0
    return tmp, mass


def _walk(rows, lcps, emit, trans, state, log):
    """The inference kernel: absorb, renormalize and step along each row.

    Depth d absorbs plane rows[r][d] of emit[d] and then, while
    d < len(trans), steps the belief to trans[d].T @ belief @ trans[d]
    (two chained K-contractions, one per founder chain). Row r resumes at
    depth lcps[r], so its first lcps[r] planes must equal those of the row
    before it; walking prefix-sorted rows thus evaluates each distinct
    prefix once. After each row this yields (states, logs, masses):
    states[d] is the unit-mass belief before depth d, logs[d] the log of
    the normalizers before it (logs[0] = ``log``) and masses[d] the
    normalizer of depth d. The next row overwrites these buffers.
    """
    depths, steps = len(emit), len(trans)
    states = np.empty((steps + 1,) + state.shape, dtype=np.float64)
    logs = np.empty(depths + 1, dtype=np.float64)
    masses = np.empty(depths, dtype=np.float64)
    states[0] = state
    logs[0] = log
    for row, lcp in zip(rows, lcps):
        log = logs[lcp]
        with np.errstate(divide="ignore"):
            for d in range(lcp, depths):
                tmp, mass = _absorb(states[d], emit[d, row[d]])
                masses[d] = mass
                log = log + np.log(mass)
                logs[d + 1] = log
                if d < steps:
                    t = trans[d]
                    states[d + 1] = t.T @ (tmp @ t)
        yield states, logs, masses


def _prior(model: FounderHMM):
    """Unit-mass founder-pair prior and its normalizer."""
    state = np.outer(model.initial, model.initial)
    norm = float(state.sum())
    return state / norm, norm


def _reversed(etab: np.ndarray, trans: np.ndarray):
    """Emission and step tables of the right-to-left walk: depth d is locus
    n-1-d, and it retreats through trans[n-2-d]."""
    return etab[::-1], trans[::-1].transpose(0, 2, 1)


def _forward_walk(model, etab, rows, lcps):
    state, norm = _prior(model)
    return _walk(rows, lcps, etab, model.transitions, state, np.log(norm))


def _backward_walk(model, etab, rows, lcps):
    """Walk of reversed rows; it also absorbs locus 0, which no backward
    state needs."""
    k = model.founders
    return _walk(rows, lcps, *_reversed(etab, model.transitions),
                 np.ones((k, k), dtype=np.float64), 0.0)


def _combine(fstates, bstates, etab) -> np.ndarray:
    """Per-locus substitution weights, shape (n, 3)."""
    prod = fstates * bstates
    return np.einsum("ikl,ixkl->ix", prod, etab[:, :3])


def _scan_rows(model, etab, rows, lcps, rrows, rlcps, back_of) -> list:
    """PosteriorScan per forward row. A backward walk over the reversed
    rows caches states and suffix logs per reversed row; the forward walk
    then combines row r with cache entry back_of[r]."""
    n = model.loci
    cache = [(states[::-1].copy(), logs[:n][::-1].copy())
             for states, logs, _ in _backward_walk(model, etab, rrows, rlcps)]
    scans = []
    for (states, logs, _), b in zip(_forward_walk(model, etab, rows, lcps), back_of):
        bstates, blogs = cache[b]
        scans.append(PosteriorScan(_combine(states, bstates, etab),
                                   logs[:n].copy(), blogs, float(logs[n])))
    return scans


def _scan_rows_blocked(model, etab, rows, lcps, block_size) -> list:
    """Memory-bounded :func:`_scan_rows` over one set of prefix-sorted rows.

    The forward walk keeps only each row's states and logs at block starts.
    Blocks are then processed right to left: each row re-walks the block
    forward from its checkpoint, and backward from the state carried over
    from the block to its right. Numbers match :func:`_scan_rows` exactly.
    """
    n, k = model.loci, model.founders
    checkpoints = [(states[::block_size].copy(), logs[:n:block_size].copy(),
                    float(logs[n]))
                   for states, logs, _ in _forward_walk(model, etab, rows, lcps)]
    retab, rtrans = _reversed(etab, model.transitions)
    triples = np.empty((len(rows), n, 3), dtype=np.float64)
    flogs = np.empty((len(rows), n), dtype=np.float64)
    blogs = np.empty((len(rows), n), dtype=np.float64)
    carry = [(np.ones((k, k), dtype=np.float64), 0.0)] * len(rows)
    for b, lo in reversed(list(enumerate(range(0, n, block_size)))):
        hi = min(lo + block_size, n)
        span = hi - lo
        for r, row in enumerate(rows):
            fstates, fl, _ = next(_walk(
                [row[lo:hi]], [0], etab[lo:hi], model.transitions[lo:hi - 1],
                checkpoints[r][0][b], checkpoints[r][1][b]))
            bstates, bl, _ = next(_walk(
                [row[lo:hi][::-1]], [0], retab[n - hi:n - lo],
                rtrans[n - hi:n - lo], *carry[r]))
            carry[r] = bstates[-1], bl[-1]
            flogs[r, lo:hi] = fl[:span]
            blogs[r, lo:hi] = bl[:span][::-1]
            triples[r, lo:hi] = _combine(fstates, bstates[:span][::-1].copy(),
                                         etab[lo:hi])
    return [PosteriorScan(triples[r], flogs[r], blogs[r], checkpoints[r][2])
            for r in range(len(rows))]


@dataclass(frozen=True)
class ForwardPass:
    """Scaled forward matrices plus their per-locus normalizers.

    matrices[i] has unit mass; multiplying by the cumulative product of
    scale_factors[0..i] recovers the unscaled joint probability of the
    founder pair at locus i with all preceding symbols.
    """

    matrices: np.ndarray       # (n, K, K)
    scale_factors: np.ndarray  # (n,)


@dataclass(frozen=True)
class BackwardPass:
    """Scaled backward matrices; matrices[i] * prod(scale_factors[i:])
    recovers the unscaled suffix probability given the pair at locus i."""

    matrices: np.ndarray
    scale_factors: np.ndarray


@dataclass(frozen=True)
class ForwardBackwardResult:
    """Both sweeps over one genotype.

    scale_factors[i] is the conditional probability of symbol i given the
    symbols before it, so their logs sum to log_likelihood. forward_norms
    and backward_norms are the raw per-sweep normalizers needed to
    reconstruct unscaled matrices.
    """

    forward: np.ndarray         # (n, K, K)
    backward: np.ndarray        # (n, K, K)
    scale_factors: np.ndarray   # (n,)
    log_likelihood: float
    forward_norms: np.ndarray   # (n,)
    backward_norms: np.ndarray  # (n,)


@dataclass(frozen=True)
class PosteriorScan:
    """Per-locus combination of both sweeps, tolerant of zero mass.

    triples[i, x] is proportional to the probability of the genotype with
    locus i replaced by symbol x; the shared scale at locus i is
    exp(prefix_logs[i] + suffix_logs[i]).
    """

    triples: np.ndarray       # (n, 3)
    prefix_logs: np.ndarray   # (n,)
    suffix_logs: np.ndarray   # (n,)
    log_likelihood: float

    @property
    def loci(self) -> int:
        return self.triples.shape[0]

    def substituted_probability(self, locus: int, symbol: int) -> float:
        """Unscaled probability of the genotype with one locus replaced
        (symbol MISSING gives the marginalized probability)."""
        row = self.triples[locus]
        value = float(row.sum()) if symbol_plane(symbol) == 3 else float(row[symbol])
        if value == 0.0:
            return 0.0
        return value * float(np.exp(self.prefix_logs[locus] + self.suffix_logs[locus]))

    def log_marginals(self) -> np.ndarray:
        """log probability of the genotype with each locus marginalized."""
        with np.errstate(divide="ignore"):
            return np.log(self.triples.sum(axis=1)) + self.prefix_logs + self.suffix_logs


@dataclass(frozen=True)
class PosteriorTable:
    """Normalized per-locus genotype posteriors.

    probs[i, x] = P(symbol x at locus i | all other symbols); each row sums
    to one. log_marginals[i] is the log unscaled probability of the
    genotype with locus i marginalized out.
    """

    probs: np.ndarray          # (n, 3)
    log_marginals: np.ndarray  # (n,)

    @property
    def loci(self) -> int:
        return self.probs.shape[0]


def _prepare(model: FounderHMM, genotype):
    symbols = _symbols_of(genotype)
    _check_length(model, symbols)
    return _planes(symbols), emission_stack(model)


def _forward_row(model, etab, planes):
    """Forward walk of one genotype; raises at its first zero-mass locus."""
    states, logs, masses = next(_forward_walk(model, etab, [planes], [0]))
    dead = np.flatnonzero(masses == 0.0)
    if dead.size:
        raise ZeroProbabilityError(int(dead[0]))
    return states, logs, masses


def _backward_row(model, etab, planes):
    """Backward states of one genotype in locus order and their normalizers
    (betas[i - 1] is that of locus i, betas[n - 1] = 1); raises at the
    first zero-mass locus from the right."""
    states, _, masses = next(_backward_walk(model, etab, [planes[::-1]], [0]))
    betas = np.append(masses[:-1][::-1], 1.0)
    dead = np.flatnonzero(betas == 0.0)
    if dead.size:
        raise ZeroProbabilityError(int(dead[-1]) + 1)
    return states[::-1].copy(), betas


def _forward_norms(model, masses) -> np.ndarray:
    return np.concatenate(([_prior(model)[1]], masses[:-1]))


def forward(model: FounderHMM, genotype) -> ForwardPass:
    """Scaled forward sweep; raises ZeroProbabilityError when the model
    puts no mass on some prefix."""
    planes, etab = _prepare(model, genotype)
    states, _, masses = _forward_row(model, etab, planes)
    return ForwardPass(states, _forward_norms(model, masses))


def backward(model: FounderHMM, genotype) -> BackwardPass:
    planes, etab = _prepare(model, genotype)
    return BackwardPass(*_backward_row(model, etab, planes))


def forward_backward(model: FounderHMM, genotype) -> ForwardBackwardResult:
    planes, etab = _prepare(model, genotype)
    fstates, logs, masses = _forward_row(model, etab, planes)
    bstates, betas = _backward_row(model, etab, planes)
    return ForwardBackwardResult(fstates, bstates, masses, float(logs[-1]),
                                 _forward_norms(model, masses), betas)


def total_log_likelihood(model: FounderHMM, genotype) -> float:
    """log P(genotype); -inf when the model puts no mass on it."""
    planes, etab = _prepare(model, genotype)
    _, logs, _ = next(_forward_walk(model, etab, [planes], [0]))
    return float(logs[-1])


def posterior_scan(model: FounderHMM, genotype) -> PosteriorScan:
    """Tolerant two-sweep scan; zero-probability genotypes produce exact
    zero rows instead of raising."""
    planes, etab = _prepare(model, genotype)
    return _scan_rows(model, etab, [planes], [0], [planes[::-1]], [0], [0])[0]


def table_from_scan(scan: PosteriorScan) -> PosteriorTable:
    """Normalize a scan into per-locus posteriors; raises
    ZeroProbabilityError naming the first locus whose marginal is zero."""
    sums = scan.triples.sum(axis=1)
    dead = np.flatnonzero(sums <= 0.0)
    if dead.size:
        raise ZeroProbabilityError(int(dead[0]))
    return PosteriorTable(scan.triples / sums[:, None], scan.log_marginals())


def genotype_posteriors(model: FounderHMM, genotype) -> PosteriorTable:
    """Per-locus posteriors P(x at locus i | all other symbols) in O(n K^2)
    combination work on top of one forward and one backward sweep."""
    return table_from_scan(posterior_scan(model, genotype))


def forward_naive(model: FounderHMM, genotype) -> ForwardPass:
    """Reference forward sweep using the unfactored O(K^4) pair-transition
    contraction. Same scaling conventions as :func:`forward`."""
    symbols = _symbols_of(genotype)
    _check_length(model, symbols)
    etab = emission_stack(model)
    n = model.loci
    states = np.empty((n, model.founders, model.founders), dtype=np.float64)
    masses = np.empty(n, dtype=np.float64)
    state = np.outer(model.initial, model.initial)
    init_norm = float(state.sum())
    state /= init_norm
    for i in range(n):
        states[i] = state
        tmp, mass = _absorb(state, etab[i, symbol_plane(symbols[i])])
        if mass == 0.0:
            raise ZeroProbabilityError(i)
        masses[i] = mass
        if i < n - 1:
            t = model.transitions[i]
            state = np.einsum("ab,ac,bd->cd", tmp, t, t)
    factors = np.concatenate(([init_norm], masses[:-1])) if n > 1 \
        else np.array([init_norm])
    return ForwardPass(states, factors)


def backward_naive(model: FounderHMM, genotype) -> BackwardPass:
    """Reference backward sweep with the unfactored pair contraction."""
    symbols = _symbols_of(genotype)
    _check_length(model, symbols)
    etab = emission_stack(model)
    n, k = model.loci, model.founders
    states = np.empty((n, k, k), dtype=np.float64)
    betas = np.empty(n, dtype=np.float64)
    state = np.ones((k, k), dtype=np.float64)
    betas[n - 1] = 1.0
    for i in range(n - 1, -1, -1):
        states[i] = state
        if i > 0:
            tmp, mass = _absorb(state, etab[i, symbol_plane(symbols[i])])
            if mass == 0.0:
                raise ZeroProbabilityError(i)
            betas[i - 1] = mass
            t = model.transitions[i - 1]
            state = np.einsum("ac,bd,cd->ab", t, t, tmp)
    return BackwardPass(states, betas)
