"""Forward-backward machinery over founder pairs, and the batch engine.

State beliefs over the two founder chains are K x K matrices. Each locus
step applies one elementwise emission hit and one transition, where the
transition is factored into two K-sized contractions (one per chain), so a
step costs O(K^3) instead of the O(K^4) unfactored form. Every stored
matrix is rescaled to unit mass and the normalizers are recorded, which
keeps long genotypes out of the underflow range while allowing exact
reconstruction of unscaled quantities and log-likelihoods.

One kernel, :func:`_step`, takes that step for a stack of beliefs and
serves every engine: a single genotype is a (1, K, K) stack, and the batch
engine, :func:`_scan_rows`, steps tiles of sorted distinct genotypes,
their forward and backward walks as one (2, B, K, K) stack. The backward
direction is the same step over reversed loci, since a transposed
transition retreats where the original advances. The batch engine and
phasing's max-product walk, :func:`_viterbi_rows`, step every row from
the prior through every locus; rows share no arithmetic. The max-product
walk holds its values as (K, K, rows) arrays, the rows last,
so that each depth's peaks reduce over the leading axes and each step
reads transposed views in place. A dead (zero-mass) belief is divided by
the least double, which keeps it zero; the max-product step makes the
same NumPy calls per depth for any K.

The batch entry, :func:`batched_posteriors`, serves error detection,
recovery and every imputation window. One sort of the rows as byte
strings reduces a corpus to its sorted distinct rows and counts their
prefix-trie nodes for :class:`BatchStats` (:func:`build_trie`); no trie
is built. Failures come from one pass over the engine's arrays;
posterior tables, from another when they are first read.

Memory of the batch engine: its arrays hold substitution weights and
prefix and suffix log sums, 5 x 8 bytes per distinct genotype and locus,
and the sorted genotypes and their emission planes take 2 bytes more; the
posterior tables, once read, take 4 x 8 bytes more, and detection's
scores of the (distinct genotype, locus) grid at most 6 x 8 bytes more
while they are made (``analysis.detect_errors``). While it runs, the
engine holds one tile's states of both walks for the first half of the
loci, 64 x loci x K^2 x 8 bytes for any number of genotypes, capped at
64 MiB. Past the cap (above 2674 loci at K = 7) it keeps backward
checkpoints at the starts of blocks of b loci, b as many as fit, and runs
the fused walk one block at a time from its checkpoint, for loci - b more
backward evaluations per genotype: 46% more at 5000 loci and K = 7, where
b = 2674. The checkpoints add 64 x K^2 x 8 bytes per block, and the
tile's masses of both walks (two arrays), emission indices (two, one per
walk, built a block at a time) and log sums (one) at most 5 x 64 x loci
x 8 bytes. Blocks change the pace, never the numbers.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import (MISSING, FounderHMM, GenotypeCorpus, InputError,
                    MultilocusGenotype, ZeroProbabilityError, emission_stack,
                    symbol_plane)

# Distinct genotypes the batch engine steps together. A fixed count keeps
# a tile's memory linear in loci and the engine's time linear in rows.
_TILE_ROWS = 64
# Byte cap on the backward states one tile holds; longer genotypes walk
# in checkpointed blocks of loci, which changes the pace, never the answer.
_TILE_BYTES = 64 << 20
_LEAST = np.nextafter(0.0, 1.0)  # below every live mass; see the module docstring


def _planes(symbols: np.ndarray) -> np.ndarray:
    """Emission-plane index of each symbol, one byte each; MISSING reads
    the all-ones plane 3."""
    return np.where(symbols == MISSING, 3, symbols).astype(np.int8, copy=False)


def _step(states: np.ndarray, emats: np.ndarray, t):
    """The inference kernel: multiply each belief of a stack of K x K
    beliefs by its emission table, rescale it to unit mass and, unless t is
    None, step it to t.T @ belief @ t (two chained K-contractions, one per
    founder chain). Reductions and transposes run over the trailing two
    axes, so a (2, B, K, K) stack steps two walks at once through (2, 1,
    K, K) factors. Returns the new stack and the masses; zero mass yields
    an all-zero belief, so impossible genotypes propagate exact zeros."""
    tmp = states * emats
    mass = tmp.sum(axis=(-2, -1))
    tmp /= np.maximum(mass, _LEAST)[..., None, None]
    if t is not None:
        tmp = t.mT @ (tmp @ t)
    return tmp, mass


def _walk(emit, trans, planes, state, log):
    """Step a (B, K, K) stack through each depth d of ``emit``: absorb
    emit[d][planes[d]], then step through trans[d] if there is one. Returns
    the unit-mass beliefs and summed log normalizers (from ``log``) before
    each depth, and the normalizers of each depth. The beliefs stay one
    array per depth: a single tile-sized block, once freed, leads glibc to
    serve later large allocations from its heap, which raised peak RSS."""
    steps, depths = len(trans), len(emit)
    states = [state]
    masses = np.empty((depths, state.shape[0]))
    for d in range(depths):
        new, masses[d] = _step(states[d], emit[d][planes[d]],
                               trans[d] if d < steps else None)
        if d < steps:
            states.append(new)
    return states, _log_sums(log, masses), masses


def _log_sums(log, masses):
    """Row d: ``log`` plus the logs of the (depths, B) masses before depth d,
    by cumsum, which adds in depth order (a sum would add a row pairwise)."""
    logs = np.empty((len(masses) + 1, masses.shape[1]))
    logs[0] = log
    with np.errstate(divide="ignore"):
        np.log(masses, out=logs[1:])
    return np.cumsum(logs, axis=0, out=logs)


def _prior(model: FounderHMM):
    """Unit-mass founder-pair prior and its normalizer."""
    state = np.outer(model.initial, model.initial)
    norm = float(state.sum())
    return state / norm, norm


def _reversed(etab: np.ndarray, trans: np.ndarray):
    """Emission and step tables of the right-to-left walk: depth d is locus
    n-1-d, and it retreats through trans[n-2-d]."""
    return etab[::-1], trans[::-1].transpose(0, 2, 1)


def _block_loci(rows: int, loci: int, founders: int) -> int:
    """Loci per checkpointed block: all of them when one tile's backward
    states fit in ``_TILE_BYTES``, else as many as fit, at least one."""
    per_locus = min(rows, _TILE_ROWS) * founders * founders * 8
    return max(1, min(loci, _TILE_BYTES // per_locus))


def _scan_rows(model, etab, planes):
    """Posterior scans of sorted distinct genotypes, as arrays.

    Returns the triples (rows, n, 3), prefix and suffix logs (rows, n) and
    log-likelihoods (rows,) of the rows of ``planes`` (rows, n), as
    :class:`PosteriorScan` defines them, and the count of backward locus
    evaluations. Each tile of ``_TILE_ROWS`` rows crosses the blocks of
    :func:`_block_loci` loci left to right; a right-to-left walk first
    keeps the last backward state of each block (one block of all loci
    skips it). In a block, the forward walk from the block's first locus
    and the backward walk from its checkpoint step as one (2, rows, K, K)
    stack, and each locus combines its two states, in the second half of
    the block's walk, as soon as both exist. Every row of a tile is
    stepped at every depth, from the prior.
    """
    rows, n = planes.shape
    k, trans = model.founders, model.transitions
    retab, rtrans = _reversed(etab, trans)
    b = _block_loci(rows, n, k)
    blocks = [(lo, min(lo + b, n)) for lo in range(0, n, b)]
    # step j of a block: forward through trans[lo + j], backward through
    # trans[hi - 2 - j].T
    factors = [np.stack((trans[lo:hi - 1], trans[lo:hi - 1][::-1].mT), axis=1)[:, :, None]
               for lo, hi in blocks]
    flat = etab.reshape(-1, k, k)  # plane p of locus i is table 4 i + p
    triples = np.empty((rows, n, 3))
    flogs, blogs = np.empty((rows, n)), np.empty((rows, n))
    loglik = np.empty(rows)
    prior, norm = _prior(model)
    bevals = 0
    for t0 in range(0, rows, _TILE_ROWS):
        t1 = min(t0 + _TILE_ROWS, rows)
        width = t1 - t0
        tplanes = np.ascontiguousarray(planes[t0:t1].T)
        rplanes = tplanes[::-1]
        # free each walk's states before the next walk allocates its own
        checkpoints = [(np.ones((width, k, k)), np.zeros(width))]
        for lo, hi in blocks[:0:-1]:
            states, logs, _ = _walk(retab[n - hi:n - lo], rtrans[n - hi:n - lo],
                                    rplanes[n - hi:n - lo], *checkpoints[-1])
            checkpoints.append((states[-1], logs[-1].copy()))
            del states, logs

        def combine(d, fwd, bwd):
            triples[t0:t1, d] = np.einsum("bkl,xkl->bx", fwd * bwd, etab[d, :3])
        fwd = np.broadcast_to(prior, (width, k, k))
        # row d: step d of the forward walk and of its block's backward walk
        masses = np.empty((2, n, width))
        for (lo, hi), (bstate, blog), factor in zip(blocks, checkpoints[::-1], factors):
            m = hi - lo
            pidx = 4 * np.arange(lo, hi)[:, None] + tplanes[lo:hi]  # each row's table in flat
            pidx = np.stack((pidx[:-1], pidx[:0:-1]), axis=1)
            stack, held = np.stack((fwd, bstate)), []
            for j in range(m):
                d, mirror = lo + j, m - 1 - j
                if j < mirror:
                    held.append(stack)
                elif j == mirror:
                    combine(d, *stack)
                else:  # the pair of loci whose states now both exist
                    combine(d, stack[0], held[mirror][1])
                    combine(lo + mirror, held[mirror][0], stack[1])
                    held[mirror] = None
                if j < m - 1:
                    stack, masses[:, d] = _step(stack, flat[pidx[j]], factor[j])
                else:
                    fwd, masses[0, d] = _step(stack[0], etab[d][tplanes[d]],
                                              trans[d] if d < n - 1 else None)
            blogs[t0:t1, lo:hi] = _log_sums(blog, masses[1, lo:hi - 1])[::-1].T
        logs = _log_sums(np.log(norm), masses[0])
        flogs[t0:t1], loglik[t0:t1] = logs[:-1].T, logs[-1]
        bevals += width * (2 * n - blocks[0][1] - len(blocks))
    return (triples, flogs, blogs, loglik), bevals


def _distinct_rows(matrix: np.ndarray):
    """Sorted distinct rows of a matrix of symbols -1 to 254, first indices,
    counts and inverse, as ``np.unique(axis=0)`` gives them: shifted by one
    to bytes, MISSING first, each row is one byte string for a 1-D sort."""
    keys = np.ascontiguousarray(matrix + 1, dtype=np.uint8)
    _, first, inverse, counts = np.unique(keys.view(f"V{keys.shape[1]}").ravel(),
        return_index=True, return_inverse=True, return_counts=True)
    return matrix[first], first, counts, inverse


def build_trie(symbols: np.ndarray):
    """Sorted distinct rows of a (genotypes, loci) symbol matrix, the row of
    each genotype, and the node count of the rows' prefix trie: each row
    adds the loci past the prefix it shares with the row before."""
    rows, _, _, row_of = _distinct_rows(symbols)
    shared = (rows[1:] != rows[:-1]).argmax(axis=1)
    return rows, row_of, rows.size - int(shared.sum())


@dataclass(frozen=True)
class BatchStats:
    """Work accounting for one batched run. A locus evaluation is one
    emission absorption plus its transition step.

    The forward count is the number of nodes of the distinct genotypes'
    prefix trie, loci - lcp per distinct genotype (lcp: the prefix it
    shares with the one before): it measures repetition, not work, since
    the engine steps every distinct genotype through every locus. The
    backward count is the engine's, loci - 1 per distinct genotype. When
    the engine splits loci into blocks of b (see the module docstring), it
    first walks loci - b loci of every distinct genotype to find the
    blocks' checkpoints, then each block again from its checkpoint,
    loci - ceil(loci / b) in all.
    """

    samples: int
    loci: int
    distinct_genotypes: int
    forward_locus_evals: int
    backward_locus_evals: int

    @property
    def naive_locus_evals(self) -> int:
        return self.samples * self.loci


@dataclass(frozen=True)
class BatchPosteriorResult:
    """Posterior arrays of every distinct genotype of a corpus.

    Row r of ``triples`` (distinct, loci, 3), ``prefix_logs``,
    ``suffix_logs`` and ``log_likelihoods`` is that of distinct genotype r
    (see :class:`PosteriorScan`); ``row_of[j]`` is the row of the j-th
    corpus genotype, whose id is ``sample_ids[j]``. ``tables`` maps each
    sample id to its row's :class:`PosteriorTable`, one object per row,
    built when first read, so a caller of the arrays alone never pays for
    them. A sample whose genotype has a zero marginal gets no table;
    ``failures`` maps it to the first such locus.
    """

    triples: np.ndarray
    prefix_logs: np.ndarray
    suffix_logs: np.ndarray
    log_likelihoods: np.ndarray
    row_of: np.ndarray
    sample_ids: tuple
    failures: dict
    stats: BatchStats

    @cached_property
    def tables(self) -> dict:
        sums = self.triples.sum(axis=2)
        with np.errstate(divide="ignore", invalid="ignore"):
            probs = self.triples / sums[:, :, None]
            log_marginals = np.log(sums) + self.prefix_logs + self.suffix_logs
        row_tables = list(map(PosteriorTable, probs, log_marginals))
        return {sid: row_tables[r] for sid, r in zip(self.sample_ids, self.row_of.tolist())
                if sid not in self.failures}


def _checked_corpus(model: FounderHMM, corpus) -> GenotypeCorpus:
    """``corpus`` as a matrix, non-empty and on the model's loci."""
    corpus = GenotypeCorpus.of(corpus)
    if not corpus:
        raise InputError("corpus must be non-empty")
    if corpus.loci != model.loci:
        raise InputError(f"corpus has {corpus.loci} loci but the model has {model.loci}")
    return corpus


def batched_posteriors(model: FounderHMM, corpus) -> BatchPosteriorResult:
    """Posterior arrays and tables for every corpus genotype, from one
    :func:`_scan_rows` over its sorted distinct rows.

    Results are bitwise equal to per-sample :func:`posterior_scan` and
    :func:`genotype_posteriors`, and independent of corpus order and of
    the engine's block length. The tables are built when first read.
    """
    corpus = _checked_corpus(model, corpus)
    rows, row_of, fevals = build_trie(corpus.matrix)
    arrays, bevals = _scan_rows(model, emission_stack(model), _planes(rows))
    triples = arrays[0]
    # the weights are never negative: a zero sum is a triple of zeros
    dead = (triples[:, :, 0] + triples[:, :, 1] + triples[:, :, 2]) <= 0.0
    # each row's first locus of zero marginal, -1 for a live row
    first_dead = np.where(dead.any(axis=1), dead.argmax(axis=1), -1)
    failed = np.flatnonzero(first_dead[row_of] >= 0).tolist()
    return BatchPosteriorResult(
        *arrays, row_of=row_of, sample_ids=corpus.ids,
        failures=dict(zip(map(corpus.ids.__getitem__, failed),
                          first_dead[row_of[failed]].tolist())),
        stats=BatchStats(len(corpus), corpus.loci, len(triples), fevals, bevals))


def _max_dot(x, t):
    """out[c, b, r] = max over j of t[j, c] * x[j, b, r] for a (K, B, R)
    stack x and a (K, C) matrix t, and arg the first j attaining it (as
    argmax), from all K candidate products at once: x broadcasts as it
    lies, a transposed view included, and the first j is read off the
    equality mask weighted by K - 1 - j, so the call count does not grow
    with K."""
    k = len(t)
    cand = t[:, :, None, None] * x[:, None]
    out = cand.max(axis=0)
    rank = np.arange(k - 1, -1, -1, dtype=np.min_scalar_type(k - 1))[:, None, None, None]
    return out, k - 1 - ((cand == out) * rank).max(axis=0)


def _viterbi_rows(model, etab, planes):
    """Max-product walk of every row of ``planes`` as in :func:`_scan_rows`,
    on (K, K, rows) values, the rows last: pair values absorb each
    emission, rescale to unit maximum (a row left with none keeps zeros),
    and collapse the second chain, then the first, by :func:`_max_dot`;
    each depth's row peaks, a reduction over the leading axes, give the
    log scales and first dead loci after the walk. Returns the last (K, K,
    rows) values, summed log scales, first dead loci (-1 for none) and
    back-pointers as (K, K, rows) planes (the best pair (a, b) of row r at
    locus i + 1 comes from (f, back[i, 1, b, f, r]), f = back[i, 0, a, b,
    r])."""
    b, n = planes.shape
    k, trans = model.founders, model.transitions
    tplanes = np.ascontiguousarray(planes.T)
    emit = etab.transpose(0, 2, 3, 1)  # np.take on its last axis gathers (K, K, rows)
    back = np.empty((max(n - 1, 0), 2, k, k, b), dtype=np.min_scalar_type(k - 1))
    value = np.broadcast_to(np.outer(model.initial, model.initial)[:, :, None], (k, k, b))
    peaks = np.empty((n, b))
    for i in range(n):
        hit = value * np.take(emit[i], tplanes[i], axis=2)
        peaks[i] = peak = hit.max(axis=(0, 1))
        hit /= np.maximum(peak, _LEAST)
        if i == n - 1:
            value = hit
            break
        collapsed, back[i, 1] = _max_dot(hit.transpose(1, 0, 2), trans[i])
        value, back[i, 0] = _max_dot(collapsed.transpose(1, 0, 2), trans[i])
    zero = peaks <= 0.0
    dead = np.where(zero.any(axis=0), zero.argmax(axis=0), -1)
    peaks[zero] = 1.0  # their log sums in place, by cumsum as in _log_sums
    logscale = np.cumsum(np.log(peaks, out=peaks), axis=0, out=peaks)[-1]
    return value, logscale, dead, back


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


def _prepare(model: FounderHMM, genotype):
    """Emission planes of a genotype (or symbol sequence) and the model's
    emission stack."""
    if not isinstance(genotype, MultilocusGenotype):
        genotype = MultilocusGenotype("anon", genotype)
    if len(genotype) != model.loci:
        raise InputError(
            f"genotype has {len(genotype)} loci but the model has {model.loci}")
    return _planes(genotype.symbols), emission_stack(model)


def _forward_row(model, etab, planes):
    """Forward walk of one genotype; raises at its first zero-mass locus."""
    state, norm = _prior(model)
    states, logs, masses = _walk(etab, model.transitions, planes[:, None],
                                 state[None], np.log(norm))
    dead = np.flatnonzero(masses == 0.0)
    if dead.size:
        raise ZeroProbabilityError(int(dead[0]))
    return np.stack(states)[:, 0], logs[:, 0], masses[:, 0]


def _backward_row(model, etab, planes):
    """Backward states of one genotype in locus order and their normalizers
    (betas[i - 1] is that of locus i, betas[n - 1] = 1); raises at the
    first zero-mass locus from the right."""
    retab, rtrans = _reversed(etab, model.transitions)
    states, _, masses = _walk(retab[:-1], rtrans, planes[::-1, None],
                              np.ones((1,) + etab.shape[2:]), 0.0)
    betas = np.append(masses[::-1, 0], 1.0)
    dead = np.flatnonzero(betas == 0.0)
    if dead.size:
        raise ZeroProbabilityError(int(dead[-1]) + 1)
    return np.stack(states[::-1])[:, 0], betas


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
    state, norm = _prior(model)
    _, logs, _ = _walk(etab, model.transitions, planes[:, None], state[None],
                       np.log(norm))
    return float(logs[-1, 0])


def posterior_scan(model: FounderHMM, genotype) -> PosteriorScan:
    """Tolerant two-sweep scan; zero-probability genotypes produce exact
    zero rows instead of raising."""
    planes, etab = _prepare(model, genotype)
    ((triples,), (flogs,), (blogs,), (loglik,)), _ = _scan_rows(
        model, etab, planes[None])
    return PosteriorScan(triples, flogs, blogs, float(loglik))


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
    planes, etab = _prepare(model, genotype)
    n = model.loci
    states = np.empty((n, model.founders, model.founders), dtype=np.float64)
    masses = np.empty(n, dtype=np.float64)
    state, _ = _prior(model)
    for i in range(n):
        states[i] = state
        (tmp,), (mass,) = _step(state[None], etab[i, planes[i]][None], None)
        if mass == 0.0:
            raise ZeroProbabilityError(i)
        masses[i] = mass
        if i < n - 1:
            t = model.transitions[i]
            state = np.einsum("ab,ac,bd->cd", tmp, t, t)
    return ForwardPass(states, _forward_norms(model, masses))


def backward_naive(model: FounderHMM, genotype) -> BackwardPass:
    """Reference backward sweep with the unfactored pair contraction."""
    planes, etab = _prepare(model, genotype)
    n, k = model.loci, model.founders
    states = np.empty((n, k, k), dtype=np.float64)
    betas = np.empty(n, dtype=np.float64)
    state = np.ones((k, k), dtype=np.float64)
    betas[n - 1] = 1.0
    for i in range(n - 1, -1, -1):
        states[i] = state
        if i > 0:
            (tmp,), (mass,) = _step(state[None], etab[i, planes[i]][None], None)
            if mass == 0.0:
                raise ZeroProbabilityError(i)
            betas[i - 1] = mass
            t = model.transitions[i - 1]
            state = np.einsum("ac,bd,cd->ab", t, t, tmp)
    return BackwardPass(states, betas)
