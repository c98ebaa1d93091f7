"""Batched posterior inference over a genotype corpus, as arrays.

One sort of the rows as byte strings reduces the corpus to its sorted
distinct rows; no trie is built. The engine steps the rows 64 at a time,
every row from the prior through every locus: a forward walk and a
backward walk along every row step together as one (2, rows, K, K) stack
per depth, and each locus combines its forward and backward states as
soon as both exist. Failures come from one pass over the result arrays;
posterior tables, from another when they are first read. The rows' prefix-trie nodes, which :class:`BatchStats`
reports, are counted once, where the corpus is deduplicated.

Memory: the engine's arrays hold substitution weights and prefix and
suffix log sums, 5 x 8 bytes per distinct genotype and locus, and the
sorted genotypes and their emission planes take 2 bytes more; the
posterior tables, once read, take 4 x 8 bytes more, and detection's
scores of the (distinct genotype, locus) grid at most 6 x 8 bytes more
while they are made (``analysis.detect_errors``). While it
runs, the engine holds one tile's states of both walks for the first
half of the loci, 64 x loci x K^2 x 8 bytes for any number of genotypes,
capped at 64 MiB. Past the cap (above 2674 loci at K = 7) it keeps
backward checkpoints at the starts of blocks of b loci, b as many as fit,
and runs the fused walk one block at a time from its checkpoint, for
loci - b more backward evaluations per genotype: 46% more at 5000 loci
and K = 7, where b = 2674. The checkpoints add 64 x K^2 x 8 bytes per
block, and the tile's masses of both walks (two arrays), emission indices
(two, one per walk, built a block at a time) and log sums (one) at most
5 x 64 x loci x 8 bytes. Blocks change the pace, never the numbers.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .inference import PosteriorTable, _planes, _scan_rows
from .model import FounderHMM, GenotypeCorpus, InputError, emission_stack


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


# No caller in the package; perfbench/tracer.py looks it up by name.
def reversed_trie(symbols: np.ndarray):
    """:func:`build_trie` of the reversed genotypes."""
    return build_trie(symbols[:, ::-1])


def _scan_symbols(model: FounderHMM, symbols: np.ndarray):
    """The engine: posterior arrays of the sorted distinct rows of a
    (genotypes, loci) symbol matrix. Returns each genotype's row, the
    arrays of :func:`~founderhmm.inference._scan_rows` over the rows, and
    the forward (trie node) and backward locus evaluation counts."""
    rows, row_of, nodes = build_trie(symbols)
    arrays, bevals = _scan_rows(model, emission_stack(model), _planes(rows))
    return row_of, arrays, (nodes, bevals)


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
    (see :class:`~founderhmm.inference.PosteriorScan`); ``row_of[j]`` is
    the row of the j-th corpus genotype, whose id is ``sample_ids[j]``.
    ``tables`` maps each sample id to its row's
    :class:`~founderhmm.inference.PosteriorTable`, one object per row,
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
    """Posterior arrays and tables for every corpus genotype.

    Results are bitwise equal to per-sample :func:`posterior_scan` and
    :func:`genotype_posteriors`, and independent of corpus order and of
    the engine's block length. The tables are built when first read.
    """
    corpus = _checked_corpus(model, corpus)
    row_of, arrays, (fevals, bevals) = _scan_symbols(model, corpus.matrix)
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
