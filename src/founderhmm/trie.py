"""Batched posterior inference over a genotype corpus, as arrays.

One sort of the rows as byte strings reduces the corpus to its distinct
rows in order, each sharing its longest common prefix (LCP) with the row
before: PBWT's prefix arrays (Durbin 2014). Those rows and LCPs stand for
a prefix trie, one node per distinct (depth, prefix), never built. The
engine steps the sorted rows 64 at a time, every row from the prior
through every locus: a forward walk and a backward walk along every row
step together as one (2, rows, K, K) stack per depth, and each locus
combines its forward and backward states as soon as both exist. MISSING
branches like any other symbol. Posterior tables and failures come from
one pass over the result arrays.

Memory: the result holds substitution weights, posteriors and prefix and
suffix log sums, 9 x 8 bytes per distinct genotype and locus, and the
sorted genotypes and their emission planes take 2 bytes more. While it
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
from typing import NamedTuple

import numpy as np

from .inference import PosteriorTable, _planes, _scan_rows
from .model import FounderHMM, GenotypeCorpus, InputError, emission_stack


class GenotypeTrie(NamedTuple):
    """Prefix trie over equal-length genotypes, held as sorted rows.

    rows are the distinct genotypes in lexicographic order, row_of[j] is
    the row of the j-th genotype, and lcps[r] is the length of the prefix
    row r shares with row r - 1 (0 for the first), so row r adds loci -
    lcps[r] trie nodes.
    """

    rows: np.ndarray
    row_of: np.ndarray
    lcps: np.ndarray


def _distinct_rows(matrix: np.ndarray):
    """Sorted distinct rows of a matrix of symbols -1 to 254, first indices,
    counts and inverse, as ``np.unique(axis=0)`` gives them: shifted by one
    to bytes, MISSING first, each row is one byte string for a 1-D sort."""
    keys = np.ascontiguousarray(matrix + 1, dtype=np.uint8)
    _, first, inverse, counts = np.unique(keys.view(f"V{keys.shape[1]}").ravel(),
        return_index=True, return_inverse=True, return_counts=True)
    return matrix[first], first, counts, inverse


def build_trie(symbols: np.ndarray) -> GenotypeTrie:
    """Sorted distinct rows of a (genotypes, loci) symbol matrix."""
    rows, _, _, row_of = _distinct_rows(symbols)
    differs = rows[1:] != rows[:-1]
    return GenotypeTrie(rows, row_of, np.concatenate(([0], differs.argmax(axis=1))))


def reversed_trie(symbols: np.ndarray) -> GenotypeTrie:
    """Trie over reversed genotypes, so shared suffixes share nodes."""
    return build_trie(symbols[:, ::-1])


def _scan_symbols(model: FounderHMM, symbols: np.ndarray):
    """The engine: posterior arrays of the distinct rows of a (genotypes,
    loci) symbol matrix. Returns their trie, the arrays of
    :func:`~founderhmm.inference._scan_rows` over its rows, and the counts
    of forward and backward locus evaluations."""
    trie = build_trie(symbols)
    arrays, evals = _scan_rows(model, emission_stack(model),
                               _planes(trie.rows), trie.lcps)
    return trie, arrays, evals


@dataclass(frozen=True)
class BatchStats:
    """Work accounting for one batched run. A locus evaluation is one
    emission absorption plus its transition step.

    The forward count is that of prefix-trie nodes, loci - lcp per
    distinct genotype: a tile steps every row at every depth, and a row
    repeats, bit for bit, the shared prefix that the trie counts once. The
    backward walk is not shared over suffixes: loci - 1 evaluations per
    distinct genotype. When the engine splits loci into blocks of b (see
    the module docstring), it first walks loci - b loci of every distinct
    genotype to find the blocks' checkpoints, then each block again from
    its checkpoint, loci - ceil(loci / b) in all.
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
    the row of the j-th corpus genotype. ``tables`` maps each sample id to
    its row's :class:`~founderhmm.inference.PosteriorTable`, one object
    per row. A sample whose genotype has a zero marginal gets no table;
    ``failures`` maps it to the first such locus.
    """

    triples: np.ndarray
    prefix_logs: np.ndarray
    suffix_logs: np.ndarray
    log_likelihoods: np.ndarray
    row_of: np.ndarray
    tables: dict
    failures: dict
    stats: BatchStats


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
    the engine's block length.
    """
    corpus = _checked_corpus(model, corpus)
    trie, arrays, (fevals, bevals) = _scan_symbols(model, corpus.matrix)
    triples, prefix_logs, suffix_logs, _ = arrays
    sums = triples.sum(axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        probs = triples / sums[:, :, None]
        log_marginals = np.log(sums) + prefix_logs + suffix_logs
    dead = sums <= 0.0
    # each row's first locus of zero marginal, -1 for a live row
    first_dead = np.where(dead.any(axis=1), dead.argmax(axis=1), -1).tolist()
    row_tables = list(map(PosteriorTable, probs, log_marginals))
    pairs = list(zip(corpus.ids, trie.row_of.tolist()))
    return BatchPosteriorResult(
        *arrays, row_of=trie.row_of,
        tables={sid: row_tables[r] for sid, r in pairs if first_dead[r] < 0},
        failures={sid: first_dead[r] for sid, r in pairs if first_dead[r] >= 0},
        stats=BatchStats(len(corpus), corpus.loci, len(trie.rows), fevals, bevals))
