"""Batched posterior inference over a genotype corpus.

Genotypes sharing a prefix share forward work. The corpus is reduced to
its distinct rows in sorted order, where each row shares its longest
common prefix (LCP) with the row before it: the prefix-sorting idea of
PBWT (Durbin 2014). Those rows and LCPs are a prefix trie, one node per
distinct (depth, prefix). The engine steps the sorted rows 64 at a time
as (rows, K, K) stacks: a backward walk along every row, then a forward
walk that evaluates each trie node once and combines each forward state
with its backward state on the spot. A tile's first row resumes from the
previous tile's last row, the one row whose forward states are carried.
MISSING branches like any other symbol.

Memory: the result holds substitution weights, posteriors and prefix and
suffix log sums, 9 x 8 bytes per distinct genotype and locus, and the
sorted genotypes and their emission planes take 2 bytes more. While it
runs, the engine holds one tile's backward states, 64 x loci x K^2 x 8
bytes for any number of genotypes, capped at 64 MiB. Past the cap (above
2674 loci at K = 7) it keeps backward checkpoints at the starts of blocks
of b loci, b as many as fit, and re-walks one block at a time, for loci -
b more backward evaluations per genotype: 46% more at 5000 loci and K = 7,
where b = 2674. The checkpoints add 64 x K^2 x 8 bytes per block, and the
carried row's forward states at most loci x K^2 x 8 bytes. Blocks change the pace, never the numbers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .inference import PosteriorScan, _planes, _scan_rows, table_from_scan
from .model import (FounderHMM, InputError, MultilocusGenotype,
                    ZeroProbabilityError, emission_stack)


class GenotypeTrie:
    """Prefix trie over equal-length genotypes, held as sorted rows.

    rows are the distinct genotypes in lexicographic order, lcps[r] is the
    length of the prefix row r shares with row r - 1 (0 for the first), so
    row r adds loci - lcps[r] trie nodes, and row_of[j] is the row of the
    j-th genotype, whose id is sample_ids[j].
    """

    def __init__(self, symbols: np.ndarray, sample_ids):
        self.rows, row_of = np.unique(symbols, axis=0, return_inverse=True)
        self.row_of = row_of.ravel()
        differs = self.rows[1:] != self.rows[:-1]
        self.lcps = np.concatenate(([0], differs.argmax(axis=1)))
        self.sample_ids = list(sample_ids)

    @property
    def loci(self) -> int:
        return self.rows.shape[1]

    def node_count(self) -> int:
        """Number of non-root nodes."""
        return int(self.rows.size - self.lcps.sum())

    def depth_counts(self) -> tuple:
        """Distinct prefixes per depth 1..loci."""
        counts = np.cumsum(np.bincount(self.lcps, minlength=self.loci))
        return tuple(int(c) for c in counts)

    def distinct_count(self) -> int:
        return self.rows.shape[0]

    def genotypes(self):
        """(symbol tuple, sample ids) per distinct genotype."""
        ids = [[] for _ in range(self.distinct_count())]
        for sample_id, r in zip(self.sample_ids, self.row_of):
            ids[r].append(sample_id)
        return [(tuple(row), group) for row, group in zip(self.rows.tolist(), ids)]


def _corpus_symbols(corpus):
    genos = list(corpus)
    if not genos:
        raise InputError("corpus must be non-empty")
    for g in genos:
        if not isinstance(g, MultilocusGenotype):
            raise InputError("corpus entries must be MultilocusGenotype values")
    n = len(genos[0])
    for g in genos:
        if len(g) != n:
            raise InputError(
                f"genotype {g.sample_id!r} has {len(g)} loci, expected {n}")
    return genos, n


def build_trie(corpus) -> GenotypeTrie:
    genos, _ = _corpus_symbols(corpus)
    return GenotypeTrie(np.stack([g.symbols for g in genos]),
                        [g.sample_id for g in genos])


def reversed_trie(corpus) -> GenotypeTrie:
    """Trie over reversed genotypes, so shared suffixes share nodes."""
    genos, _ = _corpus_symbols(corpus)
    return GenotypeTrie(np.stack([g.symbols[::-1] for g in genos]),
                        [g.sample_id for g in genos])


@dataclass(frozen=True)
class BatchStats:
    """Work accounting for one batched run. A locus evaluation is one
    emission absorption plus its transition step.

    The forward walk evaluates each prefix-trie node once. The backward
    walk is not shared over suffixes: loci - 1 evaluations per distinct
    genotype. When the engine splits loci into blocks of b (see the module
    docstring), it first walks loci - b loci of every distinct genotype to
    find the blocks' checkpoints, then each block again from its
    checkpoint, loci - ceil(loci / b) in all.
    """

    samples: int
    loci: int
    distinct_genotypes: int
    forward_locus_evals: int
    backward_locus_evals: int

    @property
    def naive_locus_evals(self) -> int:
        return self.samples * self.loci

    @property
    def locus_evals_avoided(self) -> int:
        return self.naive_locus_evals - self.forward_locus_evals


@dataclass(frozen=True)
class BatchPosteriorResult:
    """Posteriors of every distinct genotype, and per-sample views of them.

    Row r of ``triples`` (distinct, loci, 3), ``prefix_logs``,
    ``suffix_logs`` and ``log_likelihoods`` is that of distinct genotype r
    (see :class:`PosteriorScan`); ``row_of[j]`` is the row of the j-th
    corpus genotype. ``scans`` and ``tables`` map sample ids to one object
    per row. A sample whose genotype has a zero marginal gets no table;
    ``failures`` maps it to the first such locus.
    """

    triples: np.ndarray
    prefix_logs: np.ndarray
    suffix_logs: np.ndarray
    log_likelihoods: np.ndarray
    row_of: np.ndarray
    tables: dict
    scans: dict
    failures: dict
    stats: BatchStats


def batched_posteriors(model: FounderHMM, corpus) -> BatchPosteriorResult:
    """Posterior scans for every corpus genotype.

    Results are bitwise equal to per-sample :func:`posterior_scan`, and
    independent of corpus order and of the engine's block length.
    """
    genos, n = _corpus_symbols(corpus)
    if n != model.loci:
        raise InputError(f"corpus has {n} loci but the model has {model.loci}")
    ids = [g.sample_id for g in genos]
    if len(set(ids)) != len(ids):
        raise InputError("corpus sample ids must be unique")

    trie = build_trie(genos)
    arrays, (fevals, bevals) = _scan_rows(model, emission_stack(model),
                                          _planes(trie.rows), trie.lcps)
    row_scans = [PosteriorScan(t, f, b, float(ll)) for t, f, b, ll in zip(*arrays)]
    row_tables, dead = {}, {}
    for r, scan in enumerate(row_scans):
        try:
            row_tables[r] = table_from_scan(scan)
        except ZeroProbabilityError as exc:
            dead[r] = exc.locus
    pairs = list(zip(ids, trie.row_of.tolist()))
    stats = BatchStats(samples=len(genos), loci=n,
                       distinct_genotypes=len(row_scans),
                       forward_locus_evals=fevals, backward_locus_evals=bevals)
    return BatchPosteriorResult(
        *arrays, row_of=trie.row_of,
        tables={sid: row_tables[r] for sid, r in pairs if r in row_tables},
        scans={sid: row_scans[r] for sid, r in pairs},
        failures={sid: dead[r] for sid, r in pairs if r in dead},
        stats=stats)
