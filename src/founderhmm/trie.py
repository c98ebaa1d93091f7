"""Batched posterior inference over a genotype corpus.

Genotypes sharing a prefix share forward work. The corpus is reduced to
its distinct rows in sorted order, where each row shares its longest
common prefix (LCP) with the row before it: the prefix-sorting idea of
PBWT (Durbin 2014). Those rows and LCPs are a prefix trie, one node per
distinct (depth, prefix), and the inference kernel walks them so that
each node costs one locus evaluation. Backward sweeps are shared the same
way over the sorted reversed rows and cached per distinct genotype.
MISSING branches like any other symbol. Scale histories are prefix-
cumulative log sums kept per depth, so shared prefixes also share their
scaling.

Memory: both modes return a scan per distinct genotype of 5 x 8 bytes
per locus (substitution triples, prefix and suffix log sums). The default
mode also caches the backward state of every distinct genotype, distinct
genotypes x loci x K^2 x 8 bytes: 3.9 GB at 1000 distinct genotypes x
10 000 loci x K = 7. The block-chunked mode (``block_size`` = b) replaces
that cache with, per distinct genotype, forward checkpoints at block
starts and one carried backward state, (ceil(loci / b) + 1) x K^2 x 8
bytes, plus the states of one block at a time: 40 MB for the example
above at b = 100. It re-derives each block's forward states from its
checkpoint, trading repeated locus evaluations for memory while
producing identical numbers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .inference import _planes, _scan_rows, _scan_rows_blocked, table_from_scan
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
    emission absorption plus its transition step."""

    samples: int
    loci: int
    distinct_genotypes: int
    forward_locus_evals: int
    backward_locus_evals: int
    prefix_nodes: int
    suffix_nodes: int
    engine: str

    @property
    def naive_locus_evals(self) -> int:
        return self.samples * self.loci

    @property
    def locus_evals_avoided(self) -> int:
        return self.naive_locus_evals - self.forward_locus_evals


@dataclass(frozen=True)
class BatchPosteriorResult:
    """Per-sample posterior scans and tables plus shared-work statistics.

    Samples whose genotype has a zero marginal at some locus get no table;
    ``failures`` maps them to the first such locus while ``scans`` still
    carries their raw (partially zero) triples.
    """

    tables: dict
    scans: dict
    failures: dict
    stats: BatchStats


def batched_posteriors(model: FounderHMM, corpus, *,
                       block_size: int | None = None) -> BatchPosteriorResult:
    """Posterior scans for every corpus genotype.

    ``block_size`` selects the memory-bounded chunked mode. Results are
    identical in both modes, bitwise equal to per-sample
    :func:`posterior_scan`, and independent of corpus order.
    """
    genos, n = _corpus_symbols(corpus)
    if n != model.loci:
        raise InputError(f"corpus has {n} loci but the model has {model.loci}")
    ids = [g.sample_id for g in genos]
    if len(set(ids)) != len(ids):
        raise InputError("corpus sample ids must be unique")
    if block_size is not None and block_size < 1:
        raise InputError("block_size must be >= 1")

    etab = emission_stack(model)
    prefix, suffix = build_trie(genos), reversed_trie(genos)
    rows = _planes(prefix.rows)
    if block_size is None:
        back_of = np.empty(len(rows), dtype=np.intp)
        back_of[prefix.row_of] = suffix.row_of
        row_scans = _scan_rows(model, etab, rows, prefix.lcps,
                               _planes(suffix.rows), suffix.lcps, back_of)
        fevals, bevals, engine = prefix.node_count(), suffix.node_count(), "trie"
    else:
        row_scans = _scan_rows_blocked(model, etab, rows, prefix.lcps, block_size)
        # the first walk visits each prefix node, then every block walks
        # each distinct genotype once in each direction
        fevals = prefix.node_count() + prefix.rows.size
        bevals = prefix.rows.size
        engine = "trie-chunked"

    row_tables, dead = {}, {}
    for r, scan in enumerate(row_scans):
        try:
            row_tables[r] = table_from_scan(scan)
        except ZeroProbabilityError as exc:
            dead[r] = exc.locus
    pairs = list(zip(ids, prefix.row_of.tolist()))
    scans = {sid: row_scans[r] for sid, r in pairs}
    stats = BatchStats(samples=len(genos), loci=n,
                       distinct_genotypes=len(row_scans),
                       forward_locus_evals=fevals,
                       backward_locus_evals=bevals,
                       prefix_nodes=prefix.node_count(),
                       suffix_nodes=suffix.node_count(),
                       engine=engine)
    return BatchPosteriorResult(
        tables={sid: row_tables[r] for sid, r in pairs if r in row_tables},
        scans=scans,
        failures={sid: dead[r] for sid, r in pairs if r in dead},
        stats=stats)
