"""Shared builders for randomized test instances.

Tests import these directly (pytest puts this directory on sys.path). Every
builder takes an explicit generator so each test pins its own seeds.
"""
import numpy as np

from founderhmm import MISSING, FounderHMM, HaplotypeSequence, IdColumn, MultilocusGenotype


def random_model(rng, founders, loci, *, spread=5.0,
                 emission_range=(0.05, 0.95)) -> FounderHMM:
    initial = rng.dirichlet(np.full(founders, spread))
    transitions = rng.dirichlet(np.full(founders, spread),
                                size=(max(loci - 1, 0), founders))
    emissions = rng.uniform(emission_range[0], emission_range[1],
                            size=(loci, founders))
    return FounderHMM(initial=initial, transitions=transitions,
                      emissions=emissions)


def random_genotype(rng, loci, *, sample_id="g", missing_rate=0.0):
    symbols = rng.integers(0, 3, size=loci).astype(np.int8)
    if missing_rate > 0.0:
        symbols[rng.random(loci) < missing_rate] = MISSING
    return MultilocusGenotype(sample_id, symbols)


def random_corpus(rng, samples, loci, *, missing_rate=0.0, prefix="s"):
    return [random_genotype(rng, loci, sample_id=f"{prefix}{j}",
                            missing_rate=missing_rate)
            for j in range(samples)]


def random_panel(rng, size, loci, *, prefix="h"):
    return [HaplotypeSequence(f"{prefix}{j}",
                              rng.integers(0, 2, size=loci).astype(np.int8))
            for j in range(size)]


def random_symbol_matrices(rng, low, high, count=40):
    """Random int8 matrices of symbols ``low`` to ``high``, their rows drawn
    from small pools so that duplicates are common, after three edge cases:
    one row, one locus, and all rows equal."""
    draw = lambda shape: rng.integers(low, high + 1, size=shape).astype(np.int8)
    matrices = [draw((1, 9)), draw((12, 1)), np.repeat(draw((1, 7)), 5, axis=0)]
    for _ in range(count):
        pool = draw((rng.integers(1, 12), rng.integers(1, 30)))
        matrices.append(pool[rng.integers(0, len(pool), size=rng.integers(1, 80))])
    return matrices


def recoded(column):
    """An :class:`IdColumn` equal to ``column`` whose names are out of
    first-use order, each held twice (entries alternate between the two
    copies), after a non-ASCII name that no entry uses."""
    m = len(column.names)
    codes = 1 + (m - 1 - column.codes) + m * (np.arange(len(column)) % 2)
    return IdColumn(codes, ("unused \u00e9",) + column.names[::-1] * 2)
