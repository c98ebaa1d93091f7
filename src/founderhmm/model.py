"""Containers and parameterization for the founder-pair genotype model.

Alleles are coded 0 (major) and 1 (minor).  Genotypes count minor alleles,
so the symbol set is {0, 1, 2} plus MISSING (-1) for uncalled genotypes.
A multilocus genotype is modeled as the locus-wise sum of two haplotypes,
each emitted by its own copy of a shared K-founder Markov chain with
locus-specific transition and emission parameters.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MISSING: int = -1

GENOTYPE_SYMBOLS = (0, 1, 2, MISSING)
ALLELE_SYMBOLS = (0, 1)

# Tolerance for rows of a stochastic matrix (and the initial vector).
STOCHASTIC_ATOL = 1e-9


class InputError(ValueError):
    """Malformed or mutually inconsistent user input."""


class ZeroProbabilityError(ArithmeticError):
    """The model assigns zero probability mass; ``locus`` is the 0-based
    index of the symbol that extinguished the mass."""

    def __init__(self, locus: int, message: str | None = None):
        self.locus = locus
        super().__init__(message or f"model assigns probability zero (locus {locus})")


def _frozen_array(values, dtype):
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _symbol_array(values, allowed, what):
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise InputError(f"{what} must be a one-dimensional sequence")
    if arr.shape[0] == 0:
        raise InputError(f"{what} must cover at least one locus")
    arr = arr.astype(np.int8)
    bad = ~np.isin(arr, allowed)
    if bad.any():
        pos = int(np.flatnonzero(bad)[0])
        raise InputError(f"{what} holds invalid symbol {int(arr[pos])} at position {pos}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class MultilocusGenotype:
    """One sample's genotype symbols across all loci, in locus order."""

    sample_id: str
    symbols: np.ndarray

    def __post_init__(self):
        if not self.sample_id:
            raise InputError("sample_id must be non-empty")
        arr = _symbol_array(self.symbols, np.array(GENOTYPE_SYMBOLS, dtype=np.int8),
                            f"genotype {self.sample_id!r}")
        object.__setattr__(self, "symbols", arr)

    def __len__(self) -> int:
        return self.symbols.shape[0]

    @property
    def missing_mask(self) -> np.ndarray:
        return self.symbols == MISSING

    def key(self) -> tuple:
        """Hashable symbol tuple (identifies duplicate genotypes)."""
        return tuple(int(s) for s in self.symbols)


@dataclass(frozen=True)
class HaplotypeSequence:
    """One haplotype's alleles across all loci. Missing alleles are not
    representable; panels must be complete."""

    id: str
    alleles: np.ndarray

    def __post_init__(self):
        if not self.id:
            raise InputError("haplotype id must be non-empty")
        arr = _symbol_array(self.alleles, np.array(ALLELE_SYMBOLS, dtype=np.int8),
                            f"haplotype {self.id!r}")
        object.__setattr__(self, "alleles", arr)

    def __len__(self) -> int:
        return self.alleles.shape[0]


@dataclass(frozen=True)
class LocusMap:
    """Ordered loci with genomic positions and typed/untyped status."""

    locus_ids: tuple
    positions: np.ndarray
    typed: np.ndarray

    def __post_init__(self):
        ids = tuple(str(i) for i in self.locus_ids)
        if any(not i for i in ids):
            raise InputError("locus ids must be non-empty")
        if len(set(ids)) != len(ids):
            raise InputError("locus ids must be unique")
        pos = np.asarray(self.positions)
        # integer positions stay integer; genetic-map style floats stay float
        pos = pos.astype(np.float64 if pos.dtype.kind == "f" else np.int64)
        if pos.dtype.kind == "f" and not np.isfinite(pos).all():
            raise InputError("positions must be finite")
        typed = np.asarray(self.typed, dtype=bool)
        if not (pos.shape == typed.shape == (len(ids),)):
            raise InputError("locus map columns must have equal length")
        if len(ids) == 0:
            raise InputError("locus map must be non-empty")
        if np.any(np.diff(pos) <= 0):
            at = int(np.flatnonzero(np.diff(pos) <= 0)[0]) + 1
            raise InputError(f"positions must be strictly increasing (violated at row {at})")
        pos.setflags(write=False)
        typed.setflags(write=False)
        object.__setattr__(self, "locus_ids", ids)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "typed", typed)

    def __len__(self) -> int:
        return len(self.locus_ids)

    def typed_indices(self) -> np.ndarray:
        return np.flatnonzero(self.typed)

    def untyped_indices(self) -> np.ndarray:
        return np.flatnonzero(~self.typed)


def _check_rows_stochastic(mat, what):
    if np.any(mat < 0) or np.any(~np.isfinite(mat)):
        raise InputError(f"{what} must be finite and non-negative")
    sums = mat.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > STOCHASTIC_ATOL):
        raise InputError(f"{what} rows must sum to 1 within {STOCHASTIC_ATOL}")


@dataclass(frozen=True)
class FounderHMM:
    """Shared-parameter founder chain used for both haplotypes of a sample.

    Arguments
    ---------
    initial: (K,) start distribution over founder states.
    transitions: (n-1, K, K) row-stochastic matrix per locus interval.
    emissions: (n, K) minor-allele probability per locus and founder state.
    """

    initial: np.ndarray
    transitions: np.ndarray
    emissions: np.ndarray

    def __post_init__(self):
        init = np.array(self.initial, dtype=np.float64)
        trans = np.array(self.transitions, dtype=np.float64)
        emis = np.array(self.emissions, dtype=np.float64)
        if init.ndim != 1 or init.shape[0] < 1:
            raise InputError("initial must be a non-empty vector")
        k = init.shape[0]
        if emis.ndim != 2 or emis.shape[1] != k or emis.shape[0] < 1:
            raise InputError("emissions must have shape (loci, founders)")
        n = emis.shape[0]
        if trans.ndim != 3 or trans.shape != (n - 1, k, k):
            raise InputError(f"transitions must have shape ({n - 1}, {k}, {k})")
        _check_rows_stochastic(init[None, :], "initial distribution")
        if n > 1:
            _check_rows_stochastic(trans, "transition matrices")
        if np.any(emis < 0) or np.any(emis > 1) or np.any(~np.isfinite(emis)):
            raise InputError("emission probabilities must lie in [0, 1]")
        for arr in (init, trans, emis):
            arr.setflags(write=False)
        object.__setattr__(self, "initial", init)
        object.__setattr__(self, "transitions", trans)
        object.__setattr__(self, "emissions", emis)

    @property
    def founders(self) -> int:
        return self.initial.shape[0]

    @property
    def loci(self) -> int:
        return self.emissions.shape[0]


def emission_table(model: FounderHMM, locus: int, founder: int, other_founder: int):
    """Probability triple for genotype symbols (0, 1, 2) given the founder
    pair at ``locus``. Indices are 0-based; out-of-range raises IndexError."""
    n, k = model.loci, model.founders
    if not 0 <= locus < n:
        raise IndexError(f"locus {locus} out of range [0, {n})")
    if not 0 <= founder < k or not 0 <= other_founder < k:
        raise IndexError(f"founder index out of range [0, {k})")
    p = model.emissions[locus, founder]
    q = model.emissions[locus, other_founder]
    return ((1.0 - p) * (1.0 - q), p * (1.0 - q) + (1.0 - p) * q, p * q)


def emission_stack(model: FounderHMM) -> np.ndarray:
    """Per-locus pair-emission tables, shape (n, 4, K, K).

    Plane x in {0,1,2} holds P(genotype = x | founder pair); plane 3 is all
    ones and serves MISSING symbols, which contribute a unit factor.
    """
    return pair_emission_planes(model.emissions)


def pair_emission_planes(emissions: np.ndarray) -> np.ndarray:
    """The four pair-emission planes of :func:`emission_stack` for minor-
    allele probabilities of shape (..., K): shape (..., 4, K, K)."""
    p = emissions[..., :, None]
    q = emissions[..., None, :]
    k = emissions.shape[-1]
    out = np.empty(emissions.shape[:-1] + (4, k, k), dtype=np.float64)
    out[..., 0, :, :] = (1.0 - p) * (1.0 - q)
    out[..., 1, :, :] = p * (1.0 - q) + (1.0 - p) * q
    out[..., 2, :, :] = p * q
    out[..., 3, :, :] = 1.0
    return out


def symbol_plane(symbol: int) -> int:
    """Index of a genotype symbol's plane in an emission stack."""
    return 3 if symbol == MISSING else int(symbol)


def substitute(genotype: MultilocusGenotype, locus: int, symbol: int) -> MultilocusGenotype:
    """Copy of ``genotype`` with the symbol at ``locus`` replaced."""
    n = len(genotype)
    if not 0 <= locus < n:
        raise IndexError(f"locus {locus} out of range [0, {n})")
    if symbol not in GENOTYPE_SYMBOLS:
        raise InputError(f"invalid genotype symbol {symbol!r}")
    symbols = genotype.symbols.copy()
    symbols[locus] = symbol
    return MultilocusGenotype(genotype.sample_id, symbols)


def genotype_from_haplotypes(sample_id: str, first: HaplotypeSequence,
                             second: HaplotypeSequence) -> MultilocusGenotype:
    """Locus-wise minor-allele count of a haplotype pair."""
    if len(first) != len(second):
        raise InputError("haplotype lengths differ")
    return MultilocusGenotype(sample_id, first.alleles + second.alleles)


def chain_marginals(model: FounderHMM) -> np.ndarray:
    """Per-locus founder-state marginals of the chain, shape (n, K)."""
    out = np.empty((model.loci, model.founders), dtype=np.float64)
    out[0] = model.initial
    for i in range(model.loci - 1):
        out[i + 1] = out[i] @ model.transitions[i]
    return out


def reverse_model(model: FounderHMM) -> FounderHMM:
    """Model of the chain run right-to-left over reversed loci.

    Transitions are transposed and reweighted by the per-locus state
    marginals so the reversed model induces the same joint law on
    reversed sequences. Rows for unreachable states fall back to uniform.
    """
    marg = chain_marginals(model)
    n, k = model.loci, model.founders
    rev_trans = np.empty((max(n - 1, 0), k, k), dtype=np.float64)
    for j in range(n - 1):
        i = n - 2 - j  # original interval i -> i+1 becomes reversed interval j -> j+1
        num = marg[i][None, :] * model.transitions[i].T  # [a, b] = mu_i[b] T[b, a]
        denom = marg[i + 1][:, None]
        with np.errstate(invalid="ignore", divide="ignore"):
            rows = num / denom
        dead = denom[:, 0] <= 0.0
        rows[dead] = 1.0 / k
        rev_trans[j] = rows
    return FounderHMM(initial=marg[n - 1], transitions=rev_trans,
                      emissions=model.emissions[::-1].copy())
