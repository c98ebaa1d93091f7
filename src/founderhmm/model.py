"""Containers and parameterization for the founder-pair genotype model.

Alleles are coded 0 (major) and 1 (minor).  Genotypes count minor alleles,
so the symbol set is {0, 1, 2} plus MISSING (-1) for uncalled genotypes.
A multilocus genotype is modeled as the locus-wise sum of two haplotypes,
each emitted by its own copy of a shared K-founder Markov chain with
locus-specific transition and emission parameters.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, fields
from itertools import repeat

import numpy as np

MISSING: int = -1

GENOTYPE_SYMBOLS = (0, 1, 2, MISSING)
ALLELE_SYMBOLS = (0, 1)

# Tolerance for rows of a stochastic matrix (and the initial vector).
STOCHASTIC_ATOL = 1e-9


class InputError(ValueError):
    """Malformed or mutually inconsistent user input. ``rows`` are the
    0-based table rows it names, the one at fault first, so that a file
    reader can name their lines."""

    def __init__(self, message, rows=()):
        super().__init__(message)
        self.rows = rows


class ZeroProbabilityError(ArithmeticError):
    """The model assigns zero probability mass; ``locus`` is the 0-based
    index of the symbol that extinguished the mass."""

    def __init__(self, locus: int, message: str | None = None):
        self.locus = locus
        super().__init__(message or f"model assigns probability zero (locus {locus})")


def _checked_row(kind, row_id, symbols):
    """Read-only int8 ``symbols`` of one row object, checked as those of a
    one-row ``kind`` matrix."""
    symbols = np.asarray(symbols)
    if symbols.ndim != 1:
        raise InputError(f"{kind._row_what} {row_id!r} must be a one-dimensional sequence")
    return kind((row_id,), symbols[None]).matrix[0]


def _check_id(value, what, rows=()):
    """Reject an id that no file format can hold: empty, led by '#' (a
    comment line) or holding a tab or a line break."""
    if not value:
        raise InputError(f"{what} must be non-empty", rows)
    if value.startswith("#") or any(c in value for c in "\t\n\r"):
        raise InputError(f"{what} {value!r} must not start with '#' or hold a "
                         "tab or line break", rows)


# In the ids joined by line breaks, between two more: a tab, a \r, an
# empty id or one led by '#'.
_BAD_ID = re.compile(r"[\t\r]|\n[\n#]")


def _ids_pass(ids) -> bool:
    """Whether no id of ``ids`` (strings) fails :func:`_check_id`, found in
    one scan of their joined text; an id holding a line break adds one."""
    text = "\n" + "\n".join(ids) + "\n"
    return not ids or text.count("\n") == len(ids) + 1 and not _BAD_ID.search(text)


@dataclass(frozen=True)
class MultilocusGenotype:
    """One sample's genotype symbols across all loci, in locus order."""

    sample_id: str
    symbols: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "symbols", _checked_row(
            GenotypeCorpus, self.sample_id, self.symbols))

    def __len__(self) -> int:
        return self.symbols.shape[0]

    @property
    def missing_mask(self) -> np.ndarray:
        return self.symbols == MISSING


@dataclass(frozen=True)
class HaplotypeSequence:
    """One haplotype's alleles across all loci. Missing alleles are not
    representable; panels must be complete."""

    id: str
    alleles: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alleles", _checked_row(
            HaplotypePanel, self.id, self.alleles))

    def __len__(self) -> int:
        return self.alleles.shape[0]


def _unchecked(cls, *values):
    """A ``cls`` holding ``values`` as they are: for values checked where
    they were built, such as the rows of a symbol matrix."""
    item = object.__new__(cls)
    for f, value in zip(fields(cls), values):
        object.__setattr__(item, f.name, value)
    return item


@dataclass(frozen=True, eq=False)
class _SymbolRows:
    """Row ids and one read-only int8 (rows, loci) symbol matrix, checked
    once, where built: each id as the text the writers write, its str().
    Indexing and iterating build the row objects on demand as unchecked
    views of the matrix; :meth:`of` converts a sequence of row objects
    once. An empty matrix may have no loci."""

    ids: tuple
    matrix: np.ndarray

    def __post_init__(self):
        ids, matrix = tuple(map(str, self.ids)), np.array(self.matrix)
        if not _ids_pass(ids):
            for i in ids:
                _check_id(i, self._id_what)
        if self._unique and len(set(ids)) != len(ids):
            raise InputError("corpus sample ids must be unique")
        if matrix.ndim != 2 or matrix.shape[0] != len(ids):
            raise InputError(f"a {self._what} needs one row of symbols per id")
        matrix = matrix.astype(np.int8)
        if ids and matrix.shape[1] == 0:
            raise InputError(f"{self._row_what} {ids[0]!r} must cover at least one locus")
        bad = np.flatnonzero((matrix < min(self._symbols)) | (matrix > max(self._symbols)))
        if bad.size:
            row, pos = divmod(int(bad[0]), matrix.shape[1])
            raise InputError(f"{self._row_what} {ids[row]!r} holds invalid symbol "
                             f"{int(matrix[row, pos])} at position {pos}")
        matrix.setflags(write=False)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def _trusted(cls, ids, matrix):
        """Rows of ids and an int8 matrix known to be good, unchecked."""
        matrix.setflags(write=False)
        return _unchecked(cls, tuple(ids), matrix)

    @classmethod
    def of(cls, rows):
        """``rows`` if it is a matrix already, else its row objects, which
        must have equal lengths, as one."""
        if isinstance(rows, cls):
            return rows
        rows = list(rows)
        id_field, symbols_field = (f.name for f in fields(cls._item))
        for r in rows:
            if not isinstance(r, cls._item):
                raise InputError(f"{cls._what} entries must be {cls._item.__name__} values")
            if len(r) != len(rows[0]):
                raise InputError(f"{cls._row_what} {getattr(r, id_field)!r} has "
                                 f"{len(r)} loci, expected {len(rows[0])}")
        return cls([getattr(r, id_field) for r in rows],
                   np.array([getattr(r, symbols_field) for r in rows], dtype=np.int8)
                   if rows else np.zeros((0, 0), dtype=np.int8))

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, at):
        """Row ``at`` as a row object, or a slice of rows as a matrix of
        the same kind."""
        if isinstance(at, slice):
            return self._trusted(self.ids[at], self.matrix[at])
        return _unchecked(self._item, self.ids[at], self.matrix[at])

    def __iter__(self):
        return map(_unchecked, repeat(self._item), self.ids, self.matrix)

    def __eq__(self, other):
        """Equal to rows, or row objects, of the same ids and symbols."""
        try:
            other = self.of(other)
        except (InputError, TypeError):
            return NotImplemented
        return self.ids == other.ids and self.matrix.tolist() == other.matrix.tolist()

    __hash__ = None

    @property
    def loci(self) -> int:
        return self.matrix.shape[1]


class GenotypeCorpus(_SymbolRows):
    """Sample ids, unique, and their genotypes as one symbol matrix."""

    _item, _what, _id_what, _row_what = MultilocusGenotype, "corpus", "sample_id", "genotype"
    _symbols, _unique = GENOTYPE_SYMBOLS, True


class HaplotypePanel(_SymbolRows):
    """Haplotype ids and their alleles as one symbol matrix."""

    _item, _what, _id_what, _row_what = HaplotypeSequence, "panel", "haplotype id", "haplotype"
    _symbols, _unique = ALLELE_SYMBOLS, False


@dataclass(frozen=True)
class LocusMap:
    """Ordered loci with genomic positions and typed/untyped status."""

    locus_ids: tuple
    positions: np.ndarray
    typed: np.ndarray

    def __post_init__(self):
        ids, first = tuple(map(str, self.locus_ids)), {}
        if not _ids_pass(ids) or len(set(ids)) != len(ids):
            for row, i in enumerate(ids):
                _check_id(i, "locus id", (row,))
                if i in first:
                    raise InputError(f"duplicate locus id {i!r}", (row, first[i]))
                first[i] = row
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
            raise InputError("positions must be strictly increasing", (at,))
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


def emission_stack(model: FounderHMM) -> np.ndarray:
    """Per-locus pair-emission tables, shape (n, 4, K, K).

    Plane x in {0,1,2} holds P(genotype = x | founder pair); plane 3 is all
    ones and serves MISSING symbols, which contribute a unit factor.
    """
    p = model.emissions[:, :, None]
    q = model.emissions[:, None, :]
    n, k = model.emissions.shape
    out = np.empty((n, 4, k, k), dtype=np.float64)
    out[:, 0] = (1.0 - p) * (1.0 - q)
    out[:, 1] = p * (1.0 - q) + (1.0 - p) * q
    out[:, 2] = p * q
    out[:, 3] = 1.0
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

