"""Analysis flows built on the founder-pair model.

Three flows share the batched posterior engine: likelihood-ratio error
detection (with correction), missing-symbol recovery, and untyped-locus
imputation through locally trained window models. Phasing decodes each
genotype into an ordered haplotype pair by max-product over founder pairs.
``run_pipeline`` strings them together in the two supported orders. Each
flow takes a :class:`~founderhmm.model.GenotypeCorpus` or a list of
genotypes, converted once at entry, and works on its symbol matrix.

Memory of phasing: duplicate genotypes are decoded once, the distinct ones
sorted, in chunks, every row walked through every locus on (K, K, rows)
arrays, the rows last. A row holds 2 x (loci - 1) x K^2 back-pointers, one
byte each up to K = 256, as two (K, K, rows) planes per locus; a chunk is
as many rows as fit in ``inference._TILE_BYTES`` with 40 x K^2 bytes of
one locus' work arrays, 10 x K^3 bytes of the max-product step and 72 x
loci bytes of peaks and allele arrays each, and at least one: 1300 rows at
400 loci and K = 5. Decoded alleles and paths add 4 x loci bytes per
distinct genotype. Chunks change the pace, never the answer.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, fields
from itertools import count, repeat
from typing import NamedTuple

import numpy as np

from . import inference
from .inference import (BatchStats, _checked_corpus, _distinct_rows, _planes,
                        _viterbi_rows, batched_posteriors)
from .model import (MISSING, FounderHMM, GenotypeCorpus, HaplotypePanel,
                    HaplotypeSequence, InputError, LocusMap,
                    MultilocusGenotype, ZeroProbabilityError, _unchecked,
                    emission_stack)
from .training import (TrainConfig, bootstrap_config, pooled_config,
                       train_founder_hmm, train_founder_hmms, window_config)

PIPELINE_IMPUTE_ONLY = "imp"
PIPELINE_REPAIR_IMPUTE = "edc-mdr-imp"
DEFAULT_RATIO_THRESHOLD = 1000.0


class ErrorEntry(NamedTuple):
    sample_id: str
    locus_index: int
    locus_id: str
    observed: int
    ratio: float
    flagged: bool
    suggested: int


class IdColumn:
    """A report's column of ids held as codes into names: ``codes``, a
    read-only intp array of one code per entry, and ``names``, a tuple of
    strings, which may repeat a name or hold one that no entry uses. It
    reads as the list of its entries' names: ``len``, ``[i]`` (a str; a
    slice or an index array gives a column of the same names), iteration,
    ``tolist()``, and equality with such a list or another column."""

    __slots__ = ("codes", "names")
    ndim = 1

    def __init__(self, codes, names):
        codes, names = np.asarray(codes, dtype=np.intp).view(), tuple(names)
        if codes.ndim != 1 or codes.size and not 0 <= codes.min() <= codes.max() < len(names):
            raise ValueError(f"id codes must index {len(names)} names")
        codes.setflags(write=False)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "names", names)

    def __setattr__(self, name, value):
        raise AttributeError(f"an IdColumn is immutable, cannot set {name!r}")

    @classmethod
    def of(cls, values):
        """``values`` if it is a column, else the column of a sequence of
        ids, each distinct one named once, in order of first use."""
        if isinstance(values, cls):
            return values
        values = list(values)
        index = dict(zip(dict.fromkeys(values), count()))
        return cls(np.fromiter(map(index.__getitem__, values), dtype=np.intp,
                               count=len(values)), index)

    def __len__(self):
        return len(self.codes)

    def __getitem__(self, at):
        if isinstance(at, (int, np.integer)):
            return self.names[self.codes[at]]
        return IdColumn(self.codes[at], self.names)

    def __iter__(self):
        return map(self.names.__getitem__, self.codes.tolist())

    def tolist(self):
        names = np.fromiter(self.names, dtype=object, count=len(self.names))
        return names[self.codes].tolist()

    def __eq__(self, other):
        if isinstance(other, IdColumn):
            if self.names == other.names:
                return np.array_equal(self.codes, other.codes)
            other = other.tolist()
        return self.tolist() == other if isinstance(other, list) else NotImplemented

    __hash__ = None

    def __repr__(self):
        return f"IdColumn(codes={self.codes!r}, names={self.names!r})"


def _column(values, dtype):
    """``values`` as an :class:`IdColumn` (``dtype`` None) or an array of
    ``dtype`` (a subarray dtype gives rows), kept as objects where an
    integer or bool dtype would change one: a call of 2.5 stays 2.5, for
    evaluate to reject."""
    if dtype is None:
        return IdColumn.of(values)
    given = np.array(values, dtype=object).reshape(len(values), *np.dtype(dtype).shape)
    cast = given.astype(np.dtype(dtype).base)
    return cast if cast.dtype.kind == "f" or (cast == given).all() else given


class _EntryColumns:
    """A report held as columns, its first dataclass fields (``columns()``):
    one per field of its ``_entry`` tuples, in their order, of the
    ``_dtypes`` that :func:`_column` takes; an id column given as a plain
    sequence becomes an :class:`IdColumn`. ``entries`` builds the tuples."""

    def __post_init__(self):
        for f, dtype in zip(fields(self), self._dtypes):
            if dtype is None and not isinstance(getattr(self, f.name), IdColumn):
                object.__setattr__(self, f.name, IdColumn.of(getattr(self, f.name)))

    @classmethod
    def columns_of(cls, entries):
        """The columns of entries in ``_entry`` field order."""
        values = list(zip(*entries)) or [()] * len(cls._dtypes)
        return list(map(_column, values, cls._dtypes))

    @classmethod
    def from_entries(cls, entries, *args, **kwargs):
        """The report of entries in ``_entry`` field order, then its other fields."""
        return cls(*cls.columns_of(entries), *args, **kwargs)

    def columns(self):
        return [getattr(self, f.name) for f in fields(self)[:len(self._dtypes)]]

    def __len__(self):
        return len(self.sample_id)

    def _entries(self, at):
        """``_entry`` tuples of the entries at the indices ``at``."""
        return map(self._entry, *(map(tuple, c[at].tolist()) if c.ndim > 1 else c[at].tolist()
                                  for c in self.columns()))

    @property
    def entries(self):
        return tuple(self._entries(np.arange(len(self))))


@dataclass(frozen=True, eq=False)
class ErrorReport(_EntryColumns):
    """One entry per non-missing symbol, in corpus order then locus order,
    held as columns: ``sample_id`` and ``locus_id`` are :class:`IdColumn`
    codes into names (detection's are the corpus rows into the corpus ids
    and the locus indices into the locus ids), ``locus_index``,
    ``observed`` and ``suggested`` int64 arrays, ``ratio`` a float64 array
    and ``flags`` a bool array. ``entries`` and ``flagged()`` build
    :class:`ErrorEntry` tuples on demand; detection, correction and the
    report files never do."""

    sample_id: IdColumn
    locus_index: np.ndarray
    locus_id: IdColumn
    observed: np.ndarray
    ratio: np.ndarray
    flags: np.ndarray
    suggested: np.ndarray
    threshold: float
    failures: dict
    stats: object = None
    _entry, _dtypes = ErrorEntry, (None, np.int64, None, np.int64, float, bool, np.int64)

    def flagged(self):
        return list(self._entries(np.flatnonzero(self.flags)))


def _entry_locus_ids(locus_ids, n):
    if locus_ids is None:
        return [str(i) for i in range(n)]
    ids = [str(x) for x in locus_ids]
    if len(ids) != n:
        raise InputError(f"{len(ids)} locus ids for {n} corpus loci")
    return ids


def _weights(batch, samples, loci):
    """The substitution weights of each (sample, locus) entry as three
    columns, one per symbol, gathered from the batch's triples."""
    at = (batch.row_of[samples] * batch.triples.shape[1] + loci) * 3
    flat = batch.triples.reshape(-1)
    return [flat.take(at + x) for x in range(3)]


def _peak(weights):
    """Each triple's largest weight, as ``max`` over it; ``weights`` holds
    the triples' three columns."""
    return np.maximum(np.maximum(weights[0], weights[1]), weights[2])


def _first_peak(weights, peak):
    """Each triple's first symbol of weight ``peak``, as ``argmax``."""
    return np.where(weights[0] == peak, 0, np.where(weights[1] == peak, 1, 2))


def detect_errors(model: FounderHMM, corpus, threshold: float = DEFAULT_RATIO_THRESHOLD,
                  *, locus_ids=None) -> ErrorReport:
    """Likelihood-ratio screen of every typed symbol.

    The ratio compares the best single-symbol substitution at a locus with
    the observed symbol, max_x P(g with x at i) / P(g), computed from the
    unnormalized per-locus substitution weights so a zero-probability
    observed symbol yields an infinite ratio rather than an error. A symbol
    is flagged when its ratio exceeds ``threshold``. Ratios and suggested
    symbols are scored once per cell of the (distinct genotype, locus)
    grid, whose symbols are those of any sample of the row, and each typed
    symbol of the corpus takes its cell's with one gather per column.
    """
    if not threshold > 0:
        raise InputError(f"threshold must be positive, got {threshold}")
    corpus = GenotypeCorpus.of(corpus)
    batch = batched_posteriors(model, corpus)
    row_of, triples = batch.row_of, batch.triples
    ids = _entry_locus_ids(locus_ids, corpus.loci)
    symbols, n = corpus.matrix, corpus.loci
    some = np.empty(len(triples), dtype=np.intp)
    some[row_of] = np.arange(len(row_of))  # any sample of each row
    grid = symbols[some].reshape(-1)  # the symbol of each cell
    weights = [triples[:, :, x].reshape(-1) for x in range(3)]
    best = _peak(weights)
    # a MISSING cell is never read
    weight = triples.reshape(-1).take(3 * np.arange(grid.size) + np.maximum(grid, 0))
    # A zero-probability observed symbol gets an infinite ratio; when
    # nothing at the locus can rescue the genotype, it ties the (zero)
    # maximum and the ratio is 1.
    ratio = np.where(best > 0.0, np.inf, 1.0)
    np.divide(best, weight, out=ratio, where=weight > 0.0)
    suggested = np.where(weight == best, grid, _first_peak(weights, best))
    samples, loci = np.nonzero(symbols != MISSING)
    cell = row_of[samples] * n + loci
    ratio = ratio.take(cell)
    return ErrorReport(sample_id=IdColumn(samples, corpus.ids),
                       locus_index=loci.astype(np.int64), locus_id=IdColumn(loci, ids),
                       observed=grid.take(cell).astype(np.int64),
                       ratio=ratio, flags=ratio > threshold,
                       suggested=suggested.take(cell), threshold=float(threshold),
                       failures=dict(batch.failures), stats=batch.stats)


def _rows_of(ids: IdColumn, table) -> np.ndarray:
    """The row of each entry's id in the sequence ``table``, -1 where it is
    not there: each name is looked up once, then gathered by code."""
    names = ids.names
    at = np.fromiter(map(dict(zip(table, count())).get, names, repeat(-1)),
                     dtype=np.intp, count=len(names))
    return at[ids.codes]


def correct_errors(corpus, report: ErrorReport):
    """Apply the suggested symbol at every flagged entry.

    Returns (corrected :class:`GenotypeCorpus`, change count). The report
    must have been generated from this corpus: the first entry in report
    order that names an unknown sample, a locus out of range, an observed
    symbol the corpus does not hold (a cell that an earlier entry changed
    included) or a suggestion outside 0-2 is rejected, and nothing changes.
    """
    corpus = GenotypeCorpus.of(corpus)
    symbols = corpus.matrix.copy()
    rows = _rows_of(report.sample_id, corpus.ids)
    loc, observed, suggested = (report.locus_index, report.observed,
                                report.suggested)
    known = rows >= 0
    placed = known & (loc >= 0) & (loc < corpus.loci)
    cell = np.where(placed, rows * corpus.loci + loc, -1)
    matches = placed.copy()
    matches[placed] = symbols.ravel()[cell[placed]] == observed[placed]
    change = report.flags & (suggested != observed)
    # an entry after one that changed its cell no longer matches the corpus
    stale = np.zeros(len(report), dtype=bool)
    if change.any():
        changed, first = np.unique(cell[change], return_index=True)
        at = np.searchsorted(changed, cell).clip(max=changed.size - 1)
        stale = (changed[at] == cell) & (
            np.arange(len(report)) > np.flatnonzero(change)[first][at])
    ok = matches & ~stale & (suggested >= 0) & (suggested <= 2)
    if not ok.all():
        j = int(np.argmin(ok))
        sample, locus = report.sample_id[j], int(loc[j])
        if not known[j]:
            raise InputError(f"report names unknown sample {sample!r}")
        if not placed[j]:
            raise InputError(f"report locus {locus} out of range")
        if not matches[j] or stale[j]:
            raise InputError(
                f"report does not match corpus at {sample!r} locus {locus}")
        raise InputError(f"report suggests symbol {int(suggested[j])!r} at "
                         f"{sample!r} locus {locus}")
    symbols.ravel()[cell[change]] = suggested[change]
    return GenotypeCorpus._trusted(corpus.ids, symbols), int(change.sum())


class RecoveryFill(NamedTuple):
    sample_id: str
    locus_index: int
    symbol: int
    confidence: float


@dataclass(frozen=True, eq=False)
class RecoveryResult(_EntryColumns):
    """The filled ``corpus`` and one fill per filled symbol, in corpus order
    then locus order, as columns like those of :class:`ErrorReport` (recovery's
    ``sample_id`` codes are corpus rows into the corpus ids); ``fills``
    builds the :class:`RecoveryFill` tuples on demand, recovery never does."""

    sample_id: IdColumn
    locus_index: np.ndarray
    symbol: np.ndarray
    confidence: np.ndarray
    corpus: GenotypeCorpus
    failures: dict
    stats: object
    _entry, _dtypes = RecoveryFill, (None, np.int64, np.int64, float)
    fills = _EntryColumns.entries


def recover_missing(model: FounderHMM, corpus) -> RecoveryResult:
    """Replace every MISSING symbol with its posterior argmax.

    Only samples with a MISSING symbol are scanned; complete genotypes pass
    through, so the operation is a fixpoint. A sample with no posterior
    mass at a missing locus is left untouched. ``failures`` and ``stats``
    are those of ``batched_posteriors`` over the scanned samples (empty and
    no work when nothing is missing). Gaps are filled in one pass, as columns.
    """
    corpus = _checked_corpus(model, corpus)
    gaps = corpus.matrix == MISSING
    gapped = np.flatnonzero(gaps.any(axis=1))
    if not gapped.size:
        return RecoveryResult.from_entries((), corpus, {}, BatchStats(0, corpus.loci, 0, 0, 0))
    part = GenotypeCorpus._trusted([corpus.ids[j] for j in gapped], corpus.matrix[gapped])
    batch = batched_posteriors(model, part)
    samples, loci = np.nonzero(gaps[gapped])
    weights = _weights(batch, samples, loci)
    totals = weights[0] + weights[1] + weights[2]  # np.sum's order over a triple
    live = ~np.isin(samples, samples[totals <= 0.0])
    samples, loci, totals = samples[live], loci[live], totals[live]
    weights = [w[live] for w in weights]
    calls = _first_peak(weights, _peak(weights))
    symbols = corpus.matrix.copy()
    symbols[gapped[samples], loci] = calls
    return RecoveryResult(IdColumn(gapped[samples], corpus.ids), loci, calls,
                          np.choose(calls, weights) / totals,
                          GenotypeCorpus._trusted(corpus.ids, symbols), dict(batch.failures),
                          batch.stats)


@dataclass(frozen=True)
class WindowSpec:
    """Local window around an untyped locus: up to ``flank`` typed loci on
    each side, truncated at the ends but never below one typed locus on a
    side that has any."""

    flank: int = 10

    def __post_init__(self):
        if self.flank < 1:
            raise InputError("window flank must be >= 1")


class ImputationEntry(NamedTuple):
    sample_id: str
    locus_index: int
    locus_id: str
    probs: tuple
    call: int
    confidence: float


@dataclass(frozen=True)
class WindowReport:
    lo: int
    hi: int
    targets: tuple
    train_iterations: int
    converged: bool
    model: FounderHMM


@dataclass(frozen=True, eq=False)
class ImputationResult(_EntryColumns):
    """One call per untyped locus of each sample its window model explains,
    in corpus order then locus order, held as columns like those of
    :class:`ErrorReport` (imputation's id codes are corpus rows into the
    corpus ids and locus indices into the map's locus ids), ``probs`` a
    (calls, 3) float64 array. ``failures`` holds the other (sample id,
    locus) pairs, in the same order."""

    sample_id: IdColumn
    locus_index: np.ndarray
    locus_id: IdColumn
    probs: np.ndarray
    call: np.ndarray
    confidence: np.ndarray
    windows: tuple
    failures: tuple
    forward_locus_evals: int
    backward_locus_evals: int
    _entry, _dtypes = ImputationEntry, (None, np.int64, None, (float, 3), np.int64, float)


def window_spans(locus_map: LocusMap, spec: WindowSpec):
    """Group untyped loci by the contiguous span of their flank windows.

    Targets between the same outermost typed flanks share one span (and
    therefore one trained window model and one posterior pass).
    """
    typed_idx = locus_map.typed_indices()
    untyped_idx = locus_map.untyped_indices()
    if untyped_idx.size == 0:
        return []
    if typed_idx.size == 0:
        raise InputError("cannot impute: the locus map has no typed locus")
    spans = {}
    for u in untyped_idx:
        left = typed_idx[typed_idx < u]
        right = typed_idx[typed_idx > u]
        lsel = left[-spec.flank:]
        rsel = right[:spec.flank]
        lo = int(lsel[0]) if lsel.size else int(u)
        hi = int(rsel[-1]) if rsel.size else int(u)
        spans.setdefault((lo, hi), []).append(int(u))
    return sorted((span, tuple(t)) for span, t in spans.items())


def impute_untyped(reference, corpus, locus_map: LocusMap, config: TrainConfig,
                   *, window: WindowSpec = WindowSpec()) -> ImputationResult:
    """Posterior calls at every untyped locus.

    Each window model is trained on the reference haplotypes restricted to
    the window's loci (iteration cap of 50); all windows are fitted in one
    lockstep EM, each exactly as if alone. The corpus symbol matrix,
    restricted to each window with the target columns MISSING, is then
    scored by one :func:`batched_posteriors` call per window. Every window's
    model, and whether its fit converged before the cap, is kept in its
    :class:`WindowReport`. The calls are columns of every sample's target
    triples: the argmax, and the triples over their sum.
    """
    reference = HaplotypePanel.of(reference)
    genos = GenotypeCorpus.of(corpus)
    if not reference:
        raise InputError("reference panel must be non-empty")
    if reference.loci != len(locus_map):
        raise InputError(f"reference haplotype {reference.ids[0]!r} has "
                         f"{reference.loci} loci, map has {len(locus_map)}")
    typed_idx = locus_map.typed_indices()
    if genos and genos.loci != typed_idx.size:
        raise InputError(f"genotype {genos.ids[0]!r} has {genos.loci} loci, "
                         f"map has {typed_idx.size} typed")
    spans = window_spans(locus_map, window)
    if spans and not genos:
        raise InputError("corpus must be non-empty")
    fits = train_founder_hmms(
        [reference.matrix[:, lo:hi + 1] for (lo, hi), _ in spans],
        window_config(config))
    symbols = genos.matrix
    picked, loci, windows, evals = [np.zeros((len(genos), 0, 3))], [], [], [(0, 0)]
    for ((lo, hi), targets), (wmodel, wreport) in zip(spans, fits):
        # the corpus on the window's loci, MISSING at the untyped ones
        first, stop = np.searchsorted(typed_idx, (lo, hi + 1))
        block = np.full((len(genos), hi - lo + 1), MISSING, dtype=np.int8)
        block[:, typed_idx[first:stop] - lo] = symbols[:, first:stop]
        batch = batched_posteriors(wmodel, GenotypeCorpus._trusted(genos.ids, block))
        windows.append(WindowReport(lo, hi, targets, wreport.iterations_run,
                                    wreport.converged, wmodel))
        evals.append((batch.stats.forward_locus_evals, batch.stats.backward_locus_evals))
        picked.append(batch.triples[:, np.asarray(targets) - lo][batch.row_of])
        loci += targets
    # window_spans holds each untyped locus once, in locus order
    triples, loci = np.concatenate(picked, axis=1), np.array(loci, dtype=np.int64)
    totals = triples.sum(axis=2)
    (samples, at), failed = np.nonzero(~(totals <= 0.0)), np.nonzero(totals <= 0.0)
    probs = triples[samples, at] / totals[samples, at, None]
    calls = triples[samples, at].argmax(axis=1)  # dividing the triples can tie two
    return ImputationResult(
        IdColumn(samples, genos.ids), loci[at], IdColumn(loci[at], locus_map.locus_ids),
        probs, calls,
        probs[np.arange(len(calls)), calls], tuple(windows),
        tuple(zip(map(genos.ids.__getitem__, failed[0].tolist()), loci[failed[1]].tolist())),
        *map(sum, zip(*evals)))


@dataclass(frozen=True)
class PhaseResult:
    """Most probable haplotype pair explaining one genotype.

    ``first`` <= ``second`` lexicographically; ``founder_paths`` holds the
    (2, n) founder indices of the two copies, read-only, in the smallest
    unsigned dtype that holds K - 1; log_joint is the log probability of
    the decoded founder path pair together with the observed symbols.
    """

    first: HaplotypeSequence
    second: HaplotypeSequence
    founder_paths: np.ndarray
    log_joint: float


def _assign_alleles(model: FounderHMM, rows: np.ndarray, paths: np.ndarray):
    """The (B, n) allele rows of decoded founder paths, each pair ordered
    lexicographically; ``paths`` is reordered to match, in place."""
    loci = np.arange(rows.shape[1])
    p = model.emissions[loci, paths[:, 0]]
    q = model.emissions[loci, paths[:, 1]]
    het = rows == 1
    first_minor = p * (1.0 - q) > (1.0 - p) * q
    first = np.where(het, first_minor, rows // 2).astype(np.int8)
    second = np.where(het, ~first_minor, rows // 2).astype(np.int8)
    missing = rows == MISSING
    pm, qm = p[missing], q[missing]
    best = np.argmax([(1.0 - pm) * (1.0 - qm), (1.0 - pm) * qm,
                      pm * (1.0 - qm), pm * qm], axis=0)
    first[missing], second[missing] = best >> 1, best & 1
    # the first differing locus decides the order
    every = np.arange(rows.shape[0])
    differs = first != second
    at = differs.argmax(axis=1)
    swap = differs[every, at] & (second[every, at] < first[every, at])
    first[swap], second[swap] = second[swap], first[swap]
    paths[swap] = paths[swap, ::-1]
    return first, second


def _decode_distinct(model: FounderHMM, rows: np.ndarray):
    """Alleles, founder paths, log joints and first dead loci (-1 for none)
    of (D, n) sorted distinct rows, walked
    (:func:`~founderhmm.inference._viterbi_rows`) and traced back in chunks
    that fit in ``inference._TILE_BYTES``."""
    n, k = rows.shape[1], model.founders
    # a row's back-pointers, one locus' values, hits, collapsed values,
    # emission gather and peak, the max-product step's K candidate
    # products with their byte mask and masked ranks, its peaks and allele
    # arrays
    ptr = np.min_scalar_type(k - 1).itemsize
    row_bytes = (2 * (n - 1) * ptr + 40) * k * k + (9 + ptr) * k ** 3 + 72 * n
    step = max(1, inference._TILE_BYTES // row_bytes)
    etab, planes = emission_stack(model), _planes(rows)
    chunks = []
    for lo in range(0, len(rows), step):
        value, logscale, dead, back = _viterbi_rows(model, etab, planes[lo:lo + step])
        every = np.arange(value.shape[2])
        pair_a, pair_b = np.divmod(value.reshape(k * k, -1).argmax(axis=0), k)
        with np.errstate(divide="ignore"):  # dead rows end at zero
            log_joint = logscale + np.log(value[pair_a, pair_b, every])
        paths = np.empty((len(every), 2, n), dtype=back.dtype)
        paths[:, 0, n - 1], paths[:, 1, n - 1] = pair_a, pair_b
        for i in range(n - 2, -1, -1):
            a, b = paths[:, 0, i + 1], paths[:, 1, i + 1]
            paths[:, 0, i] = f = back[i, 0][a, b, every]
            paths[:, 1, i] = back[i, 1][b, f, every]
        alleles = _assign_alleles(model, rows[lo:lo + step], paths)
        chunks.append((*alleles, paths, log_joint, dead))
    return tuple(map(np.concatenate, zip(*chunks)))


def _phase(model: FounderHMM, corpus):
    """The corpus as a matrix, each sample's distinct row, and the alleles
    (``first`` and ``second``, read-only), founder paths and log joints of
    the distinct rows; see :func:`phase_corpus`."""
    corpus = GenotypeCorpus.of(corpus)
    if corpus and corpus.loci != model.loci:
        raise InputError(f"genotype {corpus.ids[0]!r} has {corpus.loci} loci "
                         f"but the model has {model.loci}")
    if not corpus:  # nothing to decode
        none = np.zeros((0, model.loci), dtype=np.int8)
        return corpus, np.zeros(0, dtype=np.intp), none, none, none, none
    rows, _, _, row_of = _distinct_rows(corpus.matrix)
    first, second, paths, log_joint, dead = _decode_distinct(model, rows)
    failed = np.flatnonzero(dead[row_of] >= 0)
    if failed.size:
        sample, locus = corpus.ids[failed[0]], int(dead[row_of[failed[0]]])
        raise ZeroProbabilityError(locus, f"sample {sample!r} has zero "
                                          f"probability at locus {locus}")
    for array in (first, second, paths):
        array.setflags(write=False)
    return corpus, row_of, first, second, paths, log_joint


def phase_corpus(model: FounderHMM, corpus) -> list:
    """Max-product phasing of every genotype of ``corpus``, in corpus order.

    Identical genotypes are decoded once, as sorted distinct rows
    (:func:`_decode_distinct`), with per-row max rescaling against
    underflow. Results are bitwise those of decoding each genotype alone.
    A genotype the model cannot explain raises ``ZeroProbabilityError``
    for the first such sample in corpus order, at its first
    zero-probability locus.
    """
    corpus, row_of, first, second, paths, log_joint = _phase(model, corpus)
    return [PhaseResult(first=_unchecked(HaplotypeSequence, f"{sid}.h1", first[r]),
                        second=_unchecked(HaplotypeSequence, f"{sid}.h2", second[r]),
                        founder_paths=paths[r], log_joint=float(log_joint[r]))
            for sid, r in zip(corpus.ids, row_of.tolist())]


def phase_panel(model: FounderHMM, corpus) -> HaplotypePanel:
    """The haplotypes of :func:`phase_corpus` as one panel: rows
    ``<sample>.h1`` and ``<sample>.h2`` of each sample, in corpus order."""
    corpus, row_of, first, second, *_ = _phase(model, corpus)
    alleles = np.stack((first, second), axis=1)[row_of]
    return HaplotypePanel._trusted(
        [f"{sid}.h{copy}" for sid in corpus.ids for copy in (1, 2)],
        alleles.reshape(2 * len(corpus), model.loci))


def phase_decode(model: FounderHMM, genotype: MultilocusGenotype) -> PhaseResult:
    """Max-product phasing of one genotype; see :func:`phase_corpus`."""
    return phase_corpus(model, [genotype])[0]


@dataclass(frozen=True)
class StageReport:
    name: str
    seconds: float
    counters: dict


@dataclass(frozen=True)
class PipelineResult:
    mode: str
    imputation: ImputationResult
    stages: tuple
    corpus_out: GenotypeCorpus
    error_report: ErrorReport | None
    recovery: RecoveryResult | None


def run_pipeline(mode: str, reference, corpus, locus_map: LocusMap,
                 config: TrainConfig, *, window: WindowSpec = WindowSpec(),
                 threshold: float = DEFAULT_RATIO_THRESHOLD) -> PipelineResult:
    """Run one of the two supported flows.

    "imp" imputes untyped loci directly. "edc-mdr-imp" first trains a
    typed-locus model on the reference pooled with haplotypes decoded from
    the test corpus itself (one decode round with the reference-only model,
    fitted under :func:`bootstrap_config`, then a warm retrain: the pooled
    fit starts from that model, under :func:`pooled_config`; both fits are
    accelerated, and their stage counters count E-steps), repairs the
    corpus (flag-and-correct at ``threshold``, then fill missing symbols),
    and imputes from the repaired corpus.
    """
    if mode not in (PIPELINE_IMPUTE_ONLY, PIPELINE_REPAIR_IMPUTE):
        raise InputError(f"unknown pipeline mode {mode!r}")
    stages = []
    error_report = None
    recovery = None
    working = GenotypeCorpus.of(corpus)
    if mode == PIPELINE_REPAIR_IMPUTE:
        typed_idx = locus_map.typed_indices()
        typed_ids = [locus_map.locus_ids[int(j)] for j in typed_idx]
        reference = HaplotypePanel.of(reference)
        ref_typed = HaplotypePanel(reference.ids, reference.matrix[:, typed_idx])

        t0 = time.perf_counter()
        model0, report0 = train_founder_hmm(ref_typed, bootstrap_config(config))
        phased = phase_panel(model0, working)
        model1, report1 = train_founder_hmm(HaplotypePanel(
            ref_typed.ids + phased.ids,
            np.concatenate((ref_typed.matrix, phased.matrix))),
            pooled_config(config), start=model0)
        stages.append(StageReport("train-typed-model", time.perf_counter() - t0, {
            "reference_haplotypes": len(ref_typed),
            "decoded_haplotypes": len(phased),
            "bootstrap_iterations": report0.iterations_run,
            "pooled_iterations": report1.iterations_run,
            "capped": (not report0.converged) + (not report1.converged),
        }))

        t0 = time.perf_counter()
        error_report = detect_errors(model1, working, threshold,
                                     locus_ids=typed_ids)
        working, changes = correct_errors(working, error_report)
        stages.append(StageReport("detect-correct", time.perf_counter() - t0, {
            "flagged": int(error_report.flags.sum()),
            "changed": changes,
            "locus_evals": error_report.stats.forward_locus_evals
            + error_report.stats.backward_locus_evals,
        }))

        t0 = time.perf_counter()
        recovery = recover_missing(model1, working)
        working = recovery.corpus
        stages.append(StageReport("recover-missing", time.perf_counter() - t0, {
            "filled": len(recovery),
            "locus_evals": recovery.stats.forward_locus_evals
            + recovery.stats.backward_locus_evals,
        }))

    t0 = time.perf_counter()
    imputation = impute_untyped(reference, working, locus_map, config,
                                window=window)
    stages.append(StageReport("impute-untyped", time.perf_counter() - t0, {
        "windows": len(imputation.windows),
        "capped": sum(not w.converged for w in imputation.windows),
        "entries": len(imputation),
        "locus_evals": imputation.forward_locus_evals
        + imputation.backward_locus_evals,
    }))
    return PipelineResult(mode=mode, imputation=imputation, stages=tuple(stages),
                          corpus_out=working, error_report=error_report,
                          recovery=recovery)
