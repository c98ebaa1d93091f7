"""Synthetic data generation, scoring, grid sweeps, and scaling benchmarks.

The generator draws founder alleles, builds mosaic haplotypes by switching
founders along the map, pairs them into genotypes, and pushes the result
through three corruption channels in a fixed order: symbol errors, then
missingness, then masking of map columns. Every corruption is recorded so
detection precision/recall can be scored exactly, not just discordance.
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .analysis import (PIPELINE_IMPUTE_ONLY, ImputationResult, WindowSpec, _rows_of,
                       run_pipeline)
from .inference import batched_posteriors
from .model import (MISSING, FounderHMM, GenotypeCorpus, HaplotypePanel,
                    InputError, LocusMap)
from .training import TrainConfig

_MAF_RANGE = (0.05, 0.5)  # each locus' minor-allele frequency, drawn uniformly


@dataclass(frozen=True)
class SimConfig:
    """Generative settings. All randomness flows from ``seed`` through one
    generator in a fixed draw order (founders, reference panel, sample
    haplotypes, error sites, error values, missing sites, mask columns), so
    a fixed seed reproduces every output byte for byte.
    """

    founder_count: int = 5
    loci: int = 200
    sample_count: int = 50
    panel_size: int = 100
    switch_rate: float = 0.02
    error_rate: float = 0.0
    missing_rate: float = 0.0
    mask_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.founder_count < 1:
            raise InputError("founder_count must be >= 1")
        if self.loci < 1:
            raise InputError("loci must be >= 1")
        if self.sample_count < 1:
            raise InputError("sample_count must be >= 1")
        if self.panel_size < 1:
            raise InputError("panel_size must be >= 1")
        if not self.seed >= 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
        for name in ("switch_rate", "error_rate", "missing_rate", "mask_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InputError(f"{name} must lie in [0, 1], got {v}")
        if self.mask_count >= self.loci:
            raise InputError(f"mask_fraction {self.mask_fraction} masks all {self.loci} "
                             "loci; at least one must stay typed")

    @property
    def mask_count(self) -> int:
        """Map columns that the masking channel relabels untyped."""
        return int(round(self.mask_fraction * self.loci))


class ErrorRecord(NamedTuple):
    sample_id: str
    locus_index: int  # full-map coordinate
    truth: int
    observed: int


class MissingRecord(NamedTuple):
    sample_id: str
    locus_index: int


@dataclass(frozen=True)
class SimData:
    """One synthetic dataset; its panels and corpora are row containers,
    each a symbol matrix checked once, where it was built."""

    config: SimConfig
    founder_alleles: np.ndarray
    locus_map: LocusMap
    reference: HaplotypePanel
    truth_haplotypes: HaplotypePanel  # two per sample, full map
    truth_genotypes: GenotypeCorpus   # full map, no MISSING
    observed: GenotypeCorpus          # typed columns only, after all channels
    error_records: tuple
    missing_records: tuple
    masked_loci: tuple      # full-map indices relabeled untyped

    def typed_truth(self):
        """Truth genotypes restricted to the typed columns of the map."""
        truth = self.truth_genotypes
        return GenotypeCorpus._trusted(truth.ids, truth.matrix[:, self.locus_map.typed])

    def typed_reference(self):
        """Reference panel restricted to the typed columns of the map."""
        panel = self.reference
        return HaplotypePanel._trusted(panel.ids, panel.matrix[:, self.locus_map.typed])

    def observable_errors(self):
        """Injected errors still visible in the observed corpus: the locus
        survived masking and the symbol was not subsequently blanked."""
        masked = set(self.masked_loci)
        blanked = {(r.sample_id, r.locus_index) for r in self.missing_records}
        return tuple(r for r in self.error_records
                     if r.locus_index not in masked
                     and (r.sample_id, r.locus_index) not in blanked)

    def typed_column_of(self):
        """Map full-map locus index -> observed-corpus column index."""
        typed = self.locus_map.typed_indices()
        return {int(j): c for c, j in enumerate(typed)}


def _switch_paths(start, switch, redraw):
    """(haplotypes, loci) founder paths from ``start``, entering locus
    i + 1 in ``redraw[h, i]`` wherever ``switch[h, i]`` is set."""
    count, gaps = switch.shape
    steps = np.zeros((count, gaps + 1), dtype=np.int64)
    steps[:, 0] = start
    h, i = np.divmod(np.flatnonzero(switch), gaps)  # by haplotype, then interval
    to = redraw[h, i]
    first = np.diff(h, prepend=-1) != 0  # the haplotype's first event
    steps[h, i + 1] = to - np.where(first, start[h], np.roll(to, 1))
    return np.cumsum(steps, axis=1, out=steps)


def _mosaics(rng, founder_alleles, count, switch_rate):
    """Mosaic haplotypes: start in a uniform founder, and at each interval
    redraw the founder uniformly with probability ``switch_rate`` (the
    redraw may land on the same founder). A path is built from its switch
    events, not locus by locus: each event writes its step from the
    founder before it (the last redraw, or the start), and one cumsum
    along the loci sums the steps."""
    k, n = founder_alleles.shape
    start = rng.integers(k, size=count)
    switch = rng.random(size=(count, n - 1)) < switch_rate
    redraw = rng.integers(k, size=(count, n - 1))
    return founder_alleles[_switch_paths(start, switch, redraw), np.arange(n)]


def simulate(config: SimConfig) -> SimData:
    """Generate one synthetic dataset; see SimConfig for the draw order."""
    rng = np.random.default_rng(config.seed)
    k, n, m = config.founder_count, config.loci, config.sample_count

    maf = rng.uniform(*_MAF_RANGE, size=n)
    founders = (rng.random(size=(k, n)) < maf).astype(np.int8)

    panel_alleles = _mosaics(rng, founders, config.panel_size, config.switch_rate)
    reference = HaplotypePanel([f"R{j}" for j in range(config.panel_size)], panel_alleles)

    hap_alleles = _mosaics(rng, founders, 2 * m, config.switch_rate)
    samples = [f"S{j}" for j in range(m)]
    truth_haplotypes = HaplotypePanel([f"{s}.{copy}" for s in samples for copy in "ab"],
                                      hap_alleles)
    observed_matrix = hap_alleles[0::2] + hap_alleles[1::2]
    truth_genotypes = GenotypeCorpus(samples, observed_matrix)  # a copy: the channels write below

    error_sites = rng.random(size=(m, n)) < config.error_rate
    shifts = rng.integers(1, 3, size=(m, n))
    rows, cols = np.divmod(np.flatnonzero(error_sites), n)
    truth_sym = observed_matrix[rows, cols]
    new_sym = (truth_sym + shifts[rows, cols]) % 3
    observed_matrix[rows, cols] = new_sym
    error_records = tuple(map(ErrorRecord, [samples[r] for r in rows.tolist()],
                              cols.tolist(), truth_sym.tolist(), new_sym.tolist()))

    missing_sites = rng.random(size=(m, n)) < config.missing_rate
    rows, cols = np.divmod(np.flatnonzero(missing_sites), n)
    observed_matrix[rows, cols] = MISSING
    missing_records = tuple(map(MissingRecord, [samples[r] for r in rows.tolist()],
                                cols.tolist()))

    if config.mask_count > 0:
        masked = np.sort(rng.choice(n, size=config.mask_count, replace=False))
    else:
        masked = np.empty(0, dtype=np.int64)
    typed = np.ones(n, dtype=bool)
    typed[masked] = False

    locus_map = LocusMap(
        locus_ids=tuple(f"L{i}" for i in range(n)),
        positions=np.arange(1, n + 1, dtype=np.int64),
        typed=typed)

    return SimData(config=config, founder_alleles=founders, locus_map=locus_map,
                   reference=reference, truth_haplotypes=truth_haplotypes,
                   truth_genotypes=truth_genotypes,
                   observed=GenotypeCorpus(samples, observed_matrix[:, typed]),
                   error_records=error_records, missing_records=missing_records,
                   masked_loci=tuple(masked.tolist()))


@dataclass(frozen=True)
class EvalReport:
    total: int
    discordant: int
    confusion: np.ndarray  # (3, 3), [truth, call]
    details: dict = field(default_factory=dict)

    @property
    def discordance_rate(self):
        return self.discordant / self.total if self.total else 0.0


def _truth_lookup(truth_genotypes):
    table = {}
    for g in truth_genotypes:
        if g.sample_id in table:
            raise InputError(f"duplicate truth sample {g.sample_id!r}")
        table[g.sample_id] = g.symbols
    return table


def evaluate(calls, truth_genotypes, *, loci=None) -> EvalReport:
    """Score calls against ground truth.

    ``calls`` is either an ImputationResult (scored at its own locus
    indices, optionally restricted to ``loci``) or a corpus of genotypes
    aligned column-for-column with ``truth_genotypes`` (every non-missing
    symbol is scored). The calls are checked and scored as arrays; a bad
    one fails with the message of the first in call order.
    """
    truth = _truth_lookup(truth_genotypes)
    names, of, problem = list(truth), dict(zip(truth, itertools.count())), None
    lengths = np.array([len(v) for v in truth.values()] + [0])
    symbols = np.concatenate([*truth.values(), [MISSING]]).astype(np.int8)
    if isinstance(calls, ImputationResult):
        ids = calls.sample_id
        scored = np.flatnonzero(np.isin(calls.locus_index, [int(i) for i in loci])
                                if loci is not None else np.ones(len(ids), dtype=bool))
        row = _rows_of(ids, names)[scored]
        index, call = calls.locus_index[scored], calls.call[scored]
        name = lambda j: ids[scored[j]]
    else:
        rows = []
        for g in calls:
            k = of.get(g.sample_id)
            if k is None or lengths[k] != len(g):
                problem = (f"call names unknown sample {g.sample_id!r}" if k is None else
                           f"{g.sample_id!r}: {len(g)} call loci vs {lengths[k]} truth loci")
                break
            picked = np.full(len(g), loci is None)
            if loci is not None:
                picked[list(loci)] = True
            at = np.flatnonzero(picked & (g.symbols != MISSING))
            rows.append((np.full(len(at), k), at, g.symbols[at]))
        row, index, call = (np.concatenate(c).astype(np.intp) for c in zip(([], [], []), *rows))
        name = lambda j: names[row[j]]
    inside = (index >= 0) & (index < lengths[row])
    true = symbols[np.where(inside, (np.cumsum(lengths) - lengths)[row] + index, -1)]
    bad = np.flatnonzero(~(inside & (true != MISSING) & np.isin(call, (0, 1, 2))))
    if bad.size:
        j = bad[0]
        if row[j] < 0:
            raise InputError(f"call names unknown sample {name(j)!r}")
        if not inside[j]:
            raise InputError(f"call locus {index[j]} outside truth for {name(j)!r}")
        if true[j] == MISSING:
            raise InputError(f"truth is missing at {name(j)!r} locus {index[j]}")
        raise InputError(f"call {call.tolist()[j]!r} at {name(j)!r} locus {index[j]} "
                         "is not 0, 1 or 2")
    if problem:
        raise InputError(problem)
    true, call = true.astype(np.intp), call.astype(np.intp)
    return EvalReport(total=len(true), discordant=int((true != call).sum()),
                      confusion=np.bincount(3 * true + call, minlength=9).reshape(3, 3),
                      details={"kind": "imputation" if isinstance(calls, ImputationResult)
                               else "corpus"})


class SweepRow(NamedTuple):
    founders: int
    panel_size: int
    flank: int
    mode: str
    total: int
    discordant: int
    error_rate: float
    seconds: float
    failed: bool
    message: str


def sweep(data: SimData, *, founder_counts=(7,), panel_sizes=(100,),
          flanks=(10,), modes=(PIPELINE_IMPUTE_ONLY,)):
    """One pipeline run per grid cell on a shared dataset.

    Panels are nested: a cell with panel size p uses the first p reference
    haplotypes, so growing the panel only adds information. Cell failures
    are captured in the row, never raised. Cell seeds derive from the
    dataset seed and the cell index, so results do not depend on execution
    order.
    """
    cells = list(itertools.product(founder_counts, panel_sizes, flanks, modes))
    for _, p, _, _ in cells:
        if p > len(data.reference):
            raise InputError(
                f"panel size {p} exceeds the {len(data.reference)} reference haplotypes")
    seeds = np.random.SeedSequence(entropy=(data.config.seed, 0))
    rows = []
    for (founders, panel, flank, mode), child in zip(cells, seeds.spawn(len(cells))):
        cell_seed = int(child.generate_state(1)[0])
        start = time.perf_counter()
        try:
            cfg = TrainConfig(founders=founders, seed=cell_seed)
            result = run_pipeline(mode, data.reference[:panel], data.observed,
                                  data.locus_map, cfg,
                                  window=WindowSpec(flank=flank))
            report = evaluate(result.imputation, data.truth_genotypes)
            rows.append(SweepRow(founders, panel, flank, mode, report.total,
                                 report.discordant, report.discordance_rate,
                                 time.perf_counter() - start, False, ""))
        except Exception as exc:  # isolate the cell, keep the sweep alive
            rows.append(SweepRow(founders, panel, flank, mode, 0, 0, float("nan"),
                                 time.perf_counter() - start, True,
                                 f"{type(exc).__name__}: {exc}"))
    return rows


class BenchRow(NamedTuple):
    axis: str
    value: int
    seconds: float  # median over repeats
    locus_evals: int


@dataclass(frozen=True)
class BenchReport:
    rows: tuple
    exponents: dict  # axis -> fitted log-log slope

    def series(self, axis):
        return [(r.value, r.seconds) for r in self.rows if r.axis == axis]


def fit_exponent(values, seconds):
    """Slope of log(seconds) against log(value) — the growth exponent."""
    v = np.log(np.asarray(values, dtype=float))
    t = np.log(np.asarray(seconds, dtype=float))
    if np.unique(v).size < 2:
        raise InputError("need at least two distinct values to fit an exponent")
    return float(np.polyfit(v, t, 1)[0])


def _random_model(rng, n, k):
    initial = np.full(k, 1.0 / k)
    transitions = rng.uniform(0.5, 1.5, size=(max(n - 1, 0), k, k))
    transitions /= transitions.sum(axis=2, keepdims=True)
    emissions = rng.uniform(0.1, 0.9, size=(n, k))
    return FounderHMM(initial=initial, transitions=transitions,
                      emissions=emissions)


def _bench_cell(rng, n, k, m, repeats):
    model = _random_model(rng, n, k)
    symbols = rng.integers(0, 3, size=(m, n)).astype(np.int8)
    corpus = GenotypeCorpus([f"B{j}" for j in range(m)], symbols)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        batch = batched_posteriors(model, corpus)
        times.append(time.perf_counter() - start)
    evals = batch.stats.forward_locus_evals + batch.stats.backward_locus_evals
    return float(np.median(times)), evals


def bench_scaling(*, loci_grid=(250, 500, 1000, 2000), loci_samples=40,
                  loci_founders=5, sample_grid=(60, 120, 240, 480),
                  sample_loci=300, sample_founders=5,
                  founder_grid=(3, 5, 7, 9, 11, 13, 15), founder_loci=200,
                  founder_samples=30, repeats=3, seed=0) -> BenchReport:
    """Time the batched posterior engine along three axes and fit growth
    exponents from a log-log regression. Median of ``repeats`` runs per
    cell to stabilize small timings."""
    if not (repeats >= 1 and seed >= 0):
        raise InputError(
            f"need repeats >= 1 and seed >= 0, got {repeats} and {seed}")
    grids = {"loci": loci_grid, "samples": sample_grid, "founders": founder_grid}
    for axis, grid in grids.items():
        if len(set(grid)) < 2:
            raise InputError(f"the {axis} grid needs at least two distinct "
                             f"values, got {list(grid)}")
    rng = np.random.default_rng(seed)
    rows = []
    for n in loci_grid:
        sec, evals = _bench_cell(rng, n, loci_founders, loci_samples, repeats)
        rows.append(BenchRow("loci", int(n), sec, evals))
    for m in sample_grid:
        sec, evals = _bench_cell(rng, sample_loci, sample_founders, m, repeats)
        rows.append(BenchRow("samples", int(m), sec, evals))
    for k in founder_grid:
        sec, evals = _bench_cell(rng, founder_loci, k, founder_samples, repeats)
        rows.append(BenchRow("founders", int(k), sec, evals))
    exponents = {}
    for axis in ("loci", "samples", "founders"):
        pts = [(r.value, r.seconds) for r in rows if r.axis == axis]
        exponents[axis] = fit_exponent([p[0] for p in pts], [p[1] for p in pts])
    return BenchReport(rows=tuple(rows), exponents=exponents)
