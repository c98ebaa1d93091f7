"""Generator, scorer, sweep, and benchmark behaviour on synthetic data."""
import dataclasses

import numpy as np
import pytest

import founderhmm
import oracle
from conftest import recoded
from founderhmm import (MISSING, GenotypeCorpus, HaplotypePanel, ImputationEntry,
                        ImputationResult, InputError, MultilocusGenotype,
                        SimConfig, evaluate, fit_exponent, simulate, sweep)
from founderhmm.simulate import _switch_paths


# -------------------------------------------------------------- generator

def test_same_config_reproduces_every_byte():
    cfg = SimConfig(founder_count=4, loci=30, sample_count=8, panel_size=12,
                    switch_rate=0.05, error_rate=0.02, missing_rate=0.03,
                    mask_fraction=0.1, seed=11)
    a, b = simulate(cfg), simulate(cfg)
    assert np.array_equal(a.founder_alleles, b.founder_alleles)
    assert a.masked_loci == b.masked_loci
    assert a.error_records == b.error_records
    assert a.missing_records == b.missing_records
    for x, y in zip(a.reference, b.reference):
        assert x.id == y.id and np.array_equal(x.alleles, y.alleles)
    for x, y in zip(a.observed, b.observed):
        assert x.sample_id == y.sample_id
        assert np.array_equal(x.symbols, y.symbols)


def test_different_seeds_differ():
    base = dict(founder_count=4, loci=40, sample_count=6, panel_size=10)
    a = simulate(SimConfig(seed=0, **base))
    b = simulate(SimConfig(seed=1, **base))
    assert not all(np.array_equal(x.symbols, y.symbols)
                   for x, y in zip(a.observed, b.observed))


def test_zero_switch_rate_yields_pure_founder_haplotypes():
    """With no switching each haplotype must copy a single founder row."""
    data = simulate(SimConfig(founder_count=3, loci=25, sample_count=10,
                              panel_size=8, switch_rate=0.0, seed=2))
    rows = {tuple(r) for r in data.founder_alleles}
    for h in list(data.reference) + list(data.truth_haplotypes):
        assert tuple(h.alleles) in rows


def test_identity_channels_leave_truth_untouched():
    data = simulate(SimConfig(founder_count=4, loci=50, sample_count=9,
                              panel_size=10, seed=5))
    assert data.error_records == ()
    assert data.missing_records == ()
    assert data.masked_loci == ()
    assert data.locus_map.typed.all()
    for obs, truth in zip(data.observed, data.truth_genotypes):
        assert obs.sample_id == truth.sample_id
        assert np.array_equal(obs.symbols, truth.symbols)


def test_channels_change_exactly_the_recorded_sites():
    """observed == truth except where a record says otherwise, and every
    surviving record is visible in the observed corpus."""
    data = simulate(SimConfig(founder_count=4, loci=60, sample_count=12,
                              panel_size=10, switch_rate=0.05,
                              error_rate=0.04, missing_rate=0.05,
                              mask_fraction=0.15, seed=7))
    typed_indices = data.locus_map.typed_indices()
    blanked = {(r.sample_id, r.locus_index) for r in data.missing_records}
    errored = {(r.sample_id, r.locus_index): r for r in data.error_records}
    assert errored, "instance must actually exercise the error channel"
    assert blanked, "instance must actually exercise the missing channel"
    for obs, truth in zip(data.observed, data.typed_truth()):
        for c in range(len(obs)):
            key = (obs.sample_id, int(typed_indices[c]))
            got, want = int(obs.symbols[c]), int(truth.symbols[c])
            if key in blanked:
                assert got == MISSING
            elif key in errored:
                assert got == errored[key].observed
                assert want == errored[key].truth
                assert got != want
            else:
                assert got == want


def test_observable_errors_survive_masking_and_blanking():
    data = simulate(SimConfig(founder_count=3, loci=80, sample_count=10,
                              panel_size=8, error_rate=0.06,
                              missing_rate=0.08, mask_fraction=0.2, seed=9))
    survivors = data.observable_errors()
    assert set(survivors) <= set(data.error_records)
    col_of = data.typed_column_of()
    by_id = {g.sample_id: g for g in data.observed}
    for r in survivors:
        assert r.locus_index not in data.masked_loci
        assert int(by_id[r.sample_id].symbols[col_of[r.locus_index]]) == r.observed


def test_mask_count_is_rounded_fraction_of_map():
    # 530/5835 of 5835 loci must hide exactly 530 columns.
    n = 5835
    data = simulate(SimConfig(founder_count=2, loci=n, sample_count=1,
                              panel_size=2, mask_fraction=530 / n, seed=1))
    assert len(data.masked_loci) == 530
    assert int(data.locus_map.typed.sum()) == n - 530
    assert len(data.observed[0]) == n - 530
    assert list(data.masked_loci) == sorted(data.masked_loci)


def test_config_validation():
    with pytest.raises(InputError):
        SimConfig(founder_count=0)
    with pytest.raises(InputError):
        SimConfig(error_rate=1.5)
    with pytest.raises(InputError):
        SimConfig(seed=-1)
    for bad in (dict(seed=-1), dict(repeats=0), dict(loci_grid=(4, 4)),
                dict(sample_grid=(8,)), dict(founder_grid=())):
        with pytest.raises(InputError):
            founderhmm.bench_scaling(**bad)
    # a mask_fraction must leave a typed locus
    for loci, fraction in ((200, 1.0), (1, 0.6), (4, 0.9)):
        with pytest.raises(InputError) as err:
            SimConfig(loci=loci, mask_fraction=fraction)
        assert str(err.value) == (f"mask_fraction {fraction} masks all {loci} loci; "
                                  "at least one must stay typed")
    for loci, fraction in ((1, 0.5), (4, 0.8)):  # round(0.5) is 0, round(3.2) is 3
        data = simulate(SimConfig(loci=loci, sample_count=2, panel_size=2,
                                  mask_fraction=fraction))
        assert data.observed.loci == loci - len(data.masked_loci) >= 1


# ------------------------------------------------------- per-row oracle

_ORACLE_BASE = dict(founder_count=4, loci=30, sample_count=6, panel_size=9,
                    switch_rate=0.1, error_rate=0.05, missing_rate=0.05,
                    mask_fraction=0.1)
_ORACLE_EDGES = [dict(), dict(loci=1), dict(sample_count=1), dict(panel_size=1),
                 dict(founder_count=1), dict(switch_rate=0.0), dict(switch_rate=1.0),
                 dict(error_rate=0.0), dict(error_rate=1.0), dict(missing_rate=0.0),
                 dict(missing_rate=1.0), dict(error_rate=1.0, missing_rate=1.0),
                 dict(mask_fraction=0.0), dict(mask_fraction=0.5)]


def _same_rows(got, want):
    want = type(got).of(want)
    assert got.ids == want.ids
    assert got.matrix.dtype == want.matrix.dtype == np.int8
    assert np.array_equal(got.matrix, want.matrix)
    assert not got.matrix.flags.writeable


@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize("edge", _ORACLE_EDGES, ids=lambda e: ",".join(
    f"{k}={v}" for k, v in e.items()) or "base")
def test_simulate_matches_the_per_row_generator(edge, seed):
    config = SimConfig(**{**_ORACLE_BASE, **edge}, seed=seed)
    got, want = simulate(config), oracle.simulate_per_row(config)
    assert got.config == want.config
    assert got.founder_alleles.dtype == want.founder_alleles.dtype
    assert np.array_equal(got.founder_alleles, want.founder_alleles)
    assert isinstance(got.reference, HaplotypePanel)
    assert isinstance(got.truth_haplotypes, HaplotypePanel)
    assert isinstance(got.truth_genotypes, GenotypeCorpus)
    assert isinstance(got.observed, GenotypeCorpus)
    for name in ("reference", "truth_haplotypes", "truth_genotypes", "observed"):
        _same_rows(getattr(got, name), getattr(want, name))
    _same_rows(got.typed_truth(), oracle.typed_truth_per_row(want))
    _same_rows(got.typed_reference(), oracle.typed_reference_per_row(want))
    # repr tells a Python int from a NumPy integer
    for name in ("error_records", "missing_records", "masked_loci"):
        assert repr(getattr(got, name)) == repr(getattr(want, name)), name
    assert got.locus_map.locus_ids == want.locus_map.locus_ids
    for name in ("positions", "typed"):
        a, b = getattr(got.locus_map, name), getattr(want.locus_map, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_switch_event_paths_match_the_per_locus_loop():
    rng = np.random.default_rng(31)
    for _ in range(300):
        k, count, gaps = (int(v) for v in rng.integers((1, 1, 0), (7, 9, 25)))
        start = rng.integers(k, size=count)
        switch = rng.random((count, gaps)) < rng.choice([0.0, 0.05, 0.3, 0.7, 1.0])
        redraw = rng.integers(k, size=(count, gaps))
        got = _switch_paths(start, switch, redraw)
        assert got.dtype == np.int64
        assert np.array_equal(got, oracle.switch_paths_per_locus(start, switch, redraw))


def test_truth_corpus_does_not_see_the_error_channel():
    data = simulate(SimConfig(founder_count=3, loci=40, sample_count=8,
                              panel_size=4, error_rate=1.0, missing_rate=0.3,
                              seed=4))
    truth, haps = data.truth_genotypes.matrix, data.truth_haplotypes.matrix
    assert np.array_equal(truth, haps[0::2] + haps[1::2])
    assert not np.shares_memory(truth, data.observed.matrix)
    assert len(data.error_records) == truth.size
    for r in data.error_records:
        assert truth[data.truth_genotypes.ids.index(r.sample_id), r.locus_index] == r.truth
    observed = data.observed.matrix
    assert np.all((observed != truth) | (observed == MISSING))


# ---------------------------------------------------------------- scoring

def _corpus(symbols, prefix="S"):
    arr = np.asarray(symbols, dtype=np.int8)
    return [MultilocusGenotype(f"{prefix}{j}", arr[j]) for j in range(arr.shape[0])]


def test_identical_corpora_score_zero_discordance():
    rng = np.random.default_rng(0)
    symbols = rng.integers(0, 3, size=(6, 40))
    report = evaluate(_corpus(symbols), _corpus(symbols))
    assert report.total == 6 * 40
    assert report.discordant == 0
    assert report.discordance_rate == 0.0
    assert int(report.confusion.sum()) == report.total
    assert np.array_equal(report.confusion, np.diag(np.diag(report.confusion)))


def test_single_flip_among_hundred_scores_one_percent():
    truth = np.zeros((1, 100), dtype=np.int8)
    calls = truth.copy()
    calls[0, 37] = 2
    report = evaluate(_corpus(calls), _corpus(truth))
    assert report.total == 100
    assert report.discordant == 1
    assert report.discordance_rate == pytest.approx(0.01)
    assert report.confusion[0, 2] == 1


def test_missing_calls_are_not_scored():
    truth = np.ones((2, 10), dtype=np.int8)
    calls = truth.copy()
    calls[0, :4] = MISSING
    report = evaluate(_corpus(calls), _corpus(truth))
    assert report.total == 16


def test_large_corpus_totals_add_up():
    # 2502 samples at 530 loci score 1,326,060 symbols.
    truth = np.zeros((2502, 530), dtype=np.int8)
    calls = truth.copy()
    flips = [(i, (7 * i) % 530) for i in range(0, 2502, 18)]
    for r, c in flips:
        calls[r, c] = 1
    report = evaluate(_corpus(calls), _corpus(truth))
    assert report.total == 1_326_060
    assert report.discordant == len(flips)


def test_locus_restriction_on_corpus_path():
    truth = np.zeros((1, 8), dtype=np.int8)
    calls = truth.copy()
    calls[0, 3] = 1
    calls[0, 6] = 2
    report = evaluate(_corpus(calls), _corpus(truth), loci=[3, 4])
    assert report.total == 2
    assert report.discordant == 1


def test_imputation_entries_score_at_their_own_loci():
    truth = [MultilocusGenotype("S0", np.array([0, 1, 2, 1], dtype=np.int8))]
    entries = (
        ImputationEntry("S0", 1, "L1", np.array([0.1, 0.8, 0.1]), 1, 0.8),
        ImputationEntry("S0", 2, "L2", np.array([0.5, 0.3, 0.2]), 0, 0.5),
    )
    result = ImputationResult.from_entries(entries=entries, windows=(), failures={},
                                           forward_locus_evals=0, backward_locus_evals=0)
    report = evaluate(result, truth)
    assert report.total == 2 and report.discordant == 1
    assert evaluate(result, truth, loci=[1]).discordant == 0
    assert report.details["kind"] == "imputation"


def test_alignment_mismatches_are_rejected():
    truth = _corpus(np.zeros((2, 5), dtype=np.int8))
    with pytest.raises(InputError):
        evaluate(_corpus(np.zeros((1, 5), dtype=np.int8), prefix="X"), truth)
    with pytest.raises(InputError):
        evaluate(_corpus(np.zeros((2, 6), dtype=np.int8)), truth)
    with pytest.raises(InputError):
        evaluate(truth, truth + truth)  # duplicated truth ids
    entry = ImputationEntry("S0", 99, "L99", np.array([1.0, 0, 0]), 0, 1.0)
    bad = ImputationResult.from_entries(entries=(entry,), windows=(), failures={},
                                        forward_locus_evals=0, backward_locus_evals=0)
    with pytest.raises(InputError):
        evaluate(bad, truth)


def _scored(calls, truth, **kwargs):
    """(evaluate's outcome, the per-symbol loop's outcome): the report's
    fields, or the message of the InputError raised."""
    outcomes = []
    for score in (evaluate, oracle.evaluate_per_symbol):
        try:
            r = score(calls, truth, **kwargs)
            outcomes.append((r.total, r.discordant, r.confusion.dtype,
                             r.confusion.tolist(), r.details))
        except InputError as exc:
            outcomes.append(str(exc))
    return outcomes


def test_evaluate_matches_the_per_symbol_loop_on_corpora():
    rng = np.random.default_rng(5)
    truth = rng.integers(0, 3, size=(7, 12)).astype(np.int8)
    calls = truth.copy()
    calls[rng.random(calls.shape) < 0.3] = 1
    calls[rng.random(calls.shape) < 0.2] = MISSING
    holes = truth.copy()
    holes[3, 5] = holes[5, 0] = MISSING
    calls[3, 5] = calls[5, 0] = 2
    cases = [(_corpus(calls), _corpus(truth), {}),
             (GenotypeCorpus.of(_corpus(calls)), _corpus(truth), {}),
             (_corpus(calls), GenotypeCorpus.of(_corpus(truth)), {"loci": [0, 3, 11]}),
             (_corpus(calls), _corpus(truth), {"loci": []}),
             (_corpus(calls[:0]), _corpus(truth), {}),
             # truth missing at a called symbol, before and after other faults
             (_corpus(calls), _corpus(holes), {}),
             (_corpus(calls), _corpus(holes), {"loci": [1, 2, 6]}),
             (_corpus(calls), _corpus(holes), {"loci": [0, 5]}),
             (_corpus(calls) + _corpus(calls[:1], prefix="X"), _corpus(holes), {}),
             (_corpus(calls[:3]) + _corpus(calls[:1], prefix="X"), _corpus(holes), {}),
             (_corpus(calls[:4]) + [MultilocusGenotype("S4", calls[4, :9])],
              _corpus(holes), {}),
             (_corpus(calls), _corpus(truth) + _corpus(truth[:1]), {})]
    for calls_, truth_, kwargs in cases:
        new, old = _scored(calls_, truth_, **kwargs)
        assert new == old, (kwargs, old)
    assert isinstance(_scored(*cases[5][:2])[0], str)  # the error cases raise
    assert _scored(*cases[8][:2])[0] == "truth is missing at 'S3' locus 5"


def test_evaluate_matches_the_per_entry_loop_on_imputations():
    truth = _corpus(np.array([[0, 1, 2, 1, 0], [2, 2, MISSING, 0, 1]]))

    def result(*rows):
        entries = tuple(ImputationEntry(sid, locus, f"L{locus}", (0.2, 0.3, 0.5),
                                        call, 0.5) for sid, locus, call in rows)
        return ImputationResult.from_entries(entries=entries, windows=(), failures=(),
                                             forward_locus_evals=0, backward_locus_evals=0)

    good = [("S0", j, (j * 2) % 3) for j in range(5)] + [("S1", 0, 2), ("S1", 4, 0)]
    for rows, kwargs in ((good, {}), (good, {"loci": [0, 4]}), ((), {}),
                         (good + [("S1", 2, 1)], {}),  # truth missing
                         (good + [("S1", 2, 1)], {"loci": [0, 1]}),
                         (good + [("S9", 1, 1), ("S0", 9, 1)], {}),
                         (good + [("S0", 9, 1), ("S9", 1, 1)], {}),
                         (good + [("S0", -1, 1)], {}),
                         (good + [("S0", 3, 3), ("S1", 2, 1)], {}),
                         (good + [("S0", 3, 2.5)], {}),
                         (good + [("S0", 3, "1")], {"loci": [3]}),
                         (good + [("S\u00d1", 1, 1)], {})):
        calls = result(*rows)
        # the sample codes as from_entries gives them, then recoded
        for calls in (calls, dataclasses.replace(calls, sample_id=recoded(calls.sample_id))):
            new, old = _scored(calls, truth, **kwargs)
            assert new == old, (rows, kwargs, old)


# ------------------------------------------------------------------ sweep

def small_sim(**overrides):
    settings = dict(founder_count=3, loci=24, sample_count=5, panel_size=20,
                    switch_rate=0.05, mask_fraction=0.125, seed=4)
    settings.update(overrides)
    return simulate(SimConfig(**settings))


def test_sweep_covers_the_full_grid_in_order():
    data = small_sim()
    rows = sweep(data, founder_counts=(2, 3), panel_sizes=(10, 20), flanks=(4,))
    assert [(r.founders, r.panel_size) for r in rows] == \
        [(2, 10), (2, 20), (3, 10), (3, 20)]
    for r in rows:
        assert not r.failed, r.message
        assert r.total > 0
        assert r.error_rate == pytest.approx(r.discordant / r.total)
        assert r.seconds > 0


def test_sweep_isolates_failing_cells():
    data = small_sim()
    rows = sweep(data, founder_counts=(0, 3), panel_sizes=(20,), flanks=(4,))
    assert rows[0].failed and "founders" in rows[0].message
    assert not rows[1].failed


def test_sweep_rejects_oversized_panels():
    data = small_sim()
    with pytest.raises(InputError):
        sweep(data, founder_counts=(3,), panel_sizes=(21,), flanks=(4,))


# ------------------------------------------------------------- benchmarks

def test_fit_exponent_recovers_exact_power_law():
    values = [10, 20, 40, 80]
    assert fit_exponent(values, [3e-6 * v**2 for v in values]) == pytest.approx(2.0)
    assert fit_exponent(values, [5e-4 * v for v in values]) == pytest.approx(1.0)
    for values in ([10], [10, 10]):
        with pytest.raises(InputError):
            fit_exponent(values, [0.1] * len(values))


def test_bench_scaling_reports_all_axes():
    report = founderhmm.bench_scaling(
        loci_grid=(16, 32), loci_samples=4, loci_founders=3,
        sample_grid=(4, 8), sample_loci=16, sample_founders=3,
        founder_grid=(2, 3), founder_loci=16, founder_samples=4,
        repeats=1, seed=0)
    assert {r.axis for r in report.rows} == {"loci", "samples", "founders"}
    assert len(report.rows) == 6
    assert set(report.exponents) == {"loci", "samples", "founders"}
    for axis in ("loci", "samples"):
        (v0, _), (v1, _) = report.series(axis)
        assert v1 == 2 * v0
    evals = [r.locus_evals for r in report.rows if r.axis == "loci"]
    assert evals[1] > evals[0] > 0
    assert all(np.isfinite(v) for v in report.exponents.values())
