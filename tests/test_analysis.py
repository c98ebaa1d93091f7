"""Analysis flows: error screening, correction, recovery, imputation
windows, phasing, and the end-to-end pipeline."""
import dataclasses

import numpy as np
import pytest

import founderhmm.analysis as analysis
import founderhmm.inference as inference
import founderhmm.training as training
import oracle
from conftest import random_corpus, random_genotype, random_model, recoded
from founderhmm import (MISSING, FounderHMM, GenotypeCorpus, HaplotypePanel,
                        HaplotypeSequence, IdColumn, ImputationResult, InputError,
                        LocusMap, MultilocusGenotype, SimConfig, TrainConfig,
                        WindowSpec, ZeroProbabilityError, bootstrap_config,
                        correct_errors, detect_errors, evaluate,
                        impute_untyped, phase_corpus, phase_decode,
                        phase_panel, posterior_scan, recover_missing,
                        run_pipeline, simulate, substitute, window_spans)
from founderhmm.inference import BatchStats, batched_posteriors


def with_dead_loci(rng, model, count):
    """``model`` with every emission at ``count`` random loci set to 0, so
    a 1 or 2 observed there has probability zero."""
    emissions = model.emissions.copy()
    emissions[rng.integers(0, model.loci, size=count)] = 0.0
    return FounderHMM(initial=model.initial, transitions=model.transitions,
                      emissions=emissions)


def with_ties(model):
    """``model`` with uniform start and transitions and founder 1 a copy of
    founder 0, so that max-product steps meet exact ties."""
    k = model.founders
    emissions = model.emissions.copy()
    emissions[:, 1:2] = emissions[:, :1]
    return FounderHMM(initial=np.full(k, 1.0 / k),
                      transitions=np.full(model.transitions.shape, 1.0 / k),
                      emissions=emissions)


def in_tenths(rng, founders, loci):
    """A model whose parameters are all whole tenths, so that products of
    candidates meet exact ties: start and transition rows split ten tenths
    among the founders, emissions are 0.1 to 0.9."""
    tenths = lambda size: rng.multinomial(10, np.full(founders, 1.0 / founders), size=size) / 10
    return FounderHMM(initial=tenths(None), transitions=tenths((max(loci - 1, 0), founders)),
                      emissions=rng.integers(1, 10, size=(loci, founders)) / 10)


def trained_sim(seed=0, **overrides):
    settings = dict(founder_count=4, loci=40, sample_count=15, panel_size=60,
                    switch_rate=0.03, seed=seed)
    settings.update(overrides)
    return simulate(SimConfig(**settings))


# ------------------------------------------------------------- detection

def test_ratios_are_at_least_one():
    rng = np.random.default_rng(0)
    model = random_model(rng, 3, 12)
    corpus = random_corpus(rng, 10, 12, missing_rate=0.2)
    report = detect_errors(model, corpus, threshold=2.0)
    assert report.entries  # missing symbols are skipped, typed ones are not
    for e in report.entries:
        assert e.ratio >= 1.0
        assert e.flagged == (e.ratio > 2.0)
        assert 0 <= e.suggested <= 2


def test_id_column_reads_as_the_list_of_its_names():
    """An id column is its codes into its names, and reads as the list of
    its entries' names does, empty or not, whatever the order, repeats
    and unused entries of its names."""
    ids = ["b", "a", "\u00d1", "b", "b", "a"]
    column = IdColumn.of(ids)
    assert column.names == ("b", "a", "\u00d1") and column.codes.tolist() == [0, 1, 2, 0, 0, 1]
    for col in (column, recoded(column), recoded(recoded(column))):
        assert col == ids and ids == col and col == column and not col != ids
        assert col != ids[:-1] and col != ids[::-1] and col != tuple(ids)
        assert len(col) == 6 and list(col) == col.tolist() == ids
        assert all(type(name) is str for name in col.tolist())
        assert [col[i] for i in range(-6, 6)] == ids + ids
        assert col[1:4] == ids[1:4] and col[::-2] == ids[::-2]
        assert col[np.array([5, 0])] == ["a", "b"] and isinstance(col[1:4], IdColumn)
        with pytest.raises(IndexError):
            col[6]
        with pytest.raises(ValueError):  # read-only codes
            col.codes[0] = 1
        with pytest.raises(AttributeError):
            col.names = ()
        with pytest.raises(TypeError):
            hash(col)
        assert repr(col) == repr(IdColumn(col.codes.copy(), col.names))
    empty = IdColumn.of([])
    assert empty == [] and empty.tolist() == [] and list(empty) == [] and not empty
    assert len(empty) == 0 and empty[0:] == [] and IdColumn((), ("x",)) == []
    assert empty != ["x"] and empty.codes.dtype == np.intp
    assert IdColumn([0, 1], "ab") == IdColumn([1, 0], "ba") != IdColumn([0, 1], "ac")
    for codes, names in (([0, 2], ("a", "b")), ([-1], ("a",)), ([0], ()), ([[0]], ("a",))):
        with pytest.raises(ValueError):
            IdColumn(codes, names)


def test_entries_cover_exactly_the_typed_symbols():
    rng = np.random.default_rng(1)
    model = random_model(rng, 2, 8)
    corpus = random_corpus(rng, 6, 8, missing_rate=0.4)
    report = detect_errors(model, corpus, threshold=10.0)
    want = [(g.sample_id, i) for g in corpus
            for i in range(8) if int(g.symbols[i]) != MISSING]
    assert [(e.sample_id, e.locus_index) for e in report.entries] == want


def test_injected_error_is_flagged_with_truth_suggested():
    # Build a corpus straight from the generative story, train a fresh
    # model, and corrupt one symbol the model is confident about —
    # detection must point at it and suggest the truth back.
    import founderhmm
    data = trained_sim(seed=3)
    model, _ = founderhmm.train_founder_hmm(
        data.reference, TrainConfig(founders=4, max_iterations=60, seed=1))
    victim = data.truth_genotypes[0]
    table = np.asarray(founderhmm.genotype_posteriors(model, victim).probs)
    locus = truth_symbol = wrong = None
    for i in range(len(victim)):
        t = int(victim.symbols[i])
        w = int(np.argmin(table[i]))
        if w != t and table[i, t] > 0.999 and table[i, w] < 1e-4:
            locus, truth_symbol, wrong = i, t, w
            break
    assert locus is not None, "simulation produced no confidently-typed locus"
    corrupted = substitute(victim, locus, wrong)
    report = detect_errors(model, [corrupted], threshold=1e3)
    flagged = report.flagged()
    assert any(e.locus_index == locus for e in flagged)
    hit = next(e for e in flagged if e.locus_index == locus)
    assert hit.suggested == truth_symbol
    assert hit.observed == wrong


def test_impossible_symbol_gets_infinite_ratio_only_at_culprit():
    model = FounderHMM(initial=np.array([1.0]),
                       transitions=np.ones((3, 1, 1)),
                       emissions=np.array([[0.5], [0.0], [0.5], [0.5]]))
    g = MultilocusGenotype("s", np.array([1, 2, 0, 1], dtype=np.int8))
    report = detect_errors(model, [g], threshold=1e3)
    by_locus = {e.locus_index: e for e in report.entries}
    assert by_locus[1].ratio == np.inf and by_locus[1].flagged
    assert by_locus[1].suggested in (0, 1)
    # the genotype is globally impossible, so nowhere else can a single
    # substitution change anything: those ratios tie at 1
    for i in (0, 2, 3):
        assert by_locus[i].ratio == 1.0
        assert not by_locus[i].flagged
    assert report.failures == {"s": 0}


def test_detect_entries_match_the_per_symbol_loop():
    rng = np.random.default_rng(23)
    ratios = set()
    for trial in range(12):
        k, n = int(rng.integers(1, 6)), int(rng.integers(1, 31))
        model = with_dead_loci(rng, random_model(rng, k, n), trial % 3)
        corpus = random_corpus(rng, int(rng.integers(1, 9)), n,
                               missing_rate=0.2)
        threshold = float(rng.choice([1.5, 10.0, 1e3]))
        report = detect_errors(model, corpus, threshold)
        want = [(g.sample_id, *entry) for g in corpus
                for entry in oracle.detect_entries_per_symbol(
                    posterior_scan(model, g), g.symbols, threshold)]
        got = [(e.sample_id, e.locus_index, e.observed, e.ratio, e.flagged,
                e.suggested) for e in report.entries]
        assert got == want
        for e in report.entries:
            assert e.locus_id == str(e.locus_index)
            assert type(e.ratio) is float and type(e.flagged) is bool
            assert all(type(v) is int
                       for v in (e.locus_index, e.observed, e.suggested))
        ratios.update(e.ratio for e in report.entries)
    assert np.inf in ratios  # some observed symbols are impossible


TIED = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1], [2, 1, 2], [1, 2, 2], [2, 2, 1],
                 [0, 0, 1], [1, 1, 1], [0, 2, 1]]) / 4


def tied_triples(real):
    """``batched_posteriors`` with every triple replaced by one of ``TIED``,
    fixed by the genotype and the locus: most hold a tie, and a quarter of
    the genotypes hold only zeros."""
    def batch(model, corpus):
        result = real(model, corpus)
        rows = np.zeros(result.triples.shape[:2], dtype=np.int64)
        rows[result.row_of] = GenotypeCorpus.of(corpus).matrix
        loci = np.arange(rows.shape[1])
        key = (rows * (loci % 5 + 1)).sum(axis=1) % 4
        tied = TIED[(key[:, None] * (loci + 1) + 2 * loci) % len(TIED)]
        return dataclasses.replace(result, triples=np.where(key[:, None, None] > 0, tied, 0.0))
    return batch


def test_detect_and_recover_match_the_oracles_on_tied_and_zero_triples(monkeypatch):
    """Substitution weights are read as three columns: maxima, first
    maxima and sums must be those of the per-symbol loop and of the full
    scan where symbols tie and where all three weights are zero, from the
    engine (a dead genotype) and from triples set to whole quarters."""
    rng = np.random.default_rng(24)
    for tied in (False, True):
        if tied:
            fake = tied_triples(batched_posteriors)
            monkeypatch.setattr(analysis, "batched_posteriors", fake)
            monkeypatch.setattr(oracle, "batched_posteriors", fake)
        for trial in range(10):
            k, n = int(rng.integers(1, 5)), int(rng.integers(1, 16))
            model = with_dead_loci(rng, random_model(rng, k, n), trial % 2)
            corpus = random_corpus(rng, int(rng.integers(1, 12)), n, missing_rate=0.3)
            batch = analysis.batched_posteriors(model, corpus)
            report = detect_errors(model, corpus, 1.5)
            want = [(g.sample_id, *entry) for g, row in zip(corpus, batch.row_of)
                    for entry in oracle.detect_entries_per_symbol(
                        dataclasses.replace(posterior_scan(model, g), triples=batch.triples[row]),
                        g.symbols, 1.5)]
            assert [(e.sample_id, e.locus_index, e.observed, e.ratio, e.flagged,
                     e.suggested) for e in report.entries] == want
            result = recover_missing(model, corpus)
            full = oracle.recover_missing_full_scan(model, corpus)
            assert result.corpus == full.corpus
            assert result.fills == full.fills


def test_detect_scores_each_distinct_row_once_bit_for_bit(monkeypatch):
    """Detection scores each cell of the (distinct row, locus) grid once
    and gathers every entry's: on corpora of a few rows, MISSING cells
    among them, repeated in shuffled order, each entry's ratio,
    suggestion and observed symbol are the per-symbol loop's bit for bit,
    on the engine's triples and on tied and all-zero ones."""
    rng = np.random.default_rng(25)
    for tied in (False, True):
        if tied:
            monkeypatch.setattr(analysis, "batched_posteriors", tied_triples(batched_posteriors))
        for trial in range(12):
            k, n = int(rng.integers(1, 5)), int(rng.integers(1, 20))
            model = with_dead_loci(rng, random_model(rng, k, n), trial % 3)
            pool = random_corpus(rng, int(rng.integers(1, 5)), n, missing_rate=0.3)
            corpus = [MultilocusGenotype(f"d{j}", pool[p].symbols) for j, p in
                      enumerate(rng.integers(0, len(pool), size=int(rng.integers(2, 16))))]
            batch = analysis.batched_posteriors(model, corpus)
            report = detect_errors(model, corpus, 1.5)
            want = [(g.sample_id, *entry) for g, row in zip(corpus, batch.row_of)
                    for entry in oracle.detect_entries_per_symbol(
                        dataclasses.replace(posterior_scan(model, g), triples=batch.triples[row]),
                        g.symbols, 1.5)]
            sample_id, locus, observed, ratio, flagged, suggested = zip(*want)
            assert report.sample_id.tolist() == list(sample_id)
            assert report.locus_index.tolist() == list(locus)
            assert report.ratio.tobytes() == np.array(ratio).tobytes()
            for column, values in ((report.observed, observed), (report.flags, flagged),
                                   (report.suggested, suggested)):
                assert column.tolist() == list(values)
            assert report.failures == batch.failures


def test_threshold_must_be_positive():
    rng = np.random.default_rng(2)
    model = random_model(rng, 2, 4)
    for bad in (0.0, float("nan")):
        with pytest.raises(InputError):
            detect_errors(model, random_corpus(rng, 2, 4), threshold=bad)


def test_detect_ratio_matches_oracle():
    rng = np.random.default_rng(3)
    for _ in range(5):
        k, n = int(rng.integers(1, 4)), int(rng.integers(2, 6))
        model = random_model(rng, k, n)
        corpus = [random_genotype(rng, n, sample_id="z")]
        report = detect_errors(model, corpus, threshold=2.0)
        triples, pg = oracle.substituted_probabilities(model, corpus[0].symbols)
        for e in report.entries:
            want = triples[e.locus_index].max() / triples[e.locus_index,
                                                          e.observed]
            assert e.ratio == pytest.approx(want, rel=1e-9)


# ------------------------------------------------------------- correction

def test_correct_applies_flagged_suggestions_only():
    rng = np.random.default_rng(4)
    model = random_model(rng, 3, 10)
    corpus = random_corpus(rng, 8, 10)
    report = detect_errors(model, corpus, threshold=1.5)
    corrected, changes = correct_errors(corpus, report)
    assert changes == sum(1 for e in report.entries
                          if e.flagged and e.suggested != e.observed)
    by_id = {g.sample_id: g for g in corrected}
    for e in report.entries:
        have = int(by_id[e.sample_id].symbols[e.locus_index])
        assert have == (e.suggested if e.flagged else e.observed)
    for given in (report, dataclasses.replace(report, sample_id=recoded(report.sample_id))):
        again, count = correct_errors(corpus, given)
        assert (again, count) == oracle.correct_errors_per_entry(corpus, given)
        assert again == corrected and count == changes


def test_correct_rejects_mismatched_report():
    rng = np.random.default_rng(5)
    model = random_model(rng, 2, 6)
    corpus = random_corpus(rng, 3, 6)
    report = detect_errors(model, corpus, threshold=1e6)
    other = random_corpus(np.random.default_rng(99), 3, 6)
    if any(other[0].symbols[e.locus_index] != e.observed
           for e in report.entries if e.sample_id == "s0"):
        with pytest.raises(InputError):
            correct_errors(other, report)


def test_corrected_corpus_beats_corrupted_on_easy_instance():
    """Flag-and-correct must strictly reduce discordance against ground
    truth when errors are rare and the model is well trained."""
    # Low switch rate and a generous panel keep the fitted emissions close
    # to the generating founders, so flags are dominated by real errors.
    data = trained_sim(seed=6, loci=60, sample_count=25, panel_size=120,
                       switch_rate=0.01, error_rate=0.015)
    import founderhmm
    model, _ = founderhmm.train_founder_hmm(
        data.reference, TrainConfig(founders=4, max_iterations=60, seed=0))
    observed = data.observed
    truth = data.typed_truth()
    before = evaluate(observed, truth)
    report = detect_errors(model, observed, threshold=1e3)
    corrected, changes = correct_errors(observed, report)
    after = evaluate(corrected, truth)
    assert before.discordant > 0
    assert after.discordant < before.discordant


# --------------------------------------------------------------- recovery

def test_recover_fills_every_missing_symbol():
    rng = np.random.default_rng(7)
    model = random_model(rng, 3, 14)
    corpus = random_corpus(rng, 9, 14, missing_rate=0.3)
    result = recover_missing(model, corpus)
    n_missing = sum(int(g.missing_mask.sum()) for g in corpus)
    assert len(result.fills) == n_missing
    assert not result.failures
    for g in result.corpus:
        assert not g.missing_mask.any()
    for f in result.fills:
        assert 1.0 / 3.0 - 1e-12 <= f.confidence <= 1.0


def test_recover_is_a_fixpoint_on_complete_corpora():
    rng = np.random.default_rng(8)
    model = random_model(rng, 3, 10)
    corpus = random_corpus(rng, 5, 10)
    result = recover_missing(model, corpus)
    assert result.fills == ()
    assert result.corpus == corpus  # same ids and symbols


def test_recover_matches_posterior_argmax():
    rng = np.random.default_rng(9)
    model = random_model(rng, 4, 12)
    corpus = random_corpus(rng, 6, 12, missing_rate=0.25)
    from founderhmm import genotype_posteriors
    result = recover_missing(model, corpus)
    filled = {(f.sample_id, f.locus_index): f for f in result.fills}
    for g in corpus:
        table = np.asarray(genotype_posteriors(model, g).probs)
        for i in np.flatnonzero(g.missing_mask):
            f = filled[(g.sample_id, int(i))]
            assert f.symbol == int(np.argmax(table[i]))
            assert f.confidence == pytest.approx(table[i].max(), rel=1e-12)


@pytest.mark.parametrize("flow", [detect_errors, recover_missing])
def test_flows_accept_a_one_shot_iterator(flow):
    rng = np.random.default_rng(10)
    model = random_model(rng, 3, 8)
    corpus = random_corpus(rng, 5, 8, missing_rate=0.2)
    # the results hold arrays, so compare their exact reprs
    assert repr(flow(model, iter(corpus))) == repr(flow(model, corpus))


def test_recover_skips_impossible_samples():
    model = FounderHMM(initial=np.array([1.0]),
                       transitions=np.ones((2, 1, 1)),
                       emissions=np.array([[0.5], [0.0], [0.5]]))
    bad = MultilocusGenotype("dead", np.array([MISSING, 2, 0], dtype=np.int8))
    ok = MultilocusGenotype("ok", np.array([MISSING, 0, 1], dtype=np.int8))
    result = recover_missing(model, [bad, ok])
    assert "dead" in result.failures
    assert result.corpus[0].sample_id == "dead"  # untouched
    assert np.array_equal(result.corpus[0].symbols, bad.symbols)
    assert not result.corpus[1].missing_mask.any()


def _gapped_and_complete(rng, samples, loci):
    """A corpus of ``samples`` genotypes, about half with MISSING symbols,
    the rest complete, with duplicates of both kinds."""
    corpus = random_corpus(rng, samples, loci, missing_rate=0.3)
    complete = rng.random(samples) < 0.5
    symbols = np.array([g.symbols for g in corpus])
    symbols[complete] = np.abs(symbols[complete])  # MISSING -> 1
    symbols[rng.random(samples) < 0.2] = symbols[0]
    return [MultilocusGenotype(g.sample_id, row) for g, row in zip(corpus, symbols)]


def test_recover_matches_the_full_scan_oracle():
    # complete and gapped samples, live and dead, with and without a gap
    # at a dead locus
    rng = np.random.default_rng(41)
    for trial in range(12):
        loci = int(rng.integers(1, 16))
        model = random_model(rng, int(rng.integers(1, 4)), loci)
        if trial % 2:
            model = with_dead_loci(rng, model, int(rng.integers(1, 3)))
        corpus = _gapped_and_complete(rng, int(rng.integers(1, 90)), loci)
        result = recover_missing(model, corpus)
        want = oracle.recover_missing_full_scan(model, corpus)
        assert result.corpus == want.corpus
        assert result.fills == want.fills
        gapped = {g.sample_id for g in corpus if g.missing_mask.any()}
        assert result.failures == {s: at for s, at in want.failures.items()
                                   if s in gapped}
        assert result.stats.samples == len(gapped)
        assert set(result.failures) == gapped - {f.sample_id for f in result.fills}


def test_recover_names_only_gapped_impossible_samples():
    model = FounderHMM(initial=np.array([1.0]),
                       transitions=np.ones((2, 1, 1)),
                       emissions=np.array([[0.5], [0.0], [0.5]]))
    corpus = [MultilocusGenotype("complete", np.array([0, 2, 0], dtype=np.int8)),
              MultilocusGenotype("gapped", np.array([MISSING, 2, 0], dtype=np.int8)),
              MultilocusGenotype("ok", np.array([MISSING, 0, 1], dtype=np.int8))]
    result = recover_missing(model, corpus)
    assert result.failures == {"gapped": 0}
    assert set(oracle.recover_missing_full_scan(model, corpus).failures) == {
        "complete", "gapped"}
    assert [f.sample_id for f in result.fills] == ["ok"]
    assert (result.stats.samples, result.stats.distinct_genotypes) == (2, 2)


def test_recover_runs_no_engine_without_gaps(monkeypatch):
    def no_scan(*args):
        raise AssertionError("the engine ran on a corpus without gaps")
    monkeypatch.setattr(analysis, "batched_posteriors", no_scan)
    monkeypatch.setattr(inference, "_scan_rows", no_scan)
    rng = np.random.default_rng(42)
    model = random_model(rng, 3, 10)
    corpus = random_corpus(rng, 5, 10)
    result = recover_missing(model, corpus)
    assert result.corpus == corpus
    assert (result.fills, result.failures) == ((), {})
    assert result.stats == BatchStats(0, 10, 0, 0, 0)


def test_recover_errors_do_not_depend_on_gaps():
    rng = np.random.default_rng(43)
    model = random_model(rng, 2, 4)
    complete = random_corpus(rng, 3, 5)
    gapped = random_corpus(rng, 3, 5, missing_rate=0.5)
    for corpus in ([], complete, gapped):
        with pytest.raises(InputError) as want:
            oracle.recover_missing_full_scan(model, corpus)
        with pytest.raises(InputError) as got:
            recover_missing(model, corpus)
        assert str(got.value) == str(want.value)
    assert str(got.value) == "corpus has 5 loci but the model has 4"


# ---------------------------------------------------------------- windows

def make_map(n, untyped):
    typed = np.ones(n, dtype=bool)
    typed[list(untyped)] = False
    return LocusMap(locus_ids=tuple(f"L{i}" for i in range(n)),
                    positions=np.arange(1, n + 1), typed=typed)


def test_window_spans_truncate_at_map_edges():
    lm = make_map(10, [0, 9])
    spans = window_spans(lm, WindowSpec(flank=3))
    # locus 0 has no left flank: its window is itself plus three typed
    # loci on the right; symmetrically for the last locus
    assert spans == [((0, 3), (0,)), ((6, 9), (9,))]


def test_window_spans_group_adjacent_targets():
    lm = make_map(12, [5, 6])
    spans = window_spans(lm, WindowSpec(flank=2))
    # both untyped loci see typed flanks {3,4} and {7,8}: one shared window
    assert spans == [((3, 8), (5, 6))]


def test_window_spans_interleave_untyped_neighbors():
    lm = make_map(20, [8, 10])
    spans = window_spans(lm, WindowSpec(flank=2))
    # 8 and 10 are separated by typed locus 9 but their flank spans overlap
    # differently: each window counts typed loci, skipping the other target
    assert spans == [((6, 11), (8,)), ((7, 12), (10,))]


def test_window_spec_validation():
    with pytest.raises(InputError):
        WindowSpec(flank=0)


def test_no_untyped_loci_means_no_windows():
    lm = make_map(6, [])
    assert window_spans(lm, WindowSpec(flank=2)) == []


# -------------------------------------------------------------- imputation

def masked_instance(seed, **overrides):
    settings = dict(founder_count=4, loci=50, sample_count=10, panel_size=60,
                    switch_rate=0.03, mask_fraction=0.12, seed=seed)
    settings.update(overrides)
    return simulate(SimConfig(**settings))


def test_impute_covers_every_masked_cell():
    data = masked_instance(10)
    cfg = TrainConfig(founders=4, seed=0)
    result = impute_untyped(data.reference, data.observed, data.locus_map,
                            cfg, window=WindowSpec(flank=4))
    want = {(g.sample_id, u) for g in data.observed
            for u in data.locus_map.untyped_indices()}
    have = {(e.sample_id, e.locus_index) for e in result.entries}
    assert have == want
    for e in result.entries:
        assert sum(e.probs) == pytest.approx(1.0, abs=1e-9)
        assert e.call == int(np.argmax(e.probs))
        assert e.confidence == pytest.approx(max(e.probs))
        assert e.locus_id == data.locus_map.locus_ids[e.locus_index]


def test_impute_beats_chance_on_easy_instance():
    data = masked_instance(11, switch_rate=0.01)
    cfg = TrainConfig(founders=4, seed=0)
    result = impute_untyped(data.reference, data.observed, data.locus_map,
                            cfg, window=WindowSpec(flank=5))
    report = evaluate(result, data.truth_genotypes)
    assert report.total == len(result.entries)
    assert report.discordance_rate < 0.25


def test_impute_reports_every_window_model():
    data = masked_instance(13, loci=30, mask_fraction=0.1)
    cfg = TrainConfig(founders=2, seed=0)
    result = impute_untyped(data.reference, data.observed, data.locus_map, cfg)
    assert result.windows
    for w in result.windows:
        assert isinstance(w.model, FounderHMM)
        assert w.model.loci == w.hi - w.lo + 1


def test_impute_scores_each_window_by_one_batched_posteriors_call(monkeypatch):
    """Every window's corpus goes through the batch entry once, so whatever
    wraps or counts ``batched_posteriors`` sees every window's scan."""
    calls = []
    real = analysis.batched_posteriors

    def counted(model, corpus):
        calls.append((model, corpus, real(model, corpus)))
        return calls[-1][2]
    monkeypatch.setattr(analysis, "batched_posteriors", counted)
    data = masked_instance(13, loci=30, mask_fraction=0.1)
    result = impute_untyped(data.reference, data.observed, data.locus_map,
                            TrainConfig(founders=2, seed=0), window=WindowSpec(flank=3))
    assert len(result.windows) > 1 and len(calls) == len(result.windows)
    ids = tuple(g.sample_id for g in data.observed)
    for (model, corpus, _), w in zip(calls, result.windows):
        assert model is w.model
        assert corpus.ids == ids and corpus.loci == w.hi - w.lo + 1
    assert result.forward_locus_evals == sum(b.stats.forward_locus_evals for *_, b in calls)
    assert result.backward_locus_evals == sum(b.stats.backward_locus_evals for *_, b in calls)


def test_impute_validates_alignment():
    data = masked_instance(14)
    cfg = TrainConfig(founders=2, seed=0)
    short_ref = [HaplotypeSequence("r", np.zeros(10, dtype=np.int8))]
    with pytest.raises(InputError):
        impute_untyped(short_ref, data.observed, data.locus_map, cfg)
    bad_corpus = [MultilocusGenotype("s", np.zeros(3, dtype=np.int8))]
    with pytest.raises(InputError):
        impute_untyped(data.reference, bad_corpus, data.locus_map, cfg)


def test_impute_checks_the_corpus_before_fitting(monkeypatch):
    data = masked_instance(14)
    twice = list(data.observed) + [MultilocusGenotype(data.observed[0].sample_id,
                                                      data.observed[1].symbols)]

    def no_fit(panels, config):
        raise AssertionError("windows fitted before the corpus was checked")
    monkeypatch.setattr(analysis, "train_founder_hmms", no_fit)
    with pytest.raises(InputError, match="sample ids must be unique"):
        impute_untyped(data.reference, twice, data.locus_map,
                       TrainConfig(founders=2, seed=0))
    with pytest.raises(InputError, match="corpus must be non-empty"):
        impute_untyped(data.reference, [], data.locus_map,
                       TrainConfig(founders=2, seed=0))


def test_impute_does_not_depend_on_em_stacking(monkeypatch):
    data = masked_instance(15, loci=60, mask_fraction=0.2)
    cfg = TrainConfig(founders=3, seed=2)
    runs = []
    for cap in (0, 60_000, 1 << 40):  # one window, a few, all per stack
        monkeypatch.setattr(training, "_EM_STACK_BYTES", cap)
        runs.append(impute_untyped(data.reference, data.observed,
                                   data.locus_map, cfg, window=WindowSpec(flank=3)))
    first = runs[0]
    assert len(first.windows) > 7
    for other in runs[1:]:
        assert other.entries == first.entries
        assert other.failures == first.failures
        for a, b in zip(first.windows, other.windows, strict=True):
            assert ((a.lo, a.hi, a.targets, a.train_iterations, a.converged)
                    == (b.lo, b.hi, b.targets, b.train_iterations, b.converged))
            for name in ("initial", "transitions", "emissions"):
                assert np.array_equal(getattr(a.model, name),
                                      getattr(b.model, name))


def test_impute_columns_match_the_per_entry_loop():
    """impute_untyped's columns give the entries, failures and windows of
    the per-entry loop, on seeded cases with duplicate genotypes and a
    sample that the windows over one locus cannot explain; from_entries of
    its entries gives its columns back bit for bit, -0.0 and 1e-300
    included."""
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n = 16
        typed = rng.random(n) < 0.6
        typed[:3], typed[-1] = (True, True, False), False  # locus 2's window holds 1
        reference = rng.integers(0, 2, size=(24, n)).astype(np.int8)
        reference[:, 1] = 0  # with no pseudocount, a minor allele there is impossible
        symbols = rng.integers(0, 3, size=(6, typed.sum())).astype(np.int8)
        symbols[rng.random(symbols.shape) < 0.1] = MISSING
        symbols = np.concatenate((symbols, symbols[:3]))  # duplicate genotypes
        symbols[:, 1] = 0
        symbols[2, 1] = 2
        panel = HaplotypePanel([f"H{j}" for j in range(len(reference))], reference)
        corpus = GenotypeCorpus([f"S{j}" for j in range(len(symbols))], symbols)
        locus_map = LocusMap(tuple(f"L{i}" for i in range(n)), np.arange(n) * 10, typed)
        cfg = TrainConfig(founders=2, seed=seed, pseudocount=0.0)
        args = (panel, corpus, locus_map, cfg)
        got = impute_untyped(*args, window=WindowSpec(flank=2))
        want = oracle.impute_untyped_per_entry(*args, window=WindowSpec(flank=2))
        assert repr(got.entries) == repr(want.entries)  # repr tells -0.0 from 0.0
        assert got.failures == want.failures
        assert {sample for sample, _ in got.failures} == {"S2"}
        assert len(got) == len(got.entries) == len(corpus) * (n - typed.sum()) - len(got.failures)
        assert ((got.forward_locus_evals, got.backward_locus_evals)
                == (want.forward_locus_evals, want.backward_locus_evals))
        for a, b in zip(got.windows, want.windows, strict=True):
            assert ((a.lo, a.hi, a.targets, a.train_iterations, a.converged)
                    == (b.lo, b.hi, b.targets, b.train_iterations, b.converged))
            for name in ("initial", "transitions", "emissions"):
                assert np.array_equal(getattr(a.model, name), getattr(b.model, name))
        probs = got.probs.copy()
        probs[0] = (-0.0, 1e-300, 1.0)
        edited = dataclasses.replace(got, probs=probs)
        again = ImputationResult.from_entries(edited.entries, edited.windows,
                                              edited.failures, 0, 0)
        for a, b in zip(edited.columns(), again.columns(), strict=True):
            if isinstance(a, IdColumn):
                assert type(b) is IdColumn and a == b
            else:
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def test_capped_counter_counts_windows_that_did_not_converge():
    data = masked_instance(16, loci=60, mask_fraction=0.2)
    res = run_pipeline("imp", data.reference, data.observed, data.locus_map,
                       TrainConfig(founders=3, seed=1, tolerance=1e-4),
                       window=WindowSpec(flank=3))
    windows = res.imputation.windows
    capped = sum(not w.converged for w in windows)
    assert 0 < capped < len(windows)
    assert res.stages[-1].counters["capped"] == capped
    for w in windows:
        assert w.converged == (w.train_iterations < 50)


# ----------------------------------------------------------------- phasing

def test_phase_log_joint_matches_oracle_maximum():
    rng = np.random.default_rng(15)
    for _ in range(12):
        k, n = int(rng.integers(1, 4)), int(rng.integers(1, 6))
        model = random_model(rng, k, n)
        g = random_genotype(rng, n, missing_rate=0.2)
        want, _, _ = oracle.best_pair(model, g.symbols)
        assert phase_decode(model, g).log_joint == pytest.approx(want, rel=1e-9)


def test_phase_output_is_ordered_and_consistent():
    rng = np.random.default_rng(16)
    model = random_model(rng, 4, 18)
    for j in range(6):
        g = random_genotype(rng, 18, sample_id=f"s{j}", missing_rate=0.1)
        res = phase_decode(model, g)
        assert res.first.id == f"s{j}.h1" and res.second.id == f"s{j}.h2"
        assert tuple(res.first.alleles) <= tuple(res.second.alleles)
        rebuilt = res.first.alleles + res.second.alleles
        typed = ~g.missing_mask
        assert np.array_equal(rebuilt[typed], g.symbols[typed])
        assert res.founder_paths.shape == (2, 18)


def test_phase_zero_probability_raises():
    model = FounderHMM(initial=np.array([1.0]),
                       transitions=np.ones((1, 1, 1)),
                       emissions=np.array([[0.0], [0.5]]))
    g = MultilocusGenotype("s", np.array([2, 1], dtype=np.int8))
    with pytest.raises(ZeroProbabilityError) as err:
        phase_decode(model, g)
    assert err.value.locus == 0


def expected_phasing(model, corpus):
    """Per-sample oracle decodes of ``corpus`` by sample id; a sample with
    zero probability maps to its ``ZeroProbabilityError``."""
    out = {}
    for g in corpus:
        try:
            out[g.sample_id] = oracle.phase_decode_per_sample(model, g.symbols)
        except ZeroProbabilityError as exc:
            out[g.sample_id] = exc
    return out


def tail_mutated_corpus(rng, loci, samples):
    """Copies of a few random base genotypes, each with a random tail
    redrawn, so that sorted distinct rows share long prefixes."""
    bases = random_corpus(rng, int(rng.integers(1, 4)), loci, missing_rate=0.2)
    corpus = []
    for j in range(samples):
        symbols = bases[int(rng.integers(len(bases)))].symbols.copy()
        start = int(rng.integers(0, loci))
        symbols[start:] = rng.choice([0, 1, 2, MISSING], size=loci - start)
        corpus.append(MultilocusGenotype(f"t{j}", symbols))
    return corpus


def pin_phase_chunk_rows(monkeypatch, rows, loci, k):
    """Set the engine's byte cap so that phasing decodes ``rows`` distinct
    genotypes per chunk: per row, the byte-sized back-pointers (K < 256),
    one locus' work arrays, the K candidate products with their byte mask
    and ranks, the peaks and the allele arrays."""
    row_bytes = (2 * (loci - 1) + 40) * k * k + 10 * k ** 3 + 72 * loci
    monkeypatch.setattr(inference, "_TILE_BYTES", rows * row_bytes)


@pytest.mark.parametrize("chunk_rows", [None, 1, 7, 64])
def test_phase_corpus_matches_per_sample_decode_bitwise(monkeypatch,
                                                        chunk_rows):
    rng = np.random.default_rng(22)
    for trial in range(40):
        k, n = int(rng.integers(1, 6)), int(rng.integers(1, 31))
        model = with_dead_loci(rng, random_model(rng, k, n),
                               int(trial % 6 == 5))
        if trial < 25:
            pool = random_corpus(rng, int(rng.integers(1, 6)), n,
                                 missing_rate=0.2)
            corpus = [MultilocusGenotype(f"s{j}", pool[int(i)].symbols)
                      for j, i in enumerate(rng.integers(0, len(pool), 12))]
        else:  # shared prefixes within chunks and across their borders
            corpus = tail_mutated_corpus(rng, n, 90)
            model = with_ties(model) if trial % 2 else model
        shuffled = [corpus[int(j)] for j in rng.permutation(len(corpus))]
        if chunk_rows is not None:
            pin_phase_chunk_rows(monkeypatch, chunk_rows, n, k)
        want = expected_phasing(model, corpus)
        for order in (corpus, shuffled):
            failed = [g.sample_id for g in order
                      if isinstance(want[g.sample_id], ZeroProbabilityError)]
            if failed:
                with pytest.raises(ZeroProbabilityError) as err:
                    phase_corpus(model, order)
                assert err.value.locus == want[failed[0]].locus
                assert f"sample {failed[0]!r} " in str(err.value)
                continue
            got = phase_corpus(model, order)
            assert len(got) == len(order)
            for g, res in zip(order, got):
                first, second, paths, log_joint = want[g.sample_id]
                assert res.first.id == f"{g.sample_id}.h1"
                assert np.array_equal(res.first.alleles, first)
                assert np.array_equal(res.second.alleles, second)
                assert np.array_equal(res.founder_paths, paths)
                assert res.log_joint == log_joint
                assert not res.founder_paths.flags.writeable
            one = phase_decode(model, order[0])
            assert np.array_equal(one.founder_paths, want[order[0].sample_id][2])
            assert one.log_joint == want[order[0].sample_id][3]


@pytest.mark.parametrize("k", range(1, 9))
def test_phase_corpus_matches_per_sample_decode_bitwise_to_eight_founders(monkeypatch, k):
    """The (K, K, rows) walk and its traceback at every K to 8: parameters
    in whole tenths give tied candidates, dead loci give dead rows, and
    every other corpus is decoded in chunks of one row."""
    rng = np.random.default_rng(40 + k)
    for trial in range(6):
        n = int(rng.integers(1, 25))
        model = in_tenths(rng, k, n) if trial % 2 else random_model(rng, k, n)
        model = with_dead_loci(rng, model, int(trial % 3 == 2))
        corpus = tail_mutated_corpus(rng, n, 24)
        if trial >= 3:  # the later trials, in chunks of one row
            pin_phase_chunk_rows(monkeypatch, 1, n, k)
        want = expected_phasing(model, corpus)
        failed = [g.sample_id for g in corpus
                  if isinstance(want[g.sample_id], ZeroProbabilityError)]
        if failed:
            with pytest.raises(ZeroProbabilityError) as err:
                phase_corpus(model, corpus)
            assert err.value.locus == want[failed[0]].locus
            continue
        for g, res in zip(corpus, phase_corpus(model, corpus)):
            first, second, paths, log_joint = want[g.sample_id]
            assert np.array_equal(res.first.alleles, first)
            assert np.array_equal(res.second.alleles, second)
            assert np.array_equal(res.founder_paths, paths)
            assert res.log_joint == log_joint


@pytest.mark.parametrize("chunk_rows", [None, 1, 7, 64])
def test_phase_walk_steps_each_row_past_its_shared_prefix(monkeypatch,
                                                          chunk_rows):
    """Sorted distinct rows that share long prefixes decode to the same
    arrays in chunks of any size as in one chunk, dead rows included:
    every row walks in full, from the prior."""
    rng = np.random.default_rng(23)
    for trial in range(12):
        k, n = int(rng.integers(1, 6)), int(rng.integers(1, 31))
        model = with_dead_loci(rng, random_model(rng, k, n), int(trial % 3 == 2))
        rows = inference._distinct_rows(np.stack(
            [g.symbols for g in tail_mutated_corpus(rng, n, 90)]))[0]
        whole = analysis._decode_distinct(model, rows)
        with monkeypatch.context() as patch:
            if chunk_rows is not None:
                pin_phase_chunk_rows(patch, chunk_rows, n, k)
            got = analysis._decode_distinct(model, rows)
        for a, b in zip(got, whole):
            assert np.array_equal(a, b)


@pytest.mark.filterwarnings("error")  # dead rows decode on without NaNs
def test_phase_corpus_reports_the_first_failing_sample_in_corpus_order():
    model = FounderHMM(initial=np.array([1.0]), transitions=np.ones((2, 1, 1)),
                       emissions=np.zeros((3, 1)))
    corpus = [MultilocusGenotype(sid, np.array(symbols, dtype=np.int8))
              for sid, symbols in (("a", [0, 0, 0]), ("b", [0, 0, 2]),
                                   ("c", [MISSING, 1, 0]))]
    with pytest.raises(ZeroProbabilityError) as err:
        phase_corpus(model, corpus)
    assert err.value.locus == 2 and "sample 'b' " in str(err.value)
    assert phase_corpus(model, []) == []
    assert phase_panel(model, []).matrix.shape == (0, 3)
    with pytest.raises(InputError):
        phase_corpus(model, [MultilocusGenotype("d", np.zeros(2, np.int8))])


def test_phase_is_deterministic():
    rng = np.random.default_rng(17)
    model = random_model(rng, 3, 10)
    g = random_genotype(rng, 10)
    a, b = phase_decode(model, g), phase_decode(model, g)
    assert np.array_equal(a.first.alleles, b.first.alleles)
    assert np.array_equal(a.founder_paths, b.founder_paths)


# ---------------------------------------------------------------- pipeline

def test_pipeline_mode_validation():
    data = masked_instance(18, loci=20, sample_count=4, panel_size=20)
    with pytest.raises(InputError):
        run_pipeline("edc", data.reference, data.observed, data.locus_map,
                     TrainConfig(founders=2, seed=0))
    with pytest.raises(InputError, match="corpus must be non-empty"):
        run_pipeline("edc-mdr-imp", data.reference, [], data.locus_map,
                     TrainConfig(founders=2, seed=0, max_iterations=3))


def test_impute_only_pipeline_equals_direct_imputation():
    data = masked_instance(19, loci=30, sample_count=6, panel_size=30)
    cfg = TrainConfig(founders=3, seed=0)
    res = run_pipeline("imp", data.reference, data.observed, data.locus_map,
                       cfg, window=WindowSpec(flank=3))
    direct = impute_untyped(data.reference, data.observed, data.locus_map,
                            cfg, window=WindowSpec(flank=3))
    assert res.imputation.entries == direct.entries
    assert res.error_report is None and res.recovery is None
    assert [s.name for s in res.stages] == ["impute-untyped"]


def test_repair_pipeline_is_noop_on_clean_corpus():
    # With nothing wrong in the input, the repair stages have nothing to do
    # and the full pipeline must impute exactly like the plain one.
    data = masked_instance(21, panel_size=100, switch_rate=0.01)
    cfg = TrainConfig(founders=4, max_iterations=40, seed=0)
    rep = run_pipeline("edc-mdr-imp", data.reference, data.observed,
                       data.locus_map, cfg, window=WindowSpec(flank=4),
                       threshold=1e3)
    direct = run_pipeline("imp", data.reference, data.observed,
                          data.locus_map, cfg, window=WindowSpec(flank=4))
    counters = {s.name: s.counters for s in rep.stages}
    assert counters["detect-correct"]["changed"] == 0
    assert counters["recover-missing"]["filled"] == 0
    assert rep.imputation.entries == direct.imputation.entries


def test_repair_pipeline_runs_all_stages_and_completes_corpus():
    data = masked_instance(20, loci=40, sample_count=8, panel_size=40,
                           error_rate=0.02, missing_rate=0.02)
    cfg = TrainConfig(founders=3, max_iterations=30, seed=0)
    res = run_pipeline("edc-mdr-imp", data.reference, data.observed,
                       data.locus_map, cfg, window=WindowSpec(flank=3),
                       threshold=1e3)
    assert [s.name for s in res.stages] == [
        "train-typed-model", "detect-correct", "recover-missing",
        "impute-untyped"]
    assert res.error_report is not None and res.recovery is not None
    for g in res.corpus_out:
        assert not g.missing_mask.any()
    assert all(s.seconds >= 0 for s in res.stages)


def test_repair_pipeline_warm_starts_the_pooled_fit(monkeypatch):
    data = masked_instance(20, loci=40, sample_count=8, panel_size=40,
                           error_rate=0.02, missing_rate=0.02)
    real, calls = analysis.train_founder_hmm, []

    def spy(panel, config, start=None):
        result = real(panel, config, start=start)
        calls.append((panel, config, start, result))
        return result

    monkeypatch.setattr(analysis, "train_founder_hmm", spy)
    # both fits are accelerated and count E-steps: the bootstrap fit
    # converges after 44 of its 60 and the pooled fit stops at its cap of
    # 10; with a cap of 10 both stop at it
    for cfg, capped in ((TrainConfig(founders=3, seed=0), 1),
                        (TrainConfig(founders=3, seed=0, max_iterations=10), 2)):
        calls.clear()
        res = run_pipeline("edc-mdr-imp", data.reference, data.observed,
                           data.locus_map, cfg, window=WindowSpec(flank=3),
                           threshold=1e3)
        (_, cfg0, start0, (model0, report0)), (pooled, cfg1, start1, fit1) = calls
        assert cfg0 == bootstrap_config(cfg) and start0 is None and start1 is model0
        # the pooled fit's first trace entry scores the bootstrap model
        want = sum(oracle.loglik_haplotype(model0, h) for h in pooled)
        assert fit1[1].loglik_trace[0] == pytest.approx(want, rel=1e-9)
        counters = res.stages[0].counters
        assert counters["pooled_iterations"] == fit1[1].iterations_run
        assert counters["pooled_iterations"] <= min(10, cfg.max_iterations)
        assert counters["bootstrap_iterations"] == report0.iterations_run
        assert counters["capped"] == capped == (
            (not report0.converged) + (not fit1[1].converged))
    assert counters["pooled_iterations"] == 10


def _pipeline_accounting(mask_fraction):
    data = masked_instance(22, error_rate=0.02, missing_rate=0.02,
                           mask_fraction=mask_fraction)
    cfg = TrainConfig(founders=3, max_iterations=25, seed=0)
    res = run_pipeline("edc-mdr-imp", data.reference, data.observed,
                       data.locus_map, cfg, window=WindowSpec(flank=4),
                       threshold=1e3)
    return data, res, {s.name: s.counters for s in res.stages}


def test_pipeline_work_counters_track_typed_and_untyped_loci():
    """Repair cost is a typed-locus quantity, imputation cost an
    untyped-window quantity: each stage's evaluation counter must sit
    between one shared sweep and one sweep per sample over its own loci."""
    data, res, counters = _pipeline_accounting(0.1)
    samples = len(data.observed)
    typed = len(data.locus_map.typed_indices())
    for stage in ("detect-correct", "recover-missing"):
        evals = counters[stage]["locus_evals"]
        assert 2 * typed <= evals <= 2 * samples * typed

    span = sum(w.hi - w.lo + 1 for w in res.imputation.windows)
    evals = counters["impute-untyped"]["locus_evals"]
    assert counters["impute-untyped"]["windows"] == len(res.imputation.windows)
    assert 2 * span <= evals <= 2 * samples * span
    covered = {int(t) for w in res.imputation.windows for t in w.targets}
    assert covered == {int(u) for u in data.locus_map.untyped_indices()}

    # Masking more columns (same seed, so identical truth and noise) shifts
    # work out of the repair stages and into the windows.
    _, _, wider = _pipeline_accounting(0.2)
    assert wider["detect-correct"]["locus_evals"] < counters["detect-correct"]["locus_evals"]
    assert wider["impute-untyped"]["locus_evals"] > counters["impute-untyped"]["locus_evals"]
