"""Analysis flows: error screening, correction, recovery, imputation
windows, phasing, and the end-to-end pipeline."""
import numpy as np
import pytest

import founderhmm.analysis as analysis
import oracle
from conftest import random_corpus, random_genotype, random_model
from founderhmm import (MISSING, FounderHMM, HaplotypeSequence, InputError,
                        LocusMap, MultilocusGenotype, SimConfig, TrainConfig,
                        WindowSpec, ZeroProbabilityError,
                        batched_posteriors, correct_errors, detect_errors,
                        evaluate, genotype_from_haplotypes, impute_untyped,
                        phase_corpus, phase_decode, recover_missing,
                        run_pipeline, simulate, substitute, window_spans)


def with_dead_loci(rng, model, count):
    """``model`` with every emission at ``count`` random loci set to 0, so
    a 1 or 2 observed there has probability zero."""
    emissions = model.emissions.copy()
    emissions[rng.integers(0, model.loci, size=count)] = 0.0
    return FounderHMM(initial=model.initial, transitions=model.transitions,
                      emissions=emissions)


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
        scans = batched_posteriors(model, corpus).scans
        want = [(g.sample_id, *entry) for g in corpus
                for entry in oracle.detect_entries_per_symbol(
                    scans[g.sample_id], g.symbols, threshold)]
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
    for before, after in zip(corpus, result.corpus):
        assert before is after


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
    assert result.corpus[0] is bad  # untouched
    assert not result.corpus[1].missing_mask.any()


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


def test_impute_threads_do_not_change_answers():
    data = masked_instance(12)
    cfg = TrainConfig(founders=3, seed=0)
    serial = impute_untyped(data.reference, data.observed, data.locus_map,
                            cfg, window=WindowSpec(flank=3), threads=1)
    threaded = impute_untyped(data.reference, data.observed, data.locus_map,
                              cfg, window=WindowSpec(flank=3), threads=4)
    assert serial.entries == threaded.entries


def test_impute_keep_models_exposes_window_models():
    data = masked_instance(13, loci=30, mask_fraction=0.1)
    cfg = TrainConfig(founders=2, seed=0)
    with_models = impute_untyped(data.reference, data.observed,
                                 data.locus_map, cfg, keep_models=True)
    without = impute_untyped(data.reference, data.observed, data.locus_map,
                             cfg)
    assert all(w.model is not None for w in with_models.windows)
    assert all(w.model is None for w in without.windows)
    for w in with_models.windows:
        assert w.model.loci == w.hi - w.lo + 1


def test_impute_validates_alignment():
    data = masked_instance(14)
    cfg = TrainConfig(founders=2, seed=0)
    short_ref = [HaplotypeSequence("r", np.zeros(10, dtype=np.int8))]
    with pytest.raises(InputError):
        impute_untyped(short_ref, data.observed, data.locus_map, cfg)
    bad_corpus = [MultilocusGenotype("s", np.zeros(3, dtype=np.int8))]
    with pytest.raises(InputError):
        impute_untyped(data.reference, bad_corpus, data.locus_map, cfg)
    with pytest.raises(InputError):
        impute_untyped(data.reference, data.observed, data.locus_map, cfg,
                       threads=0)


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
        rebuilt = genotype_from_haplotypes("x", res.first, res.second)
        typed = ~g.missing_mask
        assert np.array_equal(rebuilt.symbols[typed], g.symbols[typed])
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
    """Per-sample oracle decodes of ``corpus``, or the (sample id, locus)
    of its first sample in corpus order that has zero probability."""
    out = []
    for g in corpus:
        try:
            out.append(oracle.phase_decode_per_sample(model, g.symbols))
        except ZeroProbabilityError as exc:
            return g.sample_id, exc.locus
    return out


@pytest.mark.parametrize("chunk_rows", [None, 1, 7])
def test_phase_corpus_matches_per_sample_decode_bitwise(monkeypatch,
                                                        chunk_rows):
    rng = np.random.default_rng(22)
    for trial in range(25):
        k, n = int(rng.integers(1, 6)), int(rng.integers(1, 31))
        model = with_dead_loci(rng, random_model(rng, k, n),
                               int(trial % 6 == 5))
        pool = random_corpus(rng, int(rng.integers(1, 6)), n,
                             missing_rate=0.2)
        corpus = [MultilocusGenotype(f"s{j}", pool[int(i)].symbols)
                  for j, i in enumerate(rng.integers(0, len(pool), 12))]
        shuffled = [corpus[int(j)] for j in rng.permutation(len(corpus))]
        if chunk_rows is not None:
            monkeypatch.setattr(analysis, "_PHASE_CHUNK_BYTES",
                                chunk_rows * analysis._phase_row_bytes(n, k))
        for order in (corpus, shuffled):
            want = expected_phasing(model, order)
            if isinstance(want, tuple):
                with pytest.raises(ZeroProbabilityError) as err:
                    phase_corpus(model, order)
                assert err.value.locus == want[1]
                assert f"sample {want[0]!r} " in str(err.value)
                continue
            got = phase_corpus(model, order)
            assert len(got) == len(order)
            for g, res, (first, second, paths, log_joint) in zip(order, got,
                                                                 want):
                assert res.first.id == f"{g.sample_id}.h1"
                assert np.array_equal(res.first.alleles, first)
                assert np.array_equal(res.second.alleles, second)
                assert np.array_equal(res.founder_paths, paths)
                assert res.log_joint == log_joint
                assert not res.founder_paths.flags.writeable
            one = phase_decode(model, order[0])
            assert np.array_equal(one.founder_paths, want[0][2])
            assert one.log_joint == want[0][3]


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
