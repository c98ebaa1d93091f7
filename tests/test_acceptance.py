"""Release gate: one test per advertised guarantee, one verdict line each.

Every test prints ``[ACCEPTANCE k] PASS/FAIL — detail`` on the terminal
(bypassing capture) and then asserts, so a full run always shows the
scoreboard. These are deliberately end-to-end and heavier than the unit
files; the numeric tolerances are the published ones, not looser ones.
"""
import time

import numpy as np
import pytest

import oracle
from conftest import random_corpus, random_genotype, random_model, random_panel
import founderhmm.cli as cli
from founderhmm import (MISSING, MultilocusGenotype, SimConfig, TrainConfig,
                        backward, backward_naive, batched_posteriors,
                        bench_scaling, detect_errors, evaluate, forward,
                        forward_backward, forward_naive, genotype_posteriors,
                        posterior_scan, run_pipeline, simulate, substitute,
                        train_founder_hmm)


@pytest.fixture
def announce(capfd):
    def emit(number, ok, detail):
        with capfd.disabled():
            print(f"\n[ACCEPTANCE {number}] {'PASS' if ok else 'FAIL'} — {detail}")
        assert ok, f"acceptance {number}: {detail}"
    return emit


def test_criterion_1_exhaustive_oracle_equivalence(announce):
    """Tiny instances are solved two ways: collapsed forward-backward vs
    literal enumeration of every founder path pair. Both the sequence
    probability and all single-locus substitution probabilities must agree
    to 1e-9 relative, across 200 seeded instances, in under a minute."""
    rng = np.random.default_rng(20240511)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(1, 7))
        model = random_model(rng, k, n)
        g = random_genotype(rng, n, missing_rate=0.15)
        want_subs, want_total = oracle.substituted_probabilities(model, g.symbols)
        have_total = float(np.exp(forward_backward(model, g).log_likelihood))
        worst = max(worst, abs(have_total - want_total) / want_total)
        scan = posterior_scan(model, g)
        for i in range(n):
            for x in range(3):
                have = scan.substituted_probability(i, x)
                want = want_subs[i, x]
                if want == 0.0:
                    worst = max(worst, abs(have))
                else:
                    worst = max(worst, abs(have - want) / want)
    elapsed = time.perf_counter() - start
    announce(1, worst <= 1e-9 and elapsed < 60.0,
             f"200 instances, worst relative error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_collapsed_recurrences_match_pair_state_form(announce):
    """The factored per-chain contraction must reproduce the unfactored
    pair-transition sweeps exactly (1e-12) on K <= 4, n <= 50."""
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(40):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(2, 51))
        model = random_model(rng, k, n)
        g = random_genotype(rng, n, missing_rate=0.1)
        fast_f, slow_f = forward(model, g), forward_naive(model, g)
        fast_b, slow_b = backward(model, g), backward_naive(model, g)
        worst = max(worst,
                    float(np.max(np.abs(fast_f.matrices - slow_f.matrices))),
                    float(np.max(np.abs(fast_b.matrices - slow_b.matrices))),
                    float(np.max(np.abs(fast_f.scale_factors - slow_f.scale_factors))),
                    float(np.max(np.abs(fast_b.scale_factors - slow_b.scale_factors))))
    announce(2, worst <= 1e-12,
             f"40 instances to K=4, n=50; worst state deviation {worst:.2e}")


def test_criterion_3_batch_engine_equivalence_and_work_accounting(announce):
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(2, 16))
        m = int(rng.integers(2, 41))
        model = random_model(rng, k, n)
        corpus = random_corpus(rng, m, n, missing_rate=0.15)
        corpus.append(MultilocusGenotype("dup", corpus[0].symbols.copy()))
        batch = batched_posteriors(model, corpus)
        for g in corpus:
            direct = genotype_posteriors(model, g)
            got = batch.tables[g.sample_id]
            worst = max(worst, float(np.max(np.abs(np.asarray(got.probs)
                                                   - np.asarray(direct.probs)))))
            want_lm = np.asarray(direct.log_marginals)
            have_lm = np.asarray(got.log_marginals)
            worst = max(worst, float(np.max(
                np.abs(have_lm - want_lm) / np.maximum(1.0, np.abs(want_lm)))))

    rows = ["00000", "00000", "00000", "00001", "00100", "00100", "00120",
            "02111", "10000", "10222"]
    shared = [MultilocusGenotype(f"s{j}", np.array([int(c) for c in r], dtype=np.int8))
              for j, r in enumerate(rows)]
    stats = batched_posteriors(random_model(rng, 3, 5), shared).stats
    counts_ok = (stats.forward_locus_evals == 23
                 and stats.naive_locus_evals == 50
                 and stats.distinct_genotypes == 7)
    announce(3, worst <= 1e-12 and counts_ok,
             f"50 corpora, worst deviation {worst:.2e}; shared-prefix corpus "
             f"forward evals {stats.forward_locus_evals}/naive "
             f"{stats.naive_locus_evals}, distinct {stats.distinct_genotypes}")


def _simplex_rows_ok(model):
    return (np.all(model.initial >= 0)
            and abs(model.initial.sum() - 1.0) < 1e-9
            and np.all(model.transitions >= 0)
            and np.allclose(model.transitions.sum(axis=2), 1.0, atol=1e-9)
            and np.all((model.emissions >= 0) & (model.emissions <= 1)))


def test_criterion_4_em_monotonicity_and_parameter_validity(announce):
    rng = np.random.default_rng(4)
    worst_drop = 0.0
    params_ok = True
    for run in range(100):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(4, 31))
        m = int(rng.integers(6, 41))
        panel = random_panel(rng, m, n)
        iters = int(rng.integers(5, 13))
        cfg = TrainConfig(founders=k, max_iterations=iters, seed=run)
        model, report = train_founder_hmm(panel, cfg)
        trace = np.asarray(report.loglik_trace)
        if trace.size > 1:
            worst_drop = max(worst_drop, float(np.max(-np.diff(trace))))
        params_ok &= _simplex_rows_ok(model)
        # intermediate iterates, reproduced by replaying shorter runs of
        # the same seeded schedule, must be valid distributions too
        for j in (1, 2):
            shorter, _ = train_founder_hmm(
                panel, TrainConfig(founders=k, max_iterations=j, seed=run))
            params_ok &= _simplex_rows_ok(shorter)
    announce(4, worst_drop <= 1e-8 and params_ok,
             f"100 runs; worst log-likelihood drop {worst_drop:.2e}; "
             f"all iterates row-stochastic: {params_ok}")


def test_criterion_5_runtime_growth_exponents(announce):
    start = time.perf_counter()
    report = bench_scaling()
    elapsed = time.perf_counter() - start
    e = report.exponents
    ok = (0.75 <= e["loci"] <= 1.25 and 0.75 <= e["samples"] <= 1.25
          and e["founders"] <= 3.3 and elapsed < 600.0)
    announce(5, ok,
             f"fitted exponents loci={e['loci']:.2f} samples={e['samples']:.2f} "
             f"founders={e['founders']:.2f}; bench took {elapsed:.0f}s")


def test_criterion_6_repair_beats_direct_imputation(announce):
    """With 1% symbol errors and 1% missingness, repairing the corpus
    before imputing must not lose to direct imputation (>= 8 of 10 seeds,
    ties count), and flags at ratio 1e3 must be mostly real errors."""
    wins = 0
    flagged_total = 0
    hit_total = 0
    rates = []
    for seed in range(10):
        # low switching keeps the fitted windows sharp enough that a 1%
        # error rate visibly misleads them — the regime where repair can
        # show its value over per-seed imputation noise
        data = simulate(SimConfig(founder_count=5, loci=300, sample_count=40,
                                  panel_size=200, switch_rate=0.01,
                                  error_rate=0.01, missing_rate=0.01,
                                  mask_fraction=0.09, seed=seed))
        cfg = TrainConfig(founders=5, max_iterations=60, seed=seed)
        direct = run_pipeline("imp", data.reference, data.observed,
                              data.locus_map, cfg)
        repaired = run_pipeline("edc-mdr-imp", data.reference, data.observed,
                                data.locus_map, cfg, threshold=1e3)
        d = evaluate(direct.imputation, data.truth_genotypes).discordance_rate
        r = evaluate(repaired.imputation, data.truth_genotypes).discordance_rate
        rates.append((d, r))
        wins += r <= d
        col_of = data.typed_column_of()
        injected = {(e.sample_id, col_of[e.locus_index])
                    for e in data.observable_errors()}
        flags = repaired.error_report.flagged()
        flagged_total += len(flags)
        hit_total += sum((f.sample_id, f.locus_index) in injected for f in flags)
    precision = hit_total / flagged_total if flagged_total else 0.0
    mean_d = float(np.mean([d for d, _ in rates]))
    mean_r = float(np.mean([r for _, r in rates]))
    announce(6, wins >= 8 and precision >= 0.5,
             f"repair <= direct in {wins}/10 seeds (mean rates "
             f"{mean_r:.4f} vs {mean_d:.4f}); detection precision "
             f"{precision:.2f} on {flagged_total} flags")


def test_criterion_7_bigger_panels_do_not_hurt(announce):
    """Panel size is the only factor varied: one dataset, one training
    seed, nested panels. Growing the reference must not raise imputation
    discordance beyond half a percentage point of noise."""
    data = simulate(SimConfig(founder_count=7, loci=200, sample_count=30,
                              panel_size=240, switch_rate=0.02,
                              mask_fraction=0.09, seed=11))
    cfg = TrainConfig(founders=7, seed=3)
    rates = []
    for p in (30, 60, 120, 240):
        result = run_pipeline("imp", data.reference[:p], data.observed,
                              data.locus_map, cfg)
        rates.append(evaluate(result.imputation,
                              data.truth_genotypes).discordance_rate)
    ok = all(cur <= prev + 0.005 for prev, cur in zip(rates, rates[1:]))
    announce(7, ok, "discordance across panels 30/60/120/240: "
             + " ".join(f"{r:.4f}" for r in rates))


def test_criterion_8_invariant_suite(announce, tmp_path):
    rng = np.random.default_rng(8)
    problems = []

    worst_sum = 0.0
    for _ in range(25):
        k, n = int(rng.integers(1, 5)), int(rng.integers(1, 25))
        model = random_model(rng, k, n)
        g = random_genotype(rng, n, missing_rate=0.2)
        table = genotype_posteriors(model, g).probs
        worst_sum = max(worst_sum, float(np.max(np.abs(table.sum(axis=1) - 1.0))))
    if worst_sum > 1e-9:
        problems.append(f"posterior rows off unit mass by {worst_sum:.2e}")

    min_ratio = np.inf
    for _ in range(10):
        model = random_model(rng, 3, 12)
        corpus = random_corpus(rng, 8, 12, missing_rate=0.1)
        report = detect_errors(model, corpus, threshold=10.0)
        min_ratio = min(min_ratio, min(e.ratio for e in report.entries))
    if min_ratio < 1.0:
        problems.append(f"likelihood ratio {min_ratio} below 1")

    worst_asym = 0.0
    for _ in range(15):
        model = random_model(rng, 4, 10)
        g = random_genotype(rng, 10, missing_rate=0.1)
        f, b = forward(model, g), backward(model, g)
        worst_asym = max(
            worst_asym,
            float(np.max(np.abs(f.matrices - np.transpose(f.matrices, (0, 2, 1))))),
            float(np.max(np.abs(b.matrices - np.transpose(b.matrices, (0, 2, 1))))))
    if worst_asym > 1e-12:
        problems.append(f"founder-swap asymmetry {worst_asym:.2e}")

    worst_marg = 0.0
    for _ in range(15):
        k, n = int(rng.integers(2, 5)), int(rng.integers(2, 15))
        model = random_model(rng, k, n)
        g = random_genotype(rng, n, missing_rate=0.1)
        scan = posterior_scan(model, g)
        for i in range(n):
            summed = sum(scan.substituted_probability(i, x) for x in range(3))
            blanked = float(np.exp(forward_backward(
                model, substitute(g, i, MISSING)).log_likelihood))
            worst_marg = max(worst_marg, abs(summed - blanked) / blanked)
    if worst_marg > 1e-10:
        problems.append(f"missing-marginalization error {worst_marg:.2e}")

    prefix = str(tmp_path / "sim")
    assert cli.main(["simulate", "--out-prefix", prefix, "--seed", "13",
                     "--founders", "3", "--loci", "40", "--samples", "5",
                     "--panel-size", "24", "--mask-fraction", "0.1"]) == 0
    outs = []
    for tag in ("a", "b"):
        out = str(tmp_path / f"imp.{tag}.tsv")
        assert cli.main(["impute", "--panel", f"{prefix}.ref.hap",
                         "--genotypes", f"{prefix}.gen", "--map", f"{prefix}.map",
                         "--founders", "3", "--flank", "4", "--seed", "0",
                         "--out", out]) == 0
        outs.append(open(out, "rb").read())
    if outs[0] != outs[1]:
        problems.append("rerun with fixed seed changed bytes")

    announce(8, not problems,
             "; ".join(problems) if problems
             else f"posterior mass 1±{worst_sum:.1e}, ratios >= {min_ratio:.2f}, "
                  f"swap symmetry {worst_asym:.1e}, marginalization "
                  f"{worst_marg:.1e}, reruns byte-identical")
