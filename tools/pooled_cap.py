"""Measure the iteration cap of the repair flow's warm pooled typed fit.

    PYTHONPATH=src python tools/pooled_cap.py [--seeds 1-12]

For each seed it simulates the acceptance-6 configuration (5 founders,
300 loci, 40 samples, panel of 200, 1% errors and missingness), fits the
bootstrap model on the typed reference, decodes the corpus with it, and
fits the pooled panel twice at the pipeline's defaults (``TrainConfig(
founders=5, seed=seed)``): cold, from the seeded start, and warm, from the
bootstrap model, to 100 iterations. It prints the number of EM updates
after which the warm fit first reaches the cold fit's final log-likelihood
(0: the bootstrap model itself does), the final trace entry of the cold
fit and of the warm fit at caps 10, 30 and 100, and the imputation
discordance of the repair flow run with each of those four pooled models.
A fit capped at c iterations scores c - 1 updates, so a warm cap beats the
cold fit when it reaches in fewer updates than the cap.
"""
import argparse

import numpy as np

from founderhmm import (DEFAULT_RATIO_THRESHOLD, HaplotypePanel, SimConfig,
                        TrainConfig, correct_errors, detect_errors, evaluate,
                        impute_untyped, phase_panel, recover_missing,
                        simulate, train_founder_hmm)

CAPS = (10, 30, 100)


def discordance(data, model, cfg, typed_ids):
    """The repair flow of ``run_pipeline`` after its typed fits."""
    report = detect_errors(model, data.observed, DEFAULT_RATIO_THRESHOLD,
                           locus_ids=typed_ids)
    working, _ = correct_errors(data.observed, report)
    working = recover_missing(model, working).corpus
    result = impute_untyped(data.reference, working, data.locus_map, cfg)
    return evaluate(result, data.truth_genotypes).discordance_rate


def measure(seed):
    data = simulate(SimConfig(founder_count=5, loci=300, sample_count=40,
                              panel_size=200, switch_rate=0.01,
                              error_rate=0.01, missing_rate=0.01,
                              mask_fraction=0.09, seed=seed))
    cfg = TrainConfig(founders=5, seed=seed)
    typed = data.locus_map.typed_indices()
    typed_ids = [data.locus_map.locus_ids[int(j)] for j in typed]
    reference = HaplotypePanel.of(data.reference)
    ref_typed = HaplotypePanel(reference.ids, reference.matrix[:, typed])
    model0, _ = train_founder_hmm(ref_typed, cfg)
    phased = phase_panel(model0, data.observed)
    pooled = HaplotypePanel(ref_typed.ids + phased.ids,
                            np.concatenate((ref_typed.matrix, phased.matrix)))
    cold, cold_report = train_founder_hmm(pooled, cfg)
    target = cold_report.loglik_trace[-1]
    fits = {cap: train_founder_hmm(pooled, TrainConfig(founders=5, seed=seed,
                                                       max_iterations=cap),
                                   start=model0) for cap in CAPS}
    trace = fits[100][1].loglik_trace
    reach = next((i for i, ll in enumerate(trace) if ll >= target), None)
    return (reach, target, [fits[c][1].loglik_trace[-1] for c in CAPS],
            [discordance(data, m, cfg, typed_ids)
             for m in (cold, *(fits[c][0] for c in CAPS))])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-12", help="first-last, inclusive")
    lo, hi = map(int, parser.parse_args().seeds.split("-"))
    print("seed\tupdates\tcold_ll\t" + "\t".join(f"warm{c}_ll" for c in CAPS)
          + "\tcold_disc\t" + "\t".join(f"warm{c}_disc" for c in CAPS))
    for seed in range(lo, hi + 1):
        reach, cold, warm, disc = measure(seed)
        print(f"{seed}\t{'>99' if reach is None else reach}\t{cold:.1f}\t"
              + "\t".join(f"{ll:.1f}" for ll in warm) + "\t"
              + "\t".join(f"{d:.4f}" for d in disc), flush=True)


if __name__ == "__main__":
    main()
