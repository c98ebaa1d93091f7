"""Measure the E-step caps of the repair flow's accelerated typed fits.

    PYTHONPATH=src python tools/pooled_cap.py [--seeds 3-12]

For each seed it simulates the acceptance-6 configuration (5 founders,
300 loci, 40 samples, panel of 200, 1% errors and missingness) and works
at the pipeline's defaults (``TrainConfig(founders=5, seed=seed)``).

- Bootstrap fit, on the typed reference: the E-steps after which the
  accelerated fit's trace first reaches the final log-likelihood of the
  plain fit of 100 iterations.
- Pooled fit, on the reference pooled with the corpus decoded by the
  bootstrap model of ``bootstrap_config``: the E-steps after which the
  accelerated fit warm from that model first reaches the final
  log-likelihood of the plain cold fit of 100 iterations.

A fit capped at c E-steps traces the first c E-steps of the same fit run
longer, so it ends at or above the target when it reaches in at most c.
Each count is found by bisection over caps 1-100 (">100": none reaches).
Then it prints the imputation discordance of the repair flow at each
candidate cap of each fit, the other fit at its config, and of the plain
flow (bootstrap plain to 100 iterations, pooled plain warm to 30). Last,
for each candidate cap, the number of seeds on which it reaches.
"""
import argparse
from dataclasses import replace

import numpy as np

from founderhmm import (DEFAULT_RATIO_THRESHOLD, HaplotypePanel, SimConfig,
                        TrainConfig, bootstrap_config, correct_errors,
                        detect_errors, evaluate, impute_untyped, phase_panel,
                        pooled_config, recover_missing, simulate,
                        train_founder_hmm)

BOOTSTRAP_CAPS = (30, 40, 50, 60, 70, 80, 90, 100)
POOLED_CAPS = (10, 20, 30)


def discordance(data, model, cfg, typed_ids):
    """The repair flow of ``run_pipeline`` after its typed fits."""
    report = detect_errors(model, data.observed, DEFAULT_RATIO_THRESHOLD,
                           locus_ids=typed_ids)
    working, _ = correct_errors(data.observed, report)
    working = recover_missing(model, working).corpus
    result = impute_untyped(data.reference, working, data.locus_map, cfg)
    return evaluate(result, data.truth_genotypes).discordance_rate


def reach(panel, cfg, target, start=None):
    """The fewest E-steps after which the accelerated fit's trace reaches
    ``target``, or None if 100 do not."""
    ends = lambda cap: train_founder_hmm(
        panel, replace(cfg, accelerate=True, max_iterations=cap),
        start=start)[1].loglik_trace[-1] >= target
    if not ends(100):
        return None
    lo, hi = 0, 100  # ends(hi), and not ends(lo) unless lo is 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if ends(mid) else (mid, hi)
    return hi


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

    def pool(model0):
        phased = phase_panel(model0, data.observed)
        return HaplotypePanel(ref_typed.ids + phased.ids,
                              np.concatenate((ref_typed.matrix, phased.matrix)))

    def flow(boot_cfg, pooled_cfg):
        model0, _ = train_founder_hmm(ref_typed, boot_cfg)
        model1, _ = train_founder_hmm(pool(model0), pooled_cfg, start=model0)
        return discordance(data, model1, cfg, typed_ids)

    plain = train_founder_hmm(ref_typed, cfg)[1].loglik_trace[-1]
    boot_reach = reach(ref_typed, cfg, plain)
    model0, _ = train_founder_hmm(ref_typed, bootstrap_config(cfg))
    pooled = pool(model0)
    cold = train_founder_hmm(pooled, cfg)[1].loglik_trace[-1]
    pooled_reach = reach(pooled, cfg, cold, start=model0)
    disc = [flow(cfg, replace(cfg, max_iterations=30))]
    disc += [flow(replace(cfg, accelerate=True, max_iterations=cap),
                  pooled_config(cfg)) for cap in BOOTSTRAP_CAPS]
    disc += [flow(bootstrap_config(cfg),
                  replace(cfg, accelerate=True, max_iterations=cap))
             for cap in POOLED_CAPS]
    return boot_reach, pooled_reach, disc


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="3-12", help="first-last, inclusive")
    lo, hi = map(int, parser.parse_args().seeds.split("-"))
    print("seed\tboot_esteps\tpooled_esteps\tplain_disc\t"
          + "\t".join(f"boot{c}_disc" for c in BOOTSTRAP_CAPS) + "\t"
          + "\t".join(f"pooled{c}_disc" for c in POOLED_CAPS))
    reaches = []
    for seed in range(lo, hi + 1):
        boot, pooled, disc = measure(seed)
        reaches.append((boot, pooled))
        print(f"{seed}\t" + "\t".join(">100" if n is None else str(n)
                                       for n in (boot, pooled)) + "\t"
              + "\t".join(f"{d:.4f}" for d in disc), flush=True)
    for name, caps, column in (("bootstrap", BOOTSTRAP_CAPS, 0),
                               ("pooled", POOLED_CAPS, 1)):
        print(f"{name} cap: seeds reached of {len(reaches)}: " + ", ".join(
            f"{cap}: {sum(r[column] is not None and r[column] <= cap for r in reaches)}"
            for cap in caps))


if __name__ == "__main__":
    main()
