"""Founder-pair hidden Markov model toolkit for multilocus SNP genotypes.

A genotype sequence is modeled as the locus-wise sum of two haplotypes,
each a recombination mosaic over K latent founder states; both copies share
one parameter set. The package provides exact collapsed inference that is
cubic in the founder count per locus, expectation-maximization training
from haplotype panels, a batch engine over a corpus's sorted distinct
genotypes (in ``inference``, beside the single-genotype sweeps; ``trie``
keeps only the names that perfbench's tracer looks up), and the analysis
flows built on top: error screening and correction, missing-symbol
recovery, untyped-locus imputation, phasing, plus synthetic data
generation and benchmarking.
"""
from .analysis import (DEFAULT_RATIO_THRESHOLD, PIPELINE_IMPUTE_ONLY,
                       PIPELINE_REPAIR_IMPUTE, ErrorEntry, ErrorReport,
                       IdColumn, ImputationEntry, ImputationResult, PhaseResult,
                       PipelineResult, RecoveryFill, RecoveryResult,
                       StageReport, WindowReport, WindowSpec, correct_errors,
                       detect_errors, impute_untyped, phase_corpus,
                       phase_decode, phase_panel, recover_missing,
                       run_pipeline, window_spans)
from .inference import (BackwardPass, BatchPosteriorResult, BatchStats,
                        ForwardBackwardResult, ForwardPass, PosteriorScan,
                        PosteriorTable, backward, backward_naive,
                        batched_posteriors, forward, forward_backward,
                        forward_naive, genotype_posteriors, posterior_scan,
                        table_from_scan, total_log_likelihood)
from .model import (ALLELE_SYMBOLS, GENOTYPE_SYMBOLS, MISSING, FounderHMM,
                    GenotypeCorpus, HaplotypePanel, HaplotypeSequence,
                    InputError, LocusMap, MultilocusGenotype,
                    ZeroProbabilityError, emission_stack, substitute,
                    symbol_plane)
from .simulate import (BenchReport, BenchRow, ErrorRecord, EvalReport,
                       MissingRecord, SimConfig, SimData, SweepRow,
                       bench_scaling, evaluate, fit_exponent, simulate, sweep)
from .training import (TrainConfig, TrainReport, bootstrap_config,
                       pooled_config, train_founder_hmm, window_config)
from . import trie  # noqa: F401

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
