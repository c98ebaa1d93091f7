"""Expectation-maximization training from haplotype panels."""
import ast
import pathlib

import numpy as np
import pytest
from dataclasses import replace

import oracle
from conftest import random_panel
import founderhmm
from founderhmm import (HaplotypeSequence, InputError, TrainConfig,
                        loglik_haplotype, train_founder_hmm, window_config)
from founderhmm.training import _check_params


def test_config_validation():
    with pytest.raises(InputError):
        TrainConfig(founders=0)
    with pytest.raises(InputError):
        TrainConfig(founders=2, max_iterations=0)
    with pytest.raises(InputError):
        TrainConfig(founders=2, tolerance=-1.0)
    with pytest.raises(InputError):
        TrainConfig(founders=2, pseudocount=-1e-9)
    for bad in (dict(seed=-1), dict(tolerance=float("nan")),
                dict(pseudocount=float("nan")), dict(pseudocount=float("inf"))):
        with pytest.raises(InputError):
            TrainConfig(founders=2, **bad)


def test_window_config_caps_iterations():
    cfg = TrainConfig(founders=4, max_iterations=200, tolerance=1e-7, seed=9)
    wcfg = window_config(cfg)
    assert wcfg.max_iterations == 50
    assert wcfg.founders == 4 and wcfg.tolerance == 1e-7 and wcfg.seed == 9


def test_panel_must_be_uniform_and_nonempty():
    rng = np.random.default_rng(0)
    with pytest.raises(InputError):
        train_founder_hmm([], TrainConfig(founders=2))
    panel = random_panel(rng, 3, 6)
    panel.append(HaplotypeSequence("odd", rng.integers(0, 2, size=5).astype(np.int8)))
    with pytest.raises(InputError):
        train_founder_hmm(panel, TrainConfig(founders=2))


def test_loglik_trace_non_decreasing():
    rng = np.random.default_rng(1)
    for trial in range(8):
        panel = random_panel(rng, int(rng.integers(5, 25)),
                             int(rng.integers(4, 20)))
        cfg = TrainConfig(founders=int(rng.integers(2, 5)),
                          max_iterations=25, seed=trial)
        model, report = train_founder_hmm(panel, cfg)
        trace = np.array(report.loglik_trace)
        assert trace.shape[0] == report.iterations_run
        assert np.all(np.diff(trace) >= -1e-8), trace
        # monotonicity extends through the final update: the returned
        # parameters never score below the last trace entry, and match it
        # exactly when the run stopped by convergence
        have = sum(loglik_haplotype(model, h) for h in panel)
        assert have >= trace[-1] - 1e-8
        if report.converged:
            assert have == pytest.approx(trace[-1], rel=1e-9)


def test_converged_flag_and_early_stop():
    rng = np.random.default_rng(2)
    panel = random_panel(rng, 12, 8)
    cfg = TrainConfig(founders=2, max_iterations=500, tolerance=1e-3, seed=0)
    model, report = train_founder_hmm(panel, cfg)
    assert report.converged
    assert report.iterations_run < 500
    strict = TrainConfig(founders=2, max_iterations=3, tolerance=1e-12, seed=0)
    _, report2 = train_founder_hmm(panel, strict)
    assert not report2.converged
    assert report2.iterations_run == 3


def test_single_founder_closed_form():
    """With one founder the chain is deterministic and EM reduces to
    per-locus allele frequencies (pseudocount-smoothed)."""
    rng = np.random.default_rng(3)
    panel = random_panel(rng, 30, 10)
    pc = 1e-6
    cfg = TrainConfig(founders=1, max_iterations=5, seed=0, pseudocount=pc)
    model, report = train_founder_hmm(panel, cfg)
    counts = np.stack([h.alleles for h in panel]).sum(axis=0)
    want = (counts + pc) / (len(panel) + 2 * pc)
    assert np.allclose(model.emissions[:, 0], want, rtol=1e-9)
    assert model.initial[0] == pytest.approx(1.0)
    assert np.allclose(model.transitions, 1.0)


def test_trained_likelihood_matches_oracle():
    rng = np.random.default_rng(4)
    panel = random_panel(rng, 8, 5)
    cfg = TrainConfig(founders=3, max_iterations=10, seed=1)
    model, _ = train_founder_hmm(panel, cfg)
    for h in panel[:4]:
        want = oracle.haplotype_probability(model, h.alleles)
        assert np.exp(loglik_haplotype(model, h)) == pytest.approx(want, rel=1e-10)


def test_same_seed_reproduces_run_exactly():
    rng = np.random.default_rng(5)
    panel = random_panel(rng, 15, 12)
    cfg = TrainConfig(founders=3, max_iterations=12, seed=42)
    m1, r1 = train_founder_hmm(panel, cfg)
    m2, r2 = train_founder_hmm(panel, cfg)
    assert r1.loglik_trace == r2.loglik_trace
    assert np.array_equal(m1.initial, m2.initial)
    assert np.array_equal(m1.transitions, m2.transitions)
    assert np.array_equal(m1.emissions, m2.emissions)
    m3, r3 = train_founder_hmm(panel, replace(cfg, seed=43))
    assert r3.loglik_trace != r1.loglik_trace


def test_parameters_stay_stochastic():
    rng = np.random.default_rng(6)
    panel = random_panel(rng, 20, 15)
    cfg = TrainConfig(founders=4, max_iterations=30, seed=0)
    model, _ = train_founder_hmm(panel, cfg)
    assert model.initial.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(model.transitions.sum(axis=2), 1.0, atol=1e-9)
    assert (model.emissions >= 0).all() and (model.emissions <= 1).all()


def test_training_fits_a_two_founder_panel_tightly():
    # Panel drawn from two very distinct prototypes with light noise; a
    # two-founder model should separate them and assign each haplotype a
    # much higher likelihood than a one-founder model can.
    rng = np.random.default_rng(7)
    proto = np.stack([np.zeros(16, dtype=np.int8), np.ones(16, dtype=np.int8)])
    panel = []
    for j in range(24):
        row = proto[j % 2].copy()
        flips = rng.random(16) < 0.05
        row[flips] = 1 - row[flips]
        panel.append(HaplotypeSequence(f"h{j}", row))
    lo, _ = train_founder_hmm(panel, TrainConfig(founders=1, max_iterations=40, seed=0))
    hi, _ = train_founder_hmm(panel, TrainConfig(founders=2, max_iterations=40, seed=0))
    gain = sum(loglik_haplotype(hi, h) - loglik_haplotype(lo, h) for h in panel)
    assert gain > 50.0


def test_invalid_m_step_raises_runtime_error():
    emis = np.full((2, 2), 0.5)
    trans = np.full((1, 2, 2), 0.5)
    with pytest.raises(RuntimeError, match="initial"):
        _check_params(np.array([0.5, 0.6]), trans, emis)
    with pytest.raises(RuntimeError, match="transitions"):
        _check_params(np.array([0.5, 0.5]), trans * 1.1, emis)
    with pytest.raises(RuntimeError, match="emissions"):
        _check_params(np.array([0.5, 0.5]), trans, emis + 0.6)


def test_package_has_no_assert_statements():
    # ``python -O`` strips asserts, so no check in the package may use one
    package = pathlib.Path(founderhmm.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
