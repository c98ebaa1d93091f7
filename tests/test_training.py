"""Expectation-maximization training from haplotype panels."""
import ast
import pathlib

import numpy as np
import pytest
from dataclasses import replace

import oracle
from conftest import random_model, random_panel, random_symbol_matrices
import founderhmm
from founderhmm import (FounderHMM, HaplotypeSequence, InputError, TrainConfig,
                        ZeroProbabilityError, bootstrap_config, pooled_config,
                        train_founder_hmm, window_config)
import founderhmm.training as training
from founderhmm.training import (_buffer_shapes, _buffer_views, _check_params, _e_step,
                                 _initial_params, _stack, _stack_bytes,
                                 _stack_groups, _trans_views, train_founder_hmms)


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
                dict(pseudocount=float("nan")), dict(pseudocount=float("inf")),
                dict(founders=4, pseudocount=4.49423283715579e+307),
                dict(founders=1, pseudocount=1e308)):
        with pytest.raises(InputError):
            TrainConfig(**{"founders": 2, **bad})
    # a pseudocount that large still leaves finite, stochastic parameters
    panel = random_panel(np.random.default_rng(0), 5, 4)
    model, _ = train_founder_hmm(panel, TrainConfig(founders=4, pseudocount=1e307,
                                                    max_iterations=3))
    assert np.allclose(model.initial, 0.25) and np.allclose(model.emissions, 0.5)


def test_window_config_caps_iterations():
    cfg = TrainConfig(founders=4, max_iterations=200, tolerance=1e-7, seed=9)
    wcfg = window_config(cfg)
    assert wcfg.max_iterations == 50
    assert wcfg.founders == 4 and wcfg.tolerance == 1e-7 and wcfg.seed == 9


def test_pooled_config_caps_iterations_at_10():
    cfg = TrainConfig(founders=4, max_iterations=200, tolerance=1e-7, seed=9)
    assert pooled_config(cfg) == replace(cfg, max_iterations=10, accelerate=True)
    assert pooled_config(replace(cfg, max_iterations=5)).max_iterations == 5


def test_only_the_typed_fit_configs_accelerate():
    cfg = TrainConfig(founders=4, max_iterations=200, tolerance=1e-7, seed=9)
    assert not cfg.accelerate and not window_config(cfg).accelerate
    assert bootstrap_config(cfg) == replace(cfg, max_iterations=60, accelerate=True)
    assert bootstrap_config(replace(cfg, max_iterations=10)).max_iterations == 10


def test_panel_must_be_uniform_and_nonempty():
    rng = np.random.default_rng(0)
    with pytest.raises(InputError):
        train_founder_hmm([], TrainConfig(founders=2))
    panel = random_panel(rng, 3, 6)
    panel.append(HaplotypeSequence("odd", rng.integers(0, 2, size=5).astype(np.int8)))
    with pytest.raises(InputError):
        train_founder_hmm(panel, TrainConfig(founders=2))
    for bad in (np.zeros((0, 3)), np.zeros((3, 0)), np.zeros(3), np.full((2, 2), 2)):
        with pytest.raises(InputError, match="matrices of alleles 0 and 1"):
            train_founder_hmms([np.zeros((2, 2)), bad], TrainConfig(founders=2))


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
        have = sum(oracle.loglik_haplotype(model, h) for h in panel)
        assert have >= trace[-1] - 1e-8
        if report.converged:
            assert have == pytest.approx(trace[-1], rel=1e-9)


def _row_stochastic(model):
    return (np.all(model.initial >= 0)
            and abs(model.initial.sum() - 1.0) < 1e-9
            and np.all(model.transitions >= 0)
            and np.allclose(model.transitions.sum(axis=2), 1.0, atol=1e-9)
            and np.all((model.emissions >= 0) & (model.emissions <= 1)))


def test_accelerated_fits_keep_criterion_4_properties():
    """The 100 panels of acceptance criterion 4, fitted accelerated at caps
    1, 2 and the drawn cap (5-12 E-steps): every trace is non-decreasing,
    every fit row-stochastic, and no fit has more trace entries than
    E-steps (it has fewer when it rejected an extrapolated point)."""
    rng = np.random.default_rng(4)
    seen = set()
    for run in range(100):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(4, 31))
        m = int(rng.integers(6, 41))
        panel = random_panel(rng, m, n)
        iters = int(rng.integers(5, 13))
        for cap in (1, 2, iters):
            model, report = train_founder_hmm(panel, TrainConfig(
                founders=k, max_iterations=cap, seed=run, accelerate=True))
            trace = np.asarray(report.loglik_trace)
            assert np.all(np.diff(trace) >= -1e-8), trace
            assert _row_stochastic(model)
            assert report.iterations_run >= len(trace)
        seen.add(iters)
        seen.update("rejected" for _ in [0] if report.iterations_run > len(trace))
    assert seen == set(range(5, 13)) | {"rejected"}


def test_accelerated_fit_ends_at_or_above_its_trace():
    """As in plain EM, the returned parameters score at least the last
    trace entry, and exactly it when the fit converged."""
    rng = np.random.default_rng(1)
    for trial in range(8):
        panel = random_panel(rng, int(rng.integers(5, 25)),
                             int(rng.integers(4, 20)))
        cfg = TrainConfig(founders=int(rng.integers(2, 5)), max_iterations=25,
                          seed=trial, accelerate=True)
        model, report = train_founder_hmm(panel, cfg)
        have = sum(oracle.loglik_haplotype(model, h) for h in panel)
        assert have >= report.loglik_trace[-1] - 1e-8
        if report.converged:
            assert have == pytest.approx(report.loglik_trace[-1], rel=1e-9)


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


def test_zero_pseudocount_keeps_emissions_at_most_one():
    """The E-step sums a locus' allele-1 counts and its total counts in
    different orders; where every haplotype carries allele 1, the M-step
    still gives an emission of exactly one, never a hair above."""
    panel = founderhmm.simulate(founderhmm.SimConfig(seed=1)).typed_reference()
    assert (np.stack([h.alleles for h in panel]) == 1).all(axis=0).any()
    model, report = train_founder_hmm(panel, TrainConfig(founders=5, pseudocount=0.0,
                                                         max_iterations=5))
    assert report.iterations_run == 5
    assert model.emissions.max() == 1.0 and model.emissions.min() >= 0.0


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
    """The scaled recursion that the other tests score fits with agrees with
    the brute-force sum over founder paths on a trained model."""
    rng = np.random.default_rng(4)
    panel = random_panel(rng, 8, 5)
    cfg = TrainConfig(founders=3, max_iterations=10, seed=1)
    model, _ = train_founder_hmm(panel, cfg)
    for h in panel[:4]:
        want = oracle.haplotype_probability(model, h.alleles)
        assert np.exp(oracle.loglik_haplotype(model, h)) == pytest.approx(want, rel=1e-10)


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
    gain = sum(oracle.loglik_haplotype(hi, h) - oracle.loglik_haplotype(lo, h) for h in panel)
    assert gain > 50.0


@pytest.mark.parametrize("k", range(1, 25))
def test_m_step_normalises_rows_as_numpy_sums_them(k):
    """The M-step's row sums are ``np.sum``'s bits at every K, at the
    typed fits' shapes (1, K) and (loci, 1, K, K) and the window stack's
    (25, K) and (loci, 25, K, K): column adds below 8 founders, NumPy's
    own sum from 8 on."""
    rng = np.random.default_rng(k)
    for windows in (1, 25):
        counts = rng.random((12, windows, k, k)) * 10.0 ** rng.integers(-6, 6, (12, windows, k, k))
        init_counts = rng.random((windows, k)) * 50.0
        for x in (counts, init_counts, init_counts * 10.0 ** rng.integers(-6, 6, (windows, k))):
            assert (training._row_sums(x).tobytes()
                    == x.sum(axis=-1, keepdims=True).tobytes())
        ones, total = rng.random((2, 13, windows, k))
        init, trans, _ = training._m_step((init_counts, counts, ones, total + 1.0), 0.1)
        want_init, want_trans = init_counts + 0.1, counts + 0.1
        want_init /= want_init.sum(axis=-1, keepdims=True)
        want_trans /= want_trans.sum(axis=-1, keepdims=True)
        assert init.tobytes() == want_init.tobytes()
        assert trans.tobytes() == want_trans.tobytes()


def test_invalid_m_step_raises_runtime_error():
    # stacks of one window: init (1, K), trans (loci - 1, 1, K, K), emis
    # (loci, 1, K)
    emis = np.full((2, 1, 2), 0.5)
    trans = np.full((1, 1, 2, 2), 0.5)
    with pytest.raises(RuntimeError, match="initial"):
        _check_params(np.array([[0.5, 0.6]]), trans, emis)
    with pytest.raises(RuntimeError, match="transitions"):
        _check_params(np.array([[0.5, 0.5]]), trans * 1.1, emis)
    with pytest.raises(RuntimeError, match="emissions"):
        _check_params(np.array([[0.5, 0.5]]), trans, emis + 0.6)
    # a row off by 1e-7 is out, as for the initial distribution: the test
    # is absolute, with no relative slack
    off = trans.copy()
    off[0, 0, 1, 0] += 1e-7
    with pytest.raises(RuntimeError, match="non-stochastic transitions"):
        _check_params(np.array([[0.5, 0.5]]), off, emis)
    _check_params(np.array([[0.5, 0.5]]), trans, emis)


def test_invalid_m_step_names_the_lowest_invalid_window():
    init = np.full((3, 2), 0.5)
    trans = np.full((1, 3, 2, 2), 0.5)
    emis = np.full((2, 3, 2), 0.5)
    trans[0, 1] *= 1.1  # only the second window is invalid
    with pytest.raises(RuntimeError, match="transitions") as err:
        _check_params(init, trans, emis)
    assert err.value.window == 1
    emis[1, 2, 0] = 1.5  # a later invalid window does not change the answer
    init[2] = [0.5, 0.6]
    with pytest.raises(RuntimeError, match="transitions") as err:
        _check_params(init, trans, emis)
    assert err.value.window == 1


def test_package_has_no_assert_statements():
    # ``python -O`` strips asserts, so no check in the package may use one
    package = pathlib.Path(founderhmm.__file__).parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def _stacked_inputs(windows, init, trans, emis):
    """The stack of (haplotypes, loci) windows with their own (init, trans,
    emis), padded as the trainer pads them, its stacked parameters and
    fresh E-step buffers."""
    stack = _stack([np.unique(h, axis=0, return_index=True, return_counts=True)
                    for h in windows])
    n, w, r = stack.ones.shape
    k = init[0].shape[0]
    s_init = np.stack(init)
    s_trans = np.broadcast_to(np.eye(k), (n - 1, w, k, k)).copy()
    s_emis = np.ones((n, w, k))
    for p, h in enumerate(windows):
        s_trans[:h.shape[1] - 1, p] = trans[p]
        s_emis[:h.shape[1], p] = emis[p]
    buffers = [np.empty(shape) for shape in _buffer_shapes(n, w, k, r)]
    return stack, s_init, s_trans, s_emis, buffers


def _viewed_e_step(stack, init, trans, emis, buffers):
    """``_e_step`` with the per-locus views that the trainer makes for it."""
    views = (*_buffer_views(stack, buffers), *_trans_views(trans))
    return _e_step(stack, init, trans, emis, buffers, views)


def _stacked_e_step(windows, init, trans, emis):
    """The E-step over a stack of (haplotypes, loci) windows with their own
    (init, trans, emis), padded as the trainer pads them; returns each
    window's log-likelihood and statistics, cut to its own shape."""
    logliks, stats = _viewed_e_step(*_stacked_inputs(windows, init, trans, emis))
    init_c, trans_c, ones_c, total_c = stats
    return [(ll, (init_c[p], trans_c[:h.shape[1] - 1, p],
                  ones_c[:h.shape[1], p], total_c[:h.shape[1], p]))
            for p, (ll, h) in enumerate(zip(logliks, windows))]


def _weighted_e_step(haps, init, trans, emis):
    return _stacked_e_step([haps], [init], [trans], [emis])[0]


def test_weighted_e_step_matches_per_row_reference():
    rng = np.random.default_rng(8)
    shapes = [(1, 1, 1), (1, 7, 3), (6, 1, 2), (9, 30, 5), (12, 5, 1)]
    shapes += [(int(rng.integers(1, 40)), int(rng.integers(1, 31)),
                int(rng.integers(1, 6))) for _ in range(20)]
    for trial, (m, n, k) in enumerate(shapes):
        # rows drawn from a small pool, so most panels repeat rows; every
        # fourth panel is one row repeated m times
        pool = rng.integers(0, 2, size=(1 if trial % 4 == 0 else
                                        int(rng.integers(1, 8)), n))
        haps = pool[rng.integers(0, len(pool), size=m)]
        init, trans, emis = _initial_params(n, k, trial)
        emis = rng.uniform(0.02, 0.98, size=(n, k))
        want_ll, want = oracle.e_step_per_row(haps, init, trans, emis)
        have_ll, have = _weighted_e_step(haps, init, trans, emis)
        assert have_ll == pytest.approx(want_ll, rel=1e-12, abs=0.0)
        for h, w in zip(have, want):
            assert h.shape == w.shape
            np.testing.assert_allclose(h, w, rtol=1e-12, atol=0.0)


def test_e_step_over_rescale_blocks_matches_per_row_reference():
    # panels of 40 to 150 loci span three to ten rescale blocks; the
    # widths of a stack differ, and most end off a multiple of 16, so one
    # panel rescales at its last locus where the others do not
    rng = np.random.default_rng(33)
    seen = set()
    for trial in range(12):
        k = int(rng.integers(1, 9))
        widths = [int(n) for n in rng.integers(40, 151, size=int(rng.integers(1, 4)))]
        if trial % 3 == 0:
            widths.append(16 * int(rng.integers(3, 10)) + 1)
        windows, params = [], []
        for n in widths:
            pool = rng.integers(0, 2, size=(int(rng.integers(1, 8)), n))
            windows.append(pool[rng.integers(0, len(pool), size=int(rng.integers(2, 30)))])
            init, trans, _ = _initial_params(n, k, trial)
            params.append((init, trans, rng.uniform(0.02, 0.98, size=(n, k))))
        stacked = _stacked_e_step(windows, *zip(*params))
        for haps, (init, trans, emis), (have_ll, have) in zip(windows, params, stacked):
            want_ll, want = oracle.e_step_per_row(haps, init, trans, emis)
            assert have_ll == pytest.approx(want_ll, rel=1e-12, abs=0.0)
            for h, w in zip(have, want):
                np.testing.assert_allclose(h, w, rtol=1e-12, atol=0.0)
            alone_ll, alone = _weighted_e_step(haps, init, trans, emis)
            assert alone_ll == have_ll
            assert all(np.array_equal(a, h) for a, h in zip(alone, have))
            seen.add("last locus on the grid" if (haps.shape[1] - 1) % 16 == 0
                     else "last locus off the grid")
        seen.update("widths differ" for _ in [0] if len(set(widths)) > 1)
    assert seen == {"last locus on the grid", "last locus off the grid",
                    "widths differ"}


def _underflow_panel(rng):
    """A panel of 20 haplotypes x 64 loci, all allele 1 but at every eighth
    locus, and a start under which allele 1 there has emission about
    1e-30: 16 loci without a rescale take a row's mass below the least
    normal double."""
    n, k = 64, 3
    haps = np.ones((20, n), dtype=np.int8)
    haps[:, ::8] = rng.integers(0, 2, size=(20, n // 8))
    init, trans, emis = _initial_params(n, k, 0)
    tiny = np.ones(n, dtype=bool)
    tiny[::8] = False
    emis[tiny] = rng.uniform(0.5, 2.0, size=(tiny.sum(), k)) * 1e-30
    return haps, (init, trans, emis)


def test_underflowing_panel_falls_back_to_rescaling_every_locus(monkeypatch):
    rng = np.random.default_rng(34)
    haps, (init, trans, emis) = _underflow_panel(rng)
    want_ll, want = oracle.e_step_per_row(haps, init, trans, emis)
    have_ll, have = _weighted_e_step(haps, init, trans, emis)
    assert have_ll == pytest.approx(want_ll, rel=1e-12, abs=0.0)
    for h, w in zip(have, want):
        np.testing.assert_allclose(h, w, rtol=1e-12, atol=0.0)

    # stacked with a healthy panel, only the underflowing one falls back,
    # and each keeps its bits alone
    healthy = rng.integers(0, 2, size=(15, 50))
    h_init, h_trans, h_emis = _initial_params(50, 3, 1)
    masks, forward = [], training._forward
    monkeypatch.setattr(training, "_forward",
                        lambda *args: masks.append(args[-1].copy()) or forward(*args))
    stacked = _stacked_e_step([haps, healthy], [init, h_init], [trans, h_trans],
                              [emis, h_emis])
    first, again = masks
    assert not first[:, 0].all() and again[:, 0].all()
    assert np.array_equal(first[:, 1], again[:, 1])
    assert not again[:, 1].all()
    for (ll, stats), (ll_alone, alone) in zip(
            stacked, (_weighted_e_step(haps, init, trans, emis),
                      _weighted_e_step(healthy, h_init, h_trans, h_emis))):
        assert ll == ll_alone
        assert all(np.array_equal(a, b) for a, b in zip(stats, alone))

    # the fits from that start: no ZeroProbabilityError, and the same
    # bits stacked as alone
    monkeypatch.setattr(training, "_forward", forward)
    cfg = TrainConfig(founders=3, max_iterations=8)
    starts = [FounderHMM(init, trans, emis), None]
    fits = train_founder_hmms([haps, healthy], cfg, starts)
    assert fits[0][1].loglik_trace[0] == pytest.approx(want_ll, rel=1e-12, abs=0.0)
    for fit, panel, start in zip(fits, [haps, healthy], starts):
        assert _same_fit(fit, train_founder_hmms([panel], cfg, [start])[0])


def test_e_step_log_likelihood_adds_every_scale_bit_for_bit(monkeypatch):
    """The log-likelihood takes the logs of a window's scales at its
    rescale loci only, where the other scales are exactly 1: it is the sum
    over every locus bit for bit, for one-row windows too (whose sum NumPy
    runs pairwise) and for a window that falls back."""
    seen, forward = [], training._forward
    monkeypatch.setattr(training, "_forward",
                        lambda *args: seen.append(args[4]) or forward(*args))
    rng = np.random.default_rng(35)
    cases = [_underflow_panel(rng)]
    for trial in range(60):
        n, k = int(rng.integers(1, 150)), int(rng.integers(1, 6))
        pool = rng.integers(0, 2, size=(1 if trial % 3 == 0 else int(rng.integers(2, 6)), n))
        init, trans, _ = _initial_params(n, k, trial)
        cases.append((pool[rng.integers(0, len(pool), size=int(rng.integers(2, 20)))],
                      (init, trans, rng.uniform(0.02, 0.98, size=(n, k)))))
    rows = set()
    for haps, params in cases:
        loglik, _ = _weighted_e_step(haps, *params)
        distinct, counts = np.unique(haps, axis=0, return_counts=True)
        scales = seen[-1][:haps.shape[1], 0, :len(distinct)]
        assert loglik == float(np.log(scales).sum(axis=0) @ counts)
        rows.add(min(len(distinct), 2))
    assert rows == {1, 2}


def _e_step_outcome(e_step, inputs):
    """(log-likelihoods, statistics) of ``e_step`` on a stack's inputs, or
    the (window, locus, message) of the ZeroProbabilityError it raises."""
    try:
        return e_step(*inputs)
    except ZeroProbabilityError as err:
        return err.window, err.locus, str(err)


def test_e_step_matches_the_e_step_dividing_every_locus(monkeypatch):
    """The E-step on per-locus views, dividing only at rescale loci, gives
    the bits of the one that indexed every locus and divided them all: on
    300 random stacks of 1-3 windows of 1-79 loci, K of 1-6 and 1-11
    distinct rows, duplicates included. Every fifth stack has emissions of
    about 1e-30, which make a window fall back to rescaling at every locus,
    and every tenth an emission of 0 at one locus, which kills the rows
    with allele 1 there: the error names the same window, locus and row."""
    rng = np.random.default_rng(36)
    sweeps, forward = [], training._forward
    monkeypatch.setattr(training, "_forward",
                        lambda *args: sweeps.append(None) or forward(*args))
    seen = set()
    for trial in range(300):
        k = int(rng.integers(1, 7))
        tiny = trial % 5 == 0
        windows, params = [], []
        for _ in range(int(rng.integers(1, 4))):
            n = int(rng.integers(1, 80))
            pool = rng.random((int(rng.integers(1, 12)), n)) < (0.8 if tiny else 0.5)
            windows.append(pool[rng.integers(0, len(pool), size=int(rng.integers(1, 30)))])
            init, trans, _ = _initial_params(n, k, trial)
            emis = rng.uniform(0.02, 0.98, size=(n, k))
            if tiny:
                low = rng.random(n) < 0.8
                emis[low] = rng.uniform(0.5, 2.0, size=(low.sum(), k)) * 1e-30
                if trial % 10 == 0:
                    emis[rng.integers(n)] = 0.0
            params.append((init, trans, emis))
        inputs = _stacked_inputs(windows, *zip(*params))
        sweeps.clear()
        have = _e_step_outcome(_viewed_e_step, inputs)
        fresh = [np.empty_like(b) for b in inputs[-1]]
        want = _e_step_outcome(oracle.e_step_dividing_every_locus, (*inputs[:-1], fresh))
        if isinstance(want[0], list):
            assert have[0] == want[0]
            assert all(np.array_equal(h, w) for h, w in zip(have[1], want[1], strict=True))
            seen.add("fallback" if len(sweeps) == 2 else "rescale loci")
        else:
            assert have == want
            seen.add("zero likelihood")
        if len({h.shape[1] for h in windows}) > 1:
            seen.add("widths differ")
    assert seen == {"rescale loci", "fallback", "zero likelihood", "widths differ"}


def test_int8_and_int64_panels_give_the_same_fits():
    rng = np.random.default_rng(35)
    panels = random_symbol_matrices(rng, 0, 1, count=8)
    cfg = TrainConfig(founders=3, max_iterations=10)
    wide = train_founder_hmms([p.astype(np.int64) for p in panels], cfg)
    for a, b in zip(train_founder_hmms(panels, cfg), wide, strict=True):
        assert _same_fit(a, b)
    # checked before the panel is narrowed to one byte per allele
    for value in (2, 256, 257, -255):
        bad = np.zeros((3, 4), dtype=np.int64)
        bad[1, 2] = value
        with pytest.raises(InputError, match="matrices of alleles 0 and 1"):
            train_founder_hmms([bad], cfg)


def test_zero_likelihood_names_locus_and_lowest_haplotype():
    rng = np.random.default_rng(9)
    haps = np.zeros((10, 6), dtype=np.int64)
    haps[:, 3:] = rng.integers(0, 2, size=(10, 3))
    haps[3] = haps[7] = [0, 1, 1, 0, 1, 0]
    haps[9] = [0, 0, 1, 0, 0, 1]  # fails at the same locus, sorts first
    haps[1, 4] = 1  # fails too, but only at a later locus
    init, trans, emis = _initial_params(6, 3, 0)
    emis[2] = 0.0  # allele 1 has emission 0 at locus 2 ...
    emis[4] = 0.0  # ... and at locus 4
    haps[[0, 2, 4, 5, 6, 8], 4] = 0
    for e_step in (oracle.e_step_per_row, _weighted_e_step):
        with pytest.raises(ZeroProbabilityError,
                           match="panel haplotype 3 .* at locus 2;") as err:
            e_step(haps, init, trans, emis)
        assert err.value.locus == 2
    # two windows that both fail: the lower one's error is raised, even
    # though the upper one, four loci wide, fails at an earlier locus
    upper = np.array([[0, 1, 0, 1]] * 3)
    emis_upper = np.full((4, 3), 0.5)
    emis_upper[1] = 0.0
    with pytest.raises(ZeroProbabilityError,
                       match="panel haplotype 3 .* at locus 2;") as err:
        _stacked_e_step([haps, upper], [init, init], [trans, trans[:3]],
                        [emis, emis_upper])
    assert err.value.locus == 2 and err.value.window == 0
    with pytest.raises(ZeroProbabilityError,
                       match="panel haplotype 0 .* at locus 1;") as err:
        _stacked_e_step([upper, haps], [init, init], [trans[:3], trans],
                        [emis_upper, emis])
    assert err.value.locus == 1 and err.value.window == 0


def test_training_does_not_depend_on_panel_order():
    rng = np.random.default_rng(10)
    pool = rng.integers(0, 2, size=(6, 14)).astype(np.int8)
    panel = [HaplotypeSequence(f"h{j}", pool[j % 6]) for j in range(20)]
    shuffled = [panel[j] for j in rng.permutation(len(panel))]
    cfg = TrainConfig(founders=3, max_iterations=20, seed=4)
    m1, r1 = train_founder_hmm(panel, cfg)
    m2, r2 = train_founder_hmm(shuffled, cfg)
    assert r1 == r2
    assert np.array_equal(m1.initial, m2.initial)
    assert np.array_equal(m1.transitions, m2.transitions)
    assert np.array_equal(m1.emissions, m2.emissions)


def test_training_dedupe_matches_the_axis0_dedupe(monkeypatch):
    # each panel's (distinct rows, first panel index, count) triple, as the
    # lockstep fit receives it; duplicates, one row, one locus, all equal
    rng = np.random.default_rng(32)
    panels = random_symbol_matrices(rng, 0, 1)
    seen = []
    monkeypatch.setattr(training, "_stack_groups",
                        lambda windows, founders: seen.extend(windows) or [])
    training.train_founder_hmms(panels, TrainConfig(founders=2, seed=0))
    assert len(seen) == len(panels)
    for panel, (rows, first, counts) in zip(panels, seen):
        want_rows, want_first, _, want_counts = oracle.distinct_rows_axis0(
            panel.astype(np.int64))
        assert rows.dtype == np.int8 and np.array_equal(rows, want_rows)
        assert np.array_equal(first, want_first)
        assert np.array_equal(counts, want_counts)


def _window_sets(rng, count):
    """Random sets of windows: each a (haplotypes, loci) panel, 1 to 30
    loci wide (every fifth set starts with a width-1 window), with 1 to 40
    distinct rows, plus a founder count and an iteration cap."""
    for s in range(count):
        panels = []
        for j in range(int(rng.integers(3, 13))):
            width = 1 if j == 0 and s % 5 == 0 else int(rng.integers(1, 31))
            pool = rng.integers(0, 2, size=(int(rng.integers(1, 41)), width))
            panels.append(pool[rng.integers(0, len(pool),
                                            size=int(rng.integers(1, 60)))])
        yield panels, TrainConfig(founders=int(rng.integers(1, 7)),
                                  max_iterations=int(rng.integers(2, 30)),
                                  tolerance=1e-4, seed=s)


def test_stacked_fits_equal_fits_alone(monkeypatch):
    """Plain and accelerated; an accelerated fit with fewer trace entries
    than E-steps rejected an extrapolated point."""
    rng = np.random.default_rng(11)
    seen = set()
    for panels, plain in _window_sets(rng, 20):
        for cfg in (plain, replace(plain, accelerate=True)):
            mode = "accelerated " if cfg.accelerate else ""
            alone = [train_founder_hmm([HaplotypeSequence(f"h{j}", row)
                                        for j, row in enumerate(p)], cfg)
                     for p in panels]
            windows = [np.unique(p, axis=0, return_index=True, return_counts=True)
                       for p in panels]
            loci = max(p.shape[1] for p in panels)
            rows = max(w[0].shape[0] for w in windows)
            # stacks of one window each, of seven or more, and of all windows
            for cap, fits in ((0, lambda sizes: set(sizes) == {1}),
                              (_stack_bytes(loci, 7, cfg.founders, rows),
                               lambda sizes: min(sizes[:-1], default=7) >= 7),
                              (1 << 40, lambda sizes: sizes == [len(panels)])):
                monkeypatch.setattr(training, "_EM_STACK_BYTES", cap)
                sizes = [hi - lo for lo, hi in _stack_groups(windows, cfg.founders)]
                assert fits(sizes)
                if len(sizes) > 1 and sizes[0] > 1:
                    seen.add("several stacks of several windows")
                for (m1, r1), (m2, r2) in zip(alone, train_founder_hmms(panels, cfg),
                                              strict=True):
                    assert np.array_equal(m1.initial, m2.initial)
                    assert np.array_equal(m1.transitions, m2.transitions)
                    assert np.array_equal(m1.emissions, m2.emissions)
                    assert r1 == r2
            seen.update(mode + ("early" if r.converged else "capped")
                        for _, r in alone
                        if r.converged == (r.iterations_run < cfg.max_iterations))
            seen.update(mode + "rejected" for _, r in alone
                        if r.iterations_run > len(r.loglik_trace))
            seen.update(mode + "width 1" for p in panels if p.shape[1] == 1)
            seen.update(mode + "one row" for w in windows if w[0].shape[0] == 1)
    assert seen == {"early", "capped", "width 1", "one row",
                    "several stacks of several windows", "accelerated early",
                    "accelerated capped", "accelerated rejected",
                    "accelerated width 1", "accelerated one row"}


def test_stacked_fit_raises_what_fitting_in_order_would(monkeypatch):
    """A fault of one window stops only it and the windows above it: the
    error raised is the lowest failing window's, as if each were fitted in
    turn, however late in the lockstep it shows."""
    rng = np.random.default_rng(12)
    panels = [rng.integers(0, 2, size=(12, width)) for width in (3, 4, 5, 6)]
    cfg = TrainConfig(founders=2, max_iterations=20, tolerance=0.0)
    real_e_step, real_check = training._e_step, training._check_params
    steps, fail_at = {}, {4: 9, 6: 2}

    def e_step(stack, *args):
        result = real_e_step(stack, *args)
        for p, (rows, _, _) in enumerate(stack.windows):
            width = rows.shape[1]
            steps[width] = steps.get(width, 0) + 1
            if steps[width] == fail_at.get(width):
                err = ZeroProbabilityError(0, f"width {width} failed")
                err.window = p
                raise err
        return result

    monkeypatch.setattr(training, "_e_step", e_step)
    with pytest.raises(ZeroProbabilityError, match="width 4 failed"):
        train_founder_hmms(panels, cfg)
    # E-steps each window took part in: an E-step that raises is run again
    # for the windows below the fault, so width 3 takes part in 20 + 2
    assert steps == {3: 22, 4: 9, 5: 8, 6: 2}

    checks = []

    def check(init, trans, emis):
        checks.append(init.shape[0])
        if len(checks) == 5:
            err = RuntimeError("M-step fault")
            err.window = 2
            raise err
        real_check(init, trans, emis)

    steps.clear()
    fail_at.clear()
    monkeypatch.setattr(training, "_check_params", check)
    with pytest.raises(RuntimeError, match="M-step fault"):
        train_founder_hmms(panels, cfg)
    # windows 2 and 3 stop at the fifth update; 0 and 1 run to the cap
    assert checks == [4] * 5 + [2] * 15
    assert steps == {3: 20, 4: 20, 5: 5, 6: 5}


def _same_fit(a, b):
    (m1, r1), (m2, r2) = a, b
    return (r1 == r2 and np.array_equal(m1.initial, m2.initial)
            and np.array_equal(m1.transitions, m2.transitions)
            and np.array_equal(m1.emissions, m2.emissions))


def test_seeded_start_gives_the_cold_fit_bitwise():
    rng = np.random.default_rng(13)
    for width, k in ((1, 3), (9, 4), (17, 2)):
        panel = random_panel(rng, 25, width)
        cfg = TrainConfig(founders=k, max_iterations=15, seed=width)
        start = FounderHMM(*_initial_params(width, k, cfg.seed))
        assert _same_fit(train_founder_hmm(panel, cfg),
                         train_founder_hmm(panel, cfg, start=start))


def test_stacked_warm_fits_equal_warm_fits_alone(monkeypatch):
    rng = np.random.default_rng(14)
    seen = set()
    for panels, cfg in _window_sets(rng, 10):
        # every third panel takes the seeded start
        starts = [None if j % 3 == 2 else
                  random_model(rng, cfg.founders, p.shape[1])
                  for j, p in enumerate(panels)]
        for config in (cfg, replace(cfg, accelerate=True)):
            alone = [train_founder_hmms([p], config, [start])[0]
                     for p, start in zip(panels, starts)]
            for cap in (0, 1 << 40):
                monkeypatch.setattr(training, "_EM_STACK_BYTES", cap)
                for a, b in zip(alone, train_founder_hmms(panels, config, starts),
                                strict=True):
                    assert _same_fit(a, b)
        seen.update("width 1" for p in panels if p.shape[1] == 1)
        seen.update("one row" for p in panels if len(np.unique(p, axis=0)) == 1)
    assert seen == {"width 1", "one row"}


def test_start_must_match_the_fit():
    rng = np.random.default_rng(15)
    panel = rng.integers(0, 2, size=(6, 5))
    cfg = TrainConfig(founders=3)
    for start in (random_model(rng, 2, 5), random_model(rng, 3, 4)):
        with pytest.raises(InputError, match=rf"start model has "
                           rf"{start.founders} founders x {start.loci} loci, "
                           rf"but the fit has 3 founders x 5 loci"):
            train_founder_hmms([panel, panel], cfg, [None, start])
    with pytest.raises(InputError, match="1 start models for 2 panels"):
        train_founder_hmms([panel, panel], cfg, [None])


def test_zero_likelihood_start_raises_for_the_lowest_window():
    rng = np.random.default_rng(16)
    panels = [rng.integers(0, 2, size=(8, 6)) for _ in range(3)]
    starts = [random_model(rng, 2, 6) for _ in panels]
    # under the starts of panels 1 and 2, rows 2 and 5 have no mass at loci
    # 3 and 1: panel 1 is the lowest to fail, though at the later locus
    for j, locus in ((1, 3), (2, 1)):
        panels[j][:, locus] = 0
        panels[j][[2, 5], locus] = 1
        emis = starts[j].emissions.copy()
        emis[locus] = 0.0
        starts[j] = FounderHMM(starts[j].initial, starts[j].transitions, emis)
    cfg = TrainConfig(founders=2, max_iterations=5)
    with pytest.raises(ZeroProbabilityError,
                       match="panel haplotype 2 .* at locus 3;") as err:
        train_founder_hmms(panels, cfg, starts)
    assert err.value.locus == 3
