"""Exact inference: scaling conventions, oracle agreement, degeneracies."""
import numpy as np
import pytest

import oracle
from conftest import random_genotype, random_model
from founderhmm import (MISSING, FounderHMM, MultilocusGenotype,
                        ZeroProbabilityError, backward, backward_naive,
                        forward, forward_backward, forward_naive,
                        genotype_posteriors, inference, posterior_scan,
                        substitute, table_from_scan, total_log_likelihood)
from founderhmm.model import emission_stack


def test_single_locus_forward_scale_factor_is_one():
    # With one locus there is nothing upstream to condition on, so the
    # stored state is the prior pair belief and the only scale factor is
    # the unit normalizer of that prior.
    m = FounderHMM(initial=np.array([0.3, 0.7]),
                   transitions=np.empty((0, 2, 2)),
                   emissions=np.array([[0.2, 0.6]]))
    g = MultilocusGenotype("s", np.array([1], dtype=np.int8))
    f = forward(m, g)
    assert f.scale_factors.shape == (1,)
    assert f.scale_factors[0] == pytest.approx(1.0)
    assert f.matrices[0] == pytest.approx(np.outer(m.initial, m.initial))


def test_scale_factor_product_recovers_likelihood():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = random_model(rng, 3, 12)
        g = random_genotype(rng, 12, missing_rate=0.2)
        res = forward_backward(m, g)
        assert np.sum(np.log(res.scale_factors)) == pytest.approx(
            res.log_likelihood, rel=1e-12)
        assert res.log_likelihood == pytest.approx(
            total_log_likelihood(m, g), rel=1e-12)


def test_forward_states_are_unit_mass_beliefs():
    rng = np.random.default_rng(6)
    m = random_model(rng, 4, 9)
    g = random_genotype(rng, 9)
    f = forward(m, g)
    for i in range(9):
        assert f.matrices[i].sum() == pytest.approx(1.0, rel=1e-12)


def test_forward_matrices_are_founder_swap_symmetric():
    rng = np.random.default_rng(7)
    m = random_model(rng, 4, 10)
    g = random_genotype(rng, 10, missing_rate=0.1)
    f, b = forward(m, g), backward(m, g)
    for i in range(10):
        assert np.allclose(f.matrices[i], f.matrices[i].T, atol=1e-12)
        assert np.allclose(b.matrices[i], b.matrices[i].T, atol=1e-12)


def test_backward_terminal_state_is_uniform():
    rng = np.random.default_rng(8)
    m = random_model(rng, 3, 5)
    g = random_genotype(rng, 5)
    b = backward(m, g)
    assert np.array_equal(b.matrices[-1], np.ones((3, 3)))


def test_every_locus_combination_gives_same_likelihood():
    # Forward conditions on the prefix strictly before a locus and backward
    # on the suffix strictly after, so combining them with the emission at
    # that locus must reproduce P(g) at every locus.
    rng = np.random.default_rng(9)
    m = random_model(rng, 3, 8)
    g = random_genotype(rng, 8, missing_rate=0.25)
    want = np.exp(total_log_likelihood(m, g))
    scan = posterior_scan(m, g)
    for i in range(8):
        sym = int(g.symbols[i])
        if sym == MISSING:
            have = sum(scan.substituted_probability(i, x) for x in range(3))
        else:
            have = scan.substituted_probability(i, sym)
        assert have == pytest.approx(want, rel=1e-10)


def test_oracle_agreement_small_instances():
    rng = np.random.default_rng(10)
    for _ in range(15):
        k = int(rng.integers(1, 4))
        n = int(rng.integers(1, 6))
        m = random_model(rng, k, n)
        g = random_genotype(rng, n, missing_rate=0.2)
        want = oracle.genotype_probability(m, g.symbols)
        assert np.exp(total_log_likelihood(m, g)) == pytest.approx(want, rel=1e-10)
        triples, _ = oracle.substituted_probabilities(m, g.symbols)
        scan = posterior_scan(m, g)
        for i in range(n):
            for x in range(3):
                assert scan.substituted_probability(i, x) == pytest.approx(
                    triples[i, x], rel=1e-9)


def test_collapsed_equals_unfactored():
    rng = np.random.default_rng(11)
    for _ in range(6):
        k = int(rng.integers(2, 5))
        n = int(rng.integers(2, 30))
        m = random_model(rng, k, n)
        g = random_genotype(rng, n, missing_rate=0.1)
        fast_f, slow_f = forward(m, g), forward_naive(m, g)
        fast_b, slow_b = backward(m, g), backward_naive(m, g)
        assert np.allclose(fast_f.matrices, slow_f.matrices, atol=1e-12)
        assert np.allclose(fast_f.scale_factors, slow_f.scale_factors, rtol=1e-12)
        assert np.allclose(fast_b.matrices, slow_b.matrices, atol=1e-12)
        assert np.allclose(fast_b.scale_factors, slow_b.scale_factors, rtol=1e-12)


def test_posterior_rows_normalize():
    rng = np.random.default_rng(12)
    m = random_model(rng, 4, 20)
    g = random_genotype(rng, 20, missing_rate=0.3)
    table = genotype_posteriors(m, g)
    probs = np.asarray(table.probs)
    assert probs.shape == (20, 3)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    assert (probs >= 0).all()


def test_missing_marginalization_identity():
    rng = np.random.default_rng(13)
    m = random_model(rng, 3, 9)
    g = random_genotype(rng, 9)
    scan = posterior_scan(m, g)
    for i in range(9):
        blanked = substitute(g, i, MISSING)
        marginal = np.exp(total_log_likelihood(m, blanked))
        summed = sum(scan.substituted_probability(i, x) for x in range(3))
        assert summed == pytest.approx(marginal, rel=1e-10)


def test_all_missing_genotype_has_unit_probability():
    rng = np.random.default_rng(14)
    m = random_model(rng, 3, 7)
    g = MultilocusGenotype("s", np.full(7, MISSING, dtype=np.int8))
    assert total_log_likelihood(m, g) == pytest.approx(0.0, abs=1e-12)


def _impossible_instance():
    # One founder whose minor-allele probability is 0 at locus 1: observing
    # symbol 2 there has probability exactly zero.
    m = FounderHMM(initial=np.array([1.0]),
                   transitions=np.ones((2, 1, 1)),
                   emissions=np.array([[0.5], [0.0], [0.5]]))
    g = MultilocusGenotype("s", np.array([1, 2, 0], dtype=np.int8))
    return m, g


def test_zero_probability_raises_with_locus():
    m, g = _impossible_instance()
    with pytest.raises(ZeroProbabilityError) as err:
        forward(m, g)
    assert err.value.locus == 1
    for sweep in (backward, forward_backward):
        with pytest.raises(ZeroProbabilityError) as err:
            sweep(m, g)
        assert err.value.locus == 1


def test_zero_probability_likelihood_is_neg_inf():
    m, g = _impossible_instance()
    assert total_log_likelihood(m, g) == -np.inf


def test_scan_tolerates_zero_and_localizes_culprit():
    m, g = _impossible_instance()
    scan = posterior_scan(m, g)
    # at the impossible locus, substituting 0 or 1 rescues the genotype
    assert scan.substituted_probability(1, 2) == 0.0
    assert scan.substituted_probability(1, 0) > 0.0
    # elsewhere no substitution can help
    for x in range(3):
        assert scan.substituted_probability(0, x) == 0.0
    with pytest.raises(ZeroProbabilityError) as err:
        table_from_scan(scan)
    assert err.value.locus == 0


def test_corpus_loci_must_match_model():
    rng = np.random.default_rng(15)
    m = random_model(rng, 2, 5)
    g = random_genotype(rng, 4)
    from founderhmm import InputError
    with pytest.raises(InputError):
        forward(m, g)


def test_max_dot_matches_the_per_founder_loop_bitwise():
    rng = np.random.default_rng(31)
    for trial in range(400):
        k, rows = int(rng.integers(1, 13)), int(rng.integers(1, 131))
        hit, t = rng.random((rows, k, k)), rng.random((k, k))
        if trial % 3 == 0:  # ties within a candidate set
            hit, t = np.round(hit, 1), np.round(t, 1)
        if trial % 4 == 0:
            hit[rng.integers(rows, size=rows // 3 + 1)] = 0.0  # all-zero rows
        for x in (hit.transpose(2, 0, 1), hit.transpose(1, 0, 2).copy()):
            want, want_arg = oracle.max_dot_per_founder(x, t)
            got, got_arg = inference._max_dot(x, t)
            assert got.dtype == want.dtype and got_arg.dtype == want_arg.dtype
            assert got.tobytes() == want.tobytes()
            assert np.array_equal(got_arg, want_arg)


def _row_planes(rng, model, rows, dead):
    """(rows, n) emission planes of random genotypes; with ``dead``, the
    model gives no mass to row 0 from its third locus on."""
    symbols = rng.choice([0, 1, 2, MISSING], size=(rows, model.loci))
    if dead:
        symbols[0, 2] = 2
        model = FounderHMM(model.initial, model.transitions,
                           np.where(np.arange(model.loci)[:, None] == 2, 0.0,
                                    model.emissions))
    return model, inference._planes(symbols)


@pytest.mark.parametrize("rows", [1, 64])
def test_walk_logs_and_viterbi_scales_are_running_sums(rows):
    """Both walks sum their logs after the walk; the sums must be those of
    a running total in depth order, not a pairwise sum, for one row as for
    many."""
    rng = np.random.default_rng(32)
    for dead in (False, True):
        model, planes = _row_planes(rng, random_model(rng, 4, 400), rows, dead)
        etab = emission_stack(model)
        prior = np.outer(model.initial, model.initial)
        _, logs, masses = inference._walk(etab, model.transitions, planes.T,
                                          np.repeat(prior[None], rows, axis=0), 0.5)
        running = np.full(rows, 0.5)
        with np.errstate(divide="ignore"):
            for d in range(model.loci):
                assert logs[d].tobytes() == running.tobytes()
                running = running + np.log(masses[d])
        assert logs[-1].tobytes() == running.tobytes()
        assert np.isneginf(logs[-1, 0]) == dead

        # phasing's walk one depth at a time, with the per-founder max-dot
        value = np.repeat(prior[None], rows, axis=0)
        running, want_dead = np.zeros(rows), np.full(rows, -1)
        for d, t in enumerate([*model.transitions, None]):
            hit = value * etab[d][planes[:, d]]
            peak = hit.max(axis=(1, 2))
            hit /= np.maximum(peak, inference._LEAST)[:, None, None]
            running = running + np.log(np.where(peak > 0.0, peak, 1.0))
            want_dead[(peak <= 0.0) & (want_dead < 0)] = d
            if t is not None:
                half, _ = oracle.max_dot_per_founder(hit.transpose(2, 0, 1), t)
                full, _ = oracle.max_dot_per_founder(half.transpose(2, 1, 0), t)
                value = full.transpose(1, 0, 2)
        _, logscale, first_dead, _ = inference._viterbi_rows(model, etab, planes)
        assert logscale.tobytes() == running.tobytes()
        assert np.array_equal(first_dead, want_dead)
        assert (first_dead[0] == 2) == dead


def test_fused_step_matches_two_stacked_steps_bitwise():
    """One (2, B, K, K) step through (2, 1, K, K) factors is two (B, K, K)
    steps, whether a step's factor is a transposed view or contiguous, and
    with dead beliefs."""
    rng = np.random.default_rng(33)
    for trial in range(400):
        k, rows = int(rng.integers(1, 13)), int(rng.integers(1, 131))
        states, emats = rng.random((2, 2, rows, k, k))
        if trial % 4 == 0:
            states[:, rng.integers(rows, size=rows // 3 + 1)] = 0.0
        forward, backward = rng.dirichlet(np.ones(k), size=(2, k))
        factors = np.stack((forward, backward.T))[:, None]
        for t in (factors, None):
            fused, masses = inference._step(states, emats, t)
            for half in (0, 1):
                # the half's factor as stacked, and the same values in the other layout
                alone = [None] if t is None else [t[half, 0], t[half, 0].T.copy().T]
                for factor in alone:
                    want, want_masses = inference._step(states[half], emats[half], factor)
                    assert want.tobytes() == fused[half].tobytes()
                    assert want_masses.tobytes() == masses[half].tobytes()
