"""Baum-Welch training of the founder chain from a haplotype panel.

The chain is fit on single haplotypes; a genotype model simply runs two
copies of the fitted chain, so the trained parameters double as the
founder-pair model. Expected counts are additive over haplotypes, so EM
runs on the panel's distinct rows, each weighted by how often it occurs:
the same estimator, with per-locus work proportional to distinct rows
(fastPHASE fits its founder clusters the same way). One byte sort finds
the rows in lexicographic order, so the fit is independent of panel order.

One E-step serves every fit. It runs on a stack of W panels, the windows
of an imputation or a single panel (W = 1), laid out founder-major as
(loci, W, K, rows) float64 arrays. A panel's rows past its own are copies
of its first row at count 0, and its loci past its own width have
emission 1, identity transitions and a scale of exactly 1, so padding
changes no bit. The forward and backward sweeps run over the whole stack;
every sum over rows (log-likelihood, transition and emission counts) runs
per panel on its own rows, with the same NumPy calls as for that panel
alone. The forward sweep rescales a panel only every ``_RESCALE_EVERY``
(16) loci and at its own last locus. Where one panel of the stack rescales
and another does not, the other's scale is set to exactly 1 before the
divide, as at padded loci. A fit therefore gives the same bits whatever
stack it is in (stacks hold at least two rows: a one-row stack would round
differently). The emissions, too, are divided by the scales only at loci
where some panel of the stack rescales: every other scale is exactly 1,
and x / 1 is x. The sweeps step lists of per-locus views, made once per
E-step, through NumPy calls with positional outputs; a stack of one panel
steps 2-D views, whose products ``np.dot`` takes by the same BLAS call as
``np.matmul``, with less overhead per call. Between two rescales a row's
mass can only shrink, at each locus by a factor no smaller than its least
emission probability; a panel whose mass falls under ``_SCALE_FLOOR``
(2**-900) at a rescale locus, which at the default pseudocount only an
odd start can cause, runs its sweep again rescaled at every locus, while
the rest of its stack keeps its rescale loci and bits. Each panel keeps
its own start, trace, convergence test and cap. When every panel of a
stack is still running, the fit loop indexes the stacked parameters and
counts with slices, so that it views them instead of gathering copies.

Acceleration. A config with ``accelerate`` set runs the SqS3 cycle of
SQUAREM (Varadhan & Roland 2008, Scand. J. Stat. 35:335) in the same loop:
two EM steps, theta0 -> theta1 -> theta2; the point theta' = theta0 -
2 alpha r + alpha**2 v, with r = theta1 - theta0, v = theta2 - 2 theta1 +
theta0 and alpha = -|r| / |v| capped at -1, clipped back into the
parameter space; then one EM step from theta'. When theta' scores below
theta1, the cycle falls back to theta2. Plain EM is the same loop with the
extrapolation skipped. Each panel's alpha comes from its own slices, so
an accelerated fit, too, is bitwise the same in any stack. ``max_iterations``
and ``TrainReport.iterations_run`` count E-steps, and the trace holds only
accepted iterates: it has one entry fewer than E-steps per rejected point.
Only the repair flow's bootstrap and pooled typed fits accelerate
(:func:`bootstrap_config`, :func:`pooled_config`). ``train`` stays plain
EM, bit for bit: accelerated at ``--max-iterations 30`` (in E-steps), its
models lowered the recovered corpus' concordance of the ``scan-distinct``
benchmark workload on 8 of 8 seeds (seed 1: 0.99256 to 0.99102), and its
flag precision (0.370 to 0.309). The imputation windows stay plain too
(:func:`window_config`): accelerated, or plain to 100 iterations, they fit
closer than at today's cap and break acceptance criterion 7, bigger panels
doing worse (discordance 0.0463 at a panel of 120, 0.0537 at 240).

Memory. A panel is trained on its int8 alleles, one byte per allele, with
no wider copy; finding its distinct rows takes about four more bytes per
allele for a moment (the byte keys and the sorted copies of np.unique),
and the distinct rows are int8 too. The E-step of a stack of W panels of
at most L loci and R distinct rows holds, as float64:

- the alphas and the emission probabilities, L x W x K x R each;
- the betas of about sqrt(L) loci at a time, (isqrt(L) + 1) x W x K x R;
- the scales, L x W x R;
- the allele mask, for the emission counts, L x W x R;

and one byte each of the allele mask, L x W x R, and of the rescale mask,
L x W: about (2K + 2) x L x W x R x 8 bytes. The buffers are allocated
once per fit, and the masks with the stack, again each time it sheds the
panels that have stopped. The expected counts of each E-step add L x W x
K x (K + 2) x 8 bytes, its view lists four Python objects per locus, and
its log-likelihood two copies of a panel's scales at its rescale loci, L
/ 16 x R x 8 bytes each (all L loci after a fallback or for one distinct
row).
The parameters of a stack, and the two copies of them that a cycle keeps
(theta0 and theta2), take about (K + 1) x L x W x K x 8 bytes each.
Panels are stacked, in order, as many as fit in ``_EM_STACK_BYTES`` (16
MiB), and at least one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .model import (ALLELE_SYMBOLS, FounderHMM, HaplotypePanel, InputError,
                    ZeroProbabilityError)
from .trie import _distinct_rows

# Byte cap on the E-step arrays of one stack of windows that EM fits in
# lockstep; the grouping changes the pace, never the answer.
_EM_STACK_BYTES = 16 << 20
# The E-step's forward sweep rescales a window at loci i = 0 (mod
# _RESCALE_EVERY) and at its last locus; a window with a scale under
# _SCALE_FLOOR at one of those loci rescales at every locus instead.
_RESCALE_EVERY = 16
_SCALE_FLOOR = 2.0 ** -900
# Least probability of an extrapolated point of an accelerated fit.
_FLOOR = 1e-10


@dataclass(frozen=True)
class TrainConfig:
    """Baum-Welch hyperparameters.

    tolerance is a relative log-likelihood improvement threshold (with an
    absolute floor of 1 so near-zero log-likelihoods behave); pseudocount is
    smoothing mass added to every expected-count cell, keeping parameters
    off the hard 0/1 boundary whenever it is positive. accelerate runs EM
    in SqS3 cycles (see the module docstring); max_iterations counts
    E-steps either way.
    """

    founders: int
    max_iterations: int = 100
    tolerance: float = 1e-5
    seed: int = 0
    pseudocount: float = 1e-6
    accelerate: bool = False

    def __post_init__(self):
        if self.founders < 1:
            raise InputError("founders must be >= 1")
        if self.max_iterations < 1:
            raise InputError("max_iterations must be >= 1")
        if not self.tolerance >= 0:
            raise InputError(f"tolerance must be >= 0, got {self.tolerance}")
        if not 0 <= self.pseudocount < float("inf"):
            raise InputError(
                f"pseudocount must be finite and >= 0, got {self.pseudocount}")
        # the M-step normalizes sums of K (or two) pseudocounts; the factor
        # 2 leaves room for the expected counts and for rounding
        if not 2.0 * max(self.founders, 2) * self.pseudocount < float("inf"):
            raise InputError(
                f"pseudocount {self.pseudocount} is too large for "
                f"{self.founders} founders: the M-step's sums would overflow")
        if not self.seed >= 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class TrainReport:
    iterations_run: int
    loglik_trace: tuple
    converged: bool


def _panel_matrix(panel) -> np.ndarray:
    panel = HaplotypePanel.of(panel)
    if not panel:
        raise InputError("training panel must be non-empty")
    return panel.matrix


def _initial_params(n, k, seed):
    """Seeded starting point: emissions uniform in [0.1, 0.9]; initial and
    transition rows uniform with +/-5% jitter, renormalized."""
    rng = np.random.default_rng(seed)
    emis = rng.uniform(0.1, 0.9, size=(n, k))
    init = (1.0 + rng.uniform(-0.05, 0.05, size=k)) / k
    init /= init.sum()
    trans = (1.0 + rng.uniform(-0.05, 0.05, size=(max(n - 1, 0), k, k))) / k
    trans /= trans.sum(axis=2, keepdims=True)
    return init, trans, emis


class _Stack(NamedTuple):
    """The distinct panel rows of W windows, padded to one shape.

    ``ones`` is the founder-major (loci, W, rows) mask of allele 1, and
    ``ones_f`` the same mask as float64, for the emission counts. Rows past
    a window's own are copies of its first row, at weight 0, and loci past
    its width are flagged in the (loci, W) ``padding``; ``rescale`` marks
    each window's rescale loci (i = 0 mod ``_RESCALE_EVERY`` and its last
    locus), and ``windows`` keeps each window's (distinct rows, first panel
    index, count) triple.
    """

    ones: np.ndarray
    ones_f: np.ndarray
    weights: np.ndarray
    padding: np.ndarray
    rescale: np.ndarray
    windows: tuple


def _stack(windows, rows=2) -> _Stack:
    """Stack of ``windows``, padded to at least ``rows`` rows; a stack of
    one row would take other code paths in NumPy and round differently."""
    n = max(distinct.shape[1] for distinct, _, _ in windows)
    r = max(rows, *(distinct.shape[0] for distinct, _, _ in windows))
    ones = np.ones((n, len(windows), r), dtype=bool)
    weights = np.zeros((len(windows), r))
    padding = np.ones((n, len(windows)), dtype=bool)
    for p, (distinct, _, counts) in enumerate(windows):
        m, width = distinct.shape
        ones[:width, p, :m] = distinct.T == 1
        ones[:width, p, m:] = distinct[0, :, None] == 1
        weights[p, :m] = counts
        padding[:width, p] = False
    locus = np.arange(n)[:, None]
    widths = np.array([distinct.shape[1] for distinct, _, _ in windows])
    rescale = ((locus % _RESCALE_EVERY == 0) & ~padding) | (locus == widths - 1)
    return _Stack(ones, ones.astype(float), weights, padding, rescale,
                  tuple(windows))


def _buffer_shapes(loci, windows, k, rows):
    """Shapes of the E-step arrays of a stack: the alphas, the emissions,
    the betas of a chunk of about sqrt(loci) loci, and the scales."""
    full = (loci, windows, k, rows)
    return full, full, (math.isqrt(loci) + 1, windows, k, rows), (loci, windows, rows)


def _stack_bytes(loci, windows, k, rows):
    """Bytes of the E-step arrays of a stack and of its allele masks."""
    rows = max(rows, 2)
    return (8 * sum(math.prod(s) for s in _buffer_shapes(loci, windows, k, rows))
            + 9 * windows * loci * rows)


def _locus_ops(scales, flat):
    """The product and the per-locus scale divisors of sweeps over 3-D
    per-locus views, or over the 2-D ones of a stack of one window, whose
    products ``np.dot`` takes by the same BLAS call as ``np.matmul``, with
    less overhead per call."""
    return (np.dot, scales) if flat else (np.matmul, scales[:, :, None, :])


def _forward(alphas, eprobs, init, trans_t, scales, rescale):
    """Forward sweep over a stack that divides a panel's alphas by their
    sums, its scales, at the loci that the (loci, W) mask ``rescale``
    marks for it; every other scale is exactly 1. ``alphas``, ``eprobs``
    and ``trans_t`` are lists of per-locus views, of shapes (W, K, rows)
    and (W, K, K), or (K, rows) and (K, K) for a stack of one window;
    ``scales`` is the (loci, W, rows) array. Returns, for each locus,
    whether some window rescales there."""
    at = rescale.any(axis=1)
    scales[~at] = 1.0
    flat = alphas[0].ndim == 2
    product, divisors = _locus_ops(scales, flat)
    mixed = (at & ~rescale.all(axis=1)).tolist()
    at = at.tolist()

    def rescaled(i, a):
        np.add.reduce(a, axis=-2, out=divisors[i], keepdims=True)
        if mixed[i]:
            scales[i, ~rescale[i]] = 1.0
        np.divide(a, divisors[i], a)

    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.multiply(init.T if flat else init[:, :, None], eprobs[0], alphas[0])
        if at[0]:
            rescaled(0, a)
        for i, t, e, nxt in zip(range(1, len(at)), trans_t, eprobs[1:], alphas[1:]):
            a = np.multiply(product(t, a, nxt), e, nxt)
            if at[i]:
                rescaled(i, a)
    return at


def _e_step(stack: _Stack, init, trans, emis, buffers):
    """One scaled forward-backward over a stack of windows.

    Parameters are stacked too: init (W, K), trans (loci - 1, W, K, K) and
    emis (loci, W, K), with identity transitions and emission 1 at padded
    loci, whose scale is exactly 1 so that they pass the sweeps through
    unchanged. ``buffers`` are the arrays of :func:`_buffer_shapes`,
    reused across E-steps. Expected counts are additive over haplotypes,
    so each row's statistics are weighted by its count. The sweeps run over
    the whole stack, locus by locus, on lists of per-locus views made once
    per call (2-D views, multiplied by ``np.dot``, for a stack of one
    window); the stack brings its rescale loci and a float64 copy of its
    allele mask, which the emission counts take at less cost than the bool
    mask, to the same bits. Every sum over rows runs per window,
    on its own rows, after the backward sweep, so a window's result does
    not depend on the stack it is in; the betas that the gammas need are
    then worked out again, a chunk of loci at a time, not kept for every
    locus.

    The forward sweep rescales a window only at loci i = 0 (mod
    ``_RESCALE_EVERY``) and at its own last locus; elsewhere its scale is
    exactly 1, and a locus costs a matmul and a multiply. Where one window
    rescales and another does not, the other's scale is set to 1 before
    the divide, as at padded loci: dividing by 1 is exact, so a window's
    bits still do not depend on its stack. For the same reason the
    backward sweep divides a locus's emissions by its scales only where
    some window rescales, a divide per rescale locus rather than one over
    the whole array. Any positive scales give the
    same estimator, as long as the last locus is rescaled (Rabiner 1989,
    section V-A): the log-likelihood is the sum of the logs of the scales,
    and the backward sweep and the counts divide by the same scales.
    Between two rescales a row's mass cannot grow, up to rounding
    (transition rows sum to 1, emissions are at most 1), so a block's
    least mass is its scale at the block's end; with every emission at
    least e, that is at least e**16. The M-step keeps emissions at least
    pseudocount / (haplotypes + 2 pseudocount) away from 0 and 1, so at
    the default pseudocount, on any panel of fewer than 10**10 haplotypes,
    the block's mass stays above ``_SCALE_FLOOR`` (2**-900, a normal
    double), and only an odd start or a zero pseudocount can bring it
    lower. A window with a scale below the floor, or 0 or NaN, at one of
    its rescale loci then falls back to rescaling at every locus, and the
    sweep runs again; the other windows keep their rescale loci and their
    bits.

    Returns the log-likelihood of each window and the stacked expected-count
    statistics. A window whose row has zero likelihood (a zero scale in the
    sweep that rescales at every locus) raises ZeroProbabilityError for the
    lowest such window, with ``window`` set to its place in the stack.
    """
    n, w, r = stack.ones.shape
    alphas, eprobs, betas, scales = (b[:n, :w] for b in buffers)
    np.copyto(eprobs, (1.0 - emis)[..., None])
    np.copyto(eprobs, emis[..., None], where=stack.ones[:, :, None, :])

    rescale = stack.rescale
    # the sweeps step per-locus views, made once per E-step, 2-D for a
    # stack of one window (see _locus_ops)
    views = (lambda x: list(x[:, 0])) if w == 1 else list
    alpha_at, eprob_at, trans_at, trans_t = map(views, (
        alphas, eprobs, trans, trans.transpose(0, 1, 3, 2)))
    divide_at = _forward(alpha_at, eprob_at, init, trans_t, scales, rescale)
    # every scale off a window's rescale loci is 1; NaN fails the test too
    if not scales.min() >= _SCALE_FLOOR:
        fall = ~(scales.min(axis=(0, 2)) >= _SCALE_FLOOR)
        rescale = rescale.copy()
        rescale[:, fall] = ~stack.padding[:, fall]
        divide_at = _forward(alpha_at, eprob_at, init, trans_t, scales, rescale)
        # a row whose mass vanishes at locus i has scale 0 there and NaN
        # after, so a window's first locus with a zero scale is where its
        # first row failed; padded rows copy a real row and fail only with it
        failed = scales <= 0.0
        dead = failed.any(axis=2)
        if dead.any():
            p = int(np.argmax(dead.any(axis=0)))
            i = int(np.argmax(dead[:, p]))
            _, first, counts = stack.windows[p]
            bad = int(first[failed[i, p, :counts.size]].min())
            err = ZeroProbabilityError(
                i, f"panel haplotype {bad} has zero likelihood at locus {i}; "
                   f"use a positive pseudocount")
            err.window = p
            raise err

    # the emissions are divided by the scales where some window rescales;
    # every other scale is 1, and x / 1 is x. Locus 0's are not used again
    product, divisors = _locus_ops(scales, w == 1)
    alphas *= stack.weights[:, None, :]
    beta = views(betas)[0]
    beta[...] = 1.0
    for i, e, t in zip(range(n - 1, 0, -1), eprob_at[:0:-1], trans_at[::-1]):
        if divide_at[i]:
            np.divide(e, divisors[i], e)
        product(t, np.multiply(e, beta, e), beta)

    k = init.shape[1]
    logliks = []
    # padded loci hold harmless counts; the caller resets their parameters
    trans_counts = np.broadcast_to(np.eye(k), (max(n - 1, 0), w, k, k)).copy()
    emis_ones = np.ones((n, w, k))
    emis_total = np.ones((n, w, k))
    for p, (rows, _, counts) in enumerate(stack.windows):
        m, width = rows.shape
        # the other scales are exactly 1: their logs, added in locus order,
        # change no bit. A one-row sum runs pairwise, so it takes them all
        at = rescale[:, p] if m > 1 else slice(width)
        logliks.append(float(np.log(scales[at, p, :m]).sum(axis=0) @ counts))
        np.matmul(alphas[:width - 1, p, :, :m],
                  eprobs[1:width, p, :, :m].transpose(0, 2, 1),
                  out=trans_counts[:width - 1, p])
    trans_counts *= trans
    # weighted gammas: the betas again, from the same products as in the
    # sweep, so the same bits (the last locus has beta 1)
    step = betas.shape[0]
    for lo in range(0, n - 1, step):
        hi = min(lo + step, n - 1)
        alphas[lo:hi] *= np.matmul(trans[lo:hi], eprobs[lo + 1:hi + 1],
                                   out=betas[:hi - lo])
    for p, (rows, _, _) in enumerate(stack.windows):
        m, width = rows.shape
        np.add.reduce(alphas[:width, p, :, :m], axis=2, out=emis_total[:width, p])
        np.einsum("ikr,ir->ik", alphas[:width, p, :, :m],
                  stack.ones_f[:width, p, :m], out=emis_ones[:width, p])
    return logliks, (emis_total[0], trans_counts, emis_ones, emis_total)


def _row_sums(x):
    """``x.sum(axis=-1, keepdims=True)``, bit for bit. Below 8 terms NumPy
    adds a last axis in index order, one loop per row; column adds in that
    order give the same bits in a few whole-array calls. From 8 terms on
    NumPy adds pairwise, and its own sum is kept."""
    if x.shape[-1] >= 8:
        return x.sum(axis=-1, keepdims=True)
    columns = np.moveaxis(x, -1, 0)
    total = columns[0].copy()
    for column in columns[1:]:
        total += column
    return total[..., None]


def _m_step(stats, pseudocount):
    init_counts, trans_counts, emis_ones, emis_total = stats
    init = init_counts + pseudocount
    init /= _row_sums(init)
    trans = trans_counts + pseudocount
    trans /= _row_sums(trans)
    emis = (emis_ones + pseudocount) / (emis_total + 2.0 * pseudocount)
    # the E-step sums the two counts in different orders, so where every
    # haplotype carries allele 1 the ratio may round a hair above one
    np.minimum(emis, 1.0, out=emis)
    return init, trans, emis


def _check_params(init, trans, emis):
    """Guard every M-step of a stack of windows, shaped as in
    :func:`_e_step`. A failure here is a fault of the update, not of the
    input, so it raises RuntimeError, for the lowest invalid window, with
    ``window`` set to its place in the stack."""
    atol = 1e-9
    init_dev, trans_dev = (np.abs(_row_sums(x)[..., 0] - 1.0) for x in (init, trans))
    # whole-array tests first, which a NaN fails too
    if (init.min() >= 0.0 and trans.min(initial=0.0) >= 0.0
            and emis.min() >= 0.0 and emis.max() <= 1.0
            and init_dev.max() <= atol and trans_dev.max(initial=0.0) <= atol):
        return
    bad = np.stack([
        ~(np.all(init >= 0, axis=1) & (init_dev <= atol)),
        ~(np.all(trans >= 0, axis=(0, 2, 3)) & np.all(trans_dev <= atol, axis=(0, 2))),
        ~np.all((emis >= 0.0) & (emis <= 1.0), axis=(0, 2)),
    ])
    p = int(np.argmax(bad.any(axis=0)))
    err = RuntimeError(("M-step left an invalid initial distribution",
                        "M-step left non-stochastic transitions",
                        "M-step left emissions outside [0, 1]",
                        )[int(np.argmax(bad[:, p]))])
    err.window = p
    raise err


def _stack_groups(windows, k):
    """[start, stop) ranges of consecutive windows whose E-step arrays fit
    in ``_EM_STACK_BYTES`` together; a window too large alone gets a stack
    of its own."""
    groups = []
    start, loci, rows = 0, 0, 0
    for j, (distinct, _, _) in enumerate(windows):
        m, width = distinct.shape
        if j > start and _stack_bytes(max(loci, width), j - start + 1, k,
                                      max(rows, m)) > _EM_STACK_BYTES:
            groups.append((start, j))
            start, loci, rows = j, 0, 0
        loci, rows = max(loci, width), max(rows, m)
    return groups + [(start, len(windows))] if windows else []


def _places(at, size):
    """Index of the windows ``at`` of a stack of ``size``, given as sorted
    places or as a bool mask: a slice when that is every window, so that
    indexing views rather than copies."""
    index = np.asarray(at)
    every = index.all() if index.dtype == bool else index.size == size
    return slice(None) if index.ndim == 1 and every else at


def _take(params, at, loci):
    """The (init, trans, emis) of the windows ``at`` of stacked parameters,
    on a stack's first ``loci`` loci."""
    init, trans, emis = params
    at = _places(at, len(init))
    return init[at], trans[:loci - 1, at], emis[:loci, at]


def _put(params, at, loci, values):
    """Set the windows ``at`` of stacked parameters, as :func:`_take`."""
    init, trans, emis = params
    at = _places(at, len(init))
    init[at], trans[:loci - 1, at], emis[:loci, at] = values


def _square_norms(params):
    """Squared norm of each window's stacked (init, trans, emis), whose
    padded entries are all 0. The squares are added in sequence, so the 0
    entries, wherever the stack puts them, change no bit."""
    init, trans, emis = params
    flat = np.concatenate([init, *(np.moveaxis(x, 1, 0).reshape(len(init), -1)
                                   for x in (trans, emis))], axis=1)
    return np.cumsum(flat * flat, axis=1)[:, -1]


def _extrapolate(theta0, theta1, theta2, padding):
    """The SqS3 point (Varadhan & Roland 2008) of each of a stack's windows,
    from its iterates theta0, theta1 = EM(theta0) and theta2 = EM(theta1),
    each an (init, trans, emis) triple shaped as in :func:`_e_step`.

    With r = theta1 - theta0 and v = theta2 - 2 theta1 + theta0, the point
    is theta0 - 2 alpha r + alpha**2 v, where alpha = -|r| / |v|, capped at
    -1 (alpha = -1 gives theta2). The iterates agree at padded loci, so r
    and v are 0 there, and each window's alpha is that of its own slices.
    The point's probabilities are clipped to at least 1e-10 and
    renormalised, its emissions kept in [1e-10, 1 - 1e-10], and its padded
    loci reset to identity transitions and emission 1, which clipping
    would break.
    """
    r = [b - a for a, b in zip(theta0, theta1)]
    v = [c - 2.0 * b + a for a, b, c in zip(theta0, theta1, theta2)]
    r2, v2 = _square_norms(r), _square_norms(v)
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = np.where(v2 > 0.0, np.minimum(-np.sqrt(r2) / np.sqrt(v2), -1.0),
                         -1.0)
    init, trans, emis = (a - 2.0 * s * b + s * s * c for a, b, c, s in zip(
        theta0, r, v, (alpha[:, None], alpha[:, None, None], alpha[:, None])))
    init, trans = (np.maximum(x, _FLOOR) for x in (init, trans))
    init /= _row_sums(init)
    trans /= _row_sums(trans)
    np.clip(emis, _FLOOR, 1.0 - _FLOOR, out=emis)
    trans[padding[1:]] = np.eye(init.shape[1])
    emis[padding] = 1.0
    return init, trans, emis


def _fit_stack(windows, config: TrainConfig, starts):
    """Lockstep EM over a stack of windows; see :func:`train_founder_hmms`.

    Each window runs in cycles: E-steps at theta0 and at theta1 = EM(theta0),
    then, under ``config.accelerate`` and with an E-step left under its cap,
    one at the point :func:`_extrapolate` makes of theta0, theta1 and theta2
    = EM(theta1), whose update starts the next cycle. A point that scores
    below theta1 is left out of the trace, and the next cycle starts from
    theta2 instead, as it always does in plain EM.
    """
    k = config.founders
    stack = _stack(windows)
    n, w, r = stack.ones.shape
    buffers = tuple(np.empty(shape) for shape in _buffer_shapes(n, w, k, r))
    params = (np.empty((w, k)),
              np.broadcast_to(np.eye(k), (max(n - 1, 0), w, k, k)).copy(),
              np.ones((n, w, k)))
    widths = [rows.shape[1] for rows, _, _ in windows]
    for j, (width, start) in enumerate(zip(widths, starts)):
        _put(params, j, width, _initial_params(width, k, config.seed)
             if start is None else
             (start.initial, start.transitions, start.emissions))
    # each window's theta0 and theta2, and its place in the cycle: at
    # theta0 (0), at theta1 (1) or at the extrapolated point (2)
    theta0, theta2 = (tuple(x.copy() for x in params) for _ in range(2))
    stage = np.zeros(w, dtype=int)
    traces = [[] for _ in windows]
    steps = np.zeros(w, dtype=int)
    converged = [False] * w
    active, live, fault = list(range(w)), np.arange(w), None
    while active:
        if len(live) != len(active):
            live = np.array(active)
            stack = _stack([windows[j] for j in active], r)
        loci = stack.ones.shape[0]
        try:
            logliks, stats = _e_step(stack, *_take(params, live, loci), buffers)
        except ZeroProbabilityError as err:
            fault, active = err, active[:err.window]
            continue
        steps[live] += 1
        update, back = [], []
        for p, j in enumerate(active):
            trace = traces[j]
            if stage[j] == 2 and not logliks[p] >= trace[-1]:
                back.append(j)
                continue
            trace.append(logliks[p])
            if len(trace) > 1 and (trace[-1] - trace[-2] < config.tolerance
                                   * max(1.0, abs(trace[-2]))):
                converged[j] = True
            else:
                update.append(p)
        if back:
            _put(params, back, loci, _take(theta2, back, loci))
            stage[back] = 0
        if update:
            init_c, trans_c, ones_c, total_c = stats
            upd = _places(update, len(active))
            new_init, new_trans, new_emis = _m_step(
                (init_c[upd], trans_c[:, upd], ones_c[:, upd], total_c[:, upd]),
                config.pseudocount)
            new_trans[stack.padding[1:, upd]] = np.eye(k)
            new_emis[stack.padding[:, upd]] = 1.0
            try:
                _check_params(new_init, new_trans, new_emis)
            except RuntimeError as err:
                fault, active = err, active[:update[err.window]]
                update = upd = update[:err.window]
            u = len(update)
            moved = live[update]
            new = (new_init[:u], new_trans[:, :u], new_emis[:, :u])
            if config.accelerate:
                at = stage[moved]
                first = moved[at == 0]
                if first.size:
                    _put(theta0, first, loci, _take(params, first, loci))
                leap = (at == 1) & (steps[moved] < config.max_iterations)
                if leap.any():
                    g = moved[leap]
                    _put(theta2, g, loci, _take(new, leap, loci))
                    _put(new, leap, loci, _extrapolate(
                        _take(theta0, g, loci), _take(params, g, loci),
                        _take(new, leap, loci), stack.padding[:, upd][:, leap]))
                stage[moved] = np.where(leap, 2, np.where(at == 0, 1, 0))
            _put(params, moved, loci, new)
        active = [j for j in active if not converged[j]
                  and steps[j] < config.max_iterations]
    if fault is not None:
        raise fault
    results = []
    for j, width in enumerate(widths):
        init, trans, emis = _take(params, j, width)
        results.append((FounderHMM(initial=init, transitions=trans, emissions=emis),
                        TrainReport(iterations_run=int(steps[j]),
                                    loglik_trace=tuple(traces[j]),
                                    converged=converged[j])))
    return results


def train_founder_hmms(panels, config: TrainConfig, starts=None):
    """Fit a founder chain to each of several panels, in lockstep.

    ``panels`` are (haplotypes, loci) allele matrices, of any widths.
    ``starts`` holds one FounderHMM per panel to start its EM from, or None
    for the seeded start; a start must have the config's founders and the
    panel's loci. Returns one (FounderHMM, TrainReport) per panel, in
    order, each bitwise the one :func:`train_founder_hmm` gives that panel
    alone. When panels fail, the error is that of the lowest-indexed
    failing one.
    """
    panels = [np.asarray(p) for p in panels]
    for p in panels:
        if p.ndim != 2 or p.size == 0 or not np.isin(p, ALLELE_SYMBOLS).all():
            raise InputError("panels must be non-empty (haplotypes, loci) "
                             "matrices of alleles 0 and 1")
    # checked first, so that no value wraps into an allele in one byte
    panels = [p.astype(np.int8, copy=False) for p in panels]
    starts = [None] * len(panels) if starts is None else list(starts)
    if len(starts) != len(panels):
        raise InputError(f"{len(starts)} start models for {len(panels)} panels")
    for p, start in zip(panels, starts):
        if start is not None and (start.founders, start.loci) != (
                config.founders, p.shape[1]):
            raise InputError(
                f"start model has {start.founders} founders x {start.loci} "
                f"loci, but the fit has {config.founders} founders x "
                f"{p.shape[1]} loci")
    windows = [_distinct_rows(p)[:3] for p in panels]
    results = []
    for lo, hi in _stack_groups(windows, config.founders):
        results.extend(_fit_stack(windows[lo:hi], config, starts[lo:hi]))
    return results


def train_founder_hmm(panel, config: TrainConfig, start=None):
    """Fit the founder chain to a haplotype panel.

    Runs one EM from ``start``, a FounderHMM with the config's founders and
    the panel's loci, or from the seeded start when it is None. Returns
    (FounderHMM, TrainReport). Each trace entry scores the parameters that
    an E-step started from, so the first scores ``start`` itself; an
    accelerated fit leaves out the extrapolated points it rejects. On
    convergence the loop stops before the next update, so the returned
    parameters are exactly the last-scored ones, while a capped run returns
    parameters one (improving) update past the final entry. Without a
    start, initialization depends only on the seed.
    """
    return train_founder_hmms([_panel_matrix(panel)], config, [start])[0]


def window_config(config: TrainConfig) -> TrainConfig:
    """Local-window variant of a training config: an iteration cap of 50."""
    return replace(config, max_iterations=50)


def bootstrap_config(config: TrainConfig) -> TrainConfig:
    """Config of the repair flow's bootstrap typed fit: accelerated, with a
    cap of at most 60 E-steps.

    The cap was measured by ``tools/pooled_cap.py`` on the acceptance-6
    configuration at the pipeline's defaults (5 founders, seed s). The
    E-steps after which the accelerated fit first reaches the final
    log-likelihood of the plain fit of 100 iterations:

        seed     3   4   5   6   7   8   9  10  11  12
        E-steps 54  53  49  51  51  53  49  51  48  54

    The cap is the smallest multiple of 10 that reaches on at least 9 of
    these seeds: cap 50 does on 3, cap 60 on 10.
    """
    return replace(config, max_iterations=min(config.max_iterations, 60),
                   accelerate=True)


def pooled_config(config: TrainConfig) -> TrainConfig:
    """Config of the repair flow's pooled typed fit, which starts from the
    bootstrap model: accelerated, with a cap of at most 10 E-steps.

    The cap was measured by ``tools/pooled_cap.py`` as for
    :func:`bootstrap_config`, on the reference pooled with the corpus
    decoded by the bootstrap model of that config. The E-steps after which
    the warm accelerated fit first reaches the final log-likelihood of the
    plain cold fit (100 iterations from the seeded start):

        seed     3   4  5  6   7  8  9  10  11  12
        E-steps  2  16  2  2  12  2  2   2   3   2

    The cap is the smallest of 10, 20 and 30 that reaches on at least 8 of
    these seeds: cap 10 does on 8. The repair flow's discordance at caps
    10, 20 and 30 differs by at most 0.0009 on each seed.
    """
    return replace(config, max_iterations=min(config.max_iterations, 10),
                   accelerate=True)
