"""Time the inference engine's and EM's kernels against another tree's.

    python tools/engine_cost.py BASE_TREE [--seed 1]

BASE_TREE is another checkout of this repository, say the parent commit
unpacked with ``git archive``. The script loads founderhmm from this
checkout and from BASE_TREE into one process. For each workload of
``perfbench/workloads.py`` it simulates the inputs from the seed. It then
calls each kernel of the two trees on the same inputs, ROUNDS times each,
alternating the trees call by call and switching which goes first every
round, so that the host's speed swings fall on both alike.

On every workload it first times the set-up's simulation, in µs per call:

- ``simulate_cmd``: ``cli.main`` on the workload's ``simulate`` argument
  list (``setup_commands``), its output silenced, writing the seven files
  into a temporary directory of their own;
- ``simulate_fn``: ``simulate(SimConfig(...))`` of the workload's
  configuration at the seed, alone;
- ``channels_write``: ``write_channels`` of that simulation's data, the
  ``channels.json`` the command writes;
- ``corpus_ids``: a ``GenotypeCorpus`` built from 1600 ids and a
  (1600, 1) matrix, so that checking the ids is most of its cost.

On the pipeline workload (``repair-impute``) the kernels are EM's:

- ``e_step``: one ``training._e_step`` over the distinct rows of the
  typed reference panel, at the workload's founder count, from the seeded
  start (``_initial_params`` at the seed), in µs per call: the E-step of
  the repair flow's bootstrap fit, which is most of that flow's time;
- ``window_fits``: ``train_founder_hmms`` on the reference panel cut to
  the imputation windows (``window_spans`` at the default flank), under
  ``window_config`` at the seed;
- ``typed_fit``: ``train_founder_hmms`` on the typed reference panel
  under ``bootstrap_config`` at the seed: the bootstrap fit itself.

On each scan workload it first fits the model the benchmark's set-up fits
(``train --founders K --max-iterations 30`` on the typed reference panel)
and sorts the observed genotypes into distinct rows. The kernels:

- ``train_fit``: that fit itself, plain EM for 30 iterations;
- ``walk``: one forward ``_walk`` of the first 64 distinct rows (one tile)
  through every locus, in µs per depth: the (rows, K, K) step that
  single genotypes and the block checkpoints use;
- ``scan_rows``: ``_scan_rows`` over all distinct rows, in µs per depth of
  one tile (its time over tiles x loci): both walks of every row of a
  tile, each from the prior through every locus, and the posterior
  combine;
- ``scan_blocks``: the same call with the tile byte cap set so that the
  loci walk in blocks of BLOCK_LOCI, each from its backward checkpoint;
- ``viterbi_rows``: ``_viterbi_rows`` over all distinct rows (phasing's
  walk, every row through every locus, one chunk), in µs per depth;
- ``max_dot``: ``_max_dot`` on the (K, K, rows) values of all distinct
  rows, its first two axes swapped as a view, in µs per call: the
  max-product step that phasing's walk makes twice per depth, called as
  it calls it.

On each scan workload it also times the report path of the scan chain,
each tree on its own objects, read from the same files (the workload's
observed and truth genotypes and that model, written by this tree), in µs
per call:

- ``detect``: ``detect_errors`` of the observed genotypes;
- ``report_write``: ``write_error_report`` of that report, as TSV;
- ``report_read``: ``read_error_report`` of that file;
- ``json_report_write`` and ``json_report_read``: the same two calls
  with ``json_mode=True``, on the report's JSON twin;
- ``map_report_write`` and ``map_report_read``: the same two calls on the
  report that ``detect --map`` makes with the workload's locus map, whose
  ids label the typed loci: past locus 99 its ``locus_id<TAB>locus_index``
  cells are longer than 7 bytes, so the reader keys them by hash and
  checks them word by word, the general path that the map-less report's
  short cells skip;
- ``correct``: ``correct_errors`` of the observed genotypes by the report
  read back, as the ``correct`` command does;
- ``recover``: ``recover_missing`` of the observed genotypes;
- ``phase``: ``phase_panel`` of the observed genotypes with their gaps
  filled by ``recover_missing``, as the chain's ``phase`` decodes a
  recovered corpus;
- ``evaluate``: ``evaluate`` of the report's entries as imputation calls
  (each observed symbol called, with the report's id columns) against the
  truth genotypes;
- ``model_read``: ``read_model`` of the model file;
- ``cli_parse``: ``cli.main`` on each of the chain's four argument lists,
  with a ``--config`` path that does not exist, so that each call builds
  its parser, parses and stops with status 1 before the command runs.

The three fit kernels are given in µs per E-step: a fit's time over its
calls of ``training._e_step`` (one call steps a whole stack of windows),
counted in one untimed run of this tree. Each kernel runs once on each
tree untimed before its rounds. Each line gives the median time of the
base tree and of this one, the median over rounds of their ratio (this /
base) with its lower and upper quartiles, and the rounds in which this
tree was faster. The base tree's kernels, and its ``_stack``,
``_buffer_shapes``, ``_initial_params``, ``_buffer_views`` and
``_trans_views``, must take the same arguments as this checkout's.
"""
import argparse
import contextlib
import importlib
import io
import os
import statistics
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402

ROUNDS = 20
MAX_DOT_CALLS = 20  # per timed round: one call takes tens of µs
E_STEP_CALLS = 10  # per timed round: one call takes milliseconds
BLOCK_LOCI = 50


def load(src):
    """The founderhmm package under ``src``, imported afresh with its
    command line and file formats."""
    for name in [m for m in sys.modules if m.split(".")[0] == "founderhmm"]:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        importlib.import_module("founderhmm.cli")
        return importlib.import_module("founderhmm")
    finally:
        sys.path.remove(src)


def alternate(this, base, call):
    """Median seconds of ``call(this)`` and ``call(base)``, median ratio
    and the rounds in which ``this`` was faster, after one untimed call
    of each."""
    times = {this: [], base: []}
    call(base)
    call(this)
    for r in range(ROUNDS):
        for tree in (this, base) if r % 2 else (base, this):
            start = time.perf_counter()
            call(tree)
            times[tree].append(time.perf_counter() - start)
    ratios = [t / b for t, b in zip(times[this], times[base])]
    return (statistics.median(times[base]), statistics.median(times[this]),
            statistics.quantiles(ratios, n=4), sum(r < 1 for r in ratios))


def e_step_calls(pkg, fit):
    """Calls of ``training._e_step`` in one run of ``fit(pkg)``."""
    m = pkg.training
    real, calls = m._e_step, []
    m._e_step = lambda *args: calls.append(None) or real(*args)
    try:
        fit(pkg)
    finally:
        m._e_step = real
    return len(calls)


def fit_kernel(fh, name, panels, config):
    """(name, E-steps, call of a tree's package) of one EM fit."""
    fit = lambda pkg: pkg.training.train_founder_hmms(panels, config)
    return name, e_step_calls(fh, fit), fit


def setup_kernels(w, seed, workdir):
    """(name, calls per timing, call of a tree's package) of one
    workload's simulation: its ``simulate`` command into a directory of
    its own under ``workdir``, and the ``simulate`` call alone."""
    workdir = os.path.join(workdir, f"simulate-{w.name}")
    os.makedirs(workdir)
    argv = workloads.setup_commands(w, seed, workloads.Files(workdir))[0]

    def command(pkg):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            if pkg.cli.main(argv):
                sys.exit(f"founderhmm {' '.join(argv)} failed: {err.getvalue()}")

    sims, ids, matrix = {}, [f"S{j}" for j in range(1600)], np.zeros((1600, 1), dtype=np.int8)
    channels = os.path.join(workdir, "channels.json")

    def write_channels(pkg):
        if pkg not in sims:  # each tree's own simulation, made once
            sims[pkg] = pkg.simulate(pkg.SimConfig(**w.sim, seed=seed))
        pkg.io_formats.write_channels(channels, sims[pkg])

    return [("simulate_cmd", 1, command),
            ("simulate_fn", 1, lambda pkg: pkg.simulate(pkg.SimConfig(**w.sim, seed=seed))),
            ("channels_write", 1, write_channels),
            ("corpus_ids", 1, lambda pkg: pkg.GenotypeCorpus(ids, matrix))]


def training_kernels(fh, sim, seed):
    """(name, calls per timing, call of a tree's package) of EM's kernels
    on one pipeline workload's inputs."""
    data = fh.simulate(fh.SimConfig(**sim, seed=seed))
    k = sim["founder_count"]
    matrix = data.typed_reference().matrix
    reference = data.reference.matrix
    spans = fh.analysis.window_spans(data.locus_map, fh.analysis.WindowSpec())
    config = fh.TrainConfig(founders=k, seed=seed)
    windows = [fh.training._distinct_rows(matrix)[:3]]
    inputs = {}

    def e_steps(pkg):
        if pkg not in inputs:  # each tree stacks and allocates its own
            m = pkg.training
            stack = m._stack(windows)
            n, w, r = stack.ones.shape
            init, trans, emis = m._initial_params(n, k, seed)
            args = (stack, init[None], trans[:, None], emis[:, None],
                    [np.empty(s) for s in m._buffer_shapes(n, w, k, r)])
            # the per-locus views that _fit_stack makes once per stack
            inputs[pkg] = args + ((*m._buffer_views(stack, args[4]),
                                   *m._trans_views(args[2])),)
        for _ in range(E_STEP_CALLS):
            pkg.training._e_step(*inputs[pkg])

    return [("e_step", E_STEP_CALLS, e_steps),
            fit_kernel(fh, "window_fits",
                       [reference[:, lo:hi + 1] for (lo, hi), _ in spans],
                       fh.window_config(config)),
            fit_kernel(fh, "typed_fit", [matrix], fh.bootstrap_config(config))]


def scan_setup(fh, sim, seed):
    """A scan workload's simulated data, typed reference panel, and the
    set-up's fit configuration and model."""
    data = fh.simulate(fh.SimConfig(**sim, seed=seed))
    typed = data.typed_reference().matrix
    config = fh.TrainConfig(founders=sim["founder_count"], max_iterations=30)
    (model, _), = fh.training.train_founder_hmms([typed], config)
    return data, typed, config, model


def engine_kernels(fh, sim, seed):
    """(name, depths or calls per timing, call of a tree's package) of
    each inference kernel on one scan workload's inputs."""
    this = fh.inference
    data, typed, config, model = scan_setup(fh, sim, seed)
    k = sim["founder_count"]
    distinct, _, _ = fh.trie.build_trie(data.observed.matrix)
    rows, n = distinct.shape
    etab, planes = fh.model.emission_stack(model), this._planes(distinct)
    prior, norm = this._prior(model)
    tile = min(rows, this._TILE_ROWS)
    tplanes = np.ascontiguousarray(planes[:tile].T)
    state = np.repeat(prior[None], tile, axis=0)
    hit = np.random.default_rng(seed).random((k, k, rows)).transpose(1, 0, 2)
    tiles = -(-rows // this._TILE_ROWS)

    def max_dots(pkg):
        for _ in range(MAX_DOT_CALLS):
            pkg.inference._max_dot(hit, model.transitions[0])

    def scan_blocks(pkg):
        m = pkg.inference
        cap, m._TILE_BYTES = m._TILE_BYTES, tile * k * k * 8 * BLOCK_LOCI
        try:
            m._scan_rows(model, etab, planes)
        finally:
            m._TILE_BYTES = cap

    return [
        fit_kernel(fh, "train_fit", [typed], config),
        ("walk", n, lambda pkg: pkg.inference._walk(
            etab, model.transitions, tplanes, state, np.log(norm))),
        ("scan_rows", tiles * n, lambda pkg: pkg.inference._scan_rows(model, etab, planes)),
        ("scan_blocks", tiles * n, scan_blocks),
        ("viterbi_rows", n, lambda pkg: pkg.inference._viterbi_rows(model, etab, planes)),
        ("max_dot", MAX_DOT_CALLS, max_dots),
    ]


def report_kernels(fh, sim, seed, workdir):
    """(name, calls per timing, call of a tree's package) of the scan
    chain's report path on one scan workload's inputs, written under
    ``workdir``."""
    data, _, _, model = scan_setup(fh, sim, seed)
    join = lambda name: os.path.join(workdir, name)
    fh.io_formats.write_model(join("model.txt"), model)
    fh.io_formats.write_locus_map(join("data.map"), data.locus_map)
    fh.io_formats.write_genotypes(join("data.gen"), data.observed)
    fh.io_formats.write_genotypes(join("truth.gen"), data.truth_genotypes)
    chain = [["detect", "--model", join("model.txt"), "--genotypes", join("data.gen"),
              "--out", join("report.tsv")],
             ["correct", "--genotypes", join("data.gen"), "--report", join("report.tsv"),
              "--out", join("corrected.gen")],
             ["recover", "--model", join("model.txt"), "--genotypes", join("data.gen"),
              "--out", join("recovered.gen")],
             ["phase", "--model", join("model.txt"), "--genotypes", join("data.gen"),
              "--out", join("phased.hap")]]
    missing = ["--config", join("no-such-config.json")]
    inputs = {}

    def of(pkg):
        """Each tree's own model, genotypes, report, report file and calls."""
        if pkg not in inputs:
            m, an = pkg.io_formats, pkg.analysis
            tree = {"model": m.read_model(join("model.txt")),
                    "corpus": m.read_genotypes(join("data.gen")),
                    "truth": m.read_genotypes(join("truth.gen")),
                    "path": join(f"report-{len(inputs)}.tsv")}
            report = tree["report"] = an.detect_errors(tree["model"], tree["corpus"])
            m.write_error_report(tree["path"], report)
            tree["read"] = m.read_error_report(tree["path"])
            tree["json_path"] = join(f"report-{len(inputs)}.json")
            m.write_error_report(tree["json_path"], report, json_mode=True)
            locus_map = m.read_locus_map(join("data.map"))
            tree["map_report"] = an.detect_errors(
                tree["model"], tree["corpus"],
                locus_ids=[locus_map.locus_ids[j] for j in locus_map.typed_indices()])
            tree["map_path"] = join(f"map-report-{len(inputs)}.tsv")
            m.write_error_report(tree["map_path"], tree["map_report"])
            tree["recovered"] = an.recover_missing(tree["model"], tree["corpus"]).corpus
            tree["calls"] = an.ImputationResult(
                report.sample_id, report.locus_index, report.locus_id,
                np.eye(3)[report.observed], report.observed,
                np.ones(len(report.observed)), (), (), 0, 0)
            inputs[pkg] = tree
        return inputs[pkg]

    def parses(pkg):
        with contextlib.redirect_stderr(io.StringIO()):
            for argv in chain:
                pkg.cli.main(argv + missing)

    return [
        ("detect", 1, lambda pkg: pkg.analysis.detect_errors(of(pkg)["model"],
                                                             of(pkg)["corpus"])),
        ("report_write", 1, lambda pkg: pkg.io_formats.write_error_report(
            of(pkg)["path"], of(pkg)["report"])),
        ("report_read", 1, lambda pkg: pkg.io_formats.read_error_report(of(pkg)["path"])),
        ("json_report_write", 1, lambda pkg: pkg.io_formats.write_error_report(
            of(pkg)["json_path"], of(pkg)["report"], json_mode=True)),
        ("json_report_read", 1, lambda pkg: pkg.io_formats.read_error_report(
            of(pkg)["json_path"])),
        ("map_report_write", 1, lambda pkg: pkg.io_formats.write_error_report(
            of(pkg)["map_path"], of(pkg)["map_report"])),
        ("map_report_read", 1, lambda pkg: pkg.io_formats.read_error_report(
            of(pkg)["map_path"])),
        ("correct", 1, lambda pkg: pkg.analysis.correct_errors(of(pkg)["corpus"],
                                                               of(pkg)["read"])),
        ("recover", 1, lambda pkg: pkg.analysis.recover_missing(of(pkg)["model"],
                                                                of(pkg)["corpus"])),
        ("phase", 1, lambda pkg: pkg.analysis.phase_panel(of(pkg)["model"],
                                                          of(pkg)["recovered"])),
        ("evaluate", 1, lambda pkg: pkg.evaluate(of(pkg)["calls"], of(pkg)["truth"])),
        ("model_read", 1, lambda pkg: pkg.io_formats.read_model(join("model.txt"))),
        ("cli_parse", len(chain), parses),
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="root of the checkout to compare against")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    base = load(os.path.join(os.path.abspath(args.base), "src"))
    fh = load(os.path.join(ROOT, "src"))
    print("workload\tkernel\tbase_us\tthis_us\tratio\tratio_q1\tratio_q3\tfaster")
    with tempfile.TemporaryDirectory() as workdir:
        for w in workloads.WORKLOADS.values():
            kernels = setup_kernels(w, args.seed, workdir) + (
                training_kernels(fh, w.sim, args.seed) if w.pipeline else
                engine_kernels(fh, w.sim, args.seed)
                + report_kernels(fh, w.sim, args.seed, workdir))
            for kernel, per, call in kernels:
                b, t, (q1, ratio, q3), wins = alternate(fh, base, call)
                print(f"{w.name}\t{kernel}\t{b / per * 1e6:.1f}\t{t / per * 1e6:.1f}\t"
                      f"{ratio:.3f}\t{q1:.3f}\t{q3:.3f}\t{wins}/{ROUNDS}", flush=True)


if __name__ == "__main__":
    main()
