"""The benchmark's workloads: inputs, command chains, output checks and
quality scores.

Every workload simulates its inputs from the seed with ``founderhmm
simulate``; the ``scan-*`` workloads also fit their model with ``founderhmm
train``. That is the set-up. The timed part is a chain of CLI commands
that see only the generated files, with every option the chain does not
need left at its CLI default (``--threads`` included).
"""
from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json and README.md say why it is there."""

    name: str
    sim: dict  # SimConfig keyword arguments, less the seed
    pipeline: bool  # True: one `pipeline` command; False: the four-command scan


WORKLOADS = {w.name: w for w in (
    Workload(
        "repair-impute",
        pipeline=True,
        sim=dict(founder_count=5, loci=300, sample_count=40, panel_size=200,
                 switch_rate=0.01, error_rate=0.01, missing_rate=0.01,
                 mask_fraction=0.09)),
    Workload(
        "scan-distinct",
        pipeline=False,
        sim=dict(founder_count=5, loci=400, sample_count=120, panel_size=200,
                 switch_rate=0.02, error_rate=0.005, missing_rate=0.01)),
    Workload(
        "scan-shared",
        pipeline=False,
        sim=dict(founder_count=4, loci=500, sample_count=200, panel_size=200,
                 switch_rate=0.0005, error_rate=0.0005, missing_rate=0.0005)),
)}

_SIM_FLAGS = (("founder_count", "--founders"), ("loci", "--loci"),
              ("sample_count", "--samples"), ("panel_size", "--panel-size"),
              ("switch_rate", "--switch-rate"), ("error_rate", "--error-rate"),
              ("missing_rate", "--missing-rate"),
              ("mask_fraction", "--mask-fraction"))


class Files:
    """Paths of one invocation's inputs and outputs inside ``workdir``."""

    def __init__(self, workdir):
        join = lambda name: os.path.join(workdir, name)
        self.prefix = join("data")
        self.observed = join("data.gen")
        self.locus_map = join("data.map")
        self.panel = join("data.ref.hap")
        self.typed_panel = join("data.ref.typed.hap")
        self.model = join("model.txt")
        self.report = join("report.tsv")
        self.imputed = join("imputed.tsv")
        self.repaired = join("repaired.gen")
        self.corrected = join("corrected.gen")
        self.recovered = join("recovered.gen")
        self.phased = join("phased.hap")


def setup_commands(w: Workload, seed: int, f: Files):
    sim = ["simulate", "--out-prefix", f.prefix, "--seed", str(seed)]
    for key, flag in _SIM_FLAGS:
        if key in w.sim:
            sim += [flag, str(w.sim[key])]
    if w.pipeline:
        return [sim]
    return [sim, ["train", "--panel", f.typed_panel, "--out", f.model,
                  "--founders", str(w.sim["founder_count"]),
                  "--max-iterations", "30"]]


def setup_outputs(w: Workload, f: Files):
    if w.pipeline:
        return [f.observed, f.locus_map, f.panel]
    return [f.observed, f.typed_panel, f.model]


def run_commands(w: Workload, seed: int, f: Files):
    if w.pipeline:
        return [["pipeline", "--mode", "edc-mdr-imp",
                 "--founders", str(w.sim["founder_count"]),
                 "--seed", str(seed), "--panel", f.panel,
                 "--genotypes", f.observed, "--map", f.locus_map,
                 "--out", f.imputed, "--report-out", f.report,
                 "--corpus-out", f.repaired]]
    return [["detect", "--model", f.model, "--genotypes", f.observed,
             "--out", f.report],
            ["correct", "--genotypes", f.observed, "--report", f.report,
             "--out", f.corrected],
            ["recover", "--model", f.model, "--genotypes", f.corrected,
             "--out", f.recovered],
            ["phase", "--model", f.model, "--genotypes", f.recovered,
             "--out", f.phased]]


def run_outputs(w: Workload, f: Files):
    if w.pipeline:
        return [f.imputed, f.report, f.repaired]
    return [f.report, f.corrected, f.recovered, f.phased]


# ---------------------------------------------------------------- parsing
# The checks read the artifacts with their own small parsers, so that a
# reader and writer of the program broken in the same way cannot hide it.

class CheckFailed(Exception):
    pass


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _rows(path):
    """Data rows of a symbol file as an ordered list of (id, symbols)."""
    with open(path) as fh:
        return [tuple(line.rstrip("\n").split("\t"))
                for line in fh if line.strip() and not line.startswith("#")]


def _table(path):
    """Column header and rows of a TSV report, plus its '#' lines."""
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    comments = [line for line in lines if line.startswith("#")]
    body = [line.split("\t") for line in lines if not line.startswith("#")]
    return body[0], body[1:], comments


def _report(path):
    """{(sample, column): (observed, flagged, suggested)} of a detect report."""
    header, rows, comments = _table(path)
    col = {name: i for i, name in enumerate(header)}
    out = {}
    for r in rows:
        key = (r[col["sample_id"]], int(r[col["locus_index"]]))
        if key in out:
            raise CheckFailed(f"{path}: duplicate entry {key}")
        out[key] = (r[col["observed"]], r[col["flagged"]] == "1",
                    r[col["suggested"]])
    if any(c.startswith("#zero-probability") for c in comments):
        raise CheckFailed(f"{path}: zero-probability samples")
    return out


def _check_changes(before, after, report, path, fills):
    """``after`` keeps the samples and lengths of ``before`` and differs
    from it only at flagged report entries, where it takes the suggested
    symbol, or, when ``fills``, at missing symbols, of which none remain."""
    _require([sid for sid, _ in before] == [sid for sid, _ in after],
             f"{path}: samples differ from its input corpus")
    for (sid, old), (_, new) in zip(before, after):
        _require(len(old) == len(new), f"{path}: {sid} changed length")
        _require(not fills or "?" not in new, f"{path}: {sid} has '?' left")
        for j, (a, b) in enumerate(zip(old, new)):
            if a == b or (fills and a == "?"):
                continue
            entry = report.get((sid, j))
            _require(entry is not None and entry[1] and entry[2] == b,
                     f"{path}: {sid} column {j} changed without a flag")


def _check_imputation(path, data):
    header, rows, comments = _table(path)
    _require(not any(c.startswith("#zero-probability") for c in comments),
             f"{path}: zero-probability calls")
    col = {name: i for i, name in enumerate(header)}
    keys = [(r[col["sample_id"]], int(r[col["locus_index"]])) for r in rows]
    wanted = {(g.sample_id, u) for g in data.truth_genotypes
              for u in data.masked_loci}
    _require(len(keys) == len(set(keys)) and set(keys) == wanted,
             f"{path}: not one entry per (sample, masked locus)")
    for r in rows:
        total = sum(float(r[col[p]]) for p in ("p0", "p1", "p2"))
        _require(abs(total - 1.0) <= 1e-9,
                 f"{path}: probabilities sum to {total!r}")


def _check_phase(genotypes, phased, path):
    _require(len(phased) == 2 * len(genotypes), f"{path}: row count")
    for i, (sid, body) in enumerate(genotypes):
        (id1, h1), (id2, h2) = phased[2 * i], phased[2 * i + 1]
        _require((id1, id2) == (f"{sid}.h1", f"{sid}.h2"),
                 f"{path}: rows for {sid} are {id1}, {id2}")
        _require(len(h1) == len(h2) == len(body), f"{path}: {sid} length")
        _require(all(int(a) + int(b) == int(g) for a, b, g in zip(h1, h2, body)),
                 f"{path}: h1 + h2 differs from the genotype of {sid}")


def check_outputs(w: Workload, f: Files, data):
    """Semantic checks of one run's outputs; raises CheckFailed."""
    observed = _rows(f.observed)
    report = _report(f.report)
    typed = {(sid, j): ch for sid, body in observed
             for j, ch in enumerate(body) if ch != "?"}
    _require(report.keys() == typed.keys(),
             f"{f.report}: entries are not one per observed symbol")
    _require(all(obs == typed[key] for key, (obs, _, _) in report.items()),
             f"{f.report}: observed symbols differ from the corpus")
    if w.pipeline:
        _check_changes(observed, _rows(f.repaired), report, f.repaired, True)
        _check_imputation(f.imputed, data)
        return
    corrected = _rows(f.corrected)
    _check_changes(observed, corrected, report, f.corrected, False)
    recovered = _rows(f.recovered)
    _check_changes(corrected, recovered, {}, f.recovered, True)
    _check_phase(recovered, _rows(f.phased), f.phased)


# ---------------------------------------------------------------- quality

QUALITY = ("concordance", "analysis.flag_precision", "analysis.flag_recall")


def quality(w: Workload, f: Files, data, fh):
    """Concordance of the final calls with the simulator's truth, and
    precision and recall of the flagged entries against the injected errors
    still observable in the corpus."""
    if w.pipeline:
        calls = fh.io_formats.read_imputation(f.imputed)
        score = fh.simulate.evaluate(calls, data.truth_genotypes,
                                     loci=data.masked_loci)
    else:
        calls = fh.io_formats.read_genotypes(f.recovered)
        score = fh.simulate.evaluate(calls, data.typed_truth())
    column = data.typed_column_of()
    injected = {(r.sample_id, column[r.locus_index])
                for r in data.observable_errors()}
    flagged = {key for key, (_, flag, _) in _report(f.report).items() if flag}
    hits = len(flagged & injected)
    return {"concordance": 1.0 - score.discordance_rate,
            "analysis.flag_precision": hits / len(flagged) if flagged else 0.0,
            "analysis.flag_recall": hits / len(injected) if injected else 0.0}
