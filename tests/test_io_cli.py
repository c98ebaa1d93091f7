"""File formats: exact round-trips and hostile inputs. CLI: exit codes,
byte-stable artifacts, and option precedence. All CLI runs are in-process
through main(argv)."""
import json
import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import founderhmm
import founderhmm.cli as cli
from founderhmm import (ErrorEntry, ErrorReport, FounderHMM,
                        HaplotypeSequence, ImputationEntry, ImputationResult,
                        InputError, LocusMap, MultilocusGenotype, TrainConfig,
                        train_founder_hmm)
from founderhmm.io_formats import (CONFIG_ENV, ERROR_REPORT_COLUMNS,
                                   IMPUTATION_COLUMNS, atomic_write, fmt,
                                   load_config_file, read_error_report,
                                   read_genotypes, read_haplotypes,
                                   read_imputation, read_locus_map,
                                   read_model, write_error_report,
                                   write_genotypes, write_haplotypes,
                                   write_imputation, write_locus_map,
                                   write_model)

LOCATED = re.compile(r".+:\d+: ")  # parse errors carry path:line:


# ------------------------------------------------------------- round-trips

def test_genotype_round_trip_with_missing_and_echo(tmp_path):
    path = tmp_path / "c.gen"
    rng = np.random.default_rng(0)
    symbols = rng.integers(-1, 3, size=(5, 17)).astype(np.int8)
    corpus = [MultilocusGenotype(f"S{j}", symbols[j]) for j in range(5)]
    write_genotypes(path, corpus, config_line="#config: test a=1")
    back = read_genotypes(path)
    assert [g.sample_id for g in back] == [g.sample_id for g in corpus]
    for a, b in zip(corpus, back):
        assert np.array_equal(a.symbols, b.symbols)
    assert path.read_text().startswith("#config: test a=1\n#samples=5 loci=17\n")


def test_empty_corpus_round_trips(tmp_path):
    path = tmp_path / "empty.gen"
    write_genotypes(path, [])
    assert read_genotypes(path) == []


def test_haplotype_round_trip_and_symbol_guard(tmp_path):
    path = tmp_path / "p.hap"
    panel = [HaplotypeSequence("H0", np.array([0, 1, 1, 0], dtype=np.int8)),
             HaplotypeSequence("H1", np.array([1, 1, 0, 0], dtype=np.int8))]
    write_haplotypes(path, panel)
    back = read_haplotypes(path)
    assert [h.id for h in back] == ["H0", "H1"]
    assert all(np.array_equal(a.alleles, b.alleles) for a, b in zip(panel, back))
    (tmp_path / "bad.hap").write_text("#samples=1 loci=3\nH0\t012\n")
    with pytest.raises(InputError, match=LOCATED):
        read_haplotypes(tmp_path / "bad.hap")


def test_genotype_parse_failures_name_file_and_line(tmp_path):
    cases = {
        "no-header.gen": "S0\t012\n",
        "bad-symbol.gen": "#samples=1 loci=3\nS0\t01x\n",
        "bad-field-count.gen": "#samples=1 loci=3\nS0 012\n",
        "row-mismatch.gen": "#samples=2 loci=3\nS0\t012\n",
        "loci-mismatch.gen": "#samples=1 loci=4\nS0\t012\n",
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(InputError, match=LOCATED):
            read_genotypes(path)


def test_locus_map_round_trips_int_and_float_positions(tmp_path):
    for positions in (np.array([10, 20, 35], dtype=np.int64),
                      np.array([0.5, 1.25, 9.75])):
        m = LocusMap(locus_ids=("a", "b", "c"), positions=positions,
                     typed=np.array([True, False, True]))
        path = tmp_path / "m.map"
        write_locus_map(path, m)
        back = read_locus_map(path)
        assert back.locus_ids == m.locus_ids
        assert back.positions.dtype == positions.dtype
        assert np.array_equal(back.positions, positions)
        assert np.array_equal(back.typed, m.typed)


def test_locus_map_rejects_bad_rows(tmp_path):
    bad_status = tmp_path / "s.map"
    bad_status.write_text("a\t1\tmaybe\n")
    with pytest.raises(InputError, match=LOCATED):
        read_locus_map(bad_status)
    bad_pos = tmp_path / "p.map"
    bad_pos.write_text("a\tx\ttyped\n")
    with pytest.raises(InputError, match=LOCATED):
        read_locus_map(bad_pos)
    with pytest.raises(InputError):
        read_locus_map(tmp_path / "s.map")  # reused: still bad
    empty = tmp_path / "e.map"
    empty.write_text("# nothing\n")
    with pytest.raises(InputError):
        read_locus_map(empty)


def trained_toy_model():
    rng = np.random.default_rng(3)
    panel = [HaplotypeSequence(f"H{j}", rng.integers(0, 2, size=12).astype(np.int8))
             for j in range(14)]
    model, _ = train_founder_hmm(panel, TrainConfig(founders=3, max_iterations=8))
    return model


def test_model_file_is_lossless(tmp_path):
    model = trained_toy_model()
    path = tmp_path / "m.model"
    write_model(path, model, config_line="#config: train x=1")
    back = read_model(path)
    # bit-for-bit: 17 significant digits round-trip every double exactly
    assert np.array_equal(back.initial, model.initial)
    assert np.array_equal(back.transitions, model.transitions)
    assert np.array_equal(back.emissions, model.emissions)


def test_model_reader_rejects_damage(tmp_path):
    model = trained_toy_model()
    good = tmp_path / "good.model"
    write_model(good, model)
    lines = good.read_text().splitlines()

    no_magic = tmp_path / "a.model"
    no_magic.write_text("\n".join(lines[1:]) + "\n")
    with pytest.raises(InputError, match="not a model file"):
        read_model(no_magic)

    wrong_version = tmp_path / "b.model"
    wrong_version.write_text("#founderhmm-model v2\n" + "\n".join(lines[1:]) + "\n")
    with pytest.raises(InputError, match="version"):
        read_model(wrong_version)

    truncated = tmp_path / "c.model"
    truncated.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(InputError, match="incomplete emission"):
        read_model(truncated)

    alien_row = tmp_path / "d.model"
    alien_row.write_text("\n".join(lines) + "\nmystery\t0\t0\n")
    with pytest.raises(InputError, match="unknown row kind"):
        read_model(alien_row)

    # a header the file cannot fill must not size arrays from itself
    oversized = tmp_path / "e.model"
    oversized.write_text(good.read_text().replace(
        "#founders=3 loci=12", "#founders=3000 loci=1200000"))
    with pytest.raises(InputError, match=r"e\.model:2: .*more values"):
        read_model(oversized)


def test_readers_locate_bytes_that_are_not_utf8(tmp_path):
    rng = np.random.default_rng(4)
    corpus = [MultilocusGenotype(f"S{j}", rng.integers(-1, 3, 6)) for j in range(3)]
    panel = [HaplotypeSequence(f"H{j}", rng.integers(0, 2, 6)) for j in range(3)]
    locus_map = LocusMap(locus_ids=tuple("abcdef"), positions=np.arange(1, 7),
                         typed=np.ones(6, dtype=bool))
    writers = {
        "g.gen": (write_genotypes, corpus, read_genotypes),
        "h.hap": (write_haplotypes, panel, read_haplotypes),
        "m.map": (write_locus_map, locus_map, read_locus_map),
        "t.model": (write_model, trained_toy_model(), read_model),
        "r.tsv": (write_error_report, sample_error_report(), read_error_report),
        "i.tsv": (write_imputation, sample_imputation(), read_imputation),
    }
    for name, (write, value, read) in writers.items():
        path = tmp_path / name
        write(path, value)
        lines = path.read_bytes().split(b"\n")
        lines[2] = lines[2][:1] + b"\x84" + lines[2][1:]
        path.write_bytes(b"\r\n".join(lines))
        with pytest.raises(InputError, match=f"{name}:3: byte 0x84 is not UTF-8"):
            read(path)


def sample_error_report():
    entries = (ErrorEntry("S0", 4, "L4", 2, float("inf"), True, 0),
               ErrorEntry("S1", 0, "L0", 1, 1234.0625, True, 2),
               ErrorEntry("S1", 2, "L2", 0, 1.0, False, 0))
    return ErrorReport(entries=entries, threshold=1000.0,
                       failures={"S9": 3}, stats=None)


@pytest.mark.parametrize("json_mode", [False, True])
def test_error_report_round_trip(tmp_path, json_mode):
    report = sample_error_report()
    path = tmp_path / ("r.json" if json_mode else "r.tsv")
    write_error_report(path, report, json_mode=json_mode,
                       config_line="#config: detect t=1000")
    back = read_error_report(path)
    assert back.entries == report.entries  # includes the inf ratio
    assert back.threshold == report.threshold
    assert back.failures == report.failures


def test_error_report_reader_wants_threshold_and_header(tmp_path):
    path = tmp_path / "r.tsv"
    path.write_text("sample_id\tlocus_id\tlocus_index\tobserved\tratio\tflagged\tsuggested\n")
    with pytest.raises(InputError, match="threshold"):
        read_error_report(path)
    header = "\t".join(ERROR_REPORT_COLUMNS) + "\n"
    for text in ("#threshold=10\nwrong\theader\n",
                 "#threshold=10\n#zero-probability\tS0\n" + header,
                 "#threshold=10\n#zero-probability\tS0\tx\n" + header):
        path.write_text(text)
        with pytest.raises(InputError, match=LOCATED):
            read_error_report(path)


def sample_imputation():
    entries = (ImputationEntry("S0", 7, "L7", (0.25, 0.5, 0.25), 1, 0.5),
               ImputationEntry("S1", 7, "L7", (1.0 / 3, 1.0 / 3, 1.0 / 3), 0, 1.0 / 3))
    return ImputationResult(entries=entries, windows=(),
                            failures=(("S2", 7),), forward_locus_evals=0,
                            backward_locus_evals=0)


@pytest.mark.parametrize("json_mode", [False, True])
def test_imputation_round_trip(tmp_path, json_mode):
    result = sample_imputation()
    path = tmp_path / ("i.json" if json_mode else "i.tsv")
    write_imputation(path, result, json_mode=json_mode)
    back = read_imputation(path)
    assert len(back.entries) == 2
    for a, b in zip(result.entries, back.entries):
        assert (a.sample_id, a.locus_index, a.locus_id, a.call) == \
            (b.sample_id, b.locus_index, b.locus_id, b.call)
        assert tuple(b.probs) == tuple(a.probs)  # exact, not approximate
        assert b.confidence == a.confidence
    assert back.failures == (("S2", 7),)


def test_imputation_reader_locates_malformed_failure_lines(tmp_path):
    path = tmp_path / "i.tsv"
    header = "\t".join(IMPUTATION_COLUMNS) + "\n"
    for line in ("#zero-probability\tS0\n", "#zero-probability\tS0\tx\n"):
        path.write_text(line + header)
        with pytest.raises(InputError, match=LOCATED):
            read_imputation(path)


def test_fmt_round_trips_doubles():
    rng = np.random.default_rng(1)
    for v in rng.uniform(-1e9, 1e9, size=50):
        assert float(fmt(v)) == v
    assert float(fmt(float("inf"))) == float("inf")


def test_atomic_write_leaves_no_droppings(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write(target, "one\n")
    atomic_write(target, "two\n")  # overwrite in place
    assert target.read_text() == "two\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_config_file_loading(tmp_path):
    good = tmp_path / "c.json"
    good.write_text('{"founders": 3, "threshold": 50.0, "naive": true}')
    assert load_config_file(good) == {"founders": 3, "threshold": 50.0,
                                      "naive": True}
    for text in ('["not", "an", "object"]', '{"nested": {"a": 1}}', "{broken",
                 '{"founders": %s}' % ("9" * 5000)):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        with pytest.raises(InputError):
            load_config_file(bad)
    with pytest.raises(InputError, match="cannot read"):
        load_config_file(tmp_path / "absent.json")


# -------------------------------------------------------------------- CLI

def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """One simulated dataset plus a trained typed-locus model, built through
    the CLI itself so the fixture doubles as a happy-path smoke test."""
    root = tmp_path_factory.mktemp("cliws")
    prefix = str(root / "sim")
    assert run_cli("simulate", "--out-prefix", prefix, "--seed", "3",
                   "--founders", "3", "--loci", "40", "--samples", "6",
                   "--panel-size", "30", "--switch-rate", "0.05",
                   "--error-rate", "0.02", "--missing-rate", "0.02",
                   "--mask-fraction", "0.1") == 0
    model = str(root / "typed.model")
    assert run_cli("train", "--panel", f"{prefix}.ref.typed.hap",
                   "--out", model, "--founders", "3",
                   "--max-iterations", "30", "--seed", "1") == 0
    return {"root": root, "prefix": prefix, "model": model,
            "gen": f"{prefix}.gen", "map": f"{prefix}.map",
            "ref": f"{prefix}.ref.hap", "truth": f"{prefix}.truth.gen"}


def test_simulate_writes_all_artifacts(ws):
    for ext in (".gen", ".map", ".ref.hap", ".ref.typed.hap", ".truth.gen",
                ".truth.hap", ".channels.json"):
        assert os.path.exists(ws["prefix"] + ext), ext
    channels = json.loads(open(ws["prefix"] + ".channels.json").read())
    assert set(channels) >= {"error_records", "missing_records", "masked_loci"}
    assert len(channels["masked_loci"]) == 4  # round(0.1 * 40)


def test_detect_correct_recover_flow(ws, capsys):
    root = ws["root"]
    report = str(root / "flow.report.tsv")
    assert run_cli("detect", "--model", ws["model"], "--genotypes", ws["gen"],
                   "--map", ws["map"], "--threshold", "100",
                   "--out", report) == 0
    first = open(report).readline()
    assert first.startswith("#config: detect ")
    assert "naive" not in first and "block_size" not in first
    assert "seconds" not in open(report).read()

    corrected = str(root / "flow.corrected.gen")
    assert run_cli("correct", "--genotypes", ws["gen"], "--report", report,
                   "--out", corrected) == 0
    completed = str(root / "flow.completed.gen")
    fills = str(root / "flow.fills.tsv")
    assert run_cli("recover", "--model", ws["model"], "--genotypes", corrected,
                   "--out", completed, "--fills", fills) == 0
    assert all("?" not in line.split("\t")[-1]
               for line in open(completed) if not line.startswith("#"))
    capsys.readouterr()

    assert run_cli("evaluate", "--calls", completed, "--truth", ws["truth"],
                   "--map", ws["map"]) == 0
    out = capsys.readouterr().out
    assert re.match(r"total=\d+ discordant=\d+ discordance_rate=[\d.e-]+", out)


def test_impute_and_pipeline_agree(ws):
    root = ws["root"]
    direct = str(root / "direct.imp.tsv")
    piped = str(root / "piped.imp.tsv")
    assert run_cli("impute", "--panel", ws["ref"], "--genotypes", ws["gen"],
                   "--map", ws["map"], "--founders", "3", "--flank", "4",
                   "--seed", "0", "--threads", "1", "--out", direct) == 0
    assert run_cli("pipeline", "--mode", "imp", "--panel", ws["ref"],
                   "--genotypes", ws["gen"], "--map", ws["map"],
                   "--founders", "3", "--flank", "4", "--seed", "0",
                   "--threads", "1", "--out", piped) == 0
    body = lambda p: [l for l in open(p) if not l.startswith("#config:")]
    assert body(direct) == body(piped)


def test_repeat_runs_are_byte_identical(ws):
    root = ws["root"]
    outs = [str(root / f"rerun{i}.imp.tsv") for i in range(3)]
    base = ["--panel", ws["ref"], "--genotypes", ws["gen"], "--map", ws["map"],
            "--founders", "3", "--flank", "4", "--seed", "0"]
    assert run_cli("impute", *base, "--threads", "1", "--out", outs[0]) == 0
    assert run_cli("impute", *base, "--threads", "1", "--out", outs[1]) == 0
    assert run_cli("impute", *base, "--threads", "3", "--out", outs[2]) == 0
    reference_bytes = open(outs[0], "rb").read()
    for other in outs[1:]:
        assert open(other, "rb").read() == reference_bytes


def test_detect_engine_toggles_match(ws):
    root = ws["root"]
    outs = {}
    cfg = root / "engine-block.json"
    cfg.write_text('{"block_size": 5}')
    text_cfg = root / "engine-text.json"  # "7" parses as --block-size 7 does,
    text_cfg.write_text('{"block_size": "7", "naive": true}')  # naive: ignored
    for name, extra in (("plain", []), ("blocked", ["--block-size", "7"]),
                        ("configured", ["--config", str(cfg)]),
                        ("text", ["--config", str(text_cfg)])):
        path = str(root / f"engine-{name}.tsv")
        assert run_cli("detect", "--model", ws["model"],
                       "--genotypes", ws["gen"], "--out", path, *extra) == 0
        outs[name] = open(path, "rb").read()
    assert outs["plain"] == outs["blocked"] == outs["configured"] == outs["text"]
    for bad in ('{"block_size": 0}', '{"block_size": "0"}'):  # read and checked
        cfg.write_text(bad)
        assert run_cli("detect", "--model", ws["model"], "--genotypes", ws["gen"],
                       "--out", str(root / "engine-bad.tsv"),
                       "--config", str(cfg)) == 1


def test_phase_writes_two_rows_per_sample(ws):
    root = ws["root"]
    completed = str(root / "ph.completed.gen")
    assert run_cli("recover", "--model", ws["model"], "--genotypes", ws["gen"],
                   "--out", completed) == 0
    phased = str(root / "ph.hap")
    assert run_cli("phase", "--model", ws["model"], "--genotypes", completed,
                   "--out", phased) == 0
    ids = [h.id for h in read_haplotypes(phased)]
    assert ids == [f"S{j}.h{k}" for j in range(6) for k in (1, 2)]


def test_phase_names_the_first_impossible_sample_in_corpus_order(tmp_path,
                                                                 capsys):
    # No founder ever carries the minor allele, so a 1 or 2 is impossible.
    # S1 fails at locus 2; S2, later in the file but first in sorted
    # order, fails earlier, at locus 1.
    model = tmp_path / "m.model"
    write_model(model, FounderHMM(initial=np.array([1.0]),
                                  transitions=np.ones((2, 1, 1)),
                                  emissions=np.zeros((3, 1))))
    gen = tmp_path / "g.gen"
    gen.write_text("#samples=4 loci=3\nS0\t000\nS1\t002\nS2\t?10\nS3\t000\n")
    assert run_cli("phase", "--model", str(model), "--genotypes", str(gen),
                   "--out", str(tmp_path / "o.hap")) == 1
    assert capsys.readouterr().err == (
        f"error: {gen}: sample 'S1' has zero probability at locus 2\n")
    assert not (tmp_path / "o.hap").exists()


def test_evaluate_identity_is_zero_discordant(ws, capsys):
    assert run_cli("evaluate", "--calls", ws["truth"],
                   "--truth", ws["truth"]) == 0
    assert "discordant=0 discordance_rate=0" in capsys.readouterr().out


def test_evaluate_imputation_kind(ws, capsys):
    root = ws["root"]
    imp = str(root / "ev.imp.tsv")
    assert run_cli("impute", "--panel", ws["ref"], "--genotypes", ws["gen"],
                   "--map", ws["map"], "--founders", "3", "--flank", "4",
                   "--out", imp) == 0
    assert run_cli("evaluate", "--kind", "imputation", "--calls", imp,
                   "--truth", ws["truth"], "--map", ws["map"],
                   "--out", str(root / "ev.report.tsv")) == 0
    out = capsys.readouterr().out
    total = int(re.search(r"total=(\d+)", out).group(1))
    assert total == 6 * 4  # every sample scored at every masked locus


def test_sweep_cli_segregates_timings(ws):
    root = ws["root"]
    table = str(root / "sweep.tsv")
    timings = str(root / "sweep.timings.tsv")
    args = ["sweep", "--out", table, "--timings", timings,
            "--founders-grid", "2,3", "--panel-grid", "20,30",
            "--flank-grid", "4", "--loci", "30", "--samples", "4",
            "--mask-fraction", "0.1", "--seed", "5", "--threads", "2"]
    assert run_cli(*args) == 0
    head = open(table).readlines()
    assert head[0].startswith("#config: sweep ")
    assert "seconds" not in head[1]
    assert len(head) == 2 + 4  # echo + header + one row per cell
    assert "seconds" in open(timings).readlines()[1]
    rerun = str(root / "sweep2.tsv")
    assert run_cli(*[a if a != table else rerun for a in args]) == 0
    assert open(rerun, "rb").read() == open(table, "rb").read()


def test_sweep_echoes_the_simulated_founder_count(ws):
    echoes = []
    for founders in ("3", "5"):
        table = str(ws["root"] / f"sweep.f{founders}.tsv")
        assert run_cli("sweep", "--out", table, "--founders", founders,
                       "--founders-grid", "2", "--panel-grid", "20",
                       "--flank-grid", "4", "--loci", "30", "--samples",
                       "4", "--mask-fraction", "0.1") == 0
        echoes.append(open(table).readline())
    assert "founders=3 " in echoes[0] and "founders=5 " in echoes[1]


def test_bench_cli_writes_exponent_lines(ws):
    out = str(ws["root"] / "bench.tsv")
    assert run_cli("bench", "--out", out, "--repeats", "1",
                   "--loci-grid", "16,32", "--sample-grid", "4,8",
                   "--founder-grid", "2,3") == 0
    text = open(out).read()
    assert text.count("#exponent\t") == 3
    assert "seconds" in text  # bench IS the timing artifact
    cfg = ws["root"] / "bench.json"  # the grids come from a config file too
    cfg.write_text('{"repeats": 1, "loci_grid": "8,16", "sample_grid": "2,4", '
                   '"founder_grid": "2,3"}')
    assert run_cli("bench", "--out", out, "--config", str(cfg)) == 0
    rows = [line.split("\t")[:2] for line in open(out) if line[0] != "#"]
    assert rows[1:] == [["loci", "8"], ["loci", "16"], ["samples", "2"],
                        ["samples", "4"], ["founders", "2"], ["founders", "3"]]
    assert open(out).readline().split()[2:] == [
        "founder_grid=2,3", "loci_grid=8,16", "repeats=1", "sample_grid=2,4",
        "seed=0"]


def test_train_log_file_holds_trace_and_timing(ws):
    root = ws["root"]
    log = str(root / "train.log")
    out = str(root / "logged.model")
    assert run_cli("train", "--panel", f"{ws['prefix']}.ref.typed.hap",
                   "--out", out, "--founders", "2", "--max-iterations", "5",
                   "--seed", "0", "--log", log) == 0
    text = open(log).read()
    assert "loglik\t0\t" in text and "seconds\t" in text
    assert "seconds" not in open(out).read()  # model artifact stays timeless


# -------------------------------------------------------------- precedence

def founders_of(path):
    return read_model(path).founders


def test_flags_beat_config_beat_defaults(ws, tmp_path, monkeypatch):
    monkeypatch.delenv(CONFIG_ENV, raising=False)
    cfg = tmp_path / "opts.json"
    cfg.write_text('{"founders": 2, "max_iterations": 4}')
    panel = f"{ws['prefix']}.ref.typed.hap"

    flagged = str(tmp_path / "flag.model")
    assert run_cli("train", "--panel", panel, "--out", flagged,
                   "--config", str(cfg), "--founders", "3") == 0
    assert founders_of(flagged) == 3

    configured = str(tmp_path / "cfg.model")
    assert run_cli("train", "--panel", panel, "--out", configured,
                   "--config", str(cfg)) == 0
    assert founders_of(configured) == 2

    fallback = str(tmp_path / "def.model")
    assert run_cli("train", "--panel", panel, "--out", fallback,
                   "--max-iterations", "4") == 0
    assert founders_of(fallback) == 7


def test_environment_supplies_the_config_file(ws, tmp_path, monkeypatch):
    env_cfg = tmp_path / "env.json"
    env_cfg.write_text('{"founders": 2, "max_iterations": 4}')
    monkeypatch.setenv(CONFIG_ENV, str(env_cfg))
    panel = f"{ws['prefix']}.ref.typed.hap"
    out = str(tmp_path / "env.model")
    assert run_cli("train", "--panel", panel, "--out", out) == 0
    assert founders_of(out) == 2

    # an explicit --config outranks the environment
    flag_cfg = tmp_path / "flag.json"
    flag_cfg.write_text('{"founders": 3, "max_iterations": 4}')
    out2 = str(tmp_path / "env2.model")
    assert run_cli("train", "--panel", panel, "--out", out2,
                   "--config", str(flag_cfg)) == 0
    assert founders_of(out2) == 3


def test_config_does_not_carry_over_to_the_next_call(ws, tmp_path, monkeypatch):
    monkeypatch.delenv(CONFIG_ENV, raising=False)
    cfg = tmp_path / "json.json"
    cfg.write_text('{"json": true, "threshold": 5}')
    out = tmp_path / "carry.out"
    base = ["detect", "--model", ws["model"], "--genotypes", ws["gen"],
            "--out", str(out)]
    assert run_cli(*base, "--config", str(cfg)) == 0
    assert json.loads(out.read_text())["threshold"] == 5.0
    assert run_cli(*base) == 0
    assert out.read_text().splitlines()[1] == "#threshold=1000"


@pytest.mark.parametrize("subcommand,field,value", [
    ("train", "founders", "x"), ("train", "founders", 3.9),
    ("train", "founders", 3.0), ("detect", "block_size", "x"),
    ("detect", "json", "false"), ("pipeline", "mode", "x")])
def test_bad_config_value_names_file_and_field(ws, tmp_path, monkeypatch,
                                               capsys, subcommand, field, value):
    monkeypatch.delenv(CONFIG_ENV, raising=False)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({field: value}))
    argv = {"train": ["--panel", f"{ws['prefix']}.ref.typed.hap"],
            "detect": ["--model", ws["model"], "--genotypes", ws["gen"]],
            "pipeline": ["--panel", ws["ref"], "--genotypes", ws["gen"],
                         "--map", ws["map"]]}[subcommand]
    assert run_cli(subcommand, *argv, "--out", str(tmp_path / "o"),
                   "--config", str(cfg)) == 1
    assert f"{cfg}: field {field!r}: " in capsys.readouterr().err


def test_per_subcommand_defaults_stay_apart():
    parser, _ = cli._build_parser()
    simulated = parser.parse_args(["simulate", "--out-prefix", "x"])
    swept = parser.parse_args(["sweep", "--out", "x"])
    assert (simulated.mask_fraction, swept.mask_fraction) == (0.0, 0.09)
    assert (simulated.founders, swept.founders) == (5, 5)
    trained = parser.parse_args(["train", "--panel", "p", "--out", "x"])
    assert trained.founders == 7


def test_every_subcommand_help_exits_zero(capsys):
    _, commands = cli._build_parser()
    assert len(commands) == 11
    for name in commands:
        assert run_cli(name, "--help") == 0
        assert f"usage: founderhmm {name}" in capsys.readouterr().out


# -------------------------------------------------------------- exit codes

def test_usage_problems_exit_one(capsys):
    assert run_cli("no-such-subcommand") == 1
    assert run_cli() == 1
    assert run_cli("train", "--panel", "x.hap") == 1  # --out missing
    err = capsys.readouterr().err
    assert "error:" in err


def test_missing_and_malformed_inputs_exit_one(ws, tmp_path, capsys):
    assert run_cli("detect", "--model", str(tmp_path / "nope.model"),
                   "--genotypes", ws["gen"], "--out", str(tmp_path / "o")) == 1
    bad = tmp_path / "bad.gen"
    bad.write_text("#samples=1 loci=3\nS0\t01x\n")
    assert run_cli("detect", "--model", ws["model"], "--genotypes", str(bad),
                   "--out", str(tmp_path / "o")) == 1
    assert "bad.gen:2:" in capsys.readouterr().err
    cfg = tmp_path / "broken.json"
    cfg.write_text("{nope")
    assert run_cli("train", "--panel", f"{ws['prefix']}.ref.typed.hap",
                   "--out", str(tmp_path / "m"), "--config", str(cfg)) == 1
    panel = f"{ws['prefix']}.ref.typed.hap"
    out = str(tmp_path / "o")
    impute = ["impute", "--panel", ws["ref"], "--genotypes", ws["gen"],
              "--map", ws["map"], "--out", out]
    for argv in (["train", "--panel", panel, "--out", out, "--seed", "-1"],
                 ["train", "--panel", panel, "--out", out, "--pseudocount", "nan"],
                 ["train", "--panel", panel, "--out", out, "--pseudocount", "inf"],
                 ["simulate", "--out-prefix", out, "--seed", "-1"],
                 ["bench", "--out", out, "--repeats", "0"],
                 ["bench", "--out", out, "--loci-grid", "4,4"],
                 ["detect", "--model", ws["model"], "--genotypes", ws["gen"],
                  "--out", out, "--threshold", "nan"],
                 [*impute, "--threads", "0"]):
        assert run_cli(*argv) == 1, argv
        assert "error:" in capsys.readouterr().err
    short = tmp_path / "short.gen"
    short.write_text("#samples=1 loci=3\nS0\t012\n")
    for name in ("phase", "detect", "recover"):
        assert run_cli(name, "--model", ws["model"], "--genotypes", str(short),
                       "--out", out) == 1, name
        assert capsys.readouterr().err == (
            f"error: {short}: genotypes have 3 loci but the model has 36\n")


def test_internal_faults_exit_two(ws, tmp_path, monkeypatch, capsys):
    def explode(path):
        raise RuntimeError("wiring fault")
    monkeypatch.setattr(cli, "read_model", explode)
    code = run_cli("detect", "--model", ws["model"], "--genotypes", ws["gen"],
                   "--out", str(tmp_path / "o"))
    assert code == 2
    assert "internal error" in capsys.readouterr().err


# ---------------------------------------------------------- config fuzzing

# The options each subcommand takes from a config file: all but file paths.
CONFIG_KEYS = {
    "train": ("founders", "seed", "max_iterations", "tolerance", "pseudocount"),
    "detect": ("threshold", "block_size", "json"),
    "recover": ("block_size", "json"),
    "impute": ("founders", "flank", "threads", "seed", "block_size", "json"),
    "pipeline": ("founders", "flank", "threshold", "seed", "threads",
                 "block_size", "json", "mode"),
}


def test_config_keys_are_the_non_path_options():
    _, commands = cli._build_parser()
    for name, keys in CONFIG_KEYS.items():
        assert set(cli._settable(commands[name])) == set(keys), name


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    prefix = str(root / "t")
    assert run_cli("simulate", "--out-prefix", prefix, "--seed", "2",
                   "--founders", "2", "--loci", "12", "--samples", "3",
                   "--panel-size", "8", "--error-rate", "0.05",
                   "--missing-rate", "0.05", "--mask-fraction", "0.2") == 0
    model = str(root / "t.model")
    assert run_cli("train", "--panel", f"{prefix}.ref.typed.hap",
                   "--out", model, "--founders", "2",
                   "--max-iterations", "5") == 0
    data = ["--genotypes", f"{prefix}.gen"]
    panel = ["--panel", f"{prefix}.ref.hap", *data, "--map", f"{prefix}.map"]
    return root, {"train": ["--panel", f"{prefix}.ref.typed.hap"],
                  "detect": ["--model", model, *data],
                  "recover": ["--model", model, *data],
                  "impute": panel, "pipeline": panel}


# Integers stay small and text holds no digits, so no drawn value can ask
# for a large model, many iterations or many threads.
CONFIG_VALUES = st.one_of(
    st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=6),
    st.booleans(), st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 6))


@pytest.mark.parametrize("subcommand", sorted(CONFIG_KEYS))
@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_any_config_exits_zero_or_one(tiny, subcommand, data):
    root, argv = tiny  # --config outranks the environment variable
    keys = st.sampled_from(CONFIG_KEYS[subcommand] + ("naive",))
    config = data.draw(st.dictionaries(keys, CONFIG_VALUES), label="config")
    cfg = root / f"{subcommand}.json"
    cfg.write_text(json.dumps(config))
    code = run_cli(subcommand, *argv[subcommand],
                   "--out", str(root / f"{subcommand}.out"),
                   "--config", str(cfg))
    assert code in (0, 1), config


# -------------------------------------------------------- artifact fuzzing

@pytest.fixture(scope="module")
def artifacts(tiny):
    """One valid file of each format a subcommand reads, by name."""
    root, _ = tiny
    prefix = str(root / "t")
    files = {"model": str(root / "t.model"), "gen": f"{prefix}.gen",
             "truth": f"{prefix}.truth.gen", "map": f"{prefix}.map",
             "panel": f"{prefix}.ref.hap",
             "typed_panel": f"{prefix}.ref.typed.hap",
             "report": str(root / "a.report.tsv"),
             "report_json": str(root / "a.report.json"),
             "imputed": str(root / "a.imputed.tsv"),
             "imputed_json": str(root / "a.imputed.json")}
    for key, flag in (("report", []), ("report_json", ["--json"])):
        assert run_cli("detect", "--model", files["model"], "--genotypes",
                       files["gen"], "--out", files[key], *flag) == 0
    for key, flag in (("imputed", []), ("imputed_json", ["--json"])):
        assert run_cli("impute", "--panel", files["panel"], "--genotypes",
                       files["gen"], "--map", files["map"], "--founders", "2",
                       "--out", files[key], *flag) == 0
    return root, files


def reading_commands(f, out):
    """Every subcommand run that reads an artifact, with the keys of the
    files it reads."""
    return [
        ({"typed_panel"}, ["train", "--panel", f["typed_panel"], "--out", out,
                           "--founders", "2", "--max-iterations", "3"]),
        ({"model", "gen", "map"}, ["detect", "--model", f["model"],
                                   "--genotypes", f["gen"], "--map", f["map"],
                                   "--out", out]),
        ({"model", "gen"}, ["recover", "--model", f["model"], "--genotypes",
                            f["gen"], "--out", out, "--fills", out + ".f"]),
        ({"model", "gen"}, ["phase", "--model", f["model"], "--genotypes",
                            f["gen"], "--out", out]),
        *(({"gen", key}, ["correct", "--genotypes", f["gen"], "--report",
                          f[key], "--out", out])
          for key in ("report", "report_json")),
        ({"panel", "gen", "map"}, ["pipeline", "--mode", "edc-mdr-imp",
                                   "--panel", f["panel"], "--genotypes",
                                   f["gen"], "--map", f["map"], "--founders",
                                   "2", "--out", out]),
        ({"gen", "truth", "map"}, ["evaluate", "--calls", f["gen"], "--truth",
                                   f["truth"], "--map", f["map"]]),
        *(({key, "truth", "map"}, ["evaluate", "--kind", "imputation",
                                   "--calls", f[key], "--truth", f["truth"],
                                   "--map", f["map"]])
          for key in ("imputed", "imputed_json")),
    ]


# Format characters, digits, signs, letters of numbers and keywords, and
# bytes that are not UTF-8 on their own.
MUTATION_BYTES = st.sampled_from(sorted(set(b"\t\n\r #?-+.eE0129 {}[]\":,x")
                                        | {0x00, 0x84, 0xc3, 0xff}))


@st.composite
def mutated(draw, data):
    """``data`` after one to four byte edits: replace, insert, delete or
    truncate."""
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(("replace", "insert", "delete", "truncate")))
        if edit == "replace" and at < len(data):
            data[at] = draw(MUTATION_BYTES)
        elif edit == "insert":
            data[at:at] = bytes(draw(st.lists(MUTATION_BYTES, min_size=1,
                                              max_size=3)))
        elif edit == "delete":
            del data[at:at + draw(st.integers(1, 12))]
        elif edit == "truncate":
            del data[at:]
    return bytes(data)


@pytest.mark.parametrize("key", ["model", "gen", "truth", "map", "panel",
                                 "typed_panel", "report", "report_json",
                                 "imputed", "imputed_json"])
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_damaged_artifact_exits_zero_or_one(artifacts, key, data):
    root, files = artifacts
    with open(files[key], "rb") as fh:
        damaged = data.draw(mutated(fh.read()), label="file")
    path = root / f"damaged.{key}"
    path.write_bytes(damaged)
    out = str(root / "damaged.out")
    for reads, argv in reading_commands({**files, key: str(path)}, out):
        if key in reads:
            assert run_cli(*argv) in (0, 1), (argv[0], damaged)
