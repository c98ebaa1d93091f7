"""File formats: exact round-trips and hostile inputs. CLI: exit codes,
byte-stable artifacts, and option precedence. All CLI runs are in-process
through main(argv), but for one that needs a locale of its own."""
import dataclasses
import errno
import json
import os
import re
import stat
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import founderhmm
import founderhmm.cli as cli
import oracle
from conftest import random_model, recoded
from founderhmm import (ErrorEntry, ErrorReport, EvalReport, FounderHMM,
                        GenotypeCorpus, HaplotypeSequence, ImputationEntry,
                        ImputationResult, InputError, LocusMap,
                        MultilocusGenotype, TrainConfig, WindowReport,
                        correct_errors, evaluate, train_founder_hmm)
from founderhmm.analysis import RecoveryFill, RecoveryResult
from founderhmm.io_formats import (CONFIG_ENV, ERROR_REPORT_COLUMNS,
                                   IMPUTATION_COLUMNS, atomic_write, fmt,
                                   load_config_file, read_error_report,
                                   read_genotypes, read_haplotypes,
                                   read_imputation, read_locus_map,
                                   read_model, write_bench_table,
                                   write_error_report, write_eval_report,
                                   write_genotypes, write_haplotypes,
                                   write_imputation, write_locus_map,
                                   write_model, write_recovery,
                                   write_sweep_table)
from founderhmm.simulate import BenchReport, BenchRow, SweepRow

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


def test_empty_symbol_files_read_as_empty_matrices(tmp_path):
    for loci in (0, 5, -2):
        path = tmp_path / f"e{loci}.gen"
        path.write_text(f"#samples=0 loci={loci}\n")
        for read in (read_genotypes, read_haplotypes):
            assert len(read(path)) == 0 and read(path).matrix.size == 0


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


@pytest.mark.parametrize("read, name, text, message", [
    (read_genotypes, "e.gen", "#samples=1 loci=3\n\t012\n", ":2: sample_id must be non-empty"),
    (read_haplotypes, "e.hap", "#samples=1 loci=3\n\t010\n",
     ":2: haplotype id must be non-empty"),
    (read_genotypes, "z.gen", "#samples=1 loci=0\nS1\t\n",
     ":2: genotype 'S1' must cover at least one locus"),
    (read_haplotypes, "z.hap", "#c\n#samples=1 loci=0\nH1\t\n",
     ":3: haplotype 'H1' must cover at least one locus"),
    (read_genotypes, "h3.gen", "#samples=2 loci=3\n#samples=2 loci=3\nS0\t012\nS1\t012\n",
     ":2: repeated '#samples=' header (first on line 1)"),
    (read_haplotypes, "h3.hap", "#samples=1 loci=2\nH0\t01\n#samples=1 loci=2\n",
     ":3: repeated '#samples=' header (first on line 1)"),
])
def test_symbol_file_problems_name_their_line(tmp_path, capsys, read, name,
                                              text, message):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(InputError) as err:
        read(path)
    assert str(err.value) == f"{path}{message}"
    if read is read_genotypes:
        assert run_cli("recover", "--model", trained_toy_model_file(tmp_path),
                       "--genotypes", str(path), "--out", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err == f"error: {path}{message}\n"


def trained_toy_model_file(tmp_path):
    path = tmp_path / "toy.model"
    write_model(path, trained_toy_model())
    return str(path)


def test_symbol_writers_reject_ragged_rows_before_writing(tmp_path):
    corpus = [MultilocusGenotype("a", [0, 1, 2]), MultilocusGenotype("b", [0, 1])]
    panel = [HaplotypeSequence("a", [0, 1, 1]), HaplotypeSequence("b", [0, 1])]
    for write, rows, name in ((write_genotypes, corpus, "rag.gen"),
                              (write_haplotypes, panel, "rag.hap")):
        with pytest.raises(InputError, match="'b' has 2 loci, expected 3"):
            write(tmp_path / name, rows)
    assert list(tmp_path.iterdir()) == []


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


def test_locus_map_positions_are_written_as_they_read_back(tmp_path):
    """An integer-valued float position past int64 is written as a float;
    positions the writer never writes are named at their line."""
    path = tmp_path / "m.map"
    m = LocusMap(locus_ids=("a", "b", "c"), positions=np.array([1.0, 9.2e18, 1e19]),
                 typed=np.array([True, False, True]))
    write_locus_map(path, m)
    assert path.read_text().split("\n")[1:3] == ["b\t9200000000000000000\tuntyped",
                                                 "c\t1e+19\ttyped"]
    assert np.array_equal(read_locus_map(path).positions, m.positions)
    for text, problem in (("99999999999999999999", "does not fit a 64-bit integer"),
                          ("-9223372036854775809", "does not fit a 64-bit integer"),
                          ("1_000", "is not a number"), ("\u0663000", "is not a number"),
                          ("+5", "is not a number"), (" 5", "is not a number"),
                          ("1_0.5", "is not a number"), ("\u0663.5", "is not a number"),
                          ("1e999", "is not finite"),
                          ("1" * 5000, "is not a number")):  # past int()'s digit limit
        path.write_text(f"z\t-9223372036854775808\ttyped\na\t{text}\ttyped\n")
        with pytest.raises(InputError, match=re.escape(f"{path}:2: position ")
                           + f".*{problem}"):
            read_locus_map(path)


def test_locus_map_names_the_line_of_a_position_out_of_order(tmp_path):
    path = tmp_path / "m.map"
    path.write_text("# note\n\na\t10\ttyped\nb\t20\ttyped\nc\t15\tuntyped\n")
    with pytest.raises(InputError) as info:
        read_locus_map(path)
    assert str(info.value) == f"{path}:5: positions must be strictly increasing"


@pytest.mark.parametrize("rows, problem", [
    ("a\t1\ttyped\nb\t2\ttyped\n# note\na\t3\ttyped\n",
     "4: duplicate locus id 'a' (first on line 1)"),
    ("a\t1\ttyped\n\t2\ttyped\n", "2: locus id must be non-empty"),
    # positions compare as float64 once one is a float, where 2**53 + 1
    # rounds to 2**53: at the float's own line and at a float after them
    ("a\t9007199254740992.0\ttyped\nb\t9007199254740993\ttyped\n",
     "2: positions must be strictly increasing"),
    ("a\t9007199254740992\ttyped\nb\t9007199254740993\ttyped\nc\t1e16\ttyped\n",
     "2: positions must be strictly increasing"),
], ids=["repeated id", "empty id", "float first", "float later"])
def test_locus_map_names_the_line_of_a_bad_id_or_a_float64_tie(tmp_path, rows, problem):
    path = tmp_path / "m.map"
    path.write_text(rows)
    with pytest.raises(InputError) as info:
        read_locus_map(path)
    assert str(info.value) == f"{path}:{problem}"
    path.write_text("a\t9007199254740992\ttyped\nb\t9007199254740993\ttyped\n")
    assert read_locus_map(path).positions.tolist() == [2**53, 2**53 + 1]  # exact as int64


def test_locus_map_position_past_int64_exits_one(ws, tmp_path, capsys):
    bad = tmp_path / "big.map"
    bad.write_text("a\t99999999999999999999\ttyped\n")
    assert run_cli("detect", "--model", ws["model"], "--genotypes", ws["gen"],
                   "--map", str(bad), "--out", str(tmp_path / "o")) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}:1: position 99999999999999999999 does not fit a 64-bit integer\n")


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


@pytest.mark.parametrize("edit,line,problem,oracle_reads", [
    (lambda ls: ls[:4] + [ls[5], ls[4]] + ls[6:], 5,
     "expected row 'transition 0 0' here (model rows must be in the order "
     "the writer writes them)", True),
    (lambda ls: ls[:5] + [ls[4]] + ls[5:], 6, "expected row 'transition 0 1' here", True),
    (lambda ls: ls[:4] + [ls[7]] + ls[5:7] + [ls[4]] + ls[8:], 5,
     "expected row 'transition 0 0' here", True),
    (lambda ls: ls[:-2] + [ls[-1], ls[-2]], 48, "expected row 'emission 10' here", True),
    # a row's last cell moved to the start of the next: the same cells in
    # the same order, but not the same rows
    (lambda ls: ls[:4] + [ls[4] + "\ttransition", ls[5].split("\t", 1)[1]] + ls[6:], 5,
     "row 'transition 0 0' needs 3 values", False),
    (lambda ls: ls + [ls[-1]], 50, "more rows than the header declares", True),
    (lambda ls: ls[:4] + [ls[2]] + ls[4:], 5, "'#founders=3 loci=12' out of place "
     "(the format line and the header come first, once)", False),
    (lambda ls: ls[:4] + [ls[0]] + ls[4:], 5, "'#founderhmm-model v1' out of place", True),
    (lambda ls: ls[:1] + ls[3:4] + ls[1:3] + ls[4:], 2,
     "expected the '#founders=<K> loci=<n>' header here", False),
    (lambda ls: ls[:3] + [ls[3].rsplit("\t", 1)[0] + "\tnan"] + ls[4:], 4,
     "value 'nan' is not a finite number", False),
    (lambda ls: ls[:3] + ["initial"] + ls[4:], 4, "row 'initial' needs 3 values", False),
    # rows that parse but make no model
    (lambda ls: ls[:3] + ["initial\t-0.5\t1\t0.5"] + ls[4:], 4,
     "row 'initial' must be non-negative and sum to 1 within 1e-09", False),
    (lambda ls: ls[:7] + ["transition\t1\t0\t0.5\t0.9\t0.1"] + ls[8:], 8,
     "row 'transition 1 0' must be non-negative and sum to 1 within 1e-09", False),
    (lambda ls: ls[:-1] + ["emission\t11\t0.5\t1.5\t0.5"], 49,
     "row 'emission 11' must lie in [0, 1]", False),
])
def test_model_reader_names_the_line_that_breaks_the_writers_layout(
        tmp_path, edit, line, problem, oracle_reads):
    """Rows out of order, repeated rows, a second header or format line and
    values that are not finite numbers are named at their line, some of
    them files that the per-line oracle reads."""
    path = tmp_path / "m.model"
    write_model(path, trained_toy_model(), config_line="#config: train x=1")
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(InputError) as info:
        read_model(path)
    assert str(info.value).startswith(f"{path}:{line}: {problem}")
    if oracle_reads:
        oracle.read_model_per_line(path)


def test_model_reader_skips_comment_lines_among_rows(tmp_path):
    model = trained_toy_model()
    path = tmp_path / "m.model"
    write_model(path, model)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(["#a note", ""] + lines[:5] + ["#a note", ""] + lines[5:]
                              + ["#end"]) + "\n")
    back = read_model(path)
    assert np.array_equal(back.transitions, model.transitions)
    assert np.array_equal(back.emissions, model.emissions)


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
        for end in (b"\r\n", b"\n", b"\r"):
            path.write_bytes(end.join(lines))
            with pytest.raises(InputError, match=f"{name}:3: byte 0x84 is not UTF-8"):
                read(path)


@pytest.mark.parametrize("lead", ["", " \t\n", "\x1c\x1f\x0b\x0c\n", "\r\n\r",
                                  "\u2028\u00a0", "\u3000\r", "\u00d1\n"])
@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_report_readers_read_text_and_json_after_any_white_space(tmp_path, lead, end):
    """A report whose bytes are its text (no \\r, UTF-8) and one whose line
    ends or leading white space need the decoded text read alike: JSON
    after any white space str.lstrip() strips, TSV as the oracles read it."""
    path = tmp_path / "r"
    for write, read, value, oracle_read, outcome in (
            (write_error_report, read_error_report, sample_error_report(),
             oracle.read_error_report_per_row, read_outcome),
            (write_imputation, read_imputation, sample_imputation(),
             oracle.read_imputation_per_row, imputation_outcome)):
        for json_mode in (True, False):
            write(path, value, json_mode=json_mode)
            text = path.read_text(encoding="utf-8")
            path.write_bytes((lead + text.replace("\n", end)).encode())
            assert outcome(read, path) == outcome(oracle_read, path)
            if not lead.strip(" \t\r\n"):  # JSON's own white space, or none
                assert read(path).entries == value.entries


def sample_error_report():
    entries = (ErrorEntry("S0", 4, "L4", 2, float("inf"), True, 0),
               ErrorEntry("S1", 0, "L0", 1, 1234.0625, True, 2),
               ErrorEntry("S1", 2, "L2", 0, 1.0, False, 0))
    return ErrorReport.from_entries(entries, threshold=1000.0,
                                    failures={"S9": 3})


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


@pytest.mark.parametrize("flagged", ["false", "0", 0, 1, None, "true"])
def test_json_error_report_flags_must_be_booleans(tmp_path, capsys, flagged):
    path = tmp_path / "r.json"
    write_error_report(path, sample_error_report(), json_mode=True)
    payload = json.loads(path.read_text())
    payload["entries"][2]["flagged"] = flagged
    path.write_text(json.dumps(payload))
    with pytest.raises(InputError, match="flagged must be true or false"):
        read_error_report(path)
    gen = tmp_path / "g.gen"
    write_genotypes(gen, [MultilocusGenotype(sid, np.zeros(5, dtype=np.int8))
                          for sid in ("S0", "S1", "S9")])
    assert run_cli("correct", "--genotypes", str(gen), "--report", str(path),
                   "--out", str(tmp_path / "o.gen")) == 1
    assert f"{path}: malformed JSON error report" in capsys.readouterr().err
    assert not (tmp_path / "o.gen").exists()


def test_error_report_reader_wants_threshold_and_header(tmp_path):
    path = tmp_path / "r.tsv"
    path.write_text("sample_id\tlocus_id\tlocus_index\tobserved\tratio\tflagged\tsuggested\n")
    with pytest.raises(InputError, match="threshold"):
        read_error_report(path)
    header = "\t".join(ERROR_REPORT_COLUMNS) + "\n"
    for text in ("#threshold=10\nwrong\theader\n",
                 "#threshold=10\n#zero-probability\tS0\n" + header,
                 "#threshold=10\n#zero-probability\tS0\tx\n" + header,
                 "#threshold=10\n#zero-probability\tS0\t-4\n" + header,
                 "#threshold=10\n#zero-probability\tS0\t+3\n" + header,
                 "#threshold=10\n#zero-probability\tS0\t 3\n" + header,
                 "#threshold=nan\n" + header, "#threshold=0\n" + header,
                 "#threshold=-1\n" + header):
        path.write_text(text)
        with pytest.raises(InputError, match=LOCATED):
            read_error_report(path)


def sample_imputation():
    entries = (ImputationEntry("S0", 7, "L7", (0.25, 0.5, 0.25), 1, 0.5),
               ImputationEntry("S1", 7, "L7", (1.0 / 3, 1.0 / 3, 1.0 / 3), 0, 1.0 / 3))
    return ImputationResult.from_entries(entries=entries, windows=(),
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
    for line in ("#zero-probability\tS0\n", "#zero-probability\tS0\tx\n",
                 "#zero-probability\tS0\t-4\n", "#zero-probability\tS0\t+3\n",
                 "#zero-probability\tS0\t 3\n"):
        path.write_text(line + header)
        with pytest.raises(InputError, match=LOCATED):
            read_imputation(path)


def test_imputation_reader_rejects_entries_its_writer_never_writes(tmp_path):
    """A locus index past int64, a JSON entry with other fields, probs that
    are not three numbers and a failure that is not a pair; a row with two
    bad cells names the first in column order."""
    path = tmp_path / "i.tsv"
    write_imputation(path, sample_imputation())
    lines = path.read_text().split("\n")  # failure, header, then entries on 3-4
    for cells, problem in (
            ({"locus_index": "9223372036854775808"}, "locus_index must be an integer "
             "from 0 to 9223372036854775807, not 9223372036854775808"),
            ({"locus_index": "x", "p0": "y"}, 'locus_index must be an integer >= 0, not "x"')):
        row = lines[2].split("\t")
        for column, value in cells.items():
            row[IMPUTATION_COLUMNS.index(column)] = value
        path.write_text("\n".join(lines[:2] + ["\t".join(row)] + lines[3:]))
        with pytest.raises(InputError) as info:
            read_imputation(path)
        assert str(info.value) == f"{path}:3: malformed imputation row ({problem})"
    path = tmp_path / "i.json"
    for field, value, problem in (
            ("locus_index", 1 << 63, "locus_index must be an integer from 0 to"),
            ("extra", 1, "an entry must hold exactly sample_id, locus_index, locus_id, "
                         "probs, call, confidence"),
            ("probs", [0.5, 0.5], "probs must be a list of 3 numbers, not [0.5, 0.5]"),
            ("probs", 0.5, "probs must be a list of 3 numbers, not 0.5"),
            ("failures", [["S2", 7, "x"]], "too many values to unpack")):
        write_imputation(path, sample_imputation(), json_mode=True)
        payload = json.loads(path.read_text())
        if field == "failures":
            payload[field] = value
        else:
            payload["entries"][1][field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(InputError, match=re.escape(
                f"{path}: malformed JSON imputation file ({problem}")):
            read_imputation(path)


def damaged_report(tmp_path, json_mode, column, value):
    """The sample error report with one cell of its flagged S1 entry (line
    5 of the TSV file) set to ``value``, and a corpus the report matches."""
    gen = tmp_path / "g.gen"
    write_genotypes(gen, [MultilocusGenotype(sid, np.array(row, dtype=np.int8))
                          for sid, row in (("S0", [0, 0, 0, 0, 2]),
                                           ("S1", [1, 0, 0, 0, 0]),
                                           ("S9", [0] * 5))])
    path = tmp_path / ("r.json" if json_mode else "r.tsv")
    write_error_report(path, sample_error_report(), json_mode=json_mode)
    if value is None:
        return gen, path
    if json_mode:
        payload = json.loads(path.read_text())
        if column in ("threshold", "failures"):
            payload[column] = value
        else:
            payload["entries"][1][column] = value
        path.write_text(json.dumps(payload))
    else:
        lines = path.read_text().split("\n")
        cells = lines[4].split("\t")
        cells[ERROR_REPORT_COLUMNS.index(column)] = value
        lines[4] = "\t".join(cells)
        path.write_text("\n".join(lines))
    return gen, path


@pytest.mark.parametrize("json_mode,column,value", [
    (False, "suggested", "300"), (False, "suggested", "-1"),
    (False, "suggested", "5"), (False, "suggested", "2.5"),
    (False, "observed", "3"), (False, "locus_index", "-1"),
    (False, "flagged", "yes"), (False, "flagged", "true"),
    (True, "suggested", 2.9), (True, "suggested", "2"),
    (True, "suggested", 300), (True, "suggested", -1),
    (True, "observed", True), (True, "locus_index", -1),
    (True, "locus_index", 0.0), (True, "ratio", "nan"),
    (True, "ratio", float("nan")), (True, "ratio", True),
    (True, "ratio", "1.5"), (True, "threshold", "1000"),
    (True, "threshold", float("nan")), (True, "threshold", True),
    (True, "threshold", 0), (True, "failures", {"S0": 2.9}),
    (True, "failures", {"S1": True}), (True, "failures", {"S2": "-4"}),
    (True, "sample_id", ["S1"]), (True, "locus_id", 0)])
def test_bad_error_report_cells_exit_one(tmp_path, capsys, json_mode, column,
                                         value):
    out = tmp_path / "o.gen"
    argv = ["correct", "--out", str(out)]
    gen, path = damaged_report(tmp_path, json_mode, column, None)
    assert run_cli(*argv, "--genotypes", str(gen), "--report", str(path)) == 0
    out.unlink()
    gen, path = damaged_report(tmp_path, json_mode, column, value)
    capsys.readouterr()
    assert run_cli(*argv, "--genotypes", str(gen), "--report", str(path)) == 1
    err = capsys.readouterr().err
    assert column in err
    if json_mode:
        assert f"{path}: malformed JSON error report" in err
    else:
        assert f"{path}:5: malformed error report row" in err
    assert not out.exists()


def test_correct_errors_rejects_symbols_outside_0_to_2():
    corpus = [MultilocusGenotype("S0", np.array([0, 0, 0, 0, 2], dtype=np.int8))]
    for suggested in (-1, 3, 300):
        entry = ErrorEntry("S0", 4, "L4", 2, float("inf"), True, suggested)
        report = ErrorReport.from_entries((entry,), threshold=10.0,
                                          failures={})
        with pytest.raises(InputError, match="suggests symbol"):
            correct_errors(corpus, report)


def sample_report_lines(tmp_path):
    """The lines of the sample error report as TSV: the threshold on line
    1, a failure on line 2, the header on line 3 and entries on 4-6."""
    path = tmp_path / "r.tsv"
    write_error_report(path, sample_error_report())
    return path, path.read_text().split("\n")


def with_cell(line, column, value):
    cells = line.split("\t")
    cells[ERROR_REPORT_COLUMNS.index(column)] = value
    return "\t".join(cells)


def cell(column, value):
    return lambda line: with_cell(line, column, value)


def drop_last(line):
    return line.rsplit("\t", 1)[0]


@pytest.mark.parametrize("damage,message", [
    # two bad rows: the earlier one is named, with its first bad field
    ({4: cell("flagged", "yes"), 5: cell("suggested", "5")},
     ':5: malformed error report row (flagged must be one of 0, 1, not "yes")'),
    ({4: cell("observed", "7"), 5: cell("flagged", "x")},
     ':5: malformed error report row (observed must be one of 0, 1, 2, not "7")'),
    ({4: cell("suggested", "9"), 5: cell("flagged", "x")},
     ':5: malformed error report row (suggested must be one of 0, 1, 2, not "9")'),
    ({4: cell("observed", ""), 5: cell("observed", "00")},
     ':5: malformed error report row (observed must be one of 0, 1, 2, not "")'),
    ({4: cell("ratio", "x"), 5: drop_last},
     ':5: malformed error report row (could not convert string to float: \'x\')'),
    ({4: drop_last, 5: cell("flagged", "x")}, ":5: expected 7 fields"),
    ({4: cell("flagged", "x"), 5: drop_last},
     ':5: malformed error report row (flagged must be one of 0, 1, not "x")'),
    # a short row and a long one whose cells would line up as 7 columns
    ({4: drop_last, 5: lambda line: "0\t" + line}, ":5: expected 7 fields"),
    ({5: cell("locus_index", "99999999999999999999")},
     ":6: malformed error report row (locus_index must be an integer from 0 "
     "to 9223372036854775807, not 99999999999999999999)"),
])
def test_error_report_reader_names_the_earliest_bad_row(tmp_path, damage,
                                                        message):
    path, lines = sample_report_lines(tmp_path)
    for i, edit in damage.items():
        lines[i] = edit(lines[i])
    path.write_text("\n".join(lines))
    with pytest.raises(InputError) as info:
        read_error_report(path)
    assert str(info.value) == f"{path}{message}"


def test_error_report_reader_counts_comment_lines(tmp_path):
    path, lines = sample_report_lines(tmp_path)
    lines[5] = with_cell(lines[5], "flagged", "2")
    lines[4:4] = ["#a comment between rows", ""]
    path.write_text("\n".join(lines))
    with pytest.raises(InputError, match=re.escape(
            f"{path}:8: malformed error report row (flagged")):
        read_error_report(path)


def test_error_report_reader_names_the_earlier_of_header_and_row(tmp_path):
    path, lines = sample_report_lines(tmp_path)
    lines[4] = with_cell(lines[4], "flagged", "2")
    path.write_text("\n".join(lines + ["#threshold=x", ""]))
    with pytest.raises(InputError, match=re.escape(f"{path}:5: malformed error")):
        read_error_report(path)
    path.write_text("\n".join(lines[:4] + ["#threshold=x"] + lines[4:]))
    with pytest.raises(InputError, match=re.escape(
            f"{path}:5: malformed threshold header")):
        read_error_report(path)


def correct_outcome(correct, corpus, report):
    """The corrected corpus and change count, or the message raised."""
    try:
        corrected, changes = correct(corpus, report)
    except InputError as exc:
        return str(exc)
    return corrected.ids, corrected.matrix.tolist(), changes


def test_correct_errors_names_the_first_bad_entry_and_changes_nothing():
    """The report's sample codes give the per-entry loop's corpus, or its
    message for the first bad entry: an unknown sample, a locus out of
    range, a stale cell (one an earlier entry changed), a symbol the
    corpus does not hold, a suggestion outside 0-2; with the report's
    sample names as they come and recoded."""
    corpus = [MultilocusGenotype("S0", np.array([0, 0, 0, 0, 2], dtype=np.int8)),
              MultilocusGenotype("S1", np.array([1, 0, 0, 0, 0], dtype=np.int8))]
    before = [g.symbols.copy() for g in corpus]
    good = ErrorEntry("S0", 4, "L4", 2, float("inf"), True, 0)
    cases = [
        ((good, good._replace(flagged=False)), "report does not match corpus at 'S0' locus 4"),
        ((good._replace(sample_id="S1", locus_index=0, observed=1), good,
          good._replace(observed=0, flagged=False)),
         "report does not match corpus at 'S0' locus 4"),
        ((good, good._replace(sample_id="S\u00d1")), "report names unknown sample 'S\u00d1'"),
        ((good, good._replace(locus_index=9), good._replace(sample_id="S7")),
         "report locus 9 out of range"),
        ((good, good._replace(sample_id="S7"), good._replace(locus_index=9)),
         "report names unknown sample 'S7'"),
        ((good, good._replace(flagged=False), good._replace(sample_id="S7")),
         "report does not match corpus at 'S0' locus 4"),
        ((good._replace(flagged=False), good._replace(observed=1, suggested=2),
          good._replace(suggested=3)),
         "report does not match corpus at 'S0' locus 4"),
        ((good._replace(flagged=False), good._replace(suggested=3)),
         "report suggests symbol 3 at 'S0' locus 4"),
    ]
    for entries, message in cases:
        for report in with_recoded_ids(ErrorReport.from_entries(entries, threshold=10.0,
                                                                failures={})):
            with pytest.raises(InputError, match=re.escape(message)):
                correct_errors(corpus, report)
            assert correct_outcome(oracle.correct_errors_per_entry, corpus, report) == message
            assert all(np.array_equal(g.symbols, b) for g, b in zip(corpus, before))
    report = ErrorReport.from_entries((good, good._replace(sample_id="S1", locus_index=0, observed=1, suggested=2)),
                                      threshold=10.0, failures={})
    for report in with_recoded_ids(report):
        corrected, changes = correct_errors(corpus, report)
        assert changes == 2
        assert [g.symbols.tolist() for g in corrected] == [[0, 0, 0, 0, 0],
                                                           [2, 0, 0, 0, 0]]
        assert correct_outcome(oracle.correct_errors_per_entry, corpus, report) == (
            ("S0", "S1"), [[0, 0, 0, 0, 0], [2, 0, 0, 0, 0]], 2)


def test_error_report_bytes_with_awkward_ids(tmp_path):
    inf = float("inf")
    report = ErrorReport.from_entries((
        ErrorEntry("%", 0, "L%d", 0, inf, True, 1),
        ErrorEntry("%s", 1, "%s", 1, 0.1 + 0.2, False, 1),
        ErrorEntry("%%", 2, "{}", 2, 1.0, False, 2),
        ErrorEntry("{}", 3, "%(x)s", 0, 1e300, True, 2),
        ErrorEntry("S\u2028x", 4, "L\u2028", 1, 12.5, True, 0)),
        threshold=10.0, failures={"%s": 3})
    path = tmp_path / "r.tsv"
    write_error_report(path, report, config_line="#config: detect %s {}")
    assert path.read_bytes() == (
        "#config: detect %s {}\n"
        "#threshold=10\n"
        "#zero-probability\t%s\t3\n"
        "sample_id\tlocus_id\tlocus_index\tobserved\tratio\tflagged\tsuggested\n"
        "%\tL%d\t0\t0\tinf\t1\t1\n"
        "%s\t%s\t1\t1\t0.30000000000000004\t0\t1\n"
        "%%\t{}\t2\t2\t1\t0\t2\n"
        "{}\t%(x)s\t3\t0\t1.0000000000000001e+300\t1\t2\n"
        "S\u2028x\tL\u2028\t4\t1\t12.5\t1\t0\n").encode()
    for json_mode in (False, True):
        write_error_report(path, report, json_mode=json_mode)
        back = read_error_report(path)
        assert back.entries == report.entries
        assert (back.threshold, back.failures) == (10.0, {"%s": 3})


def with_recoded_ids(report):
    """``report``, then the same report with each id column recoded: its
    names out of first-use order, repeated, and one unused."""
    names = [f.name for f in dataclasses.fields(report)[:len(report._dtypes)]
             if isinstance(getattr(report, f.name), founderhmm.IdColumn)]
    return report, dataclasses.replace(report, **{
        name: recoded(getattr(report, name)) for name in names})


def test_report_writers_match_the_per_row_writers(tmp_path):
    """Each distinct piece is formatted once; the bytes, TSV and JSON, are
    those of one row template per entry, for floats that differ only in
    sign or NaN payload, ids a %-format or str.format would read, one
    locus index under two locus ids, an empty report, many distinct
    values, the comment lines, and id columns whose names repeat, come
    out of first-use order or go unused."""
    nan, inf = float("nan"), float("inf")
    ratios = [-0.0, 0.0, nan, float(np.copysign(nan, -1)), inf, -inf, 5e-324,
              1e300, 1.0, 1.0, 0.1 + 0.2, 1234.0625, -0.0, 1.0]
    samples = ["%", "{}", "S\u2028x", "%s%%", "abcdefgh1234ijklmnop\x00"]
    loci = [("L%d", 0), ("{}", 1), ("L\u2028", 2), ("other", 1), ("L0", 0)]
    entries = [ErrorEntry(samples[j % 5], loci[j % 5][1], loci[j % 5][0], j % 3,
                          r, j % 2 == 0, (j + 1) % 3) for j, r in enumerate(ratios)]
    rng = np.random.default_rng(8)
    many = [ErrorEntry(f"S{j // 40}", j % 40, f"m{j % 40}", int(rng.integers(3)),
                       float(rng.choice([1.0, rng.random() * 1e4])), bool(j % 3),
                       int(rng.integers(3))) for j in range(3000)]
    path = tmp_path / "r.tsv"
    for given in (ErrorReport.from_entries(entries, 10.0, {"%s": 3, "b": 0}),
                  ErrorReport.from_entries((), 0.5, {"S9": 7}),
                  ErrorReport.from_entries(many, 1000.0, {})):
        for report in with_recoded_ids(given):
            for config in (None, "#config: detect %s {}"):
                for json_mode in (False, True):
                    write_error_report(path, report, config_line=config, json_mode=json_mode)
                    assert path.read_bytes() == oracle.error_report_text_per_row(
                        report, config, json_mode).encode()
    windows = (WindowReport(0, 4, (1, 2), 7, True, None),
               WindowReport(3, 9, (5,), 50, False, None))
    imputed = [ImputationEntry(samples[j % 5], loci[j % 5][1], loci[j % 5][0],
                               (r, 1.0 / 3, -0.0), j % 3, r) for j, r in enumerate(ratios)]
    imputed += [ImputationEntry(f"S{j % 7}", j % 11, f"u{j % 11}",
                                tuple(rng.dirichlet(np.ones(3))), j % 3, rng.random())
                for j in range(500)]
    for rows in (imputed, []):
        given = ImputationResult.from_entries(entries=tuple(rows), windows=windows,
                                              failures=(("S2", 7), ("%s", 0)),
                                              forward_locus_evals=0, backward_locus_evals=0)
        for result in with_recoded_ids(given):
            for config in (None, "#config: impute {}"):
                for json_mode in (False, True):
                    write_imputation(path, result, config_line=config, json_mode=json_mode)
                    assert path.read_bytes() == oracle.imputation_text_per_entry(
                        result, config, json_mode).encode()


ODD_FLOATS = [-0.0, 0.0, 1e-300, 5e-324, 1.0, 0.1 + 0.2, 1234.0625, 1e300,
              float("inf"), float("nan"), float(np.copysign(float("nan"), -1)), -0.0]
ODD_IDS = ["%", "{}", "S\u2028x", "%s%%", "abcdefgh1234ijklmnop\x00"]


def test_recovery_writer_matches_the_per_fill_writer(tmp_path):
    """The fill log, TSV and JSON, with and without failures and fills,
    its sample ids as they come and recoded."""
    rng = np.random.default_rng(4)
    odd = [RecoveryFill(ODD_IDS[j % 5], j % 4, j % 3, c) for j, c in enumerate(ODD_FLOATS[:9])]
    many = [RecoveryFill(f"S{j // 30}", j % 30, int(rng.integers(3)),
                         float(rng.choice([1.0, rng.random()]))) for j in range(2000)]
    corpus = GenotypeCorpus(["a"], np.zeros((1, 3), dtype=np.int8))
    path = tmp_path / "fills"
    for fills in (odd, many, []):
        for failures in ({}, {"%s": 3, "b": 0}):
            for result in with_recoded_ids(
                    RecoveryResult.from_entries(fills, corpus, failures, None)):
                for config in (None, "#config: recover %s {}"):
                    for json_mode in (False, True):
                        write_recovery(path, result, config_line=config, json_mode=json_mode)
                        assert path.read_bytes() == oracle.recovery_text_per_fill(
                            result, config, json_mode).encode()


def test_model_writer_matches_the_per_value_writer(tmp_path):
    """Random models of 1-6 founders and 1-12 loci whose values include
    -0.0, 5e-324, 1e-300, 1 - 2**-53 and 0.1 + 0.2 - 0.2, with and without a
    config line."""
    rng = np.random.default_rng(5)
    odd = np.array([-0.0, 0.0, 5e-324, 1e-300, 1.0 - 2.0 ** -53, 0.1 + 0.2 - 0.2, 1.0])
    path = tmp_path / "m.model"
    for trial in range(40):
        k, n = int(rng.integers(1, 7)), int(rng.integers(1, 13))
        model = random_model(rng, k, n)
        trans = model.transitions.copy()
        if n > 1 and k > 1:
            i, a = rng.integers(n - 1), rng.integers(k)
            trans[i, a, rng.integers(k)] = rng.choice(odd[:4])
            trans[i, a] /= trans[i, a].sum()
        emis = model.emissions.copy()
        picked = rng.random(emis.shape) < 0.3
        emis[picked] = rng.choice(odd, size=picked.sum())
        model = FounderHMM(model.initial, trans, emis)
        for config in (None, "#config: train %s"):
            write_model(path, model, config_line=config)
            assert path.read_bytes() == oracle.model_text_per_value(model, config).encode()


def test_sweep_writer_matches_the_per_row_writer(tmp_path):
    """Sweep tables with and without seconds: failed cells (NaN error rate
    and a message), -0.0, 1e-300, repeated cells and no rows."""
    rows = [SweepRow(5, 100, 10, "imp", 40, 3, 0.075, 1.25, False, ""),
            SweepRow(5, 100, 10, "edc-mdr-imp", 0, 0, float("nan"), 0.5, True,
                     "InputError: 100% {} bad cell"),
            SweepRow(7, 200, 3, "imp", 40, 0, -0.0, -0.0, False, ""),
            SweepRow(7, 200, 3, "imp", 40, 0, 1e-300, 1e-300, False, ""),
            SweepRow(5, 100, 10, "imp", 40, 3, 0.075, 1.25, False, "")]
    rows += [SweepRow(3, 50, 1, "imp", 40, 0, 0.0, 5e-324, False, ""),
             SweepRow(3, 50, 1, "imp", 40, 0, 0.0, ODD_FLOATS[10], True, "%s")]
    path = tmp_path / "sweep.tsv"
    for table in (rows, rows[:1], []):
        for config in (None, "#config: sweep %s"):
            for with_seconds in (False, True):
                write_sweep_table(path, table, config_line=config, with_seconds=with_seconds)
                assert path.read_bytes() == oracle.sweep_text_per_row(
                    table, config, with_seconds).encode()


def test_bench_writer_matches_the_per_row_writer(tmp_path):
    """Bench tables with their exponent lines, and with no rows."""
    rows = tuple(BenchRow(axis, v, s, 7 * v) for axis, v, s in (
        ("loci", 250, 0.012), ("loci", 500, 0.0245), ("samples", 60, 1e-300),
        ("samples", 120, -0.0), ("founders", 3, 5e-324), ("founders", 5, 0.012)))
    exponents = {"loci": 1.0294, "samples": -0.0, "founders": float("nan")}
    path = tmp_path / "bench.tsv"
    for report in (BenchReport(rows, exponents), BenchReport((), {}),
                   BenchReport((), {"loci": 1e-300})):
        for config in (None, "#config: bench %s"):
            write_bench_table(path, report, config_line=config)
            assert path.read_bytes() == oracle.bench_text_per_row(report, config).encode()


def test_eval_writer_matches_the_line_writer(tmp_path):
    """Evaluation reports, TSV and JSON, with no calls and with some."""
    path = tmp_path / "eval"
    for report in (EvalReport(0, 0, np.zeros((3, 3), dtype=np.int64), {"kind": "corpus"}),
                   EvalReport(30, 7, np.arange(9).reshape(3, 3), {"kind": "imputation"})):
        for config in (None, "#config: evaluate %s"):
            for json_mode in (False, True):
                write_eval_report(path, report, config_line=config, json_mode=json_mode)
                assert path.read_bytes() == oracle.eval_text(
                    report, config, json_mode).encode()


def read_outcome(read, path):
    """The columns of a read report, as bytes, or the message of the
    InputError raised."""
    try:
        r = read(path)
    except InputError as exc:
        return str(exc)
    assert all(type(i) is str for i in r.sample_id.tolist() + r.locus_id.tolist())
    return (r.sample_id, r.locus_id, r.threshold, r.failures,
            [(c.dtype.str, c.tobytes()) for c in (r.locus_index, r.observed,
                                                  r.ratio, r.flags, r.suggested)])


def assert_reads_as_oracle(path):
    assert (read_outcome(read_error_report, path)
            == read_outcome(oracle.read_error_report_per_row, path)), path.read_bytes()


REPORT_ROWS = ["S0\tL4\t4\t2\tinf\t1\t0", "S1\tL0\t0\t1\t1234.0625\t1\t2",
               "S1\tL2\t2\t0\t1\t0\t0", "\u00d1\t\u65e5\u672c\t5\t0\t-0\t0\t0",
               "abcdefgh1234ijklmnop\tL3\t3\t1\t1.000000000000000001\t0\t1",
               "abcdefgh5678ijklmnop\tL3\t3\t1\t1.000000999900000001\t0\t1",
               "S\u2028x\tL4\t4\t1\t1.000000000000000001\t0\t1",
               "S\x00\tL0\x00\t0\t0\t1\t0\t0"]


def report_text(rows=REPORT_ROWS, head=("#threshold=1000", "#zero-probability\tS9\t3")):
    return "\n".join([*head, "\t".join(ERROR_REPORT_COLUMNS), *rows]) + "\n"


@pytest.mark.parametrize("ratio", ["1_0", " 1", "+1E3", "INF", "-0", "nan", "1e-400",
                                   "0x1p3", "", "1\x00", "\u0661", "1 x"])
def test_error_report_ratio_cells_read_as_the_oracle_reads_them(tmp_path, ratio):
    path = tmp_path / "r.tsv"
    for at in (0, 3, 6):
        rows = list(REPORT_ROWS)
        rows[at] = with_cell(rows[at], "ratio", ratio)
        path.write_text(report_text(rows))
        assert_reads_as_oracle(path)


@pytest.mark.parametrize("edit", [
    lambda t: t.replace("\n", "\r\n"), lambda t: t.replace("\n", "\r"),
    lambda t: t.replace("\n", "\r\n", 3).replace("\n", "\r"),
    lambda t: t.replace("\nS1\t", "\n \n\t\t\t\t\t\t\n\u2028\n\x0c\x1c\nS1\t"),
    lambda t: "\t\t\t\t\t\t\n  \n" + t,
    lambda t: t.replace("\nS1\t", "\n#a comment\n\n#threshold=5\nS1\t"),
    lambda t: t.replace("\nS1\t", "\n#zero-probability\tS8\t4\nS1\t"),
    lambda t: t.replace("\nS1\t", "\n#threshold=x\nS1\t"),
    lambda t: t.replace("\nS1\t", "\n#zero-probability\tS8\n\tS1\t"),
    lambda t: t.rstrip("\n"), lambda t: t + "\n\n", lambda t: t + "\t",
    lambda t: t.replace("\t1\t0\n", "\t1\t0\t\n", 1),
    lambda t: t.replace("L0\t0", "L0\t00000000000000000000000000", 1),
    lambda t: t.replace("L0\t0", "L0\t9223372036854775807", 1),
    lambda t: t.replace("L0\t0", "L0\t9223372036854775808", 1),
    lambda t: t.replace("L0\t0", "L0\t\u0660", 1),
    lambda t: t.replace("\t0\t0\n", "\t0\t\u0660\n", 1),
    lambda t: t.replace("L2\t2", "L4\t2", 1),  # index 2 under a second locus id
    lambda t: t.replace("sample_id", "sample", 1),
    lambda t: t.split("sample_id")[0], lambda t: t.replace("#threshold=1000\n", ""),
    lambda t: "", lambda t: "\n \n",
])
def test_error_report_lines_read_as_the_oracle_reads_them(tmp_path, edit):
    path = tmp_path / "r.tsv"
    path.write_bytes(edit(report_text()).encode())
    assert_reads_as_oracle(path)


def test_error_report_index_too_long_for_int_is_named_not_a_crash(tmp_path):
    """A locus index past int()'s digit limit is a bad cell named at its
    line; the per-row oracle lets its ValueError escape (exit 2)."""
    path = tmp_path / "r.tsv"
    path.write_text(report_text().replace("L0\t0", "L0\t" + "0" * 5000, 1))
    with pytest.raises(ValueError, match="Exceeds the limit"):
        oracle.read_error_report_per_row(path)
    with pytest.raises(InputError, match=re.escape(
            f"{path}:5: malformed error report row (Exceeds the limit")):
        read_error_report(path)


def test_error_report_reader_parses_each_distinct_piece_once(tmp_path, monkeypatch):
    """Pieces of every width, 8 to 23 bytes included, are grouped exactly:
    the sample id, middle and each float column's parsers run once per
    distinct piece, in the error report and in the imputation table alike;
    symbol cells are read as bytes, never parsed."""
    io_formats = founderhmm.io_formats
    calls = []

    def cells(arr, words, lo, hi, parse, blank, f=io_formats._cells):
        log = []
        calls.append(log)
        return f(arr, words, lo, hi, lambda cell: log.append(cell) or parse(cell), blank)

    monkeypatch.setattr(io_formats, "_cells", cells)
    ratios = ("1", "1234.0625", "1.0000000000000001e+300", "0.30000000000000004")
    rows = [f"S{j % 9}\tL{j % 300}\t{j % 300}\t{j % 3}\t{ratios[j % 4]}\t0\t{j % 3}"
            for j in range(3000)]
    path = tmp_path / "r.tsv"
    path.write_text(report_text(rows))
    assert len(read_error_report(path)) == 3000
    # the column header has six tabs too, and is parsed as a row would be:
    # sample ids, middles, ratios
    assert [len(log) for log in calls] == [len(set(log)) for log in calls] == [1 + 9, 1 + 300, 1 + 4]
    calls.clear()
    rows = [f"S{j % 9}\tL{j % 300}\t{j % 300}\t{ratios[j % 4]}\t0.5\t{ratios[j % 4]}"
            f"\t{j % 3}\t0.5" for j in range(3000)]
    path.write_text("\n".join(["#window\t0\t4\t1,2\t7", "\t".join(IMPUTATION_COLUMNS),
                               *rows]) + "\n")
    assert len(read_imputation(path).entries) == 3000
    # sample ids, middles, p0, p1, p2, confidence
    assert ([len(log) for log in calls] == [len(set(log)) for log in calls]
            == [1 + 9, 1 + 300, 1 + 4, 1 + 1, 1 + 4, 1 + 1])


@pytest.mark.parametrize("column,value,problem", [
    ("observed", "3", 'observed must be one of 0, 1, 2, not "3"'),
    ("observed", "01", 'observed must be one of 0, 1, 2, not "01"'),
    ("ratio", "x", "could not convert string to float: 'x'"),
    ("flagged", "2", 'flagged must be one of 0, 1, not "2"'),
    ("suggested", " 1", 'suggested must be one of 0, 1, 2, not " 1"'),
    ("suggested", "", 'suggested must be one of 0, 1, 2, not ""')])
def test_bad_tail_cell_of_a_later_row_exits_one_naming_it(tmp_path, capsys, column, value,
                                                          problem):
    """Cells past the locus index are checked a column at a time; a bad
    one far down the file exits 1 with its line and first bad field, as
    the per-row check names them."""
    rows = [f"S{j // 500}\tL{j % 500}\t{j % 500}\t{j % 3}\t{1 + j % 7}\t0\t{j % 3}"
            for j in range(5000)]
    rows[4321] = with_cell(rows[4321], column, value)
    path = tmp_path / "r.tsv"
    path.write_text(report_text(rows))
    message = f"{path}:4325: malformed error report row ({problem})"
    with pytest.raises(InputError) as want:
        oracle.read_error_report_per_row(path)
    assert str(want.value) == message
    gen = tmp_path / "g.gen"
    write_genotypes(gen, [MultilocusGenotype(f"S{j}", np.zeros(500, dtype=np.int8))
                          for j in range(10)])
    capsys.readouterr()
    assert run_cli("correct", "--genotypes", str(gen), "--report", str(path),
                   "--out", str(tmp_path / "o.gen")) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o.gen").exists()


def test_float_grammar_ratio_cells_read_as_the_oracle_reads_them(tmp_path):
    """Ratio cells that ``float()`` reads in its own grammar, among plain
    ones, each distinct cell parsed once; sample ids in runs, one id in
    several runs."""
    ratios = (" 1", "1_0", "inf", "-0", "1", "2.5", "1e3", "-0.0", "1 ", "0_1.5")
    rows = [f"S{(j // 7) % 5}\tL{j % 50}\t{j % 50}\t{j % 3}\t{ratios[j * 7 % 10]}\t{j % 2}"
            f"\t{j % 3}" for j in range(2000)]
    path = tmp_path / "r.tsv"
    path.write_text(report_text(rows))
    assert_reads_as_oracle(path)
    ratio = read_error_report(path).ratio
    assert [float(ratios[j * 7 % 10].replace("_", "")) for j in range(2000)] == ratio.tolist()
    assert np.signbit(ratio[[j for j in range(2000) if ratios[j * 7 % 10].startswith("-")]]).all()


def test_error_report_reader_names_a_bad_row_after_many_good_ones(tmp_path):
    rows = [f"S{j // 500}\tL{j % 500}\t{j % 500}\t{j % 3}\t{1 + j % 7}\t0\t{j % 3}"
            for j in range(20_000)]
    path = tmp_path / "r.tsv"
    path.write_text(report_text(rows))
    assert_reads_as_oracle(path)
    path.write_text(report_text(rows + ["S9\tL1\t1\t0\t1\tx\t0"] + rows[:5]))
    assert_reads_as_oracle(path)
    with pytest.raises(InputError, match=re.escape(
            f"{path}:20004: malformed error report row (flagged must be")):
        read_error_report(path)


AWKWARD_IDS = ("S\u2028x", "a b", " lead", "trail ", "%s", "50%", "a#b", " #x")


def test_awkward_ids_round_trip_through_every_writer_and_reader(tmp_path):
    ids, n = AWKWARD_IDS, len(AWKWARD_IDS)
    symbols = (np.arange(n * 3).reshape(n, 3) % 4 - 1).astype(np.int8)
    corpus = [MultilocusGenotype(sid, symbols[j]) for j, sid in enumerate(ids)]
    write_genotypes(tmp_path / "c.gen", corpus)
    back = read_genotypes(tmp_path / "c.gen")
    assert [g.sample_id for g in back] == list(ids)
    assert np.array_equal(np.stack([g.symbols for g in back]), symbols)
    panel = [HaplotypeSequence(sid, symbols[j] % 2) for j, sid in enumerate(ids)]
    write_haplotypes(tmp_path / "p.hap", panel)
    assert [(h.id, h.alleles.tolist()) for h in read_haplotypes(tmp_path / "p.hap")] \
        == [(h.id, h.alleles.tolist()) for h in panel]
    write_locus_map(tmp_path / "m.map", LocusMap(ids, np.arange(1, n + 1),
                                                 np.arange(n) % 2 == 0))
    assert read_locus_map(tmp_path / "m.map").locus_ids == ids
    imputed = ImputationResult.from_entries(
        entries=tuple(ImputationEntry(sid, j, ids[-1 - j], (0.25, 0.5, 0.25), 1, 0.5)
                      for j, sid in enumerate(ids)),
        windows=(), failures=((ids[0], 2),), forward_locus_evals=0,
        backward_locus_evals=0)
    report = ErrorReport.from_entries(
        tuple(ErrorEntry(sid, j, ids[-1 - j], 1, 2.5, j % 2 == 0, 0)
              for j, sid in enumerate(ids)), threshold=10.0, failures={ids[1]: 3})
    for json_mode in (False, True):
        write_imputation(tmp_path / "i", imputed, json_mode=json_mode)
        again = read_imputation(tmp_path / "i")
        assert (again.entries, again.failures) == (imputed.entries, imputed.failures)
        write_error_report(tmp_path / "r", report, json_mode=json_mode)
        again = read_error_report(tmp_path / "r")
        assert (again.entries, again.failures) == (report.entries, report.failures)


def test_ids_with_other_line_breaks_round_trip_through_symbol_files(tmp_path):
    """Only \\n, \\r\\n and a lone \\r end a line of a symbol file; the other
    characters that str.splitlines breaks at stay inside an id."""
    ids = ("a\x0bb", "\x0c", "x\x1cy", "\x1d\x1e", "\x85z", "p\u2029q", "q\u2028")
    symbols = (np.arange(len(ids) * 4).reshape(-1, 4) % 4 - 1).astype(np.int8)
    write_genotypes(tmp_path / "c.gen", [MultilocusGenotype(i, row)
                                         for i, row in zip(ids, symbols)])
    back = read_genotypes(tmp_path / "c.gen")
    assert back.ids == ids and np.array_equal(back.matrix, symbols)
    write_haplotypes(tmp_path / "p.hap", [HaplotypeSequence(i, row % 2)
                                          for i, row in zip(ids, symbols)])
    back = read_haplotypes(tmp_path / "p.hap")
    assert back.ids == ids and np.array_equal(back.matrix, symbols % 2)
    path = tmp_path / "c.gen"
    path.write_bytes(path.read_bytes().replace(b"#samples=7", b"#samples=8")
                     + b"bad\t01x2\n")
    with pytest.raises(InputError, match=re.escape(f"{path}:9: symbol 'x'")):
        read_genotypes(path)


def test_symbol_flows_build_and_check_no_row_objects(ws, tmp_path, monkeypatch):
    """Readers, the four scan flows and the writers move whole matrices;
    phasing builds its PhaseResult haplotypes without checking them."""
    def refuse(*args):
        raise RuntimeError("a row object was built and checked")
    monkeypatch.setattr(founderhmm.model, "_checked_row", refuse)
    out = {name: str(tmp_path / name) for name in ("r", "c", "v", "p")}
    for argv in (["detect", "--model", ws["model"], "--genotypes", ws["gen"],
                  "--out", out["r"]],
                 ["correct", "--genotypes", ws["gen"], "--report", out["r"],
                  "--out", out["c"]],
                 ["recover", "--model", ws["model"], "--genotypes", out["c"],
                  "--out", out["v"]],
                 ["phase", "--model", ws["model"], "--genotypes", out["v"],
                  "--out", out["p"]]):
        assert run_cli(*argv) == 0, argv
    corpus = read_genotypes(out["v"])
    phased = founderhmm.phase_corpus(read_model(ws["model"]), corpus)
    panel = read_haplotypes(out["p"])
    assert [h.id for d in phased for h in (d.first, d.second)] == list(panel.ids)
    assert np.array_equal(np.stack([h.alleles for d in phased
                                    for h in (d.first, d.second)]), panel.matrix)
    assert not phased[0].first.alleles.flags.writeable


@pytest.mark.parametrize("bad", ["a\tb", "a\nb", "a\rb", "a\r\nb", "#x", "#"])
def test_ids_no_file_can_hold_are_rejected_where_built(bad):
    for build in (lambda: MultilocusGenotype(bad, [0, 1]),
                  lambda: HaplotypeSequence(bad, [0, 1]),
                  lambda: LocusMap(("a", bad), [1, 2], [True, True])):
        with pytest.raises(InputError, match="must not start with '#' or hold a tab"):
            build()


def test_report_flows_build_no_entry_objects(ws, tmp_path, monkeypatch):
    def refuse(*args):
        raise RuntimeError("an ErrorEntry was built")
    monkeypatch.setattr(founderhmm.analysis, "ErrorEntry", refuse)
    for suffix, extra in ((".tsv", []), (".json", ["--json"])):
        report = str(tmp_path / f"r{suffix}")
        assert run_cli("detect", "--model", ws["model"], "--genotypes",
                       ws["gen"], "--out", report, *extra) == 0
        assert run_cli("correct", "--genotypes", ws["gen"], "--report", report,
                       "--out", str(tmp_path / "c.gen")) == 0
        assert run_cli("pipeline", "--mode", "edc-mdr-imp", "--panel", ws["ref"],
                       "--genotypes", ws["gen"], "--map", ws["map"],
                       "--founders", "3", "--flank", "4",
                       "--out", str(tmp_path / f"i{suffix}"),
                       "--report-out", report, *extra) == 0


def damaged_imputation(tmp_path, json_mode, column, value):
    """The sample imputation with one cell of its first entry (line 3 of
    the TSV file) set to ``value``, and a truth corpus it can be scored
    against."""
    truth = tmp_path / "t.gen"
    write_genotypes(truth, [MultilocusGenotype(sid, np.zeros(9, dtype=np.int8))
                            for sid in ("S0", "S1", "S2")])
    path = tmp_path / ("i.json" if json_mode else "i.tsv")
    write_imputation(path, sample_imputation(), json_mode=json_mode)
    if value is None:
        return truth, path
    if json_mode:
        payload = json.loads(path.read_text())
        if column == "failures":
            payload[column] = value
        else:
            payload["entries"][0][column] = value
        path.write_text(json.dumps(payload))
    else:
        lines = path.read_text().split("\n")
        cells = lines[2].split("\t")
        cells[IMPUTATION_COLUMNS.index(column)] = value
        lines[2] = "\t".join(cells)
        path.write_text("\n".join(lines))
    return truth, path


@pytest.mark.parametrize("json_mode,column,value", [
    (False, "call", "5"), (False, "call", "300"), (False, "call", "-1"),
    (False, "call", "2.5"), (False, "locus_index", "-1"),
    (True, "call", 5), (True, "call", 300), (True, "call", -1),
    (True, "call", True), (True, "call", "1"), (True, "call", 2.0),
    (True, "locus_index", -1), (True, "probs", ["0.25", 0.5, 0.25]),
    (True, "probs", [float("nan"), 0.5, 0.25]), (True, "probs", [True, 0.5, 0.25]),
    (True, "confidence", "0.5"), (True, "confidence", float("nan")),
    (True, "failures", [["S2", 2.9]]), (True, "failures", [["S2", True]]),
    (True, "failures", [["S2", "-4"]]), (True, "failures", [[["S2"], 7]]),
    (True, "sample_id", ["S0"]), (True, "locus_id", 7)])
def test_bad_imputation_cells_exit_one(tmp_path, capsys, json_mode, column,
                                       value):
    out = tmp_path / "e.tsv"
    argv = ["evaluate", "--kind", "imputation", "--out", str(out)]
    truth, path = damaged_imputation(tmp_path, json_mode, column, None)
    assert run_cli(*argv, "--calls", str(path), "--truth", str(truth)) == 0
    out.unlink()
    truth, path = damaged_imputation(tmp_path, json_mode, column, value)
    capsys.readouterr()
    assert run_cli(*argv, "--calls", str(path), "--truth", str(truth)) == 1
    err = capsys.readouterr().err
    assert column in err
    if json_mode:
        assert f"{path}: malformed JSON imputation file" in err
    else:
        assert f"{path}:3: malformed imputation row" in err
    assert not out.exists()


def test_evaluate_rejects_calls_outside_0_to_2():
    truth = [MultilocusGenotype("S0", np.zeros(9, dtype=np.int8))]
    for call in (-1, 3, 300):
        entry = ImputationEntry("S0", 7, "L7", (0.25, 0.5, 0.25), call, 0.5)
        calls = ImputationResult.from_entries(entries=(entry,), windows=(), failures=(),
                                              forward_locus_evals=0, backward_locus_evals=0)
        with pytest.raises(InputError, match="is not 0, 1 or 2"):
            evaluate(calls, truth)


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


def _correct_inputs(tmp_path, sample_id="S0"):
    """A one-genotype file and an error report with no entries."""
    gen, report = tmp_path / "g.gen", tmp_path / "r.tsv"
    write_genotypes(gen, [MultilocusGenotype(sample_id,
                                             np.array([0, 1, 2, 0], dtype=np.int8))])
    report.write_text("#threshold=1000\n" + "\t".join(ERROR_REPORT_COLUMNS) + "\n")
    return ["correct", "--genotypes", str(gen), "--report", str(report)]


def test_writers_encode_utf8_whatever_the_locale(tmp_path):
    # every reader decodes UTF-8; run under the C locale, the writer must not
    # fall back to the locale's ASCII
    argv = _correct_inputs(tmp_path, "S\u00e9") + ["--out", str(tmp_path / "o.gen")]
    package = os.path.dirname(os.path.dirname(founderhmm.__file__))
    env = dict(os.environ, PYTHONCOERCECLOCALE="0", PYTHONUTF8="0", LC_ALL="C",
               PYTHONPATH=package)
    done = subprocess.run([sys.executable, "-m", "founderhmm.cli", *argv],
                          env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert read_genotypes(tmp_path / "o.gen").ids == ("S\u00e9",)


@pytest.mark.parametrize("into_directory", [False, True])
def test_write_errors_name_the_path_given(tmp_path, capsys, into_directory):
    argv = _correct_inputs(tmp_path)
    if into_directory:
        out, code = tmp_path / "probe", errno.EISDIR
        out.mkdir()
    else:
        out, code = tmp_path / "absent" / "o.gen", errno.ENOENT
    assert run_cli(*argv, "--out", str(out)) == 1
    assert capsys.readouterr().err == \
        f"error: [Errno {code}] {os.strerror(code)}: '{out}'\n"
    # and the temp file is gone
    assert sorted(os.listdir(tmp_path)) == ["g.gen"] + ["probe"] * into_directory + ["r.tsv"]


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_files_take_their_mode_from_the_umask(tmp_path, umask, mode):
    target = tmp_path / "g.gen"
    previous = os.umask(umask)
    try:
        write_genotypes(target, [MultilocusGenotype(
            "S0", np.array([0, 1, 2], dtype=np.int8))])
    finally:
        os.umask(previous)
    assert stat.S_IMODE(os.stat(target).st_mode) == mode


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


def test_config_file_bytes_that_are_not_utf8_are_located(tmp_path):
    config = tmp_path / "c.json"
    config.write_bytes(b'{"founders": 3,\r\n "seed": "\x84"}')
    with pytest.raises(InputError, match="c.json:2: byte 0x84 is not UTF-8 text"):
        load_config_file(config)


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


def test_impute_and_pipeline_agree(ws, capsys):
    root = ws["root"]
    direct = str(root / "direct.imp.tsv")
    piped = str(root / "piped.imp.tsv")
    assert run_cli("impute", "--panel", ws["ref"], "--genotypes", ws["gen"],
                   "--map", ws["map"], "--founders", "3", "--flank", "4",
                   "--seed", "0", "--out", direct) == 0
    note = capsys.readouterr().err
    assert run_cli("pipeline", "--mode", "imp", "--panel", ws["ref"],
                   "--genotypes", ws["gen"], "--map", ws["map"],
                   "--founders", "3", "--flank", "4", "--seed", "0",
                   "--out", piped) == 0
    body = lambda p: [l for l in open(p) if not l.startswith("#config:")]
    assert body(direct) == body(piped)
    # both report how many window fits stopped at the iteration cap
    windows = [l for l in open(direct) if l.startswith("#window\t")]
    capped = sum(int(l.split("\t")[4]) == 50 for l in windows)
    entries = sum(not l.startswith("#") for l in open(direct)) - 1
    assert note == (f"imputed {entries} genotype calls across "
                    f"{len(windows)} windows (capped={capped})\n")
    assert f" capped={capped} " in capsys.readouterr().err


def test_repeat_runs_are_byte_identical(ws):
    root = ws["root"]
    outs = [str(root / f"rerun{i}.imp.tsv") for i in range(3)]
    base = ["--panel", ws["ref"], "--genotypes", ws["gen"], "--map", ws["map"],
            "--founders", "3", "--flank", "4", "--seed", "0"]
    for out in outs:
        assert run_cli("impute", *base, "--out", out) == 0
    reference_bytes = open(outs[0], "rb").read()
    for other in outs[1:]:
        assert open(other, "rb").read() == reference_bytes


def test_detect_engine_toggles_match(ws):
    root = ws["root"]
    cfg = root / "engine-retired.json"  # keys of removed options: ignored
    cfg.write_text('{"block_size": 5, "threads": 3, "naive": true}')
    outs = []
    for name, extra in (("plain", []), ("configured", ["--config", str(cfg)])):
        path = str(root / f"engine-{name}.tsv")
        assert run_cli("detect", "--model", ws["model"],
                       "--genotypes", ws["gen"], "--out", path, *extra) == 0
        outs.append(open(path, "rb").read())
    assert outs[0] == outs[1]


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
    empty = root / "ph.empty.gen"
    write_genotypes(empty, [])
    assert run_cli("phase", "--model", ws["model"], "--genotypes", str(empty),
                   "--out", phased) == 0
    assert open(phased).read().splitlines()[1:] == ["#samples=0 loci=0"]


@pytest.mark.parametrize("command", ["detect", "recover", "impute", "pipeline"])
def test_empty_corpus_is_named_by_its_file(ws, capsys, command):
    empty = ws["root"] / f"{command}.empty.gen"
    empty.write_text("#samples=0 loci=0\n")
    inputs = {"detect": ["--model", ws["model"]],
              "recover": ["--model", ws["model"]],
              "impute": ["--panel", ws["ref"], "--map", ws["map"]],
              "pipeline": ["--panel", ws["ref"], "--map", ws["map"]]}[command]
    out = ws["root"] / f"{command}.empty.out"
    capsys.readouterr()
    assert run_cli(command, *inputs, "--genotypes", str(empty),
                   "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: {empty}: empty corpus\n"
    assert not out.exists()


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


def test_reports_round_trip_ids_with_line_breaking_characters(ws, tmp_path):
    # str.splitlines() breaks lines at these; sample ids may hold them
    odd = ("S\u2028{}", "S\x0c{}", "S\x1c{}", "S\x85{}")
    paths = {}
    for key in ("gen", "truth"):
        corpus = [MultilocusGenotype(odd[j % len(odd)].format(j), g.symbols)
                  for j, g in enumerate(read_genotypes(ws[key]))]
        paths[key] = str(tmp_path / f"odd.{key}")
        write_genotypes(paths[key], corpus)
    report, imputed = str(tmp_path / "odd.rep.tsv"), str(tmp_path / "odd.imp.tsv")
    assert run_cli("detect", "--model", ws["model"], "--genotypes",
                   paths["gen"], "--out", report) == 0
    assert len(read_error_report(report).entries) == sum(
        int((g.symbols != -1).sum()) for g in read_genotypes(paths["gen"]))
    assert run_cli("correct", "--genotypes", paths["gen"], "--report", report,
                   "--out", str(tmp_path / "odd.cor.gen")) == 0
    assert [g.sample_id for g in read_genotypes(tmp_path / "odd.cor.gen")] == \
        [g.sample_id for g in read_genotypes(paths["gen"])]
    assert run_cli("impute", "--panel", ws["ref"], "--genotypes", paths["gen"],
                   "--map", ws["map"], "--founders", "3", "--flank", "4",
                   "--out", imputed) == 0
    assert len(read_imputation(imputed).entries) == 6 * 4
    assert run_cli("evaluate", "--kind", "imputation", "--calls", imputed,
                   "--truth", paths["truth"], "--map", ws["map"]) == 0


def test_sweep_cli_segregates_timings(ws):
    root = ws["root"]
    table = str(root / "sweep.tsv")
    timings = str(root / "sweep.timings.tsv")
    args = ["sweep", "--out", table, "--timings", timings,
            "--founders-grid", "2,3", "--panel-grid", "20,30",
            "--flank-grid", "4", "--loci", "30", "--samples", "4",
            "--mask-fraction", "0.1", "--seed", "5"]
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
    ("train", "founders", 3.0), ("detect", "threshold", "x"),
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


def config_value(action):
    """A value for ``action`` in a config file, other than its default."""
    if action.nargs == 0:
        return True
    if action.choices is not None:
        return list(action.choices)[-1]
    return {int: 3, float: 0.25, cli._int_list: "2,3",
            cli._mode_list: "edc-mdr-imp,imp"}[action.type]


def test_one_subcommand_parser_parses_as_the_full_parser(tmp_path, monkeypatch):
    """main builds only the subcommand its first argument names, whose
    parser gives the namespace of the full parser for every subcommand,
    with and without a config file that sets each option it may set."""
    monkeypatch.delenv(CONFIG_ENV, raising=False)
    _, commands = cli._build_parser()
    assert list(commands) == list(cli._SUBCOMMANDS)
    for name, command in commands.items():
        argv = [name]
        for action in command._actions:
            if action.required:
                argv += [action.option_strings[0], str(tmp_path / "x")]
        config = tmp_path / f"{name}.json"
        values = {dest: config_value(a) for dest, a in cli._settable(command).items()}
        config.write_text(json.dumps(values))
        for args in (argv, [*argv, "--config", str(config)]):
            parsed = []
            for parser, subcommands in (cli._build_parser(), cli._build_parser(name)):
                namespace = parser.parse_args(args)
                if namespace.config:
                    cli._apply_config(subcommands[name], namespace.config)
                    namespace = parser.parse_args(args)
                parsed.append(namespace)
            assert parsed[0] == parsed[1], (name, args)
        assert len(cli._build_parser(name)[1]) == 1
        assert parsed[0] != cli._build_parser()[0].parse_args(argv) or not values
    built = []
    monkeypatch.setattr(cli, "_build_parser", lambda only=None, real=cli._build_parser:
                        built.append(only) or real(only))
    for argv in (["phase", "--help"], ["detect"], ["--help"], ["detekt"], [], ["-h", "phase"]):
        cli.main(argv)
    assert built == ["phase", "detect", None, None, None, None]


FULL_HELP = """usage: founderhmm [-h] SUBCOMMAND ...

Founder-pair HMM toolkit for multilocus SNP genotypes: training, error
screening, missing-data recovery, imputation, phasing, and synthetic
benchmarking.

positional arguments:
  SUBCOMMAND
    train     fit model parameters to a haplotype panel
    detect    screen typed symbols for likely errors
    correct   apply suggested symbols at flagged entries
    recover   fill missing symbols by posterior argmax
    impute    call untyped loci from a reference panel
    phase     decode each genotype into a haplotype pair
    pipeline  run a full flow over one dataset
    simulate  generate a seeded synthetic dataset
    evaluate  score calls against ground truth
    sweep     grid of pipeline runs on one synthetic dataset
    bench     time the batch engine along three axes

options:
  -h, --help  show this help message and exit
"""


def test_usage_help_and_unknown_names_print_the_full_parser_text(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_cli() == 1
    assert capsys.readouterr() == ("", "error: the following arguments are required: "
                                       "SUBCOMMAND\n")
    assert run_cli("--help") == 0
    assert capsys.readouterr() == (FULL_HELP, "")
    assert run_cli("detekt") == 1
    assert capsys.readouterr() == ("", (
        "error: argument SUBCOMMAND: invalid choice: 'detekt' (choose from 'train', "
        "'detect', 'correct', 'recover', 'impute', 'phase', 'pipeline', 'simulate', "
        "'evaluate', 'sweep', 'bench')\n"))


# -------------------------------------------------------------- exit codes

def test_usage_problems_exit_one(capsys):
    assert run_cli("no-such-subcommand") == 1
    assert run_cli() == 1
    assert run_cli("train", "--panel", "x.hap") == 1  # --out missing
    err = capsys.readouterr().err
    assert "error:" in err


def test_removed_engine_options_exit_one(ws, tmp_path, capsys):
    out = str(tmp_path / "o")
    data = ["--genotypes", ws["gen"], "--out", out]
    panel = ["--panel", ws["ref"], "--map", ws["map"], *data]
    for argv in (["impute", *panel, "--threads", "2"],
                 ["impute", *panel, "--block-size", "7"],
                 ["pipeline", *panel, "--threads", "2"],
                 ["pipeline", *panel, "--block-size", "7"],
                 ["detect", "--model", ws["model"], *data, "--block-size", "7"],
                 ["recover", "--model", ws["model"], *data, "--block-size", "7"],
                 ["sweep", "--out", out, "--threads", "2"]):
        assert run_cli(*argv) == 1, argv
        assert "error: unrecognized arguments: --" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_pipeline_report_out_needs_repair_mode_up_front(ws, tmp_path, capsys):
    out, corpus_out = tmp_path / "imp.tsv", tmp_path / "repaired.gen"
    assert run_cli("pipeline", "--mode", "imp", "--panel", ws["ref"],
                   "--genotypes", ws["gen"], "--map", ws["map"],
                   "--founders", "3", "--flank", "4", "--out", str(out),
                   "--corpus-out", str(corpus_out),
                   "--report-out", str(tmp_path / "report.tsv")) == 1
    assert capsys.readouterr().err == (
        "error: --report-out needs --mode edc-mdr-imp\n")
    assert not out.exists() and not corpus_out.exists()


def test_repeated_sample_id_names_file_and_line(ws, tmp_path, capsys):
    lines = open(ws["gen"]).read().splitlines()
    rows = [i for i, line in enumerate(lines) if not line.startswith("#")]
    first, again = rows[0], rows[2]
    sample = lines[first].split("\t")[0]
    lines[again] = sample + "\t" + lines[again].split("\t")[1]
    dup = tmp_path / "dup.gen"
    dup.write_text("\n".join(lines) + "\n")
    want = (f"error: {dup}:{again + 1}: duplicate sample id {sample!r} "
            f"(first on line {first + 1})\n")
    out = tmp_path / "out"
    model = ["--model", ws["model"], "--genotypes", str(dup), "--out", str(out)]
    panel = ["--panel", ws["ref"], "--genotypes", str(dup), "--map", ws["map"],
             "--founders", "3", "--out", str(out)]
    for argv in (["phase", *model], ["detect", *model],
                 ["impute", *panel], ["pipeline", *panel]):
        assert run_cli(*argv) == 1, argv
        assert capsys.readouterr().err == want, argv
        assert list(tmp_path.iterdir()) == [dup], argv


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
    for argv in (["train", "--panel", panel, "--out", out, "--seed", "-1"],
                 ["train", "--panel", panel, "--out", out, "--pseudocount", "nan"],
                 ["train", "--panel", panel, "--out", out, "--pseudocount", "inf"],
                 ["simulate", "--out-prefix", out, "--seed", "-1"],
                 ["bench", "--out", out, "--repeats", "0"],
                 ["bench", "--out", out, "--loci-grid", "4,4"],
                 ["detect", "--model", ws["model"], "--genotypes", ws["gen"],
                  "--out", out, "--threshold", "nan"]):
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
    "detect": ("threshold", "json"),
    "recover": ("json",),
    "impute": ("founders", "flank", "seed", "json"),
    "pipeline": ("founders", "flank", "threshold", "seed", "json", "mode"),
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
# for a large model or many iterations.
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
    # keys of removed options are ignored
    keys = st.sampled_from(CONFIG_KEYS[subcommand]
                           + ("naive", "threads", "block_size"))
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


# Values of the wrong range or type for an integer or true/false cell, and
# the empty cell.
CELL_TOKENS = st.sampled_from((b"-1", b"3", b"9", b"128", b"300", b"2.5",
                               b"yes", b"true", b"nan", b""))


# Well-formed JSON values of the wrong type for a true/false field, such as
# a report entry's "flagged".
NOT_BOOLEANS = st.sampled_from((b'"false"', b'"true"', b'"0"', b"0", b"1",
                                b"null"))


@st.composite
def mutated(draw, data):
    """``data`` after one to four edits: replace, insert, delete or
    truncate bytes, retype a JSON true/false literal, or replace one whole
    tab- or JSON-delimited cell."""
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        edit = draw(st.sampled_from(("replace", "insert", "delete", "truncate",
                                     "retype", "cell")))
        literals = [m.span() for m in re.finditer(rb"\b(true|false)\b", data)]
        cells = [m.span() for m in re.finditer(rb"[^\t\n\r ,:\[\]{}]+", data)]
        if edit == "retype" and literals:
            lo, hi = draw(st.sampled_from(literals))
            data[lo:hi] = draw(NOT_BOOLEANS)
        elif edit == "cell" and cells:
            lo, hi = draw(st.sampled_from(cells))
            data[lo:hi] = draw(CELL_TOKENS)
        elif edit == "replace" and at < len(data):
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


@pytest.fixture(scope="module")
def symbol_files(tmp_path_factory):
    """A small genotype file and haplotype file, awkward ids included."""
    root = tmp_path_factory.mktemp("symbols")
    ids = ("S0", "a b", "x\x0by", "S\u2028", "%s")
    symbols = (np.arange(len(ids) * 6).reshape(-1, 6) * 7 % 4 - 1).astype(np.int8)
    write_genotypes(root / "c.gen", [MultilocusGenotype(i, row)
                                     for i, row in zip(ids, symbols)],
                    config_line="#config: test")
    write_haplotypes(root / "p.hap", [HaplotypeSequence(i, row % 2)
                                      for i, row in zip(ids, symbols)])
    return root


@pytest.mark.parametrize("name", ["c.gen", "p.hap"])
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_symbol_readers_match_the_per_line_oracle(symbol_files, name, data):
    genotypes = name.endswith(".gen")
    damaged = data.draw(mutated((symbol_files / name).read_bytes()), label="file")
    path = symbol_files / f"damaged.{name}"
    path.write_bytes(damaged)
    try:
        want = oracle.read_symbol_file_per_line(
            path, {"0": 0, "1": 1, "2": 2, "?": -1} if genotypes else {"0": 0, "1": 1},
            "genotype" if genotypes else "haplotype",
            "sample_id" if genotypes else "haplotype id", genotypes)
    except InputError as exc:
        want = str(exc)
    try:
        got = (read_genotypes if genotypes else read_haplotypes)(path)
        got = (list(got.ids), got.matrix.tolist())
    except InputError as exc:
        got = str(exc)
    assert got == want, damaged


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "m.model"
    write_model(path, trained_toy_model(), config_line="#config: test")
    return path


def model_outcome(read, path):
    """The shape and bytes of each array of a read model, or the message
    of the InputError raised."""
    try:
        m = read(path)
    except InputError as exc:
        return str(exc)
    return [(a.shape, a.tobytes()) for a in (m.initial, m.transitions, m.emissions)]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_model_reader_matches_the_per_line_oracle(model_file, data):
    """Whenever read_model takes a model file, the per-line oracle takes it
    too and reads the same arrays. Whenever the oracle refuses one,
    read_model refuses it too: at a line, or with the oracle's own message
    when the arrays read but make no model."""
    damaged = data.draw(mutated(model_file.read_bytes()), label="file")
    path = model_file.with_name("damaged.model")
    path.write_bytes(damaged)
    got = model_outcome(read_model, path)
    want = model_outcome(oracle.read_model_per_line, path)
    if not isinstance(got, str):
        assert got == want, damaged
    elif isinstance(want, str):
        assert got == want or LOCATED.match(got), (got, damaged)


@pytest.fixture(scope="module")
def report_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("report") / "r.tsv"
    path.write_text(report_text())
    return path


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_error_report_reader_matches_the_per_row_oracle(report_file, data):
    damaged = data.draw(mutated(report_file.read_bytes()), label="file")
    path = report_file.with_name("damaged.tsv")
    path.write_bytes(damaged)
    assert_reads_as_oracle(path)


@pytest.fixture(scope="module")
def imputation_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("imputation") / "i.tsv"
    ids = ("S0", "S\u2028x", "%s", "abcdefgh1234ijklmnop")
    entries = tuple(ImputationEntry(ids[j % 4], j % 3, f"L{j % 3}",
                                    (p, 1.0 / 3, -0.0), j % 3, p)
                    for j, p in enumerate((0.25, 1.0 / 3, 1e-300, 0.25, 1.0, 0.5)))
    windows = (WindowReport(0, 4, (1, 2), 7, True, None),)
    write_imputation(path, ImputationResult.from_entries(
        entries=entries, windows=windows, failures=(("S2", 7), ("%s", 0)),
        forward_locus_evals=0, backward_locus_evals=0))
    return path


def imputation_outcome(read, path):
    """The entries and failures of a read imputation file, exactly (repr
    tells -0.0 from 0.0 and a NumPy integer from an int), or the message
    of the InputError raised."""
    try:
        result = read(path)
    except InputError as exc:
        return str(exc)
    return repr((result.entries, result.failures))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_imputation_reader_matches_the_per_row_oracle(imputation_file, data):
    damaged = data.draw(mutated(imputation_file.read_bytes()), label="file")
    path = imputation_file.with_name("damaged.tsv")
    path.write_bytes(damaged)
    assert (imputation_outcome(read_imputation, path)
            == imputation_outcome(oracle.read_imputation_per_row, path)), damaged
