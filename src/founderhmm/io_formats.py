"""Plain-text file formats and atomic writing.

Five formats, all diffable and exactly round-trippable:

* genotype corpus   — ``#samples=<m> loci=<n>`` header, then one row per
  sample: ``sample_id<TAB><symbols>`` with symbols in ``0 1 2 ?``
* haplotype panel   — same shape, symbols in ``0 1``
* locus map         — one row per locus: ``locus_id<TAB>position<TAB>typed|untyped``
* model             — versioned text header, then the initial vector,
  per-interval transition rows, and per-locus emission rows, every value
  printed with 17 significant digits (lossless for double precision)
* reports           — tab-separated tables with a fixed, documented column
  order; each has a JSON twin carrying the same records

Writers are atomic (temp file in the target directory, then rename) and
accept an optional ``#config:`` echo line. Readers skip unrecognized
comment lines, so echoed headers never break round-trips. Parse failures
raise InputError messages of the form ``path:line: problem``.
"""
from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager

import numpy as np

from .analysis import (ErrorEntry, ErrorReport, ImputationEntry,
                       ImputationResult)
from .model import (MISSING, FounderHMM, HaplotypeSequence, InputError,
                    LocusMap, MultilocusGenotype)

CONFIG_ENV = "FOUNDERHMM_CONFIG"
MODEL_MAGIC = "#founderhmm-model v1"

_SYMBOL_TO_CHAR = {0: "0", 1: "1", 2: "2", MISSING: "?"}
_CHAR_TO_SYMBOL = {"0": 0, "1": 1, "2": 2, "?": MISSING}


def fmt(value) -> str:
    """17-significant-digit decimal; exact round-trip for float64."""
    return format(float(value), ".17g")


def atomic_write(path, text: str):
    """Write whole-file via a temp file and rename, so readers never see a
    partial artifact."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _fail(path, line_no, message):
    raise InputError(f"{path}:{line_no}: {message}")


def _zero_probability(path, line_no, line):
    """(sample id, locus) named by a ``#zero-probability`` line."""
    parts = line.split("\t")
    if len(parts) != 3:
        _fail(path, line_no, "expected #zero-probability<TAB>sample<TAB>locus")
    try:
        return parts[1], int(parts[2])
    except ValueError:
        _fail(path, line_no, f"non-integer locus {parts[2]!r}")


@contextmanager
def _text(path):
    """``path`` opened as UTF-8 text; bytes that are not UTF-8 fail with
    the line that holds them."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            before = data[:exc.start]  # lines end at \n, \r\n or a lone \r
            line_no = (1 + before.count(b"\n") + before.count(b"\r")
                       - before.count(b"\r\n"))
            _fail(path, line_no,
                  f"byte 0x{data[exc.start]:02x} is not UTF-8 text")
        raise


def _config_lines(config_line):
    return [config_line] if config_line else []


# ---------------------------------------------------------------- corpora

def _encode_symbol_row(sample_id, symbols, table, path_hint="row"):
    try:
        body = "".join(table[int(s)] for s in symbols)
    except KeyError as exc:
        raise InputError(f"{path_hint}: symbol {exc.args[0]} not writable")
    return f"{sample_id}\t{body}"


def write_genotypes(path, corpus, *, config_line=None):
    corpus = list(corpus)
    lines = _config_lines(config_line)
    n = len(corpus[0]) if corpus else 0
    lines.append(f"#samples={len(corpus)} loci={n}")
    for g in corpus:
        lines.append(_encode_symbol_row(g.sample_id, g.symbols, _SYMBOL_TO_CHAR))
    atomic_write(path, "\n".join(lines) + "\n")


def _read_symbol_file(path, alphabet, what):
    declared = None
    rows = []
    with _text(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                if line.startswith("#samples="):
                    try:
                        head, loci_part = line[1:].split()
                        declared = (int(head.split("=")[1]),
                                    int(loci_part.split("=")[1]))
                    except (ValueError, IndexError):
                        _fail(path, line_no, f"malformed header {line!r}")
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                _fail(path, line_no, f"expected sample_id<TAB>symbols, got {len(parts)} fields")
            sample_id, body = parts
            symbols = np.empty(len(body), dtype=np.int8)
            for j, ch in enumerate(body):
                sym = alphabet.get(ch)
                if sym is None:
                    _fail(path, line_no, f"symbol {ch!r} not valid in a {what} file")
                symbols[j] = sym
            rows.append((sample_id, symbols, line_no))
    if declared is None:
        _fail(path, 1, f"missing '#samples=<m> loci=<n>' header in {what} file")
    m, n = declared
    if len(rows) != m:
        _fail(path, 1, f"header declares {m} samples but file has {len(rows)} rows")
    for sample_id, symbols, line_no in rows:
        if symbols.shape[0] != n:
            _fail(path, line_no,
                  f"sample {sample_id!r} has {symbols.shape[0]} loci, header says {n}")
    return rows


def read_genotypes(path):
    rows = _read_symbol_file(path, _CHAR_TO_SYMBOL, "genotype")
    return [MultilocusGenotype(sid, syms) for sid, syms, _ in rows]


def write_haplotypes(path, panel, *, config_line=None):
    panel = list(panel)
    lines = _config_lines(config_line)
    n = len(panel[0]) if panel else 0
    lines.append(f"#samples={len(panel)} loci={n}")
    for h in panel:
        lines.append(_encode_symbol_row(h.id, h.alleles, {0: "0", 1: "1"}))
    atomic_write(path, "\n".join(lines) + "\n")


def read_haplotypes(path):
    rows = _read_symbol_file(path, {"0": 0, "1": 1}, "haplotype")
    return [HaplotypeSequence(sid, syms) for sid, syms, _ in rows]


# --------------------------------------------------------------- locus map

def _format_position(value):
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def write_locus_map(path, locus_map: LocusMap, *, config_line=None):
    lines = _config_lines(config_line)
    for lid, pos, typed in zip(locus_map.locus_ids, locus_map.positions,
                               locus_map.typed):
        status = "typed" if typed else "untyped"
        lines.append(f"{lid}\t{_format_position(pos)}\t{status}")
    atomic_write(path, "\n".join(lines) + "\n")


def read_locus_map(path) -> LocusMap:
    ids, positions, typed = [], [], []
    is_float = False
    with _text(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                _fail(path, line_no,
                      f"expected locus_id<TAB>position<TAB>typed|untyped, got {len(parts)} fields")
            lid, pos_text, status = parts
            try:
                if "." in pos_text or "e" in pos_text or "E" in pos_text:
                    pos = float(pos_text)
                    is_float = True
                else:
                    pos = int(pos_text)
            except ValueError:
                _fail(path, line_no, f"position {pos_text!r} is not a number")
            if status not in ("typed", "untyped"):
                _fail(path, line_no, f"status must be 'typed' or 'untyped', got {status!r}")
            ids.append(lid)
            positions.append(pos)
            typed.append(status == "typed")
    if not ids:
        _fail(path, 1, "locus map file has no rows")
    dtype = np.float64 if is_float else np.int64
    try:
        return LocusMap(locus_ids=tuple(ids),
                        positions=np.array(positions, dtype=dtype),
                        typed=np.array(typed, dtype=bool))
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


# ------------------------------------------------------------------ model

def write_model(path, model: FounderHMM, *, config_line=None):
    lines = [MODEL_MAGIC]
    lines.extend(_config_lines(config_line))
    lines.append(f"#founders={model.founders} loci={model.loci}")
    lines.append("initial\t" + "\t".join(fmt(v) for v in model.initial))
    for i in range(model.loci - 1):
        for a in range(model.founders):
            lines.append(f"transition\t{i}\t{a}\t"
                         + "\t".join(fmt(v) for v in model.transitions[i, a]))
    for i in range(model.loci):
        lines.append(f"emission\t{i}\t"
                     + "\t".join(fmt(v) for v in model.emissions[i]))
    atomic_write(path, "\n".join(lines) + "\n")


def read_model(path) -> FounderHMM:
    k = n = None
    initial = None
    transitions = None
    emissions = None
    saw_magic = False
    with _text(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                if line == MODEL_MAGIC:
                    saw_magic = True
                elif line.startswith("#founderhmm-model"):
                    _fail(path, line_no, f"unsupported model format version {line!r}")
                elif line.startswith("#founders="):
                    try:
                        k_part, n_part = line[1:].split()
                        k = int(k_part.split("=")[1])
                        n = int(n_part.split("=")[1])
                    except (ValueError, IndexError):
                        _fail(path, line_no, f"malformed dimension header {line!r}")
                    if k < 1 or n < 1:
                        _fail(path, line_no, "founders and loci must be >= 1")
                    # each value takes at least two bytes, a digit and a
                    # separator, so the file size bounds the arrays below
                    if 2 * k * (1 + (n - 1) * k + n) > os.fstat(fh.fileno()).st_size:
                        _fail(path, line_no, f"{k} founders and {n} loci need "
                                             f"more values than the file holds")
                    initial = None
                    transitions = np.full((max(n - 1, 0), k, k), np.nan)
                    emissions = np.full((n, k), np.nan)
                continue
            if not saw_magic:
                _fail(path, line_no, f"not a model file (missing '{MODEL_MAGIC}' first)")
            if k is None:
                _fail(path, line_no, "model data before '#founders=<K> loci=<n>' header")
            parts = line.split("\t")
            kind = parts[0]
            try:
                if kind == "initial":
                    if len(parts) != 1 + k:
                        _fail(path, line_no, f"initial row needs {k} values")
                    initial = np.array([float(v) for v in parts[1:]])
                elif kind == "transition":
                    if len(parts) != 3 + k:
                        _fail(path, line_no, f"transition row needs interval, from-state, {k} values")
                    i, a = int(parts[1]), int(parts[2])
                    if not (0 <= i < n - 1 and 0 <= a < k):
                        _fail(path, line_no, f"transition index ({i},{a}) out of range")
                    transitions[i, a] = [float(v) for v in parts[3:]]
                elif kind == "emission":
                    if len(parts) != 2 + k:
                        _fail(path, line_no, f"emission row needs locus and {k} values")
                    i = int(parts[1])
                    if not 0 <= i < n:
                        _fail(path, line_no, f"emission locus {i} out of range")
                    emissions[i] = [float(v) for v in parts[2:]]
                else:
                    _fail(path, line_no, f"unknown row kind {kind!r}")
            except InputError:
                raise
            except ValueError:
                _fail(path, line_no, "non-numeric value in model row")
    if not saw_magic:
        _fail(path, 1, f"not a model file (missing '{MODEL_MAGIC}')")
    if k is None:
        _fail(path, 1, "missing '#founders=<K> loci=<n>' header")
    if initial is None:
        _fail(path, 1, "missing initial row")
    if np.isnan(transitions).any():
        _fail(path, 1, "incomplete transition rows")
    if np.isnan(emissions).any():
        _fail(path, 1, "incomplete emission rows")
    try:
        return FounderHMM(initial=initial, transitions=transitions,
                          emissions=emissions)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------- reports

ERROR_REPORT_COLUMNS = ("sample_id", "locus_id", "locus_index", "observed",
                        "ratio", "flagged", "suggested")
IMPUTATION_COLUMNS = ("sample_id", "locus_id", "locus_index", "p0", "p1",
                      "p2", "call", "confidence")


def write_error_report(path, report: ErrorReport, *, config_line=None,
                       json_mode=False):
    if json_mode:
        payload = {
            "threshold": report.threshold,
            "entries": [e._asdict() for e in report.entries],
            "failures": {k: int(v) for k, v in sorted(report.failures.items())},
        }
        if config_line:
            payload["config"] = config_line
        atomic_write(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")
        return
    lines = _config_lines(config_line)
    lines.append(f"#threshold={fmt(report.threshold)}")
    for sample_id, locus in sorted(report.failures.items()):
        lines.append(f"#zero-probability\t{sample_id}\t{locus}")
    lines.append("\t".join(ERROR_REPORT_COLUMNS))
    for e in report.entries:
        lines.append("\t".join((e.sample_id, e.locus_id, str(e.locus_index),
                                str(e.observed), fmt(e.ratio),
                                "1" if e.flagged else "0", str(e.suggested))))
    atomic_write(path, "\n".join(lines) + "\n")


def read_error_report(path) -> ErrorReport:
    with _text(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        try:
            payload = json.loads(text)
            entries = tuple(ErrorEntry(**{**e, "observed": int(e["observed"]),
                                          "suggested": int(e["suggested"]),
                                          "locus_index": int(e["locus_index"]),
                                          "ratio": float(e["ratio"]),
                                          "flagged": bool(e["flagged"])})
                            for e in payload["entries"])
            return ErrorReport(entries=entries,
                               threshold=float(payload["threshold"]),
                               failures={k: int(v) for k, v
                                         in payload.get("failures", {}).items()},
                               stats=None)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"{path}: malformed JSON error report ({exc})") from exc
    threshold = None
    failures = {}
    entries = []
    header_seen = False
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#threshold="):
            try:
                threshold = float(line.split("=", 1)[1])
            except ValueError:
                _fail(path, line_no, "malformed threshold header")
            continue
        if line.startswith("#zero-probability\t"):
            sample_id, locus = _zero_probability(path, line_no, line)
            failures[sample_id] = locus
            continue
        if line.startswith("#"):
            continue
        parts = line.split("\t")
        if not header_seen:
            if tuple(parts) != ERROR_REPORT_COLUMNS:
                _fail(path, line_no,
                      f"expected header {'/'.join(ERROR_REPORT_COLUMNS)}")
            header_seen = True
            continue
        if len(parts) != len(ERROR_REPORT_COLUMNS):
            _fail(path, line_no, f"expected {len(ERROR_REPORT_COLUMNS)} fields")
        try:
            entries.append(ErrorEntry(parts[0], int(parts[2]), parts[1],
                                      int(parts[3]), float(parts[4]),
                                      parts[5] == "1", int(parts[6])))
        except ValueError:
            _fail(path, line_no, "non-numeric field in error report row")
    if threshold is None:
        _fail(path, 1, "missing '#threshold=' header")
    if not header_seen:
        _fail(path, 1, "missing column header row")
    return ErrorReport(entries=tuple(entries), threshold=threshold,
                       failures=failures, stats=None)


def write_imputation(path, result: ImputationResult, *, config_line=None,
                     json_mode=False):
    if json_mode:
        payload = {
            "entries": [{**e._asdict(), "probs": list(e.probs)}
                        for e in result.entries],
            "failures": [list(f) for f in result.failures],
            "windows": [{"lo": w.lo, "hi": w.hi, "targets": list(w.targets),
                         "train_iterations": w.train_iterations}
                        for w in result.windows],
        }
        if config_line:
            payload["config"] = config_line
        atomic_write(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")
        return
    lines = _config_lines(config_line)
    for w in result.windows:
        targets = ",".join(str(t) for t in w.targets)
        lines.append(f"#window\t{w.lo}\t{w.hi}\t{targets}\t{w.train_iterations}")
    for sample_id, locus in result.failures:
        lines.append(f"#zero-probability\t{sample_id}\t{locus}")
    lines.append("\t".join(IMPUTATION_COLUMNS))
    for e in result.entries:
        lines.append("\t".join((e.sample_id, e.locus_id, str(e.locus_index),
                                fmt(e.probs[0]), fmt(e.probs[1]), fmt(e.probs[2]),
                                str(e.call), fmt(e.confidence))))
    atomic_write(path, "\n".join(lines) + "\n")


def read_imputation(path) -> ImputationResult:
    """Rebuild the callable entries of an imputation artifact (windows are
    summarized, models are never serialized)."""
    with _text(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        try:
            payload = json.loads(text)
            entries = tuple(ImputationEntry(
                e["sample_id"], int(e["locus_index"]), e["locus_id"],
                tuple(float(p) for p in e["probs"]), int(e["call"]),
                float(e["confidence"])) for e in payload["entries"])
            failures = tuple((f[0], int(f[1]))
                             for f in payload.get("failures", []))
            return ImputationResult(entries=entries, windows=(),
                                    failures=failures,
                                    forward_locus_evals=0,
                                    backward_locus_evals=0)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise InputError(f"{path}: malformed JSON imputation file ({exc})") from exc
    entries = []
    failures = []
    header_seen = False
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#zero-probability\t"):
            failures.append(_zero_probability(path, line_no, line))
            continue
        if line.startswith("#"):
            continue
        parts = line.split("\t")
        if not header_seen:
            if tuple(parts) != IMPUTATION_COLUMNS:
                _fail(path, line_no, f"expected header {'/'.join(IMPUTATION_COLUMNS)}")
            header_seen = True
            continue
        if len(parts) != len(IMPUTATION_COLUMNS):
            _fail(path, line_no, f"expected {len(IMPUTATION_COLUMNS)} fields")
        try:
            probs = (float(parts[3]), float(parts[4]), float(parts[5]))
            entries.append(ImputationEntry(parts[0], int(parts[2]), parts[1],
                                           probs, int(parts[6]), float(parts[7])))
        except ValueError:
            _fail(path, line_no, "non-numeric field in imputation row")
    if not header_seen:
        _fail(path, 1, "missing column header row")
    return ImputationResult(entries=tuple(entries), windows=(),
                            failures=tuple(failures), forward_locus_evals=0,
                            backward_locus_evals=0)


RECOVERY_COLUMNS = ("sample_id", "locus_index", "symbol", "confidence")


def write_recovery(path, result, *, config_line=None, json_mode=False):
    """Fill log for missing-symbol recovery (the completed corpus itself is
    written as an ordinary genotype file)."""
    if json_mode:
        payload = {
            "fills": [f._asdict() for f in result.fills],
            "failures": {k: int(v) for k, v in sorted(result.failures.items())},
        }
        if config_line:
            payload["config"] = config_line
        atomic_write(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")
        return
    lines = _config_lines(config_line)
    for sample_id, locus in sorted(result.failures.items()):
        lines.append(f"#zero-probability\t{sample_id}\t{locus}")
    lines.append("\t".join(RECOVERY_COLUMNS))
    for f in result.fills:
        lines.append("\t".join((f.sample_id, str(f.locus_index), str(f.symbol),
                                fmt(f.confidence))))
    atomic_write(path, "\n".join(lines) + "\n")


def write_eval_report(path, report, *, config_line=None, json_mode=False):
    if json_mode:
        payload = {
            "total": report.total,
            "discordant": report.discordant,
            "discordance_rate": report.discordance_rate,
            "confusion": report.confusion.tolist(),
            "details": {k: v for k, v in sorted(report.details.items())},
        }
        if config_line:
            payload["config"] = config_line
        atomic_write(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")
        return
    lines = _config_lines(config_line)
    lines.append(f"total\t{report.total}")
    lines.append(f"discordant\t{report.discordant}")
    lines.append(f"discordance_rate\t{fmt(report.discordance_rate)}")
    for t in range(3):
        row = "\t".join(str(int(v)) for v in report.confusion[t])
        lines.append(f"confusion\t{t}\t{row}")
    atomic_write(path, "\n".join(lines) + "\n")


def write_sweep_table(path, rows, *, config_line=None, with_seconds=False):
    """Grid results; timings stay out unless explicitly asked for, so the
    primary artifact is byte-stable across reruns."""
    lines = _config_lines(config_line)
    cols = ["founders", "panel_size", "flank", "mode", "total", "discordant",
            "error_rate", "failed", "message"]
    if with_seconds:
        cols.insert(7, "seconds")
    lines.append("\t".join(cols))
    for r in rows:
        fields = [str(r.founders), str(r.panel_size), str(r.flank), r.mode,
                  str(r.total), str(r.discordant), fmt(r.error_rate),
                  "1" if r.failed else "0", r.message]
        if with_seconds:
            fields.insert(7, fmt(r.seconds))
        lines.append("\t".join(fields))
    atomic_write(path, "\n".join(lines) + "\n")


def write_bench_table(path, report, *, config_line=None):
    """Bench output is a timing artifact by nature; seconds and fitted
    exponents live here and nowhere else."""
    lines = _config_lines(config_line)
    lines.append("\t".join(("axis", "value", "locus_evals", "seconds")))
    for r in report.rows:
        lines.append("\t".join((r.axis, str(r.value), str(r.locus_evals),
                                fmt(r.seconds))))
    for axis in sorted(report.exponents):
        lines.append(f"#exponent\t{axis}\t{fmt(report.exponents[axis])}")
    atomic_write(path, "\n".join(lines) + "\n")


def write_channels(path, data, *, config_line=None):
    """Simulation corruption bookkeeping (JSON): injected errors, blanked
    symbols, masked map columns — everything needed to score detection."""
    payload = {
        "error_records": [list(r) for r in data.error_records],
        "missing_records": [list(r) for r in data.missing_records],
        "masked_loci": list(data.masked_loci),
    }
    if config_line:
        payload["config"] = config_line
    atomic_write(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")


# ------------------------------------------------------------ config files

def load_config_file(path) -> dict:
    """JSON object of default flag values, one level deep."""
    try:
        with open(path, "r") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from exc
    except ValueError as exc:  # an integer too long to convert
        raise InputError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise InputError(f"{path}: config file must hold a JSON object")
    for key, value in payload.items():
        if isinstance(value, (dict, list)):
            raise InputError(f"{path}: field {key!r} must be a scalar")
    return payload
