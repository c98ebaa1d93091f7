"""Plain-text file formats and atomic writing.

Five formats, all diffable and exactly round-trippable:

* genotype corpus   — ``#samples=<m> loci=<n>`` header, then one row per
  sample: ``sample_id<TAB><symbols>`` with symbols in ``0 1 2 ?``
* haplotype panel   — same shape, symbols in ``0 1``. Both move as one
  int8 (rows, loci) matrix with its ids (a ``GenotypeCorpus`` or a
  ``HaplotypePanel``): the reader splits the rows once and maps all
  symbols through a 256-entry byte table, the writer maps them back
  through the inverse table, and neither builds an object per row
* locus map         — one row per locus: ``locus_id<TAB>position<TAB>typed|untyped``
* model             — versioned text header, then the initial vector,
  per-interval transition rows, and per-locus emission rows, every value
  printed with 17 significant digits (lossless for double precision);
  a file in the writer's layout is parsed a block of rows at a time
* reports           — tab-separated tables with a fixed, documented column
  order; each has a JSON twin carrying the same records. The error report
  moves as columns: its writer formats blocks of rows with one row
  template, and its reader splits the rows once and validates each
  column whole, checking rows one by one only to name a bad one

Writers are atomic (temp file in the target directory, then rename) and
accept an optional ``#config:`` echo line. Readers decode a file as UTF-8
once, end lines at ``\\n``, ``\\r\\n`` or a lone ``\\r`` only, and skip
unrecognized comment lines, so echoed headers never break round-trips.
Parse failures raise InputError messages of the form ``path:line:
problem``; where a whole file is checked at once, a file that fails is
checked again line by line, only to name the first bad line.
"""
from __future__ import annotations

import json
import os
import re
import tempfile
from functools import partial
from itertools import chain, compress, count, repeat

import numpy as np

from .analysis import ErrorReport, ImputationEntry, ImputationResult
from .model import FounderHMM, GenotypeCorpus, HaplotypePanel, InputError, LocusMap

CONFIG_ENV = "FOUNDERHMM_CONFIG"
MODEL_MAGIC = "#founderhmm-model v1"


def fmt(value) -> str:
    """17-significant-digit decimal; exact round-trip for float64."""
    return format(float(value), ".17g")


def atomic_write(path, text: str):
    """Write whole-file via a temp file and rename, so readers never see a
    partial artifact. The file gets the mode open() would give it under
    the current umask, not mkstemp's 0600."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    umask = os.umask(0)
    os.umask(umask)
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.chmod(tmp, 0o666 & ~umask)
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
        return parts[1], _tsv_index(parts[2])
    except ValueError:
        _fail(path, line_no, f"locus must be an integer >= 0, not {parts[2]!r}")


def _read_text(path) -> str:
    """``path`` read as bytes and decoded as UTF-8 once, with each line end
    (\\n, \\r\\n or a lone \\r) made \\n; bytes that are not UTF-8 fail with
    the line that holds them."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        before = data[:exc.start]
        line_no = (1 + before.count(b"\n") + before.count(b"\r")
                   - before.count(b"\r\n"))
        _fail(path, line_no, f"byte 0x{data[exc.start]:02x} is not UTF-8 text")


def _config_lines(config_line):
    return [config_line] if config_line else []


def _write_json(path, payload, config_line):
    """``payload``, with the echo line as its "config" field, as JSON."""
    if config_line:
        payload["config"] = config_line
    atomic_write(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")


# ---------------------------------------------------------------- corpora

# Each symbol's character in genotype and haplotype files, in the order of
# GENOTYPE_SYMBOLS and ALLELE_SYMBOLS.
_CHARS = {GenotypeCorpus: "012?", HaplotypePanel: "01"}


def _byte_tables(kind):
    """The character byte of each symbol, at the symbol's uint8 view, and
    the symbol of each byte (127 for none) in ``kind``'s files."""
    chars, symbols = np.zeros(256, dtype=np.uint8), np.full(256, 127, dtype=np.int8)
    for ch, symbol in zip(_CHARS[kind], kind._symbols):
        chars[np.int8(symbol).view(np.uint8)], symbols[ord(ch)] = ord(ch), symbol
    return chars, symbols


def _write_symbol_file(path, rows, config_line):
    """One line ``id<TAB>symbols`` per row, the symbols of all rows mapped
    through the byte table at once."""
    m, n = rows.matrix.shape
    chars = _byte_tables(type(rows))[0][rows.matrix.view(np.uint8)]
    body = chars.tobytes().decode("ascii")
    lines = _config_lines(config_line) + [f"#samples={m} loci={n if m else 0}"]
    lines += map("{}\t{}".format, rows.ids, (body[j:j + n] for j in range(0, m * n, n or 1)))
    atomic_write(path, "\n".join(lines) + "\n")


def write_genotypes(path, corpus, *, config_line=None):
    _write_symbol_file(path, GenotypeCorpus.of(corpus), config_line)


def write_haplotypes(path, panel, *, config_line=None):
    _write_symbol_file(path, HaplotypePanel.of(panel), config_line)


def _declared(line):
    """The two counts of a ``#samples=<m> loci=<n>`` or ``#founders=<K>
    loci=<n>`` header line."""
    first, second = line[1:].split()
    return int(first.split("=")[1]), int(second.split("=")[1])


def _check_symbol_lines(path, lines, kind):
    """Fail at the first problem of a symbol file, line by line."""
    stray = re.compile(f"[^{re.escape(_CHARS[kind])}]")
    declared, rows = None, []
    for line_no, line in enumerate(lines, start=1):
        if line.startswith("#samples="):
            if declared:
                _fail(path, line_no, f"repeated '#samples=' header (first on line {declared[2]})")
            try:
                declared = (*_declared(line), line_no)
            except (ValueError, IndexError):
                _fail(path, line_no, f"malformed header {line!r}")
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            _fail(path, line_no, f"expected sample_id<TAB>symbols, got {len(parts)} fields")
        sample_id, body = parts
        if not sample_id:
            _fail(path, line_no, f"{kind._id_what} must be non-empty")
        symbol = stray.search(body)
        if symbol:
            _fail(path, line_no, f"symbol {symbol.group()!r} not valid in a {kind._row_what} file")
        rows.append((sample_id, len(body), line_no))
    if declared is None:
        _fail(path, 1, f"missing '#samples=<m> loci=<n>' header in {kind._row_what} file")
    m, n, _ = declared
    if len(rows) != m:
        _fail(path, 1, f"header declares {m} samples but file has {len(rows)} rows")
    for sample_id, length, line_no in rows:
        if length != n:
            _fail(path, line_no, f"sample {sample_id!r} has {length} loci, header says {n}")
        if not n:
            _fail(path, line_no, f"{kind._row_what} {sample_id!r} must cover at least one locus")


def _read_symbol_file(path, kind):
    """A genotype or haplotype file as one ``kind`` matrix. Its rows are
    split once, their symbols mapped through the byte table at once and
    checked whole with the header; a file that fails anywhere is checked
    line by line to name the line."""
    lines = _read_text(path).split("\n")
    data = [i for i, line in enumerate(lines) if line.strip() and line[0] != "#"]
    headers = [i for i, line in enumerate(lines) if line.startswith("#samples=")]
    rows = [lines[i] for i in data]
    cells = "\t".join(rows).split("\t") if rows else []
    ids, bodies = cells[0::2], cells[1::2]
    body = "".join(bodies)
    try:
        m, n = _declared(lines[headers[0]])
    except (ValueError, IndexError):
        m = n = None
    matrix = None
    if (len(headers) == 1 and len(rows) == m and "" not in ids
            and not set(map(str.count, rows, repeat("\t"))) - {1}
            and not set(map(len, bodies)) - {n} and (n or not m)
            and body.isascii()):
        matrix = _byte_tables(kind)[1][np.frombuffer(body.encode(), dtype=np.uint8)]
    if matrix is None or (matrix == 127).any():
        _check_symbol_lines(path, lines, kind)
    if kind._unique and len(set(ids)) != len(ids):
        first = {}
        for sid, i in zip(ids, data):
            if first.setdefault(sid, i) != i:
                _fail(path, i + 1, f"duplicate sample id {sid!r} (first on line {first[sid] + 1})")
    return kind(ids, matrix.reshape(m, max(n, 0)))  # no rows: any count of loci


def read_genotypes(path) -> GenotypeCorpus:
    return _read_symbol_file(path, GenotypeCorpus)


def read_haplotypes(path) -> HaplotypePanel:
    return _read_symbol_file(path, HaplotypePanel)


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
    for line_no, line in enumerate(_read_text(path).split("\n"), start=1):
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


def _model_blocks(lines, size):
    """The arrays of a model file laid out as write_model lays it out (the
    magic line first, then one header, then every row in its place), with
    each kind of row parsed as one block; None for any other file."""
    filled = [line for line in lines if line.strip()]
    head = [line for line in filled if line[0] == "#"]
    headers = [line for line in head if line.startswith("#founders=")]
    if (filled[:len(head)] != head or head[:1] != [MODEL_MAGIC] or len(headers) != 1
            or any(line.startswith("#founderhmm-model") for line in head[1:])):
        return None
    try:
        k, n = _declared(headers[0])
    except (ValueError, IndexError):
        return None
    t, data = (n - 1) * k, filled[len(head):]
    if k < 1 or n < 1 or 2 * k * (1 + t + n) > size or len(data) != 1 + t + n:
        return None
    starts = (["initial\t"] + [f"transition\t{i}\t{a}\t" for i in range(n - 1)
                              for a in range(k)]
              + [f"emission\t{i}\t" for i in range(n)])
    values = [row[len(start):] for row, start in zip(data, starts)]
    if (not all(map(str.startswith, data, starts))
            or set(map(str.count, values, repeat("\t"))) != {k - 1}):
        return None
    try:
        table = np.fromiter(map(float, "\t".join(values).split("\t")),
                            dtype=np.float64, count=len(data) * k).reshape(-1, k)
    except ValueError:
        return None
    return table[0], table[1:t + 1].reshape(n - 1, k, k), table[t + 1:]


def _model_lines(path, lines, size):
    """The arrays of any model file, read line by line; fails at the first
    problem."""
    k = n = None
    initial = None
    transitions = None
    emissions = None
    saw_magic = False
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            if line == MODEL_MAGIC:
                saw_magic = True
            elif line.startswith("#founderhmm-model"):
                _fail(path, line_no, f"unsupported model format version {line!r}")
            elif line.startswith("#founders="):
                try:
                    k, n = _declared(line)
                except (ValueError, IndexError):
                    _fail(path, line_no, f"malformed dimension header {line!r}")
                if k < 1 or n < 1:
                    _fail(path, line_no, "founders and loci must be >= 1")
                # each value takes at least two bytes, a digit and a
                # separator, so the file size bounds the arrays below
                if 2 * k * (1 + (n - 1) * k + n) > size:
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
    return initial, transitions, emissions


def read_model(path) -> FounderHMM:
    """A model file. One laid out as write_model lays it out is parsed a
    block of rows at a time; any other is read line by line, which names
    the line of a problem."""
    lines, size = _read_text(path).split("\n"), os.path.getsize(path)
    initial, transitions, emissions = (_model_blocks(lines, size)
                                       or _model_lines(path, lines, size))
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


def _error_columns(report: ErrorReport, at=slice(None)) -> dict:
    """Entries ``at`` of the report as lists of Python values, by column
    name."""
    return {"sample_id": report.sample_id[at], "locus_id": report.locus_id[at],
            "locus_index": report.locus_index[at].tolist(),
            "observed": report.observed[at].tolist(),
            "ratio": report.ratio[at].tolist(),
            "flagged": report.flags[at].tolist(),
            "suggested": report.suggested[at].tolist()}


def write_error_report(path, report: ErrorReport, *, config_line=None,
                       json_mode=False):
    if json_mode:
        columns = _error_columns(report)
        return _write_json(path, {
            "threshold": report.threshold,
            "entries": [dict(zip(columns, row))
                        for row in zip(*columns.values())],
            "failures": {k: int(v) for k, v in sorted(report.failures.items())},
        }, config_line)
    lines = _config_lines(config_line)
    lines.append(f"#threshold={fmt(report.threshold)}")
    for sample_id, locus in sorted(report.failures.items()):
        lines.append(f"#zero-probability\t{sample_id}\t{locus}")
    lines.append("\t".join(ERROR_REPORT_COLUMNS) + "\n")
    # One %-format of a row template per block of entries, over the
    # interleaved columns. Ids are arguments, so a % in them is printed as
    # it is, and %.17g prints what fmt prints.
    row = "%s\t%s\t%d\t%d\t%.17g\t%d\t%d\n"
    width = len(ERROR_REPORT_COLUMNS)
    blocks = ["\n".join(lines)]
    for lo in range(0, len(report), 1 << 14):
        columns = _error_columns(report, slice(lo, lo + (1 << 14)))
        n = len(columns["ratio"])
        cells = [None] * (width * n)
        for j, name in enumerate(ERROR_REPORT_COLUMNS):
            cells[j::width] = columns[name]
        blocks.append((row * n) % tuple(cells))
    atomic_write(path, "".join(blocks))


def _json_flag(value) -> bool:
    """A JSON report entry's ``flagged``, which only JSON true or false
    may give: ``correct`` applies every flagged entry."""
    if not isinstance(value, bool):
        raise ValueError(f"flagged must be true or false, not {json.dumps(value)}")
    return value


def _count(value, name, top=None):
    """``value`` if it is an int (not a bool) from 0 to ``top``, or from 0
    up when ``top`` is None; else ValueError naming the field."""
    if type(value) is int and value >= 0 and (top is None or value <= top):
        return value
    bound = "an integer >= 0" if top is None else f"an integer from 0 to {top}"
    raise ValueError(f"{name} must be {bound}, not {json.dumps(value)}")


def _json_text(value, name) -> str:
    """``value`` if it is a JSON string; else ValueError naming the field."""
    if isinstance(value, str):
        return value
    raise ValueError(f"{name} must be a string, not {json.dumps(value)}")


def _json_number(value, name) -> float:
    """``value`` as a float if it is a JSON number (not a bool or a
    string) and not NaN; else ValueError naming the field."""
    if type(value) in (int, float):
        try:
            number = float(value)
        except OverflowError:
            number = None
        if number == number:
            return number
    raise ValueError(f"{name} must be a number, not {json.dumps(value)}")


def _tsv_index(cell) -> int:
    """A TSV report's locus index, which only ASCII digits may give."""
    return _count(int(cell) if cell.isascii() and cell.isdigit() else cell,
                  "locus_index")


def _tsv_cell(cell, name, values):
    """``values[cell]``; any other cell raises ValueError naming the field."""
    try:
        return values[cell]
    except KeyError:
        raise ValueError(f"{name} must be one of {', '.join(values)}, "
                         f"not {json.dumps(cell)}") from None


def _check_error_row(path, line_no, line):
    """Fail at the first bad field of one TSV report row, if it has one."""
    parts = line.split("\t")
    if len(parts) != len(ERROR_REPORT_COLUMNS):
        _fail(path, line_no, f"expected {len(ERROR_REPORT_COLUMNS)} fields")
    symbols = {"0": 0, "1": 1, "2": 2}
    try:
        _count(_tsv_index(parts[2]), "locus_index",
               int(np.iinfo(np.int64).max))
        _tsv_cell(parts[3], "observed", symbols)
        float(parts[4])
        _tsv_cell(parts[5], "flagged", {"0": False, "1": True})
        _tsv_cell(parts[6], "suggested", symbols)
    except ValueError as exc:
        _fail(path, line_no, f"malformed error report row ({exc})")


def _digit_column(cells, top):
    """int64 array of single-digit ``cells`` from 0 to ``top``, or None."""
    digits = "".join(cells)
    # no empty cell and n characters in all: one character per cell
    if len(digits) != len(cells) or "" in cells or not digits.isascii():
        return None
    values = np.frombuffer(digits.encode("ascii"), dtype=np.uint8) - 48
    return values.astype(np.int64) if (values <= top).all() else None


def _index_column(cells):
    """int64 array of ASCII-digit ``cells`` that fit in it, or None."""
    digits = "".join(cells)
    if "" in cells or not (digits.isascii() and digits.isdigit()):
        return None
    try:
        return np.array(cells, dtype=np.int64)
    except OverflowError:
        return None


def _float_column(cells):
    """float64 array of what float() reads in ``cells``, or None."""
    try:
        return np.fromiter(map(float, cells), dtype=np.float64,
                           count=len(cells))
    except ValueError:
        return None


def _error_report_columns(rows):
    """ErrorReport columns of one or more TSV report rows, validated a
    column at a time, or None if any row has a bad field count or cell.
    Rows are split in blocks, so that only one block's cells are held as
    separate strings at once."""
    width = len(ERROR_REPORT_COLUMNS)
    if set(map(str.count, rows, repeat("\t"))) != {width - 1}:
        return None
    parsers = (list, list, _index_column, partial(_digit_column, top=2),
               _float_column, partial(_digit_column, top=1),
               partial(_digit_column, top=2))
    blocks = []
    for lo in range(0, len(rows), 1 << 14):
        cells = "\t".join(rows[lo:lo + (1 << 14)]).split("\t")
        blocks.append([parse(cells[j::width])
                       for j, parse in enumerate(parsers)])
        if any(column is None for column in blocks[-1]):
            return None
    sample_id, locus_id, index, observed, ratio, flags, suggested = (
        list(chain.from_iterable(b[j] for b in blocks)) if j < 2
        else np.concatenate([b[j] for b in blocks]) for j in range(width))
    return dict(sample_id=sample_id, locus_index=index, locus_id=locus_id,
                observed=observed, ratio=ratio, flags=flags.astype(bool),
                suggested=suggested)


def _json_error_entry(e, top):
    """The fields of one JSON report entry, in ErrorEntry order, checked."""
    if not isinstance(e, dict) or e.keys() != set(ERROR_REPORT_COLUMNS):
        raise ValueError("an entry must hold exactly "
                         + ", ".join(ERROR_REPORT_COLUMNS))
    return (_json_text(e["sample_id"], "sample_id"),
            _count(e["locus_index"], "locus_index", top),
            _json_text(e["locus_id"], "locus_id"),
            _count(e["observed"], "observed", 2),
            _json_number(e["ratio"], "ratio"), _json_flag(e["flagged"]),
            _count(e["suggested"], "suggested", 2))


def _read_error_report_json(path, text) -> ErrorReport:
    top = int(np.iinfo(np.int64).max)
    try:
        payload = json.loads(text)
        entries = [_json_error_entry(e, top) for e in payload["entries"]]
        threshold = _json_number(payload["threshold"], "threshold")
        if not threshold > 0:
            raise ValueError(f"threshold must be positive, not {threshold}")
        failures = {k: _count(v, "failures locus")
                    for k, v in payload.get("failures", {}).items()}
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise InputError(f"{path}: malformed JSON error report ({exc})") from exc
    return ErrorReport.from_entries(entries, threshold, failures)


def _threshold(path, line_no, line) -> float:
    """The positive ratio threshold of a ``#threshold=`` line."""
    try:
        threshold = float(line.split("=", 1)[1])
    except ValueError:
        _fail(path, line_no, "malformed threshold header")
    if not threshold > 0:
        _fail(path, line_no, f"threshold must be positive, got {threshold}")
    return threshold


def read_error_report(path) -> ErrorReport:
    """A TSV or JSON error report, as columns. A TSV file is split once;
    its rows are validated a column at a time, and when any cell is bad
    the rows are checked one by one to name the first bad line and field."""
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        return _read_error_report_json(path, text)
    lines = text.split("\n")
    del text
    comments = list(compress(count(), map(str.startswith, lines, repeat("#"))))
    threshold = None
    failures = {}
    stop = None  # a header line that failed ends the lines that count
    for i in comments:
        try:
            if lines[i].startswith("#threshold="):
                threshold = _threshold(path, i + 1, lines[i])
            elif lines[i].startswith("#zero-probability\t"):
                sample_id, locus = _zero_probability(path, i + 1, lines[i])
                failures[sample_id] = locus
        except InputError as exc:
            stop = (i, exc)
            break
    filled = np.fromiter(compress(range(stop[0] if stop else len(lines)),
                                  map(str.strip, lines)), dtype=np.intp)
    data = filled[~np.isin(filled, comments)].tolist()  # header, then rows
    if data and tuple(lines[data[0]].split("\t")) != ERROR_REPORT_COLUMNS:
        _fail(path, data[0] + 1, f"expected header {'/'.join(ERROR_REPORT_COLUMNS)}")
    rows = [lines[i] for i in data[1:]]
    columns = _error_report_columns(rows) if rows else None
    if rows and columns is None:
        for i, row in zip(data[1:], rows):
            _check_error_row(path, i + 1, row)
    if stop:
        raise stop[1]
    if threshold is None:
        _fail(path, 1, "missing '#threshold=' header")
    if not data:
        _fail(path, 1, "missing column header row")
    if not rows:
        return ErrorReport.from_entries((), threshold, failures)
    return ErrorReport(**columns, threshold=threshold, failures=failures,
                       stats=None)


def write_imputation(path, result: ImputationResult, *, config_line=None,
                     json_mode=False):
    if json_mode:
        return _write_json(path, {
            "entries": [{**e._asdict(), "probs": list(e.probs)}
                        for e in result.entries],
            "failures": [list(f) for f in result.failures],
            "windows": [{"lo": w.lo, "hi": w.hi, "targets": list(w.targets),
                         "train_iterations": w.train_iterations}
                        for w in result.windows],
        }, config_line)
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
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        try:
            payload = json.loads(text)
            entries = tuple(ImputationEntry(
                _json_text(e["sample_id"], "sample_id"),
                _count(e["locus_index"], "locus_index"),
                _json_text(e["locus_id"], "locus_id"),
                tuple(_json_number(p, "probs") for p in e["probs"]),
                _count(e["call"], "call", 2),
                _json_number(e["confidence"], "confidence"))
                for e in payload["entries"])
            failures = tuple((_json_text(f[0], "failures sample"),
                              _count(f[1], "failures locus"))
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
    calls = {"0": 0, "1": 1, "2": 2}
    for line_no, line in enumerate(text.split("\n"), start=1):
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
            entries.append(ImputationEntry(
                parts[0], _tsv_index(parts[2]), parts[1], probs,
                _tsv_cell(parts[6], "call", calls), float(parts[7])))
        except ValueError as exc:
            _fail(path, line_no, f"malformed imputation row ({exc})")
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
        return _write_json(path, {
            "fills": [f._asdict() for f in result.fills],
            "failures": {k: int(v) for k, v in sorted(result.failures.items())},
        }, config_line)
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
        return _write_json(path, {
            "total": report.total,
            "discordant": report.discordant,
            "discordance_rate": report.discordance_rate,
            "confusion": report.confusion.tolist(),
            "details": {k: v for k, v in sorted(report.details.items())},
        }, config_line)
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
    _write_json(path, {
        "error_records": [list(r) for r in data.error_records],
        "missing_records": [list(r) for r in data.missing_records],
        "masked_loci": list(data.masked_loci),
    }, config_line)


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
