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
  and imputation writers format each distinct middle and tail of a row
  once and join the rows in one string; the error report reader finds
  lines and tabs in the file's bytes as arrays and parses each distinct
  cell piece once, checking rows one by one only to name a bad one

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
from itertools import count, repeat

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


def _distinct(values):
    """The sorted distinct values of an integer array (np.sort beats np.unique)."""
    values = np.sort(values)
    return np.concatenate((values[:1], values[1:][values[1:] != values[:-1]]))


def _heads(key):
    """For each row, a row of the same ``key``."""
    group = np.searchsorted(_distinct(key), key)
    first = np.empty(len(key), dtype=np.intp)
    first[group] = np.arange(len(key))
    return first[group]


def _fill(template, *columns):
    """``template % row`` for each row of ``columns`` (arrays; object ones
    hold ids), formatted once per distinct row: floats by bit pattern, so
    -0.0 is not 0.0, and a row whose id differs from its head's alone."""
    key, bound = np.zeros(len(columns[0]), dtype=np.int64), 1
    for c in (c for c in columns if c.dtype != object):
        values = c.view(np.int64) if c.dtype == np.float64 else c.astype(np.int64)
        distinct = _distinct(values)
        key, bound = key * len(distinct) + np.searchsorted(distinct, values), bound * len(distinct)
        if bound > len(key):  # keeps each product below the row count squared
            key, bound = np.searchsorted(_distinct(key), key), len(key)
    head = _heads(key)
    for c in (c for c in columns if c.dtype == object):
        odd = np.flatnonzero(c != c[head])
        head[odd] = odd
    alone = head == np.arange(len(head))
    texts = np.array([template % row for row in zip(*(c[alone].tolist() for c in columns))],
                     dtype=object)
    return texts[(np.cumsum(alone) - 1)[head]].tolist()


def _tsv_body(sample_ids, locus_ids, loci, template, *columns):
    """Rows ``sample_id<TAB>locus_id<TAB>locus_index<TAB>`` then ``template``
    over ``columns``, each distinct middle and tail formatted once."""
    cells = [None] * (3 * len(sample_ids))
    cells[0::3] = sample_ids
    cells[1::3] = _fill("\t%s\t%d\t", np.array(locus_ids, dtype=object), loci)
    cells[2::3] = _fill(template, *columns)
    return "".join(cells)


def write_error_report(path, report: ErrorReport, *, config_line=None,
                       json_mode=False):
    columns = (report.observed, report.ratio, report.flags, report.suggested)
    if json_mode:
        return _write_json(path, {
            "threshold": report.threshold,
            "entries": [dict(zip(ERROR_REPORT_COLUMNS, row)) for row in zip(
                report.sample_id, report.locus_id, report.locus_index.tolist(),
                *(c.tolist() for c in columns))],
            "failures": {k: int(v) for k, v in sorted(report.failures.items())},
        }, config_line)
    lines = _config_lines(config_line)
    lines.append(f"#threshold={fmt(report.threshold)}")
    for sample_id, locus in sorted(report.failures.items()):
        lines.append(f"#zero-probability\t{sample_id}\t{locus}")
    lines.append("\t".join(ERROR_REPORT_COLUMNS) + "\n")
    atomic_write(path, "\n".join(lines) + _tsv_body(  # %.17g prints what fmt prints
        report.sample_id, report.locus_id, report.locus_index,
        "%d\t%.17g\t%d\t%d\n", *columns))


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


def _error_middle(locus_id, index):
    """A TSV report row's locus id and index, which must fit an int64."""
    return locus_id, _count(_tsv_index(index), "locus_index", (1 << 63) - 1)


def _error_tail(observed, ratio, flagged, suggested):
    """The values of the last four cells of a TSV report row; ValueError
    names the first bad one."""
    symbols = {"0": 0, "1": 1, "2": 2}
    return (_tsv_cell(observed, "observed", symbols), float(ratio),
            _tsv_cell(flagged, "flagged", {"0": False, "1": True}),
            _tsv_cell(suggested, "suggested", symbols))


def _check_error_row(path, line_no, line):
    """Fail at the first bad field of one TSV report row, if it has one."""
    parts = line.split("\t")
    if len(parts) != len(ERROR_REPORT_COLUMNS):
        _fail(path, line_no, f"expected {len(ERROR_REPORT_COLUMNS)} fields")
    try:
        _error_middle(*parts[1:3])
        _error_tail(*parts[3:])
    except ValueError as exc:
        _fail(path, line_no, f"malformed error report row ({exc})")


def _cells(buf, words, lo, hi, parse, blank):
    """(``parse`` of each distinct cell ``lo:hi`` of ``buf``, ``blank``
    where it raises ValueError; each cell's index into them; whether it
    parsed). ``words[i]`` is the word of the 8 bytes of ``buf`` from ``i``
    on. A cell is keyed by its width and bytes or, past 7 bytes, by a hash
    of its first and last eight, and checked against its key's head."""
    width = hi - lo
    keep = np.uint64(2**64 - 1) >> np.arange(64, -1, -8, dtype=np.uint64)
    key = words[lo] & keep[np.minimum(width, 8)] | width.astype(np.uint64) << np.uint64(56)
    long = np.flatnonzero(width > 7)
    mix = np.uint64(0x9E3779B97F4A7C15)
    key[long] = (key[long] * mix ^ words[hi[long] - 8]) * mix | ~keep[7]
    head = _heads(key)
    rows = long[width[head[long]] != width[long]]
    head[rows] = rows
    rows = long[head[long] != long]
    for off in count(0, 8):  # whole words, the last one ending with the cell
        rows = rows[width[rows] > off]
        if not rows.size:
            break
        at = np.minimum(off, width[rows] - 8)
        odd = rows[words[lo[rows] + at] != words[lo[head[rows]] + at]]
        head[odd] = odd
    alone = head == np.arange(len(lo))
    values, parsed = [], np.ones(alone.sum(), dtype=bool)
    for j, (a, b) in enumerate(zip(lo[alone].tolist(), hi[alone].tolist())):
        try:
            values.append(parse(buf[a:b].decode()))
        except ValueError:
            values.append(blank)
            parsed[j] = False
    code = (np.cumsum(alone) - 1)[head]
    return values, code, parsed[code]


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
    """A TSV or JSON error report, as columns. A TSV file is read as bytes,
    its lines and cells found from the offsets of line ends and tabs; when
    any row is bad, bad rows are checked one by one to name the first."""
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        return _read_error_report_json(path, text)
    buf = text.encode()
    del text
    padded = buf + b"\n" + bytes(8)  # each line ends in a \n; room for the last words
    arr = np.frombuffer(padded, dtype=np.uint8, count=len(buf) + 1)
    words = np.ndarray((len(buf) + 1,), "<u8", buffer=padded, strides=(1,))
    sep = np.flatnonzero((arr == 9) | (arr == 10))
    eol = np.flatnonzero(arr[sep] == 10)  # in sep, of each line's end
    ends = sep[eol]
    starts = np.append(0, ends[:-1] + 1)
    comment = arr[starts] == ord("#")
    line = lambda i: buf[starts[i]:ends[i]].decode()
    threshold, failures, stop = None, {}, None  # a header line that failed stops
    for i in np.flatnonzero(comment).tolist():
        try:
            if line(i).startswith("#threshold="):
                threshold = _threshold(path, i + 1, line(i))
            elif line(i).startswith("#zero-probability\t"):
                sample_id, locus = _zero_probability(path, i + 1, line(i))
                failures[sample_id] = locus
        except InputError as exc:
            stop = (i, exc)
            break
    lines = np.flatnonzero(((ends > starts) & ~comment)[:stop and stop[0]])
    at = np.append(0, eol[:-1] + 1)[lines]  # in sep, of each line's first tab
    six = np.flatnonzero(eol[lines] - at == 6)
    # each distinct sample id, locus_id<TAB>locus_index and tail is parsed once
    tab, third = sep[at[six]], sep[at[six] + 2]
    samples, sample, _ = _cells(buf, words, starts[lines[six]], tab, str, "")
    loci, locus, rows = _cells(buf, words, tab + 1, third,
                               lambda t: _error_middle(*t.split("\t")), ("", 0))
    tails, tail, parsed = _cells(buf, words, third + 1, ends[lines[six]],
                                 lambda t: _error_tail(*t.split("\t")), (0, 0.0, False, 0))
    rows &= parsed
    ok = np.zeros(len(lines), dtype=bool)
    ok[six[rows]] = True
    filled = ok | np.isin(lines, [i for i in lines[~ok].tolist() if line(i).strip()])
    data = lines[filled]  # header, then rows
    if data.size and line(data[0]) != "\t".join(ERROR_REPORT_COLUMNS):
        _fail(path, data[0] + 1, f"expected header {'/'.join(ERROR_REPORT_COLUMNS)}")
    for i in data[1:][~ok[filled][1:]].tolist():
        _check_error_row(path, i + 1, line(i))
    if stop:
        raise stop[1]
    if threshold is None:
        _fail(path, 1, "missing '#threshold=' header")
    if not data.size:
        _fail(path, 1, "missing column header row")
    loci, tails = (np.array(v, dtype=object).reshape(-1, k) for v, k in ((loci, 2), (tails, 4)))
    pick = lambda values, code, t=object: np.array(values, dtype=object).astype(t)[code[rows]]
    return ErrorReport(pick(samples, sample).tolist(), pick(loci[:, 1], locus, np.int64),
                       pick(loci[:, 0], locus).tolist(),
                       *(pick(tails[:, j], tail, t) for j, t in enumerate(
                           (np.int64, np.float64, bool, np.int64))),
                       threshold=threshold, failures=failures, stats=None)


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
    lines.append("\t".join(IMPUTATION_COLUMNS) + "\n")
    sample_ids, loci, locus_ids, probs, calls, confidence = (
        zip(*result.entries) if result.entries else [()] * 6)
    probs = np.array(probs, dtype=np.float64).reshape(-1, 3)
    atomic_write(path, "\n".join(lines) + _tsv_body(
        list(sample_ids), list(locus_ids), np.array(loci, dtype=np.int64),
        "%.17g\t%.17g\t%.17g\t%d\t%.17g\n", *probs.T,
        np.array(calls, dtype=np.int64), np.array(confidence, dtype=np.float64)))


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
