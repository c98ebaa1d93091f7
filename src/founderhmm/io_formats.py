"""Plain-text file formats and atomic writing.

Five formats, all diffable and exactly round-trippable, each with one
parser:

* genotype corpus   — ``#samples=<m> loci=<n>`` header, then one row per
  sample: ``sample_id<TAB><symbols>`` with symbols in ``0 1 2 ?``
* haplotype panel   — same shape, symbols in ``0 1``. Both move as one
  int8 (rows, loci) matrix with its ids (a ``GenotypeCorpus`` or a
  ``HaplotypePanel``): the reader splits the rows once and maps all
  symbols through a 256-entry byte table, the writer maps them back
  through the inverse table, and neither builds an object per row
* locus map         — one row per locus: ``locus_id<TAB>position<TAB>typed|untyped``,
  positions finite and increasing
* model             — versioned text header, then the initial vector,
  per-interval transition rows, and per-locus emission rows, every value
  printed with 17 significant digits (lossless for double precision).
  Writer and reader share the order of the rows; the reader takes no
  other order, parses the rows as one block, and names the row of values
  that make no model
* reports           — five tab-separated tables, each declared once as its
  columns and the kind of each column's cells, all written by one writer
  that formats each distinct piece of a row once. Error reports, imputation
  results and recovery fill logs move as columns and have a JSON twin; one
  reader serves the first two, finding lines and tabs in the file's bytes
  as arrays and parsing each distinct piece once

Writers are atomic (temp file in the target directory, then rename) and
accept an optional ``#config:`` echo line. Readers decode a file as UTF-8
once, end lines at ``\\n``, ``\\r\\n`` or a lone ``\\r`` only, and skip
unrecognized comment lines, so echoed headers never break round-trips;
the TSV report reader parses a file with no ``\\r`` as its own bytes.
Parse failures raise InputError messages of the form ``path:line:
problem``; where a whole file is checked at once, a file that fails is
checked again line by line, only to name the first bad line.
"""
from __future__ import annotations

import json
import math
import os
import re
import tempfile
from itertools import chain, count, islice, repeat, zip_longest

import numpy as np

from .analysis import ErrorEntry, ErrorReport, IdColumn, ImputationEntry, ImputationResult
from .model import STOCHASTIC_ATOL, FounderHMM, GenotypeCorpus, HaplotypePanel, InputError, LocusMap

CONFIG_ENV = "FOUNDERHMM_CONFIG"
MODEL_MAGIC = "#founderhmm-model v1"


def fmt(value) -> str:
    """17-significant-digit decimal; exact round-trip for float64."""
    return format(float(value), ".17g")


def atomic_write(path, text: str):
    """Write whole-file UTF-8 text, as every reader decodes it, via a temp
    file and rename, so readers never see a partial artifact. The file
    gets the mode open() would give it under the current umask, not
    mkstemp's 0600. An OSError names ``path``, not the temp file."""
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)
    os.umask(umask)
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:
        if exc.errno is None:
            raise
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc


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


def _read_text(path, data=None) -> str:
    """``path`` read as bytes (or its bytes ``data``) and decoded as UTF-8
    once, with each line end (\\n, \\r\\n or a lone \\r) made \\n; bytes that
    are not UTF-8 fail with the line that holds them."""
    if data is None:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[:exc.start]
        line_no = (1 + before.count(b"\n") + before.count(b"\r")
                   - before.count(b"\r\n"))
        _fail(path, line_no, f"byte 0x{data[exc.start]:02x} is not UTF-8 text")
    return text.replace("\r\n", "\n").replace("\r", "\n") if b"\r" in data else text


def _read_report(path):
    """A report file: its JSON text, which starts with "{" after white
    space, or the UTF-8 bytes of its TSV text as :func:`_read_text` gives
    it. A file with no \\r is its own bytes, read once: one that is not
    ASCII is decoded only to check it, and an ASCII one not at all, unless
    it is JSON."""
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data or not data.isascii():
        text = _read_text(path, data)
        if text.lstrip().startswith("{"):
            return text
        return text.encode() if b"\r" in data else data
    # str.lstrip()'s white space in ASCII, but \r
    return data.decode() if re.match(rb"[\t-\x0c\x1c-\x1f ]*\{", data) else data


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
    """A position as read_locus_map reads it back: as an integer when it is
    one that fits an int64."""
    if value.dtype.kind == "i" or value.is_integer() and -2.0**63 <= value < 2.0**63:
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
    ids, positions, typed, lines = [], [], [], []  # lines: the line of each row
    for line_no, line in enumerate(_read_text(path).split("\n"), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            _fail(path, line_no,
                  f"expected locus_id<TAB>position<TAB>typed|untyped, got {len(parts)} fields")
        lid, pos_text, status = parts
        try:  # float()'s grammar in ASCII digits, without the "_", "+" or spaces it allows
            if not re.fullmatch(r"-?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?", pos_text):
                raise ValueError
            pos = float(pos_text) if set(pos_text) & set(".eE") else int(pos_text)
        except ValueError:
            _fail(path, line_no, f"position {pos_text!r} is not a number")
        if type(pos) is int and not -2**63 <= pos < 2**63:
            _fail(path, line_no, f"position {pos_text} does not fit a 64-bit integer")
        if not math.isfinite(pos):
            _fail(path, line_no, f"position {pos_text} is not finite")
        if status not in ("typed", "untyped"):
            _fail(path, line_no, f"status must be 'typed' or 'untyped', got {status!r}")
        ids.append(lid)
        positions.append(pos)
        typed.append(status == "typed")
        lines.append(line_no)
    if not ids:
        _fail(path, 1, "locus map file has no rows")
    try:  # int64 positions unless one is a float: then all compare as float64
        return LocusMap(locus_ids=tuple(ids), positions=np.array(positions),
                        typed=np.array(typed, dtype=bool))
    except InputError as exc:
        if not exc.rows:
            raise InputError(f"{path}: {exc}") from exc
        row, *first = exc.rows
        _fail(path, lines[row], str(exc) + "".join(f" (first on line {lines[f]})" for f in first))


# ------------------------------------------------------------------ model

def _model_starts(k, n):
    """The leading cells of each row of a model file, each ending in a tab,
    in the order write_model writes the rows."""
    return (["initial\t"] + [f"transition\t{i}\t{a}\t" for i in range(n - 1)
                             for a in range(k)]
            + [f"emission\t{i}\t" for i in range(n)])


def write_model(path, model: FounderHMM, *, config_line=None):
    k, n = model.founders, model.loci
    lines = [MODEL_MAGIC, *_config_lines(config_line), f"#founders={k} loci={n}"]
    rows = np.concatenate((model.initial[None], model.transitions.reshape(-1, k),
                           model.emissions)).tolist()
    # one format per row: "%.17g" writes each value as fmt does
    row = "\t".join(["%.17g"] * k)
    lines += [start + row % tuple(values) for start, values in zip(_model_starts(k, n), rows)]
    atomic_write(path, "\n".join(lines) + "\n")


def _model_header(path, lines, heads, size):
    """K and n of a model file, whose first two lines that are neither blank
    nor plain comments (their indices, ``heads``) must be the format line
    and the ``#founders=<K> loci=<n>`` header."""
    text, at = [lines[i] for i in heads] + ["", ""], [i + 1 for i in heads] + [1, 1]
    if text[0] != MODEL_MAGIC:
        if text[0].startswith("#founderhmm-model"):
            _fail(path, at[0], f"unsupported model format version {text[0]!r}")
        _fail(path, at[0], f"not a model file (missing '{MODEL_MAGIC}' first)")
    if not text[1].startswith("#founders="):
        _fail(path, at[1], ("expected the '#founders=<K> loci=<n>' header here" if text[1]
                            else "missing '#founders=<K> loci=<n>' header"))
    try:
        k, n = _declared(text[1])
    except (ValueError, IndexError):
        _fail(path, at[1], f"malformed dimension header {text[1]!r}")
    if k < 1 or n < 1:
        _fail(path, at[1], "founders and loci must be >= 1")
    # each value takes at least two bytes, a digit and a separator, so the
    # file size bounds the arrays the header asks for
    if 2 * k * (1 + (n - 1) * k + n) > size:
        _fail(path, at[1], f"{k} founders and {n} loci need more values than the file holds")
    return k, n


def _model_table(data, k, n):
    """The (rows, K) values of the model rows ``data`` (strings), checked
    and parsed as one block, if they are the rows write_model writes, in
    order, each with K finite values; else None. The rows' tab counts fix
    where each cell is, so each column of labels is checked at once and
    the values are parsed in one pass."""
    t = (n - 1) * k
    if list(map(str.count, data, repeat("\t"))) != [k] + [k + 2] * t + [k + 1] * n:
        return None
    cells = "\t".join(data).split("\t")
    e = k + 1 + t * (k + 3)  # the first emission row's first cell
    ids = list(map(str, range(max(n, k))))
    if (cells[0] != "initial" or cells[k + 1:e:k + 3] != ["transition"] * t
            or cells[e::k + 2] != ["emission"] * n
            # each locus' id k times, then the founder ids once per locus
            or cells[k + 2:e:k + 3] != list(chain.from_iterable(zip(*[ids[:n - 1]] * k)))
            or cells[k + 3:e:k + 3] != ids[:k] * (n - 1) or cells[e + 1::k + 2] != ids[:n]):
        return None
    values = [None] * ((1 + t + n) * k)
    values[:k] = cells[1:k + 1]
    for c in range(k):
        values[k + c:k + t * k:k] = cells[k + 4 + c:e:k + 3]
        values[k + t * k + c::k] = cells[e + 2 + c::k + 2]
    try:
        table = np.fromiter(map(float, values), dtype=np.float64, count=len(values))
    except ValueError:
        return None
    return table.reshape(-1, k) if np.isfinite(table).all() else None


def _check_model_rows(path, lines, rows, starts, k):
    """Fail at the first model row that is out of place, does not hold K
    finite values, or holds values that make no model: a negative value or
    a sum off 1 in the initial or a transition row, or an emission outside
    [0, 1]."""
    for i, start in zip_longest(rows, starts):
        if i is None:
            _fail(path, 1, f"incomplete {start.split()[0]} rows")
        row = lines[i] + "\t"  # a row that lacks only its values still has its place
        kind = row.split("\t", 1)[0]
        if kind.startswith("#"):
            _fail(path, i + 1, f"{lines[i]!r} out of place (the format line and the "
                               f"header come first, once)")
        if kind not in ("initial", "transition", "emission"):
            _fail(path, i + 1, f"unknown row kind {kind!r}")
        if start is None:
            _fail(path, i + 1, "more rows than the header declares")
        label = " ".join(start.split())
        if not row.startswith(start):
            _fail(path, i + 1, f"expected row '{label}' here (model rows must be "
                               f"in the order the writer writes them)")
        values = row[len(start):-1].split("\t")
        if len(values) != k:
            _fail(path, i + 1, f"row '{label}' needs {k} values")
        for value in values:
            try:
                finite = math.isfinite(float(value))
            except ValueError:
                finite = False
            if not finite:
                _fail(path, i + 1, f"value {value!r} is not a finite number")
        p = np.array(values, dtype=np.float64)
        if kind == "emission" and not ((p >= 0) & (p <= 1)).all():
            _fail(path, i + 1, f"row '{label}' must lie in [0, 1]")
        if kind != "emission" and ((p < 0).any() or abs(p.sum() - 1.0) > STOCHASTIC_ATOL):
            _fail(path, i + 1, f"row '{label}' must be non-negative and sum to 1 "
                               f"within {STOCHASTIC_ATOL}")


def _model_rows(lines):
    """The indices of the lines of a model file that are neither blank nor
    plain comments: the format line, the header and the model rows."""
    return (i for i, line in enumerate(lines) if line.strip()
            and (line[0] != "#" or line.startswith(("#founderhmm-model", "#founders="))))


def read_model(path) -> FounderHMM:
    """A model file in write_model's layout: the format line, the header,
    then every row in its place with K finite values; other comment lines
    may stand anywhere. The rows are checked and parsed as one block, all
    lines after the header first; rows that do not parse, or whose values
    make no model, are checked one by one to name the first bad one."""
    lines = _read_text(path).split("\n")
    heads = list(islice(_model_rows(lines), 2))
    k, n = _model_header(path, lines, heads, os.path.getsize(path))
    rows = range(heads[1] + 1, len(lines) - (lines[-1] == ""))  # write_model's rows
    table = _model_table(lines[rows.start:rows.stop], k, n)
    if table is None:
        rows = list(_model_rows(lines))[2:]
        table = _model_table([lines[i] for i in rows], k, n)
        if table is None:
            _check_model_rows(path, lines, rows, _model_starts(k, n), k)
    t = (n - 1) * k
    try:
        return FounderHMM(table[0], table[1:t + 1].reshape(n - 1, k, k), table[t + 1:])
    except InputError as exc:
        _check_model_rows(path, lines, rows, _model_starts(k, n), k)
        raise InputError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------- reports

# Each table, declared once: its columns in file order, each with the kind
# of its cells (an id is any string). Every writer's header and row
# template follow the declaration; the two report tables, which start with
# sample_id, locus_id and locus_index, are also read back by the TSV
# reader, its per-row check and the check of a JSON twin's entries.
ERROR_REPORT_TABLE = (("sample_id", "id"), ("locus_id", "id"), ("locus_index", "index"),
                      ("observed", "digit"), ("ratio", "float"), ("flagged", "flag"),
                      ("suggested", "digit"))
IMPUTATION_TABLE = (("sample_id", "id"), ("locus_id", "id"), ("locus_index", "index"),
                    ("p0", "float"), ("p1", "float"), ("p2", "float"),
                    ("call", "digit"), ("confidence", "float"))
RECOVERY_TABLE = (("sample_id", "id"), ("locus_index", "index"), ("symbol", "digit"),
                  ("confidence", "float"))
SWEEP_TABLE = (("founders", "index"), ("panel_size", "index"), ("flank", "index"), ("mode", "id"),
               ("total", "index"), ("discordant", "index"), ("error_rate", "float"),
               ("seconds", "float"), ("failed", "flag"), ("message", "id"))
BENCH_TABLE = (("axis", "id"), ("value", "index"), ("locus_evals", "index"),
               ("seconds", "float"))
ERROR_REPORT_COLUMNS, IMPUTATION_COLUMNS, RECOVERY_COLUMNS = (
    tuple(name for name, _ in t) for t in (ERROR_REPORT_TABLE, IMPUTATION_TABLE, RECOVERY_TABLE))
_INT64_MAX = (1 << 63) - 1
_DTYPES = {"index": np.int64, "digit": np.int64, "flag": bool, "float": np.float64}
_SYMBOLS = {"digit": {"0": 0, "1": 1, "2": 2}, "flag": {"0": False, "1": True}}


def _distinct(values):
    """The sorted distinct values of an integer array (np.sort beats np.unique)."""
    values = np.sort(values)
    return np.concatenate((values[:1], values[1:][values[1:] != values[:-1]]))


def _ranks(at, size):
    """A ``size`` array holding at each of the distinct indices ``at`` its
    place in ``at`` (a cumsum of a bool mask is several times slower)."""
    ranks = np.empty(size, dtype=np.intp)
    ranks[at] = np.arange(len(at))
    return ranks


def _heads(key):
    """For each row, a row of the same ``key``: the last one. Runs of
    equal keys are collapsed before the sort, so a column of few long runs
    sorts only their keys."""
    change = np.ones(len(key), dtype=bool)
    change[1:] = key[1:] != key[:-1]
    starts = np.flatnonzero(change)
    runs = key[starts]
    group = np.searchsorted(_distinct(runs), runs)
    ends = np.append(starts[1:], len(key))
    last = np.empty(len(runs), dtype=np.intp)
    last[group] = ends - 1
    return np.repeat(last[group], ends - starts)


def _coded(column, rows):
    """Each row's code in [0, bound) of ``column`` and the bound: an id
    column's codes, an integer or bool column's values when they lie in
    [0, rows), else the rank among the distinct values (floats by bit
    pattern, so -0.0 is not 0.0)."""
    if isinstance(column, IdColumn):
        return column.codes, len(column.names)
    if column.dtype != np.float64 and rows and 0 <= column.min() and column.max() < rows:
        return column.astype(np.intp), int(column.max()) + 1
    values = column.view(np.int64) if column.dtype == np.float64 else column.astype(np.int64)
    distinct = _distinct(values)
    return np.searchsorted(distinct, values), len(distinct)


def _fill(template, *columns):
    """``template % row`` for each row of ``columns`` (arrays and id
    columns), formatted once per distinct row: the columns' codes make one
    key below the row count, and the first row of each key, which
    ``np.minimum.at`` finds in a documented order, is formatted."""
    rows = len(columns[0])
    key, bound = np.zeros(rows, dtype=np.intp), 1
    for c in columns:
        codes, size = _coded(c, rows)
        key, bound = key * size + codes, bound * size
        if bound > rows:  # keeps the next product below rows x its column's bound
            distinct = _distinct(key)
            key, bound = np.searchsorted(distinct, key), len(distinct)
    first = np.full(bound, rows, dtype=np.intp)
    np.minimum.at(first, key, np.arange(rows))
    used = np.flatnonzero(first < rows)
    texts = np.array([template % row for row in zip(*(c[first[used]].tolist() for c in columns))],
                     dtype=object)
    return texts[_ranks(used, bound)[key]].tolist()


def _zero_lines(failures):
    """The ``#zero-probability`` line of each (sample id, locus) pair."""
    return [f"#zero-probability\t{sample_id}\t{locus}" for sample_id, locus in failures]


def _write_table(path, table, columns, config_line, heads=(), tails=()):
    """The TSV file of ``table``: the echo line, comment lines ``heads``,
    the header, a row of ``columns`` (file order) per entry, comment lines
    ``tails``. A row is three pieces, its first cell (an id as it is),
    cells 1-2 and the rest, each distinct piece formatted once (%.17g is fmt).
    Ids are :class:`IdColumn` codes, each name formatted once."""
    kinds = [kind for _, kind in table]
    cells = ["%.17g" if kind == "float" else "%s" if kind == "id" else "%d" for kind in kinds]
    # a piece's arrays live only through its _fill
    array = lambda c, kind: IdColumn.of(c) if kind == "id" else np.asarray(c, dtype=_DTYPES[kind])
    pieces = [None] * (3 * len(columns[0]))
    pieces[0::3] = (IdColumn.of(columns[0]).tolist() if kinds[0] == "id"
                    else _fill(cells[0], array(columns[0], kinds[0])))
    pieces[1::3] = _fill("\t%s\t%s\t" % tuple(cells[1:3]), *map(array, columns[1:3], kinds[1:3]))
    pieces[2::3] = _fill("\t".join(cells[3:]) + "\n", *map(array, columns[3:], kinds[3:]))
    lines = [*_config_lines(config_line), *heads, "\t".join(name for name, _ in table) + "\n"]
    pieces[:0] = ["\n".join(lines)]
    pieces += [t + "\n" for t in tails]
    # the text alone, not its 3 x entries pieces, lives through the write
    text = "".join(pieces)
    del pieces
    atomic_write(path, text)


def _json_entries(report):
    """A report's entries as its JSON twin's dicts, built from its columns."""
    columns = [c.tolist() for c in report.columns()]
    return [dict(zip(report._entry._fields, row)) for row in zip(*columns)]


def write_error_report(path, report: ErrorReport, *, config_line=None,
                       json_mode=False):
    if json_mode:
        return _write_json(path, {
            "threshold": report.threshold,
            "entries": _json_entries(report),
            "failures": {k: int(v) for k, v in sorted(report.failures.items())},
        }, config_line)
    sample_id, locus_index, locus_id, *rest = report.columns()
    _write_table(path, ERROR_REPORT_TABLE, [sample_id, locus_id, locus_index, *rest],
                 config_line, [f"#threshold={fmt(report.threshold)}",
                               *_zero_lines(sorted(report.failures.items()))])


def _count(value, name, top=None):
    """``value`` if it is an int (not a bool) from 0 to ``top``, or from 0
    up when ``top`` is None; else ValueError naming the field."""
    if type(value) is int and value >= 0 and (top is None or value <= top):
        return value
    bound = "an integer >= 0" if top is None else f"an integer from 0 to {top}"
    raise ValueError(f"{name} must be {bound}, not {json.dumps(value)}")


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


def _json_value(value, name, kind):
    """``value`` if it is a JSON value of a report cell's ``kind``; else
    ValueError naming the field. Only true or false may give a flag:
    ``correct`` applies every flagged entry."""
    if kind == "float":
        return _json_number(value, name)
    if kind in ("index", "digit"):
        return _count(value, name, 2 if kind == "digit" else _INT64_MAX)
    if isinstance(value, str if kind == "id" else bool):
        return value
    raise ValueError(f"{name} must be {'a string' if kind == 'id' else 'true or false'}, "
                     f"not {json.dumps(value)}")


def _json_probs(value):
    """An imputation entry's ``probs``: a list of three numbers, its p0, p1
    and p2."""
    if type(value) is list and len(value) == 3:
        return tuple(_json_value(p, "probs", "float") for p in value)
    raise ValueError(f"probs must be a list of 3 numbers, not {json.dumps(value)}")


def _json_entry(e, table, fields):
    """The values of one JSON report entry, in the order of ``fields``: a
    dict of exactly those fields, each of its column's kind in ``table``,
    or ``probs``."""
    if not isinstance(e, dict) or e.keys() != set(fields):
        raise ValueError("an entry must hold exactly " + ", ".join(fields))
    kinds = dict(table)
    return [_json_probs(e[name]) if name == "probs"
            else _json_value(e[name], name, kinds[name]) for name in fields]


def _tsv_index(cell) -> int:
    """A TSV report's locus index, which only ASCII digits may give."""
    return _count(int(cell) if cell.isascii() and cell.isdigit() else cell,
                  "locus_index")


def _tsv_value(cell, name, kind):
    """The value of one TSV report cell of ``kind`` (not an id); ValueError
    names the field. A locus index must fit an int64."""
    if kind == "float":
        return float(cell)
    if kind == "index":
        return _count(_tsv_index(cell), name, _INT64_MAX)
    if cell in _SYMBOLS[kind]:
        return _SYMBOLS[kind][cell]
    raise ValueError(f"{name} must be one of {', '.join(_SYMBOLS[kind])}, "
                     f"not {json.dumps(cell)}")


def _middle(locus_id, index):
    """The locus id and index of a TSV report row, as every table has them."""
    return locus_id, _tsv_value(index, "locus_index", "index")


def _check_row(path, line_no, line, table, what):
    """Fail at the first bad field of one TSV report row, if it has one."""
    parts = line.split("\t")
    if len(parts) != len(table):
        _fail(path, line_no, f"expected {len(table)} fields")
    try:
        _middle(*parts[1:3])
        for (name, kind), cell in zip(table[3:], parts[3:]):
            _tsv_value(cell, name, kind)
    except ValueError as exc:
        _fail(path, line_no, f"malformed {what} row ({exc})")


def _cells(arr, words, lo, hi, parse, blank):
    """(``parse`` of each distinct cell ``lo:hi`` of the bytes ``arr``,
    ``blank`` where it raises ValueError; each cell's index into them;
    whether it parsed). ``words[i]`` is the word of the 8 bytes of ``arr``
    from ``i`` on, and each cell is followed by a byte. A cell is keyed by
    its width and bytes or, past 7 bytes, by a hash of its first and last
    eight, and checked against its key's head. The distinct cells are
    gathered into one text, each ended by a \n, decoded once and parsed by
    one ``map``, which resumes past each cell that raises."""
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
    alone = np.flatnonzero(head == np.arange(len(lo)))
    size = width[alone] + 1
    ends = np.cumsum(size)
    text = arr[np.arange(ends[-1] if ends.size else 0) + np.repeat(lo[alone] + size - ends, size)]
    text[ends - 1] = ord("\n")
    cells = iter(text.tobytes().decode().split("\n")[:-1])
    values, parsed = [], np.ones(len(alone), dtype=bool)
    while True:
        try:
            values.extend(map(parse, cells))
            break
        except ValueError:
            parsed[len(values)] = False
            values.append(blank)
    code = _ranks(alone, len(lo))[head]
    return values, code, parsed[code]


def _read_error_report_json(path, text) -> ErrorReport:
    try:
        payload = json.loads(text)
        entries = [_json_entry(e, ERROR_REPORT_TABLE, ErrorEntry._fields)
                   for e in payload["entries"]]
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


def _read_tsv(path, buf, table, what, heads, required=()):
    """The comment values and the columns of the TSV report ``buf`` (its
    UTF-8 bytes, lines ending in \\n) of ``table``: ids as :class:`IdColumn`
    codes into the distinct cells, other columns as arrays. ``heads`` maps
    the prefix of each comment line to read to its parser, whose values
    come in file order; each prefix in ``required`` must have one. Lines
    and cells are found from the offsets of line ends and tabs. Each
    distinct sample id and ``locus_id<TAB>locus_index`` is parsed once; the
    cells past them are read a column at a time, a symbol cell as one byte
    and a float column's distinct cells parsed once each. When any row is
    bad, bad rows are checked one by one to name the first."""
    padded = buf + b"\n" + bytes(8)  # each line ends in a \n; room for the last words
    arr = np.frombuffer(padded, dtype=np.uint8, count=len(buf) + 1)
    words = np.ndarray((len(buf) + 1,), "<u8", buffer=padded, strides=(1,))
    sep = np.flatnonzero((arr == 9) | (arr == 10))
    eol = np.flatnonzero(arr[sep] == 10)  # in sep, of each line's end
    ends = sep[eol]
    starts = np.append(0, ends[:-1] + 1)
    comment = arr[starts] == ord("#")
    line = lambda i: buf[starts[i]:ends[i]].decode()
    found, stop = {prefix: [] for prefix in heads}, None  # a comment that failed stops
    for i in np.flatnonzero(comment).tolist():
        try:
            for prefix in (p for p in heads if line(i).startswith(p)):
                found[prefix].append(heads[prefix](path, i + 1, line(i)))
        except InputError as exc:
            stop = (i, exc)
            break
    lines = np.flatnonzero(((ends > starts) & ~comment)[:stop and stop[0]])
    at = np.append(0, eol[:-1] + 1)[lines]  # in sep, of each line's first tab
    full = np.flatnonzero(eol[lines] - at == len(table) - 1)
    first = at[full]
    if first.size and first[-1] - first[0] == len(table) * (first.size - 1):
        # where each cell ends: the rows' tabs and ends lie back to back
        cut = sep[first[0]:first[-1] + len(table)].reshape(-1, len(table))
    else:
        cut = sep[first[:, None] + np.arange(len(table))]
    samples, sample, _ = _cells(arr, words, starts[lines[full]], cut[:, 0], str, "")
    loci, locus, rows = _cells(arr, words, cut[:, 0] + 1, cut[:, 2],
                               lambda t: _middle(*t.split("\t")), ("", 0))
    tails = []  # a symbol cell is one byte, a float cell parsed once per distinct cell
    for j, (_, kind) in enumerate(table[3:], 3):
        lo, hi = cut[:, j - 1] + 1, cut[:, j]
        if kind == "float":
            values, code, parsed = _cells(arr, words, lo, hi, float, 0.0)
            tails.append(np.array(values, dtype=np.float64)[code])
        else:
            symbol = arr[lo] - ord("0")
            parsed = (hi - lo == 1) & (symbol < len(_SYMBOLS[kind]))
            tails.append(symbol.astype(_DTYPES[kind]))
        rows &= parsed
    ok = np.zeros(len(lines), dtype=bool)
    ok[full[rows]] = True
    filled = ok | np.isin(lines, [i for i in lines[~ok].tolist() if line(i).strip()])
    data = lines[filled]  # header, then rows
    names = [name for name, _ in table]
    if data.size and line(data[0]) != "\t".join(names):
        _fail(path, data[0] + 1, f"expected header {'/'.join(names)}")
    for i in data[1:][~ok[filled][1:]].tolist():
        _check_row(path, i + 1, line(i), table, what)
    if stop:
        raise stop[1]
    for prefix in required:
        if not found[prefix]:
            _fail(path, 1, f"missing '{prefix}' header")
    if not data.size:
        _fail(path, 1, "missing column header row")
    values = [column for v, width in ((samples, 1), (loci, 2))
              for column in np.array(v, dtype=object).reshape(-1, width).T]
    rows = np.flatnonzero(rows)
    sample, locus = sample[rows], locus[rows]
    ids = [IdColumn(code, v) if kind == "id" else v.astype(_DTYPES[kind])[code]
           for v, code, (_, kind) in zip(values, (sample, locus, locus), table)]
    return found, ids + [column[rows] for column in tails]


def read_error_report(path) -> ErrorReport:
    """A TSV or JSON error report, as columns."""
    buf = _read_report(path)
    if isinstance(buf, str):
        return _read_error_report_json(path, buf)
    found, (sample_id, locus_id, *columns) = _read_tsv(
        path, buf, ERROR_REPORT_TABLE, "error report",
        {"#threshold=": _threshold, "#zero-probability\t": _zero_probability},
        required=("#threshold=",))
    return ErrorReport(sample_id, columns[0], locus_id, *columns[1:],
                       threshold=found["#threshold="][-1],
                       failures=dict(found["#zero-probability\t"]), stats=None)


def write_imputation(path, result: ImputationResult, *, config_line=None,
                     json_mode=False):
    if json_mode:
        return _write_json(path, {
            "entries": _json_entries(result),
            "failures": [list(f) for f in result.failures],
            "windows": [{"lo": w.lo, "hi": w.hi, "targets": list(w.targets),
                         "train_iterations": w.train_iterations}
                        for w in result.windows],
        }, config_line)
    windows = [f"#window\t{w.lo}\t{w.hi}\t{','.join(map(str, w.targets))}\t"
               f"{w.train_iterations}" for w in result.windows]
    _write_table(path, IMPUTATION_TABLE,
                 [result.sample_id, result.locus_id, result.locus_index, *result.probs.T,
                  result.call, result.confidence],
                 config_line, windows + _zero_lines(result.failures))


def read_imputation(path) -> ImputationResult:
    """The calls of an imputation artifact, as columns (windows are
    summarized, models are never serialized), from TSV through the same
    columnar reader as error reports, or from JSON."""
    text = _read_report(path)
    if isinstance(text, str):
        try:
            payload = json.loads(text)
            entries = [_json_entry(e, IMPUTATION_TABLE, ImputationEntry._fields)
                       for e in payload["entries"]]
            failures = tuple((_json_value(sample, "failures sample", "id"),
                              _count(locus, "failures locus"))
                             for sample, locus in payload.get("failures", []))
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise InputError(f"{path}: malformed JSON imputation file ({exc})") from exc
        return ImputationResult.from_entries(entries, (), failures, 0, 0)
    found, (sample_id, locus_id, index, *probs, call, confidence) = _read_tsv(
        path, text, IMPUTATION_TABLE, "imputation",
        {"#zero-probability\t": _zero_probability})
    return ImputationResult(sample_id, index, locus_id, np.stack(probs, axis=1), call,
                            confidence, (), tuple(found["#zero-probability\t"]), 0, 0)


def write_recovery(path, result, *, config_line=None, json_mode=False):
    """Fill log for missing-symbol recovery (the completed corpus itself is
    written as an ordinary genotype file)."""
    failures = sorted(result.failures.items())
    if json_mode:
        return _write_json(path, {
            "fills": _json_entries(result),
            "failures": {k: int(v) for k, v in failures},
        }, config_line)
    _write_table(path, RECOVERY_TABLE, result.columns(), config_line, _zero_lines(failures))


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
    table = [(name, kind) for name, kind in SWEEP_TABLE if with_seconds or name != "seconds"]
    _write_table(path, table, [[getattr(r, name) for r in rows] for name, _ in table], config_line)


def write_bench_table(path, report, *, config_line=None):
    """Bench output is a timing artifact by nature; seconds and fitted
    exponents live here and nowhere else."""
    columns = [[getattr(r, name) for r in report.rows] for name, _ in BENCH_TABLE]
    _write_table(path, BENCH_TABLE, columns, config_line, tails=[
        f"#exponent\t{axis}\t{fmt(value)}" for axis, value in sorted(report.exponents.items())])


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
        text = _read_text(path)
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    try:
        payload = json.loads(text)
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
