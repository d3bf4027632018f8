"""Instance file formats and report rendering.

Matrices travel as Matrix Market coordinate-real files carrying a mandatory
``%%disc R=<num> Delta=<num>`` comment with the declared budgets; hypergraphs
as plain edge lists, one ``e v1 v2 ...`` line per edge with 1-based vertex
ids.  Emission is canonical (sorted coordinates, 17-significant-digit
floats) so that parse and emit round-trip bit-identically.
"""

from __future__ import annotations

import io
import math
import re
import warnings
from array import array
from itertools import chain
from pathlib import Path

import numpy as np

from .model import REL_TOL, InputMatrix
from .reduction import HypergraphInstance

__all__ = [
    "ParseError",
    "parse_matrix_text",
    "format_matrix",
    "parse_hypergraph_text",
    "format_hypergraph",
    "parse_instance",
    "write_instance",
    "format_certificate",
]

_DISC_RE = re.compile(r"^%%disc\s+R=(\S+)\s+Delta=(\S+)\s*$")
_LINE_BREAK = re.compile("\r\n|[\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")  # as str.splitlines
_ENTRY_BYTES = b"0123456789+-.eE \t\n"
_ENTRY_DTYPE = np.dtype([("row", np.int64), ("col", np.int64), ("val", np.float64)])
_EMIT_BLOCK = 1 << 15  # entries per format call in format_matrix, vertex ids in format_hypergraph


class ParseError(ValueError):
    """Malformed instance file; the message carries a line diagnostic."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _lines(text: str):
    """Each line of ``text.splitlines()``, with the offset just past its line break, lazily."""
    start = 0
    for brk in _LINE_BREAK.finditer(text):
        yield text[start:brk.start()], brk.end()
        start = brk.end()
    if start < len(text):
        yield text[start:], len(text)


def _parse_float(token: str, ln: int, what: str) -> float:
    try:
        v = float(token)
    except ValueError:
        raise ParseError(f"line {ln}: {what} {token!r} is not a real number") from None
    if not math.isfinite(v):
        raise ParseError(f"line {ln}: {what} {token!r} is not finite")
    return v


def _parse_int(token: str, ln: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"line {ln}: {what} {token!r} is not an integer") from None


def _declare(line: str, ln: int, declared):
    """The (R, Delta) of a ``%%disc`` comment line; ``declared`` for any other comment."""
    m = _DISC_RE.match(line)
    if m is None:
        return declared
    if declared is not None:
        raise ParseError(f"line {ln}: duplicate %%disc header")
    bounds = []
    for name, token in zip(("R", "Delta"), m.groups()):
        bound = _parse_float(token, ln, f"declared {name}")
        if bound <= 0:
            raise ParseError(f"line {ln}: declared {name} {token!r} is not positive")
        bounds.append(bound)
    return tuple(bounds)


def _read_header(lines: list):
    """The banner, comments and size line of ``lines``: (declared, (n, m, nnz), size line number).

    ``declared`` is None when no ``%%disc`` comment comes before the size line.
    """
    if not lines:
        raise ParseError("line 1: empty input")
    banner = lines[0].split()
    if not lines[0].startswith("%%MatrixMarket"):
        raise ParseError("line 1: missing %%MatrixMarket banner")
    fields = {t.lower() for t in banner[1:]}
    if not {"matrix", "coordinate", "real"} <= fields:
        raise ParseError("line 1: only 'matrix coordinate real' files are supported")
    if fields - {"matrix", "coordinate", "real", "general"}:
        raise ParseError("line 1: only general symmetry is supported")
    declared = None
    for ln, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if line.startswith("%"):
            declared = _declare(line, ln, declared)
        elif line:
            tokens = line.split()
            if len(tokens) != 3:
                raise ParseError(f"line {ln}: size line needs 'rows cols nnz'")
            n, m, nnz = (_parse_int(t, ln, "size field") for t in tokens)
            if n < 1 or m < 1:
                raise ParseError(f"line {ln}: matrix shape must be at least 1x1, got {n}x{m}")
            return declared, (n, m, nnz), ln
    raise ParseError(f"line {len(lines)}: missing size line")


def _check_norms(V: InputMatrix) -> InputMatrix:
    """``V``, once its L1 norms fit the declared budgets."""
    for what, l1, name, bound in (("row", V.row_l1(), "R", V.row_bound),
                                  ("column", V.col_l1(), "Delta", V.col_bound)):
        bad = np.flatnonzero(l1 > bound * (1.0 + REL_TOL))
        if bad.size:
            i = int(bad[0])
            raise ParseError(f"{what} {i + 1} L1 norm {float(l1[i])!r} exceeds the declared "
                             f"{name}={_fmt(bound)}")
    return V


def _parse_entry_block(text: str) -> InputMatrix | None:
    """The instance, with the entry block read by one ``np.loadtxt`` call; None when unsure.

    Only a block of digits, ``+-.eE``, spaces, tabs and newlines is handed
    to numpy: on those characters every token it accepts without a warning
    reads as ``int()`` or ``float()`` would.  A ``\r\n`` line break is read
    as ``\n``.  Anything else (``%`` lines, other line breaks, a lone
    ``\r``, ``nan``), a numpy error or warning, an entry of magnitude
    above 1, or one that :class:`InputMatrix` rejects (out of range, a
    repeated cell) returns None, and the caller reads the text line by line.
    The header and the L1 norms are checked by the code that reading uses,
    so their errors are raised here as they are.
    """
    head = []  # the lines up to the size line, without splitting the body
    for raw, pos in _lines(text):
        head.append(raw)
        line = raw.strip()
        if line and not line.startswith("%"):  # the banner is a "%" line too
            break
    else:
        return None
    declared, (n, m, expected), _ = _read_header(head)
    data = text.encode("ascii", "replace")  # one byte per character: `pos` still marks the body
    if data.find(b"\r", pos) >= 0:  # a lone \r is left, and fails the check below
        data, pos = data[pos:].replace(b"\r\n", b"\n"), 0
    if (declared is None or len(data.translate(None, _ENTRY_BYTES))
            != len(data[:pos].translate(None, _ENTRY_BYTES))):
        return None
    block = io.BytesIO(data)
    block.seek(pos)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # numpy 1.24 reads "1.0" as an index, with a warning
        try:
            entries = np.loadtxt(block, dtype=_ENTRY_DTYPE, comments=None, ndmin=1)
        except (ValueError, OverflowError):
            return None
    if caught or entries.size != expected:
        return None
    if not (np.abs(entries["val"]) <= 1.0).all():  # false for nan too
        return None
    try:
        V = InputMatrix(n, m, entries["row"] - 1, entries["col"] - 1, entries["val"], *declared)
    except ValueError:
        return None
    return _check_norms(V)


def _parse_lines(text: str) -> InputMatrix:
    """Read the text one line at a time; an error names the first offending line.

    Each entry is parsed and range-checked as its line is read.  Repeated
    cells are looked for only after the last line, so that a bad token on
    a later line is raised first.
    """
    lines = text.splitlines()
    declared, (n, m, expected), start = _read_header(lines)
    rows, cols, vals, where = array("q"), array("q"), array("d"), array("q")
    for ln, raw in enumerate(lines[start:], start=start + 1):
        tokens = raw.split()
        if not tokens:
            continue
        if tokens[0].startswith("%"):
            declared = _declare(raw.strip(), ln, declared)
            continue
        if len(tokens) != 3:
            raise ParseError(f"line {ln}: entry needs 'row col value' "
                             f"(3 tokens, got {len(tokens)})")
        i = _parse_int(tokens[0], ln, "row index")
        j = _parse_int(tokens[1], ln, "column index")
        v = _parse_float(tokens[2], ln, "entry value")
        if not 1 <= i <= n:
            raise ParseError(f"line {ln}: row index {i} outside [1, {n}]")
        if not 1 <= j <= m:
            raise ParseError(f"line {ln}: column index {j} outside [1, {m}]")
        if abs(v) > 1.0:
            raise ParseError(f"line {ln}: entry magnitude {v!r} exceeds 1")
        rows.append(i)
        cols.append(j)
        vals.append(v)
        where.append(ln)
    if declared is None:
        raise ParseError(f"line {len(lines)}: missing '%%disc R=<num> Delta=<num>' header")
    if len(where) != expected:
        raise ParseError(f"line {len(lines)}: expected {expected} entries, found {len(where)}")
    rows, cols = np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)
    order = np.lexsort((cols, rows))  # stable: a repeat sorts after its first occurrence
    repeat = (np.diff(rows[order]) == 0) & (np.diff(cols[order]) == 0)
    if repeat.any():
        k = int(order[1:][repeat].min())
        raise ParseError(f"line {where[k]}: duplicate entry ({rows[k]}, {cols[k]})")
    return _check_norms(InputMatrix(n, m, rows - 1, cols - 1,
                                    np.array(vals, dtype=np.float64), *declared))


def parse_matrix_text(text: str) -> InputMatrix:
    """Parse a Matrix Market coordinate-real file with a %%disc header.

    The header is read one line at a time.  The entry block is then read
    by one ``np.loadtxt`` call and checked as whole arrays.  A block that
    numpy might read differently from ``int()`` and ``float()``, or one
    that fails any check, is read again by a plain loop over its lines,
    which raises at the first offending line.  Blank and ``%`` lines may
    appear anywhere.
    """
    V = _parse_entry_block(text)
    return _parse_lines(text) if V is None else V


def format_matrix(V: InputMatrix) -> str:
    header = ("%%MatrixMarket matrix coordinate real general\n"
              f"%%disc R={_fmt(V.row_bound)} Delta={_fmt(V.col_bound)}\n"
              f"{V.n} {V.m} {V.nnz}\n")
    # one format call per block of triples bounds the Python objects alive at
    # once; "%.17g" formats as _fmt does
    blocks = [header]
    for k in range(0, V.nnz, _EMIT_BLOCK):
        rows, cols, vals = (a[k:k + _EMIT_BLOCK] for a in (V.rows, V.cols, V.vals))
        triples = zip((rows + 1).tolist(), (cols + 1).tolist(), vals.tolist())
        blocks.append(("%d %d %.17g\n" * vals.size) % tuple(chain.from_iterable(triples)))
    return "".join(blocks)


def parse_hypergraph_text(text: str) -> HypergraphInstance:
    """Parse an edge list: one 'e v1 v2 ...' line per edge, 1-based ids.

    Edge-size and degree bounds are computed from the data, so they are
    tight by construction.
    """
    sizes, flat = array("q"), array("q")
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] in "#%":
            continue
        tokens = line.split()
        if tokens[0] != "e":
            raise ParseError(f"line {ln}: expected an 'e v1 v2 ...' edge line")
        if len(tokens) < 2:
            raise ParseError(f"line {ln}: edge has no vertices")
        vs = []
        for t in tokens[1:]:
            v = _parse_int(t, ln, "vertex id")
            if v < 1:
                raise ParseError(f"line {ln}: vertex ids are 1-based, got {v}")
            vs.append(v)
        if len(set(vs)) != len(vs):
            raise ParseError(f"line {ln}: edge repeats a vertex")
        try:
            flat.extend(vs)
        except OverflowError:
            raise ParseError(f"line {ln}: vertex id {max(vs)} exceeds 2^63 - 1") from None
        sizes.append(len(vs))
    if not sizes:
        raise ParseError("line 1: no edges found")
    sizes, flat = np.frombuffer(sizes, dtype=np.int64), np.frombuffer(flat, dtype=np.int64)
    flat -= 1  # 0-based
    degree = np.bincount(flat)
    return HypergraphInstance._from_arrays(int(degree.size), sizes, flat, int(sizes.max()),
                                           int(degree.max()))


def format_hypergraph(H: HypergraphInstance) -> str:
    # as in format_matrix, one format call per block of edges; the format of
    # a block joins one "e %d ... %d" line per edge, one string per edge size
    sizes = np.diff(H.ptr)
    line = {k: "e" + " %d" * k + "\n" for k in np.unique(sizes).tolist()}
    step = max(1, _EMIT_BLOCK // int(sizes.max()))  # edges per block
    blocks = []
    for k in range(0, H.n_edges, step):
        a, b = H.ptr[k], H.ptr[min(k + step, H.n_edges)]
        fmt = "".join(map(line.__getitem__, sizes[k:k + step].tolist()))
        blocks.append(fmt % tuple((H.verts[a:b] + 1).tolist()))
    return "".join(blocks)


def _sniff(text: str) -> str:
    for raw, _ in _lines(text):
        line = raw.strip()
        if line.startswith("%%MatrixMarket"):
            return "matrix"
        if not line or line[0] in "#%":
            continue
        return "hypergraph" if line.startswith("e") else "matrix"
    raise ParseError("line 1: empty input")


def parse_instance(path):
    """Read an instance file, a matrix or an edge list as :func:`_sniff` tells them apart."""
    text = Path(path).read_text()
    if _sniff(text) == "matrix":
        return parse_matrix_text(text)
    return parse_hypergraph_text(text)


def write_instance(instance, path) -> None:
    if isinstance(instance, InputMatrix):
        Path(path).write_text(format_matrix(instance))
    elif isinstance(instance, HypergraphInstance):
        Path(path).write_text(format_hypergraph(instance))
    else:
        raise TypeError(f"cannot serialize {type(instance).__name__}")


def _format_value(value) -> str:
    """A bool as true/false, a float (numpy's too) as its repr, anything else by str."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _format_record(record: dict) -> str:
    """One ``key = value`` line per field of ``record``, in insertion order."""
    return "".join(f"{key} = {_format_value(value)}\n" for key, value in record.items())


def format_certificate(report, params) -> str:
    """Render a certificate report as machine-parseable key = value lines."""
    sums = report.column_weight_sums
    record = dict(kind="lll-certificate", passed=report.passed, events=report.n_events,
                  min_margin=report.min_margin, resample_budget=report.resample_budget,
                  column_weight_ok=report.column_weight_ok,
                  max_column_weight=float(sums.max()) if sums.size else 0.0,
                  beta=params.beta, delta=params.delta, alpha=params.alpha, eps=params.eps,
                  level_floor=params.level_floor, bound=params.bound)
    for k in sorted(report.level_slacks):
        record[f"level_slack_{k}"] = report.level_slacks[k]
    if report.failure:
        record["failure"] = report.failure
    return _format_record(record)
