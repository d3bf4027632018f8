"""Instance file formats and report rendering.

Matrices travel as Matrix Market coordinate-real files carrying a mandatory
``%%disc R=<num> Delta=<num>`` comment with the declared budgets; hypergraphs
as plain edge lists, one ``e v1 v2 ...`` line per edge with 1-based vertex
ids.  Emission is canonical (sorted coordinates, 17-significant-digit
floats) so that parse and emit round-trip bit-identically.
"""

from __future__ import annotations

import math
import re
from itertools import chain, compress
from operator import methodcaller
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


class ParseError(ValueError):
    """Malformed instance file; the message carries a line diagnostic."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


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
    return (_parse_float(m.group(1), ln, "declared R"),
            _parse_float(m.group(2), ln, "declared Delta"))


def _column(tokens: list, lineno: np.ndarray, what: str, dtype):
    """``tokens`` as an array, cut before the first bad one, and that one's (line, message).

    numpy converts as ``int()`` or ``float()`` would; only if that fails or
    gives a non-finite value is the column scanned token by token.  An
    index too large for int64 then stays a Python int for the range check.
    """
    try:
        values = np.array(tokens, dtype=dtype)
        if np.isfinite(values).all():
            return values, None
    except (ValueError, OverflowError):
        pass
    parse, values = (_parse_int if dtype is np.int64 else _parse_float), []
    for token, ln in zip(tokens, lineno):
        try:
            values.append(parse(token, ln, what))
        except ParseError as exc:
            return np.array(values), (ln, str(exc))
    return np.array(values), None


def parse_matrix_text(text: str) -> InputMatrix:
    """Parse a Matrix Market coordinate-real file with a %%disc header.

    Header lines are read one at a time.  The entry block after the size
    line is tokenised once, and its entries are converted and checked as
    whole arrays; an error names the first offending line, as a
    line-by-line reading would.  Blank and ``%`` lines may appear anywhere.
    """
    lines = text.splitlines()
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
    declared = size = None
    for ln, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if line.startswith("%"):
            declared = _declare(line, ln, declared)
        elif line:
            tokens = line.split()
            if len(tokens) != 3:
                raise ParseError(f"line {ln}: size line needs 'rows cols nnz'")
            size = tuple(_parse_int(t, ln, "size field") for t in tokens)
            break
    if size is None:
        raise ParseError(f"line {len(lines)}: missing size line")
    n, m, expected = size

    body = lines[ln:]
    line_of = np.arange(ln + 1, ln + 1 + len(body))
    tokens = list(map(str.split, body))
    count = np.fromiter(map(len, tokens), np.int64, len(tokens))
    comment = np.fromiter(map(methodcaller("startswith", "%"), map(str.lstrip, body)),
                          bool, len(body))
    errors = []  # (line, rank within the line, message); the least is raised
    for k in np.flatnonzero(comment):
        try:
            declared = _declare(body[k].strip(), line_of[k], declared)
        except ParseError as exc:
            errors.append((line_of[k], 0, str(exc)))
            break
    for k in np.flatnonzero((count > 0) & (count != 3) & ~comment)[:1]:
        errors.append((line_of[k], 0, f"line {line_of[k]}: entry needs 'row col value' "
                                      f"(3 tokens, got {count[k]})"))
    entry = (count == 3) & ~comment
    lineno = line_of[entry]
    flat = list(chain.from_iterable(compress(tokens, entry)))
    columns = []  # in the order the tokens of a line are checked
    for rank, (what, dtype) in enumerate((("row index", np.int64), ("column index", np.int64),
                                          ("entry value", np.float64))):
        values, error = _column(flat[rank::3], lineno, what, dtype)
        columns.append(values)
        if error:
            errors.append((error[0], rank, error[1]))
    rows, cols, vals = columns
    cut = min(map(len, columns))  # entries before `cut` parse in every column
    r, c, v = rows[:cut], cols[:cut], vals[:cut]
    bad = np.vstack([(r < 1) | (r > n), (c < 1) | (c > m), np.abs(v) > 1.0])
    hit = bad.any(axis=0)
    if hit.any():
        k = int(np.argmax(hit))
        ln = lineno[k]
        errors.append((ln, 3, [
            f"line {ln}: row index {int(r[k])} outside [1, {n}]",
            f"line {ln}: column index {int(c[k])} outside [1, {m}]",
            f"line {ln}: entry magnitude {float(v[k])!r} exceeds 1",
        ][int(np.argmax(bad[:, k]))]))
    if errors:
        raise ParseError(min(errors)[2])
    if declared is None:
        raise ParseError(f"line {len(lines)}: missing '%%disc R=<num> Delta=<num>' header")
    if lineno.size != expected:
        raise ParseError(f"line {len(lines)}: expected {expected} entries, found {lineno.size}")
    order = np.lexsort((cols, rows))  # stable: a repeat sorts after its first occurrence
    repeat = (np.diff(rows[order]) == 0) & (np.diff(cols[order]) == 0)
    if repeat.any():
        k = int(order[1:][repeat].min())
        raise ParseError(f"line {lineno[k]}: duplicate entry ({rows[k]}, {cols[k]})")
    V = InputMatrix(n, m, rows - 1, cols - 1, vals, *declared)
    for what, l1, name, bound in (("row", V.row_l1(), "R", declared[0]),
                                  ("column", V.col_l1(), "Delta", declared[1])):
        bad = np.flatnonzero(l1 > bound * (1.0 + REL_TOL))
        if bad.size:
            i = int(bad[0])
            raise ParseError(f"{what} {i + 1} L1 norm {float(l1[i])!r} exceeds the declared "
                             f"{name}={_fmt(bound)}")
    return V


def format_matrix(V: InputMatrix) -> str:
    lines = [
        "%%MatrixMarket matrix coordinate real general",
        f"%%disc R={_fmt(V.row_bound)} Delta={_fmt(V.col_bound)}",
        f"{V.n} {V.m} {V.nnz}",
    ]
    for i, j, v in zip(V.rows, V.cols, V.vals):
        lines.append(f"{int(i) + 1} {int(j) + 1} {_fmt(v)}")
    return "\n".join(lines) + "\n"


def parse_hypergraph_text(text: str) -> HypergraphInstance:
    """Parse an edge list: one 'e v1 v2 ...' line per edge, 1-based ids.

    Edge-size and degree bounds are computed from the data, so they are
    tight by construction.
    """
    edges = []
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
            vs.append(v - 1)
        if len(set(vs)) != len(vs):
            raise ParseError(f"line {ln}: edge repeats a vertex")
        edges.append(vs)
    if not edges:
        raise ParseError("line 1: no edges found")
    degree = np.bincount(np.fromiter(chain.from_iterable(edges), np.int64))
    return HypergraphInstance(int(degree.size), edges, max(map(len, edges)), int(degree.max()))


def format_hypergraph(H: HypergraphInstance) -> str:
    lines = ["e " + " ".join(str(v + 1) for v in edge) for edge in H.edges]
    return "\n".join(lines) + "\n"


def _sniff(text: str) -> str:
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("%%MatrixMarket"):
            return "matrix"
        if not line or line[0] in "#%":
            continue
        return "hypergraph" if line.split()[0] == "e" else "matrix"
    raise ParseError("line 1: empty input")


def parse_instance(path, fmt: str | None = None):
    """Read an instance file; ``fmt`` is 'matrix', 'hypergraph' or None to sniff."""
    text = Path(path).read_text()
    kind = fmt or _sniff(text)
    if kind == "matrix":
        return parse_matrix_text(text)
    if kind == "hypergraph":
        return parse_hypergraph_text(text)
    raise ParseError(f"unknown format {kind!r} (expected 'matrix' or 'hypergraph')")


def write_instance(instance, path) -> None:
    if isinstance(instance, InputMatrix):
        Path(path).write_text(format_matrix(instance))
    elif isinstance(instance, HypergraphInstance):
        Path(path).write_text(format_hypergraph(instance))
    else:
        raise TypeError(f"cannot serialize {type(instance).__name__}")


def format_certificate(report, params) -> str:
    """Render a certificate report as machine-parseable key = value lines."""
    max_col = float(report.column_weight_sums.max()) if report.column_weight_sums.size else 0.0
    lines = [
        "kind = lll-certificate",
        f"passed = {str(report.passed).lower()}",
        f"events = {report.n_events}",
        f"min_margin = {report.min_margin!r}",
        f"resample_budget = {report.resample_budget!r}",
        f"column_weight_ok = {str(report.column_weight_ok).lower()}",
        f"max_column_weight = {max_col!r}",
        f"beta = {params.beta!r}",
        f"delta = {params.delta!r}",
        f"alpha = {params.alpha!r}",
        f"eps = {params.eps!r}",
        f"level_floor = {params.level_floor}",
        f"bound = {params.bound!r}",
    ]
    for k in sorted(report.level_slacks):
        lines.append(f"level_slack_{k} = {report.level_slacks[k]!r}")
    if report.failure:
        lines.append(f"failure = {report.failure}")
    return "\n".join(lines) + "\n"
