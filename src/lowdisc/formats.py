"""Instance file formats and report rendering.

Matrices travel as Matrix Market coordinate-real files carrying a mandatory
``%%disc R=<num> Delta=<num>`` comment with the declared budgets; hypergraphs
as plain edge lists, one ``e v1 v2 ...`` line per edge with 1-based vertex
ids.  Emission is canonical (sorted coordinates, 17-significant-digit
floats) so that parse and emit round-trip bit-identically.

A matrix's entry lines are exactly ``"%d %d %.17g\\n"`` of each 1-based
triple, built in numpy arrays one block at a time.  The ids go through a
table of four-digit ASCII words.  A value v = M·2^q whose rounded exponent X
lies in [-4, 0] (|v| from 1e-4 to below 10, which ``%g`` prints in fixed
notation; every entry of a valid matrix from 1e-4 up) gets its 17
significant digits D = round-half-even(M·5^s / 2^(-q-s)), s = 16 - X, in
exact uint64 arithmetic (Steele & White 1990; Adams, "Ryū", 2018).  Every
other value (below 1e-4, subnormal, or 10 and above in an unvalidated
matrix) is formatted by Python's ``%`` operator, in one call per block.

They are read back in numpy arrays one window of lines at a time, too.  An id
of up to eight digits is one 8-byte word of ASCII digits, decoded by three
multiply-shift steps.  A value ``[-]d.ddd`` whose exponent X lies in
[-4, 0] gives the integer N of its 17 significant digits, and the double
N / 10^(16 - X) is kept once the same exact arithmetic finds N as its own 17
digits at X, after at most two ``np.nextafter`` steps (a candidate and an
exact check: Clinger 1990; Lemire, "Number parsing at a gigabyte per
second", 2021).  Half a unit of the 17th significant digit is less than half
the gap between doubles, so no other double is that close to the token: the
kept double is ``float(token)``.  Every other token goes to ``int()`` or
``float()``, as in the line-by-line reader.

Files are bytes in and out.  :func:`write_instance` writes the header and
each block of lines to the open file as it is built, so its ``tracemalloc``
peak is 0.06x the file at 10^6 entries.  Edge lists are emitted by the same
id words, one row per vertex id.  :func:`parse_instance` reads the file once
and the header lines in one pass; the entry lines are read from windows of
those bytes, and the arrays read become the instance's without a copy, with
the verdict of its norm check: its peak is 2.3x the file at 10^6 entries.
Only for the line-by-line reader or the edge-list reader is the whole text
decoded, as UTF-8, and sniffed for its format.
:func:`format_matrix`, :func:`format_hypergraph` and :func:`parse_matrix_text`
are thin ``str`` wrappers over the same code, for callers that hold text.
"""

from __future__ import annotations

import math
import re
from array import array
from pathlib import Path

import numpy as np

from .model import InputMatrix
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
# entries per block in format_matrix, vertex ids in format_hypergraph: an array of one
# int64 an entry takes 64 KiB, small enough that malloc serves it again from freed memory,
# without new page faults
_EMIT_BLOCK = 1 << 13
# bytes per window in _parse_entry_block, about 9,000 lines of the emitter's, cut
# back to the window's last line break
_PARSE_WINDOW = 1 << 18
# format_matrix builds each entry line from 4-byte words: "0000".."9999" with
# leading (ids) or trailing (values) zeros as 0 bytes, the value heads of
# _format_entries, and the uint64 constants of the digit arithmetic
_WORD = np.dtype("=u4")
_SPACE, _NEWLINE, _EDGE = np.frombuffer(b" \0\0\0\n\0\0\0e \0\0", dtype=_WORD)


def _word_tables():
    """(id words, digit words, value heads); see _format_entries."""
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    full = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)  # "0000".."9999"
    for j in range(4):
        full[..., j] = digits.reshape((10,) + (1,) * (3 - j))
    full = full.reshape(10000, 4)
    # a digit shows from the first nonzero one on (ids), or up to the last (values)
    lead, trail = full != ord("0"), full != ord("0")
    for j in range(1, 4):
        lead[:, j] |= lead[:, j - 1]
        trail[:, 3 - j] |= trail[:, 4 - j]
    x, neg, d0, more = np.ix_(range(-4, 1), range(2), range(10), range(2))
    heads = [np.where(neg, ord("-"), 0), np.where(x < 0, ord("0"), 0), np.where(x < 0, ord("."), 0),
             *(np.where(x <= -z, ord("0"), 0) for z in (2, 3, 4)), ord("0") + d0,
             np.where((x == 0) & (more == 1), ord("."), 0)]
    heads = np.stack(np.broadcast_arrays(*heads), axis=-1).astype(np.uint8)
    return (np.concatenate([full, full * lead]).view(_WORD).ravel(),
            np.concatenate([full, full * trail]).view(_WORD).ravel(),
            heads.reshape(-1, 8).view(_WORD))


_ID_WORDS, _DIGIT_WORDS, _VALUE_HEADS = _word_tables()
_POW5_HI, _POW5_LO = (np.array([(5**s >> shift) & 0xFFFFFFFF for s in range(23)], dtype=np.uint64)
                      for shift in (32, 0))
_U1, _U32, _U52, _U64, _LOW32, _EXP_MASK, _FRACTION, _HIDDEN, _HALF, _E16, _E17 = (
    np.uint64(c) for c in (1, 32, 52, 64, 0xFFFFFFFF, 0x7FF, (1 << 52) - 1, 1 << 52,
                           0x3FE0000000000000, 10**16, 10**17))
# _parse_entry_block reads tokens as little-endian 8-byte words of ASCII digits, the
# first byte the lowest; entry n of a table is for the first n bytes of a word
_LOW_BYTES = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)
(_U8, _U16, _E8, _ASCII_ZEROS, _HIGH_NIBBLES, _LOW_NIBBLES, _PAIRS, _PAIR_MASK, _FOURS,
 _FOUR_MASK, _EIGHTS) = (np.uint64(c) for c in (
    8, 16, 10**8, 0x3030303030303030, 0xF0F0F0F0F0F0F0F0, 0x0F0F0F0F0F0F0F0F, 10 << 8 | 1,
    0x00FF00FF00FF00FF, 100 << 16 | 1, 0x0000FFFF0000FFFF, 10000 << 32 | 1))
_JOINS = ((_PAIRS, _U8, _PAIR_MASK), (_FOURS, _U16, _FOUR_MASK), (_EIGHTS, _U32, _LOW32))
_TRAIL_FILL = _ASCII_ZEROS & ~_LOW_BYTES  # "0"s after the first n bytes
_ID_SHIFT = np.array([0] + [8 * (8 - n) for n in range(1, 9)], dtype=np.uint64)  # to the top
_ID_FILL = _ASCII_ZEROS & _LOW_BYTES[::-1]  # "0"s before the last n bytes
_LEAD_LIMITS = np.array([10**p for p in (4, 5, 6, 7)], dtype=np.uint64)
_POW10 = np.array([10**t for t in range(9)], dtype=np.uint64)
_DIVISORS = np.array([float(10**(16 + t)) for t in range(6)])  # exact
_NL, _BLANK, _MINUS, _DOT, _ZERO = (np.uint8(ord(c)) for c in "\n -.0")
_PADDING = b"\n" * 32  # around a block of entry lines


class ParseError(ValueError):
    """Malformed instance file; the message carries a line diagnostic."""


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _lines(text: str):
    """Each line of ``text.splitlines()``, lazily."""
    start = 0
    for brk in _LINE_BREAK.finditer(text):
        yield text[start:brk.start()]
        start = brk.end()
    if start < len(text):
        yield text[start:]


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
            # so every id checked against n and m fits int64
            for value in (n, m, nnz):
                if value > 2**63 - 1:
                    raise ParseError(f"line {ln}: size field {value} exceeds 2^63 - 1")
            if n < 1 or m < 1:
                raise ParseError(f"line {ln}: matrix shape must be at least 1x1, got {n}x{m}")
            return declared, (n, m, nnz), ln
    raise ParseError(f"line {len(lines)}: missing size line")


def _check_norms(V: InputMatrix) -> InputMatrix:
    """``V``, once its L1 norms fit the declared budgets.

    Both readers reject an entry of magnitude above 1 before this, so only
    a row or a column can breach here.  ``V`` keeps the verdict.
    """
    for kind, i, l1, _ in V._violations:
        name, bound = ("R", V.row_bound) if kind == "row" else ("Delta", V.col_bound)
        raise ParseError(f"{kind} {i + 1} L1 norm {l1!r} exceeds the declared "
                         f"{name}={_fmt(bound)}")
    return V


def _parse_entry_block(data: bytes) -> InputMatrix | None:
    """The instance in the bytes ``data``, the entry lines read a window at a time; None
    when unsure.

    The header is decoded a ``\n``-ended piece at a time, up to the size
    line: no character of two bytes or more holds that byte.  A piece that
    is not UTF-8, or that holds another line break than the ``\n`` or
    ``\r\n`` ending it, returns None.  A window of the entry lines is about
    ``_PARSE_WINDOW`` bytes, cut back to its last ``\n``; one that holds
    none runs on to the end of its line.  Each window's lines are read by
    :func:`_read_block`: every number equals what ``int()`` or ``float()``
    returns for its token.  A header the line reader rejects, or a window
    :func:`_read_block` refuses (``%`` lines, other line breaks than ``\n``
    and ``\r\n``, a line of other than three tokens, a token those calls
    refuse, any byte not ASCII), a wrong entry count, an entry of magnitude
    above 1, or one that :class:`InputMatrix` rejects (out of range, a
    repeated cell) returns None, and the caller decodes the whole text and
    reads it line by line: so a byte that is not UTF-8 is raised before any
    error of the header.  The arrays read become the instance's, without a
    copy (:meth:`InputMatrix._adopt`).  The L1 norms are checked as the line
    reader checks them (:func:`_check_norms`), so their errors are raised
    here as they are.
    """
    head, pos = [], 0  # the lines up to the size line, without decoding the body
    while pos < len(data):
        end = data.find(b"\n", pos) + 1 or len(data)
        try:  # one line of UTF-8, or the line reader reads the file
            line, = data[pos:end].decode().splitlines()
        except ValueError:  # a UnicodeDecodeError too
            return None
        head.append(line)
        pos = end
        line = line.strip()
        if line and not line.startswith("%"):  # the banner is a "%" line too
            break
    try:  # a header without a size line is rejected here too
        declared, (n, m, expected), _ = _read_header(head)
    except ParseError:  # raised by the line reader, once the whole text is decoded
        return None
    # an entry line takes 6 bytes or more, "1 1 1\n"
    if declared is None or not 0 <= expected <= (len(data) - pos + 1) // 6:
        return None
    rows, cols, vals = (np.empty(expected, dtype) for dtype in (np.int64, np.int64, np.float64))
    done, view = 0, memoryview(data)
    while pos < len(data):
        # the window ends at its last \n, or at the first \n after it when it holds none,
        # or with the data; a \r\n pair is never cut, since it ends at its \n
        end = pos + _PARSE_WINDOW
        if end < len(data):
            cut = data.rfind(b"\n", pos, end)
            if cut < 0:
                cut = data.find(b"\n", end)
            end = len(data) if cut < 0 else cut + 1
        window = view[pos:end]
        if data.find(b"\r", pos, end) >= 0:  # a lone \r is left, and fails the check in _read_block
            window = data[pos:end].replace(b"\r\n", b"\n")
        block = _read_block(b"".join((_PADDING, window, _PADDING)))
        if block is None or done + block[0].size > expected:
            return None
        for dest, got in zip((rows, cols, vals), block):
            dest[done:done + got.size] = got
        done += block[0].size
        pos = end
    if done != expected or not (np.abs(vals) <= 1.0).all():  # false for nan too
        return None
    rows -= 1
    cols -= 1
    try:
        V = InputMatrix._adopt(n, m, rows, cols, vals, *declared)
    except ValueError:
        return None
    return _check_norms(V)


def _read_block(chunk: bytes):
    """(row ids, column ids, values) of the entry lines in ``chunk``; None unless it holds
    only bytes of ``_ENTRY_BYTES`` and each line three tokens or none.

    ``chunk`` starts and ends with ``_PADDING``, so that every 8-byte word read
    from a token stays inside.  The numbers are read from the bytes by
    :func:`_read_ids` and :func:`_read_values`, and each token they do not
    take by ``int()`` or ``float()``; a token those refuse, or an id past
    int64, returns None too.
    """
    if chunk.translate(None, _ENTRY_BYTES):
        return None
    buf = np.frombuffer(chunk, dtype=np.uint8)
    tokens = _entry_tokens(buf)
    if tokens is None:
        return None
    fields = [None] * 3
    # the values first, while no other field's arrays are alive
    for j, read, convert in ((2, _read_values, float), (0, _read_ids, int), (1, _read_ids, int)):
        starts, ends = tokens[2 * j], tokens[2 * j + 1]
        got, ok = read(buf, starts, ends)
        slow = np.flatnonzero(~ok)  # the tokens the arithmetic does not take, one at a time
        if slow.size:
            bounds = zip(starts[slow].tolist(), ends[slow].tolist())
            try:
                got[slow] = [convert(chunk[a:b]) for a, b in bounds]
            except (ValueError, OverflowError):  # a token they refuse, or an id past int64
                return None
        fields[j] = got
    return fields


def _entry_tokens(buf):
    """Six rows of bounds in ``buf``: the start and end of each entry's row, column and
    value token; None unless each line holds the three tokens of one entry, or none.

    ``buf`` starts and ends with line breaks.  Each token starts and ends at
    an edge of a run of whitespace.  Where the two gaps within each entry are
    one space or tab and a line break comes just before each entry, the
    lines are right; otherwise the line breaks before each entry's first
    token and its last token's end must be equal in number, and grow from
    entry to entry.
    """
    ws = buf <= _BLANK  # tabs, line breaks and spaces, of the bytes a block may hold
    edges = np.flatnonzero(ws[1:] != ws[:-1])
    del ws
    if edges.size % 6:
        return None
    edges += 1
    tokens = edges.reshape(-1, 6).T
    rs, re, cs, ce, vs, ve = tokens
    if ((cs - re == 1) & (vs - ce == 1) & (buf[re] != _NL) & (buf[ce] != _NL)
            & (buf[rs - 1] == _NL)).all():
        return tokens
    line_ends = np.flatnonzero(buf == _NL) + 1
    before = np.searchsorted(line_ends, rs, "right")
    if (before == np.searchsorted(line_ends, ve, "right")).all() and (np.diff(before) > 0).all():
        return tokens
    return None


def _words(buf):
    """The little-endian 8-byte word at each offset of ``buf``, as an unaligned view."""
    return np.ndarray(buf.size - 7, dtype="<u8", buffer=buf, strides=(1,))


def _digit_words(w):
    """(value, ok): each word of ``w``, overwritten, read as eight ASCII digits, the first
    byte the leading one.

    Of the bytes an entry block may hold, the digits are the ones whose high
    nibble is 3; ``ok`` is false where a byte is not a digit, and the value
    then means nothing.  Three multiply-shift steps join the digits in
    pairs, fours and eights (Lemire, "Number parsing at a gigabyte per
    second", 2021).
    """
    ok = (w & _HIGH_NIBBLES) == _ASCII_ZEROS
    w &= _LOW_NIBBLES
    for factor, shift, mask in _JOINS:
        w *= factor
        w >>= shift
        w &= mask
    return w, ok


def _read_ids(buf, starts, ends):
    """(id, ok) of each token: its value where it is one to eight digits, else ok is false."""
    size = ends - starts
    ok = size <= 8
    np.minimum(size, 8, out=size)
    w = _words(buf)[starts]
    w <<= _ID_SHIFT[size]
    w |= _ID_FILL[size]
    ids, digits = _digit_words(w)
    ok &= digits
    return ids.view(np.int64), ok


def _read_values(buf, starts, ends):
    """(value, ok) of each token: where ok, the value is ``float(token)``.

    A token ``[-]d`` or ``[-]d.ddd`` whose exponent X lies in [-4, 0] and
    that has at most 17 significant digits is read as the integer N of its
    17 significant digits, trailing zeros added: its lead digit, and its
    fraction digits in three words.  Its value is the double nearest
    N·10^(X - 16) (:func:`_nearest`).  Every other token is not ok.  The
    arrays are dropped once read, which bounds the memory of a block.
    """
    neg = buf[starts] == _MINUS
    lead = starts + neg
    d = buf[lead] - _ZERO
    size = ends - lead
    size -= 2  # fraction digits; -1 for a lone digit
    ok = (size == -1) | (buf[lead + 1] == _DOT) & (size >= 1)
    ok &= (d < 10) & (size <= np.where(d > 0, 16, 20))  # at most 17 digits from 1e-4 on
    if not ok.any():
        return np.empty(ok.size), ok
    words, c = _words(buf), []
    for j in range(3):  # fraction digits 1-8, 9-16 and 17-24
        n = np.clip(size - 8 * j, 0, 8)  # of them in the word
        w = words[lead + (2 + 8 * j)]
        w &= _LOW_BYTES[n]
        w |= _TRAIL_FILL[n]  # trailing zeros for the rest
        w, digits = _digit_words(w)
        ok &= digits
        c.append(w)
    del lead
    c1, c2, c3 = c
    # X = -t: t is 0 for a lead digit from 1 to 9, else one more than the zeros after the point
    t = np.where(d > 0, 0, len(_LEAD_LIMITS) + 1 - np.searchsorted(_LEAD_LIMITS, c1, "right"))
    ok &= t <= 4
    ok &= size <= t + 16  # at most 17 significant digits
    del size
    # N = (d·10^16 + c1·10^8 + c2)·10^t + the first t of the digits in c3
    N = d.astype(np.uint64)
    N *= _E16
    c1 *= _E8
    N += c1
    N += c2
    N *= _POW10[t]
    c3 //= _POW10[8 - t]
    N += c3
    del c, c1, c2, c3, d
    X, bad = np.negative(t, out=t), ~ok
    N[bad], X[bad] = _E16, 0  # read as 1, then as NaN
    v = _nearest(N, X) if ok.any() else np.empty(ok.size)
    v[bad] = np.nan
    return np.negative(v, out=v, where=neg), ~np.isnan(v)


def _nearest(N, X):
    """The double nearest N·10^(X - 16) for each N of 17 digits, or NaN where it is not found.

    The candidate N / 10^(16 - X), in float64, is moved by up to two
    ``np.nextafter`` steps until its own 17 digits at X, rounded half to
    even, equal N (:func:`_digits_at`).  Half a unit of the 17th digit is
    less than half the spacing of doubles there, so at most one double lies
    that close to N·10^(X - 16): the nearest.
    """
    v = N.astype(np.float64)
    v /= _DIVISORS[-X]
    D = _digits_at(v, X)
    miss = np.flatnonzero(D != N)
    for _ in range(2):  # a step toward N
        if not miss.size:
            break
        v[miss] = np.nextafter(v[miss], np.where(D[miss] < N[miss], np.inf, 0.0))
        D[miss] = _digits_at(v[miss], X[miss])
        miss = miss[D[miss] != N[miss]]
    v[miss] = np.nan
    return v


def _digits_at(v, X):
    """round-half-even(v·10^(16 - X)) of each double v > 0, for v and X as
    :func:`_scaled_floor` takes them."""
    bits = v.view(np.uint64)
    e = (bits >> _U52).astype(np.int64)  # v > 0: no sign bit
    floor, up = _scaled_floor((bits & _FRACTION) | _HIDDEN, e, X)
    floor += up
    return floor


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
    # checked above, and in strict (row, col) order: the instance takes these arrays as they are
    return _check_norms(InputMatrix._from_arrays(n, m, rows[order] - 1, cols[order] - 1,
                                                 np.array(vals)[order], *declared))


def parse_matrix_text(text: str) -> InputMatrix:
    """Parse a Matrix Market coordinate-real file with a %%disc header.

    The header is read one line at a time.  The entry lines are then read
    by array arithmetic, a block at a time, and checked as whole arrays;
    every id and value equals what ``int()`` or ``float()`` gives for its
    token, since each value taken is proven to be the double nearest its
    token (see the module docstring) and any other token is read by those
    calls.  A text with other lines, or one that fails any check, is read
    again by a plain loop over its lines, which raises at the first
    offending line.  Blank and ``%`` lines may appear anywhere.

    The text is encoded once and read as :func:`parse_instance` reads the
    bytes of a file.
    """
    # a lone surrogate, which has no UTF-8 form, becomes "?": a byte no entry line holds
    # and no header takes either, so such a text is read by the line reader, as before
    V = _parse_entry_block(text.encode(errors="replace"))
    return _parse_lines(text) if V is None else V


def _scaled_floor(M, e, X):
    """floor(v·10^(16 - X)) of v = M·2^(e - 1075), and whether it rounds up, half to even.

    The product M·5^s (s = 16 - X) has at most 104 bits; it is built exactly
    from 32-bit halves as a high and a low uint64 word, then shifted right by
    k = 1075 - e - s.  Every operand is uint64 (numpy would take uint64 with
    int64 to float64); the callers keep s in [14, 22] and k in (0, 64).
    """
    s = 16 - X
    ph, pl = _POW5_HI[s], _POW5_LO[s]
    s += e
    k = np.subtract(1075, s, out=s).view(np.uint64)
    hi, lo = M >> _U32, M & _LOW32  # the halves of M, then the words of the product
    mid = hi * pl
    mid += lo * ph  # below 2^54
    lo *= pl
    hi *= ph
    hi += mid >> _U32
    mid <<= _U32
    lo += mid  # mod 2^64: the carry is lo < mid
    hi += lo < mid
    floor = hi << (_U64 - k)
    floor |= lo >> k
    half = _U1 << (k - _U1)
    lo &= (half << _U1) - _U1  # the rest
    up = lo > half
    up |= (lo == half) & (floor & _U1).astype(bool)
    return floor, up


def _fixed_digits(vals):
    """(fast, D, X): where ``fast``, ``"%.17g"`` prints the value in fixed notation.

    X in [-4, 0] is the exponent of the rounded value and D its 17
    significant digits, an integer in [10^16, 10^17); elsewhere both are
    placeholders.  X comes from ``np.log10`` and is moved until
    floor(|v|·10^(16 - X)) has 17 digits, and D is that floor rounded.  The
    rounding never carries to 10^17: the double next below 10^(X+1) lies
    more than 11 units of the 17th digit below it.  D is None when no value
    is near the fast range.
    """
    X = np.floor(np.log10(np.abs(vals)))  # the values are nonzero
    near = (X >= -5) & (X <= 1)  # within one step of [-4, 0], so normal
    if not near.any():
        return near, None, None
    bits = vals.view(np.uint64)
    if not near.all():  # the others are computed as 0.5 and overwritten by the caller
        bits, X = np.where(near, bits, _HALF), np.where(near, X, -1)
    e = ((bits >> _U52) & _EXP_MASK).astype(np.int64)
    M, X = (bits & _FRACTION) | _HIDDEN, X.astype(np.int64)
    floor, up = _scaled_floor(M, e, X)
    while True:  # np.log10 is off by at most one, and only next to a power of ten
        low, high = floor < _E16, floor >= _E17
        fix = np.flatnonzero(low | high)
        if not fix.size:
            break
        X[fix] += high[fix].astype(np.int64) - low[fix]
        floor[fix], up[fix] = _scaled_floor(M[fix], e[fix], X[fix])
    fast = near & (X >= -4) & (X <= 0)
    X[~fast] = -1
    return fast, (floor + up).astype(np.int64), X


def _split(x, c):
    """(x // c, x % c) of an int64 array ``x``, in about half the time of numpy's divmod: a
    scalar ``//`` takes numpy's fast path for a constant divisor."""
    q = x // c
    return q, x - q * c


def _put_ids(canvas, col, ids, n_words):
    """Write the decimal ``ids`` into ``n_words`` words from ``col``, leading zeros as 0."""
    limbs = []  # four digits each, the least significant first
    for _ in range(n_words - 1):
        ids, low = _split(ids, 10000)
        limbs.append(low)
    lead = True  # no nonzero limb yet, from the most significant
    for c, limb in enumerate(reversed(limbs + [ids]), start=col):
        canvas[:, c] = _ID_WORDS[limb + lead * 10000]
        lead = lead & (limb == 0)


def _format_entries(rows, cols, vals) -> bytes:
    """``"%d %d %.17g\\n"`` of each (row + 1, col + 1, value), as ASCII bytes.

    Each entry is one row of a canvas of 4-byte words, and every byte left
    0 is dropped at the end: the row id, a space, the column id, a space,
    six value words and a newline.  An id is one word per four digits.  A
    value that prints in fixed notation with exponent X in [-4, 0] is two
    words of sign, "0.", zeros, the first digit and "." (one lookup by X,
    sign, first digit and whether more digits follow), then four words of
    the other 16 digits, trailing zeros dropped.  Any other value is
    formatted by ``"%-24.17g"``, which pads ``"%.17g"`` with spaces to
    exactly the 24 bytes of those six words, and its spaces are dropped.
    """
    n_words = [(len(str(int(ids.max()) + 1)) + 3) // 4 for ids in (rows, cols)]
    v = n_words[0] + n_words[1] + 2  # the first value word
    canvas = np.empty((vals.size, v + 7), dtype=_WORD)
    _put_ids(canvas, 0, rows + 1, n_words[0])
    _put_ids(canvas, n_words[0] + 1, cols + 1, n_words[1])
    canvas[:, [n_words[0], v - 1]] = _SPACE
    canvas[:, -1] = _NEWLINE
    fast, D, X = _fixed_digits(vals)
    if D is not None:
        head, tail = _split(D, 10**8)
        d0, head = _split(head, 10**8)
        limbs = (*_split(head, 10000), *_split(tail, 10000))
        zero = np.ones(D.size, dtype=bool)  # every digit after the limb is 0
        for c in (3, 2, 1, 0):
            canvas[:, v + 2 + c] = _DIGIT_WORDS[limbs[c] + zero * 10000]
            zero &= limbs[c] == 0
        key = (((X + 4) * 2 + (vals < 0)) * 10 + d0) * 2 + ~zero
        canvas[:, v:v + 2] = _VALUE_HEADS[key]
    others = np.flatnonzero(~fast)
    if others.size:
        text = ("%-24.17g" * others.size) % tuple(vals[others].tolist())
        canvas[others, v:v + 6] = np.frombuffer(text.encode("ascii").replace(b" ", b"\0"),
                                                dtype=_WORD).reshape(-1, 6)
    return canvas.tobytes().translate(None, b"\0")


def _matrix_blocks(V: InputMatrix):
    """The Matrix Market file of ``V`` as blocks of bytes: its header, then its entry lines."""
    yield ("%%MatrixMarket matrix coordinate real general\n"
           f"%%disc R={_fmt(V.row_bound)} Delta={_fmt(V.col_bound)}\n"
           f"{V.n} {V.m} {V.nnz}\n").encode()
    # one block of entries at a time, which bounds the memory alive at once: a
    # value with exponent X in [-4, 0] gets its digits by integer arithmetic, any
    # other by one "%-24.17g" call per block (_format_entries); the bytes equal
    # "%d %d %.17g\n" of each entry
    for k in range(0, V.nnz, _EMIT_BLOCK):
        yield _format_entries(*(a[k:k + _EMIT_BLOCK] for a in (V.rows, V.cols, V.vals)))


def format_matrix(V: InputMatrix) -> str:
    """The Matrix Market text of ``V``: the bytes :func:`write_instance` writes, as a string."""
    return b"".join(_matrix_blocks(V)).decode()


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


def _edge_blocks(H: HypergraphInstance):
    """The edge list of ``H`` as blocks of bytes, ``_EMIT_BLOCK`` vertex ids at a time.

    Each id is one row of a canvas of 4-byte words, and every byte left 0 is
    dropped at the end, as in :func:`_format_entries`: ``"e "`` before the
    first id of an edge and a space before any other, the 1-based id in the
    words of :func:`_put_ids`, and a newline after the last id of an edge.
    The bytes are ``"e" + " %d" * k + "\\n"`` of each edge of k ids, and the
    cost is one row per id whatever the sizes of the edges.
    """
    ptr, verts = H.ptr, H.verts
    n_words = (len(str(int(verts.max()) + 1)) + 3) // 4
    for a in range(0, verts.size, _EMIT_BLOCK):
        ids = verts[a:a + _EMIT_BLOCK] + 1
        b = a + ids.size
        canvas = np.empty((ids.size, n_words + 2), dtype=_WORD)
        canvas[:, 0] = _SPACE
        canvas[ptr[slice(*np.searchsorted(ptr, (a, b)))] - a, 0] = _EDGE  # edges starting here
        _put_ids(canvas, 1, ids, n_words)
        canvas[:, -1] = 0
        ends = ptr[slice(*np.searchsorted(ptr, (a + 1, b + 1)))]  # edges ending in (a, b]
        canvas[ends - (a + 1), -1] = _NEWLINE
        yield canvas.tobytes().translate(None, b"\0")


def format_hypergraph(H: HypergraphInstance) -> str:
    """The edge list of ``H``: the bytes :func:`write_instance` writes, as a string."""
    return b"".join(_edge_blocks(H)).decode()


def _sniff(text: str) -> str:
    for raw in _lines(text):
        line = raw.strip()
        if line.startswith("%%MatrixMarket"):
            return "matrix"
        if not line or line[0] in "#%":
            continue
        return "hypergraph" if line.startswith("e") else "matrix"
    raise ParseError("line 1: empty input")


def parse_instance(path):
    """Read an instance file, a matrix or an edge list.

    The file is read once, as bytes, and a matrix's header once: a matrix is
    read from the bytes (:func:`_parse_entry_block`), and keeps the verdict
    of its norm check.  Only where that reader declines is the text decoded,
    as UTF-8, and :func:`_sniff` sends it to the line reader or the edge-list
    reader; they take ``\r\n`` and a lone ``\r`` as line breaks, as reading
    the file as text does.
    """
    data = Path(path).read_bytes()
    V = _parse_entry_block(data)
    if V is not None:
        return V
    text = data.decode()
    del data
    return _parse_lines(text) if _sniff(text) == "matrix" else parse_hypergraph_text(text)


def write_instance(instance, path) -> None:
    """Write a matrix or an edge list to ``path``, a block of bytes at a time, with ``\n``
    line breaks on every platform."""
    if isinstance(instance, InputMatrix):
        blocks = _matrix_blocks(instance)
    elif isinstance(instance, HypergraphInstance):
        blocks = _edge_blocks(instance)
    else:
        raise TypeError(f"cannot serialize {type(instance).__name__}")
    with open(path, "wb") as f:
        f.writelines(blocks)


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
    record = dict(kind="lll-certificate", passed=report.passed, decided_by=report.decided_by,
                  events=report.n_events, min_margin=report.min_margin,
                  resample_budget=report.resample_budget,
                  column_weight_ok=report.column_weight_ok,
                  max_column_weight=float(sums.max()) if sums.size else 0.0,
                  beta=params.beta, delta=params.delta, alpha=params.alpha, eps=params.eps,
                  level_floor=params.level_floor, bound=params.bound)
    for k in sorted(report.level_slacks):
        record[f"level_slack_{k}"] = report.level_slacks[k]
    if report.failure:
        record["failure"] = report.failure
    return _format_record(record)
