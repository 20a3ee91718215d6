"""Group input/output: Cayley-table files, permutation-generator files,
family-spec strings, and the three-file semidirect product loader.

Formats:
  cayley file:  line 1 "cayley n [p]", then n lines of n 0-based indices.
  perm file:    line 1 "perm k", then one generator per line in cycle
                notation on the points 1..k, e.g. "(1 2 3)(4 5)".
  action file:  line 1 "action", then |H| lines of |N| 0-based kernel images
                (row h is the automorphism by which the h-th element of the
                acting group moves the kernel).
"""

from __future__ import annotations

import os
import warnings
from collections.abc import Iterator

import numpy as np

from .errors import UnsupportedInputError
from .families import DEFAULT_MAX_ORDER, parse_family, permutation_group
from .fplin import check_prime
from .groups import FiniteGroup, block_rows, semidirect_product, table_dtype


def _fail(line_no: int, col: int, msg: str):
    raise UnsupportedInputError(f"line {line_no}, column {col}: {msg}")


def _file_lines(path: str) -> Iterator[str]:
    """The lines of a UTF-8 file as str.splitlines() of its whole text gives
    them, decoded one newline-terminated line at a time: neither a multibyte
    sequence nor a CR LF pair spans a newline byte. Errors are unsupported
    input."""
    try:
        with open(path, "rb") as fh:
            start = 0
            for raw in fh:
                try:
                    text = raw.decode("utf-8")
                except UnicodeDecodeError as ex:
                    raise UnsupportedInputError(
                        f"{path} is not UTF-8 text: byte offset {start + ex.start}: "
                        f"{ex.reason}") from ex
                yield from text.splitlines()
                start += len(raw)
    except OSError as ex:
        raise UnsupportedInputError(f"cannot read {path}: {ex}") from ex


def _reindex_identity_first(table: np.ndarray) -> np.ndarray:
    """Relabel the table in place, so that its first two-sided identity e
    is 0, and return it: the argument is mutated. Only rows r with
    table[r, 0] == 0 can be e, each checked in O(n). Rows 0..e-1 move down
    one, in blocks from the bottom, the saved row e becomes row 0, and each
    block of rows then gets the same column move and its values relabeled,
    within BLOCK_BYTES together with the intp copy np.take makes of it."""
    n = table.shape[0]
    ar = np.arange(n)
    for e in np.flatnonzero(table[:, 0] == 0):
        if np.array_equal(table[e], ar) and np.array_equal(table[:, e], ar):
            break
    else:
        raise UnsupportedInputError("table has no two-sided identity")
    if e == 0:
        return table
    step = block_rows(n * (table.itemsize + 8))
    row_e = table[e].copy()
    for hi in range(e, 0, -step):
        lo = max(0, hi - step)
        table[lo + 1:hi + 1] = table[lo:hi]
    table[0] = row_e
    order = np.concatenate([[e], np.delete(ar, e)])
    pos = np.argsort(order).astype(table.dtype)
    for lo in range(0, n, step):
        blk = table[lo:lo + step]
        # entries are in range; mode="raise" would buffer out
        np.take(pos, blk[:, order], out=blk, mode="clip")
    return table


def parse_group_text(text: str, max_order: int = DEFAULT_MAX_ORDER,
                     name: str = "input") -> tuple[FiniteGroup, int | None]:
    """Parse cayley/perm format text. Returns (group, optional prime hint)."""
    return _parse_lines(iter(text.splitlines()), max_order, name)


def load_group_file(path: str, max_order: int = DEFAULT_MAX_ORDER
                    ) -> tuple[FiniteGroup, int | None]:
    """parse_group_text of a UTF-8 file, read one line at a time."""
    return _parse_lines(_file_lines(path), max_order, os.path.basename(path))


def _parse_lines(lines: Iterator[str], max_order: int, name: str
                 ) -> tuple[FiniteGroup, int | None]:
    """Parse the lines as they arrive. After a parse error the rest are
    still read, and dropped, so that a file's decode error wins over it."""
    try:
        first = next(lines, None)
        if first is None:
            _fail(1, 1, "empty input")
        head = first.split()
        if not head:
            _fail(1, 1, "missing header")
        kind = head[0].lower()
        if kind == "cayley":
            return _parse_cayley(lines, head, max_order, name)
        if kind != "perm":
            _fail(1, 1, f"unknown format {head[0]!r} (expected 'cayley' or 'perm')")
        return _parse_perm(lines, head, max_order, name), None
    except UnsupportedInputError:
        for _ in lines:
            pass
        raise


def _parse_cayley(lines, head, max_order, name):
    """Rows are stored into the preallocated table as they arrive. Past a
    bad row lines are only counted: a wrong row count is reported first."""
    if len(head) not in (2, 3):
        _fail(1, 1, "cayley header is 'cayley n' or 'cayley n p'")
    try:
        n = int(head[1])
    except ValueError:
        _fail(1, len("cayley "), "order is not an integer")
    p_hint = None
    if len(head) == 3:
        try:
            p_hint = int(head[2])
        except ValueError:
            _fail(1, 1, "prime hint is not an integer")
        try:
            check_prime(p_hint)
        except UnsupportedInputError as ex:
            _fail(1, 1, str(ex))
    if n < 1:
        _fail(1, 1, "order must be positive")
    if n > max_order:
        _fail(1, 1, f"order {n} exceeds the cap {max_order}")
    table = np.empty((n, n), dtype=table_dtype(n))
    rows, line_no, error = _read_rows(lines, table)
    if rows != n:
        _fail(line_no, 1, f"expected {n} table rows, found {rows}")
    if error is not None:
        raise error
    return FiniteGroup(_reindex_identity_first(table), name=name), p_hint


def _read_rows(lines: Iterator[str], out: np.ndarray
               ) -> tuple[int, int, UnsupportedInputError | None]:
    """Store the non-blank lines, numbered from 2, into the rows of out as
    they arrive; past a bad row or the last row of out they are only
    counted. Returns (rows counted, last line number, first row error)."""
    rows, line_no, error = 0, 1, None
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # for _plain_row
        for line_no, ln in enumerate(lines, 2):
            if not ln.strip():
                continue
            if rows < len(out) and error is None:
                try:
                    _read_row(out[rows], ln, line_no)
                except UnsupportedInputError as ex:
                    error = ex
            rows += 1
    return rows, line_no, error


def _read_row(out: np.ndarray, ln: str, line_no: int) -> None:
    """Store one table row into out. A row numpy does not read is read
    entry by entry, which words its error."""
    n = out.size
    row = _plain_row(ln, n)
    if row is None:
        parts = ln.split()
        if len(parts) != n:
            _fail(line_no, 1, f"expected {n} entries, found {len(parts)}")
        row = []
        for col, x in enumerate(parts, 1):
            try:
                row.append(int(x))
            except ValueError:
                _fail(line_no, col, "entry is not an integer")
        for col, x in enumerate(row, 1):
            if not 0 <= x < n:
                _fail(line_no, col, "entry out of range")
    out[:] = row


def _plain_row(ln: str, n: int) -> np.ndarray | None:
    """The row if numpy reads it as n entries below n, else None. Any sign
    also gives None: fromstring reads a lone sign as 0. Warnings must be
    errors, as fromstring only warns at text it cannot read."""
    if "+" in ln or "-" in ln:
        return None
    try:
        row = np.fromstring(ln, dtype=np.int64, sep=" ")
    except (ValueError, DeprecationWarning):
        return None
    # an entry too large for int64 reads as 2**63 - 1
    if row.shape != (n,) or row.max() >= n:
        return None
    return row


def _parse_cycles(line: str, k: int, line_no: int) -> tuple[int, ...]:
    perm = list(range(k))
    i = 0
    s = line.strip()
    if s in ("()", "id", "identity"):
        return tuple(perm)
    touched = set()
    while i < len(s):
        if s[i].isspace():
            i += 1
            continue
        if s[i] != "(":
            _fail(line_no, i + 1, "expected '('")
        j = s.find(")", i)
        if j < 0:
            _fail(line_no, i + 1, "unclosed cycle")
        body = s[i + 1:j].replace(",", " ").split()
        try:
            pts = [int(x) for x in body]
        except ValueError:
            _fail(line_no, i + 2, "cycle entry is not an integer")
        if any(x < 1 or x > k for x in pts):
            _fail(line_no, i + 2, f"point outside 1..{k}")
        if len(set(pts)) != len(pts) or touched & set(pts):
            _fail(line_no, i + 2, "repeated point")
        touched |= set(pts)
        for a, b in zip(pts, pts[1:] + pts[:1]):
            perm[a - 1] = b - 1
        i = j + 1
    return tuple(perm)


def _parse_perm(lines, head, max_order, name) -> FiniteGroup:
    if len(head) != 2:
        _fail(1, 1, "perm header is 'perm k'")
    try:
        k = int(head[1])
    except ValueError:
        _fail(1, len("perm "), "point count is not an integer")
    if k < 1 or k > 12:
        _fail(1, 1, "point count out of range 1..12")
    gens = [_parse_cycles(ln, k, line_no)
            for line_no, ln in enumerate(lines, 2) if ln.strip()]
    return permutation_group(gens, k, name, max_order)


def _load_sdp_files(kernel_path: str, acting_path: str, action_path: str,
                    max_order: int) -> FiniteGroup:
    kernel, _ = load_group_file(kernel_path, max_order)
    acting, _ = load_group_file(acting_path, max_order)
    if kernel.order * acting.order > max_order:
        raise UnsupportedInputError(
            f"group order {kernel.order * acting.order} exceeds the cap {max_order}")
    lines = _file_lines(action_path)
    headed = next(lines, "").split() == ["action"]
    action = np.empty((acting.order, kernel.order), dtype=np.int64)
    rows, _, error = _read_rows(lines, action)  # reads to the end: a decode error wins
    if not headed:
        raise UnsupportedInputError("action file must start with 'action'")
    if rows != acting.order:
        raise UnsupportedInputError(f"expected {acting.order} action rows, found {rows}")
    if error is not None:
        raise error
    return semidirect_product(kernel, acting, action, name="sdp")


def build_group(source: str, max_order: int = DEFAULT_MAX_ORDER
                ) -> tuple[FiniteGroup, int | None]:
    """Group from a file path or a family-spec string.

    A readable file wins; anything else is parsed as a family spec.
    """
    if os.path.isfile(source):
        return load_group_file(source, max_order=max_order)

    def sdp_loader(kp, ap, actp):
        return _load_sdp_files(kp, ap, actp, max_order)

    g = parse_family(source, max_order=max_order, file_loader=sdp_loader)
    return g, None


def _cayley_lines(g: FiniteGroup) -> Iterator[str]:
    yield f"cayley {g.order}\n"
    for row in g.table:
        yield " ".join(map(str, row.tolist())) + "\n"


def format_cayley(g: FiniteGroup) -> str:
    return "".join(_cayley_lines(g))


def write_cayley(g: FiniteGroup, path: str):
    """The table in the cayley format, written one row at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_cayley_lines(g))
