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

import numpy as np

from .errors import UnsupportedInputError
from .families import DEFAULT_MAX_ORDER, _perm_table, parse_family
from .fplin import P_LIMIT, is_prime
from .groups import FiniteGroup, SemidirectSpec, semidirect_product, table_dtype


def _fail(line_no: int, col: int, msg: str):
    raise UnsupportedInputError(f"line {line_no}, column {col}: {msg}")


def _reindex_identity_first(table: np.ndarray) -> np.ndarray:
    """The table relabeled, in its own dtype, so that its first two-sided
    identity is 0. An identity e has e 0 = 0, so only the rows r with
    table[r, 0] == 0 are candidates, each checked in O(n)."""
    ar = np.arange(table.shape[0])
    for e in np.flatnonzero(table[:, 0] == 0):
        if np.array_equal(table[e], ar) and np.array_equal(table[:, e], ar):
            break
    else:
        raise UnsupportedInputError("table has no two-sided identity")
    if e == 0:
        return table
    order = np.concatenate([[e], np.delete(ar, e)])
    return np.argsort(order).astype(table.dtype)[table[np.ix_(order, order)]]


def parse_group_text(text: str, max_order: int = DEFAULT_MAX_ORDER,
                     name: str = "input") -> tuple[FiniteGroup, int | None]:
    """Parse cayley/perm format text. Returns (group, optional prime hint)."""
    lines = text.splitlines()
    if not lines:
        _fail(1, 1, "empty input")
    head = lines[0].split()
    if not head:
        _fail(1, 1, "missing header")
    kind = head[0].lower()
    if kind == "cayley":
        return _parse_cayley(lines, head, max_order, name)
    if kind == "perm":
        return _parse_perm(lines, head, max_order, name), None
    _fail(1, 1, f"unknown format {head[0]!r} (expected 'cayley' or 'perm')")
    raise AssertionError  # unreachable


def _parse_cayley(lines, head, max_order, name):
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
        if p_hint >= P_LIMIT:
            _fail(1, 1, f"{p_hint} is not a prime below 2**16")
        if not is_prime(p_hint):
            _fail(1, 1, f"{p_hint} is not prime")
    if n < 1:
        _fail(1, 1, "order must be positive")
    if n > max_order:
        _fail(1, 1, f"order {n} exceeds the cap {max_order}")
    body = [(i + 1, ln) for i, ln in enumerate(lines[1:]) if ln.strip()]
    if len(body) != n:
        _fail(len(lines), 1, f"expected {n} table rows, found {len(body)}")
    table = _plain_table(body, n)
    if table is None:
        table = np.empty((n, n), dtype=table_dtype(n))
        for i, (line_no, ln) in enumerate(body):
            parts = ln.split()
            if len(parts) != n:
                _fail(line_no + 1, 1, f"expected {n} entries, found {len(parts)}")
            try:
                row = [int(x) for x in parts]
            except ValueError:
                bad = next(i for i, x in enumerate(parts) if not _is_int(x))
                _fail(line_no + 1, bad + 1, "entry is not an integer")
            if any(x < 0 or x >= n for x in row):
                bad = next(i for i, x in enumerate(row) if x < 0 or x >= n)
                _fail(line_no + 1, bad + 1, "entry out of range")
            table[i] = row
    return FiniteGroup(_reindex_identity_first(table), name=name), p_hint


def _plain_table(body, n):
    """The table if numpy reads each row as n entries below n, else None.
    Any sign also gives None: fromstring reads a lone sign as 0. Each row
    is range-checked and then stored in the preallocated narrow table."""
    import warnings
    if any("+" in ln or "-" in ln for _, ln in body):
        return None
    table = np.empty((n, n), dtype=table_dtype(n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i, (_, ln) in enumerate(body):
            try:
                row = np.fromstring(ln, dtype=np.int64, sep=" ")
            except (ValueError, DeprecationWarning):
                return None
            # an entry too large for int64 reads as 2**63 - 1
            if row.shape != (n,) or row.max() >= n:
                return None
            table[i] = row
    return table


def _is_int(s: str) -> bool:
    try:
        int(s)
        return True
    except ValueError:
        return False


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
    gens = []
    for i, ln in enumerate(lines[1:]):
        if ln.strip():
            gens.append(_parse_cycles(ln, k, i + 2))
    ident = tuple(range(k))
    elems = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                b = tuple(a[g[x]] for x in range(k))
                if b not in elems:
                    if len(elems) >= max_order:
                        raise UnsupportedInputError(
                            f"generated group exceeds the cap {max_order}")
                    elems.add(b)
                    new.append(b)
        frontier = new
    return _perm_table(sorted(elems), name=name)


def load_group_file(path: str, max_order: int = DEFAULT_MAX_ORDER
                    ) -> tuple[FiniteGroup, int | None]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as ex:
        raise UnsupportedInputError(f"cannot read {path}: {ex}") from ex
    base = os.path.basename(path)
    return parse_group_text(text, max_order=max_order, name=base)


def _load_sdp_files(kernel_path: str, acting_path: str, action_path: str,
                    max_order: int) -> FiniteGroup:
    kernel, _ = load_group_file(kernel_path, max_order)
    acting, _ = load_group_file(acting_path, max_order)
    if kernel.order * acting.order > max_order:
        raise UnsupportedInputError(
            f"group order {kernel.order * acting.order} exceeds the cap {max_order}")
    try:
        with open(action_path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as ex:
        raise UnsupportedInputError(f"cannot read {action_path}: {ex}") from ex
    if not lines or lines[0].split() != ["action"]:
        raise UnsupportedInputError("action file must start with 'action'")
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != acting.order:
        raise UnsupportedInputError(
            f"expected {acting.order} action rows, found {len(body)}")
    rows = []
    for i, ln in enumerate(body):
        parts = ln.split()
        if len(parts) != kernel.order:
            _fail(i + 2, 1, f"expected {kernel.order} images")
        try:
            rows.append([int(x) for x in parts])
        except ValueError:
            _fail(i + 2, 1, "image is not an integer")
    action = np.array(rows, dtype=np.int64)
    spec = SemidirectSpec(kernel=kernel, acting=acting, action=action)
    g, _, _ = semidirect_product(spec, name="sdp")
    return g


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


def format_cayley(g: FiniteGroup) -> str:
    out = [f"cayley {g.order}"]
    for row in g.table:
        out.append(" ".join(str(int(x)) for x in row))
    return "\n".join(out) + "\n"


def write_cayley(g: FiniteGroup, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_cayley(g))
