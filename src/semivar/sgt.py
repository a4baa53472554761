"""The plain-text Cayley table format (.sgt).

Layout: optional comment lines starting with '#', one line with the
decimal order n, then n lines of n space-separated element ids; row x
lists x.0 .. x.(n-1).  A trailing newline is required and tabs are not
allowed.  serialize_table is the bit-exact inverse of parse_table modulo
comments.
"""

from __future__ import annotations

from .core import FiniteSemigroup, SemigroupError, build_semigroup


class TableSyntaxError(SemigroupError):
    def __init__(self, line: int, column: int, message: str) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _is_decimal(token: str) -> bool:
    # str.isdigit also accepts digits of other scripts and superscripts
    return token.isascii() and token.isdigit()


def parse_table(text: str) -> FiniteSemigroup:
    """Parse .sgt text; element-range and associativity errors come from
    build_semigroup unchanged."""
    if not text.endswith("\n"):
        last = text.count("\n") + 1
        col = len(text.split("\n")[-1]) + 1
        raise TableSyntaxError(last, col, "missing trailing newline")
    lines = text.split("\n")[:-1]
    for lineno, line in enumerate(lines, start=1):
        tab = line.find("\t")
        if tab != -1:
            raise TableSyntaxError(lineno, tab + 1, "tab character not allowed")

    content: list[tuple[int, str]] = [
        (i, line) for i, line in enumerate(lines, start=1) if not line.startswith("#")
    ]
    if not content:
        raise TableSyntaxError(len(lines) + 1, 1, "missing order line")

    lineno, order_line = content[0]
    if not _is_decimal(order_line):
        bad = next(
            (k for k, ch in enumerate(order_line) if not _is_decimal(ch)),
            len(order_line),
        )
        raise TableSyntaxError(lineno, bad + 1, "order must be a decimal integer")
    digits = order_line.lstrip("0")  # int() refuses more than 4,300 digits
    if len(digits) > len(str(len(lines))):  # the order exceeds the count of lines
        raise TableSyntaxError(lineno, 1, f"an order of {len(digits)} digits exceeds {len(lines)} lines")
    n = int(digits or "0")

    rows: list[list[int]] = []
    for lineno, line in content[1:]:
        if len(rows) == n:
            raise TableSyntaxError(lineno, 1, f"unexpected content after {n} rows")
        row: list[int] = []
        col = 1
        for token in line.split(" "):
            if not _is_decimal(token):
                raise TableSyntaxError(lineno, col, "expected a decimal element id")
            row.append(int(token))
            col += len(token) + 1
        if len(row) != n:
            raise TableSyntaxError(lineno, col, f"expected {n} entries, got {len(row)}")
        rows.append(row)
    if len(rows) != n:
        raise TableSyntaxError(len(lines) + 1, 1, f"expected {n} rows, got {len(rows)}")
    if n == 0:
        raise TableSyntaxError(content[0][0], 1, "order must be positive, got 0")
    return build_semigroup(n, rows)


def serialize_table(s: FiniteSemigroup) -> str:
    lines = [str(s.order)]
    lines.extend(" ".join(str(v) for v in row) for row in s.table)
    return "\n".join(lines) + "\n"


def inline_table(s: FiniteSemigroup) -> str:
    """One-line table key used in reports: rows joined by ';'."""
    return serialize_table(s)[:-1].replace("\n", ";")


def parse_inline(key: str) -> FiniteSemigroup:
    """The table of a key as inline_table writes it; TableSyntaxError for
    another spelling, such as a comment row or a leading zero."""
    order, *lines = key.split(";")
    ids = {str(x): x for x in range(len(lines))}  # each id as inline_table writes it
    rows = [[ids.get(v) for v in line.split(" ")] for line in lines]
    if lines and order == str(len(lines)) and all(len(r) == len(lines) and None not in r for r in rows):
        return build_semigroup(len(lines), rows)
    s = parse_table(key.replace(";", "\n") + "\n")
    written = inline_table(s)
    if written != key:  # else one table would pass under two keys
        column = next((i for i, c in enumerate(written) if key[i:i + 1] != c), len(written))
        raise TableSyntaxError(1, column + 1, f"the key of this table is {written!r}")
    return s
