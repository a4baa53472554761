"""Independent oracles the test suite trusts over the library code.

Everything here is deliberately naive: generate-and-filter enumeration,
full-table rescans after every placement, exhaustive permutation
searches.  The implementations share no code (and no cleverness) with
the package, so agreement is evidence rather than tautology.
"""

from __future__ import annotations

import itertools


def naive_tables(n: int):
    """Every associative table on 0..n-1 by generate-and-filter, in
    lexicographic row-major order (the same order the production
    backtracker emits)."""
    for flat in itertools.product(range(n), repeat=n * n):
        table = tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n))
        if all(
            table[table[x][y]][z] == table[x][table[y][z]]
            for x in range(n)
            for y in range(n)
            for z in range(n)
        ):
            yield table


def recount_labeled(n: int) -> int:
    """Count associative tables by row-major fill with a full rescan of
    every triple after each placement.  Same pruning power as the
    production enumerator, entirely different bookkeeping."""
    table = [[-1] * n for _ in range(n)]

    def consistent() -> bool:
        for x in range(n):
            for y in range(n):
                xy = table[x][y]
                if xy < 0:
                    continue
                for z in range(n):
                    yz = table[y][z]
                    if yz < 0:
                        continue
                    left = table[xy][z]
                    right = table[x][yz]
                    if left >= 0 and right >= 0 and left != right:
                        return False
        return True

    count = 0
    stack = [(0, 0)]

    def fill(pos: int) -> None:
        nonlocal count
        if pos == n * n:
            count += 1
            return
        x, y = divmod(pos, n)
        for v in range(n):
            table[x][y] = v
            if consistent():
                fill(pos + 1)
        table[x][y] = -1

    fill(0)
    return count


def set_partitions(n: int):
    """All partitions of {0..n-1} as tuples of frozensets, built by
    inserting each new element into every block (or a new one)."""
    if n == 0:
        yield ()
        return
    if n == 1:
        yield (frozenset({0}),)
        return
    last = n - 1
    for part in set_partitions(n - 1):
        for i in range(len(part)):
            yield part[:i] + (part[i] | {last},) + part[i + 1:]
        yield part + (frozenset({last}),)


def is_congruence(table, blocks) -> bool:
    """Two-sided congruence test straight from the definition."""
    index = {}
    for i, block in enumerate(blocks):
        for x in block:
            index[x] = i
    n = len(table)
    for block in blocks:
        for x in block:
            for y in block:
                for z in range(n):
                    if index[table[z][x]] != index[table[z][y]]:
                        return False
                    if index[table[x][z]] != index[table[y][z]]:
                        return False
    return True


def iso_exists(ta, tb) -> bool:
    """Exhaustive isomorphism search over all permutations."""
    n = len(ta)
    if len(tb) != n:
        return False
    for perm in itertools.permutations(range(n)):
        if all(
            perm[ta[x][y]] == tb[perm[x]][perm[y]]
            for x in range(n)
            for y in range(n)
        ):
            return True
    return False


def relabel(table, perm):
    """The table of the same semigroup with element x renamed perm[x]."""
    n = len(table)
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    return tuple(
        tuple(perm[table[inv[i]][inv[j]]] for j in range(n)) for i in range(n)
    )


def automorphism_count(table) -> int:
    """|Aut S|: the relabelings that leave the table unchanged."""
    n = len(table)
    return sum(
        1 for perm in itertools.permutations(range(n))
        if relabel(table, perm) == table
    )


def canonical(table):
    """Lexicographically least relabeling of a table."""
    n = len(table)
    best = None
    for perm in itertools.permutations(range(n)):
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        cand = tuple(
            tuple(perm[table[inv[i]][inv[j]]] for j in range(n))
            for i in range(n)
        )
        if best is None or cand < best:
            best = cand
    return best


def j_classes(table):
    """Green's J from its definition: a J b iff S^1aS^1 = S^1bS^1.  The
    classes come back as a set of frozensets."""
    n = len(table)
    ideals = []
    for a in range(n):
        # S^1a, then S^1aS^1: a's left multiples and a, closed on the right
        left = {a} | {table[x][a] for x in range(n)}
        ideals.append(frozenset(left | {table[y][x] for y in left for x in range(n)}))
    return {
        frozenset(b for b in range(n) if ideals[b] == ideals[a]) for a in range(n)
    }


def natural_leq(table, a: int, b: int) -> bool:
    """a <= b iff a = xb = by with xa = a, for some x, y with an
    identity adjoined when S has none."""
    n = len(table)
    t = [list(row) for row in table]
    has_identity = any(
        all(t[e][x] == x and t[x][e] == x for x in range(n)) for e in range(n)
    )
    if not has_identity:
        for x in range(n):
            t[x].append(x)
        t.append(list(range(n + 1)))
        n += 1
    left = any(t[x][b] == a and t[x][a] == a for x in range(n))
    right = any(t[b][y] == a for y in range(n))
    return left and right


def well_formed(tests, t, *dicts) -> bool:
    """The per-field rule of a record: each field of the dicts has a test
    in tests, a dict of callables, and its value passes it on table t."""
    return all(name in tests and tests[name](v, t)
               for fields in dicts for name, v in fields.items())
