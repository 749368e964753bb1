"""Computations made apart from tern4, against which the benchmark checks outputs.

Everything here uses `Fraction` arithmetic, except the characteristic
function, which uses mpmath at 50 digits.  No tern4 code is imported.

Most of it walks the residual graph of a value x in [0, 3/2]: a state y has an
edge labelled c to 3y - c for every digit c in 0..3 with 0 <= 3y - c <= 3/2.
Expansions of x are exactly the infinite paths from x, and for rational x the
graph is finite, since every state is a fraction with x's denominator or a
divisor of it.
"""

from __future__ import annotations

from fractions import Fraction

TAIL_SUP = Fraction(3, 2)
DIGITS = (0, 1, 2, 3)


# ---------------------------------------------------------------------------
# digit strings

def digit_value(pre, per, base: int = 3) -> Fraction:
    """Value of pre(per) read in `base`."""
    head = 0
    for c in pre:
        head = head * base + c
    block = 0
    for c in per:
        block = block * base + c
    return Fraction(head, base ** len(pre)) + Fraction(block, (base ** len(per) - 1) * base ** len(pre))


def canonical(pre, per) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Shortest repeating block, with trailing preperiod digits rotated into it."""
    pre, per = tuple(pre), tuple(per)
    n = len(per)
    per = next(per[:d] for d in range(1, n + 1) if n % d == 0 and per == per[:d] * (n // d))
    while pre and pre[-1] == per[-1]:
        pre, per = pre[:-1], (per[-1],) + per[:-1]
    return pre, per


def text(pre, per) -> str:
    return "".join(map(str, pre)) + "(" + "".join(map(str, per)) + ")"


def parse_text(s: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    pre, per = s[:-1].split("(")
    return tuple(map(int, pre)), tuple(map(int, per))


def pair_alternative(a: int, b: int) -> tuple[int, int] | None:
    """The other digit pair (a', b') with 3a' + b' = 3a + b, if there is one."""
    alts = [(u, v) for u in DIGITS for v in DIGITS if 3 * u + v == 3 * a + b and (u, v) != (a, b)]
    return alts[0] if alts else None


# ---------------------------------------------------------------------------
# the residual graph

def successors(y: Fraction) -> list[tuple[int, Fraction]]:
    out = []
    for c in DIGITS:
        z = 3 * y - c
        if 0 <= z <= TAIL_SUP:
            out.append((c, z))
    return out


def residual_graph(x: Fraction) -> dict[Fraction, list[tuple[int, Fraction]]]:
    graph: dict[Fraction, list[tuple[int, Fraction]]] = {}
    todo = [Fraction(x)]
    while todo:
        y = todo.pop()
        if y in graph:
            continue
        graph[y] = successors(y)
        todo.extend(z for _, z in graph[y] if z not in graph)
    return graph


def _components(graph) -> dict[Fraction, int]:
    """Strongly connected component id of every state (Kosaraju, iterative)."""
    order, seen = [], set()
    for root in graph:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(graph[root]))]
        while stack:
            node, it = stack[-1]
            for _, z in it:
                if z not in seen:
                    seen.add(z)
                    stack.append((z, iter(graph[z])))
                    break
            else:
                order.append(node)
                stack.pop()
    reverse: dict[Fraction, list[Fraction]] = {y: [] for y in graph}
    for y, edges in graph.items():
        for _, z in edges:
            reverse[z].append(y)
    comp: dict[Fraction, int] = {}
    for root_id, root in enumerate(reversed(order)):
        if root in comp:
            continue
        comp[root] = root_id
        stack = [root]
        while stack:
            for z in reverse[stack.pop()]:
                if z not in comp:
                    comp[z] = root_id
                    stack.append(z)
    return comp


def census(x: Fraction) -> tuple[str, int | None]:
    """("unique" | "finite" | "countable" | "continuum", count for finite)."""
    graph = residual_graph(x)
    comp = _components(graph)
    size: dict[int, int] = {}
    inner: dict[int, int] = {}
    exits: dict[int, int] = {}
    for y, edges in graph.items():
        size[comp[y]] = size.get(comp[y], 0) + 1
        for _, z in edges:
            key = inner if comp[z] == comp[y] else exits
            key[comp[y]] = key.get(comp[y], 0) + 1
    cyclic = {k for k, n in inner.items() if n}
    if any(inner[k] > size[k] for k in cyclic):
        return "continuum", None  # a component with two distinct cycles
    if any(exits.get(k) for k in cyclic):
        return "countable", None  # loop any number of times, then leave
    paths: dict[Fraction, int] = {}

    def count(y: Fraction) -> int:  # graph minus the terminal cycles is acyclic
        stack = [y]
        while stack:
            v = stack[-1]
            if v in paths:
                stack.pop()
            elif comp[v] in cyclic:
                paths[v] = 1
            else:
                pending = [z for _, z in graph[v] if z not in paths]
                if pending:
                    stack.extend(pending)
                else:
                    paths[v] = sum(paths[z] for _, z in graph[v])
        return paths[y]

    n = count(Fraction(x))
    return ("unique", None) if n == 1 else ("finite", n)


def listing(x: Fraction, depth: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Canonical expansions of x with preperiod of at most `depth` digits.

    Each is a path of length `depth` from x followed by the cycle through its
    end state; x must not have continuum many expansions, so that cycle is
    unique where it exists.
    """
    graph = residual_graph(x)
    comp = _components(graph)
    found = set()
    frontier = [((), Fraction(x))]
    for _ in range(depth):
        frontier = [(w + (c,), z) for w, y in frontier for c, z in graph[y]]
    for w, y in frontier:
        block, z = [], y
        while True:
            inside = [(c, u) for c, u in graph[z] if comp[u] == comp[y]]
            if not inside:
                break
            if len(inside) > 1:
                raise ValueError(f"{x} has continuum many expansions")
            c, z = inside[0]
            block.append(c)
            if z == y:
                found.add(canonical(w, block))
                break
    return sorted(found, key=lambda e: (len(e[0]), e[0], e[1]))


def prefix_count(x: Fraction, m: int) -> int:
    """Number of paths of length m from x (multiset walk of the residual graph)."""
    states = {Fraction(x): 1}
    for _ in range(m):
        nxt: dict[Fraction, int] = {}
        for y, n in states.items():
            for _, z in successors(y):
                nxt[z] = nxt.get(z, 0) + n
        states = nxt
    return sum(states.values())


def brute_prefixes(x: Fraction, words: list[tuple[tuple[int, ...], int]], m: int) -> list[tuple[int, ...]]:
    """Length-m words w, from all of {0..3}^m, with 0 <= x - value(w) <= (3/2) 3^-m.

    `words` holds every word with its integer value N (value(w) = N / 3^m).
    """
    a, b = x.numerator * 3 ** m, x.denominator
    return [w for w, n in words if 0 <= 2 * (a - n * b) <= 3 * b]


def all_words(m: int) -> list[tuple[tuple[int, ...], int]]:
    words = [((), 0)]
    for _ in range(m):
        words = [(w + (c,), 3 * n + c) for w, n in words for c in DIGITS]
    return words


# ---------------------------------------------------------------------------
# the governing series 1/3 + 1/3 + 1/3 + 1/9 + ...

def series_term(n: int) -> Fraction:
    return Fraction(1, 3 ** ((n + 2) // 3))


def greedy_bits(x: Fraction, n_max: int) -> list[int]:
    bits, partial = [], Fraction(0)
    for n in range(1, n_max + 1):
        take = partial + series_term(n) <= x
        partial += series_term(n) * take
        bits.append(int(take))
    return bits


# ---------------------------------------------------------------------------
# the distribution function F(y) = sum_i p_i F(3y - i)

def exact_cdf(p, points) -> dict[Fraction, Fraction]:
    """Exact F at each rational point, from one sparse linear solve.

    The unknowns are F at the residual states in (0, 3/2) reachable from the
    points; F = 0 at and left of 0 and F = 1 at and right of 3/2.  The system
    (I - A) F = b is nonsingular when two digits have positive probability.
    """
    p = [Fraction(v) for v in p]
    states, todo = {}, [Fraction(v) for v in points]
    rows = []
    while todo:
        y = todo.pop()
        if y in states or y <= 0 or y >= TAIL_SUP:
            continue
        states[y] = len(rows)
        row, rhs = {}, Fraction(0)
        for i, pi in enumerate(p):
            z = 3 * y - i
            if not pi or z <= 0:
                continue
            if z >= TAIL_SUP:
                rhs += pi
            else:
                row[z] = row.get(z, 0) - pi
                todo.append(z)
        rows.append((y, row, rhs))
    n = len(rows)
    A = [{} for _ in range(n)]
    b = [Fraction(0)] * n
    for r, (y, row, rhs) in enumerate(rows):
        A[r][r] = Fraction(1)
        for z, v in row.items():
            c = states[z]
            A[r][c] = A[r].get(c, 0) + v
        b[r] = rhs
    for col in range(n):
        piv = next(r for r in range(col, n) if A[r].get(col))
        A[col], A[piv] = A[piv], A[col]
        b[col], b[piv] = b[piv], b[col]
        prow, pv = A[col], A[col][col]
        for r in range(col + 1, n):
            f = A[r].get(col)
            if not f:
                continue
            f /= pv
            row = A[r]
            for c, v in prow.items():
                nv = row.get(c, 0) - f * v
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
            b[r] -= f * b[col]
    sol = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        sol[r] = (b[r] - sum(v * sol[c] for c, v in A[r].items() if c > r)) / A[r][r]
    out = {}
    for v in points:
        v = Fraction(v)
        out[v] = Fraction(0) if v <= 0 else Fraction(1) if v >= TAIL_SUP else sol[states[v]]
    return out


# ---------------------------------------------------------------------------
# the characteristic function prod_k sum_m p_m exp(i m t 3^-k)

CHARFN_DPS = 50
CHARFN_FACTORS = 70  # factor k differs from 1 by <= 3|t| 3^-k: below 1e-30 for |t| <= 50


def charfn_abs_error(p, t: float, value: complex) -> float:
    """|value - f(t)|, with f(t) as an mpmath product at 50 digits."""
    import mpmath

    with mpmath.workdps(CHARFN_DPS):
        ps = [mpmath.mpf(Fraction(v).numerator) / Fraction(v).denominator for v in p]
        t = mpmath.mpf(t)
        f = mpmath.mpc(1)
        for k in range(1, CHARFN_FACTORS + 1):
            z = mpmath.expj(t / mpmath.mpf(3) ** k)
            f *= ((ps[3] * z + ps[2]) * z + ps[1]) * z + ps[0]
        return float(abs(f - mpmath.mpc(value.real, value.imag)))


def law_mean(p) -> Fraction:
    """Mean of the series: (sum_i i p_i) / 2."""
    return sum(i * Fraction(v) for i, v in enumerate(p)) / 2

