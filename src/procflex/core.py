"""Exact-arithmetic transportation-polytope instances.

A problem instance is a triple (demand, supply, edges) describing the polytope
of nonnegative matrices x with row sums ``demand``, column sums ``supply`` and
support restricted to ``edges``.  An instance stores its rates in the exact
integer form every layer reads: ``scale``, the lcm of their denominators, and
``demand_units`` and ``supply_units``, the rates times it as Python ints.  A
document whose edge indices are ints and whose rates are ints, or integers
written as to_dict writes them, is read straight to that form at scale 1;
any other is parsed to Fractions and scaled once.  The rates
as Fractions (``demand``, ``supply``) are made on first read, for the callers
that want them as values.  Feasibility, redundancy and extremality are
exact-zero properties, so no floating point comes near them.

Vertices are 1-indexed.  Demand indices live in [1, m], supply indices in
[1, n]; the two index spaces are distinct (an edge is a (demand, supply) pair).
"""

from __future__ import annotations

import bisect
import ctypes
import math
import numbers
import random
import re
import struct
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import accumulate, chain
from typing import Iterable, Mapping, Sequence

from . import native
from .errors import (
    DuplicateEdge,
    EdgeOutOfRange,
    Infeasible,
    NegativeRate,
    UnbalancedTotals,
    ZeroVector,
)

__all__ = [
    "ProblemInstance",
    "Assignment",
    "parse_rational",
    "format_rational",
    "validate_instance",
    "make_instance",
    "is_feasible",
    "find_feasible_point",
    "greedy_extreme_point",
]


# Fraction spells out 10**exponent in full: "1e10000000" takes seconds
MAX_DECIMAL_EXPONENT = 1000
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def parse_rational(value) -> Fraction:
    """Parse an exact rational from an int or a "p/q" / "p" string.

    Floats are rejected: the file format is exact by design.  Decimal strings
    may carry an exponent of at most MAX_DECIMAL_EXPONENT either way.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        found = _EXPONENT.search(value)
        digits = found[1].replace("_", "").lstrip("0") if found else ""
        if len(digits) > len(str(MAX_DECIMAL_EXPONENT)) or int(digits or 0) > MAX_DECIMAL_EXPONENT:
            raise ValueError(
                f"not a rational: {value!r} (exponent above {MAX_DECIMAL_EXPONENT})"
            )
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {value!r}") from exc
    raise ValueError(f"not a rational: {value!r}")


def format_rational(value: Fraction) -> str:
    """Canonical string form: "3", "-1/2", ... round-trips through parse."""
    return str(value) if type(value) is Fraction else str(Fraction(value))


@dataclass(frozen=True)
class ProblemInstance:
    """Validated (demand, supply, edges) triple with equal totals, stored in
    the exact integer form every layer reads: the rates times ``scale``, the
    least common multiple of their denominators, as ints."""

    m: int
    n: int
    scale: int
    demand_units: tuple[int, ...]
    supply_units: tuple[int, ...]
    edges: frozenset[tuple[int, int]]
    sorted_edges: tuple[tuple[int, int], ...] = field(compare=False, repr=False)

    @cached_property
    def demand(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(u, self.scale) for u in self.demand_units)

    @cached_property
    def supply(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(u, self.scale) for u in self.supply_units)

    @cached_property
    def total_units(self) -> int:
        return sum(self.demand_units)

    @cached_property
    def total(self) -> Fraction:
        return Fraction(self.total_units, self.scale)

    @cached_property
    def demand_adj(self) -> tuple[tuple[int, ...], ...]:
        """demand_adj[i-1] = sorted supply neighbors of demand i."""
        adj: list[list[int]] = [[] for _ in range(self.m)]
        for i, j in self.sorted_edges:
            adj[i - 1].append(j)
        return tuple(tuple(a) for a in adj)

    @cached_property
    def supply_adj(self) -> tuple[tuple[int, ...], ...]:
        """supply_adj[j-1] = sorted demand neighbors of supply j."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.sorted_edges:
            adj[j - 1].append(i)
        return tuple(tuple(a) for a in adj)

    def with_edge(self, edge: tuple[int, int]) -> "ProblemInstance":
        i, j = _edge_pair(edge)
        if not (1 <= i <= self.m and 1 <= j <= self.n):
            raise EdgeOutOfRange(f"edge {edge} outside [1,{self.m}]x[1,{self.n}]")
        edges = self.sorted_edges
        if (i, j) not in self.edges:
            k = bisect.bisect(edges, (i, j))
            edges = (*edges[:k], (i, j), *edges[k:])
        return ProblemInstance(self.m, self.n, self.scale, self.demand_units,
                               self.supply_units, self.edges | {(i, j)}, edges)

    def to_dict(self) -> dict:
        if self.scale == 1:
            demand, supply = self.demand_units, self.supply_units
        else:
            demand, supply = self.demand, self.supply
        return {
            "m": self.m,
            "n": self.n,
            "demand": list(map(str, demand)),
            "supply": list(map(str, supply)),
            "edges": list(map(list, self.sorted_edges)),
        }


def _is_int(value) -> bool:
    """An integer index, not a bool: JSON true must not read as 1."""
    if type(value) is int:
        return True
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _edge_pair(edge) -> tuple[int, int]:
    """The indices (i, j) of ``edge`` as ints; ValueError unless it is a pair
    of integers, so 1.5 is neither truncated nor let through."""
    if len(edge) != 2:
        raise ValueError(f"bad edge entry: {tuple(edge)!r}")
    i, j = edge
    if not (_is_int(i) and _is_int(j)):
        raise ValueError(f"edge indices must be integers: {tuple(edge)!r}")
    return int(i), int(j)


def validate_instance(raw: Mapping) -> ProblemInstance:
    """Build a validated instance from decoded file data.

    Expects keys m, n, demand, supply, edges; rationals may be integers or
    exact strings like "3/2".  Raises the structured domain errors for rate
    and edge problems, ValueError for malformed documents.
    """
    inst = _int_instance(raw)
    if inst is not None:
        return inst
    try:
        m = raw["m"]
        n = raw["n"]
        demand_raw = raw["demand"]
        supply_raw = raw["supply"]
        edges_raw = raw["edges"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"instance document missing field: {exc}") from exc
    if not _is_int(m) or not _is_int(n) or m < 1 or n < 1:
        raise ValueError("m and n must be positive integers")
    # a string has a len() too: "11" must not read as two rates
    for key, value in (("demand", demand_raw), ("supply", supply_raw), ("edges", edges_raw)):
        if not isinstance(value, list):
            raise ValueError(f"{key} must be a list, not {type(value).__name__}")
    if len(demand_raw) != m:
        raise ValueError(f"demand has {len(demand_raw)} entries, expected m={m}")
    if len(supply_raw) != n:
        raise ValueError(f"supply has {len(supply_raw)} entries, expected n={n}")
    for e in edges_raw:
        if not isinstance(e, list):
            raise ValueError(f"edge entries must be lists: {e!r}")
    return make_instance(demand_raw, supply_raw, edges_raw)


def _int_rates(rates: list) -> list | None:
    """rates as ints when each is a plain int or a canonical decimal string,
    the form to_dict writes at scale 1 (ASCII digits, no sign, space or "_",
    no leading zero but in "0"); else None."""
    if {*map(type, rates)} == {int}:
        return rates
    out = []
    for rate in rates:
        if type(rate) is str and rate.isascii() and rate.isdigit() and (
                rate[0] != "0" or rate == "0"):
            try:
                rate = int(rate)
            except ValueError:
                # past int's digit limit: the checked path words the refusal
                return None
        if type(rate) is not int:
            return None
        out.append(rate)
    return out


def _int_instance(raw) -> ProblemInstance | None:
    """The instance of a document whose sizes and edge indices are all plain
    ints (bools excluded), whose rates are ints or canonical decimal strings
    (see _int_rates) and which passes every check of the checked path, in
    one pass at scale 1; None for any other document, which the checked path
    then reads and, if it must, rejects with its own message."""
    if type(raw) is not dict:
        return None
    m, n = raw.get("m"), raw.get("n")
    demand, supply, edges = raw.get("demand"), raw.get("supply"), raw.get("edges")
    if not (type(m) is int and type(n) is int and type(demand) is list
            and type(supply) is list and type(edges) is list
            and 0 < m == len(demand) and 0 < n == len(supply)):
        return None
    demand, supply = _int_rates(demand), _int_rates(supply)
    if (demand is None or supply is None
            or min(demand) < 0 or min(supply) < 0 or sum(demand) != sum(supply)):
        return None
    if not {*map(type, edges)} <= {list} or not {*map(len, edges)} <= {2}:
        return None
    flat = list(chain.from_iterable(edges))
    if not {*map(type, flat)} <= {int}:
        return None
    rows, cols = flat[0::2], flat[1::2]
    if edges and not (1 <= min(rows) and max(rows) <= m and 1 <= min(cols) and max(cols) <= n):
        return None
    pairs = list(zip(rows, cols))
    edge_set = frozenset(pairs)
    if len(edge_set) != len(pairs):
        return None
    pairs.sort()
    return ProblemInstance(m, n, 1, tuple(demand), tuple(supply), edge_set, tuple(pairs))


def make_instance(
    demand: Sequence, supply: Sequence, edges: Iterable[tuple[int, int]]
) -> ProblemInstance:
    """Validate and build an instance from in-memory values."""
    demand_f = tuple(parse_rational(v) for v in demand)
    supply_f = tuple(parse_rational(v) for v in supply)
    m, n = len(demand_f), len(supply_f)
    for side, rates in (("demand", demand_f), ("supply", supply_f)):
        for k, v in enumerate(rates, start=1):
            if v.numerator < 0:
                raise NegativeRate(f"{side} {k} is negative: {v}")
    edge_list = [_edge_pair(e) for e in edges]
    seen = set()
    for e in edge_list:
        i, j = e
        if not (1 <= i <= m and 1 <= j <= n):
            raise EdgeOutOfRange(f"edge {e} outside [1,{m}]x[1,{n}]")
        if e in seen:
            raise DuplicateEdge(f"edge {e} listed twice")
        seen.add(e)
    scale, units = _units(demand_f + supply_f)
    inst = ProblemInstance(m, n, scale, units[:m], units[m:], frozenset(seen),
                           tuple(sorted(seen)))
    if inst.total_units != sum(inst.supply_units):
        raise UnbalancedTotals(f"total demand {inst.total} != total supply "
                               f"{Fraction(sum(inst.supply_units), inst.scale)}")
    if m < 1 or n < 1:
        raise ValueError("an instance needs at least one demand and one supply")
    return inst


@dataclass(frozen=True)
class Assignment:
    """Sparse feasible point: only strictly positive entries are stored."""

    m: int
    n: int
    entries: Mapping[tuple[int, int], Fraction]

    def __post_init__(self):
        object.__setattr__(
            self,
            "entries",
            {e: Fraction(v) for e, v in self.entries.items() if v != 0},
        )

    def support(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.entries)


def _check_positive(values: Sequence[Fraction]) -> None:
    """ZeroVector unless there are rates and every one is positive."""
    if not values:
        raise ZeroVector("empty rate vectors")
    for v in values:
        if v <= 0:
            raise ZeroVector(f"rates must be strictly positive, got {v}")


def _units(values: Sequence[Fraction]) -> tuple[int, tuple[int, ...]]:
    """(scale, units): scale is the lcm of the denominators of ``values`` and
    units[k] = values[k] * scale, an int."""
    scale = math.lcm(*(v.denominator for v in values))
    return scale, tuple(v.numerator * (scale // v.denominator) for v in values)


# ---------------------------------------------------------------------------
# Exact max flow.
#
# _Transport is the transportation network of an instance, solved by Dinic's
# algorithm on integer capacities: BFS levels, then blocking flows found by an
# iterative DFS with current-arc pointers that prunes dead ends.  max_flow()
# augments whatever flow the arcs already carry, so a caller that lowers a
# capacity after draining the flow through it can solve again from the rest
# of the old flow.
#
# Node layout: 0 = source, 1..m = demands, m+1..m+n = supplies, m+n+1 =
# sink.  Arc a ^ 1 is the reverse of arc a.  The arcs come in four runs: one
# source arc per demand, one arc per instance edge (demand i -> supply j,
# carrying x_ij) in edge order, one supply arc per supply and one sink arc
# per demand.  The arcs out of node u are arcs[start[u]:start[u + 1]], in arc
# order, so a demand's sink arc ends its row.  A sink arc has capacity 0
# until force(i, OUT) raises it, and an arc with res 0 both ways is skipped
# by every scan: the network is laid out once, with every arc a forcing may
# need, and its live arcs are scanned in the order a layout without the dead
# ones would give.  res[a] + res[a ^ 1] is the capacity of arc a.
#
# Capacities are the instance's rate units (rates times inst.scale), so
# capacities and flows are ints and the arithmetic stays exact; the
# "infinite" capacity on instance edges, 2 * total_units + 1, exceeds every
# finite arc's capacity put together, so no cut can afford it.  Every
# residual, every push and the flow value stay within [0, inf].
#
# Where inf fits in int64 and the flow library (_DINIC_SOURCE, built by
# `native`) loads, its `build` pass lays the network out in int64 arrays, and
# `dinic` and `tarjan` solve and label in place: res stays in its buffer,
# which force(), drain(), cut_demands() and assignment() read and write too.
# Past int64, or where no library can be built, _arc_layout lays out the same
# arrays as lists and the Python loops (_levels, _blocking_flow, the Python
# body of scc_labels) run on them.  The C loops scan arcs, run the DFS and
# take Tarjan's roots in the same order as the Python loops, so res and the
# labels come back identical, and so does everything read off them.
#
# Only _Transport reads the layout: other modules read the solved network
# through assignment(), scc_labels() (the residual SCCs the pooling
# decomposition is made of) and cut_demands() (the min cut the gap reads).
# order_seed permutes the edge arcs so tests can seed the decomposition with
# genuinely different feasible points.
# ---------------------------------------------------------------------------

_DINIC_SOURCE = r"""
#include <stdint.h>

static void put(int64_t a, int64_t u, int64_t v, int64_t cap, int64_t *arcs, int64_t *to,
                int64_t *res, int64_t *next)
{
    to[a] = v;
    to[a ^ 1] = u;
    res[a] = cap;
    res[a ^ 1] = 0;
    arcs[next[u]++] = a;
    arcs[next[v]++] = a ^ 1;
}

/* Lay out the network of m demands, n supplies and the e edges (pairs[2k],
   pairs[2k + 1]), taken in that order; units holds the m demand rate units,
   then the n supply ones.  Fills start (m + n + 3 int64) and arcs, to and res
   (4m + 2e + 2n int64 each); work holds m + n + 2 int64. */
void build(int64_t m, int64_t n, int64_t e, const int64_t *pairs, const int64_t *units,
           int64_t inf, int64_t *start, int64_t *arcs, int64_t *to, int64_t *res,
           int64_t *work)
{
    int64_t sink = m + n + 1, a = 0;
    /* node v's out-degree at start[v + 1]: the source has its m source arcs,
       a demand its source arc, its edges and its sink arc, a supply its
       edges and its supply arc, and the sink its n supply and m sink arcs */
    start[0] = 0;
    start[1] = m;
    for (int64_t v = 1; v < sink; v++)
        start[v + 1] = v <= m ? 2 : 1;
    start[sink + 1] = n + m;
    for (int64_t k = 0; k < e; k++) {
        start[pairs[2 * k] + 1]++;
        start[m + pairs[2 * k + 1] + 1]++;
    }
    for (int64_t v = 0; v <= sink; v++) {
        start[v + 1] += start[v];
        work[v] = start[v];
    }
    for (int64_t i = 1; i <= m; i++, a += 2)
        put(a, 0, i, units[i - 1], arcs, to, res, work);
    for (int64_t k = 0; k < e; k++, a += 2)
        put(a, pairs[2 * k], m + pairs[2 * k + 1], inf, arcs, to, res, work);
    for (int64_t j = 1; j <= n; j++, a += 2)
        put(a, m + j, sink, units[m + j - 1], arcs, to, res, work);
    for (int64_t i = 1; i <= m; i++, a += 2)
        put(a, i, sink, 0, arcs, to, res, work);
}

/* Augment the flow in res to a maximum one; returns the value added.  The
   arcs out of node u are arcs[start[u]:start[u + 1]]; work holds 4n int64. */
int64_t dinic(int64_t n, int64_t source, int64_t sink, const int64_t *start,
              const int64_t *arcs, const int64_t *to, int64_t *res,
              int64_t *work)
{
    int64_t *level = work, *queue = work + n, *pointer = work + 2 * n;
    /* node levels rise along the path, so it has fewer than n arcs */
    int64_t *path = work + 3 * n;
    int64_t added = 0;
    for (;;) {
        for (int64_t v = 0; v < n; v++)
            level[v] = -1;
        level[source] = 0;
        queue[0] = source;
        for (int64_t head = 0, tail = 1; head < tail && level[sink] < 0; head++) {
            int64_t u = queue[head], d = level[u] + 1;
            for (int64_t k = start[u]; k < start[u + 1]; k++) {
                int64_t a = arcs[k], v = to[a];
                if (level[v] < 0 && res[a] > 0) {
                    level[v] = d;
                    if (v == sink)
                        break;
                    queue[tail++] = v;
                }
            }
        }
        if (level[sink] < 0)
            return added;
        for (int64_t v = 0; v < n; v++)
            pointer[v] = start[v];
        int64_t len = 0, u = source;
        for (;;) {
            if (u == sink) {
                int64_t f = res[path[0]], k = 0;
                for (int64_t i = 1; i < len; i++)
                    if (res[path[i]] < f)
                        f = res[path[i]];
                for (int64_t i = 0; i < len; i++) {
                    res[path[i]] -= f;
                    res[path[i] ^ 1] += f;
                }
                added += f;
                while (res[path[k]] != 0)
                    k++;
                len = k;
                u = len ? to[path[len - 1]] : source;
                continue;
            }
            int64_t k = pointer[u], end = start[u + 1], want = level[u] + 1;
            while (k < end && !(res[arcs[k]] > 0 && level[to[arcs[k]]] == want))
                k++;
            pointer[u] = k;
            if (k < end) {
                path[len++] = arcs[k];
                u = to[arcs[k]];
                continue;
            }
            if (u == source)
                break;
            level[u] = -1;
            u = to[path[--len] ^ 1];
            pointer[u]++;
        }
    }
}

/* Tarjan's pass over the arcs a with res[a] != 0: work[v] becomes the label
   of node v's strongly connected component, labels counted in the order the
   components complete.  Roots are taken in node order and arcs in CSR order.
   A visited node is on Tarjan's stack until it is labelled.  work holds 6n
   int64. */
void tarjan(int64_t n, const int64_t *start, const int64_t *arcs, const int64_t *to,
            const int64_t *res, int64_t *work)
{
    int64_t *comp = work, *index = work + n, *low = work + 2 * n,
            *next = work + 3 * n, *stack = work + 4 * n, *call = work + 5 * n;
    int64_t count = 0, labels = 0, top = 0;
    for (int64_t v = 0; v < n; v++) {
        comp[v] = index[v] = -1;
        next[v] = start[v];
    }
    for (int64_t root = 0; root < n; root++) {
        if (index[root] >= 0)
            continue;
        index[root] = low[root] = count++;
        stack[top++] = root;
        int64_t depth = 0;
        call[depth++] = root;
        while (depth) {
            int64_t u = call[depth - 1];
            if (next[u] < start[u + 1]) {
                int64_t a = arcs[next[u]++], v = to[a];
                if (!res[a])
                    continue;
                if (index[v] < 0) {
                    index[v] = low[v] = count++;
                    stack[top++] = v;
                    call[depth++] = v;
                } else if (comp[v] < 0 && index[v] < low[u])
                    low[u] = index[v];
                continue;
            }
            if (--depth && low[u] < low[call[depth - 1]])
                low[call[depth - 1]] = low[u];
            if (low[u] == index[u]) {
                int64_t w;
                do {
                    w = stack[--top];
                    comp[w] = labels;
                } while (w != u);
                labels++;
            }
        }
    }
}
"""


@cache
def _dinic():
    """The compiled flow library, holding the layout pass (`build`), Dinic's
    loop (`dinic`) and Tarjan's pass (`tarjan`), or None where it cannot be
    built or loaded (see `native.load`), in which case the Python loops run."""
    lib = native.load("dinic", _DINIC_SOURCE)
    if lib is None:
        return None
    lib.build.argtypes = ([ctypes.c_int64] * 3 + [ctypes.c_void_p] * 2 + [ctypes.c_int64]
                          + [ctypes.c_void_p] * 5)
    lib.build.restype = None
    lib.dinic.argtypes = [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 5
    lib.dinic.restype = ctypes.c_int64
    lib.tarjan.argtypes = [ctypes.c_int64] + [ctypes.c_void_p] * 5
    lib.tarjan.restype = None
    return lib


def _arc_layout(m: int, n: int, edges: Sequence[tuple[int, int]], units: Sequence[int],
                inf: int) -> tuple[list[int], list[int], list[int], list[int]]:
    """(start, arcs, to, res) of the network, as lists: the arrays `build`
    fills in, for the Python loops and as its oracle."""
    sink = m + n + 1
    ends = [(0, i) for i in range(1, m + 1)]
    ends += [(i, m + j) for i, j in edges]
    ends += [(v, sink) for v in range(m + 1, sink)]
    ends += [(i, sink) for i in range(1, m + 1)]
    caps = [*units[:m], *[inf] * len(edges), *units[m:], *[0] * m]
    rows: list[list[int]] = [[] for _ in range(sink + 1)]
    to: list[int] = []
    for a, (u, v) in enumerate(ends):
        rows[u].append(2 * a)
        rows[v].append(2 * a + 1)
        to += (v, u)
    start = [0, *accumulate(map(len, rows))]
    return start, list(chain.from_iterable(rows)), to, [r for cap in caps for r in (cap, 0)]


_INT64_MAX = (1 << 63) - 1

FREE, IN, OUT = 0, 1, 2


class _Transport:
    """The transportation network of inst and its exact max flow.

    It alone reads its nodes and arcs: callers solve with max_flow() and
    read the solved network through assignment(), scc_labels() and
    cut_demands().

    force(i, IN) makes demand i's source arc uncapacitated and force(i, OUT)
    its sink arc, so a min cut keeps i on the source or the sink side.  The
    demands on the source side of a min cut then minimize mu(N(C)) - nu(C)
    over the sets C the forcing allows, and the cut's value is that minimum
    plus nu of every demand.
    """

    def __init__(self, inst: ProblemInstance, order_seed: int = 0):
        m, n = inst.m, inst.n
        self.inst = inst
        self.n_nodes = m + n + 2
        self.source = 0
        self.sink = m + n + 1
        # no arc capacity exceeds inf
        self.inf = 2 * inst.total_units + 1
        # value of the flow the arcs carry
        self.flow = 0
        self.mode = [FREE] * (m + 1)
        edges = inst.sorted_edges
        if order_seed:
            edges = list(edges)
            random.Random(order_seed).shuffle(edges)
        # the instance's edges in arc order
        self.edges = edges
        # demand i's source arc is 2i - 2; supply node v's supply arc is
        # _supply_arcs + 2v and demand i's sink arc _sink_arcs + 2i
        self._supply_arcs = 2 * len(edges) - 2
        self._sink_arcs = 2 * (m + len(edges) + n) - 2
        units = inst.demand_units + inst.supply_units
        self._lib = _dinic() if self.inf <= _INT64_MAX else None
        if self._lib is None:
            self.start, self.arcs, self.arc_to, self.res = _arc_layout(m, n, edges, units,
                                                                       self.inf)
        else:
            size = 2 * (2 * m + len(edges) + n)
            bufs = [array("q", bytes(8 * k))
                    for k in (self.n_nodes + 1, size, size, size, 6 * self.n_nodes)]
            self.start, self.arcs, self.arc_to, self.res, self._work = bufs
            # (start, arcs, to, res, work) as the C loops take them
            self._buffers = [b.buffer_info()[0] for b in bufs]
            # packed by struct: array("q", ...) converts item by item
            pairs = struct.pack(f"{2 * len(edges)}q", *chain.from_iterable(edges))
            self._lib.build(m, n, len(edges), pairs, struct.pack(f"{m + n}q", *units),
                            self.inf, *self._buffers)

    @cached_property
    def edge_arc(self) -> dict[tuple[int, int], int]:
        """The arc of each instance edge."""
        m = self.inst.m
        return dict(zip(self.edges, range(2 * m, 2 * (m + len(self.edges)), 2)))

    def _levels(self) -> list[int]:
        """BFS distance from the source over residual arcs (-1 unreached).

        Stops once the sink is reached: every node nearer than the sink has
        its level by then, and a farther one lies on no shortest path."""
        res, to, arcs, start, sink = self.res, self.arc_to, self.arcs, self.start, self.sink
        level = [-1] * self.n_nodes
        level[self.source] = 0
        queue = [self.source]
        for u in queue:
            d = level[u] + 1
            for a in arcs[start[u]:start[u + 1]]:
                v = to[a]
                if level[v] < 0 and res[a] > 0:
                    level[v] = d
                    if v == sink:
                        return level
                    queue.append(v)
        return level

    def _blocking_flow(self, level: list[int]) -> int:
        """Saturate every shortest augmenting path of the level graph."""
        res, to, arcs, start = self.res, self.arc_to, self.arcs, self.start
        source, sink = self.source, self.sink
        pointer = start[:-1]
        path: list[int] = []
        pushed = 0
        u = source
        while True:
            if u == sink:
                f = min(res[a] for a in path)
                for a in path:
                    res[a] -= f
                    res[a ^ 1] += f
                pushed += f
                # resume from the tail of the first arc the push saturated
                k = next(k for k, a in enumerate(path) if res[a] == 0)
                del path[k:]
                u = to[path[-1]] if path else source
                continue
            k = pointer[u]
            end = start[u + 1]
            want = level[u] + 1
            while k < end:
                a = arcs[k]
                if res[a] > 0 and level[to[a]] == want:
                    break
                k += 1
            pointer[u] = k
            if k < end:
                path.append(arcs[k])
                u = to[arcs[k]]
                continue
            # dead end: no later path can use u in this phase
            if u == source:
                return pushed
            level[u] = -1
            a = path.pop()
            u = to[a ^ 1]
            pointer[u] += 1

    def max_flow(self) -> int:
        """Augment the current flow to a maximum one; returns its value."""
        if self._lib is not None:
            self.flow += self._lib.dinic(self.n_nodes, self.source, self.sink, *self._buffers)
            return self.flow
        while True:
            level = self._levels()
            if level[self.sink] < 0:
                return self.flow
            self.flow += self._blocking_flow(level)

    def cut_demands(self) -> list[int]:
        """The demands with no residual path to the sink, in order.  After
        max_flow() they are the demands on the source side of the min cut
        with the largest source side."""
        res, to, arcs, start = self.res, self.arc_to, self.arcs, self.start
        blocked = [True] * self.n_nodes
        blocked[self.sink] = False
        queue = [self.sink]
        for v in queue:
            for a in arcs[start[v]:start[v + 1]]:
                u = to[a]
                if blocked[u] and res[a ^ 1] > 0:
                    blocked[u] = False
                    queue.append(u)
        return [i for i in range(1, self.inst.m + 1) if blocked[i]]

    def scc_labels(self) -> list[int]:
        """Strongly connected component label of each demand, then each
        supply, in the residual graph, whose arcs are the arcs with res > 0
        (Tarjan, iterative, over every node)."""
        if self._lib is not None:
            self._lib.tarjan(self.n_nodes, *self._buffers)
            return self._work[1:self.sink].tolist()
        arcs, start, to, res = self.arcs, self.start, self.arc_to, self.res
        size = self.n_nodes
        index = [-1] * size
        low = [0] * size
        comp = [-1] * size
        next_arc = start[:-1]
        on_stack = [False] * size
        stack: list[int] = []
        count = labels = 0
        for root in range(size):
            if index[root] >= 0:
                continue
            index[root] = low[root] = count
            count += 1
            stack.append(root)
            on_stack[root] = True
            call = [root]
            while call:
                u = call[-1]
                k = next_arc[u]
                if k < start[u + 1]:
                    next_arc[u] = k + 1
                    a = arcs[k]
                    if not res[a]:
                        continue
                    v = to[a]
                    if index[v] < 0:
                        index[v] = low[v] = count
                        count += 1
                        stack.append(v)
                        on_stack[v] = True
                        call.append(v)
                    elif on_stack[v] and index[v] < low[u]:
                        low[u] = index[v]
                    continue
                call.pop()
                if call and low[u] < low[call[-1]]:
                    low[call[-1]] = low[u]
                if low[u] == index[u]:
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp[w] = labels
                        if w == u:
                            break
                    labels += 1
        return comp[1:-1]

    def _set_cap(self, a: int, cap: int) -> None:
        self.res[a] = cap - self.res[a ^ 1]

    def drain(self, i: int) -> None:
        """Zero the flow through demand i: its source arc, its edges, the
        supply arcs of those edges' supplies and its sink arc."""
        res, to, start, supply_arcs = self.res, self.arc_to, self.start, self._supply_arcs
        # demand i's row: its source arc's reverse, its edge arcs, its sink arc
        for a in self.arcs[start[i] + 1:start[i + 1] - 1]:
            x = res[a ^ 1]
            if x:
                res[a] += x
                res[a ^ 1] = 0
                s = supply_arcs + 2 * to[a]
                res[s] += x
                res[s ^ 1] -= x
        a = 2 * i - 2
        self.flow -= res[a ^ 1]
        res[a] += res[a ^ 1]
        res[a ^ 1] = 0
        a = self._sink_arcs + 2 * i
        res[a] += res[a ^ 1]
        res[a ^ 1] = 0

    def force(self, i: int, mode: int) -> None:
        """Set demand i FREE, IN or OUT; the flow stays feasible."""
        if mode == self.mode[i]:
            return
        if self.mode[i] != FREE:
            # a capacity drops: the flow through i may exceed it
            self.drain(i)
        self.mode[i] = mode
        nu = self.inst.demand_units[i - 1]
        self._set_cap(2 * i - 2, self.inf if mode == IN else nu)
        self._set_cap(self._sink_arcs + 2 * i, self.inf if mode == OUT else 0)

    def assignment(self) -> Assignment:
        res, scale = self.res, self.inst.scale
        entries = {}
        for (i, j), a in self.edge_arc.items():
            if res[a ^ 1] > 0:
                entries[(i, j)] = Fraction(res[a ^ 1], scale)
        return Assignment(self.inst.m, self.inst.n, entries)


def is_feasible(inst: ProblemInstance) -> bool:
    """True iff the polytope is non-empty (all demand routable)."""
    return _Transport(inst).max_flow() == inst.total_units


def _feasible_network(inst: ProblemInstance, order_seed: int = 0) -> _Transport:
    """inst's network carrying a saturating max flow: a feasible point."""
    net = _Transport(inst, order_seed=order_seed)
    if net.max_flow() != inst.total_units:
        raise Infeasible("no feasible assignment: capacity region violated")
    return net


def find_feasible_point(inst: ProblemInstance, order_seed: int = 0) -> Assignment:
    """Any point of the polytope, extracted from an exact max flow."""
    return _feasible_network(inst, order_seed=order_seed).assignment()


def greedy_extreme_point(demand: Sequence, supply: Sequence) -> Assignment:
    """Extreme point of the complete-bipartite polytope by greedy saturation.

    Repeatedly picks the lexicographically smallest active (demand, supply)
    pair, routes the largest possible amount, and retires whichever side is
    exhausted; on a tie both sides retire, which is exactly what produces
    degenerate extreme points with several components.

    Picking the pairs in other orders reaches every extreme point; with
    integer rates every entry is an integer multiple of the combined GCD.
    """
    nu = [parse_rational(v) for v in demand]
    mu = [parse_rational(v) for v in supply]
    m, n = len(nu), len(mu)
    _scale, units = _units(nu + mu)
    if sum(units[:m]) != sum(units[m:]):
        raise UnbalancedTotals("greedy extreme point needs balanced totals")
    for v in nu + mu:
        if v < 0:
            raise NegativeRate("rates must be nonnegative")
    active_i = set(range(1, m + 1))
    active_j = set(range(1, n + 1))
    entries: dict[tuple[int, int], Fraction] = {}
    while active_i and active_j:
        i = min(active_i)
        j = min(active_j)
        v = min(nu[i - 1], mu[j - 1])
        if v > 0:
            entries[(i, j)] = v
        if nu[i - 1] <= mu[j - 1]:
            active_i.discard(i)
        if nu[i - 1] >= mu[j - 1]:
            active_j.discard(j)
        nu[i - 1] -= v
        mu[j - 1] -= v
    return Assignment(m, n, entries)
