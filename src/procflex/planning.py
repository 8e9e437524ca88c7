"""Multi-step edge-addition planning.

Starting from a disjoint union of eta pooling blocks, the only schedules
worth considering extend one growing chain of blocks and occasionally close
it into a cycle; a close at step k_l (the l-th close) drops the block count
to max(eta - k_l + l, 1) and nothing else moves it.  Valid close vectors k
satisfy 1 <= k_1 < ... < k_p <= K with k_i <= eta + i - 1; consecutive
closes need at least one chain step between them, since a back-to-back close
would reuse an edge already present.  Optimization over this family is a
small dynamic program on (number of closes, step of last close).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

from .augmentation import _best_edge
from .core import ProblemInstance, parse_rational
from .decomposition import CrpDecomposition, crp_decomposition
from .errors import AlreadyCrp, InvalidK, InvariantViolation, SizeLimitExceeded

__all__ = [
    "ClosedFormReport",
    "GreedyOptimalReport",
    "Objective",
    "PlanReport",
    "Schedule",
    "erp_trajectory",
    "greedy_vs_optimal_report",
    "make_objective",
    "plan_schedule",
    "structured_schedule",
]

# Largest eta and horizon a plan may ask for, and the largest eta * horizon *
# (bits of the tables' common denominator), the size of the DP's scaled
# integer tables.  The DP makes about min(eta, K)**3 / 12 transitions
# (651 949 at 200 x 200) of O(1) exact operations each.  At 200 x 200 a plan
# takes 0.08 s for "final", 0.13 s for "sum", and 0.8 s and 35 MB for tables
# whose entries have 630 distinct prime denominators (a 6609-bit lcm, at the
# bits limit; Python 3.11, one core).
MAX_PLAN_SIZE = 200
MAX_PLAN_TABLE_BITS = 1 << 28

# abstract moves: ("chain", a, b) adds (i_a, j_b); ("close", a, b) likewise
# but completes a cycle; ("filler",) is a neutral edge after the chain ends
Move = tuple


def erp_trajectory(inst: ProblemInstance, edges) -> list[int]:
    """Block count after each addition, from one decomposition of inst."""
    dec = crp_decomposition(inst)
    out: list[int] = []
    for edge in edges:
        dec = dec.with_edge(edge)
        out.append(dec.erp_number)
    return out


@dataclass(frozen=True)
class Objective:
    """Per-step non-decreasing cost tables f_1..f_K over block counts 1..eta."""

    kind: str
    eta: int
    tables: tuple[tuple, ...]

    @property
    def horizon(self) -> int:
        return len(self.tables)

    def value_at(self, step: int, erp: int):
        return self.tables[step - 1][erp - 1]

    def total(self, trajectory):
        return sum(self.value_at(k, v) for k, v in enumerate(trajectory, start=1))


def make_objective(spec, eta: int, K: int) -> Objective:
    """Normalize "sum" | "final" | explicit tables into an Objective."""
    if isinstance(spec, Objective):
        if spec.eta != eta or spec.horizon != K:
            raise ValueError(
                f"objective shaped for eta={spec.eta}, K={spec.horizon},"
                f" needed eta={eta}, K={K}"
            )
        return spec
    identity = tuple(range(1, eta + 1))
    if spec == "sum":
        return Objective("sum", eta, tuple(identity for _ in range(K)))
    if spec == "final":
        zeros = tuple(0 for _ in range(eta))
        tables = tuple(zeros for _ in range(K - 1)) + ((identity,) if K else ())
        return Objective("final", eta, tables)
    if isinstance(spec, str):
        raise ValueError(f"unknown objective {spec!r}; use 'sum', 'final' or tables")
    tables = []
    for row in spec:
        if not isinstance(row, (list, tuple)):
            raise TypeError(f"an objective table is a list of entries, not {row!r}")
        vals = tuple(parse_rational(v) for v in row)
        if len(vals) != eta:
            raise ValueError(f"objective table needs {eta} entries, got {len(vals)}")
        if any(a > b for a, b in zip(vals, vals[1:])):
            raise ValueError("objective tables must be non-decreasing in block count")
        tables.append(vals)
    if len(tables) != K:
        raise ValueError(f"need {K} objective tables, got {len(tables)}")
    return Objective("tables", eta, tuple(tables))


def _check_k(eta: int, K: int, k: tuple[int, ...]) -> None:
    prev = 0
    for idx, ki in enumerate(k, start=1):
        if not isinstance(ki, int):
            raise InvalidK(f"close steps must be integers, got {ki!r}")
        if ki <= prev + 1:
            # a close needs at least one chain step since the previous one,
            # otherwise its edge already exists
            raise InvalidK(f"close step {ki} too early after {prev}")
        if ki > eta + idx - 1:
            raise InvalidK(f"close step {ki} exceeds eta+{idx}-1 = {eta + idx - 1}")
        if ki > K:
            raise InvalidK(f"close step {ki} beyond horizon {K}")
        prev = ki


def _close_trajectory(eta: int, K: int, k: tuple[int, ...]) -> tuple[int, ...]:
    """Block count after each of the K steps under close vector k."""
    vals = []
    cur = eta
    closes = 0
    for step in range(1, K + 1):
        if closes < len(k) and step == k[closes]:
            closes += 1
            cur = max(eta - step + closes, 1)
        vals.append(cur)
    return tuple(vals)


@dataclass(frozen=True)
class Schedule:
    """A structured edge-addition plan: chain moves plus p cycle closes."""

    eta: int
    horizon: int
    cycle_steps: tuple[int, ...]
    moves: tuple[Move, ...]

    @property
    def p(self) -> int:
        return len(self.cycle_steps)

    def trajectory(self) -> tuple[int, ...]:
        return _close_trajectory(self.eta, self.horizon, self.cycle_steps)

    def realize(self, inst: ProblemInstance) -> list[tuple[int, int]]:
        """Concrete edges on an instance whose blocks are all separate.

        Block l's representatives are its lowest demand and supply index.
        Filler moves become the smallest absent edge that changes nothing.
        """
        return self._realize(crp_decomposition(inst))

    def _realize(self, dec: CrpDecomposition) -> list[tuple[int, int]]:
        if dec.redundant_edges:
            raise ValueError("schedules assume a graph with no redundant edges")
        if dec.erp_number != self.eta:
            raise ValueError(
                f"schedule built for {self.eta} blocks, instance has {dec.erp_number}"
            )
        for label, c in enumerate(dec.components, start=1):
            if not (c.demands and c.supplies):
                raise ValueError(
                    f"block {label} (demands {list(c.demands)}, supplies "
                    f"{list(c.supplies)}) needs a demand and a supply to connect"
                )
        reps = [(min(c.demands), min(c.supplies)) for c in dec.components]
        edges: list[tuple[int, int]] = []
        counts: list[int] = []
        for move in self.moves:
            if move[0] == "filler":
                edge = self._neutral_edge(dec)
            else:
                _kind, a, b = move
                edge = (reps[a - 1][0], reps[b - 1][1])
            edges.append(edge)
            dec = dec.with_edge(edge)
            counts.append(dec.erp_number)
        if tuple(counts) != self.trajectory():
            raise InvariantViolation(
                f"realized trajectory {tuple(counts)} differs from plan {self.trajectory()}"
            )
        return edges

    @staticmethod
    def _neutral_edge(dec: CrpDecomposition) -> tuple[int, int]:
        for edge in _absent_edges(dec):
            if len(dec.merged_by(edge)) <= 1:
                return edge
        raise ValueError("cannot realize a filler step: no neutral edge left")

    def to_dict(self) -> dict:
        return {
            "eta": self.eta,
            "horizon": self.horizon,
            "p": self.p,
            "cycle_steps": list(self.cycle_steps),
            "moves": [list(mv) for mv in self.moves],
        }


def structured_schedule(eta: int, K: int, k=()) -> Schedule:
    """The explicit plan for close vector k: chain edges between consecutive
    blocks at ordinary steps, a cycle-closing edge at each k_l."""
    if not isinstance(eta, int) or isinstance(eta, bool) or eta < 1:
        raise ValueError(f"eta must be a positive integer, got {eta!r}")
    if not isinstance(K, int) or isinstance(K, bool) or K < 0:
        raise ValueError(f"budget K must be a non-negative integer, got {K!r}")
    k = tuple(k)
    p = len(k)
    _check_k(eta, K, k)
    moves: list[Move] = []
    closes = 0
    for step in range(1, K + 1):
        if closes < p and step == k[closes]:
            l = closes + 1
            a = k[closes] - l + 1
            b = (k[closes - 1] if closes else 0) - l + 2
            moves.append(("close", a, b))
            closes += 1
        else:
            a = step - closes
            if a + 1 <= eta:
                moves.append(("chain", a, a + 1))
            else:
                if closes < p:
                    raise InvariantViolation("chain exhausted before final close")
                moves.append(("filler",))
    return Schedule(eta=eta, horizon=K, cycle_steps=k, moves=tuple(moves))


def _dp_plan(eta: int, K: int, obj: Objective):
    """Exact optimum over all valid close vectors (including the empty one).

    State (l, s): l closes so far, the last at step s (state (0, 0) before
    any).  The block count in force after state (l, s) is v = eta for l = 0
    and max(eta - s + l, 1) otherwise, and nothing changes it until the
    next close.  So with the prefix row P_v[t] = f_1(v) + ... + f_t(v), the
    move from (l, s) to a close at t costs P_v[t-1] - P_v[s] plus the close
    step's own f_t, and staying at (l, s) to the horizon costs
    P_v[K] - P_v[s]: O(1) exact operations per transition.  Level l is a
    list indexed by the last close step s, None where (l, s) is
    unreachable; only the current level's costs are kept, and parent[l][s]
    is the last close step of the state (l, s) came from.

    The DP runs on integers.  Every entry is multiplied by the lcm of all
    denominators, a positive constant, so each sum is scaled by the same
    factor and every comparison and every tie comes out as it would on the
    exact rationals.  The value is then read back from the original entries
    along the chosen trajectory, so it keeps their type (an int for int
    tables) and its str.

    Tie-break: levels l, then s, then t ascending, and a cost is replaced
    only by a strictly smaller one, so each state keeps the parent with the
    earliest last close, and the answer is the first strict minimum in
    (l, s) order: fewest closes, then earliest last close.
    """
    tables = obj.tables
    scale = math.lcm(*(x.denominator for row in tables for x in row))
    if eta * K * scale.bit_length() > MAX_PLAN_TABLE_BITS:
        raise SizeLimitExceeded(
            f"objective tables over eta={eta} and horizon {K} need a common"
            f" denominator of {scale.bit_length()} bits; eta * horizon * bits"
            f" is limited to {MAX_PLAN_TABLE_BITS}"
        )
    prefix = [
        list(accumulate((row[v].numerator * (scale // row[v].denominator) for row in tables),
                        initial=0))
        for v in range(eta)
    ]

    here = [0] + [None] * K
    parent: list[list] = [[]]
    answer = None
    l = 0
    while True:
        hi = min(eta + l, K)
        nxt, back = [None] * (K + 1), [None] * (K + 1)
        for s, run in enumerate(here):
            if run is None:
                continue
            pv = prefix[(eta if l == 0 else max(eta - s + l, 1)) - 1]
            base = run - pv[s]
            # wait at v to the horizon
            total = base + pv[K]
            if answer is None or total < answer[0]:
                answer = (total, l, s)
            # or wait through step t-1 and close at t
            for t in range(s + 2, hi + 1):
                cost = base + pv[t - 1]
                old = nxt[t]
                if old is None or cost < old:
                    nxt[t] = cost
                    back[t] = s
        # any transition reaches t = hi, so an unreached hi means an empty level
        if back[hi] is None:
            break
        # the close step's own cost depends on t only, not on s
        for t in range(2 * l + 2, hi + 1):
            if nxt[t] is not None:
                pv = prefix[max(eta - t + l + 1, 1) - 1]
                nxt[t] += pv[t] - pv[t - 1]
        here = nxt
        parent.append(back)
        l += 1

    _total, l, s = answer
    k_rev = []
    while l:
        k_rev.append(s)
        s = parent[l][s]
        l -= 1
    k = tuple(reversed(k_rev))
    return obj.total(_close_trajectory(eta, K, k)), k


@dataclass(frozen=True)
class ClosedFormReport:
    """The direct-formula schedule for the sum objective, scored honestly."""

    p: int
    k: tuple[int, ...]
    formula_score: Fraction
    value: object
    matches_dp: bool

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "k": list(self.k),
            "formula_score": str(self.formula_score),
            "value": str(self.value),
            "matches_dp": self.matches_dp,
        }


def _closed_form_sum(eta: int, K: int, obj: Objective, dp_value) -> ClosedFormReport | None:
    """Closed-form (p, k) for the sum objective, restricted to usable vectors.

    Taken at face value the score below keeps improving as p grows while the
    floor formula for k collapses into repeats; only p whose k vector is
    actually valid are compared, which is what reproduces the published
    numbers.  The returned value is the schedule's true objective, and the
    flag records whether it ties the dynamic program.
    """
    half = Fraction(1, 2)
    best = None
    for pbar in range(1, eta + 1):
        chain_side = Fraction(eta - 1, pbar) + half
        budget_side = Fraction(K, pbar + 1)
        g = min(chain_side, budget_side) + Fraction(pbar, 2)
        # floor(i*g - i(i-1)/2) on integers: i(i-1)/2 is whole, so it leaves the floor
        k = tuple(
            i * g.numerator // g.denominator - i * (i - 1) // 2 for i in range(1, pbar + 1)
        )
        try:
            _check_k(eta, K, k)
        except InvalidK:
            continue
        indicator = 1 if budget_side < chain_side else 0
        frac = g - math.floor(g)
        score = (pbar + indicator) * (g * g + frac - frac * frac) - Fraction(
            pbar * (pbar + 1) * (2 * pbar + 1), 6
        )
        if best is None or score < best[0]:
            best = (score, pbar, k)
    if best is None:
        return None
    score, pbar, k = best
    value = obj.total(_close_trajectory(eta, K, k))
    return ClosedFormReport(
        p=pbar, k=k, formula_score=score, value=value, matches_dp=value == dp_value
    )


@dataclass(frozen=True)
class PlanReport:
    schedule: Schedule
    trajectory: tuple[int, ...]
    value: object
    objective_kind: str
    closed_form: ClosedFormReport | None

    def to_dict(self) -> dict:
        return {
            "schedule": self.schedule.to_dict(),
            "trajectory": list(self.trajectory),
            "value": str(self.value),
            "objective": self.objective_kind,
            "closed_form": None if self.closed_form is None else self.closed_form.to_dict(),
        }


def plan_schedule(eta: int, K: int, objective) -> PlanReport:
    """Best structured schedule for the objective.

    The dynamic program is the authority on the optimal value, and its close
    vector is the schedule.  For the pure final-count objective that is the
    known closed form: one close at step min(eta, K) when that is a legal
    close, else none.  For the sum objective the closed-form guess is
    evaluated and reported next to the optimum rather than trusted.
    """
    if not isinstance(eta, int) or isinstance(eta, bool) or eta < 1:
        raise ValueError(f"eta must be a positive integer, got {eta!r}")
    if not isinstance(K, int) or isinstance(K, bool) or K < 1:
        raise ValueError(f"budget K must be a positive integer, got {K!r}")
    if max(eta, K) > MAX_PLAN_SIZE:
        raise SizeLimitExceeded(
            f"plan for eta={eta} and horizon {K}; both are limited to {MAX_PLAN_SIZE}"
        )
    obj = make_objective(objective, eta, K)
    value, k = _dp_plan(eta, K, obj)
    sched = structured_schedule(eta, K, k)
    closed_form = _closed_form_sum(eta, K, obj, value) if obj.kind == "sum" else None
    return PlanReport(
        schedule=sched,
        trajectory=sched.trajectory(),
        value=value,
        objective_kind=obj.kind,
        closed_form=closed_form,
    )


@dataclass(frozen=True)
class GreedyOptimalReport:
    horizon: int
    objective_kind: str
    greedy_edges: tuple[tuple[int, int], ...]
    greedy_trajectory: tuple[int, ...]
    greedy_value: object
    optimal_edges: tuple[tuple[int, int], ...] | None
    optimal_trajectory: tuple[int, ...] | None
    optimal_value: object | None
    optimal_mode: str
    note: str

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "objective": self.objective_kind,
            "greedy": {
                "edges": [list(e) for e in self.greedy_edges],
                "trajectory": list(self.greedy_trajectory),
                "value": str(self.greedy_value),
            },
            "optimal": None
            if self.optimal_edges is None
            else {
                "edges": [list(e) for e in self.optimal_edges],
                "trajectory": list(self.optimal_trajectory),
                "value": str(self.optimal_value),
            },
            "optimal_mode": self.optimal_mode,
            "note": self.note,
        }


def _absent_edges(graph: ProblemInstance | CrpDecomposition) -> list[tuple[int, int]]:
    return [
        (i, j)
        for i in range(1, graph.m + 1)
        for j in range(1, graph.n + 1)
        if (i, j) not in graph.edges
    ]


_EXHAUSTIVE_LIMIT = 20_000


def _first_optimum(dec: CrpDecomposition, absent, K: int, obj: Objective):
    """(value, edges, trajectory) of the first of ``permutations(absent, K)``
    with the least objective, K >= 1.  A depth-first walk in that order
    carries each prefix's decomposition, so every distinct prefix costs one
    `with_edge` call rather than one per sequence that extends it."""
    best = None
    seq: list[tuple[int, int]] = []
    traj: list[int] = []
    used = [False] * len(absent)

    def walk(cur: CrpDecomposition) -> None:
        nonlocal best
        for idx, edge in enumerate(absent):
            if used[idx]:
                continue
            nxt = cur.with_edge(edge)
            seq.append(edge)
            traj.append(nxt.erp_number)
            if len(seq) < K:
                used[idx] = True
                walk(nxt)
                used[idx] = False
            else:
                val = obj.total(traj)
                if best is None or val < best[0]:
                    best = (val, tuple(seq), tuple(traj))
            seq.pop()
            traj.pop()

    walk(dec)
    return best


def greedy_vs_optimal_report(
    inst: ProblemInstance, K: int, objective="sum"
) -> GreedyOptimalReport:
    """Repeated best-single-edge against the true K-step optimum.

    With no redundant edges in the start graph the structured family is
    provably optimal, so its dynamic program supplies the optimal side; a
    start graph that already has redundant edges, or a block without a
    demand or a supply (a zero-rate vertex on its own), falls outside that
    theory, so small cases are brute-forced over all ordered K-tuples of
    absent edges and large ones report the optimum as unavailable.
    """
    if not isinstance(K, int) or isinstance(K, bool) or K < 0:
        raise ValueError(f"budget K must be a non-negative integer, got {K!r}")
    dec = crp_decomposition(inst)
    eta = dec.erp_number
    obj = make_objective(objective, eta, K)

    greedy_edges: list[tuple[int, int]] = []
    greedy_traj: list[int] = []
    cur = dec
    for _ in range(K):
        try:
            edge, _eff = _best_edge(cur)
        except AlreadyCrp:
            absent = _absent_edges(cur)
            if not absent:
                break
            edge = absent[0]
        greedy_edges.append(edge)
        cur = cur.with_edge(edge)
        greedy_traj.append(cur.erp_number)
    greedy_value = obj.total(greedy_traj)
    note = ""
    if len(greedy_edges) < K:
        note = "greedy stopped early: graph is complete"

    opt_edges = opt_traj = opt_value = None
    absent = _absent_edges(inst)
    if K == 0:
        mode = "structured"
        opt_edges, opt_traj, opt_value = (), (), 0
    elif len(absent) < K:
        mode = "unavailable"
        note = f"fewer than {K} absent edges; no K-step sequence exists"
    elif not dec.redundant_edges and all(c.demands and c.supplies for c in dec.components):
        mode = "structured"
        report = plan_schedule(eta, K, obj)
        opt_edges = tuple(report.schedule._realize(dec))
        opt_traj, opt_value = report.trajectory, report.value
    elif math.perm(len(absent), K) <= _EXHAUSTIVE_LIMIT:
        mode = "exhaustive"
        opt_value, opt_edges, opt_traj = _first_optimum(dec, absent, K, obj)
    else:
        mode = "unavailable"
        reason = (
            "has redundant edges" if dec.redundant_edges
            else "has a block without a demand or a supply"
        )
        note = (
            f"start graph {reason} and is too large to brute-force;"
            " structured optimality does not apply"
        )

    return GreedyOptimalReport(
        horizon=K,
        objective_kind=obj.kind,
        greedy_edges=tuple(greedy_edges),
        greedy_trajectory=tuple(greedy_traj),
        greedy_value=greedy_value,
        optimal_edges=tuple(opt_edges) if opt_edges is not None else None,
        optimal_trajectory=opt_traj,
        optimal_value=opt_value,
        optimal_mode=mode,
        note=note,
    )
