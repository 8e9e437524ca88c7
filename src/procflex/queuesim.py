"""Discrete-time MaxWeight simulator for parallel server queues.

The chain follows q(k+1) = q(k) + a(k) - s(k) + u(k): arrivals a(k) are
independent two-point draws per queue, the schedule s(k) is the MaxWeight
choice among compatible queues, and u(k) is the unused service forced by the
nonnegativity of q.  Post-warmup time averages feed the heavy-traffic
identity: for each pooling block I_l the scaled sum eps * E[sum q_i] should
approach (1/|I_l|) * sum sigma_i^2 / 2 as eps shrinks, and the queue vector
should collapse onto the span of the block indicators.

Randomness is counter-based: every (replication, purpose, queue-or-server)
triple owns a Philox stream keyed by the seed, and draws are indexed by step,
so results are bit-reproducible and independent of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import ProblemInstance, is_feasible, parse_rational
from .decomposition import crp_decomposition
from .errors import (
    Infeasible,
    InvalidEpsilon,
    InvariantViolation,
    IsolatedServer,
    SizeLimitExceeded,
)

_CHUNK = 1 << 15
# a stream key holds the queue or server index in its low 20 bits
_MAX_VERTICES = 1 << 20
_ARRIVAL_STREAM = 1
_TIE_STREAM = 2


def _check_eps(eps) -> Fraction:
    if isinstance(eps, str):
        value = parse_rational(eps)
    elif isinstance(eps, float):
        # repr() recovers the decimal the caller typed (0.05 -> 1/20)
        value = Fraction(repr(eps))
    elif isinstance(eps, (int, Fraction)):
        value = Fraction(eps)
    else:
        raise TypeError(f"cannot interpret {eps!r} as a rational")
    if not 0 < value < 1:
        raise InvalidEpsilon(f"eps must lie strictly between 0 and 1, got {value}")
    return value


def _integer_rates(inst: ProblemInstance) -> tuple[tuple[int, ...], tuple[int, ...]]:
    nu = []
    for i, r in enumerate(inst.demand, start=1):
        if r.denominator != 1:
            raise ValueError(f"simulator needs integer demand rates; nu_{i} = {r}")
        nu.append(int(r))
    mu = []
    for j, r in enumerate(inst.supply, start=1):
        if r.denominator != 1:
            raise ValueError(f"simulator needs integer supply rates; mu_{j} = {r}")
        mu.append(int(r))
    return tuple(nu), tuple(mu)


@dataclass(frozen=True)
class ArrivalModel:
    """Two-point arrival law: a_i is level_i with probability prob_i, else 0.

    prob_i = (1 - eps) * nu_i / level_i, so the mean is exactly (1 - eps) *
    nu_i and P(a_i = 0) = 1 - prob_i stays positive.
    """

    eps: Fraction
    rates: tuple[int, ...]
    levels: tuple[int, ...]
    probs: tuple[Fraction, ...]

    @property
    def means(self) -> tuple[Fraction, ...]:
        return tuple(l * p for l, p in zip(self.levels, self.probs))

    @property
    def limit_variances(self) -> tuple[Fraction, ...]:
        """Variance with the mean pushed to nu (eps -> 0): level*nu - nu^2."""
        return tuple(Fraction(l * v - v * v) for l, v in zip(self.levels, self.rates))

    @property
    def amax(self) -> int:
        return max(self.levels) if self.levels else 0

    def to_dict(self) -> dict:
        return {
            "eps": str(self.eps),
            "rates": list(self.rates),
            "levels": list(self.levels),
            "probs": [str(p) for p in self.probs],
            "limit_variances": [str(v) for v in self.limit_variances],
        }


def make_arrival_model(
    inst: ProblemInstance, eps, levels: Sequence[int] | None = None
) -> ArrivalModel:
    """Build the two-point arrival model for ``inst`` at load 1 - eps.

    ``levels`` overrides the per-queue high value; the default is the
    smallest integer >= 2 * nu_i (and at least 1), which keeps P(a_i = 0)
    above 1/2.  A level that forces P(a_i = 0) <= 0 is rejected because the
    heavy-traffic constants assume genuinely random arrivals.
    """
    e = _check_eps(eps)
    nu, _ = _integer_rates(inst)
    if levels is None:
        lv = tuple(max(2 * v, 1) for v in nu)
    else:
        if len(levels) != inst.m:
            raise ValueError(f"expected {inst.m} levels, got {len(levels)}")
        lv = []
        for i, l in enumerate(levels, start=1):
            if not isinstance(l, int) or isinstance(l, bool) or l < 1:
                raise ValueError(f"arrival level for queue {i} must be a positive integer")
            lv.append(l)
        lv = tuple(lv)
    probs = []
    for i, (l, v) in enumerate(zip(lv, nu), start=1):
        p = (1 - e) * v / l
        if p >= 1:
            raise ValueError(
                f"arrival level {l} for queue {i} leaves no mass at zero; "
                "pick a level above (1-eps)*nu"
            )
        probs.append(p)
    return ArrivalModel(e, nu, lv, tuple(probs))


@dataclass(frozen=True)
class SimStats:
    """Pooled post-warmup averages of one simulation campaign."""

    eps: Fraction
    horizon: int
    warmup: int
    seed: int
    replications: int
    model: ArrivalModel
    components: tuple[tuple[int, ...], ...]
    queue_means: tuple[float, ...]
    rep_queue_means: tuple[tuple[float, ...], ...]
    perp_norm_mean: float
    norm_mean: float
    rep_perp_norm_means: tuple[float, ...]
    rep_norm_means: tuple[float, ...]
    samples_per_rep: int

    @property
    def ssc_ratio(self) -> float:
        """E||q - q_parallel|| / E||q||; 0 when the system never held a job."""
        if self.norm_mean == 0.0:
            return 0.0
        return self.perp_norm_mean / self.norm_mean

    def to_dict(self) -> dict:
        return {
            "eps": str(self.eps),
            "horizon": self.horizon,
            "warmup": self.warmup,
            "seed": self.seed,
            "replications": self.replications,
            "model": self.model.to_dict(),
            "components": [list(c) for c in self.components],
            "queue_means": list(self.queue_means),
            "rep_queue_means": [list(r) for r in self.rep_queue_means],
            "perp_norm_mean": self.perp_norm_mean,
            "norm_mean": self.norm_mean,
            "ssc_ratio": self.ssc_ratio,
            "samples_per_rep": self.samples_per_rep,
        }


def _stream(seed: int, rep: int, kind: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, (rep << 24) | (kind << 20) | index]))


class _RepAccum:
    """Chunk-wise accumulator shared by both simulation paths, so their
    floating-point results agree bit for bit."""

    def __init__(self, m: int, comp_cols: list[np.ndarray]):
        self.sum_q = np.zeros(m)
        self.sum_perp = 0.0
        self.sum_norm = 0.0
        self.samples = 0
        self.comp_cols = comp_cols

    def add(self, qarr: np.ndarray) -> None:
        if qarr.shape[0] == 0:
            return
        w = qarr.astype(np.float64)
        self.sum_q += w.sum(axis=0)
        sq = w * w
        self.sum_norm += float(np.sqrt(sq.sum(axis=1)).sum())
        perp_sq = np.zeros(qarr.shape[0])
        for cols in self.comp_cols:
            if len(cols) == 1:
                continue
            block = w[:, cols]
            s1 = block.sum(axis=1)
            perp_sq += (block * block).sum(axis=1) - s1 * s1 / len(cols)
        # clamp tiny negatives from cancellation before the square root
        np.maximum(perp_sq, 0.0, out=perp_sq)
        self.sum_perp += float(np.sqrt(perp_sq).sum())
        self.samples += qarr.shape[0]


def _arrival_chunk(gens, probs_f, levels, length: int) -> list[np.ndarray]:
    out = []
    for g, p, l in zip(gens, probs_f, levels):
        out.append((g.random(length) < p).astype(np.int64) * l)
    return out


def _run_replication(
    inst: ProblemInstance,
    model: ArrivalModel,
    mu: tuple[int, ...],
    horizon: int,
    warmup: int,
    seed: int,
    rep: int,
    comp_cols: list[np.ndarray],
) -> _RepAccum:
    m, n = inst.m, inst.n
    probs_f = [float(p) for p in model.probs]
    arr_gens = [_stream(seed, rep, _ARRIVAL_STREAM, i) for i in range(m)]

    # servers with a single compatible queue contribute a constant service
    base = [0] * m
    multi: list[tuple[int, list[int], int]] = []
    for j in range(n):
        nbrs = inst.supply_adj[j]
        if not nbrs:
            raise IsolatedServer(f"supply vertex {j + 1} has no edges")
        if len(nbrs) == 1:
            base[nbrs[0] - 1] += mu[j]
        elif mu[j] > 0:
            multi.append((j, [i - 1 for i in nbrs], mu[j]))

    acc = _RepAccum(m, comp_cols)
    if not multi:
        _run_dedicated(model, arr_gens, probs_f, base, horizon, warmup, acc)
    else:
        _run_general(model, arr_gens, probs_f, base, multi, horizon, warmup, seed, rep, acc)
    return acc


def _run_dedicated(model, arr_gens, probs_f, svec, horizon, warmup, acc) -> None:
    """Every server is dedicated, so each queue follows its own Lindley
    recursion q' = max(q + a - s, 0); whole chunks vectorize."""
    m = len(svec)
    q_prev = np.zeros(m, dtype=np.int64)
    done = 0
    while done < horizon:
        length = min(_CHUNK, horizon - done)
        arrivals = _arrival_chunk(arr_gens, probs_f, model.levels, length)
        qarr = np.empty((length, m), dtype=np.int64)
        for i in range(m):
            x = arrivals[i] - svec[i]
            partial = np.cumsum(x)
            running_min = np.minimum.accumulate(partial)
            qarr[:, i] = partial - np.minimum(running_min, -q_prev[i])
        q_prev = qarr[-1].copy()
        cut = max(0, warmup - done)
        acc.add(qarr[cut:])
        done += length


def _run_general(
    model, arr_gens, probs_f, base, multi, horizon, warmup, seed, rep, acc
) -> None:
    m = len(base)
    tie_gens = {j: _stream(seed, rep, _TIE_STREAM, j) for j, _, _ in multi}
    q = [0] * m
    done = 0
    while done < horizon:
        length = min(_CHUNK, horizon - done)
        arrivals = _arrival_chunk(arr_gens, probs_f, model.levels, length)
        ties = {j: tie_gens[j].random(length) for j, _, _ in multi}
        qarr = np.empty((length, m), dtype=np.int64)
        for t in range(length):
            s = base.copy()
            for j, cand, muj in multi:
                best = -1
                tied: list[int] = []
                for i0 in cand:
                    qi = q[i0]
                    if qi > best:
                        best = qi
                        tied = [i0]
                    elif qi == best:
                        tied.append(i0)
                pick = tied[0] if len(tied) == 1 else tied[int(ties[j][t] * len(tied))]
                s[pick] += muj
            for i0 in range(m):
                x = q[i0] + int(arrivals[i0][t]) - s[i0]
                q[i0] = x if x > 0 else 0
            qarr[t] = q
        cut = max(0, warmup - done)
        acc.add(qarr[cut:])
        done += length


def simulate(
    inst: ProblemInstance,
    eps,
    *,
    horizon: int,
    warmup: int | None = None,
    seed: int = 0,
    replications: int = 1,
    model: ArrivalModel | None = None,
    arrival_levels: Sequence[int] | None = None,
) -> SimStats:
    """Run the MaxWeight chain and pool post-warmup averages.

    ``warmup`` defaults to 10% of the horizon.  Replications use disjoint
    Philox streams derived from (seed, replication), so adding replications
    never perturbs earlier ones; pooling weighs replications equally.
    Refuses 2^20 or more queues or servers, past what the stream keys hold.
    """
    if max(inst.m, inst.n) >= _MAX_VERTICES:
        raise SizeLimitExceeded(
            f"{inst.m} queues and {inst.n} servers; the simulator takes fewer"
            f" than {_MAX_VERTICES} of each"
        )
    for j in range(inst.n):
        if not inst.supply_adj[j]:
            raise IsolatedServer(f"supply vertex {j + 1} has no edges")
    e = _check_eps(eps)
    if model is None:
        model = make_arrival_model(inst, e, arrival_levels)
    elif model.eps != e:
        raise ValueError(f"model was built for eps = {model.eps}, not {e}")
    _, mu = _integer_rates(inst)
    if not is_feasible(inst):
        raise Infeasible("nominal rates do not fit the graph; the chain would be unstable")
    if not isinstance(horizon, int) or horizon < 1:
        raise ValueError("horizon must be a positive integer")
    if warmup is None:
        warmup = horizon // 10
    if not isinstance(warmup, int) or not 0 <= warmup < horizon:
        raise ValueError("warmup must be an integer in [0, horizon)")
    if not isinstance(replications, int) or replications < 1:
        raise ValueError("replications must be a positive integer")
    if not isinstance(seed, int) or seed < 0:
        raise ValueError("seed must be a nonnegative integer")

    decomp = crp_decomposition(inst)
    # a block without demands holds no queue
    components = tuple(comp.demands for comp in decomp.components if comp.demands)
    comp_cols = [np.array([i - 1 for i in comp], dtype=np.intp) for comp in components]

    rep_q_means = []
    rep_perp = []
    rep_norm = []
    samples = horizon - warmup
    for rep in range(replications):
        acc = _run_replication(inst, model, mu, horizon, warmup, seed, rep, comp_cols)
        if acc.samples != samples:
            raise InvariantViolation(
                f"replication {rep} kept {acc.samples} samples, expected {samples}"
            )
        rep_q_means.append(tuple(float(v) for v in acc.sum_q / samples))
        rep_perp.append(acc.sum_perp / samples)
        rep_norm.append(acc.sum_norm / samples)

    pooled_q = tuple(
        float(np.mean([r[i] for r in rep_q_means])) for i in range(inst.m)
    )
    return SimStats(
        eps=e,
        horizon=horizon,
        warmup=warmup,
        seed=seed,
        replications=replications,
        model=model,
        components=components,
        queue_means=pooled_q,
        rep_queue_means=tuple(rep_q_means),
        perp_norm_mean=float(np.mean(rep_perp)),
        norm_mean=float(np.mean(rep_norm)),
        rep_perp_norm_means=tuple(rep_perp),
        rep_norm_means=tuple(rep_norm),
        samples_per_rep=samples,
    )


@dataclass(frozen=True)
class HeavyTrafficRow:
    """One eps value's comparison against the diffusion limit."""

    eps: Fraction
    lhs: float
    rhs: Fraction
    ratio: float
    lhs_se: float
    ssc: float
    ssc_se: float
    queue_means: tuple[float, ...]
    stats: SimStats

    def to_dict(self) -> dict:
        return {
            "eps": str(self.eps),
            "lhs": self.lhs,
            "rhs": str(self.rhs),
            "ratio": self.ratio,
            "lhs_se": self.lhs_se,
            "ssc_ratio": self.ssc,
            "ssc_se": self.ssc_se,
            "queue_means": list(self.queue_means),
        }


@dataclass(frozen=True)
class HeavyTrafficReport:
    """Per-eps LHS/RHS comparison, rows sorted by decreasing eps."""

    rows: tuple[HeavyTrafficRow, ...]
    rhs: Fraction
    components: tuple[tuple[int, ...], ...]

    @property
    def ratios(self) -> tuple[float, ...]:
        return tuple(r.ratio for r in self.rows)

    def to_dict(self) -> dict:
        return {
            "rhs": str(self.rhs),
            "components": [list(c) for c in self.components],
            "rows": [r.to_dict() for r in self.rows],
        }


def _lhs_value(eps: Fraction, nu, components, queue_means) -> float:
    total = 0.0
    for comp in components:
        rate = float(sum(nu[i - 1] for i in comp))
        qsum = sum(queue_means[i - 1] for i in comp)
        total += rate * qsum / len(comp)
    return float(eps) * total


def _se(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(len(values)))


def heavy_traffic_check(
    inst: ProblemInstance,
    eps_list: Sequence,
    *,
    horizon: int,
    warmup: int | None = None,
    seed: int = 0,
    replications: int = 1,
    arrival_levels: Sequence[int] | None = None,
) -> HeavyTrafficReport:
    """Estimate eps * sum_l (sum nu / |I_l|) E[sum q] for each eps and set it
    against the limit constant sum_l (1/|I_l|) sum sigma_i^2 / 2.

    The RHS uses the limit variances (arrival mean at nu), so the reported
    ratio should drift toward 1 as eps decreases.
    """
    if not eps_list:
        raise ValueError("need at least one eps value")
    eps_vals = sorted({_check_eps(e) for e in eps_list}, reverse=True)
    nu, _ = _integer_rates(inst)

    rows = []
    components = None
    rhs = None
    for e in eps_vals:
        stats = simulate(
            inst,
            e,
            horizon=horizon,
            warmup=warmup,
            seed=seed,
            replications=replications,
            arrival_levels=arrival_levels,
        )
        if components is None:
            components = stats.components
            limit_var = stats.model.limit_variances
            rhs = Fraction(0)
            for comp in components:
                rhs += Fraction(sum(limit_var[i - 1] for i in comp), 2 * len(comp))
        lhs = _lhs_value(e, nu, components, stats.queue_means)
        rep_lhs = [_lhs_value(e, nu, components, qm) for qm in stats.rep_queue_means]
        rep_ssc = [
            (p / n if n > 0 else 0.0)
            for p, n in zip(stats.rep_perp_norm_means, stats.rep_norm_means)
        ]
        rows.append(
            HeavyTrafficRow(
                eps=e,
                lhs=lhs,
                rhs=rhs,
                ratio=lhs / float(rhs) if rhs else math.inf,
                lhs_se=_se(rep_lhs),
                ssc=stats.ssc_ratio,
                ssc_se=_se(rep_ssc),
                queue_means=stats.queue_means,
                stats=stats,
            )
        )
    return HeavyTrafficReport(tuple(rows), rhs, components)

