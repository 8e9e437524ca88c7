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

Every campaign runs its steps chunk by chunk in a small C loop compiled on
first use (`_kernel`); where it cannot be built, the same loop runs in
Python.  Both give identical results.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import native
from .core import ProblemInstance, parse_rational
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
    """Post-warmup sums of one replication, added chunk by chunk, so both
    step loops give the same floating-point results bit for bit."""

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
            s1 = w[:, cols].sum(axis=1)
            perp_sq += sq[:, cols].sum(axis=1) - s1 * s1 / len(cols)
        # clamp tiny negatives from cancellation before the square root
        np.maximum(perp_sq, 0.0, out=perp_sq)
        self.sum_perp += float(np.sqrt(perp_sq).sum())
        self.samples += qarr.shape[0]


def _arrival_chunk(gens, probs_f, levels, length: int) -> np.ndarray:
    """One chunk of arrivals as a C-contiguous (length, m) int64 array."""
    out = np.empty((length, len(gens)), dtype=np.int64)
    for i, (g, p, l) in enumerate(zip(gens, probs_f, levels)):
        np.multiply(g.random(length) < p, l, out=out[:, i])
    return out


# One MaxWeight slot per row t: multi-queue server k gives mu[k] to a longest
# queue among cand[off[k]:off[k+1]], a tie taking tied[(int)(u * count)] for
# its draw u, exactly as the Python loop below; then q = max(q + a - s, 0).
# simulate() refuses runs whose queue lengths could leave int64.
_KERNEL_SOURCE = r"""
#include <stdint.h>

void maxweight_steps(int64_t length, int64_t m, int64_t k_multi,
                     const int64_t *arrivals, const double *ties,
                     const int64_t *base, const int64_t *off,
                     const int64_t *cand, const int64_t *mu,
                     int64_t *q, int64_t *s, int64_t *tied, int64_t *qarr)
{
    for (int64_t t = 0; t < length; t++) {
        for (int64_t i = 0; i < m; i++)
            s[i] = base[i];
        for (int64_t k = 0; k < k_multi; k++) {
            int64_t best = -1, count = 0;
            for (int64_t c = off[k]; c < off[k + 1]; c++) {
                int64_t qi = q[cand[c]];
                if (qi > best) {
                    best = qi;
                    count = 0;
                }
                if (qi == best)
                    tied[count++] = cand[c];
            }
            s[tied[(int64_t)(ties[t * k_multi + k] * (double)count)]] += mu[k];
        }
        for (int64_t i = 0; i < m; i++) {
            int64_t x = q[i] + arrivals[t * m + i] - s[i];
            q[i] = x > 0 ? x : 0;
            qarr[t * m + i] = q[i];
        }
    }
}
"""


@functools.cache
def _kernel():
    """The compiled MaxWeight step loop, or None where it cannot be built or
    loaded (see `native.load`), in which case the Python loop runs."""
    lib = native.load("maxweight", _KERNEL_SOURCE)
    if lib is None:
        return None
    fn = lib.maxweight_steps
    ints = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    out = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS,WRITEABLE")
    floats = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    fn.argtypes = [ctypes.c_int64] * 3 + [ints, floats, ints, ints, ints, ints] + [out] * 4
    fn.restype = None
    return fn


def _python_steps(arrivals, ties, base, off, cand, mu, q, qarr) -> None:
    """The kernel's loop over one chunk, for where the kernel is missing."""
    bounds = off.tolist()
    servers = list(zip((cand[a:b].tolist() for a, b in zip(bounds, bounds[1:])),
                       mu.tolist()))
    base_row = base.tolist()
    cur = q.tolist()
    rows = []
    for a_row, u_row in zip(arrivals.tolist(), ties.tolist()):
        s = base_row.copy()
        for (candidates, muk), u in zip(servers, u_row):
            best = -1
            tied: list[int] = []
            for i in candidates:
                qi = cur[i]
                if qi > best:
                    best = qi
                    tied = [i]
                elif qi == best:
                    tied.append(i)
            s[tied[int(u * len(tied))]] += muk
        cur = [max(qi + ai - si, 0) for qi, ai, si in zip(cur, a_row, s)]
        rows.append(cur)
    qarr[:] = rows
    q[:] = cur


@dataclass(frozen=True)
class _Campaign:
    """Checked arguments of one simulate call or heavy-traffic sweep, and
    what all of its runs share: the blocks and the service side.

    ``base`` is the constant service of servers with one compatible queue;
    the other servers with positive rate (``servers``, 0-based) are listed in
    CSR form, server k choosing among ``cand[off[k]:off[k + 1]]`` with rate
    ``mu[k]``.
    """

    models: tuple[ArrivalModel, ...]
    horizon: int
    warmup: int
    seed: int
    replications: int
    components: tuple[tuple[int, ...], ...]
    comp_cols: list[np.ndarray]
    base: np.ndarray
    servers: tuple[int, ...]
    off: np.ndarray
    cand: np.ndarray
    mu: np.ndarray


def _campaign(
    inst: ProblemInstance, eps_values, horizon, warmup, seed, replications,
    arrival_levels: Sequence[int] | None = None,
) -> _Campaign:
    """Check a campaign in simulate's order; the decomposition that checks
    feasibility serves all of its eps values."""
    if max(inst.m, inst.n) >= _MAX_VERTICES:
        raise SizeLimitExceeded(
            f"{inst.m} queues and {inst.n} servers; the simulator takes fewer"
            f" than {_MAX_VERTICES} of each"
        )
    for j in range(inst.n):
        if not inst.supply_adj[j]:
            raise IsolatedServer(f"supply vertex {j + 1} has no edges")
    models = [make_arrival_model(inst, eps, arrival_levels) for eps in eps_values]
    _, mu = _integer_rates(inst)
    try:
        decomp = crp_decomposition(inst)
    except Infeasible:
        raise Infeasible(
            "nominal rates do not fit the graph; the chain would be unstable"
        ) from None
    if not isinstance(horizon, int) or isinstance(horizon, bool) or horizon < 1:
        raise ValueError("horizon must be a positive integer")
    if warmup is None:
        warmup = horizon // 10
    if not isinstance(warmup, int) or isinstance(warmup, bool) or not 0 <= warmup < horizon:
        raise ValueError("warmup must be an integer in [0, horizon)")
    if not isinstance(replications, int) or isinstance(replications, bool) or replications < 1:
        raise ValueError("replications must be a positive integer")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    # a queue holds at most horizon * level_i and one slot serves at most
    # sum(mu), which bounds every value of the step loops
    top = horizon * max(sum(md.levels) for md in models) + sum(mu)
    if top >= 1 << 63:
        raise SizeLimitExceeded(
            f"horizon x sum of arrival levels + sum of service rates is {top};"
            f" queue lengths must stay below 2^63"
        )

    # a block without demands holds no queue
    components = tuple(comp.demands for comp in decomp.components if comp.demands)
    base = np.zeros(inst.m, dtype=np.int64)
    servers, off, cand = [], [0], []
    for j, nbrs in enumerate(inst.supply_adj):
        if len(nbrs) == 1:
            base[nbrs[0] - 1] += mu[j]
        elif mu[j] > 0:
            servers.append(j)
            cand += [i - 1 for i in nbrs]
            off.append(len(cand))
    return _Campaign(
        models=tuple(models), horizon=horizon, warmup=warmup, seed=seed,
        replications=replications, components=components,
        comp_cols=[np.array([i - 1 for i in comp], dtype=np.intp) for comp in components],
        base=base, servers=tuple(servers), off=np.array(off, dtype=np.int64),
        cand=np.array(cand, dtype=np.int64),
        mu=np.array([mu[j] for j in servers], dtype=np.int64),
    )


def _run_replication(camp: _Campaign, model: ArrivalModel, rep: int) -> _RepAccum:
    """MaxWeight steps, one kernel call (or Python loop) per chunk."""
    m = len(camp.base)
    probs_f = [float(p) for p in model.probs]
    arr_gens = [_stream(camp.seed, rep, _ARRIVAL_STREAM, i) for i in range(m)]
    acc = _RepAccum(m, camp.comp_cols)
    tie_gens = [_stream(camp.seed, rep, _TIE_STREAM, j) for j in camp.servers]
    kernel = _kernel()
    q = np.zeros(m, dtype=np.int64)
    s = np.empty(m, dtype=np.int64)
    tied = np.empty(len(camp.cand), dtype=np.int64)
    done = 0
    while done < camp.horizon:
        length = min(_CHUNK, camp.horizon - done)
        arrivals = _arrival_chunk(arr_gens, probs_f, model.levels, length)
        ties = np.empty((length, len(tie_gens)))
        for k, g in enumerate(tie_gens):
            ties[:, k] = g.random(length)
        qarr = np.empty((length, m), dtype=np.int64)
        if kernel is None:
            _python_steps(arrivals, ties, camp.base, camp.off, camp.cand, camp.mu, q, qarr)
        else:
            kernel(length, m, len(tie_gens), arrivals, ties, camp.base, camp.off,
                   camp.cand, camp.mu, q, s, tied, qarr)
        acc.add(qarr[max(0, camp.warmup - done):])
        done += length
    return acc


def _stats(camp: _Campaign, model: ArrivalModel) -> SimStats:
    """Run every replication at one eps value and pool them."""
    m = len(camp.base)
    rep_q_means = []
    rep_perp = []
    rep_norm = []
    samples = camp.horizon - camp.warmup
    for rep in range(camp.replications):
        acc = _run_replication(camp, model, rep)
        if acc.samples != samples:
            raise InvariantViolation(
                f"replication {rep} kept {acc.samples} samples, expected {samples}"
            )
        rep_q_means.append(tuple(float(v) for v in acc.sum_q / samples))
        rep_perp.append(acc.sum_perp / samples)
        rep_norm.append(acc.sum_norm / samples)

    pooled_q = tuple(
        float(np.mean([r[i] for r in rep_q_means])) for i in range(m)
    )
    return SimStats(
        eps=model.eps,
        horizon=camp.horizon,
        warmup=camp.warmup,
        seed=camp.seed,
        replications=camp.replications,
        model=model,
        components=camp.components,
        queue_means=pooled_q,
        rep_queue_means=tuple(rep_q_means),
        perp_norm_mean=float(np.mean(rep_perp)),
        norm_mean=float(np.mean(rep_norm)),
        rep_perp_norm_means=tuple(rep_perp),
        rep_norm_means=tuple(rep_norm),
        samples_per_rep=samples,
    )


def simulate(
    inst: ProblemInstance,
    eps,
    *,
    horizon: int,
    warmup: int | None = None,
    seed: int = 0,
    replications: int = 1,
    arrival_levels: Sequence[int] | None = None,
) -> SimStats:
    """Run the MaxWeight chain and pool post-warmup averages.

    ``warmup`` defaults to 10% of the horizon.  Replications use disjoint
    Philox streams derived from (seed, replication), so adding replications
    never perturbs earlier ones; pooling weighs replications equally.
    Refuses 2^20 or more queues or servers, past what the stream keys hold,
    and runs whose queue lengths could reach 2^63: horizon x sum of arrival
    levels + sum of service rates must stay below it.
    """
    camp = _campaign(inst, [eps], horizon, warmup, seed, replications, arrival_levels)
    return _stats(camp, camp.models[0])


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
    camp = _campaign(inst, eps_vals, horizon, warmup, seed, replications, arrival_levels)
    components = camp.components
    nu = camp.models[0].rates
    limit_var = camp.models[0].limit_variances
    rhs = Fraction(0)
    for comp in components:
        rhs += Fraction(sum(limit_var[i - 1] for i in comp), 2 * len(comp))

    rows = []
    for model in camp.models:
        e = model.eps
        stats = _stats(camp, model)
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
