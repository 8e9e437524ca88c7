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
so results are bit-reproducible and independent of evaluation order.  The
keys do not involve eps, so a sweep's eps values share each replication's
streams: a replication draws each chunk's uniforms once and runs every eps
value on them side by side (common random numbers across loads).  Each
chunk's draws are made before its steps: on the compiled path
`philox_rows` (in the same library as the step loop) fills every queue's
row in one call and every server's in another, and the Python loop fills
each row from its own `np.random.Philox` generator (`_stream`), which gives
the same numbers and is the C fill's oracle in the tests.

One `_Campaign` object holds all of a simulate call's or a sweep's state:
its checked arguments, its blocks, its servers in CSR form and the chunk
buffers the C loops write, with their addresses.  Every campaign runs its
steps chunk by chunk in a small C loop compiled on first use (`_kernel`),
which also thresholds the uniforms into arrivals.  A second C function sums
the post-warmup rows for the accumulator whenever every integer it forms is
exact in a double ((m * qmax)^2 and rows * qmax below 2^53, qmax the
chunk's largest queue value).  Other chunks take `_RepAccum.add`, the same
sums in numpy.  Where the library cannot be built, the steps run in a
Python loop and every chunk takes `_RepAccum.add`.  All paths give
identical results.
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
# Most queue values (queues x min(horizon, _CHUNK)) one chunk may hold.  At
# the cap a chain sweep peaks at about 130 MB RSS on the compiled path and
# 190-220 MB when every chunk takes _RepAccum.add, as on the Python loop
# (Python 3.11, numpy 2.4); 1000 queues at a full chunk took 0.8-1.2 GB.
MAX_CHUNK_CELLS = 1 << 22
# a stream key holds the queue or server index in its low 20 bits
_MAX_VERTICES = 1 << 20
# queue values per block of the Python loop, which holds O(m) Python objects
_PY_BLOCK_CELLS = 1 << 12
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
    """The rates as ints (their units at scale 1); ValueError naming the
    first rate that is not an integer."""
    if inst.scale != 1:
        for side, name, rates in (("demand", "nu", inst.demand), ("supply", "mu", inst.supply)):
            for k, r in enumerate(rates, 1):
                if r.denominator != 1:
                    raise ValueError(f"simulator needs integer {side} rates; {name}_{k} = {r}")
    return inst.demand_units, inst.supply_units


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
    def limit_variances(self) -> tuple[Fraction, ...]:
        """Variance with the mean pushed to nu (eps -> 0): level*nu - nu^2."""
        return tuple(Fraction(l * v - v * v) for l, v in zip(self.levels, self.rates))

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
    key = np.array([seed, (rep << 24) | (kind << 20) | index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class _RepAccum:
    """Post-warmup sums of one replication, added chunk by chunk, so both
    step loops give the same floating-point results bit for bit."""

    def __init__(self, m: int, pooled: list[np.ndarray]):
        self.sum_q = np.zeros(m)
        self.sum_perp = 0.0
        self.sum_norm = 0.0
        self.samples = 0
        # the 0-based queues of each block of two or more queues
        self.pooled = pooled

    def add(self, qarr: np.ndarray) -> None:
        if qarr.shape[0] == 0:
            return
        w = qarr.astype(np.float64)
        self.sum_q += w.sum(axis=0)
        sq = w * w
        self.sum_norm += float(np.sqrt(sq.sum(axis=1)).sum())
        perp_sq = np.zeros(qarr.shape[0])
        for cols in self.pooled:
            s1 = w[:, cols].sum(axis=1)
            perp_sq += sq[:, cols].sum(axis=1) - s1 * s1 / len(cols)
        # clamp tiny negatives from cancellation before the square root
        np.maximum(perp_sq, 0.0, out=perp_sq)
        self.sum_perp += float(np.sqrt(perp_sq).sum())
        self.samples += qarr.shape[0]

    def add_rows(self, colsum: np.ndarray, norm: np.ndarray, perp: np.ndarray) -> None:
        """What add() adds, from `row_sums`' column sums and per-row norms."""
        self.sum_q += colsum
        self.sum_norm += float(norm.sum())
        self.sum_perp += float(perp.sum())
        self.samples += len(norm)


# One MaxWeight slot per step t of a chunk of `length` steps.  Queue i's
# arrival is level[i] when its uniform u[i * length + t] is below p[i], else
# 0.  Multi-queue server k gives mu[k] to a longest queue among
# cand[off[k]:off[k + 1]], a tie taking tied[(int)(w * count)] for its draw
# w = ties[k * length + t], exactly as the Python loop below; then
# q = max(q + a - s, 0).  The arrival test and the longest-queue test are
# taken as bit masks, not branches: on random data a branch is mispredicted
# often.  simulate() refuses runs whose queue lengths could leave int64.
#
# row_sums gives, for rows x m queue values, the column sums and each row's
# sqrt(sum q^2) and sqrt(max(perp^2, 0)), perp^2 summed from 0.0 over the
# blocks of two or more queues as _RepAccum.add does.  When (m * qmax)^2
# and rows * qmax are below 2^53 every integer it forms is exact in a
# double, so its values equal _RepAccum.add's bit for bit; otherwise it
# returns 0 without writing and the caller takes _RepAccum.add.  94906265 is
# the largest x with x^2 < 2^53; dividing the bounds avoids int64 overflow.
#
# philox_rows writes draws first .. first + length - 1 of `rows` streams to
# out[r * length ..], stream r being np.random.Philox(key=[k0, key1[r]]) read
# by Generator.random: Philox4x64-10 (Salmon et al., SC 2011) on the counter
# 1, 2, 3, ... (numpy increments it before its first block), block c giving
# draws 4(c - 1) .. 4(c - 1) + 3, a word x giving (x >> 11) * 2^-53.  Two
# blocks run interleaved with their ten rounds written out: on x86-64 (gcc 12)
# that fills at about 0.6x numpy's time per draw, where one block at a time
# was slower than numpy and four blocks were no faster than two.  mulhilo
# takes the 64 x 64 -> 128-bit product from unsigned __int128 where the
# compiler has it and from 32-bit halves elsewhere.
_KERNEL_SOURCE = r"""
#include <math.h>
#include <stdint.h>

#if defined(__SIZEOF_INT128__)
static inline uint64_t mulhilo(uint64_t a, uint64_t b, uint64_t *hi)
{
    unsigned __int128 p = (unsigned __int128)a * b;
    *hi = (uint64_t)(p >> 64);
    return (uint64_t)p;
}
#else
static inline uint64_t mulhilo(uint64_t a, uint64_t b, uint64_t *hi)
{
    uint64_t a0 = a & 0xFFFFFFFFu, a1 = a >> 32, b0 = b & 0xFFFFFFFFu, b1 = b >> 32;
    uint64_t p00 = a0 * b0, p01 = a0 * b1, p10 = a1 * b0;
    uint64_t mid = (p00 >> 32) + (p01 & 0xFFFFFFFFu) + (p10 & 0xFFFFFFFFu);
    *hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32);
    return a * b;
}
#endif

typedef struct { uint64_t x0, x1, x2, x3; } philox_block;

static inline philox_block philox_round(philox_block b, uint64_t k0, uint64_t k1)
{
    uint64_t hi0, hi1;
    uint64_t lo0 = mulhilo(UINT64_C(0xD2E7470EE14C6C93), b.x0, &hi0);
    uint64_t lo1 = mulhilo(UINT64_C(0xCA5A826395121157), b.x2, &hi1);
    philox_block out = {hi1 ^ b.x1 ^ k0, lo1, hi0 ^ b.x3 ^ k1, lo0};
    return out;
}

/* x >> 11 < 2^53 converts exactly, and faster as a signed integer */
static inline void philox_store(philox_block b, double *dst)
{
    const double scale = 1.0 / 9007199254740992.0;
    dst[0] = (double)(int64_t)(b.x0 >> 11) * scale;
    dst[1] = (double)(int64_t)(b.x1 >> 11) * scale;
    dst[2] = (double)(int64_t)(b.x2 >> 11) * scale;
    dst[3] = (double)(int64_t)(b.x3 >> 11) * scale;
}

/* block ctr's words skip .. 3, at most n of them, to dst */
static void philox_part(uint64_t ctr, const uint64_t *kx, const uint64_t *ky,
                        int64_t skip, int64_t n, double *dst)
{
    philox_block a = {ctr, 0, 0, 0};
    for (int i = 0; i < 10; i++)
        a = philox_round(a, kx[i], ky[i]);
    double w[4];
    philox_store(a, w);
    for (int64_t j = 0; j < n && skip + j < 4; j++)
        dst[j] = w[skip + j];
}

void philox_rows(int64_t rows, uint64_t k0, const uint64_t *key1,
                 int64_t first, int64_t length, double *out)
{
    uint64_t kx[10], ky[10];
    for (int64_t r = 0; r < rows; r++) {
        kx[0] = k0;
        ky[0] = key1[r];
        for (int i = 1; i < 10; i++) {
            kx[i] = kx[i - 1] + UINT64_C(0x9E3779B97F4A7C15);
            ky[i] = ky[i - 1] + UINT64_C(0xBB67AE8584CAA73B);
        }
        double *dst = out + r * length;
        uint64_t ctr = (uint64_t)(first / 4) + 1;
        int64_t t = 0;
        if (first % 4 && length > 0) {
            philox_part(ctr++, kx, ky, first % 4, length, dst);
            t = 4 - first % 4;
        }
        for (; t + 8 <= length; t += 8, ctr += 2) {
            philox_block a = {ctr, 0, 0, 0}, b = {ctr + 1, 0, 0, 0};
#define PHILOX_PAIR(i) a = philox_round(a, kx[i], ky[i]), b = philox_round(b, kx[i], ky[i])
            PHILOX_PAIR(0); PHILOX_PAIR(1); PHILOX_PAIR(2); PHILOX_PAIR(3); PHILOX_PAIR(4);
            PHILOX_PAIR(5); PHILOX_PAIR(6); PHILOX_PAIR(7); PHILOX_PAIR(8); PHILOX_PAIR(9);
            philox_store(a, dst + t);
            philox_store(b, dst + t + 4);
        }
        for (; t < length; t += 4)
            philox_part(ctr++, kx, ky, 0, length - t, dst + t);
    }
}

void maxweight_steps(int64_t length, int64_t m, int64_t k_multi,
                     const double *u, const double *p, const int64_t *level,
                     const double *ties, const int64_t *base,
                     const int64_t *off, const int64_t *cand, const int64_t *mu,
                     int64_t *q, int64_t *s, int64_t *tied, int64_t *qarr)
{
    for (int64_t t = 0; t < length; t++) {
        for (int64_t i = 0; i < m; i++)
            s[i] = base[i];
        for (int64_t k = 0; k < k_multi; k++) {
            int64_t best = -1, count = 0;
            for (int64_t c = off[k]; c < off[k + 1]; c++) {
                int64_t qi = q[cand[c]];
                int64_t longer = -(int64_t)(qi > best);
                best += (qi - best) & longer;
                count &= ~longer;
                tied[count] = cand[c];
                count += qi == best;
            }
            s[tied[(int64_t)(ties[k * length + t] * (double)count)]] += mu[k];
        }
        for (int64_t i = 0; i < m; i++) {
            int64_t a = level[i] & -(int64_t)(u[i * length + t] < p[i]);
            int64_t x = q[i] + a - s[i];
            q[i] = x > 0 ? x : 0;
            qarr[t * m + i] = q[i];
        }
    }
}

int64_t row_sums(int64_t rows, int64_t m, const int64_t *qarr,
                 int64_t n_blocks, const int64_t *block_off,
                 const int64_t *block_cols, int64_t *colsum,
                 double *norm, double *perp)
{
    if (rows < 1 || m < 1)
        return 0;
    int64_t qmax = 0;
    for (int64_t x = 0; x < rows * m; x++)
        if (qarr[x] > qmax)
            qmax = qarr[x];
    if (qmax > INT64_C(94906265) / m || qmax > ((INT64_C(1) << 53) - 1) / rows)
        return 0;
    for (int64_t i = 0; i < m; i++)
        colsum[i] = 0;
    for (int64_t t = 0; t < rows; t++) {
        const int64_t *row = qarr + t * m;
        int64_t s2 = 0;
        for (int64_t i = 0; i < m; i++) {
            colsum[i] += row[i];
            s2 += row[i] * row[i];
        }
        norm[t] = sqrt((double)s2);
        double acc = 0.0;
        for (int64_t b = 0; b < n_blocks; b++) {
            int64_t b1 = 0, b2 = 0;
            for (int64_t c = block_off[b]; c < block_off[b + 1]; c++) {
                int64_t v = row[block_cols[c]];
                b1 += v;
                b2 += v * v;
            }
            double d1 = (double)b1;
            acc += (double)b2 - (d1 * d1) / (double)(block_off[b + 1] - block_off[b]);
        }
        perp[t] = sqrt(acc > 0.0 ? acc : 0.0);
    }
    return 1;
}
"""


@functools.cache
def _kernel():
    """The compiled library with `maxweight_steps`, `row_sums` and
    `philox_rows`, or None where it cannot be built or loaded (see
    `native.load`), in which case the Python loop runs on numpy's generators.
    All three take array addresses (`ndarray.ctypes.data`)."""
    lib = native.load("maxweight", _KERNEL_SOURCE)
    if lib is None:
        return None
    lib.philox_rows.argtypes = [ctypes.c_int64, ctypes.c_uint64, ctypes.c_void_p,
                                ctypes.c_int64, ctypes.c_int64, ctypes.c_void_p]
    lib.philox_rows.restype = None
    lib.maxweight_steps.argtypes = [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 12
    lib.maxweight_steps.restype = None
    lib.row_sums.argtypes = [ctypes.c_int64] * 2 + [ctypes.c_void_p, ctypes.c_int64] + [
        ctypes.c_void_p] * 5
    lib.row_sums.restype = ctypes.c_int64
    return lib


def _python_steps(u, p, levels, ties, base, off, cand, mu, q, qarr) -> None:
    """The kernel's loop over one chunk, for where the kernel is missing;
    ``u`` and ``ties`` are (m, length) and (servers, length) views, read and
    written _PY_BLOCK_CELLS queue values at a time to bound the lists."""
    bounds = off.tolist()
    servers = list(zip((cand[a:b].tolist() for a, b in zip(bounds, bounds[1:])),
                       mu.tolist()))
    base_row = base.tolist()
    cur = q.tolist()
    block = max(1, _PY_BLOCK_CELLS // len(cur))
    for t in range(0, u.shape[1], block):
        arrivals = np.where(u[:, t:t + block] < p[:, None], levels[:, None], 0)
        rows = []
        for a_row, u_row in zip(arrivals.T.tolist(), ties[:, t:t + block].T.tolist()):
            s = base_row.copy()
            for (candidates, muk), w in zip(servers, u_row):
                best = -1
                tied: list[int] = []
                for i in candidates:
                    qi = cur[i]
                    if qi > best:
                        best = qi
                        tied = [i]
                    elif qi == best:
                        tied.append(i)
                s[tied[int(w * len(tied))]] += muk
            cur = [max(qi + ai - si, 0) for qi, ai, si in zip(cur, a_row, s)]
            rows.append(cur)
        qarr[t:t + block] = rows
    q[:] = cur


class _Campaign:
    """One simulate call or heavy-traffic sweep: its checked arguments, what
    all of its runs share (the blocks and the service side) and the buffers
    its replications step through, allocated once, with the addresses the C
    loops take.

    ``probs[e]`` holds model e's arrival probabilities as floats and
    ``levels`` the arrival levels, which no eps changes.  ``base`` is the
    constant service of servers with one compatible queue; the other servers
    with positive rate (``servers``, 0-based) are listed in CSR form, server
    k choosing among ``cand[off[k]:off[k + 1]]`` with rate ``mu[k]``.
    ``pooled`` lists the 0-based queues of each block of two or more queues;
    ``row_sums`` reads the same blocks in CSR form, block b's queues being
    ``block_cols[block_off[b]:block_off[b + 1]]``.

    A chunk of ``length`` steps keeps its uniforms in ``u[:length * m]``
    read as an (m, length) array, one row per queue, and its tie draws
    likewise in ``ties``, so that every stream fills a contiguous row;
    ``q[e]`` is eps value e's queue vector, carried from chunk to chunk.
    """

    def __init__(
        self, inst: ProblemInstance, eps_values, horizon, warmup, seed, replications,
        arrival_levels: Sequence[int] | None = None,
    ):
        # the checks run in simulate's order; the decomposition that checks
        # feasibility serves all of the eps values
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
        if seed >= 1 << 64:
            raise ValueError("seed must be below 2^64")
        # a queue holds at most horizon * level_i and one slot serves at most
        # sum(mu), which bounds every value of the step loops
        top = horizon * max(sum(md.levels) for md in models) + sum(mu)
        if top >= 1 << 63:
            raise SizeLimitExceeded(
                f"horizon x sum of arrival levels + sum of service rates is {top};"
                f" queue lengths must stay below 2^63"
            )
        m = inst.m
        cells = m * min(horizon, _CHUNK)
        if cells > MAX_CHUNK_CELLS:
            raise SizeLimitExceeded(
                f"queues x min(horizon, {_CHUNK}) is {cells}; a chunk of the"
                f" simulator holds at most {MAX_CHUNK_CELLS} queue values"
            )

        self.m, self.models, self.horizon, self.warmup = m, tuple(models), horizon, warmup
        self.seed, self.replications = seed, replications
        # a block without demands holds no queue
        self.components = tuple(comp.demands for comp in decomp.components if comp.demands)
        self.base = np.zeros(m, dtype=np.int64)
        servers, off, cand = [], [0], []
        for j, nbrs in enumerate(inst.supply_adj):
            if len(nbrs) == 1:
                self.base[nbrs[0] - 1] += mu[j]
            elif mu[j] > 0:
                servers.append(j)
                cand += [i - 1 for i in nbrs]
                off.append(len(cand))
        self.servers = tuple(servers)
        self.off = np.array(off, dtype=np.int64)
        self.cand = np.array(cand, dtype=np.int64)
        self.mu = np.array([mu[j] for j in servers], dtype=np.int64)
        self.probs = np.array([[float(p) for p in md.probs] for md in models])
        self.levels = np.array(models[0].levels, dtype=np.int64)
        self.pooled = [np.array([i - 1 for i in comp], dtype=np.intp)
                       for comp in self.components if len(comp) > 1]
        self.block_off = np.cumsum([0] + [len(c) for c in self.pooled], dtype=np.int64)
        self.block_cols = np.array([i for cols in self.pooled for i in cols], dtype=np.int64)

        width = min(_CHUNK, horizon)
        self.u = np.empty(width * m)
        self.ties = np.empty(width * len(servers))
        self.q = np.zeros((len(models), m), dtype=np.int64)
        self.qarr = np.empty(width * m, dtype=np.int64)
        self.s = np.empty(m, dtype=np.int64)
        self.tied = np.empty(len(cand), dtype=np.int64)
        self.colsum = np.empty(m, dtype=np.int64)
        self.norm = np.empty(width)
        self.perp = np.empty(width)

        def addr(a: np.ndarray) -> int:
            return a.ctypes.data

        # per eps value e: maxweight_steps' arguments after (length, m, k)
        self.steps_args = [
            tuple(map(addr, (self.u, p, self.levels, self.ties, self.base, self.off,
                             self.cand, self.mu, q, self.s, self.tied, self.qarr)))
            for p, q in zip(self.probs, self.q)
        ]
        self.qarr_addr = addr(self.qarr)
        self.u_addr, self.ties_addr = addr(self.u), addr(self.ties)
        # the stream index of each queue and multi-queue server
        self.queue_keys = np.arange(m, dtype=np.uint64)
        self.server_keys = np.array(servers, dtype=np.uint64)
        # row_sums' arguments after (rows, m, qarr)
        self.sums_args = (len(self.pooled), *map(addr, (
            self.block_off, self.block_cols, self.colsum, self.norm, self.perp)))


def _run_replication(camp: _Campaign, rep: int) -> list[_RepAccum]:
    """One replication at every eps value of the campaign, side by side.

    Stream keys do not involve eps, so each chunk's uniforms and tie draws
    are drawn once and serve every eps value: two `philox_rows` calls (or
    one numpy generator per stream) per chunk, one kernel call (or Python
    loop) per eps and chunk, then one `row_sums` call (or `_RepAccum.add`)
    for the post-warmup rows.
    """
    m, k = camp.m, len(camp.servers)
    lib = _kernel()
    if lib is None:
        arr_gens = [_stream(camp.seed, rep, _ARRIVAL_STREAM, i) for i in range(m)]
        tie_gens = [_stream(camp.seed, rep, _TIE_STREAM, j) for j in camp.servers]
    else:
        # the second key words of those streams, as _stream forms them
        arr_keys = camp.queue_keys | np.uint64((rep << 24) | (_ARRIVAL_STREAM << 20))
        tie_keys = camp.server_keys | np.uint64((rep << 24) | (_TIE_STREAM << 20))
    accs = [_RepAccum(m, camp.pooled) for _ in camp.models]
    camp.q.fill(0)
    done = 0
    while done < camp.horizon:
        length = min(_CHUNK, camp.horizon - done)
        u = camp.u[:length * m].reshape(m, length)
        ties = camp.ties[:length * k].reshape(k, length)
        if lib is None:
            for i, g in enumerate(arr_gens):
                g.random(out=u[i])
            for j, g in enumerate(tie_gens):
                g.random(out=ties[j])
        else:
            lib.philox_rows(m, camp.seed, arr_keys.ctypes.data, done, length, camp.u_addr)
            lib.philox_rows(k, camp.seed, tie_keys.ctypes.data, done, length, camp.ties_addr)
        qarr = camp.qarr[:length * m].reshape(length, m)
        start = max(0, camp.warmup - done)
        rows = length - start
        for e, acc in enumerate(accs):
            if lib is None:
                _python_steps(u, camp.probs[e], camp.levels, ties, camp.base, camp.off,
                              camp.cand, camp.mu, camp.q[e], qarr)
            else:
                lib.maxweight_steps(length, m, k, *camp.steps_args[e])
            if lib is not None and rows > 0 and lib.row_sums(
                    rows, m, camp.qarr_addr + start * m * 8, *camp.sums_args):
                acc.add_rows(camp.colsum, camp.norm[:rows], camp.perp[:rows])
            else:
                acc.add(qarr[start:])
        done += length
    return accs


def _pool(camp: _Campaign, model: ArrivalModel, accs: Sequence[_RepAccum]) -> SimStats:
    """Pool the replications of one eps value."""
    rep_q_means = []
    rep_perp = []
    rep_norm = []
    samples = camp.horizon - camp.warmup
    for rep, acc in enumerate(accs):
        if acc.samples != samples:
            raise InvariantViolation(
                f"replication {rep} kept {acc.samples} samples, expected {samples}"
            )
        rep_q_means.append(tuple(float(v) for v in acc.sum_q / samples))
        rep_perp.append(acc.sum_perp / samples)
        rep_norm.append(acc.sum_norm / samples)

    pooled_q = tuple(
        float(np.mean([r[i] for r in rep_q_means])) for i in range(camp.m)
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


def _sweep(camp: _Campaign) -> list[SimStats]:
    """Run every replication at every eps value; one SimStats per eps."""
    runs = [_run_replication(camp, rep) for rep in range(camp.replications)]
    return [_pool(camp, model, accs) for model, accs in zip(camp.models, zip(*runs))]


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
    runs whose queue lengths could reach 2^63 (horizon x sum of arrival
    levels + sum of service rates must stay below it) and runs whose chunk
    would hold more than MAX_CHUNK_CELLS queue values (queues x
    min(horizon, 32768)).
    """
    camp = _Campaign(inst, [eps], horizon, warmup, seed, replications, arrival_levels)
    return _sweep(camp)[0]


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
    camp = _Campaign(inst, eps_vals, horizon, warmup, seed, replications, arrival_levels)
    components = camp.components
    nu = camp.models[0].rates
    limit_var = camp.models[0].limit_variances
    rhs = Fraction(0)
    for comp in components:
        rhs += Fraction(sum(limit_var[i - 1] for i in comp), 2 * len(comp))

    rows = []
    for stats in _sweep(camp):
        e = stats.eps
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
