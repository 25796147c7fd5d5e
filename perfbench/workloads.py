"""Seeded inputs for the three workloads.

Every generator takes the benchmark seed and returns plain inputs: CLI
argument vectors for ``polygon`` and ``ranges``, parameter triples for
``sweep``.  Inputs come in stratified rounds (a fixed count of each prime and query
kind per round, in seeded order), so that the mix a run completes barely
depends on the seed and run-to-run spread stays small.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Sequence, Tuple

from ghostline import verify
from ghostline.weight_space import new_context

PRIMES = (5, 7, 11, 13)

#: The criterion-6 suites, run at their default bounds.
SWEEP_SUITES = (
    "ghost_duality",
    "mid_slopes",
    "theta",
    "atkin_lehner",
    "p_stabilization",
    "gouvea",
    "halo",
    "integrality",
    "delta_estimates",
    "nestedness",
    "vertex_theorem",
)

#: Mean single-core seconds of one sweep triple at the baseline commit; the
#: sweep sample is sized so that a run lasts about ``--seconds``.
SWEEP_TRIPLE_CPU_S = 3.4

Triple = Tuple[int, int, int]


@dataclass(frozen=True)
class Query:
    """One CLI query: its kind and the argument vector after the program name."""

    kind: str
    argv: Tuple[str, ...]

    def flag(self, name: str) -> str:
        return self.argv[self.argv.index(f"--{name}") + 1]

    def context(self):
        return new_context(int(self.flag("p")), int(self.flag("a")), int(self.flag("seps")))


def _context(rng: random.Random, p: int):
    return new_context(p, rng.randint(1, p - 4), rng.randint(0, p - 2))


def _query(command: str, kind: str, ctx, **flags) -> Query:
    argv = [command, "--p", str(ctx.p), "--a", str(ctx.a), "--seps", str(ctx.s_eps)]
    for name, value in flags.items():
        argv += [f"--{name}", str(value)]
    return Query(kind, tuple(argv))


def _rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


#: Per-prime --nmax, chosen so that queries of every kind and prime cost
#: about the same: run-to-run spread then depends little on the seed.
POLYGON_NMAX = {11: 115, 13: 100}
RANGES_NMAX = {5: 88, 7: 75, 11: 60, 13: 56}


def _polygon_round(rng: random.Random) -> List[Query]:
    """Per prime: two perturbed, two boundary and one classical point."""
    out = []
    for p, nmax in POLYGON_NMAX.items():
        for _ in range(2):
            ctx = _context(rng, p)
            r = Fraction(rng.randint(3, 24), 2)
            k0 = ctx.weight_of_bullet(rng.randint(0, 40))
            out.append(_query("np", "perturbed", ctx,
                              point=f"perturbed:{k0}:{_rational(r)}", nmax=nmax))
            den = rng.randint(2, 6)
            t = Fraction(rng.randint(1, den - 1), den)
            out.append(_query("np", "boundary", _context(rng, p),
                              point=f"boundary:{_rational(t)}", nmax=nmax))
        ctx = _context(rng, p)
        k = ctx.weight_of_bullet(rng.randint(0, 100))
        out.append(_query("np", "classical", ctx, point=f"classical:{k}", nmax=nmax))
    rng.shuffle(out)
    return out


def _ranges_round(rng: random.Random) -> List[Query]:
    """Per prime: one ns query near a large weight and one delta profile."""
    out = []
    for p, nmax in RANGES_NMAX.items():
        ctx = _context(rng, p)
        k0 = ctx.weight_of_bullet(rng.randint(nmax // 2, nmax))
        if rng.random() < 0.5:
            point = f"classical:{k0}"
        else:
            point = f"perturbed:{k0}:{_rational(Fraction(rng.randint(3, 12), 2))}"
        out.append(_query("ns", "ns", ctx, point=point, nmax=nmax))
        ctx = _context(rng, p)
        out.append(_query("delta", "delta", ctx,
                          k=ctx.weight_of_bullet(rng.randint(4000, 5000))))
    rng.shuffle(out)
    return out


_ROUNDS = {"polygon": _polygon_round, "ranges": _ranges_round}


def queries(workload: str, seed: int) -> Iterator[Query]:
    """Endless stream of seeded queries, one stratified round at a time."""
    rng = random.Random(f"{workload}:{seed}")
    make_round = _ROUNDS[workload]
    while True:
        yield from make_round(rng)


def round_size(workload: str) -> int:
    return len(_ROUNDS[workload](random.Random(0)))


def sweep_sample(seed: int, count: int) -> List[Triple]:
    """``count`` distinct (p, a, s_eps) triples, weighted like the real grid.

    Every prime gets one triple; the rest are shared out in proportion to
    the prime's number of triples in the full grid, (p-4)(p-1), by largest
    remainder.  Which (a, s_eps) each prime gets is seeded.
    """
    if count < len(PRIMES):
        raise ValueError(f"a sweep sample needs at least {len(PRIMES)} triples")
    sizes = {p: (p - 4) * (p - 1) for p in PRIMES}
    total = sum(sizes.values())
    extra = count - len(PRIMES)
    share = {p: extra * sizes[p] / total for p in PRIMES}
    alloc = {p: 1 + int(share[p]) for p in PRIMES}
    by_remainder = sorted(PRIMES, key=lambda p: (int(share[p]) - share[p], -p))
    for p in by_remainder[: count - sum(alloc.values())]:
        alloc[p] += 1
    rng = random.Random(f"sweep:{seed}")
    out: List[Triple] = []
    for p in sorted(PRIMES, reverse=True):
        grid = [(p, a, s) for a in range(1, p - 3) for s in range(0, p - 1)]
        out.extend(rng.sample(grid, min(alloc[p], len(grid))))
    return out


def sweep_size(seconds: float, workers: int) -> int:
    return max(len(PRIMES), round(seconds * workers / SWEEP_TRIPLE_CPU_S))


# ------------------------------------------------------------- grid driving

_SAMPLE: frozenset = frozenset()
_GRID_TASK = verify._grid_task


def _sampled_grid_task(args):
    """Run ``verify``'s own grid task for sampled triples; skip the rest."""
    if tuple(args[:3]) in _SAMPLE:
        return _GRID_TASK(args)
    return []


@contextmanager
def sampled_grid(triples: Sequence[Triple]):
    """Make ``verify.run_grid`` compute only the given triples.

    ``run_grid`` enumerates whole primes; the task function is swapped for
    a filter before the pool forks, so the pool, its scheduling and the
    final sort stay the library's own.
    """
    global _SAMPLE
    _SAMPLE = frozenset(tuple(t) for t in triples)
    verify._grid_task = _sampled_grid_task
    try:
        yield sorted({t[0] for t in triples})
    finally:
        verify._grid_task = _GRID_TASK
        _SAMPLE = frozenset()


def run_sampled_grid(triples: Sequence[Triple], workers: int) -> List[dict]:
    with sampled_grid(triples) as primes:
        return verify.run_grid(primes, list(SWEEP_SUITES), workers=workers)
