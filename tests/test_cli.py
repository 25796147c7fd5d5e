import csv
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import ghostline

from ghostline import cli, newton, verify
from ghostline import dimensions as dims
from ghostline import ghost_series as ghost
from ghostline.weight_space import (
    _CONTEXT_CACHES, Classical, clear_context_caches, new_context)


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def source_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(Path(ghostline.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestGhostCommand:
    def test_golden_json(self, capsys):
        code, out, _ = run(capsys, "ghost", "--p", "7", "--a", "2", "--seps", "4",
                           "--n", "2", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"n": 2, "factors": [[12, 1], [18, 1], [24, 1], [30, 1]]}

    def test_roundtrip_recompute(self, capsys):
        _, out, _ = run(capsys, "ghost", "--p", "7", "--a", "2", "--seps", "0", "--n", "3")
        parsed = json.loads(out)
        from ghostline.ghost_series import coefficient
        from ghostline.weight_space import new_context

        again = coefficient(new_context(7, 2, 0), parsed["n"]).to_json_dict()
        assert parsed == again


class TestNpCommand:
    def test_example_vertices(self, capsys):
        code, out, _ = run(capsys, "np", "--p", "7", "--a", "2", "--seps", "4",
                           "--point", "perturbed:18:4/1", "--nmax", "5")
        assert code == 0
        d = json.loads(out)
        xs = [x for x, _ in d["vertices"]]
        assert xs[:5] == [0, 1, 2, 4, 5]
        assert d["certified_upto"] >= 5
        assert d["buffer_used"] == 2 * 7 + 8

    def test_a_large_prime_is_sized_per_window(self, capsys):
        # the first window certifies, so the request reads no more weights
        # than that window and its certificate need: 1.07e6 at p = 1009
        for p in ("223", "1009"):
            code, out, _ = run(capsys, "np", "--p", p, "--a", "1", "--seps", "0",
                               "--point", "classical:30", "--nmax", "1")
            assert code == 0
            assert json.loads(out)["buffer_used"] == 2 * int(p) + 8

    def test_a_long_inf_stretch_certifies(self, capsys):
        # the INF values of g_n at w_k run to about n = 3500, past the window
        # of the first seven buffers; the eighth, 128 * (2p + 8), certifies
        k = 6 + 6 * 2000
        code, out, err = run(capsys, "np", "--p", "7", "--a", "2", "--seps", "4",
                             "--point", f"classical:{k}", "--nmax", "2001")
        assert code == 0, err
        d = json.loads(out)
        assert (d["certified_upto"], d["buffer_used"]) == (4817, 128 * 22)
        # the certified prefix is final: a window twice as long agrees on it
        longer = newton.np_of_ghost(new_context(7, 2, 4), Classical(k), 2001, 2 * 128 * 22)
        assert longer.certified_upto >= 4817
        assert d["vertices"] == [v for v in longer.to_json_dict()["vertices"] if v[0] <= 4817]

    @pytest.mark.parametrize("triple, nmax, buffer_used", [
        (("5", "1", "0"), 400, 2 * 5 + 8),
        (("7", "2", "4"), 600, 2 * 7 + 8),
    ])
    def test_large_radius_certifies_from_the_default_buffer(
            self, capsys, triple, nmax, buffer_used):
        # the floor c * deg alone would need a buffer that grows with --nmax
        # at r = 7/2; the exact values past the window need the default one
        p, a, seps = triple
        code, out, err = run(capsys, "np", "--p", p, "--a", a, "--seps", seps,
                             "--point", "perturbed:18:7/2", "--nmax", str(nmax))
        assert code == 0, err
        d = json.loads(out)
        assert d["buffer_used"] == buffer_used
        assert d["certified_upto"] >= nmax


class TestOptimisedMode:
    """python -O strips assert statements; the invariants must not need them."""

    @staticmethod
    def _plain_and_optimised(*argv):
        outs = []
        for flags in ([], ["-O"]):
            proc = subprocess.run([sys.executable, *flags, "-m", "ghostline.cli", *argv],
                                  env=source_env(), capture_output=True, text=True,
                                  timeout=120)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        return json.loads(outs[0])

    @pytest.mark.parametrize("point", ["classical:30", "perturbed:18:9/2", "boundary:2/3"])
    def test_np_output_unchanged(self, point):
        out = self._plain_and_optimised("np", "--p", "7", "--a", "2", "--seps", "4",
                                        "--point", point, "--nmax", "20")
        assert out["certified_upto"] >= 20

    def test_ns_output_unchanged(self):
        out = self._plain_and_optimised("ns", "--p", "7", "--a", "2", "--seps", "4",
                                        "--point", "perturbed:18:7/1", "--nmax", "30")
        assert out["nested"] and {"k": 18, "L": 2, "lo": 1, "hi": 5} in out["ranges"]

    def test_delta_output_unchanged(self):
        out = self._plain_and_optimised("delta", "--p", "11", "--a", "3", "--seps", "6",
                                        "--k", "1507")
        assert len(out["raw"]) == len(out["hull"]) > 20
        assert out["raw"] != out["hull"]  # a profile with offsets off its hull


class TestGoldenDigests:
    """SHA-256 of the stdout of large queries, recorded before the
    running-prefix jump kernel replaced the per-level window sums: the
    bytes must not move with the engine behind them.  ``np-perturbed`` was
    re-recorded when the certificate began to compare exact values at every
    radius: it certifies to 134 from a buffer of 34, where the floor alone
    needed 68 to certify to 122 (the vertices agree up to 122, see
    ``test_newton.TestExactCertificate``)."""

    @pytest.mark.parametrize("argv, digest", [
        (("delta", "--p", "13", "--a", "5", "--seps", "7", "--k", "36009"),  # k_bullet 3000
         "957c536359eb64de9ff5a16447c7644b08fcf2cd4a9e5e5a940773bd50811108"),
        (("ns", "--p", "13", "--a", "5", "--seps", "7", "--point", "classical:489",
          "--nmax", "56"),
         "e12f8f7baf36379691d6178cc7cb6f9c299e56e322eb7d47199eccf58cf6ae77"),
        (("ns", "--p", "13", "--a", "3", "--seps", "2", "--point", "perturbed:549:21/2",
          "--nmax", "56"),
         "e3284e92a2031e153703c4cb81869063c36811c19a436e423eb35ea50b5f2761"),
        (("np", "--p", "13", "--a", "5", "--seps", "7", "--point", "perturbed:369:7/2",
          "--nmax", "100"),
         "4ae04132ff07265d9b9127cf68c65b7a144a6d4e84c1d12484e0ed6056acd80f"),
    ], ids=["delta", "ns-classical", "ns-perturbed", "np-perturbed"])
    def test_output_digest(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestDimsCommand:
    def test_reproduces_rank_tables(self, capsys):
        from test_dimensions import D_IW_TABLE, TRIPLES_TABLE

        code, out, _ = run(capsys, "dims", "--p", "7", "--a", "2", "--kmax", "42")
        assert code == 0
        d = json.loads(out)
        for s in range(6):
            disk = d["disks"][s]
            got_iw = [v for k, v in disk["d_iw"] if k <= 14]
            assert got_iw == D_IW_TABLE[s]
            got_triples = [tuple(t) for t in disk["triples"]][:7]
            assert got_triples == TRIPLES_TABLE[s]

    def test_table_rows(self, capsys):
        _, out, _ = run(capsys, "dims", "--p", "7", "--a", "2", "--kmax", "14")
        d = json.loads(out)
        row0 = [v for _, v in d["disks"][0]["d_iw"]]
        assert row0 == [1, 1, 2, 2, 2, 2, 3, 3, 4, 4, 4, 4, 5]


class TestDeltaAndNs:
    def test_delta_profile(self, capsys):
        code, out, _ = run(capsys, "delta", "--p", "7", "--a", "2", "--seps", "4", "--k", "18")
        assert code == 0
        d = json.loads(out)
        assert d["raw"] == [[-2, "17/1"], [-1, "11/1"], [0, "8/1"], [1, "11/1"], [2, "17/1"]]

    def test_delta_rejects_off_class(self, capsys):
        code, _, err = run(capsys, "delta", "--p", "7", "--a", "2", "--seps", "4", "--k", "17")
        assert code == 2 and "congruent" in err

    def test_ns(self, capsys):
        code, out, _ = run(capsys, "ns", "--p", "7", "--a", "2", "--seps", "4",
                           "--point", "perturbed:18:7/1", "--nmax", "6")
        assert code == 0
        d = json.loads(out)
        assert d["ranges"] == [{"k": 18, "L": 2, "lo": 1, "hi": 5}]
        assert d["nested"] is True


class TestFormats:
    def numbers(self, text):
        return re.findall(r"-?\d+(?:/\d+)?", text)

    #: One query of every command, each shape of output among them: np at
    #: every point kind, ns with ranges and with none (an empty list), and a
    #: passing verify and scan (empty witnesses and meta).
    QUERIES = {
        "np-classical": ("np", "--p", "7", "--a", "2", "--seps", "4",
                         "--point", "classical:18", "--nmax", "8"),
        "np-perturbed": ("np", "--p", "7", "--a", "2", "--seps", "4",
                         "--point", "perturbed:18:5/2", "--nmax", "8"),
        "np-boundary": ("np", "--p", "7", "--a", "2", "--seps", "4",
                        "--point", "boundary:1/2", "--nmax", "6"),
        "ns-ranges": ("ns", "--p", "7", "--a", "2", "--seps", "4",
                      "--point", "perturbed:18:7/1", "--nmax", "6"),
        "ns-no-ranges": ("ns", "--p", "7", "--a", "2", "--seps", "4",
                         "--point", "boundary:1/2", "--nmax", "6"),
        "delta": ("delta", "--p", "7", "--a", "2", "--seps", "4", "--k", "18"),
        "ghost": ("ghost", "--p", "7", "--a", "2", "--seps", "4", "--n", "6"),
        "dims": ("dims", "--p", "7", "--a", "2", "--kmax", "14"),
        "verify": ("verify", "--p", "7", "--a", "2", "--seps", "4", "--suite", "halo",
                   "--n-max", "4"),
        "scan": ("scan", "--p-list", "5", "--suites", "halo", "--n-max", "4",
                 "--workers", "1"),
    }

    @staticmethod
    def scalars_and_keys(payload):
        """The JSON's scalars in order, and the key path of every dict entry."""
        scalars, keys = [], []

        def walk(prefix, obj):
            if isinstance(obj, dict):
                for key, val in obj.items():
                    keys.append(f"{prefix}.{key}" if prefix else key)
                    walk(keys[-1], val)
            elif isinstance(obj, list):
                for i, val in enumerate(obj):
                    walk(f"{prefix}[{i}]", val)
            else:
                scalars.append(obj)

        walk("", payload)
        return scalars, keys

    @pytest.mark.parametrize("query", list(QUERIES))
    def test_csv_and_table_carry_same_numbers(self, query):
        # one payload rendered three ways, so that even ``elapsed`` agrees
        argv = list(self.QUERIES[query])
        args = cli._build_parser(argv[0]).parse_args(argv)
        payload = json.loads(cli.render(args.payload(args), "json"))
        as_csv = cli.render(payload, "csv")
        as_table = cli.render(payload, "table")
        scalars, keys = self.scalars_and_keys(payload)
        for rendered in (as_csv, as_table):
            for value in scalars:
                assert str(value) in rendered

        rows = list(csv.reader(io.StringIO(as_csv)))
        json_numbers = [x for value in scalars for x in self.numbers(json.dumps(value))]
        csv_numbers = [x for row in rows for cell in row[1:] for x in self.numbers(cell)]
        assert json_numbers == csv_numbers

        # every key path is a row, or the path of a row's container
        paths = {row[0] for row in rows}
        for key in keys:
            assert key in paths or any(path.startswith((key + ".", key + "["))
                                       for path in paths), key

        # the table has the csv's rows in the csv's order, the same numbers after each key
        lines = as_table.split("\n")
        assert len(lines) == len(rows)
        for line, row in zip(lines, rows):
            assert line.startswith(row[0])
            assert self.numbers(line[len(row[0]):]) == [
                x for cell in row[1:] for x in self.numbers(cell)]

    def test_csv_rows_end_in_a_line_feed(self, capsys):
        code, out, _ = run(capsys, *self.QUERIES["ns-no-ranges"], "--format", "csv")
        assert code == 0 and "\r" not in out and "ranges" in out.split("\n")

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "g.json"
        code, out, _ = run(capsys, "ghost", "--p", "7", "--a", "2", "--seps", "0",
                           "--n", "2", "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["n"] == 2

    @pytest.mark.parametrize("argv", [
        ("np", "--p", "7", "--a", "2", "--seps", "4", "--point", "boundary:1/2", "--nmax", "4"),
        ("scan", "--p-list", "5", "--suites", "halo", "--n-max", "4", "--workers", "1"),
    ])
    def test_unwritable_out_file(self, tmp_path, capsys, argv):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert (code, out) == (2, "") and err.startswith("error: ") and str(target) in err

    def test_missing_out_directory_stops_before_the_work(self, tmp_path, capsys, monkeypatch):
        def run_grid(*args, **kwargs):
            raise AssertionError("the grid ran before --out was checked")

        monkeypatch.setattr(verify, "run_grid", run_grid)
        for target in (tmp_path / "missing" / "x.json", tmp_path):
            code, out, err = run(capsys, "scan", "--p-list", "5", "--suites", "halo",
                                 "--n-max", "4", "--workers", "1", "--out", str(target))
            assert (code, out) == (2, "") and err.startswith("error: ") and str(target) in err


class TestExitCodes:
    def test_param_errors(self, capsys):
        assert run(capsys, "dims", "--p", "9", "--a", "2", "--kmax", "10")[0] == 2
        assert run(capsys, "ghost", "--p", "7", "--a", "2", "--seps", "9", "--n", "1")[0] == 2
        assert run(capsys, "np", "--p", "7", "--a", "2", "--seps", "0",
                   "--point", "orbit:3", "--nmax", "4")[0] == 2
        for point in ("perturbed:18:1/0", "boundary:1/0"):
            code, out, err = run(capsys, "np", "--p", "7", "--a", "2", "--seps", "4",
                                 "--point", point, "--nmax", "5")
            assert (code, out) == (2, "") and "bad weight point" in err
        assert run(capsys, "dims", "--p", "7", "--a", "2")[0] == 2  # missing kmax

    def test_a_prime_past_the_proven_bound_is_refused(self, capsys):
        # a composite that the twelve Miller-Rabin bases take for a prime
        code, out, err = run(capsys, "ghost", "--p", "3317044064679887385961981", "--a", "1",
                             "--seps", "0", "--n", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_a_request_that_runs_out_of_memory_exits_2(self, capsys, monkeypatch):
        def payload(args):
            raise MemoryError  # what a huge --nmax meets, with nothing allocated

        monkeypatch.setattr(cli, "_payload_np", payload)
        code, out, err = run(capsys, "np", "--p", "7", "--a", "2", "--seps", "4",
                             "--point", "classical:18", "--nmax", "1000000000000")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "memory" in err and err.count("\n") == 1

    # values that only the library function reading them checks, each with
    # that function's message; they are refused before any context cache fills
    LIBRARY_REFUSALS = {
        ("delta", "--p", "7", "--a", "2", "--seps", "4", "--k", "5"): "not congruent to k_eps",
        ("delta", "--p", "7", "--a", "2", "--seps", "4", "--k", "0"): "d_iw requires k >= 2",
        ("ghost", "--p", "7", "--a", "2", "--seps", "4", "--n", "-1"):
            "coefficient index must be >= 0, got -1",
        ("np", "--p", "7", "--a", "2", "--seps", "4", "--point", "classical:18",
         "--nmax", "0"): "n_max must be >= 1, got 0",
        ("ns", "--p", "7", "--a", "2", "--seps", "4", "--point", "perturbed:18:7/1",
         "--nmax", "0"): "n_max must be >= 1, got 0",
    }

    @pytest.mark.parametrize("argv", [
        ("np", "--p", "7", "--a", "2", "--seps", "4", "--point", "classical:18",
         "--nmax", "1000000000000"),
        # the least --nmax at p = 7 whose first window alone spans too much
        ("np", "--p", "7", "--a", "2", "--seps", "4", "--point", "boundary:1/2",
         "--nmax", "399979"),
        ("delta", "--p", "5", "--a", "1", "--seps", "1", "--k", "40019229"),
        # k_bullet 3 reads six indices, but each spans about (p + 1)/2 weights
        ("delta", "--p", "1000003", "--a", "1", "--seps", "0", "--k", "3000009"),
        # the least --n and --kmax refused at p = 5
        ("ghost", "--p", "5", "--a", "1", "--seps", "0", "--n", "666669"),
        ("dims", "--p", "5", "--a", "1", "--kmax", "400002"),
        # more weights than a range's len() can count
        ("ghost", "--p", "5", "--a", "1", "--seps", "0", "--n", str(10**19)),
        # the range scan would walk 3,999,999,999,997 weights, most of them
        # too far from the point to reach the window table; and the least
        # refused --nmax at p = 7
        ("ns", "--p", "7", "--a", "2", "--seps", "4", "--point", "perturbed:18:7/1",
         "--nmax", "1000000000000"),
        ("ns", "--p", "7", "--a", "2", "--seps", "4", "--point", "perturbed:18:7/1",
         "--nmax", "400001"),
        *LIBRARY_REFUSALS,
    ])
    def test_a_request_past_the_index_limit_is_refused_before_any_work(
            self, capsys, monkeypatch, argv):
        clear_context_caches()
        contexts = []

        def counted(*triple):
            contexts.append(triple)
            return new_context(*triple)

        monkeypatch.setattr(cli, "new_context", counted)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        message = self.LIBRARY_REFUSALS.get(argv, "limit")
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        if argv in self.LIBRARY_REFUSALS:
            assert not any(cached.cache_info().currsize for cached in _CONTEXT_CACHES)
        assert len(contexts) <= 1  # dims builds one context per disk after its check
        for triple in contexts:  # the window table did not grow
            assert [len(column) for column in dims._window_table(new_context(*triple))] == [0, 0]
        assert ghost.coefficient.cache_info().currsize == 0

    def test_the_index_limit_is_inclusive(self, monkeypatch):
        # one step below the least refused requests above (a step of --nmax,
        # --n or --kmax adds fewer than 10 weights), the check passes; the
        # work after it is cut off by Admitted, for np after the window
        # table has grown for its first window
        class Admitted(Exception):
            pass

        def checked(command, weights):
            real(command, weights)
            raise Admitted(weights)

        def first_growth(ctx, start, stop):
            real_windows(ctx, stop - 1, stop)  # checks the limit, then grows the table
            raise Admitted(dims.k_max_bullet(ctx, stop - 1) + 1)

        real, real_windows = cli._check_weights, dims.jump_windows
        monkeypatch.setattr(cli, "_check_weights", checked)
        monkeypatch.setattr(dims, "jump_windows", first_growth)
        for argv in (("np", "--p", "7", "--a", "2", "--seps", "4", "--point",
                      "boundary:1/2", "--nmax", "399978"),
                     ("ghost", "--p", "5", "--a", "1", "--seps", "0", "--n", "666668"),
                     ("dims", "--p", "5", "--a", "1", "--kmax", "400001"),
                     ("ns", "--p", "7", "--a", "2", "--seps", "4", "--point",
                      "perturbed:18:7/1", "--nmax", "400000")):
            with pytest.raises(Admitted) as exc:
                cli.main(list(argv))
            assert dims.MAX_WEIGHTS - 10 < exc.value.args[0] <= dims.MAX_WEIGHTS, argv
        real("ghost", dims.MAX_WEIGHTS)
        with pytest.raises(ValueError):
            real("ghost", dims.MAX_WEIGHTS + 1)

    def test_a_reader_that_closes_the_pipe_early_gets_status_141(self):
        # a profile of about 110 kB, more than a pipe buffer holds, read as
        # ``| head -c 10`` reads it: ten bytes, then the pipe is closed
        proc = subprocess.Popen(
            [sys.executable, "-m", "ghostline.cli", "delta", "--p", "5", "--a", "1",
             "--seps", "1", "--k", "4001"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=source_env())
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=120), head, err) == (141, b'{\n  "k": 4', b"")

    def test_a_closed_stdout_leaves_the_callers_signal_handlers(self, monkeypatch, tmp_path):
        class ClosedPipe:
            """A stdout whose reader is gone; its descriptor is a temporary file."""

            def __init__(self, fh):
                self.fileno = fh.fileno

            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

        handlers = {sig: signal.getsignal(sig) for sig in (signal.SIGPIPE, signal.SIGINT)}
        with open(tmp_path / "stdout", "w") as fh:
            monkeypatch.setattr(sys, "stdout", ClosedPipe(fh))
            code = cli.main(["ghost", "--p", "7", "--a", "2", "--seps", "4", "--n", "3"])
        assert code == cli.EXIT_BROKEN_PIPE == 141
        assert {sig: signal.getsignal(sig) for sig in handlers} == handlers

    def test_verify_pass_and_fail(self, capsys, monkeypatch):
        code, out, _ = run(capsys, "verify", "--p", "7", "--a", "2", "--seps", "4",
                           "--suite", "ghost_duality", "--k-bullet-max", "12")
        assert code == 0 and json.loads(out)["status"] == "pass"

        def always_fail(ctx):
            return [{"lhs": 0, "rhs": 1}]

        monkeypatch.setitem(verify.SUITES, "always_fail", ({}, always_fail))
        code, out, _ = run(capsys, "verify", "--p", "7", "--a", "2", "--seps", "4",
                           "--suite", "always_fail")
        assert code == 1 and json.loads(out)["status"] == "fail"


class TestBoundFlags:
    P7 = ("--p", "7", "--a", "2", "--seps", "4")

    def test_verify_rejects_a_bound_the_suite_does_not_read(self, capsys):
        code, out, err = run(capsys, "verify", *self.P7, "--suite", "halo",
                             "--k-bullet-max", "5")
        assert (code, out) == (2, "") and "--k-bullet-max" in err
        code, out, err = run(capsys, "verify", *self.P7, "--suite", "ghost_duality",
                             "--n-max", "3", "--points", "9")
        assert (code, out) == (2, "") and "--n-max" in err

    @pytest.mark.parametrize("flags, message", [
        (("--suite", "mid_slopes", "--k-bullet-max", "-5"), "k_bullet_max must be >= 0"),
        (("--suite", "theta", "--k0-max", "1"), "k0_max must be >= 2"),
        (("--suite", "nestedness", "--points", "0"), "points must be >= 1"),
    ])
    def test_verify_rejects_a_bound_that_checks_nothing(self, capsys, flags, message):
        code, out, err = run(capsys, "verify", *self.P7, *flags)
        assert (code, out) == (2, "") and message in err
        code, out, err = run(capsys, "scan", "--p-list", "5", "--suites", flags[1],
                             *flags[2:], "--workers", "1")
        assert (code, out) == (2, "") and message in err

    def test_verify_passes_the_bounds_it_reads(self, capsys):
        code, out, _ = run(capsys, "verify", *self.P7, "--suite", "halo", "--n-max", "5")
        assert code == 0 and json.loads(out)["params"]["n_max"] == 5

    def test_scan_rejects_a_bound_no_selected_suite_reads(self, capsys):
        code, out, err = run(capsys, "scan", "--p-list", "5", "--suites", "halo,theta",
                             "--points", "1", "--workers", "1")
        assert (code, out) == (2, "") and "--points" in err

    def test_flags_come_from_the_suite_table(self, capsys, monkeypatch):
        def depth_suite(ctx, depth):
            return []

        monkeypatch.setitem(verify.SUITES, "depth_suite", ({"depth": 3}, depth_suite))
        assert verify.suite_bounds("depth_suite") == ("depth",)
        assert verify.suite_bounds("vertex_theorem") == ("points", "n_max", "seed")
        code, out, _ = run(capsys, "verify", *self.P7, "--suite", "depth_suite",
                           "--depth", "7")
        assert code == 0 and json.loads(out)["params"] == {"p": 7, "a": 2, "s_eps": 4, "depth": 7}
        code, out, _ = run(capsys, "verify", *self.P7, "--suite", "depth_suite")
        assert code == 0 and json.loads(out)["params"] == {"p": 7, "a": 2, "s_eps": 4, "depth": 3}
        code, _, err = run(capsys, "verify", *self.P7, "--suite", "halo", "--depth", "7")
        assert code == 2 and "--depth" in err


class TestScan:
    @pytest.mark.parametrize("p_list, suites, message", [
        ("4", "halo", "got p = 4"),
        ("2,3", "halo", "got p = 2"),
        ("6", "halo", "got p = 6"),
        ("5,5", "halo", "prime 5 is named twice"),
        ("5", "halo,halo", "suite 'halo' is named twice"),
        ("5", "", "unknown suite ''"),
    ])
    def test_scan_rejects_an_empty_or_repeated_grid(self, capsys, p_list, suites, message):
        code, out, err = run(capsys, "scan", "--p-list", p_list, "--suites", suites,
                             "--workers", "1")
        assert (code, out) == (2, "") and message in err

    def test_scan_small(self, capsys):
        code, out, _ = run(capsys, "scan", "--p-list", "5", "--suites", "halo,nestedness",
                           "--n-max", "8", "--points", "1", "--workers", "2")
        assert code == 0
        d = json.loads(out)
        assert d["failed"] == 0
        assert len(d["reports"]) == 8  # one a-value, four disks, two suites


class TestLazyImports:
    """Each command loads only the ghostline modules it runs, and the parser
    still reads ``verify`` wherever it describes the verify and scan commands."""

    P7 = ("--p", "7", "--a", "2", "--seps", "4")
    CORE = {"ghostline", "ghostline.cli", "ghostline.dimensions", "ghostline.ghost_series",
            "ghostline.newton", "ghostline.valuation", "ghostline.weight_space"}
    COMMANDS = ("dims", "ghost", "np", "delta", "ns", "verify", "scan")
    LOADED = (
        "import contextlib, io, json, sys\n"
        "from ghostline import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules\n"
        "                               if m.partition('.')[0] == 'ghostline')]))\n"
    )

    @pytest.mark.parametrize("argv, extra", [
        (("np", *P7, "--point", "perturbed:18:4/1", "--nmax", "5"), set()),
        (("ghost", *P7, "--n", "3"), set()),
        (("dims", "--p", "7", "--a", "2", "--kmax", "14"), set()),
        (("ns", *P7, "--point", "perturbed:18:7/1", "--nmax", "6"), {"ghostline.steinberg"}),
        (("delta", *P7, "--k", "18"), {"ghostline.steinberg"}),
    ], ids=["np", "ghost", "dims", "ns", "delta"])
    def test_each_command_loads_only_its_modules(self, argv, extra):
        proc = subprocess.run([sys.executable, "-c", self.LOADED, *argv], env=source_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        code, loaded = json.loads(proc.stdout)
        assert code == 0
        assert set(loaded) == self.CORE | extra

    def test_no_query_imports_dataclasses(self):
        # -S keeps site's own imports out, so only the engine's count
        script = (
            "import contextlib, io, json, sys\n"
            "from ghostline import cli\n"
            "seen = []\n"
            "for argv in sys.argv[1:]:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = cli.main(argv.split())\n"
            "    seen.append([code, 'dataclasses' in sys.modules, 'csv' in sys.modules])\n"
            "import ghostline.verify\n"
            "seen.append([0, 'dataclasses' in sys.modules, 'csv' in sys.modules])\n"
            "print(json.dumps(seen))\n"
        )
        queries = [" ".join(("np", *self.P7, "--point", "perturbed:18:4/1", "--nmax", "5")),
                   " ".join(("ns", *self.P7, "--point", "perturbed:18:7/1", "--nmax", "6")),
                   " ".join(("delta", *self.P7, "--k", "18"))]
        proc = subprocess.run([sys.executable, "-S", "-c", script, *queries], env=source_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout)
        assert [code for code, _, _ in seen] == [0, 0, 0, 0]
        assert not any(loaded for _, loaded, _ in seen)
        assert seen[0][2] is False  # a json-format np never loads csv

    def test_verify_help_lists_every_suite_and_bound(self, capsys):
        code, out, _ = run(capsys, "verify", "--help")
        assert code == 0
        for name in verify.SUITES:
            assert name in out
        for bound in cli._bound_names(verify.SUITES):
            assert "--" + bound.replace("_", "-") in out

    def test_scan_help_lists_every_bound(self, capsys, monkeypatch):
        # argv=None reads sys.argv, as the console script does
        monkeypatch.setattr(sys, "argv", ["ghostline", "scan", "--help"])
        code = cli.main()
        out = capsys.readouterr().out
        assert code == 0 and "--suites" in out
        for bound in cli._bound_names(verify.SUITES):
            assert "--" + bound.replace("_", "-") in out

    @pytest.mark.parametrize("argv", [("bogus",), ("--help",), ()])
    def test_top_level_lists_all_seven_commands(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == (0 if argv == ("--help",) else 2)
        for command in self.COMMANDS:
            assert command in out + err
