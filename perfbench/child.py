"""Child processes of the benchmark: set-up probes and traced operations.

    python3 -m perfbench.child setup WORKLOAD SEED SECONDS WORKERS
    python3 -m perfbench.child traced-cli SPANS ARG...
    python3 -m perfbench.child traced-sweep SPANS P,A,S [P,A,S ...]

``setup`` prints ``ready`` once the first operation could start.
The traced commands print one JSON object with the outputs and the trace
statistics, and write spans to SPANS unless it is ``-``.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path


def _noop(x):
    return x


def setup(workload: str, seed: int, seconds: float, workers: int) -> None:
    from ghostline import cli  # noqa: F401  (the import is part of the set-up)
    from ghostline.weight_space import new_context

    from . import workloads

    if workload == "sweep":
        for triple in workloads.sweep_sample(seed, workloads.sweep_size(seconds, workers)):
            new_context(*triple)
        import multiprocessing as mp

        with mp.Pool(workers) as pool:
            pool.map(_noop, range(workers), chunksize=1)
            print("ready", flush=True)
        return
    stream = workloads.queries(workload, seed)
    for _ in range(workloads.round_size(workload)):
        next(stream).context()
    print("ready", flush=True)


def _finish(tracer, spans: str, payload: dict) -> None:
    if spans != "-":
        tracer.write_spans(Path(spans))
    payload["stats"] = tracer.stats()
    print(json.dumps(payload))


def traced_cli(spans: str, argv) -> None:
    from .tracer import Tracer

    tracer = Tracer()
    tracer.install()
    from ghostline import cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(list(argv))
    _finish(tracer, spans, {"returncode": code, "stdout": buf.getvalue()})


def traced_sweep(spans: str, triples) -> None:
    from .tracer import Tracer

    tracer = Tracer()
    tracer.install()
    from .workloads import run_sampled_grid

    reports = run_sampled_grid(triples, workers=1)
    _finish(tracer, spans, {"reports": reports})


def main(argv) -> int:
    command, rest = argv[0], argv[1:]
    if command == "setup":
        setup(rest[0], int(rest[1]), float(rest[2]), int(rest[3]))
    elif command == "traced-cli":
        traced_cli(rest[0], rest[1:])
    elif command == "traced-sweep":
        traced_sweep(rest[0], [tuple(int(x) for x in t.split(",")) for t in rest[1:]])
    else:
        print(f"unknown child command {command!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
