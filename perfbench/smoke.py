"""Smoke test of the benchmark itself, each workload at a tiny size.

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json and both trace modes, runs the
benchmark for one second and asserts that every declared metric is printed
by name with its unit, on a text line and in the final JSON object, and
that no operation failed.  Then checks that the benchmark refuses to run,
without printing a result, from a copy holding only BENCHMARK.json and the
benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def check_workload(spec: dict, workload: str) -> None:
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result.keys()
        declared = {m["name"]: m["unit"] for m in spec[section]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == declared, (workload, trace, set(printed) ^ set(declared))
        for name, unit in declared.items():
            prefix = f"metric {workload} {name} = "
            assert any(l.startswith(prefix) and l.endswith(f" {unit}") for l in lines), name
        assert any(l.startswith(f"metric {workload} failed_frac = 0.0 ratio") for l in lines)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
        print(f"ok  {workload} --trace {trace}: {len(declared)} metrics, "
              f"{result['attempted']} operations", flush=True)


def check_refuses_without_program(spec: dict) -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = _run(bare, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, proc.stdout
    assert not proc.stdout.strip(), proc.stdout
    print("ok  refuses to run without the program", flush=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        check_workload(spec, workload["name"])
    check_refuses_without_program(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
