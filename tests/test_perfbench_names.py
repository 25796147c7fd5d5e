"""The benchmark's tracer and checks look ghostline functions up by name;
a rename in the library must fail here, not in a benchmark run."""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import layers, tracer  # noqa: E402


def _traced(qualname):
    """The function the tracer wraps under 'layer.name', or None."""
    layer, name = qualname.split(".")
    module = importlib.import_module(f"ghostline.{layer}")
    return dict(tracer._public_functions(module)).get(name)


def test_traced_names_resolve():
    names = {*layers._FUNCTIONS["calls"], *layers._FUNCTIONS["self_s"],
             *layers._RATIOS.values(), *tracer.CACHED, tracer.HULL,
             "newton.np_of_ghost_auto"}
    missing = sorted(n for n in names if _traced(n) is None)
    assert not missing, missing
    assert all(layer in tracer.LAYERS for layer in {n.split(".")[0] for n in names})


def test_cached_names_report_cache_info():
    for qualname in tracer.CACHED:
        info = _traced(qualname).cache_info()
        assert info.maxsize is not None, qualname  # every library cache is bounded


def test_checked_and_patched_names_exist():
    # perfbench/checks.py recomputes outputs with these; workloads.py swaps
    # verify._grid_task for a sampling filter around verify.run_grid
    from ghostline import ghost_series, verify

    for fn in (ghost_series.eval_vp, ghost_series.degree_increment_closed_form,
               verify._grid_task, verify.run_grid):
        assert callable(fn)
    assert set(verify.SUITES) >= set(importlib.import_module("perfbench.workloads").SWEEP_SUITES)
