"""The package names and return shapes the benchmark in ``perfbench/`` relies on.

``perfbench/tracing.py`` wraps functions by module attribute,
``perfbench/run.py`` reads ``hlrd._kernels.USE_NUMBA`` for its environment
block, and ``perfbench/checks.py`` and ``perfbench/workloads.py`` unpack
what ``index_layout`` returns; changing any of them breaks the benchmark,
not the package.  Only
``tracing`` is imported here: importing ``run`` sets environment variables
and changes the allocator's settings.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name,attr",
                         [(t[0], t[1]) for t in _tracing().TARGETS])
def test_traced_target_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


def test_environment_flag_exists():
    from hlrd import _kernels

    assert isinstance(_kernels.USE_NUMBA, bool)


def test_index_layout_returns_what_the_benchmark_unpacks():
    # perfbench/checks.py and perfbench/workloads.py unpack the 5-tuple
    # and each entry of its region and strip lists
    from hlrd.families import BinomialFamily
    from hlrd.hmatrix import index_layout, scheme_for

    spec = BinomialFamily(n=64)
    out = index_layout(spec, scheme_for(spec, 8))
    assert len(out) == 5
    _, _, blocks, cells, strips = out
    assert blocks and cells and strips
    for region, (r0, r1, c0, c1) in blocks + cells:
        assert all(type(b) is int for b in (r0, r1, c0, c1)) and r0 < r1 and c0 < c1
    for tag, (r0, r1, c0, c1) in strips:
        assert isinstance(tag, str)
