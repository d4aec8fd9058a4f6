"""The package names the benchmark in ``perfbench/`` patches or reads.

``perfbench/tracing.py`` wraps functions by module attribute and
``perfbench/run.py`` reads ``hlrd._kernels.USE_NUMBA`` for its environment
block; renaming any of them breaks the benchmark, not the package.  Only
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
