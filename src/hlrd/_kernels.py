"""Flag kept for the benchmark's environment block.

Family entries have one evaluator, ``hlrd.families.entry_exact``, in numpy.
``perfbench/run.py`` imports ``USE_NUMBA`` from here to report the grid
path it ran; the flag is constant.
"""

USE_NUMBA = False
