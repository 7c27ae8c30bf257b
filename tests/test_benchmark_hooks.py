"""The traced benchmark run wraps library functions by name
(`perfbench/spans.py::instrument`); a rename in the library must fail
here rather than in the benchmark."""

import os
import subprocess
import sys
from pathlib import Path

import iwatower

PERFBENCH = Path(__file__).parents[1] / "perfbench"

INSTRUMENT = """
import spans
from iwatower import groupring, modules

spans.instrument(spans.Tracer())
for owner, attr in [
    (modules, "snf"),
    (groupring, "corpus_groups"),
    (groupring.FiniteGroup, "all_subgroups"),
    (groupring, "augmentation_quotients"),
    (groupring, "quotient_coinvariant_check"),
    (groupring.FiniteGroupRingModule, "shape_of"),
]:
    assert hasattr(getattr(owner, attr), "__wrapped__"), attr
"""


def test_instrument_resolves_every_hook():
    src = str(Path(iwatower.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", INSTRUMENT],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(PERFBENCH)]), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"),
    )
    assert proc.returncode == 0, proc.stderr
