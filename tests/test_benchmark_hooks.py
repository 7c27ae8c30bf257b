"""The traced benchmark run wraps library functions by name
(`perfbench/spans.py::instrument`); a rename in the library must fail
here rather than in the benchmark."""

import json
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


TRACED_ROUND = """
import json, sys
from pathlib import Path
import spans, workloads

tracer = spans.Tracer()
spans.instrument(tracer)
workload = getattr(workloads, sys.argv[1])(11, Path(sys.argv[2]))
attempted, failures = workload.run_round(tracer.tags)
layers = spans.layer_metrics(tracer.spans, 1)
print(json.dumps([attempted, failures, {k: v["value"] for k, v in layers.items() if k.startswith("snf.")}]))
"""


def traced_round(workload, tmp_path):
    """(attempted, failures, snf.* metrics) of one traced round at seed 11."""
    src = str(Path(iwatower.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_ROUND, workload, str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(PERFBENCH)]), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_round_sees_every_coinvariant_snf(tmp_path):
    # one d2_tower round at seed 11: both modules split, and Lambda_2/(p)
    # is p times a unit summand, which needs no SNF; each of the 4
    # coinvariant SNFs (4 levels of T1 - 3u) is 1 x 1 or 2 x 1
    attempted, failures, snf = traced_round("D2Tower", tmp_path)
    assert (attempted, failures) == (4, [])
    assert (snf["snf.calls"], snf["snf.cells"], snf["snf.pivots"]) == (4, 7, 4)


def test_sparse_rows_report_their_dense_shape(tmp_path):
    # one d1_pipeline round at seed 11: the coinvariants hand snf sparse
    # rows, and the tracer still counts the cells of the matrix they
    # stand for.  A unit entry of a presentation drops a generator before
    # any matrix is built, so no round meets the 486 x 486 SNFs of the
    # two mu > 0 presentations [[P, 1], [0, 3]] and [[9, 1 + T], [0, T - 3a]]
    attempted, failures, snf = traced_round("D1Pipeline", tmp_path)
    assert (attempted, failures) == (84, [])
    assert (snf["snf.calls"], snf["snf.cells"], snf["snf.pivots"]) == (126, 952, 208)
