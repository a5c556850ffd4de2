"""Every job of the benchmark's seed-1 pools still gives its pinned outcome:
verdict, route, ranks and rank-ledger digest, as in perfbench/expected.json."""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

import nodalcert

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture(scope="module")
def run():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    saved = {var: os.environ.get(var) for var in BLAS_VARS}
    # dataclasses look their module up in sys.modules while they are built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)  # sets the BLAS thread variables
    finally:
        for var, value in saved.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value
    yield module
    del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["n3-pipeline", "blocked-persistence", "exact-replay"])
def test_every_seed_1_job_gives_its_pinned_outcome(run, name):
    workload = run.WORKLOADS[name]
    expected = run.load_expected()
    pinned = expected["outcomes"][name]
    pool = run.build_pool(nodalcert, workload, run.DEFAULT_SEED, expected["pools"])
    jobs = [run.run_job(nodalcert, fx, workload, pinned) for cycle in pool for fx in cycle]
    assert {job.fixture for job in jobs} == set(pinned)
    assert [(job.fixture, job.problem) for job in jobs if job.problem is not None] == []
