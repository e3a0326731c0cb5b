"""The benchmark's own checks on its traced run.

    python3 -m pytest jbench/test_jbench.py   # from the checkout root, about a minute

For each workload: the untraced passes and a traced pass give identical job
digests, every per-layer counter the workload is built to exercise is
non-zero, and tensor_over is never called on lrproj-gf101.
"""

import pytest

import run


@pytest.fixture(scope="module")
def workloads():
    mod = run.import_workloads()
    assert mod is not None
    return mod


@pytest.mark.parametrize("name", sorted(run.EXERCISED))
def test_traced_run(workloads, name):
    recorded = run.load_expected()["workloads"][name]
    jobs = workloads.WORKLOADS[name](run.DEFAULT_SEED, dict(recorded["invariants"]))
    passes, traced, stats, _ = run.measure_traced(jobs, run.REFERENCE_KIND[name], recorded["jobs"], 0)
    assert traced[0].digests == passes[0].digests
    assert all(p.failed == 0 for p in passes)
    metrics = run.layer_metrics(stats, len(traced))
    assert set(metrics) == {m[0] for m in run.PER_LAYER}
    assert run.coverage_problems(name, metrics) == []
    if name == "lrproj-gf101":
        assert metrics["modules.tensor_over.calls"]["value"] == 0
