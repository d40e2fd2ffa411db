"""Tests of the benchmark's own code: span arithmetic, relabeling, repeatability,
and the scaling against the pinned reference.

Run from the root of a checkout:

    python -m pytest -q perfbench/tests
"""

import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import twocat as tc  # noqa: E402

from inputs import relabel, rng_for  # noqa: E402
from run import Run, end_to_end, harrell_davis, import_package, scaled  # noqa: E402
from tracing import Tracer, per_layer_names  # noqa: E402
from workloads import Workload, probes  # noqa: E402


def test_self_time_subtracts_children_and_bookkeeping():
    tracer = Tracer()
    # job [0, 10] > a [1, 4] > b [2, 3];  job > c [5, 9] with 0.5 s bookkeeping
    tracer.spans = [
        ["job", 0.0, 10.0, None, "j", 0.0],
        ["a", 1.0, 4.0, 0, "j", 0.0],
        ["b", 2.0, 3.0, 1, "j", 0.0],
        ["c", 5.0, 9.0, 0, "j", 0.5],
        ["a", 6.0, 7.0, 3, "j", 0.0],
    ]
    self_s = tracer.self_times()
    assert self_s["job"] == pytest.approx(10 - 3 - 4)
    assert self_s["a"] == pytest.approx((3 - 1) + 1)
    assert self_s["b"] == pytest.approx(1)
    assert self_s["c"] == pytest.approx(4 - 1 - 0.5)
    assert tracer.total_times()["a"] == pytest.approx(4)


def test_generator_spans_cover_each_resumption():
    tracer = Tracer()
    T = tc.make_T()
    with tracer.installed():
        with tracer.span("job", "j"):
            found = list(tc.enumerate_two_functors(T, T))
    assert tracer.calls["core.enumerate_two_functors"] == 1
    assert tracer.counts["core.enumerate_two_functors.yielded"] == len(found)
    names = [span[0] for span in tracer.spans]
    assert names.count("core.enumerate_two_functors") == len(found) + 1
    # the original function is back in place once the tracer is removed
    assert tc.enumerate_two_functors.__module__ == "twocat.core"
    assert "counting_eq" not in repr(tc.TwoCategory.__eq__)


@pytest.mark.parametrize("name", ["T", "T3", "v4", "h4", "terminal"])
def test_relabeled_copy_is_isomorphic(name):
    cat = tc.gallery.by_name(name)
    copy, (f0, f1, f2) = relabel(tc, cat, rng_for(7, name))
    assert copy.carrier_sizes() == cat.carrier_sizes()
    for mapping in (f0, f1, f2):
        assert len(set(mapping.values())) == len(mapping)
        assert all(v.isalnum() for v in mapping.values())
    renaming = tc.TwoFunctor(source=cat, target=copy, f0=f0, f1=f1, f2=f2)
    assert tc.validate_two_functor(renaming) == []
    witness = tc.find_isomorphism(cat, copy)
    assert witness is not None and tc.validate_two_functor(witness) == []


def test_relabel_is_seeded():
    cat = tc.random_instance(3)
    first, _ = relabel(tc, cat, rng_for(1, "x"))
    again, _ = relabel(tc, cat, rng_for(1, "x"))
    other, _ = relabel(tc, cat, rng_for(2, "x"))
    assert first == again
    assert first != other


@pytest.fixture(scope="module")
def small_probes(tmp_path_factory):
    """A slice of the probes workload: every job kind, a few of each."""
    return _probe_slice(tc, str(tmp_path_factory.mktemp("work")))


def _probe_slice(package, workdir):
    workload = probes(package, 5, workdir)
    keep = [j for j in workload.jobs if not j.id.startswith("stable units h4")]
    kinds = {}
    for job in keep:
        kinds.setdefault(job.id.split()[0], []).append(job)
    return Workload(jobs=[j for jobs in kinds.values() for j in jobs[:6]])


def test_untraced_runs_repeat_digests(small_probes):
    runs = [Run(None) for _ in range(2)]
    for run in runs:
        run.run_pass(small_probes)
        assert run.failures == []
    assert runs[0].digests == runs[1].digests
    assert len(runs[0].digests) == len(small_probes.jobs)


def test_traced_runs_repeat_counts(small_probes):
    results = []
    for _ in range(2):
        tracer = Tracer()
        run = Run(None)
        untraced = run.run_pass(small_probes)
        with tracer.installed():
            traced = run.run_pass(small_probes, tracer)
        assert run.failures == []
        metrics = tracer.metrics(traced, untraced)
        assert set(metrics) == {name for name, _unit, _better in per_layer_names()}
        results.append({name: m["value"] for name, m in metrics.items()
                        if not name.endswith(("_s", "overhead_frac"))})
    assert results[0] == results[1]
    assert results[0]["reflection.check_stable_units.calls"] == 6
    assert results[0]["limits.pullback.pairs_tested"] > results[0]["limits.pullback.apex_cells"] > 0


def test_scaling_cancels_a_slowdown_common_to_both_sides():
    # job a: the program takes 0.8 of the reference; job b: 1.5
    steady = [(0.8, 1.0), (1.5, 1.0)]
    pairs = {"a": [steady[0]] * 3, "b": [steady[1]] * 3}
    # the same run with the machine twice as slow in the second pass
    drifting = {job: [(p, r), (2 * p, 2 * r), (p, r)] for job, [(p, r), *_] in pairs.items()}
    recorded = {"setup_s": 2.0, "jobs": {"a": 0.010, "b": 0.030}}
    results = []
    for run_pairs in (pairs, drifting):
        run = Run(None)
        run.pairs, run.attempted = run_pairs, 6
        results.append(end_to_end(run, [(1.0, 2.0), (3.0, 6.0)], recorded, 2048))
    assert results[0] == results[1]
    metrics = results[0]
    assert metrics["wall_s"]["value"] == pytest.approx(0.8 * 0.010 + 1.5 * 0.030)
    assert metrics["setup_s"]["value"] == pytest.approx(1.0)
    assert metrics["peak_rss_mb"]["value"] == pytest.approx(2.0)
    assert metrics["pass_frac"]["value"] == 1.0
    assert scaled([(1.0, 2.0), (3.0, 2.0), (2.0, 1.0)], 10) == pytest.approx(15)


def test_quantile_estimate_moves_smoothly():
    assert harrell_davis([5, 1, 4, 2, 3], 0.5) == pytest.approx(3)
    assert harrell_davis(range(100), 0.9) == pytest.approx(89.5, abs=0.01)
    # jobs of very different sizes; the middle one slows by 30% and passes
    # its neighbour, so the plain median jumps from one job to the other
    sizes = [2, 3, 50, 55, 73, 88, 92, 132, 162, 171, 195, 211, 266, 342, 411]
    slowed = sizes[:7] + [132 * 1.3] + sizes[8:]
    jump = statistics.median(slowed) - statistics.median(sizes)
    move = harrell_davis(slowed, 0.5) - harrell_davis(sizes, 0.5)
    assert 0 < move < jump / 3


def test_reference_lists_the_same_jobs(tmp_path):
    reference = import_package(HERE / "reference", "twocat_ref")
    assert reference is not tc
    ours = _probe_slice(tc, str(tmp_path / "program"))
    theirs = _probe_slice(reference, str(tmp_path / "reference"))
    assert [j.id for j in ours.jobs] == [j.id for j in theirs.jobs]
    for job in theirs.jobs[:3]:
        assert job.check(job.run()) == []
