"""Self-tests of the benchmark (not part of the library's test suite).

    python3 -m pytest bench -q

The subprocess tests run real workload passes, so the file takes a few
minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from math import comb

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _worker(workload, seed, spans=None):
    rec, err, _ = run.run_worker(ROOT, workload, seed, spans, False, 170)
    assert err is None, err
    return rec


def _bindings():
    """Every traced-candidate binding: (container id, key) -> value id."""
    out = {}
    for mod in tracer.mdsx_modules():
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = id(value)
            if type(value) is dict:
                for key, v in value.items():
                    out[(mod.__name__, attr, key)] = id(v)
    return out


def test_every_binding_wrapped_then_restored():
    import mdsx
    import mdsx.cli

    targets = tracer.traced_targets(mdsx)
    originals = {id(t[3]) for t in targets}
    before = _bindings()
    t = tracer.Tracer(mdsx)
    t.install()
    try:
        for mod in tracer.mdsx_modules():
            for attr, value in vars(mod).items():
                assert id(value) not in originals, f"{mod.__name__}.{attr}"
                if type(value) is dict:
                    for key, v in value.items():
                        assert id(v) not in originals, f"{attr}[{key!r}]"
        for _name, owner, attr, original, _kind in targets:
            bound = vars(owner)[attr]
            assert bound.__traced_original__ is original
        # the by-name imports in covering and suites are wrapped too
        assert mdsx.suites.covering_radius is mdsx.covering.covering_radius
        mdsx.suites.SUITES["examples-1-2-3"]({})
        assert t.count("covering.covering_radius") > 0
        assert t.count("suites.suite_examples_1_2_3") == 1
        assert t.count("field.FieldCtx.mul_i") > 0
        assert len(t.span_start) > 0
    finally:
        t.uninstall()
    after = _bindings()  # new registry entries may appear; nothing moves
    assert {k: after[k] for k in before} == before
    for _name, owner, attr, original, _kind in targets:
        assert vars(owner)[attr] is original


def test_layer_self_time_subtracts_other_layers_only():
    names = ["covering.covering_radius", "covering.helper",
             "kernels.coset_leader_weights", "covering.covering_radius"]
    # 0: covering 0..10 -> 1: covering 1..9 -> 2: kernels 2..6 -> 3: 7..8
    span_name = np.array([0, 1, 2, 3], dtype=np.int32)
    span_parent = np.array([-1, 0, 1, 1], dtype=np.int32)
    start = np.array([0.0, 1.0, 2.0, 7.0])
    end = np.array([10.0, 9.0, 6.0, 8.0])
    self_t = tracer.layer_self_times(span_name, span_parent, start, end,
                                     names)
    assert self_t.tolist() == [6.0, 4.0, 4.0, 1.0]
    mask = tracer._outermost(span_name, span_parent, [0, 3])
    assert mask.tolist() == [True, False, False, False]


def test_overhead_pairs_each_traced_repetition_with_its_neighbours():
    # untraced 4, traced 6, untraced 8, traced 9: drift from 4 s to 8 s
    plain = [{"wall_ref_s": 4.0}, {"wall_ref_s": 8.0}]
    traced = [{"wall_ref_s": 6.0}, {"wall_ref_s": 9.0}]
    assert run.overhead_ratios(plain, traced) == [1.0, 9.0 / 8.0]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_outputs_equal_untraced(workload, tmp_path):
    plain = _worker(workload, workloads.DEFAULT_SEED)
    traced = _worker(workload, workloads.DEFAULT_SEED,
                     str(tmp_path / "spans.npz"))
    assert all(i["ok"] for i in plain["items"] + traced["items"])
    assert [i["digest"] for i in plain["items"]] == \
        [i["digest"] for i in traced["items"]]
    assert set(traced["layers"]) == set(tracer.LAYER_METRICS)
    assert "layers" not in plain


def test_seeds_change_inputs_but_not_references():
    a = _worker("covering-sweep", 1)
    b = _worker("covering-sweep", 2)
    for x, y in zip(a["items"], b["items"]):
        assert x["ok"] and y["ok"]
        assert x["inputs"] != y["inputs"], x["name"]
        assert x["digest"] == y["digest"], x["name"]
    assert workloads.suite_argv("thm6-exhaustive", 1) != \
        workloads.suite_argv("thm6-exhaustive", 2)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_wrong_reference_fails_the_run(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seconds", "1", "--wrong-reference"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] >= 1
    # the failing run has a file of its own, so no measured result is lost
    with open(os.path.join(ROOT, ".bench_out",
                           f"result-{workload}-seed{workloads.DEFAULT_SEED}"
                           f"-trace0-wrongref.json")) as fh:
        result = json.load(fh)
    assert result["end_to_end"]["failed_frac"]["median"] > 0


def test_refuses_without_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "covering-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_references_are_consistent():
    for name, _phase, (p, m), spec, rho, counts in workloads.COVERING:
        q = p ** m
        if spec[0] == "prs":
            n, k = q + 1, spec[1]
        else:
            n, k = spec[1], spec[2]
        if spec[-1] == "dual":
            k = n - k
        # all of these codes are MDS: below half the distance every vector
        # is the unique leader of its coset
        assert sum(counts) == q ** (n - k), name
        assert rho == len(counts) - 1 and rho in (n - k, n - k - 1), name
        for w in range((n - k) // 2 + 1):
            assert counts[w] == comb(n, w) * (q - 1) ** w, (name, w)
    for n, k, q in ((17, 6, 16), (10, 5, 9), (5, 2, 4)):
        assert sum(workloads.mds_weight_enumerator(n, k, q)) == q ** k


def test_benchmark_json_matches_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == \
        list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == \
        list(run.END_TO_END_UNITS)
    assert [m["name"] for m in spec["per_layer"]] == \
        [m for m in tracer.LAYER_METRICS if m not in tracer.REPORT_ONLY] \
        + ["trace.overhead_frac"]
