"""Each benchmark check passes on good input and fails on a corrupted one.

    python3 -m pytest perfbench -q

Run from the root of a source checkout (the program is imported from ./src).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import probe  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from fusionnet import (make_camera_rig, normalize_mesh, render_view,  # noqa: E402
                       voxelize_surface, write_pgm, write_voxel_cache)
from fusionnet.pipeline import (CacheReport, make_synthetic_dataset,  # noqa: E402
                                split_fusion_validation)
from fusionnet.pipeline.data import make_box, make_pyramid  # noqa: E402


@pytest.fixture(scope="module")
def pyramid():
    mesh = normalize_mesh(make_pyramid(np.random.default_rng(3)))
    grid = voxelize_surface(mesh, resolution=12)
    return mesh, checks.decode_voxb(write_voxel_cache(grid))


def test_decoders_read_program_files_and_reject_others(pyramid):
    mesh, grid = pyramid
    assert grid.shape == (12, 12, 12) and grid.any()
    img = render_view(mesh, make_camera_rig(32), 0)
    assert checks.decode_pgm(write_pgm(img)).shape == (32, 32)
    with pytest.raises(ValueError):
        checks.decode_voxb(b"XOXB" + write_voxel_cache(voxelize_surface(mesh, 12))[4:])
    with pytest.raises(ValueError):
        checks.decode_pgm(b"P6\n2 2\n255\n" + bytes(4))


def test_oracle_matches_program_and_catches_a_flipped_voxel(pyramid):
    mesh, grid = pyramid
    tris = mesh.vertices[mesh.faces]
    assert checks.check_grid_against_oracle(grid, tris, "g") == []
    bad = grid.copy()
    bad[0, 0, 0] = not bad[0, 0, 0]
    assert checks.check_grid_against_oracle(bad, tris, "g")


def test_vertex_voxels_must_be_occupied(pyramid):
    mesh, grid = pyramid
    assert checks.check_vertex_voxels(grid, mesh.vertices, "g") == []
    x, y, z = np.clip(np.floor((mesh.vertices[0] + 0.5) * 12).astype(int), 0, 11)
    bad = grid.copy()
    bad[z, y, x] = False
    assert checks.check_vertex_voxels(bad, mesh.vertices, "g")


def test_view_needs_black_border_and_lit_pixels():
    mesh = normalize_mesh(make_box(np.random.default_rng(1)))
    img = checks.decode_pgm(write_pgm(render_view(mesh, make_camera_rig(32), 5)))
    assert checks.check_view(img, "v") == []
    lit_border = img.copy()
    lit_border[0, 3] = 9
    assert checks.check_view(lit_border, "v")
    assert checks.check_view(np.zeros_like(img), "v")


def test_cache_reports_and_hashes():
    assert checks.check_cold_report(CacheReport(written=7), 7) == []
    assert checks.check_cold_report(CacheReport(written=6, skipped=1), 7)
    assert checks.check_cold_report(CacheReport(written=7, failures=["m: bad"]), 7)
    assert checks.check_warm_report(CacheReport(skipped=7), 7) == []
    assert checks.check_warm_report(CacheReport(skipped=6, written=1), 7)
    assert checks.check_warm_report(CacheReport(skipped=6, regenerated=1), 7)
    before = {"a": "1", "b": "2"}
    assert checks.check_unchanged(before, dict(before)) == []
    assert checks.check_unchanged(before, {"a": "1", "b": "3"})
    assert checks.check_unchanged(before, {"a": "1"})
    assert checks.expected_cache_files(5, 60, include_voxels=True, include_views=True,
                                       include_jitter=True) == 5 * 141


def _write_run(out: str, *, flip_score=False, fused_val=1.0, weights=(0.5, 0.5),
               losses=(1.2, 0.9), claim_a=1.0) -> None:
    """A finished-run directory for two components over 2 classes x 2 test models."""
    os.makedirs(os.path.join(out, "dataset"))
    os.makedirs(os.path.join(out, "scores"))
    os.makedirs(os.path.join(out, "logs"))
    ids = {"box_0000": "box", "box_0001": "box", "sphere_0000": "sphere",
           "sphere_0001": "sphere"}
    with open(os.path.join(out, "dataset", "manifest.jsonl"), "w") as fh:
        for mid, label in ids.items():
            fh.write(json.dumps({"model_id": mid, "label": label, "split": "test",
                                 "path": f"meshes/{mid}.off"}) + "\n")
    comps = {}
    for name in ("a", "b"):
        with open(os.path.join(out, "scores", f"{name}_test.jsonl"), "w") as fh:
            for i, (mid, label) in enumerate(ids.items()):
                y = 0 if label == "box" else 1
                pred = 1 - y if (flip_score and name == "a" and i == 0) else y
                fh.write(json.dumps({"label": y, "model_id": mid, "network": name,
                                     "scores": [1.0 if c == pred else 0.0 for c in (0, 1)]})
                         + "\n")
        with open(os.path.join(out, "logs", f"{name}.csv"), "w") as fh:
            fh.write("epoch,loss,train_metric,wall_seconds\n")
            for e, loss in enumerate(losses):
                fh.write(f"{e},{loss},0.5,1.0\n")
        comps[name] = {"test": claim_a if name == "a" else 1.0, "val": 0.75}
    with open(os.path.join(out, "metrics.json"), "w") as fh:
        json.dump({"components": comps,
                   "fusion": {"val": fused_val, "weights": dict(zip("ab", weights))}}, fh)


@pytest.mark.parametrize("corruption", [
    {"flip_score": True},  # scores no longer give the metric metrics.json claims
    {"claim_a": 0.5},  # claimed metric disagrees with the scores
    {"fused_val": 0.5},  # fusion below the best component on validation
    {"weights": (-0.5, 1.5)},  # not a convex combination
    {"weights": (0.5, 0.6)},
    {"losses": (1.2, float("nan"))},  # non-finite loss
    {"losses": (0.9, 1.2)},  # loss rose
])
def test_run_output_checks(tmp_path, corruption):
    good = str(tmp_path / "good")
    _write_run(good)
    assert checks.check_run_outputs(good, ("a", "b"), {"a": 0.9, "b": 0.9},
                                    falling_loss=True) == []
    bad = str(tmp_path / "bad")
    _write_run(bad, **corruption)
    assert checks.check_run_outputs(bad, ("a", "b"), {}, falling_loss=True)


def test_accuracy_floor(tmp_path):
    out = str(tmp_path / "run")
    _write_run(out, flip_score=True, claim_a=0.75)
    assert checks.check_run_outputs(out, ("a", "b"), {"a": 0.7}, falling_loss=True) == []
    assert checks.check_run_outputs(out, ("a", "b"), {"a": 0.8}, falling_loss=True)


def test_count_check():
    assert checks.check_count("x", 12.0, 12) == []
    assert checks.check_count("x", 11.0, 12)


@pytest.mark.parametrize("per_class", [3, 4, 5, 8, 10, 13])
def test_split_sizes_match_the_program(tmp_path, per_class):
    manifest = make_synthetic_dataset(["box", "pyramid"], per_class, 1, str(tmp_path))
    core, val = split_fusion_validation(manifest, seed=1)
    test = manifest.split_entries("test")
    assert workloads._split_sizes(per_class) == (len(core) // 2, len(val) // 2, len(test) // 2)


def test_tracer_spans_nest_and_restore():
    from fusionnet.nn import tensor
    original = tensor.relu
    tr = tracing.Tracer()
    tr.install()
    try:
        x = tensor.Tensor(np.array([[-1.0, 2.0]]), requires_grad=True)
        span = tr.begin("outer")
        tensor.backward(tensor.softmax_loss(tensor.relu(x), np.array([1])))
        tr.end(span)
    finally:
        tr.restore()
    assert tensor.relu is original
    names = [s[0] for s in tr.spans]
    assert names[0] == "outer" and "nn.tensor.relu.fwd" in names
    assert "nn.tensor.relu.bwd" in names and "nn.tensor.backward" in names
    parents = {s[0]: s[3] for s in tr.spans}
    assert parents["nn.tensor.relu.bwd"] == names.index("nn.tensor.backward")
    assert all(s[1] <= s[2] for s in tr.spans)


def test_speed_probe_leaves_out_its_own_time():
    clock = probe.SpeedProbe()
    clock.sample(1)  # makes the reference arrays
    mark = clock.mark()
    assert clock.sample(3) > 0 and clock.probes == 4
    assert abs(clock.since(mark)) < 0.01  # the interval held only probes
    plain = clock.mark()
    sum(range(200_000))
    assert clock.speed(plain) == 1.0  # no probe ran: plain CPU seconds
    assert clock.since(plain) > 0


def test_command_fails_without_the_program(tmp_path):
    """In a directory with only the benchmark, the command exits non-zero
    and prints no result."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        cmd = json.load(fh)["command"]
    proc = subprocess.run([sys.executable] + cmd[1:] + ["--workload", "desk", "--seed", "1",
                                                        "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
