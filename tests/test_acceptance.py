"""Acceptance suite: one test per numbered criterion, each printing a single
PASS/FAIL line via the shared recorder. Criteria 7-9 share one desk-scale
pipeline run; criterion 9 repeats it to compare report bytes. They are
marked slow, so `pytest -m "not slow"` skips the run."""

import os
import time

import numpy as np
import pytest
from conftest import record_criterion, record_skip

from fusionnet.mesh import TriangleMesh, normalize_mesh
from fusionnet.models import (Network, adapt_head, build_mvnet, build_vcnn1,
                              build_vcnn2)
from fusionnet.nn.gradcheck import run_suite
from fusionnet.nn.optim import OptimizerConfig
from fusionnet.nn.weights import read_weights
from fusionnet.orientations import derive_seed
from fusionnet.pipeline import (CacheSettings, DatasetManifest, RunConfig,
                                TrainingConfig, evaluate_network,
                                load_voxel_dataset, make_icosphere,
                                run_pipeline, train, voxels_to_input)
from fusionnet.render import (AMBIENT, DIFFUSE, SPECULAR, camera_basis,
                              make_camera_rig, render_view)
from fusionnet.voxel import voxelize_surface
from sat_oracle import voxelize_reference

VCNN1_LAYER_PARAMS = [17344, 36928, 36928, 3278848, 81960]
VCNN2_LAYER_PARAMS = [620, 5420, 15020, 1830, 16230, 16230, 55298048, 81960]

VCNN1_SHAPES = [
    (64, 28, 28), (64, 28, 28), (64, 14, 14),
    (64, 12, 12), (64, 12, 12), (64, 10, 10), (64, 5, 5),
    (64, 5, 5), (2048,), (2048,), (40,),
]
VCNN2_SHAPES = [(60, 30, 30)] * 6 + [(30, 30, 30)] * 3 + [(2048,), (2048,), (40,)]


def desk_config(out_dir: str) -> RunConfig:
    return RunConfig(out_dir=out_dir,
                     synthetic_classes=("box", "sphere", "pyramid", "cylinder"),
                     synthetic_per_class=50,
                     components=("vcnn1", "mvnet"),
                     orientation_count=12, resolution=30, image_size=64,
                     epochs=10, batch_size=32, learning_rate=0.001,
                     momentum=0.9, weight_decay=0.0,
                     seed=7, fusion_seeds=10)


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("desk1")
    t0 = time.perf_counter()
    metrics = run_pipeline(desk_config(str(out)))
    return {"out": out, "metrics": metrics,
            "elapsed": time.perf_counter() - t0}


def test_criterion_01_parameter_count_goldens():
    t0 = time.perf_counter()
    v1 = build_vcnn1(40)
    v1_layers = [c for c in v1.layer_param_counts() if c]
    v2 = build_vcnn2(40)
    entries = v2.param_entries()
    weights = [int(np.prod(s)) for name, s in entries if name.endswith(".w")]
    biases = [int(np.prod(s)) for name, s in entries if name.endswith(".b")]
    v2_layers = [w + b for w, b in zip(weights, biases)]
    elapsed = time.perf_counter() - t0
    checks = {
        "vcnn1 per-layer": v1_layers == VCNN1_LAYER_PARAMS,
        "vcnn1 total": v1.param_count() == 3452008,
        "vcnn2 per-layer": v2_layers == VCNN2_LAYER_PARAMS,
        "vcnn2 total": v2.param_count() == 55435358,
        "runtime": elapsed < 1.0,
    }
    ok = all(checks.values())
    record_criterion(1, "parameter-count goldens", ok, f"{elapsed:.2f}s")
    assert ok, {k: v for k, v in checks.items() if not v}


def test_criterion_02_output_shape_goldens():
    shapes1 = build_vcnn1(40).output_shapes()
    shapes2 = build_vcnn2(40).output_shapes()
    ok = shapes1 == VCNN1_SHAPES and shapes2 == VCNN2_SHAPES
    record_criterion(2, "layer output-shape goldens", ok)
    assert ok, (shapes1, shapes2)


def test_criterion_03_gradient_suite():
    t0 = time.perf_counter()
    results = run_suite(seeds=range(20))
    elapsed = time.perf_counter() - t0
    worst = max(r.max_rel_err for r in results)
    ok = all(r.passed for r in results) and elapsed < 120.0
    record_criterion(3, "finite-difference gradient suite", ok,
                     f"{len(results)} checks, worst {worst:.2e}, {elapsed:.1f}s")
    assert ok, [r for r in results if not r.passed]


def test_criterion_04_voxelizer_matches_oracle():
    t0 = time.perf_counter()
    mismatches = []
    for seed, tri_count in zip(range(5), (200, 151, 96, 57, 24)):
        rng = np.random.default_rng(derive_seed(seed, "oracle-soup"))
        verts = rng.uniform(-0.45, 0.45, size=(tri_count * 3, 3))
        mesh = TriangleMesh(vertices=verts,
                            faces=np.arange(tri_count * 3).reshape(-1, 3))
        fast = voxelize_surface(mesh, resolution=16).occupancy
        slow = voxelize_reference(mesh, resolution=16).occupancy
        if not np.array_equal(fast, slow):
            mismatches.append(seed)
    elapsed = time.perf_counter() - t0
    ok = not mismatches and elapsed < 60.0
    record_criterion(4, "voxelizer equals exhaustive oracle", ok,
                     f"5 meshes, {elapsed:.1f}s")
    assert ok, mismatches


def test_criterion_05_renderer_analytic_check():
    t0 = time.perf_counter()
    mesh = normalize_mesh(make_icosphere(3))
    rig = make_camera_rig(128)
    _, _, forward = camera_basis(rig, 0)
    to_cam = -forward

    a = mesh.vertices[mesh.faces[:, 0]]
    b = mesh.vertices[mesh.faces[:, 1]]
    c = mesh.vertices[mesh.faces[:, 2]]
    normals = np.cross(b - a, c - a)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    best = int(np.argmax(normals @ to_cam))

    # spin the sphere so one facet faces the camera dead-on; at normal
    # incidence the analytic shade is ambient + diffuse + specular exactly
    axis = np.cross(normals[best], to_cam)
    sin = np.linalg.norm(axis)
    cos = float(normals[best] @ to_cam)
    k = np.array([[0.0, -axis[2], axis[1]],
                  [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    rot = np.eye(3) + k + k @ k * ((1.0 - cos) / sin ** 2)
    aligned = TriangleMesh(vertices=mesh.vertices @ rot.T, faces=mesh.faces)

    gray = np.rint(render_view(aligned, rig, 0).pixels * 255.0)
    analytic = round((AMBIENT + DIFFUSE + SPECULAR) * 255)
    row, col = np.unravel_index(int(np.argmax(gray)), gray.shape)
    center = (rig.image_size - 1) / 2.0  # the sphere center projects here
    dist = float(np.hypot(row - center, col - center))
    border = np.concatenate([gray[0], gray[-1], gray[:, 0], gray[:, -1]])
    elapsed = time.perf_counter() - t0

    checks = {
        "brightest within 1 gray of analytic": abs(gray.max() - analytic) <= 1,
        "brightest within 2 px of projected center": dist <= 2.0,
        "background exactly 0": not border.any(),
        "runtime": elapsed < 10.0,
    }
    ok = all(checks.values())
    record_criterion(5, "renderer analytic check", ok,
                     f"peak {int(gray.max())}/{analytic}, offset {dist:.2f}px, "
                     f"{elapsed:.2f}s")
    assert ok, {k: v for k, v in checks.items() if not v}


def test_criterion_06_view_pooling_permutation_invariance():
    t0 = time.perf_counter()
    network = Network.initialize(build_mvnet(10, 64), seed=11)
    rng = np.random.default_rng(6)
    views = rng.random((20, 3, 64, 64)).astype(np.float32)
    base = network.forward_views(views)
    stable = all(
        np.array_equal(base, network.forward_views(views[rng.permutation(20)]))
        for _ in range(100))
    elapsed = time.perf_counter() - t0
    ok = stable and elapsed < 30.0
    record_criterion(6, "view pooling permutation invariance", ok,
                     f"100 permutations, {elapsed:.1f}s")
    assert ok


@pytest.mark.slow
def test_criterion_07_desk_scale_end_to_end(desk_run):
    metrics = desk_run["metrics"]
    comp = metrics["components"]
    fusion = metrics["fusion"]
    best_val = max(c["val"] for c in comp.values())
    checks = {
        "vcnn1 test >= 0.95": comp["vcnn1"]["test"] >= 0.95,
        "mvnet test >= 0.95": comp["mvnet"]["test"] >= 0.95,
        "fused val >= best component val": fusion["val"] >= best_val,
        "fused test beats all components in >= 8/10 seeds":
            fusion["seed_wins"] >= 8 and fusion["seed_count"] == 10,
        "runtime < 15 min": desk_run["elapsed"] < 900.0,
    }
    ok = all(checks.values())
    record_criterion(
        7, "desk-scale end-to-end", ok,
        f"vcnn1 {comp['vcnn1']['test']:.3f}, mvnet {comp['mvnet']['test']:.3f}, "
        f"fused {fusion['test']:.3f}, wins {fusion['seed_wins']}/10, "
        f"{desk_run['elapsed'] / 60:.1f} min")
    assert ok, {k: v for k, v in checks.items() if not v}


@pytest.mark.slow
def test_criterion_08_fine_tuning_halves_convergence(desk_run):
    t0 = time.perf_counter()
    out = desk_run["out"]
    manifest = DatasetManifest.read(str(out / "dataset" / "manifest.jsonl"))
    classes3 = ["box", "pyramid", "sphere"]
    sub = manifest.subset(classes3)

    taken: dict[str, int] = {}
    train_entries = []
    for e in sub.split_entries("train"):
        if taken.get(e.class_label, 0) < 20:
            train_entries.append(e)
            taken[e.class_label] = taken.get(e.class_label, 0) + 1
    test_entries = sub.split_entries("test")

    settings = CacheSettings(orientation_count=12, resolution=30,
                             image_size=64, seed=7)
    cache = str(out / "cache")
    x_tr, y_tr, _ = load_voxel_dataset(sub, cache, settings, train_entries)
    x_te, y_te, ids = load_voxel_dataset(sub, cache, settings, test_entries)

    with open(out / "weights" / "vcnn1.fnw1", "rb") as fh:
        parent = read_weights(fh.read())
    spec3, adapted = adapt_head(build_vcnn1(4), parent, 3,
                                seed=derive_seed(7, "init", "adapt3"),
                                freeze_below=8)

    cap = 6

    def epochs_to_95(network, tag):
        history = []
        cfg = TrainingConfig(
            epochs=cap,
            optimizer=OptimizerConfig(learning_rate=0.001, momentum=0.9),
            batch_size=32, seed=7)
        train(network, x_tr, y_tr, cfg, voxels_to_input, name=tag,
              after_epoch=lambda net, _: history.append(
                  evaluate_network(net, x_te, y_te, ids, classes3,
                                   voxels_to_input).metric))
        reached = [i + 1 for i, m in enumerate(history) if m >= 0.95]
        return (reached[0] if reached else cap + 1), history

    ft_net = Network.from_arrays(spec3, adapted)
    ft_epochs, ft_history = epochs_to_95(ft_net, "vcnn1_ft")
    frozen_intact = all(
        np.array_equal(parent[name], ft_net.arrays()[name])
        for name in parent if int(name[1:3]) < 8)

    scratch_net = Network.initialize(build_vcnn1(3),
                                     seed=derive_seed(7, "init", "scratch3"))
    scratch_epochs, scratch_history = epochs_to_95(scratch_net, "vcnn1_scratch")
    elapsed = time.perf_counter() - t0

    checks = {
        "fine-tune converges": ft_epochs <= cap,
        "in at most half the scratch epochs": ft_epochs <= scratch_epochs / 2,
        "frozen layers bit-identical": frozen_intact,
        "runtime < 10 min": elapsed < 600.0,
    }
    ok = all(checks.values())
    record_criterion(
        8, "fine-tuning halves convergence", ok,
        f"fine-tune {ft_epochs} vs scratch "
        f"{scratch_epochs if scratch_epochs <= cap else f'>{cap}'} epochs, "
        f"{elapsed:.0f}s")
    assert ok, {"checks": {k: v for k, v in checks.items() if not v},
                "ft": ft_history, "scratch": scratch_history}


@pytest.mark.slow
def test_criterion_09_deterministic_reports(desk_run, tmp_path_factory):
    out2 = tmp_path_factory.mktemp("desk2")
    t0 = time.perf_counter()
    run_pipeline(desk_config(str(out2)))
    elapsed = time.perf_counter() - t0
    same = {
        name: (desk_run["out"] / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("metrics.json", "report.txt")
    }
    ok = all(same.values())
    record_criterion(9, "identical seeded runs, byte-identical reports", ok,
                     f"second run {elapsed / 60:.1f} min")
    assert ok, same


def test_criterion_10_optional_modelnet40(tmp_path):
    root = os.environ.get("MODELNET40_ROOT", "/root/pkg/data/ModelNet40")
    if not os.path.isdir(root):
        record_skip(10, "optional full-data track", "ModelNet40 not present")
        pytest.skip("ModelNet40 not present")
    from fusionnet.pipeline import ingest_modelnet, prepare_caches
    from fusionnet.pipeline.report import ReportRow, render_report

    manifest = ingest_modelnet(root)
    settings = CacheSettings(orientation_count=1, resolution=30,
                             image_size=64, seed=7)
    prepare_caches(manifest, str(tmp_path / "cache"), settings,
                   include_views=False)
    x, y, _ = load_voxel_dataset(manifest, str(tmp_path / "cache"), settings,
                                 manifest.split_entries("train"))
    network = Network.initialize(build_vcnn1(len(manifest.classes)),
                                 seed=derive_seed(7, "init", "vcnn1"))
    cfg = TrainingConfig(epochs=1,
                         optimizer=OptimizerConfig(learning_rate=0.001,
                                                   momentum=0.9),
                         batch_size=32, seed=7)
    train(network, x, y, cfg, voxels_to_input, name="vcnn1")
    xt, yt, ids = load_voxel_dataset(manifest, str(tmp_path / "cache"), settings,
                                     manifest.split_entries("test"))
    result = evaluate_network(network, xt, yt, ids, manifest.classes,
                              voxels_to_input)
    text = render_report("3D shape classification",
                         f"ModelNet40 ({len(manifest.entries)} models)",
                         {"orientations": 1, "epochs": 1, "seed": 7},
                         [ReportRow("vcnn1", 1, result.metric)], None, None)
    ok = "vcnn1" in text
    record_criterion(10, "optional full-data track", ok,
                     f"metric {result.metric:.3f} (not asserted)")
    assert ok
