"""Dataset generation, cache lifecycle, training, evaluation, fusion tests."""

import dataclasses
import gc
import hashlib
import json
import os
import pathlib
import shutil
import warnings

import numpy as np
import pytest

from fusionnet.models import BUILDERS, Network, NetworkSpec
from fusionnet.nn import OptimizerConfig
from fusionnet.nn import layers as L
from fusionnet.nn import tensor as T
from fusionnet.nn.weights import write_weights
from fusionnet.orientations import derive_seed
from fusionnet.pipeline import (CacheReport, CacheSettings, DatasetManifest,
                                EpochRecord, FusionWeights, ManifestEntry,
                                RunConfig, ScoreTable, TrainingConfig,
                                average_per_class_accuracy, confusion_matrix,
                                evaluate_network, fit_fusion_weights,
                                fuse_scores, load_view_dataset,
                                load_voxel_dataset, make_icosphere,
                                make_synthetic_dataset, prepare_caches,
                                report_text, run_pipeline,
                                simplex_grid, split_fusion_validation, train,
                                views_to_input, voxels_to_input)
from fusionnet.pipeline import caches
from fusionnet.pipeline.caches import safe_id, stamp_rel, view_rel, voxel_rel
from fusionnet.pipeline.data import SHAPE_KINDS, _GENERATORS
from fusionnet.pipeline.run import _subsample_validation
from fusionnet.render import read_pgm
from fusionnet.voxel import read_voxel_cache

TINY = CacheSettings(orientation_count=2, resolution=16, image_size=32, seed=0)
STAMP = {"orientation_count": 2, "resolution": 16, "image_size": 32, "seed": 0,
         "jitter_sigma": 5.0, "format": 1}
PER_MODEL = 1 + TINY.orientation_count + 20  # stamp, grids, views; no jitter


def split_data(load, manifest, cache, split, **kw):
    return load(manifest, cache, TINY, manifest.split_entries(split), **kw)


def tree_digest(root):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            rel = os.path.relpath(os.path.join(dirpath, name), root)
            h.update(rel.encode())
            with open(os.path.join(dirpath, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("tinyds")
    manifest = make_synthetic_dataset(["box", "sphere"], per_class=3, seed=0,
                                      out_dir=str(root))
    return manifest


@pytest.fixture(scope="module")
def tiny_cache(tiny_dataset, tmp_path_factory):
    cache = tmp_path_factory.mktemp("tinycache")
    report = prepare_caches(tiny_dataset, str(cache), TINY,
                            include_jitter=True)
    assert report.failures == []
    return str(cache)


class TestSyntheticDataset:
    def test_counts_and_split(self, tiny_dataset):
        assert tiny_dataset.classes == ["box", "sphere"]
        assert len(tiny_dataset.entries) == 6
        # 80/20 split of 3 models: 2 train, 1 test per class
        assert len(tiny_dataset.split_entries("train")) == 4
        assert len(tiny_dataset.split_entries("test")) == 2

    def test_same_seed_reproduces_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        make_synthetic_dataset(["box", "pyramid"], per_class=2, seed=3, out_dir=str(a))
        make_synthetic_dataset(["box", "pyramid"], per_class=2, seed=3, out_dir=str(b))
        assert tree_digest(a) == tree_digest(b)

    def test_seed_changes_meshes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        make_synthetic_dataset(["box"], per_class=2, seed=3, out_dir=str(a))
        make_synthetic_dataset(["box"], per_class=2, seed=4, out_dir=str(b))
        assert tree_digest(a) != tree_digest(b)

    def test_every_shape_kind_generates_valid_meshes(self):
        rng = np.random.default_rng(0)
        for kind in SHAPE_KINDS:
            mesh = _GENERATORS[kind](rng)
            mesh.validate()
            assert len(mesh.faces) >= 4

    def test_unknown_class_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            make_synthetic_dataset(["blob"], per_class=2, seed=0, out_dir=str(tmp_path))

    def test_tiny_per_class_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            make_synthetic_dataset(["box"], per_class=1, seed=0, out_dir=str(tmp_path))


class TestIcosphere:
    @pytest.mark.parametrize("subdiv", [0, 1, 2, 3])
    def test_euler_characteristic(self, subdiv):
        mesh = make_icosphere(subdiv)
        v = len(mesh.vertices)
        f = len(mesh.faces)
        edges = set()
        for a, b, c in mesh.faces:
            for e in ((a, b), (b, c), (c, a)):
                edges.add(tuple(sorted(e)))
        assert v - len(edges) + f == 2
        assert f == 20 * 4 ** subdiv
        assert v == 2 + 10 * 4 ** subdiv

    def test_vertices_on_sphere(self):
        mesh = make_icosphere(2, radius=0.75)
        np.testing.assert_allclose(np.linalg.norm(mesh.vertices, axis=1),
                                   0.75, atol=1e-12)


class TestManifest:
    def test_write_read_roundtrip(self, tiny_dataset, tmp_path):
        path = tmp_path / "m.jsonl"
        tiny_dataset.write(str(path))
        back = DatasetManifest.read(str(path))
        assert back.classes == tiny_dataset.classes
        assert back.entries == tiny_dataset.entries
        assert back.root == str(tmp_path)

    def test_subset(self, tiny_dataset):
        sub = tiny_dataset.subset(["box"])
        assert sub.classes == ["box"]
        assert all(e.class_label == "box" for e in sub.entries)
        assert len(sub.entries) == 3

    def test_label_index(self, tiny_dataset):
        assert tiny_dataset.label_index("box") == 0
        assert tiny_dataset.label_index("sphere") == 1

    def test_duplicate_ids_rejected(self):
        e = ManifestEntry("m1", "box", "train", "a.off")
        e2 = ManifestEntry("m1", "box", "test", "b.off")
        with pytest.raises(ValueError):
            DatasetManifest(entries=[e, e2], classes=["box"], root=".")

    def test_missing_split_rejected(self):
        e = ManifestEntry("m1", "box", "train", "a.off")
        with pytest.raises(ValueError):
            DatasetManifest(entries=[e], classes=["box"], root=".")


class TestCacheLifecycle:
    def test_second_run_skips_everything(self, tiny_dataset, tiny_cache):
        report = prepare_caches(tiny_dataset, tiny_cache, TINY, include_jitter=True)
        assert report.failures == []
        assert report.written == 0 and report.regenerated == 0
        assert report.skipped > 0

    def test_corrupt_file_regenerated(self, tiny_dataset, tiny_cache):
        victim = os.path.join(tiny_cache, voxel_rel("box_0000", 1))
        with open(victim, "rb") as fh:
            good = fh.read()
        with open(victim, "wb") as fh:
            fh.write(b"garbage")
        report = prepare_caches(tiny_dataset, tiny_cache, TINY, include_jitter=True)
        assert report.regenerated == 1 and report.written == 0
        with open(victim, "rb") as fh:
            assert fh.read() == good

    def test_warm_pass_closes_every_file(self, tiny_dataset, tiny_cache):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            prepare_caches(tiny_dataset, tiny_cache, TINY, include_jitter=True)
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_stamp_is_the_model_key(self, tiny_dataset, tmp_path):
        """Each model's stamp is one sorted-key JSON line of the cache format,
        the settings and its mesh's sha256, and a warm pass leaves it alone: same bytes, same
        inode. No global manifest or orientation listing is written."""
        cache = str(tmp_path / "cache")
        prepare_caches(tiny_dataset, cache, TINY)
        assert sorted(os.listdir(cache)) == ["stamps", "views", "voxels"]
        assert sorted(os.listdir(os.path.join(cache, "stamps"))) == sorted(
            f"{safe_id(e.model_id)}.json" for e in tiny_dataset.entries)
        entry = tiny_dataset.entries[0]
        with open(tiny_dataset.mesh_path(entry), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        spath = os.path.join(cache, stamp_rel(entry.model_id))
        with open(spath, "rb") as fh:
            cold = fh.read()
        assert cold == (json.dumps({**STAMP, "mesh_sha256": digest}, sort_keys=True)
                        + "\n").encode("ascii")
        inode = os.stat(spath).st_ino
        prepare_caches(tiny_dataset, cache, TINY)
        with open(spath, "rb") as fh:
            assert fh.read() == cold
        assert os.stat(spath).st_ino == inode

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_report_counts(self, tiny_dataset, tmp_path, jobs):
        """A cold pass writes, per model, a stamp, a grid per orientation and
        flavor, and 20 views; a warm pass skips exactly as many files."""
        cache = str(tmp_path / "cache")
        files = len(tiny_dataset.entries) * (1 + TINY.orientation_count * 2 + 20)
        cold = prepare_caches(tiny_dataset, cache, TINY, include_jitter=True, jobs=jobs)
        assert (cold.written, cold.skipped, cold.regenerated, cold.failures) == (
            files, 0, 0, [])
        warm = prepare_caches(tiny_dataset, cache, TINY, include_jitter=True, jobs=jobs)
        assert (warm.written, warm.skipped, warm.regenerated, warm.failures) == (
            0, files, 0, [])

    def test_voxel_loader_grouping(self, tiny_dataset, tiny_cache):
        """Row m*N + k holds grid k of model m, of either flavor."""
        n = TINY.orientation_count
        for jit in (False, True):
            x, y, ids = split_data(load_voxel_dataset, tiny_dataset, tiny_cache, "train",
                                   jit=jit)
            assert x.shape == (len(ids) * n, 16, 16, 16) and x.dtype == np.uint8
            assert y.dtype == np.int64
            assert ids == [e.model_id for e in tiny_dataset.split_entries("train")]
            for m, model_id in enumerate(ids):
                block = y[m * n:(m + 1) * n]
                assert (block == block[0]).all()
                label = tiny_dataset.label_index(model_id.rsplit("_", 1)[0])
                assert block[0] == label
                for k in range(n):
                    with open(os.path.join(tiny_cache, voxel_rel(model_id, k, jit)),
                              "rb") as fh:
                        grid = read_voxel_cache(fh.read())
                    assert np.array_equal(x[m * n + k], grid.occupancy)

    def test_view_loader_twenty_views(self, tiny_dataset, tiny_cache):
        """Row m*20 + k holds view k of model m."""
        x, y, ids = split_data(load_view_dataset, tiny_dataset, tiny_cache, "test")
        assert x.shape == (len(ids) * 20, 32, 32) and x.dtype == np.uint8
        assert y.dtype == np.int64
        assert len(ids) == 2
        assert x.max() > 0  # renders are not blank
        for m, model_id in enumerate(ids):
            assert (y[m * 20:(m + 1) * 20] == tiny_dataset.label_index(
                model_id.rsplit("_", 1)[0])).all()
            for k in range(20):
                with open(os.path.join(tiny_cache, view_rel(model_id, k)), "rb") as fh:
                    assert np.array_equal(x[m * 20 + k], read_pgm(fh.read()))

    def test_jitter_flavor_differs(self, tiny_dataset, tiny_cache):
        base, _, _ = split_data(load_voxel_dataset, tiny_dataset, tiny_cache, "train")
        jit, _, _ = split_data(load_voxel_dataset, tiny_dataset, tiny_cache, "train",
                               jit=True)
        assert base.shape == jit.shape
        assert not np.array_equal(base, jit)

    def test_input_adapters(self, tiny_dataset, tiny_cache):
        x, _, _ = split_data(load_voxel_dataset, tiny_dataset, tiny_cache, "train")
        vx = voxels_to_input(x[:3])
        assert vx.dtype == np.float32 and set(np.unique(vx)) <= {0.0, 1.0}
        v, _, _ = split_data(load_view_dataset, tiny_dataset, tiny_cache, "test")
        vw = views_to_input(v[:3])
        assert vw.shape == (3, 3, 32, 32) and vw.dtype == np.float32
        assert vw.min() >= 0.0 and vw.max() <= 1.0
        np.testing.assert_array_equal(vw[:, 0], vw[:, 1])

    @pytest.mark.parametrize("change", [{"seed": 1}, {"orientation_count": 3},
                                        {"jitter_sigma": 0.5}, {"resolution": 12},
                                        {"image_size": 16}, {"mesh": True},
                                        {"format": 2}],
                             ids=lambda c: next(iter(c)))
    def test_changed_settings_regenerate(self, tmp_path, monkeypatch, change):
        """Files made under other settings, from other mesh bytes or in
        another cache format are rebuilt, not kept because their headers
        parse, whether or not the stamps are on disk; the cache then matches
        a fresh build byte for byte, and a rerun writes nothing."""
        settings = dataclasses.replace(TINY, **{k: v for k, v in change.items()
                                                if k not in ("mesh", "format")})
        for drop_stamps in (False, True):
            root = tmp_path / f"drop_stamps_{drop_stamps}"
            manifest = make_synthetic_dataset(["box"], per_class=2, seed=0,
                                              out_dir=str(root / "ds"))
            cache = str(root / "cache")
            prepare_caches(manifest, cache, TINY, include_jitter=True)
            before = sum(len(os.listdir(os.path.join(cache, d)))
                         for d in ("voxels", "voxels_jit", "views"))
            if drop_stamps:
                shutil.rmtree(os.path.join(cache, "stamps"))
            if "mesh" in change:  # swap the two meshes' bytes
                paths = [pathlib.Path(manifest.mesh_path(e)) for e in manifest.entries]
                meshes = [path.read_bytes() for path in paths]
                for path, data in zip(paths, reversed(meshes)):
                    path.write_bytes(data)
            if "format" in change:
                monkeypatch.setattr(caches, "CACHE_FORMAT", change["format"])
            report = prepare_caches(manifest, cache, settings, include_jitter=True)
            assert report.failures == [] and report.skipped == 0
            assert report.regenerated == before
            prepare_caches(manifest, str(root / "fresh"), settings, include_jitter=True)
            assert tree_digest(cache) == tree_digest(root / "fresh")
            again = prepare_caches(manifest, cache, settings, include_jitter=True)
            assert (again.written, again.regenerated, again.failures) == (0, 0, [])
            monkeypatch.undo()

    def test_flavor_left_out_of_a_stale_pass(self, tmp_path):
        """A stale pass without jitter removes the jittered grids of the old
        settings, so a later pass with jitter rebuilds them."""
        manifest = make_synthetic_dataset(["box"], per_class=2, seed=0,
                                          out_dir=str(tmp_path / "ds"))
        cache, fresh = str(tmp_path / "cache"), str(tmp_path / "fresh")
        changed = dataclasses.replace(TINY, seed=1)
        prepare_caches(manifest, cache, TINY, include_jitter=True)
        prepare_caches(manifest, cache, changed)
        assert os.listdir(os.path.join(cache, "voxels_jit")) == []
        report = prepare_caches(manifest, cache, changed, include_jitter=True)
        assert report.written == len(manifest.entries) * TINY.orientation_count
        prepare_caches(manifest, fresh, changed, include_jitter=True)
        assert tree_digest(cache) == tree_digest(fresh)

    def test_failed_stale_pass_stays_stale(self, tmp_path):
        """A model that fails keeps no stamp of the new settings, so the next
        pass rebuilds it, and only it, to match a fresh build."""
        manifest = make_synthetic_dataset(["box"], per_class=2, seed=0,
                                          out_dir=str(tmp_path / "ds"))
        cache, fresh = str(tmp_path / "cache"), str(tmp_path / "fresh")
        prepare_caches(manifest, cache, TINY)
        mesh_path = manifest.mesh_path(manifest.entries[0])
        with open(mesh_path, "rb") as fh:
            good = fh.read()
        with open(mesh_path, "wb") as fh:
            fh.write(b"not an OFF file")
        changed = dataclasses.replace(TINY, seed=1)
        assert prepare_caches(manifest, cache, changed).failures
        with open(mesh_path, "wb") as fh:
            fh.write(good)
        report = prepare_caches(manifest, cache, changed)
        assert report.failures == [] and report.skipped == PER_MODEL
        assert (report.written, report.regenerated) == (1, PER_MODEL - 1)
        prepare_caches(manifest, fresh, changed)
        assert tree_digest(cache) == tree_digest(fresh)

    def test_interrupted_pass_rebuilds_unstamped_models(self, tmp_path):
        """A pass cut short leaves stamps only on the models it finished; the
        resume keeps those and rebuilds the rest, whose files may be of other
        settings although they decode."""
        manifest = make_synthetic_dataset(["box"], per_class=2, seed=0,
                                          out_dir=str(tmp_path / "ds"))
        cache, fresh = str(tmp_path / "cache"), str(tmp_path / "fresh")
        changed = dataclasses.replace(TINY, seed=1)
        prepare_caches(manifest, cache, TINY)
        first, second = manifest.entries
        # the cut pass finished the second model, and had begun the first
        prepare_caches(DatasetManifest(entries=[second], classes=[],
                                       root=manifest.root), cache, changed)
        os.remove(os.path.join(cache, stamp_rel(first.model_id)))
        report = prepare_caches(manifest, cache, changed)
        assert report.failures == [] and report.skipped == PER_MODEL
        assert (report.written, report.regenerated) == (1, PER_MODEL - 1)
        prepare_caches(manifest, fresh, changed)
        assert tree_digest(cache) == tree_digest(fresh)

    def test_fewer_orientations_remove_the_rest(self, tmp_path):
        """Prepping at 3 orientations and then at 2 leaves exactly the voxel
        files of orientations 0 and 1 on disk."""
        manifest = make_synthetic_dataset(["box"], per_class=2, seed=0,
                                          out_dir=str(tmp_path / "ds"))
        cache = str(tmp_path / "cache")
        three = dataclasses.replace(TINY, orientation_count=3)
        prepare_caches(manifest, cache, three, include_jitter=True, include_views=False)
        prepare_caches(manifest, cache, TINY, include_jitter=True, include_views=False)
        on_disk = {os.path.join(d, name) for d in ("voxels", "voxels_jit")
                   for name in os.listdir(os.path.join(cache, d))}
        assert on_disk == {voxel_rel(e.model_id, k, jit) for e in manifest.entries
                           for k in range(2) for jit in (False, True)}

    def test_parallel_prepare_matches_serial(self, tiny_dataset, tmp_path):
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        prepare_caches(tiny_dataset, str(serial), TINY, include_jitter=True, jobs=1)
        prepare_caches(tiny_dataset, str(parallel), TINY, include_jitter=True, jobs=2)
        assert tree_digest(serial) == tree_digest(parallel)


def toy_spec(freeze_below=None):
    return NetworkSpec(name="toy", input_shape=(1, 2, 2),
                       layers=(L.fc(16), L.relu(), L.view_maxpool(), L.fc(2)),
                       class_count=2, freeze_below=freeze_below)


def toy_data(n_per_class=20, noise=0.1, seed=0):
    rng = np.random.default_rng(seed)
    a = np.array([1.0, 0.0, 0.0, 1.0])
    b = np.array([0.0, 1.0, 1.0, 0.0])
    xs, ys = [], []
    for label, base in ((0, a), (1, b)):
        for _ in range(n_per_class):
            xs.append(base + rng.normal(0, noise, 4))
        ys.extend([label] * n_per_class)
    x = np.asarray(xs, dtype=np.float64).reshape(-1, 1, 2, 2)
    y = np.asarray(ys, dtype=np.int64)
    perm = rng.permutation(len(y))
    return x[perm], y[perm]


def toy_config(tmp_path=None, epochs=30, seed=0):
    return TrainingConfig(
        epochs=epochs,
        optimizer=OptimizerConfig(learning_rate=0.05, momentum=0.9),
        batch_size=8, seed=seed,
        log_path=str(tmp_path / "log.csv") if tmp_path else None)


class TestTraining:
    def test_loss_decreases_and_metric_saturates(self, tmp_path):
        net = Network.initialize(toy_spec(), seed=1)
        x, y = toy_data()
        records = train(net, x, y, toy_config(tmp_path), np.float32, name="toy")
        assert len(records) == 30
        assert records[-1].loss < records[0].loss
        assert records[-1].train_metric == 1.0

    def test_repeat_run_bit_identical(self):
        x, y = toy_data()
        outs = []
        for _ in range(2):
            net = Network.initialize(toy_spec(), seed=1)
            train(net, x, y, toy_config(epochs=5), np.float32, name="toy")
            outs.append(write_weights(net.arrays()))
        assert outs[0] == outs[1]

    def test_csv_log_format(self, tmp_path):
        net = Network.initialize(toy_spec(), seed=1)
        x, y = toy_data()
        train(net, x, y, toy_config(tmp_path, epochs=3), np.float32, name="toy")
        lines = (tmp_path / "log.csv").read_text().splitlines()
        assert lines[0] == "epoch,loss,train_metric,wall_seconds"
        assert len(lines) == 4
        for i, line in enumerate(lines[1:]):
            cells = line.split(",")
            assert int(cells[0]) == i
            float(cells[1]), float(cells[2]), float(cells[3])

    def test_writes_only_the_log(self, tmp_path):
        net = Network.initialize(toy_spec(), seed=1)
        x, y = toy_data()
        train(net, x, y, toy_config(tmp_path, epochs=2), np.float32, name="toy")
        assert sorted(os.listdir(tmp_path)) == ["log.csv"]

    def test_frozen_layers_stay_bit_identical(self):
        spec = toy_spec(freeze_below=1)
        net = Network.initialize(spec, seed=2)
        before = net.arrays()
        x, y = toy_data()
        train(net, x, y, toy_config(epochs=5), np.float32, name="toy")
        after = net.arrays()
        assert np.array_equal(before["L00.fully_connected.w"],
                              after["L00.fully_connected.w"])
        assert np.array_equal(before["L00.fully_connected.b"],
                              after["L00.fully_connected.b"])
        assert not np.array_equal(before["L03.fully_connected.w"],
                                  after["L03.fully_connected.w"])

    def test_after_epoch_callback(self):
        net = Network.initialize(toy_spec(), seed=1)
        x, y = toy_data()
        seen = []
        train(net, x, y, toy_config(epochs=3), np.float32, name="toy",
              after_epoch=lambda n, e: seen.append(e))
        assert seen == [0, 1, 2]

    def test_returns_with_no_gradients_attached(self):
        net = Network.initialize(toy_spec(), seed=1)
        x, y = toy_data()
        train(net, x, y, toy_config(epochs=2), np.float32, name="toy")
        assert all(p.grad is None for p in net.params.values())

    def test_from_arrays_network_trains_on_its_own_copy(self):
        source = Network.initialize(toy_spec(), seed=1).arrays()
        before = {k: v.copy() for k, v in source.items()}
        net = Network.from_arrays(toy_spec(), source)
        x, y = toy_data()
        train(net, x, y, toy_config(epochs=1), np.float32, name="toy")
        assert not np.array_equal(net.arrays()["L03.fully_connected.w"],
                                  before["L03.fully_connected.w"])
        for k in before:
            assert source[k].tobytes() == before[k].tobytes()

    def test_from_arrays_fortran_input_gets_c_ordered_parameters(self):
        source = {k: np.asfortranarray(v)
                  for k, v in Network.initialize(toy_spec(), seed=1).arrays().items()}
        before = {k: v.copy() for k, v in source.items()}
        net = Network.from_arrays(toy_spec(), source)
        assert all(p.data.flags.c_contiguous for p in net.params.values())
        x, y = toy_data()
        train(net, x, y, toy_config(epochs=1), np.float32, name="toy")
        for k in before:
            assert not np.array_equal(net.params[k].data, before[k])  # updates landed
            assert source[k].tobytes() == before[k].tobytes()

    def test_non_finite_loss_stops_before_update(self):
        net = Network.initialize(toy_spec(), seed=1)
        before = net.arrays()
        x, y = toy_data()
        # a NaN in a sample of the first epoch's second batch (batch size 8)
        order = np.random.default_rng(derive_seed(0, "order", "toy")).permutation(len(x))
        x[order[10], 0, 1, 0] = np.nan
        with pytest.raises(ValueError, match="toy: non-finite loss nan at epoch 0, batch 1"):
            train(net, x, y, toy_config(epochs=2), np.float32, name="toy")
        # one update, from batch 0; the NaN batch updated nothing
        assert all(np.isfinite(v).all() for v in net.arrays().values())
        assert not np.array_equal(net.arrays()["L03.fully_connected.w"],
                                  before["L03.fully_connected.w"])

    def test_validation(self):
        net = Network.initialize(toy_spec(), seed=1)
        x, y = toy_data()
        with pytest.raises(ValueError):
            TrainingConfig(epochs=0, optimizer=OptimizerConfig(learning_rate=0.1))
        with pytest.raises(ValueError):
            train(net, x, y[:-1], toy_config(epochs=1), np.float32)
        with pytest.raises(ValueError):
            train(net, x, y + 5, toy_config(epochs=1), np.float32)


class TestMetric:
    def test_confusion_matrix_hand_example(self):
        cm = confusion_matrix([0, 0, 0, 0, 1, 1], [0, 0, 0, 1, 0, 1], 2)
        np.testing.assert_array_equal(cm, [[3, 1], [1, 1]])

    def test_average_per_class_differs_from_pooled(self):
        cm = np.array([[3, 1], [1, 1]])
        # class recalls 3/4 and 1/2 average to 0.625; pooled accuracy is 4/6
        assert average_per_class_accuracy(cm) == pytest.approx(0.625)
        assert average_per_class_accuracy(cm) != pytest.approx(4 / 6)

    def test_absent_class_ignored(self):
        cm = np.array([[4, 0, 0], [0, 0, 0], [2, 0, 2]])
        assert average_per_class_accuracy(cm) == pytest.approx((1.0 + 0.5) / 2)

    def test_empty_confusion(self):
        assert average_per_class_accuracy(np.zeros((3, 3), dtype=int)) == 0.0

    def test_confusion_validation(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 1], [0], 2)
        with pytest.raises(ValueError):
            confusion_matrix([0, 2], [0, 1], 2)


class TestEvaluateNetwork:
    def trained_net(self):
        net = Network.initialize(toy_spec(), seed=1)
        x, y = toy_data()
        train(net, x, y, toy_config(epochs=20), np.float32, name="toy")
        return net

    def grouped_eval_data(self, group=3, seed=99):
        rng = np.random.default_rng(seed)
        a = np.array([1.0, 0.0, 0.0, 1.0])
        b = np.array([0.0, 1.0, 1.0, 0.0])
        x = np.stack([a + rng.normal(0, 0.05, 4) for _ in range(group)]
                     + [b + rng.normal(0, 0.05, 4) for _ in range(group)])
        y = np.array([0] * group + [1] * group)
        return x.reshape(-1, 1, 2, 2), y

    def test_grouped_metric(self):
        net = self.trained_net()
        x, y = self.grouped_eval_data()
        result = evaluate_network(net, x, y, ["m0", "m1"], ["a", "b"], np.float32)
        assert result.metric == 1.0
        assert result.per_class(["a", "b"]) == {"a": 1.0, "b": 1.0}
        assert predictions(result) == {"m0": 0, "m1": 1}
        assert dict(zip(result.ids, result.labels.tolist())) == {"m0": 0, "m1": 1}
        assert result.network == "toy"

    def test_group_label_consistency_enforced(self):
        net = self.trained_net()
        x, y = self.grouped_eval_data()
        y = y.copy()
        y[1] = 1  # poison one orientation's label inside model m0's block
        with pytest.raises(ValueError):
            evaluate_network(net, x, y, ["m0", "m1"], ["a", "b"], np.float32)

    def test_class_count_mismatch(self):
        net = self.trained_net()
        x, y = self.grouped_eval_data()
        with pytest.raises(ValueError):
            evaluate_network(net, x, y, ["m0", "m1"], ["a", "b", "c"], np.float32)

    def test_group_divisibility(self):
        net = self.trained_net()
        x, y = self.grouped_eval_data()
        with pytest.raises(ValueError):
            evaluate_network(net, x[:-1], y[:-1], ["m0", "m1"], ["a", "b"],
                             np.float32)


def evaluate_per_model_reference(network, x, ids, to_input):
    """Scores as evaluation made them one model at a time: the trunk on the
    model's group, view_maxpool, then the head on the one pooled row, with
    every fc layer as the row-major x @ W.T."""
    group = len(x) // len(ids)
    rows = []
    for m in range(len(ids)):
        y = T.Tensor(to_input(x[m * group:(m + 1) * group]))
        for i, spec in enumerate(network.spec.layers):
            path = L.layer_path(i, spec)
            if spec.kind == "view_maxpool":
                y = T.Tensor(T.view_maxpool(y).data[None])
            elif spec.kind == "fully_connected":
                w, b = network.params[f"{path}.w"].data, network.params[f"{path}.b"].data
                y = T.Tensor(T._matmul(y.data.reshape(len(y.data), -1), w.T) + b)
            else:
                y = L.apply_layer(spec, y, network.params, path, False, None)
        rows.append(y.data[0])
    return np.array(rows, dtype=np.float64)


class TestChunkedEvaluation:
    # (net, group, models): each model count leaves a ragged last chunk where
    # a chunk holds more than one model; a group of 40 outgrows a chunk
    CASES = [("vcnn2", 2, 17), ("vcnn1", 1, 35), ("vcnn1", 2, 17), ("vcnn1", 12, 5),
             ("vcnn1", 40, 2), ("mvnet", 20, 3)]

    @pytest.mark.parametrize("name, group, models", CASES)
    def test_scores_match_per_model_loop_bytes(self, name, group, models):
        net = Network.initialize(BUILDERS[name](4), seed=5)
        rng = np.random.default_rng(group)
        n = models * group
        if name == "mvnet":
            x, to_input = rng.integers(0, 256, (n, 64, 64), np.uint8), views_to_input
        else:
            x, to_input = (rng.random((n, 30, 30, 30)) < 0.2).astype(np.uint8), voxels_to_input
        y = np.repeat(np.arange(models) % 4, group)
        ids = [f"m{i}" for i in range(models)]
        table = evaluate_network(net, x, y, ids, ["a", "b", "c", "d"], to_input)
        assert table.labels.tolist() == (np.arange(models) % 4).tolist()
        assert table.matrix.tobytes() == evaluate_per_model_reference(
            net, x, ids, to_input).tobytes()

    def test_mixed_labels_mid_chunk_raise(self):
        net = Network.initialize(toy_spec(), seed=1)
        group, models = 3, 7  # one chunk of 7 models
        x = np.random.default_rng(0).random((models * group, 1, 2, 2))
        y = np.repeat(np.arange(models) % 2, group)
        y[3 * group + 1] = 1 - y[3 * group + 1]
        with pytest.raises(ValueError, match="'m3'"):
            evaluate_network(net, x, y, [f"m{i}" for i in range(models)], ["a", "b"],
                             np.float32)


def predictions(table):
    """Predicted class per model: the argmax of its scores."""
    return dict(zip(table.ids, np.argmax(table.matrix, axis=1).tolist()))


class TestScoreTable:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ScoreTable("n", ["m"], [0], np.array([[1.0, np.nan]]))

    def test_rejects_duplicate_ids_and_ragged_rows(self):
        with pytest.raises(ValueError):
            ScoreTable("n", ["m", "m"], [0, 0], np.zeros((2, 3)))
        with pytest.raises(ValueError):
            ScoreTable("n", ["m"], [0, 1], np.zeros((1, 3)))
        with pytest.raises(ValueError):
            ScoreTable("n", ["m"], [0], np.zeros(3))

    def test_metric_and_per_class(self):
        t = ScoreTable("n", ["a", "b", "c"], [0, 0, 1],
                       [[2.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
        assert t.metric == pytest.approx(0.75)  # class z has no model
        per_class = t.per_class(["x", "y", "z"])
        assert list(per_class) == ["x", "y", "z"]
        assert per_class["x"] == 0.5 and per_class["y"] == 1.0 and np.isnan(per_class["z"])


class TestScoresIO:
    # float32 network scores; the text is what the score files hold
    GOLDEN = (
        '{"label": 0, "model_id": "box_0003", "network": "vcnn1", "scores": '
        '[0.10000000149011612, -2.5, 2.999999892949745e-08, 1234.5677490234375]}\n'
        '{"label": 3, "model_id": "table/test/table_0001", "network": "vcnn1", "scores": '
        '[0.3333333432674408, -0.0, 7.25, -0.0010000000474974513]}\n')

    def test_golden_bytes(self):
        rows = np.array([[0.1, -2.5, 3e-8, 1234.5678], [1 / 3, -0.0, 7.25, -1e-3]],
                        dtype=np.float32)
        table = ScoreTable("vcnn1", ["box_0003", "table/test/table_0001"], [0, 3], rows)
        assert table.to_jsonl() == self.GOLDEN
        assert ScoreTable.from_jsonl(self.GOLDEN).to_jsonl() == self.GOLDEN

    def test_roundtrip_exact(self):
        rng = np.random.default_rng(0)
        table = ScoreTable("vcnn1", [f"m{i}" for i in range(5)], [i % 4 for i in range(5)],
                           rng.normal(size=(5, 4)))
        back = ScoreTable.from_jsonl(table.to_jsonl())
        assert back.ids == table.ids and back.network == table.network
        assert np.array_equal(back.labels, table.labels)
        assert np.array_equal(back.matrix, table.matrix)

    def test_lines_are_sorted_json(self):
        text = ScoreTable("n", ["m"], [0], [[1.0, 2.0]]).to_jsonl()
        rec = json.loads(text)
        assert list(rec) == sorted(rec)

    def test_decode_rejects_empty_and_mixed_networks(self):
        with pytest.raises(ValueError):
            ScoreTable.from_jsonl("\n")
        a = ScoreTable("a", ["m"], [0], [[1.0, 2.0]]).to_jsonl()
        b = ScoreTable("b", ["n"], [0], [[1.0, 2.0]]).to_jsonl()
        with pytest.raises(ValueError):
            ScoreTable.from_jsonl(a + b)


class TestSimplexGrid:
    def test_single_component(self):
        np.testing.assert_array_equal(simplex_grid(1), [[1.0]])

    def test_two_components_step_005(self):
        grid = simplex_grid(2, step=0.05)
        assert grid.shape == (21, 2)
        np.testing.assert_allclose(grid.sum(axis=1), 1.0, atol=1e-12)
        assert [1.0, 0.0] in grid.tolist() and [0.0, 1.0] in grid.tolist()
        assert len({tuple(r) for r in grid.tolist()}) == 21

    def test_four_components_count(self):
        # compositions of 20 ticks into 4 bins: C(23, 3)
        assert simplex_grid(4, step=0.05).shape == (1771, 4)

    def test_non_divisor_step_rejected(self):
        with pytest.raises(ValueError):
            simplex_grid(2, step=0.3)

    def test_nonnegative(self):
        assert (simplex_grid(3, step=0.25) >= 0).all()

    def test_order(self):
        """Ties between grid vectors go to the earlier one, so the order is
        part of the fit's result."""
        assert simplex_grid(3, step=0.5).tolist() == [
            [0.0, 0.0, 1.0], [0.0, 0.5, 0.5], [0.0, 1.0, 0.0],
            [0.5, 0.0, 0.5], [0.5, 0.5, 0.0], [1.0, 0.0, 0.0]]


class TestFusionWeights:
    def test_validation(self):
        with pytest.raises(ValueError):
            FusionWeights(("a", "b"), (0.6, 0.6))
        with pytest.raises(ValueError):
            FusionWeights(("a", "b"), (1.5, -0.5))
        with pytest.raises(ValueError):
            FusionWeights(("a", "a"), (0.5, 0.5))
        with pytest.raises(ValueError):
            FusionWeights(("a",), (0.5, 0.5))

    def test_as_dict(self):
        fw = FusionWeights(("a", "b"), (0.25, 0.75))
        assert fw.as_dict() == {"a": 0.25, "b": 0.75}


def scores_for(model_vals, network, labels=None):
    labels = labels or {}
    return ScoreTable(network, list(model_vals), [labels.get(m, 0) for m in model_vals],
                      [np.asarray(v, dtype=np.float64) for v in model_vals.values()])


class TestFuseScores:
    def test_hand_arithmetic(self):
        a = scores_for({"m": [2.0, 0.0]}, "a")
        b = scores_for({"m": [0.0, 3.0]}, "b")
        fw = FusionWeights(("a", "b"), (0.5, 0.5))
        fused = fuse_scores([a, b], fw)
        np.testing.assert_allclose(fused.matrix[0], [1.0, 1.5])
        assert fused.network == "fusion"
        assert predictions(fuse_scores([a, b], fw)) == {"m": 1}

    def test_tie_prefers_lowest_class(self):
        a = scores_for({"m": [1.0, 1.0]}, "a")
        fw = FusionWeights(("a",), (1.0,))
        assert predictions(fuse_scores([a], fw)) == {"m": 0}

    def test_normalize_can_overrule_raw_magnitude(self):
        """Two mildly confident components against one loud one: raw fusion
        follows the loud score, softmax-normalized fusion follows the
        majority."""
        a = scores_for({"m": [2.0, 0.0]}, "a")
        b = scores_for({"m": [2.0, 0.0]}, "b")
        c = scores_for({"m": [0.0, 10.0]}, "c")
        third = 1.0 / 3.0
        fw = FusionWeights(("a", "b", "c"), (third, third, third))
        assert predictions(fuse_scores([a, b, c], fw)) == {"m": 1}
        assert predictions(fuse_scores([a, b, c], fw, normalize=True)) == {"m": 0}

    def test_alignment_errors(self):
        a = scores_for({"m1": [1.0, 0.0], "m2": [0.0, 1.0]}, "a")
        fw = FusionWeights(("a", "b"), (0.5, 0.5))
        unknown = scores_for({"m1": [1.0, 0.0], "mX": [0.0, 1.0]}, "b")
        with pytest.raises(ValueError):
            fuse_scores([a, unknown], fw)
        missing = scores_for({"m1": [1.0, 0.0]}, "b")
        with pytest.raises(ValueError):
            fuse_scores([a, missing], fw)
        short = scores_for({"m1": [1.0], "m2": [0.0]}, "b")
        with pytest.raises(ValueError):
            fuse_scores([a, short], fw)
        with pytest.raises(ValueError):
            fuse_scores([a], fw)
        relabeled = scores_for({"m1": [1.0, 0.0], "m2": [0.0, 1.0]}, "b", {"m2": 1})
        with pytest.raises(ValueError):
            fuse_scores([a, relabeled], fw)


class TestFitFusionWeights:
    def complementary(self):
        """Component a nails even models, is systematically wrong on odd
        ones with a small margin; component b mirrors it, so only a blend
        classifies everything."""
        labels = {}
        a_vals, b_vals = {}, {}
        for i in range(8):
            label = i % 2
            m = f"m{i}"
            labels[m] = label
            strong = np.zeros(2)
            strong[label] = 3.0
            weak = np.zeros(2)
            weak[1 - label] = 0.8
            if i % 2 == 0:
                a_vals[m], b_vals[m] = strong, weak
            else:
                a_vals[m], b_vals[m] = weak, strong
        return (scores_for(a_vals, "a", labels), scores_for(b_vals, "b", labels), labels)

    def test_mixed_weights_beat_corners(self):
        a, b, labels = self.complementary()
        [(fw, metric)] = fit_fusion_weights([a, b], ["a", "b"])
        assert metric == 1.0
        assert 0.0 < fw.weights[0] < 1.0 and 0.0 < fw.weights[1] < 1.0

    def test_fitted_metric_at_least_best_component(self):
        rng = np.random.default_rng(4)
        labels = {f"m{i}": int(rng.integers(0, 3)) for i in range(12)}
        comps = []
        for name in ("a", "b", "c"):
            comps.append(scores_for(
                {m: rng.normal(size=3) for m in labels}, name, labels))
        [(fw, metric)] = fit_fusion_weights(comps, ["a", "b", "c"])

        def single_metric(component):
            preds = predictions(component)
            y = np.array([labels[m] for m in preds])
            p = np.array([preds[m] for m in preds])
            return average_per_class_accuracy(confusion_matrix(y, p, 3))

        assert metric >= max(single_metric(c) for c in comps) - 1e-12

    def test_identical_components_pick_uniform_weights(self):
        a, _, labels = self.complementary()
        twin = ScoreTable("b", a.ids, a.labels, a.matrix.copy())
        [(fw, _)] = fit_fusion_weights([a, twin], ["a", "b"])
        assert fw.weights == (0.5, 0.5)

    def test_one_hot_when_single_component_is_best(self):
        labels = {"m0": 0, "m1": 1}
        good = scores_for({"m0": [1.0, 0.0], "m1": [0.0, 1.0]}, "good", labels)
        bad = scores_for({"m0": [0.0, 9.0], "m1": [9.0, 0.0]}, "bad", labels)
        [(fw, metric)] = fit_fusion_weights([good, bad], ["good", "bad"])
        assert metric == 1.0
        assert fw.weights[0] > 0.9  # anything drowned by 'bad' misclassifies


def fit_fusion_weights_reference(tables, components, mask, step=0.05, normalize=False):
    """One fit the way run_pipeline made each of its refits before the fits
    shared a prediction table: copies of the subset's rows, a (grid, models,
    classes) tensordot over the whole grid, and one confusion matrix per
    grid row."""
    mat = np.stack([t.matrix[mask] for t in tables])
    if normalize:
        mat = T.softmax_probs(mat)
    labels = tables[0].labels[mask]
    grid = simplex_grid(len(components), step=step)
    preds = np.argmax(np.tensordot(grid, mat, axes=(1, 0)), axis=2)
    best = None
    for g in range(len(grid)):
        metric = average_per_class_accuracy(confusion_matrix(labels, preds[g], mat.shape[2]))
        key = (-metric, float(np.var(grid[g])), g)
        if best is None or key < best[0]:
            best = (key, g, metric)
    _, g, metric = best
    return FusionWeights(tuple(components), tuple(grid[g])), metric


def random_score_tables(components, classes, models, seed, quantize=False):
    """Tables of random scores for the same models; quantized scores, whole
    numbers, make many fused scores and grid metrics tie exactly."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, size=models)
    ids = [f"m{i}" for i in range(models)]
    tables = []
    for c in range(components):
        scores = rng.normal(size=(models, classes)) * 2
        tables.append(ScoreTable(f"c{c}", ids, labels,
                                 np.round(scores) if quantize else scores))
    return tables


class TestFitFusionSubsets:
    """The fit and its refits from one call and one prediction table pick
    the weights and metric bytes of refitting each subset on its own."""

    def check_against_reference(self, tables, normalize):
        names = [t.network for t in tables]
        masks = [_subsample_validation(tables[0].labels, s) for s in range(10)]
        fits = fit_fusion_weights(tables, names, normalize=normalize, subsets=masks)
        assert len(fits) == 1 + len(masks)
        for (fw, metric), mask in zip(fits, [np.ones(len(tables[0].ids), bool), *masks]):
            want_fw, want_metric = fit_fusion_weights_reference(tables, names, mask,
                                                                normalize=normalize)
            assert fw.weights == want_fw.weights
            assert repr(metric) == repr(want_metric)

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("quantize", [False, True])
    @pytest.mark.parametrize("classes", [3, 10, 40])
    @pytest.mark.parametrize("components", [2, 3, 4])
    def test_matches_refitting_each_subset(self, components, classes, quantize, normalize):
        tables = random_score_tables(components, classes, models=4 * classes + 7,
                                     seed=100 * components + classes, quantize=quantize)
        self.check_against_reference(tables, normalize)

    @pytest.mark.slow
    def test_matches_refitting_at_modelnet40_validation_size(self):
        """1,968 validation models, 40 classes, 4 components: the size at
        which each refit used to build a 1.1 GB score tensor."""
        self.check_against_reference(random_score_tables(4, 40, 1968, seed=0), False)

    def test_empty_subset_rejected(self):
        tables = random_score_tables(2, 3, 6, seed=1)
        with pytest.raises(ValueError):
            fit_fusion_weights(tables, ["c0", "c1"], subsets=[np.zeros(6, dtype=bool)])


class TestSplitFusionValidation:
    def test_stratified_partition(self, tmp_path):
        manifest = make_synthetic_dataset(["box", "sphere"], per_class=10,
                                          seed=1, out_dir=str(tmp_path))
        core, val = split_fusion_validation(manifest, seed=5)
        train_entries = manifest.split_entries("train")
        assert len(core) + len(val) == len(train_entries)
        assert set(e.model_id for e in core).isdisjoint(
            e.model_id for e in val)
        for cls in manifest.classes:
            # 20% of the 8 training models per class
            assert sum(1 for e in val if e.class_label == cls) == 2

    def test_deterministic(self, tmp_path):
        manifest = make_synthetic_dataset(["box", "sphere"], per_class=10,
                                          seed=1, out_dir=str(tmp_path))
        a = split_fusion_validation(manifest, seed=5)
        b = split_fusion_validation(manifest, seed=5)
        assert [e.model_id for e in a[1]] == [e.model_id for e in b[1]]
        c = split_fusion_validation(manifest, seed=6)
        assert [e.model_id for e in a[1]] != [e.model_id for e in c[1]]


class TestRenderReport:
    METRICS = {
        "dataset": {"classes": ["box", "sphere"], "label": "synthetic box,sphere",
                    "train": 4, "val": 2, "test": 2},
        "settings": {"components": ["vcnn1", "mvnet"], "orientations": 12,
                     "resolution": 30, "image_size": 64, "epochs": 10, "seed": 7,
                     "batch_size": 4},
        "components": {"mvnet": {"views": 20, "test": 0.9},
                       "vcnn1": {"views": 12, "test": 0.95}},
        "fusion": {"weights": {"mvnet": 0.45, "vcnn1": 0.55}, "test": 0.975},
    }

    def test_deterministic_text(self):
        text = report_text(self.METRICS)
        assert text == (
            "3D shape classification\n"
            "dataset: synthetic box,sphere (train 4 / val 2 / test 2 models)\n"
            "settings: epochs=10 image_size=64 orientations=12 resolution=30 seed=7\n"
            "\n"
            "network  views  avg per-class accuracy\n"
            "vcnn1       12  0.9500\n"
            "mvnet       20  0.9000\n"
            "fusion       -  0.9750\n"
            "\n"
            "fusion weights: vcnn1=0.55 mvnet=0.45\n")
        assert report_text(json.loads(json.dumps(self.METRICS, sort_keys=True))) == text

    def test_older_metrics_fall_back_to_sorted_names(self):
        old = json.loads(json.dumps(self.METRICS))
        del old["dataset"]["label"], old["settings"]["components"], old["fusion"]
        text = report_text(old)
        assert "dataset: box,sphere (train 4" in text
        assert text.index("mvnet") < text.index("vcnn1") and "fusion" not in text


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = RunConfig(out_dir=str(out),
                    synthetic_classes=("box", "sphere"),
                    synthetic_per_class=4,
                    components=("vcnn1",),
                    orientation_count=2,
                    epochs=2, batch_size=4, seed=3,
                    fusion_seeds=3)
    metrics = run_pipeline(cfg)
    return out, metrics


class TestRunPipeline:
    def test_metrics_structure(self, tiny_run):
        _, metrics = tiny_run
        assert metrics["dataset"]["classes"] == ["box", "sphere"]
        assert metrics["dataset"]["train"] == 4  # 3 train/class minus 1 val
        assert metrics["dataset"]["val"] == 2
        assert metrics["dataset"]["test"] == 2
        comp = metrics["components"]["vcnn1"]
        for key in ("train_metric", "final_loss", "val", "test", "views"):
            assert key in comp
        assert metrics["fusion"]["seed_count"] == 3

    def test_fused_val_at_least_best_component(self, tiny_run):
        _, metrics = tiny_run
        best = max(c["val"] for c in metrics["components"].values())
        assert metrics["fusion"]["val"] >= best - 1e-12

    def test_artifacts_written(self, tiny_run):
        out, metrics = tiny_run
        for rel in ("metrics.json", "report.txt", "weights/vcnn1.fnw1",
                    "logs/vcnn1.csv",
                    "scores/vcnn1_val.jsonl", "scores/vcnn1_test.jsonl",
                    "scores/fusion_test.jsonl", "dataset/manifest.jsonl"):
            assert (out / rel).exists(), rel
        assert not (out / "checkpoints").exists()
        stored = json.loads((out / "metrics.json").read_text())
        assert stored == json.loads(json.dumps(metrics))

    def test_config_validation(self, tmp_path):
        with pytest.raises(ValueError):
            RunConfig(out_dir=str(tmp_path))  # no data source
        with pytest.raises(ValueError):
            RunConfig(out_dir=str(tmp_path), data_root="x",
                      synthetic_classes=("box",), synthetic_per_class=2)
        with pytest.raises(ValueError):
            RunConfig(out_dir=str(tmp_path), synthetic_classes=("box",),
                      synthetic_per_class=2, components=("nope",))
