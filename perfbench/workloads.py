"""The benchmark's workloads and the rounds they repeat.

A round is one fixed batch of work on inputs made from the seed: cold
cache preparation, warm re-preparation passes over the same cache, and
(through run_pipeline) training, evaluation and fusion. The program is
driven only through make_synthetic_dataset, prepare_caches and
run_pipeline; stage times come from wrapping run_pipeline's calls to
prepare_caches, train and evaluate_network (see StageClock).

Times come from a clock in probe.py: CPU seconds of this process, scaled by
the speed probe in untraced runs. The program runs in this one process on
one BLAS thread, so on an idle machine its CPU time is its wall time. Raw
CPU and wall times are kept in the run files.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import time
from dataclasses import dataclass

import checks

ALL_KINDS = ("box", "cylinder", "pyramid", "sphere", "torus")
DESK_KINDS = ("box", "cylinder", "pyramid", "sphere")
RESOLUTION = 30
IMAGE_SIZE = 64
JITTER_SIGMA = 5.0


@dataclass(frozen=True)
class PipelineSpec:
    """One run_pipeline call and the warm passes that follow it."""
    kinds: tuple[str, ...]
    per_class: int
    components: tuple[str, ...]
    orientations: int
    epochs: int
    learning_rate: float
    batch: int
    floors: dict[str, float]  # test average per-class accuracy a component must reach
    falling_loss: bool  # the logged loss must fall from the first epoch to the last


@dataclass(frozen=True)
class Workload:
    pipeline: PipelineSpec
    warm_passes: int
    # prep only: a cold prepare_caches of one model per kind at 60 orientations
    # with voxels, jittered voxels and views, before the pipeline call
    prep_orientations: int = 0
    oracle_grids: int = 0  # grids per round matched against the exhaustive test


WORKLOADS = {
    "prep": Workload(
        PipelineSpec(ALL_KINDS, 3, ("vcnn1_jit", "mvnet"), orientations=2, epochs=3,
                     learning_rate=0.001, batch=32, floors={}, falling_loss=False),
        warm_passes=10, prep_orientations=60, oracle_grids=3),
    "desk": Workload(
        PipelineSpec(DESK_KINDS, 8, ("vcnn1", "mvnet"), orientations=12, epochs=2,
                     learning_rate=0.002, batch=8,
                     floors={"vcnn1": 0.5, "mvnet": 0.5}, falling_loss=True),
        warm_passes=8),
    "vcnn2": Workload(
        PipelineSpec(DESK_KINDS, 8, ("vcnn2", "mvnet"), orientations=2, epochs=3,
                     learning_rate=0.001, batch=8,
                     # 15 vcnn2 steps leave vcnn2 itself at 0.5 on some seeds (14)
                     floors={"mvnet": 0.5}, falling_loss=True),
        warm_passes=8),
}

COMPONENT_SOURCE = {"vcnn1": "voxel", "vcnn1_jit": "voxel_jit", "vcnn2": "voxel",
                    "mvnet": "view"}


def _split_sizes(per_class: int) -> tuple[int, int, int]:
    """(core, val, test) models per class, from the 80/20 train/test split
    and the 20% fusion carve-out of the training models."""
    train = min(max(round(per_class * 0.8), 1), per_class - 1)
    val = min(max(round(train * 0.2), 1), train - 1)
    return train - val, val, per_class - train


def expected_sgd_calls(p: PipelineSpec) -> int:
    core = _split_sizes(p.per_class)[0] * len(p.kinds)
    calls = 0
    for c in p.components:
        samples = {"voxel": core * p.orientations, "voxel_jit": 2 * core * p.orientations,
                   "view": core * checks.VIEW_COUNT}[COMPONENT_SOURCE[c]]
        calls += p.epochs * -(-samples // p.batch)
    return calls


def pipeline_cache_flags(p: PipelineSpec) -> dict[str, bool]:
    src = {COMPONENT_SOURCE[c] for c in p.components}
    return {"include_voxels": bool(src & {"voxel", "voxel_jit"}),
            "include_views": "view" in src, "include_jitter": "voxel_jit" in src}


class StageClock:
    """Timed records of run_pipeline's stage calls, always on.

    Each record is (stage, seconds, items, result): items is models for
    prepare_caches and evaluate_network and samples x epochs for train.
    """

    ITEMS = {
        "prepare_caches": lambda a: len(a[0].entries),
        "train": lambda a: len(a[1]) * a[3].epochs,
        "evaluate_network": lambda a: len(a[3]),
    }

    def __init__(self, timer):
        self.timer = timer
        self.records: list[tuple[str, float, int, object]] = []

    def install(self) -> None:
        from fusionnet.pipeline import run
        for stage in self.ITEMS:
            setattr(run, stage, self._wrap(stage, getattr(run, stage)))

    def _wrap(self, stage: str, fn):
        items_of = self.ITEMS[stage]

        def wrapped(*args, **kwargs):
            mark = self.timer.mark()
            out = fn(*args, **kwargs)
            self.records.append((stage, self.timer.since(mark), items_of(args),
                                 out if stage == "prepare_caches" else None))
            return out
        return wrapped

    def since(self, start: int, stage: str) -> list[tuple[str, float, int, object]]:
        return [r for r in self.records[start:] if r[0] == stage]


def written_bytes() -> int:
    """Bytes this process has passed to write calls so far (files, pipes)."""
    with open("/proc/self/io", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


def tree_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(root) for f in files)


class Bench:
    """One workload's inputs in a run directory, and the rounds over them."""

    def __init__(self, workload: Workload, run_dir: str, seed: int, timer):
        self.w = workload
        self.run_dir = run_dir
        self.seed = seed
        self.out_dir = os.path.join(run_dir, "out")
        self.timer = timer
        self.clock = StageClock(timer)

    def setup(self) -> float:
        """Generate the inputs; returns the generator's seconds."""
        from fusionnet.pipeline import CacheSettings, DatasetManifest, make_synthetic_dataset
        p = self.w.pipeline
        t0 = time.process_time()
        self.manifest = make_synthetic_dataset(list(p.kinds), p.per_class, self.seed,
                                               os.path.join(self.out_dir, "dataset"))
        synth_s = time.process_time() - t0
        settings = dict(resolution=RESOLUTION, image_size=IMAGE_SIZE, seed=self.seed,
                        jitter_sigma=JITTER_SIGMA)
        # (manifest, cache dir, settings, flags) of each cold prep, in call order;
        # the first one's cache is the one the warm passes re-prep
        self.preps = [(self.manifest, os.path.join(self.run_dir, "cache"),
                       CacheSettings(orientation_count=p.orientations, **settings),
                       pipeline_cache_flags(p))]
        if self.w.prep_orientations:
            # the first model of each kind, unlabeled
            firsts = [e for e in self.manifest.entries if e.model_id.endswith("_0000")]
            self.preps.insert(0, (
                DatasetManifest(entries=firsts, classes=[], root=self.manifest.root),
                os.path.join(self.run_dir, "prep_cache"),
                CacheSettings(orientation_count=self.w.prep_orientations, **settings),
                {"include_voxels": True, "include_views": True, "include_jitter": True}))
        self.clock.install()
        return synth_s

    def expected_voxelize_calls(self) -> int:
        """One voxelization per model, orientation and flavor of each cold prep."""
        return sum(len(m.entries) * s.orientation_count
                   * (int(f["include_voxels"]) + int(f["include_jitter"]))
                   for m, _, s, f in self.preps)

    def clean(self) -> None:
        for sub in ("prep_cache", "cache"):
            shutil.rmtree(os.path.join(self.run_dir, sub), ignore_errors=True)
        for name in os.listdir(self.out_dir):
            if name != "dataset":
                path = os.path.join(self.out_dir, name)
                shutil.rmtree(path) if os.path.isdir(path) else os.remove(path)

    def run_round(self, tracer=None) -> dict:
        """One timed round; returns its end-to-end figures, the figures the
        per-layer metrics need, and the check problems (checked untimed).

        The timed work is the cold prep (prep only), the run_pipeline call
        and the warm passes; hashing the cache between the last two is not.
        """
        from fusionnet.pipeline import RunConfig, run
        self.clean()
        p = self.w.pipeline
        cfg = RunConfig(out_dir=self.out_dir, synthetic_classes=p.kinds,
                        synthetic_per_class=p.per_class, components=p.components,
                        orientation_count=p.orientations, resolution=RESOLUTION,
                        image_size=IMAGE_SIZE, epochs=p.epochs, batch_size=p.batch,
                        learning_rate=p.learning_rate, jitter_sigma=JITTER_SIGMA,
                        seed=self.seed, jobs=1, cache_dir=self.preps[-1][1])
        warm_manifest, warm_cache, warm_settings, warm_flags = self.preps[0]
        n0 = len(self.clock.records)
        wchar0 = written_bytes()

        t0, cpu0, wall0 = self.timer.mark(), time.process_time(), time.perf_counter()
        if self.w.prep_orientations:
            run.prepare_caches(warm_manifest, warm_cache, warm_settings, jobs=1, **warm_flags)
        span = tracer.begin("pipeline.run") if tracer is not None else None
        try:
            run.run_pipeline(cfg)
        finally:
            if tracer is not None:
                tracer.end(span)
        cold_s = self.timer.since(t0)

        hashes = checks.hash_tree(warm_cache)  # reads only: written_mb is unaffected
        n_warm = len(self.clock.records)
        t1 = self.timer.mark()
        for _ in range(self.w.warm_passes):
            run.prepare_caches(warm_manifest, warm_cache, warm_settings, jobs=1, **warm_flags)
        warm_s = self.timer.since(t1)
        # unscaled, and with the hashing between the two parts
        cpu_s, wall_s = time.process_time() - cpu0, time.perf_counter() - wall0
        speed = self.timer.speed(t0)
        written = written_bytes() - wchar0

        colds = self.clock.since(n0, "prepare_caches")[:len(self.preps)]
        warm = self.clock.since(n_warm, "prepare_caches")
        trains = self.clock.since(n0, "train")
        evals = self.clock.since(n0, "evaluate_network")
        figures = {
            "run_s": cold_s + warm_s,
            "prep_models_per_s": colds[0][2] / colds[0][1],
            # median pass: short passes of many small file reads meet bursts
            # of contention from other processes on the machine
            "reprep_models_per_s": len(warm_manifest.entries) / statistics.median(
                r[1] for r in warm),
            "train_samples_per_s": sum(r[2] for r in trains) / sum(r[1] for r in trains),
            "eval_models_per_s": sum(r[2] for r in evals) / sum(r[1] for r in evals),
            "written_mb": written / 2**20,
            "run_cpu_s": cpu_s,
            "run_wall_s": wall_s,
            "speed": speed,
        }
        reports = [r[3] for r in colds + warm]
        layer_extra = {
            "caches.files": sum(r.written + r.skipped + r.regenerated for r in reports),
            "caches.files_written": sum(r.written for r in reports),
            "caches.files_skipped": sum(r.skipped for r in reports),
            "caches.files_regenerated": sum(r.regenerated for r in reports),
            "caches.bytes": sum(tree_bytes(c) for _, c, _, _ in self.preps),
            "evaluation.models": sum(r[2] for r in evals),
        }

        problems = []
        for (manifest, _, settings, flags), rec in zip(self.preps, colds):
            problems += checks.check_cold_report(rec[3], checks.expected_cache_files(
                len(manifest.entries), settings.orientation_count, **flags))
        expected = checks.expected_cache_files(len(warm_manifest.entries),
                                               warm_settings.orientation_count, **warm_flags)
        for r in warm:
            problems += checks.check_warm_report(r[3], expected)
        problems += checks.check_unchanged(hashes, checks.hash_tree(warm_cache))
        if self.w.prep_orientations:
            problems += self._check_prep_cache(*self.preps[0][:3])
        problems += checks.check_run_outputs(self.out_dir, p.components, p.floors,
                                             p.falling_loss)
        operations = (sum(len(m.entries) for m, _, _, _ in self.preps)
                      + len(warm_manifest.entries) * self.w.warm_passes)
        with open(os.path.join(self.out_dir, "metrics.json"), encoding="utf-8") as fh:
            test_metrics = {n: c["test"] for n, c in json.load(fh)["components"].items()}
        return {"figures": figures, "layer_extra": layer_extra, "problems": problems,
                "operations": operations, "warm_pass_s": [r[1] for r in warm],
                "test_metrics": test_metrics}

    def _check_prep_cache(self, manifest, cache: str, settings) -> list[str]:
        """Every grid holds its mesh's vertices, a seeded sample of grids
        matches the exhaustive overlap test, and every view is well formed."""
        import numpy as np
        from fusionnet import JitterConfig, apply_rotation, derive_seed, jitter_mesh
        from fusionnet import normalize_mesh, parse_off
        from fusionnet.pipeline import model_orientations
        from fusionnet.pipeline.caches import view_rel, voxel_rel

        # the exhaustive test costs a pass over the grid per triangle, so the
        # sample comes from the kinds with few triangles (box 12, pyramid 6)
        rng = np.random.default_rng(self.seed)
        entries = manifest.entries
        n = settings.orientation_count
        few = [e.model_id for e in entries if e.model_id.split("_")[0] in ("box", "pyramid")]
        sample = set()
        while len(sample) < self.w.oracle_grids:
            sample.add((few[int(rng.integers(len(few)))], int(rng.integers(n)),
                        bool(rng.integers(2))))

        problems = []
        for e in entries:
            with open(manifest.mesh_path(e), "rb") as fh:
                raw = parse_off(fh.read())
            jittered = jitter_mesh(raw, JitterConfig(
                sigma=JITTER_SIGMA, seed=derive_seed(self.seed, "jitter", e.model_id)))
            poses = model_orientations(e.model_id, settings).orientations
            for jit, mesh in ((False, raw), (True, jittered)):
                for k, pose in enumerate(poses):
                    label = voxel_rel(e.model_id, k, jit)
                    with open(os.path.join(cache, label), "rb") as fh:
                        grid = checks.decode_voxb(fh.read())
                    turned = normalize_mesh(apply_rotation(mesh, pose))
                    problems += checks.check_vertex_voxels(grid, turned.vertices, label)
                    if (e.model_id, k, jit) in sample:
                        problems += checks.check_grid_against_oracle(
                            grid, turned.vertices[turned.faces], label)
            for v in range(checks.VIEW_COUNT):
                label = view_rel(e.model_id, v)
                with open(os.path.join(cache, label), "rb") as fh:
                    problems += checks.check_view(checks.decode_pgm(fh.read()), label)
        return problems
