"""Command-line interface tests: exit code families, help text, config file
precedence, a small train/eval/fuse roundtrip over real caches, and runs of
the demos."""

import hashlib
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from fusionnet import cli
from fusionnet.cli import DEFAULTS, main
from fusionnet.nn.gradcheck import CASES
from fusionnet.nn.weights import read_weights, write_weights
from fusionnet.pipeline import CacheReport, EpochRecord, RunConfig, ScoreTable, run_pipeline

DEMOS = os.path.join(os.path.dirname(__file__), "..", "demos")
SRC = os.path.join(os.path.dirname(__file__), "..", "src")


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


class TestUsageErrors:
    def test_no_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--bogus"])
        assert exc.value.code == 2

    def test_subprocess_exit_codes(self):
        ok = subprocess.run([sys.executable, "-m", "fusionnet.cli", "--help"],
                            capture_output=True)
        assert ok.returncode == 0
        bad = subprocess.run([sys.executable, "-m", "fusionnet.cli"],
                             capture_output=True)
        assert bad.returncode == 2


HELP_FLAGS = {
    "synth": ["--synthetic", "--out", "--seed", "--config"],
    "ingest": ["--data", "--out", "--config"],
    "prep": ["--manifest", "--cache", "--orientations", "--resolution",
             "--image-size", "--jitter-sigma", "--seed", "--jobs", "--jitter",
             "--no-voxels", "--no-views", "--config"],
    "train": ["--manifest", "--cache", "--component", "--epochs",
              "--batch-size", "--lr", "--momentum", "--weight-decay", "--out",
              "--seed", "--config"],
    "eval": ["--manifest", "--cache", "--component", "--weights", "--split",
             "--out", "--config"],
    "fuse": ["--val", "--test", "--step", "--softmax", "--out", "--config"],
    "gradcheck": ["--seed", "--seeds", "--step", "--config"],
    "report": ["--run", "--config"],
}


class TestHelp:
    def test_top_level_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for name in HELP_FLAGS:
            assert name in out

    @pytest.mark.parametrize("command", sorted(HELP_FLAGS))
    def test_subcommand_flags_listed(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for flag in HELP_FLAGS[command]:
            assert flag in out, f"{command} help missing {flag}"

    @pytest.mark.parametrize("command,key", [
        ("train", "epochs"), ("train", "lr"), ("prep", "orientations"),
        ("prep", "resolution"), ("fuse", "step"), ("eval", "split"),
    ])
    def test_builtin_defaults_advertised(self, command, key, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        out = capsys.readouterr().out
        assert f"(default: {DEFAULTS[key]})" in out


class TestSynth:
    def test_writes_dataset(self, tmp_path, capsys):
        out = tmp_path / "ds"
        assert main(["synth", "--synthetic", "box,spherex3",
                     "--out", str(out), "--seed", "0"]) == 0
        text = capsys.readouterr().out
        assert "wrote 6 models (4 train / 2 test) across 2 classes" in text
        assert (out / "manifest.jsonl").exists()

    def test_bad_spec_is_validation_error(self, tmp_path, capsys):
        assert main(["synth", "--synthetic", "box", "--out", str(tmp_path)]) == 4
        assert "error:" in capsys.readouterr().err

    def test_unknown_class_is_validation_error(self, tmp_path, capsys):
        assert main(["synth", "--synthetic", "blobx3", "--out", str(tmp_path)]) == 4
        assert "error:" in capsys.readouterr().err


class TestMissingInputs:
    def test_prep_missing_manifest(self, tmp_path, capsys):
        assert main(["prep", "--manifest", str(tmp_path / "nope.jsonl"),
                     "--cache", str(tmp_path / "c")]) == 3
        assert "not found" in capsys.readouterr().err

    def test_eval_missing_weights(self, tmp_path, capsys):
        assert main(["eval", "--weights", str(tmp_path / "nope.fnw1")]) == 3
        assert "not found" in capsys.readouterr().err

    def test_report_missing_metrics(self, tmp_path, capsys):
        assert main(["report", "--run", str(tmp_path)]) == 3
        assert "not found" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["gradcheck", "--seeds", "1",
                     "--config", str(tmp_path / "nope.conf")]) == 3
        assert "config file not found" in capsys.readouterr().err

    def test_ingest_missing_root(self, tmp_path, capsys):
        assert main(["ingest", "--data", str(tmp_path / "nope")]) == 3
        assert "not found" in capsys.readouterr().err


class TestConfigPrecedence:
    def synth(self, out, *extra):
        assert main(["synth", "--synthetic", "boxx2", "--out", str(out),
                     *extra]) == 0

    def test_config_file_overrides_builtin(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("# options\nseed = 9\n\n")
        self.synth(tmp_path / "a", "--config", str(conf))
        self.synth(tmp_path / "b", "--seed", "9")
        self.synth(tmp_path / "c")  # built-in seed 0
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")
        assert tree_digest(tmp_path / "a") != tree_digest(tmp_path / "c")

    def test_explicit_flag_overrides_config(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("seed = 9\n")
        self.synth(tmp_path / "a", "--config", str(conf), "--seed", "3")
        self.synth(tmp_path / "b", "--seed", "3")
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    def test_malformed_config_line(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("seed 9\n")
        assert main(["synth", "--synthetic", "boxx2",
                     "--out", str(tmp_path / "a"), "--config", str(conf)]) == 4
        assert "expected key = value" in capsys.readouterr().err

    def test_non_numeric_config_value(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("seed = soon\n")
        assert main(["synth", "--synthetic", "boxx2",
                     "--out", str(tmp_path / "a"), "--config", str(conf)]) == 4
        assert "config key seed" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        """A misspelled key is an error that names it and its line, not a
        run under the built-in default."""
        conf = tmp_path / "run.conf"
        conf.write_text("# options\nsed = 3\n")
        assert main(["synth", "--synthetic", "boxx2",
                     "--out", str(tmp_path / "a"), "--config", str(conf)]) == 4
        err = capsys.readouterr().err
        assert f"{conf}:2: unknown config key 'sed'" in err
        assert not (tmp_path / "a").exists()


# option key -> (config value, flag value) for the keys prep and train read
# besides the manifest and the cache directory
OPTION_VALUES = {
    "orientations": ("7", "9"), "resolution": ("24", "20"), "image_size": ("48", "40"),
    "jitter_sigma": ("2.5", "0.5"), "seed": ("5", "6"), "jobs": ("2", "3"),
    "component": ("mvnet", "vcnn2"), "epochs": ("3", "4"), "batch_size": ("16", "8"),
    "lr": ("0.01", "0.02"), "momentum": ("0.5", "0.7"), "weight_decay": ("0.001", "0.002"),
}
SHARED_KEYS = ["manifest", "cache", "orientations", "resolution", "image_size",
               "jitter_sigma", "seed"]
STAGE_KEYS = ([("prep", k) for k in SHARED_KEYS + ["jobs"]]
              + [("train", k) for k in SHARED_KEYS + ["component", "epochs", "batch_size",
                                                      "lr", "momentum", "weight_decay"]])


@pytest.fixture(scope="module")
def manifests(tmp_path_factory):
    """The same synthetic manifest in two directories."""
    root = tmp_path_factory.mktemp("manifests")
    assert main(["synth", "--synthetic", "box,spherex3", "--out", str(root / "a")]) == 0
    (root / "b").mkdir()
    shutil.copy(root / "a" / "manifest.jsonl", root / "b" / "manifest.jsonl")
    return [str(root / d / "manifest.jsonl") for d in "ab"]


def stage_inputs(monkeypatch, argv):
    """Run prep or train with its stage stubbed out; return the option values
    the stage was given, keyed like DEFAULTS."""
    seen = {}

    def of_settings(s):
        return {"orientations": s.orientation_count, "resolution": s.resolution,
                "image_size": s.image_size, "seed": s.seed, "jitter_sigma": s.jitter_sigma}

    def prep(manifest, cache, settings, jobs, **_):
        seen.update(of_settings(settings), manifest=manifest.root, cache=cache, jobs=jobs)
        return CacheReport()

    def train(component, manifest, cache, settings, entries, tcfg, weights_path):
        assert tcfg.seed == settings.seed
        opt = tcfg.optimizer
        seen.update(of_settings(settings), manifest=manifest.root, cache=cache,
                    component=component, epochs=tcfg.epochs, batch_size=tcfg.batch_size,
                    lr=opt.learning_rate, momentum=opt.momentum,
                    weight_decay=opt.weight_decay)
        return None, [EpochRecord(0, 0.0, 0.0, 0.0)]

    monkeypatch.setattr(cli, "prepare_caches", prep)
    monkeypatch.setattr(cli, "train_component", train)
    assert main(argv) == 0
    return seen


class TestConfigPass:
    @pytest.mark.parametrize("command,key", STAGE_KEYS)
    def test_config_value_then_flag(self, command, key, manifests, tmp_path, monkeypatch):
        """A config value reaches the stage with the flag's type, and an
        explicit flag still wins over it."""
        monkeypatch.delenv("FUSIONNET_CACHE", raising=False)
        if key == "manifest":
            values = manifests
            expected = [os.path.dirname(m) for m in manifests]
        elif key == "cache":
            values = expected = [str(tmp_path / "conf_cache"), str(tmp_path / "flag_cache")]
        else:
            values = OPTION_VALUES[key]
            expected = [type(DEFAULTS[key])(v) for v in values]
        conf = tmp_path / "run.conf"
        conf.write_text(f"{key} = {values[0]}\n")
        argv = [command, "--config", str(conf)]
        if key != "manifest":
            argv += ["--manifest", manifests[0]]
        if command == "train":
            argv += ["--out", str(tmp_path / "run")]
        seen = stage_inputs(monkeypatch, argv)[key]
        assert seen == expected[0] and type(seen) is type(DEFAULTS[key])
        flag = "--" + key.replace("_", "-")
        assert stage_inputs(monkeypatch, argv + [flag, values[1]])[key] == expected[1]

    def test_env_cache_beats_config(self, manifests, tmp_path, monkeypatch):
        monkeypatch.setenv("FUSIONNET_CACHE", str(tmp_path / "env"))
        conf = tmp_path / "run.conf"
        conf.write_text(f"cache = {tmp_path / 'conf'}\n")
        seen = stage_inputs(monkeypatch, ["prep", "--manifest", manifests[0],
                                          "--config", str(conf)])
        assert seen["cache"] == str(tmp_path / "env")


class TestGradcheckCommand:
    def test_table_and_exit_zero(self, capsys):
        assert main(["gradcheck", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        for case in CASES:
            assert case in out
        assert "FAIL" not in out
        assert f"{2 * len(CASES)} checks, 0 failing cases" in out


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """synth + prep + train vcnn1 once; downstream tests reuse the artifacts."""
    root = tmp_path_factory.mktemp("cliws")
    ds = root / "ds"
    cache = root / "cache"
    run = root / "run"
    assert main(["synth", "--synthetic", "box,spherex3", "--out", str(ds),
                 "--seed", "0"]) == 0
    common = ["--manifest", str(ds / "manifest.jsonl"), "--cache", str(cache),
              "--orientations", "1", "--resolution", "30", "--seed", "0"]
    assert main(["prep", *common, "--no-views"]) == 0
    assert main(["train", *common, "--component", "vcnn1", "--epochs", "1",
                 "--batch-size", "4", "--out", str(run)]) == 0
    return {"ds": ds, "cache": cache, "run": run, "common": common}


class TestPrepCommand:
    def test_second_run_skips(self, cli_workspace, capsys):
        capsys.readouterr()
        assert main(["prep", *cli_workspace["common"], "--no-views"]) == 0
        out = capsys.readouterr().out
        assert "wrote 0, regenerated 0" in out

    def test_env_var_sets_cache_dir(self, cli_workspace, tmp_path, monkeypatch):
        env_cache = tmp_path / "envcache"
        monkeypatch.setenv("FUSIONNET_CACHE", str(env_cache))
        manifest_args = cli_workspace["common"][:2]
        assert main(["prep", *manifest_args, "--orientations", "1",
                     "--resolution", "16", "--no-views", "--seed", "0"]) == 0
        assert env_cache.is_dir() and any(env_cache.rglob("*.voxb"))

    def test_explicit_cache_beats_env(self, cli_workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("FUSIONNET_CACHE", str(tmp_path / "env"))
        explicit = tmp_path / "explicit"
        manifest_args = cli_workspace["common"][:2]
        assert main(["prep", *manifest_args, "--cache", str(explicit),
                     "--orientations", "1", "--resolution", "16",
                     "--no-views", "--seed", "0"]) == 0
        assert explicit.is_dir() and not (tmp_path / "env").exists()


class TestTrainEvalFuse:
    def test_train_artifacts(self, cli_workspace):
        assert sorted(os.listdir(cli_workspace["run"])) == ["vcnn1.csv", "vcnn1.fnw1"]

    def test_train_deterministic(self, cli_workspace, tmp_path):
        assert main(["train", *cli_workspace["common"], "--component", "vcnn1",
                     "--epochs", "1", "--batch-size", "4",
                     "--out", str(tmp_path)]) == 0
        again = (tmp_path / "vcnn1.fnw1").read_bytes()
        first = (cli_workspace["run"] / "vcnn1.fnw1").read_bytes()
        assert again == first

    def test_train_unknown_component(self, cli_workspace, tmp_path, capsys):
        assert main(["train", *cli_workspace["common"], "--component", "nope",
                     "--out", str(tmp_path)]) == 4
        assert "unknown component" in capsys.readouterr().err

    def test_train_without_caches(self, cli_workspace, tmp_path, capsys):
        manifest_args = cli_workspace["common"][:2]
        assert main(["train", *manifest_args, "--cache", str(tmp_path / "c"),
                     "--orientations", "1", "--resolution", "30",
                     "--component", "vcnn1", "--epochs", "1",
                     "--out", str(tmp_path)]) == 3
        assert "error:" in capsys.readouterr().err

    def eval_split(self, ws, split, out_path, component="vcnn1", weights=None):
        weights = weights or ws["run"] / "vcnn1.fnw1"
        return main(["eval", *ws["common"], "--component", component,
                     "--weights", str(weights), "--split", split,
                     "--out", str(out_path)])

    def test_eval_and_fuse_roundtrip(self, cli_workspace, tmp_path, capsys):
        val_path = tmp_path / "val.jsonl"
        test_path = tmp_path / "test.jsonl"
        assert self.eval_split(cli_workspace, "train", val_path) == 0
        out = capsys.readouterr().out
        assert "box" in out and "sphere" in out and "average" in out
        assert self.eval_split(cli_workspace, "test", test_path) == 0
        capsys.readouterr()
        scores = ScoreTable.from_jsonl(val_path.read_text())
        assert len(scores.ids) == 4 and len(scores.labels) == 4
        fused_path = tmp_path / "fused.jsonl"
        assert main(["fuse", "--val", str(val_path), "--test", str(test_path),
                     "--out", str(fused_path)]) == 0
        out = capsys.readouterr().out
        assert "fusion weights: vcnn1=1.00" in out
        assert "validation metric:" in out and "test metric:" in out
        fused = ScoreTable.from_jsonl(fused_path.read_text())
        assert len(fused.ids) == 2 and fused.network == "fusion"

    def test_val_split_matches_run_pipeline(self, cli_workspace, tmp_path):
        """train fits the models run_pipeline trains on, and eval --split val
        scores the fusion validation models it holds out: the weights and
        both score files are run_pipeline's bytes under the same settings."""
        run = tmp_path / "pipeline"
        run_pipeline(RunConfig(out_dir=str(run), synthetic_classes=("box", "sphere"),
                               synthetic_per_class=3, components=("vcnn1",),
                               orientation_count=1, resolution=30, epochs=1,
                               batch_size=4, seed=0))
        weights = (cli_workspace["run"] / "vcnn1.fnw1").read_bytes()
        assert weights == (run / "weights" / "vcnn1.fnw1").read_bytes()
        for split in ("val", "test"):
            out = tmp_path / f"vcnn1_{split}.jsonl"
            assert self.eval_split(cli_workspace, split, out) == 0
            assert out.read_bytes() == (run / "scores" / f"vcnn1_{split}.jsonl").read_bytes()

    def test_jitter_component_scores_named_after_it(self, cli_workspace, tmp_path, capsys):
        """vcnn1_jit shares vcnn1's spec, but its score files and the fusion
        weights that fuse prints carry the component's own name."""
        paths = {}
        for component in ("vcnn1", "vcnn1_jit"):
            for split in ("train", "test"):
                paths[component, split] = tmp_path / f"{component}_{split}.jsonl"
                assert self.eval_split(cli_workspace, split, paths[component, split],
                                       component=component) == 0
        table = ScoreTable.from_jsonl(paths["vcnn1_jit", "test"].read_text())
        assert table.network == "vcnn1_jit"
        capsys.readouterr()
        assert main(["fuse", "--val", str(paths["vcnn1", "train"]),
                     str(paths["vcnn1_jit", "train"]),
                     "--test", str(paths["vcnn1", "test"]),
                     str(paths["vcnn1_jit", "test"])]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert line.startswith("fusion weights: vcnn1=") and " vcnn1_jit=" in line
        assert "#" not in line

    def test_eval_ignores_appended_velocity_records(self, cli_workspace, tmp_path):
        """A weights file in the older checkpoint layout, with optimizer
        velocity records "<name>.m" appended after the parameters, scores the same."""
        weights = cli_workspace["run"] / "vcnn1.fnw1"
        arrays = read_weights(weights.read_bytes())
        arrays.update({f"{name}.m": np.full_like(a, 0.5) for name, a in arrays.items()})
        old_layout = tmp_path / "vcnn1.ckpt.fnw1"
        old_layout.write_bytes(write_weights(arrays))
        assert old_layout.read_bytes().startswith(weights.read_bytes())
        plain, legacy = tmp_path / "plain.jsonl", tmp_path / "legacy.jsonl"
        assert self.eval_split(cli_workspace, "test", plain) == 0
        assert self.eval_split(cli_workspace, "test", legacy, weights=old_layout) == 0
        assert legacy.read_bytes() == plain.read_bytes()

    def test_fuse_label_disagreement(self, tmp_path, capsys):
        """Two score files that label the same model differently are an
        input error, not a silent choice of one of them."""
        a = ScoreTable("vcnn1", ["m0", "m1"], [0, 1], [[1.0, 0.0], [0.0, 1.0]])
        b = ScoreTable("mvnet", ["m0", "m1"], [0, 0], [[1.0, 0.0], [0.0, 1.0]])
        paths = []
        for table in (a, b):
            paths.append(tmp_path / f"{table.network}.jsonl")
            paths[-1].write_text(table.to_jsonl())
        assert main(["fuse", "--val", *map(str, paths), "--test", *map(str, paths)]) == 4
        assert "disagree on the label of 'm1'" in capsys.readouterr().err

    def test_fuse_mismatched_files(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        a.write_text("")
        assert main(["fuse", "--val", str(a), str(a), "--test", str(a)]) == 4
        assert "one --test score file per" in capsys.readouterr().err


class TestReportCommand:
    def metrics(self, with_fusion=True):
        m = {
            "dataset": {"classes": ["box", "sphere"], "train": 4, "val": 2,
                        "test": 2},
            "settings": {"orientations": 1, "resolution": 30, "image_size": 64,
                         "epochs": 1, "batch_size": 4, "learning_rate": 0.001,
                         "momentum": 0.9, "weight_decay": 0.0, "seed": 0},
            "components": {"vcnn1": {"train_metric": 1.0, "final_loss": 0.1,
                                     "val": 1.0, "test": 0.5,
                                     "val_per_class": {}, "test_per_class": {},
                                     "views": 1}},
        }
        if with_fusion:
            m["fusion"] = {"weights": {"vcnn1": 1.0}, "val": 1.0, "test": 0.5,
                           "seed_metrics": [], "seed_wins": 0, "seed_count": 0}
        return m

    def test_renders_table(self, tmp_path, capsys):
        (tmp_path / "metrics.json").write_text(json.dumps(self.metrics()))
        assert main(["report", "--run", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "vcnn1" in out and "fusion weights: vcnn1=1.00" in out
        assert "box,sphere" in out

    def test_prints_the_run_report(self, tmp_path, capsys):
        """`report` prints report.txt byte for byte, in the run's component
        order (not sorted) and with the run's dataset label."""
        run_pipeline(RunConfig(out_dir=str(tmp_path), synthetic_classes=("box", "sphere"),
                               synthetic_per_class=4, components=("vcnn1_jit", "vcnn1"),
                               orientation_count=1, epochs=1, batch_size=4, seed=2,
                               fusion_seeds=1))
        assert main(["report", "--run", str(tmp_path)]) == 0
        printed = capsys.readouterr().out.encode("utf-8")
        assert printed == (tmp_path / "report.txt").read_bytes()
        assert b"dataset: synthetic box,sphere" in printed
        assert printed.index(b"vcnn1_jit ") < printed.index(b"vcnn1 ")

    def test_without_fusion_block(self, tmp_path, capsys):
        (tmp_path / "metrics.json").write_text(
            json.dumps(self.metrics(with_fusion=False)))
        assert main(["report", "--run", str(tmp_path)]) == 0
        assert "fusion" not in capsys.readouterr().out


class TestDemos:
    @pytest.mark.parametrize("name", sorted(
        n for n in os.listdir(DEMOS) if n.endswith(".py")))
    def test_demo_runs(self, name, tmp_path):
        """Each demo runs to completion from an empty working directory."""
        path = os.pathsep.join(p for p in (os.path.abspath(SRC),
                                           os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, os.path.abspath(os.path.join(DEMOS, name))],
                              cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
