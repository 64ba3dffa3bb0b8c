"""Command-line entry point: one executable, one subcommand per pipeline
stage, reproducible given identical flags and seeds.

Exit codes group failures by family: 0 success, 1 gradient-check failure or
unexpected error, 2 usage errors (bad flags), 3 missing inputs (files or
directories not found), 4 failed validation (invariant violations, malformed
data).

Options can come from a flat ``key = value`` config file via --config; keys
are the long flag names with underscores (image_size, weight_decay, ...).
Explicit flags override the file, which overrides built-in defaults. The
FUSIONNET_CACHE environment variable overrides the default cache directory
(an explicit --cache still wins).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .models import Network
from .nn.gradcheck import DEFAULT_STEP, DEFAULT_TOLERANCE, run_suite
from .nn.optim import OptimizerConfig
from .nn.weights import read_weights
from .pipeline.caches import CacheSettings, prepare_caches
from .pipeline.data import (SHAPE_KINDS, DatasetManifest, ingest_modelnet,
                            make_synthetic_dataset)
from .pipeline.evaluation import ScoreTable
from .pipeline.fusion import FusionWeights, fit_fusion_weights, fuse_scores
from .pipeline.report import ReportRow, render_report
from .pipeline.run import (COMPONENTS, component_spec, score_component,
                           split_fusion_validation, train_component)
from .pipeline.training import TrainingConfig

DEFAULTS = {
    "orientations": 60,
    "resolution": 30,
    "image_size": 64,
    "epochs": 20,
    "batch_size": 32,
    "lr": 0.001,
    "momentum": 0.9,
    "weight_decay": 0.0,
    "jitter_sigma": 5.0,
    "seed": 0,
    "jobs": 1,
    "step": 0.05,
    "manifest": "manifest.jsonl",
    "cache": "cache",
    "component": "vcnn1",
    "split": "test",
}

_EXIT_GRADCHECK = 1
_EXIT_MISSING = 3
_EXIT_INVALID = 4


class MissingInput(Exception):
    """An input file or directory the subcommand needs does not exist."""


def _parse_config(path: str) -> dict[str, str]:
    if not os.path.exists(path):
        raise MissingInput(f"config file not found: {path}")
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _opt(args: argparse.Namespace, key: str, cast=str):
    """Resolve one option: explicit flag > config file > built-in default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    conf = getattr(args, "_config", {})
    if key in conf:
        try:
            return cast(conf[key]) if cast is not bool else conf[key].lower() in ("1", "true", "yes")
        except ValueError as exc:
            raise ValueError(f"config key {key}: {exc}") from exc
    return DEFAULTS[key]


def _settings(args: argparse.Namespace) -> CacheSettings:
    return CacheSettings(orientation_count=_opt(args, "orientations", int),
                         resolution=_opt(args, "resolution", int),
                         image_size=_opt(args, "image_size", int),
                         seed=_opt(args, "seed", int),
                         jitter_sigma=_opt(args, "jitter_sigma", float))


def _load_manifest(args: argparse.Namespace) -> DatasetManifest:
    path = _opt(args, "manifest")
    if not os.path.exists(path):
        raise MissingInput(f"manifest not found: {path}")
    return DatasetManifest.read(path)


def _cache_dir(args: argparse.Namespace) -> str:
    if getattr(args, "cache", None):
        return args.cache
    env = os.environ.get("FUSIONNET_CACHE")
    if env:
        return env
    conf = getattr(args, "_config", {})
    return conf.get("cache", DEFAULTS["cache"])


def _parse_synthetic(value: str) -> tuple[list[str], int]:
    sep = "×" if "×" in value else "x"
    head, _, tail = value.rpartition(sep)
    if not head or not tail.isdigit():
        raise ValueError(f"expected CLASSESxN (e.g. box,sphere,pyramid,cylinderx50), got {value!r}")
    classes = [c.strip() for c in head.split(",") if c.strip()]
    return classes, int(tail)


# ---------------------------------------------------------------- subcommands

def _cmd_synth(args: argparse.Namespace) -> int:
    classes, per_class = _parse_synthetic(_opt(args, "synthetic"))
    out = _opt(args, "out")
    manifest = make_synthetic_dataset(classes, per_class, _opt(args, "seed", int), out)
    n_train = len(manifest.split_entries("train"))
    n_test = len(manifest.split_entries("test"))
    print(f"wrote {len(manifest.entries)} models ({n_train} train / {n_test} test) "
          f"across {len(manifest.classes)} classes to {out}")
    print(f"manifest: {os.path.join(out, 'manifest.jsonl')}")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    root = _opt(args, "data")
    if not os.path.isdir(root):
        raise MissingInput(f"dataset root not found: {root}")
    manifest = ingest_modelnet(root)
    out = args.out or os.path.join(root, "manifest.jsonl")
    manifest.write(out)
    print(f"{len(manifest.classes)} classes, "
          f"{len(manifest.split_entries('train'))} train / "
          f"{len(manifest.split_entries('test'))} test")
    print(f"manifest: {out}")
    return 0


def _cmd_prep(args: argparse.Namespace) -> int:
    manifest = _load_manifest(args)
    cache = _cache_dir(args)
    report = prepare_caches(manifest, cache, _settings(args),
                            include_voxels=not args.no_voxels,
                            include_views=not args.no_views,
                            include_jitter=args.jitter,
                            jobs=_opt(args, "jobs", int))
    print(f"cache {cache}: wrote {report.written}, regenerated "
          f"{report.regenerated}, skipped {report.skipped} valid files")
    if report.failures:
        for f in report.failures[:20]:
            print(f"failure: {f}", file=sys.stderr)
        return _EXIT_INVALID
    return 0


def _component(args: argparse.Namespace) -> str:
    component = _opt(args, "component")
    if component not in COMPONENTS:
        raise ValueError(f"unknown component {component!r}; choose from {sorted(COMPONENTS)}")
    return component


def _read_table(path: str) -> ScoreTable:
    if not os.path.exists(path):
        raise MissingInput(f"score file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        return ScoreTable.from_jsonl(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _cmd_train(args: argparse.Namespace) -> int:
    component = _component(args)
    manifest = _load_manifest(args)
    out = _opt(args, "out")
    os.makedirs(out, exist_ok=True)
    seed = _opt(args, "seed", int)
    tcfg = TrainingConfig(
        epochs=_opt(args, "epochs", int),
        optimizer=OptimizerConfig(learning_rate=_opt(args, "lr", float),
                                  momentum=_opt(args, "momentum", float),
                                  weight_decay=_opt(args, "weight_decay", float)),
        batch_size=_opt(args, "batch_size", int),
        seed=seed,
        log_path=os.path.join(out, f"{component}.csv"))
    weights_path = os.path.join(out, f"{component}.fnw1")
    core, _ = split_fusion_validation(manifest, seed)  # eval --split val scores the rest
    _, records = train_component(component, manifest, _cache_dir(args), _settings(args),
                                 core, tcfg, weights_path)
    last = records[-1]
    print(f"{component}: {len(records)} epochs, final loss {last.loss:.4f}, "
          f"train metric {last.train_metric:.4f}")
    print(f"weights: {weights_path}")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    component = _component(args)
    if not os.path.exists(args.weights):
        raise MissingInput(f"weights not found: {args.weights}")
    manifest = _load_manifest(args)
    settings = _settings(args)
    spec = component_spec(component, len(manifest.classes), settings.image_size)
    with open(args.weights, "rb") as fh:
        network = Network.from_arrays(spec, read_weights(fh.read()))
    split = _opt(args, "split")
    if split == "val":  # the training models that train holds out, as in run_pipeline
        entries = split_fusion_validation(manifest, _opt(args, "seed", int))[1]
    else:
        entries = manifest.split_entries(split)
    if not entries:
        raise ValueError(f"no {split!r} entries in manifest")
    table = score_component(component, network, manifest, _cache_dir(args),
                            settings, entries)
    for cls, metric in table.per_class(manifest.classes).items():
        print(f"{cls:>12s}  {metric:.4f}")
    print(f"{'average':>12s}  {table.metric:.4f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(table.to_jsonl())
        print(f"scores: {args.out}")
    return 0


def _cmd_fuse(args: argparse.Namespace) -> int:
    if len(args.val) != len(args.test):
        raise ValueError("need one --test score file per --val score file")
    val_sets = [_read_table(p) for p in args.val]
    test_sets = [_read_table(p) for p in args.test]
    names = [t.network for t in val_sets]
    if len(set(names)) != len(names):
        names = [f"{n}#{i}" for i, n in enumerate(names)]
    fw, val_metric = fit_fusion_weights(val_sets, names, step=_opt(args, "step", float),
                                        normalize=args.softmax)
    fused = fuse_scores(test_sets, fw, normalize=args.softmax)
    print("fusion weights: " + " ".join(f"{c}={w:.2f}" for c, w in fw.as_dict().items()))
    print(f"validation metric: {val_metric:.4f}")
    print(f"test metric: {fused.metric:.4f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(fused.to_jsonl())
        print(f"fused scores: {args.out}")
    return 0


def _cmd_gradcheck(args: argparse.Namespace) -> int:
    base = _opt(args, "seed", int)
    seeds = range(base, base + args.seeds)
    results = run_suite(seeds=seeds, step=args.step)
    by_case: dict[str, list] = {}
    for r in results:
        by_case.setdefault(r.case, []).append(r)
    width = max(len(c) for c in by_case)
    print(f"{'case':<{width}}  {'seeds':>5}  {'max rel err':>12}  status")
    failed = 0
    for case in sorted(by_case):
        rs = by_case[case]
        worst = max(r.max_rel_err for r in rs)
        ok = all(r.passed for r in rs)
        failed += 0 if ok else 1
        print(f"{case:<{width}}  {len(rs):>5}  {worst:>12.3e}  "
              f"{'ok' if ok else 'FAIL'}")
    print(f"tolerance {DEFAULT_TOLERANCE:g}, step {args.step:g}, "
          f"{len(results)} checks, {failed} failing cases")
    return 0 if failed == 0 else _EXIT_GRADCHECK


def _cmd_report(args: argparse.Namespace) -> int:
    path = os.path.join(args.run, "metrics.json")
    if not os.path.exists(path):
        raise MissingInput(f"metrics not found: {path}")
    with open(path, encoding="utf-8") as fh:
        metrics = json.load(fh)
    rows = [ReportRow(network=name, views=entry["views"], metric=entry["test"])
            for name, entry in sorted(metrics["components"].items())]
    fusion = metrics.get("fusion")
    fw = None
    fused_test = None
    if fusion:
        comps = sorted(fusion["weights"])
        fw = FusionWeights(components=tuple(comps),
                           weights=tuple(fusion["weights"][c] for c in comps))
        fused_test = fusion["test"]
    ds = metrics["dataset"]
    dataset_line = (f"{','.join(ds['classes'])} (train {ds['train']} / "
                    f"val {ds['val']} / test {ds['test']} models)")
    st = metrics["settings"]
    print(render_report("3D shape classification", dataset_line,
                        {"orientations": st["orientations"],
                         "resolution": st["resolution"],
                         "image_size": st["image_size"],
                         "epochs": st["epochs"], "seed": st["seed"]},
                        rows, fw, fused_test), end="")
    return 0


# -------------------------------------------------------------------- parser

def _add(p: argparse.ArgumentParser, *names, key=None, cast=None, **kw):
    """Flag with config-file fallback: default None, documented built-in."""
    key = key or names[0].lstrip("-").replace("-", "_")
    if key in DEFAULTS and "help" in kw:
        kw["help"] = f"{kw['help']} (default: {DEFAULTS[key]})"
    p.add_argument(*names, dest=key, type=cast, default=None, **kw)


def _common(p: argparse.ArgumentParser, *keys):
    if "manifest" in keys:
        _add(p, "--manifest", cast=str, help="dataset manifest path")
    if "cache" in keys:
        p.add_argument("--cache", default=None,
                       help="cache directory (default: FUSIONNET_CACHE or ./cache)")
        _add(p, "--orientations", cast=int, help="voxel orientations per model")
        _add(p, "--resolution", cast=int, help="voxel grid resolution")
        _add(p, "--image-size", cast=int, help="rendered view size in pixels")
        _add(p, "--jitter-sigma", cast=float, help="vertex jitter sigma, raw units")
    if "seed" in keys:
        _add(p, "--seed", cast=int, help="global random seed")
    p.add_argument("--config", default=None,
                   help="flat key = value options file (flags override it)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusionnet",
        description="Volumetric + multi-view 3D shape classification with score fusion.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic shape dataset")
    _add(p, "--synthetic", cast=str, required=True, metavar="CLASSESxN",
         help=f"classes and count per class, e.g. box,sphere,pyramid,cylinderx50; kinds: {','.join(SHAPE_KINDS)}")
    _add(p, "--out", cast=str, required=True, help="output dataset directory")
    _common(p, "seed")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("ingest", help="build a manifest from a ModelNet layout tree")
    _add(p, "--data", cast=str, required=True, help="dataset root (class/{train,test}/*.off)")
    p.add_argument("--out", default=None, help="manifest path (default: <data>/manifest.jsonl)")
    _common(p)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("prep", help="build voxel/view caches for a manifest")
    _common(p, "manifest", "cache", "seed")
    _add(p, "--jobs", cast=int, help="worker processes")
    p.add_argument("--jitter", action="store_true", help="also cache jittered voxels")
    p.add_argument("--no-voxels", action="store_true", help="skip voxel caches")
    p.add_argument("--no-views", action="store_true", help="skip view renders")
    p.set_defaults(func=_cmd_prep)

    p = sub.add_parser("train", help="train one component network")
    _common(p, "manifest", "cache", "seed")
    _add(p, "--component", cast=str,
         help=f"one of {','.join(sorted(COMPONENTS))}")
    _add(p, "--epochs", cast=int, help="training epochs")
    _add(p, "--batch-size", cast=int, help="minibatch size")
    _add(p, "--lr", cast=float, help="learning rate")
    _add(p, "--momentum", cast=float, help="SGD momentum")
    _add(p, "--weight-decay", cast=float, help="L2 weight decay")
    _add(p, "--out", cast=str, required=True, help="output directory for weights/logs")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate trained weights on a split")
    _common(p, "manifest", "cache", "seed")
    _add(p, "--component", cast=str, help=f"one of {','.join(sorted(COMPONENTS))}")
    p.add_argument("--weights", required=True, help="trained weights file")
    _add(p, "--split", cast=str,
         help="train, test, or val (the training models that train holds out)")
    p.add_argument("--out", default=None, help="write per-model class scores (JSON lines)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("fuse", help="fit fusion weights on validation scores, apply to test")
    p.add_argument("--val", nargs="+", required=True, help="validation score files, one per component")
    p.add_argument("--test", nargs="+", required=True, help="test score files, same order")
    _add(p, "--step", cast=float, help="simplex grid step")
    p.add_argument("--softmax", action="store_true", help="fuse softmax-normalized scores")
    p.add_argument("--out", default=None, help="write fused test scores")
    _common(p)
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    _common(p, "seed")
    p.add_argument("--seeds", type=int, default=20, help="seeds per case (default: 20)")
    p.add_argument("--step", type=float, default=DEFAULT_STEP,
                   help=f"finite-difference step (default: {DEFAULT_STEP:g})")
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("report", help="render the comparison table for a finished run")
    p.add_argument("--run", required=True, help="run output directory (holds metrics.json)")
    _common(p)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args._config = _parse_config(args.config) if args.config else {}
        return args.func(args)
    except MissingInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_MISSING
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_MISSING
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
