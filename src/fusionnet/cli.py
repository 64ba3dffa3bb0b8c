"""Command-line entry point: one executable, one subcommand per pipeline
stage, reproducible given identical flags and seeds.

Exit codes group failures by family: 0 success, 1 gradient-check failure or
unexpected error, 2 usage errors (bad flags), 3 missing inputs (files or
directories not found), 4 failed validation (invariant violations, malformed
data).

Options can come from a flat ``key = value`` config file via --config; keys
are the long flag names with underscores (image_size, weight_decay, ...), and
any other key is an error. Explicit flags override the file, which overrides
built-in defaults. The FUSIONNET_CACHE environment variable overrides the
config file and the default cache directory (an explicit --cache still wins).
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
from .pipeline.fusion import fit_fusion_weights, fuse_scores
from .pipeline.report import report_text
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
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in DEFAULTS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            out[key] = value
    return out


def _resolve(args: argparse.Namespace, conf: dict[str, str]) -> None:
    """Fill every option its flag left unset: config file > built-in default,
    parsed with the flag's type. The cache directory goes flag >
    FUSIONNET_CACHE > config file > default."""
    for key, value in list(vars(args).items()):
        if value is not None or key not in DEFAULTS or key == "cache":
            continue
        try:
            setattr(args, key, type(DEFAULTS[key])(conf[key]) if key in conf
                    else DEFAULTS[key])
        except ValueError as exc:
            raise ValueError(f"config key {key}: {exc}") from exc
    if "cache" in vars(args):
        args.cache = (args.cache or os.environ.get("FUSIONNET_CACHE")
                      or conf.get("cache", DEFAULTS["cache"]))


def _settings(args: argparse.Namespace) -> CacheSettings:
    return CacheSettings(orientation_count=args.orientations, resolution=args.resolution,
                         image_size=args.image_size, seed=args.seed,
                         jitter_sigma=args.jitter_sigma)


def _load_manifest(args: argparse.Namespace) -> DatasetManifest:
    if not os.path.exists(args.manifest):
        raise MissingInput(f"manifest not found: {args.manifest}")
    return DatasetManifest.read(args.manifest)


def _parse_synthetic(value: str) -> tuple[list[str], int]:
    sep = "×" if "×" in value else "x"
    head, _, tail = value.rpartition(sep)
    if not head or not tail.isdigit():
        raise ValueError(f"expected CLASSESxN (e.g. box,sphere,pyramid,cylinderx50), got {value!r}")
    classes = [c.strip() for c in head.split(",") if c.strip()]
    return classes, int(tail)


# ---------------------------------------------------------------- subcommands

def _cmd_synth(args: argparse.Namespace) -> int:
    classes, per_class = _parse_synthetic(args.synthetic)
    manifest = make_synthetic_dataset(classes, per_class, args.seed, args.out)
    n_train = len(manifest.split_entries("train"))
    n_test = len(manifest.split_entries("test"))
    print(f"wrote {len(manifest.entries)} models ({n_train} train / {n_test} test) "
          f"across {len(manifest.classes)} classes to {args.out}")
    print(f"manifest: {os.path.join(args.out, 'manifest.jsonl')}")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    root = args.data
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
    report = prepare_caches(_load_manifest(args), args.cache, _settings(args),
                            include_voxels=not args.no_voxels,
                            include_views=not args.no_views,
                            include_jitter=args.jitter, jobs=args.jobs)
    print(f"cache {args.cache}: wrote {report.written}, regenerated "
          f"{report.regenerated}, skipped {report.skipped} valid files")
    if report.failures:
        for f in report.failures[:20]:
            print(f"failure: {f}", file=sys.stderr)
        return _EXIT_INVALID
    return 0


def _component(args: argparse.Namespace) -> str:
    if args.component not in COMPONENTS:
        raise ValueError(f"unknown component {args.component!r}; "
                         f"choose from {sorted(COMPONENTS)}")
    return args.component


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
    os.makedirs(args.out, exist_ok=True)
    tcfg = TrainingConfig(
        epochs=args.epochs,
        optimizer=OptimizerConfig(learning_rate=args.lr, momentum=args.momentum,
                                  weight_decay=args.weight_decay),
        batch_size=args.batch_size,
        seed=args.seed,
        log_path=os.path.join(args.out, f"{component}.csv"))
    weights_path = os.path.join(args.out, f"{component}.fnw1")
    core, _ = split_fusion_validation(manifest, args.seed)  # eval --split val scores the rest
    _, records = train_component(component, manifest, args.cache, _settings(args),
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
    if args.split == "val":  # the training models that train holds out, as in run_pipeline
        entries = split_fusion_validation(manifest, args.seed)[1]
    else:
        entries = manifest.split_entries(args.split)
    if not entries:
        raise ValueError(f"no {args.split!r} entries in manifest")
    table = score_component(component, network, manifest, args.cache, settings, entries)
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
    fw, val_metric = fit_fusion_weights(val_sets, names, step=args.step,
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
    seeds = range(args.seed, args.seed + args.seeds)
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
    print(report_text(metrics), end="")
    return 0


# -------------------------------------------------------------------- parser

def _add(p: argparse.ArgumentParser, flag: str, help: str) -> None:
    """Flag with config-file fallback, typed like its built-in default; it
    stays None until main resolves it."""
    key = flag.lstrip("-").replace("-", "_")
    p.add_argument(flag, type=type(DEFAULTS[key]), default=None,
                   help=f"{help} (default: {DEFAULTS[key]})")


def _common(p: argparse.ArgumentParser, *keys):
    if "manifest" in keys:
        _add(p, "--manifest", help="dataset manifest path")
    if "cache" in keys:
        p.add_argument("--cache", default=None,
                       help="cache directory (default: FUSIONNET_CACHE or ./cache)")
        _add(p, "--orientations", help="voxel orientations per model")
        _add(p, "--resolution", help="voxel grid resolution")
        _add(p, "--image-size", help="rendered view size in pixels")
        _add(p, "--jitter-sigma", help="vertex jitter sigma, raw units")
    if "seed" in keys:
        _add(p, "--seed", help="global random seed")
    p.add_argument("--config", default=None,
                   help="flat key = value options file (flags override it)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fusionnet",
        description="Volumetric + multi-view 3D shape classification with score fusion.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic shape dataset")
    p.add_argument("--synthetic", required=True, metavar="CLASSESxN",
                   help=f"classes and count per class, e.g. box,sphere,pyramid,cylinderx50; kinds: {','.join(SHAPE_KINDS)}")
    p.add_argument("--out", required=True, help="output dataset directory")
    _common(p, "seed")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("ingest", help="build a manifest from a ModelNet layout tree")
    p.add_argument("--data", required=True, help="dataset root (class/{train,test}/*.off)")
    p.add_argument("--out", default=None, help="manifest path (default: <data>/manifest.jsonl)")
    _common(p)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("prep", help="build voxel/view caches for a manifest")
    _common(p, "manifest", "cache", "seed")
    _add(p, "--jobs", help="worker processes")
    p.add_argument("--jitter", action="store_true", help="also cache jittered voxels")
    p.add_argument("--no-voxels", action="store_true", help="skip voxel caches")
    p.add_argument("--no-views", action="store_true", help="skip view renders")
    p.set_defaults(func=_cmd_prep)

    p = sub.add_parser("train", help="train one component network")
    _common(p, "manifest", "cache", "seed")
    _add(p, "--component",
         help=f"one of {','.join(sorted(COMPONENTS))}")
    _add(p, "--epochs", help="training epochs")
    _add(p, "--batch-size", help="minibatch size")
    _add(p, "--lr", help="learning rate")
    _add(p, "--momentum", help="SGD momentum")
    _add(p, "--weight-decay", help="L2 weight decay")
    p.add_argument("--out", required=True, help="output directory for weights/logs")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate trained weights on a split")
    _common(p, "manifest", "cache", "seed")
    _add(p, "--component", help=f"one of {','.join(sorted(COMPONENTS))}")
    p.add_argument("--weights", required=True, help="trained weights file")
    _add(p, "--split",
         help="train, test, or val (the training models that train holds out)")
    p.add_argument("--out", default=None, help="write per-model class scores (JSON lines)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("fuse", help="fit fusion weights on validation scores, apply to test")
    p.add_argument("--val", nargs="+", required=True, help="validation score files, one per component")
    p.add_argument("--test", nargs="+", required=True, help="test score files, same order")
    _add(p, "--step", help="simplex grid step")
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
        _resolve(args, _parse_config(args.config) if args.config else {})
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
