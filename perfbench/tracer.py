"""In-memory span tracer that wraps the program's public layer functions
from outside the program.

Each span is (name, start, end, parent, tag), with start and end read from
the process CPU clock (time.process_time), the clock the end-to-end
figures use. Spans stay in memory and are written out once, when the run
ends. Patching replaces a module attribute
at the place the caller looks it up (``fusionnet.pipeline.caches`` imports
``voxelize_surface`` by name, so that is where it is wrapped); ``restore``
puts every original back.
"""

from __future__ import annotations

import json
import statistics
import time

# (module path, attribute, span name): functions looked up through a module
MODULE_HOOKS = (
    ("fusionnet.pipeline.caches", "parse_off", "mesh.parse"),
    ("fusionnet.pipeline.caches", "normalize_mesh", "mesh.normalize"),
    ("fusionnet.pipeline.caches", "jitter_mesh", "mesh.jitter"),
    ("fusionnet.pipeline.caches", "apply_rotation", "orientations.rotate"),
    ("fusionnet.pipeline.caches", "voxelize_surface", "voxel.voxelize"),
    ("fusionnet.pipeline.caches", "read_voxel_cache", "voxel.read"),
    ("fusionnet.pipeline.caches", "write_voxel_cache", "voxel.write"),
    ("fusionnet.pipeline.caches", "render_view", "render.render"),
    ("fusionnet.pipeline.caches", "read_pgm", "render.read_pgm"),
    ("fusionnet.pipeline.run", "load_voxel_dataset", "pipeline.caches.load"),
    ("fusionnet.pipeline.run", "load_view_dataset", "pipeline.caches.load"),
    ("fusionnet.pipeline.run", "fit_fusion_weights", "pipeline.fusion.fit"),
    ("fusionnet.pipeline.run", "fuse_scores", "pipeline.fusion.fuse"),
    ("fusionnet.pipeline.training", "sgd_step", "nn.optim.sgd"),
    ("fusionnet.nn.tensor", "backward", "nn.tensor.backward"),
)
TENSOR_OPS = ("conv2d", "relu", "maxpool2d", "dropout", "fully_connected",
              "concat", "view_maxpool", "softmax_loss")
NETWORKS = ("vcnn1", "vcnn2", "mvnet")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, tag]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.weights_bytes = 0

    def begin(self, name: str, tag=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.process_time(), None, parent, tag])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.process_time()
        self._stack.pop()

    def wrap(self, fn, name: str, tag_of=None):
        def wrapped(*args, **kwargs):
            i = self.begin(name, tag_of(args) if tag_of else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(i)
        return wrapped

    def _wrap_weights(self, fn):
        timed = self.wrap(fn, "nn.weights.write")

        def wrapped(*args, **kwargs):
            blob = timed(*args, **kwargs)
            self.weights_bytes += len(blob)
            return blob
        return wrapped

    def _wrap_op(self, fn, op: str):
        fwd, bwd = f"nn.tensor.{op}.fwd", f"nn.tensor.{op}.bwd"
        tracer = self

        def wrapped(*args, **kwargs):
            i = tracer.begin(fwd)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(i)
            back = out._backward
            if back is not None:
                def timed_back(g):
                    j = tracer.begin(bwd)
                    try:
                        back(g)
                    finally:
                        tracer.end(j)
                out._backward = timed_back
            return out
        return wrapped

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        import importlib

        from fusionnet.models import Network
        from fusionnet.nn import tensor
        from fusionnet.pipeline import run, training

        for mod_name, attr, span in MODULE_HOOKS:
            mod = importlib.import_module(mod_name)
            self._patch(mod, attr, self.wrap(getattr(mod, attr), span))
        self._patch(run, "prepare_caches", self.wrap(run.prepare_caches, "pipeline.caches"))
        self._patch(run, "train", self.wrap(run.train, "pipeline.training",
                                            lambda args: args[0].spec.name))
        self._patch(run, "evaluate_network",
                    self.wrap(run.evaluate_network, "pipeline.evaluation"))
        for mod in (run, training):
            self._patch(mod, "write_weights", self._wrap_weights(mod.write_weights))
        for op in TENSOR_OPS:
            self._patch(tensor, op, self._wrap_op(getattr(tensor, op), op))
        self._patch(Network, "forward", self.wrap(Network.forward, "models.forward"))
        self._patch(Network, "forward_views",
                    self.wrap(Network.forward_views, "models.forward_views"))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, tag in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "tag": tag}) + "\n")


def _p50_ms(durations: list[float]) -> float:
    return statistics.median(durations) * 1e3 if durations else 0.0


def layer_metrics(spans: list[list], rounds: int, extra: dict) -> dict[str, float]:
    """Per-round per-layer figures from the spans of ``rounds`` traced rounds.

    ``extra`` carries what spans do not hold: cache report counts, bytes,
    and the traced/untraced run times.
    """
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    durs: dict[str, list[float]] = {}
    child: list[float] = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        d = end - start
        total[name] = total.get(name, 0.0) + d
        calls[name] = calls.get(name, 0) + 1
        durs.setdefault(name, []).append(d)
        if parent >= 0:
            child[parent] += d
    self_s: dict[str, float] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]

    # a training step runs from a forward pass to the SGD update that follows
    # it; sgd_step is called straight from train, so its parent names the network
    steps: dict[str, list[float]] = {net: [] for net in NETWORKS}
    step_start = None
    for name, start, end, parent, _ in spans:
        if name == "models.forward":
            step_start = start
        elif name == "nn.optim.sgd" and step_start is not None:
            steps[spans[parent][4]].append(end - step_start)
            step_start = None

    def per_round(value: float) -> float:
        return value / rounds

    m: dict[str, float] = {}

    def put(key: str, span: str, what: str) -> None:
        if what == "s":
            m[key] = per_round(total.get(span, 0.0))
        elif what == "self_s":
            m[key] = per_round(self_s.get(span, 0.0))
        elif what == "calls":
            m[key] = per_round(calls.get(span, 0))
        elif what == "p50":
            m[key] = _p50_ms(durs.get(span, []))

    put("voxel.voxelize_calls", "voxel.voxelize", "calls")
    put("voxel.voxelize_s", "voxel.voxelize", "s")
    put("voxel.voxelize_ms_p50", "voxel.voxelize", "p50")
    put("voxel.read_s", "voxel.read", "s")
    put("voxel.write_s", "voxel.write", "s")
    put("mesh.parse_s", "mesh.parse", "s")
    put("mesh.normalize_s", "mesh.normalize", "s")
    put("mesh.jitter_s", "mesh.jitter", "s")
    put("orientations.rotate_s", "orientations.rotate", "s")
    put("render.views", "render.render", "calls")
    put("render.render_s", "render.render", "s")
    put("render.view_ms_p50", "render.render", "p50")
    put("render.read_pgm_s", "render.read_pgm", "s")
    put("pipeline.caches.self_s", "pipeline.caches", "self_s")
    put("pipeline.caches.load_s", "pipeline.caches.load", "s")
    # from the untraced rounds: a traced warm pass times its wrappers too
    m["pipeline.caches.reprep_models_per_s"] = extra["reprep_models_per_s"]
    for key in ("files", "bytes", "files_written", "files_skipped", "files_regenerated"):
        m[f"pipeline.caches.{key}"] = per_round(extra[f"caches.{key}"])
    for op in TENSOR_OPS:
        put(f"nn.tensor.{op}.fwd_s", f"nn.tensor.{op}.fwd", "s")
        if op != "view_maxpool":  # only evaluation pools views: it has no backward
            put(f"nn.tensor.{op}.bwd_s", f"nn.tensor.{op}.bwd", "s")
        put(f"nn.tensor.{op}.calls", f"nn.tensor.{op}.fwd", "calls")
    put("nn.tensor.backward_s", "nn.tensor.backward", "s")
    put("nn.optim.sgd_s", "nn.optim.sgd", "s")
    put("nn.optim.sgd_calls", "nn.optim.sgd", "calls")
    put("nn.weights.write_s", "nn.weights.write", "s")
    m["nn.weights.write_mb"] = per_round(extra["weights.write_bytes"]) / 2**20
    m["models.forward_s"] = per_round(total.get("models.forward", 0.0)
                                      + total.get("models.forward_views", 0.0))
    put("models.forward_views_calls", "models.forward_views", "calls")
    put("models.forward_views_ms_p50", "models.forward_views", "p50")
    put("pipeline.evaluation.eval_s", "pipeline.evaluation", "s")
    m["pipeline.evaluation.models"] = per_round(extra["evaluation.models"])
    put("pipeline.training.train_s", "pipeline.training", "s")
    put("pipeline.training.self_s", "pipeline.training", "self_s")
    for net in NETWORKS:
        m[f"pipeline.training.{net}.step_ms_p50"] = _p50_ms(steps[net])
    put("pipeline.fusion.fit_s", "pipeline.fusion.fit", "s")
    put("pipeline.fusion.fit_calls", "pipeline.fusion.fit", "calls")
    put("pipeline.fusion.fuse_s", "pipeline.fusion.fuse", "s")
    put("pipeline.run.self_s", "pipeline.run", "self_s")
    m["pipeline.data.synth_s"] = extra["synth_s"]
    m["trace.overhead_s"] = extra["traced_run_s"] - extra["untraced_run_s"]
    return m

