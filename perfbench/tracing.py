"""In-memory spans around dustpipe's public functions, installed from outside
the package, and the per-layer metrics derived from them.

A span records (name, start, end, parent).  Functions are wrapped in every
``dustpipe`` namespace that holds them, so calls made through names imported
with ``from .model3d import forward`` are traced too.  Conv, batch-norm and
pooling primitives are told apart by call order within their enclosing
forward or backward pass.  A span's self time is its duration minus the
union of its children's intervals; children may run on pool threads, so
the union (not the sum) is subtracted.
"""

from __future__ import annotations

import itertools
import json
import math
import statistics
import sys
import threading
import time

import numpy as np

# (module, function) pairs wrapped in a traced run.  Generator functions
# such as ``sample_batches`` are left out: their call returns before any
# work is done, so the work shows up in the spans of what they call.
TRACED = {
    "granule_io": ["read_granule", "write_granule", "read_labels", "write_labels",
                   "generate_synthetic_dataset"],
    "preprocess": ["preprocess_pipeline", "normalize_bands", "impute_granule"],
    "patch_index": ["build_index"],
    "model3d": ["forward", "backward", "predict", "predict_batched",
                "conv3d_forward", "conv3d_backward",
                "batchnorm_forward", "batchnorm_backward",
                "maxpool3d_forward", "maxpool3d_backward",
                "init_params", "save_checkpoint", "load_checkpoint"],
    "training": ["train", "evaluate", "adam_step", "wmse_loss", "_eval_wmse"],
    "inference": ["infer_scene", "write_map", "write_pgm", "score_map"],
}
TRACED_METHODS = [("patch_index", "GranuleStore", "extract_batch")]

LAYERS = ("granule_io", "preprocess", "patch_index", "model3d", "training", "inference")

# primitive -> (block label, position counted from the last block in backward)
_BLOCK_PRIMS = {
    "conv3d_forward": ("conv", False), "conv3d_backward": ("conv", True),
    "batchnorm_forward": ("bn", False), "batchnorm_backward": ("bn", True),
    "maxpool3d_forward": ("pool", False), "maxpool3d_backward": ("pool", True),
}


class Span:
    __slots__ = ("id", "parent", "name", "t0", "t1", "thread", "attrs", "calls")

    def __init__(self, sid, parent, name, thread):
        self.id = sid
        self.parent = parent
        self.name = name
        self.thread = thread
        self.t0 = self.t1 = 0.0
        self.attrs = {}
        self.calls = {}  # per-primitive call counters of a forward/backward pass

    def duration(self) -> float:
        return self.t1 - self.t0


def _n_blocks(args) -> int:
    try:
        return len(args[0].config.filters)
    except (AttributeError, IndexError, TypeError):
        return 3


def _conv_counts(args) -> dict:
    """FLOPs and im2col bytes of a 3x3x3 same-padded conv, from its shapes."""
    try:
        b, cin, d, h, w = args[0].shape
        cout, _, kd, kh, kw = args[1].shape
    except (AttributeError, IndexError, ValueError):
        return {}
    rows, k = b * d * h * w, cin * kd * kh * kw
    return {"flop": 2 * rows * k * cout, "bytes": rows * k * args[0].itemsize, "batch": b}


def _batch_len(args) -> dict:
    try:
        return {"batch": len(args[1])}
    except (IndexError, TypeError):
        return {}


def _payload_bytes(args) -> dict:
    """Bytes of the Granule or LabelMap argument being written."""
    arr = getattr(args[0], "data", getattr(args[0], "values", None)) if args else None
    return {"bytes": arr.nbytes} if arr is not None else {}


class Tracer:
    """Wraps dustpipe functions while installed; spans accumulate in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._ids = itertools.count()  # next() on a count is atomic in CPython
        self._main_ident = threading.main_thread().ident

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, short: str) -> tuple[list[Span], Span]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # a pool thread's first call belongs to what the main thread runs
            parent = self._main_stack[-1] if self._main_stack else None
        span = Span(next(self._ids), parent.id if parent else None, name,
                    threading.get_ident())
        if parent is not None and short in _BLOCK_PRIMS:
            self._tag_block(span, parent, short)
        return stack, span

    @staticmethod
    def _tag_block(span: Span, parent: Span, short: str) -> None:
        if short == "conv3d_forward" and parent.name == "model3d.conv3d_backward":
            span.attrs["block"] = parent.attrs.get("block")
            span.attrs["role"] = "dx"
            return
        if parent.name not in ("model3d.forward", "model3d.backward"):
            return
        kind, reverse = _BLOCK_PRIMS[short]
        k = parent.calls[short] = parent.calls.get(short, 0) + 1
        nb = parent.attrs.get("n_blocks", 3)
        if reverse:
            k = (nb - k + 1) if kind != "pool" else (nb - k)
        span.attrs["block"] = f"{kind}{k}"
        span.attrs["role"] = "bwd" if reverse else "fwd"
        span.attrs["mode"] = parent.attrs.get("mode", "train")

    def wrap(self, qualname: str, fn):
        tracer = self
        short = qualname.split(".", 1)[1]
        counter = {"conv3d_forward": _conv_counts, "predict": _batch_len,
                   "predict_batched": _batch_len, "extract_batch": _batch_len,
                   "write_granule": _payload_bytes, "write_labels": _payload_bytes,
                   }.get(short)

        def traced(*args, **kwargs):
            stack, span = tracer._open(qualname, short)
            if short in ("forward", "backward"):
                span.attrs["n_blocks"] = _n_blocks(args)
                if short == "forward":
                    span.attrs["mode"] = kwargs.get("mode", args[2] if len(args) > 2 else "train")
                    span.attrs["batch"] = len(args[1])
            if counter is not None:
                span.attrs.update(counter(args))
            if short == "impute_granule" and args:
                # a full scan of the input: timed as its own span so that it
                # is excluded from the self time of the layer that called it
                _, probe = tracer._open("trace.count", "count")
                probe.t0 = time.perf_counter()
                span.attrs["nan_filled"] = int(np.count_nonzero(np.isnan(args[0].data)))
                probe.t1 = time.perf_counter()
                tracer.spans.append(probe)
            stack.append(span)
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if short in ("read_granule", "read_labels"):
                arr = getattr(result, "data", getattr(result, "values", None))
                span.attrs["bytes"] = arr.nbytes if arr is not None else 0
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", short)
        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Replace each traced function in every dustpipe namespace holding it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "dustpipe" or n.startswith("dustpipe."))]
        for mod_name, names in TRACED.items():
            home = sys.modules.get(f"dustpipe.{mod_name}")
            for name in names:
                orig = getattr(home, name, None)
                if orig is None:
                    continue  # removed from the program; nothing to trace
                wrapper = self.wrap(f"{mod_name}.{name}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patches.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
        for mod_name, cls_name, meth in TRACED_METHODS:
            cls = getattr(sys.modules.get(f"dustpipe.{mod_name}"), cls_name, None)
            orig = vars(cls).get(meth) if cls is not None else None
            if orig is not None:
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(f"{mod_name}.{meth}", orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in sorted(self.spans, key=lambda s: s.t0):
                f.write(json.dumps({"id": s.id, "parent": s.parent, "name": s.name,
                                    "start": s.t0, "end": s.t1, "thread": s.thread,
                                    **{k: v for k, v in s.attrs.items() if k != "n_blocks"}})
                        + "\n")


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.t0, s.t1))
    out = {}
    for s in spans:
        covered = 0.0
        end = s.t0
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, end), min(b, s.t1)
            if b > a:
                covered += b - a
                end = b
        out[s.id] = s.duration() - covered
    return out


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail_percentile(n: int) -> float:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10:
            return p
    return 50.0


def _percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer values derived from one traced run's spans.

    Names ending in ``_s`` are totals over the traced run, ``_ms`` and
    ``_us_per_sample`` are per-call medians, the rest are counts or shares.
    A layer that a workload never calls reads 0.
    """
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)
    named: dict[str, list[Span]] = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def spans_of(name):
        return named.get(name, [])

    def total(name):
        return sum((s.duration() for s in spans_of(name)), 0.0)

    def ancestors(s):
        while s.parent is not None:
            s = by_id.get(s.parent)
            if s is None:
                return
            yield s

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum((selfs[s.id] for s in spans if s.name.startswith(layer + ".")), 0.0)

    # granule_io
    m["granule_io.read_s"] = total("granule_io.read_granule") + total("granule_io.read_labels")
    m["granule_io.write_s"] = total("granule_io.write_granule") + total("granule_io.write_labels")
    m["granule_io.bytes"] = float(sum(s.attrs.get("bytes", 0) for s in spans
                                      if s.name.startswith("granule_io.")))

    # preprocess
    m["preprocess.normalize_s"] = total("preprocess.normalize_bands")
    m["preprocess.impute_s"] = total("preprocess.impute_granule")
    m["preprocess.nan_filled"] = float(sum(s.attrs.get("nan_filled", 0)
                                           for s in spans_of("preprocess.impute_granule")))

    # patch_index
    gathers = spans_of("patch_index.extract_batch")
    g_ms = [s.duration() * 1e3 for s in gathers]
    pct = tail_percentile(len(g_ms))
    m["patch_index.build_index_s"] = total("patch_index.build_index")
    m["patch_index.gather_ms"] = _median(g_ms)
    m["patch_index.gather_tail_ms"] = _percentile(g_ms, pct)
    m["patch_index.gather_tail_pct"] = pct if g_ms else 0.0
    m["patch_index.gather_calls"] = float(len(g_ms))
    train_wall = total("training.train")
    step_gather = sum(
        s.duration() for s in gathers
        if any(a.name == "training.train" for a in ancestors(s))
        and not any(a.name == "training._eval_wmse" for a in ancestors(s)))
    m["patch_index.gather_share"] = step_gather / train_wall if train_wall else 0.0

    # model3d
    fwd = spans_of("model3d.forward")
    train_fwd = [s for s in fwd if s.attrs.get("mode") == "train"]
    eval_batched = [s for s in fwd if s.attrs.get("mode") == "eval" and s.attrs.get("batch", 0) > 1]
    m["model3d.forward_ms"] = _median([s.duration() * 1e3 for s in train_fwd])
    m["model3d.backward_ms"] = _median([s.duration() * 1e3 for s in spans_of("model3d.backward")])
    m["model3d.eval_forward_ms"] = _median([s.duration() * 1e3 for s in eval_batched])
    preds = spans_of("model3d.predict")
    m["model3d.predict_us_per_sample"] = _median(
        [s.duration() * 1e6 / s.attrs["batch"] for s in preds if s.attrs.get("batch")])
    prims = [s for s in spans if "block" in s.attrs]
    for kind, blocks in (("conv", 3), ("bn", 3), ("pool", 2)):
        for i in range(1, blocks + 1):
            label = f"{kind}{i}"
            for role in ("fwd", "bwd"):
                vals = [s.duration() * 1e3 for s in prims
                        if s.attrs["block"] == label and s.attrs.get("role") == role
                        and s.attrs.get("mode") == "train"]
                m[f"model3d.{label}.{role}_ms"] = _median(vals)
    for i in range(1, 4):
        calls = [s for s in prims if s.attrs["block"] == f"conv{i}"
                 and s.attrs.get("role") == "fwd" and s.attrs.get("mode") == "train"
                 and "flop" in s.attrs]
        m[f"model3d.conv{i}.gflop"] = _median([s.attrs["flop"] / 1e9 for s in calls])
        m[f"model3d.conv{i}.bytes"] = _median([float(s.attrs["bytes"]) for s in calls])
        m[f"model3d.conv{i}.gflops"] = _median(
            [s.attrs["flop"] / 1e9 / s.duration() for s in calls if s.duration() > 0])

    # training
    m["training.adam_ms"] = _median([s.duration() * 1e3 for s in spans_of("training.adam_step")])
    m["training.loss_ms"] = _median([s.duration() * 1e3 for s in spans_of("training.wmse_loss")
                                     if any(a.name == "training.train" for a in ancestors(s))])
    m["training.steps"] = float(len(spans_of("training.adam_step")))
    m["training.val_share"] = total("training._eval_wmse") / train_wall if train_wall else 0.0

    # inference
    scenes = spans_of("inference.infer_scene")
    scene_ids = {s.id for s in scenes}
    chunk_preds = [s for s in preds if any(a.id in scene_ids for a in ancestors(s))]
    m["inference.infer_scene_s"] = total("inference.infer_scene")
    m["inference.workers"] = float(len({s.thread for s in chunk_preds}))
    m["inference.chunks"] = float(len(chunk_preds)) / len(scenes) if scenes else 0.0
    m["inference.write_map_s"] = total("inference.write_map")
    m["inference.write_pgm_s"] = total("inference.write_pgm")
    m["inference.score_map_s"] = total("inference.score_map")
    return m


def top_self_times(spans: list[Span], n: int = 12) -> list[tuple[str, float]]:
    """Largest self-time totals, split by block for the model primitives."""
    selfs = self_times(spans)
    acc: dict[str, float] = {}
    for s in spans:
        key = s.name
        if "block" in s.attrs:
            key = f"{s.name}[{s.attrs['block']}.{s.attrs.get('role')}]"
        acc[key] = acc.get(key, 0.0) + selfs[s.id]
    return sorted(acc.items(), key=lambda kv: -kv[1])[:n]
