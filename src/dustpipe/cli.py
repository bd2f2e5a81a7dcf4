"""Command-line front end wiring the pipeline stages together.

Subcommands: synth, preprocess, index build, train, eval, infer,
bench memory, bench sampling, model describe.  Exit code 0 on success, 2 on
usage errors, 1 with a one-line diagnostic otherwise.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from contextlib import contextmanager
from dataclasses import asdict, fields, replace
from pathlib import Path

from .bench import bench_memory, bench_sampling
from .errors import DustpipeError
from .granule_io import (
    DatasetManifest,
    SyntheticConfig,
    generate_synthetic_dataset,
    read_granule,
)
from .inference import infer_scene, write_map, write_pgm
from .model3d import ModelConfig, describe_checkpoint, load_checkpoint
from .patch_index import build_index, write_index
from .preprocess import PreprocessConfig, preprocess_dataset, preprocess_pipeline
from .training import LossConfig, TrainConfig, evaluate, train


# each callable a command hands flag values to -> {its parameter: the dest
# of the flag that sets it}; a config class's parameters are its fields
# (ModelConfig.in_depth comes from the data)
_FLAGS = {
    SyntheticConfig: {f.name: f.name for f in fields(SyntheticConfig)},
    PreprocessConfig: {"impute_window": "window", "rng_seed": "seed"},
    TrainConfig: {"learning_rate": "lr", "weight_decay": "wd", "plateau_patience": "patience",
                  "passes": "passes", "partitions": "partitions", "sub_epochs": "sub_epochs",
                  "batch_size": "batch", "seed": "seed"},
    LossConfig: {"alpha": "alpha"},
    ModelConfig: {"filters": "filters", "patch_size": "patch_size"},
    generate_synthetic_dataset: {n: n for n in ("seed", "count", "height", "width", "channels")},
    bench_memory: {"batch_size": "batch", "seed": "seed"},
    bench_sampling: {"batch_size": "batch", "duration_seconds": "seconds", "seed": "seed"},
}


def _add_flags(parser, target, *names, **defaults) -> None:
    """Add the flags that set ``target``'s parameters ``names`` (default:
    all in ``_FLAGS``), each typed and defaulted by ``target``'s signature;
    one without a default there takes it from ``defaults`` or is required.
    The flags join the parser's ``flags`` map, which ``main`` names
    refusals by."""
    params = inspect.signature(target, eval_str=True).parameters
    flags = dict(parser.get_default("flags") or {})
    for name in names or _FLAGS[target]:
        flags[name] = dest = _FLAGS[target][name]
        param = params[name]
        value = defaults.get(name, param.default)
        parser.add_argument("--" + dest.replace("_", "-"), required=value is param.empty,
                            default=None if value is param.empty else value,
                            type=str if isinstance(value, tuple) else param.annotation)
    parser.set_defaults(flags=flags)


@contextmanager
def _naming_flags(flags: dict[str, str]):
    """Re-raise a ``ValueError`` whose message starts with a key of
    ``flags`` (a parameter) led by that key's flag."""
    try:
        yield
    except ValueError as e:
        name = str(e).partition(" ")[0]
        if name not in flags:
            raise
        raise ValueError(f"--{flags[name].replace('_', '-')}: {e}") from None


def _values(target, args) -> dict:
    """The values of the flags of ``args`` that set ``target``'s parameters,
    keyed by parameter name."""
    values = {p: getattr(args, d) for p, d in _FLAGS[target].items() if hasattr(args, d)}
    for param, value in values.items():
        if isinstance(value, str):  # a tuple parameter's flag, given as text
            try:
                values[param] = tuple(int(v) for v in value.split(","))
            except ValueError:
                raise ValueError(f"--{_FLAGS[target][param]} must be comma-separated "
                                 f"integers, got {value!r}") from None
    return values


def _config(cls, args):
    """``cls`` built from the flags of ``args`` that set its fields."""
    return cls(**_values(cls, args))


def _cmd_synth(args) -> int:
    manifest = generate_synthetic_dataset(
        args.out, config=_config(SyntheticConfig, args),
        patch_size=_config(ModelConfig, args).patch_size,
        **_values(generate_synthetic_dataset, args),
    )
    print(f"wrote {len(manifest)} granule/label pairs under {args.out}")
    return 0


def _cmd_preprocess(args) -> int:
    cfg = _config(PreprocessConfig, args)
    out = preprocess_dataset(DatasetManifest.load(args.manifest), args.out, cfg)
    print(f"preprocessed {len(out)} granules into {Path(args.out)}")
    return 0


def _cmd_index_build(args) -> int:
    patch_size = _config(ModelConfig, args).patch_size
    index = build_index(DatasetManifest.load(args.manifest), patch_size)
    write_index(index, args.out)
    print(f"indexed {len(index)} patch centers -> {args.out}")
    return 0


def _cmd_train(args) -> int:
    train_cfg, loss_cfg = _config(TrainConfig, args), _config(LossConfig, args)
    model_cfg = _config(ModelConfig, args)
    manifest_train = DatasetManifest.load(args.manifest_train)
    manifest_val = DatasetManifest.load(args.manifest_val)
    # mapped, so only the header is read
    channels = read_granule(manifest_train.entries[0].granule, use_mmap=True).channels
    result = train(manifest_train, manifest_val, args.out,
                   model_config=replace(model_cfg, in_depth=channels),
                   train_cfg=train_cfg, loss_cfg=loss_cfg)
    print(f"final checkpoint: {result.final_checkpoint}")
    print(f"best checkpoint:  {result.best_checkpoint} "
          f"(val wmse {result.best_val_wmse:.6g})")
    print(f"training log:     {result.log_path}")
    return 0


def _report(report, path: str | None) -> int:
    """Print a report dataclass as JSON, first writing it to ``path`` if given."""
    payload = json.dumps(asdict(report), indent=2)
    if path:
        Path(path).write_text(payload + "\n", encoding="utf-8")
        print(f"report written to {path}")
    print(payload)
    return 0


def _cmd_eval(args) -> int:
    alpha = _config(LossConfig, args).alpha
    manifest = DatasetManifest.load(args.manifest_test)
    return _report(evaluate(args.ckpt, manifest, alpha=alpha), args.report)


def _cmd_infer(args) -> int:
    cfg = _config(PreprocessConfig, args)
    params, _ = load_checkpoint(args.ckpt)
    granule = read_granule(args.granule, use_mmap=True)
    if args.preprocess:
        granule = preprocess_pipeline(granule, cfg)
    dmap = infer_scene(params, granule)
    write_map(dmap, args.out)
    print(f"detection map written to {args.out}")
    if args.pgm:
        write_pgm(dmap, args.pgm)
        print(f"preview written to {args.pgm}")
    return 0


def _cmd_bench_memory(args) -> int:
    return _report(bench_memory(args.small, args.large, **_values(bench_memory, args),
                                patch_size=_config(ModelConfig, args).patch_size), args.report)


def _cmd_bench_sampling(args) -> int:
    return _report(bench_sampling(args.manifest, **_values(bench_sampling, args),
                                  patch_size=_config(ModelConfig, args).patch_size),
                   args.report)


def _cmd_model_describe(args) -> int:
    print(describe_checkpoint(args.ckpt))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dustpipe",
        description="Desk-scale multispectral dust-detection pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    _add_flags(p, generate_synthetic_dataset, seed=0)  # the library asks for a seed
    _add_flags(p, ModelConfig, "patch_size")
    _add_flags(p, SyntheticConfig)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("preprocess", help="normalize and impute a dataset")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    _add_flags(p, PreprocessConfig)
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("index", help="patch-center index operations")
    isub = p.add_subparsers(dest="index_command", required=True)
    pb = isub.add_parser("build", help="build and write an index")
    pb.add_argument("--manifest", required=True)
    _add_flags(pb, ModelConfig, "patch_size")
    pb.add_argument("--out", required=True)
    pb.set_defaults(func=_cmd_index_build)

    p = sub.add_parser("train", help="train the detector")
    p.add_argument("--manifest-train", required=True)
    p.add_argument("--manifest-val", required=True)
    p.add_argument("--out", required=True)
    for cls in (TrainConfig, LossConfig, ModelConfig):
        _add_flags(p, cls)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a test manifest")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest-test", required=True)
    p.add_argument("--report")
    _add_flags(p, LossConfig)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("infer", help="full-scene detection map")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--granule", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pgm")
    p.add_argument("--preprocess", action="store_true",
                   help="normalize and impute the granule before inference")
    _add_flags(p, PreprocessConfig, "rng_seed")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("bench", help="performance benchmarks")
    bsub = p.add_subparsers(dest="bench_command", required=True)
    pm = bsub.add_parser("memory", help="peak-RSS decoupling benchmark")
    pm.add_argument("--small", required=True)
    pm.add_argument("--large", required=True)
    _add_flags(pm, bench_memory)
    _add_flags(pm, ModelConfig, "patch_size")
    pm.add_argument("--report")
    pm.set_defaults(func=_cmd_bench_memory)
    ps = bsub.add_parser("sampling", help="indexed vs naive sampling throughput")
    ps.add_argument("--manifest", required=True)
    _add_flags(ps, bench_sampling)
    _add_flags(ps, ModelConfig, "patch_size")
    ps.add_argument("--report")
    ps.set_defaults(func=_cmd_bench_sampling)

    p = sub.add_parser("model", help="model utilities")
    msub = p.add_subparsers(dest="model_command", required=True)
    pd = msub.add_parser("describe", help="print a checkpoint's tensor census")
    pd.add_argument("ckpt")
    pd.set_defaults(func=_cmd_model_describe)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0
    try:
        with _naming_flags(getattr(args, "flags", {})):  # rules start with the parameter
            return args.func(args)
    except MemoryError as e:  # a bare MemoryError has no message
        print("error: out of memory" + (f": {e}" if str(e) else ""), file=sys.stderr)
        return 1
    except (DustpipeError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
