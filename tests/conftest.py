"""Shared fixtures: small datasets and the recorded desk-scale training run;
shared helpers: child environments, tree digests and manifest writing."""

import hashlib
import time
from pathlib import Path

import numpy as np
import pytest

from dustpipe import bench
from dustpipe.granule_io import (
    DatasetManifest,
    Granule,
    LabelMap,
    ManifestEntry,
    SyntheticConfig,
    generate_synthetic_dataset,
    write_granule,
    write_labels,
)
from dustpipe.preprocess import PreprocessConfig, preprocess_dataset
from dustpipe.training import LossConfig, TrainConfig, train

PREPROCESS_CFG = PreprocessConfig(rng_seed=9)


def src_env() -> dict[str, str]:
    """The environment with this checkout's ``src`` first on PYTHONPATH, the
    one ``bench.run_fresh`` gives its child, for the child interpreters that
    tests start without the relay."""
    return bench._src_env()


def tree_digest(root: Path) -> str:
    """One sha256 over the names and bytes of every file under ``root``."""
    digest = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            digest.update(p.name.encode())
            digest.update(p.read_bytes())
    return digest.hexdigest()


def write_manifest(root, granules, labels) -> DatasetManifest:
    """Granule i and label map i written as ``g{i}.dgr`` and ``l{i}.dlb``
    under ``root``, in float32, and their manifest."""
    entries = []
    for i, (g, lab) in enumerate(zip(granules, labels)):
        gp, lp = root / f"g{i}.dgr", root / f"l{i}.dlb"
        write_granule(Granule(np.asarray(g, dtype=np.float32)), gp)
        write_labels(LabelMap(np.asarray(lab, dtype=np.float32)), lp)
        entries.append(ManifestEntry(gp, lp))
    return DatasetManifest(entries)


# Recorded pilot configuration for the desk-scale learning check: a strongly
# separable synthetic fixture (plume channel shift 0.8 = 40x the noise sigma)
# and the stock optimizer settings with batch size 128.
DESK_SYNTH = SyntheticConfig(min_plumes=1, max_plumes=3, amplitude=0.8,
                             noise_sigma=0.02, nan_fraction=0.05)
DESK_TRAIN_CFG = dict(batch_size=128, seed=0)


@pytest.fixture(scope="session")
def desk_run(tmp_path_factory):
    """Full desk-scale run: synth -> preprocess -> train; shared by the
    learning acceptance check and the trained-model map tests."""
    root = tmp_path_factory.mktemp("desk_run")
    m_train = generate_synthetic_dataset(root / "train", seed=1, count=7,
                                         height=30, width=30, channels=38,
                                         config=DESK_SYNTH)
    m_val = generate_synthetic_dataset(root / "val", seed=2, count=2,
                                       height=24, width=24, channels=38,
                                       config=DESK_SYNTH)
    m_test = generate_synthetic_dataset(root / "test", seed=3, count=2,
                                        height=30, width=30, channels=38,
                                        config=DESK_SYNTH)
    p_train = preprocess_dataset(m_train, root / "ptrain", PREPROCESS_CFG)
    p_val = preprocess_dataset(m_val, root / "pval", PREPROCESS_CFG)
    p_test = preprocess_dataset(m_test, root / "ptest", PREPROCESS_CFG)

    t0 = time.perf_counter()
    result = train(p_train, p_val, root / "run",
                   train_cfg=TrainConfig(**DESK_TRAIN_CFG),
                   loss_cfg=LossConfig(alpha=1.0))
    elapsed = time.perf_counter() - t0
    return {
        "root": root,
        "train": p_train,
        "val": p_val,
        "test": p_test,
        "result": result,
        "train_seconds": elapsed,
    }


@pytest.fixture(scope="session")
def bench_datasets(tmp_path_factory):
    """Small/large manifests (4x payload ratio) with sparse labels for the
    memory and throughput benchmarks."""
    root = tmp_path_factory.mktemp("bench_data")
    cfg = SyntheticConfig(min_plumes=1, max_plumes=2, amplitude=0.5,
                          nan_fraction=0.0, label_density=0.02)
    generate_synthetic_dataset(root / "small", seed=11, count=8,
                               height=204, width=204, channels=38, config=cfg)
    generate_synthetic_dataset(root / "large", seed=12, count=32,
                               height=204, width=204, channels=38, config=cfg)
    return {
        "small": root / "small" / "manifest.json",
        "large": root / "large" / "manifest.json",
    }
