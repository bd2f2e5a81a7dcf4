"""Walkthrough: a compressed end-to-end run.

Synthesizes a small labeled dataset, preprocesses it, trains the detector
for a single pass (enough to beat chance, not to converge), slides it over
a held-out scene, and scores the detection map against the ground truth.
For the full recipe with the stock three-pass schedule, see the acceptance
suite (tests/test_acceptance.py) and README.
"""

import tempfile
from pathlib import Path

from dustpipe import (
    LossConfig,
    PreprocessConfig,
    SyntheticConfig,
    TrainConfig,
    evaluate,
    generate_synthetic_dataset,
    infer_scene,
    load_checkpoint,
    preprocess_dataset,
    read_granule,
    read_labels,
    score_map,
    train,
    write_map,
    write_pgm,
)

root = Path(tempfile.mkdtemp(prefix="dustpipe_demo05_"))
cfg = SyntheticConfig(min_plumes=1, max_plumes=3, amplitude=0.8,
                      noise_sigma=0.02, nan_fraction=0.05)
prep = PreprocessConfig(rng_seed=9)

print("synthesizing and preprocessing...")
m_train = preprocess_dataset(
    generate_synthetic_dataset(root / "train", seed=1, count=4, height=26,
                               width=26, channels=38, config=cfg),
    root / "ptrain", prep)
m_val = preprocess_dataset(
    generate_synthetic_dataset(root / "val", seed=2, count=1, height=20,
                               width=20, channels=38, config=cfg),
    root / "pval", prep)
m_test = preprocess_dataset(
    generate_synthetic_dataset(root / "test", seed=3, count=1, height=26,
                               width=26, channels=38, config=cfg),
    root / "ptest", prep)

print("training (1 pass, 2 partitions, 1 sub-epoch; deliberately short)...")
result = train(m_train, m_val, root / "run",
               train_cfg=TrainConfig(passes=1, partitions=2, sub_epochs=1,
                                     batch_size=128, seed=0),
               loss_cfg=LossConfig(alpha=1.0))
for row in result.rows:
    print(f"  pass {row.pass_num} partition {row.partition}: "
          f"train wmse {row.train_wmse:.4f}, val wmse {row.val_wmse:.4f}")

report = evaluate(result.best_checkpoint, m_test)
print(f"\nheld-out after the short run: accuracy {report.accuracy:.3f}, "
      f"r2 {report.r2:.3f} (the stock 3-pass schedule reaches >= 0.95 accuracy)")

print("\nsliding the detector over the held-out scene...")
params, _ = load_checkpoint(result.best_checkpoint)
entry = m_test.entries[0]
dmap = infer_scene(params, read_granule(entry.granule))
write_map(dmap, root / "scene.dmp")
write_pgm(dmap, root / "scene.pgm")
print(f"detection map + PGM preview written under {root}")

scored = score_map(dmap, read_labels(entry.labels))
print(f"map vs truth: overall accuracy {scored.overall.accuracy:.3f}; "
      f"plume-edge band {scored.boundary.accuracy:.3f} vs "
      f"core {scored.core.accuracy:.3f}")
interior = dmap.values[2:-2, 2:-2]
print(f"probability range in the interior: "
      f"[{interior.min():.3f}, {interior.max():.3f}]; border is NaN sentinel")
