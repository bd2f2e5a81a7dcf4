"""Walkthrough: the two performance benchmarks.

Sampling: batches/second of precomputed-index sampling vs re-scanning the
label masks for every batch.  Memory: peak resident memory of the mmap
streaming path vs loading everything, measured in fresh subprocesses while
the dataset size quadruples.
"""

import json
import tempfile
from dataclasses import asdict
from pathlib import Path

from dustpipe import SyntheticConfig, generate_synthetic_dataset
from dustpipe.bench import bench_memory, bench_sampling

root = Path(tempfile.mkdtemp(prefix="dustpipe_demo06_"))
cfg = SyntheticConfig(min_plumes=1, max_plumes=2, amplitude=0.5,
                      nan_fraction=0.0, label_density=0.02)

print("generating benchmark datasets (sparse labels, 4x payload ratio)...")
generate_synthetic_dataset(root / "small", seed=11, count=4, height=204,
                           width=204, channels=38, config=cfg)
generate_synthetic_dataset(root / "large", seed=12, count=16, height=204,
                           width=204, channels=38, config=cfg)

print("\n--- sampling throughput -------------------------------------------")
rep = bench_sampling(root / "small" / "manifest.json", batch_size=256,
                     seed=0, duration_seconds=6.0)
print(f"indexed: {rep.indexed_batches_per_sec:7.1f} batches/s "
      f"({rep.indexed_epochs} epochs)")
print(f"naive:   {rep.naive_batches_per_sec:7.1f} batches/s "
      f"({rep.naive_epochs} epochs)")
print(f"speedup: {rep.speedup_ratio:.1f}x; identical per-epoch multisets: "
      f"{rep.multisets_equal}; files untouched: {rep.files_unchanged}")

print("\n--- memory decoupling ---------------------------------------------")
mem = bench_memory(root / "small" / "manifest.json",
                   root / "large" / "manifest.json", batch_size=256)
MiB = 2**20
print(f"payload: small {mem.small_payload_bytes / MiB:.0f} MiB, "
      f"large {mem.large_payload_bytes / MiB:.0f} MiB")
print(f"one-batch footprint: {mem.r_batch_bytes / MiB:.2f} MiB "
      f"(B*C*P*P*4 + B*4 bytes)")
print(f"mmap path peak:  {mem.mmap_peak_small_bytes / MiB:.0f} -> "
      f"{mem.mmap_peak_large_bytes / MiB:.0f} MiB "
      f"(growth {mem.mmap_growth_bytes / MiB:.1f} MiB)")
print(f"full-load peak:  {mem.full_peak_small_bytes / MiB:.0f} -> "
      f"{mem.full_peak_large_bytes / MiB:.0f} MiB "
      f"(growth {mem.full_growth_bytes / MiB:.1f} MiB)")
print(f"decoupled (mmap growth < batch + 64 MiB): {mem.mmap_decoupled}")
print(f"full-load growth covers the added bytes:  {mem.full_load_scales}")

out = root / "memory_report.json"
out.write_text(json.dumps(asdict(mem), indent=2))
print(f"\nfull report: {out}")
