"""Subprocess entry point for peak-RSS probes.

Streams one epoch over a manifest (mmap or full-load path) and prints this
process's own resource accounting as JSON.  Run in a fresh interpreter per
measurement because ru_maxrss is a process-lifetime high-water mark.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys

from .granule_io import DatasetManifest
from .patch_index import GranuleStore, build_index, sample_batches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dustpipe-memprobe")
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--mode", choices=["mmap", "full"], required=True)
    parser.add_argument("--batch", type=int, required=True)
    parser.add_argument("--patch-size", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    manifest = DatasetManifest.load(args.manifest)
    store = GranuleStore(manifest, use_mmap=(args.mode == "mmap"),
                         release_after_gather=(args.mode == "mmap"))
    index = build_index(manifest, args.patch_size)
    touched = 0.0
    batches = 0
    samples = 0
    for batch in sample_batches(index, store, args.batch, args.seed, partitions=1):
        touched += float(batch.inputs.ravel()[0])
        batches += 1
        samples += len(batch.targets)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump({
        "peak_bytes": int(peak_kib) * 1024,
        "payload_bytes": store.payload_bytes,
        "batches": batches,
        "samples": samples,
        "touched": touched,
    }, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
