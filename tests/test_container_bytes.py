"""Every container writer's bytes, pinned to the layout table of the README's
"File formats" section.

Each writer gets a fixed input that draws no random numbers, and its file
must equal the bytes assembled here with ``struct`` from that table: the
magic, the little-endian header fields, then the float32 (or u32) payload.
"""

import math
import struct

import numpy as np

from dustpipe.granule_io import Granule, LabelMap, write_granule, write_labels
from dustpipe.inference import DetectionMap, write_map
from dustpipe.model3d import ModelConfig, ModelParams, param_shapes, save_checkpoint
from dustpipe.patch_index import PatchIndex, write_index


def f32(values) -> bytes:
    """``values`` (row-major) as little-endian float32, packed one by one."""
    flat = np.asarray(values, dtype=np.float64).ravel().tolist()
    return struct.pack(f"<{len(flat)}f", *flat)


# an H x W grid with every value distinct, a negative, a float32 fraction and a NaN
GRID = np.arange(12, dtype=np.float32).reshape(3, 4) / 8 - 0.5
GRID[1, 2] = np.nan


def test_granule_layout(tmp_path):
    data = np.stack([GRID, GRID * 3, GRID + 7])  # C = 3 planes of H x W = 3 x 4
    path = tmp_path / "g.dgr"
    write_granule(Granule(data), path)
    assert path.read_bytes() == b"DGR1" + struct.pack("<III", 3, 4, 3) + f32(data)


def test_labels_layout(tmp_path):
    path = tmp_path / "l.dlb"
    write_labels(LabelMap(GRID), path)
    assert path.read_bytes() == b"DLB1" + struct.pack("<II", 3, 4) + f32(GRID)


def test_map_layout(tmp_path):
    path = tmp_path / "m.dmp"
    write_map(DetectionMap(GRID), path)
    assert path.read_bytes() == b"DMP1" + struct.pack("<II", 3, 4) + f32(GRID)


def test_index_layout(tmp_path):
    triplets = np.array([[0, 2, 3], [0, 2, 4], [1, 5, 2**32 - 1]], dtype=np.int64)
    path = tmp_path / "c.dix"
    write_index(PatchIndex(triplets, 5), path)
    expected = b"DIX1" + struct.pack("<IQ", 5, 3)
    for f, y, x in triplets.tolist():
        expected += struct.pack("<III", f, y, x)
    assert path.read_bytes() == expected


def test_checkpoint_layout(tmp_path):
    # the five meta.* records, then the tensors in param_shapes order, then the extras
    config = ModelConfig(filters=(2, 3, 4), in_depth=6, patch_size=3)
    tensors = {name: np.arange(math.prod(shape), dtype=np.float32).reshape(shape) / 4 - 1
               for name, shape in param_shapes(config).items()}
    extra = {"opt.step": np.float32(3), "opt.m.fc.weight": np.full((1, 4), 0.125, np.float32)}
    path = tmp_path / "m.dck"
    save_checkpoint(path, ModelParams(config, tensors), extra=extra)

    records = [("meta.filters", (3,), [2, 3, 4]), ("meta.in_depth", (), [6]),
               ("meta.patch_size", (), [3]), ("meta.bn_eps", (), [1e-5]),
               ("meta.bn_momentum", (), [0.1])]
    records += [(name, arr.shape, arr) for name, arr in tensors.items()]
    records += [(name, np.shape(arr), arr) for name, arr in extra.items()]
    expected = b"DCK1" + struct.pack("<I", len(records))
    for name, dims, values in records:
        enc = name.encode("ascii")
        expected += (struct.pack(f"<H{len(enc)}sB{len(dims)}I", len(enc), enc, len(dims), *dims)
                     + f32(values))
    assert path.read_bytes() == expected
