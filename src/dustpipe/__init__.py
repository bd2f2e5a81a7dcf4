"""Desk-scale multispectral dust-detection pipeline.

Binary granule containers, deterministic preprocessing, a memory-mapped
patch-center index with precomputed-index sampling, a from-scratch 3D CNN
trained with weighted MSE, full-scene detection maps, and benchmarks for
the memory-decoupling and sampling-throughput claims.
"""

from .errors import (
    BadMagicError,
    DustpipeError,
    EmptyDatasetError,
    FormatError,
    IndexMismatchError,
    ShapeMismatchError,
    TrainingDivergedError,
    TruncatedFileError,
)
from .granule_io import (
    DatasetManifest,
    Granule,
    LabelMap,
    ManifestEntry,
    SyntheticConfig,
    generate_synthetic_dataset,
    normalize_label_values,
    read_granule,
    read_labels,
    write_granule,
    write_labels,
)
from .inference import (
    DetectionMap,
    infer_scene,
    read_map,
    score_map,
    write_map,
    write_pgm,
)
from .model3d import (
    ModelConfig,
    ModelParams,
    backward,
    describe_checkpoint,
    forward,
    init_params,
    load_checkpoint,
    predict,
    save_checkpoint,
    shape_ledger,
)
from .patch_index import (
    GranuleStore,
    PatchIndex,
    batch_footprint_bytes,
    build_index,
    iter_batches,
    naive_sample_batches,
    read_index,
    sample_batches,
    shuffle_partitions,
    valid_centers,
    validate_index,
    write_index,
)
from .preprocess import (
    PreprocessConfig,
    impute_granule,
    normalize_bands,
    preprocess_dataset,
    preprocess_pipeline,
)
from .training import (
    LossConfig,
    PlateauScheduler,
    TrainConfig,
    adam_init,
    adam_step,
    compute_metrics,
    evaluate,
    train,
    wmse_loss,
)

__version__ = "0.1.0"
