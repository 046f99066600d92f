"""``repro.data`` -- dataset substrate.

Stands in for the MSD Task 1 download plus TensorFlow's input stack:
a seeded synthetic BraTS-like cohort (:mod:`~repro.data.synthetic_brats`),
a minimal NIfTI-1 codec (:mod:`~repro.data.nifti`), TFRecord-style framed
record files (:mod:`~repro.data.records`), a minimal tf.data-style
stream and the seeded epoch shuffle order (:mod:`~repro.data.dataset`),
the paper's pre-processing transforms
(:mod:`~repro.data.preprocess`) and the 70/15/15 split
(:mod:`~repro.data.splits`).
"""

from .augment import (
    Augmenter,
    random_flip,
    random_gaussian_noise,
)
from .dataset import Dataset, shuffle_order
from .nifti import NiftiImage, read_nifti, write_nifti
from .patches import (
    PatchSpec,
    extract_patches,
    patch_grid,
    sample_random_patches,
    stitch_patches,
)
from .preprocess import (
    TrainingExample,
    center_crop,
    crop_to_divisible,
    merge_labels_binary,
    preprocess_subject,
    standardize,
)
from .records import (
    IndexedRecordReader,
    RecordCorruptionError,
    RecordIndexError,
    RecordReader,
    RecordWriter,
    decode_example,
    encode_example,
    index_path_for,
    read_example_file,
    write_example_file,
)
from .splits import PAPER_FRACTIONS, DatasetSplit, split_indices
from .synthetic_brats import (
    CLASS_NAMES,
    MODALITIES,
    PAPER_NUM_SUBJECTS,
    PAPER_VOLUME_SHAPE,
    Subject,
    SyntheticBraTS,
)

__all__ = [
    "Dataset",
    "shuffle_order",
    "NiftiImage",
    "read_nifti",
    "write_nifti",
    "TrainingExample",
    "standardize",
    "center_crop",
    "crop_to_divisible",
    "merge_labels_binary",
    "preprocess_subject",
    "RecordWriter",
    "RecordReader",
    "IndexedRecordReader",
    "RecordCorruptionError",
    "RecordIndexError",
    "index_path_for",
    "encode_example",
    "decode_example",
    "write_example_file",
    "read_example_file",
    "DatasetSplit",
    "split_indices",
    "PAPER_FRACTIONS",
    "Subject",
    "SyntheticBraTS",
    "MODALITIES",
    "CLASS_NAMES",
    "PAPER_VOLUME_SHAPE",
    "PAPER_NUM_SUBJECTS",
    "PatchSpec",
    "patch_grid",
    "extract_patches",
    "stitch_patches",
    "sample_random_patches",
    "Augmenter",
    "random_flip",
    "random_gaussian_noise",
]
