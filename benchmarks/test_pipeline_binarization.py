"""E5 -- Section III-B1: offline binarisation removes the input
bottleneck.

Two parts:

* the profiler comparison on real files (NIfTI decode + transform every
  epoch vs one-off records), printing the stage table the paper read
  off TensorBoard;
* full-shape I/O micro-benchmarks at the paper's exact tensor size
  (4 x 240 x 240 x 155 float32 = 133 MiB per subject) showing record
  read is far cheaper than decode + transform.
"""

import pytest
from conftest import once

from repro.core import profile_online_vs_offline
from repro.data import (
    SyntheticBraTS,
    preprocess_subject,
    read_example_file,
    read_nifti,
    write_example_file,
    write_nifti,
)


def test_online_vs_offline_pipeline(benchmark, tmp_path):
    report = once(
        benchmark, profile_online_vs_offline,
        num_subjects=6, volume_shape=(48, 48, 32), epochs=3,
        workdir=tmp_path,
    )
    print("\n=== Section III-B1: input pipeline bottleneck analysis ===")
    print(report.render())

    assert report.offline_epoch_s < report.online_epoch_s
    assert report.bottleneck() in ("nifti_decode", "transform")
    assert report.epochs_to_amortize < 250  # pays off within one run


@pytest.fixture(scope="module")
def full_shape_subject():
    """One subject at the paper's exact volume size."""
    gen = SyntheticBraTS(num_subjects=1, volume_shape=(240, 240, 155),
                         seed=0, noise_sigma=0.05)
    return gen[0]


def test_full_shape_transform_cost(benchmark, full_shape_subject):
    """The per-subject transform at 240x240x155 -- what online mode pays
    every epoch for every subject."""
    out = benchmark.pedantic(
        preprocess_subject, args=(full_shape_subject,),
        kwargs={"divisor": 8}, rounds=3, iterations=1,
    )
    assert out.image.shape == (4, 240, 240, 152)


def test_full_shape_record_roundtrip(benchmark, full_shape_subject, tmp_path):
    """Offline mode's per-epoch cost: reading the binarised record."""
    ex = preprocess_subject(full_shape_subject, divisor=8)
    path = tmp_path / "one.rec"
    write_example_file(path, [{"image": ex.image, "mask": ex.mask}])

    def read_back():
        (rec,) = read_example_file(path)
        return rec["image"].shape

    shape = benchmark.pedantic(read_back, rounds=3, iterations=1)
    assert shape == (4, 240, 240, 152)


def test_full_shape_nifti_decode(benchmark, full_shape_subject, tmp_path):
    """Online mode's raw ingest: NIfTI decode at full volume size."""
    path = write_nifti(tmp_path / "vol.nii", full_shape_subject.image)

    img = benchmark.pedantic(read_nifti, args=(path,), rounds=3, iterations=1)
    assert img.data.shape == (4, 240, 240, 155)
