"""Edge-case coverage for the data substrate."""

import numpy as np
import pytest

from repro.data import (
    Dataset,
    NiftiImage,
    RecordReader,
    RecordWriter,
    read_nifti,
    shuffle_order,
    write_nifti,
)


class TestNiftiEdges:
    def test_1d_volume(self, tmp_path):
        arr = np.arange(7, dtype=np.float32)
        p = write_nifti(tmp_path / "v.nii", arr)
        np.testing.assert_array_equal(read_nifti(p).data, arr)

    def test_7d_volume(self, tmp_path):
        arr = np.zeros((2, 1, 2, 1, 2, 1, 2), dtype=np.uint8)
        p = write_nifti(tmp_path / "v.nii", arr)
        assert read_nifti(p).data.shape == arr.shape

    def test_long_description_truncated_to_80(self, tmp_path):
        p = write_nifti(tmp_path / "v.nii", np.zeros((2, 2, 2), np.int16),
                        description="x" * 200)
        assert len(read_nifti(p).description) <= 80

    def test_gzip_description_roundtrip(self, tmp_path):
        img = NiftiImage(np.zeros((2, 2, 2), np.float32),
                         description="gz test")
        p = write_nifti(tmp_path / "v.nii.gz", img)
        assert read_nifti(p).description == "gz test"

    def test_ni1_magic_accepted(self, tmp_path):
        p = write_nifti(tmp_path / "v.nii", np.ones((2, 2, 2), np.float32))
        blob = bytearray(open(p, "rb").read())
        blob[344:348] = b"ni1\x00"  # two-file variant magic
        p2 = tmp_path / "v2.nii"
        p2.write_bytes(bytes(blob))
        np.testing.assert_array_equal(read_nifti(p2).data,
                                      np.ones((2, 2, 2), np.float32))


class TestRecordEdges:
    def test_large_record(self, tmp_path):
        p = tmp_path / "big.rec"
        payload = bytes(range(256)) * 4096  # 1 MiB
        with RecordWriter(p) as w:
            w.write(payload)
        assert next(iter(RecordReader(p))) == payload

    def test_many_small_records(self, tmp_path):
        p = tmp_path / "many.rec"
        with RecordWriter(p) as w:
            for i in range(1000):
                w.write(bytes([i % 256]))
        assert RecordReader(p).count() == 1000

    def test_context_manager_closes_on_error(self, tmp_path):
        p = tmp_path / "x.rec"
        with pytest.raises(RuntimeError):
            with RecordWriter(p) as w:
                w.write(b"ok")
                raise RuntimeError("interrupted")
        # File is closed and the completed record is readable.
        assert list(RecordReader(p)) == [b"ok"]


class TestDatasetEdges:
    def test_empty_dataset_everything(self):
        ds = Dataset.from_generator(lambda: [])
        assert list(ds) == []
        assert shuffle_order(0, 4, seed=0).tolist() == []
