"""Edge-case coverage for the data substrate."""

import threading

import numpy as np
import pytest

from repro.data import (
    Dataset,
    NiftiImage,
    RecordReader,
    RecordWriter,
    read_nifti,
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
        ds = Dataset.from_list([])
        assert ds.to_list() == []
        assert ds.batch(3).to_list() == []
        assert ds.shuffle(4, seed=0).to_list() == []
        assert ds.map(lambda x: x).count() == 0
        assert ds.repeat(3).to_list() == []

    def test_repeat_none_of_empty_terminates(self):
        assert Dataset.from_list([]).repeat(None).take(5).to_list() == []

    def test_take_more_than_available(self):
        assert Dataset.range(3).take(10).to_list() == [0, 1, 2]

    def test_skip_more_than_available(self):
        assert Dataset.range(3).skip(10).to_list() == []

    def test_cache_concurrent_consumers(self):
        calls = []

        def expensive(x):
            calls.append(x)
            return x

        ds = Dataset.range(10).map(expensive).cache()
        results = [None, None]

        def consume(i):
            results[i] = ds.to_list()

        threads = [threading.Thread(target=consume, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results[0] == results[1] == list(range(10))
        # lock serialises the fill: elements computed at most twice
        assert len(calls) <= 20

    def test_map_exception_propagates(self):
        def boom(x):
            raise ValueError("bad")

        with pytest.raises(ValueError):
            Dataset.range(3).map(boom).to_list()

    def test_interleave_empty_outer(self):
        assert Dataset.from_list([]).interleave(lambda x: [x]).to_list() == []

    def test_batch_dict_elements(self):
        items = [{"a": np.ones(2) * i, "b": np.zeros(1)} for i in range(4)]
        (b1, b2) = Dataset.from_list(items).batch(2).to_list()
        assert b1["a"].shape == (2, 2)
        back = Dataset.from_list([b1, b2]).unbatch().to_list()
        assert len(back) == 4
        np.testing.assert_array_equal(back[3]["a"], items[3]["a"])
