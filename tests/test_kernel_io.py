"""Tests for kernel file formats and built-in generators."""

import json
import struct
import tracemalloc

import numpy as np
import pytest

from convnorm import (
    complex_gap_kernel,
    delta_kernel,
    gaussian_kernel,
    read_kernel,
    uniform_kernel,
    write_kernel,
)
from convnorm.kernel_io import KernelFormatError


class TestRoundTrip:
    def test_kten_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(100)
        k = rng.standard_normal((3, 2, 4, 5))
        path = tmp_path / "k.kten"
        write_kernel(path, k)
        back = read_kernel(path)
        assert back.shape == k.shape
        assert np.array_equal(back, k)

    def test_kten_writes_are_deterministic(self, tmp_path):
        k = gaussian_kernel((2, 2, 3, 3), seed=7)
        p1, p2 = tmp_path / "a.kten", tmp_path / "b.kten"
        write_kernel(p1, k)
        write_kernel(p2, k)
        assert p1.read_bytes() == p2.read_bytes()

    def test_json_round_trip(self, tmp_path):
        k = gaussian_kernel((2, 3, 3), seed=1)
        path = tmp_path / "k.json"
        write_kernel(path, k)
        payload = json.loads(path.read_text())
        assert payload["shape"] == [2, 3, 3]
        back = read_kernel(path)
        np.testing.assert_array_equal(back, k)

    def test_kten_read_is_writeable(self, tmp_path):
        k = gaussian_kernel((3, 2, 4, 5), seed=8)
        path = tmp_path / "k.kten"
        write_kernel(path, k)
        back = read_kernel(path)
        assert back.flags.writeable
        assert back.tobytes() == k.tobytes()
        back *= 0.5
        np.testing.assert_array_equal(back, 0.5 * k)

    def test_kten_write_holds_no_copy_of_the_payload(self, tmp_path):
        k = gaussian_kernel((256, 128, 3, 3), seed=9)  # 2.4 MB
        path = tmp_path / "k.kten"
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            write_kernel(path, k)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < k.nbytes / 2
        assert path.stat().st_size == 16 + 8 * k.ndim + k.nbytes

    def test_json_without_extension_is_sniffed(self, tmp_path):
        path = tmp_path / "kernel"
        path.write_text(json.dumps({"shape": [2, 2], "data": [1.0, 2.0, 3.0, 4.0]}))
        np.testing.assert_array_equal(read_kernel(path), [[1.0, 2.0], [3.0, 4.0]])


class TestMalformedFiles:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(KernelFormatError, match="not valid JSON"):
            read_kernel(path)

    def test_truncated_payload(self, tmp_path):
        k = gaussian_kernel((2, 2), seed=0)
        path = tmp_path / "k.kten"
        write_kernel(path, k)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(KernelFormatError, match="payload"):
            read_kernel(path)

    @pytest.mark.parametrize("blob,message", [
        (b"KTEN\x01", "truncated header"),
        (struct.pack("<4sIII", b"KTEN", 2, 1, 1), "unsupported version 2"),
        (struct.pack("<4sIII", b"KTEN", 1, 2, 1), "unsupported dtype tag 2"),
        (struct.pack("<4sIII", b"KTEN", 1, 1, 2) + b"\0" * 8, "truncated dimension list"),
        (struct.pack("<4sIIIQ", b"KTEN", 1, 1, 1, 2) + b"\0" * 8,
         "payload has 8 bytes, expected 16"),
        (struct.pack("<4sIIIQ", b"KTEN", 1, 1, 1, 1) + b"\0" * 16,
         "payload has 16 bytes, expected 8"),
        (b"", "not KTEN and not valid JSON (Expecting value: line 1 column 1 (char 0))"),
        (b"\xff", "not KTEN and not valid JSON ('utf-8' codec can't decode byte 0xff in "
                  "position 0: invalid start byte)"),
    ], ids=["short-header", "version", "dtype", "short-dims", "short-payload", "long-payload",
            "empty", "not-utf-8"])
    def test_malformed_file_message(self, blob, message, tmp_path):
        path = tmp_path / "k.kten"
        path.write_bytes(blob)
        with pytest.raises(KernelFormatError) as exc:
            read_kernel(path)
        assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize("payload,message", [
        ({"shape": [1], "data": [{}]}, "data must be numbers"),
        ({"shape": [2], "data": [[1.0], [1.0, 2.0]]}, "data must be numbers"),
        ({"shape": [-1, -1], "data": [5.0]}, "shape must be a list of positive integers"),
        ({"shape": [2.5, 1], "data": [1.0, 2.0]}, "shape must be a list of positive integers"),
        ({"shape": [True, 1], "data": [1.0]}, "shape must be a list of positive integers"),
        ({"shape": 4, "data": [1.0] * 4}, "shape must be a list of positive integers"),
    ], ids=["object-entry", "ragged-data", "negative-size", "float-size", "bool-size",
            "scalar-shape"])
    def test_malformed_json_kernel(self, payload, message, tmp_path):
        path = tmp_path / "k.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(KernelFormatError, match=message):
            read_kernel(path)

    @pytest.mark.parametrize("text", [
        '{"shape": [1, 1, 1, 1], "data": [NaN]}',
        '{"shape": [2], "data": [1.0, Infinity]}',
        '{"shape": [2], "data": [-Infinity, 1.0]}',
    ], ids=["nan", "infinity", "minus-infinity"])
    def test_non_finite_json_kernel(self, text, tmp_path):
        path = tmp_path / "k.json"
        path.write_text(text)
        with pytest.raises(KernelFormatError, match="non-finite"):
            read_kernel(path)

    def test_non_finite_kten_kernel(self, tmp_path):
        path = tmp_path / "k.kten"
        write_kernel(path, np.ones((2, 2, 1, 1)))
        blob = bytearray(path.read_bytes())
        blob[-8:] = np.array([np.nan], dtype="<f8").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(KernelFormatError, match="non-finite"):
            read_kernel(path)

    def test_json_shape_mismatch(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text(json.dumps({"shape": [2, 2], "data": [1.0]}))
        with pytest.raises(KernelFormatError, match="needs 4"):
            read_kernel(path)


class TestGenerators:
    def test_gaussian_deterministic_per_seed(self):
        a = gaussian_kernel((2, 2, 3, 3), seed=5)
        b = gaussian_kernel((2, 2, 3, 3), seed=5)
        c = gaussian_kernel((2, 2, 3, 3), seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_uniform_range(self):
        k = uniform_kernel((4, 4, 5, 5), seed=2)
        assert np.all(k >= -1.0) and np.all(k < 1.0)

    def test_delta_center_tap(self):
        k = delta_kernel((1, 1, 3, 3))
        expected = np.zeros((1, 1, 3, 3))
        expected[0, 0, 1, 1] = 1.0
        np.testing.assert_array_equal(k, expected)

    def test_delta_requires_square_channels(self):
        with pytest.raises(ValueError, match="c_out == c_in"):
            delta_kernel((2, 3, 3, 3))

    def test_gap_kernel_display(self):
        k = complex_gap_kernel()
        display = [[2, 0, 0, -2, 0, -2, -2, 0], [0, -2, -2, 0, -2, 0, 0, 2]]
        np.testing.assert_array_equal(k.reshape(2, 8), display)
