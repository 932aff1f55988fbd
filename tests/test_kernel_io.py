"""Tests for kernel file formats and built-in generators."""

import json

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
