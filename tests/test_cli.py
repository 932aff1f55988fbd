"""Tests for the command-line interface: outputs, determinism, exit codes."""

import json

import numpy as np
import pytest

from convnorm import complex_gap_kernel, read_kernel, write_kernel
from convnorm.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_UNDEFINED, EXIT_USAGE, main


@pytest.fixture
def gap_kernel_path(tmp_path):
    path = tmp_path / "gap.kten"
    write_kernel(path, complex_gap_kernel())
    return str(path)


@pytest.fixture
def random_kernel_path(tmp_path):
    # seed 61: clean spectral gaps at n=8, so reference iterations converge
    path = tmp_path / "rand.kten"
    write_kernel(path, np.random.default_rng(61).standard_normal((2, 2, 3, 3)))
    return str(path)


class TestGen:
    def test_gaussian_is_byte_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.kten", tmp_path / "b.kten"
        assert main(["gen", "2", "2", "3", "3", "--seed", "7", "--out", str(a)]) == EXIT_OK
        assert main(["gen", "2", "2", "3", "3", "--seed", "7", "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        capsys.readouterr()

    def test_builtin_gap_tensor(self, tmp_path, capsys):
        out = tmp_path / "gap.kten"
        assert main(["gen", "--dist", "appendix-b", "--out", str(out)]) == EXIT_OK
        k = read_kernel(out)
        display = [[2, 0, 0, -2, 0, -2, -2, 0], [0, -2, -2, 0, -2, 0, 0, 2]]
        np.testing.assert_array_equal(k.reshape(2, 8), display)
        capsys.readouterr()

    def test_delta_center_tap(self, tmp_path, capsys):
        out = tmp_path / "d.kten"
        assert main(["gen", "1", "1", "3", "3", "--dist", "delta", "--out", str(out)]) == EXIT_OK
        k = read_kernel(out)
        assert k[0, 0, 1, 1] == 1.0 and k.sum() == 1.0
        capsys.readouterr()

    def test_missing_shape_is_usage_error(self, tmp_path, capsys):
        code = main(["gen", "--dist", "gaussian", "--out", str(tmp_path / "x.kten")])
        assert code == EXIT_USAGE
        capsys.readouterr()


class TestBound:
    def test_gap_kernel_values(self, gap_kernel_path, capsys):
        assert main(["bound", gap_kernel_path, "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["lower_sigma"] - 4.0) < 1e-7
        assert abs(payload["tn_upper"] - 8.0) < 1e-6
        assert abs(payload["f4_upper"] - 8.0) < 1e-8

    def test_pointwise_kernel_bounds_coincide(self, tmp_path, capsys):
        path = tmp_path / "p.kten"
        write_kernel(path, np.random.default_rng(3).standard_normal((3, 3, 1, 1)))
        assert main(["bound", str(path), "--json", "--iters", "2000"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["lower_sigma"] == payload["tn_upper"]
        assert abs(payload["f4_upper"] - payload["tn_upper"]) < 1e-8

    def test_json_stdout_is_byte_stable(self, random_kernel_path, capsys):
        args = ["bound", random_kernel_path, "--json", "--seed", "3", "--oracle", "8"]
        assert main(args) == EXIT_OK
        first = capsys.readouterr().out
        assert main(args) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_oracle_ratio_reported(self, random_kernel_path, capsys):
        assert main(["bound", random_kernel_path, "--oracle", "8"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "TN / oracle" in out

    def test_missing_file_is_io_error(self, capsys):
        assert main(["bound", "/nonexistent/k.kten"]) == EXIT_IO
        capsys.readouterr()

    def test_malformed_file_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "junk.kten"
        path.write_bytes(b"KTEN" + b"\x01" * 10)
        assert main(["bound", str(path)]) == EXIT_IO
        capsys.readouterr()

    def test_non_finite_kernel_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"shape": [1, 1, 1, 1], "data": [NaN]}')
        assert main(["bound", str(path)]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"convnorm: I/O error: {path}: kernel contains non-finite entries\n"

    def test_stride_on_non4d_kernel_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "k1d.kten"
        write_kernel(path, np.random.default_rng(1).standard_normal((2, 2, 3)))
        assert main(["bound", str(path), "--stride", "2"]) == EXIT_USAGE
        capsys.readouterr()


class TestTable:
    def test_csv_is_byte_stable_and_has_fixed_columns(self, capsys):
        args = [
            "table", "--shape", "3,3,3,3", "--shape", "2,2,2,2",
            "--oracle", "8", "--seeds", "2", "--seed", "11", "--csv",
        ]
        assert main(args) == EXIT_OK
        first = capsys.readouterr().out
        assert main(args) == EXIT_OK
        second = capsys.readouterr().out
        assert first == second
        header = first.splitlines()[0]
        assert header == (
            "shape,stride,padding,n,lower,tn,f4,oracle,ratio_tn,ratio_f4,"
            "time_tn_ms,time_f4_ms,time_oracle_ms"
        )
        assert len(first.splitlines()) == 3

    def test_empty_spec_is_usage_error(self, capsys):
        assert main(["table"]) == EXIT_USAGE
        capsys.readouterr()

    def test_row_failure_reported_run_continues(self, capsys):
        args = [
            "table", "--shape", "2,2,3,3", "--shape", "2,2,9,9",
            "--padding", "circular", "--oracle", "4", "--csv",
        ]
        assert main(args) == EXIT_OK
        captured = capsys.readouterr()
        assert "failed" in captured.err
        assert len(captured.out.splitlines()) == 2  # header + surviving row

    @pytest.mark.parametrize("flag,value", [
        ("--seeds", "0"), ("--restarts", "0"), ("--iters", "0"), ("--tol", "-1e-3"),
        ("--oracle-iters", "0"), ("--strides", "0"), ("--oracle", "0"),
    ])
    def test_bad_run_option_rejected_before_any_row(self, flag, value, capsys):
        args = ["table", "--shape", "2,2,3,3", "--oracle", "8", "--csv", f"{flag}={value}"]
        assert main(args) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"convnorm: error: {flag} must be >= ")

    @pytest.mark.parametrize("source", ["strides", "spec"])
    def test_stride_not_dividing_oracle_rejected_before_any_row(self, source, tmp_path, capsys):
        if source == "spec":
            path = tmp_path / "spec.json"
            path.write_text(json.dumps([{"shape": [2, 2, 3, 3]}, {"shape": [2, 2, 3, 3], "stride": 3}]))
            rows = ["--spec", str(path)]
        else:
            rows = ["--shape", "2,2,3,3", "--strides", "1,3"]
        assert main(["table", *rows, "--oracle", "8", "--csv"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "convnorm: error: stride 3 must divide input_size 8\n"

    def test_oracle_iters_unchecked_without_oracle(self, capsys):
        assert main(["table", "--shape", "2,2,3,3", "--oracle-iters", "0"]) == EXIT_OK
        capsys.readouterr()

    @pytest.mark.parametrize("spec", [
        {"shape": [2, 2, 3, 3]},
        [3],
        [{"stride": 1}],
        [{"shape": "2233"}],
        [{"shape": [2, 0, 3, 3]}],
        [{"shape": [2, 2.5, 3, 3]}],
        [{"shape": [2, 2, 3, 3], "stride": [1]}],
        [{"shape": [2, 2, 3, 3], "stride": 0}],
    ], ids=["object", "number-entry", "no-shape", "string-shape", "zero-size",
            "float-size", "list-stride", "zero-stride"])
    def test_malformed_spec_is_usage_error(self, spec, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["table", "--spec", str(path), "--csv"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"convnorm: error: --spec {path}")

    def test_spec_rows_run_in_order(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps([{"shape": [2, 2, 3, 3], "stride": 2},
                                    {"shape": [2, 2, 1, 1]}]))
        assert main(["table", "--spec", str(path), "--csv"]) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [r.split(",")[:2] for r in rows] == [["2x2x3x3", "2"], ["2x2x1x1", "1"]]

    def test_human_table_lists_rows(self, capsys):
        assert main(["table", "--shape", "2,2,3,3", "--strides", "1,2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 3

    def test_csv_output_is_byte_stable(self, capsys):
        args = ["table", "--shape", "2,2,3,3", "--strides", "1,2", "--csv", "--seed", "4"]
        assert main(args) == EXIT_OK
        first = capsys.readouterr().out
        assert main(args) == EXIT_OK
        assert capsys.readouterr().out == first
        strides = [line.split(",")[1] for line in first.splitlines()[1:]]
        assert strides == ["1", "2"]  # one row per stride, in row order

    @pytest.mark.parametrize("stride", ["1", "2"])
    def test_row_zero_matches_bound_on_the_generated_kernel(self, stride, tmp_path, capsys):
        path = str(tmp_path / "k.kten")
        assert main(["gen", "8", "8", "3", "3", "--seed", "5", "--out", path]) == EXIT_OK
        bound_args = ["bound", path, "--stride", stride, "--seed", "5", "--oracle", "16", "--json"]
        capsys.readouterr()
        assert main(bound_args) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        table_args = ["table", "--shape", "8,8,3,3", "--strides", stride, "--seed", "5",
                      "--oracle", "16", "--csv"]
        assert main(table_args) == EXIT_OK
        row = capsys.readouterr().out.splitlines()[1].split(",")
        expected = [payload[key] for key in ("lower_sigma", "tn_upper", "f4_upper", "oracle_norm")]
        assert row[4:8] == [format(value, ".12g") for value in expected]


class TestGradcheck:
    @pytest.mark.parametrize("which", ["tn", "ocnn", "ratio", "2norm"])
    def test_passes_on_random_kernel(self, which, random_kernel_path, capsys):
        code = main(["gradcheck", random_kernel_path, "--which", which])
        out = capsys.readouterr().out
        assert code == EXIT_OK, out
        assert "PASS" in out

    def test_ratio_reports_orthogonality(self, random_kernel_path, capsys):
        assert main(["gradcheck", random_kernel_path, "--which", "ratio"]) == EXIT_OK
        assert "<grad, K>" in capsys.readouterr().out

    def test_undefined_point_exit_code(self, tmp_path, capsys):
        path = tmp_path / "zero.kten"
        write_kernel(path, np.zeros((2, 2, 3, 3)))
        code = main(["gradcheck", str(path), "--which", "ratio"])
        assert code == EXIT_UNDEFINED
        assert "undefined" in capsys.readouterr().out

    def test_impossible_threshold_fails_with_numeric_exit(self, random_kernel_path, capsys):
        code = main(["gradcheck", random_kernel_path, "--which", "tn", "--threshold", "1e-18"])
        assert code == EXIT_NUMERIC
        assert "FAIL" in capsys.readouterr().out


class TestOracle:
    def test_gap_kernel_circular_exact(self, gap_kernel_path, capsys):
        code = main([
            "oracle", gap_kernel_path, "--n", "4",
            "--padding", "circular", "--method", "circular-exact",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert abs(float(out.split(":")[-1]) - 8.0) < 1e-8

    def test_delta_kernel_every_method(self, tmp_path, capsys):
        path = tmp_path / "d.kten"
        write_kernel(path, np.eye(1).reshape(1, 1, 1, 1))
        for extra in (
            ["--method", "power"],
            ["--method", "dense"],
            ["--method", "circular-exact", "--padding", "circular"],
        ):
            assert main(["oracle", str(path), "--n", "6"] + extra) == EXIT_OK
            out = capsys.readouterr().out
            assert abs(float(out.splitlines()[0].split(":")[-1]) - 1.0) < 1e-10

    def test_power_and_dense_agree(self, random_kernel_path, capsys):
        values = []
        for method in ("power", "dense"):
            assert main([
                "oracle", random_kernel_path, "--n", "8", "--method", method,
                "--iters", "3000", "--tol", "1e-14",
            ]) == EXIT_OK
            out = capsys.readouterr().out
            values.append(float(out.splitlines()[0].split(":")[-1]))
        assert abs(values[0] - values[1]) < 1e-8 * values[1]

    def test_circular_exact_requires_circular_stride1(self, gap_kernel_path, capsys):
        code = main(["oracle", gap_kernel_path, "--n", "4", "--method", "circular-exact"])
        assert code == EXIT_USAGE
        capsys.readouterr()


class TestBench:
    def test_minimal_run(self, capsys):
        code = main([
            "bench", "--shape", "2,2,3,3", "--ns", "4,8", "--repeat", "1",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert len(out.splitlines()) == 3

    @pytest.mark.parametrize("flag,value", [
        ("--repeat", "0"), ("--ns", ""), ("--ns", ","), ("--ns", "0,8"),
    ])
    def test_bad_option_rejected_before_any_timing(self, flag, value, capsys):
        args = ["bench", "--shape", "2,2,3,3", "--ns", "4,8", "--repeat", "1", f"{flag}={value}"]
        assert main(args) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"convnorm: error: {flag} must ")


class TestUsage:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "convnorm" in capsys.readouterr().out
