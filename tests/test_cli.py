"""Tests for the command-line interface: outputs, determinism, exit codes."""

import json

import numpy as np
import pytest

from convnorm import complex_gap_kernel, read_kernel, write_kernel
import convnorm.cli
from convnorm import ConvConfig, build_dense_jacobian
from convnorm.cli import (
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_UNDEFINED,
    EXIT_USAGE,
    dense_jacobian_norm,
    main,
)


def _rejected_at_parse(argv, monkeypatch, capsys) -> str:
    """Run ``argv`` and assert that the parser stops it: exit 1, no stdout,
    and no kernel read, generated or written and no bound solved.  Returns
    stderr."""
    touched = []
    for name in ("read_kernel", "write_kernel", "gaussian_kernel", "make_bound_report"):
        monkeypatch.setattr(convnorm.cli, name, lambda *a, name=name, **k: touched.append(name))
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == EXIT_USAGE
    assert captured.out == ""
    assert touched == []
    return captured.err


# What every command runs on besides the flag under test; "KERNEL" is a kernel path.
_BASE_ARGV = {
    "gen": ["--out", "unused.kten"],
    "bound": ["KERNEL"],
    "table": ["--shape", "2,2,3,3"],
    "gradcheck": ["KERNEL"],
    "oracle": ["KERNEL", "--n", "8"],
    "bench": ["--shape", "2,2,3,3", "--ns", "4", "--repeat", "1"],
}

# (command, bad arguments, flag named in the message): every numeric flag of
# every command once; --threshold also with NaN, a --shape list that is not
# integers, --shape lists without a spatial axis or with a zero size on one,
# and --spec beside --shape.
# The per-command tests below add more values of some flags.
BAD_FLAG_VALUES = [
    ("gen", ["2", "0", "3", "3"], "shape"),
    ("gen", ["--seed=-1"], "--seed"),
    ("bound", ["--stride=0"], "--stride"),
    ("bound", ["--restarts=0"], "--restarts"),
    ("bound", ["--iters=0"], "--iters"),
    ("bound", ["--tol=nan"], "--tol"),
    ("bound", ["--seed=-1"], "--seed"),
    ("bound", ["--oracle=0"], "--oracle"),
    ("bound", ["--oracle-iters=0"], "--oracle-iters"),
    ("table", ["--shape=2,0,3,3"], "--shape"),
    ("table", ["--shape=2,2,3.5,3"], "--shape"),
    ("table", ["--shape=2,2"], "--shape"),
    ("table", ["--shape=2,2,3,0,3"], "--shape"),
    ("table", ["--spec=rows.json"], "--spec"),
    ("table", ["--strides=0"], "--strides"),
    ("table", ["--seeds=0"], "--seeds"),
    ("table", ["--restarts=0"], "--restarts"),
    ("table", ["--iters=0"], "--iters"),
    ("table", ["--tol=nan"], "--tol"),
    ("table", ["--seed=-1"], "--seed"),
    ("table", ["--oracle=0"], "--oracle"),
    ("table", ["--oracle-iters=0"], "--oracle-iters"),
    ("gradcheck", ["--step=0"], "--step"),
    ("gradcheck", ["--threshold=nan"], "--threshold"),
    ("gradcheck", ["--threshold=-1"], "--threshold"),
    ("gradcheck", ["--seed=-1"], "--seed"),
    ("gradcheck", ["--restarts=0"], "--restarts"),
    ("gradcheck", ["--iters=0"], "--iters"),
    ("gradcheck", ["--tol=-1"], "--tol"),
    ("oracle", ["--n=0"], "--n"),
    ("oracle", ["--stride=0"], "--stride"),
    ("oracle", ["--iters=0"], "--iters"),
    ("oracle", ["--tol=nan"], "--tol"),
    ("oracle", ["--seed=-1"], "--seed"),
    ("bench", ["--shape=2,0,3,3"], "--shape"),
    ("bench", ["--shape=2,2"], "--shape"),
    ("bench", ["--ns=0,8"], "--ns"),
    ("bench", ["--repeat=0"], "--repeat"),
    ("bench", ["--seed=-1"], "--seed"),
]


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

    @pytest.mark.parametrize("args, shape", [
        (["4", "4"], "(4, 4)"),
        (["4", "--dist", "uniform"], "(4,)"),
        (["4", "4", "--dist", "delta"], "(4, 4)"),
    ], ids=["gaussian", "uniform", "delta"])
    def test_shape_without_spatial_axis_is_usage_error(self, args, shape, tmp_path, capsys):
        out = tmp_path / "k.kten"
        assert main(["gen", *args, "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"convnorm: error: expected a kernel with at least one spatial axis, got shape {shape}\n")

    def test_appendix_b_takes_no_shape(self, tmp_path, capsys):
        out = tmp_path / "k.kten"
        argv = ["gen", "3", "3", "3", "3", "--dist", "appendix-b", "--out", str(out)]
        assert main(argv) == EXIT_USAGE
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "convnorm: error: --dist appendix-b takes no shape: its kernel is 2x2x2x2\n")


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

    def test_zero_oracle_has_no_ratios(self, tmp_path, capsys):
        path = str(tmp_path / "zero.kten")
        write_kernel(path, np.zeros((2, 2, 3, 3)))
        assert main(["bound", path, "--oracle", "8"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "oracle ||T||2: 0  (n=8)"
        assert "/ oracle" not in out
        assert main(["bound", path, "--oracle", "8", "--json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["ratios"] == {}

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

    @pytest.mark.parametrize("extra,message", [
        (["--stride", "3"], "stride 3 must divide input_size 8"),
        (["--padding", "circular", "--oracle", "2"],
         "circular padding needs input_size >= max kernel size (3), got 2"),
    ])
    def test_bad_oracle_setup_rejected_before_any_bound(
            self, extra, message, random_kernel_path, monkeypatch, capsys):
        solved = []
        monkeypatch.setattr(convnorm.cli, "make_bound_report",
                            lambda *args, **kwargs: solved.append(args))
        assert main(["bound", random_kernel_path, "--oracle", "8", *extra]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert solved == []
        assert captured.out == ""
        assert captured.err == f"convnorm: error: {message}\n"

    @pytest.mark.parametrize("tol", ["nan", "-1e-3"])
    def test_bad_tol_rejected_before_any_bound(self, tol, random_kernel_path, monkeypatch, capsys):
        err = _rejected_at_parse(["bound", random_kernel_path, f"--tol={tol}"], monkeypatch, capsys)
        assert err.endswith(
            f"convnorm bound: error: argument --tol: must be >= 0, got {float(tol)}\n")

    @pytest.mark.parametrize("extra", [[], ["--stride", "2"], ["--oracle", "8"]],
                             ids=["plain", "stride-2", "oracle-8"])
    def test_three_axis_kernel_is_bounded(self, extra, tmp_path, capsys):
        path = str(tmp_path / "k1d.kten")
        assert main(["gen", "8", "8", "3", "--out", path]) == EXIT_OK
        capsys.readouterr()
        assert main(["bound", path, "--json", *extra]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["kernel_shape"] == [8, 8, 3]
        assert payload["lower_sigma"] <= payload["tn_upper"] <= payload["f4_upper"]
        if extra == ["--oracle", "8"]:
            assert payload["oracle_norm"] <= payload["tn_upper"]

    def test_kernel_without_spatial_axis_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "k0d.kten"
        write_kernel(path, np.random.default_rng(1).standard_normal((2, 2)))
        assert main(["bound", str(path), "--stride", "2"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "convnorm: error: expected a kernel with at least one spatial axis, got shape (2, 2)\n")


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

    def test_row_failure_reported_run_continues(self, monkeypatch, capsys):
        solve = convnorm.cli.make_bound_report

        def failing_on_2x2x2x2(kernel, *args, **kwargs):
            if kernel.shape == (2, 2, 2, 2):
                raise ValueError("no solve")
            return solve(kernel, *args, **kwargs)

        monkeypatch.setattr(convnorm.cli, "make_bound_report", failing_on_2x2x2x2)
        args = ["table", "--shape", "2,2,2,2", "--shape", "2,2,3,3", "--csv"]
        assert main(args) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == "row 2x2x2x2 stride 1 failed: no solve\n"
        assert [r.split(",")[0] for r in captured.out.splitlines()[1:]] == ["2x2x3x3"]

    @pytest.mark.parametrize("rows", [
        ["--spec=rows.json", "--strides=2"],
        ["--strides=2", "--spec=rows.json"],
    ], ids=["spec-first", "strides-first"])
    def test_spec_excludes_strides(self, rows, monkeypatch, capsys):
        err = _rejected_at_parse(["table", *rows, "--csv"], monkeypatch, capsys)
        assert err.endswith("convnorm table: error: argument --spec: "
                            "not allowed with argument --shape or --strides\n")

    @pytest.mark.parametrize("flag,value", [
        ("--seeds", "0"), ("--restarts", "0"), ("--iters", "0"), ("--tol", "-1e-3"), ("--tol", "nan"),
        ("--oracle-iters", "0"), ("--strides", "0"), ("--oracle", "0"),
    ])
    def test_bad_run_option_rejected_before_any_row(self, flag, value, monkeypatch, capsys):
        args = ["table", "--shape", "2,2,3,3", "--oracle", "8", "--csv", f"{flag}={value}"]
        err = _rejected_at_parse(args, monkeypatch, capsys)
        assert f"convnorm table: error: argument {flag}: " in err

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

    def test_circular_oracle_below_kernel_size_rejected_before_any_row(self, monkeypatch, capsys):
        solved = []
        monkeypatch.setattr(convnorm.cli, "make_bound_report",
                            lambda *args, **kwargs: solved.append(args))
        args = ["table", "--shape", "4,4,3,3", "--padding", "circular", "--oracle", "2", "--csv"]
        assert main(args) == EXIT_USAGE
        captured = capsys.readouterr()
        assert solved == []
        assert captured.out == ""
        assert captured.err == (
            "convnorm: error: circular padding needs input_size >= max kernel size (3), got 2\n")

    def test_oracle_iters_checked_without_oracle(self, monkeypatch, capsys):
        err = _rejected_at_parse(["table", "--shape", "2,2,3,3", "--oracle-iters", "0"],
                                 monkeypatch, capsys)
        assert "argument --oracle-iters: must be >= 1, got 0" in err

    @pytest.mark.parametrize("spec", [
        {"shape": [2, 2, 3, 3]},
        [3],
        [{"stride": 1}],
        [{"shape": "2233"}],
        [{"shape": [2, 0, 3, 3]}],
        [{"shape": [2, 2.5, 3, 3]}],
        [{"shape": [2, 2, 3, 3], "stride": [1]}],
        [{"shape": [2, 2, 3, 3], "stride": 0}],
        [{"shape": [2, 2, 3, 3]}, {"shape": [2, 2]}],
    ], ids=["object", "number-entry", "no-shape", "string-shape", "zero-size",
            "float-size", "list-stride", "zero-stride", "no-spatial-axis"])
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
                                    {"shape": [2, 2, 1, 1]}, {"shape": [2, 2, 3], "stride": 2}]))
        assert main(["table", "--spec", str(path), "--csv"]) == EXIT_OK
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [r.split(",")[:2] for r in rows] == [
            ["2x2x3x3", "2"], ["2x2x1x1", "1"], ["2x2x3", "2"]]

    def test_rows_of_any_spatial_rank(self, capsys):
        args = ["table", "--shape", "4,4,3", "--shape", "2,2,3,3,3", "--oracle", "8", "--csv"]
        assert main(args) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = [r.split(",") for r in captured.out.splitlines()[1:]]
        assert [r[0] for r in rows] == ["4x4x3", "2x2x3x3x3"]
        for r in rows:
            lower, tn, f4, oracle = (float(x) for x in r[4:8])
            assert lower <= oracle <= tn <= f4

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

    @pytest.mark.parametrize("which", ["tn", "ratio", "ocnn", "2norm"])
    def test_passes_on_three_axis_kernel(self, which, tmp_path, capsys):
        path = str(tmp_path / "k1d.kten")
        assert main(["gen", "4", "4", "3", "--out", path]) == EXIT_OK
        capsys.readouterr()
        code = main(["gradcheck", path, "--which", which])
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

    @pytest.mark.parametrize("step", ["0", "-1e-5", "nan", "inf"])
    def test_bad_step_rejected_before_any_solve(self, step, random_kernel_path, monkeypatch, capsys):
        err = _rejected_at_parse(["gradcheck", random_kernel_path, f"--step={step}"],
                                 monkeypatch, capsys)
        assert err.endswith(
            f"convnorm gradcheck: error: argument --step: must be finite and > 0, got {float(step)}\n")

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

    @pytest.mark.parametrize("shape,config", [
        ((2, 3, 3, 3), ConvConfig(8, "zero")),
        ((3, 2, 3, 2), ConvConfig(6, "circular", stride=2)),
        ((8, 8, 3, 3), ConvConfig(8, "circular")),
    ])
    def test_dense_gram_norm_matches_svd(self, shape, config):
        k = np.random.default_rng(82).standard_normal(shape)
        exact = float(np.linalg.norm(build_dense_jacobian(k, config), 2))
        assert abs(dense_jacobian_norm(k, config) - exact) <= 1e-13 * exact

    @pytest.mark.parametrize("padding", ["zero", "circular"])
    def test_dense_zero_kernel_prints_zero(self, padding, tmp_path, capsys):
        path = tmp_path / "zero.kten"
        write_kernel(path, np.zeros((2, 3, 3, 3)))
        assert main(["oracle", str(path), "--n", "4", "--method", "dense",
                     "--padding", padding]) == EXIT_OK
        assert capsys.readouterr().out == (
            f"dense ||T||2 (n=4, {padding}, stride 1): 0\n"
        )

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

    @pytest.mark.parametrize("shape", [(2, 2, 3), (2, 2, 3, 3, 3)], ids=["1-d", "3-d"])
    def test_shape_of_any_spatial_rank(self, shape, monkeypatch, capsys):
        timed = []
        monkeypatch.setattr(convnorm.cli, "bench_bound_times",
                            lambda kernel, *args, **kwargs: timed.append(kernel.shape) or [])
        assert main(["bench", "--shape", ",".join(map(str, shape)), "--ns", "4"]) == EXIT_OK
        capsys.readouterr()
        assert timed == [shape]

    @pytest.mark.parametrize("flag,value", [
        ("--repeat", "0"), ("--ns", ""), ("--ns", ","), ("--ns", "0,8"),
    ])
    def test_bad_option_rejected_before_any_timing(self, flag, value, monkeypatch, capsys):
        args = ["bench", "--shape", "2,2,3,3", "--ns", "4,8", "--repeat", "1", f"{flag}={value}"]
        err = _rejected_at_parse(args, monkeypatch, capsys)
        assert f"convnorm bench: error: argument {flag}: " in err


class TestUsage:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()

    @pytest.mark.parametrize("command,args,flag", BAD_FLAG_VALUES,
                             ids=[" ".join([c, *a]) for c, a, _ in BAD_FLAG_VALUES])
    def test_bad_value_stops_parser(self, command, args, flag, random_kernel_path,
                                    monkeypatch, capsys):
        base = [random_kernel_path if a == "KERNEL" else a for a in _BASE_ARGV[command]]
        err = _rejected_at_parse([command, *base, *args], monkeypatch, capsys)
        assert f"convnorm {command}: error: argument {flag}: " in err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "convnorm" in capsys.readouterr().out
