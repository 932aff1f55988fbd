"""Command-line front end: kernel generation, bound tables, checks, timing.

Exit codes: 0 success, 1 usage or parse error, 2 numerical-contract
violation (a failed gradient check), 3 I/O error, 4 gradient requested at a
point where the loss is not differentiable.

All randomness flows from a single ``--seed`` through named sub-streams
(kernel generation, rank-1 iteration restarts, power-method starts), so any
output is reproducible from its manifest.  In ``--json`` and ``--csv`` modes
stdout is byte-identical across runs for a fixed seed: ``bound`` and
``table`` print computed values only, and ``bench`` is the one command that
measures time.

``oracle`` computes one reference norm of the Jacobian that ``--n``,
``--padding`` and ``--stride`` fix, by ``--method`` power, dense or
circular-exact, and prints it as one line
``METHOD ||T||2 (n=N, PADDING, stride S): VALUE``; power adds a line with its
iteration count.  Each method checks the configuration itself.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .bounds import f4_bound, make_bound_report
from .hopm import HopmConfig, hopm, tn_bound
from .kernel_io import (
    KernelFormatError,
    complex_gap_kernel,
    delta_kernel,
    gaussian_kernel,
    read_kernel,
    uniform_kernel,
    write_kernel,
)
from .oracle import (
    ConvConfig,
    circular_exact_norm,
    conv_operator,
    dense_jacobian_norm,
    power_method,
)
from .regularizers import REGULARIZERS, ocnn_loss, ratio_loss, regularizer_gradient, twonorm_loss
from .tensor_ops import _spatial_shape

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_IO = 3
EXIT_UNDEFINED = 4

_STREAMS = {"kernel": 101, "hopm": 202, "power": 303, "matrix": 404}
_ORACLE_HELP = (
    "also run the matrix-free Golub-Kahan-Lanczos reference at input size N "
    "(stops when the estimate changes by at most --tol; an early stop only "
    "under-reports)"
)

CSV_COLUMNS = [
    "shape",
    "stride",
    "padding",
    "n",
    "lower",
    "tn",
    "f4",
    "oracle",
    "ratio_tn",
    "ratio_f4",
]


def derive_seed(seed: int, stream: str, index: int = 0) -> int:
    """Deterministic per-purpose seed derived from the user's single seed."""
    ss = np.random.SeedSequence([int(seed), _STREAMS[stream], int(index)])
    return int(ss.generate_state(1)[0])


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        parsed, rest = super().parse_known_args(args, namespace)
        # table's --spec file gives every row its shape and stride.
        if getattr(parsed, "spec", None) is not None and (parsed.shape or parsed.strides):
            self.error("argument --spec: not allowed with argument --shape or --strides")
        return parsed, rest


def _fmt(x) -> str:
    if x is None:
        return ""
    return format(float(x), ".12g")


def _checked(kind, ok, rule: str):
    """argparse type: a ``kind`` value accepted by ``ok``, else a usage error
    that argparse reports as ``argument FLAG: must be RULE, got VALUE``."""
    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value
    parse.__name__ = kind.__name__  # argparse names it in "invalid int value: 'x'"
    return parse


def _at_least(low, kind=int):
    return _checked(kind, lambda v: v >= low, f">= {low}")  # NaN compares false


_positive_finite = _checked(float, lambda v: math.isfinite(v) and v > 0, "finite and > 0")


def _positive_ints(text: str) -> tuple[int, ...]:
    """argparse type: a nonempty list of positive integers split at ',' or 'x'."""
    try:
        values = tuple(int(part) for part in text.replace("x", ",").split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None
    if not values or min(values) < 1:
        raise argparse.ArgumentTypeError(f"expected positive integers, got {text!r}")
    return values


_SHAPE = "C_OUT,C_IN,K1[,K2,...]"
_SHAPE_RULE = f"at least 3 positive integers {_SHAPE}"
_kernel_shape = _checked(_positive_ints, lambda v: len(v) >= 3, _SHAPE_RULE)


def _manifest(command: str, options: dict) -> dict:
    return {"command": command, "tool": "convnorm", "version": __version__, "config": options}


# ---------------------------------------------------------------------------
# gen


def _cmd_gen(args) -> int:
    if args.dist == "appendix-b":
        if args.shape:
            raise ValueError("--dist appendix-b takes no shape: its kernel is 2x2x2x2")
        kernel = complex_gap_kernel()
    else:
        if not args.shape:
            raise ValueError(f"--dist {args.dist} requires a shape")
        _spatial_shape(args.shape)
        if args.dist == "gaussian":
            kernel = gaussian_kernel(args.shape, derive_seed(args.seed, "kernel"))
        elif args.dist == "uniform":
            kernel = uniform_kernel(args.shape, derive_seed(args.seed, "kernel"))
        else:
            kernel = delta_kernel(args.shape)
    write_kernel(args.out, kernel)
    print(f"wrote {args.out}: shape {'x'.join(map(str, kernel.shape))}, dist {args.dist}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bound


def _bound_report(kernel, stride, args, index=0):
    """Lower/TN/F4 for one kernel, plus the oracle when ``--oracle`` is set.

    Seeds come from ``--seed`` and ``index``, so ``table``'s row 0 with one
    seed reproduces ``bound`` on the kernel ``gen`` writes for that seed.
    """
    hopm_config = HopmConfig(n_iters=args.iters, tol=args.tol, restarts=args.restarts,
                             seed=derive_seed(args.seed, "hopm", index))
    report = make_bound_report(kernel, stride=stride, hopm_config=hopm_config,
                               f4_seed=derive_seed(args.seed, "matrix", index))
    if args.oracle is not None:
        config = ConvConfig(input_size=args.oracle, padding=args.padding, stride=stride)
        report.oracle_norm = power_method(
            conv_operator(kernel, config), iters=args.oracle_iters, tol=args.tol,
            seed=derive_seed(args.seed, "power", index),
        ).norm
    return report


def _cmd_bound(args) -> int:
    kernel = read_kernel(args.kernel)
    _check_rows(args, [(kernel.shape, args.stride)])
    report = _bound_report(kernel, args.stride, args)

    if args.json:
        options = {
            "kernel": args.kernel, "stride": args.stride, "padding": args.padding,
            "restarts": args.restarts, "iters": args.iters, "tol": args.tol,
            "oracle": args.oracle, "seed": args.seed,
        }
        payload = {
            "manifest": _manifest("bound", options),
            "kernel_shape": list(report.kernel_shape),
            "lower_sigma": report.tn.lower,
            "tn_upper": report.tn.upper,
            "f4_upper": report.f4_upper,
            "oracle_norm": report.oracle_norm,
            "ratios": report.ratios(),
            "iterations_used": report.tn.estimate.iterations_used,
            "restarts_used": report.tn.estimate.restarts_used,
            "converged": report.tn.estimate.converged,
        }
        print(json.dumps(payload, indent=2, allow_nan=False))
    else:
        print(f"kernel       : {'x'.join(map(str, report.kernel_shape))} "
              f"(stride {args.stride}, {args.padding} padding)")
        print(f"lower sigma  : {report.tn.lower:.10g}")
        print(f"TN upper     : {report.tn.upper:.10g}")
        print(f"F4 upper     : {report.f4_upper:.10g}")
        if report.oracle_norm is not None:
            ratios = report.ratios()
            print(f"oracle ||T||2: {report.oracle_norm:.10g}  (n={args.oracle})")
            if ratios:  # none for a zero oracle norm
                print(f"TN / oracle  : {ratios['tn_over_oracle']:.6g}")
                print(f"F4 / oracle  : {ratios['f4_over_oracle']:.6g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# table


def _spec_rows(path):
    """Rows of a ``--spec`` file: a JSON list of {shape, stride} objects."""
    with open(path, "rb") as handle:
        entries = json.loads(handle.read().decode("utf-8"))
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ValueError(f"--spec {path}: expected a JSON list of {{shape, stride}} objects")
    rows = []
    for i, entry in enumerate(entries):
        where = f"--spec {path}: entry {i}"
        shape, stride = entry.get("shape"), entry.get("stride", 1)
        if shape is None:
            raise ValueError(f"{where} has no shape")
        if not (isinstance(shape, list) and len(shape) >= 3
                and all(type(s) is int and s >= 1 for s in shape)):
            raise ValueError(f"{where}: shape must be a list of {_SHAPE_RULE}, got {shape!r}")
        if type(stride) is not int or stride < 1:
            raise ValueError(f"{where}: stride must be a positive integer, got {stride!r}")
        rows.append((tuple(shape), stride))
    return rows


def _table_rows(args):
    if args.spec:
        return _spec_rows(args.spec)
    return [(shape, stride) for shape in args.shape or [] for stride in args.strides or (1,)]


def _check_rows(args, rows) -> None:
    """With ``--oracle``, reject any (shape, stride) row whose stride or
    padding does not fit the oracle's input size, before anything is solved."""
    if args.oracle is not None:
        for shape, stride in rows:
            ConvConfig(input_size=args.oracle, padding=args.padding,
                       stride=stride).validate_for(shape)


def _eval_row(row_index, shape, stride, args) -> dict:
    reports = []
    for rep in range(args.seeds):
        index = row_index * 100_000 + rep
        kernel = gaussian_kernel(shape, derive_seed(args.seed, "kernel", index))
        reports.append(_bound_report(kernel, stride, args, index))

    def mean(values):
        return float(np.mean(values))

    result = {
        "shape": shape, "stride": stride, "padding": args.padding, "n": args.oracle,
        "lower": mean([r.tn.lower for r in reports]),
        "tn": mean([r.tn.upper for r in reports]), "f4": mean([r.f4_upper for r in reports]),
        "oracle": None, "ratio_tn": None, "ratio_f4": None,
    }
    if args.oracle is not None:
        ratios = [r.ratios() for r in reports]
        ratios_tn = [x["tn_over_oracle"] for x in ratios]
        result.update(
            oracle=mean([r.oracle_norm for r in reports]), ratio_tn=mean(ratios_tn),
            ratio_f4=mean([x["f4_over_oracle"] for x in ratios]),
            ratio_tn_min=min(ratios_tn), ratio_tn_max=max(ratios_tn),
        )
    return result


def _cmd_table(args) -> int:
    rows = _table_rows(args)
    if not rows:
        raise ValueError("no table rows: pass --shape (with --strides) or --spec")
    _check_rows(args, rows)

    out_rows = []
    for i, (shape, stride) in enumerate(rows):
        try:
            out_rows.append(_eval_row(i, shape, stride, args))
        except Exception as exc:  # keep the run going; report the row and move on
            print(f"row {'x'.join(map(str, shape))} stride {stride} failed: {exc}",
                  file=sys.stderr)

    if args.csv:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in out_rows:
            writer.writerow([
                "x".join(map(str, r["shape"])), r["stride"], r["padding"],
                r["n"] if r["n"] is not None else "",
                _fmt(r["lower"]), _fmt(r["tn"]), _fmt(r["f4"]), _fmt(r["oracle"]),
                _fmt(r["ratio_tn"]), _fmt(r["ratio_f4"]),
            ])
    else:
        header = f"{'shape':>14} {'s':>2} {'lower':>10} {'TN':>10} {'F4':>10}"
        if args.oracle is not None:
            header += f" {'oracle':>10} {'TN/or':>7} {'F4/or':>7}"
        print(header)
        for r in out_rows:
            line = (f"{'x'.join(map(str, r['shape'])):>14} {r['stride']:>2} "
                    f"{r['lower']:>10.4f} {r['tn']:>10.4f} {r['f4']:>10.4f}")
            if r["oracle"] is not None:
                line += f" {r['oracle']:>10.4f} {r['ratio_tn']:>7.3f} {r['ratio_f4']:>7.3f}"
                line += (f"  (TN/or in [{r['ratio_tn_min']:.3f}, {r['ratio_tn_max']:.3f}]"
                         f" over {args.seeds} seeds)")
            print(line)
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradcheck


def finite_difference_gradient(loss, kernel: np.ndarray, step: float) -> np.ndarray:
    """Central differences of a scalar loss, one kernel entry at a time."""
    grad = np.zeros_like(kernel)
    flat = kernel.ravel()
    for idx in range(flat.size):
        bumped = kernel.copy().ravel()
        bumped[idx] = flat[idx] + step
        f_plus = loss(bumped.reshape(kernel.shape))
        bumped[idx] = flat[idx] - step
        f_minus = loss(bumped.reshape(kernel.shape))
        grad.ravel()[idx] = (f_plus - f_minus) / (2.0 * step)
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Largest entry deviation, relative to the gradient's max-abs scale.

    Central differences cannot resolve entries far below the gradient scale
    to a fixed entrywise precision, so deviations are normalized by the
    scale; a zero analytic gradient falls back to the absolute error.
    """
    scale = float(np.max(np.abs(analytic)))
    if scale == 0.0:
        return float(np.max(np.abs(numeric)))
    return float(np.max(np.abs(numeric - analytic)) / scale)


def _gradcheck_pair(which: str, kernel: np.ndarray, args):
    """Analytic gradient at a converged point plus a branch-following FD loss."""
    if which == "ocnn":
        return regularizer_gradient("ocnn", kernel), ocnn_loss

    # Converge once with restarts, then hold that branch: the analytic
    # gradient is evaluated at the re-converged optimum and every FD sample
    # warm-starts from it, so slow-converging kernels stay accurate.
    base_config = HopmConfig(
        n_iters=args.iters, tol=args.tol, restarts=args.restarts,
        seed=derive_seed(args.seed, "hopm"),
    )
    if which == "2norm":
        base = twonorm_loss(kernel, base_config).estimate.factors
    else:
        base = hopm(kernel, base_config).factors
    warm = HopmConfig(
        n_iters=args.iters, tol=1e-14, restarts=1,
        seed=derive_seed(args.seed, "hopm", 1), warm_start=base,
    )
    analytic = regularizer_gradient(which, kernel, warm)
    if which == "tn":
        return analytic, lambda kk: tn_bound(kk, warm).upper
    if which == "ratio":
        return analytic, lambda kk: ratio_loss(kk, warm)
    return analytic, lambda kk: twonorm_loss(kk, warm).lower


def _cmd_gradcheck(args) -> int:
    kernel = read_kernel(args.kernel)
    try:
        analytic, loss = _gradcheck_pair(args.which, kernel, args)
    except ValueError as exc:
        if "undefined" in str(exc):
            print(f"undefined: {exc}")
            return EXIT_UNDEFINED
        raise
    numeric = finite_difference_gradient(loss, kernel, args.step)
    err = max_relative_error(analytic, numeric)
    verdict = "PASS" if err <= args.threshold else "FAIL"
    print(f"{args.which}: max relative error {err:.3e} "
          f"(threshold {args.threshold:g}) -> {verdict}")
    if args.which == "ratio":
        inner = float(np.sum(analytic * kernel))
        print(f"ratio is scale-free: <grad, K> = {inner:.3e}")
    if args.which == "ocnn" and not analytic.any():
        print("gradient is exactly zero (loss at its minimum)")
    return EXIT_OK if verdict == "PASS" else EXIT_NUMERIC


# ---------------------------------------------------------------------------
# oracle


def _cmd_oracle(args) -> int:
    kernel = read_kernel(args.kernel)
    config = ConvConfig(input_size=args.n, padding=args.padding, stride=args.stride)
    where = f"n={args.n}, {args.padding}, stride {args.stride}"
    if args.method == "power":
        pm = power_method(conv_operator(kernel, config), iters=args.iters, tol=args.tol,
                          seed=derive_seed(args.seed, "power"))
        print(f"power ||T||2 ({where}): {pm.norm:.10g}")
        print(f"iterations: {pm.iterations}, converged: {pm.converged}")
        return EXIT_OK
    norm = {"circular-exact": circular_exact_norm, "dense": dense_jacobian_norm}[args.method]
    print(f"{args.method} ||T||2 ({where}): {norm(kernel, config):.10g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench


def bench_bound_times(kernel: np.ndarray, ns, repeat: int = 3, seed: int = 0):
    """Wall-clock per bound per declared input size; capped iteration counts.

    TN runs 4 restarts of at most 100 sweeps and the matrix-free reference
    at most 30 Lanczos steps on the zero-padded operator at each n, both at
    tolerance 0, which still stops a loop at the first exact tie of two
    consecutive estimates (a 4x4x3x3 kernel at n = 8 tied after 64 of 200
    Lanczos steps); F4 runs at most 300 Lanczos steps per unfolding.  The
    TN and F4 computations never look at n, so their rows measure the same
    work; the reference row grows with n.  Each cell is the
    median call time over ``repeat`` rounds of calibrated, interleaved calls.
    """
    tn_config = HopmConfig(n_iters=100, tol=0.0, restarts=4, seed=derive_seed(seed, "hopm"))
    f4_seed = derive_seed(seed, "matrix")
    pm_seed = derive_seed(seed, "power")
    # Untimed warm-up: first-touch allocation, kernel caches, and frequency
    # ramp-up otherwise inflate whichever cell happens to run first.
    tn_bound(kernel, tn_config)
    f4_bound(kernel, seed=f4_seed)

    cells = {}
    for n in ns:
        op = conv_operator(kernel, ConvConfig(input_size=n))
        cells[(n, "tn")] = lambda: tn_bound(kernel, tn_config)
        cells[(n, "f4")] = lambda: f4_bound(kernel, seed=f4_seed)
        cells[(n, "power")] = lambda op=op: power_method(op, iters=30, tol=0.0, seed=pm_seed)

    # Calibrate one call count per bound, so that its slowest cell runs for
    # >= ~0.5 s per repeat and every n of the bound gets the same count: on a
    # shared machine single calls jitter by 20% or more, so a cell needs many
    # calls.  Calls are made in rounds, one call per cell per round, so the
    # cells of a bound sample the same mix of machine states; each cell
    # reports the median of its calls, which neither a stall nor one lucky
    # stretch can move.
    slowest: dict[str, float] = {}
    for (_, bound), fn in cells.items():
        t0 = time.perf_counter()
        fn()
        slowest[bound] = max(slowest.get(bound, 0.0), time.perf_counter() - t0)
    inner = {bound: max(1, int(round(0.5 / max(t, 1e-9)))) for bound, t in slowest.items()}
    calls = {key: [] for key in cells}
    for _ in range(repeat):
        for call in range(max(inner.values())):
            for key, fn in cells.items():
                if call < inner[key[1]]:
                    t0 = time.perf_counter()
                    fn()
                    calls[key].append(time.perf_counter() - t0)
    median = {key: float(np.median(ts)) for key, ts in calls.items()}
    return [
        {
            "n": n,
            "time_tn_ms": median[(n, "tn")] * 1e3,
            "time_f4_ms": median[(n, "f4")] * 1e3,
            "time_power_ms": median[(n, "power")] * 1e3,
        }
        for n in ns
    ]


def _cmd_bench(args) -> int:
    kernel = gaussian_kernel(args.shape, derive_seed(args.seed, "kernel"))
    rows = bench_bound_times(kernel, args.ns, repeat=args.repeat, seed=args.seed)
    print(f"{'n':>6} {'TN (ms)':>12} {'F4 (ms)':>12} {'power (ms)':>12}")
    for r in rows:
        print(f"{r['n']:>6} {r['time_tn_ms']:>12.2f} {r['time_f4_ms']:>12.2f} "
              f"{r['time_power_ms']:>12.2f}")
    return EXIT_OK


# ---------------------------------------------------------------------------


@functools.cache  # built once per process; each command reads the module's names when called
def build_parser() -> _Parser:
    parser = _Parser(prog="convnorm", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"convnorm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    count, seed, tol = _at_least(1), _at_least(0), _at_least(0, float)
    defaults = HopmConfig()

    # The run options that bound and table share.
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--padding", choices=["zero", "circular"], default="zero")
    run.add_argument("--restarts", type=count, default=defaults.restarts)
    run.add_argument("--iters", type=count, default=defaults.n_iters)
    run.add_argument("--tol", type=tol, default=defaults.tol)
    run.add_argument("--seed", type=seed, default=0)
    run.add_argument("--oracle", type=count, metavar="N", help=_ORACLE_HELP)
    run.add_argument("--oracle-iters", type=count, default=500)

    p = sub.add_parser("gen", help="generate a kernel file")
    p.add_argument("shape", nargs="*", type=count, help="kernel shape, e.g. 64 64 3 3")
    p.add_argument("--dist", choices=["gaussian", "uniform", "delta", "appendix-b"],
                   default="gaussian")
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bound", parents=[run], help="lower/TN/F4 bounds for one kernel")
    p.add_argument("kernel")
    p.add_argument("--stride", type=count, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("table", parents=[run], help="bound table over shapes, strides, seeds")
    p.add_argument("--shape", action="append", type=_kernel_shape, metavar=_SHAPE,
                   help="kernel shape of a row, one or more spatial sizes (repeatable)")
    p.add_argument("--strides", type=_positive_ints, help="strides for every --shape (default 1)")
    p.add_argument("--spec", help="JSON list of {shape, stride} rows (not with --shape or --strides)")
    p.add_argument("--seeds", type=count, default=1)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("gradcheck", help="finite-difference check of a gradient")
    p.add_argument("kernel")
    p.add_argument("--which", choices=list(REGULARIZERS), default="tn")
    p.add_argument("--step", type=_positive_finite, default=1e-5)
    p.add_argument("--threshold", type=_at_least(0, float), default=1e-4)
    p.add_argument("--seed", type=seed, default=0)
    p.add_argument("--restarts", type=count, default=10)
    p.add_argument("--iters", type=count, default=1500)
    p.add_argument("--tol", type=tol, default=1e-13)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("oracle", help="reference Jacobian norm")
    p.add_argument("kernel")
    p.add_argument("--n", type=count, required=True)
    p.add_argument("--padding", choices=["zero", "circular"], default="zero")
    p.add_argument("--stride", type=count, default=1)
    p.add_argument("--method", choices=["power", "circular-exact", "dense"], default="power")
    p.add_argument("--iters", type=count, default=500)
    p.add_argument("--tol", type=tol, default=1e-10)
    p.add_argument("--seed", type=seed, default=0)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("bench", help="timing: bounds vs power method across n")
    p.add_argument("--shape", type=_kernel_shape, default=(64, 64, 3, 3), metavar=_SHAPE,
                   help="kernel shape, one or more spatial sizes")
    p.add_argument("--ns", type=_positive_ints, default=(16, 32, 64))
    p.add_argument("--repeat", type=count, default=3)
    p.add_argument("--seed", type=seed, default=0)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (KernelFormatError, OSError) as exc:
        print(f"convnorm: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"convnorm: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
