"""The benchmark's workloads: inputs from a seed, a fixed job list, checks.

Each workload is a closed loop with one client: the jobs of a pass run back
to back in this process, each waiting for the previous one, the way a
certification script or a training loop waits for each result.

* ``ladder``  one-shot certification of a network's layers: ``convnorm
  bound FILE --json`` with CLI defaults on four KTEN files, plus
  ``tn_bound_ddim`` on a 3-D kernel read by ``read_kernel``.
* ``train``   descent steps on a 32x32x3x3 kernel; each step evaluates the
  four regularizers and their gradients, HOPM warm-started from the
  previous step's factors.
* ``verify``  ``convnorm table --oracle 32`` plus ``convnorm oracle`` with
  the circular-exact and dense methods.

A workload object gets ``setup(workdir)``, then ``jobs()`` for each pass;
each job returns a record that ``check(records, refs)`` validates after the
timed region.  ``needs(records)`` names the references the checks use.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

import convnorm as cn
from convnorm import cli

from refs import gram_residual, ref_key

_TAGS = {"kernel": 1, "cli": 2, "direction": 3}


def sub_seed(seed: int, tag: str, index: int = 0) -> int:
    """Seed for one purpose, derived from the workload seed."""
    return int(np.random.SeedSequence([int(seed), _TAGS[tag], index]).generate_state(1)[0] >> 1)


def gaussian(seed: int, index: int, shape) -> np.ndarray:
    return np.random.default_rng(sub_seed(seed, "kernel", index)).standard_normal(shape)


def run_cli(argv) -> dict:
    """``convnorm.cli.main`` in process; returns exit code and captured output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    stdout = out.getvalue()
    return {"rc": rc, "stdout": stdout, "stderr": err.getvalue(),
            "sha256": hashlib.sha256(stdout.encode()).hexdigest()}


def write_and_read(path: Path, kernel: np.ndarray) -> np.ndarray:
    cn.write_kernel(path, kernel)
    back = cn.read_kernel(path)
    if not np.array_equal(back, kernel):
        raise RuntimeError(f"KTEN round trip changed {path.name}")
    return back


class Checks:
    """Failures and quality ratios collected while checking one workload."""

    def __init__(self):
        self.failures: list[str] = []
        self.failed_jobs: set[int] = set()
        self.sigma_ratios: list[float] = []
        self.oracle_ratios: list[float] = []
        self.converged: list[bool] = []

    def require(self, job: int, ok: bool, what: str) -> bool:
        if not ok:
            self.failed_jobs.add(job)
            self.failures.append(f"job {job}: {what}")
        return ok

    def attain(self, kind: str, value: float, ref: float) -> None:
        ratios = self.sigma_ratios if kind == "sigma" else self.oracle_ratios
        ratios.append(min(1.0, value / ref))


def _finite_positive(*xs) -> bool:
    return all(isinstance(x, float) and math.isfinite(x) and x > 0 for x in xs)


class Workload:
    name = ""
    # Whether one job is one step of the step-latency metrics.  When the jobs
    # are unlike calls (ladder, verify) a step is a whole pass: the unit a
    # client waits for, and one whose percentiles do not jump between jobs.
    STEPS_ARE_JOBS = False

    def __init__(self, seed: int):
        self.seed = seed
        self.cli_seed = sub_seed(seed, "cli")

    def need(self, kind: str, params: dict, kernel: np.ndarray) -> tuple[str, dict]:
        key = ref_key(kind, params, kernel)
        return key, {"key": key, "kind": kind, "params": params, "kernel": kernel}

    def digest(self, rec: dict) -> dict:
        return rec

    @staticmethod
    def completed(c: "Checks", records):
        """(index, record) for every job that returned; a raised job fails."""
        for j, rec in enumerate(records):
            if c.require(j, "error" not in rec, rec.get("error", "")):
                yield j, rec


# ---------------------------------------------------------------------------
# ladder


class Ladder(Workload):
    name = "ladder"
    SHAPES = (((64, 64, 3, 3), 1), ((256, 256, 3, 3), 1), ((64, 64, 5, 5), 1),
              ((64, 64, 3, 3), 2))
    DDIM = (32, 32, 3, 3, 3)

    def setup(self, workdir: Path) -> None:
        self.files = []
        for i, (shape, stride) in enumerate(self.SHAPES):
            path = workdir / f"ladder{i}-{'x'.join(map(str, shape))}.kten"
            self.files.append((path, write_and_read(path, gaussian(self.seed, i, shape)), stride))
        self.ddim_path = workdir / "ladder-ddim.kten"
        self.ddim = write_and_read(self.ddim_path, gaussian(self.seed, len(self.SHAPES), self.DDIM))

    def jobs(self):
        out = []
        for i, (path, _, stride) in enumerate(self.files):
            argv = ["bound", path, "--json", "--seed", self.cli_seed + i]
            if stride > 1:
                argv += ["--stride", stride]
            out.append((f"bound {path.stem}", lambda argv=argv: run_cli(argv)))
        out.append(("tn_bound_ddim", self._ddim_job))
        return out

    def _ddim_job(self) -> dict:
        kernel = cn.read_kernel(self.ddim_path)
        bound = cn.tn_bound_ddim(kernel, cn.HopmConfig(seed=self.cli_seed + len(self.files)))
        return {"lower": bound.lower, "upper": bound.upper,
                "converged": bound.estimate.converged}

    def _sigma_params(self, stride):
        return {"transform": "stride2" if stride == 2 else "none"}

    def needs(self, records) -> list[dict]:
        specs = [self.need("sigma", self._sigma_params(s), k)[1] for _, k, s in self.files]
        specs.append(self.need("sigma", {"transform": "none"}, self.ddim)[1])
        return specs

    def check(self, records, refs) -> Checks:
        c = Checks()
        n = len(self.files) + 1
        for j, rec in self.completed(c, records):
            slot = j % n
            if slot == len(self.files):
                key = self.need("sigma", {"transform": "none"}, self.ddim)[0]
                lower, upper = rec.get("lower"), rec.get("upper")
                if c.require(j, _finite_positive(lower, upper) and lower <= upper,
                             f"ddim sandwich {lower} <= {upper}"):
                    c.attain("sigma", lower, refs[key])
                    c.converged.append(rec["converged"])
                continue
            _, kernel, stride = self.files[slot]
            if not c.require(j, rec.get("rc") == 0, f"exit code {rec.get('rc')}"):
                continue
            try:
                out = json.loads(rec["stdout"])
                lower, tn, f4 = out["lower_sigma"], out["tn_upper"], out["f4_upper"]
            except (ValueError, KeyError) as exc:
                c.require(j, False, f"unparsable bound output: {exc!r}")
                continue
            c.require(j, out["kernel_shape"] == list(kernel.shape), "kernel_shape")
            if c.require(j, _finite_positive(lower, tn, f4) and lower <= tn <= f4,
                         f"lower <= TN <= F4 fails: {lower}, {tn}, {f4}"):
                key = self.need("sigma", self._sigma_params(stride), kernel)[0]
                c.attain("sigma", lower, refs[key])
            c.converged.append(bool(out["converged"]))
        return c


# ---------------------------------------------------------------------------
# train


class Train(Workload):
    """Orthogonality training: descend on ``ocnn`` while evaluating all four
    regularizers and their gradients, as a training loop that logs them does."""

    name = "train"
    STEPS_ARE_JOBS = True
    SHAPE = (32, 32, 3, 3)
    STEPS = 24
    LR = 2e-3
    WHICH = ("tn", "ratio", "ocnn", "2norm")
    STEP_SWEEPS = 3  # per warm-started call, as power steps in training loops are budgeted
    # Central differences of these smooth losses (factors held fixed) agree
    # with an exact gradient to about 1e-10 of its norm.
    DIRDERIV_TOL = 1e-6

    def setup(self, workdir: Path) -> None:
        c_out, c_in, h, w = self.SHAPE
        path = workdir / "train.kten"
        self.k0 = write_and_read(path, gaussian(self.seed, 0, self.SHAPE) / math.sqrt(c_in * h * w))

    def jobs(self):
        self.state = {"k": self.k0.copy(), "warm": {}}
        jobs = [("init", self._init_job)]
        jobs += [(f"step {t}", lambda t=t: self._step(t)) for t in range(self.STEPS)]
        return jobs

    def _config(self, which: str, warm) -> cn.HopmConfig:
        if warm is None:
            return cn.HopmConfig(seed=sub_seed(self.seed, "cli", 1 + ("2norm" == which)))
        return cn.HopmConfig(restarts=1, n_iters=self.STEP_SWEEPS, seed=self.cli_seed,
                             warm_start=warm)

    def _init_job(self) -> dict:
        """Full multi-restart solve once, so the steps track the global optimum."""
        k = self.state["k"]
        self.state["warm"] = {
            "tn": cn.hopm(k, self._config("tn", None)).factors,
            "2norm": cn.twonorm_loss(k, self._config("2norm", None)).estimate.factors,
        }
        return {"init": True}

    def _step(self, t: int) -> dict:
        k = self.state["k"]
        warm = self.state["warm"]
        cfg = self._config("tn", warm["tn"])
        cfg2 = self._config("2norm", warm["2norm"])
        tn = cn.tn_bound(k, cfg)
        losses = {"tn": tn.upper, "ratio": cn.ratio_loss(k, cfg), "ocnn": cn.ocnn_loss(k)}
        two = cn.twonorm_loss(k, cfg2)
        losses["2norm"] = two.sigma
        grads = {
            "tn": cn.regularizer_gradient("tn", k, cfg),
            "ratio": cn.regularizer_gradient("ratio", k, cfg),
            "ocnn": cn.regularizer_gradient("ocnn", k),
            "2norm": cn.regularizer_gradient("2norm", k, cfg2),
        }
        self.state["warm"] = {"tn": tn.estimate.factors, "2norm": two.estimate.factors}
        self.state["k"] = k - self.LR * grads["ocnn"]
        rec = {"losses": losses, "grads": grads, "sigma": tn.lower, "sigma2": two.sigma,
               "converged": [tn.estimate.converged, two.estimate.converged]}
        if t in (0, self.STEPS - 1):
            rec.update(kernel=k, factors={"tn": tn.estimate.factors,
                                          "2norm": two.estimate.factors})
        return rec

    def digest(self, rec: dict) -> dict:
        """Keep the gradients only where the checks use them, so memory does
        not grow with the number of passes."""
        if "grads" in rec and "kernel" not in rec:
            rec["grads_finite"] = all(bool(np.all(np.isfinite(g))) for g in rec.pop("grads").values())
        return rec

    def needs(self, records) -> list[dict]:
        specs = {}
        for rec in records:
            if "kernel" in rec:
                for kind, transform in (("sigma", "none"), ("sigma", "gram_residual")):
                    key, spec = self.need(kind, {"transform": transform}, rec["kernel"])
                    specs[key] = spec
        return list(specs.values())

    def directional_error(self, rec, which: str, direction: np.ndarray) -> float:
        """|central difference - <grad, D>| over ||grad||.

        The gradients hold the step's HOPM factors fixed (the rank-1 value at
        those factors is what they differentiate), so the losses here do too.
        They are written from the definitions, without convnorm."""
        k = rec["kernel"]
        u = rec["factors"]["tn"].factors
        v = rec["factors"]["2norm"].factors
        h, w = k.shape[2:]

        def form(x, fs):
            return abs(np.einsum("abcd,a,b,c,d->", x, *fs))

        loss = {
            "tn": lambda x: math.sqrt(h * w) * form(x, u),
            "ratio": lambda x: math.sqrt(h * w) * form(x, u) / np.linalg.norm(x),
            "ocnn": lambda x: np.linalg.norm(gram_residual(x)),
            "2norm": lambda x: form(gram_residual(x), v),
        }[which]
        eps = 1e-5 * float(np.linalg.norm(k))
        numeric = (loss(k + eps * direction) - loss(k - eps * direction)) / (2 * eps)
        grad = rec["grads"][which]
        return abs(numeric - float(np.sum(grad * direction))) / float(np.linalg.norm(grad))

    def check(self, records, refs) -> Checks:
        c = Checks()
        direction = np.random.default_rng(sub_seed(self.seed, "direction")).standard_normal(self.SHAPE)
        direction /= np.linalg.norm(direction)
        seen = set()
        for j, rec in self.completed(c, records):
            if "init" in rec:
                continue
            finite = all(math.isfinite(v) for v in rec["losses"].values()) and (
                rec["grads_finite"] if "grads_finite" in rec
                else all(np.all(np.isfinite(g)) for g in rec["grads"].values()))
            c.require(j, finite, "non-finite loss or gradient")
            c.converged.extend(rec["converged"])
            if "kernel" not in rec or not finite:
                continue
            # Passes repeat the same trajectory; check each distinct point once.
            point = ref_key("point", {}, rec["kernel"])
            if point in seen:
                continue
            seen.add(point)
            for which in self.WHICH:
                err = self.directional_error(rec, which, direction)
                c.require(j, err <= self.DIRDERIV_TOL,
                          f"{which} directional derivative error {err:.3e}")
            for field, transform in (("sigma", "none"), ("sigma2", "gram_residual")):
                key = self.need("sigma", {"transform": transform}, rec["kernel"])[0]
                c.attain("sigma", rec[field], refs[key])
        return c


# ---------------------------------------------------------------------------
# verify


class Verify(Workload):
    name = "verify"
    ROWS = (((16, 16, 3, 3), 1), ((32, 32, 3, 3), 1), ((16, 16, 5, 5), 1), ((32, 32, 3, 3), 2))
    ORACLE_N = 32
    CIRCULAR_N = 16
    DENSE_N = 8
    GAP_NORM = 8.0

    def setup(self, workdir: Path) -> None:
        self.spec = workdir / "verify-spec.json"
        self.spec.write_text(json.dumps([{"shape": list(s), "stride": st} for s, st in self.ROWS]))
        self.gap = workdir / "verify-gap.kten"
        if run_cli(["gen", "--dist", "appendix-b", "--out", self.gap])["rc"] != 0:
            raise RuntimeError("convnorm gen --dist appendix-b failed")
        self.gap_kernel = cn.read_kernel(self.gap)
        self.k32_path, self.k8_path = workdir / "verify-32.kten", workdir / "verify-8.kten"
        self.k32 = write_and_read(self.k32_path, gaussian(self.seed, 0, (32, 32, 3, 3)))
        self.k8 = write_and_read(self.k8_path, gaussian(self.seed, 1, (8, 8, 3, 3)))
        # The table draws its own kernels from --seed; regenerate them the way
        # `convnorm table` documents (gaussian, derive_seed(seed, "kernel", row*100000)).
        self.row_kernels = [
            np.random.default_rng(
                int(np.random.SeedSequence([self.cli_seed, 101, i * 100_000]).generate_state(1)[0])
            ).standard_normal(shape)
            for i, (shape, _) in enumerate(self.ROWS)
        ]

    def _oracle_argv(self, path, method, n, padding):
        return ["oracle", path, "--method", method, "--n", n, "--padding", padding,
                "--seed", self.cli_seed]

    def jobs(self):
        table = ["table", "--spec", self.spec, "--oracle", self.ORACLE_N, "--csv",
                 "--seed", self.cli_seed]
        argvs = [
            table,
            self._oracle_argv(self.gap, "circular-exact", self.CIRCULAR_N, "circular"),
            self._oracle_argv(self.k32_path, "circular-exact", self.CIRCULAR_N, "circular"),
            self._oracle_argv(self.k8_path, "dense", self.DENSE_N, "zero"),
            self._oracle_argv(self.k8_path, "dense", self.DENSE_N, "circular"),
        ]
        names = ["table", "circular gap", "circular 32x32x3x3", "dense zero", "dense circular"]
        return [(name, lambda argv=argv: run_cli(argv)) for name, argv in zip(names, argvs)]

    def _oracle_refs(self):
        """(job slot, kernel, reference kind, params) for every oracle value."""
        return [
            (2, self.k32, "circular", {"n": self.CIRCULAR_N}),
            (3, self.k8, "dense", {"n": self.DENSE_N, "padding": "zero"}),
            (4, self.k8, "dense", {"n": self.DENSE_N, "padding": "circular"}),
        ]

    def needs(self, records) -> list[dict]:
        specs = []
        for kernel, (_, stride) in zip(self.row_kernels, self.ROWS):
            transform = "stride2" if stride == 2 else "none"
            specs.append(self.need("sigma", {"transform": transform}, kernel)[1])
            specs.append(self.need("power", {"n": self.ORACLE_N, "stride": stride}, kernel)[1])
        for kernel in (self.k32, self.k8):
            specs.append(self.need("sigma", {"transform": "none"}, kernel)[1])
        specs.append(self.need("circular", {"n": self.CIRCULAR_N}, self.gap_kernel)[1])
        specs += [self.need(kind, params, k)[1] for _, k, kind, params in self._oracle_refs()]
        return specs

    def _check_table(self, c: Checks, j: int, stdout: str, refs) -> None:
        try:
            rows = list(csv.DictReader(io.StringIO(stdout)))
            values = [(float(r["lower"]), float(r["tn"]), float(r["f4"]), float(r["oracle"]))
                      for r in rows]
        except (ValueError, KeyError) as exc:
            c.require(j, False, f"unparsable table output: {exc!r}")
            return
        if not c.require(j, len(rows) == len(self.ROWS), f"{len(rows)} table rows"):
            return
        for row, (lower, tn, f4, oracle), kernel, (shape, stride) in zip(
                rows, values, self.row_kernels, self.ROWS):
            c.require(j, row["shape"] == "x".join(map(str, shape)) and int(row["stride"]) == stride,
                      f"table row {row['shape']} stride {row['stride']}")
            ok = c.require(j, _finite_positive(lower, tn, f4, oracle) and lower <= tn <= f4,
                           f"lower <= TN <= F4 fails: {lower}, {tn}, {f4}")
            ok &= c.require(j, oracle <= tn, f"oracle {oracle} above TN {tn}")
            if ok:
                transform = "stride2" if stride == 2 else "none"
                c.attain("sigma", lower, refs[self.need("sigma", {"transform": transform}, kernel)[0]])
                power = self.need("power", {"n": self.ORACLE_N, "stride": stride}, kernel)[0]
                c.attain("oracle", oracle, refs[power])

    @staticmethod
    def _value(stdout: str) -> float:
        return float(stdout.splitlines()[0].rsplit(":", 1)[1])

    def check(self, records, refs) -> Checks:
        c = Checks()
        n = 5  # jobs per pass
        oracle_refs = {slot: (k, kind, params) for slot, k, kind, params in self._oracle_refs()}
        for j, rec in self.completed(c, records):
            slot = j % n
            if not c.require(j, rec.get("rc") == 0, f"exit code {rec.get('rc')}: {rec.get('stderr')}"):
                continue
            if slot == 0:
                self._check_table(c, j, rec["stdout"], refs)
                continue
            try:
                value = self._value(rec["stdout"])
            except (IndexError, ValueError) as exc:
                c.require(j, False, f"unparsable oracle output: {exc!r}")
                continue
            if slot == 1:
                c.require(j, abs(value - self.GAP_NORM) <= 1e-9,
                          f"gap kernel circular norm {value!r} != 8")
                ref = refs[self.need("circular", {"n": self.CIRCULAR_N}, self.gap_kernel)[0]]
                c.attain("oracle", value, ref)
                continue
            kernel, kind, params = oracle_refs[slot]
            sigma = refs[self.need("sigma", {"transform": "none"}, kernel)[0]]
            h, w = kernel.shape[2:]
            c.require(j, sigma <= value <= math.sqrt(h * w) * sigma,
                      f"{kind} norm {value} outside [{sigma}, {math.sqrt(h * w) * sigma}]")
            c.attain("oracle", value, refs[self.need(kind, params, kernel)[0]])
        return c


WORKLOADS = {w.name: w for w in (Ladder, Train, Verify)}
