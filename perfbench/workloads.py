"""The benchmark's workloads and the round each one repeats.

Every workload runs the same kind of round of public hlrd calls, so every
end-to-end metric is measured on every workload.  A round walks through
the workload's build set; each step compresses one matrix of the set and
then runs a short slice of everything else:

    compress -> save/load pairs of the apply matrix -> closed-loop matvec
             calls on the loaded copy -> verify -> its share of the CLI
             commands (rank-map, eps-sweep and verify-tiling per family)

A run repeats whole rounds until its time is up.  The machine the
benchmark was tuned on runs the same code at speeds that change every few
seconds to minutes; spreading every kind of operation over many short
slices of the run, instead of one burst a round, and reporting medians
keeps a timing from resting on one stretch of it.  The two workloads
differ in which builder carries the build: the three families at
n = 2^11, eps = 1e-6 and 1e-9, compressed by ACA (``build-aca``) or by
the constructive builder (``build-constructive``).  Their build sets end
with the three n = 2^8 matrices compressed by the other builder, so that
every layer appears in every trace.  Both save, load, multiply and verify
a binomial n = 2^12, eps = 1e-6 matrix compressed during set-up with the
workload's builder, and run the paper's rank experiments through the CLI
at n = 2^10.

The seed fixes the matvec inputs, the verification and check samples and
the CLI's ``--seed``.  The matrices and their order are fixed points, so
timings compare across seeds.
"""

from __future__ import annotations

import contextlib
import gc
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hlrd import BinomialFamily, Builder, ChiSquaredFamily, PoissonFamily, cli, container, hmatrix
from hlrd.hmatrix import index_layout, storage_report
import checks

FAMILIES = ("binomial", "poisson", "chisq")
RANK_EPS = 1e-9
SWEEP_EPS = tuple(10.0 ** -k for k in range(3, 13))
TILING_FLAGS = ("--domain", "quarter", "--extent", "16", "--lmax", "6")
MATVEC_INPUTS = 16      # distinct seeded vectors the closed loop cycles through
CHECKED_ROWS = 8        # matvec rows compared against the reference
VERIFY_SAMPLES = 20000
# save/load pairs per step; the first brings the allocator to the state
# the others run in and is not a timing sample
IO_PER_STEP = 4


@dataclass(frozen=True)
class Workload:
    build_set: tuple             # (family, n, eps, builder), each compressed once a round
    builder: Builder             # builds the apply matrix during set-up
    apply_n: int                 # binomial matrix of the save/load/matvec/verify slices
    apply_eps: float
    matvec_per_step: int         # closed-loop calls per step
    rank_n: int                  # family size of the CLI experiments, run once a round
    tiling_samples: int          # per verify-tiling call, three calls a round
    min_rounds: int              # >= 2: a traced round in traced runs
    setup_repeats: int = 3       # set-ups timed; the median is reported


def builds(n: int, eps: tuple, builder: Builder) -> tuple:
    return tuple((name, n, e, builder) for name in FAMILIES for e in eps)


WORKLOADS = {
    # n = 2^11: a compress at 2^12 or more gives too few samples in a run
    "build-aca": Workload(
        build_set=builds(2**11, (1e-6, 1e-9), Builder.ACA)
        + builds(2**8, (RANK_EPS,), Builder.CONSTRUCTIVE),
        builder=Builder.ACA, apply_n=2**12, apply_eps=1e-6, matvec_per_step=12,
        rank_n=2**10, tiling_samples=20000, min_rounds=4),
    "build-constructive": Workload(
        build_set=builds(2**11, (1e-6, 1e-9), Builder.CONSTRUCTIVE)
        + builds(2**8, (RANK_EPS,), Builder.ACA),
        builder=Builder.CONSTRUCTIVE, apply_n=2**12, apply_eps=1e-6, matvec_per_step=12,
        rank_n=2**10, tiling_samples=20000, min_rounds=4),
}


def family(name: str, n: int):
    if name == "binomial":
        return BinomialFamily(n=n)
    if name == "poisson":
        return PoissonFamily(k_max=n, lambda_max=float(n), lambda_grid=n)
    return ChiSquaredFamily(x_max=float(n), x_grid=n, k_max=n)


def family_flags(name: str, n: int) -> list[str]:
    """CLI flags that give the CLI the same matrix as ``family(name, n)``."""
    if name == "binomial":
        return ["--family", "binomial", "--n", str(n)]
    if name == "poisson":
        return ["--family", "poisson", "--kmax", str(n), "--lambda-max", str(n), "--grid", str(n)]
    return ["--family", "chisq", "--xmax", str(n), "--grid", str(n), "--kmax", str(n)]


class Run:
    """One benchmark run: operation counts, timing samples and problems found."""

    def __init__(self, wl: Workload, seed: int, workdir: Path, tracer):
        self.wl = wl
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples = defaultdict(list)
        self.check_rng = np.random.default_rng([seed, 1])
        # a fixed order: which large arrays were freed before a call decides
        # whether glibc serves the next one from the heap or from fresh
        # pages, and that moved load/save times by half between orders
        self.build_set = wl.build_set
        rng = np.random.default_rng(seed)
        self.inputs = rng.uniform(0.5, 1.5, size=(MATVEC_INPUTS, wl.apply_n))
        # seed-independent probe for the save/load bit-identity contract
        self.probe = np.linspace(0.5, 1.5, wl.apply_n)
        self.checked_rows = np.sort(rng.choice(wl.apply_n + 1, CHECKED_ROWS, replace=False))
        self.commands = self._commands()
        self.first_outputs: dict[str, bytes] = {}
        self.first_reports: dict = {}
        self.h_apply = None
        self.expected_probe = None
        self.matvec_calls = 0
        self.stored_entries = 0
        self.container_bytes = 0

    # -- plumbing -----------------------------------------------------------

    def op(self, span: str, fn, *args, ok=None, count=True, **kwargs):
        """Call one program operation: timed, traced, counted.  Returns (result, seconds)."""
        self.attempted += count
        t0 = time.perf_counter()
        try:
            with self.tracer.span(span):
                result = fn(*args, **kwargs)
        except Exception:  # a failed operation is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            self.failed += count
            return None, time.perf_counter() - t0
        seconds = time.perf_counter() - t0
        if count and ok is not None and not ok(result):
            self.failed += 1
        return result, seconds

    @contextlib.contextmanager
    def untraced(self):
        recording = self.tracer.recording
        self.tracer.recording = False
        try:
            yield
        finally:
            self.tracer.recording = recording

    def check(self, problems: list[str]) -> None:
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)
        self.problems.extend(problems)

    def check_built(self, h, name: str, eps: float) -> None:
        with self.untraced():
            self.check(checks.check_blocks(h, eps, self.check_rng))
            if name == "binomial":
                x = self.check_rng.uniform(0.5, 1.5, h.shape[1])
                self.check(checks.check_column_sums(h.spec, x, hmatrix.matvec(h, x)))

    # -- set-up -------------------------------------------------------------

    def set_up(self) -> float:
        """Compress the matrix the apply burst uses; returns the median set-up."""
        wl = self.wl
        times = []
        for _ in range(wl.setup_repeats):
            t0 = time.perf_counter()
            self.h_apply, _ = self.op("hmatrix.compress", hmatrix.compress,
                                      family("binomial", wl.apply_n), wl.apply_eps,
                                      builder=wl.builder, count=False)
            times.append(time.perf_counter() - t0)
        if self.h_apply is not None:
            self.check_built(self.h_apply, "binomial", wl.apply_eps)
            self.expected_probe = hmatrix.matvec(self.h_apply, self.probe)
        return float(np.median(times))

    # -- one round ----------------------------------------------------------

    def round(self) -> float:
        """Run one round; returns the seconds spent inside program operations.

        The CLI commands are dealt out over the steps, so every round runs
        the same operations in the same order.
        """
        gc.collect()
        timed = 0.0
        stored = 0
        steps = len(self.build_set)
        for step, (name, n, eps, builder) in enumerate(self.build_set):
            h, seconds = self.op("hmatrix.compress", hmatrix.compress, family(name, n), eps,
                                 builder=builder)
            self.samples[f"build_s/{step}"].append(seconds)
            timed += seconds
            if h is not None:
                report = storage_report(h)
                if step not in self.first_reports:
                    self.first_reports[step] = report
                    self.check_built(h, name, eps)
                elif report != self.first_reports[step]:
                    # compress is deterministic: a repeat must match the checked first result
                    self.check([f"{name} n={n} eps={eps:g}: storage report differs across rounds"])
                stored += report.stored_entries
            del h
            if self.h_apply is not None:
                timed += self._apply_slice(check_outputs=step == 0)
            for command in self.commands[step::steps]:
                timed += self._cli(*command)
        self.stored_entries = stored
        return timed

    def _apply_slice(self, check_outputs: bool) -> float:
        path = self.workdir / "apply.hlrd"
        again = self.workdir / "apply-again.hlrd"
        timed = 0.0
        h = None
        for i in range(IO_PER_STEP):
            # every save writes a new file: truncating the old one in place
            # frees its blocks through the filesystem's journal and discard,
            # which cost 1.5 ms a save and set its slow tail
            path.unlink(missing_ok=True)
            _, save_s = self.op("container.save_hmatrix", container.save_hmatrix, self.h_apply, path)
            loaded, load_s = self.op("container.load_hmatrix", container.load_hmatrix, path)
            size = path.stat().st_size
            self.container_bytes = size
            self.tracer.count("container.save_hmatrix", "bytes", size)
            self.tracer.count("container.load_hmatrix", "bytes", size)
            timed += save_s + load_s
            if i > 0:
                self.samples["save_ms"].append(1e3 * save_s)
                self.samples["load_ms"].append(1e3 * load_s)
            if loaded is None:
                continue
            h = loaded
            del loaded
            with self.untraced():
                if not np.array_equal(hmatrix.matvec(h, self.probe), self.expected_probe):
                    # the loaded matrix must multiply bit for bit like the saved one
                    self.failed += 1
        if h is None:
            return timed
        with self.untraced():
            if check_outputs:
                container.save_hmatrix(h, again)
                self.check(checks.check_same_bytes(path.read_bytes(), again.read_bytes(),
                                                   "save(load(save(h)))"))
            stored = storage_report(h).stored_entries
            _, _, blocks, cells, strips = index_layout(h.spec, h.scheme)
            pieces = len(blocks) + len(cells) + len(strips)

        first_y = None
        for _ in range(self.wl.matvec_per_step):
            x = self.inputs[self.matvec_calls % MATVEC_INPUTS]
            y, seconds = self.op("hmatrix.matvec", hmatrix.matvec, h, x)
            self.samples["matvec_ms"].append(1e3 * seconds)
            self.tracer.count("hmatrix.matvec", "stored_entries", stored)
            self.tracer.count("hmatrix.matvec", "pieces", pieces)
            if first_y is None:
                first_y, first_x = y, x
            self.matvec_calls += 1
            timed += seconds
        if check_outputs and first_y is not None:
            with self.untraced():
                self.check(checks.check_matvec_rows(h.spec, h.eps, first_x, first_y,
                                                    self.checked_rows))
                self.check(checks.check_column_sums(h.spec, first_x, first_y))

        report, seconds = self.op("hmatrix.verify", hmatrix.verify, h,
                                  samples=VERIFY_SAMPLES, seed=self.seed)
        self.samples["verify_s"].append(seconds)
        if report is not None:
            self.check(checks.check_verify(report, h.eps))
        return timed + seconds

    def _commands(self) -> list[tuple]:
        """(span, sample key, argv, output, check) of every CLI command of a round."""
        wl = self.wl
        seed = ["--seed", str(self.seed)]
        eps_flags = [a for e in SWEEP_EPS for a in ("--eps", repr(e))]
        tiling_csv = self.workdir / "tiling.csv"
        tiling = ("cli.verify_tiling", "tiling_s",
                  ["verify-tiling", *TILING_FLAGS, "--samples", str(wl.tiling_samples),
                   *seed, "--out", str(tiling_csv)],
                  tiling_csv, checks.check_tiling)
        commands = []
        for name in FAMILIES:
            rank_csv = self.workdir / f"rank-map-{name}.csv"
            commands.append(("cli.rank_map", f"rank_map_s/{name}",
                             ["rank-map", *family_flags(name, wl.rank_n), "--eps", repr(RANK_EPS),
                              *seed, "--out", str(rank_csv)],
                             rank_csv, lambda p, name=name: checks.check_rank_map(
                                 p, family(name, wl.rank_n), RANK_EPS)))
            sweep_csv = self.workdir / f"eps-sweep-{name}.csv"
            commands.append(("cli.eps_sweep", f"eps_sweep_s/{name}",
                             ["eps-sweep", *family_flags(name, wl.rank_n), *eps_flags, *seed,
                              "--out", str(sweep_csv)],
                             sweep_csv, checks.check_eps_sweep))
            # three shorter tiling checks a round instead of one: a median
            # over a run's ten samples of it moved 0.15-0.20 between runs
            commands.append(tiling)
        return commands

    def _cli(self, span: str, key: str, argv: list[str], path: Path, check) -> float:
        with contextlib.redirect_stdout(sys.stderr):
            _, seconds = self.op(span, cli.main, argv, ok=lambda rc: rc == 0)
        self.samples[key].append(seconds)
        if path.exists():
            with self.untraced():
                body = path.read_bytes()
                first = self.first_outputs.setdefault(str(path), body)
                if first is body:
                    self.check(check(path))
                else:
                    # a repeat must reproduce the checked first output byte for byte
                    self.check(checks.check_same_bytes(first, body, f"{path.name} across repeats"))
        return seconds

    # -- summary ------------------------------------------------------------

    def end_to_end(self, setup_s: float) -> dict:
        """Timings are medians over the run's samples; see the README for why."""
        s = self.samples

        def med(key):
            return float(np.median(s[key]))

        def med_sum(prefix, keys):
            return sum(med(f"{prefix}/{k}") for k in keys)

        return {
            "setup_s": (setup_s, "s"),
            "build_s": (med_sum("build_s", range(len(self.build_set))), "s"),
            "stored_entries": (float(self.stored_entries), "count"),
            "matvec_ms": (med("matvec_ms"), "ms"),
            "load_ms": (med("load_ms"), "ms"),
            "save_ms": (med("save_ms"), "ms"),
            "container_bytes": (float(self.container_bytes), "bytes"),
            "verify_s": (med("verify_s"), "s"),
            "rank_map_s": (med_sum("rank_map_s", FAMILIES), "s"),
            "eps_sweep_s": (med_sum("eps_sweep_s", FAMILIES), "s"),
            "tiling_s": (med("tiling_s"), "s"),
            "peak_rss_mib": (peak_rss_mib(), "MiB"),
        }


def peak_rss_mib() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(wl: Workload, seed: int, seconds: float, workdir: Path, tracer) -> dict:
    """Set up, repeat whole rounds for ``seconds``, and summarise.

    With a ``tracing.Tracer`` the rounds alternate untraced and traced, and
    the result holds the per-layer metrics, per traced round, plus the
    tracing overhead: the traced rounds' median time over the untraced
    rounds' median.  Otherwise it holds the end-to-end metrics.
    """
    import tracing

    trace = isinstance(tracer, tracing.Tracer)
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run(wl, seed, workdir, tracer)
    setup_s = run.set_up()

    round_s = {False: [], True: []}
    rounds = 0
    t0 = time.perf_counter()
    while rounds < wl.min_rounds or time.perf_counter() - t0 < seconds:
        traced = trace and rounds % 2 == 1
        tracer.recording = traced
        tracer.round = rounds
        round_s[traced].append(run.round())
        tracer.recording = False
        rounds += 1

    if trace:
        metrics = tracing.layer_metrics(tracer, len(round_s[True]))
        overhead = float(np.median(round_s[True]) / np.median(round_s[False]) - 1.0)
        metrics["trace.overhead_pct"] = (100.0 * overhead, "%")
        tracer.write_jsonl(workdir / f"trace-seed{seed}.jsonl")
    else:
        metrics = run.end_to_end(setup_s)
    timings = {key: {"n": len(v), "min": float(np.min(v)),
                     **{f"p{q}": float(np.percentile(v, q)) for q in (25, 50, 99)},
                     "samples": [float(t) for t in v]}
               for key, v in run.samples.items()}
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "rounds": rounds,
        "problems": run.problems,
        "timings": timings,
        "metrics": metrics,
    }
