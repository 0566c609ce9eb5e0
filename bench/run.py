"""Benchmark of the tradeflux pipeline, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload paper_mc --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --smoke

``--trace 0`` measures end to end: the real CLI (``python -m tradeflux.cli``
on this tree's ``src/``) runs as child processes, one at a time, repeating
the workload's steps until ``--seconds`` have passed. ``--trace 1`` is the
separate traced run: it times interpreter start-up and import from outside,
runs the steps once more as children for their wall time and peak RSS, then
replays the same library calls in-process with a span around each and
reports self time per layer.

Every operation's output is checked against the library's own in-process
answers (see checks.py). Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--smoke`` runs every workload at n=20, both
untraced and traced, and prints one such line per run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_out"
#: A run must end within 180 s; children are killed past this point.
RUN_LIMIT_S = 170.0
#: Children per start-up and import timing, medians reported.
IMPORT_REPEATS = 5

END_TO_END = {
    "pipeline_s": "s",
    "dollar_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metrics, the same set on every workload: span self times (a
# layer the workload's steps never call is timed alone on its inputs),
# then counts, which read 0 where the workload does not do that work, and
# from-outside process figures. The end-to-end metric each should move,
# and where it should not:
#   ingest.*, network.build/write_edges/write_graphml, disparity.*,
#     backbone.*             pipeline_s on scale_exact; not paper_table
#   network.read_edges       pipeline_s and dollar_s on scale_exact (paid
#                            four times per pipeline, once per table)
#   network.reverse          dollar_s on scale_exact and paper_table; not paper_mc
#   diffusion.mc, .rank      dollar_s on paper_mc and paper_table; not scale_exact
#   diffusion.exact_*        dollar_s on scale_exact; not paper_mc
#   cli.interp_start_s, cli.import_s
#                            every process, most pipeline_s on paper_mc
#   cli.<process>_rss_mb     peak_rss_mb (0 for a process the workload lacks)
#   trace.unaccounted_s      what the spans fail to explain, summed over the
#                            workload's processes (each is printed)
SPANS = (
    "ingest.parse", "ingest.reconcile", "ingest.validate",
    "network.build", "network.accounts", "network.write_edges", "network.read_edges",
    "network.write_graphml", "network.reverse",
    "disparity.profile", "disparity.fit",
    "backbone.sweep", "backbone.write_tsv",
    "diffusion.mc", "diffusion.exact_forward", "diffusion.exact_backward",
    "diffusion.balance", "diffusion.rank",
)
LAYERS = ("ingest", "network", "disparity", "backbone", "diffusion")
COUNTS = {
    "ingest.records": "count",
    "ingest.dropped": "count",
    "ingest.conflicts": "count",
    "ingest.input_bytes": "B",
    "network.edges_bytes": "B",
    "network.graphml_bytes": "B",
    "disparity.degree_classes": "count",
    "backbone.kept_edges": "count",
    "diffusion.mc_walkers_per_s": "1/s",
    "diffusion.mc_non_absorbed": "fraction",
    "diffusion.mc_outside_3se_frac": "fraction",
    "diffusion.exact_m": "count",
    "diffusion.exact_rhs": "count",
    "diffusion.exact_flops_computed": "flop",
    "diffusion.exact_bytes_computed": "B",
    "diffusion.detailed_balance_rel": "ratio",
    "diffusion.reconstruction_rel": "ratio",
}
#: Child processes with their own RSS: the five subcommands, and the
#: paper_table session.
PROCESSES = ("build", "disparity", "backbone", "dollar", "export", "table")


def per_layer_units() -> dict[str, str]:
    units = {f"{name}_s": "s" for name in SPANS}
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update(COUNTS)
    units.update({"cli.interp_start_s": "s", "cli.import_s": "s", "cli.import_scipy_s": "s"})
    units.update({f"cli.{p}_rss_mb": "MB" for p in PROCESSES})
    units["trace.unaccounted_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


class Runner:
    """Runs children one at a time through the launcher (spawn.py), which
    reaps each with ``os.wait4`` for its own peak RSS; a child still running
    at the run's deadline is killed."""

    def __init__(self, launcher: subprocess.Popen, work: Path, deadline: float):
        self.launcher = launcher
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, argv: list[str]) -> Child:
        out_path, err_path = self.work / "child.out", self.work / "child.err"
        request = {
            "argv": argv, "env": self.env, "cwd": str(ROOT),
            "stdout": str(out_path), "stderr": str(err_path),
            "timeout": max(self.left(), 0.1),
        }
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        line = self.launcher.stdout.readline()
        if not line:
            raise RuntimeError("the child launcher exited")
        reply = json.loads(line)
        return Child(
            code=reply["code"],
            wall_s=reply["wall_s"],
            rss_mb=reply["rss_kb"] / 1024.0,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )

    def python(self, *args: str) -> Child:
        return self.run([sys.executable, *args])

    def cli(self, *args) -> Child:
        return self.python("-m", "tradeflux.cli", *map(str, args))

    def left(self) -> float:
        return self.deadline - time.monotonic()


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


@dataclass
class Run:
    workload: object
    seed: int
    runner: Runner
    ref: object = None
    samples: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)  # printed and saved, not in the JSON line
    attempted: int = 0
    failed: int = 0
    mc_ops: int = 0
    mc_failed: int = 0

    @property
    def dir(self) -> Path:
        return self.runner.work

    def mc_seed(self, rep: int) -> int:
        return 1000 * self.seed + rep

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def op(self, name: str, errors: list[str], mc: bool = False) -> None:
        self.attempted += 1
        self.mc_ops += mc
        if errors:
            self.failed += 1
            self.mc_failed += mc
            for e in errors:
                print(f"FAILED {self.workload.name} {name}: {e}", file=sys.stderr)


def checked(check, *args) -> list[str]:
    """Run one output check; a check that cannot even read the output fails."""
    try:
        return check(*args)
    except Exception as exc:  # the output is malformed in some unforeseen way
        return [f"{type(exc).__name__}: {exc}"]


def setup(run: Run) -> None:
    """Generate the inputs and their reference answers, several times over."""
    from tradeflux import write_edge_list

    import workload as wl

    w = run.workload
    exact = {"mc": ("forward",), "exact": (), "both": ("forward", "backward")}[w.dollar]
    for _ in range(wl.SETUPS):
        run.ref = None
        gc.collect()  # each set-up starts from the same heap
        start = time.perf_counter()
        inputs = wl.generate(w.n, w.density, run.seed)
        if w.kind == "pipeline":
            wl.write_records(inputs, run.dir / "records.csv")
        run.ref = wl.reference(inputs, exact)
        if w.kind == "table":
            with open(run.dir / "network.tsv", "w", encoding="utf-8", newline="\n") as fh:
                write_edge_list(run.ref.net, fh)
        run.sample("setup_s", time.perf_counter() - start)


def pipeline_rep(run: Run, rep: int, pool) -> dict[str, Child]:
    """The five subcommands one after another, then every output check."""
    import checks

    w, ref = run.workload, run.ref
    out = run.dir / "out"
    shutil.rmtree(out, ignore_errors=True)
    net = out / "network.tsv"
    focal = ref.consumers[0]
    if w.dollar == "exact":
        dollar = ["--exact"]
        dollar_check = (checks.check_dollar_exact, out, ref, focal)
    else:
        dollar = ["--walkers", w.walkers, "--seed", run.mc_seed(rep)]
        dollar_check = (checks.check_dollar_mc, out, ref, focal, w.walkers, pool,
                        run.mc_seed(rep))
    steps = {
        "build": ["build", run.dir / "records.csv", "--year", 2000, "--policy", "average"],
        "disparity": ["disparity", net],
        "backbone": ["backbone", net],
        "dollar": ["dollar", net, "--from", focal, "--direction", "forward", *dollar,
                   "--top", ref.net.n_nodes],
        "export": ["export", net, "--format", "graphml"],
    }
    children = {}
    start = time.perf_counter()
    for name, argv in steps.items():
        children[name] = child = run.runner.cli(*argv, "-o", out)
        if child.code != 0:
            break
    run.sample("pipeline_s", time.perf_counter() - start)

    verify = {
        "build": lambda c: checked(checks.check_build, out, ref, c.stderr),
        "disparity": lambda c: checked(checks.check_disparity, out, ref),
        "backbone": lambda c: checked(checks.check_backbone, out, ref),
        "dollar": lambda c: checked(*dollar_check),
        "export": lambda c: checked(checks.check_export, out, ref),
    }
    for name in steps:
        child = children.get(name)
        if child is None:
            errors = ["not run: an earlier step failed"]
        elif child.code != 0:
            errors = [f"exit {child.code}: {child.stderr.strip()[-300:]}"]
        else:
            errors = verify[name](child)
            run.sample(f"{name}_s", child.wall_s)
            run.sample("rss_mb", child.rss_mb)
        run.op(name, errors, mc=(name == "dollar" and w.dollar == "mc"))
    return children


def table_rep(run: Run, rep: int, pool) -> Child:
    """One paper_table session in a child process, then its checks."""
    import checks

    w = run.workload
    child = run.runner.python(
        str(BENCH / "table.py"), str(run.dir / "network.tsv"),
        "--walkers", str(w.walkers), "--seed", str(run.mc_seed(rep)),
    )
    run.sample("pipeline_s", child.wall_s)
    result = {}
    if child.code != 0:
        errors = {op: [f"exit {child.code}: {child.stderr.strip()[-300:]}"]
                  for op in checks.TABLE_OPS}
    else:
        try:
            result = json.loads(child.stdout.splitlines()[-1])
            errors = checks.check_table(result, run.ref, w.walkers, pool, run.mc_seed(rep))
        except (ValueError, IndexError, KeyError, TypeError) as exc:
            errors = {op: [f"unreadable result: {exc}"] for op in checks.TABLE_OPS}
        if "dollar_s" in result:
            run.sample("dollar_s", result["dollar_s"])
            run.sample("load_s", result["load_s"])
        run.sample("rss_mb", child.rss_mb)
    for op, errs in errors.items():
        run.op(op, errs, mc=op.startswith("mc_"))
    return child


def settle_mc(run: Run, pool) -> tuple[int, int, int]:
    """Apply the pooled Monte Carlo verdict to every MC operation of the run."""
    outside, cells, allowed = pool.verdict()
    if outside > allowed:
        newly = run.mc_ops - run.mc_failed
        run.failed += newly
        run.mc_failed += newly
        print(f"FAILED {run.workload.name} mc: {outside} of {cells} cells outside "
              f"3 SE (at most {allowed} allowed)", file=sys.stderr)
    return outside, cells, allowed


def measure(run: Run, seconds: float) -> dict:
    """Repeat the workload's steps until ``seconds`` have passed."""
    import checks

    pool = checks.McPool()
    rep_once = pipeline_rep if run.workload.kind == "pipeline" else table_rep
    start = time.perf_counter()
    reps = 0
    while True:
        rep_once(run, reps, pool)
        reps += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or run.runner.left() < 1.5 * elapsed / reps:
            break
    settle_mc(run, pool)
    # a step that never succeeded leaves no sample; the run is failed anyway
    return {
        "pipeline_s": statistics.median(run.samples["pipeline_s"]),
        "dollar_s": statistics.median(run.samples.get("dollar_s", [0.0])),
        "peak_rss_mb": max(run.samples.get("rss_mb", [0.0])),
        "setup_s": statistics.median(run.samples["setup_s"]),
    }


def import_times(run: Run, repeats: int) -> dict[str, float]:
    """Interpreter start-up and ``import tradeflux``, timed from outside."""
    bare = [run.runner.python("-c", "pass").wall_s for _ in range(repeats)]
    full = [run.runner.python("-c", "import tradeflux").wall_s for _ in range(repeats)]
    child = run.runner.python("-X", "importtime", "-c", "import tradeflux")
    scipy_us = 0
    for line in child.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s+(\S+)", line)
        if m and (m[2] == "scipy" or m[2].startswith("scipy.")):
            scipy_us += int(m[1])
    run.op("importtime", [] if child.code == 0 else [child.stderr.strip()[-300:]])
    interp = statistics.median(bare)
    return {
        "cli.interp_start_s": interp,
        "cli.import_s": statistics.median(full) - interp,
        "cli.import_scipy_s": scipy_us / 1e6,
    }


def replay_pipeline(run: Run, tracer, pool) -> Path:
    """The five subcommands' library calls in-process, each output checked.
    Returns the edge list the replay wrote."""
    import checks
    import tracing

    w, ref = run.workload, run.ref
    out = run.dir / "replay"
    out.mkdir()
    network = out / "network.tsv"
    net, valid = tracing.replay_build(tracer, run.dir / "records.csv", out)
    errors = checked(checks.check_network, net, ref)
    if not valid or tracer.counts["ingest.dropped"] != 0:
        errors.append("invalid matrix or dropped records")
    run.op("replay build", errors)
    profiles = tracing.replay_disparity(tracer, network)
    run.op("replay disparity", [] if profiles == ref.profiles else ["profiles differ"])
    stats = tracing.replay_backbone(tracer, network, out)
    run.op("replay backbone", [] if stats == ref.backbone_stats else ["stats differ"])
    focal = ref.consumers[0]
    if w.dollar == "mc":
        matrix, ranking = tracing.replay_dollar_mc(
            tracer, network, focal, w.walkers, run.mc_seed(0), out)
        exact = ref.exact["forward"]
        pool.add(run.mc_seed(0), matrix.shares[0],
                 exact.shares[exact.starts.index(focal)], w.walkers)
        errors = []
    else:
        ranking = tracing.replay_dollar_exact(tracer, network, focal, out)
        errors = [f"{k} exceeds the gate" for k in (
            "diffusion.detailed_balance_rel", "diffusion.reconstruction_rel")
            if not tracer.counts[k] <= checks.GATE]
    errors += checked(checks.check_ranking, ranking, ref, focal, "forward")
    run.op("replay dollar", errors, mc=w.dollar == "mc")
    tracing.replay_export(tracer, network, out)
    run.op("replay export", checked(checks.check_export, out, ref))
    return network


def replay_table(run: Run, tracer, pool) -> Path:
    """The paper_table session in-process, checked like the child's."""
    import checks
    import tracing
    from table import run_table

    w = run.workload
    with tracer.span("cli.table"):
        net = tracing.read_network(tracer, run.dir / "network.tsv")
        result = run_table(net, w.walkers, run.mc_seed(0), span=tracer.span)
    for op, errors in checks.check_table(result, run.ref, w.walkers, pool,
                                         run.mc_seed(0)).items():
        run.op(f"replay {op}", errors, mc=op.startswith("mc_"))
    tracing.record_exact(tracer, net, result["detailed_balance_rel"],
                         result["reconstruction_rel"])
    tracer.count("diffusion.mc_non_absorbed", max(x["non_absorbed"] for x in result["walks"]))
    tracer.count("diffusion.mc_walkers", 4 * w.walkers)
    return run.dir / "network.tsv"


def trace(run: Run, repeats: int) -> dict:
    """The steps once as children for wall time and RSS, then the traced
    in-process replay of the same calls on the same inputs."""
    import checks
    import tracing
    import workload as wl

    w = run.workload
    metrics = import_times(run, repeats)
    pool = checks.McPool()
    tracer = tracing.Tracer(f"{w.name}/seed{run.seed}")
    if w.kind == "pipeline":
        children = pipeline_rep(run, 0, pool)
    else:
        children = {"table": table_rep(run, 0, pool)}
    walls = {n: c.wall_s for n, c in children.items()}
    rss = {n: c.rss_mb for n, c in children.items()}
    replay = replay_pipeline if w.kind == "pipeline" else replay_table
    alone = run.dir / "alone"
    alone.mkdir()
    if w.kind == "table":  # the session has no records; the layers timed alone do
        wl.write_records(wl.generate(w.n, w.density, run.seed), run.dir / "records.csv")
    with tracing.traced_reverse(tracer):
        try:
            network = replay(run, tracer, pool)
            tracing.time_alone(tracer, run.dir / "records.csv", network, run.ref.consumers[0],
                               w.walkers or 1_000_000, run.mc_seed(0), alone)
        except Exception as exc:  # a library call raised: a failed operation
            traceback.print_exc()
            run.op("replay", [f"{type(exc).__name__}: {exc}"])
    outside, cells, _ = settle_mc(run, pool)

    self_s = tracer.self_times()
    for name in SPANS:
        metrics[f"{name}_s"] = self_s.get(name, 0.0)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.startswith(layer + "."))
    for name in COUNTS:
        metrics[name] = tracer.counts.get(name, 0)
    if self_s.get("diffusion.mc"):
        metrics["diffusion.mc_walkers_per_s"] = (
            tracer.counts["diffusion.mc_walkers"] / self_s["diffusion.mc"])
    if cells:
        metrics["diffusion.mc_outside_3se_frac"] = outside / cells
    fixed = metrics["cli.interp_start_s"] + metrics["cli.import_s"]
    for p in PROCESSES:
        metrics[f"cli.{p}_rss_mb"] = rss.get(p, 0.0)
    # per process: its wall time not explained by start-up, import and its spans
    unaccounted = {p: wall - fixed - tracer.layer_time(f"cli.{p}") for p, wall in walls.items()}
    run.notes.update({f"trace.unaccounted.{p}_s": v for p, v in unaccounted.items()})
    metrics["trace.unaccounted_s"] = sum(unaccounted.values())
    RESULTS.mkdir(exist_ok=True)
    tracer.dump(RESULTS / f"trace-{w.name}-seed{run.seed}.json")
    return metrics


# ---------------------------------------------------------------------------
# environment and output
# ---------------------------------------------------------------------------


def environment(workload: str, seed: int) -> dict:
    import ctypes

    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy before 1.26 prints its configuration only
        blas = {}
    threads = {}
    try:
        with open("/proc/self/maps", "r", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads[Path(path).name] = getattr(lib, symbol)()
                break
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads or "unknown",
    }


def run_one(launcher, workload, seed: int, seconds: float, traced: bool,
            repeats: int) -> dict:
    """Set up, measure (or trace) and check one workload; returns the result."""
    deadline = time.monotonic() + RUN_LIMIT_S
    work = WORK / f"{workload.name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(workload, seed, Runner(launcher, work, deadline))
    try:
        setup(run)
        run.runner.python("-c", "import tradeflux")  # compiles the bytecode once
        if traced:
            metrics = trace(run, repeats)
            units = per_layer_units()
        else:
            metrics = measure(run, seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(workload.name, seed)
    for key, value in env.items():
        print(f"env {key}: {value}")
    for name, value in metrics.items():
        print(f"{name:36s} {value:>16.6g} {units[name]}")
    for name in ("build_s", "disparity_s", "backbone_s", "export_s", "load_s"):
        if name in run.samples:
            run.notes[name] = statistics.median(run.samples[name])
    for name, value in run.notes.items():
        print(f"{name:36s} {value:>16.6g} s")
    for name, values in sorted(run.samples.items()):
        print(f"samples {name}: n={len(values)}")
    print(f"{'failed_ops':36s} {run.failed / max(run.attempted, 1):>16.6g} "
          f"ratio ({run.failed} of {run.attempted})")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{workload.name}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps({"environment": env, "samples": run.samples, "notes": run.notes,
                    "result": result}, indent=1)
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at n=20, untraced and traced")
    args = parser.parse_args(argv)
    if not (SRC / "tradeflux" / "cli.py").is_file():
        print(f"bench: no tradeflux sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    # started while this process is still small: see spawn.py
    launcher = subprocess.Popen([sys.executable, str(BENCH / "spawn.py")],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        return bench(launcher, args, parser)
    finally:
        launcher.stdin.close()
        launcher.wait(timeout=30)


def bench(launcher, args, parser) -> int:
    sys.path.insert(0, str(SRC))
    import tradeflux  # noqa: F401  (imported before any set-up is timed)

    import workload as wl

    if args.smoke:
        for w in wl.WORKLOADS.values():
            for traced in (False, True):
                result = run_one(launcher, wl.smoke(w), args.seed, 0.0, traced, repeats=1)
                print(json.dumps(result))
        return 0
    if args.workload not in wl.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(wl.WORKLOADS)}")
    try:
        result = run_one(launcher, wl.WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), IMPORT_REPEATS)
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
