"""rwre-lab benchmark: times `rwre-lab run` from outside and checks its output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  Every sample is a fresh child process
(perfbench/child.py) that calls ``rwre_lab.cli.main(["run", ...])`` from the
checkout's ``src`` with ``RWRE_LAB_THREADS`` unset and no ``--threads``, so
the CLI picks its default thread count, except where ``CLI_THREADS`` in
workloads.py names one.  The parent times the child from
spawn to exit and reads its CPU time and peak RSS from ``os.wait4``.

Each run starts with one reference sample at the default seed, whose
results.jsonl must match the committed reference, then repeats the workload
until ``--seconds``, counted from the start of the reference sample, are used
up.  The timed samples cycle through ``SEEDS_PER_RUN`` seeds: ``--seed`` and
seeds derived from it (``run_seeds``).  After each untraced sample it also
spawns ``SETUP_PROBES`` children that only import the package, so that
``setup_s`` is a median over many set-ups.  Every sample's results.jsonl
must equal every other one for the same (workload, seed, code), in this run
and in earlier runs in the same checkout.  With ``--trace 1`` samples alternate
between untraced and traced (see tracer.py), and the run reports per-layer
metrics instead of end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the host record, each metric's median, upper percentile and sample
count, and the error rate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import CLI_THREADS, DEFAULT_SEED, EXPECTED_NONZERO, WORKLOADS, config_for

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference"
ENV_THREADS = "RWRE_LAB_THREADS"
MIN_SAMPLES = 3
SETUP_PROBES = 2
# How many seeds a run's timed samples cycle through.  The work of one sample
# depends on its seed (oracle-slab's Jacobi sweep count spread by 0.14 of its
# median over ten seeds), so a median over samples at a few seeds varies less
# from one --seed to the next than samples at one seed do.  From a run's
# fourth sample on, seeds repeat, so outputs are compared within the run too.
SEEDS_PER_RUN = 3
GOLDEN = 0x9E3779B97F4A7C15
ORACLE_TOLERANCES = ("exact_mean=1e-9", "exact_ci=1e-9")

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER = {
    "cone.self_s": "s",
    "cone.ms_per_walk": "ms",
    "cone.calls": "count",
    "cone.renewals_confirmed": "count",
    "cone.scan_s": "s",
    "walk.self_s": "s",
    "walk.walker_steps": "count",
    "walk.ns_per_walker_step": "ns",
    "walk.positions_calls": "count",
    "walk.positions_per_walk": "calls/walk",
    "walk.positions_s": "s",
    "env.self_s": "s",
    "env.calls": "count",
    "env.sites": "count",
    "env.ns_per_site": "ns",
    "rng.self_s": "s",
    "rng.lanes": "count",
    "stats.renewal_mean_identity_s": "s",
    "stats.independence_test_s": "s",
    "stats.self_s": "s",
    "oracle.build_s": "s",
    "oracle.solve_s": "s",
    "oracle.sites": "count",
    "oracle.solves": "count",
    "oracle.us_per_site": "us",
    "oracle.self_s": "s",
    "cli.write_s": "s",
    "cli.output_bytes": "bytes",
    "cli.rows": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.bookkeeping_s": "s",
    "trace.spans": "count",
}

# Per-layer metrics that are exact work counts; every other one is a time.
COUNTS = {k for k, unit in PER_LAYER.items() if unit in ("count", "bytes", "calls/walk")}


@dataclass
class Sample:
    wall: float
    cpu: float
    rss_mb: float
    setup: float | None
    rc: int
    results: Path | None
    stamp: dict | None
    trace: dict | None
    digest: str | None = None
    errors: list[str] = field(default_factory=list)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def code_digest(src: Path) -> str:
    """sha256 over the package sources: identifies the code version under test."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return out.stdout.strip() or None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


class Sampler:
    """Spawns samples of one workload config and checks their outputs."""

    def __init__(self, root: Path, work: Path, name: str, cfg: dict):
        self.root = root
        self.work = work
        self.name = name
        self.config = work / "config.json"
        config_bytes = (json.dumps(cfg, sort_keys=True) + "\n").encode()
        self.config_sha = hashlib.sha256(config_bytes).hexdigest()
        work.mkdir(parents=True, exist_ok=True)
        self.config.write_bytes(config_bytes)
        self.threads = CLI_THREADS.get(name)
        self.env = dict(os.environ)
        self.env.pop(ENV_THREADS, None)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        self.code = code_digest(root / "src")
        # First output digest and traced counts per (workload, seed, config, code),
        # kept across runs in one checkout so that every later sample must agree.
        self.store_path = work.parent / "digests.json"
        self.store = json.loads(self.store_path.read_text()) if self.store_path.exists() else {}

    def spawn(self, seed: int, traced: bool) -> Sample:
        out = self.work / ("out-traced" if traced else "out")
        trace_path = self.work / "trace.json"
        shutil.rmtree(out, ignore_errors=True)
        trace_path.unlink(missing_ok=True)
        cli_args = ["run", "--config", str(self.config), "--out", str(out), "--seed", str(seed)]
        if self.threads is not None:
            cli_args += ["--threads", str(self.threads)]
        s = self._child(str(trace_path) if traced else "-", cli_args)
        s.results = out / "results.jsonl"
        s.trace = json.loads(trace_path.read_text()) if traced and trace_path.exists() else None
        return s

    def setup_probe(self) -> Sample:
        """A child that imports the package and exits: one more set-up time."""
        s = self._child("-", [])
        if s.rc != 0:
            s.errors.append(f"set-up probe exit code {s.rc}")
        if s.stamp is None:
            s.errors.append("set-up probe never reported the end of set-up")
        return s

    def _child(self, trace_out: str, cli_args: list[str]) -> Sample:
        r, w = os.pipe()
        argv = [sys.executable, str(CHILD), str(w), trace_out, *cli_args]
        try:
            t0 = time.monotonic()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, pass_fds=(w,), stdout=sys.stderr)
            os.close(w)
            w = -1
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.monotonic() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            with os.fdopen(r, "rb") as fh:
                r = -1
                line = fh.read().decode().strip()
        finally:
            for fd in (r, w):
                if fd >= 0:
                    os.close(fd)
        stamp = json.loads(line) if line else None
        return Sample(
            wall=wall,
            cpu=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            setup=stamp["imported"] - t0 if stamp else None,
            rc=proc.returncode,
            results=None,
            stamp=stamp,
            trace=None,
        )

    def sample(self, seed: int, traced: bool = False) -> Sample:
        """One checked sample: exit code, output agreement and, if traced, counts."""
        s = self.spawn(seed, traced)
        if s.rc != 0:
            s.errors.append(f"exit code {s.rc}")
        if s.stamp is None:
            s.errors.append("child never reported the end of set-up")
        if not s.results.is_file():
            s.errors.append("no results.jsonl")
            return s
        s.digest = sha256_file(s.results)
        known = self.store.setdefault(f"{self.name}|{seed}|{self.config_sha}|{self.code}", {})
        _agree(known, "digest", s.digest, s, f"results.jsonl at seed {seed}")
        if traced:
            counts = self.trace_counts(s)
            if counts is not None:
                _agree(known, "counts", counts, s, f"traced counts at seed {seed}")
        return s

    def trace_counts(self, s: Sample) -> dict | None:
        if s.trace is None:
            s.errors.append("traced child wrote no trace")
            return None
        s.errors.extend(f"trace: {e}" for e in s.trace["errors"])
        metrics = layer_metrics(s.trace)
        for key in EXPECTED_NONZERO[self.name]:
            if not metrics[key] > 0:
                s.errors.append(f"trace: {key} reads {metrics[key]}; a wrapper no longer sees its layer")
        return {k: metrics[k] for k in sorted(COUNTS)}

    def check_reference(self, s: Sample) -> None:
        """Default-seed output against the committed reference."""
        if s.digest is None:
            return
        if self.name == "oracle-slab":
            ref = REFERENCE / "oracle-slab.results.jsonl"
            cmd = [sys.executable, "-m", "rwre_lab.cli", "compare", str(ref), str(s.results)]
            for tol in ORACLE_TOLERANCES:
                cmd += ["--tol", tol]
            out = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, text=True)
            if out.returncode != 0:
                s.errors.append(
                    f"rwre-lab compare against the reference exited {out.returncode}: "
                    f"{out.stdout.strip()} {out.stderr.strip()}"
                )
        else:
            want = json.loads((REFERENCE / "digests.json").read_text())[self.name]
            if s.digest != want:
                s.errors.append(f"results.jsonl sha256 {s.digest} is not the reference {want}")

    def save_store(self) -> None:
        tmp = self.store_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.store, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, self.store_path)


def _agree(known: dict, field: str, value, s: Sample, what: str) -> None:
    """Record the first clean sample's ``value``; every later one must equal it."""
    if field not in known:
        if not s.errors:
            known[field] = value
    elif known[field] != value:
        s.errors.append(f"{what} does not match an earlier sample")


def _span(trace: dict, name: str, col: int) -> float:
    return trace["spans"].get(name, [0, 0.0, 0.0])[col]


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics of one traced sample (all but trace.overhead_s)."""
    calls = lambda n: _span(trace, n, 0)  # noqa: E731
    incl = lambda n: _span(trace, n, 1)  # noqa: E731
    layer = lambda n: trace["layers"].get(n, 0.0)  # noqa: E731
    count = lambda n: trace["counts"].get(n, 0)  # noqa: E731
    steps = count("walk.walker_steps")
    kernel_s = incl("walk.simulate_ensemble") + incl("walk.run_slab_ensemble")
    sites = count("oracle.sites")
    return {
        "cone.self_s": layer("cone"),
        "cone.ms_per_walk": _ratio(incl("cone.detect_renewals"), calls("cone.detect_renewals"), 1e3),
        "cone.calls": calls("cone.detect_renewals"),
        "cone.renewals_confirmed": count("cone.renewals_confirmed"),
        "cone.scan_s": incl("cone.lambda_scan"),
        "walk.self_s": layer("walk"),
        "walk.walker_steps": steps,
        "walk.ns_per_walker_step": _ratio(kernel_s, steps, 1e9),
        "walk.positions_calls": calls("walk.positions"),
        "walk.positions_per_walk": _ratio(calls("walk.positions"), count("walk.walks")),
        "walk.positions_s": incl("walk.positions"),
        "env.self_s": layer("env"),
        "env.calls": calls("env.transitions_for"),
        "env.sites": count("env.sites"),
        "env.ns_per_site": _ratio(incl("env.transitions_for"), count("env.sites"), 1e9),
        "rng.self_s": layer("rng"),
        "rng.lanes": count("rng.lanes"),
        "stats.renewal_mean_identity_s": incl("stats.renewal_mean_identity"),
        "stats.independence_test_s": incl("stats.independence_test"),
        "stats.self_s": layer("stats"),
        "oracle.build_s": incl("oracle.build"),
        "oracle.solve_s": incl("oracle.exact_quenched_exit"),
        "oracle.sites": sites,
        "oracle.solves": calls("oracle.exact_quenched_exit"),
        "oracle.us_per_site": _ratio(incl("oracle.build") + incl("oracle.exact_quenched_exit"), sites, 1e6),
        "oracle.self_s": layer("oracle"),
        "cli.write_s": incl("cli.write_outputs"),
        "cli.output_bytes": count("cli.output_bytes"),
        "cli.rows": count("cli.rows"),
        "cli.self_s": layer("cli"),
        "trace.bookkeeping_s": trace["bookkeeping_s"],
        "trace.spans": sum(agg[0] for agg in trace["spans"].values()),
    }


def upper_percentile(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def host_record(sampler: Sampler, stamp: dict | None) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": stamp.get("numpy") if stamp else None,
        "cli_default_threads": stamp.get("cli_threads") if stamp else None,
        "cli_threads": sampler.threads or (stamp.get("cli_threads") if stamp else None),
        "git_commit": git_commit(sampler.root),
        "src_sha256": sampler.code,
        ENV_THREADS: "unset in every sample",
    }


def end_to_end(samples: list[Sample], probes: list[Sample]) -> dict[str, list[float]]:
    return {
        "wall_s": [s.wall for s in samples],
        "cpu_s": [s.cpu for s in samples],
        "peak_rss_mb": [s.rss_mb for s in samples],
        "setup_s": [s.setup for s in samples + probes if s.setup is not None],
    }


def per_layer(traced: list[Sample], untraced: list[Sample]) -> dict[str, float]:
    per_sample = [layer_metrics(s.trace) for s in traced if s.trace is not None]
    out = {}
    for name in PER_LAYER:
        if name == "trace.overhead_s":
            out[name] = statistics.median(s.wall for s in traced) - statistics.median(s.wall for s in untraced)
        elif not per_sample:
            out[name] = 0.0
        elif name in COUNTS:
            out[name] = per_sample[0][name]
        else:
            out[name] = statistics.median(m[name] for m in per_sample)
    return out


def run_seeds(seed: int) -> list[int]:
    """``seed`` and the seeds derived from it that one run's samples cycle through."""
    return [(seed + i * GOLDEN) % 2**64 for i in range(SEEDS_PER_RUN)]


def timed_run(sampler: Sampler, seed: int, seconds: float, trace: bool) -> dict[str, list[Sample]]:
    """The reference sample, then samples at ``run_seeds(seed)`` until ``seconds`` are used up.

    Untraced samples are each followed by ``SETUP_PROBES`` set-up probes, or,
    with ``trace``, by one traced sample at the same seed.
    """
    start = time.monotonic()
    ref = sampler.sample(DEFAULT_SEED)
    sampler.check_reference(ref)
    runs: dict[str, list[Sample]] = {"reference": [ref], "untraced": [], "traced": [], "probes": []}
    seeds = run_seeds(seed)
    while True:
        t0 = time.monotonic()
        at = seeds[len(runs["untraced"]) % len(seeds)]
        runs["untraced"].append(sampler.sample(at))
        if trace:
            runs["traced"].append(sampler.sample(at, traced=True))
        else:
            runs["probes"] += [sampler.setup_probe() for _ in range(SETUP_PROBES)]
        used = time.monotonic() - start
        if len(runs["untraced"]) >= (1 if trace else MIN_SAMPLES) and used + (time.monotonic() - t0) > seconds:
            return runs


def report(name: str, metrics: dict, units: dict, samples: dict | None = None) -> None:
    for metric, value in metrics.items():
        line = f"{name} {metric} {value!r} {units[metric]}"
        if samples is not None:
            values = samples[metric]
            up = upper_percentile(values)
            tail = f"p{up[0]:.0f} {up[1]!r}" if up else "no percentile has 10 samples above it"
            line += f" (median of n={len(values)}; {tail})"
        print(line)


def run(args: argparse.Namespace, root: Path) -> int:
    name = args.workload
    sampler = Sampler(root, root / "perfbench" / ".work" / name, name, config_for(name))
    runs = timed_run(sampler, args.seed, args.seconds, bool(args.trace))
    sampler.save_store()
    untraced, traced = runs["untraced"], runs["traced"]
    every = [s for group in runs.values() for s in group]
    failed = [s for s in every if s.errors]
    for s in failed:
        print(f"{name}: failed sample: {'; '.join(s.errors)}", file=sys.stderr)
    print("host " + json.dumps(host_record(sampler, runs["reference"][0].stamp), sort_keys=True))
    print(
        f"{name} seeds {run_seeds(args.seed)}: {len(untraced)} untraced and {len(traced)} traced samples"
        f" and {len(runs['probes'])} set-up probes after one reference sample at seed {DEFAULT_SEED}"
    )
    if args.trace:
        metrics = per_layer(traced, untraced)
        report(name, metrics, PER_LAYER)
    else:
        series = end_to_end(untraced, runs["probes"])
        metrics = {k: statistics.median(v) if v else 0.0 for k, v in series.items()}
        report(name, metrics, END_TO_END, series)
        print(f"{name} wall_s per sample {[round(w, 4) for w in series['wall_s']]}")
    print(f"{name} error_rate {len(failed) / len(every)!r} ratio ({len(failed)} of {len(every)} samples failed)")
    result = {
        "correct": not failed,
        "attempted": len(every),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": (PER_LAYER if args.trace else END_TO_END)[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def smoke(root: Path) -> int:
    """Every workload once at tiny size, untraced and traced; checks every metric and unit."""
    declared = json.loads((root / "BENCHMARK.json").read_text())
    problems = []
    for kind, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        theirs = {m["name"]: m["unit"] for m in declared[kind]}
        if theirs != ours:
            problems.append(f"BENCHMARK.json {kind} {theirs} does not match the harness {ours}")
    listed = [w["name"] for w in declared["workloads"]]
    if listed != list(WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {listed} do not match the harness {list(WORKLOADS)}")
    for name in WORKLOADS:
        sampler = Sampler(root, root / "perfbench" / ".work" / f"smoke-{name}", name, config_for(name, smoke=True))
        plain = sampler.sample(DEFAULT_SEED)
        traced = sampler.sample(DEFAULT_SEED, traced=True)
        probe = sampler.setup_probe()
        for s in (plain, traced, probe):
            problems.extend(f"{name}: {e}" for e in s.errors)
        series = end_to_end([plain], [probe])
        report(name, {k: v[0] if v else 0.0 for k, v in series.items()}, END_TO_END)
        report(name, per_layer([traced], [plain]), PER_LAYER)
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "rwre_lab" / "cli.py").is_file():
        print("error: run from the root of an rwre-lab checkout (src/rwre_lab/cli.py not found)", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(root)
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")
    return run(args, root)


if __name__ == "__main__":
    sys.exit(main())
