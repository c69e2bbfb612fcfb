"""Outside-in layer tracing for one `rwre-lab run` process.

Wrappers are installed on the names the program's callers look up (for
example ``rwre_lab.cli.detect_renewals`` and ``rwre_lab.cone.detect_renewals``
for the renewal scan), so the package source is untouched.  Each call
becomes a span with a layer, a name and a parent.  A span's self time is its
duration minus the part of it that its child spans cover; children include
spans in the CLI's pool threads, whose parent is the span that submitted the
task.  Counts come from call arguments and return values only.

Installing a wrapper on a name that no longer exists raises
``MissingTarget``: a traced run must fail rather than report zero.

``python3 perfbench/tracer.py`` measures what one span costs on this host.
"""

from __future__ import annotations

import inspect
import os
import threading
import types
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable

_FROM_STACK = object()


class MissingTarget(RuntimeError):
    """A wrapper's target name is gone from the program."""


def _covered(children: list[tuple[float, float]], t0: float, t1: float) -> float:
    """Length of the union of child intervals, clipped to [t0, t1]."""
    total = 0.0
    end = t0
    for a, b in sorted(children):
        a, b = max(a, end), min(b, t1)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    """Span and count accumulator shared by every wrapper of one process."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = threading.main_thread()
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, incl_s, self_s
        self.layer_self: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.errors: list[str] = []
        self.bookkeeping_s = 0.0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> list | None:
        """The innermost open span of this thread: the list of its children's intervals."""
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, layer, name, fn, args, kwargs, count=None, parent=_FROM_STACK):
        """Run ``fn`` as a span; its parent is this thread's innermost span unless given.

        The span's own bookkeeping runs between ``te`` and ``tx``, outside
        ``[t0, t1]``.  The parent sees the child as covering ``[te, tx]``, so
        the bookkeeping is charged to neither; it is summed in ``bookkeeping_s``.
        """
        te = perf_counter()
        stack = self._stack()
        if parent is _FROM_STACK:
            parent = stack[-1] if stack else None
        if parent is None and threading.current_thread() is not self._main:
            with self._lock:
                self.errors.append(f"span {name} started in a worker thread with no parent")
        span: list[tuple[float, float]] = []
        stack.append(span)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            own = (t1 - t0) - _covered(span, t0, t1)
            with self._lock:
                agg = self.spans[name]
                agg[0] += 1
                agg[1] += t1 - t0
                agg[2] += own
                self.layer_self[layer] += own
        if count is not None:
            with self._lock:
                count(self.counts, result, lambda: _bind(fn, args, kwargs))
        tx = perf_counter()
        if parent is not None:
            parent.append((te, tx))
        with self._lock:
            self.bookkeeping_s += (tx - te) - (t1 - t0)
        return result

    def wrap(self, owner, attr: str, layer: str, name: str, count: Callable | None = None) -> None:
        """Replace ``owner.attr`` (a module or class attribute) by a traced wrapper."""
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        if attr not in vars(owner) or not callable(vars(owner)[attr]):
            raise MissingTarget(f"trace target {label} does not exist")
        orig = vars(owner)[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.call(layer, name, orig, args, kwargs, count)

        wrapper.__wrapped__ = orig
        setattr(owner, attr, wrapper)

    def propagate_into_pool(self, module) -> None:
        """Make tasks submitted to ``module.ThreadPoolExecutor`` children of the submitting span."""
        base = vars(module).get("ThreadPoolExecutor")
        if base is None:
            return  # no pool; worker spans without a parent are reported as errors
        tracer = self

        class TracedPool(base):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()
                return super().submit(
                    tracer.call, "walk", "walk.pool_task", fn, args, kwargs, None, parent
                )

        module.ThreadPoolExecutor = TracedPool

    def snapshot(self) -> dict:
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "layers": dict(self.layer_self),
            "counts": dict(self.counts),
            "errors": list(self.errors),
            "bookkeeping_s": self.bookkeeping_s,
        }


def _bind(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _lanes(key: str | None = None):
    def count(counts, result, _bind_args):
        n = int(getattr(result, "size", 1))
        counts["rng.lanes"] += n
        if key:
            counts[key] += n

    return count


def _arg(key: str, arg: str):
    def count(counts, _result, bind_args):
        counts[key] += int(bind_args()[arg])

    return count


def _sites(counts, result, _bind_args):
    counts["env.sites"] += int(result.shape[0])


def _renewals(counts, result, _bind_args):
    counts["cone.renewals_confirmed"] += int(result.n_confirmed)


def _region_sites(counts, result, _bind_args):
    counts["oracle.sites"] += int(result.sites.shape[0])


def _written(counts, result, bind_args):
    bound = bind_args()
    counts["cli.rows"] += len(bound["rows"])
    out_dir = Path(bound["out_dir"])
    # manifest.json holds timestamps, so only the result files are counted
    counts["cli.output_bytes"] += sum(
        os.path.getsize(out_dir / name) for name in result if name != "manifest.json"
    )


def install() -> Tracer:
    """Wrap every layer boundary the benchmark workloads cross."""
    from rwre_lab import cli, cone, env, oracle, stats, walk

    t = Tracer()
    # rng: counter-hash draws, at each module that draws
    t.wrap(walk, "stream_u01", "rng", "rng.stream_u01", _lanes("walk.walker_steps"))
    t.wrap(walk, "derive_key", "rng", "rng.derive_key", _lanes())
    t.wrap(env, "stream_u01", "rng", "rng.stream_u01", _lanes())
    t.wrap(env, "stream_u01_open", "rng", "rng.stream_u01_open", _lanes())
    t.wrap(env, "stream_normal", "rng", "rng.stream_normal", _lanes())
    t.wrap(env, "derive_key", "rng", "rng.derive_key", _lanes())
    t.wrap(oracle, "derive_key", "rng", "rng.derive_key", _lanes())
    t.wrap(cli, "derive_key", "rng", "rng.derive_key", _lanes())
    # env: site transition vectors (the step kernel's and the oracle's lookups)
    t.wrap(walk, "transitions_for", "env", "env.transitions_for", _sites)
    t.wrap(env, "transitions_for", "env", "env.transitions_for", _sites)
    # walk: ensembles, position reconstruction, trajectory serialisation
    t.wrap(cli, "simulate_ensemble", "walk", "walk.simulate_ensemble", _arg("walk.walks", "n_walks"))
    t.wrap(cone, "simulate_ensemble", "walk", "walk.simulate_ensemble", _arg("walk.walks", "n_walks"))
    t.wrap(cli, "run_slab_ensemble", "walk", "walk.run_slab_ensemble", _arg("walk.walks", "n_walks"))
    t.wrap(stats, "run_slab_ensemble", "walk", "walk.run_slab_ensemble", _arg("walk.walks", "n_walks"))
    t.wrap(walk.Trajectory, "positions", "walk", "walk.positions")
    t.wrap(cli, "trajectories_to_jsonl", "walk", "walk.trajectories_to_jsonl")
    t.propagate_into_pool(walk)
    # cone: renewal detection and the interpolation-weight scan
    t.wrap(cli, "detect_renewals", "cone", "cone.detect_renewals", _renewals)
    t.wrap(cone, "detect_renewals", "cone", "cone.detect_renewals", _renewals)
    t.wrap(cli, "lambda_scan", "cone", "cone.lambda_scan")
    # stats: estimators
    t.wrap(cli, "renewal_mean_identity", "stats", "stats.renewal_mean_identity")
    t.wrap(cli, "independence_test", "stats", "stats.independence_test")
    t.wrap(cli, "pooled_increments", "stats", "stats.pooled_increments")
    t.wrap(cli, "slab_exit_decay", "stats", "stats.slab_exit_decay")
    # oracle: region build and exact solve
    t.wrap(cli, "annealed_exit", "oracle", "oracle.annealed_exit")
    t.wrap(oracle, "exact_quenched_exit", "oracle", "oracle.exact_quenched_exit")
    t.wrap(oracle.SlabRegion, "build", "oracle", "oracle.build", _region_sites)
    # cli: the whole command, and output writing
    t.wrap(cli, "_write_outputs", "cli", "cli.write_outputs", _written)
    t.wrap(cli, "main", "cli", "cli.main")
    return t


def calibrate(n: int = 200_000) -> dict[str, float]:
    """Cost of one span around a no-op, in ns: in all, in ``bookkeeping_s``, and left in the parent's self time."""

    def noop():
        return None

    def loop(f):
        for _ in range(n):
            f()

    t = Tracer()
    target = types.SimpleNamespace(noop=noop)
    t.wrap(target, "noop", "child", "child")
    t0 = perf_counter()
    loop(noop)
    bare = perf_counter() - t0
    t0 = perf_counter()
    t.call("parent", "parent", loop, (target.noop,), {})
    traced = perf_counter() - t0
    return {
        "ns_per_span": 1e9 * (traced - bare) / n,
        "bookkeeping_ns_per_span": 1e9 * t.bookkeeping_s / n,
        "parent_self_ns_per_span": 1e9 * (t.layer_self["parent"] - bare) / n,
    }


if __name__ == "__main__":
    for key, value in calibrate().items():
        print(f"{key} {value:.0f}")
