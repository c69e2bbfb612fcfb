"""The three benchmark workloads as `rwre-lab run` configs.

Each workload is the experiment config a user would write, at a size that
fits several samples into one timed run.  ``SMOKE_SIZES`` shrinks each one
to a few seconds for the smoke check.  The config always carries
``DEFAULT_SEED``; the seed under test reaches the program as ``--seed``, so
the config bytes (and the ``config_hash`` column of results.jsonl) do not
depend on the seed.
"""

from __future__ import annotations

import copy

DEFAULT_SEED = 20260808

_DRIFT = [0.4, 0.1, 0.25, 0.25]
_MIXTURE = {
    "kind": "mixture",
    "atoms": [[0.4, 0.1, 0.25, 0.25], [0.1, 0.4, 0.25, 0.25]],
    "weights": [0.6, 0.4],
}

WORKLOADS: dict[str, dict] = {
    # Criterion-4 shape: cone renewal scan over long homogeneous walks.  The
    # CLI's lambda scan is a fixed 200 walks x 4,000 steps x 4 lambdas; 500
    # main-pass walks x 10,000 steps keep the main pass the larger part.
    "renewal-identity": {
        "experiment": "renewal-identity",
        "dimension": 2,
        "master_seed": DEFAULT_SEED,
        "n_walks": 500,
        "horizon": 10000,
        "confirm_horizon": 1000,
        "model": {"kind": "homogeneous", "probs": _DRIFT},
        "cone": {"sigma": [1, 1], "basis": [[1, 1], [1, -1]], "l": [1, 0], "lambda": "scan"},
    },
    # Criterion-8 shape: early-stopping slab kernel over a two-atom mixture.
    # 16384 walks are two full 8192-walker chunks, run one after the other
    # (see CLI_THREADS).
    "slab-decay": {
        "experiment": "slab",
        "dimension": 2,
        "master_seed": DEFAULT_SEED,
        "n_walks": 16384,
        "horizon": 20000,
        "model": _MIXTURE,
        "slab": {"l_prime": [1, 0], "b": 1, "L_list": [5, 10, 20]},
    },
    # Exact oracle on a 3,159-site slab (above DENSE_LIMIT, so the sweep
    # solver runs) plus a Dirichlet Monte Carlo cross-check.  The sweep count
    # differs by environment (3,600 to 13,500 sweeps), so all 8 environments
    # are kept to average it out within one sample; SEEDS_PER_RUN in run.py
    # averages what is left over three seeds.  The slab loop runs until
    # its slowest walker exits, and with Dirichlet sites a step costs about
    # the same however few walkers remain, so at horizon 20,000 the run time
    # followed the seed's slowest walker (1,300 to 2,800 steps).  Horizon
    # 1,000 always binds, leaving a few walkers censored.
    "oracle-slab": {
        "experiment": "oracle-compare",
        "dimension": 2,
        "master_seed": DEFAULT_SEED,
        "n_walks": 125,
        "horizon": 1000,
        "model": {"kind": "dirichlet", "alphas": [1.5, 1.2, 1.35, 1.35]},
        "oracle": {
            "region": {"kind": "slab", "l_prime": [1, 0], "b": 1, "L": 20, "bound_width": 40},
            "target_class": "Left",
            "n_env": 8,
        },
    },
}

# ``--threads`` passed to the CLI, for the workloads that do not use its
# default of os.cpu_count() threads.  With two pool threads on a 2-CPU shared
# host, slab-decay's wall time followed the GIL hand-offs between the two CPUs
# rather than the program: ten runs spread by 0.19 and 0.38 of their median,
# and one thread was as fast (3.7 to 4.8 s against 4.7 to 5.0 s) at two
# thirds of the CPU time.  The other workloads have a single chunk, so the
# CLI runs them on one thread whatever it resolves.
CLI_THREADS: dict[str, int] = {"slab-decay": 1}

SMOKE_SIZES: dict[str, dict] = {
    "renewal-identity": {"n_walks": 8, "horizon": 2000, "confirm_horizon": 200},
    "slab-decay": {"n_walks": 64},
    "oracle-slab": {"n_walks": 8, "oracle": {"n_env": 1}},
}

# Per-layer counts that must be positive in a traced run of each workload.
# A wrapper left on a name the program no longer calls would read zero here.
EXPECTED_NONZERO: dict[str, tuple[str, ...]] = {
    "renewal-identity": (
        "cone.calls",
        "cone.renewals_confirmed",
        "walk.walker_steps",
        "walk.positions_calls",
        "rng.lanes",
        "cli.rows",
    ),
    "slab-decay": ("walk.walker_steps", "env.calls", "env.sites", "rng.lanes", "cli.rows"),
    "oracle-slab": (
        "oracle.solves",
        "oracle.sites",
        "env.sites",
        "walk.walker_steps",
        "rng.lanes",
        "cli.rows",
    ),
}


def config_for(name: str, smoke: bool = False) -> dict:
    """The config of workload ``name``; ``smoke`` selects the tiny sizes."""
    cfg = copy.deepcopy(WORKLOADS[name])
    if smoke:
        for key, value in SMOKE_SIZES[name].items():
            if isinstance(value, dict):
                cfg[key].update(value)
            else:
                cfg[key] = value
    return cfg
