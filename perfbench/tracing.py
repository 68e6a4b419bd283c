"""Per-layer counts and times, recorded from outside the program.

A traced pass replaces public entlqg functions with counting and timing
wrappers at the place where the calling module binds them, so the same
function called from two modules is two sites: ``entlqg.unravelling.riccati_rhs``
is relaxation work, ``entlqg.trajectories.riccati_rhs`` is the covariance
path of the simulator. A site's self time is its busy time minus the time
covered by the wrapped sites it called.
"""

from __future__ import annotations

import importlib
import os
import threading
import time
import warnings
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# (module, attribute path, layer key). Each row is one binding site.
SITES = (
    ("entlqg.nopo", "log_negativity", "gaussian"),
    ("entlqg.nopo", "von_neumann_entropy", "gaussian"),
    ("entlqg.unravelling", "lyapunov_steady", "dynamics.lyapunov"),
    ("entlqg.cli", "lyapunov_steady", "dynamics.lyapunov"),
    ("entlqg", "riccati_steady", "unravelling.riccati"),
    ("entlqg.cli", "riccati_steady", "unravelling.riccati"),
    ("entlqg.trajectories", "riccati_steady", "unravelling.riccati"),
    ("entlqg.unravelling", "riccati_rhs", "unravelling.riccati_rhs"),
    ("entlqg.nopo", "recover_unravelling", "unravelling.recover"),
    ("entlqg.cli", "recover_unravelling", "unravelling.recover"),
    ("entlqg.nopo", "closed_loop", "feedback"),
    ("entlqg.nopo", "optimal_gain", "feedback"),
    ("entlqg.nopo", "homodyne_gain", "feedback"),
    ("entlqg.nopo", "heterodyne_gain", "feedback"),
    ("entlqg.nopo", "homodyne_stable", "feedback"),
    ("entlqg.nopo", "heterodyne_stable", "feedback"),
    ("entlqg", "optimize_scheme", "nopo.optimize_scheme"),
    ("entlqg.cli", "optimize_scheme", "nopo.optimize_scheme"),
    ("entlqg.nopo", "homodyne_closed_form_V", "nopo.objective"),
    ("entlqg.nopo", "heterodyne_closed_form_V", "nopo.objective"),
    ("entlqg", "simulate_conditional", "trajectories.simulate"),
    ("entlqg.cli", "simulate_conditional", "trajectories.simulate"),
    ("entlqg.trajectories", "riccati_rhs", "trajectories.cov_path"),
    ("entlqg.cli", "verify.callback", "cli.verify"),
)

TRANSIENT_WARNING = "slowest closed-loop time constant"
RSS_SAMPLE_S = 0.005
PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")

_COUNTS = ("gaussian.calls", "dynamics.lyapunov.calls", "unravelling.riccati.calls",
           "unravelling.riccati_rhs.calls", "unravelling.recover.calls",
           "unravelling.recover.failed", "feedback.calls", "nopo.optimize_scheme.calls",
           "nopo.objective_evals", "trajectories.simulate.calls",
           "trajectories.cov_path.rhs_calls", "trajectories.traj_steps",
           "trajectories.transient_warnings", "cli.verify.calls")
_SECONDS = ("gaussian.busy_s", "dynamics.lyapunov.busy_s", "unravelling.riccati.busy_s",
            "unravelling.recover.busy_s", "feedback.busy_s", "nopo.optimize_scheme.busy_s",
            "nopo.optimize_scheme.self_s", "trajectories.simulate.busy_s",
            "trajectories.simulate.self_s", "trajectories.cov_path.busy_s",
            "cli.verify.self_s")
#: Unit of every per-layer metric a traced run reports.
UNITS = {**{k: "count" for k in _COUNTS}, **{k: "s" for k in _SECONDS},
         "trajectories.traj_steps_per_s": "1/s", "trajectories.peak_rss_growth_mb": "MB",
         "unravelling.riccati.max_rel_residual": "1", "unravelling.lmi.min_margin": "1",
         "trace.overhead_ratio": "1"}

# Counts that depend only on the inputs; recorded per operation.
EXACT_COUNTS = ("nopo.objective", "unravelling.riccati_rhs", "trajectories.cov_path")


class RssSampler:
    """Peak growth of this process's resident memory while the block runs.

    A thread reads /proc/self/statm every RSS_SAMPLE_S. tracemalloc would
    give exact allocation peaks, but it slows the simulator's many small
    NumPy allocations several-fold and so would distort every time measured
    in the same pass.
    """

    def __init__(self):
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self.start_bytes = self.peak_bytes = _rss_bytes()

    def _sample(self):
        while not self._stop.wait(RSS_SAMPLE_S):
            self.peak_bytes = max(self.peak_bytes, _rss_bytes())

    def growth(self) -> int:
        return max(self.peak_bytes, _rss_bytes()) - self.start_bytes

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()


def _rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * PAGE_BYTES


@dataclass
class SiteStats:
    calls: int = 0
    busy_s: float = 0.0
    child_s: float = 0.0
    failed: int = 0

    @property
    def self_s(self) -> float:
        return self.busy_s - self.child_s


class Tracer:
    """Collects SiteStats per layer key while installed."""

    def __init__(self):
        self.stats = defaultdict(SiteStats)
        self.traj_steps = 0
        self.peak_rss_growth_bytes = 0
        self.transient_warnings = 0
        self._open = []   # child time accumulated by each active span

    def _timed(self, key: str, fn):
        stats, open_spans = self.stats[key], self._open

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                stats.failed += 1
                raise
            finally:
                elapsed = time.perf_counter() - t0
                stats.child_s += open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                stats.calls += 1
                stats.busy_s += elapsed
        return traced

    def _simulate(self, fn):
        """Adds trajectory steps, resident-memory growth and transient warnings."""
        def simulate(*args, **kwargs):
            cfg = kwargs["cfg"] if "cfg" in kwargs else args[3]
            self.traj_steps += cfg.n_traj * cfg.n_steps
            with RssSampler() as rss, warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.transient_warnings += sum(
                        TRANSIENT_WARNING in str(w.message) for w in caught)
                    self.peak_rss_growth_bytes = max(self.peak_rss_growth_bytes,
                                                     rss.growth())
        return simulate

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module, path, key in SITES:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                for name in parents:
                    owner = getattr(owner, name)
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                if key == "trajectories.simulate":
                    fn = self._simulate(fn)
                setattr(owner, attr, self._timed(key, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def counts(self) -> dict:
        out = {key: self.stats[key].calls for key in EXACT_COUNTS}
        out["trajectories.traj_steps"] = self.traj_steps
        return out

    def layer_metrics(self) -> dict:
        """Per-layer metric values, by the names listed in BENCHMARK.json."""
        s = self.stats
        sim = s["trajectories.simulate"]
        return {
            "gaussian.calls": s["gaussian"].calls,
            "gaussian.busy_s": s["gaussian"].busy_s,
            "dynamics.lyapunov.calls": s["dynamics.lyapunov"].calls,
            "dynamics.lyapunov.busy_s": s["dynamics.lyapunov"].busy_s,
            "unravelling.riccati.calls": s["unravelling.riccati"].calls,
            "unravelling.riccati.busy_s": s["unravelling.riccati"].busy_s,
            "unravelling.riccati_rhs.calls": s["unravelling.riccati_rhs"].calls,
            "unravelling.recover.calls": s["unravelling.recover"].calls,
            "unravelling.recover.busy_s": s["unravelling.recover"].busy_s,
            "unravelling.recover.failed": s["unravelling.recover"].failed,
            "feedback.calls": s["feedback"].calls,
            "feedback.busy_s": s["feedback"].busy_s,
            "nopo.optimize_scheme.calls": s["nopo.optimize_scheme"].calls,
            "nopo.optimize_scheme.busy_s": s["nopo.optimize_scheme"].busy_s,
            "nopo.optimize_scheme.self_s": s["nopo.optimize_scheme"].self_s,
            "nopo.objective_evals": s["nopo.objective"].calls,
            "trajectories.simulate.calls": sim.calls,
            "trajectories.simulate.busy_s": sim.busy_s,
            "trajectories.simulate.self_s": sim.self_s,
            "trajectories.cov_path.rhs_calls": s["trajectories.cov_path"].calls,
            "trajectories.cov_path.busy_s": s["trajectories.cov_path"].busy_s,
            "trajectories.traj_steps": self.traj_steps,
            "trajectories.traj_steps_per_s": (self.traj_steps / sim.busy_s
                                              if sim.busy_s > 0 else 0.0),
            "trajectories.peak_rss_growth_mb": self.peak_rss_growth_bytes / 2**20,
            "trajectories.transient_warnings": self.transient_warnings,
            "cli.verify.calls": s["cli.verify"].calls,
            "cli.verify.self_s": s["cli.verify"].self_s,
        }
