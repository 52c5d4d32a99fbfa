"""Library loading, timed set-up, the closed request loop and its statistics."""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("graphs", "posets", "complexes", "homology", "contractibility",
           "partitions", "grothendieck", "cubes", "checks")

# set-up is repeated at least this often, and then until this many seconds
# have gone into it, so that its median is steady even when one is short
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 25
SETUP_MIN_SECONDS = 2.0

# tracebacks printed per run before further failures are only counted
MAX_REPORTED_ERRORS = 3


def library_present() -> bool:
    return (SRC / "boxops" / "__init__.py").is_file()


def load_library() -> SimpleNamespace:
    """Import boxops afresh.

    Every loaded boxops module is dropped first, so each call pays the full
    import and starts with empty module-level caches.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "boxops" or m.startswith("boxops.")]:
        del sys.modules[name]
    return SimpleNamespace(
        **{m: importlib.import_module(f"boxops.{m}") for m in MODULES}
    )


def setup_once(workload, before_setup=None):
    """Import the library and run the workload's set-up; returns (s, lib, state)."""
    gc.collect()
    t0 = perf_counter()
    lib = load_library()
    if before_setup is not None:
        before_setup(lib)
    state = workload.setup(lib)
    return perf_counter() - t0, lib, state


def timed_setup(workload):
    """Set up repeatedly; returns the per-set-up times and the last library."""
    times = []
    while len(times) < SETUP_MIN_REPEATS or (
        sum(times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS
    ):
        lib = state = None  # release the previous set-up before the next
        took, lib, state = setup_once(workload)
        times.append(took)
    return times, lib, state


class Pass:
    """What one pass of the closed loop measured."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failed = 0
        self.round_busy: list[float] = []
        self.first_round: list = []

    @property
    def rounds(self) -> int:
        return len(self.round_busy)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def digest(self) -> str:
        text = json.dumps(self.first_round, sort_keys=True, default=str)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def closed_loop(workload, lib, state, seed, seconds, max_rounds=None,
                min_requests=0, call=None):
    """Issue requests one at a time, in whole rounds, until their summed
    latency reaches `seconds` and at least `min_requests` were made, or
    until `max_rounds` rounds are done.

    Only the request itself is timed: drawing inputs and checking outputs
    happen between requests.  `call(kind, fn, *args)` wraps each request
    when a traced pass needs to see it.
    """
    result = Pass()
    busy = 0.0
    rounds = workload.rounds(lib, state, seed)
    while (result.rounds < max_rounds if max_rounds is not None
           else busy < seconds or result.attempted < min_requests):
        batch = next(rounds)
        round_busy = 0.0
        for req in batch:
            t0 = perf_counter()
            try:
                if call is None:
                    out = workload.run(lib, state, req)
                else:
                    out = call(req.kind, workload.run, lib, state, req)
            except Exception as exc:  # a failed request is counted, not fatal
                dt = perf_counter() - t0
                ok, record = False, req.describe + ["raised", type(exc).__name__]
                _report(result, traceback.format_exc())
            else:
                dt = perf_counter() - t0
                try:
                    ok, record = workload.check(req, out)
                except Exception:  # malformed output fails the check
                    ok, record = False, req.describe + ["unreadable output"]
                    _report(result, traceback.format_exc())
            round_busy += dt
            result.latencies.append(dt)
            if not ok:
                result.failed += 1
                if result.failed <= MAX_REPORTED_ERRORS:
                    print(f"check failed: {record}", file=sys.stderr)
            if result.rounds == 0:
                result.first_round.append(record)
        busy += round_busy
        result.round_busy.append(round_busy)
    return result


def _report(result, text):
    if result.failed < MAX_REPORTED_ERRORS:
        print(text, file=sys.stderr)


def latency_summary(latencies):
    """(p50_ms, p90_ms, samples beyond p90)."""
    ms = [x * 1e3 for x in latencies]
    p50 = statistics.median(ms)
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0]
    return p50, p90, sum(1 for x in ms if x > p90)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
