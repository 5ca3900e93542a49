"""How one benchmark run is set up, timed, checked and reported.

A workload is an object with five methods:

* ``setup()`` builds what a user builds before debugging (designs, hub,
  shard pool) and returns it; it is timed, and run ``SETUP_REPEATS``
  times so that ``setup_s`` is a median.  The references the outputs are
  checked against are computed before it, untimed, in the workload's
  constructor.
* ``loop(state, rec, deadline)`` is one closed-loop client: it sends its
  next operation only after the previous one returned, until
  ``deadline``, and records latencies, simulated cycles and check
  failures into ``rec`` (a :class:`Recorder`).
* ``teardown(state)`` releases everything ``setup`` made.
* ``layers(state, rec_a, rec_b, tracer)`` (traced runs only) reads the
  program's own counters into per-layer metrics; ``rec_a`` is the
  untraced half of the run, ``rec_b`` the traced half.

Every time reported is host time.  A workload whose work all runs in
this process (``clock = "cpu"``) is timed in process CPU time
(``time.process_time``), with wall time (``time.perf_counter``) printed
beside it: its work is serial, so on an idle host the two agree, and on a
shared host the CPU time leaves out the waits for a core that the other
tenants' load causes.  Such a workload also runs on one core, so that its
threads hand work to each other without waking another (virtual) CPU,
whose cost varies with the host's load.  A workload with worker
processes keeps wall time and every core.
Simulated quantities (cycles, stop times, instret) are checked for exact
equality against references, never timed.
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import warnings
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

#: ``setup_s`` is the median of this many complete set-ups per run.
SETUP_REPEATS = 7
#: Fewer samples than this leaves p90 with under ten samples beyond it.
MIN_SAMPLES = 100


def pin_environment() -> None:
    """Make the run independent of the caller's environment.

    ``REPRO_*`` variables would silently change the store backend, the
    lint gate, the timeline codec or the observability depth; temporary
    files (the hub's symbol table) go inside the checkout; repro's own
    ``DeprecationWarning`` (the legacy-keyword shim) is an error, so the
    benchmark keeps working once that shim is deleted.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    warnings.filterwarnings(
        "error",
        category=DeprecationWarning,
        module=r"(repro|perfbench|__main__)(\.|$)",
    )
    warnings.filterwarnings(
        "error",
        message=r".*pass options=SessionOptions",
        category=DeprecationWarning,
    )
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


#: The cores this process may run on when it started.
NPROC_START = None


def one_core() -> None:
    """Run this process (and every thread it starts) on one core."""
    global NPROC_START
    cores = os.sched_getaffinity(0)
    NPROC_START = len(cores)
    os.sched_setaffinity(0, {max(cores)})


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def session_options(**overrides):
    """The one pinned ``SessionOptions`` every constructor receives."""
    from repro.hub import SessionOptions

    fields = dict(
        store="numpy",
        obs="off",
        strict="error",
        fast=True,
        snapshots=0,
        snapshot_bytes=None,
        snapshot_codec=None,
        keyframe_every=0,
    )
    fields.update(overrides)
    return SessionOptions(**fields)


def percentile(values, q: int) -> float:
    """The ``q``-th percentile (q in 10..90 by tens), interpolated."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


#: How often a loop times the calibration kernel, between operations.
CAL_EVERY = 0.02
#: Each sample is scaled by the kernel times within this many seconds.
CAL_WINDOW = 0.1
#: The kernel's median time, in seconds, on the reference host (a 2-vCPU
#: x86-64 VM, Python 3.11).  Scaled times read as on that host.
CAL_REF = 0.00035


def _kernel(n: int) -> int:
    """Fixed interpreter work: list indexing, integer arithmetic, dict
    updates — the operations the simulator's generated code is made of."""
    v = [0] * 64
    d: dict = {}
    acc = 0
    for i in range(n):
        j = i & 63
        x = (v[j] * 2654435761 + i) & 0xFFFFFFFF
        v[j] = x
        if x & 1:
            d[j] = x >> 3
        acc ^= d.get(j, 0)
    return acc


def stamp() -> tuple[float, float]:
    """(wall, process CPU) seconds now."""
    return time.perf_counter(), time.process_time()


def since(start: tuple[float, float]) -> tuple[float, float]:
    """(wall, process CPU) seconds since ``start``, a :func:`stamp`."""
    wall, cpu = stamp()
    return wall - start[0], cpu - start[1]


def calibrate() -> tuple[float, float]:
    """The kernel's (wall, process CPU) seconds."""
    start = stamp()
    _kernel(1000)
    return since(start)


class CheckFailed(AssertionError):
    """An output of the program did not match its reference."""


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


class Recorder:
    """Samples of one timed loop.

    ``lat[name]`` holds latencies in ms, ``cpu[name]`` the process CPU
    time of the same calls when the loop measured it, and ``windows`` the
    (end time, simulated cycles, wall seconds, CPU seconds or None) of the
    loop's throughput windows;
    ``attempted`` / ``failed`` count operations, a failed check counting
    as a failed operation whose latency sample is kept.

    The host this runs on is shared, and its speed drifts by tens of
    percent within seconds.  So that two runs of the same code agree,
    the loop times a fixed calibration kernel every ``CAL_EVERY`` seconds
    between operations (outside every timed region), and each sample is
    also reported scaled by ``CAL_REF`` over the median kernel time
    within ``CAL_WINDOW`` seconds of it: the time it would have taken on
    the reference host.  Raw values are printed beside the scaled ones.
    CPU-time samples are scaled by the kernel's CPU time, wall-time
    samples and throughput windows by its wall time.
    """

    def __init__(self):
        self.lat: dict[str, list[float]] = {}
        self.lat_t: dict[str, list[float]] = {}
        self.cpu: dict[str, list[float]] = {}
        self.windows: list = []
        self.cal_t: list[float] = []
        self.cal_s: list[float] = []
        self.cal_cpu: list[float] = []
        self.epochs: list[float] = []
        self._last_cal = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.extra: dict = {}

    def sample(self, name: str, seconds: float, cpu_seconds: float | None = None) -> None:
        self.lat.setdefault(name, []).append(seconds * 1e3)
        self.lat_t.setdefault(name, []).append(time.perf_counter())
        if cpu_seconds is not None:
            self.cpu.setdefault(name, []).append(cpu_seconds * 1e3)

    def throughput(self, cycles: int, seconds: float, cpu_seconds: float | None = None) -> None:
        self.windows.append((time.perf_counter(), cycles, seconds, cpu_seconds))

    def epoch(self) -> None:
        """Mark the end of one balanced unit of the loop, a stretch that
        weights every input alike."""
        self.epochs.append(time.perf_counter())

    def by_epoch(self) -> list[Recorder]:
        """The samples and windows of each marked epoch, as recorders that
        share this one's calibration; samples after the last mark are
        left out."""
        parts = []
        start = 0.0
        for end in self.epochs:
            part = Recorder()
            part.cal_t, part.cal_s, part.cal_cpu = self.cal_t, self.cal_s, self.cal_cpu
            for name, times in self.lat_t.items():
                lo, hi = bisect.bisect_left(times, start), bisect.bisect_left(times, end)
                part.lat[name] = self.lat[name][lo:hi]
                part.lat_t[name] = times[lo:hi]
                if name in self.cpu:
                    part.cpu[name] = self.cpu[name][lo:hi]
            part.windows = [w for w in self.windows if start <= w[0] < end]
            parts.append(part)
            start = end
        return parts

    def between_ops(self) -> None:
        """Time the calibration kernel if it is due."""
        now = time.perf_counter()
        if now - self._last_cal >= CAL_EVERY:
            self.cal_t.append(now)
            wall, cpu = calibrate()
            self.cal_s.append(wall)
            self.cal_cpu.append(cpu)
            self._last_cal = time.perf_counter()

    def scale(self, end: float, seconds: float, cpu: bool = False) -> float:
        """Reference-host seconds per host second for an interval of
        ``seconds`` that ended at ``end``: from the kernel times (CPU or
        wall) within ``CAL_WINDOW`` of the interval (or the nearest one)."""
        if not self.cal_s:
            return 1.0
        kernel = self.cal_cpu if cpu else self.cal_s
        lo = bisect.bisect_left(self.cal_t, end - seconds - CAL_WINDOW)
        hi = bisect.bisect_right(self.cal_t, end + CAL_WINDOW)
        if lo == hi:
            nearest = min(lo, len(self.cal_t) - 1)
            lo, hi = nearest, nearest + 1
        return CAL_REF / statistics.median(kernel[lo:hi])

    def values(self, name: str, clock: str = "wall") -> list[float]:
        """The raw ms samples of ``name`` on ``clock`` (``wall`` or ``cpu``)."""
        return (self.cpu if clock == "cpu" else self.lat).get(name, [])

    def scaled(self, name: str, clock: str = "wall") -> list[float]:
        values = self.values(name, clock)
        if not values:
            return []
        cpu = clock == "cpu"
        # A sample's interval is its wall time, whichever clock it is on.
        return [
            ms * self.scale(end, wall / 1e3, cpu)
            for ms, wall, end in zip(values, self.lat[name], self.lat_t[name], strict=True)
        ]

    def cycles_per_s(self, scaled: bool = True, clock: str = "wall") -> float:
        cpu = clock == "cpu"
        cycles = sum(c for _t, c, _s, _cpu in self.windows)
        seconds = sum(
            (cpu_s if cpu else s) * (self.scale(end, s, cpu) if scaled else 1.0)
            for end, _c, s, cpu_s in self.windows
        )
        return cycles / seconds if seconds else 0.0

    @contextmanager
    def op(self):
        """Count one attempted operation; a raised exception counts it as
        failed (and is recorded, not propagated) so the loop goes on."""
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            self.fail(f"{type(exc).__name__}: {exc}")

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)

    def merge(self, other: Recorder) -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.extend(other.failures[: 5 - len(self.failures)])


# -- tracing hook ----------------------------------------------------------

#: The active :class:`perfbench.tracing.Tracer` during a traced phase.
TRACER = None


@contextmanager
def span(name: str):
    """A span around a call into one layer (free when not tracing)."""
    tracer = TRACER
    if tracer is None:
        yield
        return
    frame = tracer.enter(name)
    try:
        yield
    finally:
        tracer.exit(frame)


# -- one run ---------------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def timed_setups(workload, repeats: int):
    """Run ``setup`` ``repeats`` times; keep the last state.  Returns the
    state and the (raw, scaled) seconds of each set-up on the workload's
    clock; a set-up is scaled by the calibration kernel timed (on the same
    clock) just before and after it."""
    which = 1 if op_clock(workload) == "cpu" else 0
    raw, scaled = [], []
    state = None
    for _ in range(repeats):
        if state is not None:
            workload.teardown(state)
            state = None
            gc.collect()
        cal = [calibrate()[which] for _ in range(8)]
        start = stamp()
        state = workload.setup()
        dt = since(start)[which]
        cal += [calibrate()[which] for _ in range(8)]
        raw.append(dt)
        scaled.append(dt * CAL_REF / statistics.median(cal))
    return state, raw, scaled


def run_loop(workload, state, seconds: float) -> Recorder:
    rec = Recorder()
    gc.collect()
    rec.between_ops()
    workload.loop(state, rec, time.perf_counter() + seconds)
    rec.between_ops()
    return rec


#: With at least this many epochs marked, the metrics are the medians of
#: the epochs' values.
MIN_EPOCHS = 3


def end_to_end(
    rec: Recorder, op: str, scaled: bool = True, clock: str = "wall", epochs: bool = True
) -> dict:
    """``cycles_per_s`` and the op percentiles over the loop; when the loop
    marked epochs, the median of each over the epochs, so that a stretch
    of the run on a slowed host moves them less."""
    if epochs and len(rec.epochs) >= MIN_EPOCHS:
        parts = [end_to_end(part, op, scaled, clock) for part in rec.by_epoch()]
        return {key: statistics.median(p[key] for p in parts) for key in parts[0]}
    ops = rec.scaled(op, clock) if scaled else rec.values(op, clock)
    return {
        "cycles_per_s": rec.cycles_per_s(scaled, clock),
        "op_ms_p50": percentile(ops, 50) if ops else 0.0,
        "op_ms_p90": percentile(ops, 90) if ops else 0.0,
    }


def environment_line(options) -> dict:
    """What a run depends on besides the code: interpreter, numpy, cores
    (and how many the run used), and the value-store backend the pinned
    options resolve to (plus the default, which code paths that take no
    store option use — the shard workers)."""
    import numpy
    from repro.sim.store import resolve_store_kind

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": NPROC_START or nproc(),
        "cores_used": nproc(),
        "store": resolve_store_kind(options.store),
        "store_default": resolve_store_kind(None),
    }


def report(lines: list[str], rec: Recorder, metrics: dict) -> None:
    for line in lines:
        print(line)
    for message in rec.failures:
        print(f"# FAILED: {message}")
    print(json.dumps(
        {
            "correct": rec.failed == 0 and rec.attempted > 0,
            "attempted": rec.attempted,
            "failed": rec.failed,
            "metrics": metrics,
        }
    ))


UNITS = {
    "setup_s": "s", "cycles_per_s": "cycles/s", "op_ms_p50": "ms",
    "op_ms_p90": "ms", "peak_rss_mb": "MB",
}


def op_clock(workload) -> str:
    """``cpu`` when the workload's times are process CPU time, else
    ``wall``."""
    return getattr(workload, "clock", "wall")


def untraced_run(workload, seconds: float) -> None:
    if op_clock(workload) == "cpu":
        one_core()
    state, setups_raw, setups = timed_setups(workload, SETUP_REPEATS)
    try:
        rec = run_loop(workload, state, seconds)
    finally:
        workload.teardown(state)
    clock = op_clock(workload)
    e2e = end_to_end(rec, workload.op, clock=clock)
    raw = end_to_end(rec, workload.op, scaled=False, clock=clock)
    e2e["setup_s"], raw["setup_s"] = statistics.median(setups), statistics.median(setups_raw)
    e2e["peak_rss_mb"] = raw["peak_rss_mb"] = peak_rss_mb()
    n_ops = len(rec.lat.get(workload.op, []))
    samples = {
        "setup_s": len(setups), "cycles_per_s": sum(w[1] for w in rec.windows),
        "op_ms_p50": n_ops, "op_ms_p90": n_ops, "peak_rss_mb": 1,
    }
    lines = [
        f"# workload {workload.name}: {workload.describe}",
        "# env " + json.dumps(environment_line(workload.options)),
        f"# op = {workload.op_meaning}",
        f"# clock: {clock} (setup_s, cycles_per_s, op_ms_*)",
        f"# calibration kernel: median {statistics.median(rec.cal_s) * 1e3:.4f} ms wall, "
        f"{statistics.median(rec.cal_cpu) * 1e3:.4f} ms CPU "
        f"(reference {CAL_REF * 1e3:.4f} ms, n={len(rec.cal_s)})",
    ]
    for name, unit in UNITS.items():
        lines.append(
            f"# {name} = {e2e[name]:.6g} {unit} (raw {raw[name]:.6g}, n={samples[name]})"
        )
    # Every latency family (stop/rewind/request/first_stop...) is printed
    # by name, on each clock it was measured on; the JSON carries the
    # workload's own op.
    for name in sorted(rec.lat):
        for fam_clock in ("wall", "cpu"):
            values, raw_values = rec.scaled(name, fam_clock), rec.values(name, fam_clock)
            if not values:
                continue
            lines.append(
                f"# {name}_p50 = {percentile(values, 50):.4f} ms, "
                f"{name}_p90 = {percentile(values, 90):.4f} ms ({fam_clock}; raw "
                f"{percentile(raw_values, 50):.4f} / {percentile(raw_values, 90):.4f}, "
                f"n={len(values)})"
            )
    if len(rec.epochs) >= MIN_EPOCHS:
        whole = end_to_end(rec, workload.op, clock=clock, epochs=False)
        lines.append(
            f"# medians over {len(rec.epochs)} epochs; over the whole loop: " + ", ".join(
                f"{name} = {value:.6g}" for name, value in whole.items()
            )
        )
    if clock == "cpu":
        wall = end_to_end(rec, workload.op)
        lines.append(
            "# on the wall clock: " + ", ".join(
                f"{name} = {value:.6g}" for name, value in wall.items()
            )
        )
    lines.append(
        f"# error_rate = {rec.failed / max(1, rec.attempted):.6g} "
        f"({rec.failed}/{rec.attempted})"
    )
    if n_ops < MIN_SAMPLES:
        lines.append(f"# WARNING: only {n_ops} op samples (< {MIN_SAMPLES})")
    metrics = {k: {"value": e2e[k], "unit": unit} for k, unit in UNITS.items()}
    report(lines, rec, metrics)


def traced_run(workload, seconds: float, seed: int) -> None:
    """Untraced half, then a traced half with a fresh traced set-up.

    The per-layer metrics come from the traced half; the untraced half of
    the same process gives the tracing overhead (traced minus untraced
    op latency) and the counters only an untraced loop shows (the shard
    pool, the Fig. 5 detached baseline).
    """
    global TRACER
    from .tracing import LAYER_METRICS, Tracer

    half = seconds / 2.0
    if op_clock(workload) == "cpu":
        one_core()
    state, _raw, _scaled = timed_setups(workload, 1)
    workload.traced_baseline = True
    try:
        rec_a = run_loop(workload, state, half)
    finally:
        workload.teardown(state)
        workload.traced_baseline = False
    gc.collect()

    tracer = Tracer()
    tracer.install()
    TRACER = tracer
    state = None
    try:
        try:
            with span("setup"):
                state = workload.setup(traced=True)
            rec_b = run_loop(workload, state, half)
        finally:
            TRACER = None
            tracer.uninstall()
        layers = workload.layers(state, rec_a, rec_b, tracer)
    finally:
        if state is not None:
            workload.teardown(state)

    layers.update(tracer.layer_metrics(tracer.calls("sim.tick")))
    clock = op_clock(workload)
    a = end_to_end(rec_a, workload.op, clock=clock)["op_ms_p50"]
    b = end_to_end(rec_b, workload.op, clock=clock)["op_ms_p50"]
    layers["trace.overhead_pct"] = (b / a - 1.0) * 100.0 if a else 0.0
    layers["trace.unattributed_pct"] = tracer.unattributed_pct(workload.root)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    spans_file = OUT_DIR / f"spans-{workload.name}-{seed}.json"
    tracer.write_spans(spans_file)

    rec = Recorder()
    rec.merge(rec_a)
    rec.merge(rec_b)
    metrics = {}
    lines = [
        f"# workload {workload.name} (traced): {workload.describe}",
        "# env " + json.dumps(environment_line(workload.options)),
        f"# spans written to {spans_file.relative_to(ROOT)}",
        f"# tracing overhead: op_ms_p50 untraced {a:.4f} ms, traced "
        f"{b:.4f} ms ({layers['trace.overhead_pct']:+.1f}%)",
    ]
    for name, unit, _better in LAYER_METRICS:
        value = float(layers.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"# {name} = {value:.6g} {unit}")
    report(lines, rec, metrics)
