"""Process plumbing for the rollup benchmark: paths, Ray lifetime, host facts,
peak-RSS sampling and the per-run timeout.

Everything a run writes lives under ``<checkout>/.rollbench/`` (run-scoped
inputs and outputs, the per-seed oracle cache, result files and Ray's own
session directory), so concurrent test suites that use ``/tmp`` cannot leak
stale state into a measurement.
"""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".rollbench")
ENGINE = "prom_tsdb_copyer_ray"

# AF_UNIX socket paths are limited to 107 bytes; Ray puts its sockets at
# <temp_dir>/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store
_RAY_SOCKET_SUFFIX = 64


class CheckFailed(RuntimeError):
    """A named correctness check failed; the message is the check's name."""


class BenchTimeout(RuntimeError):
    pass


def nproc() -> int:
    """What ``nproc`` prints (it honours OMP_NUM_THREADS and CPU affinity)."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True, timeout=10, check=True)
        return int(out.stdout.strip())
    except (OSError, subprocess.SubprocessError, ValueError):
        return len(os.sched_getaffinity(0))


def engine_digest() -> str:
    """sha256 over the engine's Python sources: identifies the code measured
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, ENGINE)
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_head() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def host_facts(num_cpus: int) -> dict:
    import numpy
    import psutil
    import pyarrow
    import ray

    return {
        "nproc": nproc(),
        "os_cpu_count": os.cpu_count(),
        "ram_gb": round(psutil.virtual_memory().total / 2**30, 2),
        "loadavg_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "numpy": numpy.__version__,
        "git_head": git_head(),
        "engine_sha256": engine_digest(),
        "ray_num_cpus": num_cpus,
    }


class RssSampler:
    """Peak of the summed RSS of this process and all its descendants (the
    Ray head processes and workers started by ``ray.init``)."""

    def __init__(self, interval_s: float = 0.25) -> None:
        self.interval_s = interval_s
        self.peak_bytes = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="rss-sampler", daemon=True)

    def sample(self) -> int:
        import psutil

        me = psutil.Process()
        total = 0
        for p in [me, *me.children(recursive=True)]:
            try:
                total += p.memory_info().rss
            except psutil.Error:
                pass
        self.peak_bytes = max(self.peak_bytes, total)
        return total

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def __enter__(self) -> "RssSampler":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
        self.sample()


def _ray_temp_dir() -> tuple[str, bool]:
    """(Ray temp dir, whether it lies outside the checkout).

    Inside the checkout when its socket paths fit AF_UNIX's limit; otherwise
    a private directory under the system temp dir, removed after the run."""
    inside = os.path.join(WORK, "ray")
    if len(inside) + _RAY_SOCKET_SUFFIX <= 107:
        os.makedirs(inside, exist_ok=True)
        return inside, False
    return tempfile.mkdtemp(prefix="rollbench-ray-"), True


class RayCluster:
    """A local Ray instance for one benchmark process.

    Workers import the engine from the checkout through ``runtime_env``, so
    the run does not depend on the caller's working directory or
    PYTHONPATH.  ``stop()`` shuts Ray down and waits for every process it
    started to end."""

    def __init__(self, num_cpus: int) -> None:
        self.num_cpus = num_cpus
        self.temp_dir, self._temp_outside = _ray_temp_dir()
        self._procs: list = []

    def start(self) -> None:
        import ray
        from ray.data import DataContext

        ray.init(
            address="local",
            num_cpus=self.num_cpus,
            object_store_memory=512 * 2**20,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            _temp_dir=self.temp_dir,
            runtime_env={"env_vars": {"PYTHONPATH": ROOT}},
        )
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.print_on_execution_start = False

    def stop(self) -> None:
        import psutil
        import ray

        me = psutil.Process()
        self._procs = me.children(recursive=True)
        session_dir = None
        if ray.is_initialized():
            session_dir = ray._private.worker._global_node.get_session_dir_path()
            ray.shutdown()
        _, alive = psutil.wait_procs(self._procs, timeout=15)
        for p in alive:
            try:
                p.kill()
            except psutil.Error:
                pass
        psutil.wait_procs(alive, timeout=5)
        if session_dir:
            shutil.rmtree(session_dir, ignore_errors=True)
        if self._temp_outside:
            shutil.rmtree(self.temp_dir, ignore_errors=True)


def kill_descendants() -> None:
    import psutil

    procs = psutil.Process().children(recursive=True)
    for p in procs:
        try:
            p.kill()
        except psutil.Error:
            pass
    psutil.wait_procs(procs, timeout=5)


class Deadline:
    """Per-run timeout: SIGALRM raises :class:`BenchTimeout` in the main
    thread so ``finally`` blocks still shut Ray down; if that does not end
    the process within ``grace_s``, a watchdog kills every descendant and
    exits with code 3."""

    def __init__(self, seconds: float, grace_s: float = 8.0) -> None:
        self.seconds = seconds
        self.grace_s = grace_s
        self._timer: threading.Timer | None = None

    def _alarm(self, signum, frame):
        raise BenchTimeout(f"run exceeded {self.seconds:.0f} s")

    def _hard_exit(self) -> None:
        print(f"check failed: timeout ({self.seconds:.0f} s)", file=sys.stderr, flush=True)
        kill_descendants()
        os._exit(3)

    def __enter__(self) -> "Deadline":
        signal.signal(signal.SIGALRM, self._alarm)
        signal.alarm(int(self.seconds))
        self._timer = threading.Timer(self.seconds + self.grace_s, self._hard_exit)
        self._timer.daemon = True
        self._timer.start()
        return self

    def __exit__(self, *exc) -> None:
        signal.alarm(0)
        if self._timer is not None:
            self._timer.cancel()
