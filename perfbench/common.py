"""Paths, the child-process environment and process accounting shared
by the three workloads."""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Everything a run writes lives under this directory of the checkout.
WORK = ROOT / ".perfbench"
#: The native kernel is built here once per checkout, before timing.
KERNEL_CACHE = WORK / "kernels"


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, broken set-up);
    the run exits non-zero without printing a result."""


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def child_env(extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """The environment the program gets: every ``REPRO_*`` knob
    stripped so the default path runs, the checkout's ``src`` on the
    path and the benchmark-owned kernel cache."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_KERNEL_CACHE"] = str(KERNEL_CACHE)
    env["PYTHONUNBUFFERED"] = "1"
    if extra:
        env.update(extra)
    return env


def python() -> str:
    return sys.executable or "python3"


class Child:
    """A subprocess whose peak RSS is read from ``wait4`` — the
    kernel folds in every descendant the child reaped, so a router's
    figure covers its shards."""

    def __init__(self, argv: Sequence[str], stdin=subprocess.DEVNULL,
                 stdout=subprocess.PIPE, stderr_path: Optional[Path] = None,
                 env: Optional[Dict[str, str]] = None,
                 text: bool = True) -> None:
        self._stderr = (open(stderr_path, "ab") if stderr_path is not None
                        else subprocess.DEVNULL)
        try:
            self.proc = subprocess.Popen(
                list(argv), stdin=stdin, stdout=stdout, stderr=self._stderr,
                env=env if env is not None else child_env(), cwd=str(ROOT),
                text=text)
        finally:
            if stderr_path is not None:
                self._stderr.close()
        self.maxrss_kb = 0

    def reap(self, timeout: float = 120.0) -> int:
        """Wait for exit (killing it after ``timeout``) and record the
        peak RSS; returns the exit code."""
        watchdog = threading.Timer(timeout, self._kill_quietly)
        watchdog.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            watchdog.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.maxrss_kb = usage.ru_maxrss
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                stream.close()
        return self.proc.returncode

    def _kill_quietly(self) -> None:
        try:
            self.proc.kill()
        except ProcessLookupError:
            pass

    def kill(self) -> None:
        if self.proc.returncode is None:
            self._kill_quietly()
            self.reap(timeout=10.0)


def run_child(argv: Sequence[str], timeout: float = 120.0,
              env: Optional[Dict[str, str]] = None,
              stderr_path: Optional[Path] = None
              ) -> Tuple[int, str, float, int]:
    """Run to completion: (exit code, stdout, wall seconds, peak RSS
    in KiB)."""
    start = time.perf_counter()
    child = Child(argv, env=env, stderr_path=stderr_path)
    try:
        out = child.proc.stdout.read()
    finally:
        code = child.reap(timeout)
    return code, out, time.perf_counter() - start, child.maxrss_kb


def become_subreaper() -> None:
    """Adopt orphaned descendants (a router's shards outlive it by a
    moment), so the harness can wait for every process it caused."""
    import ctypes
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                           ctypes.c_ulong, ctypes.c_ulong]
    libc.prctl.restype = ctypes.c_int
    PR_SET_CHILD_SUBREAPER = 36
    libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def reap_orphans(pids: Sequence[int], timeout: float = 30.0) -> int:
    """Wait for adopted descendants to exit (SIGKILL past ``timeout``);
    returns the largest peak RSS among them in KiB."""
    import signal
    peak = 0
    deadline = time.monotonic() + timeout
    killed = False
    while True:
        try:
            pid, _, usage = os.wait4(-1, os.WNOHANG)
        except ChildProcessError:
            return peak
        if pid:
            peak = max(peak, usage.ru_maxrss)
            continue
        if time.monotonic() > deadline:
            if killed:
                raise BenchError("descendant processes did not exit")
            killed = True
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + 10.0
        time.sleep(0.02)


def fresh_dir(name: str) -> Path:
    path = WORK / ("%s-%d" % (name, os.getpid()))
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def prepare() -> dict:
    """Build the native kernel into the benchmark's cache (untimed)
    and fetch the corpus sources and provenance from the program."""
    if not program_present():
        raise BenchError("no program at %s (expected src/repro)" % SRC)
    WORK.mkdir(exist_ok=True)
    KERNEL_CACHE.mkdir(exist_ok=True)
    code, out, _, _ = run_child(
        [python(), str(BENCH_DIR / "oracle.py"), "prep"], timeout=900.0,
        stderr_path=WORK / "prep.log")
    if code != 0:
        raise BenchError("program set-up failed (exit %d); see %s"
                         % (code, WORK / "prep.log"))
    info = json.loads(out.strip().splitlines()[-1])
    info["commit"] = commit()
    info["nproc"] = os.cpu_count()
    info["platform"] = platform.platform()
    return info


def commit() -> str:
    """The commit under test, or ``unknown`` in a checkout that is not
    a git repository."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def expected() -> dict:
    with open(BENCH_DIR / "expected.json") as handle:
        return json.load(handle)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
