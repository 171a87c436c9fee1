"""Spawning ``repro`` CLI subprocesses one at a time, with wall time and max-RSS."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Sequence


@dataclass
class Spawn:
    """One finished subprocess."""

    name: str
    returncode: int
    wall_s: float
    #: ru_maxrss of the child as reported by ``os.wait4``; on Linux it also
    #: covers the child's own reaped children (the process-pool workers).
    maxrss_kb: int
    stdout_path: Path
    stderr_path: Path
    start: float
    end: float

    @property
    def ok(self) -> bool:
        return self.returncode == 0

    def stdout(self) -> str:
        return self.stdout_path.read_text(errors="replace")


def child_env(root: Path, tmp: Path) -> Dict[str, str]:
    """Environment of every spawned interpreter: the checkout's ``src`` on
    the path, temporary files inside the checkout, bytecode caching on (so
    the warm-up run's compiled modules serve the timed runs)."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONSTARTUP", None)
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(tmp)
    return env


def spawn(
    name: str,
    argv: Sequence[str],
    cwd: Path,
    env: Dict[str, str],
    timeout_s: float,
) -> Spawn:
    """Run ``argv`` to completion and reap it with ``os.wait4``.

    The child leads its own process group; past ``timeout_s`` the whole
    group (pool workers included) is killed and the spawn reports the
    signal as a negative return code.
    """
    cwd.mkdir(parents=True, exist_ok=True)
    stem = f".{name}.{time.monotonic_ns()}"
    out_path, err_path = cwd / f"{stem}.out", cwd / f"{stem}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen(
            list(argv), cwd=cwd, env=env, stdout=out, stderr=err,
            stdin=subprocess.DEVNULL, start_new_session=True,
        )
        timer = threading.Timer(max(timeout_s, 0.1), _kill_group, (child.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            timer.cancel()
        end = time.perf_counter()
    # Popen must not try to reap the pid again.
    child.returncode = os.waitstatus_to_exitcode(status)
    return Spawn(
        name=name, returncode=child.returncode, wall_s=end - start,
        maxrss_kb=usage.ru_maxrss, stdout_path=out_path, stderr_path=err_path,
        start=start, end=end,
    )


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def repro_argv(args: Sequence[str]) -> list:
    return [sys.executable, "-m", "repro", *args]


def tail(path: Path, lines: int = 5) -> str:
    try:
        text = path.read_text(errors="replace").strip().splitlines()
    except OSError:
        return ""
    return "\n".join(text[-lines:])
