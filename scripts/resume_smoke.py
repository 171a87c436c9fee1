#!/usr/bin/env python3
"""Resume-equivalence smoke: an interrupted fleet campaign, resumed, must
be byte-identical to an uninterrupted one.

The CI gate behind the durable event store's core promise:

1. run a fleet campaign cleanly into one store;
2. run the same campaign into a second store and SIGKILL the process
   partway (after at least one record has landed, before the last);
3. rerun with ``--resume``;
4. assert the records, the rollup table, and the replay report are
   identical between the clean and the resumed store (raw file bytes for
   the JSONL format).

``--backend`` picks the store format through the ``--out`` suffix only:
``.jsonl`` is a plain results file, ``.sqlite`` the SQLite event store.

Artifacts (stdout captures + replay JSON of both stores) land in
``--workdir`` so a mismatch uploads everything needed to triage.
"""

import argparse
import json
import os
import signal
import sqlite3
import subprocess
import sys
import time
from pathlib import Path


def run_cli(args, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        text=True, capture_output=True,
    )
    if check and proc.returncode != 0:
        print(f"command failed ({proc.returncode}): repro {' '.join(args)}")
        print(proc.stdout)
        print(proc.stderr, file=sys.stderr)
        sys.exit(1)
    return proc


def record_count(path: Path, backend: str) -> int:
    """Persisted record count, read without touching the store's writer."""
    if not path.exists():
        return 0
    if backend == "sqlite":
        try:
            with sqlite3.connect(f"file:{path}?mode=ro", uri=True) as conn:
                row = conn.execute(
                    "SELECT COUNT(*) FROM notifications WHERE kind = 'record'"
                ).fetchone()
                return int(row[0])
        except sqlite3.Error:
            return 0
    try:
        lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    except OSError:
        return 0
    return max(0, len(lines) - 1)  # minus the schema header line


def interrupted_run(cmd, out: Path, backend: str, timeout_s: float = 180.0):
    """Launch the campaign and SIGKILL it once >= 1 record has landed.

    Returns True when the kill landed while the process was still
    running (i.e. the run was genuinely interrupted partway).
    """
    proc = subprocess.Popen(
        cmd, text=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            return False  # finished before we could interrupt it
        if record_count(out, backend) >= 1:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=60)
            return True
        time.sleep(0.02)
    proc.kill()
    proc.wait(timeout=60)
    print("error: interrupted run hit the watchdog timeout", file=sys.stderr)
    sys.exit(1)


def replay_payload(path: Path) -> dict:
    proc = run_cli(["replay", str(path), "--json"])
    return json.loads(proc.stdout)


def rollup_table(stdout: str) -> str:
    """The rollup table block (everything before the first blank line)."""
    return stdout.split("\n\n", 1)[0]


def fail(workdir: Path, what: str, clean, resumed) -> None:
    (workdir / "clean.capture").write_text(str(clean))
    (workdir / "resumed.capture").write_text(str(resumed))
    print(f"MISMATCH: {what} differs between clean and resumed runs")
    print(f"  artifacts: {workdir}/clean.capture vs {workdir}/resumed.capture")
    sys.exit(1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--backend", choices=("jsonl", "sqlite"),
                        default="jsonl",
                        help="store format, chosen by the --out suffix")
    parser.add_argument("--scenario", default="fleet-smoke")
    parser.add_argument("--apps", type=int, default=120,
                        help="arrival-stream size (bigger = wider kill window)")
    parser.add_argument("--workdir", default="results/resume-smoke")
    args = parser.parse_args()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    suffix = "sqlite" if args.backend == "sqlite" else "jsonl"
    clean_out = workdir / f"clean.{suffix}"
    resumed_out = workdir / f"resumed.{suffix}"
    for stale in workdir.glob("*"):
        if stale.is_file():
            stale.unlink()

    base = [
        sys.executable, "-m", "repro", "fleet", "run", args.scenario,
        "--apps", str(args.apps), "--snapshot-every", "1",
    ]

    print(f"[1/4] clean run -> {clean_out}")
    clean = subprocess.run(
        base + ["--out", str(clean_out)], text=True, capture_output=True
    )
    if clean.returncode != 0:
        print(clean.stdout)
        print(clean.stderr, file=sys.stderr)
        return 1
    (workdir / "clean.stdout").write_text(clean.stdout)

    print(f"[2/4] interrupted run (SIGKILL mid-campaign) -> {resumed_out}")
    interrupted = interrupted_run(
        base + ["--out", str(resumed_out)], resumed_out, args.backend
    )
    partial = record_count(resumed_out, args.backend)
    total = record_count(clean_out, args.backend)
    print(f"      killed with {partial}/{total} record(s) persisted "
          f"(interrupted={interrupted})")
    if not interrupted or partial >= total:
        print("error: the run completed before the kill landed; raise "
              "--apps so cells take long enough to interrupt",
              file=sys.stderr)
        return 1

    print("[3/4] resume")
    resume = subprocess.run(
        base + ["--out", str(resumed_out), "--resume"],
        text=True, capture_output=True,
    )
    if resume.returncode != 0:
        print(resume.stdout)
        print(resume.stderr, file=sys.stderr)
        return 1
    (workdir / "resumed.stdout").write_text(resume.stdout)
    if "resume:" not in resume.stdout:
        fail(workdir, "resume accounting line", clean.stdout, resume.stdout)

    print("[4/4] compare records / rollups / replay report")
    if args.backend == "jsonl":
        if clean_out.read_bytes() != resumed_out.read_bytes():
            fail(workdir, "results-file bytes",
                 clean_out.read_text(), resumed_out.read_text())
    clean_replay = replay_payload(clean_out)
    resumed_replay = replay_payload(resumed_out)
    for payload in (clean_replay, resumed_replay):
        payload.pop("path", None)
    (workdir / "clean.replay.json").write_text(json.dumps(clean_replay))
    (workdir / "resumed.replay.json").write_text(json.dumps(resumed_replay))
    if clean_replay != resumed_replay:
        fail(workdir, "replay report", clean_replay, resumed_replay)
    if clean_replay["skipped_lines"] != 0:
        fail(workdir, "skipped-line count (must be 0)", clean_replay, resumed_replay)
    if rollup_table(clean.stdout) != rollup_table(resume.stdout):
        fail(workdir, "fleet rollup table",
             rollup_table(clean.stdout), rollup_table(resume.stdout))
    for store in (clean_out, resumed_out):
        run_cli(["store", "verify", str(store)])

    print(f"resume smoke OK ({args.backend}): interrupted at "
          f"{partial}/{total} records, resumed run byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
