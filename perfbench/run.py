"""Benchmark entry point: run one workload in a clean child process.

    python3 perfbench/run.py --workload lubm-warm --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The workload runs in its own process with
``src`` on its path, every ``REPRO_*`` variable removed from its
environment, a fixed hash seed, and a private temporary directory under
``.perfbench/tmp`` (so spill files stay in the checkout and leftovers can
be counted).  The child's last output line, the result object, is
repeated as this program's last line.  Without ``src/repro`` in the
checkout the program fails before running anything.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workload import WORKLOADS  # noqa: E402  (needs the path above)

#: The child is stopped after this long (the run must end within 180 s).
CHILD_TIMEOUT_S = 170


def child_environment(tmp: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = tmp
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    runs_dir = ROOT / ".perfbench" / "tmp"
    runs_dir.mkdir(parents=True, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=runs_dir)
    command = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    child = subprocess.Popen(
        command, cwd=ROOT, env=child_environment(tmp), stdout=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        output, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        output = ""
    finally:
        # The child's session holds the server and shard processes too.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
        shutil.rmtree(tmp, ignore_errors=True)
    lines = [line for line in output.splitlines() if line.strip()]
    if child.returncode != 0 or not lines:
        print(f"perfbench: {args.workload} failed (exit code {child.returncode})", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
