#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <zoom_cold|dashboard_hot|ingest_live|all> \
        --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark is built from source with
cargo (offline) into $CARGO_TARGET_DIR, default `.bench_build`. One
workload prints its report and, as the last line, one JSON object with
the keys correct, attempted, failed and metrics; the exit code is 0
when every answer matched its oracle, 1 on a mismatch and 2 or more
when the run could not complete. `--workload all` runs the three
workloads one after another and prints one row per workload.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["zoom_cold", "dashboard_hot", "ingest_live"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Inputs of the build, hashed into the run's provenance.
SOURCE_ROOTS = ["Cargo.toml", "Cargo.lock", "crates", "third_party", "perfbench"]
SKIP_DIRS = {"target", ".bench_build", ".bench_run", ".bench_out", "__pycache__"}


def source_digest(root):
    h = hashlib.sha256()
    files = []
    for name in SOURCE_ROOTS:
        p = root / name
        if p.is_file():
            files.append(p)
        elif p.is_dir():
            for dirpath, dirnames, filenames in os.walk(p):
                dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
                files.extend(Path(dirpath) / f for f in sorted(filenames))
    for f in files:
        h.update(str(f.relative_to(root)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root):
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def build(root, target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(root / "perfbench" / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    # Cargo's output goes to stderr: the last line of stdout is the result.
    done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return done.returncode == 0


def run_one(binary, root, args, provenance):
    try:
        done = subprocess.run([str(binary), *args, *provenance], cwd=root,
                              stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or ""))
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3, None
    sys.stdout.write(done.stdout)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, result


def option(args, flag):
    if flag in args:
        i = args.index(flag)
        if i + 1 < len(args):
            return i, args[i + 1]
    return None, None


def main():
    args = sys.argv[1:]
    root = Path(__file__).resolve().parent.parent
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target_dir.is_absolute():
        target_dir = Path.cwd() / target_dir
    try:
        built = build(root, target_dir)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 4
    if not built:
        print("perfbench: build failed", file=sys.stderr)
        return 4
    binary = target_dir / "release" / "perfbench"
    provenance = ["--commit", git_commit(root), "--source", source_digest(root)]

    i, workload = option(args, "--workload")
    if workload != "all":
        code, _ = run_one(binary, root, args, provenance)
        return code

    rows = {}
    worst = 0
    for w in WORKLOADS:
        one = list(args)
        one[i + 1] = w
        code, result = run_one(binary, root, one, provenance)
        worst = max(worst, code)
        rows[w] = result
    print()
    names = []
    for result in rows.values():
        for name, m in (result or {}).get("metrics", {}).items():
            if (name, m["unit"]) not in names:
                names.append((name, m["unit"]))
    header = ["workload", "correct"] + [f"{n} ({u})" for n, u in names]
    table = [header]
    for w, result in rows.items():
        metrics = (result or {}).get("metrics", {})
        row = [w, str((result or {}).get("correct", False)).lower()]
        row += [f"{metrics[n]['value']:.6g}" if n in metrics else "-" for n, _ in names]
        table.append(row)
    widths = [max(len(r[c]) for r in table) for c in range(len(header))]
    for r in table:
        print("  ".join(cell.rjust(wd) for cell, wd in zip(r, widths)))
    return worst


if __name__ == "__main__":
    sys.exit(main())
