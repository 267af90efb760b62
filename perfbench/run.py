#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>

Builds `perfbench/` (a Cargo package of its own that links the repository's
crates by path) with `cargo build --release --offline` into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs it under a per-run
temporary directory inside the checkout that is removed afterwards, and
relays its output. The last line of standard output is the result JSON
(see README.md). Exits non-zero without a result when the build or the run
fails, or when the result does not carry exactly the metrics BENCHMARK.json
names for the chosen mode.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("race_hot", "amg_stream", "hybrid_halo")
# The run must end within 180 s; leave room for the build check and cleanup.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def command_output(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def git_rev(root):
    # Only the checkout's own repository counts, not one enclosing it.
    rev = (root / ".git").exists() and command_output(["git", "-C", str(root), "rev-parse", "HEAD"])
    return rev or "unknown (not a git checkout)"


def source_digest(root):
    """SHA-256 over the sources the benchmark builds, in path order."""
    h = hashlib.sha256()
    files = [root / "Cargo.toml", root / "Cargo.lock"]
    for top in ("crates", "vendor", "perfbench"):
        files += [p for p in (root / top).rglob("*") if p.suffix in (".rs", ".toml", ".lock")]
    for p in sorted(f for f in files if f.is_file()):
        h.update(str(p.relative_to(root)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def expected_metrics(root, trace):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    root = Path.cwd()
    manifest = root / "perfbench" / "Cargo.toml"
    if not (root / "crates" / "reomp-core" / "Cargo.toml").is_file() or not manifest.is_file():
        fail("run from the root of a full checkout (crates/ and perfbench/ are required)")
    expected = expected_metrics(root, args.trace)

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)],
        env={**os.environ, "CARGO_TARGET_DIR": str(target)},
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")
    binary = target / "release" / "perfbench"

    # No REOMP_* knob from the caller's environment may reach the program.
    env = {k: v for k, v in os.environ.items() if not k.startswith("REOMP_")}
    tmp = root / ".perfbench_tmp" / f"run-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    cmd = [
        str(binary),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--tmp", str(tmp),
        "--git_rev", git_rev(root),
        "--source_sha256", source_digest(root),
        "--rustc", command_output(["rustc", "--version"]) or "unknown",
        "--build_profile", "release (perfbench/Cargo.toml: lto=thin, codegen-units=4)",
    ]
    try:
        run = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    sys.stderr.write(run.stderr)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        fail(f"benchmark exited with {run.returncode}")
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(expected))}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
