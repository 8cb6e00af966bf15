#!/usr/bin/env python3
"""Build rocksalt and the perfbench harness from this checkout, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload oneshot|scan|edit --seed N --seconds S --trace 0|1

Everything the build and the run write stays under .bench_build/ in the
checkout: the Go build cache, the two binaries, scratch inputs, and the
result and span files. The last line of standard output is the result
JSON; the exit status is non-zero when the build or the run fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(BUILD, "perfbench")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    return env


def build():
    """Builds both binaries; returns their paths or exits non-zero."""
    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isdir(os.path.join(ROOT, "cmd", "rocksalt")):
        sys.exit("perfbench: no rocksalt sources beside perfbench/ (need go.mod and cmd/rocksalt)")
    for d in ("gocache", "tmp", "gopath", "config", "bin", "perfbench"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    env = go_env()
    rocksalt = os.path.join(BUILD, "bin", "rocksalt")
    harness = os.path.join(BUILD, "bin", "perfbench")
    for out, pkg, cwd in ((rocksalt, "./cmd/rocksalt", ROOT), (harness, ".", os.path.join(ROOT, "perfbench"))):
        r = subprocess.run(["go", "build", "-o", out, pkg], cwd=cwd, env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.exit("perfbench: go build %s failed:\n%s" % (pkg, r.stdout))
    return rocksalt, harness


def commit():
    """The checked-out commit when this is a git work tree, else 'unknown'."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the program's sources (everything but the benchmark and build output)."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        rel = os.path.relpath(dirpath, ROOT)
        dirnames[:] = sorted(d for d in dirnames
                             if not d.startswith(".") and not (rel == "." and d == "perfbench"))
        for name in sorted(filenames):
            if name.endswith((".go", ".mod", ".bin")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["oneshot", "scan", "edit"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    rocksalt, harness = build()
    cmd = [harness, "-workload", a.workload, "-seed", str(a.seed), "-seconds", str(a.seconds),
           "-trace", str(a.trace), "-rocksalt", rocksalt, "-out", OUT,
           "-commit", commit(), "-source-digest", source_digest()]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
