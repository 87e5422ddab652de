#!/usr/bin/env python3
"""Measures a parent and a child checkout with perfbench and records the session.

    python3 tools/bench_trajectory.py --parent PARENT_DIR --child CHILD_DIR \\
        --seeds 41-50 [--build-root DIR] [--out BENCH_perfbench.json] \\
        [--note TEXT]

Both directories are checkouts of this repository (a `git worktree add`, a
`git clone` or a `git archive` extract). The child's BENCHMARK.json names
the workloads and the run length (`run_seconds`); every run uses that
length. For every workload and seed the script runs `perfbench/run.py
--trace 0` once in each checkout, alternating which side runs first from
one seed to the next, then one `--trace 1` pass per side at the first seed
for the self time of every layer span. It appends one session object to
the JSON array in `--out` (created when missing): the commits, the date,
nproc and, per workload, the seeds, the median and quartiles of solve_s,
setup_s and peak_rss_mb on each side, the rounds per seed, ok_frac, the
pairs the child won on solve_s, and the traced self times. Pick seeds the
change was not written against.

Each side builds perfbench into its own directory: `<checkout>/.bench_build`
(run.py's default), or `<build-root>/parent` and `<build-root>/child`.
Runs go one at a time; the harness pins the engine to one worker. Progress
goes to stderr. Standard library only.
"""

import argparse
import datetime
import json
import os
import re
import statistics
import subprocess
import sys

SIDES = ("parent", "child")
SUMMARIZED = ("solve_s", "setup_s", "peak_rss_mb")
SELF_LINE = re.compile(r"^\s+(\S+): self ([0-9.eE+-]+) s \(")


def parse_seeds(text):
    """'41-50' or '3,5,9' (or a mix) -> list of ints, in the given order."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        first, last = int(lo), int(hi or lo)
        if last < first:
            raise argparse.ArgumentTypeError(f"empty seed range {part!r}")
        seeds.extend(range(first, last + 1))
    return seeds


def commit_of(checkout):
    """HEAD of a git checkout, '+dirty' when tracked files differ; None
    for an extract without history."""
    def git(*args):
        return subprocess.run(["git", "-C", checkout, *args],
                              capture_output=True, text=True)
    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return None
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return head.stdout.strip() + ("+dirty" if dirty else "")


def run_perfbench(checkout, build_dir, workload, seed, seconds, trace):
    """One run.py call; returns (result object, stdout lines)."""
    env = dict(os.environ)
    if build_dir:
        env["CARGO_TARGET_DIR"] = build_dir
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                          text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"bench_trajectory: {workload} seed {seed} failed "
                         f"in {checkout} (exit {proc.returncode})")
    return json.loads(lines[-1]), lines


def metric(result, name):
    return result["metrics"][name]["value"]


def summary(values):
    """Median and quartiles (inclusive method; one value is its own)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def self_times(lines):
    """Layer span -> self seconds, from the traced pass's readable lines."""
    out = {}
    for line in lines:
        m = SELF_LINE.match(line)
        if m:
            out[m.group(1)] = float(m.group(2))
    return out


def measure(checkouts, build_dirs, workload, seeds, seconds):
    runs = {side: {} for side in SIDES}
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else tuple(reversed(SIDES))
        for side in order:
            result, _ = run_perfbench(checkouts[side], build_dirs[side],
                                      workload, seed, seconds, 0)
            runs[side][seed] = result
            print(f"{workload} seed {seed} {side}: solve_s "
                  f"{metric(result, 'solve_s'):.3f}", file=sys.stderr)
    traced = {}
    for side in SIDES:
        _, lines = run_perfbench(checkouts[side], build_dirs[side], workload,
                                 seeds[0], seconds, 1)
        traced[side] = self_times(lines)

    entry = {"seeds": seeds, "seconds": seconds}
    for side in SIDES:
        by_seed = runs[side]
        entry[side] = {
            name: summary([metric(by_seed[s], name) for s in seeds])
            for name in SUMMARIZED
        }
        entry[side]["rounds"] = {str(s): metric(by_seed[s], "rounds")
                                 for s in seeds}
        entry[side]["ok_frac"] = min(metric(by_seed[s], "ok_frac")
                                     for s in seeds)
        entry[side]["self_s"] = traced[side]
    wins = sum(metric(runs["child"][s], "solve_s") <
               metric(runs["parent"][s], "solve_s") for s in seeds)
    entry["pairs_won"] = f"{wins}/{len(seeds)}"
    entry["solve_ratio"] = (entry["child"]["solve_s"]["median"] /
                            entry["parent"]["solve_s"]["median"])
    entry["rounds_identical"] = (entry["child"]["rounds"] ==
                                 entry["parent"]["rounds"])
    return entry


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent checkout")
    parser.add_argument("--child", required=True, help="child checkout")
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="e.g. 41-50")
    parser.add_argument("--build-root", help="per-side perfbench builds")
    parser.add_argument("--out", default="BENCH_perfbench.json")
    parser.add_argument("--note", default="")
    args = parser.parse_args()

    checkouts = {"parent": os.path.abspath(args.parent),
                 "child": os.path.abspath(args.child)}
    build_dirs = {side: (os.path.join(os.path.abspath(args.build_root), side)
                         if args.build_root else None) for side in SIDES}
    with open(os.path.join(checkouts["child"], "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    seconds = benchmark["run_seconds"]
    session = {
        "parent": commit_of(checkouts["parent"]),
        "child": commit_of(checkouts["child"]),
        "date": datetime.datetime.now(datetime.timezone.utc)
                .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "nproc": os.cpu_count(),
        "note": args.note,
        "workloads": {},
    }
    for workload in benchmark["workloads"]:
        name = workload["name"]
        session["workloads"][name] = measure(checkouts, build_dirs, name,
                                             args.seeds, seconds)

    sessions = []
    if os.path.exists(args.out):
        with open(args.out) as f:
            sessions = json.load(f)
    sessions.append(session)
    with open(args.out, "w") as f:
        json.dump(sessions, f, indent=1)
        f.write("\n")
    for name, entry in session["workloads"].items():
        print(f"{name}: solve_s {entry['parent']['solve_s']['median']:.3f} -> "
              f"{entry['child']['solve_s']['median']:.3f} "
              f"({entry['solve_ratio']:.2f}x, pairs won {entry['pairs_won']}, "
              f"rounds identical {entry['rounds_identical']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
