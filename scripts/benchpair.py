#!/usr/bin/env python3
"""Paired A/B runs of the end-to-end benchmark between two commits.

Run from the repository root:

    python3 scripts/benchpair.py --parent SHA [--change SHA] \\
        --pairs sweep:42:10 [--pairs sweep:7:5 ...] \\
        [--traced scale:42 ...] [--check tables:2718 ...] \\
        [--gobench .:BenchmarkEngineRoundThroughput$:10 ...] \\
        [--benchtime 2000x] [--cpu 2] \\
        [--cmd 'run -proto congest -n 1000000 -seed 42:5' ...] \\
        [--claim sweep:wall_s] [--note TEXT] --out BENCH_E2E_PR<n>.json

Each side is exported from the local git object store with
`git archive <sha>` into .bench_build/ab/<sha> (nothing is fetched, and
the go command runs with GOPROXY=off), and each measurement is one
`python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`
from that tree, with T the run_seconds of BENCHMARK.json, so each side
builds its own binary with its own cache. A pair runs both sides back
to back, alternating which side runs first (even pairs parent first).
Ratios are change/parent per pair; quartiles use the inclusive method.
The record holds both SHAs, the Go version, nproc, the GOMAXPROCS that
perfbench's records report, every sample, the per-pair ratios, medians
with quartiles and win counts per metric.
Commit the change first: only committed trees are measured.

--pairs W:S:N   N interleaved pairs of workload W at seed S
--traced W:S    one --trace 1 run per side (per-layer metrics)
--check W:S     one --trace 0 run per side, recorded for correctness and
                for the parent/change output digests only
--gobench P:R:N N interleaved pairs of the go test benchmarks matching
                regex R in package directory P (relative to the
                repository root): each side's test binary is built once
                with `go test -c` and run from P with `-test.run ^$
                -test.bench R -test.benchmem -test.timeout 10m` and the
                one --benchtime (a fixed iteration count, Nx) and --cpu
                value, both recorded; the record holds every sample and,
                per benchmark, the per-pair ns/op ratios, medians with
                quartiles and win counts
--cmd ARGS:N    N interleaved pairs of one byzcount command line: each
                side's CLI is built once from its tree (go build
                ./cmd/byzcount) and run with ARGS (split like a shell
                line; N after the last colon); each run records its wall
                time, its CPU time (user + system) and its max RSS, both
                from wait4's rusage, its exit status and the sha256 of its
                stdout. A small launcher forks each run, so its max RSS
                holds ~5 MB of inherited pages, not this script's. A pair fails when a run exits non-zero or the two
                stdout digests differ; the record is written either way,
                and the script then exits 1
--claim W:M     the claimed metric M on workload W, judged on every
                --pairs set of W (one per seed): the change must win at
                least 9 in 10 of the pairs and its median must beat the
                parent's by more than the parent's interquartile range;
                a set also fails the claim if any run in it is not
                correct, if the change fails more operations than the
                parent, or if any pair's output digests differ

This script reads and runs perfbench/ but changes nothing in it or in
BENCHMARK.json, and uses only the Python standard library.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shlex
import statistics
import subprocess
import sys
import time

SCHEMA = "byzcount-bench-e2e/v1"
END_TO_END = ["wall_s", "setup_s", "cpu_s", "peak_rss_mb", "cells_per_s", "msgs_per_s"]
HIGHER_IS_BETTER = {"cells_per_s", "msgs_per_s"}
SAMPLE_KEYS = ["wall", "cpu_s", "peak_rss_mb", "setup_s", "msgs", "attempted", "failed"]
CMD_METRICS = ["wall_s", "cpu_s", "peak_rss_mb"]


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout.strip()


def export(sha, root):
    """Extract commit sha into .bench_build/ab/<sha> unless already there."""
    dest = os.path.join(root, ".bench_build", "ab", sha)
    marker = os.path.join(dest, ".benchpair-exported")
    if not os.path.exists(marker):
        os.makedirs(dest, exist_ok=True)
        archive = subprocess.run(["git", "archive", sha], check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
        with open(marker, "w") as f:
            f.write(sha + "\n")
    return dest


def perfbench(tree, workload, seed, trace, seconds):
    """Run perfbench once from tree and return its parsed result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, GOPROXY="off")
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = [json.loads(l) for l in proc.stdout.splitlines() if l.startswith("{")]
    if len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchpair: {workload} seed {seed} in {tree}: no result (exit {proc.returncode})")
    rec, out = lines[0]["record"], lines[1]
    reps = rec.get("repetitions") or []
    result = {
        "gomaxprocs": rec.get("gomaxprocs"),
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: v["value"] for k, v in out["metrics"].items()},
    }
    if trace == 0:
        result["samples"] = [{k: r.get(k) for k in SAMPLE_KEYS} for r in reps]
        result["digests"] = sorted({r.get("digest", "") for r in reps})
    return result


def go_package(pkg):
    """The go command's pattern for package directory pkg."""
    pkg = os.path.normpath(pkg)
    return "." if pkg == "." else "./" + pkg


def build_gobench(tree, pkg):
    """Build package pkg's test binary in tree once; return its path."""
    slug = re.sub(r"[^A-Za-z0-9]+", "_", os.path.normpath(pkg)).strip("_") or "root"
    out = os.path.join(tree, ".bench_build", "gobench", slug + ".test")
    if not os.path.exists(out):
        env = dict(os.environ, GOPROXY="off")
        subprocess.run(["go", "test", "-c", "-o", out, go_package(pkg)], cwd=tree, env=env, check=True)
    return out


def gobench(binary, pkgdir, regex, benchtime, cpu):
    """Run the benchmarks matching regex once; return {name: {unit: value}}."""
    cmd = [binary, "-test.run", "^$", "-test.bench", regex, "-test.benchmem",
           "-test.benchtime", benchtime, "-test.cpu", str(cpu), "-test.timeout", "10m"]
    proc = subprocess.run(cmd, cwd=pkgdir, capture_output=True, text=True)
    results = {}
    for line in proc.stdout.splitlines():
        f = line.split()
        if len(f) < 4 or not f[0].startswith("Benchmark") or not f[1].isdigit():
            continue
        sample = {"iterations": int(f[1])}
        for value, unit in zip(f[2::2], f[3::2]):
            sample[unit] = float(value)
        results[f[0]] = sample
    if proc.returncode != 0 or not results:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"benchpair: {regex} in {pkgdir}: no benchmark result (exit {proc.returncode})")
    return results


def build_byzcount(tree):
    """Build the byzcount CLI in tree once; return its path."""
    out = os.path.join(tree, ".bench_build", "byzcount")
    if not os.path.exists(out):
        env = dict(os.environ, GOPROXY="off", GOTOOLCHAIN="local", GOFLAGS="")
        subprocess.run(["go", "build", "-buildvcs=false", "-o", out, "./cmd/byzcount"], cwd=tree, env=env,
                       check=True)
    return out


# A child's max RSS starts at what it inherits: a child this script
# spawned directly would read at least this script's own peak RSS (tens
# of MB), which Linux carries through vfork and exec. So a small fresh
# interpreter forks the command (it inherits ~5 MB) and reports its
# exit status, wall time and wait4 rusage on stderr.
LAUNCHER = r"""
import os, sys, time
t0 = time.monotonic()
pid = os.fork()
if pid == 0:
    os.dup2(os.open(os.devnull, os.O_WRONLY), 2)
    try:
        os.execv(sys.argv[1], sys.argv[1:])
    finally:
        os._exit(127)
_, status, ru = os.wait4(pid, 0)
wall = time.monotonic() - t0
print(os.waitstatus_to_exitcode(status), wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss, file=sys.stderr)
"""


def run_cmd(binary, argv):
    """Run binary with argv once; return its wait4 measurements and stdout digest."""
    proc = subprocess.Popen([sys.executable, "-S", "-c", LAUNCHER, binary, *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    digest = hashlib.sha256()
    for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
        digest.update(chunk)
    report = proc.stderr.read().split()
    proc.wait()
    if proc.returncode != 0 or len(report) != 4:
        raise SystemExit(f"benchpair: the launcher of {binary} failed (exit {proc.returncode})")
    code, wall, cpu, maxrss = int(report[0]), float(report[1]), float(report[2]), int(report[3])
    return {
        "metrics": {
            "wall_s": round(wall, 4),
            "cpu_s": round(cpu, 4),
            "peak_rss_mb": round(maxrss / 1024, 2),  # Linux reports KiB
        },
        "exit": code,
        "stdout_sha256": digest.hexdigest(),
    }


def summarize_gobench(pairs):
    """Per benchmark: ns/op quartiles per side, per-pair ratio quartiles, wins."""
    summary = {}
    for name in pairs[0]["parent"]:
        par = [p["parent"][name]["ns/op"] for p in pairs]
        chg = [p["change"][name]["ns/op"] for p in pairs]
        ratios = [p["ratio"][name] for p in pairs]
        pq, cq = quartiles(par), quartiles(chg)
        summary[name] = {
            "metric": "ns/op",
            "better": "lower",
            "parent_q1_median_q3": pq,
            "change_q1_median_q3": cq,
            "ratio_q1_median_q3": quartiles(ratios),
            "change_wins": sum(1 for a, b in zip(par, chg) if b < a),
            "pairs": len(pairs),
            "median_gap_exceeds_parent_iqr": pq[1] - cq[1] > pq[2] - pq[0],
            "change_median_inside_parent_iqr": pq[0] <= cq[1] <= pq[2],
        }
    return summary


def cpu_model():
    """The CPU model name from /proc/cpuinfo, or platform's guess elsewhere."""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def quartiles(xs):
    if len(xs) == 1:
        return [xs[0]] * 3
    return list(statistics.quantiles(xs, n=4, method="inclusive"))


def summarize(pairs, metrics=END_TO_END):
    summary = {}
    for m in metrics:
        par = [p["parent"]["metrics"][m] for p in pairs]
        chg = [p["change"]["metrics"][m] for p in pairs]
        ratios = [p["ratio"][m] for p in pairs if p["ratio"][m] is not None]
        higher = m in HIGHER_IS_BETTER
        wins = sum(1 for a, b in zip(par, chg) if (b > a if higher else b < a))
        pq, cq = quartiles(par), quartiles(chg)
        gap = cq[1] - pq[1] if higher else pq[1] - cq[1]
        summary[m] = {
            "better": "higher" if higher else "lower",
            "parent_q1_median_q3": pq,
            "change_q1_median_q3": cq,
            "ratio_q1_median_q3": quartiles(ratios) if ratios else None,
            "change_wins": wins,
            "pairs": len(pairs),
            "median_gap_exceeds_parent_iqr": gap > pq[2] - pq[0],
        }
    return summary


def ratio(a, b):
    return round(b / a, 5) if a else None


def parse_spec(spec, fields, maxsplit=-1):
    parts = spec.split(":", maxsplit)
    if len(parts) != fields:
        raise SystemExit(f"benchpair: bad spec {spec!r}")
    return parts


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="parent commit (any git revision)")
    ap.add_argument("--change", default="HEAD", help="changed commit (default HEAD)")
    ap.add_argument("--pairs", action="append", default=[], metavar="W:S:N")
    ap.add_argument("--traced", action="append", default=[], metavar="W:S")
    ap.add_argument("--check", action="append", default=[], metavar="W:S")
    ap.add_argument("--gobench", action="append", default=[], metavar="P:R:N")
    ap.add_argument("--benchtime", default="2000x", help="-test.benchtime of every --gobench run (Nx)")
    ap.add_argument("--cpu", type=int, default=2, help="-test.cpu of every --gobench run")
    ap.add_argument("--cmd", action="append", default=[], metavar="ARGS:N")
    ap.add_argument("--claim", metavar="W:M")
    ap.add_argument("--note", default="", help="one-line description of the change")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    if not re.fullmatch(r"[1-9][0-9]*x", args.benchtime):
        raise SystemExit(f"benchpair: --benchtime must be a fixed iteration count such as 2000x, got {args.benchtime!r}")

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    shas = {"parent": git("rev-parse", args.parent), "change": git("rev-parse", args.change)}
    same_bench = all(git("rev-parse", f"{shas['parent']}:{p}") == git("rev-parse", f"{shas['change']}:{p}")
                     for p in ("perfbench", "BENCHMARK.json"))
    if not same_bench:
        print("benchpair: WARNING: perfbench/ or BENCHMARK.json differ between the two commits",
              file=sys.stderr)
    trees = {side: export(sha, root) for side, sha in shas.items()}
    cpu = cpu_model()
    doc = {
        "schema": SCHEMA,
        "change": args.note,
        "parent_sha": shas["parent"],
        "change_sha": shas["change"],
        "go_version": subprocess.run(["go", "env", "GOVERSION"], capture_output=True, text=True).stdout.strip(),
        "nproc": os.cpu_count(),
        "machine": f"{os.cpu_count()}-core {platform.system()} {platform.release()}, {cpu}",
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0",
        "method": "interleaved pairs: each pair runs parent and change back to back, alternating which "
                  "side runs first (even pairs parent first); each side is exported with git archive and "
                  "built from its own tree by run.py; ratios are change/parent per pair; quartiles use the "
                  "inclusive method",
        "benchmark_files_identical": same_bench,
        "workloads": [],
    }

    for spec in args.pairs:
        w, s, n = parse_spec(spec, 3)
        pairs = []
        for i in range(int(n)):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            res = {}
            for side in order:
                t0 = time.time()
                res[side] = perfbench(trees[side], w, s, 0, seconds)
                print(f"{w} seed {s} pair {i} {side}: wall_s {res[side]['metrics']['wall_s']:.3f} "
                      f"correct {res[side]['correct']} ({time.time() - t0:.0f}s)", file=sys.stderr, flush=True)
            pairs.append({
                "pair": i,
                "first": order[0],
                "parent": res["parent"],
                "change": res["change"],
                "digests_match": res["parent"]["digests"] == res["change"]["digests"],
                "ratio": {m: ratio(res["parent"]["metrics"][m], res["change"]["metrics"][m]) for m in END_TO_END},
            })
        doc["workloads"].append({"workload": w, "seed": int(s), "pairs": pairs, "summary": summarize(pairs)})

    for spec in args.gobench:
        pkg, rest = parse_spec(spec, 2, maxsplit=1)
        regex, n = rest.rsplit(":", 1) if ":" in rest else (rest, "")
        if not n.isdigit() or int(n) < 1:
            raise SystemExit(f"benchpair: bad spec {spec!r}")
        bins = {side: build_gobench(trees[side], pkg) for side in trees}
        pairs = []
        for i in range(int(n)):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            res = {side: gobench(bins[side], os.path.join(trees[side], pkg), regex, args.benchtime, args.cpu)
                   for side in order}
            if res["parent"].keys() != res["change"].keys():
                raise SystemExit(f"benchpair: {regex}: the two sides ran different benchmarks")
            ratios = {b: ratio(res["parent"][b]["ns/op"], res["change"][b]["ns/op"]) for b in res["parent"]}
            print(f"gobench {pkg} pair {i}: " + " ".join(f"{b} {r:.3f}" for b, r in ratios.items()),
                  file=sys.stderr, flush=True)
            pairs.append({"pair": i, "first": order[0], "parent": res["parent"], "change": res["change"],
                          "ratio": ratios})
        doc.setdefault("gobench", []).append({
            "package": pkg,
            "regex": regex,
            "benchtime": args.benchtime,
            "cpu": args.cpu,
            "command": f"go test -c -o P.test {go_package(pkg)} && (cd {pkg} && P.test -test.run '^$' "
                       f"-test.bench '{regex}' -test.benchmem -test.benchtime {args.benchtime} -test.cpu {args.cpu} "
                       f"-test.timeout 10m)",
            "pairs": pairs,
            "summary": summarize_gobench(pairs),
        })

    cmd_failed = False
    for spec in args.cmd:
        line, n = spec.rsplit(":", 1) if ":" in spec else (spec, "")
        if not n.isdigit() or int(n) < 1 or not line.strip():
            raise SystemExit(f"benchpair: bad spec {spec!r}")
        argv = shlex.split(line)
        bins = {side: build_byzcount(trees[side]) for side in trees}
        pairs = []
        for i in range(int(n)):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            res = {side: run_cmd(bins[side], argv) for side in order}
            ok = (res["parent"]["exit"] == 0 and res["change"]["exit"] == 0
                  and res["parent"]["stdout_sha256"] == res["change"]["stdout_sha256"])
            cmd_failed = cmd_failed or not ok
            print(f"cmd pair {i}: " + " ".join(f"{side} wall {res[side]['metrics']['wall_s']:.2f}s "
                                             f"rss {res[side]['metrics']['peak_rss_mb']:.0f}MB" for side in order)
                  + ("" if ok else " FAILED"), file=sys.stderr, flush=True)
            pairs.append({"pair": i, "first": order[0], "parent": res["parent"], "change": res["change"],
                          "ok": ok,
                          "ratio": {m: ratio(res["parent"]["metrics"][m], res["change"]["metrics"][m])
                                    for m in CMD_METRICS}})
        doc.setdefault("commands", []).append({
            "args": line,
            "command": f"go build -o B ./cmd/byzcount && B {line}",
            "pairs": pairs,
            "all_ok": all(p["ok"] for p in pairs),
            "summary": summarize(pairs, CMD_METRICS),
        })

    for key, specs, trace in (("traced", args.traced, 1), ("checks", args.check, 0)):
        runs = []
        for spec in specs:
            w, s = parse_spec(spec, 2)
            for i, side in enumerate(["parent", "change"]):
                r = perfbench(trees[side], w, s, trace, seconds)
                runs.append({"workload": w, "seed": int(s), "side": side, "position": i, **r})
                print(f"{key} {w} seed {s} {side}: correct {r['correct']}", file=sys.stderr, flush=True)
        if key == "checks":
            for a, b in zip(runs[::2], runs[1::2]):
                b["digests_match_parent"] = a["digests"] == b["digests"]
        if runs:
            doc[key] = {"command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} "
                                   f"--trace {trace}", "runs": runs}

    # GOMAXPROCS as perfbench's own records report it for its children.
    results = [p[side] for wl in doc["workloads"] for p in wl["pairs"] for side in ("parent", "change")]
    results += [r for key in ("traced", "checks") for r in doc.get(key, {}).get("runs", [])]
    seen = sorted({r["gomaxprocs"] for r in results}, key=str)
    doc["gomaxprocs"] = seen[0] if len(seen) == 1 else seen or None

    if args.claim:
        w, m = parse_spec(args.claim, 2)
        seeds = []
        for wl in doc["workloads"]:
            if wl["workload"] != w:
                continue
            sm = wl["summary"][m]
            need = math.ceil(0.9 * sm["pairs"])
            pairs = wl["pairs"]
            all_correct = all(p[side]["correct"] for p in pairs for side in ("parent", "change"))
            failed = {side: sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")}
            digests_match = all(p["digests_match"] for p in pairs)
            seeds.append({
                "seed": wl["seed"],
                "pairs": sm["pairs"],
                "change_wins": sm["change_wins"],
                "wins_needed": need,
                "median_gap_exceeds_parent_iqr": sm["median_gap_exceeds_parent_iqr"],
                "all_correct": all_correct,
                "failed_parent": failed["parent"],
                "failed_change": failed["change"],
                "digests_match": digests_match,
                "met": (sm["change_wins"] >= need and sm["median_gap_exceeds_parent_iqr"] and all_correct
                        and failed["change"] <= failed["parent"] and digests_match),
            })
        if not seeds:
            raise SystemExit(f"benchpair: claim {args.claim} names no --pairs run")
        doc["claim"] = {
            "metric": m,
            "workload": w,
            "rule": "at every seed, the change wins >= 9 in 10 of the pairs (rounded up), its "
                    "median beats the parent's by more than the parent IQR, every run is correct, "
                    "the change fails no more operations than the parent and every pair's digests match",
            "met": all(x["met"] for x in seeds),
            "seeds": seeds,
        }

    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    for wl in doc["workloads"]:
        for m in END_TO_END:
            sm = wl["summary"][m]
            r = sm["ratio_q1_median_q3"]
            print(f"{wl['workload']} seed {wl['seed']} {m}: median ratio {r[1]:.3f} [{r[0]:.3f}, {r[2]:.3f}] "
                  f"wins {sm['change_wins']}/{sm['pairs']}" if r else f"{wl['workload']} {m}: no ratios")
    for gb in doc.get("gobench", []):
        for b, sm in gb["summary"].items():
            r = sm["ratio_q1_median_q3"]
            print(f"{b}: median ratio {r[1]:.3f} [{r[0]:.3f}, {r[2]:.3f}] wins {sm['change_wins']}/{sm['pairs']}")
    for c in doc.get("commands", []):
        for m in CMD_METRICS:
            sm = c["summary"][m]
            r = sm["ratio_q1_median_q3"]
            print(f"byzcount {c['args']}: {m} median ratio {r[1]:.3f} [{r[0]:.3f}, {r[2]:.3f}] "
                  f"wins {sm['change_wins']}/{sm['pairs']}")
    if "claim" in doc:
        print(f"claim {doc['claim']['workload']} {doc['claim']['metric']}: met={doc['claim']['met']}")
    if cmd_failed:
        print("benchpair: a --cmd pair failed: a run exited non-zero or the stdout digests differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
