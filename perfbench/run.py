#!/usr/bin/env python3
"""End-to-end benchmark of the loop-flattening tool chain.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload nbforce-sim --seed 1 --seconds 30 --trace 0

It builds the three user-facing binaries (flattenc, simdsim, simdbatch)
and the benchmark's own NBFORCE input generator (perfbench/mdgen) from
source with dune in release mode, makes the workload's inputs from the
seed and sets them up five times, then drives the binaries in a closed
loop (one client; each call starts when the previous one has ended) for
the given number of seconds, checking every output.  The last line of
stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones: the trimmed mean
(see trimmed_mean) and the 90th percentile of the wall time of one call
("attempted" is the sample count), and the median of the five set-ups.
With --trace 1 every simdbatch call also writes its telemetry
(--stats-json), every nest-compile call is repeated without
--check/--dump-ir, and the metrics are the per-layer ones; a layer that
a workload does not use reports 0.

Workloads (BENCHMARK.json says why each exists):

  nbforce-sim   one `simdbatch` call per op: the flattened NBFORCE kernel
                (128 lanes) on the repo's synthetic SOD molecule (1024
                atoms from Lf_md.Workload.sod with the seed, pairlist at
                the paper's 4 A cutoff), run once on every engine:
                compiled -O1 and -O2, parallel -O2 with one and two jobs,
                tree-walk.
  nest-compile  one `flattenc --target simd --check --dump-ir` call per op,
                cycling over 8 seeded loop nests (four shapes, 240-statement
                bodies): parse, flatten, SIMDize, typecheck, lower, -O.
  sweep-batch   one `simdbatch` call per op on a seeded work list: four
                nests x two lane counts x (-O0/-O1/-O2 compiled, each run
                twice, and tree-walk), so most runs hit the compiled-program
                cache.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing behind in the checkout

import gen  # noqa: E402

BINARIES = {b: f"bin/{b}.exe" for b in ("flattenc", "simdsim", "simdbatch")}
BINARIES["mdgen"] = "perfbench/mdgen/mdgen.exe"
SETUPS = 5  # set-ups per run; setup_s is their median
CALL_TIMEOUT = 60  # seconds, per binary call


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def bench_dir():
    """Where build outputs and scratch inputs go: $CARGO_TARGET_DIR if
    set, else .bench_build; relative paths are taken from the checkout
    root."""
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Build the binaries with dune (release profile, build directory
    inside the checkout) and return their paths."""
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "bin"))):
        fail(f"{ROOT} is not a source checkout (no dune-project or bin/)")
    os.makedirs(bench_dir(), exist_ok=True)
    bdir = os.path.join(bench_dir(), "dune")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ROOT, "--profile", "release",
             "--build-dir", bdir, *BINARIES.values()],
            cwd=ROOT, env=dict(os.environ, DUNE_CACHE="disabled"),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if r.returncode != 0:
        fail("build failed:\n" + r.stdout[-4000:])
    return {b: os.path.join(bdir, "default", t) for b, t in BINARIES.items()}


def call(argv, cwd):
    """Run one binary call; return (wall seconds, returncode, stdout)."""
    t0 = time.perf_counter()
    try:
        r = subprocess.run(argv, cwd=cwd, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True,
                           timeout=CALL_TIMEOUT)
    except subprocess.TimeoutExpired:
        print(f"perfbench: timed out: {' '.join(argv)[:200]}", file=sys.stderr)
        return time.perf_counter() - t0, -1, ""
    wall = time.perf_counter() - t0
    if r.returncode != 0:
        print(f"perfbench: {os.path.basename(argv[0])} exited {r.returncode}: "
              f"{r.stderr[-500:]}", file=sys.stderr)
    return wall, r.returncode, r.stdout


def trimmed_mean(xs, cut=0.1):
    """Mean of xs without its lowest and highest `cut` shares.  The host
    this was tuned on switches between a fast and a ~1.4x slower speed
    for seconds to minutes at a time, so the wall times of a run form two
    clusters and their median jumps between them from run to run; the
    trimmed mean blends them by their shares (half the run-to-run spread
    of the median on sweep-batch) and still drops stalls."""
    xs = sorted(xs)
    k = int(len(xs) * cut)
    return statistics.mean(xs[k:len(xs) - k])


def csv(values):
    return ",".join(map(str, values))


def load_json(path):
    with open(path) as f:
        return json.load(f)


def write(path, text):
    with open(path, "w") as f:
        f.write(text)


def dump_lines(text, names):
    """The `name = ...` lines of simdsim --dump output (or of a batch
    state artifact) for the given variable names, in order."""
    return [l for l in text.splitlines() if l.split(" = ", 1)[0] in names]


def parse_dump(line):
    """`f = [|1.5; -2.|]` -> [1.5, -2.0]"""
    body = line.split(" = ", 1)[1].strip()
    return [float(v) for v in body[2:-2].split(";") if v.strip()]


def sim_steps(text):
    """Vector steps from simdsim's `SIMD run on P lanes: steps=N ...`."""
    for l in text.splitlines():
        if l.startswith("SIMD run on "):
            return int(l.split("steps=", 1)[1].split()[0])
    return None


def seed_args(inputs):
    """--set/--fill arguments for gen.nest_inputs()."""
    out = []
    for k, v in inputs["set"].items():
        out += ["--set", f"{k}={v}"]
    for k, v in inputs["fill"].items():
        out += ["--fill", f"{k}={csv(v)}"]
    return out


class Layers:
    """Per-layer samples of a traced run: wall times of every call, and
    counts from the first pass over the distinct inputs (they repeat
    exactly)."""

    # simdbatch item configurations with a per-run time of their own
    RUNS = ("compiled_o0", "compiled_o1", "compiled_o2", "parallel_o2_j1",
            "parallel_o2_j2", "treewalk")

    def __init__(self):
        self.times = {}
        self.counts = {}

    def add(self, name, seconds):
        self.times.setdefault(name, []).append(seconds)

    def count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def median_ms(self, name):
        v = self.times.get(name)
        return statistics.median(v) * 1e3 if v else 0.0

    def sim_call(self, wall, stats, runs, first):
        """Account one simulator process from its --stats-json dump and
        the metrics (as in --metrics-json) of every run it made."""
        opt = stats["opt"]
        exec_s = stats["volatile"]["vm.run_wall"]["total_ns"] / 1e9
        self.add("sim", wall)
        self.add("exec", exec_s)
        self.add("front", wall - exec_s)
        if first:
            self.count("cache_hits", opt["cache.hits"])
            self.count("cache_misses", opt["cache.misses"])
            self.count("fused_runs",
                       opt["opt.fused_region_runs"] + opt["opt.fused_reduce_runs"])
            self.count("dispatches", sum(v for k, v in stats["counters"].items()
                                         if k.startswith("dispatch.")))
            for m in runs:
                self.count("busy_lanes", m["busy_lanes"])
                self.count("lane_slots", m["lane_slots"])

    def batch_item(self, rec):
        """One simdbatch record: the per-run wall time of its
        configuration."""
        if rec["engine"] == "tree-walk":
            name = "treewalk"
        elif rec["engine"] == "parallel":
            name = f"parallel_o{rec['opt']}_j{rec['jobs']}"
        else:
            name = f"compiled_o{rec['opt']}"
        self.add(name, rec["wall_ns"] / 1e9 / rec["repeat"])

    def metrics(self):
        c = self.counts
        hits, misses = c.get("cache_hits", 0), c.get("cache_misses", 0)
        slots, irs = c.get("lane_slots", 0), c.get("ir_programs", 0)
        out = {
            "flatten_ms": (self.median_ms("flatten"), "ms"),
            "flatten_check_ms": (self.median_ms("flatten_check"), "ms"),
            "sim_ms": (self.median_ms("sim"), "ms"),
            "exec_ms": (self.median_ms("exec"), "ms"),
            "front_ms": (self.median_ms("front"), "ms"),
        }
        for r in self.RUNS:
            out[f"run_{r}_ms"] = (self.median_ms(r), "ms")
        out.update({
            "cache_hits": (hits, "count"),
            "cache_misses": (misses, "count"),
            "cache_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
            "utilization": (c.get("busy_lanes", 0) / slots if slots else 0.0, "ratio"),
            "dispatches": (c.get("dispatches", 0), "count"),
            "fused_runs": (c.get("fused_runs", 0), "count"),
            "ir_nodes": (c.get("ir_nodes", 0) / irs if irs else 0.0, "count"),
        })
        return out


# -- workloads ----------------------------------------------------------
#
# setup(dir, layers) makes the inputs from the seed, writes them into dir
# and makes one warm-up pass that records the expected outputs; op(layers)
# makes one timed call and returns (wall seconds, output correct);
# verify() makes the untimed end-of-run checks against independent
# references.  `steps` is the mean simulated SIMD steps of the workload's
# flattened programs.  `layers` is None unless the run is traced.


def flatten(bins, d, src, p, flags, layers):
    """flattenc --target simd on source file src; returns the output."""
    wall, rc, out = call([bins["flattenc"], "--target", "simd", "--nproc", str(p),
                          *flags, src], d)
    if rc != 0:
        fail(f"flattenc refused {src}")
    if layers:
        layers.add("flatten", wall)
    return out


class BatchWorkload:
    """One `simdbatch` call per op on the work list self.jobs (made by
    the subclass's setup); check_states(states) checks the final state of
    every item, as written by --artifacts, against a reference."""

    def __init__(self, bins, seed):
        self.bins, self.seed, self.ops, self.steps = bins, seed, 0, None

    def start(self, d, jobs):
        """Write the work list and make the warm-up call."""
        self.dir, self.jobs = d, jobs
        write(os.path.join(d, "jobs.json"), json.dumps({"jobs": jobs}))
        _, rc, out = call([self.bins["simdbatch"], "jobs.json"], d)
        recs = self.records(rc, out)
        self.expect = recs and [r["metrics"] for r in recs]
        self.steps = recs and statistics.mean(r["metrics"]["steps"] for r in recs)

    def records(self, rc, out):
        """The JSONL records of a clean batch, or None."""
        recs = [json.loads(l) for l in out.splitlines() if l.strip()]
        if rc != 0 or len(recs) != len(self.jobs) or any(
                r["status"] != "ok" for r in recs):
            return None
        return recs

    def op(self, layers):
        argv = [self.bins["simdbatch"]]
        if layers:
            argv += ["--stats-json", "stats.json"]
        wall, rc, out = call(argv + ["jobs.json"], self.dir)
        recs = self.records(rc, out)
        ok = recs is not None and [r["metrics"] for r in recs] == self.expect
        if layers and ok:
            for r in recs:
                layers.batch_item(r)
            runs = [r["metrics"] for r in recs for _ in range(r["repeat"])]
            layers.sim_call(wall, load_json(os.path.join(self.dir, "stats.json")),
                            runs, first=self.ops == 0)
        self.ops += 1
        return wall, ok

    def verify(self):
        _, rc, _ = call([self.bins["simdbatch"], "--artifacts", "art", "jobs.json"],
                        self.dir)
        if rc != 0 or not self.expect:
            return False
        states = []
        for i in range(len(self.jobs)):
            with open(os.path.join(self.dir, "art", f"item-{i:03d}.state.txt")) as f:
                states.append(f.read())
        return self.check_states(states)


class NbforceSim(BatchWorkload):
    ATOMS, CUTOFF, P = 1024, 4.0, 128
    # (engine, -O, jobs) of the items, one run each
    CONFIGS = [("compiled", 1, None), ("compiled", 2, None), ("parallel", 2, 1),
               ("parallel", 2, 2), ("tree-walk", 0, None)]
    FILLS = ("pcnt", "pstart", "partners", "x", "y", "z", "q", "sg", "ea")
    OUT = ("fx", "fy", "fz")

    def setup(self, d, layers):
        _, rc, out = call([self.bins["mdgen"], str(self.seed), str(self.ATOMS),
                           str(self.CUTOFF)], d)
        if rc != 0:
            fail("mdgen failed")
        self.data = dd = json.loads(out)
        write(os.path.join(d, "nbforce.f"), gen.NBFORCE_SRC)
        write(os.path.join(d, "nbforce_simd.f"),
              flatten(self.bins, d, "nbforce.f", self.P, ["--assume-inner-nonempty"],
                      layers))
        item = {"program": "nbforce_simd.f", "p": self.P,
                "set": {"n": self.ATOMS, "npair": len(dd["partners"]),
                        "r2min": "0.000001"},
                "fill": {k: csv(dd[k]) for k in self.FILLS}}
        self.start(d, [dict(item, engine=e, opt=o, **({"jobs": j} if j else {}))
                       for e, o, j in self.CONFIGS])

    def check_states(self, states):
        """Every engine's forces match Lf_md.Force.reference_owner_side
        as mdgen printed it (the state dump has six significant
        digits)."""
        for text in states:
            lines = dump_lines(text, set(self.OUT))
            if len(lines) != len(self.OUT):
                return False
            for line, name in zip(lines, self.OUT):
                got, want = parse_dump(line), self.data[name]
                if len(got) != len(want) or any(
                        abs(g - w) > 1e-5 * abs(w) + 1e-9 for g, w in zip(got, want)):
                    return False
        return True


class NestCompile:
    PER_SHAPE, STMTS, P = 2, 240, 8

    def __init__(self, bins, seed):
        self.bins, self.seed, self.ops, self.steps = bins, seed, 0, None

    def argv(self, k, check=True):
        name, _, flags = self.corpus[k]
        extra = ["--check", "--dump-ir", f"{name}.ir.json"] if check else []
        return [self.bins["flattenc"], "--target", "simd", "--nproc", str(self.P),
                *flags, *extra, f"{name}.f"]

    def setup(self, d, layers):
        self.dir = d
        rng = random.Random(self.seed)
        self.inputs = gen.nest_inputs(rng)
        self.corpus = gen.nest_corpus(rng, self.PER_SHAPE, self.STMTS)
        self.expect = []
        for k, (name, src, _) in enumerate(self.corpus):
            write(os.path.join(d, f"{name}.f"), src)
            _, rc, out = call(self.argv(k), d)
            self.expect.append(out if rc == 0 else None)

    def op(self, layers):
        k = self.ops % len(self.corpus)
        wall, rc, out = call(self.argv(k), self.dir)
        ok = rc == 0 and out == self.expect[k]
        if layers and ok:
            # the checked call (typecheck, lower and -O the output too),
            # and the same call without --check/--dump-ir
            layers.add("flatten_check", wall)
            t, _, _ = call(self.argv(k, check=False), self.dir)
            layers.add("flatten", t)
            if self.ops < len(self.corpus):
                with open(os.path.join(self.dir, f"{self.corpus[k][0]}.ir.json")) as f:
                    ir = f.read()
                layers.count("ir_nodes", ir.count('"stmt"') + ir.count('"expr"'))
                layers.count("ir_programs", 1)
        self.ops += 1
        return wall, ok

    def verify(self):
        """Every flattened nest computes what its source computes: the
        sequential interpreter on the source against the compiled SIMD
        engine on flattenc's output."""
        seeds = seed_args(self.inputs) + ["--dump", "a", "--dump", "b"]
        steps = []
        for k, (name, _, _) in enumerate(self.corpus):
            if self.expect[k] is None:
                return False
            write(os.path.join(self.dir, f"{name}_simd.f"), self.expect[k])
            _, rc1, seq = call([self.bins["simdsim"], "--seq", *seeds, f"{name}.f"],
                               self.dir)
            _, rc2, simd = call([self.bins["simdsim"], "--lanes", str(self.P),
                                 "--engine", "compiled", *seeds, f"{name}_simd.f"],
                                self.dir)
            want = dump_lines(seq, {"a", "b"})
            if rc1 or rc2 or len(want) != 2 or dump_lines(simd, {"a", "b"}) != want:
                return False
            steps.append(sim_steps(simd))
        self.steps = statistics.mean(steps)
        return True


class SweepBatch(BatchWorkload):
    STMTS, N, M, LANES, REPEAT = 12, 8, 4, (8, 32), 2

    def setup(self, d, layers):
        rng = random.Random(self.seed)
        self.inputs = gen.nest_inputs(rng, self.N, self.M)
        self.corpus = gen.nest_corpus(rng, 1, self.STMTS)
        fills = {k: csv(v) for k, v in self.inputs["fill"].items()}
        jobs = []
        for name, src, flags in self.corpus:
            write(os.path.join(d, f"{name}.f"), src)
            for p in self.LANES:
                prog = f"{name}_p{p}.f"
                write(os.path.join(d, prog),
                      flatten(self.bins, d, f"{name}.f", p, flags, layers))
                item = {"program": prog, "p": p, "set": self.inputs["set"],
                        "fill": fills}
                jobs += [dict(item, engine="compiled", opt=o, repeat=self.REPEAT)
                         for o in (0, 1, 2)]
                jobs.append(dict(item, engine="tree-walk"))
        self.start(d, jobs)

    def check_states(self, states):
        """Every item's final state equals the sequential interpreter's
        result for the item's source nest, on every engine and -O level."""
        seeds = seed_args(self.inputs) + ["--dump", "a", "--dump", "b"]
        want = {}
        for name, _, _ in self.corpus:
            _, rc, seq = call([self.bins["simdsim"], "--seq", *seeds, f"{name}.f"],
                              self.dir)
            want[name] = dump_lines(seq, {"a", "b"})
            if rc != 0 or len(want[name]) != 2:
                return False
        return all(dump_lines(text, {"a", "b"}) == want[job["program"].rsplit("_p", 1)[0]]
                   for job, text in zip(self.jobs, states))


WORKLOADS = {"nbforce-sim": NbforceSim, "nest-compile": NestCompile,
             "sweep-batch": SweepBatch}


def run(args):
    bins = build()
    wl = WORKLOADS[args.workload](bins, args.seed)
    layers = Layers() if args.trace else None
    work = os.path.join(bench_dir(), "work", f"{args.workload}-{os.getpid()}")
    setup_times, walls, failed = [], [], 0
    try:
        for k in range(SETUPS):
            d = os.path.join(work, str(k))
            os.makedirs(d)
            t0 = time.perf_counter()
            wl.setup(d, layers)
            setup_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < args.seconds or len(walls) < 2:
            wall, ok = wl.op(layers)
            walls.append(wall)
            failed += not ok
        correct = failed == 0 and wl.verify() and bool(wl.steps)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if layers:
        metrics = layers.metrics()
        metrics["vector_steps"] = (wl.steps or 0, "count")
    else:
        metrics = {
            "latency_ms": (trimmed_mean(walls) * 1e3, "ms"),
            "latency_p90_ms": (statistics.quantiles(walls, n=10)[-1] * 1e3, "ms"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
    return {
        "correct": correct,
        "attempted": len(walls),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main():
    ap = argparse.ArgumentParser(
        description="End-to-end benchmark of the loop-flattening tool chain.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    print(json.dumps(run(args)))


if __name__ == "__main__":
    main()
