"""sl2ybe benchmark: wall time to an exact verdict for fresh CLI runs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; `src/` of that checkout is put on
PYTHONPATH, nothing is installed.  Each timed run is one
`python -m sl2ybe.cli ... --json` in a fresh interpreter (closed loop, one
client, one process at a time), timed from spawn to exit, and its verdict is
checked.  With `--trace 0` the run repeats the workload for S seconds and
reports the end-to-end metrics; with `--trace 1` it makes one untraced and
one traced in-process call (see child.py) and two cProfile counting calls,
and reports the per-layer metrics.  Times are reported at a nominal host
speed (see REF_NOMINAL_S).  The last line of stdout is one JSON object; a run
record with every raw sample goes to perfbench/records/.
See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from child import EXACT_COUNTS, TRACED_MODULES

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RECORDS = BENCH / "records"

# Everything, children included, ends within this many seconds of the start.
DEADLINE_S = 170.0
# Fresh-interpreter imports per `--trace 0` run; setup_s is their median.
SETUP_PROBES = 7

# Host speed.  On a shared host the same invocation drifts by 20-40 % from
# one minute to the next, and its CPU time drifts with its wall time, so the
# core itself runs slower.  So a fixed pure-Python Fraction kernel is
# timed in this process before the first timed child and after each one (for
# REF_SHARE of its wall time), all on one CPU, and each child's times are
# multiplied by REF_NOMINAL_S over the mean kernel time just before and just
# after it.  The time metrics are thus seconds at a fixed host speed; the raw
# times and the factors are kept in the run record.
REF_NOMINAL_S = 0.035
REF_SHARE = 0.1
REF_EDGE_S = 0.5

PROBE = ("import json, numpy, sl2ybe.cli; "
         "print(json.dumps([sl2ybe.cli.__file__, numpy.__version__]))")


def verdict(code, payload: str):
    """The verdict fields of one CLI run: exit code, overall pass, and each
    criterion's or (level, sample)'s outcome.  Other payload fields are
    ignored, so adding fields to the payload changes no verdict."""
    try:
        doc = json.loads(payload)
    except ValueError:
        return {"exit": code, "payload": "not JSON"}
    out = {"exit": code, "pass": doc.get("pass")}
    if "criteria" in doc:
        out["criteria"] = [[c["number"], c["pass"], c["documented_discrepancy"] is not None]
                           for c in doc["criteria"]]
    if "levels" in doc:
        out["levels"] = {lvl["n"]: ([s["zero"] for s in lvl["samples"]]
                                    if "samples" in lvl else [lvl["zero"]])
                         for lvl in doc["levels"]}
    if "regularity" in doc:
        out["regularity"] = doc["regularity"]
    return out


def expect_suite(v) -> bool:
    """Exit 1; criteria 1-5 and 7-11 pass; criterion 6 fails as the
    documented discrepancy (the honest verdict of the battery)."""
    crit = v.get("criteria", [])
    return (v["exit"] == 1 and v["pass"] is False
            and [c[0] for c in crit] == list(range(1, 12))
            and all(ok == (num != 6) for num, ok, _ in crit)
            and crit[5][2])


def expect_dense(v) -> bool:
    """Exit 0; levels 0..6, each exactly zero on all 13x13 samples."""
    levels = v.get("levels", {})
    return (v["exit"] == 0 and v["pass"] is True and v.get("regularity") is True
            and sorted(levels) == list(range(7))
            and all(len(z) == 169 and all(z) for z in levels.values()))


def expect_perturbed(v) -> bool:
    """Exit 1; level 0 zero, level 1 nonzero on all 12 samples."""
    levels = v.get("levels", {})
    return (v["exit"] == 1 and v["pass"] is False and sorted(levels) == [0, 1]
            and all(levels[0]) and len(levels[1]) == 12 and not any(levels[1]))


def expect_constant_break(v) -> bool:
    """Exit 1; exactly levels 4 and 5 nonzero (the Q(sqrt d) zero test)."""
    levels = v.get("levels", {})
    return (v["exit"] == 1 and v["pass"] is False
            and {n for n, z in levels.items() if not all(z)} == {4, 5})


@dataclass(frozen=True)
class Workload:
    argv: tuple
    expect: object
    work: tuple = ()   # per-layer counts that must be > 0 on this workload
    idle: tuple = ()   # per-layer counts that should stay 0 on this workload


WORKLOADS = {
    "suite-10": Workload(
        ("suite", "--max-2s", "10"), expect_suite,
        work=("sixj.sixj.calls", "sixj.racah_identity_residual.calls",
              "classify.fgh_matrices.calls", "linalg.span_rank.calls",
              "ybe.reduced_ybe_check.calls", "linalg.mat_mul.calls",
              "spectral.reduced_d.calls", "amatrix.a_matrix.calls",
              "oracle.dense_projectors.calls", "oracle.dense_ybe_residual.calls",
              "exact.fraction_new")),
    "verify-q": Workload(
        ("verify", "--family", "yang", "--s", "2", "--grid", "dense"), expect_dense,
        work=("ybe.reduced_ybe_check.calls", "linalg.mat_mul.calls",
              "spectral.reduced_d.calls", "amatrix.a_matrix.calls",
              "exact.fraction_new"),
        idle=("sixj.sixj.calls", "classify.fgh_matrices.calls",
              "linalg.span_rank.calls", "exact.quadext_new")),
    "verify-qd": Workload(
        ("verify", "--family", "baxter-tl", "--s", "2", "--grid", "dense"), expect_dense,
        work=("ybe.reduced_ybe_check.calls", "linalg.mat_mul.calls",
              "spectral.reduced_d.calls", "amatrix.a_matrix.calls",
              "exact.fraction_new", "exact.quadext_new"),
        idle=("sixj.sixj.calls", "classify.fgh_matrices.calls",
              "linalg.span_rank.calls")),
}

# Untimed checks that the zero test still tells a broken family apart.
SENTINELS = {
    "perturbed-spin-half": (
        ("verify", "--family-file", str(BENCH / "perturbed_spin_half.json")),
        expect_perturbed),
    "constant-baxter-s2-m3": (
        ("verify", "--family", "constant-baxter", "--s", "2", "--m", "3"),
        expect_constant_break),
}

# Per-function metrics of the traced run: (function, fields), where a field is
# `calls`, `self_s` or `s` (inclusive seconds).
FUNCTION_METRICS = (
    ("sixj.sixj", ("calls", "self_s")),
    ("sixj.racah_identity_residual", ("calls", "self_s")),
    ("classify.fgh_matrices", ("calls", "self_s")),
    ("classify.degeneracy_scan", ("s",)),
    ("linalg.span_rank", ("calls", "self_s")),
    ("ybe.reduced_ybe_check", ("calls", "self_s")),
    ("ybe.full_check", ("s",)),
    ("linalg.mat_mul", ("calls", "self_s")),
    ("spectral.reduced_d", ("calls", "self_s")),
    ("amatrix.a_matrix", ("calls",)),
    ("amatrix.verify_a_properties", ("self_s",)),
    ("amatrix.verify_sign_conjugation", ("self_s",)),
    ("oracle.dense_projectors", ("calls", "self_s")),
    ("oracle.dense_ybe_residual", ("calls", "self_s")),
    ("oracle.dense_operator_identities", ("self_s",)),
) + tuple((f"acceptance.criterion_{i}", ("s",)) for i in range(1, 12))


@dataclass
class Proc:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


class Runner:
    """Spawns children of the benchmark one at a time, each timed from spawn
    to exit, with its own resource usage, and killed at the deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "SL2YBE_THREADS"}
        self.env["PYTHONPATH"] = str(SRC)

    def start(self, args):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        killer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
        killer.start()
        return t0, proc, killer

    def finish(self, handle) -> Proc:
        t0, proc, killer = handle
        err = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        killer.cancel()
        killer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                    proc.returncode, out.decode(), err[0].decode())

    def run(self, args) -> Proc:
        return self.finish(self.start(args))

    def cli(self, argv) -> Proc:
        return self.run(("-m", "sl2ybe.cli", *argv, "--json"))

    def child(self, mode, argv):
        return self.start((str(BENCH / "child.py"), mode, "--", *argv, "--json"))


def inside_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    return res.stdout.strip() or None


def metric(value, unit):
    return {"value": value, "unit": unit}


def proc_record(p: Proc, v=None):
    rec = {"wall_s": p.wall_s, "cpu_s": p.cpu_s, "rss_mb": p.rss_mb, "exit": p.code,
           "stdout_sha256": sha256(p.stdout)}
    if v is not None:
        rec["verdict_ok"] = v
    return rec


def reference_kernel() -> float:
    """Seconds for a fixed pure-Python Fraction computation in this process."""
    t0 = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 6000):
        total += Fraction(i % 97, i)
    return time.perf_counter() - t0


def host_factor(before: float, after: float) -> float:
    """Scale from the host speed around a child to the nominal speed."""
    return 2 * REF_NOMINAL_S / (before + after)


def pin_one_cpu() -> int:
    """Pin this process, and so the children it starts, to one CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def reference_point(seconds: float) -> float:
    """Median kernel time over at least `seconds` (at least one kernel)."""
    times = []
    end = time.perf_counter() + seconds
    while not times or time.perf_counter() < end:
        times.append(reference_kernel())
    return statistics.median(times)


def timed_runs(runner, wl, seconds, seed, record):
    """The `--trace 0` run: timed CLI calls for `seconds` of measured time,
    with the set-up probes and the sentinels interleaved in a seeded order.
    Every timed child is bracketed by reference points (see REF_NOMINAL_S)."""
    cpu = pin_one_cpu()
    side = ["setup"] * SETUP_PROBES + list(SENTINELS)
    random.Random(seed).shuffle(side)
    setups, sentinels, samples = [], {}, []
    timeline = [reference_point(REF_EDGE_S)]   # reference point, child, point, ...

    def timed(p, ok):
        rec = proc_record(p, ok)
        timeline.append(rec)
        timeline.append(reference_point(REF_SHARE * p.wall_s))
        return rec

    def side_task(task):
        if task == "setup":
            p = runner.run(("-c", PROBE))
            setups.append(timed(p, p.code == 0 and inside_src(json.loads(p.stdout)[0])))
        else:
            argv, expect = SENTINELS[task]
            p = runner.cli(argv)
            sentinels[task] = proc_record(p, expect(verdict(p.code, p.stdout)))

    measured = 0.0
    while measured < seconds:
        if samples and time.monotonic() + samples[-1]["wall_s"] > runner.deadline:
            break
        if side:
            side_task(side.pop())
        p = runner.cli(wl.argv)
        samples.append(timed(p, wl.expect(verdict(p.code, p.stdout))))
        measured += p.wall_s
    for task in side:
        side_task(task)
    for i in range(1, len(timeline), 2):
        timeline[i]["host_factor"] = host_factor(timeline[i - 1], timeline[i + 1])

    failed = sum(not s["verdict_ok"] for s in samples)
    record.update(cpu=cpu, samples=samples, setup=setups, sentinels=sentinels,
                  reference_points=timeline[::2])
    correct = (failed == 0 and all(s["verdict_ok"] for s in setups)
               and all(s["verdict_ok"] for s in sentinels.values()))

    def scaled(recs, key):
        return statistics.median(r[key] * r["host_factor"] for r in recs)

    metrics = {
        "run_s": metric(scaled(samples, "wall_s"), "s"),
        "cpu_s": metric(scaled(samples, "cpu_s"), "s"),
        "peak_rss_mb": metric(statistics.median(s["rss_mb"] for s in samples), "MB"),
        "setup_s": metric(scaled(setups, "wall_s"), "s"),
        "verdict_ok_frac": metric((len(samples) - failed) / len(samples), "ratio"),
    }
    return correct, len(samples), failed, metrics


def layer_metrics(trace, counts, scale):
    """Per-layer metrics from the traced run's report and the counting run;
    times are multiplied by the traced child's host factor `scale`."""
    funcs = trace.get("functions", {})
    distinct = trace.get("distinct", {})
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    out = {}
    for name, fields in FUNCTION_METRICS:
        f = funcs.get(name, empty)
        for field in fields:
            if field == "calls":
                out[f"{name}.calls"] = metric(f["calls"], "count")
            elif field == "self_s":
                out[f"{name}.self_s"] = metric(f["self_s"], "s")
            else:
                out[f"{name}.s"] = metric(f["total_s"], "s")
    six = funcs.get("sixj.sixj", empty)["calls"]
    six_distinct = distinct.get("sixj.sixj", 0)
    out["sixj.sixj.distinct"] = metric(six_distinct, "count")
    out["sixj.sixj.distinct_ratio"] = metric(six_distinct / six if six else 0.0, "ratio")
    out["amatrix.a_matrix.distinct"] = metric(distinct.get("amatrix.a_matrix", 0), "count")
    out["amatrix.a_matrix.build_s"] = metric(
        trace.get("build_s", {}).get("amatrix.a_matrix", 0.0), "s")
    out["ybe.reduced_ybe_check.nonzero"] = metric(
        trace.get("nonzero", {}).get("ybe.reduced_ybe_check", 0), "count")
    for layer in TRACED_MODULES:
        mine = [f for name, f in funcs.items() if name.split(".")[0] == layer]
        out[f"layer.{layer}.calls"] = metric(sum(f["calls"] for f in mine), "count")
        out[f"layer.{layer}.self_s"] = metric(sum(f["self_s"] for f in mine), "s")
    for name in EXACT_COUNTS:
        out[name] = metric(counts.get(name, 0), "count")
    for m in out.values():
        if m["unit"] == "s":
            m["value"] *= scale
    return out


def traced_runs(runner, wl, record):
    """The `--trace 1` run: untraced and traced calls on one CPU, bracketed by
    reference points, then two untimed counting calls side by side."""
    cpus = os.sched_getaffinity(0)
    cpu = pin_one_cpu()
    refs = [reference_point(REF_EDGE_S)]
    plain = runner.finish(runner.child("plain", wl.argv))
    refs.append(reference_point(REF_SHARE * plain.wall_s))
    traced = runner.finish(runner.child("trace", wl.argv))
    refs.append(reference_point(REF_SHARE * traced.wall_s))
    os.sched_setaffinity(0, cpus)
    f_plain, f_traced = host_factor(*refs[:2]), host_factor(*refs[1:])
    pending = [runner.child("count", wl.argv) for _ in range(2)]
    counting = [runner.finish(h) for h in pending]

    docs, verdicts, problems = [], [], []
    for p in (plain, traced, *counting):
        try:
            doc = json.loads(p.stdout)
        except ValueError:
            doc = None
        if p.code != 0 or doc is None:
            problems.append(f"child exited {p.code}: {p.stderr.strip()[-500:]}")
            doc = {"exit": None, "stdout": "", "file": ""}
        elif not inside_src(doc["file"]):
            problems.append(f"sl2ybe imported from {doc['file']}, outside {SRC}")
        docs.append(doc)
        verdicts.append(verdict(doc["exit"], doc["stdout"]))
    failed = sum(not wl.expect(v) for v in verdicts)
    if verdicts[1] != verdicts[0]:
        problems.append("traced verdicts differ from the untraced ones")
    plain_doc, traced_doc, *count_docs = docs
    counts = [d.get("counts") for d in count_docs]
    if counts[0] is None or counts[0] != counts[1]:
        problems.append(f"counting runs disagree: {counts}")

    metrics = layer_metrics(traced_doc.get("trace") or {}, counts[0] or {}, f_traced)
    flags = [f"{name} is 0 where the workload does that work" for name in wl.work
             if metrics.get(name, {"value": 0})["value"] == 0]
    flags += [f"{name} is {metrics[name]['value']} where the workload should not do that work"
              for name in wl.idle if metrics.get(name, {"value": 0})["value"] != 0]
    traced_main = traced_doc.get("main_s", 0.0) * f_traced
    metrics["trace.overhead_s"] = metric(
        traced_main - plain_doc.get("main_s", 0.0) * f_plain, "s")
    metrics["trace.main_s"] = metric(traced_main, "s")
    metrics["trace.flagged"] = metric(len(flags), "count")
    for flag in flags:
        print(f"perfbench: flag: {flag}", file=sys.stderr)

    record.update(children=[dict(proc_record(p), mode=m, main_s=d.get("main_s"))
                            for p, d, m in zip((plain, traced, *counting), docs,
                                               ("plain", "trace", "count", "count"))],
                  cpu=cpu, reference_points=refs, host_factors=[f_plain, f_traced],
                  trace=traced_doc.get("trace"), counts=counts, flags=flags,
                  problems=problems)
    return not problems and failed == 0, len(verdicts), failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    runner = Runner(started + DEADLINE_S)

    if not (SRC / "sl2ybe" / "cli.py").is_file():
        print(f"perfbench: no sl2ybe sources under {SRC}", file=sys.stderr)
        return 2
    # Untimed first import: compiles bytecode and proves where sl2ybe resolves.
    warm = runner.run(("-c", PROBE))
    if warm.code != 0 or not inside_src(json.loads(warm.stdout)[0]):
        print(f"perfbench: sl2ybe does not import from {SRC}:\n{warm.stdout}{warm.stderr}",
              file=sys.stderr)
        return 2
    sl2ybe_file, numpy_version = json.loads(warm.stdout)

    wl = WORKLOADS[args.workload]
    record = {
        "workload": args.workload, "argv": list(wl.argv), "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": numpy_version,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(), "source_sha256": source_digest(),
        "sl2ybe_file": sl2ybe_file,
        "parent_sl2ybe_threads": os.environ.get("SL2YBE_THREADS"),
        "loadavg_start": os.getloadavg(),
    }
    if args.trace:
        correct, attempted, failed, metrics = traced_runs(runner, wl, record)
    else:
        correct, attempted, failed, metrics = timed_runs(
            runner, wl, args.seconds, args.seed, record)
    record.update(loadavg_end=os.getloadavg(), elapsed_s=time.monotonic() - started,
                  correct=correct, metrics=metrics)

    RECORDS.mkdir(exist_ok=True)
    path = RECORDS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"perfbench: record {path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
