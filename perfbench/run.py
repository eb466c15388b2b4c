#!/usr/bin/env python3
"""Repo benchmark: builds perfbench/bench.exe from the checkout and runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With --trace 0 it starts one fresh
measuring process after another for about S seconds (at least two),
and prints the end-to-end metrics as medians over them.  With
--trace 1 it runs one process that makes an untraced, a traced and a
second untraced simulation, and prints the per-layer metrics.  Every simulation's report
fingerprint is checked against the recorded one for its seed
(perfbench/reference.json) or, for a seed not recorded there, against
the libraries' own entry point run in a separate process.  The last
line of stdout is the result object; perfbench/README.md defines each
metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
OUT_DIR = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("campaign-2m", "extensions-1m", "federation-4x2")
# Set-up samples per measuring process; their median is setup_s.
SETUPS = 9
# Untraced samples per run at least, so no run's figure is one process's.
MIN_SAMPLES = 2
# A run starts no new simulation once this much time has gone.
RUN_BUDGET_S = 150.0
PROCESS_TIMEOUT_S = 170.0

LABELS = ("scheduler", "workload", "oar", "oar-refresh", "deploy", "faults",
          "serve", "health", "unlabelled")
CAMPAIGN_PHASES = (("campaign.prepare_s", "prepare_s"),
                   ("campaign.drive_s", "drive_s"),
                   ("campaign.finalize_s", "finalize_s"),
                   ("report.to_json_s", "render_s"))


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Build the measuring program; a checkout without the sources fails here."""
    if not os.path.isfile("dune-project"):
        raise BenchError("no dune-project here: run from the root of a checkout")
    env = dict(os.environ, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.abspath(os.path.join(BUILD_DIR, "cache")))
    done = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--display", "quiet", "./perfbench/bench.exe"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0 or not os.path.isfile(EXE):
        raise BenchError("build failed:\n" + done.stdout)


def steal_seconds():
    """Host steal time so far, summed over all CPUs (0 where not exposed)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def bench_exe(*args):
    done = subprocess.run([EXE, *map(str, args)], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=PROCESS_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError(f"bench.exe {' '.join(map(str, args))} exited "
                         f"{done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def reference_fingerprint(workload, seed):
    with open(os.path.join(HERE, "reference.json")) as f:
        recorded = json.load(f)["fingerprints"].get(workload, {})
    if str(seed) in recorded:
        return recorded[str(seed)], "recorded"
    return bench_exe("reference", workload, seed)["fingerprint"], "computed"


END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                    "events_per_s": "1/s", "minor_words_per_event": "words",
                    "peak_heap_mb": "MB"}
PER_LAYER_UNITS = dict(
    [(name, "s") for name, _ in CAMPAIGN_PHASES]
    + [(f"{label}.{what}", unit) for label in LABELS + ("other",)
       for what, unit in (("events", "count"), ("self_s", "s"),
                          ("words_per_event", "words"))]
    + [("engine.loop_overhead_s", "s"), ("engine.step_p50_us", "us"),
       ("engine.step_p99_us", "us"), ("gc.minor_collections", "count"),
       ("gc.major_collections", "count"), ("gc.promoted_words", "words"),
       ("serve.hit_ratio", "ratio"), ("serve.renders", "count"),
       ("serve.queued_peak", "count"), ("serve.reads_per_s", "1/s"),
       ("serve.staleness_p99_s", "s"), ("serve.shed_ratio", "ratio"),
       ("federation.seq_k1_wall_s", "s"), ("federation.seq_k2_wall_s", "s"),
       ("federation.par_k2_wall_s", "s"), ("federation.parallel_speedup", "x"),
       ("federation.parallel_efficiency", "ratio"),
       ("federation.barriers", "count"), ("trace.overhead_s", "s"),
       ("host.steal_s", "s")])


def metrics_json(values, units):
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def end_to_end(samples):
    med = lambda f: statistics.median(f(s) for s in samples)
    return {
        "setup_s": statistics.median(x for s in samples for x in s["setup_s"]),
        "wall_s": med(lambda s: s["wall_s"]),
        "cpu_s": med(lambda s: s["cpu_s"]),
        "events_per_s": med(lambda s: s["events"] / s["drive_s"]),
        "minor_words_per_event": med(lambda s: s["minor_words"] / s["events"]),
        "peak_heap_mb": med(lambda s: s["top_heap_words"] * 8 / 1e6),
    }


def per_layer(sample, steal_s):
    """Per-layer metrics from one `trace` sample; 0 where a layer does not run."""
    m = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    gc = sample["gc"]
    m["gc.minor_collections"] = gc["minor_collections"]
    m["gc.major_collections"] = gc["major_collections"]
    m["gc.promoted_words"] = gc["promoted_words"]
    m["host.steal_s"] = steal_s
    traced = sample["traced"]
    if "par_k2" in traced:
        seq1, par2 = traced["seq_k1"]["wall_s"], traced["par_k2"]["wall_s"]
        seq2 = sample["drive_s"]
        m["federation.seq_k1_wall_s"] = seq1
        m["federation.seq_k2_wall_s"] = seq2
        m["federation.par_k2_wall_s"] = par2
        m["federation.parallel_speedup"] = seq2 / par2
        m["federation.parallel_efficiency"] = seq2 / par2 / 2
        m["federation.barriers"] = sample["barriers"]
        return m
    for name, key in CAMPAIGN_PHASES:
        m[name] = traced[key]
    words = {}
    for label in traced["labels"]:
        name = label["name"] if label["name"] in LABELS else "other"
        m[f"{name}.events"] += label["events"]
        m[f"{name}.self_s"] += label["self_s"]
        words[name] = words.get(name, 0.0) + label["words"]
    for name, total in words.items():
        m[f"{name}.words_per_event"] = total / m[f"{name}.events"]
    charged = sum(label["self_s"] for label in traced["labels"])
    m["engine.loop_overhead_s"] = traced["drive_s"] - charged
    m["engine.step_p50_us"] = traced["step_p50_us"]
    m["engine.step_p99_us"] = traced["step_p99_us"]
    m["trace.overhead_s"] = traced["drive_s"] - sample["rerun"]["drive_s"]
    serve = sample.get("serve")
    if serve:
        m["serve.hit_ratio"] = serve["hit_ratio"]
        m["serve.renders"] = serve["renders"]
        m["serve.queued_peak"] = serve["queued_peak"]
        m["serve.reads_per_s"] = serve["reads"] / sample["drive_s"]
        m["serve.staleness_p99_s"] = serve["staleness_p99_s"]
        m["serve.shed_ratio"] = serve["shed"] / serve["reads"]
    return m


def fingerprints(sample):
    """Every report fingerprint a sample carries, by simulation."""
    found = {"untraced": sample["fingerprint"]}
    traced = sample.get("traced", {})
    if "fingerprint" in traced:
        found["traced"] = traced["fingerprint"]
    if "rerun" in sample:
        found["rerun"] = sample["rerun"]["fingerprint"]
    for name in ("par_k2", "seq_k1"):
        if name in traced:
            found[name] = traced[name]["fingerprint"]
    return found


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    start = time.monotonic()
    expected, origin = reference_fingerprint(args.workload, args.seed)

    measuring = time.monotonic()
    steal0 = steal_seconds()
    samples = []
    mode = "trace" if args.trace else "measure"
    while True:
        samples.append(bench_exe(mode, args.workload, args.seed, SETUPS))
        now = time.monotonic()
        elapsed = now - start
        if args.trace or elapsed >= RUN_BUDGET_S:
            break
        # A computed reference counts against --seconds, so a run lasts
        # about as long whatever its seed.  Past MIN_SAMPLES, another
        # sample starts only if its first third still fits, so a run of
        # long samples overshoots by at most two thirds of one.
        next_third = (now - measuring) / len(samples) / 3
        if len(samples) >= MIN_SAMPLES and elapsed + next_third >= args.seconds:
            break
    steal_s = steal_seconds() - steal0

    attempted = failed = 0
    for sample in samples:
        for name, fingerprint in fingerprints(sample).items():
            attempted += 1
            if fingerprint != expected:
                failed += 1
                log(f"fingerprint mismatch ({name}): {fingerprint}, "
                    f"{origin} reference {expected}")

    if args.trace:
        metrics = metrics_json(per_layer(samples[0], steal_s), PER_LAYER_UNITS)
    else:
        metrics = metrics_json(end_to_end(samples), END_TO_END_UNITS)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "reference": origin, "steal_s": steal_s,
              "samples": [{k: v for k, v in s.items() if k != "spans"}
                          for s in samples]}
    with open(os.path.join(OUT_DIR, "runs.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")
    if args.trace:
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json")
        with open(path, "w") as f:
            json.dump(samples[0]["spans"], f)
    fidelity = samples[0].get("fidelity")
    print(json.dumps({"samples": len(samples), "host.steal_s": steal_s,
                      "reference": origin, "fidelity": fidelity}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, subprocess.TimeoutExpired, OSError,
            json.JSONDecodeError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
