#!/usr/bin/env python3
"""Campaign benchmark: applied experiments per wall- and CPU-second.

Usage, from the repository root:

    python3 campaign_bench/run.py --workload paper-grid [--seed 100]
        [--seconds 20] [--trace 0|1] [--budget-ms 7200000]

Builds campaign_bench/ (which compiles the Avis library from src/) into
.bench_build/, then:

  --trace 0  runs the workload's campaign through core::CampaignRunner,
             untraced, again and again until the campaigns have taken
             --seconds, running a few cell calibrations single-threaded before
             each and timing them in thread CPU seconds. Reports the medians of exp_per_s, exp_per_cpu_s and
             peak_rss_mb over the campaigns, and of setup_s over the setups.
  --trace 1  runs the campaign once untraced, then the traced pass (cells
             driven by hand, strategy wrapped, applied plans replayed through
             an outside-composed step loop that mirrors BatchHarness's batch
             and scalar stages) and reports the per-layer metrics.

Every cell's outcome digest is checked against campaign_bench/digests.json
(refresh it with campaign_bench/record_digests.py). A seed or budget with no
stored digests is checked for consistency only: every repetition, and the
traced pass, must reproduce the first campaign's digests.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Exit codes: 0 reported; 2 build or environment failure; 3 build
without NDEBUG; 4 the traced loop disagreed with SimulationHarness::run.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "campaign_bench"
DIGESTS = BENCH_DIR / "digests.json"
DEFAULT_BUDGET_MS = 7_200_000
# Cell setups timed per run; setup_s and the setup.* metrics are their
# medians. Untraced runs time them in chunks before each campaign, so the
# samples spread over the run instead of one moment of the host's load.
SETUP_SAMPLES = 12
SETUP_CHUNK = 4
WORKLOADS = ("paper-grid", "one-cell-wide", "baselines-grid")


class BenchError(Exception):
    def __init__(self, message, code=2):
        super().__init__(message)
        self.code = code


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "core" / "campaign.h").is_file():
        raise BenchError(f"no Avis sources under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = (
        ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD_DIR), "-j", jobs],
    )
    for step in steps:
        # Build output goes to stderr: stdout carries only results.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(step))


def invoke(command, workload=None, seed=None, budget_ms=None, extra=()):
    """Runs one campaign_bench job; returns (parsed JSON line, child rusage)."""
    argv = [str(BINARY), command]
    if workload is not None:
        argv += ["--workload", workload, "--seed", str(seed), "--budget-ms", str(budget_ms)]
    argv += list(extra)
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[1:])} exited with {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1]), usage


def host_fingerprint():
    host, _ = invoke("host")
    if not host["ndebug"]:
        raise BenchError("refusing to report from a build without NDEBUG", code=3)
    cpu_model = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as f:
        for line in f:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            commit = git.stdout.strip()
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            sources.update(str(path.relative_to(ROOT)).encode())
            sources.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "compiler": host["compiler"],
        "build_type": host["build_type"],
        "ndebug": host["ndebug"],
        "workers": host["workers"],
        "git_commit": commit,
        "src_sha256": sources.hexdigest()[:16],
    }


def stored_digests(workload, seed, budget_ms):
    if budget_ms != DEFAULT_BUDGET_MS or not DIGESTS.is_file():
        return None
    table = json.loads(DIGESTS.read_text())
    return table.get("workloads", {}).get(workload, {}).get(str(seed))


class OutcomeCheck:
    """Counts cells attempted and failed against the reference digests."""

    def __init__(self, workload, seed, budget_ms):
        self.reference = stored_digests(workload, seed, budget_ms)
        if self.reference is None:
            log(f"note: no stored digests for {workload} seed {seed} budget {budget_ms}; "
                "checking that repetitions agree")
        self.attempted = 0
        self.failed = 0

    def campaign(self, result):
        self.attempted += result["cells_attempted"]
        if "error" in result:
            log(f"campaign failed: {result['error']}")
            self.failed += result["cells_attempted"]
            return
        self.cells({c["name"]: c["digest"] for c in result["cells"]})

    def cells(self, digests):
        if self.reference is None:
            self.reference = dict(digests)
        for name, digest in digests.items():
            if self.reference.get(name) != digest:
                log(f"outcome mismatch: {name} digest {digest}, "
                    f"expected {self.reference.get(name)}")
                self.failed += 1


def metric(value, unit):
    return {"value": value, "unit": unit}


def time_setups(args, samples, setups):
    """Times `samples` more cell setups, continuing round the grid."""
    result, _ = invoke("setup", args.workload, args.seed, args.budget_ms,
                       ["--samples", str(samples), "--offset", str(len(setups))])
    setups.extend(result["cells"])


def run_end_to_end(args, check):
    setups = []
    campaigns = []
    measured = 0.0
    while True:
        time_setups(args, SETUP_CHUNK, setups)
        start = time.monotonic()
        result, usage = invoke("campaign", args.workload, args.seed, args.budget_ms)
        measured += time.monotonic() - start
        check.campaign(result)
        if "error" not in result:
            result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
            campaigns.append(result)
            log(f"campaign {len(campaigns)}: {result['experiments']} experiments, "
                f"{result['wall_s']:.3f} s wall, {result['cpu_s']:.3f} CPU-s, "
                f"{result['peak_rss_mb']:.1f} MB")
        if measured >= args.seconds:
            break
    if len(setups) < SETUP_SAMPLES:
        time_setups(args, SETUP_SAMPLES - len(setups), setups)
    if not campaigns:
        return {}
    return {
        "exp_per_s": metric(statistics.median(c["experiments"] / c["wall_s"] for c in campaigns),
                            "exp/s"),
        "exp_per_cpu_s": metric(
            statistics.median(c["experiments"] / c["cpu_s"] for c in campaigns), "exp/CPU-s"),
        "setup_s": metric(statistics.median(c["setup_s"] for c in setups), "s"),
        "peak_rss_mb": metric(statistics.median(c["peak_rss_mb"] for c in campaigns), "MB"),
    }


def ratio(num, den):
    return num / den if den else 0.0


def run_traced(args, check):
    setups = []
    time_setups(args, SETUP_SAMPLES, setups)
    campaign, _ = invoke("campaign", args.workload, args.seed, args.budget_ms)
    check.campaign(campaign)
    if "error" in campaign:
        return {}
    trace, _ = invoke("trace", args.workload, args.seed, args.budget_ms)
    if trace["mismatches"]:
        raise BenchError(f"traced loop differs from SimulationHarness::run on "
                         f"{trace['mismatches']} of {trace['replayed']} plans "
                         f"(first: {trace['first_mismatch']}); no layer numbers reported",
                         code=4)
    # The wrappers must not perturb the search: the traced cells reproduce the
    # untraced campaign's outcome.
    untraced = {c["name"]: c["digest"] for c in campaign["cells"]}
    check.attempted += len(trace["cells"])
    for cell in trace["cells"]:
        if cell["error"]:
            log(f"traced cell failed: {cell['name']}: {cell['error']}")
            check.failed += 1
        elif cell["digest"] != untraced.get(cell["name"]):
            log(f"traced outcome differs: {cell['name']}")
            check.failed += 1

    layers = trace["layers"]
    scalar, batch = layers["scalar"], layers["batch"]
    stepped = scalar["stepped_ms"] + batch["stepped_ms"]
    cells = trace["cells"]
    camp_cells = campaign["cells"]
    scalar_per_ms = lambda key: ratio(scalar[key], scalar["stepped_ms"])
    batch_per_ms = lambda key: ratio(batch[key], batch["stepped_ms"])
    # Against the engine the campaign runs every experiment through
    # (BatchHarness), on the same plans; the save/load probes are not in the
    # stage totals.
    traced_ns = scalar["total_ns"] + batch["total_ns"]
    overhead = ratio(traced_ns, trace["engine_ns"]) - 1.0
    hits = sum(c["hits"] for c in camp_cells)
    misses = sum(c["misses"] for c in camp_cells)
    charged = sum(c["charged_ms"] for c in camp_cells)
    skipped = sum(c["skipped_ms"] for c in camp_cells)
    applied = sum(c["applied"] for c in cells)
    proposed = sum(c["proposed"] for c in cells)
    walls = [c["wall_s"] for c in camp_cells]
    restore_us = ratio(layers["restore_ns"], layers["captures"]) / 1e3

    # Add-up: the untraced campaign's CPU against what the layers explain.
    # The campaign's stepped ms (charged minus skipped, from the reports)
    # split by engine: the batch prefix (resume point to first injection,
    # stepped by BatchHarness's SoA blocks) and the scalar rest. The traced
    # pass drove the same cells to the same digests, so its split is the
    # campaign's. Each share is priced at its own stage's traced cost per ms,
    # divided by (1 + tracing overhead) to give the untraced cost.
    stepped_campaign = charged - skipped
    batch_campaign = sum(c["batch_ms"] for c in cells)
    scalar_campaign = sum(c["scalar_ms"] for c in cells)
    if batch_campaign + scalar_campaign != stepped_campaign:
        log(f"note: traced stepped ms {batch_campaign + scalar_campaign} differ from the "
            f"campaign's {stepped_campaign}")
    stage_cost = {"batch": (batch_campaign, ratio(batch["total_ns"], batch["stepped_ms"])),
                  "scalar": (scalar_campaign, ratio(scalar["total_ns"], scalar["stepped_ms"]))}
    sim_cpu = sum(ms * ns for ms, ns in stage_cost.values()) / (1.0 + overhead) / 1e9
    setup_cpu = sum(c["setup_cpu_s"] for c in cells)
    strategy_cpu = sum(c["propose_ns"] + c["feedback_ns"] for c in cells) / 1e9
    restore_cpu = hits * restore_us / 1e6
    explained = sim_cpu + setup_cpu + strategy_cpu + restore_cpu
    measured = campaign["cpu_s"]
    print(f"stepped: {stepped_campaign} ms = batch prefix {batch_campaign} ms "
          f"({100 * ratio(batch_campaign, stepped_campaign):.1f}%) + scalar {scalar_campaign} ms")
    print("add-up: " + " + ".join(f"{name} {ms} ms x {ns:.0f} ns/ms traced"
                                  for name, (ms, ns) in stage_cost.items())
          + f", / (1 + traced.overhead_frac {overhead:.3f}) = {sim_cpu:.3f} CPU-s;"
          f" + setup {setup_cpu:.3f} + strategy {strategy_cpu:.3f}"
          f" + restores {restore_cpu:.3f} = {explained:.3f} of the campaign's {measured:.3f}"
          f" CPU-s; unexplained {measured - explained:.3f}"
          f" ({100 * ratio(measured - explained, measured):.1f}%: checker apply loop,"
          f" tree captures, discarded lanes, pools)")

    gcs_ms = ratio(scalar["gcs_ns"] + batch["gcs_ns"], stepped)
    return {
        "sim.ns_per_ms": metric(scalar_per_ms("sim_ns"), "ns/ms"),
        "fw.estimator.ns_per_ms": metric(scalar_per_ms("estimator_ns"), "ns/ms"),
        "fw.control.ns_per_ms": metric(scalar_per_ms("control_ns"), "ns/ms"),
        "fw.cascade.ns_per_ms": metric(scalar_per_ms("cascade_ns"), "ns/ms"),
        "workload.gcs.ns_per_ms": metric(gcs_ms, "ns/ms"),
        "core.harness.other_ns_per_ms": metric(scalar_per_ms("other_ns"), "ns/ms"),
        "batch.sim.ns_per_ms": metric(batch_per_ms("sim_ns"), "ns/ms"),
        "batch.fw.estimator.ns_per_ms": metric(batch_per_ms("estimator_ns"), "ns/ms"),
        "batch.fw.control.ns_per_ms": metric(batch_per_ms("control_ns"), "ns/ms"),
        "batch.fw.cascade.ns_per_ms": metric(batch_per_ms("cascade_ns"), "ns/ms"),
        "batch.other_ns_per_ms": metric(
            batch_per_ms("other_ns"), "ns/ms"),
        "core.harness.batch_frac": metric(ratio(batch_campaign, stepped_campaign), "ratio"),
        "hinj.reads_per_ms": metric(ratio(layers["hinj_reads"], scalar["stepped_ms"]),
                                    "reads/ms"),
        "core.monitor.ns_per_sample": metric(
            ratio(scalar["monitor_ns"] + batch["monitor_ns"], layers["monitor_samples"]), "ns"),
        "core.checkpoint.capture_us": metric(
            ratio(layers["capture_ns"], layers["captures"]) / 1e3, "us"),
        "core.checkpoint.restore_us": metric(restore_us, "us"),
        "core.checkpoint.resolve_ns": metric(ratio(trace["resolve_ns"], trace["resolves"]), "ns"),
        "core.checkpoint.hit_rate": metric(ratio(hits, hits + misses), "ratio"),
        "core.checkpoint.skip_frac": metric(ratio(skipped, charged), "ratio"),
        "core.checkpoint.depth1_frac": metric(
            ratio(sum(c["tree_hits"] for c in camp_cells), hits), "ratio"),
        "core.strategy.propose_us_per_exp": metric(
            ratio(sum(c["propose_ns"] for c in cells), applied) / 1e3, "us"),
        "core.strategy.feedback_us_per_exp": metric(
            ratio(sum(c["feedback_ns"] for c in cells), applied) / 1e3, "us"),
        "core.checker.discard_frac": metric(ratio(proposed - applied, proposed), "ratio"),
        "core.checker.plans_per_wave": metric(
            ratio(proposed, sum(c["waves"] for c in cells)), "plans"),
        "core.checker.pool_util": metric(
            ratio(sum(c["wave_cpu_s"] for c in cells),
                  sum(c["wave_wall_s"] * c["workers"] for c in cells)), "ratio"),
        "core.checker.cpu_ns_per_stepped_ms": metric(
            ratio(sum(c["search_cpu_s"] for c in cells) * 1e9,
                  sum(c["charged_ms"] - c["skipped_ms"] for c in cells)), "ns/ms"),
        "core.campaign.straggler_ratio": metric(ratio(max(walls), statistics.mean(walls)),
                                                "ratio"),
        "core.campaign.cell_pool_util": metric(
            ratio(sum(walls), campaign["wall_s"] * campaign["cell_workers"]), "ratio"),
        "setup.profile_s": metric(statistics.median(c["profile_s"] for c in setups), "s"),
        "setup.prefix_record_s": metric(
            statistics.median(c["prefix_record_s"] for c in setups), "s"),
        "traced.overhead_frac": metric(overhead, "ratio"),
        "addup.explained_frac": metric(ratio(explained, measured), "ratio"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--budget-ms", type=int, default=DEFAULT_BUDGET_MS)
    args = parser.parse_args()
    try:
        build()
        host = host_fingerprint()
        print("host: " + json.dumps(host), flush=True)
        check = OutcomeCheck(args.workload, args.seed, args.budget_ms)
        metrics = run_traced(args, check) if args.trace else run_end_to_end(args, check)
    except BenchError as e:
        log(f"campaign_bench: {e}")
        return e.code
    print(json.dumps({
        "correct": check.failed == 0 and bool(metrics),
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
