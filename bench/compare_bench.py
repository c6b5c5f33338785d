#!/usr/bin/env python3
"""Compare a fresh BENCH_micro.json against the checked-in baseline.

The walk-kernel series is the perf contract of the batched stepping engine
(docs/perf.md). Absolute steps/sec are machine-dependent — a CI runner and a
developer laptop differ by integer factors — so the default comparison is
*relative*: for every batched benchmark the script computes its speedup over
the scalar-checked benchmark of the same variant and size from the SAME run,
and fails if that speedup regressed by more than the threshold against the
baseline's speedup. A change that slows the batched kernel (or "speeds up"
the scalar baseline by miscompiling it) shows up in this ratio on any
machine. The circulant pairs reach the kernel's regular loops;
BM_WalkKernel{Batched,Scalar}Clique (n stationary walkers on
heavy_binary_tree(2047)) is the pair that reaches its irregular
draw-ahead loop.

Pass --absolute to additionally compare raw steps/sec per benchmark — only
meaningful when fresh and baseline JSON come from the same machine (e.g.
refreshing bench/baselines/ locally).

Exit codes: 0 ok, 1 regression, 2 usage/data error.

Refreshing the baseline (same-machine, quiet load; repetitions matter —
the script compares median-of-N, which is what keeps noisy runners from
flaking the gate — and random interleaving spreads each benchmark's
repetitions across the whole run, so a multi-second host-load phase
perturbs every series equally instead of landing on one ratio side):
    RUMOR_RESULTS_DIR=/tmp ./build/bench_micro \
        --benchmark_filter='WalkKernel|WalkStep|TrialArena|RunProtocol|Scheduler|Transmission|GraphBackend|Sharded' \
        --benchmark_min_time=0.4 --benchmark_repetitions=5 \
        --benchmark_enable_random_interleaving
    cp /tmp/BENCH_micro.json bench/baselines/BENCH_micro.json
CI skips the comparison when the PR carries the `bench-baseline-reset`
label (see .github/workflows/ci.yml).
"""

import argparse
import json
import sys


def load_rates(path):
    """name -> steps/sec (falls back to items_per_second).

    When the run used --benchmark_repetitions, the median aggregate is
    preferred over individual iterations: single runs on shared/noisy
    machines swing well past any reasonable threshold, medians don't.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    rates = {}
    from_median = set()
    for b in doc.get("benchmarks", []):
        rate = b.get("steps_per_sec") or b.get("items_per_second")
        if not rate:
            continue
        name = b.get("run_name", b["name"])
        if b.get("run_type") == "aggregate":
            if b.get("aggregate_name") == "median":
                rates[name] = float(rate)
                from_median.add(name)
        elif name not in from_median and name not in rates:
            rates[name] = float(rate)
    if not rates:
        print(f"error: no benchmark rates in {path}", file=sys.stderr)
        sys.exit(2)
    return rates


# Each series is a (numerator, denominator, threshold) triple; benchmark
# names matching the numerator substring pair with the same name after
# substitution. Ratios are machine-independent, which is what makes the
# gate portable:
#   Batched/Scalar          — the walk-kernel speedup contract
#                             (docs/perf.md), Clique pair included
#   Registry/Direct         — run_protocol dispatch overhead (~1.0; a
#                             per-trial allocation or lookup regression
#                             shows up here)
#   SteadyState/FreshAlloc  — TrialArena reuse vs per-trial owned buffers
#                             (same trajectories; allocation cost only).
#                             Measured noise of this ratio at
#                             --benchmark_repetitions=5 median: ~6% on a
#                             shared 1-core VM, so 0.20 gives 3x headroom.
#   Interleaved/Barrier     — cross-scenario trial scheduling vs
#                             per-scenario barriers on a mixed-tail file
#                             (fixed 4-worker pool). The ratio is ~1.0 at
#                             1 core and ~2 at >=4 cores, so the widened
#                             0.35 threshold absorbs core-count variation
#                             on top of timing noise; a regression here
#                             means the global queue itself got slower.
#   PushTransmissionUniform/PushTransmissionHeterogeneous
#   WalkTransmissionUniform/WalkTransmissionHeterogeneous
#                           — the homogeneous fast-path contract of the
#                             transmission-model layer, for the push layer
#                             (circulant) and the walk layer (Fig 1a
#                             star): the default tp=1 trial (compile-time
#                             Uniform instantiation, byte-identical to the
#                             pre-transmission engine) vs the
#                             heterogeneous path (geometric skip sampling
#                             / per-vertex field draws) on the same graph
#                             and seeds. A drop means the trivial-model
#                             path picked up per-contact overhead.
#   GraphBackendImplicit/GraphBackendOwned
#                           — the implicit-adjacency dispatch contract:
#                             push trials on the same torus through the
#                             arithmetic backend vs the materialized CSR
#                             (bit-identical trajectories, so the ratio is
#                             pure per-accessor dispatch cost). A drop
#                             means the closed forms or the backend branch
#                             picked up per-access work, taxing every
#                             large-n implicit scenario.
#   WalkStepSharded1/WalkStepSerial
#                           — the width-1 gate of the one-engine plan
#                             (ROADMAP item 1): one sharded walk step per
#                             agent at width 1 on a 1-worker pool vs the
#                             serial batched kernel, degree-15 random
#                             regular graph, cache-resident (2^14) and
#                             DRAM (2^22). Different draw streams, the
#                             same step law; a drop means the sharded
#                             step lost ground on the serial one.
#   ShardedPushK/ShardedPush1, ShardedWalkK/ShardedWalk1,
#   ShardedMeetK/ShardedMeet1, ShardedHybridK/ShardedHybrid1
#                           — the frontier-sharded round contract, one
#                             pair per sharded simulator path: one trial
#                             on the 10^7 implicit star at width 4 vs
#                             width 1 on a fixed 4-worker pool, SAME
#                             engine and trajectories (docs/perf.md). Like
#                             Interleaved/Barrier the ratio is ~1.0 on a
#                             1-core host (fan-out neither costs nor buys)
#                             and >=2.5 with 4 real cores, so the widened
#                             0.35 threshold absorbs core-count variation;
#                             a regression means the range fan-out itself
#                             got slower relative to the inline path.
RATIO_SERIES = (
    ("Batched", "Scalar", 0.15),
    ("Registry", "Direct", 0.15),
    ("SteadyState", "FreshAlloc", 0.20),
    ("Interleaved", "Barrier", 0.35),
    ("PushTransmissionUniform", "PushTransmissionHeterogeneous", 0.15),
    ("WalkTransmissionUniform", "WalkTransmissionHeterogeneous", 0.15),
    ("GraphBackendImplicit", "GraphBackendOwned", 0.20),
    ("WalkStepSharded1", "WalkStepSerial", 0.20),
    ("ShardedPushK", "ShardedPush1", 0.35),
    ("ShardedWalkK", "ShardedWalk1", 0.35),
    ("ShardedMeetK", "ShardedMeet1", 0.35),
    ("ShardedHybridK", "ShardedHybrid1", 0.35),
)

# Absolute caps on the Uniform/Heterogeneous ratio itself: the
# heterogeneous-transmission speed contract says skip sampling + counter
# RNG keep degree-scaled push within ~1.3x of the draw-free uniform path
# (median-of-7 on the shared 1-core reference host reads 1.32–1.34; the
# residual over the uniform path is the process law itself — the
# heterogeneous chain makes ~2x the per-call events, each with a
# data-dependent branch and a geometric gap draw at ~2.3 ns — so the cap
# is set at 1.35 to gate deterministically on what the hardware
# reproducibly shows, not on the noise floor). The committed baseline
# (captured on a quiet machine, median of 5+ repetitions) is gated
# STRICTLY at the cap — a baseline refresh that bakes in a slower
# heterogeneous path fails here deterministically. The fresh run is gated
# at cap * (1 + CAP_NOISE): single CI runs on shared 1-core machines
# swing ±20% between boost and sustained clock phases, so the fresh check
# only catches real structural regressions (e.g. the heterogeneous path
# falling back to per-contact draws, which reads ~3x); chasing the last
# 25% is the drift gate's job above.
CAP_SERIES = (
    ("PushTransmissionUniform", "PushTransmissionHeterogeneous", 1.35),
)
CAP_NOISE = 0.25


def speedup_pairs(rates):
    """(variant, size) -> (ratio, threshold), for pairs present."""
    pairs = {}
    for name, rate in rates.items():
        for numer, denom, threshold in RATIO_SERIES:
            if numer not in name:
                continue
            other = name.replace(numer, denom)
            if other in rates and rates[other] > 0:
                pairs[name] = (rate / rates[other], threshold)
    return pairs


def cap_failures(rates, slack, label):
    """Rows whose Uniform/Heterogeneous ratio exceeds its cap * (1+slack)."""
    rows = []
    failed = False
    for name, rate in rates.items():
        for numer, denom, cap in CAP_SERIES:
            if numer not in name:
                continue
            other = name.replace(numer, denom)
            if other not in rates or rates[other] <= 0:
                continue
            ratio = rate / rates[other]
            bound = cap * (1.0 + slack)
            ok = ratio <= bound
            verdict = "ok" if ok else f"ABOVE CAP {bound:.2f}x"
            rows.append(f"{name + ' [' + label + ']':58} "
                        f"{ratio:8.2f}x {bound:8.2f}x  {verdict}")
            failed |= not ok
    return rows, failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("fresh", help="freshly generated BENCH_micro.json")
    ap.add_argument("baseline", help="bench/baselines/BENCH_micro.json")
    ap.add_argument("--threshold", type=float, default=None,
                    help="allowed fractional regression; overrides the "
                         "per-series defaults (0.15 walk-kernel/dispatch, "
                         "0.20 arena reuse, 0.35 scheduler)")
    ap.add_argument("--absolute", action="store_true",
                    help="also compare raw steps/sec (same machine only)")
    args = ap.parse_args()

    fresh = load_rates(args.fresh)
    base = load_rates(args.baseline)
    fresh_speedups = speedup_pairs(fresh)
    base_speedups = speedup_pairs(base)

    common = sorted(set(fresh_speedups) & set(base_speedups))
    if not common:
        print("error: no common batched/scalar pairs between fresh and "
              "baseline", file=sys.stderr)
        sys.exit(2)

    failed = False
    print(f"{'benchmark':58} {'baseline':>9} {'fresh':>9}  verdict")
    for name in common:
        (b, threshold), (f, _) = base_speedups[name], fresh_speedups[name]
        if args.threshold is not None:
            threshold = args.threshold
        ok = f >= b * (1.0 - threshold)
        verdict = "ok" if ok else f"REGRESSED >{threshold:.0%}"
        print(f"{name:58} {b:8.2f}x {f:8.2f}x  {verdict}")
        failed |= not ok
    missing = sorted(set(base_speedups) - set(fresh_speedups))
    for name in missing:
        print(f"{name:58} {'':>9} {'':>9}  MISSING from fresh run")
        failed = True

    base_caps, base_cap_failed = cap_failures(base, 0.0, "baseline")
    fresh_caps, fresh_cap_failed = cap_failures(fresh, CAP_NOISE, "fresh")
    if base_caps or fresh_caps:
        print()
        print(f"{'heterogeneous-transmission cap':58} {'ratio':>9} "
              f"{'bound':>9}  verdict")
        for row in base_caps + fresh_caps:
            print(row)
        failed |= base_cap_failed or fresh_cap_failed

    if args.absolute:
        abs_threshold = 0.15 if args.threshold is None else args.threshold
        print()
        print(f"{'benchmark (absolute steps/sec)':58} {'baseline':>11} "
              f"{'fresh':>11}  verdict")
        for name in sorted(set(fresh) & set(base)):
            b, f = base[name], fresh[name]
            ok = f >= b * (1.0 - abs_threshold)
            verdict = "ok" if ok else f"REGRESSED >{abs_threshold:.0%}"
            print(f"{name:58} {b:11.3g} {f:11.3g}  {verdict}")
            failed |= not ok

    if failed:
        print("\nperf regression detected (see rows above). "
              "If intentional, refresh bench/baselines/BENCH_micro.json or "
              "apply the bench-baseline-reset PR label.", file=sys.stderr)
        return 1
    print("\nno perf-ratio regressions.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
