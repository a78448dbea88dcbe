#!/usr/bin/env python3
"""Diff a bench_fig9_breakdown JSON run against the committed baseline.

Usage:
    check_bench_regression.py --baseline bench/baselines/BENCH_profile.json \
        --current BENCH_profile.json [--cycles-tolerance 3.0]
    check_bench_regression.py --overload OVERLOAD.json
    check_bench_regression.py --latency LATENCY.json
    check_bench_regression.py --compiled-ab AB.json
    check_bench_regression.py --stateful STATEFUL.json
    check_bench_regression.py --self-test

--stateful validates a bench_stateful JSON dump: schema, required
fields, and the §17 robustness contract — a full run holds >= 1M
concurrent flows with zero insert failures and a probe p99 inside the
bounded window; 2x overload keeps forwarding with watermark eviction
engaged and drops confined to the flow_table_full bucket; SCR failover
preserves every established mapping (the shared baseline must not);
replay stays bounded by the checkpoint period. All machine-independent,
so no committed baseline.

--compiled-ab validates a bench_fig8_workloads --json dump: on every
workload, the compiled-classifier pipeline must be no slower than the
interpreted one (within a small noise allowance). Machine-independent —
both modes ran on the same host in the same process — so no committed
baseline.

--overload validates a bench_overload JSON dump structurally: schema,
required fields, conservation, and the paper-§3 fairness contract
(admission ON keeps the per-port max/min ratio near 1; OFF must be
demonstrably less fair than ON). These are machine-independent
invariants, not cycle counts, so there is no committed baseline and no
tolerance flag — the bound is the same one bench_overload enforces.

Cycle counts move a lot across machines (CI runners, laptops, the paper's
Nehalem), so the default tolerances are deliberately loose: a metric fails
only when the current run is worse than the baseline by the per-metric
ratio/absolute bound below. Structural checks (a workload or scope
disappearing, attribution coverage collapsing, the router number not
summing exactly its non-harness root scopes) are strict.

A workload-level cycles/packet *improvement* beyond
--improvement-tolerance also fails, as "baseline stale": a large genuine
speedup must be accompanied by a refreshed committed baseline in the same
change, or every later regression up to the stale baseline goes unseen.
Scope-level metrics are exempt (single scopes are too noisy to gate on
getting faster).

Exit status: 0 = within tolerance, 1 = regression(s), 2 = bad input.
"""

import argparse
import json
import math
import sys

# Per-metric rules. "ratio" metrics fail when current > baseline * tol
# (only regressions fail -- getting faster is fine). "abs" metrics fail
# when |current - baseline| > tol. "floor" metrics fail when current < tol,
# independent of the baseline. Everything else is informational.
RULES = {
    "pipeline_cycles_per_packet": ("ratio", None),  # tol filled from args
    "scope_cycles_per_packet": ("ratio", None),
    "scope_share": ("abs", 0.35),
    "attribution_coverage": ("floor", 0.95),
}

STRUCTURAL_SCOPE_MIN_SHARE = 0.05  # only sizeable scopes must persist

# The router number is router time only. bench_fig9_breakdown times frame
# generation under harness/* root scopes and keeps those cycles out of
# pipeline_cycles_per_packet, as perfbench keeps FillFrame out of router
# time; it reports every root scope's cycles/packet under "roots". If
# harness cycles leaked back into the router number, it would stop
# meaning "router cycles" and the whole baseline would silently degrade
# into a harness benchmark, so the current run's router number must equal
# the sum of its non-harness roots. Machine-independent: an identity
# between numbers of one run, exact up to float rounding.
ROUTER_ROOTS_REL_TOL = 1e-9


def flatten(doc):
    """bench_fig9_breakdown.v1 document -> {dot.path: value} metrics."""
    out = {}
    for wname, w in doc.get("workloads", {}).items():
        base = f"workloads.{wname}"
        for key in ("pipeline_cycles_per_packet", "attribution_coverage"):
            if key in w:
                out[f"{base}.{key}"] = (key, float(w[key]))
        for sname, s in w.get("scopes", {}).items():
            sbase = f"{base}.scopes.{sname}"
            if "cycles_per_packet" in s:
                out[f"{sbase}.cycles_per_packet"] = (
                    "scope_cycles_per_packet",
                    float(s["cycles_per_packet"]),
                )
            if "share" in s:
                out[f"{sbase}.share"] = ("scope_share", float(s["share"]))
    return out


def baseline_share(doc, path):
    """share value of the scope owning metric `path` in `doc` (or 0)."""
    parts = path.split(".")
    try:
        return float(doc["workloads"][parts[1]]["scopes"][parts[3]]["share"])
    except (KeyError, IndexError, TypeError, ValueError):
        return 0.0


def check_router_roots(wname, workload):
    """(failure or None, info) for one workload's router-number identity."""
    roots = workload.get("roots")
    if not isinstance(roots, dict) or not roots:
        return (
            f"workloads.{wname}: no 'roots' object, so pipeline_cycles_per_packet "
            f"cannot be checked to be router time only",
            None,
        )
    router = sum(float(v) for k, v in roots.items() if not k.startswith("harness/"))
    harness = sum(float(v) for k, v in roots.items() if k.startswith("harness/"))
    n_router = sum(1 for k in roots if not k.startswith("harness/"))
    pipeline = float(workload.get("pipeline_cycles_per_packet", 0.0))
    if abs(pipeline - router) > ROUTER_ROOTS_REL_TOL * max(1.0, abs(router)):
        return (
            f"workloads.{wname}: pipeline_cycles_per_packet {pipeline:.3f} != "
            f"{router:.3f}, the sum of its {n_router} non-harness root scopes "
            f"(harness/* roots hold {harness:.3f}; the router number must "
            f"count router scopes only)",
            None,
        )
    return (
        None,
        f"workloads.{wname}: router {pipeline:.1f} cycles/packet = sum of "
        f"{n_router} non-harness root scopes; harness/* {harness:.1f} "
        f"cycles/packet of frame generation outside it",
    )


def compare(baseline, current, cycles_tol, improvement_tol=4.0):
    failures = []
    infos = []
    base_metrics = flatten(baseline)
    cur_metrics = flatten(current)

    for wname in baseline.get("workloads", {}):
        if wname not in current.get("workloads", {}):
            failures.append(f"workload '{wname}' missing from current run")

    # Router-number identity: checked on the current run alone, so a leak
    # fails even if the committed baseline predates the check.
    for wname, w in sorted(current.get("workloads", {}).items()):
        failure, info = check_router_roots(wname, w)
        if failure:
            failures.append(failure)
        else:
            infos.append(info)

    for path, (kind, base_val) in sorted(base_metrics.items()):
        rule = RULES.get(kind)
        if rule is None:
            continue
        mode, tol = rule
        if tol is None:
            tol = cycles_tol
        if path not in cur_metrics:
            # A scope vanishing usually means instrumentation was removed;
            # only flag scopes that actually mattered in the baseline.
            if kind == "scope_cycles_per_packet":
                if baseline_share(baseline, path) >= STRUCTURAL_SCOPE_MIN_SHARE:
                    failures.append(f"{path}: present in baseline, missing from current run")
            else:
                failures.append(f"{path}: present in baseline, missing from current run")
            continue
        cur_val = cur_metrics[path][1]
        if mode == "ratio":
            # Scope-level cycle checks only bind for scopes that mattered in
            # the baseline; sub-5%-share scopes are cache-noise-dominated
            # (cold-start lookups, first-touch allocations) and tracked via
            # the workload-level pipeline_cycles_per_packet instead.
            if (
                kind == "scope_cycles_per_packet"
                and baseline_share(baseline, path) < STRUCTURAL_SCOPE_MIN_SHARE
            ):
                continue
            if base_val > 0 and cur_val > base_val * tol:
                failures.append(
                    f"{path}: {cur_val:.1f} vs baseline {base_val:.1f} "
                    f"(x{cur_val / base_val:.2f} > x{tol:.2f} allowed)"
                )
            elif (
                kind == "pipeline_cycles_per_packet"
                and base_val > 0
                and cur_val > 0
                and cur_val * improvement_tol < base_val
            ):
                failures.append(
                    f"{path}: baseline stale: {cur_val:.1f} vs baseline {base_val:.1f} "
                    f"(x{base_val / cur_val:.2f} faster > x{improvement_tol:.2f} allowed; "
                    f"refresh the committed baseline)"
                )
            elif base_val > 0:
                infos.append(f"{path}: x{cur_val / base_val:.2f} of baseline (ok)")
        elif mode == "abs":
            if abs(cur_val - base_val) > tol:
                failures.append(
                    f"{path}: {cur_val:.3f} vs baseline {base_val:.3f} "
                    f"(|delta| {abs(cur_val - base_val):.3f} > {tol:.3f})"
                )
        elif mode == "floor":
            if cur_val < tol:
                failures.append(f"{path}: {cur_val:.3f} below required floor {tol:.3f}")
    return failures, infos


# bench_overload structural contract: every dump must carry these fields
# (a bench refactor that drops one silently blinds the soak job).
OVERLOAD_SCHEMA = "rb.bench_overload.v1"
OVERLOAD_REQUIRED = ("seed", "nodes", "fairness", "goodput", "conservation_ok", "checks_failed")
OVERLOAD_FAIRNESS_REQUIRED = (
    "ratio_admission_on",
    "ratio_admission_off",
    "per_port_gbps_on",
    "per_port_gbps_off",
)
OVERLOAD_GOODPUT_REQUIRED = ("hot_on_gbps", "hot_off_gbps", "uniform_on_gbps")
OVERLOAD_MAX_FAIR_RATIO = 1.1  # same bound bench_overload enforces


def check_overload(doc):
    """Structural + invariant checks for one bench_overload JSON document."""
    failures = []
    if doc.get("schema") != OVERLOAD_SCHEMA:
        return [f"unexpected schema {doc.get('schema')!r} (want {OVERLOAD_SCHEMA!r})"]
    for key in OVERLOAD_REQUIRED:
        if key not in doc:
            failures.append(f"required field '{key}' missing")
    fairness = doc.get("fairness", {})
    for key in OVERLOAD_FAIRNESS_REQUIRED:
        if key not in fairness:
            failures.append(f"required field 'fairness.{key}' missing")
    goodput = doc.get("goodput", {})
    for key in OVERLOAD_GOODPUT_REQUIRED:
        if key not in goodput:
            failures.append(f"required field 'goodput.{key}' missing")
    if failures:
        return failures  # value checks below assume the fields exist

    if doc["conservation_ok"] is not True:
        failures.append("conservation_ok is not true: packets were leaked or double-counted")
    if doc["checks_failed"] != 0:
        failures.append(f"bench reported {doc['checks_failed']} failed internal check(s)")
    nodes = int(doc["nodes"])
    for key in ("per_port_gbps_on", "per_port_gbps_off"):
        ports = fairness[key]
        if len(ports) != nodes:
            failures.append(f"fairness.{key} has {len(ports)} entries for {nodes} nodes")
        elif min(ports) <= 0:
            failures.append(f"fairness.{key} contains a starved (<= 0 Gbps) port")
    ratio_on = float(fairness["ratio_admission_on"])
    ratio_off = float(fairness["ratio_admission_off"])
    if ratio_on > OVERLOAD_MAX_FAIR_RATIO:
        failures.append(
            f"fairness.ratio_admission_on {ratio_on:.3f} > {OVERLOAD_MAX_FAIR_RATIO} "
            "(admission failed to equalize per-port goodput)"
        )
    if ratio_off <= ratio_on:
        failures.append(
            f"ratio_admission_off {ratio_off:.3f} <= ratio_admission_on {ratio_on:.3f} "
            "(the no-admission run must be demonstrably less fair)"
        )
    if float(goodput["hot_on_gbps"]) <= 0:
        failures.append("goodput.hot_on_gbps is not positive")
    return failures


# bench_latency structural contract. Like --overload, these are
# machine-independent invariants — estimator agreement ratios, queueing-knee
# ordering, conservation — not cycle counts, so no committed tolerance flag.
LATENCY_SCHEMA = "rb.bench_latency.v1"
LATENCY_REQUIRED = ("seed", "estimator", "des", "sweep", "stamp_ab",
                    "conservation_ok", "checks_failed")
LATENCY_DES_REQUIRED = (
    "direct_mean_us",
    "via_mean_us",
    "rel_err_direct",
    "rel_err_via",
    "direct_cpu_wait_us",
)
LATENCY_STAMP_REQUIRED = ("off_cycles_per_pkt", "on_cycles_per_pkt",
                          "overhead_frac", "aa_frac", "overhead_bar")
LATENCY_MAX_REL_ERR = 0.25   # same bound bench_latency enforces (--tolerance)
LATENCY_MIN_SWEEP_POINTS = 3  # need >= 3 points for the knee to be a curve


def check_latency(doc):
    """Structural + invariant checks for one bench_latency JSON document."""
    failures = []
    if doc.get("schema") != LATENCY_SCHEMA:
        return [f"unexpected schema {doc.get('schema')!r} (want {LATENCY_SCHEMA!r})"]
    for key in LATENCY_REQUIRED:
        if key not in doc:
            failures.append(f"required field '{key}' missing")
    des = doc.get("des", {})
    for key in LATENCY_DES_REQUIRED:
        if key not in des:
            failures.append(f"required field 'des.{key}' missing")
    stamp = doc.get("stamp_ab", {})
    for key in LATENCY_STAMP_REQUIRED:
        if key not in stamp:
            failures.append(f"required field 'stamp_ab.{key}' missing")
    if failures:
        return failures  # value checks below assume the fields exist

    if doc["conservation_ok"] is not True:
        failures.append("conservation_ok is not true: the DES leaked or double-counted packets")
    if doc["checks_failed"] != 0:
        failures.append(f"bench reported {doc['checks_failed']} failed internal check(s)")

    # §6.2 ordering: direct (2 hops) must beat detoured VLB (3 hops), and
    # both must agree with the closed-form estimator.
    if float(des["direct_mean_us"]) >= float(des["via_mean_us"]):
        failures.append(
            f"des.direct_mean_us {des['direct_mean_us']:.2f} >= "
            f"des.via_mean_us {des['via_mean_us']:.2f} "
            "(2-hop direct must be faster than 3-hop VLB)"
        )
    for key in ("rel_err_direct", "rel_err_via"):
        if abs(float(des[key])) > LATENCY_MAX_REL_ERR:
            failures.append(
                f"des.{key} {float(des[key]):.3f} exceeds {LATENCY_MAX_REL_ERR} "
                "(DES disagrees with the EstimateLatency closed form)"
            )
    if float(des["direct_cpu_wait_us"]) >= 1.0:
        failures.append(
            f"des.direct_cpu_wait_us {float(des['direct_cpu_wait_us']):.3f} >= 1.0 "
            "(light-load run queued; the mean is no longer pure path cost)"
        )

    # Queueing knee: percentile grows with offered load across >= 3 points
    # (a --smoke dump runs only the 2-point curve; p99 ordering still binds).
    sweep = doc.get("sweep", [])
    min_points = 2 if doc.get("smoke") else LATENCY_MIN_SWEEP_POINTS
    if len(sweep) < min_points:
        failures.append(
            f"sweep has {len(sweep)} points (< {min_points}); "
            "the latency-vs-load curve needs a body and a knee"
        )
    else:
        bursts = [int(pt.get("burst", 0)) for pt in sweep]
        if bursts != sorted(bursts) or len(set(bursts)) != len(bursts):
            failures.append(f"sweep bursts {bursts} not strictly increasing")
        for pt in sweep:
            if int(pt.get("count", 0)) <= 0:
                failures.append(f"sweep point burst={pt.get('burst')} observed no packets")
        p99s = [float(pt.get("p99_us", 0.0)) for pt in sweep]
        if p99s and p99s[-1] <= p99s[0]:
            failures.append(
                f"sweep p99 did not grow with load ({p99s[0]:.2f} -> {p99s[-1]:.2f} us); "
                "no queueing knee"
            )

    # Stamp A/B: overhead under the bar plus the host's measured same-code
    # resolution (the A/A spread) — the same noise-aware gate the bench uses.
    overhead = float(stamp["overhead_frac"])
    bar = float(stamp["overhead_bar"])
    aa = abs(float(stamp["aa_frac"]))
    if overhead >= bar + aa:
        failures.append(
            f"stamp_ab.overhead_frac {overhead:.4f} >= bar {bar:.2f} + A/A spread {aa:.4f} "
            "(ingress stamping costs more than the budget)"
        )
    for key in ("off_cycles_per_pkt", "on_cycles_per_pkt"):
        if float(stamp[key]) <= 0:
            failures.append(f"stamp_ab.{key} is not positive")
    return failures


# bench_fig8 compiled-vs-interpreted A/B contract: compiling classifier
# chains into match programs must never make a workload slower. Both modes
# run interleaved on the same host, so the only allowance is cycle-count
# noise, not machine variance.
COMPILED_AB_SCHEMA = "rb.bench_fig8_compiled_ab.v1"
COMPILED_AB_MAX_RATIO = 1.10  # compiled may cost at most 10% more than interpreted
COMPILED_AB_REQUIRED = ("interpreted_cycles_per_packet", "compiled_cycles_per_packet")


def check_compiled_ab(doc, max_ratio=COMPILED_AB_MAX_RATIO):
    """Structural + no-slower checks for one compiled A/B JSON document."""
    failures = []
    if doc.get("schema") != COMPILED_AB_SCHEMA:
        return [f"unexpected schema {doc.get('schema')!r} (want {COMPILED_AB_SCHEMA!r})"]
    workloads = doc.get("workloads", {})
    if not workloads:
        return ["no workloads in A/B document"]
    for wname, w in sorted(workloads.items()):
        missing = [k for k in COMPILED_AB_REQUIRED if k not in w]
        if missing:
            failures.append(f"workloads.{wname}: missing field(s) {missing}")
            continue
        interp = float(w["interpreted_cycles_per_packet"])
        comp = float(w["compiled_cycles_per_packet"])
        if interp <= 0 or comp <= 0:
            failures.append(
                f"workloads.{wname}: non-positive cycles/packet "
                f"(interpreted {interp:.1f}, compiled {comp:.1f})"
            )
        elif comp > interp * max_ratio:
            failures.append(
                f"workloads.{wname}: compiled {comp:.1f} cyc/pkt vs interpreted "
                f"{interp:.1f} (x{comp / interp:.2f} > x{max_ratio:.2f} allowed; "
                "the compiled path must not be slower)"
            )
    return failures


# bench_stateful structural contract (§17): the robustness gates the
# bench itself enforces, re-checked on the dump so a soak/CI consumer
# cannot silently run a gutted bench.
STATEFUL_SCHEMA = "rb.bench_stateful.v1"
STATEFUL_REQUIRED = ("seed", "smoke", "table", "overload", "ablation", "failover",
                     "conservation_ok", "checks_failed")
STATEFUL_TABLE_REQUIRED = ("concurrent_flows", "insert_fail", "evictions", "probe_p99",
                           "max_probe_buckets", "ns_per_op")
STATEFUL_OVERLOAD_REQUIRED = ("offered", "forwarded", "evict_watermark", "table_full_drops",
                              "strict_forwarded", "strict_table_full_drops", "ports_conserved")
STATEFUL_ABLATION_REQUIRED = ("shared_ns_per_op", "scr_ns_per_op", "scr_overhead_frac",
                              "replays", "replayed_records", "checkpoint_period",
                              "replay_bound_ok")
STATEFUL_FAILOVER_REQUIRED = ("scr_preserved", "shared_preserved", "lost_flows_shared")
STATEFUL_MIN_FLOWS = 1_000_000  # full-run concurrent-flow floor (--smoke exempt)


def check_stateful(doc):
    """Structural + invariant checks for one bench_stateful JSON document."""
    failures = []
    if doc.get("schema") != STATEFUL_SCHEMA:
        return [f"unexpected schema {doc.get('schema')!r} (want {STATEFUL_SCHEMA!r})"]
    for key in STATEFUL_REQUIRED:
        if key not in doc:
            failures.append(f"required field '{key}' missing")
    for section, required in (
        ("table", STATEFUL_TABLE_REQUIRED),
        ("overload", STATEFUL_OVERLOAD_REQUIRED),
        ("ablation", STATEFUL_ABLATION_REQUIRED),
        ("failover", STATEFUL_FAILOVER_REQUIRED),
    ):
        body = doc.get(section, {})
        for key in required:
            if key not in body:
                failures.append(f"required field '{section}.{key}' missing")
    if failures:
        return failures  # value checks below assume the fields exist

    if doc["conservation_ok"] is not True:
        failures.append("conservation_ok is not true: the DES leaked or double-counted packets")
    if doc["checks_failed"] != 0:
        failures.append(f"bench reported {doc['checks_failed']} failed internal check(s)")

    table = doc["table"]
    if not doc.get("smoke") and int(table["concurrent_flows"]) < STATEFUL_MIN_FLOWS:
        failures.append(
            f"table.concurrent_flows {table['concurrent_flows']} < {STATEFUL_MIN_FLOWS} "
            "(a full run must hold a million concurrent flows)"
        )
    if int(table["insert_fail"]) != 0:
        failures.append(f"table.insert_fail {table['insert_fail']} != 0 under churn")
    p99 = int(table["probe_p99"])
    window = int(table["max_probe_buckets"])
    if not 1 <= p99 <= window:
        failures.append(f"table.probe_p99 {p99} outside the bounded window [1, {window}]")
    if float(table["ns_per_op"]) <= 0:
        failures.append("table.ns_per_op is not positive")

    ov = doc["overload"]
    if int(ov["forwarded"]) != int(ov["offered"]):
        failures.append(
            f"overload.forwarded {ov['forwarded']} != offered {ov['offered']} "
            "(eviction policy stopped forwarding under 2x overload)"
        )
    if int(ov["evict_watermark"]) <= 0:
        failures.append("overload.evict_watermark is 0: watermark eviction never engaged")
    if int(ov["table_full_drops"]) != 0:
        failures.append(
            f"overload.table_full_drops {ov['table_full_drops']} != 0 with eviction on"
        )
    if int(ov["strict_table_full_drops"]) <= 0:
        failures.append(
            "overload.strict_table_full_drops is 0: the strict policy must surface "
            "overload in the flow_table_full bucket"
        )
    if int(ov["strict_forwarded"]) + int(ov["strict_table_full_drops"]) != int(ov["offered"]):
        failures.append("strict policy: forwarded + flow_table_full drops != offered")
    if ov["ports_conserved"] is not True:
        failures.append("overload.ports_conserved is not true: evicted mappings leaked ports")

    abl = doc["ablation"]
    for key in ("shared_ns_per_op", "scr_ns_per_op"):
        if float(abl[key]) <= 0:
            failures.append(f"ablation.{key} is not positive")
    if abl["replay_bound_ok"] is not True:
        failures.append(
            f"ablation replay unbounded: {abl['replayed_records']} records > "
            f"{abl['replays']} replays x checkpoint_period {abl['checkpoint_period']}"
        )

    fo = doc["failover"]
    if float(fo["scr_preserved"]) != 1.0:
        failures.append(
            f"failover.scr_preserved {fo['scr_preserved']} != 1.0 "
            "(SCR must reconstruct every established mapping byte-identically)"
        )
    if float(fo["shared_preserved"]) >= 1.0:
        failures.append(
            f"failover.shared_preserved {fo['shared_preserved']} >= 1.0 "
            "(the shared baseline must demonstrably lose the dead node's flows)"
        )
    if int(fo["lost_flows_shared"]) <= 0:
        failures.append("failover.lost_flows_shared is 0 (nothing was at stake)")
    return failures


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def load(path):
    doc = load_json(path)
    if doc.get("schema") != "rb.bench_fig9_breakdown.v1":
        print(f"error: {path}: unexpected schema {doc.get('schema')!r}", file=sys.stderr)
        sys.exit(2)
    return doc


def self_test():
    """Verifies the checker passes an identical run and fails a 2x slowdown."""
    base = {
        "schema": "rb.bench_fig9_breakdown.v1",
        "workloads": {
            "fwd_64": {
                "pipeline_cycles_per_packet": 800.0,
                "attribution_coverage": 0.99,
                "roots": {
                    "harness/inject": 40.0,
                    "netdev/rx_deliver": 300.0,
                    "sched/run": 420.0,
                    "netdev/tx_drain": 80.0,
                },
                "scopes": {
                    "netdev/tx": {"cycles_per_packet": 115.0, "share": 0.14},
                    "phase/lpm_lookup": {"cycles_per_packet": 100.0, "share": 0.12},
                    "tiny/noise": {"cycles_per_packet": 10.0, "share": 0.01},
                    "harness/inject": {"cycles_per_packet": 40.0, "share": 0.05},
                },
            }
        },
    }

    def scaled(doc, factor):
        """`doc` with its router time (number and root scopes) x factor."""
        out = json.loads(json.dumps(doc))
        w = out["workloads"]["fwd_64"]
        w["pipeline_cycles_per_packet"] *= factor
        for name in w["roots"]:
            if not name.startswith("harness/"):
                w["roots"][name] *= factor
        return out

    # 1. identical run passes
    f, _ = compare(base, base, cycles_tol=1.5)
    assert not f, f"identical run flagged: {f}"
    # 2. injected 2x slowdown fails under the self-test tolerance of 1.5x
    f, _ = compare(base, scaled(base, 2.0), cycles_tol=1.5)
    assert any("pipeline_cycles_per_packet" in x for x in f), f"2x slowdown not caught: {f}"
    # 3. coverage collapse fails regardless of tolerance
    bad_cov = json.loads(json.dumps(base))
    bad_cov["workloads"]["fwd_64"]["attribution_coverage"] = 0.5
    f, _ = compare(base, bad_cov, cycles_tol=10.0)
    assert any("attribution_coverage" in x for x in f), f"coverage collapse not caught: {f}"
    # 4. a dominant scope disappearing fails; a tiny one may come and go
    missing = json.loads(json.dumps(base))
    del missing["workloads"]["fwd_64"]["scopes"]["netdev/tx"]
    f, _ = compare(base, missing, cycles_tol=1.5)
    assert any("netdev/tx" in x for x in f), f"missing scope not caught: {f}"
    # 5. a missing workload fails
    empty = {"schema": base["schema"], "workloads": {}}
    f, _ = compare(base, empty, cycles_tol=1.5)
    assert any("fwd_64" in x for x in f), f"missing workload not caught: {f}"
    # 6. a modest speedup passes; an extreme one fails as "baseline stale"
    f, _ = compare(base, scaled(base, 0.5), cycles_tol=1.5)
    assert not f, f"modest speedup flagged: {f}"
    f, _ = compare(base, scaled(base, 0.125), cycles_tol=1.5, improvement_tol=4.0)
    assert any("baseline stale" in x for x in f), f"stale baseline not caught: {f}"
    # Scope-level speedups never fail, no matter how large.
    scope_fast = json.loads(json.dumps(base))
    scope_fast["workloads"]["fwd_64"]["scopes"]["netdev/tx"]["cycles_per_packet"] = 1.0
    f, _ = compare(base, scope_fast, cycles_tol=1.5, improvement_tol=4.0)
    assert not f, f"scope speedup flagged: {f}"
    # 7. a dominant scope slowing down fails; a sub-threshold-share scope
    # slowing down is noise and passes
    scope_slow = json.loads(json.dumps(base))
    scope_slow["workloads"]["fwd_64"]["scopes"]["netdev/tx"]["cycles_per_packet"] = 500.0
    f, _ = compare(base, scope_slow, cycles_tol=1.5)
    assert any("netdev/tx" in x for x in f), f"dominant scope slowdown not caught: {f}"
    noise_slow = json.loads(json.dumps(base))
    noise_slow["workloads"]["fwd_64"]["scopes"]["tiny/noise"]["cycles_per_packet"] = 500.0
    f, _ = compare(base, noise_slow, cycles_tol=1.5)
    assert not f, f"sub-share scope noise flagged: {f}"
    # 8. the router number is router time only: a run whose harness cycles
    # leak into pipeline_cycles_per_packet fails, even though it is well
    # inside the cycles tolerance
    leaky = json.loads(json.dumps(base))
    leaky["workloads"]["fwd_64"]["pipeline_cycles_per_packet"] = 840.0  # router + harness
    f, _ = compare(base, leaky, cycles_tol=1.5)
    assert any("non-harness root scopes" in x for x in f), f"harness leak not caught: {f}"
    # The identity binds on the current run alone: a leaky baseline does
    # not grandfather a leaky current run in
    f, _ = compare(leaky, leaky, cycles_tol=1.5)
    assert any("non-harness root scopes" in x for x in f), f"grandfathered harness leak: {f}"
    # A run that does not report its root scopes cannot be checked, so fails
    rootless = json.loads(json.dumps(base))
    del rootless["workloads"]["fwd_64"]["roots"]
    f, _ = compare(base, rootless, cycles_tol=1.5)
    assert any("no 'roots'" in x for x in f), f"unverifiable router number passed: {f}"
    # Frame generation may cost what it costs: it is reported, not gated
    heavy_harness = json.loads(json.dumps(base))
    heavy_harness["workloads"]["fwd_64"]["roots"]["harness/inject"] = 400.0
    f, infos = compare(base, heavy_harness, cycles_tol=1.5)
    assert not f, f"harness cost outside the router number flagged: {f}"
    assert any("harness/* 400.0" in x for x in infos), f"harness cost not reported: {infos}"

    # 9. bench_overload structural checks: a healthy dump passes; broken
    # conservation, an unfair admission run, an inverted on/off ordering,
    # and a dropped required field each fail.
    overload = {
        "schema": OVERLOAD_SCHEMA,
        "seed": 7,
        "nodes": 4,
        "fairness": {
            "ratio_admission_on": 1.04,
            "ratio_admission_off": 1.53,
            "per_port_gbps_on": [0.64, 0.62, 0.62, 0.62],
            "per_port_gbps_off": [1.36, 0.89, 0.94, 0.91],
        },
        "goodput": {"hot_on_gbps": 2.5, "hot_off_gbps": 4.1, "uniform_on_gbps": 9.9},
        "conservation_ok": True,
        "checks_failed": 0,
    }
    assert not check_overload(overload), f"healthy overload dump flagged: {check_overload(overload)}"
    leaky = json.loads(json.dumps(overload))
    leaky["conservation_ok"] = False
    f = check_overload(leaky)
    assert any("conservation" in x for x in f), f"conservation break not caught: {f}"
    unfair = json.loads(json.dumps(overload))
    unfair["fairness"]["ratio_admission_on"] = 1.5
    f = check_overload(unfair)
    assert any("ratio_admission_on" in x for x in f), f"unfair admission not caught: {f}"
    inverted = json.loads(json.dumps(overload))
    inverted["fairness"]["ratio_admission_off"] = 1.0
    f = check_overload(inverted)
    assert any("less fair" in x for x in f), f"inverted on/off fairness not caught: {f}"
    gutted = json.loads(json.dumps(overload))
    del gutted["goodput"]["uniform_on_gbps"]
    f = check_overload(gutted)
    assert any("uniform_on_gbps" in x for x in f), f"missing goodput field not caught: {f}"
    wrong_schema = {"schema": "rb.bench_failover.v1"}
    f = check_overload(wrong_schema)
    assert any("schema" in x for x in f), f"wrong schema not caught: {f}"

    # 10. bench_latency structural checks: a healthy dump passes; an
    # inverted direct/via ordering, an estimator disagreement, a flat
    # sweep, an over-budget stamp, and a dropped field each fail.
    latency = {
        "schema": LATENCY_SCHEMA,
        "seed": 7,
        "estimator": {"cluster_2hop_us": 47.68, "cluster_3hop_us": 71.52},
        "des": {
            "direct_mean_us": 47.81,
            "via_mean_us": 72.19,
            "rel_err_direct": 0.003,
            "rel_err_via": 0.009,
            "direct_cpu_wait_us": 0.0,
        },
        "sweep": [
            {"burst": 16, "count": 65536, "p99_us": 5.0},
            {"burst": 64, "count": 65536, "p99_us": 20.0},
            {"burst": 256, "count": 65536, "p99_us": 60.0},
            {"burst": 1024, "count": 64731, "p99_us": 170.0},
        ],
        "stamp_ab": {
            "off_cycles_per_pkt": 385.2,
            "on_cycles_per_pkt": 389.8,
            "overhead_frac": 0.012,
            "aa_frac": 0.011,
            "overhead_bar": 0.02,
        },
        "conservation_ok": True,
        "checks_failed": 0,
    }
    assert not check_latency(latency), f"healthy latency dump flagged: {check_latency(latency)}"
    inverted_lat = json.loads(json.dumps(latency))
    inverted_lat["des"]["via_mean_us"] = 40.0
    f = check_latency(inverted_lat)
    assert any("faster than 3-hop" in x for x in f), f"inverted direct/via not caught: {f}"
    disagree = json.loads(json.dumps(latency))
    disagree["des"]["rel_err_via"] = 0.4
    f = check_latency(disagree)
    assert any("rel_err_via" in x for x in f), f"estimator disagreement not caught: {f}"
    flat = json.loads(json.dumps(latency))
    for pt in flat["sweep"]:
        pt["p99_us"] = 5.0
    f = check_latency(flat)
    assert any("knee" in x for x in f), f"flat sweep not caught: {f}"
    costly = json.loads(json.dumps(latency))
    costly["stamp_ab"]["overhead_frac"] = 0.05
    f = check_latency(costly)
    assert any("overhead_frac" in x for x in f), f"over-budget stamp not caught: {f}"
    # The A/A spread widens the gate: 3% overhead passes when the host
    # cannot resolve same-code runs better than 2%.
    noisy = json.loads(json.dumps(latency))
    noisy["stamp_ab"]["overhead_frac"] = 0.03
    noisy["stamp_ab"]["aa_frac"] = 0.02
    assert not check_latency(noisy), f"A/A-widened gate not honored: {check_latency(noisy)}"
    queued = json.loads(json.dumps(latency))
    queued["des"]["direct_cpu_wait_us"] = 3.0
    f = check_latency(queued)
    assert any("cpu_wait" in x for x in f), f"queued light-load run not caught: {f}"
    gutted_lat = json.loads(json.dumps(latency))
    del gutted_lat["des"]["rel_err_direct"]
    f = check_latency(gutted_lat)
    assert any("rel_err_direct" in x for x in f), f"missing des field not caught: {f}"
    short_sweep = json.loads(json.dumps(latency))
    short_sweep["sweep"] = short_sweep["sweep"][:2]
    f = check_latency(short_sweep)
    assert any("sweep has 2 points" in x for x in f), f"short sweep not caught: {f}"
    # ... but a --smoke dump legitimately runs only the 2-point curve.
    smoke_sweep = json.loads(json.dumps(short_sweep))
    smoke_sweep["smoke"] = True
    assert not check_latency(smoke_sweep), f"smoke 2-point sweep flagged: {check_latency(smoke_sweep)}"
    f = check_latency({"schema": "rb.bench_overload.v1"})
    assert any("schema" in x for x in f), f"wrong latency schema not caught: {f}"

    # --- compiled-vs-interpreted A/B contract ---
    ab = {
        "schema": "rb.bench_fig8_compiled_ab.v1",
        "cycle_source": "rdtscp",
        "workloads": {
            "fwd_64": {
                "interpreted_cycles_per_packet": 300.0,
                "compiled_cycles_per_packet": 290.0,
                "interpreted_mpps": 10.0,
                "compiled_mpps": 10.3,
            },
            "rtr_64": {
                "interpreted_cycles_per_packet": 400.0,
                "compiled_cycles_per_packet": 350.0,
                "interpreted_mpps": 7.5,
                "compiled_mpps": 8.6,
            },
        },
    }
    assert not check_compiled_ab(ab), f"healthy A/B dump flagged: {check_compiled_ab(ab)}"
    slow = json.loads(json.dumps(ab))
    slow["workloads"]["rtr_64"]["compiled_cycles_per_packet"] = 500.0
    f = check_compiled_ab(slow)
    assert any("rtr_64" in x and "slower" in x for x in f), f"slower compiled path not caught: {f}"
    # Within the 10% noise allowance: 10.09x of interpreted passes.
    near = json.loads(json.dumps(ab))
    near["workloads"]["fwd_64"]["compiled_cycles_per_packet"] = 300.0 * 1.09
    assert not check_compiled_ab(near), f"within-noise A/B flagged: {check_compiled_ab(near)}"
    f = check_compiled_ab({"schema": "rb.bench_overload.v1", "workloads": {}})
    assert any("schema" in x for x in f), f"wrong A/B schema not caught: {f}"
    f = check_compiled_ab({"schema": "rb.bench_fig8_compiled_ab.v1", "workloads": {}})
    assert any("no workloads" in x for x in f), f"empty A/B dump not caught: {f}"
    gutted_ab = json.loads(json.dumps(ab))
    del gutted_ab["workloads"]["fwd_64"]["compiled_cycles_per_packet"]
    f = check_compiled_ab(gutted_ab)
    assert any("missing field" in x for x in f), f"missing A/B field not caught: {f}"
    zeroed = json.loads(json.dumps(ab))
    zeroed["workloads"]["fwd_64"]["interpreted_cycles_per_packet"] = 0.0
    f = check_compiled_ab(zeroed)
    assert any("non-positive" in x for x in f), f"zero cycles/packet not caught: {f}"

    # 11. bench_stateful structural checks: a healthy dump passes; each
    # broken robustness gate fails.
    stateful = {
        "schema": STATEFUL_SCHEMA,
        "seed": 11,
        "smoke": False,
        "table": {
            "concurrent_flows": 1049349,
            "ops": 5242880,
            "insert_fail": 0,
            "evictions": 582,
            "probe_p99": 3,
            "max_probe_buckets": 8,
            "load_factor": 0.5,
            "ns_per_op": 180.9,
        },
        "overload": {
            "offered": 8192,
            "forwarded": 8192,
            "evict_watermark": 4546,
            "table_full_drops": 0,
            "strict_forwarded": 4096,
            "strict_table_full_drops": 4096,
            "ports_conserved": True,
        },
        "ablation": {
            "shared_ns_per_op": 36.2,
            "scr_ns_per_op": 47.7,
            "scr_overhead_frac": 0.317,
            "replay_ms": 0.17,
            "replays": 1,
            "replayed_records": 4096,
            "checkpoint_period": 4096,
            "replay_bound_ok": True,
        },
        "failover": {
            "scr_preserved": 1.0,
            "shared_preserved": 0.75,
            "lost_flows_shared": 16,
            "state_unavailable": 0,
        },
        "conservation_ok": True,
        "checks_failed": 0,
    }
    assert not check_stateful(stateful), f"healthy stateful dump flagged: {check_stateful(stateful)}"
    # The million-flow floor binds on full runs and is waived for --smoke.
    small = json.loads(json.dumps(stateful))
    small["table"]["concurrent_flows"] = 32814
    f = check_stateful(small)
    assert any("concurrent_flows" in x for x in f), f"under-populated table not caught: {f}"
    small["smoke"] = True
    assert not check_stateful(small), f"smoke run held to the full floor: {check_stateful(small)}"
    failed_insert = json.loads(json.dumps(stateful))
    failed_insert["table"]["insert_fail"] = 12
    f = check_stateful(failed_insert)
    assert any("insert_fail" in x for x in f), f"insert failures not caught: {f}"
    long_probe = json.loads(json.dumps(stateful))
    long_probe["table"]["probe_p99"] = 9
    f = check_stateful(long_probe)
    assert any("probe_p99" in x for x in f), f"unbounded probe not caught: {f}"
    stalled = json.loads(json.dumps(stateful))
    stalled["overload"]["forwarded"] = 6000
    f = check_stateful(stalled)
    assert any("stopped forwarding" in x for x in f), f"forwarding stall not caught: {f}"
    no_evict = json.loads(json.dumps(stateful))
    no_evict["overload"]["evict_watermark"] = 0
    f = check_stateful(no_evict)
    assert any("never engaged" in x for x in f), f"missing watermark eviction not caught: {f}"
    leaky_ports = json.loads(json.dumps(stateful))
    leaky_ports["overload"]["ports_conserved"] = False
    f = check_stateful(leaky_ports)
    assert any("leaked ports" in x for x in f), f"port leak not caught: {f}"
    lossy_scr = json.loads(json.dumps(stateful))
    lossy_scr["failover"]["scr_preserved"] = 0.94
    f = check_stateful(lossy_scr)
    assert any("scr_preserved" in x for x in f), f"lossy SCR failover not caught: {f}"
    too_good = json.loads(json.dumps(stateful))
    too_good["failover"]["shared_preserved"] = 1.0
    too_good["failover"]["lost_flows_shared"] = 0
    f = check_stateful(too_good)
    assert any("shared_preserved" in x for x in f), f"lossless shared baseline not caught: {f}"
    unbounded = json.loads(json.dumps(stateful))
    unbounded["ablation"]["replay_bound_ok"] = False
    f = check_stateful(unbounded)
    assert any("replay unbounded" in x for x in f), f"unbounded replay not caught: {f}"
    gutted_st = json.loads(json.dumps(stateful))
    del gutted_st["overload"]["strict_table_full_drops"]
    f = check_stateful(gutted_st)
    assert any("strict_table_full_drops" in x for x in f), f"missing stateful field not caught: {f}"
    f = check_stateful({"schema": "rb.bench_overload.v1"})
    assert any("schema" in x for x in f), f"wrong stateful schema not caught: {f}"

    print("self-test: 52/52 checks passed")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", help="committed baseline JSON")
    ap.add_argument("--current", help="freshly produced JSON")
    ap.add_argument(
        "--cycles-tolerance",
        type=float,
        default=3.0,
        help="allowed cycles/packet growth ratio (default 3.0: cross-machine safe)",
    )
    ap.add_argument(
        "--improvement-tolerance",
        type=float,
        default=4.0,
        help="allowed workload cycles/packet shrink ratio before the committed "
        "baseline is declared stale (default 4.0)",
    )
    ap.add_argument("--self-test", action="store_true", help="run the built-in checks and exit")
    ap.add_argument(
        "--overload",
        metavar="FILE",
        help="validate a bench_overload JSON dump structurally and exit",
    )
    ap.add_argument(
        "--latency",
        metavar="FILE",
        help="validate a bench_latency JSON dump structurally and exit",
    )
    ap.add_argument(
        "--compiled-ab",
        metavar="FILE",
        help="validate a bench_fig8 compiled-vs-interpreted A/B JSON dump and exit",
    )
    ap.add_argument(
        "--stateful",
        metavar="FILE",
        help="validate a bench_stateful JSON dump structurally and exit",
    )
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if args.overload:
        failures = check_overload(load_json(args.overload))
        if failures:
            print(f"{len(failures)} problem(s) in {args.overload}:")
            for line in failures:
                print(f"  FAIL: {line}")
            return 1
        print(f"{args.overload}: bench_overload structure and fairness contract ok")
        return 0
    if args.latency:
        failures = check_latency(load_json(args.latency))
        if failures:
            print(f"{len(failures)} problem(s) in {args.latency}:")
            for line in failures:
                print(f"  FAIL: {line}")
            return 1
        print(f"{args.latency}: bench_latency structure and §6.2 contract ok")
        return 0
    if args.compiled_ab:
        failures = check_compiled_ab(load_json(args.compiled_ab))
        if failures:
            print(f"{len(failures)} problem(s) in {args.compiled_ab}:")
            for line in failures:
                print(f"  FAIL: {line}")
            return 1
        print(f"{args.compiled_ab}: compiled classifiers no slower than interpreted "
              f"(x{COMPILED_AB_MAX_RATIO:.2f} gate) on every workload")
        return 0
    if args.stateful:
        failures = check_stateful(load_json(args.stateful))
        if failures:
            print(f"{len(failures)} problem(s) in {args.stateful}:")
            for line in failures:
                print(f"  FAIL: {line}")
            return 1
        print(f"{args.stateful}: bench_stateful structure and §17 robustness contract ok")
        return 0
    if not args.baseline or not args.current:
        ap.error("--baseline and --current are required (or use --self-test)")

    baseline = load(args.baseline)
    current = load(args.current)
    failures, infos = compare(baseline, current, args.cycles_tolerance,
                              args.improvement_tolerance)

    for line in infos:
        print(f"  ok: {line}")
    if failures:
        print(f"\n{len(failures)} regression(s) vs {args.baseline}:")
        for line in failures:
            print(f"  FAIL: {line}")
        return 1
    print(f"\nno regressions vs {args.baseline} (tolerance x{args.cycles_tolerance:.1f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
