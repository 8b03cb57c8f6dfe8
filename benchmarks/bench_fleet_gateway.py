"""Fleet gateway overhead: routed vs direct-to-replica request latency.

The gateway adds one local HTTP hop plus routing work (consistent-hash
lookup, health admission, journal append) to every request.  All of
that is O(1) and body-size-independent — the route key travels in a
header, so the gateway never parses the prediction payload.  The CI
gate pins the representative single-request serving latency (fno mode,
2-cycle horizon on a 64² grid against one replica): routing through
the gateway must add <= 10% over POSTing to the replica directly.

Direct and routed requests are measured in interleaved pairs (the order
within a pair alternates), and the gate reads the median over pairs of
``routed / direct − 1``.  Pairing cancels load drift on a shared runner,
and the median of 200 pairs spreads far less from run to run than a ratio
of two minima did (a min-of-12 ratio read −10% to 19% on the same code);
the verdict lands in ``benchmarks/results/bench_fleet_gateway.json``.
"""

from __future__ import annotations

import json
import tempfile
import time
import urllib.request

import numpy as np
from common import print_table, write_results

from repro.core import ChannelFNOConfig, build_model, save_model
from repro.fleet import Coordinator, Gateway, ReplicaSpec

GATE_MAX_OVERHEAD = 0.10  # routed latency <= 1.10x direct latency
GRID = 64
MODEL = ChannelFNOConfig(
    n_in=5, n_out=5, n_fields=2, modes1=8, modes2=8, width=16, n_layers=3,
    projection_channels=32,
)
MODE = "fno"
CYCLES = 2
WARMUP = 2
PAIRS = 200


def _post(url: str, body: bytes, headers: dict) -> float:
    request = urllib.request.Request(
        url + "/predict", data=body, method="POST",
        headers={"Content-Type": "application/json", **headers},
    )
    start = time.perf_counter()
    with urllib.request.urlopen(request, timeout=120.0) as resp:
        payload = json.loads(resp.read())
    elapsed = time.perf_counter() - start
    assert resp.status == 200 and np.all(
        np.isfinite(np.asarray(payload["velocity"]))
    )
    return elapsed


def run_fleet_gateway():
    rng = np.random.default_rng(0)
    window = rng.standard_normal((MODEL.n_in, MODEL.n_fields, GRID, GRID))
    body = json.dumps({"model": "bench", "window": window.tolist(),
                       "mode": MODE, "cycles": CYCLES,
                       "sample_interval": 0.02}).encode()

    with tempfile.TemporaryDirectory(prefix="bench-fleet-") as workdir:
        ckpt = f"{workdir}/bench_model.npz"
        save_model(ckpt, build_model(MODEL, rng=rng), MODEL)
        spec = ReplicaSpec(checkpoint=ckpt, model_name="bench", workers=1,
                           queue_depth=16, max_batch=1, default_mode=MODE)
        coordinator = Coordinator(spec, 1, f"{workdir}/fleet",
                                  stall_timeout=60.0)
        coordinator.start()
        gateway = Gateway(coordinator, poll_interval=0.2)
        gateway.start()
        try:
            direct_url = coordinator.urls()["r0"]
            routed_url = gateway.base_url()
            routed_headers = {"X-Route-Key": "bench-key"}
            for _ in range(WARMUP):
                _post(direct_url, body, {})
                _post(routed_url, body, routed_headers)
            direct, routed = [], []
            for i in range(PAIRS):
                if i % 2:
                    routed.append(_post(routed_url, body, routed_headers))
                    direct.append(_post(direct_url, body, {}))
                else:
                    direct.append(_post(direct_url, body, {}))
                    routed.append(_post(routed_url, body, routed_headers))
            journal = gateway.router.journal.verify()
        finally:
            gateway.stop()
            coordinator.stop()

    direct_s, routed_s = float(np.median(direct)), float(np.median(routed))
    ratios = np.asarray(routed) / np.asarray(direct) - 1.0
    observed = float(np.median(ratios))
    q1, q3 = np.percentile(ratios, [25, 75])
    print_table(
        "fleet gateway latency (median of %d interleaved pairs)" % PAIRS,
        ["path", "latency s", "overhead"],
        [["direct to replica", direct_s, "--"],
         ["via gateway", routed_s, f"{100 * observed:.1f}% (pair IQR "
                                   f"{100 * q1:.1f}%..{100 * q3:.1f}%)"]],
    )

    target_met = observed <= GATE_MAX_OVERHEAD
    payload = {
        "grid": GRID,
        "pairs": PAIRS,
        "request": {"mode": MODE, "cycles": CYCLES},
        "direct_s": direct_s,
        "routed_s": routed_s,
        "pair_overhead_iqr": [float(q1), float(q3)],
        "journal_exactly_once": journal["exactly_once"],
        "gate": {
            "metric": "gateway_routing_overhead",
            "statistic": "median over pairs of routed / direct - 1",
            "target": GATE_MAX_OVERHEAD,
            "observed": observed,
            "gated": True,
            "target_met": target_met,
        },
    }
    write_results("bench_fleet_gateway", payload)
    if not journal["exactly_once"]:
        raise SystemExit("gateway journal lost or duplicated bench requests")
    if not target_met:
        raise SystemExit(
            f"fleet gateway gate failed: routing adds {100 * observed:.1f}% "
            f"to the {MODE} x{CYCLES} single-request latency "
            f"(budget {100 * GATE_MAX_OVERHEAD:.0f}%)"
        )
    print(f"\ngate: PASS (gateway routing overhead {100 * observed:.1f}% "
          f"<= {100 * GATE_MAX_OVERHEAD:.0f}%)")
    return payload


if __name__ == "__main__":
    from common import bench_entry

    bench_entry(run_fleet_gateway)
