"""Fleet-layer tests: hash ring, health lattice, router, journal, deploys,
heartbeats and the coordinator's supervision.

Everything here runs without sockets or child processes — the router
and deploy orchestration take fake transports/coordinators, the
coordinator runs over a fake ``ReplicaProcess``, and the state machines
take injectable clocks.  The end-to-end story (real
replicas, real SIGKILL) lives in the ``replica_kill`` / ``bad_deploy``
chaos scenarios.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.faults.policy import RetryPolicy, call_with_retry
from repro.fleet import (
    Coordinator,
    FleetHealth,
    GatewayRouter,
    HashRing,
    HealthPolicy,
    ReplicaSpec,
    RequestJournal,
    rolling_deploy,
)
from repro.fleet import coordinator as coordinator_module
from repro.fleet import replica as replica_module
from repro.fleet.replica import BLAS_THREAD_VARS, ReplicaProcess
from repro.utils import journal as journal_module
from repro.utils.artifacts import write_manifest
from repro.utils.heartbeat import Heartbeat, HeartbeatReader
from repro.utils.journal import Journal, JournalError, read_records


class TestHashRing:
    def test_same_key_same_replica_and_cross_instance_determinism(self):
        nodes = ["r0", "r1", "r2", "r3"]
        a, b = HashRing(nodes), HashRing(list(reversed(nodes)))
        for k in range(50):
            key = f"key-{k}"
            assert a.route(key) == a.route(key) == b.route(key)
            assert a.preference(key) == b.preference(key)

    def test_preference_covers_all_nodes_distinctly(self):
        ring = HashRing(["r0", "r1", "r2"])
        for k in range(20):
            prefs = ring.preference(f"key-{k}")
            assert sorted(prefs) == ["r0", "r1", "r2"]

    def test_minimal_remapping_on_ejection(self):
        ring = HashRing(["r0", "r1", "r2", "r3"])
        keys = [f"key-{k}" for k in range(200)]
        before = {key: ring.route(key) for key in keys}
        ring.remove("r1")
        after = {key: ring.route(key) for key in keys}
        moved = [key for key in keys if before[key] != after[key]]
        # Only keys the ejected replica owned may move...
        assert moved and all(before[key] == "r1" for key in moved)
        # ...and they land on the key's next preference, not at random.
        ring_full = HashRing(["r0", "r1", "r2", "r3"])
        for key in moved:
            successor = ring_full.preference(key)[1]
            assert after[key] == successor

    def test_readding_restores_the_original_mapping(self):
        ring = HashRing(["r0", "r1", "r2"])
        keys = [f"key-{k}" for k in range(100)]
        before = {key: ring.route(key) for key in keys}
        ring.remove("r2")
        ring.add("r2")
        assert {key: ring.route(key) for key in keys} == before

    def test_route_skips_unhealthy_nodes(self):
        ring = HashRing(["r0", "r1"])
        key = next(f"k{i}" for i in range(100)
                   if ring.route(f"k{i}") == "r0")
        assert ring.route(key, healthy={"r1"}) == "r1"
        assert ring.route(key, healthy=set()) is None

    def test_placement_is_roughly_balanced(self):
        ring = HashRing(["r0", "r1", "r2"], vnodes=64)
        counts: dict[str, int] = {}
        for k in range(600):
            owner = ring.route(f"key-{k}")
            counts[owner] = counts.get(owner, 0) + 1
        assert all(count > 600 // 10 for count in counts.values()), counts

    def test_empty_ring_and_validation(self):
        assert HashRing().preference("k") == []
        assert HashRing().route("k") is None
        with pytest.raises(ValueError, match="vnodes"):
            HashRing(vnodes=0)


HEALTHY = {"status": "ok", "breaker": "closed", "trust_breaker": "closed",
           "trust": {"ewma": 0.9}, "queue_depth": 0, "queue_limit": 64}


class TestHealthLattice:
    def make(self, **kwargs):
        t = [0.0]
        policy = HealthPolicy(**{"readmit_after_s": 1.0, **kwargs})
        return FleetHealth(policy, clock=lambda: t[0]), t

    def test_overall_score_is_the_min_component(self):
        health, _ = self.make()
        health.observe("r0", {**HEALTHY, "breaker": "half_open"})
        snap = health.snapshot()["r0"]
        assert snap["components"]["breaker"] == 0.5
        assert snap["score"] == 0.5

    def test_breaker_open_ejects(self):
        health, _ = self.make()
        health.observe("r0", HEALTHY)
        assert health.state_of("r0") == "closed"
        health.observe("r0", {**HEALTHY, "breaker": "open"})
        assert health.state_of("r0") == "open"
        assert not health.admit("r0")

    def test_low_trust_ewma_ejects(self):
        health, _ = self.make()
        health.observe("r0", {**HEALTHY, "trust": {"ewma": 0.2}})
        assert health.state_of("r0") == "open"
        assert health.snapshot()["r0"]["components"]["trust"] == 0.2

    def test_draining_and_saturated_queue_eject(self):
        health, _ = self.make()
        health.observe("r0", {**HEALTHY, "status": "draining"})
        assert health.state_of("r0") == "open"
        health.observe("r1", {**HEALTHY, "queue_depth": 64})
        assert health.state_of("r1") == "open"

    def test_stale_heartbeat_scores_unreachable(self):
        health, t = self.make(stale_after_s=2.0)
        health.observe("r0", HEALTHY)
        t[0] = 5.0
        assert health.snapshot()["r0"]["components"]["reachable"] == 0.0

    def test_eject_probe_readmit_cycle(self):
        health, t = self.make()
        health.observe("r0", HEALTHY)
        health.observe_error("r0")
        assert health.state_of("r0") == "open"
        # Cooldown not yet elapsed: still no traffic.
        t[0] = 0.5
        assert not health.admit("r0")
        # After the cooldown a single probe slot opens.
        t[0] = 1.5
        assert health.admit("r0")
        assert health.state_of("r0") == "half_open"
        assert not health.admit("r0")  # one probe: second request denied
        health.record_result("r0", True)
        assert health.state_of("r0") == "closed"
        assert health.admit("r0")
        assert health.snapshot()["r0"]["ejections"] == 1

    def test_failed_probe_reejects_and_restarts_cooldown(self):
        health, t = self.make()
        health.observe("r0", HEALTHY)
        health.observe_error("r0")
        t[0] = 1.5
        assert health.admit("r0")
        health.record_result("r0", False)
        assert health.state_of("r0") == "open"
        t[0] = 2.0  # only 0.5s since the failed probe
        assert not health.admit("r0")
        t[0] = 3.0
        assert health.admit("r0")

    def test_healthy_poll_counts_as_probe_success(self):
        health, t = self.make()
        health.observe("r0", HEALTHY)
        health.observe_error("r0")
        t[0] = 2.0
        health.observe("r0", HEALTHY)
        assert health.state_of("r0") == "closed"

    def test_success_during_cooldown_does_not_readmit(self):
        health, t = self.make()
        health.observe("r0", HEALTHY)
        health.observe_error("r0")
        # A healthy poll, or a request admitted before the ejection
        # finishing, inside the cooldown leaves the breaker open.
        t[0] = 0.5
        health.observe("r0", HEALTHY)
        health.record_result("r0", True)
        assert health.state_of("r0") == "open"
        assert health.admitted_ids() == []
        # The first healthy poll after the cooldown readmits.
        t[0] = 1.0
        health.observe("r0", HEALTHY)
        assert health.state_of("r0") == "closed"
        assert health.admitted_ids() == ["r0"]


class TestHeartbeat:
    def test_beats_advance_seq(self, tmp_path):
        path = tmp_path / "hb.json"
        hb = Heartbeat(path, interval=60.0)  # manual beats only
        hb.beat()
        first = HeartbeatReader(path).read()
        hb.beat()
        second = HeartbeatReader(path).read()
        assert first["pid"] == os.getpid()
        assert second["seq"] == first["seq"] + 1

    def test_read_tolerates_absent_and_torn_files(self, tmp_path):
        assert HeartbeatReader(tmp_path / "nope.json").read() is None
        torn = tmp_path / "torn.json"
        torn.write_text('{"pid": 12')
        assert HeartbeatReader(torn).read() is None


class TestHeartbeatTornRead:
    def test_reader_returns_last_good_value_across_torn_write(self, tmp_path):
        path = tmp_path / "hb.json"
        hb = Heartbeat(path, interval=60.0)
        hb.beat()
        reader = HeartbeatReader(path)
        first = reader.read()
        assert first is not None and "seq" in first
        # A torn write (partial JSON) must not erase the reader's state:
        # a supervisor seeing None here would misdiagnose a live child.
        path.write_text('{"pid": 12, "se')
        assert reader.read() == first
        hb.beat()
        hb.beat()
        assert reader.read()["seq"] > first["seq"]

    def test_reader_keeps_last_good_value_when_file_is_absent_or_torn(self, tmp_path):
        path = tmp_path / "hb.json"
        reader = HeartbeatReader(path)
        assert reader.read() is None
        good = {"pid": 1, "seq": 7, "interval": 0.25}
        path.write_text(json.dumps(good))
        assert reader.read() == good
        path.unlink()
        assert reader.read() == good
        path.write_text("{broken")
        assert reader.read() == good


class _Hinted(RuntimeError):
    def __init__(self, retry_after):
        super().__init__("busy")
        self.retry_after = retry_after


class TestRetryAfterHonoring:
    def run(self, hints, policy):
        sleeps: list[float] = []
        calls = {"n": 0}

        def fn():
            if calls["n"] < len(hints):
                hint = hints[calls["n"]]
                calls["n"] += 1
                raise _Hinted(hint) if hint is not None else RuntimeError("x")
            return "ok"

        assert call_with_retry(fn, policy=policy, sleep=sleeps.append) == "ok"
        return sleeps

    def test_hint_raises_the_pause_capped_by_max_backoff(self):
        policy = RetryPolicy(attempts=3, backoff=0.05, factor=2.0,
                             max_backoff=0.5, retry_on=(_Hinted,))
        # Hint above schedule: pause rises to it.  Hint above the cap:
        # pause clamps to max_backoff.
        assert self.run([0.3, 10.0], policy) == [0.3, 0.5]

    def test_hint_never_lowers_the_policy_schedule(self):
        policy = RetryPolicy(attempts=2, backoff=0.2, retry_on=(_Hinted,))
        assert self.run([0.001], policy) == [0.2]

    def test_malformed_hint_keeps_policy_schedule(self):
        policy = RetryPolicy(attempts=2, backoff=0.1, retry_on=(_Hinted,))
        assert self.run(["not-a-number"], policy) == [0.1]


class TestRequestJournal:
    def test_exactly_once_verdict(self):
        journal = RequestJournal()
        for i in range(3):
            journal.record("submitted", f"q{i}")
            journal.record("responded", f"q{i}", replica="r0", status=200)
        verdict = journal.verify()
        assert verdict["exactly_once"] and verdict["submitted"] == 3
        assert not verdict["lost"] and not verdict["duplicated"]

    def test_lost_duplicated_and_failed_are_flagged(self):
        journal = RequestJournal()
        journal.record("submitted", "lost")
        journal.record("submitted", "dup")
        journal.record("responded", "dup", replica="r0", status=200)
        journal.record("responded", "dup", replica="r1", status=200)
        journal.record("submitted", "sad")
        journal.record("failed", "sad", error="no replica")
        verdict = journal.verify()
        assert not verdict["exactly_once"]
        assert verdict["lost"] == ["lost"]
        assert verdict["duplicated"] == ["dup"]
        assert verdict["failed"] == 1

    def test_jsonl_persistence_roundtrip(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        journal = RequestJournal(path)
        journal.record("submitted", "q0", key="k")
        journal.record("responded", "q0", replica="r1", status=200)
        journal.close()
        assert read_records(path, required=("event", "id")) == [
            {"type": "request", "event": "submitted", "id": "q0", "key": "k"},
            {"type": "request", "event": "responded", "id": "q0",
             "replica": "r1", "status": 200},
        ]
        replayed = RequestJournal.load(path)
        assert replayed.verify() == journal.verify()
        assert replayed.verify()["exactly_once"]

    def test_torn_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        journal = RequestJournal(path)
        journal.record("submitted", "q0", key="k")
        journal.close()
        with open(path, "ab") as fh:
            fh.write(b'{"event": "responded", "id": "q0", "rep')  # killed mid-write
        assert read_records(path, required=("event", "id")) == [
            {"type": "request", "event": "submitted", "id": "q0", "key": "k"},
        ]
        assert RequestJournal.load(path).verify() == journal.verify()

    def test_record_after_torn_tail_resumes_cleanly(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        journal = RequestJournal(path)
        journal.record("submitted", "q0", key="k")
        journal.record("responded", "q0", replica="r0", status=200)
        journal.close()
        with open(path, "ab") as fh:
            fh.write(b'{"event": "submitted", "id": "q1", "k')  # killed mid-write
        resumed = RequestJournal(path)
        resumed.record("submitted", "q1", key="k")
        resumed.record("responded", "q1", replica="r1", status=200)
        resumed.close()
        assert read_records(path, required=("event", "id")) == [
            {"type": "request", "event": "submitted", "id": "q0", "key": "k"},
            {"type": "request", "event": "responded", "id": "q0",
             "replica": "r0", "status": 200},
            {"type": "request", "event": "submitted", "id": "q1", "key": "k"},
            {"type": "request", "event": "responded", "id": "q1",
             "replica": "r1", "status": 200},
        ]
        replayed = RequestJournal.load(path)
        assert replayed.verify()["exactly_once"]
        assert replayed.verify()["submitted"] == 2

    def test_appends_do_not_wait_on_the_disk(self, tmp_path, monkeypatch):
        # Two appends per routed request: an fsync each would put the
        # disk's flush latency on the request path.  A default Journal
        # keeps its fsync.
        synced = []
        monkeypatch.setattr(journal_module.os, "fsync", synced.append)
        journal = RequestJournal(tmp_path / "requests.jsonl")
        journal.record("submitted", "q0", key="k")
        journal.record("responded", "q0", replica="r0", status=200)
        journal.close()
        assert synced == []
        with Journal(tmp_path / "durable.jsonl") as durable:
            durable.append({"type": "run", "status": "created"})
        assert len(synced) == 1

    def test_garbage_before_the_tail_is_corruption(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        path.write_text('{"event": "submitted", "id": "q0"}\nnot json\n'
                        '{"event": "responded", "id": "q0"}\n')
        with pytest.raises(JournalError, match="corrupt journal line"):
            RequestJournal.load(path)

    def test_answered_requests_leave_no_per_id_state(self):
        # 100k pairs from 8 handler threads sharing ids, with a short
        # switch interval: a lost update in the fold would leave an id
        # outstanding or flag it duplicated.
        journal = RequestJournal()

        def handler(t):
            for i in range(12_500):
                journal.record("submitted", f"q{i % 64}")
                journal.record("responded", f"q{i % 64}", replica="r0", status=200)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=handler, args=(t,)) for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        verdict = journal.verify()
        assert verdict["exactly_once"] and verdict["submitted"] == 100_000
        assert journal._outstanding == {} and journal._duplicated == set()

    def test_reused_request_id_counts_once_per_submission(self):
        journal = RequestJournal()
        for _ in range(2):
            journal.record("submitted", "same")
            journal.record("responded", "same", replica="r0", status=200)
        verdict = journal.verify()
        assert verdict["exactly_once"] and verdict["submitted"] == 2


class _FakeFleet:
    """In-memory replicas with scriptable per-replica behaviour."""

    def __init__(self, behaviour):
        self.behaviour = dict(behaviour)  # rid -> "ok" | "down" | "busy"
        self.calls: list[str] = []

    def endpoints(self):
        return {rid: f"http://{rid}" for rid in sorted(self.behaviour)}

    def transport(self, url, body, headers, timeout=None):
        rid = url.removeprefix("http://").removesuffix("/predict")
        self.calls.append(rid)
        mode = self.behaviour[rid]
        if mode == "down":
            raise OSError("connection refused")
        if mode == "busy":
            return 503, {"Retry-After": "0.4"}, b'{"error": "queue full"}'
        return 200, {"Content-Type": "application/json"}, \
            json.dumps({"replica": rid}).encode()


def make_router(fleet, **kwargs):
    return GatewayRouter(
        fleet.endpoints, transport=fleet.transport, sleep=lambda s: None,
        vnodes=16, **kwargs,
    )


def owner_key(router, rid):
    return next(k for k in (f"key-{i}" for i in range(500))
                if router.preference(k)[0] == rid)


class TestGatewayRouter:
    def test_routes_to_the_consistent_hash_owner(self):
        fleet = _FakeFleet({"r0": "ok", "r1": "ok", "r2": "ok"})
        router = make_router(fleet)
        key = owner_key(router, "r1")
        status, _, data = router.predict(b"{}", key, "q0")
        assert status == 200 and json.loads(data)["replica"] == "r1"
        assert router.journal.verify()["exactly_once"]

    def test_connection_failure_fails_over_in_the_same_attempt(self):
        fleet = _FakeFleet({"r0": "down", "r1": "ok", "r2": "ok"})
        router = make_router(fleet)
        key = owner_key(router, "r0")
        status, _, data = router.predict(b"{}", key, "q0")
        assert status == 200
        # Served by the owner's ring successor, not an arbitrary node.
        assert json.loads(data)["replica"] == router.preference(key)[1]
        assert fleet.calls[0] == "r0"
        # The dead replica got ejected; later requests skip it entirely.
        assert router.health.state_of("r0") == "open"
        fleet.calls.clear()
        assert router.predict(b"{}", key, "q1")[0] == 200
        assert "r0" not in fleet.calls
        assert router.journal.verify()["exactly_once"]

    def test_503_retry_honors_retry_after_without_ejecting(self):
        fleet = _FakeFleet({"r0": "busy", "r1": "busy"})
        router = make_router(fleet)
        sleeps: list[float] = []
        router._sleep = sleeps.append
        status, headers, _ = router.predict(b"{}", "key-0", "q0")
        assert status == 503 and "Retry-After" in headers
        # Busy != dead: the replicas stay admitted for the next request.
        assert router.health.admitted_ids() == ["r0", "r1"]
        # Every inter-attempt pause honored the server's 0.4s hint
        # (raised from the policy's smaller base backoff, capped at 1.0).
        assert sleeps and all(p >= 0.4 for p in sleeps)
        verdict = router.journal.verify()
        assert verdict["failed"] == 1 and not verdict["lost"]

    def test_total_outage_journals_a_terminal_failure(self):
        fleet = _FakeFleet({"r0": "down", "r1": "down"})
        router = make_router(fleet)
        status, _, data = router.predict(b"{}", "key-1", "q0")
        assert status == 503
        assert "no replica" in json.loads(data)["error"]
        verdict = router.journal.verify()
        assert verdict["failed"] == 1 and not verdict["lost"]

    def test_recovered_replica_is_probed_and_readmitted(self):
        t = [0.0]
        fleet = _FakeFleet({"r0": "down", "r1": "ok"})
        health = FleetHealth(HealthPolicy(readmit_after_s=1.0),
                             clock=lambda: t[0])
        router = make_router(fleet, health=health)
        key = owner_key(router, "r0")
        assert router.predict(b"{}", key, "q0")[0] == 200
        assert health.state_of("r0") == "open"
        fleet.behaviour["r0"] = "ok"
        t[0] = 2.0  # cooldown elapses → half-open probe admits r0 again
        status, _, data = router.predict(b"{}", key, "q1")
        assert status == 200 and json.loads(data)["replica"] == "r0"
        assert health.state_of("r0") == "closed"

    def test_half_open_probe_to_a_dead_replica_fails_over(self):
        t = [0.0]
        fleet = _FakeFleet({"r0": "down", "r1": "ok", "r2": "ok"})
        health = FleetHealth(HealthPolicy(readmit_after_s=1.0),
                             clock=lambda: t[0])
        router = make_router(fleet, health=health)
        key = owner_key(router, "r0")
        assert router.predict(b"{}", key, "q0")[0] == 200
        t[0] = 2.0  # cooldown elapses while r0 is still dead
        fleet.calls.clear()
        status, _, data = router.predict(b"{}", key, "q1")
        # The half-open probe hits r0, fails, and the ring successor
        # answers inside the same attempt.
        assert status == 200
        assert json.loads(data)["replica"] == router.preference(key)[1]
        assert fleet.calls[:2] == ["r0", router.preference(key)[1]]
        assert health.state_of("r0") == "open"
        assert health.snapshot()["r0"]["ejections"] == 2
        assert router.journal.verify()["exactly_once"]

    def test_departed_replica_is_no_longer_admitted(self):
        t = [0.0]
        fleet = _FakeFleet({"r0": "ok", "r1": "ok"})
        health = FleetHealth(HealthPolicy(readmit_after_s=1.0),
                             clock=lambda: t[0])
        router = make_router(fleet, health=health)
        health.observe("r0", HEALTHY)
        health.observe("r1", HEALTHY)
        assert router.status()["admitted"] == ["r0", "r1"]
        # r0 leaves the routing table (killed, restarting).
        del fleet.behaviour["r0"]
        status = router.status()
        assert status["admitted"] == ["r1"]
        assert status["replicas"]["r0"]["state"] == "open"
        assert status["replicas"]["r0"]["score"] == 0.0
        # It comes back: readmitted through a healthy poll after the
        # cooldown, not on return alone.
        fleet.behaviour["r0"] = "ok"
        assert router.status()["admitted"] == ["r1"]
        t[0] = 1.0
        health.observe("r0", HEALTHY)
        assert router.status()["admitted"] == ["r0", "r1"]

    def test_status_reports_lattice_and_journal(self):
        fleet = _FakeFleet({"r0": "ok"})
        router = make_router(fleet)
        router.predict(b"{}", "key-0", "q0")
        status = router.status()
        assert set(status) == {"replicas", "admitted", "endpoints", "journal"}
        assert status["replicas"]["r0"]["state"] == "closed"
        assert status["journal"]["exactly_once"]


class _FakeCoordinator:
    """Deploy-facing coordinator double: specs + restart bookkeeping."""

    def __init__(self, checkpoint, rids=("r0", "r1")):
        self.specs = {rid: ReplicaSpec(checkpoint=str(checkpoint))
                      for rid in rids}
        self.actions: list[tuple[str, str]] = []

    def replica_ids(self):
        return sorted(self.specs)

    def spec_of(self, rid):
        return self.specs[rid]

    def restart_replica(self, rid, spec=None, graceful=True):
        if spec is not None:
            self.specs[rid] = spec
        self.actions.append((rid, self.specs[rid].checkpoint))
        return {"replica_id": rid}

    def urls(self):
        return {rid: f"http://{rid}" for rid in self.specs}


def _manifested(path, payload=b"weights"):
    path.write_bytes(payload)
    write_manifest(path, kind="model")
    return str(path)


class TestRollingDeploy:
    def probes_for(self, coordinator, healthy_checkpoints):
        """Fake transports keyed on which checkpoint a replica runs."""

        def transport(url, body, headers, timeout=None):
            rid = url.removeprefix("http://").removesuffix("/predict")
            good = coordinator.specs[rid].checkpoint in healthy_checkpoints
            velocity = [[0.0]] if good else [[float("inf")]]
            return 200, {}, json.dumps({"velocity": velocity}).encode()

        def get_json(url, timeout=None):
            rid = url.removeprefix("http://").removesuffix("/healthz")
            good = coordinator.specs[rid].checkpoint in healthy_checkpoints
            return {"status": "ok",
                    "trust": {"ewma": 0.95 if good else 0.03}}

        return transport, get_json

    def test_missing_manifest_is_rejected_before_any_restart(self, tmp_path):
        v1 = _manifested(tmp_path / "v1.npz")
        rogue = tmp_path / "rogue.npz"
        rogue.write_bytes(b"unsigned")
        coordinator = _FakeCoordinator(v1)
        report = rolling_deploy(coordinator, rogue, require_manifest=True)
        assert not report["ok"] and report["stage"] == "manifest-gate"
        assert coordinator.actions == []

    def test_tampered_checkpoint_is_rejected(self, tmp_path):
        v1 = _manifested(tmp_path / "v1.npz")
        bad = tmp_path / "bad.npz"
        _manifested(bad)
        bad.write_bytes(b"weights-but-different")
        coordinator = _FakeCoordinator(v1)
        report = rolling_deploy(coordinator, bad, require_manifest=True)
        assert not report["ok"] and report["stage"] == "manifest-gate"
        assert "bad.npz" in report["error"]
        assert coordinator.actions == []

    def test_unhealthy_canary_rolls_back_automatically(self, tmp_path):
        v1 = _manifested(tmp_path / "v1.npz", b"good-weights")
        v2 = _manifested(tmp_path / "v2.npz", b"broken-weights")
        coordinator = _FakeCoordinator(v1)
        transport, get_json = self.probes_for(coordinator, {v1})
        events: list[dict] = []
        report = rolling_deploy(
            coordinator, v2, probes=[{"model": "m", "window": []}],
            require_manifest=True, transport=transport, get_json=get_json,
            on_event=events.append,
        )
        assert not report["ok"] and report["stage"] == "canary"
        assert report["rolled_back"] == ["r0"]
        assert report["verdict"]["trust_ewma"] == 0.03
        # Canary went to v2, then back to v1; r1 was never touched.
        assert coordinator.actions == [("r0", v2), ("r0", v1)]
        assert {spec.checkpoint for spec in coordinator.specs.values()} == {v1}
        assert any(e["event"] == "canary-failed" for e in events)
        assert any(e["event"] == "rollback" for e in events)

    def test_good_deploy_rolls_one_replica_at_a_time(self, tmp_path):
        v1 = _manifested(tmp_path / "v1.npz", b"old")
        v2 = _manifested(tmp_path / "v2.npz", b"new")
        coordinator = _FakeCoordinator(v1, rids=("r0", "r1", "r2"))
        transport, get_json = self.probes_for(coordinator, {v1, v2})
        report = rolling_deploy(
            coordinator, v2, probes=[{"model": "m", "window": []}],
            require_manifest=True, transport=transport, get_json=get_json,
        )
        assert report["ok"] and report["stage"] == "complete"
        assert report["updated"] == ["r0", "r1", "r2"]
        assert coordinator.actions == [("r0", v2), ("r1", v2), ("r2", v2)]
        assert {spec.checkpoint for spec in coordinator.specs.values()} == {v2}

    def test_legacy_checkpoint_allowed_when_gate_is_off(self, tmp_path):
        v1 = _manifested(tmp_path / "v1.npz")
        legacy = tmp_path / "legacy.npz"
        legacy.write_bytes(b"pre-manifest")
        coordinator = _FakeCoordinator(v1)
        transport, get_json = self.probes_for(coordinator, {v1, str(legacy)})
        report = rolling_deploy(coordinator, legacy, require_manifest=False,
                                transport=transport, get_json=get_json)
        assert report["ok"]


class _SpyPopen:
    """``subprocess.Popen`` for ``ReplicaProcess.spawn``: records the
    child's command line and environment and starts nothing."""

    _pids = iter(range(1000, 10**6))

    def __init__(self, cmd, env=None, **kwargs):
        self.cmd, self.env = cmd, env
        self.pid = next(self._pids)


class _FakeReplicaProcess(ReplicaProcess):
    """``ReplicaProcess`` whose real ``spawn`` hands the child's command
    and environment to a ``Popen`` spy; the child announces after
    ``startup`` seconds of real time, ``kill`` and ``terminate`` end it
    at once."""

    startup = 0.0
    fail_ready = False
    _alive = False

    def spawn(self):
        super().spawn()
        self._alive = True
        self.spawned.append(self)

    def wait_ready(self, timeout=30.0):
        time.sleep(self.startup)
        if self.fail_ready:
            raise TimeoutError(f"replica {self.replica_id} did not announce")
        self.address = {"host": "127.0.0.1", "port": self.pid}
        return self.address

    def alive(self):
        return self._alive

    def returncode(self):
        return None if self._alive else -9

    def kill(self):
        self._alive = False
        return -9

    def terminate(self, timeout=10.0):
        self._alive = False
        return 0


@pytest.fixture
def fake_replicas(monkeypatch):
    class Fake(_FakeReplicaProcess):
        spawned: list = []

    for var in BLAS_THREAD_VARS:  # the host's own settings would win
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(replica_module.subprocess, "Popen", _SpyPopen)
    monkeypatch.setattr(coordinator_module, "ReplicaProcess", Fake)
    return Fake


class TestCoordinator:
    """The real Coordinator over fake replicas.  ``poll_interval`` is an
    hour, so the supervision thread never polls; each test drives
    ``_check_one`` itself under an injected clock."""

    RETRY = RetryPolicy(attempts=3, backoff=0.5, factor=2.0, retry_on=())

    def make(self, tmp_path, retry=RETRY, n_replicas=1):
        self.now = [0.0]
        self.sleeps: list[float] = []
        self.events: list[dict] = []
        return Coordinator(
            ReplicaSpec(checkpoint="m.npz"), n_replicas, tmp_path, retry=retry,
            stall_timeout=1.0, poll_interval=3600.0,
            on_event=self.events.append, clock=lambda: self.now[0],
            sleep=self.sleeps.append,
        )

    def kinds(self):
        return [e["event"] for e in self.events]

    def beat(self, tmp_path, text):
        (tmp_path / "r0.heartbeat.json").write_text(text)

    def test_exit_is_restarted(self, fake_replicas, tmp_path):
        with self.make(tmp_path) as coord:
            first = coord.status()["replicas"]["r0"]["pid"]
            coord.kill_replica("r0")
            coord._check_one("r0")
            r0 = coord.status()["replicas"]["r0"]
            assert r0["alive"] and r0["pid"] != first and not r0["failed"]
            assert coord.restarts("r0") == 1
            assert self.kinds()[2:] == ["exit", "spawn", "ready", "restart"]
            assert self.sleeps == self.RETRY.delays()[:1]
            assert coord.urls() == {"r0": f"http://127.0.0.1:{r0['pid']}"}

    def test_exhausted_budget_marks_failed_and_escalates(self, fake_replicas, tmp_path):
        with self.make(tmp_path) as coord:
            for _ in range(self.RETRY.attempts - 1):
                coord.kill_replica("r0")
                coord._check_one("r0")
            assert coord.status()["replicas"]["r0"]["alive"]
            coord.kill_replica("r0")
            coord._check_one("r0")
            r0 = coord.status()["replicas"]["r0"]
            assert r0["failed"] and not r0["alive"]
            assert self.events[-1] == {"event": "escalated", "replica": "r0",
                                       "restarts": self.RETRY.attempts}
            assert self.sleeps == self.RETRY.delays()
            coord._check_one("r0")  # a failed replica stays down
            assert self.kinds().count("spawn") == self.RETRY.attempts
            assert coord.urls() == {}

    def test_frozen_heartbeat_is_killed_and_restarted(self, fake_replicas, tmp_path):
        with self.make(tmp_path) as coord:
            first = coord._replicas["r0"]
            self.beat(tmp_path, '{"seq": 1}')
            coord._check_one("r0")
            self.now[0] = 1.0  # exactly the timeout: not yet a stall
            coord._check_one("r0")
            assert "stall" not in self.kinds() and coord.restarts("r0") == 0
            self.now[0] = 1.5
            coord._check_one("r0")
            assert not first.alive()
            assert coord.restarts("r0") == 1
            assert self.kinds()[2:] == ["stall", "spawn", "ready", "restart"]
            assert self.events[2]["seq"] == 1
            assert coord.status()["replicas"]["r0"]["alive"]

    def test_torn_heartbeat_read_is_not_a_stall(self, fake_replicas, tmp_path):
        with self.make(tmp_path) as coord:
            self.beat(tmp_path, '{"seq": 1}')
            coord._check_one("r0")
            for at, text in [(0.6, '{"se'), (0.9, '{"seq": 2}'), (1.5, "")]:
                self.now[0] = at
                self.beat(tmp_path, text)
                coord._check_one("r0")
            assert "stall" not in self.kinds() and coord.restarts("r0") == 0
            # Nor does a torn read hide a real stall: seq 2 is 1.1 s old.
            self.now[0] = 2.0
            coord._check_one("r0")
            assert "stall" in self.kinds() and coord.restarts("r0") == 1

    def test_failed_respawn_kills_its_child_and_is_retried(self, fake_replicas, tmp_path):
        with self.make(tmp_path) as coord:
            coord.kill_replica("r0")
            fake_replicas.fail_ready = True
            coord._check_one("r0")
            assert self.kinds()[-1] == "restart-failed"
            assert not fake_replicas.spawned[-1].alive()  # no orphaned child
            assert coord.urls() == {}
            fake_replicas.fail_ready = False
            coord._check_one("r0")
            assert self.kinds()[-1] == "restart" and coord.restarts("r0") == 2
            assert coord._replicas["r0"] is fake_replicas.spawned[-1]

    def test_respawn_yields_to_a_deploy_that_replaced_the_replica(
            self, fake_replicas, tmp_path):
        # A crash restart that waited on the spawn lock while a deploy
        # replaced the replica must not start a second child.
        with self.make(tmp_path) as coord:
            crashed = coord._replicas["r0"]
            crashed.kill()
            coord.restart_replica("r0")
            deployed = coord._replicas["r0"]
            spawns = self.kinds().count("spawn")
            coord._respawn("r0", crashed, 0.0)
            assert self.kinds().count("spawn") == spawns
            assert coord._replicas["r0"] is deployed and deployed.alive()

    @pytest.mark.parametrize("path", ["crash", "deploy"])
    def test_routing_reads_do_not_wait_on_a_restart(self, fake_replicas,
                                                    tmp_path, path):
        coord = Coordinator(
            ReplicaSpec(checkpoint="m.npz"), 2, tmp_path,
            retry=RetryPolicy(attempts=3, backoff=0.0, retry_on=()),
            poll_interval=0.01,
        )
        coord.start()
        try:
            fake_replicas.startup = 1.5
            before = coord.urls()
            if path == "crash":
                coord.kill_replica("r0")
            else:
                deploy = threading.Thread(target=coord.restart_replica, args=("r0",))
                deploy.start()
            worst, r0_absent = 0.0, False
            deadline = time.monotonic() + 20.0
            while True:
                t0 = time.perf_counter()
                urls = coord.urls()
                coord.status()
                worst = max(worst, time.perf_counter() - t0)
                if urls.get("r0") not in (None, before["r0"]):
                    break  # the new incarnation is routable
                assert time.monotonic() < deadline, "restart never finished"
                assert urls["r1"] == before["r1"]
                r0_absent = r0_absent or "r0" not in urls
                time.sleep(0.005)
            assert worst < 0.1, f"a routing read waited {worst * 1e3:.0f} ms"
            assert r0_absent  # the reads overlapped the 1.5 s respawn
            if path == "crash":
                assert coord.restarts("r0") == 1
            else:
                deploy.join(timeout=5.0)
                assert not deploy.is_alive() and coord.restarts("r0") == 0
        finally:
            coord.stop(graceful=False)


class TestBlasBudget:
    """Each replica's BLAS pools get ``cores // replicas`` threads (at
    least 1); a value in ``spec.env`` or the coordinator's environment
    wins over the budget."""

    def make(self, monkeypatch, tmp_path, cores, n_replicas, spec=None):
        monkeypatch.setattr(coordinator_module, "available_cores", lambda: cores)
        self.events: list[dict] = []
        return Coordinator(
            spec or ReplicaSpec(checkpoint="m.npz"), n_replicas, tmp_path,
            poll_interval=3600.0, on_event=self.events.append,
        )

    @staticmethod
    def child_env(proc):
        return {var: proc.proc.env[var] for var in BLAS_THREAD_VARS}

    @pytest.mark.parametrize("cores, n_replicas, budget",
                             [(2, 2, 1), (8, 3, 2), (1, 4, 1), (4, 1, 4)])
    def test_each_replica_gets_its_share_of_the_cores(
            self, fake_replicas, monkeypatch, tmp_path, cores, n_replicas, budget):
        with self.make(monkeypatch, tmp_path, cores, n_replicas) as coord:
            assert len(fake_replicas.spawned) == n_replicas
            for proc in fake_replicas.spawned:
                assert self.child_env(proc) == dict.fromkeys(BLAS_THREAD_VARS, str(budget))
            status = coord.status()["replicas"]
            assert [r["blas_threads"] for r in status.values()] == [budget] * n_replicas
            spawns = [e for e in self.events if e["event"] == "spawn"]
            assert [e["blas_threads"] for e in spawns] == [budget] * n_replicas

    def test_an_inherited_setting_survives(self, fake_replicas, monkeypatch, tmp_path):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        with self.make(monkeypatch, tmp_path, 2, 2) as coord:
            for proc in fake_replicas.spawned:
                assert self.child_env(proc) == {"OPENBLAS_NUM_THREADS": "3",
                                                "OMP_NUM_THREADS": "1",
                                                "MKL_NUM_THREADS": "1"}
            assert coord.status()["replicas"]["r0"]["blas_threads"] == 3

    def test_spec_env_beats_inherited_and_budget(self, fake_replicas, monkeypatch,
                                                 tmp_path):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        spec = ReplicaSpec(checkpoint="m.npz", env={"OPENBLAS_NUM_THREADS": "5"})
        with self.make(monkeypatch, tmp_path, 2, 2, spec=spec) as coord:
            for proc in fake_replicas.spawned:
                assert self.child_env(proc)["OPENBLAS_NUM_THREADS"] == "5"
                assert self.child_env(proc)["OMP_NUM_THREADS"] == "1"
            assert coord.status()["replicas"]["r1"]["blas_threads"] == 5

    def test_a_deployed_replacement_keeps_the_budget(self, fake_replicas, monkeypatch,
                                                     tmp_path):
        with self.make(monkeypatch, tmp_path, 8, 3) as coord:
            coord.restart_replica("r1", coord.spec_of("r1").with_checkpoint("v2.npz"))
            new = fake_replicas.spawned[-1]
            assert new.spec.checkpoint == "v2.npz"
            assert self.child_env(new) == dict.fromkeys(BLAS_THREAD_VARS, "2")
            r1 = coord.status()["replicas"]["r1"]
            assert r1["pid"] == new.pid and r1["blas_threads"] == 2
            assert r1["checkpoint"] == "v2.npz"


class TestFleetCliWiring:
    def test_parser_accepts_fleet_actions(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["fleet", "status", "--gateway", "http://x"])
        assert args.command == "fleet" and args.action == "status"
        args = parser.parse_args(["fleet", "deploy", "--checkpoint", "m.npz",
                                  "--require-manifest"])
        assert args.checkpoint == "m.npz" and args.require_manifest

    def test_replica_spec_command_line(self, tmp_path):
        spec = ReplicaSpec(checkpoint="m.npz", model_name="tiny",
                           require_manifest=True, trust="policy.json")
        cmd = spec.command("r0", tmp_path / "a.json", tmp_path / "hb.json")
        joined = " ".join(cmd)
        assert "--model tiny=m.npz" in joined
        assert "--replica-id r0" in joined
        assert "--port 0" in joined
        assert "--require-manifest" in joined
        assert "--trust policy.json" in joined
