"""Observability-plane tests: lifecycle events, HTTP monitor, stitching.

The guarantees under test:

* every queue transition leaves exactly one append-only event, in
  commit order (``submit < lease <= renew* < complete`` per job);
* the HTTP monitor is read-only, answers while a campaign is being
  drained under concurrent scrapes, and its ``/healthz`` flips red
  exactly when the last live worker goes away;
* stitching attributes a sharded cell's wall time to queue-wait / run
  / merge phases with run spans on the owning worker's pid track.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.harness.experiment import ExperimentSpec
from repro.service import (
    JobQueue,
    MonitorServer,
    SharedResultStore,
    Worker,
    campaign_progress,
    render_top,
    stitch_trace,
)
from repro.service.monitor import health, metrics_text


def spec(**kw):
    kw.setdefault("platform", "intel-9700kf")
    kw.setdefault("workload", "nbody")
    kw.setdefault("reps", 3)
    kw.setdefault("seed", 42)
    return ExperimentSpec(**kw)


def submit(queue, key, **kw):
    kw.setdefault("spec", {"k": key})
    kw.setdefault("noise", None)
    kw.setdefault("label", key)
    return queue.submit(key, **kw)


def submit_sharded(queue, key, chunks, **kw):
    kw.setdefault("spec", {"k": key})
    kw.setdefault("noise", None)
    kw.setdefault("label", key)
    return queue.submit_sharded(key, chunks=chunks, **kw)


def get(url, timeout=5.0):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, resp.read().decode()


# ----------------------------------------------------------------------
class TestLifecycleEvents:
    def test_happy_path_order_and_monotonic_stamps(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        submit(q, "a")
        (job,) = q.lease("w1")
        assert q.renew("a", "w1") is True
        assert q.renew("a", "w1") is True
        assert q.complete("a", "w1") is True
        names = [e["event"] for e in q.events("a")]
        assert names == ["submit", "lease", "renew", "renew", "complete"]
        monos = [e["mono"] for e in q.events("a")]
        assert monos == sorted(monos)
        seqs = [e["seq"] for e in q.events("a")]
        assert seqs == sorted(seqs)
        lease_events = [e for e in q.events("a") if e["event"] == "lease"]
        assert lease_events[0]["worker"] == "w1"
        assert lease_events[0]["detail"] == "attempt 1"

    def test_retryable_failure_records_retry_lineage(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        submit(q, "a", max_attempts=2)
        q.lease("w1")
        q.fail("a", "w1", "transient glitch")
        q.lease("w2")
        q.complete("a", "w2")
        events = q.events("a")
        fails = [e for e in events if e["event"] == "fail"]
        assert len(fails) == 1
        assert fails[0]["detail"].startswith("retryable: transient glitch")
        # second lease is attempt 2, recorded after the failure
        leases = [e for e in events if e["event"] == "lease"]
        assert leases[1]["detail"] == "attempt 2"
        assert fails[0]["seq"] < leases[1]["seq"]

    def test_terminal_failure_and_resubmit(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        submit(q, "a", max_attempts=1)
        q.lease("w1")
        q.fail("a", "w1", "boom", retryable=False)
        events = q.events("a")
        assert [e["event"] for e in events] == ["submit", "lease", "fail"]
        assert events[-1]["detail"].startswith("terminal: boom")
        submit(q, "a")  # revival is a fresh submit event
        assert [e["event"] for e in q.events("a")][-1] == "submit"

    def test_expiry_and_quarantine_paths(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        submit(q, "a")
        q.lease("w1")
        q.report_worker_death("w1")
        q.lease("w2")
        q.report_worker_death("w2")
        names = [e["event"] for e in q.events("a")]
        # two observed deaths -> two expire events, then poison quarantine
        assert names.count("expire") == 2
        assert names[-1] == "quarantine"
        assert q.event_counts()["expire"] == 2
        # dlq retry emits a retry event and re-queues
        assert q.dlq_retry("a") is True
        assert [e["event"] for e in q.events("a")][-1] == "retry"

    def test_sharded_cell_merge_event(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        submit_sharded(q, "a", [(0, 3), (3, 6)])
        for _ in range(2):
            (job,) = q.lease("w1")
            last, parent = q.complete_chunk(job.key, "w1")
        assert last and parent == "a"
        assert q.finalize_parent("a") is True
        parent_events = [e["event"] for e in q.events("a")]
        assert parent_events == ["submit", "merge"]
        chunk_events = q.events("a:0-3")
        assert [e["event"] for e in chunk_events] == ["submit", "lease", "complete"]
        # chunk keys carry the rep span, parent records the fan-out
        assert "chunk [0:3)" in chunk_events[0]["detail"]
        assert "2 chunk" in q.events("a")[0]["detail"]

    def test_prune_drops_the_job_events_too(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        submit_sharded(q, "a", [(0, 2), (2, 4)])
        for _ in range(2):
            (job,) = q.lease("w1")
            q.complete_chunk(job.key, "w1")
        q.finalize_parent("a")
        assert q.events("a")
        assert q.prune(older_than_s=0.0) >= 1
        assert q.events("a") == []
        assert q.events("a:0-2") == []

    def test_events_survive_reopen(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        submit(q, "a")
        q.close()
        q2 = JobQueue(tmp_path / "q.sqlite")
        assert [e["event"] for e in q2.events("a")] == ["submit"]


# ----------------------------------------------------------------------
class TestCampaignProgress:
    def test_counts_cells_not_chunks(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        submit_sharded(q, "a", [(0, 3), (3, 6)])
        submit(q, "b")
        progress = campaign_progress(q)
        assert progress["cells_total"] == 2
        assert progress["cells_done"] == 0
        for _ in range(2):
            (job,) = q.lease("w1")
            q.complete_chunk(job.key, "w1")
        q.finalize_parent("a")
        progress = campaign_progress(q)
        assert progress["cells_done"] == 1 and progress["cells_pending"] == 1
        assert progress["rate_per_s"] > 0
        assert progress["eta_s"] is not None


# ----------------------------------------------------------------------
class TestMonitorServer:
    def test_endpoints_and_healthz_flip(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        submit(q, "a")
        with MonitorServer(q) as server:
            # no live worker yet: degraded
            with pytest.raises(urllib.error.HTTPError) as exc:
                get(f"{server.url}/healthz")
            assert exc.value.code == 503
            q.register_worker("w1", pid=4242)
            status, _body = get(f"{server.url}/healthz")
            assert status == 200

            status, text = get(f"{server.url}/metrics")
            assert status == 200
            assert 'repro_service_jobs{status="queued"} 1' in text
            assert "# TYPE repro_service_jobs gauge" in text
            assert "repro_service_worker_deaths_total 0" in text
            assert 'repro_service_workers{state="idle"} 1' in text
            assert 'repro_service_lifecycle_events_total{event="submit"} 1' in text

            status, text = get(f"{server.url}/status")
            doc = json.loads(text)
            assert doc["jobs"]["queued"] == 1
            assert doc["progress"]["cells_total"] == 1
            assert doc["workers"][0]["id"] == "w1"

            status, text = get(f"{server.url}/jobs/a")
            detail = json.loads(text)
            assert detail["key"] == "a" and detail["status"] == "queued"
            assert [e["event"] for e in detail["events"]] == ["submit"]

            with pytest.raises(urllib.error.HTTPError) as exc:
                get(f"{server.url}/jobs/nope")
            assert exc.value.code == 404
            with pytest.raises(urllib.error.HTTPError) as exc:
                get(f"{server.url}/bogus")
            assert exc.value.code == 404

            # the fleet drains: the last worker deregisters, health flips
            q.deregister_worker("w1")
            with pytest.raises(urllib.error.HTTPError) as exc:
                get(f"{server.url}/healthz")
            assert exc.value.code == 503

    def test_worker_deaths_total_is_fleet_wide(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        submit(q, "a")
        q.lease("w1")
        q.report_worker_death("w1")
        # derived from the shared events table, not in-process counters
        text = metrics_text(q)
        assert "repro_service_worker_deaths_total 1" in text

    def test_health_helper_reports_reason(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        healthy, payload = health(q)
        assert healthy is False and "worker" in payload["reason"]
        q.register_worker("w1")
        healthy, payload = health(q)
        assert healthy is True and payload["workers"] == ["w1"]

    def test_concurrent_scrapes_during_sharded_campaign(self, tmp_path):
        """Scrapes from several threads never error or block a drain."""
        q = JobQueue(tmp_path / "q.sqlite")
        store = SharedResultStore(tmp_path / "store")
        from repro.harness.chunkrunner import shard_ranges

        s = spec(reps=6)
        chunks = [(r.start, r.stop) for r in shard_ranges(6, 2)]
        submit_sharded(q, "shardcell", chunks, spec=s.to_dict(), label=s.label())
        submit(q, "cell2", spec=spec(reps=2, seed=7).to_dict())
        worker = Worker(q, store, worker_id="drainer", poll_s=0.01)
        failures: list = []
        stop = threading.Event()

        def scrape():
            while not stop.is_set():
                try:
                    status, text = get(f"{server.url}/metrics", timeout=5.0)
                    assert status == 200 and "repro_service_jobs" in text
                    get(f"{server.url}/status", timeout=5.0)
                except urllib.error.HTTPError as exc:
                    if exc.code != 503:  # healthz-style degraded is fine
                        failures.append(exc)
                except Exception as exc:  # pragma: no cover - test forensics
                    failures.append(exc)

        with MonitorServer(q, store) as server:
            scrapers = [threading.Thread(target=scrape) for _ in range(3)]
            for t in scrapers:
                t.start()
            try:
                done = worker.run(drain=True)
            finally:
                stop.set()
                for t in scrapers:
                    t.join(timeout=10.0)
        assert not failures
        assert done >= 1
        assert q.job("shardcell").status == "done"
        assert q.job("cell2").status == "done"

    def test_monitor_never_writes(self, tmp_path):
        """A full scrape pass leaves the database byte-identical."""
        q = JobQueue(tmp_path / "q.sqlite")
        submit(q, "a")
        q.lease("w1")
        q.complete("a", "w1")
        # checkpoint the WAL so file bytes are the whole state
        q._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        before = (tmp_path / "q.sqlite").read_bytes()
        with MonitorServer(q) as server:
            get(f"{server.url}/metrics")
            get(f"{server.url}/status")
            get(f"{server.url}/jobs/a")
        q._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        assert (tmp_path / "q.sqlite").read_bytes() == before


# ----------------------------------------------------------------------
class TestStitchTrace:
    def drain_sharded(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        store = SharedResultStore(tmp_path / "store")
        from repro.harness.chunkrunner import shard_ranges

        s = spec(reps=6)
        chunks = [(r.start, r.stop) for r in shard_ranges(6, 3)]
        submit_sharded(q, "cell", chunks, spec=s.to_dict(), label=s.label())
        assert Worker(q, store, worker_id="wrk", poll_s=0.01).run(drain=True) >= 1
        assert q.job("cell").status == "done"
        return q

    def test_sharded_cell_has_wait_run_merge_phases(self, tmp_path):
        q = self.drain_sharded(tmp_path)
        trace = stitch_trace(q)
        phases = [
            e for e in trace["traceEvents"] if (e.get("args") or {}).get("phase")
        ]
        names = {e["name"] for e in phases}
        assert {"queue-wait", "run", "merge"} <= names
        # run spans are attributed to the worker's pid, waits to pid 0
        worker_pid = q.workers()[0].pid
        for e in phases:
            if e["name"] == "run":
                assert e["pid"] == worker_pid
                assert e["args"]["worker"] == "wrk"
            else:
                assert e["pid"] == 0
        # the queue track is named for Perfetto
        assert any(
            e.get("ph") == "M"
            and e.get("pid") == 0
            and e["args"].get("name") == "campaign queue"
            for e in trace["traceEvents"]
        )

    def test_retry_produces_retry_wait_phase(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        submit(q, "a", max_attempts=2)
        q.lease("w1")
        q.fail("a", "w1", "transient")
        q.lease("w1")
        q.complete("a", "w1")
        names = [
            e["name"]
            for e in stitch_trace(q)["traceEvents"]
            if (e.get("args") or {}).get("phase")
        ]
        assert names.count("run") == 2
        assert "retry-wait" in names and "queue-wait" in names

    def test_keys_filter_includes_chunks(self, tmp_path):
        q = self.drain_sharded(tmp_path)
        submit(q, "other")
        trace = stitch_trace(q, keys=["cell"])
        keys = {
            e["args"]["key"]
            for e in trace["traceEvents"]
            if (e.get("args") or {}).get("phase")
        }
        assert all(k.split(":", 1)[0] == "cell" for k in keys)
        assert len(keys) > 1  # the chunk sub-jobs ride along

    def test_joins_worker_telemetry_spans(self, tmp_path):
        q = self.drain_sharded(tmp_path)
        # a minimal per-worker telemetry log on the same mono clock
        log = tmp_path / "tel" / "events.jsonl"
        log.parent.mkdir()
        mono = q.events()[0]["mono"]
        log.write_text(
            json.dumps(
                {
                    "type": "span",
                    "name": "rep",
                    "ts": mono,
                    "dur": 0.001,
                    "pid": q.workers()[0].pid,
                    "tid": 1,
                    "id": "s1",
                    "args": {},
                }
            )
            + "\n"
        )
        trace = stitch_trace(q, telemetry_paths=[log.parent])
        assert any(e["name"] == "rep" for e in trace["traceEvents"])

    def test_missing_telemetry_paths_are_tolerated(self, tmp_path):
        q = self.drain_sharded(tmp_path)
        trace = stitch_trace(q, telemetry_paths=[tmp_path / "no-such-dir"])
        assert trace["traceEvents"]


# ----------------------------------------------------------------------
class TestRenderTop:
    def test_renders_workers_queue_and_progress(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        submit(q, "aaaabbbbcccc")
        q.register_worker("w1", pid=101)
        q.lease("w1")
        q.worker_heartbeat(
            "w1", state="busy", current_key="aaaabbbbcccc", reps_done=10
        )
        text = render_top(q)
        assert "service top" in text
        assert "w1" in text and "busy" in text
        assert "aaaabbbbcccc" in text
        assert "1 leased" in text
        assert "campaign:" in text

    def test_renders_dlq_line(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        submit(q, "poison")
        q.lease("w1")
        q.report_worker_death("w1")
        q.lease("w2")
        q.report_worker_death("w2")
        assert "dlq: 1 quarantined" in render_top(q)


# ----------------------------------------------------------------------
class TestMonitorCli:
    def test_status_json(self, tmp_path, capsys):
        from repro.cli import main

        q = JobQueue(tmp_path / "q.sqlite")
        submit(q, "a")
        q.close()
        assert (
            main(
                [
                    "service", "status", "--json",
                    "--queue", str(tmp_path / "q.sqlite"),
                    "--store", str(tmp_path / "store"),
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["jobs"]["queued"] == 1 and doc["workers"] == []

    def test_top_once(self, tmp_path, capsys):
        from repro.cli import main

        q = JobQueue(tmp_path / "q.sqlite")
        submit(q, "a")
        q.close()
        assert (
            main(
                [
                    "service", "top", "--once",
                    "--queue", str(tmp_path / "q.sqlite"),
                    "--store", str(tmp_path / "store"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "1 queued" in out

    def test_telemetry_stitch(self, tmp_path, capsys):
        from repro.cli import main

        q = JobQueue(tmp_path / "q.sqlite")
        submit(q, "a")
        q.lease("w1")
        q.complete("a", "w1")
        q.close()
        out = tmp_path / "stitched.json"
        assert (
            main(
                [
                    "telemetry", "stitch",
                    "--queue", str(tmp_path / "q.sqlite"),
                    "--out", str(out),
                ]
            )
            == 0
        )
        trace = json.loads(out.read_text())
        assert any(e["name"] == "queue-wait" for e in trace["traceEvents"])
        assert "stitched" in capsys.readouterr().out

    def test_telemetry_summarize_still_single_path(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["telemetry", "summarize"])  # no path
        with pytest.raises(SystemExit):
            main(["telemetry", "stitch", "--queue", str(tmp_path / "absent.sqlite")])
