"""Observability tests: lifecycle events, status document, stitching.

The guarantees under test:

* every queue transition leaves exactly one append-only event, in
  commit order (``submit < lease < complete`` per job), and
  a revived cell's stale chunk children take their events with them;
* ``service status --json`` reports the fleet-wide lifecycle totals
  (a reported worker death is an ``expire``) and cell-level campaign
  progress, and leaves the queue file byte-identical;
* stitching attributes a sharded cell's wall time to queue-wait / run
  / merge phases with run spans on the owning worker's pid track.
"""

import json

import pytest

from repro.harness.experiment import ExperimentSpec
from repro.service import (
    JobQueue,
    SharedResultStore,
    Worker,
    campaign_progress,
    render_top,
    stitch_trace,
)


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


# ----------------------------------------------------------------------
class TestLifecycleEvents:
    def test_happy_path_order_and_monotonic_stamps(self, tmp_path):
        q = JobQueue(tmp_path / "q.sqlite")
        submit(q, "a")
        (job,) = q.lease("w1")
        assert q.heartbeat("w1", "a", 0, 0) == 1
        assert q.complete("a", "w1") is True
        names = [e["event"] for e in q.events("a")]
        assert names == ["submit", "lease", "complete"]  # a beat is no event
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

    @pytest.mark.parametrize("revive", ["submit", "submit_sharded", "dlq_retry"])
    def test_revival_drops_stale_chunk_events(self, tmp_path, revive):
        q = JobQueue(tmp_path / "q.sqlite")
        chunks = [(0, 2), (2, 4)]
        submit_sharded(q, "c", chunks)
        (job,) = q.lease("w1")
        q.fail(job.key, "w1", "boom", retryable=False)
        assert q.job("c").status == "failed"
        if revive == "submit":
            assert submit(q, "c") is True
        elif revive == "submit_sharded":
            assert submit_sharded(q, "c", chunks) is True
        else:
            assert q.dlq_retry("c") is True
        # only the live children's own submit events may remain
        live = sorted(child.key for child in q.children("c"))
        chunk_events = [
            (e["key"], e["event"]) for e in q.events() if e["key"].startswith("c:")
        ]
        assert chunk_events == [(key, "submit") for key in live]

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
        q.heartbeat("w1", "aaaabbbbcccc", 0, 10)
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
    def status_json(self, tmp_path, capsys):
        from repro.cli import main

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
        return json.loads(capsys.readouterr().out)

    def test_status_json(self, tmp_path, capsys):
        q = JobQueue(tmp_path / "q.sqlite")
        submit(q, "a")
        q.close()
        doc = self.status_json(tmp_path, capsys)
        assert doc["jobs"]["queued"] == 1 and doc["workers"] == []
        assert doc["events"] == {"submit": 1}

    def test_status_json_counts_worker_deaths(self, tmp_path, capsys):
        q = JobQueue(tmp_path / "q.sqlite")
        submit(q, "a")
        q.lease("w1")
        q.report_worker_death("w1")
        q.close()
        # derived from the shared events table, not in-process counters
        assert self.status_json(tmp_path, capsys)["events"]["expire"] == 1

    def test_status_json_progress_counts_cells(self, tmp_path, capsys):
        q = JobQueue(tmp_path / "q.sqlite")
        submit_sharded(q, "a", [(0, 3), (3, 6)])
        q.close()
        progress = self.status_json(tmp_path, capsys)["progress"]
        assert progress["cells_total"] == 1 and progress["cells_pending"] == 1

    def test_status_json_never_writes(self, tmp_path, capsys):
        """Reading the status document leaves the database byte-identical."""
        q = JobQueue(tmp_path / "q.sqlite")
        submit(q, "a")
        q.lease("w1")
        q.complete("a", "w1")
        # checkpoint the WAL so file bytes are the whole state
        q._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        before = (tmp_path / "q.sqlite").read_bytes()
        self.status_json(tmp_path, capsys)
        q._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        assert (tmp_path / "q.sqlite").read_bytes() == before

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
