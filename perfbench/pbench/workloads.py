"""The three workloads and the metrics each reports.

Every workload prints every metric: the end-to-end ones with --trace 0 and
the per-layer ones with --trace 1. An end-to-end metric has one meaning per
workload (see perfbench/README.md); a per-layer metric of a layer the
workload never calls reads 0.
"""

import json
import os
import resource
import subprocess
import time

from . import spans, stats
from .serve import ServeClient, link_or_copy, strip_id

END_TO_END = [
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("step_p10_ms", "ms"),
    ("job_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("abr.choose_track.self_us", "us"),
    ("abr.predict.us", "us"),
    ("abr.stream.self_s", "s"),
    ("abr.decisions", "count"),
    ("abr.sessions", "count"),
    ("ml.train.s", "s"),
    ("ml.training_traces", "count"),
    ("traces.generate.s", "s"),
    ("metro.c4.run_campaign.s", "s"),
    ("metro.c4.ue_steps", "count"),
    ("metro.c4.handoffs", "count"),
    ("metro.c4.attach_ops", "count"),
    ("radio.c4.handoff_step.ns", "ns"),
    ("metro.c48.run_campaign.s", "s"),
    ("metro.c48.ue_steps", "count"),
    ("metro.c48.handoffs", "count"),
    ("metro.c48.attach_ops", "count"),
    ("radio.c48.handoff_step.ns", "ns"),
    ("engine.execute_step.ms", "ms"),
    ("engine.checkpoint_state.ms", "ms"),
    ("core.json_dump.ms", "ms"),
    ("engine.save_snapshot.ms", "ms"),
    ("engine.load_snapshot.ms", "ms"),
    ("engine.restore_state.ms", "ms"),
    ("engine.snapshot_bytes", "bytes"),
    ("serve.overhead.ms", "ms"),
    ("serve.frames", "count"),
    ("serve.ckpts", "count"),
    ("serve.resume.s", "s"),
    ("serve.city_job.s", "s"),
    ("trace.overhead_pct", "%"),
]

# Tail rank of the step latencies printed in the summary; each run must
# leave at least stats.MIN_BEYOND step positions beyond it. At horizon 12
# every full-horizon decision enumerates the same plan tree, so
# abr_mpc_1s's slowest percent is host noise, not work: it reports p90.
TAIL_RANK = {"abr_mpc_1s": 90.0, "abr_gbdt_4s": 99.0, "serve_metro": 90.0}

# serve_metro's jobs. The soak is drive_soak's default corridor (4 cells x
# 25 UEs, 30 s intervals); the city job is metro_load at 48 cells.
SOAK_INTERVALS = 120
SOAK_MID = 60
CITY_CELLS = 48
CITY_UES = 50
# metro_load runs 5 background-load points at CITY_UES UEs per cell, then
# 4 sharer points at these UEs per cell, each over 60 s in 0.5 s steps.
CITY_SHARERS = (1, 10, 50, 100)
CITY_STEPS = 120
CITY_UE_STEPS = CITY_CELLS * CITY_STEPS * (5 * CITY_UES + sum(CITY_SHARERS))
# Service spawns timed for setup_s: at start, and again before every cycle.
SERVICE_SPAWNS = 3
# Each cycle runs the soak three times and the city job once; with at least
# two cycles every soak step has six repeats and the city job two, so the
# best-of-repeats times exist even when the shared host runs slow for most
# of a run.
MIN_CYCLES = 2
SOAKS_PER_CYCLE = 3
JOB_TIMEOUT_S = 60.0


class BenchError(Exception):
    """The workload could not run at all (no metrics to report)."""


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def passed(self, count):
        """Counts `count` operations that completed (sessions run)."""
        self.attempted += count

    def absorb(self, report):
        self.attempted += int(report["attempted"])
        self.failed += int(report["failed"])
        self.failures.extend(report["failures"])


class Context:
    def __init__(self, workload, seed, seconds, trace, native, serve, workdir, trace_dir):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.native = native
        self.serve = serve
        self.workdir = workdir
        self.trace_dir = trace_dir
        self.threads = max(1, min(4, len(os.sched_getaffinity(0))))
        self.checks = Checks()
        self.counters = {}
        self.notes = []
        self.layer_table = None

    @property
    def spans_path(self):
        return os.path.join(self.trace_dir, "%s-seed%d.json" % (self.workload, self.seed))


def another_pass_fits(elapsed_s, passes_done, seconds):
    """Whole passes only: go on while one more of the mean length so far
    still ends within the budget."""
    return elapsed_s + elapsed_s / passes_done <= seconds


def run_native(ctx, workload, extra=()):
    argv = [ctx.native, workload, "--seed", str(ctx.seed), "--seconds",
            str(int(ctx.seconds)), "--trace", "1" if ctx.trace else "0",
            "--workdir", ctx.workdir, "--threads", str(ctx.threads)]
    if ctx.trace:
        argv += ["--spans", os.path.join(ctx.workdir, "native-spans.json")]
    argv += list(extra)
    try:
        done = subprocess.run(argv, capture_output=True, text=True, timeout=170)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("%s timed out" % workload) from exc
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchError("%s exited %d: %s" % (workload, done.returncode, done.stderr.strip()))
    try:
        report = json.loads(done.stdout.strip().splitlines()[-1])
    except ValueError as exc:
        raise BenchError("%s printed no report" % workload) from exc
    ctx.checks.absorb(report)
    return report


def zero_layers():
    return {name: 0.0 for name, _ in PER_LAYER}


def check_tail(ctx, positions):
    """The tail rank must leave MIN_BEYOND step positions beyond it."""
    rank = TAIL_RANK[ctx.workload]
    ctx.checks.record(stats.tail_rank_ok(positions, rank),
                      "fewer than %d samples beyond p%g" % (stats.MIN_BEYOND, rank))
    ctx.notes.append("step tail: %d positions, p%g leaves %d beyond"
                     % (positions, rank, stats.beyond(positions, rank)))
    return rank


# --- abr_mpc_1s / abr_gbdt_4s ----------------------------------------------------


def run_abr(ctx):
    report = run_native(ctx, ctx.workload)
    counters = dict(report["counters"])
    if "training_traces" in report:
        counters["training_traces"] = int(report["training_traces"])
    ctx.counters = {k: int(v) for k, v in counters.items()}
    ctx.checks.passed(len(report["session_s"]))
    ctx.notes.append("%d passes, %d sessions, %d decisions"
                     % (report["passes"], len(report["session_s"]), len(report["decision_ms"])))
    if ctx.trace:
        return abr_layers(ctx, report)
    decisions = report["decision_ms"]
    sessions = report["session_s"]
    passes = report["passes"]
    tail = check_tail(ctx, len(decisions) // passes)
    best = stats.best_per_position(decisions, passes)
    job = report["train_s"] if ctx.workload == "abr_gbdt_4s" else sessions
    ctx.notes.append("decisions: pooled p50 %.4g ms, p%g %.4g ms; best-of-%d p50 %.4g ms, "
                     "p%g %.4g ms" % (
                         stats.percentile(decisions, 50), tail, stats.percentile(decisions, tail),
                         passes, stats.percentile(best, 50), tail, stats.percentile(best, tail)))
    return {
        "setup_s": stats.median(report["setup_s"]),
        "work_per_s": 1.0 / stats.low(sessions),
        "step_p10_ms": stats.low(best),
        "job_s": min(job),
        "peak_rss_mb": report["peak_rss_kb"] / 1024.0,
    }


def abr_layers(ctx, report):
    events = spans.load(os.path.join(ctx.workdir, "native-spans.json"))
    spans.write(ctx.spans_path, events)
    ctx.layer_table = spans.layer_table(events)
    overhead = report["overhead"]
    layers = zero_layers()
    layers.update({
        "abr.choose_track.self_us": spans.mean_us(events, "abr.choose_track", use_self=True),
        "abr.predict.us": spans.mean_us(events, "abr.predict"),
        "abr.stream.self_s": spans.mean_us(events, "abr.stream", use_self=True) * 1e-6,
        "abr.decisions": ctx.counters["decisions"],
        "abr.sessions": ctx.counters["sessions"],
        "ml.train.s": spans.mean_us(events, "ml.train") * 1e-6,
        "ml.training_traces": ctx.counters.get("training_traces", 0),
        "traces.generate.s": spans.mean_us(events, "traces.generate") * 1e-6,
        "trace.overhead_pct": 100.0 * (overhead["traced_s"] / overhead["untraced_s"] - 1.0),
    })
    return layers


# --- serve_metro -------------------------------------------------------------------


def spawn_service(ctx, setup_s, keep):
    """Spawns the service SERVICE_SPAWNS times, appending spawn-to-hello
    times to `setup_s`; returns the last one still running when `keep`."""
    argv = [ctx.serve, "--threads", str(ctx.threads)]
    for i in range(SERVICE_SPAWNS):
        start = time.perf_counter()
        client = ServeClient(argv)
        hello = client.wait_for("hello", 30.0)
        setup_s.append(time.perf_counter() - start)
        ctx.checks.record(hello is not None, "service sent no hello")
        if hello is None:
            client.close()
            raise BenchError("wild5g_serve did not start")
        if keep and i + 1 == SERVICE_SPAWNS:
            return client
        ctx.checks.record(client.close(), "service did not drain and exit cleanly")
    return None


class Cycle:
    """One round of serve_metro jobs and its deterministic counters."""

    def __init__(self, soaks, resume, city, counters):
        self.soaks = soaks
        self.resume = resume
        self.city = city
        self.counters = counters

    @property
    def soak(self):
        return self.soaks[0]

    @property
    def jobs(self):
        return [job for job in self.soaks + [self.resume, self.city] if job is not None]

    @property
    def ok(self):
        return all(job.ok for job in self.jobs)


def serve_cycle(ctx, client, index):
    """soak (checkpoint every step) -> [first cycle: resume from the soak's
    mid-run snapshot] -> the soak twice more -> city-scale metro_load."""
    soak_ckpt = os.path.join(ctx.workdir, "soak.ckpt")
    mid_ckpt = os.path.join(ctx.workdir, "soak-mid.ckpt")

    def keep_mid(body):
        if index == 0 and body.get("next_step") == SOAK_MID:
            link_or_copy(soak_ckpt, mid_ckpt)

    seed = str(ctx.seed)

    def run_soak(number):
        job = client.run_job({"op": "submit", "id": "soak%d.%d" % (index, number),
                              "campaign": "drive_soak", "seed": seed,
                              "params": {"intervals": SOAK_INTERVALS},
                              "checkpoint_path": soak_ckpt}, JOB_TIMEOUT_S,
                             keep_mid if number == 0 else None)
        ctx.checks.record(job.ok, "soak job: %s" % job.problem)
        return job

    soak = run_soak(0)
    resume = None
    if index == 0:
        if soak.ok and os.path.exists(mid_ckpt):
            resume = client.run_job({"op": "resume", "id": "resume0", "snapshot_path": mid_ckpt,
                                     "checkpoint_path": os.path.join(ctx.workdir, "resume.ckpt")},
                                    JOB_TIMEOUT_S)
            ctx.checks.record(resume.ok, "resume job: %s" % resume.problem)
            if resume.ok:
                check_resume(ctx, soak, resume)
        else:
            ctx.checks.record(False, "resume job: no mid-run snapshot")
    soaks = [soak] + [run_soak(number) for number in range(1, SOAKS_PER_CYCLE)]
    ctx.checks.record(all(strip_id(a, job.job_id) == strip_id(b, soak.job_id)
                          for job in soaks[1:] for a, b in zip(job.stream, soak.stream))
                      and all(len(job.stream) == len(soak.stream) for job in soaks),
                      "repeated soak jobs streamed different frames")
    city = client.run_job({"op": "submit", "id": "city%d" % index, "campaign": "metro_load",
                           "seed": seed, "params": {"cells": CITY_CELLS, "ues": CITY_UES}},
                          JOB_TIMEOUT_S)
    ctx.checks.record(city.ok, "city job: %s" % city.problem)
    counters = {
        "soak_frames": len(soak.frames),
        "soak_ckpts": len(soak.ckpt_gaps),
        "soak_snapshot_bytes": os.path.getsize(soak_ckpt) if os.path.exists(soak_ckpt) else 0,
        "city_frames": len(city.frames),
        "city_handoffs": sum(int(json.loads(line)["payload"].get("handoffs", 0))
                             for line in city.frames),
        "city_attach_ops": int(((city.result or {}).get("metrics") or {}).get("attach_ops", 0)),
        "city_ue_steps": CITY_UE_STEPS,
    }
    return Cycle(soaks, resume, city, counters)


def check_resume(ctx, soak, resume):
    """The resumed job's frame/ckpt lines and result document must equal the
    uninterrupted job's from the resume point on, byte for byte (job ids
    aside)."""
    start = resume.start_step
    tail = [strip_id(line, soak.job_id) for line in soak.stream[2 * start:]]
    mine = [strip_id(line, resume.job_id) for line in resume.stream]
    same = (start >= SOAK_MID and len(soak.stream) == 2 * SOAK_INTERVALS and tail == mine
            and strip_id(soak.result_line, soak.job_id)
            == strip_id(resume.result_line, resume.job_id))
    ctx.checks.record(same, "resumed frames or document differ from the uninterrupted tail")
    if start != SOAK_MID:
        # The mid snapshot is linked when its ckpt line arrives; a later one
        # means the client read that line after the next snapshot landed.
        ctx.notes.append("resumed from step %d, not %d" % (start, SOAK_MID))


def run_serve(ctx):
    setup_s = []
    client = spawn_service(ctx, setup_s, keep=True)
    cycles = []
    with client:
        start = time.perf_counter()
        while True:
            if cycles:
                spawn_service(ctx, setup_s, keep=False)
            cycles.append(serve_cycle(ctx, client, len(cycles)))
            if not cycles[-1].ok:
                break
            if len(cycles) >= MIN_CYCLES and not another_pass_fits(
                    time.perf_counter() - start, len(cycles), ctx.seconds):
                break
        service_rss_kb = client.peak_rss_kb()
        ctx.checks.record(client.close(), "service did not drain and exit cleanly")
    for line in client.events.malformed:
        ctx.checks.record(False, "malformed event line: %.80s" % line)
    if not all(cycle.ok for cycle in cycles):
        raise BenchError("serve_metro: a job failed: %s" % "; ".join(ctx.checks.failures))
    ctx.checks.record(all(c.counters == cycles[0].counters for c in cycles),
                      "work counters differ between cycles")
    ctx.counters = cycles[0].counters
    ctx.notes.append("%d cycles on %d service threads" % (len(cycles), ctx.threads))
    if ctx.trace:
        return serve_layers(ctx, cycles)
    steps_ms = [[t * 1e3 for t in job.step_seconds()] for c in cycles for job in c.soaks]
    tail = check_tail(ctx, SOAK_INTERVALS)
    best = [min(column) for column in zip(*steps_ms)]
    city_best_s = sum(min(column) for column in zip(*[c.city.step_seconds() for c in cycles]))
    pooled = [t for job in steps_ms for t in job]
    gaps = [(b - a) * 1e3 for c in cycles for job in c.soaks for a, b in job.ckpt_gaps]
    ctx.notes.append("soak steps: pooled p50 %.4g ms, p%g %.4g ms; best-of-%d p50 %.4g ms, "
                     "p%g %.4g ms; frame-to-ckpt gap p50 %.4g ms, p%g %.4g ms" % (
                         stats.percentile(pooled, 50), tail, stats.percentile(pooled, tail),
                         len(steps_ms), stats.percentile(best, 50), tail,
                         stats.percentile(best, tail), stats.percentile(gaps, 50), tail,
                         stats.percentile(gaps, tail)))
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": stats.median(setup_s),
        "work_per_s": CITY_UE_STEPS / city_best_s,
        "step_p10_ms": stats.low(best),
        "job_s": sum(best) * 1e-3,
        "peak_rss_mb": (self_kb + service_rss_kb) / 1024.0,
    }


def client_spans(cycles):
    """The wire as spans: each job, and inside it each frame -> ckpt gap."""
    recorder = spans.Recorder(cycles[0].soak.submitted)
    for index, cycle in enumerate(cycles):
        for job in cycle.jobs:
            span = recorder.open("serve.job", index, job.submitted)
            for frame_at, ckpt_at in job.ckpt_gaps:
                recorder.add("serve.ckpt_gap", frame_at, ckpt_at, index)
            recorder.close(span, job.done)
    return recorder.events


def serve_layers(ctx, cycles):
    report = run_native(ctx, "serve_replay", [
        "--soak-intervals", str(SOAK_INTERVALS), "--soak-mid", str(SOAK_MID),
        "--city-cells", str(CITY_CELLS), "--city-ues", str(CITY_UES)])
    events = spans.load(os.path.join(ctx.workdir, "native-spans.json"))
    merged = spans.merge(events, client_spans(cycles), pid=2)
    spans.write(ctx.spans_path, merged)
    ctx.layer_table = spans.layer_table(merged)

    first = cycles[0]
    plain = report["soak_plain"]
    traced = report["soak_traced"]
    # Fastest wire job of each shape against its one in-process replay.
    wire_s = (min(job.seconds for c in cycles for job in c.soaks)
              + min(c.city.seconds for c in cycles))
    replay_s = plain["run_s"] + report["city_plain"]["run_s"]
    layers = zero_layers()
    for layer in report["metro"]:
        tag = "c%d" % layer["cells"]
        layers["metro.%s.run_campaign.s" % tag] = layer["run_campaign_s"]
        layers["metro.%s.ue_steps" % tag] = layer["ue_steps"]
        layers["metro.%s.handoffs" % tag] = layer["handoffs"]
        layers["metro.%s.attach_ops" % tag] = layer["attach_ops"]
    for layer in report["radio"]:
        layers["radio.c%d.handoff_step.ns" % layer["cells"]] = layer["step_ns"]
    layers.update({
        "engine.execute_step.ms": spans.mean_us(events, "engine.execute_step") * 1e-3,
        "engine.checkpoint_state.ms": spans.mean_us(events, "engine.checkpoint_state") * 1e-3,
        "core.json_dump.ms": spans.mean_us(events, "core.json_dump") * 1e-3,
        "engine.save_snapshot.ms": spans.mean_us(events, "engine.save_snapshot") * 1e-3,
        "engine.load_snapshot.ms": spans.mean_us(events, "engine.load_snapshot") * 1e-3,
        "engine.restore_state.ms": spans.mean_us(events, "engine.restore_state") * 1e-3,
        "engine.snapshot_bytes": plain["snapshot_bytes"],
        "serve.overhead.ms": (wire_s - replay_s) * 1e3,
        "serve.frames": sum(len(job.frames) for job in first.jobs),
        "serve.ckpts": sum(len(job.ckpt_gaps) for job in first.jobs),
        "serve.resume.s": first.resume.seconds,
        "serve.city_job.s": stats.low([c.city.seconds for c in cycles]),
        "trace.overhead_pct": 100.0 * (
            (traced["run_s"] - traced["extra_s"])
            / (0.5 * (plain["run_s"] + report["soak_plain_after"]["run_s"])) - 1.0),
    })
    ctx.checks.record(plain["frames"] == len(first.soak.frames)
                      and plain["ckpts"] == len(first.soak.ckpt_gaps),
                      "in-process soak replay and the wire disagree on frames or checkpoints")
    return layers


RUNNERS = {"abr_mpc_1s": run_abr, "abr_gbdt_4s": run_abr, "serve_metro": run_serve}
