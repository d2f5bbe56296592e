"""Workload child: run job documents in passes, the way ``prodquot run`` does.

One job is ``parse_job(text)`` -> ``run_job`` -> ``render_report``, timed
together; each pass parses every document again, so nothing a job builds
(the per-group presentation cache, say) survives into the next pass.  The
child runs passes until the next one would end after ``--seconds`` (always
at least one), then writes one JSON result file.  Answers are read out of
the rendered reports after each pass, outside the timed region.

Host-speed probe: CPU speed on a shared host drifts by up to 1.5x within
seconds (see README.md).  The child therefore times a fixed pure-Python
probe between jobs (best of 3, untimed) and every PROBE_EVERY_S of CPU
inside a job (SIGPROF, one run, counted in the job's time), and records
for each job, besides its raw time, its time scaled to a reference host on
which the probe takes PROBE_REF_S: raw * PROBE_REF_S / mean(probe times
over the job).

With ``--trace 1`` the first half of the time runs untraced and the second
half traced (see tracing.py), so the same process reports the tracing
overhead.

Usage (normally started by run.py):
  python3 pipebench/child.py --src SRC --docs DOCS.json --seconds S
      --trace 0|1 --job-limit L --out RESULT.json [--spans SPANS.jsonl]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time

import gen


PROBE_REF_S = 0.00045  # probe time that defines the reference host speed
PROBE_EVERY_S = 0.2  # CPU seconds between probes inside a job
PROBE_MARGIN = 2  # probes beyond each end of a job that enter its factor
PROBE_GENS = [gen.cycle(4, (0, 1)), gen.cycle(4, (0, 1, 2, 3))]


def probe_once():
    """Close S4 under multiplication with the generator's own tuple code:
    dict and tuple work like the package's, about 0.45 ms here.  It tracked
    a small job's speed to 6% where a bare integer loop managed 11%."""
    t = time.perf_counter()
    gen.Group("S4", PROBE_GENS)
    return time.perf_counter() - t


class HostSpeed:
    """Probe samples in time order: (perf_counter, probe seconds)."""

    def __init__(self):
        self.samples = []
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)

    def _tick(self, signum, frame):
        self.samples.append((time.perf_counter(), probe_once()))

    def mark(self):
        """An untimed probe between jobs; returns its sample index."""
        self.samples.append((time.perf_counter(), min(probe_once() for _ in range(3))))
        return len(self.samples) - 1

    def factor(self, first, last):
        """Host slowness over samples first..last relative to the reference."""
        return statistics.mean(d for _, d in self.samples[first:last + 1]) / PROBE_REF_S


class JobTimeout(BaseException):
    """Raised by the per-job alarm; BaseException so job code cannot eat it."""


def _alarm(signum, frame):
    raise JobTimeout()


def answers_of(report):
    """Group invariants of a report, keyed by kind; absent outputs omitted."""
    res = report.get("results", {})
    out = {"status": report.get("status")}
    ab = res.get("abelianization")
    if isinstance(ab, dict) and "free_rank" in ab:
        out["h1"] = [ab["free_rank"], list(ab["torsion"])]
    fr = res.get("freeness")
    if isinstance(fr, dict) and "is_free" in fr:
        out["is_free"] = fr["is_free"]
    st = res.get("structure")
    if isinstance(st, dict) and "quotient_signatures" in st:
        out["pi1_order"] = st.get("pi1_order")
        out["quotient_signatures"] = [
            [s["genus"], list(s["periods"])] for s in st["quotient_signatures"]
        ]
        out["t_index"] = st["t_index_bound"] if st.get("t_index_exact") else None
    en = res.get("enumerate")
    if isinstance(en, list):
        out["enumerate"] = [d["count"] for d in en]
    ve = res.get("verify")
    if isinstance(ve, dict) and "status" in ve:
        out["verify"] = ve["status"]
        out["verify_order"] = ve.get("order")
    pi = res.get("pi1")
    if isinstance(pi, dict) and "presentation" in pi:
        out["presentation"] = pi["presentation"]
    return out


def run_pass(cli, docs, job_limit, tracer, pass_no, speed):
    jobs = []
    windows = []
    texts = []
    mark = speed.mark()
    for doc in docs:
        if tracer is not None:
            tracer.job = f"{pass_no}:{doc['name']}"
        signal.setitimer(signal.ITIMER_REAL, job_limit)
        t0 = time.perf_counter()
        error = None
        text = None
        try:
            job = cli.parse_job(doc["text"])
            text = cli.render_report(cli.run_job(job))
        except JobTimeout:
            error = f"timeout after {job_limit:.0f}s"
        except Exception as exc:  # the job failed; the run goes on
            error = f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if tracer is not None:
                tracer.stack.clear()
        seconds = time.perf_counter() - t0
        after = speed.mark()
        jobs.append({"name": doc["name"], "seconds": seconds, "error": error})
        windows.append((mark, after))
        mark = after
        texts.append(text)
    for job, (first, last) in zip(jobs, windows):
        # PROBE_MARGIN more probes on each side steady the factor of short jobs
        first = max(0, first - PROBE_MARGIN)
        job["scaled"] = job["seconds"] / speed.factor(first, last + PROBE_MARGIN)
    for job, text in zip(jobs, texts):
        if text is not None:
            job["answers"] = answers_of(json.loads(text))
    return {
        "wall": sum(j["seconds"] for j in jobs),
        "scaled_wall": sum(j["scaled"] for j in jobs),
        "traced": tracer is not None,
        "jobs": jobs,
    }


def run_phase(cli, docs, seconds, job_limit, tracer, first_pass, speed):
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(cli, docs, job_limit, tracer, first_pass + len(passes), speed))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p["wall"] for p in passes) > seconds:
            return passes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--src", required=True)
    ap.add_argument("--docs", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--job-limit", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import prodquot
    import prodquot.cli as cli

    if not os.path.abspath(prodquot.__file__).startswith(src + os.sep):
        raise SystemExit(f"prodquot imported from {prodquot.__file__}, not {src}")
    signal.signal(signal.SIGALRM, _alarm)
    with open(args.docs, encoding="utf-8") as fh:
        docs = json.load(fh)

    result = {"backend": getattr(prodquot, "backend_name", lambda: "none")()}
    speed = HostSpeed()
    if args.trace:
        plain = run_phase(cli, docs, args.seconds / 2, args.job_limit, None, 0, speed)
        from tracing import install

        tracer = install()
        traced = run_phase(cli, docs, args.seconds / 2, args.job_limit, tracer, len(plain), speed)
        tracer.uninstall()
        result["layers"] = tracer.metrics(len(traced))
        plain_wall = statistics.median(p["scaled_wall"] for p in plain)
        traced_wall = statistics.median(p["scaled_wall"] for p in traced)
        result["layers"]["trace.overhead_s"] = traced_wall - plain_wall
        result["layers"]["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
        result["spans"] = len(tracer.spans)
        result["unmeasured"] = tracer.missing
        if args.spans:
            tracer.dump(args.spans)
        result["passes"] = plain + traced
    else:
        result["passes"] = run_phase(cli, docs, args.seconds, args.job_limit, None, 0, speed)
    signal.setitimer(signal.ITIMER_PROF, 0)
    result["host_factor"] = statistics.median(d for _, d in speed.samples) / PROBE_REF_S
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
