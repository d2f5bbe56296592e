#!/usr/bin/env python3
"""Whole-pipeline benchmark for prodquot (see pipebench/README.md).

  python3 pipebench/run.py --workload bundled|classify|beauville --seed N
                           --seconds S --trace 0|1
  python3 pipebench/run.py --self-check
  python3 pipebench/run.py --freeze

A run generates the workload's job documents from the seed, times set-up
(fresh interpreters importing ``prodquot.cli``), runs the documents in a
child process under a wall-clock limit, gates every answer on its group
invariants, and prints each metric by name and unit.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``).  The exit code is 0 only when every answer is right.

Must run from a source checkout: it imports ``prodquot`` from ``src/``
beside this directory and fails (exit 2) without it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".pipebench_out")
sys.path.insert(0, HERE)

import gate  # noqa: E402
import gen  # noqa: E402

WORKLOADS = ("bundled", "classify", "beauville")
SETUP_REPEATS = 9
JOB_LIMIT_S = 75.0  # a job running longer is stopped and counts as failed
RUN_LIMIT_S = 170.0  # the whole run, set-up and checks included
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_p50_s", "s"),
    ("peak_rss_mb", "MB"),
)


def fail(message, code=2):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + HERE
    return env


def run_child(cmd, timeout):
    """Run cmd in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return None, out, err
    return proc.returncode, out, err


def measure_setup():
    """Median wall time from process start to ``prodquot.cli`` imported.
    Unscaled: the host-speed probe does not model process start-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        code, _, err = run_child([sys.executable, "-c", "import prodquot.cli"], 60)
        times.append(time.perf_counter() - t0)
        if code != 0:
            fail(f"cannot import prodquot.cli from {SRC}: {err.strip()[-400:]}")
    return statistics.median(times)


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "prodquot")
    for dirpath, dirnames, filenames in sorted(os.walk(pkg)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def check_tables():
    """Coset-table digests, checked once per package source (cached)."""
    marker = os.path.join(OUT, f"tables-ok-{source_digest()[:16]}")
    if os.path.exists(marker):
        return []
    code, out, err = run_child([sys.executable, "-c",
                                "import json, gate; print(json.dumps(gate.check_coset_digests()))"
                                ], 300)
    if code != 0:
        return [f"coset digest check crashed: {err.strip()[-400:]}"]
    problems = json.loads(out.strip().splitlines()[-1])
    if not problems:
        open(marker, "w").close()
    return problems


def git_sha():
    """HEAD of the checkout, or "unknown" when ROOT is not a git work tree."""
    try:
        r = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = r.stdout.split()
    if r.returncode or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def gate_answers(workload, passes, frozen):
    """failed jobs, total jobs, problem lines, H1 cross-check presentations."""
    failed, attempted, problems = 0, 0, []
    presentations = {}
    for p in passes:
        for job in p["jobs"]:
            attempted += 1
            if job["error"]:
                bad = [job["error"]]
            else:
                ans = job["answers"]
                bad = gate.check_job(workload, job["name"], ans, frozen)
                if "presentation" in ans and "h1" in ans:
                    key = json.dumps(ans["presentation"], sort_keys=True)
                    presentations[key] = (job["name"], ans["presentation"], ans["h1"])
            if bad:
                failed += 1
                problems.append(f"{job['name']}: {'; '.join(bad)}")
    for name, pres, h1 in presentations.values():
        if gate.sympy_h1(pres) != h1:
            failed += 1
            problems.append(f"{name}: H1 {h1} disagrees with sympy {gate.sympy_h1(pres)}")
    return failed, attempted, problems


def run(args):
    started = time.perf_counter()
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{args.trace}"
    docs = gen.documents(args.workload, args.seed, SRC)
    docs_path = os.path.join(OUT, f"docs-{tag}.json")
    with open(docs_path, "w", encoding="utf-8") as fh:
        json.dump(docs, fh)
    frozen = gate.load_frozen(args.workload)
    if args.corrupt:
        frozen = corrupt(frozen, args.workload, docs)

    problems = check_tables()
    setup_s = measure_setup()

    result_path = os.path.join(OUT, f"result-{tag}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--src", SRC, "--docs", docs_path,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--job-limit", str(JOB_LIMIT_S), "--out", result_path]
    if args.trace:
        cmd += ["--spans", os.path.join(OUT, f"spans-{tag}.jsonl")]
    budget = RUN_LIMIT_S - (time.perf_counter() - started) - 10
    code, _, err = run_child(cmd, budget)
    if code != 0 or not os.path.exists(result_path):
        reason = "killed by the run's wall-clock limit" if code is None else f"exit {code}"
        print(f"child failed ({reason}): {err.strip()[-800:]}", file=sys.stderr)
        return finish(False, len(docs), len(docs), {}, problems + [f"child {reason}"], 1)
    with open(result_path, encoding="utf-8") as fh:
        res = json.load(fh)

    passes = res["passes"]
    failed, attempted, job_problems = gate_answers(args.workload, passes, frozen)
    problems += job_problems
    plain = [p for p in passes if not p["traced"]]  # end-to-end figures: untraced only
    verify_docs = sum(1 for d in docs if "verify" in json.loads(d["text"]).get("outputs", []))
    verify_jobs = verify_docs * len(plain)
    verdicts = [j["answers"].get("verify") for p in plain for j in p["jobs"] if "answers" in j]
    scaled_times = [j["scaled"] for p in plain for j in p["jobs"]]

    manifest = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "backend": res["backend"],
        "git_sha": git_sha(), "nproc": os.cpu_count(), "jobs_per_pass": len(docs),
        "passes": len(plain), "traced_passes": len(passes) - len(plain),
        "job_samples": len(scaled_times), "host_factor": res["host_factor"],
        "documents_sha256": gen.digest(docs), "held_out_seed": gen.HELD_OUT_SEED,
        "client": "closed loop, one client, one process",
    }
    print("manifest " + json.dumps(manifest, sort_keys=True))
    end_to_end = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p["scaled_wall"] for p in plain),
        "job_p50_s": job_p50(plain, "scaled"),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    units = dict(END_TO_END)
    for name, value in end_to_end.items():
        print(f"{name:<16} {value:.6g} {units[name]}")
    n = len(scaled_times)
    if n >= 100:
        print(f"{'job_p90_s':<16} {percentile(scaled_times, 0.9):.6g} s ({n} samples)")
    else:
        print(f"{'job_p90_s':<16} n/a: {n} samples, needs 100 for 10 beyond p90")
    print(f"{'raw wall_s':<16} {statistics.median(p['wall'] for p in plain):.6g} s "
          f"(unscaled; host {res['host_factor']:.3f}x slower than the reference)")
    print(f"{'raw job_p50_s':<16} {job_p50(plain, 'seconds'):.6g} s (unscaled)")
    print(f"{'fail_frac':<16} {failed / attempted:.6g} ({failed}/{attempted})")
    if verify_jobs:
        conclusive = sum(1 for v in verdicts if v in ("FOUND", "FINITE"))
        print(f"{'conclusive_frac':<16} {conclusive / verify_jobs:.6g} ({conclusive}/{verify_jobs})")
    else:
        print(f"{'conclusive_frac':<16} n/a: no job requests verify")

    if args.trace:
        layers = res["layers"]
        for name in sorted(layers):
            print(f"{name:<44} {layers[name]:.6g}")
        print(f"spans kept: {res['spans']} (written to {os.path.relpath(OUT, ROOT)})")
        for name in res["unmeasured"]:
            print(f"unmeasured: {name} is not in the package, so its metrics read 0")
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in end_to_end.items()}
    with open(os.path.join(OUT, f"summary-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"manifest": manifest, "end_to_end": end_to_end, "problems": problems,
                   "walls": [p["wall"] for p in plain],
                   "scaled_walls": [p["scaled_wall"] for p in plain]}, fh, indent=1)
    return finish(not problems, attempted, failed, metrics, problems, 0)


def job_p50(passes, key):
    """Median over the jobs of each job's mean over passes (pooling the
    passes would let a burst of host speed pick the job at the median)."""
    per_job = {}
    for p in passes:
        for j in p["jobs"]:
            per_job.setdefault(j["name"], []).append(j[key])
    return statistics.median(statistics.mean(v) for v in per_job.values())


def layer_unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


def finish(correct, attempted, failed, metrics, problems, code):
    for line in problems[:40]:
        print(f"WRONG {line}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct and code == 0 else 1


def corrupt(frozen, workload, docs):
    """Flip one frozen answer so the gate must fail (self-check only)."""
    if workload == "beauville":
        gate.BEAUVILLE_ANSWER["h1"] = [0, [5, 5]]
        return frozen
    frozen = json.loads(json.dumps(frozen))
    name = docs[0]["name"]
    rank, torsion = frozen[name]["h1"]
    frozen[name]["h1"] = [rank + 1, torsion]
    return frozen


# ---------------------------------------------------------------------------
# Freezing answers and the self-check.


def freeze():
    """Run every bundled job and the whole classify pool once; write answers."""
    sys.path.insert(0, SRC)
    import prodquot.cli as cli
    from child import answers_of

    sets = {
        "bundled": gen.bundled_documents(SRC, 0),
        "classify": [{"name": json.loads(t)["name"], "text": t}
                     for s in gen.load_pool() for t, c in zip(s["docs"], s["seconds"])
                     if c is not None],  # runaways are never run
    }
    for workload, docs in sets.items():
        answers = {}
        for doc in docs:
            report = json.loads(cli.render_report(cli.run_job(cli.parse_job(doc["text"]))))
            ans = answers_of(report)
            if ans["status"] != "ok":
                fail(f"{doc['name']}: status {ans['status']}")
            if "presentation" in ans and gate.sympy_h1(ans["presentation"]) != ans["h1"]:
                fail(f"{doc['name']}: H1 disagrees with sympy")
            answers[doc["name"]] = gate.frozen_answer(ans)
        with open(gate.ANSWER_FILES[workload], "w", encoding="utf-8") as fh:
            json.dump(answers, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{workload}: {len(answers)} answers frozen")
    with open(gate.DIGEST_FILE, "w", encoding="utf-8") as fh:
        json.dump(gate.coset_digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(gate.CASES)} coset-table digests frozen")
    return 0


def self_check():
    """Generator determinism, a named held-out seed, and a gate that bites."""
    ok = True

    def report(good, what):
        nonlocal ok
        ok = ok and good
        print(f"{'ok  ' if good else 'FAIL'} {what}")

    for w in WORKLOADS:
        a = gen.documents(w, 1, SRC)
        b = gen.documents(w, 1, SRC)
        c = gen.documents(w, 2, SRC)
        report(json.dumps(a) == json.dumps(b), f"{w}: seed 1 gives byte-identical documents")
        report(gen.digest(a) != gen.digest(c), f"{w}: seeds 1 and 2 give different documents")
    report(True, f"held-out seed {gen.HELD_OUT_SEED}: "
                 f"{gen.digest(gen.documents('classify', gen.HELD_OUT_SEED, SRC))[:16]}")
    for w in ("bundled", "classify"):
        frozen = gate.load_frozen(w)
        docs = gen.documents(w, 1, SRC)
        report(all(d["name"] in frozen for d in docs), f"{w}: every document has a frozen answer")
        name = docs[0]["name"]
        ans = dict(frozen[name], status="ok")
        report(not gate.check_job(w, name, ans, frozen), f"{w}: gate accepts the frozen answer")
        wrong = dict(ans, h1=[ans["h1"][0], ans["h1"][1] + [2]])
        report(bool(gate.check_job(w, name, wrong, frozen)), f"{w}: gate rejects a wrong H1")
    wrong = dict(gate.BEAUVILLE_ANSWER, status="ok", h1=[0, [5, 5]])
    report(bool(gate.check_job("beauville", "x", wrong, None)), "beauville: gate rejects a wrong H1")
    report(gate.sympy_h1({"generators": ["a", "b"], "relators": ["a^2*b^4", "a^-4*b^2"]})
           == [0, [2, 10]], "sympy H1 cross-check on a known matrix")
    code, out, _ = run_child([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                              "bundled", "--seed", "1", "--seconds", "1", "--trace", "0",
                              "--corrupt"], RUN_LIMIT_S)
    last = json.loads(out.strip().splitlines()[-1]) if out.strip() else {}
    report(code not in (0, None) and last.get("correct") is False,
           f"a corrupted frozen answer makes the run exit nonzero (exit {code})")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", action="store_true",
                    help="flip one frozen answer; the run must then fail")
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--freeze", action="store_true",
                    help="recompute the frozen answers and coset digests")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "prodquot", "cli.py")):
        fail(f"no package source at {SRC}; run from a prodquot checkout")
    if args.freeze:
        return freeze()
    if args.self_check:
        return self_check()
    if args.workload is None:
        ap.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
