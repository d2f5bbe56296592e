"""Tests for the job-file command line interface."""

import json
import subprocess
import sys

import pytest

from prodquot.cli import (
    ParseError,
    EXIT_OK,
    EXIT_OVERFLOW,
    EXIT_VALIDATION,
    ValidationError,
    bundled_job_names,
    bundled_job_text,
    emit_job,
    load_bundled_job,
    main,
    parse_job,
    render_report,
    run_job,
)
from prodquot.orbifold import enumerate_generating_vectors


MINIMAL_JOB = {
    "schema": "prodquot-job/1",
    "name": "minimal",
    "group": {"degree": 1, "generators": []},
    "actions": [
        {
            "projection": "identity",
            "signature": {"genus": 2, "periods": []},
            "vector": {"a": ["1", "1"], "b": ["1", "1"], "c": []},
        }
    ],
    "outputs": ["freeness"],
}


def _with(doc: dict, **changes) -> str:
    out = dict(doc)
    out.update(changes)
    return json.dumps(out)


def test_minimal_job_parses():
    job = parse_job(json.dumps(MINIMAL_JOB))
    assert job.name == "minimal"
    assert job.group.order == 1
    assert len(job.actions) == 1
    assert job.actions[0].genus == 2


def test_wrong_period_order_is_a_validation_error():
    bad = dict(MINIMAL_JOB)
    bad["group"] = {"degree": 2, "generators": [[1, 0]]}
    bad["actions"] = [
        {
            "projection": "identity",
            "signature": {"genus": 0, "periods": [2, 2, 2, 6]},
            "vector": {"a": [], "b": [], "c": ["g0", "g0", "g0", "g0"]},
        }
    ]
    with pytest.raises(ValidationError) as exc:
        parse_job(json.dumps(bad))
    message = str(exc.value)
    assert "actions[0].vector" in message
    assert "order" in message


def test_parse_rejects_malformed_documents():
    with pytest.raises(ParseError, match="schema"):
        parse_job(_with(MINIMAL_JOB, schema="prodquot-job/99"))
    with pytest.raises(ParseError):
        parse_job("{not json")
    with pytest.raises(ValidationError, match="unknown key"):
        parse_job(_with(MINIMAL_JOB, extra=1))
    with pytest.raises(ValidationError, match="outputs"):
        parse_job(_with(MINIMAL_JOB, outputs=["pi2"]))
    with pytest.raises(ValidationError, match="at least one action"):
        parse_job(_with(MINIMAL_JOB, actions=[]))


def test_kummer_job_parses_with_two_actions():
    job = load_bundled_job("kummer")
    assert len(job.actions) == 2
    assert job.group.order == 2


def test_bundled_jobs_parse_and_round_trip():
    names = bundled_job_names()
    assert len(names) == 20
    for name in names:
        text = bundled_job_text(name)
        job = parse_job(text)
        assert job.name == name
        emitted = emit_job(job)
        assert emitted == text, name
        assert parse_job(emitted).raw == job.raw, name


def test_reports_are_byte_identical_across_runs():
    job = load_bundled_job("kummer")
    first = render_report(run_job(job))
    second = render_report(run_job(job))
    assert first == second
    report = json.loads(first)
    assert report["schema"] == "prodquot-report/1"
    assert report["job"] == job.raw
    assert "timing" not in report
    # The Kummer signatures are Euclidean, which deserves a warning.
    assert any("not hyperbolic" in w for w in report["warnings"])


def test_kummer_report_content():
    report = run_job(load_bundled_job("kummer"))
    results = report["results"]
    assert report["status"] == "ok"
    assert results["freeness"]["is_free"] is False
    assert results["freeness"]["witness"] == "g0"
    assert results["abelianization"] == {"free_rank": 0, "torsion": []}
    assert results["pi1"]["torsion_count"] == 32
    assert results["pi1"]["presentation"]["generators"] == []
    assert results["structure"]["pi1_order"] == 1
    assert results["verify"]["status"] == "FINITE"


def test_free_action_report_content():
    report = run_job(load_bundled_job("free-z2-genus3"))
    results = report["results"]
    assert results["freeness"]["is_free"] is True
    assert results["freeness"]["witness"] is None
    assert results["pi1"]["torsion_count"] == 0
    assert results["abelianization"] == {"free_rank": 8, "torsion": []}
    assert results["verify"]["status"] == "FOUND"
    assert results["verify"]["index"] == 2
    assert results["verify"]["free_rank"] == 12


def test_timing_is_opt_in():
    job = load_bundled_job("one-factor-z2")
    timed = run_job(job, timing=True)
    assert "timing" in timed and timed["timing"]
    assert "timing" not in run_job(job)


def test_enumerate_counts_match_direct_enumeration(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        ["enumerate-vectors", "--job", "one-factor-z3-sphere", "--out", str(out), "--quiet"]
    )
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    docs = report["results"]["enumerate"]
    assert len(docs) == 1
    job = load_bundled_job("one-factor-z3-sphere")
    action = job.actions[0]
    direct = enumerate_generating_vectors(
        action.acting_group, action.vector.genus, action.vector.periods
    )
    assert docs[0]["count"] == len(direct) == len(docs[0]["vectors"])
    assert docs[0]["count"] > 0


def test_exit_code_ok(tmp_path):
    out = tmp_path / "report.json"
    assert main(["freeness", "--job", "kummer", "--out", str(out), "--quiet"]) == EXIT_OK
    report = json.loads(out.read_text())
    assert set(report["results"]) == {"freeness"}


def test_exit_code_validation(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(_with(MINIMAL_JOB, schema="nope/0"))
    assert main(["run", "--job", str(bad), "--quiet"]) == EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err
    missing = tmp_path / "does-not-exist.json"
    assert main(["run", "--job", str(missing), "--quiet"]) == EXIT_VALIDATION


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--max-cosets", "0"),
        ("--tietze-steps", "-1"),
        ("--index-bound", "0"),
        ("--max-cosets", "x"),
    ],
)
def test_bad_budget_override_is_a_usage_error(flag, value, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pi1", "--job", "kummer", flag, value, "--quiet"])
    assert exc.value.code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert flag in err


def test_exit_code_overflow_still_writes_report(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        ["pi1", "--job", "kummer", "--max-cosets", "2", "--out", str(out), "--quiet"]
    )
    assert code == EXIT_OVERFLOW
    report = json.loads(out.read_text())
    assert report["status"] == "overflow"
    assert "overflow" in report["results"]["pi1"]


def test_run_subcommand_honors_job_outputs(tmp_path):
    out = tmp_path / "report.json"
    assert main(["run", "--job", "one-factor-z2", "--out", str(out), "--quiet"]) == EXIT_OK
    report = json.loads(out.read_text())
    job = load_bundled_job("one-factor-z2")
    assert set(report["results"]) == set(job.outputs)


def test_list_jobs(capsys):
    assert main(["list-jobs"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 20
    assert "kummer" in lines
    assert lines == sorted(lines)


def test_stdin_job_via_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "prodquot.cli", "freeness", "--job", "-", "--quiet"],
        input=json.dumps(MINIMAL_JOB),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    # The trivial group acts freely: there is no nontrivial element at all.
    assert report["results"]["freeness"]["is_free"] is True
