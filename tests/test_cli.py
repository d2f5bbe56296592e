"""Tests for the job-file command line interface."""

import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import prodquot
import prodquot.cli as cli
import prodquot.presentation as presentation_module
from prodquot.cli import (
    ALL_OUTPUTS,
    DEFAULT_OUTPUTS,
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
from prodquot.corpus import build_corpus
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


def _json_text(doc) -> str:
    """The text render_report and emit_job must produce, from json itself."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("max_cosets", [None, 3])
def test_render_report_matches_json_on_bundled_reports(max_cosets):
    # every output with timing; at 3 cosets the pi1 stages overflow into markers
    overflowed = 0
    for name in bundled_job_names():
        job = load_bundled_job(name).with_outputs(ALL_OUTPUTS)
        if max_cosets is not None:
            job = job.with_budgets(max_cosets=max_cosets)
        report = run_job(job, timing=True)
        overflowed += report["status"] == "overflow"
        assert render_report(report) == _json_text(report), name
    assert (overflowed > 0) == (max_cosets is not None)


def test_emit_job_matches_json_on_bundled_jobs():
    for name in bundled_job_names():
        job = load_bundled_job(name)
        assert emit_job(job) == _json_text(job.raw), name


def test_render_report_matches_json_on_awkward_values():
    doc = {
        "ascii \"quoted\" back\\slash \x00\x1f\t\n": ["é ∞ \U0001f600", "\"", "\\", "\x07\x7f"],
        "naïve": {"ключ": "значение", "tab\tkey": "line\nbreak"},
        "tuples": (1, ("a", "b"), (), ((),)),
        "flags": [True, False, None, [None, True]],
        "mixed": ["s", 1, -2, 2**70, 1.5, None, {"k": "v"}, ["x"], (), {}],
        "floats": [0.1, 1e-7, float("inf"), float("-inf"), float("nan"), -0.0],
        "float": 0.1,
        "empty": [[], {}, [[]], [{}], {"e": []}, {"d": {}}],
        "int keys": {2: "two", 10: ["ten"], -1: {3: (4,)}},
        "": "",
    }
    assert render_report(doc) == _json_text(doc)
    assert render_report({}) == _json_text({})


def _render_without_json(monkeypatch, doc) -> str:
    """render_report(doc) with json.dumps unavailable, so that no value may
    fall back to it: a TypeError from the emitter's own loop would otherwise
    be hidden by the fallback."""

    def unavailable(*args, **kwargs):
        raise AssertionError("render_report fell back to json.dumps")

    with monkeypatch.context() as m:
        m.setattr(json, "dumps", unavailable)
        return render_report(doc)


def test_render_report_matches_json_on_shared_and_repeated_objects(monkeypatch):
    shared = ["x", "y"]
    record = {"a": shared, "b": shared, "c": []}
    doc = {
        "records": [
            record,
            record,
            {"a": shared, "b": ["x", "y"], "c": shared},
            {"a": [], "b": [shared, shared], "c": {"d": shared}},
            record,
        ],
        "mixed": [
            None,
            None,
            {"k": shared},
            {"k": shared, "n": None},
            [shared, {"k": shared}],
            {"k": [None, record]},
            True,
            True,
            0,
        ],
        "nested": [[record, record], {"r": [record, shared]}],
        "sections": [{"count": 2, "vectors": [record, record]}] * 2,
        "empty": [None, {}, {}, {"k": [None, {}]}, {"k": shared, "e": {}}, [{}]],
    }
    assert _render_without_json(monkeypatch, doc) == _json_text(doc)
    # dicts with keys that are not strings go to json
    doc["json decides"] = [None, {1: shared, 2: [shared]}, {1: shared}, {"k": shared}]
    assert render_report(doc) == _json_text(doc)


POOL_FILE = Path(__file__).resolve().parent.parent / "pipebench" / "frozen" / "classify_pool.json"


def test_render_report_matches_json_on_the_classify_pool(monkeypatch):
    pool = json.loads(POOL_FILE.read_text(encoding="utf-8"))
    texts = [text for stratum in pool for text in stratum["docs"]]
    assert len(texts) == 302
    for text in texts:
        report = run_job(parse_job(text))
        expected = _json_text(report)
        assert _render_without_json(monkeypatch, report) == expected, json.loads(text)["name"]


def _enumerate_section_per_factor(action) -> dict:
    """The enumerate section of one factor, as the loop over factors built it
    before identical factors shared one section."""
    h = action.acting_group
    vectors = enumerate_generating_vectors(h, action.vector.genus, action.vector.periods)
    names = [cli._element_word(h, e) for e in range(h.order)]
    return {
        "count": len(vectors),
        "vectors": [
            {
                "a": [names[e] for e in v.a_images],
                "b": [names[e] for e in v.b_images],
                "c": [names[e] for e in v.c_images],
            }
            for v in vectors
        ],
    }


@pytest.mark.parametrize(
    "name, shared", [("s3-pair", True), ("kummer", True), ("klein-mixed-projections", False)]
)
def test_identical_factors_share_one_enumerate_section(name, shared):
    # kummer's two factors are the identity projection with one signature;
    # klein-mixed-projections projects onto two groups built apart
    job = load_bundled_job(name).with_outputs(["enumerate"])
    sections = run_job(job)["results"]["enumerate"]
    assert sections == [_enumerate_section_per_factor(a) for a in job.actions]
    assert (sections[1] is sections[0]) == shared
    assert sections[0]["count"] > 0


def test_enumerate_sections_match_the_public_enumerator_on_the_corpus():
    # _enumerate_doc reads orbifold's private image stream; each section must
    # be the one built from enumerate_generating_vectors' objects, in order:
    # every corpus group up to order 16, every sorted period tuple over its
    # element orders, r <= 4 at genus 0 and r <= 2 at genus 1
    cases = vectors = 0
    for entry in build_corpus():
        h = entry.group
        if h.order > 16:
            continue
        orders = sorted({h.element_order(e) for e in range(h.order)} - {1})
        for genus, max_r in ((0, 4), (1, 2)):
            for r in range(max_r + 1):
                for periods in itertools.combinations_with_replacement(orders, r):
                    vector = SimpleNamespace(genus=genus, periods=periods)
                    action = SimpleNamespace(acting_group=h, vector=vector)
                    section, = cli._enumerate_doc([action])
                    assert section == _enumerate_section_per_factor(action), (
                        entry.name, genus, periods,
                    )
                    cases += 1
                    vectors += section["count"]
    assert cases >= 800 and vectors >= 30000


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


def test_timing_reports_structure_and_verify_as_separate_stages():
    job = load_bundled_job("kummer").with_outputs(["structure", "verify"])
    assert sorted(run_job(job, timing=True)["timing"]) == ["pi1", "structure", "verify"]


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


def _run_with_group(tmp_path, group, projection="identity"):
    """Exit code and seconds of `prodquot run` on MINIMAL_JOB over another group."""
    doc = dict(MINIMAL_JOB, group=group)
    doc["actions"] = [dict(MINIMAL_JOB["actions"][0], projection=projection)]
    job = tmp_path / "job.json"
    job.write_text(json.dumps(doc))
    start = time.perf_counter()
    code = main(["run", "--job", str(job), "--quiet"])
    return code, time.perf_counter() - start


@pytest.mark.parametrize("projection", ["identity", "trivial"])
def test_oversized_group_with_named_projection_is_a_validation_error(
    tmp_path, capsys, projection
):
    # S7 has order 5040, past the closure limit: the group itself is refused
    s7 = {"degree": 7, "generators": [[1, 0, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6, 0]]}
    code, elapsed = _run_with_group(tmp_path, s7, projection)
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert "group: order exceeds 1000" in err
    assert "Traceback" not in err
    assert elapsed < 1.0


def test_s10_group_is_rejected_at_the_group_in_milliseconds(tmp_path, capsys):
    # S10 = <(0 1), (0 ... 9)> has order 3628800; its closure stops at 1001
    # elements, before any projection is checked
    s10 = {"degree": 10, "generators": [[1, 0, *range(2, 10)], [*range(1, 10), 0]]}
    code, elapsed = _run_with_group(tmp_path, s10)
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert "group: order exceeds 1000" in err
    assert "Traceback" not in err
    assert elapsed < 1.0


@pytest.mark.parametrize("bound", [1001, 10**18])
def test_verify_index_bound_above_the_group_cap_is_rejected_at_parse(tmp_path, capsys, bound):
    # no verification quotient above perm.MAX_ORDER can be built, and the
    # search lists its whole catalogue of groups up to the bound first
    doc = json.loads(bundled_job_text("kummer"))
    doc["budgets"] = {"verify_index_bound": bound}
    doc["outputs"] = ["verify"]
    job = tmp_path / "job.json"
    job.write_text(json.dumps(doc))
    start = time.perf_counter()
    code = main(["run", "--job", str(job), "--quiet", "--out", os.devnull])
    assert time.perf_counter() - start < 0.5
    assert code == EXIT_VALIDATION
    assert capsys.readouterr().err == "error: budgets.verify_index_bound: must be <= 1000\n"
    doc["budgets"] = {"verify_index_bound": 1000}
    assert parse_job(json.dumps(doc)).budgets.verify_index_bound == 1000


def test_huge_exponent_in_a_vector_word_is_evaluated_in_milliseconds():
    # an exponent is taken modulo |G| before it is multiplied out; g0 has
    # order 2, so g0^(10**18 + 1) is g0 and the answers are kummer's own
    doc = json.loads(bundled_job_text("kummer"))
    doc["actions"][0]["vector"]["c"][0] = "g0^1000000000000000001"
    start = time.perf_counter()
    report = run_job(parse_job(json.dumps(doc)))
    assert time.perf_counter() - start < 1.0
    assert report["job"]["actions"][0]["vector"]["c"][0] == "g0^1000000000000000001"
    assert report["results"] == run_job(load_bundled_job("kummer"))["results"]


@pytest.mark.parametrize("name", bundled_job_names())
def test_default_outputs_abelianize_pi1_once(monkeypatch, name):
    # the abelianization output and the structure report share one SNF
    job = load_bundled_job(name).with_outputs(DEFAULT_OUTPUTS)
    calls = []
    original = presentation_module.invariants_from_matrix

    def counting(matrix, ngens):
        calls.append(ngens)
        return original(matrix, ngens)

    monkeypatch.setattr(presentation_module, "invariants_from_matrix", counting)
    report = run_job(job)
    assert report["status"] == "ok"
    assert len(calls) == 1
    assert calls[0] == len(report["results"]["pi1"]["presentation"]["generators"])


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--max-cosets", "0"),
        ("--tietze-steps", "-1"),
        ("--index-bound", "0"),
        ("--index-bound", "1001"),
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
    # the lift of s3-pair has index |S3| = 6 > 2
    out = tmp_path / "report.json"
    code = main(
        ["pi1", "--job", "s3-pair", "--max-cosets", "2", "--out", str(out), "--quiet"]
    )
    assert code == EXIT_OVERFLOW
    report = json.loads(out.read_text())
    assert report["status"] == "overflow"
    assert "overflow" in report["results"]["pi1"]


def test_coset_budget_equal_to_the_lift_index_is_enough(tmp_path):
    # kummer's orbifold group has index 2 in the product: the budget is
    # compared with the exact index, not with cosets an enumeration defines
    out = tmp_path / "report.json"
    code = main(
        ["pi1", "--job", "kummer", "--max-cosets", "2", "--out", str(out), "--quiet"]
    )
    assert code == EXIT_OK
    assert json.loads(out.read_text())["status"] == "ok"


@pytest.mark.parametrize("name, budget, index", [("kummer", 2, 1), ("s3-free-pair", 6, 6)])
def test_structure_image_index_is_exact_at_small_budgets(tmp_path, name, budget, index):
    # the image index is counted in the acting groups, under no coset budget
    out = tmp_path / "report.json"
    code = main(
        ["structure", "--job", name, "--max-cosets", str(budget), "--out", str(out), "--quiet"]
    )
    assert code == EXIT_OK
    structure = json.loads(out.read_text())["results"]["structure"]
    assert structure["t_index_bound"] == index
    assert structure["t_index_exact"] is True
    assert not any("image index enumeration overflowed" in n for n in structure["notes"])


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
    # the child imports the same package as this process, installed or not
    root = str(Path(prodquot.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "prodquot.cli", "freeness", "--job", "-", "--quiet"],
        input=json.dumps(MINIMAL_JOB),
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    # The trivial group acts freely: there is no nontrivial element at all.
    assert report["results"]["freeness"]["is_free"] is True


# sha256 of render_report(run_job(job)) and of the verify-only report, per
# bundled job; frozen before finiteness was decided from the quotient
# signatures, so any change to report bytes shows up here.
_FROZEN_REPORT_DIGESTS = {
    "d4-spherical-pair": (
        "ae51db5b2ec4474a4cacc3ca5441a694ccc68b4cdb94dbc6ae9d4b0bc00e5a12",
        "4719f7e54310a70a601dd085d34a48d9007c90f6097f58618d96e87754800a80",
    ),
    "free-z2-genus3": (
        "458a77bd1e5cbd3f35643d0ebf53020f619a15e4218da52199857fbdcd4b2e7f",
        "82519cb8620f5f99dbfbfd81ff7af1c94993f8dcc217ed9717c4cdc640ec31cc",
    ),
    "klein-faithful-pair": (
        "df31993e0ba4cbf859994a292d70bd314e519546fc250fbf2570e65d72b88013",
        "af5de3a02260e8304a06f463ff7c7d6564c8692bc3305cb16b3ca8aeecb5e7d0",
    ),
    "klein-mixed-projections": (
        "b69a767a7851dd5ab32062637dbae9940933644369e87143a232a5fc852e710d",
        "47250ba3e90e8778e7ac129d1fe7b079522b35b26c24f9e359875f88f5b3e82b",
    ),
    "kummer": (
        "657df0cb324322965d9a335f2c4b977e992255b2917f82141309a2c3e46867c4",
        "d3578f4baec930cf58929c5d9e55514a84b75f9943ad6c2716e6ae91d42fd488",
    ),
    "one-factor-s3": (
        "ea586bafe1810f59baf4e4b00d5eaf8f937e4900ac191c3931247ad818c7cc4e",
        "28a65b68364a5ffc952b643275a2a3c40eeefbe4a57d9634ed959ae99fc4f795",
    ),
    "one-factor-z2": (
        "944d6c073576c054af20e925e9af0db0cc8ba10aac25f8fbc7edab8316c6d222",
        "e7da02a8bb24f47b7a1224cdbf34024d60074d2077f572bc8b45a7a370db306a",
    ),
    "one-factor-z3-sphere": (
        "f37f9c5f05b8e624357b569badc641ca66fdb53434c79cd000d19aa9ccda46a9",
        "4cccefbc75816a408548a23d8977909847b6df5c59ffcc2fe70368aade0d6c4c",
    ),
    "s3-free-pair": (
        "6c533b2655177f0387ee36539759c9faa63671f7e9181986d8df62c56fae37eb",
        "22a784be74a84b69accb46c0911818018812cbd621dcef1b4a1cd3f626163053",
    ),
    "s3-pair": (
        "c0c77aa8ffb560477f31af0803f8211ad6e8b1706ae15f3c7058696f5d02411c",
        "bbda3f2b7f492669a208b68f1da374672874cf604323b02331cd3e3556c9ee85",
    ),
    "s3-sign-mixed": (
        "7298623fac5f6620e8169a32abc7742db1f79c95fbd4bc533924ecd334c66365",
        "40b683012ea077c4a0b4dc454b7f87a5e34080d795677603382ec81b79647ad1",
    ),
    "trivial-group-surfaces": (
        "074170b75d4f3849ff80711e307834743334520572026e1277edc29299786a03",
        "33833f007fa0a5e2bb093144c5c3bea2148e2d7657ffd94dde47b18286477c87",
    ),
    "z2-free-times-kummer": (
        "89b06f78146e7484d74a903d72467d7c9592c896d05984b38e3cce05ce1501f3",
        "c063b468d648eac9358e7a5cf510e023b7e7df06a3d463dacaef5adcace1e67b",
    ),
    "z2-pure-kernel-pair": (
        "c214e4534cde3a2b09a61c1cfac828eaced77a8211060f6c06489d3bbd915fd3",
        "11d4700f0b29ac6c05e7b8939562dabe1d251cc80a77006e359552649571db3e",
    ),
    "z2-three-kummer": (
        "e68104b0be8862b6566ceb30a1ec2e5a61cbb37e9e6554b779bb4990488b80e2",
        "b77e296b8f946680f8fc24634731001f31ae1a1a0dd1f2279fb0e0c37c949039",
    ),
    "z2-trivial-plus-kummer": (
        "56be7b9edf6c8414c01e7f8fabceacab9513ad0fdccb4879c7e1fa7891a46042",
        "c2de62063a75793715d891a0b8bac8085aa611ae7c977a8be7e173a945a9b406",
    ),
    "z3-triangle-pair": (
        "bc8c60f359270051148cd706aacc3899de5ada3bf7e419d210e502c7c9949892",
        "766401de44c4299f9a4378b0ede275de11adbf187e831b9df1ec9062a3eacf80",
    ),
    "z4-hyperbolic-pair": (
        "da802b3e64e21daa8f88703006cf42d0d257a153d9819c9760f810847827e1bd",
        "7949cb0b134c88e3ce6e2e7c80abc940c2a277612c083c13315becb0205c8aa2",
    ),
    "z4-torus-pair": (
        "1a848cdc86dc3c362d3f206b0222269c24e668cf027e597788ec70a4e3a54d52",
        "c98bb71d2b5877cd321ace7cbaf58c7fb920d2ee44f04fb36ecbb8db077008e3",
    ),
    "z5-pair": (
        "ce0b0ec1ae93e7879e97ed8f0fc095619cf6b03eb72543022f95150ed30b60a5",
        "2e72434c32a69e3467cdfb6f277240dbf08879a6337c7f826e3c35b05a3297b4",
    ),
}


def _digest(report: dict) -> str:
    return hashlib.sha256(render_report(report).encode()).hexdigest()


def test_bundled_reports_match_frozen_digests():
    assert sorted(_FROZEN_REPORT_DIGESTS) == bundled_job_names()
    for name, (run_digest, verify_digest) in _FROZEN_REPORT_DIGESTS.items():
        job = load_bundled_job(name)
        assert _digest(run_job(job)) == run_digest, name
        assert _digest(run_job(job.with_outputs(["verify"]))) == verify_digest, name
