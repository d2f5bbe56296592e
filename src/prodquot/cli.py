"""Command-line interface: JSON job documents in, deterministic JSON reports out.

Job schema ``prodquot-job/1``::

    {
      "schema": "prodquot-job/1",
      "name": "kummer",
      "group": {"degree": 2, "generators": [[1, 0]]},
      "actions": [
        {
          "projection": "identity",
          "signature": {"genus": 0, "periods": [2, 2, 2, 2]},
          "vector": {"a": [], "b": [], "c": ["g0", "g0", "g0", "g0"]}
        }
      ],
      "budgets": {"max_cosets": 100000, "tietze_steps": 10000,
                  "verify_index_bound": 8},
      "outputs": ["pi1", "abelianization", "freeness", "structure"]
    }

The acting group of each factor is the image of ``projection``:  the whole
group for ``"identity"``, the one-point group for ``"trivial"``, or the closure
of explicit permutation images ``{"degree": d, "images": [[...], ...]}`` (one
image per group generator).  Vector entries are words over ``g0, g1, ...``,
the names of the group's generators pushed through the projection; ``"1"``
is the identity.  Every structural invariant is checked at parse time and
violations carry the JSON path they were found at.

Reports use schema ``prodquot-report/1`` and are byte-identical across runs
for identical effective inputs (timing is only embedded when requested).
Exit codes: 0 success, 2 validation error, 3 budget overflow, 4 internal
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass, fields, replace
from importlib import resources
from typing import Any, Optional, Sequence

from .coset import CosetOverflow
from .orbifold import GeneratingVector, _vector_images
from .perm import (
    MAX_ORDER,
    FiniteGroup,
    GroupHom,
    GroupTooLarge,
    Permutation,
    identity_hom,
    trivial_group,
    trivial_hom,
)
from .presentation import Presentation
from .product_quotient import (
    DEFAULT_INDEX_BOUND,
    DEFAULT_MAX_COSETS,
    DEFAULT_TIETZE_STEPS,
    CurveAction,
    InvalidVector,
    Pi1Result,
    build_curve_action,
    build_pi1,
    freeness_check,
    structure_from_pi1,
    verify_from_pi1,
)
from .rewrite import evaluate_word
from .words import format_word, parse_word

JOB_SCHEMA = "prodquot-job/1"
REPORT_SCHEMA = "prodquot-report/1"

ALL_OUTPUTS = ("pi1", "abelianization", "structure", "verify", "freeness", "enumerate")
DEFAULT_OUTPUTS = ("pi1", "abelianization", "freeness", "structure")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_OVERFLOW = 3
EXIT_INTERNAL = 4


class ParseError(ValueError):
    """The job document is not well-formed (bad JSON, wrong shapes)."""


class ValidationError(ValueError):
    """The job document violates a structural invariant; message carries the path."""


def _fail(path: str, message: str) -> None:
    raise ValidationError(f"{path}: {message}")


def _as_dict(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{path}: expected an object")
    return value


def _as_list(value: Any, path: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{path}: expected an array")
    return value


def _as_int(
    value: Any, path: str, minimum: Optional[int] = None, maximum: Optional[int] = None
) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{path}: expected an integer")
    if minimum is not None and value < minimum:
        _fail(path, f"must be >= {minimum}")
    if maximum is not None and value > maximum:
        _fail(path, f"must be <= {maximum}")
    return value


def _as_str(value: Any, path: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{path}: expected a string")
    return value


def _check_keys(doc: dict, allowed: Sequence[str], path: str) -> None:
    for key in doc:
        if key not in allowed:
            _fail(f"{path}.{key}" if path else key, "unknown key")


def _perm(value: Any, degree: int, path: str) -> Permutation:
    images = _as_list(value, path)
    if len(images) != degree:
        _fail(path, f"permutation must list {degree} images")
    for k in images:
        _as_int(k, path)
    if sorted(images) != list(range(degree)):
        _fail(path, "not a permutation of 0..degree-1")
    return Permutation(tuple(images))


@dataclass(frozen=True)
class Budgets:
    max_cosets: int = DEFAULT_MAX_COSETS
    tietze_steps: int = DEFAULT_TIETZE_STEPS
    verify_index_bound: int = DEFAULT_INDEX_BOUND


@dataclass
class Job:
    """A parsed, fully validated job: the unit of work for :func:`run_job`."""

    name: str
    group: FiniteGroup
    actions: list[CurveAction]
    budgets: Budgets
    outputs: tuple[str, ...]
    raw: dict  # normalized echo, serializable

    def with_budgets(self, **overrides: int) -> "Job":
        updates = {k: v for k, v in overrides.items() if v is not None}
        if not updates:
            return self
        budgets = replace(self.budgets, **updates)
        raw = dict(self.raw)
        raw["budgets"] = asdict(budgets)
        return Job(self.name, self.group, self.actions, budgets, self.outputs, raw)

    def with_outputs(self, outputs: Sequence[str]) -> "Job":
        wanted = tuple(dict.fromkeys(outputs))
        raw = dict(self.raw)
        raw["outputs"] = list(wanted)
        return Job(self.name, self.group, self.actions, self.budgets, wanted, raw)


def _parse_group(doc: Any, path: str) -> tuple[FiniteGroup, dict]:
    spec = _as_dict(doc, path)
    _check_keys(spec, ("degree", "generators"), path)
    if "degree" not in spec:
        _fail(f"{path}.degree", "required")
    degree = _as_int(spec["degree"], f"{path}.degree", minimum=1)
    gen_lists = _as_list(spec.get("generators", []), f"{path}.generators")
    perms = [
        _perm(item, degree, f"{path}.generators[{k}]")
        for k, item in enumerate(gen_lists)
    ]
    try:
        # with no generators the group is trivial: its points are not listed
        group = FiniteGroup(perms, degree=degree) if perms else trivial_group()
    except GroupTooLarge as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    echo = {"degree": degree, "generators": [list(p.images) for p in perms]}
    return group, echo


def _parse_projection(
    doc: Any, group: FiniteGroup, path: str
) -> tuple[GroupHom, Any]:
    if doc in ("identity", "trivial"):
        return (identity_hom(group) if doc == "identity" else trivial_hom(group)), doc
    if isinstance(doc, str):
        _fail(path, "expected \"identity\", \"trivial\", or {degree, images}")
    spec = _as_dict(doc, path)
    _check_keys(spec, ("degree", "images"), path)
    if "degree" not in spec or "images" not in spec:
        _fail(path, "projection object needs degree and images")
    degree = _as_int(spec["degree"], f"{path}.degree", minimum=1)
    images = _as_list(spec["images"], f"{path}.images")
    if len(images) != len(group.generators):
        _fail(f"{path}.images", "one permutation per group generator required")
    perms = [
        _perm(item, degree, f"{path}.images[{k}]") for k, item in enumerate(images)
    ]
    nontrivial = [p for p in perms if not p.is_identity()]
    try:
        if nontrivial:
            target = FiniteGroup(nontrivial, degree=degree)
        else:  # lists its points only as long as the images do
            target = trivial_group(degree if perms else 1)
        hom = GroupHom(group, target, [target.element_index(p) for p in perms])
    except (GroupTooLarge, ValueError) as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    echo = {"degree": degree, "images": [list(p.images) for p in perms]}
    return hom, echo


def _parse_signature(doc: Any, path: str) -> tuple[int, tuple[int, ...]]:
    spec = _as_dict(doc, path)
    _check_keys(spec, ("genus", "periods"), path)
    if "genus" not in spec:
        _fail(f"{path}.genus", "required")
    genus = _as_int(spec["genus"], f"{path}.genus", minimum=0)
    periods = tuple(
        _as_int(m, f"{path}.periods[{k}]", minimum=2)
        for k, m in enumerate(_as_list(spec.get("periods", []), f"{path}.periods"))
    )
    return genus, periods


def _parse_vector_words(
    doc: Any,
    hom: GroupHom,
    group_names: dict[str, int],
    genus: int,
    periods: tuple[int, ...],
    path: str,
) -> tuple[GeneratingVector, dict]:
    spec = _as_dict(doc, path)
    _check_keys(spec, ("a", "b", "c"), path)
    target = hom.target

    def images(key: str, expected: int) -> tuple[tuple[int, ...], list[str]]:
        items = _as_list(spec.get(key, []), f"{path}.{key}")
        if len(items) != expected:
            _fail(f"{path}.{key}", f"expected {expected} entries, got {len(items)}")
        values: list[int] = []
        echoes: list[str] = []
        names = list(group_names)
        for k, item in enumerate(items):
            text = _as_str(item, f"{path}.{key}[{k}]")
            try:
                word = parse_word(text, group_names)
            except ValueError as exc:
                raise ValidationError(f"{path}.{key}[{k}]: {exc}") from exc
            values.append(evaluate_word(word, hom.gen_images, target))
            echoes.append(format_word(word, names))
        return tuple(values), echoes

    a_images, a_echo = images("a", genus)
    b_images, b_echo = images("b", genus)
    c_images, c_echo = images("c", len(periods))
    vector = GeneratingVector(
        target=target,
        genus=genus,
        periods=periods,
        a_images=a_images,
        b_images=b_images,
        c_images=c_images,
    )
    return vector, {"a": a_echo, "b": b_echo, "c": c_echo}


def parse_job(document: str) -> Job:
    """Parse and validate a job document; every invariant is checked here."""
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    top = _as_dict(data, "$")
    _check_keys(top, ("schema", "name", "group", "actions", "budgets", "outputs"), "")
    schema = top.get("schema")
    if schema != JOB_SCHEMA:
        raise ParseError(f"schema: expected {JOB_SCHEMA!r}, got {schema!r}")
    name = _as_str(top.get("name", "job"), "name")

    if "group" not in top:
        _fail("group", "required")
    group, group_echo = _parse_group(top["group"], "group")
    group_names = {f"g{i}": i for i in range(len(group.generators))}

    actions_doc = _as_list(top.get("actions", []), "actions")
    if not actions_doc:
        _fail("actions", "at least one action required")
    actions: list[CurveAction] = []
    actions_echo: list[dict] = []
    for i, action_doc in enumerate(actions_doc):
        path = f"actions[{i}]"
        spec = _as_dict(action_doc, path)
        _check_keys(spec, ("projection", "signature", "vector"), path)
        for key in ("projection", "signature", "vector"):
            if key not in spec:
                _fail(f"{path}.{key}", "required")
        hom, proj_echo = _parse_projection(spec["projection"], group, f"{path}.projection")
        genus, periods = _parse_signature(spec["signature"], f"{path}.signature")
        vector, vec_echo = _parse_vector_words(
            spec["vector"], hom, group_names, genus, periods, f"{path}.vector"
        )
        try:
            actions.append(build_curve_action(group, hom, vector))
        except (InvalidVector, ValueError) as exc:
            raise ValidationError(f"{path}.vector: {exc}") from exc
        actions_echo.append(
            {
                "projection": proj_echo,
                "signature": {"genus": genus, "periods": list(periods)},
                "vector": vec_echo,
            }
        )

    budgets_doc = _as_dict(top.get("budgets", {}), "budgets")
    keys = tuple(f.name for f in fields(Budgets))
    _check_keys(budgets_doc, keys, "budgets")
    # no verify quotient above perm.MAX_ORDER can be built, and the search
    # lists its whole catalogue up to the bound first
    budgets = Budgets(**{
        key: _as_int(
            budgets_doc[key], f"budgets.{key}", 1,
            MAX_ORDER if key == "verify_index_bound" else None,
        )
        for key in keys if key in budgets_doc
    })

    outputs_doc = _as_list(top.get("outputs", list(DEFAULT_OUTPUTS)), "outputs")
    outputs: list[str] = []
    for k, item in enumerate(outputs_doc):
        text = _as_str(item, f"outputs[{k}]")
        if text not in ALL_OUTPUTS:
            _fail(f"outputs[{k}]", f"unknown output {text!r}")
        if text not in outputs:
            outputs.append(text)

    raw = {
        "schema": JOB_SCHEMA,
        "name": name,
        "group": group_echo,
        "actions": actions_echo,
        "budgets": asdict(budgets),
        "outputs": outputs,
    }
    return Job(name, group, actions, budgets, tuple(outputs), raw)


def emit_job(job: Job) -> str:
    """Serialize a job back to its document form (parse_job round-trips it)."""
    return _emit(job.raw, "\n") + "\n"


# ---------------------------------------------------------------------------
# Report assembly.


def _dataclass_doc(obj) -> dict:
    """A report dataclass as its document: its fields by name, tuples as lists."""
    return asdict(
        obj, dict_factory=lambda kv: {k: list(v) if isinstance(v, tuple) else v for k, v in kv}
    )


def _presentation_doc(p: Presentation) -> dict:
    return {
        "generators": list(p.gens),
        "relators": [format_word(rel, p.gens) for rel in p.relators],
    }


def _element_word(group: FiniteGroup, e: int) -> str:
    letters = group.element_word(e)
    return "*".join(f"g{i}" for i in letters) if letters else "1"


def _pi1_doc(res: Pi1Result, group: FiniteGroup) -> dict:
    return {
        "presentation": _presentation_doc(res.presentation),
        "ngens_raw": res.raw_presentation.ngens,
        "nrels_raw": len(res.raw_presentation.relators),
        "torsion_count": len(res.torsion),
        "deck_images": [_element_word(group, e) for e in res.psi],
    }


def _enumerate_doc(actions: Sequence[CurveAction]) -> list[dict]:
    """One section per action, from orbifold's image tuples; factors with the
    same acting group, genus and periods share one section, and equal image
    tuples one list of names."""
    keys = [(a.acting_group, a.vector.genus, a.vector.periods) for a in actions]
    sections: dict[tuple, dict] = {}
    for key in keys:
        if key in sections:
            continue
        h = key[0]
        vectors = _vector_images(*key)
        names = [_element_word(h, e) for e in range(h.order)]
        named = dict.fromkeys(t for w in vectors for t in w)
        for images in named:
            named[images] = [names[e] for e in images]
        sections[key] = {
            "count": len(vectors),
            "vectors": [{"a": named[a], "b": named[b], "c": named[c]} for a, b, c in vectors],
        }
    return [sections[key] for key in keys]


def _log(quiet: bool, message: str) -> None:
    if not quiet:
        print(f"[prodquot] {message}", file=sys.stderr)


def run_job(job: Job, timing: bool = False, quiet: bool = True) -> dict:
    """Run every requested output; overflow becomes an embedded marker."""
    report: dict[str, Any] = {
        "schema": REPORT_SCHEMA,
        "job": job.raw,
        "results": {},
        "warnings": [],
        "status": "ok",
    }
    results: dict[str, Any] = report["results"]
    stage_seconds: dict[str, float] = {}

    for i, action in enumerate(job.actions):
        sig = action.signature
        if not sig.is_hyperbolic():
            report["warnings"].append(
                f"actions[{i}]: signature (genus {sig.genus}; periods "
                f"{list(sig.periods)}) is not hyperbolic"
            )

    def overflow(stage: str, exc: Exception) -> None:
        results[stage] = {"overflow": str(exc)}
        report["status"] = "overflow"
        _log(quiet, f"{stage}: overflow ({exc})")

    def run_stage(stage, thunk):
        start = time.perf_counter()
        try:
            value = thunk()
        except (CosetOverflow, GroupTooLarge) as exc:
            overflow(stage, exc)
            return None, False
        finally:
            stage_seconds[stage] = time.perf_counter() - start
        return value, True

    if "freeness" in job.outputs:
        free = freeness_check(job.actions)
        results["freeness"] = {
            "is_free": free.is_free,
            "witness": None
            if free.witness is None
            else _element_word(job.group, free.witness),
        }
        _log(quiet, f"freeness: {free.is_free}")

    if "enumerate" in job.outputs:
        value, ok = run_stage("enumerate", lambda: _enumerate_doc(job.actions))
        if ok:
            results["enumerate"] = value
            _log(quiet, f"enumerate: {[d['count'] for d in value]} vectors per action")

    pi1_stages = [s for s in ("pi1", "abelianization", "structure", "verify") if s in job.outputs]
    if pi1_stages:
        res, ok = run_stage(
            "pi1",
            lambda: build_pi1(job.actions, job.budgets.max_cosets, job.budgets.tietze_steps),
        )
        if not ok:
            for stage in pi1_stages:
                if stage not in results:
                    results[stage] = {"overflow": "fundamental group construction overflowed"}
        else:
            if "pi1" in job.outputs:
                results["pi1"] = _pi1_doc(res, job.group)
                _log(
                    quiet,
                    f"pi1: {res.presentation.ngens} generators, "
                    f"{len(res.presentation.relators)} relators",
                )
            if "abelianization" in job.outputs:
                inv = res.abelianization
                results["abelianization"] = _dataclass_doc(inv)
                _log(quiet, f"abelianization: rank {inv.free_rank}, torsion {list(inv.torsion)}")
            if "structure" in job.outputs:
                structure_rep, ok = run_stage("structure", lambda: structure_from_pi1(res))
                if ok:
                    results["structure"] = _dataclass_doc(structure_rep)
                    _log(
                        quiet,
                        "structure: t-index "
                        f"{structure_rep.t_index_bound}"
                        f"{' (exact)' if structure_rep.t_index_exact else ''}, "
                        f"deck-quotient bound {structure_rep.e_order_bound}",
                    )
            if "verify" in job.outputs:
                verification, ok = run_stage(
                    "verify",
                    lambda: verify_from_pi1(res, job.budgets.verify_index_bound),
                )
                if ok:
                    results["verify"] = _dataclass_doc(verification)
                    _log(quiet, f"verify: {verification.status}")

    if timing:
        report["timing"] = {k: round(v, 3) for k, v in sorted(stage_seconds.items())}
    return report


def render_report(report: dict) -> str:
    """The report's text: ``json.dumps(report, indent=2, sort_keys=True)`` and a newline."""
    return _emit(report, "\n") + "\n"


_encode_str = json.encoder.encode_basestring_ascii


def _emit(value: Any, nl: str, shared: Optional[dict[int, str]] = None) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte.

    With an ``indent``, ``json`` falls back to its pure-Python encoder; this
    emitter builds the same text from one string per value.  ``nl`` is a
    newline plus the indent of the line the value starts on.  A list or
    tuple of strings is one ``join``; an empty dict is ``{}``; dicts with
    ``str`` keys, lists and tuples recurse, and every other value (floats,
    subclasses, dicts with other keys, objects ``json`` rejects) goes to
    ``json.dumps`` itself, re-indented to its depth.  The items of any other
    list are emitted in one loop, where an item that is the previous item
    repeats its text and a list that is a value in several of the items is
    emitted once: ``shared`` maps its id to its text, all at one depth.
    """
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = nl + "  "
        try:
            body = ("," + inner).join(map(_encode_str, value))
        except TypeError:
            texts: list[str] = []
            values: dict[int, str] = {}  # ``shared`` for the items
            for v in value:
                texts.append(texts[-1] if texts and v is prev else _emit(v, inner, values))
                prev = v
            body = ("," + inner).join(texts)
        return f"[{inner}{body}{nl}]"
    if kind is dict:
        if not value:
            return "{}"
        inner = nl + "  "
        try:
            items = []
            for k, v in sorted(value.items()):
                if shared is None or type(v) is not list:
                    text = _emit(v, inner)
                elif (text := shared.get(id(v))) is None:
                    text = shared[id(v)] = _emit(v, inner)
                items.append(f"{_encode_str(k)}: {text}")
        except TypeError:
            pass  # a key that is not a str, or a value json rejects: json decides
        else:
            return "{" + inner + ("," + inner).join(items) + nl + "}"
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", nl)


# ---------------------------------------------------------------------------
# Bundled jobs.


def bundled_job_names() -> list[str]:
    root = resources.files("prodquot").joinpath("data/jobs")
    return sorted(p.name[: -len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def bundled_job_text(name: str) -> str:
    root = resources.files("prodquot").joinpath("data/jobs")
    path = root.joinpath(f"{name}.json")
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError as exc:
        raise KeyError(f"no bundled job named {name!r}") from exc


def load_bundled_job(name: str) -> Job:
    return parse_job(bundled_job_text(name))


# ---------------------------------------------------------------------------
# Entry points.


def _read_job(args: argparse.Namespace) -> Job:
    if args.job and args.job != "-":
        if "/" not in args.job and not args.job.endswith(".json"):
            text = bundled_job_text(args.job)  # bare name = bundled job
        else:
            with open(args.job, "r", encoding="utf-8") as fh:
                text = fh.read()
    else:
        text = sys.stdin.read()
    job = parse_job(text)
    return job.with_budgets(
        max_cosets=args.max_cosets,
        tietze_steps=args.tietze_steps,
        verify_index_bound=args.index_bound,
    )


def _write(args: argparse.Namespace, text: str) -> None:
    if args.out and args.out != "-":
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _job_command(args: argparse.Namespace, outputs: Optional[Sequence[str]]) -> int:
    try:
        job = _read_job(args)
    except (ParseError, ValidationError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if outputs is not None:
        job = job.with_outputs(outputs)
    try:
        report = run_job(job, timing=args.timing, quiet=args.quiet)
    except Exception as exc:  # internal consistency failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    _write(args, render_report(report))
    return EXIT_OK if report["status"] == "ok" else EXIT_OVERFLOW


def _cmd_selftest(args: argparse.Namespace) -> int:
    from . import acceptance

    results = acceptance.run_all(quiet=args.quiet)
    lines = [acceptance.format_line(r) for r in results]
    _write(args, "\n".join(lines) + "\n")
    return EXIT_OK if all(r.passed for r in results) else EXIT_INTERNAL


def _cmd_list_jobs(args: argparse.Namespace) -> int:
    _write(args, "\n".join(bundled_job_names()) + "\n")
    return EXIT_OK


def _budget_override(text: str, maximum: Optional[int] = None) -> int:
    """argparse type of the budget flags: the same rule as ``budgets.*``."""
    try:
        return _as_int(int(text), repr(text), 1, maximum)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prodquot",
        description="Fundamental groups of quotients of products of curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def job_sub(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--job", help="job file, '-' for stdin, or a bundled job name")
        p.add_argument("--max-cosets", type=_budget_override, help="coset table budget override")
        p.add_argument(
            "--tietze-steps", type=_budget_override, help="simplification budget override"
        )
        p.add_argument(
            "--index-bound",
            type=lambda text: _budget_override(text, MAX_ORDER),
            help="verification quotient bound override",
        )
        p.add_argument("--out", help="report file (default stdout)")
        p.add_argument("--quiet", action="store_true", help="suppress progress lines")
        p.add_argument("--timing", action="store_true", help="embed stage timing in the report")
        return p

    job_sub("run", "run the job's own requested outputs")
    job_sub("pi1", "present the fundamental group (plus its abelianization)")
    job_sub("structure", "surface-group structure report")
    job_sub("verify", "search for a finite-index product-of-surface-groups subgroup")
    job_sub("freeness", "decide whether the diagonal action is free")
    job_sub("enumerate-vectors", "enumerate all generating vectors per action")

    p = sub.add_parser("selftest", help="run the bundled acceptance suite")
    p.add_argument("--out", help="table file (default stdout)")
    p.add_argument("--quiet", action="store_true", help="suppress progress lines")

    p = sub.add_parser("list-jobs", help="list bundled job names")
    p.add_argument("--out", help="output file (default stdout)")
    return parser


_COMMAND_OUTPUTS: dict[str, Optional[tuple[str, ...]]] = {
    "run": None,
    "pi1": ("pi1", "abelianization"),
    "structure": ("structure",),
    "verify": ("verify",),
    "freeness": ("freeness",),
    "enumerate-vectors": ("enumerate",),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "selftest":
        return _cmd_selftest(args)
    if args.command == "list-jobs":
        return _cmd_list_jobs(args)
    return _job_command(args, _COMMAND_OUTPUTS[args.command])


if __name__ == "__main__":
    sys.exit(main())
