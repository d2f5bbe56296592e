"""A seeded job-document fuzzer: mutations of the bundled jobs must be
rejected (exit 2), run (exit 0) or stop on a budget (exit 3), quickly and
without a traceback."""

import copy
import json
import os
import random
import time

from prodquot.cli import bundled_job_names, bundled_job_text, main

SEED = 20261020
CASES = 500
HUGE = (10**6, 10**9, 10**18, 2**64 + 1)
# A verify_index_bound above perm.MAX_ORDER is rejected when the job is
# parsed; one in range is drawn at most 64, since the verify search lists
# its whole catalogue before it tries an entry.
MAX_INDEX_BOUND = 64
BROKEN_WORDS = (
    "", "*", "g0^", "g0^x", "g0^-", "g0**g0", "g0^1.5", "g9", "g-1", "1*", "x y", "g0^^2",
    "g0*", "0", "g0^" + "9" * 40 + "x",
)
WRONG_TYPES = (None, True, "text", 3, -1, 1.5, [], {}, [[]], {"x": 1})


def _nodes(doc, path=()):
    """Every (path, value) below doc, the root included."""
    yield path, doc
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(doc, list):
        for k, value in enumerate(doc):
            yield from _nodes(value, path + (k,))


def _set(doc, path, value):
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value


def _drop_key(doc, rng):
    dicts = [(p, v) for p, v in _nodes(doc) if isinstance(v, dict) and v]
    path, node = rng.choice(dicts)
    del node[rng.choice(sorted(node))]


def _wrong_type(doc, rng):
    path, value = rng.choice([(p, v) for p, v in _nodes(doc) if p])
    _set(doc, path, rng.choice([t for t in WRONG_TYPES if type(t) is not type(value)]))


def _vector_words(doc):
    return [
        (("actions", i, "vector", key, k), word)
        for i, action in enumerate(doc["actions"])
        for key in ("a", "b", "c")
        for k, word in enumerate(action["vector"][key])
    ]


def _broken_word(doc, rng):
    words = _vector_words(doc)
    if words:
        path, word = rng.choice(words)
        broken = rng.choice(BROKEN_WORDS)
        _set(doc, path, rng.choice([broken, f"{word}*{broken}", f"{broken}*{word}"]))


def _huge_exponent(doc, rng):
    words = _vector_words(doc)
    if words:
        path, word = rng.choice(words)
        e = rng.choice(HUGE) + rng.randrange(3)
        _set(doc, path, f"{word}*g0^{rng.choice([e, -e])}" if rng.random() < 0.5 else f"g0^{e}")


def _huge_degree(doc, rng):
    paths = [("group", "degree")] + [
        ("actions", i, "projection", "degree")
        for i, a in enumerate(doc["actions"])
        if isinstance(a["projection"], dict)
    ]
    _set(doc, rng.choice(paths), rng.choice(HUGE))


def _huge_genus(doc, rng):
    i = rng.randrange(len(doc["actions"]))
    signature = doc["actions"][i]["signature"]
    if rng.random() < 0.5 or not signature["periods"]:
        signature["genus"] = rng.choice(HUGE)
    else:
        signature["periods"][rng.randrange(len(signature["periods"]))] = rng.choice(HUGE)


def _budget(doc, rng):
    """A huge budget or a small one; max_cosets 1 overflows (exit 3) and a
    huge verify_index_bound is rejected (exit 2)."""
    key = rng.choice(["max_cosets", "tietze_steps", "verify_index_bound"])
    if rng.random() < 0.5:
        value = rng.choice(HUGE)
    else:
        value = rng.randint(1, MAX_INDEX_BOUND) if key == "verify_index_bound" else 1
    doc.setdefault("budgets", {})[key] = value


MUTATIONS = (
    _drop_key, _wrong_type, _broken_word, _huge_exponent, _huge_degree, _huge_genus, _budget
)


def _cases():
    rng = random.Random(SEED)
    docs = [json.loads(bundled_job_text(name)) for name in bundled_job_names()]
    for _ in range(CASES):
        doc = copy.deepcopy(rng.choice(docs))
        for mutate in rng.sample(MUTATIONS, rng.choice([1, 1, 2])):
            try:
                mutate(doc, rng)
            except (LookupError, TypeError, ValueError):
                pass  # an earlier mutation broke the shape this one needs
        text = json.dumps(doc)
        if rng.random() < 0.05:
            text = text[: rng.randrange(len(text))]
        yield text


def _run(tmp_path, capsys, text):
    path = tmp_path / "job.json"
    path.write_text(text, encoding="utf-8")
    code = main(["run", "--job", str(path), "--quiet", "--out", os.devnull])
    err = capsys.readouterr().err
    assert code in (0, 2, 3), (code, err, text)
    assert "Traceback" not in err and "internal error" not in err, (err, text)
    return code


def test_mutated_bundled_jobs_exit_cleanly(tmp_path, capsys):
    start = time.perf_counter()
    codes = [_run(tmp_path, capsys, text) for text in _cases()]
    # most mutations are rejected, but some jobs still run or overflow
    assert codes.count(2) > CASES // 2 and codes.count(0) and codes.count(3)
    assert time.perf_counter() - start < 10


def test_a_trivial_group_of_huge_degree_is_not_listed(tmp_path, capsys):
    # a group with no generators, and a projection onto one with no images,
    # listed every point of its degree: 10**9 points took gigabytes and
    # 10**18 ended in a MemoryError traceback
    doc = json.loads(bundled_job_text("trivial-group-surfaces"))
    doc["group"]["degree"] = 10**18
    doc["actions"][1]["projection"] = {"degree": 10**18, "images": []}
    start = time.perf_counter()
    assert _run(tmp_path, capsys, json.dumps(doc)) == 0
    assert time.perf_counter() - start < 5
