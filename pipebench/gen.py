"""Deterministic job-document generator for the pipeline benchmark.

Self-contained on purpose: groups, generating vectors and freeness are
computed here with plain tuples, never with the package under test, so a
change to the package cannot change the benchmark's inputs.

Permutations follow the package's convention: ``mul(p, q)[i] == p[q[i]]``
(the right factor acts first), and a job word ``g0*g1`` evaluates to
``mul(g0, g1)``.

Three document sets:

* ``bundled``   the shipped job files under ``src/prodquot/data/jobs``;
* ``classify``  drawn per seed from a frozen pool (``frozen/classify_pool.json``);
* ``beauville`` free (Z/5)^2 actions of signature (0; 5,5,5)^2: the reference
  pair plus one drawn per seed from ``frozen/beauville_pool.json``.

``python3 pipebench/gen.py --build-pool`` rewrites both pools; it times the
candidates with the package under ``src/``, so run it only on trusted code.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
FROZEN = os.path.join(HERE, "frozen")
POOL_FILE = os.path.join(FROZEN, "classify_pool.json")
BEAUVILLE_POOL_FILE = os.path.join(FROZEN, "beauville_pool.json")

CLASSIFY_OUTPUTS = ["enumerate", "freeness", "pi1", "abelianization"]
BEAUVILLE_OUTPUTS = ["pi1", "abelianization", "freeness", "structure", "verify"]
POOL_PER_STRATUM = 6  # candidate pairs frozen per stratum
CLASSIFY_DRAWS = 2  # pairs each seed draws per stratum (fewer if it holds fewer)
BEAUVILLE_DRAWS = 1  # seed-drawn pairs beside the fixed reference pair
BEAUVILLE_DRAW_GENS = 4  # pi1 generator count of the drawn pairs
BEAUVILLE_SAMPLE = 80  # free pairs examined when building the beauville pool
BEAUVILLE_COST_BAND = 0.07  # drawable pairs cost within this share of each other's centre
SPREAD_LIMIT = 5.0  # a stratum whose member costs differ more is pinned
BUILD_LIMIT_S = 20.0  # pool documents slower than this are runaways, never run
HELD_OUT_SEED = 9001  # never used while tuning; for claims on an unseen seed


# ---------------------------------------------------------------------------
# Permutation groups.


def mul(p, q):
    return tuple(p[i] for i in q)


def inv(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def cycle(degree, *cycles):
    img = list(range(degree))
    for cyc in cycles:
        for i, pt in enumerate(cyc):
            img[pt] = cyc[(i + 1) % len(cyc)]
    return tuple(img)


class Group:
    """Breadth-first closure; elements[0] is the identity, words[e] spells e."""

    def __init__(self, name, gens):
        self.name = name
        self.gens = [tuple(g) for g in gens]
        self.degree = len(self.gens[0])
        ident = tuple(range(self.degree))
        self.elements = [ident]
        self.words = [[]]
        index = {ident: 0}
        for x in self.elements:
            for k, g in enumerate(self.gens):
                y = mul(x, g)
                if y not in index:
                    index[y] = len(self.elements)
                    self.elements.append(y)
                    self.words.append(self.words[index[x]] + [k])
        self.index = index
        n = len(self.elements)
        self.table = [[index[mul(a, b)] for b in self.elements] for a in self.elements]
        self.inverse = [index[inv(a)] for a in self.elements]
        self.orders = [self._order(e) for e in range(n)]

    @property
    def order(self):
        return len(self.elements)

    def _order(self, e):
        k, acc = 1, e
        while acc:
            acc = self.table[acc][e]
            k += 1
        return k

    def word(self, e):
        if not self.words[e]:
            return "1"
        out, prev, run = [], None, 0
        for k in self.words[e] + [None]:
            if k == prev:
                run += 1
                continue
            if prev is not None:
                out.append(f"g{prev}" + (f"^{run}" if run > 1 else ""))
            prev, run = k, 1
        return "*".join(out)

    def generated(self, elems):
        seen = {0}
        frontier = [0]
        gens = [e for e in set(elems) if e]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = self.table[x][g]
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return len(seen)

    def conj_class(self, e):
        return {self.table[self.table[h][e]][self.inverse[h]] for h in range(self.order)}

    def doc(self):
        return {"degree": self.degree, "generators": [list(g) for g in self.gens]}


def _quaternion_group():
    # regular representation of Q8 on {±1, ±i, ±j, ±k}, point = 4*sign + unit
    unit_mul = {
        (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
        (1, 0): (0, 1), (1, 1): (1, 0), (1, 2): (0, 3), (1, 3): (1, 2),
        (2, 0): (0, 2), (2, 1): (1, 3), (2, 2): (1, 0), (2, 3): (0, 1),
        (3, 0): (0, 3), (3, 1): (0, 2), (3, 2): (1, 1), (3, 3): (1, 0),
    }

    def left(u):
        img = []
        for pt in range(8):
            sign, v = divmod(pt, 4)
            s, w = unit_mul[(u, v)]
            img.append(4 * ((sign + s) % 2) + w)
        return tuple(img)

    return Group("Q8", [left(1), left(2)])


def small_groups():
    """Every group of order 2..9 up to isomorphism, abelian and not."""
    out = [Group(f"Z{n}", [cycle(n, tuple(range(n)))]) for n in range(2, 10)]
    out += [
        Group("Z2xZ2", [cycle(4, (0, 1)), cycle(4, (2, 3))]),
        Group("S3", [cycle(3, (0, 1)), cycle(3, (0, 1, 2))]),
        Group("Z2xZ4", [cycle(6, (0, 1)), cycle(6, (2, 3, 4, 5))]),
        Group("Z2xZ2xZ2", [cycle(6, (0, 1)), cycle(6, (2, 3)), cycle(6, (4, 5))]),
        Group("D4", [cycle(4, (0, 1, 2, 3)), (0, 3, 2, 1)]),
        _quaternion_group(),
        Group("Z3xZ3", [cycle(6, (0, 1, 2)), cycle(6, (3, 4, 5))]),
    ]
    return sorted(out, key=lambda g: (g.order, g.name))


# ---------------------------------------------------------------------------
# Generating vectors and freeness.


def generating_vectors(group, genus, periods):
    """All (a, b, c) image tuples satisfying the orbifold relations that
    generate the group, in lexicographic order of element indices."""
    t = group.table
    by_order = [[e for e in range(group.order) if group.orders[e] == m] for m in periods]
    out = []
    for ab in itertools.product(range(group.order), repeat=2 * genus):
        acc = 0
        for a, b in zip(ab[0::2], ab[1::2]):
            comm = t[t[t[a][b]][group.inverse[a]]][group.inverse[b]]
            acc = t[acc][comm]
        for cs in itertools.product(*by_order):
            x = acc
            for c in cs:
                x = t[x][c]
            if x == 0 and group.generated(ab + cs) == group.order:
                out.append((ab[0::2], ab[1::2], cs))
    return out


def stabilizers(group, vector):
    """Elements with a fixed point on the curve: conjugates of c powers."""
    hits = {0}
    for c in vector[2]:
        x = c
        while x:
            hits |= group.conj_class(x)
            x = group.table[x][c]
    return frozenset(hits)


def genus0_signature(group):
    """Least triangle signature with a generating vector, else (0; 2,2,2,2)."""
    orders = sorted({m for m in group.orders if m > 1})
    for periods in itertools.combinations_with_replacement(orders, 3):
        if generating_vectors(group, 0, periods):
            return (0, periods)
    return (0, (2, 2, 2, 2))


def positive_signature(group):
    """Least (1; m, m) with a generating vector."""
    for m in sorted({m for m in group.orders if m > 1}):
        if generating_vectors(group, 1, (m, m)):
            return (1, (m, m))
    raise ValueError(f"{group.name}: no (1; m, m) signature")


def sig_text(sig):
    return f"({sig[0]};{','.join(map(str, sig[1]))})"


def job_document(name, group, sigs, vectors, outputs):
    actions = []
    for (genus, periods), (a, b, c) in zip(sigs, vectors):
        actions.append(
            {
                "projection": "identity",
                "signature": {"genus": genus, "periods": list(periods)},
                "vector": {
                    "a": [group.word(e) for e in a],
                    "b": [group.word(e) for e in b],
                    "c": [group.word(e) for e in c],
                },
            }
        )
    doc = {
        "schema": "prodquot-job/1",
        "name": name,
        "group": group.doc(),
        "actions": actions,
        "outputs": list(outputs),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# The classify pool.


def build_pool():
    """Every (group, signature pair, free?) stratum with a seeded sample of
    up to POOL_PER_STRATUM candidate documents."""
    strata = []
    for group in small_groups():
        s0, s1 = genus0_signature(group), positive_signature(group)
        vecs = {s: generating_vectors(group, *s) for s in (s0, s1)}
        stabs = {s: [stabilizers(group, v) for v in vecs[s]] for s in (s0, s1)}
        for sa, sb in ((s0, s0), (s0, s1), (s1, s1)):
            if sa == sb:
                pairs = itertools.combinations_with_replacement(range(len(vecs[sa])), 2)
            else:
                pairs = itertools.product(range(len(vecs[sa])), range(len(vecs[sb])))
            by_free = {True: [], False: []}
            for i, j in pairs:
                free = len(stabs[sa][i] & stabs[sb][j]) == 1
                by_free[free].append((i, j))
            for free in (True, False):
                cands = by_free[free]
                if not cands:
                    continue
                key = f"{group.name} {sig_text(sa)}x{sig_text(sb)} {'free' if free else 'nonfree'}"
                rng = random.Random(key)
                picked = sorted(rng.sample(range(len(cands)), min(POOL_PER_STRATUM, len(cands))))
                docs = []
                for n, k in enumerate(picked):
                    i, j = cands[k]
                    name = f"classify-{key.replace(' ', '-')}-{n}"
                    docs.append(
                        job_document(
                            name, group, (sa, sb), (vecs[sa][i], vecs[sb][j]), CLASSIFY_OUTPUTS
                        )
                    )
                strata.append({"stratum": key, "free": free, "size": len(cands), "docs": docs})
    return strata


def measure_pool(strata, src_root):
    """Time every pool document once with the package at src_root and decide
    per stratum whether the seed draws (member costs within SPREAD_LIMIT of
    each other) or the stratum is pinned to its first member that finishes
    within BUILD_LIMIT_S.  Documents over the limit are marked runaway."""
    import signal
    import time

    sys.path.insert(0, src_root)
    import prodquot.cli as cli

    class Runaway(BaseException):
        pass

    def alarm(signum, frame):
        raise Runaway()

    signal.signal(signal.SIGALRM, alarm)
    for stratum in strata:
        costs = []
        for text in stratum["docs"]:
            signal.setitimer(signal.ITIMER_REAL, BUILD_LIMIT_S)
            t0 = time.perf_counter()
            try:
                cli.render_report(cli.run_job(cli.parse_job(text)))
                costs.append(round(time.perf_counter() - t0, 3))
            except Runaway:
                costs.append(None)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        done = [c for c in costs if c is not None]
        steady = len(done) == len(costs) and max(done) <= SPREAD_LIMIT * min(done)
        stratum["seconds"] = costs
        stratum["pinned"] = None if steady else costs.index(done[0])
        print(f"{stratum['stratum']}: {costs}{'' if steady else ' pinned'}", flush=True)
    return strata


def load_pool():
    with open(POOL_FILE, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Beauville's (Z/5)^2 surface.

BEAUVILLE_GROUP = Group("Z5xZ5", [cycle(10, (0, 1, 2, 3, 4)), cycle(10, (5, 6, 7, 8, 9))])
BEAUVILLE_SIG = (0, (5, 5, 5))


def _beauville_reference():
    g = BEAUVILLE_GROUP
    g0, g1 = (g.index[p] for p in g.gens)
    t = g.table

    def power(x, n):
        acc = 0
        for _ in range(n):
            acc = t[acc][x]
        return acc

    def elem(i, j):
        return t[power(g0, i)][power(g1, j)]

    return (((), (), (elem(1, 0), elem(0, 1), elem(4, 4))),
            ((), (), (elem(1, 2), elem(3, 4), elem(1, 4))))


def beauville_pairs():
    """All free unordered pairs of (0; 5,5,5) generating vectors, sorted."""
    g = BEAUVILLE_GROUP
    vecs = generating_vectors(g, *BEAUVILLE_SIG)
    stabs = [stabilizers(g, v) for v in vecs]
    return [
        (vecs[i], vecs[j])
        for i, j in itertools.combinations(range(len(vecs)), 2)
        if len(stabs[i] & stabs[j]) == 1
    ]


def beauville_document(name, pair):
    g = BEAUVILLE_GROUP
    return job_document(name, g, (BEAUVILLE_SIG, BEAUVILLE_SIG), pair, BEAUVILLE_OUTPUTS)


def build_beauville_pool(src_root):
    """Free pairs from a seeded sample of the 5760 that cost what the typical
    drawn pair costs, so the seed moves the inputs and not the cost.

    The verify search enumerates homomorphisms onto groups of order up to
    8, so its cost follows the generator count of pi1's presentation as the
    package simplifies it (reference pair: 3 generators, 22-29 s; 4: 8-23 s;
    5: ~18 s on a 2-core container).  Kept: pairs with
    BEAUVILLE_DRAW_GENS generators, each with its whole job timed once and
    scaled to the reference host speed (child.HostSpeed); the seed draws
    from the densest cost cluster (see beauville_drawable)."""
    import time

    sys.path.insert(0, src_root)
    import child
    import prodquot.cli as cli

    ref = _beauville_reference()
    pairs = [p for p in beauville_pairs() if p != ref and p != ref[::-1]]
    sample = random.Random("beauville-pool").sample(pairs, BEAUVILLE_SAMPLE)
    speed = child.HostSpeed()
    counts = {}
    timed = []
    for pair in sample:
        text = beauville_document("probe", pair)
        job = cli.parse_job(text).with_outputs(["pi1"])
        k = len(cli.run_job(job)["results"]["pi1"]["presentation"]["generators"])
        counts[k] = counts.get(k, 0) + 1
        if k == BEAUVILLE_DRAW_GENS:
            first = speed.mark()
            t0 = time.perf_counter()
            cli.render_report(cli.run_job(cli.parse_job(text)))
            seconds = time.perf_counter() - t0
            timed.append((seconds / speed.factor(first, speed.mark()), pair))
            print(f"beauville candidate {len(timed)}: {timed[-1][0]:.2f}s scaled", flush=True)
    pool = {
        "generator_counts": counts,
        "candidates": [
            {"scaled_seconds": round(c, 2), "doc": beauville_document(f"beauville-drawn-{n}", p)}
            for n, (c, p) in enumerate(timed)
        ],
    }
    print(f"beauville: {BEAUVILLE_SAMPLE} sampled pairs by pi1 generator count {counts}; "
          f"{len(beauville_drawable(pool))} of {len(timed)} drawable")
    return pool


def beauville_drawable(pool):
    """The largest set of candidates whose costs lie within
    BEAUVILLE_COST_BAND of one candidate's (the cheaper set on a tie)."""
    cands = pool["candidates"]
    best = []
    for centre in sorted(c["scaled_seconds"] for c in cands):
        near = [c["doc"] for c in cands
                if abs(c["scaled_seconds"] - centre) <= BEAUVILLE_COST_BAND * centre]
        if len(near) > len(best):
            best = near
    return best


# ---------------------------------------------------------------------------
# Per-seed document lists.


def bundled_documents(src_root, seed):
    jobs = os.path.join(src_root, "prodquot", "data", "jobs")
    names = sorted(n for n in os.listdir(jobs) if n.endswith(".json"))
    random.Random(f"bundled:{seed}").shuffle(names)
    docs = []
    for n in names:
        with open(os.path.join(jobs, n), encoding="utf-8") as fh:
            docs.append({"name": n[: -len(".json")], "text": fh.read()})
    return docs


def classify_documents(seed):
    rng = random.Random(f"classify:{seed}")
    docs = []
    for stratum in load_pool():
        if stratum["pinned"] is not None:
            picks = [stratum["pinned"]]
        else:
            n = len(stratum["docs"])
            picks = sorted(rng.sample(range(n), min(n, CLASSIFY_DRAWS)))
        for k in picks:
            text = stratum["docs"][k]
            docs.append({"name": json.loads(text)["name"], "text": text})
    rng.shuffle(docs)
    return docs


def beauville_documents(seed):
    with open(BEAUVILLE_POOL_FILE, encoding="utf-8") as fh:
        pool = beauville_drawable(json.load(fh))
    rng = random.Random(f"beauville:{seed}")
    docs = [{"name": "beauville-reference",
             "text": beauville_document("beauville-reference", _beauville_reference())}]
    for k in sorted(rng.sample(range(len(pool)), BEAUVILLE_DRAWS)):
        docs.append({"name": json.loads(pool[k])["name"], "text": pool[k]})
    return docs


def documents(workload, seed, src_root):
    if workload == "bundled":
        return bundled_documents(src_root, seed)
    if workload == "classify":
        return classify_documents(seed)
    if workload == "beauville":
        return beauville_documents(seed)
    raise ValueError(f"unknown workload {workload!r}")


def digest(docs):
    h = hashlib.sha256()
    for d in docs:
        h.update(d["text"].encode("utf-8"))
    return h.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-pool", action="store_true",
                        help="rewrite the classify and beauville pool files (minutes)")
    args = parser.parse_args(argv)
    if args.build_pool:
        src = os.path.join(os.path.dirname(HERE), "src")
        pool = measure_pool(build_pool(), src)
        os.makedirs(FROZEN, exist_ok=True)
        with open(POOL_FILE, "w", encoding="utf-8") as fh:
            json.dump(pool, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{len(pool)} strata, {sum(len(s['docs']) for s in pool)} documents -> {POOL_FILE}")
        with open(BEAUVILLE_POOL_FILE, "w", encoding="utf-8") as fh:
            json.dump(build_beauville_pool(src), fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0
    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
