"""Acceptance suite: seven pinned desk-scale checks of the whole pipeline.

Each criterion is a function returning a :class:`CriterionResult`; the CLI's
``selftest`` subcommand and the test suite both run :func:`run_all` and print
one line per criterion.  Time limits are part of the pass condition.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Optional

from .abelian import AbelianInvariants, invariants_from_matrix
from .cli import bundled_job_names, load_bundled_job
from .coset import todd_coxeter
from .orbifold import (
    Signature,
    enumerate_generating_vectors,
    orbifold_presentation,
    quotient_signature,
)
from .perm import cyclic_group, identity_hom, symmetric_group
from .presentation import abelian_invariants, quotient_presentation
from .product_quotient import (
    build_curve_action,
    build_pi1,
    freeness_check,
    lifted_orbifold_generators,
    structure_from_pi1,
    torsion_generators,
)
from .rewrite import kernel_subgroup_words, subgroup_abelian_invariants
from .words import Word


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    seconds: float
    limit_seconds: Optional[float]
    detail: str


def format_line(r: CriterionResult) -> str:
    verdict = "PASS" if r.passed else "FAIL"
    budget = f" (limit {r.limit_seconds:.0f}s)" if r.limit_seconds else ""
    return f"{verdict} criterion {r.number} [{r.name}]: {r.detail} [{r.seconds:.2f}s{budget}]"


def _result(
    number: int,
    name: str,
    limit: Optional[float],
    start: float,
    ok: bool,
    detail: str,
) -> CriterionResult:
    seconds = time.perf_counter() - start
    within = limit is None or seconds < limit
    return CriterionResult(number, name, ok and within, seconds, limit, detail)


def criterion_1() -> CriterionResult:
    """Single-factor quotients: abelianization and surface-group generation."""
    limit = 10.0
    start = time.perf_counter()
    groups = [cyclic_group(2), cyclic_group(3), symmetric_group(3)]
    checked = 0
    failures = 0
    for g in groups:
        ident = identity_hom(g)
        for genus in (0, 1):
            for r in range(5):
                for periods in itertools.combinations_with_replacement(
                    (2, 3, 4, 5, 6), r
                ):
                    for vec in enumerate_generating_vectors(g, genus, periods):
                        action = build_curve_action(g, ident, vec)
                        res = build_pi1([action])
                        inv = abelian_invariants(res.presentation)
                        surface_gens = lifted_orbifold_generators(res, 0)[: 2 * genus]
                        table = todd_coxeter(
                            res.presentation, surface_gens, max_cosets=20_000
                        )
                        checked += 1
                        if inv != AbelianInvariants(2 * genus) or table.index != 1:
                            failures += 1
    ok = failures == 0 and checked > 0
    return _result(
        1,
        "single-factor quotients",
        limit,
        start,
        ok,
        f"{checked} generating vectors, {failures} failures",
    )


def criterion_2() -> CriterionResult:
    """The classical branched Z/2 quotient of a product of elliptic-type curves
    is simply connected: coset enumeration over the trivial subgroup gives 1."""
    limit = 5.0
    start = time.perf_counter()
    job = load_bundled_job("kummer")
    res = build_pi1(job.actions, max_cosets=10_000)
    table = todd_coxeter(res.presentation, [], max_cosets=10_000)
    ok = table.index == 1
    return _result(
        2, "branched involution quotient", limit, start, ok, f"coset count {table.index}"
    )


def criterion_3() -> CriterionResult:
    """Free involution on two genus-3 curves: the deck-map kernel is an
    index-2 subgroup with free abelianization of rank 12."""
    limit = 30.0
    start = time.perf_counter()
    job = load_bundled_job("free-z2-genus3")
    free = freeness_check(job.actions)
    res = build_pi1(job.actions, job.budgets.max_cosets, job.budgets.tietze_steps)
    words = kernel_subgroup_words(res.psi, job.group)
    table = todd_coxeter(res.presentation, words, max_cosets=job.budgets.max_cosets)
    inv = subgroup_abelian_invariants(res.presentation, table)
    ok = free.is_free and not res.torsion and table.index == 2 and inv == AbelianInvariants(12)
    return _result(
        3,
        "free involution exactness",
        limit,
        start,
        ok,
        f"free={free.is_free}, torsion={len(res.torsion)}, index={table.index}, "
        f"kernel rank {inv.free_rank}, torsion {list(inv.torsion)}",
    )


def _brute_force_torsion_count(actions) -> int:
    """Count torsion normal forms by filtering every candidate tuple.

    A candidate assigns each factor either the trivial coordinate or a
    conjugated period power (q, exponent, conjugator); it survives when every
    coordinate's value matches the group element's image on that factor and
    the first nontrivial coordinate is unconjugated.  Tuples that are trivial
    everywhere never count: the joint kernel acts trivially.
    """
    g = actions[0].group
    count = 0
    for e in range(g.order):
        options = []
        for a in actions:
            h = a.acting_group
            target = a.p_of(e)
            opts = []
            if target == 0:
                opts.append(None)
            for q, m in enumerate(a.vector.periods):
                power = 0
                for ell in range(1, m):
                    power = h.mul_idx(power, a.vector.c_images[q])
                    for z in range(h.order):
                        conj = h.mul_idx(h.mul_idx(z, power), h.inv_idx(z))
                        if conj == target:
                            opts.append((q, ell, z))
            options.append(opts)
        for combo in itertools.product(*options):
            nontrivial = [c for c in combo if c is not None]
            if nontrivial and nontrivial[0][2] == 0:
                count += 1
    return count


def criterion_4() -> CriterionResult:
    """Torsion normal-form count for the branched involution input: the
    recipe gives 4 period choices x 4 conjugate-period choices x 2 lifts."""
    start = time.perf_counter()
    job = load_bundled_job("kummer")
    engine = len(torsion_generators(job.actions))
    brute = _brute_force_torsion_count(job.actions)
    expected = 4 * 4 * 2
    ok = engine == brute == expected
    return _result(
        4,
        "torsion normal-form count",
        None,
        start,
        ok,
        f"engine {engine}, brute force {brute}, formula {expected}",
    )


def criterion_5() -> CriterionResult:
    """Signature-level quotient formula agrees with direct presentation + SNF
    over every small signature and every per-period kill assignment."""
    limit = 60.0
    start = time.perf_counter()
    checked = 0
    failures = 0
    via_cache: dict[Signature, AbelianInvariants] = {}
    for genus in (0, 1, 2):
        for r in range(5):
            for periods in itertools.combinations_with_replacement((2, 3, 4, 5, 6), r):
                sig = Signature.of(genus, periods)
                base = orbifold_presentation(sig)
                # Per period: keep it, kill one power, or kill every power.
                choices = [
                    [None, *({e} for e in range(1, m + 1)), set(range(1, m + 1))]
                    for m in sig.periods
                ]
                for combo in itertools.product(*choices):
                    kill = {i: exps for i, exps in enumerate(combo) if exps}
                    extra = [
                        Word(((2 * genus + q, e),))
                        for q, exps in sorted(kill.items())
                        for e in sorted(exps)
                    ]
                    direct = abelian_invariants(quotient_presentation(base, extra))
                    qsig = quotient_signature(sig, kill)
                    via = via_cache.get(qsig)
                    if via is None:
                        via = abelian_invariants(orbifold_presentation(qsig))
                        via_cache[qsig] = via
                    checked += 1
                    if direct != via:
                        failures += 1
    ok = failures == 0 and checked > 0
    return _result(
        5,
        "quotient-signature oracle",
        limit,
        start,
        ok,
        f"{checked} signature/kill pairs, {failures} disagreements",
    )


def criterion_6() -> CriterionResult:
    """Structure reports across the bundled jobs: the product-of-orbifolds
    index divides |G|^(n-1); with no kills the signatures pass through and
    the deck-quotient bound is the joint kernel's order."""
    start = time.perf_counter()
    names = bundled_job_names()
    failures: list[str] = []
    empty_kill_jobs = 0
    for name in names:
        job = load_bundled_job(name)
        res = build_pi1(job.actions, job.budgets.max_cosets, job.budgets.tietze_steps)
        kills = res.kills
        rep = structure_from_pi1(res)
        bound = job.group.order ** (len(job.actions) - 1)
        if bound % rep.t_index_bound:
            failures.append(f"{name}: index bound {rep.t_index_bound} !| {bound}")
        if all(not k for k in kills):
            empty_kill_jobs += 1
            joint = set(range(job.group.order))
            for a in job.actions:
                joint &= set(a.kernel_indices)
            if rep.quotient_signatures != tuple(a.signature for a in job.actions):
                failures.append(f"{name}: signatures changed without kills")
            if rep.e_order_bound != len(joint):
                failures.append(
                    f"{name}: deck bound {rep.e_order_bound} != joint kernel {len(joint)}"
                )
    ok = not failures and len(names) == 20 and empty_kill_jobs > 0
    detail = (
        f"{len(names)} jobs, {empty_kill_jobs} with empty kill maps"
        + (f"; failures: {failures}" if failures else "")
    )
    return _result(6, "structure report consistency", None, start, ok, detail)


def criterion_7() -> CriterionResult:
    """Coset counts against brute-force permutation arithmetic on the whole
    corpus, and integer-matrix invariants against 50 frozen oracles."""
    limit = 60.0
    start = time.perf_counter()
    from .corpus import build_corpus

    failures = 0
    entries = build_corpus()
    for entry in entries:
        table = todd_coxeter(entry.presentation, [], max_cosets=4 * entry.group.order + 64)
        if table.index != entry.group.order:
            failures += 1
        if entry.presentation.ngens:
            h = entry.group
            sub_order = h.element_order(entry.gen_images[0])
            # Brute-force coset count: grow right cosets of the cyclic
            # subgroup until they cover the group.
            power, cyclic = 0, set()
            while True:
                cyclic.add(power)
                power = h.mul_idx(power, entry.gen_images[0])
                if power == 0:
                    break
            seen: set[int] = set()
            cosets = 0
            for e in range(h.order):
                if e not in seen:
                    cosets += 1
                    seen.update(h.mul_idx(c, e) for c in cyclic)
            assert cosets == h.order // sub_order
            table = todd_coxeter(
                entry.presentation,
                [Word(((0, 1),))],
                max_cosets=4 * entry.group.order + 64,
            )
            if table.index != cosets:
                failures += 1
    snf_text = resources.files("prodquot").joinpath("data/snf_cases.json").read_text()
    snf_cases = json.loads(snf_text)
    for case in snf_cases:
        inv = invariants_from_matrix(case["matrix"], case["ngens"])
        if inv.free_rank != case["free_rank"] or list(inv.torsion) != case["torsion"]:
            failures += 1
    ok = failures == 0 and len(entries) >= 40 and len(snf_cases) == 50
    return _result(
        7,
        "engine unit oracles",
        limit,
        start,
        ok,
        f"{len(entries)} corpus groups, {len(snf_cases)} matrices, {failures} failures",
    )


ALL_CRITERIA: tuple[Callable[[], CriterionResult], ...] = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
)


def run_all(quiet: bool = True) -> list[CriterionResult]:
    results = []
    for fn in ALL_CRITERIA:
        result = fn()
        results.append(result)
        if not quiet:
            import sys

            print(format_line(result), file=sys.stderr)
    return results
