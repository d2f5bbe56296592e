"""Per-layer tracing from outside the package.

:func:`install` wraps the public entry points of each module and rebinds
every name that refers to them in every loaded ``prodquot`` module (the
package imports by name, ``from .coset import todd_coxeter``, so patching
only the defining module would miss most calls).  Nothing in the package
is edited.

Two kinds of records:

* timed layers keep a call stack, so each reports total time ``<m>_s`` and
  self time ``<m>_self_s`` (total minus the time of timed layers it
  called).  Each call of a coarse layer also leaves a span
  ``(name, start, end, parent span, job id)`` in memory; :meth:`Tracer.dump`
  writes the spans out when the run ends.  The two hottest timed layers,
  ``rewrite.rewrite`` and ``rewrite.evaluate``, are aggregated without
  spans (tens of thousands of calls per job);
* counters (``perm.mul_calls``, ``words.mul_calls``, presentation builds,
  Tietze sizes, coset counts, ...) are plain sums.

An entry point the package no longer has is skipped and listed in
``Tracer.missing``; its metrics then read 0 and the run prints why.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

perf = time.perf_counter

# product_quotient layers -> their time metric
PQ_LAYERS = {
    "product_quotient.lift_group": "product_quotient.lift_s",
    "product_quotient.diagonal_lift_group": "product_quotient.diagonal_s",
    "product_quotient.torsion_generators": "product_quotient.torsion_s",
    "product_quotient.torsion_word": "product_quotient.torsion_rewrite_s",
    "product_quotient.build_pi1": "product_quotient.pi1_s",
    "product_quotient.structure_from_pi1": "product_quotient.structure_s",
    "product_quotient.probe": "product_quotient.probe_s",
    "product_quotient._verify": "product_quotient.verify_s",
}
# timed layers aggregated without spans
HOT = {"rewrite.rewrite", "rewrite.evaluate_word"}


class Tracer:
    def __init__(self):
        self.counts = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.spans = []  # (name, start, end, parent span index, job id)
        self.stack = []  # [name, start, child seconds, span index]
        self.job = None
        self.restore = []
        self.missing = []  # entry points absent from the package: unmeasured

    # -- timing -----------------------------------------------------------

    def timed(self, name, fn, after=None):
        """Wrap fn as timed layer `name`; after(args, result, exc, dur, self_dur)
        adds counters."""
        stack = self.stack
        keep_span = name not in HOT
        tracer = self

        def wrapper(*args, **kwargs):
            parent = next((f[3] for f in reversed(stack) if f[3] >= 0), -1)
            span = -1
            if keep_span:
                span = len(tracer.spans)
                tracer.spans.append(None)
            outer = not any(f[0] == name for f in stack)
            frame = [name, perf(), 0.0, span]
            stack.append(frame)
            exc = None
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = perf()
                stack.pop()
                dur = end - frame[1]
                tracer.counts[name] += 1
                if outer:  # a layer nested in itself counts its time once
                    tracer.total[name] += dur
                tracer.self_time[name] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if keep_span:
                    tracer.spans[span] = (name, frame[1], end, parent, tracer.job)
                if after is not None:
                    after(args, result, exc, dur, dur - frame[2])

        wrapper.__wrapped__ = fn
        return wrapper

    def counting(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------

    def rebind(self, original, replacement):
        """Point every prodquot-module global that names `original` at the
        replacement."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "prodquot" or mod_name.startswith("prodquot.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self.restore.append((mod, attr, original))

    def patch_method(self, cls, attr, wrap):
        """Replace cls.attr by wrap(original), if the class defines it."""
        original = cls.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{cls.__module__}.{cls.__name__}.{attr}")
            return
        setattr(cls, attr, wrap(original))
        self.restore.append((cls, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self.restore):
            setattr(owner, attr, original)
        self.restore.clear()

    # -- results ----------------------------------------------------------

    def metrics(self, passes):
        """Per-pass averages of every per-layer metric."""
        c, t, s = self.counts, self.total, self.self_time
        out = {}

        def timed(metric, key):
            out[metric] = t[key] / passes
            out[metric[:-1] + "self_s"] = s[key] / passes

        def count(metric, key):
            out[metric] = c[key] / passes

        timed("cli.parse_s", "cli.parse")
        timed("cli.render_s", "cli.render")
        count("coset.calls", "coset.todd_coxeter")
        timed("coset.s", "coset.todd_coxeter")
        count("coset.overflows", "coset.overflows")
        timed("coset.overflow_s", "coset.overflow")
        count("coset.cosets", "coset.cosets")
        calls = c["coset.todd_coxeter"]
        out["coset.useful_ratio"] = (calls - c["coset.overflows"]) / calls if calls else 1.0
        for key, metric in PQ_LAYERS.items():
            timed(metric, key)
        count("product_quotient.torsion_elements", "torsion.elements")
        count("product_quotient.probe_calls", "product_quotient.probe")
        count("product_quotient.probe_overflows", "probe.overflows")
        count("product_quotient.verify_candidates", "verify.candidates")
        count("product_quotient.verify_found", "verify.found")
        count("presentation.tietze_calls", "presentation.tietze_simplify")
        timed("presentation.tietze_s", "presentation.tietze_simplify")
        count("presentation.tietze_steps", "tietze.steps")
        count("presentation.tietze_rels_in", "tietze.rels_in")
        count("presentation.tietze_rels_out", "tietze.rels_out")
        count("presentation.builds", "presentation.builds")
        count("rewrite.rs_calls", "rewrite.reidemeister_schreier")
        timed("rewrite.rs_s", "rewrite.reidemeister_schreier")
        count("rewrite.rs_gens", "rs.gens")
        count("rewrite.rs_rels", "rs.rels")
        count("rewrite.rewrite_calls", "rewrite.rewrite")
        timed("rewrite.rewrite_s", "rewrite.rewrite")
        count("rewrite.evaluate_calls", "rewrite.evaluate_word")
        timed("rewrite.evaluate_s", "rewrite.evaluate_word")
        count("perm.group_builds", "perm.FiniteGroup")
        timed("perm.group_build_s", "perm.FiniteGroup")
        count("perm.mul_calls", "perm.mul")
        count("words.mul_calls", "words.mul")
        count("abelian.snf_calls", "abelian.smith_diagonal")
        timed("abelian.snf_s", "abelian.smith_diagonal")
        count("abelian.snf_entries", "snf.entries")
        count("orbifold.enumerate_calls", "orbifold.enumerate_generating_vectors")
        timed("orbifold.enumerate_s", "orbifold.enumerate_generating_vectors")
        count("orbifold.vectors", "orbifold.vectors")
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    name, start, end, parent, job = span
                    fh.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "job": job}) + "\n")


def install():
    """Wrap every layer of the loaded package; returns the Tracer."""
    import prodquot.abelian as abelian
    import prodquot.cli as cli
    import prodquot.coset as coset
    import prodquot.orbifold as orbifold
    import prodquot.perm as perm
    import prodquot.presentation as presentation
    import prodquot.product_quotient as pq
    import prodquot.rewrite as rewrite
    import prodquot.words as words

    tr = Tracer()
    c, t, st = tr.counts, tr.total, tr.self_time

    def wrap(module, attr, name, after=None):
        original = getattr(module, attr, None)
        if original is None:
            tr.missing.append(f"{module.__name__}.{attr}")
            return
        tr.rebind(original, tr.timed(name, original, after))

    def coset_after(args, result, exc, dur, self_dur):
        if isinstance(exc, coset.CosetOverflow):
            c["coset.overflows"] += 1
            t["coset.overflow"] += dur
            st["coset.overflow"] += self_dur
        elif result is not None:
            c["coset.cosets"] += result.index

    def probe_after(args, result, exc, dur, self_dur):
        nested = any(f[0] == "product_quotient.probe" for f in tr.stack)
        if exc is None and result is None and not nested:
            c["probe.overflows"] += 1

    def torsion_after(args, result, exc, dur, self_dur):
        if result is not None:
            c["torsion.elements"] += len(result)

    def tietze_after(args, result, exc, dur, self_dur):
        c["tietze.rels_in"] += len(args[0].relators)
        if result is not None:
            c["tietze.steps"] += result.steps_used
            c["tietze.rels_out"] += len(result.presentation.relators)

    def rs_after(args, result, exc, dur, self_dur):
        if result is not None:
            c["rs.gens"] += result.presentation.ngens
            c["rs.rels"] += len(result.presentation.relators)

    def snf_after(args, result, exc, dur, self_dur):
        m = args[0]
        c["snf.entries"] += len(m) * (len(m[0]) if m else 0)

    def enum_after(args, result, exc, dur, self_dur):
        if result is not None:
            c["orbifold.vectors"] += len(result)

    wrap(cli, "parse_job", "cli.parse")
    wrap(cli, "render_report", "cli.render")
    wrap(coset, "todd_coxeter", "coset.todd_coxeter", coset_after)
    wrap(pq, "lift_group", "product_quotient.lift_group")
    wrap(pq, "diagonal_lift_group", "product_quotient.diagonal_lift_group")
    wrap(pq, "torsion_generators", "product_quotient.torsion_generators", torsion_after)
    wrap(pq, "torsion_word", "product_quotient.torsion_word")
    wrap(pq, "build_pi1", "product_quotient.build_pi1")
    wrap(pq, "structure_from_pi1", "product_quotient.structure_from_pi1")
    wrap(pq, "_order_probe", "product_quotient.probe", probe_after)
    wrap(pq, "_normal_closure_order", "product_quotient.probe", probe_after)
    wrap(pq, "_verify", "product_quotient._verify")
    original_try = getattr(pq, "_try_subgroup", None)

    def try_subgroup(*args, **kwargs):
        result = original_try(*args, **kwargs)
        c["verify.candidates"] += 1
        if result is not None:
            c["verify.found"] += 1
        return result

    if original_try is None:
        tr.missing.append("prodquot.product_quotient._try_subgroup")
    else:
        tr.rebind(original_try, try_subgroup)
    wrap(presentation, "tietze_simplify", "presentation.tietze_simplify", tietze_after)
    wrap(rewrite, "reidemeister_schreier", "rewrite.reidemeister_schreier", rs_after)
    wrap(rewrite, "evaluate_word", "rewrite.evaluate_word")
    wrap(abelian, "smith_diagonal", "abelian.smith_diagonal", snf_after)
    wrap(orbifold, "enumerate_generating_vectors", "orbifold.enumerate_generating_vectors",
         enum_after)

    tr.patch_method(rewrite.SubgroupPresentation, "rewrite",
                    lambda f: tr.timed("rewrite.rewrite", f))
    tr.patch_method(perm.FiniteGroup, "__init__", lambda f: tr.timed("perm.FiniteGroup", f))
    tr.patch_method(perm.Permutation, "__mul__", lambda f: tr.counting("perm.mul", f))
    tr.patch_method(words.Word, "__mul__", lambda f: tr.counting("words.mul", f))
    tr.patch_method(presentation.Presentation, "__post_init__",
                    lambda f: tr.counting("presentation.builds", f))
    return tr
