"""Per-layer tracing for the benchmark, done entirely from the outside.

``Tracer.install`` replaces the public entry points of each ``wickalg`` layer
with wrappers that record a span (id, parent id, name, start, end).  Module
functions are replaced under every name a ``wickalg`` module holds them by
(``from .linalg import kron`` binds a second name), and methods are replaced
on their class.  Spans stay in memory; ``self_times`` turns the spans of one
pass into self time per span name (duration minus the time covered by child
spans).  The wrappers only record while ``Tracer.active`` is set, which the
worker sets around each op, so the checks between ops stay untraced.

``Counters`` is the separate counting pass: it counts ``Scalar`` and
``Fraction`` constructions and ``Rewriter.normal_form_word`` calls, which are
far too frequent for spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from fractions import Fraction

# (module, attribute, span name): module-level entry points.
FUNCTIONS = [
    ("linalg", "identity", "linalg.build"),
    ("linalg", "zeros", "linalg.build"),
    ("linalg", "kron", "linalg.kron"),
    ("tensorops", "t_matrix", "tensorops.t_matrix"),
    ("tensorops", "ttilde_matrix", "tensorops.t_matrix"),
    ("tensorops", "embed", "tensorops.embed"),
    ("tensorops", "p_n", "tensorops.p_n"),
    ("tensorops", "spectral_summary", "tensorops.spectral_summary"),
    ("tensorops", "positivity_report", "tensorops.positivity_report"),
    ("tensorops", "cuntz_stability_predicate", "tensorops.cuntz_stability_predicate"),
    ("eigen", "eigvalsh", "eigen.eigvalsh"),
    ("eigen", "singular_values", "eigen.singular_values"),
    ("eigen", "operator_norm", "eigen.singular_values"),
    ("rewrite", "wick_order", "rewrite.wick_order"),
    ("rewrite", "verify_identity", "rewrite.verify_identity"),
    ("rewrite", "ideal_membership", "rewrite.ideal_membership"),
    ("states", "coherent_functional", "states.coherent_functional"),
    ("states", "inner_product", "states.inner_product"),
    ("states", "gram_matrix", "states.gram_matrix"),
    ("states", "annihilator_apply", "states.annihilator_apply"),
    ("kms", "kms_series", "kms.series"),
    ("kms", "kms_evaluate", "kms.evaluate"),
    ("ideals", "minus_one_eigenprojection", "ideals.minus_one_eigenprojection"),
    ("ideals", "is_projection", "ideals.is_projection"),
    ("ideals", "quadratic_ideal_check", "ideals.quadratic_ideal_check"),
    ("ideals", "ideal_generator_relations", "ideals.ideal_generator_relations"),
    ("ideals", "wick_ideal_condition_check", "ideals.wick_ideal_condition_check"),
    ("ideals", "coherent_annihilation_check", "ideals.coherent_annihilation_check"),
    ("diffcalc", "d_and_twist", "diffcalc.d_and_twist"),
    ("diffcalc", "form_space_basis", "diffcalc.form_space_dim"),
    ("diffcalc", "form_space_dim", "diffcalc.form_space_dim"),
    ("diffcalc", "wick_diff_star_algebra_exists", "diffcalc.wick_diff_star_algebra_exists"),
    ("braid", "braid_check", "braid.braid_check"),
    ("braid", "t_of_permutation", "braid.t_of_permutation"),
    ("braid", "p_n_by_permutations", "braid.p_n_by_permutations"),
    ("braid", "permutation_kernel_matrix", "braid.permutation_kernel"),
    ("braid", "permutation_kernel_psd", "braid.permutation_kernel"),
    ("cli", "main", "cli.main"),
    ("reports", "save_report", "reports.save_report"),
    ("reports", "load_report", "reports.load_report"),
    ("reports", "save_relations", "reports.save_relations"),
    ("reports", "load_relations", "reports.load_relations"),
    ("exprparse", "parse_expression", "exprparse.parse_expression"),
    ("exprparse", "print_polynomial", "exprparse.print_polynomial"),
    ("catalog", "make_preset", "catalog.make_preset"),
]

# (module, class, method, span name).  The solve family (solve,
# solve_consistent, solve_any, kernel_basis, inverse) shares one name, as do
# the dense constructors and the entrywise operations.
METHODS = [
    # from_function is left unwrapped: the entrywise operations call it, and
    # their arithmetic belongs to them
    ("linalg", "Matrix", "__init__", "linalg.build"),
    ("linalg", "Matrix", "copy", "linalg.build"),
    ("linalg", "Matrix", "__add__", "linalg.entrywise"),
    ("linalg", "Matrix", "__sub__", "linalg.entrywise"),
    ("linalg", "Matrix", "__neg__", "linalg.entrywise"),
    ("linalg", "Matrix", "scale", "linalg.entrywise"),
    ("linalg", "Matrix", "adjoint", "linalg.entrywise"),
    ("linalg", "Matrix", "transpose", "linalg.entrywise"),
    ("linalg", "Matrix", "__mul__", "linalg.matmul"),
    ("linalg", "Matrix", "__eq__", "linalg.compare"),
    ("linalg", "Matrix", "is_hermitian", "linalg.compare"),
    ("linalg", "Matrix", "is_zero", "linalg.compare"),
    ("linalg", "Matrix", "rank", "linalg.rank"),
    ("linalg", "Matrix", "kernel_basis", "linalg.solve"),
    ("linalg", "Matrix", "inverse", "linalg.solve"),
    ("linalg", "Matrix", "solve", "linalg.solve"),
    ("linalg", "Matrix", "solve_consistent", "linalg.solve"),
    ("linalg", "Matrix", "solve_any", "linalg.solve"),
    # the float view of an exact matrix exists only to feed the eigensolver
    ("linalg", "Matrix", "to_complex", "eigen.to_complex"),
    ("rewrite", "Rewriter", "wick_order", "rewrite.wick_order"),
    ("kms", "KmsEvaluator", "evaluate", "kms.evaluate"),
    ("kms", "KmsEvaluator", "_ensure", "kms.system"),
]

LAYERS = ["linalg", "tensorops", "eigen", "rewrite", "states", "kms", "ideals",
          "diffcalc", "braid", "cli", "reports", "exprparse", "catalog"]


def _matrix_dim(m) -> int:
    return max(m.rows, m.cols)


def _note_matrix_arg(key):
    def post(tracer, args, result):
        tracer.note_max(key, _matrix_dim(args[0]))
    return post


def _note_p_n(tracer, args, result):
    dim = result.rows
    tracer.note_max("tensorops.p_n.max_dim", dim)
    tracer.facts["tensorops.p_n.nnz"] += sum(1 for row in result.data for x in row if x)
    tracer.facts["tensorops.p_n.entries"] += dim * dim


def _note_kms_system(tracer, args, result):
    ev, n, m = args[0], args[1], args[2]
    tracer.note_max("kms.max_system_dim", ev.T.d ** (n + m))


POST = {
    ("tensorops", "p_n"): _note_p_n,
    ("linalg", "rank"): _note_matrix_arg("linalg.rank.max_dim"),
    ("kms", "_ensure"): _note_kms_system,
}
for _meth in ("kernel_basis", "inverse", "solve", "solve_consistent", "solve_any"):
    POST[("linalg", _meth)] = _note_matrix_arg("linalg.solve.max_dim")


class Tracer:
    def __init__(self):
        self.active = False
        self.spans = []  # (id, parent id, name, start, end)
        self.facts = defaultdict(int)
        self._stack = [0]
        self._next = 1

    def note_max(self, key, value):
        if value > self.facts[key]:
            self.facts[key] = value

    def wrap(self, name, fn, post=None):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer._next
            tracer._next += 1
            parent = tracer._stack[-1]
            tracer._stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer._stack.pop()
                tracer.spans.append((sid, parent, name, t0, t1))
            if post is not None:
                # Bookkeeping on the result runs untraced and is recorded as
                # its own span, so it leaves the parent's self time.
                tracer.active = False
                try:
                    post(tracer, args, result)
                finally:
                    tracer.active = True
                    tracer.spans.append((tracer._next, parent, "trace.post", t1, clock()))
                    tracer._next += 1
            return result

        return wrapper

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "wickalg" or name.startswith("wickalg.")]
        for modname, attr, span in FUNCTIONS:
            orig = getattr(sys.modules["wickalg." + modname], attr)
            wrapped = self.wrap(span, orig, POST.get((modname, attr)))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)
        for modname, cls_name, meth, span in METHODS:
            cls = getattr(sys.modules["wickalg." + modname], cls_name)
            setattr(cls, meth, self.wrap(span, cls.__dict__[meth], POST.get((modname, meth))))

    def mark(self) -> int:
        return len(self.spans)

    def self_times(self, segments, seconds):
        """({span name: self seconds}, {span name: calls}, top-level seconds)
        for one pass.  ``segments`` holds (first span, end span, interval)
        per op; each op's span times are scaled as ``seconds`` scales its
        interval (the reference normalisation of worker.py)."""
        self_s = defaultdict(float)
        calls = defaultdict(int)
        top = 0.0
        for a, b, interval in segments:
            # The reference samples taken inside an op fall into its spans in
            # proportion to their CPU time, so one factor per op removes them.
            t_start, t_end = interval[:2]
            scale = seconds(interval) / (t_end - t_start) if t_end > t_start else 1.0
            spans = self.spans[a:b]
            child = defaultdict(float)
            for sid, parent, name, t0, t1 in spans:
                child[parent] += t1 - t0
            for sid, parent, name, t0, t1 in spans:
                self_s[name] += ((t1 - t0) - child.get(sid, 0.0)) * scale
                calls[name] += 1
                if parent == 0:
                    top += (t1 - t0) * scale
        return self_s, calls, top


class Counters:
    """Exact counts for one pass: Scalar and Fraction constructions,
    normal_form_word calls, new memo entries and rewrite work terms."""

    def __init__(self):
        self.active = False
        self.counts = defaultdict(int)
        self._restore = []

    def install(self):
        from wickalg.rewrite import Rewriter
        from wickalg.scalars import Scalar

        c = self
        counts = self.counts

        scalar_init = Scalar.__dict__["__init__"]

        def counting_init(self, re=0, im=0):
            if c.active:
                counts["scalars.scalar_new"] += 1
            scalar_init(self, re, im)

        frac_new = Fraction.__dict__["__new__"]
        frac_fn = frac_new.__func__

        def counting_new(cls, *args, **kwargs):
            if c.active:
                counts["scalars.fraction_new"] += 1
            return frac_fn(cls, *args, **kwargs)

        nf = Rewriter.__dict__["normal_form_word"]

        def counting_nf(self, w):
            if c.active:
                counts["rewrite.nf_calls"] += 1
            return nf(self, w)

        order = Rewriter.__dict__["wick_order"]

        def counting_order(self, p):
            before = len(self._cache)
            try:
                return order(self, p)
            finally:
                if c.active:
                    counts["rewrite.memo_new"] += len(self._cache) - before
                    counts["rewrite.work_terms"] += self._work

        Scalar.__init__ = counting_init
        Fraction.__new__ = staticmethod(counting_new)
        Rewriter.normal_form_word = counting_nf
        Rewriter.wick_order = counting_order
        self._restore = [(Scalar, "__init__", scalar_init), (Fraction, "__new__", frac_new),
                         (Rewriter, "normal_form_word", nf), (Rewriter, "wick_order", order)]

    def uninstall(self):
        for cls, attr, orig in self._restore:
            setattr(cls, attr, orig)
        self._restore = []
