"""Span tracer that times berezin's layers from outside the package.

``Tracer.install()`` replaces each function listed in ``LAYERS``, in every
berezin module namespace that holds it, by a wrapper that records one span
per call: name, start, end and the enclosing span.  ``Tracer.metrics()``
turns the spans into the per-layer figures of BENCHMARK.json.  Nothing under
``src/`` changes; the wrappers exist only in the process that installed them.

Metric suffixes: ``.calls`` counts spans; ``.s`` is inclusive time, summed
over spans not nested in a span of the same name; ``.self_s`` is a span's
duration minus that of its direct child spans.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute, span name, extra): ``extra(args, kwargs, result)`` runs
# after the span has closed and stores what the metrics need about the call.
LAYERS = [
    ("quadrature", "build_rule", "quadrature.build_rule",
     lambda a, k, rule: rule.node_count + (rule.coarse.node_count if rule.coarse else 0)),
    ("hilbert", "build_basis", "hilbert.build_basis", None),
    ("hilbert", "BasisSpec.node_data", "hilbert.node_data",
     lambda a, k, nd: (_node_data_key(a, k), nd.rule.node_count, nd.ehat.nbytes)),
    ("hilbert", "eval_matrix", "hilbert.eval_matrix", None),
    ("hilbert", "reproducing_residual", "hilbert.query", None),
    ("hilbert", "resolution_check", "hilbert.query", None),
    ("hilbert", "section_eval", "hilbert.query", None),
    ("hilbert", "kernel_L", "hilbert.query", None),
    ("geometry", "poisson_bracket", "geometry.poisson_bracket", None),
    ("geometry", "wirtinger", "geometry.wirtinger", None),
    ("toeplitz", "toeplitz_matrix", "toeplitz.toeplitz_matrix", lambda a, k, op: op.spec.N),
    ("toeplitz", "operator_norm", "toeplitz.operator_norm", None),
    ("toeplitz", "commutator_defect", "toeplitz.commutator_defect", None),
    # Spanned so that commutator_defect's self time is its subtraction and
    # its spectral norm, not the two matrix products.
    ("operators", "commutator", "operators.commutator", None),
    ("operators", "star_product", "operators.star_product", None),
    ("operators", "CovariantSymbol.__call__", "operators.symbol", None),
    ("operators", "correspondence_sweep", "operators.correspondence_sweep", None),
    ("pullback", "equivalence_check", "pullback.equivalence_check", None),
    ("pullback", "torus_holonomy", "pullback.torus_holonomy", None),
    ("cli", "main", "cli.main", None),
]

MB = 2.0 ** 20


def _node_data_key(args, kwargs):
    """(d, m, level) of a BasisSpec.node_data(level=None) call."""
    spec = args[0]
    level = args[1] if len(args) > 1 else kwargs.get("level")
    return (spec.d, spec.m, spec.level if level is None else int(level))


class Tracer:
    """Spans of wrapped calls, kept in memory in the order they opened."""

    def __init__(self):
        self.spans: list = []   # [name, start, end, parent index or None, extra]
        self._stack: list = []

    def wrap(self, name: str, fn, extra=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                span[4] = extra(args, kwargs, result)
            return result

        return traced

    def _wrap_bracket_function(self, fn):
        """bracket_function returns an evaluator; span the evaluator's calls.

        toeplitz_matrix picks its quadrature level from the evaluator's
        ``weight_degree`` and names the operator from ``__name__``, so both
        are carried over; otherwise the traced run would be another program.
        """
        @functools.wraps(fn)
        def bracket_function(f, g):
            evaluator = fn(f, g)
            traced = self.wrap("toeplitz.bracket_eval", evaluator)
            traced.weight_degree = evaluator.weight_degree
            traced.__name__ = evaluator.__name__
            return traced

        return bracket_function

    def install(self) -> None:
        """Wrap every layer of the berezin package imported in this process."""
        import berezin.cli  # noqa: F401  (imports every module in LAYERS)

        modules = [mod for name, mod in sys.modules.items()
                   if name == "berezin" or name.startswith("berezin.")]

        def replace(owner, attr, make):
            original = getattr(owner, attr)
            traced = make(original)
            setattr(owner, attr, traced)
            # ``from .x import f`` made copies: replace every alias as well.
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

        for mod_name, attr, name, extra in LAYERS:
            owner = sys.modules[f"berezin.{mod_name}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            replace(owner, attr, lambda fn: self.wrap(name, fn, extra))
        replace(sys.modules["berezin.toeplitz"], "bracket_function", self._wrap_bracket_function)

    def metrics(self) -> dict:
        """Per-layer figures computed from the recorded spans."""
        spans = self.spans
        calls: dict = {}
        inclusive: dict = {}
        self_s: dict = {}
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child_s[parent] += end - start
        for k, (name, start, end, parent, _) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_s[k]
            ancestor = parent
            while ancestor is not None and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor is None:
                inclusive[name] = inclusive.get(name, 0.0) + (end - start)

        # A table build is a build_rule call made inside node_data; it is a
        # duplicate when its (d, m, level) was built before in this process.
        built_in = {parent for name, _, _, parent, _ in spans
                    if name == "quadrature.build_rule" and parent is not None
                    and spans[parent][0] == "hilbert.node_data"}
        # Spans of calls that raised carry no extra and are left out below.
        seen, dup_builds, table_bytes = set(), 0, 0
        for k in sorted(built_in):
            if spans[k][4] is not None:
                key, _, ehat_bytes = spans[k][4]
                dup_builds += key in seen
                seen.add(key)
                table_bytes += ehat_bytes
        # Assembly flops 8 n N^2, with n the nodes of the call's node_data child.
        nodes_of = {}
        for name, _, _, parent, extra in spans:
            if (name == "hilbert.node_data" and extra is not None and parent is not None
                    and spans[parent][0] == "toeplitz.toeplitz_matrix"):
                nodes_of[parent] = extra[1]
        gflop = sum(8.0 * nodes_of[k] * spans[k][4] ** 2 for k in nodes_of
                    if spans[k][4] is not None) / 1e9

        def n(name):
            return calls.get(name, 0)

        def s(name):
            return inclusive.get(name, 0.0)

        def own(name):
            return self_s.get(name, 0.0)

        return {
            "quadrature.build_rule.calls": n("quadrature.build_rule"),
            "quadrature.build_rule.s": s("quadrature.build_rule"),
            "quadrature.nodes_built": sum(span[4] or 0 for span in spans
                                          if span[0] == "quadrature.build_rule"),
            "hilbert.node_data.calls": n("hilbert.node_data"),
            "hilbert.node_data.builds": len(built_in),
            "hilbert.node_data.dup_builds": dup_builds,
            "hilbert.node_data.self_s": own("hilbert.node_data"),
            "hilbert.table_mb": table_bytes / MB,
            "hilbert.eval_matrix.s": s("hilbert.eval_matrix"),
            "hilbert.query.calls": n("hilbert.query"),
            "hilbert.query.s": s("hilbert.query"),
            "geometry.poisson_bracket.calls": n("geometry.poisson_bracket"),
            "geometry.poisson_bracket.s": s("geometry.poisson_bracket"),
            "geometry.wirtinger.calls": n("geometry.wirtinger"),
            "toeplitz.toeplitz_matrix.calls": n("toeplitz.toeplitz_matrix"),
            "toeplitz.toeplitz_matrix.self_s": own("toeplitz.toeplitz_matrix"),
            "toeplitz.assembly_gflop": gflop,
            "toeplitz.bracket_eval.s": s("toeplitz.bracket_eval"),
            "toeplitz.svd.s": s("toeplitz.operator_norm") + own("toeplitz.commutator_defect"),
            "operators.star_product.calls": n("operators.star_product"),
            "operators.star_product.s": s("operators.star_product"),
            "operators.symbol.s": s("operators.symbol"),
            "operators.correspondence_sweep.self_s": own("operators.correspondence_sweep"),
            "pullback.equivalence_check.s": s("pullback.equivalence_check"),
            "pullback.torus_holonomy.calls": n("pullback.torus_holonomy"),
            "pullback.torus_holonomy.s": s("pullback.torus_holonomy"),
            "cli.main.self_s": own("cli.main"),
        }
