"""Spans around bracelab's public functions, recorded from outside the package.

The tracer replaces each target function with a timing wrapper in every
``bracelab`` module that holds a reference to it (``census.validate_brace``,
``documents.validate_brace`` and ``products.validate_brace`` as well as
``brace.validate_brace``), including tuples of functions such as
``checks.ALL_CHECKS``.  Methods are wrapped on their class.  A target that is
missing, or is no longer a plain function (say a method turned into a
``cached_property``), is reported as absent and left alone.

Self time is a span's duration minus the part covered by its child spans.
Spans are kept as running totals in memory; nothing is written while a
workload runs.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# (module under bracelab, function or Class.method).  Metric names are
# "<module>.<last name component>.s" and ".calls".
TARGETS = (
    ("abelian", "automorphism_group"),
    ("abelian", "abelian_structure"),
    ("abelian", "is_nilpotent_group"),
    ("abelian", "closure"),
    ("census", "enumerate_braces"),
    ("brace", "validate_brace"),
    ("brace", "LeftBrace.socle"),
    ("brace", "LeftBrace.retract_quotient"),
    ("brace", "LeftBrace.multipermutation_level"),
    ("brace", "LeftBrace.radical_chain_index"),
    ("brace", "LeftBrace.sylow_components"),
    ("brace", "LeftBrace.classify"),
    ("brace", "LeftBrace.canonical_form"),
    ("checks", "check_sylow_annihilation"),
    ("checks", "check_cubefree_socle"),
    ("checks", "check_level_criteria"),
    ("checks", "check_nilpotency_equivalence"),
    ("checks", "check_odd_minus_rule"),
    ("checks", "check_power_identities"),
    ("checks", "observe_square_rule"),
    ("fqpoly", "annihilation_exponent"),
    ("solutions", "from_brace"),
    ("solutions", "validate_solution"),
    ("solutions", "retract_solution"),
    ("solutions", "permutation_group_order"),
    ("products", "semidirect"),
    ("products", "wreath"),
    ("products", "make_action"),
    ("documents", "parse_brace_document"),
    ("documents", "serialize_brace_document"),
    ("documents", "parse_solution_document"),
    ("documents", "serialize_solution_document"),
)

VERDICTS = ("pass", "fail", "hypothesis-not-met")

COUNTERS = (
    "abelian.aut_elements",
    "census.classes",
    "census.regular_subgroups",
    "brace.validate_brace.triples",
    "solutions.validate_solution.triples",
    "documents.bytes",
) + tuple(f"checks.verdict.{v}" for v in VERDICTS)


def metric_base(module: str, qualname: str) -> str:
    return f"{module}.{qualname.rpartition('.')[2]}"


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for module, qualname in TARGETS:
        base = metric_base(module, qualname)
        units[f"{base}.s"] = "s"
        units[f"{base}.calls"] = "count"
    for name in COUNTERS:
        units[name] = "count"
    units.update({
        "trace.overhead_s": "s",
        "trace.coverage": "ratio",
        "trace.absent": "count",
        "bench.ops": "count",
        "bench.speed": "ratio",
    })
    return units


# Work counters read off arguments and results at the span boundary.

def _count_automorphisms(tracer, args, kwargs, result):
    group = args[0] if args else kwargs["group"]
    tracer.aut_orders.setdefault(group.factors, result.order)


def _count_census(tracer, args, kwargs, result):
    tracer.counts["census.classes"] += len(result.entries)
    tracer.censuses.append(result)


def _count_brace_triples(tracer, args, kwargs, result):
    tracer.counts["brace.validate_brace.triples"] += 2 * result.order**3


def _count_solution_triples(tracer, args, kwargs, result):
    tracer.counts["solutions.validate_solution.triples"] += result.size**3


def _count_verdict(tracer, args, kwargs, result):
    tracer.counts[f"checks.verdict.{result.verdict}"] += 1


def _count_serialized(tracer, args, kwargs, result):
    tracer.counts["documents.bytes"] += len(result)


def _count_parsed(tracer, args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    tracer.counts["documents.bytes"] += len(text)


HOOKS = {
    "abelian.automorphism_group": _count_automorphisms,
    "census.enumerate_braces": _count_census,
    "brace.validate_brace": _count_brace_triples,
    "solutions.validate_solution": _count_solution_triples,
    "documents.serialize_brace_document": _count_serialized,
    "documents.serialize_solution_document": _count_serialized,
    "documents.parse_brace_document": _count_parsed,
    "documents.parse_solution_document": _count_parsed,
}
HOOKS.update({
    metric_base("checks", name): _count_verdict
    for module, name in TARGETS
    if module == "checks"
})


class Tracer:
    """Wraps the targets while installed; counts only while ``active``."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.self_s = {metric_base(m, q): 0.0 for m, q in targets}
        self.calls = {metric_base(m, q): 0 for m, q in targets}
        self.counts = {name: 0 for name in COUNTERS}
        self.aut_orders: dict[tuple[int, ...], int] = {}
        self.censuses = []
        self.top_level_s = 0.0
        self.absent: list[str] = []
        self.active = False
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [
            module for name, module in list(sys.modules.items())
            if name == "bracelab" or name.startswith("bracelab.")
        ]
        for module_name, qualname in self.targets:
            base = metric_base(module_name, qualname)
            owner_name, _, attr = qualname.rpartition(".")
            owner = sys.modules.get(f"bracelab.{module_name}")
            if owner is not None and owner_name:
                owner = getattr(owner, owner_name, None)
            raw = None if owner is None else inspect.getattr_static(owner, attr, None)
            if not inspect.isfunction(raw):
                kind = "missing" if raw is None else type(raw).__name__
                self.absent.append(f"{module_name}.{qualname} ({kind})")
                continue
            wrapper = self._wrap(base, raw, HOOKS.get(base))
            if owner_name:
                self._replace(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is raw:
                        self._replace(module, name, wrapper)
                    elif isinstance(value, tuple) and any(v is raw for v in value):
                        self._replace(
                            module, name,
                            tuple(wrapper if v is raw else v for v in value),
                        )

    def uninstall(self) -> None:
        while self._undo:
            owner, name, old = self._undo.pop()
            setattr(owner, name, old)

    def _replace(self, owner, name: str, new) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def _wrap(self, base: str, func, hook):
        tracer = self
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            stack.append(0.0)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                tracer.self_s[base] += elapsed - stack.pop()
                tracer.calls[base] += 1
                if stack:
                    stack[-1] += elapsed
                else:
                    tracer.top_level_s += elapsed
            if hook is not None:
                try:
                    hook(tracer, args, kwargs, result)
                except (AttributeError, KeyError, IndexError, TypeError):
                    absent = f"{base} counter (argument or result changed)"
                    if absent not in tracer.absent:
                        tracer.absent.append(absent)
            return result

        return wrapper

    def metrics(self, wall_s: float, ops: int) -> dict[str, float]:
        """Per-layer values of one traced repetition."""
        out: dict[str, float] = {}
        for base in self.self_s:
            out[f"{base}.s"] = self.self_s[base]
            out[f"{base}.calls"] = self.calls[base]
        out.update(self.counts)
        out["abelian.aut_elements"] = sum(self.aut_orders.values())
        out["census.regular_subgroups"] = regular_subgroup_count(self.censuses)
        out["trace.coverage"] = self.top_level_s / wall_s if wall_s > 0 else 0.0
        out["trace.absent"] = len(self.absent)
        out["bench.ops"] = ops
        return out


def regular_subgroup_count(censuses) -> int:
    """Regular subgroups of the holomorphs behind the recorded censuses.

    Each class on additive group A stands for |Aut(A)| / |Stab| regular
    subgroups (orbit-stabilizer), where Stab fixes its circle table under
    relabeling.  Runs after the timed phase, with the tracer inactive.
    """
    from bracelab import automorphism_group, make_group

    total = 0
    for census in censuses:
        for entry in census.entries:
            group = make_group(entry.invariant_factors)
            auts = automorphism_group(group, max_order=max(group.order, 1)).elements
            table = entry.brace.circle_table
            n = len(table)
            stabilizer = sum(
                1 for g in auts
                if all(g[table[a][b]] == table[g[a]][g[b]]
                       for a in range(n) for b in range(n))
            )
            total += len(auts) // stabilizer
    return total
