"""Layer spans for the traced benchmark run, installed from outside the program.

Every traced function is replaced by a wrapper that records its call count
and self time (its duration minus the time its traced callees took).  A
function imported by name into another module (``from .ranks import
numerical_rank``) is replaced in every ``flagshift`` module that holds it,
and methods are replaced on their class.  Family members get their
``value`` and ``gradient`` callables wrapped as they are constructed.
``uninstall`` puts every original object back, so an untraced pass runs
the program exactly as shipped.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# (module, function) pairs: the span is named "<module>.<function>".
FUNCTIONS = (
    ("algebra", "build_algebra"),
    ("poisson", "bivector_on_span"),
    ("poisson", "invariant_tangent_span"),
    ("poisson", "tangent_span_orthocomplement"),
    ("ranks", "numerical_rank"),
    ("ranks", "nullspace"),
    ("ranks", "row_space"),
    ("certify", "verify_lemma1"),
    ("certify", "check_involutive"),
    ("certify", "check_ad_invariance"),
    ("certify", "verify_completeness"),
    ("certify", "verify_span_inclusion"),
    ("certify", "generic_point"),
    ("dynamics", "integrate"),
    ("dynamics", "enr_closed_form"),
    ("cli", "main"),
)

# (module, class, method, span name).
METHODS = (
    ("algebra", "LieAlgebra", "invariant_value", "algebra.invariant_value"),
    ("algebra", "LieAlgebra", "invariant_gradient", "algebra.invariant_gradient"),
    ("algebra", "LieAlgebra", "ad", "algebra.ad"),
    ("algebra", "LieAlgebra", "adjoint_action_stack", "algebra.adjoint_action_stack"),
    ("product", "ProductSpace", "proj_v", "product.proj_v"),
    ("product", "ProductSpace", "diagonal_adjoint", "product.diagonal_adjoint"),
    ("families", "PolynomialFamily", "gradients", "families.gradients"),
    ("dynamics", "QuadraticHamiltonian", "value", "dynamics.hamiltonian_value"),
)

MEMBER_VALUE = "families.member_value"
MEMBER_GRADIENT = "families.member_gradient"

SPAN_NAMES = tuple(
    sorted(
        [f"{module}.{name}" for module, name in FUNCTIONS]
        + [span for *_, span in METHODS]
        + [MEMBER_VALUE, MEMBER_GRADIENT]
    )
)

_RANK_SPANS = ("ranks.numerical_rank", "ranks.nullspace", "ranks.row_space")


class Tracer:
    """Call counts and self times per span name, plus a few layer counters."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counters: Counter = Counter()
        self._stack: list[list] = []

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.counters.clear()

    def snapshot(self) -> dict:
        return {"calls": self.calls.copy(), "self_s": self.self_s.copy(), "counters": self.counters.copy()}

    def wrap(self, name: str, fn, observe=None):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            # A span re-entered from inside itself (a restricted member's
            # gradient calling the member it restricts) is one call.
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if observe is not None:
                observe(self.counters, args, result)
            return result

        span.perfbench_span = name
        return span


def _observe_rank(counters, args, result) -> None:
    marginal = result.marginal if hasattr(result, "marginal") else result[1]
    counters["ranks.rank_calls"] += 1
    counters["ranks.marginal"] += bool(marginal)


def _observe_integrate(counters, args, trajectory) -> None:
    flow = args[0]
    counters["dynamics.integrate.steps"] += int(round(trajectory.final_time / flow.dt))
    counters["dynamics.integrate.samples"] += len(trajectory.times)


_OBSERVERS = {name: _observe_rank for name in _RANK_SPANS}
_OBSERVERS["dynamics.integrate"] = _observe_integrate


def _flagshift_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "flagshift" or name.startswith("flagshift."))
    ]


class Installed:
    """Handle on installed spans; ``uninstall`` restores the originals."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> Installed:
    """Wrap every traced flagshift function, method and family member."""
    import flagshift.cli  # noqa: F401  (loads every module the CLI uses)

    modules = _flagshift_modules()
    by_name = {module.__name__: module for module in modules}
    installed = Installed()
    for module_name, fn_name in FUNCTIONS:
        original = getattr(by_name[f"flagshift.{module_name}"], fn_name)
        name = f"{module_name}.{fn_name}"
        wrapper = tracer.wrap(name, original, _OBSERVERS.get(name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    installed.replace(module, attr, wrapper)
    for module_name, cls_name, method, name in METHODS:
        cls = getattr(by_name[f"flagshift.{module_name}"], cls_name)
        installed.replace(cls, method, tracer.wrap(name, vars(cls)[method]))

    member_cls = by_name["flagshift.families"].FamilyMember
    post_init = vars(member_cls)["__post_init__"]

    def traced_post_init(member):
        post_init(member)
        for attr, name in (("value", MEMBER_VALUE), ("gradient", MEMBER_GRADIENT)):
            fn = getattr(member, attr)
            if getattr(fn, "perfbench_span", None) != name:
                object.__setattr__(member, attr, tracer.wrap(name, fn))

    installed.replace(member_cls, "__post_init__", traced_post_init)
    return installed
