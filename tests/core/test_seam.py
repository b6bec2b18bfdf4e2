"""One reporting seam: the telemetry side of the Figure 1 firewall, enforced.

Every instrumented site outside ``repro/telemetry`` makes one unconditional
typed call on its tracer (``tracer.copy(...)``, ``tracer.alloc(...)``) and
cannot tell which listener is attached — the no-op, the recording tracer,
or the recording tracer with the monitor attached, records kept or not.
These tests pin that, in the idiom of
``test_separation.py``: an AST walk over the sources, so a refactor cannot
quietly grow a second reporting arm back.
"""

import ast
import inspect
import pathlib

import repro
from repro.telemetry.monitor import MonitorTracer, RuntimeMonitor
from repro.telemetry.trace import NullTracer, Tracer

ROOT = pathlib.Path(repro.__file__).parent

# The only places a caller may ask ``tracer.enabled``: where full tracing
# does extra *work* (not different reporting) that an untraced run skips.
ENABLED_READS = {
    # in-flight labels for async copies, so drain stalls can name objects
    ("core/manager.py", "copyto"): 1,
    # stall blame lists, read off the clock before the wait advances it
    ("runtime/executor.py", "kernel"): 1,
    ("runtime/executor.py", "iteration_end"): 1,
    # rejected-candidate lists for ``decision`` events
    ("policies/base.py", "find_eviction_start"): 1,
}


def caller_sources():
    for path in sorted(ROOT.rglob("*.py")):
        relative = path.relative_to(ROOT).as_posix()
        if not relative.startswith("telemetry/"):
            yield relative, ast.parse(path.read_text())


def nodes_by_function(tree):
    """``(enclosing function name, node)`` for every node."""

    def walk(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        yield function, node
        for child in ast.iter_child_nodes(node):
            yield from walk(child, function)

    yield from walk(tree, "<module>")


def test_callers_cannot_tell_which_tier_is_listening():
    for relative, tree in caller_sources():
        for node in ast.walk(tree):
            where = f"{relative}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Attribute):
                assert node.attr not in ("monitoring", "copy_cause"), where
                assert not (
                    node.attr.startswith("note_")
                    and isinstance(node.value, (ast.Attribute, ast.Name))
                    and "monitor" in ast.unparse(node.value)
                ), f"{where} calls the monitor's intake directly"
            elif isinstance(node, ast.Constant):
                assert node.value not in ("monitoring", "copy_cause"), where


def test_enabled_is_read_only_where_tracing_does_extra_work():
    found: dict[tuple[str, str], int] = {}
    for relative, tree in caller_sources():
        for function, node in nodes_by_function(tree):
            if isinstance(node, ast.Attribute) and node.attr == "enabled":
                key = (relative, function)
                found[key] = found.get(key, 0) + 1
    assert found == ENABLED_READS
    assert sum(found.values()) <= 12


def test_listing_one_is_called_once_per_eviction_site():
    for module in ("policies/optimizing.py", "policies/multitier.py"):
        tree = ast.parse((ROOT / module).read_text())
        calls = [
            node for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "evict_object"
        ]
        assert len(calls) == 1, module


def policy_functions_calling(name):
    """``{(module, function)}`` under ``policies/`` calling ``name(…)`` or
    ``….name(…)``."""
    policies = [r for r, _ in caller_sources() if r.startswith("policies/")]
    return functions_with(policies, calls(name))


def test_listing_two_is_written_once():
    """One victim scan and one make-room block: a policy supplies the order
    victims are offered in, never a second copy of the loop."""
    base = "policies/base.py"
    assert policy_functions_calling("span_victims") == {
        (base, "find_eviction_start")
    }
    assert policy_functions_calling("emit_decision") == {
        (base, "find_eviction_start")
    }
    assert policy_functions_calling("evictfrom") == {
        (base, "make_room"), (base, "prefetch_object")
    }


def typed_calls(cls):
    return {
        name for name, value in vars(cls).items()
        if callable(value) and not name.startswith("_")
        and name not in ("emit", "emit_at", "scope", "hint", "clear")
    }


# The typed calls whose kinds the monitor folds.
FOLDED = {
    "alloc", "free", "copy", "copy_retry", "prefetch", "evict", "kernel_end",
    "stall", "gc", "oom_retry", "fault", "recovery_step", "recovery",
    "policy_strike", "quarantine", "detach", "resize", "checkpoint",
}


def test_every_listener_answers_every_typed_call():
    protocol = typed_calls(NullTracer)
    assert protocol <= typed_calls(Tracer)
    assert FOLDED <= protocol
    assert "hints" in protocol  # a hint sweep's owed events: a typed call
    # A monitored tracer is one class whether or not it keeps its records:
    # it answers every typed call, folded kind or not, with Tracer's body,
    # and folds in the one ``_event`` of its class (a tracer pickles no
    # bound intake of its own).
    for keep_events in (False, True):
        tracer = MonitorTracer(None, keep_events=keep_events)
        assert type(tracer) is MonitorTracer and tracer.enabled
        assert "_event" not in vars(tracer)
        for name in protocol | {"hint"}:
            assert getattr(MonitorTracer, name) is vars(Tracer)[name], name
    assert "_event" in vars(MonitorTracer)
    for name in protocol:
        # Same positional signature everywhere: a site's one call must mean
        # the same thing to whichever listener is attached.
        expected = list(inspect.signature(getattr(Tracer, name)).parameters)
        for listener in (NullTracer, MonitorTracer):
            got = list(inspect.signature(getattr(listener, name)).parameters)
            assert got == expected, f"{listener.__name__}.{name}"


def class_methods(relative, cls):
    """``{method name: FunctionDef}`` of class ``cls`` in module ``relative``."""
    tree = ast.parse((ROOT / relative).read_text())
    (body,) = [n.body for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls]
    return {n.name: n for n in body if isinstance(n, ast.FunctionDef)}


def test_the_full_tier_folds_at_the_typed_call():
    """Every intake folds through one table: a monitored tracer folds in
    its ``_event``, during the typed call, so ``MonitorTracer`` overrides
    none of the folded typed calls, and it is the one tracer class the
    monitor module defines: no second tier picked by re-classing, no
    scope of its own, no attribute of the monitor's that only it sets.
    Replay has no adapter of its own (no kind -> extractor table, no
    ``_x_*`` helpers); its one intake past the ``SCHEMA`` mapping is
    ``note_event``, which ``observe`` calls. No typed body reaches the
    ``emit``/``emit_at`` replay intake."""
    monitor = "telemetry/monitor.py"
    assert len(FOLDED) == 18
    assert not FOLDED & set(vars(MonitorTracer))
    tree = ast.parse((ROOT / monitor).read_text())
    assert [
        node.name for node in tree.body
        if isinstance(node, ast.ClassDef)
        and not {ast.unparse(base) for base in node.bases}.isdisjoint(
            {"Tracer", "MonitorTracer", "NullTracer"}
        )
    ] == ["MonitorTracer"]
    init = class_methods(monitor, "MonitorTracer")["__init__"]
    assert "__class__" not in {
        node.attr for node in ast.walk(init) if isinstance(node, ast.Attribute)
    }
    assert [name for name in vars(RuntimeMonitor) if name.startswith("note_")] == [
        "note_event"
    ]
    assert any(
        calls("note_event")(node)
        for node in ast.walk(class_methods(monitor, "RuntimeMonitor")["observe"])
    )
    names = {
        node.id if isinstance(node, ast.Name) else node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.FunctionDef, ast.ClassDef))
    } | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "_EXTRACTORS" not in names
    assert not [name for name in names if name.startswith("_x_")]
    assert not names & {
        "_MonitorOnlyTracer", "_CauseScope", "copy_cause", "_RING_RECORDS",
        "_intake",
    }
    reaches_emit = [calls("emit"), calls("emit_at")]
    for relative, cls in (
        ("telemetry/trace.py", "Tracer"),
        (monitor, "MonitorTracer"),
    ):
        for name, node in class_methods(relative, cls).items():
            if name not in ("emit", "emit_at"):
                assert not any(
                    matches(child)
                    for child in ast.walk(node)
                    for matches in reaches_emit
                ), f"{cls}.{name}"


def functions_with(relatives, matches):
    """``{(module, function)}`` among ``relatives`` holding a node that
    ``matches``."""
    return {
        (relative, function)
        for relative in relatives
        for function, node in nodes_by_function(
            ast.parse((ROOT / relative).read_text())
        )
        if matches(node)
    }


def calls(name, keyword=None):
    def matches(node):
        return (
            isinstance(node, ast.Call)
            and name == getattr(node.func, "attr", getattr(node.func, "id", None))
            and (keyword is None or keyword in {k.arg for k in node.keywords})
        )

    return matches


def all_sources():
    return [path.relative_to(ROOT).as_posix() for path in sorted(ROOT.rglob("*.py"))]


def test_a_run_is_stood_up_one_way():
    """Model key -> trace, config -> platform, tenant -> executor and the
    listener choice are each one function (docs/architecture.md, "How a run
    is built"); an experiment never grows a private copy."""
    everything = all_sources()
    runs = [r for r in everything if r.startswith("experiments/")]
    runs.append("runtime/elastic.py")
    common = "experiments/common.py"
    assert functions_with(runs, calls("SessionConfig", "copy_overhead")) == {
        (common, "session_config")
    }
    assert functions_with(runs, calls("CachedArraysAdapter")) == {
        (common, "tenant_executor")
    }
    assert functions_with(
        runs,
        lambda node: isinstance(node, ast.Subscript)
        and ast.unparse(node.value) == "MODEL_REGISTRY",
    ) == {(common, "model_trace")}
    assert functions_with(everything, calls("MonitorTracer")) == {
        ("telemetry/monitor.py", "pick_tracer")
    }


def test_figures_two_to_six_are_views_of_one_matrix():
    """One run set, five views: a figure module never runs a cell itself or
    grows its own result class back; the models x modes loop is
    ``run_matrix``, defined once."""
    views = sorted(
        path.relative_to(ROOT).as_posix()
        for path in ROOT.glob("experiments/fig[2-6]_*.py")
    )
    assert len(views) == 5
    assert functions_with(views, calls("run_mode")) == set()
    assert functions_with(views, calls("run_modes")) == set()
    assert functions_with(views, lambda node: isinstance(node, ast.ClassDef)) == set()
    assert functions_with(
        all_sources(),
        lambda node: isinstance(node, ast.FunctionDef) and node.name == "run_matrix",
    ) == {("experiments/common.py", "run_matrix")}


def test_a_kernel_makes_one_policy_call_before_it_runs():
    """Both kernel paths, traced or not, hand the operand lists, the hinted
    flag, the pin list and the tracer to the policy in one
    ``acquire_operands`` call, and the policy opens the per-operand scopes.
    That call is the only batch hook ``Policy`` has: its default is the
    per-object loops, ``issue_hints`` then ``resolve_residency``, which
    the session module exports under the same names and which stay
    branch-free. The robustness wrappers take those loops — they never
    forward a batch to ``inner``, so a strike or an injected fault still
    lands on the operand that drew it."""
    for relative, cls in (
        ("core/session.py", "Session"),
        ("runtime/executor.py", "CachedArraysAdapter"),
    ):
        kernel = class_methods(relative, cls)["kernel"]
        policy_calls = sorted(
            (
                call for call in ast.walk(kernel)
                if isinstance(call, ast.Call)
                and "policy" in ast.unparse(call.func).split(".")[:-1]
            ),
            key=lambda call: (call.lineno, call.col_offset),
        )
        assert [call.func.attr for call in policy_calls] == [
            "acquire_operands",
            "on_kernel_finish",
        ], cls
        assert ast.unparse(policy_calls[0].args[-1]).endswith("tracer"), cls

    from repro.core import policy_api, session
    from repro.core.policy_api import DelegatingPolicy, Policy

    # The whole public surface of a policy: Table II, the two placement
    # callbacks, one batch hook before a kernel and one after it.
    assert sorted(
        name for name in vars(Policy)
        if not name.startswith("_") and name not in ("manager", "tracer")
    ) == [
        "acquire_operands", "archive", "bind", "ensure_resident",
        "handle_pressure", "on_bound", "on_iteration_end", "on_kernel_finish",
        "place", "retire", "will_read", "will_use", "will_write",
    ]
    default = class_methods("core/policy_api.py", "Policy")["acquire_operands"]
    assert [
        name for _, name in sorted(
            (call.lineno, ast.unparse(call.func)) for call in ast.walk(default)
            if isinstance(call, ast.Call)
        )
    ] == ["issue_hints", "resolve_residency"]

    assert session.issue_hints is policy_api.issue_hints
    assert session.resolve_residency is policy_api.resolve_residency
    tree = ast.parse((ROOT / "core/policy_api.py").read_text())
    bodies = {
        node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    for name, per_object in (
        ("issue_hints", ["policy.will_read", "policy.will_write"]),
        ("resolve_residency", ["policy.ensure_resident"]),
    ):
        body = bodies[name]
        assert not any(
            isinstance(node, (ast.If, ast.IfExp, ast.Match, ast.Try))
            for node in ast.walk(body)
        ), name
        policy_calls = sorted(
            (
                call for call in ast.walk(body)
                if isinstance(call, ast.Call)
                and ast.unparse(call.func).startswith("policy.")
            ),
            key=lambda call: (call.lineno, call.col_offset),
        )
        assert [ast.unparse(call.func) for call in policy_calls] == per_object, name

    from repro.faults.policy import FaultyPolicy
    from repro.policies.adaptive import AdaptivePolicy
    from repro.policies.multitier import MultiTierPolicy
    from repro.policies.optimizing import OptimizingPolicy
    from repro.policies.watchdog import PolicyWatchdog

    for wrapper in (DelegatingPolicy, PolicyWatchdog, FaultyPolicy):
        assert wrapper.acquire_operands is Policy.acquire_operands, wrapper
    # A policy that never wrote a batch form takes the loops; no policy
    # grows a second public batch form beside the one hook.
    assert MultiTierPolicy.acquire_operands is Policy.acquire_operands
    for cls in (OptimizingPolicy, AdaptivePolicy, MultiTierPolicy, PolicyWatchdog):
        assert {
            name for klass in cls.__mro__ for name in vars(klass)
            if name.endswith("_operands") and not name.startswith("_")
        } == {"acquire_operands"}, cls
