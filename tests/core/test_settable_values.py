"""One value, one constant: an option stays only while something sets it.

Each keyword of the objects below that has a default must be passed a
second value by some call in the shipped code (``src/repro``, the examples
and the benchmarks; not the tests), or sit on ``KEPT`` with the reason it
stays. A keyword nothing sets is a constant of its module
(CONTRIBUTING.md, "Options").

The walk is over the AST: a direct call, a method call by the same name, a
``functools.partial`` of the object and every ``dataclasses.replace`` (whose
keywords count for each object with a field of that name). A keyword passed
a literal equal to its default sets nothing; a name or an expression (a
command-line flag, a sweep variable) counts, since it can carry a second
value.
"""

import ast
import importlib
import inspect
import pathlib

REPO = pathlib.Path(__file__).resolve().parents[2]
SHIPPED = ("src/repro", "examples", "benchmarks")

# Call name -> (module, qualified name) of the object it constructs or calls.
OBJECTS = {
    "ServingConfig": ("repro.experiments.serving", "ServingConfig"),
    "run_colo": ("repro.experiments.colo", "run_colo"),
    "ExecutionParams": ("repro.runtime.kernel", "ExecutionParams"),
    "TwoLMSystem": ("repro.twolm.system", "TwoLMSystem"),
    "ExperimentConfig": ("repro.experiments.common", "ExperimentConfig"),
    "MultiTierPolicy": ("repro.policies.multitier", "MultiTierPolicy"),
    "Tape": ("repro.nn.autograd", "Tape"),
    "conv": ("repro.nn.graph", "GraphBuilder.conv"),
    "table": ("repro.experiments.report", "table"),
}

# Keywords no shipped call sets, each with the reason it is not a constant.
KEPT = {
    ("ServingConfig", "admission_budget_bytes"):
        "a test sets the admission budget to the byte",
    ("ExecutionParams", "paranoia"):
        "tests turn on the invariant checks every N kernels",
    ("TwoLMSystem", "alignment"):
        "ROADMAP item 8 names it as a suspected scale mechanism",
    ("ExperimentConfig", "nvram_bytes"):
        "tests run on NVRAM devices of a few MiB",
    ("ExperimentConfig", "line_size"):
        "the design ablation sweeps it through fresh_config(**kwargs)",
    ("ExperimentConfig", "gc_trigger_fraction"):
        "the design ablation sweeps it through fresh_config(**kwargs)",
    ("ExperimentConfig", "params"):
        "tests hand ExecutionParams(paranoia=...) to a run through it",
}


def keywords(name):
    """The parameters of ``name``'s object, ``self`` dropped."""
    module, qualname = OBJECTS[name]
    target = importlib.import_module(module)
    for part in qualname.split("."):
        target = getattr(target, part)
    return [
        p for p in inspect.signature(target).parameters.values() if p.name != "self"
    ]


def call_name(func):
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def sets(value, default):
    """Whether passing ``value`` can set something other than ``default``."""
    try:
        return ast.literal_eval(value) != default
    except ValueError:
        return True


def shipped_calls():
    """``(object name, call node, positional args)`` for every call of an
    object in ``OBJECTS`` (``replace`` once per object)."""
    for root in SHIPPED:
        for path in sorted((REPO / root).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                name, args = call_name(node.func), node.args
                if name == "partial" and args:
                    name, args = call_name(args[0]), args[1:]
                if name == "replace":
                    for each in OBJECTS:
                        yield each, node, []
                elif name in OBJECTS:
                    yield name, node, args


def unset_keywords():
    """``(object name, keyword)`` for every defaulted keyword no shipped
    call passes a second value."""
    params = {name: keywords(name) for name in OBJECTS}
    found = set()
    for name, node, args in shipped_calls():
        passed = [
            (param.name, arg)
            for param, arg in zip(params[name], args)
            if not isinstance(arg, ast.Starred)
        ]
        passed += [(kw.arg, kw.value) for kw in node.keywords if kw.arg]
        defaults = {p.name: p.default for p in params[name]}
        for keyword, value in passed:
            if keyword in defaults and sets(value, defaults[keyword]):
                found.add((name, keyword))
    return {
        (name, p.name)
        for name in OBJECTS
        for p in params[name]
        if p.default is not inspect.Parameter.empty
    } - found


def test_every_keyword_is_set_by_shipped_code_or_kept_for_a_reason():
    assert unset_keywords() - KEPT.keys() == set()


def test_every_kept_keyword_is_still_an_unset_option():
    assert KEPT.keys() - unset_keywords() == set()
    assert all(reason.strip() for reason in KEPT.values())
