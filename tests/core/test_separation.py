"""Separation of concerns: the paper's architectural firewall, enforced.

The whole point of CachedArrays (Figure 1) is that policies talk only to the
data-management API, applications talk only to hints, and the mechanism
knows nothing about either. These tests pin that layering so refactors
cannot quietly erode it.
"""

import ast
import inspect

import repro.policies.adaptive
import repro.policies.base
import repro.policies.lru
import repro.policies.modes
import repro.policies.multitier
import repro.policies.noop
import repro.policies.optimizing

POLICY_MODULES = [
    repro.policies.base,
    repro.policies.lru,
    repro.policies.noop,
    repro.policies.optimizing,
    repro.policies.multitier,
    repro.policies.adaptive,
    repro.policies.modes,
]

# Policies may import the manager (the API they drive), objects (the handles
# the API trades in), and framework plumbing — but never the mechanism
# internals below the DataManager.
FORBIDDEN_IMPORTS = (
    "repro.memory.heap",
    "repro.memory.allocator",
    "repro.memory.copyengine",
    "repro.memory.block",
    "repro.twolm",
    "repro.sim.clock",
)


def module_imports(module) -> set[str]:
    tree = ast.parse(inspect.getsource(module))
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
    return found


def test_policies_never_import_mechanism_internals():
    for module in POLICY_MODULES:
        imports = module_imports(module)
        for forbidden in FORBIDDEN_IMPORTS:
            assert not any(
                name == forbidden or name.startswith(forbidden + ".")
                for name in imports
            ), f"{module.__name__} imports mechanism internal {forbidden}"


def test_policies_reach_movement_only_via_manager():
    """Policy sources never touch heap internals or the copy engine."""
    for module in POLICY_MODULES:
        source = inspect.getsource(module)
        assert ".engine." not in source, module.__name__
        assert "allocator." not in source, module.__name__


def test_listings_use_only_documented_api():
    """Listing 1/2 transcriptions call nothing beyond the Section III-C API."""
    documented = {
        "getprimary", "setprimary", "allocate", "try_allocate", "free",
        "copyto", "link", "unlink", "sizeof", "getlinked", "in_device",
        "isdirty", "setdirty", "parent", "evictfrom", "span_victims",
        "region_at", "regions_on", "new_object", "destroy_object",
        "defragment", "heap", "devices", "check_invariants", "free_bytes",
    }
    tree = ast.parse(inspect.getsource(repro.policies.base))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "dm"
        ):
            assert node.attr in documented, f"undocumented DM call: {node.attr}"


def test_trace_workloads_know_nothing_of_memory():
    """Applications (traces) reference tensors by name only."""
    import repro.workloads.synthetic
    import repro.workloads.trace

    for module in (repro.workloads.trace, repro.workloads.synthetic):
        imports = module_imports(module)
        assert not any(name.startswith("repro.memory") for name in imports)
        assert not any(name.startswith("repro.core") for name in imports)
        assert not any(name.startswith("repro.policies") for name in imports)


def test_mechanism_knows_no_policies():
    import repro.core.manager
    import repro.memory.allocator
    import repro.memory.copyengine
    import repro.memory.heap

    for module in (
        repro.core.manager,
        repro.memory.heap,
        repro.memory.allocator,
        repro.memory.copyengine,
    ):
        imports = module_imports(module)
        assert not any(
            name.startswith("repro.policies") for name in imports
        ), f"{module.__name__} depends on policy code"


def test_only_the_object_layer_assigns_primary():
    """``MemObject.primary`` is a plain slot, so nothing but convention
    stops a stray write; this pins the convention. ``attach``/``detach`` in
    ``core/object.py`` are its only writers — everyone else goes through
    ``DataManager.setprimary``."""
    import pathlib

    import repro
    import repro.core.object

    root = pathlib.Path(repro.__file__).parent
    owner = pathlib.Path(repro.core.object.__file__)
    for path in sorted(root.rglob("*.py")):
        if path == owner:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = node.targets
            for target in targets:
                assert not (
                    isinstance(target, ast.Attribute)
                    and target.attr == "primary"
                ), f"{path.relative_to(root)}:{target.lineno} writes .primary"
