"""The traffic audit script: which functions a command list never enters."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location(
    "traffic_audit", REPO_ROOT / "tools" / "traffic_audit.py"
)
traffic_audit = importlib.util.module_from_spec(spec)
spec.loader.exec_module(traffic_audit)


def test_lists_exactly_the_functions_no_command_entered(tmp_path, monkeypatch, capsys):
    package = tmp_path / "auditdemo"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(
        "import functools\n"
        "\n"
        "def used():\n"
        "    return Thing().value\n"
        "\n"
        "def unused():\n"
        "    x = 1\n"
        "    return x\n"
        "\n"
        "class Thing:\n"
        "    @property\n"
        "    def value(self):\n"
        "        return 1\n"
        "\n"
        "    @functools.lru_cache\n"
        "    def cold(self):\n"
        "        return 2\n"
    )
    script = tmp_path / "script.py"
    script.write_text(
        "import sys\nfrom auditdemo.mod import used\nprint(used())\nsys.exit(3)\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    argv = list(sys.argv)
    misses = traffic_audit.audit([[str(script)]], root=package)
    assert [(name, body) for _, _, name, body in misses] == [
        ("unused", 2),
        ("Thing.cold", 1),
    ]
    # The command's stdout is swallowed, its exit status and its calls into
    # the audited tree reported (the two module bodies, the ``Thing`` class
    # body, ``used`` and ``Thing.value``), and the interpreter state it
    # touched is put back.
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"[exit 3, 5 calls] python {script}\n"
    assert sys.argv == argv and sys.getprofile() is None


def status_line(command):
    """The audit's ``[exit N, M calls] python <command>`` line for one
    command run in a fresh process."""
    done = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "traffic_audit.py"), "-"],
        input=command + "\n",
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    (line,) = [ln for ln in done.stderr.splitlines() if ln.startswith("[exit")]
    return line


def calls_in(line, command):
    match = re.fullmatch(r"\[exit 0, (\d{1,3}(?: \d{3})*) calls\] python " + command, line)
    assert match, line
    return int(match.group(1).replace(" ", ""))


def test_call_count_of_a_fixed_command_repeats_exactly():
    """ROADMAP item 1(a): function calls per pass as a deterministic number —
    two fresh processes running one fixed command report the same count
    (98 818 calls once a kernel made one policy call before it runs, 94 736
    once the policy bumped its stats counters in place, 94 596 once the
    annotation pass checked, rewrote and measured a trace in one walk; the
    floor only says the serving sweep really ran)."""
    command = "-m repro serve --scale 2048 --requests 20"
    first, second = status_line(command), status_line(command)
    assert first == second
    assert calls_in(first, command) > 50_000


# Calls into src/repro (imports included) of the command below once the
# annotation pass checked, rewrote and measured each request trace in one
# walk, and the trace check stopped calling ``check_use`` for a live
# tensor's ``Free`` or ``Archive`` (217 280 before that, once the
# policy bumped its stats counters in place, with no descriptor calls;
# 226 276 before that, once a
# kernel's hints and residency became one policy call, whose sweeps note
# recency only before a fetch, read each primary inline and bump each pin
# count in place; 285 118 before that, once the run loop sampled all of a
# stream's tracks with one frame stamp, the kernel adapter priced each
# operand from its heap's plan, with no `kernel_timing`, `transfer_time` or
# counter-method call per kernel, and `KernelTiming.total` became a slot;
# 313 047 before that, once the
# copy engine priced, charged and recorded each copy from its pair's plan,
# with no `copy_time`, `is_real` or counter-method call per copy; 313 310
# before that, against 313 322 pinned once the allocator moved onto
# boundary tags and placed inline, with no per-split or per-free index
# helpers; 333 820 before that; 331 762 before the no-op
# hint seam of one kernel path for traced and untraced runs; 333 229 before
# `KernelTrace.validate` called `check_use` only for an operand that is not
# live; 400 694 before the mechanism tested state inline, read each device
# constant in one call and recorded a kernel's traffic once per device;
# 613 278 before a kernel's hints, residency and finish became one policy
# call each).
SERVE_CALLS = 217_140


def test_serving_calls_per_command_do_not_creep_back():
    """The count is exact, so a small allowance is enough to tell a new
    per-operand crossing on the kernel path (tens of thousands of calls
    here) from an unrelated helper call or import."""
    command = "-m repro serve --scale 2048 --requests 60"
    assert calls_in(status_line(command), command) <= SERVE_CALLS * 1.02


# Calls into src/repro (imports included) of the traced command below once
# the annotation pass checked, rewrote and measured the trace in one walk
# instead of checking its input and output in two more (511 328 before
# that, once
# the policy bumped its stats counters in place, with no descriptor calls;
# 518 818 before that, once
# a kernel's hints and residency became one policy call; 540 551 before
# that, once the run loop sampled its tracks with one frame stamp and the
# kernel adapter priced each operand from its heap's plan; 558 455 before that,
# once the copy engine priced, charged and recorded each copy from its
# pair's plan; 569 321 before that, once the full tier stamped, rang, counted and
# folded each event in its own ``_event``, through the monitor's one fold
# table, instead of through a typed override per folded kind and
# ``Tracer._event``; 606 179 before that; 635 897 before the allocator moved onto boundary tags and placed
# inline; 724 266 before a traced kernel's hints and residency became one
# policy call each, opening a scope only around an operand that moves).
PROFILE_CALLS = 508_417


def test_traced_calls_per_command_do_not_creep_back():
    """The traced path's count, under the same allowance: a per-operand
    scope or policy crossing creeping back into a traced kernel costs tens
    of thousands of calls here."""
    command = "-m repro profile --model resnet200-large --scale 2048 --iterations 1"
    assert calls_in(status_line(command), command) <= PROFILE_CALLS * 1.02
