"""The reprolint gate: every rule fires on its bad fixture, stays quiet
on its clean fixture, respects its allowed paths, and the whole repo
comes back clean.

Replaces ``tests/test_excepts_lint.py`` and ``tests/test_dispatch_lint.py``
(the two regex-era gates) with one parametrized suite over the fixture
mini-repo in ``tests/reprolint/fixtures/`` — laid out like a real
checkout (``src/repro/core/...``) so path scoping is exercised exactly
as in production.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
if REPO_ROOT not in sys.path:
    sys.path.insert(0, REPO_ROOT)

from tools.reprolint import (ALL_RULES, Config, all_rules,  # noqa: E402
                             render_json, resolve_rules, run)

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures")

#: (rule id, bad fixture, expected finding lines, clean fixture).
RULE_CASES = [
    ("blanket-except",
     "src/repro/core/blanket_bad.py", [7, 11, 15],
     "src/repro/core/blanket_clean.py"),
    ("backend-dispatch",
     "src/repro/core/dispatch_bad.py", [5, 7],
     "src/repro/core/dispatch_clean.py"),
    ("workload-dispatch",
     "src/repro/core/workload_dispatch_bad.py", [5, 7, 9],
     "src/repro/core/workload_dispatch_clean.py"),
    ("pickle-safe-errors",
     "src/repro/core/pickle_bad.py", [11],
     "src/repro/core/pickle_clean.py"),
    ("no-unseeded-rng",
     "src/repro/core/rng_bad.py", [4, 10, 11, 12, 13],
     "src/repro/core/rng_clean.py"),
    ("no-wallclock-in-compute",
     "src/repro/core/wallclock_bad.py", [9, 10, 11, 12],
     "src/repro/core/wallclock_clean.py"),
    ("dtype-discipline",
     "src/repro/gpu/dtype_bad.py", [3, 9, 10],
     "src/repro/gpu/dtype_clean.py"),
    ("no-mutable-defaults",
     "src/repro/core/mutable_defaults_bad.py", [4, 9, 13, 17],
     "src/repro/core/mutable_defaults_clean.py"),
    ("no-blocking-call-in-async",
     "src/repro/serving/async_bad.py", [8, 9, 10, 14, 15],
     "src/repro/serving/async_clean.py"),
    ("durable-write",
     "src/repro/serving/durable_bad.py", [9, 14, 15, 19, 20, 21, 22],
     "src/repro/serving/durable_clean.py"),
]

#: (rule id, fixture inside the rule's allowed path).
ALLOWED_CASES = [
    ("blanket-except", "src/repro/resilience/blanket_allowed.py"),
    ("backend-dispatch", "src/repro/backends/dispatch_allowed.py"),
    ("workload-dispatch",
     "src/repro/workloads/workload_dispatch_allowed.py"),
    ("no-wallclock-in-compute",
     "src/repro/profiling/wallclock_allowed.py"),
    ("durable-write", "src/repro/serving/net.py"),
]


def lint_fixture(relpath, rule_id):
    """Findings of one rule on one fixture file, with scoping intact."""
    return run(paths=[relpath], root=FIXTURES, rules=[rule_id])


# --------------------------------------------------------------------------
# Per-rule gates


@pytest.mark.parametrize(
    "rule_id, bad, lines, clean", RULE_CASES,
    ids=[case[0] for case in RULE_CASES])
def test_rule_fires_on_bad_fixture(rule_id, bad, lines, clean):
    result = lint_fixture(bad, rule_id)
    assert [f.line for f in result.findings] == lines
    assert all(f.rule_id == rule_id for f in result.findings)
    assert all(f.path == bad for f in result.findings)


@pytest.mark.parametrize(
    "rule_id, bad, lines, clean", RULE_CASES,
    ids=[case[0] for case in RULE_CASES])
def test_rule_quiet_on_clean_fixture(rule_id, bad, lines, clean):
    result = lint_fixture(clean, rule_id)
    assert result.findings == []
    assert result.suppressed == []


@pytest.mark.parametrize("rule_id, allowed", ALLOWED_CASES,
                         ids=[case[0] for case in ALLOWED_CASES])
def test_rule_respects_allowed_paths(rule_id, allowed):
    result = lint_fixture(allowed, rule_id)
    assert result.findings == []


def test_config_allowlist_extends_rule_allowlist():
    """[tool.reprolint.allow] prefixes merge into a rule's own."""
    cfg = Config(allow={"blanket-except": ("src/repro/core",)})
    result = run(paths=["src/repro/core/blanket_bad.py"], root=FIXTURES,
                 rules=["blanket-except"], config=cfg)
    assert result.findings == []


# --------------------------------------------------------------------------
# Suppressions


def test_suppression_silences_exactly_the_named_rule():
    result = run(paths=["src/repro/core/suppressed.py"], root=FIXTURES)
    assert [(f.rule_id, f.line) for f in result.suppressed] == [
        ("blanket-except", 11), ("no-mutable-defaults", 15)]
    # the wrong-rule suppression on line 19 must not silence the finding
    assert [(f.rule_id, f.line) for f in result.findings] == [
        ("no-mutable-defaults", 19)]


def test_suppressions_counted_in_json_report():
    result = run(paths=["src/repro/core/suppressed.py"], root=FIXTURES)
    document = json.loads(render_json(result))
    assert document["suppressed_count"] == 2
    assert len(document["suppressed"]) == 2
    assert all(entry["suppressed"] for entry in document["suppressed"])
    assert {entry["rule"] for entry in document["suppressed"]} == {
        "blanket-except", "no-mutable-defaults"}
    assert set(document["findings"][0]) == {
        "rule", "path", "line", "col", "message", "suppressed"}


# --------------------------------------------------------------------------
# Whole-repo gate


def test_whole_repo_is_clean():
    """The acceptance gate: reprolint exits clean on this checkout."""
    result = run(root=REPO_ROOT)
    assert result.findings == [], "\n".join(
        f"{f.rule_id} {f.path}:{f.line}: {f.message}"
        for f in result.findings)
    assert result.files_scanned > 100


def test_whole_repo_run_is_fast():
    """AST cache + single walk keep the full run under the 5 s budget."""
    start = time.perf_counter()
    run(root=REPO_ROOT)
    assert time.perf_counter() - start < 5.0


def test_registry_has_all_rules():
    ids = [rule.rule_id for rule in all_rules()]
    assert len(ids) == len(set(ids))
    assert len(ids) >= 7
    assert set(ids) >= {case[0] for case in RULE_CASES}
    assert len(ALL_RULES) == len(ids)


def test_unknown_rule_id_fails_loudly():
    with pytest.raises(ValueError, match="unknown rule"):
        resolve_rules(["no-such-rule"])


def test_syntax_error_is_reported_not_raised(tmp_path):
    bad = tmp_path / "src" / "repro" / "core"
    bad.mkdir(parents=True)
    (bad / "broken.py").write_text("def oops(:\n")
    result = run(paths=["src/repro"], root=str(tmp_path))
    assert [f.rule_id for f in result.findings] == ["syntax-error"]


# --------------------------------------------------------------------------
# CLI and legacy wrappers


def _run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "tools.reprolint", *argv],
        cwd=REPO_ROOT, capture_output=True, text=True)


def test_cli_json_clean_on_repo():
    proc = _run_cli("--json")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    document = json.loads(proc.stdout)
    assert document["findings"] == []
    # every audited src waiver is in use and counted
    waivers = 0
    for dirpath, _, files in os.walk(os.path.join(REPO_ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name),
                          encoding="utf-8") as fh:
                    waivers += fh.read().count("# reprolint: disable=")
    assert waivers >= 5
    assert document["suppressed_count"] >= waivers


def test_cli_fails_on_fixture_tree():
    proc = _run_cli("--root", os.path.join("tests", "reprolint",
                                           "fixtures"))
    assert proc.returncode == 1
    assert "blanket-except" in proc.stdout


def test_cli_lists_rules():
    proc = _run_cli("--list-rules")
    assert proc.returncode == 0
    for rule_id, _, _, _ in RULE_CASES:
        assert rule_id in proc.stdout
