"""Documentation checks: code fences parse, cross-references resolve.

The docs CI job runs this module (plus the examples-importable canary)
so README/docs drift is caught the same way API drift is: every
``python`` fence must be syntactically valid, fences must be balanced
and language-tagged, and `file:line` anchors in the architecture doc
must point inside real files -- at a line that names the symbol when
the anchor is written `` `Name` (`path:N`) ``.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).parent.parent
DOC_FILES = sorted(
    [ROOT / "README.md", ROOT / "PAPER.md", *sorted((ROOT / "docs").glob("*.md"))]
)

FENCE_RE = re.compile(r"^```(\S*)\s*$")


def _fences(path):
    """Yield (language, first_line_number, code) per fence in a doc."""
    language = None
    start = 0
    body = []
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        match = FENCE_RE.match(line)
        if match is None:
            if language is not None:
                body.append(line)
            continue
        if language is None:
            language, start, body = match.group(1), number, []
        else:
            yield language, start, "\n".join(body)
            language = None
    assert language is None, f"{path.name}: unclosed fence opened at line {start}"


@pytest.mark.parametrize(
    "path", DOC_FILES, ids=[str(p.relative_to(ROOT)) for p in DOC_FILES]
)
def test_fences_are_tagged_and_parse(path):
    for language, line, code in _fences(path):
        assert language, (
            f"{path.name}:{line}: fence needs a language tag "
            "(```python, ```bash, ```text, ...)"
        )
        if language == "python":
            try:
                ast.parse(code)
            except SyntaxError as error:  # pragma: no cover - failure path
                pytest.fail(f"{path.name}:{line}: python fence: {error}")
        elif language == "bash":
            assert code.strip(), f"{path.name}:{line}: empty bash fence"
            # Line continuations must not dangle past the fence.
            assert not code.rstrip().endswith("\\\\"), (
                f"{path.name}:{line}: trailing continuation"
            )


ANCHOR_RE = re.compile(r"`((?:src|tests|benchmarks|examples|docs)/[\w./]+):(\d+)`")
PATH_RE = re.compile(r"`((?:src|tests|benchmarks|examples|docs)/[\w./]+\.(?:py|md))`")
LINK_RE = re.compile(r"\[[^\]]+\]\((?!https?://)([^)#]+)\)")
#: `` `Name` (`path:N`) `` -- also `Owner.name`, `name()`, `name(arg=...)`.
NAMED_ANCHOR_RE = re.compile(
    r"`([A-Za-z_][\w.]*)(?:\([^`]*\))?`\s+"
    r"\(`((?:src|tests|benchmarks|examples|docs)/[\w./]+):(\d+)`"
)


@pytest.mark.parametrize(
    "path", DOC_FILES, ids=[str(p.relative_to(ROOT)) for p in DOC_FILES]
)
def test_file_line_anchors_resolve(path):
    text = path.read_text()
    for target, line in ANCHOR_RE.findall(text):
        file = ROOT / target
        assert file.is_file(), f"{path.name}: anchor to missing file {target}"
        total = len(file.read_text().splitlines())
        assert int(line) <= total, (
            f"{path.name}: anchor {target}:{line} is past end of file ({total})"
        )
    for name, target, line in NAMED_ANCHOR_RE.findall(text):
        anchored = (ROOT / target).read_text().splitlines()[int(line) - 1]
        assert name.rsplit(".", 1)[-1] in anchored, (
            f"{path.name}: `{name}` anchor {target}:{line} lands on "
            f"{anchored.strip()!r}"
        )


@pytest.mark.parametrize(
    "path", DOC_FILES, ids=[str(p.relative_to(ROOT)) for p in DOC_FILES]
)
def test_referenced_paths_exist(path):
    text = path.read_text()
    for target in PATH_RE.findall(text):
        assert (ROOT / target).is_file(), (
            f"{path.name}: reference to missing file {target}"
        )
    for target in LINK_RE.findall(text):
        resolved = (path.parent / target).resolve()
        assert resolved.exists(), f"{path.name}: broken relative link {target}"


def test_docs_exist():
    assert (ROOT / "README.md").is_file()
    assert (ROOT / "docs" / "architecture.md").is_file()
    assert (ROOT / "docs" / "examples.md").is_file()
    assert (ROOT / "docs" / "online.md").is_file()
    assert "## Abstract" in (ROOT / "PAPER.md").read_text()


def test_online_guide_is_linked():
    """The online operations guide is reachable from the entry docs."""
    assert "docs/online.md" in (ROOT / "README.md").read_text()
    assert "online.md" in (ROOT / "docs" / "architecture.md").read_text()


def test_fleet_guide_is_linked():
    """The fleet operations guide is reachable from the entry docs."""
    assert (ROOT / "docs" / "fleet.md").is_file()
    assert "docs/fleet.md" in (ROOT / "README.md").read_text()
    assert "fleet.md" in (ROOT / "docs" / "architecture.md").read_text()


def test_fleet_surface_is_pinned():
    """The fleet subcommand and core exports stay documented by name."""
    assert "fleet-serve" in _cli_subcommands()
    readme = (ROOT / "README.md").read_text()
    assert "fleet-serve" in readme
    import repro

    for export in ("Cluster", "FleetService", "FleetStats", "fleet_scenario"):
        assert export in repro.__all__, export


def test_slo_guide_is_linked():
    """The SLO operations guide is reachable from the entry docs."""
    assert (ROOT / "docs" / "slo.md").is_file()
    assert "docs/slo.md" in (ROOT / "README.md").read_text()
    assert "slo.md" in (ROOT / "docs" / "architecture.md").read_text()


def test_slo_surface_is_pinned():
    """The SLO flags and core exports stay documented by name."""
    readme = (ROOT / "README.md").read_text()
    for flag in ("--slo", "--slo-latency-ms", "--slo-observe"):
        assert flag in readme, f"README.md does not mention {flag!r}"
    import repro

    for export in (
        "SLOPolicy",
        "SLOTarget",
        "AdmissionController",
        "AdmissionDecision",
        "slo",
    ):
        assert export in repro.__all__, export
    # The dedicated scenarios stay registered and documented.
    from repro.workloads import churn_scenario_names, fleet_scenario_names

    corpus = "\n".join(path.read_text() for path in DOC_FILES)
    for name in ("priority-storm", "slo-squeeze"):
        assert name in churn_scenario_names(), name
        assert name in fleet_scenario_names(), name
        assert name in corpus, f"scenario {name!r} undocumented"


def test_elastic_guide_is_linked():
    """The elastic operations guide is reachable from the entry docs."""
    assert (ROOT / "docs" / "elastic.md").is_file()
    assert "docs/elastic.md" in (ROOT / "README.md").read_text()
    assert "elastic.md" in (ROOT / "docs" / "architecture.md").read_text()


def test_elastic_surface_is_pinned():
    """The chaos/elastic flags and core exports stay documented by name."""
    readme = (ROOT / "README.md").read_text()
    for flag in ("--chaos", "--elastic", "--elastic-preset", "--elastic-max-boards"):
        assert flag in readme, f"README.md does not mention {flag!r}"
    import repro

    for export in (
        "Autoscaler",
        "ChaosPlan",
        "ElasticPolicy",
        "FailureEvent",
        "cloud_tier",
    ):
        assert export in repro.__all__, export
    # The dedicated scenarios stay registered and documented.
    from repro.workloads import fleet_scenario_names

    corpus = "\n".join(path.read_text() for path in DOC_FILES)
    for name in ("board-failure", "flash-crowd"):
        assert name in fleet_scenario_names(), name
        assert name in corpus, f"scenario {name!r} undocumented"


def test_resilience_guide_is_linked():
    """The resilience operations guide is reachable from the entry docs."""
    assert (ROOT / "docs" / "resilience.md").is_file()
    assert "docs/resilience.md" in (ROOT / "README.md").read_text()
    assert "resilience.md" in (ROOT / "docs" / "architecture.md").read_text()


def test_resilience_surface_is_pinned():
    """The fault/journal flags and core exports stay documented by name."""
    readme = (ROOT / "README.md").read_text()
    for flag in ("--faults", "--journal", "--resume"):
        assert flag in readme, f"README.md does not mention {flag!r}"
    import repro

    for export in (
        "EstimatorFault",
        "FaultPlan",
        "FaultSpec",
        "ResiliencePolicy",
        "resilience",
    ):
        assert export in repro.__all__, export
    # The drill scenario stays registered and documented, and every
    # fault kind is named in the guide.
    from repro.resilience import FAULT_KINDS
    from repro.workloads import churn_scenario_names

    corpus = "\n".join(path.read_text() for path in DOC_FILES)
    assert "estimator-brownout" in churn_scenario_names()
    assert "estimator-brownout" in corpus
    for kind in FAULT_KINDS:
        assert kind in corpus, f"fault kind {kind!r} undocumented"


def test_linting_guide_is_linked():
    """The doctrine-linter guide is reachable from the entry docs."""
    assert (ROOT / "docs" / "linting.md").is_file()
    assert "docs/linting.md" in (ROOT / "README.md").read_text()
    assert "linting.md" in (ROOT / "docs" / "architecture.md").read_text()


def test_lint_surface_is_pinned():
    """The lint subcommand, exports, and rule catalog stay documented."""
    assert "lint" in _cli_subcommands()
    import repro

    for export in ("analysis", "canonical_signature"):
        assert export in repro.__all__, export
    # Every registered rule appears in the guide's catalog table by
    # code and name -- adding a rule without documenting it fails here.
    from repro.analysis import ALL_RULES

    guide = (ROOT / "docs" / "linting.md").read_text()
    assert len(ALL_RULES) >= 9
    for rule in ALL_RULES:
        assert rule.code in guide, rule.code
        assert rule.name in guide, rule.name


# ----------------------------------------------------------------------
# Drift pinning: CLI subcommands and public exports must be documented
# ----------------------------------------------------------------------
def _cli_subcommands():
    import argparse

    from repro.cli import build_parser

    action = next(
        a
        for a in build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return sorted(action.choices)


def test_every_cli_subcommand_documented_in_readme():
    """Every `python -m repro` subcommand (including serve-trace) must
    appear in the README — both the CLI table and the quickstart stay
    honest as commands are added."""
    readme = (ROOT / "README.md").read_text()
    for command in _cli_subcommands():
        assert re.search(rf"\b{re.escape(command)}\b", readme), (
            f"README.md does not mention CLI subcommand {command!r}"
        )


def test_every_public_export_documented():
    """Every name in `repro.__all__` must appear somewhere in the docs
    (README or docs/*.md) — the architecture doc carries a full API
    index, so an undocumented export fails here, not in review."""
    import repro

    corpus = "\n".join(path.read_text() for path in DOC_FILES)
    missing = [
        name
        for name in repro.__all__
        if name != "__version__"
        and not re.search(rf"\b{re.escape(name)}\b", corpus)
    ]
    assert not missing, f"exports missing from the docs: {missing}"


# ----------------------------------------------------------------------
# Module docstrings of the online subsystem carry runnable snippets
# ----------------------------------------------------------------------
NARRATIVE_MODULES = [
    "src/repro/online/__init__.py",
    "src/repro/online/scheduler.py",
    "src/repro/workloads/trace.py",
    "src/repro/service.py",
    "src/repro/fleet/__init__.py",
    "src/repro/fleet/service.py",
]


@pytest.mark.parametrize("module_path", NARRATIVE_MODULES)
def test_module_docstring_has_runnable_snippet(module_path):
    """The narrative module docstrings each carry a doctest-style
    snippet, and every statement in it must compile."""
    import doctest

    source = (ROOT / module_path).read_text()
    docstring = ast.get_docstring(ast.parse(source))
    assert docstring, f"{module_path} has no module docstring"
    examples = doctest.DocTestParser().get_examples(docstring)
    assert examples, f"{module_path}: docstring has no >>> snippet"
    for example in examples:
        try:
            compile(example.source, f"<{module_path} docstring>", "exec")
        except SyntaxError as error:  # pragma: no cover - failure path
            pytest.fail(f"{module_path}: docstring snippet: {error}")
