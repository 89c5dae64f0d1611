"""Documentation <-> code consistency.

DESIGN.md's module map and per-experiment index must reference files
that actually exist, and every backticked ``repro.…`` name in the prose
docs must import; nothing rots silently.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import repro
from repro import cli

REPO_ROOT = Path(repro.__file__).resolve().parent.parent.parent
DESIGN = (REPO_ROOT / "DESIGN.md").read_text()
EXPERIMENTS = (REPO_ROOT / "EXPERIMENTS.md").read_text()
SRC = Path(repro.__file__).resolve().parent


def test_design_module_map_files_exist():
    # Lines like "  core/switch.py       description"
    referenced = re.findall(r"^\s{2}([a-z_/]+\.py)\s", DESIGN,
                            flags=re.MULTILINE)
    assert len(referenced) > 30
    for path in referenced:
        assert (SRC / path).exists(), f"DESIGN.md references missing {path}"


def test_design_bench_targets_exist():
    benches = set(re.findall(r"`(benchmarks/[a-z0-9_]+\.py)`", DESIGN))
    assert len(benches) >= 15
    for path in benches:
        assert (REPO_ROOT / path).exists(), path


def test_experiments_bench_targets_exist():
    benches = set(re.findall(r"`(benchmarks/[a-z0-9_]+\.py)`", EXPERIMENTS))
    for path in benches:
        assert (REPO_ROOT / path).exists(), path
    names = set(re.findall(r"`(test_[a-z0-9_]+\.py)`", EXPERIMENTS))
    for name in names:
        assert (REPO_ROOT / "benchmarks" / name).exists(), name


def test_every_bench_file_is_indexed_in_design():
    bench_files = {
        p.name for p in (REPO_ROOT / "benchmarks").glob("test_*.py")
    }
    for name in bench_files:
        assert name in DESIGN, f"{name} not indexed in DESIGN.md"


def test_readme_examples_exist():
    readme = (REPO_ROOT / "README.md").read_text()
    examples = set(re.findall(r"`examples/([a-z0-9_]+\.py)`", readme))
    assert len(examples) >= 3
    for name in examples:
        assert (REPO_ROOT / "examples" / name).exists(), name


def test_paper_anchor_numbers_present_in_design():
    # The calibration anchors must be stated (and therefore auditable).
    for anchor in ("10.40", "1.23", "1.94", "2070", "840"):
        assert anchor in DESIGN


def test_design_declares_paper_match():
    assert "matches" in DESIGN.splitlines()[7].lower() or \
        "matches" in DESIGN[:800].lower()


#: Prose docs whose backticked ``repro.…`` names must resolve.
DOCS = (
    [REPO_ROOT / name for name in ("README.md", "DESIGN.md",
                                   "EXPERIMENTS.md")]
    + sorted((REPO_ROOT / "docs").glob("*.md"))
)

#: A backticked span starting with a dotted ``repro`` name; the name
#: stops at the first character that cannot continue it, so
#: `repro.obs.write_chrome_trace(path, observer)` yields the function
#: and `repro.io.*` the package.
DOTTED_NAME = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)")


def _resolve(name):
    """Import the longest module prefix of ``name``, then walk the rest
    as attributes; raises if any step is missing."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(module_name)
        except ModuleNotFoundError as err:
            if err.name != module_name:
                raise
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(name)


def test_doc_dotted_names_resolve():
    names = set()
    for path in DOCS:
        names.update(DOTTED_NAME.findall(path.read_text()))
    # Guards the extraction itself: a regex that silently matched
    # nothing would pass vacuously.
    assert len(names) >= 50
    broken = []
    for name in sorted(names):
        try:
            _resolve(name)
        except (ImportError, AttributeError) as err:
            broken.append(f"{name}: {err}")
    assert broken == [], "docs cite names that do not resolve"


#: ``python -m repro <sub> [<arg>]`` in prose and the Makefile's
#: ``$(PYTHON) -m repro <sub>``; the subcommand may wrap onto the next
#: line, and placeholders such as ``<experiment>`` do not match.
DOC_COMMAND = re.compile(r"(?:python|\$\(PYTHON\)) -m repro\s+"
                         r"([a-z][\w-]*)(?:[ \t]+([a-z][\w-]*))?")


def _choices(parser, dest):
    return next(action.choices for action in parser._actions
                if action.dest == dest)


def test_doc_commands_parse():
    # Subcommands main() routes before parsing: ``argv[:1] == ["run"]``.
    dispatched = {
        node.comparators[0].elts[0].value
        for node in ast.walk(ast.parse(inspect.getsource(cli.main)))
        if isinstance(node, ast.Compare)
        and isinstance(node.comparators[0], ast.List)
    }
    known = dispatched | set(_choices(cli.build_parser(), "experiment"))
    workloads = set(_choices(cli.build_run_parser(), "workload"))
    commands = []
    for path in DOCS + [REPO_ROOT / "Makefile"]:
        commands.extend((path.name, sub, arg) for sub, arg
                        in DOC_COMMAND.findall(path.read_text()))
    # Guards the extraction itself, as in test_doc_dotted_names_resolve.
    assert len(commands) >= 40
    broken = [(name, sub, arg) for name, sub, arg in commands
              if sub not in known or (sub == "run" and arg not in workloads)]
    assert broken == [], "docs document commands the CLI rejects"
