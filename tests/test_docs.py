"""Docs freshness: every code block in the docs compiles, runs or lints.

Thin pytest wrapper over ``tools/docs_smoke.py`` so a stale doc fails
the tier-1 suite with the offending file:line in the test id.  Python
blocks whose first line is ``# doc: no-run`` only have their imports
executed (dead names still fail); all other python blocks run in full.
Shell blocks (```bash / ```sh / ```console) are linted: ``rcgp``
subcommands and flags must exist on the real CLI surface, ``python -m``
modules must import, and ``curl`` examples must hit real service
routes.  Every ``benchmarks|tests|tools|examples/<file>.py[::name]``
reference in README.md, DESIGN.md, EXPERIMENTS.md and ``docs/*.md``
must name a file and a definition that exist.
"""

import os
import sys

import pytest

TOOLS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")
if TOOLS_DIR not in sys.path:
    sys.path.insert(0, TOOLS_DIR)

from docs_smoke import (DocBlock, ShellBlock, check_reference,  # noqa: E402
                        check_shell_block, check_shell_command,
                        extract_blocks, extract_references, iter_blocks,
                        iter_references, iter_shell_blocks, run_block,
                        shell_commands)

BLOCKS = iter_blocks()
SHELL_BLOCKS = iter_shell_blocks()


def test_docs_have_python_blocks():
    # The doc set is part of the deliverable — if extraction finds
    # nothing, the scanner (or the docs) broke.
    assert len(BLOCKS) >= 5
    paths = {block.path for block in BLOCKS}
    assert "README.md" in paths
    assert any(p.startswith("docs" + os.sep) or p.startswith("docs/") for p in paths)


def test_some_blocks_actually_execute():
    # The no-run escape hatch must stay the exception, not the rule.
    runnable = [b for b in BLOCKS if not b.no_run]
    assert len(runnable) >= 3


@pytest.mark.parametrize(
    "block", BLOCKS, ids=[f"{b.path}:{b.lineno}" for b in BLOCKS]
)
def test_doc_block(block):
    run_block(block)


def test_dead_import_fails_even_in_no_run_block():
    block = DocBlock("synthetic.md", 1,
                     "# doc: no-run\nfrom repro import NoSuchName\n")
    with pytest.raises(ImportError):
        run_block(block)


def test_syntax_error_fails_even_in_no_run_block():
    block = DocBlock("synthetic.md", 1, "# doc: no-run\ndef broken(:\n")
    with pytest.raises(SyntaxError):
        run_block(block)


def test_unterminated_fence_is_an_error(tmp_path):
    import docs_smoke

    bad = tmp_path / "bad.md"
    bad.write_text("```python\nx = 1\n")
    original = docs_smoke.REPO_ROOT
    docs_smoke.REPO_ROOT = str(tmp_path)
    try:
        with pytest.raises(ValueError, match="unterminated"):
            list(extract_blocks("bad.md"))
    finally:
        docs_smoke.REPO_ROOT = original


# ----------------------------------------------------------------------
# Shell-block linting


def test_docs_have_shell_blocks():
    # The CLI/service docs ship curl + rcgp examples; if the scanner
    # finds none, it (or the docs) broke.
    assert len(SHELL_BLOCKS) >= 3


@pytest.mark.parametrize(
    "block", SHELL_BLOCKS,
    ids=[f"{b.path}:{b.lineno}" for b in SHELL_BLOCKS]
)
def test_shell_block(block):
    assert check_shell_block(block) == []


def test_unknown_rcgp_subcommand_is_caught():
    assert any("unknown subcommand" in p
               for p in check_shell_command("rcgp fly --fast"))


def test_unknown_rcgp_flag_is_caught():
    problems = check_shell_command("rcgp serve --no-such-flag 1")
    assert any("unknown flag '--no-such-flag'" in p for p in problems)


def test_real_rcgp_command_passes():
    assert check_shell_command(
        "rcgp serve --store runs/ --port 8787 --workers 4") == []
    assert check_shell_command(
        "rcgp bench decoder_2_4 --generations 1000 --seed 7") == []


def test_rcgp_checked_behind_keywords_env_and_pipes(tmp_path):
    assert check_shell_command(
        "PYTHONPATH=src rcgp list | head -5") == []
    problems = check_shell_command(
        "if true; then rcgp serve --bogus; fi")
    assert any("unknown flag '--bogus'" in p for p in problems)


def test_python_module_existence_is_checked():
    assert check_shell_command("python -m repro.cli list") == []
    assert any("not importable" in p for p in
               check_shell_command("python -m repro.no_such_module"))
    assert any("no such file" in p for p in
               check_shell_command("python tools/not_there.py"))


def test_curl_routes_are_checked():
    assert check_shell_command(
        "curl http://127.0.0.1:8787/healthz") == []
    assert check_shell_command(
        "curl -X POST -d @job.json http://127.0.0.1:8787/v1/jobs") == []
    assert check_shell_command(
        "curl http://127.0.0.1:8787/v1/jobs/$JOB_ID/result") == []
    assert any("not a service endpoint" in p for p in
               check_shell_command("curl http://127.0.0.1:8787/v1/nope"))
    # -d implies POST: GET /v1/jobs/{id} exists but POST does not.
    assert any("not a service endpoint" in p for p in check_shell_command(
        "curl -d '{}' http://127.0.0.1:8787/v1/jobs/$JOB_ID"))


def test_unknown_command_word_is_caught():
    assert any("unknown command" in p
               for p in check_shell_command("frobnicate --now"))


def test_console_blocks_lint_only_prompt_lines():
    block = ShellBlock("synthetic.md", 1, "console",
                       "$ rcgp list\nsome output: frobnicate --now\n")
    assert shell_commands(block) == [(2, "rcgp list")]
    assert check_shell_block(block) == []


def test_heredoc_bodies_are_not_linted():
    block = ShellBlock("synthetic.md", 1, "bash",
                       "python - <<EOF\nnot shell at all\nEOF\n")
    assert check_shell_block(block) == []


def test_no_lint_marker_skips_block():
    block = ShellBlock("synthetic.md", 1, "bash",
                       "# doc: no-lint\nfrobnicate --now\n")
    assert check_shell_block(block) == []


# ----------------------------------------------------------------------
# References to repo python files


def test_doc_references_resolve():
    references = iter_references()
    assert len(references) >= 50
    assert {r.path for r in references} >= {"README.md", "DESIGN.md",
                                             "EXPERIMENTS.md"}
    assert [problem for reference in references
            for problem in check_reference(reference)] == []


def _references_in(tmp_path, text):
    import docs_smoke

    (tmp_path / "doc.md").write_text(text)
    original = docs_smoke.REPO_ROOT
    docs_smoke.REPO_ROOT = str(tmp_path)
    try:
        return list(extract_references("doc.md"))
    finally:
        docs_smoke.REPO_ROOT = original


def test_reference_extraction(tmp_path):
    found = _references_in(tmp_path, (
        "see `tests/test_docs.py::test_doc_block[README.md:1]`,\n"
        "perfbench/tools/x.py and src/tests/y.py are not references;\n"
        "run examples/quickstart.py, then "
        "benchmarks/test_ablations.py::TestShrinkAblation::"
        "test_always_vs_never.\n"))
    assert [(r.lineno, r.label) for r in found] == [
        (1, "tests/test_docs.py::test_doc_block"),
        (3, "examples/quickstart.py"),
        (3, "benchmarks/test_ablations.py::TestShrinkAblation::"
            "test_always_vs_never"),
    ]
    assert all(check_reference(r) == [] for r in found)


@pytest.mark.parametrize("text, problem", [
    ("benchmarks/test_ablation_shrink.py", "no such file"),
    ("benchmarks/test_substrates.py::test_resyn2_with_rewrite",
     "'test_resyn2_with_rewrite' is not defined"),
    ("benchmarks/test_ablations.py::TestShrinkAblation::test_nothing",
     "'test_nothing' is not defined"),
    ("tests/test_docs.py::BLOCKS", "'BLOCKS' is not defined"),
])
def test_broken_references_are_caught(tmp_path, text, problem):
    (reference,) = _references_in(tmp_path, text)
    (message,) = check_reference(reference)
    assert message.startswith("doc.md:1: ") and problem in message
