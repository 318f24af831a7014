"""Docs freshness check: extract and check the code blocks in the docs.

Every fenced code block in ``docs/*.md`` and ``README.md`` is a
contract with the reader.  This tool keeps the contract honest:

* every ```python block must **compile** (no syntax rot);
* a python block whose first line starts with ``# doc: no-run`` is
  illustrative (it would spawn pools, write files, or assumes names in
  scope) — for those, only the ``import`` statements are extracted (via
  ``ast``) and executed, so imports of dead names still fail;
* every other python block is executed in full, in a fresh namespace,
  from a throwaway working directory;
* every ```bash / ```sh / ```console block is **linted**: command
  words must exist (an allowlist of shell/unix basics, plus anything
  path-like), ``rcgp`` invocations must name a real subcommand and only
  flags that subcommand's ``argparse`` surface actually accepts
  (checked by introspecting :func:`repro.cli.build_parser`),
  ``python -m`` modules must be importable, referenced ``.py`` files
  must exist, and ``curl`` URLs must hit a path in the service routing
  table (:data:`repro.service.ROUTES`).  A block whose first line is
  ``# doc: no-lint`` is skipped;
* every ``benchmarks|tests|tools|examples/<file>.py[::name]`` reference
  in README.md, DESIGN.md, EXPERIMENTS.md and ``docs/*.md`` must name
  a file that exists and, after ``::``, a class or function defined in
  it (``Class::method`` nests).

Run directly (``python tools/docs_smoke.py``) for a CI step, or import
``iter_blocks`` / ``run_block`` / ``iter_shell_blocks`` /
``check_shell_block`` from ``tests/test_docs.py`` for a per-block
pytest parametrization, or ``iter_references`` / ``check_reference``
for the reference check.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import os
import re
import shlex
import sys
import tempfile
import textwrap
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(REPO_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

NO_RUN_MARKER = "# doc: no-run"
NO_LINT_MARKER = "# doc: no-lint"

#: Files scanned for code fences, relative to the repo root.
DOC_FILES = ("README.md", "docs")
#: Files whose references to repo python files must resolve.
REFERENCE_FILES = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs")


@dataclass(frozen=True)
class DocBlock:
    """One fenced ```python block lifted out of a markdown file."""

    path: str        # repo-relative markdown path
    lineno: int      # 1-based line of the opening fence
    source: str      # dedented block body

    @property
    def no_run(self) -> bool:
        first = self.source.lstrip().splitlines()[0] if self.source.strip() else ""
        return first.startswith(NO_RUN_MARKER)

    @property
    def label(self) -> str:
        mode = "imports-only" if self.no_run else "exec"
        return f"{self.path}:{self.lineno} [{mode}]"


def _markdown_files(entries: Tuple[str, ...] = DOC_FILES) -> List[str]:
    files = []
    for entry in entries:
        full = os.path.join(REPO_ROOT, entry)
        if os.path.isdir(full):
            for name in sorted(os.listdir(full)):
                if name.endswith(".md"):
                    files.append(os.path.join(entry, name))
        elif os.path.exists(full):
            files.append(entry)
    return files


def extract_blocks(path: str) -> Iterator[DocBlock]:
    """Yield the ```python blocks of one markdown file."""
    with open(os.path.join(REPO_ROOT, path), encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    fence_line = None
    body: List[str] = []
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if fence_line is None:
            if stripped.startswith("```python"):
                fence_line = number
                body = []
        elif stripped == "```":
            yield DocBlock(path, fence_line, textwrap.dedent("\n".join(body)))
            fence_line = None
        else:
            body.append(line)
    if fence_line is not None:
        raise ValueError(f"{path}:{fence_line}: unterminated ```python fence")


def iter_blocks() -> List[DocBlock]:
    """All python blocks across the scanned markdown files."""
    blocks: List[DocBlock] = []
    for path in _markdown_files():
        blocks.extend(extract_blocks(path))
    return blocks


def _imports_of(tree: ast.Module) -> ast.Module:
    """A module containing only the import statements of *tree*."""
    imports = [node for node in ast.walk(tree)
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    module = ast.Module(body=imports, type_ignores=[])
    return ast.fix_missing_locations(module)


def run_block(block: DocBlock) -> None:
    """Compile *block*; exec it fully, or just its imports if ``no_run``.

    Raises whatever the block raises — SyntaxError on rot, ImportError
    on dead names, AssertionError on stale claims.
    """
    filename = f"<{block.path}:{block.lineno}>"
    tree = ast.parse(block.source, filename=filename)
    if block.no_run:
        code = compile(_imports_of(tree), filename, "exec")
        exec(code, {"__name__": "__docs_smoke__"})
        return
    code = compile(block.source, filename, "exec")
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            exec(code, {"__name__": "__docs_smoke__"})
        finally:
            os.chdir(cwd)


# ----------------------------------------------------------------------
# Shell-block linting

#: Fence info strings treated as shell examples.
SHELL_FENCES = ("bash", "sh", "shell", "console")

#: Command words a doc example may use without further checking.
SHELL_ALLOWLIST = frozenset({
    "cat", "cd", "cp", "curl", "diff", "echo", "env", "export", "find",
    "git", "grep", "head", "jq", "kill", "ls", "mkdir", "mv", "pip",
    "pytest", "python", "python3", "rcgp", "rm", "set", "sleep",
    "source", "tail", "tar", "test", "touch", "true", "wait", "watch",
    "wc", "xargs",
})

#: Shell keywords that may precede a command in one logical line.
_SHELL_KEYWORDS = frozenset({
    "do", "done", "elif", "else", "fi", "if", "then", "time", "until",
    "while",
})

_SEPARATORS = frozenset({"|", "||", "&&", ";", ";;", "&"})

#: curl flags that consume the next token.
_CURL_VALUE_FLAGS = frozenset({
    "-X", "--request", "-d", "--data", "--data-binary", "--data-raw",
    "-H", "--header", "-o", "--output", "-m", "--max-time", "-u",
    "--user", "-T", "--upload-file", "-w", "--write-out",
})

#: Placeholders docs use inside example URLs/arguments, replaced by a
#: plausible job id before route matching.
_PLACEHOLDER = re.compile(r"\$\{?[A-Za-z_][A-Za-z0-9_]*\}?"
                          r"|\{[A-Za-z_][A-Za-z0-9_-]*\}"
                          r"|<[A-Za-z_][A-Za-z0-9_-]*>")


@dataclass(frozen=True)
class ShellBlock:
    """One fenced shell block lifted out of a markdown file."""

    path: str        # repo-relative markdown path
    lineno: int      # 1-based line of the opening fence
    fence: str       # "bash" / "sh" / "shell" / "console"
    source: str      # raw block body

    @property
    def no_lint(self) -> bool:
        first = self.source.lstrip().splitlines()[0] \
            if self.source.strip() else ""
        return first.startswith(NO_LINT_MARKER)

    @property
    def label(self) -> str:
        mode = "skipped" if self.no_lint else "lint"
        return f"{self.path}:{self.lineno} [{self.fence} {mode}]"


def extract_shell_blocks(path: str) -> Iterator[ShellBlock]:
    """Yield the shell blocks of one markdown file."""
    with open(os.path.join(REPO_ROOT, path), encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    fence_line = None
    fence_kind = ""
    body: List[str] = []
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if fence_line is None:
            if stripped.startswith("```"):
                kind = stripped[3:].strip().lower()
                if kind in SHELL_FENCES:
                    fence_line, fence_kind, body = number, kind, []
                elif kind == "":
                    pass  # plain fence: not a shell block
        elif stripped == "```":
            yield ShellBlock(path, fence_line, fence_kind,
                             "\n".join(body))
            fence_line = None
        else:
            body.append(line)
    if fence_line is not None:
        raise ValueError(
            f"{path}:{fence_line}: unterminated ```{fence_kind} fence")


def iter_shell_blocks() -> List[ShellBlock]:
    """All shell blocks across the scanned markdown files."""
    blocks: List[ShellBlock] = []
    for path in _markdown_files():
        blocks.extend(extract_shell_blocks(path))
    return blocks


def shell_commands(block: ShellBlock) -> List[Tuple[int, str]]:
    """``(lineno, logical command)`` pairs of one shell block.

    Handles ``console`` prompts (only ``$ ``-prefixed lines are
    commands, the rest is output), backslash continuations, comments
    and heredocs (the body of a ``<<EOF`` is not shell).
    """
    commands: List[Tuple[int, str]] = []
    pending: Optional[Tuple[int, str]] = None
    heredoc_end: Optional[str] = None
    for offset, line in enumerate(block.source.splitlines()):
        lineno = block.lineno + 1 + offset
        if heredoc_end is not None:
            if line.strip() == heredoc_end:
                heredoc_end = None
            continue
        if pending is not None:
            line = pending[1] + " " + line.strip()
            lineno = pending[0]
            pending = None
        elif block.fence == "console":
            if not line.startswith("$ "):
                continue  # prompt-less lines are displayed output
            line = line[2:]
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.endswith("\\"):
            pending = (lineno, stripped[:-1].strip())
            continue
        heredoc = re.search(r"<<-?\s*'?([A-Za-z_][A-Za-z0-9_]*)'?",
                            stripped)
        if heredoc:
            heredoc_end = heredoc.group(1)
            stripped = stripped[:heredoc.start()].strip()
            if not stripped:
                continue
        commands.append((lineno, stripped))
    if pending is not None:
        commands.append(pending)
    return commands


def _split_simple(command: str) -> List[List[str]]:
    """Split one logical command into pipeline/list segments.

    Redirections (and their targets) are dropped; ``$(`` command
    substitutions and backticks make a segment unlintable and clear it.
    """
    lex = shlex.shlex(command, posix=True, punctuation_chars=True)
    lex.whitespace_split = True
    try:
        tokens = list(lex)
    except ValueError:
        return []  # unbalanced quotes: surfaced by the caller
    segments: List[List[str]] = []
    current: List[str] = []
    skip_next = False
    for token in tokens:
        if skip_next:
            skip_next = False
            continue
        if token in _SEPARATORS:
            if current:
                segments.append(current)
            current = []
        elif all(ch in "<>&|;()" for ch in token) or \
                re.fullmatch(r"\d*[<>]+&?\d*", token):
            # redirection: drop it and its target (2>&1 carries its
            # own target in the token, nothing to skip)
            skip_next = "&" not in token
            if token in ("(", ")"):
                skip_next = False
        else:
            current.append(token)
    if current:
        segments.append(current)
    return segments


_RCGP_SURFACE: Optional[Dict[str, argparse.ArgumentParser]] = None


def _rcgp_surface() -> Dict[str, argparse.ArgumentParser]:
    """``subcommand -> argparse subparser`` for the installed CLI."""
    global _RCGP_SURFACE
    if _RCGP_SURFACE is None:
        from repro.cli import build_parser
        parser = build_parser()
        action = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
        _RCGP_SURFACE = dict(action.choices)
    return _RCGP_SURFACE


def _check_rcgp(tokens: List[str]) -> List[str]:
    surface = _rcgp_surface()
    if len(tokens) < 2:
        return ["rcgp: missing subcommand"]
    sub = tokens[1]
    if sub not in surface:
        return [f"rcgp: unknown subcommand {sub!r} "
                f"(have: {', '.join(sorted(surface))})"]
    options = surface[sub]._option_string_actions
    problems = []
    for token in tokens[2:]:
        if token.startswith("-") and not token.lstrip("-").isdigit():
            flag = token.split("=", 1)[0]
            if flag not in options:
                problems.append(
                    f"rcgp {sub}: unknown flag {flag!r}")
    return problems


def _check_python(tokens: List[str]) -> List[str]:
    if "-m" in tokens:
        index = tokens.index("-m") + 1
        if index >= len(tokens):
            return ["python -m: missing module name"]
        module = tokens[index]
        try:
            found = importlib.util.find_spec(module) is not None
        except (ImportError, ValueError):
            found = False
        if not found:
            return [f"python -m {module}: module not importable"]
        return []
    for token in tokens[1:]:
        if token == "-":
            return []  # script on stdin (heredoc)
        if not token.startswith("-"):
            if token.endswith(".py") and not os.path.isabs(token) \
                    and not os.path.exists(os.path.join(REPO_ROOT, token)):
                return [f"python: no such file {token!r}"]
            return []
    return []


def _check_curl(tokens: List[str]) -> List[str]:
    method = "GET"
    url = None
    index = 1
    while index < len(tokens):
        token = tokens[index]
        if token in ("-X", "--request"):
            if index + 1 < len(tokens):
                method = tokens[index + 1].upper()
            index += 2
            continue
        if token in _CURL_VALUE_FLAGS:
            if token in ("-d", "--data", "--data-binary", "--data-raw") \
                    and method == "GET":
                method = "POST"  # curl's implicit -d semantics
            index += 2
            continue
        if token.startswith("-"):
            index += 1
            continue
        if url is None:
            url = token
        index += 1
    if url is None:
        return ["curl: no URL in example"]
    if "://" not in url:
        return []  # host-relative example: nothing to match against
    substituted = _PLACEHOLDER.sub("ab12cd34ef56", url)
    from urllib.parse import urlsplit
    path = urlsplit(substituted).path or "/"
    from repro.service import route_exists
    if not route_exists(method, path):
        return [f"curl: {method} {path} is not a service endpoint"]
    return []


def check_shell_command(command: str) -> List[str]:
    """Problems with one logical shell command (empty list = clean)."""
    problems: List[str] = []
    for segment in _split_simple(command):
        # shift leading keywords and env assignments off the head
        while segment and (segment[0] in _SHELL_KEYWORDS
                           or "=" in segment[0].split("/")[0]):
            segment = segment[1:]
        if not segment:
            continue
        head = segment[0]
        if head.startswith("$") or head == "for":
            continue  # substitution / loop header: not lintable
        if head == "rcgp":
            problems.extend(_check_rcgp(segment))
        elif head in ("python", "python3"):
            problems.extend(_check_python(segment))
        elif head == "curl":
            problems.extend(_check_curl(segment))
        elif head not in SHELL_ALLOWLIST and "/" not in head:
            problems.append(f"unknown command {head!r} (not in the "
                            "docs_smoke allowlist)")
    return problems


def check_shell_block(block: ShellBlock) -> List[str]:
    """Every problem in one shell block, as ``file:line: message``."""
    if block.no_lint:
        return []
    problems: List[str] = []
    for lineno, command in shell_commands(block):
        for problem in check_shell_command(command):
            problems.append(f"{block.path}:{lineno}: {problem}")
    return problems


# ----------------------------------------------------------------------
# References to repo python files

_REFERENCE = re.compile(
    r"(?<![\w/.-])((?:benchmarks|tests|tools|examples)/[\w/.-]+\.py)"
    r"((?:::\w+)*)")


@dataclass(frozen=True)
class FileReference:
    """One ``<dir>/<file>.py[::name...]`` mention in a markdown file."""

    path: str               # repo-relative markdown path
    lineno: int             # 1-based line of the mention
    target: str             # repo-relative python file
    names: Tuple[str, ...]  # the ``::``-separated names after it

    @property
    def label(self) -> str:
        return "::".join((self.target,) + self.names)


def extract_references(path: str) -> Iterator[FileReference]:
    """Yield the python-file references of one markdown file."""
    with open(os.path.join(REPO_ROOT, path), encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    for number, line in enumerate(lines, start=1):
        for match in _REFERENCE.finditer(line):
            names = tuple(match.group(2).split("::")[1:])
            yield FileReference(path, number, match.group(1), names)


def iter_references() -> List[FileReference]:
    """All python-file references across :data:`REFERENCE_FILES`."""
    references: List[FileReference] = []
    for path in _markdown_files(REFERENCE_FILES):
        references.extend(extract_references(path))
    return references


def check_reference(reference: FileReference) -> List[str]:
    """Problems with one reference, as ``file:line: message``."""
    where = f"{reference.path}:{reference.lineno}"
    full = os.path.join(REPO_ROOT, reference.target)
    if not os.path.isfile(full):
        return [f"{where}: no such file {reference.target!r}"]
    with open(full, encoding="utf-8") as handle:
        scope = ast.parse(handle.read(), filename=full).body
    for name in reference.names:
        node = next((child for child in scope
                     if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                           ast.AsyncFunctionDef))
                     and child.name == name), None)
        if node is None:
            return [f"{where}: {reference.label!r} names nothing "
                    f"({name!r} is not defined there)"]
        scope = node.body
    return []


def main(argv: List[str]) -> int:
    blocks = iter_blocks()
    if not blocks:
        print("docs_smoke: no ```python blocks found", file=sys.stderr)
        return 1
    failures = 0
    for block in blocks:
        print(f"-- {block.label}", flush=True)
        try:
            run_block(block)
        except Exception:  # noqa: BLE001 - report every failing block
            failures += 1
            import traceback

            traceback.print_exc()
    shell_blocks = iter_shell_blocks()
    shell_problems = 0
    for block in shell_blocks:
        print(f"-- {block.label}", flush=True)
        problems = check_shell_block(block)
        for problem in problems:
            print(f"   {problem}", file=sys.stderr)
        shell_problems += len(problems)
    references = iter_references()
    broken = [problem for reference in references
              for problem in check_reference(reference)]
    for problem in broken:
        print(f"   {problem}", file=sys.stderr)
    ran = sum(1 for b in blocks if not b.no_run)
    print(f"docs_smoke: {len(blocks)} python blocks "
          f"({ran} executed, {len(blocks) - ran} imports-only), "
          f"{failures} failed; {len(shell_blocks)} shell blocks, "
          f"{shell_problems} problems; {len(references)} file references, "
          f"{len(broken)} broken")
    return 1 if failures or shell_problems or broken else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
