"""Documentation lints: links resolve, benchmarks and wire ops are listed.

Six checks keep ``docs/`` honest as the code moves:

* every relative markdown link in ``docs/*.md`` and ``README.md`` must
  point at a file or directory that exists (external ``http(s)``,
  ``mailto`` and pure ``#anchor`` links are skipped -- CI has no
  network, and anchors are a rendering concern);
* every benchmark script ``benchmarks/bench_*.py`` must be mentioned by
  name in ``docs/benchmarks.md``, so a new benchmark cannot land
  without its documentation row;
* every op of the wire-op table (:data:`repro.service.ops.OPS`) must be
  named, in backticks, in ``docs/serving.md``, so a new op cannot land
  undocumented either;
* every op whose result travels as an int64 block (a nonzero
  ``width``) must be named, in backticks, in the ``**Frame layout.**``
  paragraph of ``docs/serving.md``, so the frame description lists
  every block op;
* every markdown file a source module names (any ``*.md`` file name in a
  ``src/**/*.py`` file) must exist at the repo root or under ``docs/``,
  so a docstring cannot cite a document that is gone;
* every dotted ``repro.…`` name in ``docs/*.md``, ``README.md`` and
  ``src/**/*.py`` must resolve to a module or an attribute (the longest
  importable module prefix, then ``getattr`` for the rest), so prose
  cannot keep naming a module or function that was deleted or renamed.

Run it locally or from CI as::

    PYTHONPATH=src python -m repro.docscheck [repo_root]

Exit status 0 means clean; 1 prints one line per problem.
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

#: ``[text](target)`` -- good enough for the hand-written docs here;
#: fenced code blocks are stripped before matching so example links in
#: code samples are not checked.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCE = re.compile(r"```.*?```", re.DOTALL)
_EXTERNAL = ("http://", "https://", "mailto:")
#: A markdown file name as source code cites it: ``PAPERS.md``,
#: ``docs/serving.md``; glob patterns such as ``docs/*.md`` do not match.
_MD_NAME = re.compile(r"(?<![\w./*-])\w[\w./-]*\.md\b")
#: A dotted name in the package namespace: ``repro.core.ritree.RITree``;
#: file paths (``src/repro/...``) do not match.
_DOTTED = re.compile(r"(?<![\w./-])repro(?:\.\w+)+")


def _doc_files(root: Path) -> list[Path]:
    files = sorted((root / "docs").glob("*.md"))
    readme = root / "README.md"
    if readme.exists():
        files.append(readme)
    return files


def check_links(root: Path) -> list[str]:
    """Broken relative links, one ``file: target`` line each."""
    problems = []
    for doc in _doc_files(root):
        text = _FENCE.sub("", doc.read_text())
        for target in _LINK.findall(text):
            if target.startswith(_EXTERNAL) or target.startswith("#"):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (doc.parent / path).resolve()
            if not resolved.exists():
                problems.append(
                    f"{doc.relative_to(root)}: broken link -> {target}"
                )
    return problems


def check_benchmarks_listed(root: Path) -> list[str]:
    """Benchmark scripts missing from ``docs/benchmarks.md``."""
    listing = root / "docs" / "benchmarks.md"
    if not listing.exists():
        return ["docs/benchmarks.md does not exist"]
    text = listing.read_text()
    problems = []
    for script in sorted((root / "benchmarks").glob("bench_*.py")):
        if script.name not in text:
            problems.append(
                f"docs/benchmarks.md: missing entry for "
                f"benchmarks/{script.name}"
            )
    return problems


def check_ops_listed(root: Path) -> list[str]:
    """Wire ops missing from ``docs/serving.md``."""
    from .service.ops import OPS

    listing = root / "docs" / "serving.md"
    if not listing.exists():
        return ["docs/serving.md does not exist"]
    text = listing.read_text()
    return [f"docs/serving.md: missing entry for wire op `{name}`"
            for name in sorted(OPS) if f"`{name}`" not in text]


#: The ``docs/serving.md`` paragraph that describes the frame layout.
FRAME_LAYOUT = "**Frame layout.**"


def check_block_ops_listed(root: Path) -> list[str]:
    """Block-result wire ops missing from the frame-layout paragraph
    of ``docs/serving.md``."""
    from .service.ops import OPS

    listing = root / "docs" / "serving.md"
    if not listing.exists():
        return ["docs/serving.md does not exist"]
    paragraphs = [p for p in listing.read_text().split("\n\n")
                  if p.startswith(FRAME_LAYOUT)]
    if not paragraphs:
        return [f"docs/serving.md: no {FRAME_LAYOUT} paragraph"]
    return [f"docs/serving.md: frame layout does not name block op `{name}`"
            for name, op in sorted(OPS.items())
            if op.width and f"`{name}`" not in paragraphs[0]]


def check_source_mentions(root: Path) -> list[str]:
    """Markdown files named in ``src/**/*.py`` that exist neither at the
    repo root nor under ``docs/``, one ``file:line: name`` line each."""
    problems = []
    for source in sorted((root / "src").rglob("*.py")):
        lines = source.read_text().splitlines()
        for number, line in enumerate(lines, 1):
            for name in _MD_NAME.findall(line):
                if not ((root / name).is_file()
                        or (root / "docs" / name).is_file()):
                    problems.append(f"{source.relative_to(root)}:{number}: "
                                    f"names missing document {name}")
    return problems


def _resolves(name: str) -> bool:
    """Whether ``name`` is an importable module or an attribute path
    below its longest importable module prefix."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attribute in parts[cut:]:
            try:
                target = getattr(target, attribute)
            except AttributeError:
                return False
        return True
    return False


def check_dotted_names(root: Path) -> list[str]:
    """Dotted ``repro.…`` names in the docs, ``README.md`` and
    ``src/**/*.py`` that resolve to nothing, one ``file:line: name`` line
    each."""
    problems = []
    sources = _doc_files(root) + sorted((root / "src").rglob("*.py"))
    for source in sources:
        lines = source.read_text().splitlines()
        for number, line in enumerate(lines, 1):
            for name in _DOTTED.findall(line):
                if not _resolves(name):
                    problems.append(f"{source.relative_to(root)}:{number}: "
                                    f"names unknown {name}")
    return problems


def run(root: Path) -> list[str]:
    """All documentation problems under ``root`` (empty when clean)."""
    if not (root / "docs").is_dir():
        return [f"no docs/ directory under {root}"]
    return (check_links(root) + check_benchmarks_listed(root)
            + check_ops_listed(root) + check_block_ops_listed(root)
            + check_source_mentions(root) + check_dotted_names(root))


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]) if args else Path(__file__).resolve().parents[2]
    problems = run(root)
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(f"FAIL: {len(problems)} documentation problem(s)", file=sys.stderr)
        return 1
    docs = len(_doc_files(root))
    benches = len(list((root / "benchmarks").glob("bench_*.py")))
    print(f"docs check OK: {docs} files linted, {benches} benchmarks listed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
