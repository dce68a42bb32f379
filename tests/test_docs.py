"""The documentation lints of :mod:`repro.docscheck`, run as a test.

The same checks CI's docs-check job performs: every relative link in
``docs/`` and ``README.md`` resolves, every benchmark script has an
entry in ``docs/benchmarks.md``, every wire op is named in
``docs/serving.md``, every block-result op in its frame-layout
paragraph, every markdown file a source module names exists, and every
dotted ``repro.…`` name in the docs and the sources resolves.
"""

import pathlib

from repro import docscheck

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_docs_tree_exists():
    assert (ROOT / "docs" / "architecture.md").is_file()
    assert (ROOT / "docs" / "writing-a-backend.md").is_file()
    assert (ROOT / "docs" / "benchmarks.md").is_file()


def test_relative_links_resolve():
    assert docscheck.check_links(ROOT) == []


def test_every_benchmark_is_documented():
    assert docscheck.check_benchmarks_listed(ROOT) == []


def test_every_wire_op_is_documented(tmp_path):
    assert docscheck.check_ops_listed(ROOT) == []
    docs = tmp_path / "docs"
    docs.mkdir()
    assert docscheck.check_ops_listed(tmp_path) == [
        "docs/serving.md does not exist"]
    (docs / "serving.md").write_text("`insert` and `advance_to`")
    problems = docscheck.check_ops_listed(tmp_path)
    assert not any("`insert`" in p for p in problems)
    assert any("`delete`" in p for p in problems)
    assert any("`ingest_batch`" in p for p in problems)


def test_every_block_op_is_in_the_frame_layout(tmp_path):
    assert docscheck.check_block_ops_listed(ROOT) == []
    docs = tmp_path / "docs"
    docs.mkdir()
    serving = docs / "serving.md"
    serving.write_text("`stab`, `intersection`, `query`, `join_pairs` "
                       "and `stored_records` are blocks.")
    assert docscheck.check_block_ops_listed(tmp_path) == [
        "docs/serving.md: no **Frame layout.** paragraph"]
    serving.write_text(
        "**Frame layout.**  Blocks: `stab`, `intersection`, `query`\n"
        "and `join_pairs`.\n\n`stored_records` is named elsewhere.")
    assert docscheck.check_block_ops_listed(tmp_path) == [
        "docs/serving.md: frame layout does not name block op "
        "`stored_records`"]


def test_every_document_named_in_source_exists(tmp_path):
    assert docscheck.check_source_mentions(ROOT) == []
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "guide.md").write_text("")
    (tmp_path / "NOTES.md").write_text("")
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        '"""See NOTES.md, guide.md and docs/guide.md; lints docs/*.md.\n\n'
        'The rationale is in DESIGN.md section 2."""\n')
    assert docscheck.check_source_mentions(tmp_path) == [
        "src/pkg/mod.py:3: names missing document DESIGN.md"]


def test_every_dotted_name_resolves(tmp_path):
    assert docscheck.check_dotted_names(ROOT) == []
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "guide.md").write_text(
        "Use `repro.core.predicates.relate` and `repro.core.RITree.query`;\n"
        "`repro.core.topology` held the relation queries.\n"
    )
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        '"""See src/repro/gone.py and\n'
        ':meth:`~repro.core.ritree.RITree.intersection_records`."""\n'
    )
    assert docscheck.check_dotted_names(tmp_path) == [
        "docs/guide.md:2: names unknown repro.core.topology",
        "src/pkg/mod.py:2: names unknown "
        "repro.core.ritree.RITree.intersection_records",
    ]


def test_checker_reports_problems(tmp_path):
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "index.md").write_text("[dead](missing.md) [ok](index.md)")
    (tmp_path / "benchmarks").mkdir()
    (tmp_path / "benchmarks" / "bench_orphan.py").write_text("")
    problems = docscheck.run(tmp_path)
    assert any("broken link -> missing.md" in p for p in problems)
    assert any("docs/benchmarks.md does not exist" in p for p in problems)
    (docs / "benchmarks.md").write_text("nothing here")
    problems = docscheck.run(tmp_path)
    assert any("bench_orphan.py" in p for p in problems)


def test_cli_exit_status(tmp_path, capsys):
    assert docscheck.main([str(ROOT)]) == 0
    assert docscheck.main([str(tmp_path)]) == 1
    out = capsys.readouterr()
    assert "docs check OK" in out.out
    assert "no docs/ directory" in out.err
