"""Documentation-site integrity checks.

``docs/`` must exist, every ``REPRO_*`` environment knob used anywhere
in the package must be documented in ``docs/knobs.md`` and listed by
``repro knobs`` — and, the other way round, no ``REPRO_*`` name the
package no longer reads may linger in the docs, the knob table, the
tests, benches, examples or CI — and every relative markdown link in the
site (and the README) must resolve.  CI runs this module in its docs
job; it also rides the normal tier so the site cannot rot locally.
"""

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = ROOT / "docs"
SRC = ROOT / "src" / "repro"

#: Pages the docs satellite promises.
REQUIRED_PAGES = ("architecture.md", "knobs.md", "quickstart.md")

#: Non-knob REPRO_* identifiers (none today; listed for future use).
KNOB_ALLOWLIST: frozenset = frozenset()

#: Where a knob the package no longer reads must not be mentioned.
KNOB_MENTION_TREES = ("tests", "benchmarks", "examples")
KNOB_MENTION_FILES = (".github/workflows/ci.yml",)

KNOB_NAME = re.compile(r"REPRO_[A-Z_]+")


def _knobs_in(paths) -> dict[str, list[str]]:
    """``REPRO_*`` name -> the files (relative to the root) naming it."""
    found: dict[str, list[str]] = {}
    for path in paths:
        for name in set(KNOB_NAME.findall(path.read_text())):
            found.setdefault(name, []).append(
                str(path.relative_to(ROOT)))
    return found


def _knobs_read() -> set[str]:
    """Every ``REPRO_*`` name the package source mentions."""
    return set(_knobs_in(SRC.rglob("*.py"))) - set(KNOB_ALLOWLIST)


def _stale(mentions: dict[str, list[str]]) -> dict[str, list[str]]:
    """The mentioned names the package does not read, with their files."""
    read = _knobs_read()
    return {name: files for name, files in sorted(mentions.items())
            if name not in read and name not in KNOB_ALLOWLIST}


def _markdown_files():
    files = [ROOT / "README.md"]
    files.extend(sorted(DOCS.glob("*.md")))
    return [f for f in files if f.exists()]


def test_docs_site_exists():
    assert DOCS.is_dir(), "docs/ directory missing"
    for page in REQUIRED_PAGES:
        assert (DOCS / page).is_file(), f"docs/{page} missing"
    assert (ROOT / "README.md").is_file(), "top-level README.md missing"


def test_every_env_knob_documented():
    """Every REPRO_* environment variable in the source appears in
    docs/knobs.md, plus the other documented switches — and no REPRO_*
    name the source no longer reads is still mentioned in the README,
    docs/, tests/, benchmarks/, examples/ or the CI workflow."""
    used = _knobs_read()
    knobs = (DOCS / "knobs.md").read_text()
    missing = sorted(knob for knob in used if knob not in knobs)
    assert not missing, f"knobs undocumented in docs/knobs.md: {missing}"
    # The non-env switches the issue names explicitly.
    for switch in ("SPARSE_AUTO_THRESHOLD", "--update-golden"):
        assert switch in knobs, f"{switch} missing from docs/knobs.md"
    paths = list(_markdown_files())
    for tree in KNOB_MENTION_TREES:
        paths.extend(p for p in sorted((ROOT / tree).rglob("*"))
                     if p.is_file() and p.suffix in (".py", ".md", ".txt",
                                                     ".json", ".yml"))
    paths.extend(ROOT / f for f in KNOB_MENTION_FILES
                 if (ROOT / f).is_file())
    stale = _stale(_knobs_in(paths))
    assert not stale, f"knobs the package no longer reads: {stale}"


def test_cli_knob_table_covers_env_knobs():
    """`repro knobs` must not rot behind the source: every REPRO_*
    variable used in the package appears in the CLI's KNOBS table, and
    the table lists no REPRO_* variable the package no longer reads."""
    import sys

    sys.path.insert(0, str(ROOT / "src"))
    try:
        from repro.cli import KNOBS
    finally:
        sys.path.pop(0)
    cli_names = {row[0] for row in KNOBS}
    missing = sorted(_knobs_read() - cli_names)
    assert not missing, f"knobs missing from repro.cli.KNOBS: {missing}"
    stale = _stale({name: ["repro.cli.KNOBS"] for name in cli_names
                    if name.startswith("REPRO_")})
    assert not stale, f"repro.cli.KNOBS lists unread knobs: {stale}"


def test_relative_markdown_links_resolve():
    """Every relative link/image in README + docs/ points at a real file
    (anchors are stripped; external URLs are out of scope for the fast
    tier — CI's link-check step covers formatting)."""
    link = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
    broken = []
    for md in _markdown_files():
        for target in link.findall(md.read_text()):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            rel = target.split("#", 1)[0]
            if not rel:
                continue
            if not (md.parent / rel).exists():
                broken.append(f"{md.relative_to(ROOT)} -> {target}")
    assert not broken, f"broken relative links: {broken}"


def test_markdown_lint():
    """Light markdown lint (CI's docs job runs exactly this): no tabs,
    no trailing whitespace, fenced code blocks closed, and a single H1
    per page."""
    problems = []
    for md in _markdown_files():
        rel = md.relative_to(ROOT)
        text = md.read_text()
        fences = 0
        h1 = 0
        for lineno, line in enumerate(text.splitlines(), start=1):
            if line.startswith("```"):
                fences += 1
                continue
            if fences % 2 == 1:
                continue            # inside a code block: anything goes
            if "\t" in line:
                problems.append(f"{rel}:{lineno}: tab character")
            if line != line.rstrip():
                problems.append(f"{rel}:{lineno}: trailing whitespace")
            if line.startswith("# "):
                h1 += 1
        if fences % 2 == 1:
            problems.append(f"{rel}: unclosed code fence")
        if h1 != 1:
            problems.append(f"{rel}: expected exactly one H1, found {h1}")
    assert not problems, "markdown lint: " + "; ".join(problems)


def test_readme_and_docs_cross_link():
    """README links into docs/ and the quickstart links the examples."""
    readme = (ROOT / "README.md").read_text()
    assert "docs/quickstart.md" in readme
    assert "docs/architecture.md" in readme
    assert "docs/knobs.md" in readme
    quickstart = (DOCS / "quickstart.md").read_text()
    assert "examples/" in quickstart
