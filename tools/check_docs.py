#!/usr/bin/env python3
"""Docs consistency checks, run by the CI docs job and locally.

1. Markdown link check: every relative link in the repo's *.md files
   must point at an existing file or directory.
2. Reproduce-table coverage: every binary CMake builds (benches,
   examples, tools) must be mentioned in README.md, so the per-binary
   reproduce table cannot silently fall behind the build; and every
   ./build/{bench,examples,tools}/X command in README.md or docs/
   must name a binary CMake still builds, so a deleted binary cannot
   linger in a reproduce row or recipe.
3. Static-analysis coverage: every lint artifact under tools/lint
   (scripts, configs, suppression file) plus .clang-tidy must be
   mentioned in docs/STATIC_ANALYSIS.md, so the analysis reference
   cannot silently fall behind the lint layer.
4. Bench-flag coverage: every flag the shared bench CLI parses
   (extracted from src/harness/bench_cli.cc) must be documented in
   docs/CAMPAIGN.md's flag table, so a new flag cannot ship
   undocumented.

Exits nonzero (with a line per problem) when anything fails.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# PAPERS.md / SNIPPETS.md are retrieval artifacts (their links point
# into the papers they were extracted from); only maintained docs are
# checked.
SKIP = {"PAPERS.md", "SNIPPETS.md", "PAPER.md"}

MD_FILES = sorted(
    p
    for p in list(ROOT.glob("*.md")) + list((ROOT / "docs").glob("*.md"))
    if "build" not in p.parts and p.name not in SKIP
)

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
BUILD_BINARY_RE = re.compile(r"\./build/(?:bench|examples|tools)/(\w+)")


def check_links() -> list:
    problems = []
    for md in MD_FILES:
        text = md.read_text(encoding="utf-8")
        for target in LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (md.parent / path).resolve()
            if not resolved.exists():
                problems.append(
                    f"{md.relative_to(ROOT)}: broken link -> {target}"
                )
    return problems


def built_binaries() -> list:
    """Every binary name the build produces, parsed from CMakeLists."""
    names = []

    bench_lists = (ROOT / "bench" / "CMakeLists.txt").read_text()
    in_list = False
    for line in bench_lists.splitlines():
        stripped = line.strip()
        if stripped.startswith("set(PTH_BENCHES"):
            in_list = True
            continue
        if in_list:
            if stripped == ")":
                in_list = False
                continue
            if stripped and not stripped.startswith("#"):
                names.append(stripped)
    names += re.findall(r"add_executable\((\w+)", bench_lists)

    example_lists = (ROOT / "examples" / "CMakeLists.txt").read_text()
    for match in re.finditer(
        r"set\(PTH_EXAMPLES(.*?)\)", example_lists, re.S
    ):
        for token in match.group(1).split():
            if not token.startswith("#"):
                names.append(f"example_{token}")

    tools_lists = (ROOT / "tools" / "CMakeLists.txt").read_text()
    names += re.findall(r"add_executable\((\w+)", tools_lists)

    return sorted(set(names))


def check_readme_table() -> list:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    built = built_binaries()
    problems = []
    for name in built:
        if name not in readme:
            problems.append(
                f"README.md: binary '{name}' has no reproduce-table row"
            )
    docs = [ROOT / "README.md"] + sorted((ROOT / "docs").glob("*.md"))
    for doc in docs:
        text = doc.read_text(encoding="utf-8")
        for name in sorted(set(BUILD_BINARY_RE.findall(text))):
            if name not in built:
                problems.append(
                    f"{doc.relative_to(ROOT)}: names './build/.../{name}',"
                    " which CMake no longer builds"
                )
    return problems


def check_static_analysis_doc() -> list:
    doc_path = ROOT / "docs" / "STATIC_ANALYSIS.md"
    if not doc_path.exists():
        return ["docs/STATIC_ANALYSIS.md is missing"]
    doc = doc_path.read_text(encoding="utf-8")
    problems = []
    lint_dir = ROOT / "tools" / "lint"
    artifacts = sorted(
        p for p in lint_dir.iterdir()
        if p.suffix in (".py", ".json", ".supp")
    ) + [ROOT / ".clang-tidy"]
    for artifact in artifacts:
        if artifact.name not in doc:
            problems.append(
                "docs/STATIC_ANALYSIS.md: lint artifact "
                f"'{artifact.name}' is not documented"
            )
    # The thread-safety annotation layer is analysis configuration in
    # the same sense as the lint configs: the macros, the annotated
    # sync wrappers and the CMake gate must stay documented.
    for required in ("thread_annotations.hh", "sync.hh",
                     "PTH_THREAD_SAFETY"):
        if required not in doc:
            problems.append(
                "docs/STATIC_ANALYSIS.md: thread-safety artifact "
                f"'{required}' is not documented"
            )
    return problems


def bench_cli_flags() -> list:
    """Every --flag the shared bench CLI understands, parsed from the
    flagValue() calls and strcmp literals in bench_cli.cc."""
    source = (ROOT / "src" / "harness" / "bench_cli.cc").read_text()
    flags = set(re.findall(r'flagValue\(argc, argv, i,\s*"(--[\w-]+)"', source))
    flags |= set(re.findall(r'strcmp\(arg, "(--[\w-]+)"\)', source))
    flags.discard("--help")  # documented by every bench's own usage
    flags.discard("-h")
    return sorted(flags)


def check_campaign_flag_table() -> list:
    doc_path = ROOT / "docs" / "CAMPAIGN.md"
    if not doc_path.exists():
        return ["docs/CAMPAIGN.md is missing"]
    doc = doc_path.read_text(encoding="utf-8")
    problems = []
    for flag in bench_cli_flags():
        if f"`{flag}" not in doc:
            problems.append(
                f"docs/CAMPAIGN.md: bench CLI flag '{flag}' is not"
                " documented in the flag table"
            )
    return problems


def main() -> int:
    problems = (
        check_links() + check_readme_table() + check_static_analysis_doc()
        + check_campaign_flag_table()
    )
    for problem in problems:
        print(problem)
    if problems:
        print(f"\n{len(problems)} docs problem(s)")
        return 1
    print(
        f"docs OK: {len(MD_FILES)} markdown files, "
        f"{len(built_binaries())} binaries covered"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
