#!/usr/bin/env python3
"""Lint the src/ library layering against the CMake link graph.

Every src/<x>/CMakeLists.txt defines one static library (add_library) and
its link line (target_link_libraries). This lint enforces:

  - declared includes: a `#include "<d>/..."` in src/<x>/, where src/<d>/
    exists and d != x, names a library that src/<x>/ links, directly or
    transitively. A header-only use still needs the link edge: the edge is
    what keeps the layering visible and acyclic;
  - an acyclic link graph: no library links itself through any chain.

EXCEPTIONS lists the (including file, included file) pairs that are
allowed to break the first rule, each with its reason. An exception that
no longer occurs is itself an error, so the list cannot go stale.

Usage: tools/layering_lint.py [root-dir]   (default: repo root)
Exit status: number of offences (0 = clean).
"""

import pathlib
import re
import sys

EXCEPTIONS = {
    ("tm/tm_edge.h", "workload/flow_store.h"):
        "header-only FlowStore template; workload links tm, so a link edge "
        "would close a cycle, and perfbench includes workload/flow_store.h "
        "by that path, so the header cannot move",
}

ADD_LIBRARY_RE = re.compile(r"add_library\(\s*([A-Za-z0-9_]+)")
LINK_RE = re.compile(r"target_link_libraries\(\s*([A-Za-z0-9_]+)([^)]*)\)",
                     re.S)
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"/]+)/([^"]+)"', re.M)
LINK_KEYWORDS = {"PUBLIC", "PRIVATE", "INTERFACE"}


def read_libraries(src):
    """Returns ({dir: library}, {library: [linked libraries]})."""
    lib_of_dir = {}
    links = {}
    for cmake in sorted(src.glob("*/CMakeLists.txt")):
        text = cmake.read_text(encoding="utf-8")
        added = ADD_LIBRARY_RE.search(text)
        if added is None:
            continue
        lib_of_dir[cmake.parent.name] = added.group(1)
        links.setdefault(added.group(1), [])
        for name, args in LINK_RE.findall(text):
            links.setdefault(name, []).extend(
                a for a in args.split() if a not in LINK_KEYWORDS)
    # Only edges between libraries defined under src/ matter here
    # (Threads::Threads and the like are external).
    for name in links:
        links[name] = [d for d in links[name] if d in links]
    return lib_of_dir, links


def find_cycles(links):
    """Returns each back edge of a DFS as the cycle it closes."""
    cycles = []
    state = {}  # 1 = on the DFS stack, 2 = done
    stack = []

    def visit(lib):
        state[lib] = 1
        stack.append(lib)
        for dep in links[lib]:
            if state.get(dep) == 1:
                cycles.append(stack[stack.index(dep):] + [dep])
            elif dep not in state:
                visit(dep)
        stack.pop()
        state[lib] = 2

    for lib in sorted(links):
        if lib not in state:
            visit(lib)
    return cycles


def closure(links, lib):
    seen = set()
    todo = [lib]
    while todo:
        for dep in links[todo.pop()]:
            if dep not in seen:
                seen.add(dep)
                todo.append(dep)
    return seen


def lint(root):
    """Returns the list of offence messages for the tree at `root`."""
    src = root / "src"
    lib_of_dir, links = read_libraries(src)
    problems = [f"link cycle: {' -> '.join(c)}" for c in find_cycles(links)]
    used_exceptions = set()
    for directory, lib in sorted(lib_of_dir.items()):
        reachable = closure(links, lib)
        files = sorted((src / directory).glob("*.h")) + sorted(
            (src / directory).glob("*.cc"))
        for path in files:
            text = path.read_text(encoding="utf-8")
            rel = f"{directory}/{path.name}"
            for match in INCLUDE_RE.finditer(text):
                target, rest = match.group(1), match.group(2)
                if target == directory or not (src / target).is_dir():
                    continue
                if lib_of_dir.get(target) in reachable:
                    continue
                pair = (rel, f"{target}/{rest}")
                if pair in EXCEPTIONS:
                    used_exceptions.add(pair)
                    continue
                lineno = text.count("\n", 0, match.start()) + 1
                problems.append(
                    f"src/{rel}:{lineno}: includes \"{target}/{rest}\" but "
                    f"{lib} does not link "
                    f"{lib_of_dir.get(target, f'a library in src/{target}')}")
    for pair in sorted(set(EXCEPTIONS) - used_exceptions):
        problems.append(f"stale exception: {pair[0]} -> {pair[1]} no longer "
                        "needs one; remove it from EXCEPTIONS")
    return problems


def main() -> int:
    root = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else (
        pathlib.Path(__file__).resolve().parent.parent)
    problems = lint(root)
    for p in problems:
        print(p)
    if problems:
        print(f"layering_lint: {len(problems)} offence(s).")
    else:
        print("layering_lint: includes follow the link graph, which is "
              "acyclic.")
    return len(problems)


if __name__ == "__main__":
    sys.exit(main())
