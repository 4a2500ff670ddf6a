#!/usr/bin/env python3
"""Unit checks for tools/layering_lint.py's exit status.

    python3 -m unittest discover -s tools -p 'test_*.py'
"""

import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent / "layering_lint.py"


def write_tree(root, libs, files):
    """libs: {dir: [linked dirs]}; files: {"dir/name": text}."""
    for directory, deps in libs.items():
        (root / "src" / directory).mkdir(parents=True, exist_ok=True)
        link = " ".join(f"painter_{d}" for d in deps)
        (root / "src" / directory / "CMakeLists.txt").write_text(
            f"add_library(painter_{directory} STATIC a.cc)\n"
            f"target_link_libraries(painter_{directory} PUBLIC {link}\n"
            "  Threads::Threads)\n", encoding="utf-8")
    for rel, text in files.items():
        path = root / "src" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


# The exception the real tree needs; present in every fixture so it is
# never reported as stale.
EXCEPTION_FILES = {"tm/tm_edge.h": '#include "workload/flow_store.h"\n',
                   "workload/flow_store.h": "#pragma once\n"}


class LayeringLintTest(unittest.TestCase):
    def run_lint(self, libs, files):
        with tempfile.TemporaryDirectory() as tmp:
            write_tree(Path(tmp), libs, {**EXCEPTION_FILES, **files})
            return subprocess.run(
                [sys.executable, str(SCRIPT), tmp],
                capture_output=True, text=True, check=False)

    LIBS = {"util": [], "tm": ["util"], "workload": ["tm", "util"]}

    def test_declared_and_transitive_includes_pass(self):
        proc = self.run_lint(self.LIBS, {
            "workload/engine.h": '#include "tm/tm_edge.h"\n'
                                 '#include "util/ids.h"\n'
                                 '#include "workload/load.h"\n',
            "tm/tm_pop.cc": '#include "util/ids.h"\n#include <vector>\n'})
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_transitive_link_is_enough(self):
        libs = {"util": [], "tm": ["util"], "workload": ["tm"]}
        proc = self.run_lint(libs, {"workload/engine.cc":
                                    '#include "util/ids.h"\n'})
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_undeclared_include_fails(self):
        proc = self.run_lint(self.LIBS, {"tm/control.cc":
                                         '#include "workload/load.h"\n'})
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("src/tm/control.cc:1", proc.stdout)

    def test_include_of_a_library_less_directory_fails(self):
        proc = self.run_lint(self.LIBS, {
            "painter/painter.h": "#pragma once\n",
            "util/ids.h": '#include "painter/painter.h"\n'})
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("src/util/ids.h:1", proc.stdout)

    def test_link_cycle_fails(self):
        libs = {**self.LIBS, "core": ["bgpsim"], "bgpsim": ["util", "core"]}
        proc = self.run_lint(libs, {})
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("link cycle: painter_bgpsim -> painter_core -> "
                      "painter_bgpsim", proc.stdout)

    def test_stale_exception_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            write_tree(Path(tmp), self.LIBS,
                       {"tm/tm_edge.h": "#pragma once\n"})
            proc = subprocess.run([sys.executable, str(SCRIPT), tmp],
                                  capture_output=True, text=True, check=False)
        self.assertEqual(proc.returncode, 1, proc.stdout)
        self.assertIn("stale exception", proc.stdout)


if __name__ == "__main__":
    unittest.main()
