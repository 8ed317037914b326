#!/usr/bin/env python3
"""Unit tests for tools/test_only_symbols.py — the nightly dead-code sweep.

The sweep's verdict rests on a few pure steps: reading `nm -P` output,
reducing a demangled signature to the name the allowlist uses, sorting
library functions by who links them, and matching the allowlist exactly.
Each is pinned here on synthetic inputs, so no sweep build is needed. Runs
under ctest via a plain Python3 interpreter; stdlib only.
"""

import importlib.util
import os
import sys
import unittest

_TOOL = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "tools", "test_only_symbols.py"
)
_spec = importlib.util.spec_from_file_location("test_only_symbols", _TOOL)
sweep = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweep)


class TextSymbolsTest(unittest.TestCase):
    def test_keeps_only_global_text(self):
        lines = [
            "libphoebe_ml.a[gbdt.cc.o]:",
            "_ZN6phoebe2ml3FitEv T 0000000000000000 0000000000000010",
            "_ZN6phoebe2ml6InlineEv W 0000000000000000 0000000000000010",
            "_ZN6phoebe2ml5tableE D 0000000000000000 0000000000000008",
        ]
        self.assertEqual(sweep.text_symbols(lines), {"_ZN6phoebe2ml3FitEv"})


class QualifiedNameTest(unittest.TestCase):
    def test_strips_parameters_qualifiers_and_abi_tags(self):
        self.assertEqual(
            sweep.qualified_name("phoebe::core::TtlEstimator::Predict(int, double) const"),
            "phoebe::core::TtlEstimator::Predict",
        )
        self.assertEqual(
            sweep.qualified_name(
                "phoebe::scenario::SerializeScenario[abi:cxx11](phoebe::scenario::ScenarioSpec const&)"
            ),
            "phoebe::scenario::SerializeScenario",
        )

    def test_template_arguments_and_call_operator_survive(self):
        self.assertEqual(
            sweep.qualified_name("phoebe::Wrap<std::function<void (int)> >::Run(int)"),
            "phoebe::Wrap<std::function<void (int)> >::Run",
        )
        self.assertEqual(
            sweep.qualified_name("phoebe::Cmp::operator()(int, int) const"),
            "phoebe::Cmp::operator()",
        )


class AllowlistTest(unittest.TestCase):
    def test_parses_entries_and_skips_comments(self):
        allow = sweep.parse_allowlist(
            ["# comment", "", "src/testing/  infrastructure", "phoebe::f  kept for later"]
        )
        self.assertEqual(
            allow, {"src/testing/": "infrastructure", "phoebe::f": "kept for later"}
        )

    def test_entry_without_reason_is_an_error(self):
        with self.assertRaises(ValueError):
            sweep.parse_allowlist(["phoebe::f"])

    def test_duplicate_entry_is_an_error(self):
        with self.assertRaises(ValueError):
            sweep.parse_allowlist(["phoebe::f  one", "phoebe::f  two"])


class ClassifyAndCheckTest(unittest.TestCase):
    LIBS = {"prod": "src/core/", "test_only": "src/core/", "dead": "src/ml/",
            "helper": "src/testing/"}
    EXES = {
        "build/tools/cli": {"prod"},
        "build/tests/core_test": {"prod", "test_only", "helper"},
    }
    NAMES = {"prod": "phoebe::Prod()", "test_only": "phoebe::TestOnly(int)",
             "dead": "phoebe::Dead()", "helper": "phoebe::testing::Helper()"}

    def flagged(self):
        return sweep.classify(self.LIBS, self.EXES, lambda e: "/tests/" in e)

    def test_sorts_functions_by_who_links_them(self):
        self.assertEqual(
            self.flagged(),
            {"test_only": "test-only", "dead": "unlinked", "helper": "test-only"},
        )

    def test_allowlist_by_name_and_by_directory(self):
        allow = {"phoebe::TestOnly": "r", "src/testing/": "r"}
        rows, disallowed, stale = sweep.check(self.flagged(), self.LIBS, self.NAMES, allow)
        self.assertEqual(disallowed, 1)  # phoebe::Dead
        self.assertEqual(stale, [])
        self.assertEqual(
            {name: allowed for _, _, name, allowed in rows},
            {"phoebe::TestOnly(int)": True, "phoebe::Dead()": False,
             "phoebe::testing::Helper()": True},
        )

    def test_entry_matching_nothing_is_stale(self):
        allow = {"phoebe::TestOnly": "r", "phoebe::Dead": "r", "src/testing/": "r",
                 "phoebe::Prod": "now called by the CLI"}
        _, disallowed, stale = sweep.check(self.flagged(), self.LIBS, self.NAMES, allow)
        self.assertEqual(disallowed, 0)
        self.assertEqual(stale, ["phoebe::Prod"])


if __name__ == "__main__":
    sys.exit(unittest.main())
