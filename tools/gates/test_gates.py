#!/usr/bin/env python3
"""Self-tests for gates.py.

Fixture JSON files in a temp directory prove that a gate fails on
every kind of unusable field (null, NaN, missing, non-numeric) and on
an absent file, and that each comparison operator passes and fails
the right way round.  Against the tracked BENCH_kv.json and
BENCH_kernel.json, every row naming them passes, fails once its
comparisons are inverted, and fails once any field it reads is null.

Registered under ctest as `test_gates`; stdlib-only.
"""

import ast
import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gates  # noqa: E402

TRACKED = (gates.KV, gates.KERNEL)


class FixtureTests(unittest.TestCase):
    def setUp(self):
        self.root = tempfile.mkdtemp(prefix="bluedbm_gates_test_")
        self.addCleanup(shutil.rmtree, self.root, ignore_errors=True)

    def write(self, text, name="f.json"):
        with open(os.path.join(self.root, name), "w",
                  encoding="utf-8") as f:
            f.write(text)

    def why(self, expr, name="f.json"):
        """None when the one-row table passes, else its failure."""
        failures = gates.check([(name, expr, "reason")], self.root)
        return failures[0][1] if failures else None

    def test_null_field_fails_and_names_it(self):
        self.write('{"a": null, "b": 1}')
        self.assertEqual(self.why("a == 0"), "field a is null")
        self.assertIn("field a", self.why("b > 0 and a == 0"))

    def test_nan_field_fails(self):
        self.write('{"a": NaN, "b": Infinity}')
        self.assertIn("field a", self.why("a == a"))
        self.assertIn("field b", self.why("b > 0"))

    def test_missing_field_fails(self):
        self.write('{"a": 1}')
        self.assertEqual(self.why("a <= 3 * c"), "field c is missing")

    def test_non_numeric_field_fails(self):
        self.write('{"s": "1", "t": true, "l": [1]}')
        for name in ("s", "t", "l"):
            self.assertIn("field %s is not a number" % name,
                          self.why("%s > 0" % name))

    def test_absent_file_fails(self):
        self.assertEqual(self.why("a == 0", "nope.json"),
                         "file is absent")

    def test_malformed_file_fails(self):
        self.write('{"a": 1')
        self.assertIn("not JSON", self.why("a == 1"))
        self.write("[1]")
        self.assertEqual(self.why("a == 1"), "file is not a JSON object")

    def test_each_comparison_both_ways(self):
        self.write('{"lo": 1, "hi": 2, "zero": 0}')
        for expr, holds in [
                ("lo < hi", True), ("hi < lo", False),
                ("lo <= lo", True), ("hi <= lo", False),
                ("hi > lo", True), ("lo > hi", False),
                ("lo >= lo", True), ("lo >= hi", False),
                ("zero == 0", True), ("lo == 0", False),
                ("lo != hi", True), ("lo != lo", False),
                ("hi <= 2 * lo", True), ("hi <= 1.5 * lo", False),
                ("lo + lo == hi", True), ("lo - hi > 0", False),
                ("0 < lo < hi", True), ("0 < hi < lo", False),
                ("lo > 0 and hi > 0", True), ("lo > 0 and zero > 0", False),
                ("zero > 0 or hi > 0", True), ("not lo > 0", False)]:
            why = self.why(expr)
            if holds:
                self.assertIsNone(why, expr)
            else:
                self.assertIn("false with", why, expr)

    def test_only_arithmetic_and_comparisons(self):
        self.write('{"a": 1}')
        for expr in ("__import__('os')", "a.real > 0", "'x' == 'x'",
                     "a ** 2 > 0", "a / a > 0", "a >"):
            self.assertIn("bad expression", self.why(expr), expr)

    def test_every_row_is_evaluated(self):
        self.write('{"a": 1}')
        rows = [("f.json", "a == 2", "first"),
                ("gone.json", "a == 1", "second"),
                ("f.json", "a == 1", "third"),
                ("f.json", "b == 1", "fourth")]
        failed = [row[2] for row, _ in gates.check(rows, self.root)]
        self.assertEqual(failed, ["first", "second", "fourth"])

    def test_main_exits_nonzero_with_the_reason(self):
        self.write('{"a": 1}')
        rows = [("f.json", "a == 1", "holds"),
                ("f.json", "a > 5", "a must exceed five")]
        out = io.StringIO()
        with mock.patch.object(gates, "GATES", rows), \
                mock.patch.object(gates, "ROOT", self.root), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(out):
            self.assertEqual(gates.main(), 1)
        self.assertIn("a must exceed five", out.getvalue())
        self.assertNotIn("holds", out.getvalue())


_INVERSE = {ast.Lt: ast.GtE, ast.LtE: ast.Gt, ast.Gt: ast.LtE,
            ast.GtE: ast.Lt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}


def invert(expr):
    """@p expr with every comparison operator replaced by its
    negation: false wherever each comparison of @p expr held."""
    tree = gates.parse(expr)
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            node.ops = [_INVERSE[type(op)]() for op in node.ops]
    return ast.unparse(tree)


class TrackedTests(unittest.TestCase):
    """The table against the tracked bench JSONs at the repo root."""

    def rows(self):
        rows = [row for row in gates.GATES if row[0] in TRACKED]
        self.assertEqual({row[0] for row in rows}, set(TRACKED))
        return rows

    def test_tracked_files_pass_every_row(self):
        self.assertEqual(gates.check(self.rows()), [])

    def test_inverted_rows_fail(self):
        for path, expr, reason in self.rows():
            failures = gates.check([(path, invert(expr), reason)])
            self.assertEqual(len(failures), 1, expr)
            self.assertIn("false with", failures[0][1], expr)

    def test_null_fields_fail(self):
        root = tempfile.mkdtemp(prefix="bluedbm_gates_test_")
        self.addCleanup(shutil.rmtree, root, ignore_errors=True)
        for path, expr, reason in self.rows():
            with open(os.path.join(gates.ROOT, path),
                      encoding="utf-8") as f:
                doc = json.load(f)
            for node in ast.walk(gates.parse(expr)):
                if not isinstance(node, ast.Name):
                    continue
                with open(os.path.join(root, path), "w",
                          encoding="utf-8") as f:
                    json.dump(dict(doc, **{node.id: None}), f)
                failures = gates.check([(path, expr, reason)], root)
                self.assertEqual(failures[0][1],
                                 "field %s is null" % node.id, expr)


if __name__ == "__main__":
    unittest.main(verbosity=2)
