"""Tests of the benchmark's answer checking and run accounting.

Run from anywhere: python3 perfbench/test_run.py
"""

import os
import sys
import tempfile
import textwrap
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

COUNT = {"butterflies": 48542242}
WING = {"edges": 75283, "max_level": 432, "distinct_levels": 353}


class AnswerCheck(unittest.TestCase):
    def test_count_answers(self):
        line = "butterflies = 48542242  [Inv. 6 (auto)]\n"
        self.assertTrue(run.answer_ok("count_skewed", line, COUNT))
        self.assertFalse(run.answer_ok("count_skewed", line.replace("42242", "42243"), COUNT))
        self.assertFalse(run.answer_ok("count_skewed", line[:-8] + "\n", COUNT))
        self.assertFalse(run.answer_ok("count_skewed", "", COUNT))
        # The right number by another execution path is not this workload.
        self.assertFalse(run.answer_ok("count_ooc", line, COUNT))
        ooc = "butterflies = 48542242  [Inv. 5 (out-of-core, 8 shards)]\n"
        self.assertTrue(run.answer_ok("count_ooc", ooc, COUNT))

    def test_wing_answers(self):
        line = ("wing decomposition: 75283 edges, max level 432, "
                "353 distinct nonzero levels [parallel x2]\n")
        self.assertTrue(run.answer_ok("wing_decompose", line, WING))
        self.assertFalse(run.answer_ok("wing_decompose", line.replace("432", "431"), WING))
        self.assertFalse(run.answer_ok("wing_decompose", line.replace("353", "352"), WING))


class Accounting(unittest.TestCase):
    """Drive the timed loop with a stand-in for the helper's `spawn`, which
    runs the command and reports a fixed time and RSS."""

    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        self.spawner = os.path.join(self.dir.name, "spawner")
        with open(self.spawner, "w") as f:
            f.write(textwrap.dedent(f"""\
                #!{sys.executable}
                import json, subprocess, sys
                out, err, argv = sys.argv[2], sys.argv[3], sys.argv[4:]
                with open(out, "w") as o, open(err, "w") as e:
                    code = subprocess.run(argv, stdout=o, stderr=e).returncode
                print(json.dumps({{"exit": code, "wall_s": 0.5, "maxrss_kib": 1024}}))
                """))
        os.chmod(self.spawner, 0o755)

    def tearDown(self):
        self.dir.cleanup()

    def loop(self, printed, exit_code=0):
        argv = [sys.executable, "-c", f"import sys; print({printed!r}); sys.exit({exit_code})"]
        check = lambda stdout: run.answer_ok("count_skewed", stdout, COUNT)
        return run.timed_loop(self.spawner, lambda i: argv, check, 0.0, self.dir.name)

    def test_correct_answers_are_timed(self):
        t = self.loop("butterflies = 48542242  [Inv. 6 (auto)]")
        self.assertEqual(t.failed, 0)
        self.assertEqual(len(t.wall_s), run.MIN_SAMPLES)
        self.assertEqual(len(t.warmup_s), run.WARMUP_RUNS)
        self.assertEqual(t.attempted, run.MIN_SAMPLES + run.WARMUP_RUNS)

    def test_corrupted_answer_line_is_a_failure(self):
        t = self.loop("butterflies = 48542243  [Inv. 6 (auto)]")
        self.assertEqual((t.attempted, t.failed), (1, 1))
        self.assertEqual((t.wall_s, t.warmup_s), ([], []))

    def test_nonzero_exit_is_a_failure_even_with_the_right_answer(self):
        t = self.loop("butterflies = 48542242  [Inv. 6 (auto)]", exit_code=3)
        self.assertEqual((t.attempted, t.failed), (1, 1))
        self.assertEqual(t.wall_s, [])


class Isolation(unittest.TestCase):
    def test_snapshot_sees_changed_and_new_files(self):
        with tempfile.TemporaryDirectory() as d:
            with open(os.path.join(d, "out.g"), "w") as f:
                f.write("1 1\n")
            before = run.snapshot(d)
            with open(os.path.join(d, "out.g.cache"), "w") as f:
                f.write("")
            self.assertNotEqual(run.snapshot(d), before)
            os.remove(os.path.join(d, "out.g.cache"))
            self.assertEqual(run.snapshot(d), before)
            with open(os.path.join(d, "out.g"), "a") as f:
                f.write("2 2\n")
            self.assertNotEqual(run.snapshot(d), before)


if __name__ == "__main__":
    unittest.main()
