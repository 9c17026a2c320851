"""Tests of the benchmark's own checkers, on hand-built histories.

Run from the root of a checkout:

    python3 perfbench/selftest.py

The last test compares :func:`checks.zone_check` with the program's exact
search (``repro.consistency.is_linearizable``) on random small histories.
"""

from __future__ import annotations

import os
import random
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from checks import Op, table1_objects, ws_window_check, zone_check  # noqa: E402


def w(value, start, end):
    return Op("w", value, start, end)


def r(value, start, end):
    return Op("r", value, start, end)


class ZoneCheckTest(unittest.TestCase):
    def test_linearizable(self):
        ops = [
            r(None, 0, 1), w("a", 2, 9), r("a", 3, 5), r(None, 4, 6),
            w("b", 10, 12), r("b", 11, 14), r("b", 15, 16),
        ]
        self.assertIsNone(zone_check(ops))
        self.assertIsNone(ws_window_check(ops))

    def test_stale_read(self):
        ops = [w("a", 0, 1), w("b", 2, 3), r("a", 4, 5)]
        self.assertIn("inside the forward zone", zone_check(ops))
        self.assertIn("window", ws_window_check(ops))

    def test_new_old_inversion(self):
        # Atomicity forbids it; WS-Regularity allows it.
        ops = [w("a", 0, 1), w("b", 2, 10), r("b", 3, 4), r("a", 5, 6)]
        self.assertIsNotNone(zone_check(ops))
        self.assertIsNone(ws_window_check(ops))

    def test_value_never_written(self):
        ops = [w("a", 0, 1), r("zzz", 2, 3)]
        self.assertIn("never written", zone_check(ops))
        self.assertIn("never written", ws_window_check(ops))

    def test_read_from_the_future(self):
        ops = [r("a", 0, 1), w("a", 2, 3)]
        self.assertIsNotNone(zone_check(ops))
        self.assertIsNotNone(ws_window_check(ops))

    def test_initial_read_after_a_write(self):
        ops = [w("a", 0, 1), r(None, 2, 3)]
        self.assertIsNotNone(zone_check(ops))
        self.assertIsNotNone(ws_window_check(ops))

    def test_overlapping_forward_zones(self):
        # a then b then a again, all strictly ordered: no single order.
        ops = [
            w("a", 0, 1), w("b", 2, 3), r("b", 4, 5), r("a", 6, 7),
        ]
        self.assertIsNotNone(zone_check(ops))

    def test_ws_window_rejects_concurrent_writes(self):
        ops = [w("a", 0, 5), w("b", 1, 6)]
        self.assertIn("not write-sequential", ws_window_check(ops))
        self.assertIsNone(zone_check(ops))

    def test_agrees_with_exact_search(self):
        from repro.consistency import is_linearizable
        from repro.consistency.specs import RegisterSpec
        from repro.sim.history import HistoryOp
        from repro.sim.ids import ClientId

        rng = random.Random(7)
        disagreements = []
        for trial in range(3000):
            n_ops = rng.randint(1, 7)
            stamps = rng.sample(range(4 * n_ops), 2 * n_ops)
            ops = []
            values = []
            for index in range(n_ops):
                start, end = sorted(stamps[2 * index: 2 * index + 2])
                if rng.random() < 0.5 or not values:
                    value = f"v{index}"
                    values.append(value)
                    ops.append(w(value, start, end))
                else:
                    ops.append(r(rng.choice(values + [None]), start, end))
            history = [
                HistoryOp(
                    seq, ClientId(seq), "write" if op.kind == "w" else "read",
                    (op.value,) if op.kind == "w" else (), op.start, op.end,
                    "ack" if op.kind == "w" else op.value,
                )
                for seq, op in enumerate(ops)
            ]
            exact = is_linearizable(history, RegisterSpec(None))
            if exact != (zone_check(ops) is None):
                disagreements.append((trial, ops, exact))
        self.assertEqual(disagreements, [])


class Table1Test(unittest.TestCase):
    def test_figure1_layout(self):
        self.assertEqual(table1_objects("register", 5, 6, 2), 25)

    def test_quorum_substrates(self):
        self.assertEqual(table1_objects("max-register", 0, 3, 1), 3)
        self.assertEqual(table1_objects("cas", 0, 5, 2), 5)

    def test_matches_the_program_layout(self):
        from repro.core.layout import RegisterLayout

        for k, n, f in [(5, 6, 2), (1, 3, 1), (4, 7, 2), (9, 10, 3)]:
            layout = RegisterLayout(k, n, f)
            self.assertEqual(
                table1_objects("register", k, n, f), layout.total_registers
            )


class CheckLoopTest(unittest.TestCase):
    def test_restores_the_collector(self):
        import gc

        from harness import check_loop

        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            try:
                check_loop(3)
                self.assertEqual(gc.isenabled(), enabled)
            finally:
                gc.enable()

    def test_same_work_every_time(self):
        from harness import check_loop

        self.assertEqual(check_loop(5), check_loop(5))


if __name__ == "__main__":
    unittest.main()
