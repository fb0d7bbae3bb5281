"""Tests of the benchmark itself (no build needed):

    python3 -m unittest discover -s perfbench
"""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import gen  # noqa: E402

PROGRAM = "process P1:\n  N1 -> T1:  true  /  x0 := 1\n"


def solved(rid, program=PROGRAM, status="solved", verified=True):
    return json.dumps({"id": rid, "status": status, "states": 17, "transitions": 26,
                       "verified": verified, "cache_hits": 0, "cache_misses": 9,
                       "program": program}, separators=(",", ":"))


class GateTest(unittest.TestCase):
    def setUp(self):
        self.answers = {
            "k": gate.answer_of(json.loads(solved("x"))),
            "imp": {"status": "impossible"},
        }
        self.goldens = {"k": PROGRAM}

    def check(self, line, expect="k"):
        return gate.check("r1", expect, line, self.answers, self.goldens)

    def test_known_answer_passes(self):
        self.assertEqual(self.check(solved("r1")), [])
        self.assertEqual(self.check('{"id":"r1","status":"impossible"}', "imp"), [])

    def test_cache_counters_are_not_part_of_the_answer(self):
        warm = solved("r1").replace('"cache_hits":0,"cache_misses":9', '"cache_hits":9,"cache_misses":0')
        self.assertEqual(self.check(warm), [])

    def test_one_byte_program_change_fails(self):
        planted = PROGRAM.replace("x0 := 1", "x0 := 2")
        self.assertEqual(len(planted), len(PROGRAM))
        problems = self.check(solved("r1", planted))
        self.assertTrue(any("program_sha256" in p for p in problems), problems)
        self.assertTrue(any("golden" in p for p in problems), problems)

    def test_wrong_status_fails(self):
        line = '{"id":"r1","status":"overloaded","retry_after_ms":10}'
        self.assertTrue(self.check(line))
        self.assertTrue(self.check(solved("r1", verified=False)))

    def test_lost_reply_fails(self):
        self.assertEqual(self.check(None), ["r1: lost reply"])

    def test_wrong_verdict_fails(self):
        self.assertTrue(self.check('{"id":"r1","status":"impossible"}', "k"))
        self.assertTrue(self.check(solved("r1"), "imp"))

    def test_reply_for_another_id_fails(self):
        self.assertTrue(self.check(solved("r2")))

    def test_answers_agree_with_the_conformance_goldens(self):
        answers = gate.load_answers()
        checked = 0
        for key, ans in answers.items():
            golden = gate.golden_program(HERE.parent, key)
            if golden is not None:
                self.assertIn(ans["program_sha256"], {gate.digest(golden), gate.digest(golden.rstrip("\n"))}, key)
                checked += 1
        self.assertGreaterEqual(checked, 5)

    def test_every_drawable_input_has_an_answer(self):
        answers = gate.load_answers()
        for workload, plan in gen.WORKLOADS.items():
            prime, timed = plan(7)
            for chain in prime + timed[:200]:
                for req in chain:
                    self.assertIn(req["expect"], answers, workload)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_requests(self):
        for plan in gen.WORKLOADS.values():
            self.assertEqual(plan(5), plan(5))

    def test_seed_changes_the_order(self):
        for plan in gen.WORKLOADS.values():
            self.assertNotEqual(plan(5), plan(6))

    def test_conflict_graphs_do_not_repeat_within_a_run(self):
        for name in ("conflict4-minimize", "failstop4-cold"):
            _, timed = gen.WORKLOADS[name](3)
            keys = [c[0]["expect"] for c in timed]
            self.assertEqual(len(keys), len(set(keys)), name)

    def test_repair_into_c_is_guarded_by_neighbours_only(self):
        text = gen.conflict_spec(((0, 1), (1, 2)), True)
        self.assertIn("fault repair-P1-C: D1 & ~C2 ->", text)
        self.assertIn("fault repair-P2-C: D2 & ~C1 & ~C3 ->", text)
        self.assertIn("fault repair-P4-C: D4 ->", text)

    def test_resume_follows_its_abort(self):
        _, timed = gen.plan_repeat_mix_warm(1, decks=2)
        chains = [c for c in timed if len(c) == 2]
        self.assertEqual(len(chains), 2)
        for abort, resume in chains:
            self.assertIn('"budget":{"max_states"', abort["line"])
            self.assertIn(f'"from":"{abort["id"]}"', resume["line"])
            self.assertEqual(resume["expect"], "corpus:" + gen.WARM_ABORT[0])


class LedgerTest(unittest.TestCase):
    RECORD = {"id": "w1", "total_ns": 100, "residual_ns": 5,
              "spans": [["service", "parse_op", 0, 5], ["tableau", "build", 5, 60],
                        ["service", "to_line", 65, 100]]}

    def test_complete_ledger_passes(self):
        self.assertEqual(gate.check_ledger(self.RECORD), [])

    def test_dropped_span_fails(self):
        rec = dict(self.RECORD, spans=self.RECORD["spans"][:1] + self.RECORD["spans"][2:])
        self.assertTrue(gate.check_ledger(rec))

    def test_overlapping_spans_fail(self):
        spans = [["service", "parse_op", 0, 40], ["tableau", "build", 5, 60],
                 ["service", "to_line", 65, 100]]
        self.assertTrue(gate.check_ledger(dict(self.RECORD, spans=spans, residual_ns=-25)))


if __name__ == "__main__":
    unittest.main()
