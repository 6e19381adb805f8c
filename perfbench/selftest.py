"""Self-tests of the benchmark's own code: generator, verdict rules, tracer.

    python3 perfbench/selftest.py

Kept out of the repository's pytest suite on purpose (the file name does
not match test_*.py); it runs tiny CLI jobs and takes a few seconds.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import sys
import tempfile
import types
import unittest
from fractions import Fraction

import run
import workloads

cli = run.import_momentcert()

import checks  # noqa: E402  (needs momentcert on the path)
import layers  # noqa: E402
from tracer import Target, Tracer  # noqa: E402


class InWorkdir(unittest.TestCase):
    def setUp(self) -> None:
        self.cwd = os.getcwd()
        self.dir = tempfile.mkdtemp(prefix=".perfbench-selftest-", dir=run.ROOT)
        os.chdir(self.dir)

    def tearDown(self) -> None:
        os.chdir(self.cwd)
        shutil.rmtree(self.dir)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_jobs(self) -> None:
        for name, block in workloads.BLOCK.items():
            first = list(itertools.islice(workloads.jobs(name, 7), 2 * block))
            again = list(itertools.islice(workloads.jobs(name, 7), 2 * block))
            other = list(itertools.islice(workloads.jobs(name, 8), 2 * block))
            self.assertEqual(first, again, name)
            self.assertNotEqual(first, other, name)

    def test_blocks_keep_the_class_mix(self) -> None:
        for name, block in workloads.BLOCK.items():
            jobs = list(itertools.islice(workloads.jobs(name, 11), 3 * block))
            mixes = [sorted(j.cls for j in jobs[i:i + block]) for i in range(0, len(jobs), block)]
            self.assertEqual(mixes[0], mixes[1], name)
            self.assertEqual(mixes[0], mixes[2], name)

    def test_labels_round_trip(self) -> None:
        for mask in range(1 << 5):
            self.assertEqual(workloads.label_mask(workloads.subset_label(mask, 5)), mask)

    def test_moments_are_superset_sums(self) -> None:
        self.assertEqual(workloads.superset_sums([1, 2, 3, 4], 2), [10, 6, 7, 4])
        numer, total = workloads.measure_moments(random.Random(1), 3)
        self.assertEqual(numer[0], total)


class VerdictRuleTest(InWorkdir):
    def run_and_check(self, job) -> tuple[list[int], list[bytes]]:
        codes, artifacts, _ = run.run_job(cli, job)
        checks.check_job(job, codes, artifacts)
        return codes, artifacts

    def test_tiny_jobs_meet_their_expectations(self) -> None:
        rng = random.Random(5)
        jobs = [
            workloads.knapsack_job(3, Fraction(5, 2)),
            workloads.schedule_job(2, 1, 5),
            workloads.schedule_job(2, 1, 6),
            workloads.schedule_job(2, 1, None),
            workloads.mkp_job(3, 2, 2, Fraction(1, 16)),
            workloads.mkp_job(3, 2, 2, Fraction(1, 8)),
            workloads.replay_job(Fraction(1, 3)),
            workloads.adf_job(rng, 4, False),
            workloads.adf_job(rng, 4, True),
        ]
        got = [self.run_and_check(job)[0] for job in jobs]
        self.assertEqual(got, [[0], [1], [0], [0], [0], [1], [0], [0, 0], [0, 1]])

    def test_wrong_expectation_is_caught(self) -> None:
        job = workloads.mkp_job(3, 2, 2, Fraction(1, 8))
        job.steps[0].expect = 0
        with self.assertRaises(checks.CheckError):
            self.run_and_check(job)

    def test_bad_witness_is_caught(self) -> None:
        job = workloads.schedule_job(2, 1, 5)
        codes, artifacts, _ = run.run_job(cli, job)
        report = json.loads(artifacts[0])
        for cert in report["certificates"]:
            if "witness" in cert:
                cert["witness"] = ["0"] * len(cert["witness"])
        with self.assertRaises(checks.CheckError):
            checks.check_job(job, codes, [json.dumps(report).encode()])

    def test_mkp_eps_between_the_thresholds_is_refused(self) -> None:
        with self.assertRaises(ValueError):
            workloads.mkp_job(3, 2, 2, Fraction(1, 10))


class CalibrationTest(unittest.TestCase):
    def test_local_speed_uses_the_runs_around_the_span(self) -> None:
        refs = [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (10.0, 7.0), (11.0, 8.0), (12.0, 9.0)]
        w = run.REF_WINDOW_S
        self.assertEqual(run.local_speed(refs, 1.0, 1.0), 2.0)
        self.assertEqual(run.local_speed(refs, 11.0, 11.5), 8.0)
        # a long job: the runs that bracket it
        self.assertEqual(run.local_speed(refs, 2.0 + w, 10.0 - w), 5.0)

    def test_throughput_counts_each_class_at_its_median(self) -> None:
        mix = {"a": 3, "b": 1, "c": 2}
        self.assertEqual(run.throughput({"a": [1.0, 1.0, 9.0], "b": [2.0]}, mix), 4 / 5)
        self.assertEqual(run.throughput({"a": [1.0, 9.0, 1.0, 1.0], "b": [2.0, 2.0]}, mix), 4 / 5)
        self.assertEqual(run.throughput({}, mix), 0.0)

    def test_block_mix_is_the_mix_of_every_block(self) -> None:
        self.assertEqual(workloads.block_mix("knapsack"), {"n5": 3, "n6": 1})
        for name, block in workloads.BLOCK.items():
            self.assertEqual(sum(workloads.block_mix(name).values()), block)

    def test_reference_is_fixed_work(self) -> None:
        import reference

        self.assertEqual(reference.run_once(), reference.run_once())


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TracerTest(InWorkdir):
    def test_self_times_sum_to_the_root_span(self) -> None:
        clock = FakeClock()
        mod = types.ModuleType("momentcert._tracer_selftest")

        def leaf():
            clock.now += 2

        def middle():
            clock.now += 1
            mod.leaf()
            mod.leaf()
            clock.now += 3

        def root():
            clock.now += 5
            mod.middle()

        mod.leaf, mod.middle, mod.root = leaf, middle, root
        sys.modules[mod.__name__] = mod
        try:
            targets = [Target(mod.__name__, name, name) for name in ("root", "middle", "leaf")]
            tracer = Tracer(targets, clock=clock)
            with tracer.active(1):
                mod.root()
        finally:
            del sys.modules[mod.__name__]
        self.assertEqual(dict(tracer.self_times()), {"root": 5, "middle": 4, "leaf": 4})
        root_span = next(s for s in tracer.spans if s.group == "root")
        self.assertEqual(sum(tracer.self_times().values()), root_span.end - root_span.start)
        mid = next(s for s in tracer.spans if s.group == "middle")
        self.assertEqual([s.parent for s in tracer.spans if s.group == "leaf"], [mid.sid, mid.sid])
        self.assertEqual(mod.root, root)

    def test_real_job_unpatches_cleanly(self) -> None:
        modules = {n: m for n, m in sys.modules.items() if n.startswith("momentcert")}
        before = {n: dict(vars(m)) for n, m in modules.items()}
        form_cls = sys.modules["momentcert.adf"].AlmostDiagonalForm
        form_attrs = dict(vars(form_cls))
        tracer = Tracer(layers.TARGETS)
        job = workloads.adf_job(random.Random(2), 4, True)
        with tracer.active(1):
            run.run_job(cli, job)
        self.assertEqual({n: dict(vars(m)) for n, m in modules.items()}, before)
        self.assertEqual(dict(vars(form_cls)), form_attrs)
        roots = [s for s in tracer.spans if s.parent is None]
        self.assertEqual([s.group for s in roots], ["cli", "cli"])
        selfs = [s.self_time for s in tracer.spans]
        self.assertTrue(all(v >= 0 for v in selfs))
        self.assertLessEqual(sum(selfs), sum(s.end - s.start for s in roots))
        self.assertGreater(tracer.fired["momentcert.certify.is_psd_exact"], 0)
        self.assertGreater(tracer.counters["lattice.env_reads"], 0)


if __name__ == "__main__":
    unittest.main()
