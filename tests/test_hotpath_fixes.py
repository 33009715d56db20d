"""Regression tests for the timing-model bugfixes and determinism
guarantees that rode along with the hot-path overhaul:

* trace-hit retire pacing uses ceiling division, not banker's ``round``;
* the preconstruction I-cache port carries its overdraft across ticks;
* results are PYTHONHASHSEED-independent, so they are byte-identical
  across processes;
* a golden pin of ``FrontendStats.summary()`` for a seeded workload.
"""

import json
import os
import subprocess
import sys

from repro.branch import BimodalPredictor
from repro.caches import InstructionCache
from repro.core import PreconstructionEngine
from repro.isa import assemble
from repro.program import ProgramImage
from repro.runner import ExperimentSpec, execute_spec
from repro.sim.frontend_runner import retire_pace_table
from repro.trace import TraceCache


# ----------------------------------------------------------------------
# Fix 1: retire pacing is ceiling division.
# ----------------------------------------------------------------------
class TestRetirePaceCeiling:
    def test_half_cycle_drains_round_up(self):
        # 15 instructions at 2.5 IPC need 6 cycles; 16 need 6.4 -> 7.
        # round() gave 6 for both (banker's rounding on 6.5 went down
        # via 16/2.5=6.4? no: 15/2.5=6.0, 16/2.5=6.4->6), undercharging
        # any trace whose drain lands between integers.
        table = retire_pace_table(2.5)
        assert table[15] == 6
        assert table[16] == 7

    def test_floor_is_one_fetch_cycle(self):
        table = retire_pace_table(4.0)
        assert table[0] == 1
        assert table[1] == 1

    def test_exact_multiples_unchanged(self):
        table = retire_pace_table(2.0)
        assert [table[n] for n in (2, 4, 8, 16)] == [1, 2, 4, 8]


# ----------------------------------------------------------------------
# Fix 2: I-cache port overdraft is carried across ticks.
# ----------------------------------------------------------------------
def _straight_line_engine():
    source = "main:\n" + "\n".join(
        f"    addi r{1 + (i % 5)}, r0, {i}" for i in range(40)
    ) + "\n    halt\n"
    insts, labels = assemble(source, base=0x1000)
    image = ProgramImage(instructions=insts, code_base=0x1000,
                         entry=0x1000, labels=labels)
    icache = InstructionCache()
    engine = PreconstructionEngine(
        image=image, icache=icache, bimodal=BimodalPredictor(),
        trace_cache=TraceCache(), buffer_entries=256)
    return engine, icache


class TestPortOverdraftCarried:
    def test_overdraft_stalls_next_burst(self):
        engine, icache = _straight_line_engine()
        engine.stack.push(0x1000)

        # One idle cycle funds one step per constructor; the first step
        # issues a line fetch that misses (10 cycles against a budget
        # of 1), leaving 9 cycles of port debt.
        engine.tick(1)
        traffic = icache.traffic["preconstruct"]
        assert traffic.lines_accessed == 1
        assert engine._port_debt == 9
        assert engine.stats.port_overdraft_carried == 9

        # The next 5-cycle burst repays debt: no new fetch may issue.
        engine.tick(5)
        assert traffic.lines_accessed == 1
        assert engine._port_debt == 4

        # Once the debt is repaid, the port opens again.
        engine.tick(5)
        assert traffic.lines_accessed == 2

    def test_no_overdraft_without_miss_pressure(self):
        engine, _ = _straight_line_engine()
        engine.stack.push(0x1000)
        engine.tick(50)  # plenty of budget: the fetch is fully funded
        assert engine._port_debt == 0


# ----------------------------------------------------------------------
# Fix 4: results are PYTHONHASHSEED-independent.
# ----------------------------------------------------------------------
_CHILD_SCRIPT = """
import json
from repro.runner import ExperimentSpec, execute_spec
spec = ExperimentSpec(benchmark="compress", tc_entries=64, pb_entries=32,
                      instructions=4000)
print(json.dumps(execute_spec(spec).metrics, sort_keys=True))
"""


def _metrics_under_hashseed(seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [os.path.join(os.path.dirname(__file__),
                                              os.pardir, "src"),
                                 os.environ.get("PYTHONPATH", "")])))
    out = subprocess.run([sys.executable, "-c", _CHILD_SCRIPT],
                         capture_output=True, text=True, env=env, check=True)
    return json.loads(out.stdout)


class TestHashSeedIndependence:
    def test_metrics_identical_across_hash_seeds(self):
        first = _metrics_under_hashseed("1")
        second = _metrics_under_hashseed("2")
        assert first == second


# ----------------------------------------------------------------------
# Golden pin: the headline metrics of a seeded workload.  Any timing
# change — intended or not — must update these numbers consciously.
# ----------------------------------------------------------------------
GOLDEN_SUMMARY = {
    "instructions": 8000,
    "traces": 569,
    "cycles": 4649,
    "trace_misses_per_ki": 18.75,
    "icache_instructions_per_ki": 262.5,
    "icache_misses_per_ki": 1.625,
    "icache_miss_instructions_per_ki": 6.25,
    "ntp_accuracy": 0.6783831282952548,
    "trace_hit_fraction": 0.7363796133567663,
    "buffer_hits": 44,
}


class TestGoldenMetrics:
    def test_summary_matches_pin(self):
        spec = ExperimentSpec(benchmark="compress", tc_entries=64,
                              pb_entries=32, instructions=8000)
        assert execute_spec(spec).metrics == GOLDEN_SUMMARY
