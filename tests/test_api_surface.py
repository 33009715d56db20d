"""The documented `repro.api` surface stays in lockstep with reality."""

import re
from pathlib import Path

from repro import api

README = Path(__file__).parent.parent / "README.md"


def documented_surface() -> list[str]:
    text = README.read_text()
    match = re.search(r"<!-- api-surface-begin -->(.*?)<!-- api-surface-end -->",
                      text, re.DOTALL)
    assert match, "README.md is missing the api-surface marker block"
    return re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", match.group(1))


class TestSurface:
    def test_all_is_sorted(self):
        assert list(api.__all__) == sorted(api.__all__)

    def test_all_names_resolve(self):
        for name in api.__all__:
            assert hasattr(api, name), name

    def test_readme_matches_all(self):
        documented = documented_surface()
        assert documented == list(api.__all__), (
            "README's api-surface block is out of sync with "
            "repro.api.__all__; update the block between the "
            "api-surface-begin/end markers")

    def test_new_zoo_names_exported(self):
        for name in ("FrontendMechanism", "MechanismContext",
                     "register_mechanism", "mechanism_names",
                     "create_mechanism", "compare_specs", "compare_sweep",
                     "compare_from_results", "format_compare",
                     "rows_to_dicts", "CompareRow", "COMPARE_PB_SIZES"):
            assert name in api.__all__, name

    def test_telemetry_names_exported(self):
        for name in ("Telemetry", "SpanTracer", "MetricsRegistry",
                     "enable_telemetry", "disable_telemetry",
                     "telemetry_session", "current_telemetry", "span",
                     "format_span_tree", "merged_perfetto_trace",
                     "validate_merged_trace", "write_merged_perfetto",
                     "hotspot_rows", "append_trajectory",
                     "read_trajectory", "trajectory_reference"):
            assert name in api.__all__, name

    def test_vector_names_exported(self):
        for name in ("BatchPlan", "build_plan", "run_frontend_batch"):
            assert name in api.__all__, name
        for name in ("SIMULATOR_KINDS", "run_dynamic_frontend"):
            assert name not in api.__all__, name


class TestSimulatorDocs:
    """DESIGN.md §17 and the README kernel section stay in lockstep
    with the code: one dispatch loop, no ``simulator`` knob."""

    DESIGN = Path(__file__).parent.parent / "DESIGN.md"

    def test_readme_documents_kernel_choice(self):
        text = README.read_text()
        assert "### One frontend kernel" in text
        assert "Choosing a simulator kernel" not in text
        assert "--simulator" not in text
        assert "run_frontend_batch" in text

    def test_design_documents_the_kernel(self):
        text = self.DESIGN.read_text()
        assert "## 17. One frontend kernel" in text
        assert "FrontendSimulation._dispatch" in text
        assert "perfbench" in text
        assert '("scalar", "vectorized")' not in text
