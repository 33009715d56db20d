"""Mutation self-tests: corrupt a generated image, assert the verifier
catches each corruption with the right rule ID."""

import json
from pathlib import Path

import pytest

import repro.static.verifier as verifier_mod
from repro.isa import INSTRUCTION_BYTES, Opcode, assemble, nop
from repro.program import ProgramImage
from repro.static import (
    RecoveredCFG,
    Severity,
    StaticCallGraph,
    analyze_image,
    verify_image,
)
from repro.static.verifier import RULES, LintFinding, RuleSeverityError
from repro.workloads import WorkloadProfile, build_workload, profile_for
from repro.workloads.generator import (
    WorkloadVerificationError,
    generate,
)
from repro.workloads.spec95 import SPEC95_NAMES, SPEC95_PROFILES

FUZZ_CORPUS = Path(__file__).resolve().parent / "golden" / "fuzz_corpus.json"


@pytest.fixture
def workload():
    """A small, verifier-clean generated workload (fresh per test so
    mutations cannot leak between tests)."""
    return generate(SPEC95_PROFILES["compress"])


def _rule_ids(report):
    return {f.rule_id for f in report.findings}


def _inst_index(image: ProgramImage, pc: int) -> int:
    return (pc - image.code_base) // INSTRUCTION_BYTES


def _reachable_return_pc(image: ProgramImage, proc_name: str) -> int:
    """PC of a reachable return in ``proc_name``."""
    cfg = RecoveredCFG(image)
    proc = cfg.procedure(proc_name)
    for start in sorted(cfg.reachable_blocks(proc)):
        block = cfg.blocks[start]
        if block.terminator == "return":
            return block.end - INSTRUCTION_BYTES
    raise AssertionError(f"no reachable return in {proc_name}")


class TestCleanBaseline:
    def test_generated_workload_is_clean(self, workload):
        """No ERROR or WARNING findings on generated code.  INFO-level
        findings are permitted: the generator's filler instructions
        produce write-after-write stores (DF002) by design."""
        report = verify_image(workload.image,
                              intents=workload.branch_intents)
        assert [f for f in report.findings
                if f.severity is not Severity.INFO] == []
        assert report.ok
        assert {f.rule_id for f in report.findings} <= {"DF002"}

    @pytest.mark.parametrize("name", ["gcc", "vortex"])
    def test_largest_images_analyze_without_errors(self, name):
        """The full pipeline over the two largest images: no ERROR
        findings, and static seeds to offer.  The exact findings list of
        every image is pinned by tests/golden/static_identity.json."""
        wl = build_workload(name)
        report = analyze_image(wl.image, intents=wl.branch_intents,
                               name=name)
        assert [f for f in report.findings
                if f.severity is Severity.ERROR] == []
        assert report.seeds

    def test_rules_all_ran(self, workload):
        report = verify_image(workload.image)
        assert set(report.rules_run) == {
            "SD001", "SD002", "SD003", "SD004", "SD005",
            "JT001", "JT002", "DC001", "CF001", "CF002", "BB001",
            "DF001", "DF002", "DF003", "CP001", "LT001"}
        assert len(report.rules_run) >= 16


class TestMutations:
    def test_clobbered_return_flags_sd001(self, workload):
        """RET -> NOP: control runs across the procedure boundary."""
        image = workload.image
        # p0 is live (called from main) and not the last procedure.
        ret_pc = _reachable_return_pc(image, "p0")
        image.instructions[_inst_index(image, ret_pc)] = nop()
        report = verify_image(image)
        assert "SD001" in _rule_ids(report)
        finding = report.by_rule("SD001")[0]
        assert finding.severity is Severity.ERROR
        assert finding.procedure == "p0"

    def test_never_returning_callee_flags_sd002(self, workload):
        """RET -> J <own entry>: callable procedure can never return."""
        image = workload.image
        cfg = RecoveredCFG(image)
        ret_pc = _reachable_return_pc(image, "p0")
        entry = cfg.procedure("p0").start
        image.instructions[_inst_index(image, ret_pc)] = (
            image.instructions[_inst_index(image, ret_pc)].with_fields(
                op=Opcode.J, rs1=0, imm=entry))
        report = verify_image(image)
        assert "SD002" in _rule_ids(report)
        assert report.by_rule("SD002")[0].procedure == "p0"

    def test_recursion_flags_sd003(self):
        source = """
        main:
            jal a
            halt
        a:
            jal a
            jr ra
        """
        insts, labels = assemble(source, base=0x1000)
        image = ProgramImage(instructions=insts, code_base=0x1000,
                             entry=0x1000, labels=labels)
        report = verify_image(image)
        assert "SD003" in _rule_ids(report)
        assert "unbounded" in report.by_rule("SD003")[0].message

    def test_excess_call_depth_flags_sd003(self, workload):
        graph = StaticCallGraph(RecoveredCFG(workload.image))
        assert graph.max_call_depth is not None
        report = verify_image(workload.image,
                              ras_depth=graph.max_call_depth - 1)
        assert "SD003" in _rule_ids(report)
        assert "exceeds" in report.by_rule("SD003")[0].message

    def test_misaligned_table_entry_flags_jt001(self):
        """Knock a jump-table relocation off the instruction grid."""
        wl = generate(SPEC95_PROFILES["perl"])  # perl has fptr tables
        image = wl.image
        assert image.relocs
        addr = next(iter(image.relocs))
        image.relocs[addr] += 2
        image.data[addr] += 2
        report = verify_image(image)
        assert "JT001" in _rule_ids(report)
        assert report.by_rule("JT001")[0].severity is Severity.ERROR

    def test_orphan_block_flags_dc001(self, workload):
        """Unreachable code appended inside the last live procedure."""
        image = workload.image
        image.instructions.extend([nop(), nop()])
        report = verify_image(image)
        assert "DC001" in _rule_ids(report)
        finding = report.by_rule("DC001")[0]
        assert "2 unreachable instructions" in finding.message

    def test_irreducible_cycle_flags_cf001(self):
        source = """
        f:
            bne r1, r0, b
        a:
            addi r2, r2, 1
            j b
        b:
            addi r2, r2, 2
            beq r2, r3, done
            j a
        done:
            jr ra
        """
        insts, labels = assemble(source, base=0x1000)
        image = ProgramImage(instructions=insts, code_base=0x1000,
                             entry=0x1000, labels={"f": labels["f"]})
        report = verify_image(image)
        assert "CF001" in _rule_ids(report)

    def test_wild_jump_target_flags_cf002(self, workload):
        """Retarget a reachable direct jump outside the image."""
        image = workload.image
        cfg = RecoveredCFG(image)
        graph = StaticCallGraph(cfg)
        jump_pc = None
        for proc in cfg.procedures:
            if proc.name not in graph.live:
                continue
            for start in sorted(cfg.reachable_blocks(proc)):
                block = cfg.blocks[start]
                if block.terminator == "jump":
                    jump_pc = block.end - INSTRUCTION_BYTES
                    break
            if jump_pc is not None:
                break
        assert jump_pc is not None
        idx = _inst_index(image, jump_pc)
        image.instructions[idx] = image.instructions[idx].with_fields(
            imm=image.code_end + 64)
        report = verify_image(image)
        assert "CF002" in _rule_ids(report)
        assert report.by_rule("CF002")[0].severity is Severity.ERROR

    def test_flipped_bias_mask_flags_bb001(self):
        """Weaken a strong diamond's test mask behind the generator's
        back; the intent cross-check must notice."""
        wl = generate(SPEC95_PROFILES["compress"])
        image = wl.image
        strong_pc = next(pc for pc, kind in wl.branch_intents.items()
                         if kind == "diamond_strong")
        andi_idx = _inst_index(image, strong_pc - INSTRUCTION_BYTES)
        andi = image.instructions[andi_idx]
        assert andi.op is Opcode.ANDI and andi.imm == 63
        image.instructions[andi_idx] = andi.with_fields(imm=1)
        report = verify_image(image, intents=wl.branch_intents)
        assert "BB001" in _rule_ids(report)
        finding = report.by_rule("BB001")[0]
        assert finding.severity is Severity.ERROR
        assert finding.pc == strong_pc

    def test_intent_without_branch_flags_bb001(self, workload):
        image = workload.image
        # Claim an intent at a non-branch instruction (the entry stub).
        report = verify_image(image,
                              intents={image.code_base: "loop_back"})
        assert "BB001" in _rule_ids(report)


def _verify_source(source: str, procs: list[str]):
    """Assemble ``source`` at 0x1000 and verify the resulting image."""
    insts, labels = assemble(source, base=0x1000)
    image = ProgramImage(instructions=insts, code_base=0x1000,
                         entry=0x1000,
                         labels={p: labels[p] for p in procs})
    return verify_image(image)


class TestDataflowRules:
    """Positive + negative unit tests for the dataflow-backed rules
    (SD004/SD005/JT002/DF001-DF003/CP001/LT001) on hand-written
    programs whose facts are obvious by inspection."""

    # -- SD004: frame balance ------------------------------------------
    def test_unrestored_sp_flags_sd004(self):
        report = _verify_source("""
        main:
            jal f
            halt
        f:
            addi sp, sp, -8
            jr ra
        """, ["main", "f"])
        finding = report.by_rule("SD004")[0]
        assert finding.severity is Severity.ERROR
        assert "-8" in finding.message

    def test_balanced_frame_passes_sd004(self):
        report = _verify_source("""
        main:
            jal f
            halt
        f:
            addi sp, sp, -8
            addi sp, sp, 8
            jr ra
        """, ["main", "f"])
        assert report.findings == []

    # -- SD005: return-address integrity -------------------------------
    def test_clobbered_ra_flags_sd005(self):
        report = _verify_source("""
        main:
            jal f
            halt
        f:
            addi ra, r0, 4096
            jr ra
        """, ["main", "f"])
        assert report.by_rule("SD005")[0].severity is Severity.ERROR

    def test_untouched_ra_passes_sd005(self):
        report = _verify_source("""
        main:
            jal f
            halt
        f:
            addi r1, r0, 4096
            add r2, r1, r1
            jr ra
        """, ["main", "f"])
        assert "SD005" not in _rule_ids(report)

    # -- JT002: jump-table index range ---------------------------------
    def test_missing_table_reloc_flags_jt002(self):
        wl = generate(SPEC95_PROFILES["perl"])  # perl has fptr tables
        image = wl.image
        addr = next(iter(image.relocs))
        del image.relocs[addr]
        report = verify_image(image)
        finding = report.by_rule("JT002")[0]
        assert finding.severity is Severity.ERROR
        assert "no relocated code pointer" in finding.message

    def test_intact_tables_pass_jt002(self):
        wl = generate(SPEC95_PROFILES["perl"])
        assert "JT002" not in _rule_ids(verify_image(wl.image))

    # -- DF001: read-before-write --------------------------------------
    def test_uninitialised_read_flags_df001(self):
        report = _verify_source("""
        main:
            jal f
            halt
        f:
            add r2, r8, r9
            jr ra
        """, ["main", "f"])
        findings = report.by_rule("DF001")
        assert {f.severity for f in findings} == {Severity.WARNING}
        # One finding per register, at the first offending read.
        assert len(findings) == 2

    def test_initialised_read_passes_df001(self):
        report = _verify_source("""
        main:
            jal f
            halt
        f:
            addi r8, r0, 1
            add r2, r8, r8
            jr ra
        """, ["main", "f"])
        assert "DF001" not in _rule_ids(report)

    # -- DF002: dead stores --------------------------------------------
    def test_overwritten_value_flags_df002(self):
        report = _verify_source("""
        main:
            addi r1, r0, 1
            addi r1, r0, 2
            halt
        """, ["main"])
        finding = report.by_rule("DF002")[0]
        assert finding.severity is Severity.INFO
        assert finding.pc == 0x1000

    def test_consumed_value_passes_df002(self):
        report = _verify_source("""
        main:
            addi r1, r0, 1
            add r2, r1, r1
            halt
        """, ["main"])
        assert report.findings == []

    # -- DF003: live value clobbered by call ---------------------------
    def test_value_live_across_clobbering_call_flags_df003(self):
        report = _verify_source("""
        main:
            addi r2, r0, 1
            jal f
            add r3, r2, r2
            halt
        f:
            addi r2, r0, 7
            jr ra
        """, ["main", "f"])
        finding = report.by_rule("DF003")[0]
        assert finding.severity is Severity.WARNING
        assert "r2" in finding.message

    def test_non_clobbering_call_passes_df003(self):
        report = _verify_source("""
        main:
            addi r2, r0, 1
            jal f
            add r3, r2, r2
            halt
        f:
            addi r4, r0, 7
            jr ra
        """, ["main", "f"])
        assert "DF003" not in _rule_ids(report)

    # -- CP001: statically decided branches ----------------------------
    def test_constant_branch_flags_cp001(self):
        report = _verify_source("""
        main:
            addi r1, r0, 0
            beq r1, r0, out
            addi r3, r0, 1
        out:
            halt
        """, ["main"])
        finding = report.by_rule("CP001")[0]
        assert finding.severity is Severity.INFO
        assert "always taken" in finding.message

    def test_data_dependent_branch_passes_cp001(self):
        report = _verify_source("""
        main:
            beq r1, r0, out
            addi r3, r0, 1
        out:
            halt
        """, ["main"])
        assert "CP001" not in _rule_ids(report)

    # -- LT001: degenerate loop bounds ---------------------------------
    def test_single_trip_loop_flags_lt001(self):
        report = _verify_source("""
        main:
            addi r1, r0, 0
            addi r2, r0, 1
        loop:
            addi r1, r1, 1
            blt r1, r2, loop
            halt
        """, ["main"])
        finding = report.by_rule("LT001")[0]
        assert finding.severity is Severity.INFO
        assert "never taken" in finding.message

    def test_real_loop_passes_lt001(self):
        report = _verify_source("""
        main:
            addi r1, r0, 0
            addi r2, r0, 5
        loop:
            addi r1, r1, 1
            blt r1, r2, loop
            halt
        """, ["main"])
        assert "LT001" not in _rule_ids(report)

    # -- blanket negatives ---------------------------------------------
    @pytest.mark.parametrize("rule_id", [
        "SD001", "SD002", "SD003", "SD004", "SD005", "JT001", "JT002",
        "DC001", "CF001", "CF002", "BB001", "DF001", "DF003", "CP001",
        "LT001"])
    def test_rule_silent_on_clean_workload(self, workload, rule_id):
        """No false positives: a verifier-clean generated image yields
        no finding for any rule (DF002 excepted — generator filler
        emits dead stores by design, covered above)."""
        report = verify_image(workload.image,
                              intents=workload.branch_intents)
        assert rule_id not in _rule_ids(report)


class TestGeneratorGate:
    def test_generate_verifies_by_default(self):
        wl = generate(SPEC95_PROFILES["compress"])
        assert wl.branch_intents  # intents recorded and checked

    def test_gate_raises_on_broken_image(self, monkeypatch):
        """Force the verifier to see an ERROR during generation."""
        import repro.workloads.generator as gen_mod

        profile = SPEC95_PROFILES["compress"]

        original_layout = gen_mod.layout

        def broken_layout(*args, **kwargs):
            image = original_layout(*args, **kwargs)
            # Clobber a return so the gate has something to catch.
            pc = _reachable_return_pc(image, "p0")
            image.instructions[_inst_index(image, pc)] = nop()
            return image

        monkeypatch.setattr(gen_mod, "layout", broken_layout)
        with pytest.raises(WorkloadVerificationError) as err:
            generate(profile)
        assert any(f.rule_id == "SD001" for f in err.value.findings)

    def test_gate_can_be_disabled(self, monkeypatch):
        import repro.workloads.generator as gen_mod

        original_layout = gen_mod.layout

        def broken_layout(*args, **kwargs):
            image = original_layout(*args, **kwargs)
            pc = _reachable_return_pc(image, "p0")
            image.instructions[_inst_index(image, pc)] = nop()
            return image

        monkeypatch.setattr(gen_mod, "layout", broken_layout)
        wl = generate(SPEC95_PROFILES["compress"], verify=False)
        assert wl.image is not None


# ----------------------------------------------------------------------
# The generation gate: ERROR-capable rules only
# ----------------------------------------------------------------------
ERROR_RULES = {"SD001", "SD004", "SD005", "JT001", "JT002", "CF002",
               "BB001"}
_RANK = {Severity.INFO: 0, Severity.WARNING: 1, Severity.ERROR: 2}


def _gate_profiles():
    """The SPEC stand-ins (own seed and workload seeds 3-5) and every
    pinned fuzz-corpus program."""
    for name in SPEC95_NAMES:
        for seed in (None, 3, 4, 5):
            key = name if seed is None else f"{name}@{seed}"
            yield key, profile_for(name, seed)
    for case in json.loads(FUZZ_CORPUS.read_text())["cases"]:
        yield case["name"], WorkloadProfile(name=case["name"],
                                            seed=case["seed"],
                                            **case["knobs"])


def _assert_gate_matches_full(image, intents=None):
    full = verify_image(image, intents=intents)
    gate = verify_image(image, intents=intents, errors_only=True)
    assert gate.findings == full.errors
    assert set(gate.rules_run) == ERROR_RULES
    for finding in full.findings:
        ceiling = RULES[finding.rule_id][1]
        assert _RANK[finding.severity] <= _RANK[ceiling], str(finding)
    return full


def _broken_return(wl):
    pc = _reachable_return_pc(wl.image, "p0")
    wl.image.instructions[_inst_index(wl.image, pc)] = nop()


def _wild_jump(wl):
    image = wl.image
    cfg = RecoveredCFG(image)
    for proc in cfg.procedures:
        for start in sorted(cfg.reachable_blocks(proc)):
            if cfg.blocks[start].terminator == "jump":
                idx = _inst_index(image, cfg.blocks[start].end
                                  - INSTRUCTION_BYTES)
                image.instructions[idx] = image.instructions[idx] \
                    .with_fields(imm=image.code_end + 64)
                return


def _weak_strong_diamond(wl):
    pc = next(pc for pc, kind in wl.branch_intents.items()
              if kind == "diamond_strong")
    idx = _inst_index(wl.image, pc - INSTRUCTION_BYTES)
    wl.image.instructions[idx] = wl.image.instructions[idx].with_fields(
        imm=1)


def _dropped_reloc(wl):
    del wl.image.relocs[next(iter(wl.image.relocs))]


def _misaligned_reloc(wl):
    addr = next(iter(wl.image.relocs))
    wl.image.relocs[addr] += 2
    wl.image.data[addr] += 2


class TestErrorsOnlyGate:
    """``verify_image(errors_only=True)`` is the generator's gate: it
    must report exactly the full report's errors, in the same order."""

    @pytest.mark.parametrize("key,profile", list(_gate_profiles()),
                             ids=[key for key, _ in _gate_profiles()])
    def test_gate_equals_full_errors(self, key, profile):
        wl = generate(profile, verify=False)
        _assert_gate_matches_full(wl.image, wl.branch_intents)

    @pytest.mark.parametrize("bench,mutate,rule_id", [
        ("compress", _broken_return, "SD001"),
        ("compress", _wild_jump, "CF002"),
        ("compress", _weak_strong_diamond, "BB001"),
        ("perl", _dropped_reloc, "JT002"),
        ("perl", _misaligned_reloc, "JT001"),
    ], ids=["SD001", "CF002", "BB001", "JT002", "JT001"])
    def test_gate_equals_full_errors_on_broken_images(self, bench, mutate,
                                                      rule_id):
        wl = generate(SPEC95_PROFILES[bench], verify=False)
        mutate(wl)
        full = _assert_gate_matches_full(wl.image, wl.branch_intents)
        assert rule_id in {f.rule_id for f in full.errors}

    @pytest.mark.parametrize("body,errors", [
        ("addi sp, sp, -8", {"SD004"}),
        ("addi ra, r0, 4096", {"SD005"}),
        ("add sp, sp, r8", set()),          # SD004 warns, no error
    ], ids=["SD004-error", "SD005-error", "SD004-warning"])
    def test_gate_equals_full_errors_on_dataflow_findings(self, body,
                                                          errors):
        source = f"""
        main:
            jal f
            halt
        f:
            add r2, r8, r9
            {body}
            jr ra
        """
        insts, labels = assemble(source, base=0x1000)
        image = ProgramImage(instructions=insts, code_base=0x1000,
                             entry=0x1000,
                             labels={p: labels[p] for p in ("main", "f")})
        full = _assert_gate_matches_full(image)
        assert {f.rule_id for f in full.errors} == errors
        # The full report also carries non-ERROR findings (DF001's
        # uninitialised r8/r9 reads at least) that the gate leaves out.
        assert len(full.findings) > len(full.errors)

    def test_generate_runs_the_gate(self, monkeypatch):
        seen = []
        original = verifier_mod.verify_image

        def spy(*args, **kwargs):
            seen.append(kwargs.get("errors_only"))
            return original(*args, **kwargs)

        monkeypatch.setattr(verifier_mod, "verify_image", spy)
        generate(SPEC95_PROFILES["compress"])
        assert seen == [True]

    def test_rule_exceeding_its_declaration_fails(self, workload,
                                                  monkeypatch):
        def overreach(ctx):
            yield LintFinding("XX001", Severity.ERROR, "undeclared error")

        monkeypatch.setitem(RULES, "XX001",
                            ("declares warnings only", Severity.WARNING,
                             overreach))
        with pytest.raises(RuleSeverityError, match="XX001"):
            verify_image(workload.image, intents=workload.branch_intents)
        # The gate never runs it: the declaration is what it trusts.
        gate = verify_image(workload.image,
                            intents=workload.branch_intents,
                            errors_only=True)
        assert "XX001" not in gate.rules_run
