"""Unit tests for the individual CP pipeline stages."""

import pytest

from repro.apps import get_application
from repro.api import RepairRequest, repair
from repro.core import (
    Rewriter,
    build_patch,
    discover_candidate_checks,
    excise_check,
    find_insertion_points,
    relevant_fields,
    select_donors,
)
from repro.core.patch import PatchStrategy, render_microc
from repro.core.traversal import RecipientName, collect_names
from repro.experiments import ERROR_CASES
from repro.formats import get_format
from repro.lang import compile_program, parse_expression
from repro.lang.debuginfo import ScopeVariable
from repro.solver import EquivalenceChecker
from repro.symbolic import builder, evaluate


CASE = ERROR_CASES["cwebp-jpegdec"]
FMT = get_format("jpeg")
SEED = CASE.seed_input()
ERROR = CASE.error_input()


@pytest.fixture(scope="module")
def feh_discovery():
    donor = get_application("feh")
    return discover_candidate_checks(
        donor.program(), FMT, SEED, ERROR, relevant=relevant_fields(FMT, SEED, ERROR)
    )


class TestDonorSelection:
    def test_all_jpeg_donors_selected_for_cwebp(self):
        selection = select_donors("jpeg", SEED, ERROR, recipient=CASE.application())
        assert {d.name for d in selection.donors} == {"feh", "mtpaint", "viewnior"}

    def test_recipient_excluded_from_donor_pool(self):
        selection = select_donors("jpeg", SEED, ERROR, recipient=CASE.application())
        assert "cwebp" not in {d.name for d in selection.donors}

    def test_same_library_filter(self):
        from repro.apps import donors_for_format

        pool = donors_for_format("jpeg")
        selection = select_donors("jpeg", SEED, ERROR, applications=pool + pool)
        names = [d.name for d in selection.donors]
        assert len(names) == len(set(names))

    def test_multiversion_donor_allowed(self):
        case = ERROR_CASES["wireshark-dcp"]
        selection = select_donors(
            "dcp", case.seed_input(), case.error_input(), recipient=case.application()
        )
        assert [d.name for d in selection.donors] == ["wireshark-1.8.6"]


class TestCheckDiscovery:
    def test_relevant_fields_are_the_differing_fields(self):
        assert relevant_fields(FMT, SEED, ERROR) == frozenset(
            {"/start_frame/content/width", "/start_frame/content/height"}
        )

    def test_single_flipped_branch_in_feh(self, feh_discovery):
        assert feh_discovery.flipped_branches == 1
        candidate = feh_discovery.candidates[0]
        assert candidate.function == "load_jpeg"
        assert candidate.error_direction is True and candidate.seed_direction is False

    def test_candidate_condition_separates_the_inputs(self, feh_discovery):
        candidate = feh_discovery.candidates[0]
        seed_values = FMT.parse(SEED)
        error_values = FMT.parse(ERROR)
        assert evaluate(candidate.condition, error_values) == 1
        assert evaluate(candidate.condition, seed_values) == 0

    def test_identical_inputs_produce_no_candidates(self):
        donor = get_application("feh")
        result = discover_candidate_checks(donor.program(), FMT, SEED, SEED)
        assert result.candidates == []


class TestExcision:
    def test_guard_follows_error_direction(self, feh_discovery):
        excised = excise_check(feh_discovery.candidates[0])
        assert excised.guard == excised.condition  # error direction is "taken"
        assert excised.fields >= relevant_fields(FMT, SEED, ERROR)
        assert excised.operation_count > 0

    def test_negated_guard_for_wireshark(self):
        case = ERROR_CASES["wireshark-dcp"]
        fmt = get_format("dcp")
        donor = get_application("wireshark-1.8.6")
        discovery = discover_candidate_checks(
            donor.program(), fmt, case.seed_input(), case.error_input()
        )
        candidate = discovery.candidates[0]
        assert candidate.error_direction is False  # `if (real_len)` not taken on the error input
        excised = excise_check(candidate)
        assert evaluate(excised.guard, fmt.parse(case.error_input())) == 1
        assert evaluate(excised.guard, fmt.parse(case.seed_input())) == 0


class TestTraversalAndInsertion:
    def test_traversal_reaches_struct_fields_and_pointers(self):
        source = """
        struct inner { u32 value; };
        struct outer { struct inner nested; };
        int main() {
            struct outer o;
            o.nested.value = read_u16_be();
            struct outer* p = &o;
            emit(p->nested.value);
            return 0;
        }
        """
        program = compile_program(source)
        from repro.lang.vm import VM, VMConfig

        collected = {}

        class Hooks:
            def on_statement(self, vm, frame, statement):
                names = collect_names(
                    frame.locals, vm.globals, program.debug_info.scope_at(statement.node_id)
                )
                collected[statement.node_id] = names

            def on_branch(self, vm, frame, record): ...
            def on_allocation(self, vm, frame, record): ...
            def on_call(self, vm, frame): ...
            def on_return(self, vm, frame): ...

        VM(program).run(b"\x01\x00", hooks=Hooks())
        final_names = collected[max(collected)]
        paths = {name.path for name in final_names}
        # The nested struct field is reachable; the pointer alias `p` reaches
        # the same cell, which the Figure 6 Visited set reports only once.
        assert "o.nested.value" in paths

    def test_traversal_follows_struct_pointers(self):
        source = """
        struct info { u32 width; };
        u32 consume(struct info* data) {
            emit(data->width);
            return data->width;
        }
        int main() {
            struct info local;
            local.width = read_u16_be();
            return (i32) consume(&local);
        }
        """
        program = compile_program(source)
        from repro.lang.vm import VM

        collected = {}

        class Hooks:
            def on_statement(self, vm, frame, statement):
                if frame.function == "consume":
                    names = collect_names(
                        frame.locals, vm.globals, program.debug_info.scope_at(statement.node_id)
                    )
                    collected[statement.node_id] = {name.path for name in names}

            def on_branch(self, vm, frame, record): ...
            def on_allocation(self, vm, frame, record): ...
            def on_call(self, vm, frame): ...
            def on_return(self, vm, frame): ...

        VM(program).run(b"\x00\x40", hooks=Hooks())
        assert collected
        assert any("data->width" in paths for paths in collected.values())

    def test_insertion_points_require_all_fields(self, feh_discovery):
        excised = excise_check(feh_discovery.candidates[0])
        report = find_insertion_points(
            CASE.application().program(), SEED, FMT.field_map(SEED), excised.fields
        )
        assert report.candidate_count > 0
        # Points before the width has been read cannot be candidates: every
        # candidate point must be able to reach all required fields.
        for point in report.stable_points:
            reachable = set()
            for name in point.names:
                reachable |= name.expression.fields()
            assert excised.fields <= reachable

    def test_no_points_for_unavailable_fields(self):
        report = find_insertion_points(
            CASE.application().program(),
            SEED,
            FMT.field_map(SEED),
            frozenset({"/nonexistent/field"}),
        )
        assert report.candidate_count == 0


class TestRewrite:
    def _names(self):
        width = builder.input_field("/start_frame/content/width", 16)
        height = builder.input_field("/start_frame/content/height", 16)
        return [
            RecipientName("dinfo.output_width", builder.zext(width, 32), 32, False),
            RecipientName("dinfo.output_height", builder.zext(height, 32), 32, False),
        ]

    def test_whole_subtree_collapses_to_name(self):
        width = builder.input_field("/start_frame/content/width", 16)
        result = Rewriter(self._names()).rewrite(builder.zext(width, 32))
        assert result is not None
        assert result.expression.fields() == {"dinfo.output_width"}
        assert result.expression.op_count() == 0

    def test_feh_check_translates(self):
        width = builder.input_field("/start_frame/content/width", 16)
        height = builder.input_field("/start_frame/content/height", 16)
        check = builder.ule(
            builder.mul(builder.zext(width, 64), builder.zext(height, 64)), (1 << 29) - 1
        )
        result = Rewriter(self._names()).rewrite(check)
        assert result is not None
        assert set(result.matched_names) == {"dinfo.output_width", "dinfo.output_height"}
        # The translated check evaluates like the original, reading the
        # recipient names instead of the input fields.
        env_fields = {"/start_frame/content/width": 1000, "/start_frame/content/height": 1000}
        env_names = {"dinfo.output_width": 1000, "dinfo.output_height": 1000}
        assert evaluate(check, env_fields) == evaluate(result.expression, env_names)

    def test_missing_value_fails(self):
        other = builder.input_field("/start_frame/content/nr_components", 8)
        result = Rewriter(self._names()).rewrite(builder.ugt(builder.zext(other, 32), 4))
        assert result is None

    def test_constants_translate_directly(self):
        result = Rewriter(self._names()).rewrite(builder.const(99, 32))
        assert result is not None and result.expression == builder.const(99, 32)


class TestPatchGeneration:
    def test_render_microc_parses_and_matches_semantics(self):
        guard = builder.ugt(
            builder.mul(
                builder.zext(builder.input_field("img.width", 32), 64),
                builder.zext(builder.input_field("img.height", 32), 64),
            ),
            (1 << 29) - 1,
        )
        source = render_microc(guard)
        parse_expression(source)  # must be valid MicroC
        assert "img.width" in source and "img.height" in source

    def test_build_patch_records_sizes(self):
        from repro.core.insertion import InsertionPoint

        guard = builder.ugt(builder.zext(builder.input_field("x", 32), 64), 10)
        excised = builder.ugt(builder.zext(builder.input_field("/f", 16), 64), 10)
        point = InsertionPoint(statement_id=1, function="f", line=1, names=())
        patch = build_patch(guard, excised, point, PatchStrategy.EXIT)
        assert patch.translated_size == guard.op_count()
        assert patch.excised_size == excised.op_count()
        assert patch.render().startswith("if (")
        assert patch.source_patch().insertion_statement_id == 1


class TestReporting:
    def test_round_trip_save_load(self, tmp_path):
        from repro.core.reporting import ResultsDatabase

        outcome = repair(
            RepairRequest(CASE.application(), CASE.target(), SEED, ERROR, "jpeg", donor="mtpaint")
        ).outcome
        database = ResultsDatabase()
        database.add(outcome)
        path = tmp_path / "results.json"
        database.save(path)
        loaded = ResultsDatabase.load(path)
        assert loaded.records[0].recipient == "cwebp-0.3.1"
        assert "Recipient" in loaded.to_table()
        assert loaded.summary()["transfers"] == 1
