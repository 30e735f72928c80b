"""Tests for device-program generation and the runtime interpreter (§4.5)."""

import pytest

from repro.codegen import (
    DeviceRuntime,
    Execute,
    PreloadAsync,
    generate_device_program,
    kernel_for,
)
from repro.errors import CodegenError


@pytest.fixture(scope="module")
def program(tiny_elk_result):
    return generate_device_program(tiny_elk_result.plan)


def test_program_structure(program, tiny_elk_result):
    n = len(tiny_elk_result.plan)
    assert len(program.preloads) == n
    assert len(program.executes) == n
    program.validate()


def test_every_execute_waits_for_its_own_preload(program):
    issued = set()
    for instruction in program:
        if isinstance(instruction, PreloadAsync):
            issued.add(instruction.op_index)
        elif isinstance(instruction, Execute):
            assert instruction.op_index in issued


def test_preload_order_matches_plan(program, tiny_elk_result):
    emitted_order = [p.op_index for p in program.preloads]
    assert emitted_order == list(tiny_elk_result.plan.preload_order)


def test_program_rendering(program):
    text = program.render()
    assert "preload_async(op=" in text
    assert "execute(op=" in text
    assert "distribute_data" in text


def test_kernel_selection():
    assert kernel_for("matmul") == "poplin::matMul"
    assert kernel_for("softmax") == "popnn::softmax"
    assert kernel_for("unknown-op") == "popops::map"


def test_runtime_matches_timeline(program, tiny_elk_result):
    runtime = DeviceRuntime(tiny_elk_result.plan).run(program)
    # The runtime interpreter and the timeline evaluator implement the same
    # §4.5 synchronization rules, so without contention corrections their
    # totals agree exactly.
    timeline = tiny_elk_result.timeline
    assert runtime.total_time == timeline.total_time - timeline.interconnect_time
    assert runtime.hbm_busy_time > 0
    assert runtime.cores_busy_time > 0


def test_runtime_traces_are_causal(program, tiny_elk_result):
    runtime = DeviceRuntime(tiny_elk_result.plan).run(program)
    n = len(tiny_elk_result.plan)
    for op_index in range(n):
        preload = runtime.trace_for("preload", op_index)
        execute = runtime.trace_for("execute", op_index)
        assert execute.start >= preload.end - 1e-12


def test_validation_rejects_execute_before_preload(tiny_elk_result):
    program = generate_device_program(tiny_elk_result.plan)
    # Drop the first preload: its execute must now fail validation.
    first_execute = next(i for i in program.executes)
    broken = [
        instruction
        for instruction in program.instructions
        if not (
            isinstance(instruction, PreloadAsync)
            and instruction.op_index == first_execute.op_index
        )
    ]
    program.instructions = broken
    with pytest.raises(CodegenError):
        program.validate()
