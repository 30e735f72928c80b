"""The session-wide allocator memo: shared across layers, policies and threads.

A :class:`~repro.api.Session` keeps one :class:`MemoryAllocator` per profiles
list, keyed by structure (see :mod:`repro.scheduler.allocation`), so a
question asked again under another layer's operator names, or by another
policy planning from the same profiles, is answered from the memo.
"""

from __future__ import annotations

import sys
from dataclasses import replace

import pytest

from repro.api import CompileRequest, Session
from repro.compiler import POLICIES, WorkloadSpec
from repro.scheduler import InductiveScheduler, MemoryAllocator

TWO_LAYERS = WorkloadSpec("tiny-llm", batch_size=4, seq_len=256, num_layers=2)


@pytest.fixture
def computed(monkeypatch):
    """Every question the allocator computes: its operators' names, each
    preloaded one with the frontier index of its chosen execute option."""
    questions = []
    answer = MemoryAllocator.answer

    def spy(self, current, preloaded):
        questions.append(
            (current.op.name,)
            + tuple(f"{p.op.name}#{p.execute_frontier.index(o)}" for p, o in preloaded)
        )
        return answer(self, current, preloaded)

    monkeypatch.setattr(MemoryAllocator, "answer", spy)
    return questions


def _unshared(profiles):
    """``profiles`` with one cost object per option, so no layer shares a key."""
    return [
        replace(
            profile,
            execute_frontier=[
                replace(option, cost=replace(option.cost))
                for option in profile.execute_frontier
            ],
        )
        for profile in profiles
    ]


def _rows(plan):
    return [
        (s.op_name, repr(s.execute_plan), repr(s.preload_plan), s.preload_number)
        for s in plan.schedules
    ]


def test_layers_share_allocator_answers(small_system, computed):
    """The backward induction meets the second layer first; the first layer's
    questions that repeat its questions under other names are not computed."""
    session = Session()
    request = CompileRequest(TWO_LAYERS, small_system, "elk-dyn")
    plan = session.compile(request).result.plan
    compiler = session.compiler(request)
    shared = list(computed)
    assert len(shared) == len(set(shared)) == len(compiler.allocator.memo)

    computed.clear()
    allocator = MemoryAllocator(
        compiler.cost_model,
        compiler.chip.per_core_usable_sram,
        compiler.chip.core.link_bandwidth,
    )
    by_name = InductiveScheduler(_unshared(compiler.profiles), allocator).schedule()
    assert _rows(by_name) == _rows(plan)
    assert set(shared) < set(computed)

    def in_layer_one(question):
        return tuple(name.replace("layer0.", "layer1.") for name in question)

    reused = [
        question
        for question in set(computed) - set(shared)
        if question[0].startswith("layer0.") and in_layer_one(question) in shared
    ]
    assert reused


def test_elk_dyn_after_elk_full_computes_no_new_answer(small_system, computed):
    session = Session()
    session.compile(CompileRequest(TWO_LAYERS, small_system, "elk-full"))
    known = len(computed)
    assert known > 0
    session.compile(CompileRequest(TWO_LAYERS, small_system, "elk-dyn"))
    assert len(computed) == known
    # The memo lives and dies with the session's profiles.
    session.clear()
    session.compile(CompileRequest(TWO_LAYERS, small_system, "elk-dyn"))
    assert len(computed) > known


def test_an_answer_published_by_another_thread_after_a_miss_is_used(small_system):
    """A reader that misses a question and then finds it published (another
    thread won the race) uses the published answer, not an infeasible one."""
    session = Session()
    request = CompileRequest(TWO_LAYERS, small_system, "elk-dyn")
    expected = session.compile(request).result.plan
    compiler = session.compiler(request)
    answers = dict(compiler.allocator.memo)

    class RacingMemo(dict):
        def get(self, key, default=None):
            found = super().get(key, default)
            self.setdefault(key, answers[key])  # the other thread publishes
            return found

    compiler.allocator.memo = RacingMemo()
    assert _rows(compiler.compile("elk-dyn").plan) == _rows(expected)


def test_thread_fan_out_matches_one_by_one_compiles(small_system):
    requests = [
        CompileRequest(
            WorkloadSpec(model, batch_size=batch_size, seq_len=256, num_layers=2),
            small_system,
            policy,
        )
        for model, batch_size in (("tiny-llm", 4), ("tiny-gqa", 4), ("tiny-dit", 8))
        for policy in POLICIES
    ]

    def signature(artifact) -> dict:
        data = artifact.to_dict()
        del data["compile_seconds"]
        return data

    # More workers than cores and frequent switches, so threads race on misses.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        fanned = Session().compile_many(requests, max_workers=4, backend="thread")
    finally:
        sys.setswitchinterval(interval)
    session = Session()
    alone = [session.compile(request) for request in requests]
    assert [signature(a) for a in fanned] == [signature(a) for a in alone]
