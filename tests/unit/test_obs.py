"""Unit tests for the ``repro.obs`` tracing and profiling layer."""

import json
import multiprocessing

import pytest

from repro.obs import export as obs_export
from repro.obs import tracing, vmprofile


# -- span collection and nesting ----------------------------------------------


def test_spans_nest_and_record_parent_ids():
    with tracing.start_trace("root", op="run") as root:
        with tracing.span("child", k="v") as child:
            with tracing.span("grandchild") as grand:
                pass
    spans = {s["name"]: s for s in root.export()}
    assert set(spans) == {"root", "child", "grandchild"}
    assert spans["root"]["parent_id"] is None
    assert spans["child"]["parent_id"] == spans["root"]["span_id"]
    assert spans["grandchild"]["parent_id"] == spans["child"]["span_id"]
    assert spans["child"]["attrs"] == {"k": "v"}
    assert spans["root"]["attrs"] == {"op": "run"}
    assert child.span_id == spans["child"]["span_id"]
    assert grand.span_id == spans["grandchild"]["span_id"]


def test_span_timings_are_nonnegative_and_ordered():
    with tracing.start_trace("root") as root:
        with tracing.span("inner"):
            sum(range(1000))
    spans = {s["name"]: s for s in root.export()}
    for s in spans.values():
        assert s["wall_seconds"] >= 0.0
        assert s["cpu_seconds"] >= 0.0
        assert s["start_unix"] > 0.0
    assert spans["inner"]["start_unix"] >= spans["root"]["start_unix"]
    assert spans["inner"]["wall_seconds"] <= spans["root"]["wall_seconds"]


def test_span_records_error_attribute_on_exception():
    with pytest.raises(ValueError):
        with tracing.start_trace("root") as root:
            with tracing.span("bad"):
                raise ValueError("boom")
    spans = {s["name"]: s for s in root.export()}
    assert spans["bad"]["attrs"]["error"] == "ValueError"
    assert spans["root"]["attrs"]["error"] == "ValueError"


def test_disabled_span_is_the_shared_null_singleton():
    assert tracing.current() is None
    handle = tracing.span("anything", k=1)
    assert handle is tracing.NULL_SPAN
    assert handle.span_id is None
    assert handle.set(more=2) is tracing.NULL_SPAN
    assert handle.export() == []
    with handle:
        # Entering the null span must not make spans start recording.
        assert tracing.span("nested") is tracing.NULL_SPAN


def test_set_attaches_attributes_after_open():
    with tracing.start_trace("root") as root:
        s = tracing.span("child")
        with s:
            s.set(outcome="hit")
    spans = {d["name"]: d for d in root.export()}
    assert spans["child"]["attrs"] == {"outcome": "hit"}


# -- carrier / resume across boundaries ---------------------------------------


def test_carrier_resume_round_trip_same_process():
    with tracing.start_trace("root") as root:
        ctx = tracing.carrier()
    assert ctx == {"trace_id": root.trace.trace_id,
                   "parent_id": root.span_id, "record": True}
    far = tracing.resume(ctx, "far.side", op="x")
    with far:
        with tracing.span("far.child"):
            pass
    far_spans = {s["name"]: s for s in far.export()}
    assert far_spans["far.side"]["trace_id"] == root.trace.trace_id
    assert far_spans["far.side"]["parent_id"] == root.span_id
    assert far_spans["far.child"]["parent_id"] == \
        far_spans["far.side"]["span_id"]


def test_resume_without_record_is_noop():
    assert tracing.resume(None, "x") is tracing.NULL_SPAN
    assert tracing.resume({"trace_id": "t", "record": False}, "x") \
        is tracing.NULL_SPAN
    assert tracing.resume("garbage", "x") is tracing.NULL_SPAN


def test_carrier_outside_trace_is_none():
    assert tracing.carrier() is None


def _child_process(conn, ctx):
    handle = tracing.resume(ctx, "child.work")
    with handle:
        with tracing.span("child.inner"):
            pass
    conn.send(handle.export())
    conn.close()


def test_spans_cross_a_real_process_boundary():
    method = ("fork" if "fork"
              in multiprocessing.get_all_start_methods() else "spawn")
    mp = multiprocessing.get_context(method)
    with tracing.start_trace("root") as root:
        ctx = tracing.carrier()
        parent_conn, child_conn = mp.Pipe()
        proc = mp.Process(target=_child_process, args=(child_conn, ctx))
        proc.start()
        child_spans = parent_conn.recv()
        proc.join(10)
    merged = tracing.merge_spans(root.export(), child_spans, root.span_id)
    by_name = {s["name"]: s for s in merged}
    assert by_name["child.work"]["parent_id"] == root.span_id
    assert by_name["child.work"]["trace_id"] == root.trace.trace_id
    assert by_name["child.work"]["pid"] != by_name["root"]["pid"]
    tree = obs_export.span_tree(merged)
    assert len(tree) == 1 and tree[0]["name"] == "root"


def test_merge_spans_reparents_orphans_onto_fallback():
    base = [{"span_id": "a", "parent_id": None, "name": "root"}]
    extra = [{"span_id": "b", "parent_id": "unknown", "name": "stray"},
             {"span_id": "c", "parent_id": "b", "name": "kept"}]
    merged = tracing.merge_spans(base, extra, "a")
    by_id = {s["span_id"]: s for s in merged}
    assert by_id["b"]["parent_id"] == "a"      # reparented
    assert by_id["c"]["parent_id"] == "b"      # known parent kept
    # Inputs must not be mutated.
    assert extra[0]["parent_id"] == "unknown"


def test_manual_span_respects_record_flag():
    ctx = {"trace_id": "t1", "parent_id": "p1", "record": True}
    span = tracing.manual_span(ctx, "queue.wait", 100.0, 0.25, batch=3)
    assert span["name"] == "queue.wait"
    assert span["trace_id"] == "t1"
    assert span["parent_id"] == "p1"
    assert span["wall_seconds"] == 0.25
    assert span["attrs"] == {"batch": 3}
    assert tracing.manual_span(dict(ctx, record=False),
                               "q", 100.0, 0.1) is None
    assert tracing.manual_span(None, "q", 100.0, 0.1) is None
    # Negative waits (clock skew) clamp to zero.
    assert tracing.manual_span(ctx, "q", 100.0, -1.0)["wall_seconds"] == 0.0


# -- export formats ------------------------------------------------------------


def _sample_spans():
    with tracing.start_trace("root", op="run") as root:
        with tracing.span("child", backend="vector"):
            pass
    return root.export()


def test_jsonl_round_trip(tmp_path):
    spans = _sample_spans()
    path = tmp_path / "trace.jsonl"
    obs_export.write_jsonl(path, spans, append=False)
    obs_export.write_jsonl(path, spans)  # append mode
    loaded = obs_export.read_jsonl(path)
    assert loaded == spans + spans
    for s in loaded:
        assert set(s) == set(obs_export.SPAN_FIELDS)


def test_chrome_trace_events_schema():
    spans = _sample_spans()
    events = obs_export.chrome_trace_events(spans)
    assert len(events) == len(spans)
    for event in events:
        assert event["ph"] == "X"
        assert event["ts"] >= 0.0
        assert event["dur"] >= 0.0
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        json.dumps(event)  # must be JSON-encodable
    by_name = {e["name"]: e for e in events}
    assert by_name["child"]["args"]["backend"] == "vector"
    assert by_name["child"]["args"]["parent_id"] == \
        by_name["root"]["args"]["span_id"]


def test_write_chrome_trace_is_loadable(tmp_path):
    path = tmp_path / "trace.json"
    obs_export.write_chrome_trace(path, _sample_spans())
    doc = json.loads(path.read_text())
    assert isinstance(doc["traceEvents"], list)
    assert doc["displayTimeUnit"] == "ms"


def test_span_tree_nests_and_keeps_orphans():
    spans = [
        {"span_id": "r", "parent_id": None, "name": "root",
         "start_unix": 1.0},
        {"span_id": "c", "parent_id": "r", "name": "child",
         "start_unix": 2.0},
        {"span_id": "o", "parent_id": "gone", "name": "orphan",
         "start_unix": 3.0},
    ]
    tree = obs_export.span_tree(spans)
    assert [n["name"] for n in tree] == ["root", "orphan"]
    assert [n["name"] for n in tree[0]["children"]] == ["child"]


def test_render_spans_mentions_every_span():
    spans = _sample_spans()
    text = obs_export.render_spans(spans)
    assert "root" in text and "child" in text and "ms" in text


# -- VM stage profiling --------------------------------------------------------


def test_profile_vm_records_and_restores():
    assert vmprofile.active() is None
    with vmprofile.profile_vm() as outer:
        assert vmprofile.active() is outer
        outer.record("vector", 0.5, 1.5, 10)
        with vmprofile.profile_vm() as inner:
            assert vmprofile.active() is inner
        assert vmprofile.active() is outer
        outer.record("native", 0.1, 0.4, 10)
    assert vmprofile.active() is None
    assert outer.runs == 2
    assert outer.steps == 20
    assert outer.init_seconds == pytest.approx(0.6)
    assert outer.step_seconds == pytest.approx(1.9)
    assert set(outer.by_backend) == {"vector", "native"}
    d = outer.as_dict()
    assert d["backend"] == "native"  # last recorded
    assert d["step_ms_each"] == pytest.approx(1.9 * 1e3 / 20)


def test_profile_vm_captures_real_vm_run():
    """The profiled init/step split times a real run on every backend and
    returns exactly what a plain run does."""
    from repro.codegen import make_generator
    from repro.ir.interp import VirtualMachine
    from repro.native import find_compiler
    from repro.sim.simulator import random_inputs
    from repro.zoo import build_model
    model = build_model("Motivating")
    code = make_generator("frodo").generate(model)
    inputs = code.map_inputs(random_inputs(model, seed=0))
    backends = ["auto"] + (["native"] if find_compiler() else [])
    for backend in backends:
        vm = VirtualMachine(code.program, backend=backend)
        plain = vm.run(inputs, steps=3)
        with vmprofile.profile_vm() as prof:
            profiled = vm.run(inputs, steps=3)
        assert prof.runs == 1
        assert prof.steps == 3
        assert prof.step_seconds > 0.0
        assert prof.backend == vm.backend
        assert profiled.counts == plain.counts
        for name, value in plain.outputs.items():
            assert profiled.outputs[name].tobytes() == value.tobytes()


def test_vm_run_emits_span_when_traced():
    from repro.codegen import make_generator
    from repro.ir.interp import VirtualMachine
    from repro.sim.simulator import random_inputs
    from repro.zoo import build_model
    model = build_model("Motivating")
    code = make_generator("frodo").generate(model)
    inputs = code.map_inputs(random_inputs(model, seed=0))
    vm = VirtualMachine(code.program)
    with tracing.start_trace("root") as root:
        vm.run(inputs, steps=2)
    spans = {s["name"]: s for s in root.export()}
    assert "vm.run" in spans
    assert spans["vm.run"]["attrs"]["steps"] == 2
    assert spans["vm.run"]["attrs"]["backend"] == vm.backend
