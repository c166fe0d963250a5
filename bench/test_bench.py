"""Tests of the benchmark's own references and tracing: ``python3 -m pytest bench``."""

import json
import sys
from itertools import islice

import pytest

import run
import workloads
from tracer import LAYERS, Tracer

# one import of food for the whole module: run.load_food imports it afresh,
# and programs from two imports never compare equal
api = run.load_food()
food = sys.modules["food"]


def count_steps(program):
    """Steps to a value under the public one-step relation, with the value."""
    ctx = food.preprocess(program)
    e, n = program.main, 0
    while True:
        out = food.step(e, ctx)
        if isinstance(out, food.Done):
            return n, out.value
        assert isinstance(out, sys.modules["food.interp"].Stepped), out
        e, n = out.next, n + 1


@pytest.mark.parametrize("template", sorted(workloads.TEMPLATES))
@pytest.mark.parametrize("n", [0, 1, 2, 7, 30])
def test_closed_form_steps_and_answers(template, n):
    family = workloads.TEMPLATES[template][0]
    steps, value = count_steps(food.desugar(food.parse(workloads.source(template, n))))
    assert steps == workloads.steps(family, n)
    assert value == food.IntV(workloads.answer(family, n))


@pytest.mark.parametrize("template", sorted(workloads.TEMPLATES))
def test_eval_items_are_the_template_programs(template):
    workload = workloads.Eval(api, run.ROOT)
    item = workload.item(template, 23)
    assert item.program == food.desugar(food.parse(workloads.source(template, 23)))
    assert workload.verify(item, workload.run(item))


@pytest.mark.parametrize("depth", [1, 5, 40])
def test_deep_pair_texts_transform_into_each_other(depth):
    oo, fp = workloads.deep_texts(depth)
    for text, other in ((oo, fp), (fp, oo)):
        program = food.desugar(food.parse(text))
        assert food.pretty(food.canonicalize(food.transform(program).program)) == other


def test_compile_stream_is_seeded_and_checks_against_partners():
    workload = workloads.Compile(api, run.ROOT)
    block = list(islice(workload.stream(3), workload.block))
    assert [item.text for item in block] == [item.text for item in islice(workload.stream(3), workload.block)]
    kinds = [item.kind for item in block]
    assert kinds.count("deep") == 2 and kinds.count("corpus") == 2
    for item in block:
        if item.kind != "deep":
            assert workload.verify(item, workload.run(item)), item.kind


def test_compile_cycles_hold_every_deep_rung_once():
    workload = workloads.Compile(api, run.ROOT)
    for seed in (3, 4):
        items = list(islice(workload.stream(seed), 2 * workload.cycle))
        for start in range(0, len(items), workload.cycle):
            cycle = items[start : start + workload.cycle]
            depths = sorted(item.text.splitlines()[-1].count("S(") for item in cycle if item.kind == "deep")
            assert depths == sorted(2 * workloads.DEEP_LADDER)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_runs_take_whole_cycles(name):
    workload = workloads.WORKLOADS[name]
    assert workload.cycle % workload.block == 0
    for seconds in (0.01, 1, 30):
        count = run.item_count(workload, seconds)
        assert count >= workload.cycle and count % workload.cycle == 0


def test_fuzz_blocks_hold_one_looping_trial_and_seeds_differ():
    workload = workloads.Fuzz(api, run.ROOT)
    items = list(islice(workload.stream(5), 3 * workloads.FUZZ_BLOCK))
    for start in range(0, len(items), workloads.FUZZ_BLOCK):
        assert sum(item.diverge for item in items[start : start + workloads.FUZZ_BLOCK]) == 1
    other = {item.seed for item in islice(workload.stream(6), 3 * workloads.FUZZ_BLOCK)}
    assert not other & {item.seed for item in items}


def test_tracer_splits_self_time_and_counts_failures():
    tracer = Tracer()

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    inner = tracer.wrap("inner", inner, keep_span=False)
    outer = tracer.wrap("outer", lambda x: inner(x) + inner(x))
    assert outer(2) == 4
    with pytest.raises(ValueError):
        outer(-1)
    assert (tracer.stats["outer"].calls, tracer.stats["outer"].failed) == (2, 1)
    assert (tracer.stats["inner"].calls, tracer.stats["inner"].failed) == (3, 1)
    assert [span[0] for span in tracer.spans] == ["outer", "outer"]
    total = sum(end - start for _, start, end, _, parent in tracer.spans if parent == 0)
    self_total = tracer.stats["outer"].self_s + tracer.stats["inner"].self_s
    assert self_total == pytest.approx(total)


def test_every_layer_is_bound_where_the_tracer_replaces_it():
    for _, home, attr, callers, _ in LAYERS:
        for module in (home,) + callers:
            assert callable(getattr(sys.modules[module], attr)), (module, attr)


def test_printed_metrics_are_those_benchmark_json_names():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    passes = []
    for _ in range(2):
        p = run.Pass()
        p.times = p.scaled = [0.01] * 200
        p.timed, p.items = 2.0, [workloads.Item("peano", 10, steps=12)] * 200
        passes.append(p)
    tracer = Tracer()
    for name, *_ in LAYERS + (("bench.item",),):
        tracer.wrap(name, str)("x")
    e2e = run.end_to_end(passes[0])
    e2e["setup_s"] = run.metric(0.1, "s")
    for printed, listed in ((e2e, spec["end_to_end"]), (run.per_layer(*passes, tracer), spec["per_layer"])):
        assert {name: m["unit"] for name, m in printed.items()} == {m["name"]: m["unit"] for m in listed}


def test_layer_map_names_only_listed_metrics():
    listed = {m["name"] for m in json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    mapped = json.loads((run.ROOT / "bench" / "layers.json").read_text())["layers"]
    assert {name for entry in mapped for name in entry["metrics"]} <= listed
