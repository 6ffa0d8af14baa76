"""Tests of the benchmark itself: span arithmetic, tracer install and
removal, answer scoring, and agreement with BENCHMARK.json."""

import io
import json
import sys
from array import array
from contextlib import redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_time_on_nested_span_tree():
    # a [0,100] holds b [10,40] and c [50,90]; b holds d [15,25]; e [200,210]
    labels = ["a", "b", "c", "d", "e"]
    names = array("i", [0, 1, 3, 2, 4])
    parents = array("i", [-1, 0, 1, 0, -1])
    starts = array("q", [0, 10, 15, 50, 200])
    ends = array("q", [100, 40, 25, 90, 210])
    got = tracing.span_totals(names, parents, starts, ends, labels)
    self_ns = {k: round(v["self_s"] * 1e9) for k, v in got.items()}
    assert self_ns == {"a": 30, "b": 20, "c": 40, "d": 10, "e": 10}
    assert round(got["a"]["total_s"] * 1e9) == 100
    assert all(v["calls"] == 1 for v in got.values())


def _snapshot(invforge):
    owners = [invforge] + [getattr(invforge, m) for m in tracing.MODULES]
    owners += [invforge.poly.Poly, invforge.covariant.CovariantExpr]
    return {id(o): (o, dict(vars(o))) for o in owners}


def test_unwrap_restores_every_patched_name():
    import invforge
    import invforge.cli

    before = _snapshot(invforge)
    tracer = tracing.Tracer()
    tracer.install(invforge)
    originals = {name: before[id(getattr(invforge, mod))][1][name] for mod, name in
                 [("alphamap", "alpha_rank"), ("transvect", "_omega_diagonal"),
                  ("acceptance", "criterion_1")]}
    try:
        # patched where defined and where imported by name, tuples included
        assert invforge.cli.alpha_rank.__wrapped__ is originals["alpha_rank"]
        assert invforge.cli.alpha_rank is invforge.alphamap.alpha_rank
        assert invforge.covariant._omega_diagonal is not originals["_omega_diagonal"]
        assert invforge.covariant._omega_diagonal is invforge.transvect._omega_diagonal
        assert invforge.acceptance.CRITERIA[0] is not originals["criterion_1"]
        assert invforge.poly.Poly.__mul__ is invforge.poly.Poly.__rmul__
        with redirect_stdout(io.StringIO()) as out:
            assert invforge.cli.main(["membership", "--d", "4", "--f", "x0^4 + x1^4"]) == 0
        assert out.getvalue() == '{"member":false,"witness":"U(1,1)"}\n'
    finally:
        tracer.uninstall()
    after = _snapshot(invforge)
    for key, (owner, attrs) in before.items():
        now = after[key][1]
        assert now.keys() == attrs.keys()
        changed = [a for a in attrs if now[a] is not attrs[a]]
        assert not changed, f"{owner!r} still patched: {changed}"
    # each counting hook is a leaf span beside the product it measured,
    # under the same caller, so the caller's self time leaves it out
    hook = tracer.ids[tracing.HOOK]
    parent = tracer.span_parent
    muls = [i for i, n in enumerate(tracer.span_name) if tracer.names[n] == "poly.mul"]
    assert muls
    for m in muls:
        h = next(i for i in range(m + 1, len(parent)) if parent[i] == parent[m])
        assert tracer.span_name[h] == hook
        assert tracer.span_end[m] <= tracer.span_start[h] <= tracer.span_end[h]
    hooks = sum(n == hook for n in tracer.span_name)
    assert tracer.totals()[tracing.HOOK]["calls"] == hooks == len(muls) + 1  # + set_S
    spans = {tracer.names[i] for i in tracer.span_name}
    assert {"cli.main", "poly.parse", "covariant.membership", "covariant.evaluate",
            "transvect.omega_diagonal", "poly.mul"} <= spans
    # U(0,1) vanishes, U(1,1) is the witness: 2 of the 7 elements of S(4)
    evaluated = sum(tracer.names[i] == "covariant.evaluate" for i in tracer.span_name)
    assert (evaluated, tracer.counters["covariant.set_S.size"]) == (2, 7)


def _membership_pass():
    answers = workloads.build_pass("membership", 0, workloads.load_expected())
    records = [
        {"code": 0, "stdout": a.expected, "error": None, "seconds": 0.0} for a in answers
    ]
    return answers, records


def test_tampered_expected_output_is_counted_not_raised():
    answers, records = _membership_pass()
    n = len(answers)
    assert run.tally(answers, [{"records": records}]) == (n, [])
    answers[3].expected = answers[3].expected.replace("}", " }")
    attempted, failures = run.tally(answers, [{"records": records}] * 2)
    assert attempted == 2 * n
    assert [f["argv"] for f in failures] == [answers[3].argv[:5]] * 2


def test_independent_check_catches_recorded_wrong_answer():
    # the recorded bytes and the output agree, but contradict how the
    # input was built: only the independent check can see it
    answers, records = _membership_pass()
    k = next(i for i, a in enumerate(answers) if a.info is True)
    wrong = '{"member":false,"witness":"U(1,1)"}\n'
    answers[k].expected = wrong
    records[k] = dict(records[k], stdout=wrong)
    reasons = workloads.score_pass(answers, records)
    assert [i for i, r in enumerate(reasons) if r] == [k]
    assert reasons[k].startswith("member flag False")


def test_failed_exit_and_exception_are_failures():
    answers, records = _membership_pass()
    records[0] = dict(records[0], code=1)
    records[1] = dict(records[1], error="ValueError: boom", stdout="")
    reasons = workloads.score_pass(answers, records)
    assert reasons[0] == "exit code 1"
    assert reasons[1].startswith("raised")


def test_power_test_on_coefficient_lists():
    for q in [(1, 0, 0), (0, 0, 3), (0, 1, 0), (2, -3, 5), (0, 2, 7)]:
        for e in (1, 2, 4, 7):
            assert workloads.is_power_of_quadratic(workloads.quadratic_power(q, e))
    assert not workloads.is_power_of_quadratic([1, 0, 0, 0, 1])
    assert not workloads.is_power_of_quadratic([0, 1, 0, 1, 0])
    bumped = workloads.quadratic_power((2, -3, 5), 4)
    bumped[5] += 1
    assert not workloads.is_power_of_quadratic(bumped)


def test_membership_inputs_follow_the_seed():
    expected = workloads.load_expected()
    one = [a.argv for a in workloads.build_pass("membership", 7, expected)]
    again = [a.argv for a in workloads.build_pass("membership", 7, expected)]
    other = [a.argv for a in workloads.build_pass("membership", 8, expected)]
    assert one == again and one != other
    symbolic = workloads.symbolic_argvs()  # pinned: in every pass
    assert all(a in one and a in other for a in symbolic)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    record = {"seconds": 1.0}
    fake = {"records": [record] * 3, "wall_s": 3.0, "cpu_s": 3.0, "maxrss_kb": 1024}
    e2e = run.end_to_end([fake], [0.1])
    battery = workloads.build_pass("battery", 0, workloads.load_expected()) * 3
    assert run.answer_latency(battery, [fake]) == {
        "answer_p50_s": 1.0, "answer_tail_s": 1.0, "tail_percentile": 100.0,
        "nonmember_s": None}
    assert {m["name"] for m in spec["end_to_end"]} == set(e2e)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    layer = run.per_layer({}, {}, 0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layer.items()}
