"""invforge benchmark: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package under test is src/invforge.
Each pass of a workload runs in a fresh single-threaded interpreter
(worker.py) that calls invforge.cli.main(argv) once per answer.  The
untraced run repeats passes while another one still fits in S seconds
(always at least one) and reports the mean time of a pass; the traced run
makes a traced pass between two untraced ones.  Every answer is checked.
The last stdout line is the JSON result, the line before it the context
(environment, seed, pass counts, failures).  See bench/README.md.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS, build_pass, load_expected, score_pass

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_PROBES = 4  # bare interpreter starts timed before each pass and after the last
RUN_LIMIT_S = 170  # a run must end within 180 s
MAX_PASSES = 200
TAIL_BEYOND = 10  # answers that must lie beyond the tail percentile


class WorkerError(RuntimeError):
    pass


def spawn(argvs, trace=False, timeout=RUN_LIMIT_S):
    """Run one worker; returns (set-up seconds, report)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    job = json.dumps({"argvs": argvs, "trace": trace})
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-S", str(BENCH_DIR / "worker.py"), str(SRC)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        cwd=ROOT, env=env,
    )
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - t0
        out, err = proc.communicate(job.encode(), timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker exceeded {timeout:.0f} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready != b"ready\n" or proc.returncode != 0:
        detail = err.decode(errors="replace").strip().splitlines()[-1:]
        raise WorkerError(f"worker exited {proc.returncode}: {' '.join(detail)}")
    return setup, json.loads(out.decode().splitlines()[-1])


def tail_index(n: int) -> int:
    """Index (ascending) of the highest order statistic with TAIL_BEYOND
    answers beyond it; the slowest answer when a pass is shorter."""
    return n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1


def end_to_end(passes, setups) -> dict:
    """wall_s and cpu_s are means over passes: the host's speed switches
    between a fast and a slow state every 10-30 s, and with 3-7 passes a
    run's median jumps between the two where the mean does not.
    setup_s is the median over interpreter starts."""
    med, mean = statistics.median, statistics.fmean
    return {
        "setup_s": (med(setups), "s"),
        "wall_s": (mean(p["wall_s"] for p in passes), "s"),
        "cpu_s": (mean(p["cpu_s"] for p in passes), "s"),
        "peak_rss_mb": (med(p["maxrss_kb"] for p in passes) / 1024, "MB"),
    }


def answer_latency(answers, passes) -> dict:
    """Median and tail answer latency, and the summed latency of the
    non-member (early-exit) answers; each is taken per pass and then the
    median over passes.  Reported in the context line only: battery has
    no non-members, and on a noisy host the two single-answer latencies
    spread too far between runs to gate a change."""
    med = statistics.median
    lat = [sorted(r["seconds"] for r in p["records"]) for p in passes]
    k = tail_index(len(lat[0]))
    early = [i for i, a in enumerate(answers) if a.kind == "member" and a.info is False]
    return {
        "answer_p50_s": med(med(x) for x in lat),
        "answer_tail_s": med(x[k] for x in lat),
        "tail_percentile": round(100 * (k + 1) / len(lat[0]), 2),
        "nonmember_s": med(sum(p["records"][i]["seconds"] for i in early) for p in passes)
        if early else None,
    }


# (metric, unit) of the traced run; "name.field" reads the span totals
LAYER_SPANS = [
    ("poly.mul.calls", "count"), ("poly.mul.self_s", "s"),
    ("poly.add.calls", "count"), ("poly.add.self_s", "s"),
    ("poly.pow.self_s", "s"), ("poly.parse.self_s", "s"),
    ("poly.differentiate.calls", "count"), ("poly.differentiate.self_s", "s"),
    ("poly.substitute.calls", "count"), ("poly.substitute.self_s", "s"),
    ("poly.lift.calls", "count"),
    ("transvect.omega_diagonal.calls", "count"), ("transvect.omega_diagonal.self_s", "s"),
    ("transvect.transvectant.self_s", "s"), ("transvect.polarize.self_s", "s"),
    ("transvect.omega_apply.self_s", "s"),
    ("covariant.membership.self_s", "s"), ("covariant.u_cov.self_s", "s"),
    ("covariant.phi.self_s", "s"),
    ("covariant.evaluate.calls", "count"), ("covariant.evaluate.self_s", "s"),
    ("alphamap.exact_rank.self_s", "s"), ("alphamap.alpha_matrix.self_s", "s"),
    ("alphamap.alpha_image.calls", "count"), ("alphamap.alpha_image.self_s", "s"),
    ("enumeration.tau.self_s", "s"), ("enumeration.n1_brute.self_s", "s"),
    ("enumeration.component_census.calls", "count"),
    ("enumeration.component_census.self_s", "s"),
    ("enumeration.tau_transvectant_check.self_s", "s"), ("enumeration.g_direct.self_s", "s"),
]
LAYER_MODULES = [
    ("cli.calls", "count"), ("cli.self_s", "s"),
    ("closedform.calls", "count"), ("closedform.self_s", "s"),
    ("plethysm.self_s", "s"),
    ("arith.calls", "count"), ("arith.self_s", "s"),
]
LAYER_COUNTERS = [
    ("poly.mul.pairs", "count"), ("poly.mul.terms_out", "count"),
    ("enumeration.transport_matrices.yielded", "count"),
    ("enumeration.multigraphs.yielded", "count"),
    ("alphamap.cells", "count"), ("alphamap.nnz", "count"),
    ("alphamap.entry_bits_max", "bits"),
]
CRITERIA = 9


def _share(num, den) -> float:
    return num / den if den else 0.0


def per_layer(totals, counters, overhead) -> dict:
    def field(metric):
        name, _, what = metric.rpartition(".")
        return totals.get(name, {}).get(what, 0)

    def module_sum(metric):
        prefix, _, what = metric.rpartition(".")
        return sum(t[what] for label, t in totals.items() if label.startswith(prefix + "."))

    out = {m: (field(m), u) for m, u in LAYER_SPANS}
    out.update({m: (module_sum(m), u) for m, u in LAYER_MODULES})
    out.update({m: (counters.get(m, 0), u) for m, u in LAYER_COUNTERS})
    for k in range(1, CRITERIA + 1):
        out[f"acceptance.criterion{k}_s"] = (field(f"acceptance.criterion_{k}.total_s"), "s")
    out["poly.mul.fraction_share"] = (
        _share(counters.get("poly.mul.fraction_terms", 0), counters.get("poly.mul.terms_out", 0)),
        "share",
    )
    out["covariant.evaluated_share"] = (
        _share(field("covariant.evaluate.calls"), counters.get("covariant.set_S.size", 0)),
        "share",
    )
    out["enumeration.n1_kept_share"] = (
        _share(counters.get("enumeration.n1_kept", 0),
               counters.get("enumeration.multigraphs.yielded", 0)),
        "share",
    )
    out["trace_overhead_s"] = (overhead, "s")
    return out


def git_commit(root: Path):
    """HEAD of the checkout, read from .git without running git; None
    when the checkout is not a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed, trace) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": nproc,
        "platform": platform.platform(),
        "git_commit": git_commit(ROOT),
        "seed": seed,
        "trace": bool(trace),
    }


def tally(answers, passes) -> tuple:
    """(answers attempted, one entry per failed answer) over all passes.
    A wrong answer is counted, never raised."""
    failures = []
    for p in passes:
        for ans, reason in zip(answers, score_pass(answers, p["records"])):
            if reason:
                failures.append({"argv": ans.argv[:5], "reason": reason})
    return len(answers) * len(passes), failures


def run(workload, seed, seconds, trace) -> tuple:
    """(context, result) for one run."""
    answers = build_pass(workload, seed, load_expected())
    argvs = [a.argv for a in answers]
    started = perf_counter()

    def remaining():
        return max(RUN_LIMIT_S - (perf_counter() - started), 1.0)

    spawn([])  # compiles the bytecode caches; not timed
    passes, setups = [], []
    if trace:
        # untraced passes on both sides of the traced one, so that a
        # steady drift of the host's speed cancels out of the overhead
        for traced in (False, True, False):
            passes.append(spawn(argvs, traced, timeout=remaining())[1])
        overhead = passes[1]["wall_s"] - (passes[0]["wall_s"] + passes[2]["wall_s"]) / 2
        metrics = per_layer(passes[1]["span_totals"], passes[1]["counters"], overhead)
    else:
        # the host's speed drifts over seconds, so the set-up probes are
        # spread through the run rather than taken in one burst
        t_run = perf_counter()
        while len(passes) < MAX_PASSES:
            t_pass = perf_counter()
            setups += [spawn([])[0] for _ in range(SETUP_PROBES)]
            setup, report = spawn(argvs, timeout=remaining())
            setups.append(setup)
            passes.append(report)
            now = perf_counter()
            if now - t_run + (now - t_pass) > seconds:
                break
        setups += [spawn([])[0] for _ in range(SETUP_PROBES)]
        metrics = end_to_end(passes, setups)

    attempted, failures = tally(answers, passes)
    failed = len(failures)
    context = {
        "workload": workload,
        "seconds": seconds,
        "passes": len(passes),
        "pass_wall_s": [round(p["wall_s"], 4) for p in passes],
        "setup_s_each": [round(x, 4) for x in setups],
        "answers_per_pass": len(answers),
        **answer_latency(answers, passes),
        "failed_frac": failed / attempted,
        "failures": failures[:10],
        "environment": environment(seed, trace),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    return context, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "invforge" / "cli.py").is_file():
        print(f"no package to measure: {SRC / 'invforge'} is missing", file=sys.stderr)
        return 2
    try:
        context, result = run(args.workload, args.seed, args.seconds, args.trace)
    except WorkerError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
