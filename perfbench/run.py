"""Seeded benchmark of the discotrans library.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads: dict-wide, dict-deep, sentences, verify (see workloads.py and
DESIGN.md).  The run sets up its inputs from the seed, repeats whole
cycles of operations in a closed loop until ``--seconds`` have passed,
then checks every output.  The set-up is timed again after every cycle
(see ``run_cycles``) and at least 15 times in all; ``setup_s`` is the
median.

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` cycles alternate between traced and untraced, and the
metrics are the per-layer ones: counts and bytes from the first traced
cycle, self times averaged over traced cycles, and the traced-to-untraced
time ratio.  Spans are written under ``.perfbench/trace/<workload>/``.

``--smoke`` selects small sizes of every workload for the benchmark's own
tests.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_SETUPS = 15
SETUPS_PER_CYCLE = 5
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (name, unit, better) of every metric; BENCHMARK.json lists the same names.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
]
PER_LAYER = [
    ("grammar.reduce_search.calls", "count", "lower"),
    ("grammar.reduce_search.self_s", "s", "lower"),
    ("grammar.reduce_search.hit_ratio", "ratio", "higher"),
    ("grammar.reductions_found", "count", "lower"),
    ("translation.alpha_component.calls", "count", "lower"),
    ("translation.alpha_component.self_s", "s", "lower"),
    ("translation.alpha_component.bytes_out", "B", "lower"),
    ("translation.alpha_component.max_bytes", "B", "lower"),
    ("translation.translate_object.calls", "count", "lower"),
    ("translation.translate_object.self_s", "s", "lower"),
    ("translation.check_naturality.calls", "count", "lower"),
    ("translation.check_naturality.self_s", "s", "lower"),
    ("product_space.ps_tensor.calls", "count", "lower"),
    ("product_space.ps_tensor.self_s", "s", "lower"),
    ("semantics.tensor_product.self_s", "s", "lower"),
    ("semantics.tensor_product.bytes_out", "B", "lower"),
    ("semantics.contract.calls", "count", "lower"),
    ("semantics.contract.self_s", "s", "lower"),
    ("semantics.contract.bytes_in", "B", "lower"),
    ("semantics.apply_reduction.self_s", "s", "lower"),
    ("product_space.frobenius_distance.calls", "count", "lower"),
    ("product_space.frobenius_distance.self_s", "s", "lower"),
    ("lexicon.lex_phrase.calls", "count", "lower"),
    ("lexicon.lex_phrase.self_s", "s", "lower"),
    ("lexicon.phrase_meaning.calls", "count", "lower"),
    ("lexicon.phrase_meaning.self_s", "s", "lower"),
    ("lexicon.senses_tried_ratio", "ratio", "lower"),
    ("dictionary.build_dictionary.self_s", "s", "lower"),
    ("dictionary.entries_kept", "count", "higher"),
    ("dictionary.entries_dropped", "count", "lower"),
    ("io.load.self_s", "s", "lower"),
    ("io.dictionary_to_rows.self_s", "s", "lower"),
    ("io.stdout_bytes", "B", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest of a few percentiles with at least ten samples beyond it
    (nearest rank), as (percentile, value)."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in (99.9, 99.0, 98.0, 95.0, 90.0, 75.0):
        rank = -(-n * pct // 100)  # ceiling
        if n - rank >= 10:
            return pct, ordered[int(rank) - 1]
    return None


def timed_setup(workload, setup_times: list[float]) -> None:
    start = time.perf_counter()
    workload.setup()
    setup_times.append(time.perf_counter() - start)


def run_cycles(workload, seconds: float, trace: bool, tracer, spans_dir: Path | None,
               setup_times: list[float]):
    """Closed loop over whole cycles until the time is up.  Returns one
    (traced, [(op, OpResult or exception)]) per cycle, and for an
    in-process workload the tracer's totals after the first traced cycle.
    A traced run alternates traced and untraced cycles and runs at least
    one of each.

    The set-up is timed again after every cycle: the machine's speed
    drifts over seconds, so set-ups spread over the run sample it at the
    same moments as the operations do.  A set-up much shorter than the
    cycle is repeated, up to a twentieth of the cycle's time."""
    cycles, first_traced = [], None
    deadline = time.perf_counter() + seconds
    while not cycles or time.perf_counter() < deadline or (trace and len(cycles) < 2):
        traced = trace and len(cycles) % 2 == 0
        if traced and workload.in_process:
            tracer.install()
        results = []
        for op in workload.ops():
            spans = None
            if traced and not workload.in_process:
                spans = spans_dir / f"spans-{len(cycles):03d}.npz"
            try:
                results.append((op, workload.run(op, spans)))
            except Exception as exc:  # counted as a failed operation
                results.append((op, exc))
        if traced and workload.in_process:
            tracer.uninstall()
            first_traced = first_traced or tracer.snapshot()
        cycles.append((traced, results))
        timed_setup(workload, setup_times)
        cycle_s = sum(r.seconds for r in completed(results))
        for _ in range(min(SETUPS_PER_CYCLE - 1, int(cycle_s / 20 / setup_times[-1]))):
            timed_setup(workload, setup_times)
    return cycles, first_traced


def completed(results) -> list:
    return [r for _, r in results if not isinstance(r, Exception)]


def layer_metrics(workload, cycles, tracer, first) -> dict[str, float]:
    traced = [r for t, r in cycles if t]
    untraced = [r for t, r in cycles if not t]

    def cycle_seconds(results):
        return sum(r.seconds for r in completed(results))

    if workload.in_process:
        self_total = tracer.snapshot()["self_s"]
    else:
        layers = [r.layers for results in traced for r in completed(results) if r.layers]
        if not layers:
            raise RuntimeError("no traced operation completed")
        first = layers[0]
        self_total = {k: sum(lay["self_s"][k] for lay in layers) for k in first["self_s"]}
    n_traced = len(traced)
    calls, counters = first["calls"], first["counters"]
    self_s = {k: v / n_traced for k, v in self_total.items()}

    def ratio(a, b):
        return a / b if b else 0.0

    values = {}
    for name, _, _ in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = calls.get(layer, 0)
        elif field == "self_s":
            values[name] = self_s.get(layer, 0.0)
        else:
            values[name] = counters.get(name, 0)
    values["grammar.reduce_search.hit_ratio"] = ratio(
        counters.get("grammar.reduce_search.hits", 0), calls["grammar.reduce_search"])
    values["lexicon.senses_tried_ratio"] = ratio(
        counters.get("lexicon.searches_in_phrase_meaning", 0), calls["lexicon.phrase_meaning"])
    values["dictionary.entries_dropped"] = (
        counters.get("dictionary.distances", 0) - counters.get("dictionary.entries_kept", 0))
    values["io.stdout_bytes"] = sum(r.stdout_bytes for r in completed(traced[0]))
    values["trace.spans"] = first["spans"]
    values["trace.overhead_ratio"] = ratio(
        statistics.median(cycle_seconds(r) for r in traced),
        statistics.median(cycle_seconds(r) for r in untraced))
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small sizes, for tests")
    args = parser.parse_args(argv)

    src_dir = ROOT / "src"
    if not (src_dir / "discotrans" / "__init__.py").is_file():
        return fail(f"no discotrans sources under {src_dir}")
    if not (ROOT / "tests" / "oracles.py").is_file():
        return fail(f"no reference oracles at {ROOT / 'tests' / 'oracles.py'}")
    # One BLAS thread, here and in every child, so runs on a shared
    # machine do not depend on how many cores happen to be free.
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(src_dir), str(ROOT / "tests"), str(HERE)]

    import discotrans
    import oracles
    from tracer import Tracer
    from workloads import WORKLOADS

    if Path(discotrans.__file__).resolve().parent != (src_dir / "discotrans").resolve():
        return fail(f"discotrans was imported from {discotrans.__file__}, not {src_dir}")
    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    state = ROOT / ".perfbench"
    workdir = state / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    spans_dir = state / "trace" / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](
            args.workload, args.seed, args.smoke, workdir, src_dir, oracles)
        setup_times: list[float] = []
        timed_setup(workload, setup_times)
        tracer = Tracer() if args.trace else None
        if args.trace:
            shutil.rmtree(spans_dir, ignore_errors=True)
            spans_dir.mkdir(parents=True)
        cycles, first_traced = run_cycles(
            workload, args.seconds, bool(args.trace), tracer, spans_dir, setup_times)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        while len(setup_times) < MIN_SETUPS:
            timed_setup(workload, setup_times)
        if tracer is not None and workload.in_process:
            tracer.write_spans(spans_dir / "spans.npz")

        # Metrics come from every operation that returned; one whose
        # output fails its check still counts in ``failed``.
        attempted, failed, done = 0, 0, []
        for _, results in cycles:
            for op, result in results:
                attempted += 1
                if isinstance(result, Exception):
                    errors = [f"{type(result).__name__}: {result}"]
                else:
                    done.append(result)
                    errors = workload.check(op, result.payload)
                if errors:
                    failed += 1
                    if failed <= 3:
                        print(f"failed {op}: {'; '.join(errors[:5])}", file=sys.stderr)
        if not done:
            return fail("no operation returned")

        latencies = [r.seconds for r in done]
        tail = tail_percentile(latencies)
        print(f"{args.workload}: {len(latencies)} operations, p50 "
              f"{statistics.median(latencies) * 1e3:.3f} ms, "
              + (f"p{tail[0]:g} {tail[1] * 1e3:.3f} ms" if tail else "too few for a tail percentile")
              + f", setup {statistics.median(setup_times):.4f} s")
        if args.trace:
            values = layer_metrics(workload, cycles, tracer, first_traced)
            metrics = {n: {"value": values[n], "unit": u} for n, u, _ in PER_LAYER}
        else:
            rss = [r.rss_mb for r in done] if not workload.in_process else [peak_rss_mb]
            # Throughput per whole cycle, so each sample has the same mix.
            throughput = [sum(r.items for r in completed(results))
                          / sum(r.seconds for r in completed(results))
                          for _, results in cycles if completed(results)]
            values = {
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": statistics.median(rss),
                "items_per_s": statistics.median(throughput),
                "op_p50_ms": statistics.median(latencies) * 1e3,
            }
            metrics = {n: {"value": values[n], "unit": u} for n, u, _ in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
