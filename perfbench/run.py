"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ua_table3 --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout of the repository; it imports mgbench
from that checkout's src/ and exits non-zero if there is none.  With
--trace 0 it prints the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer ones: one "name value unit" line each, then, as the
last line, one JSON object with the keys correct, attempted, failed and
metrics.  Details and reference figures are in perfbench/README.md.
"""
import os

# one BLAS thread: this must be set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "mgbench" / "__init__.py").is_file():
        print("error: no mgbench package under %s" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import harness
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print("error: unknown workload %r (expected one of %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    spec = harness.load_spec(ROOT)
    section = spec["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]
    if args.trace:
        labels = [m["name"][len("cell.s."):] for m in section
                  if m["name"].startswith("cell.s.")]
        levels = sum(m["name"].startswith("cycles.visits.L") for m in section)
        tally, values = harness.run_traced(workload, args.seed, labels, levels)
    else:
        tally, values = harness.run_untraced(workload, args.seed, args.seconds)

    names = [m["name"] for m in section]
    if set(values) != set(names):
        print("error: metrics %s computed but not in BENCHMARK.json, %s listed "
              "but not computed" % (sorted(set(values) - set(names)),
                                    sorted(set(names) - set(values))),
              file=sys.stderr)
        return 2
    metrics = {}
    for m in section:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print("%-34s %.6g %s" % (m["name"], values[m["name"]], m["unit"]))
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
