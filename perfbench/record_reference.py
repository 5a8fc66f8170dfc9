"""Record reference.json: the certified quantities of every pool item of
every workload, as the current program computes them.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Run it only to define the reference (the benchmark compares every later
run against it bit for bit). Named workloads are re-recorded; the others
keep their entries. An item that fails its own checks aborts the recording.
"""

import json
import sys
import tempfile
from time import perf_counter

import run  # sets up sys.path
import workloads


def main(names) -> int:
    path = run.HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.exists() else {}
    run.OUT.mkdir(exist_ok=True)
    for name in names or workloads.WORKLOADS:
        workload = workloads.WORKLOADS[name]
        entries = {}
        with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
            for item in workload.pool_items():
                t0 = perf_counter()
                result = workload.run(item, workdir)
                elapsed = perf_counter() - t0
                quantities, problems = workload.check(item, result, workdir)
                if problems:
                    raise SystemExit(f"{name} {item.key}: {problems}")
                entries[item.key] = quantities
                print(f"{name} {item.key} {elapsed:.3f}s", file=sys.stderr,
                      flush=True)
        reference[name] = entries
        path.write_text(json.dumps(reference, sort_keys=True, indent=1)
                        + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
