"""Record the default-configuration outputs that every benchmark run is
compared with (``reference.json``).

Run it only on the code the references should pin, from the repository root:

    python3 bench/record_reference.py
"""

import json
import os
import sys
import tempfile

import run  # first: pins BLAS threads and imports invobs from this checkout
import workloads


def main() -> int:
    reference = {}
    os.makedirs(run.OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        for name in workloads.WORKLOADS:
            ops = workloads.build_ops(name, None)
            results, _ = workloads.run_pass(ops, os.path.join(tmp, name))
            tally = workloads.Tally()
            workloads.check_pass(ops, results, tally, None, {})
            if tally.failed:
                print("\n".join(tally.failures), file=sys.stderr)
                return 1
            reference[name] = {op.label: workloads.reference_record(op, workloads.observe(op, r))
                               for op, r in zip(ops, results)}
    with open(os.path.join(run.BENCH, "reference.json"), "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
