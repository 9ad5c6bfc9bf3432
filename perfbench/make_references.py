"""Record the reference outputs the correctness check compares against.

    python3 perfbench/make_references.py

Runs the default-data trajectory of every workload once and writes
perfbench/references.json.  Only rerun it when a change is meant to alter
the scheme's results, and say so in that change.
"""

import json

import run


def main():
    scheme, mms = run.import_msfem()
    refs = {name: run.reference_record(scheme, mms, wl) for name, wl in run.WORKLOADS.items()}
    with open(run.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
