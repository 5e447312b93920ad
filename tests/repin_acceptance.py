"""Rewrite tests/golden/acceptance.json from the current code.

The ledger pins every acceptance run bit for bit, and `test_results_ledger`
compares against it.  Re-pin only for a change that means to move results,
and log the re-pin in CHANGES.md with its reason.  Before it writes, the
script prints every entry that moves against the ledger on disk.  Run from
the repository root:

    PYTHONPATH=src python tests/repin_acceptance.py
"""

import json
import tempfile

import test_acceptance as acc


def main():
    runs = acc.train_maze_runs()
    trained = [*runs.values(), acc.train_run(acc.CLIFF_SPEC, 0), acc.train_run(acc.TAXI_SPEC, 0),
               acc.train_run(acc.TAXI_SPEC, acc.TAXI_EXTRA_RUN_SEED)]
    approx = acc.distill(runs[(5, 2)])[3]
    with tempfile.TemporaryDirectory() as scratch:
        ledger = acc.build_ledger(trained, approx, scratch)
    if acc.LEDGER_PATH.exists():
        moved = acc.ledger_moves(json.loads(acc.LEDGER_PATH.read_text()), ledger)
        print(f"{len(moved)} moved:", *moved, sep="\n  ")
    acc.LEDGER_PATH.parent.mkdir(exist_ok=True)
    acc.LEDGER_PATH.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    print(f"pinned {len(ledger['runs'])} runs to {acc.LEDGER_PATH}")


if __name__ == "__main__":
    main()
