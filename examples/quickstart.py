"""Quickstart: drive a resumable experiment sweep through the repro CLI.

Everything in this reproduction flows through the content-addressed
experiment store: a sweep executes once, lands on disk, and every later
re-run — same process or not — is served from the store.  This script drives
the real CLI (`python -m repro ...`) end to end:

1. run the built-in smoke sweep into a fresh store (cold: everything executes);
2. run it again and *require* 100% cache hits (warm: nothing executes);
3. inspect the store (`ls --stats`) and the sweep journal (`report`);
4. drive a sweep from the Python API twice on one store: the second run
   is served from the records the first one wrote.

Run with:  python examples/quickstart.py
"""

import tempfile

from repro.cli import main


def cli(*args: str) -> None:
    command = " ".join(args)
    print(f"\n$ python -m repro {command}")
    code = main(list(args))
    if code != 0:
        raise SystemExit(f"`repro {command}` exited with {code}")


def run() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-store-") as store:
        # 1. Cold sweep: every task executes and is checkpointed as it
        #    completes.  Interrupt it at any point and the next invocation
        #    resumes exactly where it stopped — resume IS re-running.
        cli("sweep", "--smoke", "--store", store)

        # 2. Warm sweep: the same declarative spec resolves to the same
        #    content-addressed keys, so the whole sweep is served from disk.
        #    --expect-all-cached turns that into a hard assertion (CI uses
        #    this exact pair of commands as its smoke gate).
        cli("sweep", "--smoke", "--store", store, "--expect-all-cached")

        # 3. What's in the store, and how well are the caches doing?
        cli("ls", "--store", store, "--stats")
        cli("report", "--store", store)

        # 4. The Python API goes through the same task keys: a
        #    SweepOrchestrator run on the same store executes a Figure 13
        #    style policy comparison once, and a second run reads it back.
        from repro import ExperimentStore
        from repro.runtime import SweepOrchestrator, SweepSpec

        spec = SweepSpec(
            name="quickstart/adder",
            kind="policy_comparison",
            devices=("ibmq_rome",),
            workloads=("ADDER-4",),
            seeds=(11,),  # the smoke sweep above already stored seed 7
            params={
                "shots": 512,
                "decoy_shots": 256,
                "trajectories": 40,
                "runtime_best_max_evaluations": 8,
            },
        )
        handle = ExperimentStore(store)
        cold = SweepOrchestrator(handle).run([spec], name="quickstart")
        warm = SweepOrchestrator(handle).run([spec], name="quickstart")
        task = next(t for t in cold.tasks if t.kind == "policy_comparison")
        outcomes = handle.get(task.key).meta["outcomes"]
        print("\nPolicy comparison on ADDER-4 @ ibmq_rome (relative to No-DD):")
        for name, outcome in outcomes.items():
            print(f"  {name:12s} {outcome['relative_fidelity']:5.2f}x")
        assert len(cold.executed) == len(cold.tasks)
        assert not warm.executed and len(warm.cached) == len(warm.tasks)
        print(
            f"second run: {len(warm.cached)} of {len(warm.tasks)} tasks"
            " served from the store, none executed"
        )


if __name__ == "__main__":
    run()
