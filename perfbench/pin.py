"""Regenerate perfbench/expected.json.

    python3 perfbench/pin.py

Two parts:

* ``pools``: for every fixture family a workload uses, a list of generator
  seeds whose fixture certifies as nodal with exactly the generated nodes
  (checked with the workload's own field, on the automatic route). The generator only
  checks the coordinate points, so about 1-2 % of multi_node seeds carry a
  further hidden singularity; certify_nodal rightly fails those, and the CLI
  would exit 2. Seeds are tried in a fixed pseudo-random order and every
  rejected one is listed under ``rejected``.
* ``outcomes``: for the default seed, the outcome of every job each
  workload can run (verdict, route, pairing rank, ct, mdr, graded
  dimensions, rank-ledger digest). run.py fails a default-seed job whose
  outcome differs.

A change that alters which eliminations are recorded alters the digests, and
must re-pin with this script, as a benchmark change of its own.
"""

from __future__ import annotations

import json
import random
import sys

import run

POOL_SIZE = {
    "one_node:3,4": 24, "multi_node:3,4,2": 24,
    "one_node:3,5": 6, "multi_node:3,5,2": 6,
    "one_node:2,19": 4, "multi_node:2,22,2": 4,
    "one_node:3,3": 24, "multi_node:3,3,2": 24, "multi_node:3,3,3": 24, "multi_node:3,3,4": 24,
}


def validated_pool(nc, workload: run.Workload, fam: run.Family) -> tuple[list[int], list[int]]:
    rng = random.Random(f"pool/{fam.key}")
    good: list[int] = []
    bad: list[int] = []
    while len(good) < POOL_SIZE[fam.key]:
        seed = rng.randrange(1, 2**31)
        fx = nc.make_fixture(fam.kind, fam.n, fam.d, fam.m, seed)
        ctx = nc.JacobianContext(fx.f, run.field_for(nc, workload))
        cert = nc.certify_nodal(ctx, fx.points)
        (good if cert.verdict == f"Nodal({fx.node_count})" else bad).append(seed)
    return good, bad


def main() -> int:
    nc = run.import_library()
    pools: dict[str, list[int]] = {}
    rejected: dict[str, list[int]] = {}
    for workload in run.WORKLOADS.values():
        for fam in dict.fromkeys(f for cycle in workload.cycles for f in cycle):
            pools[fam.key], rejected[fam.key] = validated_pool(nc, workload, fam)
            print(f"{fam.key}: {len(pools[fam.key])} seeds, {len(rejected[fam.key])} rejected", flush=True)
    outcomes: dict[str, dict] = {}
    for workload in run.WORKLOADS.values():
        outcomes[workload.name] = {}
        for cycle in run.build_pool(nc, workload, run.DEFAULT_SEED, pools):
            for fx in cycle:
                job = run.run_job(nc, fx, workload, None)
                if job.problem is not None:
                    print(f"{workload.name} {job.fixture}: {job.problem}", file=sys.stderr)
                    return 1
                outcomes[workload.name][job.fixture] = job.outcome
        print(f"{workload.name}: {len(outcomes[workload.name])} outcomes pinned", flush=True)
    doc = {"pools": pools, "rejected": rejected, "outcomes": outcomes}
    run.EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
