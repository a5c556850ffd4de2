"""End-to-end certification benchmark for nodalcert.

Runs one workload in this process: one client in a closed loop calls
nodalcert's public API job after job (the next job starts when the previous
one returns), checks every result, and prints the metrics named in
BENCHMARK.json as the last line of standard output. A run times a fixed
number of whole fixture cycles, derived from --seconds and the workload's
nominal cycle time (Workload.run_cycles).

    python3 perfbench/run.py --workload n3-pipeline --seed 1 --seconds 25 --trace 0

A job is one hypersurface on a fresh JacobianContext: certify_nodal, then
(for full jobs) the pairing, syzygy counts with mdr and ct, variable
multiplication kernels, Hodge graded pieces with the n = 3 saturation check,
the n = 3 period differential, and finally RunReport.render_json.

With --trace 1 every job runs twice, untraced and traced, and the run
reports per-layer metrics (per pass over the workload's fixture cycle) and
the tracing overhead instead. The traced and untraced outcomes, rank-ledger
digests included, must be identical.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
EXPECTED = HERE / "expected.json"
DEFAULT_SEED = 1
SETUP_PROBES = 9

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# One client process with single-threaded BLAS, well under the nproc cap. On
# a 2-core VM, two OpenBLAS threads made a 2.46 M-entry blocked rank only
# about 10 % faster, and its run-to-run spread five times wider (5 % against
# 1 %), because the threads spin and stall on every other task of the
# machine. The spare core stays free for parallelism inside the library.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


def import_library():
    """Import nodalcert from this checkout's source tree, nowhere else."""
    if not (SRC / "nodalcert" / "__init__.py").is_file():
        raise SystemExit(f"nodalcert sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import nodalcert

    if Path(nodalcert.__file__).resolve().parent != SRC / "nodalcert":
        raise SystemExit(f"imported nodalcert from {nodalcert.__file__}, not from {SRC}")
    return nodalcert


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """One fixture generator call shape; seeds come from a validated pool."""

    kind: str
    n: int
    d: int
    m: int | None = None

    @property
    def key(self) -> str:
        return f"{self.kind}:{self.n},{self.d}" + (f",{self.m}" if self.m else "")


O34, M34 = Family("one_node", 3, 4), Family("multi_node", 3, 4, 2)
O35, M35 = Family("one_node", 3, 5), Family("multi_node", 3, 5, 2)
O2_19, M2_22 = Family("one_node", 2, 19), Family("multi_node", 2, 22, 2)
O33 = Family("one_node", 3, 3)
M33 = [Family("multi_node", 3, 3, m) for m in (2, 3, 4)]


@dataclass(frozen=True)
class Workload:
    name: str
    exact: bool  # FieldConfig.exact() instead of the default prime pair
    full: bool  # run every job step, or stop after certify and the report
    cycles: tuple[tuple[Family, ...], ...]  # cycle templates, used in turn
    pool_cycles: int  # distinct fixture cycles generated at set-up
    cycle_s: float  # nominal seconds per cycle (numpy backend, 2-core VM)

    def run_cycles(self, seconds: float, passes: int = 1) -> int:
        """Whole cycles per run: as many as the nominal cycle time fits in the
        given seconds. The count does not depend on the machine's speed, so
        every run of a seed measures the same jobs in the same order."""
        return max(1, round(seconds / (passes * self.cycle_s)))


WORKLOADS = {
    w.name: w
    for w in [
        # Scalar rref path: every slice stays below the blocked cutoff (the
        # largest, 1144 x 680 at d = 5, has 0.78 M entries). Two quintic jobs
        # and one quartic job per cycle, so the median job and certify are
        # quintic ones, where the large slices are; the quartic kind
        # alternates.
        Workload(
            "n3-pipeline", False, True,
            ((O35, M35, O34), (O35, M35, M34)),
            2, 14.0,
        ),
        # Blocked path, both routes as "auto" picks them: the degree-19
        # curve takes the literal route and ranks the degree-51 to -53
        # slices (2.46 M to 2.97 M entries), the degree-22 curve takes the
        # persistence route and ranks the degree-60 and -61 slices (4.65 M
        # and 5.04 M entries), per prime; nothing else of size.
        Workload(
            "blocked-persistence", False, False,
            ((O2_19, M2_22),),
            1, 25.5,
        ),
        # Exact path: Bareiss ranks and rational RREF on cubic surfaces with
        # one to four nodes; no modular kernel runs.
        Workload("exact-replay", True, True, ((O33, *M33),), 12, 0.55),
    ]
}


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())


def field_for(nc, workload: Workload):
    return nc.FieldConfig.exact() if workload.exact else nc.FieldConfig.prime_pair()


def fixture_seeds(workload: Workload, seed: int, pools: dict) -> list[list[tuple[Family, int]]]:
    """Pick every fixture seed of the run from the workload seed."""
    rng = random.Random(f"{workload.name}/{seed}")
    plan = [workload.cycles[c % len(workload.cycles)] for c in range(workload.pool_cycles)]
    need: dict[Family, int] = {}
    for cycle in plan:
        for fam in cycle:
            need[fam] = need.get(fam, 0) + 1
    drawn = {fam: rng.sample(pools[fam.key], k) for fam, k in need.items()}
    return [[(fam, drawn[fam].pop()) for fam in cycle] for cycle in plan]


def build_pool(nc, workload: Workload, seed: int, pools: dict) -> list[list]:
    """Generate the run's fixtures (set-up work)."""
    return [
        [nc.make_fixture(fam.kind, fam.n, fam.d, fam.m, s) for fam, s in cycle]
        for cycle in fixture_seeds(workload, seed, pools)
    ]


def warm_jit(nc) -> None:
    """Compile the numba kernels before the first job, when numba is present."""
    from nodalcert import _kernels

    if _kernels.HAS_NUMBA:
        import numpy as np

        warm = np.arange(16, dtype=np.int64).reshape(4, 4)
        _kernels.rref_mod(warm.copy(), nc.DEFAULT_PRIMES[0])
        _kernels.blocked_rank_mod(warm.copy(), nc.DEFAULT_PRIMES[0])


# ---------------------------------------------------------------------------
# one job
# ---------------------------------------------------------------------------


class JobFailed(Exception):
    """A result on which the nodalcert CLI would exit 1 or 2."""


@dataclass
class Job:
    fixture: str
    seconds: float = 0.0
    certify_s: float | None = None
    outcome: dict | None = None
    problem: str | None = None
    labels: int = 0  # distinct ledger labels x field keys


def ledger_digest(ledger) -> str:
    rows = sorted([label, rec.rows, rec.cols, rec.rank] for label, rec in ledger.items())
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise JobFailed(what)


def _job_steps(nc, fx, field, workload: Workload, job: Job) -> dict:
    ctx = nc.JacobianContext(fx.f, field)
    n, d = ctx.n, ctx.d
    rep = nc.RunReport(command="benchmark-job")
    rep.parameters.update(
        {"n": n, "degree": d, "field": field.describe(), "fixture": fx.describe(),
         "seed": fx.seed, "claimed_nodes": [pt.to_text() for pt in fx.points]}
    )
    try:
        t0 = time.perf_counter()
        cert = nc.certify_nodal(ctx, fx.points)
        job.certify_s = time.perf_counter() - t0
        rep.certificates.append(
            {"certificate": "nodality", "verdict": cert.verdict, "route": cert.route,
             "node_count": cert.node_count, "tjurina": cert.tjurina, "reason": cert.reason,
             **cert.details}
        )
        out: dict = {"verdict": cert.verdict, "route": cert.route}
        _check(cert.verdict == f"Nodal({fx.node_count})", f"certify: {cert.verdict} {cert.reason}")
        if workload.full:
            if d >= n + 1:  # the pairing starts in degree d - n - 1
                _check(nc.pairing_injective(ctx), "pairing not injective")
                out["pairing_rank"] = ctx.engine.rank_ledger["pairing"].rank
            top = (n * d - 1) // 2
            dims = [nc.koszul_cohomology_dim(ctx, m) for m in range(top + 1)]
            _check(not any(dims), f"syzygy cohomology not vanishing: {dims}")
            mdr = nc.min_relation_degree(ctx)
            ct = nc.coincidence_threshold(ctx)
            _check(ct is not nc.SMOOTH and ct == mdr + d - 2, f"ct {ct} != mdr {mdr} + d - 2")
            out.update(mdr=mdr, ct=ct)
            kernels = [nc.variable_multiplication_kernel(ctx, t).dim for t in range(max(0, 2 * d - n - 1))]
            _check(not any(kernels), f"variable multiplication kernels {kernels}")
            hd = nc.hodge_graded_dims(ctx)
            out.update(gr_top=hd.gr_top, gr_next=hd.gr_next)
            rep.results.update(
                cohomology_dims=dims, min_relation_degree=mdr, coincidence_threshold=ct,
                kernel_dims=kernels, gr_top=hd.gr_top, gr_next=hd.gr_next,
            )
            if n == 3:
                k = 2 * d - 4
                sat = nc.saturation_graded(ctx, k).dim
                pts = nc.ideal_of_points_dim(ctx, fx.points, k)
                _check(sat == pts, f"saturation {sat} != node ideal {pts} at degree {k}")
                rep.results["saturation_dim"] = sat
                if d >= n + 1:
                    V = [nc.HomogeneousPolynomial.monomial(n, e) for e in nc.quotient_basis(ctx, d)]
                    pd = nc.period_differential(ctx, V)
                    _check(pd.injective, "period differential not injective")
                    out["period_rank"] = pd.rank
    finally:
        ledger = ctx.engine.rank_ledger
        job.labels = len(ledger) * len(field.keys)
    rep.rank_ledger = {label: (r.rows, r.cols, r.rank) for label, r in ledger.items()}
    doc = json.loads(rep.render_json())
    _check(
        doc["certificates"][0]["verdict"] == cert.verdict
        and doc["rank_ledger"] == {k: {"rows": r, "cols": c, "rank": q} for k, (r, c, q) in rep.rank_ledger.items()},
        "report does not round-trip",
    )
    out["ledger"] = ledger_digest(ledger)
    return out


def run_job(nc, fx, workload: Workload, pinned: dict | None) -> Job:
    job = Job(fx.describe())
    field = field_for(nc, workload)
    t0 = time.perf_counter()
    try:
        job.outcome = _job_steps(nc, fx, field, workload, job)
    except JobFailed as exc:
        job.problem = str(exc)
    except Exception as exc:  # a failed job is counted; the loop goes on
        job.problem = f"{type(exc).__name__}: {exc}"
    job.seconds = time.perf_counter() - t0
    if job.problem is None and pinned is not None:
        want = pinned.get(job.fixture)
        if want != job.outcome:
            job.problem = f"outcome {job.outcome} != pinned {want}"
    return job


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, str]:
    """The highest order statistic with at least ten samples above it, and
    its label. Below 21 samples that statistic would not exceed the median,
    so the maximum is reported instead."""
    xs = sorted(values)
    n = len(xs)
    if n < 21:
        return xs[-1], f"max of {n} samples (fewer than 21)"
    return xs[n - 11], f"p{100 * (n - 10) / n:.0f} of {n} samples (10 above it)"


def setup_probe(workload: str, seed: int) -> float:
    """Wall time from process start to the end of set-up, in a fresh process.
    The child reads the clock itself, against the parent's start time: the
    parent's wait for the child's exit polls in steps of up to 50 ms, too
    coarse for a set-up of a few tenths of a second."""
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", repr(t0),
         "--workload", workload, "--seed", str(seed)],
        check=True, timeout=120, stdout=subprocess.PIPE, text=True,
    ).stdout
    return float(out.split()[-1])


def environment(nc) -> dict:
    import numpy as np
    from nodalcert import _kernels

    return {
        "backend": _kernels.ACTIVE.name,
        "has_numba": _kernels.HAS_NUMBA,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "blas_threads": BLAS_THREADS,
        "nproc": NPROC,
    }


def measure(nc, workload: Workload, pool: list, seconds: float, pinned: dict | None,
            seed: int) -> tuple[list[Job], float, list[float]]:
    """The run's whole cycles, timed. The set-up probes run between cycles,
    spread over the run, so that they see the machine in the same states as
    the jobs; their time is not counted."""
    jobs: list[Job] = []
    setups: list[float] = []
    busy = 0.0
    cycles = workload.run_cycles(seconds)
    for cycle in range(cycles):
        while len(setups) < SETUP_PROBES and len(setups) * cycles // SETUP_PROBES <= cycle:
            setups.append(setup_probe(workload.name, seed))
        t0 = time.perf_counter()
        jobs += [run_job(nc, fx, workload, pinned) for fx in pool[cycle % len(pool)]]
        busy += time.perf_counter() - t0
    return jobs, busy, setups


def end_to_end(jobs: list[Job], elapsed: float, setups: list[float]) -> tuple[dict, list[str]]:
    times = [j.seconds for j in jobs]
    certs = [j.certify_s for j in jobs if j.certify_s is not None]
    done = sum(1 for j in jobs if j.problem is None)
    tail_s, tail_note = tail(times)
    metrics = {
        "jobs_per_min": (60.0 * done / elapsed, "1/min"),
        "job_s.p50": (statistics.median(times), "s"),
        "job_s.tail": (tail_s, "s"),
        "certify_s.p50": (statistics.median(certs) if certs else 0.0, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        f"job_s.tail = {tail_note}",
        f"certify_s.p50 over {len(certs)} samples; setup_s median of {len(setups)}",
        f"failed_frac = {len(jobs) - done}/{len(jobs)}",
    ]
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, notes


PER_CYCLE_UNITS = {"calls": "calls/cycle", "s": "s/cycle", "entries": "entries/cycle", "gop": "Gop/cycle"}


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in BENCHMARK.json order."""
    names = []
    for kern in ("kernels.rref_mod", "kernels.blocked_rank_mod"):
        names += [(f"{kern}.{s}", PER_CYCLE_UNITS[s]) for s in ("calls", "s", "entries", "gop")]
        names += [(f"{kern}.gop_per_s", "Gop/s"), (f"{kern}.entries_per_s", "entries/s")]
    for fn in ("bareiss_rank", "rref_fraction"):
        names += [(f"exact.{fn}.calls", "calls/cycle"), (f"exact.{fn}.s", "s/cycle")]
    names += [(f"assembly.{fn}.s", "s/cycle")
              for fn in ("jacobian_generator_coo", "trivial_syzygy_coo", "dense_mod", "dense_int_rows")]
    names.append(("assembly.dense_mod.bytes", "B/cycle"))
    for fn in ("rank_coo", "rank_payload", "echelon_coo", "echelon_payload", "kernel_payload"):
        names += [(f"linalg.{fn}.calls", "calls/cycle"), (f"linalg.{fn}.s", "s/cycle")]
    names.append(("linalg.elims_per_label", "ratio"))
    layer_fns = {
        "milnor": ("jacobian_dim", "jacobian_basis", "quotient_reduction", "saturation_graded",
                   "tjurina_count", "coincidence_threshold"),
        "nodal": ("certify_nodal", "local_checks"),
        "koszul": ("koszul_cohomology_dim", "min_relation_degree"),
        "torelli": ("pairing_injective", "variable_multiplication_kernel", "period_differential"),
        "hodge": ("hodge_graded_dims", "ideal_of_points_dim"),
    }
    for layer, fns in layer_fns.items():
        names += [(f"{layer}.{fn}.s", "s/cycle") for fn in fns]
    names += [("fixtures.make_fixture.s", "s"), ("report.render_json.s", "s/cycle"),
              ("trace.overhead_frac", "ratio")]
    return names


def measure_traced(nc, workload: Workload, pool: list, seconds: float, pinned: dict | None, tracer):
    """Run every job of the run's cycles twice in a row, untraced and traced,
    swapping which goes first from one job to the next. Each cycle runs
    twice, so the run holds half as many cycles as an untraced one."""
    plain: list[Job] = []
    traced: list[Job] = []
    cycles = workload.run_cycles(seconds, passes=2)
    for cycle in range(cycles):
        for fx in pool[cycle % len(pool)]:
            pair = {}
            for is_traced in ((False, True) if len(plain) % 2 == 0 else (True, False)):
                if is_traced:
                    tracer.install()
                try:
                    pair[is_traced] = run_job(nc, fx, workload, pinned)
                finally:
                    tracer.restore()
            a, b = pair[False], pair[True]
            if a.problem is None and b.problem is None and a.outcome != b.outcome:
                b.problem = f"traced outcome {b.outcome} != untraced {a.outcome}"
            plain.append(a)
            traced.append(b)
    return plain, traced, cycles


def per_layer(tracer, plain: list[Job], traced: list[Job], cycles: int) -> dict:
    st = tracer.stats
    values = {}
    for name, unit in per_layer_names():
        if unit.endswith("/cycle"):
            values[name] = st.get(name, 0.0) / cycles
    for kern in ("kernels.rref_mod", "kernels.blocked_rank_mod"):
        busy = st.get(kern + ".s", 0.0)
        values[kern + ".gop_per_s"] = st.get(kern + ".gop", 0.0) / busy if busy else 0.0
        values[kern + ".entries_per_s"] = st.get(kern + ".entries", 0.0) / busy if busy else 0.0
    labels = sum(j.labels for j in traced)
    values["linalg.elims_per_label"] = st.get("linalg.eliminations", 0.0) / labels if labels else 0.0
    values["fixtures.make_fixture.s"] = st.get("fixtures.make_fixture.s", 0.0)
    values["trace.overhead_frac"] = sum(j.seconds for j in traced) / sum(j.seconds for j in plain) - 1.0
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    nc = import_library()
    workload = WORKLOADS[args.workload]
    expected = load_expected()
    pools = expected["pools"]
    pinned = expected["outcomes"][workload.name] if args.seed == DEFAULT_SEED else None

    if args.setup_probe is not None:
        build_pool(nc, workload, args.seed, pools)
        warm_jit(nc)
        print(time.monotonic() - args.setup_probe)
        sys.stdout.flush()
        os._exit(0)

    env = environment(nc)
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        from trace_layers import FIXTURE_TARGET, Tracer

        tracer = Tracer()
        tracer.install([FIXTURE_TARGET])
        try:
            pool = build_pool(nc, workload, args.seed, pools)
        finally:
            tracer.restore()
        warm_jit(nc)
        plain, traced, cycles = measure_traced(nc, workload, pool, args.seconds, pinned, tracer)
        jobs = plain + traced
        metrics = per_layer(tracer, plain, traced, cycles)
        print(f"traced {len(traced)} jobs in {cycles} cycles; untraced {len(plain)} jobs")
    else:
        pool = build_pool(nc, workload, args.seed, pools)
        warm_jit(nc)
        jobs, elapsed, setups = measure(nc, workload, pool, args.seconds, pinned, args.seed)
        metrics, notes = end_to_end(jobs, elapsed, setups)
        for note in notes:
            print(note)
    failed = [j for j in jobs if j.problem is not None]
    for j in failed:
        print(f"FAILED {j.fixture}: {j.problem}")
    print(json.dumps({"correct": not failed, "attempted": len(jobs), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
