"""Command-line interface.

Every subcommand follows the same shape: resolve the input hypersurface
(from a fixture spec or polynomial text), build a context over the
configured field(s), run the requested certificates, and emit one report
(text by default, ``--json`` for the machine-readable document).

Exit codes: 0 = everything certified; 1 = a certified-input claim check
failed (a regression against the certified statements); 2 = hypothesis not
met or input error (bad input, nodality certification failure, unsupported
dimension, non-effective subspace).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import time
from typing import Callable, Sequence

from ._kernels import openblas_threads
from .errors import (
    DegreeTooSmall,
    NodalcertError,
    NoStabilization,
    NotEffective,
    ParseError,
    UnsupportedDimension,
)
from .field import FieldConfig, parse_field_flag
from .fixtures import FixtureSpec, parse_fixture_arg
from .hodge import corollary_constancy_check, hodge_graded_dims, ideal_of_points_dim
from .koszul import koszul_cohomology_dim, min_relation_degree
from .milnor import (
    SMOOTH,
    JacobianContext,
    coincidence_threshold,
    saturation_graded,
    tjurina_count,
)
from .monomials import space_dim
from .nodal import NodalCertificate, ProjectivePoint, certify_nodal, parse_point
from .polynomials import HomogeneousPolynomial, parse_polynomial
from .report import RunReport
from .torelli import (
    pairing_injective,
    period_differential,
    quotient_basis,
    variable_multiplication_kernel,
)

_VAR_TOKEN = re.compile(r"x(\d+)")


def infer_variable_count(text: str) -> int:
    """Ambient dimension n from the highest variable index mentioned."""
    indices = [int(m.group(1)) for m in _VAR_TOKEN.finditer(text)]
    if not indices:
        raise ParseError("no variables found in polynomial text")
    return max(indices)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_lines(path: str) -> list[str]:
    """The file's lines, stripped, without blank lines and '#' comments."""
    lines = (line.strip() for line in _read_text(path).splitlines())
    return [line for line in lines if line and not line.startswith("#")]


class _Job:
    """Resolved input: polynomial, claimed nodes, context, report skeleton."""

    def __init__(self, args: argparse.Namespace, command: str):
        self.args = args
        self.field = parse_field_flag(args.field) if args.field else FieldConfig.prime_pair()
        self.fixture: FixtureSpec | None = None
        if getattr(args, "fixture", None):
            self.fixture = parse_fixture_arg(args.fixture)
            f = self.fixture.f
            points: tuple[ProjectivePoint, ...] = self.fixture.points
        elif getattr(args, "input", None):
            text = _read_text(args.input)
            n = infer_variable_count(text)
            f = parse_polynomial(text, n)
            points = ()
        else:
            raise ParseError("need --fixture or --input")
        if getattr(args, "points", None):
            points = tuple(parse_point(line, f.n) for line in _read_lines(args.points))
        self.f = f
        self.points = points
        self.ctx = JacobianContext(f, self.field)
        self.report = RunReport(command=command)
        self.report.parameters.update(
            {
                "n": f.n,
                "degree": f.degree,
                "field": self.field.describe(),
                "claimed_nodes": [pt.to_text() for pt in points],
            }
        )
        if self.fixture is not None:
            self.report.parameters["fixture"] = self.fixture.describe()
            if self.fixture.seed is not None:
                self.report.parameters["seed"] = self.fixture.seed

    def finish(self, code: int) -> tuple[RunReport, int]:
        self.report.rank_ledger = {
            label: (rec.rows, rec.cols, rec.rank)
            for label, rec in self.ctx.engine.rank_ledger.items()
        }
        return self.report, code

    def certify(self) -> tuple[NodalCertificate, int | None]:
        """Run nodality certification; return (certificate, forced exit or None)."""
        t0 = time.perf_counter()
        cert = certify_nodal(self.ctx, self.points)
        self.report.timings["certify"] = time.perf_counter() - t0
        self.report.certificates.append(
            {
                "certificate": "nodality",
                "verdict": cert.verdict,
                "route": cert.route,
                "node_count": cert.node_count,
                "tjurina": cert.tjurina,
                "reason": cert.reason,
                **cert.details,
            }
        )
        if cert.kind == "Failed":
            return cert, 2
        if cert.kind == "Smooth" and not getattr(self.args, "allow_smooth", False):
            self.report.results["note"] = (
                "input certified Smooth; pass --allow-smooth to proceed without the nodal hypothesis"
            )
            return cert, 2
        return cert, None


def _certify_first(
    body: Callable[[_Job, NodalCertificate], int], n: int | None = None
) -> Callable[[argparse.Namespace], tuple[RunReport, int]]:
    """The subcommand that resolves its input, certifies it, and runs
    ``body`` for its exit code when the certificate lets it go on. A given
    ``n`` is the one ambient dimension the subcommand supports, checked
    before certification."""

    def run(args: argparse.Namespace) -> tuple[RunReport, int]:
        job = _Job(args, args.command)
        if n is not None and job.ctx.n != n:
            raise UnsupportedDimension(f"{args.command} not certified for n = {job.ctx.n}")
        cert, forced = job.certify()
        return job.finish(body(job, cert) if forced is None else forced)

    return run


def _cmd_hilbert(args: argparse.Namespace) -> tuple[RunReport, int]:
    job = _Job(args, "hilbert")
    ctx = job.ctx
    kmax = args.kmax if args.kmax is not None else min(ctx.socle + 2, 2 * ctx.d + 2)
    table = []
    for k in range(kmax + 1):
        table.append(
            {
                "k": k,
                "ambient": space_dim(ctx.n, k),
                "ideal": ctx.jacobian_dim(k),
                "quotient": ctx.milnor_dim(k),
                "smooth_reference": ctx.smooth_dim(k),
            }
        )
    job.report.results["hilbert_table"] = table
    job.report.results["socle_degree"] = ctx.socle
    # The threshold and the global singularity count both require
    # eliminations around the socle degree; probe that size before
    # committing so the command stays responsive on huge inputs.
    probe = ctx.socle + 2
    over = ctx.slice_over_cap(probe)
    if not over:
        job.report.results["coincidence_threshold"] = coincidence_threshold(ctx)
        try:
            job.report.results["tjurina"] = tjurina_count(ctx)
        except NoStabilization as exc:
            # a non-isolated singular locus: the table and threshold still stand
            job.report.results["tjurina"] = "not stabilized"
            job.report.results["tjurina_note"] = str(exc)
    else:
        job.report.results["threshold_note"] = (
            f"coincidence threshold and singularity count need eliminations "
            f"around degree {probe}, and {over}; skipped as infeasible"
        )
    return job.finish(0)


def _pairing_check(job: _Job, cert: NodalCertificate) -> int:
    t0 = time.perf_counter()
    ok = pairing_injective(job.ctx)
    job.report.timings["pairing"] = time.perf_counter() - t0
    expected = job.ctx.milnor_dim(job.ctx.d)
    rec = job.ctx.engine.rank_ledger["pairing"]
    job.report.results.update(
        {
            "pairing_rank": rec.rank,
            "expected_rank": expected,
            "pairing_injective": ok,
        }
    )
    return 0 if ok else 1


def _koszul(job: _Job, cert: NodalCertificate) -> int:
    ctx = job.ctx
    n, d = ctx.n, ctx.d
    m_top = job.args.kmax if job.args.kmax is not None else (n * d - 1) // 2
    t0 = time.perf_counter()
    dims = {m: koszul_cohomology_dim(ctx, m) for m in range(m_top + 1)}
    job.report.timings["koszul"] = time.perf_counter() - t0
    job.report.results["cohomology_dims"] = {str(m): v for m, v in dims.items()}
    job.report.results["vanishing_range_top"] = (n * d - 1) // 2
    code = 0
    if cert.kind == "Nodal":
        bad = [m for m, v in dims.items() if v != 0 and m <= (n * d - 1) // 2]
        job.report.results["vanishing_holds"] = not bad
        if bad:
            code = 1
    if job.args.qmax is not None:
        mdr = min_relation_degree(ctx, job.args.qmax)
        ct = coincidence_threshold(ctx)
        job.report.results["min_relation_degree"] = mdr
        job.report.results["coincidence_threshold"] = ct
        if cert.kind == "Nodal" and ct is not SMOOTH:
            identity = ct == mdr + d - 2
            job.report.results["threshold_identity"] = identity
            if not identity:
                code = 1
    return code


def _varmul(job: _Job, cert: NodalCertificate) -> int:
    ctx = job.ctx
    n, d = ctx.n, ctx.d
    top = 2 * d - n - 2
    t0 = time.perf_counter()
    dims = {t: variable_multiplication_kernel(ctx, t).dim for t in range(max(0, top) + 1)}
    job.report.timings["kernels"] = time.perf_counter() - t0
    job.report.results["kernel_dims"] = {str(t): v for t, v in dims.items()}
    code = 0
    if cert.kind == "Nodal":
        bad = [t for t, v in dims.items() if v != 0]
        job.report.results["kernels_vanish"] = not bad
        if bad:
            code = 1
    return code


def _hodge(job: _Job, cert: NodalCertificate) -> int:
    ctx = job.ctx
    t0 = time.perf_counter()
    dims = hodge_graded_dims(ctx)
    job.report.timings["hodge"] = time.perf_counter() - t0
    job.report.results["gr_top"] = dims.gr_top
    job.report.results["gr_next"] = "absent" if dims.gr_next is None else dims.gr_next
    code = 0
    if ctx.n == 3 and job.points:
        k = 2 * ctx.d - 4
        sat_dim = saturation_graded(ctx, k).dim
        pts_dim = ideal_of_points_dim(ctx, job.points, k)
        job.report.results["saturation_dim"] = sat_dim
        job.report.results["ideal_of_points_dim"] = pts_dim
        job.report.results["saturation_matches_points"] = sat_dim == pts_dim
        if cert.kind == "Nodal" and sat_dim != pts_dim:
            code = 1
    return code


def _period_diff(job: _Job, cert: NodalCertificate) -> int:
    ctx = job.ctx
    if job.args.subspace:
        V = [parse_polynomial(line, ctx.n) for line in _read_lines(job.args.subspace)]
    else:
        V = [
            HomogeneousPolynomial.monomial(ctx.n, expo)
            for expo in quotient_basis(ctx, ctx.d)
        ]
    t0 = time.perf_counter()
    result = period_differential(ctx, V)
    job.report.timings["period"] = time.perf_counter() - t0
    job.report.results.update(
        {
            "subspace_dim": result.dim_v,
            "rank": result.rank,
            "injective": result.injective,
        }
    )
    return 0 if result.injective else 1


def _sweep_one(spec_text: str, field_text: str | None) -> dict:
    """Worker body for one sweep entry (runs in-process or in a pool)."""
    field = parse_field_flag(field_text) if field_text else FieldConfig.prime_pair()
    fixture = parse_fixture_arg(spec_text)
    ctx = JacobianContext(fixture.f, field)
    cert = certify_nodal(ctx, fixture.points)
    entry: dict = {
        "fixture": fixture.describe(),
        "verdict": cert.verdict,
        "route": cert.route,
        "node_count": cert.node_count,
    }
    if fixture.seed is not None:
        entry["seed"] = fixture.seed
    if cert.kind == "Nodal":
        dims = hodge_graded_dims(ctx)
        entry["gr_top"] = dims.gr_top
        entry["gr_next"] = "absent" if dims.gr_next is None else dims.gr_next
        entry["_dims"] = dims
    entry["rank_ledger"] = {
        f"{fixture.describe()}/{label}": (rec.rows, rec.cols, rec.rank)
        for label, rec in ctx.engine.rank_ledger.items()
    }
    return entry


def _share_blas_threads(workers: int) -> None:
    """Pool-worker initializer: give this worker's OpenBLAS its share of the
    cores. Left at one thread per core in every worker, the workers' BLAS
    threads oversubscribe the cores, and ``sweep --threads 2`` ran slower
    than in-process on a 2-core VM."""
    blas = openblas_threads()
    if blas is not None:
        blas[1](max(1, len(os.sched_getaffinity(0)) // workers))


def _cmd_sweep(args: argparse.Namespace) -> tuple[RunReport, int]:
    report = RunReport(command="sweep")
    field = parse_field_flag(args.field) if args.field else FieldConfig.prime_pair()
    report.parameters["field"] = field.describe()
    report.parameters["fixtures"] = list(args.specs)
    t0 = time.perf_counter()
    workers = min(args.threads, len(args.specs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(workers, initializer=_share_blas_threads, initargs=(workers,)) as pool:
            entries = list(pool.map(_sweep_one, args.specs, [args.field] * len(args.specs)))
    else:
        entries = [_sweep_one(spec, args.field) for spec in args.specs]
    report.timings["sweep"] = time.perf_counter() - t0
    code = 0
    items = []
    for entry in entries:
        report.rank_ledger.update(
            {label: tuple(v) for label, v in entry.pop("rank_ledger").items()}
        )
        dims = entry.pop("_dims", None)
        if dims is not None:
            items.append((entry["node_count"], dims))
        if not entry["verdict"].startswith("Nodal"):
            code = 2
        report.results.setdefault("fixtures", []).append(entry)
    if items:
        constant = corollary_constancy_check(items)
        report.results["constancy"] = constant
        if not constant and code == 0:
            code = 1
    return report, code


def _cmd_fixture(args: argparse.Namespace) -> tuple[RunReport, int]:
    spec_text = args.spec
    if args.seed is not None and "seed=" not in spec_text:
        spec_text = f"{spec_text},seed={args.seed}"
    fixture = parse_fixture_arg(spec_text)
    report = RunReport(command="fixture")
    report.parameters["spec"] = spec_text
    report.results.update(
        {
            "fixture": fixture.describe(),
            "polynomial": fixture.f.to_text(),
            "points": [pt.to_text() for pt in fixture.points],
            "attempts": fixture.attempts,
        }
    )
    if fixture.seed is not None:
        report.parameters["seed"] = fixture.seed
    return report, 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a count of at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nodalcert",
        description="Exact certificates for graded invariants of nodal hypersurfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, points: bool = True) -> None:
        p.add_argument("--fixture", help="fixture spec kind:n,d[,m][,seed=S]")
        p.add_argument("--input", help="polynomial file ('-' for stdin)")
        if points:
            p.add_argument("--points", help="file of claimed nodes, one [a0 : ... : an] per line")
        p.add_argument("--field", help="'fp:<p1>,fp:<p2>' (default) or 'exact'")
        p.add_argument("--allow-smooth", action="store_true", dest="allow_smooth")
        p.add_argument("--json", action="store_true", help="emit the JSON report")

    p = sub.add_parser("hilbert", help="Hilbert function table vs the smooth reference")
    common(p)
    p.add_argument("--kmax", type=int, help="top degree of the table")
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("pairing-check", help="injectivity of the degree-d multiplication pairing")
    common(p)
    p.set_defaults(func=_certify_first(_pairing_check))

    p = sub.add_parser("koszul", help="nontrivial-syzygy counts per internal degree")
    common(p)
    p.add_argument("--kmax", type=int, help="top internal degree to report")
    p.add_argument("--qmax", type=int, help="also scan the minimal relation degree up to this cap")
    p.set_defaults(func=_certify_first(_koszul))

    p = sub.add_parser("varmul", help="kernels of multiplication by each variable")
    common(p)
    p.set_defaults(func=_certify_first(_varmul))

    p = sub.add_parser("hodge", help="top Hodge graded pieces; node-ideal comparison for n=3")
    common(p)
    p.set_defaults(func=_certify_first(_hodge))

    p = sub.add_parser("period-diff", help="period differential on a deformation subspace")
    common(p)
    p.add_argument("--subspace", help="file of degree-d polynomials, one per line")
    p.set_defaults(func=_certify_first(_period_diff, n=3))

    p = sub.add_parser("certify", help="certify the nodal hypothesis")
    common(p)
    p.set_defaults(func=_certify_first(lambda job, cert: 0))

    p = sub.add_parser("sweep", help="certify + compare graded dims across fixtures")
    p.add_argument("specs", nargs="+", help="fixture specs kind:n,d[,m][,seed=S]")
    p.add_argument("--field", help="'fp:<p1>,fp:<p2>' (default) or 'exact'")
    p.add_argument("--threads", type=_positive_int, default=1, help="parallel fixtures")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("fixture", help="generate a fixture and print it")
    p.add_argument("spec", help="fixture spec kind:n,d[,m][,seed=S]")
    p.add_argument("--seed", type=int, help="recorded in the report")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_fixture)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = args.func(args)
    except (UnsupportedDimension, NotEffective, DegreeTooSmall) as exc:
        print(f"hypothesis not met: {exc}", file=sys.stderr)
        return 2
    except (NodalcertError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "json", False):
        print(report.render_json())
    else:
        print(report.render_text(), end="")
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
