"""The multi-field linear engine: rank/echelon/kernel agreement across
field realizations, the rank ledger, and reduced rows against a basis."""

import os
from fractions import Fraction

import numpy as np
import pytest

from nodalcert import _kernels
from nodalcert.assembly import IntCOO
from nodalcert.errors import FieldDisagreement, InconsistentResult
from nodalcert.field import FieldConfig
from nodalcert.linalg import LinearEngine, RankRecord


def _coo(rows_of_ints) -> IntCOO:
    arr = np.array(rows_of_ints, dtype=np.int64)
    r, c = np.nonzero(arr)
    return IntCOO(arr.shape, rows=r.astype(np.int64), cols=c.astype(np.int64), vals=arr[r, c])


@pytest.fixture(params=["two-prime", "exact"])
def engine(request):
    cfg = FieldConfig.exact() if request.param == "exact" else FieldConfig.prime_pair()
    return LinearEngine(cfg)


def test_rank_coo_and_ledger(engine):
    coo = _coo([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert engine.rank_coo(coo, "demo") == 2
    assert engine.rank_ledger["demo"] == RankRecord(3, 3, 2)
    # replay answers from the ledger without recomputation
    assert engine.rank_coo(coo, "demo") == 2


def test_ledger_label_reuse_with_different_result_is_an_error(engine):
    engine.rank_coo(_coo([[1, 0], [0, 1]]), "label")
    with pytest.raises(InconsistentResult):
        engine._record("label", 2, 2, 1)


def test_ledger_label_reuse_with_a_different_shape_raises(engine):
    # a result check, not an assert: it must also hold under python -O
    engine.rank_coo(_coo([[1, 0], [0, 1]]), "label")
    with pytest.raises(InconsistentResult):
        engine.rank_coo(_coo([[1, 0, 0], [0, 1, 0]]), "label")


def test_one_elimination_answers_every_op_on_a_label_of_one_shape(engine, monkeypatch):
    eliminated = []
    for F in {type(F) for F in engine.field.realizations}:
        real = F.rref_free
        monkeypatch.setattr(F, "rref_free", lambda self, mat, real=real: eliminated.append(mat.shape) or real(self, mat))
    coo = _coo([[1, 2, 3], [0, 1, 1]])
    ker = engine.kernel_coo(coo, "L")
    span = engine.echelon_coo(coo, "L")
    rank, rows = engine.annihilator_coo(coo, "L")
    again = engine.kernel_coo(coo, "L")
    # one elimination of L and one of its kernel rows, per field
    fields = len(engine.field.realizations)
    assert eliminated == [(2, 3)] * fields + [(1, 3)] * fields
    assert (span.pivots, rank, ker.dim) == ((0, 1), 2, 1)
    for F in engine.field.realizations:
        assert not F.normalize(F.convert([[1, 2, 3], [0, 1, 1]]) @ rows[F.key].T).any()
        assert np.array_equal(span.payload[F.key], F.convert([[1, 0, 1], [0, 1, 1]]))
        assert np.array_equal(again.payload[F.key], ker.payload[F.key])
    # the label holds a 2x3 result, and answers no other shape
    for entry_point in (engine.echelon_coo, engine.kernel_coo, engine.annihilator_coo):
        with pytest.raises(InconsistentResult, match="holds a 2x3 rank, asked for 4x5"):
            entry_point(_coo(np.eye(4, 5, dtype=np.int64)), "L")


def test_echelon_and_kernel_are_consistent(engine):
    coo = _coo([[1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1]])
    basis = engine.echelon_coo(coo, "span")
    assert basis.dim == 2
    ker = engine.kernel_coo(coo.transposed(), "ker")
    # rank-nullity for the transpose acting on 3-space
    assert ker.ncols == 3
    assert ker.dim == 3 - 2


def _residual(F, basis, vec):
    """Oracle: the exact vector reduced in F against the reduced echelon
    basis, each pivot coordinate cleared by its row."""
    res = F.convert(vec)
    for t, pc in enumerate(basis.pivots):
        res = F.normalize(res - res[pc] * basis.payload[F.key][t])
    return res


def test_membership_and_quotient_coordinates(engine):
    coo = _coo([[1, 0, 2], [0, 1, 1]])
    basis = engine.echelon_coo(coo, "basis")
    inside = [Fraction(2), Fraction(3), Fraction(7)]
    outside = [Fraction(0), Fraction(0), Fraction(1)]
    mixed = [Fraction(1), Fraction(1), Fraction(0)]  # (1, 0, 2) + (0, 1, 1) - 3 e_2
    free = list(basis.free_columns())
    for F in engine.field.realizations:
        assert not _residual(F, basis, inside).any()
        assert np.array_equal(_residual(F, basis, outside), F.convert([0, 0, 1]))
        assert np.array_equal(_residual(F, basis, mixed), F.convert([0, 0, -3]))
        assert np.array_equal(_residual(F, basis, inside)[free], F.convert([0]))
        assert np.array_equal(_residual(F, basis, mixed)[free], F.convert([-3]))


def test_two_prime_rank_disagreement_is_detected():
    engine = LinearEngine(FieldConfig.prime_pair(5, 7))
    with pytest.raises(FieldDisagreement):
        engine.rank_coo(_coo([[5]]), "bad-rank")


def test_two_prime_pivot_disagreement_is_detected():
    # [[5, 1]] has rank 1 mod 5 and mod 7, with its pivot in column 1 mod 5
    # and in column 0 mod 7
    engine = LinearEngine(FieldConfig.prime_pair(5, 7))
    for op in (engine.echelon_coo, engine.annihilator_coo, engine.kernel_coo):
        with pytest.raises(FieldDisagreement, match="pivot columns"):
            op(_coo([[5, 1]]), f"bad-pivots/{op.__name__}")
    assert not engine.rank_ledger


def test_payload_entry_points_take_their_shape_from_the_payload():
    engine = LinearEngine(FieldConfig.prime_pair())
    keys = [F.key for F in engine.field.realizations]
    A = np.array([[1, 2, 3], [2, 4, 6]], dtype=np.int64)
    assert engine.rank_payload({key: A.copy() for key in keys}, "rank") == 1
    assert engine.rank_ledger["rank"] == RankRecord(2, 3, 1)
    # realizations of two shapes, and a matrix that is not 2-D
    for name, bad in (("uneven", [A, A[:1]]), ("flat", [A[0], A[0]])):
        for call in (engine.rank_payload, engine.echelon_payload, engine.kernel_payload):
            with pytest.raises(InconsistentResult):
                call({key: m.copy() for key, m in zip(keys, bad)}, f"{name}/{call.__name__}")
    none = {key: np.zeros((0, 5), dtype=np.int64) for key in keys}
    span = engine.echelon_payload(none, "no-rows")
    assert (span.ncols, span.dim, span.free_columns()) == (5, 0, tuple(range(5)))
    ker = engine.kernel_payload({key: m.copy() for key, m in none.items()}, "no-rows-kernel")
    assert (ker.ncols, ker.dim) == (5, 5)


def test_the_engine_never_writes_into_a_callers_payload(engine):
    A = [[1, 2, 0, 3], [2, 4, 1, 6], [0, 0, 5, 1]]
    payload = {F.key: F.convert(A).reshape(3, 4) for F in engine.field.realizations}
    before = {key: m.copy() for key, m in payload.items()}
    assert engine.rank_payload(payload, "rank") == 3
    assert engine.echelon_payload(payload, "span").dim == 3
    assert engine.kernel_payload(payload, "kernel").dim == 1
    for key, m in payload.items():
        assert m.dtype == before[key].dtype and np.array_equal(m, before[key])


def test_two_prime_and_exact_agree_on_random_input():
    rng = np.random.default_rng(17)
    arr = (rng.integers(-9, 10, size=(12, 10)) * rng.integers(0, 2, size=(12, 10))).astype(np.int64)
    coo = _coo(arr)
    r1 = LinearEngine(FieldConfig.prime_pair()).rank_coo(coo, "x")
    r2 = LinearEngine(FieldConfig.exact()).rank_coo(coo, "x")
    assert r1 == r2


_RANK_MOD = _kernels.rank_mod


class Boom(Exception):
    """The error a spied rank raises; defined at module level, so it pickles."""


class NeedsTwoArguments(Exception):
    """Pickles, but does not unpickle: its constructor needs two arguments."""

    def __init__(self, a, b):
        super().__init__(a)


def _pair_or_skip():
    from nodalcert import linalg

    if not linalg._can_rank_at_once():
        pytest.skip("the pair runs in turn here: fewer than two cores, no fork or no OpenBLAS thread control")


def _spy_ranks(monkeypatch, tmp_path, fail_on=None, error=None):
    """Log (prime, pid) of every prime-field rank to a file, so that ranks
    in a forked child are seen too, raising ``error`` in the rank modulo
    ``fail_on`` once it is logged. With an error to raise, a rank in
    another pid waits 0.5 s before it logs, so it ends last. Returns a
    function that reads the log."""
    import time

    log = tmp_path / "ranks.log"
    log.write_text("")
    parent = os.getpid()

    def spy(A, p):
        result = _RANK_MOD(A, p)
        if error is not None and os.getpid() != parent:
            time.sleep(0.5)
        with open(log, "a") as out:
            out.write(f"{p} {os.getpid()}\n")
        if p == fail_on:
            raise error
        return result

    monkeypatch.setattr(_kernels, "rank_mod", spy)
    return lambda: [tuple(map(int, line.split())) for line in log.read_text().splitlines()]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _jacobian_ledger(gate, monkeypatch):
    """The ledger of ranks, derived ranks, an echelon and a kernel of the
    quartic's Jacobian slices with the pair gate at ``gate``, and that
    echelon's and that kernel's payloads."""
    from nodalcert.fixtures import one_node
    from nodalcert.milnor import JacobianContext

    monkeypatch.setattr(_kernels, "_CONCURRENT_ENTRIES", gate)
    ctx = JacobianContext(one_node(3, 4, 1).f)
    for k in range(3, 11):
        ctx.jacobian_dim(k)
    basis = ctx.jacobian_basis(6)
    ker = ctx.engine.kernel_coo(ctx.generator_coo(6).transposed(), "syzygies/6")
    return list(ctx.engine.rank_ledger.items()), basis, ker


def test_a_rank_above_the_gate_records_the_ledger_of_the_primes_in_turn(monkeypatch, tmp_path):
    _pair_or_skip()
    calls = _spy_ranks(monkeypatch, tmp_path)
    in_turn, basis, ker = _jacobian_ledger(_kernels._CONCURRENT_ENTRIES, monkeypatch)
    seen = len(calls())
    assert seen and all(pid == os.getpid() for _, pid in calls())
    at_once, basis_at_once, ker_at_once = _jacobian_ledger(0, monkeypatch)
    assert at_once == in_turn
    # the echelon and the kernel, whose steps ran in a child too, are the same
    for a, b in ((basis, basis_at_once), (ker, ker_at_once)):
        assert (a.ncols, a.pivots) == (b.ncols, b.pivots) and a.payload.keys() == b.payload.keys()
        assert all(np.array_equal(a.payload[key], b.payload[key]) for key in a.payload)
    assert (basis.dim, ker.dim) == (dict(in_turn)["jacobian/6"].rank, 80 - basis.dim)
    p1, p2 = FieldConfig.prime_pair().primes
    # p2 was ranked in another pid
    assert {(p, pid != os.getpid()) for p, pid in calls()[seen:]} == {(p1, False), (p2, True)}


def test_a_pair_leaves_no_thread_behind(monkeypatch, tmp_path):
    import threading

    _pair_or_skip()
    monkeypatch.setattr(_kernels, "_CONCURRENT_ENTRIES", 0)
    calls = _spy_ranks(monkeypatch, tmp_path)
    before = threading.active_count()
    assert LinearEngine(FieldConfig.prime_pair()).rank_coo(_coo([[1, 2], [3, 4]]), "pair") == 2
    assert {pid != os.getpid() for _, pid in calls()} == {False, True}
    assert threading.active_count() == before
    assert not [t for t in threading.enumerate() if t.name.startswith("nodalcert-rank")]


def test_an_exception_of_either_prime_propagates_with_its_type(monkeypatch, tmp_path):
    _pair_or_skip()
    get_threads, set_threads = _kernels.openblas_threads()
    monkeypatch.setattr(_kernels, "_CONCURRENT_ENTRIES", 0)
    p1, p2 = FieldConfig.prime_pair().primes
    before = set_threads(2)
    try:
        for fail_on in (p2, p1):
            calls = _spy_ranks(monkeypatch, tmp_path, fail_on, Boom())
            with pytest.raises(Boom):
                LinearEngine(FieldConfig.prime_pair()).rank_coo(_coo([[1, 2], [3, 4]]), "boom")
            if fail_on == p2:
                # the first prime's rank finished before the child's exception left the engine
                assert sorted((p, pid == os.getpid()) for p, pid in calls()) == sorted([(p1, True), (p2, False)])
            else:
                # the child was killed in its 0.5 s wait, before it logged its rank
                assert calls() == [(p1, os.getpid())]
            _assert_no_child_left()
            assert get_threads() == 2
    finally:
        set_threads(before)


def test_a_disagreeing_prime_above_the_gate_raises(monkeypatch, tmp_path):
    _pair_or_skip()
    monkeypatch.setattr(_kernels, "_CONCURRENT_ENTRIES", 0)
    calls = _spy_ranks(monkeypatch, tmp_path)
    with pytest.raises(FieldDisagreement):
        LinearEngine(FieldConfig.prime_pair(5, 7)).rank_coo(_coo([[5]]), "bad-rank")
    assert {pid != os.getpid() for _, pid in calls()} == {False, True}


def test_no_child_process_outlives_a_pair(monkeypatch, tmp_path):
    _pair_or_skip()
    monkeypatch.setattr(_kernels, "_CONCURRENT_ENTRIES", 0)
    p1, p2 = FieldConfig.prime_pair().primes
    for fail_on in (None, p2, p1):
        calls = _spy_ranks(monkeypatch, tmp_path, fail_on, None if fail_on is None else Boom())
        if fail_on is None:
            assert LinearEngine(FieldConfig.prime_pair()).rank_coo(_coo([[1, 2], [3, 4]]), "pair") == 2
        else:
            with pytest.raises(Boom):
                LinearEngine(FieldConfig.prime_pair()).rank_coo(_coo([[1, 2], [3, 4]]), "pair")
        assert (p1, os.getpid()) in calls()
        _assert_no_child_left()


def test_a_child_that_exits_without_a_result_is_inconsistent(monkeypatch):
    _pair_or_skip()
    monkeypatch.setattr(_kernels, "_CONCURRENT_ENTRIES", 0)
    parent = os.getpid()

    def dies_in_child(A, p):
        if os.getpid() != parent:
            os._exit(3)
        return _RANK_MOD(A, p)

    monkeypatch.setattr(_kernels, "rank_mod", dies_in_child)
    with pytest.raises(InconsistentResult, match="exit status 3"):
        LinearEngine(FieldConfig.prime_pair()).rank_coo(_coo([[1, 2], [3, 4]]), "dies")
    _assert_no_child_left()


@pytest.mark.parametrize("unpicklable", ["dumps", "loads"])
def test_an_unpicklable_child_exception_is_inconsistent(monkeypatch, unpicklable):
    _pair_or_skip()
    monkeypatch.setattr(_kernels, "_CONCURRENT_ENTRIES", 0)
    parent = os.getpid()

    def raises_in_child(A, p):
        if os.getpid() != parent:
            if unpicklable == "dumps":
                exc = Boom("holds a lambda")
                exc.hook = lambda: None
                raise exc
            raise NeedsTwoArguments(1, 2)
        return _RANK_MOD(A, p)

    monkeypatch.setattr(_kernels, "rank_mod", raises_in_child)
    name = "Boom" if unpicklable == "dumps" else "NeedsTwoArguments"
    with pytest.raises(InconsistentResult, match=f"raised {name}, which does not pickle"):
        LinearEngine(FieldConfig.prime_pair()).rank_coo(_coo([[1, 2], [3, 4]]), "unpicklable")
    _assert_no_child_left()


def test_a_pair_ranks_in_turn_while_another_thread_runs(monkeypatch, tmp_path):
    import threading

    _pair_or_skip()
    monkeypatch.setattr(_kernels, "_CONCURRENT_ENTRIES", 0)
    calls = _spy_ranks(monkeypatch, tmp_path)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert LinearEngine(FieldConfig.prime_pair()).rank_coo(_coo([[1, 2], [3, 4]]), "threaded") == 2
    finally:
        release.set()
        other.join()
    assert sorted(calls()) == sorted((p, os.getpid()) for p in FieldConfig.prime_pair().primes)


def test_buffered_output_is_written_once_across_a_pair():
    import subprocess
    import sys
    from pathlib import Path

    import nodalcert

    _pair_or_skip()
    code = (
        "import numpy as np\n"
        "from nodalcert import _kernels, linalg\n"
        "from nodalcert.assembly import IntCOO\n"
        "from nodalcert.field import FieldConfig\n"
        "_kernels._CONCURRENT_ENTRIES = 0\n"
        "print('at once' if linalg._can_rank_at_once() else 'in turn')\n"
        "coo = IntCOO((2, 2), rows=np.array([0, 0, 1, 1]), cols=np.array([0, 1, 0, 1]), vals=np.array([1, 2, 3, 4]))\n"
        "print(linalg.LinearEngine(FieldConfig.prime_pair()).rank_coo(coo, 'pair'))\n"
    )
    # a pipe and no PYTHONUNBUFFERED: the first line stays in the buffer the child inherits
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(nodalcert.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.splitlines() == ["at once", "2"]


def test_importing_the_library_starts_no_thread():
    import subprocess
    import sys

    code = "import threading, nodalcert; print(threading.active_count())"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["1"]


def _rank_in_child(queue):
    rank = LinearEngine(FieldConfig.prime_pair()).rank_coo(_coo([[1, 2], [2, 4]]), "child")
    queue.put((rank, os.getpid()))


def test_a_forked_child_ranks_a_pair_after_the_parent_did(monkeypatch, tmp_path):
    import multiprocessing

    _pair_or_skip()
    monkeypatch.setattr(_kernels, "_CONCURRENT_ENTRIES", 0)
    calls = _spy_ranks(monkeypatch, tmp_path)
    assert LinearEngine(FieldConfig.prime_pair()).rank_coo(_coo([[1, 2], [3, 4]]), "parent") == 2
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_rank_in_child, args=(queue,))
    child.start()
    child.join(60)
    if child.is_alive():
        child.kill()
    assert child.exitcode == 0
    rank, child_pid = queue.get(timeout=1)
    assert rank == 1
    p1, p2 = FieldConfig.prime_pair().primes
    # the child ranked its pair as the parent did: p1 itself, p2 in a pid of its own
    by_prime = {}
    for p, pid in calls():
        by_prime.setdefault(p, []).append(pid)
    assert by_prime[p1][1] == child_pid
    assert by_prime[p2][1] not in (os.getpid(), child_pid)


def _pipeline_job(ctx, points):
    """A full job of perfbench's n3-pipeline kind on a surface: certify,
    the pairing, the Koszul dims, the relation degree, the variable
    multiplication kernels, the Hodge dims, the saturation and the period
    differential (the pairing and the latter two where the degree allows)."""
    import nodalcert as nc

    n, d = ctx.n, ctx.d
    assert nc.certify_nodal(ctx, points).verdict == f"Nodal({len(points)})"
    if d >= n + 1:
        assert nc.pairing_injective(ctx)
    assert not any(nc.koszul_cohomology_dim(ctx, m) for m in range((n * d - 1) // 2 + 1))
    assert nc.coincidence_threshold(ctx) == nc.min_relation_degree(ctx) + d - 2
    assert not any(nc.variable_multiplication_kernel(ctx, t).dim for t in range(max(0, 2 * d - n - 1)))
    nc.hodge_graded_dims(ctx)
    k = 2 * d - 4
    assert nc.saturation_graded(ctx, k).dim == nc.ideal_of_points_dim(ctx, points, k)
    if d >= n + 1:
        V = [nc.HomogeneousPolynomial.monomial(n, e) for e in nc.quotient_basis(ctx, d)]
        assert nc.period_differential(ctx, V).injective


@pytest.mark.parametrize("mode", ["two-prime", "exact"])
def test_a_full_job_reduces_each_label_at_most_once(roster, mode, monkeypatch):
    from collections import Counter

    from nodalcert.fixtures import one_node
    from nodalcert.milnor import JacobianContext

    settled = Counter()
    real = LinearEngine._settle

    def spy(self, what, label, shape, results):
        if what == "pivot columns":
            settled[label] += 1
        return real(self, what, label, shape, results)

    monkeypatch.setattr(LinearEngine, "_settle", spy)
    if mode == "exact":
        fx = one_node(3, 3, 1)
        _pipeline_job(JacobianContext(fx.f, FieldConfig.exact()), fx.points)
    else:
        _pipeline_job(JacobianContext(roster.fixture("A").f, FieldConfig.prime_pair()), roster.fixture("A").points)
    assert settled and {label: count for label, count in settled.items() if count > 1} == {}


@pytest.mark.parametrize("which", ["A", "C", "exact"])
def test_no_derived_label_is_eliminated_again(roster, which, monkeypatch):
    import nodalcert as nc
    from nodalcert.fixtures import one_node
    from nodalcert.milnor import JacobianContext

    derived, again, ran = set(), [], []
    real_run, real_derived = LinearEngine._run, LinearEngine.derived_rank

    def run(self, label, shape, step):
        ran.append(label)
        if label in derived:
            again.append(label)
        return real_run(self, label, shape, step)

    def derived_rank(self, label, shape, step):
        derived.add(label)
        return real_derived(self, label, shape, step)

    monkeypatch.setattr(LinearEngine, "_run", run)
    monkeypatch.setattr(LinearEngine, "derived_rank", derived_rank)
    if which == "exact":
        fx, field = one_node(3, 3, 1), FieldConfig.exact()
    else:
        fx, field = roster.fixture(which), FieldConfig.prime_pair()
    ctx = JacobianContext(fx.f, field)
    _pipeline_job(ctx, fx.points)
    # certify derived socle + 1, which the saturation's colon step reads
    assert f"jacobian/{ctx.socle + 1}" in derived
    assert again == []
    # a basis past the socle is a view of the held or derived table: nothing is eliminated
    ran.clear()
    nc.saturation_graded(ctx, ctx.socle + 1)
    nc.quotient_basis(ctx, ctx.socle + 1)
    ctx.jacobian_basis(ctx.socle + 2)
    assert ran == []
