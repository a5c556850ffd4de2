"""The multi-field linear engine: rank/echelon/kernel agreement across
field realizations, the rank ledger, and quotient-coordinate helpers."""

from fractions import Fraction

import numpy as np
import pytest

from nodalcert import _kernels
from nodalcert.assembly import IntCOO, exact_rows_to_int_coo
from nodalcert.errors import FieldDisagreement, InconsistentResult
from nodalcert.field import FieldConfig
from nodalcert.linalg import (
    AmbientSpace,
    LinearEngine,
    RankRecord,
    membership,
    quotient_coordinates,
    reduce_against_basis,
)


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


def test_echelon_and_kernel_are_consistent(engine):
    coo = _coo([[1, 1, 0, 0], [0, 0, 1, 1], [1, 1, 1, 1]])
    amb = AmbientSpace.abstract(4)
    basis = engine.echelon_coo(coo, amb, "span")
    assert basis.dim == 2
    ker = engine.kernel_coo(coo.transposed(), AmbientSpace.abstract(3), "ker")
    # rank-nullity for the transpose acting on 3-space
    assert ker.ambient.dim == 3
    assert ker.dim == 3 - 2


def test_membership_and_quotient_coordinates(engine):
    rows = [[Fraction(1), Fraction(0), Fraction(2)], [Fraction(0), Fraction(1), Fraction(1)]]
    coo = exact_rows_to_int_coo(rows, 3)
    basis = engine.echelon_coo(coo, AmbientSpace.abstract(3), "basis")
    inside = [Fraction(2), Fraction(3), Fraction(7)]
    outside = [Fraction(0), Fraction(0), Fraction(1)]
    mixed = [Fraction(1), Fraction(1), Fraction(0)]  # (1, 0, 2) + (0, 1, 1) - 3 e_2
    assert membership(basis, inside)
    assert not membership(basis, outside)
    assert not membership(basis, mixed)
    for F in engine.field.realizations:
        assert np.array_equal(reduce_against_basis(basis, outside)[F.key], F.convert([0, 0, 1]))
        assert np.array_equal(reduce_against_basis(basis, mixed)[F.key], F.convert([0, 0, -3]))
        assert np.array_equal(quotient_coordinates(basis, inside)[F.key], F.convert([0]))
        assert np.array_equal(quotient_coordinates(basis, mixed)[F.key], F.convert([-3]))


def test_two_prime_rank_disagreement_is_detected():
    engine = LinearEngine(FieldConfig.prime_pair(5, 7))
    with pytest.raises(FieldDisagreement):
        engine.rank_coo(_coo([[5]]), "bad-rank")


def test_two_prime_pivot_disagreement_is_detected():
    engine = LinearEngine(FieldConfig.prime_pair(5, 7))
    with pytest.raises(FieldDisagreement):
        engine.echelon_coo(_coo([[5, 1]]), AmbientSpace.abstract(2), "bad-pivots")


def test_two_prime_and_exact_agree_on_random_input():
    rng = np.random.default_rng(17)
    arr = (rng.integers(-9, 10, size=(12, 10)) * rng.integers(0, 2, size=(12, 10))).astype(np.int64)
    coo = _coo(arr)
    r1 = LinearEngine(FieldConfig.prime_pair()).rank_coo(coo, "x")
    r2 = LinearEngine(FieldConfig.exact()).rank_coo(coo, "x")
    assert r1 == r2


def test_ambient_space_constructors():
    g = AmbientSpace.graded(3, 2)
    assert g.dim == 10
    s = AmbientSpace.graded_sum(3, 2, 4)
    assert s.dim == 40
    assert AmbientSpace.abstract(7).dim == 7


_RANK_MOD = _kernels.rank_mod


def _pair_or_skip():
    from nodalcert import linalg

    if not linalg._can_rank_at_once():
        pytest.skip("the pair runs in turn here: fewer than two cores or no OpenBLAS thread control")


def _spy_ranks(monkeypatch, fail_on=None, error=None):
    """Record (prime, thread name) of every prime-field rank, raising
    ``error`` in the rank modulo ``fail_on`` once it is recorded. With an
    error to raise, a rank in the worker thread takes 0.2 s longer, so it
    ends last."""
    import threading
    import time

    calls = []

    def spy(A, p):
        result = _RANK_MOD(A, p)
        if error is not None and threading.current_thread() is not threading.main_thread():
            time.sleep(0.2)
        calls.append((p, threading.current_thread().name))
        if p == fail_on:
            raise error
        return result

    monkeypatch.setattr(_kernels, "rank_mod", spy)
    return calls


def _jacobian_ledger(gate, monkeypatch):
    from nodalcert.fixtures import one_node
    from nodalcert.milnor import JacobianContext

    monkeypatch.setattr(_kernels, "_CONCURRENT_ENTRIES", gate)
    ctx = JacobianContext(one_node(3, 4, 1).f)
    for k in range(3, 11):
        ctx.jacobian_dim(k, force_generic=True)
    ctx.jacobian_basis(6)
    return list(ctx.engine.rank_ledger.items())


def test_a_rank_above_the_gate_records_the_ledger_of_the_primes_in_turn(monkeypatch):
    _pair_or_skip()
    calls = _spy_ranks(monkeypatch)
    in_turn = _jacobian_ledger(10**12, monkeypatch)
    assert all(name == "MainThread" for _, name in calls)
    del calls[:]
    at_once = _jacobian_ledger(0, monkeypatch)
    assert at_once == in_turn
    p1, p2 = FieldConfig.prime_pair().primes
    assert {(p, name.startswith("nodalcert-rank")) for p, name in calls} == {(p1, False), (p2, True)}


def test_a_pair_leaves_no_thread_behind(monkeypatch):
    import threading

    _pair_or_skip()
    monkeypatch.setattr(_kernels, "_CONCURRENT_ENTRIES", 0)
    calls = _spy_ranks(monkeypatch)
    before = threading.active_count()
    assert LinearEngine(FieldConfig.prime_pair()).rank_coo(_coo([[1, 2], [3, 4]]), "pair") == 2
    assert {name.startswith("nodalcert-rank") for _, name in calls} == {False, True}
    assert threading.active_count() == before
    assert not [t for t in threading.enumerate() if t.name.startswith("nodalcert-rank")]


def test_an_exception_of_either_prime_propagates_with_its_type(monkeypatch):
    _pair_or_skip()
    get_threads, set_threads = _kernels.openblas_threads()
    monkeypatch.setattr(_kernels, "_CONCURRENT_ENTRIES", 0)
    p1, p2 = FieldConfig.prime_pair().primes

    class Boom(Exception):
        pass

    before = set_threads(2)
    try:
        for fail_on in (p2, p1):
            calls = _spy_ranks(monkeypatch, fail_on, Boom())
            with pytest.raises(Boom):
                LinearEngine(FieldConfig.prime_pair()).rank_coo(_coo([[1, 2], [3, 4]]), "boom")
            # the other prime's rank finished before the exception left the engine
            assert sorted(p for p, _ in calls) == sorted([p1, p2])
            assert get_threads() == 2
    finally:
        set_threads(before)


def test_a_disagreeing_prime_above_the_gate_raises(monkeypatch):
    _pair_or_skip()
    monkeypatch.setattr(_kernels, "_CONCURRENT_ENTRIES", 0)
    calls = _spy_ranks(monkeypatch)
    with pytest.raises(FieldDisagreement):
        LinearEngine(FieldConfig.prime_pair(5, 7)).rank_coo(_coo([[5]]), "bad-rank")
    assert {name.startswith("nodalcert-rank") for _, name in calls} == {False, True}


def test_importing_the_library_starts_no_thread():
    import subprocess
    import sys

    code = "import threading, nodalcert; print(threading.active_count())"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["1"]


def _rank_in_child(queue):
    queue.put(LinearEngine(FieldConfig.prime_pair()).rank_coo(_coo([[1, 2], [2, 4]]), "child"))


def test_a_forked_child_ranks_a_pair_after_the_parent_did(monkeypatch):
    import multiprocessing

    _pair_or_skip()
    monkeypatch.setattr(_kernels, "_CONCURRENT_ENTRIES", 0)
    assert LinearEngine(FieldConfig.prime_pair()).rank_coo(_coo([[1, 2], [3, 4]]), "parent") == 2
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_rank_in_child, args=(queue,))
    child.start()
    child.join(60)
    if child.is_alive():
        child.kill()
    assert child.exitcode == 0 and queue.get(timeout=1) == 1
