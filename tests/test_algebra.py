"""The per-run algebra context: memoized operators, the level guard, and
one build of each operator per CLI run."""

import collections
import json
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import qccr, qij, twisted_flip
from wickfock import cli, coxeter, model, spectral, tensorops
from wickfock.algebra import MAX_LEVEL_BYTES, Algebra, check_level


def walk_total(T: model.TensorOperator, n: int) -> model.TensorOperator:
    """P(S_{n+1}) as the sum of the buckets of one walk."""
    return model.TensorOperator(T.d, n + 1, sum(coxeter.descent_sums(T, n)))


def test_memoized_operators_equal_the_builders_bit_for_bit():
    for spec in (qccr(2, 0.5), qij(-1.0), twisted_flip(3, seed=4)):
        alg = Algebra(spec)
        T = model.build_T(spec)
        assert np.array_equal(alg.T.mat, T.mat)
        pairs = []
        for n in range(0, 5):
            pairs += [(alg.R, tensorops.build_R, n), (alg.P, tensorops.build_P, n)]
        for n in range(1, 4):
            pairs += [(alg.U, tensorops.build_U, n), (alg.group_sum, walk_total, n)]
        for method, builder, n in pairs:
            first = method(n)
            assert np.array_equal(first.mat, builder(T, n).mat), (spec.source, builder.__name__, n)
            assert method(n) is first
            assert not first.mat.flags.writeable
            with pytest.raises(ValueError):
                first.mat[0, 0] = 7.0
        assert not alg.T.mat.flags.writeable


def test_kernel_is_memoized_per_rank_tolerance():
    alg = Algebra(qccr(2, 1.0))
    K = alg.ker_P(3, 1e-8)
    assert alg.ker_P(3, 1e-8) is K
    assert not K.basis.flags.writeable
    assert np.array_equal(K.basis, spectral.kernel(tensorops.build_P(alg.T, 3), 1e-8).basis)
    assert alg.ker_P(3, 1e-6) is not K


def test_walk_leaves_its_total_as_the_group_sum():
    alg = Algebra(qccr(2, 0.5))
    walk = alg.descent_sums(3)
    assert alg.descent_sums(3) is walk
    for array in (walk.buckets, *walk.blocks):
        assert not array.flags.writeable
    with pytest.raises(ValueError):
        walk.buckets[0, 0] = 7.0
    # sums added within the layout and placed once equal the sums of the
    # placed buckets bit for bit
    assert np.array_equal(alg.group_sum(3).mat, sum(walk))
    assert np.array_equal(walk.sum([0, 2, 5]), walk[0] + walk[2] + walk[5])
    rep = coxeter.coxeter_checks(alg, 2)
    assert rep["group_sum"] <= 1e-10
    assert np.array_equal(alg.group_sum(2).mat, sum(coxeter.descent_sums(alg.T, 2)))


def test_level_guard():
    # one dense complex matrix at level L holds d^(2L) entries of 16 bytes
    assert MAX_LEVEL_BYTES == 128 * 1024**2
    check_level(3, 7)  # 76 MB
    check_level(2, 11)  # 64 MiB
    check_level(1, 10**9)
    for d, level in ((3, 8), (2, 12)):
        need = 16 * d ** (2 * level)
        with pytest.raises(ValueError, match=f"needs {need} bytes or more, over the {MAX_LEVEL_BYTES} byte guard"):
            check_level(d, level)
    with pytest.raises(ValueError, match="over the"):
        check_level(2, 10**9)
    # the Algebra refuses before it allocates: at d=3 level 8 each matrix is 689 MB
    alg = Algebra(qccr(3, 0.5))
    for build in (alg.R, alg.P, alg.group_sum, lambda n: alg.ker_P(n, 1e-8)):
        with pytest.raises(ValueError, match="byte guard"):
            build(8)
    with pytest.raises(ValueError, match="byte guard"):
        alg.U(7)  # level 8


def _count_calls(monkeypatch, fn):
    """Wrap fn in every wickfock namespace that binds it; return the list
    of the second positional argument of each call."""
    seen = []

    def counted(*args, **kwargs):
        seen.append(args[1] if len(args) > 1 else None)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "wickfock" or name.startswith("wickfock."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return seen


def test_full_run_builds_each_operator_once(monkeypatch, tmp_path):
    path = tmp_path / "qccr_d3.json"
    path.write_text(json.dumps({"d": 3, "preset": {"name": "q-ccr", "q": 0.5}}))
    build_T = _count_calls(monkeypatch, model.build_T)
    build_P = _count_calls(monkeypatch, tensorops.build_P)
    walks = _count_calls(monkeypatch, coxeter.descent_sums)
    out = tmp_path / "report.json"
    assert cli.main(["full", "--spec", str(path), "--n-max", "4", "--out", str(out)]) == 0
    assert len(build_T) == 1
    assert build_P and max(collections.Counter(build_P).values()) == 1, build_P
    assert sorted(walks) == [1, 2, 3]
    # the Coxeter suites run first, but their records keep their place
    per_rank = [
        ["group_sum_agreement"] + ["factorization_DJ_WJ"] * 2**n
        + ["euler_solomon", "phi_longest_vs_U", "un_laws", "telescoping", "kernel_1mU2"]
        for n in (1, 2, 3)
    ]
    expected = (
        ["hermiticity", "operator_norm", "braid"]
        + ["pn_spectrum", "pn_spectrum", "pn_method_agreement"] * 3
        + ["kernel_theorem"] * 3
        + ["positivity"] * 3
        + [name for names in per_rank for name in names]
        + ["wick_ideal"] * 3
        + ["fock_relations", "rewrite_fock_agreement"]
    )
    assert [c["name"] for c in json.loads(out.read_text())["checks"]] == expected


def test_each_rank_is_walked_once_whatever_asks_first(monkeypatch):
    walks = _count_calls(monkeypatch, coxeter.descent_sums)
    for order in ("pn first", "coxeter first"):
        alg, checks = Algebra(qccr(2, 0.5)), cli._Checks()
        suites = [lambda: cli._suite_pn(alg, checks, 4, "both", 1e-8),
                  lambda: cli._suite_coxeter(alg, checks, 3, 1e-8)]
        for suite in suites if order == "pn first" else suites[::-1]:
            suite()
        assert walks == [3], order
        assert checks.overall == "pass"
        walks.clear()


def peak_bytes(run) -> int:
    """The peak of the memory numpy and Python allocate while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_group_sum_memory_stays_near_the_packed_walk():
    # d=2, rank 6: the held walk is 64 buckets of 3,432 entries, about 13.4
    # dense 128 x 128 matrices; scattering every bucket densely took 64 more
    alg = Algebra(qccr(2, 0.5))
    assert peak_bytes(lambda: alg.group_sum(6)) < 24 * 16 * 128**2


def test_coxeter_checks_place_one_sum_at_a_time():
    # d=3, rank 4: beside P_5, U_4, the group sum and a few working matrices
    # of 243 x 243, not 16 dense buckets
    alg = Algebra(qccr(3, 0.5))
    assert peak_bytes(lambda: coxeter.coxeter_checks(alg, 4)) < 16 * 16 * 243**2
