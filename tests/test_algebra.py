"""The per-run algebra context: memoized operators, the level guard, and
one build of each operator per CLI run."""

import collections
import itertools
import json
import sys
import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import hecke, qccr, qij, rotated, twisted_flip
from wickfock import cli, coxeter, model, spectral, tensorops
from wickfock.algebra import MAX_LEVEL_BYTES, Algebra, check_level


def walk_total(T: model.TensorOperator, n: int) -> model.TensorOperator:
    """P(S_{n+1}) as the sum of the buckets of one walk."""
    return model.TensorOperator(T.d, n + 1, sum(coxeter.descent_sums(T, n)))


def relative_gap(op, reference: np.ndarray) -> float:
    """||op - reference|| relative to the norm of the reference."""
    return tensorops.op_norm(op.mat - reference) / max(1.0, tensorops.op_norm(reference))


def test_memoized_operators_equal_the_builders_bit_for_bit():
    # the blocked builds against the dense references in tests/oracles.py:
    # within 1e-12 of the operator's norm when T is weight-preserving (the
    # gather adds the same products in another order), bit for bit when it
    # is not (one dense block, the same operations)
    for spec in (qccr(2, 0.5), qij(-1.0), twisted_flip(3, seed=4), rotated(hecke(2, 0.6), 1)):
        alg = Algebra(spec)
        T = model.build_T(spec)
        assert np.array_equal(alg.T.mat, T.mat)
        pairs = []
        for n in range(0, 5):
            pairs += [(alg.R, oracles.build_R, n), (alg.P, oracles.build_P, n)]
        for n in range(1, 4):
            pairs += [(alg.U, oracles.build_U, n), (alg.group_sum, walk_total, n)]
        for method, builder, n in pairs:
            first = method(n)
            reference = builder(T, n).mat
            if alg.weight:
                assert relative_gap(first, reference) <= 1e-12, (spec.source, builder.__name__, n)
            else:
                assert np.array_equal(first.mat, reference), (spec.source, builder.__name__, n)
            assert method(n) is first
            assert not first.mat.flags.writeable
            assert not any(m.flags.writeable for m in first.mats)
            with pytest.raises(ValueError):
                first.mat[0, 0] = 7.0
        assert not alg.T.mat.flags.writeable


def test_kernel_is_memoized_per_rank_tolerance():
    alg = Algebra(qccr(2, 1.0))
    K = alg.ker_P(3, 1e-8)
    assert alg.ker_P(3, 1e-8) is K
    assert not any(m.flags.writeable for m in K.parts.mats)
    assert np.array_equal(oracles.dense_basis(K), oracles.dense_basis(spectral.kernel(alg.P(3), 1e-8)))
    reference = oracles.kernel_projector(oracles.build_P(alg.T, 3).mat, 1e-8)
    assert tensorops.op_norm(K.projector().mat - reference) <= 1e-12
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
    assert np.array_equal(walk.sum([0, 2, 5]).mat, walk[0] + walk[2] + walk[5])
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
    # with weight blocks the guard is on the largest block, the multinomial
    # of the most even letter content: 560 words at d=3 level 8, 3,432 = C(14, 7)
    # at d=2 level 14
    check_level(3, 8, weight=True)
    check_level(5, 5, weight=True)  # 120 words; the dense matrix would be 156 MB
    with pytest.raises(ValueError, match=f"one block of 3432 words at level 14, d=2 needs {16 * 3432**2} bytes"):
        check_level(2, 14, weight=True)
    check_level(1, 10**9, weight=True)
    with pytest.raises(ValueError, match="over the"):
        check_level(2, 10**9, weight=True)
    # and on what the blocks of one operator hold together, 256 bytes a
    # packed entry: 17,319,837 entries at d=3 level 9, about 9.7e12 at d=50
    # level 6, where every block has at most 720 words
    for d, level, entries in ((3, 9, 17319837), (10, 6, 329009500), (50, 6, 9669367129500)):
        with pytest.raises(ValueError, match=f"hold {entries} entries per operator; building them needs "
                           f"[0-9]+ bytes or more, over the {tensorops.MAX_BUILD_BYTES} byte guard"):
            check_level(d, level, weight=True)
    check_level(2, 12, weight=True)  # 2,704,156 entries
    # the Algebra refuses before it allocates: at d=3 level 8 each dense
    # matrix is 689 MB, and at d=2 level 14 the largest weight block is 188 MB
    for alg, level in ((Algebra(rotated(qccr(3, 0.5), 1)), 8), (Algebra(qccr(2, 0.5)), 14)):
        for build in (alg.R, alg.P, alg.group_sum, lambda n: alg.ker_P(n, 1e-8)):
            with pytest.raises(ValueError, match="byte guard"):
                build(level)
        with pytest.raises(ValueError, match="byte guard"):
            alg.U(level - 1)
    assert max(map(len, Algebra(qccr(3, 0.5)).layout(8))) == 560


def test_build_guard_counts_the_packed_entries():
    # the closed form against a count over the words: each weight space of
    # k words contributes k^2 entries
    for d, level in ((1, 4), (2, 5), (3, 4), (4, 3)):
        contents = collections.Counter(tuple(sorted(w)) for w in itertools.product(range(d), repeat=level))
        assert tensorops._packed_size(d, level) == sum(k * k for k in contents.values()), (d, level)


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
    build_P = []  # the level of each (1 (x) P_{n-1}) R_n, the step that builds P_n
    tensor = Algebra.apply_tensor

    def counted(self, op, A, last=False):
        if A is self._memo.get(("R", A.level)):
            build_P.append(A.level)
        return tensor(self, op, A, last)

    monkeypatch.setattr(Algebra, "apply_tensor", counted)
    walks = _count_calls(monkeypatch, coxeter.descent_sums)
    braids = _count_calls(monkeypatch, tensorops.braid_residual)
    out = tmp_path / "report.json"
    assert cli.main(["full", "--spec", str(path), "--n-max", "4", "--out", str(out)]) == 0
    assert len(build_T) == 1
    assert build_P and max(collections.Counter(build_P).values()) == 1, build_P
    assert sorted(walks) == [1, 2, 3]
    assert len(braids) == 1 + len(walks)  # the Algebra's hypothesis, and each walk's gate
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
    # d=3, rank 4: the walk, P_5, U_4 and every operand are kept in weight
    # blocks of 4,653 entries; 3.01 dense 243 x 243 matrices were measured at
    # the peak, the walk's 16 buckets 1.26 of them
    alg = Algebra(qccr(3, 0.5))
    assert peak_bytes(lambda: coxeter.coxeter_checks(alg, 4)) < 4 * 16 * 243**2
