"""The per-run algebra context: memoized operators, the level guard, and
one build of each operator per CLI run."""

import collections
import gc
import itertools
import json
import math
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import braided_families, example3, hecke, qccr, qij, rotated, twisted_flip, walk_buckets
from wickfock import cli, coxeter, model, spectral, tensorops
from wickfock.algebra import MAX_LEVEL_BYTES, Algebra, check_level


def walk_total(alg: Algebra, n: int) -> np.ndarray:
    """P(S_{n+1}) as the sum of the buckets of the walk over descent
    classes, each bucket placed densely."""
    return sum(bucket.mat for bucket in walk_buckets(alg, n))


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
            pairs += [(alg.U, oracles.build_U, n), (alg.group_sum, oracles.build_group_sum, n)]
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


def test_every_operator_the_algebra_returns_is_read_only():
    # the word arrays are frozen once, where the layout makes them, and
    # every operator shares the one Layout the Algebra holds for its level;
    # each operator freezes its own matrices
    for spec in (qccr(3, 0.5), rotated(hecke(2, 0.6), 1)):
        alg = Algebra(spec)
        ops = [alg.T, alg.R(4), alg.P(4), alg.U(3), alg.word((2, 1), 3), alg.group_sum(3),
               walk_buckets(alg, 2)[3], alg.ker_P(4, 1e-8).parts,
               alg.ker_P(4, 1e-8).projector(), spectral.ideal_complement(alg, 4).parts,
               alg.apply_tensor(alg.P(3), alg.R(4), last=True), alg.R(1), alg.P(0), alg.word((), 2)]
        for op in ops:
            assert op.layout is alg.layout(op.level), spec.source
            assert not any(w.flags.writeable for w in op.words), spec.source
            assert not any(m.flags.writeable for m in op.mats), spec.source
            with pytest.raises(ValueError):
                op.words[0][0] = 1


def test_weight_is_decided_from_the_coefficients_as_the_dense_scan():
    # the Algebra reads the coefficient map, the reference every entry of the
    # dense T; both are exact, so a crossing coefficient of 1e-300, alone
    # (its hermitian partner is within the 1e-12 tolerance of absent), is
    # not dropped, and one of zero crosses nothing.  The blocks of T place
    # every coefficient where the dense T does
    specs = [qccr(d, q) for d in (1, 2, 3) for q in (0.0, 0.5, -1.0)]
    specs += [qij(lam) for lam in (-1.0, 1.0)] + [example3(d, q) for d in (1, 2, 3) for q in (0.0, 0.5)]
    specs.append(model.preset("qij-ccr", 3, qs=[0.5, 0.3, 0.7], lam=[[1, -1, 1], [-1, 1, -1], [1, -1, 1]]))
    specs += [model.load_spec_file(str(path)) for path in sorted(Path(__file__).resolve().parents[1].glob("specs/*.json"))]
    flip = [{"i": 1, "j": 2, "k": 1, "l": 2, "re": 0.5}, {"i": 2, "j": 1, "k": 2, "l": 1, "re": 0.5}]
    specs += [model.load_spec({"d": 2, "coefficients": flip + [{"i": 1, "j": j, "k": 1, "l": l, "re": value}]})
              for j, l, value in ((2, 1, 0.0), (1, 2, 1e-300))]
    specs += [rotated(hecke(2, 0.6), 1), rotated(hecke(3, 0.6), 2)]
    decided = []
    for spec in specs:
        alg, dense = Algebra(spec), model.build_T(spec)
        assert alg.weight == oracles.weight_preserving(dense), spec.source
        assert np.array_equal(alg.T.mat, dense.mat), spec.source
        decided.append(alg.weight)
    assert decided[-4:] == [True, False, False, False] and decided.count(False) == 3


def test_P_builds_its_levels_bottom_up():
    # P_n once recursed through P_{n-1}, one frame per level, so
    # `pn --n 330 --method recursive` at d=1 ended in a RecursionError
    q = 0.5
    q_factorial = math.prod(sum(q**j for j in range(k)) for k in range(1, 401))  # [400]_q!
    assert Algebra(qccr(1, q)).P(400).mats[0].item() == pytest.approx(q_factorial, rel=1e-12)


def test_P_keeps_no_R_it_built_and_reads_a_kept_one():
    # P_m = (1 (x) P_{m-1}) R_m reads each R_m once: after P(6) no R_m is
    # held, while R(n) asked for directly is kept and read by the P step
    alg = Algebra(qccr(2, 0.5))
    alg.P(6)
    assert not [key for key in alg._memo if key[0] == "R"]
    assert all(("P", m) in alg._memo for m in range(2, 7))
    alg = Algebra(qccr(2, 0.5))
    R3 = alg.R(3)
    assert alg.R(3) is R3
    read = []
    tensor = alg.apply_tensor
    alg.apply_tensor = lambda op, A, last=False: read.append(A) or tensor(op, A, last)
    alg.P(4)
    assert read[1] is R3 and alg.R(3) is R3 and ("R", 4) not in alg._memo
    reference = oracles.build_P(model.build_T(alg.spec), 4).mat
    assert relative_gap(alg.P(4), reference) <= 1e-12


def test_kernel_is_memoized_per_rank_tolerance():
    alg = Algebra(qccr(2, 1.0))
    K = alg.ker_P(3, 1e-8)
    assert alg.ker_P(3, 1e-8) is K
    assert not any(m.flags.writeable for m in K.parts.mats)
    assert np.array_equal(oracles.dense_basis(K), oracles.dense_basis(spectral.kernel(alg.P(3), 1e-8)))
    reference = oracles.kernel_projector(oracles.build_P(alg.T, 3).mat, 1e-8)
    assert tensorops.op_norm(K.projector().mat - reference) <= 1e-12
    assert alg.ker_P(3, 1e-6) is not K


def test_each_walk_is_a_fresh_array_in_the_layout_of_its_level():
    # the Algebra keeps no walk: each call walks afresh, one row per bucket
    # in the packed format of the one layout the Algebra holds for the level
    alg = Algebra(qccr(2, 0.5))
    buckets = coxeter.descent_sums(alg, 3)
    assert buckets.shape == (8, alg.layout(4).size)
    assert not [key for key in alg._memo if key[0] == "walk"]
    again = coxeter.descent_sums(alg, 3)
    assert again is not buckets and np.array_equal(again, buckets)


@pytest.mark.parametrize("rotate, d, max_rank", [(False, 2, 6), (False, 3, 4), (True, 2, 6)])
@given(data=st.data())
def test_group_sum_matches_the_walk_total(rotate, d, max_rank, data):
    # the right-coset product against the walk's buckets, which add the same
    # phi(w) grouped by descent class; a rotated T is one dense block
    spec = data.draw(braided_families(d))
    alg = Algebra(rotated(spec, 1) if rotate else spec)
    assert alg.weight is not rotate
    for n in range(1, max_rank + 1):
        assert relative_gap(alg.group_sum(n), walk_total(alg, n)) <= 1e-12, (spec.source, n)


def test_group_sum_steps_each_chain_term_once_and_walks_nothing(monkeypatch):
    # rank 6: the chains T_m, T_m T_{m-1}, ..., T_m ... T_1 for m = 1..6 take
    # n(n+1)/2 = 21 slot steps, against 321 for the walk over descent
    # classes, and no walk is built or kept
    steps = []
    make = coxeter.slot_step

    def counted(M, layout):
        step = make(M, layout)
        return lambda i, X: steps.append(i) or step(i, X)

    monkeypatch.setattr(coxeter, "slot_step", counted)
    for spec in (qccr(2, 0.5), rotated(hecke(2, 0.6), 1)):
        alg = Algebra(spec)
        alg.group_sum(6)
        assert steps == [k for m in range(1, 7) for k in range(m, 0, -1)], spec.source
        assert not any(key[0] == "walk" for key in alg._memo), spec.source
        steps.clear()


def test_level_guard():
    # one dense complex matrix at level L holds d^(2L) entries of 16 bytes
    assert MAX_LEVEL_BYTES == 128 * 1024**2
    check_level(3, 7)  # 76 MB
    check_level(2, 11)  # 64 MiB
    # a fixed guard of 500 levels for every d; below it, past level 32 the
    # byte guards read level 32, a lower bound
    for weight in (False, True):
        check_level(1, 500, weight)
        with pytest.raises(ValueError, match="needs [0-9]+ bytes or more, over the"):
            check_level(2, 500, weight)
        for d in (1, 2):
            with pytest.raises(ValueError, match="level 501 is over the fixed guard of 500 levels"):
                check_level(d, 501, weight)
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
    with pytest.raises(ValueError, match="over the"):
        check_level(2, 10**9, weight=True)
    # and on what the blocks of one operator hold together, 128 bytes a
    # packed entry: 17,319,837 entries at d=3 level 9, 8,848,236 at d=6
    # level 6 (1.06 GiB), about 9.7e12 at d=50 level 6, where every block has
    # at most 720 words
    assert tensorops.PACKED_ENTRY_BYTES == 128
    for d, level, entries in ((3, 9, 17319837), (6, 6, 8848236), (10, 6, 329009500), (50, 6, 9669367129500)):
        with pytest.raises(ValueError, match=f"hold {entries} entries per operator; building them needs "
                           f"[0-9]+ bytes or more, over the {tensorops.MAX_BUILD_BYTES} byte guard"):
            check_level(d, level, weight=True)
    check_level(2, 12, weight=True)  # 2,704,156 entries
    check_level(4, 7, weight=True)  # 4,951,552 entries, 0.59 GiB (1.18 GiB at 256 bytes an entry)
    # the Algebra refuses before it allocates: at d=3 level 8 each dense
    # matrix is 689 MB, and at d=2 level 14 the largest weight block is 188 MB
    for alg, level in ((Algebra(rotated(qccr(3, 0.5), 1)), 8), (Algebra(qccr(2, 0.5)), 14)):
        for build in (alg.R, alg.P, alg.group_sum, lambda n: alg.ker_P(n, 1e-8)):
            with pytest.raises(ValueError, match="byte guard"):
                build(level)
        with pytest.raises(ValueError, match="byte guard"):
            alg.U(level - 1)
    assert max(map(len, Algebra(qccr(3, 0.5)).layout(8).words)) == 560


def test_build_guard_counts_the_packed_entries():
    # the closed form against a count over the words: each weight space of
    # k words contributes k^2 entries
    for d, level in ((1, 4), (2, 5), (3, 4), (4, 3)):
        contents = collections.Counter(tuple(sorted(w)) for w in itertools.product(range(d), repeat=level))
        assert tensorops.packed_size(d, level) == sum(k * k for k in contents.values()), (d, level)


def _count_calls(monkeypatch, fn, key=lambda args: args[1] if len(args) > 1 else None):
    """Wrap fn in every wickfock namespace that binds it; return the list
    of ``key`` of the positional arguments of each call (by default the
    second)."""
    seen = []

    def counted(*args, **kwargs):
        seen.append(key(args))
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
    algebras = []
    init = Algebra.__init__
    monkeypatch.setattr(Algebra, "__init__", lambda self, spec: algebras.append(self) or init(self, spec))
    build_T = _count_calls(monkeypatch, model.build_T)
    T_blocks = _count_calls(monkeypatch, model.T_blocks)
    words = _count_calls(monkeypatch, tensorops.word_product, key=lambda args: (tuple(args[1]), args[2].level))
    # the blocks whose symmetrized eigenvalues are taken
    spectra = _count_calls(monkeypatch, spectral.symmetric_eigenvalues, key=lambda args: args[0])
    built_R = []  # every R_n the Algebra builds, whether it keeps it or not
    make_R = Algebra._R
    monkeypatch.setattr(Algebra, "_R", lambda self, n: built_R.append(make_R(self, n)) or built_R[-1])
    build_P = []  # the level of each (1 (x) P_{n-1}) R_n, the step that builds P_n
    tensor = Algebra.apply_tensor

    def counted(self, op, A, last=False):
        if any(A is R for R in built_R):
            build_P.append(A.level)
        return tensor(self, op, A, last)

    monkeypatch.setattr(Algebra, "apply_tensor", counted)
    walks = _count_calls(monkeypatch, coxeter.descent_sums)
    out = tmp_path / "report.json"
    assert cli.main(["full", "--spec", str(path), "--n-max", "4", "--out", str(out)]) == 0
    [alg] = algebras
    assert build_T == []  # no dense T: the Algebra builds its blocks, once
    assert len(T_blocks) == 1
    assert sorted(build_P) == [2, 3, 4], build_P
    # P_n's step drops the R_n it built; only the levels the Wick-ideal
    # checks (2..4) and the Fock relations (R_1..R_N, N = 3 at d=3) read
    # again are built a second time, and kept
    plan = cli._plan(cli._parser().parse_args(["full", "--spec", str(path), "--n-max", "4"]), 3)
    wick_levels = [entry[3] for entry in plan if entry[0] is cli._suite_wick_ideal]
    [N] = [entry[3] for entry in plan if entry[0] is cli._suite_fock]
    again = {*wick_levels, *range(1, N + 1)}
    rebuilt = collections.Counter(R.level for R in built_R)
    assert all(count == 1 or count == 2 and level in again for level, count in rebuilt.items()), rebuilt
    assert sorted(key[1] for key in alg._memo if key[0] == "R") == sorted(again)
    assert sorted(walks) == [1, 2, 3]
    assert not [key for key in alg._memo if key[0] == "walk"]
    # each word in the T_i is built once: the braid residual reads the
    # Algebra's two words at level 3, U_2 = T_1 T_2 T_1 among them
    built = collections.Counter(words)
    assert built[(1, 2, 1), 3] == built[(2, 1, 2), 3] == 1 and max(built.values()) == 1, built
    # the spectrum of each P_n is taken once, for pn_spectrum and positivity alike
    for n in range(2, 5):
        assert all(sum(m is block for m in spectra) == 1 for block in alg.P(n).mats), n
    # min eig T, which every positivity record reads, one spectrum per block of T
    assert all(sum(m is block for m in spectra) == 1 for block in alg.T.mats)
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
    # pn sums P(S_4) by its right cosets and walks nothing; the Coxeter
    # report walks rank 3 once and drops the walk when it returns
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


def test_coxeter_checks_leave_no_walk_behind(monkeypatch):
    # the walk's one reader is the Coxeter report: once the report returns,
    # nothing holds the walk, in the Algebra or elsewhere
    walks = []
    descent_sums = coxeter.descent_sums

    def watched(alg, n):
        walk = descent_sums(alg, n)
        walks.append(weakref.ref(walk))
        return walk

    monkeypatch.setattr(coxeter, "descent_sums", watched)
    alg = Algebra(qccr(2, 0.5))
    report = coxeter.coxeter_checks(alg, 3)
    gc.collect()
    assert len(walks) == 1 and walks[0]() is None
    assert report["group_sum"] <= 1e-12 and ("group_sum", 3) in alg._memo


def peak_bytes(run) -> int:
    """The peak of the memory numpy and Python allocate while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_group_sum_memory_stays_near_the_packed_walk():
    # d=2, rank 6: a walk held 64 buckets of 3,432 entries, about 13.4
    # dense 128 x 128 matrices, and scattering every bucket densely took 64
    # more; the right-coset sum holds no bucket (0.2 MB at its peak)
    alg = Algebra(qccr(2, 0.5))
    assert peak_bytes(lambda: alg.group_sum(6)) < 24 * 16 * 128**2


def test_group_sum_at_d3_rank_6_holds_a_few_operators():
    # the chain of S_7 keeps the sum, the current term and the next, each
    # 272,835 packed entries of 16 bytes, and no per-entry table: 3.2
    # operators at the peak (17 when slot_step kept the tables of every slot)
    alg = Algebra(qccr(3, 0.5))
    assert peak_bytes(lambda: alg.group_sum(6)) < 4 * 16 * 272835


def test_level_7_builds_hold_a_few_operators():
    # one packed operator at d=3 level 7 holds 272,835 entries of 16 bytes.
    # R_7 adds into one array and steps each slot once, block by block, with
    # no per-entry table: 3.2 operators at the peak (7.5 with per-entry
    # tables and a new array per sum).  The level-7 kernel theorem from P_6
    # keeps R_7 and P_7 and decides ker P_7 and ker S block by block, S
    # scattered from the level-2 Pi: 4.4 operators (10.5 with stacked copies
    # and S stepped from the packed identity).
    op = 16 * 272835
    alg = Algebra(qccr(3, 0.5))
    assert peak_bytes(lambda: alg.R(7)) < 4 * op
    alg = Algebra(qccr(3, 0.5))
    alg.P(6)
    assert peak_bytes(lambda: spectral.kernel_theorem_check(alg, 6)) < 5 * op


def test_kernel_theorem_at_d3_level_7_holds_no_R_7():
    # P_7 reads R_7 once and the kernel theorem never again: with R_7 dropped
    # once P_7 is built, ker P_7 and ker S are decided beside P_7 (and ker
    # P_7's basis) alone.  Operators of 16 x 272,835 bytes at the peak: 3.38
    # at q=0.5 and 4.38 at q=-1 (whose kernel has 3^7 - 3 = 2,184 vectors),
    # against 4.39 and 5.38 while the Algebra kept R_7
    op = 16 * 272835
    for q, bound in ((0.5, 4), (-1.0, 5)):
        alg = Algebra(qccr(3, q))
        alg.P(6)
        assert peak_bytes(lambda: spectral.kernel_theorem_check(alg, 6)) < bound * op, q


def test_coxeter_checks_place_one_sum_at_a_time():
    # d=3, rank 4: the walk, P_5, U_4 and every operand are kept in weight
    # blocks of 4,653 entries; 2.36 dense 243 x 243 matrices were measured at
    # the peak, the walk's 16 buckets 1.26 of them
    alg = Algebra(qccr(3, 0.5))
    assert peak_bytes(lambda: coxeter.coxeter_checks(alg, 4)) < 4 * 16 * 243**2
