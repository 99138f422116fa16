"""Structure algebras: builders, validation, Killing form, embeddings, tables."""

import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from goverify import arith, lie
from goverify.arith import is_zero, q
from goverify.lie import (ValidationError, build_classical, embed_so_partition,
                          ingest_structure_table, serialize_structure_table,
                          so_pair_index)
from goverify.subspaces import Subspace, orthogonal_complement
from oracles import (algebra_from_tensor, change_basis, direct_sum, fad, first_failing_pair,
                     fmatmul, fractions, fzeros, tensor, unimodular)


def brute_force_killing(algebra):
    """Independent oracle: B(e_i, e_j) = tr(ad_i ad_j) summed entry by entry."""
    d = algebra.dim
    ads = [fractions(algebra.contract(algebra.basis_vector(i))) for i in range(d)]
    out = fzeros((d, d))
    for i in range(d):
        for j in range(d):
            prod = np.dot(ads[i], ads[j])
            out[i, j] = sum(prod[k, k] for k in range(d))
    return out


def test_so3_bracket_table():
    so3 = build_classical("so", 3)
    # [A12, A23] = A13 from E_ab E_cd = delta_bc E_ad
    assert list(so3.bracket(so3.basis_vector(0), so3.basis_vector(2))) == [0, 1, 0]
    assert list(so3.bracket(so3.basis_vector(0), so3.basis_vector(1))) == [0, 0, -1]


def test_abelian():
    ab = build_classical("abelian", 3)
    assert ab.dim == 3 and is_zero(tensor(ab))
    assert ab.killing.degenerate


def test_unsupported_family():
    with pytest.raises(arith.ContractViolation):
        build_classical("g2", 2)


@pytest.mark.parametrize("family,n,dim", [
    ("so", 6, 15), ("so", 3, 3), ("su", 2, 3), ("su", 3, 8), ("sp", 1, 3), ("sp", 2, 10),
])
def test_dimensions(family, n, dim):
    assert build_classical(family, n).dim == dim


def test_validation_catches_broken_jacobi():
    # [e1,e2] = e3 and [e1,e3] = e1 leave a nonzero cyclic sum
    dense = fzeros((3, 3, 3))
    dense[0, 1, 2], dense[1, 0, 2] = q(1), q(-1)
    dense[0, 2, 0], dense[2, 0, 0] = q(1), q(-1)
    broken = algebra_from_tensor(dense)
    with pytest.raises(ValidationError, match="Jacobi"):
        broken.validate()


def test_validation_catches_broken_antisymmetry():
    dense = fzeros((3, 3, 3))
    dense[0, 1, 2] = q(1)
    broken = algebra_from_tensor(dense)
    with pytest.raises(ValidationError, match="antisymmetry"):
        broken.validate()


def _first_failure(dense):
    """Brute-force reference: the first failing antisymmetry or Jacobi index, 1-based."""
    d = dense.shape[0]
    for i in range(d):
        for j in range(d):
            for k in range(d):
                if dense[i, j, k] + dense[j, i, k] != 0:
                    return "antisymmetry", (i + 1, j + 1, k + 1)
    for i, j, k, l in np.ndindex(d, d, d, d):
        cyclic = sum(dense[i, j, m] * dense[m, k, l] + dense[j, k, m] * dense[m, i, l]
                     + dense[k, i, m] * dense[m, j, l] for m in range(d))
        if cyclic != 0:
            return "Jacobi", (i + 1, j + 1, k + 1, l + 1)
    return None


def _python_int_path(algebra):
    c = arith.Scaled(algebra.coo[3])
    return not c.fits(c, 3 * algebra.dim)


def test_scaled_tensor_validates_on_python_ints():
    """Jacobi is quadratic and antisymmetry linear, so scaling keeps both."""
    so5 = build_classical("so", 5)
    scaled = algebra_from_tensor(tensor(so5) * 2**40)
    assert _python_int_path(scaled)
    scaled.validate()
    assert is_zero(scaled.killing.matrix - so5.killing.matrix * 2**80)
    assert scaled.killing.is_ad_invariant(scaled)


@pytest.mark.parametrize("kind", ["antisymmetry", "Jacobi"])
def test_broken_entry_reports_the_reference_index_on_both_paths(kind):
    dense = tensor(build_classical("so", 5))
    dense[3, 6, 8] += 1                       # [e4,e7] gains a stray e9 component
    if kind == "Jacobi":
        dense[6, 3, 8] -= 1                   # ... kept antisymmetric
    expected_kind, idx = _first_failure(dense)
    assert expected_kind == kind
    messages = []
    for scale in (1, 2**40):
        algebra = algebra_from_tensor(dense * scale)
        assert _python_int_path(algebra) == (scale != 1)
        with pytest.raises(ValidationError) as excinfo:
            algebra.validate()
        messages.append(str(excinfo.value))
    letters = "(i,j,k,l)" if kind == "Jacobi" else "(i,j,k)"
    assert messages == [f"{kind} fails at {letters}={idx}"] * 2


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([("so", 5), ("su", 3), ("sp", 2)]), st.data())
def test_sparse_validation_matches_the_reference_on_both_paths(algebra, data):
    """One perturbed entry, antisymmetric or not: validate names the oracle's index,
    at scale 1 on int64 and at scale 2**40 on Python ints."""
    dense = tensor(build_classical(*algebra))
    d = dense.shape[0]
    i, j, k = (data.draw(st.integers(0, d - 1)) for _ in range(3))
    delta = Fraction(data.draw(st.sampled_from([-2, -1, 1, 3])), data.draw(st.integers(1, 2)))
    dense[i, j, k] += delta
    if data.draw(st.booleans()):
        dense[j, i, k] -= delta                # kept antisymmetric; a no-op when i == j
    expected = _first_failure(dense)
    for scale in (1, 2**40):
        scaled = algebra_from_tensor(dense * scale)
        assert _python_int_path(scaled) == (scale != 1)
        if expected is None:
            scaled.validate()
            continue
        kind, idx = expected
        letters = "(i,j,k,l)" if kind == "Jacobi" else "(i,j,k)"
        with pytest.raises(ValidationError) as excinfo:
            scaled.validate()
        assert str(excinfo.value) == f"{kind} fails at {letters}={idx}"


def test_structure_constants_are_read_only_and_validated_once(monkeypatch):
    so4 = build_classical("so", 4)
    assert so4.validated
    for arr in so4.coo:
        with pytest.raises(ValueError):
            arr[0] = 0
    monkeypatch.setattr(lie, "_check_sums", None)
    so4.validate()                              # recorded, so no axiom is checked again


@pytest.mark.parametrize("n,limit", [(12, 0.5), (16, 1.0)])
def test_large_so_builds_and_validates_quickly(n, limit):
    start = time.perf_counter()
    algebra = build_classical("so", n)
    elapsed = time.perf_counter() - start
    assert algebra.validated and len(algebra.coo[0]) == algebra.dim * 2 * (n - 2)
    assert elapsed < limit, f"so({n}) build and validation took {elapsed:.2f} s"


@pytest.mark.parametrize("family,n", [("su", 3), ("sp", 2)])
def test_realization_tensor_on_python_ints_scales_exactly(family, n):
    """Scaling every realization matrix by s scales the structure constants by s."""
    _, mats = lie._su_basis(n) if family == "su" else lie._sp_basis(n)
    mats = [m * 2**40 for m in mats]
    stack = arith.Scaled.of(np.stack(mats))
    assert not stack.fits(stack, stack.shape[-1])
    coo, scale = lie._tensor_from_realization(mats)
    scaled = lie.StructureAlgebra(dim=len(mats), coo=coo, scale=scale, realization=tuple(mats))
    assert is_zero(tensor(scaled) - tensor(build_classical(family, n)) * 2**40)
    scaled.validate()


def test_realization_mismatch_names_the_first_failing_pair():
    so4 = build_classical("so", 4)
    mats = list(so4.realization)
    mats[2], mats[4] = mats[4], mats[2]
    dense = tensor(so4)
    a, b = next((a, b) for a in range(6) for b in range(a + 1, 6)
                if not is_zero(np.dot(mats[a], mats[b]) - np.dot(mats[b], mats[a])
                               - sum(dense[a, b, k] * mats[k] for k in range(6))))
    algebra = lie.StructureAlgebra(dim=6, coo=so4.coo, realization=tuple(mats))
    with pytest.raises(ValidationError, match=re.escape(f"basis pair ({a + 1},{b + 1})")):
        algebra.validate()


def _counting_sums(monkeypatch) -> list:
    """Record the number of keys of every ``_sum_by_key`` call, one call per block of terms."""
    sizes, sum_by_key = [], lie._sum_by_key
    monkeypatch.setattr(lie, "_sum_by_key", lambda keys, values: sizes.append(keys.size)
                        or sum_by_key(keys, values))
    return sizes


@pytest.mark.parametrize("family, n, swap", [("so", 9, (14, 20)), ("so", 9, (3, 35)),
                                             ("su", 4, (11, 14)), ("sp", 2, (5, 8))])
def test_blocked_realization_check_names_the_first_failing_pair(family, n, swap, monkeypatch):
    """With one pair (a, b) per block of terms, the failing pair lands in a later block
    and the check names the same first failing pair as a pair-by-pair Fraction check."""
    algebra = build_classical(family, n)
    mats = list(algebra.realization)
    mats[swap[0]], mats[swap[1]] = mats[swap[1]], mats[swap[0]]
    a, b = first_failing_pair(tensor(algebra), mats)
    broken = lie.StructureAlgebra(dim=algebra.dim, coo=algebra.coo, scale=algebra.scale,
                                  realization=np.stack(mats))
    monkeypatch.setattr(lie, "_TERM_BUDGET", 1)
    sizes = _counting_sums(monkeypatch)
    lie.StructureAlgebra(dim=algebra.dim, coo=algebra.coo, scale=algebra.scale).validate()
    axioms = len(sizes)                         # the antisymmetry sum and the Jacobi blocks
    with pytest.raises(ValidationError, match=re.escape(f"basis pair ({a + 1},{b + 1})")):
        broken.validate()
    assert len(sizes) - 2 * axioms > 1          # the realization failed past its first block


def test_blocked_jacobi_check_names_the_reference_index(monkeypatch):
    """With one pair (i, j) per block of terms, a Jacobi failure past the first block is the
    brute-force reference's index."""
    dense = tensor(build_classical("so", 5))
    dense[8, 9, 9] += 1
    dense[9, 8, 9] -= 1
    kind, idx = _first_failure(dense)
    assert kind == "Jacobi"
    monkeypatch.setattr(lie, "_TERM_BUDGET", 1)
    sizes = _counting_sums(monkeypatch)
    with pytest.raises(ValidationError) as excinfo:
        algebra_from_tensor(dense).validate()
    assert str(excinfo.value) == f"Jacobi fails at (i,j,k,l)={idx}"
    assert len(sizes) > 2                       # antisymmetry, then more than one Jacobi block


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([("so", 5), ("su", 3), ("sp", 2)]), st.data())
def test_perturbed_realization_names_the_reference_pair_on_both_paths(algebra, data):
    """One perturbed realization entry: validate names the Fraction reference's pair, on
    int64 at scale 1 and on Python ints with matrices and constants times 2**40."""
    algebra = build_classical(*algebra)
    mats = [m.astype(object) for m in algebra.realization]
    a, r, c = (data.draw(st.integers(0, bound - 1)) for bound in (algebra.dim, *mats[0].shape))
    mats[a][r, c] += data.draw(st.sampled_from([-2, -1, 1, 3]))
    expected = first_failing_pair(tensor(algebra), mats)
    for scale in (1, 2**40):
        scaled = lie.StructureAlgebra(dim=algebra.dim, scale=algebra.scale,
                                      coo=(*algebra.coo[:3], algebra.coo[3] * scale),
                                      realization=np.stack(mats) * scale)
        assert (arith.Scaled.of(scaled.realization).bound ** 2 >= 2**62) == (scale != 1)
        if expected is None:
            scaled.validate()
            continue
        with pytest.raises(ValidationError) as excinfo:
            scaled.validate()
        assert str(excinfo.value) == f"realization bracket mismatch at basis pair " \
            f"({expected[0] + 1},{expected[1] + 1})"


@pytest.mark.parametrize("seed", [0, 1])
def test_dense_table_from_a_basis_change_names_the_reference_index(seed):
    """so(5) in a basis changed by elementary integer row operations has a dense table;
    it validates, and one perturbed entry (kept antisymmetric) fails at the reference's index."""
    p, inverse = unimodular(10, 12, seed)
    dense = change_basis(tensor(build_classical("so", 5)), p, inverse)
    assert sum(v != 0 for v in dense.ravel()) > dense.size // 3
    algebra_from_tensor(dense).validate()
    dense[2, 7, 4] += 1
    dense[7, 2, 4] -= 1
    kind, idx = _first_failure(dense)
    assert kind == "Jacobi"
    with pytest.raises(ValidationError) as excinfo:
        algebra_from_tensor(dense).validate()
    assert str(excinfo.value) == f"Jacobi fails at (i,j,k,l)={idx}"


def test_realization_check_is_exact_for_rational_matrices():
    """Halving every so(3) matrix halves the structure constants: the halved
    realization fits the constants over scale 2 and not the original ones."""
    so3 = build_classical("so", 3)
    halves = np.array([[[Fraction(int(v), 2) for v in row] for row in m] for m in so3.realization])
    lie.StructureAlgebra(dim=3, coo=so3.coo, scale=2, realization=halves).validate()
    with pytest.raises(ValidationError, match="realization bracket mismatch"):
        lie.StructureAlgebra(dim=3, coo=so3.coo, realization=halves).validate()


def test_dependent_realization_matrices_are_rejected():
    _, mats = lie._su_basis(3)
    with pytest.raises(arith.ContractViolation, match="realization matrices are linearly dependent"):
        lie._tensor_from_realization(mats + [mats[0] * 2 - mats[3]])


def test_killing_constant_so_n():
    """Q(A_ij, A_ij) = 2(n-2), off-diagonal zero, against the trace oracle."""
    for n in (3, 5, 6):
        alg = build_classical("so", n)
        oracle = brute_force_killing(alg)
        assert is_zero(oracle - fractions(alg.killing.matrix))
        expected = q(2 * (n - 2))
        for i in range(alg.dim):
            assert -alg.killing.matrix[i, i] == expected
            for j in range(i + 1, alg.dim):
                assert alg.killing.matrix[i, j] == 0


@pytest.mark.parametrize("build", [
    lambda: build_classical("so", 5), lambda: build_classical("su", 3), lambda: build_classical("sp", 2),
    lambda: direct_sum([build_classical("so", 3), build_classical("abelian", 1), build_classical("su", 2)]),
], ids=["so5", "su3", "sp2", "so3+abelian1+su2"])
def test_killing_from_stored_entries_matches_the_dense_product(build):
    """The join over the stored constants equals the dense (d, d^2) x (d^2, d) product."""
    algebra = build()
    d = algebra.dim
    ads = algebra.contract(np.eye(d, dtype=np.int64))
    flat = ads.ints.astype(object).reshape(d, d * d)
    flat_t = np.transpose(ads.ints, (0, 2, 1)).astype(object).reshape(d, d * d)
    dense = arith.Scaled(flat @ flat_t.T, ads.scale ** 2)
    assert algebra.killing.matrix.equals(dense)


def test_killing_cross_check_matrix_trace_form():
    """B = (n-2) tr(XY) on so(n) realization matrices."""
    alg = build_classical("so", 5)
    mats = [np.asarray(m, dtype=object) for m in alg.realization]
    for i in range(alg.dim):
        for j in range(alg.dim):
            assert alg.killing.matrix[i, j] == q(3) * np.trace(np.dot(mats[i], mats[j]))


@pytest.mark.parametrize("build", [
    lambda: build_classical("so", 5), lambda: build_classical("su", 3), lambda: build_classical("sp", 2),
    lambda: direct_sum([build_classical("so", 3), build_classical("abelian", 1), build_classical("su", 2)]),
], ids=["so5", "su3", "sp2", "so3+abelian1+su2"])
@pytest.mark.parametrize("size", [1, 2**61])
def test_skewness_from_stored_entries_matches_the_fraction_oracle(build, size):
    """``ad_i^T H + H ad_i`` from the dense Fraction ad matrices, for a generic
    symmetric H; ``size`` 2**61 forces the Python-int path."""
    algebra = build()
    d = algebra.dim
    rng = np.random.RandomState(d)
    h = rng.randint(-9, 10, size=(d, d)).astype(object) * size
    h = arith.Scaled(h + h.T, 3)
    out = algebra.skewness(h)
    assert out.ints.dtype == (object if size > 1 else np.int64)
    for i in range(d):
        ad = fad(algebra, algebra.basis_vector(i))
        assert is_zero(out[i] - (fmatmul(ad.T, h) + fmatmul(h, ad)))


def test_skewness_rejects_a_non_symmetric_matrix():
    so3 = build_classical("so", 3)
    with pytest.raises(arith.ContractViolation, match="symmetric"):
        so3.skewness(np.triu(np.ones((3, 3), dtype=np.int64)))


def test_killing_ad_invariance():
    for family, n in (("so", 6), ("su", 3), ("sp", 2)):
        alg = build_classical(family, n)
        assert alg.killing.is_ad_invariant(alg)


def test_canonical_form_positive_definite_for_compact_simple():
    for family, n in (("so", 5), ("su", 3), ("sp", 2)):
        assert build_classical(family, n).canonical_form is not None
    assert build_classical("abelian", 2).canonical_form is None


def test_attach_form_validation():
    ab = build_classical("abelian", 2)
    lie.attach_form(ab, [[1, 0], [0, 2]])
    assert ab.form().positive_definite
    so3 = build_classical("so", 3)
    with pytest.raises(arith.ContractViolation):
        lie.attach_form(so3, [[1, 0, 0], [0, 1, 0], [0, 0, 0]])


def test_attach_form_refuses_once_the_form_is_in_use():
    """Results memoized on the algebra are keyed by span alone, so the form
    is fixed by its first read."""
    so3 = build_classical("so", 3)
    lie.attach_form(so3, np.eye(3, dtype=np.int64))          # before any use: accepted
    assert not so3.form_fixed
    assert so3.form().matrix.equals(np.eye(3, dtype=np.int64)) and so3.form_fixed
    with pytest.raises(arith.ContractViolation, match="already in use"):
        lie.attach_form(so3, 2 * np.eye(3, dtype=np.int64))
    assert so3.form().matrix.equals(np.eye(3, dtype=np.int64))
    so5 = build_classical("so", 5)
    orthogonal_complement(Subspace.from_indices(so5, [0]))   # reads the -Killing default
    with pytest.raises(arith.ContractViolation, match="already in use"):
        lie.attach_form(so5, -so5.killing.matrix)


def test_direct_sum_blocks_commute():
    a = build_classical("so", 3)
    b = build_classical("so", 3)
    s = direct_sum([a, b])
    assert s.dim == 6
    for i in range(3):
        for j in range(3, 6):
            assert is_zero(s.bracket(s.basis_vector(i), s.basis_vector(j)))
    s.validate()


def test_direct_sum_with_center():
    s = direct_sum([build_classical("abelian", 1), build_classical("so", 3)])
    assert s.dim == 4
    assert s.killing.degenerate


def test_so4_isomorphic_to_so3_plus_so3():
    """so(4) splits into two commuting 3-dimensional simple pieces."""
    from goverify.subspaces import Subspace, ideal_decomposition
    so4 = build_classical("so", 4)
    dec = ideal_decomposition(Subspace.full(so4))
    assert dec.center.dim == 0
    assert sorted(i.dim for i in dec.ideals) == [3, 3]


# -- embeddings ----------------------------------------------------------------

def test_embed_partition_dims():
    layout = embed_so_partition(6, (2, 2, 2))
    assert layout.subalgebra.dim == 3
    assert sorted(b.dim for b in layout.offdiag_blocks.values()) == [4, 4, 4]
    layout9 = embed_so_partition(9, (3, 3, 3))
    assert layout9.subalgebra.dim == 9
    assert all(b.dim == 9 for b in layout9.offdiag_blocks.values())
    trivial = embed_so_partition(4, (4,))
    assert trivial.subalgebra.dim == 6 and not trivial.offdiag_blocks


def test_embed_partition_block_dims_are_products():
    layout = embed_so_partition(7, (2, 2, 3))
    for (i, j), block in layout.offdiag_blocks.items():
        assert block.dim == layout.partition[i - 1] * layout.partition[j - 1]


def test_embed_bracket_relations():
    """[so(k_i), m_lm] lies in m_lm when i is l or m, vanishes otherwise;
    [m_ij, m_jl] lies in m_il."""
    layout = embed_so_partition(6, (2, 2, 2))
    g = layout.algebra
    blocks = layout.offdiag_blocks
    factors = layout.factor_subspaces
    for fi, factor in enumerate(factors, start=1):
        for (l, m), block in blocks.items():
            for a in range(factor.dim):
                for b in range(block.dim):
                    out = g.bracket(factor.basis[a], block.basis[b])
                    if fi in (l, m):
                        assert block.contains(out)
                    else:
                        assert is_zero(out)
    m12, m13, m23 = blocks[(1, 2)], blocks[(1, 3)], blocks[(2, 3)]
    for a in range(m12.dim):
        for b in range(m23.dim):
            assert m13.contains(g.bracket(m12.basis[a], m23.basis[b]))


def test_embed_partition_mismatch():
    with pytest.raises(arith.ContractViolation):
        embed_so_partition(6, (2, 2, 3))


def test_pair_index_roundtrip():
    n = 7
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for idx, (i, j) in enumerate(pairs):
        assert so_pair_index(n, i, j) == idx


# -- structure tables ----------------------------------------------------------

def test_table_roundtrip_so3():
    so3 = build_classical("so", 3)
    text = serialize_structure_table(so3)
    again = ingest_structure_table(text)
    assert is_zero(tensor(again) - tensor(so3))
    assert serialize_structure_table(again) == text


def test_table_empty_is_abelian():
    alg = ingest_structure_table("dim 2\n")
    assert alg.dim == 2 and is_zero(tensor(alg))


def test_table_missing_antisymmetric_mate_rejected():
    with pytest.raises(ValidationError):
        ingest_structure_table("dim 3\n1 2 3 1\n")


def test_table_jacobi_violation_reported_with_indices():
    text = "dim 3\n1 2 3 1\n2 1 3 -1\n1 3 2 1\n3 1 2 -1\n2 3 1 1\n3 2 1 -1\n" \
           "1 2 2 1\n2 1 2 -1\n"
    dense = fzeros((3, 3, 3))
    for line in text.splitlines()[1:]:
        i, j, k, v = (int(p) for p in line.split())
        dense[i - 1, j - 1, k - 1] = q(v)
    kind, idx = _first_failure(dense)
    assert kind == "Jacobi"
    with pytest.raises(ValidationError, match=re.escape(f"Jacobi fails at (i,j,k,l)={idx}")):
        ingest_structure_table(text)


def test_table_parse_errors():
    with pytest.raises(ValidationError):
        ingest_structure_table("1 2 3 1\n")  # entry before dim
    with pytest.raises(ValidationError):
        ingest_structure_table("dim 2\n1 2 5 1\n")  # index out of range
    with pytest.raises(ValidationError):
        ingest_structure_table("dim 2\n1 2 1\n")  # malformed entry


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 5))
def test_random_small_so_roundtrip(n):
    alg = build_classical("so", n)
    assert is_zero(tensor(ingest_structure_table(serialize_structure_table(alg))) - tensor(alg))


@pytest.mark.slow
def test_validity_up_to_so10():
    for n in range(2, 11):
        build_classical("so", n)  # validates internally


def test_bracket_on_python_ints_matches_fraction_reference():
    so5 = build_classical("so", 5)
    scaled = algebra_from_tensor(tensor(so5) * 2**40)
    rng = np.random.RandomState(2)
    x = np.array([q(int(v)) / 7 for v in rng.randint(-10**6, 10**6, size=10)], dtype=object)
    y = np.array([q(int(v)) / 11 for v in rng.randint(-10**6, 10**6, size=10)], dtype=object)
    assert not arith.Scaled.of(x).fits(arith.Scaled(scaled.coo[3]), 10)
    reference = np.dot(x, np.tensordot(tensor(scaled), y, axes=([1], [0])))
    assert is_zero(scaled.bracket(x, y) - reference)
    assert is_zero(scaled.bracket(x, y) - so5.bracket(x, y) * 2**40)
