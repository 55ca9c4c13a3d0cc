import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbsc import (
    DensityMatrix,
    HermitianOp,
    InputError,
    Ket,
    binary_entropy,
    von_neumann_entropy,
)
from qbsc import linalg
from qbsc.codebook import make_rng
from qbsc.errors import NumericalError
from qbsc.linalg import _max_asymmetry

from oracles import (
    eig_hermitian,
    inner,
    projector,
    random_density_matrix,
    random_ket,
    tensor,
    tensor_op,
)

E0 = Ket(np.array([1.0, 0.0]))
E1 = Ket(np.array([0.0, 1.0]))


def encoding(bit, theta):
    if bit == 0:
        return Ket(np.array([1.0, 0.0]))
    return Ket(np.array([math.sin(theta), math.cos(theta)]))


class TestKet:
    def test_rejects_unnormalized(self):
        with pytest.raises(InputError):
            Ket(np.array([1.0, 1.0]))

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            Ket(np.array([]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(InputError):
            Ket(np.array([bad, 0.0]))

    def test_amps_are_read_only(self):
        with pytest.raises(ValueError):
            E0.amps[0] = 2.0


class TestInner:
    def test_identical_basis_vector(self):
        assert inner(E0, E0) == 1.0

    def test_orthogonal_basis_vectors(self):
        assert inner(E0, E1) == 0.0

    def test_encoding_overlap_is_sin_theta(self):
        # direct evaluation of <0|(sin t |0> + cos t |1>)
        value = inner(encoding(0, 0.3), encoding(1, 0.3))
        assert value == pytest.approx(math.sin(0.3), abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            inner(E0, Ket(np.array([1.0, 0.0, 0.0])))

    @given(st.integers(0, 2**32 - 1))
    def test_conjugate_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        u = random_ket(4, rng)
        v = random_ket(4, rng)
        assert inner(u, v) == complex(inner(v, u)).conjugate()


class TestProjector:
    def test_basis_projector(self):
        p = projector(E0)
        assert np.allclose(p.mat, np.diag([1.0, 0.0]))

    def test_rank_one_trace(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p = projector(random_ket(5, rng))
            assert np.trace(p.mat).real == pytest.approx(1.0, abs=1e-12)

    def test_encoding_projector_entry(self):
        # outer-product oracle for the (0, 0) entry
        psi = encoding(1, 0.3)
        expected = np.outer(psi.amps, psi.amps.conj())[0, 0].real
        assert expected == pytest.approx(math.sin(0.3) ** 2, abs=1e-15)
        assert projector(psi).mat[0, 0].real == pytest.approx(expected, abs=1e-15)

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = projector(random_ket(6, rng)).mat
            assert np.max(np.abs(p @ p - p)) <= 1e-9


class TestTensor:
    def test_basis_tensor(self):
        t = tensor(E0, E0)
        assert t.dim == 4
        assert np.allclose(t.amps, [1, 0, 0, 0])

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        t = tensor(random_ket(3, rng), random_ket(5, rng))
        assert np.vdot(t.amps, t.amps).real == pytest.approx(1.0, abs=1e-12)

    def test_first_factor_is_slow_index(self):
        # amplitude at flat index 1 = (factor a index 0) * (factor b index 1)
        t = tensor(encoding(0, 0.3), encoding(1, 0.3))
        assert t.amps[1].real == pytest.approx(math.cos(0.3), abs=1e-15)

    def test_dimension_guard(self):
        big = Ket(np.eye(2**12)[0])
        mid = Ket(np.eye(2**11)[0])
        with pytest.raises(InputError):
            tensor(big, mid)

    def test_operator_tensor_keeps_density_type(self):
        rng = np.random.default_rng(5)
        a = random_density_matrix(2, rng)
        b = random_density_matrix(3, rng)
        ab = tensor_op(a, b)
        assert isinstance(ab, DensityMatrix)
        assert np.trace(ab.mat).real == pytest.approx(1.0, abs=1e-10)


class TestEigHermitian:
    def test_diagonal(self):
        w, vecs = eig_hermitian(HermitianOp(np.diag([1.0, 0.0])))
        assert np.allclose(w, [0.0, 1.0])
        assert len(vecs) == 2

    def test_two_projector_sum(self):
        theta = 0.2
        op = HermitianOp(
            projector(encoding(0, theta)).mat + projector(encoding(1, theta)).mat
        )
        w, _ = eig_hermitian(op)
        # closed form for two rank-1 projectors with overlap sin t,
        # cross-checked against a raw numpy solve of the same matrix
        assert w[-1] == pytest.approx(1.0 + math.sin(theta), abs=1e-12)
        assert w[-1] == pytest.approx(np.linalg.eigvalsh(op.mat)[-1], abs=1e-12)

    def test_identity(self):
        w, _ = eig_hermitian(HermitianOp(np.eye(5)))
        assert np.allclose(w, 1.0)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(13)
        for dim in (2, 3, 6):
            raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal(
                (dim, dim)
            )
            h = HermitianOp((raw + raw.conj().T) / 2)
            w, vecs = eig_hermitian(h)
            scale = max(1.0, np.max(np.abs(w)))
            rebuilt = sum(
                lam * np.outer(v.amps, v.amps.conj()) for lam, v in zip(w, vecs)
            )
            assert np.max(np.abs(rebuilt - h.mat)) <= 1e-8 * scale
            basis = np.stack([v.amps for v in vecs])
            assert np.max(np.abs(basis @ basis.conj().T - np.eye(dim))) <= 1e-8
            for lam, v in zip(w, vecs):
                assert np.max(np.abs(h.mat @ v.amps - lam * v.amps)) <= 1e-8 * scale

    def test_deterministic_phases(self):
        rng = np.random.default_rng(17)
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = HermitianOp((raw + raw.conj().T) / 2)
        w1, v1 = eig_hermitian(h)
        w2, v2 = eig_hermitian(h)
        assert np.array_equal(w1, w2)
        for a, b in zip(v1, v2):
            assert np.array_equal(a.amps, b.amps)
        for v in v1:
            first = v.amps[np.argmax(np.abs(v.amps) > 1e-8)]
            assert first.imag == pytest.approx(0.0, abs=1e-12)
            assert first.real > 0


class TestOperatorDtype:
    def test_real_input_stays_real(self):
        for raw in (np.eye(2), np.eye(2, dtype=int), [[0.5, 0.5], [0.5, 0.5]]):
            assert HermitianOp(raw).mat.dtype == np.float64
        assert DensityMatrix(np.diag([0.75, 0.25])).mat.dtype == np.float64

    def test_complex_input_stays_complex(self):
        op = HermitianOp(np.array([[1.0, 1j], [-1j, 1.0]]))
        assert op.mat.dtype == np.complex128
        rho = DensityMatrix(np.array([[0.75, 0.1j], [-0.1j, 0.25]]))
        assert rho.mat.dtype == np.complex128

    def test_complex_input_with_zero_imaginary_parts_is_stored_real(self):
        for raw in (np.eye(2, dtype=complex), np.array([[0.5, -0.5 + 0j], [-0.5, 0.5]])):
            op = HermitianOp(raw)
            assert op.mat.dtype == np.float64 and np.array_equal(op.mat, raw)
        rho = DensityMatrix(np.diag([0.75, 0.25]).astype(complex))
        assert rho.mat.dtype == np.float64 and rho.mat.flags.c_contiguous

    def test_real_and_complex_copies_agree(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((6, 6))
        real = DensityMatrix(g @ g.T / np.trace(g @ g.T))
        # a diagonal unitary keeps the spectrum and makes the entries complex
        phases = np.exp(2j * np.pi * rng.random(6))
        cplx = DensityMatrix(phases[:, None] * real.mat * phases.conj())
        assert cplx.mat.dtype == np.complex128
        assert np.max(np.abs(real.spectrum - cplx.spectrum)) <= 1e-14
        assert von_neumann_entropy(real) == pytest.approx(
            von_neumann_entropy(cplx), abs=1e-12
        )


def _old_asymmetry(arr):
    """The whole-matrix expression the strip check replaced."""
    return float(np.max(np.abs(arr - arr.conj().T)))


class TestCallerArrays:
    """An operator never changes the flags or values of the caller's array."""

    @pytest.mark.parametrize(
        "make, raw",
        [
            (HermitianOp, np.eye(2) / 2),
            (HermitianOp, np.eye(2, dtype=complex) / 2),
            (DensityMatrix, np.eye(2) / 2),
            (DensityMatrix, np.eye(2, dtype=complex) / 2),
            (Ket, np.array([1.0, 0.0], dtype=complex)),
            (Ket, np.array([0.6, 0.8])),
        ],
    )
    def test_input_stays_writable(self, make, raw):
        value = make(raw)
        kept = raw.copy()
        raw[0] = 0.7
        assert raw.flags.writeable
        stored = value.amps if make is Ket else value.mat
        assert np.array_equal(stored, kept) and not stored.flags.writeable

    def test_labels_stay_writable(self):
        labels = np.array([0, 1])
        rho = DensityMatrix(np.eye(2) / 2, labels=labels)
        labels[0] = 5
        assert rho.labels.tolist() == [0, 1]

    def test_read_only_view_is_copied(self):
        base = np.eye(2) / 2
        view = base[:]
        view.setflags(write=False)
        rho = DensityMatrix(view)
        base[0, 0] = 0.7
        assert rho.mat[0, 0] == 0.5

    def test_read_only_owned_array_is_kept(self):
        mat = np.eye(2) / 2
        mat.setflags(write=False)
        assert DensityMatrix(mat).mat is mat


class TestHermitianCheck:
    @pytest.mark.parametrize("dim", [1, 2, 127, 128, 129, 300])
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_strips_match_whole_matrix(self, dim, complex_entries):
        rng = np.random.default_rng(dim)
        g = rng.standard_normal((dim, dim))
        if complex_entries:
            g = g + 1j * rng.standard_normal((dim, dim))
        near = (g + g.conj().T) / 2
        near[dim // 2, dim // 3] += 3e-11
        for arr in (g, (g + g.conj().T) / 2, near):
            assert _max_asymmetry(arr) == _old_asymmetry(arr)

    # inf - inf raises NumPy's invalid-value warning
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("dim", [2, 300])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["diagonal", "upper", "lower", "mirrored"])
    def test_rejects_non_finite_entries(self, dim, bad, where):
        # on the 300-dim matrix the entry sits in the third strip
        i, j = (dim - 1, dim - 1) if where == "diagonal" else (dim - 1, 0)
        mat = np.eye(dim)
        if where == "upper":
            i, j = j, i
        mat[i, j] = bad
        if where == "mirrored":
            mat[j, i] = bad
        assert not _max_asymmetry(mat) <= 1e-10
        with pytest.raises(InputError):
            HermitianOp(mat)
        with pytest.raises(InputError):
            HermitianOp(mat.astype(complex))

    @pytest.mark.parametrize("dim", [2, 300])
    def test_asymmetry_just_above_tolerance(self, dim):
        mat = np.eye(dim)
        mat[dim - 1, 0] = 1.5e-10
        with pytest.raises(InputError, match="not Hermitian"):
            HermitianOp(mat)
        mat[dim - 1, 0] = 0.5e-10
        assert HermitianOp(mat).dim == dim
        cplx = np.eye(dim, dtype=complex)
        cplx[0, dim - 1] = cplx[dim - 1, 0] = 0.75e-10j  # differs by 1.5e-10
        with pytest.raises(InputError, match="not Hermitian"):
            HermitianOp(cplx)


class TestDensityMatrix:
    def test_rejects_bad_trace(self):
        with pytest.raises(InputError):
            DensityMatrix(np.eye(2))

    # inf - inf in the Hermitian check raises NumPy's invalid-value warning
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("i, j", [(0, 0), (0, 1)])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, math.inf)])
    def test_rejects_non_finite_entry(self, i, j, bad):
        mat = np.diag([0.5, 0.5]).astype(complex)
        mat[i, j] = mat[j, i] = bad
        with pytest.raises(InputError):
            DensityMatrix(mat)
        with pytest.raises(InputError):
            HermitianOp(mat)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(InputError):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_spectrum_cached_ascending(self):
        rho = DensityMatrix(np.diag([0.75, 0.25]))
        assert np.allclose(rho.spectrum, [0.25, 0.75])


def involution_of(pairs, dim):
    perm = np.arange(dim)
    for a, b in pairs:
        perm[a], perm[b] = b, a
    return perm


def parity_basis(perm):
    """The orthogonal map onto the involution's eigenbasis, one row per
    vector, and each vector's parity: e_x for each fixed x and
    (e_a + e_b)/sqrt 2 for each swapped pair a < b are even (0), and
    (e_a - e_b)/sqrt 2 is odd (1)."""
    index = np.arange(perm.size)
    fixed, a = index[perm == index], index[perm > index]
    even = fixed.size + np.arange(a.size)
    odd = even + a.size
    basis = np.zeros((perm.size, perm.size))
    basis[np.arange(fixed.size), fixed] = 1.0
    basis[even, a] = basis[even, perm[a]] = basis[odd, a] = math.sqrt(0.5)
    basis[odd, perm[a]] = -math.sqrt(0.5)
    return basis, np.repeat([0, 1], [perm.size - a.size, a.size])


class TestInvolutionSpectrum:
    """The labelled solve of a state that commutes with an involution, in the
    involution's eigenbasis and labelled by parity, against one full solve:
    the shape of the protocol-1 mixture, whose pair basis is the eigenbasis
    of its pair swaps."""

    @pytest.mark.parametrize(
        "dim, pairs",
        [(1, []), (2, [(0, 1)]), (3, [(0, 2)]), (5, [(0, 3), (1, 4)]),
         (8, [(0, 7), (1, 2), (3, 5)]), (9, [(i, 8 - i) for i in range(4)])],
    )
    @pytest.mark.parametrize("real", [True, False])
    def test_matches_full_solve_on_symmetrised_states(self, dim, pairs, real):
        perm = involution_of(pairs, dim)
        rho = random_density_matrix(dim, make_rng(dim)).mat
        if real:
            rho = rho.real
        commuting = (rho + rho[np.ix_(perm, perm)]) / 2
        basis, parity = parity_basis(perm)
        blocks = DensityMatrix(basis @ commuting @ basis.T, labels=parity)
        assert np.max(np.abs(blocks.spectrum - np.linalg.eigvalsh(commuting))) <= 1e-14
        # a 1 x 1 state has no imaginary part, so it is stored real
        assert blocks.mat.dtype == (np.float64 if real or dim == 1 else np.complex128)

    def test_non_commuting_state_refused(self):
        mat = np.diag([0.5, 0.3, 0.2])  # symmetric, trace 1, PSD
        basis, parity = parity_basis(np.array([1, 0, 2]))
        DensityMatrix(basis @ mat @ basis.T)
        with pytest.raises(NumericalError, match="not block diagonal"):
            DensityMatrix(basis @ mat @ basis.T, labels=parity)
        rho = random_density_matrix(8, make_rng(3)).mat
        basis, parity = parity_basis(np.array([0, 4, 2, 6, 1, 5, 3, 7]))
        with pytest.raises(NumericalError, match="not block diagonal"):
            DensityMatrix(basis @ rho @ basis.T, labels=parity)


def block_diagonal_state(labels, real):
    """A random full-rank state with every entry coupling two labels zeroed;
    the pinching keeps it Hermitian, unit-trace and positive."""
    labels = np.asarray(labels)
    rho = random_density_matrix(labels.size, make_rng(labels.size)).mat
    if real:
        rho = rho.real
    return rho * (labels[:, None] == labels[None, :])


class TestLabelledSpectrum:
    """The block solve over declared labels against one full solve."""

    @pytest.mark.parametrize(
        "dim, values", [(1, [7]), (2, [0, 1]), (5, [3]), (9, [0, 1, 2]), (16, [-2, 0, 5, 9])]
    )
    @pytest.mark.parametrize("real", [True, False])
    def test_matches_full_solve_under_shuffled_labels(self, dim, values, real):
        labels = make_rng(dim).permutation(np.resize(values, dim))
        mat = block_diagonal_state(labels, real)
        blocks = DensityMatrix(mat, labels=labels)
        assert np.max(np.abs(blocks.spectrum - np.linalg.eigvalsh(mat))) <= 1e-14
        # a 1 x 1 state has no imaginary part, so it is stored real
        assert blocks.mat.dtype == (np.float64 if real or dim == 1 else np.complex128)

    @pytest.mark.parametrize("real", [True, False])
    def test_one_coupling_entry_refused(self, real):
        labels = np.array([0, 1, 0, 2, 1, 2, 0, 1])
        mat = block_diagonal_state(labels, real)
        DensityMatrix(mat.copy(), labels=labels)
        mat[1, 2] = mat[2, 1] = 1e-6  # labels 1 and 0
        with pytest.raises(NumericalError, match="not block diagonal"):
            DensityMatrix(mat, labels=labels)

    @staticmethod
    def counted_solves(monkeypatch):
        sizes = []
        solve = linalg._eigvalsh
        monkeypatch.setattr(
            linalg, "_eigvalsh", lambda mat: sizes.append(mat.shape[0]) or solve(mat)
        )
        return sizes

    @staticmethod
    def repeated_block(copies, real=True):
        """``copies`` equal 3 x 3 blocks of a random state on the diagonal,
        labelled 0, 1, ...; its spectrum is that of one block, repeated."""
        block = random_density_matrix(3, make_rng(3)).mat / copies
        if real:
            block = block.real
        return np.kron(np.eye(copies), block), np.repeat(np.arange(copies), 3)

    @pytest.mark.parametrize("real", [True, False])
    def test_equal_blocks_solved_once(self, monkeypatch, real):
        mat, labels = self.repeated_block(3, real)
        sizes = self.counted_solves(monkeypatch)
        rho = DensityMatrix(mat, labels=labels)
        assert sizes == [3]
        assert np.max(np.abs(rho.spectrum - np.linalg.eigvalsh(mat))) <= 1e-14

    def test_different_block_of_the_same_size_solved_by_itself(self, monkeypatch):
        mat, labels = self.repeated_block(3)
        mat[6, 7] += 1e-6  # the last block
        mat[7, 6] += 1e-6
        sizes = self.counted_solves(monkeypatch)
        rho = DensityMatrix(mat, labels=labels)
        assert sizes == [3, 3]
        assert np.max(np.abs(rho.spectrum - np.linalg.eigvalsh(mat))) <= 1e-14

    def test_reuse_differences_join_the_coupling_norm(self, monkeypatch):
        mat, labels = self.repeated_block(3)
        mat[3, 3] += 0.8e-12  # one near-equal block alone is reused
        sizes = self.counted_solves(monkeypatch)
        DensityMatrix(mat.copy(), labels=labels)
        assert sizes == [3]
        with_coupling = mat.copy()
        with_coupling[0, 8] = with_coupling[8, 0] = 0.5e-12
        with pytest.raises(NumericalError, match="not block diagonal"):
            DensityMatrix(with_coupling, labels=labels)
        mat[6, 6] += 0.8e-12  # two: sqrt(2) * 0.8e-12 > 1e-12
        with pytest.raises(NumericalError, match="not block diagonal"):
            DensityMatrix(mat, labels=labels)

    @pytest.mark.parametrize("real", [True, False])
    def test_asymmetric_block_entry_refused(self, real):
        mat, labels = self.repeated_block(3, real)
        mat[4, 5] += 1e-9
        with pytest.raises(InputError, match="not Hermitian"):
            DensityMatrix(mat, labels=labels)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("mirrored", [False, True])
    def test_non_finite_coupling_entry_refused(self, bad, mirrored):
        mat, labels = self.repeated_block(3)
        mat[2, 6] = bad
        if mirrored:
            mat[6, 2] = bad
        with pytest.raises(InputError, match="NaN or inf"):
            DensityMatrix(mat, labels=labels)

    @pytest.mark.parametrize(
        "labels",
        [[0, 1], [0, 1, 2, 3], [0.0, 1.0, 2.0], [[0, 1, 2]], [True, False, True], "012"],
        ids=["short", "long", "float", "2-D", "bool", "string"],
    )
    def test_labels_must_be_one_integer_per_index(self, labels):
        with pytest.raises(InputError, match="labels"):
            DensityMatrix(np.eye(3) / 3, labels=labels)

    def test_labels_neither_compared_nor_shown(self):
        spec = {f.name: f for f in dataclasses.fields(DensityMatrix)}["labels"]
        assert spec.compare is False and spec.repr is False
        rho = DensityMatrix(np.eye(2) / 2, labels=np.array([1, 0]))
        assert rho.labels.tolist() == [1, 0]
        assert not rho.labels.flags.writeable


class TestEntropy:
    def test_pure_state(self):
        rho = DensityMatrix(projector(E0).mat)
        assert von_neumann_entropy(rho) == 0.0

    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(DensityMatrix(np.eye(2) / 2)) == pytest.approx(
            1.0, abs=1e-15
        )

    def test_equal_mixture_of_encodings(self):
        theta = 0.2
        rho = DensityMatrix(
            (projector(encoding(0, theta)).mat + projector(encoding(1, theta)).mat)
            / 2
        )
        # eigenvalues of the mixture are (1 +- sin t)/2
        p = (1.0 + math.sin(theta)) / 2.0
        expected = -p * math.log2(p) - (1 - p) * math.log2(1 - p)
        assert von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-12)

    def test_additive_over_tensor_products(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            a = random_density_matrix(2, rng)
            b = random_density_matrix(3, rng)
            lhs = von_neumann_entropy(tensor_op(a, b))
            rhs = von_neumann_entropy(a) + von_neumann_entropy(b)
            assert lhs == pytest.approx(rhs, abs=1e-8)


class TestBinaryEntropy:
    def test_half(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_encoding_mixture_value(self):
        p = (1.0 + math.sin(0.2)) / 2.0
        expected = -p * math.log2(p) - (1 - p) * math.log2(1 - p)
        assert binary_entropy(p) == pytest.approx(expected, abs=1e-16)

    def test_out_of_range(self):
        with pytest.raises(InputError):
            binary_entropy(1.001)
        with pytest.raises(InputError):
            binary_entropy(-0.001)

    @given(st.floats(0.0, 1.0))
    @settings(max_examples=200)
    def test_symmetry_and_range(self, p):
        h = binary_entropy(p)
        assert 0.0 <= h <= 1.0 + 1e-15
        assert h == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)


def _numpy_eigensolves(path):
    """Lines of ``np.linalg.eig*`` (or ``numpy.linalg.eig*``) references and
    ``from numpy.linalg import`` statements in one source file."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and node.attr.startswith("eig"):
            if ast.unparse(node.value) in ("np.linalg", "numpy.linalg"):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            lines.append(node.lineno)
    return lines


def test_every_eigensolve_goes_through_linalg():
    """Only ``linalg._eigvalsh`` and ``linalg._eigh`` call numpy's
    eigensolvers, so every solver failure becomes a NumericalError."""
    paths = sorted(Path(linalg.__file__).parent.glob("*.py"))
    found = {path.name: _numpy_eigensolves(path) for path in paths}
    assert len(found.pop("linalg.py")) == 2
    assert {name: lines for name, lines in found.items() if lines} == {}
