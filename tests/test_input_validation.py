"""Input validation: one call per ValueError or ZeroDivisionError raise of the
package that no other test reaches, each matched against its own message."""

import numpy as np
import pytest

from cjt.carlson import kernel_of_hom_matrix, l_xi
from cjt.constancy import PiPoint, evaluate, is_isomorphic
from cjt.exactalg import CooMatrix, Field, make_field, rank, solve_linear, stack_ranks
from cjt.jordan import JordanType, from_nilpotent
from cjt.modrep import (
    ModuleHom,
    ModuleRep,
    build_extension,
    direct_sum,
    hom_space,
    jordan_block_module,
    quotient_module,
    submodule,
    tensor,
    trivial_module,
)
from cjt.polymat import HomPoly, PolyMatrix, bivariate_minor_gcd, common_zero_search
from cjt.serialize import module_from_json, polymatrix_from_json
from cjt.syzygy import (
    CocycleClass,
    cohomology_basis,
    factor_generator,
    omega_dim_formula,
    omega_k,
    restrict_cocycle,
)
from cjt.zoo import ke_mod_i2, random_module, truncated_module

F3 = make_field(3, 1)
F9 = make_field(3, 2)
K = trivial_module(F3, 2)  # k, dimension 1
K2 = trivial_module(F3, 2, 2)  # k + k
ONE = ModuleHom(K, K, [[1]])
X, Y = HomPoly.variable(3, 2, 0), HomPoly.variable(3, 2, 1)
XX, XY = X.mul(X), X.mul(Y)
BLOCK2 = jordan_block_module(F3, 2)  # e0 -> e1 -> 0
E0 = np.array([[1], [0]])
OMEGA_P5 = omega_k(make_field(5, 1), 3, 1)


def _zeros(*shape):
    return np.zeros(shape, dtype=np.int64)


CASES = [
    # carlson
    ("kernel-empty-grid", lambda: kernel_of_hom_matrix([], [], []), ValueError,
     r"grid, sources and targets must be nonempty"),
    ("kernel-grid-shape", lambda: kernel_of_hom_matrix([[ONE]], [K, K], [K]), ValueError,
     r"grid shape must be \(targets\) x \(sources\)"),
    ("kernel-source-mismatch", lambda: kernel_of_hom_matrix([[ONE]], [K2], [K]), ValueError,
     r"grid\[0\]\[0\] source mismatch"),
    ("kernel-target-mismatch", lambda: kernel_of_hom_matrix([[ONE]], [K], [K2]), ValueError,
     r"grid\[0\]\[0\] target mismatch"),
    ("l-xi-no-classes", lambda: l_xi([]), ValueError, r"need at least one cocycle class"),
    # constancy
    ("point-tail-length", lambda: PiPoint(F3, (1, 0), (((0, 2, 0), 1),)), ValueError,
     r"tail exponent length must match the number of generators"),
    ("point-over-another-extension",
     lambda: evaluate(trivial_module(F9, 2), PiPoint(make_field(3, 3), (1, 0))), ValueError,
     r"modules over a proper extension only accept points over the same field or the prime field"),
    ("isomorphic-across-categories", lambda: is_isomorphic(K, trivial_module(F9, 2)), ValueError,
     r"modules live in different categories"),
    ("isomorphic-across-categories-and-dims",
     lambda: is_isomorphic(trivial_module(F3, 2, 1), trivial_module(make_field(5, 1), 3, 2)),
     ValueError, r"modules live in different categories"),
    # exactalg
    ("field-degree-one-modulus", lambda: Field(3, 1, (1, 1)), ValueError,
     r"degree-1 modulus must be x"),
    ("field-modulus-not-monic", lambda: Field(3, 2, (1, 0, 2)), ValueError,
     r"modulus must be monic of degree e"),
    ("inv-of-zero", lambda: F9.inv([1, 0]), ZeroDivisionError, r"inverse of zero field element"),
    ("inv-scalar-of-zero", lambda: F9.inv_scalar(0), ZeroDivisionError,
     r"inverse of zero field element"),
    ("code-too-many-coefficients", lambda: F9.code_of([1, 2, 0]), ValueError,
     r"too many coefficients"),
    ("matrix-not-2d", lambda: rank(F3, _zeros(3)), ValueError,
     r"matrix array must be 2-dimensional"),
    ("stack-ranks-not-3d", lambda: stack_ranks(F3, _zeros(2, 2)), ValueError,
     r"need a \(points, rows, cols\) stack"),
    ("solve-shape-mismatch", lambda: solve_linear(F3, _zeros(3, 2), _zeros(2, 1)),
     ValueError, r"shape mismatch: a has 3 rows, b has 2"),
    # jordan
    ("jordan-count-length", lambda: JordanType(3, (1, 0)), ValueError,
     r"need exactly 3 counts, got 2"),
    ("jordan-block-size", lambda: JordanType.from_blocks(3, {4: 1}), ValueError,
     r"block size 4 out of range \[1, 3\]"),
    ("jordan-sum-cap-mismatch",
     lambda: JordanType.from_blocks(3, [1]) + JordanType.from_blocks(5, [1]), ValueError,
     r"block-size cap mismatch"),
    ("nilpotent-not-square", lambda: from_nilpotent(CooMatrix.from_dense(F3, _zeros(2, 3)), 3), ValueError,
     r"matrix must be square"),
    # modrep
    ("module-no-generators", lambda: ModuleRep(F3, []), ValueError,
     r"need at least one generator action"),
    ("module-generator-not-square", lambda: ModuleRep(F3, [_zeros(2, 3)]), ValueError,
     r"generator actions must be square matrices"),
    ("module-generator-dims", lambda: ModuleRep(F3, [_zeros(2, 2), _zeros(3, 3)]), ValueError,
     r"generator actions must share one dimension"),
    ("module-code-negative", lambda: ModuleRep(F3, [[[0, -1], [0, 0]]]), ValueError,
     r"generator codes must lie in \[0, 3\) for GF\(3\^1\)"),
    # BLOCK2 with its zeros written as 3
    ("module-code-q", lambda: ModuleRep(F3, [np.where(BLOCK2.gens[0] == 0, 3, BLOCK2.gens[0])]),
     ValueError, r"generator codes must lie in \[0, 3\) for GF\(3\^1\)"),
    ("module-code-q-extension", lambda: ModuleRep(F9, [[[0, 9], [0, 0]]]), ValueError,
     r"generator codes must lie in \[0, 9\) for GF\(3\^2\)"),
    ("module-code-beyond-q-extension", lambda: ModuleRep(F9, [[[0, 10], [0, 0]]]), ValueError,
     r"generator codes must lie in \[0, 9\) for GF\(3\^2\)"),
    ("hom-code-negative", lambda: ModuleHom(K, K, [[-1]]), ValueError,
     r"hom matrix codes must lie in \[0, 3\) for GF\(3\^1\)"),
    ("hom-matrix-shape", lambda: ModuleHom(K, K, _zeros(2, 1)), ValueError,
     r"hom matrix must be 1 x 1, got \(2, 1\)"),
    ("hom-compose-shape", lambda: ModuleHom(K2, K, _zeros(1, 2)).compose(ONE), ValueError,
     r"composition shape mismatch"),
    ("jordan-block-module-size", lambda: jordan_block_module(F3, 4), ValueError,
     r"block size 4 out of range \[1, 3\]"),
    ("direct-sum-empty", lambda: direct_sum([]), ValueError, r"empty direct sum"),
    ("direct-sum-categories", lambda: direct_sum([K, trivial_module(F3, 3)]), ValueError,
     r"direct sum requires matching field, r and convention"),
    ("hom-space-categories", lambda: hom_space(K, trivial_module(F3, 3)), ValueError,
     r"hom_space requires matching field and r"),
    ("hom-space-system-size",
     lambda: hom_space(trivial_module(F3, 2, 200), trivial_module(F3, 2, 200)), ValueError,
     r"hom_space\(200-dim, 200-dim\) needs a dense system of 25600000000 bytes, "
     r"above the 1073741824-byte limit"),
    # 3 * (124 * 124)^2 * 8 bytes: tensor(Omega^1 k, Omega^1 k) at p = 5, r = 3
    ("tensor-generator-size", lambda: tensor(OMEGA_P5, OMEGA_P5), ValueError,
     r"tensor\(124-dim, 124-dim\) needs generators of 5674113024 bytes, "
     r"above the 1073741824-byte limit"),
    ("submodule-not-invariant", lambda: submodule(BLOCK2, E0), ValueError,
     r"subspace is not invariant under the generator actions"),
    ("quotient-not-invariant", lambda: quotient_module(BLOCK2, E0), ValueError,
     r"subspace is not invariant under the generator actions"),
    ("extension-source", lambda: build_extension(ONE, K), ValueError,
     r"fmap source must be the first Heller shift of `right`"),
    # polymat
    ("hompoly-exponent-vector", lambda: HomPoly(3, 2, {(1,): 1}), ValueError,
     r"bad exponent vector \(1,\)"),
    ("hompoly-mixed-degrees", lambda: HomPoly(3, 2, {(1, 0): 1, (2, 0): 1}), ValueError,
     r"terms do not share a total degree"),
    ("hompoly-add-degrees", lambda: X.add(XX), ValueError,
     r"cannot add homogeneous polynomials of different degree"),
    ("polymatrix-ragged", lambda: PolyMatrix(3, 2, [[X, Y], [X]]), ValueError,
     r"ragged polynomial matrix"),
    ("polymatrix-entry-ring", lambda: PolyMatrix(3, 2, [[HomPoly.variable(5, 2, 0)]]), ValueError,
     r"entry characteristic or variable count mismatch"),
    ("minor-gcd-profile", lambda: bivariate_minor_gcd(PolyMatrix(3, 2, [[X, XX], [XY, Y]]), 1),
     ValueError, r"degree profile must be row- or column-uniform"),
    ("minor-gcd-size", lambda: bivariate_minor_gcd(PolyMatrix(3, 2, [[X]]), 2), ValueError,
     r"minor size 2 out of range"),
    ("zero-search-size", lambda: common_zero_search(PolyMatrix(3, 2, [[X]]), 2, 1), ValueError,
     r"minor size 2 out of range"),
    # serialize
    ("json-generator-length",
     lambda: module_from_json({"p": 3, "r": 1, "dim": 2, "generators": [[0, 0, 0]]}), ValueError,
     r"generator needs 4 entries, got 3"),
    ("json-generator-count",
     lambda: module_from_json({"p": 3, "r": 2, "dim": 1, "generators": [[0]]}), ValueError,
     r"generator count does not match r"),
    ("json-polymatrix-entries",
     lambda: polymatrix_from_json({"p": 3, "nvars": 2, "rows": 1, "cols": 2, "entries": [[]]}),
     ValueError, r"need 2 entries, got 1"),
    # syzygy
    ("cocycle-degree", lambda: CocycleClass(0, ONE), ValueError, r"cocycle degree must be >= 1"),
    ("cocycle-target", lambda: CocycleClass(1, ModuleHom(K, K2, _zeros(2, 1))), ValueError,
     r"cocycle carrier must map to the trivial module"),
    ("omega-rank", lambda: omega_k(F3, 0, 1), ValueError, r"need r >= 1"),
    ("omega-formula-degree", lambda: omega_dim_formula(3, 2, 0), ValueError,
     r"closed formula applies to positive degrees"),
    ("cohomology-degree", lambda: cohomology_basis(F3, 2, 0), ValueError, r"need n >= 1"),
    ("restrict-with-tail",
     lambda: restrict_cocycle(factor_generator(F3, 2, 0, 1), PiPoint(F3, (1, 0), (((2, 0), 1),))),
     ValueError, r"cocycle restriction is defined at linear points"),
    ("factor-generator-index", lambda: factor_generator(F3, 2, 2, 1), ValueError,
     r"generator index 2 out of range"),
    ("factor-generator-degree", lambda: factor_generator(F3, 2, 0, 3), ValueError,
     r"factor generators are provided in degrees 1 and 2"),
    # zoo
    ("truncated-no-monomials", lambda: truncated_module(F3, 1, 3, 5), ValueError,
     r"no monomials of degree in \[3, 5\) with exponents below 3"),
    ("ke-mod-i2-rank", lambda: ke_mod_i2(F3, 0), ValueError, r"need r >= 1"),
    ("random-module-sizes", lambda: random_module(F3, 0, 2, 0), ValueError,
     r"need r >= 1 and dim >= 1"),
]


@pytest.mark.parametrize("call, exc, message", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_invalid_input_is_refused(call, exc, message):
    with pytest.raises(exc, match=message):
        call()


def test_json_codes_are_reduced_before_the_module_is_built():
    m = module_from_json({"p": 3, "r": 1, "dim": 2, "generators": [[0, -1, 3, 0]]})
    assert m.gens[0].tolist() == [[0, 2], [0, 0]]
