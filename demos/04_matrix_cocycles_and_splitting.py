"""Matrix cocycles on Z^d: deformed antipodes and the two-part splitting.

Every complex d x d matrix A gives a 2-cocycle L(k, l) = k·A·l^T on the
group algebra of Z^d.  Because the instance is cocommutative, L splits as

    L = (1/2) d(sigma)  +  L2,      sigma(k) = -k·A·k^T,

where the first part is a coboundary (a trivial deformation) and L2 comes
from the antisymmetric part of A and generates constant antipodes.  For a
hermitian A (a star-deformation) the retained part is purely imaginary on
the group basis.  Matrices are plain nested lists: the library needs
nothing beyond the standard library.
"""
import hopfdeform as hd

z2 = hd.group_algebra_zd(2)
A = [[0.0, 1.0], [0.0, 0.0]]
L = hd.make_zd_matrix_cocycle(z2, A)
sampler = hd.ElementSampler(z2, seed=99, coord_bound=2, budget=120)
D = hd.make_deformation(z2, L, sampler)

sig = D.sigma()
print("sigma(k) = -k·A·k^T on a few keys:")
for k in [(1, 0), (0, 1), (1, 1), (2, -1)]:
    print(f"  sigma{k} = {hd.format_scalar(sig.value((k,)))}")
print()

print("deformed antipodes S_t((k)) = e^(t k·A·k^T) (-k):")
for t in (-1.0, 1.0):
    St = hd.deformed_antipode(D, t)
    out = St(z2.basis_element((1, 1)))
    print(f"  t={t:4.1f}: S_t((1,1)) = {hd.format_element(out)}")
print()

L1, L2, report = hd.split_cocommutative(D, sampler.spawn(1), samples=120)
print("split L = L1 + L2 with L1 = (1/2) d(sigma):")
for line in report.summary_lines():
    print(" ", line)
# (1,0)·skew·(0,1)^T is the (0, 1) entry of the antisymmetric part (A - A^T)/2
expected = (A[0][1] - A[1][0]) / 2
print("L2((1,0),(0,1)) =", hd.format_scalar(L2.value(((1, 0), (0, 1)))),
      " expected", hd.format_scalar(complex(expected)))
print()

# hermitian cocycle: the star law holds and L2 is purely imaginary
Ah = [[1.0, 0.5 + 0.5j], [0.5 - 0.5j, 1.0]]
Lh = hd.make_zd_matrix_cocycle(z2, Ah)
sh = hd.ElementSampler(z2, seed=7, coord_bound=1, budget=120)
Dh = hd.make_deformation(z2, Lh, sh, require_star=True)
_, L2h, hrep = hd.split_cocommutative(Dh, sh.spawn(1), samples=120)
print("hermitian A:", "all split laws pass =", hrep.overall_pass)
print("L2((1,0),(0,1)) =", hd.format_scalar(L2h.value(((1, 0), (0, 1)))),
      "(purely imaginary)")
star_rep = hd.star_deformation_check(Dh, sh.spawn(2), samples=120)
print("star law:", "pass =", star_rep.overall_pass)
