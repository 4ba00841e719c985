"""The paper's program fragments, ready to analyze.

Each function returns a fresh :class:`~repro.lang.ast.Program` for one of
the fragments in the paper — the two figures with code (1 and 4) and the
five worked examples of Section 2.1 — plus parameterized generators used
by the benchmark harness.
"""

from __future__ import annotations

from .ast import Program
from .parser import parse


def figure1(n: int = 100) -> Program:
    """Figure 1(a): the motivating mobile-alignment fragment.

    ::

        real A(100,100), V(200)
        do k = 1, 100
          A(k,1:100) = A(k,1:100) + V(k:k+99)
        enddo

    The optimal alignment is mobile: ``V(i) at [k, i-k+1]`` (Example 4).
    """
    return parse(
        f"""
real A({n},{n}), V({2 * n})
do k = 1, {n}
  A(k,1:{n}) = A(k,1:{n}) + V(k:k+{n - 1})
enddo
""",
        name="figure1",
    )


def figure4(nt: int = 100, nk: int = 200) -> Program:
    """Figure 4: replication of the array ``t`` feeding a spread.

    ::

        real t(100), B(100,200)
        do K = 1, 200
          t = cos(t)
          B = B + spread(t, dim=2, ncopies=200)
        enddo

    With ``t`` replicated along template axis 2, one broadcast happens at
    loop entry; non-replicated, one broadcast per iteration.
    """
    return parse(
        f"""
real t({nt}), B({nt},{nk})
do K = 1, {nk}
  t = cos(t)
  B = B + spread(t, dim=2, ncopies={nk})
enddo
""",
        name="figure4",
    )


def example1(n: int = 100) -> Program:
    """Example 1 (offset): ``A(1:N-1) = A(1:N-1) + B(2:N)``."""
    return parse(
        f"""
real A({n}), B({n})
A(1:{n - 1}) = A(1:{n - 1}) + B(2:{n})
""",
        name="example1",
    )


def example2(n: int = 100) -> Program:
    """Example 2 (stride): ``A(1:N) = A(1:N) + B(2:2*N:2)``."""
    return parse(
        f"""
real A({n}), B({2 * n})
A(1:{n}) = A(1:{n}) + B(2:{2 * n}:2)
""",
        name="example2",
    )


def example3(n: int = 64) -> Program:
    """Example 3 (axis): ``B = B + transpose(C)``."""
    return parse(
        f"""
real B({n},{n}), C({n},{n})
B = B + transpose(C)
""",
        name="example3",
    )


def example5(iters: int = 50, m: int = 20) -> Program:
    """Example 5 (mobile stride)::

        real A(1000), B(1000), V(20)
        do k = 1, 50
          V = V + A(1:20*k:k)
          B(1:20*k:k) = V
        enddo

    Static stride for V costs two general communications per iteration;
    the mobile stride ``V(i) at [k*i]`` costs one.
    """
    n = iters * m
    return parse(
        f"""
real A({n}), B({n}), V({m})
do k = 1, {iters}
  V = V + A(1:{m}*k:k)
  B(1:{m}*k:k) = V
enddo
""",
        name="example5",
    )


def lookup_table(n: int = 256, m: int = 1000) -> Program:
    """A vector-valued-subscript workload: replicated lookup table.

    Section 5 lists lookup tables indexed by vector-valued subscripts as a
    replication source (replicated "with the programmer's permission" —
    the ``replicated`` attribute here).
    """
    return parse(
        f"""
readonly replicated real tab({n})
integer idx({m})
real y({m})
y(1:{m}) = gather(tab, idx(1:{m}))
""",
        name="lookup_table",
    )


def stencil_sweep(n: int = 128, iters: int = 10) -> Program:
    """A 1-D three-point stencil sweep: classic static offset workload."""
    return parse(
        f"""
real U({n}), W({n})
do t = 1, {iters}
  W(2:{n - 1}) = U(1:{n - 2}) + U(2:{n - 1}) + U(3:{n})
  U(2:{n - 1}) = W(2:{n - 1})
enddo
""",
        name="stencil_sweep",
    )


def skewed_wavefront(n: int = 64) -> Program:
    """A wavefront access pattern needing mobile offsets (like Figure 1).

    Each iteration reads a diagonal band of ``V`` against a row of ``A``,
    so the best offset for ``V`` moves with ``k``.
    """
    return parse(
        f"""
real A({n},{n}), V({2 * n})
do k = 1, {n}
  A(k,1:{n}) = A(k,1:{n}) * V(k:k+{n - 1}) + V(k+1:k+{n})
enddo
""",
        name="skewed_wavefront",
    )


def triangular_sections(iters: int = 40, m: int = 8) -> Program:
    """Variable-size objects (Section 4.3): section extent grows with k."""
    n = iters * m
    return parse(
        f"""
real A({n}), B({n}), C({n})
do k = 1, {iters}
  B(1:{m}*k) = A(1:{m}*k) + C(1:{m}*k)
enddo
""",
        name="triangular_sections",
    )


def doubly_nested(n: int = 16) -> Program:
    """A 2-deep loop nest exercising Section 4.4 (3^k subranges)."""
    return parse(
        f"""
real A({2 * n},{2 * n}), V({4 * n})
do i = 1, {n}
  do j = 1, {n}
    A(i,j:j+{n - 1}) = A(i,j:j+{n - 1}) + V(i+j:i+j+{n - 1})
  enddo
enddo
""",
        name="doubly_nested",
    )


def conditional_update(n: int = 100) -> Program:
    """Branch/merge structure for branch-node tests."""
    return parse(
        f"""
real A({n}), B({n})
do k = 1, 10
  if (converged) then
    A(1:{n}) = A(1:{n}) + B(1:{n})
  else
    A(1:{n - 1}) = B(2:{n})
  endif
enddo
""",
        name="conditional_update",
    )


ALL_PAPER_FRAGMENTS = {
    "figure1": figure1,
    "figure4": figure4,
    "example1": example1,
    "example2": example2,
    "example3": example3,
    "example5": example5,
}
