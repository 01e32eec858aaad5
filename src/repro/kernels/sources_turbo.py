"""Long steady-state streaming kernels.

These are not Table II kernels: they are deliberately long, branch-free
``xloop.uc`` streaming loops whose iteration schedules reach a steady
state within a few epochs and then repeat for thousands of iterations.
They exercise the backend-ladder conformance sweep and the sweep
service benches on the plainest streaming shape.  Their ``large``
scales intentionally exceed the L1 (unlike the Table II datasets) — a
streaming kernel's steady state includes its periodic cache misses.

All float workloads use small dyadic operands (multiples of 0.25), so
every product and sum is exactly representable in binary32 and the
pure-Python golden models compare exactly.
"""

from __future__ import annotations

from .base import KernelSpec, Workload, region, rng_for, scale_select

MASK32 = 0xFFFFFFFF

# ---------------------------------------------------------------------------
# vvadd-uc: elementwise integer vector add
# ---------------------------------------------------------------------------

VVADD_SRC = """
void vvadd(int* x, int* y, int* z, int n) {
    #pragma xloops unordered
    for (int i = 0; i < n; i++) {
        z[i] = x[i] + y[i];
    }
}
"""


def _vvadd_make(scale, seed):
    n = scale_select(scale, 48, 4096, 262144)
    rng = rng_for(seed, "vvadd")
    x = [rng.randrange(1 << 31) for _ in range(n)]
    y = [rng.randrange(1 << 31) for _ in range(n)]
    # each array spans up to 4 region slots (262144 words) at large
    # scale, so space them 4 slots apart
    xa, ya, za = region(0), region(4), region(8)

    def init(mem):
        mem.write_words(xa, x)
        mem.write_words(ya, y)

    def verify(mem):
        got = mem.read_words(za, n)
        for i in range(n):
            assert got[i] == (x[i] + y[i]) & MASK32, i

    return Workload(args=[xa, ya, za, n], init=init, verify=verify)


VVADD = KernelSpec(
    name="vvadd-uc", suite="C", loop_types=("uc",),
    source=VVADD_SRC, entry="vvadd", make=_vvadd_make,
    description="elementwise integer vector add (steady-state stream)")

# ---------------------------------------------------------------------------
# saxpy-uc: single-precision a*x + y
# ---------------------------------------------------------------------------

SAXPY_SRC = """
void saxpy(float a, float* x, float* y, int n) {
    #pragma xloops unordered
    for (int i = 0; i < n; i++) {
        y[i] = a * x[i] + y[i];
    }
}
"""


def _saxpy_make(scale, seed):
    n = scale_select(scale, 48, 4096, 131072)
    rng = rng_for(seed, "saxpy")
    a = 1.5
    x = [rng.randrange(-64, 65) * 0.25 for _ in range(n)]
    y = [rng.randrange(-64, 65) * 0.5 for _ in range(n)]
    # 131072 words fill two region slots each at large scale
    xa, ya = region(0), region(2)

    def init(mem):
        mem.write_floats(xa, x)
        mem.write_floats(ya, y)

    def verify(mem):
        got = mem.read_floats(ya, n)
        for i in range(n):
            assert got[i] == a * x[i] + y[i], i

    from ..sim.memory import f32_to_bits
    return Workload(args=[f32_to_bits(a), xa, ya, n],
                    init=init, verify=verify)


SAXPY = KernelSpec(
    name="saxpy-uc", suite="C", loop_types=("uc",),
    source=SAXPY_SRC, entry="saxpy", make=_saxpy_make,
    description="single-precision a*x+y (steady-state stream)")

# ---------------------------------------------------------------------------
# vvdiv-uc: elementwise integer divide (long-latency LLFU stream)
# ---------------------------------------------------------------------------

VVDIV_SRC = """
void vvdiv(int* x, int* y, int* z, int n) {
    #pragma xloops unordered
    for (int i = 0; i < n; i++) {
        z[i] = x[i] / y[i];
    }
}
"""


def _vvdiv_make(scale, seed):
    n = scale_select(scale, 48, 4096, 131072)
    rng = rng_for(seed, "vvdiv")
    x = [rng.randrange(1 << 30) for _ in range(n)]
    y = [rng.randrange(1, 97) for _ in range(n)]
    # 131072 words fill two region slots each at large scale
    xa, ya, za = region(0), region(2), region(4)

    def init(mem):
        mem.write_words(xa, x)
        mem.write_words(ya, y)

    def verify(mem):
        got = mem.read_words(za, n)
        for i in range(n):
            assert got[i] == x[i] // y[i], i

    return Workload(args=[xa, ya, za, n], init=init, verify=verify)


VVDIV = KernelSpec(
    name="vvdiv-uc", suite="C", loop_types=("uc",),
    source=VVDIV_SRC, entry="vvdiv", make=_vvdiv_make,
    description="elementwise integer divide (LLFU-bound stream)")

# ---------------------------------------------------------------------------
# divchain-uc: dependent integer divide chain (stall-dominated)
# ---------------------------------------------------------------------------

DIVCHAIN_SRC = """
void divchain(int* x, int* y, int* z, int n) {
    #pragma xloops unordered
    for (int i = 0; i < n; i++) {
        z[i] = x[i] / y[i] / (y[i] + 3);
    }
}
"""


def _divchain_make(scale, seed):
    n = scale_select(scale, 48, 4096, 131072)
    rng = rng_for(seed, "divchain")
    x = [rng.randrange(1 << 30) for _ in range(n)]
    y = [rng.randrange(2, 49) for _ in range(n)]
    # 131072 words fill two region slots each at large scale
    xa, ya, za = region(0), region(2), region(4)

    def init(mem):
        mem.write_words(xa, x)
        mem.write_words(ya, y)

    def verify(mem):
        got = mem.read_words(za, n)
        for i in range(n):
            assert got[i] == x[i] // y[i] // (y[i] + 3), i

    return Workload(args=[xa, ya, za, n], init=init, verify=verify)


DIVCHAIN = KernelSpec(
    name="divchain-uc", suite="C", loop_types=("uc",),
    source=DIVCHAIN_SRC, entry="divchain", make=_divchain_make,
    description="dependent integer divide chain (stall-bound stream)")

# ---------------------------------------------------------------------------
# cmult-uc: complex multiply over split re/im arrays
# ---------------------------------------------------------------------------

CMULT_SRC = """
void cmult(float* ar, float* ai, float* br, float* bi,
           float* cr, float* ci, int n) {
    #pragma xloops unordered
    for (int i = 0; i < n; i++) {
        cr[i] = ar[i] * br[i] - ai[i] * bi[i];
        ci[i] = ar[i] * bi[i] + ai[i] * br[i];
    }
}
"""


def _cmult_make(scale, seed):
    n = scale_select(scale, 48, 2048, 65536)
    rng = rng_for(seed, "cmult")
    vals = [[rng.randrange(-16, 17) * 0.25 for _ in range(n)]
            for _ in range(4)]
    ar, ai, br, bi = vals
    addrs = [region(j) for j in range(6)]

    def init(mem):
        for addr, v in zip(addrs[:4], vals):
            mem.write_floats(addr, v)

    def verify(mem):
        gr = mem.read_floats(addrs[4], n)
        gi = mem.read_floats(addrs[5], n)
        for i in range(n):
            assert gr[i] == ar[i] * br[i] - ai[i] * bi[i], i
            assert gi[i] == ar[i] * bi[i] + ai[i] * br[i], i

    return Workload(args=addrs + [n], init=init, verify=verify)


CMULT = KernelSpec(
    name="cmult-uc", suite="C", loop_types=("uc",),
    source=CMULT_SRC, entry="cmult", make=_cmult_make,
    description="complex multiply over split re/im arrays")

#: the streaming kernels, steadiest first
TURBO_KERNELS = (VVADD, SAXPY, VVDIV, DIVCHAIN, CMULT)
