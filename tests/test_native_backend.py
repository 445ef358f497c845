"""Native C backend: parity with the Python kernels, OpenMP flavours,
artifact caching, and fallback behaviour.

Every test is toolchain-tolerant: where no C compiler exists the backend
falls back to the Python kernel (with a NativeBackendWarning), and the
numerical assertions hold either way.  Tests that specifically exercise
the *native* path first check ``find_compiler()`` and skip without one.
"""

from __future__ import annotations

import os
import warnings

import numpy as np
import pytest

from repro.core import NativeBackendWarning, PlanError, compile_kernel
from repro.core import backend as be
from repro.formats import as_format
from repro.formats.generate import lower_triangular_of, random_sparse
from repro.instrument import INSTR
from repro.ir.kernels import ALL_KERNELS

FORMATS = ["csr", "csc", "coo", "dia", "ell", "jad", "bsr", "msr"]

N = 12  # even, so bsr block_size=2 tiles exactly


def _fmt(matrix, name):
    kwargs = {"block_size": 2} if name == "bsr" else {}
    return as_format(matrix, name, **kwargs)


@pytest.fixture(scope="module")
def square():
    return random_sparse(N, N, density=0.35, seed=42).to_dense()


@pytest.fixture(scope="module")
def lower():
    return lower_triangular_of(random_sparse(N, N, 0.35, seed=7))


def _compile_pair(kernel_name, array_name, fmt, parallel="none"):
    """(python kernel, c kernel) for the same program/bindings."""
    prog = ALL_KERNELS[kernel_name]()
    kp = compile_kernel(prog, {array_name: fmt})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NativeBackendWarning)
        kc = compile_kernel(ALL_KERNELS[kernel_name](), {array_name: fmt},
                            backend="c", parallel=parallel)
    return kp, kc


class TestParity:
    """backend="c" must be numerically identical to backend="python"
    across the full format x kernel matrix (acceptance criterion)."""

    @pytest.mark.parametrize("fmt_name", FORMATS)
    def test_mvm(self, fmt_name, square, rng):
        A = _fmt(square, fmt_name)
        kp, kc = _compile_pair("mvm", "A", A)
        x = rng.random(N)
        yp, yc = np.zeros(N), np.zeros(N)
        params = {"m": N, "n": N}
        kp({"A": A, "x": x, "y": yp}, params)
        kc({"A": A, "x": x, "y": yc}, params)
        assert np.array_equal(yp, yc)

    @pytest.mark.parametrize("fmt_name", FORMATS)
    def test_ts_lower(self, fmt_name, lower, rng):
        try:
            L = _fmt(lower, fmt_name)
        except (ValueError, NotImplementedError) as e:
            pytest.skip(f"{fmt_name} cannot hold this operand: {e}")
        try:
            kp, kc = _compile_pair("ts_lower", "L", L)
        except PlanError as e:
            pytest.skip(f"no legal plan for ts on {fmt_name}: {e}")
        b = rng.random(N)
        bp, bc = b.copy(), b.copy()
        params = {"m": N, "n": N}
        kp({"L": L, "b": bp}, params)
        kc({"L": L, "b": bc}, params)
        assert np.array_equal(bp, bc)

    def test_run_also_dispatches_native(self, square, rng):
        A = _fmt(square, "csr")
        kp, kc = _compile_pair("mvm", "A", A)
        x = rng.random(N)
        yp, yc = np.zeros(N), np.zeros(N)
        kp.run({"A": A, "x": x, "y": yp}, {"m": N, "n": N})
        kc.run({"A": A, "x": x, "y": yc}, {"m": N, "n": N})
        assert np.array_equal(yp, yc)

    def test_int32_indices(self, square, rng):
        A = _fmt(square, "csr")
        for name in ("rowptr", "colind"):
            setattr(A, name, getattr(A, name).astype(np.int32))
        kp, kc = _compile_pair("mvm", "A", A)
        x = rng.random(N)
        yp, yc = np.zeros(N), np.zeros(N)
        kp({"A": A, "x": x, "y": yp}, {"m": N, "n": N})
        kc({"A": A, "x": x, "y": yc}, {"m": N, "n": N})
        assert np.array_equal(yp, yc)
        if kc.backend_used != "python":
            assert "int32_t *" in kc.c_source


@pytest.mark.skipif(be.find_compiler() is None, reason="no C compiler")
class TestOpenMP:
    def test_strict_parity(self, square, rng):
        A = _fmt(square, "csr")
        kp, kc = _compile_pair("mvm", "A", A, parallel="strict")
        x = rng.random(N)
        yp, yc = np.zeros(N), np.zeros(N)
        kp({"A": A, "x": x, "y": yp}, {"m": N, "n": N})
        kc({"A": A, "x": x, "y": yc}, {"m": N, "n": N})
        # strict DOALL loops reorder nothing within a reduction:
        # byte-identical results are required, not just allclose
        assert np.array_equal(yp, yc)
        if be.openmp_supported(be.find_compiler()):
            assert kc.backend_used == "c+openmp"
            assert "#pragma omp parallel for" in kc.c_source

    def test_atomic_parity(self, square, rng):
        A = _fmt(square, "csc")
        kp, kc = _compile_pair("mvm", "A", A, parallel="atomic")
        x = rng.random(N)
        yp, yc = np.zeros(N), np.zeros(N)
        kp({"A": A, "x": x, "y": yp}, {"m": N, "n": N})
        kc({"A": A, "x": x, "y": yc}, {"m": N, "n": N})
        # atomic accumulation may reassociate the reduction
        assert np.allclose(yp, yc, rtol=1e-12, atol=1e-14)
        if be.openmp_supported(be.find_compiler()):
            assert "#pragma omp atomic" in kc.c_source

    def test_sequential_kernel_has_no_pragmas(self, lower):
        L = _fmt(lower, "csr")
        _, kc = _compile_pair("ts_lower", "L", L, parallel="strict")
        if kc.backend_used == "python":
            pytest.skip("native path unavailable")
        # forward substitution has no strict DOALL loop
        assert "#pragma omp parallel for" not in kc.c_source


class TestObservability:
    def test_repr_records_backend(self, square):
        A = _fmt(square, "csr")
        _, kc = _compile_pair("mvm", "A", A)
        r = repr(kc)
        if kc.fallback_reason is None:
            assert "backend=c->c" in r
        else:
            assert "backend=c->python-fallback" in r

    def test_python_backend_repr_unchanged(self, square):
        A = _fmt(square, "csr")
        kp, _ = _compile_pair("mvm", "A", A)
        assert "backend=" not in repr(kp)

    def test_run_counters(self, square, rng):
        A = _fmt(square, "csr")
        _, kc = _compile_pair("mvm", "A", A)
        x = rng.random(N)
        before = INSTR.snapshot()["counters"]
        kc({"A": A, "x": x, "y": np.zeros(N)}, {"m": N, "n": N})
        after = INSTR.snapshot()["counters"]
        bumped = "backend.run.native" if kc.backend_used != "python" \
            else "backend.run.python"
        assert after.get(bumped, 0) == before.get(bumped, 0) + 1

    def test_lowering_fallback_is_observable(self, lower, rng):
        # COO triangular solve plans through a sorted enumeration, which
        # the lowering rejects: the kernel must fall back, record why,
        # and still compute the right answer
        L = _fmt(lower, "coo")
        prog = ALL_KERNELS["ts_lower"]()
        with pytest.warns(NativeBackendWarning):
            kc = compile_kernel(prog, {"L": L}, backend="c", cache="off")
        assert kc.backend_used == "python"
        assert kc.fallback_reason is not None
        assert kc.fallback_reason.startswith("lowering:")
        assert "python-fallback" in repr(kc)
        b = rng.random(N)
        got = b.copy()
        kc({"L": L, "b": got}, {"m": N, "n": N})
        kp = compile_kernel(ALL_KERNELS["ts_lower"](), {"L": L})
        want = b.copy()
        kp({"L": L, "b": want}, {"m": N, "n": N})
        assert np.array_equal(got, want)


class TestFallback:
    def test_no_toolchain_falls_back(self, square, rng, monkeypatch):
        """With no C compiler every kernel still works (acceptance
        criterion: no hard dependency on a toolchain)."""
        monkeypatch.setenv("REPRO_CC", "none")
        be.reset_toolchain_cache()
        try:
            A = _fmt(square, "csr")
            before = INSTR.get("native.fallback.toolchain")
            with pytest.warns(NativeBackendWarning):
                kc = compile_kernel(ALL_KERNELS["mvm"](), {"A": A},
                                    backend="c", cache="off")
            assert kc.backend_used == "python"
            assert kc.fallback_reason.startswith("toolchain:")
            assert INSTR.get("native.fallback.toolchain") == before + 1
            x = rng.random(N)
            y = np.zeros(N)
            kc({"A": A, "x": x, "y": y}, {"m": N, "n": N})
            assert np.allclose(y, square @ x)
        finally:
            monkeypatch.delenv("REPRO_CC", raising=False)
            be.reset_toolchain_cache()

    def test_invalid_backend_rejected(self, square):
        with pytest.raises(ValueError, match="backend"):
            compile_kernel(ALL_KERNELS["mvm"](), {"A": _fmt(square, "csr")},
                           backend="fortran")
        with pytest.raises(ValueError, match="parallel"):
            compile_kernel(ALL_KERNELS["mvm"](), {"A": _fmt(square, "csr")},
                           parallel="speculative")


class TestFloorDiv:
    """Satellite: Python // floors, C / truncates toward zero — both the
    C-like renderer and the native lowering must be floor-correct."""

    def test_renderer_emits_fdiv(self):
        from repro.codegen.csource import python_to_c_like

        src = "def kernel(arrays, params):\n    a = b // 2\n"
        c = python_to_c_like(src)
        assert "_fdiv(b, 2)" in c
        assert "static long _fdiv" in c  # declared, so the text stands alone
        assert "(b / 2)" not in c

    @pytest.mark.skipif(be.find_compiler() is None, reason="no C compiler")
    def test_native_fdiv_floors_negative_operands(self):
        import ctypes

        from repro.codegen import native

        src = (native._helper_fdiv() +
               "\nvoid kernel(int64_t *out, int64_t a, int64_t b)"
               " { out[0] = _fdiv(a, b); }\n")
        src = "#include <stdint.h>\n" + src
        fn, _ = be.compile_native_function(src, want_openmp=False,
                                           cache_mode="off")
        fn.argtypes = [ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64]
        fn.restype = None
        out = np.zeros(1, dtype=np.int64)
        for a in (-7, -1, 0, 1, 7):
            for b in (-3, -2, 2, 3):
                fn(out.ctypes.data, a, b)
                assert out[0] == a // b, (a, b)


@pytest.mark.skipif(be.find_compiler() is None, reason="no C compiler")
class TestArtifactCache:
    def _compile_c(self, square, cache):
        A = _fmt(square, "csr")
        return compile_kernel(ALL_KERNELS["mvm"](), {"A": A}, backend="c",
                              cache=cache), A

    def test_disk_artifact_written_and_reloaded(self, square, rng,
                                                monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        be.reset_toolchain_cache()
        kc, A = self._compile_c(square, "disk")
        assert kc.backend_used != "python"
        sos = list(tmp_path.rglob("*.so"))
        assert len(sos) == 1, "exactly one .so artifact persisted"
        assert sos[0].parent.name == sos[0].name[:2], "sharded by digest prefix"

        # a fresh process would have an empty memory layer: simulate by
        # clearing it, then recompile — must be served from disk
        be.reset_toolchain_cache()
        before = INSTR.get("native.so_cache.hits.disk")
        kc2, _ = self._compile_c(square, "disk")
        assert INSTR.get("native.so_cache.hits.disk") == before + 1
        x = rng.random(N)
        y = np.zeros(N)
        kc2({"A": A, "x": x, "y": y}, {"m": N, "n": N})
        assert np.allclose(y, square @ x)
        be.reset_toolchain_cache()

    def test_corrupt_artifact_is_a_miss(self, square, rng, monkeypatch,
                                        tmp_path):
        # the artifact must come from ANOTHER process: dlopen dedups
        # already-loaded objects by path, so a .so this process compiled
        # and loaded would never be re-read from disk
        import subprocess
        import sys

        env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path),
                   PYTHONPATH="src")
        seed = (
            "import numpy as np\n"
            "from repro.core import compile_kernel\n"
            "from repro.formats import as_format\n"
            "from repro.formats.generate import random_sparse\n"
            "from repro.ir.kernels import ALL_KERNELS\n"
            f"A = as_format(random_sparse({N}, {N}, density=0.35, "
            "seed=42).to_dense(), 'csr')\n"
            "k = compile_kernel(ALL_KERNELS['mvm'](), {'A': A}, "
            "backend='c', cache='disk')\n"
            "assert k.backend_used != 'python', k.fallback_reason\n"
        )
        subprocess.run([sys.executable, "-c", seed], env=env, check=True,
                       cwd=os.path.dirname(os.path.dirname(
                           os.path.abspath(__file__))))
        [so] = tmp_path.rglob("*.so")
        so.write_bytes(b"not an ELF object")

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        be.reset_toolchain_cache()
        before = INSTR.get("native.so_cache.corrupt")
        kc, A = self._compile_c(square, "disk")
        assert INSTR.get("native.so_cache.corrupt") == before + 1
        assert kc.backend_used != "python"
        x = rng.random(N)
        y = np.zeros(N)
        kc({"A": A, "x": x, "y": y}, {"m": N, "n": N})
        assert np.allclose(y, square @ x)
        be.reset_toolchain_cache()

    def test_scratch_dir_removed_at_exit(self, tmp_path):
        """A process that binds a kernel without the disk cache builds its
        ``.so`` in a ``repro-native-*`` folder under TMPDIR; the folder is
        gone once the process exits, and a forked child exiting first
        leaves its parent's folder alone."""
        import subprocess
        import sys

        if be.find_compiler() is None:
            pytest.skip("no C compiler")
        env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH="src",
                   REPRO_COMPILE_CACHE="off")
        script = (
            "import os, sys\n"
            "from repro.core import backend as be, compile_kernel\n"
            "from repro.formats import as_format\n"
            "from repro.formats.generate import random_sparse\n"
            "from repro.ir.kernels import ALL_KERNELS\n"
            f"A = as_format(random_sparse({N}, {N}, density=0.35, "
            "seed=42).to_dense(), 'csr')\n"
            "k = compile_kernel(ALL_KERNELS['mvm'](), {'A': A}, "
            "backend='c')\n"
            "assert k.backend_used != 'python', k.fallback_reason\n"
            "d = be._scratch_dir()\n"
            "assert any(f.endswith('.so') for f in os.listdir(d))\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    sys.exit(0)\n"
            "os.waitpid(pid, 0)\n"
            "assert os.path.isdir(d), 'a forked child removed the folder'\n"
            "print(d)\n"
        )
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             check=True, capture_output=True, text=True,
                             cwd=os.path.dirname(os.path.dirname(
                                 os.path.abspath(__file__))))
        scratch = out.stdout.strip()
        assert os.path.dirname(scratch) == str(tmp_path)
        assert not os.path.exists(scratch)
        assert not list(tmp_path.glob("repro-native-*"))

    def test_memory_layer_hit(self, square):
        kc, _ = self._compile_c(square, "off")
        assert kc.backend_used != "python"
        before = INSTR.get("native.so_cache.hits.memory")
        kc2, _ = self._compile_c(square, "off")
        assert INSTR.get("native.so_cache.hits.memory") == before + 1
        assert kc2.backend_used != "python"
