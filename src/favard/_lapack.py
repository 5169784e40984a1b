"""LAPACK's tridiagonal and bidiagonal solvers, reached through SciPy's Cython LAPACK capsules.

``scipy.linalg.cython_lapack`` exports every routine as a C function pointer
in ``__pyx_capi__``; ctypes calls it directly (the route numba takes).
The module is loaded from its file without running ``scipy/linalg/__init__``
(``_capsules``).  A Jacobi section with zero diagonal is split into a
bidiagonal B and solved by ``dlasq1`` (dqds, singular values to high
relative accuracy; Fernando & Parlett, Numer. Math. 67, 1994) and
``dbdsdc`` (divide and conquer, singular vectors; Gu & Eisenstat, SIAM J.
Matrix Anal. Appl. 16, 1995), neither of which forms B^T B.  Any other
section takes ``dsterf`` (eigenvalues) and ``dstemr`` (eigenvectors).
``gauss_nodes`` is the one node solve.  dbdsdc's merges call the OpenBLAS
behind ``cython_lapack``, whose threaded dgemm sums in an order that depends
on the thread count; each call runs on one thread (``_call``), so the
vectors are the same bits on any machine setting.
"""

import ctypes
import functools
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

from .errors import EigenError

_INT, _PTR = ctypes.POINTER(ctypes.c_int), ctypes.c_void_p
_SIGNATURES = {
    "dlasq1": (_INT, _PTR, _PTR, _PTR, _INT),
    "dbdsdc": (ctypes.c_char_p, ctypes.c_char_p, _INT, _PTR, _PTR, _PTR, _INT, _PTR, _INT,
               _PTR, _PTR, _PTR, _PTR, _INT),
    "dsterf": (_INT, _PTR, _PTR, _INT),
    "dstemr": (ctypes.c_char_p, ctypes.c_char_p, _INT, _PTR, _PTR, _PTR, _PTR, _INT, _INT, _INT,
               _PTR, _PTR, _INT, _INT, _PTR, _INT, _PTR, _INT, _PTR, _INT, _INT),
}


@functools.cache
def _capsules() -> dict:
    """``__pyx_capi__`` of ``scipy.linalg.cython_lapack``, loaded on first use.

    A plain import runs ``scipy/linalg/__init__`` first, which loads 85 SciPy
    modules; the capsule module itself needs only the ``scipy`` package.  So
    it is found in SciPy's ``linalg`` directory and executed on its own,
    unless it is loaded already; a finder that returns nothing falls back to
    the plain import.  Loading it registers it in ``sys.modules`` without
    its package, so the entry is dropped again: a later ``import
    scipy.linalg`` then loads it the usual way, gets this same extension
    module back and binds it as the package's attribute.
    """
    name = "scipy.linalg.cython_lapack"
    module = sys.modules.get(name)
    if module is None:
        import scipy

        spec = importlib.machinery.PathFinder.find_spec(
            name, [os.path.join(path, "linalg") for path in scipy.__path__])
        if spec is None:
            from scipy.linalg import cython_lapack as module
        else:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules.pop(name, None)
    return module.__pyx_capi__


@functools.cache
def _routine(name: str):
    capsule = _capsules()[name]
    api = ctypes.pythonapi
    api.PyCapsule_GetName.restype, api.PyCapsule_GetName.argtypes = ctypes.c_char_p, [ctypes.py_object]
    api.PyCapsule_GetPointer.restype = ctypes.c_void_p
    api.PyCapsule_GetPointer.argtypes = [ctypes.py_object, ctypes.c_char_p]
    pointer = api.PyCapsule_GetPointer(capsule, api.PyCapsule_GetName(capsule))
    return ctypes.CFUNCTYPE(None, *_SIGNATURES[name])(pointer)


@functools.cache
def _blas_threads():
    """(get, set) of the thread count of SciPy's bundled OpenBLAS, or None.

    The library sits in the ``scipy.libs`` directory next to the package (the
    wheel layout); a SciPy built against another BLAS has no such file or
    symbol, and then nothing is pinned.
    """
    import glob

    import scipy

    for folder in scipy.__path__:
        pattern = os.path.join(os.path.dirname(folder), "scipy.libs", "libscipy_openblas*.so*")
        for path in sorted(glob.glob(pattern)):
            try:
                lib = ctypes.CDLL(path)
                get, put = lib.scipy_openblas_get_num_threads, lib.scipy_openblas_set_num_threads
            except (OSError, AttributeError):
                continue
            get.restype, get.argtypes = ctypes.c_int, []
            put.restype, put.argtypes = None, [ctypes.c_int]
            return get, put
    return None


def _call(name: str, n: int, *args) -> None:
    """Call a LAPACK routine with SciPy's OpenBLAS on one thread, then restore its count."""
    info, routine = ctypes.c_int(0), _routine(name)
    get, put = _blas_threads() or (lambda: None, lambda count: None)
    saved = get()
    put(1)
    try:
        routine(*args, ctypes.byref(info))
    finally:
        put(saved)
    if info.value != 0:
        raise EigenError(f"LAPACK {name} failed for a matrix of order {n}: info={info.value}")


def split_bidiagonal(b: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray]:
    """(d, e) of the lower bidiagonal B with J = [[0, B], [B^T, 0]] after the even/odd split.

    J is the N x N Jacobi section with zero diagonal and off-diagonal b.  For
    N = 2h + r, B is (h + r)-square with diagonal b_0, b_2, ... and
    subdiagonal b_1, b_3, ...; for odd N its last diagonal entry is 0, which
    gives the centre node 0.
    """
    b = np.asarray(b[:N - 1], dtype=float)
    d = np.zeros((N + 1) // 2)
    d[:N // 2] = b[0::2]
    return d, b[1::2]


def singular_values(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Singular values, descending, of the bidiagonal with diagonal d and off-diagonal e (dqds)."""
    n = d.size
    s, work = np.array(d, dtype=float), np.zeros(4 * n)
    off = np.zeros(n)
    off[:n - 1] = e
    _call("dlasq1", n, ctypes.byref(ctypes.c_int(n)), s.ctypes.data, off.ctypes.data,
          work.ctypes.data)
    return s


def singular_vectors(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(U, V) with B = U diag(s) V^T for the lower bidiagonal B (diagonal d, subdiagonal e).

    Divide and conquer (``dbdsdc``); the columns follow descending singular
    values s, and U and V are Fortran-ordered.
    """
    n = d.size
    s, off = np.array(d, dtype=float), np.zeros(max(n - 1, 1))
    off[:n - 1] = e
    U, Vt = np.empty((n, n), order="F"), np.empty((n, n), order="F")
    work, iwork = np.empty(3 * n * n + 4 * n), np.empty(8 * n, dtype=np.intc)
    size = ctypes.byref(ctypes.c_int(n))
    _call("dbdsdc", n, b"L", b"I", size, s.ctypes.data, off.ctypes.data, U.ctypes.data, size,
          Vt.ctypes.data, size, None, None, work.ctypes.data, iwork.ctypes.data)
    return U, Vt.T


def gauss_nodes(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Jacobi section with diagonal c and off-diagonal b:
    the nodes of the N-point Gauss rule, N = c.size.

    A zero diagonal takes +-sigma for the singular values sigma of
    ``split_bidiagonal``'s B (dqds), mirrored exactly; any other ``dsterf``.
    """
    N = c.size
    if not np.any(c):
        half = singular_values(*split_bidiagonal(b, N))[::-1]
        return np.concatenate((-half[N % 2:][::-1], half))
    x, e = np.array(c, dtype=float), np.zeros(max(N - 1, 1))
    e[:N - 1] = b[:N - 1]
    _call("dsterf", N, ctypes.byref(ctypes.c_int(N)), x.ctypes.data, e.ctypes.data)
    return x


def eigenvectors(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Eigenvectors of the Jacobi section with diagonal c and off-diagonal b, by ``dstemr``.

    TRYRAC is set, as SciPy sets it.  The columns follow ascending
    eigenvalues, the order of ``gauss_nodes``; dstemr's own are dropped.
    """
    N = c.size
    d, e = np.array(c, dtype=float), np.zeros(N)
    e[:N - 1] = b[:N - 1]
    w, Z, isuppz = np.empty(N), np.empty((N, N), order="F"), np.empty(2 * N, dtype=np.intc)
    work, iwork = np.empty(18 * N), np.empty(10 * N, dtype=np.intc)
    size, found, by = ctypes.c_int(N), ctypes.c_int(), ctypes.byref
    bound, index = ctypes.c_double(), ctypes.c_int()  # the range bounds, unread for range "A"
    _call("dstemr", N, b"V", b"A", by(size), d.ctypes.data, e.ctypes.data, by(bound), by(bound),
          by(index), by(index), by(found), w.ctypes.data, Z.ctypes.data, by(size), by(size),
          isuppz.ctypes.data, by(ctypes.c_int(1)), work.ctypes.data, by(ctypes.c_int(18 * N)),
          iwork.ctypes.data, by(ctypes.c_int(10 * N)))
    return Z
