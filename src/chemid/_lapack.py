"""The solver's LAPACK routines, without the ``scipy.linalg`` package import.

dgttrf and dgttrs solve the tridiagonal systems, dpotrf factors the
penalty's Gram matrix.  ``load`` loads scipy's compiled ``_flapack``
extension by its file path, under its own name; if that fails it falls
back to the public ``scipy.linalg.lapack``, which holds the same routines.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

FLAPACK = "scipy.linalg._flapack"


def _load_flapack():
    """scipy's ``_flapack`` extension module, loaded from its file."""
    if FLAPACK in sys.modules:  # scipy.linalg was imported first
        return sys.modules[FLAPACK]
    scipy = importlib.util.find_spec("scipy")  # finds scipy, does not import it
    if scipy is None or scipy.origin is None:
        raise ImportError("scipy is not installed")
    stem = os.path.join(os.path.dirname(scipy.origin), "linalg", "_flapack")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(stem + suffix):
            loader = importlib.machinery.ExtensionFileLoader(FLAPACK, stem + suffix)
            spec = importlib.util.spec_from_loader(FLAPACK, loader)
            module = importlib.util.module_from_spec(spec)
            loader.exec_module(module)
            sys.modules[FLAPACK] = module
            return module
    raise ImportError(f"no {stem}<suffix> extension file")


def load():
    """The module whose ``dgttrf``, ``dgttrs`` and ``dpotrf`` the solver calls."""
    try:
        return _load_flapack()
    except (ImportError, OSError):
        from scipy.linalg import lapack

        return lapack


_flapack = load()
dgttrf, dgttrs, dpotrf = _flapack.dgttrf, _flapack.dgttrs, _flapack.dpotrf
