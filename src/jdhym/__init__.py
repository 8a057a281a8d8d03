"""J-equation and dHYM equation laboratory on flat complex tori.

Each name lives in its own module (``jdhym.solver``, ``jdhym.fields``, ...)
and is imported from there; importing one module loads only the layers it
needs.
"""

__version__ = "0.1.0"
