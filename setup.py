"""Builds the optional compiled event loop of the discrete-event simulator.

_lossloop.c is plain C99 with no Python API: femtonet.des loads the shared
library through ctypes.  The package works without it (the pure-Python
kernel with the identical random stream runs instead), so a failed compile
does not fail the install; compiling just makes the discrete-event
simulator's event loop 13 to 20 times faster on long runs (README gives the
measured rates).  Build in place with:

    python setup.py build_ext --inplace
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "femtonet._lossloop",
            ["src/femtonet/_lossloop.c"],
            extra_compile_args=["-O3", "-ffp-contract=off"],
            libraries=["m"],
            optional=True,
        )
    ]
)
