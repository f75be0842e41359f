"""Run the benchmark against the committed C kernel, built with gcc.

Usage (from the root of a git work tree; same arguments as run.py):
    python3 perfbench/compiled.py --workload congestion_fit --seed 1 \
        --seconds 20 --trace 0

Builds `src/qoehandoff/hmm/_kernels_c.c`, the generated C file that is
committed, with `gcc -O3 -shared -fPIC` against this Python's and NumPy's
headers into a temporary directory outside the work tree. It then makes
`qoehandoff.hmm._kernels_c` load from there and runs run.py in this
process, so the program picks the compiled backend. Nothing is written
under `src/`; the build directory is removed at exit. The fresh
interpreter that set-up times imports the program without this hook, so
`setup_s` covers the fallback kernel's import.
"""

import importlib.util
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src/qoehandoff/hmm/_kernels_c.c"
MODULE = "qoehandoff.hmm._kernels_c"


class KernelFinder:
    """Import hook that resolves the compiled kernel module to one file."""

    def __init__(self, path: Path):
        self.path = path

    def find_spec(self, name, path=None, target=None):
        if name != MODULE:
            return None
        return importlib.util.spec_from_file_location(name, self.path)


def build(dest: Path) -> Path:
    import numpy
    numpy_include = numpy.get_include()
    target = dest / ("_kernels_c" + sysconfig.get_config_var("EXT_SUFFIX"))
    subprocess.run(["gcc", "-O3", "-shared", "-fPIC",
                    f"-I{sysconfig.get_paths()['include']}", f"-I{numpy_include}",
                    "-DNPY_NO_DEPRECATED_API=NPY_1_7_API_VERSION",
                    str(SOURCE), "-o", str(target)], check=True)
    return target


def main(argv=None) -> int:
    if not SOURCE.is_file():
        raise SystemExit(f"error: {SOURCE} not found")
    tmp = Path(tempfile.mkdtemp(prefix="qoehandoff-kernel-"))
    try:
        sys.meta_path.insert(0, KernelFinder(build(tmp)))
        import run
        return run.main(argv)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
