"""Legacy setup shim.

The execution environment is offline with setuptools 65 and no ``wheel``
package, so PEP 660 editable installs (which build an editable wheel) are
unavailable.  This shim lets ``pip install -e . --no-build-isolation``
fall back to the classic ``setup.py develop`` path.  All metadata lives in
``pyproject.toml``; keep the two in sync.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Parallel ROLAP data cube construction on (simulated) shared-nothing "
        "multiprocessors — reproduction of Chen, Dehne, Eavis, Rau-Chaplin, "
        "IPDPS 2003"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
)
