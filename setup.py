"""Packaging for the ICDE 2000 MIL image-retrieval reproduction.

Kept as a plain ``setup.py`` (no ``wheel``/``build`` requirement) so the
package installs in offline environments; the version is sourced from
``src/repro/version.py`` so there is exactly one place to bump it.
"""

from pathlib import Path

from setuptools import find_packages, setup

_HERE = Path(__file__).resolve().parent

_version: dict = {}
exec((_HERE / "src" / "repro" / "version.py").read_text(), _version)

_readme = _HERE / "README.md"
_long_description = _readme.read_text() if _readme.exists() else ""

setup(
    name="repro-mil-retrieval",
    version=_version["__version__"],
    description=(
        "Image database retrieval with multiple-instance learning "
        "(Yang & Lozano-Perez, ICDE 2000 reproduction)"
    ),
    long_description=_long_description,
    long_description_content_type="text/markdown",
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro": ["py.typed"]},
    python_requires=">=3.10",
    # scipy 1.15 introduced the L-BFGS-B reverse-communication signature
    # (``setulb`` with integer task codes) that repro.core.optimizer drives.
    install_requires=["numpy", "scipy>=1.15"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
    classifiers=[
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering :: Image Recognition",
    ],
)
