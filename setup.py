"""Package metadata for the Ivanyos–Magniez–Santha HSP reproduction.

Kept as a plain ``setup.py`` (rather than ``pyproject.toml``) so that legacy
editable installs (``pip install -e . --no-use-pep517``) work in offline
environments that lack the ``wheel`` package required for PEP 660 editable
wheels.  The long description is the top-level ``README.md``.
"""

import pathlib

from setuptools import find_packages, setup

README = pathlib.Path(__file__).parent / "README.md"

setup(
    name="ims-hsp-repro",
    version="0.6.0",
    description=(
        "Reproduction of Ivanyos, Magniez & Santha (SPAA 2001): efficient quantum "
        "algorithms for some instances of the non-Abelian hidden subgroup problem"
    ),
    long_description=README.read_text(encoding="utf-8") if README.exists() else "",
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    extras_require={"test": ["pytest", "hypothesis", "pytest-benchmark"]},
    entry_points={
        "console_scripts": [
            "hsp-experiments=repro.experiments.cli:main",
        ]
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering :: Physics",
        "Intended Audience :: Science/Research",
    ],
)
