"""Setuptools entry point and the package's only metadata.

Install for development with ``pip install -e .``, or skip installing and
run from a checkout with ``PYTHONPATH=src``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Dotted Version Vectors: efficient causality tracking for distributed "
        "storage systems (PODC 2012 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    entry_points={"console_scripts": ["repro-dvv=repro.cli:main"]},
)
