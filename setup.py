"""Classic setuptools metadata (``pip install -e .`` friendly).

This environment has no network and no ``wheel`` package, so PEP 517
editable builds cannot run; keeping the metadata here (rather than in a
pyproject.toml) lets ``pip install -e .`` take the classic
``setup.py develop`` path with ``use-pep517 = false`` /
``no-build-isolation`` in pip config.
"""

from setuptools import find_packages, setup

setup(
    name="seal-repro",
    version="1.1.0",
    description="SEAL spatio-textual similarity search (PVLDB 2012 reproduction)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["seal-repro=repro.cli:main"]},
)
