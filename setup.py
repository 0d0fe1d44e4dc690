"""Build script: a pure-Python package, configured in pyproject.toml."""

from setuptools import setup

setup()
