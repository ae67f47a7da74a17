"""Setup shim for environments without the `wheel` package.

A bare ``setup()``: the package is run from ``src/`` with ``PYTHONPATH=src``
(see ``README.md``); this file only exists so that ``python setup.py
develop`` / legacy editable installs work in offline environments.
"""
from setuptools import setup

setup()
