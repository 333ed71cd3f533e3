"""Legacy build entry point (``python setup.py develop``); see pyproject.toml."""

from setuptools import setup

setup()
