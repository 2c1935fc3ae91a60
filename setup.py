"""Package metadata and the ``hummer`` console script.

All metadata lives here.  A plain ``setup.py`` also keeps editable installs
working offline: without the ``wheel`` package, PEP 660 editable installs
(which need ``bdist_wheel``) fail, while ``python setup.py develop`` and
``pip install -e .`` (which falls back to it when ``wheel`` is missing)
only need setuptools.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(encoding="utf-8"),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    description="HumMer: automatic data fusion (schema matching, duplicate detection, conflict resolution)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["hummer = repro.cli:main"]},
)
