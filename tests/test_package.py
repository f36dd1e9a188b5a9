"""API-hygiene tests: imports, __all__ consistency, docstring coverage.

These catch the boring-but-real release bugs: a symbol listed in
``__all__`` that does not exist, a public module without documentation, a
subpackage that fails to import on a clean interpreter.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.datasets",
    "repro.estimators",
    "repro.iot",
    "repro.pricing",
    "repro.privacy",
]


def _walk_modules():
    names = set(PACKAGES)
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        for info in pkgutil.iter_modules(package.__path__):
            names.add(f"{package_name}.{info.name}")
    return sorted(names)


ALL_MODULES = _walk_modules()


class TestImports:
    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_module_imports(self, module_name):
        importlib.import_module(module_name)

    def test_version_present(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2


class TestAllConsistency:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_names_exist(self, package_name):
        module = importlib.import_module(package_name)
        exported = getattr(module, "__all__", None)
        assert exported is not None, f"{package_name} must define __all__"
        for name in exported:
            assert hasattr(module, name), (
                f"{package_name}.__all__ lists missing name {name!r}"
            )

    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_names_unique(self, package_name):
        module = importlib.import_module(package_name)
        exported = module.__all__
        assert len(set(exported)) == len(exported)


class TestDocstrings:
    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_module_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"

    @staticmethod
    def _documented(cls, attr_name):
        """Whether a method is documented on the class or any base."""
        for klass in cls.__mro__:
            attr = vars(klass).get(attr_name)
            if attr is not None and getattr(attr, "__doc__", None):
                return True
        return False

    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_public_objects_documented(self, package_name):
        """Every exported class/function has a docstring; every public
        method of an exported class is documented on it or a base class
        (interface docs are inherited, not duplicated)."""
        module = importlib.import_module(package_name)
        for name in module.__all__:
            obj = getattr(module, name)
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            assert obj.__doc__, f"{package_name}.{name} lacks a docstring"
            if inspect.isclass(obj):
                for attr_name, attr in vars(obj).items():
                    if attr_name.startswith("_"):
                        continue
                    if inspect.isfunction(attr):
                        assert self._documented(obj, attr_name), (
                            f"{package_name}.{name}.{attr_name} lacks a "
                            "docstring (own or inherited)"
                        )


class TestTopLevelSurface:
    def test_quickstart_symbols_importable(self):
        from repro import (  # noqa: F401
            AccuracySpec,
            ArbitrageConsumer,
            DataBroker,
            Marketplace,
            PrivateRangeCountingService,
            RangeQuery,
        )

    def test_error_hierarchy_rooted(self):
        from repro import (
            CalibrationError,
            InfeasiblePlanError,
            InvalidQueryError,
            LedgerError,
            PricingError,
            PrivacyBudgetExceededError,
            ReproError,
        )

        for exc in (
            CalibrationError,
            InfeasiblePlanError,
            InvalidQueryError,
            LedgerError,
            PricingError,
            PrivacyBudgetExceededError,
        ):
            assert issubclass(exc, ReproError)

    def test_policy_error_rooted(self):
        from repro.core.policy import PolicyViolationError
        from repro.errors import ReproError

        assert issubclass(PolicyViolationError, ReproError)
