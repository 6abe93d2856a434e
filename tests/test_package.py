"""The package's public surface is its modules: ``zvnav`` itself re-exports nothing."""
import pkgutil
import types

import zvnav
import zvnav.simulate


def test_submodule_attribute_is_the_module():
    assert isinstance(zvnav.simulate, types.ModuleType)
    assert callable(zvnav.simulate.simulate)


def test_package_binds_only_version_and_submodules():
    submodules = {m.name for m in pkgutil.iter_modules(zvnav.__path__)}
    public = {name for name in vars(zvnav) if not name.startswith("_")}
    assert public <= submodules, sorted(public - submodules)
    assert zvnav.__version__
