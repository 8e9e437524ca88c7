import importlib
import pkgutil

import procflex


def test_every_public_name_is_exported_by_the_package():
    modules = [
        importlib.import_module(f"procflex.{info.name}")
        for info in pkgutil.iter_modules(procflex.__path__)
    ]
    public = [m for m in modules if hasattr(m, "__all__")]
    assert {m.__name__ for m in public} >= {
        "procflex.core",
        "procflex.decomposition",
        "procflex.design",
        "procflex.augmentation",
        "procflex.planning",
        "procflex.robustness",
    }
    for module in public:
        for name in module.__all__:
            assert hasattr(module, name), (module.__name__, name)
            assert getattr(procflex, name, None) is getattr(module, name), (
                module.__name__,
                name,
            )


def test_names_imported_on_first_access_are_listed_and_resolve():
    # the package imports a module only when one of its names is read
    for module, names in procflex._EXPORTS.items():
        owner = importlib.import_module(f"procflex.{module}")
        for name in names:
            assert name in dir(procflex)
            assert getattr(procflex, name) is getattr(owner, name)
    assert not hasattr(procflex, "no_such_name")
    namespace = {}
    exec("from procflex import *", namespace)
    assert set(procflex.__all__) <= set(namespace) and "simulate" in procflex.__all__
