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
