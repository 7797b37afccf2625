"""The benchmark tracer's contract with the package.

``benchmarks/e2e/tracer.py`` wraps every function its ``GROUPS`` table
names by looking the name up in the owner's *own* ``__dict__``.  A traced
method that moves to a base class, is renamed or is deleted therefore
breaks ``benchmarks/e2e/run.py --trace 1``.  This test loads the tracer
by path and checks every entry without installing any wrapper.
"""

import importlib
import importlib.util
import pathlib

TRACER = (pathlib.Path(__file__).resolve().parents[1]
          / "benchmarks" / "e2e" / "tracer.py")


def _groups():
    spec = importlib.util.spec_from_file_location("e2e_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.GROUPS


def test_every_traced_name_is_defined_on_its_owner():
    groups = _groups()
    assert groups
    missing = []
    for group, sites in groups.items():
        for module_name, cls_name, names in sites:
            module = importlib.import_module(module_name)
            owner = module if cls_name is None else getattr(module, cls_name)
            missing += [f"{group}: {module_name}.{cls_name or ''}.{name}"
                        for name in names if name not in vars(owner)]
    assert not missing, missing
