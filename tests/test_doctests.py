import doctest
from types import ModuleType

import discotrans
import discotrans.errors
import discotrans.grammar
import discotrans.semantics


def test_errors_doctests():
    assert doctest.testmod(discotrans.errors).failed == 0


def test_grammar_doctests():
    assert doctest.testmod(discotrans.grammar).failed == 0


def test_semantics_doctests():
    assert doctest.testmod(discotrans.semantics).failed == 0


def test_all_names_each_public_name_the_package_binds_once():
    # pydoc lists the package's classes and functions from __all__ alone, since
    # each carries its submodule's __module__; so __all__ must not drift
    public = {
        name for name, value in vars(discotrans).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert len(discotrans.__all__) == len(set(discotrans.__all__))
    assert set(discotrans.__all__) == public
