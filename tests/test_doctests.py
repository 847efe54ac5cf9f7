import doctest

import discotrans.errors
import discotrans.grammar
import discotrans.semantics


def test_errors_doctests():
    assert doctest.testmod(discotrans.errors).failed == 0


def test_grammar_doctests():
    assert doctest.testmod(discotrans.grammar).failed == 0


def test_semantics_doctests():
    assert doctest.testmod(discotrans.semantics).failed == 0
