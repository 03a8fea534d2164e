"""Every error class ends a command in its documented exit code, with one
stderr line under its documented prefix and nothing on stdout."""

from __future__ import annotations

import inspect

import pytest

from epigauge import cli, errors
from epigauge.cli import main

# class name -> (exit code, stderr prefix), as documented in the README
DOCUMENTED = {
    "EpigaugeError": (1, "error:"),
    "SpecParseError": (2, "parse error:"),
    "PreconditionError": (3, "precondition failure:"),
    "ConstructionError": (3, "precondition failure:"),
    "DomainError": (3, "precondition failure:"),
    "CoverageError": (3, "precondition failure:"),
    "EvaluationError": (3, "precondition failure:"),
    "OracleCapError": (4, "oracle cap exceeded:"),
    "CertificateViolationError": (5, "certificate inconsistency:"),
    "InconsistentCoverError": (5, "certificate inconsistency:"),
}

ERROR_CLASSES = sorted((cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                        if issubclass(cls, errors.EpigaugeError)), key=lambda c: c.__name__)


def test_every_error_class_is_documented():
    assert sorted(c.__name__ for c in ERROR_CLASSES) == sorted(DOCUMENTED)


@pytest.mark.parametrize("command", ["gauge", "certify"])
@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_error_class_exit_code_and_one_line(cls, command, monkeypatch, capsys):
    def fail(path):
        raise cls("boom")

    monkeypatch.setattr(cli, "load_problem", fail)
    rc = main([command, "--spec", "problem.prob"])
    captured = capsys.readouterr()
    code, prefix = DOCUMENTED[cls.__name__]
    assert rc == code
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(prefix + " ") and captured.err.endswith("boom\n")
