"""Unit tests for PrivacySpec and the Mechanism interface."""

import ast
import pathlib

import pytest

import repro
from repro.exceptions import ValidationError
from repro.mechanisms import Mechanism, PrivacySpec


class TestPrivacySpec:
    def test_pure_dp(self):
        spec = PrivacySpec(epsilon=1.0)
        assert spec.is_pure
        assert str(spec) == "1-DP"

    def test_approximate_dp(self):
        spec = PrivacySpec(epsilon=0.5, delta=1e-6)
        assert not spec.is_pure
        assert "1e-06" in str(spec)

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValidationError):
            PrivacySpec(epsilon=0.0)

    def test_rejects_delta_out_of_range(self):
        with pytest.raises(ValidationError):
            PrivacySpec(epsilon=1.0, delta=1.5)

    def test_compose_adds(self):
        a = PrivacySpec(epsilon=1.0, delta=0.1)
        b = PrivacySpec(epsilon=0.5, delta=0.2)
        composed = a.compose(b)
        assert composed.epsilon == pytest.approx(1.5)
        assert composed.delta == pytest.approx(0.3)

    def test_frozen(self):
        spec = PrivacySpec(epsilon=1.0)
        with pytest.raises(AttributeError):
            spec.epsilon = 2.0


class TestMechanism:
    def test_exposes_privacy(self):
        class Constant(Mechanism):
            def release(self, dataset, random_state=None):
                return 0

        mech = Constant(PrivacySpec(epsilon=2.0, delta=0.01))
        assert mech.epsilon == 2.0
        assert mech.delta == 0.01
        assert "Constant" in repr(mech)

    def test_rejects_non_spec(self):
        class Constant(Mechanism):
            def release(self, dataset, random_state=None):
                return 0

        with pytest.raises(ValidationError):
            Constant("1.0")


class TestOneReleaseRecorder:
    """Every release reaches the ledger through one recorder in
    ``repro/mechanisms/base.py``; a copy of it anywhere else would drift."""

    @staticmethod
    def _files_calling(matches):
        package = pathlib.Path(repro.__file__).parent
        found = set()
        for path in sorted(package.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            if any(isinstance(n, ast.Call) and matches(n) for n in ast.walk(tree)):
                found.add(path.relative_to(package.parent).as_posix())
        return found

    def test_only_base_constructs_release_events(self):
        def constructs_event(call):
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            return name == "MechanismReleaseEvent"

        assert self._files_calling(constructs_event) == {"repro/mechanisms/base.py"}

    def test_only_base_bumps_the_release_counter(self):
        def bumps_counter(call):
            return (
                isinstance(call.func, ast.Attribute)
                and call.func.attr == "count"
                and bool(call.args)
                and isinstance(call.args[0], ast.Constant)
                and call.args[0].value == "mechanism.releases"
            )

        assert self._files_calling(bumps_counter) == {"repro/mechanisms/base.py"}
