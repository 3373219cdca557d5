"""Hand-tuned base plan for the gap-3 chain at n=5 (build_appendix_a)."""

from __future__ import annotations

import itertools
import math

import pytest

from exactq import algorithms, build_appendix_a, run_on_input, verify_exactness
from exactq.algorithms import (
    APPENDIX_A_SIGNS,
    appendix_a_angles,
    appendix_a_constants,
    appendix_a_residuals,
)

SQ7 = math.sqrt(7.0)
SQ5 = math.sqrt(5.0)

# The printed constant table, with signs restored where two relations pin them.
EXPECTED = {
    1: 1 / (4 * SQ7),
    2: 17 / (16 * SQ5),
    3: 12 / 17,
    4: -math.sqrt(3 / 7) / 16,
    5: 17 / 40,
    6: 30 / 17,
    7: 2 * math.sqrt(2 / 7) / 5,
    8: -1 / (16 * SQ7),
    9: 1 / (8 * SQ5),
    10: 5.0,
    11: 6.0,
    12: 3 * math.sqrt(3 / 7) / 16,
    13: 2 / 3,
    14: 3 / 8,
    15: 2 / 3,
    16: 1 / (2 * SQ7),
    17: 1.0,
    18: 3 / (16 * SQ7),
}


class TestConstantTable:
    def test_values(self):
        constants = appendix_a_constants()
        assert set(constants) == set(range(1, 19))
        for i, expected in EXPECTED.items():
            assert constants[i] == pytest.approx(expected, abs=1e-15), f"c{i}"

    def test_signs_flipped_only_where_required(self):
        assert APPENDIX_A_SIGNS == {4: -1.0, 8: -1.0}

    def test_all_relations_hold(self):
        residuals = appendix_a_residuals()
        assert len(residuals) == 18
        assert max(residuals.values()) < 1e-12

    def test_gamma_is_one_over_112(self):
        c = appendix_a_constants()
        assert c[1] ** 2 == pytest.approx(1 / 112, abs=1e-15)

    def test_single_constant_mutation_is_caught(self):
        for i in range(1, 19):
            c = dict(appendix_a_constants())
            c[i] += 1e-3
            assert max(appendix_a_residuals(c).values()) > 1e-6, f"c{i}"


class TestExactCertificate:
    """The eighteen identities in exact arithmetic, over Q(sqrt 3, sqrt 5, sqrt 7)."""

    @staticmethod
    def exact_constants(sympy):
        sq, r = sympy.sqrt, sympy.Rational
        printed = {
            1: 1 / (4 * sq(7)), 2: r(17, 16) / sq(5), 3: r(12, 17), 4: sq(r(3, 7)) / 16,
            5: r(17, 40), 6: r(30, 17), 7: 2 * sq(r(2, 7)) / 5, 8: 1 / (16 * sq(7)),
            9: 1 / (8 * sq(5)), 10: sympy.Integer(5), 11: sympy.Integer(6),
            12: 3 * sq(r(3, 7)) / 16, 13: r(2, 3), 14: r(3, 8), 15: r(2, 3),
            16: 1 / (2 * sq(7)), 17: sympy.Integer(1), 18: 3 / (16 * sq(7)),
        }
        return {i: int(APPENDIX_A_SIGNS.get(i, 1)) * v for i, v in printed.items()}

    def test_residuals_vanish_exactly(self, monkeypatch):
        sympy = pytest.importorskip("sympy")
        exact = self.exact_constants(sympy)
        # Run the library's own residual formulas with an exact square root.
        monkeypatch.setattr(algorithms, "_SQ", sympy.sqrt)
        residuals = appendix_a_residuals(exact)
        assert len(residuals) == 18
        for name, residual in residuals.items():
            assert sympy.simplify(residual) == 0, name

    def test_float_table_matches_exact_values(self):
        sympy = pytest.importorskip("sympy")
        exact = self.exact_constants(sympy)
        constants = appendix_a_constants()
        assert set(constants) == set(exact)
        for i, value in exact.items():
            assert abs(constants[i] - float(value)) <= 1e-15, f"c{i}"


class TestAngles:
    def test_frozen_values(self):
        angles = appendix_a_angles()
        assert angles["split1"] == pytest.approx(-2.4188584057763776)
        assert angles["merge1"] == pytest.approx(1.6815077883654737)
        assert angles["split2"] == pytest.approx(-0.4866949550747732)
        assert angles["merge2"] == pytest.approx(0.7227342478134156)

    def test_sin_cos_components(self):
        angles = appendix_a_angles()
        assert math.sin(angles["split1"]) == pytest.approx(-0.6614378277661477)
        assert math.cos(angles["split1"]) == pytest.approx(-0.75)
        assert math.sin(angles["merge1"]) == pytest.approx(0.9938777433618282)
        assert math.cos(angles["merge1"]) == pytest.approx(-0.1104854345603981)
        assert math.sin(angles["split2"]) == pytest.approx(-0.4677071733467427)
        assert math.cos(angles["split2"]) == pytest.approx(0.8838834764831844)
        assert math.sin(angles["merge2"]) == pytest.approx(0.6614378277661477)
        assert math.cos(angles["merge2"]) == pytest.approx(0.75)


class TestAssembledPlan:
    def test_exact_with_two_queries(self):
        report = verify_exactness(build_appendix_a())
        assert report.exact
        assert report.worst_case_queries == 2
        assert report.claimed_bound == 2
        assert report.max_norm_residual < 1e-12

    def test_contract_gamma(self):
        assert build_appendix_a().contract_gamma == pytest.approx(1 / 112, abs=1e-15)

    def test_amplitude_families_vanish_on_stated_weight_sets(self):
        plan = build_appendix_a()
        vanish = {"s": {1, 4}, "pair": {0, 2, 3, 5}, "quad": {0, 1, 4, 5}}
        for bits in itertools.product((0, 1), repeat=5):
            tree = run_on_input(plan, bits)
            node = tree
            while node.kind != "measure":
                (node,) = node.children
            masses = {"s": 0.0, "pair": 0.0, "quad": 0.0}
            for child in node.children:
                masses[child.outcome[0]] += child.norm_sq
            w = sum(bits)
            for family, weights in vanish.items():
                if w in weights:
                    assert masses[family] < 1e-18, (family, bits)
                else:
                    assert masses[family] > 1e-6, (family, bits)

    @pytest.mark.parametrize("name", ["split1", "merge1", "split2"])
    def test_angle_mutations_break_exactness(self, name):
        angles = dict(appendix_a_angles())
        angles[name] += 1e-3
        report = verify_exactness(build_appendix_a(angle_overrides=angles))
        assert not report.exact

    def test_gamma_mutation_breaks_exactness(self):
        report = verify_exactness(build_appendix_a(gamma_override=1 / 112 + 1e-3))
        assert not report.exact

    def test_merge2_is_an_outcome_gauge(self):
        # The last merge rotates strictly inside measured outcome groups, so
        # perturbing it cannot move probability between outcomes.
        angles = dict(appendix_a_angles())
        angles["merge2"] += 1e-3
        report = verify_exactness(build_appendix_a(angle_overrides=angles))
        assert report.exact
        assert report.worst_case_queries == 2
