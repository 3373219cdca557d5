"""Builders assembling weight-testing query algorithms into Plans.

Families: the pair-elimination subroutine with a precomputed input state
(build_unbr), its main routine (build_unb), EQUALITY, single-weight EXACT,
the one-ancilla test for symmetric weight pairs (build_general_unbalance,
build_uw_step), the padding dispatcher (build_exact_kl), and the hand-tuned
two-query base plan at n=5 (build_appendix_a).

The builders assemble their steps from five shared pieces: `_rotation_pass`
(a rotation on every pair), `_u_stages` (the U_n/U_{n-2} applications),
`_round` (one pair-elimination query: split, U stages inverted, query, U
stages forward, merge), `_uniform_start` (uniform preparation, query and
U_n) and `_ancilla_test_step` (the one place that wires a one-ancilla test
step to the plans it calls and counts its queries). Each measurement is
one `MeasureStep`: an outcome function, most often a dict's `get` from
label to outcome id, and its (id, rewrite, child) entries in branch order.
Every plan of the unbr family (a pair-elimination step, the d = 1 and d = 2
chain bases, and Appendix A's plan) takes its fields from (n, d, root,
gamma) by one rule, `_unbr_plan`.

An override build (a knob of build_unbr, build_unb or build_appendix_a set
off its declared default) is a copy of its memoized default build
(`_overridden`) in which only the rotation passes, and the input contract
when its gamma is not the default's, are new. Its other steps keep the
default's compiled maps, so its first walk compiles only its passes' group
matrices, on the layouts kept on the pair maps that `_rotation_pairs`
validated once per n, and a contract of its own. A knob passed at its
default is no override: the call returns the default build.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations
from typing import Callable, Mapping, TypeVar

from .errors import BindingConflict, DegenerateCase, InconsistentSpec, NoChain, check_gamma
from .gadgets import (
    extract_leading_index,
    extract_trailing_index,
    hadamard_gadget,
    q_rotation,
    r_rotation,
    u_gadget,
)
from .plans import (
    Call,
    Contract,
    GadgetStep,
    MeasureStep,
    Output,
    Plan,
    PlanNode,
    PrepareState,
    QueryStep,
    WeightTruth,
    _Applications,
    _shared,
    const,
    drop_wires,
    identity_wires,
    var,
)
from .recurrence import CHAIN_BASES, chain_gamma_at, solve_step_constants, StepConstants
from .state_core import (
    Binding,
    Label,
    LabeledState,
    S_LABEL,
    ZERO_LABEL,
    anc,
    bind,
    comp,
    idx,
    identity_binding,
    pair,
    quad,
    tag,
)


def weight_truth(n: int, weights: frozenset[int]) -> WeightTruth:
    """Truth function: 1 iff the Hamming weight lies in `weights`, each of
    which must be a weight of n bits (ValueError otherwise)."""
    if not all(0 <= w <= n for w in weights):
        raise ValueError(f"weights {sorted(weights)!r} must lie in 0..{n}")
    return WeightTruth(frozenset(weights))


def precomputed_state(n: int, gamma: float) -> Contract:
    """Input contract of the pair-elimination subroutine.

    Maps the +-1 encoding xhat to sum_i xhat_i |S> + sqrt(gamma)
    sum_{i<j} (xhat_i - xhat_j) |i,j>, unnormalized. The pair labels follow
    |S> in `combinations` order, and appear only when gamma > 0.
    """
    root_gamma = math.sqrt(gamma)
    labels, coeffs = [S_LABEL], [(1.0,) * n]
    if root_gamma > 0.0:
        for i, j in combinations(range(1, n + 1), 2):
            row = [0.0] * n
            row[i - 1], row[j - 1] = root_gamma, -root_gamma
            labels.append(pair(i, j))
            coeffs.append(tuple(row))
    return Contract(n, tuple(labels), (0.0,) * len(labels), tuple(coeffs))


# Default builds, and the pieces every build of a shape shares, keyed by
# (builder name, positional args). Plans are immutable and shared:
# build_unb(8, 2) is build_unb(8, 2).
_PLANS: dict[tuple[str, tuple], object] = {}

_Built = TypeVar("_Built")
# The applications of one GadgetStep.
_Apps = tuple[tuple[Binding, bool], ...]


def _memoized(build: Callable[..., _Built]) -> Callable[..., _Built]:
    """Memoize a builder's default builds in `_PLANS`, and the pieces builds
    share: `_uniform_u`, a uniform start's U_n, and `_rotation_pairs`, a
    rotation pass's validated pair maps on n indices and their layouts.

    A keyword argument equal to the builder's declared default is dropped,
    so a call with every knob at its default returns the memoized default
    build. A call with a knob set builds a new Plan: a copy of the default
    build (`_overridden`). Every key is a name and integer arguments:
    nothing is memoized per knob value.
    """
    defaults = build.__kwdefaults__ or {}

    @functools.wraps(build)
    def cached(*args, **knobs):
        overrides = {name: value for name, value in knobs.items() if name not in defaults or value != defaults[name]}
        if overrides:
            return build(*args, **overrides)
        key = (build.__name__, args)
        built = _PLANS.get(key)
        if built is None:
            built = _PLANS[key] = build(*args)
        return built
    return cached


def _pairs(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(1, n + 1), 2))


def _split_binding(gadget, i: int, j: int) -> Binding:
    """Bind the 3-label rotation space onto pair (i,j) and its tagged arms."""
    p = pair(i, j)
    return bind(gadget, {p: ZERO_LABEL, tag("L", p): tag("L"), tag("R", p): tag("R")})


def _rest_renumber(n: int, i: int, j: int) -> dict[int, int]:
    rest = [m for m in range(1, n + 1) if m not in (i, j)]
    return {m: t + 1 for t, m in enumerate(rest)}


def _quad_renames(n: int, i: int, j: int) -> dict:
    """Each quad label of pair (i,j) renamed to the sub-instance's pair label."""
    r = _rest_renumber(n, i, j)
    return {quad(i, j, u, v): pair(r[u], r[v]) for u, v in combinations(sorted(r), 2)}


@_memoized
def _rotation_pairs(n: int) -> tuple[tuple[Label, ...], _Applications, _Applications]:
    """The pair maps of a rotation pass on n indices, bound by `bind` once on
    a template rotation and so validated against its space: that space, and
    the split's and the merge's applications. Each holds the `layouts` that
    every pass in its direction shares."""
    template = r_rotation(0.0)
    bindings = [_split_binding(template, i, j) for i, j in _pairs(n)]
    split, merge = (_Applications(((b, inverse) for b in bindings), layouts={}) for inverse in (False, True))
    return template.space, split, merge


def _rotation_pass(angle: float, n: int, inverse: bool) -> _Apps:
    """One rotation by `angle` on every pair of n indices: a split, or with
    `inverse` a merge. Its bindings are `_rotation_pairs`' maps around its
    own gadget, whose space must be the one they were validated against."""
    gadget = r_rotation(angle)
    space, split, merge = _rotation_pairs(n)
    if gadget.space != space:
        raise BindingConflict(f"{gadget.name}: space {gadget.space!r} is not the rotation space {space!r}")
    pairs = merge if inverse else split
    return _Applications(((Binding(gadget, b.to_gadget, b.global_order), inverse) for b, _ in pairs),
                         layouts=pairs.layouts)


def _u_stages(n: int, index: Callable[[int], Label],
              sub_index: Callable[[Label, int], Label]) -> tuple[_Apps, _Apps]:
    """U_n on the labels index(i), and U_{n-2} per pair p on its right arm,
    the labels sub_index(p, k) of its remaining indices k, and its quads:
    the applications inverted, then forward, each one object builds share."""
    pairs = _pairs(n)
    bindings = [bind(u_gadget(n), {
        S_LABEL: S_LABEL,
        **{index(i): idx(i) for i in range(1, n + 1)},
        **{tag("L", pair(i, j)): pair(i, j) for i, j in pairs},
    })]
    for i, j in pairs:
        p, r = pair(i, j), _rest_renumber(n, i, j)
        bindings.append(bind(u_gadget(n - 2), {
            tag("R", p): S_LABEL,
            **{sub_index(p, k): idx(r[k]) for k in r},
            **_quad_renames(n, i, j),
        }))
    return _Applications((b, True) for b in bindings), _Applications((b, False) for b in bindings)


def _round(split: _Apps, inverses: _Apps, extractor: Callable[[Label], int | None],
           forwards: _Apps, merge: _Apps, child: PlanNode) -> PlanNode:
    """One pair-elimination query: split, U stages inverted, query, U stages
    forward, merge, then `child`."""
    return GadgetStep(split,
            GadgetStep(inverses,
             QueryStep(extractor,
              GadgetStep(forwards,
               GadgetStep(merge, child)))))


@_memoized
def _uniform_u(n: int) -> _Applications:
    """U_n bound to its own labels, forward: the applications of every
    uniform start's last step on n indices, one object builds share."""
    return _Applications(((identity_binding(u_gadget(n)), False),))


def _overridden(default: Plan, passes, gamma: float | None) -> Plan:
    """An override build: a copy (`_shared`) of `default`, of its shape, with
    `passes` in place of its rotation passes, the gadget steps whose
    applications carry `layouts`, in order from the root, and an input
    contract of leakage `gamma`: the default's own when `gamma` is the
    default's, else `precomputed_state(n, gamma)`. The other steps above its
    first measurement are copies that keep their originals' compiled maps;
    the measurement and everything below it are the default's own."""
    spine, node, passes = [], default.root, list(passes)
    while not isinstance(node, MeasureStep):
        spine.append(node)
        node = node.child
    for step in reversed(spine):
        rotation = isinstance(step, GadgetStep) and step.applications.layouts is not None
        node = GadgetStep(passes.pop(), node) if rotation else _shared(step, child=node)
    contract = default.contract if gamma == default.contract_gamma else precomputed_state(default.n, gamma)
    return _shared(default, root=node, contract=contract, contract_gamma=gamma)


def _uniform_start(n: int, child: PlanNode) -> PlanNode:
    """Uniform superposition over the n index labels, the trailing-index
    query, and U_n, then `child`."""
    uniform = LabeledState({idx(i): 1.0 / math.sqrt(n) for i in range(1, n + 1)})
    return PrepareState(uniform,
            QueryStep(extract_trailing_index,
             GadgetStep(_uniform_u(n), child)))


# ---------------------------------------------------------------------------
# Pair-elimination subroutine on the precomputed state
# ---------------------------------------------------------------------------


def unbr_claimed_queries(n: int, d: int) -> int:
    k0, _, base_t = CHAIN_BASES[d]
    return (n - (d + 2 * k0)) // 2 + base_t


def _unbr_plan(n: int, d: int, root: PlanNode, gamma: float) -> Plan:
    """A plan of the unbr family: it decides weight (n-d)/2 against (n+d)/2
    on the precomputed state of leakage `gamma`, in the chain's query count."""
    return Plan(family="unbr", n=n, params=(("n", n), ("d", d)), root=root,
                claimed_queries=unbr_claimed_queries(n, d),
                truth=weight_truth(n, frozenset({(n - d) // 2, (n + d) // 2})),
                contract=precomputed_state(n, gamma), contract_gamma=gamma)


@_memoized
def build_unbr(n: int, d: int, *, constants: StepConstants | None = None, validate: bool = True) -> Plan:
    """Subroutine plan consuming the precomputed state and removing one pair.

    Recurses down the d-chain to its base. `constants` overrides the step
    constants (for sensitivity experiments); `validate=False` skips the
    constraint check so deliberately broken constants reach the simulator.
    A `constants.gamma` outside [0, 1], or constants solved for another
    (n, d), raise ValueError either way, the latter after the constraint
    check. An override build is the default build with its own split and
    merge rotation passes, and its own input contract when its gamma is not
    the default's (`_overridden`). The chain base has no step constants, so
    either knob there raises DegenerateCase.
    """
    if d not in CHAIN_BASES:
        raise NoChain(f"no recursion chain is known for d={d} (supported: 1, 2, 3)")
    k0, _, _ = CHAIN_BASES[d]
    n0 = d + 2 * k0
    if n < n0 or (n - n0) % 2 != 0:
        raise NoChain(f"(n={n}, d={d}) is not on the chain n = {n0}, {n0 + 2}, ...")
    if n == n0:
        knobs = [name for name, given in (("constants", constants is not None), ("validate", not validate))
                 if given]
        if knobs:
            hint = "; perturb it with build_appendix_a(angle_overrides=...)" if d == 3 else ""
            raise DegenerateCase(f"build_unbr({n}, {d}) is the chain base, which has no step constants: "
                                 f"{' and '.join(knobs)} would be ignored{hint}")
        return _build_unbr_base(d)
    cs = solve_step_constants(n, d, chain_gamma_at(d, n - 2)) if constants is None else constants
    gamma = cs.gamma
    check_gamma(gamma, "constants.gamma")
    if validate:
        cs.validate()
    if (cs.n, cs.d) != (n, d):
        raise ValueError(f"constants were solved for (n, d) = ({cs.n}, {cs.d}), not for ({n}, {d})")
    split = _rotation_pass(math.atan2(cs.c1, cs.c2), n, False)
    merge = _rotation_pass(math.atan2(cs.c8, cs.c9), n, True)
    if constants is not None or not validate:
        return _overridden(build_unbr(n, d), (split, merge), gamma)

    sub = build_unbr(n - 2, d)
    inverses, forwards = _u_stages(n, idx, lambda p, k: comp(p, idx(k)))
    outcomes = {S_LABEL: ("s",)}
    children: list = [(("s",), None, Output(0))]
    for i, j in _pairs(n):
        p, oid = pair(i, j), ("pair", i, j)
        # The pair, its quads and its two rotation arms, which go to labels
        # that no gadget binds, so the callee never takes them for its own.
        rewrite = {p: S_LABEL, **_quad_renames(n, i, j),
                   tag("L", p): tag("L", ZERO_LABEL), tag("R", p): tag("R", ZERO_LABEL)}
        outcomes.update(dict.fromkeys(rewrite, oid))
        children.append((oid, rewrite, Call(sub, drop_wires(n, (i, j)))))
    root = _round(split, inverses, extract_trailing_index, forwards, merge,
                  MeasureStep(outcomes.get, tuple(children)))
    return _unbr_plan(n, d, root, gamma)


def _build_unbr_base(d: int) -> Plan:
    if d == 1:
        # One variable: the weight is always 0 or 1, so the answer is 1.
        return _unbr_plan(1, 1, Output(1), 0.0)
    if d == 2:
        # Two variables, gamma = 0: the contract is (xhat_1+xhat_2)|S>,
        # nonzero exactly when the bits agree.
        return _unbr_plan(2, 2, MeasureStep(lambda l: ("s",) if l == S_LABEL else ("pair", 1, 2), (
            (("s",), None, Output(1)),
            (("pair", 1, 2), None, Output(0)),
        )), 0.0)
    return build_appendix_a()


# ---------------------------------------------------------------------------
# Hand-tuned two-query base plan at n=5 (d=3 chain base)
# ---------------------------------------------------------------------------

_SQ = math.sqrt
APPENDIX_A_PRINTED: dict[int, float] = {
    1: 1 / (4 * _SQ(7)), 2: 17 / (16 * _SQ(5)), 3: 12 / 17, 4: _SQ(3 / 7) / 16,
    5: 17 / 40, 6: 30 / 17, 7: 2 * _SQ(2 / 7) / 5, 8: 1 / (16 * _SQ(7)),
    9: 1 / (8 * _SQ(5)), 10: 5.0, 11: 6.0, 12: 3 * _SQ(3 / 7) / 16,
    13: 2 / 3, 14: 3 / 8, 15: 2 / 3, 16: 1 / (2 * _SQ(7)), 17: 1.0,
    18: 3 / (16 * _SQ(7)),
}
# The printed table is a magnitude table; the unique sign assignment that
# satisfies every displayed identity makes c4 and c8 negative.
APPENDIX_A_SIGNS: dict[int, float] = {4: -1.0, 8: -1.0}


def appendix_a_constants() -> dict[int, float]:
    """The eighteen base-plan constants with consistent signs."""
    return {i: APPENDIX_A_SIGNS.get(i, 1.0) * v for i, v in APPENDIX_A_PRINTED.items()}


def appendix_a_residuals(c: Mapping[int, float] | None = None) -> dict[str, float]:
    """Residuals of the eighteen identities the base-plan constants satisfy."""
    C = dict(appendix_a_constants() if c is None else c)
    r5, r3 = _SQ(5), _SQ(3)
    return {
        "A1": abs((C[2] * C[3] + 4 * C[2]) / r5 - 1),
        "A2": abs(C[1] ** 2 - ((C[2] * (C[3] - 1) / r5) ** 2 + (3 * C[4] / r3) ** 2)),
        "A3": abs(5 * C[2] * C[3] / r5 - C[5] * C[6]),
        "A4": abs(2 * C[2] / r5 - C[5]),
        "A5": abs(C[7] ** 2 - (C[2] ** 2 / 5 + C[4] ** 2 / 3)),
        "A6": abs(C[4] / r3 - C[8]),
        "A7": abs((2 * C[9] + 3 * C[9] * C[10]) / r5 - C[5]),
        "A8": abs(5 * C[9] * C[11] / r5 - C[5] * C[6]),
        "A9": abs(C[7] ** 2 - ((C[9] * (1 - C[10]) / r5) ** 2 + (C[12] * (2 + C[13]) / r3) ** 2)),
        "A10": abs(C[8] - C[12] * (C[13] - 1) / r3),
        "A11": abs(C[14] - 3 * C[9] * C[10] / r5),
        "A12": abs(C[14] * C[15] - (4 * C[9] + C[9] * C[11]) / r5),
        "A13": abs(C[16] ** 2 - ((2 * C[12] / r3) ** 2 + (C[9] * C[10] / r5) ** 2)),
        "A14": abs(C[18] - C[12] / r3),
        "A15": abs(C[11] - 1 - C[17] * C[10]),
        "A16": abs(3 * C[13] - 2 * C[17]),
        "A17": abs(3 * C[15] - 2),
        "A18": abs(C[17] - 1),
    }


def appendix_a_angles(c: Mapping[int, float] | None = None) -> dict[str, float]:
    """The four rotation angles of the base plan, from its constants."""
    C = dict(appendix_a_constants() if c is None else c)
    r5, r3 = _SQ(5), _SQ(3)
    return {
        "split1": math.atan2(C[2] * (C[3] - 1) / r5 / C[1], 3 * C[4] / r3 / C[1]),
        "merge1": math.atan2(C[2] / r5 / C[7], C[4] / r3 / C[7]),
        "split2": math.atan2(C[9] * (1 - C[10]) / r5 / C[7], C[12] * (2 + C[13]) / r3 / C[7]),
        "merge2": math.atan2(C[9] * C[10] / r5 / C[16], 2 * C[12] / r3 / C[16]),
    }


@_memoized
def build_appendix_a(
    *,
    angle_overrides: Mapping[str, float] | None = None,
    gamma_override: float | None = None,
) -> Plan:
    """Two-query plan for the weight set {1,4} at n=5 on the precomputed state:
    the d=3 chain base, an unbr plan (`_unbr_plan`) whose query count is the
    base's in CHAIN_BASES.

    The overrides exist for sensitivity experiments. A call with both at
    None returns the cached default build. An override angle that is not
    finite, or a `gamma_override` outside [0, 1], raises ValueError. An
    override build is the default build with its own four rotation passes,
    and its own input contract when its gamma is not the default's
    (`_overridden`).
    """
    angles = appendix_a_angles()
    if angle_overrides is not None:
        unknown = set(angle_overrides) - set(angles)
        if unknown:
            raise ValueError(f"unknown angle overrides {sorted(unknown)!r}")
        for name, angle in angle_overrides.items():
            if not math.isfinite(angle):
                raise ValueError(f"angle_overrides[{name!r}] must be finite, got {angle!r}")
        angles.update(angle_overrides)
    if gamma_override is not None:
        check_gamma(gamma_override, "gamma_override")
    gamma = appendix_a_constants()[1] ** 2 if gamma_override is None else gamma_override
    n = 5
    passes = [_rotation_pass(angles[name], n, name.startswith("merge"))
              for name in ("split1", "merge1", "split2", "merge2")]
    if angle_overrides is not None or gamma_override is not None:
        return _overridden(build_appendix_a(), passes, gamma)

    inverses, forwards = _u_stages(n, lambda i: comp(idx(i), S_LABEL), lambda p, k: comp(idx(k), p))
    outcomes = {S_LABEL: ("s",)}
    children: list = [(("s",), None, Output(0))]
    for i, j in _pairs(n):
        p, oid = pair(i, j), ("pair", i, j)
        # The pair and its two rotation arms.
        outcomes.update(dict.fromkeys((p, tag("L", p), tag("R", p)), oid))
        children.append((oid, None, Output(1)))
    for i, j in _pairs(n):
        for q in _quad_renames(n, i, j):
            outcomes[q] = ("quad",) + q[1:]
            children.append((outcomes[q], None, Output(0)))
    split1, merge1, split2, merge2 = passes
    second = _round(split2, inverses, extract_leading_index, forwards, merge2,
                    MeasureStep(outcomes.get, tuple(children)))
    return _unbr_plan(n, 3, _round(split1, inverses, extract_leading_index, forwards, merge1, second), gamma)


# ---------------------------------------------------------------------------
# Main routine: uniform start, one query, split, measure, recurse
# ---------------------------------------------------------------------------


def unb_claimed_queries(n: int, d: int) -> int:
    return (n + d) // 2 - (0 if d == 1 else 1)


@_memoized
def build_unb(n: int, d: int, *, gamma_override: float | None = None) -> Plan:
    """Full plan deciding whether the weight is (n-d)/2 or (n+d)/2.

    `gamma_override` replaces the split angle's gamma (for sensitivity
    experiments); one outside [0, 1] raises ValueError. An override build is
    the default build with its own split rotation pass (`_overridden`). At
    n = d the plan calls EQUALITY and has no gamma, so an override there
    raises DegenerateCase.
    """
    if d not in CHAIN_BASES:
        raise NoChain(f"d={d} is outside the chain family (supported: 1, 2, 3); "
                      f"use build_general_unbalance for larger gaps")
    if n < d or (n - d) % 2 != 0:
        raise ValueError(f"need n >= d with n = d (mod 2), got n={n}, d={d}")
    if n == d:
        if gamma_override is not None:
            raise DegenerateCase(f"build_unb({n}, {d}) calls EQUALITY and has no gamma: "
                                 f"gamma_override would be ignored")
        root: PlanNode = Call(build_equality(n), identity_wires(n))
    else:
        if gamma_override is not None:
            check_gamma(gamma_override, "gamma_override")
        gamma = chain_gamma_at(d, n) if gamma_override is None else gamma_override
        splits = _rotation_pass(math.asin(math.sqrt(gamma)), n, False)
        if gamma_override is not None:
            return _overridden(build_unb(n, d), (splits,), None)
        sub_pair = build_unb(n - 2, d)
        sub_rest = build_unbr(n, d)
        if unb_claimed_queries(n, d) != 1 + max(sub_pair.claimed_queries, sub_rest.claimed_queries):
            raise InconsistentSpec(f"query count recursion broke at n={n}, d={d}")
        pairs = _pairs(n)
        right_arms = {tag("R", pair(i, j)): ("pair", i, j) for i, j in pairs}
        children: list = [(("pair", i, j), None, Call(sub_pair, drop_wires(n, (i, j)))) for i, j in pairs]
        rewrite = {tag("L", pair(i, j)): pair(i, j) for i, j in pairs}
        children.append((("rest",), rewrite, Call(sub_rest, identity_wires(n))))
        root = _uniform_start(n, GadgetStep(splits, MeasureStep(lambda l: right_arms.get(l, ("rest",)),
                                                                tuple(children))))
    k, l = (n - d) // 2, (n + d) // 2
    return Plan(
        family="unb", n=n, params=(("n", n), ("d", d)),
        root=root, claimed_queries=unb_claimed_queries(n, d), truth=weight_truth(n, frozenset({k, l})),
    )


# ---------------------------------------------------------------------------
# EQUALITY and single-weight EXACT
# ---------------------------------------------------------------------------


@_memoized
def build_equality(n: int) -> Plan:
    """Plan for EQUALITY_n (all bits agree), n-1 queries by pairwise parity."""
    if n < 1:
        raise ValueError(f"EQUALITY needs n >= 1, got {n}")
    if n == 1:
        root: PlanNode = Output(1)
    else:
        sub = build_equality(n - 1)
        # Query x_1 and x_2 from the uniform start on two indices: |S>
        # survives exactly when they agree.
        root = _uniform_start(2, MeasureStep(lambda l: ("s",) if l == S_LABEL else ("pair",), (
            (("s",), None, Call(sub, tuple(var(i) for i in range(2, n + 1)))),
            (("pair",), None, Output(0)),
        )))
    return Plan(family="equality", n=n, params=(("n", n),),
                root=root, claimed_queries=n - 1, truth=weight_truth(n, frozenset({0, n})))


@_memoized
def _build_balanced_exact(m: int) -> Plan:
    """Plan for the balanced case: weight == m/2 on m variables, m/2 queries."""
    if m % 2 != 0 or m < 0:
        raise ValueError(f"balanced instance needs even m >= 0, got {m}")
    if m == 0:
        root: PlanNode = Output(1)
    else:
        sub = _build_balanced_exact(m - 2)
        outcomes = {S_LABEL: ("s",), **{pair(i, j): ("pair", i, j) for i, j in _pairs(m)}}
        children = [(("s",), None, Output(0))] + [
            (("pair", i, j), None, Call(sub, drop_wires(m, (i, j)))) for i, j in _pairs(m)]
        root = _uniform_start(m, MeasureStep(outcomes.get, tuple(children)))
    return Plan(family="exact", n=m, params=(("n", m), ("k", m // 2)),
                root=root, claimed_queries=m // 2, truth=weight_truth(m, frozenset({m // 2})))


@_memoized
def build_exact_k(n: int, k: int) -> Plan:
    """Plan for EXACT_k^n: pad to the balanced case, then eliminate pairs."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    target = 2 * max(k, n - k)
    pad_bit = 1 if k <= n - k else 0
    sub = _build_balanced_exact(target)
    wires = identity_wires(n) + tuple(const(pad_bit) for _ in range(target - n))
    return Plan(
        family="exact", n=n, params=(("n", n), ("k", k)),
        root=Call(sub, wires), claimed_queries=max(k, n - k),
        truth=weight_truth(n, frozenset({k})),
    )


# ---------------------------------------------------------------------------
# One-ancilla test steps and the general algorithm
# ---------------------------------------------------------------------------


def _ancilla_test_step(n: int, prep_zero_amp: float, s_gadget_apps: _Apps,
                       dropped: Plan | None, s0: Plan, s1: Plan) -> tuple[PlanNode, int]:
    """Shared spine: (a|0> + |1>)|S>, controlled spread, query, controlled
    collect, an ancilla gadget, and a full measurement. Each pair outcome
    calls `dropped` on the n-2 variables left (outputs 0 if it is None);
    the ancilla outcomes |0>|S> and |1>|S> call `s0` and `s1` on all n.
    Returns the root and its query count: 1 + the most a callee claims."""
    nu = math.hypot(prep_zero_amp, 1.0)
    prep = LabeledState({
        comp(anc(0), S_LABEL): prep_zero_amp / nu,
        comp(anc(1), S_LABEL): 1.0 / nu,
    })
    ug = u_gadget(n)
    spread = bind(ug, {comp(anc(1), l): l for l in ug.space})
    ends = {comp(anc(0), S_LABEL): ("s", 0), comp(anc(1), S_LABEL): ("s", 1)}
    pairs = {pair(i, j): ("pair", i, j) for i, j in _pairs(n)}

    def outcome_of(label):
        # A pair outcome holds its pair beside either ancilla bit.
        return (ends.get(label) or pairs.get(label[2])) if label[0] == "C" else None

    children = [(("pair", i, j), None, Call(dropped, drop_wires(n, (i, j))) if dropped else Output(0))
                for i, j in _pairs(n)]
    children += [(("s", 0), None, Call(s0, identity_wires(n))),
                 (("s", 1), None, Call(s1, identity_wires(n)))]
    measure = MeasureStep(outcome_of, tuple(children))

    root = PrepareState(prep,
            GadgetStep(((spread, True),),
             QueryStep(extract_trailing_index,
              GadgetStep(((spread, False),),
               GadgetStep(s_gadget_apps, measure)))))
    return root, 1 + max(p.claimed_queries for p in (dropped, s0, s1) if p)


def _hadamard_test_step(n: int, d: int, dropped: Plan, s0: Plan, s1: Plan) -> tuple[PlanNode, int]:
    """Test step ruling out one unbalance sign: ancilla |0> observed with |S>
    means the unbalance is not -d, and calls `s0`; |1> means it is not +d,
    and calls `s1`. Returns `_ancilla_test_step`'s root and query count."""
    h = hadamard_gadget()
    ug = u_gadget(n)
    apps = tuple(
        (bind(h, {comp(anc(0), l): anc(0), comp(anc(1), l): anc(1)}), False)
        for l in ug.space if l[0] != "I"
    )
    return _ancilla_test_step(n, d / n, apps, dropped, s0, s1)


def _uw_test_step(n: int, u: int, w: int,
                  dropped: Plan | None, s0: Plan, s1: Plan) -> tuple[PlanNode, int]:
    """Asymmetric test step: |0> with |S> rules out unbalance +u, and calls
    `s0`; |1> rules out -w, and calls `s1`. Returns `_ancilla_test_step`'s
    root and query count."""
    qg = q_rotation(u, w)
    apps = ((bind(qg, {comp(anc(0), S_LABEL): anc(0), comp(anc(1), S_LABEL): anc(1)}), False),)
    return _ancilla_test_step(n, math.sqrt(u * w) / n, apps, dropped, s0, s1)


@_memoized
def build_general_unbalance(n: int, k: int) -> Plan:
    """Plan for EXACT_{k,n-k}^n via the one-ancilla sign test, n-k+1 queries."""
    if k < 0 or 2 * k >= n:
        raise ValueError(f"need 0 <= k < n/2, got k={k}, n={n}")
    if k == 0:
        # EXACT_{0,n}^n is EQUALITY; delegate and keep its tighter bound.
        root: PlanNode = Call(build_equality(n), identity_wires(n))
        claimed = n - 1
    else:
        root, claimed = _hadamard_test_step(n, n - 2 * k, build_general_unbalance(n - 2, k - 1),
                                            build_exact_k(n, k), build_exact_k(n, n - k))
    return Plan(
        family="general", n=n, params=(("n", n), ("k", k)),
        root=root, claimed_queries=claimed, truth=weight_truth(n, frozenset({k, n - k})),
    )


@_memoized
def build_uw_step(n: int, u: int, w: int) -> Plan:
    """Plan deciding weight (n-u)/2 or (n+w)/2 by iterating the u/w test."""
    if not (isinstance(u, int) and isinstance(w, int)):
        raise ValueError(f"u and w must be integers, got {u!r}, {w!r}")
    if u < 1 or w < 1:
        raise ValueError(f"u = {u}, w = {w}: zero or negative test values are not supported")
    if u > n or w > n:
        raise ValueError(f"need u, w <= n, got u={u}, w={w}, n={n}")
    if (n - u) % 2 != 0 or (n - w) % 2 != 0:
        raise ValueError(f"need u = w = n (mod 2), got n={n}, u={u}, w={w}")
    k, l = (n - u) // 2, (n + w) // 2

    # A pair outcome leaves n-2 variables: iterate while both test values
    # fit, test the one weight left, or answer 0 when neither is possible.
    n2 = n - 2
    dropped: Plan | None = None
    if u <= n2 and w <= n2:
        dropped = build_uw_step(n2, u, w)
    elif w <= n2:
        dropped = build_exact_k(n2, (n2 + w) // 2)
    elif u <= n2:
        dropped = build_exact_k(n2, (n2 - u) // 2)

    root, claimed = _uw_test_step(n, u, w, dropped, build_exact_k(n, l), build_exact_k(n, k))
    return Plan(
        family="uw", n=n, params=(("n", n), ("u", u), ("w", w)),
        root=root, claimed_queries=claimed, truth=weight_truth(n, frozenset({k, l})),
    )


# ---------------------------------------------------------------------------
# Padding dispatcher
# ---------------------------------------------------------------------------


def exact_kl_claimed_queries(n: int, k: int, l: int) -> int:
    d = l - k
    if d == 0:
        return max(k, n - k)
    if d == n:
        return n - 1
    hi = max(n - k, l)
    if d == 1:
        return hi
    if d in (2, 3):
        return hi - 1
    return hi + 1


@_memoized
def build_exact_kl(n: int, k: int, l: int) -> Plan:
    """Plan for EXACT_{k,l}^n: pad to the symmetric case, then dispatch on the
    gap d = l-k (chain family for d <= 3, ancilla test for d >= 4)."""
    if not 0 <= k <= l <= n:
        raise ValueError(f"need 0 <= k <= l <= n, got k={k}, l={l}, n={n}")
    truth = weight_truth(n, frozenset({k, l}))
    params = (("n", n), ("k", k), ("l", l))
    claimed = exact_kl_claimed_queries(n, k, l)
    d = l - k
    if d == 0:
        root: PlanNode = Call(build_exact_k(n, k), identity_wires(n))
    elif d == n:
        root = Call(build_equality(n), identity_wires(n))
    else:
        if l < n - k:
            pad_count, pad_bit = n - k - l, 1
        elif l > n - k:
            pad_count, pad_bit = k + l - n, 0
        else:
            pad_count, pad_bit = 0, 0
        n2 = n + pad_count
        k2 = k + (pad_count if pad_bit == 1 else 0)
        sub = build_unb(n2, d) if d <= 3 else build_general_unbalance(n2, k2)
        root = Call(sub, identity_wires(n) + tuple(const(pad_bit) for _ in range(pad_count)))
    return Plan(family="exactkl", n=n, params=params, root=root,
                claimed_queries=claimed, truth=truth)
