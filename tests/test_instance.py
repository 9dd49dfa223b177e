"""Instance construction, validation, enumeration, and serialization."""

import json
from math import comb

import pytest

from picod.errors import CapExceeded
from picod.instance import (
    Instance,
    SizeProfile,
    assignment_count,
    assignment_to_lists,
    build_complete_s,
    enumerate_assignments,
    instance_from_json,
    instance_to_json,
    is_complete_s,
    user_choices,
    validate_assignment,
    validate_instance,
)
from util import random_instance, seeded


class TestSizeProfile:
    def test_parse_list_and_ranges(self):
        assert SizeProfile.parse("0,2-4,6").sorted() == (0, 2, 3, 4, 6)
        assert SizeProfile.parse("3").sorted() == (3,)
        assert SizeProfile.parse("1, 2 ,3").sorted() == (1, 2, 3)
        assert SizeProfile.parse("2-2").sorted() == (2,)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            SizeProfile.parse("")
        with pytest.raises(ValueError):
            SizeProfile.parse("3-1")
        with pytest.raises(ValueError):
            SizeProfile.parse("x")
        with pytest.raises(ValueError):
            SizeProfile.parse("-1")

    def test_bounds_and_consecutive(self):
        p = SizeProfile.parse("1-3")
        assert (p.smin, p.smax, p.is_consecutive) == (1, 3, True)
        q = SizeProfile.parse("0,2")
        assert (q.smin, q.smax, q.is_consecutive) == (0, 2, False)
        assert SizeProfile.parse("5").is_consecutive


class TestBuildCompleteS:
    def test_singleton_layer(self):
        inst = build_complete_s(3, 1, {1})
        assert inst.n == 3
        assert inst.users == (frozenset({0}), frozenset({1}), frozenset({2}))

    def test_layer_then_lex_order(self):
        inst = build_complete_s(4, 1, {0, 2})
        assert inst.users[0] == frozenset()
        pairs = [tuple(sorted(a)) for a in inst.users[1:]]
        assert pairs == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

    def test_counts_match_binomials(self):
        for m in range(1, 7):
            for t in range(1, m + 1):
                sizes = frozenset(range(0, m - t + 1))
                inst = build_complete_s(m, t, sizes)
                assert inst.n == sum(comb(m, s) for s in sizes)

    def test_rejects_out_of_range_sizes(self):
        with pytest.raises(ValueError):
            build_complete_s(4, 2, {3})
        with pytest.raises(ValueError):
            build_complete_s(3, 4, {0})

    def test_user_cap(self):
        with pytest.raises(CapExceeded):
            build_complete_s(25, 1, set(range(25)), user_cap=10**6)

    def test_masks_mirror_users_outside_equality(self):
        inst = build_complete_s(4, 1, {0, 2})
        assert inst.masks == tuple(
            sum(1 << x for x in a) for a in inst.users
        )
        assert inst.masks[1] == 0b0011
        fresh = Instance(inst.m, inst.t, inst.users)
        assert fresh == inst and hash(fresh) == hash(inst)


class TestIsCompleteS:
    @pytest.mark.parametrize("m,t,sizes", [(1, 1, {0}), (3, 1, {1}), (4, 1, {0, 2}), (5, 2, {0, 1, 3})])
    def test_built_instances_in_any_order(self, m, t, sizes):
        inst = build_complete_s(m, t, sizes)
        assert is_complete_s(inst)
        assert is_complete_s(Instance(m, t, inst.users[::-1]))

    def test_layer_counts_alone_do_not_suffice(self):
        # 1 + 2 users for S = {0, 1} at m = 2, but the empty set twice
        assert not is_complete_s(Instance(2, 1, (frozenset(), frozenset({0}), frozenset())))

    def test_missing_or_stray_users(self):
        users = build_complete_s(3, 1, {1}).users
        assert not is_complete_s(Instance(3, 1, users[:-1]))
        assert not is_complete_s(Instance(3, 1, users[:-1] + (frozenset({3}),)))
        assert not is_complete_s(Instance(3, 1, users + (frozenset({0, 1}),)))


class TestValidation:
    def test_accepts_duplicates_and_empty(self):
        inst = Instance(m=3, t=1, users=(frozenset(), frozenset(), frozenset({0, 1})))
        assert validate_instance(inst) is None

    def test_rejects_overfull_side_information(self):
        inst = Instance(m=3, t=2, users=(frozenset({0, 1}),))
        bad = validate_instance(inst)
        assert bad is not None and bad.user == 0

    def test_rejects_out_of_range_member(self):
        inst = Instance(m=3, t=1, users=(frozenset({3}),))
        bad = validate_instance(inst)
        assert bad is not None and bad.user == 0

    def test_rejects_bad_parameters(self):
        assert validate_instance(Instance(m=0, t=1, users=())) is not None
        assert validate_instance(Instance(m=2, t=0, users=())) is not None
        assert validate_instance(Instance(m=2, t=3, users=())) is not None


class TestAssignments:
    def test_count_formula(self):
        inst = build_complete_s(4, 1, {0, 2})
        assert assignment_count(inst) == 4 * 2**6

    def test_enumeration_matches_count(self):
        inst = build_complete_s(3, 1, {0, 1})
        seen = list(enumerate_assignments(inst))
        assert len(seen) == assignment_count(inst) == 24
        assert len(set(seen)) == 24
        for d in seen:
            validate_assignment(inst, d)

    def test_choices_avoid_side_information(self):
        inst = build_complete_s(4, 2, {1})
        for i in range(inst.n):
            for choice in user_choices(inst, i):
                assert len(choice) == 2
                assert not (choice & inst.users[i])

    def test_enumeration_cap(self):
        inst = build_complete_s(5, 1, {0, 1, 2, 3, 4})
        with pytest.raises(CapExceeded):
            next(enumerate_assignments(inst))

    def test_validate_assignment_rejections(self):
        inst = build_complete_s(3, 1, {1})
        with pytest.raises(ValueError):
            validate_assignment(inst, (frozenset({1}),))
        with pytest.raises(ValueError):
            validate_assignment(
                inst, (frozenset({0}), frozenset({0}), frozenset({0}))
            )
        with pytest.raises(ValueError):
            validate_assignment(
                inst, (frozenset({1, 2}), frozenset({0}), frozenset({0}))
            )


class TestJson:
    def test_round_trip_is_identity(self):
        rng = seeded(11)
        for _ in range(25):
            inst = random_instance(rng, m_max=6, n_max=8, t=rng.randint(1, 2))
            again = instance_from_json(instance_to_json(inst))
            assert again == inst

    def test_wire_format_is_one_based(self):
        inst = build_complete_s(3, 1, {1})
        obj = json.loads(instance_to_json(inst))
        assert obj == {"m": 3, "t": 1, "users": [[1], [2], [3]]}

    def test_from_json_validates(self):
        with pytest.raises(ValueError):
            instance_from_json('{"m": 3, "t": 1, "users": [[4]]}')
        with pytest.raises(ValueError):
            instance_from_json('{"m": 3, "t": 3, "users": [[1]]}')

    def test_assignment_lists(self):
        assert assignment_to_lists((frozenset({0, 2}), frozenset({1}))) == [
            [1, 3],
            [2],
        ]
