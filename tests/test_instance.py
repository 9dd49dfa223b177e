"""Instance construction, validation, enumeration, and serialization."""

import json
import tracemalloc
from math import comb

import pytest

from picod.errors import CapExceeded
from picod.instance import (
    Instance,
    assignment_to_lists,
    build_complete_s,
    instance_from_wire,
    instance_wire,
    user_choices,
    validate_assignment,
)
from util import random_instance, seeded


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

    def test_rejects_empty_or_negative_sizes(self):
        with pytest.raises(ValueError, match="must be non-empty"):
            build_complete_s(3, 1, set())
        with pytest.raises(ValueError, match="must be non-negative"):
            build_complete_s(3, 1, {-1, 1})
        # duplicates collapse: S is a set
        assert build_complete_s(3, 1, [1, 1]) == build_complete_s(3, 1, {1})

    def test_user_cap(self):
        with pytest.raises(CapExceeded):
            build_complete_s(25, 1, set(range(25)), user_cap=10**6)

    def test_masks_mirror_users_outside_equality(self):
        inst = build_complete_s(4, 1, {0, 2})
        assert inst.masks[1] == 0b0011
        # build_complete_s fills the masks itself; they match the ones an
        # instance derives from its users, with 0 and m - t in S too
        for m, t, sizes in [(4, 1, {0, 2}), (5, 1, {0, 4}), (6, 2, {0, 1, 4}), (3, 3, {0})]:
            inst = build_complete_s(m, t, sizes)
            assert "masks" in vars(inst)
            fresh = Instance(m, t, inst.users)
            assert inst.masks == fresh.masks == tuple(
                sum(1 << x for x in a) for a in inst.users
            )
            assert fresh == inst and hash(fresh) == hash(inst)


class TestIsCompleteS:
    @pytest.mark.parametrize("m,t,sizes", [(1, 1, {0}), (3, 1, {1}), (4, 1, {0, 2}), (5, 2, {0, 1, 3})])
    def test_built_instances_in_any_order(self, m, t, sizes):
        inst = build_complete_s(m, t, sizes)
        assert inst.complete_s_sizes == tuple(sorted(sizes))
        assert Instance(m, t, inst.users[::-1]).complete_s_sizes == tuple(sorted(sizes))

    def test_layer_counts_alone_do_not_suffice(self):
        # 1 + 2 users for S = {0, 1} at m = 2, but the empty set twice
        assert Instance(2, 1, (frozenset(), frozenset({0}), frozenset())).complete_s_sizes == ()

    def test_missing_or_stray_users(self):
        users = build_complete_s(3, 1, {1}).users
        assert Instance(3, 1, users[:-1]).complete_s_sizes == ()
        # a stray message outside range(m) cannot even be built
        with pytest.raises(ValueError, match=r"\(user 3\): side information outside"):
            Instance(3, 1, users[:-1] + (frozenset({3}),))
        assert Instance(3, 1, users + (frozenset({0, 1}),)).complete_s_sizes == ()
        assert Instance(3, 1, ()).complete_s_sizes == ()

    def test_cached_outside_equality(self):
        inst = build_complete_s(4, 1, {0, 2})
        assert inst.complete_s_sizes is inst.complete_s_sizes
        fresh = Instance(inst.m, inst.t, inst.users)
        assert fresh == inst and hash(fresh) == hash(inst)


class TestValidation:
    """Construction is the one place that checks the PICOD(t) premise."""

    def test_accepts_duplicates_and_empty(self):
        inst = Instance(m=3, t=1, users=(frozenset(), frozenset(), frozenset({0, 1})))
        assert inst.n == 3

    def test_rejects_overfull_side_information(self):
        with pytest.raises(ValueError, match=r"^invalid instance \(user 1\): side information of size 2"):
            Instance(m=3, t=2, users=(frozenset({0, 1}),))

    def test_rejects_out_of_range_member(self):
        for bad in (3, -1):
            with pytest.raises(ValueError, match=r"^invalid instance \(user 2\): side information outside"):
                Instance(m=3, t=1, users=(frozenset(), frozenset({bad})))

    def test_rejects_bad_parameters(self):
        for m, t in ((0, 1), (2, 0), (2, 3)):
            with pytest.raises(ValueError, match=r"^invalid instance \(instance\): "):
                Instance(m=m, t=t, users=())

    def test_check_allocates_nothing_of_size_m(self):
        # m may come from an input file; a ground set of m messages would
        # take tens of megabytes here
        m = 10**6
        tracemalloc.start()
        try:
            Instance(m=m, t=1, users=(frozenset({0, m - 1}),))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**5


class TestAssignments:
    def test_choices_avoid_side_information(self):
        inst = build_complete_s(4, 2, {1})
        for i in range(inst.n):
            for choice in user_choices(inst, i):
                assert len(choice) == 2
                assert not (choice & inst.users[i])

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

    def test_validate_assignment_message_out_of_range(self):
        inst = build_complete_s(3, 1, {1})
        with pytest.raises(ValueError, match="user 0: desired message outside range"):
            validate_assignment(inst, (frozenset({-1}), frozenset({0}), frozenset({0})))


class TestJson:
    def test_round_trip_is_identity(self):
        rng = seeded(11)
        for _ in range(25):
            inst = random_instance(rng, m_max=6, n_max=8, t=rng.randint(1, 2))
            again = instance_from_wire(instance_wire(inst))
            assert again == inst

    def test_wire_format_is_one_based(self):
        inst = build_complete_s(3, 1, {1})
        assert instance_wire(inst) == {"m": 3, "t": 1, "users": [[1], [2], [3]]}

    def test_from_json_validates(self):
        with pytest.raises(ValueError):
            instance_from_wire(json.loads('{"m": 3, "t": 1, "users": [[4]]}'))
        with pytest.raises(ValueError):
            instance_from_wire(json.loads('{"m": 3, "t": 3, "users": [[1]]}'))

    def test_assignment_lists(self):
        assert assignment_to_lists((frozenset({0, 2}), frozenset({1}))) == [
            [1, 3],
            [2],
        ]
