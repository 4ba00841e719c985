"""Unit tests for triplets and iteration spaces."""

import math

import pytest

from repro.ir import LIV, IterationSpace, Triplet

k = LIV("k")
j = LIV("j")
i = LIV("i")


class TestTriplet:
    def test_count_forward(self):
        assert len(Triplet(1, 10)) == 10
        assert len(Triplet(1, 10, 3)) == 4  # 1,4,7,10
        assert len(Triplet(2, 1)) == 0

    def test_count_backward(self):
        assert len(Triplet(10, 1, -1)) == 10
        assert len(Triplet(10, 1, -4)) == 3  # 10,6,2
        assert len(Triplet(1, 2, -1)) == 0

    def test_iteration_matches_count(self):
        for t in [Triplet(1, 10), Triplet(2, 17, 3), Triplet(9, -3, -4)]:
            assert len(list(t)) == len(t)

    def test_contains(self):
        t = Triplet(2, 20, 3)
        assert 5 in t and 20 in t
        assert 6 not in t and 23 not in t

    def test_last_and_normalized(self):
        t = Triplet(1, 10, 4)  # 1,5,9
        assert t.last == 9
        assert t.normalized() == Triplet(1, 9, 4)

    def test_last_empty_raises(self):
        with pytest.raises(ValueError):
            Triplet(2, 1).last

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError):
            Triplet(1, 5, 0)

    def test_value_at(self):
        t = Triplet(3, 30, 3)
        assert t.value_at(0) == 3
        assert t.value_at(9) == 30
        with pytest.raises(IndexError):
            t.value_at(10)


class TestTripletSplit:
    @pytest.mark.parametrize("m", [1, 2, 3, 5, 100])
    def test_split_covers_in_order(self, m):
        t = Triplet(1, 17, 2)
        parts = t.split(m)
        flat = [v for part in parts for v in part]
        assert flat == list(t)
        assert len(parts) == min(m, len(t))

    def test_split_sizes_balanced(self):
        parts = Triplet(1, 10).split(3)
        sizes = [len(p) for p in parts]
        assert sizes == [4, 3, 3]

    def test_split_at(self):
        t = Triplet(1, 10)
        l, r = t.split_at(4)
        assert list(l) == [1, 2, 3, 4]
        assert list(r) == [5, 6, 7, 8, 9, 10]

    def test_split_at_ends(self):
        t = Triplet(1, 5)
        l, r = t.split_at(0)
        assert l.is_empty() and list(r) == [1, 2, 3, 4, 5]
        l, r = t.split_at(5)
        assert list(l) == [1, 2, 3, 4, 5] and r.is_empty()

    def test_split_nonpositive_raises(self):
        with pytest.raises(ValueError):
            Triplet(1, 5).split(0)


class TestIterationSpace:
    def test_scalar_space(self):
        s = IterationSpace.scalar()
        assert s.count == 1
        assert list(s.points()) == [{}]

    def test_single(self):
        s = IterationSpace.single(k, 1, 5)
        assert s.count == 5
        assert [env[k] for env in s.points()] == [1, 2, 3, 4, 5]

    def test_nested_points(self):
        s = IterationSpace.single(k, 1, 2).extended(j, Triplet(1, 3))
        pts = list(s.points())
        assert len(pts) == 6
        assert pts[0] == {k: 1, j: 1}
        assert pts[-1] == {k: 2, j: 3}

    def test_extended_duplicate_raises(self):
        s = IterationSpace.single(k, 1, 2)
        with pytest.raises(ValueError):
            s.extended(k, Triplet(1, 3))

    def test_restricted(self):
        s = IterationSpace.single(k, 1, 10).restricted(k, Triplet(3, 5))
        assert s.count == 3

    def test_grid_partition_depth2(self):
        s = IterationSpace.single(k, 1, 9).extended(j, Triplet(1, 9))
        parts = s.grid_partition(3)
        assert len(parts) == 9
        assert sum(p.count for p in parts) == 81

    def test_grid_partition_scalar(self):
        s = IterationSpace.scalar()
        assert s.grid_partition(3) == [s]


class TestHashIsCachedNotKept:
    """A space caches its hash (``cached_moments`` hashes the whole space
    on every lookup), but never compares it and never pickles it."""

    @staticmethod
    def _space():
        return IterationSpace((k, j), (Triplet(1, 9, 2), Triplet(0, 4)))

    def test_hashed_and_fresh_spaces_are_equal_and_pickle_alike(self):
        import pickle

        hashed, fresh = self._space(), self._space()
        assert hash(hashed) == hash(hashed) == hash(fresh)
        assert hashed == fresh and not hashed != fresh
        for proto in range(2, pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.dumps(hashed, proto) == pickle.dumps(self._space(), proto)
        back = pickle.loads(pickle.dumps(hashed))
        assert vars(back) == {"livs": hashed.livs, "triplets": hashed.triplets}

    @pytest.mark.parametrize("seed", ["1", "2"])
    def test_an_unpickled_space_hashes_as_the_process_builds_it(self, seed):
        """Unpickled under another ``PYTHONHASHSEED``, a space hashes
        like a fresh one of that process: a kept hash would be this
        process's."""
        import os
        import pickle
        import subprocess
        import sys
        from pathlib import Path

        hashed = self._space()
        hash(hashed)
        script = (
            "import pickle, sys\n"
            "from repro.ir import LIV, IterationSpace, Triplet\n"
            "got = pickle.loads(sys.stdin.buffer.read())\n"
            "fresh = IterationSpace((LIV('k'), LIV('j')), (Triplet(1, 9, 2), Triplet(0, 4)))\n"
            "print(hash(got) == hash(fresh), got == fresh, {fresh: 1}[got])\n"
        )
        src = Path(__file__).parent.parent / "src"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        run = subprocess.run(
            [sys.executable, "-c", script],
            input=pickle.dumps(hashed),
            capture_output=True,
            env=env,
            check=True,
        )
        assert run.stdout.split() == [b"True", b"True", b"1"]


class TestProjected:
    nest = IterationSpace(
        (i, j, k), (Triplet(1, 3), Triplet(2, 8, 3), Triplet(5, 1, -2))
    )

    SUBSETS = [(), (i,), (j,), (k,), (i, j), (i, k), (j, k), (i, j, k)]

    def test_keeps_nest_order_whatever_the_argument_order(self):
        p = self.nest.projected([k, i])
        assert p.livs == (i, k)
        assert p.triplets == (Triplet(1, 3), Triplet(5, 1, -2))
        assert self.nest.projected({k, j, i}) == self.nest

    def test_livs_outside_the_space_are_ignored(self):
        assert self.nest.projected([LIV("z"), j]).livs == (j,)

    @pytest.mark.parametrize("livs", SUBSETS)
    def test_count_is_projected_count_times_multiplicity(self, livs):
        p = self.nest.projected(livs)
        mult = math.prod(
            len(t)
            for v, t in zip(self.nest.livs, self.nest.triplets)
            if v not in livs
        )
        assert self.nest.count == p.count * mult
        assert self.nest.count // p.count == mult

    @pytest.mark.parametrize("livs", SUBSETS)
    def test_first_appearance_order_is_the_projected_walk(self, livs):
        # The comm-profile compiler relies on this: walking the
        # projection meets distinct moves in the order the full walk does.
        first_seen = list(
            dict.fromkeys(
                tuple(env[v] for v in self.nest.livs if v in livs)
                for env in self.nest.points()
            )
        )
        p = self.nest.projected(livs)
        assert first_seen == [
            tuple(env[v] for v in p.livs) for env in p.points()
        ]

    def test_scalar_space(self):
        s = IterationSpace.scalar()
        assert s.projected([k]) == s
        assert list(s.projected([]).points()) == [{}]

    def test_projecting_everything_away_leaves_the_scalar_space(self):
        p = self.nest.projected([])
        assert p == IterationSpace.scalar() and p.count == 1

    def test_empty_space(self):
        empty = IterationSpace((j, k), (Triplet(1, 4), Triplet(2, 1)))
        assert empty.is_empty()
        # Keeping the empty dimension keeps the space empty; dropping it
        # does not, so callers must test the *space* for emptiness.
        assert empty.projected([k]).is_empty()
        assert empty.projected([k]).count == 0
        assert not empty.projected([j]).is_empty()
        assert list(empty.points()) == []
