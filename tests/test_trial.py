import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from pbcrt import (
    CellStats,
    ObservedTrial,
    TrialValidationError,
    VarianceComponents,
)
from pbcrt.trial import _cluster_codes

from oracles import cell_table, drop_cluster, from_cell_means, from_records, str_codes


def make_trial(records):
    return from_records(records)


BASIC = [
    ("a", 0, 0, 1.0), ("a", 1, 0, 2.0),
    ("b", 0, 1, 3.0), ("b", 1, 1, 4.0), ("b", 1, 1, 6.0),
]


class TestValidation:
    def test_empty(self):
        with pytest.raises(TrialValidationError):
            from_records([])

    def test_bad_period(self):
        with pytest.raises(TrialValidationError, match="period"):
            make_trial([("a", 2, 0, 1.0), ("b", 1, 1, 1.0)])

    def test_bad_sequence(self):
        with pytest.raises(TrialValidationError, match="sequence"):
            make_trial([("a", 0, 3, 1.0), ("b", 1, 1, 1.0)])

    def test_nonfinite_outcome(self):
        with pytest.raises(TrialValidationError, match="finite"):
            make_trial(BASIC + [("b", 1, 1, math.nan)])

    def test_inconsistent_sequence_within_cluster(self):
        rows = BASIC + [("a", 0, 1, 1.0)]
        with pytest.raises(TrialValidationError, match="'a'"):
            make_trial(rows)

    def test_missing_period_cell(self):
        rows = [("a", 0, 0, 1.0), ("a", 1, 0, 2.0), ("b", 1, 1, 3.0)]
        with pytest.raises(TrialValidationError, match="'b'"):
            make_trial(rows)

    def test_single_arm(self):
        rows = [("a", 0, 0, 1.0), ("a", 1, 0, 2.0),
                ("b", 0, 0, 3.0), ("b", 1, 0, 4.0)]
        with pytest.raises(TrialValidationError, match="arm"):
            make_trial(rows)

    def test_length_mismatch(self):
        with pytest.raises(TrialValidationError):
            ObservedTrial(["a", "b"], [0, 1, 0], [0, 1], [1.0, 2.0])


class TestIndexing:
    def test_cluster_stats(self):
        t = make_trial(BASIC)
        assert t.cells.n_clusters == 2
        assert t.cells.n_obs == 5
        c = t.cells
        assert list(c.ids) == ["a", "b"]
        assert list(c.sequence) == [0, 1]
        assert list(c.k0) == [1, 1] and list(c.k1) == [1, 2]
        assert c.origin == pytest.approx(3.2)
        assert c.mean1[1] + c.origin == pytest.approx(5.0)
        assert list(c.within) == pytest.approx([0.0, 2.0])
        m = c.means
        assert (m.k1[1], m.mean1[1], m.within[1]) == (1.0, c.mean1[1], 0.0)
        assert m.origin == c.origin

    def test_first_appearance_order(self):
        rows = [("z", 0, 1, 1.0), ("z", 1, 1, 1.0),
                ("a", 0, 0, 1.0), ("a", 1, 0, 1.0)]
        t = make_trial(rows)
        assert list(t.cells.ids) == ["z", "a"]

    def test_equal_period_sizes_flag(self):
        assert not make_trial(BASIC).cells.equal_period_sizes
        t = make_trial([("a", 0, 0, 1.0), ("a", 1, 0, 2.0),
                        ("b", 0, 1, 3.0), ("b", 1, 1, 4.0)])
        assert t.cells.equal_period_sizes

    def test_drop_cluster(self):
        rows = BASIC + [("c", 0, 0, 5.0), ("c", 1, 0, 6.0)]
        t = make_trial(rows)
        sub = drop_cluster(t, "a")
        assert list(sub.cells.ids) == ["b", "c"]
        assert sub.cells.n_obs == 5
        with pytest.raises(KeyError):
            drop_cluster(t, "nope")

    def test_cells_read_only(self):
        # Results memoised on a cell table cannot go stale.
        c = make_trial(BASIC).cells
        with pytest.raises(ValueError, match="read-only"):
            c.mean0[0] = 9.0
        with pytest.raises(ValueError, match="read-only"):
            c.gls_map[0, 0, 0] = 9.0

    def test_from_cell_means(self):
        t = from_cell_means([
            ("a", 0, 2, 3, 1.5, 2.5), ("b", 1, 1, 1, 0.0, 4.0)])
        c = t.cells
        assert (c.k0[0], c.k1[0]) == (2, 3)
        assert c.mean0[0] + c.origin == pytest.approx(1.5)
        assert c.within[0] == pytest.approx(0.0, abs=1e-24)

    def test_from_cell_means_equals_records(self):
        cells = [("a", 0, 2, 3, 1.5, 2.5), (7, 1, 1, 4, 0, -1.0),
                 (7.0, 1, 3, 1, 2.0, 4), ("b", 0, 1, 1, 0.25, 0.5)]
        records = [(cid, j, seq, m)
                   for cid, seq, k0, k1, m0, m1 in cells
                   for j, k, m in ((0, k0, m0), (1, k1, m1))
                   for _ in range(k)]
        got = from_cell_means(cells)
        want = from_records(records)
        assert got.cells == want.cells
        for col in ("cluster_ids", "periods", "sequences", "outcomes"):
            a, b = getattr(got, col), getattr(want, col)
            assert a.dtype == b.dtype and np.array_equal(a, b), col
        with pytest.raises(TrialValidationError, match="nonnegative"):
            from_cell_means([("a", 0, -1, 2, 0.0, 0.0)])

    def test_labels_coded_by_str(self):
        # 1 and 1.0 are equal but print differently: two clusters.  1 and
        # "1" print alike: one cluster.
        t = make_trial([(1, 0, 0, 1.0), (1.0, 0, 1, 2.0), (1, 1, 0, 3.0),
                        ("1", 1, 0, 4.0), (1.0, 1, 1, 5.0)])
        assert list(t.cells.ids) == ["1", "1.0"]
        assert list(t.cells.k1) == [2, 1]
        assert list(t.cluster_ids) == ["1", "1.0", "1", "1", "1.0"]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_run_length_codes_match_per_record_str(self, data):
        # Run-length coding gives the codes and ids of per-record str()
        # coding, on runs, shuffled and interleaved records, and labels
        # that compare equal but print differently (1, 1.0, True, -0.0).
        kind = data.draw(st.sampled_from(["object", "U", "i8", "f8", "f4"]))
        label = {
            "object": st.one_of(
                st.text(max_size=2), st.integers(-2, 2), st.booleans(),
                st.floats(), st.sampled_from([1, 1.0, "1", True, 0.0, -0.0,
                                              np.float64(1.0), np.int64(1)])),
            "U": st.text(max_size=3),
            "i8": st.integers(-3, 3),
            "f8": st.floats(),
            "f4": st.floats(width=32),
        }[kind]
        runs = data.draw(st.lists(st.tuples(label, st.integers(1, 4)),
                                  min_size=1, max_size=10))
        labels = [lab for lab, k in runs for _ in range(k)]
        if data.draw(st.booleans()):
            data.draw(st.randoms()).shuffle(labels)
        arr = np.empty(len(labels), dtype=object)
        arr[:] = labels
        if kind != "object":
            arr = arr.astype(kind)
        code, ids = _cluster_codes(arr)
        want_code, want_ids = str_codes(arr)
        assert code.tolist() == want_code
        assert ids.tolist() == want_ids

    @settings(max_examples=50, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 1),
                  st.floats(-10, 10, allow_nan=False)),
        min_size=2, max_size=60))
    def test_aggregation_matches_naive(self, rows):
        # Vectorized indexing must agree with a plain dict aggregation.
        recs = [(f"c{i}", j, i % 2, y) for i, j, y in rows]
        naive = {}
        for cid, j, s, y in recs:
            naive.setdefault(cid, ([], []))[j].append(y)
        try:
            t = from_records(recs)
        except TrialValidationError:
            return
        c = t.cells
        assert c.origin == pytest.approx(np.mean([r[3] for r in recs]))
        for i, cid in enumerate(c.ids):
            y0, y1 = naive[cid]
            assert (c.k0[i], c.k1[i]) == (len(y0), len(y1))
            assert c.mean0[i] + c.origin == pytest.approx(np.mean(y0), abs=1e-9)
            assert c.mean1[i] + c.origin == pytest.approx(np.mean(y1), abs=1e-9)
            assert c.within[i] == pytest.approx(
                np.var(y0) * len(y0) + np.var(y1) * len(y1), abs=1e-9)


def stack_row(cells, row):
    """The clusters that row `row` of the table's keep-mask keeps, as a table."""
    kept = cells.keep([row])[0] == 1.0
    return CellStats(*(a[kept] for a in cells._arrays()), cells.origin)


class TestDropCluster:
    def check_drops(self, t, recs, depth):
        # Each delete-one row of the keep-mask holds the kept records
        # reduced at the parent's origin, and the re-indexed subtrial the
        # same reduction at its own.
        assert stack_row(t.cells, 0) == t.cells
        for i, cid in enumerate(t.cells.ids):
            kept = [r for r in recs if r[0] != cid]
            assert stack_row(t.cells, i + 1) == cell_table(kept, t.cells.origin)
            try:
                sub = drop_cluster(t, cid)
            except TrialValidationError as exc:
                assert "arm" in str(exc) or "too close together" in str(exc)
                continue
            assert sub.cells == cell_table(kept, sub.cells.origin)
            want = from_records(kept)
            assert np.array_equal(sub.cluster_ids, want.cluster_ids)
            assert np.array_equal(sub.outcomes, want.outcomes)
            if depth > 1:
                self.check_drops(sub, kept, depth - 1)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                    min_size=2, max_size=7),
           st.randoms(use_true_random=False))
    def test_equals_reindexed_subset(self, sizes, rnd):
        # Deleting a cells row, as the jackknife does, and re-indexing the
        # remaining records give exactly the statistics of reducing those
        # records one at a time, also after a second deletion.
        recs = [(f"c{i}", j, i % 2, rnd.uniform(-10, 10))
                for i, k in enumerate(sizes) for j in (0, 1) for _ in range(k[j])]
        rnd.shuffle(recs)
        try:
            t = from_records(recs)
        except TrialValidationError as exc:
            # The draws can be subnormal about their mean (say three zeros
            # and 2.6e-264), which the trial refuses as drop_cluster does.
            assert "too close together" in str(exc)
            reject()
        assert t.cells == cell_table(recs, t.cells.origin)
        self.check_drops(t, recs, depth=2)

    def test_subtrial_refusals(self):
        # A re-indexed subtrial is refused without a cluster in each arm,
        # and when its outcomes' mean square is subnormal (dropping c2
        # leaves one nonzero outcome of 2.7e-256); the stack's rows are
        # compared either way.
        recs = [("c0", 0, 0, 0.0), ("c0", 1, 0, 0.0), ("c1", 0, 1, 0.0),
                ("c1", 1, 1, 2.67582702478153e-256), ("c2", 0, 0, 0.0),
                ("c2", 1, 0, 1.0)]
        t = from_records(recs)
        with pytest.raises(TrialValidationError, match="arm"):
            drop_cluster(t, "c1")
        with pytest.raises(TrialValidationError, match="too close together"):
            drop_cluster(t, "c2")
        self.check_drops(t, recs, depth=1)


class TestVarianceComponents:
    def test_iccs(self):
        vc = VarianceComponents(1.0, 0.053, 0.013)
        assert vc.rho == pytest.approx(0.053 / 1.053)
        assert vc.rho_wp == pytest.approx(0.066 / 1.066)
        assert vc.rho_bp == pytest.approx(0.053 / 1.066)
        assert vc.cac == pytest.approx(0.053 / 0.066)

    def test_cac_undefined(self):
        assert math.isnan(VarianceComponents(1.0).cac)

    def test_from_iccs_round_trip(self):
        vc = VarianceComponents.from_iccs(2.0, 0.1, 0.75)
        assert vc.rho_wp == pytest.approx(0.1)
        assert vc.cac == pytest.approx(0.75)
        assert vc.sigma_w2 == 2.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            VarianceComponents(1.0, -0.1)
        with pytest.raises(ValueError):
            VarianceComponents(0.0)
        with pytest.raises(ValueError):
            VarianceComponents(math.inf)
        assert VarianceComponents(1e-300).sigma_w2 == 1e-300  # no floor

    def test_frozen_hashable(self):
        assert hash(VarianceComponents(1.0)) == hash(VarianceComponents(1.0))
