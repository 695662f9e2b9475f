"""Cross-century tracking and emergence detection."""

from dataclasses import replace

import pytest

from asnkit import (
    GrammaticalRole,
    NodeKey,
    aggregate,
    detect_emergent_heads,
    hierarchy_levels,
    track,
)
from corpora import takeover_corpus
from oracles import make_asn, nkey, parse_corpus

MOGEN = NodeKey(lemma="mogen", role=GrammaticalRole.MODAL_VERB)
KONNEN = NodeKey(lemma="konnen", role=GrammaticalRole.MODAL_VERB)
WERDEN = NodeKey(lemma="werden", role=GrammaticalRole.AUXILIARY)


def series_from(text):
    slices = parse_corpus(text)
    out = []
    for s in slices:
        asn = aggregate(s.trees)
        out.append((asn, hierarchy_levels(asn)))
    return out


def shifted_series(pairs, base_century):
    """Same networks relabelled to consecutive centuries from base."""
    out = []
    for i, (asn, levels) in enumerate(pairs):
        out.append((replace(asn, century=base_century + i), levels))
    return out


class TestTakeoverScenario:
    PAIRS = None

    @classmethod
    def setup_class(cls):
        cls.PAIRS = series_from(takeover_corpus())

    def test_new_modal_emerges_at_exactly_one_century(self):
        events = detect_emergent_heads(self.PAIRS)
        assert [e.key for e in events] == [KONNEN]
        event = events[0]
        assert event.century == 16
        assert event.prior_rank is None
        assert event.new_rank <= 10

    def test_stable_vocabulary_raises_no_other_events(self):
        events = detect_emergent_heads(self.PAIRS)
        assert all(e.key != MOGEN for e in events)
        assert all(e.key != WERDEN for e in events)

    def test_rank_frequency_dissociation_of_the_old_modal(self):
        (trajectory,) = track([MOGEN], self.PAIRS)
        freqs = [p.frequency for p in trajectory.points]
        ranks = [p.level_rank for p in trajectory.points]
        assert freqs[0] > 5 * freqs[-1]  # frequency collapses (12 -> 2)
        assert all(r <= 10 for r in ranks)  # yet it never leaves the band
        assert all(p.is_head for p in trajectory.points)

    def test_new_modal_absent_then_present(self):
        (trajectory,) = track([KONNEN], self.PAIRS)
        present = [p.present for p in trajectory.points]
        assert present == [False, False, True, True]
        for p in trajectory.points:
            if not p.present:
                assert p.level is None and p.level_rank is None
                assert p.frequency == 0 and not p.is_head
            else:
                assert p.level == 0.0 and p.is_head

    def test_every_rank_is_the_solved_level_rank(self):
        # track and detect_emergent_heads report the ranks hierarchy_levels
        # solves with the levels, and rank nothing again.
        rank = {asn.century: dict(zip(asn.keys, levels.rank.tolist()))
                for asn, levels in self.PAIRS}
        keys = sorted({key for ranks in rank.values() for key in ranks},
                      key=lambda key: key.sort_key)
        for trajectory in track(keys, self.PAIRS):
            for point in trajectory.points:
                assert point.level_rank == rank[point.century].get(trajectory.key)
        events = detect_emergent_heads(self.PAIRS)
        assert events
        for event in events:
            assert event.new_rank == rank[event.century][event.key]

    def test_relabelled_centuries_shift_events_only(self):
        events = detect_emergent_heads(self.PAIRS)
        shifted = detect_emergent_heads(shifted_series(self.PAIRS, 20))
        assert [(e.key, e.new_rank, e.prior_rank) for e in events] == [
            (e.key, e.new_rank, e.prior_rank) for e in shifted
        ]
        # the takeover century is the third slice in both labellings
        assert shifted[0].century == 22


class TestEmergenceRules:
    def test_stationary_series_has_no_events(self):
        asn = make_asn([("a", "b", 2), ("b", "c", 1)])
        pairs = shifted_series([(asn, hierarchy_levels(asn))] * 3, 14)
        assert detect_emergent_heads(pairs) == []

    def test_first_slice_is_baseline_not_emergence(self):
        early = make_asn([("a", "b", 1)])
        pairs = shifted_series([(early, hierarchy_levels(early))], 14)
        assert detect_emergent_heads(pairs) == []

    @staticmethod
    def _chain_with(mover_depth, length=14):
        """A single chain; ``mover`` sits at the given depth (rank depth+1)."""
        lemmas = [f"x{i:02d}" for i in range(length)]
        lemmas.insert(mover_depth, "mover")
        return make_asn([(a, b, 1) for a, b in zip(lemmas, lemmas[1:])])

    def test_rank_jitter_below_min_gain_is_ignored(self):
        # mover climbs rank 12 -> 9: inside band=10, but the prior rank is
        # shy of band + min_gain = 15, so the move is jitter, not emergence
        then = self._chain_with(11)
        now = self._chain_with(8)
        pairs = shifted_series(
            [(then, hierarchy_levels(then)), (now, hierarchy_levels(now))], 14
        )
        events = detect_emergent_heads(pairs, band=10, min_gain=5)
        assert all(e.key.lemma != "mover" for e in events)
        # the same move does count once the required gain is small enough
        events = detect_emergent_heads(pairs, band=10, min_gain=2)
        assert [e.key.lemma for e in events] == ["mover"]
        assert events[0].prior_rank == 12 and events[0].new_rank == 9

    def test_absent_to_band_counts_with_any_gain_setting(self):
        a = make_asn([("a", "b", 1)])
        b = make_asn([("a", "b", 1), ("new", "b", 5)])
        pairs = shifted_series(
            [(a, hierarchy_levels(a)), (b, hierarchy_levels(b))], 14
        )
        events = detect_emergent_heads(pairs, band=2, min_gain=0)
        assert [e.key.lemma for e in events] == ["new"]
        assert events[0].prior_rank is None

    def test_each_key_reports_once(self):
        base = make_asn([("a", "b", 1)])
        flash = make_asn([("a", "b", 1), ("new", "b", 5)])
        pairs = shifted_series(
            [(base, hierarchy_levels(base)),
             (flash, hierarchy_levels(flash)),
             (base, hierarchy_levels(base)),
             (flash, hierarchy_levels(flash))], 14
        )
        events = detect_emergent_heads(pairs, band=2, min_gain=0)
        assert len([e for e in events if e.key.lemma == "new"]) == 1

    def test_parameter_validation(self):
        asn = make_asn([("a", "b", 1)])
        pairs = shifted_series([(asn, hierarchy_levels(asn))], 14)
        with pytest.raises(ValueError, match="band"):
            detect_emergent_heads(pairs, band=0)
        with pytest.raises(ValueError, match="min_gain"):
            detect_emergent_heads(pairs, min_gain=-1)

    def test_unordered_centuries_rejected(self):
        asn = make_asn([("a", "b", 1)])
        lv = hierarchy_levels(asn)
        backwards = shifted_series([(asn, lv), (asn, lv)], 14)[::-1]
        with pytest.raises(ValueError, match="strictly increasing"):
            detect_emergent_heads(backwards)

    def test_century_required(self):
        asn = make_asn([("a", "b", 1)])  # century None
        with pytest.raises(ValueError, match="century"):
            detect_emergent_heads([(asn, hierarchy_levels(asn))])


class TestTrackAlignment:
    def test_points_align_with_centuries(self):
        asn1 = make_asn([("a", "b", 1)])
        asn2 = make_asn([("b", "c", 1)])
        pairs = shifted_series(
            [(asn1, hierarchy_levels(asn1)), (asn2, hierarchy_levels(asn2))],
            14,
        )
        trajectories = track([nkey("a"), nkey("zzz")], pairs)
        a_points = trajectories[0].points
        assert [p.century for p in a_points] == [14, 15]
        assert [p.present for p in a_points] == [True, False]
        missing = trajectories[1].points
        assert all(not p.present for p in missing)

    def test_rank_positions_match_ranking_order(self):
        asn = make_asn([("a", "b", 3), ("a", "c", 1), ("b", "c", 1)])
        pairs = shifted_series([(asn, hierarchy_levels(asn))], 14)
        trajectories = track([nkey("a"), nkey("b"), nkey("c")], pairs)
        ranks = {t.key.lemma: t.points[0].level_rank for t in trajectories}
        assert ranks == {"a": 1, "b": 2, "c": 3}
