"""Tests for the figure reproductions F1-F5."""

import pytest

from repro.figures import figure1, figure2, figure3, figure4, figure5


class TestFigure1:
    def test_validates_and_reports(self):
        rep = figure1(height=8)
        assert rep.facts["height"] == 8
        assert rep.facts["mu"] == 2.0
        assert "L_8" in rep.rendering

    def test_varying_height(self):
        assert figure1(height=4).facts["vertices"] == 31


class TestFigure2:
    def test_splitter_facts(self):
        rep = figure2(height=8)
        assert rep.facts["components"] == 17  # 1 top + 16 subtrees
        assert rep.facts["cut_edges"] == 16
        # component sizes near sqrt(n)
        assert rep.facts["max_T_size"] <= 6 * rep.facts["sqrt_n"]

    def test_taller_tree(self):
        rep = figure2(height=10)
        assert rep.facts["components"] == 33


class TestFigure3:
    @pytest.mark.parametrize("height,least", [(12, 1), (18, 2)])
    def test_distance_positive(self, height, least):
        rep = figure3(height=height)
        assert rep.facts["border_distance"] >= least  # ~h/6 - 1

    def test_distance_tracks_h_over_6(self):
        r12 = figure3(height=12)
        r18 = figure3(height=18)
        assert r18.facts["border_distance"] > r12.facts["border_distance"]
        # distance = h/6 - 1 for heights divisible by 6 (borders are the
        # level pairs around each cut)
        assert r18.facts["border_distance"] == 18 // 6 - 1

    @pytest.mark.slow
    def test_distance_at_h24(self):
        # a 2^25-vertex tree: seconds of build, so it runs nightly
        r24 = figure3(height=24)
        assert r24.facts["border_distance"] == 24 // 6 - 1


class TestFigure4:
    @pytest.mark.parametrize("height", [24, 32])
    def test_band_size_law_holds(self, height):
        rep = figure4(height=height, c=2)
        assert rep.facts["bands"] >= 1
        ratios = [v for k, v in rep.facts.items() if k.endswith("size_over_bound")]
        assert ratios and all(r <= 4.0 for r in ratios)

    def test_bstar_constant(self):
        for h in (16, 24, 40):
            rep = figure4(height=h)
            assert rep.facts["bstar_levels"] <= 10


class TestFigure5:
    @pytest.mark.parametrize("height", [24, 32])
    def test_b1_size_law(self, height):
        rep = figure5(height=height, c=2)
        ratios = [v for k, v in rep.facts.items() if k.endswith("size_ratio")]
        assert ratios and all(r <= 8.0 for r in ratios)

    def test_rendering_mentions_both_parts(self):
        rep = figure5(height=24)
        assert "B_0^1" in rep.rendering and "B_0^2" in rep.rendering
