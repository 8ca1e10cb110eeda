"""Tests for the per-symbol operation-count formulas."""

import csv

import pytest

from mberlink.complexity import Algorithm, op_count, write_complexity_csv
from mberlink.errors import ConfigurationError


class TestWorkedNumbers:
    def test_jio_mber_reference_point(self):
        rep = op_count(Algorithm.JIO_MBER, M=33, D=6, J=1)
        assert (rep.multiplications, rep.additions) == (1262, 962)

    def test_mwf_mber_reference_point(self):
        rep = op_count(Algorithm.MWF_MBER, M=33, D=6, Lp=3)
        assert (rep.multiplications, rep.additions) == (8377, 5920)

    def test_full_rank_lms(self):
        rep = op_count(Algorithm.FULL_RANK_LMS, M=33)
        assert (rep.multiplications, rep.additions) == (67, 66)

    def test_full_rank_mber(self):
        rep = op_count(Algorithm.FULL_RANK_MBER, M=33)
        assert (rep.multiplications, rep.additions) == (4 * 33 + 1, 4 * 33 - 1)

    def test_auto_rank_reference_point(self):
        # independent arithmetic: (6*33+5)*20 + 33 + 11 and (5*33+1)*20 - 33 - 1
        rep = op_count(Algorithm.JIO_MBER_AUTO, M=33, D_max=20)
        assert (rep.multiplications, rep.additions) == (4104, 3286)

    def test_eig_is_flagged_asymptotic(self):
        rep = op_count(Algorithm.EIG, M=10)
        assert rep.asymptotic
        assert rep.multiplications == rep.additions == 1000
        assert not op_count(Algorithm.JIO_MBER, M=10, D=2, J=1).asymptotic


class TestFormulaProperties:
    def test_jio_mber_linear_in_cycles(self):
        one = op_count(Algorithm.JIO_MBER, M=33, D=6, J=1)
        two = op_count(Algorithm.JIO_MBER, M=33, D=6, J=2)
        five = op_count(Algorithm.JIO_MBER, M=33, D=6, J=5)
        assert two.multiplications == 2 * one.multiplications
        assert two.additions == 2 * one.additions
        assert five.multiplications == 5 * one.multiplications
        assert five.additions == 5 * one.additions

    def test_counts_nondecreasing_in_rank(self):
        rank_dependent = (Algorithm.MWF_LMS, Algorithm.JIO_LMS, Algorithm.MWF_MBER,
                          Algorithm.JIO_MBER)
        for algorithm in rank_dependent:
            previous = None
            for d in range(2, 21):
                rep = op_count(algorithm, M=33, D=d, J=1, Lp=3)
                if previous is not None:
                    assert rep.multiplications >= previous.multiplications
                    assert rep.additions >= previous.additions
                previous = rep

    # (multiplications, additions, params, asymptotic) at M=33, D=6, J=5,
    # Lp=3, D_max=20, recorded from the formulas as first written
    GOLDEN = {
        Algorithm.FULL_RANK_LMS: (67, 66, {"M": 33}, False),
        Algorithm.FULL_RANK_MBER: (133, 131, {"M": 33}, False),
        Algorithm.MWF_LMS: (5866, 5461, {"M": 33, "D": 6}, False),
        Algorithm.EIG: (35937, 35937, {"M": 33}, True),
        Algorithm.JIO_LMS: (651, 451, {"M": 33, "D": 6}, False),
        Algorithm.MWF_MBER: (8377, 5920, {"M": 33, "D": 6, "Lp": 3}, False),
        Algorithm.JIO_MBER: (6310, 4810, {"M": 33, "D": 6, "J": 5}, False),
        Algorithm.JIO_MBER_AUTO: (4104, 3286, {"M": 33, "D_max": 20}, False),
    }

    def test_counts_are_integers(self):
        assert set(self.GOLDEN) == set(Algorithm)
        for algorithm in Algorithm:
            rep = op_count(algorithm, M=33, D=6, J=5, Lp=3, D_max=20)
            assert isinstance(rep.multiplications, int)
            assert isinstance(rep.additions, int)
            got = (rep.multiplications, rep.additions, rep.params, rep.asymptotic)
            assert got == self.GOLDEN[algorithm], algorithm

    def test_missing_parameter_rejected(self):
        with pytest.raises(ConfigurationError):
            op_count(Algorithm.JIO_MBER, M=33, D=6)  # no J
        with pytest.raises(ConfigurationError):
            op_count(Algorithm.MWF_MBER, M=33, D=6)  # no Lp
        with pytest.raises(ConfigurationError):
            op_count(Algorithm.JIO_MBER_AUTO, M=33)  # no D_max
        with pytest.raises(ConfigurationError) as err:
            op_count(Algorithm.EIG, M=None)
        assert err.value.field == "M"

    def test_nonpositive_parameter_rejected(self):
        with pytest.raises(ConfigurationError):
            op_count(Algorithm.FULL_RANK_LMS, M=0)

    @pytest.mark.parametrize(
        "algorithm, params, name",
        [
            (Algorithm.JIO_MBER, {"D": 9, "J": 1}, "D"),
            (Algorithm.MWF_MBER, {"D": 6, "Lp": 3}, "D"),
            (Algorithm.JIO_MBER_AUTO, {"D_max": 20}, "D_max"),
            # M = N + Lp - 1 >= Lp for every channel, so a tap count above M is refused too
            (Algorithm.MWF_MBER, {"D": 2, "Lp": 40}, "Lp"),
        ],
    )
    def test_rank_above_observation_size_rejected(self, algorithm, params, name):
        with pytest.raises(ConfigurationError, match=f"{name} must not exceed M=5") as err:
            op_count(algorithm, M=5, **params)
        assert err.value.field == name

    def test_rank_equal_to_observation_size_accepted(self):
        assert op_count(Algorithm.JIO_MBER, M=5, D=5, J=1).params["D"] == 5
        assert op_count(Algorithm.JIO_MBER_AUTO, M=5, D_max=5).params["D_max"] == 5
        assert op_count(Algorithm.MWF_MBER, M=5, D=2, Lp=5).params["Lp"] == 5

    @pytest.mark.parametrize("value", [3.7, 0.5, True])
    def test_non_integer_parameter_rejected(self, value):
        """A fractional count is refused, not truncated (3.7 counted as 3),
        and a bool is no count (True is not M = 1)."""
        message = f"M must be a positive integer, got {value}"
        with pytest.raises(ConfigurationError, match=message) as err:
            op_count(Algorithm.EIG, M=value)
        assert err.value.field == "M"


class TestCsvExport:
    def test_columns_and_values(self, tmp_path):
        path = tmp_path / "complexity.csv"
        reports = [
            op_count(Algorithm.JIO_MBER, M=33, D=6, J=1),
            op_count(Algorithm.FULL_RANK_LMS, M=33),
        ]
        write_complexity_csv(reports, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["algorithm", "M", "D", "J", "Lp", "Dmax", "mults", "adds"]
        assert rows[1] == ["jio_mber", "33", "6", "1", "", "", "1262", "962"]
        assert rows[2] == ["full_rank_lms", "33", "", "", "", "", "67", "66"]
