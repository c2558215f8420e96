import pytest

from etnorm.romans import roman_value


@pytest.mark.parametrize(
    "token,value",
    [
        ("I", 1),
        ("IV", 4),
        ("IX", 9),
        ("XII", 12),
        ("XX", 20),
        ("XL", 40),
        ("XC", 90),
        ("CD", 400),
        ("CM", 900),
        ("MCMXCIX", 1999),
        ("MMXX", 2020),
        ("MMMCMXCIX", 3999),
        ("CV", 105),
        ("CI", 101),
        ("MM", 2000),
        ("MD", 1500),
    ],
)
def test_valid_numerals(token, value):
    assert roman_value(token) == value


@pytest.mark.parametrize(
    "token",
    ["", "DVD", "VV", "IIII", "IC", "XM", "LL", "DD", "IXI", "VX", "MMMM", "ABC", "X\n"],
)
def test_invalid_numerals(token):
    assert roman_value(token) is None


def test_values_round_trip_against_composition():
    # brute force: every strict numeral composed from digit groups parses back
    ones = ["", "I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX"]
    tens = ["", "X", "XX", "XXX", "XL", "L", "LX", "LXX", "LXXX", "XC"]
    hundreds = ["", "C", "CC", "CCC", "CD", "D", "DC", "DCC", "DCCC", "CM"]
    thousands = ["", "M", "MM", "MMM"]
    for n in range(1, 4000):
        token = (
            thousands[n // 1000]
            + hundreds[n // 100 % 10]
            + tens[n // 10 % 10]
            + ones[n % 10]
        )
        assert roman_value(token) == n
