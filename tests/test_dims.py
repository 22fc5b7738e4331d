"""Dimension-count tests: binomial identities, vanishing, complex tables."""

import math

import pytest

from disckit import (
    ComplexTerm,
    DimReport,
    ParameterError,
    complex_table,
    complex_term_rank,
    dim_sym,
    h_ext_jet,
    h_ext_jet_dual,
    rank_jet,
)
from disckit import dims


def test_dim_sym_values():
    assert dim_sym(0, 3) == 1
    assert dim_sym(2, 2) == 3
    assert dim_sym(3, 4) == math.comb(6, 3)
    assert dim_sym(-1, 5) == 0
    assert dim_sym(-10, 2) == 0
    assert dim_sym(7, 1) == 1
    with pytest.raises(ParameterError):
        dim_sym(2, 0)
    with pytest.raises(ParameterError):
        dim_sym(2, -1)


def test_dim_sym_pascal_recurrence():
    for n in range(0, 8):
        for dimV in range(2, 6):
            assert dim_sym(n, dimV) == dim_sym(n - 1, dimV) + dim_sym(n, dimV - 1)


def test_rank_jet_values_and_bounds():
    assert rank_jet(1, 1) == 2
    assert rank_jet(2, 1) == 3
    assert rank_jet(1, 2) == 3
    assert rank_jet(3, 2) == 10
    assert rank_jet(0, 4) == 1
    with pytest.raises(ParameterError):
        rank_jet(-1, 1)
    with pytest.raises(ParameterError):
        rank_jet(1, 0)


def test_rank_jet_line_is_k_plus_one():
    for k in range(0, 21):
        assert rank_jet(k, 1) == k + 1


def test_h_ext_jet_known_values():
    assert h_ext_jet(1, 3, 1, 1, 0) == 6
    assert h_ext_jet(1, 3, 1, 2, 0) == 5
    assert h_ext_jet(1, 4, 1, 1, 0) == dim_sym(3, 2) * 2  # 8
    assert h_ext_jet(2, 4, 2, 1, 0) == dim_sym(2, 3) * rank_jet(2, 2)


def test_h_ext_jet_vanishes_above_degree_zero():
    for N in (1, 2, 3):
        for d in range(2, 7):
            for k in range(1, d):
                r = rank_jet(k, N)
                for j in range(1, r + 1):
                    for i in range(1, N + 1):
                        assert h_ext_jet(N, d, k, j, i) == 0


def test_h_ext_jet_dual_known_values():
    assert h_ext_jet_dual(1, 3, 1, 2, 1) == 3
    assert h_ext_jet_dual(1, 3, 1, 1, 1) == 2
    # twist j(d-k) - N - 1 negative kills the group
    assert h_ext_jet_dual(1, 2, 1, 1, 1) == 0


def test_h_ext_jet_dual_vanishes_below_top_degree():
    for N in (2, 3):
        for d in range(2, 7):
            for k in range(1, d):
                r = rank_jet(k, N)
                for j in range(1, r + 1):
                    for i in range(0, N):
                        assert h_ext_jet_dual(N, d, k, j, i) == 0


def test_parameter_gates():
    with pytest.raises(ParameterError):
        h_ext_jet(0, 3, 1, 1, 0)
    with pytest.raises(ParameterError):
        h_ext_jet(1, 3, 0, 1, 0)  # k < 1
    with pytest.raises(ParameterError):
        h_ext_jet(1, 3, 3, 1, 0)  # k = d
    with pytest.raises(ParameterError):
        h_ext_jet(1, 3, 1, 0, 0)  # j < 1
    with pytest.raises(ParameterError):
        h_ext_jet(1, 3, 1, 3, 0)  # j > rank_jet(1,1)
    with pytest.raises(ParameterError):
        h_ext_jet(1, 3, 1, 1, 2)  # i > N
    with pytest.raises(ParameterError):
        h_ext_jet(1, 3, 1, 1, -1)


def test_complex_term_rank_records():
    assert complex_term_rank(1, 4, 1, 1) == ComplexTerm(twist=-1, module_dim=4)
    assert complex_term_rank(1, 4, 1, 2) == ComplexTerm(twist=-2, module_dim=5)
    assert complex_term_rank(1, 5, 1, 1) == ComplexTerm(twist=-1, module_dim=6)


def test_complex_term_rank_gate_names_the_inequality():
    with pytest.raises(ParameterError) as info:
        complex_term_rank(1, 2, 1, 1)
    assert "d - k - N - 1 >= 0" in str(info.value)
    with pytest.raises(ParameterError):
        complex_term_rank(2, 3, 1, 1)  # 3 - 1 - 2 - 1 < 0
    # boundary case is allowed
    assert complex_term_rank(1, 3, 1, 1).module_dim == 2
    with pytest.raises(ParameterError):
        complex_term_rank(1, 4, 1, 0)  # j = 0 term belongs to the table
    with pytest.raises(ParameterError):
        complex_term_rank(1, 4, 1, 3)  # j above the rank


def test_complex_table_values():
    assert [t.module_dim for t in complex_table(1, 4, 1)] == [1, 4, 5]
    assert [t.twist for t in complex_table(1, 4, 1)] == [0, -1, -2]
    assert [t.module_dim for t in complex_table(1, 5, 1)] == [1, 6, 7]
    table = complex_table(2, 5, 1)
    assert len(table) == rank_jet(1, 2) + 1 == 4
    assert [t.module_dim for t in table] == [1, 9, 63, 55]
    assert table[0] == ComplexTerm(twist=0, module_dim=1)


def test_complex_table_consistent_with_term_rank():
    for (N, d, k) in [(1, 4, 1), (1, 6, 2), (2, 5, 1)]:
        table = complex_table(N, d, k)
        for j in range(1, len(table)):
            assert table[j] == complex_term_rank(N, d, k, j)


def test_table_bit_limit_sits_between_small_tables_and_runaway_ones():
    # the cells of the benchmark's interactive dims requests, with room to spare
    for N in (1, 2, 3):
        for k in (1, 2, 3):
            for extra in range(10):
                complex_table(N, k + N + 1 + extra, k)
    assert len(complex_table(1, 1601, 1599)) == 1601  # predicts 7.1 * 10^6 bits
    with pytest.raises(ParameterError, match=f"over the limit {dims.MAX_TABLE_BITS}"):
        complex_table(1, 3000, 2998)  # predicts 2.7 * 10^7 bits


def test_dim_report_is_a_plain_record():
    rep = DimReport(1, 3, 1, 1, 0, 6, "ext_jet")
    assert rep.N == 1 and rep.value == 6 and rep.object == "ext_jet"
