"""Seed stability: the same seed must rebuild byte-identical data.

The committed corpus stores only recipes plus content digests, so the
whole quality gate rests on generation being reproducible — same seed,
same bytes, same ``database_digest`` — and on different seeds actually
producing different data.
"""

from __future__ import annotations

import numpy as np

from repro.corpus.manifest import database_digest, digest_hex
from repro.datagen.synthetic import numeric_table, users_table
from repro.datagen.tpch import TPCHConfig, generate_tpch


class TestNumericTable:
    def test_same_seed_byte_identical(self):
        first = numeric_table("data", n=200, seed=42, zipf_z=1.0)
        again = numeric_table("data", n=200, seed=42, zipf_z=1.0)
        for name in first.schema.column_names:
            a = np.asarray(first.column(name))
            b = np.asarray(again.column(name))
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes(), name

    def test_different_seed_differs(self):
        first = numeric_table("data", n=200, seed=42)
        other = numeric_table("data", n=200, seed=43)
        assert (
            np.asarray(first.column("x")).tobytes()
            != np.asarray(other.column("x")).tobytes()
        )


class TestUsersTable:
    def test_same_seed_byte_identical(self):
        first = users_table(n=150, seed=9)
        again = users_table(n=150, seed=9)
        assert database_digest(first) == database_digest(again)
        assert digest_hex(first) == digest_hex(again)

    def test_string_columns_identical(self):
        first = users_table(n=150, seed=9).table("users")
        again = users_table(n=150, seed=9).table("users")
        assert list(first.column("city")) == list(again.column("city"))
        assert list(first.column("interest")) == list(
            again.column("interest")
        )


class TestDigest:
    def test_digest_reflects_content_not_identity(self):
        first = users_table(n=100, seed=5)
        again = users_table(n=100, seed=5)
        other_seed = users_table(n=100, seed=6)
        other_size = users_table(n=101, seed=5)
        assert digest_hex(first) == digest_hex(again)
        assert digest_hex(first) != digest_hex(other_seed)
        assert digest_hex(first) != digest_hex(other_size)

    def test_tpch_same_seed_same_digest(self):
        config = TPCHConfig(scale_rows=120, seed=3)
        assert database_digest(
            generate_tpch(config)
        ) == database_digest(generate_tpch(TPCHConfig(scale_rows=120, seed=3)))
