"""Tests of the DRAM controller's internal mechanisms."""

from repro.memory.dram import AddressMapper, DramSimulator
from repro.memory.timing import DDR3_1066


class TestBankHashing:
    def test_power_of_two_regions_spread_across_banks(self):
        # Distinct stream buffers start at power-of-two offsets; a
        # plain modulo mapping would pin them all to bank 0.  The
        # hashed mapping must spread them.
        simulator = DramSimulator()
        mapper = simulator.mapper
        region_lines = simulator.stream_region_bytes // 64
        banks = {
            mapper.decode(s * region_lines * 64).bank for s in range(8)
        }
        assert len(banks) >= 4

    def test_hashing_preserves_row_runs(self):
        # Within one row's worth of lines the bank must not change
        # (otherwise sequential streams would lose row locality).
        mapper = AddressMapper(timing=DDR3_1066, channels=1)
        lines_per_row = DDR3_1066.row_bytes // 64
        banks = {mapper.decode(i * 64).bank for i in range(lines_per_row)}
        assert len(banks) == 1


class TestFrFcfs:
    def test_row_hits_dominate_for_sequential_streams(self):
        stats = DramSimulator().run(streams=4, requests_per_stream=512)
        assert stats.row_hit_rate > 0.9

    def test_age_cap_prevents_starvation(self):
        # Under pure hit-first scheduling one stream could monopolise
        # its open row for an entire row's worth of requests; the age
        # cap bounds every request's sojourn.
        stats = DramSimulator().run(streams=8, requests_per_stream=512)
        threshold = 32 * DDR3_1066.row_conflict_latency
        # Max latency stays within the cap plus one full service round
        # of the 8 competing streams.
        bound = threshold + 8 * DDR3_1066.row_conflict_latency
        assert stats.max_latency < bound

    def test_more_streams_do_not_reduce_total_bandwidth(self):
        one = DramSimulator().run(streams=1, requests_per_stream=512)
        eight = DramSimulator().run(streams=8, requests_per_stream=512)
        assert (
            eight.bandwidth_bytes_per_second
            >= one.bandwidth_bytes_per_second * 0.9
        )

    def test_deterministic(self):
        a = DramSimulator().run(streams=3, requests_per_stream=128)
        b = DramSimulator().run(streams=3, requests_per_stream=128)
        assert a.mean_latency == b.mean_latency
        assert a.total_time == b.total_time
